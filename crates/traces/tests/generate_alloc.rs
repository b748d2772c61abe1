//! Generating an environment allocates its event list and nothing that
//! grows with the trace's duration: the solar trace is kept as
//! generator parameters, so no per-second irradiance sample is stored.
//!
//! A counting global allocator tallies the bytes requested on the test
//! thread while `SensingEnvironment::generate` runs.

use qz_traces::{EnvironmentKind, Event, SensingEnvironment};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Bytes requested on this thread while `counting` is set.
    static BYTES: Cell<Option<usize>> = const { Cell::new(None) };
}

// SAFETY: every call forwards to the system allocator unchanged; the
// tally only reads the layout's size.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn tally(bytes: usize) {
    // `try_with` keeps allocations during thread teardown harmless.
    let _ = BYTES.try_with(|b| b.set(b.get().map(|n| n + bytes)));
}

/// Bytes allocated by `f` on this thread, with what it returned.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    BYTES.with(|b| b.set(Some(0)));
    let out = f();
    let bytes = BYTES.with(|b| b.replace(None)).unwrap_or(0);
    (out, bytes)
}

/// Slack for fixed-size bookkeeping beside the event list.
const SMALL: usize = 256;

#[test]
fn generate_allocates_the_event_list_and_no_solar_samples() {
    // The fleet-sparse shape (2 events per device) and a longer event
    // list, whose solar trace runs for hours, on every scene.
    for events in [2, 40] {
        for kind in EnvironmentKind::ALL {
            for seed in 0..8 {
                let (env, bytes) = counted(|| SensingEnvironment::generate(kind, events, seed));
                let event_list = events * std::mem::size_of::<Event>();
                let secs = env.solar().duration().as_millis() / 1000;
                assert!(
                    bytes <= event_list + SMALL,
                    "{kind} × {events} events (seed {seed}, {secs} s of sun): \
                     {bytes} B allocated, bound {event_list} + {SMALL} B"
                );
            }
        }
    }
}
