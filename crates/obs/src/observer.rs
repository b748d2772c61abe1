//! The pluggable observer hook and the ownership plumbing the
//! instrumented components use.

use alloc::boxed::Box;
use alloc::vec::Vec;

use crate::event::{Event, EventKind};
use crate::sinks::RecordingObserver;

/// Receives the event stream from the runtime and the simulator.
///
/// Implementations decide what to keep: the bundled sinks record, ring,
/// or aggregate into metrics. `enabled()` lets emission sites skip
/// event construction entirely — [`NoopObserver`] returns `false`, and
/// [`ObserverHandle`] caches the answer so the disabled fast path is a
/// single boolean test.
///
/// Observers must be `Send`: the fleet executor (`qz-fleet`) moves
/// whole simulations — observer included — across worker threads
/// between epochs. All bundled sinks are plain owned data, so the
/// bound costs nothing.
pub trait Observer: core::fmt::Debug + Send {
    /// Whether this observer wants events at all. Checked once at
    /// install time; return `false` to compile emission down to nothing.
    fn enabled(&self) -> bool {
        true
    }

    /// Called for every event while enabled. The event is handed over
    /// by value, so a sink that keeps it stores the emitter's
    /// allocation (the candidate and option payloads included) instead
    /// of cloning it; a sink that only reads it drops it on return.
    fn on_event(&mut self, event: Event);

    /// Downcast support for retrieving a concrete sink after a run.
    fn as_any_mut(&mut self) -> Option<&mut dyn core::any::Any> {
        None
    }
}

/// The default observer: discards everything and reports itself
/// disabled, so instrumented code never constructs an event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    fn enabled(&self) -> bool {
        false
    }

    fn on_event(&mut self, _event: Event) {}
}

/// Owns the installed observer and stamps events with device time.
///
/// Components that emit hold one of these. The `enabled` flag is
/// cached from [`Observer::enabled`] at install time; call sites guard
/// with [`ObserverHandle::enabled`] before building an [`EventKind`] so
/// the disabled path costs one branch.
#[derive(Debug)]
pub struct ObserverHandle {
    observer: Box<dyn Observer>,
    enabled: bool,
    now_ms: u64,
}

impl Default for ObserverHandle {
    fn default() -> Self {
        Self::noop()
    }
}

impl ObserverHandle {
    /// A handle with the disabled [`NoopObserver`] installed.
    pub fn noop() -> Self {
        ObserverHandle {
            observer: Box::new(NoopObserver),
            enabled: false,
            now_ms: 0,
        }
    }

    /// Installs an observer, replacing the current one.
    pub fn install(&mut self, observer: Box<dyn Observer>) {
        self.enabled = observer.enabled();
        self.observer = observer;
    }

    /// Removes the installed observer, leaving a noop in its place.
    pub fn take(&mut self) -> Box<dyn Observer> {
        self.enabled = false;
        core::mem::replace(&mut self.observer, Box::new(NoopObserver))
    }

    /// Whether events should be constructed at all. `#[inline]` so the
    /// disabled fast path is a cached-bool test at the call site.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Advances the device clock used to stamp events, milliseconds.
    #[inline]
    pub fn set_now_ms(&mut self, now_ms: u64) {
        self.now_ms = now_ms;
    }

    /// The current device time stamp, milliseconds.
    #[inline]
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Stamps and delivers an event. Call sites should guard with
    /// [`enabled`](ObserverHandle::enabled) — `emit` re-checks, so an
    /// unguarded call is safe but has already paid for the event.
    pub fn emit(&mut self, kind: EventKind) {
        if self.enabled {
            self.observer.on_event(Event {
                t_ms: self.now_ms,
                kind,
            });
        }
    }

    /// Borrows the installed observer.
    pub fn observer_mut(&mut self) -> &mut dyn Observer {
        self.observer.as_mut()
    }
}

/// Extracts the events from an observer if it is a
/// [`RecordingObserver`]; `None` for any other sink.
pub fn take_recorded(observer: &mut dyn Observer) -> Option<Vec<Event>> {
    observer
        .as_any_mut()?
        .downcast_mut::<RecordingObserver>()
        .map(RecordingObserver::take_events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_emission_is_skipped() {
        let mut handle = ObserverHandle::noop();
        assert!(!handle.enabled());
        handle.emit(EventKind::Checkpoint);
        assert!(take_recorded(handle.observer_mut()).is_none());
    }

    #[test]
    fn install_caches_enabled_and_stamps_time() {
        let mut handle = ObserverHandle::noop();
        handle.install(Box::new(RecordingObserver::new()));
        assert!(handle.enabled());
        handle.set_now_ms(42);
        handle.emit(EventKind::Checkpoint);
        handle.set_now_ms(43);
        handle.emit(EventKind::Restore { off_ms: 7 });
        let events = take_recorded(handle.observer_mut()).expect("recording sink");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].t_ms, 42);
        assert_eq!(events[1].t_ms, 43);
        assert_eq!(events[1].kind, EventKind::Restore { off_ms: 7 });
    }

    #[test]
    fn take_restores_noop() {
        let mut handle = ObserverHandle::noop();
        handle.install(Box::new(RecordingObserver::new()));
        handle.emit(EventKind::Checkpoint);
        let mut taken = handle.take();
        assert!(!handle.enabled());
        let events = take_recorded(taken.as_mut()).expect("recording sink");
        assert_eq!(events.len(), 1);
    }
}
