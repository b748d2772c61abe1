//! The flight recorder: a bounded ring of recent `qz-obs` events plus
//! periodic state digests, dumped as one self-describing JSON
//! postmortem that carries the exact single-line repro command.
//!
//! Three producers feed it:
//!
//! - `qz-fault`'s differential oracle builds a [`FlightRecorder`] from
//!   a violating campaign's recorded event stream (deterministic, so
//!   the dump doubles as a golden-testable artifact);
//! - a live [`FlightObserver`] can sit in the simulator's observer
//!   slot, keeping the ring warm while the run is still in flight;
//! - an armed panic hook ([`arm_panic_dump`]) writes whatever the
//!   shared ring holds — plus the panic message and location — the
//!   moment an invariant `panic!`s, so crashes ship their own
//!   evidence.

use qz_obs::{Event, EventKind, Observer, RingBufferObserver};
use qz_types::json::Writer;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Schema tag stamped into every dump.
pub const FLIGHT_SCHEMA: &str = "qz-flight/v1";

/// Ring capacity used by the bundled producers.
pub const DEFAULT_RING_CAPACITY: usize = 64;

/// Digests kept (oldest dropped first).
const DIGEST_CAPACITY: usize = 64;

/// Who recorded the flight and how to reproduce it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlightMeta {
    /// Producing subsystem, e.g. `"qz-fault campaign 3"`.
    pub source: String,
    /// The exact single-line command that reproduces the run, e.g.
    /// `qz fault --system quetzal --seed 0x51ca1 --campaigns 1`.
    pub repro: String,
}

/// One periodic state digest, derived from `Snapshot` events: enough
/// to see the energy/buffer/policy trajectory leading into a crash
/// without replaying the run.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDigest {
    /// Device time, ms.
    pub t_ms: u64,
    /// Stored energy, joules.
    pub stored_j: f64,
    /// Powered on?
    pub on: bool,
    /// Buffer occupancy (queued + in flight).
    pub occupancy: u32,
    /// FNV-1a hash over the policy-visible state (λ bits, correction
    /// bits, active option) — a cheap equality witness for "the policy
    /// was in the same state" across runs.
    pub policy_hash: u64,
}

/// FNV-1a over the policy-visible snapshot fields. Bit-exact inputs
/// (`to_bits`) so the hash is as deterministic as the simulation.
pub fn policy_hash(lambda: f64, correction_s: f64, active_option: Option<usize>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(&lambda.to_bits().to_le_bytes());
    eat(&correction_s.to_bits().to_le_bytes());
    match active_option {
        None => eat(&[0xff]),
        Some(o) => eat(&u64::try_from(o).unwrap_or(u64::MAX).to_le_bytes()),
    }
    h
}

/// The bounded ring + digest log, renderable as a JSON postmortem.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    meta: FlightMeta,
    ring: RingBufferObserver,
    digests: VecDeque<StateDigest>,
    digests_dropped: u64,
}

impl FlightRecorder {
    /// An empty recorder with the given ring capacity (≥ 1).
    pub fn new(meta: FlightMeta, capacity: usize) -> FlightRecorder {
        FlightRecorder {
            meta,
            ring: RingBufferObserver::new(capacity),
            digests: VecDeque::new(),
            digests_dropped: 0,
        }
    }

    /// Builds a recorder by replaying a finished run's event stream —
    /// the tail lands in the ring exactly as if recorded live.
    pub fn from_events(meta: FlightMeta, events: &[Event], capacity: usize) -> FlightRecorder {
        let mut rec = FlightRecorder::new(meta, capacity);
        for e in events {
            rec.record(e.clone());
        }
        rec
    }

    /// Records one event, moving it into the ring; `Snapshot`s also
    /// produce a state digest.
    pub fn record(&mut self, event: Event) {
        if let EventKind::Snapshot(s) = &event.kind {
            if self.digests.len() == DIGEST_CAPACITY {
                self.digests.pop_front();
                self.digests_dropped += 1;
            }
            self.digests.push_back(StateDigest {
                t_ms: event.t_ms,
                stored_j: s.stored_j,
                on: s.on,
                occupancy: s.occupancy,
                policy_hash: policy_hash(
                    s.lambda,
                    s.correction_s,
                    s.active_option.map(usize::from),
                ),
            });
        }
        self.ring.on_event(event);
    }

    /// Events currently in the ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// State digests currently held, oldest first.
    pub fn digests(&self) -> &VecDeque<StateDigest> {
        &self.digests
    }

    /// The recorder's meta (source + repro line).
    pub fn meta(&self) -> &FlightMeta {
        &self.meta
    }

    /// Renders the postmortem: schema, source, repro, an optional
    /// crash annotation, an optional embedded `resume` field, the digest
    /// log, and the event ring (each event in `qz-obs`'s JSONL object
    /// form). `resume` must be a pre-serialized JSON value (e.g. a
    /// `qz-snap/v2` snapshot); it is spliced in verbatim so time-travel
    /// tooling can resume the run straight from the dump.
    pub fn to_json_with(&self, panic_note: Option<&str>, resume: Option<&str>) -> String {
        let mut out = String::new();
        Writer::new(&mut out).obj(|w| {
            w.field("schema", FLIGHT_SCHEMA)
                .field("source", &self.meta.source)
                .field("repro", &self.meta.repro);
            if let Some(note) = panic_note {
                w.field("panic", note);
            }
            if let Some(snapshot) = resume {
                w.key("resume").raw(snapshot);
            }
            w.field("ring_dropped", self.dropped())
                .field("digests_dropped", self.digests_dropped)
                .key("digests")
                .arr(|w| {
                    for d in &self.digests {
                        w.obj(|w| {
                            w.field("t_ms", d.t_ms)
                                .field("stored_j", d.stored_j)
                                .field("on", d.on)
                                .field("occupancy", d.occupancy)
                                .key("policy_hash")
                                .str_fmt(format_args!("{:#018x}", d.policy_hash));
                        });
                    }
                })
                .key("ring")
                .items(self.ring.iter());
        });
        out
    }

    /// Renders the postmortem without a crash annotation or resume point.
    pub fn to_json(&self) -> String {
        self.to_json_with(None, None)
    }
}

/// A live observer wrapping a shared [`FlightRecorder`], for the
/// simulator's observer slot. The handle half survives the run (and a
/// panic mid-run), so the ring can be dumped at any moment.
#[derive(Debug)]
pub struct FlightObserver {
    inner: Arc<Mutex<FlightRecorder>>,
}

/// The dump side of a [`FlightObserver`] (or any shared recorder).
#[derive(Debug, Clone)]
pub struct FlightHandle {
    inner: Arc<Mutex<FlightRecorder>>,
}

impl FlightObserver {
    /// A fresh observer/handle pair over one shared ring.
    pub fn new(meta: FlightMeta, capacity: usize) -> (FlightObserver, FlightHandle) {
        let inner = Arc::new(Mutex::new(FlightRecorder::new(meta, capacity)));
        (
            FlightObserver {
                inner: Arc::clone(&inner),
            },
            FlightHandle { inner },
        )
    }
}

impl Observer for FlightObserver {
    fn on_event(&mut self, event: Event) {
        if let Ok(mut rec) = self.inner.lock() {
            rec.record(event);
        }
    }
}

impl FlightHandle {
    /// Snapshot of the current postmortem JSON, with an optional crash
    /// annotation.
    pub fn dump_json(&self, panic_note: Option<&str>) -> String {
        let rec = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        rec.to_json_with(panic_note, None)
    }
}

/// What the armed panic hook writes.
#[derive(Debug)]
struct ArmedDump {
    path: PathBuf,
    meta: FlightMeta,
    handle: Option<FlightHandle>,
}

fn armed_slot() -> &'static Mutex<Option<ArmedDump>> {
    static ARMED: OnceLock<Mutex<Option<ArmedDump>>> = OnceLock::new();
    ARMED.get_or_init(|| Mutex::new(None))
}

fn install_hook_once() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let note = {
                let msg = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| info.payload().downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| String::from("panic payload is not a string"));
                match info.location() {
                    Some(loc) => format!("{msg} at {}:{}", loc.file(), loc.line()),
                    None => msg,
                }
            };
            let armed = armed_slot().lock().ok().and_then(|mut slot| slot.take());
            if let Some(armed) = armed {
                let json = match &armed.handle {
                    Some(handle) => handle.dump_json(Some(&note)),
                    None => {
                        FlightRecorder::new(armed.meta.clone(), 1).to_json_with(Some(&note), None)
                    }
                };
                // Best-effort: a failing write must not re-panic the hook.
                let _ = std::fs::write(&armed.path, json);
                eprintln!(
                    "qz-prof: wrote flight-recorder postmortem to {} (repro: {})",
                    armed.path.display(),
                    armed.meta.repro
                );
            }
            previous(info);
        }));
    });
}

/// Arms the panic hook: the next panic anywhere in the process writes
/// a postmortem JSON to `path` — from the shared ring when `handle` is
/// given, otherwise a meta-only dump with the panic note and repro
/// line. Re-arming replaces the previous arm; [`disarm_panic_dump`]
/// stands down.
pub fn arm_panic_dump(path: PathBuf, meta: FlightMeta, handle: Option<FlightHandle>) {
    install_hook_once();
    if let Ok(mut slot) = armed_slot().lock() {
        *slot = Some(ArmedDump { path, meta, handle });
    }
}

/// Disarms a previous [`arm_panic_dump`]; panics stop writing dumps.
pub fn disarm_panic_dump() {
    if let Ok(mut slot) = armed_slot().lock() {
        *slot = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qz_obs::Snapshot;

    fn snapshot_event(t_ms: u64, occupancy: u32) -> Event {
        Event {
            t_ms,
            kind: EventKind::Snapshot(Snapshot {
                irradiance: 0.5,
                stored_j: 0.125,
                on: true,
                occupancy,
                lambda: 0.4,
                correction_s: -0.01,
                active_option: Some(1),
                ibo_discards: 0,
            }),
        }
    }

    fn restore_event(t_ms: u64) -> Event {
        Event {
            t_ms,
            kind: EventKind::Restore { off_ms: 42 },
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut rec = FlightRecorder::new(FlightMeta::default(), 3);
        for t in 0..10 {
            rec.record(restore_event(t));
        }
        assert_eq!(rec.events().count(), 3);
        assert_eq!(rec.dropped(), 7);
        let oldest = rec.events().next().unwrap().t_ms;
        assert_eq!(oldest, 7, "ring keeps the newest tail");
    }

    #[test]
    fn snapshots_become_digests_with_policy_hash() {
        let mut rec = FlightRecorder::new(FlightMeta::default(), 8);
        rec.record(snapshot_event(1000, 3));
        rec.record(restore_event(1500));
        rec.record(snapshot_event(2000, 5));
        assert_eq!(rec.digests().len(), 2);
        let d = &rec.digests()[1];
        assert_eq!(d.t_ms, 2000);
        assert_eq!(d.occupancy, 5);
        assert_eq!(d.policy_hash, policy_hash(0.4, -0.01, Some(1)));
        // Different policy state hashes differently.
        assert_ne!(
            policy_hash(0.4, -0.01, Some(1)),
            policy_hash(0.4, -0.01, None)
        );
        assert_ne!(
            policy_hash(0.4, -0.01, Some(1)),
            policy_hash(0.4000001, -0.01, Some(1))
        );
    }

    #[test]
    fn dump_is_self_describing_and_deterministic() {
        let meta = FlightMeta {
            source: String::from("unit test"),
            repro: String::from("qz fault --system quetzal --seed 0x1 --campaigns 1"),
        };
        let events = vec![snapshot_event(1000, 2), restore_event(2500)];
        let a = FlightRecorder::from_events(meta.clone(), &events, 4).to_json();
        let b = FlightRecorder::from_events(meta, &events, 4).to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema\":\"qz-flight/v1\""));
        assert!(a.contains("\"repro\":\"qz fault --system quetzal"));
        assert!(a.contains("\"policy_hash\":\"0x"));
        assert!(a.contains("\"kind\":\"restore\""));
        assert!(!a.contains("\"panic\""));
        let with_panic = FlightRecorder::from_events(FlightMeta::default(), &events, 4)
            .to_json_with(Some("boom at engine.rs:1"), None);
        assert!(with_panic.contains("\"panic\":\"boom at engine.rs:1\""));
    }

    #[test]
    fn resume_snapshot_is_embedded_verbatim() {
        let events = vec![snapshot_event(1000, 2)];
        let rec = FlightRecorder::from_events(FlightMeta::default(), &events, 4);
        let dump = rec.to_json_with(None, Some("{\"schema\":\"qz-snap/v2\",\"t_ms\":1000}"));
        assert!(dump.contains(",\"resume\":{\"schema\":\"qz-snap/v2\",\"t_ms\":1000},"));
        // Without a resume value the field is absent entirely.
        assert!(!rec.to_json().contains("\"resume\""));
        // Panic note and resume compose.
        let both = rec.to_json_with(Some("boom"), Some("{\"t_ms\":7}"));
        assert!(both.contains("\"panic\":\"boom\""));
        assert!(both.contains("\"resume\":{\"t_ms\":7}"));
    }

    #[test]
    fn observer_feeds_the_shared_ring() {
        let (mut obs, handle) = FlightObserver::new(FlightMeta::default(), 4);
        obs.on_event(snapshot_event(100, 1));
        obs.on_event(restore_event(200));
        let json = handle.dump_json(None);
        assert!(json.contains("\"t_ms\":200"));
        assert!(json.contains("\"digests\":[{\"t_ms\":100"));
    }

    #[test]
    fn armed_panic_hook_writes_a_postmortem() {
        let dir = std::env::temp_dir().join("qz_prof_panic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("postmortem.json");
        let _ = std::fs::remove_file(&path);

        let (mut obs, handle) = FlightObserver::new(
            FlightMeta {
                source: String::from("panic test"),
                repro: String::from("qz profile --env crowded"),
            },
            4,
        );
        obs.on_event(restore_event(7));
        arm_panic_dump(
            path.clone(),
            FlightMeta {
                source: String::from("panic test"),
                repro: String::from("qz profile --env crowded"),
            },
            Some(handle),
        );
        let result = std::panic::catch_unwind(|| panic!("deliberate test panic"));
        assert!(result.is_err());
        let dump = std::fs::read_to_string(&path).expect("postmortem written");
        assert!(dump.contains("\"schema\":\"qz-flight/v1\""));
        assert!(dump.contains("deliberate test panic"));
        assert!(dump.contains("\"t_ms\":7"));
        disarm_panic_dump();

        // Disarmed: the next panic writes nothing.
        let _ = std::fs::remove_file(&path);
        let result = std::panic::catch_unwind(|| panic!("second panic"));
        assert!(result.is_err());
        assert!(!path.exists(), "disarmed hook must not write");
    }
}
