//! Pins the flight-recorder postmortem format: a fixed seeded run's
//! decision-event stream, folded through `FlightRecorder::from_events`,
//! must render exactly the committed golden dump. The dump is what a
//! human (or `qz fault --postmortem`) reads after a crash, so its
//! schema, field names, digest log, and event ring are all contract.
//!
//! A failure is either a simulation behaviour change (the golden
//! regression suite will fail too — re-baseline both consciously) or a
//! format change in `qz-prof` (re-baseline this file alone; bump
//! `FLIGHT_SCHEMA` if the shape changed incompatibly).
//!
//! Regenerate with:
//! `cargo test -p qz-bench --test flight_recorder_dump -- --nocapture`
//! (the failing assertion prints the new dump).

use qz_app::{apollo4, simulate_traced, SimTweaks};
use qz_baselines::BaselineKind;
use qz_prof::{FlightMeta, FlightRecorder, DEFAULT_RING_CAPACITY};
use qz_traces::{EnvironmentKind, SensingEnvironment};

const SEED: u64 = 424_242;

fn recorded_dump() -> String {
    let profile = apollo4();
    let env = SensingEnvironment::generate(EnvironmentKind::Crowded, 12, SEED);
    let (_, events) = simulate_traced(
        BaselineKind::Quetzal,
        &profile,
        &env,
        &SimTweaks {
            seed: SEED,
            ..SimTweaks::default()
        },
    );
    assert!(
        events.len() > DEFAULT_RING_CAPACITY,
        "run too small to exercise ring eviction ({} events)",
        events.len()
    );
    let meta = FlightMeta {
        source: "flight_recorder_dump test".into(),
        repro: "qz run --system QZ --device apollo4 --env crowded --events 12 --seed 424242".into(),
    };
    FlightRecorder::from_events(meta, &events, DEFAULT_RING_CAPACITY).to_json()
}

#[test]
fn flight_dump_matches_golden() {
    let got = recorded_dump();
    let want = include_str!("golden/flight_dump.json");
    assert_eq!(
        got,
        want.trim_end(),
        "flight dump drifted — re-baseline tests/golden/flight_dump.json if intentional:\n{got}"
    );
}

/// The dump must survive a round of ring eviction: `ring_dropped`
/// reflects the overflow and the ring holds exactly the newest
/// `DEFAULT_RING_CAPACITY` events.
#[test]
fn dump_reports_ring_eviction() {
    let dump = recorded_dump();
    let dropped: u64 = dump
        .split("\"ring_dropped\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.parse().ok())
        .expect("ring_dropped field present");
    assert!(dropped > 0, "expected the fixed run to overflow the ring");
}

/// A panic annotation threads through verbatim (this is the string the
/// armed panic hook writes into a crash dump).
#[test]
fn panic_note_renders_in_dump() {
    let meta = FlightMeta {
        source: "unit".into(),
        repro: "qz profile --events 1".into(),
    };
    let rec = FlightRecorder::new(meta, 4);
    let dump = rec.to_json_with(Some("index out of bounds: 99"), None);
    assert!(
        dump.contains("\"panic\":\"index out of bounds: 99\""),
        "panic note missing from dump: {dump}"
    );
}
