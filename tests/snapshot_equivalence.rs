//! Property-based tests for the time-travel contract: save → restore →
//! resume must be byte-identical to straight-through execution on both
//! stepping engines, for *arbitrary* configurations and for snapshot
//! instants landing anywhere — including mid-quiescent-span, where the
//! fast-forward engine has to split a skip to honour the cut.
//!
//! Four properties:
//!
//! 1. The resumed suffix reproduces the straight-through run exactly:
//!    metrics, the recorded observer event stream, and the JSONL/CSV
//!    renderings of that stream, after a `qz-snap/v2` JSON roundtrip of
//!    the state itself.
//! 2. Telemetry sampling is restore-invariant: a telemetry observer on a
//!    run resumed from a snapshot collects exactly the uninterrupted
//!    run's samples from the cut onwards.
//! 3. `History::rollback_to` then replay is idempotent: rolling back to
//!    an arbitrary tick and stepping forward again lands on the exact
//!    end-of-horizon state, twice in a row.
//! 4. A snapshot that restores resumes: a snapshot document with one
//!    digit edited is rejected by `from_json` or `restore_state`, or it
//!    runs to the end without a panic.

use proptest::prelude::*;
use qz_baselines::BaselineKind;
use qz_obs::export::{write_csv, write_jsonl};
use qz_obs::Event;
use qz_sim::{EngineKind, Simulation, Telemetry};
use qz_snap::{from_json, to_json, History};
use qz_traces::{EnvironmentKind, SensingEnvironment};
use qz_types::{SimDuration, SimTime};
use std::sync::OnceLock;

mod snapshot_edits;

fn any_engine() -> impl Strategy<Value = EngineKind> {
    prop_oneof![Just(EngineKind::Tick), Just(EngineKind::FastForward)]
}

fn any_env_kind() -> impl Strategy<Value = EnvironmentKind> {
    // Quiet maximises long quiescent spans, so millisecond-granular cut
    // instants routinely land inside a span the fast-forward engine
    // would otherwise skip over in one hop.
    prop_oneof![
        Just(EnvironmentKind::Quiet),
        Just(EnvironmentKind::LessCrowded),
        Just(EnvironmentKind::Crowded),
        Just(EnvironmentKind::Short),
    ]
}

fn any_baseline() -> impl Strategy<Value = BaselineKind> {
    prop_oneof![
        Just(BaselineKind::Quetzal),
        Just(BaselineKind::CatNap),
        Just(BaselineKind::NoAdapt),
    ]
}

fn tweaks(seed: u64, engine: EngineKind) -> qz_app::SimTweaks {
    qz_app::SimTweaks {
        seed,
        engine,
        ..qz_app::SimTweaks::default()
    }
}

/// Finishes `sim`, returning its metrics and what its installed
/// [`Telemetry`] observer collected.
fn finish_with_telemetry(sim: Simulation<'_>) -> (qz_sim::Metrics, Telemetry) {
    let (metrics, mut observer) = sim.run_traced();
    let telemetry = Telemetry::take_from(observer.as_mut()).expect("telemetry observer installed");
    (metrics, telemetry)
}

fn render_jsonl(events: &[Event]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_jsonl(&mut buf, events).expect("in-memory write");
    buf
}

fn render_csv(events: &[Event]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_csv(&mut buf, events).expect("in-memory write");
    buf
}

proptest! {
    // Every case runs the full simulation three times (reference,
    // prefix, resumed suffix); keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn save_restore_resume_is_byte_identical(
        kind in any_baseline(),
        engine in any_engine(),
        env_kind in any_env_kind(),
        events in 3usize..10,
        seed in 0u64..1000,
        cut_ms in 1_000u64..240_000,
    ) {
        let env = SensingEnvironment::generate(env_kind, events, seed);
        let tw = tweaks(seed, engine);
        let profile = qz_app::apollo4();

        // Straight-through reference with a recording observer.
        let mut reference = qz_app::build_simulation(kind, &profile, &env, &tw);
        reference.set_observer(Box::new(qz_obs::RecordingObserver::new()));
        let (ref_metrics, mut ref_obs) = reference.run_traced();
        let ref_events =
            qz_obs::take_recorded(ref_obs.as_mut()).expect("recording sink installed");

        // Prefix leg: step to the cut (wherever the run actually lands
        // — a short run may finish earlier), snapshot, and roundtrip
        // the state through the qz-snap/v2 wire format.
        let mut prefix = qz_app::build_simulation(kind, &profile, &env, &tw);
        prefix.step_until(SimTime::from_millis(cut_ms));
        let cut = prefix.time();
        let state = prefix.save_state().map_err(TestCaseError::fail)?;
        let parsed = from_json(&to_json(&state), prefix.runtime().spec())
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(&parsed, &state, "qz-snap/v2 roundtrip lost state");

        // Resumed leg: fresh simulation, restore the parsed state,
        // observe the suffix, and finish.
        let mut resumed = qz_app::build_simulation(kind, &profile, &env, &tw);
        resumed.restore_state(&parsed).map_err(TestCaseError::fail)?;
        resumed.set_observer(Box::new(qz_obs::RecordingObserver::new()));
        let (res_metrics, mut res_obs) = resumed.run_traced();
        let res_events =
            qz_obs::take_recorded(res_obs.as_mut()).expect("recording sink installed");

        // The snapshot holds every tick < cut fully processed, so the
        // comparable suffix is exactly the reference events stamped
        // >= cut.
        let ref_suffix: Vec<Event> = ref_events
            .into_iter()
            .filter(|e| e.t_ms >= cut.as_millis())
            .collect();

        prop_assert_eq!(&res_metrics, &ref_metrics, "end-of-run metrics diverged");
        prop_assert_eq!(&res_events, &ref_suffix, "suffix event streams diverged");
        prop_assert_eq!(
            render_jsonl(&res_events),
            render_jsonl(&ref_suffix),
            "JSONL renderings diverged"
        );
        prop_assert_eq!(
            render_csv(&res_events),
            render_csv(&ref_suffix),
            "CSV renderings diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn telemetry_is_restore_invariant(
        engine in any_engine(),
        env_kind in any_env_kind(),
        seed in 0u64..1000,
        cut_ms in 1_000u64..180_000,
    ) {
        let env = SensingEnvironment::generate(env_kind, 6, seed);
        let tw = tweaks(seed, engine);
        let profile = qz_app::apollo4();

        let mut reference =
            qz_app::build_simulation(BaselineKind::Quetzal, &profile, &env, &tw);
        reference.set_observer(Box::new(Telemetry::default()));
        reference.step_until(SimTime::from_millis(cut_ms));
        let cut = reference.time();
        let state = reference.save_state().map_err(TestCaseError::fail)?;
        let (ref_metrics, ref_telemetry) = finish_with_telemetry(reference);

        let mut resumed =
            qz_app::build_simulation(BaselineKind::Quetzal, &profile, &env, &tw);
        resumed.set_observer(Box::new(Telemetry::default()));
        resumed.restore_state(&state).map_err(TestCaseError::fail)?;
        let (res_metrics, res_telemetry) = finish_with_telemetry(resumed);

        let ref_suffix: Vec<_> =
            ref_telemetry.samples().iter().filter(|s| s.t >= cut).copied().collect();
        prop_assert_eq!(res_metrics, ref_metrics, "metrics diverged after restore");
        prop_assert_eq!(
            res_telemetry.samples(),
            &ref_suffix[..],
            "telemetry diverged after restore"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn rollback_then_replay_is_idempotent(
        engine in any_engine(),
        env_kind in any_env_kind(),
        seed in 0u64..1000,
        stride_s in 5u64..25,
        capacity in 3usize..10,
        horizon_s in 60u64..180,
        frac in 0u64..1000,
    ) {
        let env = SensingEnvironment::generate(env_kind, 6, seed);
        let tw = tweaks(seed, engine);
        let profile = qz_app::apollo4();
        let mut sim =
            qz_app::build_simulation(BaselineKind::Quetzal, &profile, &env, &tw);

        let mut history = History::new(SimDuration::from_secs(stride_s), capacity);
        history
            .advance_until(&mut sim, SimTime::from_secs(horizon_s))
            .map_err(TestCaseError::fail)?;
        let end = sim.time();
        let probe = sim.save_state().map_err(TestCaseError::fail)?;

        // An arbitrary rollback target on the covered timeline; the
        // pinned initial snapshot guarantees a floor, and millisecond
        // granularity means most targets sit strictly between captures.
        let held = history.times();
        let lo = held.first().copied().unwrap_or(SimTime::ZERO).as_millis();
        let target = SimTime::from_millis(lo + (end.as_millis() - lo) * frac / 1000);

        for round in 0..2 {
            let from = history
                .rollback_to(&mut sim, target)
                .map_err(TestCaseError::fail)?;
            prop_assert!(from <= target, "restored snapshot is at or before the target");
            prop_assert_eq!(sim.time(), target, "rollback lands exactly on the target");
            sim.step_until(end);
            let replayed = sim.save_state().map_err(TestCaseError::fail)?;
            prop_assert_eq!(
                &replayed,
                &probe,
                "replay round {} did not reproduce the end-of-horizon state",
                round
            );
        }
    }
}

/// The snapshots behind property 4: Crowded, 40 events, seed 7, the
/// EWMA power predictor and an installed uplink, cut by three systems
/// with estimator state at three instants (Quetzal twice).
const EDIT_CORPUS: [(BaselineKind, u64); 4] = [
    (BaselineKind::QuetzalVar(0.9), 123_457),
    (BaselineKind::AvgSe2e, 60_000),
    (BaselineKind::Quetzal, 200_000),
    (BaselineKind::Quetzal, 60_000),
];

/// Each corpus snapshot as a `qz-snap/v2` document, with the byte
/// offsets of its decimal digits.
fn edit_corpus() -> &'static [(String, Vec<usize>)] {
    static DOCS: OnceLock<Vec<(String, Vec<usize>)>> = OnceLock::new();
    DOCS.get_or_init(|| {
        EDIT_CORPUS
            .iter()
            .map(|&(kind, cut_ms)| {
                snapshot_edits::snapshot_doc(snapshot_edits::corpus_sim(kind), cut_ms)
            })
            .collect()
    })
}

proptest! {
    // Each accepted edit runs the rest of a 40-event Crowded run; the
    // count keeps the debug build of this test to a few seconds.
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn an_edited_snapshot_is_rejected_or_resumes_to_the_end(
        doc in 0usize..EDIT_CORPUS.len(),
        digit in 0usize..1_000_000,
        replacement in prop_oneof![Just("9"), Just("99999"), Just("0")],
    ) {
        let (text, digits) = &edit_corpus()[doc];
        let at = digits[digit % digits.len()];
        let sim = snapshot_edits::corpus_sim(EDIT_CORPUS[doc].0);
        snapshot_edits::rejects_or_resumes(sim, text, at, replacement);
    }
}
