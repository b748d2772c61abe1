//! Profiling must be provably invisible: arming the `qz-prof` phase
//! profiler (and with it the energy kernel's work counters), the
//! horizon-cause accounting, a flight-recorder ring or a telemetry
//! recorder must not change a single simulated bit. Each test runs the same seeded configuration
//! with observability on and off and demands byte-for-byte identical
//! outputs — metrics and the event stream on the single-device engines,
//! the full JSON report on the fleet coordinator.
//!
//! A failure here means an instrumentation path leaked into simulation
//! state (e.g. a profiler span that skips work when disabled, or an
//! observer that mutates what it observes). That is always a bug, never
//! a re-baseline.

use qz_app::{
    apollo4, build_simulation, msp430fr5994, profile_run, simulate, simulate_traced,
    simulate_with_telemetry, SimTweaks,
};
use qz_baselines::BaselineKind;
use qz_fleet::{run_fleet, run_fleet_profiled, Executor, FleetConfig};
use qz_sim::EngineKind;
use qz_traces::{EnvironmentKind, SensingEnvironment};

const SEED: u64 = 77_031;

fn tweaks(engine: EngineKind) -> SimTweaks {
    SimTweaks {
        seed: SEED,
        engine,
        ..SimTweaks::default()
    }
}

/// Profiler + horizon accounting on vs off, both engines, both device
/// profiles: end-of-run metrics must be equal.
#[test]
fn profiled_run_metrics_match_plain_run() {
    for engine in [EngineKind::Tick, EngineKind::FastForward] {
        for (profile, label) in [(apollo4(), "apollo4"), (msp430fr5994(), "msp430")] {
            let env = SensingEnvironment::generate(EnvironmentKind::Crowded, 30, SEED);
            let plain = simulate(BaselineKind::Quetzal, &profile, &env, &tweaks(engine));
            let profiled =
                profile_run(BaselineKind::Quetzal, &profile, &env, &tweaks(engine), None);
            assert_eq!(
                plain,
                profiled.metrics,
                "profiler changed {label} metrics under the {} engine",
                engine.label()
            );
            assert!(
                !profiled.report.phases.is_empty(),
                "profiled run produced no phase stats — profiling silently off"
            );
        }
    }
}

/// The energy kernel counts its work only under an armed profiler, and
/// counting changes neither the metrics nor one byte of the recorded
/// event stream.
#[test]
fn kernel_counting_leaves_metrics_and_event_bytes_alone() {
    let profile = apollo4();
    let env = SensingEnvironment::generate(EnvironmentKind::MoreCrowded, 20, SEED);
    let tw = tweaks(EngineKind::FastForward);
    let (plain_metrics, plain_events) = simulate_traced(BaselineKind::Quetzal, &profile, &env, &tw);
    let mut sim = build_simulation(BaselineKind::Quetzal, &profile, &env, &tw);
    sim.set_observer(Box::new(qz_obs::RecordingObserver::new()));
    sim.enable_profiling();
    while sim.step() {}
    let kernel = *sim.profiler().kernel().expect("armed profiler");
    assert!(
        kernel.calls > 0 && kernel.ticks > 0,
        "kernel counted nothing: {kernel:?}"
    );
    let (counted_metrics, mut observer) = sim.run_traced();
    let counted_events =
        qz_obs::take_recorded(observer.as_mut()).expect("recording sink installed");
    assert_eq!(plain_metrics, counted_metrics, "counting changed metrics");
    let jsonl = |events: &[qz_obs::Event]| {
        let mut bytes = Vec::new();
        qz_obs::export::write_jsonl(&mut bytes, events).expect("in-memory write");
        bytes
    };
    assert!(
        jsonl(&plain_events) == jsonl(&counted_events),
        "counting changed the event stream"
    );
}

/// The kernel's work counts are exact: a pinned run repeats them to the
/// unit, and no stride is ever bisected because of its stop predicate
/// (the kernel divides the crossing tick out of the threshold bits).
#[test]
fn kernel_counts_repeat_exactly_with_no_stop_only_bisections() {
    let env = SensingEnvironment::generate(EnvironmentKind::MoreCrowded, 30, SEED);
    let tw = tweaks(EngineKind::FastForward);
    let run = || profile_run(BaselineKind::Quetzal, &apollo4(), &env, &tw, None).kernel;
    let (first, second) = (run(), run());
    assert_eq!(first, second, "kernel counts differ between identical runs");
    assert!(first.crossings > 0 && first.strides > 0, "{first:?}");
    assert_eq!(first.stop_only_bisections, 0, "{first:?}");
}

/// Installing the flight-recorder ring (which also turns on periodic
/// snapshot emission) must not change metrics either — on both
/// engines, so the snapshot-due horizon bound is exercised.
#[test]
fn flight_recorder_does_not_change_metrics() {
    let profile = apollo4();
    let env = SensingEnvironment::generate(EnvironmentKind::LessCrowded, 30, SEED);
    for engine in [EngineKind::Tick, EngineKind::FastForward] {
        let plain = simulate(BaselineKind::Quetzal, &profile, &env, &tweaks(engine));
        let meta = qz_prof::FlightMeta {
            source: "profiler_invisibility test".into(),
            repro: "cargo test -p qz-bench --test profiler_invisibility".into(),
        };
        let flown = profile_run(
            BaselineKind::Quetzal,
            &profile,
            &env,
            &tweaks(engine),
            Some(meta),
        );
        assert_eq!(
            plain,
            flown.metrics,
            "flight recorder changed metrics under the {} engine",
            engine.label()
        );
        let handle = flown.flight.expect("flight handle returned");
        assert!(
            handle
                .dump_json(None)
                .starts_with("{\"schema\":\"qz-flight/v1\""),
            "flight dump lost its schema header"
        );
    }
}

/// A telemetry recorder is an ordinary observer of the periodic state
/// sample: on both engines it must leave metrics alone and collect one
/// sample per simulated second, t = 0 included.
#[test]
fn telemetry_recorder_does_not_change_metrics() {
    let profile = apollo4();
    let env = SensingEnvironment::generate(EnvironmentKind::LessCrowded, 30, SEED);
    for engine in [EngineKind::Tick, EngineKind::FastForward] {
        let plain = simulate(BaselineKind::Quetzal, &profile, &env, &tweaks(engine));
        let (recorded, telemetry) =
            simulate_with_telemetry(BaselineKind::Quetzal, &profile, &env, &tweaks(engine));
        assert_eq!(
            plain,
            recorded,
            "telemetry changed metrics under the {} engine",
            engine.label()
        );
        let seconds = plain.sim_time.as_millis().div_ceil(1000);
        assert_eq!(telemetry.len() as u64, seconds, "{}", engine.label());
    }
}

/// Fleet coordinator: the profiled run must emit a byte-identical
/// report. `FleetReport::to_json` has no non-deterministic fields, so
/// string equality is the strongest possible check.
#[test]
fn fleet_profiled_report_is_byte_identical() {
    let cfg = FleetConfig {
        devices: 5,
        events: 12,
        fleet_seed: SEED,
        ..FleetConfig::default()
    };
    let plain = run_fleet(&cfg, Executor::new(2)).expect("fleet runs");
    let (profiled, profile) = run_fleet_profiled(&cfg, Executor::new(2)).expect("fleet runs");
    assert_eq!(
        plain.to_json(),
        profiled.to_json(),
        "fleet profiling changed the report"
    );
    assert!(
        !profile.profiler.report().phases.is_empty(),
        "fleet profile came back empty — profiling silently off"
    );
    assert!(
        !profile.horizon.is_empty(),
        "fleet horizon accounting came back empty"
    );
    // Per-device kernel counts merge in the profiler like the horizon
    // accounting, to the same sums at any thread count.
    let (_, serial) = run_fleet_profiled(&cfg, Executor::new(1)).expect("fleet runs");
    let kernel = profile.profiler.kernel().copied();
    assert!(kernel.is_some_and(|k| k.calls > 0), "{kernel:?}");
    assert_eq!(kernel, serial.profiler.kernel().copied());
}

/// Arming the profiler leaves the always-on horizon counters alone: a
/// profiled and an unprofiled run count the same spans, skipped ticks,
/// reference ticks and busy ticks on both engines, and the profiler's
/// span lengths account for every counted span. A profiled fleet merges
/// the same counters and distributions at one thread as at two.
#[test]
fn profiling_leaves_the_horizon_counters_alone() {
    let profile = apollo4();
    let env = SensingEnvironment::generate(EnvironmentKind::Crowded, 30, SEED);
    for engine in [EngineKind::Tick, EngineKind::FastForward] {
        let tw = tweaks(engine);
        let mut plain = build_simulation(BaselineKind::Quetzal, &profile, &env, &tw);
        let mut profiled = build_simulation(BaselineKind::Quetzal, &profile, &env, &tw);
        profiled.enable_profiling();
        while plain.step() {}
        while profiled.step() {}
        let counters = profiled.horizon_stats();
        assert_eq!(
            plain.horizon_stats(),
            counters,
            "profiling changed the horizon counters under the {} engine",
            engine.label()
        );
        assert!(plain.profiler().span_lengths().is_none());
        let spans = profiled.profiler().span_lengths().expect("armed profiler");
        for cause in qz_prof::HorizonCause::ALL {
            assert_eq!(
                spans.hist(cause).count(),
                counters.cause(cause).spans,
                "{cause:?} under the {} engine",
                engine.label()
            );
        }
        assert_eq!(
            counters.is_empty(),
            engine == EngineKind::Tick,
            "only the fast-forward engine plans horizons"
        );
    }
    let cfg = FleetConfig {
        devices: 5,
        events: 12,
        fleet_seed: SEED,
        ..FleetConfig::default()
    };
    let (_, serial) = run_fleet_profiled(&cfg, Executor::new(1)).expect("fleet runs");
    let (_, parallel) = run_fleet_profiled(&cfg, Executor::new(2)).expect("fleet runs");
    assert!(!serial.horizon.is_empty());
    assert_eq!(serial.horizon, parallel.horizon);
    assert_eq!(
        serial.profiler.span_lengths(),
        parallel.profiler.span_lengths()
    );
}

/// The disabled profiler (the default) reports nothing: the compiled-in
/// spans must stay no-ops unless explicitly armed.
#[test]
fn disabled_profiler_records_nothing() {
    let mut prof = qz_prof::PhaseProfiler::disabled();
    let started = prof.begin();
    assert!(started.is_none(), "disabled profiler read the clock");
    prof.end(qz_prof::Phase::Sprint, started);
    assert!(
        prof.report().phases.is_empty(),
        "disabled profiler recorded a span"
    );
}
