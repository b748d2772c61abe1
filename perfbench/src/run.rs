//! `run-morecrowded`: one Quetzal device on Apollo 4 in the MoreCrowded
//! environment with a 1 s capture period — the `qz run` path. Alg. 1
//! and Alg. 2 run on every busy tick, so runtime, busy-kernel and
//! vigilant-tail changes show here. Single-threaded.
//!
//! Oracle: the per-tick reference engine (`EngineKind::Tick`) must
//! produce the same `Metrics`, byte for byte.

use crate::layers::{decorated_quetzal, engine_metrics, QuetzalCounters};
use crate::{guarded, repeat, timed, Outcome, Quality, Setup, REFERENCE_SEED};
use qz_app::{apollo4, build_simulation, check_experiment, experiment_configs, SimTweaks};
use qz_baselines::BaselineKind;
use qz_sim::{EngineKind, Metrics, Simulation};
use qz_traces::{EnvironmentKind, SensingEnvironment};
use qz_types::SimDuration;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Events in the generated environment (about 35 simulated hours).
pub const EVENTS: usize = 400;

fn tweaks(seed: u64, engine: EngineKind) -> SimTweaks {
    SimTweaks {
        seed,
        capture_period: SimDuration::from_secs(1),
        engine,
        ..SimTweaks::default()
    }
}

fn environment(seed: u64) -> SensingEnvironment {
    SensingEnvironment::generate(EnvironmentKind::MoreCrowded, EVENTS, seed)
}

/// Set-up (returned with its timings) plus one timed run to completion.
fn rep(seed: u64) -> (Setup, u64, Metrics) {
    let tw = tweaks(seed, EngineKind::FastForward);
    let (env, generate_ns) = timed(|| environment(seed));
    let (report, preflight_ns) = timed(|| check_experiment(BaselineKind::Quetzal, &apollo4(), &tw));
    assert!(!report.has_errors(), "{}", report.render_text());
    let (mut sim, build_ns) =
        timed(|| build_simulation(BaselineKind::Quetzal, &apollo4(), &env, &tw));
    let (_, run_ns) = timed(|| while sim.step() {});
    let setup = Setup {
        generate_ns,
        preflight_ns,
        build_ns,
    };
    (setup, run_ns, sim.metrics().clone())
}

/// Digest of one run's output: every counter, full precision.
fn digest(m: &Metrics) -> String {
    format!("{m:?}")
}

/// Runs the workload (see the crate docs for the phases).
pub fn bench(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let (mut timed_runs, outputs) = repeat(budget, || {
        let (setup, run_ns, metrics) = rep(seed);
        setups.push(setup);
        (metrics, run_ns)
    });
    timed_runs.setups = setups;

    let oracle = guarded(|| {
        let tw = tweaks(seed, EngineKind::Tick);
        digest(&qz_app::simulate(
            BaselineKind::Quetzal,
            &apollo4(),
            &environment(seed),
            &tw,
        ))
    });
    if oracle.is_none() {
        out.problem("tick-engine oracle panicked");
    }
    let Some(first) = outputs.iter().flatten().next() else {
        out.attempted = outputs.len() as u64;
        out.failed = out.attempted;
        out.problem("every timed run panicked");
        return out;
    };
    let expected = digest(first);
    for output in &outputs {
        out.attempted += 1;
        let ok = output
            .as_ref()
            .map(digest)
            .is_some_and(|d| Some(&d) == oracle.as_ref() && d == expected);
        out.failed += u64::from(!ok);
    }
    let pinned = guarded(|| {
        let tw = tweaks(REFERENCE_SEED, EngineKind::FastForward);
        let env = environment(REFERENCE_SEED);
        Quality::of(&qz_app::simulate(
            BaselineKind::Quetzal,
            &apollo4(),
            &env,
            &tw,
        ))
    });
    if pinned.is_none() {
        out.problem("reference-seed run panicked");
    }
    let device_hours = first.sim_time.as_seconds().value() / 3600.0;
    out.push_end_to_end(
        &timed_runs,
        device_hours,
        Quality::of(first),
        pinned.unwrap_or_default(),
    );
    if trace && guarded(|| traced(seed, &expected, &timed_runs, &mut out)).is_none() {
        out.problem("traced run-morecrowded run panicked");
    }
    out
}

/// The traced run: decorated runtime, armed profiler, same inputs.
fn traced(seed: u64, expected: &str, timed_runs: &crate::Timed, out: &mut Outcome) {
    let env = environment(seed);
    let tw = tweaks(seed, EngineKind::FastForward);
    let (app, qcfg, cfg) = experiment_configs(BaselineKind::Quetzal, &apollo4(), &tw);
    let counters = Arc::new(QuetzalCounters::default());
    let runtime = decorated_quetzal(app.spec.clone(), qcfg, &counters).expect("valid runtime");
    let mut sim = Simulation::new(cfg, &env, runtime, app.entry, app.behaviors, app.routes)
        .expect("valid pipeline binding");
    sim.enable_profiling();
    let t0 = Instant::now();
    while sim.step() {}
    let traced_s = t0.elapsed().as_secs_f64();
    if digest(sim.metrics()) != expected {
        out.problem("traced run-morecrowded output differs from the untraced run");
    }
    out.layers.extend(counters.metrics());
    out.layers
        .extend(engine_metrics(sim.profiler(), sim.horizon_stats()));
    out.layers.extend(crate::fault::Totals::default().metrics());
    out.push_common_layers(timed_runs, traced_s);
}
