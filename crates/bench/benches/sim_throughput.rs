//! Measures simulator throughput with the per-tick reference engine
//! versus the event-horizon fast-forward engine, on one sparse and one
//! dense environment, and appends one record to the
//! `results/BENCH_sim_throughput.json` trajectory (`qz bench --check`
//! gates on the newest record).
//!
//! The workspace's criterion shim has no measurement API, so this
//! harness times runs itself with `std::time::Instant` (best of
//! `REPS`) and emits the JSON the CI gate parses. Both engines run the
//! same seeds; the harness asserts their metrics are identical before
//! reporting any number, so a speedup can never come from divergence.

use qz_app::{apollo4, build_simulation, SimTweaks};
use qz_baselines::BaselineKind;
use qz_fault::{AdversarialInjector, FaultPlan};
use qz_sim::{EngineKind, Metrics};
use qz_traces::{EnvironmentKind, SensingEnvironment};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 3;
const SEED: u64 = 9_2025;

struct Case {
    env: EnvironmentKind,
    events: usize,
    /// Fault-plan preset installed on both engines (`None` = clean
    /// run). A present injector cuts quiescent spans at every tick its
    /// next power draw could fire, so this exercises the adversary's
    /// quiet horizon end to end.
    fault: Option<&'static str>,
}

struct Outcome {
    label: &'static str,
    events: usize,
    sim_ms: u64,
    tick_secs: f64,
    fast_secs: f64,
}

impl Outcome {
    fn speedup(&self) -> f64 {
        self.tick_secs / self.fast_secs.max(f64::MIN_POSITIVE)
    }
}

/// Best-of-`REPS` wall-clock for one engine; returns the metrics too so
/// the caller can assert both engines agree. When `fault` names a
/// preset, the same seeded adversary is installed on every rep of both
/// engines, so the comparison stays apples to apples.
fn time_engine(
    env: &SensingEnvironment,
    engine: EngineKind,
    fault: Option<&'static str>,
) -> (f64, Metrics) {
    let profile = apollo4();
    let tweaks = SimTweaks {
        engine,
        ..SimTweaks::default()
    };
    let mut best = f64::INFINITY;
    let mut metrics = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let mut sim = build_simulation(BaselineKind::Quetzal, &profile, env, &tweaks);
        if let Some(preset) = fault {
            let plan = FaultPlan::preset(preset).expect("known fault preset");
            sim.set_fault_injector(Box::new(AdversarialInjector::new(plan, SEED)));
        }
        while sim.step() {}
        let m = sim.metrics().clone();
        let secs = start.elapsed().as_secs_f64();
        best = best.min(secs);
        metrics = Some(black_box(m));
    }
    (best, metrics.expect("REPS > 0"))
}

fn run_case(case: &Case) -> Outcome {
    let env = SensingEnvironment::generate(case.env, case.events, SEED);
    let (tick_secs, tick_metrics) = time_engine(&env, EngineKind::Tick, case.fault);
    let (fast_secs, fast_metrics) = time_engine(&env, EngineKind::FastForward, case.fault);
    assert_eq!(
        tick_metrics,
        fast_metrics,
        "engines diverged on {} — a speedup number would be meaningless",
        case.env.label()
    );
    Outcome {
        label: case.env.label(),
        events: case.events,
        sim_ms: tick_metrics.sim_time.as_millis(),
        tick_secs,
        fast_secs,
    }
}

fn main() {
    let cases = [
        Case {
            env: EnvironmentKind::Quiet,
            events: 120,
            fault: None,
        },
        Case {
            env: EnvironmentKind::Crowded,
            events: 120,
            fault: None,
        },
        // Alternating 2 s storms / ~10 s lulls under the `smoke` fault
        // preset: storms keep the scheduler busy, lulls open spans the
        // armed adversary cuts short wherever its next power draw could
        // fire — busy ticks, bulk spans and candidate reference ticks
        // interleave densely.
        Case {
            env: EnvironmentKind::Burst,
            events: 120,
            fault: Some("smoke"),
        },
    ];

    let mut rows = Vec::new();
    for case in &cases {
        let o = run_case(case);
        println!(
            "{:>8}: {:>11} simulated ticks | tick {:.3} s | fast-forward {:.3} s | {:.1}x",
            o.label,
            o.sim_ms,
            o.tick_secs,
            o.fast_secs,
            o.speedup()
        );
        rows.push(o);
    }

    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cases: Vec<qz_prof::BenchCase> = rows
        .iter()
        .map(|o| qz_prof::BenchCase {
            name: o.label.to_owned(),
            values: vec![
                (
                    "events".to_owned(),
                    as_metric(u64::try_from(o.events).unwrap_or(u64::MAX)),
                ),
                ("sim_ticks".to_owned(), as_metric(o.sim_ms)),
                ("tick_secs".to_owned(), o.tick_secs),
                ("fast_forward_secs".to_owned(), o.fast_secs),
                ("speedup".to_owned(), o.speedup()),
            ],
        })
        .collect();
    let path = repo.join("results/BENCH_sim_throughput.json");
    let run =
        qz_prof::Trajectory::append_run(&path, "sim_throughput", &qz_prof::git_rev(&repo), cases)
            .expect("append BENCH_sim_throughput.json");
    println!("appended run {run} to {}", path.display());
}

/// Counter values stored as f64 in the trajectory; the counts here fit
/// f64's 53-bit mantissa comfortably.
#[allow(clippy::cast_precision_loss)]
fn as_metric(v: u64) -> f64 {
    v as f64
}
