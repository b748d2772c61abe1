//! Measures simulator throughput with the per-tick reference engine
//! versus the event-horizon fast-forward engine, on one sparse and one
//! dense environment, and appends one record to the
//! `results/BENCH_sim_throughput.json` trajectory (`qz bench --check`
//! gates on the newest record).
//!
//! Both engines run the same seeds; the shared timer (best of `REPS`)
//! asserts their metrics are identical before reporting any number, so
//! a speedup can never come from divergence.

mod common;

use common::{append_trajectory, as_metric, case, timed_pair};
use qz_app::{apollo4, build_simulation, DeviceProfile, SimTweaks};
use qz_baselines::BaselineKind;
use qz_fault::{AdversarialInjector, FaultPlan};
use qz_sim::{EngineKind, Metrics};
use qz_traces::{EnvironmentKind, SensingEnvironment};

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

/// One full run under `tweaks`. When `fault` names a preset, the same
/// seeded adversary is installed on every rep of both engines, so the
/// comparison stays apples to apples.
fn run(
    profile: &DeviceProfile,
    env: &SensingEnvironment,
    tweaks: &SimTweaks,
    fault: Option<&str>,
) -> Metrics {
    let mut sim = build_simulation(BaselineKind::Quetzal, profile, env, tweaks);
    if let Some(preset) = fault {
        let plan = FaultPlan::preset(preset).expect("known fault preset");
        sim.set_fault_injector(Box::new(AdversarialInjector::new(plan, SEED)));
    }
    while sim.step() {}
    sim.metrics().clone()
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

    let profile = apollo4();
    let [tick, fast] = [EngineKind::Tick, EngineKind::FastForward].map(|engine| SimTweaks {
        engine,
        ..SimTweaks::default()
    });
    let mut records = Vec::new();
    for c in &cases {
        let env = SensingEnvironment::generate(c.env, c.events, SEED);
        let label = c.env.label();
        let (pair, metrics) = timed_pair(
            REPS,
            &format!("engines on {label}"),
            || run(&profile, &env, &tick, c.fault),
            || run(&profile, &env, &fast, c.fault),
        );
        let sim_ms = metrics.sim_time.as_millis();
        println!(
            "{label:>8}: {sim_ms:>11} simulated ticks | tick {:.3} s | fast-forward {:.3} s | {:.1}x",
            pair.oracle_secs,
            pair.fast_secs,
            pair.speedup()
        );
        records.push(case(
            label,
            &[
                ("events", as_metric(c.events)),
                ("sim_ticks", as_metric(sim_ms)),
                ("tick_secs", pair.oracle_secs),
                ("fast_forward_secs", pair.fast_secs),
                ("speedup", pair.speedup()),
            ],
        ));
    }
    append_trajectory("sim_throughput", records);
}
