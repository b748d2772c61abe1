//! `fleet-sparse`: thousands of mostly idle devices on the
//! event-horizon scheduler — the `qz fleet` path, in the shape of the
//! `fleet_throughput` bench's scale configuration (sharded gateways,
//! 50 ms epochs, 30 s capture period) on two executor threads. Energy
//! integration and the coordinator dominate; the scheduler runtime
//! takes a few percent, so a runtime change should not move it.
//!
//! The timed region is the whole `run_fleet` call, which generates,
//! preflights and builds its devices itself; `setup_s` times that same
//! set-up standalone after the timed runs (see [`sample_setups`]).
//! Oracle: the epoch-barrier scheduler must produce the same
//! `FleetReport` JSON, row for row.

use crate::layers::{engine_metrics, QuetzalCounters};
use crate::{guarded, repeat, sample_setups, timed, Outcome, Quality, Setup, REFERENCE_SEED};
use qz_app::build_simulation;
use qz_fleet::{
    run_fleet, run_fleet_profiled, Executor, FleetConfig, FleetReport, FleetSchedulerKind,
};
use qz_sim::{EngineKind, UplinkPort};
use qz_traces::SensingEnvironment;
use qz_types::SimDuration;
use std::time::{Duration, Instant};

/// Devices in the fleet.
pub const DEVICES: usize = 2000;
/// Events per device environment.
pub const EVENTS: usize = 2;
/// Gateway shards.
pub const GATEWAYS: usize = 16;
/// Executor threads.
pub const THREADS: usize = 2;

fn config(seed: u64, scheduler: FleetSchedulerKind) -> FleetConfig {
    let mut cfg = FleetConfig {
        devices: DEVICES,
        events: EVENTS,
        fleet_seed: seed,
        gateways: GATEWAYS,
        epoch: SimDuration::from_millis(50),
        scheduler,
        ..FleetConfig::default()
    };
    cfg.tweaks.capture_period = SimDuration::from_secs(30);
    cfg.tweaks.engine = EngineKind::FastForward;
    cfg
}

/// The set-up `run_fleet` performs before its first epoch, timed by
/// crate: environments (in parallel, as `run_fleet` does), the fleet
/// preflight, and one simulation per device.
fn setup(cfg: &FleetConfig) -> Setup {
    let exec = Executor::new(THREADS);
    let (envs, generate_ns): (Vec<SensingEnvironment>, u64) = timed(|| {
        exec.map((0..cfg.devices).collect(), |_, device| {
            SensingEnvironment::generate(
                cfg.env_for(device),
                cfg.events,
                cfg.env_seed(device as u64),
            )
        })
    });
    let (report, preflight_ns) = timed(|| qz_fleet::preflight(cfg));
    assert!(!report.has_errors(), "{}", report.render_text());
    let (sims, build_ns) = timed(|| {
        envs.iter()
            .enumerate()
            .map(|(device, env)| {
                let mut tweaks = cfg.tweaks.clone();
                tweaks.seed = cfg.sim_seed(device as u64);
                let mut sim = build_simulation(cfg.system, &cfg.profile, env, &tweaks);
                sim.set_uplink(UplinkPort::new(
                    cfg.uplink.clone(),
                    cfg.uplink_seed(device as u64),
                ));
                sim
            })
            .collect::<Vec<_>>()
    });
    drop(std::hint::black_box(sims));
    Setup {
        generate_ns,
        preflight_ns,
        build_ns,
    }
}

/// The outcome counters summed over every device of a report.
fn quality(report: &FleetReport) -> Quality {
    let mut q = Quality::default();
    for device in &report.devices {
        q.add(&device.metrics);
    }
    q
}

/// Runs the workload (see the crate docs for the phases).
pub fn bench(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let cfg = config(seed, FleetSchedulerKind::EventHorizon);
    let (mut timed_runs, outputs) = repeat(budget, || {
        timed(|| run_fleet(&cfg, Executor::new(THREADS)).expect("fleet runs"))
    });
    timed_runs.setups = sample_setups(&mut out, || setup(&cfg));

    let oracle = guarded(|| {
        run_fleet(
            &config(seed, FleetSchedulerKind::EpochBarrier),
            Executor::new(THREADS),
        )
        .expect("fleet runs")
    });
    let Some(oracle) = oracle else {
        out.problem("epoch-barrier oracle panicked");
        out.attempted = (outputs.len() * DEVICES) as u64;
        out.failed = out.attempted;
        return out;
    };
    let oracle_json = oracle.to_json();
    let first = outputs.iter().flatten().next();
    let first_json = first.map(FleetReport::to_json);
    if first_json.is_some() && first_json.as_ref() != Some(&oracle_json) {
        out.problem("fleet report differs from the epoch-barrier oracle");
    }
    for output in &outputs {
        out.attempted += DEVICES as u64;
        let Some(report) = output else {
            out.failed += DEVICES as u64;
            continue;
        };
        let differing = (0..DEVICES)
            .filter(|&d| {
                report.devices.get(d) != oracle.devices.get(d)
                    || report.devices.get(d) != first.and_then(|f| f.devices.get(d))
            })
            .count();
        out.failed += differing as u64;
    }
    let (Some(first), Some(first_json)) = (first, first_json) else {
        out.problem("every timed fleet run panicked");
        return out;
    };
    let pinned = guarded(|| {
        let cfg = config(REFERENCE_SEED, FleetSchedulerKind::EventHorizon);
        quality(&run_fleet(&cfg, Executor::new(THREADS)).expect("fleet runs"))
    });
    if pinned.is_none() {
        out.problem("reference-seed fleet run panicked");
    }
    let device_seconds: f64 = first
        .devices
        .iter()
        .map(|d| d.metrics.sim_time.as_seconds().value())
        .sum();
    out.push_end_to_end(
        &timed_runs,
        device_seconds / 3600.0,
        quality(first),
        pinned.unwrap_or_default(),
    );

    if trace && guarded(|| traced(&cfg, &first_json, &timed_runs, &mut out)).is_none() {
        out.problem("traced fleet-sparse run panicked");
    }
    out
}

/// The traced run: every device and the coordinator profiled.
fn traced(cfg: &FleetConfig, expected: &str, timed_runs: &crate::Timed, out: &mut Outcome) {
    let t0 = Instant::now();
    let (report, profile) = run_fleet_profiled(cfg, Executor::new(THREADS)).expect("fleet runs");
    let traced_s = t0.elapsed().as_secs_f64();
    if report.to_json() != expected {
        out.problem("traced fleet report differs from the untraced run");
    }
    out.layers.extend(QuetzalCounters::absent());
    out.layers
        .extend(engine_metrics(&profile.profiler, &profile.horizon));
    out.layers.extend(crate::fault::Totals::default().metrics());
    out.push_common_layers(timed_runs, traced_s);
}
