//! Measures fleet-coordinator throughput and appends one record to the
//! `results/BENCH_fleet_throughput.json` trajectory (`qz bench --check`
//! gates on the newest record). Two comparisons live here:
//!
//! 1. Per-tick reference engine versus fast-forward on every device
//!    (the original `Fleet8x20` case).
//! 2. Epoch-barrier coordinator versus the event-horizon scheduler at
//!    N ∈ {64, 10⁴} (`FleetEH64`, `FleetEH10000` — the latter carries
//!    a speedup floor in `results/BENCH_baseline.json`), plus an
//!    event-horizon-only scale probe at N = 10⁵ (`FleetEH100000`, gated
//!    on a `devices_per_sec` floor). A 10⁶-device smoke runs only when
//!    `QZ_BENCH_HUGE=1` is set — it needs ~16 GiB and several minutes.
//!
//! Like `sim_throughput`, the criterion shim has no measurement API so
//! this harness times itself (best of `REPS`). Every speedup is backed
//! by a byte-identity assertion on the full JSON reports, so the number
//! can never come from divergence.

use qz_fleet::{run_fleet, Executor, FleetConfig, FleetSchedulerKind};
use qz_sim::EngineKind;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 3;
const SEED: u64 = 0x000F_1EE7_2026;
const DEVICES: usize = 8;
const EVENTS: usize = 20;

/// Best-of-`REPS` wall-clock for one engine under the epoch-barrier
/// scheduler (the Fleet8x20 case measures engines, not schedulers);
/// returns the report JSON so the caller can assert both engines agree.
fn time_engine(engine: EngineKind) -> (f64, String) {
    let mut cfg = FleetConfig {
        devices: DEVICES,
        events: EVENTS,
        fleet_seed: SEED,
        scheduler: FleetSchedulerKind::EpochBarrier,
        ..FleetConfig::default()
    };
    cfg.tweaks.engine = engine;
    time_fleet(&cfg, REPS)
}

/// Best-of-`reps` wall-clock for one fleet config; returns the report
/// JSON so callers can assert cross-scheduler identity.
fn time_fleet(cfg: &FleetConfig, reps: usize) -> (f64, String) {
    let mut best = f64::INFINITY;
    let mut json = None;
    for _ in 0..reps {
        let start = Instant::now();
        let report = run_fleet(cfg, Executor::new(2)).expect("fleet runs");
        let secs = start.elapsed().as_secs_f64();
        best = best.min(secs);
        json = Some(black_box(report.to_json()));
    }
    (best, json.expect("reps > 0"))
}

/// A large-fleet config that passes preflight: sharded gateways keep
/// the per-shard offered load below saturation (QZ080) and a 30 s
/// capture period bounds the worst-case report rate. The 50 ms
/// back-pressure epoch is the fine-grained cadence the event-horizon
/// scheduler makes affordable: the epoch-barrier reference pays one
/// fleet-wide visit per epoch while the event-horizon queue only
/// surfaces the epochs where some device is actually due.
fn scale_cfg(devices: usize, events: usize, gateways: usize) -> FleetConfig {
    let mut cfg = FleetConfig {
        devices,
        events,
        fleet_seed: SEED,
        gateways,
        epoch: qz_types::SimDuration::from_millis(50),
        ..FleetConfig::default()
    };
    cfg.tweaks.capture_period = qz_types::SimDuration::from_secs(30);
    cfg
}

/// Times both schedulers on `cfg`, asserts their reports are
/// byte-identical, and returns `(eb_secs, eh_secs)`.
fn time_both_schedulers(cfg: &FleetConfig, reps: usize) -> (f64, f64) {
    let eb = FleetConfig {
        scheduler: FleetSchedulerKind::EpochBarrier,
        ..cfg.clone()
    };
    let eh = FleetConfig {
        scheduler: FleetSchedulerKind::EventHorizon,
        ..cfg.clone()
    };
    let (eb_secs, eb_json) = time_fleet(&eb, reps);
    let (eh_secs, eh_json) = time_fleet(&eh, reps);
    assert_eq!(
        eb_json, eh_json,
        "schedulers diverged at {} devices — a speedup number would be meaningless",
        cfg.devices
    );
    (eb_secs, eh_secs)
}

fn scheduler_case(name: &str, cfg: &FleetConfig, reps: usize) -> qz_prof::BenchCase {
    let (eb_secs, eh_secs) = time_both_schedulers(cfg, reps);
    let speedup = eb_secs / eh_secs.max(f64::MIN_POSITIVE);
    println!(
        "{name}: {} devices | epoch-barrier {eb_secs:.3} s | event-horizon {eh_secs:.3} s | {speedup:.1}x",
        cfg.devices
    );
    qz_prof::BenchCase {
        name: name.to_owned(),
        values: vec![
            ("devices".to_owned(), as_metric(cfg.devices)),
            ("gateways".to_owned(), as_metric(cfg.gateways)),
            ("epoch_barrier_secs".to_owned(), eb_secs),
            ("event_horizon_secs".to_owned(), eh_secs),
            ("speedup".to_owned(), speedup),
        ],
    }
}

/// Event-horizon-only scale probe: the epoch-barrier reference is too
/// slow to time at this size, so the record carries throughput instead
/// of a speedup.
fn scale_case(name: &str, cfg: &FleetConfig) -> qz_prof::BenchCase {
    let (eh_secs, _) = time_fleet(
        &FleetConfig {
            scheduler: FleetSchedulerKind::EventHorizon,
            ..cfg.clone()
        },
        1,
    );
    let devices_per_sec = as_metric(cfg.devices) / eh_secs.max(f64::MIN_POSITIVE);
    println!(
        "{name}: {} devices | event-horizon {eh_secs:.3} s | {devices_per_sec:.0} devices/s",
        cfg.devices
    );
    qz_prof::BenchCase {
        name: name.to_owned(),
        values: vec![
            ("devices".to_owned(), as_metric(cfg.devices)),
            ("gateways".to_owned(), as_metric(cfg.gateways)),
            ("event_horizon_secs".to_owned(), eh_secs),
            ("devices_per_sec".to_owned(), devices_per_sec),
        ],
    }
}

fn main() {
    let (tick_secs, tick_json) = time_engine(EngineKind::Tick);
    let (fast_secs, fast_json) = time_engine(EngineKind::FastForward);
    assert_eq!(
        tick_json, fast_json,
        "fleet engines diverged — a speedup number would be meaningless"
    );
    let speedup = tick_secs / fast_secs.max(f64::MIN_POSITIVE);
    println!(
        "fleet {DEVICES}x{EVENTS}: tick {tick_secs:.3} s | fast-forward {fast_secs:.3} s | {speedup:.1}x"
    );

    let mut cases = vec![qz_prof::BenchCase {
        name: format!("Fleet{DEVICES}x{EVENTS}"),
        values: vec![
            ("devices".to_owned(), as_metric(DEVICES)),
            ("events".to_owned(), as_metric(EVENTS)),
            ("tick_secs".to_owned(), tick_secs),
            ("fast_forward_secs".to_owned(), fast_secs),
            ("speedup".to_owned(), speedup),
        ],
    }];

    // Event-horizon vs epoch-barrier. N=64 fits the default channel
    // budget; the larger fleets shard across gateways and stretch the
    // capture period (see `scale_cfg`).
    let small = FleetConfig {
        devices: 64,
        events: 6,
        fleet_seed: SEED,
        ..FleetConfig::default()
    };
    cases.push(scheduler_case("FleetEH64", &small, REPS));
    cases.push(scheduler_case("FleetEH10000", &scale_cfg(10_000, 6, 64), 1));
    cases.push(scale_case("FleetEH100000", &scale_cfg(100_000, 4, 512)));
    if std::env::var("QZ_BENCH_HUGE").as_deref() == Ok("1") {
        cases.push(scale_case("FleetEH1000000", &scale_cfg(1_000_000, 3, 8192)));
    }

    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = repo.join("results/BENCH_fleet_throughput.json");
    let run =
        qz_prof::Trajectory::append_run(&path, "fleet_throughput", &qz_prof::git_rev(&repo), cases)
            .expect("append BENCH_fleet_throughput.json");
    println!("appended run {run} to {}", path.display());
}

/// Counter values stored as f64 in the trajectory; the counts here fit
/// f64's 53-bit mantissa comfortably.
#[allow(clippy::cast_precision_loss)]
fn as_metric(v: usize) -> f64 {
    v as f64
}
