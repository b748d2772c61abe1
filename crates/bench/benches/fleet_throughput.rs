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
//! Every speedup comes from the shared timer (best of `REPS`), which
//! asserts the two full fleet reports are identical first, so the
//! number can never come from divergence.

mod common;

use common::{append_trajectory, as_metric, best_of, case, timed_pair};
use qz_fleet::{run_fleet, Executor, FleetConfig, FleetReport, FleetSchedulerKind};
use qz_prof::BenchCase;
use qz_sim::EngineKind;

const REPS: usize = 3;
const SEED: u64 = 0x000F_1EE7_2026;
const DEVICES: usize = 8;
const EVENTS: usize = 20;

/// One fleet run on two worker threads.
fn run(cfg: &FleetConfig) -> FleetReport {
    run_fleet(cfg, Executor::new(2)).expect("fleet runs")
}

/// `cfg` with its scheduler swapped.
fn with_scheduler(cfg: &FleetConfig, scheduler: FleetSchedulerKind) -> FleetConfig {
    FleetConfig {
        scheduler,
        ..cfg.clone()
    }
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

/// Epoch-barrier reference versus the event-horizon scheduler on `cfg`.
fn scheduler_case(name: &str, cfg: &FleetConfig, reps: usize) -> BenchCase {
    let eb = with_scheduler(cfg, FleetSchedulerKind::EpochBarrier);
    let eh = with_scheduler(cfg, FleetSchedulerKind::EventHorizon);
    let (pair, _) = timed_pair(
        reps,
        &format!("schedulers at {} devices", cfg.devices),
        || run(&eb),
        || run(&eh),
    );
    let (eb_secs, eh_secs, speedup) = (pair.oracle_secs, pair.fast_secs, pair.speedup());
    println!(
        "{name}: {} devices | epoch-barrier {eb_secs:.3} s | event-horizon {eh_secs:.3} s | {speedup:.1}x",
        cfg.devices
    );
    case(
        name,
        &[
            ("devices", as_metric(cfg.devices)),
            ("gateways", as_metric(cfg.gateways)),
            ("epoch_barrier_secs", eb_secs),
            ("event_horizon_secs", eh_secs),
            ("speedup", speedup),
        ],
    )
}

/// Event-horizon-only scale probe: the epoch-barrier reference is too
/// slow to time at this size, so the record carries throughput instead
/// of a speedup.
fn scale_case(name: &str, cfg: &FleetConfig) -> BenchCase {
    let eh = with_scheduler(cfg, FleetSchedulerKind::EventHorizon);
    let (eh_secs, _) = best_of(1, || run(&eh));
    let devices_per_sec = as_metric(cfg.devices) / eh_secs.max(f64::MIN_POSITIVE);
    println!(
        "{name}: {} devices | event-horizon {eh_secs:.3} s | {devices_per_sec:.0} devices/s",
        cfg.devices
    );
    case(
        name,
        &[
            ("devices", as_metric(cfg.devices)),
            ("gateways", as_metric(cfg.gateways)),
            ("event_horizon_secs", eh_secs),
            ("devices_per_sec", devices_per_sec),
        ],
    )
}

fn main() {
    // Tick versus fast-forward engines under the epoch-barrier
    // scheduler: this case measures engines, not schedulers.
    let [tick, fast] = [EngineKind::Tick, EngineKind::FastForward].map(|engine| {
        let mut cfg = FleetConfig {
            devices: DEVICES,
            events: EVENTS,
            fleet_seed: SEED,
            scheduler: FleetSchedulerKind::EpochBarrier,
            ..FleetConfig::default()
        };
        cfg.tweaks.engine = engine;
        cfg
    });
    let (pair, _) = timed_pair(REPS, "fleet engines", || run(&tick), || run(&fast));
    let (tick_secs, fast_secs, speedup) = (pair.oracle_secs, pair.fast_secs, pair.speedup());
    println!(
        "fleet {DEVICES}x{EVENTS}: tick {tick_secs:.3} s | fast-forward {fast_secs:.3} s | {speedup:.1}x"
    );

    let mut cases = vec![case(
        &format!("Fleet{DEVICES}x{EVENTS}"),
        &[
            ("devices", as_metric(DEVICES)),
            ("events", as_metric(EVENTS)),
            ("tick_secs", tick_secs),
            ("fast_forward_secs", fast_secs),
            ("speedup", speedup),
        ],
    )];

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
    append_trajectory("fleet_throughput", cases);
}
