//! The fleet coordinator: builds N independently-seeded devices and
//! drives them with one of two interchangeable schedulers — the
//! lockstep **epoch barrier** (every device steps every epoch) or the
//! **event horizon** (a priority queue of per-device next-due ticks;
//! only due devices wake). Both produce byte-identical reports.
//!
//! Determinism contract: every device's trajectory depends only on
//! `(FleetConfig)` — its environment, classification draws, and uplink
//! jitter come from seed streams derived with
//! [`qz_types::SplitMix64::derive_stream`], and the only cross-device
//! coupling (the carrier-sense busy probability) is computed in a
//! serial reduction in device order from *completed* epochs. Threads
//! only decide which core steps which device; they can't change what
//! any device observes. The event-horizon coordinator additionally
//! relies on [`Simulation::next_uplink_due`] being a sound lower bound
//! on the next carrier sense: parking a device past epochs it cannot
//! sense in defers its (deterministic) work, never changes it, and the
//! one fleet input it missed — the previous epoch's channel load — is
//! reconstructed bit-exactly at wake
//! ([`EventHorizonScheduler::wake_load`]).
//!
//! [`Simulation::next_uplink_due`]: qz_sim::Simulation::next_uplink_due

use crate::channel::{ChannelStats, GatewayChannel};
use crate::config::FleetConfig;
use crate::exec::Executor;
use crate::report::{DeviceReport, FleetAggregates, FleetReport};
use crate::scheduler::{EventHorizonScheduler, FleetSchedulerKind, ShardMap};
use qz_app::Experiment;
use qz_prof::{HorizonStats, Phase, PhaseProfiler};
use qz_sim::{Simulation, TxRecord, UplinkPort};
use qz_traces::SensingEnvironment;
use qz_types::{SimDuration, SimTime};

/// Why a fleet run could not start.
#[derive(Debug)]
pub enum FleetError {
    /// The preflight feasibility check found errors (e.g. QZ050: the
    /// offered airtime saturates the shared channel, or QZ080: one
    /// gateway shard saturates its own). The report carries the
    /// diagnostics.
    Infeasible(qz_check::Report),
    /// The config is structurally unusable (empty env mix, zero
    /// devices, zero gateways).
    BadConfig(String),
}

impl core::fmt::Display for FleetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FleetError::Infeasible(report) => {
                write!(f, "fleet preflight failed:\n{}", report.render_text())
            }
            FleetError::BadConfig(why) => write!(f, "bad fleet config: {why}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// Runs the fleet feasibility preflight on its own — the same check
/// [`run_fleet`] performs — so callers can surface warnings even when
/// the run proceeds.
pub fn preflight(cfg: &FleetConfig) -> qz_check::Report {
    qz_check::check_fleet(&cfg.check_input())
}

/// One device mid-run: its simulation plus the transmissions it logged
/// during the epoch being stepped.
struct DeviceRun<'a> {
    sim: Simulation<'a>,
    epoch_log: Vec<TxRecord>,
}

/// Runs the whole fleet to completion on `exec`'s thread crew and
/// returns the report. The report is byte-identical for a given config
/// at any thread count — and across both schedulers.
///
/// # Errors
///
/// [`FleetError::BadConfig`] when the config has zero devices, zero
/// gateways, or an empty environment mix; [`FleetError::Infeasible`]
/// when the preflight check finds errors.
///
/// # Panics
///
/// Panics if the experiment config fails validation (the same contract
/// as [`qz_app::Experiment::checked`]).
pub fn run_fleet(cfg: &FleetConfig, exec: Executor) -> Result<FleetReport, FleetError> {
    run_fleet_inner(cfg, exec, false).map(|(report, _)| report)
}

/// Wall-clock and horizon accounting for a whole fleet run: every
/// device's phase profiler and horizon stats merged into one aggregate,
/// plus the coordinator's scheduler spans (`fleet_epoch`/`fleet_reduce`
/// under the epoch barrier; `fleet_queue_pop`/`fleet_wake`/
/// `fleet_shard_reduce` under the event horizon).
#[derive(Debug)]
pub struct FleetProfile {
    /// Merged phase profiler (per-device engine spans and energy-kernel
    /// work counts + coordinator spans).
    pub profiler: PhaseProfiler,
    /// Merged deterministic horizon-cause accounting across devices.
    pub horizon: HorizonStats,
}

/// [`run_fleet`] with profiling enabled on every device and on the
/// coordinator. The [`FleetReport`] is byte-identical to the unprofiled
/// run — profiling reads wall-clock time and counts work only (pinned by
/// the `profiler_invisibility` suite).
///
/// # Errors
///
/// Same contract as [`run_fleet`].
pub fn run_fleet_profiled(
    cfg: &FleetConfig,
    exec: Executor,
) -> Result<(FleetReport, FleetProfile), FleetError> {
    run_fleet_inner(cfg, exec, true).map(|(report, profile)| {
        (
            report,
            profile.expect("profiled run always yields a profile"),
        )
    })
}

fn run_fleet_inner(
    cfg: &FleetConfig,
    exec: Executor,
    profile: bool,
) -> Result<(FleetReport, Option<FleetProfile>), FleetError> {
    if cfg.devices == 0 {
        return Err(FleetError::BadConfig(
            "fleet needs at least one device".into(),
        ));
    }
    if cfg.gateways == 0 {
        return Err(FleetError::BadConfig(
            "fleet needs at least one gateway".into(),
        ));
    }
    if cfg.env_mix.is_empty() {
        return Err(FleetError::BadConfig(
            "environment mix must not be empty".into(),
        ));
    }
    let report = preflight(cfg);
    if report.has_errors() {
        return Err(FleetError::Infeasible(report));
    }

    // Environment generation is pure in (kind, events, seed); fan it
    // out. The map returns in device order regardless of scheduling.
    let envs: Vec<SensingEnvironment> = exec.map((0..cfg.devices).collect(), |_, device| {
        SensingEnvironment::generate(cfg.env_for(device), cfg.events, cfg.env_seed(device as u64))
    });

    // Check and assemble the experiment once (devices differ only in
    // their seeds), then build per-device simulations, each with its
    // own seed streams and an uplink gate on its shard's channel.
    let experiment = Experiment::checked(cfg.system, &cfg.profile, &cfg.tweaks);
    let mut runs: Vec<DeviceRun<'_>> = envs
        .iter()
        .enumerate()
        .map(|(device, env)| {
            let mut sim = experiment.simulation(env, cfg.sim_seed(device as u64));
            sim.set_uplink(UplinkPort::new(
                cfg.uplink.clone(),
                cfg.uplink_seed(device as u64),
            ));
            if profile {
                sim.enable_profiling();
            }
            DeviceRun {
                sim,
                epoch_log: Vec::new(),
            }
        })
        .collect();

    // Shard topology: one mean-field channel per gateway, member lists
    // in device order (the reduction order both schedulers share).
    let shards = cfg.shard_map();
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); cfg.gateways];
    for d in 0..cfg.devices {
        members[shards.shard_of(d)].push(d);
    }
    let mut gateways: Vec<GatewayChannel> = (0..cfg.gateways)
        .map(|_| GatewayChannel::new(cfg.uplink.slot.as_millis(), cfg.epoch_slots()))
        .collect();

    // Coordinator-side spans. Disabled unless profiling, in which case
    // begin()/end() are no-ops.
    let mut coord = if profile {
        PhaseProfiler::enabled()
    } else {
        PhaseProfiler::disabled()
    };

    match cfg.scheduler {
        FleetSchedulerKind::EpochBarrier => {
            run_epoch_barrier(cfg, &exec, &mut runs, &members, &mut gateways, &mut coord);
        }
        FleetSchedulerKind::EventHorizon => {
            run_event_horizon(cfg, &exec, &mut runs, &shards, &mut gateways, &mut coord);
        }
    }

    // Close every shard's books over the longest device horizon, then
    // merge into the fleet-wide channel stats.
    let slot_ms = cfg.uplink.slot.as_millis();
    let horizon_ms = runs
        .iter()
        .map(|run| run.sim.metrics().sim_time)
        .max()
        .unwrap_or(SimDuration::ZERO)
        .as_millis();
    let horizon_slots = horizon_ms.div_ceil(slot_ms);
    let shard_stats: Vec<ChannelStats> = gateways
        .into_iter()
        .map(|gw| gw.finish(horizon_slots))
        .collect();
    let mut channel = ChannelStats::default();
    for s in &shard_stats {
        channel.absorb(s);
    }

    let devices: Vec<DeviceReport> = runs
        .iter()
        .enumerate()
        .map(|(device, run)| DeviceReport {
            device,
            env: cfg.env_for(device).label().to_string(),
            metrics: run.sim.metrics().clone(),
        })
        .collect();
    let mut report = FleetReport {
        system: cfg.system.label(),
        fleet_seed: cfg.fleet_seed,
        devices,
        channel,
        gateways: cfg.gateways,
        shards: shard_stats,
        aggregates: FleetAggregates::default(),
    };
    report.aggregate();
    let fleet_profile = profile.then(|| {
        let mut horizon = HorizonStats::new();
        for run in &mut runs {
            coord.merge(&run.sim.take_profiler());
            horizon.merge(run.sim.horizon_stats());
        }
        FleetProfile {
            profiler: coord,
            horizon,
        }
    });
    Ok((report, fleet_profile))
}

/// The reference scheduler: parallel step to the barrier, serial
/// slot-ordered reduction per shard, one-epoch-delayed back-pressure,
/// repeat. Per-epoch cost is O(N).
fn run_epoch_barrier(
    cfg: &FleetConfig,
    exec: &Executor,
    runs: &mut [DeviceRun<'_>],
    members: &[Vec<usize>],
    gateways: &mut [GatewayChannel],
    coord: &mut PhaseProfiler,
) {
    let mut epoch_end: SimTime = SimTime::ZERO + cfg.epoch;
    loop {
        let t_epoch = coord.begin();
        exec.for_each_mut(runs, |_, run| {
            // step_until lets the fast-forward engine advance whole
            // quiescent spans while still honouring the epoch barrier.
            run.sim.step_until(epoch_end);
            run.epoch_log = run.sim.drain_tx_log();
        });
        coord.end(Phase::FleetEpoch, t_epoch);
        let t_reduce = coord.begin();
        for (shard, gateway) in gateways.iter_mut().enumerate() {
            let logs: Vec<Vec<TxRecord>> = members[shard]
                .iter()
                .map(|&d| core::mem::take(&mut runs[d].epoch_log))
                .collect();
            let loads = gateway.reduce_epoch(&logs);
            for (&d, load) in members[shard].iter().zip(loads) {
                runs[d].sim.set_uplink_busy_probability(load);
            }
        }
        coord.end(Phase::FleetReduce, t_reduce);
        if runs.iter().all(|run| run.sim.is_done()) {
            break;
        }
        epoch_end += cfg.epoch;
    }
}

/// The event-horizon scheduler: a global priority queue of per-device
/// next-due epochs. Only due devices wake each processed epoch; parked
/// devices replay the skipped wall-clock exactly at their next wake
/// (catch-up `step_until`), and sparse per-shard reductions feed the
/// same one-epoch-delayed back-pressure. Per-epoch cost is O(active):
/// every device stays where it lives in `runs`, and a wake borrows only
/// the due ones.
fn run_event_horizon(
    cfg: &FleetConfig,
    exec: &Executor,
    runs: &mut [DeviceRun<'_>],
    shards: &ShardMap,
    gateways: &mut [GatewayChannel],
    coord: &mut PhaseProfiler,
) {
    let epoch_ms = cfg.epoch.as_millis();
    let mut sched =
        EventHorizonScheduler::new(cfg.devices, cfg.gateways, epoch_ms, cfg.epoch_slots());

    // Seed the queue.
    for (d, run) in runs.iter_mut().enumerate() {
        park_or_retire(&mut sched, d, run);
    }

    loop {
        let t_pop = coord.begin();
        let popped = sched.pop_batch();
        coord.end(Phase::FleetQueuePop, t_pop);
        let Some((epoch, batch)) = popped else { break };
        let epoch_start = SimTime::from_millis(epoch * epoch_ms);
        let epoch_end = SimTime::from_millis((epoch + 1) * epoch_ms);

        // Lazy loads must be read before this epoch's reduction
        // overwrites the shard bookkeeping.
        let wake_loads: Vec<Option<f64>> = batch
            .iter()
            .map(|&d| sched.wake_load(epoch, d, shards.shard_of(d)))
            .collect();
        let mut woken = borrow_ascending(runs, &batch);

        let t_wake = coord.begin();
        exec.for_each_mut(&mut woken, |i, run| {
            // Catch-up: replay the parked span exactly. The park
            // invariant guarantees no carrier sense happens in it, so
            // the stale busy probability is never read.
            run.sim.step_until(epoch_start);
            if let Some(p) = wake_loads[i] {
                run.sim.set_uplink_busy_probability(p);
            }
            run.sim.step_until(epoch_end);
            run.epoch_log = run.sim.drain_tx_log();
        });
        coord.end(Phase::FleetWake, t_wake);

        // Serial per-shard reduction, shards ascending, members in
        // device order (the batch is already device-ordered). Sleeping
        // shard members contribute empty logs in the reference; the
        // sparse reduction is arithmetically identical without them.
        let t_reduce = coord.begin();
        let mut touched: Vec<usize> = batch.iter().map(|&d| shards.shard_of(d)).collect();
        touched.sort_unstable();
        touched.dedup();
        for shard in touched {
            let member_idx: Vec<usize> = (0..batch.len())
                .filter(|&i| shards.shard_of(batch[i]) == shard)
                .collect();
            let logs: Vec<Vec<TxRecord>> = member_idx
                .iter()
                .map(|&i| core::mem::take(&mut woken[i].epoch_log))
                .collect();
            let total_airtime: u64 = logs.iter().flatten().map(|rec| rec.slots).sum();
            let loads = gateways[shard].reduce_epoch_at(epoch, &logs);
            sched.note_shard_reduced(shard, epoch, total_airtime);
            for (&i, load) in member_idx.iter().zip(loads) {
                woken[i].sim.set_uplink_busy_probability(load);
                sched.mark_loaded(batch[i], epoch);
            }
        }
        coord.end(Phase::FleetShardReduce, t_reduce);

        // Repark at the fresh bound, or retire.
        for (&d, run) in batch.iter().zip(woken) {
            let next = park_or_retire(&mut sched, d, run);
            debug_assert!(
                next.is_none_or(|e| e > epoch),
                "due bound must make progress"
            );
        }
    }
}

/// Parks device `d` at its fresh carrier-sense bound and returns the
/// due epoch. A device whose bound vanished never couples to the fleet
/// again: it finishes its remaining (sense-free) lifetime right here in
/// one uninterrupted run — its tx log stays empty, so it owes the
/// channel nothing — and retires.
fn park_or_retire(
    sched: &mut EventHorizonScheduler,
    d: usize,
    run: &mut DeviceRun<'_>,
) -> Option<u64> {
    match run.sim.next_uplink_due() {
        Some(due) => Some(sched.park(d, due.as_millis())),
        None => {
            while run.sim.step() {}
            debug_assert!(run.sim.drain_tx_log().is_empty(), "sense-free device sent");
            sched.retire(d);
            None
        }
    }
}

/// Disjoint mutable borrows of `items[i]` for every `i` in `indices`,
/// in order, in O(`indices.len()`): each index splits one element off
/// the front of the slice not yet handed out.
///
/// # Panics
///
/// Panics if `indices` is not strictly ascending or an index is out of
/// bounds.
fn borrow_ascending<'s, T>(items: &'s mut [T], indices: &[usize]) -> Vec<&'s mut T> {
    let mut out = Vec::with_capacity(indices.len());
    let mut rest = items;
    // `items` index of `rest[0]`.
    let mut base = 0;
    for &i in indices {
        assert!(i >= base, "indices must be strictly ascending");
        let (item, tail) = core::mem::take(&mut rest)
            .get_mut(i - base..)
            .and_then(<[T]>::split_first_mut)
            .expect("index in bounds");
        out.push(item);
        rest = tail;
        base = i + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FleetConfig {
        FleetConfig {
            devices: 4,
            events: 6,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn small_fleet_runs_and_accounts_airtime() {
        let report = run_fleet(&small(), Executor::new(2)).expect("fleet runs");
        assert_eq!(report.devices.len(), 4);
        // Every device simulated something and the channel books
        // balance: clean + collision ≤ airtime ≤ horizon × devices.
        let c = &report.channel;
        assert!(c.horizon_slots > 0);
        assert!(c.clean_slots + c.collision_slots <= c.airtime_slots);
        let per_device: u64 = report
            .devices
            .iter()
            .map(|d| d.metrics.tx_airtime.as_millis() / c.slot_ms)
            .sum();
        assert_eq!(c.airtime_slots, per_device);
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let cfg = small();
        let one = run_fleet(&cfg, Executor::new(1)).expect("1 thread");
        let four = run_fleet(&cfg, Executor::new(4)).expect("4 threads");
        assert_eq!(one.to_json(), four.to_json());
        assert_eq!(one.to_csv(), four.to_csv());
    }

    #[test]
    fn event_horizon_matches_epoch_barrier_byte_for_byte() {
        let barrier = FleetConfig {
            scheduler: FleetSchedulerKind::EpochBarrier,
            ..small()
        };
        let eb = run_fleet(&barrier, Executor::new(2)).expect("barrier runs");
        let cfg = FleetConfig {
            scheduler: FleetSchedulerKind::EventHorizon,
            ..small()
        };
        let eh = run_fleet(&cfg, Executor::new(2)).expect("horizon runs");
        assert_eq!(eb.to_json(), eh.to_json());
        assert_eq!(eb.to_csv(), eh.to_csv());
    }

    #[test]
    fn sharded_fleet_stats_absorb_to_the_merged_channel() {
        let cfg = FleetConfig {
            devices: 8,
            events: 6,
            gateways: 3,
            scheduler: FleetSchedulerKind::EpochBarrier,
            ..FleetConfig::default()
        };
        let report = run_fleet(&cfg, Executor::new(2)).expect("sharded fleet runs");
        assert_eq!(report.shards.len(), 3);
        let mut merged = ChannelStats::default();
        for s in &report.shards {
            merged.absorb(s);
        }
        assert_eq!(merged, report.channel);
        // Sharding must agree across schedulers too.
        let eh = run_fleet(
            &FleetConfig {
                scheduler: FleetSchedulerKind::EventHorizon,
                ..cfg
            },
            Executor::new(2),
        )
        .expect("sharded horizon runs");
        assert_eq!(report.to_json(), eh.to_json());
    }

    #[test]
    fn borrow_ascending_hands_out_exactly_the_indexed_elements() {
        let mut xs: Vec<u32> = (0..6).collect();
        assert!(borrow_ascending(&mut xs, &[]).is_empty());
        for indices in [&[3][..], &[0, 5], &[0, 1, 2, 3, 4, 5], &[1, 2, 4]] {
            let mut ys = xs.clone();
            let borrowed = borrow_ascending(&mut ys, indices);
            let seen: Vec<u32> = borrowed.iter().map(|x| **x).collect();
            let expected: Vec<u32> = indices.iter().map(|&i| xs[i]).collect();
            assert_eq!(seen, expected, "{indices:?}");
            for x in borrowed {
                *x += 100;
            }
            for (i, y) in ys.iter().enumerate() {
                let bumped = if indices.contains(&i) { 100 } else { 0 };
                assert_eq!(*y, xs[i] + bumped, "{indices:?} at {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn borrow_ascending_rejects_a_repeated_index() {
        borrow_ascending(&mut [0u8; 4], &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn borrow_ascending_rejects_a_decreasing_index() {
        borrow_ascending(&mut [0u8; 4], &[2, 0]);
    }

    #[test]
    #[should_panic(expected = "in bounds")]
    fn borrow_ascending_rejects_an_out_of_bounds_index() {
        borrow_ascending(&mut [0u8; 4], &[1, 4]);
    }

    #[test]
    fn zero_devices_is_rejected() {
        let cfg = FleetConfig {
            devices: 0,
            ..FleetConfig::default()
        };
        assert!(matches!(
            run_fleet(&cfg, Executor::new(1)),
            Err(FleetError::BadConfig(_))
        ));
    }

    #[test]
    fn zero_gateways_is_rejected() {
        let cfg = FleetConfig {
            gateways: 0,
            ..FleetConfig::default()
        };
        assert!(matches!(
            run_fleet(&cfg, Executor::new(1)),
            Err(FleetError::BadConfig(_))
        ));
    }

    #[test]
    fn saturating_fleet_is_rejected_by_preflight() {
        let cfg = FleetConfig {
            devices: 100_000,
            ..FleetConfig::default()
        };
        match run_fleet(&cfg, Executor::new(1)) {
            Err(FleetError::Infeasible(report)) => assert!(report.has_errors()),
            other => panic!("expected infeasible, got {other:?}"),
        }
    }
}
