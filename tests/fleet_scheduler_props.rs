//! Property tests for the event-horizon fleet scheduler: the
//! coordinator's queue discipline, the park invariant the run loop
//! leans on, and airtime conservation under shard hashing.

use proptest::prelude::*;
use qz_app::{apollo4, build_simulation, SimTweaks};
use qz_baselines::BaselineKind;
use qz_fleet::{run_fleet, EventHorizonScheduler, Executor, FleetConfig, FleetSchedulerKind};
use qz_sim::{Metrics, UplinkConfig, UplinkPort};
use qz_traces::{EnvironmentKind, SensingEnvironment};
use qz_types::{SimDuration, SimTime};

/// Carrier-sense attempts so far: every sense resolves to exactly one
/// of grant, busy backoff, or duty deferral.
fn sense_count(m: &Metrics) -> u64 {
    m.tx_grants + m.tx_busy_backoffs + m.tx_duty_deferrals
}

fn any_env_kind() -> impl Strategy<Value = EnvironmentKind> {
    prop_oneof![
        Just(EnvironmentKind::MoreCrowded),
        Just(EnvironmentKind::Crowded),
        Just(EnvironmentKind::LessCrowded),
        Just(EnvironmentKind::Short),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Queue discipline: batch epochs strictly increase, each batch is
    /// exactly the set of devices due at its epoch in ascending device
    /// order, every parked device surfaces exactly once, and nothing
    /// surfaces before the epoch it was parked for.
    #[test]
    fn pop_batches_are_exactly_the_due_sets_in_order(
        dues in proptest::collection::vec(0u64..50_000, 1..64),
    ) {
        let n = dues.len();
        let mut s = EventHorizonScheduler::new(n, 1, 1000, 100);
        let mut parked_epoch = vec![0u64; n];
        for (d, &due) in dues.iter().enumerate() {
            parked_epoch[d] = s.park(d, due);
        }
        let mut seen = vec![false; n];
        let mut last_epoch = None;
        while let Some((epoch, batch)) = s.pop_batch() {
            if let Some(prev) = last_epoch {
                prop_assert!(epoch > prev, "batch epochs strictly increase");
            }
            last_epoch = Some(epoch);
            let due_set: Vec<usize> = (0..n).filter(|&d| parked_epoch[d] == epoch).collect();
            prop_assert_eq!(&batch, &due_set, "wake set must be exactly the due set");
            for d in batch {
                prop_assert!(!seen[d], "each device surfaces once");
                seen[d] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b), "the queue drains every parked device");
    }

    /// The park invariant the run loop depends on: between a device's
    /// current position and the *start* of the epoch its
    /// `next_uplink_due` bound lands in, no carrier sense ever fires —
    /// so a parked device can skip coordination for that whole span and
    /// the stale busy probability it carries is never read.
    #[test]
    fn parked_spans_are_sense_free(
        env_kind in any_env_kind(),
        seed in 0u64..300,
        events in 4usize..8,
    ) {
        let env = SensingEnvironment::generate(env_kind, events, seed);
        let tweaks = SimTweaks { seed: seed ^ 0x9E37, ..SimTweaks::default() };
        let mut sim = build_simulation(BaselineKind::Quetzal, &apollo4(), &env, &tweaks);
        sim.set_uplink(UplinkPort::new(UplinkConfig::default(), seed ^ 0x79B9));
        let epoch_ms = 1000u64;
        while let Some(due) = sim.next_uplink_due() {
            let epoch_start = SimTime::from_millis((due.as_millis() / epoch_ms) * epoch_ms);
            let before = sense_count(sim.metrics());
            sim.step_until(epoch_start);
            prop_assert_eq!(
                sense_count(sim.metrics()), before,
                "a sense fired inside a parked span (bound {:?})", due
            );
            sim.step_until(epoch_start + SimDuration::from_millis(epoch_ms));
            if sim.is_done() {
                break;
            }
        }
    }

    /// Shard hashing conserves airtime at every level: per-shard stats
    /// sum to the fleet channel, which equals the sum of per-device
    /// time-on-air, for any gateway count and seed.
    #[test]
    fn airtime_is_conserved_under_shard_hashing(
        fleet_seed in 0u64..200,
        gateways in 1usize..5,
        devices in 2usize..8,
    ) {
        let cfg = FleetConfig {
            devices,
            events: 5,
            fleet_seed,
            gateways,
            scheduler: FleetSchedulerKind::EventHorizon,
            ..FleetConfig::default()
        };
        let report = run_fleet(&cfg, Executor::new(2)).expect("fleet runs");
        prop_assert_eq!(report.shards.len(), gateways);
        let shard_air: u64 = report.shards.iter().map(|s| s.airtime_slots).sum();
        prop_assert_eq!(shard_air, report.channel.airtime_slots);
        let shard_tx: u64 = report.shards.iter().map(|s| s.total_tx).sum();
        prop_assert_eq!(shard_tx, report.channel.total_tx);
        let per_device: u64 = report
            .devices
            .iter()
            .map(|d| d.metrics.tx_airtime.as_millis() / report.channel.slot_ms)
            .sum();
        prop_assert_eq!(report.channel.airtime_slots, per_device);
    }
}
