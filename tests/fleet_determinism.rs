//! Determinism guarantees of the fleet layer (ISSUE acceptance
//! criteria):
//!
//! 1. The same `(fleet_seed, config)` produces **byte-identical**
//!    JSON/CSV reports whether the fleet runs on 1 thread or 8.
//! 2. With an uncontended channel (single device, non-binding duty
//!    budget) every device's metrics match a standalone `qz-sim` run
//!    bit for bit — the uplink gate costs nothing when it never
//!    refuses.
//! 3. The event-horizon scheduler is a pure optimization: at any fleet
//!    size, thread count, stepping engine, or gateway count, its
//!    reports are byte-identical to the epoch-barrier reference —
//!    including under proptest-randomized env × system × duty-cycle
//!    configurations.

use proptest::prelude::*;
use qz_app::{apollo4, build_simulation, simulate, SimTweaks};
use qz_baselines::BaselineKind;
use qz_fleet::{run_fleet, Executor, FleetConfig, FleetSchedulerKind};
use qz_sim::{UplinkConfig, UplinkPort};
use qz_traces::{EnvironmentKind, SensingEnvironment};

#[test]
fn reports_are_byte_identical_across_thread_counts() {
    let cfg = FleetConfig {
        devices: 8,
        events: 8,
        ..FleetConfig::default()
    };
    let one = run_fleet(&cfg, Executor::new(1)).expect("1 thread");
    let two = run_fleet(&cfg, Executor::new(2)).expect("2 threads");
    let eight = run_fleet(&cfg, Executor::new(8)).expect("8 threads");
    assert_eq!(one.to_json(), two.to_json());
    assert_eq!(one.to_json(), eight.to_json());
    assert_eq!(one.to_csv(), eight.to_csv());
    assert_eq!(one.render_text(), eight.render_text());
}

#[test]
fn reruns_with_the_same_seed_are_identical() {
    let cfg = FleetConfig {
        devices: 4,
        events: 6,
        ..FleetConfig::default()
    };
    let a = run_fleet(&cfg, Executor::new(2)).expect("first run");
    let b = run_fleet(&cfg, Executor::new(2)).expect("second run");
    assert_eq!(a, b);
}

#[test]
fn different_fleet_seeds_diverge() {
    let a = run_fleet(
        &FleetConfig {
            devices: 4,
            events: 8,
            fleet_seed: 1,
            ..FleetConfig::default()
        },
        Executor::new(2),
    )
    .expect("seed 1");
    let b = run_fleet(
        &FleetConfig {
            devices: 4,
            events: 8,
            fleet_seed: 2,
            ..FleetConfig::default()
        },
        Executor::new(2),
    )
    .expect("seed 2");
    assert_ne!(a.to_json(), b.to_json(), "seeds must matter");
}

/// Runs the same config under both schedulers and asserts every
/// deterministic output surface matches byte for byte: JSON, CSV,
/// rendered text, and the qz-obs metrics registry. Returns the agreed
/// JSON report.
fn assert_schedulers_agree(cfg: &FleetConfig, threads: usize) -> String {
    let eb = run_fleet(
        &FleetConfig {
            scheduler: FleetSchedulerKind::EpochBarrier,
            ..cfg.clone()
        },
        Executor::new(threads),
    )
    .expect("epoch barrier runs");
    let eh = run_fleet(
        &FleetConfig {
            scheduler: FleetSchedulerKind::EventHorizon,
            ..cfg.clone()
        },
        Executor::new(threads),
    )
    .expect("event horizon runs");
    assert_eq!(eb.to_json(), eh.to_json(), "JSON diverged");
    assert_eq!(eb.to_csv(), eh.to_csv(), "CSV diverged");
    assert_eq!(eb.render_text(), eh.render_text(), "text diverged");
    assert_eq!(
        eb.registry().render(),
        eh.registry().render(),
        "metrics registry diverged"
    );
    eb.to_json()
}

#[test]
fn event_horizon_is_byte_identical_at_one_eight_and_sixty_four_devices() {
    for devices in [1, 8, 64] {
        let cfg = FleetConfig {
            devices,
            events: 6,
            ..FleetConfig::default()
        };
        assert_schedulers_agree(&cfg, 2);
    }
}

#[test]
fn cross_scheduler_identity_holds_at_any_thread_count() {
    let cfg = FleetConfig {
        devices: 8,
        events: 8,
        ..FleetConfig::default()
    };
    let reference = run_fleet(
        &FleetConfig {
            scheduler: FleetSchedulerKind::EpochBarrier,
            ..cfg.clone()
        },
        Executor::new(1),
    )
    .expect("reference");
    for threads in [1, 2, 8] {
        let eh = run_fleet(
            &FleetConfig {
                scheduler: FleetSchedulerKind::EventHorizon,
                ..cfg.clone()
            },
            Executor::new(threads),
        )
        .expect("event horizon runs");
        assert_eq!(reference.to_json(), eh.to_json(), "{threads} threads");
    }
}

/// The schedulers agree under either stepping engine, and the engines
/// agree with each other: a fleet stepped by the per-tick reference
/// loop reports the same JSON bytes as one stepped by fast-forward.
#[test]
fn cross_scheduler_identity_holds_on_both_stepping_engines() {
    for (devices, events) in [(4, 5), (6, 10)] {
        let reports = [qz_sim::EngineKind::FastForward, qz_sim::EngineKind::Tick].map(|engine| {
            let mut cfg = FleetConfig {
                devices,
                events,
                ..FleetConfig::default()
            };
            cfg.tweaks.engine = engine;
            assert_schedulers_agree(&cfg, 2)
        });
        assert_eq!(
            reports[0], reports[1],
            "tick and fast-forward fleet JSON diverged at {devices} devices x {events} events"
        );
    }
}

#[test]
fn cross_scheduler_identity_holds_with_sharded_gateways() {
    let cfg = FleetConfig {
        devices: 16,
        events: 6,
        gateways: 4,
        ..FleetConfig::default()
    };
    assert_schedulers_agree(&cfg, 2);
}

/// The throughput-bench configuration shape: fine-grained 50 ms
/// back-pressure epochs and a stretched 30 s capture period. This is
/// where the event-horizon scheduler's advantage is largest, so the
/// byte-identity precondition of the recorded speedup is pinned here at
/// a size the test suite can afford.
#[test]
fn cross_scheduler_identity_holds_with_fine_epochs_and_slow_capture() {
    let mut cfg = FleetConfig {
        devices: 12,
        events: 5,
        gateways: 4,
        epoch: qz_types::SimDuration::from_millis(50),
        ..FleetConfig::default()
    };
    cfg.tweaks.capture_period = qz_types::SimDuration::from_secs(30);
    assert_schedulers_agree(&cfg, 2);
}

/// Where each device of `cfg` enters the event-horizon queue: its
/// first due epoch, or `None` when it has no carrier sense ahead and
/// retires at seeding. Builds the devices exactly as `run_fleet` does.
fn seeding_epochs(cfg: &FleetConfig) -> Vec<Option<u64>> {
    (0..cfg.devices)
        .map(|device| {
            let d = device as u64;
            let env =
                SensingEnvironment::generate(cfg.env_for(device), cfg.events, cfg.env_seed(d));
            let tweaks = SimTweaks {
                seed: cfg.sim_seed(d),
                ..cfg.tweaks.clone()
            };
            let mut sim = build_simulation(cfg.system, &cfg.profile, &env, &tweaks);
            sim.set_uplink(UplinkPort::new(cfg.uplink.clone(), cfg.uplink_seed(d)));
            sim.next_uplink_due()
                .map(|due| due.as_millis() / cfg.epoch.as_millis())
        })
        .collect()
}

/// A fleet past the 64-device cases, shaped so that a single wake
/// borrows most of it at once: two-minute epochs put most devices'
/// first carrier sense in epoch 0 (the run spans ~10 epochs), while a
/// capture period longer than some devices' events leaves those with no
/// sense at all, so they retire while the queue is seeded. The
/// schedulers must still agree byte for byte, on one worker thread and
/// on three.
#[test]
fn cross_scheduler_identity_holds_when_one_epoch_wakes_most_of_a_large_fleet() {
    let mut cfg = FleetConfig {
        devices: 240,
        events: 2,
        gateways: 4,
        epoch: qz_types::SimDuration::from_secs(120),
        ..FleetConfig::default()
    };
    cfg.tweaks.capture_period = qz_types::SimDuration::from_secs(30);

    let seeded = seeding_epochs(&cfg);
    let retired = seeded.iter().filter(|e| e.is_none()).count();
    let mut first_epochs: Vec<u64> = seeded.iter().flatten().copied().collect();
    first_epochs.sort_unstable();
    let largest = first_epochs
        .chunk_by(|a, b| a == b)
        .map(<[u64]>::len)
        .max()
        .unwrap_or(0);
    assert!(retired > 0, "no device retires at seeding");
    assert!(
        largest * 2 > cfg.devices,
        "largest first wake holds {largest} of {} devices",
        cfg.devices
    );

    for threads in [1, 3] {
        assert_schedulers_agree(&cfg, threads);
    }
}

fn any_env_kind() -> impl Strategy<Value = EnvironmentKind> {
    prop_oneof![
        Just(EnvironmentKind::MoreCrowded),
        Just(EnvironmentKind::Crowded),
        Just(EnvironmentKind::LessCrowded),
        Just(EnvironmentKind::Short),
    ]
}

fn any_system() -> impl Strategy<Value = BaselineKind> {
    prop_oneof![
        Just(BaselineKind::Quetzal),
        Just(BaselineKind::NoAdapt),
        Just(BaselineKind::CatNap),
        Just(BaselineKind::AlwaysDegrade),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A one-device fleet with the duty budget disabled never draws
    /// from the uplink RNG and never defers, so the device must behave
    /// exactly like a standalone simulation: same metrics, except the
    /// uplink-only grant counters which the ungated run doesn't track.
    #[test]
    fn uncontended_device_matches_standalone_run(
        system in any_system(),
        env_kind in any_env_kind(),
        fleet_seed in 0u64..500,
        events in 4usize..10,
    ) {
        let cfg = FleetConfig {
            devices: 1,
            events,
            fleet_seed,
            system,
            env_mix: vec![env_kind],
            uplink: UplinkConfig {
                // >= 1 disables the budget; p_busy stays 0 with one
                // device, so the gate grants every sense untouched.
                duty_cycle: 1.0,
                ..UplinkConfig::default()
            },
            ..FleetConfig::default()
        };
        let fleet = run_fleet(&cfg, Executor::new(2)).expect("fleet runs");
        prop_assert_eq!(fleet.devices.len(), 1);

        let env = SensingEnvironment::generate(env_kind, events, cfg.env_seed(0));
        let tweaks = SimTweaks { seed: cfg.sim_seed(0), ..cfg.tweaks.clone() };
        let standalone = simulate(system, &apollo4(), &env, &tweaks);

        let mut gated = fleet.devices[0].metrics.clone();
        prop_assert_eq!(gated.tx_grants, gated.total_reports(),
            "every report passed the gate exactly once");
        // Erase the gate-only counters the ungated engine never sets.
        gated.tx_grants = 0;
        gated.tx_airtime = qz_types::SimDuration::ZERO;
        prop_assert_eq!(gated, standalone,
            "an uncontended gate must not change the simulation");
    }

    /// The schedulers agree on *randomized* configurations, not just
    /// hand-picked ones: environment mix, system, duty cycle, seed,
    /// and gateway count all drawn by proptest.
    #[test]
    fn randomized_configs_match_across_schedulers(
        system in any_system(),
        env_kind in any_env_kind(),
        fleet_seed in 0u64..500,
        events in 4usize..8,
        devices in 2usize..6,
        gateways in 1usize..3,
        duty_percent in 5u32..100,
    ) {
        let cfg = FleetConfig {
            devices,
            events,
            fleet_seed,
            system,
            gateways,
            env_mix: vec![env_kind],
            uplink: UplinkConfig {
                duty_cycle: f64::from(duty_percent) / 100.0,
                ..UplinkConfig::default()
            },
            ..FleetConfig::default()
        };
        let eb = run_fleet(&FleetConfig {
            scheduler: FleetSchedulerKind::EpochBarrier,
            ..cfg.clone()
        }, Executor::new(2)).expect("epoch barrier runs");
        let eh = run_fleet(&FleetConfig {
            scheduler: FleetSchedulerKind::EventHorizon,
            ..cfg
        }, Executor::new(2)).expect("event horizon runs");
        prop_assert_eq!(eb.to_json(), eh.to_json());
        prop_assert_eq!(eb.to_csv(), eh.to_csv());
    }
}
