//! Golden-value regression tests: exact metric values for fixed seeds.
//!
//! The simulator is fully deterministic, so any change to scheduling,
//! energy accounting, trace generation or the runtime shows up as a
//! change in these numbers. A failure here is not necessarily a bug —
//! it means behaviour changed and the goldens (and EXPERIMENTS.md, whose
//! results would shift too) must be consciously re-baselined.
//!
//! Regenerate with:
//! `cargo test -p qz-bench --test golden_regression -- --nocapture`
//! (failing assertions print the new values).

use qz_app::{apollo4, msp430fr5994, simulate, SimTweaks};
use qz_baselines::BaselineKind;
use qz_traces::{EnvironmentKind, SensingEnvironment};

const SEED: u64 = 424_242;

fn fingerprint(
    kind: BaselineKind,
    env_kind: EnvironmentKind,
    msp430: bool,
) -> (u64, u64, u64, u64, u64) {
    let env = SensingEnvironment::generate(env_kind, 40, SEED);
    let profile = if msp430 { msp430fr5994() } else { apollo4() };
    let m = simulate(
        kind,
        &profile,
        &env,
        &SimTweaks {
            seed: SEED,
            ..SimTweaks::default()
        },
    );
    (
        m.interesting_discarded(),
        m.ibo_interesting,
        m.false_negatives,
        m.interesting_reported(),
        m.total_jobs(),
    )
}

macro_rules! golden {
    ($name:ident, $kind:expr, $env:expr, $msp430:expr) => {
        #[test]
        fn $name() {
            let got = fingerprint($kind, $env, $msp430);
            // On first run (or after an intentional change) copy the
            // printed tuple into the GOLDENS table below.
            let expect = GOLDENS
                .iter()
                .find(|(n, _)| *n == stringify!($name))
                .map(|(_, v)| *v)
                .expect("golden entry exists");
            assert_eq!(
                got,
                expect,
                "{} drifted — re-baseline if intentional",
                stringify!($name)
            );
        }
    };
}

/// One baselined fingerprint: (discarded, ibo, false-neg, reported, jobs).
type Fingerprint = (u64, u64, u64, u64, u64);

/// The baselined fingerprints.
const GOLDENS: &[(&str, Fingerprint)] = &[
    ("qz_crowded", (106, 58, 48, 617, 1829)),
    ("na_crowded", (324, 306, 18, 399, 1262)),
    ("ad_crowded", (155, 0, 155, 568, 1932)),
    ("cn_crowded", (252, 229, 23, 471, 1436)),
    ("qz_more_crowded", (1344, 577, 767, 5715, 17478)),
    ("qz_less_crowded", (37, 20, 17, 217, 640)),
    ("qz_msp430_short", (37, 23, 14, 100, 313)),
];

golden!(
    qz_crowded,
    BaselineKind::Quetzal,
    EnvironmentKind::Crowded,
    false
);
golden!(
    na_crowded,
    BaselineKind::NoAdapt,
    EnvironmentKind::Crowded,
    false
);
golden!(
    ad_crowded,
    BaselineKind::AlwaysDegrade,
    EnvironmentKind::Crowded,
    false
);
golden!(
    cn_crowded,
    BaselineKind::CatNap,
    EnvironmentKind::Crowded,
    false
);
golden!(
    qz_more_crowded,
    BaselineKind::Quetzal,
    EnvironmentKind::MoreCrowded,
    false
);
golden!(
    qz_less_crowded,
    BaselineKind::Quetzal,
    EnvironmentKind::LessCrowded,
    false
);
golden!(
    qz_msp430_short,
    BaselineKind::Quetzal,
    EnvironmentKind::Short,
    true
);

/// The fleet layer gets the same treatment: a small 3-device run whose
/// entire JSON report is snapshotted byte-for-byte. Covers per-device
/// simulation, uplink contention accounting, and aggregate statistics
/// in one artifact. Pinned to the epoch-barrier reference scheduler.
/// Regenerate after an intentional behaviour change (`qz fleet` runs the
/// event-horizon scheduler, which must reproduce the same bytes):
/// `qz fleet --devices 3 --events 6 --seed 424242 --json tests/golden/fleet_small.json`
#[test]
fn fleet_small_json_snapshot() {
    let cfg = qz_fleet::FleetConfig {
        devices: 3,
        events: 6,
        fleet_seed: SEED,
        scheduler: qz_fleet::FleetSchedulerKind::EpochBarrier,
        ..qz_fleet::FleetConfig::default()
    };
    let report = qz_fleet::run_fleet(&cfg, qz_fleet::Executor::new(2)).expect("fleet runs");
    let got = report.to_json();
    let want = include_str!("golden/fleet_small.json");
    assert_eq!(
        got, want,
        "fleet JSON drifted — re-baseline tests/golden/fleet_small.json if intentional:\n{got}"
    );
}

/// The event-horizon scheduler must reproduce the *same* golden file:
/// it is a pure optimization of the epoch-barrier reference, so a drift
/// here without a drift in `fleet_small_json_snapshot` means the two
/// schedulers diverged — never re-baseline one without the other.
#[test]
fn fleet_small_json_snapshot_event_horizon() {
    let cfg = qz_fleet::FleetConfig {
        devices: 3,
        events: 6,
        fleet_seed: SEED,
        scheduler: qz_fleet::FleetSchedulerKind::EventHorizon,
        ..qz_fleet::FleetConfig::default()
    };
    let report = qz_fleet::run_fleet(&cfg, qz_fleet::Executor::new(2)).expect("fleet runs");
    let got = report.to_json();
    let want = include_str!("golden/fleet_small.json");
    assert_eq!(
        got, want,
        "event-horizon run diverged from the epoch-barrier golden:\n{got}"
    );
}

/// The `qz-snap/v2` wire format, byte for byte: fixed-seed Crowded runs
/// with every optional section live (uplink, an armed fault injector,
/// the EWMA power predictor), saved at a fixed tick. The
/// golden is an array holding one snapshot per line, one per estimator
/// with state: Quetzal's variable-cost quantiles and the AvgSe2e running
/// averages. The round-trip tests in qz-snap compare parsed states, so
/// they would miss a byte-level change to the frozen format; this pins
/// it.
#[test]
fn snap_small_json_snapshot() {
    let env = SensingEnvironment::generate(EnvironmentKind::Crowded, 12, SEED);
    let tweaks = SimTweaks {
        seed: SEED,
        power_ewma_alpha: Some(0.3),
        ..SimTweaks::default()
    };
    let mut snapshots = Vec::new();
    for kind in [BaselineKind::QuetzalVar(0.9), BaselineKind::AvgSe2e] {
        let mut sim = qz_app::build_simulation(kind, &apollo4(), &env, &tweaks);
        sim.set_uplink(qz_sim::uplink::UplinkPort::new(
            qz_sim::uplink::UplinkConfig::default(),
            SEED,
        ));
        sim.set_fault_injector(Box::new(qz_fault::AdversarialInjector::new(
            qz_fault::FaultPlan::smoke(),
            SEED,
        )));
        sim.step_until(qz_types::SimTime::from_millis(123_457));
        let state = sim.save_state().expect("snapshot saves");
        let line = qz_snap::to_json(&state);
        let parsed = qz_snap::from_json(&line, sim.runtime().spec()).expect("snapshot parses");
        assert_eq!(parsed, state, "{kind:?}");
        snapshots.push(line);
    }
    let mut got = String::new();
    qz_types::json::Writer::new(&mut got).arr(|w| {
        for line in &snapshots {
            w.line_break(0).raw(line);
        }
        w.line_break(0);
    });
    got.push('\n');
    let want = include_str!("golden/snap_small.json");
    assert_eq!(
        got, want,
        "qz-snap/v2 bytes drifted — the format is frozen; bump SCHEMA for a new shape:\n{got}"
    );
}

/// Seeds in the fleet and fault reports are decimal strings, so they
/// read back exactly through the workspace's `f64`-based JSON reader
/// (a bare number above 2^53 would round: campaign 0's fault seed below
/// would read back as …048).
#[test]
fn report_seeds_read_back_exactly() {
    use qz_types::json::Json;
    let seed_of = |doc: &Json, key: &str| -> u64 {
        doc.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} is a string"))
            .parse()
            .expect("decimal u64")
    };
    let fault = Json::parse(include_str!("golden/fault_small.json")).expect("golden parses");
    let cfg = qz_fault::CampaignConfig {
        seed: 0xC1C1,
        ..qz_fault::CampaignConfig::default()
    };
    assert_eq!(seed_of(&fault, "seed"), cfg.seed);
    let rows = fault
        .get("per_campaign")
        .and_then(Json::as_arr)
        .expect("rows");
    assert_eq!(rows.len(), 4);
    for (c, row) in rows.iter().enumerate() {
        assert_eq!(
            seed_of(row, "fault_seed"),
            cfg.fault_seed(c),
            "campaign {c}"
        );
    }
    assert!(
        cfg.fault_seed(0) > 1 << 53,
        "the pin needs a seed f64 cannot hold"
    );

    let cfg = qz_fleet::FleetConfig {
        devices: 1,
        events: 2,
        fleet_seed: u64::MAX - 1,
        ..qz_fleet::FleetConfig::default()
    };
    let report = qz_fleet::run_fleet(&cfg, qz_fleet::Executor::new(1)).expect("fleet runs");
    let fleet = Json::parse(&report.to_json()).expect("report parses");
    assert_eq!(seed_of(&fleet, "fleet_seed"), u64::MAX - 1);
}

/// A small `qz fault --json` report, byte for byte (the CLI's defaults:
/// Quetzal on Apollo4 in Crowded, faults from the first tick).
/// Regenerate after an intentional behaviour change:
/// `qz fault --preset smoke --events 4 --campaigns 4 --seed 0xC1C1 --json tests/golden/fault_small.json`
#[test]
fn fault_small_json_snapshot() {
    let cfg = qz_fault::CampaignConfig {
        system: BaselineKind::Quetzal,
        profile: apollo4(),
        env: EnvironmentKind::Crowded,
        events: 4,
        campaigns: 4,
        start: 0,
        seed: 0xC1C1,
        plan: qz_fault::FaultPlan::smoke(),
        injection_at: qz_types::SimDuration::ZERO,
        tweaks: SimTweaks::default(),
    };
    let report = qz_fault::run_campaigns(&cfg, qz_fleet::Executor::new(2)).expect("campaigns run");
    let got = report.to_json();
    let want = include_str!("golden/fault_small.json");
    assert_eq!(
        got, want,
        "fault JSON drifted — re-baseline tests/golden/fault_small.json if intentional:\n{got}"
    );

    // No campaign above violates, so pin the nested violation layout
    // (and the escaping of its free-text detail) on a doctored row.
    let mut report = report;
    report.rows[1].violations = vec![
        qz_fault::Violation {
            invariant: "buffer_conservation",
            detail: String::from("kept \"3\" of 4\n\tframes"),
        },
        qz_fault::Violation {
            invariant: "energy_accounting",
            detail: String::from("ok"),
        },
    ];
    let json = report.to_json();
    assert_eq!(
        json.lines().nth(12),
        Some(
            "    {\"campaign\": 1, \"fault_seed\": \"10849700181116242069\", \"faults\": 24, \"faults_power\": 12, \"faults_checkpoint\": 7, \"min_stored_j\": 0.000003, \"violations\": [{\"invariant\": \"buffer_conservation\", \"detail\": \"kept \\\"3\\\" of 4\\n\\tframes\"}, {\"invariant\": \"energy_accounting\", \"detail\": \"ok\"}]},"
        )
    );
}
