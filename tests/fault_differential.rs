//! The differential oracle harness at scale: ≥ 200 seeded fault
//! campaigns across three preset × device configurations, every one
//! judged against the fault-free run and the always-on oracle on all
//! four invariants. A violation fails the test and prints the
//! single-line `--seed` repro command for the offending campaign.
//!
//! Also pins the determinism contract: for a fixed seed, a campaign
//! family's JSON report is byte-identical across thread counts; and
//! that a snapshot of an armed run which restores also resumes: one
//! edited digit, in the engine state or in the injector's words, is
//! rejected or runs to the end without a panic.

use proptest::prelude::*;
use qz_app::{apollo4, msp430fr5994, DeviceProfile, SimTweaks};
use qz_baselines::BaselineKind;
use qz_fault::{run_campaigns, AdversarialInjector, CampaignConfig, FaultPlan};
use qz_fleet::Executor;
use qz_sim::Simulation;
use qz_traces::EnvironmentKind;
use qz_types::SimDuration;
use std::sync::OnceLock;

mod snapshot_edits;

/// Short horizons keep 200+ campaigns affordable; every fault class
/// still fires hundreds of times across a family.
fn tweaks() -> SimTweaks {
    SimTweaks {
        drain: SimDuration::from_secs(30),
        ..SimTweaks::default()
    }
}

fn config(
    system: BaselineKind,
    profile: DeviceProfile,
    env: EnvironmentKind,
    plan: FaultPlan,
    campaigns: usize,
    seed: u64,
) -> CampaignConfig {
    CampaignConfig {
        system,
        profile,
        env,
        events: 4,
        campaigns,
        start: 0,
        seed,
        plan,
        injection_at: qz_types::SimDuration::ZERO,
        tweaks: tweaks(),
    }
}

/// The three campaign families: the paper's primary system on both
/// device profiles plus a non-IBO baseline, under escalating plans.
fn families() -> Vec<CampaignConfig> {
    vec![
        config(
            BaselineKind::Quetzal,
            apollo4(),
            EnvironmentKind::Crowded,
            FaultPlan::standard(),
            70,
            0xD1FF_0001,
        ),
        config(
            BaselineKind::QuetzalHw,
            msp430fr5994(),
            EnvironmentKind::MoreCrowded,
            FaultPlan::heavy(),
            70,
            0xD1FF_0002,
        ),
        config(
            BaselineKind::CatNap,
            apollo4(),
            EnvironmentKind::LessCrowded,
            FaultPlan::smoke(),
            70,
            0xD1FF_0003,
        ),
    ]
}

#[test]
fn two_hundred_campaigns_hold_all_four_invariants() {
    let exec = Executor::new(Executor::available());
    let mut total_campaigns = 0;
    let mut total_faults = 0;
    for cfg in families() {
        let report = run_campaigns(&cfg, exec).expect("campaign family runs");
        total_campaigns += report.rows.len();
        total_faults += report.total_faults();
        let mut repro = String::new();
        for row in report.rows.iter().filter(|r| !r.violations.is_empty()) {
            repro.push_str(&format!("  {}\n", report.repro_line(row)));
        }
        assert_eq!(
            report.total_violations(),
            0,
            "{} violations under {} on {:?}; reproduce with:\n{repro}\n{}",
            report.total_violations(),
            report.preset,
            cfg.system,
            report.render_text()
        );
        // The differential references must bracket the faulted runs.
        assert!(report.oracle_frames >= report.clean_frames);
    }
    assert!(
        total_campaigns >= 200,
        "harness shrank to {total_campaigns} campaigns"
    );
    assert!(
        total_faults > 1_000,
        "only {total_faults} faults injected across the sweep — adversity too weak"
    );
}

#[test]
fn campaign_reports_are_thread_count_invariant() {
    let cfg = config(
        BaselineKind::Quetzal,
        apollo4(),
        EnvironmentKind::Crowded,
        FaultPlan::standard(),
        6,
        0xD1FF_0004,
    );
    let one = run_campaigns(&cfg, Executor::new(1)).expect("1 thread");
    let four = run_campaigns(&cfg, Executor::new(4)).expect("4 threads");
    assert_eq!(one.to_json(), four.to_json());
    assert_eq!(one.render_text(), four.render_text());
}

#[test]
fn faulted_runs_differ_from_clean_but_reproduce_exactly() {
    let cfg = config(
        BaselineKind::Quetzal,
        apollo4(),
        EnvironmentKind::Crowded,
        FaultPlan::heavy(),
        2,
        0xD1FF_0005,
    );
    let a = run_campaigns(&cfg, Executor::new(2)).expect("first run");
    let b = run_campaigns(&cfg, Executor::new(2)).expect("second run");
    // Same seed → byte-identical report; faults actually perturbed the
    // runs (the heavy plan cannot be a no-op over 30+ seconds).
    assert_eq!(a.to_json(), b.to_json());
    assert!(a.total_faults() > 0);
    // Distinct campaign seeds draw distinct fault schedules.
    assert_ne!(a.rows[0].fault_seed, a.rows[1].fault_seed);
}

/// The snapshots behind the armed edit property: corpus runs with the
/// `smoke` plan's adversary armed from the first tick, cut by three
/// systems at three instants. Each snapshot carries the injector's ten
/// state words (six stream states, four statistics).
const ARMED_EDIT_CORPUS: [(BaselineKind, u64); 3] = [
    (BaselineKind::Quetzal, 60_000),
    (BaselineKind::QuetzalVar(0.9), 123_457),
    (BaselineKind::AvgSe2e, 200_000),
];

fn armed_edit_sim(kind: BaselineKind) -> Simulation<'static> {
    let mut sim = snapshot_edits::corpus_sim(kind);
    sim.set_fault_injector(Box::new(AdversarialInjector::new(FaultPlan::smoke(), 7)));
    sim
}

/// One armed corpus snapshot as a `qz-snap/v2` document, with the byte
/// offsets of all its decimal digits and of those in the injector's
/// words.
struct ArmedDoc {
    text: String,
    digits: Vec<usize>,
    injector_digits: Vec<usize>,
}

fn armed_edit_corpus() -> &'static [ArmedDoc] {
    static DOCS: OnceLock<Vec<ArmedDoc>> = OnceLock::new();
    DOCS.get_or_init(|| {
        ARMED_EDIT_CORPUS
            .iter()
            .map(|&(kind, cut_ms)| {
                let (text, digits) = snapshot_edits::snapshot_doc(armed_edit_sim(kind), cut_ms);
                let words = text.find("\"injector\":").expect("injector section");
                let words = words..words + text[words..].find(']').expect("words close");
                let injector_digits = digits
                    .iter()
                    .copied()
                    .filter(|i| words.contains(i))
                    .collect();
                ArmedDoc {
                    text,
                    digits,
                    injector_digits,
                }
            })
            .collect()
    })
}

proptest! {
    // Each accepted edit runs the rest of a 40-event Crowded run under
    // the adversary; the count keeps the debug build of this test to a
    // few seconds. Half the edits land in the injector's words, which
    // are a small share of a snapshot's digits.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn an_edited_armed_snapshot_is_rejected_or_resumes_to_the_end(
        doc in 0usize..ARMED_EDIT_CORPUS.len(),
        in_injector in any::<bool>(),
        digit in 0usize..1_000_000,
        replacement in prop_oneof![Just("9"), Just("99999"), Just("0")],
    ) {
        let armed = &armed_edit_corpus()[doc];
        let digits = if in_injector { &armed.injector_digits } else { &armed.digits };
        let at = digits[digit % digits.len()];
        let sim = armed_edit_sim(ARMED_EDIT_CORPUS[doc].0);
        snapshot_edits::rejects_or_resumes(sim, &armed.text, at, replacement);
    }
}
