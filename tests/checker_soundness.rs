//! Soundness of the `qz-check` static analyzer against the simulator:
//! configs it accepts must simulate cleanly, and configs it rejects for
//! energy feasibility must *genuinely* exhibit the predicted failure
//! (non-termination or buffer overflow) when forced through the
//! simulator. A checker that cries wolf — or sleeps through one — fails
//! here.

use proptest::prelude::*;
use qz_app::{apollo4, check_experiment, experiment_configs, msp430fr5994, simulate, SimTweaks};
use qz_baselines::{build_runtime, BaselineKind};
use qz_check::Code;
use qz_sim::{CheckpointPolicy, Simulation};
use qz_traces::{EnvironmentKind, SensingEnvironment};
use qz_types::{Farads, SimDuration};

/// Runs an experiment config through the raw `qz-sim` assembly path,
/// bypassing `qz-app`'s panic-on-errors front end so deliberately
/// rejected configs can still be simulated.
fn simulate_unchecked(
    kind: BaselineKind,
    profile: &qz_app::DeviceProfile,
    env: &SensingEnvironment,
    tweaks: &SimTweaks,
) -> qz_sim::Metrics {
    let (app, qcfg, cfg) = experiment_configs(kind, profile, tweaks);
    let runtime = build_runtime(kind, app.spec.clone(), qcfg).expect("valid runtime");
    Simulation::new(cfg, env, runtime, app.entry, app.behaviors, app.routes)
        .expect("valid pipeline binding")
        .run()
}

/// All shipped presets are error-free; the Apollo 4 is fully clean and
/// the MSP430 warns only `QZ011` (the intentional Fig. 13 regime where
/// full quality is unsustainable and degradation is the point).
#[test]
fn shipped_presets_are_clean() {
    let tweaks = SimTweaks::default();
    for profile in [apollo4(), msp430fr5994()] {
        for kind in BaselineKind::PRESETS {
            let report = check_experiment(kind, &profile, &tweaks);
            assert!(
                !report.has_errors(),
                "{kind:?} on {}:\n{}",
                profile.name,
                report.render_text()
            );
            let unexpected: Vec<_> = report
                .diagnostics()
                .iter()
                .filter(|d| {
                    d.severity == qz_check::Severity::Warning
                        && !(profile.name == "MSP430FR5994" && d.code == Code::QZ011)
                })
                .collect();
            assert!(
                unexpected.is_empty(),
                "{kind:?} on {}: unexpected warnings {unexpected:?}",
                profile.name
            );
        }
    }
}

/// A config the checker rejects with QZ001 (the full-sun replay deficit
/// exceeds the per-charge budget under whole-task replay) must
/// genuinely live-lock: with a single-cell harvester (8 mW ceiling) the
/// 20 mJ radio burst drains ~16.8 mJ net per attempt from a ~2.7 mJ
/// budget, so the non-degrading baseline replays it forever and
/// completes zero jobs.
#[test]
fn qz001_configs_genuinely_stall() {
    let tweaks = SimTweaks {
        checkpoint_policy: CheckpointPolicy::TaskBoundary,
        supercap_capacitance: Some(Farads(1e-3)),
        harvester_cells: 1,
        drain: SimDuration::from_secs(300),
        ..SimTweaks::default()
    };
    let profile = apollo4();
    let report = check_experiment(BaselineKind::NoAdapt, &profile, &tweaks);
    assert!(
        report
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::QZ001 && d.severity == qz_check::Severity::Error),
        "checker must reject this config:\n{}",
        report.render_text()
    );

    let env = SensingEnvironment::generate(EnvironmentKind::Crowded, 30, 11);
    let m = simulate_unchecked(BaselineKind::NoAdapt, &profile, &env, &tweaks);
    // Negative frames skip the radio, so their jobs may still complete;
    // the live-lock shows up as the radio burst never finishing — not
    // one report ever lands, while the device replays through repeated
    // power failures.
    let reports = m.reports_interesting_high
        + m.reports_interesting_low
        + m.reports_uninteresting_high
        + m.reports_uninteresting_low;
    assert_eq!(
        reports, 0,
        "QZ001 predicted the radio burst never completes, but {reports} reports landed"
    );
    assert!(
        m.power_failures > 0,
        "the stall should manifest as replay through power failures"
    );
}

/// A config the checker rejects with QZ010 (even the cheapest options
/// cannot keep up with the worst-case arrival rate) must genuinely
/// overflow the input buffer when events actually arrive that fast.
#[test]
fn qz010_configs_genuinely_overflow() {
    // 20 Hz against a best-case E[S_min] ≈ 0.069 s → λ·E[S_min] ≈ 1.4.
    let tweaks = SimTweaks {
        capture_period: SimDuration::from_millis(50),
        buffer_capacity: 4,
        ..SimTweaks::default()
    };
    let profile = apollo4();
    let report = check_experiment(BaselineKind::Quetzal, &profile, &tweaks);
    assert!(
        report
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::QZ010 && d.severity == qz_check::Severity::Error),
        "checker must flag λ·E[S_min] ≥ 1:\n{}",
        report.render_text()
    );

    let env = SensingEnvironment::generate(EnvironmentKind::MoreCrowded, 60, 3);
    let m = simulate_unchecked(BaselineKind::Quetzal, &profile, &env, &tweaks);
    assert!(
        m.ibo_discards > 0,
        "QZ010 predicted inevitable overflow, but no frame was discarded"
    );
}

proptest! {
    // Each case simulates minutes of device time; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Soundness of acceptance: any config in this (deliberately wide)
    /// tweak space that the checker passes without errors must simulate
    /// to completion without panicking — including with the test
    /// profile's `overflow-checks = true` arming every narrowing path.
    #[test]
    fn accepted_configs_simulate_cleanly(
        kind_idx in 0usize..BaselineKind::PRESETS.len(),
        seed in 0u64..1000,
        buffer in 2usize..16,
        capture_period_ms in prop_oneof![Just(500u64), Just(1000), Just(2000), Just(4000)],
        cells in 1u32..10,
        cap_mf in prop_oneof![Just(0.5f64), Just(1.0), Just(3.3), Just(33.0)],
        msp430 in any::<bool>(),
    ) {
        let profile = if msp430 { msp430fr5994() } else { apollo4() };
        let tweaks = SimTweaks {
            seed,
            buffer_capacity: buffer,
            capture_period: SimDuration::from_millis(capture_period_ms),
            harvester_cells: cells,
            supercap_capacitance: Some(Farads(cap_mf * 1e-3)),
            ..SimTweaks::default()
        };
        let kind = BaselineKind::PRESETS[kind_idx];
        let report = check_experiment(kind, &profile, &tweaks);
        prop_assume!(!report.has_errors());
        // `simulate` re-runs the checker and panics on errors, so a
        // clean return is the property.
        let env = SensingEnvironment::generate(EnvironmentKind::Crowded, 20, seed);
        let m = simulate(kind, &profile, &env, &tweaks);
        prop_assert!(m.frames_total >= m.ibo_discards);
    }
}
