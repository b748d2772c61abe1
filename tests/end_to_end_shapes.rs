//! Cross-crate integration tests: the paper's qualitative results must
//! hold on small workloads, end to end through traces → energy →
//! runtime → simulator.

use qz_app::{apollo4, ideal, msp430fr5994, pzo_threshold, simulate, SimTweaks};
use qz_baselines::BaselineKind;
use qz_traces::{EnvironmentKind, SensingEnvironment};
use qz_types::Watts;

const EVENTS: usize = 60;
const SEED: u64 = 20_250_330;

fn env(kind: EnvironmentKind) -> SensingEnvironment {
    SensingEnvironment::generate(kind, EVENTS, SEED)
}

#[test]
fn quetzal_beats_noadapt_in_every_environment() {
    // Fig. 9a's factor band: the paper reports QZ discarding 2.9x /
    // 3.5x / 4.2x fewer interesting inputs than NA (MoreCrowded /
    // Crowded / LessCrowded) and the full-scale scorecard 2.9x / 3.0x /
    // 1.8x. Under crowding QZ must discard at least 2x fewer; in the
    // least crowded scene, where NA rarely overflows, merely fewer.
    let p = apollo4();
    let t = SimTweaks::default();
    for kind in EnvironmentKind::APOLLO_SET {
        let e = env(kind);
        let qz = simulate(BaselineKind::Quetzal, &p, &e, &t).interesting_discarded();
        let na = simulate(BaselineKind::NoAdapt, &p, &e, &t).interesting_discarded();
        assert!(qz < na, "{kind:?}: QZ {qz} vs NA {na}");
        if kind != EnvironmentKind::LessCrowded {
            assert!(qz * 2 <= na, "{kind:?}: QZ {qz} not 2x below NA {na}");
        }
    }
}

#[test]
fn quetzal_beats_always_degrade_in_every_environment() {
    let p = apollo4();
    let t = SimTweaks::default();
    for kind in EnvironmentKind::APOLLO_SET {
        let e = env(kind);
        let qz = simulate(BaselineKind::Quetzal, &p, &e, &t);
        let ad = simulate(BaselineKind::AlwaysDegrade, &p, &e, &t);
        assert!(
            qz.interesting_discarded() <= ad.interesting_discarded(),
            "{kind:?}: QZ {} vs AD {}",
            qz.interesting_discarded(),
            ad.interesting_discarded()
        );
    }
}

#[test]
fn quetzal_beats_catnap_and_pzo() {
    let p = apollo4();
    let t = SimTweaks::default();
    let pzo = BaselineKind::PowerThreshold(pzo_threshold(6, Watts(0.010)));
    for kind in EnvironmentKind::APOLLO_SET {
        let e = env(kind);
        let qz = simulate(BaselineKind::Quetzal, &p, &e, &t).interesting_discarded();
        let cn = simulate(BaselineKind::CatNap, &p, &e, &t).interesting_discarded();
        let pz = simulate(pzo, &p, &e, &t).interesting_discarded();
        assert!(qz <= cn, "{kind:?}: QZ {qz} vs CN {cn}");
        assert!(qz <= pz, "{kind:?}: QZ {qz} vs PZO {pz}");
    }
}

#[test]
fn crowding_increases_pressure_on_noadapt() {
    // More crowded environments must discard a larger *fraction* under
    // the non-adaptive baseline (Fig. 9's x-axis gradient).
    let p = apollo4();
    let t = SimTweaks::default();
    let more = simulate(
        BaselineKind::NoAdapt,
        &p,
        &env(EnvironmentKind::MoreCrowded),
        &t,
    );
    let less = simulate(
        BaselineKind::NoAdapt,
        &p,
        &env(EnvironmentKind::LessCrowded),
        &t,
    );
    assert!(
        more.interesting_discarded_fraction() > less.interesting_discarded_fraction(),
        "more {} vs less {}",
        more.interesting_discarded_fraction(),
        less.interesting_discarded_fraction()
    );
}

#[test]
fn always_degrade_trades_ibos_for_misclassifications() {
    // The Fig. 3/9 story: AD suffers no IBO losses but pays in false
    // negatives and only ever sends low-quality reports.
    let p = apollo4();
    let e = env(EnvironmentKind::Crowded);
    let ad = simulate(BaselineKind::AlwaysDegrade, &p, &e, &SimTweaks::default());
    assert_eq!(ad.reports_interesting_high, 0);
    assert!(ad.false_negatives > 0);
    let na = simulate(BaselineKind::NoAdapt, &p, &e, &SimTweaks::default());
    assert!(ad.ibo_interesting < na.ibo_interesting);
    assert!(ad.false_negatives > na.false_negatives);
}

#[test]
fn quetzal_reports_mixed_quality() {
    // Quetzal degrades only under pressure: it must send some
    // full-quality and some degraded reports in the middle environment.
    let qz = simulate(
        BaselineKind::Quetzal,
        &apollo4(),
        &env(EnvironmentKind::Crowded),
        &SimTweaks::default(),
    );
    assert!(
        qz.reports_interesting_high > 0,
        "some reports at high quality"
    );
    assert!(qz.reports_interesting_low > 0, "some reports degraded");
    assert!(qz.ibo_predictions > 0, "the IBO engine must have fired");
}

#[test]
fn ideal_bounds_everyone() {
    let p = apollo4();
    let t = SimTweaks::default();
    for kind in EnvironmentKind::APOLLO_SET {
        let e = env(kind);
        let bound = ideal(&p, &e, &t);
        for sys in [
            BaselineKind::Quetzal,
            BaselineKind::NoAdapt,
            BaselineKind::CatNap,
        ] {
            let m = simulate(sys, &p, &e, &t);
            let (reported, ideal) = (m.interesting_reported(), bound.interesting_reported());
            assert!(
                reported <= ideal,
                "{kind:?}/{sys:?} reported more than Ideal"
            );
            // Fig. 9b's band: the paper has QZ reporting 92% / 96% / 98%
            // of the infinite-memory Ideal's interesting inputs; QZ must
            // reach at least 80% in every Apollo environment.
            if sys == BaselineKind::Quetzal {
                assert!(
                    reported * 5 >= ideal * 4,
                    "{kind:?}: QZ reports {reported} of Ideal's {ideal} (< 80%)"
                );
            }
        }
    }
}

#[test]
fn conservation_invariants_hold_for_every_system() {
    let p = apollo4();
    let e = env(EnvironmentKind::Crowded);
    let t = SimTweaks::default();
    for kind in [
        BaselineKind::Quetzal,
        BaselineKind::QuetzalHw,
        BaselineKind::NoAdapt,
        BaselineKind::AlwaysDegrade,
        BaselineKind::CatNap,
        BaselineKind::FixedThreshold(0.5),
        BaselineKind::PowerThreshold(Watts(0.01)),
        BaselineKind::AvgSe2e,
        BaselineKind::FcfsIbo,
        BaselineKind::LcfsIbo,
    ] {
        let m = simulate(kind, &p, &e, &t);
        // Every arrival is stored or IBO-discarded.
        assert_eq!(m.arrivals, m.stored + m.ibo_discards, "{kind:?}");
        // Every frame is filtered, an arrival, or missed.
        assert_eq!(
            m.frames_total,
            m.frames_filtered + m.arrivals + m.frames_missed_off,
            "{kind:?}"
        );
        // Stored inputs end as classification drops, reports, or pending
        // (at most one additionally in flight at the horizon).
        let resolved = m.false_negatives + m.true_negatives + m.total_reports() + m.pending;
        assert!(
            resolved <= m.stored + 1,
            "{kind:?}: resolved {resolved} > stored {}",
            m.stored
        );
        // Time accounting covers the whole run.
        assert_eq!(m.sim_time, m.time_on + m.time_off, "{kind:?}");
    }
}

#[test]
fn msp430_profile_runs_the_same_story() {
    let p = msp430fr5994();
    let e = env(EnvironmentKind::Short);
    let t = SimTweaks::default();
    let qz = simulate(BaselineKind::Quetzal, &p, &e, &t);
    let na = simulate(BaselineKind::NoAdapt, &p, &e, &t);
    assert!(qz.interesting_discarded() <= na.interesting_discarded());
    assert!(
        qz.high_quality_fraction() > 0.5,
        "QZ keeps most reports high quality"
    );
}

#[test]
fn full_stack_is_deterministic() {
    let p = apollo4();
    let e = env(EnvironmentKind::Crowded);
    let t = SimTweaks::default();
    let a = simulate(BaselineKind::Quetzal, &p, &e, &t);
    let b = simulate(BaselineKind::Quetzal, &p, &e, &t);
    assert_eq!(a, b);
}
