//! Named system presets: one constructor per evaluated system.

use crate::degrade::{AlwaysDegrade, BufferThreshold, NeverDegrade, PowerThreshold};
use core::fmt;
use quetzal::model::{AppSpec, SpecError};
use quetzal::policy::{EnergyAwareSjf, Fcfs, Lcfs};
use quetzal::service::{AvgObservedEstimator, HwAssistedEstimator};
use quetzal::{IboEngine, Quetzal, QuetzalConfig};
use qz_hw::PowerMonitor;
use qz_types::Watts;

/// Every system the paper evaluates, as a constructible preset.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum BaselineKind {
    /// Quetzal: Energy-aware SJF + IBO engine + energy-aware `S_e2e`.
    Quetzal,
    /// `NA`: FCFS, never degrades (most prior systems).
    NoAdapt,
    /// `AD`: FCFS, always runs the lowest quality.
    AlwaysDegrade,
    /// `CN` (CatNap): FCFS, degrades only once the buffer is 100 % full.
    CatNap,
    /// Fixed buffer-fill threshold (Fig. 11's 0–100 % sweep).
    FixedThreshold(f64),
    /// Protean/Zygarde-style static input-power threshold (absolute
    /// watts; callers derive it from the datasheet max for PZO or the
    /// observed max for PZI).
    PowerThreshold(Watts),
    /// Quetzal with the *Avg. S_e2e* estimator (§7.3 sensitivity).
    AvgSe2e,
    /// Quetzal predicting `S_e2e` through the hardware measurement
    /// module (diode/ADC + Algorithm 3) instead of exact division.
    QuetzalHw,
    /// Quetzal with the variable-cost estimator (the paper's future-work
    /// extension): per-task inflation learned at the given percentile.
    QuetzalVar(f64),
    /// Quetzal's IBO engine over an FCFS scheduler (Fig. 12).
    FcfsIbo,
    /// Quetzal's IBO engine over an LCFS scheduler (Fig. 12).
    LcfsIbo,
}

impl BaselineKind {
    /// The short label the paper's figures use.
    pub fn label(&self) -> String {
        match self {
            BaselineKind::Quetzal => "QZ".into(),
            BaselineKind::NoAdapt => "NA".into(),
            BaselineKind::AlwaysDegrade => "AD".into(),
            BaselineKind::CatNap => "CN".into(),
            BaselineKind::FixedThreshold(p) => format!("TH{:.0}", p * 100.0),
            BaselineKind::PowerThreshold(w) => format!("PZ@{:.1}mW", w.as_milliwatts()),
            BaselineKind::AvgSe2e => "AvgSe2e".into(),
            BaselineKind::QuetzalHw => "QZ-HW".into(),
            BaselineKind::QuetzalVar(p) => format!("QZ-VAR{:.0}", p * 100.0),
            BaselineKind::FcfsIbo => "FCFS".into(),
            BaselineKind::LcfsIbo => "LCFS".into(),
        }
    }

    /// Stable command-line spelling (`qz --system`), as repro lines
    /// print it. Kinds without a spelling render as their nearest kin:
    /// `QuetzalVar` as `qz`, and every `PowerThreshold` as `pzo`.
    pub fn token(&self) -> String {
        match self {
            BaselineKind::Quetzal | BaselineKind::QuetzalVar(_) => "qz".into(),
            BaselineKind::QuetzalHw => "qz-hw".into(),
            BaselineKind::NoAdapt => "na".into(),
            BaselineKind::AlwaysDegrade => "ad".into(),
            BaselineKind::CatNap => "cn".into(),
            BaselineKind::FixedThreshold(p) => format!("th{:.0}", p * 100.0),
            BaselineKind::PowerThreshold(_) => "pzo".into(),
            BaselineKind::AvgSe2e => "avgse2e".into(),
            BaselineKind::FcfsIbo => "fcfs".into(),
            BaselineKind::LcfsIbo => "lcfs".into(),
        }
    }

    /// Parses a [`token`](Self::token), case-insensitively, plus the
    /// long aliases (`quetzal`, `noadapt`, `alwaysdegrade`, `catnap`,
    /// `avg`). Only the figure thresholds `th25`/`th50`/`th75` and the
    /// datasheet `pzo` (30 mW) have spellings.
    pub fn parse(s: &str) -> Option<BaselineKind> {
        Some(match s.to_ascii_lowercase().as_str() {
            "qz" | "quetzal" => BaselineKind::Quetzal,
            "qz-hw" => BaselineKind::QuetzalHw,
            "na" | "noadapt" => BaselineKind::NoAdapt,
            "ad" | "alwaysdegrade" => BaselineKind::AlwaysDegrade,
            "cn" | "catnap" => BaselineKind::CatNap,
            "th25" => BaselineKind::FixedThreshold(0.25),
            "th50" => BaselineKind::FixedThreshold(0.50),
            "th75" => BaselineKind::FixedThreshold(0.75),
            "pzo" => BaselineKind::PowerThreshold(Watts(0.030)),
            "fcfs" => BaselineKind::FcfsIbo,
            "lcfs" => BaselineKind::LcfsIbo,
            "avgse2e" | "avg" => BaselineKind::AvgSe2e,
            _ => return None,
        })
    }
}

impl fmt::Display for BaselineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Builds the runtime for a named system.
///
/// # Errors
///
/// Propagates [`SpecError`] from runtime assembly.
///
/// # Panics
///
/// Panics if a [`BaselineKind::FixedThreshold`] fraction is outside
/// `[0, 1]` or a [`BaselineKind::PowerThreshold`] is negative (these are
/// experiment constants, so a bad value is a programming error).
pub fn build_runtime(
    kind: BaselineKind,
    spec: AppSpec,
    config: QuetzalConfig,
) -> Result<Quetzal, SpecError> {
    let builder = Quetzal::builder(spec).config(config);
    match kind {
        BaselineKind::Quetzal => builder.build(),
        BaselineKind::NoAdapt => builder
            .policy(Box::new(Fcfs::new()))
            .degradation(Box::new(NeverDegrade::new()))
            .build(),
        BaselineKind::AlwaysDegrade => builder
            .policy(Box::new(Fcfs::new()))
            .degradation(Box::new(AlwaysDegrade::new()))
            .build(),
        BaselineKind::CatNap => builder
            .policy(Box::new(Fcfs::new()))
            .degradation(Box::new(BufferThreshold::catnap()))
            .build(),
        BaselineKind::FixedThreshold(p) => builder
            .policy(Box::new(Fcfs::new()))
            .degradation(Box::new(BufferThreshold::new(p)))
            .build(),
        BaselineKind::PowerThreshold(w) => builder
            .policy(Box::new(Fcfs::new()))
            .degradation(Box::new(PowerThreshold::new(w)))
            .build(),
        BaselineKind::QuetzalVar(p) => builder
            .estimator(Box::new(quetzal::VariableCostEstimator::new(p)))
            .build(),
        BaselineKind::QuetzalHw => {
            let estimator = HwAssistedEstimator::from_spec(builder.spec(), PowerMonitor::default());
            builder.estimator(Box::new(estimator)).build()
        }
        BaselineKind::AvgSe2e => builder
            .policy(Box::new(EnergyAwareSjf::new()))
            .degradation(Box::new(IboEngine::new()))
            .estimator(Box::new(AvgObservedEstimator::new()))
            .build(),
        BaselineKind::FcfsIbo => builder
            .policy(Box::new(Fcfs::new()))
            .degradation(Box::new(IboEngine::new()))
            .build(),
        BaselineKind::LcfsIbo => builder
            .policy(Box::new(Lcfs::new()))
            .degradation(Box::new(IboEngine::new()))
            .build(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal::model::{AppSpecBuilder, TaskCost};
    use quetzal::runtime::BufferView;
    use qz_types::Seconds;

    #[test]
    fn every_parseable_kind_round_trips_through_its_token() {
        let parseable = [
            BaselineKind::Quetzal,
            BaselineKind::QuetzalHw,
            BaselineKind::NoAdapt,
            BaselineKind::AlwaysDegrade,
            BaselineKind::CatNap,
            BaselineKind::FixedThreshold(0.25),
            BaselineKind::FixedThreshold(0.50),
            BaselineKind::FixedThreshold(0.75),
            BaselineKind::PowerThreshold(Watts(0.030)),
            BaselineKind::AvgSe2e,
            BaselineKind::FcfsIbo,
            BaselineKind::LcfsIbo,
        ];
        for kind in parseable {
            assert_eq!(BaselineKind::parse(&kind.token()), Some(kind), "{kind}");
        }
        // No spelling of its own: the nearest kin.
        assert_eq!(BaselineKind::QuetzalVar(0.9).token(), "qz");
        assert_eq!(BaselineKind::parse("quetzal"), Some(BaselineKind::Quetzal));
        assert_eq!(BaselineKind::parse("avg"), Some(BaselineKind::AvgSe2e));
        assert_eq!(BaselineKind::parse("th10"), None);
    }

    fn spec() -> AppSpec {
        let mut b = AppSpecBuilder::new();
        let ml = b
            .degradable_task("ml")
            .option("hi", TaskCost::new(Seconds(3.0), Watts(0.02)))
            .option("lo", TaskCost::new(Seconds(0.3), Watts(0.015)))
            .finish()
            .unwrap();
        b.job("process", vec![ml]).unwrap();
        b.build().unwrap()
    }

    fn decide(kind: BaselineKind, occupancy: usize, p_in: Watts) -> (usize, bool) {
        let mut qz = build_runtime(kind, spec(), QuetzalConfig::default()).unwrap();
        for _ in 0..16 {
            qz.on_capture(true);
        }
        let job = qz.spec().job_id(0).unwrap();
        let d = qz
            .schedule(
                &[(job, Some(Seconds(1.0)))],
                BufferView {
                    occupancy,
                    capacity: 10,
                },
                p_in,
            )
            .unwrap();
        (d.option, d.ibo_predicted)
    }

    #[test]
    fn no_adapt_never_degrades() {
        let (opt, _) = decide(BaselineKind::NoAdapt, 10, Watts(0.0001));
        assert_eq!(opt, 0);
    }

    #[test]
    fn always_degrade_always_degrades() {
        let (opt, _) = decide(BaselineKind::AlwaysDegrade, 0, Watts(1.0));
        assert_eq!(opt, 1);
    }

    #[test]
    fn catnap_degrades_only_when_full() {
        let (opt, _) = decide(BaselineKind::CatNap, 9, Watts(1.0));
        assert_eq!(opt, 0);
        let (opt, _) = decide(BaselineKind::CatNap, 10, Watts(1.0));
        assert_eq!(opt, 1);
    }

    #[test]
    fn fixed_threshold_degrades_at_fill() {
        let (opt, _) = decide(BaselineKind::FixedThreshold(0.5), 4, Watts(1.0));
        assert_eq!(opt, 0);
        let (opt, _) = decide(BaselineKind::FixedThreshold(0.5), 5, Watts(1.0));
        assert_eq!(opt, 1);
    }

    #[test]
    fn power_threshold_degrades_in_darkness() {
        let kind = BaselineKind::PowerThreshold(Watts(0.010));
        let (opt, _) = decide(kind, 0, Watts(0.020));
        assert_eq!(opt, 0);
        let (opt, _) = decide(kind, 0, Watts(0.005));
        assert_eq!(opt, 1, "PZ degrades on low power even with an empty buffer");
    }

    #[test]
    fn quetzal_predicts_ibos() {
        // Low power + nearly full buffer → IBO predicted, degradation.
        let (opt, ibo) = decide(BaselineKind::Quetzal, 9, Watts(0.001));
        assert!(ibo);
        assert_eq!(opt, 1);
        // High power + empty buffer → no action.
        let (opt, ibo) = decide(BaselineKind::Quetzal, 0, Watts(1.0));
        assert!(!ibo);
        assert_eq!(opt, 0);
    }

    #[test]
    fn all_kinds_build() {
        for kind in [
            BaselineKind::Quetzal,
            BaselineKind::NoAdapt,
            BaselineKind::AlwaysDegrade,
            BaselineKind::CatNap,
            BaselineKind::FixedThreshold(0.25),
            BaselineKind::PowerThreshold(Watts(0.01)),
            BaselineKind::AvgSe2e,
            BaselineKind::QuetzalHw,
            BaselineKind::QuetzalVar(0.9),
            BaselineKind::FcfsIbo,
            BaselineKind::LcfsIbo,
        ] {
            assert!(
                build_runtime(kind, spec(), QuetzalConfig::default()).is_ok(),
                "{kind}"
            );
        }
    }

    #[test]
    fn labels() {
        assert_eq!(BaselineKind::Quetzal.label(), "QZ");
        assert_eq!(BaselineKind::FixedThreshold(0.75).label(), "TH75");
        assert_eq!(
            BaselineKind::PowerThreshold(Watts(0.0105)).label(),
            "PZ@10.5mW"
        );
        assert_eq!(BaselineKind::LcfsIbo.to_string(), "LCFS");
    }
}
