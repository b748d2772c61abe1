//! Baseline degradation policies.

use quetzal::ibo::{DegradationContext, DegradationPolicy, IboDecision};
use qz_types::Watts;

/// Never degrades — the behaviour of most prior energy-harvesting
/// systems (paper's *NoAdapt*).
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverDegrade;

impl NeverDegrade {
    /// Creates the policy.
    pub fn new() -> NeverDegrade {
        NeverDegrade
    }
}

impl DegradationPolicy for NeverDegrade {
    fn select_option(&mut self, _ctx: &DegradationContext<'_>) -> IboDecision {
        IboDecision::NO_ACTION
    }
}

/// Always runs the lowest-quality option (paper's *Always Degrade*).
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysDegrade;

impl AlwaysDegrade {
    /// Creates the policy.
    pub fn new() -> AlwaysDegrade {
        AlwaysDegrade
    }
}

impl DegradationPolicy for AlwaysDegrade {
    fn select_option(&mut self, ctx: &DegradationContext<'_>) -> IboDecision {
        let option = ctx.option_services.len().saturating_sub(1);
        IboDecision {
            option,
            ibo_predicted: false,
            unavoidable: false,
        }
    }
}

/// Degrades to the lowest quality once the buffer is filled to a static
/// threshold. `threshold = 1.0` is CatNap's degrade-when-full rule; the
/// paper's Fig. 11 sweeps the whole 0–100 % range.
#[derive(Debug, Clone, Copy)]
pub struct BufferThreshold {
    threshold: f64,
}

impl BufferThreshold {
    /// Creates the policy with a fill-fraction threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is outside `[0, 1]`.
    pub fn new(threshold: f64) -> BufferThreshold {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be a fill fraction"
        );
        BufferThreshold { threshold }
    }

    /// CatNap: degrade only once the buffer is 100 % full.
    pub fn catnap() -> BufferThreshold {
        BufferThreshold::new(1.0)
    }

    /// The configured threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl DegradationPolicy for BufferThreshold {
    fn select_option(&mut self, ctx: &DegradationContext<'_>) -> IboDecision {
        if ctx.fill_fraction() >= self.threshold {
            let option = ctx.option_services.len().saturating_sub(1);
            IboDecision {
                option,
                ibo_predicted: false,
                unavoidable: false,
            }
        } else {
            IboDecision::NO_ACTION
        }
    }
}

/// Degrades to the lowest quality when input power falls below a static
/// threshold — the Protean/Zygarde adaptation rule. The paper studies
/// two threshold choices: a fraction of the harvester's *datasheet
/// maximum* (PZO, as those works propose) and a fraction of the
/// *observed maximum* over the whole trace (PZI, an unimplementable
/// oracle).
#[derive(Debug, Clone, Copy)]
pub struct PowerThreshold {
    threshold: Watts,
}

impl PowerThreshold {
    /// Creates the policy with an absolute power threshold.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is negative or non-finite.
    pub fn new(threshold: Watts) -> PowerThreshold {
        assert!(
            threshold.value().is_finite() && threshold.value() >= 0.0,
            "power threshold must be non-negative"
        );
        PowerThreshold { threshold }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> Watts {
        self.threshold
    }
}

impl DegradationPolicy for PowerThreshold {
    fn select_option(&mut self, ctx: &DegradationContext<'_>) -> IboDecision {
        if ctx.p_in < self.threshold {
            let option = ctx.option_services.len().saturating_sub(1);
            IboDecision {
                option,
                ibo_predicted: false,
                unavoidable: false,
            }
        } else {
            IboDecision::NO_ACTION
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qz_types::Seconds;

    fn ctx<'a>(occupancy: u32, p_in: f64, options: &'a [Seconds]) -> DegradationContext<'a> {
        DegradationContext {
            lambda: 1.0,
            occupancy,
            capacity: 10,
            expected_service: Seconds(1.0),
            non_degradable_service: Seconds(0.0),
            option_services: options,
            p_in: Watts(p_in),
        }
    }

    const OPTS: [Seconds; 3] = [Seconds(3.0), Seconds(1.0), Seconds(0.1)];

    #[test]
    fn never_degrade_ignores_everything() {
        let d = NeverDegrade::new().select_option(&ctx(10, 0.0, &OPTS));
        assert_eq!(d, IboDecision::NO_ACTION);
    }

    #[test]
    fn always_degrade_picks_last_option() {
        let d = AlwaysDegrade::new().select_option(&ctx(0, 1.0, &OPTS));
        assert_eq!(d.option, 2);
        let empty = AlwaysDegrade::new().select_option(&ctx(0, 1.0, &[]));
        assert_eq!(empty.option, 0);
    }

    #[test]
    // threshold() returns the constructor argument verbatim, so strict
    // float comparison is the point.
    #[allow(clippy::float_cmp)]
    fn buffer_threshold_triggers_at_fill() {
        let mut p = BufferThreshold::new(0.5);
        assert_eq!(p.select_option(&ctx(4, 1.0, &OPTS)), IboDecision::NO_ACTION);
        assert_eq!(p.select_option(&ctx(5, 1.0, &OPTS)).option, 2);
        assert_eq!(p.threshold(), 0.5);
    }

    #[test]
    fn catnap_waits_for_full() {
        let mut p = BufferThreshold::catnap();
        assert_eq!(p.select_option(&ctx(9, 1.0, &OPTS)), IboDecision::NO_ACTION);
        assert_eq!(p.select_option(&ctx(10, 1.0, &OPTS)).option, 2);
    }

    #[test]
    #[should_panic(expected = "fill fraction")]
    fn buffer_threshold_rejects_out_of_range() {
        BufferThreshold::new(1.5);
    }

    #[test]
    fn power_threshold_triggers_below() {
        let mut p = PowerThreshold::new(Watts(0.010));
        assert_eq!(
            p.select_option(&ctx(0, 0.02, &OPTS)),
            IboDecision::NO_ACTION
        );
        assert_eq!(p.select_option(&ctx(0, 0.005, &OPTS)).option, 2);
        assert_eq!(p.threshold(), Watts(0.010));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn power_threshold_rejects_negative() {
        PowerThreshold::new(Watts(-1.0));
    }
}
