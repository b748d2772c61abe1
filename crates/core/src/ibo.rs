//! IBO detection and reaction (paper Algorithm 2).
//!
//! Given the scheduled job's expected service time `E[S]`, Quetzal
//! predicts the buffer occupancy at the job's completion with Little's
//! Law: the job occupies the device for `E[S]` seconds, during which
//! `λ · E[S]` new inputs arrive. If that exceeds the buffer's remaining
//! space, an IBO is imminent and the job's degradable task is stepped
//! down the programmer's quality-ordered option list — to the
//! **highest-quality option that avoids the predicted overflow**, or the
//! lowest-`S_e2e` option if none does.
//!
//! The same [`DegradationPolicy`] interface hosts the baseline reaction
//! policies of §6.1 (never/always degrade, buffer-fill thresholds,
//! input-power thresholds), which live in the `qz-baselines` crate.

use core::fmt;
use qz_types::{Seconds, Watts};

/// Inputs to a degradation decision for the scheduled job.
#[derive(Debug, Clone)]
pub struct DegradationContext<'a> {
    /// Estimated input-arrival rate, inputs/second.
    pub lambda: f64,
    /// Inputs currently stored in the buffer.
    pub occupancy: u32,
    /// Buffer capacity in inputs.
    pub capacity: u32,
    /// The scheduled job's `E[S]` at its highest quality, including any
    /// PID correction.
    pub expected_service: Seconds,
    /// Sum of the probability-weighted `S_e2e` of the job's
    /// *non-degradable* tasks (plus PID correction).
    pub non_degradable_service: Seconds,
    /// Probability-weighted `S_e2e` of the degradable task at each
    /// option, quality-ordered (index 0 = highest). Empty when the job
    /// has no degradable task.
    pub option_services: &'a [Seconds],
    /// Measured input power (used by power-threshold baselines).
    pub p_in: Watts,
}

impl DegradationContext<'_> {
    /// Remaining buffer space, in inputs (zero when already full).
    pub fn slack(&self) -> f64 {
        f64::from(self.capacity.saturating_sub(self.occupancy))
    }

    /// Current buffer fill fraction in `[0, 1]`.
    pub fn fill_fraction(&self) -> f64 {
        if self.capacity == 0 {
            1.0
        } else {
            (f64::from(self.occupancy) / f64::from(self.capacity)).min(1.0)
        }
    }

    /// Little's-Law overflow test (Eq. 2) for a hypothetical job `E[S]`:
    /// `true` if `λ · E[S] ≥ capacity − occupancy`.
    pub fn predicts_overflow(&self, expected_service: Seconds) -> bool {
        self.lambda * expected_service.value() >= self.slack()
    }
}

/// The outcome of a degradation decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IboDecision {
    /// Selected degradation option (0 = highest quality).
    pub option: usize,
    /// Whether an IBO was predicted for the job at its highest quality.
    pub ibo_predicted: bool,
    /// Whether the selected option is predicted to still overflow (no
    /// option was sufficient; the lowest-`S_e2e` option was chosen to
    /// minimize `E[N]`).
    pub unavoidable: bool,
}

impl IboDecision {
    /// A no-degradation decision with no predicted overflow.
    pub const NO_ACTION: IboDecision = IboDecision {
        option: 0,
        ibo_predicted: false,
        unavoidable: false,
    };
}

/// Chooses a degradation option for the scheduled job.
///
/// `Send` because `qz-fleet` moves whole runtimes across worker
/// threads between epochs.
pub trait DegradationPolicy: fmt::Debug + Send {
    /// Decides which option the job's degradable task should run at.
    ///
    /// When `ctx.option_services` is empty (no degradable task), the
    /// returned option must be 0.
    fn select_option(&mut self, ctx: &DegradationContext<'_>) -> IboDecision;
}

/// Quetzal's IBO-detection and reaction engine (Algorithm 2).
#[derive(Debug, Clone, Copy, Default)]
pub struct IboEngine;

impl IboEngine {
    /// Creates the engine.
    pub fn new() -> IboEngine {
        IboEngine
    }
}

impl DegradationPolicy for IboEngine {
    fn select_option(&mut self, ctx: &DegradationContext<'_>) -> IboDecision {
        // IBO-detection: does the job at its scheduled (highest) quality
        // push expected occupancy past the buffer limit?
        if !ctx.predicts_overflow(ctx.expected_service) {
            return IboDecision::NO_ACTION;
        }
        if ctx.option_services.is_empty() {
            // Nothing to degrade; report the predicted overflow.
            return IboDecision {
                option: 0,
                ibo_predicted: true,
                unavoidable: true,
            };
        }
        // IBO-reaction: walk the quality-ordered options, take the first
        // (highest-quality) one that avoids the predicted overflow.
        for (i, &svc) in ctx.option_services.iter().enumerate() {
            let es = ctx.non_degradable_service + svc;
            if !ctx.predicts_overflow(es) {
                return IboDecision {
                    option: i,
                    ibo_predicted: true,
                    unavoidable: false,
                };
            }
        }
        // No option avoids it: minimize E[N] with the lowest-S_e2e option.
        let option = ctx
            .option_services
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
            .unwrap_or(0);
        IboDecision {
            option,
            ibo_predicted: true,
            unavoidable: true,
        }
    }
}

#[cfg(test)]
// Many assertions here pin values that are copied or computed exactly
// (literals, dyadic fractions, pass-through accessors); strict float
// comparison is the point.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ctx<'a>(
        lambda: f64,
        occupancy: u32,
        capacity: u32,
        non_deg: f64,
        options: &'a [Seconds],
    ) -> DegradationContext<'a> {
        let expected = Seconds(non_deg) + options.first().copied().unwrap_or(Seconds::ZERO);
        DegradationContext {
            lambda,
            occupancy,
            capacity,
            expected_service: expected,
            non_degradable_service: Seconds(non_deg),
            option_services: options,
            p_in: Watts(0.01),
        }
    }

    #[test]
    fn no_overflow_no_degradation() {
        // λ=0.5/s, E[S]=4s → 2 arrivals; slack = 8 → safe.
        let options = [Seconds(3.0), Seconds(0.5)];
        let d = IboEngine::new().select_option(&ctx(0.5, 2, 10, 1.0, &options));
        assert_eq!(d, IboDecision::NO_ACTION);
    }

    #[test]
    fn overflow_picks_highest_quality_that_fits() {
        // λ=1/s, slack=3. Option 0: E[S]=1+3=4 → 4 ≥ 3 overflow.
        // Option 1: E[S]=1+1.5=2.5 → 2.5 < 3 fits.
        let options = [Seconds(3.0), Seconds(1.5), Seconds(0.2)];
        let d = IboEngine::new().select_option(&ctx(1.0, 7, 10, 1.0, &options));
        assert_eq!(d.option, 1, "should not over-degrade to option 2");
        assert!(d.ibo_predicted);
        assert!(!d.unavoidable);
    }

    #[test]
    fn unavoidable_overflow_minimizes_service() {
        // slack = 1, λ=2/s: even the cheapest option (0.8s → 1.6 arrivals)
        // overflows. Choose the minimum-S_e2e option.
        let options = [Seconds(5.0), Seconds(2.0), Seconds(0.8)];
        let d = IboEngine::new().select_option(&ctx(2.0, 9, 10, 0.5, &options));
        assert_eq!(d.option, 2);
        assert!(d.ibo_predicted);
        assert!(d.unavoidable);
    }

    #[test]
    fn option_list_order_is_quality_not_cost() {
        // A mis-ordered list (cheaper option earlier) still picks the
        // first fitting entry: quality order is the programmer's contract.
        let options = [Seconds(0.5), Seconds(3.0)];
        let d = IboEngine::new().select_option(&ctx(1.0, 8, 10, 0.5, &options));
        assert_eq!(d.option, 0);
    }

    #[test]
    fn full_buffer_always_predicts_overflow() {
        let options = [Seconds(1.0), Seconds(0.1)];
        let d = IboEngine::new().select_option(&ctx(0.0, 10, 10, 0.1, &options));
        assert!(d.ibo_predicted);
        // λ=0 means no option can make λ·E[S] < 0; unavoidable.
        assert!(d.unavoidable);
    }

    #[test]
    fn zero_lambda_with_slack_never_overflows() {
        let options = [Seconds(1000.0)];
        let d = IboEngine::new().select_option(&ctx(0.0, 5, 10, 100.0, &options));
        assert_eq!(d, IboDecision::NO_ACTION);
    }

    #[test]
    fn job_without_degradable_task_reports_overflow() {
        let d = IboEngine::new().select_option(&ctx(5.0, 9, 10, 4.0, &[]));
        assert_eq!(d.option, 0);
        assert!(d.ibo_predicted);
        assert!(d.unavoidable);
    }

    #[test]
    fn context_helpers() {
        let options = [Seconds(1.0)];
        let c = ctx(1.0, 3, 10, 0.0, &options);
        assert_eq!(c.slack(), 7.0);
        assert!((c.fill_fraction() - 0.3).abs() < 1e-12);
        assert!(c.predicts_overflow(Seconds(7.0)));
        assert!(!c.predicts_overflow(Seconds(6.9)));
        let full = ctx(1.0, 12, 10, 0.0, &options);
        assert_eq!(full.slack(), 0.0);
        assert_eq!(full.fill_fraction(), 1.0);
        let degenerate = DegradationContext {
            capacity: 0,
            ..ctx(1.0, 0, 0, 0.0, &options)
        };
        assert_eq!(degenerate.fill_fraction(), 1.0);
    }

    proptest! {
        #[test]
        fn chosen_option_is_first_that_fits_or_cheapest(
            lambda in 0.0f64..3.0,
            occupancy in 0u32..12,
            opts in proptest::collection::vec(0.01f64..20.0, 1..4),
            non_deg in 0.0f64..5.0,
        ) {
            let capacity = 10u32;
            let options: Vec<Seconds> = opts.iter().map(|&s| Seconds(s)).collect();
            let c = ctx(lambda, occupancy, capacity, non_deg, &options);
            let d = IboEngine::new().select_option(&c);

            if !c.predicts_overflow(c.expected_service) {
                prop_assert_eq!(d, IboDecision::NO_ACTION);
            } else if !d.unavoidable {
                // Every higher-quality option must overflow...
                for &svc in options.iter().take(d.option) {
                    prop_assert!(c.predicts_overflow(Seconds(non_deg) + svc));
                }
                // ...and the chosen one must not.
                prop_assert!(!c.predicts_overflow(Seconds(non_deg) + options[d.option]));
            } else {
                // Unavoidable: chosen option has the minimum service.
                let min = options.iter().cloned().fold(Seconds(f64::INFINITY), Seconds::min);
                prop_assert_eq!(options[d.option], min);
            }
        }
    }
}
