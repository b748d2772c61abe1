//! Descriptive statistics for traces.
//!
//! Summarizes the environments experiments run in — the numbers quoted
//! in `EXPERIMENTS.md`'s configuration tables and used to sanity-check
//! that generated traces land in the intended regimes (activity
//! fraction, burstiness, power distribution).

use crate::events::EventTrace;
use crate::solar::SolarTrace;
use qz_types::SimDuration;

/// Summary statistics of a sensing-event trace.
#[derive(Debug, Clone, PartialEq)]
pub struct EventStats {
    /// Number of events.
    pub count: usize,
    /// Fraction of the horizon covered by events.
    pub activity_fraction: f64,
    /// Mean event duration, seconds.
    pub mean_duration: f64,
    /// Mean gap between events, seconds.
    pub mean_gap: f64,
    /// Coefficient of variation of the interarrival times (event start
    /// to next event start); 1.0 ≈ Poisson, <1 more regular, >1 bursty.
    pub interarrival_cv: f64,
    /// Fraction of events labeled interesting.
    pub interesting_fraction: f64,
}

/// Computes [`EventStats`] for a trace.
///
/// Returns `None` for traces with fewer than two events (no interarrival
/// statistics exist).
pub fn event_stats(trace: &EventTrace) -> Option<EventStats> {
    let events = trace.events();
    if events.len() < 2 {
        return None;
    }
    let count = events.len();
    let mean_duration = events
        .iter()
        .map(|e| e.duration.as_seconds().value())
        .sum::<f64>()
        / count as f64;
    let gaps: Vec<f64> = events
        .windows(2)
        .map(|w| w[1].start.since(w[0].end()).as_seconds().value())
        .collect();
    let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;

    let interarrivals: Vec<f64> = events
        .windows(2)
        .map(|w| w[1].start.since(w[0].start).as_seconds().value())
        .collect();
    let ia_mean = interarrivals.iter().sum::<f64>() / interarrivals.len() as f64;
    let ia_var = interarrivals
        .iter()
        .map(|x| (x - ia_mean).powi(2))
        .sum::<f64>()
        / interarrivals.len() as f64;
    let interarrival_cv = if ia_mean > 0.0 {
        ia_var.sqrt() / ia_mean
    } else {
        0.0
    };

    Some(EventStats {
        count,
        activity_fraction: trace.activity_fraction(),
        mean_duration,
        mean_gap,
        interarrival_cv,
        interesting_fraction: trace.interesting_count() as f64 / count as f64,
    })
}

/// Summary statistics of a solar trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SolarStats {
    /// Trace length.
    pub duration: SimDuration,
    /// Mean irradiance fraction.
    pub mean: f64,
    /// Irradiance quartiles `(p25, p50, p75)`.
    pub quartiles: (f64, f64, f64),
    /// Maximum observed irradiance (what the PZI oracle thresholds on).
    pub max: f64,
    /// Fraction of time below 10 % of the observed maximum — the "deep
    /// overcast" share that forces recharge-bound operation.
    pub deep_low_fraction: f64,
}

/// Computes [`SolarStats`] for a trace.
pub fn solar_stats(trace: &SolarTrace) -> SolarStats {
    let mut sorted: Vec<f32> = trace.samples().into_owned();
    sorted.sort_unstable_by(|a, b| a.total_cmp(b));
    let q = |p: f64| -> f64 {
        // p in [0, 1] and len >= 1, so the rounded index is a small
        // non-negative integer.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
        sorted[idx.min(sorted.len() - 1)] as f64
    };
    let max = trace.observed_max();
    let deep = max * 0.1;
    let deep_low_fraction =
        sorted.iter().filter(|&&s| (s as f64) < deep).count() as f64 / sorted.len() as f64;
    SolarStats {
        duration: trace.duration(),
        mean: trace.mean(),
        quartiles: (q(0.25), q(0.50), q(0.75)),
        max,
        deep_low_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventTraceBuilder;
    use crate::solar::SolarTraceBuilder;

    #[test]
    fn event_stats_of_generated_trace() {
        let t = EventTraceBuilder::new()
            .event_count(500)
            .max_duration(SimDuration::from_secs(60))
            .mean_gap(SimDuration::from_secs(20))
            .seed(5)
            .build();
        let s = event_stats(&t).unwrap();
        assert_eq!(s.count, 500);
        assert!((s.activity_fraction - t.activity_fraction()).abs() < 1e-12);
        // Uniform durations in [2, 60] → mean ≈ 31 s.
        assert!(
            (s.mean_duration - 31.0).abs() < 3.0,
            "mean duration {}",
            s.mean_duration
        );
        // Exponential gaps with a 2 s floor → mean slightly above 20 s.
        assert!(
            s.mean_gap > 15.0 && s.mean_gap < 30.0,
            "mean gap {}",
            s.mean_gap
        );
        assert!((s.interesting_fraction - 0.5).abs() < 0.1);
        assert!(
            s.interarrival_cv > 0.1 && s.interarrival_cv < 1.5,
            "cv {}",
            s.interarrival_cv
        );
    }

    #[test]
    fn event_stats_needs_two_events() {
        let t = EventTraceBuilder::new().event_count(1).build();
        assert!(event_stats(&t).is_none());
        let t = EventTraceBuilder::new().event_count(0).build();
        assert!(event_stats(&t).is_none());
    }

    #[test]
    fn solar_stats_of_generated_trace() {
        let t = SolarTraceBuilder::new()
            .duration(SimDuration::from_secs(7200))
            .seed(4)
            .build();
        let s = solar_stats(&t);
        assert_eq!(s.duration, SimDuration::from_secs(7200));
        assert!(s.max <= 1.0 && s.max > 0.3);
        let (q25, q50, q75) = s.quartiles;
        assert!(q25 <= q50 && q50 <= q75);
        assert!(s.mean > q25 * 0.5 && s.mean < 1.0);
        assert!((0.0..=1.0).contains(&s.deep_low_fraction));
    }

    #[test]
    // A constant trace's quartiles are the stored f32 value exactly.
    #[allow(clippy::float_cmp)]
    fn constant_trace_has_degenerate_quartiles() {
        let t = crate::solar::SolarTrace::constant(0.4);
        let s = solar_stats(&t);
        assert_eq!(
            s.quartiles,
            (0.4000000059604645, 0.4000000059604645, 0.4000000059604645)
        );
        assert_eq!(s.deep_low_fraction, 0.0);
    }
}
