//! A small metrics registry — counters, gauges, log2 histograms — and
//! an observer that derives one from the event stream.

use alloc::format;
use alloc::string::String;
use alloc::vec::Vec;

use crate::event::{Event, EventKind};
use crate::observer::Observer;

/// `f64::abs` without `std` (not available in `core` on stable).
#[inline]
fn abs_f64(v: f64) -> f64 {
    if v < 0.0 {
        -v
    } else {
        v
    }
}

/// Rounds a non-negative `f64` to the nearest `u64` without `std`.
#[inline]
// The truncating cast IS the rounding mechanism after the half-offset;
// callers pass non-negative millisecond/count magnitudes.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn round_u64(v: f64) -> u64 {
    (v + 0.5) as u64
}

/// Number of buckets in a [`Log2Histogram`]; bucket `i` holds values
/// `v` with `ilog2(v) == i` (bucket 0 also holds 0), so the range
/// covers `u64` values up to `2^63`.
pub const LOG2_BUCKETS: usize = 64;

/// A fixed-bucket power-of-two histogram over `u64` samples.
///
/// Allocation-free after construction and cheap to record into
/// (`ilog2` + increment), which is what an embedded port needs. Bucket
/// `i` covers `[2^i, 2^(i+1))`, with 0 landing in bucket 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            value.ilog2() as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen, 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound (`2^(i+1) − 1`) of the bucket containing the `q`
    /// quantile (0.0..=1.0); an approximation with log2 resolution.
    // `exact` is clamped to [0, count], so the floor-by-cast is exact.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let exact = q.clamp(0.0, 1.0) * self.count as f64;
        let mut rank = exact as u64;
        if (rank as f64) < exact {
            rank += 1; // ceil without std
        }
        let rank = rank.max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        self.max
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (if i == 0 { 0 } else { 1u64 << i }, n))
            .collect()
    }

    /// Folds another histogram into this one, bucket-wise. Count, sum,
    /// and max combine exactly, so merging per-shard histograms (e.g.
    /// qz-prof's per-device fleet profiles) is lossless.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// A flat registry of named counters, gauges, and histograms.
///
/// Names are `&'static str` and lookups are linear — the registry holds
/// tens of series, not thousands, and stays allocation-light.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, f64)>,
    histograms: Vec<(&'static str, Log2Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to a counter, creating it at 0 first if needed.
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += delta,
            None => self.counters.push((name, delta)),
        }
    }

    /// Reads a counter; 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Sets a gauge to its latest value.
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        match self.gauges.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.gauges.push((name, value)),
        }
    }

    /// Reads a gauge; `None` when never set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Records a sample into a histogram, creating it if needed.
    pub fn histogram_record(&mut self, name: &'static str, value: u64) {
        match self.histograms.iter_mut().find(|(n, _)| *n == name) {
            Some((_, h)) => h.record(value),
            None => {
                let mut h = Log2Histogram::new();
                h.record(value);
                self.histograms.push((name, h));
            }
        }
    }

    /// Reads a histogram; `None` when it has no samples.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
    }

    /// Renders the registry as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<32} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<32} {v:.4}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "  {name:<32} n={} mean={:.1} p50<={} p99<={} max={}\n",
                    h.count(),
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.99),
                    h.max()
                ));
            }
        }
        out
    }
}

/// Derives a [`MetricsRegistry`] from the event stream: decision
/// counters plus the three distributions the paper's evaluation leans
/// on — service-time prediction error, buffer occupancy, and
/// recharge (off) time.
#[derive(Debug, Default)]
pub struct MetricsObserver {
    registry: MetricsRegistry,
}

impl MetricsObserver {
    /// An observer with an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry accumulated so far.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Consumes the observer, returning its registry.
    pub fn into_registry(self) -> MetricsRegistry {
        self.registry
    }

    /// Folds a slice of events into a fresh registry.
    pub fn from_events(events: &[Event]) -> MetricsRegistry {
        let mut obs = MetricsObserver::new();
        for event in events {
            obs.record(event);
        }
        obs.into_registry()
    }

    /// Folds one event into the registry: the single path behind both
    /// [`Observer::on_event`] and [`MetricsObserver::from_events`].
    pub fn record(&mut self, event: &Event) {
        let r = &mut self.registry;
        match &event.kind {
            EventKind::SchedulerPick { correction_s, .. } => {
                r.counter_add("scheduler_picks", 1);
                r.gauge_set("pid_correction_s", *correction_s);
            }
            EventKind::IboDecision {
                ibo_predicted,
                unavoidable,
                chosen_option,
                lambda,
                ..
            } => {
                if *ibo_predicted {
                    r.counter_add("ibo_predictions", 1);
                }
                if *unavoidable {
                    r.counter_add("ibo_unavoidable", 1);
                }
                if *chosen_option > 0 {
                    r.counter_add("degraded_dispatches", 1);
                }
                r.gauge_set("lambda_per_s", *lambda);
            }
            EventKind::PidUpdate { error_s, .. } => {
                // Prediction-error distribution in absolute milliseconds.
                let err_ms = round_u64(abs_f64(*error_s) * 1000.0);
                r.histogram_record("prediction_error_ms", err_ms);
            }
            EventKind::JobComplete { .. } => r.counter_add("jobs_completed", 1),
            EventKind::JobStart { .. } => r.counter_add("jobs_started", 1),
            EventKind::BufferAdmit { .. } => r.counter_add("buffer_admits", 1),
            EventKind::IboDiscard { interesting, .. } => {
                r.counter_add("ibo_discards", 1);
                if *interesting {
                    r.counter_add("ibo_discards_interesting", 1);
                }
            }
            EventKind::PowerFailure { checkpointed } => {
                r.counter_add("power_failures", 1);
                if *checkpointed {
                    r.counter_add("jit_checkpoints", 1);
                }
            }
            EventKind::Checkpoint => r.counter_add("checkpoints", 1),
            EventKind::Restore { off_ms } => {
                r.counter_add("restores", 1);
                r.histogram_record("recharge_time_ms", *off_ms);
            }
            EventKind::TxBackoff {
                wait_ms,
                duty_capped,
            } => {
                r.counter_add("tx_backoffs", 1);
                if *duty_capped {
                    r.counter_add("tx_duty_deferrals", 1);
                }
                r.histogram_record("tx_backoff_wait_ms", *wait_ms);
            }
            EventKind::Snapshot(s) => {
                r.histogram_record("occupancy", u64::from(s.occupancy));
                r.gauge_set("stored_j", s.stored_j);
            }
            EventKind::FaultInjected { .. } => r.counter_add("faults_injected", 1),
        }
    }
}

impl Observer for MetricsObserver {
    fn on_event(&mut self, event: Event) {
        self.record(&event);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn core::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Snapshot;

    #[test]
    fn histogram_merge_is_lossless() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        let mut whole = Log2Histogram::new();
        for v in [0, 1, 7, 32, 4096] {
            a.record(v);
            whole.record(v);
        }
        for v in [2, 2, 900, u64::MAX / 2] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.sum(), whole.sum());
        assert_eq!(a.max(), whole.max());
        assert_eq!(a.nonzero_buckets(), whole.nonzero_buckets());
        assert_eq!(a.quantile(0.5), whole.quantile(0.5));
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Log2Histogram::new();
        for v in [0, 1, 2, 3, 4, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum(), 1018);
        // 0 and 1 share bucket 0; 2 and 3 share bucket 1.
        assert_eq!(h.nonzero_buckets()[0], (0, 2));
        assert_eq!(h.nonzero_buckets()[1], (2, 2));
        // Median (4th of 7) is the value 3, in bucket 1 → upper bound 3.
        assert_eq!(h.quantile(0.5), 3);
        assert!(h.quantile(1.0) >= 1000);
        assert_eq!(Log2Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut r = MetricsRegistry::new();
        r.counter_add("a", 2);
        r.counter_add("a", 3);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("missing"), 0);
        r.gauge_set("g", 1.0);
        r.gauge_set("g", 2.5);
        assert_eq!(r.gauge("g"), Some(2.5));
        r.histogram_record("h", 10);
        assert_eq!(r.histogram("h").unwrap().count(), 1);
        let table = r.render();
        assert!(table.contains("a"));
        assert!(table.contains("2.5"));
    }

    #[test]
    fn metrics_observer_derives_from_events() {
        let events = [
            Event {
                t_ms: 0,
                kind: EventKind::PidUpdate {
                    job: 0,
                    predicted_s: 1.0,
                    observed_s: 1.25,
                    error_s: 0.25,
                    correction_s: 0.01,
                },
            },
            Event {
                t_ms: 1,
                kind: EventKind::IboDiscard {
                    occupancy: 10,
                    interesting: true,
                    device_on: false,
                    active_option: None,
                },
            },
            Event {
                t_ms: 2,
                kind: EventKind::Restore { off_ms: 1500 },
            },
            Event {
                t_ms: 3,
                kind: EventKind::Snapshot(Snapshot {
                    irradiance: 0.5,
                    stored_j: 0.2,
                    on: true,
                    occupancy: 4,
                    lambda: 0.3,
                    correction_s: 0.0,
                    active_option: Some(0),
                    ibo_discards: 1,
                }),
            },
        ];
        let r = MetricsObserver::from_events(&events);
        assert_eq!(r.counter("ibo_discards"), 1);
        assert_eq!(r.counter("ibo_discards_interesting"), 1);
        assert_eq!(r.counter("restores"), 1);
        assert_eq!(r.histogram("prediction_error_ms").unwrap().max(), 250);
        assert_eq!(r.histogram("recharge_time_ms").unwrap().max(), 1500);
        assert_eq!(r.histogram("occupancy").unwrap().max(), 4);
    }
}
