//! Horizon-cause accounting: *why* the fast-forward engine stepped
//! instead of skipping.
//!
//! Every call to the engine's horizon planner ends in one of two ways:
//! a bulk-advanceable quiescent span (whose length some bound cut
//! short), or a forced reference tick (span zero). [`HorizonStats`]
//! attributes both to the [`HorizonCause`] that won the min-reduction,
//! in deterministic simulated-time land — no clocks — so the ranking
//! is identical across machines and thread counts.
//!
//! The stats live *beside* the simulator's `Metrics`, never inside:
//! `Metrics` equality between the tick and fast-forward engines is a
//! pinned contract, and the tick engine plans no horizons.
//!
//! [`HorizonStats`] holds exact counters only and is always on. The
//! distribution of span lengths per cause ([`SpanLengths`]) is
//! profiling data: an enabled [`PhaseProfiler`](crate::PhaseProfiler)
//! carries it, so an unprofiled run neither stores nor records it.
//! [`HorizonRanking`] joins the two for `qz profile`.

use qz_obs::Log2Histogram;
use qz_types::json::{WriteJson, Writer};

/// The bound that decided a horizon planning call. Mirrors the
/// min-reduction in `Simulation::quiescent_span`; `BusyScheduler`
/// forces span 0 outright, the others cut a span short (or to zero
/// when they fall due on the current tick).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HorizonCause {
    /// An installed fault injector's quiet horizon ran out: a fault
    /// could land on the next tick (a *candidate* — an armed
    /// adversary's next power-stream draw falls below its largest
    /// boosted threshold, or the injector promises no quiet ticks at
    /// all), so that tick runs the reference path.
    FaultCollapse,
    /// Powered-on and idle with queued inputs: the scheduler (and its
    /// estimator/controller updates) runs every tick.
    BusyScheduler,
    /// The next capture boundary (`device.capture_period` multiple).
    /// Periods ≤ the QZ070 threshold collapse the horizon outright.
    CaptureBoundary,
    /// The next periodic state sample (one per simulated second while
    /// telemetry is recorded or an observer is installed).
    SnapshotDue,
    /// The active job's countdown (task, overhead, or tx backoff)
    /// expires.
    JobCountdown,
    /// A periodic checkpoint comes due.
    CheckpointDue,
    /// The post-events drain completes (`events_end` termination).
    EventsEnd,
    /// The simulation horizon's final tick (termination check).
    HorizonEnd,
}

impl HorizonCause {
    /// Number of causes (array sizing).
    pub const COUNT: usize = 8;

    /// Every cause, in catalog order.
    pub const ALL: [HorizonCause; HorizonCause::COUNT] = [
        HorizonCause::FaultCollapse,
        HorizonCause::BusyScheduler,
        HorizonCause::CaptureBoundary,
        HorizonCause::SnapshotDue,
        HorizonCause::JobCountdown,
        HorizonCause::CheckpointDue,
        HorizonCause::EventsEnd,
        HorizonCause::HorizonEnd,
    ];

    /// Stable kebab-case label.
    pub fn label(self) -> &'static str {
        match self {
            HorizonCause::FaultCollapse => "fault-collapse",
            HorizonCause::BusyScheduler => "busy-scheduler",
            HorizonCause::CaptureBoundary => "capture-boundary",
            HorizonCause::SnapshotDue => "snapshot-due",
            HorizonCause::JobCountdown => "job-countdown",
            HorizonCause::CheckpointDue => "checkpoint-due",
            HorizonCause::EventsEnd => "events-end",
            HorizonCause::HorizonEnd => "horizon-end",
        }
    }

    /// A remediation hint printed under the ranking when this cause
    /// dominates the forced reference ticks.
    pub fn hint(self) -> Option<&'static str> {
        match self {
            HorizonCause::FaultCollapse => Some(
                "ticks where an installed fault injector's next draw could fire run the \
                 reference path so the real phase boost decides; denser fault plans (or an \
                 injector without a quiet horizon) mean more of them",
            ),
            HorizonCause::BusyScheduler => Some(
                "a powered-on idle device with queued inputs runs the scheduler on the \
                 reference path; the pick usually starts a job at once, so these ticks track \
                 jobs started and grow with scene density",
            ),
            HorizonCause::CaptureBoundary => {
                Some("tiny capture periods collapse the horizon — see qz-check QZ070")
            }
            HorizonCause::SnapshotDue => Some(
                "the periodic state sample (telemetry or an installed observer) runs the \
                 reference path once per simulated second; an unobserved run skips it",
            ),
            _ => None,
        }
    }

    fn index(self) -> usize {
        match self {
            HorizonCause::FaultCollapse => 0,
            HorizonCause::BusyScheduler => 1,
            HorizonCause::CaptureBoundary => 2,
            HorizonCause::SnapshotDue => 3,
            HorizonCause::JobCountdown => 4,
            HorizonCause::CheckpointDue => 5,
            HorizonCause::EventsEnd => 6,
            HorizonCause::HorizonEnd => 7,
        }
    }
}

/// Per-cause tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CauseStat {
    /// Bulk spans this bound terminated.
    pub spans: u64,
    /// Ticks skipped inside those spans.
    pub skipped_ticks: u64,
    /// Reference ticks this bound forced (span collapsed to zero).
    pub ref_ticks: u64,
}

/// Deterministic horizon accounting for one fast-forward run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HorizonStats {
    cells: [CauseStat; HorizonCause::COUNT],
    /// Busy reference ticks: fast-forward ticks whose horizon collapsed
    /// to zero, each run through the reference tick body.
    busy_tail_ticks: u64,
}

impl Default for HorizonStats {
    fn default() -> Self {
        Self::new()
    }
}

impl HorizonStats {
    /// Empty accounting.
    pub fn new() -> HorizonStats {
        HorizonStats {
            cells: [CauseStat::default(); HorizonCause::COUNT],
            busy_tail_ticks: 0,
        }
    }

    /// Records one busy reference tick forced by `cause`.
    pub fn record_busy_tail(&mut self, cause: HorizonCause) {
        self.cells[cause.index()].ref_ticks += 1;
        self.busy_tail_ticks += 1;
    }

    /// Always 0: the batched busy-tick kernel is retired and every busy
    /// tick counts in [`HorizonStats::busy_tail_ticks`]. Kept so
    /// existing readers of the block counters keep compiling.
    pub fn busy_blocks(&self) -> u64 {
        0
    }

    /// Always 0; see [`HorizonStats::busy_blocks`].
    pub fn busy_block_ticks(&self) -> u64 {
        0
    }

    /// Always 0; see [`HorizonStats::busy_blocks`].
    pub fn median_block_occupancy(&self) -> u64 {
        0
    }

    /// Busy reference ticks run by the fast-forward engine.
    pub fn busy_tail_ticks(&self) -> u64 {
        self.busy_tail_ticks
    }

    /// Records one bulk-advanced span of `ticks` ended by `cause`.
    pub fn record_span(&mut self, cause: HorizonCause, ticks: u64) {
        let c = &mut self.cells[cause.index()];
        c.spans += 1;
        c.skipped_ticks += ticks;
    }

    /// Records one forced reference tick attributed to `cause`.
    pub fn record_ref_tick(&mut self, cause: HorizonCause) {
        self.cells[cause.index()].ref_ticks += 1;
    }

    /// Tallies for one cause.
    pub fn cause(&self, cause: HorizonCause) -> &CauseStat {
        &self.cells[cause.index()]
    }

    /// Reference ticks forced across all causes.
    pub fn total_ref_ticks(&self) -> u64 {
        self.cells.iter().map(|c| c.ref_ticks).sum()
    }

    /// Ticks skipped in bulk across all causes.
    pub fn total_skipped_ticks(&self) -> u64 {
        self.cells.iter().map(|c| c.skipped_ticks).sum()
    }

    /// Whether nothing was recorded (tick engine, or an unrun sim).
    pub fn is_empty(&self) -> bool {
        self.cells.iter().all(|c| c.spans == 0 && c.ref_ticks == 0)
    }

    /// Folds another run's accounting into this one (fleet merges).
    pub fn merge(&mut self, other: &HorizonStats) {
        for (m, t) in self.cells.iter_mut().zip(other.cells.iter()) {
            m.spans += t.spans;
            m.skipped_ticks += t.skipped_ticks;
            m.ref_ticks += t.ref_ticks;
        }
        self.busy_tail_ticks += other.busy_tail_ticks;
    }

    /// Joins these counters with the span-length distributions of the
    /// run's profiler (`None` when it ran unprofiled) for rendering.
    pub fn ranking<'a>(&'a self, spans: Option<&'a SpanLengths>) -> HorizonRanking<'a> {
        HorizonRanking { stats: self, spans }
    }
}

/// Bulk span lengths per [`HorizonCause`], in ticks: the distributions
/// behind `qz profile`'s median-span column. Profiling data, carried by
/// an enabled [`PhaseProfiler`](crate::PhaseProfiler).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanLengths {
    hists: [Log2Histogram; HorizonCause::COUNT],
}

impl SpanLengths {
    /// Empty distributions.
    pub fn new() -> SpanLengths {
        SpanLengths::default()
    }

    /// Records one bulk-advanced span of `ticks` ended by `cause`.
    pub fn record(&mut self, cause: HorizonCause, ticks: u64) {
        self.hists[cause.index()].record(ticks);
    }

    /// The span-length distribution of one cause.
    pub fn hist(&self, cause: HorizonCause) -> &Log2Histogram {
        &self.hists[cause.index()]
    }

    /// Folds another run's distributions into these (fleet merges).
    pub fn merge(&mut self, other: &SpanLengths) {
        for (m, t) in self.hists.iter_mut().zip(other.hists.iter()) {
            m.merge(t);
        }
    }
}

/// [`HorizonStats`] joined with the profiler's [`SpanLengths`]: the
/// ranked text behind `qz profile` and its `horizon` JSON object. Without
/// span lengths the median-span column reads `-` and the JSON omits
/// `median_span`.
#[derive(Debug, Clone, Copy)]
pub struct HorizonRanking<'a> {
    stats: &'a HorizonStats,
    spans: Option<&'a SpanLengths>,
}

impl HorizonRanking<'_> {
    /// Median span length of `cause`, when it ended any span and the
    /// distributions were recorded.
    fn median_span(&self, cause: HorizonCause) -> Option<u64> {
        let spans = self.spans?;
        (self.stats.cause(cause).spans > 0).then(|| spans.hist(cause).quantile(0.5))
    }

    /// "Why is this run slow": causes ranked by the reference ticks
    /// they forced (the quantity that costs wall-clock), with span
    /// counts, skipped ticks, and median span length alongside.
    pub fn render(&self) -> String {
        let stats = self.stats;
        if stats.is_empty() {
            return String::from(
                "horizon-cause ranking: no fast-forward horizon decisions recorded \
                 (tick engine?)\n",
            );
        }
        let total_ref = stats.total_ref_ticks();
        let mut ranked: Vec<(HorizonCause, &CauseStat)> = HorizonCause::ALL
            .iter()
            .map(|&c| (c, stats.cause(c)))
            .filter(|(_, s)| s.spans > 0 || s.ref_ticks > 0)
            .collect();
        ranked.sort_by_key(|&(_, s)| std::cmp::Reverse((s.ref_ticks, s.spans)));
        let mut out = String::new();
        out.push_str(&format!(
            "{:<4} {:<16} {:>12} {:>7} {:>10} {:>14} {:>11}\n",
            "rank", "cause", "ref-ticks", "ref%", "spans", "skipped-ticks", "median-span"
        ));
        let mut hints: Vec<&'static str> = Vec::new();
        for (rank, (cause, s)) in ranked.iter().enumerate() {
            #[allow(clippy::cast_precision_loss)] // display only
            let pct = if total_ref == 0 {
                0.0
            } else {
                s.ref_ticks as f64 / total_ref as f64 * 100.0
            };
            out.push_str(&format!(
                "{:<4} {:<16} {:>12} {:>6.1}% {:>10} {:>14} {:>11}\n",
                rank + 1,
                cause.label(),
                s.ref_ticks,
                pct,
                s.spans,
                s.skipped_ticks,
                self.median_span(*cause)
                    .map_or_else(|| String::from("-"), |m| m.to_string()),
            ));
            // Hint on the causes that matter: the top forced-tick
            // contributor plus anything over 10% of forced ticks.
            if (rank == 0 || pct >= 10.0) && s.ref_ticks > 0 {
                if let Some(hint) = cause.hint() {
                    if !hints.contains(&hint) {
                        hints.push(hint);
                    }
                }
            }
        }
        out.push_str(&format!(
            "total: {} reference tick(s), {} skipped in bulk\n",
            total_ref,
            stats.total_skipped_ticks(),
        ));
        if stats.busy_tail_ticks > 0 {
            out.push_str(&format!(
                "busy reference ticks: {}\n",
                stats.busy_tail_ticks
            ));
        }
        for hint in hints {
            out.push_str(&format!("hint: {hint}\n"));
        }
        out
    }
}

/// One self-describing JSON object, active causes in catalog order.
impl WriteJson for HorizonRanking<'_> {
    fn write_json(&self, w: &mut Writer<'_>) {
        let stats = self.stats;
        w.obj(|w| {
            w.field("tool", "qz-prof").key("horizon_causes").arr(|w| {
                for cause in HorizonCause::ALL {
                    let s = stats.cause(cause);
                    if s.spans == 0 && s.ref_ticks == 0 {
                        continue;
                    }
                    w.obj(|w| {
                        w.field("cause", cause.label())
                            .field("ref_ticks", s.ref_ticks)
                            .field("spans", s.spans)
                            .field("skipped_ticks", s.skipped_ticks);
                        if let Some(median) = self.median_span(cause) {
                            w.field("median_span", median);
                        }
                    });
                }
            });
            w.field("total_ref_ticks", stats.total_ref_ticks())
                .field("total_skipped_ticks", stats.total_skipped_ticks())
                .field("busy_tail_ticks", stats.busy_tail_ticks);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_orders_by_forced_ticks() {
        let mut h = HorizonStats::new();
        for _ in 0..100 {
            h.record_ref_tick(HorizonCause::BusyScheduler);
        }
        for _ in 0..5 {
            h.record_ref_tick(HorizonCause::CaptureBoundary);
        }
        h.record_span(HorizonCause::CaptureBoundary, 999);
        let text = h.ranking(None).render();
        let busy = text.find("busy-scheduler").unwrap();
        let capture = text.find("capture-boundary").unwrap();
        assert!(busy < capture, "{text}");
        assert!(
            text.contains("hint: a powered-on idle device with queued inputs"),
            "{text}"
        );
        assert_eq!(h.total_ref_ticks(), 105);
        assert_eq!(h.total_skipped_ticks(), 999);
    }

    #[test]
    fn empty_stats_render_placeholder() {
        let h = HorizonStats::new();
        assert!(h.is_empty());
        assert!(h
            .ranking(None)
            .render()
            .contains("no fast-forward horizon decisions"));
        assert!(qz_types::json::to_string(h.ranking(None)).contains("\"total_ref_ticks\":0"));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = HorizonStats::new();
        let mut b = HorizonStats::new();
        a.record_span(HorizonCause::JobCountdown, 10);
        b.record_span(HorizonCause::JobCountdown, 30);
        b.record_ref_tick(HorizonCause::FaultCollapse);
        a.merge(&b);
        assert_eq!(a.cause(HorizonCause::JobCountdown).spans, 2);
        assert_eq!(a.cause(HorizonCause::JobCountdown).skipped_ticks, 40);
        assert_eq!(a.cause(HorizonCause::FaultCollapse).ref_ticks, 1);
    }

    #[test]
    fn json_lists_only_active_causes() {
        let mut h = HorizonStats::new();
        h.record_span(HorizonCause::EventsEnd, 4);
        let json = qz_types::json::to_string(h.ranking(None));
        assert!(json.contains("\"cause\":\"events-end\""));
        assert!(!json.contains("snapshot-due"));
    }

    #[test]
    fn busy_kernel_line_reports_blocks_and_tail() {
        let mut h = HorizonStats::new();
        h.record_busy_tail(HorizonCause::BusyScheduler);
        h.record_busy_tail(HorizonCause::BusyScheduler);
        h.record_busy_tail(HorizonCause::CaptureBoundary);
        assert_eq!(h.total_ref_ticks(), 3);
        assert_eq!(h.cause(HorizonCause::BusyScheduler).ref_ticks, 2);
        assert_eq!(h.busy_tail_ticks(), 3);
        assert_eq!(
            (
                h.busy_blocks(),
                h.busy_block_ticks(),
                h.median_block_occupancy()
            ),
            (0, 0, 0),
            "the retired block counters read zero"
        );
        let text = h.ranking(None).render();
        assert!(text.contains("busy reference ticks: 3\n"), "{text}");
        let json = qz_types::json::to_string(h.ranking(None));
        assert!(json.contains("\"busy_tail_ticks\":3"), "{json}");
        assert!(!json.contains("busy_block"), "{json}");
        let mut other = HorizonStats::new();
        other.record_busy_tail(HorizonCause::FaultCollapse);
        other.merge(&h);
        assert_eq!(other.busy_tail_ticks(), 4);
    }

    #[test]
    fn median_span_comes_from_the_profiler_distributions() {
        let mut h = HorizonStats::new();
        let mut spans = SpanLengths::new();
        for ticks in [10, 30, 999] {
            h.record_span(HorizonCause::JobCountdown, ticks);
            spans.record(HorizonCause::JobCountdown, ticks);
        }
        h.record_ref_tick(HorizonCause::BusyScheduler);
        let row = |text: &str, label: &str| {
            let line = text.lines().find(|l| l.contains(label)).unwrap();
            line.split_whitespace().last().unwrap().to_string()
        };
        let median = spans.hist(HorizonCause::JobCountdown).quantile(0.5);
        assert!(median > 0);
        let text = h.ranking(Some(&spans)).render();
        assert_eq!(row(&text, "job-countdown"), median.to_string(), "{text}");
        assert_eq!(row(&text, "busy-scheduler"), "-", "{text}");
        let json = qz_types::json::to_string(h.ranking(Some(&spans)));
        assert!(
            json.contains(&format!("\"median_span\":{median}")),
            "{json}"
        );
        // A cause that ended no span has no median, as in the text.
        assert!(
            json.contains(
                "{\"cause\":\"busy-scheduler\",\"ref_ticks\":1,\"spans\":0,\"skipped_ticks\":0}"
            ),
            "{json}"
        );
        // Unprofiled: the counters render, the distribution does not.
        let text = h.ranking(None).render();
        assert_eq!(row(&text, "job-countdown"), "-", "{text}");
        let json = qz_types::json::to_string(h.ranking(None));
        assert!(!json.contains("median_span"), "{json}");
        assert!(json.contains("\"skipped_ticks\":1039"), "{json}");
    }

    #[test]
    fn span_lengths_merge() {
        let mut a = SpanLengths::new();
        let mut b = SpanLengths::new();
        a.record(HorizonCause::EventsEnd, 4);
        b.record(HorizonCause::EventsEnd, 4);
        b.record(HorizonCause::HorizonEnd, 1);
        a.merge(&b);
        assert_eq!(a.hist(HorizonCause::EventsEnd).count(), 2);
        assert_eq!(a.hist(HorizonCause::HorizonEnd).count(), 1);
        assert_ne!(a, SpanLengths::new());
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::BTreeSet<_> =
            HorizonCause::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), HorizonCause::COUNT);
    }
}
