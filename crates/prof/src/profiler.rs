//! The phase profiler: scoped wall-clock spans over the engine hot
//! paths, aggregated per [`Phase`], the energy kernel's
//! [`KernelStats`] work counts, and the fast-forward engine's
//! [`SpanLengths`] per horizon cause.
//!
//! The profiler follows `qz-obs`'s observer discipline: a disabled
//! profiler holds no storage at all, [`PhaseProfiler::begin`] is a
//! single `Option` test, and no simulator-visible state is ever read
//! or written — wall-clock time and work counts flow *out* of the
//! engine only. The
//! `profiler_invisibility` differential suite pins the contract that
//! enabling profiling changes no deterministic output byte.

use crate::report::{PhaseReport, ProfileReport};
use crate::{HorizonCause, KernelStats, SpanLengths};
use qz_obs::Log2Histogram;
use std::time::Instant;

/// One instrumented region of the engine. The taxonomy is documented
/// in DESIGN.md ("Performance observability"); labels are stable so CI
/// greps and flamegraph diffs survive rewording.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// One full reference-loop tick (`Simulation::step_tick`).
    RefTick,
    /// One bulk quiescent-span advance (`Simulation::advance_span`).
    SpanAdvance,
    /// One whole `PowerSystem::advance` call: the binade-stride energy
    /// kernel integrating one constant-irradiance segment.
    Sprint,
    /// A fixed-point jump inside the kernel: the energy bits repeat, so
    /// every remaining tick's constant flows are summed in closed form.
    /// At most one per `Sprint`, which it nests inside.
    Replay,
    /// No longer recorded: the stride kernel has no per-tick tail. The
    /// variant and its `vigilant_tail` label stay so readers that look
    /// the phase up by name still resolve it (to an empty phase).
    VigilantTail,
    /// Telemetry/snapshot sample construction and observer emission
    /// inside the reference tick.
    ObsEmit,
    /// Carrier-sense/duty-cycle gate resolution on the shared uplink.
    UplinkSense,
    /// One fleet epoch: the parallel `step_until` region between
    /// barriers.
    FleetEpoch,
    /// The serial slot-overlay reduction at a fleet epoch barrier.
    FleetReduce,
    /// Popping the due batch off the event-horizon priority queue.
    FleetQueuePop,
    /// The parallel catch-up-and-step region over the woken devices in
    /// one event-horizon epoch, timed by the coordinator's wall clock
    /// around it. The woken devices' engine phases run inside that
    /// region but are merged separately, from the devices' own
    /// profilers, and nest under no fleet phase. So its self time is
    /// the region's wall time, overlapping those engine phases, and is
    /// not a layer of its own.
    FleetWake,
    /// The serial per-shard slot-overlay reduction after an
    /// event-horizon wake.
    FleetShardReduce,
    /// Capturing one full-simulation snapshot (`Simulation::save_state`).
    SnapSave,
    /// Restoring a simulation from a snapshot
    /// (`Simulation::restore_state`).
    SnapRestore,
    /// No longer recorded: the batched busy-tick kernel is retired and
    /// every busy tick is a `BusyTail`. The variant and its
    /// `busy_block` label stay so readers that look the phase up by
    /// name still resolve it (to an empty phase).
    BusyBlock,
    /// One busy reference tick under the fast-forward engine: the
    /// horizon planner found no quiescent span (a busy scheduler, a
    /// fault candidate, or a boundary event such as a capture,
    /// telemetry sample or countdown expiry), so the tick ran the
    /// reference tick body.
    BusyTail,
}

impl Phase {
    /// Number of phases (array sizing).
    pub const COUNT: usize = 16;

    /// Every phase, in display order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::RefTick,
        Phase::ObsEmit,
        Phase::UplinkSense,
        Phase::SpanAdvance,
        Phase::Sprint,
        Phase::Replay,
        Phase::VigilantTail,
        Phase::FleetEpoch,
        Phase::FleetReduce,
        Phase::FleetQueuePop,
        Phase::FleetWake,
        Phase::FleetShardReduce,
        Phase::BusyBlock,
        Phase::BusyTail,
        Phase::SnapSave,
        Phase::SnapRestore,
    ];

    /// Stable snake_case label used in tables, JSON, and folded stacks.
    pub fn label(self) -> &'static str {
        match self {
            Phase::RefTick => "ref_tick",
            Phase::SpanAdvance => "span_advance",
            Phase::Sprint => "sprint",
            Phase::Replay => "replay",
            Phase::VigilantTail => "vigilant_tail",
            Phase::ObsEmit => "obs_emit",
            Phase::UplinkSense => "uplink_sense",
            Phase::FleetEpoch => "fleet_epoch",
            Phase::FleetReduce => "fleet_reduce",
            Phase::FleetQueuePop => "fleet_queue_pop",
            Phase::FleetWake => "fleet_wake",
            Phase::FleetShardReduce => "fleet_shard_reduce",
            Phase::SnapSave => "snap_save",
            Phase::SnapRestore => "snap_restore",
            Phase::BusyBlock => "busy_block",
            Phase::BusyTail => "busy_tail",
        }
    }

    /// The enclosing phase, used to compute self-time and to build
    /// collapsed-stack paths. `Replay` nests inside `Sprint`, which
    /// nests inside `SpanAdvance`; emission and uplink resolution nest
    /// inside the reference tick. The retired `VigilantTail` is a root.
    pub fn parent(self) -> Option<Phase> {
        match self {
            Phase::Sprint => Some(Phase::SpanAdvance),
            Phase::Replay => Some(Phase::Sprint),
            Phase::ObsEmit | Phase::UplinkSense => Some(Phase::RefTick),
            _ => None,
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::RefTick => 0,
            Phase::SpanAdvance => 1,
            Phase::Sprint => 2,
            Phase::Replay => 3,
            Phase::VigilantTail => 4,
            Phase::ObsEmit => 5,
            Phase::UplinkSense => 6,
            Phase::FleetEpoch => 7,
            Phase::FleetReduce => 8,
            Phase::FleetQueuePop => 9,
            Phase::FleetWake => 10,
            Phase::FleetShardReduce => 11,
            Phase::SnapSave => 12,
            Phase::SnapRestore => 13,
            Phase::BusyBlock => 14,
            Phase::BusyTail => 15,
        }
    }
}

/// Aggregated samples for one phase.
#[derive(Debug, Clone)]
pub struct PhaseStat {
    /// Completed spans.
    pub count: u64,
    /// Total nanoseconds across all spans (saturating).
    pub total_ns: u64,
    /// Log2 latency distribution of individual span durations, ns.
    pub hist: Log2Histogram,
}

impl PhaseStat {
    fn new() -> PhaseStat {
        PhaseStat {
            count: 0,
            total_ns: 0,
            hist: Log2Histogram::new(),
        }
    }

    fn merge(&mut self, other: &PhaseStat) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.hist.merge(&other.hist);
    }
}

/// Scoped-span aggregator over the [`Phase`] taxonomy, plus the energy
/// kernel's [`KernelStats`] work counts and the engine's
/// [`SpanLengths`]: everything that is worth its cost only while
/// profiling.
///
/// Disabled ([`PhaseProfiler::disabled`], the default) it holds no
/// storage and every call site costs one `Option::is_some` test.
/// Enabled, a span is two `Instant` reads plus a histogram record.
///
/// ```
/// use qz_prof::{Phase, PhaseProfiler};
///
/// let mut prof = PhaseProfiler::enabled();
/// let t0 = prof.begin();
/// // ... hot work ...
/// prof.end(Phase::RefTick, t0);
/// assert_eq!(prof.report().phase(Phase::RefTick).unwrap().count, 1);
///
/// let mut off = PhaseProfiler::disabled();
/// assert!(off.begin().is_none()); // no clock read at all
/// ```
#[derive(Debug, Clone, Default)]
pub struct PhaseProfiler {
    stats: Option<Box<Stats>>,
}

/// An enabled profiler's storage.
#[derive(Debug, Clone)]
struct Stats {
    phases: [PhaseStat; Phase::COUNT],
    kernel: KernelStats,
    spans: SpanLengths,
}

impl Stats {
    fn new() -> Box<Stats> {
        Box::new(Stats {
            phases: std::array::from_fn(|_| PhaseStat::new()),
            kernel: KernelStats::default(),
            spans: SpanLengths::new(),
        })
    }
}

impl PhaseProfiler {
    /// The no-op profiler: no storage, no clock reads.
    pub fn disabled() -> PhaseProfiler {
        PhaseProfiler { stats: None }
    }

    /// A collecting profiler.
    pub fn enabled() -> PhaseProfiler {
        PhaseProfiler {
            stats: Some(Stats::new()),
        }
    }

    /// Whether spans are being collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.stats.is_some()
    }

    /// Opens a span: reads the clock only when enabled. Pass the
    /// returned token to [`PhaseProfiler::end`].
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        if self.stats.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes a span opened by [`PhaseProfiler::begin`]; a `None`
    /// token (disabled profiler) is a no-op.
    #[inline]
    pub fn end(&mut self, phase: Phase, started: Option<Instant>) {
        if let Some(t0) = started {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.record(phase, ns);
        }
    }

    /// Records one pre-measured span duration.
    pub fn record(&mut self, phase: Phase, ns: u64) {
        if let Some(stats) = self.stats.as_mut() {
            let s = &mut stats.phases[phase.index()];
            s.count += 1;
            s.total_ns = s.total_ns.saturating_add(ns);
            s.hist.record(ns);
        }
    }

    /// Aggregated samples for one phase; `None` while disabled.
    pub fn stat(&self, phase: Phase) -> Option<&PhaseStat> {
        self.stats.as_ref().map(|s| &s.phases[phase.index()])
    }

    /// Adds one energy-kernel call's work counts; a no-op while
    /// disabled.
    pub fn record_kernel(&mut self, work: &KernelStats) {
        if let Some(stats) = self.stats.as_mut() {
            stats.kernel.merge(work);
        }
    }

    /// The energy kernel's summed work counts; `None` while disabled.
    pub fn kernel(&self) -> Option<&KernelStats> {
        self.stats.as_ref().map(|s| &s.kernel)
    }

    /// Records the length of one bulk-advanced span ended by `cause`;
    /// a no-op while disabled.
    #[inline]
    pub fn record_span_length(&mut self, cause: HorizonCause, ticks: u64) {
        if let Some(stats) = self.stats.as_mut() {
            stats.spans.record(cause, ticks);
        }
    }

    /// The span-length distributions per horizon cause; `None` while
    /// disabled.
    pub fn span_lengths(&self) -> Option<&SpanLengths> {
        self.stats.as_ref().map(|s| &s.spans)
    }

    /// Folds another profiler's samples into this one (e.g. per-device
    /// fleet profilers into the coordinator's). Merging an enabled
    /// profiler into a disabled one enables it.
    pub fn merge(&mut self, other: &PhaseProfiler) {
        let Some(theirs) = other.stats.as_ref() else {
            return;
        };
        let mine = self.stats.get_or_insert_with(Stats::new);
        for (m, t) in mine.phases.iter_mut().zip(theirs.phases.iter()) {
            m.merge(t);
        }
        mine.kernel.merge(&theirs.kernel);
        mine.spans.merge(&theirs.spans);
    }

    /// Snapshots the aggregate into a renderable [`ProfileReport`].
    /// Self-time is total minus the totals of direct children (floored
    /// at zero: merged multi-thread profiles can overlap).
    pub fn report(&self) -> ProfileReport {
        let mut phases = Vec::new();
        let Some(stats) = self.stats.as_ref() else {
            return ProfileReport { phases };
        };
        for phase in Phase::ALL {
            let s = &stats.phases[phase.index()];
            if s.count == 0 {
                continue;
            }
            let child_total: u64 = Phase::ALL
                .iter()
                .filter(|c| c.parent() == Some(phase))
                .map(|c| stats.phases[c.index()].total_ns)
                .sum();
            phases.push(PhaseReport {
                phase,
                count: s.count,
                total_ns: s.total_ns,
                self_ns: s.total_ns.saturating_sub(child_total),
                p50_ns: s.hist.quantile(0.5),
                p99_ns: s.hist.quantile(0.99),
                max_ns: s.hist.max(),
            });
        }
        ProfileReport { phases }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_collects_nothing() {
        let mut p = PhaseProfiler::disabled();
        assert!(!p.is_enabled());
        assert!(p.begin().is_none());
        p.end(Phase::RefTick, None);
        p.record(Phase::RefTick, 100); // record on disabled is a no-op
        assert!(p.stat(Phase::RefTick).is_none());
        assert!(p.report().phases.is_empty());
    }

    #[test]
    fn spans_aggregate_per_phase() {
        let mut p = PhaseProfiler::enabled();
        p.record(Phase::RefTick, 1000);
        p.record(Phase::RefTick, 3000);
        p.record(Phase::ObsEmit, 500);
        let s = p.stat(Phase::RefTick).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 4000);
        assert_eq!(s.hist.max(), 3000);
        let report = p.report();
        let tick = report.phase(Phase::RefTick).unwrap();
        // ObsEmit is a child of RefTick: self = 4000 − 500.
        assert_eq!(tick.self_ns, 3500);
        assert_eq!(report.phase(Phase::ObsEmit).unwrap().self_ns, 500);
        assert!(report.phase(Phase::Sprint).is_none(), "empty phases drop");
    }

    #[test]
    fn begin_end_measures_something() {
        let mut p = PhaseProfiler::enabled();
        let t0 = p.begin();
        assert!(t0.is_some());
        std::hint::black_box(17u64.wrapping_mul(31));
        p.end(Phase::Sprint, t0);
        assert_eq!(p.stat(Phase::Sprint).unwrap().count, 1);
    }

    #[test]
    fn merge_accumulates_and_enables() {
        let mut a = PhaseProfiler::disabled();
        let mut b = PhaseProfiler::enabled();
        b.record(Phase::FleetEpoch, 10);
        b.record(Phase::Sprint, 7);
        a.merge(&b);
        a.merge(&b);
        assert!(a.is_enabled());
        assert_eq!(a.stat(Phase::FleetEpoch).unwrap().count, 2);
        assert_eq!(a.stat(Phase::Sprint).unwrap().total_ns, 14);
        // Merging a disabled profiler changes nothing.
        let before = a.stat(Phase::Sprint).unwrap().count;
        a.merge(&PhaseProfiler::disabled());
        assert_eq!(a.stat(Phase::Sprint).unwrap().count, before);
    }

    #[test]
    fn kernel_counts_record_only_when_enabled_and_merge() {
        let work = KernelStats {
            calls: 1,
            ticks: 9,
            ..KernelStats::default()
        };
        let mut off = PhaseProfiler::disabled();
        off.record_kernel(&work);
        assert!(off.kernel().is_none());
        let mut on = PhaseProfiler::enabled();
        on.record_kernel(&work);
        on.record_kernel(&work);
        let mut merged = PhaseProfiler::disabled();
        merged.merge(&on);
        merged.merge(&on);
        assert_eq!(merged.kernel().map(|k| (k.calls, k.ticks)), Some((4, 36)));
    }

    #[test]
    fn span_lengths_record_only_when_enabled_and_merge() {
        let mut off = PhaseProfiler::disabled();
        off.record_span_length(HorizonCause::JobCountdown, 40);
        assert!(off.span_lengths().is_none());
        let mut on = PhaseProfiler::enabled();
        on.record_span_length(HorizonCause::JobCountdown, 40);
        let mut merged = PhaseProfiler::disabled();
        merged.merge(&on);
        merged.merge(&on);
        let spans = merged.span_lengths().expect("merging enables");
        assert_eq!(spans.hist(HorizonCause::JobCountdown).count(), 2);
        assert_eq!(spans.hist(HorizonCause::EventsEnd).count(), 0);
    }

    #[test]
    fn parent_chain_is_acyclic_and_labels_unique() {
        for phase in Phase::ALL {
            let mut seen = 0;
            let mut cur = Some(phase);
            while let Some(p) = cur {
                cur = p.parent();
                seen += 1;
                assert!(seen <= Phase::COUNT, "cycle at {:?}", phase);
            }
        }
        let labels: std::collections::HashSet<_> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), Phase::COUNT);
    }

    #[test]
    fn fleet_scheduler_phases_are_registered_top_level_coordinator_spans() {
        // The event-horizon coordinator phases: stable labels (they
        // appear in profile output and bench trajectories), no parent
        // (coordinator time must not be folded into device phases), and
        // distinct aggregate slots.
        let phases = [
            (Phase::FleetQueuePop, "fleet_queue_pop"),
            (Phase::FleetWake, "fleet_wake"),
            (Phase::FleetShardReduce, "fleet_shard_reduce"),
        ];
        let mut indices = std::collections::HashSet::new();
        for (phase, label) in phases {
            assert_eq!(phase.label(), label);
            assert_eq!(phase.parent(), None, "{label} is a top-level span");
            assert!(Phase::ALL.contains(&phase));
            assert!(indices.insert(phase.index()), "{label} shares a slot");
        }
    }
}
