//! The diagnostics engine: stable codes, severities, spans, and a
//! [`Report`] that renders to text or JSON.
//!
//! Codes are stable across releases (`QZ001`, `QZ002`, …) so CI greps
//! and `--allow` lists do not break when messages are reworded. The
//! catalog lives in DESIGN.md ("Diagnostics catalog"); each code's
//! one-line summary here must stay in sync with it.

use qz_types::json::{WriteJson, Writer};
use std::fmt;

/// A stable diagnostic code.
///
/// Grouped by analysis family: `QZ00x` energy feasibility, `QZ01x`
/// queueing/Little's-Law, `QZ02x` degradation lattice, `QZ03x`
/// fixed-point and hardware-model ranges, `QZ04x` control and window
/// sanity, `QZ05x` fleet/shared-uplink feasibility, `QZ06x`
/// fault-campaign survivability, `QZ07x` simulation-performance
/// hygiene (fast-forward horizon collapse), `QZ08x` fleet-scale
/// resource preflight (per-gateway shard saturation, host memory).
/// Retired codes keep their numbers out of use (see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(clippy::doc_markdown)]
pub enum Code {
    /// Task atomic energy exceeds the per-charge storage budget under an
    /// atomic-replay checkpoint policy: the task can never complete.
    QZ001,
    /// Task energy exceeds the per-charge storage budget: at least one
    /// power failure per execution is guaranteed.
    QZ002,
    /// Sustained capture-path power exceeds the harvester ceiling.
    QZ003,
    /// Worst-case arrival rate times best-case (min-option, full-sun)
    /// service time is ≥ 1: overflow is unavoidable at any degradation
    /// level.
    QZ010,
    /// Full-quality utilization ≥ 1 at the worst-case arrival rate:
    /// Quetzal cannot prevent overflow at full quality, only degrade.
    QZ011,
    /// `capture_rate` disagrees with the device `capture_period`.
    QZ012,
    /// Buffer capacity is within one full-quality service interval of
    /// the worst-case arrival volume (no burst headroom).
    QZ013,
    /// Degradation options are not monotone: a lower-quality option
    /// costs more energy than a higher-quality sibling.
    QZ020,
    /// A degradation option is dominated (no faster and no cheaper than
    /// a higher-quality sibling).
    QZ021,
    /// Duplicate option name or identical option cost within one task.
    QZ022,
    /// No degradation freedom (job without a degradable task, or a
    /// degradable task with a single option).
    QZ023,
    /// `premultiply_t_exe` table saturates Q16.16.
    QZ030,
    /// Invalid numeric in a device/power config (non-finite, negative,
    /// zero capacity/period, inconsistent supercap window).
    QZ031,
    /// Suspicious zero/degenerate device entry (zero-cost capture-path
    /// stage, jitter ≥ 1).
    QZ032,
    /// A profiled execution power clips the ADC code range.
    QZ033,
    /// PID configuration that the controller constructor rejects.
    QZ040,
    /// PID gains outside the documented stability envelope.
    QZ041,
    /// Invalid estimator windows or capture rate (zero windows,
    /// non-finite rate, bad EWMA coefficient).
    QZ042,
    /// Estimator window far outside the useful range.
    QZ043,
    /// Aggregate fleet airtime demand saturates the shared channel:
    /// even if every device degrades to its cheapest report, N devices'
    /// worst-case offered load keeps the gateway busy ≥ 100% of the
    /// time (Little's Law at the channel — queues grow without bound).
    QZ050,
    /// A device's duty-cycle budget cannot drain its own worst-case
    /// report stream (per-window allowance below the offered airtime,
    /// or too small to fit even one cheapest report): transmit queues
    /// back up regardless of fleet size.
    QZ051,
    /// Degenerate retry/backoff parameters: the capped maximum backoff
    /// exceeds the duty window, so a deferred transmitter can sleep
    /// through entire replenished budgets.
    QZ052,
    /// Checkpoint/restore churn at the injected failure density exceeds
    /// the harvest ceiling: every joule harvested goes to checkpoint
    /// and restore overhead, so the device makes no net progress under
    /// the fault campaign.
    QZ060,
    /// The injected failure period is shorter than the time to recharge
    /// the checkpoint reserve plus restore cost: the device thrashes
    /// between failure and restore without running application code.
    QZ061,
    /// Expected replay work per injected failure meets or exceeds the
    /// failure period: interrupted tasks are re-executed forever and
    /// never complete (fault-induced livelock).
    QZ062,
    /// The capture period is so short that a capture boundary lands on
    /// (almost) every tick: the fast-forward engine's event horizon
    /// collapses and the simulation degenerates to per-tick stepping.
    QZ070,
    /// The most-loaded gateway shard's aggregate airtime demand
    /// saturates that gateway's channel: even fully degraded, its
    /// member devices offer ≥ 100% of one gateway's capacity, so the
    /// shard's queue grows without bound (QZ050 applied per shard).
    QZ080,
    /// The fleet's resident working set (per-device simulator state
    /// times device count) exceeds the assumed host memory budget;
    /// the run risks swapping or being OOM-killed mid-simulation.
    QZ081,
}

impl Code {
    /// Every code, in catalog order.
    pub const ALL: [Code; 28] = [
        Code::QZ001,
        Code::QZ002,
        Code::QZ003,
        Code::QZ010,
        Code::QZ011,
        Code::QZ012,
        Code::QZ013,
        Code::QZ020,
        Code::QZ021,
        Code::QZ022,
        Code::QZ023,
        Code::QZ030,
        Code::QZ031,
        Code::QZ032,
        Code::QZ033,
        Code::QZ040,
        Code::QZ041,
        Code::QZ042,
        Code::QZ043,
        Code::QZ050,
        Code::QZ051,
        Code::QZ052,
        Code::QZ060,
        Code::QZ061,
        Code::QZ062,
        Code::QZ070,
        Code::QZ080,
        Code::QZ081,
    ];

    /// The stable string form, e.g. `"QZ001"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::QZ001 => "QZ001",
            Code::QZ002 => "QZ002",
            Code::QZ003 => "QZ003",
            Code::QZ010 => "QZ010",
            Code::QZ011 => "QZ011",
            Code::QZ012 => "QZ012",
            Code::QZ013 => "QZ013",
            Code::QZ020 => "QZ020",
            Code::QZ021 => "QZ021",
            Code::QZ022 => "QZ022",
            Code::QZ023 => "QZ023",
            Code::QZ030 => "QZ030",
            Code::QZ031 => "QZ031",
            Code::QZ032 => "QZ032",
            Code::QZ033 => "QZ033",
            Code::QZ040 => "QZ040",
            Code::QZ041 => "QZ041",
            Code::QZ042 => "QZ042",
            Code::QZ043 => "QZ043",
            Code::QZ050 => "QZ050",
            Code::QZ051 => "QZ051",
            Code::QZ052 => "QZ052",
            Code::QZ060 => "QZ060",
            Code::QZ061 => "QZ061",
            Code::QZ062 => "QZ062",
            Code::QZ070 => "QZ070",
            Code::QZ080 => "QZ080",
            Code::QZ081 => "QZ081",
        }
    }

    /// One-line catalog summary (mirrors DESIGN.md).
    pub fn summary(self) -> &'static str {
        match self {
            Code::QZ001 => {
                "task can never complete on this storage (atomic replay outruns harvest)"
            }
            Code::QZ002 => "task cannot complete on stored energy alone",
            Code::QZ003 => "capture path outruns the harvester ceiling",
            Code::QZ010 => "overflow unavoidable at any degradation level (λ·S_min ≥ 1)",
            Code::QZ011 => "full quality unsustainable; Quetzal can only degrade (λ·S_full ≥ 1)",
            Code::QZ012 => "capture_rate disagrees with capture_period",
            Code::QZ013 => "no burst headroom in the input buffer",
            Code::QZ020 => "non-monotone degradation lattice (energy inversion)",
            Code::QZ021 => "dominated degradation option",
            Code::QZ022 => "two options with bit-identical costs (unreachable twin)",
            Code::QZ023 => "no degradation freedom",
            Code::QZ030 => "premultiply_t_exe table saturates Q16.16",
            Code::QZ031 => "invalid numeric in device/power config",
            Code::QZ032 => "degenerate device entry",
            Code::QZ033 => "profiled power clips the ADC code range",
            Code::QZ040 => "PID config rejected by the controller constructor",
            Code::QZ041 => "PID outside the documented stability envelope",
            Code::QZ042 => "invalid estimator windows or capture rate",
            Code::QZ043 => "estimator window far outside the useful range",
            Code::QZ050 => "fleet airtime demand saturates the shared channel (N·λ·airtime ≥ 1)",
            Code::QZ051 => "duty-cycle budget cannot drain the device's own report stream",
            Code::QZ052 => "maximum backoff outsleeps the duty window",
            Code::QZ060 => "checkpoint churn at the injected failure density outruns harvest",
            Code::QZ061 => "failure period shorter than reserve recharge + restore (thrash)",
            Code::QZ062 => "expected replay per failure ≥ failure period (livelock)",
            Code::QZ070 => "capture period collapses the fast-forward event horizon",
            Code::QZ080 => "most-loaded gateway shard saturates its channel (per-shard QZ050)",
            Code::QZ081 => "fleet working set exceeds the host memory budget",
        }
    }

    /// Parses the stable string form (case-insensitive).
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL
            .into_iter()
            .find(|c| c.as_str().eq_ignore_ascii_case(s))
    }

    /// The severity this code is normally emitted at (`qz check
    /// --explain`). A few codes escalate with context — QZ030/QZ033 are
    /// notes unless the hardware estimator is in use — so this is the
    /// catalog's label, not a guarantee.
    pub fn typical_severity(self) -> &'static str {
        match self {
            Code::QZ001
            | Code::QZ003
            | Code::QZ010
            | Code::QZ031
            | Code::QZ040
            | Code::QZ042
            | Code::QZ050
            | Code::QZ060
            | Code::QZ080 => "error",
            Code::QZ002
            | Code::QZ011
            | Code::QZ012
            | Code::QZ020
            | Code::QZ021
            | Code::QZ022
            | Code::QZ032
            | Code::QZ041
            | Code::QZ043
            | Code::QZ051
            | Code::QZ052
            | Code::QZ061
            | Code::QZ062
            | Code::QZ070
            | Code::QZ081 => "warning",
            Code::QZ013 | Code::QZ023 => "note",
            Code::QZ030 | Code::QZ033 => "note (warning with the hardware estimator)",
        }
    }

    /// Why the condition matters — the failure it predicts (`qz check
    /// --explain`).
    pub fn rationale(self) -> &'static str {
        match self {
            Code::QZ001 => {
                "Under an atomic-replay checkpoint policy an interrupted task restarts from \
                 scratch, so one replay unit must fit in a single charge. When even the \
                 full-sun harvest deficit exceeds the per-charge budget, every power failure \
                 replays the unit forever — the classic intermittent-computing livelock. The \
                 verdict suffix comes from the qz-absint restart-thrash model."
            }
            Code::QZ002 => {
                "The task's energy exceeds what the capacitor alone can deliver, so it only \
                 completes while harvested power covers the shortfall; through low-harvest \
                 periods it replays indefinitely and throughput collapses."
            }
            Code::QZ003 => {
                "Capture + diff + compress run on every frame before any job is scheduled. \
                 If that sustained draw exceeds the harvester ceiling, the device loses \
                 energy even while doing nothing useful and eventually browns out."
            }
            Code::QZ010 => {
                "Little's Law: if worst-case arrivals times best-case (cheapest-option, \
                 full-sun) service is at least 1, Eq. 2 can never hold and the input buffer \
                 fills no matter what the scheduler decides. The verdict suffix comes from \
                 the qz-absint service-time bounds."
            }
            Code::QZ011 => {
                "Full quality is unsustainable at the worst-case arrival rate: the runtime \
                 can avoid overflow only by degrading, so sustained bursts force \
                 lower-quality output by construction."
            }
            Code::QZ012 => {
                "The runtime's arrival-rate floor and the device capture period are \
                 configured independently; when they disagree, the estimator's lower bound \
                 is systematically wrong and degradation decisions mistime."
            }
            Code::QZ013 => {
                "Stability is asymptotic. A buffer smaller than one full-quality service \
                 interval's worth of arrivals overflows on a single burst before the first \
                 scheduling decision can react."
            }
            Code::QZ020 => {
                "A lower-quality option that costs more energy than a higher-quality \
                 sibling inverts the degradation lattice: degrading makes things worse, and \
                 the controller's monotonicity assumption breaks."
            }
            Code::QZ021 => {
                "A dominated option is never the right choice — some higher-quality \
                 sibling is at least as fast and as cheap — so it only wastes a lattice \
                 level the controller could use."
            }
            Code::QZ022 => {
                "Two options with identical cost are indistinguishable to the scheduler; \
                 one of them is unreachable dead weight and usually indicates a \
                 copy-paste profiling error."
            }
            Code::QZ023 => {
                "A job with no degradable task (or a single-option task) gives the IBO \
                 engine no degradation freedom: under pressure it can only drop inputs \
                 instead of degrading them."
            }
            Code::QZ030 => {
                "The hardware estimator stores premultiplied t_exe tables in Q16.16; a \
                 saturated entry silently clamps, so the scheduler's service-time estimate \
                 is wrong for every input from then on."
            }
            Code::QZ031 => {
                "A non-finite, negative, or inconsistent device/power numeric makes every \
                 downstream energy computation meaningless; the simulator would run on \
                 garbage."
            }
            Code::QZ032 => {
                "A zero-cost capture stage or jitter at/above 1 is almost always a \
                 profiling omission; the simulation runs but models a device that cannot \
                 exist."
            }
            Code::QZ033 => {
                "The ADC power monitor clips at its code range; a profiled execution \
                 power outside it reads as the rail, so the hardware estimator \
                 mis-measures exactly the tasks that matter most."
            }
            Code::QZ040 => {
                "The PID constructor rejects these gains/limits at runtime; the \
                 simulation would panic at startup rather than control anything."
            }
            Code::QZ041 => {
                "Gains outside the documented stability envelope make the degradation \
                 controller oscillate or wind up, thrashing between quality levels \
                 instead of converging."
            }
            Code::QZ042 => {
                "Zero-length estimator windows, a non-finite capture rate, or a bad EWMA \
                 coefficient break the arrival/service estimators the whole scheduling \
                 test (Eq. 2) is built on."
            }
            Code::QZ043 => {
                "An estimator window far outside the useful range either averages away \
                 every transient (too long) or tracks noise (too short); decisions lag \
                 or jitter accordingly."
            }
            Code::QZ050 => {
                "Little's Law at the shared channel: N devices' worst-case offered \
                 airtime at or above capacity means the gateway queue grows without \
                 bound; backoff tuning only subtracts capacity from that best case."
            }
            Code::QZ051 => {
                "A device whose duty-cycle budget cannot carry even its own cheapest \
                 report stream backs up its transmit queue regardless of fleet size or \
                 channel state."
            }
            Code::QZ052 => {
                "When the capped maximum backoff exceeds the duty window, a deferred \
                 transmitter can sleep through entire replenished budgets it could have \
                 used, starving itself."
            }
            Code::QZ060 => {
                "At the injected failure density, checkpoint + restore churn alone \
                 consumes at least the harvest ceiling: every joule goes to overhead and \
                 the campaign measures nothing but thrash."
            }
            Code::QZ061 => {
                "A failure period shorter than reserve recharge + restore keeps the \
                 device cycling between failure and restore without ever reaching \
                 application code."
            }
            Code::QZ062 => {
                "If the expected replay work per injected failure meets the failure \
                 period, interrupted tasks are re-executed forever — fault-induced \
                 livelock; no forward progress is possible."
            }
            Code::QZ070 => {
                "The fast-forward engine skips quiescent ticks between events; a capture \
                 boundary on (almost) every tick collapses that horizon, and every \
                 collapsed tick runs the reference tick body — the per-tick speed of the \
                 tick engine. An installed fault injector does not collapse the horizon \
                 by itself: the engine skips the ticks its quiet horizon proves \
                 fault-free. A short capture period therefore costs real speed: the run \
                 steps tick by tick for as long as the period stays that short."
            }
            Code::QZ080 => {
                "Sharding splits the fleet across gateways, but Little's Law still holds \
                 at each gateway: if the most-loaded shard's members offer airtime at or \
                 above one channel's capacity, that shard's queue grows without bound no \
                 matter how idle the other gateways are."
            }
            Code::QZ081 => {
                "Each device in a fleet run holds a full simulator (environment trace, \
                 buffers, RNG streams) resident for the whole run. Past the host memory \
                 budget the run swaps or is OOM-killed mid-simulation, usually after \
                 burning most of its wall-clock."
            }
        }
    }

    /// How to make the diagnostic go away (`qz check --explain`).
    pub fn fix_hint(self) -> &'static str {
        match self {
            Code::QZ001 => {
                "Grow the capacitor, switch to just-in-time checkpointing, shorten the \
                 checkpoint interval, or split/cheapen the offending task so one replay \
                 unit fits the per-charge budget."
            }
            Code::QZ002 => {
                "Grow the capacitor or cheapen the task; if occasional replays through \
                 low-harvest periods are acceptable, allow the code with --allow QZ002."
            }
            Code::QZ003 => {
                "Lengthen capture_period, cheapen the capture/diff/compress stages, or \
                 add harvester cells until the sustained capture-path power fits under \
                 the ceiling."
            }
            Code::QZ010 => {
                "Lengthen the capture period, add a cheaper degradation option, or \
                 reduce per-job work until the cheapest-option utilization drops below \
                 1; `qz verify` runs the envelope-directed search."
            }
            Code::QZ011 => {
                "Accept degradation under load (the paper's design point), or speed up \
                 the full-quality pipeline until its utilization drops below 1."
            }
            Code::QZ012 => "Set runtime.capture_rate to 1 / device.capture_period.",
            Code::QZ013 => {
                "Grow device.buffer_capacity past one full-quality service interval of \
                 arrivals, or accept burst losses."
            }
            Code::QZ020 => {
                "Reorder or re-profile the options so energy decreases monotonically \
                 with quality level."
            }
            Code::QZ021 => "Delete the dominated option or re-profile it.",
            Code::QZ022 => "Delete or re-profile the duplicate option.",
            Code::QZ023 => {
                "Give the job a degradable task with at least two options, or accept \
                 drop-only behavior under pressure."
            }
            Code::QZ030 => {
                "Keep t_exe under the Q16.16 premultiply range (~9 h), or split the task."
            }
            Code::QZ031 => "Fix the named field to a finite, positive, consistent value.",
            Code::QZ032 => "Profile the zero/degenerate entry, or keep jitter in [0, 1).",
            Code::QZ033 => {
                "Re-range the ADC monitor or re-profile the task so its power sits \
                 inside the code range."
            }
            Code::QZ040 => "Use finite gains, a positive setpoint, and ordered output limits.",
            Code::QZ041 => "Pull the gains back inside the documented stability envelope.",
            Code::QZ042 => {
                "Use positive window lengths, a finite positive capture rate, and an \
                 EWMA coefficient in (0, 1]."
            }
            Code::QZ043 => "Bring the window back into the documented useful range.",
            Code::QZ050 => {
                "Shed devices, lengthen the report interval, or shrink report airtime \
                 until aggregate utilization is below 1."
            }
            Code::QZ051 => {
                "Raise the duty-cycle budget, lengthen the duty window, or cheapen the \
                 report until one fits the per-window allowance."
            }
            Code::QZ052 => "Lower backoff_max_exp or backoff_base so the cap fits the duty window.",
            Code::QZ060 => {
                "Lower the injected failure density or cheapen checkpoint/restore until \
                 churn fits under the harvest ceiling."
            }
            Code::QZ061 => "Lengthen the failure period past reserve recharge + restore.",
            Code::QZ062 => {
                "Lengthen the failure period or shrink the atomic replay unit \
                 (just-in-time or shorter periodic checkpoints)."
            }
            Code::QZ070 => {
                "Lengthen capture_period, or accept per-tick reference speed (no \
                 quiet-regime bulk skipping)."
            }
            Code::QZ080 => {
                "Add gateways (more shards), shed devices, lengthen the report interval, \
                 or shrink report airtime until the worst shard's utilization is below 1."
            }
            Code::QZ081 => {
                "Shed devices, split the run across hosts, or accept the risk with \
                 --allow QZ081 on a machine with more memory."
            }
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Diagnostic severity, ordered most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The configuration cannot work; entry points refuse to run it.
    Error,
    /// The configuration works but is degenerate or lossy by
    /// construction; fails under `--deny-warnings`.
    Warning,
    /// Informational; never affects exit status.
    Note,
}

impl Severity {
    /// Lower-case label used in rendered output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a diagnostic points: the offending task, job, option, and/or
/// config field. All parts are optional; an empty span means the
/// configuration as a whole.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Span {
    /// Offending task name.
    pub task: Option<String>,
    /// Offending job name.
    pub job: Option<String>,
    /// Offending degradation-option name.
    pub option: Option<String>,
    /// Offending config field, dotted (e.g. `device.capture_period`).
    pub field: Option<String>,
}

impl Span {
    /// A span naming a task.
    pub fn task(name: &str) -> Span {
        Span {
            task: Some(name.to_owned()),
            ..Span::default()
        }
    }

    /// A span naming a job.
    pub fn job(name: &str) -> Span {
        Span {
            job: Some(name.to_owned()),
            ..Span::default()
        }
    }

    /// A span naming a config field.
    pub fn field(path: &str) -> Span {
        Span {
            field: Some(path.to_owned()),
            ..Span::default()
        }
    }

    /// Adds an option name to the span.
    #[must_use]
    pub fn option(mut self, name: &str) -> Span {
        self.option = Some(name.to_owned());
        self
    }

    /// Adds a field path to the span.
    #[must_use]
    pub fn in_field(mut self, path: &str) -> Span {
        self.field = Some(path.to_owned());
        self
    }

    /// `true` if no part is set.
    pub fn is_empty(&self) -> bool {
        self.task.is_none() && self.job.is_none() && self.option.is_none() && self.field.is_none()
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("config");
        }
        let mut first = true;
        let mut part = |f: &mut fmt::Formatter<'_>, label: &str, value: &str| -> fmt::Result {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            write!(f, "{label} `{value}`")
        };
        if let Some(job) = &self.job {
            part(f, "job", job)?;
        }
        if let Some(task) = &self.task {
            part(f, "task", task)?;
        }
        if let Some(option) = &self.option {
            part(f, "option", option)?;
        }
        if let Some(field) = &self.field {
            part(f, "field", field)?;
        }
        Ok(())
    }
}

/// One finding: code, severity, span, and a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (possibly downgraded by [`Report::allow`]).
    pub severity: Severity,
    /// What it points at.
    pub span: Span,
    /// Full message with the concrete numbers.
    pub message: String,
    /// Which analysis paths produced this finding (e.g. `"sweep"`,
    /// `"preflight"`). Empty for a single-path report; populated by
    /// [`Report::merge_from`] so identical findings from multiple paths
    /// render once with every source listed instead of twice.
    pub sources: Vec<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}: {}",
            self.severity, self.code, self.span, self.message
        )?;
        if !self.sources.is_empty() {
            write!(f, " [{}]", self.sources.join("+"))?;
        }
        Ok(())
    }
}

/// The outcome of a checker run: every diagnostic, plus rendering and
/// policy helpers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Records a diagnostic.
    pub fn push(&mut self, code: Code, severity: Severity, span: Span, message: String) {
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            span,
            message,
            sources: Vec::new(),
        });
    }

    /// Tags every diagnostic in this report with an analysis-path
    /// source (no-op on diagnostics already carrying it). Call before
    /// [`Report::merge_from`] so the combined report names every path.
    pub fn tag_source(&mut self, source: &str) {
        for d in &mut self.diagnostics {
            if !d.sources.iter().any(|s| s == source) {
                d.sources.push(source.to_owned());
            }
        }
    }

    /// Absorbs another report produced by a different analysis path,
    /// deduplicating: an incoming diagnostic identical in (code,
    /// severity, span, message) to one already present only adds
    /// `source` to the existing entry's `sources` instead of rendering
    /// twice. Distinct findings are appended, tagged with `source`.
    /// Call [`Report::sort`] afterwards for stable ordering.
    pub fn merge_from(&mut self, source: &str, other: Report) {
        for mut incoming in other.diagnostics {
            if !incoming.sources.iter().any(|s| s == source) {
                incoming.sources.push(source.to_owned());
            }
            if let Some(existing) = self.diagnostics.iter_mut().find(|d| {
                d.code == incoming.code
                    && d.severity == incoming.severity
                    && d.span == incoming.span
                    && d.message == incoming.message
            }) {
                for s in incoming.sources {
                    if !existing.sources.contains(&s) {
                        existing.sources.push(s);
                    }
                }
            } else {
                self.diagnostics.push(incoming);
            }
        }
    }

    /// All diagnostics, most severe first (after [`Report::sort`]).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Stable ordering: severity, then code, then span.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (a.severity, a.code)
                .cmp(&(b.severity, b.code))
                .then_with(|| format!("{}", a.span).cmp(&format!("{}", b.span)))
        });
    }

    /// Downgrades every diagnostic with a listed code to a note, so
    /// documented-intentional warnings pass `--deny-warnings`.
    pub fn allow(&mut self, codes: &[Code]) {
        for d in &mut self.diagnostics {
            if codes.contains(&d.code) && d.severity != Severity::Error {
                d.severity = Severity::Note;
            }
        }
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Number of errors.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warnings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of notes.
    pub fn notes(&self) -> usize {
        self.count(Severity::Note)
    }

    /// `true` if any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }

    /// `true` if nothing was found at all.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether this report should fail an entry point.
    pub fn fails(&self, deny_warnings: bool) -> bool {
        self.has_errors() || (deny_warnings && self.warnings() > 0)
    }

    /// Renders the report as human-readable text, one diagnostic per
    /// line plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} note(s)\n",
            self.errors(),
            self.warnings(),
            self.notes()
        ));
        out
    }
}

/// The report as one JSON object: the diagnostics in order, then the
/// error, warning and note counts.
impl WriteJson for Report {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.obj(|w| {
            w.field("tool", "qz-check").key("diagnostics").arr(|w| {
                for d in &self.diagnostics {
                    w.obj(|w| {
                        w.field("code", d.code.as_str())
                            .field("severity", d.severity.as_str())
                            .key("span")
                            .obj(|w| {
                                for (key, value) in [
                                    ("job", &d.span.job),
                                    ("task", &d.span.task),
                                    ("option", &d.span.option),
                                    ("field", &d.span.field),
                                ] {
                                    if let Some(value) = value {
                                        w.field(key, value);
                                    }
                                }
                            })
                            .field("message", &d.message)
                            .key("sources")
                            .items(&d.sources);
                    });
                }
            });
            w.field("errors", self.errors())
                .field("warnings", self.warnings())
                .field("notes", self.notes());
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_through_parse() {
        for code in Code::ALL {
            assert_eq!(Code::parse(code.as_str()), Some(code));
            assert_eq!(Code::parse(&code.as_str().to_lowercase()), Some(code));
        }
        assert_eq!(Code::parse("QZ999"), None);
    }

    #[test]
    fn span_renders_parts_in_order() {
        let span = Span::job("detect").in_field("runtime.pid");
        assert_eq!(span.to_string(), "job `detect`, field `runtime.pid`");
        assert_eq!(Span::default().to_string(), "config");
        assert_eq!(
            Span::task("ml").option("low").to_string(),
            "task `ml`, option `low`"
        );
    }

    #[test]
    fn report_counts_and_failure_policy() {
        let mut r = Report::new();
        r.push(Code::QZ011, Severity::Warning, Span::default(), "w".into());
        assert!(!r.fails(false));
        assert!(r.fails(true));
        r.push(Code::QZ001, Severity::Error, Span::task("t"), "e".into());
        assert!(r.fails(false));
        assert_eq!((r.errors(), r.warnings(), r.notes()), (1, 1, 0));
    }

    #[test]
    fn allow_downgrades_warnings_but_not_errors() {
        let mut r = Report::new();
        r.push(Code::QZ011, Severity::Warning, Span::default(), "w".into());
        r.push(Code::QZ001, Severity::Error, Span::default(), "e".into());
        r.allow(&[Code::QZ011, Code::QZ001]);
        assert_eq!(r.warnings(), 0);
        assert_eq!(r.notes(), 1);
        assert_eq!(r.errors(), 1, "errors are never downgraded");
        assert!(!r.fails(true) || r.has_errors());
    }

    #[test]
    fn sort_puts_errors_first() {
        let mut r = Report::new();
        r.push(Code::QZ043, Severity::Note, Span::default(), "n".into());
        r.push(Code::QZ011, Severity::Warning, Span::default(), "w".into());
        r.push(Code::QZ001, Severity::Error, Span::default(), "e".into());
        r.sort();
        let sevs: Vec<Severity> = r.diagnostics().iter().map(|d| d.severity).collect();
        assert_eq!(
            sevs,
            vec![Severity::Error, Severity::Warning, Severity::Note]
        );
    }

    #[test]
    fn json_escapes_and_shapes() {
        let mut r = Report::new();
        r.push(
            Code::QZ031,
            Severity::Error,
            Span::field("device.\"odd\""),
            "line1\nline2".into(),
        );
        let json = qz_types::json::to_string(&r);
        assert!(json.contains("\\\"odd\\\""));
        assert!(json.contains("line1\\nline2"));
        assert!(json.contains("\"errors\":1"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn explain_catalog_covers_every_code() {
        for code in Code::ALL {
            assert!(!code.summary().is_empty());
            assert!(!code.rationale().is_empty(), "{code} has no rationale");
            assert!(!code.fix_hint().is_empty(), "{code} has no fix hint");
            assert!(!code.typical_severity().is_empty());
        }
    }

    #[test]
    fn merge_from_dedupes_identical_findings_with_sources() {
        let mut sweep = Report::new();
        sweep.push(Code::QZ011, Severity::Warning, Span::default(), "w".into());
        sweep.tag_source("sweep");
        let mut preflight = Report::new();
        preflight.push(Code::QZ011, Severity::Warning, Span::default(), "w".into());
        preflight.push(Code::QZ013, Severity::Note, Span::default(), "n".into());
        sweep.merge_from("preflight", preflight);
        assert_eq!(sweep.diagnostics().len(), 2, "identical finding merged");
        let merged = &sweep.diagnostics()[0];
        assert_eq!(merged.sources, vec!["sweep", "preflight"]);
        assert_eq!(sweep.diagnostics()[1].sources, vec!["preflight"]);
        assert_eq!((sweep.errors(), sweep.warnings(), sweep.notes()), (0, 1, 1));
        // Re-merging the same path is idempotent.
        let mut again = Report::new();
        again.push(Code::QZ011, Severity::Warning, Span::default(), "w".into());
        sweep.merge_from("preflight", again);
        assert_eq!(sweep.diagnostics().len(), 2);
        assert_eq!(sweep.diagnostics()[0].sources, vec!["sweep", "preflight"]);
    }

    #[test]
    fn sources_render_in_text_and_json() {
        let mut r = Report::new();
        r.push(Code::QZ011, Severity::Warning, Span::default(), "w".into());
        r.tag_source("sweep");
        let text = r.render_text();
        assert!(text.contains("warning[QZ011]: config: w [sweep]"), "{text}");
        let json = qz_types::json::to_string(&r);
        assert!(json.contains("\"sources\":[\"sweep\"]"), "{json}");
        // Untagged diagnostics carry an empty array, not a missing key.
        let mut plain = Report::new();
        plain.push(Code::QZ013, Severity::Note, Span::default(), "n".into());
        assert!(qz_types::json::to_string(&plain).contains("\"sources\":[]"));
        assert!(
            plain.render_text().contains("note[QZ013]: config: n\n"),
            "no suffix when untagged"
        );
    }

    #[test]
    fn text_render_has_summary_line() {
        let mut r = Report::new();
        r.push(Code::QZ010, Severity::Error, Span::default(), "boom".into());
        let text = r.render_text();
        assert!(text.contains("error[QZ010]: config: boom"));
        assert!(text.ends_with("1 error(s), 0 warning(s), 0 note(s)\n"));
    }
}
