//! Fault-injection hooks for the simulation engine.
//!
//! The engine consults an installed [`FaultInjector`] at the few points
//! where an adversary could plausibly perturb a real deployment: power
//! failures at arbitrary phase alignment, checkpoint corruption on
//! restore, ADC misreads on the `P_in` sense path, clock jitter on task
//! latencies, input-burst anomalies at capture boundaries, and uplink
//! jamming at transmit attempts. Every hook is *pull-based*: with no
//! injector installed (the default) the engine takes the exact same
//! branch structure and draws no extra randomness, so fault-free runs
//! are bit-identical to builds that never heard of this module.
//!
//! An injector may also promise a *quiet horizon*
//! ([`FaultInjector::quiet_ticks`]): upcoming ticks on which its
//! per-tick hooks provably fire nothing. The fast-forward engine then
//! advances those ticks in bulk and hands the injector one
//! [`QuietSpan`] summary ([`FaultInjector::skip`]) instead of a call
//! per tick — with state afterwards identical to per-tick stepping.
//!
//! Concrete adversaries live in the `qz-fault` crate; this module only
//! defines the trait and the per-tick context the engine exposes, so
//! `qz-sim` stays dependency-free.

use qz_types::{Joules, SimDuration, SimTime, Watts};

/// Opaque serialized state of a [`FaultInjector`], captured by
/// [`FaultInjector::save_state`]: a flat vector of words whose layout
/// is private to the implementing injector (RNG stream states packed
/// alongside bit patterns of accumulated statistics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectorState {
    /// Implementation-defined state words.
    pub words: Vec<u64>,
}

/// What the device was doing when a fault hook fired — the "phase
/// alignment" an adversarial schedule targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPhase {
    /// No job active (sleeping between inputs).
    Idle,
    /// Paying the scheduler/degradation-engine overhead.
    Overhead,
    /// Executing the task at `index`, `progress` fraction complete
    /// (0 = just started, 1 = about to finish).
    Task {
        /// Task index within the active job.
        index: usize,
        /// Fraction of the task's latency already executed.
        progress: f64,
    },
    /// Waiting out an uplink backoff (radio asleep, slot held).
    TxWait,
    /// Powered off, recharging.
    Off,
}

/// Snapshot of engine state passed to fault hooks each tick.
#[derive(Debug, Clone, Copy)]
pub struct FaultContext {
    /// Current simulation time.
    pub now: SimTime,
    /// What the device is executing right now.
    pub phase: FaultPhase,
    /// Usable stored energy (relative to the turn-off threshold).
    pub stored: Joules,
    /// The checkpoint reserve the engine protects.
    pub reserve: Joules,
    /// Buffer occupancy (queued + in flight).
    pub occupancy: u32,
    /// Buffer capacity.
    pub capacity: u32,
    /// `true` while a transmit task is active or parked in backoff —
    /// the mid-radio-grant window.
    pub transmitting: bool,
    /// `true` if a checkpoint completed within the last tick — the
    /// mid-checkpoint window.
    pub just_checkpointed: bool,
}

/// Fraction of a task's latency already executed, from its remaining
/// and full countdowns — the `progress` of [`FaultPhase::Task`]. A
/// zero-length task reports 0.
pub fn task_progress(remaining: SimDuration, full: SimDuration) -> f64 {
    let full = full.as_millis();
    if full == 0 {
        0.0
    } else {
        1.0 - remaining.as_millis() as f64 / full as f64
    }
}

/// A run of consecutive ticks the fast-forward engine advanced in bulk
/// inside a horizon [`FaultInjector::quiet_ticks`] promised, summarized
/// for [`FaultInjector::skip`] with everything the per-tick hooks would
/// have observed.
///
/// Within a span nothing but energy flow and time accounting happens:
/// the device stays on (or off) at every tick's hook, the job keeps its
/// phase, and the job countdown drops one millisecond per powered-on
/// tick. A checkpoint completes inside a tick, so `just_checkpointed`
/// can hold on the first tick only. A tick's hooks see the stored
/// energy *after* that tick's energy step (the step clamps it at zero,
/// so it is never negative).
#[derive(Debug, Clone, Copy)]
pub struct QuietSpan {
    /// The context the hooks would see on the span's first tick,
    /// `stored` included.
    pub first: FaultContext,
    /// Ticks in the span.
    pub ticks: u64,
    /// Ticks with the device on — each of them would have consulted
    /// [`FaultInjector::force_power_failure`] once.
    pub on_ticks: u64,
    /// The exact minimum of the stored energy the hooks would have seen
    /// across the span.
    pub min_stored: Joules,
    /// The active job's `(remaining, full latency)` countdown at the
    /// first tick; `None` without a job. [`task_progress`] of the
    /// countdown gives each tick's task progress.
    pub countdown: Option<(SimDuration, SimDuration)>,
}

/// A seeded adversary the engine consults while stepping.
///
/// Every method has a no-op default so implementations opt into only
/// the fault classes they model. Implementations must be deterministic
/// given their seed: the engine calls hooks in a fixed order at fixed
/// points, so a faulted run is exactly reproducible.
pub trait FaultInjector: core::fmt::Debug + Send {
    /// Called for every tick before any fault decision, with the
    /// current context — one call per tick, except for ticks the engine
    /// skipped inside a quiet horizon, which reach the injector through
    /// [`FaultInjector::skip`] instead. Use it to track state (e.g.
    /// minimum observed energy).
    fn on_tick(&mut self, _ctx: &FaultContext) {}

    /// Force an immediate power failure this tick (only consulted while
    /// the device is on). The engine drains stored energy down to the
    /// checkpoint reserve and runs the normal failure path.
    fn force_power_failure(&mut self, _ctx: &FaultContext) -> bool {
        false
    }

    /// How many upcoming ticks, starting at `now`, provably fire
    /// nothing through [`FaultInjector::on_tick`] or
    /// [`FaultInjector::force_power_failure`] for a device that stays
    /// `on` (or off) throughout, scanning no further than `limit`.
    /// Read-only: the answer must not depend on, or change, anything a
    /// later [`FaultInjector::skip`] would not reproduce.
    ///
    /// The other hooks never fall inside such a horizon — ADC misreads
    /// happen on scheduler ticks, clock jitter and jams when a task
    /// starts, bursts on capture ticks and checkpoint corruption right
    /// after a restore, all of which end a fast-forward span — so only
    /// the per-tick pair needs this promise.
    ///
    /// The default, 0, keeps the engine consulting the injector on
    /// every tick.
    fn quiet_ticks(&self, _now: SimTime, _on: bool, _limit: u64) -> u64 {
        0
    }

    /// Applies a span of ticks the engine advanced in bulk within a
    /// horizon [`FaultInjector::quiet_ticks`] returned: the injector's
    /// state afterwards must equal what per-tick
    /// [`FaultInjector::on_tick`] and (while on)
    /// [`FaultInjector::force_power_failure`] calls would have left.
    /// Never called under the default `quiet_ticks`.
    fn skip(&mut self, _span: &QuietSpan) {}

    /// Corrupt the restored checkpoint right after a power-on (only
    /// consulted when a mid-task job was carried across the outage).
    /// The engine responds by replaying the task from the start.
    fn corrupt_checkpoint(&mut self, _ctx: &FaultContext) -> bool {
        false
    }

    /// Perturb the `P_in` reading the scheduler sees (the ADC on the
    /// ratio circuit). Return `Some(reading)` to substitute a value, or
    /// `None` to leave the true reading untouched.
    fn adc_misread(&mut self, _now: SimTime, _p_in: Watts) -> Option<Watts> {
        None
    }

    /// Scale the next task's latency (timer drift). Return
    /// `Some(factor)` to multiply the jittered latency, `None` for no
    /// drift. Factors are clamped to a sane floor by the engine.
    fn clock_jitter(&mut self, _now: SimTime) -> Option<f64> {
        None
    }

    /// Extra anomalous frames arriving at this capture boundary (an
    /// input burst). Each is treated as a changed-but-uninteresting
    /// frame: it pays the capture/diff/compress energy and contends for
    /// a buffer slot.
    fn extra_burst(&mut self, _now: SimTime) -> u32 {
        0
    }

    /// Jam the uplink at a transmit attempt: return `Some(wait)` to
    /// park the job in a backoff hold as if carrier sense failed,
    /// `None` to let the attempt proceed.
    fn jam_uplink(&mut self, _now: SimTime) -> Option<SimDuration> {
        None
    }

    /// Downcast support so harnesses can recover a concrete injector
    /// (and its accumulated statistics) after a run.
    fn as_any_mut(&mut self) -> Option<&mut dyn core::any::Any> {
        None
    }

    /// Captures the injector's evolving state (RNG streams, accumulated
    /// statistics) for a simulation snapshot. `None` (the default)
    /// means the injector does not support snapshotting, which makes
    /// [`Simulation::save_state`](crate::Simulation::save_state) fail
    /// while it is installed.
    fn save_state(&self) -> Option<InjectorState> {
        None
    }

    /// Restores state captured by [`FaultInjector::save_state`].
    ///
    /// # Errors
    ///
    /// The default implementation (paired with the default `save_state`)
    /// always errs: an injector that cannot capture state cannot resume
    /// from one either.
    fn restore_state(&mut self, _state: &InjectorState) -> Result<(), String> {
        Err(String::from(
            "this fault injector does not support snapshots",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default hooks must all be inert.
    #[derive(Debug)]
    struct Inert;
    impl FaultInjector for Inert {}

    #[test]
    fn default_hooks_do_nothing() {
        let mut f = Inert;
        let ctx = FaultContext {
            now: SimTime::ZERO,
            phase: FaultPhase::Idle,
            stored: Joules(0.01),
            reserve: Joules(0.001),
            occupancy: 0,
            capacity: 10,
            transmitting: false,
            just_checkpointed: false,
        };
        f.on_tick(&ctx);
        assert!(!f.force_power_failure(&ctx));
        assert_eq!(f.quiet_ticks(ctx.now, true, 100), 0);
        assert!(!f.corrupt_checkpoint(&ctx));
        assert!(f.adc_misread(ctx.now, Watts(0.01)).is_none());
        assert!(f.clock_jitter(ctx.now).is_none());
        assert_eq!(f.extra_burst(ctx.now), 0);
        assert!(f.jam_uplink(ctx.now).is_none());
        assert!(f.as_any_mut().is_none());
        assert!(f.save_state().is_none());
        assert!(f.restore_state(&InjectorState { words: vec![] }).is_err());
    }
}
