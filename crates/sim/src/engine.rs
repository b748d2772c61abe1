//! The simulation loop: a fixed-increment reference engine plus an
//! event-horizon fast-forward engine that advances provably quiescent
//! spans in bulk (see `DESIGN.md`, "Fast-forward engine").

use crate::buffer::{BufferEntry, InputBuffer, InputBufferState};
use crate::config::{EngineKind, SimConfig};
use crate::fault::{
    task_progress, FaultContext, FaultInjector, FaultPhase, InjectorState, QuietSpan,
};
use crate::intermittent::{CheckpointPolicy, ProgressKeeper, ProgressKeeperState};
use crate::metrics::Metrics;
use crate::pipeline::{PipelineError, PipelineSpec, Route, TaskBehavior};
use crate::uplink::{TxDecision, TxRecord, UplinkPort, UplinkState};
use core::fmt;
use quetzal::model::{JobId, TaskCost, TaskId, TaskKey};
use quetzal::runtime::{BufferView, RuntimeState};
use quetzal::Quetzal;
use qz_energy::{PowerSystem, PowerSystemState, StopCondition};
use qz_obs::{EventKind, Observer, Snapshot};
use qz_prof::{HorizonCause, HorizonStats, Phase, PhaseProfiler};
use qz_traces::{SensingEnvironment, SolarCursor};
use qz_types::{Joules, Seconds, SimDuration, SimTime, SplitMix64, Watts};

/// Errors from assembling a [`Simulation`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The behaviour/route binding did not match the runtime's spec.
    Pipeline(PipelineError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Pipeline(e) => write!(f, "invalid pipeline: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Pipeline(e) => Some(e),
        }
    }
}

impl From<PipelineError> for SimError {
    fn from(e: PipelineError) -> SimError {
        SimError::Pipeline(e)
    }
}

/// Cadence of the periodic device-state sample, emitted to an installed
/// observer as a `Snapshot` event (telemetry is one such observer).
const SAMPLE_PERIOD: SimDuration = SimDuration(1000);

/// On/off state of the intermittently powered device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeviceState {
    On,
    Off,
}

/// Phase of an executing job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobPhase {
    /// Scheduler/degradation-engine overhead before the first task.
    Overhead,
    /// Executing the task at this index.
    Task(usize),
}

#[derive(Debug, Clone)]
struct ActiveJob {
    job: JobId,
    option: u8,
    entry: BufferEntry,
    phase: JobPhase,
    remaining: SimDuration,
    /// The current task's full (jittered) latency, for replay policies.
    full_latency: SimDuration,
    /// Recoverable-progress bookkeeping for the checkpoint policy.
    keeper: ProgressKeeper,
    executed: Vec<(TaskId, bool)>,
    started_at: SimTime,
    task_started_at: SimTime,
    /// Waiting out an uplink backoff/duty deferral before the task at
    /// `phase` may (re-)attempt to transmit. The radio sleeps while
    /// waiting, so the job draws sleep power, not task power.
    tx_wait: bool,
}

/// One simulated device run: environment + power system + runtime +
/// application pipeline.
///
/// # Examples
///
/// See the crate-level docs and the `quickstart` example; assembling a
/// simulation requires an [`AppSpec`](quetzal::model::AppSpec)-backed
/// runtime and a matching behaviour binding.
#[derive(Debug)]
pub struct Simulation<'a> {
    cfg: SimConfig,
    env: &'a SensingEnvironment,
    /// Reader of `env`'s solar trace, caching the constant-irradiance
    /// run around `now`. A cache of `now`, not state: snapshots leave it
    /// out and a restored simulation re-reads the trace where it lands.
    solar: SolarCursor<'a>,
    runtime: Quetzal,
    pipeline: PipelineSpec,
    power: PowerSystem,
    buffer: InputBuffer,
    state: DeviceState,
    job: Option<ActiveJob>,
    now: SimTime,
    events_end: SimTime,
    horizon: SimTime,
    metrics: Metrics,
    rng: SplitMix64,
    /// Gate onto a shared uplink channel; `None` (the default) leaves
    /// radio tasks completely ungated.
    uplink: Option<UplinkPort>,
    /// When the device last powered down (for `Restore` off-time events).
    off_since: Option<SimTime>,
    /// Seeded adversary consulted while stepping; `None` (the default)
    /// leaves the engine's behaviour bit-identical to a fault-free build.
    fault: Option<Box<dyn FaultInjector>>,
    /// When a checkpoint last completed (for the mid-checkpoint fault
    /// window).
    last_checkpoint_at: Option<SimTime>,
    done: bool,
    /// Scratch buffer for `try_schedule`'s per-tick runnable list, reused
    /// across invocations so the hot path does not allocate.
    scratch_runnable: Vec<(JobId, Option<Seconds>)>,
    /// Recycled allocation for the next `ActiveJob::executed` list.
    spare_executed: Vec<(TaskId, bool)>,
    /// Wall-clock phase profiler; disabled (zero-storage) by default.
    /// Time flows *out* of the engine only — enabling it changes no
    /// simulated observable (pinned by the `profiler_invisibility`
    /// differential suite).
    prof: PhaseProfiler,
    /// Deterministic fast-forward horizon accounting: which bound won
    /// each quiescent span and which causes forced reference ticks.
    /// Counted in sim state (never wall-clock), kept outside `Metrics`
    /// so every byte-equality contract on `Metrics` is untouched. Exact
    /// counters only, always on; the span-length distributions are
    /// profiling data and live in `prof`.
    horizon_stats: HorizonStats,
}

/// Serializable state of the executing job, captured inside
/// [`SimState`]. Job and task identities are stored as spec indices so
/// the state can be rebuilt against any runtime sharing the same
/// [`AppSpec`](quetzal::model::AppSpec).
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveJobState {
    /// Spec index of the executing job.
    pub job: usize,
    /// Degradation option the job was scheduled at.
    pub option: usize,
    /// The buffered input being processed.
    pub entry: BufferEntry,
    /// Executing task index; `None` while paying scheduler overhead.
    pub task_index: Option<usize>,
    /// Remaining latency of the current countdown.
    pub remaining: SimDuration,
    /// The current task's full (jittered) latency.
    pub full_latency: SimDuration,
    /// Checkpoint-progress bookkeeping.
    pub keeper: ProgressKeeperState,
    /// Executed flag per task of the job, in spec order.
    pub executed: Vec<bool>,
    /// When the job started.
    pub started_at: SimTime,
    /// When the current task started.
    pub task_started_at: SimTime,
    /// Waiting out an uplink backoff/duty deferral.
    pub tx_wait: bool,
}

/// A bit-exact snapshot of everything a [`Simulation`] evolves while
/// stepping: capacitor and energy totals, the runtime's learned state,
/// buffer contents, the active job, RNG streams, metrics, uplink and
/// fault-injector streams, and the engine cursor.
///
/// Configuration (device costs, environment, engine kind, spec) is
/// deliberately *not* captured: [`Simulation::restore_state`] targets a
/// simulation freshly built from the same configuration, and
/// `save → restore → resume` is then byte-identical to stepping
/// straight through — on both engines. Observers (event logs,
/// telemetry) and wall-clock observability (profiler, horizon stats)
/// are excluded: they watch the run, they are not part of its state, so
/// a restored run's observer sees the events from the cut onwards.
#[derive(Debug, Clone, PartialEq)]
pub struct SimState {
    /// Engine cursor: current simulation time.
    pub now: SimTime,
    /// `true` if the device was powered on.
    pub on: bool,
    /// Capacitor charge and cumulative energy totals.
    pub power: PowerSystemState,
    /// The runtime's learned state (windows, PID, estimators, RNG-free).
    pub runtime: RuntimeState,
    /// Input-buffer contents.
    pub buffer: InputBufferState,
    /// The executing job, if any.
    pub job: Option<ActiveJobState>,
    /// Raw state word of the engine's jitter/classification stream.
    pub rng: u64,
    /// Metrics accumulated so far.
    pub metrics: Metrics,
    /// Uplink-gate state (`None` without an installed port).
    pub uplink: Option<UplinkState>,
    /// Fault-injector state (`None` without an installed injector).
    pub injector: Option<InjectorState>,
    /// When the device last powered down.
    pub off_since: Option<SimTime>,
    /// When a checkpoint last completed.
    pub last_checkpoint_at: Option<SimTime>,
    /// Whether the run had already finished.
    pub done: bool,
}

impl SimState {
    /// Equality over every field except the fault-injector words —
    /// the comparison failure bisection uses to find where a faulted
    /// run's *device* state first diverges from its fault-free twin
    /// (their injector states differ by construction).
    pub fn eq_ignoring_injector(&self, other: &SimState) -> bool {
        self.now == other.now
            && self.on == other.on
            && self.power == other.power
            && self.runtime == other.runtime
            && self.buffer == other.buffer
            && self.job == other.job
            && self.rng == other.rng
            && self.metrics == other.metrics
            && self.uplink == other.uplink
            && self.off_since == other.off_since
            && self.last_checkpoint_at == other.last_checkpoint_at
            && self.done == other.done
    }
}

impl<'a> Simulation<'a> {
    /// Assembles a simulation.
    ///
    /// `behaviors` (one per task, in task order), `routes` (one per job,
    /// in job order) and `entry_job` bind the runtime's spec to simulated
    /// application behaviour.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Pipeline`] if the binding does not match the
    /// runtime's spec.
    pub fn new(
        cfg: SimConfig,
        env: &'a SensingEnvironment,
        runtime: Quetzal,
        entry_job: JobId,
        behaviors: Vec<TaskBehavior>,
        routes: Vec<Route>,
    ) -> Result<Simulation<'a>, SimError> {
        let pipeline = PipelineSpec::new(runtime.spec(), entry_job, behaviors, routes)?;
        let power = PowerSystem::new(cfg.power.supercap(), cfg.power.harvester());
        let buffer = InputBuffer::new(runtime.spec().jobs().len(), cfg.device.buffer_capacity);
        let events_end = env.events().end();
        let horizon = events_end + cfg.drain;
        let rng = SplitMix64::new(cfg.seed);
        Ok(Simulation {
            cfg,
            env,
            solar: SolarCursor::new(env.solar()),
            runtime,
            pipeline,
            power,
            buffer,
            state: DeviceState::On,
            job: None,
            now: SimTime::ZERO,
            events_end,
            horizon,
            metrics: Metrics::default(),
            rng,
            uplink: None,
            off_since: None,
            fault: None,
            last_checkpoint_at: None,
            done: false,
            scratch_runnable: Vec::new(),
            spare_executed: Vec::new(),
            prof: PhaseProfiler::disabled(),
            horizon_stats: HorizonStats::new(),
        })
    }

    /// Current simulation time.
    pub fn time(&self) -> SimTime {
        self.now
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The runtime under simulation.
    pub fn runtime(&self) -> &Quetzal {
        &self.runtime
    }

    /// Buffer occupancy right now (queued + in flight) — diagnostic.
    pub fn occupancy(&self) -> usize {
        self.buffer.occupancy() as usize
    }

    /// Stored usable energy right now — diagnostic.
    pub fn stored_energy(&self) -> qz_types::Joules {
        self.power.capacitor().energy()
    }

    /// The degradation option of the currently executing job, if any —
    /// diagnostic.
    pub fn active_option(&self) -> Option<usize> {
        self.job.as_ref().map(|j| usize::from(j.option))
    }

    /// Installs a gate onto a shared uplink channel. From now on every
    /// `Transmit` task must pass duty-cycle and carrier-sense checks
    /// before executing; refused attempts wait and retry, holding their
    /// buffer slot (see [`crate::uplink`]).
    pub fn set_uplink(&mut self, port: UplinkPort) {
        self.uplink = Some(port);
    }

    /// The installed uplink gate, if any.
    pub fn uplink(&self) -> Option<&UplinkPort> {
        self.uplink.as_ref()
    }

    /// Installs a seeded fault injector. From now on the adversary is
    /// consulted for forced power failures, checkpoint corruption, ADC
    /// misreads, clock jitter, input bursts, and uplink jams — on every
    /// tick, or in bulk across the quiet horizons it promises (see
    /// [`crate::fault`]).
    pub fn set_fault_injector(&mut self, injector: Box<dyn FaultInjector>) {
        self.fault = Some(injector);
    }

    /// Removes the installed fault injector, returning it so harnesses
    /// can recover accumulated statistics.
    pub fn take_fault_injector(&mut self) -> Option<Box<dyn FaultInjector>> {
        self.fault.take()
    }

    /// Snapshot of the engine state the fault hooks see this tick.
    fn fault_context(&self, now: SimTime) -> FaultContext {
        let mut transmitting = false;
        let phase = match (&self.state, &self.job) {
            (DeviceState::Off, _) => FaultPhase::Off,
            (DeviceState::On, None) => FaultPhase::Idle,
            (DeviceState::On, Some(j)) if j.tx_wait => {
                transmitting = true;
                FaultPhase::TxWait
            }
            (DeviceState::On, Some(j)) => match j.phase {
                JobPhase::Overhead => FaultPhase::Overhead,
                JobPhase::Task(index) => {
                    let task = self.runtime.spec().job(j.job).tasks[index];
                    transmitting =
                        matches!(self.pipeline.behavior(task), TaskBehavior::Transmit(_));
                    FaultPhase::Task {
                        index,
                        progress: task_progress(j.remaining, j.full_latency),
                    }
                }
            },
        };
        let just_checkpointed = self
            .last_checkpoint_at
            .is_some_and(|at| now.since(at) <= SimDuration::TICK);
        FaultContext {
            now,
            phase,
            stored: self.power.capacitor().energy(),
            reserve: self.cfg.device.checkpoint_reserve(),
            occupancy: self.buffer.occupancy(),
            capacity: self.buffer.capacity(),
            transmitting,
            just_checkpointed,
        }
    }

    /// Sets the carrier-sense busy probability on the installed gate
    /// (no-op without one). The fleet coordinator calls this between
    /// epochs with the other devices' previous-epoch channel load.
    pub fn set_uplink_busy_probability(&mut self, p: f64) {
        if let Some(port) = self.uplink.as_mut() {
            port.set_busy_probability(p);
        }
    }

    /// Takes the transmissions granted since the last drain (empty
    /// without an uplink gate).
    pub fn drain_tx_log(&mut self) -> Vec<TxRecord> {
        self.uplink
            .as_mut()
            .map(UplinkPort::drain_log)
            .unwrap_or_default()
    }

    /// Whether the run has finished (same condition that makes
    /// [`step`](Simulation::step) return `false`).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// A conservative lower bound on the next instant this device could
    /// consult its uplink gate (a carrier sense), or `None` when it
    /// provably never senses again.
    ///
    /// The fleet event-horizon scheduler parks a device until this tick.
    /// Everything the device does before its next sense — capture
    /// boundaries, energy flow, job progress — is replayed exactly at
    /// wake by [`step_until`](Simulation::step_until), so the bound only
    /// has to protect the one interaction that reads fleet state: the
    /// carrier-sense `p_busy` probability and its dedicated RNG stream.
    /// Senses happen only when a transmit task starts, which gives the
    /// case analysis:
    ///
    /// - done, or no uplink gate installed: `None` (without a gate the
    ///   engine never senses, and there is nothing to coordinate);
    /// - a fault injector is installed: `Some(now)` — the adversary can
    ///   reshape progress arbitrarily, so never park;
    /// - a job is active (on or off, including a busy-backoff wait):
    ///   the countdown must reach zero first, so the first sense is no
    ///   earlier than `now + remaining − 1 ms`; power failures and
    ///   checkpoint rollbacks only push it later;
    /// - no job but a non-empty buffer: the scheduler may start a
    ///   transmit-bearing job on the very next tick — `Some(now)`;
    /// - idle (no job, empty buffer): the buffer can only refill at a
    ///   capture boundary that falls inside a sensing event, and a job
    ///   scheduled there starts with a scheduler-overhead phase, so no
    ///   sense happens before the first boundary `b ≥ now` with an
    ///   active event. When no such boundary remains the device drains
    ///   without ever sensing again: `None`.
    pub fn next_uplink_due(&self) -> Option<SimTime> {
        if self.done || self.uplink.is_none() {
            return None;
        }
        if self.fault.is_some() {
            return Some(self.now);
        }
        if let Some(job) = &self.job {
            let due = self.now.as_millis() + job.remaining.as_millis().saturating_sub(1);
            return Some(SimTime::from_millis(due));
        }
        if !self.buffer.is_idle() {
            return Some(self.now);
        }
        let period = self.cfg.device.capture_period;
        let events = self.env.events().events();
        let idx = events.partition_point(|e| e.end() <= self.now);
        for event in &events[idx..] {
            let boundary = self.now.max(event.start).next_multiple_of(period);
            if boundary < event.end() {
                return Some(boundary);
            }
        }
        None
    }

    /// Installs a decision-tracing observer on the runtime; the
    /// simulator routes its own transition events (power failures,
    /// restores, checkpoints, buffer admits/discards, job starts,
    /// periodic snapshots) through the same hook, so the sink sees one
    /// interleaved stream.
    pub fn set_observer(&mut self, observer: Box<dyn Observer>) {
        self.runtime.set_observer(observer);
    }

    /// Removes the installed observer (a disabled noop takes its
    /// place), returning it so sinks can be drained.
    pub fn take_observer(&mut self) -> Box<dyn Observer> {
        self.runtime.take_observer()
    }

    /// Turns on wall-clock phase profiling (see [`qz_prof`]). Profiling
    /// is a pure side channel: every simulated observable — metrics,
    /// telemetry, events, energy trajectory — stays byte-identical.
    pub fn enable_profiling(&mut self) {
        self.prof = PhaseProfiler::enabled();
    }

    /// The phase profiler's current aggregate.
    pub fn profiler(&self) -> &PhaseProfiler {
        &self.prof
    }

    /// Removes the profiler (a disabled one takes its place), returning
    /// it so harnesses can merge or render it after the run.
    pub fn take_profiler(&mut self) -> PhaseProfiler {
        std::mem::replace(&mut self.prof, PhaseProfiler::disabled())
    }

    /// Fast-forward horizon accounting so far: which bound won each
    /// quiescent span and which causes forced reference ticks. Empty
    /// under [`EngineKind::Tick`].
    pub fn horizon_stats(&self) -> &HorizonStats {
        &self.horizon_stats
    }

    /// Captures a bit-exact [`SimState`] snapshot of the run so far.
    ///
    /// # Errors
    ///
    /// Fails if an installed fault injector does not support
    /// snapshotting (its [`FaultInjector::save_state`] returns `None`).
    pub fn save_state(&mut self) -> Result<SimState, String> {
        let t0 = self.prof.begin();
        let injector = match self.fault.as_ref() {
            None => None,
            Some(f) => Some(f.save_state().ok_or_else(|| {
                String::from("installed fault injector does not support snapshots")
            })?),
        };
        let job = self.job.as_ref().map(|j| ActiveJobState {
            job: j.job.index(),
            option: usize::from(j.option),
            entry: j.entry,
            task_index: match j.phase {
                JobPhase::Overhead => None,
                JobPhase::Task(i) => Some(i),
            },
            remaining: j.remaining,
            full_latency: j.full_latency,
            keeper: j.keeper.save_state(),
            executed: j.executed.iter().map(|&(_, ran)| ran).collect(),
            started_at: j.started_at,
            task_started_at: j.task_started_at,
            tx_wait: j.tx_wait,
        });
        let state = SimState {
            now: self.now,
            on: self.state == DeviceState::On,
            power: self.power.save_state(),
            runtime: self.runtime.save_state(),
            buffer: self.buffer.save_state(),
            job,
            rng: self.rng.state(),
            metrics: self.metrics.clone(),
            uplink: self.uplink.as_ref().map(UplinkPort::save_state),
            injector,
            off_since: self.off_since,
            last_checkpoint_at: self.last_checkpoint_at,
            done: self.done,
        };
        self.prof.end(Phase::SnapSave, t0);
        Ok(state)
    }

    /// Restores a snapshot captured by [`Simulation::save_state`] into
    /// a simulation freshly built from the same configuration (same
    /// spec, device costs, environment, engines, seeds, and the same
    /// uplink/fault installations). After a successful
    /// restore, stepping resumes byte-identically to the run the
    /// snapshot was taken from.
    ///
    /// # Errors
    ///
    /// Rejects snapshots whose shape does not match the live
    /// simulation: wrong queue/window/task counts, out-of-range job,
    /// task or degradation-option indices, an in-flight buffer count
    /// that disagrees with the active job, or an uplink/fault
    /// installation mismatch.
    /// The simulation state is unspecified after an error — rebuild it
    /// before further use.
    pub fn restore_state(&mut self, state: &SimState) -> Result<(), String> {
        let t0 = self.prof.begin();
        // Fallible shape-checked pieces first.
        self.buffer.restore_state(&state.buffer)?;
        self.runtime.restore_state(&state.runtime)?;
        // Only a started job holds an input in flight (`take` when it is
        // scheduled, `release`/`forward` when it completes).
        if state.buffer.in_flight != usize::from(state.job.is_some()) {
            return Err(format!(
                "buffer in-flight count {} does not match {} active job(s)",
                state.buffer.in_flight,
                usize::from(state.job.is_some())
            ));
        }
        self.job = match &state.job {
            None => None,
            Some(js) => {
                let job = self
                    .runtime
                    .spec()
                    .job_id(js.job)
                    .ok_or_else(|| format!("active-job index {} out of range", js.job))?;
                let spec = self.runtime.spec();
                let options = spec
                    .job(job)
                    .degradable_task()
                    .map_or(1, |task| spec.task(task).option_count());
                let Some(option) = u8::try_from(js.option)
                    .ok()
                    .filter(|&o| usize::from(o) < options)
                else {
                    return Err(format!(
                        "active-job option {} out of range ({options} option(s))",
                        js.option
                    ));
                };
                let tasks = &spec.job(job).tasks;
                if js.executed.len() != tasks.len() {
                    return Err(format!(
                        "active-job executed-flag count mismatch: snapshot {} vs spec {}",
                        js.executed.len(),
                        tasks.len()
                    ));
                }
                if let Some(i) = js.task_index {
                    if i >= tasks.len() {
                        return Err(format!("active-task index {i} out of range"));
                    }
                }
                let mut keeper = ProgressKeeper::default();
                keeper.restore_state(&js.keeper);
                Some(ActiveJob {
                    job,
                    option,
                    entry: js.entry,
                    phase: match js.task_index {
                        None => JobPhase::Overhead,
                        Some(i) => JobPhase::Task(i),
                    },
                    remaining: js.remaining,
                    full_latency: js.full_latency,
                    keeper,
                    executed: tasks
                        .iter()
                        .copied()
                        .zip(js.executed.iter().copied())
                        .collect(),
                    started_at: js.started_at,
                    task_started_at: js.task_started_at,
                    tx_wait: js.tx_wait,
                })
            }
        };
        match (self.uplink.as_mut(), &state.uplink) {
            (Some(port), Some(s)) => port.restore_state(s),
            (None, None) => {}
            _ => {
                return Err(String::from(
                    "uplink installation does not match the snapshot",
                ))
            }
        }
        match (self.fault.as_mut(), &state.injector) {
            (Some(f), Some(s)) => f.restore_state(s)?,
            (None, None) => {}
            _ => {
                return Err(String::from(
                    "fault-injector installation does not match the snapshot",
                ))
            }
        }
        // Infallible pieces last.
        self.power.restore_state(&state.power);
        self.rng = SplitMix64::from_state(state.rng);
        self.now = state.now;
        self.state = if state.on {
            DeviceState::On
        } else {
            DeviceState::Off
        };
        self.metrics = state.metrics.clone();
        self.off_since = state.off_since;
        self.last_checkpoint_at = state.last_checkpoint_at;
        self.done = state.done;
        self.prof.end(Phase::SnapRestore, t0);
        Ok(())
    }

    /// Runs to completion and returns the final metrics.
    pub fn run(mut self) -> Metrics {
        while self.step() {}
        self.metrics
    }

    /// Runs to completion and returns the metrics together with the
    /// observer installed via [`Simulation::set_observer`] (a disabled
    /// noop if none was installed).
    pub fn run_traced(mut self) -> (Metrics, Box<dyn Observer>) {
        while self.step() {}
        let observer = self.runtime.take_observer();
        (self.metrics, observer)
    }

    /// Advances the simulation. Under [`EngineKind::Tick`] this is
    /// exactly one 1 ms tick; under [`EngineKind::FastForward`] it is
    /// one tick *or* one bulk-advanced quiescent span — every observable
    /// (metrics, telemetry, observer events) is identical either way.
    /// Returns `false` once the simulation has finished (events over,
    /// work drained, or horizon reached).
    pub fn step(&mut self) -> bool {
        if self.done {
            return false;
        }
        self.step_at_most(u64::MAX)
    }

    /// Steps until `limit` (exclusive) or completion, whichever comes
    /// first; returns `false` once the simulation has finished.
    /// Fast-forward spans never cross `limit`, so external barriers
    /// (qz-fleet epoch boundaries) observe the same intermediate states
    /// the tick engine would expose.
    pub fn step_until(&mut self, limit: SimTime) -> bool {
        while !self.done && self.now < limit {
            self.step_at_most(limit.as_millis() - self.now.as_millis());
        }
        !self.done
    }

    /// One engine step of at most `max_ticks` (≥ 1) ticks: a quiescent
    /// span clamped to `max_ticks` when the horizon planner finds one,
    /// otherwise a single reference tick (a *busy* tick under
    /// fast-forward, attributed to the bound that forced it).
    fn step_at_most(&mut self, max_ticks: u64) -> bool {
        let phase = if self.cfg.engine == EngineKind::Tick {
            Phase::RefTick
        } else {
            let (raw, cause) = self.quiescent_span();
            let span = raw.min(max_ticks);
            if span > 0 {
                let t0 = self.prof.begin();
                // A threshold crossing can end the span early; the ticks
                // after it are planned (and counted) again.
                let ticks = self.advance_span(span);
                self.prof.end(Phase::SpanAdvance, t0);
                self.horizon_stats.record_span(cause, ticks);
                self.prof.record_span_length(cause, ticks);
                return !self.done;
            }
            self.horizon_stats.record_busy_tail(cause);
            Phase::BusyTail
        };
        let t0 = self.prof.begin();
        let alive = self.step_tick();
        self.prof.end(phase, t0);
        alive
    }

    /// How many ticks from `now` are provably *quiescent*: no capture
    /// boundary, state sample, scheduler invocation, job
    /// countdown expiry, due periodic checkpoint, fault, or termination
    /// check can fire inside the span — only energy flow and time
    /// accounting happen. Such ticks can be advanced in bulk by
    /// [`Simulation::advance_span`] with byte-identical observables.
    /// Returns 0 when the current tick must run the reference path.
    ///
    /// The returned [`HorizonCause`] names the bound that won the argmin
    /// (ties keep the earlier-checked bound), feeding the deterministic
    /// horizon accounting behind `qz profile`'s "why is this run slow"
    /// ranking.
    fn quiescent_span(&self) -> (u64, HorizonCause) {
        let on = self.state == DeviceState::On;
        // A powered-on idle device with queued inputs invokes the
        // scheduler — and its estimator/controller updates — every tick.
        if on && self.job.is_none() && !self.buffer.is_idle() {
            return (0, HorizonCause::BusyScheduler);
        }
        let t = self.now.as_millis();
        // The first tick that must run the reference path. Seeded with
        // the horizon's final tick (it fires the termination check) and
        // pulled closer by every other pending boundary; each strict
        // improvement also takes over the blame for the collapse.
        let mut next_event = self.horizon.as_millis().saturating_sub(1);
        let mut cause = HorizonCause::HorizonEnd;
        let pull = |next_event: &mut u64, cause: &mut HorizonCause, at: u64, c: HorizonCause| {
            if at < *next_event {
                *next_event = at;
                *cause = c;
            }
        };
        if self.job.is_none() && self.buffer.is_idle() {
            // Fully drained: the tick ending at `events_end` terminates.
            pull(
                &mut next_event,
                &mut cause,
                self.events_end.as_millis().saturating_sub(1),
                HorizonCause::EventsEnd,
            );
        }
        if self.now < self.events_end {
            let boundary = self.now.next_multiple_of(self.cfg.device.capture_period);
            if boundary < self.events_end {
                pull(
                    &mut next_event,
                    &mut cause,
                    boundary.as_millis(),
                    HorizonCause::CaptureBoundary,
                );
            }
        }
        if self.runtime.observing() {
            pull(
                &mut next_event,
                &mut cause,
                self.now.next_multiple_of(SAMPLE_PERIOD).as_millis(),
                HorizonCause::SnapshotDue,
            );
        }
        // Job countdowns only tick while the device is on; while off the
        // job is frozen and only the restore crossing (handled by the
        // bulk integrator's stop condition) can wake it.
        if on {
            if let Some(j) = &self.job {
                // The countdown (task, overhead, or tx backoff) reaches
                // zero — and runs its transition — on tick t + rem − 1.
                pull(
                    &mut next_event,
                    &mut cause,
                    t + j.remaining.as_millis().saturating_sub(1),
                    HorizonCause::JobCountdown,
                );
                if matches!(j.phase, JobPhase::Task(_)) {
                    if let Some(due) = j
                        .keeper
                        .ticks_until_periodic_due(self.cfg.device.checkpoint_policy)
                    {
                        pull(
                            &mut next_event,
                            &mut cause,
                            t + due,
                            HorizonCause::CheckpointDue,
                        );
                    }
                }
            }
        }
        let span = next_event.saturating_sub(t);
        // An installed adversary bounds the span last, by its quiet
        // horizon: the ticks on which its per-tick hooks provably fire
        // nothing. A tick where a fault could land — a candidate —
        // runs the reference path (see qz-check QZ070 for the analogous
        // config-induced collapses).
        if span > 0 {
            if let Some(f) = &self.fault {
                let quiet = f.quiet_ticks(self.now, on, span);
                if quiet < span {
                    return (quiet, HorizonCause::FaultCollapse);
                }
            }
        }
        (span, cause)
    }

    /// Advances `span` provably-quiescent ticks in bulk. Energy flows
    /// through [`PowerSystem::advance`] one constant-irradiance segment
    /// at a time (bit-identical arithmetic to per-tick stepping), while
    /// time accounting, buffer-occupancy integration, the job countdown,
    /// and the periodic-checkpoint clock advance arithmetically. An
    /// installed fault injector receives the span as one [`QuietSpan`].
    /// A capacitor threshold crossing inside the span runs the very same
    /// transition the reference loop would, on the same tick, and ends
    /// the span there. Returns the ticks actually advanced: `span`, or
    /// fewer when a crossing cut it short.
    fn advance_span(&mut self, span: u64) -> u64 {
        let start = self.now;
        let occupancy = u64::from(self.buffer.occupancy());
        let on = self.state == DeviceState::On;
        let (load, stop) = if on {
            (
                self.current_power(),
                StopCondition::Depleted(self.cfg.device.checkpoint_reserve()),
            )
        } else {
            (self.cfg.device.off_leakage, StopCondition::CanTurnOn)
        };
        // What the adversary's per-tick hooks would have observed. Its
        // `stored` (and the floor) fill in segment by segment below.
        let mut quiet = self.fault.as_ref().map(|_| QuietSpan {
            first: self.fault_context(self.now),
            ticks: 0,
            on_ticks: 0,
            min_stored: Joules(f64::INFINITY),
            countdown: self.job.as_ref().map(|j| (j.remaining, j.full_latency)),
        });
        let mut left = span;
        let mut crossing = None;
        while left > 0 && crossing.is_none() {
            let t = self.now;
            let (irr, segment) = self.solar.constant_until(t);
            let ticks = left.min(segment.max(1));
            let first_stored = quiet
                .is_some()
                .then(|| self.power.peek_step(irr, load, SimDuration::TICK));
            let out = self.power.advance_profiled(
                irr,
                load,
                SimDuration::TICK,
                ticks,
                stop,
                &mut self.metrics.energy_harvested,
                &mut self.metrics.energy_wasted,
                &mut self.prof,
            );
            if let (Some(q), Some(first_stored)) = (quiet.as_mut(), first_stored) {
                if q.ticks == 0 {
                    q.first.stored = first_stored;
                }
                // Constant irradiance and load make the per-tick energy
                // map monotone, so the segment's floor is its first or
                // its last post-step value (folded in tick order, as the
                // per-tick hooks would).
                for stored in [first_stored, self.power.capacitor().energy()] {
                    if stored < q.min_stored {
                        q.min_stored = stored;
                    }
                }
                q.ticks += out.ticks;
                if on {
                    q.on_ticks += out.ticks;
                }
            }
            if on {
                self.metrics.time_on += SimDuration::TICK * out.ticks;
            } else {
                self.metrics.time_off += SimDuration::TICK * out.ticks;
            }
            self.metrics.occupancy_ms += occupancy * out.ticks;
            // The crossing tick (if any) takes the failure/restore path
            // instead of progressing work, exactly like the reference
            // loop's tick for that instant.
            let progressed = if out.crossed {
                out.ticks - 1
            } else {
                out.ticks
            };
            if on && progressed > 0 {
                if let Some(j) = self.job.as_mut() {
                    j.remaining = j.remaining.saturating_sub(SimDuration::TICK * progressed);
                    if matches!(j.phase, JobPhase::Task(_)) {
                        j.keeper.advance(SimDuration::TICK * progressed);
                    }
                }
            }
            if out.crossed {
                crossing = Some(t + SimDuration::TICK * (out.ticks - 1));
            }
            self.now = t + SimDuration::TICK * out.ticks;
            left -= out.ticks;
        }
        // The hooks of every span tick, the crossing tick's included,
        // run before that tick's transition in the reference loop.
        if let (Some(f), Some(q)) = (self.fault.as_mut(), quiet) {
            f.skip(&q);
        }
        if let Some(t_cross) = crossing {
            // Events emitted by the transition must carry the crossing
            // tick's timestamp, and `on_power_failure` reads `self.now`
            // for `off_since`.
            self.now = t_cross;
            self.runtime.set_time_ms(t_cross.as_millis());
            if on {
                if self.power.capacitor().energy() <= self.cfg.device.checkpoint_reserve() {
                    self.on_power_failure();
                }
                // Otherwise the tick merely browned out above the
                // reserve: the reference loop neither fails nor
                // progresses it, so there is nothing more to do.
            } else {
                self.power.draw(self.cfg.device.restore_energy);
                self.metrics.restores += 1;
                self.state = DeviceState::On;
                if self.runtime.observing() {
                    let off_ms = self
                        .off_since
                        .take()
                        .map_or(0, |off| t_cross.since(off).as_millis());
                    self.runtime.emit_event(EventKind::Restore { off_ms });
                }
                self.off_since = None;
                self.maybe_corrupt_checkpoint(t_cross);
            }
            self.now = t_cross.tick();
        }
        // Quiescent ticks cannot terminate the run by construction, but
        // a crossing can cut the span short right at a boundary — run
        // the reference loop's termination check for the current tick.
        let drained = self.now >= self.events_end && self.job.is_none() && self.buffer.is_idle();
        if self.now >= self.horizon || drained {
            self.finalize();
        }
        self.now.since(start).as_millis()
    }

    /// Advances one 1 ms tick of the reference loop.
    fn step_tick(&mut self) -> bool {
        let t = self.now;
        let irr = self.solar.irradiance(t);
        // Stamp every event emitted this tick (runtime- and sim-side)
        // with the current device time.
        self.runtime.set_time_ms(t.as_millis());

        // 1. Periodic capture boundary (the camera only senses while the
        //    event period lasts; afterwards every frame would be empty).
        //    The capture path is a dedicated ultra-low-power subsystem
        //    (camera + diff + compress on a hardware timer, as in the
        //    paper's hardware experiment where frames are recorded at
        //    1 FPS regardless of the main pipeline's state), so it runs
        //    even while the main MCU recharges: its energy is drawn
        //    directly and it never occupies MCU time.
        if t < self.events_end && (t % self.cfg.device.capture_period).is_zero() {
            self.on_capture_boundary(t);
        }

        // 2. Load for this tick.
        let load = match self.state {
            DeviceState::Off => self.cfg.device.off_leakage,
            DeviceState::On => self.current_power(),
        };

        // 3. Energy flow.
        let out = self.power.step(irr, load, SimDuration::TICK);
        self.metrics.energy_harvested += out.harvested;
        self.metrics.energy_wasted += out.wasted;

        // 4. Time accounting.
        match self.state {
            DeviceState::On => self.metrics.time_on += SimDuration::TICK,
            DeviceState::Off => self.metrics.time_off += SimDuration::TICK,
        }
        self.metrics.occupancy_ms += u64::from(self.buffer.occupancy());

        // The periodic state sample, for an installed observer.
        if (t % SAMPLE_PERIOD).is_zero() && self.runtime.observing() {
            let t_obs = self.prof.begin();
            self.runtime.emit_event(EventKind::Snapshot(Snapshot {
                irradiance: irr,
                stored_j: self.power.capacitor().energy().value(),
                on: self.state == DeviceState::On,
                occupancy: self.buffer.occupancy(),
                lambda: self.runtime.lambda(),
                correction_s: self.runtime.correction().value(),
                active_option: self.job.as_ref().map(|j| j.option),
                ibo_discards: self.metrics.ibo_discards,
            }));
            self.prof.end(Phase::ObsEmit, t_obs);
        }

        // 4b. Fault hooks: let the adversary observe the tick and decide
        //     on a forced power failure before normal progress runs.
        let mut forced_failure = false;
        if self.fault.is_some() {
            // The context snapshot needs `&self`, so build it before
            // borrowing the injector mutably.
            let ctx = self.fault_context(t);
            if let Some(f) = self.fault.as_mut() {
                f.on_tick(&ctx);
                if self.state == DeviceState::On {
                    forced_failure = f.force_power_failure(&ctx);
                }
            }
        }

        // 5. Power-state transitions and work progress.
        if forced_failure {
            // Adversarial brownout: drain stored energy down to the
            // checkpoint reserve, then take the normal failure path so
            // checkpoint accounting matches a natural failure exactly.
            self.metrics.faults_power += 1;
            if self.runtime.observing() {
                self.runtime.emit_event(EventKind::FaultInjected {
                    fault: "power_failure",
                });
            }
            let excess = self.power.capacitor().energy() - self.cfg.device.checkpoint_reserve();
            if excess.value() > 0.0 {
                self.power.draw(excess);
            }
            self.on_power_failure();
        } else {
            match self.state {
                DeviceState::On => {
                    if self.power.capacitor().energy() <= self.cfg.device.checkpoint_reserve() {
                        self.on_power_failure();
                    } else if !out.brownout {
                        self.progress(t, irr);
                    }
                }
                DeviceState::Off => {
                    if self.power.capacitor().can_turn_on() {
                        self.power.draw(self.cfg.device.restore_energy);
                        self.metrics.restores += 1;
                        self.state = DeviceState::On;
                        if self.runtime.observing() {
                            let off_ms = self
                                .off_since
                                .take()
                                .map_or(0, |off| t.since(off).as_millis());
                            self.runtime.emit_event(EventKind::Restore { off_ms });
                        }
                        self.off_since = None;
                        self.maybe_corrupt_checkpoint(t);
                    }
                }
            }
        }

        self.now = t.tick();

        // 6. Termination: horizon, or everything drained after the last
        //    event.
        let drained = self.now >= self.events_end && self.job.is_none() && self.buffer.is_idle();
        if self.now >= self.horizon || drained {
            self.finalize();
            return false;
        }
        true
    }

    /// Executes one capture-path firing: sense, prefilter, and (for
    /// changed frames) compress + store. Runs on the dedicated capture
    /// subsystem: instantaneous in MCU time, energy drawn directly.
    fn on_capture_boundary(&mut self, t: SimTime) {
        let active = self.env.events().active_at(t);
        let different = active.is_some();
        let interesting = active.is_some_and(|e| e.interesting);
        self.metrics.frames_total += 1;
        if interesting {
            self.metrics.interesting_total += 1;
        }
        // Sense + diff cost, every frame.
        self.power.draw(self.cfg.device.capture.energy());
        self.power.draw(self.cfg.device.diff.energy());
        if !different {
            self.metrics.frames_filtered += 1;
            self.runtime.on_capture(false);
            return;
        }
        // Changed frame: compress, then try to store. λ counts inputs
        // that pass pre-filtering (the queue's *offered* load, §3.1),
        // whether or not the store succeeds.
        self.admit_arrival(t, interesting);

        // Input-burst anomaly: extra changed-but-uninteresting frames
        // the adversary injects at this boundary. Each pays the full
        // capture-path energy and contends for a buffer slot, so the
        // conservation law `arrivals == stored + ibo_discards` holds
        // for burst frames too.
        let burst = self.fault.as_mut().map_or(0, |f| f.extra_burst(t));
        if burst > 0 {
            self.metrics.faults_burst += u64::from(burst);
            if self.runtime.observing() {
                self.runtime.emit_event(EventKind::FaultInjected {
                    fault: "input_burst",
                });
            }
            for _ in 0..burst {
                self.metrics.frames_total += 1;
                self.power.draw(self.cfg.device.capture.energy());
                self.power.draw(self.cfg.device.diff.energy());
                self.admit_arrival(t, false);
            }
        }
    }

    /// Compresses and stores one changed frame, counting the arrival and
    /// the store-or-discard outcome.
    fn admit_arrival(&mut self, t: SimTime, interesting: bool) {
        self.power.draw(self.cfg.device.compress.energy());
        self.metrics.arrivals += 1;
        self.runtime.on_capture(true);
        let entry = BufferEntry {
            captured_at: t,
            interesting,
        };
        if self.buffer.store(self.pipeline.entry_job(), entry) {
            self.metrics.stored += 1;
            if self.runtime.observing() {
                self.runtime.emit_event(EventKind::BufferAdmit {
                    job: u32::from(self.pipeline.entry_job()),
                    occupancy: self.buffer.occupancy(),
                    interesting,
                });
            }
        } else {
            self.metrics.ibo_discards += 1;
            if interesting {
                self.metrics.ibo_interesting += 1;
            }
            if self.state == DeviceState::Off {
                self.metrics.ibo_while_off += 1;
            } else if let Some(j) = &self.job {
                if j.option == 0 {
                    self.metrics.ibo_during_full_job += 1;
                } else {
                    self.metrics.ibo_during_degraded_job += 1;
                }
            }
            if self.runtime.observing() {
                self.runtime.emit_event(EventKind::IboDiscard {
                    occupancy: self.buffer.occupancy(),
                    interesting,
                    device_on: self.state == DeviceState::On,
                    active_option: self.job.as_ref().map(|j| j.option),
                });
            }
        }
    }

    /// Power drawn by whatever the device is doing right now.
    fn current_power(&self) -> Watts {
        if let Some(j) = &self.job {
            if j.tx_wait {
                // Radio backoff: the MCU sleeps until the re-sense.
                return self.cfg.device.sleep_power;
            }
            return match j.phase {
                JobPhase::Overhead => self.cfg.device.scheduler_overhead.p_exe,
                JobPhase::Task(i) => self.task_cost(j.job, i, j.option).p_exe,
            };
        }
        self.cfg.device.sleep_power
    }

    /// The cost of a job's `i`-th task at the job's selected degradation
    /// option (non-degradable tasks always run at their only cost).
    fn task_cost(&self, job: JobId, task_idx: usize, option: u8) -> TaskCost {
        let spec = self.runtime.spec();
        let task = spec.job(job).tasks[task_idx];
        let task_spec = spec.task(task);
        if task_spec.is_degradable() {
            task_spec.cost(usize::from(option))
        } else {
            task_spec.best_cost()
        }
    }

    /// Advances the active job or schedules new work.
    fn progress(&mut self, t: SimTime, irr: f64) {
        if self.job.is_some() {
            self.progress_job(t);
        } else {
            self.try_schedule(t, irr);
        }
    }

    /// Handles a brownout: under JIT the device spends its reserve on a
    /// checkpoint (no progress lost); under periodic/task-boundary
    /// policies the failure is abrupt and the active task rolls back.
    fn on_power_failure(&mut self) {
        let policy = self.cfg.device.checkpoint_policy;
        self.metrics.power_failures += 1;
        if self.runtime.observing() {
            self.runtime.emit_event(EventKind::PowerFailure {
                checkpointed: matches!(policy, CheckpointPolicy::JustInTime),
            });
        }
        match policy {
            CheckpointPolicy::JustInTime => {
                self.power.draw(self.cfg.device.checkpoint_energy);
                self.metrics.checkpoints += 1;
                self.last_checkpoint_at = Some(self.now);
            }
            CheckpointPolicy::Periodic { .. } | CheckpointPolicy::TaskBoundary => {
                if let Some(j) = self.job.as_mut() {
                    if matches!(j.phase, JobPhase::Task(_)) {
                        let (resume, lost) =
                            j.keeper
                                .on_power_failure(policy, j.remaining, j.full_latency);
                        j.remaining = resume;
                        self.metrics.reexecuted += lost;
                    }
                }
            }
        }
        self.state = DeviceState::Off;
        self.off_since = Some(self.now);
    }

    /// Consults the adversary right after a restore: a corrupted
    /// checkpoint forces the interrupted task to replay from scratch.
    /// Replay-from-start is the safe recovery for idempotent tasks, so
    /// only re-execution time (not application state) is lost.
    fn maybe_corrupt_checkpoint(&mut self, t: SimTime) {
        if self.fault.is_none() {
            return;
        }
        let mid_task = self
            .job
            .as_ref()
            .is_some_and(|j| matches!(j.phase, JobPhase::Task(_)) && !j.tx_wait);
        if !mid_task {
            return;
        }
        let ctx = self.fault_context(t);
        let corrupt = self
            .fault
            .as_mut()
            .expect("fault injector present")
            .corrupt_checkpoint(&ctx);
        if !corrupt {
            return;
        }
        self.metrics.faults_checkpoint += 1;
        if self.runtime.observing() {
            self.runtime.emit_event(EventKind::FaultInjected {
                fault: "checkpoint_corruption",
            });
        }
        let j = self.job.as_mut().expect("mid-task job present");
        let lost = j.full_latency.saturating_sub(j.remaining);
        j.remaining = j.full_latency;
        j.keeper.task_started(j.full_latency);
        self.metrics.reexecuted += lost;
    }

    fn progress_job(&mut self, t: SimTime) {
        let policy = self.cfg.device.checkpoint_policy;
        let j = self.job.as_mut().expect("job present");
        if matches!(j.phase, JobPhase::Task(_)) && j.keeper.tick(policy) {
            // A periodic checkpoint is due: pay for it, snapshot progress.
            let remaining = j.remaining;
            j.keeper.checkpointed(remaining);
            self.power.draw(self.cfg.device.checkpoint_energy);
            self.metrics.checkpoints += 1;
            self.last_checkpoint_at = Some(t);
            if self.runtime.observing() {
                self.runtime.emit_event(EventKind::Checkpoint);
            }
        }
        let j = self.job.as_mut().expect("job present");
        j.remaining = j.remaining.saturating_sub(SimDuration::TICK);
        if !j.remaining.is_zero() {
            return;
        }
        let waiting = j.tx_wait;
        match j.phase {
            JobPhase::Overhead => self.start_task(t, 0),
            JobPhase::Task(i) if waiting => {
                // Backoff elapsed: re-enter the task, which re-senses.
                self.job.as_mut().expect("job present").tx_wait = false;
                self.start_task(t, i);
            }
            JobPhase::Task(i) => self.finish_task(t, i),
        }
    }

    fn start_task(&mut self, t: SimTime, idx: usize) {
        let (job, option) = {
            let j = self.job.as_ref().expect("job present");
            (j.job, j.option)
        };
        let num_tasks = self.runtime.spec().job(job).tasks.len();
        if idx >= num_tasks {
            self.complete_job(t, false);
            return;
        }
        let task = self.runtime.spec().job(job).tasks[idx];
        let is_transmit = matches!(self.pipeline.behavior(task), TaskBehavior::Transmit(_));
        let cost = self.task_cost(job, idx, option);
        // Data-dependent cost variability (DeviceConfig::task_jitter).
        let jitter = self.cfg.device.task_jitter;
        let mut latency = if jitter > 0.0 {
            let factor = (1.0 + self.rng.next_range(-jitter, jitter)).max(0.1);
            cost.t_exe * factor
        } else {
            cost.t_exe
        };
        // Clock jitter: the adversary's timer drift stretches (or
        // shrinks) this task's wall-clock latency.
        if let Some(f) = self.fault.as_mut() {
            if let Some(scale) = f.clock_jitter(t) {
                latency = latency * scale.max(0.05);
                self.metrics.faults_clock += 1;
                if self.runtime.observing() {
                    self.runtime.emit_event(EventKind::FaultInjected {
                        fault: "clock_jitter",
                    });
                }
            }
        }
        let duration = SimDuration::from_seconds_ceil(latency);
        // Uplink jam: the adversary floods the channel, so the transmit
        // attempt parks in a backoff hold exactly as if carrier sense
        // had failed (works with or without a shared-channel gate).
        if is_transmit {
            let jam = self.fault.as_mut().and_then(|f| f.jam_uplink(t));
            if let Some(wait) = jam {
                let wait = wait.max(SimDuration::TICK);
                self.metrics.faults_jam += 1;
                if self.runtime.observing() {
                    self.runtime.emit_event(EventKind::FaultInjected {
                        fault: "uplink_jam",
                    });
                }
                let j = self.job.as_mut().expect("job present");
                j.phase = JobPhase::Task(idx);
                j.tx_wait = true;
                j.remaining = wait;
                j.full_latency = wait;
                j.keeper.task_started(wait);
                return;
            }
        }
        // A transmit task must clear the shared-channel gate first.
        // Refusals park the job in a tx_wait hold (sleep power, buffer
        // slot held — IBO pressure keeps building) and retry at expiry.
        if let Some(port) = self.uplink.as_mut() {
            if is_transmit {
                let t0 = self.prof.begin();
                let decision = port.sense(t, duration);
                self.prof.end(Phase::UplinkSense, t0);
                match decision {
                    TxDecision::Grant { airtime } => {
                        self.metrics.tx_grants += 1;
                        self.metrics.tx_airtime += airtime;
                    }
                    TxDecision::Busy(wait) | TxDecision::DutyCapped(wait) => {
                        match decision {
                            TxDecision::Busy(_) => self.metrics.tx_busy_backoffs += 1,
                            _ => self.metrics.tx_duty_deferrals += 1,
                        }
                        self.metrics.tx_backoff_wait += wait;
                        if self.runtime.observing() {
                            self.runtime.emit_event(EventKind::TxBackoff {
                                wait_ms: wait.as_millis(),
                                duty_capped: matches!(decision, TxDecision::DutyCapped(_)),
                            });
                        }
                        let j = self.job.as_mut().expect("job present");
                        j.phase = JobPhase::Task(idx);
                        j.tx_wait = true;
                        j.remaining = wait;
                        j.full_latency = wait;
                        j.keeper.task_started(wait);
                        return;
                    }
                }
            }
        }
        let j = self.job.as_mut().expect("job present");
        j.phase = JobPhase::Task(idx);
        j.remaining = duration;
        j.full_latency = j.remaining;
        j.keeper.task_started(j.remaining);
        j.task_started_at = t;
        j.executed[idx].1 = true;
    }

    fn finish_task(&mut self, t: SimTime, idx: usize) {
        let (option, task, task_started_at, interesting, captured_at) = {
            let j = self.job.as_ref().expect("job present");
            (
                j.option,
                j.executed[idx].0,
                j.task_started_at,
                j.entry.interesting,
                j.entry.captured_at,
            )
        };
        // Feed the observed per-task S_e2e (includes recharge stalls and
        // capture preemptions) to the estimator.
        let task_spec = self.runtime.spec().task(task);
        let observed_key = TaskKey {
            task,
            option: if task_spec.is_degradable() { option } else { 0 },
        };
        let observed = t.since(task_started_at) + SimDuration::TICK;
        self.runtime
            .observe_task(observed_key, observed.as_seconds());

        match self.pipeline.behavior(task) {
            TaskBehavior::Compute => {}
            TaskBehavior::Classify(rates) => {
                let r = rates[observed_key.option as usize];
                let positive = if interesting {
                    !self.rng.chance(r.false_negative)
                } else {
                    self.rng.chance(r.false_positive)
                };
                if !positive {
                    if interesting {
                        self.metrics.false_negatives += 1;
                    } else {
                        self.metrics.true_negatives += 1;
                    }
                    self.complete_job(t, true);
                    return;
                }
            }
            TaskBehavior::Transmit(quals) => {
                use crate::pipeline::ReportQuality;
                match (interesting, quals[observed_key.option as usize]) {
                    (true, ReportQuality::High) => self.metrics.reports_interesting_high += 1,
                    (true, ReportQuality::Low) => self.metrics.reports_interesting_low += 1,
                    (false, ReportQuality::High) => self.metrics.reports_uninteresting_high += 1,
                    (false, ReportQuality::Low) => self.metrics.reports_uninteresting_low += 1,
                }
                // Capture-to-delivery latency: the fleet-level QoS
                // metric the shared channel pushes around.
                let latency = t.since(captured_at) + SimDuration::TICK;
                self.metrics.delivery_latency_total += latency;
                self.metrics.delivery_latency_max = self.metrics.delivery_latency_max.max(latency);
            }
        }
        self.start_task(t, idx + 1);
    }

    fn complete_job(&mut self, t: SimTime, dropped: bool) {
        let j = self.job.take().expect("job present");
        self.metrics.jobs_by_option[usize::from(j.option.min(3))] += 1;
        let observed = t.since(j.started_at) + SimDuration::TICK;
        self.runtime
            .on_job_complete(j.job, &j.executed, observed.as_seconds());
        let ActiveJob {
            job,
            entry,
            mut executed,
            ..
        } = j;
        // Recycle the task-list allocation for the next scheduled job.
        executed.clear();
        self.spare_executed = executed;
        if dropped {
            self.buffer.release();
            return;
        }
        match self.pipeline.route(job) {
            Route::Finish => self.buffer.release(),
            Route::Forward(next) => self.buffer.forward(entry, next),
        }
    }

    fn try_schedule(&mut self, t: SimTime, irr: f64) {
        if self.buffer.is_idle() {
            return;
        }
        let spec_jobs = self.runtime.spec().jobs().len();
        // Reuse the scratch allocation across ticks: this is the hottest
        // allocation site in a crowded run.
        let mut runnable = core::mem::take(&mut self.scratch_runnable);
        runnable.clear();
        for i in 0..spec_jobs {
            let id = self.runtime.spec().job_id(i).expect("job index in range");
            let age = self.buffer.oldest(id).map(|cap| t.since(cap).as_seconds());
            runnable.push((id, age));
        }
        let mut p_in = self.power.input_power(irr);
        // ADC misread: the adversary may substitute the P_in reading the
        // scheduler's ratio circuit sees (never the true energy flow).
        if let Some(f) = self.fault.as_mut() {
            if let Some(misread) = f.adc_misread(t, p_in) {
                p_in = Watts(misread.value().max(0.0));
                self.metrics.faults_adc += 1;
                if self.runtime.observing() {
                    self.runtime.emit_event(EventKind::FaultInjected {
                        fault: "adc_misread",
                    });
                }
            }
        }
        let view = BufferView {
            occupancy: self.buffer.occupancy(),
            capacity: self.buffer.capacity(),
        };
        let decision = self.runtime.schedule(&runnable, view, p_in);
        self.scratch_runnable = runnable;
        let Some(decision) = decision else {
            return;
        };
        if decision.ibo_predicted {
            self.metrics.ibo_predictions += 1;
        }
        let entry = self
            .buffer
            .take(decision.job)
            .expect("scheduled job has a queued input");
        if self.runtime.observing() {
            self.runtime.emit_event(EventKind::JobStart {
                job: u32::from(decision.job),
                option: decision.option,
                occupancy: self.buffer.occupancy(),
            });
        }
        let mut executed = core::mem::take(&mut self.spare_executed);
        executed.clear();
        executed.extend(
            self.runtime
                .spec()
                .job(decision.job)
                .tasks
                .iter()
                .map(|&task| (task, false)),
        );
        let overhead = SimDuration::from_seconds_ceil(self.cfg.device.scheduler_overhead.t_exe);
        let mut active = ActiveJob {
            job: decision.job,
            option: decision.option,
            entry,
            phase: JobPhase::Overhead,
            remaining: overhead,
            full_latency: overhead,
            keeper: ProgressKeeper::default(),
            executed,
            started_at: t,
            task_started_at: t,
            tx_wait: false,
        };
        if overhead.is_zero() {
            // No modeled overhead: enter the first task immediately.
            self.job = Some(active);
            self.start_task(t, 0);
        } else {
            active.phase = JobPhase::Overhead;
            self.job = Some(active);
        }
    }

    fn finalize(&mut self) {
        self.metrics.sim_time = self.now.since(SimTime::ZERO);
        for e in self.buffer.pending() {
            self.metrics.pending += 1;
            if e.interesting {
                self.metrics.pending_interesting += 1;
            }
        }
        if let Some(j) = &self.job {
            self.metrics.pending += 1;
            if j.entry.interesting {
                self.metrics.pending_interesting += 1;
            }
        }
        self.done = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{ClassRates, ReportQuality};
    use crate::Telemetry;
    use quetzal::model::AppSpecBuilder;
    use quetzal::runtime::QuetzalConfig;
    use qz_traces::EnvironmentKind;
    use qz_types::{Seconds, Watts};

    fn cheap(t: f64, p: f64) -> TaskCost {
        TaskCost::new(Seconds(t), Watts(p))
    }

    /// Finishes `sim`, returning its metrics and the telemetry its
    /// installed [`Telemetry`] observer collected.
    fn finish_with_telemetry(sim: Simulation<'_>) -> (Metrics, Telemetry) {
        let (metrics, mut observer) = sim.run_traced();
        let telemetry = Telemetry::take_from(observer.as_mut()).expect("telemetry observer");
        (metrics, telemetry)
    }

    /// A small person-detection app: ML (2 options) → forward → radio
    /// (2 options).
    fn build_runtime() -> (Quetzal, JobId, JobId) {
        let mut b = AppSpecBuilder::new();
        let ml = b
            .degradable_task("ml")
            .option("hi", cheap(1.0, 0.020))
            .option("lo", cheap(0.1, 0.015))
            .finish()
            .unwrap();
        let radio = b
            .degradable_task("radio")
            .option("full", cheap(0.8, 0.200))
            .option("byte", cheap(0.05, 0.200))
            .finish()
            .unwrap();
        let process = b.job("process", vec![ml]).unwrap();
        let report = b.job("report", vec![radio]).unwrap();
        let spec = b.build().unwrap();
        let qz = Quetzal::new(spec, QuetzalConfig::default()).unwrap();
        (qz, process, report)
    }

    fn behaviors(fn_hi: f64) -> Vec<TaskBehavior> {
        behaviors2(fn_hi, 0.25)
    }

    fn behaviors2(fn_hi: f64, fn_lo: f64) -> Vec<TaskBehavior> {
        vec![
            TaskBehavior::Classify(vec![
                ClassRates::new(fn_hi, 0.05),
                ClassRates::new(fn_lo, 0.20),
            ]),
            TaskBehavior::Transmit(vec![ReportQuality::High, ReportQuality::Low]),
        ]
    }

    fn sim<'a>(env: &'a SensingEnvironment, fn_hi: f64) -> Simulation<'a> {
        let (qz, process, report) = build_runtime();
        Simulation::new(
            SimConfig::default(),
            env,
            qz,
            process,
            behaviors(fn_hi),
            vec![Route::Forward(report), Route::Finish],
        )
        .unwrap()
    }

    /// How many carrier senses the run has performed so far (every
    /// sense ends in exactly one of these three outcomes).
    fn sense_count(m: &Metrics) -> u64 {
        m.tx_grants + m.tx_busy_backoffs + m.tx_duty_deferrals
    }

    #[test]
    fn next_uplink_due_is_none_without_a_gate() {
        let env = SensingEnvironment::generate(EnvironmentKind::Crowded, 6, 11);
        let s = sim(&env, 0.05);
        assert_eq!(s.next_uplink_due(), None, "no gate, nothing to bound");
    }

    #[test]
    fn idle_device_due_is_the_first_active_capture_boundary() {
        let env = SensingEnvironment::generate(EnvironmentKind::LessCrowded, 6, 11);
        let mut s = sim(&env, 0.05);
        s.set_uplink(crate::uplink::UplinkPort::new(
            crate::uplink::UplinkConfig::default(),
            7,
        ));
        // Fresh device: idle buffer, no job. The bound must be the first
        // capture boundary inside a sensing event.
        let period = SimConfig::default().device.capture_period;
        let expected = env
            .events()
            .events()
            .iter()
            .find_map(|e| {
                let b = e.start.next_multiple_of(period);
                (b < e.end()).then_some(b)
            })
            .expect("generated trace has an alignable event");
        assert_eq!(s.next_uplink_due(), Some(expected));
    }

    #[test]
    fn drained_device_is_never_due_again() {
        let env = SensingEnvironment::generate(EnvironmentKind::LessCrowded, 4, 3);
        let mut s = sim(&env, 0.05);
        s.set_uplink(crate::uplink::UplinkPort::new(
            crate::uplink::UplinkConfig::default(),
            7,
        ));
        while s.step() {}
        assert_eq!(s.next_uplink_due(), None, "done devices never sense");
    }

    #[test]
    fn next_uplink_due_lower_bounds_every_sense() {
        // Soundness sweep: step a contended run one tick at a time and
        // check that whenever a sense happens, the bound computed just
        // before the tick had already reached the current time — i.e.
        // a fleet scheduler parking the device until the bound can
        // never skip over a sense.
        let env = SensingEnvironment::generate(EnvironmentKind::Crowded, 10, 5);
        let mut s = sim(&env, 0.05);
        s.set_uplink(crate::uplink::UplinkPort::new(
            crate::uplink::UplinkConfig::default(),
            9,
        ));
        s.set_uplink_busy_probability(0.4);
        let mut senses = 0u64;
        loop {
            let t = s.time();
            let due = s.next_uplink_due();
            let alive = s.step();
            let now_senses = sense_count(s.metrics());
            if now_senses > senses {
                let due = due.expect("a sense happened while parked forever");
                assert!(
                    due <= t,
                    "sense at t={t:?} but the bound just before was {due:?}"
                );
            }
            senses = now_senses;
            if !alive {
                break;
            }
        }
        assert!(senses > 0, "contended run must sense at least once");
    }

    #[test]
    fn runs_to_completion_and_counts_frames() {
        let env = SensingEnvironment::generate(EnvironmentKind::LessCrowded, 10, 7);
        let m = sim(&env, 0.0).run();
        assert!(m.frames_total > 0);
        assert_eq!(
            m.frames_total,
            m.frames_missed_off + m.frames_filtered + m.arrivals + in_progress_frames(&m),
            "every frame is missed, filtered, or arrives"
        );
        assert!(m.sim_time.as_millis() > 0);
    }

    /// Frames whose capture pipeline was still running at the end.
    fn in_progress_frames(m: &Metrics) -> u64 {
        m.frames_total - m.frames_missed_off - m.frames_filtered - m.arrivals
    }

    #[test]
    fn conservation_of_interesting_inputs() {
        let env = SensingEnvironment::generate(EnvironmentKind::Crowded, 30, 3);
        let m = sim(&env, 0.05).run();
        // Every interesting frame is accounted for exactly once.
        let accounted = m.interesting_missed_off
            + m.ibo_interesting
            + m.false_negatives
            + m.reports_interesting_high
            + m.reports_interesting_low
            + m.pending_interesting;
        assert!(
            accounted <= m.interesting_total,
            "accounted {accounted} > total {}",
            m.interesting_total
        );
        // Allow a small in-flight remainder (capture pipeline mid-frame).
        assert!(
            m.interesting_total - accounted <= 2,
            "unaccounted interesting frames"
        );
    }

    #[test]
    fn perfect_classifier_has_no_false_negatives() {
        // Both ML quality levels are perfect here: no input can be lost
        // to misclassification, regardless of degradation decisions.
        let env = SensingEnvironment::generate(EnvironmentKind::LessCrowded, 20, 9);
        let (qz, process, report) = build_runtime();
        let m = Simulation::new(
            SimConfig::default(),
            &env,
            qz,
            process,
            behaviors2(0.0, 0.0),
            vec![Route::Forward(report), Route::Finish],
        )
        .unwrap()
        .run();
        assert_eq!(m.false_negatives, 0);
    }

    #[test]
    fn conservation_of_stored_inputs() {
        let env = SensingEnvironment::generate(EnvironmentKind::Crowded, 30, 5);
        let m = sim(&env, 0.05).run();
        assert_eq!(m.arrivals, m.stored + m.ibo_discards);
    }

    #[test]
    fn reports_match_positive_classifications() {
        let env = SensingEnvironment::generate(EnvironmentKind::LessCrowded, 30, 11);
        let m = sim(&env, 0.05).run();
        // Stored = dropped-by-classifier + reported + pending (+ in-flight ≤1).
        let processed = m.false_negatives + m.true_negatives + m.total_reports();
        assert!(processed + m.pending <= m.stored + 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let env = SensingEnvironment::generate(EnvironmentKind::Crowded, 15, 21);
        let a = sim(&env, 0.05).run();
        let b = sim(&env, 0.05).run();
        assert_eq!(a, b);
    }

    #[test]
    fn device_checkpoints_under_darkness() {
        // Near-zero harvest: the device should run out of energy and
        // checkpoint at least once while processing.
        let mut env = SensingEnvironment::generate(EnvironmentKind::Crowded, 20, 2);
        let dark = qz_traces::SolarTrace::constant(0.02);
        env = override_solar(env, dark);
        let m = sim(&env, 0.05).run();
        assert!(m.checkpoints > 0, "expected power failures in darkness");
        assert!(m.time_off.as_millis() > 0);
    }

    /// Rebuilds the environment with a different solar trace (helper
    /// until `SensingEnvironment` grows a builder for this).
    fn override_solar(env: SensingEnvironment, solar: qz_traces::SolarTrace) -> SensingEnvironment {
        SensingEnvironment::with_parts(env.kind(), env.events().clone(), solar)
    }

    /// Occupancy travels as a `u32` (the runtime's buffer view, every
    /// event), so a capacity past `u32::MAX` must be refused when the
    /// simulation is built, not truncated in an event later.
    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn oversized_buffer_is_refused_at_build_time() {
        let env = SensingEnvironment::generate(EnvironmentKind::MoreCrowded, 2, 4);
        let (qz, process, report) = build_runtime();
        let mut cfg = SimConfig::default();
        cfg.device.buffer_capacity = usize::try_from(u64::from(u32::MAX) + 1).unwrap();
        let _ = Simulation::new(
            cfg,
            &env,
            qz,
            process,
            behaviors(0.05),
            vec![Route::Forward(report), Route::Finish],
        );
    }

    #[test]
    fn tiny_buffer_overflows_under_load() {
        let env = SensingEnvironment::generate(EnvironmentKind::MoreCrowded, 20, 4);
        let (qz, process, report) = build_runtime();
        let mut cfg = SimConfig::default();
        cfg.device.buffer_capacity = 2;
        let m = Simulation::new(
            cfg,
            &env,
            qz,
            process,
            behaviors(0.05),
            vec![Route::Forward(report), Route::Finish],
        )
        .unwrap()
        .run();
        assert!(
            m.ibo_discards > 0,
            "a 2-slot buffer must overflow in MoreCrowded"
        );
    }

    #[test]
    fn telemetry_records_at_interval() {
        let env = SensingEnvironment::generate(EnvironmentKind::LessCrowded, 5, 8);
        let mut s = sim(&env, 0.05);
        s.set_observer(Box::new(Telemetry::default()));
        for _ in 0..5_000 {
            if !s.step() {
                break;
            }
        }
        let end = s.time();
        let t = Telemetry::take_from(s.take_observer().as_mut()).expect("telemetry observer");
        assert_eq!(
            t.len() as u64,
            end.as_millis() / SAMPLE_PERIOD.as_millis() + 1,
            "one sample per second, t = 0 included"
        );
        assert!(t.samples().iter().all(|x| (x.t % SAMPLE_PERIOD).is_zero()));
        let mut csv = Vec::new();
        t.write_csv(&mut csv).unwrap();
        assert!(csv.len() > 50);
    }

    #[test]
    fn checkpoint_policies_alter_reexecution() {
        // Under darkness, the task-boundary policy must re-execute work
        // that JIT checkpointing preserves.
        let mut env = SensingEnvironment::generate(EnvironmentKind::Crowded, 20, 2);
        env = override_solar(env, qz_traces::SolarTrace::constant(0.02));
        let (qz, process, report) = build_runtime();
        let mut cfg = SimConfig::default();
        cfg.device.checkpoint_policy = crate::CheckpointPolicy::TaskBoundary;
        let m = Simulation::new(
            cfg,
            &env,
            qz,
            process,
            behaviors(0.05),
            vec![Route::Forward(report), Route::Finish],
        )
        .unwrap()
        .run();
        assert!(m.power_failures > 0);
        assert!(
            m.reexecuted.as_millis() > 0,
            "task-boundary must lose progress across failures"
        );

        let jit = sim(&env, 0.05).run();
        assert_eq!(jit.reexecuted.as_millis(), 0, "JIT never re-executes");
    }

    #[test]
    fn traced_run_agrees_with_metrics() {
        let env = SensingEnvironment::generate(EnvironmentKind::MoreCrowded, 20, 4);
        let (qz, process, report) = build_runtime();
        let mut cfg = SimConfig::default();
        cfg.device.buffer_capacity = 2;
        let mut s = Simulation::new(
            cfg,
            &env,
            qz,
            process,
            behaviors(0.05),
            vec![Route::Forward(report), Route::Finish],
        )
        .unwrap();
        s.set_observer(Box::new(qz_obs::RecordingObserver::new()));
        let (m, mut obs) = s.run_traced();
        let events = qz_obs::take_recorded(obs.as_mut()).expect("recording sink");
        let count = |name: &str| events.iter().filter(|e| e.kind.name() == name).count() as u64;
        assert!(m.ibo_discards > 0, "scenario must overflow");
        assert_eq!(count("ibo_discard"), m.ibo_discards);
        assert_eq!(count("buffer_admit"), m.stored);
        assert_eq!(count("restore"), m.restores);
        assert_eq!(count("power_failure"), m.power_failures);
        assert!(count("scheduler_pick") > 0);
        assert_eq!(count("scheduler_pick"), count("ibo_decision"));
        // Timestamps are monotonic.
        assert!(events.windows(2).all(|w| w[0].t_ms <= w[1].t_ms));
    }

    #[test]
    fn observer_does_not_perturb_results() {
        let env = SensingEnvironment::generate(EnvironmentKind::Crowded, 15, 21);
        let baseline = sim(&env, 0.05).run();
        let mut traced = sim(&env, 0.05);
        traced.set_observer(Box::new(qz_obs::RecordingObserver::new()));
        let (m, _) = traced.run_traced();
        assert_eq!(m, baseline, "tracing must be observation-only");
    }

    fn sim_with_engine<'a>(env: &'a SensingEnvironment, engine: EngineKind) -> Simulation<'a> {
        let (qz, process, report) = build_runtime();
        let cfg = SimConfig {
            engine,
            ..SimConfig::default()
        };
        Simulation::new(
            cfg,
            env,
            qz,
            process,
            behaviors(0.05),
            vec![Route::Forward(report), Route::Finish],
        )
        .unwrap()
    }

    #[test]
    fn fast_forward_matches_tick_engine_exactly() {
        for (kind, events, seed) in [
            (EnvironmentKind::LessCrowded, 10, 7),
            (EnvironmentKind::Crowded, 20, 3),
            (EnvironmentKind::Short, 15, 11),
        ] {
            let env = SensingEnvironment::generate(kind, events, seed);
            let mut fast = sim_with_engine(&env, EngineKind::FastForward);
            let mut tick = sim_with_engine(&env, EngineKind::Tick);
            fast.set_observer(Box::new(Telemetry::default()));
            tick.set_observer(Box::new(Telemetry::default()));
            let (mf, tf) = finish_with_telemetry(fast);
            let (mt, tt) = finish_with_telemetry(tick);
            assert_eq!(mf, mt, "{kind:?} metrics diverge");
            assert_eq!(tf, tt, "{kind:?} telemetry diverges");
        }
    }

    #[test]
    fn fast_forward_matches_tick_under_darkness() {
        // Exercise the Off → restore crossing path repeatedly.
        let mut env = SensingEnvironment::generate(EnvironmentKind::Crowded, 20, 2);
        env = override_solar(env, qz_traces::SolarTrace::constant(0.02));
        let mf = sim_with_engine(&env, EngineKind::FastForward).run();
        let mt = sim_with_engine(&env, EngineKind::Tick).run();
        assert!(mf.restores > 0, "darkness must force power cycles");
        assert_eq!(mf, mt);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]
        /// Every simulated tick is counted once in the horizon
        /// accounting: as a tick of a bulk span or as a reference tick,
        /// including spans a threshold crossing cut short.
        #[test]
        fn span_and_reference_ticks_sum_to_sim_time(
            kind in 0usize..EnvironmentKind::ALL.len(),
            events in 3usize..10,
            seed in 0u64..1_000,
            solar in 0u8..3,
        ) {
            let mut env = SensingEnvironment::generate(EnvironmentKind::ALL[kind], events, seed);
            if solar > 0 {
                // Darkness, or light flickering every few seconds: both
                // drive the capacitor across its thresholds mid-span.
                let flicker = (0..60).map(|s| if s % 7 < 3 { 0.0 } else { 0.4 }).collect();
                let trace = if solar == 1 {
                    qz_traces::SolarTrace::constant(0.02)
                } else {
                    qz_traces::SolarTrace::from_samples(flicker)
                };
                env = override_solar(env, trace);
            }
            let mut fast = sim_with_engine(&env, EngineKind::FastForward);
            let mut tick = sim_with_engine(&env, EngineKind::Tick);
            while fast.step() {}
            while tick.step() {}
            proptest::prop_assert_eq!(fast.metrics(), tick.metrics());
            let h = fast.horizon_stats();
            let counted = h.total_skipped_ticks() + h.total_ref_ticks();
            proptest::prop_assert_eq!(counted, fast.metrics().sim_time.as_millis());
            proptest::prop_assert_eq!(counted, tick.metrics().sim_time.as_millis());
            proptest::prop_assert!(tick.horizon_stats().is_empty());
        }
    }

    #[test]
    fn step_until_stops_at_the_barrier() {
        let env = SensingEnvironment::generate(EnvironmentKind::LessCrowded, 10, 7);
        let mut s = sim_with_engine(&env, EngineKind::FastForward);
        let barrier = SimTime::from_millis(12_345);
        assert!(s.step_until(barrier));
        assert_eq!(s.time(), barrier, "spans must not overshoot the barrier");
        // Interleaved barriers reproduce the single-run result exactly.
        let mut chunked = sim_with_engine(&env, EngineKind::FastForward);
        let mut at = SimTime::ZERO;
        while !chunked.is_done() {
            at += SimDuration::from_millis(7_001);
            chunked.step_until(at);
        }
        let whole = sim_with_engine(&env, EngineKind::FastForward).run();
        assert_eq!(chunked.metrics(), &whole);
    }

    #[test]
    fn step_api_reports_time() {
        let env = SensingEnvironment::generate(EnvironmentKind::LessCrowded, 3, 6);
        let mut s = sim(&env, 0.0);
        assert_eq!(s.time(), SimTime::ZERO);
        assert!(s.step());
        assert_eq!(s.time(), SimTime::from_millis(1));
        assert_eq!(s.metrics().frames_total, 1);
        assert!(s.runtime().spec().jobs().len() == 2);
    }

    #[test]
    fn save_restore_resume_is_bit_exact_on_both_engines() {
        let env = SensingEnvironment::generate(EnvironmentKind::Crowded, 20, 3);
        for engine in [EngineKind::Tick, EngineKind::FastForward] {
            let cut = SimTime::from_millis(31_337);
            // Straight-through reference run.
            let mut straight = sim_with_engine(&env, engine);
            straight.set_observer(Box::new(Telemetry::default()));
            let (m_ref, t_ref) = finish_with_telemetry(straight);

            // Run to an arbitrary mid point, snapshot, resume in place.
            let mut a = sim_with_engine(&env, engine);
            a.set_observer(Box::new(Telemetry::default()));
            a.step_until(cut);
            let snap = a.save_state().unwrap();
            let (m_a, t_a) = finish_with_telemetry(a);
            assert_eq!(m_a, m_ref, "{engine:?}: suffix-after-save diverged");
            assert_eq!(t_a, t_ref);

            // Restore into a freshly built twin and run the suffix: its
            // observer sees the samples from the cut onwards.
            let mut b = sim_with_engine(&env, engine);
            b.set_observer(Box::new(Telemetry::default()));
            b.restore_state(&snap).unwrap();
            assert_eq!(b.time(), cut);
            let (m_b, t_b) = finish_with_telemetry(b);
            assert_eq!(m_b, m_ref, "{engine:?}: restored run diverged");
            let ref_suffix: Vec<_> = t_ref.samples().iter().filter(|x| x.t >= cut).collect();
            assert!(!ref_suffix.is_empty());
            assert_eq!(
                t_b.samples().iter().collect::<Vec<_>>(),
                ref_suffix,
                "{engine:?}: restored telemetry diverged"
            );
        }
    }

    #[test]
    fn snapshot_roundtrips_through_a_restored_twin() {
        // save → restore → save again must reproduce the identical state,
        // including an active job when one is in flight.
        let env = SensingEnvironment::generate(EnvironmentKind::MoreCrowded, 20, 4);
        let mut a = sim(&env, 0.05);
        let mut saw_active = false;
        for _ in 0..200_000 {
            if !a.step() {
                break;
            }
            if a.active_option().is_some() {
                saw_active = true;
                break;
            }
        }
        assert!(saw_active, "scenario must reach an active job");
        let snap = a.save_state().unwrap();
        assert!(snap.job.is_some(), "snapshot captures the active job");
        let mut b = sim(&env, 0.05);
        b.restore_state(&snap).unwrap();
        assert_eq!(b.save_state().unwrap(), snap);
        // And the twins step in lockstep from here.
        for _ in 0..10_000 {
            let more = a.step();
            assert_eq!(more, b.step());
            if !more {
                break;
            }
        }
        assert!(a
            .save_state()
            .unwrap()
            .eq_ignoring_injector(&b.save_state().unwrap()));
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn restore_rejects_mismatched_snapshots() {
        let env = SensingEnvironment::generate(EnvironmentKind::MoreCrowded, 20, 4);
        let mut a = sim(&env, 0.05);
        while a.active_option().is_none() && a.step() {}
        let snap = a.save_state().unwrap();
        let js = snap.job.clone().expect("active job");

        // Out-of-range job index.
        let mut bad = snap.clone();
        bad.job = Some(ActiveJobState {
            job: 99,
            ..js.clone()
        });
        assert!(sim(&env, 0.05)
            .restore_state(&bad)
            .unwrap_err()
            .contains("job index"));

        // Out-of-range task index.
        let mut bad = snap.clone();
        bad.job = Some(ActiveJobState {
            task_index: Some(99),
            ..js.clone()
        });
        assert!(sim(&env, 0.05)
            .restore_state(&bad)
            .unwrap_err()
            .contains("task index"));

        // Executed-flag shape mismatch.
        let mut bad = snap.clone();
        bad.job = Some(ActiveJobState {
            executed: vec![false; 7],
            ..js.clone()
        });
        assert!(sim(&env, 0.05)
            .restore_state(&bad)
            .unwrap_err()
            .contains("executed-flag"));

        // Degradation option beyond the job's option count (the running
        // job's task cost would index past the option list).
        let mut bad = snap.clone();
        bad.job = Some(ActiveJobState { option: 9, ..js });
        assert!(sim(&env, 0.05)
            .restore_state(&bad)
            .unwrap_err()
            .contains("option"));

        // No input in flight for the active job (its completion would
        // release a slot nothing took), and an input in flight with no
        // job to finish it.
        let mut bad = snap.clone();
        bad.buffer.in_flight = 0;
        assert!(sim(&env, 0.05)
            .restore_state(&bad)
            .unwrap_err()
            .contains("in-flight"));
        let mut bad = snap.clone();
        bad.job = None;
        assert!(sim(&env, 0.05)
            .restore_state(&bad)
            .unwrap_err()
            .contains("in-flight"));

        // Uplink installed live but absent from the snapshot.
        let mut live = sim(&env, 0.05);
        live.set_uplink(UplinkPort::new(crate::uplink::UplinkConfig::default(), 9));
        assert!(live.restore_state(&snap).unwrap_err().contains("uplink"));
    }

    /// An injector on every trait default: no snapshots, no quiet
    /// horizon.
    #[derive(Debug)]
    struct Blind;
    impl FaultInjector for Blind {}

    #[test]
    fn injector_without_a_quiet_horizon_keeps_the_per_tick_path() {
        let env = SensingEnvironment::generate(EnvironmentKind::Crowded, 8, 3);
        let mut fast = sim_with_engine(&env, EngineKind::FastForward);
        let mut tick = sim_with_engine(&env, EngineKind::Tick);
        fast.set_fault_injector(Box::new(Blind));
        tick.set_fault_injector(Box::new(Blind));
        while fast.step() {}
        while tick.step() {}
        assert_eq!(fast.metrics(), tick.metrics());
        let h = fast.horizon_stats();
        assert_eq!(
            h.total_skipped_ticks(),
            0,
            "every tick must reach the injector"
        );
        assert_eq!(h.total_ref_ticks(), fast.metrics().sim_time.as_millis());
        assert!(
            h.cause(HorizonCause::FaultCollapse).ref_ticks > h.total_ref_ticks() / 2,
            "{}",
            h.ranking(None).render()
        );
    }

    #[test]
    fn save_fails_under_a_snapshot_blind_injector() {
        let env = SensingEnvironment::generate(EnvironmentKind::LessCrowded, 5, 8);
        let mut s = sim(&env, 0.05);
        s.set_fault_injector(Box::new(Blind));
        s.step();
        assert!(s
            .save_state()
            .unwrap_err()
            .contains("does not support snapshots"));
    }

    #[test]
    fn restore_with_uplink_resumes_the_channel_stream() {
        let env = SensingEnvironment::generate(EnvironmentKind::Crowded, 20, 3);
        let build = || {
            let mut s = sim(&env, 0.05);
            s.set_uplink(UplinkPort::new(crate::uplink::UplinkConfig::default(), 9));
            s.set_uplink_busy_probability(0.4);
            s
        };
        let mut reference = build();
        while reference.step() {}
        let m_ref = reference.metrics().clone();

        let mut a = build();
        a.step_until(SimTime::from_millis(40_007));
        let snap = a.save_state().unwrap();
        assert!(snap.uplink.is_some());
        let mut b = build();
        b.restore_state(&snap).unwrap();
        while b.step() {}
        assert_eq!(b.metrics(), &m_ref, "uplink stream must resume bit-exactly");
    }

    /// A fleet holds one `Simulation` per device, so its inline size is
    /// the per-device floor. Profiling data (phase timings, kernel work
    /// counts, span-length distributions) lives behind the profiler's
    /// box; these bounds keep it from creeping back inline.
    #[test]
    fn simulation_footprint_stays_small() {
        let horizon = std::mem::size_of::<HorizonStats>();
        let sim = std::mem::size_of::<Simulation<'_>>();
        assert!(horizon <= 256, "HorizonStats grew to {horizon} bytes");
        assert!(sim <= 2_200, "Simulation grew to {sim} bytes");
    }

    /// A recorded fault campaign holds hundreds of thousands of events,
    /// so the event's inline size is most of the recorder's memory.
    /// These bounds keep a wide field or an inline payload from
    /// creeping back into it.
    #[test]
    fn event_stays_small() {
        let event = std::mem::size_of::<qz_obs::Event>();
        let candidate = std::mem::size_of::<qz_obs::CandidateEval>();
        let option = std::mem::size_of::<qz_obs::OptionEval>();
        assert!(event <= 64, "Event grew to {event} bytes");
        assert!(candidate <= 24, "CandidateEval grew to {candidate} bytes");
        assert!(option <= 16, "OptionEval grew to {option} bytes");
    }
}
