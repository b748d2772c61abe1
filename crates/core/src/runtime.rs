//! The Quetzal runtime facade: scheduler + IBO engine + trackers + PID.
//!
//! [`Quetzal`] owns the pieces and exposes the narrow interface a device
//! firmware (or the simulator in `qz-sim`) drives:
//!
//! - [`Quetzal::on_capture`] after every periodic capture (stored or
//!   discarded) — feeds the arrival-rate tracker.
//! - [`Quetzal::schedule`] when the device is ready to process a buffered
//!   input — runs the scheduling policy, applies the PID correction, and
//!   runs the degradation policy; returns a [`Decision`].
//! - [`Quetzal::observe_task`] / [`Quetzal::on_job_complete`] after
//!   execution — feed the estimator, execution-probability windows and
//!   the PID error loop.
//!
//! Baselines are built with [`Quetzal::builder`] by swapping the
//! scheduling policy, degradation policy, or service estimator.

use crate::ibo::{DegradationContext, DegradationPolicy, IboEngine};
use crate::model::{AppSpec, JobId, SpecError, TaskId, TaskKey};
use crate::pid::{Pid, PidConfig, PidState};
use crate::policy::{EnergyAwareSjf, JobCandidate, SchedulerInputs, SchedulingPolicy};
use crate::power::{Instantaneous, PowerPredictor, PredictorState};
use crate::service::{EnergyAwareEstimator, EstimatorState, ServiceEstimator};
use crate::trackers::{ArrivalTracker, ExecutionTracker};
use crate::window::BitWindowState;
use alloc::boxed::Box;
use alloc::format;
use alloc::string::String;
use alloc::vec;
use alloc::vec::Vec;
use qz_obs::{CandidateEval, EventKind, Observer, ObserverHandle, OptionEval};
use qz_types::{Hertz, Seconds, Watts};

/// Runtime configuration (paper Table 1 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct QuetzalConfig {
    /// Bits of per-task execution history (`<task-window>`, default 64).
    pub task_window: usize,
    /// Bits of capture/arrival history (`<arrival-window>`). The paper's
    /// Table 1 uses 256; our default is 32 because the synthetic event
    /// generator produces shorter events than the paper's surveillance
    /// dataset, and λ must track in-event arrival rates to be useful (16
    /// captures; see the Fig. 14 arrival-window sweep and EXPERIMENTS.md).
    pub arrival_window: usize,
    /// The device's fixed capture rate (default 1 FPS).
    pub capture_rate: Hertz,
    /// PID gains for prediction-error mitigation.
    pub pid: PidConfig,
    /// Disables the PID loop entirely (ablation knob; the paper always
    /// runs with it on).
    pub pid_enabled: bool,
    /// When `true` (default), Algorithm 1 evaluates each task at the
    /// degradation option the IBO engine last selected for it ("sticky"
    /// configuration) instead of always at its highest quality. Without
    /// this, a job whose degradable task is expensive at current power
    /// can starve under SJF even though the IBO engine would degrade it
    /// to a cheap option the moment it ran — pinning the buffer at
    /// capacity (see the `ablate_sticky` bench for the effect).
    pub sticky_options: bool,
    /// When set, `predictInputPower()` smooths measurements with an EWMA
    /// of this α instead of using them directly (extension; the paper
    /// uses instantaneous measurements).
    pub power_ewma_alpha: Option<f64>,
}

impl Default for QuetzalConfig {
    fn default() -> QuetzalConfig {
        QuetzalConfig {
            task_window: 64,
            arrival_window: 16,
            capture_rate: Hertz(1.0),
            pid: PidConfig::default(),
            pid_enabled: true,
            sticky_options: true,
            power_ewma_alpha: None,
        }
    }
}

/// A snapshot of the shared input buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferView {
    /// Inputs currently stored.
    pub occupancy: u32,
    /// Maximum inputs the buffer can hold.
    pub capacity: u32,
}

/// The runtime's scheduling decision for one job execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The job to execute.
    pub job: JobId,
    /// Degradation option for the job's degradable task (0 = highest
    /// quality; always 0 for jobs without one). Below
    /// [`MAX_OPTIONS`](crate::model::MAX_OPTIONS), so a `u8`.
    pub option: u8,
    /// Predicted `E[S]` for the job at the selected option, including the
    /// PID correction. Compared against the observed service time in
    /// [`Quetzal::on_job_complete`].
    pub expected_service: Seconds,
    /// Whether an IBO was predicted at the job's highest quality.
    pub ibo_predicted: bool,
    /// Whether even the cheapest option is predicted to overflow.
    pub unavoidable: bool,
    /// The arrival-rate estimate used (inputs/second).
    pub lambda: f64,
}

/// The assembled Quetzal runtime. See the [crate docs](crate) for a
/// worked example.
#[derive(Debug)]
pub struct Quetzal {
    spec: AppSpec,
    config: QuetzalConfig,
    exec: ExecutionTracker,
    arrivals: ArrivalTracker,
    pid: Pid,
    policy: Box<dyn SchedulingPolicy>,
    degradation: Box<dyn DegradationPolicy>,
    estimator: Box<dyn ServiceEstimator>,
    power_predictor: Box<dyn PowerPredictor>,
    last_prediction: Option<(JobId, Seconds)>,
    /// Each task's current degradation option (sticky: what the IBO
    /// engine last selected for it).
    current_options: Vec<u8>,
    /// Decision-tracing hook (`qz-obs`). Defaults to the disabled noop,
    /// so emission sites cost one cached-boolean test per decision.
    observer: ObserverHandle,
    /// Scheduling-round scratch, reused across calls: the candidate
    /// list rebuilt every round. In a crowded run [`Quetzal::schedule`]
    /// fires every tick (the engine's busy-scheduler regime), so these
    /// were the hottest allocation sites after the engine's own
    /// scratch.
    scratch_candidates: Vec<JobCandidate>,
    /// Scheduling-round scratch: the per-option degradable services.
    scratch_options: Vec<Seconds>,
}

impl Quetzal {
    /// Creates the full Quetzal system: Energy-aware SJF scheduling, the
    /// IBO engine, and the exact energy-aware service model.
    ///
    /// # Errors
    ///
    /// Currently infallible for a valid [`AppSpec`], but returns
    /// `Result` so configuration validation can grow without breaking
    /// callers.
    pub fn new(spec: AppSpec, config: QuetzalConfig) -> Result<Quetzal, SpecError> {
        Quetzal::builder(spec).config(config).build()
    }

    /// Starts a builder for custom policy/estimator combinations
    /// (baselines, hardware-assisted estimation, ablations).
    pub fn builder(spec: AppSpec) -> QuetzalBuilder {
        QuetzalBuilder {
            spec,
            config: QuetzalConfig::default(),
            policy: None,
            degradation: None,
            estimator: None,
            power_predictor: None,
        }
    }

    /// The application specification.
    pub fn spec(&self) -> &AppSpec {
        &self.spec
    }

    /// The active configuration.
    pub fn config(&self) -> &QuetzalConfig {
        &self.config
    }

    /// Installs a decision-tracing observer (see `qz-obs`). The runtime
    /// emits [`EventKind::SchedulerPick`], [`EventKind::IboDecision`],
    /// [`EventKind::PidUpdate`] and [`EventKind::JobComplete`]; the
    /// driver (simulator or firmware) is expected to route its own
    /// transition events through [`Quetzal::emit_event`] so one sink
    /// sees the whole stream.
    pub fn set_observer(&mut self, observer: Box<dyn Observer>) {
        self.observer.install(observer);
    }

    /// Removes the installed observer (a disabled noop takes its
    /// place), returning it so sinks can be drained.
    pub fn take_observer(&mut self) -> Box<dyn Observer> {
        self.observer.take()
    }

    /// Whether an enabled observer is installed. Drivers should guard
    /// event construction on this, exactly like the runtime does.
    #[inline]
    pub fn observing(&self) -> bool {
        self.observer.enabled()
    }

    /// Advances the device clock used to stamp emitted events,
    /// milliseconds. Drivers call this once per tick.
    #[inline]
    pub fn set_time_ms(&mut self, now_ms: u64) {
        self.observer.set_now_ms(now_ms);
    }

    /// Emits a driver-side event (power transitions, buffer admits,
    /// discards…) through the runtime's observer, stamped with the
    /// clock last set by [`Quetzal::set_time_ms`].
    pub fn emit_event(&mut self, kind: EventKind) {
        self.observer.emit(kind);
    }

    /// Records one periodic capture; `stored` is whether it survived
    /// pre-filtering and entered the input buffer.
    pub fn on_capture(&mut self, stored: bool) {
        self.arrivals.record_capture(stored);
    }

    /// Current arrival-rate estimate λ, inputs/second.
    pub fn lambda(&self) -> f64 {
        self.arrivals.lambda()
    }

    /// Tracked execution probability for a task.
    pub fn execution_probability(&self, task: TaskId) -> f64 {
        self.exec.probability(task)
    }

    /// Current PID correction added to `E[S]` predictions, seconds.
    pub fn correction(&self) -> Seconds {
        if self.config.pid_enabled {
            Seconds(self.pid.output())
        } else {
            Seconds::ZERO
        }
    }

    /// Feeds an observed per-task end-to-end service time to the
    /// estimator (used by history-based estimators such as the
    /// *Avg. S_e2e* baseline).
    pub fn observe_task(&mut self, key: TaskKey, observed: Seconds) {
        self.estimator.observe(key, observed);
    }

    /// Records a completed job: which tasks executed (for the
    /// execution-probability windows) and the observed end-to-end service
    /// time (for the PID error loop).
    pub fn on_job_complete(&mut self, job: JobId, executed: &[(TaskId, bool)], observed: Seconds) {
        self.exec.record_job(executed.iter().copied());
        if self.observer.enabled() {
            self.observer.emit(EventKind::JobComplete {
                job: u32::from(job),
                observed_s: observed.value(),
            });
        }
        if let Some((predicted_job, predicted)) = self.last_prediction.take() {
            if predicted_job == job {
                let error = observed.value() - predicted.value();
                let correction = self.pid.update(error);
                if self.observer.enabled() {
                    self.observer.emit(EventKind::PidUpdate {
                        job: u32::from(job),
                        predicted_s: predicted.value(),
                        observed_s: observed.value(),
                        error_s: error,
                        correction_s: correction,
                    });
                }
            }
        }
    }

    /// Runs one scheduling round.
    ///
    /// `runnable` lists every job with the age of its oldest queued input
    /// (`None` = empty queue). `buffer` is the shared input buffer state
    /// and `p_in` the measured input power.
    ///
    /// Returns `None` when no job has queued inputs.
    pub fn schedule(
        &mut self,
        runnable: &[(JobId, Option<Seconds>)],
        buffer: BufferView,
        p_in: Watts,
    ) -> Option<Decision> {
        // predictInputPower(): by default the measurement itself.
        let p_in = self.power_predictor.predict(p_in);
        // Reuse the round scratch across calls (see the field docs).
        let mut candidates = core::mem::take(&mut self.scratch_candidates);
        candidates.clear();
        candidates.extend(runnable.iter().filter_map(|&(job, age)| {
            age.map(|oldest_input_age| JobCandidate {
                job,
                oldest_input_age,
            })
        }));

        let selection = {
            let inputs = SchedulerInputs {
                spec: &self.spec,
                exec: &self.exec,
                estimator: self.estimator.as_ref(),
                p_in,
                current_options: &self.current_options,
            };
            self.policy.select(&inputs, &candidates)
        };
        let Some(selection) = selection else {
            self.scratch_candidates = candidates;
            return None;
        };
        let job = candidates[selection.index].job;
        let correction = self.correction();

        // Decompose the job's E[S] into non-degradable and per-option
        // degradable contributions for the reaction walk (Algorithm 2).
        let job_spec = self.spec.job(job);
        let mut non_degradable = Seconds::ZERO;
        let mut option_services = core::mem::take(&mut self.scratch_options);
        option_services.clear();
        for &task in &job_spec.tasks {
            let task_spec = self.spec.task(task);
            let prob = self.exec.probability(task);
            if task_spec.is_degradable() {
                option_services.clear();
                option_services.extend((0..task_spec.option_count()).map(|o| {
                    // o < MAX_OPTIONS (4), so the cast is exact.
                    #[allow(clippy::cast_possible_truncation)]
                    let key = TaskKey {
                        task,
                        option: o as u8,
                    };
                    self.estimator.predict(key, task_spec.cost(o), p_in) * prob
                }));
            } else {
                non_degradable +=
                    self.estimator
                        .predict(TaskKey::best(task), task_spec.best_cost(), p_in)
                        * prob;
            }
        }

        // IBO detection always starts from the job at its highest
        // quality (Algorithm 2 walks the quality-ordered list fresh on
        // every invocation), regardless of the configuration the
        // scheduler ranked the job at.
        let best_service = if option_services.is_empty() {
            selection.expected_service
        } else {
            non_degradable + option_services[0]
        };
        let corrected_best = (best_service + correction).max(Seconds::ZERO);
        let lambda = self.arrivals.lambda();
        let ctx = DegradationContext {
            lambda,
            occupancy: buffer.occupancy,
            capacity: buffer.capacity,
            expected_service: corrected_best,
            non_degradable_service: (non_degradable + correction).max(Seconds::ZERO),
            option_services: &option_services,
            p_in,
        };
        let decision = self.degradation.select_option(&ctx);
        // A degradable task has at most MAX_OPTIONS (4) options, so a
        // valid choice fits a `u8`. A policy bug past `u8::MAX`
        // saturates, which stays outside every walk and so still reads
        // as the out-of-range option it is.
        let chosen_option = u8::try_from(decision.option).unwrap_or(u8::MAX);

        // Trace the two decisions just made. Both event payloads are
        // recomputed from the same inputs the algorithms used, so the
        // disabled path (the common case) pays only these two branches.
        if self.observer.enabled() {
            let candidates_eval: Box<[CandidateEval]> = {
                let inputs = SchedulerInputs {
                    spec: &self.spec,
                    exec: &self.exec,
                    estimator: self.estimator.as_ref(),
                    p_in,
                    current_options: &self.current_options,
                };
                candidates
                    .iter()
                    .enumerate()
                    .map(|(i, cand)| CandidateEval {
                        job: u32::from(cand.job),
                        expected_service_s: crate::policy::expected_service(&inputs, cand.job)
                            .value(),
                        oldest_input_age_s: cand.oldest_input_age.value(),
                        selected: i == selection.index,
                    })
                    .collect()
            };
            self.observer.emit(EventKind::SchedulerPick {
                job: u32::from(job),
                expected_service_s: corrected_best.value(),
                correction_s: correction.value(),
                p_in_w: p_in.value(),
                candidates: candidates_eval,
            });

            // Replay Algorithm 2's quality-ordered walk for the log. A
            // degradable task has at most MAX_OPTIONS (4) options, so
            // numbering them from a `u8` range is exact.
            let options: Box<[OptionEval]> = (0u8..)
                .zip(&option_services)
                .map(|(o, &svc)| {
                    let es = ctx.non_degradable_service + svc;
                    OptionEval {
                        option: o,
                        expected_service_s: es.value(),
                        predicts_overflow: ctx.predicts_overflow(es),
                    }
                })
                .collect();
            self.observer.emit(EventKind::IboDecision {
                job: u32::from(job),
                lambda,
                occupancy: buffer.occupancy,
                capacity: buffer.capacity,
                expected_service_s: corrected_best.value(),
                predicted_arrivals: lambda * corrected_best.value(),
                ibo_predicted: decision.ibo_predicted,
                unavoidable: decision.unavoidable,
                chosen_option,
                options,
            });
        }

        if self.config.sticky_options {
            if let Some(task) = job_spec.degradable_task() {
                self.current_options[task.index()] = chosen_option;
            }
        }
        debug_assert!(
            decision.option == 0 || decision.option < option_services.len(),
            "degradation policy returned an out-of-range option"
        );

        // Tell the estimator what will run, so it can normalize the
        // observations that follow (used by the variable-cost extension).
        for &task in &job_spec.tasks {
            let task_spec = self.spec.task(task);
            let option = if task_spec.is_degradable() {
                chosen_option
            } else {
                0
            };
            let key = TaskKey { task, option };
            self.estimator
                .note_scheduled(key, task_spec.cost(usize::from(option)), p_in);
        }

        let selected_service = if option_services.is_empty() {
            corrected_best
        } else {
            (non_degradable + correction + option_services[decision.option]).max(Seconds::ZERO)
        };
        // The PID scores the *model's* prediction (without its own
        // correction folded in); otherwise the controller cancels itself
        // out instead of tracking the model's bias.
        let raw_prediction = if option_services.is_empty() {
            selection.expected_service
        } else {
            non_degradable + option_services[decision.option]
        };
        self.last_prediction = Some((job, raw_prediction));
        self.scratch_candidates = candidates;
        self.scratch_options = option_services;

        Some(Decision {
            job,
            option: chosen_option,
            expected_service: selected_service,
            ibo_predicted: decision.ibo_predicted,
            unavoidable: decision.unavoidable,
            lambda,
        })
    }

    /// Captures the runtime's evolving state for a simulation snapshot:
    /// tracker windows, the PID controller, estimator and predictor
    /// history, the pending PID prediction and the sticky degradation
    /// options. Spec and configuration are *not* captured — a snapshot
    /// restores into a runtime built from the same config.
    pub fn save_state(&self) -> RuntimeState {
        RuntimeState {
            exec: self.exec.save_state(),
            arrivals: self.arrivals.save_state(),
            pid: self.pid.save_state(),
            estimator: self.estimator.save_state(),
            predictor: self.power_predictor.save_state(),
            last_prediction: self
                .last_prediction
                .map(|(job, predicted)| (job.index(), predicted)),
            current_options: self.current_options.clone(),
        }
    }

    /// Restores state captured by [`Quetzal::save_state`]. The resumed
    /// runtime makes bit-identical decisions to one that never paused.
    ///
    /// # Errors
    ///
    /// Rejects state whose shape does not match this runtime's spec and
    /// configuration (window sizes, task/job counts, estimator or
    /// predictor kind).
    pub fn restore_state(&mut self, state: &RuntimeState) -> Result<(), String> {
        if state.current_options.len() != self.current_options.len() {
            return Err(format!(
                "sticky-option count mismatch: snapshot {} vs live {}",
                state.current_options.len(),
                self.current_options.len()
            ));
        }
        let last_prediction = match state.last_prediction {
            None => None,
            Some((index, predicted)) => {
                if index >= self.spec.jobs().len() {
                    return Err(format!("pending-prediction job index {index} out of range"));
                }
                // Bounded by the spec's job count, which is u8-indexed.
                #[allow(clippy::cast_possible_truncation)]
                Some((JobId(index as u8), predicted))
            }
        };
        self.exec.restore_state(&state.exec)?;
        self.arrivals.restore_state(&state.arrivals)?;
        self.estimator.restore_state(&state.estimator)?;
        self.power_predictor.restore_state(&state.predictor)?;
        self.pid.restore_state(&state.pid);
        self.last_prediction = last_prediction;
        self.current_options.copy_from_slice(&state.current_options);
        Ok(())
    }
}

/// Serializable evolving state of a [`Quetzal`] runtime, captured by
/// [`Quetzal::save_state`]. Plain data for exact serialization.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeState {
    /// Per-task execution-probability windows.
    pub exec: Vec<BitWindowState>,
    /// The arrival-rate window.
    pub arrivals: BitWindowState,
    /// PID controller state.
    pub pid: PidState,
    /// Service-estimator history.
    pub estimator: EstimatorState,
    /// Input-power predictor state.
    pub predictor: PredictorState,
    /// Pending PID prediction: `(job index, predicted E[S])`.
    pub last_prediction: Option<(usize, Seconds)>,
    /// Each task's sticky degradation option.
    pub current_options: Vec<u8>,
}

/// Builder for [`Quetzal`] with custom components; created by
/// [`Quetzal::builder`].
#[derive(Debug)]
pub struct QuetzalBuilder {
    spec: AppSpec,
    config: QuetzalConfig,
    policy: Option<Box<dyn SchedulingPolicy>>,
    degradation: Option<Box<dyn DegradationPolicy>>,
    estimator: Option<Box<dyn ServiceEstimator>>,
    power_predictor: Option<Box<dyn PowerPredictor>>,
}

impl QuetzalBuilder {
    /// The spec this builder will assemble around (useful for
    /// constructing spec-derived components such as the
    /// hardware-assisted estimator).
    pub fn spec(&self) -> &AppSpec {
        &self.spec
    }

    /// Sets the runtime configuration.
    pub fn config(mut self, config: QuetzalConfig) -> QuetzalBuilder {
        self.config = config;
        self
    }

    /// Replaces the scheduling policy (default: [`EnergyAwareSjf`]).
    pub fn policy(mut self, policy: Box<dyn SchedulingPolicy>) -> QuetzalBuilder {
        self.policy = Some(policy);
        self
    }

    /// Replaces the degradation policy (default: [`IboEngine`]).
    pub fn degradation(mut self, degradation: Box<dyn DegradationPolicy>) -> QuetzalBuilder {
        self.degradation = Some(degradation);
        self
    }

    /// Replaces the service estimator (default:
    /// [`EnergyAwareEstimator`]).
    pub fn estimator(mut self, estimator: Box<dyn ServiceEstimator>) -> QuetzalBuilder {
        self.estimator = Some(estimator);
        self
    }

    /// Replaces the input-power predictor (default:
    /// [`Instantaneous`] — the paper uses each measurement directly).
    pub fn power_predictor(mut self, predictor: Box<dyn PowerPredictor>) -> QuetzalBuilder {
        self.power_predictor = Some(predictor);
        self
    }

    /// Assembles the runtime.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidConfig`] for configurations the
    /// runtime cannot operate on: zero estimator windows, a
    /// non-positive or non-finite capture rate, a PID config the
    /// controller constructor would panic on, or an out-of-range EWMA
    /// coefficient. (`qz-check` flags the same conditions as `QZ040`/
    /// `QZ042` diagnostics before a simulation is ever built.)
    pub fn build(self) -> Result<Quetzal, SpecError> {
        validate_config(&self.config)?;
        let exec = ExecutionTracker::new(&self.spec, self.config.task_window);
        let arrivals = ArrivalTracker::new(self.config.arrival_window, self.config.capture_rate);
        let pid = Pid::new(self.config.pid);
        let current_options = vec![0; self.spec.tasks().len()];
        let ewma_alpha = self.config.power_ewma_alpha;
        Ok(Quetzal {
            spec: self.spec,
            config: self.config,
            exec,
            arrivals,
            pid,
            policy: self
                .policy
                .unwrap_or_else(|| Box::new(EnergyAwareSjf::new())),
            degradation: self
                .degradation
                .unwrap_or_else(|| Box::new(IboEngine::new())),
            estimator: self
                .estimator
                .unwrap_or_else(|| Box::new(EnergyAwareEstimator::new())),
            power_predictor: self.power_predictor.unwrap_or_else(|| match ewma_alpha {
                Some(alpha) => Box::new(crate::power::Ewma::new(alpha)),
                None => Box::new(Instantaneous::new()),
            }),
            last_prediction: None,
            current_options,
            observer: ObserverHandle::noop(),
            scratch_candidates: Vec::new(),
            scratch_options: Vec::new(),
        })
    }
}

/// Rejects configurations the runtime cannot operate on. Kept in exact
/// agreement with `Pid::new`'s panics and the trackers' requirements so
/// a successful `build()` can never panic on construction.
fn validate_config(config: &QuetzalConfig) -> Result<(), SpecError> {
    if config.task_window == 0 {
        return Err(SpecError::InvalidConfig {
            field: "task_window",
        });
    }
    if config.arrival_window == 0 {
        return Err(SpecError::InvalidConfig {
            field: "arrival_window",
        });
    }
    let rate = config.capture_rate.value();
    if !rate.is_finite() || rate <= 0.0 {
        return Err(SpecError::InvalidConfig {
            field: "capture_rate",
        });
    }
    let pid = &config.pid;
    if !(pid.kp.is_finite() && pid.ki.is_finite() && pid.kd.is_finite()) {
        return Err(SpecError::InvalidConfig { field: "pid.gains" });
    }
    if !(pid.tau.is_finite() && pid.tau > 0.0) {
        return Err(SpecError::InvalidConfig { field: "pid.tau" });
    }
    if !(pid.sample_time.is_finite() && pid.sample_time > 0.0) {
        return Err(SpecError::InvalidConfig {
            field: "pid.sample_time",
        });
    }
    let (lo, hi) = pid.output_limits;
    if !(lo.is_finite() && hi.is_finite()) || lo > hi {
        return Err(SpecError::InvalidConfig {
            field: "pid.output_limits",
        });
    }
    if let Some(alpha) = config.power_ewma_alpha {
        if !alpha.is_finite() || alpha <= 0.0 || alpha > 1.0 {
            return Err(SpecError::InvalidConfig {
                field: "power_ewma_alpha",
            });
        }
    }
    Ok(())
}

#[cfg(test)]
// Many assertions here pin values that are copied or computed exactly
// (literals, dyadic fractions, pass-through accessors); strict float
// comparison is the point.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::model::{AppSpecBuilder, TaskCost};

    fn cost(t: f64, p: f64) -> TaskCost {
        TaskCost::new(Seconds(t), Watts(p))
    }

    /// Person-detection-like spec: Job0 = degradable ML + fixed compress,
    /// Job1 = degradable radio.
    fn spec() -> (AppSpec, JobId, JobId, TaskId, TaskId, TaskId) {
        let mut b = AppSpecBuilder::new();
        let ml = b
            .degradable_task("ml")
            .option("mobilenet", cost(3.0, 0.020))
            .option("lenet", cost(0.3, 0.015))
            .finish()
            .unwrap();
        let compress = b.fixed_task("compress", cost(0.2, 0.015)).unwrap();
        let radio = b
            .degradable_task("radio")
            .option("full", cost(2.5, 0.400))
            .option("byte", cost(0.05, 0.400))
            .finish()
            .unwrap();
        let process = b.job("process", vec![ml, compress]).unwrap();
        let report = b.job("report", vec![radio]).unwrap();
        (b.build().unwrap(), process, report, ml, compress, radio)
    }

    fn quetzal() -> (Quetzal, JobId, JobId) {
        let (spec, process, report, ..) = spec();
        (
            Quetzal::new(spec, QuetzalConfig::default()).unwrap(),
            process,
            report,
        )
    }

    #[test]
    fn build_rejects_invalid_configs() {
        let cases: Vec<(QuetzalConfig, &str)> = vec![
            (
                QuetzalConfig {
                    task_window: 0,
                    ..QuetzalConfig::default()
                },
                "task_window",
            ),
            (
                QuetzalConfig {
                    arrival_window: 0,
                    ..QuetzalConfig::default()
                },
                "arrival_window",
            ),
            (
                QuetzalConfig {
                    capture_rate: Hertz(0.0),
                    ..QuetzalConfig::default()
                },
                "capture_rate",
            ),
            (
                QuetzalConfig {
                    pid: PidConfig {
                        tau: 0.0,
                        ..PidConfig::default()
                    },
                    ..QuetzalConfig::default()
                },
                "pid.tau",
            ),
            (
                QuetzalConfig {
                    pid: PidConfig {
                        kp: f64::NAN,
                        ..PidConfig::default()
                    },
                    ..QuetzalConfig::default()
                },
                "pid.gains",
            ),
            (
                QuetzalConfig {
                    pid: PidConfig {
                        output_limits: (2.0, -2.0),
                        ..PidConfig::default()
                    },
                    ..QuetzalConfig::default()
                },
                "pid.output_limits",
            ),
            (
                QuetzalConfig {
                    power_ewma_alpha: Some(1.5),
                    ..QuetzalConfig::default()
                },
                "power_ewma_alpha",
            ),
        ];
        for (config, field) in cases {
            let (spec, ..) = spec();
            assert_eq!(
                Quetzal::new(spec, config).err(),
                Some(SpecError::InvalidConfig { field }),
                "expected rejection for {field}"
            );
        }
        // The default config still builds.
        let (spec, ..) = spec();
        assert!(Quetzal::new(spec, QuetzalConfig::default()).is_ok());
    }

    #[test]
    fn schedules_nothing_when_queues_empty() {
        let (mut qz, process, report) = quetzal();
        let d = qz.schedule(
            &[(process, None), (report, None)],
            BufferView {
                occupancy: 0,
                capacity: 10,
            },
            Watts(0.02),
        );
        assert_eq!(d, None);
    }

    #[test]
    fn picks_shortest_job_no_degradation_when_safe() {
        let (mut qz, process, report) = quetzal();
        // Plenty of power, nearly empty buffer, low arrivals.
        for _ in 0..64 {
            qz.on_capture(false);
        }
        let d = qz
            .schedule(
                &[(process, Some(Seconds(4.0))), (report, Some(Seconds(1.0)))],
                BufferView {
                    occupancy: 1,
                    capacity: 10,
                },
                Watts(1.0),
            )
            .unwrap();
        // At high power report (2.5 s) < process (3.2 s).
        assert_eq!(d.job, report);
        assert_eq!(d.option, 0);
        assert!(!d.ibo_predicted);
        assert_eq!(d.lambda, 0.0);
    }

    #[test]
    fn degrades_under_ibo_pressure() {
        let (mut qz, process, _report) = quetzal();
        // Every capture stored → λ = capture rate = 1/s.
        for _ in 0..64 {
            qz.on_capture(true);
        }
        // Low power: ML hi = 3 s × 4 = 12 s; nearly full buffer (slack 2)
        // → 12 arrivals ≥ 2: degrade.
        let d = qz
            .schedule(
                &[(process, Some(Seconds(4.0)))],
                BufferView {
                    occupancy: 8,
                    capacity: 10,
                },
                Watts(0.005),
            )
            .unwrap();
        assert!(d.ibo_predicted);
        assert!(d.option > 0, "should degrade ML under IBO pressure");
    }

    #[test]
    fn does_not_degrade_without_pressure() {
        let (mut qz, process, _report) = quetzal();
        for _ in 0..256 {
            qz.on_capture(false); // nothing stored → λ = 0
        }
        let d = qz
            .schedule(
                &[(process, Some(Seconds(0.5)))],
                BufferView {
                    occupancy: 1,
                    capacity: 10,
                },
                Watts(0.005),
            )
            .unwrap();
        assert_eq!(d.option, 0);
        assert!(!d.ibo_predicted);
    }

    #[test]
    fn lambda_tracks_capture_history() {
        let (mut qz, ..) = quetzal();
        assert_eq!(qz.lambda(), 1.0, "cold start assumes every capture stored");
        for i in 0..100 {
            qz.on_capture(i % 4 == 0);
        }
        assert!((qz.lambda() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn pid_reacts_to_underprediction() {
        let (mut qz, process, _report) = quetzal();
        for _ in 0..10 {
            qz.on_capture(true);
        }
        assert_eq!(qz.correction(), Seconds::ZERO);
        for _ in 0..20 {
            let d = qz
                .schedule(
                    &[(process, Some(Seconds(1.0)))],
                    BufferView {
                        occupancy: 2,
                        capacity: 10,
                    },
                    Watts(0.05),
                )
                .unwrap();
            // Every job takes 30 s longer than predicted.
            qz.on_job_complete(
                d.job,
                &[(TaskId(0), true), (TaskId(1), true)],
                d.expected_service + Seconds(30.0),
            );
        }
        assert!(
            qz.correction().value() > 0.0,
            "persistent under-prediction must inflate E[S]: {}",
            qz.correction()
        );
    }

    #[test]
    fn pid_disabled_keeps_zero_correction() {
        let (spec, process, ..) = spec();
        let mut qz = Quetzal::new(
            spec,
            QuetzalConfig {
                pid_enabled: false,
                ..QuetzalConfig::default()
            },
        )
        .unwrap();
        for _ in 0..5 {
            let d = qz
                .schedule(
                    &[(process, Some(Seconds(1.0)))],
                    BufferView {
                        occupancy: 2,
                        capacity: 10,
                    },
                    Watts(0.05),
                )
                .unwrap();
            qz.on_job_complete(d.job, &[], d.expected_service + Seconds(100.0));
        }
        assert_eq!(qz.correction(), Seconds::ZERO);
    }

    #[test]
    fn execution_probability_feeds_expected_service() {
        let (mut qz, process, _) = quetzal();
        // compress ran for none of the last jobs.
        for _ in 0..32 {
            qz.on_job_complete(
                process,
                &[(TaskId(0), true), (TaskId(1), false)],
                Seconds(3.0),
            );
        }
        assert_eq!(qz.execution_probability(TaskId(1)), 0.0);
        for _ in 0..64 {
            qz.on_capture(false);
        }
        let d = qz
            .schedule(
                &[(process, Some(Seconds(1.0)))],
                BufferView {
                    occupancy: 1,
                    capacity: 10,
                },
                Watts(1.0),
            )
            .unwrap();
        // E[S] = 3.0 (ML, p=1) + 0.2×0 (compress, p=0).
        assert!((d.expected_service.value() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn observe_task_reaches_estimator() {
        use crate::service::AvgObservedEstimator;
        let (spec, process, ..) = spec();
        let mut qz = Quetzal::builder(spec)
            .estimator(Box::new(AvgObservedEstimator::new()))
            .build()
            .unwrap();
        for _ in 0..64 {
            qz.on_capture(false);
        }
        // Avg estimator with no history falls back to t_exe.
        let d = qz
            .schedule(
                &[(process, Some(Seconds(1.0)))],
                BufferView {
                    occupancy: 1,
                    capacity: 10,
                },
                Watts(0.001),
            )
            .unwrap();
        assert!((d.expected_service.value() - 3.2).abs() < 1e-9);
        // Teach it that ML takes 40 s observed.
        qz.observe_task(TaskKey::best(TaskId(0)), Seconds(40.0));
        let d2 = qz
            .schedule(
                &[(process, Some(Seconds(1.0)))],
                BufferView {
                    occupancy: 1,
                    capacity: 10,
                },
                Watts(0.001),
            )
            .unwrap();
        assert!(
            d2.expected_service.value() > 39.0,
            "E[S]={}",
            d2.expected_service
        );
    }

    #[test]
    fn observer_captures_decision_stream() {
        use qz_obs::{take_recorded, RecordingObserver};
        let (mut qz, process, report) = quetzal();
        assert!(!qz.observing());
        qz.set_observer(Box::new(RecordingObserver::new()));
        assert!(qz.observing());
        qz.set_time_ms(1_000);
        for _ in 0..64 {
            qz.on_capture(true);
        }
        // IBO pressure, as in `degrades_under_ibo_pressure`.
        let d = qz
            .schedule(
                &[(process, Some(Seconds(4.0))), (report, None)],
                BufferView {
                    occupancy: 8,
                    capacity: 10,
                },
                Watts(0.005),
            )
            .unwrap();
        qz.set_time_ms(2_000);
        qz.on_job_complete(
            d.job,
            &[(TaskId(0), true), (TaskId(1), true)],
            d.expected_service + Seconds(1.0),
        );
        let mut obs = qz.take_observer();
        assert!(!qz.observing());
        let events = take_recorded(obs.as_mut()).unwrap();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            [
                "scheduler_pick",
                "ibo_decision",
                "job_complete",
                "pid_update"
            ]
        );
        assert_eq!(events[0].t_ms, 1_000);
        assert_eq!(events[2].t_ms, 2_000);
        match &events[0].kind {
            EventKind::SchedulerPick {
                job, candidates, ..
            } => {
                assert_eq!(*job, u32::from(process));
                // Only `process` had a queued input.
                assert_eq!(candidates.len(), 1);
                assert!(candidates[0].selected);
            }
            other => panic!("unexpected event {other:?}"),
        }
        match &events[1].kind {
            EventKind::IboDecision {
                ibo_predicted,
                chosen_option,
                options,
                occupancy,
                capacity,
                ..
            } => {
                assert!(*ibo_predicted);
                assert_eq!(*chosen_option, d.option);
                assert_eq!((*occupancy, *capacity), (8, 10));
                // The rejected high-quality option is in the log.
                assert!(options[0].predicts_overflow);
                assert!(!options[usize::from(d.option)].predicts_overflow);
            }
            other => panic!("unexpected event {other:?}"),
        }
        match &events[3].kind {
            EventKind::PidUpdate { error_s, .. } => {
                assert!((*error_s - 1.0).abs() < 1e-9, "err={error_s}")
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn runtime_state_roundtrip_resumes_decisions_bit_exactly() {
        let (mut a, process, report) = quetzal();
        // Build up nontrivial history: captures, decisions, completions.
        for i in 0..40_i32 {
            a.on_capture(i % 2 == 0);
            if let Some(d) = a.schedule(
                &[(process, Some(Seconds(2.0))), (report, Some(Seconds(1.0)))],
                BufferView {
                    occupancy: u32::try_from(i % 9 + 1).unwrap(),
                    capacity: 10,
                },
                Watts(0.004 + 0.001 * f64::from(i)),
            ) {
                a.on_job_complete(
                    d.job,
                    &[(TaskId(0), true), (TaskId(1), i % 3 == 0)],
                    d.expected_service + Seconds(0.5),
                );
            }
        }
        let state = a.save_state();
        let (mut b, _, _) = quetzal();
        b.restore_state(&state).unwrap();
        assert_eq!(a.lambda(), b.lambda());
        assert_eq!(a.correction().value(), b.correction().value());
        // The resumed runtime tracks the original decision-for-decision.
        for i in 0..40_i32 {
            a.on_capture(i % 3 == 0);
            b.on_capture(i % 3 == 0);
            let view = BufferView {
                occupancy: u32::try_from(i % 9 + 1).unwrap(),
                capacity: 10,
            };
            let p = Watts(0.002 + 0.0015 * f64::from(i));
            let da = a.schedule(
                &[(process, Some(Seconds(2.0))), (report, Some(Seconds(1.0)))],
                view,
                p,
            );
            let db = b.schedule(
                &[(process, Some(Seconds(2.0))), (report, Some(Seconds(1.0)))],
                view,
                p,
            );
            assert_eq!(da, db);
            if let Some(d) = da {
                let executed = [(TaskId(0), true), (TaskId(1), true)];
                let obs = d.expected_service + Seconds(0.25);
                a.on_job_complete(d.job, &executed, obs);
                b.on_job_complete(d.job, &executed, obs);
            }
        }
        assert_eq!(a.save_state(), b.save_state());
    }

    #[test]
    fn runtime_restore_rejects_mismatched_shapes() {
        let (a, ..) = quetzal();
        let state = a.save_state();
        // Different arrival window → window capacity mismatch.
        let (spec, ..) = spec();
        let mut other = Quetzal::new(
            spec,
            QuetzalConfig {
                arrival_window: 64,
                ..QuetzalConfig::default()
            },
        )
        .unwrap();
        assert!(other.restore_state(&state).is_err());
        // Out-of-range pending-prediction job index.
        let mut bad = state;
        bad.last_prediction = Some((99, Seconds(1.0)));
        let (mut b, ..) = quetzal();
        assert!(b.restore_state(&bad).is_err());
    }

    #[test]
    fn decision_reports_selected_option_service() {
        let (mut qz, process, _) = quetzal();
        for _ in 0..64 {
            qz.on_capture(true);
        }
        let d = qz
            .schedule(
                &[(process, Some(Seconds(1.0)))],
                BufferView {
                    occupancy: 9,
                    capacity: 10,
                },
                Watts(0.005),
            )
            .unwrap();
        assert!(d.option > 0);
        // Service must reflect the degraded (cheaper) option, not option 0.
        let full_quality = 3.0 * 4.0 + 0.2 * 3.0; // ML + compress at 5 mW
        assert!(d.expected_service.value() < full_quality);
    }
}
