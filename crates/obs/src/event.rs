//! The typed event taxonomy: every decision the paper's algorithms make,
//! plus the device transitions that frame them.

use alloc::boxed::Box;

/// One observable occurrence, stamped with device time.
///
/// Sized for the recording sinks, which hold hundreds of thousands of
/// these per fault campaign: 64 bytes, with index-like fields in the
/// narrowest type their source bounds (job indices `u32`, option
/// indices `u8` below quetzal's four options per task, occupancy and
/// capacity `u32` since the simulator's buffer refuses a larger
/// capacity) and variable-length payloads in exactly-sized boxed
/// slices.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Device time in milliseconds (simulated time under `qz-sim`; a
    /// firmware port would feed its own timer).
    pub t_ms: u64,
    /// What happened.
    pub kind: EventKind,
}

/// One candidate the scheduler evaluated (Algorithm 1's `E[S]` loop).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateEval {
    /// Job index in the application spec.
    pub job: u32,
    /// The candidate's expected service time `E[S]` at its current
    /// configuration, seconds (no PID correction).
    pub expected_service_s: f64,
    /// Age of the candidate's oldest queued input, seconds.
    pub oldest_input_age_s: f64,
    /// Whether this candidate won.
    pub selected: bool,
}

/// One degradation option the IBO engine considered (Algorithm 2's
/// quality-ordered walk).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptionEval {
    /// Option index (0 = highest quality).
    pub option: u8,
    /// The job's `E[S]` with the degradable task at this option,
    /// seconds (PID-corrected, like the engine's own test).
    pub expected_service_s: f64,
    /// Whether Little's Law predicts the buffer overflows while the job
    /// runs at this option.
    pub predicts_overflow: bool,
}

/// A periodic device-state snapshot (the telemetry channel, riding the
/// same observer hook as the decision events).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Snapshot {
    /// Environment irradiance fraction.
    pub irradiance: f64,
    /// Usable stored energy, joules.
    pub stored_j: f64,
    /// Whether the device is powered on.
    pub on: bool,
    /// Buffer occupancy (queued + in flight).
    pub occupancy: u32,
    /// The runtime's arrival-rate estimate λ, inputs/second.
    pub lambda: f64,
    /// The runtime's PID correction, seconds.
    pub correction_s: f64,
    /// Degradation option of the executing job (`None` when idle).
    pub active_option: Option<u8>,
    /// Cumulative IBO discards so far.
    pub ibo_discards: u64,
}

/// Everything that can be observed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EventKind {
    // --- Runtime decisions (emitted by `quetzal`) ---
    /// Algorithm 1 picked a job, with the per-candidate `E[S]`
    /// breakdown it ranked.
    SchedulerPick {
        /// The winning job's index.
        job: u32,
        /// The winner's `E[S]` at its highest quality, seconds
        /// (PID-corrected — what the IBO engine will test).
        expected_service_s: f64,
        /// The PID correction folded into predictions, seconds.
        correction_s: f64,
        /// Predicted input power used for the `S_e2e` scaling, watts.
        p_in_w: f64,
        /// Every candidate evaluated, in candidate order.
        candidates: Box<[CandidateEval]>,
    },
    /// Algorithm 2 ran for the scheduled job: the Little's-Law
    /// prediction and the option walk.
    IboDecision {
        /// The scheduled job's index.
        job: u32,
        /// Arrival-rate estimate λ, inputs/second.
        lambda: f64,
        /// Buffer occupancy when the decision was made.
        occupancy: u32,
        /// Buffer capacity.
        capacity: u32,
        /// The job's `E[S]` at highest quality, seconds (corrected).
        expected_service_s: f64,
        /// Predicted arrivals while the job runs: `λ · E[S]`.
        predicted_arrivals: f64,
        /// Whether an overflow was predicted at highest quality.
        ibo_predicted: bool,
        /// Whether every option still overflows (engine fell back to
        /// the minimum-`S_e2e` option).
        unavoidable: bool,
        /// The option the engine chose (0 = highest quality).
        chosen_option: u8,
        /// The full quality-ordered walk, including rejected options.
        /// Empty when the job has no degradable task.
        options: Box<[OptionEval]>,
    },
    /// The PID error loop updated after a job completed (§4.3).
    PidUpdate {
        /// The completed job's index.
        job: u32,
        /// The model's raw `E[S]` prediction, seconds.
        predicted_s: f64,
        /// The observed end-to-end service time, seconds.
        observed_s: f64,
        /// The error fed to the controller (`observed − predicted`).
        error_s: f64,
        /// The controller's new output correction, seconds.
        correction_s: f64,
    },
    /// A job finished and its observation was fed back to the trackers.
    JobComplete {
        /// The job's index.
        job: u32,
        /// Observed end-to-end service time, seconds.
        observed_s: f64,
    },

    // --- Simulator transitions (emitted by `qz-sim`) ---
    /// A dispatched job began executing.
    JobStart {
        /// The job's index.
        job: u32,
        /// The degradation option it runs at.
        option: u8,
        /// Buffer occupancy at dispatch (including this input).
        occupancy: u32,
    },
    /// An input passed pre-filtering and was stored in the buffer.
    BufferAdmit {
        /// The entry job it was queued for.
        job: u32,
        /// Occupancy after the store.
        occupancy: u32,
        /// Ground truth: was the frame interesting?
        interesting: bool,
    },
    /// An input arrived to a full buffer and was lost (the paper's
    /// headline failure).
    IboDiscard {
        /// Occupancy at the discard (== capacity).
        occupancy: u32,
        /// Ground truth: was the lost frame interesting?
        interesting: bool,
        /// Whether the device was powered off at the time.
        device_on: bool,
        /// Degradation option of the job executing at the time
        /// (`None` when idle or off).
        active_option: Option<u8>,
    },
    /// Stored energy fell to the checkpoint reserve and the device
    /// powered down.
    PowerFailure {
        /// Whether a just-in-time checkpoint preserved progress.
        checkpointed: bool,
    },
    /// A periodic/boundary checkpoint was taken while running.
    Checkpoint,
    /// The capacitor recharged past the turn-on threshold and the
    /// device came back.
    Restore {
        /// How long the device was off, milliseconds.
        off_ms: u64,
    },
    /// A transmit attempt was refused by the shared-uplink gate
    /// (carrier sense found the channel busy, or the duty-cycle budget
    /// for the current window was spent) and the job is waiting to
    /// retry.
    TxBackoff {
        /// How long the device waits before re-sensing, milliseconds.
        wait_ms: u64,
        /// `true` when the refusal was a duty-budget deferral rather
        /// than a busy carrier sense.
        duty_capped: bool,
    },
    /// A periodic telemetry snapshot.
    Snapshot(Snapshot),
    /// The fault layer injected an adversarial perturbation (see
    /// `qz-sim`'s fault hooks / the `qz-fault` crate).
    FaultInjected {
        /// Stable fault-class label: `power_failure`,
        /// `checkpoint_corruption`, `adc_misread`, `clock_jitter`,
        /// `input_burst`, or `uplink_jam`.
        fault: &'static str,
    },
}

impl EventKind {
    /// A short stable name for exports and aggregation.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SchedulerPick { .. } => "scheduler_pick",
            EventKind::IboDecision { .. } => "ibo_decision",
            EventKind::PidUpdate { .. } => "pid_update",
            EventKind::JobComplete { .. } => "job_complete",
            EventKind::JobStart { .. } => "job_start",
            EventKind::BufferAdmit { .. } => "buffer_admit",
            EventKind::IboDiscard { .. } => "ibo_discard",
            EventKind::PowerFailure { .. } => "power_failure",
            EventKind::Checkpoint => "checkpoint",
            EventKind::Restore { .. } => "restore",
            EventKind::TxBackoff { .. } => "tx_backoff",
            EventKind::Snapshot(_) => "snapshot",
            EventKind::FaultInjected { .. } => "fault_injected",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::vec;
    use alloc::vec::Vec;

    #[test]
    fn names_are_stable_and_distinct() {
        let kinds = vec![
            EventKind::SchedulerPick {
                job: 0,
                expected_service_s: 1.0,
                correction_s: 0.0,
                p_in_w: 0.01,
                candidates: Box::default(),
            },
            EventKind::IboDecision {
                job: 0,
                lambda: 0.5,
                occupancy: 1,
                capacity: 10,
                expected_service_s: 1.0,
                predicted_arrivals: 0.5,
                ibo_predicted: false,
                unavoidable: false,
                chosen_option: 0,
                options: Box::default(),
            },
            EventKind::PidUpdate {
                job: 0,
                predicted_s: 1.0,
                observed_s: 1.5,
                error_s: 0.5,
                correction_s: 0.01,
            },
            EventKind::JobComplete {
                job: 0,
                observed_s: 1.5,
            },
            EventKind::JobStart {
                job: 0,
                option: 0,
                occupancy: 1,
            },
            EventKind::BufferAdmit {
                job: 0,
                occupancy: 1,
                interesting: true,
            },
            EventKind::IboDiscard {
                occupancy: 10,
                interesting: false,
                device_on: true,
                active_option: Some(1),
            },
            EventKind::PowerFailure { checkpointed: true },
            EventKind::Checkpoint,
            EventKind::Restore { off_ms: 2000 },
            EventKind::TxBackoff {
                wait_ms: 400,
                duty_capped: false,
            },
            EventKind::Snapshot(Snapshot {
                irradiance: 0.5,
                stored_j: 0.1,
                on: true,
                occupancy: 2,
                lambda: 0.3,
                correction_s: 0.0,
                active_option: None,
                ibo_discards: 0,
            }),
            EventKind::FaultInjected {
                fault: "power_failure",
            },
        ];
        let mut names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "event names must be distinct");
    }
}
