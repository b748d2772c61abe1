//! The division-free firmware path: Algorithms 1 and 2 in pure integer
//! arithmetic.
//!
//! The paper's hardware module removes the `P_exe / P_in` division from
//! `S_e2e` (Algorithm 3). The *remaining* arithmetic in Algorithms 1–2 is
//! also division-free once the history windows are powers of two:
//!
//! - execution probability × S_e2e:
//!   `(ones(task) · S_e2e) >> log2(task_window)`
//! - Little's Law `λ · E[S]` (with λ = stored fraction × capture rate):
//!   `(ones(arrivals) · E[S]) >> log2(arrival_window)` followed by one
//!   Q16 multiplication by the capture rate.
//!
//! [`McuEngine`] is therefore the complete scheduling + IBO-reaction
//! engine exactly as MSP430-class firmware would run it: ADC codes in,
//! Q16.16 fixed point throughout, shifts and lookups instead of
//! divisions. It is `no_std` and allocation-light (windows only), and
//! the test suite checks its decisions against the floating-point
//! reference runtime.

use crate::model::{AppSpec, JobId};
use crate::window::BitWindow;
use alloc::vec::Vec;
use qz_hw::{se2e_hw, PremultTable};
use qz_types::Q16;

/// A profiled task configuration as firmware stores it: the execution-
/// power diode code and the premultiplied `t_exe` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McuTaskProfile {
    /// `V_D2` ADC code recorded at profile time.
    pub vd2: u8,
    /// `t_exe · 2^(b/8)` table in Q16.16 seconds.
    pub table: PremultTable,
}

/// One task inside an [`McuEngine`] job: its per-option profiles (one
/// entry for non-degradable tasks).
#[derive(Debug, Clone)]
struct McuTask {
    options: Vec<McuTaskProfile>,
    exec_window: BitWindow,
}

/// A job: task indices plus the position of its degradable task.
#[derive(Debug, Clone)]
struct McuJob {
    tasks: Vec<usize>,
    degradable: Option<usize>,
}

/// The engine's decision for one scheduling round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McuDecision {
    /// Index into the runnable-jobs slice passed to
    /// [`McuEngine::schedule`].
    pub candidate: usize,
    /// Degradation option for the job's degradable task.
    pub option: usize,
    /// Whether an overflow was predicted at the job's highest quality.
    pub ibo_predicted: bool,
}

/// Errors from assembling an [`McuEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum McuError {
    /// A window size was not a power of two (the shifts replacing the
    /// divisions require it).
    WindowNotPowerOfTwo,
}

impl core::fmt::Display for McuError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            McuError::WindowNotPowerOfTwo => {
                write!(f, "mcu engine windows must be powers of two")
            }
        }
    }
}

#[cfg(feature = "std")]
impl std::error::Error for McuError {}

/// The integer-only scheduler + IBO engine.
#[derive(Debug, Clone)]
pub struct McuEngine {
    tasks: Vec<McuTask>,
    jobs: Vec<McuJob>,
    arrival_window: BitWindow,
    task_window_log2: u32,
    arrival_window_log2: u32,
    /// Capture rate in Q16 Hz (the one multiplication the paper's cost
    /// model allows per term).
    capture_rate: Q16,
}

impl McuEngine {
    /// Builds the engine from a spec and a profiling pass: `profile`
    /// returns the `V_D2` code and premultiplied table for each
    /// `(task index, option index)`.
    ///
    /// # Errors
    ///
    /// Returns [`McuError::WindowNotPowerOfTwo`] unless both windows are
    /// powers of two (they are in the paper: 64 and 256).
    pub fn new(
        spec: &AppSpec,
        task_window: usize,
        arrival_window: usize,
        capture_rate_hz: f64,
        mut profile: impl FnMut(usize, usize) -> McuTaskProfile,
    ) -> Result<McuEngine, McuError> {
        if !task_window.is_power_of_two() || !arrival_window.is_power_of_two() {
            return Err(McuError::WindowNotPowerOfTwo);
        }
        let tasks = spec
            .tasks()
            .iter()
            .enumerate()
            .map(|(t, task_spec)| McuTask {
                options: (0..task_spec.option_count())
                    .map(|o| profile(t, o))
                    .collect(),
                exec_window: BitWindow::new(task_window),
            })
            .collect();
        let jobs = spec
            .jobs()
            .iter()
            .map(|j| McuJob {
                tasks: j.tasks.iter().map(|t| t.index()).collect(),
                degradable: j.degradable,
            })
            .collect();
        Ok(McuEngine {
            tasks,
            jobs,
            arrival_window: BitWindow::new(arrival_window),
            task_window_log2: task_window.trailing_zeros(),
            arrival_window_log2: arrival_window.trailing_zeros(),
            capture_rate: Q16::from_f64(capture_rate_hz),
        })
    }

    /// Records one periodic capture (stored or not) — the λ window.
    pub fn on_capture(&mut self, stored: bool) {
        self.arrival_window.push(stored);
    }

    /// Records a completed job's per-task execution bits.
    pub fn record_job(&mut self, executed: &[(usize, bool)]) {
        for &(task, ran) in executed {
            self.tasks[task].exec_window.push(ran);
        }
    }

    /// Probability-weighted `S_e2e` for a task at an option, division-free:
    /// `(se2e · ones) >> log2(window)` (empty window ⇒ probability 1).
    fn weighted_se2e(&self, task: usize, option: usize, vd1: u8) -> Q16 {
        let t = &self.tasks[task];
        let profile = &t.options[option.min(t.options.len() - 1)];
        let se2e = se2e_hw(&profile.table, vd1, profile.vd2);
        if t.exec_window.is_empty() {
            return se2e;
        }
        // The window may be partially filled; firmware uses the filled
        // count's next power of two — we shift by the full window only
        // once it is full, matching the paper's steady-state behaviour.
        if t.exec_window.filled() == t.exec_window.capacity() {
            let wide =
                (se2e.to_bits() as i64 * t.exec_window.ones() as i64) >> self.task_window_log2;
            // Clamped to i32 range on this line, so the narrowing is exact.
            #[allow(clippy::cast_possible_truncation)]
            let narrowed = wide.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32;
            Q16::from_bits(narrowed)
        } else {
            // Warm-up: treat probability as 1 (conservative).
            se2e
        }
    }

    /// A job's `E[S]` at its highest quality (Algorithm 1 body).
    fn job_expected_service(&self, job: usize, vd1: u8) -> Q16 {
        let mut es = Q16::ZERO;
        for &task in &self.jobs[job].tasks {
            es = es.saturating_add(self.weighted_se2e(task, 0, vd1));
        }
        es
    }

    /// `λ · E[S]` in Q16 inputs: `(ones(arrivals) · E[S]) >> log2(window)`
    /// then one multiplication by the capture rate.
    fn predicted_arrivals(&self, es: Q16) -> Q16 {
        let ones = if self.arrival_window.is_empty() {
            self.arrival_window.capacity() // cold start: assume all stored
        } else if self.arrival_window.filled() == self.arrival_window.capacity() {
            self.arrival_window.ones()
        } else {
            // Warm-up: scale to the full window conservatively.
            let frac_num = self.arrival_window.ones() * self.arrival_window.capacity();
            frac_num / self.arrival_window.filled().max(1)
        };
        let wide = (es.to_bits() as i64 * ones as i64) >> self.arrival_window_log2;
        // Clamped to i32 range on this line, so the narrowing is exact.
        #[allow(clippy::cast_possible_truncation)]
        let scaled = Q16::from_bits(wide.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32);
        scaled.saturating_mul(self.capture_rate)
    }

    /// One scheduling round: picks the shortest job among `runnable`
    /// (job ids), then walks its degradation options against the buffer
    /// state (Algorithm 2). `vd1` is the input-power diode code sampled
    /// now.
    ///
    /// Returns `None` when `runnable` is empty.
    pub fn schedule(
        &self,
        runnable: &[JobId],
        occupancy: u32,
        capacity: u32,
        vd1: u8,
    ) -> Option<McuDecision> {
        // Algorithm 1: shortest E[S].
        let mut best: Option<(usize, Q16)> = None;
        for (i, job) in runnable.iter().enumerate() {
            let es = self.job_expected_service(job.index(), vd1);
            if best.is_none_or(|(_, b)| es < b) {
                best = Some((i, es));
            }
        }
        let (candidate, best_es) = best?;
        let job = &self.jobs[runnable[candidate].index()];

        // Algorithm 2: Little's-Law check and the option walk.
        // Slack past `i16::MAX` saturates: Q16 holds no more.
        let slack =
            Q16::from_int(i16::try_from(capacity.saturating_sub(occupancy)).unwrap_or(i16::MAX));
        if self.predicted_arrivals(best_es) < slack {
            return Some(McuDecision {
                candidate,
                option: 0,
                ibo_predicted: false,
            });
        }
        let Some(deg_pos) = job.degradable else {
            return Some(McuDecision {
                candidate,
                option: 0,
                ibo_predicted: true,
            });
        };
        let deg_task = job.tasks[deg_pos];
        let mut non_deg = Q16::ZERO;
        for (pos, &task) in job.tasks.iter().enumerate() {
            if pos != deg_pos {
                non_deg = non_deg.saturating_add(self.weighted_se2e(task, 0, vd1));
            }
        }
        let options = self.tasks[deg_task].options.len();
        let mut cheapest = (0usize, Q16::MAX);
        for option in 0..options {
            let svc = self.weighted_se2e(deg_task, option, vd1);
            if svc < cheapest.1 {
                cheapest = (option, svc);
            }
            let es = non_deg.saturating_add(svc);
            if self.predicted_arrivals(es) < slack {
                return Some(McuDecision {
                    candidate,
                    option,
                    ibo_predicted: true,
                });
            }
        }
        Some(McuDecision {
            candidate,
            option: cheapest.0,
            ibo_predicted: true,
        })
    }
}

#[cfg(all(test, feature = "std"))]
mod tests {
    use super::*;
    use crate::model::{AppSpecBuilder, TaskCost};
    use crate::runtime::{BufferView, Quetzal, QuetzalConfig};
    use qz_hw::{premultiply_t_exe, PowerMonitor};
    use qz_types::{Hertz, Seconds, SplitMix64, Watts};

    fn spec() -> AppSpec {
        let mut b = AppSpecBuilder::new();
        let ml = b
            .degradable_task("ml")
            .option("hi", TaskCost::new(Seconds(0.5), Watts(0.005)))
            .option("lo", TaskCost::new(Seconds(0.05), Watts(0.004)))
            .finish()
            .unwrap();
        let annotate = b
            .fixed_task("annotate", TaskCost::new(Seconds(0.01), Watts(0.01)))
            .unwrap();
        let radio = b
            .degradable_task("radio")
            .option("full", TaskCost::new(Seconds(0.4), Watts(0.050)))
            .option("byte", TaskCost::new(Seconds(0.005), Watts(0.090)))
            .finish()
            .unwrap();
        b.job("process", vec![ml, annotate]).unwrap();
        b.job("report", vec![radio]).unwrap();
        b.build().unwrap()
    }

    fn engine(spec: &AppSpec, monitor: &PowerMonitor) -> McuEngine {
        McuEngine::new(spec, 64, 16, 1.0, |t, o| {
            let cost = spec.task(spec.task_id(t).unwrap()).cost(o);
            McuTaskProfile {
                vd2: monitor.sample_power(cost.p_exe),
                table: premultiply_t_exe(cost.t_exe),
            }
        })
        .unwrap()
    }

    #[test]
    fn rejects_non_power_of_two_windows() {
        let s = spec();
        let err = McuEngine::new(&s, 60, 16, 1.0, |_, _| McuTaskProfile {
            vd2: 0,
            table: premultiply_t_exe(Seconds(1.0)),
        });
        assert!(matches!(err, Err(McuError::WindowNotPowerOfTwo)));
    }

    #[test]
    fn no_pressure_keeps_full_quality() {
        let s = spec();
        let monitor = PowerMonitor::default();
        let mut e = engine(&s, &monitor);
        for _ in 0..16 {
            e.on_capture(false); // empty λ window
        }
        let runnable = [s.job_id(0).unwrap(), s.job_id(1).unwrap()];
        let vd1 = monitor.sample_power(Watts(0.030));
        let d = e.schedule(&runnable, 1, 10, vd1).unwrap();
        assert_eq!(d.option, 0);
        assert!(!d.ibo_predicted);
    }

    #[test]
    fn pressure_degrades() {
        let s = spec();
        let monitor = PowerMonitor::default();
        let mut e = engine(&s, &monitor);
        for _ in 0..16 {
            e.on_capture(true); // λ = capture rate
        }
        let runnable = [s.job_id(0).unwrap()];
        let vd1 = monitor.sample_power(Watts(0.0005)); // very dark
        let d = e.schedule(&runnable, 9, 10, vd1).unwrap();
        assert!(d.ibo_predicted);
        assert!(d.option > 0, "must degrade under pressure");
    }

    #[test]
    fn execution_probability_weighting_uses_shifts() {
        let s = spec();
        let monitor = PowerMonitor::default();
        let mut e = engine(&s, &monitor);
        // annotate (task 1) ran for half the jobs → its weighted S_e2e
        // halves once the window fills.
        for i in 0..64 {
            e.record_job(&[(1, i % 2 == 0)]);
        }
        let vd1 = monitor.sample_power(Watts(0.050)); // bright: S=t_exe
        let weighted = e.weighted_se2e(1, 0, vd1).to_f64();
        assert!((weighted - 0.005).abs() < 0.002, "weighted {weighted}");
    }

    /// The headline equivalence claim: over random scenarios the integer
    /// engine and the floating-point reference make the same degradation
    /// call in the vast majority of cases (divergence is confined to
    /// quantization boundaries).
    #[test]
    fn agrees_with_float_reference() {
        let s = spec();
        let monitor = PowerMonitor::default();
        let mut rng = SplitMix64::new(31);
        let mut agree = 0;
        let mut total = 0;

        for _ in 0..400 {
            let stored_frac = rng.next_f64();
            let occupancy = u32::try_from(rng.next_below(11)).unwrap();
            let p_in = Watts(rng.next_range(0.0005, 0.040));

            // Fresh engines with identical histories.
            let mut mcu = engine(&s, &monitor);
            let mut float_rt = Quetzal::new(
                s.clone(),
                QuetzalConfig {
                    task_window: 64,
                    arrival_window: 16,
                    capture_rate: Hertz(1.0),
                    pid_enabled: false,
                    sticky_options: false,
                    ..QuetzalConfig::default()
                },
            )
            .unwrap();
            for _ in 0..16 {
                let stored = rng.chance(stored_frac);
                mcu.on_capture(stored);
                float_rt.on_capture(stored);
            }

            let runnable = [s.job_id(0).unwrap(), s.job_id(1).unwrap()];
            let vd1 = monitor.sample_power(p_in);
            let m = mcu.schedule(&runnable, occupancy, 10, vd1).unwrap();
            let f = float_rt
                .schedule(
                    &[
                        (runnable[0], Some(Seconds(2.0))),
                        (runnable[1], Some(Seconds(1.0))),
                    ],
                    BufferView {
                        occupancy,
                        capacity: 10,
                    },
                    p_in,
                )
                .unwrap();

            total += 1;
            let f_candidate = if f.job == runnable[0] { 0 } else { 1 };
            if m.candidate == f_candidate && m.option == usize::from(f.option) {
                agree += 1;
            }
        }
        let rate = agree as f64 / total as f64;
        assert!(rate > 0.85, "agreement rate {rate} ({agree}/{total})");
    }

    #[test]
    fn empty_runnable_is_none() {
        let s = spec();
        let monitor = PowerMonitor::default();
        let e = engine(&s, &monitor);
        assert_eq!(e.schedule(&[], 0, 10, 100), None);
    }
}
