//! Quetzal's programming model: tasks, degradation options and jobs
//! (paper §5.2).
//!
//! A *task* is an application-defined unit of computation with a profiled
//! time and power cost. A *degradable* task offers a quality-ordered list
//! of degradation options (highest quality first) that trade quality for
//! lower time/energy cost. A *job* is a sequence of tasks that processes
//! one buffered input; each job has **at most one** degradable task,
//! which is responsible for avoiding IBOs for the whole job.
//!
//! Capacity limits mirror the paper's runtime library: at most
//! [`MAX_TASKS`] tasks, [`MAX_JOBS`] jobs and [`MAX_OPTIONS`]
//! degradation options per task.

use alloc::borrow::ToOwned;
use alloc::string::String;
use alloc::vec::Vec;
use core::fmt;
use qz_types::{Seconds, Watts};

/// Maximum number of tasks the runtime supports (paper §5.1).
pub const MAX_TASKS: usize = 32;
/// Maximum number of jobs the runtime supports. A job is a sequence of
/// tasks, so the task bound is the job bound too; it keeps every job
/// index inside [`JobId`]'s `u8`.
pub const MAX_JOBS: usize = MAX_TASKS;
/// Maximum degradation options per task (paper §5.1).
pub const MAX_OPTIONS: usize = 4;

/// Identifies a task within an [`AppSpec`].
///
/// The `Default` id refers to the spec's first task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TaskId(pub(crate) u8);

impl TaskId {
    /// The task's index within the spec.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// Identifies a job within an [`AppSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub(crate) u8);

impl JobId {
    /// The job's index within the spec.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// The job's spec index in the width `qz-obs` events carry it.
impl From<JobId> for u32 {
    #[inline]
    fn from(id: JobId) -> u32 {
        u32::from(id.0)
    }
}

/// A task at a specific degradation level — the unit service-time
/// estimators and profiling tables are keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskKey {
    /// The task.
    pub task: TaskId,
    /// Degradation option index (0 = highest quality; always 0 for
    /// non-degradable tasks).
    pub option: u8,
}

impl TaskKey {
    /// Key for a task's highest-quality configuration.
    #[inline]
    pub fn best(task: TaskId) -> TaskKey {
        TaskKey { task, option: 0 }
    }
}

/// A profiled task cost: execution latency and average execution power.
///
/// The paper assumes each task has a consistent `t_exe` and `P_exe`,
/// profiled in advance (§4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskCost {
    /// Execution latency at full power.
    pub t_exe: Seconds,
    /// Average power drawn while executing.
    pub p_exe: Watts,
}

impl TaskCost {
    /// Creates a cost from latency and power.
    pub fn new(t_exe: Seconds, p_exe: Watts) -> TaskCost {
        TaskCost { t_exe, p_exe }
    }

    /// Total execution energy `t_exe · P_exe`.
    #[inline]
    pub fn energy(&self) -> qz_types::Joules {
        self.p_exe * self.t_exe
    }
}

/// One entry in a degradable task's quality-ordered option list.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationOption {
    /// Human-readable option name (e.g. `"mobilenetv2"`).
    pub name: String,
    /// Profiled cost at this quality level.
    pub cost: TaskCost,
}

/// How a task executes: at a fixed cost, or at one of several
/// quality-ordered degradation options.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskKind {
    /// A non-degradable task with a single profiled cost.
    Fixed(TaskCost),
    /// A degradable task; options are ordered highest quality first.
    Degradable(Vec<DegradationOption>),
}

/// A named task within an application.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Task name, unique within the spec.
    pub name: String,
    /// Fixed or degradable execution behaviour.
    pub kind: TaskKind,
}

impl TaskSpec {
    /// `true` if the task offers degradation options.
    #[inline]
    pub fn is_degradable(&self) -> bool {
        matches!(self.kind, TaskKind::Degradable(_))
    }

    /// Number of selectable configurations (1 for fixed tasks).
    pub fn option_count(&self) -> usize {
        match &self.kind {
            TaskKind::Fixed(_) => 1,
            TaskKind::Degradable(opts) => opts.len(),
        }
    }

    /// Cost at a given option index.
    ///
    /// # Panics
    ///
    /// Panics if `option` is out of range for this task.
    pub fn cost(&self, option: usize) -> TaskCost {
        match &self.kind {
            TaskKind::Fixed(c) => {
                assert!(option == 0, "fixed task has only option 0");
                *c
            }
            TaskKind::Degradable(opts) => opts[option].cost,
        }
    }

    /// Cost of the highest-quality configuration.
    #[inline]
    pub fn best_cost(&self) -> TaskCost {
        self.cost(0)
    }
}

/// A job: an ordered sequence of tasks processing one buffered input.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job name, unique within the spec.
    pub name: String,
    /// Tasks executed (potentially conditionally) by this job, in order.
    pub tasks: Vec<TaskId>,
    /// Index into `tasks` of the degradable task, if the job has one.
    pub degradable: Option<usize>,
}

impl JobSpec {
    /// The degradable task's id, if any.
    pub fn degradable_task(&self) -> Option<TaskId> {
        self.degradable.map(|i| self.tasks[i])
    }
}

/// A validated application specification: all tasks and jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    tasks: Vec<TaskSpec>,
    jobs: Vec<JobSpec>,
}

impl AppSpec {
    /// All tasks.
    #[inline]
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// All jobs.
    #[inline]
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Looks up a task.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this spec's builder.
    #[inline]
    pub fn task(&self, id: TaskId) -> &TaskSpec {
        &self.tasks[id.index()]
    }

    /// Looks up a job.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this spec's builder.
    #[inline]
    pub fn job(&self, id: JobId) -> &JobSpec {
        &self.jobs[id.index()]
    }

    /// The `TaskId` at a given index, if in range.
    // Bounded by MAX_TASKS (32), so the u8 casts are exact.
    #[allow(clippy::cast_possible_truncation)]
    pub fn task_id(&self, index: usize) -> Option<TaskId> {
        (index < self.tasks.len()).then_some(TaskId(index as u8))
    }

    /// The `JobId` at a given index, if in range.
    // Bounded by MAX_JOBS (32), so the u8 cast is exact.
    #[allow(clippy::cast_possible_truncation)]
    pub fn job_id(&self, index: usize) -> Option<JobId> {
        (index < self.jobs.len()).then_some(JobId(index as u8))
    }

    /// Iterates over every `(TaskKey, TaskCost)` in the spec — the set a
    /// profiling pass measures.
    // Bounded by MAX_TASKS (32) and MAX_OPTIONS (4), so the u8 casts
    // are exact.
    #[allow(clippy::cast_possible_truncation)]
    pub fn profile_entries(&self) -> impl Iterator<Item = (TaskKey, TaskCost)> + '_ {
        self.tasks.iter().enumerate().flat_map(|(t, spec)| {
            (0..spec.option_count()).map(move |o| {
                (
                    TaskKey {
                        task: TaskId(t as u8),
                        option: o as u8,
                    },
                    spec.cost(o),
                )
            })
        })
    }

    /// Total number of degradation options across all tasks (fixed tasks
    /// count 1) — the `num_degradation_options` of the paper's overhead
    /// model.
    pub fn total_options(&self) -> usize {
        self.tasks.iter().map(TaskSpec::option_count).sum()
    }
}

/// Errors from building an [`AppSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpecError {
    /// More than [`MAX_TASKS`] tasks.
    TooManyTasks,
    /// More than [`MAX_JOBS`] jobs.
    TooManyJobs,
    /// A degradable task with zero or more than [`MAX_OPTIONS`] options.
    BadOptionCount {
        /// The offending task's name.
        task: String,
    },
    /// A task cost had a non-positive latency or power.
    InvalidCost {
        /// The offending task's name.
        task: String,
    },
    /// A job referenced a task id not in the spec.
    UnknownTask {
        /// The offending job's name.
        job: String,
    },
    /// A job contained more than one degradable task (the paper requires
    /// exactly one degradable task to own IBO avoidance for the job).
    MultipleDegradable {
        /// The offending job's name.
        job: String,
    },
    /// A job had no tasks.
    EmptyJob {
        /// The offending job's name.
        job: String,
    },
    /// Two tasks or two jobs shared a name.
    DuplicateName {
        /// The duplicated name.
        name: String,
    },
    /// Two options of one degradable task shared a name, so the
    /// quality levels are indistinguishable in spans and telemetry.
    DuplicateOption {
        /// The offending task's name.
        task: String,
        /// The duplicated option name.
        option: String,
    },
    /// The spec had no jobs.
    NoJobs,
    /// A runtime configuration field was invalid (zero estimator
    /// window, non-positive capture rate, a PID config the controller
    /// rejects, …).
    InvalidConfig {
        /// Dotted path of the offending field (e.g. `pid.tau`).
        field: &'static str,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::TooManyTasks => write!(f, "at most {MAX_TASKS} tasks are supported"),
            SpecError::TooManyJobs => write!(f, "at most {MAX_JOBS} jobs are supported"),
            SpecError::BadOptionCount { task } => {
                write!(
                    f,
                    "task `{task}` needs between 1 and {MAX_OPTIONS} degradation options"
                )
            }
            SpecError::InvalidCost { task } => {
                write!(f, "task `{task}` has a non-positive or non-finite cost")
            }
            SpecError::UnknownTask { job } => write!(f, "job `{job}` references an unknown task"),
            SpecError::MultipleDegradable { job } => {
                write!(f, "job `{job}` has more than one degradable task")
            }
            SpecError::EmptyJob { job } => write!(f, "job `{job}` has no tasks"),
            SpecError::DuplicateName { name } => write!(f, "duplicate name `{name}`"),
            SpecError::DuplicateOption { task, option } => {
                write!(f, "task `{task}` has two options named `{option}`")
            }
            SpecError::NoJobs => write!(f, "application has no jobs"),
            SpecError::InvalidConfig { field } => {
                write!(f, "invalid runtime configuration field `{field}`")
            }
        }
    }
}

#[cfg(feature = "std")]
impl std::error::Error for SpecError {}

/// Builder for [`AppSpec`] (see the crate-level quickstart).
#[derive(Debug, Default)]
pub struct AppSpecBuilder {
    tasks: Vec<TaskSpec>,
    jobs: Vec<JobSpec>,
}

impl AppSpecBuilder {
    /// Starts an empty spec.
    pub fn new() -> AppSpecBuilder {
        AppSpecBuilder::default()
    }

    /// Adds a non-degradable task.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the task limit is exceeded, the name is a
    /// duplicate, or the cost is invalid.
    pub fn fixed_task(&mut self, name: &str, cost: TaskCost) -> Result<TaskId, SpecError> {
        validate_cost(name, &cost)?;
        self.push_task(TaskSpec {
            name: name.to_owned(),
            kind: TaskKind::Fixed(cost),
        })
    }

    /// Starts a degradable task; add quality-ordered options and call
    /// [`DegradableTaskBuilder::finish`].
    pub fn degradable_task<'a>(&'a mut self, name: &str) -> DegradableTaskBuilder<'a> {
        DegradableTaskBuilder {
            spec: self,
            name: name.to_owned(),
            options: Vec::new(),
        }
    }

    /// Adds a job over previously created tasks.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the job limit is exceeded, the job is
    /// empty, references unknown tasks, has more than one degradable
    /// task, or duplicates a name.
    pub fn job(&mut self, name: &str, tasks: Vec<TaskId>) -> Result<JobId, SpecError> {
        if self.jobs.len() >= MAX_JOBS {
            return Err(SpecError::TooManyJobs);
        }
        if tasks.is_empty() {
            return Err(SpecError::EmptyJob {
                job: name.to_owned(),
            });
        }
        if self.jobs.iter().any(|j| j.name == name) {
            return Err(SpecError::DuplicateName {
                name: name.to_owned(),
            });
        }
        let mut degradable = None;
        for (i, id) in tasks.iter().enumerate() {
            let spec = self
                .tasks
                .get(id.index())
                .ok_or_else(|| SpecError::UnknownTask {
                    job: name.to_owned(),
                })?;
            if spec.is_degradable() {
                if degradable.is_some() {
                    return Err(SpecError::MultipleDegradable {
                        job: name.to_owned(),
                    });
                }
                degradable = Some(i);
            }
        }
        // Bounded by the MAX_JOBS check above, so the cast is exact.
        #[allow(clippy::cast_possible_truncation)]
        let id = JobId(self.jobs.len() as u8);
        self.jobs.push(JobSpec {
            name: name.to_owned(),
            tasks,
            degradable,
        });
        Ok(id)
    }

    /// Validates and produces the final [`AppSpec`].
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::NoJobs`] if no job was added.
    pub fn build(self) -> Result<AppSpec, SpecError> {
        if self.jobs.is_empty() {
            return Err(SpecError::NoJobs);
        }
        Ok(AppSpec {
            tasks: self.tasks,
            jobs: self.jobs,
        })
    }

    fn push_task(&mut self, spec: TaskSpec) -> Result<TaskId, SpecError> {
        if self.tasks.len() >= MAX_TASKS {
            return Err(SpecError::TooManyTasks);
        }
        if self.tasks.iter().any(|t| t.name == spec.name) {
            return Err(SpecError::DuplicateName { name: spec.name });
        }
        // Bounded by the MAX_TASKS check above, so the cast is exact.
        #[allow(clippy::cast_possible_truncation)]
        let id = TaskId(self.tasks.len() as u8);
        self.tasks.push(spec);
        Ok(id)
    }
}

/// In-progress degradable task; created by
/// [`AppSpecBuilder::degradable_task`].
#[derive(Debug)]
pub struct DegradableTaskBuilder<'a> {
    spec: &'a mut AppSpecBuilder,
    name: String,
    options: Vec<DegradationOption>,
}

impl DegradableTaskBuilder<'_> {
    /// Appends the next-lower-quality option. The first option added is
    /// the highest quality; the paper requires the programmer to provide
    /// this quality ordering (§5.2).
    pub fn option(mut self, name: &str, cost: TaskCost) -> Self {
        self.options.push(DegradationOption {
            name: name.to_owned(),
            cost,
        });
        self
    }

    /// Validates and registers the task.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if there are 0 or more than [`MAX_OPTIONS`]
    /// options, a cost is invalid, or limits/names conflict.
    pub fn finish(self) -> Result<TaskId, SpecError> {
        if self.options.is_empty() || self.options.len() > MAX_OPTIONS {
            return Err(SpecError::BadOptionCount { task: self.name });
        }
        for (i, opt) in self.options.iter().enumerate() {
            validate_cost(&self.name, &opt.cost)?;
            if self.options[..i].iter().any(|prev| prev.name == opt.name) {
                return Err(SpecError::DuplicateOption {
                    task: self.name.clone(),
                    option: opt.name.clone(),
                });
            }
        }
        self.spec.push_task(TaskSpec {
            name: self.name,
            kind: TaskKind::Degradable(self.options),
        })
    }
}

fn validate_cost(task: &str, cost: &TaskCost) -> Result<(), SpecError> {
    let t = cost.t_exe.value();
    let p = cost.p_exe.value();
    if !(t.is_finite() && t > 0.0 && p.is_finite() && p > 0.0) {
        return Err(SpecError::InvalidCost {
            task: task.to_owned(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(t: f64, p: f64) -> TaskCost {
        TaskCost::new(Seconds(t), Watts(p))
    }

    fn two_job_spec() -> AppSpec {
        let mut b = AppSpecBuilder::new();
        let ml = b
            .degradable_task("ml")
            .option("hi", cost(3.0, 0.020))
            .option("lo", cost(0.3, 0.015))
            .finish()
            .unwrap();
        let compress = b.fixed_task("compress", cost(0.2, 0.015)).unwrap();
        let radio = b
            .degradable_task("radio")
            .option("full", cost(2.5, 0.4))
            .option("byte", cost(0.05, 0.4))
            .finish()
            .unwrap();
        b.job("process", vec![ml, compress]).unwrap();
        b.job("report", vec![radio]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_valid_spec() {
        let spec = two_job_spec();
        assert_eq!(spec.tasks().len(), 3);
        assert_eq!(spec.jobs().len(), 2);
        assert_eq!(spec.total_options(), 2 + 1 + 2);
        assert_eq!(spec.job(JobId(0)).degradable_task(), Some(TaskId(0)));
        assert_eq!(spec.job(JobId(1)).degradable_task(), Some(TaskId(2)));
    }

    #[test]
    fn profile_entries_cover_all_options() {
        let spec = two_job_spec();
        let entries: Vec<_> = spec.profile_entries().collect();
        assert_eq!(entries.len(), 5);
        assert_eq!(
            entries[0].0,
            TaskKey {
                task: TaskId(0),
                option: 0
            }
        );
        assert_eq!(
            entries[1].0,
            TaskKey {
                task: TaskId(0),
                option: 1
            }
        );
        assert_eq!(entries[2].0, TaskKey::best(TaskId(1)));
    }

    #[test]
    fn task_cost_energy() {
        let c = cost(3.0, 0.020);
        assert!((c.energy().value() - 0.060).abs() < 1e-12);
    }

    #[test]
    fn rejects_empty_job() {
        let mut b = AppSpecBuilder::new();
        assert_eq!(
            b.job("j", vec![]),
            Err(SpecError::EmptyJob { job: "j".into() })
        );
    }

    #[test]
    fn rejects_two_degradable_tasks_in_one_job() {
        let mut b = AppSpecBuilder::new();
        let d1 = b
            .degradable_task("d1")
            .option("a", cost(1.0, 0.01))
            .finish()
            .unwrap();
        let d2 = b
            .degradable_task("d2")
            .option("a", cost(1.0, 0.01))
            .finish()
            .unwrap();
        assert_eq!(
            b.job("j", vec![d1, d2]),
            Err(SpecError::MultipleDegradable { job: "j".into() })
        );
    }

    #[test]
    fn rejects_unknown_task() {
        let mut b = AppSpecBuilder::new();
        assert_eq!(
            b.job("j", vec![TaskId(7)]),
            Err(SpecError::UnknownTask { job: "j".into() })
        );
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut b = AppSpecBuilder::new();
        b.fixed_task("t", cost(1.0, 0.01)).unwrap();
        assert_eq!(
            b.fixed_task("t", cost(1.0, 0.01)),
            Err(SpecError::DuplicateName { name: "t".into() })
        );
        let t2 = b.fixed_task("t2", cost(1.0, 0.01)).unwrap();
        b.job("j", vec![t2]).unwrap();
        assert_eq!(
            b.job("j", vec![t2]),
            Err(SpecError::DuplicateName { name: "j".into() })
        );
    }

    #[test]
    fn rejects_bad_costs() {
        let mut b = AppSpecBuilder::new();
        assert!(matches!(
            b.fixed_task("z", cost(0.0, 0.01)),
            Err(SpecError::InvalidCost { .. })
        ));
        assert!(matches!(
            b.fixed_task("n", cost(1.0, f64::NAN)),
            Err(SpecError::InvalidCost { .. })
        ));
        assert!(matches!(
            b.degradable_task("d")
                .option("o", cost(-1.0, 0.01))
                .finish(),
            Err(SpecError::InvalidCost { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_option_names() {
        let mut b = AppSpecBuilder::new();
        assert_eq!(
            b.degradable_task("d")
                .option("same", cost(1.0, 0.01))
                .option("same", cost(0.5, 0.01))
                .finish(),
            Err(SpecError::DuplicateOption {
                task: "d".into(),
                option: "same".into(),
            })
        );
        // Identical costs under distinct names stay legal (coarse
        // profiling can collide); qz-check lints them as QZ022.
        assert!(b
            .degradable_task("d2")
            .option("a", cost(1.0, 0.01))
            .option("b", cost(1.0, 0.01))
            .finish()
            .is_ok());
    }

    #[test]
    fn rejects_option_count_extremes() {
        let mut b = AppSpecBuilder::new();
        assert_eq!(
            b.degradable_task("d").finish(),
            Err(SpecError::BadOptionCount { task: "d".into() })
        );
        let mut tb = b.degradable_task("d");
        for i in 0..5 {
            tb = tb.option(&format!("o{i}"), cost(1.0, 0.01));
        }
        assert_eq!(
            tb.finish(),
            Err(SpecError::BadOptionCount { task: "d".into() })
        );
    }

    #[test]
    fn rejects_too_many_tasks() {
        let mut b = AppSpecBuilder::new();
        for i in 0..MAX_TASKS {
            b.fixed_task(&format!("t{i}"), cost(1.0, 0.01)).unwrap();
        }
        assert_eq!(
            b.fixed_task("one-more", cost(1.0, 0.01)),
            Err(SpecError::TooManyTasks)
        );
    }

    #[test]
    fn rejects_too_many_jobs() {
        let mut b = AppSpecBuilder::new();
        let t = b.fixed_task("t", cost(1.0, 0.01)).unwrap();
        for i in 0..MAX_JOBS {
            b.job(&format!("j{i}"), vec![t]).unwrap();
        }
        assert_eq!(b.job("one-more", vec![t]), Err(SpecError::TooManyJobs));
        // Every accepted job index fits the events' `u32` losslessly.
        let spec = b.build().unwrap();
        let last = spec.job_id(MAX_JOBS - 1).unwrap();
        assert_eq!(u32::from(last), 31);
    }

    #[test]
    fn rejects_jobless_spec() {
        assert_eq!(AppSpecBuilder::new().build(), Err(SpecError::NoJobs));
    }

    #[test]
    fn fixed_task_option_access() {
        let spec = two_job_spec();
        let t = spec.task(TaskId(1));
        assert!(!t.is_degradable());
        assert_eq!(t.option_count(), 1);
        assert_eq!(t.best_cost(), cost(0.2, 0.015));
    }

    #[test]
    #[should_panic(expected = "only option 0")]
    fn fixed_task_rejects_option_index() {
        let spec = two_job_spec();
        spec.task(TaskId(1)).cost(1);
    }

    #[test]
    fn display_impls() {
        assert_eq!(TaskId(3).to_string(), "task#3");
        assert_eq!(JobId(1).to_string(), "job#1");
        assert!(SpecError::NoJobs.to_string().contains("no jobs"));
        assert!(SpecError::TooManyTasks.to_string().contains("32"));
        assert!(SpecError::TooManyJobs.to_string().contains("32 jobs"));
    }
}
