//! The one-call experiment runner every figure loops over.

use crate::devices::DeviceProfile;
use crate::model::AppModel;
use quetzal::QuetzalConfig;
use qz_baselines::{build_runtime, ideal_metrics, BaselineKind};
use qz_hw::RatioPath;
use qz_sim::{Metrics, SimConfig, Simulation};
use qz_traces::SensingEnvironment;
use qz_types::{Farads, Hertz, SimDuration, Watts};

/// Per-experiment knobs over the Table 1 defaults (each figure adjusts a
/// couple of these).
#[derive(Debug, Clone, PartialEq)]
pub struct SimTweaks {
    /// Simulator seed (classification draws).
    pub seed: u64,
    /// Capture period (Fig. 2b sweeps 1–10 s).
    pub capture_period: SimDuration,
    /// Input-buffer capacity in images.
    pub buffer_capacity: usize,
    /// Harvester cell count (Fig. 14 sweeps 2–10).
    pub harvester_cells: u32,
    /// `<arrival-window>` bits (Fig. 14 sweeps).
    pub arrival_window: usize,
    /// `<task-window>` bits (Fig. 14 sweeps).
    pub task_window: usize,
    /// Drain time after the last event.
    pub drain: SimDuration,
    /// Disable the PID error-mitigation loop (ablation).
    pub pid_enabled: bool,
    /// Disable sticky current-option scheduling (ablation).
    pub sticky_options: bool,
    /// Data-dependent task-latency jitter (see
    /// [`qz_sim::DeviceConfig::task_jitter`]).
    pub task_jitter: f64,
    /// Checkpoint policy across power failures (default: just-in-time,
    /// as in the paper's simulator).
    pub checkpoint_policy: qz_sim::CheckpointPolicy,
    /// Optional EWMA smoothing of the input-power measurement.
    pub power_ewma_alpha: Option<f64>,
    /// Override the supercapacitor capacitance (storage-sizing sweeps
    /// and infeasibility demos; `None` keeps the Table 1 default).
    pub supercap_capacitance: Option<Farads>,
    /// Stepping engine (fast-forward by default; the tick engine is the
    /// reference oracle tests and benches select). Both engines produce
    /// byte-identical results.
    pub engine: qz_sim::EngineKind,
}

impl Default for SimTweaks {
    fn default() -> SimTweaks {
        SimTweaks {
            seed: 0xA11CE,
            capture_period: SimDuration::from_secs(1),
            buffer_capacity: 10,
            harvester_cells: 6,
            arrival_window: 16,
            task_window: 64,
            drain: SimDuration::from_secs(1200),
            pid_enabled: true,
            sticky_options: true,
            task_jitter: 0.0,
            checkpoint_policy: qz_sim::CheckpointPolicy::JustInTime,
            power_ewma_alpha: None,
            supercap_capacitance: None,
            engine: qz_sim::EngineKind::default(),
        }
    }
}

/// The PZO threshold: the fraction-of-datasheet-maximum rule
/// Protean/Zygarde propose (we use the common ½ of the harvester's rated
/// maximum). Real traces rarely reach the datasheet max, which is the
/// flaw the paper demonstrates.
pub fn pzo_threshold(profile_cells: u32, cell_rating: Watts) -> Watts {
    cell_rating * profile_cells as f64 * 0.5
}

/// The PZI threshold: the same ½ fraction, but of the *observed* maximum
/// input power over the whole trace — an unimplementable oracle
/// (paper §6.1).
pub fn pzi_threshold(
    env: &SensingEnvironment,
    tweaks: &SimTweaks,
    cell_rating: Watts,
    efficiency: f64,
) -> Watts {
    let max_input =
        cell_rating * tweaks.harvester_cells as f64 * efficiency * env.solar().observed_max();
    max_input * 0.5
}

/// Runs one named system on one environment and returns its metrics.
///
/// # Panics
///
/// Panics on invalid experiment constants (spec or pipeline assembly
/// failures), which indicate a bug in the profile definitions rather
/// than a runtime condition.
pub fn simulate(
    kind: BaselineKind,
    profile: &DeviceProfile,
    env: &SensingEnvironment,
    tweaks: &SimTweaks,
) -> Metrics {
    build_simulation(kind, profile, env, tweaks).run()
}

/// Like [`simulate`], recording the periodic device-state telemetry
/// (one sample per simulated second) through a
/// [`Telemetry`](qz_sim::Telemetry) observer.
///
/// # Panics
///
/// Panics on invalid experiment constants (see [`simulate`]).
pub fn simulate_with_telemetry(
    kind: BaselineKind,
    profile: &DeviceProfile,
    env: &SensingEnvironment,
    tweaks: &SimTweaks,
) -> (Metrics, qz_sim::Telemetry) {
    let mut sim = build_simulation(kind, profile, env, tweaks);
    sim.set_observer(Box::new(qz_sim::Telemetry::default()));
    let (metrics, mut observer) = sim.run_traced();
    let telemetry =
        qz_sim::Telemetry::take_from(observer.as_mut()).expect("telemetry observer installed");
    (metrics, telemetry)
}

/// Like [`simulate`], recording the full decision-event stream: every
/// scheduler pick, IBO prediction/reaction, PID correction, power
/// transition, buffer admit/discard, and a periodic state snapshot.
/// The log feeds `qz trace`, the metrics registry, and the
/// reconstruction tests.
///
/// # Panics
///
/// Panics on invalid experiment constants (see [`simulate`]).
pub fn simulate_traced(
    kind: BaselineKind,
    profile: &DeviceProfile,
    env: &SensingEnvironment,
    tweaks: &SimTweaks,
) -> (Metrics, Vec<qz_obs::Event>) {
    let mut sim = build_simulation(kind, profile, env, tweaks);
    sim.set_observer(Box::new(qz_obs::RecordingObserver::new()));
    let (metrics, mut observer) = sim.run_traced();
    let events = qz_obs::take_recorded(observer.as_mut()).expect("recording sink installed");
    (metrics, events)
}

/// One profiled run: the usual metrics plus everything `qz profile`
/// renders (see `qz-prof`).
#[derive(Debug)]
pub struct ProfiledRun {
    /// End-of-run counters — byte-identical to the unprofiled run.
    pub metrics: Metrics,
    /// Wall-clock phase profile of the engine hot paths.
    pub report: qz_prof::ProfileReport,
    /// Deterministic horizon-cause accounting (why spans collapsed).
    pub horizon: qz_prof::HorizonStats,
    /// Bulk span lengths per horizon cause, from the profiler.
    pub spans: qz_prof::SpanLengths,
    /// Deterministic energy-kernel work counts.
    pub kernel: qz_prof::KernelStats,
    /// Total wall-clock nanoseconds for the run.
    pub wall_ns: u64,
    /// Handle onto the in-flight recorder ring when one was installed.
    pub flight: Option<qz_prof::FlightHandle>,
}

/// Like [`simulate`], with the phase profiler enabled and horizon-cause
/// and energy-kernel accounting collected — the engine behind
/// `qz profile`. Pass `flight` to also install a
/// [`qz_prof::FlightObserver`] ring (note that any observer turns on
/// periodic `Snapshot` emission, which the horizon ranking will then
/// faithfully blame).
///
/// # Panics
///
/// Panics on invalid experiment constants (see [`simulate`]).
pub fn profile_run(
    kind: BaselineKind,
    profile: &DeviceProfile,
    env: &SensingEnvironment,
    tweaks: &SimTweaks,
    flight: Option<qz_prof::FlightMeta>,
) -> ProfiledRun {
    let mut sim = build_simulation(kind, profile, env, tweaks);
    sim.enable_profiling();
    let handle = flight.map(|meta| {
        let (observer, handle) = qz_prof::FlightObserver::new(meta, qz_prof::DEFAULT_RING_CAPACITY);
        sim.set_observer(Box::new(observer));
        handle
    });
    let t0 = std::time::Instant::now();
    while sim.step() {}
    let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    ProfiledRun {
        metrics: sim.metrics().clone(),
        report: sim.profiler().report(),
        horizon: sim.horizon_stats().clone(),
        spans: sim.profiler().span_lengths().cloned().unwrap_or_default(),
        kernel: sim.profiler().kernel().copied().unwrap_or_default(),
        wall_ns,
        flight: handle,
    }
}

/// Maps an application's spec indices to names for
/// [`qz_obs::timeline::render_timeline`].
pub fn timeline_names(spec: &quetzal::AppSpec) -> qz_obs::timeline::TimelineNames {
    use quetzal::model::TaskKind;
    qz_obs::timeline::TimelineNames {
        jobs: spec.jobs().iter().map(|j| j.name.clone()).collect(),
        options_by_job: spec
            .jobs()
            .iter()
            .map(|j| match j.degradable_task() {
                Some(task) => match &spec.task(task).kind {
                    TaskKind::Degradable(opts) => opts.iter().map(|o| o.name.clone()).collect(),
                    TaskKind::Fixed(_) => Vec::new(),
                },
                None => Vec::new(),
            })
            .collect(),
    }
}

/// Assembles the app model, runtime config, and simulator config every
/// `simulate*` entry point — and the [`check_experiment`] analyzer —
/// share. Pure config assembly: no validation happens here.
///
/// # Panics
///
/// Panics on invalid experiment constants (spec assembly failures),
/// which indicate a bug in the profile definitions.
pub fn experiment_configs(
    kind: BaselineKind,
    profile: &DeviceProfile,
    tweaks: &SimTweaks,
) -> (AppModel, QuetzalConfig, SimConfig) {
    let app = AppModel::person_detection(profile).expect("valid app model");

    let qcfg = QuetzalConfig {
        task_window: tweaks.task_window,
        arrival_window: tweaks.arrival_window,
        capture_rate: Hertz(1.0 / tweaks.capture_period.as_seconds().value()),
        pid_enabled: tweaks.pid_enabled,
        sticky_options: tweaks.sticky_options,
        power_ewma_alpha: tweaks.power_ewma_alpha,
        ..QuetzalConfig::default()
    };

    let mut cfg = SimConfig {
        device: profile.device.clone(),
        drain: tweaks.drain,
        seed: tweaks.seed,
        engine: tweaks.engine,
        ..SimConfig::default()
    };
    cfg.device.capture_period = tweaks.capture_period;
    cfg.device.buffer_capacity = tweaks.buffer_capacity;
    cfg.device.task_jitter = tweaks.task_jitter;
    cfg.device.checkpoint_policy = tweaks.checkpoint_policy;
    cfg.power.harvester_cells = tweaks.harvester_cells;
    if let Some(capacitance) = tweaks.supercap_capacitance {
        cfg.power.supercap.capacitance = capacitance;
    }

    // Scheduler overhead: Quetzal-style systems pay the full invocation
    // cost (one ratio per task + one per degradation option); Quetzal
    // proper uses its hardware module, while estimator-equivalent
    // baselines fall back to the MCU's native divide path. Trivial
    // baselines (FCFS + static rules) keep the profile's nominal cost.
    // Bounded by MAX_TASKS (32) and MAX_OPTIONS (4) per task, so the
    // casts are exact.
    #[allow(clippy::cast_possible_truncation)]
    let num_tasks = app.spec.tasks().len() as u32;
    #[allow(clippy::cast_possible_truncation)]
    let num_options = app.spec.total_options() as u32;
    cfg.device.scheduler_overhead = match kind {
        BaselineKind::Quetzal | BaselineKind::QuetzalHw => {
            profile.scheduler_overhead(num_tasks, num_options, RatioPath::QuetzalModule)
        }
        BaselineKind::QuetzalVar(_)
        | BaselineKind::AvgSe2e
        | BaselineKind::FcfsIbo
        | BaselineKind::LcfsIbo => {
            profile.scheduler_overhead(num_tasks, num_options, profile.native_ratio_path)
        }
        _ => profile.device.scheduler_overhead,
    };

    (app, qcfg, cfg)
}

/// Runs the `qz-check` semantic analyses over exactly the spec and
/// configs a `simulate(kind, profile, …, tweaks)` call would use.
pub fn check_experiment(
    kind: BaselineKind,
    profile: &DeviceProfile,
    tweaks: &SimTweaks,
) -> qz_check::Report {
    let (app, qcfg, cfg) = experiment_configs(kind, profile, tweaks);
    check_configs(kind, &app, qcfg, cfg)
}

fn check_configs(
    kind: BaselineKind,
    app: &AppModel,
    qcfg: QuetzalConfig,
    cfg: SimConfig,
) -> qz_check::Report {
    let mut input = qz_check::CheckInput::new(&app.spec);
    input.device = cfg.device;
    input.power = cfg.power;
    input.runtime = qcfg;
    input.hw_estimator = matches!(kind, BaselineKind::QuetzalHw);
    qz_check::check(&input)
}

/// One experiment configuration, checked by `qz-check` and assembled
/// once, from which any number of simulations that differ only in
/// their simulator seed are built: `qz-fleet` checks its experiment
/// once per fleet, not once per device. [`build_simulation`] is the
/// one-simulation case.
#[derive(Debug, Clone)]
pub struct Experiment {
    kind: BaselineKind,
    app: AppModel,
    qcfg: QuetzalConfig,
    cfg: SimConfig,
}

impl Experiment {
    /// Assembles the configs of `(kind, profile, tweaks)` and front-ends
    /// them with the `qz-check` analyzer: errors panic with the rendered
    /// report (an infeasible config would produce garbage metrics),
    /// warnings print once per (diagnostic, config) to stderr.
    ///
    /// # Panics
    ///
    /// Panics when `qz-check` rejects the configuration.
    pub fn checked(kind: BaselineKind, profile: &DeviceProfile, tweaks: &SimTweaks) -> Experiment {
        let (app, qcfg, cfg) = experiment_configs(kind, profile, tweaks);
        let report = check_configs(kind, &app, qcfg.clone(), cfg.clone());
        assert!(
            !report.has_errors(),
            "qz-check rejected the {kind:?}/{} experiment config:\n{}",
            profile.name,
            report.render_text()
        );
        qz_check::report_to_stderr_once(&format!("{kind:?}/{}", profile.name), &report);
        Experiment {
            kind,
            app,
            qcfg,
            cfg,
        }
    }

    /// A fresh simulation of `env` under simulator seed `seed`, every
    /// other setting as checked.
    ///
    /// # Panics
    ///
    /// Panics on runtime or pipeline assembly failures, which indicate
    /// a bug in the profile definitions.
    pub fn simulation<'a>(&self, env: &'a SensingEnvironment, seed: u64) -> Simulation<'a> {
        let runtime = build_runtime(self.kind, self.app.spec.clone(), self.qcfg.clone())
            .expect("valid runtime");
        let cfg = SimConfig {
            seed,
            ..self.cfg.clone()
        };
        Simulation::new(
            cfg,
            env,
            runtime,
            self.app.entry,
            self.app.behaviors.clone(),
            self.app.routes.clone(),
        )
        .expect("valid pipeline binding")
    }
}

/// Assembles the simulation every `simulate*` entry point runs: an
/// [`Experiment::checked`] instantiated once, under `tweaks.seed`.
///
/// Public so `qz-snap`, `qz-fault` and the benches can drive a
/// simulation step by step instead of running it to completion.
///
/// # Panics
///
/// Panics when `qz-check` rejects the configuration (see
/// [`Experiment::checked`]).
pub fn build_simulation<'a>(
    kind: BaselineKind,
    profile: &DeviceProfile,
    env: &'a SensingEnvironment,
    tweaks: &SimTweaks,
) -> Simulation<'a> {
    Experiment::checked(kind, profile, tweaks).simulation(env, tweaks.seed)
}

/// The analytic ∞-memory Ideal reference for this profile and
/// environment.
pub fn ideal(profile: &DeviceProfile, env: &SensingEnvironment, tweaks: &SimTweaks) -> Metrics {
    ideal_metrics(
        env.events(),
        tweaks.capture_period,
        profile.ml_high_rates,
        tweaks.seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::apollo4;
    use qz_traces::EnvironmentKind;

    fn env() -> SensingEnvironment {
        SensingEnvironment::generate(EnvironmentKind::Crowded, 25, 42)
    }

    #[test]
    fn quetzal_runs_end_to_end() {
        let m = simulate(
            BaselineKind::Quetzal,
            &apollo4(),
            &env(),
            &SimTweaks::default(),
        );
        assert!(m.frames_total > 0);
        assert!(m.total_jobs() > 0);
    }

    #[test]
    fn quetzal_discards_fewer_interesting_than_noadapt() {
        // The paper's headline direction, on a small workload.
        let e = SensingEnvironment::generate(EnvironmentKind::MoreCrowded, 40, 7);
        let t = SimTweaks::default();
        let p = apollo4();
        let qz = simulate(BaselineKind::Quetzal, &p, &e, &t);
        let na = simulate(BaselineKind::NoAdapt, &p, &e, &t);
        assert!(
            qz.interesting_discarded() < na.interesting_discarded(),
            "QZ {} vs NA {}",
            qz.interesting_discarded(),
            na.interesting_discarded()
        );
    }

    #[test]
    fn always_degrade_reports_only_low_quality() {
        let m = simulate(
            BaselineKind::AlwaysDegrade,
            &apollo4(),
            &env(),
            &SimTweaks::default(),
        );
        assert_eq!(m.reports_interesting_high, 0);
        assert_eq!(m.reports_uninteresting_high, 0);
    }

    #[test]
    fn no_adapt_reports_only_high_quality() {
        let m = simulate(
            BaselineKind::NoAdapt,
            &apollo4(),
            &env(),
            &SimTweaks::default(),
        );
        assert_eq!(m.reports_interesting_low, 0);
        assert_eq!(m.reports_uninteresting_low, 0);
    }

    #[test]
    fn one_checked_experiment_builds_every_seed() {
        let e = env();
        let tweaks = SimTweaks::default();
        let experiment = Experiment::checked(BaselineKind::Quetzal, &apollo4(), &tweaks);
        for seed in [1, 0xFEED] {
            let mut shared = experiment.simulation(&e, seed);
            let seeded = SimTweaks {
                seed,
                ..tweaks.clone()
            };
            let mut own = build_simulation(BaselineKind::Quetzal, &apollo4(), &e, &seeded);
            while shared.step() {}
            while own.step() {}
            assert_eq!(shared.metrics(), own.metrics(), "seed {seed}");
        }
    }

    #[test]
    fn ideal_never_overflows() {
        let m = ideal(&apollo4(), &env(), &SimTweaks::default());
        assert_eq!(m.ibo_discards, 0);
        assert_eq!(m.interesting_missed_off, 0);
    }

    #[test]
    fn thresholds_are_ordered() {
        let t = SimTweaks::default();
        let pzo = pzo_threshold(6, Watts(0.010));
        let pzi = pzi_threshold(&env(), &t, Watts(0.010), 0.80);
        assert!((pzo.value() - 0.030).abs() < 1e-12);
        assert!(
            pzi < pzo,
            "observed-max threshold must be below datasheet-max"
        );
    }

    #[test]
    fn checker_passes_default_experiment_configs() {
        for kind in [
            BaselineKind::Quetzal,
            BaselineKind::QuetzalHw,
            BaselineKind::NoAdapt,
        ] {
            let report = check_experiment(kind, &apollo4(), &SimTweaks::default());
            assert!(!report.has_errors(), "{kind:?}:\n{}", report.render_text());
        }
    }

    #[test]
    fn checker_flags_infeasible_storage() {
        use qz_types::Farads;
        let tweaks = SimTweaks {
            supercap_capacitance: Some(Farads(0.05e-3)),
            ..SimTweaks::default()
        };
        let report = check_experiment(BaselineKind::Quetzal, &apollo4(), &tweaks);
        assert!(report.has_errors(), "{}", report.render_text());
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == qz_check::Code::QZ001 && d.severity == qz_check::Severity::Error));
    }

    #[test]
    #[should_panic(expected = "qz-check rejected")]
    fn simulate_refuses_infeasible_storage() {
        use qz_types::Farads;
        let tweaks = SimTweaks {
            supercap_capacitance: Some(Farads(0.05e-3)),
            ..SimTweaks::default()
        };
        simulate(BaselineKind::Quetzal, &apollo4(), &env(), &tweaks);
    }

    #[test]
    fn engines_agree_through_the_experiment_path() {
        let tick = SimTweaks {
            engine: qz_sim::EngineKind::Tick,
            ..SimTweaks::default()
        };
        let fast = SimTweaks {
            engine: qz_sim::EngineKind::FastForward,
            ..SimTweaks::default()
        };
        let mt = simulate(BaselineKind::Quetzal, &apollo4(), &env(), &tick);
        let mf = simulate(BaselineKind::Quetzal, &apollo4(), &env(), &fast);
        assert_eq!(mt, mf);
    }

    #[test]
    fn deterministic_runs() {
        let a = simulate(
            BaselineKind::CatNap,
            &apollo4(),
            &env(),
            &SimTweaks::default(),
        );
        let b = simulate(
            BaselineKind::CatNap,
            &apollo4(),
            &env(),
            &SimTweaks::default(),
        );
        assert_eq!(a, b);
    }
}
