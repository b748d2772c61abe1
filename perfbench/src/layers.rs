//! Per-layer attribution, named after the crates that own each layer.
//!
//! - `quetzal`: decorators around the runtime's default policy,
//!   degradation engine, estimator and power predictor. They count and
//!   time every call and forward everything else (including
//!   `save_state`/`restore_state`) untouched, so a decorated runtime
//!   makes exactly the decisions the plain one makes.
//! - `sim`, `energy`, `fleet`: the engine's own deterministic horizon
//!   counters and its phase-profiler self times.
//!
//! Every layer metric is reported on every workload; a layer a
//! workload does not exercise (or, for `quetzal`, does not decorate)
//! reads 0.

use crate::{ns_since, Metric};
use quetzal::policy::SchedulerInputs;
use quetzal::power::{Instantaneous, PowerPredictor};
use quetzal::{
    AppSpec, DegradationContext, DegradationPolicy, EnergyAwareEstimator, EnergyAwareSjf,
    EstimatorState, IboDecision, IboEngine, JobCandidate, PredictorState, Quetzal, QuetzalConfig,
    SchedulingPolicy, Selection, ServiceEstimator, SpecError, TaskCost, TaskKey,
};
use qz_prof::{HorizonCause, HorizonStats, Phase, PhaseProfiler};
use qz_types::{Seconds, Watts};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Call counts and times gathered by the runtime decorators. Plain
/// statistics: every access is `Relaxed`.
#[derive(Debug, Default)]
pub struct QuetzalCounters {
    select_calls: AtomicU64,
    select_ns: AtomicU64,
    estimate_calls: AtomicU64,
    estimate_ns: AtomicU64,
    degrade_calls: AtomicU64,
    degrade_ns: AtomicU64,
    degrade_ibo_predicted: AtomicU64,
    degrade_degraded: AtomicU64,
    power_predict_calls: AtomicU64,
}

impl QuetzalCounters {
    /// The `quetzal.*` layer metrics.
    #[allow(clippy::cast_precision_loss)] // counts and ns stay far below 2^52
    pub fn metrics(&self) -> Vec<Metric> {
        let get = |c: &AtomicU64| c.load(Relaxed) as f64;
        let decisions = get(&self.degrade_calls);
        let degraded_share = if decisions == 0.0 {
            0.0
        } else {
            get(&self.degrade_degraded) / decisions
        };
        vec![
            Metric::one("quetzal.select.calls", get(&self.select_calls), "count"),
            Metric::one("quetzal.select.self_ns", get(&self.select_ns), "ns"),
            Metric::one("quetzal.estimate.calls", get(&self.estimate_calls), "count"),
            Metric::one("quetzal.estimate.ns", get(&self.estimate_ns), "ns"),
            Metric::one("quetzal.degrade.calls", decisions, "count"),
            Metric::one("quetzal.degrade.ns", get(&self.degrade_ns), "ns"),
            Metric::one(
                "quetzal.degrade.ibo_predicted",
                get(&self.degrade_ibo_predicted),
                "count",
            ),
            Metric::one("quetzal.degrade.degraded_share", degraded_share, "ratio"),
            Metric::one(
                "quetzal.power_predict.calls",
                get(&self.power_predict_calls),
                "count",
            ),
        ]
    }

    /// The `quetzal.*` metrics of a workload whose runtime is not
    /// decorated: all zero.
    pub fn absent() -> Vec<Metric> {
        QuetzalCounters::default().metrics()
    }
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Relaxed);
}

/// Builds the runtime `build_runtime(BaselineKind::Quetzal, …)`
/// installs — `EnergyAwareSjf`, `IboEngine`, `EnergyAwareEstimator`
/// and `Instantaneous` — with every component decorated.
///
/// # Errors
///
/// Propagates [`SpecError`] from runtime assembly.
pub fn decorated_quetzal(
    spec: AppSpec,
    config: QuetzalConfig,
    counters: &Arc<QuetzalCounters>,
) -> Result<Quetzal, SpecError> {
    assert!(
        config.power_ewma_alpha.is_none(),
        "the decorated runtime mirrors the default instantaneous predictor"
    );
    Quetzal::builder(spec)
        .config(config)
        .policy(Box::new(TimedPolicy {
            inner: EnergyAwareSjf::new(),
            counters: Arc::clone(counters),
        }))
        .degradation(Box::new(TimedDegradation {
            inner: IboEngine::new(),
            counters: Arc::clone(counters),
        }))
        .estimator(Box::new(TimedEstimator {
            inner: EnergyAwareEstimator::new(),
            counters: Arc::clone(counters),
        }))
        .power_predictor(Box::new(CountedPredictor {
            inner: Instantaneous::new(),
            counters: Arc::clone(counters),
        }))
        .build()
}

/// Algorithm 1 pick, timed net of the estimator calls it makes.
#[derive(Debug)]
struct TimedPolicy<P> {
    inner: P,
    counters: Arc<QuetzalCounters>,
}

impl<P: SchedulingPolicy> SchedulingPolicy for TimedPolicy<P> {
    fn select(
        &mut self,
        inputs: &SchedulerInputs<'_>,
        candidates: &[JobCandidate],
    ) -> Option<Selection> {
        let c = &self.counters;
        let estimate_before = c.estimate_ns.load(Relaxed);
        let t0 = Instant::now();
        let out = self.inner.select(inputs, candidates);
        let total = ns_since(t0);
        let estimate = c.estimate_ns.load(Relaxed) - estimate_before;
        bump(&c.select_calls, 1);
        bump(&c.select_ns, total.saturating_sub(estimate));
        out
    }
}

/// Algorithm 2 walk.
#[derive(Debug)]
struct TimedDegradation<D> {
    inner: D,
    counters: Arc<QuetzalCounters>,
}

impl<D: DegradationPolicy> DegradationPolicy for TimedDegradation<D> {
    fn select_option(&mut self, ctx: &DegradationContext<'_>) -> IboDecision {
        let t0 = Instant::now();
        let decision = self.inner.select_option(ctx);
        let c = &self.counters;
        bump(&c.degrade_ns, ns_since(t0));
        bump(&c.degrade_calls, 1);
        bump(&c.degrade_ibo_predicted, u64::from(decision.ibo_predicted));
        bump(&c.degrade_degraded, u64::from(decision.option > 0));
        decision
    }
}

/// Eq. 1 service-time estimate.
#[derive(Debug)]
struct TimedEstimator<E> {
    inner: E,
    counters: Arc<QuetzalCounters>,
}

impl<E: ServiceEstimator> ServiceEstimator for TimedEstimator<E> {
    fn predict(&self, key: TaskKey, cost: TaskCost, p_in: Watts) -> Seconds {
        let t0 = Instant::now();
        let out = self.inner.predict(key, cost, p_in);
        bump(&self.counters.estimate_ns, ns_since(t0));
        bump(&self.counters.estimate_calls, 1);
        out
    }

    fn observe(&mut self, key: TaskKey, observed: Seconds) {
        self.inner.observe(key, observed);
    }

    fn note_scheduled(&mut self, key: TaskKey, cost: TaskCost, p_in: Watts) {
        self.inner.note_scheduled(key, cost, p_in);
    }

    fn save_state(&self) -> EstimatorState {
        self.inner.save_state()
    }

    fn restore_state(&mut self, state: &EstimatorState) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// Input-power prediction (counted only: one call is a copy).
#[derive(Debug)]
struct CountedPredictor<P> {
    inner: P,
    counters: Arc<QuetzalCounters>,
}

impl<P: PowerPredictor> PowerPredictor for CountedPredictor<P> {
    fn predict(&mut self, measured: Watts) -> Watts {
        bump(&self.counters.power_predict_calls, 1);
        self.inner.predict(measured)
    }

    fn save_state(&self) -> PredictorState {
        self.inner.save_state()
    }

    fn restore_state(&mut self, state: &PredictorState) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// The `sim.*`, `energy.*` and `fleet.*` layer metrics from one
/// (possibly merged) profiler and horizon account.
#[allow(clippy::cast_precision_loss)] // counts and ns stay far below 2^52
pub fn engine_metrics(prof: &PhaseProfiler, horizon: &HorizonStats) -> Vec<Metric> {
    let report = prof.report();
    let calls = |p: Phase| report.phase(p).map_or(0.0, |r| r.count as f64);
    let self_ns = |p: Phase| report.phase(p).map_or(0.0, |r| r.self_ns as f64);
    let ref_ticks = horizon.total_ref_ticks() as f64;
    let skipped = horizon.total_skipped_ticks() as f64;
    let simulated = ref_ticks + skipped;
    let spans: u64 = HorizonCause::ALL
        .iter()
        .map(|&c| horizon.cause(c).spans)
        .sum();
    let caused = |c: HorizonCause| horizon.cause(c).ref_ticks as f64;
    let mut out = vec![
        Metric::one("sim.ticks.simulated", simulated, "count"),
        Metric::one("sim.ticks.ref", ref_ticks, "count"),
        Metric::one("sim.ticks.skipped", skipped, "count"),
        Metric::one(
            "sim.skip_share",
            if simulated == 0.0 {
                0.0
            } else {
                skipped / simulated
            },
            "ratio",
        ),
        Metric::one("sim.spans", spans as f64, "count"),
        Metric::one(
            "sim.busy_block.count",
            horizon.busy_blocks() as f64,
            "count",
        ),
        Metric::one(
            "sim.busy_block.ticks",
            horizon.busy_block_ticks() as f64,
            "count",
        ),
        Metric::one(
            "sim.busy_block.median_occupancy",
            horizon.median_block_occupancy() as f64,
            "count",
        ),
        Metric::one(
            "sim.busy_tail.ticks",
            horizon.busy_tail_ticks() as f64,
            "count",
        ),
        Metric::one(
            "sim.ref_ticks.fault_collapse",
            caused(HorizonCause::FaultCollapse),
            "count",
        ),
        Metric::one(
            "sim.ref_ticks.busy_scheduler",
            caused(HorizonCause::BusyScheduler),
            "count",
        ),
        Metric::one(
            "sim.ref_ticks.capture_boundary",
            caused(HorizonCause::CaptureBoundary),
            "count",
        ),
        Metric::one(
            "sim.ref_ticks.job_countdown",
            caused(HorizonCause::JobCountdown),
            "count",
        ),
    ];
    for (name, phase) in [
        ("sim.ref_tick.self_ns", Phase::RefTick),
        ("sim.span_advance.self_ns", Phase::SpanAdvance),
        ("sim.busy_block.self_ns", Phase::BusyBlock),
        ("sim.busy_tail.self_ns", Phase::BusyTail),
        ("sim.uplink_sense.self_ns", Phase::UplinkSense),
    ] {
        out.push(Metric::one(name, self_ns(phase), "ns"));
    }
    for (layer, phase) in [
        ("energy.sprint", Phase::Sprint),
        ("energy.replay", Phase::Replay),
        ("energy.vigilant_tail", Phase::VigilantTail),
        ("fleet.queue_pop", Phase::FleetQueuePop),
        ("fleet.wake", Phase::FleetWake),
        ("fleet.shard_reduce", Phase::FleetShardReduce),
    ] {
        out.push(Metric::one(format!("{layer}.calls"), calls(phase), "count"));
        out.push(Metric::one(
            format!("{layer}.self_ns"),
            self_ns(phase),
            "ns",
        ));
    }
    out
}
