//! Differential equivalence suite: the fast-forward engine must be
//! *observably identical* to the per-tick reference loop.
//!
//! Every case below runs the same configuration twice — once with
//! `EngineKind::Tick` (the unmodified reference) and once with
//! `EngineKind::FastForward` — and demands byte-identical reports:
//!
//! - end-of-run [`qz_sim::Metrics`] (exact equality, including the
//!   accumulated-float energy totals),
//! - the full recorded `qz-obs` decision-event stream, compared both
//!   structurally and as serialized JSONL bytes,
//! - periodic telemetry, compared as rendered CSV bytes,
//! - fault-injector statistics when an adversarial injector is
//!   installed (the engine skips only ticks the injector's quiet
//!   horizon proves fault-free and hands them over in bulk, so the
//!   injector must end up in the same state as one that saw every
//!   tick).
//!
//! Cases are generated from a fixed [`SplitMix64`] stream so the suite
//! is deterministic: environment kind, event count, trace seed,
//! simulator seed, capture period, buffer capacity, drain time, device
//! profile, baseline system, and (for a fifth of the cases) a fault
//! plan are all randomized per case. With `CASES = 120` this crosses
//! well past the hundred-configuration mark required by the design.

use qz_app::{
    apollo4, build_simulation, msp430fr5994, simulate_with_telemetry, DeviceProfile, SimTweaks,
};
use qz_baselines::BaselineKind;
use qz_fault::{run_one, AdversarialInjector, FaultPlan, FaultStats};
use qz_obs::RecordingObserver;
use qz_prof::HorizonCause;
use qz_sim::{CheckpointPolicy, EngineKind, FaultContext, FaultInjector, FaultPhase, SimState};
use qz_traces::{EnvironmentKind, SensingEnvironment, SolarTrace};
use qz_types::{SimDuration, SimTime, SplitMix64};

const CASES: u64 = 120;
const SUITE_SEED: u64 = 0x51CA_1020_26AB;

/// One randomized configuration drawn from the case stream.
struct Case {
    index: u64,
    kind: BaselineKind,
    profile: DeviceProfile,
    profile_label: &'static str,
    env: SensingEnvironment,
    tweaks: SimTweaks,
    fault: Option<(FaultPlan, u64)>,
}

impl Case {
    fn describe(&self) -> String {
        format!(
            "case {} ({:?} on {} in {} env, seed {:#x}, fault {:?})",
            self.index,
            self.kind,
            self.profile_label,
            self.env.kind(),
            self.tweaks.seed,
            self.fault.as_ref().map(|(plan, _)| plan.label),
        )
    }

    fn tweaks_for(&self, engine: EngineKind) -> SimTweaks {
        SimTweaks {
            engine,
            ..self.tweaks.clone()
        }
    }

    fn injector(&self) -> Option<AdversarialInjector> {
        self.fault
            .as_ref()
            .map(|(plan, seed)| AdversarialInjector::new(plan.clone(), *seed))
    }
}

fn draw_case(rng: &mut SplitMix64, index: u64) -> Case {
    // Mostly the short/medium environments (fast to simulate, still
    // exercising every horizon class), with occasional MoreCrowded and
    // Quiet cases for long-event and long-quiescent-span coverage.
    let (env_kind, events) = match rng.next_below(16) {
        0..=5 => (EnvironmentKind::Short, 2 + rng.next_below(4)),
        6..=9 => (EnvironmentKind::LessCrowded, 2 + rng.next_below(4)),
        10..=12 => (EnvironmentKind::Crowded, 2 + rng.next_below(3)),
        13 => (EnvironmentKind::MoreCrowded, 2),
        _ => (EnvironmentKind::Quiet, 2),
    };
    let env_seed = rng.next_u64();
    let event_count = usize::try_from(events).expect("tiny event count");
    let env = SensingEnvironment::generate(env_kind, event_count, env_seed);

    let kind = match rng.next_below(7) {
        0 => BaselineKind::Quetzal,
        1 => BaselineKind::NoAdapt,
        2 => BaselineKind::AlwaysDegrade,
        3 => BaselineKind::CatNap,
        4 => BaselineKind::FixedThreshold(rng.next_range(0.1, 0.9)),
        5 => BaselineKind::AvgSe2e,
        _ => BaselineKind::QuetzalHw,
    };
    let (profile, profile_label) = if rng.next_below(2) == 0 {
        (apollo4(), "apollo4")
    } else {
        (msp430fr5994(), "msp430fr5994")
    };

    let tweaks = SimTweaks {
        seed: rng.next_u64(),
        capture_period: SimDuration::from_millis(1000 + 500 * rng.next_below(5)),
        buffer_capacity: usize::try_from(4 + rng.next_below(9)).expect("tiny buffer"),
        drain: SimDuration::from_secs(20 + rng.next_below(11)),
        ..SimTweaks::default()
    };

    // Every fifth case runs under an adversarial fault injector; the
    // engine must honour its quiet horizon and step its candidate ticks
    // without changing a single byte of the report.
    let fault = index.is_multiple_of(5).then(|| {
        let plan = match rng.next_below(4) {
            0 => FaultPlan::none(),
            1 => FaultPlan::smoke(),
            2 => FaultPlan::standard(),
            _ => FaultPlan::heavy(),
        };
        (plan, rng.next_u64())
    });

    Case {
        index,
        kind,
        profile,
        profile_label,
        env,
        tweaks,
        fault,
    }
}

/// Serializes a recorded event stream exactly as `qz fault --events` /
/// `qz trace` would.
fn jsonl_bytes(events: &[qz_obs::Event]) -> Vec<u8> {
    let mut buf = Vec::new();
    qz_obs::export::write_jsonl(&mut buf, events).expect("in-memory write");
    buf
}

#[test]
fn fast_forward_is_byte_identical_across_randomized_cases() {
    let mut rng = SplitMix64::new(SUITE_SEED);
    let mut faulted = 0u64;
    for index in 0..CASES {
        let case = draw_case(&mut rng, index);
        faulted += u64::from(case.fault.is_some());

        let (tick, tick_stats) = run_one(
            case.kind,
            &case.profile,
            &case.env,
            &case.tweaks_for(EngineKind::Tick),
            case.injector(),
        );
        let (fast, fast_stats) = run_one(
            case.kind,
            &case.profile,
            &case.env,
            &case.tweaks_for(EngineKind::FastForward),
            case.injector(),
        );

        assert_eq!(
            tick.metrics,
            fast.metrics,
            "metrics diverge: {}",
            case.describe()
        );
        assert_eq!(
            tick.events.len(),
            fast.events.len(),
            "event counts diverge: {}",
            case.describe()
        );
        assert_eq!(
            tick.events,
            fast.events,
            "event streams diverge: {}",
            case.describe()
        );
        assert_eq!(
            jsonl_bytes(&tick.events),
            jsonl_bytes(&fast.events),
            "serialized event bytes diverge: {}",
            case.describe()
        );
        assert_eq!(
            tick_stats,
            fast_stats,
            "fault stats diverge: {}",
            case.describe()
        );
    }
    assert!(
        faulted >= 20,
        "expected at least 20 fault-injected cases, got {faulted}"
    );
}

/// Boundary torture class: randomized configurations whose
/// invariant-invalidating events land on 64-tick residues. Capture and
/// telemetry periods are pinned to `64k + {0, 1, 63}` ms so periodic
/// due-ness flips exactly at (or one tick either side of) a multiple of
/// 64, and the adversarial injector activates mid-run at instants
/// `≡ 0, 1, 63 (mod 64)`, an off-by-one sweep of the horizon planner's
/// due-checks. Metrics, the structural event
/// stream, serialized JSONL bytes, reconstructed telemetry CSV bytes,
/// and fault statistics must all be identical across engines.
#[test]
fn kernel_boundary_torture_cases_are_byte_identical() {
    let mut rng = SplitMix64::new(SUITE_SEED ^ 0xB10C_ED6E);
    let offsets = [0u64, 1, 63];
    let mut index = 0u64;
    for &period_off in &offsets {
        for &fault_off in &offsets {
            let mut case = draw_case(&mut rng, index);
            index += 1;
            // Capture cadence a multiple of 64 ticks (1024 ≡ 0 mod 64)
            // plus the torture offset, so successive capture
            // boundaries sweep the residues around multiples of 64. Stays
            // ≥ 1 s to keep the config past the QZ010 overflow
            // preflight.
            let capture_ms = 1024 * (1 + rng.next_below(3)) + period_off;
            case.tweaks.capture_period = SimDuration::from_millis(capture_ms.max(1));
            // Fault activation pinned near a multiple of 64 ticks.
            let fault_at = SimTime::from_millis(64 * 200 + fault_off);
            let plan = match rng.next_below(3) {
                0 => FaultPlan::smoke(),
                1 => FaultPlan::standard(),
                _ => FaultPlan::heavy(),
            };
            let fault_seed = rng.next_u64();
            let injector = || {
                Some(AdversarialInjector::activating_at(
                    plan.clone(),
                    fault_seed,
                    fault_at,
                ))
            };

            let (tick, tick_stats) = run_one(
                case.kind,
                &case.profile,
                &case.env,
                &case.tweaks_for(EngineKind::Tick),
                injector(),
            );
            let (fast, fast_stats) = run_one(
                case.kind,
                &case.profile,
                &case.env,
                &case.tweaks_for(EngineKind::FastForward),
                injector(),
            );

            let describe = format!(
                "{} [torture: capture {capture_ms}ms, fault {} at {fault_at:?}]",
                case.describe(),
                plan.label,
            );
            assert_eq!(tick.metrics, fast.metrics, "metrics diverge: {describe}");
            assert_eq!(
                tick.events, fast.events,
                "event streams diverge: {describe}"
            );
            assert_eq!(
                jsonl_bytes(&tick.events),
                jsonl_bytes(&fast.events),
                "serialized event bytes diverge: {describe}"
            );
            let mut tick_csv = Vec::new();
            let mut fast_csv = Vec::new();
            qz_sim::Telemetry::from_events(&tick.events)
                .write_csv(&mut tick_csv)
                .expect("in-memory write");
            qz_sim::Telemetry::from_events(&fast.events)
                .write_csv(&mut fast_csv)
                .expect("in-memory write");
            assert_eq!(
                tick_csv, fast_csv,
                "telemetry CSV bytes diverge: {describe}"
            );
            assert_eq!(tick_stats, fast_stats, "fault stats diverge: {describe}");
        }
    }
}

/// Drives the fast-forward engine through `step_until` barriers whose
/// limits sweep chunk sizes 1, 63, 64, 65, … (so quiescent spans are
/// truncated at arbitrary remaining budgets), and demands the final metrics and event stream match the reference
/// engine run to completion in one go.
#[test]
fn step_until_boundary_chunks_match_reference() {
    let mut rng = SplitMix64::new(SUITE_SEED ^ 0x57E9_0641);
    for index in 0..6u64 {
        let case = draw_case(&mut rng, index);

        let mut tick = build_simulation(
            case.kind,
            &case.profile,
            &case.env,
            &case.tweaks_for(EngineKind::Tick),
        );
        tick.set_observer(Box::new(RecordingObserver::new()));
        while tick.step() {}

        let mut fast = build_simulation(
            case.kind,
            &case.profile,
            &case.env,
            &case.tweaks_for(EngineKind::FastForward),
        );
        fast.set_observer(Box::new(RecordingObserver::new()));
        let chunks = [63u64, 64, 65, 1, 127, 129, 64, 63];
        let mut limit = 0u64;
        let mut i = 0usize;
        loop {
            limit += chunks[i % chunks.len()];
            i += 1;
            if !fast.step_until(SimTime::from_millis(limit)) {
                break;
            }
        }

        assert_eq!(
            tick.metrics(),
            fast.metrics(),
            "metrics diverge under chunked step_until: {}",
            case.describe()
        );
        let mut tick_obs = tick.take_observer();
        let mut fast_obs = fast.take_observer();
        let tick_events = qz_obs::take_recorded(tick_obs.as_mut()).expect("recording sink");
        let fast_events = qz_obs::take_recorded(fast_obs.as_mut()).expect("recording sink");
        assert_eq!(
            jsonl_bytes(&tick_events),
            jsonl_bytes(&fast_events),
            "event bytes diverge under chunked step_until: {}",
            case.describe()
        );
    }
}

#[test]
fn telemetry_csv_bytes_match_across_engines() {
    let mut rng = SplitMix64::new(SUITE_SEED ^ 0x7E1E_3E7E);
    for index in 0..30u64 {
        let case = draw_case(&mut rng, index);

        let (tick_metrics, tick_tel) = simulate_with_telemetry(
            case.kind,
            &case.profile,
            &case.env,
            &case.tweaks_for(EngineKind::Tick),
        );
        let (fast_metrics, fast_tel) = simulate_with_telemetry(
            case.kind,
            &case.profile,
            &case.env,
            &case.tweaks_for(EngineKind::FastForward),
        );

        assert_eq!(
            tick_metrics,
            fast_metrics,
            "metrics diverge: {}",
            case.describe()
        );
        let mut tick_csv = Vec::new();
        let mut fast_csv = Vec::new();
        tick_tel.write_csv(&mut tick_csv).expect("in-memory write");
        fast_tel.write_csv(&mut fast_csv).expect("in-memory write");
        assert_eq!(
            tick_csv,
            fast_csv,
            "telemetry CSV bytes diverge: {}",
            case.describe()
        );
    }
}

/// An armed injector that can never fire must leave the fast-forward
/// engine's horizon accounting exactly as it is without an injector:
/// every span, busy tick and span length the same. In particular a
/// scheduler-every-tick run of busy ticks ends when that regime ends,
/// armed adversary or not. Both runs are profiled, so the span-length
/// distributions (profiler data) are compared beside the counters.
#[test]
fn armed_none_plan_matches_the_uninjected_horizon_exactly() {
    let mut rng = SplitMix64::new(SUITE_SEED ^ 0x0E0E);
    let mut busy_scheduler_ticks = 0;
    for index in 0..12u64 {
        let case = draw_case(&mut rng, index);
        let tweaks = case.tweaks_for(EngineKind::FastForward);
        let mut clean = build_simulation(case.kind, &case.profile, &case.env, &tweaks);
        let mut armed = build_simulation(case.kind, &case.profile, &case.env, &tweaks);
        armed.set_fault_injector(Box::new(AdversarialInjector::new(FaultPlan::none(), index)));
        clean.enable_profiling();
        armed.enable_profiling();
        while clean.step() {}
        while armed.step() {}
        assert_eq!(clean.metrics(), armed.metrics(), "{}", case.describe());
        busy_scheduler_ticks += clean
            .horizon_stats()
            .cause(HorizonCause::BusyScheduler)
            .ref_ticks;
        let (clean_spans, armed_spans) = (
            clean.profiler().span_lengths().expect("profiled"),
            armed.profiler().span_lengths().expect("profiled"),
        );
        let ranking = |sim: &qz_sim::Simulation<'_>| {
            sim.horizon_stats()
                .ranking(sim.profiler().span_lengths())
                .render()
        };
        assert_eq!(
            clean.horizon_stats(),
            armed.horizon_stats(),
            "{}:\nclean {}\narmed {}",
            case.describe(),
            ranking(&clean),
            ranking(&armed)
        );
        assert_eq!(
            clean_spans,
            armed_spans,
            "{}: span lengths differ:\nclean {}\narmed {}",
            case.describe(),
            ranking(&clean),
            ranking(&armed)
        );
    }
    assert!(
        busy_scheduler_ticks > 0,
        "the cases must exercise the busy scheduler"
    );
}

/// What the fault hooks saw on one tick of a scouting run.
#[derive(Debug, Clone, Copy)]
struct Seen {
    off: bool,
    mid_task: bool,
    just_checkpointed: bool,
}

/// A never-firing injector that records every tick's context. It keeps
/// the trait's per-tick default, so it sees every tick.
#[derive(Debug, Default)]
struct Scout {
    seen: Vec<Seen>,
}

impl FaultInjector for Scout {
    fn on_tick(&mut self, ctx: &FaultContext) {
        self.seen.push(Seen {
            off: matches!(ctx.phase, FaultPhase::Off),
            mid_task: matches!(
                ctx.phase,
                FaultPhase::Task { progress, .. } if (0.25..0.75).contains(&progress)
            ),
            just_checkpointed: ctx.just_checkpointed,
        });
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn core::any::Any> {
        Some(self)
    }
}

/// The middle tick of the first run of at least `min_len` consecutive
/// ticks satisfying `pick` that starts at or after tick `from`.
fn middle_of_run(seen: &[Seen], from: usize, min_len: usize, pick: impl Fn(&Seen) -> bool) -> u64 {
    let mut start = None;
    for (t, s) in seen.iter().enumerate().skip(from) {
        match (pick(s), start) {
            (true, None) => start = Some(t),
            (false, Some(s0)) if t - s0 >= min_len => return ((s0 + t) / 2) as u64,
            (false, Some(_)) => start = None,
            _ => {}
        }
    }
    panic!("no run of {min_len} matching ticks after tick {from}");
}

/// One engine's run of a gated adversary: metrics, serialized events,
/// snapshots (injector words included) at a few barriers shortly after
/// the gate and at the end, and the injector's stats.
fn gated_run(
    case: &Case,
    engine: EngineKind,
    plan: &FaultPlan,
    seed: u64,
    gate: SimTime,
) -> (qz_sim::Metrics, Vec<u8>, Vec<SimState>, FaultStats) {
    let mut sim = build_simulation(
        case.kind,
        &case.profile,
        &case.env,
        &case.tweaks_for(engine),
    );
    sim.set_observer(Box::new(RecordingObserver::new()));
    sim.set_fault_injector(Box::new(AdversarialInjector::activating_at(
        plan.clone(),
        seed,
        gate,
    )));
    // The first spans after the gate set the injector's running
    // statistics from scratch; later ones rarely move them.
    let mut states = Vec::new();
    for after_ms in [1, 64, 1_000, 5_000] {
        sim.step_until(gate + SimDuration::from_millis(after_ms));
        states.push(sim.save_state().expect("adversarial injector snapshots"));
    }
    while sim.step() {}
    states.push(sim.save_state().expect("adversarial injector snapshots"));
    let stats = sim
        .take_fault_injector()
        .and_then(|mut f| {
            f.as_any_mut().and_then(|any| {
                any.downcast_ref::<AdversarialInjector>()
                    .map(|a| a.stats().clone())
            })
        })
        .expect("adversarial injector installed");
    let mut observer = sim.take_observer();
    let events = qz_obs::take_recorded(observer.as_mut()).expect("recording sink");
    (sim.metrics().clone(), jsonl_bytes(&events), states, stats)
}

/// Fault torture: the adversary's gate lands on the instants where a
/// quiet horizon is hardest to get right — inside an off recharge
/// span, inside a task's vulnerable window, on a checkpoint tick and
/// the tick after it, and at 0/±1 ticks from a capture boundary —
/// under every fault preset. Metrics, event bytes, injector stats and
/// snapshots shortly after the gate and at the end (the ten injector
/// words included, compared as `qz-snap/v2` bytes) must match the tick
/// engine exactly.
#[test]
fn gated_adversary_torture_is_byte_identical() {
    let mut rng = SplitMix64::new(SUITE_SEED ^ 0x6A7E);
    // Two scenes: a dim one where the device browns out and takes JIT
    // checkpoints, and a lit one with periodic mid-task checkpoints.
    let mut dim = draw_case(&mut rng, 0);
    dim.kind = BaselineKind::Quetzal;
    (dim.profile, dim.profile_label) = (apollo4(), "apollo4");
    dim.env = SensingEnvironment::generate(EnvironmentKind::Crowded, 3, 0xD1);
    dim.env = SensingEnvironment::with_parts(
        dim.env.kind(),
        dim.env.events().clone(),
        SolarTrace::constant(0.02),
    );
    dim.tweaks.capture_period = SimDuration::from_millis(1000);
    let mut periodic = draw_case(&mut rng, 1);
    periodic.kind = BaselineKind::Quetzal;
    periodic.env = SensingEnvironment::generate(EnvironmentKind::Crowded, 3, 0xC4);
    periodic.tweaks.capture_period = SimDuration::from_millis(1000);
    periodic.tweaks.checkpoint_policy = CheckpointPolicy::Periodic {
        interval: SimDuration::from_millis(150),
    };

    for case in [&dim, &periodic] {
        // Scout the clean run tick by tick for the gate instants.
        let mut scout = build_simulation(
            case.kind,
            &case.profile,
            &case.env,
            &case.tweaks_for(EngineKind::Tick),
        );
        scout.set_fault_injector(Box::new(Scout::default()));
        while scout.step() {}
        let seen = scout
            .take_fault_injector()
            .and_then(|mut f| {
                f.as_any_mut().and_then(|any| {
                    any.downcast_mut::<Scout>()
                        .map(|s| std::mem::take(&mut s.seen))
                })
            })
            .expect("scout installed");
        let from = seen.len() / 4;
        let period = case.tweaks.capture_period.as_millis();
        let boundary = (from as u64).next_multiple_of(period);
        // A checkpoint lands on the tick before the one that reports it
        // as just taken.
        let checkpoint = seen
            .iter()
            .skip(from)
            .position(|s| s.just_checkpointed)
            .map(|i| (from + i - 1) as u64)
            .expect("the scene checkpoints");
        let gates = [
            ("off", middle_of_run(&seen, from, 40, |s| s.off)),
            ("mid-task", middle_of_run(&seen, from, 40, |s| s.mid_task)),
            ("checkpoint", checkpoint),
            ("after-checkpoint", checkpoint + 1),
            ("capture-1", boundary - 1),
            ("capture", boundary),
            ("capture+1", boundary + 1),
        ];

        for plan in [
            FaultPlan::smoke(),
            FaultPlan::standard(),
            FaultPlan::heavy(),
        ] {
            for &(label, gate_ms) in &gates {
                let gate = SimTime::from_millis(gate_ms);
                let seed = rng.next_u64();
                let describe = format!(
                    "{} [gate {label} at {gate_ms} ms, plan {}]",
                    case.describe(),
                    plan.label
                );
                let (tm, te, ts, tf) = gated_run(case, EngineKind::Tick, &plan, seed, gate);
                let (fm, fe, fs, ff) = gated_run(case, EngineKind::FastForward, &plan, seed, gate);
                assert_eq!(tm, fm, "metrics diverge: {describe}");
                assert!(tm.faults_total() > 0, "the adversary must act: {describe}");
                assert_eq!(te, fe, "event bytes diverge: {describe}");
                assert_eq!(tf, ff, "fault stats diverge: {describe}");
                for (at, (ts, fs)) in ts.iter().zip(&fs).enumerate() {
                    let words = ts.injector.as_ref().map(|i| i.words.len());
                    assert_eq!(words, Some(10), "injector layout: {describe}");
                    assert_eq!(ts, fs, "state {at} diverges: {describe}");
                    assert_eq!(
                        qz_snap::to_json(ts),
                        qz_snap::to_json(fs),
                        "snapshot {at} bytes diverge: {describe}"
                    );
                }
            }
        }
    }
}
