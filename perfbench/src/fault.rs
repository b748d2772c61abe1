//! `fault-campaigns`: the `standard` fault preset on Crowded with the
//! injection gate at the middle of the clean run, in the default
//! snapshot campaign mode, single-threaded — the `qz fault` path. One
//! repetition runs several independent suites, one after another. It is
//! the only workload that saves and restores `qz-snap` state, records
//! events and arms the injector (which forces a `FaultCollapse`
//! reference tick on every tick after the gate); faulted runs fork from
//! a restored state.
//!
//! Simulated device-hours per suite are (campaigns + 2 references) ×
//! the clean reference's simulated time. Oracle: `CampaignMode::Replay`
//! must produce the same `FaultReport` JSON; a campaign also fails on
//! any differential-invariant violation.

use crate::layers::{engine_metrics, QuetzalCounters};
use crate::{
    guarded, ns_since, repeat, sample_setups, timed, Metric, Outcome, Quality, Setup,
    REFERENCE_SEED,
};
use qz_app::{build_simulation, SimTweaks};
use qz_fault::{
    check_all, oracle_environment, oracle_tweaks, run_campaigns, run_campaigns_with, run_one,
    AdversarialInjector, CampaignConfig, CampaignMode, CampaignRow, DiffInputs, FaultReport,
    RunOutcome,
};
use qz_fleet::Executor;
use qz_obs::RecordingObserver;
use qz_prof::{HorizonStats, PhaseProfiler};
use qz_sim::{CheckpointPolicy, EngineKind, Simulation};
use qz_traces::{EnvironmentKind, SensingEnvironment};
use qz_types::{SimDuration, SimTime, SplitMix64};
use std::time::{Duration, Instant};

/// Independent campaign suites per repetition, each with its own
/// environment, simulator and fault seeds.
pub const SUITES: usize = 4;
/// Events in each suite's generated Crowded environment.
pub const EVENTS: usize = 100;
/// Faulted campaigns per suite.
pub const CAMPAIGNS: usize = 3;

/// One campaign suite: its configuration, with the gate at the middle
/// of the clean reference run (whole seconds), and that reference.
struct Suite {
    cfg: CampaignConfig,
    clean: RunOutcome,
}

fn build_suites(seed: u64) -> Vec<Suite> {
    (0..SUITES)
        .map(|s| {
            let mut cfg = CampaignConfig {
                env: EnvironmentKind::Crowded,
                events: EVENTS,
                campaigns: CAMPAIGNS,
                seed: SplitMix64::derive_stream(seed, s as u64),
                ..CampaignConfig::default()
            };
            cfg.tweaks.engine = EngineKind::FastForward;
            let env = environment(&cfg);
            let (clean, _) = run_one(cfg.system, &cfg.profile, &env, &sim_tweaks(&cfg), None);
            cfg.injection_at = SimDuration::from_secs(clean.metrics.sim_time.as_millis() / 2000);
            Suite { cfg, clean }
        })
        .collect()
}

fn environment(cfg: &CampaignConfig) -> SensingEnvironment {
    SensingEnvironment::generate(cfg.env, cfg.events, cfg.env_seed())
}

fn sim_tweaks(cfg: &CampaignConfig) -> SimTweaks {
    SimTweaks {
        seed: cfg.sim_seed(),
        ..cfg.tweaks.clone()
    }
}

fn gate(cfg: &CampaignConfig) -> SimTime {
    SimTime::from_millis(cfg.injection_at.as_millis())
}

/// The set-up `run_campaigns` performs for every suite (environment,
/// preflight and first simulation), timed by crate.
fn setup(suites: &[Suite]) -> Setup {
    let mut setup = Setup::default();
    for Suite { cfg, .. } in suites {
        let (env, generate_ns) = timed(|| environment(cfg));
        let (report, preflight_ns) = timed(|| qz_fault::preflight(cfg));
        assert!(!report.has_errors(), "{}", report.render_text());
        let (sim, build_ns) =
            timed(|| build_simulation(cfg.system, &cfg.profile, &env, &sim_tweaks(cfg)));
        drop(std::hint::black_box(sim));
        setup.generate_ns += generate_ns;
        setup.preflight_ns += preflight_ns;
        setup.build_ns += build_ns;
    }
    setup
}

/// The outcome counters of the suites' clean references.
fn quality(suites: &[Suite]) -> Quality {
    let mut q = Quality::default();
    for s in suites {
        q.add(&s.clean.metrics);
    }
    q
}

/// Runs the workload (see the crate docs for the phases).
pub fn bench(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let suites = build_suites(seed);
    let (mut timed_runs, outputs) = repeat(budget, || {
        timed(|| {
            suites
                .iter()
                .map(|s| run_campaigns(&s.cfg, Executor::new(1)).expect("campaigns run"))
                .collect::<Vec<_>>()
        })
    });
    timed_runs.setups = sample_setups(&mut out, || setup(&suites));

    let oracle = guarded(|| {
        suites
            .iter()
            .map(|s| {
                run_campaigns_with(&s.cfg, Executor::new(1), CampaignMode::Replay)
                    .expect("campaigns run")
            })
            .collect::<Vec<_>>()
    });
    let Some(oracle) = oracle else {
        out.problem("replay-mode oracle panicked");
        out.attempted = (outputs.len() * SUITES * CAMPAIGNS) as u64;
        out.failed = out.attempted;
        return out;
    };
    let Some(first) = outputs.iter().flatten().next() else {
        out.attempted = (outputs.len() * SUITES * CAMPAIGNS) as u64;
        out.failed = out.attempted;
        out.problem("every timed campaign batch panicked");
        return out;
    };
    for (report, reference) in first.iter().zip(&oracle) {
        if report.to_json() != reference.to_json() {
            out.problem(format!(
                "fault report for suite seed {} differs from the replay-mode oracle",
                report.seed
            ));
        }
    }
    for output in &outputs {
        out.attempted += (SUITES * CAMPAIGNS) as u64;
        let Some(reports) = output else {
            out.failed += (SUITES * CAMPAIGNS) as u64;
            continue;
        };
        for s in 0..SUITES {
            let failed = (0..CAMPAIGNS)
                .filter(|&c| {
                    let row = row_of(reports, s, c);
                    row.is_none_or(|r| !r.violations.is_empty())
                        || row != row_of(&oracle, s, c)
                        || row != row_of(first, s, c)
                })
                .count();
            out.failed += failed as u64;
        }
    }
    let pinned = guarded(|| quality(&build_suites(REFERENCE_SEED)));
    if pinned.is_none() {
        out.problem("reference-seed clean runs panicked");
    }
    let device_seconds: f64 = suites
        .iter()
        .map(|s| (CAMPAIGNS + 2) as f64 * s.clean.metrics.sim_time.as_seconds().value())
        .sum();
    out.push_end_to_end(
        &timed_runs,
        device_seconds / 3600.0,
        quality(&suites),
        pinned.unwrap_or_default(),
    );

    if trace && guarded(|| traced(&suites, first, &timed_runs, &mut out)).is_none() {
        out.problem("traced fault-campaigns run panicked");
    }
    out
}

/// Campaign `c` of suite `s`.
fn row_of(reports: &[FaultReport], s: usize, c: usize) -> Option<&CampaignRow> {
    reports.get(s).and_then(|r| r.rows.get(c))
}

/// Traced measurements of the `qz-fault`, `qz-snap` and `qz-obs`
/// layers, summed over the suites.
#[derive(Default)]
pub(crate) struct Totals {
    campaigns: u64,
    faults: u64,
    violations: u64,
    references_ns: u64,
    forks_ns: u64,
    /// `snap.{save,restore,encode,decode}.ns`, then `snap.bytes`.
    snap: [u64; 5],
    events: u64,
    /// Fastest untraced `run_campaigns` wall time per suite, summed.
    suite_ns: u64,
    /// Fastest unprofiled replica wall time per suite, summed.
    replica_ns: u64,
}

impl Totals {
    /// Replica wall time over `run_campaigns` wall time (0 without
    /// suites).
    #[allow(clippy::cast_precision_loss)] // ns stay far below 2^52
    fn replica_ratio(&self) -> f64 {
        if self.suite_ns == 0 {
            0.0
        } else {
            self.replica_ns as f64 / self.suite_ns as f64
        }
    }

    /// The `fault.*`, `snap.*` and `obs.*` layer metrics (all zero on a
    /// workload that runs no campaign).
    #[allow(clippy::cast_precision_loss)] // counts, bytes and ns stay far below 2^52
    pub(crate) fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::one("fault.campaigns", self.campaigns as f64, "count"),
            Metric::one("fault.faults_injected", self.faults as f64, "count"),
            Metric::one("fault.violations", self.violations as f64, "count"),
            Metric::one("fault.references.ns", self.references_ns as f64, "ns"),
            Metric::one("fault.forks.ns", self.forks_ns as f64, "ns"),
            Metric::one("snap.save.ns", self.snap[0] as f64, "ns"),
            Metric::one("snap.restore.ns", self.snap[1] as f64, "ns"),
            Metric::one("snap.encode.ns", self.snap[2] as f64, "ns"),
            Metric::one("snap.decode.ns", self.snap[3] as f64, "ns"),
            Metric::one("snap.bytes", self.snap[4] as f64, "bytes"),
            Metric::one("obs.events", self.events as f64, "count"),
            Metric::one("fault.replica_ratio", self.replica_ratio(), "ratio"),
        ]
    }
}

/// The traced run: each suite split into references and forks,
/// snapshot codec timings at its gate, and a profiled replica of the
/// suite whose rows must equal the untraced ones.
///
/// `qz-fault` has no profiled entry point, so the `sim.*`, `energy.*`
/// figures of this workload come from [`replica_suite`], a copy of
/// `run_campaigns`' snapshot-mode loop. So that the copy cannot go on
/// describing an old `run_campaigns` unnoticed, it also runs unprofiled
/// and its fastest wall time must stay within [`REPLICA_TOLERANCE`] of
/// `run_campaigns`' (`fault.replica_ratio`).
fn traced(
    suites: &[Suite],
    untraced: &[FaultReport],
    timed_runs: &crate::Timed,
    out: &mut Outcome,
) {
    let mut prof = PhaseProfiler::enabled();
    let mut horizon = HorizonStats::new();
    let mut totals = Totals {
        campaigns: (SUITES * CAMPAIGNS) as u64,
        ..Totals::default()
    };
    let mut traced_ns = 0;
    let mut scratch = (PhaseProfiler::disabled(), HorizonStats::new());
    for (Suite { cfg, .. }, report) in suites.iter().zip(untraced) {
        let env = environment(cfg);
        let tweaks = sim_tweaks(cfg);
        let oracle_env = oracle_environment(&env);
        let ((clean, _), clean_ns) =
            timed(|| run_one(cfg.system, &cfg.profile, &env, &tweaks, None));
        let (_, oracle_ns) = timed(|| {
            run_one(
                cfg.system,
                &cfg.profile,
                &oracle_env,
                &oracle_tweaks(&tweaks),
                None,
            )
        });
        let (mut suite_ns, mut replica_ns) = (u64::MAX, u64::MAX);
        for _ in 0..REPLICA_PAIRS {
            let (suite, ns) =
                timed(|| run_campaigns(cfg, Executor::new(1)).expect("campaigns run"));
            if suite.to_json() != report.to_json() {
                out.problem("a repeated fault suite differs from the first one");
            }
            suite_ns = suite_ns.min(ns);
            let (plain, ns) = timed(|| {
                replica_suite(
                    cfg,
                    &env,
                    &oracle_env,
                    &tweaks,
                    false,
                    &mut scratch.0,
                    &mut scratch.1,
                )
            });
            if plain != report.rows {
                out.problem("the unprofiled replica's campaigns differ from the untraced suite");
            }
            replica_ns = replica_ns.min(ns);
        }
        let t0 = Instant::now();
        let rows = replica_suite(
            cfg,
            &env,
            &oracle_env,
            &tweaks,
            true,
            &mut prof,
            &mut horizon,
        );
        traced_ns += ns_since(t0);
        if rows != report.rows {
            out.problem("traced fault campaigns differ from the untraced suite");
        }
        totals.suite_ns += suite_ns;
        totals.replica_ns += replica_ns;
        let snap = snapshot_timings(cfg, &env, &tweaks, out);
        for (total, v) in totals.snap.iter_mut().zip(snap) {
            *total += v;
        }
        totals.references_ns += clean_ns + oracle_ns;
        totals.forks_ns += suite_ns.saturating_sub(clean_ns + oracle_ns);
        totals.events += clean.events.len() as u64;
        totals.faults += report.total_faults();
        totals.violations += report.total_violations() as u64;
    }
    let drift = totals.replica_ratio() - 1.0;
    if drift.abs() > REPLICA_TOLERANCE {
        out.problem(format!(
            "the unprofiled replica of run_campaigns is {:+.1} % off its wall time: \
             update replica_suite to the current campaign loop",
            drift * 100.0
        ));
    }
    out.layers.extend(QuetzalCounters::absent());
    out.layers.extend(engine_metrics(&prof, &horizon));
    out.layers.extend(totals.metrics());
    #[allow(clippy::cast_precision_loss)] // ns stay far below 2^52
    out.push_common_layers(timed_runs, traced_ns as f64 / 1e9);
}

/// Times `qz-snap` at the gate: `save_state`, `restore_state` into a
/// fresh simulation, `to_json` and `from_json`, in ns, then the encoded
/// size in bytes.
fn snapshot_timings(
    cfg: &CampaignConfig,
    env: &SensingEnvironment,
    tweaks: &SimTweaks,
    out: &mut Outcome,
) -> [u64; 5] {
    let mut sim = build_simulation(cfg.system, &cfg.profile, env, tweaks);
    sim.step_until(gate(cfg));
    let (state, save_ns) = timed(|| sim.save_state().expect("fault-free state snapshots"));
    let (json, encode_ns) = timed(|| qz_snap::to_json(&state));
    let spec = sim.runtime().spec().clone();
    let (decoded, decode_ns) =
        timed(|| qz_snap::from_json(&json, &spec).expect("own snapshot decodes"));
    let mut fresh = build_simulation(cfg.system, &cfg.profile, env, tweaks);
    let (restored, restore_ns) = timed(|| fresh.restore_state(&decoded));
    if restored.is_err() || qz_snap::to_json(&decoded) != json {
        out.problem("snapshot round trip at the gate is not exact");
    }
    [save_ns, restore_ns, encode_ns, decode_ns, json.len() as u64]
}

/// How far the unprofiled replica's wall time may stray from
/// `run_campaigns`' before the traced run reports a problem.
pub const REPLICA_TOLERANCE: f64 = 0.25;
/// Interleaved `run_campaigns` / replica timings per suite; each side
/// keeps its fastest, which single timings on a shared host are too
/// noisy (±15 %) for.
const REPLICA_PAIRS: usize = 3;

/// A copy of `run_campaigns`' snapshot-mode loop (`qz-fault`
/// `campaign.rs`), with the phase profiler armed on every simulation
/// when `profile` is set: the clean run (snapshotted at the gate), the
/// always-on oracle, and one fork per campaign. Returns the campaign
/// rows and folds the engine accounting into `prof` and `horizon`.
fn replica_suite(
    cfg: &CampaignConfig,
    env: &SensingEnvironment,
    oracle_env: &SensingEnvironment,
    tweaks: &SimTweaks,
    profile: bool,
    prof: &mut PhaseProfiler,
    horizon: &mut HorizonStats,
) -> Vec<CampaignRow> {
    let at = gate(cfg);
    let mut absorb = |sim: &Simulation<'_>| {
        prof.merge(sim.profiler());
        horizon.merge(sim.horizon_stats());
    };
    let mut sim = recording(cfg, env, tweaks, profile);
    sim.step_until(at);
    let snap = sim.save_state().expect("fault-free state snapshots");
    let clean = finish(&mut sim);
    absorb(&sim);
    let prefix: Vec<_> = clean
        .events
        .iter()
        .filter(|e| e.t_ms < at.as_millis())
        .cloned()
        .collect();

    let mut sim = recording(cfg, oracle_env, &oracle_tweaks(tweaks), profile);
    let oracle = finish(&mut sim);
    absorb(&sim);

    let jit = matches!(cfg.tweaks.checkpoint_policy, CheckpointPolicy::JustInTime);
    let mut rows = Vec::with_capacity(cfg.campaigns);
    for c in 0..cfg.campaigns {
        let fault_seed = cfg.fault_seed(c);
        let mut sim = build_simulation(cfg.system, &cfg.profile, env, tweaks);
        if profile {
            sim.enable_profiling();
        }
        sim.restore_state(&snap)
            .expect("the prefix snapshot restores into its own configuration");
        sim.set_observer(Box::new(RecordingObserver::new()));
        sim.set_fault_injector(Box::new(AdversarialInjector::activating_at(
            cfg.plan.clone(),
            fault_seed,
            at,
        )));
        while sim.step() {}
        let stats = sim
            .take_fault_injector()
            .and_then(|mut f| {
                f.as_any_mut().and_then(|any| {
                    any.downcast_ref::<AdversarialInjector>()
                        .map(|a| a.stats().clone())
                })
            })
            .expect("injector was installed");
        let mut faulted = finish(&mut sim);
        absorb(&sim);
        let mut events = prefix.clone();
        events.append(&mut faulted.events);
        faulted.events = events;
        let violations = check_all(&DiffInputs {
            faulted: &faulted,
            clean: &clean,
            oracle: &oracle,
            stats: &stats,
            jit,
            system: cfg.system,
        });
        let m = &faulted.metrics;
        rows.push(CampaignRow {
            campaign: cfg.start + c,
            fault_seed,
            faults: m.faults_total(),
            faults_power: m.faults_power,
            faults_checkpoint: m.faults_checkpoint,
            min_stored_j: if stats.min_stored_j.is_finite() {
                stats.min_stored_j
            } else {
                0.0
            },
            violations,
        });
    }
    rows
}

/// A simulation recording its event stream, profiled if `profile`.
fn recording<'a>(
    cfg: &CampaignConfig,
    env: &'a SensingEnvironment,
    tweaks: &SimTweaks,
    profile: bool,
) -> Simulation<'a> {
    let mut sim = build_simulation(cfg.system, &cfg.profile, env, tweaks);
    if profile {
        sim.enable_profiling();
    }
    sim.set_observer(Box::new(RecordingObserver::new()));
    sim
}

/// Runs `sim` to completion and collects its outcome.
fn finish(sim: &mut Simulation<'_>) -> RunOutcome {
    while sim.step() {}
    let mut observer = sim.take_observer();
    RunOutcome {
        metrics: sim.metrics().clone(),
        events: qz_obs::take_recorded(observer.as_mut()).unwrap_or_default(),
    }
}
