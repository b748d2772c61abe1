//! Campaign orchestration: N independently-seeded faulted runs of one
//! configuration, each judged by the differential oracle, reduced into
//! one deterministic report.
//!
//! Determinism contract: every campaign's trajectory is a pure
//! function of `(CampaignConfig)` — the environment, simulator, and
//! fault schedules derive from the master seed via
//! [`SplitMix64::derive_stream`], campaigns are fanned out on the
//! [`Executor`] whose `map` returns input-ordered results, and the
//! report renderers emit nothing non-deterministic. A report is
//! byte-identical for a given config at any thread count.

use crate::inject::{AdversarialInjector, FaultStats};
use crate::invariants::{check_all, DiffInputs, Violation};
use crate::oracle::{
    finish, oracle_environment, oracle_tweaks, recording_simulation, run_one_profiled, RunOutcome,
};
use crate::plan::FaultPlan;
use qz_app::{apollo4, DeviceProfile, SimTweaks};
use qz_baselines::BaselineKind;
use qz_fleet::Executor;
use qz_obs::Event;
use qz_prof::{HorizonStats, PhaseProfiler};
use qz_sim::SimState;
use qz_traces::{EnvironmentKind, SensingEnvironment};
use qz_types::json::escape;
use qz_types::{SimDuration, SimTime, SplitMix64};
use std::fmt::Write as _;

/// One fault campaign family: a configuration plus how many seeds to
/// throw at it.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// The scheduling system under test.
    pub system: BaselineKind,
    /// Hardware profile.
    pub profile: DeviceProfile,
    /// Sensing environment kind.
    pub env: EnvironmentKind,
    /// Events in the generated environment.
    pub events: usize,
    /// Number of faulted runs to judge.
    pub campaigns: usize,
    /// Index of the first campaign (so `--start N --campaigns 1`
    /// reproduces campaign N of a larger sweep exactly).
    pub start: usize,
    /// Master seed; environment, simulator, and per-campaign fault
    /// streams derive from it.
    pub seed: u64,
    /// The fault plan every campaign runs.
    pub plan: FaultPlan,
    /// Instant the adversary activates. Before it every run is
    /// bit-identical to the fault-free reference, which lets the
    /// snapshot execution mode fork all faulted runs from one shared
    /// prefix snapshot instead of replaying the prefix per campaign.
    /// `ZERO` (the default) means faults can fire from the first tick.
    pub injection_at: SimDuration,
    /// Simulator knobs shared by every run (the seed field is
    /// overwritten by the derived stream).
    pub tweaks: SimTweaks,
}

impl Default for CampaignConfig {
    /// Quetzal on Apollo 4 in the crowded environment: 12 events,
    /// 8 campaigns of the standard plan.
    fn default() -> CampaignConfig {
        CampaignConfig {
            system: BaselineKind::Quetzal,
            profile: apollo4(),
            env: EnvironmentKind::Crowded,
            events: 12,
            campaigns: 8,
            start: 0,
            seed: 0xFA017,
            plan: FaultPlan::standard(),
            injection_at: SimDuration::ZERO,
            tweaks: SimTweaks::default(),
        }
    }
}

/// How [`run_campaigns_with`] executes the faulted runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignMode {
    /// Every faulted run replays from tick zero with the injector gated
    /// until [`CampaignConfig::injection_at`].
    Replay,
    /// The fault-free prefix up to [`CampaignConfig::injection_at`] is
    /// simulated once, snapshotted, and every faulted run forks from
    /// that snapshot. Byte-identical reports to [`CampaignMode::Replay`]
    /// by the engine's snapshot contract; the prefix cost is paid once
    /// instead of once per campaign.
    Snapshot,
}

impl CampaignConfig {
    /// Seed for the generated sensing environment.
    pub fn env_seed(&self) -> u64 {
        SplitMix64::derive_stream(self.seed, 0)
    }

    /// Seed for the simulator's classification draws.
    pub fn sim_seed(&self) -> u64 {
        SplitMix64::derive_stream(self.seed, 1)
    }

    /// Seed for campaign `c`'s fault schedule (`c` is the offset within
    /// this config; the global index is `start + c`).
    pub fn fault_seed(&self, c: usize) -> u64 {
        SplitMix64::derive_stream(self.seed, 2 + (self.start + c) as u64)
    }

    /// The [`qz_check::FaultCheckInput`] scalars for this config's
    /// survivability preflight.
    pub fn check_input(&self) -> qz_check::FaultCheckInput {
        let d = &self.profile.device;
        let power = qz_sim::PowerConfig {
            harvester_cells: self.tweaks.harvester_cells,
            ..qz_sim::PowerConfig::default()
        };
        let latencies = [
            self.profile.ml_high.t_exe,
            self.profile.ml_low.t_exe,
            self.profile.annotate.t_exe,
            self.profile.radio_full.t_exe,
            self.profile.radio_byte.t_exe,
        ];
        let mean_latency =
            latencies.iter().map(|t| t.value()).sum::<f64>() / latencies.len() as f64;
        qz_check::FaultCheckInput {
            checkpoint_energy_j: d.checkpoint_energy.value(),
            restore_energy_j: d.restore_energy.value(),
            checkpoint_reserve_j: d.checkpoint_reserve().value(),
            harvest_ceiling_w: f64::from(power.harvester_cells)
                * power.cell_rating.value()
                * power.converter_efficiency,
            failure_rate_per_s: self.plan.failure_rate_per_s(),
            corruption_prob: self.plan.checkpoint_corruption,
            jit_checkpointing: matches!(
                self.tweaks.checkpoint_policy,
                qz_sim::CheckpointPolicy::JustInTime
            ),
            mean_task_latency_s: mean_latency,
        }
    }
}

/// Why a campaign family could not start.
#[derive(Debug)]
pub enum FaultError {
    /// The `QZ06x` survivability preflight found errors: the injected
    /// failure density livelocks the device, so the campaign would only
    /// confirm a foregone conclusion. The report carries the
    /// diagnostics.
    Infeasible(qz_check::Report),
    /// The config is structurally unusable (zero campaigns or events).
    BadConfig(String),
}

impl core::fmt::Display for FaultError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FaultError::Infeasible(report) => {
                write!(f, "fault preflight failed:\n{}", report.render_text())
            }
            FaultError::BadConfig(why) => write!(f, "bad fault config: {why}"),
        }
    }
}

impl std::error::Error for FaultError {}

/// Runs the survivability preflight on its own — the same check
/// [`run_campaigns`] performs — so callers can surface warnings even
/// when the run proceeds.
pub fn preflight(cfg: &CampaignConfig) -> qz_check::Report {
    qz_check::check_faults(&cfg.check_input())
}

/// One judged campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Global campaign index (`start + offset`).
    pub campaign: usize,
    /// The derived fault-schedule seed this campaign ran under.
    pub fault_seed: u64,
    /// Total injected faults, across every class.
    pub faults: u64,
    /// Forced power failures among them.
    pub faults_power: u64,
    /// Corrupted checkpoints among them.
    pub faults_checkpoint: u64,
    /// Lowest stored energy the injector observed, joules.
    pub min_stored_j: f64,
    /// Every invariant violation the differential oracle found.
    pub violations: Vec<Violation>,
}

/// The outcome of one campaign family.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// System label (e.g. `QZ`).
    pub system: String,
    /// CLI tokens that reproduce this family (system/device/env).
    repro: ReproTokens,
    /// Injection gate in whole seconds (0 = faults from the first tick).
    inject_at_s: u64,
    /// Events in the shared environment.
    pub events: usize,
    /// Plan preset label.
    pub preset: String,
    /// Master seed.
    pub seed: u64,
    /// Clean-run frames attempted (differential reference).
    pub clean_frames: u64,
    /// Oracle-run frames attempted (differential ceiling).
    pub oracle_frames: u64,
    /// Per-campaign rows, ordered by campaign index.
    pub rows: Vec<CampaignRow>,
}

/// The CLI-parsable tokens a repro line needs.
#[derive(Debug, Clone, PartialEq)]
struct ReproTokens {
    system: String,
    device: String,
    env: String,
}

/// The `--device` token for a profile (by its platform name).
pub fn cli_device_token(profile_name: &str) -> &'static str {
    if profile_name.to_ascii_lowercase().starts_with("msp430") {
        "msp430"
    } else {
        "apollo4"
    }
}

/// Formats a float for the report: fixed six decimals, so output is
/// reproducible and diff-friendly.
fn num(v: f64) -> String {
    format!("{v:.6}")
}

impl FaultReport {
    /// Total invariant violations across every campaign.
    pub fn total_violations(&self) -> usize {
        self.rows.iter().map(|r| r.violations.len()).sum()
    }

    /// Total injected faults across every campaign.
    pub fn total_faults(&self) -> u64 {
        self.rows.iter().map(|r| r.faults).sum()
    }

    /// The single-line command that reproduces campaign `row` alone.
    pub fn repro_line(&self, row: &CampaignRow) -> String {
        let inject = if self.inject_at_s == 0 {
            String::new()
        } else {
            format!(" --inject-at {}", self.inject_at_s)
        };
        format!(
            "qz fault --system {} --device {} --env {} --events {} --preset {} \
             --seed {:#x} --start {} --campaigns 1{inject}",
            self.repro.system,
            self.repro.device,
            self.repro.env,
            self.events,
            self.preset,
            self.seed,
            row.campaign
        )
    }

    /// The report as a JSON document. Keys are emitted in a fixed
    /// order; floats use six decimals — byte-identical across thread
    /// counts by construction.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"system\": \"{}\",", self.system);
        let _ = writeln!(s, "  \"preset\": \"{}\",", self.preset);
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"events\": {},", self.events);
        let _ = writeln!(s, "  \"campaigns\": {},", self.rows.len());
        let _ = writeln!(s, "  \"clean_frames\": {},", self.clean_frames);
        let _ = writeln!(s, "  \"oracle_frames\": {},", self.oracle_frames);
        let _ = writeln!(s, "  \"faults_injected\": {},", self.total_faults());
        let _ = writeln!(s, "  \"violations\": {},", self.total_violations());
        s.push_str("  \"per_campaign\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let mut viol = String::new();
            for (j, v) in r.violations.iter().enumerate() {
                let vcomma = if j + 1 < r.violations.len() { ", " } else { "" };
                let _ = write!(
                    viol,
                    "{{\"invariant\": \"{}\", \"detail\": \"{}\"}}{vcomma}",
                    v.invariant,
                    escape(&v.detail)
                );
            }
            let _ = writeln!(
                s,
                "    {{\"campaign\": {}, \"fault_seed\": {}, \"faults\": {}, \
                 \"faults_power\": {}, \"faults_checkpoint\": {}, \"min_stored_j\": {}, \
                 \"violations\": [{viol}]}}{comma}",
                r.campaign,
                r.fault_seed,
                r.faults,
                r.faults_power,
                r.faults_checkpoint,
                num(r.min_stored_j),
            );
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// A human-oriented summary: one line per campaign, plus a repro
    /// command for every violating campaign.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fault: {} campaigns of preset `{}` against {} (seed {:#x})",
            self.rows.len(),
            self.preset,
            self.system,
            self.seed
        );
        let _ = writeln!(
            s,
            "differential: clean run attempted {} frames, always-on oracle {}",
            self.clean_frames, self.oracle_frames
        );
        for r in &self.rows {
            let verdict = if r.violations.is_empty() {
                "ok".to_string()
            } else {
                format!("{} VIOLATIONS", r.violations.len())
            };
            let _ = writeln!(
                s,
                "  campaign {:>4}: {:>5} faults ({} power, {} corrupt), floor {} J — {verdict}",
                r.campaign,
                r.faults,
                r.faults_power,
                r.faults_checkpoint,
                num(r.min_stored_j),
            );
            for v in &r.violations {
                let _ = writeln!(s, "    [{}] {}", v.invariant, v.detail);
            }
            if !r.violations.is_empty() {
                let _ = writeln!(s, "    repro: {}", self.repro_line(r));
            }
        }
        let _ = writeln!(
            s,
            "total: {} faults injected, {} invariant violations",
            self.total_faults(),
            self.total_violations()
        );
        s
    }
}

/// The single-line `qz fault` command reproducing global campaign
/// `campaign` of `cfg` on its own — the same line a [`FaultReport`]
/// prints for a violating row.
pub fn repro_line_for(cfg: &CampaignConfig, campaign: usize) -> String {
    let inject_s = cfg.injection_at.as_millis() / 1000;
    let inject = if inject_s == 0 {
        String::new()
    } else {
        format!(" --inject-at {inject_s}")
    };
    format!(
        "qz fault --system {} --device {} --env {} --events {} --preset {} \
         --seed {:#x} --start {} --campaigns 1{inject}",
        cfg.system.token(),
        cli_device_token(cfg.profile.name),
        cfg.env.token(),
        cfg.events,
        cfg.plan.label,
        cfg.seed,
        campaign
    )
}

/// The injection gate as an absolute simulation instant.
pub(crate) fn injection_time(cfg: &CampaignConfig) -> SimTime {
    SimTime::from_millis(cfg.injection_at.as_millis())
}

/// Wall-clock and horizon accounting for a whole campaign family: the
/// phase profilers and horizon-cause stats of the fault-free
/// reference, the always-on oracle and every faulted run, merged.
#[derive(Debug, Default)]
pub struct CampaignProfile {
    /// Merged phase profiler.
    pub profiler: PhaseProfiler,
    /// Merged deterministic horizon-cause accounting.
    pub horizon: HorizonStats,
}

impl CampaignProfile {
    /// Folds another run's accounting into this one.
    fn merge(&mut self, other: &CampaignProfile) {
        self.profiler.merge(&other.profiler);
        self.horizon.merge(&other.horizon);
    }
}

/// Runs the fault-free reference and captures a snapshot at the
/// injection gate on the way (the shared prefix every faulted fork
/// resumes from).
fn run_clean_with_snapshot(
    cfg: &CampaignConfig,
    env: &SensingEnvironment,
    tweaks: &SimTweaks,
    at: SimTime,
    profiling: bool,
) -> (RunOutcome, SimState, Option<CampaignProfile>) {
    let mut sim = recording_simulation(cfg.system, &cfg.profile, env, tweaks, profiling);
    sim.step_until(at);
    let snap = sim
        .save_state()
        .expect("a fault-free run has no injector and always snapshots");
    let (clean, _, accounting) = finish(&mut sim);
    (clean, snap, accounting)
}

/// Runs one faulted campaign from tick zero (the injector gated until
/// the injection instant).
pub(crate) fn run_faulted_replay(
    cfg: &CampaignConfig,
    env: &SensingEnvironment,
    tweaks: &SimTweaks,
    fault_seed: u64,
    at: SimTime,
    profiling: bool,
) -> (RunOutcome, FaultStats, Option<CampaignProfile>) {
    let injector = AdversarialInjector::activating_at(cfg.plan.clone(), fault_seed, at);
    let (outcome, stats, accounting) = run_one_profiled(
        cfg.system,
        &cfg.profile,
        env,
        tweaks,
        Some(injector),
        profiling,
    );
    (outcome, stats.expect("injector was installed"), accounting)
}

/// Runs one faulted campaign by forking the shared prefix snapshot:
/// restore, arm the injector, simulate only the suffix. The recorded
/// events are spliced after the clean run's prefix so the outcome is
/// byte-identical to [`run_faulted_replay`].
#[allow(clippy::too_many_arguments)] // the replay inputs plus the prefix
fn run_faulted_fork(
    cfg: &CampaignConfig,
    env: &SensingEnvironment,
    tweaks: &SimTweaks,
    snap: &SimState,
    prefix: &[Event],
    fault_seed: u64,
    at: SimTime,
    profiling: bool,
) -> (RunOutcome, FaultStats, Option<CampaignProfile>) {
    let mut sim = recording_simulation(cfg.system, &cfg.profile, env, tweaks, profiling);
    sim.restore_state(snap)
        .expect("the prefix snapshot restores into its own configuration");
    sim.set_fault_injector(Box::new(AdversarialInjector::activating_at(
        cfg.plan.clone(),
        fault_seed,
        at,
    )));
    let (suffix, stats, accounting) = finish(&mut sim);
    let mut events = prefix.to_vec();
    events.extend(suffix.events);
    (
        RunOutcome {
            metrics: suffix.metrics,
            events,
        },
        stats.expect("injector was installed"),
        accounting,
    )
}

/// Runs the whole campaign family on `exec`'s thread crew in the
/// default [`CampaignMode::Snapshot`] execution mode and returns the
/// report. The report is byte-identical for a given config at any
/// thread count and in either execution mode.
///
/// # Errors
///
/// [`FaultError::BadConfig`] when the config has zero campaigns or
/// events; [`FaultError::Infeasible`] when the `QZ06x` survivability
/// preflight finds errors.
///
/// # Panics
///
/// Panics if the experiment config itself fails `qz-check` validation
/// (the same contract as [`qz_app::build_simulation`]).
pub fn run_campaigns(cfg: &CampaignConfig, exec: Executor) -> Result<FaultReport, FaultError> {
    run_campaigns_with(cfg, exec, CampaignMode::Snapshot)
}

/// [`run_campaigns`] with an explicit execution mode (the benchmark
/// harness runs both and asserts the reports are byte-identical).
///
/// # Errors
///
/// As for [`run_campaigns`].
///
/// # Panics
///
/// As for [`run_campaigns`].
pub fn run_campaigns_with(
    cfg: &CampaignConfig,
    exec: Executor,
    mode: CampaignMode,
) -> Result<FaultReport, FaultError> {
    run_family(cfg, exec, mode, false).map(|(report, _)| report)
}

/// [`run_campaigns`] with the phase profiler armed on every simulation
/// — the fault-free reference, the always-on oracle and every faulted
/// fork — returning their merged accounting alongside the report. The
/// report is byte-identical to the unprofiled run: profiling reads
/// wall-clock time only.
///
/// # Errors
///
/// As for [`run_campaigns`].
///
/// # Panics
///
/// As for [`run_campaigns`].
pub fn run_campaigns_profiled(
    cfg: &CampaignConfig,
    exec: Executor,
) -> Result<(FaultReport, CampaignProfile), FaultError> {
    run_family(cfg, exec, CampaignMode::Snapshot, true).map(|(report, profile)| {
        (
            report,
            profile.expect("profiled run always yields a profile"),
        )
    })
}

fn run_family(
    cfg: &CampaignConfig,
    exec: Executor,
    mode: CampaignMode,
    profiling: bool,
) -> Result<(FaultReport, Option<CampaignProfile>), FaultError> {
    if cfg.campaigns == 0 {
        return Err(FaultError::BadConfig(
            "fault needs at least one campaign".into(),
        ));
    }
    if cfg.events == 0 {
        return Err(FaultError::BadConfig(
            "environment needs at least one event".into(),
        ));
    }
    let report = preflight(cfg);
    if report.has_errors() {
        return Err(FaultError::Infeasible(report));
    }

    let env = SensingEnvironment::generate(cfg.env, cfg.events, cfg.env_seed());
    let mut tweaks = cfg.tweaks.clone();
    tweaks.seed = cfg.sim_seed();
    let at = injection_time(cfg);

    // The two references are shared by every campaign: one fault-free
    // run, one always-on oracle over the same event trace. In snapshot
    // mode the fault-free run doubles as the prefix-snapshot source.
    let (clean, snap, clean_accounting) = match mode {
        CampaignMode::Replay => {
            let (clean, _, accounting) =
                run_one_profiled(cfg.system, &cfg.profile, &env, &tweaks, None, profiling);
            (clean, None, accounting)
        }
        CampaignMode::Snapshot => {
            let (clean, snap, accounting) =
                run_clean_with_snapshot(cfg, &env, &tweaks, at, profiling);
            (clean, Some(snap), accounting)
        }
    };
    // Events the forks never see: everything from ticks before the
    // gate (the snapshot captures the state with all of them applied).
    let prefix: Vec<Event> = if snap.is_some() {
        clean
            .events
            .iter()
            .filter(|e| e.t_ms < at.as_millis())
            .cloned()
            .collect()
    } else {
        Vec::new()
    };
    let oracle_env = oracle_environment(&env);
    let (oracle, _, oracle_accounting) = run_one_profiled(
        cfg.system,
        &cfg.profile,
        &oracle_env,
        &oracle_tweaks(&tweaks),
        None,
        profiling,
    );

    let jit = matches!(
        cfg.tweaks.checkpoint_policy,
        qz_sim::CheckpointPolicy::JustInTime
    );
    let judged: Vec<(CampaignRow, Option<CampaignProfile>)> =
        exec.map((0..cfg.campaigns).collect(), |_, c| {
            let fault_seed = cfg.fault_seed(c);
            let (faulted, stats, accounting) = match &snap {
                None => run_faulted_replay(cfg, &env, &tweaks, fault_seed, at, profiling),
                Some(s) => {
                    run_faulted_fork(cfg, &env, &tweaks, s, &prefix, fault_seed, at, profiling)
                }
            };
            let violations = check_all(&DiffInputs {
                faulted: &faulted,
                clean: &clean,
                oracle: &oracle,
                stats: &stats,
                jit,
                system: cfg.system,
            });
            let m = &faulted.metrics;
            let row = CampaignRow {
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
            };
            (row, accounting)
        });

    let (rows, fork_accounting): (Vec<CampaignRow>, Vec<Option<CampaignProfile>>) =
        judged.into_iter().unzip();
    let profile = profiling.then(|| {
        let mut total = CampaignProfile::default();
        let runs = [clean_accounting, oracle_accounting]
            .into_iter()
            .chain(fork_accounting);
        for accounting in runs.flatten() {
            total.merge(&accounting);
        }
        total
    });
    let report = FaultReport {
        system: cfg.system.label(),
        repro: ReproTokens {
            system: cfg.system.token(),
            device: cli_device_token(cfg.profile.name).to_string(),
            env: cfg.env.token().to_string(),
        },
        inject_at_s: cfg.injection_at.as_millis() / 1000,
        events: cfg.events,
        preset: cfg.plan.label.to_string(),
        seed: cfg.seed,
        clean_frames: clean.metrics.frames_total,
        oracle_frames: oracle.metrics.frames_total,
        rows,
    };
    Ok((report, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qz_types::SimDuration;

    fn small() -> CampaignConfig {
        CampaignConfig {
            events: 4,
            campaigns: 3,
            tweaks: SimTweaks {
                drain: SimDuration::from_secs(30),
                ..SimTweaks::default()
            },
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn small_campaign_runs_clean() {
        let report = run_campaigns(&small(), Executor::new(2)).expect("campaigns run");
        assert_eq!(report.rows.len(), 3);
        assert!(report.total_faults() > 0, "standard plan must fire");
        assert_eq!(
            report.total_violations(),
            0,
            "violations:\n{}",
            report.render_text()
        );
        assert!(report.oracle_frames >= report.clean_frames);
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let cfg = small();
        let one = run_campaigns(&cfg, Executor::new(1)).expect("1 thread");
        let four = run_campaigns(&cfg, Executor::new(4)).expect("4 threads");
        assert_eq!(one.to_json(), four.to_json());
    }

    #[test]
    fn start_offset_reproduces_a_single_campaign() {
        let cfg = small();
        let full = run_campaigns(&cfg, Executor::new(1)).expect("full run");
        let solo_cfg = CampaignConfig {
            start: 2,
            campaigns: 1,
            ..cfg
        };
        let solo = run_campaigns(&solo_cfg, Executor::new(1)).expect("solo run");
        assert_eq!(solo.rows.len(), 1);
        assert_eq!(solo.rows[0], full.rows[2]);
    }

    #[test]
    fn zero_campaigns_is_rejected() {
        let cfg = CampaignConfig {
            campaigns: 0,
            ..small()
        };
        assert!(matches!(
            run_campaigns(&cfg, Executor::new(1)),
            Err(FaultError::BadConfig(_))
        ));
    }

    #[test]
    fn saturating_plan_is_rejected_by_preflight() {
        let cfg = CampaignConfig {
            plan: FaultPlan {
                power_failure_per_tick: 0.1, // 100/s × 1 mJ = 100 mW ≥ 48 mW
                ..FaultPlan::heavy()
            },
            ..small()
        };
        match run_campaigns(&cfg, Executor::new(1)) {
            Err(FaultError::Infeasible(report)) => assert!(report.has_errors()),
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn repro_line_uses_cli_tokens() {
        let report = run_campaigns(&small(), Executor::new(1)).expect("campaigns run");
        let line = report.repro_line(&report.rows[1]);
        assert!(line.starts_with("qz fault --system qz --device apollo4 --env crowded"));
        assert!(line.contains("--start 1 --campaigns 1"));
        assert!(line.contains("--preset standard"));
    }

    #[test]
    fn json_is_stable_and_balanced() {
        let report = run_campaigns(&small(), Executor::new(1)).expect("campaigns run");
        let a = report.to_json();
        assert_eq!(a, report.to_json());
        assert!(a.contains("\"campaigns\": 3"));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn snapshot_and_replay_modes_report_identically() {
        let cfg = CampaignConfig {
            injection_at: SimDuration::from_secs(15),
            plan: FaultPlan::heavy(),
            ..small()
        };
        let replay = run_campaigns_with(&cfg, Executor::new(2), CampaignMode::Replay)
            .expect("replay mode runs");
        let snapshot = run_campaigns_with(&cfg, Executor::new(2), CampaignMode::Snapshot)
            .expect("snapshot mode runs");
        assert_eq!(replay, snapshot);
        assert_eq!(replay.to_json(), snapshot.to_json());
        assert!(replay.total_faults() > 0, "gated heavy plan still fires");
    }

    #[test]
    fn fork_equals_replay_for_every_campaign() {
        let cfg = CampaignConfig {
            injection_at: SimDuration::from_secs(15),
            plan: FaultPlan::heavy(),
            ..small()
        };
        let env = SensingEnvironment::generate(cfg.env, cfg.events, cfg.env_seed());
        let mut tweaks = cfg.tweaks.clone();
        tweaks.seed = cfg.sim_seed();
        let at = injection_time(&cfg);
        let (clean, snap, _) = run_clean_with_snapshot(&cfg, &env, &tweaks, at, false);
        let prefix: Vec<Event> = clean
            .events
            .iter()
            .filter(|e| e.t_ms < at.as_millis())
            .cloned()
            .collect();
        assert!(!prefix.is_empty(), "15 s of prefix produces events");
        for c in 0..cfg.campaigns {
            let seed = cfg.fault_seed(c);
            let (replayed, rs, _) = run_faulted_replay(&cfg, &env, &tweaks, seed, at, false);
            let (forked, fs, _) =
                run_faulted_fork(&cfg, &env, &tweaks, &snap, &prefix, seed, at, false);
            assert_eq!(replayed, forked, "campaign {c}: fork must be bit-exact");
            assert_eq!(rs, fs, "campaign {c}: injector stats must match");
        }
    }

    #[test]
    fn profiled_campaigns_report_identically_and_account_every_run() {
        let cfg = CampaignConfig {
            injection_at: SimDuration::from_secs(15),
            ..small()
        };
        let plain = run_campaigns(&cfg, Executor::new(2)).expect("plain run");
        let (profiled, profile) =
            run_campaigns_profiled(&cfg, Executor::new(2)).expect("profiled run");
        assert_eq!(plain.to_json(), profiled.to_json());
        // The merged horizon covers the clean and oracle runs whole and
        // every fork from the gate on.
        let clean_ms = {
            let env = SensingEnvironment::generate(cfg.env, cfg.events, cfg.env_seed());
            let mut tweaks = cfg.tweaks.clone();
            tweaks.seed = cfg.sim_seed();
            run_clean_with_snapshot(&cfg, &env, &tweaks, injection_time(&cfg), false)
                .0
                .metrics
                .sim_time
                .as_millis()
        };
        let h = &profile.horizon;
        assert!(h.total_ref_ticks() + h.total_skipped_ticks() >= clean_ms);
        assert!(
            h.cause(qz_prof::HorizonCause::FaultCollapse).ref_ticks > 0,
            "{}",
            h.render_ranking()
        );
        assert!(profile.profiler.is_enabled());
        let spans = profile
            .profiler
            .stat(qz_prof::Phase::SpanAdvance)
            .expect("enabled profiler");
        assert!(spans.count > 0);
    }

    #[test]
    fn inject_at_appears_in_the_repro_line() {
        let cfg = CampaignConfig {
            injection_at: SimDuration::from_secs(15),
            plan: FaultPlan::heavy(),
            ..small()
        };
        let report = run_campaigns(&cfg, Executor::new(1)).expect("campaigns run");
        let line = report.repro_line(&report.rows[0]);
        assert!(line.ends_with("--campaigns 1 --inject-at 15"), "{line}");
        assert_eq!(line, repro_line_for(&cfg, 0));
        // Ungated configs keep the historical repro line exactly.
        let plain = run_campaigns(&small(), Executor::new(1)).expect("campaigns run");
        let line = plain.repro_line(&plain.rows[0]);
        assert!(line.ends_with("--start 0 --campaigns 1"), "{line}");
    }

    #[test]
    fn default_config_passes_preflight() {
        for plan in [
            FaultPlan::smoke(),
            FaultPlan::standard(),
            FaultPlan::heavy(),
        ] {
            let cfg = CampaignConfig {
                plan,
                ..CampaignConfig::default()
            };
            let r = preflight(&cfg);
            assert!(!r.has_errors(), "{}", r.render_text());
        }
    }
}
