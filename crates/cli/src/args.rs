//! Hand-rolled argument parsing for the `qz` binary (keeping the
//! workspace dependency-free).

use core::fmt;
use qz_baselines::BaselineKind;
use qz_traces::EnvironmentKind;
use qz_types::Watts;

/// A parsed `qz` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `qz run …` — simulate one system in one environment.
    Run(RunArgs),
    /// `qz compare …` — run the standard system set side by side.
    Compare(RunArgs),
    /// `qz export-traces …` — write the environment's solar/event CSVs.
    ExportTraces(RunArgs),
    /// `qz trace …` — record and render the decision-event timeline.
    Trace(RunArgs),
    /// `qz check …` — static semantic analysis of an experiment config.
    Check(CheckArgs),
    /// `qz verify …` — sound abstract-interpretation verification of the
    /// no-stall / no-overflow properties under a harvest envelope.
    Verify(VerifyArgs),
    /// `qz lint-src …` — workspace determinism source lint.
    LintSrc(LintSrcArgs),
    /// `qz fleet …` — parallel multi-device fleet simulation over a
    /// shared uplink channel.
    Fleet(FleetArgs),
    /// `qz fault …` — seeded fault-injection campaigns judged by the
    /// differential oracle harness.
    Fault(FaultArgs),
    /// `qz branch …` — fork a run at a tick under modified tweaks and
    /// report where the decision streams first diverge.
    Branch(BranchArgs),
    /// `qz bisect …` — binary-search a faulted campaign against its
    /// fault-free twin for the exact first divergent tick.
    Bisect(BisectArgs),
    /// `qz profile …` — run one simulation with the phase profiler and
    /// horizon-cause accounting enabled and explain where time went.
    Profile(ProfileArgs),
    /// `qz bench …` — inspect the bench trajectory and gate against the
    /// committed baseline.
    Bench(BenchArgs),
    /// `qz help` / `--help`.
    Help,
}

/// Options for `qz profile`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileArgs {
    /// System under test.
    pub system: BaselineKind,
    /// Device profile (`apollo4` or `msp430`).
    pub device: String,
    /// Sensing environment.
    pub env: EnvironmentKind,
    /// Events in the environment trace.
    pub events: usize,
    /// Environment/simulation seed.
    pub seed: u64,
    /// Profile report JSON output path (`-` for stdout).
    pub json: Option<String>,
    /// Collapsed-stack flamegraph output path.
    pub flame: Option<String>,
    /// Flight-recorder dump output path (installs a flight observer).
    pub flight: Option<String>,
}

impl Default for ProfileArgs {
    fn default() -> ProfileArgs {
        ProfileArgs {
            system: BaselineKind::Quetzal,
            device: "apollo4".into(),
            env: EnvironmentKind::Crowded,
            events: 200,
            seed: 20_250_330,
            json: None,
            flame: None,
            flight: None,
        }
    }
}

/// Options for `qz bench`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Compare the newest trajectory records against the committed
    /// baseline and exit nonzero on regression.
    pub check: bool,
    /// Directory holding `BENCH_*.json` trajectories.
    pub results_dir: String,
    /// Baseline file path (defaults to `<results-dir>/BENCH_baseline.json`).
    pub baseline: Option<String>,
}

impl Default for BenchArgs {
    fn default() -> BenchArgs {
        BenchArgs {
            check: false,
            results_dir: "results".into(),
            baseline: None,
        }
    }
}

/// Options for `qz branch`.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchArgs {
    /// System under test.
    pub system: BaselineKind,
    /// Device profile (`apollo4` or `msp430`).
    pub device: String,
    /// Sensing environment.
    pub env: EnvironmentKind,
    /// Events in the environment trace.
    pub events: usize,
    /// Environment/simulation seed.
    pub seed: u64,
    /// Fork instant, seconds of simulated time.
    pub at: u64,
    /// Fork with the PID error-mitigation loop disabled.
    pub fork_no_pid: bool,
    /// Fork with sticky current-option scheduling disabled.
    pub fork_no_sticky: bool,
    /// Fork under a different checkpoint policy.
    pub fork_checkpoint: Option<qz_sim::CheckpointPolicy>,
    /// Fork under a different capture period, seconds.
    pub fork_capture_period: Option<f64>,
}

impl Default for BranchArgs {
    fn default() -> BranchArgs {
        BranchArgs {
            system: BaselineKind::Quetzal,
            device: "apollo4".into(),
            env: EnvironmentKind::Crowded,
            events: 40,
            seed: 20_250_330,
            at: 60,
            fork_no_pid: false,
            fork_no_sticky: false,
            fork_checkpoint: None,
            fork_capture_period: None,
        }
    }
}

/// Options for `qz bisect`.
#[derive(Debug, Clone, PartialEq)]
pub struct BisectArgs {
    /// Fault plan preset (`smoke`, `standard`, `heavy`).
    pub preset: String,
    /// System under test.
    pub system: BaselineKind,
    /// Device profile (`apollo4` or `msp430`).
    pub device: String,
    /// Sensing environment.
    pub env: EnvironmentKind,
    /// Events in the shared environment trace.
    pub events: usize,
    /// Global index of the campaign to bisect.
    pub start: usize,
    /// Master campaign seed (decimal or `0x`-prefixed hex).
    pub seed: u64,
    /// Gate every fault class until this many seconds in.
    pub inject_at: u64,
    /// Coarse-pass snapshot stride, seconds.
    pub stride: u64,
    /// Snapshot ring capacity per twin.
    pub ring: usize,
}

impl Default for BisectArgs {
    fn default() -> BisectArgs {
        BisectArgs {
            preset: "standard".into(),
            system: BaselineKind::Quetzal,
            device: "apollo4".into(),
            env: EnvironmentKind::Crowded,
            events: 12,
            start: 0,
            seed: 0xFA017,
            inject_at: 0,
            stride: 10,
            ring: 64,
        }
    }
}

/// Options for `qz fault`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultArgs {
    /// Fault plan preset (`none`, `smoke`, `standard`, `heavy`).
    pub preset: String,
    /// System under test.
    pub system: BaselineKind,
    /// Device profile (`apollo4` or `msp430`).
    pub device: String,
    /// Sensing environment.
    pub env: EnvironmentKind,
    /// Events in the shared environment trace.
    pub events: usize,
    /// Number of seeded campaigns to run.
    pub campaigns: usize,
    /// First campaign index (repro lines use `--start N --campaigns 1`).
    pub start: usize,
    /// Master campaign seed (decimal or `0x`-prefixed hex).
    pub seed: u64,
    /// Worker threads; 0 = all available cores (`QZ_THREADS` also
    /// applies when the flag is absent).
    pub threads: Option<usize>,
    /// JSON report output path (`-` for stdout).
    pub json: Option<String>,
    /// Directory for `qz-flight/v1` postmortem dumps of violated
    /// campaigns (one JSON file per violation).
    pub postmortem: Option<String>,
    /// Gate every fault class until this many seconds in (the faulted
    /// prefix forks from a shared snapshot at this instant).
    pub inject_at: u64,
    /// Snapshot ring capacity declared for the QZ073 memory-budget
    /// preflight (`None` skips the estimate).
    pub snapshot_ring: Option<usize>,
    /// Snapshot stride, seconds, for the QZ073 preflight context.
    pub snapshot_stride: Option<u64>,
}

impl Default for FaultArgs {
    fn default() -> FaultArgs {
        FaultArgs {
            preset: "standard".into(),
            system: BaselineKind::Quetzal,
            device: "apollo4".into(),
            env: EnvironmentKind::Crowded,
            events: 12,
            campaigns: 8,
            start: 0,
            seed: 0xFA017,
            threads: None,
            json: None,
            postmortem: None,
            inject_at: 0,
            snapshot_ring: None,
            snapshot_stride: None,
        }
    }
}

/// Options for `qz fleet`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetArgs {
    /// Number of devices in the fleet.
    pub devices: usize,
    /// Events per device environment.
    pub events: usize,
    /// Master fleet seed (per-device streams derive from it).
    pub seed: u64,
    /// System every device runs.
    pub system: BaselineKind,
    /// Device profile (`apollo4` or `msp430`).
    pub device: String,
    /// Environment mix, assigned round-robin by device index.
    pub envs: Vec<EnvironmentKind>,
    /// Worker threads; 0 = all available cores (`QZ_THREADS` also
    /// applies when the flag is absent).
    pub threads: Option<usize>,
    /// Shared-channel duty-cycle override (fraction of the window).
    pub duty_cycle: Option<f64>,
    /// Channel slot length override, milliseconds.
    pub slot_ms: Option<u64>,
    /// JSON report output path (`-` for stdout).
    pub json: Option<String>,
    /// Per-device CSV output path (`-` for stdout).
    pub csv: Option<String>,
    /// Also print the qz-obs metrics registry.
    pub metrics: bool,
    /// Gateways the fleet is sharded across.
    pub gateways: usize,
    /// Per-device capture period override, seconds.
    pub capture_period: Option<f64>,
}

impl Default for FleetArgs {
    fn default() -> FleetArgs {
        FleetArgs {
            devices: 16,
            events: 40,
            seed: 0xF1EE7,
            system: BaselineKind::Quetzal,
            device: "apollo4".into(),
            envs: Vec::new(),
            threads: None,
            duty_cycle: None,
            slot_ms: None,
            json: None,
            csv: None,
            metrics: false,
            gateways: 1,
            capture_period: None,
        }
    }
}

/// Options for `qz check`.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckArgs {
    /// System preset to check; `None` sweeps every shipped preset.
    pub system: Option<BaselineKind>,
    /// Device profile (`apollo4`, `msp430`, or `all`).
    pub device: String,
    /// Emit the report as JSON instead of rendered text.
    pub json: bool,
    /// Exit nonzero on warnings as well as errors (CI mode).
    pub deny_warnings: bool,
    /// Diagnostic codes downgraded to notes (repeatable `--allow`).
    pub allow: Vec<qz_check::Code>,
    /// Override the supercapacitor capacitance, in millifarads.
    pub cap_mf: Option<f64>,
    /// Override the checkpoint policy.
    pub checkpoint: Option<qz_sim::CheckpointPolicy>,
    /// Override the harvester cell count.
    pub cells: Option<u32>,
    /// Override the input-buffer capacity.
    pub buffer: Option<usize>,
    /// Override the capture period, in seconds.
    pub capture_period: Option<f64>,
    /// Declare a telemetry-recorder sample period, in seconds (QZ071).
    pub telemetry_period: Option<f64>,
    /// Declare an observer snapshot period, in seconds (QZ071).
    pub snapshot_period: Option<f64>,
    /// Print the diagnostic-catalog entry for one code and exit.
    pub explain: Option<qz_check::Code>,
}

impl Default for CheckArgs {
    fn default() -> CheckArgs {
        CheckArgs {
            system: None,
            device: "all".into(),
            json: false,
            deny_warnings: false,
            allow: Vec::new(),
            cap_mf: None,
            checkpoint: None,
            cells: None,
            buffer: None,
            capture_period: None,
            telemetry_period: None,
            snapshot_period: None,
            explain: None,
        }
    }
}

/// Options for `qz verify`.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyArgs {
    /// System preset to verify; `None` sweeps every shipped preset.
    pub system: Option<BaselineKind>,
    /// Device profile (`apollo4`, `msp430`, or `all`).
    pub device: String,
    /// Sensing environment whose traces define the harvest envelope and
    /// event schedule.
    pub env: EnvironmentKind,
    /// Events in the environment trace.
    pub events: usize,
    /// Environment seed (decimal or `0x`-prefixed hex).
    pub seed: u64,
    /// Envelope segment length, seconds (the band granularity).
    pub segment: u64,
    /// Emit the verdicts as JSON instead of rendered text.
    pub json: bool,
    /// Exit nonzero on UNKNOWN verdicts as well as refutations (CI
    /// mode: every property must be PROVEN).
    pub deny_unproven: bool,
}

impl Default for VerifyArgs {
    fn default() -> VerifyArgs {
        VerifyArgs {
            system: None,
            device: "all".into(),
            env: EnvironmentKind::Crowded,
            events: 40,
            seed: 20_250_330,
            segment: 60,
            json: false,
            deny_unproven: false,
        }
    }
}

/// Options for `qz lint-src`.
#[derive(Debug, Clone, PartialEq)]
pub struct LintSrcArgs {
    /// Workspace root holding the `crates/` tree.
    pub root: String,
    /// Allowlist file path, relative to the root.
    pub allow_file: String,
    /// Emit findings as JSON instead of rendered text.
    pub json: bool,
}

impl Default for LintSrcArgs {
    fn default() -> LintSrcArgs {
        LintSrcArgs {
            root: ".".into(),
            allow_file: "lint-allow.txt".into(),
            json: false,
        }
    }
}

/// Parses a `--checkpoint` value: `jit`, `task-boundary`, or
/// `periodic:SECS`.
pub fn parse_checkpoint(value: &str) -> Result<qz_sim::CheckpointPolicy, ParseError> {
    let v = value.to_ascii_lowercase();
    match v.as_str() {
        "jit" | "just-in-time" => Ok(qz_sim::CheckpointPolicy::JustInTime),
        "task-boundary" | "task" => Ok(qz_sim::CheckpointPolicy::TaskBoundary),
        _ => {
            if let Some(secs) = v.strip_prefix("periodic:") {
                let secs: f64 = secs
                    .parse()
                    .map_err(|_| err("`--checkpoint periodic:SECS` needs a number of seconds"))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(err("`--checkpoint periodic:SECS` must be positive"));
                }
                Ok(qz_sim::CheckpointPolicy::Periodic {
                    interval: qz_types::SimDuration::from_seconds_ceil(qz_types::Seconds(secs)),
                })
            } else {
                Err(err(format!(
                    "unknown checkpoint policy `{value}` (try jit, task-boundary, periodic:SECS)"
                )))
            }
        }
    }
}

/// Options shared by the subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// System to run (`Run` only).
    pub system: BaselineKind,
    /// Sensing environment.
    pub env: EnvironmentKind,
    /// Number of events to generate.
    pub events: usize,
    /// Environment seed.
    pub seed: u64,
    /// Device profile name (`apollo4` or `msp430`).
    pub device: String,
    /// Telemetry CSV output path (`Run` only).
    pub telemetry: Option<String>,
    /// Render the telemetry as terminal sparklines (`Run` only).
    pub plot: bool,
    /// Output directory (`ExportTraces` only).
    pub out_dir: String,
    /// Event-log JSONL output path (`Trace` only).
    pub jsonl: Option<String>,
    /// Event-log CSV output path (`Trace` only).
    pub csv: Option<String>,
    /// Maximum timeline lines to render, 0 = unlimited (`Trace` only).
    pub limit: usize,
    /// Include periodic state snapshots in the timeline (`Trace` only).
    pub snapshots: bool,
    /// Which solar realization to run: the seeded trace itself, or an
    /// envelope corner (`qz verify` counterexample repro lines use
    /// `--solar floor`).
    pub solar: qz_absint::SolarMode,
    /// Envelope segment length for `--solar floor|ceil`, seconds.
    pub solar_seg: u64,
    /// Keep a rolling snapshot ring of this capacity while running
    /// (`Run` only; enables rollback studies and the QZ073 preflight).
    pub snapshot_ring: Option<usize>,
    /// Snapshot ring capture stride, seconds (`Run` only).
    pub snapshot_stride: Option<u64>,
}

impl Default for RunArgs {
    fn default() -> RunArgs {
        RunArgs {
            system: BaselineKind::Quetzal,
            env: EnvironmentKind::Crowded,
            events: 200,
            seed: 20_250_330,
            device: "apollo4".into(),
            telemetry: None,
            plot: false,
            out_dir: ".".into(),
            jsonl: None,
            csv: None,
            limit: 200,
            snapshots: false,
            solar: qz_absint::SolarMode::Trace,
            solar_seg: 60,
            snapshot_ring: None,
            snapshot_stride: None,
        }
    }
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

/// Parses a seed value, decimal or `0x`-prefixed hex (the form fault
/// repro lines print).
pub fn parse_seed(value: &str) -> Result<u64, ParseError> {
    let v = value.to_ascii_lowercase();
    let parsed = if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        v.parse()
    };
    parsed.map_err(|_| err("`--seed` must be an integer (decimal or 0x-prefixed hex)"))
}

/// Parses a system name (paper abbreviation, case-insensitive).
pub fn parse_system(name: &str) -> Result<BaselineKind, ParseError> {
    match name.to_ascii_lowercase().as_str() {
        "qz" | "quetzal" => Ok(BaselineKind::Quetzal),
        "qz-hw" => Ok(BaselineKind::QuetzalHw),
        "na" | "noadapt" => Ok(BaselineKind::NoAdapt),
        "ad" | "alwaysdegrade" => Ok(BaselineKind::AlwaysDegrade),
        "cn" | "catnap" => Ok(BaselineKind::CatNap),
        "th25" => Ok(BaselineKind::FixedThreshold(0.25)),
        "th50" => Ok(BaselineKind::FixedThreshold(0.50)),
        "th75" => Ok(BaselineKind::FixedThreshold(0.75)),
        "pzo" => Ok(BaselineKind::PowerThreshold(Watts(0.030))),
        "fcfs" => Ok(BaselineKind::FcfsIbo),
        "lcfs" => Ok(BaselineKind::LcfsIbo),
        "avgse2e" | "avg" => Ok(BaselineKind::AvgSe2e),
        other => Err(err(format!(
            "unknown system `{other}` (try QZ, NA, AD, CN, TH25/50/75, PZO, FCFS, LCFS, AvgSe2e)"
        ))),
    }
}

/// Parses an environment name.
pub fn parse_env(name: &str) -> Result<EnvironmentKind, ParseError> {
    match name.to_ascii_lowercase().as_str() {
        "more" | "morecrowded" | "more-crowded" => Ok(EnvironmentKind::MoreCrowded),
        "crowded" => Ok(EnvironmentKind::Crowded),
        "less" | "lesscrowded" | "less-crowded" => Ok(EnvironmentKind::LessCrowded),
        "short" => Ok(EnvironmentKind::Short),
        "quiet" => Ok(EnvironmentKind::Quiet),
        "burst" => Ok(EnvironmentKind::Burst),
        other => Err(err(format!(
            "unknown environment `{other}` (try more-crowded, crowded, less-crowded, short, \
             quiet, burst)"
        ))),
    }
}

/// Parses the full argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    if sub == "help" || sub == "--help" || sub == "-h" {
        return Ok(Command::Help);
    }
    if sub == "check" {
        return parse_check(&args[1..]).map(Command::Check);
    }
    if sub == "verify" {
        return parse_verify(&args[1..]).map(Command::Verify);
    }
    if sub == "lint-src" {
        return parse_lint_src(&args[1..]).map(Command::LintSrc);
    }
    if sub == "fleet" {
        return parse_fleet(&args[1..]).map(Command::Fleet);
    }
    if sub == "fault" {
        return parse_fault(&args[1..]).map(Command::Fault);
    }
    if sub == "branch" {
        return parse_branch(&args[1..]).map(Command::Branch);
    }
    if sub == "bisect" {
        return parse_bisect(&args[1..]).map(Command::Bisect);
    }
    if sub == "profile" {
        return parse_profile(&args[1..]).map(Command::Profile);
    }
    if sub == "bench" {
        return parse_bench(&args[1..]).map(Command::Bench);
    }
    let mut run = RunArgs::default();
    let mut i = 1;
    let take_value = |i: &mut usize, flag: &str| -> Result<String, ParseError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| err(format!("flag `{flag}` needs a value")))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--system" => run.system = parse_system(&take_value(&mut i, flag)?)?,
            "--env" => run.env = parse_env(&take_value(&mut i, flag)?)?,
            "--events" => {
                run.events = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--events` must be a positive integer"))?;
            }
            "--seed" => run.seed = parse_seed(&take_value(&mut i, flag)?)?,
            "--device" => {
                let d = take_value(&mut i, flag)?.to_ascii_lowercase();
                if d != "apollo4" && d != "msp430" {
                    return Err(err("`--device` must be `apollo4` or `msp430`"));
                }
                run.device = d;
            }
            "--telemetry" => run.telemetry = Some(take_value(&mut i, flag)?),
            "--plot" => run.plot = true,
            "--out-dir" => run.out_dir = take_value(&mut i, flag)?,
            "--jsonl" => run.jsonl = Some(take_value(&mut i, flag)?),
            "--csv" => run.csv = Some(take_value(&mut i, flag)?),
            "--limit" => {
                run.limit = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--limit` must be a non-negative integer"))?;
            }
            "--snapshots" => run.snapshots = true,
            "--solar" => {
                let v = take_value(&mut i, flag)?.to_ascii_lowercase();
                run.solar = qz_absint::SolarMode::parse(&v).ok_or_else(|| {
                    err(format!("unknown solar mode `{v}` (try trace, floor, ceil)"))
                })?;
            }
            "--solar-seg" => {
                run.solar_seg = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--solar-seg` must be a number of seconds"))?;
                if run.solar_seg == 0 {
                    return Err(err("`--solar-seg` must be at least 1 second"));
                }
            }
            "--snapshot-ring" => {
                let n: usize = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--snapshot-ring` must be a positive integer"))?;
                if n == 0 {
                    return Err(err("`--snapshot-ring` must be at least 1"));
                }
                run.snapshot_ring = Some(n);
            }
            "--snapshot-stride" => {
                let s: u64 = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--snapshot-stride` must be a number of seconds"))?;
                if s == 0 {
                    return Err(err("`--snapshot-stride` must be at least 1 second"));
                }
                run.snapshot_stride = Some(s);
            }
            other => return Err(err(format!("unknown flag `{other}`"))),
        }
        i += 1;
    }
    match sub.as_str() {
        "run" => Ok(Command::Run(run)),
        "compare" => Ok(Command::Compare(run)),
        "export-traces" => Ok(Command::ExportTraces(run)),
        "trace" => Ok(Command::Trace(run)),
        other => Err(err(format!(
            "unknown command `{other}` (try run, compare, export-traces, trace, check, fleet, \
             fault, branch, bisect, profile, bench)"
        ))),
    }
}

/// Parses the flags of `qz check`.
fn parse_check(args: &[String]) -> Result<CheckArgs, ParseError> {
    let mut check = CheckArgs::default();
    let mut i = 0;
    let take_value = |i: &mut usize, flag: &str| -> Result<String, ParseError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| err(format!("flag `{flag}` needs a value")))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--system" => check.system = Some(parse_system(&take_value(&mut i, flag)?)?),
            "--device" => {
                let d = take_value(&mut i, flag)?.to_ascii_lowercase();
                if d != "apollo4" && d != "msp430" && d != "all" {
                    return Err(err("`--device` must be `apollo4`, `msp430`, or `all`"));
                }
                check.device = d;
            }
            "--json" => check.json = true,
            "--deny-warnings" => check.deny_warnings = true,
            "--allow" => {
                let code = take_value(&mut i, flag)?;
                check.allow.push(
                    qz_check::Code::parse(&code)
                        .ok_or_else(|| err(format!("unknown diagnostic code `{code}`")))?,
                );
            }
            "--cap-mf" => {
                let mf: f64 = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--cap-mf` must be a capacitance in millifarads"))?;
                check.cap_mf = Some(mf);
            }
            "--checkpoint" => {
                check.checkpoint = Some(parse_checkpoint(&take_value(&mut i, flag)?)?)
            }
            "--cells" => {
                check.cells = Some(
                    take_value(&mut i, flag)?
                        .parse()
                        .map_err(|_| err("`--cells` must be a positive integer"))?,
                );
            }
            "--buffer" => {
                check.buffer = Some(
                    take_value(&mut i, flag)?
                        .parse()
                        .map_err(|_| err("`--buffer` must be a non-negative integer"))?,
                );
            }
            "--capture-period" => {
                let secs: f64 = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--capture-period` must be a number of seconds"))?;
                check.capture_period = Some(secs);
            }
            "--telemetry-period" => {
                let secs: f64 = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--telemetry-period` must be a number of seconds"))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(err("`--telemetry-period` must be positive"));
                }
                check.telemetry_period = Some(secs);
            }
            "--snapshot-period" => {
                let secs: f64 = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--snapshot-period` must be a number of seconds"))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(err("`--snapshot-period` must be positive"));
                }
                check.snapshot_period = Some(secs);
            }
            "--explain" => {
                let code = take_value(&mut i, flag)?;
                check.explain = Some(
                    qz_check::Code::parse(&code)
                        .ok_or_else(|| err(format!("unknown diagnostic code `{code}`")))?,
                );
            }
            other => return Err(err(format!("unknown flag `{other}` for `qz check`"))),
        }
        i += 1;
    }
    Ok(check)
}

/// Parses the flags of `qz verify`.
fn parse_verify(args: &[String]) -> Result<VerifyArgs, ParseError> {
    let mut verify = VerifyArgs::default();
    let mut i = 0;
    let take_value = |i: &mut usize, flag: &str| -> Result<String, ParseError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| err(format!("flag `{flag}` needs a value")))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--system" => verify.system = Some(parse_system(&take_value(&mut i, flag)?)?),
            "--device" => {
                let d = take_value(&mut i, flag)?.to_ascii_lowercase();
                if d != "apollo4" && d != "msp430" && d != "all" {
                    return Err(err("`--device` must be `apollo4`, `msp430`, or `all`"));
                }
                verify.device = d;
            }
            "--env" => verify.env = parse_env(&take_value(&mut i, flag)?)?,
            "--events" => {
                verify.events = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--events` must be a positive integer"))?;
                if verify.events == 0 {
                    return Err(err("`--events` must be at least 1"));
                }
            }
            "--seed" => verify.seed = parse_seed(&take_value(&mut i, flag)?)?,
            "--segment" => {
                verify.segment = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--segment` must be a number of seconds"))?;
                if verify.segment == 0 {
                    return Err(err("`--segment` must be at least 1 second"));
                }
            }
            "--json" => verify.json = true,
            "--deny-unproven" => verify.deny_unproven = true,
            other => return Err(err(format!("unknown flag `{other}` for `qz verify`"))),
        }
        i += 1;
    }
    Ok(verify)
}

/// Parses the flags of `qz lint-src`.
fn parse_lint_src(args: &[String]) -> Result<LintSrcArgs, ParseError> {
    let mut lint = LintSrcArgs::default();
    let mut i = 0;
    let take_value = |i: &mut usize, flag: &str| -> Result<String, ParseError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| err(format!("flag `{flag}` needs a value")))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--root" => lint.root = take_value(&mut i, flag)?,
            "--allow-file" => lint.allow_file = take_value(&mut i, flag)?,
            "--json" => lint.json = true,
            other => return Err(err(format!("unknown flag `{other}` for `qz lint-src`"))),
        }
        i += 1;
    }
    Ok(lint)
}

/// Parses the flags of `qz fleet`.
fn parse_fleet(args: &[String]) -> Result<FleetArgs, ParseError> {
    let mut fleet = FleetArgs::default();
    let mut i = 0;
    let take_value = |i: &mut usize, flag: &str| -> Result<String, ParseError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| err(format!("flag `{flag}` needs a value")))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--devices" => {
                fleet.devices = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--devices` must be a positive integer"))?;
                if fleet.devices == 0 {
                    return Err(err("`--devices` must be at least 1"));
                }
            }
            "--events" => {
                fleet.events = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--events` must be a positive integer"))?;
            }
            "--seed" => {
                fleet.seed = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--seed` must be an integer"))?;
            }
            "--system" => fleet.system = parse_system(&take_value(&mut i, flag)?)?,
            "--device" => {
                let d = take_value(&mut i, flag)?.to_ascii_lowercase();
                if d != "apollo4" && d != "msp430" {
                    return Err(err("`--device` must be `apollo4` or `msp430`"));
                }
                fleet.device = d;
            }
            "--envs" => {
                let list = take_value(&mut i, flag)?;
                fleet.envs = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(parse_env)
                    .collect::<Result<_, _>>()?;
                if fleet.envs.is_empty() {
                    return Err(err("`--envs` needs at least one environment"));
                }
            }
            "--threads" => {
                fleet.threads = Some(
                    take_value(&mut i, flag)?
                        .parse()
                        .map_err(|_| err("`--threads` must be a non-negative integer"))?,
                );
            }
            "--duty-cycle" => {
                let d: f64 = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--duty-cycle` must be a fraction"))?;
                if !(d.is_finite() && d > 0.0) {
                    return Err(err(
                        "`--duty-cycle` must be positive (>= 1 disables the cap)",
                    ));
                }
                fleet.duty_cycle = Some(d);
            }
            "--slot-ms" => {
                let ms: u64 = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--slot-ms` must be a positive integer"))?;
                if ms == 0 {
                    return Err(err("`--slot-ms` must be at least 1"));
                }
                fleet.slot_ms = Some(ms);
            }
            "--json" => fleet.json = Some(take_value(&mut i, flag)?),
            "--csv" => fleet.csv = Some(take_value(&mut i, flag)?),
            "--metrics" => fleet.metrics = true,
            "--gateways" => {
                fleet.gateways = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--gateways` must be a positive integer"))?;
                if fleet.gateways == 0 {
                    return Err(err("`--gateways` must be at least 1"));
                }
            }
            "--capture-period" => {
                let p: f64 = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--capture-period` must be seconds"))?;
                if !(p.is_finite() && p > 0.0) {
                    return Err(err("`--capture-period` must be positive seconds"));
                }
                fleet.capture_period = Some(p);
            }
            other => return Err(err(format!("unknown flag `{other}` for `qz fleet`"))),
        }
        i += 1;
    }
    if fleet.json.as_deref() == Some("-") && fleet.csv.as_deref() == Some("-") {
        return Err(err(
            "`--json -` and `--csv -` cannot both stream to stdout (pick one, or write files)",
        ));
    }
    Ok(fleet)
}

/// Parses the flags of `qz fault`.
fn parse_fault(args: &[String]) -> Result<FaultArgs, ParseError> {
    let mut fault = FaultArgs::default();
    let mut i = 0;
    let take_value = |i: &mut usize, flag: &str| -> Result<String, ParseError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| err(format!("flag `{flag}` needs a value")))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--preset" => {
                let p = take_value(&mut i, flag)?.to_ascii_lowercase();
                if qz_fault::FaultPlan::preset(&p).is_none() {
                    return Err(err(format!(
                        "unknown fault preset `{p}` (try none, smoke, standard, heavy)"
                    )));
                }
                fault.preset = p;
            }
            "--system" => fault.system = parse_system(&take_value(&mut i, flag)?)?,
            "--device" => {
                let d = take_value(&mut i, flag)?.to_ascii_lowercase();
                if d != "apollo4" && d != "msp430" {
                    return Err(err("`--device` must be `apollo4` or `msp430`"));
                }
                fault.device = d;
            }
            "--env" => fault.env = parse_env(&take_value(&mut i, flag)?)?,
            "--events" => {
                fault.events = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--events` must be a positive integer"))?;
                if fault.events == 0 {
                    return Err(err("`--events` must be at least 1"));
                }
            }
            "--campaigns" => {
                fault.campaigns = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--campaigns` must be a positive integer"))?;
                if fault.campaigns == 0 {
                    return Err(err("`--campaigns` must be at least 1"));
                }
            }
            "--start" => {
                fault.start = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--start` must be a non-negative integer"))?;
            }
            "--seed" => fault.seed = parse_seed(&take_value(&mut i, flag)?)?,
            "--threads" => {
                fault.threads = Some(
                    take_value(&mut i, flag)?
                        .parse()
                        .map_err(|_| err("`--threads` must be a non-negative integer"))?,
                );
            }
            "--json" => fault.json = Some(take_value(&mut i, flag)?),
            "--postmortem" => fault.postmortem = Some(take_value(&mut i, flag)?),
            "--inject-at" => {
                fault.inject_at = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--inject-at` must be a number of seconds"))?;
            }
            "--snapshot-ring" => {
                let n: usize = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--snapshot-ring` must be a positive integer"))?;
                if n == 0 {
                    return Err(err("`--snapshot-ring` must be at least 1"));
                }
                fault.snapshot_ring = Some(n);
            }
            "--snapshot-stride" => {
                let s: u64 = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--snapshot-stride` must be a number of seconds"))?;
                if s == 0 {
                    return Err(err("`--snapshot-stride` must be at least 1 second"));
                }
                fault.snapshot_stride = Some(s);
            }
            other => return Err(err(format!("unknown flag `{other}` for `qz fault`"))),
        }
        i += 1;
    }
    Ok(fault)
}

/// Parses the flags of `qz branch`.
fn parse_branch(args: &[String]) -> Result<BranchArgs, ParseError> {
    let mut branch = BranchArgs::default();
    let mut i = 0;
    let take_value = |i: &mut usize, flag: &str| -> Result<String, ParseError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| err(format!("flag `{flag}` needs a value")))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--system" => branch.system = parse_system(&take_value(&mut i, flag)?)?,
            "--device" => {
                let d = take_value(&mut i, flag)?.to_ascii_lowercase();
                if d != "apollo4" && d != "msp430" {
                    return Err(err("`--device` must be `apollo4` or `msp430`"));
                }
                branch.device = d;
            }
            "--env" => branch.env = parse_env(&take_value(&mut i, flag)?)?,
            "--events" => {
                branch.events = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--events` must be a positive integer"))?;
                if branch.events == 0 {
                    return Err(err("`--events` must be at least 1"));
                }
            }
            "--seed" => branch.seed = parse_seed(&take_value(&mut i, flag)?)?,
            "--at" => {
                branch.at = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--at` must be a number of seconds"))?;
            }
            "--fork-no-pid" => branch.fork_no_pid = true,
            "--fork-no-sticky" => branch.fork_no_sticky = true,
            "--fork-checkpoint" => {
                branch.fork_checkpoint = Some(parse_checkpoint(&take_value(&mut i, flag)?)?)
            }
            "--fork-capture-period" => {
                let secs: f64 = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--fork-capture-period` must be a number of seconds"))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(err("`--fork-capture-period` must be positive"));
                }
                branch.fork_capture_period = Some(secs);
            }
            other => return Err(err(format!("unknown flag `{other}` for `qz branch`"))),
        }
        i += 1;
    }
    Ok(branch)
}

/// Parses the flags of `qz bisect`.
fn parse_bisect(args: &[String]) -> Result<BisectArgs, ParseError> {
    let mut bisect = BisectArgs::default();
    let mut i = 0;
    let take_value = |i: &mut usize, flag: &str| -> Result<String, ParseError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| err(format!("flag `{flag}` needs a value")))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--preset" => {
                let p = take_value(&mut i, flag)?.to_ascii_lowercase();
                if qz_fault::FaultPlan::preset(&p).is_none() {
                    return Err(err(format!(
                        "unknown fault preset `{p}` (try none, smoke, standard, heavy)"
                    )));
                }
                bisect.preset = p;
            }
            "--system" => bisect.system = parse_system(&take_value(&mut i, flag)?)?,
            "--device" => {
                let d = take_value(&mut i, flag)?.to_ascii_lowercase();
                if d != "apollo4" && d != "msp430" {
                    return Err(err("`--device` must be `apollo4` or `msp430`"));
                }
                bisect.device = d;
            }
            "--env" => bisect.env = parse_env(&take_value(&mut i, flag)?)?,
            "--events" => {
                bisect.events = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--events` must be a positive integer"))?;
                if bisect.events == 0 {
                    return Err(err("`--events` must be at least 1"));
                }
            }
            "--start" => {
                bisect.start = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--start` must be a non-negative integer"))?;
            }
            "--seed" => bisect.seed = parse_seed(&take_value(&mut i, flag)?)?,
            "--inject-at" => {
                bisect.inject_at = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--inject-at` must be a number of seconds"))?;
            }
            "--stride" => {
                bisect.stride = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--stride` must be a number of seconds"))?;
                if bisect.stride == 0 {
                    return Err(err("`--stride` must be at least 1 second"));
                }
            }
            "--ring" => {
                bisect.ring = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--ring` must be a positive integer"))?;
                if bisect.ring == 0 {
                    return Err(err("`--ring` must be at least 1"));
                }
            }
            other => return Err(err(format!("unknown flag `{other}` for `qz bisect`"))),
        }
        i += 1;
    }
    Ok(bisect)
}

/// Parses the flags of `qz profile`.
fn parse_profile(args: &[String]) -> Result<ProfileArgs, ParseError> {
    let mut prof = ProfileArgs::default();
    let mut i = 0;
    let take_value = |i: &mut usize, flag: &str| -> Result<String, ParseError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| err(format!("flag `{flag}` needs a value")))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--system" => prof.system = parse_system(&take_value(&mut i, flag)?)?,
            "--device" => {
                let d = take_value(&mut i, flag)?.to_ascii_lowercase();
                if d != "apollo4" && d != "msp430" {
                    return Err(err("`--device` must be `apollo4` or `msp430`"));
                }
                prof.device = d;
            }
            "--env" => prof.env = parse_env(&take_value(&mut i, flag)?)?,
            "--events" => {
                prof.events = take_value(&mut i, flag)?
                    .parse()
                    .map_err(|_| err("`--events` must be a positive integer"))?;
                if prof.events == 0 {
                    return Err(err("`--events` must be at least 1"));
                }
            }
            "--seed" => prof.seed = parse_seed(&take_value(&mut i, flag)?)?,
            "--json" => prof.json = Some(take_value(&mut i, flag)?),
            "--flame" => prof.flame = Some(take_value(&mut i, flag)?),
            "--flight" => prof.flight = Some(take_value(&mut i, flag)?),
            other => return Err(err(format!("unknown flag `{other}` for `qz profile`"))),
        }
        i += 1;
    }
    Ok(prof)
}

/// Parses the flags of `qz bench`.
fn parse_bench(args: &[String]) -> Result<BenchArgs, ParseError> {
    let mut bench = BenchArgs::default();
    let mut i = 0;
    let take_value = |i: &mut usize, flag: &str| -> Result<String, ParseError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| err(format!("flag `{flag}` needs a value")))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--check" => bench.check = true,
            "--results-dir" => bench.results_dir = take_value(&mut i, flag)?,
            "--baseline" => bench.baseline = Some(take_value(&mut i, flag)?),
            other => return Err(err(format!("unknown flag `{other}` for `qz bench`"))),
        }
        i += 1;
    }
    Ok(bench)
}

/// The help text.
pub const HELP: &str = "\
qz — Quetzal experiment runner

USAGE:
  qz run            [--system QZ] [--env crowded] [--events 200] [--seed N|0xN]
                    [--device apollo4|msp430] [--telemetry out.csv] [--plot]
                    [--solar trace|floor|ceil] [--solar-seg 60]
                    [--snapshot-ring 64] [--snapshot-stride 10]
  qz compare        [--env crowded] [--events 200] [--seed N] [--device …]
  qz export-traces  [--env crowded] [--events 200] [--seed N] [--out-dir DIR]
  qz trace          [--system QZ] [--env crowded] [--events 200] [--seed N]
                    [--device …] [--jsonl out.jsonl] [--csv out.csv]
                    [--limit 200] [--snapshots]
  qz check          [--system QZ] [--device apollo4|msp430|all] [--json]
                    [--deny-warnings] [--allow QZ011]…
                    [--cap-mf 33] [--checkpoint jit|task-boundary|periodic:SECS]
                    [--cells 6] [--buffer 10] [--capture-period 1]
                    [--telemetry-period 1] [--snapshot-period 1]
                    [--explain QZ010]
  qz verify         [--system QZ] [--device apollo4|msp430|all] [--env crowded]
                    [--events 40] [--seed N|0xN] [--segment 60] [--json]
                    [--deny-unproven]
  qz lint-src       [--root .] [--allow-file lint-allow.txt] [--json]
  qz fleet          [--devices 16] [--events 40] [--seed N] [--system QZ]
                    [--device apollo4|msp430] [--envs more,crowded,less]
                    [--threads N] [--duty-cycle 0.1] [--slot-ms 50]
                    [--json out.json|-] [--csv out.csv|-] [--metrics]
                    [--gateways 1] [--capture-period 1]
  qz fault          [--preset none|smoke|standard|heavy] [--system QZ]
                    [--device apollo4|msp430] [--env crowded] [--events 12]
                    [--campaigns 8] [--seed N|0xN] [--start 0] [--inject-at 0]
                    [--threads N] [--json out.json|-] [--postmortem DIR]
                    [--snapshot-ring 64] [--snapshot-stride 10]
  qz branch         [--system QZ] [--device apollo4|msp430] [--env crowded]
                    [--events 40] [--seed N|0xN] [--at 60]
                    [--fork-no-pid] [--fork-no-sticky]
                    [--fork-checkpoint jit|task-boundary|periodic:SECS]
                    [--fork-capture-period SECS]
  qz bisect         [--preset standard|heavy] [--system QZ]
                    [--device apollo4|msp430] [--env crowded] [--events 12]
                    [--seed N|0xN] [--start 0] [--inject-at 0]
                    [--stride 10] [--ring 64]
  qz profile        [--system QZ] [--env crowded] [--events 200] [--seed N|0xN]
                    [--device apollo4|msp430]
                    [--json out.json|-] [--flame out.folded]
                    [--flight dump.json]
  qz bench          [--check] [--results-dir results] [--baseline FILE]
  qz help

SYSTEMS:       QZ, QZ-HW, NA, AD, CN, TH25, TH50, TH75, PZO, FCFS, LCFS, AvgSe2e
ENVIRONMENTS:  more-crowded, crowded, less-crowded, short, quiet

Every subcommand runs the fast-forward engine: it skips quiescent ticks in
bulk, and its reports are byte-identical to the per-tick reference loop
(an oracle that only the test suites and benches select).

`qz check` statically analyzes the spec + device profile + configs a run
would use (energy feasibility, Little's-Law arrival pressure, degradation
lattice, fixed-point ranges, control sanity) and exits nonzero on errors —
or on warnings too, with --deny-warnings. Without --system it sweeps every
shipped preset. --explain QZ0xx prints the catalog entry for one
diagnostic code (typical severity, rationale, fix hint) and exits.

`qz verify` runs the qz-absint abstract interpreter: an interval analysis
over (capacitor energy, buffer occupancy, service budget) stepped window
by window under a harvest *envelope* (per-segment min/max irradiance of
the environment's solar trace, --segment seconds per band). It decides
\"no energy stall\" and \"no input-buffer overflow\" per config: PROVEN
holds for every harvest realization inside the envelope; REFUTED comes
with a directed concrete counterexample and a single-line `qz run
--solar …` repro; UNKNOWN reports the first blocking interval. Refuted
properties exit nonzero; --deny-unproven also fails UNKNOWN. The static
`qz check` preflight runs first and merges into the same report (each
finding lists its sources once, deduplicated).

`qz lint-src` walks every crates/*/src tree (comments and string
literals stripped) for nondeterminism hazards — HashMap/HashSet
iteration, wall-clock reads, thread identity, parallel reductions —
and exits nonzero on findings not covered by the allowlist file
(`path-substring:pattern` lines; empty pattern allows every pattern
under the path).

`qz fleet` simulates N independently-seeded devices sharing duty-cycled
uplink channels, in parallel (--threads 0 = all cores; QZ_THREADS also
works). Reports are byte-identical at any thread count. The event-horizon
scheduler wakes only due devices; its reports are byte-identical to the
lockstep epoch-barrier reference the test suites check it against.
--gateways shards devices across multiple channels deterministically.
The preflight feasibility check (QZ050-QZ052, QZ080-QZ081) rejects
configs whose offered airtime saturates a channel and warns on
host-memory overshoot.

`qz fault` runs seeded fault-injection campaigns (adversarial power
failures, checkpoint corruption, ADC misreads, clock jitter, input
bursts, uplink jams) and judges each against the fault-free run and an
always-on oracle on four invariants: replay idempotence, buffer
conservation, energy accounting, decision monotonicity. Reports are
byte-identical at any thread count for a fixed seed; each violation
prints a single-line repro command. Exits nonzero on violations; the
survivability preflight (QZ060-QZ062) rejects saturating plans. With
--postmortem DIR, each violated campaign also writes a `qz-flight/v1`
crash dump (event ring + state digests + repro line) into DIR.

`qz branch` answers what-if questions in O(suffix): it runs the base
configuration to --at seconds, captures a `qz-snap/v1` snapshot, resumes
it under the forked tweaks (--fork-no-pid, --fork-no-sticky,
--fork-checkpoint, --fork-capture-period), and diffs the two decision
streams into a first-divergence report. With no fork flag it is a
self-check: the fork must reproduce the base stream exactly.

`qz bisect` takes one faulted campaign (same seed derivation as `qz
fault --start N --campaigns 1`) and binary-searches snapshot rings of
the faulted run and its fault-free twin for the exact first simulated
instant their engine states diverge, printing the tick, the coarse
bracket, the probe count, and a single-line `qz fault` repro. Exits
nonzero when no consequential fault ever fired.

With --snapshot-ring/--snapshot-stride, `qz run` keeps a rolling ring of
bit-exact engine snapshots while it runs (the material rollback and
branch studies start from) and prints the held capture instants; `qz
fault` uses the declared ring to preflight snapshot memory. Both
evaluate the QZ073 budget check (ring capacity × measured snapshot
size) and warn past 256 MiB.

`qz profile` runs one simulation with the engine's phase profiler and
horizon-cause accounting enabled, then prints a ranked \"why is this run
slow\" list (which bound capped each quiescent span) and a per-phase
self/total time table. --json writes the machine-readable report,
--flame writes a collapsed-stack file for flamegraph tooling, and
--flight installs a flight recorder and dumps its ring at exit.
Profiling is observation-only: metrics are byte-identical with it on.

`qz bench` prints the committed bench trajectories
(results/BENCH_*.json). With --check it compares the newest record of
each trajectory against results/BENCH_baseline.json and exits nonzero
when any gated metric regresses beyond the baseline tolerance.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn run_defaults() {
        let Command::Run(r) = parse(&argv("run")).unwrap() else {
            panic!()
        };
        assert_eq!(r.system, BaselineKind::Quetzal);
        assert_eq!(r.env, EnvironmentKind::Crowded);
        assert_eq!(r.events, 200);
    }

    #[test]
    fn run_with_flags() {
        let Command::Run(r) = parse(&argv(
            "run --system NA --env more-crowded --events 50 --seed 9 --device msp430 --telemetry t.csv",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(r.system, BaselineKind::NoAdapt);
        assert_eq!(r.env, EnvironmentKind::MoreCrowded);
        assert_eq!(r.events, 50);
        assert_eq!(r.seed, 9);
        assert_eq!(r.device, "msp430");
        assert_eq!(r.telemetry.as_deref(), Some("t.csv"));
    }

    #[test]
    fn plot_flag() {
        let Command::Run(r) = parse(&argv("run --plot")).unwrap() else {
            panic!()
        };
        assert!(r.plot);
    }

    #[test]
    fn compare_and_export() {
        assert!(matches!(
            parse(&argv("compare --env short")).unwrap(),
            Command::Compare(_)
        ));
        let Command::ExportTraces(r) = parse(&argv("export-traces --out-dir /tmp/x")).unwrap()
        else {
            panic!()
        };
        assert_eq!(r.out_dir, "/tmp/x");
    }

    #[test]
    fn trace_defaults_and_flags() {
        let Command::Trace(r) = parse(&argv("trace")).unwrap() else {
            panic!()
        };
        assert_eq!(r.limit, 200);
        assert!(!r.snapshots);
        assert_eq!(r.jsonl, None);
        let Command::Trace(r) = parse(&argv(
            "trace --env less --jsonl e.jsonl --csv e.csv --limit 0 --snapshots",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(r.env, EnvironmentKind::LessCrowded);
        assert_eq!(r.jsonl.as_deref(), Some("e.jsonl"));
        assert_eq!(r.csv.as_deref(), Some("e.csv"));
        assert_eq!(r.limit, 0);
        assert!(r.snapshots);
    }

    #[test]
    fn system_aliases() {
        assert_eq!(parse_system("quetzal").unwrap(), BaselineKind::Quetzal);
        assert_eq!(
            parse_system("TH75").unwrap(),
            BaselineKind::FixedThreshold(0.75)
        );
        assert_eq!(parse_system("lcfs").unwrap(), BaselineKind::LcfsIbo);
        assert!(parse_system("nope").is_err());
    }

    #[test]
    fn check_defaults_and_flags() {
        let Command::Check(c) = parse(&argv("check")).unwrap() else {
            panic!()
        };
        assert_eq!(c, CheckArgs::default());
        let Command::Check(c) = parse(&argv(
            "check --system QZ --device msp430 --json --deny-warnings --allow QZ011 \
             --cap-mf 0.05 --checkpoint task-boundary --buffer 4 --capture-period 0.5",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(c.system, Some(BaselineKind::Quetzal));
        assert_eq!(c.device, "msp430");
        assert!(c.json && c.deny_warnings);
        assert_eq!(c.allow, vec![qz_check::Code::QZ011]);
        assert_eq!(c.cap_mf, Some(0.05));
        assert_eq!(c.checkpoint, Some(qz_sim::CheckpointPolicy::TaskBoundary));
        assert_eq!(c.buffer, Some(4));
        assert_eq!(c.capture_period, Some(0.5));
    }

    #[test]
    fn check_checkpoint_parsing() {
        assert_eq!(
            parse_checkpoint("jit").unwrap(),
            qz_sim::CheckpointPolicy::JustInTime
        );
        assert_eq!(
            parse_checkpoint("periodic:0.25").unwrap(),
            qz_sim::CheckpointPolicy::Periodic {
                interval: qz_types::SimDuration::from_millis(250)
            }
        );
        assert!(parse_checkpoint("periodic:-1").is_err());
        assert!(parse_checkpoint("sometimes").is_err());
    }

    #[test]
    fn check_rejects_bad_input() {
        assert!(parse(&argv("check --allow QZ999")).is_err());
        assert!(parse(&argv("check --device z80")).is_err());
        assert!(parse(&argv("check --events 5")).is_err(), "run-only flag");
        assert!(parse(&argv("check --telemetry-period 0")).is_err());
        assert!(parse(&argv("check --snapshot-period -2")).is_err());
    }

    #[test]
    fn check_explain_flag() {
        let Command::Check(c) = parse(&argv("check --explain QZ010")).unwrap() else {
            panic!()
        };
        assert_eq!(c.explain, Some(qz_check::Code::QZ010));
        assert!(parse(&argv("check --explain QZ999")).is_err());
        assert!(parse(&argv("check --explain")).is_err(), "missing value");
    }

    #[test]
    fn verify_defaults_and_flags() {
        let Command::Verify(v) = parse(&argv("verify")).unwrap() else {
            panic!()
        };
        assert_eq!(v, VerifyArgs::default());
        assert_eq!(v.system, None, "no --system sweeps every preset");
        let Command::Verify(v) = parse(&argv(
            "verify --system QZ --device msp430 --env quiet --events 12 --seed 0xBEEF \
             --segment 30 --json --deny-unproven",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(v.system, Some(BaselineKind::Quetzal));
        assert_eq!(v.device, "msp430");
        assert_eq!(v.env, EnvironmentKind::Quiet);
        assert_eq!(v.events, 12);
        assert_eq!(v.seed, 0xBEEF);
        assert_eq!(v.segment, 30);
        assert!(v.json && v.deny_unproven);
    }

    #[test]
    fn verify_rejects_bad_input() {
        assert!(parse(&argv("verify --device z80")).is_err());
        assert!(parse(&argv("verify --events 0")).is_err());
        assert!(parse(&argv("verify --segment 0")).is_err());
        assert!(parse(&argv("verify --campaigns 4")).is_err(), "fault-only");
        assert!(parse(&argv("verify --plot")).is_err(), "run-only flag");
    }

    #[test]
    fn lint_src_defaults_and_flags() {
        let Command::LintSrc(l) = parse(&argv("lint-src")).unwrap() else {
            panic!()
        };
        assert_eq!(l, LintSrcArgs::default());
        assert_eq!(l.allow_file, "lint-allow.txt");
        let Command::LintSrc(l) = parse(&argv(
            "lint-src --root /tmp/ws --allow-file allow.txt --json",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(l.root, "/tmp/ws");
        assert_eq!(l.allow_file, "allow.txt");
        assert!(l.json);
        assert!(
            parse(&argv("lint-src --system QZ")).is_err(),
            "foreign flag"
        );
    }

    #[test]
    fn run_solar_flags_and_repro_lines() {
        let Command::Run(r) = parse(&argv("run")).unwrap() else {
            panic!()
        };
        assert_eq!(r.solar, qz_absint::SolarMode::Trace);
        assert_eq!(r.solar_seg, 60);
        // The exact flag vocabulary a `qz verify` refutation prints.
        let Command::Run(r) = parse(&argv(
            "run --system qz --device apollo4 --env crowded --events 40 \
             --seed 0x134fd62 --solar floor --solar-seg 60",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(r.seed, 0x134_FD62);
        assert_eq!(r.solar, qz_absint::SolarMode::Floor);
        assert!(parse(&argv("run --solar eclipse")).is_err());
        assert!(parse(&argv("run --solar-seg 0")).is_err());
    }

    #[test]
    fn check_observation_period_flags() {
        let Command::Check(c) =
            parse(&argv("check --telemetry-period 0.001 --snapshot-period 1")).unwrap()
        else {
            panic!()
        };
        assert_eq!(c.telemetry_period, Some(0.001));
        assert_eq!(c.snapshot_period, Some(1.0));
    }

    #[test]
    fn fleet_defaults_and_flags() {
        let Command::Fleet(f) = parse(&argv("fleet")).unwrap() else {
            panic!()
        };
        assert_eq!(f, FleetArgs::default());
        let Command::Fleet(f) = parse(&argv(
            "fleet --devices 64 --events 20 --seed 7 --system CN --device msp430 \
             --envs more,short --threads 8 --duty-cycle 0.2 --slot-ms 100 \
             --json out.json --csv - --metrics",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(f.devices, 64);
        assert_eq!(f.events, 20);
        assert_eq!(f.seed, 7);
        assert_eq!(f.system, BaselineKind::CatNap);
        assert_eq!(f.device, "msp430");
        assert_eq!(
            f.envs,
            vec![EnvironmentKind::MoreCrowded, EnvironmentKind::Short]
        );
        assert_eq!(f.threads, Some(8));
        assert_eq!(f.duty_cycle, Some(0.2));
        assert_eq!(f.slot_ms, Some(100));
        assert_eq!(f.json.as_deref(), Some("out.json"));
        assert_eq!(f.csv.as_deref(), Some("-"));
        assert!(f.metrics);
    }

    #[test]
    fn fleet_parses_gateways_and_capture_period() {
        let Command::Fleet(f) = parse(&argv("fleet --gateways 64 --capture-period 30")).unwrap()
        else {
            panic!()
        };
        assert_eq!(f.gateways, 64);
        assert_eq!(f.capture_period, Some(30.0));
        let Command::Fleet(f) = parse(&argv("fleet")).unwrap() else {
            panic!()
        };
        assert_eq!(f.gateways, 1);
        assert_eq!(f.capture_period, None);
    }

    #[test]
    fn fleet_rejects_conflicting_stdout_streams() {
        assert!(parse(&argv("fleet --json - --csv -")).is_err());
        assert!(parse(&argv("fleet --json - --csv out.csv")).is_ok());
        assert!(parse(&argv("fleet --json out.json --csv -")).is_ok());
    }

    #[test]
    fn fleet_rejects_bad_input() {
        assert!(parse(&argv("fleet --devices 0")).is_err());
        assert!(parse(&argv("fleet --envs")).is_err());
        assert!(parse(&argv("fleet --envs mars")).is_err());
        assert!(parse(&argv("fleet --duty-cycle -1")).is_err());
        assert!(parse(&argv("fleet --slot-ms 0")).is_err());
        assert!(parse(&argv("fleet --plot")).is_err(), "run-only flag");
        assert!(parse(&argv("fleet --gateways 0")).is_err());
        assert!(parse(&argv("fleet --capture-period 0")).is_err());
    }

    #[test]
    fn fault_defaults_and_flags() {
        let Command::Fault(f) = parse(&argv("fault")).unwrap() else {
            panic!()
        };
        assert_eq!(f, FaultArgs::default());
        let Command::Fault(f) = parse(&argv(
            "fault --preset heavy --system QZ-HW --device msp430 --env more-crowded \
             --events 4 --campaigns 1 --seed 0xD1FF0002 --start 17 --threads 2 --json -",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(f.preset, "heavy");
        assert_eq!(f.system, BaselineKind::QuetzalHw);
        assert_eq!(f.device, "msp430");
        assert_eq!(f.env, EnvironmentKind::MoreCrowded);
        assert_eq!(f.events, 4);
        assert_eq!(f.campaigns, 1);
        assert_eq!(f.seed, 0xD1FF_0002);
        assert_eq!(f.start, 17);
        assert_eq!(f.threads, Some(2));
        assert_eq!(f.json.as_deref(), Some("-"));
    }

    #[test]
    fn fault_accepts_its_own_repro_lines() {
        // The exact flag vocabulary FaultReport::repro_line() emits.
        let line = "fault --system qz --device apollo4 --env crowded --events 4 \
                    --preset standard --seed 0xd1ff0001 --start 3 --campaigns 1";
        let Command::Fault(f) = parse(&argv(line)).unwrap() else {
            panic!()
        };
        assert_eq!(f.seed, 0xD1FF_0001);
        assert_eq!(f.start, 3);
        assert_eq!(f.campaigns, 1);
    }

    #[test]
    fn fault_rejects_bad_input() {
        assert!(parse(&argv("fault --preset catastrophic")).is_err());
        assert!(parse(&argv("fault --campaigns 0")).is_err());
        assert!(parse(&argv("fault --events 0")).is_err());
        assert!(parse(&argv("fault --seed 0xnope")).is_err());
        assert!(parse(&argv("fault --device z80")).is_err());
        assert!(
            parse(&argv("fault --devices 4")).is_err(),
            "fleet-only flag"
        );
    }

    #[test]
    fn fault_postmortem_flag() {
        let Command::Fault(f) = parse(&argv("fault --postmortem dumps/")).unwrap() else {
            panic!()
        };
        assert_eq!(f.postmortem.as_deref(), Some("dumps/"));
        assert!(parse(&argv("fault --postmortem")).is_err(), "missing value");
    }

    #[test]
    fn fault_inject_at_and_snapshot_flags() {
        // The exact vocabulary a gated campaign's repro line emits.
        let line = "fault --system qz --device apollo4 --env crowded --events 4 \
                    --preset heavy --seed 0xfa017 --start 1 --campaigns 1 --inject-at 15";
        let Command::Fault(f) = parse(&argv(line)).unwrap() else {
            panic!()
        };
        assert_eq!(f.inject_at, 15);
        assert_eq!(f.start, 1);
        let Command::Fault(f) =
            parse(&argv("fault --snapshot-ring 8 --snapshot-stride 30")).unwrap()
        else {
            panic!()
        };
        assert_eq!(f.snapshot_ring, Some(8));
        assert_eq!(f.snapshot_stride, Some(30));
        assert!(parse(&argv("fault --snapshot-ring 0")).is_err());
        assert!(parse(&argv("fault --snapshot-stride 0")).is_err());
        assert!(parse(&argv("fault --inject-at soon")).is_err());
    }

    #[test]
    fn run_snapshot_ring_flags() {
        let Command::Run(r) = parse(&argv("run")).unwrap() else {
            panic!()
        };
        assert_eq!(r.snapshot_ring, None);
        assert_eq!(r.snapshot_stride, None);
        let Command::Run(r) = parse(&argv("run --snapshot-ring 16 --snapshot-stride 5")).unwrap()
        else {
            panic!()
        };
        assert_eq!(r.snapshot_ring, Some(16));
        assert_eq!(r.snapshot_stride, Some(5));
        assert!(parse(&argv("run --snapshot-ring 0")).is_err());
        assert!(parse(&argv("run --snapshot-stride 0")).is_err());
    }

    #[test]
    fn branch_defaults_and_flags() {
        let Command::Branch(b) = parse(&argv("branch")).unwrap() else {
            panic!()
        };
        assert_eq!(b, BranchArgs::default());
        assert_eq!(b.at, 60);
        assert!(!b.fork_no_pid);
        let Command::Branch(b) = parse(&argv(
            "branch --system QZ --device msp430 --env quiet --events 20 --seed 0xBEEF \
             --at 90 --fork-no-pid --fork-no-sticky \
             --fork-checkpoint task-boundary --fork-capture-period 2",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(b.device, "msp430");
        assert_eq!(b.env, EnvironmentKind::Quiet);
        assert_eq!(b.events, 20);
        assert_eq!(b.seed, 0xBEEF);
        assert_eq!(b.at, 90);
        assert!(b.fork_no_pid && b.fork_no_sticky);
        assert_eq!(
            b.fork_checkpoint,
            Some(qz_sim::CheckpointPolicy::TaskBoundary)
        );
        assert_eq!(b.fork_capture_period, Some(2.0));
    }

    #[test]
    fn branch_rejects_bad_input() {
        assert!(parse(&argv("branch --events 0")).is_err());
        assert!(parse(&argv("branch --at never")).is_err());
        assert!(parse(&argv("branch --fork-capture-period 0")).is_err());
        assert!(parse(&argv("branch --campaigns 4")).is_err(), "fault-only");
    }

    #[test]
    fn bisect_defaults_and_flags() {
        let Command::Bisect(b) = parse(&argv("bisect")).unwrap() else {
            panic!()
        };
        assert_eq!(b, BisectArgs::default());
        assert_eq!(b.stride, 10);
        assert_eq!(b.ring, 64);
        let Command::Bisect(b) = parse(&argv(
            "bisect --preset heavy --system QZ --device apollo4 --env crowded \
             --events 4 --seed 0xFA017 --start 3 --inject-at 15 \
             --stride 5 --ring 16",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(b.preset, "heavy");
        assert_eq!(b.events, 4);
        assert_eq!(b.start, 3);
        assert_eq!(b.inject_at, 15);
        assert_eq!(b.stride, 5);
        assert_eq!(b.ring, 16);
    }

    #[test]
    fn bisect_rejects_bad_input() {
        assert!(parse(&argv("bisect --preset catastrophic")).is_err());
        assert!(parse(&argv("bisect --stride 0")).is_err());
        assert!(parse(&argv("bisect --ring 0")).is_err());
        assert!(parse(&argv("bisect --campaigns 4")).is_err(), "fault-only");
    }

    #[test]
    fn profile_defaults_and_flags() {
        let Command::Profile(p) = parse(&argv("profile")).unwrap() else {
            panic!()
        };
        assert_eq!(p, ProfileArgs::default());
        let Command::Profile(p) = parse(&argv(
            "profile --system CN --device msp430 --env quiet --events 50 --seed 0xBEEF \
             --json - --flame out.folded --flight dump.json",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(p.system, BaselineKind::CatNap);
        assert_eq!(p.device, "msp430");
        assert_eq!(p.env, EnvironmentKind::Quiet);
        assert_eq!(p.events, 50);
        assert_eq!(p.seed, 0xBEEF);
        assert_eq!(p.json.as_deref(), Some("-"));
        assert_eq!(p.flame.as_deref(), Some("out.folded"));
        assert_eq!(p.flight.as_deref(), Some("dump.json"));
    }

    #[test]
    fn profile_rejects_bad_input() {
        assert!(parse(&argv("profile --events 0")).is_err());
        assert!(parse(&argv("profile --device z80")).is_err());
        assert!(parse(&argv("profile --campaigns 4")).is_err(), "fault-only");
    }

    #[test]
    fn bench_defaults_and_flags() {
        let Command::Bench(b) = parse(&argv("bench")).unwrap() else {
            panic!()
        };
        assert_eq!(b, BenchArgs::default());
        assert!(!b.check);
        let Command::Bench(b) = parse(&argv(
            "bench --check --results-dir out --baseline floor.json",
        ))
        .unwrap() else {
            panic!()
        };
        assert!(b.check);
        assert_eq!(b.results_dir, "out");
        assert_eq!(b.baseline.as_deref(), Some("floor.json"));
        assert!(parse(&argv("bench --wat")).is_err());
    }

    #[test]
    fn quiet_environment_parses() {
        assert_eq!(parse_env("quiet").unwrap(), EnvironmentKind::Quiet);
    }

    #[test]
    fn seed_parsing() {
        assert_eq!(parse_seed("42").unwrap(), 42);
        assert_eq!(parse_seed("0xFA017").unwrap(), 0xFA017);
        assert_eq!(parse_seed("0Xfa017").unwrap(), 0xFA017);
        assert!(parse_seed("-1").is_err());
        assert!(parse_seed("0x").is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&argv("run --events nope")).is_err());
        assert!(parse(&argv("run --device z80")).is_err());
        assert!(parse(&argv("run --system")).is_err(), "missing value");
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("run --wat 1")).is_err());
    }

    #[test]
    fn help_documents_the_fleet_scheduler_surface() {
        // The discoverability contract: every fleet scheduling knob the
        // parser accepts is advertised, and the help names the one
        // production scheduler.
        assert!(HELP.contains("[--gateways 1] [--capture-period 1]"));
        assert!(HELP.contains("The event-horizon\nscheduler wakes only due devices"));
    }
}
