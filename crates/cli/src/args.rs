//! Argument parsing for the `qz` binary (dependency-free).
//!
//! Each subcommand is one row of [`SUBCOMMANDS`]: its name, its flag
//! table and its `--events`/`--seed` defaults. Each flag is one
//! [`Flag`]: the name, a usage sample (empty for a switch) and a setter
//! that parses the value into [`Args`], the one struct every handler
//! reads. Shared flags (`--system`, `--device`, `--env`, `--events`,
//! `--seed`, `--threads`, `--preset`, `--json`) are defined once and
//! listed in every table that takes them. A single
//! loop walks argv against the table, so a subcommand rejects every flag
//! its handler would ignore, and [`help`] renders the usage block from
//! the same tables. `qz figure` alone has no `--events` default of its
//! own: the figure its `--name` picks from `qz_bench::FIGURES` supplies
//! it, and the two constant tables reject it.

use core::fmt;
use core::str::FromStr;
use qz_baselines::BaselineKind;
use qz_traces::EnvironmentKind;

/// A parsed `qz` invocation: the subcommand and its options.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `qz run …` — simulate one system in one environment.
    Run(Args),
    /// `qz compare …` — run the standard system set side by side.
    Compare(Args),
    /// `qz figure …` — print one of the paper's figures or tables.
    Figure(Args),
    /// `qz export-traces …` — write the environment's solar/event CSVs.
    ExportTraces(Args),
    /// `qz trace …` — record and render the decision-event timeline.
    Trace(Args),
    /// `qz check …` — static semantic analysis of an experiment config.
    Check(Args),
    /// `qz verify …` — sound abstract-interpretation verification of the
    /// no-stall / no-overflow properties under a harvest envelope.
    Verify(Args),
    /// `qz fleet …` — parallel multi-device fleet simulation over a
    /// shared uplink channel.
    Fleet(Args),
    /// `qz fault …` — seeded fault-injection campaigns judged by the
    /// differential oracle harness.
    Fault(Args),
    /// `qz branch …` — fork a run at a tick under modified tweaks and
    /// report where the decision streams first diverge.
    Branch(Args),
    /// `qz bisect …` — binary-search a faulted campaign against its
    /// fault-free twin for the exact first divergent tick.
    Bisect(Args),
    /// `qz profile …` — run one simulation with the phase profiler and
    /// horizon-cause accounting enabled and explain where time went.
    Profile(Args),
    /// `qz bench …` — inspect the bench trajectory and gate against the
    /// committed baseline.
    Bench(Args),
    /// `qz help` / `--help`.
    Help,
}

/// A `--device` selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// The Ambiq Apollo 4 profile.
    Apollo4,
    /// The TI MSP430FR5994 profile.
    Msp430,
    /// Both profiles: the default, and only accepted value, of the
    /// sweeping subcommands (`check`, `verify`).
    All,
}

/// Every option any subcommand takes. A subcommand's table decides
/// which fields its argv may set; the rest keep their defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// System under test; `None` sweeps every preset (`check`, `verify`)
    /// and means QZ elsewhere (see [`Args::system`]).
    pub system: Option<BaselineKind>,
    /// Device profile.
    pub device: Device,
    /// Sensing environment.
    pub env: EnvironmentKind,
    /// Fleet environment mix, assigned round-robin by device index.
    pub envs: Vec<EnvironmentKind>,
    /// Events in the environment trace.
    pub events: usize,
    /// The output `qz figure` prints (`--name`); its default `--events`
    /// applies when the flag is absent.
    pub figure: Option<&'static qz_bench::Figure>,
    /// Environment/simulation (or master campaign/fleet) seed.
    pub seed: u64,
    /// Worker threads (`fleet`, `fault`); 0 = all cores.
    pub threads: usize,
    /// JSON output path, `-` for stdout.
    pub json: Option<String>,
    /// CSV output path (`-` for stdout in `fleet`).
    pub csv: Option<String>,
    /// Telemetry CSV output path (`run`).
    pub telemetry: Option<String>,
    /// Render the telemetry as terminal sparklines (`run`).
    pub plot: bool,
    /// Output directory (`export-traces`).
    pub out_dir: String,
    /// Event-log JSONL output path (`trace`).
    pub jsonl: Option<String>,
    /// Maximum timeline lines to render, 0 = unlimited (`trace`).
    pub limit: usize,
    /// Include periodic state snapshots in the timeline (`trace`).
    pub snapshots: bool,
    /// Solar realization: the seeded trace, or an envelope corner
    /// (`qz verify` repro lines use `--solar floor`).
    pub solar: qz_absint::SolarMode,
    /// Envelope segment length for `--solar floor|ceil`, seconds.
    pub solar_seg: u64,
    /// Exit nonzero on warnings as well as errors (`check`).
    pub deny_warnings: bool,
    /// Diagnostic codes downgraded to notes (repeatable `--allow`).
    pub allow: Vec<qz_check::Code>,
    /// Supercapacitor capacitance override, millifarads (`check`).
    pub cap_mf: Option<f64>,
    /// Checkpoint policy override (`check`).
    pub checkpoint: Option<qz_sim::CheckpointPolicy>,
    /// Harvester cell count override (`check`).
    pub cells: Option<u32>,
    /// Input-buffer capacity override (`check`).
    pub buffer: Option<usize>,
    /// Capture period override, seconds (`check`, `fleet`).
    pub capture_period: Option<f64>,
    /// Print the catalog entry for one diagnostic code and exit (`check`).
    pub explain: Option<qz_check::Code>,
    /// Envelope segment length, seconds (`verify`).
    pub segment: u64,
    /// Exit nonzero on UNKNOWN verdicts too (`verify`).
    pub deny_unproven: bool,
    /// Number of devices (`fleet`).
    pub devices: usize,
    /// Shared-channel duty-cycle override (`fleet`).
    pub duty_cycle: Option<f64>,
    /// Channel slot length override, milliseconds (`fleet`).
    pub slot_ms: Option<u64>,
    /// Also print the qz-obs metrics registry (`fleet`).
    pub metrics: bool,
    /// Gateways the fleet is sharded across (`fleet`).
    pub gateways: usize,
    /// Fault plan preset (`fault`, `bisect`).
    pub preset: String,
    /// Number of seeded campaigns (`fault`).
    pub campaigns: usize,
    /// First (`fault`) or bisected (`bisect`) global campaign index.
    pub start: usize,
    /// Directory for `qz-flight/v1` postmortems of violated campaigns.
    pub postmortem: Option<String>,
    /// Gate every fault class until this many seconds in.
    pub inject_at: u64,
    /// Fork instant, seconds (`branch`).
    pub at: u64,
    /// Fork with the PID error-mitigation loop disabled (`branch`).
    pub fork_no_pid: bool,
    /// Fork with sticky current-option scheduling disabled (`branch`).
    pub fork_no_sticky: bool,
    /// Fork under a different checkpoint policy (`branch`).
    pub fork_checkpoint: Option<qz_sim::CheckpointPolicy>,
    /// Fork under a different capture period, seconds (`branch`).
    pub fork_capture_period: Option<f64>,
    /// Coarse-pass snapshot stride, seconds (`bisect`).
    pub stride: u64,
    /// Snapshot ring capacity per twin (`bisect`).
    pub ring: usize,
    /// Collapsed-stack flamegraph output path (`profile`).
    pub flame: Option<String>,
    /// Flight-recorder dump output path (`profile`).
    pub flight: Option<String>,
    /// Gate the newest trajectory records against the baseline (`bench`).
    pub check: bool,
    /// Directory holding `BENCH_*.json` trajectories (`bench`).
    pub results_dir: String,
    /// Baseline file path (`bench`; default `<results-dir>/BENCH_baseline.json`).
    pub baseline: Option<String>,
}

impl Args {
    /// The defaults of `sub` before any flag applies.
    fn new(sub: &Subcommand) -> Args {
        Args {
            system: None,
            device: if sub.sweep {
                Device::All
            } else {
                Device::Apollo4
            },
            env: EnvironmentKind::Crowded,
            envs: Vec::new(),
            events: sub.events,
            figure: None,
            seed: sub.seed,
            threads: 1,
            json: None,
            csv: None,
            telemetry: None,
            plot: false,
            out_dir: ".".into(),
            jsonl: None,
            limit: 200,
            snapshots: false,
            solar: qz_absint::SolarMode::Trace,
            solar_seg: 60,
            deny_warnings: false,
            allow: Vec::new(),
            cap_mf: None,
            checkpoint: None,
            cells: None,
            buffer: None,
            capture_period: None,
            explain: None,
            segment: 60,
            deny_unproven: false,
            devices: 16,
            duty_cycle: None,
            slot_ms: None,
            metrics: false,
            gateways: 1,
            preset: "standard".into(),
            campaigns: 8,
            start: 0,
            postmortem: None,
            inject_at: 0,
            at: 60,
            fork_no_pid: false,
            fork_no_sticky: false,
            fork_checkpoint: None,
            fork_capture_period: None,
            stride: 10,
            ring: 64,
            flame: None,
            flight: None,
            check: false,
            results_dir: "results".into(),
            baseline: None,
        }
    }

    /// The one system a non-sweeping subcommand runs (QZ by default).
    pub fn system(&self) -> BaselineKind {
        self.system.unwrap_or(BaselineKind::Quetzal)
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

/// One `--flag` of a subcommand table.
struct Flag {
    /// The flag as typed, e.g. `--events`.
    name: &'static str,
    /// Usage sample for the help text (`200`); empty for a switch,
    /// which takes no value.
    sample: &'static str,
    /// Parses the value (`""` for a switch) into [`Args`].
    set: fn(&mut Args, &str) -> Result<(), ParseError>,
}

/// One subcommand: its flag table and the defaults that differ between
/// subcommands.
struct Subcommand {
    /// The subcommand as typed, e.g. `run`.
    name: &'static str,
    /// Every flag it accepts, in help order.
    flags: &'static [Flag],
    /// `--events` default.
    events: usize,
    /// `--seed` default.
    seed: u64,
    /// Sweeps every preset and both devices unless narrowed.
    sweep: bool,
    /// Wraps the parsed options.
    make: fn(Args) -> Command,
}

const fn flag(
    name: &'static str,
    sample: &'static str,
    set: fn(&mut Args, &str) -> Result<(), ParseError>,
) -> Flag {
    Flag { name, sample, set }
}

/// Stores a parsed value.
fn set<T>(slot: &mut T, value: Result<T, ParseError>) -> Result<(), ParseError> {
    *slot = value?;
    Ok(())
}

fn num<T: FromStr>(v: &str, what: &str) -> Result<T, ParseError> {
    v.parse().map_err(|_| err(format!("must be {what}")))
}

/// A count or duration that must be at least 1.
fn positive<T: FromStr + PartialEq + From<u8>>(v: &str) -> Result<T, ParseError> {
    let n: T = num(v, "a positive integer")?;
    if n == T::from(0) {
        return Err(err("must be at least 1"));
    }
    Ok(n)
}

/// A finite number above zero.
fn positive_f64(v: &str) -> Result<f64, ParseError> {
    let x: f64 = num(v, "a number")?;
    if !(x.is_finite() && x > 0.0) {
        return Err(err("must be positive"));
    }
    Ok(x)
}

fn path(v: &str) -> Result<Option<String>, ParseError> {
    Ok(Some(v.into()))
}

fn code(v: &str) -> Result<qz_check::Code, ParseError> {
    qz_check::Code::parse(v).ok_or_else(|| err(format!("unknown diagnostic code `{v}`")))
}

/// Parses a seed value, decimal or `0x`-prefixed hex (the form repro
/// lines print).
pub fn parse_seed(value: &str) -> Result<u64, ParseError> {
    let v = value.to_ascii_lowercase();
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| err("must be an integer (decimal or 0x-prefixed hex)"))
}

/// Parses a system name (paper abbreviation, case-insensitive).
pub fn parse_system(name: &str) -> Result<BaselineKind, ParseError> {
    BaselineKind::parse(name).ok_or_else(|| {
        err(format!(
            "unknown system `{name}` (try QZ, QZ-HW, NA, AD, CN, TH25/50/75, PZO, FCFS, LCFS, \
             AvgSe2e)"
        ))
    })
}

/// Parses an environment name.
pub fn parse_env(name: &str) -> Result<EnvironmentKind, ParseError> {
    EnvironmentKind::parse(name).ok_or_else(|| {
        let names: Vec<&str> = EnvironmentKind::ALL.iter().map(|k| k.token()).collect();
        err(format!(
            "unknown environment `{name}` (try {})",
            names.join(", ")
        ))
    })
}

/// Parses a `--device` value; `all` is rejected after parsing by every
/// subcommand that does not sweep.
fn parse_device(value: &str) -> Result<Device, ParseError> {
    match value.to_ascii_lowercase().as_str() {
        "apollo4" => Ok(Device::Apollo4),
        "msp430" => Ok(Device::Msp430),
        "all" => Ok(Device::All),
        _ => Err(err(
            "must be `apollo4` or `msp430` (or `all` for check and verify)",
        )),
    }
}

/// Parses a checkpoint policy: `jit`, `task-boundary`, or
/// `periodic:SECS`.
pub fn parse_checkpoint(value: &str) -> Result<qz_sim::CheckpointPolicy, ParseError> {
    let v = value.to_ascii_lowercase();
    match v.as_str() {
        "jit" | "just-in-time" => Ok(qz_sim::CheckpointPolicy::JustInTime),
        "task-boundary" | "task" => Ok(qz_sim::CheckpointPolicy::TaskBoundary),
        _ => {
            let secs = v.strip_prefix("periodic:").ok_or_else(|| {
                err("unknown checkpoint policy (try jit, task-boundary, periodic:SECS)")
            })?;
            Ok(qz_sim::CheckpointPolicy::Periodic {
                interval: qz_types::SimDuration::from_seconds_ceil(qz_types::Seconds(
                    positive_f64(secs)?,
                )),
            })
        }
    }
}

fn parse_preset(value: &str) -> Result<String, ParseError> {
    let p = value.to_ascii_lowercase();
    match qz_fault::FaultPlan::preset(&p) {
        Some(_) => Ok(p),
        None => Err(err(
            "unknown fault preset (try none, smoke, standard, heavy)",
        )),
    }
}

// Flags several subcommands share, each defined once.
const SYSTEM: Flag = flag("--system", "QZ", |a, v| {
    set(&mut a.system, parse_system(v).map(Some))
});
const DEVICE: Flag = flag("--device", "apollo4|msp430", |a, v| {
    set(&mut a.device, parse_device(v))
});
const ENV: Flag = flag("--env", "crowded", |a, v| set(&mut a.env, parse_env(v)));
const EVENTS: Flag = flag("--events", "N", |a, v| set(&mut a.events, positive(v)));
const SEED: Flag = flag("--seed", "N|0xN", |a, v| set(&mut a.seed, parse_seed(v)));
const THREADS: Flag = flag("--threads", "N", |a, v| {
    set(&mut a.threads, num(v, "a non-negative integer"))
});
const PRESET: Flag = flag("--preset", "none|smoke|standard|heavy", |a, v| {
    set(&mut a.preset, parse_preset(v))
});
const JSON: Flag = flag("--json", "out.json|-", |a, v| set(&mut a.json, path(v)));
const CSV: Flag = flag("--csv", "out.csv", |a, v| set(&mut a.csv, path(v)));
const SOLAR: Flag = flag("--solar", "trace|floor|ceil", |a, v| {
    let mode = qz_absint::SolarMode::parse(&v.to_ascii_lowercase());
    set(
        &mut a.solar,
        mode.ok_or_else(|| err("unknown solar mode (try trace, floor, ceil)")),
    )
});
const SOLAR_SEG: Flag = flag("--solar-seg", "60", |a, v| {
    set(&mut a.solar_seg, positive(v))
});
const START: Flag = flag("--start", "0", |a, v| {
    set(&mut a.start, num(v, "a non-negative integer"))
});
const INJECT_AT: Flag = flag("--inject-at", "0", |a, v| {
    set(&mut a.inject_at, num(v, "a number of seconds"))
});
const RUN: &[Flag] = &[
    SYSTEM,
    ENV,
    EVENTS,
    SEED,
    DEVICE,
    flag("--telemetry", "out.csv", |a, v| {
        set(&mut a.telemetry, path(v))
    }),
    flag("--plot", "", |a, _| set(&mut a.plot, Ok(true))),
    SOLAR,
    SOLAR_SEG,
];
const COMPARE: &[Flag] = &[ENV, EVENTS, SEED, DEVICE, SOLAR, SOLAR_SEG];
const FIGURE: &[Flag] = &[
    flag("--name", "fig09_vs_nonadaptive", |a, v| {
        let figure = qz_bench::figure(v).ok_or_else(|| {
            err(format!(
                "unknown figure `{v}` (try {})",
                figure_names().join(", ")
            ))
        });
        set(&mut a.figure, figure.map(Some))
    }),
    EVENTS,
];
const EXPORT_TRACES: &[Flag] = &[
    ENV,
    EVENTS,
    SEED,
    SOLAR,
    SOLAR_SEG,
    flag("--out-dir", "DIR", |a, v| set(&mut a.out_dir, Ok(v.into()))),
];
const TRACE: &[Flag] = &[
    SYSTEM,
    ENV,
    EVENTS,
    SEED,
    DEVICE,
    SOLAR,
    SOLAR_SEG,
    flag("--jsonl", "out.jsonl", |a, v| set(&mut a.jsonl, path(v))),
    CSV,
    flag("--limit", "200", |a, v| {
        set(&mut a.limit, num(v, "a non-negative integer"))
    }),
    flag("--snapshots", "", |a, _| set(&mut a.snapshots, Ok(true))),
];

// `qz check`'s overrides stay unvalidated on purpose: its own range
// diagnostics report nonsense values with the reason they are wrong.
const CHECK: &[Flag] = &[
    SYSTEM,
    DEVICE,
    JSON,
    flag("--deny-warnings", "", |a, _| {
        set(&mut a.deny_warnings, Ok(true))
    }),
    flag("--allow", "QZ011", |a, v| {
        a.allow.push(code(v)?);
        Ok(())
    }),
    flag("--cap-mf", "33", |a, v| {
        set(&mut a.cap_mf, num(v, "a number").map(Some))
    }),
    flag("--checkpoint", "jit|task-boundary|periodic:SECS", |a, v| {
        set(&mut a.checkpoint, parse_checkpoint(v).map(Some))
    }),
    flag("--cells", "6", |a, v| {
        set(&mut a.cells, num(v, "an integer").map(Some))
    }),
    flag("--buffer", "10", |a, v| {
        set(&mut a.buffer, num(v, "an integer").map(Some))
    }),
    flag("--capture-period", "1", |a, v| {
        set(&mut a.capture_period, num(v, "a number").map(Some))
    }),
    flag("--explain", "QZ010", |a, v| {
        set(&mut a.explain, code(v).map(Some))
    }),
];

const VERIFY: &[Flag] = &[
    SYSTEM,
    DEVICE,
    ENV,
    EVENTS,
    SEED,
    flag("--segment", "60", |a, v| set(&mut a.segment, positive(v))),
    JSON,
    flag("--deny-unproven", "", |a, _| {
        set(&mut a.deny_unproven, Ok(true))
    }),
];

const FLEET: &[Flag] = &[
    flag("--devices", "16", |a, v| set(&mut a.devices, positive(v))),
    EVENTS,
    SEED,
    SYSTEM,
    DEVICE,
    flag("--envs", "more,crowded,less", |a, v| {
        let envs: Vec<EnvironmentKind> = v
            .split(',')
            .filter(|s| !s.is_empty())
            .map(parse_env)
            .collect::<Result<_, _>>()?;
        if envs.is_empty() {
            return Err(err("needs at least one environment"));
        }
        set(&mut a.envs, Ok(envs))
    }),
    THREADS,
    flag("--duty-cycle", "0.1", |a, v| {
        set(&mut a.duty_cycle, positive_f64(v).map(Some))
    }),
    flag("--slot-ms", "50", |a, v| {
        set(&mut a.slot_ms, positive(v).map(Some))
    }),
    JSON,
    CSV,
    flag("--metrics", "", |a, _| set(&mut a.metrics, Ok(true))),
    flag("--gateways", "1", |a, v| set(&mut a.gateways, positive(v))),
    flag("--capture-period", "1", |a, v| {
        set(&mut a.capture_period, positive_f64(v).map(Some))
    }),
];

const FAULT: &[Flag] = &[
    PRESET,
    SYSTEM,
    DEVICE,
    ENV,
    EVENTS,
    flag("--campaigns", "8", |a, v| {
        set(&mut a.campaigns, positive(v))
    }),
    SEED,
    START,
    INJECT_AT,
    THREADS,
    JSON,
    flag("--postmortem", "DIR", |a, v| {
        set(&mut a.postmortem, path(v))
    }),
];

const BRANCH: &[Flag] = &[
    SYSTEM,
    DEVICE,
    ENV,
    EVENTS,
    SEED,
    flag("--at", "60", |a, v| {
        set(&mut a.at, num(v, "a number of seconds"))
    }),
    flag("--fork-no-pid", "", |a, _| {
        set(&mut a.fork_no_pid, Ok(true))
    }),
    flag("--fork-no-sticky", "", |a, _| {
        set(&mut a.fork_no_sticky, Ok(true))
    }),
    flag(
        "--fork-checkpoint",
        "jit|task-boundary|periodic:SECS",
        |a, v| set(&mut a.fork_checkpoint, parse_checkpoint(v).map(Some)),
    ),
    flag("--fork-capture-period", "SECS", |a, v| {
        set(&mut a.fork_capture_period, positive_f64(v).map(Some))
    }),
];

const BISECT: &[Flag] = &[
    PRESET,
    SYSTEM,
    DEVICE,
    ENV,
    EVENTS,
    SEED,
    START,
    INJECT_AT,
    flag("--stride", "10", |a, v| set(&mut a.stride, positive(v))),
    flag("--ring", "64", |a, v| set(&mut a.ring, positive(v))),
];

const PROFILE: &[Flag] = &[
    SYSTEM,
    ENV,
    EVENTS,
    SEED,
    DEVICE,
    JSON,
    flag("--flame", "out.folded", |a, v| set(&mut a.flame, path(v))),
    flag("--flight", "dump.json", |a, v| set(&mut a.flight, path(v))),
];

const BENCH: &[Flag] = &[
    flag("--check", "", |a, _| set(&mut a.check, Ok(true))),
    flag("--results-dir", "results", |a, v| {
        set(&mut a.results_dir, Ok(v.into()))
    }),
    flag("--baseline", "FILE", |a, v| set(&mut a.baseline, path(v))),
];

/// The seed the paper-figure runs use.
const RUN_SEED: u64 = 20_250_330;
/// The `--events` default of `qz figure`: none of its own, the named
/// figure's applies (`--events` itself rejects 0).
const FIGURE_EVENTS: usize = 0;
/// The master seed of fault campaigns and bisection.
const FAULT_SEED: u64 = 0xFA017;

const fn sub(
    name: &'static str,
    flags: &'static [Flag],
    events: usize,
    seed: u64,
    make: fn(Args) -> Command,
) -> Subcommand {
    Subcommand {
        name,
        flags,
        events,
        seed,
        sweep: false,
        make,
    }
}

const fn sweep(s: Subcommand) -> Subcommand {
    Subcommand { sweep: true, ..s }
}

/// Every subcommand, in help order.
const SUBCOMMANDS: &[Subcommand] = &[
    sub("run", RUN, 200, RUN_SEED, Command::Run),
    sub("compare", COMPARE, 200, RUN_SEED, Command::Compare),
    sub("figure", FIGURE, FIGURE_EVENTS, RUN_SEED, Command::Figure),
    sub(
        "export-traces",
        EXPORT_TRACES,
        200,
        RUN_SEED,
        Command::ExportTraces,
    ),
    sub("trace", TRACE, 200, RUN_SEED, Command::Trace),
    sweep(sub("check", CHECK, 200, RUN_SEED, Command::Check)),
    sweep(sub("verify", VERIFY, 40, RUN_SEED, Command::Verify)),
    sub("fleet", FLEET, 40, 0xF1EE7, Command::Fleet),
    sub("fault", FAULT, 12, FAULT_SEED, Command::Fault),
    sub("branch", BRANCH, 40, RUN_SEED, Command::Branch),
    sub("bisect", BISECT, 12, FAULT_SEED, Command::Bisect),
    sub("profile", PROFILE, 200, RUN_SEED, Command::Profile),
    sub("bench", BENCH, 200, RUN_SEED, Command::Bench),
];

/// The value after `flag`, or an error naming it.
fn take_value<'a>(
    rest: &mut core::slice::Iter<'a, String>,
    flag: &str,
) -> Result<&'a str, ParseError> {
    rest.next()
        .map(String::as_str)
        .ok_or_else(|| err(format!("flag `{flag}` needs a value")))
}

/// Parses the full argument vector (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, ParseError> {
    let Some(name) = argv.first() else {
        return Ok(Command::Help);
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let Some(sub) = SUBCOMMANDS.iter().find(|s| s.name == name.as_str()) else {
        let names: Vec<&str> = SUBCOMMANDS.iter().map(|s| s.name).collect();
        return Err(err(format!(
            "unknown command `{name}` (try {}, help)",
            names.join(", ")
        )));
    };
    let mut args = Args::new(sub);
    let mut rest = argv[1..].iter();
    while let Some(given) = rest.next() {
        let Some(flag) = sub.flags.iter().find(|f| f.name == given.as_str()) else {
            return Err(err(format!("unknown flag `{given}` for `qz {name}`")));
        };
        let value = if flag.sample.is_empty() {
            ""
        } else {
            take_value(&mut rest, given)?
        };
        (flag.set)(&mut args, value).map_err(|e| err(format!("`{} {value}`: {e}", flag.name)))?;
    }
    if sub.name == "figure" {
        let figure = args.figure.ok_or_else(|| {
            err(format!(
                "`qz figure` needs --name (one of {})",
                figure_names().join(", ")
            ))
        })?;
        match figure.events {
            Some(events) if args.events == FIGURE_EVENTS => args.events = events,
            None if args.events != FIGURE_EVENTS => {
                return Err(err(format!(
                    "`{}` prints constants and takes no --events",
                    figure.name
                )));
            }
            _ => {}
        }
    }
    if args.device == Device::All && !sub.sweep {
        return Err(err(format!(
            "`--device all` sweeps only in check and verify, not `qz {name}`"
        )));
    }
    if args.json.as_deref() == Some("-") && args.csv.as_deref() == Some("-") {
        return Err(err(
            "`--json -` and `--csv -` cannot both stream to stdout (pick one, or write files)",
        ));
    }
    Ok((sub.make)(args))
}

fn figure_names() -> Vec<&'static str> {
    qz_bench::FIGURES.iter().map(|f| f.name).collect()
}

/// Renders the help text: the usage block from [`SUBCOMMANDS`], then
/// the vocabulary and one paragraph per subcommand.
pub fn help() -> String {
    const WIDTH: usize = 80;
    const INDENT: usize = 20;
    /// `line` then `items`, space-separated, breaking before any item
    /// that would pass `WIDTH` onto a new line indented `indent` columns.
    fn wrap(mut line: String, items: impl Iterator<Item = String>, indent: usize) -> String {
        let mut out = String::new();
        for (i, item) in items.enumerate() {
            if i > 0 && line.len() + 1 + item.len() > WIDTH {
                out.push_str(&line);
                out.push('\n');
                line = " ".repeat(indent);
            } else if i > 0 {
                line.push(' ');
            }
            line.push_str(&item);
        }
        out + &line
    }
    let mut usage = String::new();
    for sub in SUBCOMMANDS {
        let flags = sub.flags.iter().map(|flag| {
            if flag.sample.is_empty() {
                format!("[{}]", flag.name)
            } else {
                format!("[{} {}]", flag.name, flag.sample)
            }
        });
        let name = format!("  qz {:<1$}", sub.name, INDENT - 5);
        usage.push_str(&wrap(name, flags, INDENT));
        usage.push('\n');
    }
    let envs: Vec<&str> = EnvironmentKind::ALL.iter().map(|k| k.token()).collect();
    let names = figure_names();
    let items = names.iter().enumerate().map(|(i, name)| {
        let comma = if i + 1 < names.len() { "," } else { "" };
        format!("{name}{comma}")
    });
    let figures = wrap("FIGURES:       ".into(), items, 15);
    format!(
        "qz — Quetzal experiment runner\n\nUSAGE:\n{usage}  qz help\n\n\
         SYSTEMS:       QZ, QZ-HW, NA, AD, CN, TH25, TH50, TH75, PZO, FCFS, LCFS, AvgSe2e\n\
         ENVIRONMENTS:  {}\n\
         DEVICES:       apollo4, msp430; all (both) is the check and verify default\n\
         {figures}\n\
         {PROSE}",
        envs.join(", ")
    )
}

/// The help text's prose, one paragraph per subcommand.
const PROSE: &str = "
Every subcommand runs the fast-forward engine: it skips quiescent ticks in
bulk, and its reports are byte-identical to the per-tick reference loop
(an oracle that only the test suites and benches select). `qz run
--telemetry/--plot`, `qz trace --snapshots` and flight-recorder digests
all read one periodic device-state sample, taken once per simulated
second. Every --json takes a path, `-` for stdout.

`qz figure --name NAME` prints one output of the paper's evaluation (a
figure, a table, an extension, or `diagnose`) as its text table. Without
--events it runs at the figure's own scale, the one its committed
results/NAME.txt was made at (400 events for most; the paper uses 1000).
The two tables (table1_config, table_hw_costs) print constants and take
no --events.

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

`qz fleet` simulates N independently-seeded devices sharing duty-cycled
uplink channels, in parallel (--threads 0 = all cores; default 1).
Reports are byte-identical at any thread count. The event-horizon
scheduler wakes only due devices; its reports are byte-identical to the
lockstep epoch-barrier reference the test suites check it against.
--gateways shards devices across multiple channels deterministically.
--json - or --csv - streams that report to stdout. The preflight
feasibility check (QZ050-QZ052, QZ080-QZ081) rejects configs whose
offered airtime saturates a channel and warns on host-memory overshoot.

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
configuration to --at seconds, captures a `qz-snap/v2` snapshot, resumes
it under the forked tweaks (--fork-no-pid, --fork-no-sticky,
--fork-checkpoint, --fork-capture-period), and diffs the two decision
streams into a first-divergence report. With no fork flag it is a
self-check: the fork must reproduce the base stream exactly.

`qz bisect` takes one faulted campaign (same seed derivation as `qz
fault --start N --campaigns 1`) and binary-searches snapshot rings of
the faulted run and its fault-free twin for the exact first simulated
instant their engine states diverge, printing the tick, the coarse
bracket, the probe count, and a single-line `qz fault` repro. --stride
sets the coarse snapshot cadence and --ring the ring's capacity. Exits
nonzero when no consequential fault ever fired.

`qz profile` runs one simulation with the engine's phase profiler and
horizon-cause accounting enabled, then prints a ranked \"why is this run
slow\" list (which bound capped each quiescent span), one line of the
energy kernel's exact work counts, and a per-phase self/total time
table. --json writes the machine-readable report (phases, horizon
causes and the kernel counts), --flame writes a
collapsed-stack file for flamegraph tooling, and --flight installs a
flight recorder and dumps its ring at exit.
Profiling is observation-only: metrics are byte-identical with it on.

`qz bench` prints the committed bench trajectories
(results/BENCH_*.json). With --check it compares the newest record of
each trajectory against results/BENCH_baseline.json and exits nonzero
when any gated metric regresses beyond the baseline tolerance.
";

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// The options of a parsed command (panics on `help`).
    pub(crate) fn options(command: Command) -> Args {
        match command {
            Command::Run(a)
            | Command::Compare(a)
            | Command::Figure(a)
            | Command::ExportTraces(a)
            | Command::Trace(a)
            | Command::Check(a)
            | Command::Verify(a)
            | Command::Fleet(a)
            | Command::Fault(a)
            | Command::Branch(a)
            | Command::Bisect(a)
            | Command::Profile(a)
            | Command::Bench(a) => a,
            Command::Help => panic!("help carries no options"),
        }
    }

    fn ok(line: &str) -> Args {
        options(parse(&argv(line)).unwrap_or_else(|e| panic!("`{line}`: {e}")))
    }

    fn rejected(line: &str) -> bool {
        parse(&argv(line)).is_err()
    }

    /// Every line fails with the parser's unknown-flag error.
    fn assert_unknown(lines: &[&str]) {
        for line in lines {
            let e = parse(&argv(line)).unwrap_err();
            assert!(e.0.contains("unknown flag"), "`{line}`: {e}");
        }
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn run_defaults() {
        let r = ok("run");
        assert_eq!(r.system(), BaselineKind::Quetzal);
        assert_eq!(r.env, EnvironmentKind::Crowded);
        assert_eq!(r.events, 200);
        assert_eq!(r.seed, RUN_SEED);
        assert_eq!(r.device, Device::Apollo4);
    }

    #[test]
    fn run_with_flags() {
        let r = ok(
            "run --system NA --env more-crowded --events 50 --seed 9 --device msp430 --telemetry t.csv",
        );
        assert_eq!(r.system(), BaselineKind::NoAdapt);
        assert_eq!(r.env, EnvironmentKind::MoreCrowded);
        assert_eq!(r.events, 50);
        assert_eq!(r.seed, 9);
        assert_eq!(r.device, Device::Msp430);
        assert_eq!(r.telemetry.as_deref(), Some("t.csv"));
    }

    #[test]
    fn plot_flag() {
        assert!(ok("run --plot").plot);
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
        let r = ok("trace");
        assert_eq!(r.limit, 200);
        assert!(!r.snapshots);
        assert_eq!(r.jsonl, None);
        let r = ok("trace --env less --jsonl e.jsonl --csv e.csv --limit 0 --snapshots");
        assert_eq!(r.env, EnvironmentKind::LessCrowded);
        assert_eq!(r.jsonl.as_deref(), Some("e.jsonl"));
        assert_eq!(r.csv.as_deref(), Some("e.csv"));
        assert_eq!(r.limit, 0);
        assert!(r.snapshots);
    }

    #[test]
    fn run_family_rejects_flags_its_handler_ignores() {
        for line in [
            "compare --system NA",
            "compare --telemetry t.csv",
            "compare --plot",
            "compare --jsonl e.jsonl",
            "export-traces --system QZ",
            "export-traces --device msp430",
            "export-traces --limit 3",
            "trace --plot",
            "trace --telemetry t.csv",
            "run --jsonl e.jsonl",
            "run --out-dir x",
        ] {
            let e = parse(&argv(line)).unwrap_err();
            assert!(e.0.contains("unknown flag"), "`{line}`: {e}");
        }
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
        let c = ok("check");
        assert_eq!(c.system, None, "no --system sweeps every preset");
        assert_eq!(c.device, Device::All);
        assert_eq!(c.json, None);
        assert!(c.allow.is_empty() && c.explain.is_none() && c.cap_mf.is_none());
        let c = ok(
            "check --system QZ --device msp430 --json - --deny-warnings --allow QZ011 \
             --cap-mf 0.05 --checkpoint task-boundary --buffer 4 --capture-period 0.5",
        );
        assert_eq!(c.system, Some(BaselineKind::Quetzal));
        assert_eq!(c.device, Device::Msp430);
        assert!(c.json.as_deref() == Some("-") && c.deny_warnings);
        assert_eq!(c.allow, vec![qz_check::Code::QZ011]);
        assert_eq!(c.cap_mf, Some(0.05));
        assert_eq!(c.checkpoint, Some(qz_sim::CheckpointPolicy::TaskBoundary));
        assert_eq!(c.buffer, Some(4));
        assert_eq!(c.capture_period, Some(0.5));
        // Overrides stay unvalidated: qz-check's diagnostics report them.
        assert_eq!(ok("check --capture-period -1").capture_period, Some(-1.0));
        assert_eq!(ok("check --cap-mf 0").cap_mf, Some(0.0));
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
        assert!(rejected("check --allow QZ999"));
        assert!(rejected("check --device z80"));
        assert!(rejected("check --events 5"), "run-only flag");
    }

    #[test]
    fn check_explain_flag() {
        assert_eq!(
            ok("check --explain QZ010").explain,
            Some(qz_check::Code::QZ010)
        );
        assert!(rejected("check --explain QZ999"));
        assert!(rejected("check --explain"), "missing value");
    }

    #[test]
    fn verify_defaults_and_flags() {
        let v = ok("verify");
        assert_eq!(v.system, None, "no --system sweeps every preset");
        assert_eq!(v.device, Device::All);
        assert_eq!((v.events, v.seed, v.segment), (40, RUN_SEED, 60));
        assert!(v.json.is_none() && !v.deny_unproven);
        let v = ok(
            "verify --system QZ --device msp430 --env quiet --events 12 --seed 0xBEEF \
             --segment 30 --json v.json --deny-unproven",
        );
        assert_eq!(v.system, Some(BaselineKind::Quetzal));
        assert_eq!(v.device, Device::Msp430);
        assert_eq!(v.env, EnvironmentKind::Quiet);
        assert_eq!(v.events, 12);
        assert_eq!(v.seed, 0xBEEF);
        assert_eq!(v.segment, 30);
        assert!(v.json.as_deref() == Some("v.json") && v.deny_unproven);
    }

    #[test]
    fn verify_rejects_bad_input() {
        assert!(rejected("verify --device z80"));
        assert!(rejected("verify --events 0"));
        assert!(rejected("verify --segment 0"));
        assert!(rejected("verify --campaigns 4"), "fault-only");
        assert!(rejected("verify --plot"), "run-only flag");
    }

    #[test]
    fn json_takes_a_path_on_every_subcommand() {
        for sub in ["check", "verify", "fleet", "fault", "profile"] {
            let a = ok(&format!("{sub} --json out.json"));
            assert_eq!(a.json.as_deref(), Some("out.json"), "{sub}");
            assert_eq!(ok(&format!("{sub} --json -")).json.as_deref(), Some("-"));
            assert!(rejected(&format!("{sub} --json")), "{sub}: bare --json");
        }
    }

    #[test]
    fn run_solar_flags_and_repro_lines() {
        let r = ok("run");
        assert_eq!(r.solar, qz_absint::SolarMode::Trace);
        assert_eq!(r.solar_seg, 60);
        // The exact flag vocabulary a `qz verify` refutation prints.
        let r = ok(
            "run --system qz --device apollo4 --env crowded --events 40 \
                    --seed 0x134fd62 --solar floor --solar-seg 60",
        );
        assert_eq!(r.seed, 0x134_FD62);
        assert_eq!(r.solar, qz_absint::SolarMode::Floor);
        assert!(rejected("run --solar eclipse"));
        assert!(rejected("run --solar-seg 0"));
    }

    #[test]
    fn check_observation_period_flags() {
        // The state sample has one fixed 1 s cadence: there is no
        // period to declare to the checker.
        assert_unknown(&["check --telemetry-period 1", "check --snapshot-period 1"]);
    }

    #[test]
    fn fleet_defaults_and_flags() {
        let f = ok("fleet");
        assert_eq!(
            (f.devices, f.events, f.seed, f.gateways),
            (16, 40, 0xF1EE7, 1)
        );
        assert!(f.envs.is_empty() && f.threads == 1 && !f.metrics);
        let f = ok(
            "fleet --devices 64 --events 20 --seed 7 --system CN --device msp430 \
             --envs more,short --threads 8 --duty-cycle 0.2 --slot-ms 100 \
             --json out.json --csv - --metrics",
        );
        assert_eq!(f.devices, 64);
        assert_eq!(f.events, 20);
        assert_eq!(f.seed, 7);
        assert_eq!(f.system(), BaselineKind::CatNap);
        assert_eq!(f.device, Device::Msp430);
        assert_eq!(
            f.envs,
            vec![EnvironmentKind::MoreCrowded, EnvironmentKind::Short]
        );
        assert_eq!(f.threads, 8);
        assert_eq!(f.duty_cycle, Some(0.2));
        assert_eq!(f.slot_ms, Some(100));
        assert_eq!(f.json.as_deref(), Some("out.json"));
        assert_eq!(f.csv.as_deref(), Some("-"));
        assert!(f.metrics);
        assert_eq!(ok("fleet --seed 0x10").seed, 16, "hex like every seed");
    }

    #[test]
    fn fleet_parses_gateways_and_capture_period() {
        let f = ok("fleet --gateways 64 --capture-period 30");
        assert_eq!(f.gateways, 64);
        assert_eq!(f.capture_period, Some(30.0));
        let f = ok("fleet");
        assert_eq!(f.gateways, 1);
        assert_eq!(f.capture_period, None);
    }

    #[test]
    fn fleet_rejects_conflicting_stdout_streams() {
        assert!(rejected("fleet --json - --csv -"));
        assert!(!rejected("fleet --json - --csv out.csv"));
        assert!(!rejected("fleet --json out.json --csv -"));
    }

    #[test]
    fn fleet_rejects_bad_input() {
        assert!(rejected("fleet --devices 0"));
        assert!(rejected("fleet --envs"));
        assert!(rejected("fleet --envs mars"));
        assert!(rejected("fleet --envs ,"));
        assert!(rejected("fleet --duty-cycle -1"));
        assert!(rejected("fleet --slot-ms 0"));
        assert!(rejected("fleet --plot"), "run-only flag");
        assert!(rejected("fleet --gateways 0"));
        assert!(rejected("fleet --capture-period 0"));
        assert!(rejected("fleet --device all"));
    }

    #[test]
    fn fault_defaults_and_flags() {
        let f = ok("fault");
        assert_eq!(f.preset, "standard");
        assert_eq!(
            (f.events, f.campaigns, f.start, f.seed),
            (12, 8, 0, FAULT_SEED)
        );
        assert!(f.json.is_none() && f.postmortem.is_none());
        let f = ok(
            "fault --preset heavy --system QZ-HW --device msp430 --env more-crowded \
             --events 4 --campaigns 1 --seed 0xD1FF0002 --start 17 --threads 2 --json -",
        );
        assert_eq!(f.preset, "heavy");
        assert_eq!(f.system(), BaselineKind::QuetzalHw);
        assert_eq!(f.device, Device::Msp430);
        assert_eq!(f.env, EnvironmentKind::MoreCrowded);
        assert_eq!(f.events, 4);
        assert_eq!(f.campaigns, 1);
        assert_eq!(f.seed, 0xD1FF_0002);
        assert_eq!(f.start, 17);
        assert_eq!(f.threads, 2);
        assert_eq!(f.json.as_deref(), Some("-"));
    }

    #[test]
    fn fault_accepts_its_own_repro_lines() {
        // The exact flag vocabulary FaultReport::repro_line() emits.
        let f = ok(
            "fault --system qz --device apollo4 --env crowded --events 4 \
                    --preset standard --seed 0xd1ff0001 --start 3 --campaigns 1",
        );
        assert_eq!(f.seed, 0xD1FF_0001);
        assert_eq!(f.start, 3);
        assert_eq!(f.campaigns, 1);
    }

    #[test]
    fn fault_rejects_bad_input() {
        assert!(rejected("fault --preset catastrophic"));
        assert!(rejected("fault --campaigns 0"));
        assert!(rejected("fault --events 0"));
        assert!(rejected("fault --seed 0xnope"));
        assert!(rejected("fault --device z80"));
        assert!(rejected("fault --devices 4"), "fleet-only flag");
    }

    #[test]
    fn fault_postmortem_flag() {
        assert_eq!(
            ok("fault --postmortem dumps/").postmortem.as_deref(),
            Some("dumps/")
        );
        assert!(rejected("fault --postmortem"), "missing value");
    }

    #[test]
    fn fault_inject_at_and_snapshot_flags() {
        // The exact vocabulary a gated campaign's repro line emits.
        let f = ok(
            "fault --system qz --device apollo4 --env crowded --events 4 \
                    --preset heavy --seed 0xfa017 --start 1 --campaigns 1 --inject-at 15",
        );
        assert_eq!(f.inject_at, 15);
        assert_eq!(f.start, 1);
        assert_unknown(&["fault --snapshot-ring 8", "fault --snapshot-stride 30"]);
        assert!(rejected("fault --inject-at soon"));
    }

    #[test]
    fn run_snapshot_ring_flags() {
        // Rollback rings belong to `qz bisect --stride/--ring`; `qz run`
        // keeps none.
        assert_unknown(&["run --snapshot-ring 16", "run --snapshot-stride 5"]);
    }

    #[test]
    fn branch_defaults_and_flags() {
        let b = ok("branch");
        assert_eq!((b.events, b.seed, b.at), (40, RUN_SEED, 60));
        assert!(!b.fork_no_pid && b.fork_checkpoint.is_none());
        let b = ok(
            "branch --system QZ --device msp430 --env quiet --events 20 --seed 0xBEEF \
             --at 90 --fork-no-pid --fork-no-sticky \
             --fork-checkpoint task-boundary --fork-capture-period 2",
        );
        assert_eq!(b.device, Device::Msp430);
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
        assert!(rejected("branch --events 0"));
        assert!(rejected("branch --at never"));
        assert!(rejected("branch --fork-capture-period 0"));
        assert!(rejected("branch --campaigns 4"), "fault-only");
    }

    #[test]
    fn bisect_defaults_and_flags() {
        let b = ok("bisect");
        assert_eq!(b.preset, "standard");
        assert_eq!(
            (b.events, b.seed, b.stride, b.ring),
            (12, FAULT_SEED, 10, 64)
        );
        let b = ok(
            "bisect --preset heavy --system QZ --device apollo4 --env crowded \
             --events 4 --seed 0xFA017 --start 3 --inject-at 15 \
             --stride 5 --ring 16",
        );
        assert_eq!(b.preset, "heavy");
        assert_eq!(b.events, 4);
        assert_eq!(b.start, 3);
        assert_eq!(b.inject_at, 15);
        assert_eq!(b.stride, 5);
        assert_eq!(b.ring, 16);
    }

    #[test]
    fn bisect_rejects_bad_input() {
        assert!(rejected("bisect --preset catastrophic"));
        assert!(rejected("bisect --stride 0"));
        assert!(rejected("bisect --ring 0"));
        assert!(rejected("bisect --campaigns 4"), "fault-only");
    }

    #[test]
    fn profile_defaults_and_flags() {
        let p = ok("profile");
        assert_eq!(
            (p.events, p.seed, p.device),
            (200, RUN_SEED, Device::Apollo4)
        );
        assert!(p.json.is_none() && p.flame.is_none() && p.flight.is_none());
        let p = ok(
            "profile --system CN --device msp430 --env quiet --events 50 --seed 0xBEEF \
             --json - --flame out.folded --flight dump.json",
        );
        assert_eq!(p.system(), BaselineKind::CatNap);
        assert_eq!(p.device, Device::Msp430);
        assert_eq!(p.env, EnvironmentKind::Quiet);
        assert_eq!(p.events, 50);
        assert_eq!(p.seed, 0xBEEF);
        assert_eq!(p.json.as_deref(), Some("-"));
        assert_eq!(p.flame.as_deref(), Some("out.folded"));
        assert_eq!(p.flight.as_deref(), Some("dump.json"));
    }

    #[test]
    fn profile_rejects_bad_input() {
        assert!(rejected("profile --events 0"));
        assert!(rejected("profile --device z80"));
        assert!(rejected("profile --campaigns 4"), "fault-only");
    }

    #[test]
    fn bench_defaults_and_flags() {
        let b = ok("bench");
        assert!(!b.check);
        assert_eq!(
            (b.results_dir.as_str(), b.baseline.as_deref()),
            ("results", None)
        );
        let b = ok("bench --check --results-dir out --baseline floor.json");
        assert!(b.check);
        assert_eq!(b.results_dir, "out");
        assert_eq!(b.baseline.as_deref(), Some("floor.json"));
        assert!(rejected("bench --wat"));
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
        assert!(rejected("run --events nope"));
        assert!(rejected("run --device z80"));
        assert!(rejected("run --device all"), "only check and verify sweep");
        assert!(rejected("run --system"), "missing value");
        assert!(rejected("frobnicate"));
        assert!(rejected("run --wat 1"));
    }

    #[test]
    fn events_zero_is_rejected_everywhere() {
        for sub in SUBCOMMANDS {
            // `qz figure` needs a figure before it runs at all.
            let line = match sub.name {
                "figure" => "figure --name fig03_naive",
                name => name,
            };
            if sub.flags.iter().any(|f| f.name == "--events") {
                assert!(rejected(&format!("{line} --events 0")), "{line}");
                assert_eq!(ok(&format!("{line} --events 1")).events, 1);
            }
        }
    }

    #[test]
    fn figure_defaults_to_the_named_figures_scale() {
        let f = ok("figure --name fig08_hardware");
        assert_eq!(f.figure.map(|f| f.name), Some("fig08_hardware"));
        assert_eq!(f.events, 100);
        assert_eq!(ok("figure --name fig14_params").events, 300);
        assert_eq!(ok("figure --name fig03_naive").events, 400);
        // --events wins, before or after --name.
        assert_eq!(ok("figure --name fig08_hardware --events 60").events, 60);
        assert_eq!(ok("figure --events 60 --name fig08_hardware").events, 60);
    }

    #[test]
    fn figure_rejects_bad_input() {
        assert!(rejected("figure"), "no --name");
        assert!(rejected("figure --events 60"), "no --name");
        assert!(rejected("figure --name fig99"));
        assert!(rejected("figure --name"), "missing value");
        assert!(rejected("figure --name fig03_naive --events nope"));
        assert!(rejected("figure --name fig03_naive --events 0"));
        for foreign in ["--quick", "--seed 7", "--threads 2", "--system NA"] {
            let e = parse(&argv(&format!("figure --name fig03_naive {foreign}"))).unwrap_err();
            assert!(e.0.contains("unknown flag"), "{foreign}: {e}");
        }
    }

    #[test]
    fn every_figure_name_parses_and_names_are_unique() {
        for (i, figure) in qz_bench::FIGURES.iter().enumerate() {
            let f = ok(&format!("figure --name {}", figure.name));
            assert_eq!(f.figure, Some(figure));
            match figure.events {
                Some(events) => {
                    assert_eq!(f.events, events);
                    assert!(events > 0, "{}", figure.name);
                }
                None => assert!(
                    rejected(&format!("figure --name {} --events 5", figure.name)),
                    "{} takes no --events",
                    figure.name
                ),
            }
            assert!(
                qz_bench::FIGURES[i + 1..]
                    .iter()
                    .all(|g| g.name != figure.name),
                "{} listed twice",
                figure.name
            );
        }
        assert!(help().contains(" diagnose\n"), "help lists the figures");
    }

    #[test]
    fn each_table_lists_a_flag_once() {
        for sub in SUBCOMMANDS {
            for (i, f) in sub.flags.iter().enumerate() {
                assert!(f.name.starts_with("--"), "{}", f.name);
                assert!(
                    sub.flags[i + 1..].iter().all(|g| g.name != f.name),
                    "`qz {}` lists {} twice",
                    sub.name,
                    f.name
                );
            }
        }
    }

    #[test]
    fn help_documents_the_fleet_scheduler_surface() {
        // The discoverability contract: every fleet scheduling knob the
        // parser accepts is advertised, and the help names the one
        // production scheduler.
        let help = help();
        assert!(help.contains("[--gateways 1] [--capture-period 1]"));
        assert!(help.contains("The event-horizon\nscheduler wakes only due devices"));
    }

    #[test]
    fn help_and_unknown_command_name_every_subcommand_and_environment() {
        let help = help();
        let unknown = parse(&argv("frobnicate")).unwrap_err().0;
        for sub in SUBCOMMANDS {
            assert!(
                help.contains(&format!("\n  qz {} ", sub.name)),
                "{}",
                sub.name
            );
            assert!(unknown.contains(&format!(" {},", sub.name)), "{}", sub.name);
            for flag in sub.flags {
                assert!(help.contains(&format!("[{}", flag.name)), "{}", flag.name);
            }
        }
        for env in EnvironmentKind::ALL {
            assert!(help.contains(env.token()), "{env}");
        }
        assert!(help.lines().all(|l| l.chars().count() <= 80));
    }

    /// Every `qz …` command line in the docs and the CI script, with
    /// where it came from. Handles `\` continuations (also inside `#`
    /// comments), the `cargo run … --bin qz --` / `-p qz-cli --` and
    /// `repro: qz` prefixes, `VAR=…` prefixes, and `for VAR in a b`
    /// loop variables (expanded to their first value). A line whose
    /// argv is itself a shell expansion is computed at run time and
    /// skipped.
    fn documented_commands() -> Vec<(String, Vec<String>)> {
        let docs = [
            ("README.md", include_str!("../../../README.md")),
            ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
            ("ci.sh", include_str!("../../../ci.sh")),
        ];
        let mut found = Vec::new();
        for (file, text) in docs {
            let mut loops: Vec<(String, String)> = Vec::new();
            let mut fenced = file == "ci.sh";
            let mut lines = text.lines();
            while let Some(first) = lines.next() {
                let mut line = first.to_string();
                while line.ends_with('\\') {
                    line.pop();
                    let next = lines.next().unwrap_or_default().trim_start();
                    line.push_str(next.trim_start_matches('#'));
                }
                if line.starts_with("```") {
                    fenced = !fenced;
                    continue;
                }
                let words: Vec<&str> = line.split_whitespace().collect();
                if let ["for", var, "in", value, ..] = words[..] {
                    loops.push((format!("${{{var}}}"), value.trim_matches('"').to_string()));
                }
                let assignment = |w: &&str| {
                    w.split_once('=').is_some_and(|(k, _)| {
                        !k.is_empty() && k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                    })
                };
                let start = words
                    .windows(3)
                    .position(|w| matches!(w, ["--bin", "qz", "--"] | ["-p", "qz-cli", "--"]))
                    .map(|i| i + 3)
                    .or_else(|| {
                        words
                            .windows(2)
                            .position(|w| w == ["repro:", "qz"])
                            .map(|i| i + 2)
                    })
                    .or_else(|| {
                        let i = words.iter().position(|w| !assignment(w))?;
                        (fenced && words[i] == "qz").then_some(i + 1)
                    });
                let Some(start) = start else { continue };
                let mut argv = Vec::new();
                for word in &words[start..] {
                    if ["#", ">", "2>", "|", ";", "&&", "<<<"]
                        .iter()
                        .any(|op| word.starts_with(op))
                    {
                        break;
                    }
                    let closes = word.ends_with(')');
                    let mut word = word.trim_end_matches(')').trim_matches('"').to_string();
                    for (var, value) in &loops {
                        word = word.replace(var.as_str(), value);
                    }
                    argv.push(word);
                    if closes {
                        break;
                    }
                }
                if argv.first().is_some_and(|w| !w.starts_with('$')) {
                    found.push((format!("{file}: {line}"), argv));
                }
            }
        }
        found
    }

    #[test]
    fn documented_command_lines_parse() {
        let commands = documented_commands();
        assert!(
            commands.len() >= 40,
            "found only {} commands",
            commands.len()
        );
        for (source, argv) in &commands {
            if let Err(e) = parse(argv) {
                panic!("{source}\n  argv {argv:?}\n  {e}");
            }
        }
    }

    fn flag_names() -> Vec<&'static str> {
        let mut names: Vec<&str> = SUBCOMMANDS
            .iter()
            .flat_map(|s| s.flags.iter().map(|f| f.name))
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        #[test]
        fn parse_is_total_on_random_argv(
            picks in proptest::collection::vec((0usize..1000, 0usize..1000), 0..12)
        ) {
            let subs: Vec<&str> = SUBCOMMANDS.iter().map(|s| s.name).collect();
            let flags = flag_names();
            let values = [
                "", "0", "1", "-1", "0x", "0x10", "1e999", "nan", "inf", "-", "all",
                "apollo4", "msp430", "qz", "burst", "more,,less", ",", "periodic:",
                "periodic:0", "QZ011", "heavy", "floor", "18446744073709551616", "é",
            ];
            let argv: Vec<String> = picks
                .iter()
                .enumerate()
                .map(|(i, &(kind, n))| match (i, kind % 3) {
                    (0, _) => subs[n % subs.len()].to_string(),
                    (_, 0) => flags[n % flags.len()].to_string(),
                    (_, 1) => values[n % values.len()].to_string(),
                    _ => format!("--{n}"),
                })
                .collect();
            // Any outcome is fine; reaching it without a panic is the property.
            let _ = parse(&argv);
        }
    }
}
