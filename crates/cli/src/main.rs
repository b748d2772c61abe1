//! `qz` — the Quetzal experiment command line.
//!
//! ```text
//! qz run --system QZ --env crowded --events 200 --telemetry run.csv
//! qz compare --env more-crowded
//! qz figure --name fig09_vs_nonadaptive --events 100
//! qz export-traces --env crowded --out-dir traces/
//! qz trace --system QZ --env crowded --events 50 --jsonl run.jsonl
//! ```

mod args;
mod plot;

use args::{Args, Command, Device};
use qz_absint::{
    decide, interpret, AbsModel, ConcreteObservation, HarvestEnvelope, Property, SolarMode, Verdict,
};
use qz_app::{
    apollo4, check_experiment, experiment_configs, ideal, msp430fr5994, simulate, simulate_traced,
    simulate_with_telemetry, timeline_names, AppModel, DeviceProfile, SimTweaks,
};
use qz_baselines::BaselineKind;
use qz_sim::Metrics;
use qz_traces::SensingEnvironment;
use qz_types::json::{DecimalU64, Writer};
use qz_types::{Farads, Seconds, SimDuration, SimTime};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match args::parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", args::help());
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        Command::Help => {
            print!("{}", args::help());
            Ok(())
        }
        Command::Run(r) => run_one(&r),
        Command::Compare(r) => compare(&r),
        Command::Figure(f) => {
            // The parser only builds a `figure` command with its --name.
            let figure = f.figure.expect("`qz figure` parses with --name");
            (figure.run)(f.events);
            Ok(())
        }
        Command::ExportTraces(r) => export_traces(&r),
        Command::Trace(r) => trace(&r),
        Command::Check(c) => return check(&c),
        Command::Verify(v) => return verify(&v),
        Command::Fleet(f) => fleet(&f),
        Command::Fault(f) => return fault(&f),
        Command::Branch(b) => branch(&b),
        Command::Bisect(b) => return bisect(&b),
        Command::Profile(p) => profile(&p),
        Command::Bench(b) => return bench(&b),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The profile a `--device` names; `all` only reaches [`sweep`].
fn device_profile(device: Device) -> DeviceProfile {
    match device {
        Device::Msp430 => msp430fr5994(),
        Device::Apollo4 | Device::All => apollo4(),
    }
}

/// The systems and device profiles `qz check` and `qz verify` cover:
/// every preset and both devices unless narrowed.
fn sweep(args: &Args) -> (Vec<BaselineKind>, Vec<DeviceProfile>) {
    let systems = args
        .system
        .map_or_else(|| BaselineKind::PRESETS.to_vec(), |k| vec![k]);
    let profiles = match args.device {
        Device::All => vec![apollo4(), msp430fr5994()],
        d => vec![device_profile(d)],
    };
    (systems, profiles)
}

/// The `--threads` crew of `fleet` and `fault`.
fn executor(args: &Args) -> qz_fleet::Executor {
    qz_fleet::Executor::new(match args.threads {
        0 => qz_fleet::Executor::available(),
        n => n,
    })
}

fn environment(args: &Args) -> SensingEnvironment {
    let env = SensingEnvironment::generate(args.env, args.events, args.seed);
    solar_corner(env, args.solar, args.solar_seg)
}

/// Swaps the realized solar trace for an envelope corner (`--solar
/// floor|ceil`); the trace mode returns the environment untouched.
fn solar_corner(env: SensingEnvironment, mode: SolarMode, segment_secs: u64) -> SensingEnvironment {
    let envelope = match mode {
        SolarMode::Trace => return env,
        SolarMode::Floor | SolarMode::Ceil => {
            HarvestEnvelope::from_trace(env.solar(), segment_secs)
        }
    };
    let solar = match mode {
        SolarMode::Floor => envelope.floor_trace(),
        _ => envelope.ceil_trace(),
    };
    SensingEnvironment::with_parts(env.kind(), env.events().clone(), solar)
}

fn tweaks_for(args: &Args) -> SimTweaks {
    SimTweaks {
        seed: args.seed,
        ..SimTweaks::default()
    }
}

fn print_metrics(label: &str, m: &Metrics) {
    println!("{label}:");
    println!(
        "  interesting: {} seen | {} discarded ({} IBO, {} misclassified, {} missed)",
        m.interesting_total,
        m.interesting_discarded(),
        m.ibo_interesting,
        m.false_negatives,
        m.interesting_missed_off,
    );
    println!(
        "  reports: {} high + {} low quality ({:.1}% high)",
        m.reports_interesting_high,
        m.reports_interesting_low,
        m.high_quality_fraction() * 100.0
    );
    println!(
        "  device: {} jobs ({} degraded) | {} power failures | off {:.1}% | mean occupancy {:.2}",
        m.total_jobs(),
        m.degraded_jobs(),
        m.power_failures,
        m.off_fraction() * 100.0,
        m.mean_occupancy(),
    );
}

/// Writes a `--json` document to `path`, or to stdout for `-`.
fn write_json(path: &str, doc: &str, what: &str) -> std::io::Result<()> {
    if path == "-" {
        print!("{doc}");
    } else {
        std::fs::write(path, doc)?;
        println!("{what} written to {path}");
    }
    Ok(())
}

fn check(args: &Args) -> ExitCode {
    if let Some(code) = args.explain {
        println!("{code}: {}", code.summary());
        println!("typical severity: {}", code.typical_severity());
        println!("\nrationale:\n  {}", code.rationale());
        println!("\nfix:\n  {}", code.fix_hint());
        return ExitCode::SUCCESS;
    }
    let (systems, profiles) = sweep(args);
    let mut tweaks = SimTweaks::default();
    if let Some(mf) = args.cap_mf {
        tweaks.supercap_capacitance = Some(Farads(mf * 1e-3));
    }
    if let Some(policy) = args.checkpoint {
        tweaks.checkpoint_policy = policy;
    }
    if let Some(cells) = args.cells {
        tweaks.harvester_cells = cells;
    }
    if let Some(capacity) = args.buffer {
        tweaks.buffer_capacity = capacity;
    }
    if let Some(secs) = args.capture_period {
        tweaks.capture_period = SimDuration::from_seconds_ceil(Seconds(secs));
    }

    let mut failed = false;
    let mut json_entries = Vec::new();
    for profile in &profiles {
        for &kind in &systems {
            let mut report = check_experiment(kind, profile, &tweaks);
            report.allow(&args.allow);
            report.tag_source("sweep");
            failed |= report.fails(args.deny_warnings);
            if args.json.is_some() {
                json_entries.push((kind, profile.name, report));
            } else {
                println!("{} on {}:", kind.label(), profile.name);
                for line in report.render_text().lines() {
                    println!("  {line}");
                }
                println!();
            }
        }
    }
    if let Some(path) = &args.json {
        let mut out = String::new();
        Writer::new(&mut out).arr(|w| {
            for (kind, device, report) in &json_entries {
                w.obj(|w| {
                    w.field("system", kind.label())
                        .field("device", device)
                        .field("report", report);
                });
            }
        });
        out.push('\n');
        if let Err(e) = write_json(path, &out, "JSON report") {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    } else if failed {
        println!(
            "FAILED{}",
            if args.deny_warnings {
                " (warnings denied)"
            } else {
                ""
            }
        );
    } else {
        println!("OK");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn verdict_json(w: &mut Writer<'_>, v: &Verdict, repro: &dyn Fn(SolarMode) -> String) {
    w.obj(|w| match v {
        Verdict::Proven => {
            w.field("verdict", "PROVEN");
        }
        Verdict::Refuted { mode } => {
            w.field("verdict", "REFUTED")
                .field("mode", mode.token())
                .field("repro", repro(*mode));
        }
        Verdict::Unknown { blocking } => {
            w.field("verdict", "UNKNOWN").field("blocking", blocking);
        }
    });
}

fn verdict_text(v: &Verdict, repro: &dyn Fn(SolarMode) -> String) -> String {
    match v {
        Verdict::Proven => {
            String::from("PROVEN (holds for every harvest realization inside the envelope)")
        }
        Verdict::Refuted { mode } => format!(
            "REFUTED ({}-corner witness)\n    repro: {}",
            mode.token(),
            repro(*mode)
        ),
        Verdict::Unknown { blocking } => format!("UNKNOWN ({blocking})"),
    }
}

/// The `qz run` line reproducing a refuted verdict's corner run.
fn verify_repro(
    args: &Args,
    kind: BaselineKind,
    profile: &DeviceProfile,
    mode: SolarMode,
) -> String {
    format!(
        "qz run --system {} --device {} --env {} --events {} --seed {:#x} --solar {} \
         --solar-seg {}",
        kind.token(),
        qz_fault::cli_device_token(profile.name),
        args.env.token(),
        args.events,
        args.seed,
        mode.token(),
        args.segment,
    )
}

/// The `qz profile` line a flight-recorder dump carries.
fn profile_repro(args: &Args, device: &DeviceProfile) -> String {
    format!(
        "qz profile --system {} --device {} --env {} --events {} --seed {:#x}",
        args.system().token(),
        qz_fault::cli_device_token(device.name),
        args.env.token(),
        args.events,
        args.seed,
    )
}

fn verify(args: &Args) -> ExitCode {
    let (systems, profiles) = sweep(args);
    let tweaks = SimTweaks {
        seed: args.seed,
        ..SimTweaks::default()
    };
    let base_env = SensingEnvironment::generate(args.env, args.events, args.seed);
    let envelope = HarvestEnvelope::from_trace(base_env.solar(), args.segment);

    let mut failed = false;
    let mut json_entries = Vec::new();
    for profile in &profiles {
        for &kind in &systems {
            // Static preflight first: its findings merge with the
            // engine's under per-path sources, and a QZ031-invalid
            // config means the abstract model is not constructible.
            let mut report = check_experiment(kind, profile, &tweaks);
            report.tag_source("preflight");
            let (app, _qcfg, cfg) = experiment_configs(kind, profile, &tweaks);
            let invalid = report.diagnostics().iter().any(|d| {
                d.code == qz_check::Code::QZ031 && d.severity == qz_check::Severity::Error
            });
            let (no_overflow, no_stall) = if invalid {
                let blocking =
                    String::from("config invalid (QZ031); the abstract model is not constructible");
                (
                    Verdict::Unknown {
                        blocking: blocking.clone(),
                    },
                    Verdict::Unknown { blocking },
                )
            } else {
                let model = AbsModel::new(&app.spec, &cfg.device, &cfg.power);
                let run = interpret(&model, &envelope, base_env.events(), cfg.drain.as_millis());
                // The directed search shares one observation cache
                // across both properties (three corner runs at most).
                let mut cache: [Option<ConcreteObservation>; 3] = [None; 3];
                let mut observe = |mode: SolarMode| {
                    let slot = mode as usize;
                    if cache[slot].is_none() {
                        let cenv = solar_corner(base_env.clone(), mode, args.segment);
                        let m = simulate(kind, profile, &cenv, &tweaks);
                        cache[slot] = Some(ConcreteObservation::from_metrics(&m));
                    }
                    cache[slot]
                };
                (
                    decide(&run, Property::Overflow, &mut observe),
                    decide(&run, Property::Stall, &mut observe),
                )
            };
            let repro = |mode: SolarMode| verify_repro(args, kind, profile, mode);
            // Refutations re-emit the stable heuristic codes with the
            // engine's evidence; merge_from deduplicates any finding
            // both paths produced identically.
            let mut engine_report = qz_check::Report::new();
            if let Verdict::Refuted { mode } = &no_overflow {
                engine_report.push(
                    qz_check::Code::QZ010,
                    qz_check::Severity::Error,
                    qz_check::Span::default(),
                    format!(
                        "no-overflow refuted under the harvest envelope: the {}-corner run \
                         discarded frames to input-buffer overflow; repro: {}",
                        mode.token(),
                        repro(*mode)
                    ),
                );
            }
            if let Verdict::Refuted { mode } = &no_stall {
                engine_report.push(
                    qz_check::Code::QZ001,
                    qz_check::Severity::Error,
                    qz_check::Span::default(),
                    format!(
                        "no-stall refuted under the harvest envelope: the {}-corner run \
                         power-failed without completing a single report; repro: {}",
                        mode.token(),
                        repro(*mode)
                    ),
                );
            }
            report.merge_from("verify", engine_report);

            failed |= matches!(no_overflow, Verdict::Refuted { .. })
                || matches!(no_stall, Verdict::Refuted { .. });
            if args.deny_unproven {
                failed |= !(no_overflow.is_proven() && no_stall.is_proven());
            }

            if args.json.is_some() {
                json_entries.push((kind, profile, no_overflow, no_stall, report));
            } else {
                println!("{} on {}:", kind.label(), profile.name);
                println!("  no-overflow: {}", verdict_text(&no_overflow, &repro));
                println!("  no-stall:    {}", verdict_text(&no_stall, &repro));
                if !report.is_empty() {
                    for line in report.render_text().lines() {
                        println!("  {line}");
                    }
                }
                println!();
            }
        }
    }
    if let Some(path) = &args.json {
        let mut out = String::new();
        Writer::new(&mut out).obj(|w| {
            w.field("tool", "qz-verify").key("configs").arr(|w| {
                for (kind, profile, no_overflow, no_stall, report) in &json_entries {
                    let repro = |mode: SolarMode| verify_repro(args, *kind, profile, mode);
                    w.obj(|w| {
                        w.field("system", kind.label())
                            .field("device", profile.name)
                            .field("env", args.env.token())
                            .field("events", args.events)
                            .field("seed", DecimalU64(args.seed))
                            .field("segment_secs", args.segment)
                            .key("verdicts")
                            .obj(|w| {
                                verdict_json(w.key("overflow"), no_overflow, &repro);
                                verdict_json(w.key("stall"), no_stall, &repro);
                            })
                            .field("report", report);
                    });
                }
            });
        });
        out.push('\n');
        if let Err(e) = write_json(path, &out, "JSON report") {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    } else if failed {
        println!(
            "FAILED{}",
            if args.deny_unproven {
                " (unproven denied)"
            } else {
                ""
            }
        );
    } else {
        println!("OK");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn fault(args: &Args) -> ExitCode {
    // The parser already vetted the preset name.
    let Some(plan) = qz_fault::FaultPlan::preset(&args.preset) else {
        eprintln!("error: unknown fault preset `{}`", args.preset);
        return ExitCode::FAILURE;
    };
    let cfg = qz_fault::CampaignConfig {
        system: args.system(),
        profile: device_profile(args.device),
        env: args.env,
        events: args.events,
        campaigns: args.campaigns,
        start: args.start,
        seed: args.seed,
        plan,
        injection_at: SimDuration::from_secs(args.inject_at),
        tweaks: SimTweaks::default(),
    };
    let exec = executor(args);
    // Surface survivability warnings even when the campaigns proceed;
    // errors come back through run_campaigns as FaultError::Infeasible.
    let preflight = qz_fault::preflight(&cfg);
    if !preflight.is_empty() && !preflight.has_errors() {
        eprintln!("{}", preflight.render_text());
    }
    eprintln!(
        "fault: {} campaigns × {} events, preset `{}` for {} on {} ({} threads)",
        cfg.campaigns,
        cfg.events,
        args.preset,
        cfg.system.label(),
        cfg.profile.name,
        exec.threads()
    );
    let report = match qz_fault::run_campaigns(&cfg, exec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", report.render_text());
    if let Some(path) = &args.json {
        if let Err(e) = write_json(path, &report.to_json(), "JSON report") {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(dir) = &args.postmortem {
        match qz_fault::write_postmortems(&cfg, &report, std::path::Path::new(dir)) {
            Ok(paths) if paths.is_empty() => {
                println!("no violations: no postmortems written to {dir}");
            }
            Ok(paths) => {
                for p in &paths {
                    println!("postmortem written to {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if report.total_violations() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn branch(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let profile = device_profile(args.device);
    let env = SensingEnvironment::generate(args.env, args.events, args.seed);
    let base = SimTweaks {
        seed: args.seed,
        ..SimTweaks::default()
    };
    let mut fork = base.clone();
    if args.fork_no_pid {
        fork.pid_enabled = false;
    }
    if args.fork_no_sticky {
        fork.sticky_options = false;
    }
    if let Some(policy) = args.fork_checkpoint {
        fork.checkpoint_policy = policy;
    }
    if let Some(secs) = args.fork_capture_period {
        fork.capture_period = SimDuration::from_seconds_ceil(Seconds(secs));
    }
    let identity = fork == base;
    println!(
        "branching {} on {} in {} at t={}s ({} events, seed {}){}\n",
        args.system().label(),
        profile.name,
        env.kind(),
        args.at,
        args.events,
        args.seed,
        if identity {
            " — identity fork (self-check)"
        } else {
            ""
        },
    );
    let report = qz_snap::branch(
        args.system(),
        &profile,
        &env,
        &base,
        &fork,
        SimTime::from_secs(args.at),
    )?;
    print!("{}", report.render_text());
    if identity && report.first_divergence.is_some() {
        return Err("identity fork diverged: the snapshot contract is broken".into());
    }
    println!();
    print_metrics("base", &report.base_metrics);
    print_metrics("fork", &report.fork_metrics);
    Ok(())
}

fn bisect(args: &Args) -> ExitCode {
    let Some(plan) = qz_fault::FaultPlan::preset(&args.preset) else {
        eprintln!("error: unknown fault preset `{}`", args.preset);
        return ExitCode::FAILURE;
    };
    let cfg = qz_fault::CampaignConfig {
        system: args.system(),
        profile: device_profile(args.device),
        env: args.env,
        events: args.events,
        campaigns: 1,
        start: args.start,
        seed: args.seed,
        plan,
        injection_at: SimDuration::from_secs(args.inject_at),
        tweaks: SimTweaks::default(),
    };
    let preflight = qz_fault::preflight(&cfg);
    if preflight.has_errors() {
        eprintln!("{}", preflight.render_text());
        return ExitCode::FAILURE;
    }
    if !preflight.is_empty() {
        eprintln!("{}", preflight.render_text());
    }
    eprintln!(
        "bisect: campaign {} of preset `{}` for {} on {} (stride {}s, ring {})",
        args.start,
        args.preset,
        cfg.system.label(),
        cfg.profile.name,
        args.stride,
        args.ring,
    );
    let bc = qz_fault::BisectConfig {
        stride: SimDuration::from_secs(args.stride),
        capacity: args.ring,
    };
    match qz_fault::bisect_campaign(&cfg, 0, &bc) {
        Ok(report) => {
            print!("{}", report.render_text());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn profile(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let device = device_profile(args.device);
    let env = SensingEnvironment::generate(args.env, args.events, args.seed);
    let tweaks = SimTweaks {
        seed: args.seed,
        ..SimTweaks::default()
    };
    let repro = profile_repro(args, &device);
    println!(
        "profiling {} on {} in {} ({} events, seed {}, {} engine)\n",
        args.system().label(),
        device.name,
        env.kind(),
        args.events,
        args.seed,
        tweaks.engine.label(),
    );
    let flight_meta = args.flight.as_ref().map(|_| qz_prof::FlightMeta {
        source: String::from("qz profile flight recorder"),
        repro: repro.clone(),
    });
    // Arm early so a mid-run panic still ships the repro line; the
    // post-run dump below carries the full ring.
    if let (Some(path), Some(meta)) = (&args.flight, &flight_meta) {
        qz_prof::arm_panic_dump(path.into(), meta.clone(), None);
    }
    let run = qz_app::profile_run(args.system(), &device, &env, &tweaks, flight_meta);
    let ranking = run.horizon.ranking(Some(&run.spans));
    println!("{}", ranking.render());
    println!("{}", run.kernel.render_line());
    println!("{}", run.report.render_text());
    #[allow(clippy::cast_precision_loss)] // display only
    let wall_ms = run.wall_ns as f64 / 1e6;
    println!("wall clock: {wall_ms:.2} ms");
    println!();
    print_metrics(&args.system().label(), &run.metrics);
    if let Some(path) = &args.json {
        let mut doc = String::new();
        Writer::new(&mut doc).obj(|w| {
            w.field("tool", "qz-prof")
                .field("repro", &repro)
                .field("wall_ns", run.wall_ns)
                .field("profile", &run.report)
                .field("horizon", ranking)
                .field("kernel", run.kernel);
        });
        write_json(path, &doc, "profile JSON")?;
    }
    if let Some(path) = &args.flame {
        std::fs::write(path, run.report.render_folded())?;
        println!("collapsed stacks written to {path}");
    }
    if let Some(path) = &args.flight {
        if let Some(handle) = &run.flight {
            std::fs::write(path, handle.dump_json(None))?;
            println!("flight-recorder dump written to {path}");
        }
        qz_prof::disarm_panic_dump();
    }
    Ok(())
}

fn bench(args: &Args) -> ExitCode {
    let dir = std::path::Path::new(&args.results_dir);
    if !args.check {
        return bench_list(dir);
    }
    let baseline_path = args
        .baseline
        .as_ref()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| dir.join("BENCH_baseline.json"));
    let baseline = match qz_prof::Baseline::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = baseline.check(|bench| {
        let path = dir.join(format!("BENCH_{bench}.json"));
        match qz_prof::Trajectory::load(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {e}");
                None
            }
        }
    });
    for line in &outcome.lines {
        println!("{line}");
    }
    if outcome.failures > 0 {
        println!(
            "FAILED: {} of {} baseline check(s) regressed",
            outcome.failures,
            baseline.checks.len()
        );
        ExitCode::FAILURE
    } else {
        println!("OK: {} baseline check(s) hold", baseline.checks.len());
        ExitCode::SUCCESS
    }
}

/// `qz bench` without `--check`: print every committed trajectory.
fn bench_list(dir: &std::path::Path) -> ExitCode {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    let mut names: Vec<String> = entries
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json") && n != "BENCH_baseline.json")
        .collect();
    names.sort();
    if names.is_empty() {
        println!("no BENCH_*.json trajectories in {}", dir.display());
        return ExitCode::SUCCESS;
    }
    for name in &names {
        let path = dir.join(name);
        match qz_prof::Trajectory::load(&path) {
            Ok(Some(t)) => {
                let newest = t.newest();
                println!(
                    "{}: {} run(s){}",
                    t.bench,
                    t.records.len(),
                    newest
                        .map(|r| format!(", newest run {} @ {}", r.run, r.git_rev))
                        .unwrap_or_default(),
                );
                if let Some(r) = newest {
                    for case in &r.cases {
                        let vals: Vec<String> = case
                            .values
                            .iter()
                            .map(|(k, v)| format!("{k} {v}"))
                            .collect();
                        println!("  {}: {}", case.name, vals.join(", "));
                    }
                }
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn fleet(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = qz_fleet::FleetConfig {
        devices: args.devices,
        events: args.events,
        fleet_seed: args.seed,
        system: args.system(),
        profile: device_profile(args.device),
        ..qz_fleet::FleetConfig::default()
    };
    if !args.envs.is_empty() {
        cfg.env_mix = args.envs.clone();
    }
    if let Some(duty) = args.duty_cycle {
        cfg.uplink.duty_cycle = duty;
    }
    if let Some(ms) = args.slot_ms {
        cfg.uplink.slot = SimDuration::from_millis(ms);
    }
    if let Some(period) = args.capture_period {
        cfg.tweaks.capture_period = SimDuration::from_seconds_ceil(qz_types::Seconds(period));
    }
    cfg.gateways = args.gateways;
    let exec = executor(args);

    // Surface preflight warnings even when the run proceeds; errors
    // come back through run_fleet as FleetError::Infeasible.
    let preflight = qz_fleet::preflight(&cfg);
    if !preflight.is_empty() && !preflight.has_errors() {
        eprintln!("{}", preflight.render_text());
    }
    eprintln!(
        "fleet: {} devices × {} events on {} ({} threads, {} scheduler, {} gateway{})",
        cfg.devices,
        cfg.events,
        cfg.profile.name,
        exec.threads(),
        cfg.scheduler.label(),
        cfg.gateways,
        if cfg.gateways == 1 { "" } else { "s" }
    );
    let report = qz_fleet::run_fleet(&cfg, exec)?;
    println!("{}", report.render_text());
    if args.metrics {
        println!("{}", report.registry().render());
    }
    if let Some(path) = &args.json {
        write_json(path, &report.to_json(), "JSON report")?;
    }
    if let Some(path) = &args.csv {
        let doc = report.to_csv();
        if path == "-" {
            print!("{doc}");
        } else {
            std::fs::write(path, &doc)?;
            println!("per-device CSV written to {path}");
        }
    }
    Ok(())
}

fn run_one(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let profile = device_profile(args.device);
    let env = environment(args);
    let tweaks = tweaks_for(args);
    println!(
        "running {} on {} in {} ({} events, seed {})\n",
        args.system().label(),
        profile.name,
        env.kind(),
        args.events,
        args.seed
    );
    if args.telemetry.is_some() || args.plot {
        let (m, telemetry) = simulate_with_telemetry(args.system(), &profile, &env, &tweaks);
        print_metrics(&args.system().label(), &m);
        if args.plot {
            println!("\n{}", plot::telemetry_panel(&telemetry, 72));
        }
        if let Some(path) = &args.telemetry {
            let file = std::fs::File::create(path)?;
            telemetry.write_csv(std::io::BufWriter::new(file))?;
            println!("telemetry ({telemetry}) written to {path}");
        }
    } else {
        let m = simulate(args.system(), &profile, &env, &tweaks);
        print_metrics(&args.system().label(), &m);
    }
    Ok(())
}

fn compare(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let profile = device_profile(args.device);
    let env = environment(args);
    let tweaks = tweaks_for(args);
    println!(
        "comparing systems on {} in {} ({} events, seed {})\n",
        profile.name,
        env.kind(),
        args.events,
        args.seed
    );
    print_metrics("Ideal (infinite buffer)", &ideal(&profile, &env, &tweaks));
    for kind in [
        BaselineKind::NoAdapt,
        BaselineKind::AlwaysDegrade,
        BaselineKind::CatNap,
        BaselineKind::FixedThreshold(0.75),
        BaselineKind::Quetzal,
    ] {
        println!();
        print_metrics(&kind.label(), &simulate(kind, &profile, &env, &tweaks));
    }
    Ok(())
}

fn trace(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let profile = device_profile(args.device);
    let env = environment(args);
    let tweaks = tweaks_for(args);
    println!(
        "tracing {} on {} in {} ({} events, seed {})\n",
        args.system().label(),
        profile.name,
        env.kind(),
        args.events,
        args.seed
    );
    let (metrics, events) = simulate_traced(args.system(), &profile, &env, &tweaks);
    let names = timeline_names(&AppModel::person_detection(&profile)?.spec);
    let cfg = qz_obs::timeline::TimelineConfig {
        show_snapshots: args.snapshots,
        limit: args.limit,
        ..qz_obs::timeline::TimelineConfig::default()
    };
    println!(
        "{}",
        qz_obs::timeline::render_timeline(&events, &names, &cfg)
    );
    println!("{}", qz_obs::MetricsObserver::from_events(&events).render());
    print_metrics(&args.system().label(), &metrics);
    if let Some(path) = &args.jsonl {
        let file = std::fs::File::create(path)?;
        qz_obs::export::write_jsonl(std::io::BufWriter::new(file), &events)?;
        println!("\nevent log ({} events) written to {path}", events.len());
    }
    if let Some(path) = &args.csv {
        let file = std::fs::File::create(path)?;
        qz_obs::export::write_csv(std::io::BufWriter::new(file), &events)?;
        println!("\nevent log ({} events) written to {path}", events.len());
    }
    Ok(())
}

fn export_traces(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let env = environment(args);
    let dir = std::path::Path::new(&args.out_dir);
    std::fs::create_dir_all(dir)?;
    let solar_path = dir.join(format!("{}_solar.csv", env.kind().label().to_lowercase()));
    let events_path = dir.join(format!("{}_events.csv", env.kind().label().to_lowercase()));
    qz_traces::write_solar(env.solar(), std::fs::File::create(&solar_path)?)?;
    qz_traces::write_events(env.events(), std::fs::File::create(&events_path)?)?;
    println!(
        "wrote {} ({} samples) and {} ({} events)",
        solar_path.display(),
        env.solar().duration().as_millis() / 1000,
        events_path.display(),
        env.events().len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use args::tests::options;
    use qz_traces::EnvironmentKind;
    use qz_types::Watts;

    /// Parses a printed `qz …` line back into its options.
    fn parse_line(line: &str) -> Args {
        let argv: Vec<String> = line.split_whitespace().skip(1).map(String::from).collect();
        options(args::parse(&argv).unwrap_or_else(|e| panic!("`{line}`: {e}")))
    }

    #[test]
    fn repro_lines_parse_back_to_their_run() {
        let kinds = [
            (BaselineKind::Quetzal, Device::Apollo4),
            (BaselineKind::CatNap, Device::Msp430),
            (BaselineKind::FixedThreshold(0.5), Device::Apollo4),
            (BaselineKind::PowerThreshold(Watts(0.030)), Device::Msp430),
            (BaselineKind::QuetzalHw, Device::Apollo4),
        ];
        for env in EnvironmentKind::ALL {
            for (kind, device) in kinds {
                let profile = device_profile(device);
                let want = (kind, device, env, 7, 0xBEEF);
                let got = |a: &Args| (a.system(), a.device, a.env, a.events, a.seed);

                let cfg = qz_fault::CampaignConfig {
                    system: kind,
                    profile: profile.clone(),
                    env,
                    events: 7,
                    seed: 0xBEEF,
                    injection_at: SimDuration::from_secs(15),
                    ..qz_fault::CampaignConfig::default()
                };
                let fault = parse_line(&qz_fault::repro_line_for(&cfg, 2));
                assert_eq!(got(&fault), want, "fault repro");
                assert_eq!((fault.start, fault.campaigns, fault.inject_at), (2, 1, 15));

                let base = format!(
                    "qz profile --system {} --device {} --env {} --events 7 --seed 48879",
                    kind.token(),
                    qz_fault::cli_device_token(profile.name),
                    env.token()
                );
                let prof = parse_line(&profile_repro(&parse_line(&base), &profile));
                assert_eq!(got(&prof), want, "profile repro");

                let verify = parse_line(&format!(
                    "qz verify --env {} --events 7 --seed 0xbeef --segment 30",
                    env.token()
                ));
                let run = parse_line(&verify_repro(&verify, kind, &profile, SolarMode::Floor));
                assert_eq!(got(&run), want, "verify repro");
                assert_eq!((run.solar, run.solar_seg), (SolarMode::Floor, 30));
            }
        }
    }
}
