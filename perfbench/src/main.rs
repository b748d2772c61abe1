//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <run-morecrowded|fleet-sparse|fault-campaigns>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a human-readable table, then, as the last line of standard
//! output, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`,
//! per-layer metrics with `--trace 1`).

use perfbench::{Metric, Outcome, Workload};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <run-morecrowded|fleet-sparse|fault-campaigns> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::from("null")
    }
}

fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let spread = match m.tail {
            Some((pct, v)) => format!("  p{pct} {v:.6}"),
            None => String::new(),
        };
        println!(
            "  {:<34} {:>18.6} {:<6} n={}{}",
            m.name, m.value, m.unit, m.samples, spread
        );
    }
}

/// Where the traced time went: each engine self time (`sim.*`,
/// `energy.*`, `fleet.*`, disjoint) as a share of their sum, the
/// runtime's decorated time (nested inside `sim.busy_*`) against the
/// same sum, and set-up against the timed run.
fn print_attribution(workload: Workload, outcome: &Outcome) {
    let value = |name: &str| {
        outcome
            .layers
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let engine: Vec<&Metric> = outcome
        .layers
        .iter()
        .filter(|m| {
            m.name.ends_with(".self_ns")
                && ["sim.", "energy.", "fleet."]
                    .iter()
                    .any(|p| m.name.starts_with(p))
                && m.value > 0.0
        })
        .collect();
    let attributed: f64 = engine.iter().map(|m| m.value).sum();
    #[allow(clippy::cast_precision_loss)] // thread counts are tiny
    let thread_s = outcome.traced_s * workload.threads() as f64;
    println!(
        "traced time by layer: engine self times {:.3} s = {:.1} % of traced wall {:.3} s x {} thread(s)",
        attributed / 1e9,
        100.0 * attributed / 1e9 / thread_s,
        outcome.traced_s,
        workload.threads()
    );
    for m in engine {
        println!("  {:<34} {:>6.1} %", m.name, 100.0 * m.value / attributed);
    }
    let runtime = value("quetzal.select.self_ns")
        + value("quetzal.estimate.ns")
        + value("quetzal.degrade.ns");
    if runtime > 0.0 {
        println!(
            "  {:<34} {:>6.1} %  (nested in sim.busy_*)",
            "quetzal.* decorated calls",
            100.0 * runtime / attributed
        );
    }
    let (refs, forks) = (value("fault.references.ns"), value("fault.forks.ns"));
    if refs + forks > 0.0 {
        println!(
            "  run_campaigns split: references {:.1} %, forks {:.1} %",
            100.0 * refs / (refs + forks),
            100.0 * forks / (refs + forks)
        );
    }
    println!(
        "set-up: median {:.4} s = {:.1} % of the median timed run ({:.4} s)",
        outcome.setup_s,
        100.0 * outcome.setup_s / outcome.run_s,
        outcome.run_s
    );
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = args
        .workload
        .bench(args.seed, Duration::from_secs(args.seconds), args.trace);
    if outcome.end_to_end.iter().any(|m| !m.value.is_finite()) {
        outcome.problem("an end-to-end metric is not a finite number");
    }
    println!(
        "workload {} seed {} (model unvalidated against hardware: no reference data, no error figure)",
        args.workload.name(),
        args.seed
    );
    print_table("end-to-end (tracing off)", &outcome.end_to_end);
    if args.trace {
        print_table("per-layer (traced run)", &outcome.layers);
        print_attribution(args.workload, &outcome);
    }
    for problem in &outcome.problems {
        println!("problem: {problem}");
    }
    println!(
        "ops: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    let metrics = if args.trace {
        &outcome.layers
    } else {
        &outcome.end_to_end
    };
    println!("{}", result_line(&outcome, metrics));
    ExitCode::SUCCESS
}
