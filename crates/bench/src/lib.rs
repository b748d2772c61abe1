//! Experiment harness: regenerates every table and figure of the
//! Quetzal paper's evaluation.
//!
//! Each figure has a runner function in [`figures`] returning structured
//! rows and a binary in `src/bin/` that prints them as a text table.
//! The throughput benches in `benches/` time each fast path against its
//! reference oracle and append to `results/BENCH_*.json`. The absolute
//! numbers come from the synthetic device profiles in `qz-app`, so the
//! comparison *shapes* — who wins, by roughly what factor, where the
//! crossovers fall — are the reproduction target, not the paper's exact
//! counts (see `EXPERIMENTS.md`).
//!
//! Scale: the paper's simulation study uses 1000 events per run. The
//! runners take an event count; the binaries default to
//! `QZ_EVENTS` (env var) or 400, and `--quick` drops to 60 for smoke
//! runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod report;
pub mod stats;

pub use figures::{ResultRow, EVENT_SEED};
pub use report::Table;

/// Which device profiles a figure simulates (for [`preflight`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FigureDevices {
    /// Apollo 4 only (most figures).
    Apollo4,
    /// MSP430FR5994 only (Fig. 13).
    Msp430,
    /// Both platforms (Table 1).
    Both,
}

/// The full preset list [`preflight`] sweeps — every system any figure
/// simulates, with the parameter values the figures use.
const PREFLIGHT_KINDS: [qz_baselines::BaselineKind; 13] = [
    qz_baselines::BaselineKind::Quetzal,
    qz_baselines::BaselineKind::QuetzalHw,
    qz_baselines::BaselineKind::NoAdapt,
    qz_baselines::BaselineKind::AlwaysDegrade,
    qz_baselines::BaselineKind::CatNap,
    qz_baselines::BaselineKind::FixedThreshold(0.25),
    qz_baselines::BaselineKind::FixedThreshold(0.50),
    qz_baselines::BaselineKind::FixedThreshold(0.75),
    qz_baselines::BaselineKind::PowerThreshold(qz_types::Watts(0.030)),
    qz_baselines::BaselineKind::AvgSe2e,
    qz_baselines::BaselineKind::QuetzalVar(0.9),
    qz_baselines::BaselineKind::FcfsIbo,
    qz_baselines::BaselineKind::LcfsIbo,
];

/// Gate every figure binary runs before simulating anything: the
/// `qz-check` analyzer over each preset the figure's platform(s) can
/// reach. A config with errors would plot garbage, not data, so the
/// binary refuses and exits nonzero. Warnings don't block — the MSP430
/// presets warn `QZ011` by design (degrading out of full-quality
/// overload is the phenomenon Fig. 13 plots).
pub fn preflight(figure: &str, devices: FigureDevices) {
    let profiles = match devices {
        FigureDevices::Apollo4 => vec![qz_app::apollo4()],
        FigureDevices::Msp430 => vec![qz_app::msp430fr5994()],
        FigureDevices::Both => vec![qz_app::apollo4(), qz_app::msp430fr5994()],
    };
    let tweaks = qz_app::SimTweaks::default();
    // The preset × device sweep is embarrassingly parallel; fan it out
    // (QZ_THREADS overrides the width) and print failures serially in
    // sweep order so the output stays deterministic.
    let pairs: Vec<(qz_app::DeviceProfile, qz_baselines::BaselineKind)> = profiles
        .iter()
        .flat_map(|p| PREFLIGHT_KINDS.iter().map(move |&k| (p.clone(), k)))
        .collect();
    let rejections = qz_fleet::Executor::from_env(0).map(pairs, |_, (profile, kind)| {
        let report = qz_app::check_experiment(kind, &profile, &tweaks);
        report.has_errors().then(|| {
            format!(
                "{figure}: qz-check rejected the {} preset on {}:\n{}",
                kind.label(),
                profile.name,
                report.render_text()
            )
        })
    });
    let mut failed = false;
    for rejection in rejections.into_iter().flatten() {
        eprintln!("{rejection}");
        failed = true;
    }
    if failed {
        eprintln!("{figure}: refusing to plot from infeasible configs");
        std::process::exit(1);
    }
}

/// Reads the experiment scale from the environment: `QZ_EVENTS`, or the
/// given default.
pub fn event_count(default: usize) -> usize {
    std::env::var("QZ_EVENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses `--quick` / `--events N` style CLI args shared by the figure
/// binaries. Returns the event count.
pub fn cli_event_count(default: usize) -> usize {
    let mut events = event_count(default);
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == "--quick" {
            events = events.min(60);
        }
        if a == "--events" {
            if let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                events = v;
            }
        }
    }
    events
}
