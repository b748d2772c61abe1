//! The printed form of every committed `results/<name>.txt` output:
//! one function per [`FIGURES`](crate::FIGURES) entry, writing the
//! figure's text table and headline ratios to stdout.

use crate::figures::{self, fig09_seeded};
use crate::stats::{aggregate, mean_improvement};
use crate::{report, Table};
use quetzal::pid::PidConfig;
use quetzal::QuetzalConfig;
use qz_app::{apollo4, msp430fr5994, simulate_traced, SimTweaks};
use qz_baselines::BaselineKind;
use qz_fleet::Executor;
use qz_hw::costs::runtime_footprint_bytes;
use qz_hw::{ratio_estimate, PowerMonitor, RatioPath, APOLLO4, MSP430FR5994};
use qz_obs::MetricsObserver;
use qz_traces::{EnvironmentKind, SensingEnvironment};
use qz_types::Watts;

/// One committed output: what `qz figure --name <name>` prints.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The name `qz figure --name` takes; also the output's file stem
    /// under `results/`.
    pub name: &'static str,
    /// Events per environment when `--events` is absent; `None` for the
    /// two tables, which print constants and take no event count.
    pub events: Option<usize>,
    /// Prints the output to stdout at the given event count (0 for the
    /// tables).
    pub run: fn(usize),
}

impl PartialEq for Figure {
    fn eq(&self, other: &Figure) -> bool {
        self.name == other.name
    }
}

const fn entry(name: &'static str, events: usize, run: fn(usize)) -> Figure {
    Figure {
        name,
        events: Some(events),
        run,
    }
}

const fn table(name: &'static str, run: fn(usize)) -> Figure {
    Figure {
        name,
        events: None,
        run,
    }
}

/// Every figure, table and extension output of the evaluation, in the
/// paper's order. All but `diagnose` are committed as
/// `results/<name>.txt` at their default scale.
pub const FIGURES: &[Figure] = &[
    entry("fig02_capture_rate", 400, fig02_capture_rate),
    entry("fig03_naive", 400, fig03_naive),
    entry("fig08_hardware", 100, fig08_hardware),
    entry("fig09_vs_nonadaptive", 400, fig09_vs_nonadaptive),
    entry("fig10_vs_prior", 400, fig10_vs_prior),
    entry("fig11_thresholds", 400, fig11_thresholds),
    entry("fig12_schedulers", 400, fig12_schedulers),
    entry("fig13_msp430", 400, fig13_msp430),
    entry("fig14_params", 300, fig14_params),
    table("table1_config", table1_config),
    table("table_hw_costs", table_hw_costs),
    entry("ablations", 300, ablations),
    entry("fig09_multiseed", 200, fig09_multiseed),
    entry("diagnose", 200, diagnose),
];

/// The [`FIGURES`] entry called `name`.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Regenerates **Fig. 2b**: reducing the capture rate does not solve the
/// IBO problem — the device simply fails to capture the events.
fn fig02_capture_rate(events: usize) {
    println!("Fig. 2b — NoAdapt with reduced capture rates (Crowded, {events} events)\n");
    let rows = figures::fig02_capture_rate(events);
    let mut t = Table::new(vec![
        "capture-period",
        "frames-captured",
        "interesting-seen",
        "interesting-discarded",
        "total-missed%",
    ]);
    for r in &rows {
        let m = &r.metrics;
        // Frames the slower camera never even attempted, relative to 1 FPS.
        let baseline_frames = rows[0].metrics.interesting_total;
        let never_captured = baseline_frames.saturating_sub(m.interesting_total);
        let total_missed = never_captured + m.interesting_discarded();
        t.row(vec![
            r.environment.clone(),
            m.frames_total.to_string(),
            m.interesting_total.to_string(),
            m.interesting_discarded().to_string(),
            report::pct(total_missed as f64 / baseline_frames.max(1) as f64),
        ]);
    }
    println!("{t}");
    println!(
        "Paper shape: with less frequent captures the device fails to capture a \
         large fraction of interesting data — losses shift from IBOs to never-captured."
    );
}

/// Regenerates **Fig. 3**: naive solutions (NoAdapt, Always Degrade,
/// CatNap, Protean/Zygarde) discard many interesting inputs; Quetzal
/// degrades only when IBOs are imminent.
fn fig03_naive(events: usize) {
    println!("Fig. 3 — naive solutions vs Quetzal (Crowded, {events} events)\n");
    let rows = figures::fig03_naive(events);
    println!("{}", report::standard_table(&rows));
    for base in ["NA", "AD", "CN", "PZ@30.0mW"] {
        for line in report::improvement_lines(&rows, "QZ", base) {
            println!("{line}");
        }
    }
}

/// Regenerates **Fig. 8**: the end-to-end "hardware" experiment — QZ vs
/// NoAdapt on two sensing environments with 100 events (the paper's
/// hardware runs use 100 events).
fn fig08_hardware(events: usize) {
    println!("Fig. 8 — end-to-end experiment: QZ vs NoAdapt ({events} events)\n");
    let rows = figures::fig08_hardware(events);
    println!("{}", report::standard_table(&rows));
    for line in report::improvement_lines(&rows, "QZ", "NA") {
        println!("{line}");
    }
    for env in ["Crowded", "LessCrowded"] {
        let find = |sys: &str| {
            rows.iter()
                .find(|r| r.environment == env && r.system == sys)
                .map(|r| r.metrics.interesting_reported())
        };
        if let (Some(q), Some(n)) = (find("QZ"), find("NA")) {
            let gain = (q as f64 / n.max(1) as f64 - 1.0) * 100.0;
            println!("  {env}: QZ reports {gain:.0}% more interesting inputs than NA");
        }
    }
    println!(
        "\nPaper shape: QZ reduces discarded interesting inputs 6.4x/5x and reports 74%/27% more."
    );
}

/// Regenerates **Fig. 9**: Quetzal vs NoAdapt, Always Degrade, and the
/// ∞-memory Ideal across three sensing environments.
fn fig09_vs_nonadaptive(events: usize) {
    println!("Fig. 9 — QZ vs NA/AD/Ideal ({events} events)\n");
    let rows = figures::fig09_vs_nonadaptive(events);
    println!("{}", report::standard_table(&rows));
    for base in ["NA", "AD"] {
        for line in report::improvement_lines(&rows, "QZ", base) {
            println!("{line}");
        }
    }
    // Reported interesting inputs, normalized to the Ideal system.
    let mut envs: Vec<&str> = rows.iter().map(|r| r.environment.as_str()).collect();
    envs.dedup();
    for env in envs {
        let find = |sys: &str| {
            rows.iter()
                .find(|r| r.environment == env && r.system == sys)
                .map(|r| r.metrics.interesting_reported())
        };
        if let (Some(q), Some(i)) = (find("QZ"), find("Ideal")) {
            println!(
                "  {env}: QZ reports {} of the Ideal (infinite-memory) system's interesting inputs",
                report::pct(q as f64 / i.max(1) as f64)
            );
        }
    }
    println!(
        "\nPaper shape: QZ discards 2.9x/3.5x/4.2x fewer than NA, 2.2x/3.1x/4.2x fewer than AD,\n\
         reports 92%/96%/98% of Ideal at 49.6%/59.5%/69.1% high quality."
    );
}

/// Regenerates **Fig. 10**: Quetzal vs prior work — CatNap (degrade when
/// full), PZO (Protean/Zygarde datasheet-fraction threshold) and PZI
/// (the observed-max oracle variant).
fn fig10_vs_prior(events: usize) {
    println!("Fig. 10 — QZ vs CatNap / PZO / PZI ({events} events)\n");
    let rows = figures::fig10_vs_prior(events);
    println!("{}", report::standard_table(&rows));
    for base in ["CN", "PZO", "PZI"] {
        for line in report::improvement_lines(&rows, "QZ", base) {
            println!("{line}");
        }
    }
    println!(
        "\nPaper shape: QZ discards 2.2x/3.4x/4.3x fewer than CatNap and 1.9x/2.6x/3.1x fewer\n\
         than even the unimplementable PZI oracle; PZO degrades nearly always (the real traces\n\
         never approach the datasheet maximum)."
    );
}

/// Regenerates **Fig. 11**: Quetzal vs fixed buffer-occupancy-threshold
/// systems — the 25/50/75 % comparison (a, b) and the full 0–100 % sweep
/// (c).
fn fig11_thresholds(events: usize) {
    println!("Fig. 11a/b — QZ vs fixed thresholds 25/50/75% ({events} events)\n");
    let rows = figures::fig11_thresholds(events);
    println!("{}", report::standard_table(&rows));
    for base in ["TH25", "TH50", "TH75"] {
        for line in report::improvement_lines(&rows, "QZ", base) {
            println!("{line}");
        }
    }
    println!("\nFig. 11c — full threshold sweep (Crowded)\n");
    let sweep = figures::fig11_sweep(events);
    println!("{}", report::standard_table(&sweep));
    let best = sweep
        .iter()
        .filter(|r| r.environment != "dynamic")
        .min_by_key(|r| r.metrics.interesting_discarded())
        .expect("sweep is non-empty");
    let qz = sweep
        .iter()
        .find(|r| r.environment == "dynamic")
        .expect("dynamic row present");
    println!(
        "  Best static threshold ({}) discards {}; dynamic IBO prediction discards {}.",
        best.environment,
        best.metrics.interesting_discarded(),
        qz.metrics.interesting_discarded()
    );
    println!(
        "\nPaper shape: QZ outperforms every static threshold — adapt only when an IBO is imminent."
    );
}

/// Regenerates **Fig. 12**: scheduler sensitivity — Energy-aware SJF vs
/// Avg-S_e2e, FCFS and LCFS (all running Quetzal's IBO engine).
fn fig12_schedulers(events: usize) {
    println!("Fig. 12 — scheduling policies under the IBO engine ({events} events)\n");
    let rows = figures::fig12_schedulers(events);
    println!("{}", report::standard_table(&rows));
    for base in ["AvgSe2e", "FCFS", "LCFS"] {
        for line in report::improvement_lines(&rows, "QZ", base) {
            println!("{line}");
        }
    }
    println!(
        "\nPaper shape: energy-aware S_e2e scaling beats the power-blind Avg-S_e2e estimator\n\
         (2.2x/3.1x/4.2x) and Energy-aware SJF beats FCFS/LCFS."
    );
}

/// Regenerates **Fig. 13**: platform versatility — every system on the
/// MSP430FR5994 in the Sparse sensing environment.
fn fig13_msp430(events: usize) {
    println!("Fig. 13 — MSP430FR5994, Short-event environment ({events} events)\n");
    let rows = figures::fig13_msp430(events);
    println!("{}", report::standard_table(&rows));
    for base in ["NA", "AD", "CN", "TH75", "PZO"] {
        for line in report::improvement_lines(&rows, "QZ", base) {
            println!("{line}");
        }
    }
    println!("\nPaper shape: QZ discards 2.8x fewer than NA on the MSP430 — the approach is MCU-agnostic.");
}

/// Regenerates **Fig. 14**: Quetzal's sensitivity to harvester cell
/// count, `<arrival-window>` and `<task-window>` (MoreCrowded).
fn fig14_params(events: usize) {
    println!("Fig. 14 — parameter sensitivity (MoreCrowded, {events} events)\n");
    let rows = figures::fig14_params(events);
    let mut t = Table::new(vec![
        "parameter",
        "interesting-discarded",
        "interesting-reported",
        "hi-q%",
    ]);
    for r in &rows {
        t.row(vec![
            r.environment.clone(),
            r.metrics.interesting_discarded().to_string(),
            r.metrics.interesting_reported().to_string(),
            report::pct(r.metrics.high_quality_fraction()),
        ]);
    }
    println!("{t}");
    println!(
        "Defaults used by the primary experiments: cells=6, arrival-window=16, task-window=64\n\
         (the paper's Table 1 uses arrival-window=256; see EXPERIMENTS.md for why ours differs)."
    );
}

/// Prints the reproduction's equivalent of the paper's **Table 1**
/// (experiment details), including where our synthetic substitution
/// deviates and why.
fn table1_config(_events: usize) {
    println!("Table 1 — experiment details (reproduction values)\n");

    let mut t = Table::new(vec!["component", "value"]);
    for profile in [apollo4(), msp430fr5994()] {
        t.row(vec![
            format!("Compute [{}]", profile.name),
            format!(
                "input buffer = {} imgs, capture rate = 1 FPS",
                profile.device.buffer_capacity
            ),
        ]);
        t.row(vec![
            format!("  ML high [{}]", profile.name),
            format!(
                "t_exe={:.2}s P_exe={:.1}mW (fn={:.0}%, fp={:.0}%)",
                profile.ml_high.t_exe.value(),
                profile.ml_high.p_exe.as_milliwatts(),
                profile.ml_high_rates.false_negative * 100.0,
                profile.ml_high_rates.false_positive * 100.0
            ),
        ]);
        t.row(vec![
            format!("  ML low [{}]", profile.name),
            format!(
                "t_exe={:.2}s P_exe={:.1}mW (fn={:.0}%, fp={:.0}%)",
                profile.ml_low.t_exe.value(),
                profile.ml_low.p_exe.as_milliwatts(),
                profile.ml_low_rates.false_negative * 100.0,
                profile.ml_low_rates.false_positive * 100.0
            ),
        ]);
        t.row(vec![
            format!("  Radio [{}]", profile.name),
            format!(
                "full image {:.1}mJ / single byte {:.2}mJ",
                profile.radio_full.energy().as_millijoules(),
                profile.radio_byte.energy().as_millijoules()
            ),
        ]);
    }
    for kind in [
        EnvironmentKind::MoreCrowded,
        EnvironmentKind::Crowded,
        EnvironmentKind::LessCrowded,
        EnvironmentKind::Short,
    ] {
        t.row(vec![
            format!("Environment {kind}"),
            format!(
                "max interesting duration = {}s",
                kind.max_event_duration().as_millis() / 1000
            ),
        ]);
    }
    let q = QuetzalConfig::default();
    let p = PidConfig::default();
    t.row(vec![
        "Quetzal params".into(),
        format!(
            "<task-window>={}, <arrival-window>={}",
            q.task_window, q.arrival_window
        ),
    ]);
    t.row(vec![
        "PID controller".into(),
        format!(
            "Kp={}, Ki={}, Kd={} (output clamp ±{}s)",
            p.kp, p.ki, p.kd, p.output_limits.1
        ),
    ]);
    println!("{t}");
    println!(
        "Deviations from the paper's Table 1: <arrival-window> (256 → {}) and the PID gains\n\
         were retuned for the synthetic substrate; see EXPERIMENTS.md.",
        q.arrival_window
    );
}

/// Regenerates the paper's **§5.1 "Costs and Overheads"** analysis for
/// the hardware power-measurement module: per-op energy, invocation
/// overheads, memory footprint, and the module's ratio-estimation error
/// over the 25–50 °C band.
fn table_hw_costs(_events: usize) {
    println!("§5.1 — hardware module costs and overheads\n");

    let mut t = Table::new(vec![
        "mcu",
        "path",
        "cycles/op",
        "energy/op",
        "overhead@10Hz,32x4",
    ]);
    for mcu in [&MSP430FR5994, &APOLLO4] {
        for path in [mcu.native_path(), RatioPath::QuetzalModule] {
            let cycles = match path {
                RatioPath::QuetzalModule => mcu.module_cycles,
                _ => mcu.div_cycles,
            };
            t.row(vec![
                mcu.name.into(),
                path.to_string(),
                cycles.to_string(),
                format!("{:.2} nJ", mcu.ratio_op_energy(path).value() * 1e9),
                format!("{:.2}%", mcu.overhead_fraction(10.0, 32, 128, path) * 100.0),
            ]);
        }
    }
    println!("{t}");

    let msp_saving = 1.0
        - MSP430FR5994
            .ratio_op_energy(RatioPath::QuetzalModule)
            .value()
            / MSP430FR5994.ratio_op_energy(RatioPath::SoftwareDiv).value();
    let ap_saving = 1.0
        - APOLLO4.ratio_op_energy(RatioPath::QuetzalModule).value()
            / APOLLO4.ratio_op_energy(RatioPath::HardwareDiv).value();
    println!(
        "Per-op energy reduction: MSP430 {:.1}% (paper: 92.5%), Apollo 4 {:.1}% (paper: 62%)",
        msp_saving * 100.0,
        ap_saving * 100.0
    );
    println!(
        "Runtime memory footprint (32 tasks x 4 options, 64/256-bit windows): {} bytes (paper: 2,360)\n",
        runtime_footprint_bytes(32, 4, 64, 256)
    );

    println!(
        "Ratio-module error over temperature (true ratio vs 2^(delta/8) from quantized codes):\n"
    );
    let mut e = Table::new(vec!["true ratio", "25C", "30C", "37.5C", "45C", "50C"]);
    for ratio10 in [11u32, 13, 15, 20, 25, 40, 80] {
        let true_ratio = ratio10 as f64 / 10.0;
        let mut cells = vec![format!("{true_ratio:.1}x")];
        for temp in [25.0, 30.0, 37.5, 45.0, 50.0] {
            let mut m = PowerMonitor::default();
            m.set_temperature(temp);
            let p_in = Watts(0.020);
            let p_exe = Watts(p_in.value() * true_ratio);
            let vd1 = m.sample_power(p_in);
            let vd2 = m.sample_power(p_exe);
            let est = if vd2 > vd1 {
                ratio_estimate(vd2 - vd1)
            } else {
                1.0
            };
            cells.push(format!("{:+.1}%", (est / true_ratio - 1.0) * 100.0));
        }
        e.row(cells);
    }
    println!("{e}");
    println!(
        "Paper claims <=5.5% error over 25-50C; our end-to-end model (diode law + 8-bit\n\
         quantization + Algorithm 3) matches that for the ratio range the scheduler\n\
         exercises most (<=2.5x) and grows with the ratio, dominated by quantization\n\
         (+-1 ADC count ~= 9%). See EXPERIMENTS.md."
    );
}

/// Ablation study (extension beyond the paper): Quetzal without the PID
/// error-mitigation loop, without sticky current-option scheduling, and
/// with the hardware-assisted (quantized) estimator replacing exact
/// division.
fn ablations(events: usize) {
    println!("Ablations — MoreCrowded ({events} events)\n");
    let rows = figures::ablations(events);
    println!("{}", report::standard_table(&rows));
    println!(
        "QZ-noPID: without prediction-error mitigation (paper 4.3).\n\
         QZ-noSticky: Algorithm 1 ranks jobs at highest quality instead of their current\n\
         degradation level, which can starve slot-freeing jobs under pressure.\n\
         QZ-HW: S_e2e through the diode/ADC module (Algorithm 3) instead of exact division.\n\
         QZ-EWMA: input-power measurements smoothed before prediction.\n"
    );

    println!("Checkpoint-policy ablation (Crowded):\n");
    let rows = figures::checkpoint_policies(events);
    let mut t = Table::new(vec![
        "policy",
        "discarded",
        "ibo",
        "false-neg",
        "power-failures",
        "reexecuted(s)",
    ]);
    for r in &rows {
        t.row(vec![
            r.system.clone(),
            r.metrics.interesting_discarded().to_string(),
            r.metrics.ibo_interesting.to_string(),
            r.metrics.false_negatives.to_string(),
            r.metrics.power_failures.to_string(),
            format!("{:.1}", r.metrics.reexecuted.as_seconds().value()),
        ]);
    }
    println!("{t}");
    println!(
        "JIT checkpointing (the paper's simulator, 6.3) loses no progress; periodic and\n\
         task-boundary policies re-execute work after every power failure, inflating\n\
         service times and IBOs."
    );
}

/// **Fig. 9, multi-seed** (extension): repeats the QZ vs NA/AD
/// comparison across several environment seeds and reports
/// mean ± standard deviation, strengthening the single-run headline.
fn fig09_multiseed(events: usize) {
    let seeds = [20_250_330u64, 7, 99, 1234, 0xBEEF];
    println!(
        "Fig. 9 (multi-seed) — QZ vs NA/AD over {} seeds, {events} events each\n",
        seeds.len()
    );
    // Seeds are independent runs; fan them out over every core. The map
    // returns in seed order, so aggregation — and the printed table — is
    // identical at any thread count.
    let runs =
        Executor::new(Executor::available()).map(seeds.to_vec(), |_, s| fig09_seeded(events, s));
    let agg = aggregate(&runs);

    let mut t = Table::new(vec![
        "environment",
        "system",
        "discarded (mean±sd)",
        "range",
        "disc% (mean)",
        "hi-q% (mean)",
    ]);
    for a in &agg {
        t.row(vec![
            a.environment.clone(),
            a.system.clone(),
            format!("{:.0} ± {:.0}", a.mean_discarded, a.sd_discarded),
            format!("[{}, {}]", a.min_discarded, a.max_discarded),
            format!("{:.1}%", a.mean_discarded_fraction * 100.0),
            format!("{:.1}%", a.mean_high_quality * 100.0),
        ]);
    }
    println!("{t}");
    for base in ["NA", "AD"] {
        for (env, ratio) in mean_improvement(&agg, "QZ", base) {
            println!("  {env}: QZ discards {ratio:.1}x fewer (mean) than {base}");
        }
    }
}

/// Diagnostic summary: the full internal-metric table (IBO attribution,
/// degradation counts, off-time) for QZ/NA/AD/Ideal across the three
/// environments, followed by the event-derived metrics registry for
/// Quetzal in each — prediction-error, occupancy, and recharge-time
/// distributions straight from the decision log. Useful when re-tuning
/// device profiles; not part of the figure index.
fn diagnose(events: usize) {
    println!("== fig09 exploration, {events} events ==");
    let rows = figures::fig09_vs_nonadaptive(events);
    let mut t = Table::new(vec![
        "env",
        "system",
        "int_total",
        "discarded",
        "missed_off",
        "ibo",
        "fn",
        "rep_hi",
        "rep_lo",
        "ibo_off",
        "ibo_full",
        "ibo_deg",
        "deg_jobs",
        "jobs",
        "off%",
    ]);
    for r in &rows {
        let m = &r.metrics;
        t.row(vec![
            r.environment.clone(),
            r.system.clone(),
            m.interesting_total.to_string(),
            m.interesting_discarded().to_string(),
            m.interesting_missed_off.to_string(),
            m.ibo_interesting.to_string(),
            m.false_negatives.to_string(),
            m.reports_interesting_high.to_string(),
            m.reports_interesting_low.to_string(),
            m.ibo_while_off.to_string(),
            m.ibo_during_full_job.to_string(),
            m.ibo_during_degraded_job.to_string(),
            m.degraded_jobs().to_string(),
            m.total_jobs().to_string(),
            format!("{:.0}%", m.off_fraction() * 100.0),
        ]);
    }
    println!("{t}");

    // Event-derived registry: the same runs, diagnosed from the
    // decision log alone (see EXPERIMENTS.md, "re-deriving calibration
    // diagnoses").
    let tweaks = SimTweaks::default();
    let profile = apollo4();
    for kind in [
        EnvironmentKind::MoreCrowded,
        EnvironmentKind::Crowded,
        EnvironmentKind::LessCrowded,
    ] {
        let env = SensingEnvironment::generate(kind, events, tweaks.seed);
        let (_, log) = simulate_traced(BaselineKind::Quetzal, &profile, &env, &tweaks);
        println!("== QZ decision-log registry, {kind} ==");
        println!("{}", MetricsObserver::from_events(&log).render());
    }
}
