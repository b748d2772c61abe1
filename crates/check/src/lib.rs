//! qz-check: a semantic static analyzer for Quetzal configurations.
//!
//! The paper's whole pitch is avoiding *runtime* disasters — input
//! buffer overflows and power-failure stalls — yet an [`AppSpec`] whose
//! cheapest degradation option can never fit in the capacitor, or a
//! capture rate that makes overflow inevitable by Little's Law, would
//! otherwise only surface after a full simulation (or never, via
//! silently wrong figures). This crate surfaces those *offline
//! feasibility conditions* — the same energy/queueing math the runtime
//! uses online (Eqs. 1 and 2) — as compile-time-style diagnostics
//! before any simulation runs.
//!
//! Five analysis families, one code block each:
//!
//! - **Energy feasibility** (`QZ00x`): per-task atomic energy against
//!   the usable capacitor budget `½·C·(V_max² − V_off²)` minus the
//!   checkpoint reserve, and sustained capture-path power against the
//!   harvester ceiling.
//! - **Little's-Law inevitability** (`QZ01x`): worst-case arrival rate
//!   λ versus best-case service rate μ from the min-cost options at the
//!   harvester ceiling (Eq. 2 can never hold ⇒ error).
//! - **Degradation-lattice lints** (`QZ02x`): non-monotone energy
//!   ordering, dominated options, duplicates, missing freedom.
//! - **Fixed-point / hardware-model ranges** (`QZ03x`): Q16.16
//!   saturation in `premultiply_t_exe` tables, ADC code clipping,
//!   non-finite or degenerate device numerics.
//! - **Control / window sanity** (`QZ04x`): PID configs the controller
//!   would reject or that sit outside the documented stability
//!   envelope, and estimator-window pathologies.
//!
//! # Quickstart
//!
//! ```
//! use quetzal::model::{AppSpecBuilder, TaskCost};
//! use qz_types::{Seconds, Watts};
//!
//! let mut b = AppSpecBuilder::new();
//! let ml = b
//!     .degradable_task("ml")
//!     .option("full", TaskCost::new(Seconds(0.5), Watts(0.005)))
//!     .option("lite", TaskCost::new(Seconds(0.05), Watts(0.004)))
//!     .finish()
//!     .unwrap();
//! b.job("detect", vec![ml]).unwrap();
//! let spec = b.build().unwrap();
//!
//! let input = qz_check::CheckInput::new(&spec);
//! let report = qz_check::check(&input);
//! assert!(!report.has_errors());
//! ```

mod control;
mod diag;
mod energy;
mod faults;
mod fleet;
mod lattice;
mod queueing;
mod ranges;

use std::collections::HashSet;
use std::sync::Mutex;

use quetzal::model::{AppSpec, TaskCost, TaskKind, TaskSpec};
use quetzal::QuetzalConfig;
use qz_sim::{DeviceConfig, PowerConfig};

pub use diag::{Code, Diagnostic, Report, Severity, Span};
pub use faults::{check_faults, FaultCheckInput};
pub use fleet::{check_fleet, FleetCheckInput};

/// Everything the checker looks at, borrowed or defaulted.
///
/// The spec is required; the device, power, and runtime configurations
/// default to the paper's primary configuration (Apollo 4 cost table,
/// 33 mF / 6-cell power system) so spec-only callers get the full
/// analysis battery against the shipped platform.
#[derive(Debug, Clone)]
pub struct CheckInput<'a> {
    /// The application specification under analysis.
    pub spec: &'a AppSpec,
    /// Device cost table and platform characteristics.
    pub device: DeviceConfig,
    /// Storage and harvester configuration.
    pub power: PowerConfig,
    /// Runtime (scheduler/estimator/controller) configuration.
    pub runtime: QuetzalConfig,
    /// `true` when the hardware `S_e2e` estimator (Algorithm 3) is in
    /// use: fixed-point/ADC range findings become warnings instead of
    /// notes.
    pub hw_estimator: bool,
}

impl<'a> CheckInput<'a> {
    /// Builds an input with default device/power/runtime configs.
    pub fn new(spec: &'a AppSpec) -> CheckInput<'a> {
        CheckInput {
            spec,
            device: DeviceConfig::default(),
            power: PowerConfig::default(),
            runtime: QuetzalConfig::default(),
            hw_estimator: false,
        }
    }
}

/// Runs every analysis family and returns the sorted report.
pub fn check(input: &CheckInput<'_>) -> Report {
    let mut report = Report::new();
    ranges::run(input, &mut report);
    energy::run(input, &mut report);
    queueing::run(input, &mut report);
    lattice::run(input, &mut report);
    control::run(input, &mut report);
    report.sort();
    report
}

/// The post-converter harvester power ceiling (full sun), or `None` if
/// the harvester configuration is invalid (flagged as QZ031 by the
/// range analysis).
fn harvester_ceiling(power: &PowerConfig) -> Option<f64> {
    let ceiling =
        f64::from(power.harvester_cells) * power.cell_rating.value() * power.converter_efficiency;
    (power.harvester_cells > 0
        && power.cell_rating.value().is_finite()
        && power.cell_rating.value() > 0.0
        && power.converter_efficiency.is_finite()
        && power.converter_efficiency > 0.0
        && power.converter_efficiency <= 1.0)
        .then_some(ceiling)
}

/// Visits every profiled cost in the spec: fixed tasks once, degradable
/// tasks once per option (option name passed along for spans).
fn for_each_cost(spec: &AppSpec, mut f: impl FnMut(&TaskSpec, Option<&str>, TaskCost)) {
    for task in spec.tasks() {
        match &task.kind {
            TaskKind::Fixed(cost) => f(task, None, *cost),
            TaskKind::Degradable(options) => {
                for opt in options {
                    f(task, Some(&opt.name), opt.cost);
                }
            }
        }
    }
}

/// Formats joules as millijoules with sensible precision.
fn fmt_mj(joules: f64) -> String {
    format!("{:.3} mJ", joules * 1e3)
}

/// Formats watts as milliwatts with sensible precision.
fn fmt_mw(watts: f64) -> String {
    format!("{:.2} mW", watts * 1e3)
}

/// Prints a report's warnings/notes to stderr at most once per process
/// per (code, span) pair, so figure sweeps that build hundreds of
/// simulations from the same config do not repeat themselves.
///
/// Errors are not printed here — entry points refuse to run on errors
/// and render the full report in that path instead.
pub fn report_to_stderr_once(label: &str, report: &Report) {
    static SEEN: Mutex<Option<HashSet<String>>> = Mutex::new(None);
    let mut guard = match SEEN.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    let seen = guard.get_or_insert_with(HashSet::new);
    for d in report.diagnostics() {
        if d.severity == Severity::Error {
            continue;
        }
        let key = format!("{}|{}|{}", d.code, d.span, label);
        if seen.insert(key) {
            eprintln!("qz-check [{label}]: {d}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal::model::AppSpecBuilder;
    use qz_types::{Seconds, Watts};

    pub(crate) fn two_option_spec(
        full: (f64, f64),
        lite: (f64, f64),
        fixed: Option<(f64, f64)>,
    ) -> AppSpec {
        let mut b = AppSpecBuilder::new();
        let ml = b
            .degradable_task("ml")
            .option("full", TaskCost::new(Seconds(full.0), Watts(full.1)))
            .option("lite", TaskCost::new(Seconds(lite.0), Watts(lite.1)))
            .finish()
            .unwrap();
        let mut tasks = vec![ml];
        if let Some((t, p)) = fixed {
            tasks.push(
                b.fixed_task("radio", TaskCost::new(Seconds(t), Watts(p)))
                    .unwrap(),
            );
        }
        b.job("detect", tasks).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn default_input_on_sane_spec_is_clean() {
        let spec = two_option_spec((0.5, 0.005), (0.05, 0.004), Some((0.4, 0.050)));
        let report = check(&CheckInput::new(&spec));
        assert!(
            !report.has_errors(),
            "unexpected errors:\n{}",
            report.render_text()
        );
        assert_eq!(report.warnings(), 0, "{}", report.render_text());
    }

    #[test]
    fn ceiling_matches_paper_primary_config() {
        let ceiling = harvester_ceiling(&PowerConfig::default()).unwrap();
        assert!((ceiling - 0.048).abs() < 1e-12); // 6 × 10 mW × 0.80
    }

    #[test]
    fn invalid_harvester_yields_no_ceiling() {
        let mut power = PowerConfig {
            converter_efficiency: 0.0,
            ..PowerConfig::default()
        };
        assert!(harvester_ceiling(&power).is_none());
        power.converter_efficiency = 0.8;
        power.harvester_cells = 0;
        assert!(harvester_ceiling(&power).is_none());
    }

    #[test]
    fn for_each_cost_visits_every_option() {
        let spec = two_option_spec((0.5, 0.005), (0.05, 0.004), Some((0.4, 0.050)));
        let mut seen = Vec::new();
        for_each_cost(&spec, |task, option, _| {
            seen.push((task.name.clone(), option.map(str::to_owned)));
        });
        assert_eq!(seen.len(), 3);
        assert!(seen.contains(&("ml".into(), Some("full".into()))));
        assert!(seen.contains(&("radio".into(), None)));
    }
}
