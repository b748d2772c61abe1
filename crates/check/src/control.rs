//! Control and window sanity (`QZ040`–`QZ043`) and fast-forward
//! horizon hygiene (`QZ070`).
//!
//! The PID error-mitigation loop (paper §5.3) and the windowed
//! estimators are the only feedback paths in the runtime; a bad gain
//! or a degenerate window doesn't crash, it silently destabilises the
//! `E[S]` estimate every scheduling decision depends on. The envelope
//! enforced here is documented in DESIGN.md ("Diagnostics catalog").

use crate::CheckInput;
use crate::{Code, Report, Severity, Span};

/// The documented stability envelope for the correction loop. The
/// shipped defaults (kp 0.01, ki 0.005, kd 0.1, clamp ±2 s) sit well
/// inside; anything out here has empirically oscillated or railed the
/// estimator in the ablation sweeps.
const MAX_KP: f64 = 1.0;
const MAX_KI: f64 = 1.0;
const MAX_KD: f64 = 10.0;
const MAX_CLAMP_SECONDS: f64 = 30.0;

/// Capture periods at or below this many ticks leave the fast-forward
/// engine no quiescent span to skip: a capture boundary is a mandatory
/// reference tick, so the simulation degenerates to per-tick stepping.
/// Shipped presets capture at 1 FPS (1000 ticks), far above this.
const HORIZON_COLLAPSE_TICKS: u64 = 10;

pub(crate) fn run(input: &CheckInput<'_>, report: &mut Report) {
    pid(input, report);
    windows(input, report);
    horizon(input, report);
}

/// QZ070: the capture period forces a horizon collapse.
fn horizon(input: &CheckInput<'_>, report: &mut Report) {
    let period = input.device.capture_period.as_millis();
    if period > 0 && period <= HORIZON_COLLAPSE_TICKS {
        report.push(
            Code::QZ070,
            Severity::Warning,
            Span::field("device.capture_period"),
            format!(
                "capture period of {period} tick(s) puts a capture boundary on (almost) every \
                 tick; the fast-forward engine's event horizon collapses and every tick \
                 runs the reference tick body instead of a bulk-advanced span, so expect \
                 tick-engine speed rather than quiet-regime speed",
            ),
        );
    }
}

/// QZ040/QZ041 over the PID configuration.
fn pid(input: &CheckInput<'_>, report: &mut Report) {
    let cfg = &input.runtime.pid;
    let span = || Span::field("runtime.pid");

    // QZ040 mirrors `Pid::new`'s panics exactly: running a config that
    // trips one of these is a crash, not a warning.
    let mut invalid = false;
    if !(cfg.kp.is_finite() && cfg.ki.is_finite() && cfg.kd.is_finite()) {
        invalid = true;
        report.push(
            Code::QZ040,
            Severity::Error,
            span(),
            format!(
                "non-finite PID gains (kp = {}, ki = {}, kd = {}); the controller constructor \
                 rejects this config",
                cfg.kp, cfg.ki, cfg.kd,
            ),
        );
    }
    if !(cfg.tau.is_finite()
        && cfg.tau > 0.0
        && cfg.sample_time.is_finite()
        && cfg.sample_time > 0.0)
    {
        invalid = true;
        report.push(
            Code::QZ040,
            Severity::Error,
            span(),
            format!(
                "tau and sample_time must be positive and finite (tau = {}, sample_time = {})",
                cfg.tau, cfg.sample_time,
            ),
        );
    }
    let (lo, hi) = cfg.output_limits;
    if !(lo.is_finite() && hi.is_finite()) || lo > hi {
        invalid = true;
        report.push(
            Code::QZ040,
            Severity::Error,
            span(),
            format!("inverted or non-finite output limits ({lo}, {hi})"),
        );
    }
    if invalid || !input.runtime.pid_enabled {
        return;
    }

    // QZ041: constructible, but outside the documented envelope.
    if cfg.kp < 0.0 || cfg.ki < 0.0 || cfg.kd < 0.0 {
        report.push(
            Code::QZ041,
            Severity::Warning,
            span(),
            format!(
                "negative gain (kp = {}, ki = {}, kd = {}) inverts the correction: estimation \
                 error grows instead of shrinking",
                cfg.kp, cfg.ki, cfg.kd,
            ),
        );
    }
    if cfg.kp > MAX_KP || cfg.ki > MAX_KI || cfg.kd > MAX_KD {
        report.push(
            Code::QZ041,
            Severity::Warning,
            span(),
            format!(
                "gains outside the documented stability envelope (kp ≤ {MAX_KP}, ki ≤ {MAX_KI}, \
                 kd ≤ {MAX_KD}): kp = {}, ki = {}, kd = {} — expect the correction term to \
                 oscillate against the windowed estimator",
                cfg.kp, cfg.ki, cfg.kd,
            ),
        );
    }
    if lo.abs().max(hi.abs()) > MAX_CLAMP_SECONDS {
        report.push(
            Code::QZ041,
            Severity::Warning,
            span(),
            format!(
                "correction clamp ({lo}, {hi}) s exceeds ±{MAX_CLAMP_SECONDS} s; a correction \
                 that large dominates E[S] itself and the IBO test degenerates",
            ),
        );
    }
}

/// QZ042/QZ043 over the estimator windows and arrival model.
fn windows(input: &CheckInput<'_>, report: &mut Report) {
    let rt = &input.runtime;
    if rt.task_window == 0 {
        report.push(
            Code::QZ042,
            Severity::Error,
            Span::field("runtime.task_window"),
            "zero-length service-time window: E[S] is undefined".to_owned(),
        );
    }
    if rt.arrival_window == 0 {
        report.push(
            Code::QZ042,
            Severity::Error,
            Span::field("runtime.arrival_window"),
            "zero-length arrival window: λ is undefined".to_owned(),
        );
    }
    let rate = rt.capture_rate.value();
    if !rate.is_finite() || rate <= 0.0 {
        report.push(
            Code::QZ042,
            Severity::Error,
            Span::field("runtime.capture_rate"),
            format!("capture rate must be positive and finite (got {rate} Hz)"),
        );
    }
    if let Some(alpha) = rt.power_ewma_alpha {
        if !alpha.is_finite() || alpha <= 0.0 || alpha > 1.0 {
            report.push(
                Code::QZ042,
                Severity::Error,
                Span::field("runtime.power_ewma_alpha"),
                format!("EWMA coefficient must be in (0, 1] (got {alpha})"),
            );
        }
    }

    if (1..4).contains(&rt.arrival_window) {
        report.push(
            Code::QZ043,
            Severity::Warning,
            Span::field("runtime.arrival_window"),
            format!(
                "arrival window {} is too short to estimate a rate; λ collapses to the last \
                 inter-arrival gap and the IBO test chatters",
                rt.arrival_window,
            ),
        );
    } else if rt.arrival_window > 1024 {
        report.push(
            Code::QZ043,
            Severity::Warning,
            Span::field("runtime.arrival_window"),
            format!(
                "arrival window {} spans ~{:.0} s of history at the configured capture rate; \
                 λ will not react within an event's length",
                rt.arrival_window,
                rt.arrival_window as f64 / rate.max(f64::MIN_POSITIVE),
            ),
        );
    }
    if rt.task_window > 4096 {
        report.push(
            Code::QZ043,
            Severity::Warning,
            Span::field("runtime.task_window"),
            format!(
                "service-time window {} remembers executions from long-dead harvesting \
                 conditions; E[S] stops tracking the environment",
                rt.task_window,
            ),
        );
    } else if (1..4).contains(&rt.task_window) {
        report.push(
            Code::QZ043,
            Severity::Warning,
            Span::field("runtime.task_window"),
            format!(
                "service-time window {} gives a single-sample E[S]; one outlier flips every \
                 scheduling decision",
                rt.task_window,
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::two_option_spec;
    use qz_types::Hertz;

    fn input(spec: &quetzal::model::AppSpec) -> CheckInput<'_> {
        CheckInput::new(spec)
    }

    #[test]
    fn defaults_are_inside_the_envelope() {
        let spec = two_option_spec((0.5, 0.005), (0.05, 0.004), None);
        let report = crate::check(&input(&spec));
        assert!(report.diagnostics().iter().all(|d| !matches!(
            d.code,
            Code::QZ040 | Code::QZ041 | Code::QZ042 | Code::QZ043
        )));
    }

    #[test]
    fn panic_inducing_pid_is_an_error() {
        let spec = two_option_spec((0.5, 0.005), (0.05, 0.004), None);
        let mut i = input(&spec);
        i.runtime.pid.tau = 0.0;
        assert!(crate::check(&i)
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::QZ040));

        let mut i = input(&spec);
        i.runtime.pid.output_limits = (2.0, -2.0);
        assert!(crate::check(&i)
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::QZ040));

        let mut i = input(&spec);
        i.runtime.pid.kp = f64::NAN;
        assert!(crate::check(&i).has_errors());
    }

    #[test]
    fn out_of_envelope_gains_warn() {
        let spec = two_option_spec((0.5, 0.005), (0.05, 0.004), None);
        let mut i = input(&spec);
        i.runtime.pid.kp = 5.0;
        let report = crate::check(&i);
        assert!(report.diagnostics().iter().any(|d| d.code == Code::QZ041));
        assert!(!report.has_errors());
    }

    #[test]
    fn disabled_pid_suppresses_envelope_warnings_but_not_errors() {
        let spec = two_option_spec((0.5, 0.005), (0.05, 0.004), None);
        let mut i = input(&spec);
        i.runtime.pid_enabled = false;
        i.runtime.pid.kp = 5.0;
        assert!(crate::check(&i)
            .diagnostics()
            .iter()
            .all(|d| d.code != Code::QZ041));

        // A config that would panic Pid::new stays an error even when
        // disabled: the runtime constructs the controller regardless.
        i.runtime.pid.tau = -1.0;
        assert!(crate::check(&i).has_errors());
    }

    #[test]
    fn zero_windows_and_bad_rate_are_errors() {
        let spec = two_option_spec((0.5, 0.005), (0.05, 0.004), None);
        let mut i = input(&spec);
        i.runtime.task_window = 0;
        i.runtime.arrival_window = 0;
        i.runtime.capture_rate = Hertz(0.0);
        let report = crate::check(&i);
        let qz042 = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::QZ042)
            .count();
        assert_eq!(qz042, 3, "{}", report.render_text());
    }

    #[test]
    fn bad_ewma_alpha_is_an_error() {
        let spec = two_option_spec((0.5, 0.005), (0.05, 0.004), None);
        let mut i = input(&spec);
        i.runtime.power_ewma_alpha = Some(1.5);
        assert!(crate::check(&i)
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::QZ042));
    }

    #[test]
    fn tiny_capture_period_collapses_the_horizon() {
        let spec = two_option_spec((0.5, 0.005), (0.05, 0.004), None);
        let mut i = input(&spec);
        i.device.capture_period = qz_types::SimDuration::from_millis(1);
        let report = crate::check(&i);
        let qz070 = report
            .diagnostics()
            .iter()
            .find(|d| d.code == Code::QZ070)
            .unwrap_or_else(|| panic!("no QZ070:\n{}", report.render_text()));
        assert_eq!(qz070.severity, Severity::Warning);

        // The shipped 1 FPS capture period stays clean.
        let i = input(&spec);
        assert!(crate::check(&i)
            .diagnostics()
            .iter()
            .all(|d| d.code != Code::QZ070));
    }

    #[test]
    fn extreme_windows_warn() {
        let spec = two_option_spec((0.5, 0.005), (0.05, 0.004), None);
        let mut i = input(&spec);
        i.runtime.arrival_window = 2;
        i.runtime.task_window = 10_000;
        let report = crate::check(&i);
        let qz043 = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::QZ043)
            .count();
        assert_eq!(qz043, 2, "{}", report.render_text());
    }
}
