//! One runner per paper figure/table; each returns structured rows the
//! [`FIGURES`](crate::FIGURES) entries print and the integration tests
//! assert shapes on.

use qz_app::{apollo4, ideal, msp430fr5994, pzi_threshold, pzo_threshold, simulate, SimTweaks};
use qz_baselines::BaselineKind;
use qz_sim::Metrics;
use qz_traces::{EnvironmentKind, SensingEnvironment};
use qz_types::{SimDuration, Watts};

/// Seed shared by all figure runs so every system sees the same
/// environment.
pub const EVENT_SEED: u64 = 20_250_330; // ASPLOS'25 opening day

/// One experiment outcome: a system in an environment.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// System label (paper abbreviation: QZ, NA, AD, …).
    pub system: String,
    /// Environment label, or the swept parameter value.
    pub environment: String,
    /// Full metrics for the run.
    pub metrics: Metrics,
}

impl ResultRow {
    fn new(
        system: impl Into<String>,
        environment: impl Into<String>,
        metrics: Metrics,
    ) -> ResultRow {
        ResultRow {
            system: system.into(),
            environment: environment.into(),
            metrics,
        }
    }
}

fn env(kind: EnvironmentKind, events: usize) -> SensingEnvironment {
    SensingEnvironment::generate(kind, events, EVENT_SEED)
}

/// **Fig. 9 with an explicit environment seed** — the multi-seed study
/// (`fig09_multiseed`) repeats the comparison across seeds and reports
/// mean ± sd (an extension beyond the paper's single runs).
pub fn fig09_seeded(events: usize, seed: u64) -> Vec<ResultRow> {
    let t = SimTweaks::default();
    let mut rows = Vec::new();
    for kind_env in EnvironmentKind::APOLLO_SET {
        let e = SensingEnvironment::generate(kind_env, events, seed);
        rows.push(ResultRow::new(
            "Ideal",
            e.kind().label(),
            ideal(&apollo4(), &e, &t),
        ));
        for kind in [
            BaselineKind::NoAdapt,
            BaselineKind::AlwaysDegrade,
            BaselineKind::Quetzal,
        ] {
            rows.push(run(kind, &e, &t));
        }
    }
    rows
}

fn run(kind: BaselineKind, e: &SensingEnvironment, tweaks: &SimTweaks) -> ResultRow {
    let m = simulate(kind, &apollo4(), e, tweaks);
    ResultRow::new(kind.label(), e.kind().label(), m)
}

/// The PZO baseline for the Apollo 4 harvester configuration.
fn pzo() -> BaselineKind {
    BaselineKind::PowerThreshold(pzo_threshold(6, Watts(0.010)))
}

/// The PZI oracle baseline for a given environment.
fn pzi(e: &SensingEnvironment, tweaks: &SimTweaks) -> BaselineKind {
    BaselineKind::PowerThreshold(pzi_threshold(e, tweaks, Watts(0.010), 0.80))
}

/// **Fig. 2b** — NoAdapt with reduced capture rates (1–10 s periods):
/// lowering the capture rate avoids IBOs but simply fails to capture the
/// events.
pub fn fig02_capture_rate(events: usize) -> Vec<ResultRow> {
    let e = env(EnvironmentKind::Crowded, events);
    (1..=10u64)
        .map(|period_s| {
            let tweaks = SimTweaks {
                capture_period: SimDuration::from_secs(period_s),
                ..SimTweaks::default()
            };
            let m = simulate(BaselineKind::NoAdapt, &apollo4(), &e, &tweaks);
            ResultRow::new("NA", format!("{period_s}s"), m)
        })
        .collect()
}

/// **Fig. 3** — naive solutions in the Crowded environment: Ideal, NA,
/// AD, CN, PZO and QZ.
pub fn fig03_naive(events: usize) -> Vec<ResultRow> {
    let e = env(EnvironmentKind::Crowded, events);
    let t = SimTweaks::default();
    let mut rows = vec![ResultRow::new(
        "Ideal",
        e.kind().label(),
        ideal(&apollo4(), &e, &t),
    )];
    for kind in [
        BaselineKind::NoAdapt,
        BaselineKind::AlwaysDegrade,
        BaselineKind::CatNap,
        pzo(),
        BaselineKind::Quetzal,
    ] {
        rows.push(run(kind, &e, &t));
    }
    rows
}

/// **Fig. 8** — the end-to-end "hardware" experiment: QZ vs NA on two
/// sensing environments with 100 events (the paper's hardware runs use
/// 100 events; pass a different count to scale).
pub fn fig08_hardware(events: usize) -> Vec<ResultRow> {
    let t = SimTweaks::default();
    let mut rows = Vec::new();
    for kind_env in [EnvironmentKind::Crowded, EnvironmentKind::LessCrowded] {
        let e = env(kind_env, events);
        rows.push(run(BaselineKind::NoAdapt, &e, &t));
        rows.push(run(BaselineKind::Quetzal, &e, &t));
    }
    rows
}

/// **Fig. 9** — QZ vs the non-adaptive extremes (NA, AD) and the
/// ∞-memory Ideal, across the three sensing environments.
pub fn fig09_vs_nonadaptive(events: usize) -> Vec<ResultRow> {
    fig09_seeded(events, EVENT_SEED)
}

/// **Fig. 10** — QZ vs prior work: CatNap, PZO (as proposed) and PZI
/// (the observed-max oracle), across the three environments.
pub fn fig10_vs_prior(events: usize) -> Vec<ResultRow> {
    let t = SimTweaks::default();
    let mut rows = Vec::new();
    for kind_env in EnvironmentKind::APOLLO_SET {
        let e = env(kind_env, events);
        rows.push(ResultRow::new(
            "CN",
            e.kind().label(),
            simulate(BaselineKind::CatNap, &apollo4(), &e, &t).clone(),
        ));
        let mut pzo_row = run(pzo(), &e, &t);
        pzo_row.system = "PZO".into();
        rows.push(pzo_row);
        let mut pzi_row = run(pzi(&e, &t), &e, &t);
        pzi_row.system = "PZI".into();
        rows.push(pzi_row);
        rows.push(run(BaselineKind::Quetzal, &e, &t));
    }
    rows
}

/// **Fig. 11a/b** — QZ vs fixed buffer-fill thresholds (25/50/75 %)
/// across the three environments.
pub fn fig11_thresholds(events: usize) -> Vec<ResultRow> {
    let t = SimTweaks::default();
    let mut rows = Vec::new();
    for kind_env in EnvironmentKind::APOLLO_SET {
        let e = env(kind_env, events);
        for p in [0.25, 0.50, 0.75] {
            rows.push(run(BaselineKind::FixedThreshold(p), &e, &t));
        }
        rows.push(run(BaselineKind::Quetzal, &e, &t));
    }
    rows
}

/// **Fig. 11c** — the full 0–100 % threshold sweep (Crowded
/// environment), showing no static threshold matches dynamic IBO
/// prediction.
pub fn fig11_sweep(events: usize) -> Vec<ResultRow> {
    let e = env(EnvironmentKind::Crowded, events);
    let t = SimTweaks::default();
    let mut rows: Vec<ResultRow> = (0..=10)
        .map(|i| {
            let p = i as f64 / 10.0;
            let mut r = run(BaselineKind::FixedThreshold(p), &e, &t);
            r.environment = format!("{}%", i * 10);
            r
        })
        .collect();
    let mut qz = run(BaselineKind::Quetzal, &e, &t);
    qz.environment = "dynamic".into();
    rows.push(qz);
    rows
}

/// **Fig. 12** — scheduler sensitivity: Avg-S_e2e, FCFS and LCFS (each
/// with the IBO engine) vs Energy-aware SJF, across the three
/// environments.
pub fn fig12_schedulers(events: usize) -> Vec<ResultRow> {
    let t = SimTweaks::default();
    let mut rows = Vec::new();
    for kind_env in EnvironmentKind::APOLLO_SET {
        let e = env(kind_env, events);
        for kind in [
            BaselineKind::AvgSe2e,
            BaselineKind::FcfsIbo,
            BaselineKind::LcfsIbo,
            BaselineKind::Quetzal,
        ] {
            rows.push(run(kind, &e, &t));
        }
    }
    rows
}

/// **Fig. 13** — platform versatility: every system on the
/// MSP430FR5994 in the Short (10 s max duration, busier) environment.
pub fn fig13_msp430(events: usize) -> Vec<ResultRow> {
    let profile = msp430fr5994();
    let e = env(EnvironmentKind::Short, events);
    let t = SimTweaks::default();
    let mut rows = vec![ResultRow::new(
        "Ideal",
        e.kind().label(),
        ideal(&profile, &e, &t),
    )];
    let pzi_kind = pzi(&e, &t);
    for (label, kind) in [
        ("NA", BaselineKind::NoAdapt),
        ("AD", BaselineKind::AlwaysDegrade),
        ("CN", BaselineKind::CatNap),
        ("TH25", BaselineKind::FixedThreshold(0.25)),
        ("TH50", BaselineKind::FixedThreshold(0.50)),
        ("TH75", BaselineKind::FixedThreshold(0.75)),
        ("PZO", pzo()),
        ("PZI", pzi_kind),
        ("QZ", BaselineKind::Quetzal),
    ] {
        let m = simulate(kind, &profile, &e, &t);
        rows.push(ResultRow::new(label, e.kind().label(), m));
    }
    rows
}

/// **Fig. 14** — parameter sensitivity for Quetzal in the MoreCrowded
/// environment: harvester cell count, `<arrival-window>` and
/// `<task-window>`. Rows are labeled `param=value`.
pub fn fig14_params(events: usize) -> Vec<ResultRow> {
    let e = env(EnvironmentKind::MoreCrowded, events);
    let mut rows = Vec::new();
    for cells in [2u32, 4, 6, 8, 10] {
        let t = SimTweaks {
            harvester_cells: cells,
            ..SimTweaks::default()
        };
        let m = simulate(BaselineKind::Quetzal, &apollo4(), &e, &t);
        rows.push(ResultRow::new("QZ", format!("cells={cells}"), m));
    }
    for arrival in [16usize, 32, 64, 128, 256, 512, 1024] {
        let t = SimTweaks {
            arrival_window: arrival,
            ..SimTweaks::default()
        };
        let m = simulate(BaselineKind::Quetzal, &apollo4(), &e, &t);
        rows.push(ResultRow::new("QZ", format!("arrival-window={arrival}"), m));
    }
    for task in [8usize, 16, 32, 64, 128, 256] {
        let t = SimTweaks {
            task_window: task,
            ..SimTweaks::default()
        };
        let m = simulate(BaselineKind::Quetzal, &apollo4(), &e, &t);
        rows.push(ResultRow::new("QZ", format!("task-window={task}"), m));
    }
    rows
}

/// **Ablation (extension)** — Quetzal with and without the PID
/// error-mitigation loop, and with the hardware-assisted (quantized)
/// estimator in place of exact division.
pub fn ablations(events: usize) -> Vec<ResultRow> {
    let e = env(EnvironmentKind::MoreCrowded, events);
    let t = SimTweaks::default();
    let mut rows = vec![run(BaselineKind::Quetzal, &e, &t)];
    let no_pid = SimTweaks {
        pid_enabled: false,
        ..SimTweaks::default()
    };
    let mut r = run(BaselineKind::Quetzal, &e, &no_pid);
    r.system = "QZ-noPID".into();
    rows.push(r);
    let no_sticky = SimTweaks {
        sticky_options: false,
        ..SimTweaks::default()
    };
    let mut r = run(BaselineKind::Quetzal, &e, &no_sticky);
    r.system = "QZ-noSticky".into();
    rows.push(r);
    rows.push(run(BaselineKind::QuetzalHw, &e, &t));
    // The variable-cost (future-work) extension, with and without
    // injected data-dependent latency jitter.
    let jitter = SimTweaks {
        task_jitter: 0.5,
        ..SimTweaks::default()
    };
    let mut r = run(BaselineKind::Quetzal, &e, &jitter);
    r.system = "QZ+jitter".into();
    rows.push(r);
    let mut r = run(BaselineKind::QuetzalVar(0.9), &e, &jitter);
    r.system = "QZ-VAR90+jitter".into();
    rows.push(r);
    // EWMA-smoothed input-power prediction.
    let ewma = SimTweaks {
        power_ewma_alpha: Some(0.3),
        ..SimTweaks::default()
    };
    let mut r = run(BaselineKind::Quetzal, &e, &ewma);
    r.system = "QZ-EWMA".into();
    rows.push(r);
    rows
}

/// **Checkpoint-policy ablation** (extension): Quetzal under the three
/// intermittent-computing checkpoint disciplines from the literature the
/// paper builds on — just-in-time (Hibernus, the paper's choice),
/// periodic (Mementos) and task-boundary (Alpaca).
pub fn checkpoint_policies(events: usize) -> Vec<ResultRow> {
    use qz_sim::CheckpointPolicy;
    let e = env(EnvironmentKind::Crowded, events);
    let policies = [
        ("JIT", CheckpointPolicy::JustInTime),
        (
            "Periodic-100ms",
            CheckpointPolicy::Periodic {
                interval: SimDuration::from_millis(100),
            },
        ),
        (
            "Periodic-1s",
            CheckpointPolicy::Periodic {
                interval: SimDuration::from_secs(1),
            },
        ),
        ("TaskBoundary", CheckpointPolicy::TaskBoundary),
    ];
    policies
        .into_iter()
        .map(|(label, checkpoint_policy)| {
            let t = SimTweaks {
                checkpoint_policy,
                ..SimTweaks::default()
            };
            let mut r = run(BaselineKind::Quetzal, &e, &t);
            r.system = label.into();
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: usize = 25;

    #[test]
    fn fig02_slower_capture_misses_captures() {
        let rows = fig02_capture_rate(SMALL);
        assert_eq!(rows.len(), 10);
        let at_1s = &rows[0].metrics;
        let at_10s = &rows[9].metrics;
        assert!(at_10s.frames_total < at_1s.frames_total / 5);
    }

    #[test]
    fn fig09_has_all_systems_and_envs() {
        let rows = fig09_vs_nonadaptive(SMALL);
        assert_eq!(rows.len(), 4 * 3);
        assert!(rows.iter().any(|r| r.system == "Ideal"));
        assert!(rows
            .iter()
            .any(|r| r.system == "QZ" && r.environment == "LessCrowded"));
    }

    #[test]
    fn fig11_sweep_covers_range() {
        let rows = fig11_sweep(SMALL);
        assert_eq!(rows.len(), 12);
        assert_eq!(rows[0].environment, "0%");
        assert_eq!(rows[10].environment, "100%");
        assert_eq!(rows[11].environment, "dynamic");
    }

    #[test]
    fn fig14_labels_parameters() {
        let rows = fig14_params(SMALL);
        assert_eq!(rows.len(), 5 + 7 + 6);
        assert!(rows.iter().any(|r| r.environment == "cells=6"));
        assert!(rows.iter().any(|r| r.environment == "task-window=64"));
    }
}
