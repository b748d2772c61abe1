//! Renders an event log as a human-readable decision timeline — the
//! engine behind `qz trace`.

use alloc::format;
use alloc::string::{String, ToString};
use alloc::vec::Vec;

use crate::event::{Event, EventKind};

/// Maps the event log's spec indices back to human names. Build one
/// from the application spec; all lookups fall back to the bare index
/// when a name is missing.
#[derive(Debug, Clone, Default)]
pub struct TimelineNames {
    /// Job names, indexed by job spec index.
    pub jobs: Vec<String>,
    /// Degradation-option names per job, indexed `[job][option]`.
    pub options_by_job: Vec<Vec<String>>,
}

impl TimelineNames {
    fn job(&self, job: u32) -> String {
        self.jobs
            .get(job as usize)
            .cloned()
            .unwrap_or_else(|| format!("job#{job}"))
    }

    fn option(&self, job: u32, option: u8) -> String {
        self.options_by_job
            .get(job as usize)
            .and_then(|opts| opts.get(usize::from(option)))
            .cloned()
            .unwrap_or_else(|| format!("opt#{option}"))
    }
}

/// What to include in a rendered timeline.
#[derive(Debug, Clone, Copy)]
pub struct TimelineConfig {
    /// Include periodic `Snapshot` events (off by default: they are
    /// telemetry, not decisions, and dominate line count).
    pub show_snapshots: bool,
    /// Include per-candidate / per-option detail lines under scheduler
    /// and IBO decisions.
    pub show_detail: bool,
    /// Stop after this many rendered events (`0` = unlimited).
    pub limit: usize,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        TimelineConfig {
            show_snapshots: false,
            show_detail: true,
            limit: 0,
        }
    }
}

fn fmt_t(t_ms: u64) -> String {
    format!("[{:>9.3}s]", t_ms as f64 / 1000.0)
}

fn render_event(out: &mut String, e: &Event, names: &TimelineNames, cfg: &TimelineConfig) {
    let t = fmt_t(e.t_ms);
    match &e.kind {
        EventKind::SchedulerPick {
            job,
            expected_service_s,
            correction_s,
            p_in_w,
            candidates,
        } => {
            out.push_str(&format!(
                "{t} PICK     {}  E[S]={expected_service_s:.3}s corr={correction_s:+.3}s p_in={:.1}mW\n",
                names.job(*job),
                p_in_w * 1000.0
            ));
            if cfg.show_detail {
                for c in candidates {
                    out.push_str(&format!(
                        "{:>12} {} {}  E[S]={:.3}s age={:.2}s\n",
                        "",
                        if c.selected { "→" } else { " " },
                        names.job(c.job),
                        c.expected_service_s,
                        c.oldest_input_age_s
                    ));
                }
            }
        }
        EventKind::IboDecision {
            job,
            lambda,
            occupancy,
            capacity,
            predicted_arrivals,
            ibo_predicted,
            unavoidable,
            chosen_option,
            options,
            ..
        } => {
            let verdict = if *unavoidable {
                "UNAVOIDABLE"
            } else if *ibo_predicted {
                "overflow predicted"
            } else {
                "ok"
            };
            out.push_str(&format!(
                "{t} IBO      {}  λ={lambda:.3}/s buf={occupancy}/{capacity} \
                 λ·E[S]={predicted_arrivals:.2} → {verdict}, run {}\n",
                names.job(*job),
                names.option(*job, *chosen_option)
            ));
            if cfg.show_detail && (*ibo_predicted || *unavoidable) {
                for o in options {
                    let mark = if o.option == *chosen_option {
                        "→"
                    } else if o.predicts_overflow {
                        "✗"
                    } else {
                        " "
                    };
                    out.push_str(&format!(
                        "{:>12} {mark} {}  E[S]={:.3}s {}\n",
                        "",
                        names.option(*job, o.option),
                        o.expected_service_s,
                        if o.predicts_overflow {
                            "overflows"
                        } else {
                            "fits"
                        }
                    ));
                }
            }
        }
        EventKind::PidUpdate {
            job,
            predicted_s,
            observed_s,
            error_s,
            correction_s,
        } => {
            out.push_str(&format!(
                "{t} PID      {}  predicted={predicted_s:.3}s observed={observed_s:.3}s \
                 err={error_s:+.3}s → corr={correction_s:+.3}s\n",
                names.job(*job)
            ));
        }
        EventKind::JobComplete { job, observed_s } => {
            out.push_str(&format!(
                "{t} DONE     {}  S_e2e={observed_s:.3}s\n",
                names.job(*job)
            ));
        }
        EventKind::JobStart {
            job,
            option,
            occupancy,
        } => {
            out.push_str(&format!(
                "{t} START    {} @ {}  buf={occupancy}\n",
                names.job(*job),
                names.option(*job, *option)
            ));
        }
        EventKind::BufferAdmit {
            job,
            occupancy,
            interesting,
        } => {
            out.push_str(&format!(
                "{t} ADMIT    {}  buf={occupancy}{}\n",
                names.job(*job),
                if *interesting { " (interesting)" } else { "" }
            ));
        }
        EventKind::IboDiscard {
            occupancy,
            interesting,
            device_on,
            active_option,
        } => {
            let ctx = if !device_on {
                " during off-period".to_string()
            } else {
                match active_option {
                    Some(o) => format!(" while running opt#{o}"),
                    None => " while idle".to_string(),
                }
            };
            out.push_str(&format!(
                "{t} DISCARD  buffer full ({occupancy}){}{ctx}\n",
                if *interesting {
                    ", interesting input lost"
                } else {
                    ""
                }
            ));
        }
        EventKind::PowerFailure { checkpointed } => {
            out.push_str(&format!(
                "{t} OFF      power failure{}\n",
                if *checkpointed {
                    " (JIT checkpoint)"
                } else {
                    ""
                }
            ));
        }
        EventKind::Checkpoint => {
            out.push_str(&format!("{t} CKPT     periodic checkpoint\n"));
        }
        EventKind::Restore { off_ms } => {
            out.push_str(&format!(
                "{t} ON       restored after {:.1}s off\n",
                *off_ms as f64 / 1000.0
            ));
        }
        EventKind::TxBackoff {
            wait_ms,
            duty_capped,
        } => {
            out.push_str(&format!(
                "{t} RADIO    uplink {} — retry in {:.1}s\n",
                if *duty_capped {
                    "duty budget spent"
                } else {
                    "busy"
                },
                *wait_ms as f64 / 1000.0
            ));
        }
        EventKind::Snapshot(s) => {
            out.push_str(&format!(
                "{t} ····     irr={:.2} stored={:.3}J buf={} λ={:.3}/s{}\n",
                s.irradiance,
                s.stored_j,
                s.occupancy,
                s.lambda,
                if s.on { "" } else { " OFF" }
            ));
        }
        EventKind::FaultInjected { fault } => {
            out.push_str(&format!("{t} FAULT    injected {fault}\n"));
        }
    }
}

/// Renders the log as one line per event (plus optional detail lines),
/// resolving indices to names via `names`.
pub fn render_timeline(events: &[Event], names: &TimelineNames, cfg: &TimelineConfig) -> String {
    let mut out = String::new();
    let mut rendered = 0usize;
    let mut skipped = 0usize;
    for e in events {
        if !cfg.show_snapshots && matches!(e.kind, EventKind::Snapshot(_)) {
            continue;
        }
        if cfg.limit != 0 && rendered >= cfg.limit {
            skipped += 1;
            continue;
        }
        render_event(&mut out, e, names, cfg);
        rendered += 1;
    }
    if skipped > 0 {
        out.push_str(&format!("… {skipped} more events (raise --limit)\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::vec;

    fn names() -> TimelineNames {
        TimelineNames {
            jobs: vec!["detect".to_string()],
            options_by_job: vec![vec!["full".to_string(), "half".to_string()]],
        }
    }

    #[test]
    fn renders_names_and_falls_back_to_indices() {
        let events = [
            Event {
                t_ms: 1500,
                kind: EventKind::JobStart {
                    job: 0,
                    option: 1,
                    occupancy: 2,
                },
            },
            Event {
                t_ms: 2000,
                kind: EventKind::JobStart {
                    job: 7,
                    option: 3,
                    occupancy: 1,
                },
            },
        ];
        let text = render_timeline(&events, &names(), &TimelineConfig::default());
        assert!(text.contains("detect @ half"));
        assert!(text.contains("job#7 @ opt#3"));
        assert!(text.contains("[    1.500s]"));
    }

    #[test]
    fn snapshots_hidden_by_default_and_limit_applies() {
        let snapshot = Event {
            t_ms: 0,
            kind: EventKind::Snapshot(crate::event::Snapshot {
                irradiance: 0.5,
                stored_j: 0.1,
                on: true,
                occupancy: 0,
                lambda: 0.0,
                correction_s: 0.0,
                active_option: None,
                ibo_discards: 0,
            }),
        };
        let ckpt = Event {
            t_ms: 1,
            kind: EventKind::Checkpoint,
        };
        let events = vec![snapshot.clone(), ckpt.clone(), ckpt.clone(), ckpt];
        let cfg = TimelineConfig {
            limit: 2,
            ..TimelineConfig::default()
        };
        let text = render_timeline(&events, &TimelineNames::default(), &cfg);
        assert_eq!(text.matches("CKPT").count(), 2);
        assert!(text.contains("… 1 more events"));
        assert!(!text.contains("····"));

        let cfg = TimelineConfig {
            show_snapshots: true,
            ..TimelineConfig::default()
        };
        let text = render_timeline(&events, &TimelineNames::default(), &cfg);
        assert!(text.contains("····"));
    }

    #[test]
    fn decision_detail_lines_render() {
        let events = [Event {
            t_ms: 100,
            kind: EventKind::IboDecision {
                job: 0,
                lambda: 1.2,
                occupancy: 8,
                capacity: 10,
                expected_service_s: 3.0,
                predicted_arrivals: 3.6,
                ibo_predicted: true,
                unavoidable: false,
                chosen_option: 1,
                options: vec![
                    crate::event::OptionEval {
                        option: 0,
                        expected_service_s: 3.0,
                        predicts_overflow: true,
                    },
                    crate::event::OptionEval {
                        option: 1,
                        expected_service_s: 1.4,
                        predicts_overflow: false,
                    },
                ]
                .into(),
            },
        }];
        let text = render_timeline(&events, &names(), &TimelineConfig::default());
        assert!(text.contains("overflow predicted"));
        assert!(text.contains("run half"));
        assert!(text.contains("✗ full"));
        assert!(text.contains("→ half"));
    }
}
