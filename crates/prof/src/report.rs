//! Rendering a profiled run: text table, JSON, and collapsed stacks.

use crate::profiler::Phase;
use qz_types::json::{WriteJson, Writer};

/// One phase's aggregate in a [`ProfileReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Which phase.
    pub phase: Phase,
    /// Completed spans.
    pub count: u64,
    /// Total nanoseconds, children included.
    pub total_ns: u64,
    /// Total minus direct children's totals (floored at zero).
    pub self_ns: u64,
    /// Median span duration (log2-bucket upper bound), ns.
    pub p50_ns: u64,
    /// 99th-percentile span duration (log2-bucket upper bound), ns.
    pub p99_ns: u64,
    /// Largest single span, ns.
    pub max_ns: u64,
}

/// A snapshot of a [`crate::PhaseProfiler`], ready to render. Phases
/// with zero spans are omitted.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileReport {
    /// Non-empty phases in display order.
    pub phases: Vec<PhaseReport>,
}

/// Pretty-prints nanoseconds with a unit that keeps 3-4 significant
/// digits (`987ns`, `12.3us`, `4.56ms`, `1.23s`).
fn fmt_ns(ns: u64) -> String {
    #[allow(clippy::cast_precision_loss)] // display only
    let v = ns as f64;
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", v / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", v / 1e6)
    } else {
        format!("{:.2}s", v / 1e9)
    }
}

impl ProfileReport {
    /// The entry for `phase`, if it recorded any spans.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseReport> {
        self.phases.iter().find(|p| p.phase == phase)
    }

    /// Whether nothing was profiled (disabled profiler or zero spans).
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Aligned text table, one row per phase, sorted by self-time
    /// (the "where did the wall clock go" view).
    pub fn render_text(&self) -> String {
        if self.phases.is_empty() {
            return String::from("phase profile: no spans recorded (profiling disabled?)\n");
        }
        let total_self: u64 = self.phases.iter().map(|p| p.self_ns).sum();
        let mut rows: Vec<&PhaseReport> = self.phases.iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.self_ns));
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>10} {:>10} {:>7} {:>10} {:>9} {:>9} {:>9}\n",
            "phase", "count", "self", "self%", "total", "p50", "p99", "max"
        ));
        for p in rows {
            #[allow(clippy::cast_precision_loss)] // display only
            let pct = if total_self == 0 {
                0.0
            } else {
                p.self_ns as f64 / total_self as f64 * 100.0
            };
            out.push_str(&format!(
                "{:<14} {:>10} {:>10} {:>6.1}% {:>10} {:>9} {:>9} {:>9}\n",
                p.phase.label(),
                p.count,
                fmt_ns(p.self_ns),
                pct,
                fmt_ns(p.total_ns),
                fmt_ns(p.p50_ns),
                fmt_ns(p.p99_ns),
                fmt_ns(p.max_ns),
            ));
        }
        out
    }

    /// Collapsed-stack ("folded") lines for flamegraph tooling: each
    /// phase contributes `qz;<parent chain>;<phase> <self_ns>`.
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        for p in &self.phases {
            if p.self_ns == 0 {
                continue;
            }
            let mut chain = vec![p.phase.label()];
            let mut cur = p.phase.parent();
            while let Some(parent) = cur {
                chain.push(parent.label());
                cur = parent.parent();
            }
            chain.push("qz");
            chain.reverse();
            out.push_str(&chain.join(";"));
            out.push_str(&format!(" {}\n", p.self_ns));
        }
        out
    }
}

/// One self-describing JSON object, phases in report order.
impl WriteJson for ProfileReport {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.obj(|w| {
            w.field("tool", "qz-prof").key("phases").arr(|w| {
                for p in &self.phases {
                    w.obj(|w| {
                        w.field("phase", p.phase.label())
                            .field("count", p.count)
                            .field("total_ns", p.total_ns)
                            .field("self_ns", p.self_ns)
                            .field("p50_ns", p.p50_ns)
                            .field("p99_ns", p.p99_ns)
                            .field("max_ns", p.max_ns);
                    });
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::PhaseProfiler;

    fn sample() -> ProfileReport {
        let mut p = PhaseProfiler::enabled();
        p.record(Phase::SpanAdvance, 10_000);
        p.record(Phase::Sprint, 6_000);
        p.record(Phase::Replay, 1_000);
        p.record(Phase::RefTick, 2_500_000);
        p.report()
    }

    #[test]
    fn text_table_sorts_by_self_time() {
        let text = sample().render_text();
        let tick = text.find("ref_tick").unwrap();
        let sprint = text.find("sprint").unwrap();
        assert!(tick < sprint, "ref_tick dominates self time:\n{text}");
        assert!(text.contains("2.50ms"));
    }

    #[test]
    fn json_has_stable_shape() {
        let json = qz_types::json::to_string(sample());
        assert!(json.starts_with("{\"tool\":\"qz-prof\""));
        assert!(json.contains("\"phase\":\"span_advance\""));
        assert!(json.contains("\"self_ns\":"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn folded_stacks_follow_the_parent_chain() {
        let folded = sample().render_folded();
        assert!(folded.contains("qz;span_advance;sprint;replay 1000\n"));
        // span_advance's self excludes its sprint child (the whole
        // energy kernel call).
        assert!(folded.contains("qz;span_advance 4000\n"));
        assert!(folded.contains("qz;ref_tick 2500000\n"));
    }

    #[test]
    fn empty_report_renders_placeholder() {
        let r = ProfileReport::default();
        assert!(r.is_empty());
        assert!(r.render_text().contains("no spans recorded"));
        assert_eq!(r.render_folded(), "");
        assert_eq!(
            qz_types::json::to_string(&r),
            "{\"tool\":\"qz-prof\",\"phases\":[]}"
        );
    }

    #[test]
    fn ns_formatting_picks_sane_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(12_345), "12.3us");
        assert_eq!(fmt_ns(4_560_000), "4.56ms");
        assert_eq!(fmt_ns(1_230_000_000), "1.23s");
    }
}
