//! Invariant witnesses over recorded decision traces.
//!
//! A *witness* replays a `qz-obs` event log and machine-checks a
//! property the runtime's algorithms are supposed to guarantee. The
//! fault-injection harness (`qz-fault`) runs them over every faulted
//! trace: an adversary may cost throughput, but it must never make a
//! decision *inconsistent* — the quality-ordered IBO walk must stay
//! well-formed, and degradation must stay monotone in buffer pressure.
//!
//! Witnesses are pure functions of the trace (no runtime state), so
//! they work on logs from any source: the simulator, a firmware port,
//! or a serialized JSONL file read back in.

use alloc::format;
use alloc::string::String;
use alloc::vec::Vec;
use core::cmp::Ordering;

use qz_obs::{Event, EventKind, OptionEval};

/// One invariant violation found in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessViolation {
    /// Device time of the offending event, milliseconds.
    pub t_ms: u64,
    /// What went wrong, human-readable.
    pub detail: String,
}

/// Checks every `IboDecision` in the trace against the quality-ordered
/// walk contract of [`crate::ibo::IboEngine`] (Algorithm 2):
///
/// - no predicted overflow → the chosen option is the highest quality;
/// - predicted but avoidable → the chosen option is the *first* (highest
///   quality) option that does not predict an overflow;
/// - unavoidable → every option overflows and the chosen one minimizes
///   the expected service time.
///
/// Only meaningful for runtimes built on the `IboEngine` family (the
/// Quetzal presets and the FCFS/LCFS IBO baselines); threshold-style
/// policies pick options by different rules.
pub fn check_ibo_walk(events: &[Event]) -> Vec<WitnessViolation> {
    let mut violations = Vec::new();
    for e in events {
        let EventKind::IboDecision {
            ibo_predicted,
            unavoidable,
            chosen_option,
            options,
            ..
        } = &e.kind
        else {
            continue;
        };
        if options.is_empty() {
            // Non-degradable job: the engine must report option 0.
            if *chosen_option != 0 {
                violations.push(WitnessViolation {
                    t_ms: e.t_ms,
                    detail: format!(
                        "non-degradable job ran at option {chosen_option} (expected 0)"
                    ),
                });
            }
            continue;
        }
        let chosen = match options.iter().find(|o| o.option == *chosen_option) {
            Some(o) => o,
            None => {
                violations.push(WitnessViolation {
                    t_ms: e.t_ms,
                    detail: format!("chosen option {chosen_option} not in the evaluated walk"),
                });
                continue;
            }
        };
        if !*ibo_predicted {
            if *chosen_option != 0 {
                violations.push(WitnessViolation {
                    t_ms: e.t_ms,
                    detail: format!(
                        "no overflow predicted but job degraded to option {chosen_option}"
                    ),
                });
            }
            continue;
        }
        if *unavoidable {
            if let Some(o) = options.iter().find(|o| !o.predicts_overflow) {
                violations.push(WitnessViolation {
                    t_ms: e.t_ms,
                    detail: format!(
                        "decision says unavoidable but option {} does not overflow",
                        o.option
                    ),
                });
            }
            if let Some(o) = options
                .iter()
                .find(|o| o.expected_service_s < chosen.expected_service_s)
            {
                violations.push(WitnessViolation {
                    t_ms: e.t_ms,
                    detail: format!(
                        "unavoidable fallback chose E[S]={:.6}s but option {} offers {:.6}s",
                        chosen.expected_service_s, o.option, o.expected_service_s
                    ),
                });
            }
            continue;
        }
        // Predicted and avoidable: first non-overflowing option wins.
        if chosen.predicts_overflow {
            violations.push(WitnessViolation {
                t_ms: e.t_ms,
                detail: format!(
                    "avoidable overflow but chosen option {chosen_option} still overflows"
                ),
            });
        }
        if let Some(o) = options
            .iter()
            .find(|o| o.option < *chosen_option && !o.predicts_overflow)
        {
            violations.push(WitnessViolation {
                t_ms: e.t_ms,
                detail: format!(
                    "skipped higher-quality option {} that avoided the overflow",
                    o.option
                ),
            });
        }
    }
    violations
}

/// Groups `IboDecision` events whose *inputs other than occupancy* are
/// identical and checks that the chosen degradation option is monotone
/// non-decreasing in buffer occupancy — more pressure must never yield
/// a *less* degraded decision.
///
/// Holds for any policy whose choice depends on the decision inputs
/// only through the overflow predicate (the `IboEngine` family and the
/// fixed/CatNap-style baselines). Policies keyed on quantities outside
/// the event (e.g. instantaneous `P_in` thresholds) should skip it.
pub fn check_pressure_monotone(events: &[Event]) -> Vec<WitnessViolation> {
    let mut decisions: Vec<PressureDecision<'_>> =
        events.iter().filter_map(PressureDecision::of).collect();
    // One sort brings each group together, in group order, with its
    // members ordered by (occupancy, option, time); adjacent members
    // of one group are then exactly the pairs the check compares.
    decisions.sort_unstable_by(|a, b| {
        a.group_cmp(b)
            .then_with(|| (a.occupancy, a.chosen, a.t_ms).cmp(&(b.occupancy, b.chosen, b.t_ms)))
    });
    let mut violations = Vec::new();
    for pair in decisions.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if a.group_cmp(b).is_eq() && b.occupancy > a.occupancy && b.chosen < a.chosen {
            violations.push(WitnessViolation {
                t_ms: b.t_ms,
                detail: format!(
                    "option dropped {}→{} as occupancy rose {}→{} \
                     with identical model inputs",
                    a.chosen, b.chosen, a.occupancy, b.occupancy
                ),
            });
        }
    }
    violations
}

/// One `IboDecision` as [`check_pressure_monotone`] sees it: its group
/// (every decision input except occupancy, floats by bit pattern —
/// exact equality is the point, since the same model inputs must mean
/// the same `E[S]` walk) plus the occupancy, option and time it is
/// judged on.
///
/// Groups are ordered as their inputs serialize to bytes — job, λ bits
/// and capacity as 8-byte little-endian values, then per option its
/// index and `E[S]` bits likewise and its overflow flag as one byte —
/// compared lexicographically, so violations come out in that order.
/// Byte-swapping a value makes numeric order agree with the byte order
/// of its little-endian form, which is what the keys hold.
#[derive(Debug)]
struct PressureDecision<'e> {
    /// Job, λ bits and capacity, each byte-swapped.
    head: [u64; 3],
    options: &'e [OptionEval],
    occupancy: u32,
    chosen: u8,
    t_ms: u64,
}

/// One option's serialized bytes as a number in the same order: the
/// index (one byte widened to eight, so its little-endian bytes order
/// like the byte itself), the byte-swapped `E[S]` bits, then the
/// overflow flag.
fn option_key(o: &OptionEval) -> u128 {
    u128::from(o.option) << 72
        | u128::from(o.expected_service_s.to_bits().swap_bytes()) << 8
        | u128::from(o.predicts_overflow)
}

impl<'e> PressureDecision<'e> {
    fn of(e: &'e Event) -> Option<PressureDecision<'e>> {
        let EventKind::IboDecision {
            job,
            lambda,
            occupancy,
            capacity,
            chosen_option,
            options,
            ..
        } = &e.kind
        else {
            return None;
        };
        Some(PressureDecision {
            head: [
                u64::from(*job).swap_bytes(),
                lambda.to_bits().swap_bytes(),
                u64::from(*capacity).swap_bytes(),
            ],
            options,
            occupancy: *occupancy,
            chosen: *chosen_option,
            t_ms: e.t_ms,
        })
    }

    /// Orders by group only (see the type docs).
    fn group_cmp(&self, other: &PressureDecision<'_>) -> Ordering {
        self.head.cmp(&other.head).then_with(|| {
            self.options
                .iter()
                .map(option_key)
                .cmp(other.options.iter().map(option_key))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::vec;
    use proptest::prelude::*;

    fn decision(
        t_ms: u64,
        occupancy: u32,
        ibo_predicted: bool,
        unavoidable: bool,
        chosen_option: u8,
        options: Vec<OptionEval>,
    ) -> Event {
        Event {
            t_ms,
            kind: EventKind::IboDecision {
                job: 0,
                lambda: 0.5,
                occupancy,
                capacity: 10,
                expected_service_s: 2.0,
                predicted_arrivals: 1.0,
                ibo_predicted,
                unavoidable,
                chosen_option,
                options: options.into(),
            },
        }
    }

    fn opt(option: u8, es: f64, overflows: bool) -> OptionEval {
        OptionEval {
            option,
            expected_service_s: es,
            predicts_overflow: overflows,
        }
    }

    #[test]
    fn clean_walks_pass() {
        let events = vec![
            decision(1, 2, false, false, 0, vec![opt(0, 2.0, false)]),
            decision(
                2,
                8,
                true,
                false,
                1,
                vec![opt(0, 2.0, true), opt(1, 0.5, false)],
            ),
            decision(
                3,
                9,
                true,
                true,
                1,
                vec![opt(0, 2.0, true), opt(1, 0.5, true)],
            ),
        ];
        assert!(check_ibo_walk(&events).is_empty());
    }

    #[test]
    fn degrading_without_prediction_is_flagged() {
        let events = vec![decision(
            5,
            1,
            false,
            false,
            1,
            vec![opt(0, 2.0, false), opt(1, 0.5, false)],
        )];
        let v = check_ibo_walk(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].t_ms, 5);
    }

    #[test]
    fn skipping_a_viable_option_is_flagged() {
        let events = vec![decision(
            7,
            8,
            true,
            false,
            2,
            vec![opt(0, 2.0, true), opt(1, 1.0, false), opt(2, 0.5, false)],
        )];
        let v = check_ibo_walk(&events);
        assert!(v.iter().any(|x| x.detail.contains("skipped")));
    }

    #[test]
    fn bad_unavoidable_fallback_is_flagged() {
        let events = vec![decision(
            9,
            9,
            true,
            true,
            0,
            vec![opt(0, 2.0, true), opt(1, 0.5, true)],
        )];
        let v = check_ibo_walk(&events);
        assert!(v.iter().any(|x| x.detail.contains("fallback")));
    }

    #[test]
    fn monotone_pressure_passes_and_reversals_fail() {
        let walk_lo = vec![opt(0, 2.0, false), opt(1, 0.5, false)];
        let walk_hi = vec![opt(0, 2.0, true), opt(1, 0.5, false)];
        // Same walk at two occupancies, higher pressure more degraded: ok.
        let ok = vec![
            decision(1, 2, false, false, 0, walk_lo.clone()),
            decision(2, 3, false, false, 0, walk_lo.clone()),
            decision(3, 8, true, false, 1, walk_hi.clone()),
            decision(4, 9, true, false, 1, walk_hi.clone()),
        ];
        assert!(check_pressure_monotone(&ok).is_empty());
        // Identical inputs, higher occupancy, *less* degraded: violation.
        let bad = vec![
            decision(1, 4, true, false, 1, walk_hi.clone()),
            decision(2, 6, true, false, 0, walk_hi),
        ];
        let v = check_pressure_monotone(&bad);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("occupancy rose"));
    }

    /// The grouping [`check_pressure_monotone`] replaced, kept as its
    /// oracle: one heap key per decision, serialized with every
    /// index-like field widened to 8 little-endian bytes, in a
    /// `BTreeMap` whose byte order fixes the order of the groups.
    fn pressure_oracle(events: &[Event]) -> Vec<WitnessViolation> {
        let mut groups: alloc::collections::BTreeMap<Vec<u8>, Vec<(u32, u8, u64)>> =
            alloc::collections::BTreeMap::new();
        for e in events {
            let EventKind::IboDecision {
                job,
                lambda,
                occupancy,
                capacity,
                chosen_option,
                options,
                ..
            } = &e.kind
            else {
                continue;
            };
            let mut key = Vec::new();
            key.extend_from_slice(&u64::from(*job).to_le_bytes());
            key.extend_from_slice(&lambda.to_bits().to_le_bytes());
            key.extend_from_slice(&u64::from(*capacity).to_le_bytes());
            for o in options.iter() {
                key.extend_from_slice(&u64::from(o.option).to_le_bytes());
                key.extend_from_slice(&o.expected_service_s.to_bits().to_le_bytes());
                key.push(u8::from(o.predicts_overflow));
            }
            groups
                .entry(key)
                .or_default()
                .push((*occupancy, *chosen_option, e.t_ms));
        }
        let mut violations = Vec::new();
        for decisions in groups.values_mut() {
            decisions.sort_unstable();
            for pair in decisions.windows(2) {
                let (occ_a, opt_a, _) = pair[0];
                let (occ_b, opt_b, t_ms) = pair[1];
                if occ_b > occ_a && opt_b < opt_a {
                    violations.push(WitnessViolation {
                        t_ms,
                        detail: format!(
                            "option dropped {opt_a}→{opt_b} as occupancy rose {occ_a}→{occ_b} \
                             with identical model inputs"
                        ),
                    });
                }
            }
        }
        violations
    }

    /// Values whose little-endian byte order differs from their numeric
    /// order (256 sorts before 1 by bytes), so a grouping that sorted
    /// numerically would reorder the violations.
    const JOBS: [u32; 6] = [0, 1, 2, 255, 256, 65_537];
    const CAPACITIES: [u32; 4] = [10, 256, 511, 4096];
    const LAMBDAS: [f64; 4] = [0.5, 0.25, 1.0 / 3.0, 2.0];
    const SERVICES: [f64; 3] = [2.0, 0.5, 0.125];

    proptest! {
        #[test]
        fn pressure_grouping_matches_the_keyed_oracle(
            templates in proptest::collection::vec(
                (
                    0usize..JOBS.len(),
                    0usize..LAMBDAS.len(),
                    0usize..CAPACITIES.len(),
                    proptest::collection::vec((0usize..SERVICES.len(), any::<bool>()), 0..5),
                ),
                1..5,
            ),
            picks in proptest::collection::vec(
                (0usize..4, 0u32..8, 0u8..4, 0u64..50, any::<bool>()),
                1..40,
            ),
        ) {
            // A few input templates shared by many decisions force
            // equal-input groups; each `reverse` pick adds a partner at
            // higher occupancy and a lower option, a forced reversal.
            let mut events = Vec::new();
            let mut reversals = 0;
            for (tpl, occupancy, chosen, t_ms, reverse) in picks {
                let (job, lambda, capacity, walk) = &templates[tpl % templates.len()];
                let options: Vec<OptionEval> = (0u8..)
                    .zip(walk)
                    .map(|(o, &(es, overflows))| opt(o, SERVICES[es], overflows))
                    .collect();
                let mut push = |occupancy, chosen_option, t_ms| {
                    events.push(Event {
                        t_ms,
                        kind: EventKind::IboDecision {
                            job: JOBS[*job],
                            lambda: LAMBDAS[*lambda],
                            occupancy,
                            capacity: CAPACITIES[*capacity],
                            expected_service_s: 2.0,
                            predicted_arrivals: 1.0,
                            ibo_predicted: true,
                            unavoidable: false,
                            chosen_option,
                            options: options.clone().into(),
                        },
                    });
                };
                push(occupancy, chosen, t_ms);
                if reverse && chosen > 0 {
                    push(occupancy + 1, chosen - 1, t_ms + 1);
                    reversals += 1;
                }
            }
            let found = check_pressure_monotone(&events);
            prop_assert_eq!(&found, &pressure_oracle(&events));
            prop_assert!(reversals == 0 || !found.is_empty());
        }
    }
}
