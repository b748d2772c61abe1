//! JSONL and CSV exporters for event logs (`std` only).
//!
//! JSONL gives one self-describing object per event (nested
//! candidate/option arrays included), written through the workspace's
//! one JSON writer ([`qz_types::json::Writer`]); CSV flattens to a
//! fixed column set shared by all event kinds, leaving unused columns
//! empty — convenient for spreadsheet and pandas post-processing.

use std::fmt::{self, Write as _};
use std::io::{self, Write};

use crate::event::{Event, EventKind};
use qz_types::json::{WriteJson, Writer};

/// Number of event lines the emission arena accumulates before the
/// formatted bytes flush to the writer in one `write_all`; the bytes on
/// the wire are exactly the per-event bytes, just batched.
const EMIT_BLOCK_EVENTS: usize = 64;

/// One event as a JSON object: `t_ms`, `kind`, then the kind's fields
/// (non-finite floats as `null`, absent options as `null`).
impl WriteJson for Event {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.obj(|w| {
            w.field("t_ms", self.t_ms).field("kind", self.kind.name());
            match &self.kind {
                EventKind::SchedulerPick {
                    job,
                    expected_service_s,
                    correction_s,
                    p_in_w,
                    candidates,
                } => {
                    w.field("job", job)
                        .field("expected_service_s", expected_service_s)
                        .field("correction_s", correction_s)
                        .field("p_in_w", p_in_w)
                        .key("candidates")
                        .arr(|w| {
                            for c in candidates {
                                w.obj(|w| {
                                    w.field("job", c.job)
                                        .field("expected_service_s", c.expected_service_s)
                                        .field("oldest_input_age_s", c.oldest_input_age_s)
                                        .field("selected", c.selected);
                                });
                            }
                        });
                }
                EventKind::IboDecision {
                    job,
                    lambda,
                    occupancy,
                    capacity,
                    expected_service_s,
                    predicted_arrivals,
                    ibo_predicted,
                    unavoidable,
                    chosen_option,
                    options,
                } => {
                    w.field("job", job)
                        .field("lambda", lambda)
                        .field("occupancy", occupancy)
                        .field("capacity", capacity)
                        .field("expected_service_s", expected_service_s)
                        .field("predicted_arrivals", predicted_arrivals)
                        .field("ibo_predicted", ibo_predicted)
                        .field("unavoidable", unavoidable)
                        .field("chosen_option", chosen_option)
                        .key("options")
                        .arr(|w| {
                            for o in options {
                                w.obj(|w| {
                                    w.field("option", o.option)
                                        .field("expected_service_s", o.expected_service_s)
                                        .field("predicts_overflow", o.predicts_overflow);
                                });
                            }
                        });
                }
                EventKind::PidUpdate {
                    job,
                    predicted_s,
                    observed_s,
                    error_s,
                    correction_s,
                } => {
                    w.field("job", job)
                        .field("predicted_s", predicted_s)
                        .field("observed_s", observed_s)
                        .field("error_s", error_s)
                        .field("correction_s", correction_s);
                }
                EventKind::JobComplete { job, observed_s } => {
                    w.field("job", job).field("observed_s", observed_s);
                }
                EventKind::JobStart {
                    job,
                    option,
                    occupancy,
                } => {
                    w.field("job", job)
                        .field("option", option)
                        .field("occupancy", occupancy);
                }
                EventKind::BufferAdmit {
                    job,
                    occupancy,
                    interesting,
                } => {
                    w.field("job", job)
                        .field("occupancy", occupancy)
                        .field("interesting", interesting);
                }
                EventKind::IboDiscard {
                    occupancy,
                    interesting,
                    device_on,
                    active_option,
                } => {
                    w.field("occupancy", occupancy)
                        .field("interesting", interesting)
                        .field("device_on", device_on)
                        .field("active_option", active_option);
                }
                EventKind::PowerFailure { checkpointed } => {
                    w.field("checkpointed", checkpointed);
                }
                EventKind::Checkpoint => {}
                EventKind::Restore { off_ms } => {
                    w.field("off_ms", off_ms);
                }
                EventKind::TxBackoff {
                    wait_ms,
                    duty_capped,
                } => {
                    w.field("wait_ms", wait_ms)
                        .field("duty_capped", duty_capped);
                }
                EventKind::Snapshot(snap) => {
                    w.field("irradiance", snap.irradiance)
                        .field("stored_j", snap.stored_j)
                        .field("on", snap.on)
                        .field("occupancy", snap.occupancy)
                        .field("lambda", snap.lambda)
                        .field("correction_s", snap.correction_s)
                        .field("active_option", snap.active_option)
                        .field("ibo_discards", snap.ibo_discards);
                }
                EventKind::FaultInjected { fault } => {
                    w.field("fault", fault);
                }
            }
        });
    }
}

/// Writes the event log as JSON Lines: one object per event. Lines are
/// formatted into a reusable arena and flushed to `w` every
/// `EMIT_BLOCK_EVENTS` events — byte-identical to writing each line
/// individually.
pub fn write_jsonl<W: Write>(mut w: W, events: &[Event]) -> io::Result<()> {
    let mut arena = String::new();
    for (i, event) in events.iter().enumerate() {
        Writer::new(&mut arena).value(event);
        arena.push('\n');
        if (i + 1) % EMIT_BLOCK_EVENTS == 0 {
            w.write_all(arena.as_bytes())?;
            arena.clear();
        }
    }
    w.write_all(arena.as_bytes())?;
    Ok(())
}

/// The fixed CSV header used by [`write_csv`].
pub const CSV_HEADER: &str =
    "t_ms,kind,job,option,occupancy,capacity,lambda,expected_service_s,observed_s,\
     error_s,correction_s,predicted_arrivals,ibo_predicted,unavoidable,interesting,\
     device_on,checkpointed,off_ms,stored_j,irradiance,on";

/// One CSV row's kind-specific columns, in [`CSV_HEADER`] order after
/// `t_ms,kind`, each borrowed from the event; `None` leaves a column
/// empty.
#[derive(Default)]
struct CsvRow<'e> {
    job: Cell<'e>,
    option: Cell<'e>,
    occupancy: Cell<'e>,
    capacity: Cell<'e>,
    lambda: Cell<'e>,
    expected: Cell<'e>,
    observed: Cell<'e>,
    error: Cell<'e>,
    correction: Cell<'e>,
    predicted_arrivals: Cell<'e>,
    ibo_predicted: Cell<'e>,
    unavoidable: Cell<'e>,
    interesting: Cell<'e>,
    device_on: Cell<'e>,
    checkpointed: Cell<'e>,
    off_ms: Cell<'e>,
    stored_j: Cell<'e>,
    irradiance: Cell<'e>,
    on: Cell<'e>,
}

type Cell<'e> = Option<&'e dyn fmt::Display>;

impl<'e> CsvRow<'e> {
    /// The columns `e`'s kind defines.
    fn of(e: &'e Event) -> CsvRow<'e> {
        let mut r = CsvRow::default();
        match &e.kind {
            EventKind::SchedulerPick {
                job,
                expected_service_s,
                correction_s,
                ..
            } => {
                r.job = Some(job);
                r.expected = Some(expected_service_s);
                r.correction = Some(correction_s);
            }
            EventKind::IboDecision {
                job,
                lambda,
                occupancy,
                capacity,
                expected_service_s,
                predicted_arrivals,
                ibo_predicted,
                unavoidable,
                chosen_option,
                ..
            } => {
                r.job = Some(job);
                r.lambda = Some(lambda);
                r.occupancy = Some(occupancy);
                r.capacity = Some(capacity);
                r.expected = Some(expected_service_s);
                r.predicted_arrivals = Some(predicted_arrivals);
                r.ibo_predicted = Some(ibo_predicted);
                r.unavoidable = Some(unavoidable);
                r.option = Some(chosen_option);
            }
            EventKind::PidUpdate {
                job,
                predicted_s,
                observed_s,
                error_s,
                correction_s,
            } => {
                r.job = Some(job);
                r.expected = Some(predicted_s);
                r.observed = Some(observed_s);
                r.error = Some(error_s);
                r.correction = Some(correction_s);
            }
            EventKind::JobComplete { job, observed_s } => {
                r.job = Some(job);
                r.observed = Some(observed_s);
            }
            EventKind::JobStart {
                job,
                option,
                occupancy,
            } => {
                r.job = Some(job);
                r.option = Some(option);
                r.occupancy = Some(occupancy);
            }
            EventKind::BufferAdmit {
                job,
                occupancy,
                interesting,
            } => {
                r.job = Some(job);
                r.occupancy = Some(occupancy);
                r.interesting = Some(interesting);
            }
            EventKind::IboDiscard {
                occupancy,
                interesting,
                device_on,
                active_option,
            } => {
                r.occupancy = Some(occupancy);
                r.interesting = Some(interesting);
                r.device_on = Some(device_on);
                r.option = active_option.as_ref().map(|o| o as &dyn fmt::Display);
            }
            EventKind::PowerFailure { checkpointed } => r.checkpointed = Some(checkpointed),
            EventKind::Checkpoint => {}
            EventKind::Restore { off_ms } => r.off_ms = Some(off_ms),
            // Backoff waits reuse the generic off_ms duration column.
            EventKind::TxBackoff { wait_ms, .. } => r.off_ms = Some(wait_ms),
            EventKind::Snapshot(snap) => {
                r.occupancy = Some(&snap.occupancy);
                r.lambda = Some(&snap.lambda);
                r.correction = Some(&snap.correction_s);
                r.stored_j = Some(&snap.stored_j);
                r.irradiance = Some(&snap.irradiance);
                r.on = Some(&snap.on);
                r.option = snap.active_option.as_ref().map(|o| o as &dyn fmt::Display);
            }
            // The fault class is visible through the kind column only;
            // fault events carry no numeric payload.
            EventKind::FaultInjected { .. } => {}
        }
        r
    }

    /// Appends `,cell` per column and the line end.
    fn write(&self, out: &mut String) {
        for cell in [
            self.job,
            self.option,
            self.occupancy,
            self.capacity,
            self.lambda,
            self.expected,
            self.observed,
            self.error,
            self.correction,
            self.predicted_arrivals,
            self.ibo_predicted,
            self.unavoidable,
            self.interesting,
            self.device_on,
            self.checkpointed,
            self.off_ms,
            self.stored_j,
            self.irradiance,
            self.on,
        ] {
            out.push(',');
            if let Some(v) = cell {
                let _ = write!(out, "{v}");
            }
        }
        out.push('\n');
    }
}

/// Writes the event log as flat CSV; columns an event kind does not
/// define are left empty. Rows are formatted straight into a reusable
/// arena, which flushes every `EMIT_BLOCK_EVENTS` events,
/// byte-identical to row-at-a-time writes.
pub fn write_csv<W: Write>(mut w: W, events: &[Event]) -> io::Result<()> {
    let mut arena = String::new();
    let _ = writeln!(arena, "{CSV_HEADER}");
    for (idx, e) in events.iter().enumerate() {
        let _ = write!(arena, "{},{}", e.t_ms, e.kind.name());
        CsvRow::of(e).write(&mut arena);
        if (idx + 1) % EMIT_BLOCK_EVENTS == 0 {
            w.write_all(arena.as_bytes())?;
            arena.clear();
        }
    }
    w.write_all(arena.as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CandidateEval, OptionEval};

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                t_ms: 10,
                kind: EventKind::SchedulerPick {
                    job: 1,
                    expected_service_s: 2.5,
                    correction_s: 0.1,
                    p_in_w: 0.02,
                    candidates: vec![CandidateEval {
                        job: 1,
                        expected_service_s: 2.4,
                        oldest_input_age_s: 0.5,
                        selected: true,
                    }]
                    .into(),
                },
            },
            Event {
                t_ms: 11,
                kind: EventKind::IboDecision {
                    job: 1,
                    lambda: 0.5,
                    occupancy: 3,
                    capacity: 10,
                    expected_service_s: 2.5,
                    predicted_arrivals: 1.25,
                    ibo_predicted: false,
                    unavoidable: false,
                    chosen_option: 0,
                    options: vec![OptionEval {
                        option: 0,
                        expected_service_s: 2.5,
                        predicts_overflow: false,
                    }]
                    .into(),
                },
            },
            Event {
                t_ms: 12,
                kind: EventKind::IboDiscard {
                    occupancy: 10,
                    interesting: true,
                    device_on: false,
                    active_option: None,
                },
            },
            Event {
                t_ms: 13,
                kind: EventKind::Checkpoint,
            },
        ]
    }

    #[test]
    fn jsonl_is_one_valid_looking_object_per_line() {
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &sample_events()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"t_ms\":"));
        }
        assert!(lines[0].contains("\"kind\":\"scheduler_pick\""));
        assert!(lines[0].contains("\"candidates\":[{"));
        assert!(lines[1].contains("\"options\":[{"));
        assert!(lines[2].contains("\"active_option\":null"));
    }

    #[test]
    fn csv_has_header_and_constant_column_count() {
        let mut buf = Vec::new();
        write_csv(&mut buf, &sample_events()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let cols = lines[0].split(',').count();
        assert_eq!(lines.len(), 5);
        for line in &lines {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        }
        assert!(lines[3].contains("ibo_discard"));
    }

    /// Every event kind's row, byte for byte: which columns it fills
    /// and how each value prints.
    #[test]
    fn csv_rows_are_pinned_for_every_kind() {
        let mut events = sample_events();
        events.extend(
            [
                EventKind::PidUpdate {
                    job: 0,
                    predicted_s: 1.5,
                    observed_s: 1.75,
                    error_s: 0.25,
                    correction_s: -0.125,
                },
                EventKind::JobComplete {
                    job: 0,
                    observed_s: 1.75,
                },
                EventKind::JobStart {
                    job: 1,
                    option: 1,
                    occupancy: 4,
                },
                EventKind::BufferAdmit {
                    job: 0,
                    occupancy: 5,
                    interesting: false,
                },
                EventKind::IboDiscard {
                    occupancy: 10,
                    interesting: false,
                    device_on: true,
                    active_option: Some(1),
                },
                EventKind::PowerFailure { checkpointed: true },
                EventKind::Restore { off_ms: 1234 },
                EventKind::TxBackoff {
                    wait_ms: 250,
                    duty_capped: true,
                },
                EventKind::Snapshot(crate::event::Snapshot {
                    irradiance: 0.5,
                    stored_j: 0.001,
                    on: true,
                    occupancy: 2,
                    lambda: 0.2,
                    correction_s: 0.0,
                    active_option: Some(0),
                    ibo_discards: 3,
                }),
                EventKind::FaultInjected {
                    fault: "adc_misread",
                },
            ]
            .into_iter()
            .zip(14..)
            .map(|(kind, t_ms)| Event { t_ms, kind }),
        );
        let mut buf = Vec::new();
        write_csv(&mut buf, &events).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let rows: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(
            rows,
            [
                "10,scheduler_pick,1,,,,,2.5,,,0.1,,,,,,,,,,",
                "11,ibo_decision,1,0,3,10,0.5,2.5,,,,1.25,false,false,,,,,,,",
                "12,ibo_discard,,,10,,,,,,,,,,true,false,,,,,",
                "13,checkpoint,,,,,,,,,,,,,,,,,,,",
                "14,pid_update,0,,,,,1.5,1.75,0.25,-0.125,,,,,,,,,,",
                "15,job_complete,0,,,,,,1.75,,,,,,,,,,,,",
                "16,job_start,1,1,4,,,,,,,,,,,,,,,,",
                "17,buffer_admit,0,,5,,,,,,,,,,false,,,,,,",
                "18,ibo_discard,,1,10,,,,,,,,,,false,true,,,,,",
                "19,power_failure,,,,,,,,,,,,,,,true,,,,",
                "20,restore,,,,,,,,,,,,,,,,1234,,,",
                "21,tx_backoff,,,,,,,,,,,,,,,,250,,,",
                "22,snapshot,,0,2,,0.2,,,,0,,,,,,,,0.001,0.5,true",
                "23,fault_injected,,,,,,,,,,,,,,,,,,,",
            ]
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = Event {
            t_ms: 0,
            kind: EventKind::PidUpdate {
                job: 0,
                predicted_s: f64::NAN,
                observed_s: 1.0,
                error_s: f64::INFINITY,
                correction_s: 0.0,
            },
        };
        let json = qz_types::json::to_string(&e);
        assert!(json.contains("\"predicted_s\":null"));
        assert!(json.contains("\"error_s\":null"));
    }
}
