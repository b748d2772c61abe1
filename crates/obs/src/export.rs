//! JSONL and CSV exporters for event logs (`std` only).
//!
//! JSONL gives one self-describing object per event (nested
//! candidate/option arrays included), written through the workspace's
//! one JSON writer ([`qz_types::json::Writer`]); CSV flattens to a
//! fixed column set shared by all event kinds, leaving unused columns
//! empty — convenient for spreadsheet and pandas post-processing.

use std::fmt::Write as _;
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
/// [`EMIT_BLOCK_EVENTS`] events — byte-identical to writing each line
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

/// Writes the event log as flat CSV; columns an event kind does not
/// define are left empty. Rows accumulate in a reusable arena and
/// flush every [`EMIT_BLOCK_EVENTS`] events, byte-identical to
/// row-at-a-time writes.
pub fn write_csv<W: Write>(mut w: W, events: &[Event]) -> io::Result<()> {
    let mut arena = String::new();
    let _ = writeln!(arena, "{CSV_HEADER}");
    for (idx, e) in events.iter().enumerate() {
        // Column slots, defaulted empty, filled per kind.
        let mut job = String::new();
        let mut option = String::new();
        let mut occupancy = String::new();
        let mut capacity = String::new();
        let mut lambda = String::new();
        let mut expected = String::new();
        let mut observed = String::new();
        let mut error = String::new();
        let mut correction = String::new();
        let mut predicted_arrivals = String::new();
        let mut ibo_predicted = String::new();
        let mut unavoidable = String::new();
        let mut interesting = String::new();
        let mut device_on = String::new();
        let mut checkpointed = String::new();
        let mut off_ms = String::new();
        let mut stored_j = String::new();
        let mut irradiance = String::new();
        let mut on = String::new();
        match &e.kind {
            EventKind::SchedulerPick {
                job: j,
                expected_service_s,
                correction_s,
                ..
            } => {
                job = j.to_string();
                expected = expected_service_s.to_string();
                correction = correction_s.to_string();
            }
            EventKind::IboDecision {
                job: j,
                lambda: l,
                occupancy: occ,
                capacity: cap,
                expected_service_s,
                predicted_arrivals: pa,
                ibo_predicted: ip,
                unavoidable: ua,
                chosen_option,
                ..
            } => {
                job = j.to_string();
                lambda = l.to_string();
                occupancy = occ.to_string();
                capacity = cap.to_string();
                expected = expected_service_s.to_string();
                predicted_arrivals = pa.to_string();
                ibo_predicted = ip.to_string();
                unavoidable = ua.to_string();
                option = chosen_option.to_string();
            }
            EventKind::PidUpdate {
                job: j,
                predicted_s,
                observed_s,
                error_s,
                correction_s,
            } => {
                job = j.to_string();
                expected = predicted_s.to_string();
                observed = observed_s.to_string();
                error = error_s.to_string();
                correction = correction_s.to_string();
            }
            EventKind::JobComplete { job: j, observed_s } => {
                job = j.to_string();
                observed = observed_s.to_string();
            }
            EventKind::JobStart {
                job: j,
                option: o,
                occupancy: occ,
            } => {
                job = j.to_string();
                option = o.to_string();
                occupancy = occ.to_string();
            }
            EventKind::BufferAdmit {
                job: j,
                occupancy: occ,
                interesting: i,
            } => {
                job = j.to_string();
                occupancy = occ.to_string();
                interesting = i.to_string();
            }
            EventKind::IboDiscard {
                occupancy: occ,
                interesting: i,
                device_on: d,
                active_option,
            } => {
                occupancy = occ.to_string();
                interesting = i.to_string();
                device_on = d.to_string();
                if let Some(o) = active_option {
                    option = o.to_string();
                }
            }
            EventKind::PowerFailure { checkpointed: c } => checkpointed = c.to_string(),
            EventKind::Checkpoint => {}
            EventKind::Restore { off_ms: o } => off_ms = o.to_string(),
            // Backoff waits reuse the generic off_ms duration column.
            EventKind::TxBackoff { wait_ms, .. } => off_ms = wait_ms.to_string(),
            EventKind::Snapshot(snap) => {
                occupancy = snap.occupancy.to_string();
                lambda = snap.lambda.to_string();
                correction = snap.correction_s.to_string();
                stored_j = snap.stored_j.to_string();
                irradiance = snap.irradiance.to_string();
                on = snap.on.to_string();
                if let Some(o) = snap.active_option {
                    option = o.to_string();
                }
            }
            // The fault class is visible through the kind column only;
            // fault events carry no numeric payload.
            EventKind::FaultInjected { .. } => {}
        }
        let _ = writeln!(
            arena,
            "{},{},{job},{option},{occupancy},{capacity},{lambda},{expected},{observed},\
             {error},{correction},{predicted_arrivals},{ibo_predicted},{unavoidable},\
             {interesting},{device_on},{checkpointed},{off_ms},{stored_j},{irradiance},{on}",
            e.t_ms,
            e.kind.name()
        );
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
                    }],
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
                    }],
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
