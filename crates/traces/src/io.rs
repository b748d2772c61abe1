//! CSV import/export for traces.
//!
//! Lets experiments exchange traces with external tools: export a
//! generated environment for plotting, or import a *real* measured trace
//! (e.g. a Gorlatova-style solar log resampled to 1 Hz) in place of the
//! synthetic generator — the substitution point for anyone who has the
//! paper's original datasets.
//!
//! Formats (headerless beyond the first comment-ish header line):
//!
//! - solar: `seconds,irradiance` with irradiance in `[0, 1]`
//! - events: `start_ms,duration_ms,interesting` with interesting `0|1`

use crate::events::{Event, EventTrace};
use crate::solar::SolarTrace;
use core::fmt;
use qz_types::{SimDuration, SimTime};
use std::io::{BufRead, BufReader, Read, Write};

/// Errors from reading a trace file.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number.
    Parse {
        /// 1-based line number of the offending record.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The file contained no records.
    Empty,
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceIoError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
            TraceIoError::Empty => write!(f, "trace file has no records"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> TraceIoError {
        TraceIoError::Io(e)
    }
}

/// Writes a solar trace as `seconds,irradiance` rows.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_solar<W: Write>(trace: &SolarTrace, mut w: W) -> Result<(), TraceIoError> {
    writeln!(w, "seconds,irradiance")?;
    for (s, irr) in trace.iter().enumerate() {
        writeln!(w, "{s},{irr}")?;
    }
    Ok(())
}

/// Reads a solar trace written by [`write_solar`] (or any
/// `seconds,irradiance` CSV with a one-line header).
///
/// Rows must be in order; the `seconds` column is validated to be the
/// row index. Finite irradiance values are clamped into `[0, 1]` by
/// [`SolarTrace::from_samples`].
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure, malformed rows (including
/// non-finite irradiance such as `nan` or `inf`), or an empty file.
pub fn read_solar<R: Read>(r: R) -> Result<SolarTrace, TraceIoError> {
    let reader = BufReader::new(r);
    let mut samples = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        if idx == 0 {
            continue; // header
        }
        let row = idx; // 1-based data row == line number here
        let mut parts = line.split(',');
        let secs: usize = parse_field(&mut parts, row, "seconds")?;
        if secs != samples.len() {
            return Err(TraceIoError::Parse {
                line: row + 1,
                message: format!("expected second {} but found {secs}", samples.len()),
            });
        }
        let irr: f32 = parse_field(&mut parts, row, "irradiance")?;
        if !irr.is_finite() {
            return Err(TraceIoError::Parse {
                line: row + 1,
                message: format!("irradiance must be finite, found {irr}"),
            });
        }
        samples.push(irr);
    }
    if samples.is_empty() {
        return Err(TraceIoError::Empty);
    }
    Ok(SolarTrace::from_samples(samples))
}

/// Writes an event trace as `start_ms,duration_ms,interesting` rows.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_events<W: Write>(trace: &EventTrace, mut w: W) -> Result<(), TraceIoError> {
    writeln!(w, "start_ms,duration_ms,interesting")?;
    for e in trace.events() {
        writeln!(
            w,
            "{},{},{}",
            e.start.as_millis(),
            e.duration.as_millis(),
            u8::from(e.interesting)
        )?;
    }
    Ok(())
}

/// Reads an event trace written by [`write_events`].
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure, malformed rows, an event
/// whose end overflows the millisecond clock, out-of-order or
/// overlapping events, or an empty file. (An empty *trace* is legal in
/// the API but an empty file is treated as an error to catch path
/// mix-ups.)
pub fn read_events<R: Read>(r: R) -> Result<EventTrace, TraceIoError> {
    let reader = BufReader::new(r);
    let mut events: Vec<Event> = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        if idx == 0 {
            continue;
        }
        let row = idx;
        let mut parts = line.split(',');
        let start_ms: u64 = parse_field(&mut parts, row, "start_ms")?;
        let duration_ms: u64 = parse_field(&mut parts, row, "duration_ms")?;
        let interesting_raw: u8 = parse_field(&mut parts, row, "interesting")?;
        let interesting = match interesting_raw {
            0 => false,
            1 => true,
            other => {
                return Err(TraceIoError::Parse {
                    line: row + 1,
                    message: format!("interesting must be 0 or 1, found {other}"),
                })
            }
        };
        if start_ms.checked_add(duration_ms).is_none() {
            return Err(TraceIoError::Parse {
                line: row + 1,
                message: format!("event end {start_ms} + {duration_ms} ms overflows"),
            });
        }
        let event = Event {
            start: SimTime::from_millis(start_ms),
            duration: SimDuration::from_millis(duration_ms),
            interesting,
        };
        if let Some(prev) = events.last() {
            if prev.end() > event.start {
                return Err(TraceIoError::Parse {
                    line: row + 1,
                    message: "events must be time-ordered and non-overlapping".into(),
                });
            }
        }
        events.push(event);
    }
    if events.is_empty() {
        return Err(TraceIoError::Empty);
    }
    Ok(EventTrace::from_events(events))
}

fn parse_field<'a, T: core::str::FromStr>(
    parts: &mut impl Iterator<Item = &'a str>,
    row: usize,
    name: &str,
) -> Result<T, TraceIoError> {
    let raw = parts.next().ok_or_else(|| TraceIoError::Parse {
        line: row + 1,
        message: format!("missing field `{name}`"),
    })?;
    raw.trim().parse().map_err(|_| TraceIoError::Parse {
        line: row + 1,
        message: format!("invalid `{name}`: {raw:?}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventTraceBuilder;
    use crate::solar::SolarTraceBuilder;
    use proptest::prelude::*;

    #[test]
    fn solar_roundtrip() {
        let trace = SolarTraceBuilder::new()
            .duration(SimDuration::from_secs(120))
            .seed(3)
            .build();
        let mut buf = Vec::new();
        write_solar(&trace, &mut buf).unwrap();
        let back = read_solar(buf.as_slice()).unwrap();
        assert_eq!(back.samples().len(), trace.samples().len());
        for (a, b) in back.iter().zip(trace.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn events_roundtrip() {
        let trace = EventTraceBuilder::new().event_count(50).seed(5).build();
        let mut buf = Vec::new();
        write_events(&trace, &mut buf).unwrap();
        let back = read_events(buf.as_slice()).unwrap();
        assert_eq!(&back, &trace);
    }

    #[test]
    fn rejects_garbage_rows() {
        let err = read_solar("seconds,irradiance\n0,hello\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse { line: 2, .. }), "{err}");
        let err = read_events("h\n10,20\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse { .. }), "{err}");
    }

    #[test]
    fn rejects_out_of_order_events() {
        let csv = "h\n1000,500,1\n1200,100,0\n";
        let err = read_events(csv.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("non-overlapping"), "{err}");
    }

    #[test]
    fn rejects_gap_in_solar_seconds() {
        let err = read_solar("h\n0,0.5\n2,0.5\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected second 1"), "{err}");
    }

    #[test]
    fn rejects_bad_interesting_flag() {
        let err = read_events("h\n0,100,7\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("0 or 1"), "{err}");
    }

    #[test]
    fn rejects_non_finite_irradiance() {
        for bad in ["nan", "inf", "-inf", "1e39"] {
            let err = read_solar(format!("h\n0,0.5\n1,{bad}\n").as_bytes()).unwrap_err();
            assert!(matches!(err, TraceIoError::Parse { line: 3, .. }), "{err}");
        }
    }

    #[test]
    fn rejects_event_end_overflow() {
        let err = read_events("h\n18446744073709551615,5,1\n20,0,0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse { line: 2, .. }), "{err}");
        // Ending exactly at the last representable millisecond is fine.
        let trace = read_events("h\n18446744073709551610,5,1\n".as_bytes()).unwrap();
        assert_eq!(trace.end().as_millis(), u64::MAX);
    }

    #[test]
    fn empty_files_are_errors() {
        assert!(matches!(
            read_solar("h\n".as_bytes()),
            Err(TraceIoError::Empty)
        ));
        assert!(matches!(
            read_events("h\n".as_bytes()),
            Err(TraceIoError::Empty)
        ));
    }

    /// A real written trace of each kind, for the mutation property.
    fn written_traces() -> [Vec<u8>; 2] {
        let mut solar = Vec::new();
        let trace = SolarTraceBuilder::new()
            .duration(SimDuration::from_secs(40))
            .seed(11)
            .build();
        write_solar(&trace, &mut solar).unwrap();
        let mut events = Vec::new();
        let trace = EventTraceBuilder::new().event_count(20).seed(11).build();
        write_events(&trace, &mut events).unwrap();
        [solar, events]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        #[test]
        fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            // Both raw bytes and text over the format's own alphabet, so
            // most inputs get past the header and into the row parsers.
            let alphabet = b"0123456789,\n.-+eEnaifNI";
            let text: Vec<u8> = bytes
                .iter()
                .map(|&b| alphabet[usize::from(b) % alphabet.len()])
                .collect();
            for input in [&bytes, &text] {
                if let Ok(trace) = read_solar(input.as_slice()) {
                    prop_assert!(trace.samples().iter().all(|s| (0.0..=1.0).contains(s)));
                }
                if let Ok(trace) = read_events(input.as_slice()) {
                    prop_assert!(trace.events().iter().all(|e| e.start <= e.end()));
                }
            }
        }

        #[test]
        fn single_byte_mutations_never_panic(
            pick in 0usize..2,
            at in 0usize..1_000_000,
            byte in any::<u8>(),
        ) {
            let mut bytes = written_traces()[pick].clone();
            let at = at % bytes.len();
            bytes[at] = byte;
            let _ = read_solar(bytes.as_slice());
            let _ = read_events(bytes.as_slice());
        }

        #[test]
        fn solar_write_read_write_is_identity(
            bits in proptest::collection::vec(any::<u32>(), 1..50)
        ) {
            let samples: Vec<f32> = bits
                .into_iter()
                .map(f32::from_bits)
                .filter(|v| v.is_finite())
                .collect();
            prop_assume!(!samples.is_empty());
            let mut first = Vec::new();
            write_solar(&SolarTrace::from_samples(samples), &mut first).unwrap();
            let mut second = Vec::new();
            write_solar(&read_solar(first.as_slice()).unwrap(), &mut second).unwrap();
            prop_assert_eq!(first, second);
        }

        #[test]
        fn events_write_read_write_is_identity(
            rows in proptest::collection::vec((0u64..1 << 40, 0u64..1 << 40, any::<bool>()), 1..50)
        ) {
            let mut start = 0u64;
            let events: Vec<Event> = rows
                .into_iter()
                .map(|(gap, duration, interesting)| {
                    let event = Event {
                        start: SimTime::from_millis(start + gap),
                        duration: SimDuration::from_millis(duration),
                        interesting,
                    };
                    start += gap + duration;
                    event
                })
                .collect();
            let mut first = Vec::new();
            write_events(&EventTrace::from_events(events), &mut first).unwrap();
            let mut second = Vec::new();
            write_events(&read_events(first.as_slice()).unwrap(), &mut second).unwrap();
            prop_assert_eq!(first, second);
        }
    }
}
