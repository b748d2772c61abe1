//! Periodic device-state telemetry.
//!
//! Recording the simulated device's internal state over time — stored
//! energy, buffer occupancy, power state, the runtime's λ estimate and
//! PID correction — is how the Fig. 1/Fig. 2-style timelines are
//! produced and how scheduling pathologies are diagnosed (the tuning
//! notes in `DESIGN.md` all came from these traces).
//!
//! The engine emits one periodic state sample per simulated second as a
//! [`qz_obs::Snapshot`] event, and that event is the only channel:
//! [`Telemetry`] is an ordinary [`Observer`] that keeps the `Snapshot`
//! events and skips the rest. Install it with
//! [`Simulation::set_observer`](crate::Simulation::set_observer), take it
//! back after the run with [`Telemetry::take_from`], and export it with
//! [`Telemetry::write_csv`]. [`Telemetry::from_events`] rebuilds the
//! same log from a recorded event stream.

use core::fmt;
use qz_obs::{Event, EventKind, Observer, Snapshot};
use qz_types::{Joules, SimTime};
use std::io::Write;

/// One periodic snapshot of device state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySample {
    /// Sample instant.
    pub t: SimTime,
    /// Environment irradiance fraction at `t`.
    pub irradiance: f64,
    /// Usable stored energy.
    pub stored: Joules,
    /// Whether the device was powered on.
    pub on: bool,
    /// Buffer occupancy (queued + in flight).
    pub occupancy: u32,
    /// The runtime's arrival-rate estimate λ.
    pub lambda: f64,
    /// The runtime's PID correction, seconds.
    pub correction: f64,
    /// Degradation option of the executing job (`None` when idle).
    pub active_option: Option<u8>,
    /// Cumulative IBO discards so far.
    pub ibo_discards: u64,
}

impl TelemetrySample {
    /// Rebuilds a sample from a [`Snapshot`] event payload.
    pub fn from_snapshot(t: SimTime, snap: &Snapshot) -> TelemetrySample {
        TelemetrySample {
            t,
            irradiance: snap.irradiance,
            stored: Joules(snap.stored_j),
            on: snap.on,
            occupancy: snap.occupancy,
            lambda: snap.lambda,
            correction: snap.correction_s,
            active_option: snap.active_option,
            ibo_discards: snap.ibo_discards,
        }
    }
}

/// A recorded sequence of periodic snapshots.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Telemetry {
    samples: Vec<TelemetrySample>,
}

impl Telemetry {
    /// Rebuilds telemetry from the `Snapshot` events in a recorded
    /// event log (other event kinds are skipped).
    pub fn from_events(events: &[Event]) -> Telemetry {
        let mut telemetry = Telemetry::default();
        for event in events {
            telemetry.record(event);
        }
        telemetry
    }

    /// Keeps `event`'s sample if it is a `Snapshot`: the single path
    /// behind both [`Observer::on_event`] and
    /// [`Telemetry::from_events`].
    pub fn record(&mut self, event: &Event) {
        if let EventKind::Snapshot(snap) = &event.kind {
            self.samples.push(TelemetrySample::from_snapshot(
                SimTime::from_millis(event.t_ms),
                snap,
            ));
        }
    }

    /// Takes the samples out of `observer` if it is a [`Telemetry`]
    /// (the observer is left empty), the way
    /// [`qz_obs::take_recorded`] drains a recording sink.
    pub fn take_from(observer: &mut dyn Observer) -> Option<Telemetry> {
        observer
            .as_any_mut()?
            .downcast_mut::<Telemetry>()
            .map(core::mem::take)
    }

    /// All samples, in time order.
    pub fn samples(&self) -> &[TelemetrySample] {
        &self.samples
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Fraction of samples with the device powered on.
    pub fn on_fraction(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|s| s.on).count() as f64 / self.samples.len() as f64
    }

    /// Maximum buffer occupancy observed at any sample.
    pub fn peak_occupancy(&self) -> u32 {
        self.samples.iter().map(|s| s.occupancy).max().unwrap_or(0)
    }

    /// Writes the samples as CSV
    /// (`t_s,irradiance,stored_mj,on,occupancy,lambda,correction,option,ibo`).
    /// The `option` column is `-1` while the device is idle.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_csv<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        use core::fmt::Write as _;
        // Rows accumulate in a reusable arena and flush in blocks —
        // identical bytes to row-at-a-time writes, fewer writer calls
        // (mirrors qz-obs's export arena).
        const BLOCK_ROWS: usize = 64;
        let mut arena = String::new();
        arena.push_str("t_s,irradiance,stored_mj,on,occupancy,lambda,correction,option,ibo\n");
        for (i, s) in self.samples.iter().enumerate() {
            let _ = writeln!(
                arena,
                "{},{:.4},{:.3},{},{},{:.3},{:.3},{},{}",
                s.t.as_millis() as f64 / 1e3,
                s.irradiance,
                s.stored.value() * 1e3,
                u8::from(s.on),
                s.occupancy,
                s.lambda,
                s.correction,
                s.active_option.map_or(-1, i64::from),
                s.ibo_discards,
            );
            if (i + 1) % BLOCK_ROWS == 0 {
                w.write_all(arena.as_bytes())?;
                arena.clear();
            }
        }
        w.write_all(arena.as_bytes())?;
        Ok(())
    }
}

impl Observer for Telemetry {
    fn on_event(&mut self, event: Event) {
        self.record(&event);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn core::any::Any> {
        Some(self)
    }
}

impl fmt::Display for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} samples, on {:.0}%, peak occupancy {}",
            self.len(),
            self.on_fraction() * 100.0,
            self.peak_occupancy()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t_s: u64, on: bool, occ: u32, option: Option<u8>) -> Event {
        Event {
            t_ms: t_s * 1000,
            kind: EventKind::Snapshot(Snapshot {
                irradiance: 0.5,
                stored_j: 0.1,
                on,
                occupancy: occ,
                lambda: 0.4,
                correction_s: 0.1,
                active_option: option,
                ibo_discards: 2,
            }),
        }
    }

    #[test]
    // One of two samples powered on gives on_fraction exactly 1/2, a
    // dyadic value with no rounding, so strict float comparison is the
    // point.
    #[allow(clippy::float_cmp)]
    fn accumulates_and_summarizes() {
        let mut t = Telemetry::default();
        assert!(t.is_empty());
        t.on_event(sample(0, true, 3, Some(0)));
        t.on_event(Event {
            t_ms: 500,
            kind: EventKind::Checkpoint,
        });
        t.on_event(sample(1, false, 7, None));
        assert_eq!(t.len(), 2, "only Snapshot events are kept");
        assert_eq!(t.on_fraction(), 0.5);
        assert_eq!(t.peak_occupancy(), 7);
        assert!(t.to_string().contains("2 samples"));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let t = Telemetry::from_events(&[sample(0, true, 3, Some(1)), sample(1, false, 0, None)]);
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("t_s,"));
        assert!(lines[1].contains(",1,3,"), "{}", lines[1]);
        assert!(lines[2].ends_with(",-1,2"), "{}", lines[2]);
    }

    #[test]
    fn snapshot_round_trip_preserves_sample() {
        let rebuilt = Telemetry::from_events(&[sample(7, true, 5, Some(1))]);
        assert_eq!(
            rebuilt.samples(),
            [TelemetrySample {
                t: SimTime::from_secs(7),
                irradiance: 0.5,
                stored: Joules(0.1),
                on: true,
                occupancy: 5,
                lambda: 0.4,
                correction: 0.1,
                active_option: Some(1),
                ibo_discards: 2,
            }]
        );
    }

    #[test]
    fn take_from_drains_an_installed_telemetry_observer() {
        let mut observer: Box<dyn Observer> = Box::new(Telemetry::default());
        observer.on_event(sample(0, true, 1, None));
        let taken = Telemetry::take_from(observer.as_mut()).expect("a telemetry observer");
        assert_eq!(taken.len(), 1);
        assert!(Telemetry::take_from(observer.as_mut()).unwrap().is_empty());
        assert!(Telemetry::take_from(&mut qz_obs::NoopObserver).is_none());
    }
}
