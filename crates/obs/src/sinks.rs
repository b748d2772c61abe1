//! Event sinks: an unbounded recorder and a bounded ring buffer.

use alloc::vec::Vec;

use crate::event::Event;
use crate::observer::Observer;

/// Records every event, unbounded. The workhorse sink behind
/// `qz trace` and the integration tests.
#[derive(Debug, Default)]
pub struct RecordingObserver {
    events: Vec<Event>,
}

impl RecordingObserver {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The events recorded so far, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Takes the recorded events, leaving the recorder empty.
    pub fn take_events(&mut self) -> Vec<Event> {
        core::mem::take(&mut self.events)
    }
}

impl Observer for RecordingObserver {
    fn on_event(&mut self, event: Event) {
        self.events.push(event);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn core::any::Any> {
        Some(self)
    }
}

/// Keeps only the most recent `capacity` events, overwriting the
/// oldest — the shape a firmware port with a fixed trace arena would
/// use. Tracks how many events were dropped.
#[derive(Debug, Clone)]
pub struct RingBufferObserver {
    buf: Vec<Event>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl RingBufferObserver {
    /// A ring holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        RingBufferObserver {
            buf: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            dropped: 0,
        }
    }

    /// How many events were overwritten after the ring filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// How many events are currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.buf[self.head..].iter().chain(&self.buf[..self.head])
    }
}

impl Observer for RingBufferObserver {
    fn on_event(&mut self, event: Event) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn core::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(t_ms: u64) -> Event {
        Event {
            t_ms,
            kind: EventKind::Checkpoint,
        }
    }

    #[test]
    fn recorder_accumulates_and_takes() {
        let mut rec = RecordingObserver::new();
        rec.on_event(ev(1));
        rec.on_event(ev(2));
        assert_eq!(rec.events().len(), 2);
        let taken = rec.take_events();
        assert_eq!(taken.len(), 2);
        assert!(rec.events().is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_in_order() {
        let mut ring = RingBufferObserver::new(3);
        for t in 1..=5 {
            ring.on_event(ev(t));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let kept: Vec<u64> = ring.iter().map(|e| e.t_ms).collect();
        assert_eq!(kept, [3, 4, 5]);
    }

    #[test]
    fn ring_below_capacity_keeps_all() {
        let mut ring = RingBufferObserver::new(8);
        ring.on_event(ev(1));
        ring.on_event(ev(2));
        assert!(!ring.is_empty());
        assert_eq!(ring.dropped(), 0);
        let kept: Vec<u64> = ring.iter().map(|e| e.t_ms).collect();
        assert_eq!(kept, [1, 2]);
    }
}
