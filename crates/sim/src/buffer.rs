//! The shared input buffer with per-job queues.
//!
//! All buffered inputs live in one memory pool of fixed capacity (the
//! paper's Apollo 4 configuration holds 10 compressed images). Each input
//! is tagged with the job that will process it next, forming one FIFO
//! queue per job over the shared pool. An input occupies a buffer slot
//! from the moment it is stored until its final job completes (including
//! while a job is actively processing it).

use quetzal::JobId;
use qz_types::SimTime;
use std::collections::VecDeque;

/// One buffered input (a compressed frame) awaiting processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferEntry {
    /// When the frame was captured.
    pub captured_at: SimTime,
    /// Ground-truth interestingness of the event the frame witnessed.
    pub interesting: bool,
}

/// The shared input buffer.
#[derive(Debug, Clone)]
pub struct InputBuffer {
    queues: Vec<VecDeque<BufferEntry>>,
    /// At most `u32::MAX` (checked in [`InputBuffer::new`]), so
    /// occupancy, which never exceeds it, fits the `u32` that the
    /// runtime's buffer view and the `qz-obs` events carry.
    capacity: u32,
    /// Slots held by entries popped for active processing but not yet
    /// released.
    in_flight: usize,
    /// Cached total of queued + in-flight slots, maintained by every
    /// mutation so the per-tick `occupancy`/`is_idle` reads are O(1)
    /// instead of scanning all queues.
    occupied: u32,
}

impl InputBuffer {
    /// Creates a buffer with one queue per job and a total slot capacity.
    /// Use `u32::MAX` for an "infinite" (Ideal-baseline) buffer.
    ///
    /// # Panics
    ///
    /// Panics if `num_jobs` is zero, or `capacity` is zero or above
    /// `u32::MAX` (occupancy is reported as a `u32`, so a larger
    /// capacity is refused here rather than truncated in a report).
    pub fn new(num_jobs: usize, capacity: usize) -> InputBuffer {
        assert!(num_jobs > 0, "need at least one job queue");
        assert!(capacity > 0, "buffer capacity must be positive");
        let Ok(capacity) = u32::try_from(capacity) else {
            panic!("buffer capacity {capacity} exceeds u32::MAX");
        };
        InputBuffer {
            queues: vec![VecDeque::new(); num_jobs],
            capacity,
            in_flight: 0,
            occupied: 0,
        }
    }

    /// Total slot capacity.
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Occupied slots: queued entries plus any in-flight entry.
    #[inline]
    pub fn occupancy(&self) -> u32 {
        debug_assert_eq!(
            self.occupied as usize,
            self.queues.iter().map(VecDeque::len).sum::<usize>() + self.in_flight,
            "cached occupancy out of sync"
        );
        self.occupied
    }

    /// Queued entries awaiting a specific job.
    pub fn queue_len(&self, job: JobId) -> usize {
        self.queues[job.index()].len()
    }

    /// `true` if every queue is empty and nothing is in flight.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.occupancy() == 0
    }

    /// `true` if a new entry cannot be stored.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.occupancy() >= self.capacity
    }

    /// Stores a fresh capture into `job`'s queue.
    ///
    /// Returns `false` — an input buffer overflow — when the buffer is
    /// full; the entry is lost.
    #[must_use]
    pub fn store(&mut self, job: JobId, entry: BufferEntry) -> bool {
        if self.is_full() {
            return false;
        }
        self.queues[job.index()].push_back(entry);
        self.occupied += 1;
        true
    }

    /// The capture time of the oldest input queued for `job`. Read for
    /// every job on every scheduling round — every tick in the busy
    /// kernel's scheduler regime — so it must stay an O(1) front peek.
    #[inline]
    pub fn oldest(&self, job: JobId) -> Option<SimTime> {
        self.queues[job.index()].front().map(|e| e.captured_at)
    }

    /// Pops the oldest input for `job` for processing. The entry's slot
    /// stays occupied (in flight) until [`InputBuffer::release`] or
    /// [`InputBuffer::forward`].
    pub fn take(&mut self, job: JobId) -> Option<BufferEntry> {
        let entry = self.queues[job.index()].pop_front()?;
        self.in_flight += 1;
        Some(entry)
    }

    /// Releases an in-flight entry's slot (its processing finished and
    /// the input leaves the buffer).
    ///
    /// # Panics
    ///
    /// Panics if nothing is in flight.
    pub fn release(&mut self) {
        assert!(self.in_flight > 0, "release without a matching take");
        self.in_flight -= 1;
        self.occupied -= 1;
    }

    /// Moves an in-flight entry to another job's queue (the input needs
    /// further processing; it keeps its buffer slot and capture time).
    ///
    /// # Panics
    ///
    /// Panics if nothing is in flight.
    pub fn forward(&mut self, entry: BufferEntry, to: JobId) {
        assert!(self.in_flight > 0, "forward without a matching take");
        self.in_flight -= 1;
        self.queues[to.index()].push_back(entry);
    }

    /// Iterates the queued entries of every job (for end-of-run
    /// accounting of pending inputs).
    pub fn pending(&self) -> impl Iterator<Item = &BufferEntry> {
        self.queues.iter().flatten()
    }

    /// Captures the buffer's evolving contents for a simulation
    /// snapshot (capacity is config, not state).
    pub fn save_state(&self) -> InputBufferState {
        InputBufferState {
            queues: self
                .queues
                .iter()
                .map(|q| q.iter().copied().collect())
                .collect(),
            in_flight: self.in_flight,
        }
    }

    /// Restores contents captured by [`InputBuffer::save_state`] into a
    /// buffer built from the same configuration.
    ///
    /// # Errors
    ///
    /// Rejects a snapshot whose queue count differs from the live
    /// buffer's, or whose total occupancy exceeds the live capacity.
    pub fn restore_state(&mut self, state: &InputBufferState) -> Result<(), String> {
        if state.queues.len() != self.queues.len() {
            return Err(format!(
                "buffer queue count mismatch: snapshot {} vs live {}",
                state.queues.len(),
                self.queues.len()
            ));
        }
        let occupied = state.queues.iter().map(Vec::len).sum::<usize>() + state.in_flight;
        let Some(occupied) = u32::try_from(occupied).ok().filter(|&o| o <= self.capacity) else {
            return Err(format!(
                "snapshot occupancy {occupied} exceeds buffer capacity {}",
                self.capacity
            ));
        };
        for (live, snap) in self.queues.iter_mut().zip(&state.queues) {
            live.clear();
            live.extend(snap.iter().copied());
        }
        self.in_flight = state.in_flight;
        self.occupied = occupied;
        Ok(())
    }
}

/// Serializable evolving contents of an [`InputBuffer`], captured by
/// [`InputBuffer::save_state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputBufferState {
    /// Queued entries per job, in FIFO order.
    pub queues: Vec<Vec<BufferEntry>>,
    /// Slots held by entries popped for processing but not released.
    pub in_flight: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn job(i: u8) -> JobId {
        // JobId's field is crate-private to quetzal; construct through a
        // tiny spec instead.
        use quetzal::model::{AppSpecBuilder, TaskCost};
        use qz_types::{Seconds, Watts};
        let mut b = AppSpecBuilder::new();
        let t = b
            .fixed_task("t", TaskCost::new(Seconds(1.0), Watts(0.01)))
            .unwrap();
        let j0 = b.job("j0", vec![t]).unwrap();
        let j1 = b.job("j1", vec![t]).unwrap();
        let j2 = b.job("j2", vec![t]).unwrap();
        [j0, j1, j2][i as usize]
    }

    fn entry(ms: u64) -> BufferEntry {
        BufferEntry {
            captured_at: SimTime::from_millis(ms),
            interesting: false,
        }
    }

    #[test]
    fn store_and_overflow() {
        let mut b = InputBuffer::new(2, 2);
        assert!(b.store(job(0), entry(1)));
        assert!(b.store(job(1), entry(2)));
        assert!(b.is_full());
        assert!(!b.store(job(0), entry(3)), "third store must overflow");
        assert_eq!(b.occupancy(), 2);
    }

    #[test]
    fn fifo_order_per_queue() {
        let mut b = InputBuffer::new(1, 10);
        b.store(job(0), entry(5)).then_some(()).unwrap();
        assert!(b.store(job(0), entry(7)));
        assert_eq!(b.oldest(job(0)), Some(SimTime::from_millis(5)));
        let e = b.take(job(0)).unwrap();
        assert_eq!(e.captured_at, SimTime::from_millis(5));
        assert_eq!(b.oldest(job(0)), Some(SimTime::from_millis(7)));
    }

    #[test]
    fn in_flight_entry_occupies_slot() {
        let mut b = InputBuffer::new(1, 2);
        assert!(b.store(job(0), entry(1)));
        assert!(b.store(job(0), entry(2)));
        let _e = b.take(job(0)).unwrap();
        assert_eq!(b.occupancy(), 2, "processing does not free the slot");
        assert!(b.is_full());
        b.release();
        assert_eq!(b.occupancy(), 1);
        assert!(!b.is_full());
    }

    #[test]
    fn forward_keeps_slot_and_capture_time() {
        let mut b = InputBuffer::new(2, 2);
        assert!(b.store(job(0), entry(3)));
        let e = b.take(job(0)).unwrap();
        b.forward(e, job(1));
        assert_eq!(b.occupancy(), 1);
        assert_eq!(b.queue_len(job(1)), 1);
        assert_eq!(b.oldest(job(1)), Some(SimTime::from_millis(3)));
    }

    #[test]
    fn idle_detection() {
        let mut b = InputBuffer::new(2, 4);
        assert!(b.is_idle());
        assert!(b.store(job(1), entry(1)));
        assert!(!b.is_idle());
        let e = b.take(job(1)).unwrap();
        assert!(!b.is_idle(), "in-flight work is not idle");
        b.forward(e, job(0));
        assert!(!b.is_idle());
        let _ = b.take(job(0)).unwrap();
        b.release();
        assert!(b.is_idle());
    }

    #[test]
    fn pending_iterates_all_queues() {
        let mut b = InputBuffer::new(3, 10);
        assert!(b.store(job(0), entry(1)));
        assert!(b.store(job(2), entry(2)));
        assert_eq!(b.pending().count(), 2);
    }

    #[test]
    fn infinite_capacity_never_overflows() {
        let mut b = InputBuffer::new(1, usize::try_from(u32::MAX).unwrap());
        for i in 0..10_000 {
            assert!(b.store(job(0), entry(i)));
        }
        assert!(!b.is_full());
    }

    #[test]
    fn state_roundtrip_preserves_queues_and_in_flight() {
        let mut b = InputBuffer::new(3, 5);
        assert!(b.store(job(0), entry(1)));
        assert!(b.store(job(1), entry(2)));
        assert!(b.store(job(1), entry(3)));
        let _ = b.take(job(1)).unwrap();
        let state = b.save_state();
        let mut fresh = InputBuffer::new(3, 5);
        fresh.restore_state(&state).unwrap();
        assert_eq!(fresh.occupancy(), b.occupancy());
        assert_eq!(fresh.queue_len(job(1)), 1);
        assert_eq!(fresh.oldest(job(1)), Some(SimTime::from_millis(3)));
        assert_eq!(fresh.save_state(), state);
        // The restored in-flight slot releases normally.
        fresh.release();
        assert_eq!(fresh.occupancy(), 2);
    }

    #[test]
    fn restore_rejects_mismatched_shape() {
        let mut b = InputBuffer::new(2, 5);
        assert!(b.store(job(0), entry(1)));
        let state = b.save_state();
        assert!(InputBuffer::new(3, 5).restore_state(&state).is_err());
        let mut full = InputBuffer::new(2, 10);
        for i in 0..10 {
            assert!(full.store(job(0), entry(i)));
        }
        assert!(InputBuffer::new(2, 5)
            .restore_state(&full.save_state())
            .is_err());
    }

    #[test]
    #[should_panic(expected = "release without")]
    fn release_without_take_panics() {
        InputBuffer::new(1, 1).release();
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        InputBuffer::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn oversized_capacity_rejected() {
        InputBuffer::new(1, usize::try_from(u64::from(u32::MAX) + 1).unwrap());
    }

    proptest! {
        #[test]
        fn occupancy_never_exceeds_capacity(
            ops in proptest::collection::vec((0u8..3, any::<bool>()), 1..200)
        ) {
            let mut b = InputBuffer::new(3, 5);
            let mut held: Vec<BufferEntry> = Vec::new();
            for (q, is_store) in ops {
                if is_store {
                    let _ = b.store(job(q), entry(q as u64));
                } else if let Some(e) = b.take(job(q)) {
                    held.push(e);
                }
                // Return one held entry occasionally to exercise release.
                if held.len() > 2 {
                    held.pop();
                    b.release();
                }
                prop_assert!(b.occupancy() <= 5);
            }
        }
    }
}
