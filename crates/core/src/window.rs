//! Fixed-size bit-vector history windows (paper §5.1).
//!
//! Quetzal tracks task execution probability and input-arrival rate with
//! bit-vectors: a 1 means "the task executed for this input" / "this
//! capture was stored", a 0 the opposite. Each window keeps a running
//! 1-counter that is updated only when the window changes, so querying
//! the estimate is O(1) — exactly the structure the paper describes for
//! its software library.

use alloc::format;
use alloc::string::String;
use alloc::vec;
use alloc::vec::Vec;

/// A ring-buffered window of bits with a running count of ones.
///
/// # Examples
///
/// ```
/// use quetzal::window::BitWindow;
///
/// let mut w = BitWindow::new(4);
/// w.push(true);
/// w.push(true);
/// w.push(false);
/// assert_eq!(w.ones(), 2);
/// assert_eq!(w.fraction(), Some(2.0 / 3.0)); // over the filled portion
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitWindow {
    blocks: Vec<u64>,
    capacity: usize,
    /// Next write position, in bits.
    head: usize,
    /// Number of bits pushed so far, saturating at `capacity`.
    filled: usize,
    ones: usize,
}

impl BitWindow {
    /// Largest supported window, bounding memory to what an MCU library
    /// would reserve.
    pub const MAX_CAPACITY: usize = 4096;

    /// Creates a window holding the most recent `capacity` bits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds [`BitWindow::MAX_CAPACITY`].
    pub fn new(capacity: usize) -> BitWindow {
        assert!(
            (1..=BitWindow::MAX_CAPACITY).contains(&capacity),
            "window capacity must be in 1..={}",
            BitWindow::MAX_CAPACITY
        );
        BitWindow {
            blocks: vec![0; capacity.div_ceil(64)],
            capacity,
            head: 0,
            filled: 0,
            ones: 0,
        }
    }

    /// The window's fixed capacity in bits.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many bits have been recorded (saturates at the capacity).
    #[inline]
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// `true` if no bits have been recorded yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Number of ones currently in the window (the "1-counter").
    #[inline]
    pub fn ones(&self) -> usize {
        self.ones
    }

    /// Appends a bit, evicting the oldest once the window is full.
    pub fn push(&mut self, bit: bool) {
        let idx = self.head;
        let (block, mask) = (idx / 64, 1u64 << (idx % 64));
        if self.filled == self.capacity {
            // Evicting: subtract the outgoing bit from the counter.
            if self.blocks[block] & mask != 0 {
                self.ones -= 1;
            }
        } else {
            self.filled += 1;
        }
        if bit {
            self.blocks[block] |= mask;
            self.ones += 1;
        } else {
            self.blocks[block] &= !mask;
        }
        self.head = (self.head + 1) % self.capacity;
    }

    /// Fraction of ones over the *filled* portion, or `None` before any
    /// bit has been recorded. Callers supply their own cold-start default
    /// (the runtime uses 1.0 — conservative for IBO prediction).
    pub fn fraction(&self) -> Option<f64> {
        if self.filled == 0 {
            None
        } else {
            Some(self.ones as f64 / self.filled as f64)
        }
    }

    /// Clears the window to its initial empty state.
    pub fn clear(&mut self) {
        self.blocks.fill(0);
        self.head = 0;
        self.filled = 0;
        self.ones = 0;
    }

    /// Captures the window's contents for a simulation snapshot.
    pub fn save_state(&self) -> BitWindowState {
        BitWindowState {
            capacity: self.capacity,
            blocks: self.blocks.clone(),
            head: self.head,
            filled: self.filled,
            ones: self.ones,
        }
    }

    /// Restores contents captured by [`BitWindow::save_state`].
    ///
    /// # Errors
    ///
    /// Rejects a state whose shape does not match this window (different
    /// capacity) or that no sequence of pushes produces: cursors out of
    /// range, a head that is not at the fill mark of a filling window,
    /// set bits outside the filled positions, or a 1-counter that is not
    /// the popcount of the filled positions. A snapshot can therefore
    /// never silently corrupt the running counter (an overcounted bit
    /// would underflow it on eviction).
    pub fn restore_state(&mut self, state: &BitWindowState) -> Result<(), String> {
        if state.capacity != self.capacity {
            return Err(format!(
                "bit-window capacity mismatch: snapshot {} vs live {}",
                state.capacity, self.capacity
            ));
        }
        let inconsistent = || String::from("bit-window state is internally inconsistent");
        if state.blocks.len() != self.blocks.len()
            || state.head >= state.capacity
            || state.filled > state.capacity
            || (state.filled < state.capacity && state.head != state.filled)
        {
            return Err(inconsistent());
        }
        // Positions `[0, filled)` hold bits; every other bit is zero.
        let mut ones = 0;
        for (i, &block) in state.blocks.iter().enumerate() {
            let valid = state.filled.saturating_sub(i * 64).min(64);
            let mask = if valid == 64 {
                u64::MAX
            } else {
                (1 << valid) - 1
            };
            if block & !mask != 0 {
                return Err(inconsistent());
            }
            ones += block.count_ones() as usize;
        }
        if ones != state.ones {
            return Err(inconsistent());
        }
        self.blocks.copy_from_slice(&state.blocks);
        self.head = state.head;
        self.filled = state.filled;
        self.ones = state.ones;
        Ok(())
    }
}

/// Serializable contents of a [`BitWindow`], captured by
/// [`BitWindow::save_state`]. All fields are plain data so snapshot
/// layers can serialize them exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitWindowState {
    /// The window's fixed capacity in bits; restore targets must match.
    pub capacity: usize,
    /// Raw 64-bit blocks backing the ring.
    pub blocks: Vec<u64>,
    /// Next write position, in bits.
    pub head: usize,
    /// Bits recorded so far (saturating at `capacity`).
    pub filled: usize,
    /// Running 1-count over the filled portion.
    pub ones: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_window() {
        let w = BitWindow::new(8);
        assert!(w.is_empty());
        assert_eq!(w.ones(), 0);
        assert_eq!(w.fraction(), None);
        assert_eq!(w.capacity(), 8);
    }

    #[test]
    fn counts_partial_fill() {
        let mut w = BitWindow::new(8);
        w.push(true);
        w.push(false);
        w.push(true);
        assert_eq!(w.filled(), 3);
        assert_eq!(w.ones(), 2);
        assert_eq!(w.fraction(), Some(2.0 / 3.0));
    }

    #[test]
    fn evicts_oldest_when_full() {
        let mut w = BitWindow::new(3);
        w.push(true);
        w.push(true);
        w.push(false);
        assert_eq!(w.ones(), 2);
        w.push(false); // evicts the first `true`
        assert_eq!(w.ones(), 1);
        assert_eq!(w.filled(), 3);
        w.push(true); // evicts a `true`
        assert_eq!(w.ones(), 1);
        w.push(true); // evicts the `false`
        assert_eq!(w.ones(), 2);
    }

    #[test]
    fn spans_block_boundaries() {
        let mut w = BitWindow::new(130);
        for i in 0..130 {
            w.push(i % 2 == 0);
        }
        assert_eq!(w.ones(), 65);
        // Push 130 more zeros; all ones evicted.
        for _ in 0..130 {
            w.push(false);
        }
        assert_eq!(w.ones(), 0);
    }

    #[test]
    fn clear_resets() {
        let mut w = BitWindow::new(4);
        w.push(true);
        w.push(true);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.fraction(), None);
        w.push(false);
        assert_eq!(w.fraction(), Some(0.0));
    }

    #[test]
    fn state_roundtrip_preserves_eviction_order() {
        let mut a = BitWindow::new(5);
        for i in 0..13 {
            a.push(i % 3 == 0);
        }
        let state = a.save_state();
        let mut b = BitWindow::new(5);
        b.restore_state(&state).unwrap();
        assert_eq!(a, b);
        // Future pushes must evict in the same order.
        for i in 0..10 {
            a.push(i % 2 == 0);
            b.push(i % 2 == 0);
            assert_eq!(a, b);
            assert_eq!(a.ones(), b.ones());
        }
    }

    #[test]
    fn restore_rejects_capacity_mismatch() {
        let a = BitWindow::new(8);
        let mut b = BitWindow::new(16);
        let err = b.restore_state(&a.save_state()).unwrap_err();
        assert!(err.contains("capacity mismatch"), "{err}");
    }

    #[test]
    fn restore_rejects_inconsistent_cursors() {
        let a = BitWindow::new(8);
        let mut state = a.save_state();
        state.ones = 3; // more ones than filled bits
        let mut b = BitWindow::new(8);
        assert!(b.restore_state(&state).is_err());
    }

    #[test]
    fn restore_rejects_states_no_push_sequence_produces() {
        let mut partial = BitWindow::new(100);
        for bit in [true, false, true] {
            partial.push(bit);
        }
        let mut full = BitWindow::new(70);
        for i in 0..75 {
            full.push(i % 3 == 0);
        }
        for w in [&partial, &full] {
            let good = w.save_state();
            let mut b = BitWindow::new(w.capacity());
            b.restore_state(&good).unwrap();
            assert_eq!(&b, w);

            // One extra set bit, inside and outside the filled positions:
            // the counter no longer matches the bits (the inside case used
            // to be accepted and underflowed `ones` on its eviction).
            let zero = (0..w.filled()).find(|&i| good.blocks[i / 64] & (1 << (i % 64)) == 0);
            let mut extra = good.clone();
            let i = zero.unwrap();
            extra.blocks[i / 64] |= 1 << (i % 64);
            assert!(b.restore_state(&extra).is_err(), "extra bit at {i}");
            let mut stray = good.clone();
            *stray.blocks.last_mut().unwrap() |= 1 << 63;
            stray.ones += 1;
            assert!(b.restore_state(&stray).is_err(), "stray bit");
        }
        // A filling window writes at its fill mark.
        let mut moved = partial.save_state();
        moved.head = 7;
        assert!(BitWindow::new(100).restore_state(&moved).is_err());
        // A full window's head may sit anywhere.
        let mut rotated = full.save_state();
        rotated.head = 69;
        assert!(BitWindow::new(70).restore_state(&rotated).is_ok());
    }

    #[test]
    #[should_panic(expected = "window capacity")]
    fn rejects_zero_capacity() {
        BitWindow::new(0);
    }

    #[test]
    #[should_panic(expected = "window capacity")]
    fn rejects_oversized_capacity() {
        BitWindow::new(BitWindow::MAX_CAPACITY + 1);
    }

    proptest! {
        #[test]
        fn counter_matches_reference(
            bits in proptest::collection::vec(any::<bool>(), 1..600),
            cap in 1usize..200,
        ) {
            let mut w = BitWindow::new(cap);
            let mut reference: Vec<bool> = Vec::new();
            for b in bits {
                w.push(b);
                reference.push(b);
                if reference.len() > cap {
                    reference.remove(0);
                }
                let expect = reference.iter().filter(|&&x| x).count();
                prop_assert_eq!(w.ones(), expect);
                prop_assert_eq!(w.filled(), reference.len());
            }
        }

        #[test]
        fn fraction_in_unit_interval(bits in proptest::collection::vec(any::<bool>(), 1..100)) {
            let mut w = BitWindow::new(16);
            for b in bits {
                w.push(b);
                let f = w.fraction().unwrap();
                prop_assert!((0.0..=1.0).contains(&f));
            }
        }
    }
}
