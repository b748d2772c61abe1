//! A small deterministic pseudo-random generator.
//!
//! The simulator needs reproducible randomness in hot paths (per-input
//! misclassification draws) where pulling a full `rand` RNG through every
//! API would add noise. [`SplitMix64`] is the standard 64-bit mixing
//! generator (Steele et al., "Fast splittable pseudorandom number
//! generators", OOPSLA 2014): tiny state, excellent statistical quality for
//! simulation purposes, and trivially seedable.
//!
//! The trace-generation crate (`qz-traces`) uses `rand` distributions on
//! top of this for non-uniform draws.

/// A deterministic SplitMix64 pseudo-random generator.
///
/// # Examples
///
/// ```
/// use qz_types::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

/// The Weyl increment SplitMix64 adds to its state on every draw (the
/// golden-ratio constant of Steele et al.).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    #[inline]
    pub const fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// Jumps the stream `n` draws ahead in O(1): afterwards the
    /// generator is in exactly the state `n` calls to
    /// [`SplitMix64::next_u64`] would leave it in. The state is a Weyl
    /// sequence (`state += γ` per draw), so `n` draws add `n·γ` modulo
    /// 2⁶⁴ — wrap-around included.
    ///
    /// ```
    /// use qz_types::SplitMix64;
    /// let mut stepped = SplitMix64::new(9);
    /// for _ in 0..1000 {
    ///     stepped.next_u64();
    /// }
    /// let mut jumped = SplitMix64::new(9);
    /// jumped.advance(1000);
    /// assert_eq!(jumped, stepped);
    /// ```
    #[inline]
    pub fn advance(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GAMMA));
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// How many upcoming draws, in stream order, [`SplitMix64::next_f64`]
    /// would return at or above `threshold` before the first one below
    /// it, counting no further than `limit`. Read-only: the generator
    /// does not move.
    ///
    /// Equal to counting `next_f64() >= threshold` on a clone, but
    /// compares the raw draws in branch-free blocks of eight: a draw is
    /// `m·2⁻⁵³` for the integer `m = bits >> 11`, so it is at least `t`
    /// exactly when `m ≥ ⌈t·2⁵³⌉` (scaling by a power of two is exact).
    ///
    /// ```
    /// use qz_types::SplitMix64;
    /// let g = SplitMix64::new(5);
    /// let mut clone = g.clone();
    /// let mut run = 0;
    /// while run < 1_000 && clone.next_f64() >= 0.01 {
    ///     run += 1;
    /// }
    /// assert_eq!(g.run_at_least(0.01, 1_000), run);
    /// ```
    pub fn run_at_least(&self, threshold: f64, limit: u64) -> u64 {
        const BLOCK: u64 = 8;
        // Every draw is ≥ 0; none is ≥ NaN or ≥ 1.
        if threshold <= 0.0 {
            return limit;
        }
        let scaled = (threshold * (1u64 << 53) as f64).ceil();
        if threshold.is_nan() || scaled >= (1u64 << 53) as f64 {
            return 0;
        }
        // 0 < scaled < 2^53, an integer: the casts are exact.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = (scaled as u64) << 11;
        let mut state = self.state;
        let mut run = 0;
        while limit - run >= BLOCK {
            let below = (1..=BLOCK).fold(false, |below, i| {
                below | (mix(state.wrapping_add(i.wrapping_mul(GAMMA))) < cut)
            });
            if below {
                break;
            }
            state = state.wrapping_add(BLOCK.wrapping_mul(GAMMA));
            run += BLOCK;
        }
        while run < limit {
            state = state.wrapping_add(GAMMA);
            if mix(state) < cut {
                break;
            }
            run += 1;
        }
        run
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift reduction; the slight modulo bias is
    /// negligible for simulation workloads (bound ≪ 2⁶⁴).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn next_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// Derives an independent child generator; useful for giving each
    /// simulation subsystem its own stream so adding draws in one does not
    /// perturb another.
    #[inline]
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }

    /// Returns the raw generator state for snapshotting.
    ///
    /// Together with [`SplitMix64::from_state`] this allows a simulation
    /// snapshot to capture and later resume an RNG stream bit-exactly:
    /// the state word *is* the entire generator.
    #[inline]
    pub const fn state(&self) -> u64 {
        self.state
    }

    /// Reconstructs a generator from a state word previously obtained via
    /// [`SplitMix64::state`]. The restored generator produces the exact
    /// same future stream as the original would have.
    #[inline]
    pub const fn from_state(state: u64) -> SplitMix64 {
        SplitMix64 { state }
    }

    /// Derives a stream seed from a base seed and a stream index by
    /// pushing both through the SplitMix64 mixer. Streams for distinct
    /// indices are statistically independent of each other and of the
    /// base stream, so a fleet of devices can each get their own
    /// reproducible randomness from one experiment seed:
    /// `derive_stream(fleet_seed, device_id)`.
    #[inline]
    pub fn derive_stream(seed: u64, stream: u64) -> u64 {
        // Jump the base generator to a stream-specific state, then mix
        // once so consecutive stream indices land far apart.
        let mut g =
            SplitMix64::new(seed ^ stream.wrapping_add(1).wrapping_mul(0xA24B_AED4_963E_E407));
        g.next_u64()
    }
}

/// SplitMix64's output function: the 64-bit finalizer applied to each
/// Weyl-sequence state.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Default for SplitMix64 {
    /// Seeds with a fixed arbitrary constant; prefer [`SplitMix64::new`]
    /// with an explicit experiment seed.
    fn default() -> SplitMix64 {
        SplitMix64::new(0x5EED_5EED_5EED_5EED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(123);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = SplitMix64::new(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn chance_edge_cases() {
        let mut r = SplitMix64::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-3.0));
        assert!(r.chance(3.0));
    }

    #[test]
    fn chance_frequency_matches_probability() {
        let mut r = SplitMix64::new(17);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq={freq}");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(11);
        for _ in 0..10_000 {
            assert!(r.next_below(10) < 10);
        }
        // every bucket gets hit for a small bound
        let mut seen = [false; 10];
        for _ in 0..1000 {
            // next_below(10) < 10, so the cast is exact.
            #[allow(clippy::cast_possible_truncation)]
            let bucket = r.next_below(10) as usize;
            seen[bucket] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }

    #[test]
    fn next_range_bounds() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            let v = r.next_range(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&v));
        }
    }

    #[test]
    fn derive_stream_is_deterministic_and_spreads() {
        assert_eq!(
            SplitMix64::derive_stream(42, 3),
            SplitMix64::derive_stream(42, 3)
        );
        let mut seen = std::collections::BTreeSet::new();
        for device in 0..1000u64 {
            seen.insert(SplitMix64::derive_stream(42, device));
        }
        assert_eq!(seen.len(), 1000, "stream seeds must not collide");
        assert_ne!(
            SplitMix64::derive_stream(1, 0),
            SplitMix64::derive_stream(2, 0)
        );
    }

    #[test]
    fn state_roundtrip_resumes_stream() {
        let mut a = SplitMix64::new(42);
        a.next_u64();
        a.next_f64();
        let saved = a.state();
        let mut b = SplitMix64::from_state(saved);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn state_of_fresh_generator_is_seed() {
        assert_eq!(SplitMix64::new(7).state(), 7);
        assert_eq!(SplitMix64::from_state(7), SplitMix64::new(7));
    }

    #[test]
    fn run_at_least_edge_thresholds() {
        let g = SplitMix64::new(11);
        assert_eq!(g.run_at_least(0.0, 77), 77, "every draw is ≥ 0");
        assert_eq!(g.run_at_least(-1.0, 77), 77);
        assert_eq!(g.run_at_least(1.0, 77), 0, "no draw reaches 1");
        assert_eq!(g.run_at_least(f64::NAN, 77), 0);
        assert_eq!(g.run_at_least(0.5, 0), 0);
        // The largest draw below 1 is 1 − 2⁻⁵³: a threshold there only
        // admits draws of exactly that value.
        let top = 1.0 - f64::EPSILON / 2.0;
        assert_eq!(g.run_at_least(top, 77), 0);
    }

    #[test]
    fn advance_zero_is_the_identity() {
        let mut r = SplitMix64::new(77);
        r.advance(0);
        assert_eq!(r, SplitMix64::new(77));
    }

    #[test]
    fn advance_wraps_the_state_like_stepping() {
        // One increment below the top: the second draw wraps past 2^64.
        let start = u64::MAX - GAMMA;
        let mut stepped = SplitMix64::from_state(start);
        for _ in 0..5 {
            stepped.next_u64();
        }
        let mut jumped = SplitMix64::from_state(start);
        jumped.advance(5);
        assert_eq!(jumped, stepped);
        // n·γ wraps too: γ is odd, so 2^64 draws are a full cycle and
        // advancing by 2^64 − 1 is undone by one more draw.
        let mut cycle = SplitMix64::new(3);
        cycle.advance(u64::MAX);
        cycle.advance(1);
        assert_eq!(cycle, SplitMix64::new(3));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn advance_equals_repeated_draws(seed in any::<u64>(), n in 0u64..2_000) {
            let mut stepped = SplitMix64::new(seed);
            for _ in 0..n {
                stepped.next_u64();
            }
            let mut jumped = SplitMix64::new(seed);
            jumped.advance(n);
            prop_assert_eq!(jumped, stepped);
        }

        #[test]
        fn run_at_least_matches_counting_draws(
            seed in any::<u64>(),
            threshold in -0.1f64..1.1,
            limit in 0u64..400,
            scale in 0u8..3,
        ) {
            // Small thresholds give runs spanning several blocks of
            // eight; tiny ones runs that reach the limit.
            let threshold = threshold * [1.0, 0.1, 1e-3][usize::from(scale)];
            let g = SplitMix64::new(seed);
            let mut clone = g.clone();
            let mut run = 0;
            while run < limit && clone.next_f64() >= threshold {
                run += 1;
            }
            prop_assert_eq!(g.run_at_least(threshold, limit), run);
        }

        #[test]
        fn advances_compose(seed in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
            let mut split = SplitMix64::new(seed);
            split.advance(a);
            split.advance(b);
            let mut whole = SplitMix64::new(seed);
            whole.advance(a.wrapping_add(b));
            prop_assert_eq!(split, whole);
        }
    }

    #[test]
    fn split_streams_are_independent() {
        let mut parent = SplitMix64::new(8);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}
