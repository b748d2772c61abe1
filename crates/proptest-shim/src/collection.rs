//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::{Range, RangeInclusive};

/// A length bound for generated collections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeRange {
    lo: usize,
    /// Inclusive upper bound.
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> SizeRange {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// Generates `Vec`s whose elements come from `element` and whose length
/// falls in `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// The strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.hi - self.size.lo) as u64 + 1;
        let len = self.size.lo + rng.below(span) as usize;
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::TestRng;

    #[test]
    fn lengths_respect_bounds() {
        let mut r = TestRng::from_name("vec");
        let s = vec(0u8..10, 2..5);
        for _ in 0..200 {
            let v = s.sample(&mut r);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn fixed_size() {
        let mut r = TestRng::from_name("vec-fixed");
        let s = vec(0u8..10, 3usize);
        assert_eq!(s.sample(&mut r).len(), 3);
    }
}
