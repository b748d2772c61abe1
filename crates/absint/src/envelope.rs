//! Harvest envelopes: per-segment irradiance bounds over a solar trace.
//!
//! The abstract interpreter is parameterised by an *envelope* — a
//! piecewise-constant `[min, max]` band of irradiance fractions — rather
//! than one realized trace. Any trace whose every sample lies inside the
//! band is *covered*: verdicts proven under the envelope hold for every
//! covered realization. The two band edges are themselves valid traces
//! (the floor/ceil corner traces), which is what the directed
//! counterexample search simulates.

use qz_traces::SolarTrace;
use qz_types::SimTime;

/// A piecewise-constant irradiance band at a fixed segment length.
///
/// Like [`SolarTrace`], lookups past the end wrap cyclically, so the
/// envelope covers arbitrarily long simulations of its source trace.
#[derive(Debug, Clone, PartialEq)]
pub struct HarvestEnvelope {
    /// Segment length in seconds (≥ 1).
    segment_secs: u64,
    /// Per-segment `(min, max)` irradiance fractions in `[0, 1]`.
    segments: Vec<(f32, f32)>,
}

impl HarvestEnvelope {
    /// Builds the envelope of a realized trace: per segment of
    /// `segment_secs` seconds, the min/max of the trace's 1 Hz samples.
    ///
    /// # Panics
    ///
    /// Panics if `segment_secs == 0`.
    pub fn from_trace(trace: &SolarTrace, segment_secs: u64) -> HarvestEnvelope {
        assert!(segment_secs > 0, "segment length must be at least 1 s");
        let samples = trace.samples();
        let mut segments = Vec::new();
        // segment_secs fits usize on every supported platform.
        #[allow(clippy::cast_possible_truncation)]
        let step = segment_secs as usize;
        let mut i = 0;
        while i < samples.len() {
            let end = (i + step).min(samples.len());
            let mut lo = f32::INFINITY;
            let mut hi = f32::NEG_INFINITY;
            for &s in &samples[i..end] {
                lo = lo.min(s);
                hi = hi.max(s);
            }
            segments.push((lo, hi));
            i = end;
        }
        HarvestEnvelope {
            segment_secs,
            segments,
        }
    }

    /// The universal envelope: irradiance anywhere in `[0, 1]` forever.
    /// This is what backs the environment-free `qz check` verdicts.
    pub fn universal() -> HarvestEnvelope {
        HarvestEnvelope {
            segment_secs: 1,
            segments: vec![(0.0, 1.0)],
        }
    }

    /// Segment length in seconds.
    pub fn segment_secs(&self) -> u64 {
        self.segment_secs
    }

    /// Number of segments before the envelope wraps.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// `true` when the envelope has no segments (never constructible via
    /// the public constructors; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Duration covered before wrapping, in milliseconds.
    pub fn duration_ms(&self) -> u64 {
        self.segments.len() as u64 * self.segment_secs * 1000
    }

    /// Irradiance bounds at one instant.
    pub fn bounds_at(&self, t: SimTime) -> (f64, f64) {
        let seg_ms = self.segment_secs * 1000;
        let idx = (t.as_millis() % self.duration_ms()) / seg_ms;
        // Segment count fits usize (it indexes a Vec).
        #[allow(clippy::cast_possible_truncation)]
        let (lo, hi) = self.segments[idx as usize];
        (f64::from(lo), f64::from(hi))
    }

    /// Irradiance bounds over the half-open span `[t, t + dur_ms)`:
    /// the hull of every segment the span overlaps (wrapping).
    pub fn bounds_over(&self, t: SimTime, dur_ms: u64) -> (f64, f64) {
        let seg_ms = self.segment_secs * 1000;
        let total = self.duration_ms();
        if dur_ms >= total {
            return self.global_bounds();
        }
        let start = t.as_millis() % total;
        let end = start + dur_ms.max(1) - 1; // inclusive last instant
        let first = start / seg_ms;
        let last = end / seg_ms;
        let n = self.segments.len() as u64;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for seg in first..=last {
            // Segment count fits usize (it indexes a Vec).
            #[allow(clippy::cast_possible_truncation)]
            let (slo, shi) = self.segments[(seg % n) as usize];
            lo = lo.min(f64::from(slo));
            hi = hi.max(f64::from(shi));
        }
        (lo, hi)
    }

    /// The hull over every segment.
    pub fn global_bounds(&self) -> (f64, f64) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &(slo, shi) in &self.segments {
            lo = lo.min(slo);
            hi = hi.max(shi);
        }
        (f64::from(lo), f64::from(hi))
    }

    /// The lower corner trace: per-second samples pinned to each
    /// segment's minimum. Covered by the envelope by construction.
    pub fn floor_trace(&self) -> SolarTrace {
        self.corner(|(lo, _)| lo)
    }

    /// The upper corner trace: per-second samples pinned to each
    /// segment's maximum. Covered by the envelope by construction.
    pub fn ceil_trace(&self) -> SolarTrace {
        self.corner(|(_, hi)| hi)
    }

    fn corner(&self, pick: fn(&(f32, f32)) -> &f32) -> SolarTrace {
        let mut samples = Vec::new();
        for seg in &self.segments {
            // segment_secs is small (a CLI knob, seconds-scale).
            #[allow(clippy::cast_possible_truncation)]
            let n = self.segment_secs as usize;
            samples.extend(std::iter::repeat_n(*pick(seg), n));
        }
        SolarTrace::from_samples(samples)
    }

    /// `true` when every sample of `trace` lies inside the band at its
    /// own timestamp (with `tol` slack for f32 rounding).
    pub fn covers(&self, trace: &SolarTrace, tol: f64) -> bool {
        trace.iter().enumerate().all(|(sec, s)| {
            let (lo, hi) = self.bounds_at(SimTime::from_secs(sec as u64));
            f64::from(s) >= lo - tol && f64::from(s) <= hi + tol
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_trace() -> SolarTrace {
        // 120 s ramp 0.0 → ~0.99.
        // Sample count is tiny; precision loss is irrelevant here.
        #[allow(clippy::cast_precision_loss)]
        SolarTrace::from_samples((0..120).map(|i| i as f32 / 120.0).collect())
    }

    #[test]
    fn segments_bracket_their_samples() {
        let t = ramp_trace();
        let env = HarvestEnvelope::from_trace(&t, 60);
        assert_eq!(env.len(), 2);
        let (lo, hi) = env.bounds_at(SimTime::from_secs(10));
        assert!(lo <= 0.0 + 1e-6 && hi >= 59.0 / 120.0 - 1e-6);
        assert!(env.covers(&t, 1e-6));
    }

    #[test]
    fn corner_traces_are_covered() {
        let t = ramp_trace();
        let env = HarvestEnvelope::from_trace(&t, 30);
        assert!(env.covers(&env.floor_trace(), 1e-6));
        assert!(env.covers(&env.ceil_trace(), 1e-6));
    }

    #[test]
    fn corner_traces_bracket_the_source() {
        let t = ramp_trace();
        let env = HarvestEnvelope::from_trace(&t, 30);
        let floor = env.floor_trace();
        let ceil = env.ceil_trace();
        let (t, floor, ceil) = (t.samples(), floor.samples(), ceil.samples());
        for sec in 0..120 {
            assert!(floor[sec] <= t[sec] + 1e-6);
            assert!(ceil[sec] >= t[sec] - 1e-6);
        }
    }

    #[test]
    fn span_bounds_hull_overlapped_segments() {
        let t = ramp_trace();
        let env = HarvestEnvelope::from_trace(&t, 60);
        // A span straddling both segments sees the global hull.
        let (lo, hi) = env.bounds_over(SimTime::from_secs(59), 2000);
        let (glo, ghi) = env.global_bounds();
        assert!((lo - glo).abs() < 1e-6);
        assert!((hi - ghi).abs() < 1e-6);
        // A span inside one segment sees only that segment.
        let (lo1, hi1) = env.bounds_over(SimTime::from_secs(0), 1000);
        assert!(lo1 <= 1e-6 && hi1 <= 0.5);
    }

    #[test]
    fn wrapping_matches_trace_semantics() {
        let t = ramp_trace();
        let env = HarvestEnvelope::from_trace(&t, 60);
        let (lo, hi) = env.bounds_at(SimTime::from_secs(130)); // wraps to 10 s
        let (lo2, hi2) = env.bounds_at(SimTime::from_secs(10));
        assert!((lo - lo2).abs() < 1e-9 && (hi - hi2).abs() < 1e-9);
    }

    #[test]
    fn universal_envelope_is_total() {
        let env = HarvestEnvelope::universal();
        let (lo, hi) = env.bounds_over(SimTime::from_secs(1_000_000), 86_400_000);
        assert!((lo - 0.0).abs() < 1e-9 && (hi - 1.0).abs() < 1e-9);
        assert!(env.covers(&SolarTrace::constant(0.7), 0.0));
    }
}
