//! Synthetic solar irradiance traces.
//!
//! Produces an irradiance *fraction* in `[0, 1]` — the share of the
//! harvester's datasheet-rated output currently available — sampled at
//! 1-second resolution. The generator composes three processes:
//!
//! 1. A three-state **weather Markov chain** (clear / partly-cloudy /
//!    overcast) with configurable mean residence times, giving the
//!    minutes-scale power swings that force the device between
//!    compute-bound and recharge-bound regimes. The intermediate state
//!    matters for baseline comparisons: static power thresholds (the
//!    Protean/Zygarde rule) land inside it and degrade unnecessarily.
//! 2. An **AR(1) smoothing filter** so transitions ramp over tens of
//!    seconds instead of stepping instantaneously.
//! 3. An optional **diurnal envelope** (`sin²` day curve with a night
//!    fraction) for multi-day experiments.
//!
//! Real harvesting traces rarely approach the panel's rated maximum; the
//! defaults reproduce that (clear-sky level defaults to 0.85 with most
//! mass far lower), which is what defeats datasheet-fraction thresholds
//! (paper §6.1).

use qz_types::{SimDuration, SimTime, SplitMix64};
use std::borrow::Cow;

/// A solar irradiance trace, 1 sample per second, values in `[0, 1]`.
///
/// A trace is either *explicit* — per-second samples held in memory
/// ([`SolarTrace::from_samples`], [`SolarTrace::constant`], traces read
/// from CSV) — or *generated*: [`SolarTraceBuilder::build`] keeps only
/// its parameters, and the samples stream out of the weather process
/// as a [`SolarCursor`] reads them, so a simulated device never holds
/// the seconds it does not reach. Cold readers (statistics, CSV export,
/// harvest envelopes) call [`SolarTrace::samples`], which materializes
/// a generated trace on demand.
///
/// Lookups beyond the end of the trace wrap around cyclically so a trace
/// can drive an arbitrarily long simulation.
///
/// Equality is representational: generated traces are equal when their
/// parameters are, and a generated trace never equals an explicit one.
#[derive(Debug, Clone, PartialEq)]
pub struct SolarTrace {
    source: Source,
}

#[derive(Debug, Clone, PartialEq)]
enum Source {
    /// Explicit per-second samples.
    Samples(Vec<f32>),
    /// Samples drawn on demand from these generator parameters.
    Generated(SolarTraceBuilder),
}

impl SolarTrace {
    /// Builds a trace directly from per-second samples.
    ///
    /// Values are clamped into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: Vec<f32>) -> SolarTrace {
        assert!(
            !samples.is_empty(),
            "a solar trace needs at least one sample"
        );
        let samples = samples.into_iter().map(|s| s.clamp(0.0, 1.0)).collect();
        SolarTrace {
            source: Source::Samples(samples),
        }
    }

    /// A constant-irradiance trace (useful in tests and microbenchmarks).
    // Irradiance fractions live in [0, 1]; f32 is the trace's native
    // storage precision.
    #[allow(clippy::cast_possible_truncation)]
    pub fn constant(level: f64) -> SolarTrace {
        SolarTrace::from_samples(vec![level as f32])
    }

    /// Duration covered before the trace wraps.
    #[inline]
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_secs(self.len())
    }

    /// The per-second samples: borrowed for an explicit trace, generated
    /// in full for a generated one.
    pub fn samples(&self) -> Cow<'_, [f32]> {
        match &self.source {
            Source::Samples(samples) => Cow::Borrowed(samples),
            Source::Generated(_) => Cow::Owned(self.iter().collect()),
        }
    }

    /// The per-second samples in order, streamed in O(1) memory.
    pub fn iter(&self) -> impl Iterator<Item = f32> + '_ {
        let mut gen = self.start();
        (0..self.len()).map(move |_| self.pull(&mut gen))
    }

    /// Maximum irradiance observed anywhere in the trace.
    ///
    /// This is the "oracular" maximum the idealized PZI baseline
    /// thresholds against (paper §6.1): implementable only with knowledge
    /// of the whole future trace.
    pub fn observed_max(&self) -> f64 {
        self.iter().fold(0.0f32, f32::max) as f64
    }

    /// Mean irradiance over the trace.
    pub fn mean(&self) -> f64 {
        self.iter().map(|s| s as f64).sum::<f64>() / self.len() as f64
    }

    /// Number of 1-second samples.
    fn len(&self) -> u64 {
        match &self.source {
            Source::Samples(samples) => samples.len() as u64,
            Source::Generated(params) => params.secs(),
        }
    }

    /// A source position at sample 0.
    fn start(&self) -> SolarGen {
        match &self.source {
            Source::Samples(_) => SolarGen::EXPLICIT,
            Source::Generated(params) => params.start(),
        }
    }

    /// The sample at `gen`'s position, stepping past it; past the last
    /// sample the trace starts over.
    fn pull(&self, gen: &mut SolarGen) -> f32 {
        if gen.second == self.len() {
            *gen = self.start();
        }
        match &self.source {
            Source::Samples(samples) => {
                // The position is below the sample count, a usize.
                #[allow(clippy::cast_possible_truncation)]
                let sample = samples[gen.second as usize];
                gen.second += 1;
                sample
            }
            Source::Generated(params) => params.next(gen),
        }
    }

    /// Moves `gen` so the next [`pull`](Self::pull) reads sample
    /// `index` (< the trace length). A generated trace restarts its
    /// process to move backward.
    fn seek(&self, gen: &mut SolarGen, index: u64) {
        match &self.source {
            Source::Samples(_) => gen.second = index,
            Source::Generated(params) => {
                if gen.second > index {
                    *gen = params.start();
                }
                while gen.second < index {
                    params.next(gen);
                }
            }
        }
    }
}

/// The weather state of the generator's Markov chain.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sky {
    Clear,
    Partly,
    Overcast,
}

/// A position in a trace's sample stream: for a generated trace, the
/// weather process's state just before the sample of `second`
/// ([`SolarTraceBuilder::start`], [`SolarTraceBuilder::next`]).
#[derive(Debug, Clone)]
struct SolarGen {
    rng: SplitMix64,
    sky: Sky,
    level: f64,
    /// Index of the next sample.
    second: u64,
}

impl SolarGen {
    /// Sample 0 of an explicit trace, whose position is its index alone.
    const EXPLICIT: SolarGen = SolarGen {
        rng: SplitMix64::new(0),
        sky: Sky::Partly,
        level: 0.0,
        second: 0,
    };
}

/// A sequential reader of a [`SolarTrace`] that caches the constant run
/// around the last read.
///
/// The cursor holds the current run of bit-identical samples as
/// `[start, start + span)` in absolute milliseconds, its value, the
/// sample that follows it and the source position just past that
/// sample. A read inside the run is one compare; a read in the second
/// right after the run extends the next run from the sample already
/// drawn, so a forward walk draws every sample of a generated trace
/// exactly once. Any other read (backward, or skipping ahead) seeks:
/// an explicit trace jumps there, a generated one replays its process
/// from the nearer of its position and sample 0.
///
/// The cursor is a cache, not state: reading `t` returns the same
/// answer whatever was read before.
#[derive(Debug, Clone)]
pub struct SolarCursor<'a> {
    trace: &'a SolarTrace,
    /// First millisecond of the cached run.
    start: u64,
    /// Length of the cached run in milliseconds; `u64::MAX` for a
    /// uniform trace (whose run starts at 0).
    span: u64,
    /// Irradiance of the cached run.
    value: f32,
    /// The sample of the second that begins where the run ends.
    next: f32,
    /// Source position just past `next`.
    gen: SolarGen,
}

impl<'a> SolarCursor<'a> {
    /// A cursor at the start of `trace`.
    pub fn new(trace: &'a SolarTrace) -> SolarCursor<'a> {
        let mut gen = trace.start();
        let next = trace.pull(&mut gen);
        // An empty run ending at 0: the first read takes `next` as the
        // start of its run.
        SolarCursor {
            trace,
            start: 0,
            span: 0,
            value: next,
            next,
            gen,
        }
    }

    /// Irradiance fraction at an instant (zero-order hold over each
    /// 1-second sample; wraps cyclically past the end).
    #[inline]
    pub fn irradiance(&mut self, t: SimTime) -> f64 {
        self.seek(t.as_millis());
        f64::from(self.value)
    }

    /// The irradiance at `t` together with how many milliseconds it
    /// keeps exactly that value: the remainder of the current 1-second
    /// sample plus any directly following samples that are bit-identical
    /// (wrapping cyclically). A uniform trace reports `u64::MAX`.
    ///
    /// This exposes the trace's piecewise-constant structure so a
    /// fast-forward simulator can bound bulk energy integration to
    /// constant-irradiance segments.
    #[inline]
    pub fn constant_until(&mut self, t: SimTime) -> (f64, u64) {
        let ms = t.as_millis();
        self.seek(ms);
        let left = if self.span == u64::MAX {
            u64::MAX
        } else {
            self.span - (ms - self.start)
        };
        (f64::from(self.value), left)
    }

    /// Makes the cached run cover `ms`.
    #[inline]
    fn seek(&mut self, ms: u64) {
        if ms.wrapping_sub(self.start) >= self.span {
            self.refill(ms);
        }
    }

    /// Caches the run that starts at the second of `ms`: draws samples
    /// until one differs from the first, or until a whole cycle of equal
    /// samples proves the trace uniform.
    fn refill(&mut self, ms: u64) {
        let trace = self.trace;
        let len = trace.len();
        let second = ms / 1000;
        let first = if (second * 1000).wrapping_sub(self.start) == self.span {
            self.next
        } else {
            trace.seek(&mut self.gen, second % len);
            trace.pull(&mut self.gen)
        };
        self.value = first;
        for run in 1..len {
            let sample = trace.pull(&mut self.gen);
            if sample.to_bits() != first.to_bits() {
                self.next = sample;
                self.start = second * 1000;
                self.span = run * 1000;
                return;
            }
        }
        self.start = 0;
        self.span = u64::MAX;
    }
}

/// Builder for synthetic [`SolarTrace`]s.
///
/// # Examples
///
/// ```
/// use qz_traces::SolarTraceBuilder;
/// use qz_types::SimDuration;
///
/// let trace = SolarTraceBuilder::new()
///     .duration(SimDuration::from_secs(3600))
///     .seed(7)
///     .build();
/// assert_eq!(trace.duration(), SimDuration::from_secs(3600));
/// assert!(trace.observed_max() <= 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SolarTraceBuilder {
    duration: SimDuration,
    seed: u64,
    clear_level: f64,
    partly_level: f64,
    overcast_level: f64,
    mean_clear_secs: f64,
    mean_partly_secs: f64,
    mean_overcast_secs: f64,
    smoothing: f64,
    jitter: f64,
    diurnal_period: Option<SimDuration>,
    night_fraction: f64,
}

impl Default for SolarTraceBuilder {
    fn default() -> SolarTraceBuilder {
        SolarTraceBuilder {
            duration: SimDuration::from_secs(3600),
            seed: 0xC10D,
            clear_level: 0.55,
            partly_level: 0.17,
            overcast_level: 0.055,
            mean_clear_secs: 420.0,
            mean_partly_secs: 540.0,
            mean_overcast_secs: 600.0,
            smoothing: 0.92,
            jitter: 0.15,
            diurnal_period: None,
            night_fraction: 0.4,
        }
    }
}

impl SolarTraceBuilder {
    /// Starts from the default mid-latitude "partly cloudy" parameters.
    pub fn new() -> SolarTraceBuilder {
        SolarTraceBuilder::default()
    }

    /// Total trace duration (rounded down to whole seconds, minimum 1 s).
    pub fn duration(mut self, d: SimDuration) -> SolarTraceBuilder {
        self.duration = d;
        self
    }

    /// Seed for the deterministic weather process.
    pub fn seed(mut self, seed: u64) -> SolarTraceBuilder {
        self.seed = seed;
        self
    }

    /// Irradiance fraction targeted in the clear state (clamped to `[0,1]`).
    pub fn clear_level(mut self, level: f64) -> SolarTraceBuilder {
        self.clear_level = level.clamp(0.0, 1.0);
        self
    }

    /// Irradiance fraction targeted in the partly-cloudy state (clamped
    /// to `[0,1]`).
    pub fn partly_level(mut self, level: f64) -> SolarTraceBuilder {
        self.partly_level = level.clamp(0.0, 1.0);
        self
    }

    /// Irradiance fraction targeted in the overcast state (clamped to `[0,1]`).
    pub fn overcast_level(mut self, level: f64) -> SolarTraceBuilder {
        self.overcast_level = level.clamp(0.0, 1.0);
        self
    }

    /// Mean residence time in the clear state, in seconds (minimum 1 s).
    pub fn mean_clear_secs(mut self, secs: f64) -> SolarTraceBuilder {
        self.mean_clear_secs = secs.max(1.0);
        self
    }

    /// Mean residence time in the partly-cloudy state, in seconds
    /// (minimum 1 s).
    pub fn mean_partly_secs(mut self, secs: f64) -> SolarTraceBuilder {
        self.mean_partly_secs = secs.max(1.0);
        self
    }

    /// Mean residence time in the overcast state, in seconds (minimum 1 s).
    pub fn mean_overcast_secs(mut self, secs: f64) -> SolarTraceBuilder {
        self.mean_overcast_secs = secs.max(1.0);
        self
    }

    /// AR(1) smoothing coefficient in `[0, 1)`; higher = slower ramps.
    pub fn smoothing(mut self, alpha: f64) -> SolarTraceBuilder {
        self.smoothing = alpha.clamp(0.0, 0.999);
        self
    }

    /// Per-sample multiplicative jitter amplitude (fraction of the
    /// current level).
    pub fn jitter(mut self, j: f64) -> SolarTraceBuilder {
        self.jitter = j.max(0.0);
        self
    }

    /// Enables a `sin²` diurnal envelope with the given day length.
    /// `night_fraction` of each period has zero irradiance.
    pub fn diurnal(mut self, period: SimDuration, night_fraction: f64) -> SolarTraceBuilder {
        self.diurnal_period = Some(period);
        self.night_fraction = night_fraction.clamp(0.0, 0.95);
        self
    }

    /// The trace these parameters describe. Nothing is generated here:
    /// the trace keeps the parameters and draws its samples as they are
    /// read.
    pub fn build(&self) -> SolarTrace {
        SolarTrace {
            source: Source::Generated(self.clone()),
        }
    }

    /// Trace length in whole seconds (at least 1).
    fn secs(&self) -> u64 {
        (self.duration.as_millis() / 1000).max(1)
    }

    /// The level the AR(1) filter ramps toward in `sky`.
    fn target(&self, sky: Sky) -> f64 {
        match sky {
            Sky::Clear => self.clear_level,
            Sky::Partly => self.partly_level,
            Sky::Overcast => self.overcast_level,
        }
    }

    /// The weather process before its first sample.
    fn start(&self) -> SolarGen {
        let mut rng = SplitMix64::new(self.seed);
        let sky = if rng.chance(0.5) {
            Sky::Partly
        } else {
            Sky::Overcast
        };
        SolarGen {
            rng,
            sky,
            level: self.target(sky),
            second: 0,
        }
    }

    /// Draws the sample of second `gen.second` and steps `gen` past it.
    /// The process runs on past the trace's length; a reader wraps by
    /// starting over.
    fn next(&self, gen: &mut SolarGen) -> f32 {
        let rng = &mut gen.rng;
        // Weather transitions: clear and overcast always pass through
        // the partly-cloudy state; from partly the sky clears or closes
        // with equal probability.
        gen.sky = match gen.sky {
            Sky::Clear if rng.chance(1.0 / self.mean_clear_secs) => Sky::Partly,
            Sky::Partly if rng.chance(1.0 / self.mean_partly_secs) => {
                if rng.chance(0.5) {
                    Sky::Clear
                } else {
                    Sky::Overcast
                }
            }
            Sky::Overcast if rng.chance(1.0 / self.mean_overcast_secs) => Sky::Partly,
            other => other,
        };
        let target = self.target(gen.sky);

        // AR(1) ramp toward the target, then multiplicative jitter —
        // irradiance fluctuation scales with the level itself, so an
        // overcast sample stays in the overcast regime. The level is
        // capped at the clear-sky target: clouds only ever attenuate,
        // so the trace never exceeds its clear-state irradiance.
        let level = self.smoothing * gen.level + (1.0 - self.smoothing) * target;
        gen.level = level.clamp(0.0, self.clear_level.max(self.overcast_level));
        let noise = 1.0 + rng.next_range(-self.jitter, self.jitter);
        let sample = (gen.level * noise).clamp(0.0, 1.0);

        let env = self.envelope(gen.second);
        gen.second += 1;
        // In [0, 1] by the clamp above; f32 is the storage precision.
        // The final clamp is the one `SolarTrace::from_samples` applies.
        #[allow(clippy::cast_possible_truncation)]
        let sample = (sample * env) as f32;
        sample.clamp(0.0, 1.0)
    }

    /// Diurnal envelope value at second `s` (1.0 when diurnal is disabled).
    fn envelope(&self, s: u64) -> f64 {
        let Some(period) = self.diurnal_period else {
            return 1.0;
        };
        let period_s = (period.as_millis() / 1000).max(1);
        let phase = (s % period_s) as f64 / period_s as f64;
        let day_span = 1.0 - self.night_fraction;
        if phase >= day_span {
            0.0
        } else {
            let x = phase / day_span; // 0..1 across the day
            (core::f64::consts::PI * x).sin().powi(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The lookup the cursor replaces, straight off the sample slice:
    /// the run from `ms` to the first differing sample (wrapping), or
    /// `u64::MAX` when every sample is equal.
    fn reference_constant_until(samples: &[f32], ms: u64) -> (f64, u64) {
        let len = samples.len() as u64;
        let at = |second: u64| samples[usize::try_from(second % len).unwrap()];
        let cur = at(ms / 1000);
        let same = |s: f32| s.to_bits() == cur.to_bits();
        if samples.iter().all(|&s| same(s)) {
            return (f64::from(cur), u64::MAX);
        }
        let mut left = 1000 - ms % 1000;
        let mut second = ms / 1000 + 1;
        while same(at(second)) {
            left += 1000;
            second += 1;
        }
        (f64::from(cur), left)
    }

    /// Reads `times` through a cursor over `trace` and over the same
    /// samples held explicitly, checking both against the slice
    /// reference bit for bit.
    fn assert_cursors_agree(trace: &SolarTrace, times: &[u64]) -> Result<(), TestCaseError> {
        let samples = trace.samples().into_owned();
        let explicit = SolarTrace::from_samples(samples.clone());
        let mut streamed = SolarCursor::new(trace);
        let mut held = SolarCursor::new(&explicit);
        for &ms in times {
            let t = SimTime::from_millis(ms);
            let (irr, left) = reference_constant_until(&samples, ms);
            for cursor in [&mut streamed, &mut held] {
                prop_assert_eq!(cursor.irradiance(t).to_bits(), irr.to_bits(), "t={}", ms);
                let (c_irr, c_left) = cursor.constant_until(t);
                prop_assert_eq!(c_irr.to_bits(), irr.to_bits(), "t={}", ms);
                prop_assert_eq!(c_left, left, "t={}", ms);
            }
        }
        Ok(())
    }

    /// A walk over `[0, 3 * len)` seconds: forward steps (some inside a
    /// second, some across several), backward jumps and wraps past the
    /// end, all derived from `seed`.
    fn walk(len: u64, seed: u64, steps: usize) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        let limit = 3 * len * 1000;
        let mut ms = rng.next_below(1000);
        let mut times = Vec::with_capacity(steps);
        for _ in 0..steps {
            times.push(ms);
            ms = match rng.next_below(8) {
                0 => rng.next_below(limit),
                1 => ms.saturating_sub(rng.next_below(5000)),
                2 => ms + 1000 * rng.next_below(len + 2),
                3 | 4 => ms + 1 + rng.next_below(1999),
                _ => ms + 1,
            } % limit;
        }
        times
    }

    #[test]
    fn deterministic_for_seed() {
        let a = SolarTraceBuilder::new().seed(9).build();
        let b = SolarTraceBuilder::new().seed(9).build();
        assert_eq!(a, b);
        assert_eq!(a.samples(), b.samples());
        let c = SolarTraceBuilder::new().seed(10).build();
        assert_ne!(a, c);
        assert_ne!(a.samples(), c.samples());
    }

    #[test]
    fn samples_in_unit_range() {
        let t = SolarTraceBuilder::new().seed(1).jitter(0.5).build();
        assert!(t.samples().iter().all(|&s| (0.0..=1.0).contains(&s)));
    }

    #[test]
    fn constant_trace() {
        let t = SolarTrace::constant(0.3);
        assert!((SolarCursor::new(&t).irradiance(SimTime::from_secs(5)) - 0.3).abs() < 1e-6);
        assert_eq!(t.duration(), SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_panic() {
        SolarTrace::from_samples(vec![]);
    }

    #[test]
    fn from_samples_clamps() {
        let t = SolarTrace::from_samples(vec![-1.0, 2.0, 0.5]);
        assert_eq!(*t.samples(), [0.0, 1.0, 0.5]);
    }

    #[test]
    fn wraps_cyclically() {
        let t = SolarTrace::from_samples(vec![0.1, 0.2, 0.3]);
        let mut c = SolarCursor::new(&t);
        assert!((c.irradiance(SimTime::from_secs(0)) - 0.1).abs() < 1e-6);
        assert!((c.irradiance(SimTime::from_secs(4)) - 0.2).abs() < 1e-6);
        assert!((c.irradiance(SimTime::from_millis(2500)) - 0.3).abs() < 1e-6);
    }

    #[test]
    fn spends_time_in_both_regimes() {
        let t = SolarTraceBuilder::new()
            .duration(SimDuration::from_secs(7200))
            .seed(42)
            .build();
        let high = t.iter().filter(|&s| s > 0.5).count();
        let low = t.iter().filter(|&s| s < 0.2).count();
        assert!(high > 100, "high={high}");
        assert!(low > 100, "low={low}");
    }

    #[test]
    fn observed_max_well_below_rated() {
        // The property that defeats datasheet-fraction thresholds: the
        // trace never reaches the panel's rated output.
        let t = SolarTraceBuilder::new()
            .duration(SimDuration::from_secs(7200))
            .seed(3)
            .build();
        assert!(t.observed_max() < 0.95);
        assert!(t.observed_max() > 0.5);
    }

    #[test]
    // Dark-tail samples are written as the 0.0 literal, so strict
    // comparison is the point.
    #[allow(clippy::float_cmp)]
    fn diurnal_has_dark_nights() {
        let day = SimDuration::from_secs(1000);
        let t = SolarTraceBuilder::new()
            .duration(SimDuration::from_secs(2000))
            .diurnal(day, 0.4)
            .seed(5)
            .build();
        // Last 40% of each period must be dark.
        let samples = t.samples();
        for s in 650..1000 {
            assert_eq!(samples[s], 0.0, "s={s}");
        }
        // A cursor reads the whole night as one run.
        let mut c = SolarCursor::new(&t);
        let (irr, left) = c.constant_until(SimTime::from_secs(650));
        assert_eq!(irr, 0.0);
        assert!(left >= 350_000, "left={left}");
    }

    #[test]
    fn mean_is_sane() {
        let t = SolarTraceBuilder::new()
            .duration(SimDuration::from_secs(3600))
            .seed(8)
            .build();
        let m = t.mean();
        assert!(m > 0.05 && m < 0.9, "mean={m}");
    }

    #[test]
    // Streaming and materialized statistics are the same sums in the
    // same order.
    #[allow(clippy::float_cmp)]
    fn streamed_statistics_match_the_materialized_trace() {
        let t = SolarTraceBuilder::new()
            .duration(SimDuration::from_secs(900))
            .seed(12)
            .build();
        let explicit = SolarTrace::from_samples(t.samples().into_owned());
        assert_eq!(t.duration(), explicit.duration());
        assert_eq!(t.observed_max(), explicit.observed_max());
        assert_eq!(t.mean(), explicit.mean());
        assert!(t.iter().eq(explicit.iter()));
    }

    #[test]
    fn constant_until_spans_bit_equal_runs() {
        let t = SolarTrace::from_samples(vec![0.1, 0.1, 0.3, 0.3, 0.3, 0.2]);
        let mut c = SolarCursor::new(&t);
        // Mid-sample inside a two-sample run: remainder + one more second.
        let (irr, ms) = c.constant_until(SimTime::from_millis(250));
        assert!((irr - f64::from(0.1f32)).abs() < 1e-9);
        assert_eq!(ms, 750 + 1000);
        // A run that wraps past the end of the trace.
        let (irr, ms) = c.constant_until(SimTime::from_secs(5));
        assert!((irr - f64::from(0.2f32)).abs() < 1e-9);
        assert_eq!(ms, 1000);
        let (_, ms) = c.constant_until(SimTime::from_millis(4999));
        assert_eq!(ms, 1);
        // A uniform trace never changes.
        let uniform = SolarTrace::constant(0.5);
        assert_eq!(
            SolarCursor::new(&uniform).constant_until(SimTime::ZERO).1,
            u64::MAX
        );
    }

    #[test]
    fn forward_reads_draw_each_generated_sample_once() {
        let t = SolarTraceBuilder::new()
            .duration(SimDuration::from_secs(300))
            .seed(21)
            .build();
        let mut c = SolarCursor::new(&t);
        for ms in (0..120_000).step_by(7) {
            c.irradiance(SimTime::from_millis(ms));
        }
        // Only the run lookahead runs ahead of the last read second.
        let (_, left) = c.constant_until(SimTime::from_millis(119_999));
        assert_eq!(c.gen.second, 120 + left.div_ceil(1000));
    }

    proptest! {
        #[test]
        fn constant_until_agrees_with_irradiance(
            samples in proptest::collection::vec(0.0f64..1.0, 1..8),
            start_ms in 0u64..20_000,
        ) {
            // f32 is the trace's native storage precision.
            #[allow(clippy::cast_possible_truncation)]
            let samples = samples.into_iter().map(|s| s as f32).collect();
            let t = SolarTrace::from_samples(samples);
            let mut c = SolarCursor::new(&t);
            let (irr, span) = c.constant_until(SimTime::from_millis(start_ms));
            let span = span.min(30_000);
            for k in 0..span {
                let here = c.irradiance(SimTime::from_millis(start_ms + k));
                prop_assert_eq!(here.to_bits(), irr.to_bits(), "k={}", k);
            }
        }

        #[test]
        fn any_seed_produces_valid_trace(seed in any::<u64>()) {
            let t = SolarTraceBuilder::new()
                .duration(SimDuration::from_secs(120))
                .seed(seed)
                .build();
            prop_assert_eq!(t.samples().len(), 120);
            prop_assert!(t.samples().iter().all(|&s| (0.0..=1.0).contains(&s)));
        }

        #[test]
        fn streamed_cursor_matches_materialized_trace(
            secs in 1u64..400,
            seed in any::<u64>(),
            jitter in 0.0f64..0.4,
            smoothing in 0.0f64..0.99,
            levels in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            diurnal in any::<bool>(),
            walk_seed in any::<u64>(),
        ) {
            let mut builder = SolarTraceBuilder::new()
                .duration(SimDuration::from_secs(secs))
                .seed(seed)
                .jitter(jitter)
                .smoothing(smoothing)
                .clear_level(levels.0)
                .partly_level(levels.1)
                .overcast_level(levels.2)
                .mean_clear_secs(30.0)
                .mean_partly_secs(30.0)
                .mean_overcast_secs(30.0);
            if diurnal {
                builder = builder.diurnal(SimDuration::from_secs(secs.div_ceil(2)), 0.4);
            }
            let trace = builder.build();
            assert_cursors_agree(&trace, &walk(secs, walk_seed, 300))?;
        }

        #[test]
        fn cursor_matches_reference_on_runs_and_uniform_traces(
            runs in proptest::collection::vec((0u8..3, 1usize..5), 1..8),
            walk_seed in any::<u64>(),
        ) {
            // Few distinct levels in runs of repeated samples: bit-equal
            // runs, runs that wrap into the trace's head, 1-sample and
            // uniform traces.
            let samples: Vec<f32> = runs
                .iter()
                .flat_map(|&(level, n)| std::iter::repeat_n(f32::from(level) * 0.25, n))
                .collect();
            let len = samples.len() as u64;
            let explicit = SolarTrace::from_samples(samples);
            assert_cursors_agree(&explicit, &walk(len, walk_seed, 300))?;
            // A generated trace with no jitter and one level everywhere
            // is uniform: its cursor proves it by drawing one cycle.
            let flat = SolarTraceBuilder::new()
                .duration(SimDuration::from_secs(len))
                .seed(walk_seed)
                .jitter(0.0)
                .smoothing(0.0)
                .clear_level(0.5)
                .partly_level(0.5)
                .overcast_level(0.5)
                .build();
            prop_assert_eq!(SolarCursor::new(&flat).constant_until(SimTime::ZERO).1, u64::MAX);
            assert_cursors_agree(&flat, &walk(len, walk_seed, 50))?;
        }
    }
}
