//! The adversarial injector: a seeded [`FaultInjector`] that turns a
//! [`FaultPlan`] into a concrete, reproducible fault schedule.
//!
//! Each fault class draws from its own [`SplitMix64`] stream derived
//! from the campaign seed, so firing one class more often never
//! perturbs another class's schedule — the same property the simulator
//! relies on for its classification draws. Power failures are biased
//! toward *vulnerable windows* (mid-task, mid-transmit, right after a
//! checkpoint): the phase alignments where intermittent-execution bugs
//! hide.

use crate::plan::FaultPlan;
use core::ops::Range;
use qz_sim::{task_progress, FaultContext, FaultInjector, FaultPhase, InjectorState, QuietSpan};
use qz_types::{SimDuration, SimTime, SplitMix64, Watts};

/// Stream indices for the per-class generators.
const STREAM_POWER: u64 = 0;
const STREAM_CORRUPT: u64 = 1;
const STREAM_ADC: u64 = 2;
const STREAM_CLOCK: u64 = 3;
const STREAM_BURST: u64 = 4;
const STREAM_JAM: u64 = 5;

/// Counters the injector accumulates alongside the simulator's own
/// fault metrics: energy-floor tracking for the non-negativity
/// invariant, plus how often the adversary found a vulnerable window.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStats {
    /// Ticks observed (on or off).
    pub ticks: u64,
    /// Lowest stored energy seen at any tick, joules.
    pub min_stored_j: f64,
    /// Ticks at which stored energy was negative (beyond float noise).
    pub negative_energy_ticks: u64,
    /// Ticks that sat inside a vulnerable window.
    pub vulnerable_ticks: u64,
}

impl Default for FaultStats {
    fn default() -> FaultStats {
        FaultStats {
            ticks: 0,
            min_stored_j: f64::INFINITY,
            negative_energy_ticks: 0,
            vulnerable_ticks: 0,
        }
    }
}

/// Number of words in the serialized [`InjectorState`]: six stream
/// states plus the four [`FaultStats`] counters.
const STATE_WORDS: usize = 10;

/// Task progress that counts as mid-task: the vulnerable window.
const MID_TASK: Range<f64> = 0.2..0.8;

/// A seeded, plan-driven fault injector.
#[derive(Debug)]
pub struct AdversarialInjector {
    plan: FaultPlan,
    /// First instant the adversary is allowed to act. Before it, every
    /// hook returns its inert default *without drawing*, so a gated run
    /// is bit-identical to a fault-free run up to the gate — which is
    /// what lets campaigns fork all their faulted runs from one shared
    /// prefix snapshot.
    active_from: SimTime,
    power: SplitMix64,
    corrupt: SplitMix64,
    adc: SplitMix64,
    clock: SplitMix64,
    burst: SplitMix64,
    jam: SplitMix64,
    stats: FaultStats,
}

impl AdversarialInjector {
    /// Builds an injector for `plan` with per-class streams derived
    /// from `seed`, active from the first tick.
    pub fn new(plan: FaultPlan, seed: u64) -> AdversarialInjector {
        AdversarialInjector::activating_at(plan, seed, SimTime::ZERO)
    }

    /// Builds an injector that stays inert — no draws, no statistics —
    /// until simulated time reaches `active_from`.
    pub fn activating_at(plan: FaultPlan, seed: u64, active_from: SimTime) -> AdversarialInjector {
        let stream = |s| SplitMix64::new(SplitMix64::derive_stream(seed, s));
        AdversarialInjector {
            plan,
            active_from,
            power: stream(STREAM_POWER),
            corrupt: stream(STREAM_CORRUPT),
            adc: stream(STREAM_ADC),
            clock: stream(STREAM_CLOCK),
            burst: stream(STREAM_BURST),
            jam: stream(STREAM_JAM),
            stats: FaultStats::default(),
        }
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Whether the gate is still closed at `now`.
    fn gated(&self, now: SimTime) -> bool {
        now < self.active_from
    }

    /// Whether the context sits in a window the adversary targets:
    /// mid-task (20–80 % progress), mid-transmit, or within one tick of
    /// a checkpoint.
    fn vulnerable(ctx: &FaultContext) -> bool {
        let mid_task = matches!(
            ctx.phase,
            FaultPhase::Task { progress, .. } if MID_TASK.contains(&progress)
        );
        mid_task || ctx.transmitting || ctx.just_checkpointed
    }

    /// The smallest power-stream draw that fires under *no* phase
    /// alignment: the larger of the boosted and unboosted thresholds
    /// [`FaultInjector::force_power_failure`] can compare against. A
    /// draw at or above it fires under neither.
    fn fire_threshold(&self) -> f64 {
        let p = self.plan.power_failure_per_tick;
        (p * self.plan.phase_boost)
            .clamp(0.0, 1.0)
            .max(p.clamp(0.0, 1.0))
    }

    /// How many ticks of a quiet span sat in a vulnerable window — what
    /// per-tick [`FaultInjector::on_tick`] calls would have counted.
    fn vulnerable_ticks_in(span: &QuietSpan) -> u64 {
        if span.ticks == 0 {
            return 0;
        }
        let first = u64::from(Self::vulnerable(&span.first));
        // Only the first tick can be just after a checkpoint; the phase
        // and the radio stay put (see `QuietSpan`).
        let later = FaultContext {
            just_checkpointed: false,
            ..span.first
        };
        let rest = span.ticks - 1;
        let rest_vulnerable = match (later.phase, span.countdown) {
            (FaultPhase::Task { .. }, Some((remaining, full))) if !later.transmitting => {
                // Tick i (1 ≤ i ≤ rest) runs with i fewer milliseconds
                // remaining, so progress never decreases with i and the
                // mid-task ticks form one run between the ticks that
                // first reach the window's two edges.
                let progress =
                    |i| task_progress(remaining.saturating_sub(SimDuration::from_millis(i)), full);
                let reached = |edge| first_true(1, rest + 1, |i| progress(i) >= edge);
                reached(MID_TASK.end).saturating_sub(reached(MID_TASK.start))
            }
            _ => u64::from(Self::vulnerable(&later)) * rest,
        };
        first + rest_vulnerable
    }
}

/// The first `i` in `lo..hi` where the monotone predicate `reached`
/// holds (`hi` if none does), by binary search.
fn first_true(mut lo: u64, mut hi: u64, reached: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reached(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

impl FaultInjector for AdversarialInjector {
    fn on_tick(&mut self, ctx: &FaultContext) {
        if self.gated(ctx.now) {
            return;
        }
        self.stats.ticks += 1;
        let stored = ctx.stored.value();
        if stored < self.stats.min_stored_j {
            self.stats.min_stored_j = stored;
        }
        if stored < -1e-9 {
            self.stats.negative_energy_ticks += 1;
        }
        if Self::vulnerable(ctx) {
            self.stats.vulnerable_ticks += 1;
        }
    }

    fn force_power_failure(&mut self, ctx: &FaultContext) -> bool {
        if self.gated(ctx.now) {
            return false;
        }
        let boost = if Self::vulnerable(ctx) {
            self.plan.phase_boost
        } else {
            1.0
        };
        self.power.chance(self.plan.power_failure_per_tick * boost)
    }

    /// Gated: the distance to the gate (no hook acts before it).
    /// Armed: the number of upcoming power-stream draws that fire under
    /// no phase alignment — ticks with the device off draw nothing.
    fn quiet_ticks(&self, now: SimTime, on: bool, limit: u64) -> u64 {
        if self.gated(now) {
            return limit.min(self.active_from.since(now).as_millis());
        }
        if !on {
            return limit;
        }
        self.power.run_at_least(self.fire_threshold(), limit)
    }

    fn skip(&mut self, span: &QuietSpan) {
        // A quiet horizon ends at the gate, so a span starting gated
        // lies wholly before it.
        if self.gated(span.first.now) {
            return;
        }
        self.power.advance(span.on_ticks);
        self.stats.ticks += span.ticks;
        let stored = span.min_stored.value();
        if stored < self.stats.min_stored_j {
            self.stats.min_stored_j = stored;
        }
        // Post-step energy is clamped at zero, so a span never holds a
        // negative-energy tick.
        debug_assert!(stored >= -1e-9 || stored.is_nan());
        self.stats.vulnerable_ticks += Self::vulnerable_ticks_in(span);
    }

    fn corrupt_checkpoint(&mut self, ctx: &FaultContext) -> bool {
        if self.gated(ctx.now) {
            return false;
        }
        self.corrupt.chance(self.plan.checkpoint_corruption)
    }

    fn adc_misread(&mut self, t: SimTime, p_in: Watts) -> Option<Watts> {
        if self.gated(t) || !self.adc.chance(self.plan.adc_misread) {
            return None;
        }
        let a = self.plan.adc_amplitude;
        Some(p_in * self.adc.next_range(1.0 - a, 1.0 + a))
    }

    fn clock_jitter(&mut self, t: SimTime) -> Option<f64> {
        if self.gated(t) || !self.clock.chance(self.plan.clock_jitter) {
            return None;
        }
        let a = self.plan.clock_amplitude;
        Some(self.clock.next_range(1.0 - a, 1.0 + a))
    }

    fn extra_burst(&mut self, t: SimTime) -> u32 {
        if self.gated(t) || self.plan.burst_max == 0 || !self.burst.chance(self.plan.burst) {
            return 0;
        }
        // Truncation-safe: burst_max is u32, the draw is below it.
        #[allow(clippy::cast_possible_truncation)]
        let n = self.burst.next_below(u64::from(self.plan.burst_max)) as u32;
        n + 1
    }

    fn jam_uplink(&mut self, t: SimTime) -> Option<SimDuration> {
        if self.gated(t)
            || self.plan.jam_max.as_millis() == 0
            || !self.jam.chance(self.plan.uplink_jam)
        {
            return None;
        }
        let ms = self.jam.next_below(self.plan.jam_max.as_millis()) + 1;
        Some(SimDuration::from_millis(ms))
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn core::any::Any> {
        Some(self)
    }

    fn save_state(&self) -> Option<InjectorState> {
        Some(InjectorState {
            words: vec![
                self.power.state(),
                self.corrupt.state(),
                self.adc.state(),
                self.clock.state(),
                self.burst.state(),
                self.jam.state(),
                self.stats.ticks,
                self.stats.min_stored_j.to_bits(),
                self.stats.negative_energy_ticks,
                self.stats.vulnerable_ticks,
            ],
        })
    }

    fn restore_state(&mut self, state: &InjectorState) -> Result<(), String> {
        if state.words.len() != STATE_WORDS {
            return Err(format!(
                "adversarial injector expects {STATE_WORDS} state words, snapshot has {}",
                state.words.len()
            ));
        }
        let w = &state.words;
        self.power = SplitMix64::from_state(w[0]);
        self.corrupt = SplitMix64::from_state(w[1]);
        self.adc = SplitMix64::from_state(w[2]);
        self.clock = SplitMix64::from_state(w[3]);
        self.burst = SplitMix64::from_state(w[4]);
        self.jam = SplitMix64::from_state(w[5]);
        self.stats = FaultStats {
            ticks: w[6],
            min_stored_j: f64::from_bits(w[7]),
            negative_energy_ticks: w[8],
            vulnerable_ticks: w[9],
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qz_types::Joules;

    fn ctx(phase: FaultPhase, transmitting: bool, just_checkpointed: bool) -> FaultContext {
        FaultContext {
            now: SimTime::ZERO,
            phase,
            stored: Joules(0.1),
            reserve: Joules(0.625e-3),
            occupancy: 0,
            capacity: 10,
            transmitting,
            just_checkpointed,
        }
    }

    #[test]
    fn zero_plan_never_fires() {
        let mut inj = AdversarialInjector::new(FaultPlan::none(), 7);
        let c = ctx(FaultPhase::Idle, false, false);
        for t in 0..10_000 {
            inj.on_tick(&c);
            assert!(!inj.force_power_failure(&c));
            assert!(!inj.corrupt_checkpoint(&c));
            assert!(inj.adc_misread(SimTime::ZERO, Watts(0.01)).is_none());
            assert!(inj.clock_jitter(SimTime::ZERO).is_none());
            assert_eq!(inj.extra_burst(SimTime::ZERO), 0);
            assert!(inj.jam_uplink(SimTime::ZERO).is_none());
            let _ = t;
        }
        assert_eq!(inj.stats().ticks, 10_000);
        assert_eq!(inj.stats().negative_energy_ticks, 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let draw = |seed| {
            let mut inj = AdversarialInjector::new(FaultPlan::heavy(), seed);
            let c = ctx(FaultPhase::Idle, false, false);
            (0..5_000)
                .map(|_| inj.force_power_failure(&c))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn vulnerable_windows_attract_failures() {
        let fire_count = |phase, transmitting| {
            let mut inj = AdversarialInjector::new(FaultPlan::standard(), 11);
            let c = ctx(phase, transmitting, false);
            (0..100_000).filter(|_| inj.force_power_failure(&c)).count()
        };
        let idle = fire_count(FaultPhase::Idle, false);
        let mid = fire_count(
            FaultPhase::Task {
                index: 0,
                progress: 0.5,
            },
            false,
        );
        assert!(
            mid > idle * 5,
            "mid-task fired {mid}, idle fired {idle}: expected a strong boost"
        );
    }

    #[test]
    fn task_edges_are_not_boosted() {
        let early = ctx(
            FaultPhase::Task {
                index: 0,
                progress: 0.05,
            },
            false,
            false,
        );
        assert!(!AdversarialInjector::vulnerable(&early));
        assert!(AdversarialInjector::vulnerable(&ctx(
            FaultPhase::Idle,
            true,
            false
        )));
        assert!(AdversarialInjector::vulnerable(&ctx(
            FaultPhase::Idle,
            false,
            true
        )));
    }

    #[test]
    fn burst_and_jam_respect_bounds() {
        let mut inj = AdversarialInjector::new(FaultPlan::heavy(), 3);
        for _ in 0..50_000 {
            let b = inj.extra_burst(SimTime::ZERO);
            assert!(b <= FaultPlan::heavy().burst_max);
            if let Some(wait) = inj.jam_uplink(SimTime::ZERO) {
                assert!(wait.as_millis() >= 1);
                assert!(wait <= FaultPlan::heavy().jam_max);
            }
        }
    }

    #[test]
    fn snapshot_roundtrip_resumes_every_stream() {
        let mut inj = AdversarialInjector::new(FaultPlan::heavy(), 42);
        let c = ctx(FaultPhase::Idle, false, false);
        for _ in 0..2_500 {
            inj.on_tick(&c);
            let _ = inj.force_power_failure(&c);
            let _ = inj.corrupt_checkpoint(&c);
            let _ = inj.adc_misread(SimTime::ZERO, Watts(0.01));
            let _ = inj.clock_jitter(SimTime::ZERO);
            let _ = inj.extra_burst(SimTime::ZERO);
            let _ = inj.jam_uplink(SimTime::ZERO);
        }
        let snap = inj.save_state().expect("adversarial injector snapshots");
        assert_eq!(snap.words.len(), 10);

        // A twin restored from the snapshot produces the identical
        // suffix schedule on every stream, and carries the stats over.
        let mut twin = AdversarialInjector::new(FaultPlan::heavy(), 1);
        twin.restore_state(&snap).unwrap();
        assert_eq!(twin.stats(), inj.stats());
        for _ in 0..2_500 {
            assert_eq!(twin.force_power_failure(&c), inj.force_power_failure(&c));
            assert_eq!(twin.corrupt_checkpoint(&c), inj.corrupt_checkpoint(&c));
            assert_eq!(
                twin.adc_misread(SimTime::ZERO, Watts(0.01)),
                inj.adc_misread(SimTime::ZERO, Watts(0.01))
            );
            assert_eq!(
                twin.clock_jitter(SimTime::ZERO),
                inj.clock_jitter(SimTime::ZERO)
            );
            assert_eq!(
                twin.extra_burst(SimTime::ZERO),
                inj.extra_burst(SimTime::ZERO)
            );
            assert_eq!(
                twin.jam_uplink(SimTime::ZERO),
                inj.jam_uplink(SimTime::ZERO)
            );
        }
    }

    #[test]
    fn wrong_word_count_is_rejected() {
        let mut inj = AdversarialInjector::new(FaultPlan::standard(), 7);
        let err = inj
            .restore_state(&InjectorState {
                words: vec![1, 2, 3],
            })
            .unwrap_err();
        assert!(err.contains("10 state words"), "{err}");
    }

    #[test]
    fn gate_suppresses_draws_and_stats_until_activation() {
        let at = SimTime::from_secs(10);
        let mut gated = AdversarialInjector::activating_at(FaultPlan::heavy(), 5, at);
        let mut early = ctx(FaultPhase::Idle, true, true);
        for t in 0..10_000u64 {
            early.now = SimTime::from_millis(t);
            gated.on_tick(&early);
            assert!(!gated.force_power_failure(&early));
            assert!(!gated.corrupt_checkpoint(&early));
            assert!(gated.adc_misread(early.now, Watts(0.01)).is_none());
            assert!(gated.clock_jitter(early.now).is_none());
            assert_eq!(gated.extra_burst(early.now), 0);
            assert!(gated.jam_uplink(early.now).is_none());
        }
        assert_eq!(gated.stats().ticks, 0, "gated ticks accumulate nothing");

        // After the gate, the schedule is the one a fresh injector
        // would produce: the gate made no draws.
        let mut fresh = AdversarialInjector::new(FaultPlan::heavy(), 5);
        let mut c = ctx(FaultPhase::Idle, false, false);
        c.now = at;
        for _ in 0..5_000 {
            assert_eq!(gated.force_power_failure(&c), fresh.force_power_failure(&c));
        }
    }

    #[test]
    fn stats_track_energy_floor() {
        let mut inj = AdversarialInjector::new(FaultPlan::none(), 1);
        let mut c = ctx(FaultPhase::Idle, false, false);
        c.stored = Joules(0.2);
        inj.on_tick(&c);
        c.stored = Joules(0.05);
        inj.on_tick(&c);
        assert!((inj.stats().min_stored_j - 0.05).abs() < 1e-15);
        c.stored = Joules(-0.01);
        inj.on_tick(&c);
        assert_eq!(inj.stats().negative_energy_ticks, 1);
    }

    /// A plan with random power-failure odds and boost (every other
    /// class off — they never fall inside a quiet horizon).
    fn power_plan(p: f64, boost: f64) -> FaultPlan {
        FaultPlan {
            power_failure_per_tick: p,
            phase_boost: boost,
            ..FaultPlan::none()
        }
    }

    #[test]
    fn quiet_horizon_stops_at_the_gate_and_spans_off_ticks() {
        let at = SimTime::from_secs(2);
        let inj = AdversarialInjector::activating_at(FaultPlan::heavy(), 4, at);
        assert_eq!(inj.quiet_ticks(SimTime::ZERO, true, u64::MAX), 2_000);
        assert_eq!(inj.quiet_ticks(SimTime::from_millis(1_999), true, 50), 1);
        assert_eq!(inj.quiet_ticks(SimTime::ZERO, false, 7), 7);
        // Armed and off: no draws, so nothing can fire.
        assert_eq!(inj.quiet_ticks(at, false, 123_456), 123_456);
        // A plan that never fires promises any horizon without scanning.
        let none = AdversarialInjector::new(FaultPlan::none(), 4);
        assert_eq!(none.quiet_ticks(SimTime::ZERO, true, u64::MAX), u64::MAX);
        // A certain failure leaves nothing quiet while on.
        let sure = AdversarialInjector::new(power_plan(1.0, 1.0), 4);
        assert_eq!(sure.quiet_ticks(SimTime::ZERO, true, 10), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Stepping the ticks of a returned quiet horizon one at a time
        /// fires nothing, and `skip` over the same span leaves the
        /// injector's snapshot words exactly as the per-tick
        /// `on_tick` + `force_power_failure` calls do.
        #[test]
        fn quiet_horizon_is_sound_and_skip_matches_per_tick(
            p in 0.0f64..0.02,
            boost in 0.0f64..60.0,
            seed in any::<u64>(),
            warmup in 0u64..300,
            gate_ms in 0u64..1_000,
            start_ms in 0u64..1_500,
            on in any::<bool>(),
            phase_pick in 0u8..4,
            transmit_task in any::<bool>(),
            just_checkpointed in any::<bool>(),
            remaining_ms in 2u64..4_000,
            extra_ms in 0u64..4_000,
            limit in 1u64..3_000,
            e0 in 0.0f64..0.05,
            slope in -2e-5f64..2e-5,
        ) {
            let plan = power_plan(p, boost);
            let gate = SimTime::from_millis(gate_ms);
            let mut stepped = AdversarialInjector::activating_at(plan.clone(), seed, gate);
            // Move the power stream to an arbitrary position.
            let mut armed = ctx(FaultPhase::Idle, false, false);
            armed.now = SimTime::from_secs(3_600);
            for _ in 0..warmup {
                let _ = stepped.force_power_failure(&armed);
            }
            let mut skipped = AdversarialInjector::activating_at(plan, 0, gate);
            skipped.restore_state(&stepped.save_state().unwrap()).unwrap();

            let remaining = SimDuration::from_millis(remaining_ms);
            let full = SimDuration::from_millis(remaining_ms + extra_ms);
            let (phase, transmitting, job) = match (on, phase_pick) {
                (false, _) => (FaultPhase::Off, false, true),
                (true, 0) => (FaultPhase::Idle, false, false),
                (true, 1) => (FaultPhase::Overhead, false, true),
                (true, 2) => (FaultPhase::TxWait, true, true),
                (true, _) => (
                    FaultPhase::Task { index: 0, progress: task_progress(remaining, full) },
                    transmit_task,
                    true,
                ),
            };
            // As in the engine: a powered job's countdown ends a span.
            let limit = if on && job { limit.min(remaining_ms - 1) } else { limit };
            let now = SimTime::from_millis(start_ms);
            let quiet = stepped.quiet_ticks(now, on, limit);
            prop_assert!(quiet <= limit);

            let stored = |i: u64| Joules((e0 + slope * (i + 1) as f64).max(0.0));
            let tick_ctx = |i: u64| FaultContext {
                now: now + SimDuration::from_millis(i),
                phase: match phase {
                    FaultPhase::Task { index, .. } => FaultPhase::Task {
                        index,
                        progress: task_progress(
                            remaining.saturating_sub(SimDuration::from_millis(i)),
                            full,
                        ),
                    },
                    other => other,
                },
                stored: stored(i),
                transmitting,
                just_checkpointed: just_checkpointed && i == 0,
                ..ctx(FaultPhase::Idle, false, false)
            };
            let mut min_stored = Joules(f64::INFINITY);
            for i in 0..quiet {
                let c = tick_ctx(i);
                stepped.on_tick(&c);
                if on {
                    prop_assert!(!stepped.force_power_failure(&c), "tick {} of {} fired", i, quiet);
                }
                if c.stored < min_stored {
                    min_stored = c.stored;
                }
            }
            skipped.skip(&QuietSpan {
                first: tick_ctx(0),
                ticks: quiet,
                on_ticks: if on { quiet } else { 0 },
                min_stored,
                countdown: job.then_some((remaining, full)),
            });
            prop_assert_eq!(skipped.save_state(), stepped.save_state());
        }
    }
}
