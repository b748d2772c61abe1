//! Combined power system: harvester charging a supercapacitor under load.

use crate::{Harvester, Supercap};
use qz_prof::{Phase, PhaseProfiler};
use qz_types::{Joules, SimDuration, Watts};

/// Accounting for one simulation step of the power system.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepOutcome {
    /// Charging power the harvester produced this step (post-converter).
    pub input_power: Watts,
    /// Harvested energy accepted into storage.
    pub harvested: Joules,
    /// Harvested energy wasted because storage was full.
    pub wasted: Joules,
    /// Energy actually supplied to the load.
    pub supplied: Joules,
    /// `true` if the load's demand could not be fully met — the capacitor
    /// drained to the brownout threshold during this step.
    pub brownout: bool,
}

/// A post-step condition that ends a bulk [`PowerSystem::advance`] early.
///
/// The tick on which the condition first holds is still committed —
/// matching a reference loop that steps the energy system first and
/// inspects the stored level afterwards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopCondition {
    /// Never stop early: commit every requested tick.
    None,
    /// Stop once stored energy falls to (or below) the given reserve, or
    /// the load browns out.
    Depleted(Joules),
    /// Stop once the capacitor clears its turn-on threshold
    /// ([`Supercap::can_turn_on`]).
    CanTurnOn,
}

/// Result of a bulk [`PowerSystem::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BulkOutcome {
    /// Ticks actually committed (including the crossing tick, if any).
    pub ticks: u64,
    /// Whether the stop condition held after the final committed tick.
    pub crossed: bool,
}

/// A harvester charging a supercapacitor that powers a load.
///
/// This is the per-tick energy accounting engine the device simulator
/// steps: each tick, harvested energy flows into the capacitor and the
/// executing load draws out of it. Harvesting continues while the device
/// is off (that is exactly the recharge phase on the critical path of
/// `S_e2e`, Eq. 1 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSystem {
    capacitor: Supercap,
    harvester: Harvester,
    /// Lifetime totals, useful for energy-budget sanity checks.
    total_harvested: Joules,
    total_wasted: Joules,
    total_supplied: Joules,
}

impl PowerSystem {
    /// Combines a storage element and a harvester.
    pub fn new(capacitor: Supercap, harvester: Harvester) -> PowerSystem {
        PowerSystem {
            capacitor,
            harvester,
            total_harvested: Joules::ZERO,
            total_wasted: Joules::ZERO,
            total_supplied: Joules::ZERO,
        }
    }

    /// The storage element.
    #[inline]
    pub fn capacitor(&self) -> &Supercap {
        &self.capacitor
    }

    /// The harvesting front-end.
    #[inline]
    pub fn harvester(&self) -> &Harvester {
        &self.harvester
    }

    /// Instantaneous input power for an irradiance fraction — what
    /// Quetzal's measurement circuit reads as `P_in`.
    #[inline]
    pub fn input_power(&self, irradiance: f64) -> Watts {
        self.harvester.output(irradiance)
    }

    /// Advances the power system by `dt`: harvests at the given irradiance
    /// and draws `load` power out of storage.
    ///
    /// Charge is added before the draw within the step, which models a
    /// device that can run directly off harvest when input power exceeds
    /// load power (zero net discharge).
    pub fn step(&mut self, irradiance: f64, load: Watts, dt: SimDuration) -> StepOutcome {
        let input_power = self.harvester.output(irradiance);
        self.step_prepared(input_power, load, dt)
    }

    /// [`PowerSystem::step`] with the harvester conversion already done:
    /// `input_power` must be `self.harvester().output(irradiance)` for
    /// the tick's irradiance. Callers that know the irradiance is
    /// constant across a run of ticks (the batched busy-tick kernel)
    /// hoist the conversion once per block; the downstream arithmetic is
    /// the same ops on the same bits, so outcomes are identical to
    /// calling `step` per tick.
    #[inline]
    pub fn step_prepared(
        &mut self,
        input_power: Watts,
        load: Watts,
        dt: SimDuration,
    ) -> StepOutcome {
        debug_assert!(load.value() >= 0.0, "load must be non-negative");
        let offered = input_power * dt.as_seconds();
        let demand = load * dt.as_seconds();
        let (harvested, supplied) = tick_flow(&mut self.capacitor, offered, demand, dt);
        let wasted = offered - harvested;
        let brownout = supplied.value() + 1e-18 < demand.value();

        self.total_harvested += harvested;
        self.total_wasted += wasted;
        self.total_supplied += supplied;

        StepOutcome {
            input_power,
            harvested,
            wasted,
            supplied,
            brownout,
        }
    }

    /// The stored energy one [`PowerSystem::step`] would leave behind,
    /// without committing the step: the same storage arithmetic on a
    /// copy of the capacitor, so the result is bit-identical to the
    /// energy after stepping.
    pub fn peek_step(&self, irradiance: f64, load: Watts, dt: SimDuration) -> Joules {
        let mut probe = self.capacitor.clone();
        let offered = self.harvester.output(irradiance) * dt.as_seconds();
        tick_flow(&mut probe, offered, load * dt.as_seconds(), dt);
        probe.energy()
    }

    /// Bulk-advances up to `max_ticks` steps of constant `irradiance` and
    /// `load`, stopping early (after committing the crossing tick) when
    /// `stop` first holds. Per-tick harvested/wasted energy accumulates
    /// into the caller's ledgers in step order.
    ///
    /// The stored energy and all lifetime totals are **bit-identical**
    /// to a caller looping [`PowerSystem::step`] by hand: a *sprint*
    /// prefix — whose length is proven crossing-free by conservative
    /// rate bounds ([`PowerSystem::ticks_until_crossing`] gives the
    /// closed-form estimate those bounds derive from) — replicates
    /// `step`'s arithmetic operation-for-operation with the per-tick
    /// constants hoisted, and the vigilant tail runs `step` itself with
    /// per-tick stop checks.
    #[allow(clippy::too_many_arguments)] // mirrors step() plus the span ledgers
    pub fn advance(
        &mut self,
        irradiance: f64,
        load: Watts,
        dt: SimDuration,
        max_ticks: u64,
        stop: StopCondition,
        harvested_acc: &mut Joules,
        wasted_acc: &mut Joules,
    ) -> BulkOutcome {
        self.advance_inner(
            irradiance,
            load,
            dt,
            max_ticks,
            stop,
            harvested_acc,
            wasted_acc,
            None,
        )
    }

    /// [`PowerSystem::advance`] with phase-profiler spans around the
    /// sprint, the fixed-point replay, and the vigilant tail. Profiling
    /// reads wall-clock time only; the energy trajectory and every
    /// returned value are bit-identical to the unprofiled call.
    #[allow(clippy::too_many_arguments)] // mirrors advance() plus the profiler
    pub fn advance_profiled(
        &mut self,
        irradiance: f64,
        load: Watts,
        dt: SimDuration,
        max_ticks: u64,
        stop: StopCondition,
        harvested_acc: &mut Joules,
        wasted_acc: &mut Joules,
        prof: &mut PhaseProfiler,
    ) -> BulkOutcome {
        self.advance_inner(
            irradiance,
            load,
            dt,
            max_ticks,
            stop,
            harvested_acc,
            wasted_acc,
            Some(prof),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn advance_inner(
        &mut self,
        irradiance: f64,
        load: Watts,
        dt: SimDuration,
        max_ticks: u64,
        stop: StopCondition,
        harvested_acc: &mut Joules,
        wasted_acc: &mut Joules,
        mut prof: Option<&mut PhaseProfiler>,
    ) -> BulkOutcome {
        // Iterate the sprint: each pass re-derives a crossing-free prefix
        // from the *current* stored energy, so the conservative haircut
        // and margin cost only ~margin ticks of vigilant tail per
        // crossing instead of a haircut-sized fraction of the whole span.
        let mut ticks = 0;
        let t0 = prof.as_ref().and_then(|p| p.begin());
        let mut sprinted = false;
        while ticks < max_ticks {
            let sprint = self
                .sprint_bound(irradiance, load, dt, stop)
                .min(max_ticks - ticks);
            if sprint == 0 {
                break;
            }
            sprinted = true;
            self.sprint(
                irradiance,
                load,
                dt,
                sprint,
                harvested_acc,
                wasted_acc,
                prof.as_deref_mut(),
            );
            ticks += sprint;
        }
        if sprinted {
            if let Some(p) = prof.as_deref_mut() {
                p.end(Phase::Sprint, t0);
            }
        }
        let t_tail = if ticks < max_ticks {
            prof.as_ref().and_then(|p| p.begin())
        } else {
            None
        };
        let mut crossed = false;
        if ticks < max_ticks {
            let (tail, hit) = self.vigilant_tail(
                irradiance,
                load,
                dt,
                max_ticks - ticks,
                stop,
                harvested_acc,
                wasted_acc,
            );
            ticks += tail;
            crossed = hit;
        }
        if let Some(p) = prof {
            p.end(Phase::VigilantTail, t_tail);
        }
        BulkOutcome { ticks, crossed }
    }

    /// The vigilant tail of [`PowerSystem::advance`]: per-tick stepping
    /// with the stop condition checked after every committed tick.
    /// Replicates [`PowerSystem::step`]'s arithmetic
    /// operation-for-operation on hoisted locals — including every
    /// clamp, the brownout comparison, and `can_turn_on`'s
    /// voltage-domain square root — so the trajectory is bit-identical
    /// to calling `step` in a loop while costing a handful of flops per
    /// tick instead of re-deriving the harvester output and capacity.
    #[allow(clippy::too_many_arguments)] // mirrors advance_inner()
    fn vigilant_tail(
        &mut self,
        irradiance: f64,
        load: Watts,
        dt: SimDuration,
        max_ticks: u64,
        stop: StopCondition,
        harvested_acc: &mut Joules,
        wasted_acc: &mut Joules,
    ) -> (u64, bool) {
        let secs = dt.as_seconds();
        let offered = (self.harvester.output(irradiance) * secs).value();
        let leak = (self.capacitor.config().leakage * secs).value();
        let demand = (load * secs).value();
        let capacity = self.capacitor.capacity().value();
        // can_turn_on()'s comparison, with its constant operands hoisted:
        // `sqrt(v_off² + 2·E/C) ≥ v_on − 1 nV`.
        let v_off = self.capacitor.config().v_off.value();
        let v_off_sq = v_off * v_off;
        let c = self.capacitor.config().capacitance.value();
        let v_on_slack = (self.capacitor.config().v_on - qz_types::Volts(1e-9)).value();
        let mut energy = self.capacitor.energy().value();
        let mut total_h = self.total_harvested.value();
        let mut total_w = self.total_wasted.value();
        let mut total_s = self.total_supplied.value();
        let mut acc_h = harvested_acc.value();
        let mut acc_w = wasted_acc.value();
        let mut ticks = 0;
        let mut crossed = false;
        while ticks < max_ticks {
            // charge(offered)
            let headroom = (capacity - energy).max(0.0);
            let harvested = offered.min(headroom);
            energy += harvested;
            let wasted = offered - harvested;
            // self-discharge
            if leak > 0.0 {
                let leaked = leak.min(energy);
                energy -= leaked;
                if energy < 0.0 {
                    energy = 0.0;
                }
            }
            // discharge(demand)
            let supplied = demand.min(energy);
            energy -= supplied;
            if energy < 0.0 {
                energy = 0.0;
            }
            total_h += harvested;
            total_w += wasted;
            total_s += supplied;
            acc_h += harvested;
            acc_w += wasted;
            ticks += 1;
            crossed = match stop {
                StopCondition::None => false,
                StopCondition::Depleted(reserve) => {
                    energy <= reserve.value() || supplied + 1e-18 < demand
                }
                StopCondition::CanTurnOn => (v_off_sq + 2.0 * energy / c).sqrt() >= v_on_slack,
            };
            if crossed {
                break;
            }
        }
        self.capacitor.set_energy_raw(Joules(energy));
        self.total_harvested = Joules(total_h);
        self.total_wasted = Joules(total_w);
        self.total_supplied = Joules(total_s);
        *harvested_acc = Joules(acc_h);
        *wasted_acc = Joules(acc_w);
        (ticks, crossed)
    }

    /// Runs `n` consecutive [`PowerSystem::step`]-equivalent ticks with
    /// every per-tick constant hoisted out of the loop, on raw `f64`
    /// locals. The arithmetic replicates `step` operation-for-operation
    /// (`charge`'s `min`/`max` clamps, the leak draw, `discharge`'s
    /// floor at zero, the three lifetime-total additions), so the final
    /// state is bit-identical to stepping — pinned by the
    /// `advance_is_bit_identical_to_stepping` proptest. This loop is
    /// where the fast-forward engine's throughput comes from: the full
    /// `step` path re-derives the harvester output, offered energy, and
    /// capacity every tick, which dominates a quiescent tick's cost.
    ///
    /// Callers must only request ticks proven not to need a stop check
    /// (see [`PowerSystem::advance`]'s sprint bound): the loop commits
    /// all `n` ticks unconditionally.
    #[allow(clippy::too_many_arguments)] // mirrors advance_inner()
    fn sprint(
        &mut self,
        irradiance: f64,
        load: Watts,
        dt: SimDuration,
        n: u64,
        harvested_acc: &mut Joules,
        wasted_acc: &mut Joules,
        mut prof: Option<&mut PhaseProfiler>,
    ) {
        if n == 0 {
            return;
        }
        let secs = dt.as_seconds();
        let offered = (self.harvester.output(irradiance) * secs).value();
        let leak = (self.capacitor.config().leakage * secs).value();
        let demand = (load * secs).value();
        let capacity = self.capacitor.capacity().value();
        let mut energy = self.capacitor.energy().value();
        let mut total_h = self.total_harvested.value();
        let mut total_w = self.total_wasted.value();
        let mut total_s = self.total_supplied.value();
        let mut acc_h = harvested_acc.value();
        let mut acc_w = wasted_acc.value();
        // `energy` is finite and non-negative, so a NaN bit pattern can
        // never collide with a real start-of-tick value.
        let mut prev_start = u64::MAX;
        let (mut last_h, mut last_w, mut last_s) = (0.0f64, 0.0, 0.0);
        let mut i = 0;
        while i < n {
            // Clamp-free block: while the capacitor provably neither
            // fills nor empties, every tick reduces to
            // `harvested == offered`, `wasted == +0.0`,
            // `supplied == demand` with the exact bits the clamped path
            // would produce, so the min/max clamps and the `+= 0.0`
            // wasted additions can be elided wholesale. The first tick
            // of every sprint stays on the scalar path (`i >= 1`) so the
            // period-1 fixed-point detector keeps its chance to arm.
            if i >= 1 {
                let block = clamp_free_ticks(energy, offered, leak, demand, capacity).min(n - i);
                if block >= CLAMP_FREE_MIN {
                    // `x + 0.0 == x` bitwise for every x except -0.0;
                    // normalize the wasted accumulators once so skipping
                    // their per-tick `+= +0.0` is exact.
                    if total_w.to_bits() == NEG_ZERO_BITS {
                        total_w += 0.0;
                    }
                    if acc_w.to_bits() == NEG_ZERO_BITS {
                        acc_w += 0.0;
                    }
                    if leak > 0.0 {
                        for _ in 0..block {
                            energy += offered;
                            energy -= leak;
                            energy -= demand;
                            total_h += offered;
                            total_s += demand;
                            acc_h += offered;
                        }
                    } else {
                        for _ in 0..block {
                            energy += offered;
                            energy -= demand;
                            total_h += offered;
                            total_s += demand;
                            acc_h += offered;
                        }
                    }
                    i += block;
                    // The fixed-point detector must re-arm from scratch:
                    // `last_*` no longer describe the previous tick.
                    prev_start = u64::MAX;
                    continue;
                }
            }
            // Period-1 fixed-point detection: when a tick starts from
            // the exact energy bits the previous tick started from, the
            // whole tick repeats verbatim (every per-tick quantity is a
            // pure function of the start energy and the hoisted
            // constants). The capacitor pinned full under sun and
            // pinned empty in the dark both reach this cycle within two
            // ticks; replaying the constant increments drops the serial
            // energy dependency chain from the loop.
            let start = energy.to_bits();
            if start == prev_start {
                let t0 = prof.as_ref().and_then(|p| p.begin());
                for _ in i..n {
                    total_h += last_h;
                    total_w += last_w;
                    total_s += last_s;
                    acc_h += last_h;
                    acc_w += last_w;
                }
                if let Some(p) = prof.as_deref_mut() {
                    p.end(Phase::Replay, t0);
                }
                break;
            }
            prev_start = start;
            // charge(offered)
            let headroom = (capacity - energy).max(0.0);
            let harvested = offered.min(headroom);
            energy += harvested;
            let wasted = offered - harvested;
            // self-discharge
            if leak > 0.0 {
                let leaked = leak.min(energy);
                energy -= leaked;
                if energy < 0.0 {
                    energy = 0.0;
                }
            }
            // discharge(demand)
            let supplied = demand.min(energy);
            energy -= supplied;
            if energy < 0.0 {
                energy = 0.0;
            }
            total_h += harvested;
            total_w += wasted;
            total_s += supplied;
            acc_h += harvested;
            acc_w += wasted;
            (last_h, last_w, last_s) = (harvested, wasted, supplied);
            i += 1;
        }
        self.capacitor.set_energy_raw(Joules(energy));
        self.total_harvested = Joules(total_h);
        self.total_wasted = Joules(total_w);
        self.total_supplied = Joules(total_s);
        *harvested_acc = Joules(acc_h);
        *wasted_acc = Joules(acc_w);
    }

    /// Closed-form estimate of how many `dt` ticks of constant
    /// `irradiance` and `load` pass before stored energy crosses
    /// `threshold`, in the clamp-free linear regime (capacitor neither
    /// fills nor empties along the way). Returns `None` when the net
    /// flow points away from the threshold, `Some(0)` when already at or
    /// past it.
    ///
    /// This is a *predictor* for horizon planning; bulk integration that
    /// must stay bit-identical to per-tick stepping goes through
    /// [`PowerSystem::advance`].
    pub fn ticks_until_crossing(
        &self,
        irradiance: f64,
        load: Watts,
        dt: SimDuration,
        threshold: Joules,
    ) -> Option<u64> {
        let secs = dt.as_seconds().value();
        let delta = (self.harvester.output(irradiance).value()
            - self.capacitor.config().leakage.value()
            - load.value())
            * secs;
        let gap = threshold.value() - self.capacitor.energy().value();
        let ticks = if gap > 0.0 {
            if delta <= 0.0 {
                return None;
            }
            (gap / delta).ceil()
        } else if gap < 0.0 {
            if delta >= 0.0 {
                return None;
            }
            (gap / delta).ceil()
        } else {
            return Some(0);
        };
        // The ratio of two same-signed finite values is non-negative.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Some(ticks.min(9.0e18) as u64)
    }

    /// Ticks guaranteed *not* to satisfy `stop`, from conservative
    /// per-tick rate bounds: energy can fall at most `load + leakage`
    /// per second and rise at most as fast as the harvest offer. A
    /// multiplicative haircut plus a fixed margin absorb f64 rounding
    /// drift over long sprints, so [`PowerSystem::advance`] can skip the
    /// per-tick stop checks for this prefix.
    fn sprint_bound(
        &self,
        irradiance: f64,
        load: Watts,
        dt: SimDuration,
        stop: StopCondition,
    ) -> u64 {
        const HAIRCUT: f64 = 1.0 - 1e-6;
        const MARGIN: u64 = 64;
        let energy = self.capacitor.energy().value();
        let secs = dt.as_seconds().value();
        let bound = match stop {
            StopCondition::None => return u64::MAX,
            StopCondition::Depleted(reserve) => {
                let max_dec = (load.value() + self.capacitor.config().leakage.value()) * secs;
                if energy <= reserve.value() {
                    return 0;
                }
                if max_dec <= 0.0 {
                    // Energy is non-decreasing and demand is zero: the
                    // reserve is never reached and no brownout can fire.
                    return u64::MAX;
                }
                (energy - reserve.value()) / max_dec * HAIRCUT
            }
            StopCondition::CanTurnOn => {
                let e_on = self.capacitor.turn_on_energy().value() * HAIRCUT;
                if energy >= e_on {
                    return 0;
                }
                let max_inc = self.harvester.output(irradiance).value() * secs;
                if max_inc <= 0.0 {
                    // Nothing charges the capacitor: the threshold is
                    // never reached.
                    return u64::MAX;
                }
                (e_on - energy) / max_inc
            }
        };
        if !bound.is_finite() || bound <= 0.0 {
            return 0;
        }
        // Bounded above before the cast; the dividend/divisor signs make
        // the ratio non-negative.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let ticks = bound.min(9.0e18) as u64;
        ticks.saturating_sub(MARGIN)
    }

    /// Draws a one-shot energy amount from storage (e.g. a checkpoint or
    /// restore operation), outside the per-tick load accounting.
    ///
    /// Returns the energy actually supplied (less than `amount` if the
    /// capacitor ran dry).
    pub fn draw(&mut self, amount: Joules) -> Joules {
        let supplied = self.capacitor.discharge(amount);
        self.total_supplied += supplied;
        supplied
    }

    /// Lifetime energy accepted into storage.
    #[inline]
    pub fn total_harvested(&self) -> Joules {
        self.total_harvested
    }

    /// Lifetime harvested energy wasted on a full capacitor.
    #[inline]
    pub fn total_wasted(&self) -> Joules {
        self.total_wasted
    }

    /// Lifetime energy supplied to the load.
    #[inline]
    pub fn total_supplied(&self) -> Joules {
        self.total_supplied
    }

    /// Captures the mutable power-system state for a simulation snapshot.
    ///
    /// Configuration (capacitor geometry, harvester curve) is *not*
    /// captured — a snapshot restores into a power system built from the
    /// same configuration, so only the evolving quantities travel.
    pub fn save_state(&self) -> PowerSystemState {
        PowerSystemState {
            stored: self.capacitor.energy(),
            total_harvested: self.total_harvested,
            total_wasted: self.total_wasted,
            total_supplied: self.total_supplied,
        }
    }

    /// Restores state captured by [`PowerSystem::save_state`].
    ///
    /// The target must have been built from the same configuration as the
    /// source; the stored energy is written back verbatim (no clamping),
    /// so the resumed trajectory is bit-exact.
    pub fn restore_state(&mut self, state: &PowerSystemState) {
        self.capacitor.set_energy_raw(state.stored);
        self.total_harvested = state.total_harvested;
        self.total_wasted = state.total_wasted;
        self.total_supplied = state.total_supplied;
    }
}

/// One tick of [`PowerSystem::step`]'s storage arithmetic on `cap`:
/// charge the harvest offer, self-discharge, then serve the load's
/// demand. Returns `(harvested, supplied)`.
#[inline]
fn tick_flow(
    cap: &mut Supercap,
    offered: Joules,
    demand: Joules,
    dt: SimDuration,
) -> (Joules, Joules) {
    let harvested = cap.charge(offered);
    // Self-discharge, independent of the load.
    let leak = cap.config().leakage * dt.as_seconds();
    if leak.value() > 0.0 {
        cap.discharge(leak);
    }
    let supplied = cap.discharge(demand);
    (harvested, supplied)
}

/// Minimum clamp-free run worth entering the block fast path for; below
/// this the scalar loop's fixed-point detector is the better bet.
const CLAMP_FREE_MIN: u64 = 16;

/// Bit pattern of `-0.0`, for the wasted-accumulator normalization in
/// the clamp-free block.
const NEG_ZERO_BITS: u64 = 0x8000_0000_0000_0000;

/// Conservative count of upcoming ticks during which the capacitor
/// provably neither fills (`charge` would clamp) nor runs low enough
/// for the leak/load draws to clamp, starting from `energy` stored
/// joules under constant per-tick `offered`/`leak`/`demand` joules.
///
/// Uses the same worst-case rate reasoning as `sprint_bound`: energy
/// rises at most `offered` and falls at most `leak + demand` per tick,
/// and a multiplicative haircut plus a fixed margin absorb f64 rounding
/// drift. Within the returned prefix every tick satisfies
/// `offered < headroom` and `leak + demand < energy-after-charge`, so
/// `harvested == offered`, `wasted == +0.0`, and `supplied == demand`
/// bit-exactly.
fn clamp_free_ticks(energy: f64, offered: f64, leak: f64, demand: f64, capacity: f64) -> u64 {
    const HAIRCUT: f64 = 1.0 - 1e-6;
    const MARGIN: u64 = 8;
    let dec = leak + demand;
    let up = if offered <= 0.0 {
        f64::INFINITY
    } else {
        (capacity * HAIRCUT - energy) / offered
    };
    let down = if dec <= 0.0 {
        f64::INFINITY
    } else {
        (energy * HAIRCUT - dec) / dec
    };
    let bound = up.min(down);
    // NaN-safe: a NaN bound (0/0 corner) must also yield an empty sprint.
    if bound.is_nan() || bound <= 0.0 {
        return 0;
    }
    // Bounded above before the cast; both ratios are non-negative here.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let ticks = bound.min(9.0e18) as u64;
    ticks.saturating_sub(MARGIN)
}

/// Mutable state of a [`PowerSystem`], as captured by
/// [`PowerSystem::save_state`]. All fields are plain data so snapshot
/// layers can serialize them bit-exactly (`f64::to_bits`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSystemState {
    /// Usable energy currently in the capacitor.
    pub stored: Joules,
    /// Lifetime energy accepted into storage.
    pub total_harvested: Joules,
    /// Lifetime harvested energy wasted on a full capacitor.
    pub total_wasted: Joules,
    /// Lifetime energy supplied to the load.
    pub total_supplied: Joules,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SupercapConfig;
    use proptest::prelude::*;
    use qz_types::Volts;

    fn sys() -> PowerSystem {
        PowerSystem::new(
            Supercap::new(SupercapConfig::default()).unwrap(),
            Harvester::new(6, Watts(0.010), 0.80).unwrap(),
        )
    }

    #[test]
    fn state_roundtrip_is_bit_exact() {
        let mut a = sys();
        for i in 0..500 {
            a.step(
                0.3 + 0.001 * f64::from(i),
                Watts(0.002),
                SimDuration::from_millis(1),
            );
        }
        let state = a.save_state();
        let mut b = sys();
        b.restore_state(&state);
        assert_eq!(a, b);
        // The restored system evolves identically.
        for i in 0..500 {
            let sa = a.step(
                0.6 - 0.001 * f64::from(i),
                Watts(0.004),
                SimDuration::from_millis(1),
            );
            let sb = b.step(
                0.6 - 0.001 * f64::from(i),
                Watts(0.004),
                SimDuration::from_millis(1),
            );
            assert_eq!(sa, sb);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn restore_state_writes_totals_verbatim() {
        let mut a = sys();
        let state = PowerSystemState {
            stored: Joules(0.0125),
            total_harvested: Joules(1.5),
            total_wasted: Joules(0.25),
            total_supplied: Joules(1.0),
        };
        a.restore_state(&state);
        assert_eq!(a.capacitor().energy(), Joules(0.0125));
        assert_eq!(a.total_harvested(), Joules(1.5));
        assert_eq!(a.total_wasted(), Joules(0.25));
        assert_eq!(a.total_supplied(), Joules(1.0));
        assert_eq!(a.save_state(), state);
    }

    fn sys_starting_empty() -> PowerSystem {
        let cfg = SupercapConfig {
            v_init: Volts(1.8),
            ..SupercapConfig::default()
        };
        PowerSystem::new(
            Supercap::new(cfg).unwrap(),
            Harvester::new(6, Watts(0.010), 0.80).unwrap(),
        )
    }

    #[test]
    fn charges_under_sun_no_load() {
        let mut s = sys_starting_empty();
        let out = s.step(1.0, Watts::ZERO, SimDuration::from_secs(1));
        // 48 mW for 1 s = 48 mJ
        assert!((out.harvested.value() - 0.048).abs() < 1e-12);
        assert!(!out.brownout);
        assert!((s.capacitor().energy().value() - 0.048).abs() < 1e-12);
    }

    #[test]
    fn full_capacitor_wastes_harvest() {
        let mut s = sys(); // starts full
        let out = s.step(1.0, Watts::ZERO, SimDuration::from_secs(1));
        assert_eq!(out.harvested, Joules::ZERO);
        assert!((out.wasted.value() - 0.048).abs() < 1e-12);
    }

    #[test]
    fn load_exceeding_storage_browns_out() {
        let mut s = sys_starting_empty();
        let out = s.step(0.0, Watts(1.0), SimDuration::from_secs(1));
        assert!(out.brownout);
        assert_eq!(out.supplied, Joules::ZERO);
    }

    #[test]
    fn harvest_covers_load_when_input_exceeds_draw() {
        let mut s = sys_starting_empty();
        // charge a little first
        s.step(1.0, Watts::ZERO, SimDuration::from_secs(1));
        let before = s.capacitor().energy();
        // 48 mW in, 10 mW out → net charge
        let out = s.step(1.0, Watts(0.010), SimDuration::from_secs(1));
        assert!(!out.brownout);
        assert!(s.capacitor().energy() > before);
    }

    #[test]
    fn input_power_matches_harvester() {
        let s = sys();
        assert_eq!(s.input_power(0.5), s.harvester().output(0.5));
    }

    #[test]
    fn leakage_drains_idle_capacitor() {
        let cfg = SupercapConfig {
            leakage: Watts(10e-6),
            ..SupercapConfig::default()
        };
        let mut s = PowerSystem::new(
            Supercap::new(cfg).unwrap(),
            Harvester::new(6, Watts(0.010), 0.80).unwrap(),
        );
        let before = s.capacitor().energy();
        for _ in 0..1000 {
            s.step(0.0, Watts::ZERO, SimDuration::TICK); // 1 s dark, idle
        }
        let drained = before - s.capacitor().energy();
        assert!(
            (drained.value() - 10e-6).abs() < 1e-9,
            "drained {}",
            drained
        );
    }

    #[test]
    fn lifetime_totals_accumulate() {
        let mut s = sys_starting_empty();
        for _ in 0..10 {
            s.step(1.0, Watts(0.005), SimDuration::from_secs(1));
        }
        assert!(s.total_harvested().value() > 0.0);
        assert!(s.total_supplied().value() > 0.0);
        assert!((s.total_supplied().value() - 0.05 * 10.0 * 0.1).abs() < 1.0); // sanity
    }

    /// Reference for `advance`: loop `step` by hand with the same stop
    /// semantics, checking the condition after every committed tick.
    #[allow(clippy::too_many_arguments)] // mirrors advance()'s signature
    fn manual_advance(
        s: &mut PowerSystem,
        irr: f64,
        load: Watts,
        dt: SimDuration,
        max_ticks: u64,
        stop: StopCondition,
        harvested: &mut Joules,
        wasted: &mut Joules,
    ) -> BulkOutcome {
        let mut ticks = 0;
        while ticks < max_ticks {
            let out = s.step(irr, load, dt);
            *harvested += out.harvested;
            *wasted += out.wasted;
            ticks += 1;
            let crossed = match stop {
                StopCondition::None => false,
                StopCondition::Depleted(r) => s.capacitor().energy() <= r || out.brownout,
                StopCondition::CanTurnOn => s.capacitor().can_turn_on(),
            };
            if crossed {
                return BulkOutcome {
                    ticks,
                    crossed: true,
                };
            }
        }
        BulkOutcome {
            ticks,
            crossed: false,
        }
    }

    fn assert_bit_identical(a: &PowerSystem, b: &PowerSystem) {
        assert_eq!(
            a.capacitor().energy().value().to_bits(),
            b.capacitor().energy().value().to_bits()
        );
        assert_eq!(
            a.total_harvested().value().to_bits(),
            b.total_harvested().value().to_bits()
        );
        assert_eq!(
            a.total_wasted().value().to_bits(),
            b.total_wasted().value().to_bits()
        );
        assert_eq!(
            a.total_supplied().value().to_bits(),
            b.total_supplied().value().to_bits()
        );
    }

    #[test]
    fn advance_stops_on_the_same_tick_as_manual_stepping() {
        let cases = [
            // (irr, load_w, start_empty, stop)
            (0.0, 0.010, false, StopCondition::Depleted(Joules(0.625e-3))),
            (0.1, 0.020, false, StopCondition::Depleted(Joules(0.625e-3))),
            (0.5, 0.0, true, StopCondition::CanTurnOn),
            (0.02, 5e-6, true, StopCondition::CanTurnOn),
            (0.3, 0.001, false, StopCondition::None),
        ];
        for (irr, load_w, empty, stop) in cases {
            let (mut fast, mut slow) = if empty {
                (sys_starting_empty(), sys_starting_empty())
            } else {
                (sys(), sys())
            };
            let (mut fh, mut fw) = (Joules::ZERO, Joules::ZERO);
            let (mut sh, mut sw) = (Joules::ZERO, Joules::ZERO);
            let dt = SimDuration::TICK;
            let out_fast = fast.advance(irr, Watts(load_w), dt, 2_000_000, stop, &mut fh, &mut fw);
            let out_slow = manual_advance(
                &mut slow,
                irr,
                Watts(load_w),
                dt,
                2_000_000,
                stop,
                &mut sh,
                &mut sw,
            );
            assert_eq!(out_fast, out_slow, "case irr={irr} load={load_w}");
            assert_eq!(fh.value().to_bits(), sh.value().to_bits());
            assert_eq!(fw.value().to_bits(), sw.value().to_bits());
            assert_bit_identical(&fast, &slow);
        }
    }

    #[test]
    fn closed_form_crossing_brackets_the_observed_tick() {
        // Discharge toward the reserve in the clamp-free regime.
        let mut s = sys();
        let reserve = Joules(0.625e-3);
        let predicted = s
            .ticks_until_crossing(0.0, Watts(0.010), SimDuration::TICK, reserve)
            .expect("net discharge must cross the reserve");
        let (mut h, mut w) = (Joules::ZERO, Joules::ZERO);
        let out = s.advance(
            0.0,
            Watts(0.010),
            SimDuration::TICK,
            predicted + 10,
            StopCondition::Depleted(reserve),
            &mut h,
            &mut w,
        );
        assert!(out.crossed);
        assert!(
            out.ticks.abs_diff(predicted) <= 2,
            "predicted {predicted}, observed {out:?}"
        );
        // Net flow away from the threshold has no crossing.
        assert!(sys()
            .ticks_until_crossing(1.0, Watts::ZERO, SimDuration::TICK, reserve)
            .is_none());
    }

    #[test]
    fn turn_on_energy_bound_is_safe_for_sprinting() {
        // The sprint bound assumes: while stored energy sits below
        // turn_on_energy() (minus the haircut), can_turn_on is false.
        let mut s = sys_starting_empty();
        let e_on = s.capacitor().turn_on_energy().value() * (1.0 - 1e-6);
        let mut crossed = false;
        for _ in 0..2_000_000 {
            let below = s.capacitor().energy().value() < e_on;
            if below {
                assert!(!s.capacitor().can_turn_on());
            } else {
                crossed = true;
                break;
            }
            s.step(0.01, Watts::ZERO, SimDuration::TICK);
        }
        assert!(crossed, "trickle charge must eventually clear the bound");
    }

    #[test]
    fn advance_without_charge_never_reaches_turn_on() {
        let mut s = sys_starting_empty();
        let (mut h, mut w) = (Joules::ZERO, Joules::ZERO);
        let out = s.advance(
            0.0,
            Watts::ZERO,
            SimDuration::TICK,
            500_000,
            StopCondition::CanTurnOn,
            &mut h,
            &mut w,
        );
        assert_eq!(
            out,
            BulkOutcome {
                ticks: 500_000,
                crossed: false
            }
        );
        assert!(!s.capacitor().can_turn_on());
    }

    fn leaky_sys() -> PowerSystem {
        let cfg = SupercapConfig {
            leakage: Watts(25e-6),
            v_init: Volts(2.4),
            ..SupercapConfig::default()
        };
        PowerSystem::new(
            Supercap::new(cfg).unwrap(),
            Harvester::new(6, Watts(0.010), 0.80).unwrap(),
        )
    }

    #[test]
    fn leaky_advance_is_bit_identical_to_stepping() {
        // Exercises the clamp-free block's three-add (leak > 0) variant.
        for (irr, load_w, stop) in [
            (0.0, 0.004, StopCondition::Depleted(Joules(0.625e-3))),
            (0.4, 0.002, StopCondition::None),
            (0.2, 0.0, StopCondition::CanTurnOn),
        ] {
            let (mut fast, mut slow) = (leaky_sys(), leaky_sys());
            let (mut fh, mut fw) = (Joules::ZERO, Joules::ZERO);
            let (mut sh, mut sw) = (Joules::ZERO, Joules::ZERO);
            let out_fast = fast.advance(
                irr,
                Watts(load_w),
                SimDuration::TICK,
                500_000,
                stop,
                &mut fh,
                &mut fw,
            );
            let out_slow = manual_advance(
                &mut slow,
                irr,
                Watts(load_w),
                SimDuration::TICK,
                500_000,
                stop,
                &mut sh,
                &mut sw,
            );
            assert_eq!(out_fast, out_slow, "case irr={irr} load={load_w}");
            assert_eq!(fh.value().to_bits(), sh.value().to_bits());
            assert_eq!(fw.value().to_bits(), sw.value().to_bits());
            assert_bit_identical(&fast, &slow);
        }
    }

    #[test]
    fn negative_zero_wasted_accumulator_matches_stepping() {
        // The block fast path skips the per-tick `+= +0.0` wasted adds;
        // a -0.0 accumulator (only reachable via a hand-built ledger)
        // must still normalize to +0.0 exactly like repeated adds would.
        let (mut fast, mut slow) = (sys_starting_empty(), sys_starting_empty());
        let (mut fh, mut fw) = (Joules::ZERO, Joules(-0.0));
        let (mut sh, mut sw) = (Joules::ZERO, Joules(-0.0));
        fast.advance(
            0.3,
            Watts(0.001),
            SimDuration::TICK,
            200_000,
            StopCondition::None,
            &mut fh,
            &mut fw,
        );
        manual_advance(
            &mut slow,
            0.3,
            Watts(0.001),
            SimDuration::TICK,
            200_000,
            StopCondition::None,
            &mut sh,
            &mut sw,
        );
        assert_eq!(fw.value().to_bits(), sw.value().to_bits());
        assert_eq!(fh.value().to_bits(), sh.value().to_bits());
        assert_bit_identical(&fast, &slow);
    }

    proptest! {
        #[test]
        fn advance_is_bit_identical_to_stepping(
            irr in 0.0f64..1.0,
            load_mw in 0.0f64..30.0,
            max_ticks in 1u64..200_000,
            which in 0u8..3,
        ) {
            let stop = match which {
                0 => StopCondition::None,
                1 => StopCondition::Depleted(Joules(0.625e-3)),
                _ => StopCondition::CanTurnOn,
            };
            let mut fast = sys_starting_empty();
            let mut slow = sys_starting_empty();
            // Pre-charge both a little so either direction is reachable.
            fast.step(0.8, Watts::ZERO, SimDuration::from_secs(2));
            slow.step(0.8, Watts::ZERO, SimDuration::from_secs(2));
            let load = Watts(load_mw * 1e-3);
            let (mut fh, mut fw) = (Joules::ZERO, Joules::ZERO);
            let (mut sh, mut sw) = (Joules::ZERO, Joules::ZERO);
            let out_fast =
                fast.advance(irr, load, SimDuration::TICK, max_ticks, stop, &mut fh, &mut fw);
            let out_slow = manual_advance(
                &mut slow, irr, load, SimDuration::TICK, max_ticks, stop, &mut sh, &mut sw,
            );
            prop_assert_eq!(out_fast, out_slow);
            prop_assert_eq!(fh.value().to_bits(), sh.value().to_bits());
            prop_assert_eq!(fw.value().to_bits(), sw.value().to_bits());
            prop_assert_eq!(
                fast.capacitor().energy().value().to_bits(),
                slow.capacitor().energy().value().to_bits()
            );
        }

        #[test]
        fn energy_is_conserved(
            steps in proptest::collection::vec((0.0f64..1.0, 0.0f64..0.5), 1..100)
        ) {
            let mut s = sys_starting_empty();
            let mut ledger = 0.0; // harvested − supplied should equal stored
            for (irr, load_w) in steps {
                let out = s.step(irr, Watts(load_w), SimDuration::from_millis(100));
                ledger += out.harvested.value() - out.supplied.value();
                // per-step conservation: offered = harvested + wasted
                let offered = out.input_power.value() * 0.1;
                prop_assert!((out.harvested.value() + out.wasted.value() - offered).abs() < 1e-12);
            }
            prop_assert!((s.capacitor().energy().value() - ledger).abs() < 1e-9);
        }

        #[test]
        fn peek_step_matches_stepping(
            precharge_s in 0u64..30,
            irr in 0.0f64..1.0,
            load_mw in 0.0f64..60.0,
            leaky in any::<bool>(),
        ) {
            let mut s = if leaky { leaky_sys() } else { sys_starting_empty() };
            s.step(0.8, Watts::ZERO, SimDuration::from_secs(precharge_s));
            let load = Watts(load_mw * 1e-3);
            let peeked = s.peek_step(irr, load, SimDuration::TICK);
            s.step(irr, load, SimDuration::TICK);
            prop_assert_eq!(peeked.value().to_bits(), s.capacitor().energy().value().to_bits());
        }

        /// Under constant irradiance and load the per-tick energy map is
        /// monotone, so the post-step trajectory only ever rises or only
        /// ever falls (and never goes negative): its minimum over a run
        /// is the lower of its first and last values. The fast-forward
        /// engine reports a skipped span's energy floor to an armed
        /// fault injector on exactly this argument.
        #[test]
        fn constant_segment_trajectory_is_monotone(
            precharge_ms in 0u64..30_000,
            irr in 0.0f64..1.0,
            load_mw in 0.0f64..60.0,
            leaky in any::<bool>(),
            ticks in 1usize..3_000,
        ) {
            let mut s = if leaky { leaky_sys() } else { sys_starting_empty() };
            s.step(0.8, Watts::ZERO, SimDuration::from_millis(precharge_ms));
            let load = Watts(load_mw * 1e-3);
            let trajectory: Vec<f64> = (0..ticks)
                .map(|_| {
                    s.step(irr, load, SimDuration::TICK);
                    s.capacitor().energy().value()
                })
                .collect();
            let rising = trajectory.windows(2).all(|w| w[0] <= w[1]);
            let falling = trajectory.windows(2).all(|w| w[0] >= w[1]);
            prop_assert!(rising || falling, "non-monotone trajectory");
            prop_assert!(trajectory.iter().all(|&e| e >= 0.0));
        }

        #[test]
        fn supplied_never_exceeds_demand(irr in 0.0f64..1.0, load_w in 0.0f64..2.0) {
            let mut s = sys();
            let out = s.step(irr, Watts(load_w), SimDuration::TICK);
            prop_assert!(out.supplied.value() <= load_w * 0.001 + 1e-15);
        }
    }
}
