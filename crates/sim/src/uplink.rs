//! Device-side model of a shared, slotted uplink channel.
//!
//! The paper evaluates one device in isolation; a deployment shares a
//! LoRa-class gateway between many of them. This module is the *device
//! half* of that model: before a radio task may execute, the simulation
//! consults an [`UplinkPort`] which enforces
//!
//! 1. a **duty-cycle budget** — regulators (e.g. EU 868 MHz rules) cap
//!    time-on-air per device to a fraction of each accounting window;
//!    an exhausted budget defers the transmission to the next window;
//! 2. **carrier sensing against fleet load** — the port holds a busy
//!    probability `p_busy` (set by the fleet coordinator from the
//!    *previous* epoch's observed channel occupancy); a busy sense
//!    fails the attempt and backs off exponentially with deterministic
//!    jitter, so the job keeps holding its buffer slot and IBO pressure
//!    feeds back exactly as the paper's queueing model predicts.
//!
//! Granted transmissions are logged as [`TxRecord`]s in channel slots;
//! the fleet layer (`qz-fleet`) merges all devices' logs in slot order
//! to charge collisions and compute utilization. A standalone
//! simulation without a port installed is entirely unaffected — the
//! gate does not exist and no extra randomness is drawn.
//!
//! Randomness for sensing and jitter comes from a dedicated
//! [`SplitMix64`] stream so channel behaviour never perturbs the
//! simulation's classification draws: an uncontended channel
//! (`p_busy = 0`, non-binding duty budget) reproduces the ungated
//! engine bit for bit.

use qz_types::{SimDuration, SimTime, SplitMix64};

/// Parameters of the shared channel as seen by one device.
#[derive(Debug, Clone, PartialEq)]
pub struct UplinkConfig {
    /// Channel slot length. Transmissions occupy whole slots
    /// (`ceil(latency / slot)`), the granularity at which the fleet
    /// reduction detects collisions.
    pub slot: SimDuration,
    /// Fraction of each duty window the device may spend on air.
    /// Values `>= 1` disable the budget entirely (no regulatory cap).
    pub duty_cycle: f64,
    /// Length of the duty-cycle accounting window. Budgets reset at
    /// window boundaries aligned to `t = 0`.
    pub duty_window: SimDuration,
    /// First busy-sense backoff wait; doubles per consecutive failure.
    pub backoff_base: SimDuration,
    /// Cap on the exponential backoff doubling (`base << max_exp`).
    pub backoff_max_exp: u32,
}

impl Default for UplinkConfig {
    /// LoRa-flavoured defaults: 10 ms slots, 10 % duty cycle over a
    /// 10 s window (a relaxed EU-868-style budget that admits roughly
    /// two full-quality reports per window), 200 ms base backoff
    /// doubling up to 32× (so the capped backoff still fits inside one
    /// duty window — see QZ052). The slot is fine enough that a 5 ms
    /// single-byte report costs one slot rather than ballooning to the
    /// slot quantum, which keeps fleets up to ~100 devices under the
    /// QZ050 worst-case saturation bound.
    fn default() -> UplinkConfig {
        UplinkConfig {
            slot: SimDuration::from_millis(10),
            duty_cycle: 0.10,
            duty_window: SimDuration::from_secs(10),
            backoff_base: SimDuration::from_millis(200),
            backoff_max_exp: 5,
        }
    }
}

impl UplinkConfig {
    /// Number of slots in one duty window.
    pub fn window_slots(&self) -> u64 {
        self.duty_window.as_millis() / self.slot.as_millis()
    }

    /// Time-on-air budget per duty window, in slots. `duty_cycle >= 1`
    /// means unlimited (`u64::MAX`).
    pub fn allowance_slots(&self) -> u64 {
        if self.duty_cycle >= 1.0 {
            return u64::MAX;
        }
        // duty_cycle is clamped to [0, 1) here and window_slots is a
        // slot count, so the product is a non-negative in-range float.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            (self.duty_cycle.max(0.0) * self.window_slots() as f64).floor() as u64
        }
    }

    /// Whole slots a transmission of the given latency occupies.
    pub fn slots_for(&self, latency: SimDuration) -> u64 {
        latency.as_millis().div_ceil(self.slot.as_millis()).max(1)
    }
}

/// One granted transmission, in channel-slot coordinates. The fleet
/// coordinator merges records from all devices to find collisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxRecord {
    /// First slot occupied (`grant_time / slot`).
    pub start_slot: u64,
    /// Number of consecutive slots occupied.
    pub slots: u64,
}

impl TxRecord {
    /// First slot *after* this transmission.
    pub fn end_slot(&self) -> u64 {
        self.start_slot + self.slots
    }
}

/// Outcome of consulting the channel gate before a radio task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxDecision {
    /// Clear to transmit; `airtime` is the slot-rounded channel time
    /// charged against the duty budget.
    Grant {
        /// Slot-rounded time-on-air charged for this transmission.
        airtime: SimDuration,
    },
    /// Carrier sense found the channel busy: wait this long, re-sense.
    Busy(SimDuration),
    /// Duty budget exhausted: wait until the next window, re-sense.
    DutyCapped(SimDuration),
}

/// Per-device gate onto the shared channel.
///
/// Install one on a [`Simulation`](crate::Simulation) via
/// [`set_uplink`](crate::Simulation::set_uplink); the engine consults
/// it whenever a `Transmit` task is about to start.
#[derive(Debug, Clone)]
pub struct UplinkPort {
    cfg: UplinkConfig,
    rng: SplitMix64,
    p_busy: f64,
    /// Consecutive failed senses for the pending transmission.
    attempts: u32,
    /// Duty window the `used` counter belongs to.
    window_index: u64,
    /// Slots spent on air in the current duty window.
    window_used: u64,
    /// Grants since the last [`drain_log`](UplinkPort::drain_log).
    log: Vec<TxRecord>,
    total_airtime: SimDuration,
}

impl UplinkPort {
    /// A gate with its own deterministic randomness stream.
    ///
    /// # Panics
    ///
    /// Panics if the slot, duty window, or backoff base is zero, or if
    /// the duty window is shorter than one slot.
    pub fn new(cfg: UplinkConfig, seed: u64) -> UplinkPort {
        assert!(!cfg.slot.is_zero(), "uplink slot must be positive");
        assert!(
            cfg.duty_window.as_millis() >= cfg.slot.as_millis(),
            "duty window must hold at least one slot"
        );
        assert!(!cfg.backoff_base.is_zero(), "backoff base must be positive");
        UplinkPort {
            cfg,
            rng: SplitMix64::new(seed),
            p_busy: 0.0,
            attempts: 0,
            window_index: 0,
            window_used: 0,
            log: Vec::new(),
            total_airtime: SimDuration::ZERO,
        }
    }

    /// The channel parameters.
    pub fn config(&self) -> &UplinkConfig {
        &self.cfg
    }

    /// Sets the probability that a carrier sense finds the channel
    /// busy. The fleet coordinator derives it from the other devices'
    /// airtime in the previous epoch; clamped to `[0, 0.98]` so a
    /// saturated fleet still makes (slow) progress.
    pub fn set_busy_probability(&mut self, p: f64) {
        self.p_busy = p.clamp(0.0, 0.98);
    }

    /// Total slot-rounded time-on-air granted so far.
    pub fn total_airtime(&self) -> SimDuration {
        self.total_airtime
    }

    /// Takes the transmissions granted since the last drain.
    pub fn drain_log(&mut self) -> Vec<TxRecord> {
        core::mem::take(&mut self.log)
    }

    /// Captures the port's evolving state for a simulation snapshot
    /// (the channel config is not state).
    pub fn save_state(&self) -> UplinkState {
        UplinkState {
            rng: self.rng.state(),
            p_busy: self.p_busy,
            attempts: self.attempts,
            window_index: self.window_index,
            window_used: self.window_used,
            log: self.log.clone(),
            total_airtime: self.total_airtime,
        }
    }

    /// Restores state captured by [`UplinkPort::save_state`] into a
    /// port built from the same configuration.
    pub fn restore_state(&mut self, state: &UplinkState) {
        self.rng = SplitMix64::from_state(state.rng);
        self.p_busy = state.p_busy;
        self.attempts = state.attempts;
        self.window_index = state.window_index;
        self.window_used = state.window_used;
        self.log = state.log.clone();
        self.total_airtime = state.total_airtime;
    }

    /// Consults the gate for a transmission of the given latency
    /// starting now. A grant charges the duty budget and logs the
    /// slot range; a refusal tells the caller how long to wait before
    /// re-sensing.
    pub fn sense(&mut self, t: SimTime, latency: SimDuration) -> TxDecision {
        let slots = self.cfg.slots_for(latency);
        let window_ms = self.cfg.duty_window.as_millis();
        let now_ms = t.as_millis();
        let window = now_ms / window_ms;
        if window != self.window_index {
            self.window_index = window;
            self.window_used = 0;
        }
        if self.window_used.saturating_add(slots) > self.cfg.allowance_slots() {
            // Budget exhausted (or the request alone exceeds it —
            // qz-check flags that config, but defer rather than hang).
            let next_window_ms = (window + 1) * window_ms;
            let wait = SimDuration::from_millis((next_window_ms - now_ms).max(1));
            return TxDecision::DutyCapped(wait);
        }
        if self.p_busy > 0.0 && self.rng.chance(self.p_busy) {
            let exp = self.attempts.min(self.cfg.backoff_max_exp);
            let base_ms = (self.cfg.backoff_base.as_millis() << exp).max(1);
            // Uniform jitter in [base, 2·base) de-synchronizes
            // contending devices without a shared clock.
            let wait = SimDuration::from_millis(base_ms + self.rng.next_below(base_ms));
            self.attempts = self.attempts.saturating_add(1);
            return TxDecision::Busy(wait);
        }
        self.attempts = 0;
        self.window_used += slots;
        let airtime = self.cfg.slot * slots;
        self.total_airtime += airtime;
        self.log.push(TxRecord {
            start_slot: now_ms / self.cfg.slot.as_millis(),
            slots,
        });
        TxDecision::Grant { airtime }
    }
}

/// Serializable evolving state of an [`UplinkPort`], captured by
/// [`UplinkPort::save_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct UplinkState {
    /// Raw state word of the port's dedicated randomness stream.
    pub rng: u64,
    /// Carrier-sense busy probability at capture time.
    pub p_busy: f64,
    /// Consecutive failed senses for the pending transmission.
    pub attempts: u32,
    /// Duty window the `window_used` counter belongs to.
    pub window_index: u64,
    /// Slots spent on air in the current duty window.
    pub window_used: u64,
    /// Grants not yet drained by the fleet layer.
    pub log: Vec<TxRecord>,
    /// Total slot-rounded time-on-air granted so far.
    pub total_airtime: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port(cfg: UplinkConfig) -> UplinkPort {
        UplinkPort::new(cfg, 42)
    }

    #[test]
    fn uncontended_port_grants_without_randomness() {
        let mut p = port(UplinkConfig::default());
        let rng_before = p.rng.clone();
        let d = p.sense(SimTime::from_millis(250), SimDuration::from_millis(400));
        assert_eq!(
            d,
            TxDecision::Grant {
                airtime: SimDuration::from_millis(400)
            }
        );
        assert_eq!(p.rng, rng_before, "p_busy = 0 must not draw");
        assert_eq!(
            p.drain_log(),
            vec![TxRecord {
                start_slot: 25,
                slots: 40
            }]
        );
        assert!(p.drain_log().is_empty(), "drain empties the log");
    }

    #[test]
    fn airtime_rounds_up_to_whole_slots() {
        let cfg = UplinkConfig::default();
        assert_eq!(cfg.slots_for(SimDuration::from_millis(1)), 1);
        assert_eq!(cfg.slots_for(SimDuration::from_millis(10)), 1);
        assert_eq!(cfg.slots_for(SimDuration::from_millis(11)), 2);
        assert_eq!(cfg.window_slots(), 1000);
        assert_eq!(cfg.allowance_slots(), 100);
    }

    #[test]
    fn duty_budget_defers_to_next_window() {
        // 10% of a 10 s window = 100 slots of 10 ms.
        let mut p = port(UplinkConfig::default());
        let tx = SimDuration::from_millis(400); // 40 slots
        assert!(matches!(
            p.sense(SimTime::ZERO, tx),
            TxDecision::Grant { .. }
        ));
        assert!(matches!(
            p.sense(SimTime::from_millis(1_000), tx),
            TxDecision::Grant { .. }
        ));
        // 80 of 100 slots used: a third 40-slot tx must defer to t=10 s.
        match p.sense(SimTime::from_millis(2_000), tx) {
            TxDecision::DutyCapped(wait) => {
                assert_eq!(wait, SimDuration::from_millis(8_000));
            }
            other => panic!("expected duty cap, got {other:?}"),
        }
        // The next window has a fresh budget.
        assert!(matches!(
            p.sense(SimTime::from_millis(10_000), tx),
            TxDecision::Grant { .. }
        ));
    }

    #[test]
    fn duty_cycle_one_is_unlimited() {
        let mut p = port(UplinkConfig {
            duty_cycle: 1.0,
            ..UplinkConfig::default()
        });
        let tx = SimDuration::from_millis(400);
        for i in 0..1_000u64 {
            assert!(
                matches!(
                    p.sense(SimTime::from_millis(i), tx),
                    TxDecision::Grant { .. }
                ),
                "duty >= 1 must never defer"
            );
        }
    }

    #[test]
    fn saturated_channel_backs_off_exponentially() {
        let mut p = port(UplinkConfig::default());
        p.set_busy_probability(1.0); // clamped to 0.98 but chance < 1
        let tx = SimDuration::from_millis(100);
        let mut waits = Vec::new();
        let mut t = SimTime::ZERO;
        while waits.len() < 4 {
            match p.sense(t, tx) {
                TxDecision::Busy(w) => {
                    waits.push(w.as_millis());
                    t += w;
                }
                TxDecision::Grant { .. } => break, // 2% sense success
                TxDecision::DutyCapped(w) => t += w,
            }
        }
        // Each consecutive wait is drawn from [base·2^k, base·2^(k+1));
        // ranges are disjoint, so the sequence is strictly increasing
        // until the doubling cap.
        for (k, w) in waits.iter().enumerate() {
            let lo = 200u64 << k;
            assert!(
                (lo..2 * lo).contains(w),
                "wait {k} = {w} outside [{lo}, {})",
                2 * lo
            );
        }
    }

    #[test]
    fn grant_resets_backoff_and_busy_draws_are_deterministic() {
        let mut a = port(UplinkConfig::default());
        let mut b = port(UplinkConfig::default());
        a.set_busy_probability(0.5);
        b.set_busy_probability(0.5);
        let tx = SimDuration::from_millis(100);
        for i in 0..50u64 {
            let t = SimTime::from_millis(i * 150);
            assert_eq!(a.sense(t, tx), b.sense(t, tx), "same seed, same stream");
        }
    }

    #[test]
    fn state_roundtrip_resumes_the_stream_bit_exactly() {
        let mut a = port(UplinkConfig::default());
        a.set_busy_probability(0.5);
        let tx = SimDuration::from_millis(100);
        for i in 0..20u64 {
            let _ = a.sense(SimTime::from_millis(i * 150), tx);
        }
        let state = a.save_state();
        let mut b = port(UplinkConfig::default());
        b.restore_state(&state);
        for i in 20..60u64 {
            let t = SimTime::from_millis(i * 150);
            assert_eq!(a.sense(t, tx), b.sense(t, tx));
        }
        assert_eq!(a.save_state(), b.save_state());
        assert_eq!(a.drain_log(), b.drain_log());
        assert_eq!(a.total_airtime(), b.total_airtime());
    }

    #[test]
    #[should_panic(expected = "slot must be positive")]
    fn zero_slot_rejected() {
        UplinkPort::new(
            UplinkConfig {
                slot: SimDuration::ZERO,
                ..UplinkConfig::default()
            },
            1,
        );
    }
}
