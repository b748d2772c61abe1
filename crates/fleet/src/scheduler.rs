//! Fleet schedulers: who steps which device when.
//!
//! Two interchangeable coordinators drive a fleet run:
//!
//! - **Epoch barrier** (the reference oracle, selected only by tests
//!   and benches): every device steps to every epoch boundary, every
//!   epoch. Per-epoch cost is O(N) regardless of how many devices have
//!   anything to do — fine at 64 devices, a wall at 10⁵.
//! - **Event horizon** (the default, and the only scheduler `qz fleet`
//!   runs): a global priority queue of per-device next-due
//!   epochs (from [`Simulation::next_uplink_due`], the conservative
//!   bound on the next carrier sense). Only due devices wake each
//!   processed epoch; everyone else stays parked and replays the
//!   skipped wall-clock exactly at their next wake. Per-epoch cost is
//!   O(active).
//!
//! Both produce byte-identical reports: parking never skips device
//! work (catch-up replays it), only coordination, and the one fleet
//! input a device consumes — the previous epoch's channel load — is
//! reconstructed lazily at wake (see
//! [`EventHorizonScheduler::wake_load`]). The scheduler here is a pure
//! state machine over device indices; `run.rs` owns the simulations
//! and the channel reductions.
//!
//! Devices are hashed onto gateways by a [`ShardMap`] (stable under
//! both schedulers), so each gateway's mean-field channel reduction
//! only ever sees its own members.
//!
//! [`Simulation::next_uplink_due`]: qz_sim::Simulation::next_uplink_due

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use qz_types::SplitMix64;

/// Which coordinator drives the fleet run. Event horizon is the
/// production scheduler; epoch barrier is the reference oracle that
/// tests and benches select.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FleetSchedulerKind {
    /// Lockstep epochs: every device steps every epoch (the reference).
    EpochBarrier,
    /// Priority-queue of next-due ticks: only due devices wake.
    #[default]
    EventHorizon,
}

impl FleetSchedulerKind {
    /// Canonical spelling for reports.
    pub fn label(self) -> &'static str {
        match self {
            FleetSchedulerKind::EpochBarrier => "epoch-barrier",
            FleetSchedulerKind::EventHorizon => "event-horizon",
        }
    }
}

/// Stream index salt separating the shard hash from the per-device
/// env/sim/uplink seed streams (which use streams `3d`, `3d+1`,
/// `3d+2`).
const SHARD_STREAM_SALT: u64 = 0x5AAD_0000_0000_0000;

/// Deterministic device → gateway assignment, identical under both
/// schedulers and any thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    gateways: usize,
    shard: Vec<usize>,
}

impl ShardMap {
    /// Hashes `devices` devices onto `gateways` gateways with the
    /// fleet-seed-keyed SplitMix64 stream derivation.
    ///
    /// # Panics
    ///
    /// Panics if `gateways` is zero.
    pub fn new(fleet_seed: u64, devices: usize, gateways: usize) -> ShardMap {
        assert!(gateways > 0, "a fleet needs at least one gateway");
        let shard = (0..devices)
            .map(|d| {
                let h = SplitMix64::derive_stream(fleet_seed, SHARD_STREAM_SALT | d as u64);
                usize::try_from(h % gateways as u64).expect("gateway index fits usize")
            })
            .collect();
        ShardMap { gateways, shard }
    }

    /// Number of gateways.
    pub fn gateways(&self) -> usize {
        self.gateways
    }

    /// Number of devices mapped.
    pub fn devices(&self) -> usize {
        self.shard.len()
    }

    /// The gateway serving `device`.
    pub fn shard_of(&self, device: usize) -> usize {
        self.shard[device]
    }

    /// Device count per gateway.
    pub fn shard_sizes(&self) -> Vec<u64> {
        let mut sizes = vec![0u64; self.gateways];
        for &s in &self.shard {
            sizes[s] += 1;
        }
        sizes
    }

    /// The largest shard's device count (the per-gateway saturation
    /// bound `qz-check` QZ080 evaluates).
    pub fn max_shard_devices(&self) -> u64 {
        self.shard_sizes().into_iter().max().unwrap_or(0)
    }
}

/// The per-device scheduling scalar the coordinator keeps outside the
/// simulations, in one flat array indexed by device.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetHotState {
    /// Next due epoch per device ([`RETIRED`](FleetHotState::RETIRED)
    /// once a device can never sense again).
    pub next_due: Vec<u64>,
}

impl FleetHotState {
    /// `next_due` sentinel: the device is done (or provably senses no
    /// more) and will never re-enter the queue.
    pub const RETIRED: u64 = u64::MAX;

    fn new(devices: usize) -> FleetHotState {
        FleetHotState {
            next_due: vec![FleetHotState::RETIRED; devices],
        }
    }
}

/// The event-horizon coordinator: a min-heap of `(due epoch, device)`
/// plus the lazy-load bookkeeping that keeps wakes byte-identical to
/// the epoch-barrier reference.
#[derive(Debug, Clone)]
pub struct EventHorizonScheduler {
    epoch_ms: u64,
    epoch_slots: u64,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    hot: FleetHotState,
    last_loaded: Vec<Option<u64>>,
    shard_prev: Vec<Option<(u64, u64)>>,
}

impl EventHorizonScheduler {
    /// A coordinator for `devices` devices over `gateways` gateways.
    ///
    /// # Panics
    ///
    /// Panics if the epoch length or slot count is zero.
    pub fn new(devices: usize, gateways: usize, epoch_ms: u64, epoch_slots: u64) -> Self {
        assert!(epoch_ms > 0, "epoch must be positive");
        assert!(epoch_slots > 0, "epoch must hold at least one slot");
        EventHorizonScheduler {
            epoch_ms,
            epoch_slots,
            heap: BinaryHeap::with_capacity(devices),
            hot: FleetHotState::new(devices),
            last_loaded: vec![None; devices],
            shard_prev: vec![None; gateways],
        }
    }

    /// Parks `device` until the epoch containing `due_ms` (a
    /// [`next_uplink_due`](qz_sim::Simulation::next_uplink_due) bound).
    /// Returns the due epoch.
    pub fn park(&mut self, device: usize, due_ms: u64) -> u64 {
        let epoch = due_ms / self.epoch_ms;
        self.hot.next_due[device] = epoch;
        self.heap.push(Reverse((epoch, device)));
        epoch
    }

    /// Removes `device` from coordination permanently (done, or
    /// provably never senses again).
    pub fn retire(&mut self, device: usize) {
        self.hot.next_due[device] = FleetHotState::RETIRED;
    }

    /// Pops the earliest due epoch and **all** devices due in it, in
    /// ascending device order. `None` when every device has retired.
    pub fn pop_batch(&mut self) -> Option<(u64, Vec<usize>)> {
        let &Reverse((epoch, _)) = self.heap.peek()?;
        let mut batch = Vec::new();
        while let Some(&Reverse((e, d))) = self.heap.peek() {
            if e != epoch {
                break;
            }
            self.heap.pop();
            debug_assert_eq!(self.hot.next_due[d], epoch, "one queue entry per device");
            batch.push(d);
        }
        Some((epoch, batch))
    }

    /// The busy probability `device` must carry into `epoch`, or `None`
    /// when its port already holds the right value (it was loaded by
    /// epoch `epoch − 1`'s reduction, or no epoch precedes).
    ///
    /// A parked device transmits nothing, so the reference value it
    /// missed is `total_airtime(epoch − 1) / epoch_slots` with its own
    /// share equal to zero — reconstructable from the shard's last
    /// reduction alone. If the shard's last reduction is older than
    /// `epoch − 1`, that epoch carried no airtime at all and the load
    /// is exactly `0.0`.
    pub fn wake_load(&self, epoch: u64, device: usize, shard: usize) -> Option<f64> {
        let prev_epoch = epoch.checked_sub(1)?;
        if self.last_loaded[device] == Some(prev_epoch) {
            return None;
        }
        Some(match self.shard_prev[shard] {
            Some((e, total)) if e == prev_epoch => total as f64 / self.epoch_slots as f64,
            _ => 0.0,
        })
    }

    /// Records that `shard`'s channel reduced `epoch` with the given
    /// total airtime (in slots).
    pub fn note_shard_reduced(&mut self, shard: usize, epoch: u64, total_airtime: u64) {
        self.shard_prev[shard] = Some((epoch, total_airtime));
    }

    /// Records that `device`'s port now holds the load of `epoch`'s
    /// reduction.
    pub fn mark_loaded(&mut self, device: usize, epoch: u64) {
        self.last_loaded[device] = Some(epoch);
    }

    /// Epoch length in milliseconds.
    pub fn epoch_ms(&self) -> u64 {
        self.epoch_ms
    }

    /// Devices still queued.
    pub fn queued(&self) -> usize {
        self.heap.len()
    }

    /// The per-device next-due epochs (diagnostics and tests).
    pub fn hot(&self) -> &FleetHotState {
        &self.hot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_is_deterministic_in_range_and_covering() {
        let a = ShardMap::new(0xF1EE7, 512, 8);
        let b = ShardMap::new(0xF1EE7, 512, 8);
        assert_eq!(a, b, "same seed, same assignment");
        let sizes = a.shard_sizes();
        assert_eq!(sizes.iter().sum::<u64>(), 512);
        assert!(
            sizes.iter().all(|&n| n > 0),
            "512 devices over 8 gateways covers every shard: {sizes:?}"
        );
        assert_eq!(a.max_shard_devices(), *sizes.iter().max().unwrap());
        for d in 0..512 {
            assert!(a.shard_of(d) < 8);
        }
        // A different fleet seed reshuffles the assignment.
        let c = ShardMap::new(0xF1EE8, 512, 8);
        assert_ne!(a, c);
        // One gateway degenerates to everyone on shard 0.
        let one = ShardMap::new(0xF1EE7, 16, 1);
        assert_eq!(one.max_shard_devices(), 16);
        assert!((0..16).all(|d| one.shard_of(d) == 0));
    }

    #[test]
    fn pop_batch_is_exactly_the_due_set_in_device_order() {
        let mut s = EventHorizonScheduler::new(6, 2, 1000, 100);
        // Park at mixed epochs; device 4 retires and must never pop.
        s.park(3, 2500); // epoch 2
        s.park(0, 500); // epoch 0
        s.park(5, 2000); // epoch 2
        s.park(1, 0); // epoch 0
        s.park(2, 7999); // epoch 7
        s.retire(4);
        assert_eq!(s.queued(), 5);
        assert_eq!(s.pop_batch(), Some((0, vec![0, 1])));
        assert_eq!(s.pop_batch(), Some((2, vec![3, 5])));
        assert_eq!(s.pop_batch(), Some((7, vec![2])));
        assert_eq!(s.pop_batch(), None, "retired devices never surface");
        assert_eq!(s.hot().next_due[4], FleetHotState::RETIRED);
    }

    #[test]
    #[allow(clippy::float_cmp)] // lazy loads must be bit-exact
    fn wake_load_reconstructs_the_missed_epoch_exactly() {
        let mut s = EventHorizonScheduler::new(3, 2, 1000, 100);
        // Epoch 0 has no predecessor: nothing to load.
        assert_eq!(s.wake_load(0, 0, 0), None);
        // Shard 0 reduced epoch 4 with 30 slots of airtime. A device
        // parked through epoch 4 wakes at 5 with exactly 30/100.
        s.note_shard_reduced(0, 4, 30);
        assert_eq!(s.wake_load(5, 0, 0), Some(0.3));
        // A device the epoch-4 reduction already loaded needs nothing.
        s.mark_loaded(1, 4);
        assert_eq!(s.wake_load(5, 1, 0), None);
        // Stale shard state (last reduction older than epoch − 1) means
        // the missed epoch carried zero airtime.
        assert_eq!(s.wake_load(9, 0, 0), Some(0.0));
        // Other shards' reductions are invisible.
        assert_eq!(s.wake_load(5, 2, 1), Some(0.0));
    }

    #[test]
    fn epochs_pop_in_global_time_order_across_shards() {
        // Devices hash to different shards, but the queue is a single
        // fleet-wide timeline: batches surface strictly by epoch no
        // matter which gateway their members belong to.
        let mut s = EventHorizonScheduler::new(4, 4, 1000, 100);
        s.park(0, 9_000);
        s.park(1, 1_000);
        s.park(2, 5_000);
        s.park(3, 1_500);
        assert_eq!(s.pop_batch(), Some((1, vec![1, 3])));
        assert_eq!(s.pop_batch(), Some((5, vec![2])));
        assert_eq!(s.pop_batch(), Some((9, vec![0])));
        assert_eq!(s.pop_batch(), None);
    }

    #[test]
    fn reparking_reenters_the_queue() {
        // The run loop parks each woken device again for its next due
        // tick; the device must keep surfacing for as long as it keeps
        // reparking, and stop once retired.
        let mut s = EventHorizonScheduler::new(1, 1, 1000, 100);
        s.park(0, 500);
        assert_eq!(s.pop_batch(), Some((0, vec![0])));
        assert_eq!(s.queued(), 0);
        s.park(0, 3_200);
        assert_eq!(s.queued(), 1);
        assert_eq!(s.pop_batch(), Some((3, vec![0])));
        s.retire(0);
        assert_eq!(s.pop_batch(), None);
        assert_eq!(s.hot().next_due[0], FleetHotState::RETIRED);
    }

    #[test]
    fn park_maps_due_ticks_onto_epochs() {
        let mut s = EventHorizonScheduler::new(2, 1, 1000, 100);
        assert_eq!(s.park(0, 0), 0);
        assert_eq!(s.park(1, 999), 0);
        let mut s2 = EventHorizonScheduler::new(2, 1, 1000, 100);
        assert_eq!(s2.park(0, 1000), 1);
        assert_eq!(s2.park(1, 123_456), 123);
    }
}
