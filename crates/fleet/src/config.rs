//! Fleet-level configuration: how many devices, which environments,
//! which system, and the shared-channel parameters.

use crate::scheduler::{FleetSchedulerKind, ShardMap};
use qz_app::{apollo4, DeviceProfile, SimTweaks};
use qz_baselines::BaselineKind;
use qz_sim::UplinkConfig;
use qz_traces::EnvironmentKind;
use qz_types::{SimDuration, SplitMix64};

/// One fleet experiment. Every derived quantity (per-device seeds,
/// environments, channel slots) is a pure function of this struct, so
/// two runs with equal configs produce byte-identical reports at any
/// thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of devices in the fleet.
    pub devices: usize,
    /// Events per device environment (simulated scene length).
    pub events: usize,
    /// Master seed; per-device streams derive from
    /// `(fleet_seed, device_id)` via [`SplitMix64::derive_stream`].
    pub fleet_seed: u64,
    /// The scheduling system every device runs.
    pub system: BaselineKind,
    /// Hardware profile shared by the fleet.
    pub profile: DeviceProfile,
    /// Environment mix, assigned round-robin by device index.
    pub env_mix: Vec<EnvironmentKind>,
    /// Shared-channel parameters (every device gets the same gate).
    pub uplink: UplinkConfig,
    /// Barrier cadence for the contention reduction. Shorter epochs
    /// tighten the back-pressure feedback loop; longer ones cut
    /// synchronization overhead.
    pub epoch: SimDuration,
    /// Per-device simulator knobs (the per-device seed field is
    /// overwritten by the derived stream).
    pub tweaks: SimTweaks,
    /// Which coordinator drives the run: event horizon by default,
    /// epoch barrier as the reference oracle (both produce
    /// byte-identical reports; see [`crate::scheduler`]).
    pub scheduler: FleetSchedulerKind,
    /// Number of gateways. Devices hash onto gateways deterministically
    /// ([`ShardMap`]); each gateway runs its own mean-field channel
    /// reduction over its members only.
    pub gateways: usize,
}

impl Default for FleetConfig {
    /// 16 Quetzal devices on Apollo 4 hardware, 40 events each, the
    /// Apollo environment mix, LoRa-flavoured channel defaults, 1 s
    /// epochs, the event-horizon scheduler.
    fn default() -> FleetConfig {
        FleetConfig {
            devices: 16,
            events: 40,
            fleet_seed: 0xF1EE7,
            system: BaselineKind::Quetzal,
            profile: apollo4(),
            env_mix: EnvironmentKind::APOLLO_SET.to_vec(),
            uplink: UplinkConfig::default(),
            epoch: SimDuration::from_secs(1),
            tweaks: SimTweaks::default(),
            scheduler: FleetSchedulerKind::default(),
            gateways: 1,
        }
    }
}

impl FleetConfig {
    /// The environment kind device `device` senses.
    pub fn env_for(&self, device: usize) -> EnvironmentKind {
        self.env_mix[device % self.env_mix.len()]
    }

    /// Seed for device `device`'s environment generation.
    pub fn env_seed(&self, device: u64) -> u64 {
        SplitMix64::derive_stream(self.fleet_seed, 3 * device)
    }

    /// Seed for device `device`'s simulator (classification draws).
    pub fn sim_seed(&self, device: u64) -> u64 {
        SplitMix64::derive_stream(self.fleet_seed, 3 * device + 1)
    }

    /// Seed for device `device`'s uplink gate (carrier sense, jitter).
    pub fn uplink_seed(&self, device: u64) -> u64 {
        SplitMix64::derive_stream(self.fleet_seed, 3 * device + 2)
    }

    /// Epoch length in channel slots (at least 1).
    pub fn epoch_slots(&self) -> u64 {
        (self.epoch.as_millis() / self.uplink.slot.as_millis()).max(1)
    }

    /// The deterministic device → gateway assignment for this config.
    ///
    /// # Panics
    ///
    /// Panics if `gateways` is zero (run preflight rejects that first).
    pub fn shard_map(&self) -> ShardMap {
        ShardMap::new(self.fleet_seed, self.devices, self.gateways)
    }

    /// The [`qz_check::FleetCheckInput`] scalars for this config:
    /// worst-case per-device report rate (one report per captured
    /// frame) and slot-rounded airtimes of the cheapest (single-byte)
    /// and full-quality reports.
    pub fn check_input(&self) -> qz_check::FleetCheckInput {
        let slot_s = self.uplink.slot.as_seconds().value();
        let airtime_s = |t_exe: qz_types::Seconds| {
            let slots = self.uplink.slots_for(SimDuration::from_seconds_ceil(
                t_exe.max(qz_types::Seconds::ZERO),
            ));
            slots as f64 * slot_s
        };
        qz_check::FleetCheckInput {
            devices: self.devices as u64,
            slot_s,
            duty_cycle: self.uplink.duty_cycle,
            duty_window_s: self.uplink.duty_window.as_seconds().value(),
            min_report_airtime_s: airtime_s(self.profile.radio_byte.t_exe),
            max_report_airtime_s: airtime_s(self.profile.radio_full.t_exe),
            max_report_rate_hz: 1.0 / self.tweaks.capture_period.as_seconds().value(),
            backoff_base_s: self.uplink.backoff_base.as_seconds().value(),
            backoff_max_exp: self.uplink.backoff_max_exp,
            gateways: self.gateways as u64,
            max_shard_devices: if self.gateways <= 1 {
                self.devices as u64
            } else {
                self.shard_map().max_shard_devices()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_distinct_per_device_and_role() {
        let cfg = FleetConfig::default();
        let mut seen = std::collections::BTreeSet::new();
        for d in 0..64 {
            assert!(seen.insert(cfg.env_seed(d)));
            assert!(seen.insert(cfg.sim_seed(d)));
            assert!(seen.insert(cfg.uplink_seed(d)));
        }
    }

    #[test]
    fn env_mix_round_robins() {
        let cfg = FleetConfig::default();
        assert_eq!(cfg.env_for(0), EnvironmentKind::MoreCrowded);
        assert_eq!(cfg.env_for(3), EnvironmentKind::MoreCrowded);
        assert_eq!(cfg.env_for(4), EnvironmentKind::Crowded);
    }

    #[test]
    fn default_config_passes_fleet_check() {
        let report = qz_check::check_fleet(&FleetConfig::default().check_input());
        assert!(!report.has_errors(), "{}", report.render_text());
    }

    #[test]
    fn default_config_runs_the_event_horizon_scheduler() {
        assert_eq!(
            FleetConfig::default().scheduler,
            FleetSchedulerKind::EventHorizon,
            "epoch barrier is an opt-in reference oracle"
        );
    }

    #[test]
    fn epoch_slots_default() {
        assert_eq!(FleetConfig::default().epoch_slots(), 100);
    }

    #[test]
    fn epoch_slots_track_fine_epochs_and_clamp_to_one() {
        // The 50 ms back-pressure cadence the fleet bench exercises.
        let mut cfg = FleetConfig {
            epoch: SimDuration::from_millis(50),
            ..FleetConfig::default()
        };
        assert_eq!(cfg.epoch_slots(), 5);
        // An epoch shorter than a slot still holds one slot.
        cfg.epoch = SimDuration::from_millis(3);
        assert_eq!(cfg.epoch_slots(), 1);
    }

    #[test]
    fn check_input_reports_the_worst_shard() {
        // Single gateway: the "worst shard" is the whole fleet.
        let cfg = FleetConfig {
            devices: 100,
            ..FleetConfig::default()
        };
        let input = cfg.check_input();
        assert_eq!(input.gateways, 1);
        assert_eq!(input.max_shard_devices, 100);
        // Sharded: the preflight sees the most-loaded gateway, which
        // holds at least the even share and at most the whole fleet.
        let sharded = FleetConfig {
            devices: 100,
            gateways: 8,
            ..FleetConfig::default()
        };
        let input = sharded.check_input();
        assert_eq!(input.gateways, 8);
        assert_eq!(
            input.max_shard_devices,
            sharded.shard_map().max_shard_devices()
        );
        assert!((13..=100).contains(&input.max_shard_devices));
    }
}
