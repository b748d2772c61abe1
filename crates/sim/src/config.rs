//! Device cost tables and simulation parameters.

use crate::intermittent::CheckpointPolicy;
use quetzal::model::TaskCost;
use qz_energy::{Harvester, Supercap, SupercapConfig};
use qz_types::{Joules, Seconds, SimDuration, Watts};

/// Per-device cost table for the fixed parts of the sensing pipeline and
/// the platform's operating characteristics.
///
/// Concrete values for the Apollo 4 and MSP430FR5994 live in `qz-app`;
/// the defaults here are the Apollo 4 profile so a bare `DeviceConfig`
/// is immediately usable.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Input-buffer capacity in compressed images (paper: 10).
    pub buffer_capacity: usize,
    /// Fixed capture period (paper: 1 FPS).
    pub capture_period: SimDuration,
    /// Camera capture cost (every frame).
    pub capture: TaskCost,
    /// Pixel-diff prefilter cost (every frame).
    pub diff: TaskCost,
    /// JPEG compression cost (only frames that will be stored; the paper
    /// notes all systems compress before storing).
    pub compress: TaskCost,
    /// Energy of one just-in-time checkpoint (paid when the capacitor
    /// drains to the reserve threshold).
    pub checkpoint_energy: Joules,
    /// Energy of restoring from a checkpoint after recharge.
    pub restore_energy: Joules,
    /// Power drawn while on but idle (awaiting inputs or the next
    /// capture).
    pub sleep_power: Watts,
    /// Leakage while powered off (harvesting continues).
    pub off_leakage: Watts,
    /// Scheduler/degradation-engine invocation cost, paid before each
    /// scheduled job (zero for trivial baselines; derived from the
    /// `qz-hw` MCU cost model for Quetzal).
    pub scheduler_overhead: TaskCost,
    /// Data-dependent execution-time variability: each task execution's
    /// latency is scaled by a uniform factor in `[1-j, 1+j]`. The paper
    /// assumes consistent costs (j = 0); the variable-cost extension is
    /// evaluated with j > 0.
    pub task_jitter: f64,
    /// How progress is preserved across power failures (paper §6.3 uses
    /// just-in-time checkpointing).
    pub checkpoint_policy: CheckpointPolicy,
}

impl Default for DeviceConfig {
    fn default() -> DeviceConfig {
        DeviceConfig {
            buffer_capacity: 10,
            capture_period: SimDuration::from_secs(1),
            capture: TaskCost::new(Seconds(0.050), Watts(0.010)),
            diff: TaskCost::new(Seconds(0.020), Watts(0.005)),
            compress: TaskCost::new(Seconds(0.150), Watts(0.015)),
            checkpoint_energy: Joules(0.5e-3),
            restore_energy: Joules(0.5e-3),
            sleep_power: Watts(50e-6),
            off_leakage: Watts(5e-6),
            scheduler_overhead: TaskCost::new(Seconds(0.001), Watts(0.015)),
            task_jitter: 0.0,
            checkpoint_policy: CheckpointPolicy::JustInTime,
        }
    }
}

impl DeviceConfig {
    /// Capacitor energy reserve that triggers a just-in-time checkpoint:
    /// enough for the checkpoint itself plus a small margin.
    pub fn checkpoint_reserve(&self) -> Joules {
        self.checkpoint_energy * 1.25
    }
}

/// The power-system configuration: storage element plus harvester.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerConfig {
    /// Supercapacitor parameters (paper: 33 mF).
    pub supercap: SupercapConfig,
    /// Harvester cell count (paper primary config: 6).
    pub harvester_cells: u32,
    /// Per-cell datasheet rating.
    pub cell_rating: Watts,
    /// Boost-converter efficiency.
    pub converter_efficiency: f64,
}

impl Default for PowerConfig {
    fn default() -> PowerConfig {
        PowerConfig {
            supercap: SupercapConfig::default(),
            harvester_cells: 6,
            cell_rating: Watts(0.010),
            converter_efficiency: 0.80,
        }
    }
}

impl PowerConfig {
    /// Builds the harvester from this configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero cells, bad rating or
    /// efficiency) — configurations are program constants, so this is a
    /// programming error rather than a runtime condition.
    pub fn harvester(&self) -> Harvester {
        Harvester::new(
            self.harvester_cells,
            self.cell_rating,
            self.converter_efficiency,
        )
        .expect("invalid harvester configuration")
    }

    /// Builds the supercapacitor from this configuration.
    ///
    /// # Panics
    ///
    /// Panics if the supercap window is inconsistent (see above).
    pub fn supercap(&self) -> Supercap {
        Supercap::new(self.supercap).expect("invalid supercapacitor configuration")
    }
}

/// Which stepping strategy [`crate::Simulation`] uses.
///
/// Both engines produce byte-identical metrics, telemetry, and observer
/// event streams for the same configuration and seed; fast-forward only
/// changes how quickly the answer arrives. The tick engine is the
/// reference oracle that tests and benches select; the `qz` CLI always
/// runs fast-forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// The reference fixed-increment loop: every 1 ms tick runs the full
    /// per-tick pipeline.
    Tick,
    /// Event-horizon fast-forward: provably quiescent spans between
    /// events are advanced in bulk, with capacitor threshold crossings
    /// bounded in closed form (`qz-energy`'s bulk integration).
    #[default]
    FastForward,
}

impl EngineKind {
    /// Short label for reports and logs.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Tick => "tick",
            EngineKind::FastForward => "fast-forward",
        }
    }
}

/// Top-level simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Device cost table.
    pub device: DeviceConfig,
    /// Power system.
    pub power: PowerConfig,
    /// Extra simulated time after the last event, letting in-flight and
    /// buffered inputs drain.
    pub drain: SimDuration,
    /// Seed for the simulator's stochastic draws (classification
    /// outcomes).
    pub seed: u64,
    /// Stepping strategy (fast-forward by default; `tick` is the
    /// reference loop).
    pub engine: EngineKind,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            device: DeviceConfig::default(),
            power: PowerConfig::default(),
            drain: SimDuration::from_secs(600),
            seed: 0x51_3D,
            engine: EngineKind::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.device.buffer_capacity, 10);
        assert_eq!(cfg.device.capture_period, SimDuration::from_secs(1));
        let h = cfg.power.harvester();
        assert_eq!(h.cells(), 6);
        let c = cfg.power.supercap();
        assert!(c.capacity().value() > 0.0);
    }

    #[test]
    fn checkpoint_reserve_covers_checkpoint() {
        let d = DeviceConfig::default();
        assert!(d.checkpoint_reserve() > d.checkpoint_energy);
    }
}
