//! # qz-fleet — parallel multi-device fleet simulation
//!
//! Everything else in this workspace simulates **one** device. Real
//! deployments of the paper's camera-trap application are fleets: tens
//! of harvesting devices reporting over a **shared** low-power uplink
//! (LoRa-style duty-cycled channel to one gateway). That coupling
//! matters for the paper's headline metric — a transmission that fails
//! carrier sense or runs out of duty budget retries later, which keeps
//! its input-buffer slot occupied, which raises IBO pressure — so the
//! fleet layer feeds channel contention back into exactly the buffer
//! dynamics Quetzal's IBO engine manages.
//!
//! ## Module map
//!
//! - [`exec`] — a scoped thread crew on `std::thread` + channels; work
//!   self-schedules over an atomic cursor, results return in input
//!   order. Callers choose the width (`--threads` on the CLI).
//! - [`config`] — [`FleetConfig`]: device count, environment mix,
//!   system preset, channel parameters, epoch cadence, master seed.
//! - [`channel`] — the gateway-side slot-ordered reduction
//!   ([`GatewayChannel`]) charging clean/collision/idle slots and
//!   computing next-epoch per-device busy probabilities.
//! - [`scheduler`] — who steps which device when: the priority-queue
//!   [`FleetSchedulerKind::EventHorizon`] coordinator
//!   ([`EventHorizonScheduler`]: per-device due epochs, lazy wake
//!   loads; the default), the lockstep
//!   [`FleetSchedulerKind::EpochBarrier`] reference that tests and
//!   benches check it against, and the deterministic device → gateway
//!   [`ShardMap`].
//! - [`run`] — the coordinator ([`run_fleet`]): parallel epoch
//!   stepping (under the event horizon, of the due devices only,
//!   borrowed in place), serial barrier reduction, one-epoch-delayed
//!   back-pressure.
//! - [`report`] — [`FleetReport`]: per-device rows, channel stats,
//!   cross-fleet percentiles; JSON/CSV/text renderers with no
//!   non-deterministic fields.
//!
//! ## Determinism
//!
//! One fleet run is a pure function of its [`FleetConfig`]. Device `i`
//! draws from three seed streams derived as
//! `derive_stream(fleet_seed, 3i / 3i+1 / 3i+2)` (environment,
//! classification, uplink jitter), and devices only couple through the
//! previous epoch's channel load, reduced serially in device order at
//! each barrier. Thread count changes which core steps which device —
//! nothing more — so `--threads 1` and `--threads 8` produce
//! byte-identical reports (pinned by `tests/fleet_determinism.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod config;
pub mod exec;
pub mod report;
pub mod run;
pub mod scheduler;

pub use channel::{ChannelStats, GatewayChannel};
pub use config::FleetConfig;
pub use exec::Executor;
pub use report::{DeviceReport, FleetAggregates, FleetReport, Percentiles};
pub use run::{preflight, run_fleet, run_fleet_profiled, FleetError, FleetProfile};
pub use scheduler::{EventHorizonScheduler, FleetHotState, FleetSchedulerKind, ShardMap};
