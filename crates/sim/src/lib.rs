//! Fixed-increment intermittent-computing device simulator.
//!
//! Mirrors the paper's custom simulator (§6.3): time advances in 1 ms
//! steps; the device is a set of tasks characterized by latency and
//! energy; an energy-storage element gains harvested energy every step
//! and loses the executing task's energy; a just-in-time checkpointing
//! system preserves task progress across power failures; and every
//! scheduling or degradation decision incurs its modeled overhead before
//! a job runs.
//!
//! The simulated firmware is the paper's periodic sensing pipeline
//! (Fig. 1): a camera captures frames at a fixed rate; a pixel-diff
//! prefilter discards unchanged frames; changed frames are JPEG-
//! compressed and stored into the shared input buffer; buffered inputs
//! are processed by jobs (ML classification, then radio reporting for
//! positives). If a changed frame arrives to a full buffer it is lost —
//! an **input buffer overflow** — and the simulator records whether the
//! lost frame was interesting.
//!
//! The device runs any [`quetzal::Quetzal`] runtime composition, so the
//! same engine hosts Quetzal proper and every baseline (see
//! `qz-baselines`).
//!
//! Module map:
//!
//! - [`buffer`] — the shared input buffer with per-job queues.
//! - [`pipeline`] — binds spec tasks to simulation behaviours
//!   (compute / classify / transmit) and jobs to routing.
//! - [`config`] — device cost tables and simulation parameters.
//! - [`metrics`] — everything the evaluation counts.
//! - [`fault`] — seeded adversarial fault-injection hooks.
//! - [`engine`] — the tick loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod config;
pub mod engine;
pub mod fault;
pub mod intermittent;
pub mod metrics;
pub mod pipeline;
pub mod telemetry;
pub mod uplink;

pub use buffer::{BufferEntry, InputBuffer, InputBufferState};
pub use config::{DeviceConfig, EngineKind, PowerConfig, SimConfig};
pub use engine::{ActiveJobState, SimError, SimState, Simulation};
pub use fault::{task_progress, FaultContext, FaultInjector, FaultPhase, InjectorState, QuietSpan};
pub use intermittent::{CheckpointPolicy, ProgressKeeper, ProgressKeeperState};
pub use metrics::Metrics;
pub use pipeline::{ClassRates, PipelineSpec, ReportQuality, Route, TaskBehavior};
pub use telemetry::{Telemetry, TelemetrySample};
pub use uplink::{TxDecision, TxRecord, UplinkConfig, UplinkPort, UplinkState};
