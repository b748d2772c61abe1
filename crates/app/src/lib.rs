//! The paper's person-detection application, device profiles, and the
//! experiment runner used by every figure.
//!
//! The evaluation application (paper §6.2, §6.4) is a solar-powered
//! smart camera: capture frames at 1 FPS, discard unchanged frames with
//! a pixel diff, JPEG-compress and buffer the rest, classify buffered
//! frames with a person-detection model (MobileNetV2 at high quality,
//! LeNet at low), and radio-report positives (full JPEG image at high
//! quality, a single byte at low).
//!
//! - [`devices`] — cost tables for the two MCUs the paper studies
//!   (Ambiq Apollo 4 and TI MSP430FR5994). The paper profiles these on
//!   real hardware with a logic analyzer and power profiler; our numbers
//!   are synthetic but placed to reproduce the same operating regimes
//!   (see `DESIGN.md`).
//! - [`model`] — assembles the [`quetzal`] task/job spec and the
//!   [`qz_sim`] behaviour binding for the pipeline.
//! - [`experiments`] — `simulate(kind, …) -> Metrics`: one call runs one
//!   named system in one environment, which is what every figure runner
//!   in `qz-bench` loops over.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod devices;
pub mod experiments;
pub mod model;

pub use devices::{apollo4, msp430fr5994, DeviceProfile};
pub use experiments::{
    build_simulation, check_experiment, experiment_configs, ideal, profile_run, pzi_threshold,
    pzo_threshold, simulate, simulate_traced, simulate_with_telemetry, timeline_names, Experiment,
    ProfiledRun, SimTweaks,
};
pub use model::AppModel;
