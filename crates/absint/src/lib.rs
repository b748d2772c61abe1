//! Sound abstract interpretation of the energy/buffer transition
//! system.
//!
//! # What this crate proves
//!
//! `qz verify` (built on this crate) decides two safety properties of
//! one `(system, device, environment, seed)` configuration, for *every*
//! harvest realization inside a [`HarvestEnvelope`] rather than just
//! the one realized solar trace:
//!
//! - **No input-buffer overflow** — no arriving frame is ever dropped.
//! - **No energy stall** — no restart-thrash livelock where a non-JIT
//!   checkpoint policy replays interrupted work forever.
//!
//! The interpreter ([`interpret`]) steps a box domain — energy interval
//! in Q16.16 millijoules, fractional occupancy interval, greedy-spend
//! service budget — one capture window at a time, with widening to a
//! fixpoint over the post-events drain tail. Soundness is pinned two
//! ways by `tests/absint_soundness.rs`: a containment proptest (every
//! concrete trajectory stays inside the abstract boxes at every capture
//! boundary, for both simulation engines) and verdict fidelity (every
//! REFUTED verdict carries a concrete witness; every PROVEN config
//! simulates clean across the proptest corpus).
//!
//! When the abstraction flags a possible violation, [`decide`] drives a
//! directed concrete search over the envelope's corner traces and the
//! realized trace; only a confirmed violation yields
//! [`Verdict::Refuted`], otherwise the result is [`Verdict::Unknown`]
//! with the blocking interval.

pub mod envelope;
pub mod interp;
pub mod interval;
pub mod model;

pub use envelope::HarvestEnvelope;
pub use interp::{
    decide, interpret, step_window, AbsRun, AbsState, ConcreteObservation, Property, SolarMode,
    Verdict, WindowFlags, WindowRecord,
};
pub use interval::{EnergyInterval, OccInterval};
pub use model::AbsModel;
