//! Foundational types shared across the Quetzal reproduction workspace.
//!
//! This crate provides the vocabulary the rest of the system is written in:
//!
//! - [`units`] — strongly-typed physical quantities ([`Seconds`], [`Watts`],
//!   [`Joules`], [`Volts`], [`Amps`], [`Farads`], [`Hertz`]) with the
//!   dimensional arithmetic the energy models need (`Watts * Seconds =
//!   Joules`, `Joules / Watts = Seconds`, …).
//! - [`time`] — discrete simulation time ([`SimTime`], [`SimDuration`]) in
//!   integer milliseconds, matching the paper's fixed-increment 1 ms
//!   simulator (§6.3).
//! - [`fixed`] — [`Q16`], a Q16.16 fixed-point type used to mirror the
//!   integer-only arithmetic an MSP430-class microcontroller would perform.
//! - [`rng`] — a small deterministic [`SplitMix64`] generator used where the
//!   simulator needs cheap reproducible randomness without pulling in a
//!   full RNG crate.
//! - [`json`] (with `std`) — the workspace's one JSON codec: a streaming
//!   writer every emitter uses and a reader every parser uses.
//!
//! The crate is `no_std`-capable (disable the default `std` feature):
//! every type here is usable on the microcontrollers the Quetzal runtime
//! targets.
//!
//! # Examples
//!
//! ```
//! use qz_types::{Joules, Watts, Seconds};
//!
//! let task_energy = Watts(0.020) * Seconds(3.0); // 20 mW for 3 s
//! assert_eq!(task_energy, Joules(0.060));
//! let recharge = task_energy / Watts(0.010);     // at 10 mW input power
//! assert_eq!(recharge, Seconds(6.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(feature = "std"), no_std)]

pub mod fixed;
#[cfg(feature = "std")]
pub mod json;
pub mod math;
pub mod rng;
pub mod time;
pub mod units;

pub use fixed::Q16;
pub use math::{ceil_positive, round_half_away};
pub use rng::SplitMix64;
pub use time::{SimDuration, SimTime, MS_PER_SEC};
pub use units::{Amps, Farads, Hertz, Joules, Seconds, Volts, Watts};
