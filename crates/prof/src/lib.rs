//! Performance observability for the Quetzal simulator (see DESIGN.md,
//! "Performance observability").
//!
//! Where `qz-obs` explains *what the scheduler decided*, this crate
//! explains *what the simulator spent* — and does so strictly
//! out-of-band, so enabling any of it never changes a byte of the
//! deterministic outputs (a contract pinned by the
//! `profiler_invisibility` differential suite):
//!
//! - [`PhaseProfiler`] — scoped wall-clock timing over the engine hot
//!   paths (reference tick, bulk-span advance, the energy kernel
//!   (`sprint`) and its fixed-point jumps (`replay`), obs emission,
//!   uplink resolution, fleet epoch barrier and reduction), aggregated
//!   per phase into counts, total/self nanoseconds, and log2 latency
//!   histograms. Disabled by default; the disabled path is a single
//!   `Option` test, mirroring `qz-obs`'s cached-`enabled` observer
//!   discipline.
//! - [`ProfileReport`] — the rendered result: text table, JSON, and a
//!   collapsed-stack file standard flamegraph tooling consumes.
//! - [`HorizonStats`] — *deterministic* counters (simulated-time land,
//!   no clocks) recording which bound won every fast-forward horizon
//!   decision ([`HorizonCause`]) and the span-length distribution, so
//!   `qz profile` can print "why your Crowded run is slow" as a ranked
//!   list.
//! - [`FlightRecorder`] — a bounded ring of recent `qz-obs` events plus
//!   periodic state digests, dumped as a self-describing JSON
//!   postmortem carrying the exact single-line repro command; an armed
//!   panic hook ships the same evidence for crashes.
//! - [`Trajectory`] — append-only, schema-versioned bench result logs
//!   (`results/BENCH_*.json`) with a [`Baseline`]-driven regression
//!   check behind `qz bench --check`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod horizon;
pub mod profiler;
pub mod report;
pub mod trajectory;

pub use flight::{
    arm_panic_dump, disarm_panic_dump, policy_hash, FlightHandle, FlightMeta, FlightObserver,
    FlightRecorder, StateDigest, DEFAULT_RING_CAPACITY, FLIGHT_SCHEMA,
};
pub use horizon::{CauseStat, HorizonCause, HorizonStats};
pub use profiler::{Phase, PhaseProfiler, PhaseStat};
pub use report::{PhaseReport, ProfileReport};
pub use trajectory::{
    git_rev, Baseline, BaselineCheck, BenchCase, CheckOutcome, Trajectory, TrajectoryRecord,
    BASELINE_SCHEMA, TRAJECTORY_SCHEMA,
};
