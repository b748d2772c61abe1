//! # qz-obs — decision tracing and metrics for Quetzal
//!
//! Every run of the Quetzal runtime makes a stream of decisions — which
//! job Algorithm 1 picked (and why), what occupancy Algorithm 2
//! predicted (and which degradation options it rejected), what the PID
//! corrected — and the simulator around it adds state transitions:
//! power failures, restores, checkpoints, buffer admits and IBO
//! discards. This crate makes that stream first-class:
//!
//! - [`Event`]/[`EventKind`] — a typed taxonomy of every decision and
//!   transition, timestamped in device milliseconds.
//! - [`Observer`] — the pluggable hook the runtime and simulator emit
//!   through. The default [`NoopObserver`] reports itself disabled, so
//!   emission sites skip event construction entirely: the disabled path
//!   is one boolean test, and it is the path every untraced run takes.
//! - [`ObserverHandle`] — ownership plumbing used by the instrumented
//!   components: holds the boxed observer, caches its enabled flag, and
//!   stamps events with the current device time.
//! - [`metrics`] — counters, gauges, and fixed-bucket log2 histograms,
//!   plus [`MetricsObserver`], which derives a
//!   registry (prediction-error, occupancy, and recharge-time
//!   distributions) from the event stream.
//! - Sinks: [`RecordingObserver`] (unbounded log),
//!   [`RingBufferObserver`] (bounded, overwriting), CSV/JSONL
//!   [`export`], and the human-readable [`timeline`] renderer behind
//!   `qz trace`.
//!
//! Like the `quetzal` runtime it instruments, the crate is
//! `no_std`-capable (`default-features = false`, requires `alloc`);
//! only the I/O exporters need `std`.
//!
//! Events refer to jobs, tasks, and options by their spec indices
//! (`usize`), not by the runtime's typed IDs — this keeps the crate at
//! the bottom of the dependency graph so both the runtime and the
//! simulator can emit through it. Consumers that want names resolve
//! them against their `AppSpec` (see [`timeline::TimelineNames`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(feature = "std"), no_std)]

extern crate alloc;

pub mod event;
#[cfg(feature = "std")]
pub mod export;
pub mod metrics;
pub mod observer;
pub mod sinks;
pub mod timeline;

pub use event::{CandidateEval, Event, EventKind, OptionEval, Snapshot};
pub use metrics::{Log2Histogram, MetricsObserver, MetricsRegistry};
pub use observer::{take_recorded, NoopObserver, Observer, ObserverHandle};
pub use sinks::{RecordingObserver, RingBufferObserver};
