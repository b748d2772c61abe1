//! Experiment harness: regenerates every table and figure of the
//! Quetzal paper's evaluation.
//!
//! Each figure has a runner function in [`figures`] returning structured
//! rows and an entry in [`FIGURES`] that prints them as a text table;
//! `qz figure --name <name> [--events N]` runs one entry. The
//! throughput benches in `benches/` time each fast path against its
//! reference oracle and append to `results/BENCH_*.json`. The absolute
//! numbers come from the synthetic device profiles in `qz-app`, so the
//! comparison *shapes* — who wins, by roughly what factor, where the
//! crossovers fall — are the reproduction target, not the paper's exact
//! counts (see `EXPERIMENTS.md`).
//!
//! Scale: the paper's simulation study uses 1000 events per run. The
//! runners take an event count; each [`FIGURES`] entry carries its own
//! default (400 for most figures).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
mod outputs;
pub mod report;
pub mod stats;

pub use figures::{ResultRow, EVENT_SEED};
pub use outputs::{figure, Figure, FIGURES};
pub use report::Table;
