//! Synthetic environment traces for energy-harvesting experiments.
//!
//! The Quetzal paper drives its evaluation with two environmental inputs
//! (§6.2, "Time-Varying Environment"):
//!
//! 1. **Harvestable power** — a real solar trace (Gorlatova et al.,
//!    INFOCOM'11) replayed through a programmable supply. We substitute a
//!    synthetic solar model ([`solar`]): a clear/cloudy Markov weather
//!    process smoothed with an AR(1) filter, optionally modulated by a
//!    diurnal envelope. Like the real traces, it spends most of its time
//!    well below the harvester's datasheet maximum — the property that
//!    breaks the Protean/Zygarde fixed-threshold baselines.
//! 2. **Sensing-event activity** — event durations and interarrival times
//!    drawn from a surveillance-video dataset (VIRAT). We substitute a
//!    stochastic generator ([`events`]): exponential interarrival gaps and
//!    uniform durations capped per sensing environment (600 s / 60 s /
//!    20 s for More Crowded / Crowded / Less Crowded, Table 1), each event
//!    labeled interesting or uninteresting.
//!
//! [`environment`] bundles the Table 1 presets.
//!
//! All generation is deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod environment;
pub mod events;
pub mod io;
pub mod solar;
pub mod stats;

pub use environment::{EnvironmentKind, SensingEnvironment};
pub use events::{ActivityCursor, Event, EventTrace, EventTraceBuilder};
pub use io::{read_events, read_solar, write_events, write_solar, TraceIoError};
pub use solar::{SolarCursor, SolarTrace, SolarTraceBuilder};
pub use stats::{event_stats, solar_stats, EventStats, SolarStats};
