//! # qz-fault — deterministic fault injection + differential oracle
//!
//! Intermittent-execution bugs hide in the gaps between power
//! failures: a checkpoint taken mid-task, a reboot mid-transmit, an
//! ADC misread feeding the `P_exe/P_in` ratio circuit garbage. This
//! crate attacks those gaps deliberately. A seeded
//! [`AdversarialInjector`] perturbs a running [`qz_sim`] simulation —
//! worst-case-phase power failures, checkpoint corruption, sensor
//! misreads, clock jitter, input bursts, uplink jams — and a
//! **differential oracle harness** replays every faulted run against
//! two references built from the *same* event trace:
//!
//! - the fault-free run of the identical configuration, and
//! - an always-on oracle (constant full sun, 1 F storage) that never
//!   browns out.
//!
//! Four invariants are machine-checked on every campaign
//! ([`invariants`]): replayed work is idempotent, no buffer entry is
//! lost or duplicated across reboots, energy accounting never goes
//! negative, and degradation decisions stay monotone in buffer
//! pressure (via the [`quetzal`] trace witnesses). Violations print a
//! single-line `--seed` repro command.
//!
//! Module map:
//!
//! - [`plan`] — per-class fault probabilities/amplitudes + presets
//!   (`smoke`, `standard`, `heavy`).
//! - [`inject`] — the seeded injector (six independent
//!   [`qz_types::SplitMix64`] streams, one per fault class).
//! - [`oracle`] — the three run drivers (faulted / clean / oracle).
//! - [`invariants`] — the four differential invariants.
//! - [`campaign`] — campaign fan-out on the [`qz_fleet::Executor`],
//!   `QZ06x` survivability preflight, deterministic reports. Faulted
//!   runs fork from a shared prefix snapshot at the injection instant
//!   ([`CampaignMode::Snapshot`], the default) instead of replaying the
//!   fault-free prefix once per campaign.
//! - [`postmortem`] — `qz-flight/v1` crash-dump evidence for violated
//!   campaigns (deterministic re-run → event ring + state digests +
//!   an embedded `qz-snap/v2` resume snapshot).
//! - [`bisect`] — automatic failure bisection: binary-search a
//!   `qz-snap` snapshot ring for the exact first tick at which a
//!   faulted run's state diverges from its fault-free twin.
//!
//! # Quickstart
//!
//! ```
//! use qz_fault::{run_campaigns, CampaignConfig, FaultPlan};
//! use qz_fleet::Executor;
//!
//! let cfg = CampaignConfig {
//!     events: 4,
//!     campaigns: 2,
//!     plan: FaultPlan::smoke(),
//!     tweaks: qz_app::SimTweaks {
//!         drain: qz_types::SimDuration::from_secs(30),
//!         ..qz_app::SimTweaks::default()
//!     },
//!     ..CampaignConfig::default()
//! };
//! let report = run_campaigns(&cfg, Executor::new(2)).unwrap();
//! assert_eq!(report.total_violations(), 0, "{}", report.render_text());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bisect;
pub mod campaign;
pub mod inject;
pub mod invariants;
pub mod oracle;
pub mod plan;
pub mod postmortem;

pub use bisect::{bisect_campaign, BisectConfig, BisectReport};
pub use campaign::{
    cli_device_token, preflight, repro_line_for, run_campaigns, run_campaigns_profiled,
    run_campaigns_with, CampaignConfig, CampaignMode, CampaignProfile, CampaignRow, FaultError,
    FaultReport,
};
pub use inject::{AdversarialInjector, FaultStats};
pub use invariants::{check_all, DiffInputs, Violation};
pub use oracle::{oracle_environment, oracle_tweaks, run_one, RunOutcome};
pub use plan::FaultPlan;
pub use postmortem::{postmortem_json, write_postmortems};
