//! Flight-recorder postmortems for violated campaigns.
//!
//! A violation row in a [`FaultReport`] already carries the single-line
//! repro command; this module turns it into *evidence*: the campaign is
//! deterministically re-run (same seeds, same injector) to recover its
//! full `qz-obs` event stream, and the tail of that stream — plus the
//! periodic state digests — is written as a self-describing
//! `qz-flight/v1` JSON dump. Everything in the dump derives from
//! simulated state, so the bytes are identical on every machine (pinned
//! by the `flight_recorder` golden test).

use crate::campaign::{injection_time, CampaignConfig, CampaignRow, FaultReport};
use crate::inject::AdversarialInjector;
use crate::oracle::run_one;
use qz_app::build_simulation;
use qz_prof::{FlightMeta, FlightRecorder, DEFAULT_RING_CAPACITY};
use qz_traces::SensingEnvironment;
use qz_types::SimTime;
use std::path::{Path, PathBuf};

/// Builds the postmortem dump for one campaign row by re-running that
/// campaign deterministically and feeding its event stream through a
/// [`FlightRecorder`]. The dump embeds a `resume` snapshot — the
/// `qz-snap/v2` engine state right before the last state digest's tick
/// — so the final stretch of the crashed run can be replayed directly
/// instead of from tick zero.
///
/// # Panics
///
/// Panics when `qz-check` rejects the configuration (same contract as
/// [`crate::run_campaigns`], which already validated it).
pub fn postmortem_json(cfg: &CampaignConfig, report: &FaultReport, row: &CampaignRow) -> String {
    let env = SensingEnvironment::generate(cfg.env, cfg.events, cfg.env_seed());
    let mut tweaks = cfg.tweaks.clone();
    tweaks.seed = cfg.sim_seed();
    let at = injection_time(cfg);
    let injector = AdversarialInjector::activating_at(cfg.plan.clone(), row.fault_seed, at);
    let (faulted, _) = run_one(cfg.system, &cfg.profile, &env, &tweaks, Some(injector));
    let source = if row.violations.is_empty() {
        String::from("qz-fault differential oracle: clean campaign (requested dump)")
    } else {
        let invariants: Vec<&str> = row.violations.iter().map(|v| v.invariant).collect();
        format!(
            "qz-fault differential oracle: {} violated",
            invariants.join(", ")
        )
    };
    let meta = FlightMeta {
        source,
        repro: report.repro_line(row),
    };
    let recorder = FlightRecorder::from_events(meta, &faulted.events, DEFAULT_RING_CAPACITY);
    // Resume snapshot: deterministically re-run to the last digest's
    // tick and capture the engine state there. `step_until` leaves the
    // digest tick itself unprocessed, so resuming replays it first.
    let resume = recorder.digests().back().map(|d| {
        let mut sim = build_simulation(cfg.system, &cfg.profile, &env, &tweaks);
        sim.set_fault_injector(Box::new(AdversarialInjector::activating_at(
            cfg.plan.clone(),
            row.fault_seed,
            at,
        )));
        sim.step_until(SimTime::from_millis(d.t_ms));
        qz_snap::to_json(
            &sim.save_state()
                .expect("the adversarial injector supports snapshots"),
        )
    });
    recorder.to_json_with(None, resume.as_deref())
}

/// Writes one postmortem file per violated campaign into `dir`
/// (creating it), named `postmortem_c<campaign>.json`. Returns the
/// written paths, campaign order. No violations → no files.
///
/// # Errors
///
/// The first I/O error, with the offending path.
pub fn write_postmortems(
    cfg: &CampaignConfig,
    report: &FaultReport,
    dir: &Path,
) -> Result<Vec<PathBuf>, String> {
    let mut written = Vec::new();
    for row in &report.rows {
        if row.violations.is_empty() {
            continue;
        }
        if written.is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let path = dir.join(format!("postmortem_c{}.json", row.campaign));
        std::fs::write(&path, postmortem_json(cfg, report, row))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaigns;
    use crate::plan::FaultPlan;
    use qz_app::SimTweaks;
    use qz_fleet::Executor;
    use qz_prof::FLIGHT_SCHEMA;
    use qz_types::SimDuration;

    fn small() -> CampaignConfig {
        CampaignConfig {
            events: 4,
            campaigns: 2,
            plan: FaultPlan::heavy(),
            tweaks: SimTweaks {
                drain: SimDuration::from_secs(30),
                ..SimTweaks::default()
            },
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn postmortem_dump_is_deterministic_and_self_describing() {
        let cfg = small();
        let report = run_campaigns(&cfg, Executor::new(2)).expect("campaigns run");
        let row = &report.rows[0];
        let a = postmortem_json(&cfg, &report, row);
        let b = postmortem_json(&cfg, &report, row);
        assert_eq!(a, b, "re-running the same campaign must dump identically");
        assert!(a.contains(FLIGHT_SCHEMA));
        assert!(a.contains("qz fault --system"), "repro line embedded");
        assert!(a.contains("\"ring\""));
        assert!(
            a.contains("\"resume\":{\"schema\":\"qz-snap/v2\""),
            "a resume snapshot at the last state digest is embedded"
        );
    }

    #[test]
    fn resume_snapshot_actually_resumes() {
        let cfg = small();
        let report = run_campaigns(&cfg, Executor::new(1)).expect("campaigns run");
        let row = &report.rows[1];
        let dump = postmortem_json(&cfg, &report, row);
        // Pull the spliced resume document back out of the dump: it
        // sits between the `resume` key and the `ring_dropped` key.
        let start = dump.find("\"resume\":").expect("resume embedded") + "\"resume\":".len();
        let end = dump
            .find(",\"ring_dropped\"")
            .expect("ring_dropped follows");
        let resume = &dump[start..end];

        // Restoring it into the campaign's configuration and finishing
        // must land on the same metrics as the straight-through re-run.
        let env = SensingEnvironment::generate(cfg.env, cfg.events, cfg.env_seed());
        let mut tweaks = cfg.tweaks.clone();
        tweaks.seed = cfg.sim_seed();
        let mut sim = build_simulation(cfg.system, &cfg.profile, &env, &tweaks);
        let state = qz_snap::from_json(resume, sim.runtime().spec()).expect("resume parses");
        sim.set_fault_injector(Box::new(AdversarialInjector::new(
            cfg.plan.clone(),
            row.fault_seed,
        )));
        sim.restore_state(&state).expect("resume restores");
        while sim.step() {}
        let (straight, _) = run_one(
            cfg.system,
            &cfg.profile,
            &env,
            &tweaks,
            Some(AdversarialInjector::new(cfg.plan.clone(), row.fault_seed)),
        );
        assert_eq!(sim.metrics(), &straight.metrics);
    }

    #[test]
    fn clean_report_writes_no_postmortems() {
        let cfg = small();
        let report = run_campaigns(&cfg, Executor::new(1)).expect("campaigns run");
        // The standard suite holds these invariants, so no files appear.
        if report.total_violations() == 0 {
            let dir = std::env::temp_dir().join("qz_fault_postmortem_none");
            let _ = std::fs::remove_dir_all(&dir);
            let written = write_postmortems(&cfg, &report, &dir).expect("write ok");
            assert!(written.is_empty());
            assert!(!dir.exists(), "directory only created when needed");
        }
    }
}
