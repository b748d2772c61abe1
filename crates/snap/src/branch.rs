//! What-if forks: replay a run's suffix under modified tweaks and
//! report where the decision streams first diverge.
//!
//! [`branch`] runs the base configuration to the fork tick, snapshots,
//! restores that snapshot into a simulation built from the *fork*
//! tweaks, and runs both to completion with recording observers. The
//! two suffix event streams are then compared event-by-event into a
//! [`DivergenceReport`]: either the first differing decision (with both
//! sides rendered) or a certificate that the fork changed nothing.
//!
//! Only behavioural tweaks can be forked: anything that changes the
//! *shape* of the state (buffer capacity, window sizes, harvester cell
//! count) makes the snapshot unrestorable, and the restore's shape
//! validation reports it as an error rather than guessing.

use qz_app::{DeviceProfile, SimTweaks};
use qz_baselines::BaselineKind;
use qz_obs::Event;
use qz_sim::Metrics;
use qz_traces::SensingEnvironment;
use qz_types::SimTime;

/// Where two event streams first disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Index into the suffix streams (0 = first post-fork event).
    pub index: usize,
    /// Timestamp of the divergent event (the base side's when present,
    /// else the fork side's), milliseconds.
    pub t_ms: u64,
    /// The base run's event at that index, rendered as JSON (`None`
    /// when the base stream ended first).
    pub base: Option<String>,
    /// The fork run's event at that index, rendered as JSON (`None`
    /// when the fork stream ended first).
    pub fork: Option<String>,
}

/// Outcome of a [`branch`] fork.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceReport {
    /// Fork instant.
    pub at: SimTime,
    /// Base-run events after the fork instant.
    pub base_suffix_events: usize,
    /// Fork-run events after the fork instant.
    pub fork_suffix_events: usize,
    /// First disagreement, or `None` when the fork run reproduced the
    /// base decision stream exactly.
    pub first_divergence: Option<Divergence>,
    /// Base-run end-of-run metrics.
    pub base_metrics: Metrics,
    /// Fork-run end-of-run metrics.
    pub fork_metrics: Metrics,
}

impl DivergenceReport {
    /// Renders the report as human-readable text.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "fork at t={}s: base {} events, fork {} events after the fork\n",
            self.at.as_millis() / 1000,
            self.base_suffix_events,
            self.fork_suffix_events,
        );
        match &self.first_divergence {
            None => out
                .push_str("no divergence: the fork reproduced the base decision stream exactly\n"),
            Some(d) => {
                out.push_str(&format!(
                    "first divergence at suffix event #{} (t={}ms):\n",
                    d.index, d.t_ms
                ));
                out.push_str(&format!(
                    "  base: {}\n",
                    d.base.as_deref().unwrap_or("<stream ended>")
                ));
                out.push_str(&format!(
                    "  fork: {}\n",
                    d.fork.as_deref().unwrap_or("<stream ended>")
                ));
            }
        }
        out
    }
}

/// First index at which two event streams disagree, with both sides
/// rendered; `None` when they are identical.
pub fn first_divergence(base: &[Event], fork: &[Event]) -> Option<Divergence> {
    let limit = base.len().max(fork.len());
    (0..limit).find_map(|i| match (base.get(i), fork.get(i)) {
        (Some(b), Some(f)) if b == f => None,
        (b, f) => Some(Divergence {
            index: i,
            t_ms: b.or(f).map_or(0, |e| e.t_ms),
            base: b.map(qz_types::json::to_string),
            fork: f.map(qz_types::json::to_string),
        }),
    })
}

/// Runs the base configuration to `at`, forks a twin under
/// `fork_tweaks` from a snapshot, and diffs the two post-fork decision
/// streams.
///
/// # Errors
///
/// Fails when the snapshot cannot be captured or when `fork_tweaks`
/// changes the state shape so the snapshot no longer restores
/// (different buffer capacity, window sizes, or installations).
///
/// # Panics
///
/// Panics when either configuration is rejected by `qz-check`
/// (mirroring every other `qz-app` entry point).
pub fn branch(
    kind: BaselineKind,
    profile: &DeviceProfile,
    env: &SensingEnvironment,
    base_tweaks: &SimTweaks,
    fork_tweaks: &SimTweaks,
    at: SimTime,
) -> Result<DivergenceReport, String> {
    // Base leg: run to the fork instant, snapshot, finish traced.
    let mut base_sim = qz_app::build_simulation(kind, profile, env, base_tweaks);
    base_sim.set_observer(Box::new(qz_obs::RecordingObserver::new()));
    base_sim.step_until(at);
    let snap = base_sim.save_state()?;
    let (base_metrics, mut base_obs) = base_sim.run_traced();
    let base_events = qz_obs::take_recorded(base_obs.as_mut()).expect("recording sink installed");

    // Fork leg: fresh simulation under the fork tweaks, resumed from
    // the base snapshot.
    let mut fork_sim = qz_app::build_simulation(kind, profile, env, fork_tweaks);
    fork_sim.restore_state(&snap)?;
    fork_sim.set_observer(Box::new(qz_obs::RecordingObserver::new()));
    let (fork_metrics, mut fork_obs) = fork_sim.run_traced();
    let fork_events = qz_obs::take_recorded(fork_obs.as_mut()).expect("recording sink installed");

    // Only post-fork events are comparable: the fork leg never saw the
    // prefix. The snapshot was taken with every tick < `at` fully
    // processed, so the suffix is exactly the events stamped >= `at`.
    let cut = at.as_millis();
    let base_suffix: Vec<Event> = base_events.into_iter().filter(|e| e.t_ms >= cut).collect();

    let report = DivergenceReport {
        at,
        base_suffix_events: base_suffix.len(),
        fork_suffix_events: fork_events.len(),
        first_divergence: first_divergence(&base_suffix, &fork_events),
        base_metrics,
        fork_metrics,
    };
    Ok(report)
}

/// Verifies [`branch`]'s invariant directly: a fork with *unchanged*
/// tweaks must reproduce the base decision stream exactly. Returns the
/// report so callers can also assert on metrics equality.
///
/// # Errors
///
/// As for [`branch`].
pub fn branch_self_check(
    kind: BaselineKind,
    profile: &DeviceProfile,
    env: &SensingEnvironment,
    tweaks: &SimTweaks,
    at: SimTime,
) -> Result<DivergenceReport, String> {
    branch(kind, profile, env, tweaks, tweaks, at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qz_app::apollo4;
    use qz_obs::EventKind;
    use qz_traces::EnvironmentKind;

    fn env() -> SensingEnvironment {
        SensingEnvironment::generate(EnvironmentKind::Crowded, 20, 3)
    }

    #[test]
    fn identity_fork_reports_no_divergence() {
        let env = env();
        let report = branch_self_check(
            BaselineKind::Quetzal,
            &apollo4(),
            &env,
            &SimTweaks::default(),
            SimTime::from_secs(60),
        )
        .unwrap();
        assert!(
            report.first_divergence.is_none(),
            "{}",
            report.render_text()
        );
        assert_eq!(report.base_suffix_events, report.fork_suffix_events);
        assert_eq!(report.base_metrics, report.fork_metrics);
        assert!(report.render_text().contains("no divergence"));
    }

    #[test]
    fn policy_fork_diverges_after_the_fork_point() {
        let env = env();
        let base = SimTweaks::default();
        let fork = SimTweaks {
            pid_enabled: false,
            ..SimTweaks::default()
        };
        let at = SimTime::from_secs(60);
        let report = branch(BaselineKind::Quetzal, &apollo4(), &env, &base, &fork, at).unwrap();
        let d = report
            .first_divergence
            .as_ref()
            .expect("disabling the PID loop must change decisions");
        assert!(d.t_ms >= at.as_millis(), "divergence is in the suffix");
        assert!(d.base.is_some() && d.fork.is_some());
        let text = report.render_text();
        assert!(text.contains("first divergence"), "{text}");
    }

    #[test]
    fn shape_changing_fork_is_rejected() {
        let env = env();
        let fork = SimTweaks {
            arrival_window: 64,
            ..SimTweaks::default()
        };
        let err = branch(
            BaselineKind::Quetzal,
            &apollo4(),
            &env,
            &SimTweaks::default(),
            &fork,
            SimTime::from_secs(60),
        )
        .unwrap_err();
        assert!(
            err.contains("capacity"),
            "shape mismatch names the cause: {err}"
        );
    }

    #[test]
    fn first_divergence_handles_prefix_streams() {
        let a = Event {
            t_ms: 5,
            kind: EventKind::Checkpoint,
        };
        let b = Event {
            t_ms: 9,
            kind: EventKind::Restore { off_ms: 100 },
        };
        assert!(first_divergence(std::slice::from_ref(&a), std::slice::from_ref(&a)).is_none());
        let d = first_divergence(&[a.clone(), b.clone()], std::slice::from_ref(&a)).unwrap();
        assert_eq!(d.index, 1);
        assert_eq!(d.t_ms, 9);
        assert!(d.base.is_some() && d.fork.is_none());
        let d = first_divergence(std::slice::from_ref(&a), &[b]).unwrap();
        assert_eq!(d.index, 0);
    }
}
