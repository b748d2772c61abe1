//! Run drivers for the three-way differential: faulted, fault-free,
//! and always-on oracle executions of the *same* configuration.
//!
//! The differential harness compares each faulted run against two
//! references built from the identical event trace:
//!
//! - the **fault-free run** — same device, same seeds, no injector —
//!   which bounds what the configuration does on its own; and
//! - the **always-on oracle** — same events under constant full sun
//!   with a 1 F supercapacitor, so it never browns out and attempts
//!   every capture boundary. Its counters are the ceiling any
//!   intermittently-powered run must stay under.

use crate::campaign::CampaignProfile;
use crate::inject::{AdversarialInjector, FaultStats};
use qz_app::{build_simulation, DeviceProfile, SimTweaks};
use qz_baselines::BaselineKind;
use qz_obs::{Event, RecordingObserver};
use qz_sim::{Metrics, Simulation};
use qz_traces::{SensingEnvironment, SolarTrace};
use qz_types::Farads;

/// One completed run: its metrics and full decision-event trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// End-of-run counters.
    pub metrics: Metrics,
    /// The recorded `qz-obs` event stream (inputs to the witnesses).
    pub events: Vec<Event>,
}

/// The same sensing events under constant full sun — the harvest side
/// of the always-on oracle.
pub fn oracle_environment(env: &SensingEnvironment) -> SensingEnvironment {
    SensingEnvironment::with_parts(env.kind(), env.events().clone(), SolarTrace::constant(1.0))
}

/// The same tweaks with a 1 F supercapacitor: at full sun the oracle's
/// stored energy never reaches the brownout threshold, so it behaves as
/// a continuously-powered device.
pub fn oracle_tweaks(tweaks: &SimTweaks) -> SimTweaks {
    SimTweaks {
        supercap_capacitance: Some(Farads(1.0)),
        ..tweaks.clone()
    }
}

/// Runs one simulation to completion with the event recorder installed
/// and, optionally, a fault injector; returns the outcome plus the
/// injector's accumulated statistics when one was installed.
///
/// # Panics
///
/// Panics when `qz-check` rejects the configuration (same contract as
/// [`qz_app::build_simulation`]).
pub fn run_one(
    kind: BaselineKind,
    profile: &DeviceProfile,
    env: &SensingEnvironment,
    tweaks: &SimTweaks,
    injector: Option<AdversarialInjector>,
) -> (RunOutcome, Option<FaultStats>) {
    let (outcome, stats, _) = run_one_profiled(kind, profile, env, tweaks, injector, false);
    (outcome, stats)
}

/// [`run_one`] with the simulation's phase profiler armed when
/// `profiling` is set, returning its engine accounting too.
pub(crate) fn run_one_profiled(
    kind: BaselineKind,
    profile: &DeviceProfile,
    env: &SensingEnvironment,
    tweaks: &SimTweaks,
    injector: Option<AdversarialInjector>,
    profiling: bool,
) -> (RunOutcome, Option<FaultStats>, Option<CampaignProfile>) {
    let mut sim = recording_simulation(kind, profile, env, tweaks, profiling);
    if let Some(inj) = injector {
        sim.set_fault_injector(Box::new(inj));
    }
    finish(&mut sim)
}

/// A simulation with the event recorder installed and, when
/// `profiling` is set, the phase profiler armed.
pub(crate) fn recording_simulation<'a>(
    kind: BaselineKind,
    profile: &DeviceProfile,
    env: &'a SensingEnvironment,
    tweaks: &SimTweaks,
    profiling: bool,
) -> Simulation<'a> {
    let mut sim = build_simulation(kind, profile, env, tweaks);
    if profiling {
        sim.enable_profiling();
    }
    sim.set_observer(Box::new(RecordingObserver::new()));
    sim
}

/// Runs `sim` to completion and collects its outcome, the adversarial
/// injector's statistics (when one is installed) and, when its
/// profiler is armed, its engine accounting.
pub(crate) fn finish(
    sim: &mut Simulation<'_>,
) -> (RunOutcome, Option<FaultStats>, Option<CampaignProfile>) {
    while sim.step() {}
    let stats = sim.take_fault_injector().and_then(|mut f| {
        f.as_any_mut().and_then(|any| {
            any.downcast_ref::<AdversarialInjector>()
                .map(|a| a.stats().clone())
        })
    });
    let mut observer = sim.take_observer();
    let events = qz_obs::take_recorded(observer.as_mut()).unwrap_or_default();
    let accounting = sim.profiler().is_enabled().then(|| CampaignProfile {
        profiler: sim.take_profiler(),
        horizon: sim.horizon_stats().clone(),
    });
    (
        RunOutcome {
            metrics: sim.metrics().clone(),
            events,
        },
        stats,
        accounting,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;
    use qz_app::apollo4;
    use qz_traces::EnvironmentKind;

    fn short_tweaks() -> SimTweaks {
        SimTweaks {
            drain: qz_types::SimDuration::from_secs(30),
            ..SimTweaks::default()
        }
    }

    fn env() -> SensingEnvironment {
        SensingEnvironment::generate(EnvironmentKind::Crowded, 5, 77)
    }

    #[test]
    fn oracle_never_browns_out_and_attempts_every_frame() {
        let env = env();
        let t = short_tweaks();
        let (clean, _) = run_one(BaselineKind::Quetzal, &apollo4(), &env, &t, None);
        let (oracle, _) = run_one(
            BaselineKind::Quetzal,
            &apollo4(),
            &oracle_environment(&env),
            &oracle_tweaks(&t),
            None,
        );
        assert_eq!(oracle.metrics.power_failures, 0);
        assert!(oracle.metrics.frames_total >= clean.metrics.frames_total);
        assert!(oracle.metrics.interesting_total >= clean.metrics.interesting_total);
    }

    #[test]
    fn none_plan_matches_the_clean_run_exactly() {
        let env = env();
        let t = short_tweaks();
        let (clean, stats) = run_one(BaselineKind::Quetzal, &apollo4(), &env, &t, None);
        assert!(stats.is_none());
        let (nulled, stats) = run_one(
            BaselineKind::Quetzal,
            &apollo4(),
            &env,
            &t,
            Some(AdversarialInjector::new(FaultPlan::none(), 9)),
        );
        let stats = stats.expect("injector installed");
        assert_eq!(clean.metrics, nulled.metrics);
        assert_eq!(clean.events, nulled.events);
        assert!(stats.ticks > 0);
        assert_eq!(stats.negative_energy_ticks, 0);
    }

    #[test]
    fn faulted_run_records_injections() {
        let env = env();
        let t = short_tweaks();
        let (faulted, stats) = run_one(
            BaselineKind::Quetzal,
            &apollo4(),
            &env,
            &t,
            Some(AdversarialInjector::new(FaultPlan::heavy(), 5)),
        );
        let stats = stats.expect("injector installed");
        assert!(faulted.metrics.faults_total() > 0, "heavy plan must fire");
        assert!(stats.ticks > 0);
        assert!(
            faulted
                .events
                .iter()
                .any(|e| matches!(e.kind, qz_obs::EventKind::FaultInjected { .. })),
            "fault events must appear in the trace"
        );
    }
}
