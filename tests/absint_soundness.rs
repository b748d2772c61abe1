//! Soundness of the `qz-absint` abstract interpreter against the
//! simulator, pinned both ways:
//!
//! - **Containment**: every concrete trajectory — realized solar trace
//!   and both envelope corner traces, under both stepping engines —
//!   stays inside the abstract energy/occupancy boxes at every capture
//!   boundary the interpreter recorded.
//! - **Verdict fidelity**: every REFUTED verdict carries a concrete
//!   counterexample that actually overflows/stalls when simulated, and
//!   every PROVEN config simulates clean across the corpus.

use proptest::prelude::*;
use qz_absint::{
    decide, interpret, AbsModel, AbsRun, ConcreteObservation, HarvestEnvelope, Property, SolarMode,
    Verdict,
};
use qz_app::{apollo4, experiment_configs, msp430fr5994, DeviceProfile, SimTweaks};
use qz_baselines::{build_runtime, BaselineKind};
use qz_sim::{CheckpointPolicy, EngineKind, Simulation};
use qz_traces::{EnvironmentKind, SensingEnvironment, SolarTrace};
use qz_types::{Farads, SimDuration};

/// Envelope segment length used throughout (the `qz verify` default).
const SEGMENT_SECS: u64 = 60;

const ENVS: [EnvironmentKind; 5] = [
    EnvironmentKind::MoreCrowded,
    EnvironmentKind::Crowded,
    EnvironmentKind::LessCrowded,
    EnvironmentKind::Short,
    EnvironmentKind::Quiet,
];

fn build_sim<'a>(
    kind: BaselineKind,
    profile: &DeviceProfile,
    env: &'a SensingEnvironment,
    tweaks: &SimTweaks,
) -> Simulation<'a> {
    let (app, qcfg, cfg) = experiment_configs(kind, profile, tweaks);
    let runtime = build_runtime(kind, app.spec.clone(), qcfg).expect("valid runtime");
    Simulation::new(cfg, env, runtime, app.entry, app.behaviors, app.routes)
        .expect("valid pipeline binding")
}

fn solar_for(mode: SolarMode, envelope: &HarvestEnvelope, realized: &SolarTrace) -> SolarTrace {
    match mode {
        SolarMode::Trace => realized.clone(),
        SolarMode::Floor => envelope.floor_trace(),
        SolarMode::Ceil => envelope.ceil_trace(),
    }
}

/// Interprets one configuration and returns the pieces a check needs.
fn abstract_run(
    kind: BaselineKind,
    profile: &DeviceProfile,
    env: &SensingEnvironment,
    tweaks: &SimTweaks,
) -> (AbsModel, HarvestEnvelope, AbsRun) {
    let (app, _qcfg, cfg) = experiment_configs(kind, profile, tweaks);
    let model = AbsModel::new(&app.spec, &cfg.device, &cfg.power);
    let envelope = HarvestEnvelope::from_trace(env.solar(), SEGMENT_SECS);
    let run = interpret(&model, &envelope, env.events(), cfg.drain.as_millis());
    (model, envelope, run)
}

/// Core containment check: walk one concrete simulation through every
/// recorded window boundary and assert the boxes hold.
#[allow(clippy::too_many_arguments)]
fn assert_contained(
    kind: BaselineKind,
    profile: &DeviceProfile,
    env_kind: EnvironmentKind,
    env: &SensingEnvironment,
    tweaks: &SimTweaks,
    envelope: &HarvestEnvelope,
    run: &AbsRun,
    mode: SolarMode,
) {
    let solar = solar_for(mode, envelope, env.solar());
    let env_m = SensingEnvironment::with_parts(env_kind, env.events().clone(), solar);
    let mut sim = build_sim(kind, profile, &env_m, tweaks);
    for w in &run.windows {
        let alive = sim.step_until(w.t);
        if sim.time() < w.t {
            assert!(!alive, "step_until stopped early while alive");
            break;
        }
        let e_mj = sim.stored_energy().value() * 1e3;
        assert!(
            w.e.contains_mj(e_mj),
            "{kind:?}/{}/{env_kind:?}/{mode:?} t={}ms: energy {e_mj:.4} mJ outside \
             [{:.4}, {:.4}]",
            profile.name,
            w.t.as_millis(),
            w.e.lo_mj(),
            w.e.hi_mj(),
        );
        assert!(
            w.occ.contains(sim.occupancy()),
            "{kind:?}/{}/{env_kind:?}/{mode:?} t={}ms: occupancy {} outside \
             [{:.3}, {:.3}]",
            profile.name,
            w.t.as_millis(),
            sim.occupancy(),
            w.occ.lo,
            w.occ.hi,
        );
    }
}

fn containment_case(
    kind: BaselineKind,
    profile: &DeviceProfile,
    env_kind: EnvironmentKind,
    events: usize,
    seed: u64,
    engine: EngineKind,
) {
    let tweaks = SimTweaks {
        seed,
        engine,
        drain: SimDuration::from_secs(90),
        ..SimTweaks::default()
    };
    let env = SensingEnvironment::generate(env_kind, events, seed);
    let (_model, envelope, run) = abstract_run(kind, profile, &env, &tweaks);
    for mode in [SolarMode::Trace, SolarMode::Floor, SolarMode::Ceil] {
        assert_contained(
            kind, profile, env_kind, &env, &tweaks, &envelope, &run, mode,
        );
    }
}

proptest! {
    // Each case steps three full simulations; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Containment across presets, devices, environments, seeds and
    /// both stepping engines.
    #[test]
    fn concrete_trajectories_stay_inside_the_boxes(
        preset in 0usize..BaselineKind::PRESETS.len(),
        device in 0usize..2,
        env in 0usize..ENVS.len(),
        events in 2usize..8,
        seed in 1u64..1_000_000,
        fast in any::<bool>(),
    ) {
        let profile = if device == 0 { apollo4() } else { msp430fr5994() };
        let engine = if fast { EngineKind::FastForward } else { EngineKind::Tick };
        containment_case(BaselineKind::PRESETS[preset], &profile, ENVS[env], events, seed, engine);
    }

    /// Containment must hold for hostile device knobs too: tiny
    /// capacitors, non-JIT checkpointing, small buffers.
    #[test]
    fn containment_survives_hostile_knobs(
        preset in 0usize..BaselineKind::PRESETS.len(),
        cap_mf in 1u32..40,
        buffer in 1usize..6,
        policy in 0usize..3,
        seed in 1u64..1_000_000,
    ) {
        let tweaks = SimTweaks {
            seed,
            supercap_capacitance: Some(Farads(f64::from(cap_mf) * 1e-3)),
            buffer_capacity: buffer,
            checkpoint_policy: match policy {
                0 => CheckpointPolicy::JustInTime,
                1 => CheckpointPolicy::TaskBoundary,
                _ => CheckpointPolicy::Periodic { interval: SimDuration::from_millis(100) },
            },
            drain: SimDuration::from_secs(60),
            ..SimTweaks::default()
        };
        let profile = apollo4();
        let env = SensingEnvironment::generate(EnvironmentKind::Short, 4, seed);
        let (_model, envelope, run) = abstract_run(BaselineKind::PRESETS[preset], &profile, &env, &tweaks);
        for mode in [SolarMode::Trace, SolarMode::Floor, SolarMode::Ceil] {
            assert_contained(
                BaselineKind::PRESETS[preset], &profile, EnvironmentKind::Short, &env, &tweaks,
                &envelope, &run, mode,
            );
        }
    }
}

/// Runs the full concrete simulation for one solar mode and digests it.
fn observe(
    kind: BaselineKind,
    profile: &DeviceProfile,
    env_kind: EnvironmentKind,
    env: &SensingEnvironment,
    tweaks: &SimTweaks,
    envelope: &HarvestEnvelope,
    mode: SolarMode,
) -> ConcreteObservation {
    let solar = solar_for(mode, envelope, env.solar());
    let env_m = SensingEnvironment::with_parts(env_kind, env.events().clone(), solar);
    let metrics = build_sim(kind, profile, &env_m, tweaks).run();
    ConcreteObservation::from_metrics(&metrics)
}

/// Decides both properties for one configuration, with the directed
/// search wired to real simulations.
fn verdicts(
    kind: BaselineKind,
    profile: &DeviceProfile,
    env_kind: EnvironmentKind,
    events: usize,
    tweaks: &SimTweaks,
) -> (Verdict, Verdict, SensingEnvironment, HarvestEnvelope) {
    let env = SensingEnvironment::generate(env_kind, events, tweaks.seed);
    let (_model, envelope, run) = abstract_run(kind, profile, &env, tweaks);
    let overflow = decide(&run, Property::Overflow, |mode| {
        Some(observe(
            kind, profile, env_kind, &env, tweaks, &envelope, mode,
        ))
    });
    let stall = decide(&run, Property::Stall, |mode| {
        Some(observe(
            kind, profile, env_kind, &env, tweaks, &envelope, mode,
        ))
    });
    (overflow, stall, env, envelope)
}

/// PROVEN must mean clean: whatever the verdict engine proves, the
/// realized trace and both envelope corners must uphold.
fn assert_proven_faithful(
    kind: BaselineKind,
    profile: &DeviceProfile,
    env_kind: EnvironmentKind,
    env: &SensingEnvironment,
    tweaks: &SimTweaks,
    envelope: &HarvestEnvelope,
    prop: Property,
) {
    for mode in [SolarMode::Trace, SolarMode::Floor, SolarMode::Ceil] {
        let obs = observe(kind, profile, env_kind, env, tweaks, envelope, mode);
        assert!(
            !obs.witnesses(prop),
            "{kind:?}/{}/{env_kind:?}: PROVEN {} violated under {mode:?}: {obs:?}",
            profile.name,
            prop.token(),
        );
    }
}

/// Verdict fidelity over the full preset sweep on the default config:
/// both devices, a quiet and a busy environment. REFUTED never appears
/// without its concrete witness (by construction of `decide`, but the
/// assertion keeps it pinned), and PROVEN configs simulate clean.
#[test]
fn verdicts_are_faithful_across_the_preset_sweep() {
    let tweaks = SimTweaks {
        seed: 0xA11CE,
        drain: SimDuration::from_secs(120),
        ..SimTweaks::default()
    };
    for profile in [apollo4(), msp430fr5994()] {
        for kind in BaselineKind::PRESETS {
            for env_kind in [EnvironmentKind::Quiet, EnvironmentKind::Short] {
                let (overflow, stall, env, envelope) =
                    verdicts(kind, &profile, env_kind, 4, &tweaks);
                for (prop, verdict) in [(Property::Overflow, &overflow), (Property::Stall, &stall)]
                {
                    match verdict {
                        Verdict::Proven => assert_proven_faithful(
                            kind, &profile, env_kind, &env, &tweaks, &envelope, prop,
                        ),
                        Verdict::Refuted { mode } => {
                            let obs =
                                observe(kind, &profile, env_kind, &env, &tweaks, &envelope, *mode);
                            assert!(
                                obs.witnesses(prop),
                                "{kind:?}/{}/{env_kind:?}: REFUTED {} has no witness \
                                 under {mode:?}: {obs:?}",
                                profile.name,
                                prop.token(),
                            );
                        }
                        Verdict::Unknown { .. } => {}
                    }
                }
            }
        }
    }
}

/// The known-stalling config (the `checker_soundness` QZ001 witness:
/// whole-task replay, 1 mF, single cell) must come back REFUTED for
/// the stall property, with a confirmed counterexample.
#[test]
fn known_stall_config_is_refuted() {
    let tweaks = SimTweaks {
        seed: 11,
        checkpoint_policy: CheckpointPolicy::TaskBoundary,
        supercap_capacitance: Some(Farads(1e-3)),
        harvester_cells: 1,
        drain: SimDuration::from_secs(300),
        ..SimTweaks::default()
    };
    let profile = apollo4();
    let (_overflow, stall, _env, _envelope) = verdicts(
        BaselineKind::NoAdapt,
        &profile,
        EnvironmentKind::Crowded,
        30,
        &tweaks,
    );
    assert!(
        matches!(stall, Verdict::Refuted { .. }),
        "expected REFUTED stall, got {stall:?}"
    );
}

/// A one-slot buffer against a crowded environment must come back
/// REFUTED for the overflow property.
#[test]
fn known_overflow_config_is_refuted() {
    let tweaks = SimTweaks {
        seed: 3,
        buffer_capacity: 1,
        drain: SimDuration::from_secs(60),
        ..SimTweaks::default()
    };
    let profile = apollo4();
    let (overflow, _stall, _env, _envelope) = verdicts(
        BaselineKind::NoAdapt,
        &profile,
        EnvironmentKind::MoreCrowded,
        8,
        &tweaks,
    );
    assert!(
        matches!(overflow, Verdict::Refuted { .. }),
        "expected REFUTED overflow, got {overflow:?}"
    );
}

/// The stall property is PROVEN outright for every shipped preset:
/// they all use JIT checkpointing, whose replay unit is empty.
#[test]
fn jit_presets_prove_no_stall_without_search() {
    let tweaks = SimTweaks {
        drain: SimDuration::from_secs(60),
        ..SimTweaks::default()
    };
    for kind in BaselineKind::PRESETS {
        let profile = apollo4();
        let env = SensingEnvironment::generate(EnvironmentKind::Quiet, 3, tweaks.seed);
        let (_model, _envelope, run) = abstract_run(kind, &profile, &env, &tweaks);
        let stall = decide(&run, Property::Stall, |_| {
            panic!("JIT proof must not need a concrete run")
        });
        assert!(stall.is_proven(), "{kind:?}: {stall:?}");
    }
}
