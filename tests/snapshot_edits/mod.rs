//! The snapshot edit experiment shared by `snapshot_equivalence.rs`
//! (engine state) and `fault_differential.rs` (with an armed fault
//! injector). A corpus snapshot cuts a Crowded, 40-event, seed-7 run
//! with the EWMA power predictor and an installed uplink; an edit
//! replaces one of its decimal digits. An edited snapshot must be
//! rejected by `from_json` or `restore_state`, or resume to the end
//! without a panic.

use qz_baselines::BaselineKind;
use qz_sim::uplink::{UplinkConfig, UplinkPort};
use qz_sim::Simulation;
use qz_snap::{from_json, to_json};
use qz_traces::{EnvironmentKind, SensingEnvironment};
use qz_types::SimTime;
use std::sync::OnceLock;

/// A fresh corpus run of `kind`.
pub fn corpus_sim(kind: BaselineKind) -> Simulation<'static> {
    static ENV: OnceLock<SensingEnvironment> = OnceLock::new();
    let env = ENV.get_or_init(|| SensingEnvironment::generate(EnvironmentKind::Crowded, 40, 7));
    let tw = qz_app::SimTweaks {
        seed: 7,
        power_ewma_alpha: Some(0.3),
        ..qz_app::SimTweaks::default()
    };
    let mut sim = qz_app::build_simulation(kind, &qz_app::apollo4(), env, &tw);
    sim.set_uplink(UplinkPort::new(UplinkConfig::default(), 7));
    sim
}

/// `sim` cut at `cut_ms` as a `qz-snap/v2` document, with the byte
/// offsets of its decimal digits.
pub fn snapshot_doc(mut sim: Simulation<'_>, cut_ms: u64) -> (String, Vec<usize>) {
    sim.step_until(SimTime::from_millis(cut_ms));
    let doc = to_json(&sim.save_state().expect("snapshot saves"));
    let digits = doc
        .bytes()
        .enumerate()
        .filter_map(|(i, b)| b.is_ascii_digit().then_some(i))
        .collect();
    (doc, digits)
}

/// Replaces the digit at byte `at` of `doc` with `replacement`, then
/// decodes the result, restores it into `sim` (a fresh run built like
/// the one `doc` was cut from) and, if it restores, runs it to the
/// end. A panic anywhere fails the calling property.
pub fn rejects_or_resumes(mut sim: Simulation<'_>, doc: &str, at: usize, replacement: &str) {
    let edited = format!("{}{replacement}{}", &doc[..at], &doc[at + 1..]);
    let Ok(state) = from_json(&edited, sim.runtime().spec()) else {
        return;
    };
    if sim.restore_state(&state).is_ok() {
        sim.run();
    }
}
