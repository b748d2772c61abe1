//! Time travel for the Quetzal simulator.
//!
//! The engine's snapshot contract (`qz-sim`'s
//! [`Simulation::save_state`]) guarantees that save → restore → resume
//! is byte-identical to straight-through execution on both stepping
//! engines. This crate builds the workflows on top of that contract:
//!
//! - [`format`] — the versioned `qz-snap/v2` JSON wire format.
//!   Bit-exact: every `f64` travels as its IEEE-754 bit pattern, every
//!   `u64` as a decimal string (JSON numbers round through `f64`). A
//!   snapshot holds engine state only: observers (event logs,
//!   telemetry) watch a run and are not part of it, so a restored run's
//!   observer starts at the cut.
//! - [`History`] — a bounded ring of periodic snapshots with
//!   [`History::rollback_to`]: restore the nearest snapshot at or
//!   before a tick, then replay forward deterministically.
//! - [`branch`] — what-if forks: resume a snapshot under modified
//!   [`qz_app::SimTweaks`] and diff the two decision streams into a
//!   first-divergence report.
//!
//! Failure bisection (binary-searching a snapshot ring for the first
//! divergent tick between a faulted run and its fault-free twin) lives
//! in `qz-fault`, which owns the campaign machinery it instruments.
//!
//! [`Simulation::save_state`]: qz_sim::Simulation::save_state

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod format;
pub mod history;

pub use branch::{branch, branch_self_check, first_divergence, Divergence, DivergenceReport};
pub use format::{from_json, to_json, SCHEMA};
pub use history::History;

#[cfg(test)]
mod tests {
    use super::*;
    use qz_app::{apollo4, SimTweaks};
    use qz_baselines::BaselineKind;
    use qz_sim::{Metrics, Simulation, Telemetry};
    use qz_traces::{EnvironmentKind, SensingEnvironment};
    use qz_types::SimTime;

    fn env() -> SensingEnvironment {
        SensingEnvironment::generate(EnvironmentKind::Crowded, 20, 3)
    }

    fn tweaks(engine: qz_sim::EngineKind) -> SimTweaks {
        SimTweaks {
            engine,
            ..SimTweaks::default()
        }
    }

    fn build<'a>(env: &'a SensingEnvironment, tw: &SimTweaks) -> Simulation<'a> {
        qz_app::build_simulation(BaselineKind::Quetzal, &apollo4(), env, tw)
    }

    /// [`build`] with a [`Telemetry`] observer installed.
    fn build_observed<'a>(env: &'a SensingEnvironment, tw: &SimTweaks) -> Simulation<'a> {
        let mut sim = build(env, tw);
        sim.set_observer(Box::new(Telemetry::default()));
        sim
    }

    fn finish(sim: Simulation<'_>) -> (Metrics, Telemetry) {
        let (metrics, mut observer) = sim.run_traced();
        (metrics, Telemetry::take_from(observer.as_mut()).unwrap())
    }

    #[test]
    fn json_roundtrip_is_bit_exact() {
        let env = env();
        for engine in [qz_sim::EngineKind::Tick, qz_sim::EngineKind::FastForward] {
            let tw = tweaks(engine);
            let cut = SimTime::from_millis(123_457);
            let mut sim = build_observed(&env, &tw);
            sim.step_until(cut);
            let state = sim.save_state().unwrap();
            let text = to_json(&state);
            assert!(text.starts_with("{\"schema\":\"qz-snap/v2\""));
            let parsed = from_json(&text, sim.runtime().spec()).unwrap();
            assert_eq!(parsed, state, "{engine:?}: JSON roundtrip lost state");

            // And the parsed state actually resumes: restore into a
            // twin and finish both runs; the twin's telemetry is the
            // original's from the cut onwards.
            let mut twin = build_observed(&env, &tw);
            twin.restore_state(&parsed).unwrap();
            let (m_twin, t_twin) = finish(twin);
            let (m_orig, t_orig) = finish(sim);
            assert_eq!(m_twin, m_orig);
            let suffix: Vec<_> = t_orig.samples().iter().filter(|s| s.t >= cut).collect();
            assert!(!suffix.is_empty());
            assert_eq!(t_twin.samples().iter().collect::<Vec<_>>(), suffix);
        }
    }

    #[test]
    fn from_json_rejects_garbage() {
        let env = env();
        let tw = tweaks(qz_sim::EngineKind::FastForward);
        let mut sim = build(&env, &tw);
        sim.step_until(SimTime::from_millis(10_000));
        let state = sim.save_state().unwrap();
        let spec = sim.runtime().spec();
        assert!(from_json("{", spec).is_err(), "malformed JSON");
        for stale in ["qz-snap/v0", "qz-snap/v1"] {
            assert!(
                from_json(&format!("{{\"schema\":\"{stale}\"}}"), spec)
                    .unwrap_err()
                    .contains("unsupported snapshot schema"),
                "wrong schema tag {stale}"
            );
        }
        let text = to_json(&state);
        let truncated = text.replace("\"rng\"", "\"rng_gone\"");
        assert!(
            from_json(&truncated, spec).unwrap_err().contains("rng"),
            "missing field is named"
        );
        // A u64 rendered as a bare JSON number must be rejected, not
        // silently rounded through f64.
        let as_number = text.replacen(&format!("\"rng\":\"{}\"", state.rng), "\"rng\":1", 1);
        assert!(from_json(&as_number, spec).unwrap_err().contains("rng"));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]
        #[test]
        fn from_json_is_total_on_corrupted_snapshots(
            at in 0usize..1_000_000,
            byte in proptest::prelude::any::<u8>(),
            cut in 0usize..1_000_000,
            junk in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..48),
        ) {
            let env = env();
            let tw = tweaks(qz_sim::EngineKind::FastForward);
            let mut sim = build(&env, &tw);
            sim.step_until(SimTime::from_millis(60_000));
            let mut bytes = to_json(&sim.save_state().unwrap()).into_bytes();
            let spec = sim.runtime().spec();
            // A value or an error, never a panic: one byte flipped, the
            // document truncated, or plain junk.
            let at = at % bytes.len();
            bytes[at] = byte;
            let _ = from_json(&String::from_utf8_lossy(&bytes), spec);
            let _ = from_json(&String::from_utf8_lossy(&bytes[..cut % bytes.len()]), spec);
            let _ = from_json(&String::from_utf8_lossy(&junk), spec);
        }
    }
}
