//! Time travel for the Quetzal simulator.
//!
//! The engine's snapshot contract (`qz-sim`'s
//! [`Simulation::save_state`]) guarantees that save → restore → resume
//! is byte-identical to straight-through execution on both stepping
//! engines. This crate builds the workflows on top of that contract:
//!
//! - [`format`] — the versioned `qz-snap/v1` JSON wire format.
//!   Bit-exact: every `f64` travels as its IEEE-754 bit pattern, every
//!   `u64` as a decimal string (JSON numbers round through `f64`).
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
    use qz_sim::Simulation;
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

    #[test]
    fn json_roundtrip_is_bit_exact() {
        let env = env();
        for engine in [qz_sim::EngineKind::Tick, qz_sim::EngineKind::FastForward] {
            let tw = tweaks(engine);
            let mut sim = build(&env, &tw);
            sim.record_telemetry();
            sim.step_until(SimTime::from_millis(123_457));
            let state = sim.save_state().unwrap();
            let text = to_json(&state);
            assert!(text.starts_with("{\"schema\":\"qz-snap/v1\""));
            let parsed = from_json(&text, sim.runtime().spec()).unwrap();
            assert_eq!(parsed, state, "{engine:?}: JSON roundtrip lost state");

            // And the parsed state actually resumes: restore into a
            // twin and finish both runs.
            let mut twin = build(&env, &tw);
            twin.record_telemetry();
            twin.restore_state(&parsed).unwrap();
            let (m_twin, t_twin) = twin.run_with_telemetry();
            let (m_orig, t_orig) = sim.run_with_telemetry();
            assert_eq!(m_twin, m_orig);
            assert_eq!(t_twin, t_orig);
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
        assert!(
            from_json("{\"schema\":\"qz-snap/v0\"}", spec)
                .unwrap_err()
                .contains("unsupported snapshot schema"),
            "wrong schema tag"
        );
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
            sim.record_telemetry();
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
