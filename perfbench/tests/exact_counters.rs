//! Two traced runs of one seed must agree on every exact counter, so a
//! later change can gate those counts exactly (wall time it cannot).
//! Also pins that each traced run is invisible: its outputs equal the
//! untraced run's, byte for byte.
//!
//! Run optimized, since every workload runs at full size:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{Metric, Workload};

const SEED: u64 = 7;

/// Counts, byte sizes and deterministic ratios: every layer metric
/// except wall-clock times and the two ratios of wall-clock times.
fn is_exact(m: &Metric) -> bool {
    m.unit != "ns" && m.name != "trace.overhead" && m.name != "fault.replica_ratio"
}

fn check(workload: Workload) {
    let (first, problems) = workload.traced_layers(SEED);
    assert!(problems.is_empty(), "{}: {problems:?}", workload.name());
    let (second, problems) = workload.traced_layers(SEED);
    assert!(problems.is_empty(), "{}: {problems:?}", workload.name());
    let exact: Vec<&Metric> = first.iter().filter(|m| is_exact(m)).collect();
    assert!(
        exact.len() > 20,
        "{}: too few exact counters",
        workload.name()
    );
    for m in exact {
        let again = second
            .iter()
            .find(|n| n.name == m.name)
            .unwrap_or_else(|| panic!("{}: {} missing on the second run", workload.name(), m.name));
        assert_eq!(
            m.value.to_bits(),
            again.value.to_bits(),
            "{}: {} moved between traced runs ({} vs {})",
            workload.name(),
            m.name,
            m.value,
            again.value
        );
    }
}

#[test]
fn run_morecrowded_counters_repeat() {
    check(Workload::RunMoreCrowded);
}

#[test]
fn fleet_sparse_counters_repeat() {
    check(Workload::FleetSparse);
}

#[test]
fn fault_campaigns_counters_repeat() {
    check(Workload::FaultCampaigns);
}
