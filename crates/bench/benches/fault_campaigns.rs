//! Measures qz-fault campaign throughput with prefix-snapshot forking
//! ([`CampaignMode::Snapshot`]) versus replay-from-zero
//! ([`CampaignMode::Replay`]) on the standard 210-campaign suite
//! (3 environments × 70 campaigns, every fault class gated to ~75% of
//! the fault-free run), and appends one record to the
//! `results/BENCH_fault_campaigns.json` trajectory (`qz bench --check`
//! gates on the newest record).
//!
//! Both modes run the same seeds; the shared timer (best of `REPS`)
//! asserts their reports are identical before reporting any number, so
//! a speedup can never come from divergence.

mod common;

use common::{append_trajectory, as_metric, case, timed_pair};
use qz_app::SimTweaks;
use qz_fault::{run_campaigns_with, run_one, CampaignConfig, CampaignMode, FaultPlan};
use qz_fleet::Executor;
use qz_traces::{EnvironmentKind, SensingEnvironment};
use qz_types::SimDuration;

const REPS: usize = 2;
const CAMPAIGNS: usize = 70;
const SEED: u64 = 0xFA017;

/// One suite configuration: the standard plan with the fault gate at
/// ~75% of the fault-free run, so the forked suffix is the final
/// quarter of the timeline.
fn config(env_kind: EnvironmentKind) -> CampaignConfig {
    let mut cfg = CampaignConfig {
        env: env_kind,
        events: 12,
        campaigns: CAMPAIGNS,
        seed: SEED,
        plan: FaultPlan::standard(),
        tweaks: SimTweaks {
            drain: SimDuration::from_secs(60),
            ..SimTweaks::default()
        },
        ..CampaignConfig::default()
    };
    let env = SensingEnvironment::generate(cfg.env, cfg.events, cfg.env_seed());
    let mut tweaks = cfg.tweaks.clone();
    tweaks.seed = cfg.sim_seed();
    let (clean, _) = run_one(cfg.system, &cfg.profile, &env, &tweaks, None);
    let clean_ms = clean.metrics.sim_time.as_millis();
    cfg.injection_at = SimDuration::from_secs(clean_ms * 3 / 4 / 1000);
    cfg
}

fn main() {
    let envs = [
        EnvironmentKind::Quiet,
        EnvironmentKind::Crowded,
        EnvironmentKind::MoreCrowded,
    ];

    let mut cases = Vec::new();
    for env_kind in envs {
        let cfg = config(env_kind);
        let label = env_kind.label();
        let suite =
            |mode| run_campaigns_with(&cfg, Executor::new(1), mode).expect("campaign suite runs");
        let (pair, _) = timed_pair(
            REPS,
            &format!("modes on {label}"),
            || suite(CampaignMode::Replay),
            || suite(CampaignMode::Snapshot),
        );
        let inject_at_s = cfg.injection_at.as_millis() / 1000;
        println!(
            "{label:>12}: {CAMPAIGNS} campaigns, inject at {inject_at_s}s | replay {:.3} s | snapshot {:.3} s | {:.1}x",
            pair.oracle_secs,
            pair.fast_secs,
            pair.speedup()
        );
        cases.push(case(
            label,
            &[
                ("campaigns", as_metric(CAMPAIGNS)),
                ("inject_at_s", as_metric(inject_at_s)),
                ("replay_secs", pair.oracle_secs),
                ("snapshot_secs", pair.fast_secs),
                ("speedup", pair.speedup()),
            ],
        ));
    }
    append_trajectory("fault_campaigns", cases);
}
