//! Arg-matrix integration tests: drive the built `qz` binary across
//! subcommand × flag combinations, asserting that foreign and
//! conflicting flags are rejected and that every `--json`/`--jsonl`
//! surface emits syntactically valid JSON (checked with the workspace's
//! strict reader, `qz_types::json::Json`).

use qz_types::json::Json;
use std::process::Command;

fn qz(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_qz"))
        .args(args)
        .output()
        .expect("qz binary runs")
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("qz_matrix_{}_{name}", std::process::id()))
}

#[test]
fn check_json_is_valid_for_sweep_and_overrides() {
    for args in [
        vec!["check", "--json"],
        vec![
            "check",
            "--json",
            "--system",
            "QZ",
            "--device",
            "msp430",
            "--checkpoint",
            "jit",
            "--buffer",
            "4",
        ],
        vec!["check", "--json", "--deny-warnings", "--allow", "QZ011"],
    ] {
        let out = qz(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        Json::parse(stdout.trim())
            .unwrap_or_else(|e| panic!("`qz {}` emitted invalid JSON: {e}", args.join(" ")));
    }
}

#[test]
fn fleet_json_report_is_valid() {
    let path = tmp("fleet.json");
    let out = qz(&[
        "fleet",
        "--devices",
        "2",
        "--events",
        "4",
        "--seed",
        "7",
        "--threads",
        "2",
        "--json",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&path).expect("json written");
    Json::parse(doc.trim()).expect("fleet JSON must parse");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fault_json_report_is_valid_and_exit_code_tracks_violations() {
    let path = tmp("fault.json");
    let out = qz(&[
        "fault",
        "--preset",
        "smoke",
        "--events",
        "3",
        "--campaigns",
        "1",
        "--seed",
        "0xBEEF",
        "--json",
        path.to_str().unwrap(),
    ]);
    // The smoke preset holds all four invariants on the default config,
    // so the exit code must be zero.
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&path).expect("json written");
    Json::parse(doc.trim()).expect("fault JSON must parse");
    assert!(doc.contains("\"violations\": 0"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_jsonl_lines_are_each_valid_json() {
    let path = tmp("trace.jsonl");
    let out = qz(&["trace", "--events", "2", "--jsonl", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&path).expect("jsonl written");
    assert!(!doc.trim().is_empty());
    for (n, line) in doc.lines().enumerate() {
        Json::parse(line).unwrap_or_else(|e| panic!("jsonl line {n} invalid: {e}"));
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn foreign_flags_are_rejected_per_subcommand() {
    // Each flag is valid somewhere — just not on this subcommand.
    let matrix: &[&[&str]] = &[
        &["check", "--plot"],
        &["check", "--events", "5"],
        &["check", "--campaigns", "2"],
        &["fleet", "--plot"],
        &["fleet", "--limit", "10"],
        &["fleet", "--deny-warnings"],
        &["fault", "--devices", "4"],
        &["fault", "--telemetry", "t.csv"],
        &["fault", "--snapshots"],
        &["trace", "--campaigns", "2"],
        &["trace", "--deny-warnings"],
        &["trace", "--duty-cycle", "0.5"],
        &["run", "--preset", "smoke"],
        &["run", "--threads", "2"],
    ];
    // The reference-oracle switches are gone from every subcommand: the
    // CLI always runs the fast-forward engine and, for fleets, the
    // event-horizon scheduler.
    let subcommands = [
        "run",
        "compare",
        "export-traces",
        "trace",
        "check",
        "verify",
        "lint-src",
        "fleet",
        "fault",
        "branch",
        "bisect",
        "profile",
        "bench",
    ];
    let mut retired: Vec<[&str; 3]> = Vec::new();
    for sub in subcommands {
        retired.push([sub, "--engine", "tick"]);
        retired.push([sub, "--scheduler", "event-horizon"]);
    }
    for args in matrix.iter().copied().chain(retired.iter().map(|a| &a[..])) {
        let out = qz(args);
        assert!(
            !out.status.success(),
            "`qz {}` should have been rejected",
            args.join(" ")
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown flag"),
            "`qz {}` stderr: {stderr}",
            args.join(" ")
        );
    }
}

#[test]
fn conflicting_stdout_streams_are_rejected() {
    let out = qz(&["fleet", "--json", "-", "--csv", "-"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("stdout"));
}

#[test]
fn help_lists_every_subcommand_and_unknowns_fail() {
    let out = qz(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for sub in [
        "run",
        "compare",
        "export-traces",
        "trace",
        "check",
        "fleet",
        "fault",
    ] {
        assert!(text.contains(&format!("qz {sub}")), "help misses {sub}");
    }
    let out = qz(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}
