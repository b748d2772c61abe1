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
        vec!["check", "--json", "-"],
        vec![
            "check",
            "--json",
            "-",
            "--system",
            "QZ",
            "--device",
            "msp430",
            "--checkpoint",
            "jit",
            "--buffer",
            "4",
        ],
        vec![
            "check",
            "--json",
            "-",
            "--deny-warnings",
            "--allow",
            "QZ011",
        ],
    ] {
        let out = qz(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        Json::parse(stdout.trim())
            .unwrap_or_else(|e| panic!("`qz {}` emitted invalid JSON: {e}", args.join(" ")));
    }
}

/// `--json` takes a path on every subcommand that has it: the file
/// holds exactly the document `--json -` streams to stdout.
#[test]
fn json_file_holds_the_stdout_document() {
    for args in [
        vec!["check", "--system", "QZ", "--device", "apollo4"],
        vec![
            "verify", "--system", "QZ", "--device", "apollo4", "--env", "quiet", "--events", "6",
        ],
    ] {
        let streamed = qz(&[&args[..], &["--json", "-"]].concat());
        assert!(streamed.status.success(), "{streamed:?}");
        let path = tmp(&format!("{}.json", args[0]));
        let out = qz(&[&args[..], &["--json", path.to_str().unwrap()]].concat());
        assert!(out.status.success(), "{out:?}");
        let written = std::fs::read(&path).expect("json written");
        let _ = std::fs::remove_file(&path);
        assert_eq!(written, streamed.stdout, "qz {}", args[0]);
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
        "fleet",
        "fault",
        "branch",
        "bisect",
        "profile",
        "bench",
        "figure",
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

#[test]
fn figure_rejects_malformed_events_and_retired_flags() {
    for args in [
        &["figure", "--name", "fig03_naive", "--events", "nope"][..],
        &["figure", "--name", "fig03_naive", "--quick"],
    ] {
        let out = qz(args);
        assert_eq!(out.status.code(), Some(1), "`qz {}`", args.join(" "));
        assert!(out.stdout.is_empty(), "`qz {}` ran", args.join(" "));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("error: "),
            "`qz {}`: {stderr}",
            args.join(" ")
        );
    }
}

#[test]
fn figure_tables_reject_an_event_count() {
    for name in ["table1_config", "table_hw_costs"] {
        let out = qz(&["figure", "--name", name, "--events", "5"]);
        assert_eq!(out.status.code(), Some(1), "{name}");
        assert!(out.stdout.is_empty(), "{name} ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!(
                "error: `{name}` prints constants and takes no --events"
            )),
            "{stderr}"
        );
    }
}

#[test]
fn figure_tables_match_their_committed_results() {
    // The two tables print constants, so their committed outputs are
    // cheap to check here; ci.sh checks every figure at full scale.
    for name in ["table1_config", "table_hw_costs"] {
        let out = qz(&["figure", "--name", name]);
        assert!(out.status.success(), "{name}");
        let path = format!("{}/../../results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read(&path).expect("committed output");
        assert!(
            out.stdout == committed,
            "`qz figure --name {name}` differs from {path}"
        );
    }
}

/// `qz trace --csv` bytes for a fixed seed, pinned by length and
/// FNV-1a-64 hash (2.6 MB of rows: every kind a single-device trace
/// emits, IBO walks and discards included).
#[test]
fn trace_csv_bytes_are_pinned() {
    let path = tmp("trace.csv");
    let path_str = path.to_str().expect("utf-8 temp path");
    let out = qz(&[
        "trace", "--env", "more", "--events", "12", "--seed", "7", "--csv", path_str,
    ]);
    assert!(out.status.success(), "{out:?}");
    let bytes = std::fs::read(&path).expect("csv written");
    let _ = std::fs::remove_file(&path);
    assert_eq!(pin(&bytes), (2_616_407, 0x902e_9667_255e_9577));
}

/// Length and FNV-1a-64 hash of `bytes`.
fn pin(bytes: &[u8]) -> (usize, u64) {
    let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    (bytes.len(), fnv)
}

/// `qz run --telemetry` CSV bytes and the `--plot` panel for a fixed
/// seed, pinned by length and FNV-1a-64 hash: both render the periodic
/// device-state sample, so a change to how the sample is delivered must
/// leave them unchanged.
#[test]
fn telemetry_csv_and_plot_bytes_are_pinned() {
    let run = ["run", "--env", "more", "--events", "12", "--seed", "7"];
    let path = tmp("telemetry.csv");
    let path_str = path.to_str().expect("utf-8 temp path");
    let out = qz(&[&run[..], &["--telemetry", path_str]].concat());
    assert!(out.status.success(), "{out:?}");
    let bytes = std::fs::read(&path).expect("csv written");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        pin(&bytes),
        (168_934, 0x847b_a7d0_47d8_b1cd),
        "telemetry CSV"
    );

    let out = qz(&[&run[..], &["--plot"]].concat());
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let panel = &stdout[stdout.find("irradiance   |").expect("plot panel")..];
    assert_eq!(
        pin(panel.as_bytes()),
        (912, 0xfe0b_24c5_344d_902c),
        "plot panel"
    );
}
