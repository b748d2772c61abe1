//! Pins the machine-readable output schemas of `qz check --json` and
//! `qz verify --json` by running the actual binary against fixed
//! configurations and comparing stdout to committed golden files —
//! the same contract style as `tests/golden/flight_dump.json` pins
//! `qz-flight/v1`. Downstream tooling keys on these field names
//! (`sources`, `verdicts`, `repro`, …), so any drift is a conscious
//! re-baseline.
//!
//! A failure is either a model/message change (re-baseline after
//! reading the diff) or an incompatible schema change (update the
//! consumers too). Regenerate with the commands in each golden's
//! companion constant below, e.g.
//! `cargo run -p qz-cli -- check --system AvgSe2e --device msp430 --json -`.

use std::process::Command;

/// Runs the `qz` binary, returning `(stdout, success)`.
fn run_qz(args: &[&str]) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_qz"))
        .args(args)
        .output()
        .expect("qz binary runs");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        out.status.success(),
    )
}

const CHECK_ARGS: &[&str] = &[
    "check", "--system", "AvgSe2e", "--device", "msp430", "--json", "-",
];
const VERIFY_PROVEN_ARGS: &[&str] = &[
    "verify", "--system", "QZ", "--device", "apollo4", "--env", "quiet", "--events", "10",
    "--json", "-",
];
const VERIFY_REFUTED_ARGS: &[&str] = &[
    "verify", "--system", "lcfs", "--device", "msp430", "--env", "crowded", "--events", "40",
    "--json", "-",
];

#[test]
fn check_json_matches_golden() {
    let (got, ok) = run_qz(CHECK_ARGS);
    assert!(ok, "warnings alone must not fail `qz check`");
    let want = include_str!("golden/check_schema.json");
    assert_eq!(
        got.trim_end(),
        want.trim_end(),
        "check JSON drifted — re-baseline tests/golden/check_schema.json if intentional:\n{got}"
    );
}

#[test]
fn verify_proven_json_matches_golden() {
    let (got, ok) = run_qz(VERIFY_PROVEN_ARGS);
    assert!(ok, "a fully proven config must exit zero");
    let want = include_str!("golden/verify_schema.json");
    assert_eq!(
        got.trim_end(),
        want.trim_end(),
        "verify JSON drifted — re-baseline tests/golden/verify_schema.json if intentional:\n{got}"
    );
}

#[test]
fn verify_refuted_json_matches_golden() {
    let (got, ok) = run_qz(VERIFY_REFUTED_ARGS);
    assert!(!ok, "a refuted property must exit nonzero");
    let want = include_str!("golden/verify_refuted_schema.json");
    assert_eq!(
        got.trim_end(),
        want.trim_end(),
        "verify JSON drifted — re-baseline tests/golden/verify_refuted_schema.json if \
         intentional:\n{got}"
    );
}

/// Structural guarantees the goldens rely on, stated explicitly so a
/// re-baseline can't silently drop a contract field.
#[test]
fn schema_keys_are_present() {
    let (check, _) = run_qz(CHECK_ARGS);
    for key in ["\"system\":", "\"device\":", "\"report\":", "\"sources\":"] {
        assert!(check.contains(key), "check JSON lost {key}: {check}");
    }
    let (verify, _) = run_qz(VERIFY_REFUTED_ARGS);
    for key in [
        "\"tool\":\"qz-verify\"",
        "\"verdicts\":",
        "\"overflow\":",
        "\"stall\":",
        "\"verdict\":\"REFUTED\"",
        "\"mode\":\"floor\"",
        "\"repro\":\"qz run ",
        "\"segment_secs\":",
        "\"sources\":[\"preflight\"]",
        "\"sources\":[\"verify\"]",
    ] {
        assert!(verify.contains(key), "verify JSON lost {key}: {verify}");
    }
}

/// The repro line a refutation prints must parse back through the CLI
/// (`qz run --solar …`) and reproduce the violation it names.
#[test]
fn refutation_repro_line_round_trips() {
    let (verify, _) = run_qz(VERIFY_REFUTED_ARGS);
    let repro = verify
        .split("\"repro\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("refuted verdict carries a repro line");
    let args: Vec<&str> = repro.split_whitespace().skip(1).collect();
    let (out, ok) = run_qz(&args);
    assert!(ok, "repro line failed to run: {repro}");
    let ibo: u64 = out
        .split(" IBO,")
        .next()
        .and_then(|head| head.rsplit('(').next())
        .and_then(|n| n.trim().parse().ok())
        .expect("metrics line reports IBO discards");
    assert!(ibo > 0, "repro run showed no overflow: {out}");
}

/// `qz profile --json` carries the energy kernel's seven work counts
/// next to the phase table and the horizon ranking.
#[test]
fn profile_json_carries_the_kernel_counts() {
    let (out, ok) = run_qz(&["profile", "--events", "5", "--json", "-"]);
    assert!(ok, "qz profile failed: {out}");
    let doc = out
        .lines()
        .find(|l| l.starts_with("{\"tool\":\"qz-prof\""))
        .expect("profile JSON on stdout");
    let doc = qz_types::json::Json::parse(doc).expect("profile JSON parses");
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["tool", "repro", "wall_ns", "profile", "horizon", "kernel"]
    );
    let kernel = doc.get("kernel").unwrap();
    let kernel_keys: Vec<&str> = kernel
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        kernel_keys,
        [
            "calls",
            "ticks",
            "strides",
            "bisections",
            "stop_only_bisections",
            "crossings",
            "repeat_adds"
        ]
    );
    assert!(kernel.get("calls").and_then(qz_types::json::Json::as_f64) > Some(0.0));
}

/// `qz verify --json` quotes its seed, so a seed above 2^53 reads back
/// exactly through an `f64`-based reader such as `qz_types::json`.
#[test]
fn verify_seed_reads_back_exactly() {
    use qz_types::json::Json;
    let (out, _) = run_qz(&[
        "verify",
        "--system",
        "QZ",
        "--device",
        "apollo4",
        "--env",
        "quiet",
        "--events",
        "4",
        "--seed",
        "0xFFFFFFFFFFFFFFF1",
        "--json",
        "-",
    ]);
    let doc = Json::parse(&out).expect("verify JSON parses");
    let seed = doc
        .get("configs")
        .and_then(Json::as_arr)
        .and_then(|configs| configs.first())
        .and_then(|config| config.get("seed"))
        .and_then(Json::as_str);
    assert_eq!(seed, Some("18446744073709551601"), "{out}");
}

/// A horizon cause that ended no bulk span has no median span: the
/// ranking prints `-` for it and the JSON omits `median_span`. On a
/// crowded scene the busy scheduler only ever forces reference ticks.
#[test]
fn profile_json_omits_the_median_of_causes_without_spans() {
    use qz_types::json::Json;
    let (out, ok) = run_qz(&[
        "profile", "--env", "crowded", "--events", "40", "--json", "-",
    ]);
    assert!(ok, "qz profile failed: {out}");
    let doc = out
        .lines()
        .find(|l| l.starts_with("{\"tool\":\"qz-prof\""))
        .expect("profile JSON on stdout");
    let doc = Json::parse(doc).expect("profile JSON parses");
    let causes = doc
        .get("horizon")
        .and_then(|h| h.get("horizon_causes"))
        .and_then(Json::as_arr)
        .expect("horizon causes");
    let mut busy_seen = false;
    for cause in causes {
        let label = cause.get("cause").and_then(Json::as_str).unwrap();
        let spans = cause.get("spans").and_then(Json::as_f64).unwrap();
        busy_seen |= label == "busy-scheduler";
        assert_eq!(
            cause.get("median_span").is_some(),
            spans > 0.0,
            "{label}: median_span must appear exactly when spans ended"
        );
    }
    assert!(busy_seen, "no busy-scheduler row: {out}");
}

/// Every JSON document the CLI writes is well formed: the check, verify
/// and lint reports on stdout, and the fleet, fault, profile, flight
/// and event-log files.
#[test]
fn every_json_output_parses() {
    use qz_types::json::Json;
    let parses = |what: &str, text: &str| {
        if let Err(e) = Json::parse(text) {
            panic!("{what} is not JSON ({e}):\n{text}");
        }
    };
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for args in [
        CHECK_ARGS,
        VERIFY_REFUTED_ARGS,
        &["lint-src", "--root", root, "--json", "-"],
    ] {
        parses(args[0], &run_qz(args).0);
    }
    let dir = std::env::temp_dir().join(format!("qz_cli_json_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (fleet, fault, profile, flight, events) = (
        file("fleet.json"),
        file("fault.json"),
        file("profile.json"),
        file("flight.json"),
        file("events.jsonl"),
    );
    for args in [
        &["fleet", "--devices", "3", "--events", "4", "--json", &fleet][..],
        &[
            "fault",
            "--preset",
            "smoke",
            "--events",
            "4",
            "--campaigns",
            "2",
            "--json",
            &fault,
        ],
        &[
            "profile", "--events", "5", "--json", &profile, "--flight", &flight,
        ],
        &["trace", "--events", "8", "--snapshots", "--jsonl", &events],
    ] {
        assert!(run_qz(args).1, "qz {args:?} failed");
    }
    for path in [&fleet, &fault, &profile, &flight] {
        parses(path, &std::fs::read_to_string(path).unwrap());
    }
    let lines = std::fs::read_to_string(&events).unwrap();
    assert!(lines.lines().count() > 10);
    for line in lines.lines() {
        parses("an event line", line);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
