//! Append-only, schema-versioned bench trajectories and the baseline
//! regression check behind `qz bench --check`.
//!
//! `results/BENCH_*.json` used to be overwritten in place, so a
//! regression simply replaced the evidence. A [`Trajectory`] instead
//! accumulates one [`TrajectoryRecord`] per bench run (run id, git
//! revision, case results); [`Baseline`] holds committed floors, and
//! [`check`](Baseline::check) compares the *newest* record against
//! them within a tolerance — nonzero exit on regression is the CI
//! gate.
//!
//! Files are read and written through the workspace's one JSON codec,
//! [`qz_types::json`]. The legacy single-record `sim_throughput`
//! shape parses too and is converted to run 0 (`git_rev`
//! `"pre-trajectory"`).

use qz_types::json::{Json, Writer};
use std::path::Path;

/// Schema tag of a trajectory file.
pub const TRAJECTORY_SCHEMA: &str = "qz-bench-trajectory/v1";

/// Schema tag of a baseline file.
pub const BASELINE_SCHEMA: &str = "qz-bench-baseline/v1";

// ---------------------------------------------------------------------
// Trajectory
// ---------------------------------------------------------------------

/// One case's results inside a record: a name plus named numeric
/// values (always including the gated metric, e.g. `speedup`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCase {
    /// Case name (e.g. the environment: `Quiet`, `Crowded`).
    pub name: String,
    /// `(metric, value)` pairs in stable order.
    pub values: Vec<(String, f64)>,
}

impl BenchCase {
    /// Reads one metric by name.
    pub fn value(&self, metric: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(k, _)| k == metric)
            .map(|(_, v)| *v)
    }
}

/// One bench run appended to the trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryRecord {
    /// Monotonic run id (0 is the migrated pre-trajectory record).
    pub run: u64,
    /// `git rev-parse --short HEAD` at bench time, or `"unknown"`.
    pub git_rev: String,
    /// Per-case results.
    pub cases: Vec<BenchCase>,
}

impl TrajectoryRecord {
    /// The named case, if present.
    pub fn case(&self, name: &str) -> Option<&BenchCase> {
        self.cases.iter().find(|c| c.name == name)
    }
}

/// An append-only bench result log.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Which bench produced it (e.g. `sim_throughput`).
    pub bench: String,
    /// All records, oldest first.
    pub records: Vec<TrajectoryRecord>,
}

/// Formats an f64 compactly and round-trippably for these files.
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return String::from("null");
    }
    #[allow(clippy::float_cmp)] // exact truncation test, not a tolerance check
    let is_integral = v == v.trunc();
    if is_integral && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

impl Trajectory {
    /// An empty trajectory for `bench`.
    pub fn new(bench: &str) -> Trajectory {
        Trajectory {
            bench: bench.to_owned(),
            records: Vec::new(),
        }
    }

    /// The most recent record.
    pub fn newest(&self) -> Option<&TrajectoryRecord> {
        self.records.last()
    }

    /// Parses a trajectory file. Accepts the v1 schema and the legacy
    /// single-record `{"bench":...,"cases":[{"env":...}]}` shape,
    /// which converts to a single run-0 record.
    ///
    /// # Errors
    ///
    /// A message describing the malformed construct.
    pub fn parse(text: &str) -> Result<Trajectory, String> {
        let doc = Json::parse(text)?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(TRAJECTORY_SCHEMA) => {}
            Some(other) => return Err(format!("unsupported trajectory schema '{other}'")),
            // Legacy overwrite-in-place shape: no schema tag.
            None => return Self::parse_legacy(&doc),
        }
        let bench = doc
            .get("bench")
            .and_then(Json::as_str)
            .ok_or("trajectory missing 'bench'")?
            .to_owned();
        let mut records = Vec::new();
        for rec in doc
            .get("records")
            .and_then(Json::as_arr)
            .ok_or("trajectory missing 'records'")?
        {
            let run = rec
                .get("run")
                .and_then(Json::as_f64)
                .ok_or("record missing 'run'")?;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let run = run.max(0.0) as u64;
            let git_rev = rec
                .get("git_rev")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_owned();
            records.push(TrajectoryRecord {
                run,
                git_rev,
                cases: parse_cases(rec.get("cases"), "case")?,
            });
        }
        Ok(Trajectory { bench, records })
    }

    fn parse_legacy(doc: &Json) -> Result<Trajectory, String> {
        let bench = doc
            .get("bench")
            .and_then(Json::as_str)
            .ok_or("legacy record missing 'bench'")?
            .to_owned();
        let cases = parse_cases(doc.get("cases"), "env")?;
        Ok(Trajectory {
            bench,
            records: vec![TrajectoryRecord {
                run: 0,
                git_rev: String::from("pre-trajectory"),
                cases,
            }],
        })
    }

    /// Renders the full file: schema tag first, one record per line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        Writer::new(&mut out).obj(|w| {
            w.field("schema", TRAJECTORY_SCHEMA)
                .field("bench", &self.bench)
                .key("records")
                .arr(|w| {
                    for rec in &self.records {
                        w.line_break(2).obj(|w| {
                            w.field("run", rec.run)
                                .field("git_rev", &rec.git_rev)
                                .key("cases")
                                .arr(|w| {
                                    for case in &rec.cases {
                                        w.obj(|w| {
                                            w.field("case", &case.name);
                                            for (k, v) in &case.values {
                                                w.key(k).raw(&fmt_f64(*v));
                                            }
                                        });
                                    }
                                });
                        });
                    }
                    w.line_break(0);
                });
        });
        out.push('\n');
        out
    }

    /// Loads a trajectory from disk; `Ok(None)` when the file does not
    /// exist.
    ///
    /// # Errors
    ///
    /// I/O errors other than not-found, and parse errors.
    pub fn load(path: &Path) -> Result<Option<Trajectory>, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        Trajectory::parse(&text)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Appends one run to the trajectory at `path` (creating or
    /// migrating the file as needed) and writes it back. Returns the
    /// new record's run id.
    ///
    /// # Errors
    ///
    /// Propagates load/parse errors and the final write error.
    pub fn append_run(
        path: &Path,
        bench: &str,
        git_rev: &str,
        cases: Vec<BenchCase>,
    ) -> Result<u64, String> {
        let mut trajectory = Trajectory::load(path)?.unwrap_or_else(|| Trajectory::new(bench));
        let run = trajectory
            .records
            .iter()
            .map(|r| r.run)
            .max()
            .map_or(0, |m| m + 1);
        trajectory.records.push(TrajectoryRecord {
            run,
            git_rev: git_rev.to_owned(),
            cases,
        });
        std::fs::write(path, trajectory.to_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(run)
    }
}

fn parse_cases(cases: Option<&Json>, name_key: &str) -> Result<Vec<BenchCase>, String> {
    let mut out = Vec::new();
    for case in cases.and_then(Json::as_arr).ok_or("missing 'cases'")? {
        let fields = case.as_obj().ok_or("case is not an object")?;
        let name = case
            .get(name_key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("case missing '{name_key}'"))?
            .to_owned();
        let values = fields
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
            .collect();
        out.push(BenchCase { name, values });
    }
    Ok(out)
}

/// `git rev-parse --short HEAD` in `dir`, `"unknown"` when git or the
/// repository is unavailable — bench trajectories must not fail on a
/// bare tarball.
pub fn git_rev(dir: &Path) -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| String::from("unknown"))
}

// ---------------------------------------------------------------------
// Baseline check
// ---------------------------------------------------------------------

/// One committed floor: `metric` of `case` in `bench`'s newest record
/// must stay ≥ `min × (1 − tolerance)`.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineCheck {
    /// Trajectory bench name (`sim_throughput`, `fleet_throughput`).
    pub bench: String,
    /// Case name inside the record.
    pub case: String,
    /// Metric inside the case (usually `speedup`).
    pub metric: String,
    /// The committed floor.
    pub min: f64,
}

/// The committed baseline: a tolerance plus per-case floors.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Fractional slack applied to every floor (e.g. 0.1 = 10%).
    pub tolerance: f64,
    /// The floors.
    pub checks: Vec<BaselineCheck>,
}

/// The outcome of a baseline check, ready to print.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// One human-readable line per check.
    pub lines: Vec<String>,
    /// How many checks failed (0 = gate passes).
    pub failures: usize,
}

impl Baseline {
    /// Parses a baseline file.
    ///
    /// # Errors
    ///
    /// A message describing the malformed construct.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = Json::parse(text)?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(BASELINE_SCHEMA) => {}
            other => return Err(format!("unsupported baseline schema {other:?}")),
        }
        let tolerance = doc
            .get("tolerance")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            .clamp(0.0, 0.99);
        let mut checks = Vec::new();
        for check in doc
            .get("checks")
            .and_then(Json::as_arr)
            .ok_or("baseline missing 'checks'")?
        {
            let field = |key: &str| -> Result<String, String> {
                check
                    .get(key)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("baseline check missing '{key}'"))
            };
            checks.push(BaselineCheck {
                bench: field("bench")?,
                case: field("case")?,
                metric: field("metric")?,
                min: check
                    .get("min")
                    .and_then(Json::as_f64)
                    .ok_or("baseline check missing 'min'")?,
            });
        }
        Ok(Baseline { tolerance, checks })
    }

    /// Loads a baseline file.
    ///
    /// # Errors
    ///
    /// I/O and parse errors, with the path prefixed.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Evaluates every floor against the newest record of the matching
    /// trajectory. `lookup` maps a bench name to its loaded trajectory
    /// (`None` when the file is absent — that is a failure: a missing
    /// trajectory must not silently pass the gate).
    pub fn check<F>(&self, lookup: F) -> CheckOutcome
    where
        F: Fn(&str) -> Option<Trajectory>,
    {
        let mut lines = Vec::new();
        let mut failures = 0;
        for c in &self.checks {
            let floor = c.min * (1.0 - self.tolerance);
            let value = lookup(&c.bench)
                .as_ref()
                .and_then(Trajectory::newest)
                .and_then(|r| r.case(&c.case))
                .and_then(|case| case.value(&c.metric));
            match value {
                Some(v) if v >= floor => lines.push(format!(
                    "PASS {}/{} {} = {:.3} (floor {:.3}, baseline {:.3})",
                    c.bench, c.case, c.metric, v, floor, c.min
                )),
                Some(v) => {
                    failures += 1;
                    lines.push(format!(
                        "FAIL {}/{} {} = {:.3} below floor {:.3} (baseline {:.3})",
                        c.bench, c.case, c.metric, v, floor, c.min
                    ));
                }
                None => {
                    failures += 1;
                    lines.push(format!(
                        "FAIL {}/{} {}: no trajectory record to check",
                        c.bench, c.case, c.metric
                    ));
                }
            }
        }
        CheckOutcome { lines, failures }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const LEGACY: &str = r#"{"bench":"sim_throughput","system":"QZ","cases":[
      {"env":"Quiet","events":120,"sim_ticks":2555399941,"speedup":18.265},
      {"env":"Crowded","events":120,"sim_ticks":4767600,"speedup":2.977}]}"#;

    #[test]
    fn json_reader_handles_the_usual_shapes() {
        let doc =
            Json::parse(r#"{"a": [1, -2.5, 1e3], "b": {"c": "x\ny A"}, "d": true, "e": null}"#)
                .unwrap();
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(1000.0)
        );
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\ny A")
        );
        assert_eq!(doc.get("d"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("e"), Some(&Json::Null));
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2] trailing").is_err());
    }

    #[test]
    fn legacy_single_record_migrates_to_run_zero() {
        let t = Trajectory::parse(LEGACY).unwrap();
        assert_eq!(t.bench, "sim_throughput");
        assert_eq!(t.records.len(), 1);
        let rec = t.newest().unwrap();
        assert_eq!(rec.run, 0);
        assert_eq!(rec.git_rev, "pre-trajectory");
        assert_eq!(rec.case("Quiet").unwrap().value("speedup"), Some(18.265));
        assert_eq!(rec.case("Crowded").unwrap().value("speedup"), Some(2.977));
    }

    #[test]
    fn trajectory_round_trips_and_appends() {
        let dir = std::env::temp_dir().join("qz_prof_trajectory_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let _ = std::fs::remove_file(&path);

        // Seed the file with the legacy shape, then append: migration
        // keeps the old record as run 0 and the new one becomes run 1.
        std::fs::write(&path, LEGACY).unwrap();
        let cases = vec![BenchCase {
            name: String::from("Quiet"),
            values: vec![(String::from("speedup"), 19.5)],
        }];
        let run = Trajectory::append_run(&path, "sim_throughput", "abc1234", cases).unwrap();
        assert_eq!(run, 1);

        let t = Trajectory::load(&path).unwrap().unwrap();
        assert_eq!(t.records.len(), 2);
        assert_eq!(t.newest().unwrap().git_rev, "abc1234");
        assert_eq!(
            t.newest().unwrap().case("Quiet").unwrap().value("speedup"),
            Some(19.5)
        );

        // Round trip: write → load → identical structure.
        let reparsed = Trajectory::parse(&t.to_json()).unwrap();
        assert_eq!(reparsed, t);

        // Appending again increments the run id.
        let run = Trajectory::append_run(
            &path,
            "sim_throughput",
            "def5678",
            vec![BenchCase {
                name: String::from("Quiet"),
                values: vec![(String::from("speedup"), 20.0)],
            }],
        )
        .unwrap();
        assert_eq!(run, 2);
    }

    #[test]
    fn committed_trajectories_re_render_byte_identically() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                let name = p.file_name().unwrap().to_string_lossy();
                name.starts_with("BENCH_")
                    && name.ends_with(".json")
                    && name != "BENCH_baseline.json"
            })
            .collect();
        paths.sort();
        assert!(paths.len() >= 3, "trajectories found: {paths:?}");
        for path in paths {
            let text = std::fs::read_to_string(&path).unwrap();
            let t = Trajectory::parse(&text).unwrap();
            assert!(
                t.to_json() == text,
                "{} re-renders differently",
                path.display()
            );
        }
    }

    #[test]
    fn names_and_revisions_are_escaped_and_round_trip() {
        let t = Trajectory {
            bench: String::from("be\\nch"),
            records: vec![TrajectoryRecord {
                run: 3,
                git_rev: String::from("a\"b"),
                cases: vec![BenchCase {
                    name: String::from("Cr\"owded"),
                    values: vec![(String::from("x\"y"), 1.5)],
                }],
            }],
        };
        let text = t.to_json();
        assert!(text.contains(r#""git_rev":"a\"b""#), "{text}");
        assert_eq!(Trajectory::parse(&text).unwrap(), t);

        // The file an append writes must load for the next append.
        let path = std::env::temp_dir().join("qz_prof_trajectory_escape_test.json");
        let _ = std::fs::remove_file(&path);
        for want in 0..2 {
            let run = Trajectory::append_run(&path, "sim_throughput", "a\"b", Vec::new());
            assert_eq!(run, Ok(want));
        }
    }

    fn baseline() -> Baseline {
        Baseline::parse(
            r#"{"schema":"qz-bench-baseline/v1","tolerance":0.1,"checks":[
              {"bench":"sim_throughput","case":"Quiet","metric":"speedup","min":3.0},
              {"bench":"sim_throughput","case":"Crowded","metric":"speedup","min":1.5}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn baseline_check_passes_above_floor_and_fails_below() {
        let t = Trajectory::parse(LEGACY).unwrap();
        let outcome = baseline().check(|name| (name == "sim_throughput").then(|| t.clone()));
        assert_eq!(outcome.failures, 0, "{:?}", outcome.lines);
        assert!(outcome.lines.iter().all(|l| l.starts_with("PASS")));

        // A regressed Crowded speedup fails the gate.
        let mut slow = t.clone();
        slow.records.push(TrajectoryRecord {
            run: 1,
            git_rev: String::from("bad"),
            cases: vec![
                BenchCase {
                    name: String::from("Quiet"),
                    values: vec![(String::from("speedup"), 10.0)],
                },
                BenchCase {
                    name: String::from("Crowded"),
                    values: vec![(String::from("speedup"), 1.2)],
                },
            ],
        });
        let outcome = baseline().check(|name| (name == "sim_throughput").then(|| slow.clone()));
        assert_eq!(outcome.failures, 1);
        assert!(outcome
            .lines
            .iter()
            .any(|l| l.contains("FAIL") && l.contains("Crowded")));

        // Tolerance: 1.4 ≥ 1.5 × 0.9 = 1.35 still passes.
        slow.records.last_mut().unwrap().cases[1].values[0].1 = 1.4;
        let outcome = baseline().check(|name| (name == "sim_throughput").then(|| slow.clone()));
        assert_eq!(outcome.failures, 0, "{:?}", outcome.lines);
    }

    #[test]
    fn missing_trajectory_is_a_failure_not_a_pass() {
        let outcome = baseline().check(|_| None);
        assert_eq!(outcome.failures, 2);
        assert!(outcome.lines[0].contains("no trajectory record"));
    }

    #[test]
    fn unknown_schemas_are_rejected() {
        assert!(Trajectory::parse(
            r#"{"schema":"qz-bench-trajectory/v9","bench":"x","records":[]}"#
        )
        .is_err());
        assert!(Baseline::parse(r#"{"schema":"nope","checks":[]}"#).is_err());
    }

    #[test]
    fn git_rev_reports_unknown_outside_a_repo() {
        let dir = std::env::temp_dir().join("qz_prof_no_repo_here");
        std::fs::create_dir_all(&dir).unwrap();
        // Either a real rev (if a parent repo swallows it) or unknown —
        // but never empty and never a panic.
        let rev = git_rev(&dir);
        assert!(!rev.is_empty());
    }

    /// The committed trajectories and the baseline, read once.
    fn committed_documents() -> &'static [(String, bool)] {
        static DOCS: std::sync::OnceLock<Vec<(String, bool)>> = std::sync::OnceLock::new();
        DOCS.get_or_init(|| {
            let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
            let mut paths: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| {
                    let name = p.file_name().unwrap().to_string_lossy();
                    name.starts_with("BENCH_") && name.ends_with(".json")
                })
                .collect();
            paths.sort();
            paths
                .into_iter()
                .map(|p| {
                    let is_baseline = p.ends_with("BENCH_baseline.json");
                    (std::fs::read_to_string(&p).unwrap(), is_baseline)
                })
                .collect()
        })
    }

    /// Feeds a corrupted copy to its decoder, and anything that decodes
    /// on to the code that reads a decoded file (`to_json`, `check`).
    fn decode(bytes: &[u8], is_baseline: bool) {
        let text = String::from_utf8_lossy(bytes);
        if is_baseline {
            if let Ok(b) = Baseline::parse(&text) {
                let _ = b.check(|bench| {
                    committed_documents()
                        .iter()
                        .filter(|(_, is_baseline)| !is_baseline)
                        .filter_map(|(t, _)| Trajectory::parse(t).ok())
                        .find(|t| t.bench == bench)
                });
            }
        } else if let Ok(t) = Trajectory::parse(&text) {
            let _ = t.to_json();
            let _ = t.newest().map(|r| r.case("Quiet"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]
        /// `Trajectory::parse` and `Baseline::parse` return a value or
        /// an error, never a panic, on corrupted copies of the
        /// committed files: truncated, with a run of digits spliced in
        /// (huge, long or malformed numbers), or with one byte deleted
        /// or duplicated.
        #[test]
        fn decoders_are_total_on_corrupted_committed_files(
            doc in 0usize..16,
            at in 0usize..100_000,
            digits in proptest::collection::vec(0u8..12, 1..40),
            cut in 0usize..100_000,
        ) {
            let docs = committed_documents();
            let (text, is_baseline) = &docs[doc % docs.len()];
            let bytes = text.as_bytes();
            let at = at % bytes.len();
            // Digits, with '.', '-', 'e' standing in for 10 and 11 so
            // the splice can also form exponents and signs.
            let splice: Vec<u8> = digits
                .iter()
                .map(|&d| match d {
                    10 => b'e',
                    11 => [b'.', b'-'][at % 2],
                    d => b'0' + d,
                })
                .collect();
            decode(&bytes[..cut % bytes.len()], *is_baseline);
            decode(&[&bytes[..at], &splice[..], &bytes[at..]].concat(), *is_baseline);
            decode(&[&bytes[..at], &bytes[at + 1..]].concat(), *is_baseline);
            decode(&[&bytes[..=at], &bytes[at..]].concat(), *is_baseline);
        }
    }
}
