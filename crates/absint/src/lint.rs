//! Workspace determinism source lint (`qz lint-src`).
//!
//! The simulator's reproducibility contract — same seed, same bytes —
//! only holds while no sim-facing crate sneaks in a source of
//! nondeterminism. This module walks crate sources (comments and
//! string literals stripped) for the hazard patterns that have bitten
//! similar codebases: hash collections with randomized iteration
//! order, wall-clock reads, thread identity, and parallel-iterator
//! reductions with unordered combining.
//!
//! Findings are suppressed by an allowlist file of
//! `path-substring:pattern` lines (empty pattern = any), so deliberate
//! uses (a wall-clock profiler, a host-side dedup set) stay documented
//! in one place.

use std::fs;
use std::path::{Path, PathBuf};

/// Hazard patterns searched for, with a short rationale each.
pub const PATTERNS: &[(&str, &str)] = &[
    ("HashMap", "iteration order is randomized per process"),
    ("HashSet", "iteration order is randomized per process"),
    ("RandomState", "per-process random hasher seed"),
    ("Instant::now", "wall-clock read"),
    ("SystemTime", "wall-clock read"),
    ("thread::current", "thread identity is scheduling-dependent"),
    ("par_iter", "parallel reduction order is nondeterministic"),
    (
        "into_par_iter",
        "parallel reduction order is nondeterministic",
    ),
    ("rayon", "parallel reduction order is nondeterministic"),
];

/// One hazard occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The matched pattern.
    pub pattern: &'static str,
    /// Why the pattern is a hazard.
    pub rationale: &'static str,
}

/// Parsed allowlist: `path-substring:pattern` entries.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    entries: Vec<(String, String)>,
}

impl Allowlist {
    /// Parses allowlist text: one `path-substring:pattern` per line,
    /// `#` comments, blank lines ignored. An empty pattern allows every
    /// pattern under the path substring.
    ///
    /// # Errors
    ///
    /// An entry with an empty path substring (`:HashSet`) would match
    /// every file in the workspace, so it is rejected with a message
    /// naming its 1-based line.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (path, pattern) = match line.split_once(':') {
                Some((p, pat)) => (p.trim(), pat.trim()),
                None => (line, ""),
            };
            if path.is_empty() {
                return Err(format!(
                    "line {}: `{}` has an empty path substring, which would allow it in every file",
                    idx + 1,
                    raw.trim()
                ));
            }
            entries.push((path.to_string(), pattern.to_string()));
        }
        Ok(Allowlist { entries })
    }

    /// Loads an allowlist file.
    ///
    /// # Errors
    ///
    /// An unreadable file (a mistyped path, say) or an
    /// [`Allowlist::parse`] error, prefixed with `path`.
    pub fn load(path: &Path) -> Result<Allowlist, String> {
        fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Allowlist::parse(&text))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// `true` when the finding is covered by an entry.
    pub fn allows(&self, finding: &Finding) -> bool {
        self.entries.iter().any(|(path, pattern)| {
            finding.path.contains(path.as_str())
                && (pattern.is_empty() || pattern == finding.pattern)
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Strips comments and string/char literals from Rust source, keeping
/// line structure (every removed character becomes a space, newlines
/// survive) so findings keep their line numbers.
pub fn strip_code(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match c {
            '/' if i + 1 < b.len() && b[i + 1] == '/' => {
                while i < b.len() && b[i] != '\n' {
                    out.push(' ');
                    i += 1;
                }
            }
            '/' if i + 1 < b.len() && b[i + 1] == '*' => {
                // Block comments nest in Rust.
                let mut depth = 1;
                out.push_str("  ");
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                        depth += 1;
                        out.push_str("  ");
                        i += 2;
                    } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                        depth -= 1;
                        out.push_str("  ");
                        i += 2;
                    } else {
                        out.push(if b[i] == '\n' { '\n' } else { ' ' });
                        i += 1;
                    }
                }
            }
            'r' if i + 1 < b.len() && (b[i + 1] == '"' || b[i + 1] == '#') => {
                // Possible raw string r"..." / r#"..."#.
                let mut j = i + 1;
                let mut hashes = 0;
                while j < b.len() && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == '"' {
                    // Consume through the matching closer.
                    out.push(' '); // the 'r'
                    for _ in 0..hashes + 1 {
                        out.push(' ');
                    }
                    i = j + 1;
                    'raw: while i < b.len() {
                        if b[i] == '"' {
                            let mut k = i + 1;
                            let mut seen = 0;
                            while k < b.len() && seen < hashes && b[k] == '#' {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                for _ in i..k {
                                    out.push(' ');
                                }
                                i = k;
                                break 'raw;
                            }
                        }
                        out.push(if b[i] == '\n' { '\n' } else { ' ' });
                        i += 1;
                    }
                } else {
                    out.push('r');
                    i += 1;
                }
            }
            '"' => {
                out.push(' ');
                i += 1;
                while i < b.len() {
                    if b[i] == '\\' && i + 1 < b.len() {
                        out.push_str("  ");
                        i += 2;
                        continue;
                    }
                    let done = b[i] == '"';
                    out.push(if b[i] == '\n' { '\n' } else { ' ' });
                    i += 1;
                    if done {
                        break;
                    }
                }
            }
            '\'' => {
                // Char literal vs lifetime: a literal is 'x' or '\...'.
                let is_char = if i + 1 < b.len() && b[i + 1] == '\\' {
                    true
                } else {
                    i + 2 < b.len() && b[i + 2] == '\''
                };
                if is_char {
                    out.push(' ');
                    i += 1;
                    while i < b.len() {
                        if b[i] == '\\' && i + 1 < b.len() {
                            out.push_str("  ");
                            i += 2;
                            continue;
                        }
                        let done = b[i] == '\'';
                        out.push(' ');
                        i += 1;
                        if done {
                            break;
                        }
                    }
                } else {
                    out.push('\'');
                    i += 1;
                }
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Scans one stripped source line for hazard patterns.
fn scan_line(line: &str, path: &str, lineno: usize, out: &mut Vec<Finding>) {
    for &(pattern, rationale) in PATTERNS {
        let mut from = 0;
        while let Some(pos) = line[from..].find(pattern) {
            let at = from + pos;
            let before_ok = at == 0 || !is_ident(line[..at].chars().next_back().unwrap_or(' '));
            let after = line[at + pattern.len()..].chars().next().unwrap_or(' ');
            // `::` continuation counts as part of the match site (e.g.
            // `HashMap::new`), not as a different identifier.
            if before_ok && !is_ident(after) {
                out.push(Finding {
                    path: path.to_string(),
                    line: lineno,
                    pattern,
                    rationale,
                });
            }
            from = at + pattern.len();
        }
    }
}

fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    // Deterministic walk order: the lint's own output must not depend
    // on directory-entry order.
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rust_files_under(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Scans every `crates/*/src` tree under `root` and returns findings
/// not covered by the allowlist, in deterministic (path, line) order.
pub fn scan_workspace(root: &Path, allow: &Allowlist) -> Vec<Finding> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    let Ok(entries) = fs::read_dir(&crates_dir) else {
        return Vec::new();
    };
    let mut crate_dirs: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    crate_dirs.sort();
    for c in crate_dirs {
        rust_files_under(&c.join("src"), &mut files);
    }
    let mut findings = Vec::new();
    for file in files {
        let Ok(src) = fs::read_to_string(&file) else {
            continue;
        };
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let stripped = strip_code(&src);
        for (idx, line) in stripped.lines().enumerate() {
            scan_line(line, &rel, idx + 1, &mut findings);
        }
    }
    findings.retain(|f| !allow.allows(f));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_hazards_in_plain_code() {
        let src = "use std::collections::HashMap;\nlet t = Instant::now();\n";
        let mut out = Vec::new();
        for (i, line) in strip_code(src).lines().enumerate() {
            scan_line(line, "x.rs", i + 1, &mut out);
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].pattern, "HashMap");
        assert_eq!(out[0].line, 1);
        assert_eq!(out[1].pattern, "Instant::now");
        assert_eq!(out[1].line, 2);
    }

    #[test]
    fn comments_and_strings_do_not_match() {
        let src =
            "// HashMap here\n/* SystemTime */\nlet s = \"rayon\";\nlet r = r#\"par_iter\"#;\n";
        let mut out = Vec::new();
        for (i, line) in strip_code(src).lines().enumerate() {
            scan_line(line, "x.rs", i + 1, &mut out);
        }
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn word_boundaries_are_respected() {
        let src = "struct MyHashMapLike;\nlet no_rayons = 1;\n";
        let mut out = Vec::new();
        for (i, line) in strip_code(src).lines().enumerate() {
            scan_line(line, "x.rs", i + 1, &mut out);
        }
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn lifetimes_do_not_derail_the_stripper() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'h';\nlet h = HashSet::new();\n";
        let mut out = Vec::new();
        for (i, line) in strip_code(src).lines().enumerate() {
            scan_line(line, "x.rs", i + 1, &mut out);
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].pattern, "HashSet");
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn stripping_preserves_line_numbers() {
        let src = "a\n/* multi\nline\ncomment */\nSystemTime\n";
        let stripped = strip_code(src);
        assert_eq!(stripped.lines().count(), src.lines().count());
        let mut out = Vec::new();
        for (i, line) in stripped.lines().enumerate() {
            scan_line(line, "x.rs", i + 1, &mut out);
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 5);
    }

    #[test]
    fn allowlist_suppresses_by_path_and_pattern() {
        let allow = Allowlist::parse(
            "# deliberate uses\ncheck/src/lib.rs:HashSet\nprof/src: Instant::now\nshim\n",
        )
        .unwrap();
        let f = |path: &str, pattern: &'static str| Finding {
            path: path.to_string(),
            line: 1,
            pattern,
            rationale: "",
        };
        assert!(allow.allows(&f("crates/check/src/lib.rs", "HashSet")));
        assert!(!allow.allows(&f("crates/check/src/lib.rs", "HashMap")));
        assert!(allow.allows(&f("crates/prof/src/wall.rs", "Instant::now")));
        assert!(allow.allows(&f("crates/proptest-shim/src/lib.rs", "rayon")));
        assert!(!allow.allows(&f("crates/sim/src/engine.rs", "HashMap")));
    }

    #[test]
    fn empty_path_entries_are_rejected_with_their_line() {
        for (text, line) in [
            (":HashSet\n", 1),
            (
                "# c\ncheck/src/lib.rs:HashSet\n\n  : Instant::now # stray\n",
                4,
            ),
            (":\n", 1),
        ] {
            let err = Allowlist::parse(text).unwrap_err();
            assert!(err.starts_with(&format!("line {line}:")), "{err}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]
        #[test]
        fn parse_is_total_on_arbitrary_text(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64)
        ) {
            let alphabet = b"ab/.:# \n\tHashSet";
            let text: String = bytes
                .iter()
                .map(|&b| char::from(alphabet[usize::from(b) % alphabet.len()]))
                .collect();
            for input in [text, String::from_utf8_lossy(&bytes).into_owned()] {
                // Any outcome is fine; an accepted list never holds an
                // entry that matches every path.
                if let Ok(allow) = Allowlist::parse(&input) {
                    proptest::prop_assert!(allow.entries.iter().all(|(path, _)| !path.is_empty()));
                }
            }
        }
    }
}
