//! The shared JSON reader on real and hostile input: every committed
//! document parses, the reader stays linear on long strings, and no
//! byte soup or single-byte corruption of a real document can make it
//! panic.

use proptest::prelude::*;
use qz_types::json::Json;
use std::path::PathBuf;
use std::time::Instant;

/// Every committed JSON document: bench trajectories and baselines,
/// and the golden CLI/flight outputs.
fn committed_documents() -> Vec<(PathBuf, String)> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut docs = Vec::new();
    for dir in ["results", "tests/golden"] {
        let entries = std::fs::read_dir(root.join(dir)).expect("committed directory");
        let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("dir entry").path()).collect();
        paths.sort();
        for path in paths {
            if path.extension().is_some_and(|x| x == "json") {
                let text = std::fs::read_to_string(&path).expect("readable document");
                docs.push((path, text));
            }
        }
    }
    docs
}

#[test]
fn every_committed_document_parses() {
    let docs = committed_documents();
    assert!(docs.len() >= 9, "found only {} documents", docs.len());
    for (path, text) in &docs {
        if let Err(e) = Json::parse(text) {
            panic!("{}: {e}", path.display());
        }
    }
}

#[test]
fn long_strings_parse_in_linear_time() {
    // 4 MiB of mixed ASCII, multi-byte and escaped text. A reader that
    // re-validates the rest of the document per character needs
    // minutes here.
    let unit = "abcdé\\n\\\"xyz😀 ";
    let body = unit.repeat((4 << 20) / unit.len());
    let doc = format!("{{\"s\":\"{body}\"}}");
    #[expect(
        clippy::disallowed_methods,
        reason = "the test bounds the parser's host wall time"
    )]
    let started = Instant::now();
    let parsed = Json::parse(&doc).expect("long string parses");
    let elapsed = started.elapsed();
    let s = parsed
        .get("s")
        .and_then(Json::as_str)
        .expect("string field");
    assert!(s.starts_with("abcdé\n\"xyz😀 "));
    assert!(elapsed.as_secs_f64() < 1.0, "4 MiB string took {elapsed:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let alphabet = b"{}[]\",:\\ -+.0123456789eEtrufalsn\x01u";
        let text: String = bytes
            .iter()
            .map(|&b| char::from(alphabet[usize::from(b) % alphabet.len()]))
            .collect();
        let _ = Json::parse(&text);
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn single_byte_mutations_of_real_documents_never_panic(
        pick in 0usize..1000,
        at in 0usize..1_000_000,
        byte in any::<u8>(),
    ) {
        let docs = committed_documents();
        let mut bytes = docs[pick % docs.len()].1.clone().into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }
}
