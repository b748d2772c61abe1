//! The one timer the trajectory benches share. Each bench times a fast
//! path against its reference oracle ([`timed_pair`]), which asserts
//! both produced the same output before any speedup exists, then
//! appends one record to `results/BENCH_<bench>.json`
//! ([`append_trajectory`]; `qz bench --check` gates on the newest
//! record). Timing is best of `reps` wall-clock runs.

use qz_prof::BenchCase;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Best-of-`reps` wall-clock seconds of `f`, with the last rep's output.
pub fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut output = None;
    for _ in 0..reps {
        #[expect(
            clippy::disallowed_methods,
            reason = "the bench timer measures host wall time; never simulation state"
        )]
        let start = Instant::now();
        let out = f();
        best = best.min(start.elapsed().as_secs_f64());
        output = Some(black_box(out));
    }
    (best, output.expect("reps > 0"))
}

/// Best-of-`reps` times of a reference oracle and the fast path it
/// checks.
pub struct Pair {
    /// Reference oracle's best time, seconds.
    pub oracle_secs: f64,
    /// Fast path's best time, seconds.
    pub fast_secs: f64,
}

impl Pair {
    /// Oracle time over fast-path time.
    pub fn speedup(&self) -> f64 {
        self.oracle_secs / self.fast_secs.max(f64::MIN_POSITIVE)
    }
}

/// Times `oracle` then `fast` (best of `reps` each) and asserts their
/// outputs are equal, so a speedup can never come from divergence;
/// returns the times and the shared output. `what` names the two paths
/// in the failure message.
pub fn timed_pair<T: PartialEq>(
    reps: usize,
    what: &str,
    oracle: impl FnMut() -> T,
    fast: impl FnMut() -> T,
) -> (Pair, T) {
    let (oracle_secs, expected) = best_of(reps, oracle);
    let (fast_secs, output) = best_of(reps, fast);
    assert!(
        expected == output,
        "{what} diverged — a speedup number would be meaningless"
    );
    (
        Pair {
            oracle_secs,
            fast_secs,
        },
        output,
    )
}

/// One trajectory case: `name` plus `(metric, value)` pairs in order.
pub fn case(name: &str, values: &[(&str, f64)]) -> BenchCase {
    BenchCase {
        name: name.to_owned(),
        values: values.iter().map(|&(k, v)| (k.to_owned(), v)).collect(),
    }
}

/// Counter values stored as f64 in the trajectory; the counts here fit
/// f64's 53-bit mantissa comfortably.
#[allow(clippy::cast_precision_loss)]
pub fn as_metric(v: impl TryInto<u64>) -> f64 {
    v.try_into().unwrap_or(u64::MAX) as f64
}

/// Appends one record of `cases` to `results/BENCH_<bench>.json`,
/// stamped with the current git revision.
pub fn append_trajectory(bench: &str, cases: Vec<BenchCase>) {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = repo.join(format!("results/BENCH_{bench}.json"));
    let run = qz_prof::Trajectory::append_run(&path, bench, &qz_prof::git_rev(&repo), cases)
        .unwrap_or_else(|e| panic!("append {}: {e}", path.display()));
    println!("appended run {run} to {}", path.display());
}
