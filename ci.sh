#!/usr/bin/env bash
# Workspace CI gate: formatting, lints (warnings are errors), and the
# full test suite. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

# Scratch space for the legs below; removed on exit.
work_dir=$(mktemp -d)
trap 'rm -rf "${work_dir}"' EXIT

echo "== cargo clippy (deny warnings) =="
# The pedantic cast/float lints are [workspace.lints.clippy] in
# Cargo.toml; the determinism lint is clippy.toml's disallowed lists.
cargo clippy --workspace --all-targets -- -D warnings

echo "== clippy.toml negative control: the determinism lint fires =="
# A throwaway crate (its own workspace, no dependencies) holding one
# HashMap and one Instant::now must fail clippy under clippy.toml and
# name both, so a config clippy no longer reads fails here instead of
# going quiet.
probe="${work_dir}/lint_probe"
mkdir -p "${probe}/src"
cat > "${probe}/Cargo.toml" <<'EOF'
[package]
name = "lint-probe"
version = "0.0.0"
edition = "2021"

[workspace]
EOF
cat > "${probe}/src/lib.rs" <<'EOF'
pub fn probe() -> usize {
    let mut m = std::collections::HashMap::new();
    m.insert(0u8, std::time::Instant::now());
    m.len()
}
EOF
if probe_out=$(CLIPPY_CONF_DIR="$PWD" cargo clippy --offline \
    --manifest-path "${probe}/Cargo.toml" -- -D warnings 2>&1); then
    echo "clippy.toml did not flag the probe crate" >&2
    exit 1
fi
grep -q 'disallowed type `std::collections::HashMap`' <<< "${probe_out}"
grep -q 'disallowed method `std::time::Instant::now`' <<< "${probe_out}"

echo "== cargo doc (deny rustdoc warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== cargo test =="
cargo test -q

echo "== cargo test: release-checked (optimized + overflow checks) =="
# The energy kernel strides over f64 bit patterns with integer
# arithmetic, which release builds wrap silently: run its crate, the
# simulator and the engine-equivalence suite optimized with overflow
# checks on as well, and the trace crate, whose solar cursor does u64
# second-index and millisecond arithmetic on every read. The fleet crate's suites (including
# fleet_determinism and fleet_scheduler_props) run under it too, since
# the 10^4 and 10^5 fleets only ever run optimized, and so do the fault
# harness and qz-types, whose quiet-horizon search (`run_at_least`,
# `first_true`) and SplitMix64 jumps also do integer math near u64's
# edges. The crates whose emitters stream through qz-types' JSON writer
# (snapshots, event lines, profiler and flight-recorder reports) run
# optimized too, since perfbench encodes snapshots that way, and so does
# the runtime, whose event emission narrows indices into the compact
# event fields and whose witnesses judge every faulted trace.
cargo test -q --profile release-checked -p qz-energy -p qz-sim -p qz-traces -p quetzal
cargo test -q --profile release-checked -p qz-bench --test engine_equivalence
cargo test -q --profile release-checked -p qz-fleet
cargo test -q --profile release-checked -p qz-fault -p qz-types
cargo test -q --profile release-checked -p qz-snap -p qz-obs -p qz-prof

echo "== test-count guard =="
# The suite must never silently shrink (a deleted [[test]] stanza or a
# dropped module compiles fine and loses coverage without failing CI).
# Raise the floor when tests are added; never lower it casually.
test_floor=991
test_count=$(cargo test -q --workspace -- --list 2>/dev/null | grep -c ': test$')
echo "   ${test_count} tests (floor ${test_floor})"
if [ "${test_count}" -lt "${test_floor}" ]; then
    echo "test suite shrank: ${test_count} < floor ${test_floor}" >&2
    exit 1
fi

echo "== qz check: preset sweep (deny warnings) =="
# Every shipped preset on both devices must be error- and warning-free,
# except the intentional MSP430 QZ011 regime (see EXPERIMENTS.md).
cargo run -q --bin qz -- check --deny-warnings --allow QZ011

echo "== qz figure: committed figure outputs reproduce byte for byte =="
# Every results/<name>.txt figure output must come back unchanged from
# `qz figure --name <name>` at its default scale. The differential
# suites compare engines with each other, so a change that shifts every
# engine the same way passes them; it fails here. fleet_speedup.txt is a
# hand-written timing note, not a figure output.
cargo build -q --release --bin qz
qz_release="${CARGO_TARGET_DIR:-target}/release/qz"
for golden in results/*.txt; do
    name=$(basename "${golden}" .txt)
    [ "${name}" = fleet_speedup ] && continue
    if ! "${qz_release}" figure --name "${name}" | cmp - "${golden}"; then
        echo "qz figure --name ${name} no longer reproduces ${golden}" >&2
        exit 1
    fi
done

echo "== qz verify: envelope proofs + a caught refutation =="
# The abstract interpreter must PROVE both properties (no stall, no
# overflow) for the full preset sweep on the Quiet scene —
# --deny-unproven turns any UNKNOWN or REFUTED verdict into a CI
# failure. Conversely, on the Crowded scene even Quetzal overflows
# under the envelope's floor corner (crowded scenes discard frames by
# design), so verify must exit nonzero there AND print a single-line
# repro that runs — the directed-search contract, end to end.
cargo run -q --bin qz -- verify --env quiet --events 12 \
    --deny-unproven > /dev/null
if verify_out=$(cargo run -q --bin qz -- verify --system QZ --device apollo4 \
    --env crowded --events 40 2>/dev/null); then
    echo "verify failed to refute the crowded overflow" >&2
    exit 1
fi
grep -q "REFUTED" <<< "${verify_out}"
verify_repro=$(grep -m1 -o "repro: qz run .* --solar floor.*" <<< "${verify_out}")
read -ra repro_args <<< "${verify_repro#repro: qz }"
cargo run -q --bin qz -- "${repro_args[@]}" > /dev/null

echo "== qz fleet: smoke run + thread-count determinism =="
# A small fleet must complete, and the JSON report must be byte-identical
# at 1 and 2 worker threads (the qz-fleet determinism contract).
cargo run -q --bin qz -- fleet --devices 6 --events 10 --threads 1 \
    --json "${work_dir}/t1.json" > /dev/null
cargo run -q --bin qz -- fleet --devices 6 --events 10 --threads 2 \
    --json "${work_dir}/t2.json" > /dev/null
cmp "${work_dir}/t1.json" "${work_dir}/t2.json"

echo "== qz fleet: 10k-device event-horizon smoke + determinism =="
# A large sharded fleet must complete under the event-horizon scheduler
# (the only one `qz fleet` runs; the byte-identity proofs against the
# epoch-barrier reference, and of the tick engine against fast-forward,
# are tests/fleet_determinism.rs) (64 gateways, 30 s capture period keep the QZ050/QZ080 preflight
# clean) and its JSON must stay byte-identical across worker counts.
cargo run -q --bin qz -- fleet --devices 10000 --gateways 64 \
    --capture-period 30 --events 3 \
    --threads 1 --json "${work_dir}/big1.json" > /dev/null
cargo run -q --bin qz -- fleet --devices 10000 --gateways 64 \
    --capture-period 30 --events 3 \
    --threads 2 --json "${work_dir}/big2.json" > /dev/null
cmp "${work_dir}/big1.json" "${work_dir}/big2.json"

echo "== throughput benches + qz bench --check baseline gate =="
# Each bench appends one record to its results/BENCH_*.json trajectory
# (both engines, metrics asserted identical before any speedup is
# reported), then `qz bench --check` compares the newest record of
# every trajectory against results/BENCH_baseline.json and exits
# nonzero on regression. Floors sit at about half the bench box's
# medians to absorb shared-runner noise: with the binade-stride energy
# kernel the bench box records Quiet around 58-82x (floor 35x) and
# Crowded around 14-21x (floor 8.5x). Burst runs 2 s storms / 10 s
# lulls under the `smoke` fault preset; the fast-forward engine skips
# the ticks the armed adversary's quiet horizon proves fault-free and
# steps only its candidate ticks, so Burst records around 13-17x
# (floor 8x). The fault_campaigns bench gates snapshot-mode campaigns at >= 2x
# over replay-from-zero (reports asserted byte-identical first). Now
# that the clean prefix which replay mode re-runs is nearly free, it
# records about 1.3-2.0x on the bench box (median ~1.85x), so this
# gate fails on most runs there until ROADMAP's snapshot-vs-replay
# item is settled. The fleet_throughput bench gates the event-horizon
# scheduler at >= 47x over the epoch-barrier reference on a 10k-device
# fleet with 50 ms back-pressure epochs (FleetEH10000, around 93-103x
# since wakes borrow devices in place), Fleet8x20 at >= 1.2x (around
# 2.1-4.4x), and the event-horizon-only 100k-device scale probe at
# >= 2500 devices/s (FleetEH100000, around 5100-5900 devices/s).
cargo bench -q -p qz-bench --bench sim_throughput
cargo bench -q -p qz-bench --bench fleet_throughput
cargo bench -q -p qz-bench --bench fault_campaigns
cargo run -q --bin qz -- bench --check

echo "== qz profile: smoke on Quiet and Crowded =="
# The profiler must come back with a horizon-cause ranking and a phase
# table on both a sparse and a dense scene (and must not disturb the
# run — the byte-identity proof is tests/profiler_invisibility.rs).
# Span-length distributions are profiler data, not always-on counters:
# a numeric median-span must still reach at least one ranking row and
# a nonzero "median_span" the JSON report.
for env in quiet crowded; do
    cargo run -q --bin qz -- profile --env "${env}" --events 40 --json - \
        > "${work_dir}/profile_${env}.txt"
    grep -q "^rank cause" "${work_dir}/profile_${env}.txt"
    grep -q "^phase " "${work_dir}/profile_${env}.txt"
    grep -q "^wall clock:" "${work_dir}/profile_${env}.txt"
    awk '/^rank cause/ { ranking = 1; next } ranking && NF == 0 { exit }
         ranking && $NF ~ /^[0-9]+$/ { found = 1 } END { exit !found }' \
        "${work_dir}/profile_${env}.txt"
    grep -qE '"median_span":[1-9]' "${work_dir}/profile_${env}.txt"
done

echo "== qz trace: full timeline with snapshots =="
# The unabridged diagnostic view: every decision, every 1 Hz state
# snapshot, then the event-derived metrics registry.
cargo run -q --bin qz -- trace --env crowded --events 30 --snapshots \
    --limit 0 > "${work_dir}/trace.txt"
grep -qE '^\[ +1\.000s\] .* irr=[0-9.]+ stored=[0-9.]+J buf=' "${work_dir}/trace.txt"
grep -q "^counters:$" "${work_dir}/trace.txt"

echo "== qz profile: flight-recorder dump smoke =="
# A profiled run with the flight ring armed must write a postmortem
# JSON that self-describes (schema + repro command).
cargo run -q --bin qz -- profile --env crowded --events 20 \
    --flight "${work_dir}/flight.json" > /dev/null
grep -q '"schema":"qz-flight/v1"' "${work_dir}/flight.json"
grep -q '"repro":"qz profile' "${work_dir}/flight.json"

echo "== qz fault: smoke campaign + thread-count determinism =="
# A fixed-seed smoke campaign must hold all four differential-oracle
# invariants (exit 0) and its JSON report must be byte-identical at 1
# and 2 worker threads (the qz-fault determinism contract).
cargo run -q --bin qz -- fault --preset smoke --events 4 --campaigns 4 \
    --seed 0xC1C1 --threads 1 --json "${work_dir}/f1.json" > /dev/null
cargo run -q --bin qz -- fault --preset smoke --events 4 --campaigns 4 \
    --seed 0xC1C1 --threads 2 --json "${work_dir}/f2.json" > /dev/null
cmp "${work_dir}/f1.json" "${work_dir}/f2.json"

echo "== qz branch: identity-fork self-check =="
# With no fork flags, `qz branch` forks a run from a mid-run snapshot
# under UNCHANGED tweaks — the resumed suffix must reproduce the base
# decision stream exactly, or the snapshot contract is broken. This is
# the save→restore→resume byte-identity proof end-to-end through the
# CLI (the randomized in-depth version is tests/snapshot_equivalence.rs).
branch_out=$(cargo run -q --bin qz -- branch --events 10 --at 60)
grep -q "identity fork (self-check)" <<< "${branch_out}"
grep -q "no divergence" <<< "${branch_out}"

echo "== qz run: telemetry is invisible and deterministic =="
# Telemetry is an observer of the periodic state sample: installing it
# must not perturb the simulation (same metrics as a plain run of the
# same seeds) and its CSV must be byte-identical across reruns.
cargo run -q --bin qz -- run --events 10 > "${work_dir}/plain.txt"
cargo run -q --bin qz -- run --events 10 --telemetry "${work_dir}/tel1.csv" \
    > "${work_dir}/tel1.txt"
cargo run -q --bin qz -- run --events 10 --telemetry "${work_dir}/tel2.csv" \
    > /dev/null
cmp "${work_dir}/tel1.csv" "${work_dir}/tel2.csv"
diff <(grep -E "interesting:|reports:|device:" "${work_dir}/plain.txt") \
     <(grep -E "interesting:|reports:|device:" "${work_dir}/tel1.txt")

echo "== qz bisect: exact first-divergence + runnable repro =="
# Binary-searching a heavy campaign against its fault-free twin must
# land on the exact first divergent millisecond (pinned — the linear
# lockstep-scan validation is in qz-fault's tests) and print a repro
# line in `qz fault` vocabulary that runs. A violating campaign only
# sets the exit code; parse and I/O failures print `error:`.
bisect_out=$(cargo run -q --bin qz -- bisect --preset heavy --events 4 \
    --inject-at 15 --stride 5 --ring 16)
grep -q "first diverges from its fault-free twin at t=15001ms" <<< "${bisect_out}"
bisect_repro=$(grep -o "repro: qz fault .* --campaigns 1 --inject-at 15" <<< "${bisect_out}")
read -ra repro_args <<< "${bisect_repro#repro: qz }"
repro_err=$(cargo run -q --bin qz -- "${repro_args[@]}" 2>&1 > /dev/null) || true
if grep -q "error:" <<< "${repro_err}"; then
    echo "bisect repro line failed: ${repro_err}" >&2
    exit 1
fi

echo "== examples (each front-ends its config through qz-check) =="
for example in quickstart smart_camera wildlife_monitor custom_policy hw_ratio_module; do
    echo "-- example: ${example}"
    cargo run -q --example "${example}" > /dev/null
done

echo "CI OK"
