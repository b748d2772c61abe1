#!/usr/bin/env python3
"""Self-check of the repository benchmark described by BENCHMARK.json.

Run from the repository root:

    python3 perfbench/selfcheck.py                      # full check
    python3 perfbench/selfcheck.py --runs 5 --sets 1 --workloads fleet-sparse

It checks, and exits non-zero when any check fails:

1. Steadiness. For each set of runs (default two) and each workload,
   the benchmark runs once per seed (default ten seeds, the same in
   every set). For every end-to-end metric it takes the quartiles of
   those values (statistics.quantiles(n=4)); the spread (Q3 - Q1) /
   median must stay within the metric's bound, except for setup_s.
   Every metric's median in a later set must not be worse than in the
   first by more than the bound. Spreads above a third of the bound are
   flagged as "tight". The cross-seed spread mixes input variation with
   run-to-run noise, so a later set is also compared with the first
   seed by seed: the end-to-end ratios (unit "ratio") are exact and
   must repeat bit for bit; for the other metrics the median of the
   per-seed changes must stay within the bound, and its quartiles are
   printed as the run-to-run noise at a fixed input.
2. Correctness. Every run reports correct = true and failed = 0.
3. Held-out seed. Every workload runs clean with tracing on seed 9001,
   which no set uses (sets use seeds 1..runs), and reports every
   per-layer metric.
4. Exact counters. `cargo test --release` of the benchmark package
   (two traced runs per workload must agree on every exact counter).
5. Interaction map. perfbench/interactions.json covers every workload;
   every per-layer metric matches one of its prefixes, and every prefix
   matches a per-layer metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Seeds 1..runs serve the sets; this one is held out from all of them.
HELD_OUT_SEED = 9001


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0 if later == first else float("inf")
    change = (later - first) / abs(first)
    return change if better == "lower" else -change


def layer_entry(layers, name):
    """The interaction entry with the longest prefix matching `name`."""
    best, best_len = None, -1
    for entry in layers:
        for prefix in entry["prefixes"]:
            if name.startswith(prefix) and len(prefix) > best_len:
                best, best_len = entry, len(prefix)
    return best


def check_interactions(spec, failures):
    with open(os.path.join(ROOT, "perfbench", "interactions.json")) as f:
        interactions = json.load(f)
    workloads = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    names = [m["name"] for m in spec["per_layer"]]
    if set(interactions["workloads"]) != workloads:
        failures.append("interactions.json: workload list differs from BENCHMARK.json")
    layers = interactions["layers"]
    for name in names:
        if layer_entry(layers, name) is None:
            failures.append(f"interactions.json: no entry for {name}")
    for entry in layers:
        for prefix in entry["prefixes"]:
            if not any(n.startswith(prefix) for n in names):
                failures.append(f"interactions.json: prefix {prefix} matches no per-layer metric")
        for metric, on in list(entry["moves"].items()) + list(entry["no_change"].items()):
            if metric not in e2e or not set(on) <= workloads:
                failures.append(f"interactions.json: {entry['prefixes']} names an unknown pair "
                                f"{metric} on {on}")
        if not set(entry["measured_on"]) <= workloads:
            failures.append(f"interactions.json: {entry['prefixes']} is measured on an unknown "
                            f"workload")


def compare_per_seed(s, w, first, later, bounds, failures):
    """Set `s` against set 1 of workload `w`, seed by seed."""
    for name, m in bounds.items():
        pairs = list(zip(first[name], later[name]))
        if m["unit"] == "ratio":
            moved = [i for i, (a, b) in enumerate(pairs) if a != b]
            status = "identical" if not moved else f"FAIL differs on {len(moved)} seed(s)"
            if moved:
                failures.append(f"set {s + 1} {w} {name}: exact ratio differs from set 1 "
                                f"on {len(moved)} seed(s)")
            print(f"  per seed {name:<22} {status}")
            continue
        changes = [worse_by(a, b, m["better"]) for a, b in pairs]
        if len(changes) < 2:
            continue
        q1, med, q3 = statistics.quantiles(changes, n=4)
        flag = ""
        if med > m["bound"]:
            flag = "  FAIL median per-seed change > bound"
            failures.append(f"set {s + 1} {w} {name}: median per-seed change {med:.4f} "
                            f"> bound {m['bound']}")
        print(f"  per seed {name:<22} worse by median {med:+.4f} (quartiles {q1:+.4f} "
              f"{q3:+.4f}){flag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per set (default 10)")
    ap.add_argument("--sets", type=int, default=2, help="sets of runs (default 2)")
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--seconds", type=int, help="override run_seconds")
    args = ap.parse_args()

    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = list(range(1, args.runs + 1))
    failures = []

    check_interactions(spec, failures)

    medians = {}  # (workload, metric) -> [median per set]
    per_seed = {}  # workload -> set 1's {metric: [value per seed]}
    for s in range(args.sets):
        for w in workloads:
            values = {name: [] for name in bounds}
            walls = []
            for seed in seeds:
                result, wall = run_once(spec, w, seed, seconds, 0)
                walls.append(wall)
                if not result["correct"] or result["failed"] != 0:
                    failures.append(f"set {s + 1} {w} seed {seed}: correct={result['correct']} "
                                    f"failed={result['failed']}")
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
            print(f"set {s + 1} {w}: {len(seeds)} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
            for name, m in bounds.items():
                if len(values[name]) < 2:
                    continue
                sp, med = spread(values[name])
                medians.setdefault((w, name), []).append(med)
                flag = ""
                if name != "setup_s" and sp > m["bound"]:
                    flag = "  FAIL spread > bound"
                    failures.append(f"set {s + 1} {w} {name}: spread {sp:.4f} > bound {m['bound']}")
                elif sp > m["bound"] / 3:
                    flag = "  tight (spread > bound/3)"
                drift = ""
                if s > 0:
                    worse = worse_by(medians[(w, name)][0], med, m["better"])
                    drift = f"  vs set 1 {worse:+.4f}"
                    if worse > m["bound"]:
                        flag += "  FAIL median drift > bound"
                        failures.append(f"set {s + 1} {w} {name}: median worse by {worse:.4f} "
                                        f"> bound {m['bound']}")
                print(f"  {name:<22} median {med:<14.6g} {m['unit']:<6} spread {sp:.4f} "
                      f"(bound {m['bound']}){drift}{flag}")
            if s == 0:
                per_seed[w] = values
            else:
                compare_per_seed(s, w, per_seed[w], values, bounds, failures)

    layer_names = {m["name"] for m in spec["per_layer"]}
    for w in workloads:
        result, wall = run_once(spec, w, HELD_OUT_SEED, seconds, 1)
        missing = layer_names - set(result["metrics"])
        ok = result["correct"] and result["failed"] == 0 and not missing
        print(f"held-out seed {HELD_OUT_SEED} {w} (traced): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"missing_layers={len(missing)} wall {wall:.1f} s")
        if not ok:
            failures.append(f"held-out seed {w}: not clean")

    proc = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        cwd=ROOT, capture_output=True, text=True)
    print(f"exact-counter test: exit {proc.returncode}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        failures.append("exact-counter test failed")

    for f in failures:
        print(f"FAIL: {f}")
    print("self-check " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
