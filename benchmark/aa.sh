#!/usr/bin/env bash
# A/A check: run every workload in two sets on one build and compare them.
#
#   benchmark/aa.sh [runs-per-set] [seconds]      (defaults: 5 runs, 10 s)
#
# Prints one row per end-to-end metric x workload with both sets' medians
# and quartiles and the metric's bound from BENCHMARK.json, and a verdict:
#   ok          the second median is no worse than the first by more than
#               the bound, and neither set's spread exceeds the bound
#   unresolved  a set's spread (interquartile range / median) exceeds the
#               bound, so the sets cannot be told apart at that bound
#   DISAGREE    the second median is worse by more than the bound
# Also runs each workload once per set with --trace 1 on the same seed and
# requires the counts that must repeat exactly to do so.
# Exits non-zero on any DISAGREE, failed run, or count that did not repeat.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/pipemap-benchmark"
exec python3 - "$bin" "${1:-5}" "${2:-10}" <<'PY'
import json, statistics, subprocess, sys

binary, runs, seconds = sys.argv[1], int(sys.argv[2]), sys.argv[3]
spec = json.load(open("BENCHMARK.json"))
EXACT = ["core.cells_total", "core.resolve_cells", "pred_error_frac", "loadgen.input_hash"]
bad = False


def run(workload, seed, trace):
    p = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    doc = json.loads(p.stdout.strip().splitlines()[-1])
    if not doc["correct"]:
        print(f"{workload} seed {seed} trace {trace}: {doc['failed']} of {doc['attempted']} failed\n{p.stderr}")
    return doc


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


print(f"{'workload':15} {'metric':15} {'median A':>12} {'[q1, q3] A':>27} {'median B':>12} {'[q1, q3] B':>27} {'bound':>6}  verdict")
for w in [w["name"] for w in spec["workloads"]]:
    sets = ([], [])
    for seed in range(1, runs + 1):
        # Alternate the sets so that both see the same drift of the box.
        for s in sets:
            doc = run(w, seed, 0)
            bad |= not doc["correct"]
            s.append(doc["metrics"])
    for m in spec["end_to_end"]:
        a = [r[m["name"]]["value"] for r in sets[0]]
        b = [r[m["name"]]["value"] for r in sets[1]]
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        sign = 1 if m["better"] == "lower" else -1
        worse = sign * (bm - am) / am
        spread = max((a3 - a1) / am, (b3 - b1) / bm)
        verdict = "unresolved" if spread > m["bound"] else "DISAGREE" if worse > m["bound"] else "ok"
        bad |= verdict == "DISAGREE"
        print(f"{w:15} {m['name']:15} {am:12.6g} [{a1:12.6g},{a3:12.6g}] {bm:12.6g} [{b1:12.6g},{b3:12.6g}] {m['bound']:6}  {verdict} (B worse by {worse:+.1%}, spread {spread:.1%})")
    ta, tb, other = run(w, 1, 1), run(w, 1, 1), run(w, 2, 1)
    bad |= not (ta["correct"] and tb["correct"] and other["correct"])
    for name in EXACT:
        x, y = ta["metrics"][name]["value"], tb["metrics"][name]["value"]
        same = "repeats exactly" if x == y else "DID NOT REPEAT"
        bad |= x != y
        print(f"{w:15} {name:27} {x!r:>24} {y!r:>24}  {same}")
    if ta["metrics"]["loadgen.input_hash"]["value"] == other["metrics"]["loadgen.input_hash"]["value"]:
        bad = True
        print(f"{w:15} seeds 1 and 2 generated the same inputs")
    over = ta["metrics"]["loadgen.trace_overhead_frac"]["value"]
    print(f"{w:15} {'loadgen.trace_overhead_frac':27} {over:+.3f}")
sys.exit(1 if bad else 0)
PY
