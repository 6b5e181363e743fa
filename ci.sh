#!/usr/bin/env bash
# Local CI: formatting, lints, the tier-1 build+test gate, the benchmark's
# own checks, and end-to-end smokes of the `pipemap` binary.
set -euo pipefail
cd "$(dirname "$0")"

echo "== Rust lines per crate (src / tests) =="
python3 - <<'EOF'
import glob, os

def lines(crate, sub):
    files = glob.glob(os.path.join(crate, sub, "**", "*.rs"), recursive=True)
    return sum(sum(1 for _ in open(f)) for f in files)

crates = ["."] + sorted(glob.glob("crates/*") + glob.glob("crates/shims/*")) + ["benchmark"]
rows = [(c, lines(c, "src"), lines(c, "tests"))
        for c in crates if os.path.isfile(os.path.join(c, "Cargo.toml"))]
total = ("total", sum(r[1] for r in rows), sum(r[2] for r in rows))
print("%-24s %7s %7s" % ("crate", "src", "tests"))
for c, src, tests in rows + [total]:
    print("%-24s %7d %7d" % (c, src, tests))
EOF

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: release build + tests =="
cargo build --release
cargo test -q

echo "== benchmark: its own tests and the frozen planning answers =="
# The benchmark is a standalone package; building it into the root target/
# reuses the workspace build. On each seed with a committed answer file,
# benchmark/expected/seed_<seed>.txt, each planning workload compares its
# answers bit for bit with that file, so a solver change that moves an
# optimum on either seed fails here as "correct": false.
export CARGO_TARGET_DIR=target
cargo test -q --offline --manifest-path benchmark/Cargo.toml
for SEED in 1 7919; do
    for WORKLOAD in plan_cold plan_replan plan_automap; do
        RESULT=$(cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
            --workload "$WORKLOAD" --seed "$SEED" --seconds 1 | tail -n 1)
        case "$RESULT" in
            '{"correct": true,'*) echo "benchmark $WORKLOAD seed $SEED: correct" ;;
            *) echo "benchmark $WORKLOAD seed $SEED failed its checks: $RESULT" >&2; exit 1 ;;
        esac
        if [ "$WORKLOAD" != plan_automap ]; then
            # A stage stores only the finite span of each line that holds
            # a value: the dense layout peaked near 500 MiB on plan_cold.
            # At --seconds 1 plan_cold peaks near 30 and 33 MiB on seeds 1
            # and 7919, and plan_replan, which retains two unpruned sweeps
            # as artifacts, near 26 MiB on both. Each limit is 64 MiB,
            # about twice its workload's peak.
            LIMIT=64
            python3 - "$WORKLOAD" "$SEED" "$RESULT" "$LIMIT" <<'EOF'
import json, sys
workload, seed, result, limit = sys.argv[1:]
mib = json.loads(result)["metrics"]["peak_rss_mb"]["value"]
assert mib <= int(limit), "%s seed %s peaked at %.0f MiB (limit %s)" % (workload, seed, mib, limit)
print("%s seed %s: peak rss %.1f MiB" % (workload, seed, mib))
EOF
        fi
    done
done
# Both data planes and FFT-Hist end to end: serve_inproc, serve_uds and
# serve_observed check their first outputs against the reference mix and
# that every data set they generated reached the sink (the last with the
# observed configuration's telemetry and journeys on); serve_fft checks
# against the benchmark's own serial 2-D FFT and histogram. All run their
# declared 10 s: at 1 s a paced serve_fft pass holds too few samples for
# a p90.
for WORKLOAD in serve_inproc serve_uds serve_observed serve_fft; do
    for SEED in 1 7919; do
        START=$(date +%s)
        RESULT=$(cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
            --workload "$WORKLOAD" --seed "$SEED" --seconds 10 | tail -n 1)
        case "$RESULT" in
            '{"correct": true,'*) echo "benchmark $WORKLOAD seed $SEED: correct ($(($(date +%s) - START)) s)" ;;
            *) echo "benchmark $WORKLOAD seed $SEED failed its checks: $RESULT" >&2; exit 1 ;;
        esac
    done
done
unset CARGO_TARGET_DIR

echo "== solver bit-identity suites under forced thread counts =="
# The differential suite, the assignment DP's serial-recurrence oracle,
# the provenance recorder, the incremental re-solver and the pinned tie
# order must hold bit for bit regardless of the worker-pool size the
# environment imposes; 1 exercises the serial fallback, 3 divides no
# stage's line count evenly, 4 oversubscribes small CI machines on purpose.
for THREADS in 1 3 4; do
    for SUITE in equivalence assignment_oracle provenance resolve_identity mapping_golden; do
        PIPEMAP_THREADS=$THREADS cargo test -q -p pipemap-core --test "$SUITE"
    done
done

echo "== executor data plane: batching equivalence under forced thread counts =="
# Batched + pooled transport must be bit-identical to the unbatched
# reference path whatever the per-instance thread count.
PIPEMAP_THREADS=1 cargo test -q -p pipemap-exec --test batching
PIPEMAP_THREADS=4 cargo test -q -p pipemap-exec --test batching

echo "== journey completeness under forced thread counts =="
# Every sampled data set must leave a complete, monotone journey, and
# tracing must not perturb pipeline outputs, serial or multi-threaded.
PIPEMAP_THREADS=1 cargo test -q -p pipemap-exec --test journeys
PIPEMAP_THREADS=4 cargo test -q -p pipemap-exec --test journeys

echo "== uds plane and worker telemetry under forced thread counts =="
# Worker processes must match the in-process plane bit for bit, and the
# parent's copy of each worker's telemetry must equal the worker's own
# totals at EOF, serial or multi-threaded.
PIPEMAP_THREADS=1 cargo test -q -p pipemap-exec --test uds
PIPEMAP_THREADS=4 cargo test -q -p pipemap-exec --test uds

echo "== executor stress smoke: sustained load for 2s =="
# A short open-loop run through the release binary; `pipemap load` exits
# nonzero when the pipeline completes no datasets, so success here means
# the data plane actually moved traffic under sustained load.
./target/release/pipemap load micro --duration 2s

echo "== radar smoke: auto_map's feasible-optimal search stays under 100 MiB =="
# `demo radar` runs auto_map, hence feasible_optimal, on the radar program
# (examples/radar_tracking.rs is the same path). Materialising its 4M
# candidate window took 770 MiB; the streaming search peaks near 20 MiB.
# ru_maxrss of the reaped child is what `/usr/bin/time -v` prints as
# "Maximum resident set size"; python3 is already a dependency of this
# script and GNU time is not installed everywhere it runs.
python3 - <<'EOF'
import resource, subprocess
subprocess.run(["./target/release/pipemap", "demo", "radar"],
               stdout=subprocess.DEVNULL, check=True)
mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
assert mib <= 100, "demo radar peaked at %.0f MiB (limit 100)" % mib
print("radar smoke: peak rss %.1f MiB" % mib)
EOF

echo "== doctor smoke: traced load run diagnosed drift-free =="
# Record sampled journeys from a short fft-hist load run, then have the
# doctor diagnose them. The fft-hist stages are genuinely heterogeneous
# (column FFT > row FFT > histogram), so the measured bottleneck must
# agree with the busy-time model and the report must be drift-free.
# `--fail-on-drift` makes disagreement a hard failure; the JSON report
# is also checked for structural well-formedness.
JOURNEY_SMOKE_OUT=$(mktemp /tmp/pipemap-journeys.XXXXXX.jsonl)
DOCTOR_SMOKE_OUT=$(mktemp /tmp/pipemap-doctor.XXXXXX.json)
trap 'rm -f "$JOURNEY_SMOKE_OUT" "$DOCTOR_SMOKE_OUT" "${UDS_SMOKE_CAL:-}" "${UDS_SMOKE_REPORT:-}" "${UDS_SMOKE_JOURNEYS:-}" "${UDS_SMOKE_DOCTOR:-}" "${BENCH_SMOKE_OUT:-}" "${LIVE_SMOKE_LOG:-}" "${TELEM_SMOKE_LOG:-}" "${TELEM_SMOKE_TOP:-}" "${EXPLAIN_SMOKE_SPEC:-}" "${EXPLAIN_SMOKE_OUT:-}" "${EXPLAIN_SMOKE_ASSIGN_OUT:-}" "${EXPLAIN_SMOKE_JOURNEYS:-}" "${RESOLVE_SMOKE_SPEC:-}" "${RESOLVE_SMOKE_JOURNEYS:-}" "${RESOLVE_SMOKE_DOCTOR:-}" "${RESOLVE_SMOKE_OUT:-}"; kill "${LIVE_SMOKE_PID:-}" "${TELEM_SMOKE_PID:-}" 2>/dev/null || true' EXIT
./target/release/pipemap load fft-hist --duration 2s --size 64 \
    --journey-out "$JOURNEY_SMOKE_OUT" --journey-sample 8
./target/release/pipemap doctor "$JOURNEY_SMOKE_OUT" \
    --report json --fail-on-drift > "$DOCTOR_SMOKE_OUT"
python3 - "$DOCTOR_SMOKE_OUT" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema"] == "pipemap-doctor/v1", r.get("schema")
assert r["complete"] > 0, "no complete journeys diagnosed"
assert r["drift"] is False, "smoke run reported drift"
assert len(r["stages"]) == 3, "expected the three fft-hist stages"
for s in r["stages"]:
    for comp in ("queue", "transport", "service", "batching"):
        assert s[comp]["mean_s"] >= 0, (s["name"], comp)
print("doctor smoke: %d journeys, drift-free" % r["complete"])
EOF

echo "== uds smoke: multi-process plane, calibrated f_ecom, cross-process doctor =="
# The out-of-process data plane end to end: fit the transport cost model
# from real cross-process runs, then drive the uds pipeline and check
# the calibrated closed-form prediction lands near what was measured
# (the tentpole acceptance bar is 15%; the gate is looser because a
# loaded CI box shifts both sides). Journeys recorded across four
# processes must stitch into complete, drift-free timelines. Both
# kernel-thread settings exercise the serial and forked kernel paths
# inside the workers.
UDS_SMOKE_CAL=$(mktemp /tmp/pipemap-uds-cal.XXXXXX.json)
UDS_SMOKE_REPORT=$(mktemp /tmp/pipemap-uds-report.XXXXXX.json)
UDS_SMOKE_JOURNEYS=$(mktemp /tmp/pipemap-uds-j.XXXXXX.jsonl)
UDS_SMOKE_DOCTOR=$(mktemp /tmp/pipemap-uds-doctor.XXXXXX.json)
./target/release/pipemap calibrate --out "$UDS_SMOKE_CAL" 2> /dev/null
for UDS_THREADS in 1 4; do
    PIPEMAP_THREADS=$UDS_THREADS ./target/release/pipemap load micro \
        --transport uds --duration 2s --size 1024 --threads "$UDS_THREADS" \
        --calibration "$UDS_SMOKE_CAL" --report json > "$UDS_SMOKE_REPORT"
    python3 - "$UDS_SMOKE_REPORT" "$UDS_THREADS" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
res = r["result"]
assert res["completed"] > 0, "uds run completed nothing"
assert len(r["links"]) == 5, "4 stages -> 5 boundary links"
assert r["links"][0]["items"] == res["completed"], "items lost on the first link"
ratio = res["achieved_over_predicted"]
assert 0.75 <= ratio <= 1.35, \
    "calibrated prediction off: achieved/predicted %.2f" % ratio
print("uds smoke (threads=%s): %d datasets, achieved/predicted %.2f"
      % (sys.argv[2], res["completed"], ratio))
EOF
done
PIPEMAP_THREADS=1 ./target/release/pipemap load fft-hist \
    --transport uds --duration 2s --size 64 \
    --journey-out "$UDS_SMOKE_JOURNEYS" --journey-sample 8 > /dev/null
./target/release/pipemap doctor "$UDS_SMOKE_JOURNEYS" \
    --report json --fail-on-drift > "$UDS_SMOKE_DOCTOR"
python3 - "$UDS_SMOKE_DOCTOR" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["complete"] > 0, "no complete cross-process journeys"
assert r["drift"] is False, "uds smoke reported drift"
assert len(r["stages"]) == 3, "expected the three fft-hist stages"
print("uds smoke: %d cross-process journeys, drift-free" % r["complete"])
EOF

echo "== explain smoke: decision provenance, exact margins, doctor --margins =="
# Solve a two-stage chain with full provenance, check the
# pipemap-explain/v1 report is well-formed (margins per stage, finite
# tightest margin on this knife-edge split), then close the loop: a
# seeded DES run of the same mapping doctored against those exact
# margins must come back drift-free with a nonzero exit reserved for a
# genuine margin crossing.
EXPLAIN_SMOKE_SPEC=$(mktemp /tmp/pipemap-explain.XXXXXX.pmap)
EXPLAIN_SMOKE_OUT=$(mktemp /tmp/pipemap-explain.XXXXXX.json)
EXPLAIN_SMOKE_ASSIGN_OUT=$(mktemp /tmp/pipemap-explain-a.XXXXXX.json)
EXPLAIN_SMOKE_JOURNEYS=$(mktemp /tmp/pipemap-explain-j.XXXXXX.jsonl)
cat > "$EXPLAIN_SMOKE_SPEC" <<'SPEC'
procs 12
mem_per_proc 1e9

task front
  exec poly 0.0 5.0 0.02
  replicable no

edge
  icom poly 0.0 0.05 0.0
  ecom poly 0.02 0.3 0.3 0.01 0.01

task back
  exec poly 0.05 3.0 0.02
  replicable no
SPEC
./target/release/pipemap explain "$EXPLAIN_SMOKE_SPEC" \
    --report json --out "$EXPLAIN_SMOKE_OUT" --robustness 6 --spread 0.02 > /dev/null
python3 - "$EXPLAIN_SMOKE_OUT" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema"] == "pipemap-explain/v1", r.get("schema")
assert len(r["stages"]) == 2, r["stages"]
for s in r["stages"]:
    m = s["margins"]
    for key in ("exec_up", "exec_down", "ecom_in_up", "ecom_in_down"):
        assert key in m, (key, s)
assert r["min_exec_up"] is not None and 1.0 < r["min_exec_up"] < 2.0, r["min_exec_up"]
# Perturbations inside the margin must cost nothing in the sampled study.
assert r["robustness"]["regret_max"] == 0, r["robustness"]
print("explain smoke: min margin %.1f%%" % ((r["min_exec_up"] - 1) * 100))
EOF
# The assignment DP explains the same chain: each task keeps its own
# module, so the same two stages and the same knife-edge margin.
./target/release/pipemap explain "$EXPLAIN_SMOKE_SPEC" --assignment --report json \
    --out "$EXPLAIN_SMOKE_ASSIGN_OUT" > /dev/null
python3 - "$EXPLAIN_SMOKE_ASSIGN_OUT" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema"] == "pipemap-explain/v1", r.get("schema")
assert r["algorithm"] == "dp_assignment", r["algorithm"]
assert len(r["stages"]) == 2, r["stages"]
for s in r["stages"]:
    m = s["margins"]
    for key in ("exec_up", "exec_down", "ecom_in_up", "ecom_in_down"):
        assert key in m, (key, s)
assert r["min_exec_up"] is not None and 1.0 < r["min_exec_up"] < 2.0, r["min_exec_up"]
print("explain smoke (assignment): min margin %.1f%%" % ((r["min_exec_up"] - 1) * 100))
EOF
./target/release/pipemap simulate "$EXPLAIN_SMOKE_SPEC" "0-0:1x7,1-1:1x5" \
    --datasets 60 --noise 0.02 --seed 11 \
    --journey-out "$EXPLAIN_SMOKE_JOURNEYS" --journey-sample 1 > /dev/null
./target/release/pipemap doctor "$EXPLAIN_SMOKE_JOURNEYS" \
    --margins "$EXPLAIN_SMOKE_OUT" --fail-on-drift > /dev/null

echo "== map smoke: fewest processors and least latency at exactly the optimum =="
# Ask the explain-smoke chain for exactly its optimal throughput, printed
# as the shortest float that parses back to the same bits: the fewest
# processors reaching it fit in its 12, and the processor-minimal and the
# latency-optimal mappings both reach it. A target out of range is
# refused with exit 1, not a panic.
MAP_SMOKE_T=$(./target/release/pipemap map "$EXPLAIN_SMOKE_SPEC" --report json |
    python3 -c 'import json, sys; print(repr(json.load(sys.stdin)["solutions"]["optimal"]["throughput"]))')
MAP_SMOKE_JSON=$(./target/release/pipemap map "$EXPLAIN_SMOKE_SPEC" \
    --min-procs "$MAP_SMOKE_T" --latency-floor "$MAP_SMOKE_T" --report json)
python3 - "$MAP_SMOKE_JSON" "$MAP_SMOKE_T" <<'EOF'
import json, sys
r, t = json.loads(sys.argv[1]), float(sys.argv[2])
m = r["min_procs"]
assert m["procs"] <= 12 and m["throughput"] >= t, m
assert r["latency"]["throughput"] >= t, r["latency"]
print("map smoke: %d processors sustain the optimum %r" % (m["procs"], t))
EOF
MAP_SMOKE_EXIT=0
./target/release/pipemap map "$EXPLAIN_SMOKE_SPEC" --greedy-only --min-procs 0 2> /dev/null ||
    MAP_SMOKE_EXIT=$?
if [ "$MAP_SMOKE_EXIT" -ne 1 ]; then
    echo "map smoke: --min-procs 0 exited $MAP_SMOKE_EXIT, not 1" >&2
    exit 1
fi

echo "== resolve smoke: drift -> doctor factors -> incremental re-solve =="
# Close the re-planning loop end to end: simulate the explain-smoke chain
# with its front stage genuinely 2.5x slower than the spec predicts, have
# the doctor fit the drift factors and judge them against the explain
# smoke's exact margins (2.5x is provably outside the front stage's
# stability interval, whose upper crossing the explain smoke pins below
# 2.0x), then hand the doctor report to
# `pipemap resolve`, which re-prices the original spec and re-solves
# incrementally. The resolve command verifies bit-identity against a cold
# solve on every run and exits nonzero on mismatch, so this smoke fails
# hard if the incremental engine ever diverges. A second call exercises
# the margin short-circuit: a 1% drift strictly inside the exact
# stability interval must be answered with zero DP cells.
RESOLVE_SMOKE_SPEC=$(mktemp /tmp/pipemap-resolve.XXXXXX.pmap)
RESOLVE_SMOKE_JOURNEYS=$(mktemp /tmp/pipemap-resolve-j.XXXXXX.jsonl)
RESOLVE_SMOKE_DOCTOR=$(mktemp /tmp/pipemap-resolve-d.XXXXXX.json)
RESOLVE_SMOKE_OUT=$(mktemp /tmp/pipemap-resolve-o.XXXXXX.json)
cat > "$RESOLVE_SMOKE_SPEC" <<'SPEC'
procs 12
mem_per_proc 1e9

task front
  exec poly 0.0 12.5 0.05
  replicable no

edge
  icom poly 0.0 0.05 0.0
  ecom poly 0.02 0.3 0.3 0.01 0.01

task back
  exec poly 0.05 3.0 0.02
  replicable no
SPEC
./target/release/pipemap simulate "$RESOLVE_SMOKE_SPEC" "0-0:1x7,1-1:1x5" \
    --datasets 80 --noise 0.02 --seed 11 \
    --journey-out "$RESOLVE_SMOKE_JOURNEYS" --journey-sample 1 > /dev/null
./target/release/pipemap doctor "$RESOLVE_SMOKE_JOURNEYS" \
    --spec "$EXPLAIN_SMOKE_SPEC" --mapping "0-0:1x7,1-1:1x5" \
    --margins "$EXPLAIN_SMOKE_OUT" \
    --report json > "$RESOLVE_SMOKE_DOCTOR"
python3 - "$RESOLVE_SMOKE_DOCTOR" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["drift"] is True, "2.5x slower front stage must be flagged as drift"
f = r["recommendation"]["factors"]["service"]
assert f[0] is not None and 2.0 < f[0] < 3.0, f
print("resolve smoke: doctor fitted front service factor %.2fx" % f[0])
EOF
./target/release/pipemap resolve "$EXPLAIN_SMOKE_SPEC" --assignment \
    --doctor "$RESOLVE_SMOKE_DOCTOR" --report json > "$RESOLVE_SMOKE_OUT"
python3 - "$RESOLVE_SMOKE_OUT" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema"] == "pipemap-resolve/v1", r.get("schema")
assert r["verify_match"] is True, "incremental result diverged from cold solve"
assert r["mechanism"] == "suffix", r["mechanism"]
assert r["new"]["throughput"] == r["cold_throughput"], r
print("resolve smoke: suffix re-solve verified (%d cells, %.1fx)"
      % (r["cells"], r["speedup"]))
EOF
./target/release/pipemap resolve "$EXPLAIN_SMOKE_SPEC" --assignment \
    --drift exec:0=1.01 --report json > "$RESOLVE_SMOKE_OUT"
python3 - "$RESOLVE_SMOKE_OUT" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["verify_match"] is True, "short-circuit diverged from cold solve"
assert r["mechanism"] == "short-circuit", r["mechanism"]
assert r["cells"] == 0, "short-circuit must do no DP work"
print("resolve smoke: 1% in-margin drift short-circuited at 0 DP cells")
EOF

echo "== live-attach smoke: observatory endpoints over a held load run =="
# Serve the full observatory surface from a short micro load run (--hold
# keeps the server up after the datasets drain), attach `pipemap top`
# and the doctor to it over HTTP, and check that /model.json and
# /events.jsonl are well-formed and that the doctor's online verdict
# covers every stage the observatory publishes. This is the end-to-end
# path a live operator takes; ports are OS-assigned so parallel CI runs
# don't clash.
LIVE_SMOKE_LOG=$(mktemp /tmp/pipemap-live-smoke.XXXXXX.log)
LIVE_DOCTOR_JSON=$(mktemp /tmp/pipemap-live-doctor.XXXXXX.json)
./target/release/pipemap load micro --datasets 20000 \
    --serve 127.0.0.1:0 --hold 30 2> "$LIVE_SMOKE_LOG" &
LIVE_SMOKE_PID=$!
LIVE_ADDR=""
for _ in $(seq 1 100); do
    LIVE_ADDR=$(sed -n 's#^serving metrics on http://\([^/]*\)/metrics.*#\1#p' "$LIVE_SMOKE_LOG")
    [ -n "$LIVE_ADDR" ] && break
    sleep 0.1
done
if [ -z "$LIVE_ADDR" ]; then
    echo "live smoke: server never announced an address" >&2
    cat "$LIVE_SMOKE_LOG" >&2
    exit 1
fi
./target/release/pipemap top --attach "$LIVE_ADDR" --once
./target/release/pipemap doctor --attach "$LIVE_ADDR" --model online --report json \
    > "$LIVE_DOCTOR_JSON"
python3 - "$LIVE_ADDR" "$LIVE_DOCTOR_JSON" <<'EOF'
import json, sys, urllib.request
addr = sys.argv[1]
model = json.load(urllib.request.urlopen("http://%s/model.json" % addr, timeout=10))
doctor = json.load(open(sys.argv[2]))
online = doctor["online"]["stages"]
assert len(online) == len(model["stages"]), (online, model["stages"])
assert model["model_schema"] == "pipemap-model/v1", model
assert model["journeys_ingested"] > 0, "observatory ingested no journeys"
assert model["stages"], "model published no stages"
for s in model["stages"]:
    for key in ("stage", "samples", "p", "mean_s", "drift", "fitted"):
        assert key in s, (key, s)
raw = urllib.request.urlopen("http://%s/events.jsonl" % addr, timeout=10).read()
lines = [json.loads(l) for l in raw.decode().splitlines() if l.strip()]
assert lines and lines[0].get("event_schema") == "pipemap-events/v1", lines[:1]
for e in lines[1:]:
    assert "kind" in e and "severity" in e and "t_us" in e, e
print("live smoke: %d stages modelled and doctored online, %d events"
      % (len(model["stages"]), len(lines) - 1))
EOF
kill "$LIVE_SMOKE_PID" 2>/dev/null || true
wait "$LIVE_SMOKE_PID" 2>/dev/null || true

echo "== telemetry smoke: per-worker series over an observed uds load run =="
# The cross-process telemetry plane end to end: an observed uds load run
# (metrics server up) automatically lights the worker-side sidecar, so
# /metrics must carry per-pid worker families — items moved, CPU and RSS
# sampled from /proc, liveness — and `pipemap top` must render the
# per-process worker rows from the same snapshot. Once every stage's
# workers report all 20 000 items, their `service_s` observation counts
# must sum to exactly that: worker telemetry conserves counts. Both
# kernel-thread settings, like the uds smoke.
TELEM_SMOKE_LOG=$(mktemp /tmp/pipemap-telem-smoke.XXXXXX.log)
TELEM_SMOKE_TOP=$(mktemp /tmp/pipemap-telem-top.XXXXXX.txt)
for TELEM_THREADS in 1 4; do
    PIPEMAP_THREADS=$TELEM_THREADS ./target/release/pipemap load micro \
        --transport uds --datasets 20000 --threads "$TELEM_THREADS" \
        --serve 127.0.0.1:0 --hold 30 2> "$TELEM_SMOKE_LOG" &
    TELEM_SMOKE_PID=$!
    TELEM_ADDR=""
    for _ in $(seq 1 100); do
        TELEM_ADDR=$(sed -n 's#^serving metrics on http://\([^/]*\)/metrics.*#\1#p' "$TELEM_SMOKE_LOG")
        [ -n "$TELEM_ADDR" ] && break
        sleep 0.1
    done
    if [ -z "$TELEM_ADDR" ]; then
        echo "telemetry smoke: server never announced an address" >&2
        cat "$TELEM_SMOKE_LOG" >&2
        exit 1
    fi
    python3 - "$TELEM_ADDR" "$TELEM_THREADS" <<'EOF'
import sys, time, urllib.request
addr, threads = sys.argv[1], sys.argv[2]

def scrape():
    return urllib.request.urlopen("http://%s/metrics" % addr, timeout=10).read().decode()

def check():
    lines = scrape().splitlines()
    def series(family):
        return [l for l in lines
                if l.startswith(family + "{") or l.startswith(family + "_total{")]
    items = series("pipemap_exec_worker_items")
    assert items, "no per-worker items series on /metrics"
    pids = {l.split('pid="')[1].split('"')[0] for l in items}
    assert len(pids) >= 2, "expected several worker pids, got %s" % pids
    moved = sum(float(l.rsplit(" ", 1)[1]) for l in items)
    assert moved > 0, "worker series report no items moved"
    for family in ("pipemap_exec_worker_cpu_pct", "pipemap_exec_worker_rss_bytes",
                   "pipemap_exec_worker_stale"):
        assert series(family), "missing %s series on /metrics" % family
    stale = [float(l.rsplit(" ", 1)[1]) for l in series("pipemap_exec_worker_stale")]
    assert all(s == 0.0 for s in stale), "clean run marked workers stale: %s" % stale
    return len(pids), moved

# The server announces before the datasets drain, so poll until the
# worker series settle instead of racing the run.
deadline = time.time() + 20
while True:
    try:
        npids, moved = check()
        break
    except AssertionError:
        if time.time() >= deadline:
            raise
        time.sleep(0.2)
print("telemetry smoke (threads=%s): %d worker pids, %d items via telemetry"
      % (threads, npids, moved))

# Per stage: items from the labelled counter family, service_s
# observations from the labelled histogram family's _count series.
def per_stage():
    items, served = {}, {}
    for line in scrape().splitlines():
        name, _, value = line.rpartition(" ")
        for family, total in (("pipemap_exec_worker_items_total{", items),
                              ("pipemap_exec_worker_service_s_count{", served)):
            if name.startswith(family):
                stage = name.split('stage="')[1].split('"')[0]
                total[stage] = total.get(stage, 0) + float(value)
    return items, served

deadline = time.time() + 30
while True:
    items, served = per_stage()
    if items and all(v == 20000 for v in items.values()):
        break
    assert time.time() < deadline, "stages never reported 20000 items: %s" % items
    time.sleep(0.2)
assert served == items, "service_s counts %s != items %s" % (served, items)
print("telemetry smoke (threads=%s): service_s counts equal items on %d stages"
      % (threads, len(items)))
EOF
    ./target/release/pipemap top --attach "$TELEM_ADDR" --once > "$TELEM_SMOKE_TOP"
    grep -q "workers (per process):" "$TELEM_SMOKE_TOP" || {
        echo "telemetry smoke: top rendered no worker rows" >&2
        cat "$TELEM_SMOKE_TOP" >&2
        exit 1
    }
    kill "$TELEM_SMOKE_PID" 2>/dev/null || true
    wait "$TELEM_SMOKE_PID" 2>/dev/null || true
done

echo "== bench-smoke: quick perf suite + schema check =="
BENCH_SMOKE_OUT=$(mktemp /tmp/pipemap-bench-smoke.XXXXXX.json)
./target/release/pipemap bench --quick --out "$BENCH_SMOKE_OUT"
./target/release/pipemap bench --validate "$BENCH_SMOKE_OUT"
# Compare against the committed baseline when one exists. Warn-only:
# the quick suite on arbitrary CI hardware is indicative, not a gate —
# the real gate is `pipemap bench --compare` on like-for-like machines.
if [ -f BENCH_baseline.json ]; then
    ./target/release/pipemap bench --warn-only \
        --compare BENCH_baseline.json --against "$BENCH_SMOKE_OUT"
fi

echo "CI OK"
