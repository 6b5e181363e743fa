//! The `pipemap bench` perf-regression suite.
//!
//! Runs a fixed set of workloads — the three solvers on a synthetic chain
//! and the radar application, the full `auto_map` methodology measured in
//! the simulator, and a short real-threads executor run — and emits a
//! schema-versioned JSON document (`BENCH_<git-sha>.json`) of named
//! metrics. A later run compares itself against a committed baseline with
//! [`compare_bench`]: each metric carries a *direction* (whether lower or
//! higher is better) and an absolute *slack* below which changes are
//! noise, and a regression verdict requires both the relative threshold
//! and the slack to be exceeded.
//!
//! Wall-clock metrics (`*.wall_s`, executor throughput) are inherently
//! noisy, which is why the default threshold is generous (30%) and every
//! timed section runs `iters` times keeping the best. Model-derived
//! metrics (solver throughput, DP cell counts, simulated throughput and
//! latency) are deterministic and act as precise canaries for solver or
//! simulator quality regressions.

use std::time::Instant;

use pipemap_apps::{radar, synthetic_chain, ChainFlavor, RadarConfig};
use pipemap_chain::Problem;
use pipemap_core::{
    cluster_heuristic, dp_assignment, dp_assignment_with, dp_mapping, dp_mapping_provenance,
    dp_mapping_with, reprice_problem, CostDeltas, GreedyOptions, ResolveArtifact, ResolveMechanism,
    Solution, SolveOptions,
};
use pipemap_exec::kernels::{fft_cols, fft_rows, histogram, Complex, Matrix};
use pipemap_exec::{run_pipeline, PipelinePlan, Stage, StagePlan, TransportKind};
use pipemap_machine::MachineConfig;
use pipemap_obs::Value;

use crate::load::{micro_plan, micro_source, run_configured_load, LoadConfig};
use crate::mapper::{auto_map, MapperOptions};

/// Schema identifier stamped into every bench document.
pub const BENCH_SCHEMA: &str = pipemap_obs::schema::BENCH;

/// Default relative-change threshold for regression verdicts.
pub const DEFAULT_THRESHOLD: f64 = 0.30;

/// Options for [`run_bench_suite`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BenchOptions {
    /// Shrink every workload (fewer data sets, one timing iteration) so
    /// the suite finishes in seconds — used by CI's bench-smoke step.
    pub quick: bool,
}

/// Short git commit hash of the working tree, or `"unknown"` outside a
/// repository.
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Whether lower or higher values of a metric are better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (wall time, error, latency).
    Lower,
    /// Larger is better (throughput, cells/s).
    Higher,
}

impl Direction {
    fn as_str(self) -> &'static str {
        match self {
            Direction::Lower => "lower",
            Direction::Higher => "higher",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Direction::Lower),
            "higher" => Some(Direction::Higher),
            _ => None,
        }
    }
}

fn metric(value: f64, unit: &str, direction: Direction, slack: f64) -> Value {
    let mut o = Value::object();
    o.set("value", value);
    o.set("unit", unit);
    o.set("direction", direction.as_str());
    o.set("slack", slack);
    o
}

/// Best (minimum) wall time over `iters` runs of `f`, in seconds, along
/// with the result of the fastest run.
fn time_best<R>(iters: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let iters = iters.max(1);
    let mut best: Option<(f64, R)> = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed().as_secs_f64();
        if best.as_ref().map(|(b, _)| dt < *b).unwrap_or(true) {
            best = Some((dt, r));
        }
    }
    best.expect("iters >= 1")
}

/// Counter delta observed in the global registry while `f` runs.
fn counted<R>(name: &str, f: impl FnOnce() -> R) -> (u64, R) {
    let read = || -> u64 {
        pipemap_obs::global_registry()
            .and_then(|r| r.snapshot().counter(name))
            .unwrap_or(0)
    };
    let before = read();
    let r = f();
    (read().saturating_sub(before), r)
}

fn bench_solvers(metrics: &mut Value, label: &str, problem: &Problem, iters: usize) {
    // Greedy heuristic: wall time + model throughput + evals/s.
    let (wall, (evals, sol)) = time_best(iters, || {
        counted("solver.greedy.evals", || {
            cluster_heuristic(problem, GreedyOptions::adaptive()).expect("greedy solves")
        })
    });
    push_solver_metrics(
        metrics,
        &format!("solver.greedy.{label}"),
        wall,
        evals,
        &sol,
    );

    // DP over assignments (fixed clustering dimension).
    let (wall, (cells, sol)) = time_best(iters, || {
        counted("solver.dp_assignment.cells", || {
            dp_assignment(problem).expect("dp_assignment solves").0
        })
    });
    push_solver_metrics(
        metrics,
        &format!("solver.dp_assignment.{label}"),
        wall,
        cells,
        &sol,
    );

    // Full DP mapper (clustering + replication + assignment).
    let (wall, (cells, sol)) = time_best(iters, || {
        counted("solver.dp_mapping.cells", || {
            dp_mapping(problem).expect("dp_mapping solves")
        })
    });
    push_solver_metrics(
        metrics,
        &format!("solver.dp_mapping.{label}"),
        wall,
        cells,
        &sol,
    );
}

fn push_solver_metrics(metrics: &mut Value, prefix: &str, wall: f64, work: u64, sol: &Solution) {
    metrics.set(
        format!("{prefix}.wall_s"),
        metric(wall, "s", Direction::Lower, 0.02),
    );
    if work > 0 {
        metrics.set(
            format!("{prefix}.cells_per_s"),
            metric(work as f64 / wall.max(1e-9), "1/s", Direction::Higher, 0.0),
        );
    }
    // Model throughput of the returned solution: deterministic, so zero
    // slack — any drop is a solver-quality regression.
    metrics.set(
        format!("{prefix}.throughput"),
        metric(sol.throughput, "datasets/s", Direction::Higher, 0.0),
    );
}

/// The large-P DP cases exercising the solver performance layer (dense
/// tables + pruning + dedup + worker pool). Metric names are fixed at the
/// full-mode sizes; quick mode shrinks the machine so CI's bench-smoke
/// stays fast but still compares like-for-like against a quick baseline.
fn bench_scaled_dp(metrics: &mut Value, opts: &BenchOptions) {
    let iters = if opts.quick { 1 } else { 3 };

    // dp_mapping at P = 128 (quick: 32), k = 8 (quick: 6) — optimised
    // path vs. the serial unpruned reference, which is the pre-layer
    // solver. Identical optima are asserted, so the speedup metric can
    // never be bought with a wrong answer.
    let (rows, cols, k) = if opts.quick { (4, 8, 6) } else { (8, 16, 8) };
    let machine = MachineConfig::iwarp_message().with_geometry(rows, cols);
    let chain = synthetic_chain(ChainFlavor::Alternating, k);
    let problem = pipemap_machine::synthesize_problem(&chain, &machine);

    let (wall, (total, (pruned, sol))) = time_best(iters, || {
        counted(pipemap_obs::names::SOLVER_CELLS_TOTAL, || {
            counted(pipemap_obs::names::SOLVER_CELLS_PRUNED, || {
                dp_mapping_with(&problem, &SolveOptions::default()).expect("dp_mapping solves")
            })
        })
    });
    // Best-of-2 (quick: 1): the reference solve is the longest timed
    // section in the suite, so a single sample would make the speedup
    // ratio hostage to scheduler noise.
    let (ref_wall, ref_sol) = time_best(if opts.quick { 1 } else { 2 }, || {
        dp_mapping_with(&problem, &SolveOptions::reference()).expect("dp_mapping solves")
    });
    assert_eq!(
        sol.throughput.to_bits(),
        ref_sol.throughput.to_bits(),
        "optimised dp_mapping diverged from the reference path"
    );
    let prefix = "solver.dp_mapping_p128";
    metrics.set(
        format!("{prefix}.wall_s"),
        metric(wall, "s", Direction::Lower, 0.05),
    );
    metrics.set(
        format!("{prefix}.reference_wall_s"),
        metric(ref_wall, "s", Direction::Lower, 0.5),
    );
    metrics.set(
        format!("{prefix}.speedup"),
        metric(ref_wall / wall.max(1e-9), "x", Direction::Higher, 1.0),
    );
    metrics.set(
        format!("{prefix}.throughput"),
        metric(sol.throughput, "datasets/s", Direction::Higher, 0.0),
    );
    metrics.set(
        format!("{prefix}.cells_total"),
        metric(total as f64, "cells", Direction::Lower, 0.0),
    );
    metrics.set(
        format!("{prefix}.pruned_frac"),
        metric(
            pruned as f64 / (total as f64).max(1.0),
            "frac",
            Direction::Higher,
            0.05,
        ),
    );

    // dp_assignment at P = 256 (quick: 64) — optimised path only; the
    // serial reference's O(P⁴k) enumeration is impractical at this scale,
    // which is the point of the case. Exactness at large P is covered by
    // the equivalence suite.
    let (rows, cols, k) = if opts.quick { (4, 16, 6) } else { (16, 16, 8) };
    let machine = MachineConfig::iwarp_message().with_geometry(rows, cols);
    let chain = synthetic_chain(ChainFlavor::Alternating, k);
    let problem = pipemap_machine::synthesize_problem(&chain, &machine);
    let (wall, (total, (pruned, sol))) = time_best(iters, || {
        counted(pipemap_obs::names::SOLVER_CELLS_TOTAL, || {
            counted(pipemap_obs::names::SOLVER_CELLS_PRUNED, || {
                dp_assignment_with(&problem, &SolveOptions::default())
                    .expect("dp_assignment solves")
                    .0
            })
        })
    });
    let prefix = "solver.dp_assignment_p256";
    metrics.set(
        format!("{prefix}.wall_s"),
        metric(wall, "s", Direction::Lower, 0.05),
    );
    metrics.set(
        format!("{prefix}.throughput"),
        metric(sol.throughput, "datasets/s", Direction::Higher, 0.0),
    );
    metrics.set(
        format!("{prefix}.cells_total"),
        metric(total as f64, "cells", Direction::Lower, 0.0),
    );
    metrics.set(
        format!("{prefix}.pruned_frac"),
        metric(
            pruned as f64 / (total as f64).max(1.0),
            "frac",
            Direction::Higher,
            0.05,
        ),
    );
}

/// Incremental re-solve vs. cold re-solve after single-stage cost drift.
///
/// Two suites, both against retained artifacts built once (untimed — the
/// artifact is the state the serving loop already holds):
///
/// **Headline (`median_x`):** the assignment DP at P = 128 (quick: 32)
/// with replication, one small in-margin exec drift per stage. Every
/// drift sits strictly inside its exact stability interval, so the
/// margin short-circuit answers from the retained margins alone — zero
/// DP cells against a full cold re-solve. Throughput bit-identity with
/// the cold solve is asserted per stage (the margin certificate is
/// value-level: the cold argmax may return a value-tied alternate
/// mapping, which the bitwise throughput equality certifies). The
/// reported speedup is the median over the per-stage suite, and full
/// mode enforces the ≥ 10x floor outright.
///
/// **Suffix (`suffix_median_x`):** the cluster DP on the same geometry
/// with 1.25x drifts — far outside any margin, so every re-solve takes
/// the suffix path. Full bit-identity (throughput *and* mapping) of
/// every pair is asserted, so the speedup can never be bought with a
/// wrong answer. Early-stage drifts invalidate almost the whole table
/// (warm incumbent only), late-stage drifts almost none of it; the
/// median summarises both.
fn bench_resolve_speedup(metrics: &mut Value, opts: &BenchOptions) {
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let prefix = "solver.resolve_speedup";
    let solve = SolveOptions::default();

    // Headline suite: margin short-circuit at P = 128 (quick: 32).
    let (rows, cols, k) = if opts.quick { (4, 8, 6) } else { (8, 16, 8) };
    let machine = MachineConfig::iwarp_message().with_geometry(rows, cols);
    let chain = synthetic_chain(ChainFlavor::Alternating, k);
    let problem = pipemap_machine::synthesize_problem(&chain, &machine);
    let artifact = ResolveArtifact::build_assignment(&problem, &solve).expect("artifact builds");
    let margins = artifact
        .margins()
        .expect("margins tractable with replication at this size")
        .clone();

    let mut speedups = Vec::with_capacity(k);
    let mut sc_cells = 0u64;
    let mut sc_wall = f64::INFINITY;
    let mut short_circuits = 0usize;
    for stage in 0..k {
        // A small drift strictly inside the stage's stability interval:
        // halfway to the upward crossing, capped at 2%, falling back to
        // the downward side when the interval admits no upward drift.
        let s = &margins.stages[stage];
        let g = if s.exec_up > 1.0 {
            let room = if s.exec_up.is_finite() {
                (s.exec_up - 1.0) / 2.0
            } else {
                f64::INFINITY
            };
            1.0 + room.min(0.02)
        } else if s.exec_down < 1.0 && s.exec_down >= 0.0 {
            1.0 - ((1.0 - s.exec_down) / 2.0).min(0.02)
        } else {
            continue; // empty interval: nothing to short-circuit
        };
        let mut d = CostDeltas::identity(k);
        d.set_exec(stage, g);
        let (warm_wall, out) = time_best(1, || artifact.resolve(&d).expect("resolve"));
        let repriced = reprice_problem(&problem, &d);
        let (cold_wall, (cold, _)) = time_best(1, || {
            dp_assignment_with(&repriced, &solve).expect("cold re-solve")
        });
        assert_eq!(
            out.solution.throughput.to_bits(),
            cold.throughput.to_bits(),
            "incremental re-solve diverged from the cold solve at stage {stage} (g = {g})"
        );
        // Mapping bit-identity holds except when a short-circuit meets a
        // value-tied alternate optimum (certified by the throughput
        // assert above).
        if out.mechanism != ResolveMechanism::ShortCircuit {
            assert_eq!(out.solution.mapping, cold.mapping);
        } else {
            short_circuits += 1;
            sc_cells = sc_cells.max(out.cells);
            sc_wall = sc_wall.min(warm_wall);
        }
        speedups.push(cold_wall / warm_wall.max(1e-9));
    }
    assert!(
        speedups.len() > k / 2,
        "margin intervals admitted too few in-margin drifts ({} of {k})",
        speedups.len()
    );
    assert!(
        short_circuits > speedups.len() / 2,
        "most in-margin drifts must short-circuit ({short_circuits} of {})",
        speedups.len()
    );
    let median_x = median(&mut speedups);
    if !opts.quick {
        // The acceptance floor for the P = 128 single-stage-drift suite.
        assert!(
            median_x >= 10.0,
            "median resolve speedup {median_x:.1}x below the 10x floor"
        );
    }
    metrics.set(
        format!("{prefix}.median_x"),
        metric(median_x, "x", Direction::Higher, 5.0),
    );
    metrics.set(
        format!("{prefix}.shortcircuit_cells"),
        metric(sc_cells as f64, "cells", Direction::Lower, 0.0),
    );
    metrics.set(
        format!("{prefix}.shortcircuit_wall_s"),
        metric(sc_wall, "s", Direction::Lower, 0.001),
    );

    // Suffix suite: cluster DP, drifts far outside any margin.
    let artifact = ResolveArtifact::build(&problem, &solve).expect("artifact builds");
    let mut speedups = Vec::with_capacity(k);
    let mut resolve_walls = Vec::with_capacity(k);
    let mut cold_walls = Vec::with_capacity(k);
    for stage in 0..k {
        let mut d = CostDeltas::identity(k);
        d.set_exec(stage, 1.25);
        let (warm_wall, out) = time_best(1, || artifact.resolve(&d).expect("resolve"));
        let repriced = reprice_problem(&problem, &d);
        let (cold_wall, cold) = time_best(1, || {
            dp_mapping_with(&repriced, &solve).expect("cold re-solve")
        });
        assert_eq!(
            out.solution.throughput.to_bits(),
            cold.throughput.to_bits(),
            "incremental re-solve diverged from the cold solve at stage {stage}"
        );
        assert_eq!(out.solution.mapping, cold.mapping);
        speedups.push(cold_wall / warm_wall.max(1e-9));
        resolve_walls.push(warm_wall);
        cold_walls.push(cold_wall);
    }
    metrics.set(
        format!("{prefix}.suffix_median_x"),
        metric(median(&mut speedups), "x", Direction::Higher, 2.0),
    );
    metrics.set(
        format!("{prefix}.wall_s"),
        metric(median(&mut resolve_walls), "s", Direction::Lower, 0.01),
    );
    metrics.set(
        format!("{prefix}.cold_wall_s"),
        metric(median(&mut cold_walls), "s", Direction::Lower, 0.05),
    );
}

fn bench_end_to_end(metrics: &mut Value, opts: &BenchOptions) {
    let app = radar(RadarConfig::paper());
    let machine = MachineConfig::iwarp_message();
    let mapper_opts = if opts.quick {
        MapperOptions {
            sim_datasets: 120,
            measurement_runs: 1,
            ..MapperOptions::default()
        }
    } else {
        MapperOptions::default()
    };
    let t0 = Instant::now();
    let report = auto_map(&app, &machine, &mapper_opts).expect("auto_map radar");
    let wall = t0.elapsed().as_secs_f64();

    metrics.set(
        "e2e.radar.wall_s",
        metric(wall, "s", Direction::Lower, 0.25),
    );
    // Simulated quantities are virtual-time and deterministic given the
    // fixed seeds in MapperOptions — tight canaries.
    metrics.set(
        "e2e.radar.measured_throughput",
        metric(
            report.measured.throughput,
            "datasets/s",
            Direction::Higher,
            0.0,
        ),
    );
    metrics.set(
        "e2e.radar.pred_error_pct",
        metric(
            report.percent_difference().abs(),
            "%",
            Direction::Lower,
            3.0,
        ),
    );
    metrics.set(
        "e2e.radar.latency_p50_s",
        metric(report.measured.latency.p50, "s", Direction::Lower, 0.0),
    );
    metrics.set(
        "e2e.radar.latency_p99_s",
        metric(report.measured.latency.p99, "s", Direction::Lower, 0.0),
    );
    metrics.set(
        "e2e.radar.fit_error_pct",
        metric(
            report.fit_accuracy.mean_rel_error * 100.0,
            "%",
            Direction::Lower,
            1.0,
        ),
    );
}

fn bench_executor(metrics: &mut Value, opts: &BenchOptions) {
    let (n, datasets) = if opts.quick { (64, 12) } else { (128, 48) };
    let plan = PipelinePlan::new(vec![
        StagePlan::new(
            Stage::new("fft_rows", |mut m: Matrix, t| {
                fft_rows(&mut m, t);
                m
            }),
            1,
            2,
        ),
        StagePlan::new(
            Stage::new("fft_cols", |mut m: Matrix, t| {
                fft_cols(&mut m, t);
                m
            }),
            1,
            2,
        ),
        StagePlan::new(
            Stage::new("histogram", move |m: Matrix, t| {
                histogram(&m, 64, n as f64, t)
            }),
            1,
            1,
        ),
    ])
    .with_queue_depth(2);
    let inputs: Vec<pipemap_exec::Data> = (0..datasets)
        .map(|d| {
            let m = Matrix::from_fn(n, |r, c| {
                Complex::new(((r * 31 + c * 17 + d * 7) % 97) as f64 / 97.0, 0.0)
            });
            Box::new(m) as pipemap_exec::Data
        })
        .collect();
    let (outputs, stats) = run_pipeline(&plan, inputs);
    assert_eq!(outputs.len(), datasets);

    metrics.set(
        "exec.fft_hist.throughput",
        metric(stats.throughput, "datasets/s", Direction::Higher, 1.0),
    );
    metrics.set(
        "exec.fft_hist.elapsed_s",
        metric(stats.elapsed, "s", Direction::Lower, 0.05),
    );
}

/// The executor data-plane cases: open-loop sustained load on the micro
/// pipeline, optimised path (batched transport + buffer pool) against
/// the unbatched/unpooled reference data plane *measured in the same
/// run* — like the solver suite's serial reference, the speedup metric
/// compares two configurations of the same binary, so it cannot drift
/// with machine load between runs. Bit-identical outputs between the
/// two transports are asserted here on a small prefix (and across
/// replication degrees by the batching property test).
fn bench_executor_dataplane(metrics: &mut Value, opts: &BenchOptions) {
    let n = if opts.quick { 1_500 } else { 12_000 };
    let base = LoadConfig {
        duration_s: None,
        datasets: Some(n),
        stages: 4,
        size: 512,
        ..LoadConfig::default()
    };

    // Output bit-equality: the batched transport must reorder nothing.
    {
        let plain = LoadConfig {
            pool: false,
            ..base.clone()
        };
        let unbatched = LoadConfig {
            batch: 1,
            ..plain.clone()
        };
        let inputs = |cfg: &LoadConfig| -> Vec<pipemap_exec::Data> {
            let mut src = micro_source(cfg.size, None);
            (0..64).map(&mut src).collect()
        };
        let (a, _) = run_pipeline(&micro_plan(&plain), inputs(&plain));
        let (b, _) = run_pipeline(&micro_plan(&unbatched), inputs(&unbatched));
        for (i, (x, y)) in a.into_iter().zip(b).enumerate() {
            let x = x.downcast::<Vec<u64>>().expect("micro output");
            let y = y.downcast::<Vec<u64>>().expect("micro output");
            assert_eq!(x, y, "batched output diverged at dataset {i}");
        }
    }

    // Reference data plane first, optimised second, same process.
    let reference = run_configured_load(&base.clone().reference());
    let optimised = run_configured_load(&base);
    assert_eq!(reference.report.completed, n);
    assert_eq!(optimised.report.completed, n);

    let prefix = "exec.throughput_pipeline";
    metrics.set(
        format!("{prefix}.throughput"),
        metric(
            optimised.report.throughput,
            "datasets/s",
            Direction::Higher,
            500.0,
        ),
    );
    metrics.set(
        format!("{prefix}.reference_throughput"),
        metric(
            reference.report.throughput,
            "datasets/s",
            Direction::Higher,
            500.0,
        ),
    );
    metrics.set(
        format!("{prefix}.speedup"),
        metric(
            optimised.report.throughput / reference.report.throughput.max(1e-9),
            "x",
            Direction::Higher,
            1.0,
        ),
    );
    metrics.set(
        format!("{prefix}.latency_p99_s"),
        metric(optimised.report.latency.p99, "s", Direction::Lower, 0.005),
    );

    // Replicated stages under batched + pooled load: round-robin fan-out
    // means each destination's buffer fills at 1/r the rate, so this
    // case keeps the mean batch fill and pool hit rate honest when
    // messages split across instances.
    let replicated = run_configured_load(&LoadConfig {
        datasets: Some(n / 2),
        replicas: 3,
        queue_depth: 2,
        ..base
    });
    assert_eq!(replicated.report.completed, n / 2);
    let pool = replicated.pool.expect("pooled config");
    let prefix = "exec.throughput_batched";
    metrics.set(
        format!("{prefix}.throughput"),
        metric(
            replicated.report.throughput,
            "datasets/s",
            Direction::Higher,
            500.0,
        ),
    );
    metrics.set(
        format!("{prefix}.mean_batch_fill"),
        metric(
            replicated.report.stats.mean_batch_fill(),
            "datasets/msg",
            Direction::Higher,
            0.5,
        ),
    );
    metrics.set(
        format!("{prefix}.pool_hit_rate"),
        metric(pool.hit_rate(), "frac", Direction::Higher, 0.05),
    );
}

/// Framed-UDS transport A/B: the same drain-worker measurement taken
/// coalesced (batch 32, one `writev` per frame) and naive (one frame
/// per item), in the same process — like the data-plane case, the
/// speedup ratio compares two configurations of the same binary and
/// cannot drift with machine load between runs. Small payloads are
/// where coalescing matters (per-frame cost dominates), so the case
/// uses 64-byte items and asserts the ≥ 2x floor outright; the drain
/// worker's checksum (inside `measure_transport`) certifies that every
/// byte arrived intact on both arms. Probe-gated: skipped under
/// harnesses that cannot re-execute themselves as a worker (e.g. the
/// libtest runner), which is why the quick-suite unit test does not
/// require these metrics.
fn bench_transport_uds(metrics: &mut Value, opts: &BenchOptions) {
    if !pipemap_exec::worker_probe() {
        eprintln!("bench: skipping exec.transport_uds.* (no worker binary available)");
        return;
    }
    let messages = if opts.quick { 20_000 } else { 60_000 };
    let bytes = 64usize;
    let iters = if opts.quick { 2 } else { 3 };
    let best = |batch: usize| -> f64 {
        (0..iters)
            .map(|_| {
                pipemap_exec::measure_transport(bytes, messages, batch)
                    .expect("transport measurement")
                    .seconds_per_message
            })
            .fold(f64::INFINITY, f64::min)
    };
    let coalesced = best(32);
    let naive = best(1);
    let speedup = naive / coalesced.max(1e-12);
    assert!(
        speedup >= 2.0,
        "coalesced UDS transport only {speedup:.2}x over per-item frames \
         ({:.3}µs vs {:.3}µs per message) — below the 2x floor",
        coalesced * 1e6,
        naive * 1e6
    );
    let prefix = "exec.transport_uds";
    metrics.set(
        format!("{prefix}.per_msg_us"),
        metric(coalesced * 1e6, "us", Direction::Lower, 0.5),
    );
    metrics.set(
        format!("{prefix}.naive_per_msg_us"),
        metric(naive * 1e6, "us", Direction::Lower, 1.5),
    );
    metrics.set(
        format!("{prefix}.coalesce_speedup"),
        metric(speedup, "x", Direction::Higher, 1.0),
    );
}

/// Tail latency under sustained overload: the micro pipeline offered
/// 2x its measured capacity, once with backpressure only (every queue
/// full, p99 is the whole pipeline's buffered depth) and once with
/// bounded-queue shedding — the overload discipline keeps admitted
/// data sets' p99 near the unloaded service time by refusing the rest
/// at the door. Capacity is probed open-loop in the same process, so
/// the offered rate tracks the machine and the improvement ratio is an
/// A/B of the same binary under the same load.
fn bench_p99_under_overload(metrics: &mut Value, opts: &BenchOptions) {
    let duration = if opts.quick { 0.5 } else { 1.5 };
    let base = LoadConfig {
        duration_s: Some(if opts.quick { 0.3 } else { 0.5 }),
        datasets: None,
        stages: 4,
        size: 512,
        queue_depth: 64,
        ..LoadConfig::default()
    };
    let capacity = run_configured_load(&base).report.throughput;
    let offered = capacity * 2.0;
    let overload = LoadConfig {
        duration_s: Some(duration),
        rate: Some(offered),
        ..base
    };
    let unbounded = run_configured_load(&overload);
    let shed = run_configured_load(&LoadConfig {
        shed_queue: Some(256),
        ..overload
    });
    assert!(
        shed.report.shed > 0,
        "2x overload with a 256-deep bound shed nothing (capacity {capacity:.0}/s)"
    );
    assert!(shed.report.completed > 0 && unbounded.report.completed > 0);
    let p99_shed = shed.report.latency.p99;
    let p99_unbounded = unbounded.report.latency.p99;
    let prefix = "exec.p99_under_overload";
    metrics.set(
        format!("{prefix}.p99_s"),
        metric(p99_shed, "s", Direction::Lower, 0.02),
    );
    metrics.set(
        format!("{prefix}.unbounded_p99_s"),
        metric(p99_unbounded, "s", Direction::Lower, 0.2),
    );
    // The ratio swings with co-located machine load (observed 5-16x on
    // the CI box), so the slack is sized to the spread, not the mean.
    metrics.set(
        format!("{prefix}.improvement_x"),
        metric(
            p99_unbounded / p99_shed.max(1e-9),
            "x",
            Direction::Higher,
            8.0,
        ),
    );
    metrics.set(
        format!("{prefix}.shed_frac"),
        metric(
            shed.report.shed as f64 / (shed.report.offered as f64).max(1.0),
            "frac",
            Direction::Higher,
            1.0,
        ),
    );
}

/// Journey-tracing overhead on the sustained-load micro pipeline: the
/// same configuration is run with sampled journey recording enabled and
/// disabled *in the same process*, so the overhead fraction compares two
/// modes of the same binary and cannot drift with machine load between
/// runs. The committed baseline pins `overhead_frac` near zero with a
/// 2% slack — sampled tracing costing more than that is a regression.
/// Cost of decision-provenance recording inside the clustering DP:
/// the same unpruned solve with and without the recorder. Both arms run
/// at `prune: false` because that is what the provenance entry point
/// forces (pruned cells have no exact runner-ups), so the ratio isolates
/// the recorder itself rather than the pruning it disables. Identical
/// optima are asserted; the committed baseline pins the recording tax
/// under a 5% wall-clock overhead.
fn bench_provenance_overhead(metrics: &mut Value, opts: &BenchOptions) {
    let (rows, cols, k) = if opts.quick { (4, 8, 6) } else { (8, 16, 8) };
    let machine = MachineConfig::iwarp_message().with_geometry(rows, cols);
    let chain = synthetic_chain(ChainFlavor::Alternating, k);
    let problem = pipemap_machine::synthesize_problem(&chain, &machine);
    let off = SolveOptions {
        prune: false,
        ..SolveOptions::default()
    };

    // Paired trials with alternating order, scored by the median of
    // per-pair wall ratios (same reasoning as the journey-overhead
    // case: a couple-percent delta needs noise cancellation).
    let pairs = if opts.quick { 3 } else { 5 };
    let mut wall_off: f64 = f64::INFINITY;
    let mut wall_on: f64 = f64::INFINITY;
    let mut ratios = Vec::new();
    let mut thr_pair = (0.0f64, 0.0f64);
    for pair in 0..pairs {
        let run_off = || {
            time_best(1, || {
                dp_mapping_with(&problem, &off).expect("dp_mapping solves")
            })
        };
        let run_on = || {
            time_best(1, || {
                dp_mapping_provenance(&problem, &off).expect("dp_mapping solves")
            })
        };
        let ((b, sol_off), (t, (sol_on, prov))) = if pair % 2 == 0 {
            let b = run_off();
            (b, run_on())
        } else {
            let t = run_on();
            (run_off(), t)
        };
        assert!(
            !prov.cells.is_empty(),
            "provenance arm recorded no decision cells"
        );
        thr_pair = (sol_off.throughput, sol_on.throughput);
        wall_off = wall_off.min(b);
        wall_on = wall_on.min(t);
        ratios.push(t / b.max(1e-9));
    }
    assert_eq!(
        thr_pair.0.to_bits(),
        thr_pair.1.to_bits(),
        "provenance recording changed the optimum"
    );
    ratios.sort_by(f64::total_cmp);
    let median_ratio = ratios[ratios.len() / 2];
    let prefix = "solver.provenance_overhead";
    metrics.set(
        format!("{prefix}.wall_s"),
        metric(wall_on, "s", Direction::Lower, 0.1),
    );
    metrics.set(
        format!("{prefix}.baseline_wall_s"),
        metric(wall_off, "s", Direction::Lower, 0.1),
    );
    metrics.set(
        format!("{prefix}.overhead_frac"),
        metric(
            (median_ratio - 1.0).max(0.0),
            "frac",
            Direction::Lower,
            0.05,
        ),
    );
}

/// Throughput tax of an observer on the sustained-load pipeline:
/// `run_observed` runs the given load with the observer attached and
/// returns its throughput; publishes `<prefix>.throughput`,
/// `.baseline_throughput` and `.overhead_frac`.
///
/// Longer streams than the dataplane case: the A/B delta being bounded
/// here is a couple of percent, which runs of a few milliseconds cannot
/// resolve above scheduler noise. Paired trials with alternating order,
/// scored by the median of per-pair throughput ratios: a single short
/// run cannot resolve a couple-percent delta above scheduler noise on a
/// small CI box, a pair cancels drift slower than one run, alternating
/// order cancels warmup bias, and the median rejects the odd preempted
/// outlier.
fn bench_observer_overhead(
    metrics: &mut Value,
    opts: &BenchOptions,
    prefix: &str,
    run_observed: impl Fn(&LoadConfig) -> f64,
) {
    let n = if opts.quick { 40_000 } else { 120_000 };
    let base = LoadConfig {
        duration_s: None,
        datasets: Some(n),
        stages: 4,
        size: 512,
        ..LoadConfig::default()
    };
    let run_base = |base: &LoadConfig| {
        let r = run_configured_load(base);
        assert_eq!(r.report.completed, n);
        r.report.throughput
    };

    let mut thr_base: f64 = 0.0;
    let mut thr_observed: f64 = 0.0;
    let mut ratios = Vec::new();
    for pair in 0..5 {
        let (b, t) = if pair % 2 == 0 {
            let b = run_base(&base);
            (b, run_observed(&base))
        } else {
            let t = run_observed(&base);
            (run_base(&base), t)
        };
        thr_base = thr_base.max(b);
        thr_observed = thr_observed.max(t);
        ratios.push(t / b.max(1e-9));
    }
    ratios.sort_by(f64::total_cmp);
    let median_ratio = ratios[ratios.len() / 2];
    metrics.set(
        format!("{prefix}.throughput"),
        metric(thr_observed, "datasets/s", Direction::Higher, 500.0),
    );
    metrics.set(
        format!("{prefix}.baseline_throughput"),
        metric(thr_base, "datasets/s", Direction::Higher, 500.0),
    );
    metrics.set(
        format!("{prefix}.overhead_frac"),
        metric(
            (1.0 - median_ratio).max(0.0),
            "frac",
            Direction::Lower,
            0.02,
        ),
    );
}

/// Cost of sampled journey tracing (1 in 32) versus a plain run of the
/// same load.
fn bench_journey_overhead(metrics: &mut Value, opts: &BenchOptions) {
    bench_observer_overhead(metrics, opts, "obs.journey_overhead", |base| {
        let journeys = pipemap_obs::JourneyCollector::new(
            pipemap_obs::JourneyConfig::default().with_sample(32),
        );
        let r = run_configured_load(&LoadConfig {
            journeys: Some(journeys.clone()),
            ..base.clone()
        });
        assert_eq!(Some(r.report.completed), base.datasets);
        // The traced runs must actually have produced journeys, or the
        // A/B comparison is vacuous.
        let stitched = pipemap_obs::stitch(&journeys.drain());
        assert!(
            stitched.iter().any(|j| j.complete(base.stages)),
            "traced run produced no complete journeys"
        );
        r.report.throughput
    });
}

/// Cost of the full live observatory — sampled journeys, SLO/alert
/// event log, and a background thread keeping each stage's decayed
/// service window from the stream — versus a plain run of the same
/// load; the committed baseline pins it under a 2% throughput tax.
fn bench_estimator_overhead(metrics: &mut Value, opts: &BenchOptions) {
    bench_observer_overhead(metrics, opts, "obs.estimator_overhead", |base| {
        let journeys = pipemap_obs::JourneyCollector::new(
            pipemap_obs::JourneyConfig::default().with_sample(32),
        );
        let publisher = pipemap_obs::ModelPublisher::default();
        let observatory = crate::observatory::Observatory::new(vec![1; base.stages], publisher);
        let handle = crate::observatory::spawn_observatory(
            journeys.clone(),
            observatory,
            std::time::Duration::from_millis(250),
        );
        let r = run_configured_load(&LoadConfig {
            journeys: Some(journeys.clone()),
            events: Some(pipemap_obs::EventLog::default()),
            slo: Some(pipemap_obs::SloConfig::default()),
            ..base.clone()
        });
        let observatory = handle.stop();
        assert_eq!(Some(r.report.completed), base.datasets);
        // The observed runs must actually have exercised the windows,
        // or the A/B comparison is vacuous.
        assert!(
            observatory.ingested() > 0,
            "observatory ingested no journeys during the observed run"
        );
        r.report.throughput
    });
}

/// Cost of the cross-process telemetry plane on the UDS data plane:
/// the same worker-process pipeline run with per-worker delta shipping
/// on (at the 100ms period observed runs use) and off. Same
/// paired alternating-order median-of-ratios scoring as
/// [`bench_observer_overhead`]; the committed baseline pins the
/// sidecar's throughput tax — under 3% on a quiet machine, with the
/// regression slack sized to the CI box's noise floor (see below).
/// Probe-gated like the transport case:
/// skipped under harnesses that cannot re-execute themselves as a
/// worker (e.g. the libtest runner).
fn bench_telemetry_overhead(metrics: &mut Value, _opts: &BenchOptions) {
    if !pipemap_exec::worker_probe() {
        eprintln!("bench: skipping exec.telemetry_overhead.* (no worker binary available)");
        return;
    }
    let base = LoadConfig {
        duration_s: Some(0.5),
        datasets: None,
        stages: 4,
        size: 512,
        transport: TransportKind::Uds,
        ..LoadConfig::default()
    };

    let run_plain = |base: &LoadConfig| {
        let r = run_configured_load(base);
        assert!(r.report.completed > 0, "plain uds run completed nothing");
        r.report.throughput
    };
    let run_telemetry = |base: &LoadConfig| {
        let r = run_configured_load(&LoadConfig {
            telemetry_us: 100_000,
            ..base.clone()
        });
        assert!(
            r.report.completed > 0,
            "telemetry uds run completed nothing"
        );
        // The telemetry arm must actually have shipped worker series
        // into the parent registry, or the A/B comparison is vacuous.
        let snap = pipemap_obs::global_registry()
            .expect("bench installs a global registry")
            .snapshot();
        assert!(
            snap.counters
                .iter()
                .any(|(k, _)| k.starts_with(pipemap_obs::names::EXEC_WORKER_PREFIX)),
            "telemetry arm shipped no exec.worker.* series"
        );
        r.report.throughput
    };

    // The uds arms are the noisiest A/B in the suite: 5 processes on
    // arbitrary CI hardware, where a preemption burst can shave 5%+ off
    // either arm of a pair. Preemption only ever *lowers* throughput,
    // so each arm takes the best of two runs — the max estimates what
    // the arm can do, the ratio of maxes estimates the true tax — and
    // the median over 5 pairs rejects what best-of-2 lets through.
    // Both modes run the full schedule; a quick-mode median of 3 short
    // windows lets one preempted pair set the score.
    let best2 = |run: &dyn Fn(&LoadConfig) -> f64| run(&base).max(run(&base));
    let pairs = 5;
    let mut thr_base: f64 = 0.0;
    let mut thr_telemetry: f64 = 0.0;
    let mut ratios = Vec::new();
    for pair in 0..pairs {
        let (b, t) = if pair % 2 == 0 {
            let b = best2(&run_plain);
            (b, best2(&run_telemetry))
        } else {
            let t = best2(&run_telemetry);
            (best2(&run_plain), t)
        };
        thr_base = thr_base.max(b);
        thr_telemetry = thr_telemetry.max(t);
        ratios.push(t / b.max(1e-9));
    }
    ratios.sort_by(f64::total_cmp);
    let median_ratio = ratios[ratios.len() / 2];
    let prefix = "exec.telemetry_overhead";
    metrics.set(
        format!("{prefix}.throughput"),
        metric(thr_telemetry, "datasets/s", Direction::Higher, 500.0),
    );
    metrics.set(
        format!("{prefix}.baseline_throughput"),
        metric(thr_base, "datasets/s", Direction::Higher, 500.0),
    );
    // On a quiet machine the tax sits under 3%; on the loaded 1-core CI
    // box the measurement itself resolves no finer than ~8% (the plain
    // arm's capacity drifts that much between suite runs), so — like
    // p99_under_overload.improvement_x — the slack is sized to the
    // box's spread, not the quiet-machine mean. A gross regression
    // (say a 20% tax) still flags.
    metrics.set(
        format!("{prefix}.overhead_frac"),
        metric(
            (1.0 - median_ratio).max(0.0),
            "frac",
            Direction::Lower,
            0.08,
        ),
    );
}

/// Run the whole suite and return the bench document.
pub fn run_bench_suite(opts: &BenchOptions) -> Value {
    // Solver counters flow through the global registry; install one if
    // the process has none yet (install is first-wins, so this is safe
    // even if a server already installed its own).
    pipemap_obs::install_global(pipemap_obs::Registry::new());
    let iters = if opts.quick { 1 } else { 3 };

    let mut metrics = Value::object();

    let machine = if opts.quick {
        MachineConfig::iwarp_message().with_geometry(4, 4)
    } else {
        MachineConfig::iwarp_message()
    };
    let k = if opts.quick { 6 } else { 8 };
    let synth = synthetic_chain(ChainFlavor::Alternating, k);
    let synth_problem = pipemap_machine::synthesize_problem(&synth, &machine);
    bench_solvers(&mut metrics, "synthetic", &synth_problem, iters);

    let radar_problem = pipemap_machine::synthesize_problem(
        &radar(RadarConfig::paper()),
        &MachineConfig::iwarp_message(),
    );
    bench_solvers(&mut metrics, "radar", &radar_problem, iters);

    bench_scaled_dp(&mut metrics, opts);
    bench_resolve_speedup(&mut metrics, opts);
    bench_provenance_overhead(&mut metrics, opts);
    bench_end_to_end(&mut metrics, opts);
    bench_executor(&mut metrics, opts);
    bench_executor_dataplane(&mut metrics, opts);
    bench_transport_uds(&mut metrics, opts);
    bench_p99_under_overload(&mut metrics, opts);
    bench_journey_overhead(&mut metrics, opts);
    bench_estimator_overhead(&mut metrics, opts);
    bench_telemetry_overhead(&mut metrics, opts);

    let mut doc = Value::object();
    doc.set("schema", BENCH_SCHEMA);
    doc.set("git_sha", git_sha());
    doc.set("quick", opts.quick);
    doc.set("iters", iters);
    doc.set(
        "threads_available",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );
    doc.set("metrics", metrics);
    doc
}

/// Parse a `pipemap-bench/vN` schema string into its version number.
fn bench_schema_version(schema: &str) -> Option<u64> {
    schema
        .strip_prefix("pipemap-bench/v")
        .and_then(|v| v.parse().ok())
}

/// Check that `doc` is a structurally valid bench document.
///
/// Schema versions are compared numerically so a stale committed baseline
/// fails with an actionable message instead of a generic mismatch.
pub fn validate_bench(doc: &Value) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing 'schema' string")?;
    if schema != BENCH_SCHEMA {
        let current = bench_schema_version(BENCH_SCHEMA).expect("BENCH_SCHEMA is well-formed");
        return Err(match bench_schema_version(schema) {
            Some(v) if v < current => format!(
                "schema '{schema}' is older than the current '{BENCH_SCHEMA}' — \
                 regenerate the baseline with `pipemap bench`"
            ),
            Some(_) => format!(
                "schema '{schema}' is newer than '{BENCH_SCHEMA}' and not supported \
                 by this binary — update the tool"
            ),
            None => format!("schema '{schema}' is not the supported '{BENCH_SCHEMA}'"),
        });
    }
    doc.get("git_sha")
        .and_then(Value::as_str)
        .ok_or("missing 'git_sha' string")?;
    let metrics = doc
        .get("metrics")
        .ok_or("missing 'metrics' object")?
        .as_object()
        .ok_or("'metrics' is not an object")?;
    if metrics.is_empty() {
        return Err("'metrics' is empty".into());
    }
    for (name, m) in metrics {
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("metric '{name}': missing numeric 'value'"))?;
        if !value.is_finite() {
            return Err(format!("metric '{name}': value {value} is not finite"));
        }
        m.get("unit")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("metric '{name}': missing 'unit'"))?;
        let dir = m
            .get("direction")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("metric '{name}': missing 'direction'"))?;
        if Direction::parse(dir).is_none() {
            return Err(format!(
                "metric '{name}': direction '{dir}' is neither 'lower' nor 'higher'"
            ));
        }
        let slack = m
            .get("slack")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("metric '{name}': missing numeric 'slack'"))?;
        if !slack.is_finite() || slack < 0.0 {
            return Err(format!("metric '{name}': slack {slack} is invalid"));
        }
    }
    Ok(())
}

/// Verdict for one metric in a comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within threshold/slack.
    Ok,
    /// Changed beyond threshold in the good direction.
    Improved,
    /// Changed beyond threshold in the bad direction.
    Regressed,
    /// Present in the baseline but missing from the current run — counted
    /// as a regression so metrics cannot silently disappear.
    Missing,
    /// Present only in the current run (informational).
    New,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Missing => "MISSING",
            Verdict::New => "new",
        }
    }
}

/// One row of a comparison.
#[derive(Clone, Debug)]
pub struct MetricVerdict {
    /// Metric name.
    pub name: String,
    /// The metric's unit, for rendering values without a schema lookup.
    pub unit: String,
    /// Baseline value (`None` for [`Verdict::New`]).
    pub baseline: Option<f64>,
    /// Current value (`None` for [`Verdict::Missing`]).
    pub current: Option<f64>,
    /// Signed relative change in percent (current vs baseline).
    pub change_pct: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Result of [`compare_bench`].
#[derive(Clone, Debug)]
pub struct CompareResult {
    /// Per-metric rows, in baseline order (new metrics appended).
    pub verdicts: Vec<MetricVerdict>,
    /// Relative threshold the verdicts used.
    pub threshold: f64,
}

impl CompareResult {
    /// Names of the regressed (or missing) metrics.
    pub fn regressions(&self) -> Vec<&str> {
        self.verdicts
            .iter()
            .filter(|v| matches!(v.verdict, Verdict::Regressed | Verdict::Missing))
            .map(|v| v.name.as_str())
            .collect()
    }

    /// One line per regressed or missing metric, naming the unit and
    /// both values — so the failure message is actionable without
    /// rerunning with `--table`.
    pub fn regression_details(&self) -> Vec<String> {
        self.verdicts
            .iter()
            .filter(|v| matches!(v.verdict, Verdict::Regressed | Verdict::Missing))
            .map(|v| match (v.baseline, v.current) {
                (Some(b), Some(c)) => format!(
                    "{}: {b:.4} -> {c:.4} {} ({:+.1}%)",
                    v.name, v.unit, v.change_pct
                ),
                (Some(b), None) => {
                    format!("{}: {b:.4} {} -> missing from current run", v.name, v.unit)
                }
                _ => format!("{}: no baseline value", v.name),
            })
            .collect()
    }

    /// Names of metrics present in the baseline but absent from the
    /// current run (a subset of [`regressions`](Self::regressions)).
    pub fn missing(&self) -> Vec<&str> {
        self.verdicts
            .iter()
            .filter(|v| v.verdict == Verdict::Missing)
            .map(|v| v.name.as_str())
            .collect()
    }

    /// Render the comparison as an aligned text table plus a one-line
    /// summary.
    pub fn render(&self) -> String {
        let name_w = self
            .verdicts
            .iter()
            .map(|v| v.name.len())
            .max()
            .unwrap_or(6)
            .max(6);
        let mut out = format!(
            "{:<name_w$}  {:>12}  {:>12}  {:>8}  verdict\n",
            "metric", "baseline", "current", "change"
        );
        let num = |v: Option<f64>| match v {
            Some(x) => format!("{x:.4}"),
            None => "-".to_string(),
        };
        for v in &self.verdicts {
            let change = if v.baseline.is_some() && v.current.is_some() {
                format!("{:+.1}%", v.change_pct)
            } else {
                "-".to_string()
            };
            out.push_str(&format!(
                "{:<name_w$}  {:>12}  {:>12}  {:>8}  {}\n",
                v.name,
                num(v.baseline),
                num(v.current),
                change,
                v.verdict.as_str()
            ));
        }
        let regressed = self.regressions().len();
        let improved = self
            .verdicts
            .iter()
            .filter(|v| v.verdict == Verdict::Improved)
            .count();
        out.push_str(&format!(
            "\n{} metrics compared at threshold {:.0}%: {} regressed, {} improved\n",
            self.verdicts
                .iter()
                .filter(|v| v.verdict != Verdict::New)
                .count(),
            self.threshold * 100.0,
            regressed,
            improved
        ));
        // A missing metric is easy to misread as "covered": name the
        // culprits so the failure is actionable from the output alone.
        let missing = self.missing();
        if !missing.is_empty() {
            out.push_str(&format!(
                "missing from the current run: {}\n",
                missing.join(", ")
            ));
        }
        out
    }
}

fn metric_fields(m: &Value) -> Option<(f64, Direction, f64)> {
    Some((
        m.get("value").and_then(Value::as_f64)?,
        Direction::parse(m.get("direction").and_then(Value::as_str)?)?,
        m.get("slack").and_then(Value::as_f64).unwrap_or(0.0),
    ))
}

/// Compare `current` against `baseline`. `threshold` is the relative
/// change (fraction of the baseline value) beyond which a change counts;
/// a change must also exceed the metric's absolute `slack` to matter.
pub fn compare_bench(
    current: &Value,
    baseline: &Value,
    threshold: Option<f64>,
) -> Result<CompareResult, String> {
    validate_bench(baseline).map_err(|e| format!("baseline: {e}"))?;
    validate_bench(current).map_err(|e| format!("current: {e}"))?;
    let threshold = threshold.unwrap_or(DEFAULT_THRESHOLD);
    let base_metrics = baseline.get("metrics").unwrap().as_object().unwrap();
    let cur_metrics = current.get("metrics").unwrap().as_object().unwrap();

    let unit_of = |m: &Value| {
        m.get("unit")
            .and_then(Value::as_str)
            .expect("validated")
            .to_string()
    };
    let mut verdicts = Vec::new();
    for (name, bm) in base_metrics {
        let (bv, bdir, bslack) = metric_fields(bm).expect("validated");
        let Some(cm) = cur_metrics.iter().find(|(n, _)| n == name).map(|(_, m)| m) else {
            verdicts.push(MetricVerdict {
                name: name.clone(),
                unit: unit_of(bm),
                baseline: Some(bv),
                current: None,
                change_pct: 0.0,
                verdict: Verdict::Missing,
            });
            continue;
        };
        let (cv, _, cslack) = metric_fields(cm).expect("validated");
        let slack = bslack.max(cslack);
        // Positive `worse` means the current value moved in the bad
        // direction by that amount.
        let worse = match bdir {
            Direction::Lower => cv - bv,
            Direction::Higher => bv - cv,
        };
        let rel = worse / bv.abs().max(1e-12);
        let verdict = if worse > slack && rel > threshold {
            Verdict::Regressed
        } else if -worse > slack && -rel > threshold {
            Verdict::Improved
        } else {
            Verdict::Ok
        };
        verdicts.push(MetricVerdict {
            name: name.clone(),
            unit: unit_of(bm),
            baseline: Some(bv),
            current: Some(cv),
            change_pct: (cv - bv) / bv.abs().max(1e-12) * 100.0,
            verdict,
        });
    }
    for (name, cm) in cur_metrics {
        if base_metrics.iter().any(|(n, _)| n == name) {
            continue;
        }
        let (cv, _, _) = metric_fields(cm).expect("validated");
        verdicts.push(MetricVerdict {
            name: name.clone(),
            unit: unit_of(cm),
            baseline: None,
            current: Some(cv),
            change_pct: 0.0,
            verdict: Verdict::New,
        });
    }
    Ok(CompareResult {
        verdicts,
        threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(entries: &[(&str, f64, Direction, f64)]) -> Value {
        let mut metrics = Value::object();
        for (name, value, dir, slack) in entries {
            metrics.set(*name, metric(*value, "u", *dir, *slack));
        }
        let mut d = Value::object();
        d.set("schema", BENCH_SCHEMA);
        d.set("git_sha", "test");
        d.set("metrics", metrics);
        d
    }

    #[test]
    fn compare_flags_injected_regression() {
        let baseline = doc(&[
            ("a.wall_s", 1.0, Direction::Lower, 0.02),
            ("b.throughput", 100.0, Direction::Higher, 0.0),
        ]);
        // a regresses (2x slower), b regresses (half throughput).
        let current = doc(&[
            ("a.wall_s", 2.0, Direction::Lower, 0.02),
            ("b.throughput", 50.0, Direction::Higher, 0.0),
        ]);
        let r = compare_bench(&current, &baseline, None).unwrap();
        assert_eq!(r.regressions(), vec!["a.wall_s", "b.throughput"]);
        let rendered = r.render();
        assert!(rendered.contains("REGRESSED"), "{rendered}");
        // The detail lines carry unit and both values, so a CI failure
        // message is actionable without rerunning with --table.
        let details = r.regression_details();
        assert_eq!(details.len(), 2);
        assert_eq!(details[0], "a.wall_s: 1.0000 -> 2.0000 u (+100.0%)");
        assert_eq!(details[1], "b.throughput: 100.0000 -> 50.0000 u (-50.0%)");
    }

    #[test]
    fn compare_respects_direction_slack_and_threshold() {
        let baseline = doc(&[
            ("fast.wall_s", 0.010, Direction::Lower, 0.05),
            ("thr", 100.0, Direction::Higher, 0.0),
        ]);
        // fast.wall_s triples but stays inside the 50ms slack; thr improves.
        let current = doc(&[
            ("fast.wall_s", 0.030, Direction::Lower, 0.05),
            ("thr", 200.0, Direction::Higher, 0.0),
        ]);
        let r = compare_bench(&current, &baseline, None).unwrap();
        assert!(r.regressions().is_empty(), "{:?}", r.verdicts);
        assert_eq!(r.verdicts[1].verdict, Verdict::Improved);
        // A tighter threshold alone still cannot beat the slack...
        let r = compare_bench(&current, &baseline, Some(0.01)).unwrap();
        assert!(r.regressions().is_empty());
        // ...but without slack it is a regression.
        let baseline = doc(&[("fast.wall_s", 0.010, Direction::Lower, 0.0)]);
        let current = doc(&[("fast.wall_s", 0.030, Direction::Lower, 0.0)]);
        let r = compare_bench(&current, &baseline, None).unwrap();
        assert_eq!(r.regressions(), vec!["fast.wall_s"]);
    }

    #[test]
    fn missing_metric_is_a_regression_and_new_is_not() {
        let baseline = doc(&[("gone", 1.0, Direction::Lower, 0.0)]);
        let current = doc(&[("fresh", 1.0, Direction::Lower, 0.0)]);
        let r = compare_bench(&current, &baseline, None).unwrap();
        assert_eq!(r.regressions(), vec!["gone"]);
        assert_eq!(r.missing(), vec!["gone"]);
        assert_eq!(r.verdicts.len(), 2);
        assert_eq!(r.verdicts[1].verdict, Verdict::New);
        // The rendered report must name the missing metric, not just
        // count it as a regression.
        let rendered = r.render();
        assert!(
            rendered.contains("missing from the current run: gone"),
            "{rendered}"
        );
        assert_eq!(
            r.regression_details(),
            vec!["gone: 1.0000 u -> missing from current run".to_string()]
        );
    }

    #[test]
    fn validate_catches_malformed_documents() {
        assert!(validate_bench(&Value::object()).is_err());
        let mut d = doc(&[("m", 1.0, Direction::Lower, 0.0)]);
        assert!(validate_bench(&d).is_ok());
        d.set("schema", "pipemap-bench/v999");
        assert!(validate_bench(&d).is_err());
        // Bad direction string.
        let mut metrics = Value::object();
        let mut m = Value::object();
        m.set("value", 1.0);
        m.set("unit", "s");
        m.set("direction", "sideways");
        m.set("slack", 0.0);
        metrics.set("m", m);
        let mut d = Value::object();
        d.set("schema", BENCH_SCHEMA);
        d.set("git_sha", "x");
        d.set("metrics", metrics);
        assert!(validate_bench(&d).is_err());
    }

    #[test]
    fn validate_distinguishes_stale_future_and_garbage_schemas() {
        let mut d = doc(&[("m", 1.0, Direction::Lower, 0.0)]);
        d.set("schema", "pipemap-bench/v0");
        let err = validate_bench(&d).unwrap_err();
        assert!(err.contains("older than"), "{err}");
        assert!(err.contains("regenerate the baseline"), "{err}");

        d.set("schema", "pipemap-bench/v999");
        let err = validate_bench(&d).unwrap_err();
        assert!(err.contains("newer than"), "{err}");

        d.set("schema", "not-a-bench-doc/v1");
        let err = validate_bench(&d).unwrap_err();
        assert!(err.contains("not the supported"), "{err}");
    }

    #[test]
    fn quick_suite_produces_a_valid_self_comparable_document() {
        let doc = run_bench_suite(&BenchOptions { quick: true });
        validate_bench(&doc).expect("suite output validates");
        // Round-trips through JSON.
        let parsed = Value::parse(&doc.to_json_pretty()).unwrap();
        validate_bench(&parsed).unwrap();
        // Self-comparison has no regressions (identical values).
        let r = compare_bench(&parsed, &doc, None).unwrap();
        assert!(r.regressions().is_empty(), "{}", r.render());
        // The suite covers all three solvers, e2e, and the executor.
        let metrics = parsed.get("metrics").unwrap().as_object().unwrap();
        for prefix in [
            "solver.greedy.synthetic.",
            "solver.dp_assignment.synthetic.",
            "solver.dp_mapping.synthetic.",
            "solver.greedy.radar.",
            "solver.dp_assignment.radar.",
            "solver.dp_mapping.radar.",
            "solver.dp_mapping_p128.",
            "solver.dp_assignment_p256.",
            "e2e.radar.",
            "exec.fft_hist.",
            "exec.throughput_pipeline.",
            "exec.throughput_batched.",
            "exec.p99_under_overload.",
            "obs.journey_overhead.",
            "obs.estimator_overhead.",
        ] {
            assert!(
                metrics.iter().any(|(n, _)| n.starts_with(prefix)),
                "no metric with prefix {prefix}"
            );
        }
    }
}
