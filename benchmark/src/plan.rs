//! The planning workloads: `plan_cold`, `plan_replan`, `plan_automap`.
//!
//! Each times calls into the solver stack's public functions from
//! outside, checks every answer against a reference that does not come
//! from the code being timed, and reports what the returned plans would
//! deliver (throughput, latency) by simulating them afterwards.

use std::time::Instant;

use pipemap_apps::{
    fft_hist, radar, stereo, ChainFlavor, FftHistConfig, RadarConfig, StereoConfig,
};
use pipemap_chain::{validate, CostTable, Mapping, Problem};
use pipemap_core::{
    brute_force_mapping, cluster_heuristic, dp_assignment_with, dp_mapping, dp_mapping_provenance,
    dp_mapping_with, reprice_problem, CostDeltas, GreedyOptions, ResolveArtifact, ResolveMechanism,
    Solution, SolveError, SolveOptions,
};
use pipemap_machine::{
    feasible_optimal, is_feasible, synthesize_problem, AppWorkload, FeasibleSearch, MachineConfig,
};
use pipemap_obs::names::{SOLVER_CELLS_PRUNED, SOLVER_CELLS_TOTAL};
use pipemap_profile::training::fit_problem;
use pipemap_profile::{model_accuracy, TrainingConfig};
use pipemap_sim::{replicate_simulation, simulate, SimConfig, SimResult};
use pipemap_tool::{auto_map, parse_spec, render_spec, MapperOptions, MappingReport};

use crate::expected::bits_text;
use crate::gen::{drift_stream, jittered_chain, InputHash, Rng, FLAVORS};
use crate::harness::{
    counter, finish, install_registry, overhead_frac, passes_with_setup, Ctx, Repeats,
};
use crate::report::Outcome;
use crate::stats::{geomean, mean, median};
use crate::trace::Tracer;

/// Chain length of every synthetic problem.
const K: usize = 8;
/// Work sizes are jittered by ±20 % per task and edge.
const JITTER: f64 = 0.2;
/// Data sets pushed through the simulator per returned mapping.
const SIM_DATASETS: usize = 200;
/// The paper's Table 1 for FFT-Hist 256 on the message-passing iWarp:
/// `{colffts}×8@3 | {rowffts+hist}×10@4`, in `Mapping::to_compact_string` form.
pub const TABLE1_MAPPING: &str = "0-0:8x3,1-2:10x4";

/// What the plans returned by one workload would deliver, from simulating
/// each of them (outside the timed section).
#[derive(Default)]
struct Delivered {
    throughput: Vec<f64>,
    p50: Vec<f64>,
    p90: Vec<f64>,
    simulate_s: f64,
    datasets: usize,
}

impl Delivered {
    fn simulate(&mut self, problem: &Problem, mapping: &Mapping) {
        let t0 = Instant::now();
        let r = simulate(
            &problem.chain,
            mapping,
            &SimConfig::with_datasets(SIM_DATASETS),
        );
        self.simulate_s += t0.elapsed().as_secs_f64();
        self.datasets += SIM_DATASETS;
        self.push(&r);
    }

    fn push(&mut self, r: &SimResult) {
        self.throughput.push(r.throughput);
        self.p50.push(r.latency.p50);
        self.p90.push(r.latency.p90);
    }

    fn report(&self, out: &mut Outcome) {
        out.set("throughput_dps", geomean(&self.throughput));
        out.set("latency_p50_s", geomean(&self.p50));
        out.set("latency_p90_s", geomean(&self.p90));
        out.set("sim.simulate_s", self.simulate_s);
        out.set(
            "sim.datasets_per_s",
            self.datasets as f64 / self.simulate_s.max(1e-12),
        );
        out.set("loadgen.latency_samples", self.p50.len() as f64);
    }
}

/// Checks every returned solution must pass whatever the workload:
/// the reported throughput is what `chain::throughput` says about the
/// mapping, the mapping is valid, and it fits the machine. Returns the
/// relative error between reported and re-evaluated throughput.
fn check_solution(out: &mut Outcome, what: &str, problem: &Problem, sol: &Solution) -> f64 {
    let again = pipemap_chain::throughput(&problem.chain, &sol.mapping);
    out.check(again.to_bits() == sol.throughput.to_bits(), || {
        format!(
            "{what}: reported {} but re-evaluates to {again}",
            sol.throughput
        )
    });
    out.check(
        sol.mapping.total_procs() <= problem.total_procs && validate(problem, &sol.mapping).is_ok(),
        || {
            format!(
                "{what}: mapping {} is invalid",
                sol.mapping.to_compact_string()
            )
        },
    );
    ((sol.throughput - again) / again).abs()
}

/// `got` against a committed optimum, bit for bit; pushes the ratio onto
/// `ratios` when the value is an answer whose quality is being judged.
fn check_committed(
    ctx: &Ctx,
    out: &mut Outcome,
    ratios: Option<&mut Vec<f64>>,
    key: &str,
    got: f64,
) {
    let Some(expected) = &ctx.expected else {
        return;
    };
    match expected.f64(key) {
        Some(want) => {
            out.check(want.to_bits() == got.to_bits(), || {
                format!("{key}: got {got}, committed {want}")
            });
            if let Some(ratios) = ratios {
                ratios.push(got / want);
            }
        }
        None => out.check(false, || {
            format!("{key}: seed {} has no such expectation", ctx.seed)
        }),
    }
}

/// `got` against a committed string (a mapping, an input hash).
fn check_committed_text(ctx: &Ctx, out: &mut Outcome, key: &str, got: &str) {
    if let Some(expected) = &ctx.expected {
        out.check(expected.text(key) == Some(got), || {
            format!("{key}: got {got}, committed {:?}", expected.text(key))
        });
    }
}

fn check_input_hash(ctx: &Ctx, out: &mut Outcome, workload: &str, hash: InputHash) {
    out.set("loadgen.input_hash", hash.low32());
    check_committed_text(ctx, out, &format!("{workload}.input_hash"), &hash.hex());
}

/// Every pass of a planning workload must give the same answers, bit for bit.
fn check_passes_agree<T: PartialEq>(out: &mut Outcome, mut answers: impl Iterator<Item = T>) {
    let first = answers.next();
    for (p, other) in answers.enumerate() {
        out.check(Some(&other) == first.as_ref(), || {
            format!("pass {} answered differently from pass 0", p + 1)
        });
    }
}

/// `pred_error_frac` and the end-to-end metric gated in its place.
fn report_prediction(out: &mut Outcome, error_frac: f64) {
    out.set("pred_error_frac", error_frac);
    out.set("pred_accuracy", 1.0 - error_frac);
}

/// How long the untraced passes of a run go on: all of `--seconds`, or the
/// given share of it when the run also has a traced pass and probes to make.
fn untraced_seconds(ctx: &Ctx, traced_share: f64) -> f64 {
    if ctx.trace {
        ctx.seconds * traced_share
    } else {
        ctx.seconds
    }
}

/// The solver's cell counters over a stretch of a traced run.
struct CellCount {
    total0: u64,
    pruned0: u64,
}

impl CellCount {
    fn start() -> Self {
        install_registry();
        Self {
            total0: counter(SOLVER_CELLS_TOTAL),
            pruned0: counter(SOLVER_CELLS_PRUNED),
        }
    }

    /// Report the cells counted since `start`, swept in `dp_s` seconds.
    fn report(&self, out: &mut Outcome, dp_s: f64) {
        let total = (counter(SOLVER_CELLS_TOTAL) - self.total0) as f64;
        let pruned = (counter(SOLVER_CELLS_PRUNED) - self.pruned0) as f64;
        out.set("core.cells_total", total);
        out.set("core.cells_pruned_frac", pruned / total.max(1.0));
        out.set("core.cells_per_s", total / dp_s.max(1e-12));
    }
}

/// Report `plan_s`, the median wall of the passes, and return it with the
/// median of the passes after the first. The first pass of a run faults the
/// solver's tables in and runs 2–3 % slower; the traced pass comes last,
/// so it is the later passes its overhead is taken against.
fn pass_walls(out: &mut Outcome, mut walls: Vec<f64>) -> (f64, f64) {
    let mut later = walls[1..].to_vec();
    let plan_s = median(&mut walls);
    out.set("plan_s", plan_s);
    out.set("loadgen.passes", walls.len() as f64);
    (plan_s, median(&mut later))
}

// ---------------------------------------------------------------------------
// plan_cold
// ---------------------------------------------------------------------------

struct ColdRequest {
    problem: Problem,
    /// `dp_assignment_with` (fixed singleton clustering) instead of
    /// `dp_mapping_with`.
    assignment: bool,
}

struct ColdInputs {
    requests: Vec<ColdRequest>,
    /// Instances small enough for the exhaustive oracle (P ≤ 10, k ≤ 4).
    small: Vec<Problem>,
    hash: InputHash,
    synthesize_s: f64,
}

/// (rows, cols, assignment DP) of the timed requests; every geometry is
/// solved for all four flavours.
const COLD_GEOMETRIES: [(usize, usize, bool); 3] = [(8, 8, false), (8, 16, false), (16, 16, true)];
/// (flavour, k, columns of a 2-row machine) of the oracle instances.
const COLD_SMALL: [(ChainFlavor, usize, usize); 6] = [
    (ChainFlavor::ComputeBound, 3, 3),
    (ChainFlavor::CommBound, 4, 4),
    (ChainFlavor::Alternating, 4, 5),
    (ChainFlavor::MemoryBound, 3, 5),
    (ChainFlavor::Alternating, 3, 4),
    (ChainFlavor::CommBound, 3, 5),
];

fn cold_inputs(seed: u64) -> ColdInputs {
    let mut rng = Rng::new(seed, "plan_cold");
    let mut hash = InputHash::default();
    let mut synthesize_s = 0.0;
    let mut synth = |app: &AppWorkload, rows, cols| {
        let machine = MachineConfig::iwarp_message().with_geometry(rows, cols);
        let t0 = Instant::now();
        let p = synthesize_problem(app, &machine);
        synthesize_s += t0.elapsed().as_secs_f64();
        p
    };
    let mut requests = Vec::new();
    for (rows, cols, assignment) in COLD_GEOMETRIES {
        for flavor in FLAVORS {
            let app = jittered_chain(flavor, K, JITTER, &mut rng, &mut hash);
            requests.push(ColdRequest {
                problem: synth(&app, rows, cols),
                assignment,
            });
        }
    }
    let small = COLD_SMALL
        .iter()
        .map(|&(flavor, k, cols)| {
            let app = jittered_chain(flavor, k, JITTER, &mut rng, &mut hash);
            synth(&app, 2, cols)
        })
        .collect();
    ColdInputs {
        requests,
        small,
        hash,
        synthesize_s,
    }
}

struct ColdAnswer {
    greedy: Result<Solution, SolveError>,
    dp: Result<Solution, SolveError>,
}

fn cold_dp(r: &ColdRequest, opts: &SolveOptions) -> Result<Solution, SolveError> {
    if r.assignment {
        dp_assignment_with(&r.problem, opts).map(|(s, _)| s)
    } else {
        dp_mapping_with(&r.problem, opts)
    }
}

/// Answer every request once. Returns the answers and the pass's wall.
fn cold_pass(inputs: &ColdInputs, pass: usize, t: &mut Tracer) -> (Vec<ColdAnswer>, f64) {
    let opts = SolveOptions::default();
    t.scope("plan_cold.pass", pass as u64, |t| {
        inputs
            .requests
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let (greedy, _) = t.leaf("core.cluster_heuristic", i as u64, || {
                    cluster_heuristic(&r.problem, GreedyOptions::adaptive())
                });
                let name = if r.assignment {
                    "core.dp_assignment"
                } else {
                    "core.dp_mapping"
                };
                let (dp, _) = t.leaf(name, i as u64, || cold_dp(r, &opts));
                ColdAnswer { greedy, dp }
            })
            .collect()
    })
}

pub fn plan_cold(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    // Set-up is generating the problems and answering the cheapest request
    // once, which starts the solver's worker pool and faults its code in.
    // Timed passes are untraced; a traced run spends part of its time on
    // the traced pass and the layer probes instead.
    let budget = untraced_seconds(ctx, 0.4);
    let mut setups = Repeats::default();
    let mut off = Tracer::off();
    let (inputs, passes) = passes_with_setup(
        budget,
        2,
        &mut setups,
        || {
            let inputs = cold_inputs(ctx.seed);
            std::hint::black_box(cold_dp(&inputs.requests[0], &SolveOptions::default()).is_ok());
            inputs
        },
        |inputs, i| cold_pass(inputs, i, &mut off),
    );
    out.set("setup_s", setups.median_s());
    out.set("machine.synthesize_s", inputs.synthesize_s);
    check_input_hash(ctx, &mut out, "plan_cold", inputs.hash);
    let (_, warm_s) = pass_walls(&mut out, passes.iter().map(|(_, s)| *s).collect());

    let bits = |(a, _): &(Vec<ColdAnswer>, f64)| -> Vec<Option<u64>> {
        a.iter()
            .flat_map(|x| [&x.greedy, &x.dp])
            .map(|s| s.as_ref().ok().map(|s| s.throughput.to_bits()))
            .collect()
    };
    check_passes_agree(&mut out, passes.iter().map(bits));

    // The answers, checked outside the timed section.
    let answers = &passes[0].0;
    let mut ratios = Vec::new();
    let mut rel_errors = Vec::new();
    let mut delivered = Delivered::default();
    let mut eval_s = 0.0;
    for (i, (r, a)) in inputs.requests.iter().zip(answers).enumerate() {
        for (which, sol) in [("greedy", &a.greedy), ("dp", &a.dp)] {
            let what = format!("plan_cold.{i}.{which}");
            match sol {
                Ok(sol) => {
                    let t0 = Instant::now();
                    rel_errors.push(check_solution(&mut out, &what, &r.problem, sol));
                    eval_s += t0.elapsed().as_secs_f64();
                    // The DP's answer is the one whose quality is judged.
                    let judged = (which == "dp").then_some(&mut ratios);
                    check_committed(ctx, &mut out, judged, &what, sol.throughput);
                }
                Err(e) => out.check(false, || format!("{what}: {e}")),
            }
        }
        if let Ok(sol) = &a.dp {
            delivered.simulate(&r.problem, &sol.mapping);
        }
    }
    for (i, p) in inputs.small.iter().enumerate() {
        let what = format!("plan_cold.small.{i}");
        match (
            dp_mapping_with(p, &SolveOptions::default()),
            brute_force_mapping(p),
        ) {
            (Ok(dp), Ok(brute)) => {
                rel_errors.push(check_solution(&mut out, &what, p, &dp));
                out.check(
                    dp.throughput.to_bits() == brute.throughput.to_bits(),
                    || {
                        format!(
                            "{what}: dp {} but exhaustive search {}",
                            dp.throughput, brute.throughput
                        )
                    },
                );
                ratios.push(dp.throughput / brute.throughput);
            }
            (Err(a), Err(b)) => out.check(a == b, || format!("{what}: dp said {a}, oracle {b}")),
            (a, b) => out.check(false, || {
                format!(
                    "{what}: dp {:?} but oracle {:?}",
                    a.map(|s| s.throughput),
                    b.map(|s| s.throughput)
                )
            }),
        }
    }
    out.set("plan_quality", geomean(&ratios));
    report_prediction(&mut out, mean(&rel_errors));
    out.set("chain.eval_s", eval_s);
    delivered.report(&mut out);

    let mut tracer = Tracer::on();
    if ctx.trace {
        let cells = CellCount::start();
        let (_, traced_s) = cold_pass(&inputs, passes.len(), &mut tracer);
        let dp_s = tracer.total_s("core.dp_assignment") + tracer.total_s("core.dp_mapping");
        cells.report(&mut out, dp_s);
        out.set(
            "loadgen.trace_overhead_frac",
            overhead_frac(warm_s, traced_s),
        );
        out.set("core.greedy_s", tracer.total_s("core.cluster_heuristic"));
        out.set("core.dp_assignment_s", tracer.total_s("core.dp_assignment"));
        out.set("core.dp_mapping_s", tracer.total_s("core.dp_mapping"));
        cold_layer_probes(&inputs, &mut out, &mut tracer);
    }
    finish(ctx, &mut out, "plan_cold", &tracer);
    out
}

/// Layer measurements that are not part of answering a request.
fn cold_layer_probes(inputs: &ColdInputs, out: &mut Outcome, t: &mut Tracer) {
    // A standalone cost-table build per problem (the DPs build their own).
    let ((), table_s) = t.scope("chain.table_build", 0, |t| {
        for (i, r) in inputs.requests.iter().enumerate() {
            t.leaf("chain.CostTable.build", i as u64, || {
                std::hint::black_box(CostTable::build(&r.problem));
            });
        }
    });
    out.set("chain.table_build_s", table_s);

    // The slowest request again on one thread, against the default.
    let slowest = (0..inputs.requests.len())
        .max_by(|a, b| {
            let dur = |i: &usize| -> f64 {
                t.spans()
                    .iter()
                    .filter(|s| s.item == *i as u64 && s.name.starts_with("core.dp_"))
                    .map(|s| s.end_s - s.start_s)
                    .sum()
            };
            dur(a).total_cmp(&dur(b))
        })
        .expect("requests");
    let r = &inputs.requests[slowest];
    let (_, default_s) = t.leaf("core.dp_default_threads", slowest as u64, || {
        cold_dp(r, &SolveOptions::default())
    });
    let (_, one_s) = t.leaf("core.dp_one_thread", slowest as u64, || {
        cold_dp(r, &SolveOptions::with_threads(1))
    });
    out.set("core.par_speedup", one_s / default_s.max(1e-12));

    // `render_spec` cannot write the machine model's closures, so the
    // round trip is taken on the fitted (polynomial) form of the smallest
    // geometry's problems, which is what `pipemap fit` writes to disk.
    let mut roundtrip_s = 0.0;
    for (i, r) in inputs.requests.iter().take(FLAVORS.len()).enumerate() {
        let fitted = fit_problem(
            &r.problem,
            &TrainingConfig::for_procs(r.problem.total_procs),
        );
        let (parsed, s) = t.leaf("tool.spec_roundtrip", i as u64, || {
            render_spec(&fitted).and_then(|text| parse_spec(&text))
        });
        roundtrip_s += s;
        out.check(
            parsed
                .as_ref()
                .is_ok_and(|p| p.num_tasks() == fitted.num_tasks()),
            || {
                format!(
                    "spec round trip of request {i}: {:?}",
                    parsed.as_ref().err()
                )
            },
        );
    }
    out.set("tool.spec_roundtrip_s", roundtrip_s);
}

/// Reference answers of `plan_cold` for `--write-expected`: the optima
/// from the serial, unpruned reference solver.
pub fn plan_cold_reference(seed: u64) -> Result<Vec<(String, String)>, String> {
    let inputs = cold_inputs(seed);
    let mut entries = vec![("plan_cold.input_hash".to_string(), inputs.hash.hex())];
    for (i, r) in inputs.requests.iter().enumerate() {
        let greedy = cluster_heuristic(&r.problem, GreedyOptions::adaptive())
            .map_err(|e| format!("request {i}: {e}"))?;
        let reference =
            cold_dp(r, &SolveOptions::reference()).map_err(|e| format!("request {i}: {e}"))?;
        let fast = cold_dp(r, &SolveOptions::default()).map_err(|e| format!("request {i}: {e}"))?;
        if reference.throughput.to_bits() != fast.throughput.to_bits() {
            return Err(format!(
                "request {i}: reference solver says {}, default says {}",
                reference.throughput, fast.throughput
            ));
        }
        eprintln!("plan_cold.{i}: optimum {}", reference.throughput);
        entries.push((
            format!("plan_cold.{i}.greedy"),
            bits_text(greedy.throughput),
        ));
        entries.push((format!("plan_cold.{i}.dp"), bits_text(reference.throughput)));
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// plan_replan
// ---------------------------------------------------------------------------

/// Updates per pass: each of the eight stages is the earliest stage of
/// two small and two large drifts.
const REPLAN_UPDATES: usize = 32;
/// The one chain both artifacts are built on is jittered by ±5 % only:
/// what the seed varies here is the drift stream, and with a single chain
/// there is nothing to average a wider jitter out of what its plans deliver.
const REPLAN_JITTER: f64 = 0.05;
/// Updates whose answers are checked against a cold solve, per artifact.
const REPLAN_VERIFIED: usize = 3;

struct ReplanInputs {
    /// Cluster artifact on the 8×8 machine, assignment artifact on 8×16.
    artifacts: [ResolveArtifact; 2],
    drifts: Vec<CostDeltas>,
    hash: InputHash,
    synthesize_s: f64,
    build_s: f64,
}

const REPLAN_NAMES: [&str; 2] = ["cluster", "assign"];

fn replan_inputs(seed: u64) -> Result<ReplanInputs, SolveError> {
    let mut rng = Rng::new(seed, "plan_replan");
    let mut hash = InputHash::default();
    let app = jittered_chain(
        ChainFlavor::Alternating,
        K,
        REPLAN_JITTER,
        &mut rng,
        &mut hash,
    );
    let t0 = Instant::now();
    let small = synthesize_problem(&app, &MachineConfig::iwarp_message().with_geometry(8, 8));
    let large = synthesize_problem(&app, &MachineConfig::iwarp_message().with_geometry(8, 16));
    let synthesize_s = t0.elapsed().as_secs_f64();
    let opts = SolveOptions::default();
    let t0 = Instant::now();
    let artifacts = [
        ResolveArtifact::build(&small, &opts)?,
        ResolveArtifact::build_assignment(&large, &opts)?,
    ];
    let build_s = t0.elapsed().as_secs_f64();
    let drifts = drift_stream(K, REPLAN_UPDATES, &mut rng, &mut hash);
    Ok(ReplanInputs {
        artifacts,
        drifts,
        hash,
        synthesize_s,
        build_s,
    })
}

struct Resolved {
    /// `None` when `resolve` failed.
    solution: Option<Solution>,
    short_circuit: bool,
    cells: u64,
    wall_s: f64,
}

/// Push every update through both artifacts. `[artifact][update]`.
fn replan_pass(inputs: &ReplanInputs, pass: usize, t: &mut Tracer) -> ([Vec<Resolved>; 2], f64) {
    t.scope("plan_replan.pass", pass as u64, |t| {
        let mut out = [Vec::new(), Vec::new()];
        for (u, d) in inputs.drifts.iter().enumerate() {
            for (a, artifact) in inputs.artifacts.iter().enumerate() {
                let item = (u * 2 + a) as u64;
                let (r, wall_s) = t.leaf("core.resolve", item, || artifact.resolve(d));
                let r = r.ok();
                out[a].push(Resolved {
                    short_circuit: r
                        .as_ref()
                        .is_some_and(|o| o.mechanism == ResolveMechanism::ShortCircuit),
                    cells: r.as_ref().map_or(0, |o| o.cells),
                    solution: r.map(|o| o.solution),
                    wall_s,
                });
            }
        }
        out
    })
}

fn cold_resolve(artifact: &ResolveArtifact, d: &CostDeltas) -> Result<Solution, SolveError> {
    let repriced = reprice_problem(artifact.problem(), d);
    if artifact.is_cluster() {
        dp_mapping_with(&repriced, artifact.options())
    } else {
        dp_assignment_with(&repriced, artifact.options()).map(|(s, _)| s)
    }
}

pub fn plan_replan(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let budget = untraced_seconds(ctx, 0.4);
    let mut setups = Repeats::default();
    let mut off = Tracer::off();
    let (inputs, passes) = passes_with_setup(
        budget,
        2,
        &mut setups,
        || replan_inputs(ctx.seed),
        |inputs, i| {
            inputs
                .as_ref()
                .ok()
                .map(|inputs| replan_pass(inputs, i, &mut off))
        },
    );
    out.set("setup_s", setups.median_s());
    let (inputs, passes) = match (inputs, passes.into_iter().collect::<Option<Vec<_>>>()) {
        (Ok(inputs), Some(passes)) => (inputs, passes),
        (Err(e), _) => {
            out.fail_whole(format!("plan_replan set-up: {e}"));
            finish(ctx, &mut out, "plan_replan", &Tracer::off());
            return out;
        }
        (Ok(_), None) => unreachable!("a pass ran whenever set-up succeeded"),
    };
    out.set("machine.synthesize_s", inputs.synthesize_s);
    out.set("core.artifact_build_s", inputs.build_s);
    check_input_hash(ctx, &mut out, "plan_replan", inputs.hash);
    let (_, warm_s) = pass_walls(&mut out, passes.iter().map(|(_, s)| *s).collect());

    let bits = |(p, _): &([Vec<Resolved>; 2], f64)| -> Vec<Option<u64>> {
        p.iter()
            .flatten()
            .map(|r| r.solution.as_ref().map(|s| s.throughput.to_bits()))
            .collect()
    };
    check_passes_agree(&mut out, passes.iter().map(bits));

    let answers = &passes[0].0;
    let mut ratios = Vec::new();
    let mut rel_errors = Vec::new();
    let mut delivered = Delivered::default();
    for (a, artifact) in inputs.artifacts.iter().enumerate() {
        let name = REPLAN_NAMES[a];
        let base = artifact.solution().throughput;
        let key = format!("plan_replan.{name}.base");
        check_committed(ctx, &mut out, Some(&mut ratios), &key, base);
        for (u, (r, d)) in answers[a].iter().zip(&inputs.drifts).enumerate() {
            let what = format!("plan_replan.{name}.{u}");
            let Some(sol) = &r.solution else {
                out.check(false, || format!("{what}: resolve failed"));
                continue;
            };
            let repriced = reprice_problem(artifact.problem(), d);
            rel_errors.push(check_solution(&mut out, &what, &repriced, sol));
            check_committed(ctx, &mut out, Some(&mut ratios), &what, sol.throughput);
            delivered.simulate(&repriced, &sol.mapping);
        }
    }

    // A seeded sample of updates against a cold solve of the repriced
    // problem: bit-identical throughput, and the same mapping unless the
    // margin short-circuit answered (it certifies the value, and a cold
    // solve may break a tie the other way).
    let mut rng = Rng::new(ctx.seed, "plan_replan.sample");
    let (mut resolve_s, mut cold_s) = (0.0, 0.0);
    for (a, artifact) in inputs.artifacts.iter().enumerate() {
        for _ in 0..REPLAN_VERIFIED {
            // Odd indices are the large drifts, which exercise the suffix path.
            let u = rng.below(REPLAN_UPDATES / 2) * 2 + 1;
            let r = &answers[a][u];
            let t0 = Instant::now();
            let cold = cold_resolve(artifact, &inputs.drifts[u]);
            cold_s += t0.elapsed().as_secs_f64();
            resolve_s += r.wall_s;
            let what = format!("plan_replan.{}.{u} vs cold", REPLAN_NAMES[a]);
            match (cold, &r.solution) {
                (Ok(cold), Some(got)) => {
                    out.check(
                        cold.throughput.to_bits() == got.throughput.to_bits(),
                        || {
                            format!(
                                "{what}: resolve {}, cold {}",
                                got.throughput, cold.throughput
                            )
                        },
                    );
                    out.check(r.short_circuit || got.mapping == cold.mapping, || {
                        format!("{what}: mappings differ")
                    });
                    ratios.push(got.throughput / cold.throughput);
                }
                (cold, got) => out.check(false, || {
                    format!(
                        "{what}: resolve {:?}, cold {:?}",
                        got.as_ref().map(|s| s.throughput),
                        cold.map(|s| s.throughput)
                    )
                }),
            }
        }
    }
    out.set("plan_quality", geomean(&ratios));
    report_prediction(&mut out, mean(&rel_errors));
    out.set("core.resolve_over_cold", resolve_s / cold_s.max(1e-12));
    delivered.report(&mut out);

    let all: Vec<&Resolved> = answers.iter().flatten().collect();
    let mut short: Vec<f64> = all
        .iter()
        .filter(|r| r.short_circuit)
        .map(|r| r.wall_s)
        .collect();
    let mut suffix: Vec<f64> = all
        .iter()
        .filter(|r| !r.short_circuit)
        .map(|r| r.wall_s)
        .collect();
    out.set(
        "core.resolve_shortcircuit_frac",
        short.len() as f64 / all.len() as f64,
    );
    if !short.is_empty() {
        out.set("core.resolve_shortcircuit_s", median(&mut short));
    }
    if !suffix.is_empty() {
        out.set("core.resolve_suffix_s", median(&mut suffix));
    }
    out.set(
        "core.resolve_cells",
        all.iter().map(|r| r.cells).sum::<u64>() as f64,
    );

    let mut tracer = Tracer::on();
    if ctx.trace {
        install_registry();
        let (_, traced_s) = replan_pass(&inputs, passes.len(), &mut tracer);
        out.set(
            "loadgen.trace_overhead_frac",
            overhead_frac(warm_s, traced_s),
        );
        let small = inputs.artifacts[0].problem();
        let (_, table_s) = tracer.leaf("chain.CostTable.build", 0, || {
            std::hint::black_box(CostTable::build(small));
        });
        out.set("chain.table_build_s", table_s);
        let (prov, prov_s) = tracer.leaf("core.dp_mapping_provenance", 0, || {
            dp_mapping_provenance(small, &SolveOptions::provenance())
        });
        out.check(prov.is_ok(), || "dp_mapping_provenance failed".into());
        out.set("core.provenance_s", prov_s);
    }
    finish(ctx, &mut out, "plan_replan", &tracer);
    out
}

pub fn plan_replan_reference(seed: u64) -> Result<Vec<(String, String)>, String> {
    let inputs = replan_inputs(seed).map_err(|e| e.to_string())?;
    let mut entries = vec![("plan_replan.input_hash".to_string(), inputs.hash.hex())];
    for (a, artifact) in inputs.artifacts.iter().enumerate() {
        let name = REPLAN_NAMES[a];
        let identity = CostDeltas::identity(K);
        let mut push = |key: String, d: &CostDeltas| -> Result<(), String> {
            let cold = cold_resolve(artifact, d).map_err(|e| format!("{key}: {e}"))?;
            entries.push((key, bits_text(cold.throughput)));
            Ok(())
        };
        push(format!("plan_replan.{name}.base"), &identity)?;
        for (u, d) in inputs.drifts.iter().enumerate() {
            push(format!("plan_replan.{name}.{u}"), d)?;
        }
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// plan_automap
// ---------------------------------------------------------------------------

/// Index of `fft256.message`, the cheapest case and the paper's Table 1.
const TABLE1_CASE: usize = 2;

pub struct AutomapCase {
    pub label: String,
    pub app: AppWorkload,
    pub machine: MachineConfig,
}

/// The paper's four programs on both iWarp communication modes, and the
/// mapper options with both noise seeds taken from `--seed`.
pub fn automap_inputs(seed: u64) -> (Vec<AutomapCase>, MapperOptions, InputHash) {
    let apps = [
        ("radar", radar(RadarConfig::paper())),
        ("fft256", fft_hist(FftHistConfig::n256())),
        ("fft512", fft_hist(FftHistConfig::n512())),
        ("stereo", stereo(StereoConfig::paper())),
    ];
    let machines = [
        ("message", MachineConfig::iwarp_message()),
        ("systolic", MachineConfig::iwarp_systolic()),
    ];
    let mut cases = Vec::new();
    for (an, app) in &apps {
        for (mn, machine) in &machines {
            cases.push(AutomapCase {
                label: format!("{an}.{mn}"),
                app: app.clone(),
                machine: *machine,
            });
        }
    }
    let defaults = MapperOptions::default();
    let mut rng = Rng::new(seed, "plan_automap");
    let (training_seed, measurement_seed) = (rng.next_u64(), rng.next_u64());
    let mut hash = InputHash::default();
    hash.u64(training_seed);
    hash.u64(measurement_seed);
    let opts = MapperOptions {
        training_noise: defaults.training_noise.map(|(s, _)| (s, training_seed)),
        measurement_noise: defaults
            .measurement_noise
            .map(|(s, _)| (s, measurement_seed)),
        ..defaults
    };
    (cases, opts, hash)
}

fn automap_pass(
    cases: &[AutomapCase],
    opts: &MapperOptions,
    pass: usize,
    t: &mut Tracer,
) -> (Vec<Result<MappingReport, SolveError>>, f64) {
    t.scope("plan_automap.pass", pass as u64, |t| {
        cases
            .iter()
            .enumerate()
            .map(|(i, c)| {
                t.leaf("tool.auto_map", i as u64, || {
                    auto_map(&c.app, &c.machine, opts)
                })
                .0
            })
            .collect()
    })
}

/// Relative error of the predicted throughput against the simulated one,
/// the mean over `auto_map`'s noisy measurement runs rather than the first
/// of them, so one unlucky noise draw moves it less.
pub fn prediction_error(r: &MappingReport) -> f64 {
    let measured = r.measured_spread.mean;
    ((r.predicted_throughput - measured) / measured).abs()
}

/// `auto_map`'s five steps made one by one through the same public
/// functions, each in its own span. Returns the mapping it chose.
fn automap_replay(
    c: &AutomapCase,
    opts: &MapperOptions,
    item: u64,
    t: &mut Tracer,
    found: &mut u64,
) -> Result<Mapping, SolveError> {
    t.scope("tool.auto_map_replay", item, |t| {
        let (truth, _) = t.leaf("machine.synthesize_problem", item, || {
            synthesize_problem(&c.app, &c.machine)
        });
        let mut training = TrainingConfig::for_procs(truth.total_procs);
        if let Some((s, seed)) = opts.training_noise {
            training = training.with_noise(s, seed);
        }
        let (fitted, _) = t.leaf("profile.fit_problem", item, || {
            fit_problem(&truth, &training)
        });
        t.leaf("profile.model_accuracy", item, || {
            std::hint::black_box(model_accuracy(
                &truth.chain,
                &fitted.chain,
                truth.total_procs,
            ));
        });
        let (greedy, _) = t.leaf("core.cluster_heuristic", item, || {
            cluster_heuristic(&fitted, GreedyOptions::adaptive())
        });
        greedy?;
        let (optimal, _) = t.leaf("core.dp_mapping", item, || dp_mapping(&fitted));
        let optimal = optimal?;
        let (feasible, _) = t.leaf("machine.feasible_optimal", item, || {
            feasible_optimal(
                &fitted,
                &c.machine,
                &optimal.mapping.clustering(),
                FeasibleSearch::default(),
            )
        });
        *found += feasible.is_some() as u64;
        let chosen = feasible.map_or(optimal.mapping, |(m, _)| m);
        let mut sim = SimConfig::with_datasets(opts.sim_datasets);
        if let Some((s, seed)) = opts.measurement_noise {
            sim = sim.with_noise(s, seed);
        }
        let seed = opts.measurement_noise.map_or(0, |(_, s)| s);
        t.leaf("sim.replicate_simulation", item, || {
            std::hint::black_box(replicate_simulation(
                &truth.chain,
                &chosen,
                &sim,
                opts.measurement_runs.max(1),
                seed,
            ));
        });
        t.leaf("sim.simulate", item, || {
            std::hint::black_box(simulate(
                &truth.chain,
                &Mapping::data_parallel(&truth),
                &sim,
            ));
        });
        Ok(chosen)
    })
    .0
}

pub fn plan_automap(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    // Set-up is building the cases and mapping the cheapest one once.
    let budget = untraced_seconds(ctx, 0.5);
    let mut setups = Repeats::default();
    let mut off = Tracer::off();
    let ((cases, opts, hash), passes) = passes_with_setup(
        budget,
        2,
        &mut setups,
        || {
            let inputs = automap_inputs(ctx.seed);
            let warm = &inputs.0[TABLE1_CASE];
            std::hint::black_box(auto_map(&warm.app, &warm.machine, &inputs.1).is_ok());
            inputs
        },
        |(cases, opts, _), i| automap_pass(cases, opts, i, &mut off),
    );
    out.set("setup_s", setups.median_s());
    check_input_hash(ctx, &mut out, "plan_automap", hash);
    let (plan_s, warm_s) = pass_walls(&mut out, passes.iter().map(|(_, s)| *s).collect());

    type Reports = Vec<Result<MappingReport, SolveError>>;
    let bits = |(p, _): &(Reports, f64)| -> Vec<Option<(u64, u64)>> {
        p.iter()
            .map(|r| {
                let r = r.as_ref().ok()?;
                Some((
                    r.predicted_throughput.to_bits(),
                    r.measured.throughput.to_bits(),
                ))
            })
            .collect()
    };
    check_passes_agree(&mut out, passes.iter().map(bits));

    let reports = &passes[0].0;
    let mut ratios = Vec::new();
    let mut errors = Vec::new();
    let mut fit_errors = Vec::new();
    let mut delivered = Delivered::default();
    for (i, (c, r)) in cases.iter().zip(reports).enumerate() {
        let what = format!("plan_automap.{}", c.label);
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                out.check(false, || format!("{what}: {e}"));
                continue;
            }
        };
        let chosen = r.chosen();
        out.check(is_feasible(&c.machine, chosen).is_feasible(), || {
            format!(
                "{what}: chose {}, which the machine cannot place",
                chosen.to_compact_string()
            )
        });
        // The prediction is the fitted model's throughput of the chosen mapping.
        let again = pipemap_chain::throughput(&r.fitted.chain, chosen);
        out.check(again.to_bits() == r.predicted_throughput.to_bits(), || {
            format!(
                "{what}: predicted {} but the mapping evaluates to {again}",
                r.predicted_throughput
            )
        });
        if i == TABLE1_CASE {
            let got = chosen.to_compact_string();
            out.check(got == TABLE1_MAPPING, || {
                format!("{what}: chose {got}, the paper's Table 1 says {TABLE1_MAPPING}")
            });
        }
        let (pred, sim) = (r.predicted_throughput, r.measured.throughput);
        check_committed(
            ctx,
            &mut out,
            Some(&mut ratios),
            &format!("{what}.pred"),
            pred,
        );
        check_committed(ctx, &mut out, None, &format!("{what}.sim"), sim);
        let mapping = chosen.to_compact_string();
        check_committed_text(ctx, &mut out, &format!("{what}.mapping"), &mapping);
        errors.push(prediction_error(r));
        fit_errors.push(r.fit_accuracy.mean_rel_error);
        delivered.push(&r.measured);
    }
    out.set("plan_quality", geomean(&ratios));
    report_prediction(&mut out, mean(&errors));
    out.set("profile.fit_error_frac", mean(&fit_errors));
    delivered.report(&mut out);

    let mut tracer = Tracer::on();
    if ctx.trace {
        let cells = CellCount::start();
        let mut found = 0;
        let ((), traced_s) = tracer.scope("plan_automap.pass", passes.len() as u64, |t| {
            for (i, (c, r)) in cases.iter().zip(reports).enumerate() {
                let replayed = automap_replay(c, &opts, i as u64, t, &mut found);
                let same = match (&replayed, r) {
                    (Ok(m), Ok(r)) => m == r.chosen(),
                    _ => false,
                };
                out.check(same, || {
                    format!("replaying auto_map on {} chose another mapping", c.label)
                });
            }
        });
        cells.report(&mut out, tracer.total_s("core.dp_mapping"));
        out.set(
            "loadgen.trace_overhead_frac",
            overhead_frac(warm_s, traced_s),
        );
        out.set(
            "machine.synthesize_s",
            tracer.total_s("machine.synthesize_problem"),
        );
        out.set(
            "machine.feasible_s",
            tracer.total_s("machine.feasible_optimal"),
        );
        let calls = tracer.count("machine.feasible_optimal");
        out.set("machine.feasible_calls", calls as f64);
        out.set(
            "machine.feasible_found_frac",
            found as f64 / (calls as f64).max(1.0),
        );
        out.set(
            "profile.fit_s",
            tracer.total_s("profile.fit_problem") + tracer.total_s("profile.model_accuracy"),
        );
        out.set("core.greedy_s", tracer.total_s("core.cluster_heuristic"));
        out.set("core.dp_mapping_s", tracer.total_s("core.dp_mapping"));
        let sim_s = tracer.total_s("sim.replicate_simulation") + tracer.total_s("sim.simulate");
        let datasets = cases.len() * opts.sim_datasets * (opts.measurement_runs.max(1) + 1);
        out.set("sim.simulate_s", sim_s);
        out.set("sim.datasets_per_s", datasets as f64 / sim_s.max(1e-12));
        // What `auto_map` spends outside the layers it calls: its untraced
        // wall minus the replayed children.
        let children: f64 = tracer
            .spans()
            .iter()
            .filter(|s| {
                s.parent
                    .is_some_and(|p| tracer.spans()[p].name == "tool.auto_map_replay")
            })
            .map(|s| s.end_s - s.start_s)
            .sum();
        out.set("tool.automap_self_s", (plan_s - children).max(0.0));
    }
    finish(ctx, &mut out, "plan_automap", &tracer);
    out
}

pub fn plan_automap_reference(seed: u64) -> Result<Vec<(String, String)>, String> {
    let (cases, opts, hash) = automap_inputs(seed);
    let mut entries = vec![("plan_automap.input_hash".to_string(), hash.hex())];
    for c in &cases {
        let r = auto_map(&c.app, &c.machine, &opts).map_err(|e| format!("{}: {e}", c.label))?;
        let key = format!("plan_automap.{}", c.label);
        entries.push((format!("{key}.pred"), bits_text(r.predicted_throughput)));
        entries.push((format!("{key}.sim"), bits_text(r.measured.throughput)));
        entries.push((format!("{key}.mapping"), r.chosen().to_compact_string()));
    }
    Ok(entries)
}

/// The planning request the serve workloads make: the paper's Table-1
/// case (FFT-Hist 256 on the message-passing iWarp) through `auto_map`.
/// `serve_fft` serves the clustering it returns; on the micro pipelines it
/// is a control that tells a slower box from a slower data plane. One call
/// takes about 3 ms, so it is repeated in slots between the passes.
pub struct PlanRequests {
    case: AutomapCase,
    opts: MapperOptions,
    times: Repeats,
    calls: u64,
    report: Option<Result<MappingReport, SolveError>>,
}

impl PlanRequests {
    pub fn new(seed: u64) -> Self {
        let (cases, opts, _) = automap_inputs(seed);
        Self {
            case: cases
                .into_iter()
                .nth(TABLE1_CASE)
                .expect("the Table-1 case"),
            opts,
            times: Repeats::default(),
            calls: 0,
            report: None,
        }
    }

    pub fn slot(&mut self, t: &mut Tracer) {
        let Self {
            case, opts, calls, ..
        } = self;
        let report = self.times.slot(|| {
            *calls += 1;
            t.leaf("tool.auto_map", *calls, || {
                auto_map(&case.app, &case.machine, opts)
            })
            .0
        });
        self.report = Some(report);
    }

    /// Report `plan_s`, `plan_quality` and `pred_accuracy`, check the
    /// answer, and hand it over.
    pub fn finish(mut self, ctx: &Ctx, out: &mut Outcome) -> Option<MappingReport> {
        out.set("plan_s", self.times.median_s());
        let mut ratios = Vec::new();
        let report = match self.report {
            Some(Ok(r)) => r,
            other => {
                out.check(false, || {
                    format!("planning request failed: {:?}", other.map(|r| r.err()))
                });
                return None;
            }
        };
        let got = report.chosen().to_compact_string();
        out.check(got == TABLE1_MAPPING, || {
            format!("planning request chose {got}, the paper's Table 1 says {TABLE1_MAPPING}")
        });
        let key = "plan_automap.fft256.message.pred";
        let pred = report.predicted_throughput;
        check_committed(ctx, out, Some(&mut ratios), key, pred);
        out.set("plan_quality", geomean(&ratios));
        report_prediction(out, prediction_error(&report));
        Some(report)
    }
}
