//! `pipemap explain` — why did the solver pick this mapping, and how far
//! can reality drift before the choice is wrong?
//!
//! One [`explain`] call runs the DP with decision provenance (the winning
//! path with exact runner-up alternatives), derives the mapping's exact
//! stability margins (the multiplicative drift factor each stage's fitted
//! execution / transfer cost tolerates before the argmin flips — from the
//! value tables, no sampling), and runs a second, *pruned* solve whose
//! per-stage cell statistics become the pruning heatmap. The result
//! renders three ways: an ANSI table ([`render_explanation`]), the
//! `pipemap-explain/v1` JSON document ([`explain_json`]) that
//! `pipemap doctor --margins` and the observatory consume, and a Chrome
//! trace of the decision path ([`explain_trace_json`]).
//!
//! `--robustness` cross-checks the exact analysis with the §6.4
//! Monte-Carlo study ([`crate::sensitivity::robustness`]): perturb every
//! fitted cost, re-solve, measure regret. The exact margins bound what a
//! *single* cost may do; the sampled regret prices simultaneous drift.

use pipemap_chain::Problem;
use pipemap_core::{
    dp_assignment_provenance_ctx, dp_assignment_pruned_stats_ctx, dp_mapping_provenance_ctx,
    dp_mapping_pruned_stats_ctx, stability_margins, MarginReport, Provenance, Solution, SolveCtx,
    SolveError, SolveOptions, StageCells,
};
use pipemap_obs::Value;

use crate::sensitivity::{robustness, Robustness};

/// Schema identifier stamped into `--report json` output.
pub const EXPLAIN_SCHEMA: &str = pipemap_obs::schema::EXPLAIN;

/// How [`explain`] runs.
#[derive(Clone, Copy, Debug)]
pub struct ExplainOptions {
    /// Explain the full clustering DP (`dp_mapping`). `false` explains
    /// the task-per-module assignment DP instead.
    pub cluster: bool,
    /// Monte-Carlo robustness trials to run alongside the exact margins
    /// (`None` skips the study).
    pub robustness_trials: Option<usize>,
    /// Relative spread of the per-cost perturbation factors in the
    /// robustness study.
    pub spread: f64,
    /// Seed of the robustness study's noise stream.
    pub seed: u64,
}

impl Default for ExplainOptions {
    fn default() -> Self {
        Self {
            cluster: true,
            robustness_trials: None,
            spread: 0.10,
            seed: 0x5eed,
        }
    }
}

/// Everything `pipemap explain` knows about one solve.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// Which solver ran (`"dp_assignment"` or `"dp_mapping"`).
    pub algorithm: &'static str,
    /// The optimal solution being explained.
    pub solution: Solution,
    /// The winning DP path with exact runner-up alternatives (unpruned
    /// solve).
    pub provenance: Provenance,
    /// Exact per-stage stability margins of the chosen mapping.
    pub margins: MarginReport,
    /// Pipeline throughput gained if the stage's cost vanished — nonzero
    /// only at the unique bottleneck, where it reads "what the next
    /// binding stage would allow". One entry per module.
    pub marginal_thr: Vec<f64>,
    /// Per-stage cell statistics of the *pruned* production solve (the
    /// heatmap's "what pruning skipped"); same stage order as the
    /// provenance's unpruned statistics.
    pub pruned_cells: Vec<StageCells>,
    /// The Monte-Carlo robustness study, when asked for.
    pub robustness: Option<Robustness>,
    /// Spread the study ran at.
    pub spread: f64,
}

/// Pipeline throughput with stage `i` removed from the bottleneck max,
/// minus the actual throughput: the marginal gain of making stage `i`
/// free. Zero everywhere except at a unique bottleneck.
fn marginal_gains(margins: &MarginReport) -> Vec<f64> {
    let n = margins.stages.len();
    (0..n)
        .map(|i| {
            let rest = margins
                .stages
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, s)| s.effective_s)
                .fold(0.0f64, f64::max);
            let without = if rest > 0.0 {
                1.0 / rest
            } else {
                f64::INFINITY
            };
            let gain = without - margins.throughput;
            if gain.is_finite() {
                gain.max(0.0)
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// Solve `problem` with full decision provenance and derive the chosen
/// mapping's exact stability margins, plus the pruned solve's cell
/// statistics for the heatmap. Publishes per-stage
/// `solver.margin.stage<i>.exec_up` / `.ecom_in_up` gauges (and, via the
/// margin engine itself, `solver.margin.min_exec_up`) to the global
/// recorder.
pub fn explain(problem: &Problem, opts: &ExplainOptions) -> Result<Explanation, SolveError> {
    let solve = SolveOptions::default();
    // One context for both solves: the cost table is evaluated once and
    // the sweep's suffix bounds are computed once and shared between the
    // provenance (unpruned) and heatmap (pruned) runs.
    let ctx = SolveCtx::new(problem)?;
    let (algorithm, solution, provenance, pruned_cells) = if opts.cluster {
        let (s, p) = dp_mapping_provenance_ctx(problem, &ctx, &solve)?;
        let pruned = dp_mapping_pruned_stats_ctx(problem, &ctx, &solve)?;
        ("dp_mapping", s, p, pruned)
    } else {
        let (s, _, p) = dp_assignment_provenance_ctx(problem, &ctx, &solve)?;
        let pruned = dp_assignment_pruned_stats_ctx(problem, &ctx, &solve)?;
        ("dp_assignment", s, p, pruned)
    };
    let margins = stability_margins(problem, &solution.mapping)?;
    let rec = pipemap_obs::global();
    for s in &margins.stages {
        if s.exec_up.is_finite() {
            rec.gauge_set(
                &format!("solver.margin.stage{}.exec_up", s.index),
                s.exec_up,
            );
        }
        if s.ecom_in_up.is_finite() {
            rec.gauge_set(
                &format!("solver.margin.stage{}.ecom_in_up", s.index),
                s.ecom_in_up,
            );
        }
    }
    let marginal_thr = marginal_gains(&margins);
    let robustness = match opts.robustness_trials {
        Some(trials) => Some(robustness(
            problem,
            &solution.mapping,
            opts.spread,
            trials.max(1),
            opts.seed,
        )?),
        None => None,
    };
    Ok(Explanation {
        algorithm,
        solution,
        provenance,
        margins,
        marginal_thr,
        pruned_cells,
        robustness,
        spread: opts.spread,
    })
}

/// The task-name label of one module (`a+b`).
fn module_label(problem: &Problem, first: usize, last: usize) -> String {
    (first..=last)
        .map(|i| problem.chain.task(i).name.as_str())
        .collect::<Vec<_>>()
        .join("+")
}

fn fmt_factor(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else if v > 0.0 {
        "inf".to_string()
    } else {
        "-inf".to_string()
    }
}

/// The `pipemap-explain/v1` JSON document: throughput, mapping, and one
/// entry per stage carrying the chosen configuration, the exact margins
/// (`null` = no drift ever flips the mapping in that direction), the
/// runner-up alternative, the marginal throughput contribution, and both
/// solves' cell statistics. This is the file `pipemap doctor --margins`
/// and the live observatory consume.
pub fn explain_json(source: &str, problem: &Problem, ex: &Explanation) -> Value {
    let mut doc = Value::object();
    doc.set("schema", EXPLAIN_SCHEMA);
    doc.set("source", source);
    doc.set("algorithm", ex.algorithm);
    doc.set("throughput", ex.solution.throughput);
    doc.set("bottleneck", ex.margins.bottleneck);
    doc.set("min_exec_up", ex.margins.min_exec_up());
    doc.set(
        "mapping",
        crate::report::mapping_json(problem, &ex.solution.mapping),
    );
    let stages: Vec<Value> = ex
        .margins
        .stages
        .iter()
        .map(|s| {
            let mut st = Value::object();
            st.set("index", s.index);
            st.set("tasks", module_label(problem, s.first, s.last));
            st.set("first", s.first);
            st.set("last", s.last);
            st.set("offer", s.offer);
            st.set("instances", s.instances);
            st.set("instance_procs", s.instance_procs);
            st.set("response_s", s.response_s);
            st.set("effective_s", s.effective_s);
            st.set("slack", s.slack);
            st.set(
                "marginal_thr",
                ex.marginal_thr.get(s.index).copied().unwrap_or(0.0),
            );
            // Non-finite margins serialise as null by Value's convention.
            let mut m = Value::object();
            m.set("exec_up", s.exec_up);
            m.set("exec_down", s.exec_down);
            m.set("ecom_in_up", s.ecom_in_up);
            m.set("ecom_in_down", s.ecom_in_down);
            st.set("margins", m);
            if let Some(offer) = s.flip_offer {
                st.set("flip_offer", offer);
            }
            if let Some(cell) = ex.provenance.cells.get(s.index) {
                let mut c = Value::object();
                c.set("value", cell.value);
                c.set("exec_s", cell.exec_s);
                c.set("ecom_in_s", cell.ecom_in_s);
                c.set("ecom_out_s", cell.ecom_out_s);
                c.set("budget", cell.budget);
                st.set("chosen", c);
                if let Some(r) = &cell.runner_up {
                    let mut ru = Value::object();
                    ru.set("prev_len", r.prev_len);
                    ru.set("prev_procs", r.prev_procs);
                    ru.set("value", r.value);
                    st.set("runner_up", ru);
                }
            }
            st
        })
        .collect();
    doc.set("stages", Value::Array(stages));
    doc.set(
        "cells",
        cells_json(&ex.provenance.stage_cells, &ex.pruned_cells),
    );
    if let Some(r) = &ex.robustness {
        let mut o = Value::object();
        o.set("trials", r.trials);
        o.set("spread", ex.spread);
        o.set("regret_mean", r.regret.mean);
        o.set("regret_max", r.regret.max);
        o.set("clustering_changes", r.clustering_changes);
        doc.set("robustness", o);
    }
    doc
}

/// The pruning heatmap rows: the unpruned (exact) and pruned (production)
/// solves' per-stage cell statistics side by side.
fn cells_json(unpruned: &[StageCells], pruned: &[StageCells]) -> Value {
    let rows: Vec<Value> = unpruned
        .iter()
        .enumerate()
        .map(|(i, u)| {
            let mut o = Value::object();
            o.set("stage", u.stage);
            o.set("cells", u.cells);
            o.set("lookups", u.lookups);
            if let Some(p) = pruned.get(i) {
                o.set("pruned_cells", p.cells);
                o.set("pruned", p.pruned);
                o.set("pruned_lookups", p.lookups);
                o.set("skips", p.skips);
            }
            o
        })
        .collect();
    Value::Array(rows)
}

/// Multi-line human-readable explanation: the winning path with margins,
/// marginal contributions, runner-ups, the pruning heatmap, and (when
/// run) the Monte-Carlo cross-check.
pub fn render_explanation(problem: &Problem, ex: &Explanation) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{}: {}  -> {:.3} data sets/s (bottleneck: stage {})\n",
        ex.algorithm,
        crate::render::render_mapping(problem, &ex.solution.mapping),
        ex.solution.throughput,
        ex.margins.bottleneck
    ));
    out.push_str(
        "stage  tasks             cfg       eff s      slack  marginal/s  \
         exec margin        ecom-in margin     runner-up\n",
    );
    for s in &ex.margins.stages {
        let runner = ex
            .provenance
            .cells
            .get(s.index)
            .and_then(|c| c.runner_up.as_ref())
            .map(|r| format!("{}t x {}p @ {:.3}/s", r.prev_len, r.prev_procs, r.value))
            .unwrap_or_else(|| "-".to_string());
        let marginal = ex.marginal_thr.get(s.index).copied().unwrap_or(0.0);
        out.push_str(&format!(
            "{:<6} {:<16}  {:<8}  {:<9.4}  {:>5.2}  {:>10.3}  ({}, {})  ({}, {})  {}\n",
            s.index,
            module_label(problem, s.first, s.last),
            format!("{}x{}p", s.instances, s.instance_procs),
            s.effective_s,
            s.slack,
            marginal,
            fmt_factor(s.exec_down),
            fmt_factor(s.exec_up),
            fmt_factor(s.ecom_in_down),
            fmt_factor(s.ecom_in_up),
            runner,
        ));
    }
    let min_up = ex.margins.min_exec_up();
    if min_up.is_finite() {
        out.push_str(&format!(
            "tightest margin: any stage's execution cost growing {:.1}% flips the optimum\n",
            (min_up - 1.0) * 100.0
        ));
    } else {
        out.push_str("tightest margin: no single execution drift ever flips the optimum\n");
    }
    out.push_str(&render_heatmap(
        &ex.provenance.stage_cells,
        &ex.pruned_cells,
    ));
    if let Some(r) = &ex.robustness {
        out.push_str(&format!(
            "robustness (±{:.0}% on every cost, {} trials): regret mean {:.2}% max {:.2}%, \
             clustering changed in {}/{}\n",
            ex.spread * 100.0,
            r.trials,
            r.regret.mean * 100.0,
            r.regret.max * 100.0,
            r.clustering_changes,
            r.trials,
        ));
        out.push_str(
            "  (exact margins bound single-cost drift; the sampled regret prices \
             simultaneous drift of every cost)\n",
        );
    }
    out
}

/// The pruning heatmap: per stage, how much of the exact scan the pruned
/// production solve skipped (bar = skipped fraction of value lookups).
fn render_heatmap(unpruned: &[StageCells], pruned: &[StageCells]) -> String {
    if unpruned.is_empty() {
        return String::new();
    }
    let mut out = String::from("pruning heatmap (exact scan vs production solve):\n");
    for (i, u) in unpruned.iter().enumerate() {
        let Some(p) = pruned.get(i) else { continue };
        let saved = if u.lookups > 0 {
            1.0 - (p.lookups.min(u.lookups) as f64 / u.lookups as f64)
        } else {
            0.0
        };
        let bar: String = std::iter::repeat_n('█', (saved * 20.0).round() as usize).collect();
        out.push_str(&format!(
            "  stage {:<3} {:>9} lookups -> {:>9} ({:>5.1}% skipped, {} cells pruned) {}\n",
            u.stage,
            u.lookups,
            p.lookups,
            saved * 100.0,
            p.pruned,
            bar
        ));
    }
    out
}

/// The decision path as a Chrome trace (open in Perfetto or
/// `chrome://tracing`): one span per stage on a virtual per-data-set
/// timeline — `ts` is the cumulative response time into the pipeline,
/// `dur` the stage's own response — with the margins, slack, and chosen
/// configuration in `args`.
pub fn explain_trace_json(problem: &Problem, ex: &Explanation) -> Value {
    let mut events = Vec::new();
    let mut t_us = 0.0f64;
    for s in &ex.margins.stages {
        let mut args = Value::object();
        args.set("instances", s.instances);
        args.set("instance_procs", s.instance_procs);
        args.set("slack", s.slack);
        args.set("exec_up", s.exec_up);
        args.set("exec_down", s.exec_down);
        args.set("ecom_in_up", s.ecom_in_up);
        args.set("ecom_in_down", s.ecom_in_down);
        args.set(
            "marginal_thr",
            ex.marginal_thr.get(s.index).copied().unwrap_or(0.0),
        );
        let dur_us = (s.response_s * 1e6).max(1.0);
        let mut e = Value::object();
        e.set("name", module_label(problem, s.first, s.last));
        e.set("cat", "decision");
        e.set("ph", "X");
        e.set("ts", t_us);
        e.set("dur", dur_us);
        e.set("pid", 0u64);
        e.set("tid", s.index);
        e.set("args", args);
        events.push(e);
        t_us += dur_us;
    }
    let mut doc = Value::object();
    doc.set("traceEvents", Value::Array(events));
    doc.set("displayTimeUnit", "ms");
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemap_chain::{ChainBuilder, Edge, Task};
    use pipemap_doctor::MarginSpec;
    use pipemap_model::{PolyEcom, PolyUnary};

    /// A chain whose optimum has real, finite margins: both tasks keep
    /// state (not replicable), so the 12 processors must genuinely split
    /// between two parallel stages and a modest drift re-balances them.
    fn problem() -> Problem {
        let chain = ChainBuilder::new()
            .task(Task::new("front", PolyUnary::new(0.0, 5.0, 0.02)).not_replicable())
            .edge(Edge::new(
                PolyUnary::new(0.0, 0.05, 0.0),
                PolyEcom::new(0.02, 0.3, 0.3, 0.01, 0.01),
            ))
            .task(Task::new("back", PolyUnary::new(0.05, 3.0, 0.02)).not_replicable())
            .build();
        Problem::new(chain, 12, 1e12)
    }

    #[test]
    fn explain_produces_margins_runner_ups_and_heatmap() {
        let p = problem();
        let ex = explain(&p, &ExplainOptions::default()).expect("solves");
        assert_eq!(ex.algorithm, "dp_mapping");
        assert_eq!(ex.margins.stages.len(), ex.solution.mapping.modules.len());
        assert_eq!(ex.marginal_thr.len(), ex.margins.stages.len());
        // The bottleneck has slack 1 and carries the marginal gain.
        let b = ex.margins.bottleneck;
        assert!((ex.margins.stages[b].slack - 1.0).abs() < 1e-9);
        if ex.margins.stages.len() > 1 {
            assert!(ex.marginal_thr[b] > 0.0, "{:?}", ex.marginal_thr);
        }
        // Both solves produced per-stage statistics in the same order.
        assert_eq!(ex.provenance.stage_cells.len(), ex.pruned_cells.len());
        let text = render_explanation(&p, &ex);
        assert!(text.contains("exec margin"), "{text}");
        assert!(text.contains("pruning heatmap"), "{text}");
        assert!(text.contains("front"), "{text}");
    }

    #[test]
    fn explain_json_round_trips_through_the_doctor_margin_parser() {
        let p = problem();
        let ex = explain(&p, &ExplainOptions::default()).expect("solves");
        let doc = explain_json("test.spec", &p, &ex);
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some(EXPLAIN_SCHEMA)
        );
        let text = doc.to_json_pretty();
        let spec = MarginSpec::parse(&text).expect("doctor parses explain output");
        assert_eq!(spec.stages.len(), ex.margins.stages.len());
        for (ms, s) in spec.stages.iter().zip(&ex.margins.stages) {
            assert_eq!(ms.stage, s.index);
            // Infinities survive the null round-trip.
            assert_eq!(ms.exec_up.is_finite(), s.exec_up.is_finite());
            if s.exec_up.is_finite() {
                assert!((ms.exec_up - s.exec_up).abs() < 1e-12);
            }
            assert!((ms.exec_down - s.exec_down).abs() < 1e-12);
        }
    }

    #[test]
    fn assignment_mode_and_trace_export() {
        let p = problem();
        let ex = explain(
            &p,
            &ExplainOptions {
                cluster: false,
                ..ExplainOptions::default()
            },
        )
        .expect("solves");
        assert_eq!(ex.algorithm, "dp_assignment");
        assert_eq!(ex.margins.stages.len(), p.num_tasks());
        let trace = explain_trace_json(&p, &ex);
        let events = trace.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), p.num_tasks());
        assert_eq!(events[0].get("ph").and_then(Value::as_str), Some("X"));
        // Spans tile the virtual timeline.
        let ts1 = events[1].get("ts").and_then(Value::as_f64).unwrap();
        let d0 = events[0].get("dur").and_then(Value::as_f64).unwrap();
        assert!((ts1 - d0).abs() < 1e-9);
    }

    #[test]
    fn robustness_cross_checks_the_exact_margins() {
        let p = problem();
        // Spread 0: every trial reproduces the fitted model exactly, so
        // the Monte-Carlo regret must agree with the exact statement
        // that the mapping is optimal at gamma = 1.
        let ex = explain(
            &p,
            &ExplainOptions {
                robustness_trials: Some(4),
                spread: 0.0,
                ..ExplainOptions::default()
            },
        )
        .expect("solves");
        let r = ex.robustness.as_ref().expect("study ran");
        assert!(r.regret.max < 1e-9, "{:?}", r.regret);
        let text = render_explanation(&p, &ex);
        assert!(text.contains("robustness"), "{text}");
        let doc = explain_json("test.spec", &p, &ex);
        assert!(doc.get("robustness").is_some());

        // A spread far beyond the tightest margin must shift the optimum
        // in some trials — the sampled study agrees with the exact
        // analysis that such drift is *outside* the stability region.
        let tight = explain(
            &p,
            &ExplainOptions {
                robustness_trials: Some(16),
                spread: 0.9,
                ..ExplainOptions::default()
            },
        )
        .expect("solves");
        let min_up = tight.margins.min_exec_up();
        assert!(
            min_up.is_finite() && min_up < 1.9,
            "test premise: a ±90% spread escapes the margins (min_up {min_up})"
        );
        let r = tight.robustness.as_ref().expect("study ran");
        assert!(
            r.regret.max > 0.0 || r.clustering_changes > 0,
            "±90% drift should cost something: {r:?}"
        );
    }
}
