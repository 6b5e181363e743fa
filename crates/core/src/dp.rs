//! Optimal processor assignment by dynamic programming (§3.1–§3.2).
//!
//! Each task is its own module (no clustering); the algorithm finds the
//! per-task processor counts maximising throughput. The difficulty —
//! and the reason a simple "feed the slowest task" loop is not optimal —
//! is that a task's response time depends on the processor counts of its
//! *neighbours* through the external communication functions.
//!
//! ## Formulation
//!
//! Following the paper's Lemma 1, define
//!
//! ```text
//! V_j(p_total, p_last, p_next) =
//!     the best achievable bottleneck throughput over assignments of at
//!     most p_total processors to the subchain t_0..t_j, given that
//!     A(j) = p_last and the following task will receive p_next,
//! ```
//!
//! where the bottleneck includes the response of every task `t_0..t_j` —
//! the response of `t_j` itself is computable because `p_next` is part of
//! the state and the predecessor's count `q` is enumerated by the
//! recurrence:
//!
//! ```text
//! V_j(pt, pl, pn) = max_q min( V_{j-1}(pt − pl, q, pl),  1 / f_j(q, pl, pn) )
//! V_0(pt, pl, pn) = 1 / f_0(pl, pn)                       for pl ≤ pt
//! ```
//!
//! (The paper's function `F` excludes the last task's response and folds it
//! one level up; folding it at extension time when `q` is known is the same
//! computation.) Letting the base case accept `pl ≤ pt` implements the
//! "optimal assignment may not use all available processors" refinement:
//! slack is absorbed at the left end, and the value function is monotone in
//! `p_total` by induction.
//!
//! ## Replication (§3.2)
//!
//! With maximal replication, a task offered `p` processors runs
//! `r = ⌊p/p_min⌋` instances of `⌊p/r⌋` processors; every cost function is
//! evaluated at *instance* sizes and the response divides by `r`. The
//! tables in [`pipemap_chain::CostTable`] pre-compute the `p → (r, inst)`
//! map, so the recurrence is unchanged — exactly the paper's observation.
//!
//! ## One sweep
//!
//! This recurrence is the clustering DP's (§3.3) with every module one
//! task long, so the functions here are thin callers of
//! [`crate::dp_cluster`]'s sweep under its one-task policy. Its `p_next`
//! axis holds the successor's *instance size*, which is all the
//! subproblem depends on; [`DpStage::get`] maps a raw successor offer onto
//! it. Every [`SolveOptions`] combination returns bit-identical results
//! (see `tests/equivalence.rs`; `tests/assignment_oracle.rs` keeps the
//! serial raw-offer recurrence as the oracle of answers and tables).
//!
//! Complexity: `O(P⁴ k)` time worst case (the `pn` dimension of the final
//! stage is a single sentinel value, and per-stage work is
//! `pt × pl × pn × q ≤ P⁴`), `O(P² · slots)` memory per stage.

use pipemap_chain::{Assignment, Problem};
use pipemap_model::Procs;

use crate::dp_cluster::{
    recorded_run, run_cluster_dp, run_cluster_dp_with_fallback, stage_key, Clustering, SolveCtx,
    Stage, NO_SLOT,
};
use crate::options::SolveOptions;
use crate::provenance::{Provenance, StageCells};
use crate::solution::{Solution, SolveError};

/// One DP stage's value table, kept for introspection (Figure 4 of the
/// paper illustrates exactly these subchain tables).
#[derive(Clone, Debug)]
pub struct DpStage {
    /// Task index `j` of this stage.
    pub task: usize,
    /// The sweep's table of the one-task module `j`.
    table: Stage,
    /// The problem's `P`.
    max_p: usize,
    /// Raw successor offer → the table's successor slot (`NO_SLOT` below
    /// the successor's floor); empty for the final (sentinel) stage.
    slot_of_raw: Vec<usize>,
}

impl DpStage {
    /// Value at `(p_total, p_last, p_next)`; `pn = 0` is the final stage's
    /// sentinel ("no next task"). Returns `-inf` for invalid states,
    /// including a `pn` below the successor's floor.
    pub fn get(&self, pt: usize, pl: usize, pn: usize) -> f64 {
        if pl < 1 || pl > self.max_p || pt > self.max_p {
            return f64::NEG_INFINITY;
        }
        let slot = if self.slot_of_raw.is_empty() {
            0 // sentinel stage: pn is ignored (the paper's φ)
        } else {
            match self.slot_of_raw.get(pn) {
                Some(&s) if s != NO_SLOT => s,
                _ => return f64::NEG_INFINITY,
            }
        };
        self.table.value(self.max_p, slot, pt, pl)
    }
}

/// Introspection record of a DP run: per-stage tables plus the final
/// choice. Produced by [`dp_assignment_traced`].
#[derive(Clone, Debug)]
pub struct DpTrace {
    /// Stages in task order.
    pub stages: Vec<DpStage>,
    /// Chosen processors per task.
    pub assignment: Vec<Procs>,
    /// Optimal bottleneck throughput.
    pub throughput: f64,
    /// Total DP cells enumerated by this run.
    pub cells: u64,
    /// Cells of that total skipped wholesale by pruning.
    pub cells_pruned: u64,
}

/// The one-task sweep on `ctx`, keeping every stage table behind a
/// [`DpStage`] view.
pub(crate) fn trace(
    problem: &Problem,
    ctx: &SolveCtx,
    opts: &SolveOptions,
) -> Result<DpTrace, SolveError> {
    let run = run_cluster_dp(problem, ctx, opts, Clustering::Singletons, true, None)?;
    let k = problem.num_tasks();
    let p = problem.total_procs;
    let mut tables = run.stages.expect("stages kept");
    let stages = (0..k)
        .map(|j| {
            let slot_of_raw = if j + 1 < k {
                (0..=p)
                    .map(|pn| {
                        ctx.table()
                            .module_replication(j + 1, j + 1, pn)
                            .map_or(NO_SLOT, |rep| {
                                run.axes[j + 1].slot_of_inst[rep.procs_per_instance]
                            })
                    })
                    .collect()
            } else {
                Vec::new()
            };
            DpStage {
                task: j,
                table: tables[stage_key(k, j, 1)]
                    .take()
                    .expect("every task is a module of the optimum"),
                max_p: p,
                slot_of_raw,
            }
        })
        .collect();
    Ok(DpTrace {
        stages,
        assignment: run.offers,
        throughput: run.solution.throughput,
        cells: run.cells,
        cells_pruned: run.cells_pruned,
    })
}

/// Optimal processor assignment for the unclustered problem: each task its
/// own module, replication per the problem's policy. Returns the optimal
/// [`Solution`] (its throughput is the evaluator's, equal to the DP's
/// optimum bit for bit) and the chosen per-task processor counts. Uses
/// the default performance options; see [`dp_assignment_with`].
pub fn dp_assignment(problem: &Problem) -> Result<(Solution, Assignment), SolveError> {
    dp_assignment_with(problem, &SolveOptions::default())
}

/// [`dp_assignment`] with explicit [`SolveOptions`]. Every option
/// combination returns bit-identical results; the options only trade
/// wall-clock time.
pub fn dp_assignment_with(
    problem: &Problem,
    opts: &SolveOptions,
) -> Result<(Solution, Assignment), SolveError> {
    let ctx = SolveCtx::new(problem)?;
    let run =
        run_cluster_dp_with_fallback(problem, &ctx, opts, Clustering::Singletons, false, None)?;
    Ok((run.solution, Assignment(run.offers)))
}

/// [`dp_assignment`] keeping every stage table for inspection (Figure 4).
/// Runs the reference enumeration so the tables cover every raw
/// `(pt, pl, pn)` state.
pub fn dp_assignment_traced(problem: &Problem) -> Result<DpTrace, SolveError> {
    let ctx = SolveCtx::new(problem)?;
    trace(problem, &ctx, &SolveOptions::reference())
}

/// [`dp_assignment`] recording full decision provenance: the winning DP
/// path (one [`crate::provenance::DecisionCell`] per task, with runner-up
/// predecessors) and per-stage cell statistics. Forces the unpruned scan
/// so runner-up values are exact — a pruned scan drops sub-incumbent
/// candidates wholesale (see [`SolveOptions::provenance`]); `par`, `dedup`
/// and `threads` are honoured as given. Results are bit-identical to
/// [`dp_assignment_with`].
pub fn dp_assignment_provenance(
    problem: &Problem,
    opts: &SolveOptions,
) -> Result<(Solution, Assignment, Provenance), SolveError> {
    dp_assignment_provenance_ctx(problem, &SolveCtx::new(problem)?, opts)
}

/// [`dp_assignment_provenance`] against a shared [`SolveCtx`], so
/// multi-entry-point callers like `pipemap explain` build the dense table
/// and the suffix bounds once.
pub fn dp_assignment_provenance_ctx(
    problem: &Problem,
    ctx: &SolveCtx,
    opts: &SolveOptions,
) -> Result<(Solution, Assignment, Provenance), SolveError> {
    let (run, prov) = recorded_run(problem, ctx, opts, Clustering::Singletons, false)?;
    Ok((run.solution, Assignment(run.offers), prov))
}

/// Per-stage cell statistics of a *pruned* assignment solve against a
/// shared [`SolveCtx`] — the "what did pruning skip" half of the `pipemap
/// explain` heatmap (the exact half comes from
/// [`dp_assignment_provenance`]'s unpruned counts). The solve itself is
/// bit-identical to [`dp_assignment_with`]; only the statistics are kept.
pub fn dp_assignment_pruned_stats_ctx(
    problem: &Problem,
    ctx: &SolveCtx,
    opts: &SolveOptions,
) -> Result<Vec<StageCells>, SolveError> {
    recorded_run(problem, ctx, opts, Clustering::Singletons, true).map(|(_, prov)| prov.stage_cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemap_chain::{throughput, ChainBuilder, Edge, Mapping, Task};
    use pipemap_model::{MemoryReq, PolyEcom, PolyUnary};

    fn simple_chain(work: &[f64]) -> pipemap_chain::TaskChain {
        let mut b =
            ChainBuilder::new().task(Task::new("t0", PolyUnary::perfectly_parallel(work[0])));
        for (i, &w) in work.iter().enumerate().skip(1) {
            b = b
                .edge(Edge::free())
                .task(Task::new(format!("t{i}"), PolyUnary::perfectly_parallel(w)));
        }
        b.build()
    }

    #[test]
    fn single_task_uses_all_procs() {
        let p = Problem::new(simple_chain(&[8.0]), 4, 1e9).without_replication();
        let (s, a) = dp_assignment(&p).unwrap();
        assert_eq!(a.0, vec![4]);
        assert!((s.throughput - 0.5).abs() < 1e-12);
    }

    #[test]
    fn balanced_split_no_comm() {
        // Two identical perfectly-parallel tasks, no comm: split in half.
        let p = Problem::new(simple_chain(&[8.0, 8.0]), 8, 1e9).without_replication();
        let (s, a) = dp_assignment(&p).unwrap();
        assert_eq!(a.0, vec![4, 4]);
        assert!((s.throughput - 0.5).abs() < 1e-12);
    }

    #[test]
    fn proportional_split_no_comm() {
        // Work 12 vs 4 on 8 procs: best is 6/2 (bottleneck 2.0).
        let p = Problem::new(simple_chain(&[12.0, 4.0]), 8, 1e9).without_replication();
        let (s, a) = dp_assignment(&p).unwrap();
        assert_eq!(a.0, vec![6, 2]);
        assert!((s.throughput - 0.5).abs() < 1e-12);
    }

    #[test]
    fn may_leave_processors_idle() {
        // Fixed-cost task plus an overhead-heavy task: extra processors on
        // the second task only hurt. f1(p) = 1 + p/10: best at p = 1.
        let c = ChainBuilder::new()
            .task(Task::new("a", PolyUnary::new(2.0, 0.0, 0.0)))
            .edge(Edge::free())
            .task(Task::new("b", PolyUnary::new(0.0, 1.0, 0.1)))
            .build();
        let p = Problem::new(c, 16, 1e9).without_replication();
        let (s, a) = dp_assignment(&p).unwrap();
        // Task a: any count, 2.0. Task b: minimum at sqrt(1/0.1) ≈ 3;
        // f(3) = 1/3 + 0.3 = 0.633. Bottleneck is a at 2.0 regardless, so
        // anything with b's response ≤ 2 is optimal; throughput 0.5.
        assert!((s.throughput - 0.5).abs() < 1e-12);
        assert!(a.total() <= 16);
    }

    #[test]
    fn comm_aware_beats_comm_blind() {
        // Strong ecom penalty growing with sender procs: the optimum gives
        // the sender fewer processors than a comm-blind balance would.
        let c = ChainBuilder::new()
            .task(Task::new("a", PolyUnary::perfectly_parallel(8.0)))
            .edge(Edge::new(
                PolyUnary::zero(),
                PolyEcom::new(0.0, 0.0, 0.0, 0.5, 0.0),
            ))
            .task(Task::new("b", PolyUnary::perfectly_parallel(8.0)))
            .build();
        let p = Problem::new(c, 8, 1e9).without_replication();
        let (s, a) = dp_assignment(&p).unwrap();
        // Check optimality against explicit enumeration.
        let mut best = 0.0_f64;
        for pa in 1..=7usize {
            for pb in 1..=(8 - pa) {
                let m = Mapping::task_parallel(&[pa, pb]);
                best = best.max(throughput(&p.chain, &m));
            }
        }
        assert!((s.throughput - best).abs() < 1e-9);
        assert!(a.total() <= 8);
        // The ecom penalty (0.5·ps on both endpoints) caps the useful
        // sender size: a naive "all processors help" split of 8 would use
        // them all, but responses at [4,4] are 8/4 + 0.5·4 = 4.0 and any
        // larger sender is strictly worse on both tasks.
        assert!(a.procs(0) <= 4, "sender overallocated: {:?}", a.0);
    }

    #[test]
    fn replication_boosts_throughput() {
        // One task, fixed response 1s, floor 1: with replication on 8
        // procs → 8 instances → throughput 8.
        let c = ChainBuilder::new()
            .task(Task::new("t", PolyUnary::new(1.0, 0.0, 0.0)))
            .build();
        let with_rep = Problem::new(c.clone(), 8, 1e9);
        let (s, _) = dp_assignment(&with_rep).unwrap();
        assert!((s.throughput - 8.0).abs() < 1e-9);
        let without = Problem::new(c, 8, 1e9).without_replication();
        let (s2, _) = dp_assignment(&without).unwrap();
        assert!((s2.throughput - 1.0).abs() < 1e-9);
    }

    #[test]
    fn memory_floor_respected() {
        let c = ChainBuilder::new()
            .task(
                Task::new("a", PolyUnary::perfectly_parallel(4.0))
                    .with_memory(MemoryReq::new(0.0, 30.0)),
            )
            .edge(Edge::free())
            .task(Task::new("b", PolyUnary::perfectly_parallel(4.0)))
            .build();
        let p = Problem::new(c, 8, 10.0).without_replication(); // floor a = 3
        let (_, a) = dp_assignment(&p).unwrap();
        assert!(a.procs(0) >= 3);
    }

    #[test]
    fn infeasible_when_floors_exceed_budget() {
        let c = ChainBuilder::new()
            .task(Task::new("a", PolyUnary::zero()).with_memory(MemoryReq::new(0.0, 50.0)))
            .edge(Edge::free())
            .task(Task::new("b", PolyUnary::zero()).with_memory(MemoryReq::new(0.0, 50.0)))
            .build();
        let p = Problem::new(c, 8, 10.0); // floors 5 + 5 > 8
        assert_eq!(dp_assignment(&p).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn infeasible_when_task_never_fits() {
        let c = ChainBuilder::new()
            .task(Task::new("a", PolyUnary::zero()).with_memory(MemoryReq::new(20.0, 0.0)))
            .build();
        let p = Problem::new(c, 8, 10.0);
        assert_eq!(dp_assignment(&p).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn trace_exposes_stages() {
        let p = Problem::new(simple_chain(&[4.0, 4.0]), 4, 1e9).without_replication();
        let t = dp_assignment_traced(&p).unwrap();
        assert_eq!(t.stages.len(), 2);
        assert_eq!(t.assignment.len(), 2);
        assert_eq!(t.stages[0].task, 0);
        // The final stage's best value matches the reported throughput.
        assert!(t.throughput > 0.0);
        // The sentinel-stage accessor agrees with the answer: the best
        // get(P, pl, 0) over pl equals the optimum.
        let best = (1..=4)
            .map(|pl| t.stages[1].get(4, pl, 0))
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(best, t.throughput);
    }

    #[test]
    fn option_combinations_agree_exactly() {
        let c = ChainBuilder::new()
            .task(Task::new("a", PolyUnary::new(0.1, 6.0, 0.02)))
            .edge(Edge::new(
                PolyUnary::zero(),
                PolyEcom::new(0.2, 1.0, 1.0, 0.05, 0.05),
            ))
            .task(Task::new("b", PolyUnary::new(0.0, 10.0, 0.01)))
            .edge(Edge::new(
                PolyUnary::zero(),
                PolyEcom::new(0.1, 0.5, 0.5, 0.02, 0.02),
            ))
            .task(Task::new("c", PolyUnary::perfectly_parallel(3.0)))
            .build();
        let p = Problem::new(c, 24, 1e9);
        let (reference, ra) = dp_assignment_with(&p, &SolveOptions::reference()).unwrap();
        for opts in [
            SolveOptions::default(),
            SolveOptions {
                par: false,
                ..SolveOptions::default()
            },
            SolveOptions {
                prune: false,
                ..SolveOptions::default()
            },
            SolveOptions {
                dedup: false,
                ..SolveOptions::default()
            },
            SolveOptions::with_threads(4),
        ] {
            let (s, a) = dp_assignment_with(&p, &opts).unwrap();
            assert_eq!(
                s.throughput.to_bits(),
                reference.throughput.to_bits(),
                "options {opts:?} changed the optimum"
            );
            assert_eq!(a.0, ra.0, "options {opts:?} changed the assignment");
        }
    }

    #[test]
    fn three_task_chain_with_comm_is_optimal_vs_enumeration() {
        let c = ChainBuilder::new()
            .task(Task::new("a", PolyUnary::perfectly_parallel(6.0)))
            .edge(Edge::new(
                PolyUnary::zero(),
                PolyEcom::new(0.2, 1.0, 1.0, 0.05, 0.05),
            ))
            .task(Task::new("b", PolyUnary::perfectly_parallel(10.0)))
            .edge(Edge::new(
                PolyUnary::zero(),
                PolyEcom::new(0.1, 0.5, 0.5, 0.02, 0.02),
            ))
            .task(Task::new("c", PolyUnary::perfectly_parallel(3.0)))
            .build();
        let p = Problem::new(c, 12, 1e9).without_replication();
        let (s, _) = dp_assignment(&p).unwrap();
        let mut best = 0.0_f64;
        for pa in 1..=12usize {
            for pb in 1..=12usize {
                for pc in 1..=12usize {
                    if pa + pb + pc > 12 {
                        continue;
                    }
                    let m = Mapping::task_parallel(&[pa, pb, pc]);
                    best = best.max(throughput(&p.chain, &m));
                }
            }
        }
        assert!(
            (s.throughput - best).abs() < 1e-9,
            "dp {} vs enumeration {}",
            s.throughput,
            best
        );
    }
}
