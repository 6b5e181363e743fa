//! # pipemap-core
//!
//! The mapping algorithms of Subhlok & Vondran, *Optimal Mapping of
//! Sequences of Data Parallel Tasks* (PPoPP 1995): given a chain of data
//! parallel tasks with execution/communication cost functions and `P`
//! processors, find the clustering, replication, and processor allocation
//! that maximises pipeline throughput.
//!
//! The solvers are:
//!
//! * one dynamic-programming value sweep, [`dp_cluster`], under a
//!   clustering policy: with any contiguous modules it is the optimal
//!   *full mapping* of §3.3 ([`dp_mapping`], `O(P⁴k²)` per the paper; see
//!   the module docs for the exact state space), and with one-task modules
//!   it is the optimal *processor assignment* of §3.1–§3.2
//!   ([`dp_assignment`], `O(P⁴k)`), whose thin front end is [`dp`];
//! * [`probe`], which turns the question around — the fewest processors
//!   that reach a target throughput — and answers processor minimisation
//!   ([`min_procs_mapping`]) and the exact optimum under free replication
//!   ([`dp_mapping_free`]);
//! * [`greedy`] — the fast heuristic of §4 (`O(Pk)`), its Theorem-1
//!   "modified" variant, and the bounded-backtracking refinement justified
//!   by Theorem 2, plus the §4.2 merge/split clustering heuristic in
//!   [`cluster`];
//! * [`brute`] — exhaustive oracles for small instances, used to validate
//!   the optimal algorithms and to quantify the greedy gap.
//!
//! All solvers work on a [`pipemap_chain::Problem`] and return a
//! [`Solution`] whose throughput is recomputed from first principles by
//! `pipemap-chain`'s evaluator, so a solver bug cannot report a throughput
//! its own mapping does not achieve.
//!
//! The sweep carries a performance layer — dense shared cost tables,
//! bound-based cell pruning seeded by the greedy incumbent, and a
//! scoped-thread line pool ([`pool`]) that fills each stage table in
//! place — controlled by [`SolveOptions`].
//! Every option combination returns bit-identical results (enforced by
//! `tests/equivalence.rs`); [`SolveOptions::reference`] is the faithful
//! serial enumeration used as the speedup baseline.

pub mod brute;
pub mod cluster;
pub mod dp;
pub mod dp_cluster;
pub mod greedy;
pub mod latency;
pub mod options;
pub mod pool;
pub mod probe;
pub mod provenance;
pub mod resolve;
pub mod solution;

pub use brute::{brute_force_assignment, brute_force_mapping};
pub use cluster::{cluster_heuristic, contract_chain, ContractedProblem};
pub use dp::{
    dp_assignment, dp_assignment_provenance, dp_assignment_provenance_ctx,
    dp_assignment_pruned_stats_ctx, dp_assignment_with, DpStage, DpTrace,
};
pub use dp_cluster::{
    dp_mapping, dp_mapping_provenance, dp_mapping_provenance_ctx, dp_mapping_pruned_stats_ctx,
    dp_mapping_with, SolveCtx,
};
pub use greedy::{
    greedy_assignment, greedy_assignment_with_table, refine_assignment, GreedyOptions,
    GreedyVariant,
};
pub use latency::{best_latency_mapping, latency, LatencySolution};
pub use options::SolveOptions;
pub use probe::{dp_mapping_free, min_procs_mapping, ProcsSolution};
pub use provenance::{
    stability_margins, DecisionCell, MarginReport, Provenance, RunnerUp, StageCells, StageMargin,
};
pub use resolve::{reprice_problem, CostDeltas, ResolveArtifact, ResolveMechanism, ResolveOutcome};
pub use solution::{Solution, SolveError};
