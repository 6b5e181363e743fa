//! Optimal mapping with clustering by dynamic programming (§3.3).
//!
//! The full mapping problem decides, jointly: where the module boundaries
//! fall, how many processors each module receives, and (via the §3.2 rule)
//! how far each module is replicated. The paper extends the assignment DP
//! with one extra state component — the *length* of the module following
//! the current subchain — because a module's memory requirement, and hence
//! its processor floor and replication degree, is known only once its full
//! extent is known.
//!
//! ## State space used here
//!
//! We carry the same information in a form that makes every folded response
//! exact under replication:
//!
//! ```text
//! V(j, L, pl, ne, pt) =
//!   best achievable bottleneck throughput over mappings of tasks 0..=j
//!   whose last module is M = [j−L+1 ..= j] with pl processors, given that
//!   the module following M has instance size ne (0 = none), using at most
//!   pt processors for tasks 0..=j.
//! ```
//!
//! The response of `M` itself is folded *at this level*: its extent and
//! processors give its replication `(r, inst)` from the tables; `ne` gives
//! the outgoing transfer; and the recurrence enumerates the previous
//! module's `(length, processors)` pair, which gives the incoming transfer
//! at exact instance sizes:
//!
//! ```text
//! V(j, L, pl, ne, pt) = max over (L', q) of
//!     min( V(j−L, L', q, inst(M), pt − pl),
//!          r_M / (ecom_in(inst', inst) + exec_M(inst) + ecom_out(inst, ne)) )
//! ```
//!
//! with the base case (module starting at task 0) accepting `pl ≤ pt` so
//! processors may be left idle. This is the paper's
//! `M_j(p_total, p_last, p_next, next_mod_length)` with the "next module"
//! collapsed to its instance size (two next-modules with equal instance
//! size are interchangeable for the subproblem, which is what lets the
//! paper's 4-argument table work) and the last module's own length kept
//! explicitly.
//!
//! Worst-case work is `O(k³ P⁴)` with `O(k² P³)` memory; the paper reports
//! `O(P⁴ k²)` counting its per-entry work as `O(P)` amortised. Either way
//! the cost is dominated by `P⁴`, and for the paper's scale (`P = 64`,
//! `k ≤ 5`) the solve completes in seconds; the greedy algorithm exists
//! precisely because this is too slow for large `P` or dynamic mapping.
//!
//! ## Performance layer
//!
//! [`dp_mapping_with`] exposes the same knobs as the assignment DP (see
//! [`crate::dp`] and [`SolveOptions`]); all of them preserve bit-identical
//! results:
//!
//! * the `ne` axis of each stage is restricted (under `dedup`) to the
//!   *achievable instance sizes* of modules starting at the next task —
//!   the only values the recurrence ever reads — instead of all of
//!   `1..=P`;
//! * whole `(pl, ne)` rows are skipped when the module's best possible
//!   response cannot reach the greedy incumbent (`prune`), individual
//!   cells are skipped when the processors they leave for the *rest* of
//!   the chain cannot sustain the incumbent (a cheapest-transfer
//!   branch-and-bound suffix bound — see [`suffix_bounds`]) or when no
//!   consumer can ever read them (structural reachability), the scan
//!   over a previous stage is skipped when that stage's row maximum
//!   cannot beat the running best, and the candidate loop breaks once a
//!   cell attains its own response cap;
//! * the `pl` rows of every `(j, L)` stage are computed on the scoped
//!   worker pool (`par`), reading the already-finished stages and the
//!   dense cost slabs, and merged deterministically at the stage barrier.

use std::sync::OnceLock;

use pipemap_chain::{CostTable, Mapping, ModuleAssignment, Problem};
use pipemap_model::Procs;

use crate::dp::response_throughput;
use crate::greedy;
use crate::options::SolveOptions;
use crate::pool::{self, CellStats};
use crate::provenance::{DecisionCell, Provenance, RunnerUp, StageCells};
use crate::solution::{checked_table, Solution, SolveError};

/// Relative slack on the pruning incumbent; kept so that the cells
/// skipped, a tracked benchmark metric, do not move (see `dp.rs`).
const PRUNE_MARGIN: f64 = 1e-12;

/// Packed parent record: the maximising previous-module choice.
#[derive(Clone, Copy, Debug, Default)]
struct Parent {
    prev_len: u16,
    prev_procs: u16,
}

/// Shared solver context for one cost table: the dense table plus
/// lazily-computed derived structures that several entry points need.
/// Today that is the branch-and-bound [`suffix_bounds`] table, which
/// `pipemap explain` used to recompute once per provenance / pruned-stats
/// / production solve; a `SolveCtx` computes it at most once.
pub struct SolveCtx {
    table: CostTable,
    k: usize,
    p: usize,
    suffix: OnceLock<Vec<f64>>,
}

impl SolveCtx {
    /// Build the cost table for `problem` and wrap it. Fails with
    /// [`SolveError::InvalidCost`] if any cost is NaN or negative.
    pub fn new(problem: &Problem) -> Result<Self, SolveError> {
        Ok(Self::from_table(
            checked_table(problem)?,
            problem.num_tasks(),
            problem.total_procs,
        ))
    }

    /// Wrap an existing table (e.g. a retained table patched in place by
    /// the incremental re-solver). Derived caches start empty: they
    /// depend on the table's costs.
    pub fn from_table(table: CostTable, k: usize, p: usize) -> Self {
        Self {
            table,
            k,
            p,
            suffix: OnceLock::new(),
        }
    }

    /// The wrapped cost table.
    pub fn table(&self) -> &CostTable {
        &self.table
    }

    /// The cached suffix-bound table, computed on first use.
    fn suffix(&self) -> &[f64] {
        self.suffix
            .get_or_init(|| suffix_bounds(&self.table, self.k, self.p))
    }
}

/// Per-(j, L) stage table.
#[derive(Clone)]
pub(crate) struct Stage {
    /// `value[(s * (P+1) + pt) * P + (pl - 1)]`, where `s` is the slot of
    /// the next-module instance size on this stage's `ne` axis. The `pl`
    /// scan of the recurrence walks a row contiguously.
    value: Vec<f64>,
    /// Same layout.
    parent: Vec<Parent>,
    /// `rowmax[s * (P+1) + pt]` = max of the row over `pl` (only built
    /// when pruning: it bounds what any predecessor scan can contribute).
    rowmax: Vec<f64>,
    /// The module's processor floor (first feasible `pl`).
    floor: Procs,
}

/// The `ne` axis of stages whose subchain ends just before `start`:
/// the distinct instance sizes of modules beginning at task `start`.
struct NeAxis {
    insts: Vec<Procs>,
    /// instance size → slot (`usize::MAX` = never read).
    slot_of_inst: Vec<usize>,
    /// Per slot: the fewest processors any module starting at `start`
    /// needs to realise this instance size (`usize::MAX` when no module
    /// does). A consumer reading slot `s` holds at least `min_procs[s]`
    /// processors itself, so cells with `pt > P - min_procs[s]` can
    /// never be read — the structural half of the `prune` option.
    min_procs: Vec<usize>,
}

const NO_SLOT: usize = usize::MAX;

impl NeAxis {
    fn sentinel() -> Self {
        Self {
            insts: vec![0],
            slot_of_inst: Vec::new(),
            min_procs: vec![0],
        }
    }

    /// Axis for modules starting at `start` (< k). With `dedup`, only the
    /// instance sizes actually achievable by some `(last, pl)` pair;
    /// otherwise the raw `1..=P` enumeration of the reference path.
    fn for_start(table: &CostTable, start: usize, k: usize, p: Procs, dedup: bool) -> Self {
        // Fewest processors realising each instance size, over every
        // module `(start..=last, pl)`.
        let mut min_pl = vec![usize::MAX; p + 1];
        for last in start..k {
            let Some(floor) = table.module_floor(start, last) else {
                continue;
            };
            for pl in floor..=p {
                let rep = table
                    .module_replication(start, last, pl)
                    .expect("pl >= floor implies a replication exists");
                let m = &mut min_pl[rep.procs_per_instance];
                if pl < *m {
                    *m = pl;
                }
            }
        }
        if !dedup {
            let mut slot_of_inst = vec![NO_SLOT; p + 1];
            for (slot, inst) in (1..=p).enumerate() {
                slot_of_inst[inst] = slot;
            }
            return Self {
                insts: (1..=p).collect(),
                slot_of_inst,
                min_procs: (1..=p).map(|inst| min_pl[inst]).collect(),
            };
        }
        let mut insts = Vec::new();
        let mut slot_of_inst = vec![NO_SLOT; p + 1];
        let mut min_procs = Vec::new();
        for inst in 1..=p {
            if min_pl[inst] != usize::MAX {
                slot_of_inst[inst] = insts.len();
                insts.push(inst);
                min_procs.push(min_pl[inst]);
            }
        }
        Self {
            insts,
            slot_of_inst,
            min_procs,
        }
    }

    fn len(&self) -> usize {
        self.insts.len()
    }
}

/// Branch-and-bound suffix bounds.
///
/// `out[j * (P+1) + r]` bounds the throughput of *any* completion of a
/// partial mapping that ends at task `j` with `r` processors left for
/// tasks `j+1..k`: every later task `t` lives in some module covering it
/// on at most `r` processors, and that module's response time is at
/// least its execution time plus the *cheapest possible* incoming and
/// outgoing transfers at its instance size (the recurrence charges a
/// module `cin + exec + out`, and the actual neighbour sizes can only
/// cost more than the slab minima). Taking the minimum over the later
/// tasks gives an admissible upper bound, so a cell whose bound falls
/// below the incumbent cannot lie on the optimal path. In particular
/// `r = 0` (or `r` below every covering module's floor) yields `-∞` and
/// kills the provably dead full-budget cells of non-final stages. The
/// `j = k-1` row is unused (`+∞`: nothing remains).
fn suffix_bounds(table: &CostTable, k: usize, p: usize) -> Vec<f64> {
    let dense = table.dense();
    // Cheapest transfer on edge e for one fixed endpoint instance size:
    // in_min[e * P + (i-1)] = min over sender sizes of ecom(e)[s][i]
    // (module *receiving* on edge e with instance size i);
    // out_min[e * P + (i-1)] = min over receiver sizes of ecom(e)[i][r].
    let mut in_min = vec![f64::INFINITY; k.saturating_sub(1) * p];
    let mut out_min = vec![f64::INFINITY; k.saturating_sub(1) * p];
    for e in 0..k.saturating_sub(1) {
        let slab = dense.ecom_slab(e);
        for s in 0..p {
            for r in 0..p {
                let c = slab[s * p + r];
                let im = &mut in_min[e * p + r];
                if c < *im {
                    *im = c;
                }
                let om = &mut out_min[e * p + s];
                if c < *om {
                    *om = c;
                }
            }
        }
    }
    // task_ub[t * (P+1) + b]: best cheapest-transfer throughput over
    // every module covering task t on at most b processors.
    let mut task_ub = vec![f64::NEG_INFINITY; k * (p + 1)];
    for start in 0..k {
        for end in start..k {
            let Some(floor) = table.module_floor(start, end) else {
                continue;
            };
            if floor > p {
                continue;
            }
            for pl in floor..=p {
                let rep = table
                    .module_replication(start, end, pl)
                    .expect("pl >= floor implies a replication exists");
                let i = rep.procs_per_instance;
                let cin = if start > 0 {
                    in_min[(start - 1) * p + (i - 1)]
                } else {
                    0.0
                };
                let out = if end + 1 < k {
                    out_min[end * p + (i - 1)]
                } else {
                    0.0
                };
                let exec = table.module_exec(start, end, i);
                let thr = response_throughput(cin, exec, out, rep.instances);
                for t in start..=end {
                    let cell = &mut task_ub[t * (p + 1) + pl];
                    if thr > *cell {
                        *cell = thr;
                    }
                }
            }
        }
    }
    // Monotone closure over the budget axis ("at most b", not "exactly").
    for t in 0..k {
        for b in 1..=p {
            let prev = task_ub[t * (p + 1) + b - 1];
            let cell = &mut task_ub[t * (p + 1) + b];
            if prev > *cell {
                *cell = prev;
            }
        }
    }
    let mut suffix = vec![f64::INFINITY; k * (p + 1)];
    for j in (0..k.saturating_sub(1)).rev() {
        for r in 0..=p {
            let mut v = task_ub[(j + 1) * (p + 1) + r];
            if j + 2 < k {
                let rest = suffix[(j + 1) * (p + 1) + r];
                if rest < v {
                    v = rest;
                }
            }
            suffix[j * (p + 1) + r] = v;
        }
    }
    suffix
}

/// One computed row (a single `pl`) of a stage, layout `[s * (P+1) + pt]`.
struct Row {
    value: Vec<f64>,
    /// Empty for base-case stages (no predecessor).
    parent: Vec<Parent>,
    stats: CellStats,
}

/// A predecessor stage reachable by the current stage's recurrence: the
/// previous module has length `prev_len` and its table is `stage`.
struct PrevGroup<'a> {
    prev_len: usize,
    stage: &'a Stage,
    /// Instance size of the previous module at each offer `q`
    /// (`prev_inst[q - 1]`, valid for `q >= stage.floor`).
    prev_inst: Vec<Procs>,
}

/// Optimal full mapping (clustering + replication + allocation) of the
/// problem, with the default performance options. Optimal with respect to
/// the problem's replication policy and cost model; machine-geometry
/// feasibility is handled separately by `pipemap-machine`.
pub fn dp_mapping(problem: &Problem) -> Result<Solution, SolveError> {
    dp_mapping_with(problem, &SolveOptions::default())
}

/// [`dp_mapping`] with explicit [`SolveOptions`]. Every option combination
/// returns bit-identical results; the options only trade wall-clock time.
pub fn dp_mapping_with(problem: &Problem, opts: &SolveOptions) -> Result<Solution, SolveError> {
    let ctx = SolveCtx::new(problem)?;
    run_cluster_dp_with_fallback(problem, &ctx, opts, false, None).map(|run| run.solution)
}

/// [`run_cluster_dp`] with a defensive retry: an admissible incumbent can
/// never prune the optimum, but if the margin were ever wrong, fall back
/// to the exact path rather than mis-reporting infeasibility. The retry
/// keeps any warm-start splice — retained prefixes are exact regardless
/// of pruning.
pub(crate) fn run_cluster_dp_with_fallback(
    problem: &Problem,
    ctx: &SolveCtx,
    opts: &SolveOptions,
    keep_stages: bool,
    resume: Option<&ClusterResume<'_>>,
) -> Result<ClusterRun, SolveError> {
    match run_cluster_dp(problem, ctx, opts, keep_stages, resume) {
        Err(SolveError::Infeasible) if opts.prune => {
            let unpruned = SolveOptions {
                prune: false,
                ..*opts
            };
            run_cluster_dp(problem, ctx, &unpruned, keep_stages, resume)
        }
        r => r,
    }
}

/// [`dp_mapping`] recording full decision provenance: the winning DP path
/// (one [`DecisionCell`] per module, with runner-up predecessor choices)
/// and per-stage cell statistics. Forces the unpruned scan so runner-up
/// values are exact (see [`SolveOptions::provenance`]); `par`, `dedup` and
/// `threads` are honoured as given. Results are bit-identical to
/// [`dp_mapping_with`].
pub fn dp_mapping_provenance(
    problem: &Problem,
    opts: &SolveOptions,
) -> Result<(Solution, Provenance), SolveError> {
    let ctx = SolveCtx::new(problem)?;
    dp_mapping_provenance_ctx(problem, &ctx, opts)
}

/// [`dp_mapping_provenance`] against a shared [`SolveCtx`].
pub fn dp_mapping_provenance_ctx(
    problem: &Problem,
    ctx: &SolveCtx,
    opts: &SolveOptions,
) -> Result<(Solution, Provenance), SolveError> {
    let opts = SolveOptions {
        prune: false,
        provenance: true,
        ..*opts
    };
    let run = run_cluster_dp(problem, ctx, &opts, false, None)?;
    Ok((
        run.solution,
        run.provenance
            .expect("provenance recorded when the option is set"),
    ))
}

/// Per-stage cell statistics of a *pruned* cluster solve against a shared
/// [`SolveCtx`] — the "what did pruning skip" half of the `pipemap
/// explain` heatmap (the exact half comes from
/// [`dp_mapping_provenance`]'s unpruned counts). The solve itself is
/// bit-identical to [`dp_mapping_with`]; only the statistics are kept.
pub fn dp_mapping_pruned_stats_ctx(
    problem: &Problem,
    ctx: &SolveCtx,
    opts: &SolveOptions,
) -> Result<Vec<StageCells>, SolveError> {
    let opts = SolveOptions {
        prune: true,
        provenance: true,
        ..*opts
    };
    let run = run_cluster_dp(problem, ctx, &opts, false, None)?;
    Ok(run
        .provenance
        .expect("provenance recorded when the option is set")
        .stage_cells)
}

/// Warm-start state for [`run_cluster_dp`]: splice the retained `(j, L)`
/// stage tables of a previous *unpruned, stage-keeping* solve for every
/// end task left of `frontier` and recompute only the invalidated suffix.
/// See `resolve.rs` for the admissibility argument.
pub(crate) struct ClusterResume<'a> {
    /// First end task whose costs — or transitive inputs — changed;
    /// stages with `j < frontier` are copied from `stages` verbatim.
    pub(crate) frontier: usize,
    /// Retained stage tables (`stage_key` layout, all `k * k` slots) of
    /// the previous unpruned solve.
    pub(crate) stages: &'a [Option<Stage>],
    /// Admissible pruning incumbent: the previous optimum's throughput on
    /// the re-priced problem, or `NEG_INFINITY` to fall back to the greedy
    /// bound.
    pub(crate) incumbent: f64,
}

/// Result of one [`run_cluster_dp`] invocation.
pub(crate) struct ClusterRun {
    pub(crate) solution: Solution,
    pub(crate) provenance: Option<Provenance>,
    /// The full stage tables (`stage_key` layout), kept only when
    /// `keep_stages` was set — the retained artifact of a cold solve.
    pub(crate) stages: Option<Vec<Option<Stage>>>,
    /// DP cells enumerated by this run (spliced stages contribute none).
    pub(crate) cells: u64,
}

pub(crate) fn run_cluster_dp(
    problem: &Problem,
    ctx: &SolveCtx,
    opts: &SolveOptions,
    keep_stages: bool,
    resume: Option<&ClusterResume<'_>>,
) -> Result<ClusterRun, SolveError> {
    let rec = pipemap_obs::global();
    let _wall = rec.timer("solver.dp_mapping.wall_s");
    let _span = pipemap_obs::span!("dp_mapping", "solver");
    // Local accumulators, published once — no atomics in the recurrence.
    let mut totals = CellStats::default();

    let table = ctx.table();
    let dense = table.dense();
    let k = problem.num_tasks();
    let p = problem.total_procs;
    // Per-end-task cell statistics (summed over module lengths), kept only
    // under provenance for the explain pruning heatmap.
    let mut stage_stats: Vec<CellStats> = if opts.provenance {
        vec![CellStats::default(); k]
    } else {
        Vec::new()
    };

    // Admissible incumbent: the refined greedy assignment is an
    // all-singleton clustering, i.e. one feasible clustering, so the
    // mapping optimum is ≥ its throughput. (The exact assignment-DP value
    // is tighter still, but costs a full O(P³k) solve and in practice
    // buys only a couple of percentage points of extra pruning here.)
    // Singleton infeasibility does NOT imply mapping infeasibility — a
    // merged module's floor can be smaller than the sum of singleton
    // floors — so an Err simply disables pruning (incumbent 0). A
    // warm-started run may carry its own incumbent (the previous optimum
    // re-priced, also a feasible mapping); both are admissible, so take
    // whichever is tighter — after a drift *on* the old bottleneck the
    // old path's value can fall well below what a fresh greedy finds.
    let bound = if opts.prune {
        let mut inc = greedy::incumbent_throughput(problem, table);
        if let Some(res) = resume {
            if res.incumbent.is_finite() && res.incumbent > inc {
                inc = res.incumbent;
            }
        }
        if inc.is_finite() && inc > 0.0 {
            inc * (1.0 - PRUNE_MARGIN)
        } else {
            f64::NEG_INFINITY
        }
    } else {
        f64::NEG_INFINITY
    };

    let threads = if opts.par {
        pool::thread_limit(opts.threads)
    } else {
        1
    };

    // Cell-level branch & bound: only meaningful with a finite incumbent.
    // The bounds live on the shared ctx — entry points that solve the
    // same table repeatedly (explain, resolve) compute them once.
    let suffix_ub: &[f64] = if opts.prune && bound > f64::NEG_INFINITY && k > 1 {
        ctx.suffix()
    } else {
        &[]
    };

    // ne axes, one per possible next-module start (k = chain end).
    let axes: Vec<NeAxis> = (0..=k)
        .map(|start| {
            if start == k {
                NeAxis::sentinel()
            } else {
                NeAxis::for_start(table, start, k, p, opts.dedup)
            }
        })
        .collect();

    // stage_key(j, L) → index into `stages`; only L ≤ j+1 exist.
    let stage_key = |j: usize, l: usize| -> usize {
        debug_assert!(l >= 1 && l <= j + 1);
        j * k + (l - 1)
    };
    let mut stages: Vec<Option<Stage>> = (0..k * k).map(|_| None).collect();

    for j in 0..k {
        // Warm start: stages whose subchain ends left of the invalidation
        // frontier are exact on the patched table — splice the retained
        // tables instead of recomputing. Retained tables come from an
        // unpruned solve and carry no rowmax; materialise it with the
        // identical fold the cold path uses below.
        if let Some(res) = resume {
            if j < res.frontier {
                for l in 1..=j + 1 {
                    let key = stage_key(j, l);
                    let Some(st) = res.stages[key].as_ref() else {
                        continue;
                    };
                    let mut st = st.clone();
                    if opts.prune && st.rowmax.is_empty() {
                        st.rowmax = st
                            .value
                            .chunks_exact(p)
                            .map(|row| row.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b)))
                            .collect();
                    }
                    stages[key] = Some(st);
                }
                continue;
            }
        }
        for l in 1..=j + 1 {
            let first = j + 1 - l;
            let Some(floor) = table.module_floor(first, j) else {
                continue; // module can never fit: leave stage absent
            };
            if floor > p {
                continue;
            }
            let axis = &axes[j + 1];
            let nslots = axis.len();
            let rows = p - floor + 1;

            // Per-offer replication data for this module, shared read-only
            // by the row workers.
            let mut inst_of = vec![0usize; p + 1];
            let mut r_of = vec![0usize; p + 1];
            let mut exec_of = vec![0.0f64; p + 1];
            for pl in floor..=p {
                let rep = table
                    .module_replication(first, j, pl)
                    .expect("pl >= floor implies a replication exists");
                inst_of[pl] = rep.procs_per_instance;
                r_of[pl] = rep.instances;
                exec_of[pl] = table.module_exec(first, j, rep.procs_per_instance);
            }
            let out_slab = if j + 1 < k {
                Some(dense.ecom_slab(j))
            } else {
                None
            };

            // Reachable predecessor stages, in the reference candidate
            // order (prev_len ascending), each with its offer → instance
            // map so workers only touch dense slabs.
            let mut groups: Vec<PrevGroup<'_>> = Vec::new();
            if first > 0 {
                for prev_len in 1..=first {
                    let Some(stage) = stages[stage_key(first - 1, prev_len)].as_ref() else {
                        continue;
                    };
                    let prev_first = first - prev_len;
                    let mut prev_inst = vec![0usize; p];
                    for q in stage.floor..=p {
                        let prep = table
                            .module_replication(prev_first, first - 1, q)
                            .expect("q >= floor");
                        prev_inst[q - 1] = prep.procs_per_instance;
                    }
                    groups.push(PrevGroup {
                        prev_len,
                        stage,
                        prev_inst,
                    });
                }
            }
            let in_slab = if first > 0 {
                Some(dense.ecom_slab(first - 1))
            } else {
                None
            };
            // Suffix bound row for this stage's end task; `None` for the
            // final task (nothing remains to bound).
            let suffix_row: Option<&[f64]> = if !suffix_ub.is_empty() && j + 1 < k {
                Some(&suffix_ub[j * (p + 1)..(j + 1) * (p + 1)])
            } else {
                None
            };

            let worker = |ri: usize| -> Row {
                let pl = floor + ri;
                let inst = inst_of[pl];
                let r = r_of[pl];
                let exec = exec_of[pl];
                let mut value = vec![f64::NEG_INFINITY; nslots * (p + 1)];
                let mut parent =
                    vec![Parent::default(); if first == 0 { 0 } else { nslots * (p + 1) }];
                let mut st = CellStats::default();

                // Incoming-transfer columns at this module size, one per
                // predecessor group: cin[gi * P + (q - 1)]. The q scan
                // walks the column and the group's value row contiguously.
                let mut cin = Vec::new();
                let mut min_cin = f64::INFINITY;
                let mut s_in = NO_SLOT;
                if first > 0 {
                    let slab = in_slab.expect("in_slab exists when first > 0");
                    cin = vec![f64::INFINITY; groups.len() * p];
                    for (gi, g) in groups.iter().enumerate() {
                        for q in g.stage.floor..=p {
                            let c = slab[(g.prev_inst[q - 1] - 1) * p + (inst - 1)];
                            cin[gi * p + (q - 1)] = c;
                            if c < min_cin {
                                min_cin = c;
                            }
                        }
                    }
                    s_in = axes[first].slot_of_inst[inst];
                    debug_assert_ne!(s_in, NO_SLOT, "own instance size on the in-axis");
                }

                for (s, &ne) in axis.insts.iter().enumerate() {
                    let out = match out_slab {
                        Some(slab) if ne != 0 => slab[(inst - 1) * p + (ne - 1)],
                        _ => 0.0,
                    };
                    let nominal = (p + 1 - pl) as u64;

                    // Structural reachability (the other half of `prune`):
                    // a consumer module reading this slot holds at least
                    // `min_procs[s]` processors of its own, and final
                    // stages are read by the terminal scan at pt = P
                    // only — cells outside [lo, hi] are never read by
                    // anything, so skipping them is exact even without
                    // an incumbent.
                    let (lo, hi) = if !opts.prune {
                        (pl, p)
                    } else if j + 1 == k {
                        (p, p)
                    } else {
                        (pl, p - axis.min_procs[s].min(p))
                    };

                    if first == 0 {
                        // Base case: M is the leftmost module; slack allowed.
                        st.cells += nominal;
                        let thr = response_throughput(0.0, exec, out, r);
                        if opts.prune && thr < bound {
                            st.cells_pruned += nominal;
                            continue; // below the incumbent: never optimal
                        }
                        if hi < lo {
                            st.cells_pruned += nominal;
                            continue;
                        }
                        st.cells_pruned += nominal - (hi - lo + 1) as u64;
                        for pt in lo..=hi {
                            if let Some(sfx) = suffix_row {
                                if sfx[p - pt] < bound {
                                    st.cells_pruned += 1;
                                    continue; // rest of chain can't keep up
                                }
                            }
                            value[s * (p + 1) + pt] = thr;
                        }
                        continue;
                    }

                    // Best possible response of M at this (pl, ne): the
                    // cheapest incoming transfer over every predecessor.
                    // Below the incumbent, the whole row is off the
                    // optimal path.
                    let cap = response_throughput(min_cin, exec, out, r);
                    st.cells += nominal;
                    if opts.prune && cap < bound {
                        st.cells_pruned += nominal;
                        continue;
                    }
                    if hi < lo {
                        st.cells_pruned += nominal;
                        continue;
                    }
                    st.cells_pruned += nominal - (hi - lo + 1) as u64;

                    for pt in lo..=hi {
                        if let Some(sfx) = suffix_row {
                            // The P - pt processors left for tasks j+1..k
                            // cannot sustain the incumbent: no completion
                            // through this cell can be optimal.
                            if sfx[p - pt] < bound {
                                st.cells_pruned += 1;
                                continue;
                            }
                        }
                        let budget = pt - pl;
                        // Start the running best at the pruning bound
                        // (`-∞` when pruning is off): candidates at or
                        // below the incumbent can never sit on the
                        // optimal chain, so letting the `sub ≤ best` and
                        // row-max skips drop them wholesale is exact —
                        // sub-bound cells merely become `-∞` instead of
                        // carrying their (never reconstructed) value.
                        let mut best = bound;
                        let mut updated = false;
                        let mut best_parent = Parent::default();
                        'groups: for (gi, g) in groups.iter().enumerate() {
                            let pfloor = g.stage.floor;
                            if pfloor > budget {
                                continue;
                            }
                            if opts.prune && g.stage.rowmax[s_in * (p + 1) + budget] <= best {
                                // No value in this stage's row can strictly
                                // beat the running best: min(sub, ·) ≤ sub.
                                st.qskips += (budget - pfloor + 1) as u64;
                                continue;
                            }
                            let row_base = (s_in * (p + 1) + budget) * p;
                            let prev_row = &g.stage.value[row_base..row_base + p];
                            let col = &cin[gi * p..gi * p + p];
                            for q in pfloor..=budget {
                                st.lookups += 1;
                                let sub = prev_row[q - 1];
                                if sub <= best {
                                    st.qskips += 1;
                                    continue; // min(sub, _) cannot beat best
                                }
                                let thr = response_throughput(col[q - 1], exec, out, r);
                                let cand = sub.min(thr);
                                if cand > best {
                                    best = cand;
                                    updated = true;
                                    best_parent = Parent {
                                        prev_len: g.prev_len as u16,
                                        prev_procs: q as u16,
                                    };
                                    if opts.prune && best >= cap {
                                        // Ties cannot displace the first
                                        // argmax (strict update), so later
                                        // candidates change nothing.
                                        break 'groups;
                                    }
                                }
                            }
                        }
                        value[s * (p + 1) + pt] = if updated { best } else { f64::NEG_INFINITY };
                        parent[s * (p + 1) + pt] = best_parent;
                    }
                }
                Row {
                    value,
                    parent,
                    stats: st,
                }
            };

            let computed = pool::run_strided(threads, rows, worker);

            // Stage barrier: merge per-row buffers into the stage table.
            let mut value = vec![f64::NEG_INFINITY; nslots * (p + 1) * p];
            let mut parent =
                vec![Parent::default(); if first == 0 { 0 } else { nslots * (p + 1) * p }];
            for (ri, row) in computed.into_iter().enumerate() {
                let pl = floor + ri;
                for src in 0..nslots * (p + 1) {
                    let dst = src * p + (pl - 1);
                    value[dst] = row.value[src];
                    if first > 0 {
                        parent[dst] = row.parent[src];
                    }
                }
                if opts.provenance {
                    stage_stats[j].absorb(&row.stats);
                }
                totals.absorb(&row.stats);
            }
            let rowmax = if opts.prune {
                value
                    .chunks_exact(p)
                    .map(|row| row.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b)))
                    .collect()
            } else {
                Vec::new()
            };
            drop(groups);
            stages[stage_key(j, l)] = Some(Stage {
                value,
                parent,
                rowmax,
                floor,
            });
        }
    }

    rec.add("solver.dp_mapping.cells", totals.cells);
    rec.add("solver.dp_mapping.lookups", totals.lookups);
    rec.add("solver.dp_mapping.pruned", totals.qskips);
    rec.add(pipemap_obs::names::SOLVER_CELLS_TOTAL, totals.cells);
    rec.add(pipemap_obs::names::SOLVER_CELLS_PRUNED, totals.cells_pruned);

    // Answer: best over the last module's (L, pl) at ne = 0, pt = P. The
    // final stages' ne axis is the single sentinel slot.
    let mut best = f64::NEG_INFINITY;
    let mut best_l = 0usize;
    let mut best_pl = 0usize;
    for l in 1..=k {
        let Some(stage) = stages[stage_key(k - 1, l)].as_ref() else {
            continue;
        };
        for pl in 1..=p {
            let v = stage.value[p * p + (pl - 1)]; // slot 0, pt = P
            if v > best {
                best = v;
                best_l = l;
                best_pl = pl;
            }
        }
    }
    if best == f64::NEG_INFINITY {
        return Err(SolveError::Infeasible);
    }

    // Reconstruct modules right-to-left, recording the visited cells for
    // the provenance harvest.
    let mut modules_rev: Vec<ModuleAssignment> = Vec::new();
    let mut path: Vec<PathCell> = Vec::new();
    let mut j = k - 1;
    let mut l = best_l;
    let mut pl = best_pl;
    let mut slot = 0usize; // sentinel slot of the final stages
    let mut pt = p;
    loop {
        let first = j + 1 - l;
        let rep = table
            .module_replication(first, j, pl)
            .expect("reconstructed module respects its floor");
        modules_rev.push(ModuleAssignment::new(
            first,
            j,
            rep.instances,
            rep.procs_per_instance,
        ));
        if opts.provenance {
            path.push(PathCell { j, l, pl, pt, slot });
        }
        if first == 0 {
            break;
        }
        let stage = stages[stage_key(j, l)].as_ref().expect("visited stage");
        let par = stage.parent[(slot * (p + 1) + pt) * p + (pl - 1)];
        slot = axes[first].slot_of_inst[rep.procs_per_instance];
        pt -= pl;
        j = first - 1;
        l = par.prev_len as usize;
        pl = par.prev_procs as usize;
    }
    modules_rev.reverse();
    let prov = if opts.provenance {
        Some(harvest_cluster(
            table,
            &stages,
            &axes,
            &stage_stats,
            &path,
            stage_key,
            p,
            best,
            !opts.prune,
        ))
    } else {
        None
    };
    let mapping = Mapping::new(modules_rev);
    let solution = Solution::from_mapping(problem, mapping);
    debug_assert_eq!(
        solution.throughput.to_bits(),
        best.to_bits(),
        "cluster DP internal value {} disagrees with evaluator {}",
        best,
        solution.throughput
    );
    Ok(ClusterRun {
        solution,
        provenance: prov,
        stages: keep_stages.then_some(stages),
        cells: totals.cells,
    })
}

/// One reconstructed cell of the winning path: module ending at task `j`
/// with length `l`, offered `pl` of a `pt` budget, read through successor
/// slot `slot`.
struct PathCell {
    j: usize,
    l: usize,
    pl: usize,
    pt: usize,
    slot: usize,
}

/// Rebuild [`DecisionCell`]s for the cluster DP's winning path by
/// re-scanning each visited cell's candidates (exact when the solve ran
/// unpruned — the entry point forces that).
#[allow(clippy::too_many_arguments)]
fn harvest_cluster(
    table: &CostTable,
    stages: &[Option<Stage>],
    axes: &[NeAxis],
    stage_stats: &[CellStats],
    path: &[PathCell],
    stage_key: impl Fn(usize, usize) -> usize,
    p: usize,
    throughput: f64,
    exact: bool,
) -> Provenance {
    let dense = table.dense();
    let mut cells: Vec<DecisionCell> = Vec::with_capacity(path.len());
    for pc in path {
        let first = pc.j + 1 - pc.l;
        let stage = stages[stage_key(pc.j, pc.l)]
            .as_ref()
            .expect("path visits existing stages");
        let value = stage.value[(pc.slot * (p + 1) + pc.pt) * p + (pc.pl - 1)];
        let rep = table
            .module_replication(first, pc.j, pc.pl)
            .expect("path offer respects the floor");
        let inst = rep.procs_per_instance;
        let ne = axes[pc.j + 1].insts[pc.slot];
        let out = if ne != 0 {
            dense.ecom_slab(pc.j)[(inst - 1) * p + (ne - 1)]
        } else {
            0.0
        };
        let exec = table.module_exec(first, pc.j, inst);
        let (chosen, ein, runner_up) = if first > 0 {
            let par = stage.parent[(pc.slot * (p + 1) + pc.pt) * p + (pc.pl - 1)];
            let budget = pc.pt - pc.pl;
            let in_slab = dense.ecom_slab(first - 1);
            let s_in = axes[first].slot_of_inst[inst];
            let mut ein_star = 0.0;
            let mut alt_val = f64::NEG_INFINITY;
            let mut alt = Parent::default();
            for prev_len in 1..=first {
                let Some(pstage) = stages[stage_key(first - 1, prev_len)].as_ref() else {
                    continue;
                };
                let prev_first = first - prev_len;
                for q in pstage.floor..=budget {
                    let sub = pstage.value[(s_in * (p + 1) + budget) * p + (q - 1)];
                    let prep = table
                        .module_replication(prev_first, first - 1, q)
                        .expect("q >= floor");
                    let cin = in_slab[(prep.procs_per_instance - 1) * p + (inst - 1)];
                    if prev_len == par.prev_len as usize && q == par.prev_procs as usize {
                        ein_star = cin;
                        continue; // the chosen candidate is not its own runner-up
                    }
                    if sub == f64::NEG_INFINITY {
                        continue;
                    }
                    let cand = sub.min(response_throughput(cin, exec, out, rep.instances));
                    if cand > alt_val {
                        alt_val = cand;
                        alt = Parent {
                            prev_len: prev_len as u16,
                            prev_procs: q as u16,
                        };
                    }
                }
            }
            let ru = (alt_val > f64::NEG_INFINITY).then_some(RunnerUp {
                prev_len: alt.prev_len as usize,
                prev_procs: alt.prev_procs as usize,
                value: alt_val,
            });
            (par, ein_star, ru)
        } else {
            (Parent::default(), 0.0, None)
        };
        cells.push(DecisionCell {
            index: 0, // assigned after the reverse below
            first,
            last: pc.j,
            offer: pc.pl,
            instances: rep.instances,
            instance_procs: inst,
            budget: pc.pt,
            value,
            chosen_prev_len: chosen.prev_len as usize,
            chosen_prev_procs: chosen.prev_procs as usize,
            runner_up,
            exec_s: exec,
            ecom_in_s: ein,
            ecom_out_s: out,
        });
    }
    cells.reverse();
    for (i, cell) in cells.iter_mut().enumerate() {
        cell.index = i;
    }
    let stage_cells = stage_stats
        .iter()
        .enumerate()
        .map(|(stage, st)| StageCells {
            stage,
            cells: st.cells,
            pruned: st.cells_pruned,
            lookups: st.lookups,
            skips: st.qskips,
        })
        .collect();
    Provenance {
        algorithm: "dp_mapping",
        throughput,
        cells,
        stage_cells,
        exact_runner_ups: exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemap_chain::{validate, ChainBuilder, Edge, Task, TaskChain};
    use pipemap_model::{MemoryReq, PolyEcom, PolyUnary};

    fn two_task_chain(ecom_fixed: f64) -> TaskChain {
        ChainBuilder::new()
            .task(Task::new("a", PolyUnary::perfectly_parallel(8.0)))
            .edge(Edge::new(
                PolyUnary::zero(),
                PolyEcom::new(ecom_fixed, 0.0, 0.0, 0.0, 0.0),
            ))
            .task(Task::new("b", PolyUnary::perfectly_parallel(8.0)))
            .build()
    }

    #[test]
    fn heavy_ecom_forces_clustering() {
        // External transfer costs 100s; internal is free. The only sane
        // mapping is one module.
        let p = Problem::new(two_task_chain(100.0), 8, 1e9).without_replication();
        let s = dp_mapping(&p).unwrap();
        assert_eq!(s.mapping.num_modules(), 1);
        assert_eq!(s.mapping.modules[0].procs, 8);
        assert!((s.throughput - 0.5).abs() < 1e-9);
        validate(&p, &s.mapping).unwrap();
    }

    #[test]
    fn free_comm_prefers_pipeline_split() {
        // No communication at all: splitting 8 procs 4/4 gives bottleneck
        // 2.0 (thr 0.5); clustering gives 16/8 = 2.0 as well — equal.
        // Add a tiny icom so clustering is strictly worse.
        let c = ChainBuilder::new()
            .task(Task::new("a", PolyUnary::perfectly_parallel(8.0)))
            .edge(Edge::new(PolyUnary::new(0.5, 0.0, 0.0), PolyEcom::zero()))
            .task(Task::new("b", PolyUnary::perfectly_parallel(8.0)))
            .build();
        let p = Problem::new(c, 8, 1e9).without_replication();
        let s = dp_mapping(&p).unwrap();
        assert_eq!(s.mapping.num_modules(), 2);
        assert!((s.throughput - 0.5).abs() < 1e-9);
    }

    #[test]
    fn replication_dominates_when_tasks_dont_scale() {
        // Fixed 1-second tasks that don't parallelise: cluster everything
        // into one module and replicate it 8 ways.
        let c = ChainBuilder::new()
            .task(Task::new("a", PolyUnary::new(1.0, 0.0, 0.0)))
            .edge(Edge::free())
            .task(Task::new("b", PolyUnary::new(1.0, 0.0, 0.0)))
            .build();
        let p = Problem::new(c, 8, 1e9);
        let s = dp_mapping(&p).unwrap();
        // One module of both tasks, replicated 8×: f = 2, eff = 0.25 →
        // throughput 4. Two singleton modules replicated 4× each: f = 1,
        // eff = 0.25 → also 4. Both optimal; throughput must be 4.
        assert!((s.throughput - 4.0).abs() < 1e-9, "got {}", s.throughput);
        validate(&p, &s.mapping).unwrap();
    }

    #[test]
    fn memory_floor_blocks_merging() {
        // Clustering would eliminate a costly transfer, but the merged
        // module's memory floor forces a large instance on which the
        // communication-heavy second task runs inefficiently — the §6.3
        // FFT-Hist effect in miniature.
        let c = ChainBuilder::new()
            .task(
                Task::new("fft", PolyUnary::perfectly_parallel(12.0))
                    .with_memory(MemoryReq::new(0.0, 60.0)),
            )
            .edge(Edge::new(
                PolyUnary::new(0.05, 0.0, 0.0),
                PolyEcom::new(0.1, 0.4, 0.4, 0.0, 0.0),
            ))
            .task(
                // Heavy per-processor overhead: slows badly on big groups.
                Task::new("hist", PolyUnary::new(0.0, 3.0, 0.45))
                    .with_memory(MemoryReq::new(0.0, 40.0)),
            )
            .build();
        let p = Problem::new(c, 16, 10.0); // floors: fft 6, hist 4, merged 10
        let s = dp_mapping(&p).unwrap();
        validate(&p, &s.mapping).unwrap();
        // Exhaustive check over both clusterings confirms separation wins.
        assert_eq!(
            s.mapping.num_modules(),
            2,
            "expected separate modules, got {:?} (thr {})",
            s.mapping,
            s.throughput
        );
    }

    #[test]
    fn single_task_problem() {
        let c = ChainBuilder::new()
            .task(Task::new("only", PolyUnary::perfectly_parallel(4.0)))
            .build();
        let p = Problem::new(c, 4, 1e9).without_replication();
        let s = dp_mapping(&p).unwrap();
        assert_eq!(s.mapping.num_modules(), 1);
        assert!((s.throughput - 1.0).abs() < 1e-12);
    }

    #[test]
    fn infeasible_problem_reported() {
        let c = ChainBuilder::new()
            .task(Task::new("big", PolyUnary::zero()).with_memory(MemoryReq::new(100.0, 0.0)))
            .build();
        let p = Problem::new(c, 8, 10.0);
        assert_eq!(dp_mapping(&p).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn clustering_merges_when_floors_allow() {
        // Identical tasks with a transfer that is pure overhead and an
        // internal redistribution that is free: merging wins.
        let c = ChainBuilder::new()
            .task(Task::new("a", PolyUnary::perfectly_parallel(4.0)))
            .edge(Edge::aligned(PolyEcom::new(2.0, 0.0, 0.0, 0.0, 0.0)))
            .task(Task::new("b", PolyUnary::perfectly_parallel(4.0)))
            .edge(Edge::aligned(PolyEcom::new(2.0, 0.0, 0.0, 0.0, 0.0)))
            .task(Task::new("c", PolyUnary::perfectly_parallel(4.0)))
            .build();
        let p = Problem::new(c, 6, 1e9).without_replication();
        let s = dp_mapping(&p).unwrap();
        assert_eq!(s.mapping.num_modules(), 1);
        assert!((s.throughput - 0.5).abs() < 1e-9); // 12 units on 6 procs
    }

    #[test]
    fn uses_at_most_budget() {
        let c = two_task_chain(0.5);
        let p = Problem::new(c, 13, 1e9).without_replication();
        let s = dp_mapping(&p).unwrap();
        assert!(s.mapping.total_procs() <= 13);
        validate(&p, &s.mapping).unwrap();
    }

    #[test]
    fn feasible_by_merging_even_when_singletons_are_not() {
        // Singleton floors round up: each task needs ceil(45/10) = 5 of 9
        // processors, so no all-singleton mapping fits (5 + 5 > 9). The
        // merged module needs only ceil(90/10) = 9 ≤ 9. The greedy
        // incumbent fails here; the DP must still find the merged mapping
        // (pruning silently disabled, not an error).
        let c = ChainBuilder::new()
            .task(
                Task::new("a", PolyUnary::perfectly_parallel(4.0))
                    .with_memory(MemoryReq::new(0.0, 45.0)),
            )
            .edge(Edge::aligned(PolyEcom::zero()))
            .task(
                Task::new("b", PolyUnary::perfectly_parallel(4.0))
                    .with_memory(MemoryReq::new(0.0, 45.0)),
            )
            .build();
        let p = Problem::new(c, 9, 10.0).without_replication();
        let s = dp_mapping(&p).unwrap();
        assert_eq!(s.mapping.num_modules(), 1);
        validate(&p, &s.mapping).unwrap();
    }

    #[test]
    fn option_combinations_agree_exactly() {
        let c = ChainBuilder::new()
            .task(Task::new("a", PolyUnary::new(0.1, 6.0, 0.02)))
            .edge(Edge::new(
                PolyUnary::new(0.05, 0.0, 0.0),
                PolyEcom::new(0.2, 1.0, 1.0, 0.05, 0.05),
            ))
            .task(Task::new("b", PolyUnary::new(0.0, 10.0, 0.01)))
            .edge(Edge::new(
                PolyUnary::zero(),
                PolyEcom::new(0.1, 0.5, 0.5, 0.02, 0.02),
            ))
            .task(Task::new("c", PolyUnary::perfectly_parallel(3.0)))
            .build();
        let p = Problem::new(c, 20, 1e9);
        let reference = dp_mapping_with(&p, &SolveOptions::reference()).unwrap();
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
            let s = dp_mapping_with(&p, &opts).unwrap();
            assert_eq!(
                s.throughput.to_bits(),
                reference.throughput.to_bits(),
                "options {opts:?} changed the optimum"
            );
            assert_eq!(
                s.mapping, reference.mapping,
                "options {opts:?} changed the mapping"
            );
        }
    }
}
