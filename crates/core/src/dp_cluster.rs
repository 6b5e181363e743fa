//! The one DP value sweep: optimal mapping with clustering (§3.3), and
//! with every module one task long, optimal processor assignment
//! (§3.1–§3.2).
//!
//! The full mapping problem decides, jointly: where the module boundaries
//! fall, how many processors each module receives, and (via the §3.2 rule)
//! how far each module is replicated. The paper extends the assignment DP
//! with one extra state component — the *length* of the module following
//! the current subchain — because a module's memory requirement, and hence
//! its processor floor and replication degree, is known only once its full
//! extent is known. Read the other way, the assignment DP is this sweep
//! restricted to one-task modules: [`Clustering::Singletons`] limits the
//! module lengths the sweep enumerates, the successor axes and the suffix
//! bounds to length 1, and nothing else changes. [`crate::dp`] is the thin
//! assignment front end.
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
//! [`crate::probe`] asks the dual question over the same boundaries
//! without the `pt` axis — the fewest processors that reach a given
//! throughput — in `O(k³ P³)` work and `O(k² P²)` memory; a failed probe
//! one float above this DP's optimum certifies it.
//!
//! ## Performance layer
//!
//! [`dp_mapping_with`] and [`crate::dp_assignment_with`] expose the knobs
//! of [`SolveOptions`]; all of them preserve bit-identical results:
//!
//! * the `ne` axis of each stage is restricted (under `dedup`) to the
//!   *achievable instance sizes* of modules starting at the next task —
//!   the only values the recurrence ever reads — instead of all of
//!   `1..=P`;
//! * all cells of a `(pl, ne)` pair are skipped when the module's best
//!   possible response cannot reach the greedy incumbent (`prune`),
//!   individual cells are skipped when the processors they leave for the
//!   *rest* of the chain cannot sustain the incumbent (a cheapest-transfer
//!   branch-and-bound suffix bound — see [`suffix_bounds`]) or when no
//!   consumer can ever read them (structural reachability), the scan
//!   over a previous stage is skipped when that stage's line maximum
//!   cannot beat the running best, and the candidate loop breaks once a
//!   cell attains its own response cap;
//! * the lines of every `(j, L)` stage — one per `(ne slot, pt)`, the `P`
//!   contiguous `pl` cells the table stores together — are filled on the
//!   scoped worker pool (`par`). Workers read the already-finished stages,
//!   the dense cost slabs and per-stage tables of per-offer data, and
//!   write each cell's value and the line's maximum at the tail of their
//!   own row store. Only *live* lines, whose maximum is above `-∞`, keep
//!   a row; a line directory maps the others to "dead", which reads `-∞`
//!   everywhere. Nothing is merged afterwards, and every cell is computed
//!   once from read-only inputs, so results do not depend on the thread
//!   count.
//!
//! ## Reconstruction
//!
//! The tables store values only. The mapping is rebuilt by one walk from
//! the terminal scan's `(L, pl)` leftwards: at each of the ≤ `k` cells of
//! the optimal path it re-scans the cell's candidates in the sweep's
//! order (`L'` ascending, then `q` ascending), with the sweep's
//! arithmetic, and takes the *first strict argmax* from `-∞` as the
//! previous module. That is exactly the candidate the sweep stored the
//! cell's value from, pruned or not:
//!
//! * an on-path cell's value is `≥ T*`, the optimum, which lies strictly
//!   above the pruning bound `incumbent · (1 − PRUNE_MARGIN)`;
//! * the sweep keeps the first candidate strictly above a running best
//!   that starts at the bound, so it keeps the first candidate that
//!   attains the cell's maximum, provided neither shortcut skips it;
//! * the line-maximum skip (`rowmax ≤ best`) and the `sub ≤ best` skip
//!   drop only candidates that cannot exceed `best`, and the cap break
//!   fires at `best ≥ cap` when every later candidate is `≤ cap`.
//!
//! A resumed suffix re-scans the same spliced tables its sweep read, so
//! the argument holds there too (`resolve.rs`). The walk also yields the
//! provenance of each cell: the chosen candidate's incoming transfer and
//! the runner-up, the first strict argmax among the other candidates.

use std::borrow::Cow;
use std::sync::OnceLock;

use pipemap_chain::{
    module_throughput, CostTable, Mapping, ModuleAssignment, Problem, ResponseBreakdown,
};
use pipemap_model::Procs;

use crate::greedy;
use crate::options::SolveOptions;
use crate::pool::{self, CellStats, Line, Rows};
use crate::provenance::{DecisionCell, Provenance, RunnerUp, StageCells};
use crate::solution::{checked_table, Solution, SolveError};

/// Relative slack on the pruning incumbent. The greedy bound and the DP
/// cells price modules with the same evaluator, so the slack is not
/// needed for soundness; it stays because it decides exactly which cells
/// are skipped, and the cell counts are a tracked benchmark metric. Far
/// smaller than any real throughput gap.
const PRUNE_MARGIN: f64 = 1e-12;

/// Which modules the sweep may form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Clustering {
    /// Every task is its own module: the assignment DP (§3.1–§3.2).
    Singletons,
    /// Any run of consecutive tasks is a module: the clustering DP (§3.3).
    Contiguous,
}

impl Clustering {
    /// Longest module that fits in `avail` consecutive tasks.
    fn max_len(self, avail: usize) -> usize {
        match self {
            Clustering::Singletons => avail.min(1),
            Clustering::Contiguous => avail,
        }
    }

    /// The solver's name in spans, metrics and provenance.
    fn name(self) -> &'static str {
        match self {
            Clustering::Singletons => "dp_assignment",
            Clustering::Contiguous => "dp_mapping",
        }
    }
}

/// Throughput of one module from its response components, priced by the
/// evaluator ([`ResponseBreakdown::effective`], then [`module_throughput`])
/// so that every DP value is `pipemap_chain::throughput` of its path to
/// the bit.
#[inline]
pub(crate) fn response_throughput(incoming: f64, exec: f64, outgoing: f64, replicas: usize) -> f64 {
    module_throughput(
        ResponseBreakdown {
            incoming,
            exec,
            outgoing,
            replicas,
        }
        .effective(),
    )
}

/// Shared solver context for one cost table: the dense table plus
/// lazily-computed derived structures that several entry points need.
/// Today that is the branch-and-bound [`suffix_bounds`] table, which
/// `pipemap explain` used to recompute once per provenance / pruned-stats
/// / production solve; a `SolveCtx` computes it at most once per
/// clustering policy.
pub struct SolveCtx {
    table: CostTable,
    k: usize,
    p: usize,
    /// Suffix bounds, indexed by `Clustering as usize`.
    suffix: [OnceLock<Vec<f64>>; 2],
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
            suffix: Default::default(),
        }
    }

    /// The wrapped cost table.
    pub fn table(&self) -> &CostTable {
        &self.table
    }

    /// The policy's cached suffix-bound table, computed on first use.
    fn suffix(&self, clustering: Clustering) -> &[f64] {
        self.suffix[clustering as usize]
            .get_or_init(|| suffix_bounds(&self.table, self.k, self.p, clustering))
    }
}

/// `stages` index of the stage whose module ends at task `j` and is `l`
/// tasks long, in a `k`-task sweep; only `l ≤ j + 1` exist.
pub(crate) fn stage_key(k: usize, j: usize, l: usize) -> usize {
    debug_assert!(l >= 1 && l <= j + 1);
    j * k + (l - 1)
}

/// Per-(j, L) stage table. Line `s * (P+1) + pt`, where `s` is the slot
/// of the next-module instance size on this stage's `ne` axis, holds the
/// `P` cells `pl = 1..=P`, so the `pl` scan of the recurrence walks a row
/// contiguously. Only live lines, whose maximum is above `-∞`, store a
/// row: a line whose maximum is `-∞` holds only `-∞`, and a dead line
/// reads so.
#[derive(Clone, Debug)]
pub(crate) struct Stage {
    /// The line directory over the live lines' values. Its summaries are
    /// the line maxima: they bound what any predecessor scan can
    /// contribute.
    rows: Rows<f64>,
    /// The module's processor floor (first feasible `pl`).
    floor: Procs,
}

impl Stage {
    /// The line maxima, `rowmax[s * (P+1) + pt]`.
    fn rowmax(&self) -> &[f64] {
        self.rows.summaries()
    }

    /// The cells of line `(ne slot, pt)` of a sweep over `p` processors,
    /// `None` when the line is dead.
    fn row(&self, p: usize, slot: usize, pt: usize) -> Option<&[f64]> {
        self.rows.values(slot * (p + 1) + pt)
    }

    /// The cell `(ne slot, pt, pl)` of a sweep over `p` processors.
    pub(crate) fn value(&self, p: usize, slot: usize, pt: usize, pl: usize) -> f64 {
        self.row(p, slot, pt)
            .map_or(f64::NEG_INFINITY, |row| row[pl - 1])
    }
}

/// The `ne` axis of stages whose subchain ends just before `start`:
/// the distinct instance sizes of modules beginning at task `start`.
pub(crate) struct NeAxis {
    insts: Vec<Procs>,
    /// instance size → slot (`usize::MAX` = never read).
    pub(crate) slot_of_inst: Vec<usize>,
    /// Per slot: the fewest processors any module starting at `start`
    /// needs to realise this instance size (`usize::MAX` when no module
    /// does). A consumer reading slot `s` holds at least `min_procs[s]`
    /// processors itself, so cells with `pt > P - min_procs[s]` can
    /// never be read — the structural half of the `prune` option.
    min_procs: Vec<usize>,
}

pub(crate) const NO_SLOT: usize = usize::MAX;

impl NeAxis {
    fn sentinel() -> Self {
        Self {
            insts: vec![0],
            slot_of_inst: Vec::new(),
            min_procs: vec![0],
        }
    }

    /// Axis for the modules the policy allows to start at `start` (< k).
    /// With `dedup`, only the instance sizes actually achievable by some
    /// `(last, pl)` pair; otherwise the raw `1..=P` enumeration of the
    /// reference path.
    fn for_start(
        table: &CostTable,
        start: usize,
        k: usize,
        p: Procs,
        dedup: bool,
        clustering: Clustering,
    ) -> Self {
        // Fewest processors realising each instance size, over every
        // module `(start..=last, pl)`.
        let mut min_pl = vec![usize::MAX; p + 1];
        for last in start..start + clustering.max_len(k - start) {
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
/// tasks `j+1..k`: every later task `t` lives in some module the policy
/// allows, covering it on at most `r` processors, and that module's
/// response time is at least its execution time plus the *cheapest
/// possible* incoming and outgoing transfers at its instance size (the
/// recurrence charges a module `cin + exec + out`, and the actual
/// neighbour sizes can only cost more than the slab minima). Taking the
/// minimum over the later tasks gives an admissible upper bound, so a
/// cell whose bound falls below the incumbent cannot lie on the optimal
/// path. In particular `r = 0` (or `r` below every covering module's
/// floor) yields `-∞` and kills the provably dead full-budget cells of
/// non-final stages. The `j = k-1` row is unused (`+∞`: nothing remains).
fn suffix_bounds(table: &CostTable, k: usize, p: usize, clustering: Clustering) -> Vec<f64> {
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
        for end in start..start + clustering.max_len(k - start) {
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

/// What the cells of one `(pl, ne)` pair share: the outgoing transfer,
/// the response cap (the cells' value in base stages), and the live `pt`
/// range — empty when the cap cannot reach the incumbent.
#[derive(Clone, Copy)]
struct Offer {
    out: f64,
    cap: f64,
    lo: usize,
    hi: usize,
}

/// A predecessor stage reachable by the current stage's recurrence: the
/// previous module's table is `stage`.
struct PrevGroup<'a> {
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
    run_cluster_dp_with_fallback(problem, &ctx, opts, Clustering::Contiguous, false, None)
        .map(|run| run.solution)
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
    clustering: Clustering,
    keep_stages: bool,
    resume: Option<&ClusterResume<'_>>,
) -> Result<ClusterRun, SolveError> {
    match run_cluster_dp(problem, ctx, opts, clustering, keep_stages, resume) {
        Err(SolveError::Infeasible) if opts.prune => {
            let unpruned = SolveOptions {
                prune: false,
                ..*opts
            };
            run_cluster_dp(problem, ctx, &unpruned, clustering, keep_stages, resume)
        }
        r => r,
    }
}

/// The provenance-recording solve behind both policies' `_provenance`
/// (`prune` off: exact runner-ups) and `_pruned_stats_ctx` (`prune` on)
/// entry points.
pub(crate) fn recorded_run(
    problem: &Problem,
    ctx: &SolveCtx,
    opts: &SolveOptions,
    clustering: Clustering,
    prune: bool,
) -> Result<(ClusterRun, Provenance), SolveError> {
    let opts = SolveOptions {
        prune,
        provenance: true,
        ..*opts
    };
    let mut run = run_cluster_dp(problem, ctx, &opts, clustering, false, None)?;
    let prov = run
        .provenance
        .take()
        .expect("provenance recorded when the option is set");
    Ok((run, prov))
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
    recorded_run(problem, ctx, opts, Clustering::Contiguous, false)
        .map(|(run, prov)| (run.solution, prov))
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
    recorded_run(problem, ctx, opts, Clustering::Contiguous, true).map(|(_, prov)| prov.stage_cells)
}

/// Warm-start state for [`run_cluster_dp`]: splice the retained `(j, L)`
/// stage tables of a previous *unpruned, stage-keeping* solve for every
/// end task left of `frontier` and recompute only the invalidated suffix.
/// See `resolve.rs` for the admissibility argument.
pub(crate) struct ClusterResume<'a> {
    /// First end task whose costs — or transitive inputs — changed;
    /// stages with `j < frontier` are read from `stages` verbatim.
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
    /// Raw processors offered to each module, in pipeline order.
    pub(crate) offers: Vec<Procs>,
    pub(crate) provenance: Option<Provenance>,
    /// The full stage tables (`stage_key` layout), kept only when
    /// `keep_stages` was set — the retained artifact of a cold solve.
    pub(crate) stages: Option<Vec<Option<Stage>>>,
    /// The `ne` axes the stages are laid out on, indexed by the start of
    /// the next module (`k` = the sentinel after the last task).
    pub(crate) axes: Vec<NeAxis>,
    /// DP cells enumerated by this run (spliced stages contribute none).
    pub(crate) cells: u64,
    /// Cells of that total skipped wholesale by pruning.
    pub(crate) cells_pruned: u64,
}

pub(crate) fn run_cluster_dp<'a>(
    problem: &Problem,
    ctx: &SolveCtx,
    opts: &SolveOptions,
    clustering: Clustering,
    keep_stages: bool,
    resume: Option<&ClusterResume<'a>>,
) -> Result<ClusterRun, SolveError> {
    let rec = pipemap_obs::global();
    let name = clustering.name();
    let _wall = rec.timer(&format!("solver.{name}.wall_s"));
    let _span = pipemap_obs::span!(name, "solver");
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
    // all-singleton clustering, i.e. a feasible state of either policy, so
    // the optimum is ≥ its throughput. (The exact assignment-DP value
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
        ctx.suffix(clustering)
    } else {
        &[]
    };

    // ne axes, one per possible next-module start (k = chain end).
    let axes: Vec<NeAxis> = (0..=k)
        .map(|start| {
            if start == k {
                NeAxis::sentinel()
            } else {
                NeAxis::for_start(table, start, k, p, opts.dedup, clustering)
            }
        })
        .collect();

    let stage_key = |j: usize, l: usize| stage_key(k, j, l);
    // Spliced stages are borrowed from the resume state, computed ones
    // owned; only `keep_stages` ever copies a borrowed one.
    let mut stages: Vec<Option<Cow<'a, Stage>>> = (0..k * k).map(|_| None).collect();

    for j in 0..k {
        // Warm start: stages whose subchain ends left of the invalidation
        // frontier are exact on the patched table — splice the retained
        // tables instead of recomputing. Every stage carries its line
        // maxima, so a pruned re-solve reads them as they are.
        if let Some(res) = resume {
            if j < res.frontier {
                for l in 1..=clustering.max_len(j + 1) {
                    let key = stage_key(j, l);
                    stages[key] = res.stages[key].as_ref().map(Cow::Borrowed);
                }
                continue;
            }
        }
        for l in 1..=clustering.max_len(j + 1) {
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
            // by the line workers.
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
                    let Some(stage) = stages[stage_key(first - 1, prev_len)].as_deref() else {
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
                    groups.push(PrevGroup { stage, prev_inst });
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

            // Per offer: the incoming-transfer column of every predecessor
            // group at this module's instance size,
            // cin[((pl - floor) * groups + gi) * P + (q - 1)], so the q
            // scan walks a column and the group's value line contiguously;
            // the cheapest of them; and the slot the predecessors are read
            // through. The largest per-stage table, rows × groups × P.
            let block = groups.len() * p;
            let mut cin = vec![f64::INFINITY; rows * block];
            let mut min_cin = vec![f64::INFINITY; p + 1];
            let mut s_in_of = vec![NO_SLOT; p + 1];
            if let Some(slab) = in_slab {
                for pl in floor..=p {
                    let inst = inst_of[pl];
                    let col = &mut cin[(pl - floor) * block..][..block];
                    for (gi, g) in groups.iter().enumerate() {
                        for q in g.stage.floor..=p {
                            let c = slab[(g.prev_inst[q - 1] - 1) * p + (inst - 1)];
                            col[gi * p + (q - 1)] = c;
                            if c < min_cin[pl] {
                                min_cin[pl] = c;
                            }
                        }
                    }
                    s_in_of[pl] = axes[first].slot_of_inst[inst];
                    debug_assert_ne!(s_in_of[pl], NO_SLOT, "own instance size on the in-axis");
                }
            }

            // Per (pl, ne) pair, offers[s * rows + (pl - floor)].
            let mut offers = Vec::with_capacity(nslots * rows);
            for (s, &ne) in axis.insts.iter().enumerate() {
                for pl in floor..=p {
                    let inst = inst_of[pl];
                    let out = match out_slab {
                        Some(slab) if ne != 0 => slab[(inst - 1) * p + (ne - 1)],
                        _ => 0.0,
                    };
                    // Best possible response of M at this (pl, ne): the
                    // cheapest incoming transfer over every predecessor —
                    // none for the base case, where M is the leftmost
                    // module (slack allowed) and this is the cells' value.
                    let cin_min = if first == 0 { 0.0 } else { min_cin[pl] };
                    let cap = response_throughput(cin_min, exec_of[pl], out, r_of[pl]);
                    // Below the incumbent, every cell of the pair is off
                    // the optimal path. Otherwise structural reachability
                    // (the other half of `prune`): a consumer module
                    // reading this slot holds at least `min_procs[s]`
                    // processors of its own, and final stages are read by
                    // the terminal scan at pt = P only — cells outside
                    // [lo, hi] are never read by anything, so skipping
                    // them is exact even without an incumbent.
                    let (lo, hi) = if !opts.prune {
                        (pl, p)
                    } else if cap < bound {
                        (usize::MAX, 0)
                    } else if j + 1 == k {
                        (p, p)
                    } else {
                        (pl, p - axis.min_procs[s].min(p))
                    };
                    offers.push(Offer { out, cap, lo, hi });
                }
            }

            // One line: the cells (s, pt, pl) for every pl, which start at
            // `-∞`, and the line maximum.
            let fill = |line: Line<'_, f64>, st: &mut CellStats| {
                let (s, pt) = (line.index / (p + 1), line.index % (p + 1));
                // The P - pt processors left for tasks j+1..k cannot
                // sustain the incumbent: no completion through any cell
                // of this line can be optimal.
                let starved = suffix_row.is_some_and(|sfx| sfx[p - pt] < bound);
                for pl in floor..=pt {
                    let o = offers[s * rows + (pl - floor)];
                    st.cells += 1;
                    if pt < o.lo || pt > o.hi || starved {
                        st.cells_pruned += 1;
                        continue;
                    }
                    if first == 0 {
                        line.values[pl - 1] = o.cap;
                        continue;
                    }
                    let (exec, r, s_in) = (exec_of[pl], r_of[pl], s_in_of[pl]);
                    let cin = &cin[(pl - floor) * block..][..block];
                    let budget = pt - pl;
                    // Start the running best at the pruning bound
                    // (`-∞` when pruning is off): candidates at or
                    // below the incumbent can never sit on the
                    // optimal chain, so letting the `sub ≤ best` and
                    // line-max skips drop them wholesale is exact —
                    // sub-bound cells merely become `-∞` instead of
                    // carrying a value no optimal path reads.
                    let mut best = bound;
                    'groups: for (gi, g) in groups.iter().enumerate() {
                        let pfloor = g.stage.floor;
                        if pfloor > budget {
                            continue;
                        }
                        let n = (budget - pfloor + 1) as u64;
                        if opts.prune && g.stage.rowmax()[s_in * (p + 1) + budget] <= best {
                            // No value in this stage's line can strictly
                            // beat the running best: min(sub, ·) ≤ sub.
                            st.qskips += n;
                            continue;
                        }
                        let Some(prev_row) = g.stage.row(p, s_in, budget) else {
                            // A dead line: each of its `-∞` cells would be
                            // looked up and skipped.
                            st.lookups += n;
                            st.qskips += n;
                            continue;
                        };
                        let col = &cin[gi * p..gi * p + p];
                        for q in pfloor..=budget {
                            st.lookups += 1;
                            let sub = prev_row[q - 1];
                            if sub <= best {
                                st.qskips += 1;
                                continue; // min(sub, _) cannot beat best
                            }
                            let thr = response_throughput(col[q - 1], exec, o.out, r);
                            let cand = sub.min(thr);
                            if cand > best {
                                best = cand;
                                if opts.prune && best >= o.cap {
                                    // Every later candidate is ≤ the
                                    // cap ≤ best, so none changes the
                                    // value or its first argmax.
                                    break 'groups;
                                }
                            }
                        }
                    }
                    if best > bound {
                        line.values[pl - 1] = best;
                    }
                }
                *line.summary = line.values.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            };

            let (rows, st) = pool::run_rows(threads, nslots * (p + 1), p, f64::NEG_INFINITY, fill);
            if opts.provenance {
                stage_stats[j].absorb(&st);
            }
            totals.absorb(&st);
            drop(groups);
            stages[stage_key(j, l)] = Some(Cow::Owned(Stage { rows, floor }));
        }
    }

    rec.add(&format!("solver.{name}.cells"), totals.cells);
    rec.add(&format!("solver.{name}.lookups"), totals.lookups);
    rec.add(&format!("solver.{name}.pruned"), totals.qskips);
    rec.add(pipemap_obs::names::SOLVER_CELLS_TOTAL, totals.cells);
    rec.add(pipemap_obs::names::SOLVER_CELLS_PRUNED, totals.cells_pruned);

    // Answer: best over the last module's (L, pl) at ne = 0, pt = P. The
    // final stages' ne axis is the single sentinel slot.
    let mut best = f64::NEG_INFINITY;
    let mut best_l = 0usize;
    let mut best_pl = 0usize;
    for l in 1..=clustering.max_len(k) {
        let Some(stage) = stages[stage_key(k - 1, l)].as_deref() else {
            continue;
        };
        for pl in 1..=p {
            let v = stage.value(p, 0, p, pl);
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

    let (modules, offers, cells) = walk_path(
        table,
        &stages,
        &axes,
        (k, p),
        (best_l, best_pl),
        opts.provenance,
    );
    let prov = opts.provenance.then(|| {
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
            algorithm: name,
            throughput: best,
            cells,
            stage_cells,
            exact_runner_ups: !opts.prune,
        }
    });
    let solution = Solution::from_mapping(problem, Mapping::new(modules));
    debug_assert_eq!(
        solution.throughput.to_bits(),
        best.to_bits(),
        "{name} internal value {} disagrees with evaluator {}",
        best,
        solution.throughput
    );
    Ok(ClusterRun {
        solution,
        offers,
        provenance: prov,
        stages: keep_stages.then(|| {
            stages
                .into_iter()
                .map(|st| st.map(Cow::into_owned))
                .collect()
        }),
        axes,
        cells: totals.cells,
        cells_pruned: totals.cells_pruned,
    })
}

/// One candidate predecessor of a path cell: the previous module's length
/// and offer, the incoming transfer they imply, and the candidate's value.
#[derive(Clone, Copy)]
struct Pred {
    prev_len: usize,
    procs: usize,
    cin: f64,
    value: f64,
}

/// Rebuild the optimal path of a `k`-task sweep over `p` processors from
/// its terminal cell `(l, pl)` leftwards: each module's predecessor is the
/// first strict argmax of its cell's candidates, re-scanned in the sweep's
/// order with the sweep's arithmetic (module docs, "Reconstruction").
/// Returns the modules, the offers and, when `provenance` is set, one
/// [`DecisionCell`] per module, all in pipeline order.
fn walk_path(
    table: &CostTable,
    stages: &[Option<Cow<'_, Stage>>],
    axes: &[NeAxis],
    (k, p): (usize, usize),
    (mut l, mut pl): (usize, usize),
    provenance: bool,
) -> (Vec<ModuleAssignment>, Vec<Procs>, Vec<DecisionCell>) {
    let dense = table.dense();
    let (mut modules, mut offers, mut cells) = (Vec::new(), Vec::new(), Vec::new());
    let mut j = k - 1;
    let mut slot = 0usize; // sentinel slot of the final stages
    let mut pt = p;
    loop {
        let first = j + 1 - l;
        let rep = table
            .module_replication(first, j, pl)
            .expect("reconstructed module respects its floor");
        let inst = rep.procs_per_instance;
        modules.push(ModuleAssignment::new(first, j, rep.instances, inst));
        offers.push(pl);
        let ne = axes[j + 1].insts[slot];
        let out = if ne != 0 {
            dense.ecom_slab(j)[(inst - 1) * p + (ne - 1)]
        } else {
            0.0
        };
        let exec = table.module_exec(first, j, inst);
        // The first strict argmax from `-∞`, and the first strict argmax
        // of the others: a new maximum demotes the old one, which was the
        // first argmax of everything before it.
        let (mut chosen, mut runner_up): (Option<Pred>, Option<Pred>) = (None, None);
        let s_in = axes[first].slot_of_inst[inst];
        if first > 0 {
            let budget = pt - pl;
            let in_slab = dense.ecom_slab(first - 1);
            let beats = |c: &Option<Pred>, v: f64| v > c.map_or(f64::NEG_INFINITY, |c| c.value);
            for prev_len in 1..=first {
                let Some(prev) = stages[stage_key(k, first - 1, prev_len)].as_deref() else {
                    continue;
                };
                let Some(row) = prev.row(p, s_in, budget) else {
                    continue; // a dead line: every candidate is `-∞`
                };
                for q in prev.floor..=budget {
                    let prep = table
                        .module_replication(first - prev_len, first - 1, q)
                        .expect("q >= floor");
                    let cin = in_slab[(prep.procs_per_instance - 1) * p + (inst - 1)];
                    let value = row[q - 1].min(response_throughput(cin, exec, out, rep.instances));
                    let pred = Pred {
                        prev_len,
                        procs: q,
                        cin,
                        value,
                    };
                    if beats(&chosen, value) {
                        runner_up = chosen.replace(pred);
                    } else if beats(&runner_up, value) {
                        runner_up = Some(pred);
                    }
                }
            }
        }
        let value = stages[stage_key(k, j, l)]
            .as_deref()
            .expect("path visits existing stages")
            .value(p, slot, pt, pl);
        debug_assert!(
            chosen.is_none_or(|c| c.value.to_bits() == value.to_bits()),
            "re-scanned maximum disagrees with the stored cell ({j}, {l}, {pl})"
        );
        if provenance {
            cells.push(DecisionCell {
                index: 0, // assigned after the reverse below
                first,
                last: j,
                offer: pl,
                instances: rep.instances,
                instance_procs: inst,
                budget: pt,
                value,
                chosen_prev_len: chosen.map_or(0, |c| c.prev_len),
                chosen_prev_procs: chosen.map_or(0, |c| c.procs),
                runner_up: runner_up.map(|c| RunnerUp {
                    prev_len: c.prev_len,
                    prev_procs: c.procs,
                    value: c.value,
                }),
                exec_s: exec,
                ecom_in_s: chosen.map_or(0.0, |c| c.cin),
                ecom_out_s: out,
            });
        }
        let Some(c) = chosen else {
            debug_assert_eq!(first, 0, "a non-base path cell has a predecessor");
            break;
        };
        slot = s_in;
        pt -= pl;
        j = first - 1;
        l = c.prev_len;
        pl = c.procs;
    }
    modules.reverse();
    offers.reverse();
    cells.reverse();
    for (i, cell) in cells.iter_mut().enumerate() {
        cell.index = i;
    }
    (modules, offers, cells)
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

    /// A deterministic 8-task chain with memory floors and real transfers.
    fn synthetic_chain() -> TaskChain {
        let mut state = 7919u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / ((1u64 << 31) as f64) // in [0, 2)
        };
        let mut b = ChainBuilder::new();
        for i in 0..8 {
            let work = PolyUnary::new(0.05 * next(), 2.0 + 4.0 * next(), 0.01 * next());
            b = b.task(
                Task::new(format!("t{i}"), work).with_memory(MemoryReq::new(0.0, 40.0 * next())),
            );
            if i < 7 {
                let ecom = PolyEcom::new(0.05 * next(), 0.4 * next(), 0.4 * next(), 0.005, 0.005);
                b = b.edge(Edge::new(PolyUnary::new(0.02 * next(), 0.0, 0.0), ecom));
            }
        }
        b.build()
    }

    #[test]
    fn only_live_lines_store_a_row() {
        let p = 64;
        let problem = Problem::new(synthetic_chain(), p, 10.0);
        let ctx = SolveCtx::new(&problem).unwrap();
        for prune in [true, false] {
            let opts = SolveOptions {
                prune,
                ..SolveOptions::default()
            };
            let run =
                run_cluster_dp(&problem, &ctx, &opts, Clustering::Contiguous, true, None).unwrap();
            let (mut live, mut dead) = (0, 0);
            for stage in run.stages.unwrap().iter().flatten() {
                let mut stage_live = 0;
                for (line, &max) in stage.rowmax().iter().enumerate() {
                    let (slot, pt) = (line / (p + 1), line % (p + 1));
                    let row = stage.row(p, slot, pt);
                    assert_eq!(row.is_none(), max == f64::NEG_INFINITY, "line {line}");
                    match row {
                        Some(row) => {
                            stage_live += 1;
                            let top = row.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
                            assert_eq!(top.to_bits(), max.to_bits(), "line {line}");
                        }
                        None => {
                            dead += 1;
                            for pl in 1..=p {
                                assert_eq!(stage.value(p, slot, pt, pl), f64::NEG_INFINITY);
                            }
                        }
                    }
                }
                assert_eq!(stage.rows.stored(), stage_live, "prune = {prune}");
                live += stage_live;
            }
            assert!(
                live > 0 && dead > 0,
                "prune = {prune}: {live} live, {dead} dead"
            );
        }
    }

    #[test]
    fn unpruned_lookups_count_every_candidate() {
        // With `prune` off every cell scans every offer `q` of every
        // predecessor stage, dead predecessor lines included, so each end
        // task's `lookups` is a count of the state space alone.
        let p = 64;
        let problem = Problem::new(synthetic_chain(), p, 10.0);
        let ctx = SolveCtx::new(&problem).unwrap();
        let opts = SolveOptions::default();
        let (run, prov) =
            recorded_run(&problem, &ctx, &opts, Clustering::Contiguous, false).unwrap();
        let floor =
            |first: usize, last: usize| ctx.table().module_floor(first, last).filter(|&f| f <= p);
        for j in 0..8 {
            let mut want = 0;
            for first in 1..=j {
                let Some(own) = floor(first, j) else {
                    continue;
                };
                for prev_first in 0..first {
                    let Some(prev) = floor(prev_first, first - 1) else {
                        continue;
                    };
                    let per_slot: usize = (own..=p)
                        .flat_map(|pt| (own..=pt).map(move |pl| pt - pl))
                        .map(|budget| (budget + 1).saturating_sub(prev))
                        .sum();
                    want += per_slot * run.axes[j + 1].len();
                }
            }
            assert_eq!(prov.stage_cells[j].lookups, want as u64, "end task {j}");
        }
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
