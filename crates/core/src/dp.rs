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
//! ## Performance layer
//!
//! All knobs live on [`SolveOptions`] and change *nothing* about the
//! result (bit-identical throughput and assignment, see
//! `tests/equivalence.rs`):
//!
//! * **Dense tables** — inner loops index the flat rows/slabs of
//!   [`pipemap_model::DenseCostTable`] (via [`CostTable::dense`]); the
//!   predecessor scan over `q` walks the previous stage's value row and a
//!   pre-gathered `ecom` column contiguously.
//! * **Instance dedup** (`dedup`) — the `p_next` axis only distinguishes
//!   *instance sizes*: two successor offers with equal instance size are
//!   interchangeable for the subproblem. A replicable successor with floor
//!   1 collapses the whole axis to one slot.
//! * **Bound pruning** (`prune`) — the greedy heuristic's throughput is an
//!   admissible incumbent (its assignment is a feasible DP state, so the
//!   optimum is ≥ it). A cell whose single-task upper bound
//!   `1 / f_j(best ecom_in)` — or whose best reachable subchain value —
//!   falls below the incumbent cannot lie on the optimal path and is
//!   skipped; inner scans break once a cell reaches its own bound.
//! * **Parallel rows** (`par`) — each stage's `(pl)` rows are independent;
//!   [`crate::pool::run_strided`] computes them on scoped threads with
//!   per-thread buffers merged deterministically at the stage barrier.
//!
//! Complexity: `O(P⁴ k)` time worst case (the `pn` dimension of the final
//! stage is a single sentinel value, and per-stage work is
//! `pt × pl × pn × q ≤ P⁴`), `O(P² · slots)` memory per live stage.

use pipemap_chain::{Assignment, CostTable, Mapping, Problem};
use pipemap_model::Procs;

use crate::greedy;
use crate::options::SolveOptions;
use crate::pool::{self, CellStats};
use crate::provenance::{self, Provenance, StageCells};
use crate::solution::{Solution, SolveError};

/// Relative safety margin on the pruning incumbent: the greedy bound and
/// the DP cells accumulate the same three cost terms in different
/// association orders, so allow a few ulps of slack before declaring a
/// cell unreachable. Far larger than any association error, far smaller
/// than any real throughput gap.
const PRUNE_MARGIN: f64 = 1e-12;

/// Slot sentinel for "no entry" in a raw-offer → slot map.
const NO_SLOT: usize = usize::MAX;

/// The value + parent tables of one DP stage, kept for introspection
/// (Figure 4 of the paper illustrates exactly these subchain tables).
#[derive(Clone, Debug)]
pub struct DpStage {
    /// Task index `j` of this stage.
    pub task: usize,
    /// `value[(pt * nslots + slot) * P + (pl - 1)]` = best bottleneck
    /// throughput, or `f64::NEG_INFINITY` when the state is invalid. Use
    /// [`DpStage::get`] rather than indexing by hand: `slot` is the
    /// successor's axis slot (see module docs), not a raw `pn`.
    pub value: Vec<f64>,
    /// Parent table in the same layout: the maximising `q` (processors of
    /// task `j-1`).
    pub parent: Vec<u32>,
    /// Successor-axis width of this stage.
    nslots: usize,
    /// The problem's `P`.
    max_p: usize,
    /// Raw successor offer → axis slot; empty for the final (sentinel)
    /// stage.
    slot_of_raw: Vec<usize>,
}

impl DpStage {
    /// Value at `(p_total, p_last, p_next)`; `pn = 0` is the final stage's
    /// sentinel ("no next task"). Returns `-inf` for invalid states.
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
        self.value[(pt * self.nslots + slot) * self.max_p + (pl - 1)]
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
    /// Per-stage cell statistics; populated only when
    /// [`SolveOptions::provenance`] is set.
    pub stage_cells: Vec<StageCells>,
    /// Total DP cells enumerated by this run (spliced-in stages of a
    /// warm-started run contribute nothing — this is the work actually
    /// done).
    pub cells: u64,
    /// Cells of that total skipped wholesale by pruning.
    pub cells_pruned: u64,
}

/// Warm-start state for [`run_dp_resumable`]: splice the retained tables
/// of a previous *unpruned, stage-keeping* solve for every stage left of
/// `frontier` and recompute only the invalidated suffix. The retained
/// prefix is exact (no `-inf` pruning holes), so a pruned suffix reading
/// it behaves exactly like a pruned cold solve: prefix cells below the
/// incumbent are floored out by the `sub <= best` skip instead of being
/// absent, which cannot change any on-path argmax (see `resolve.rs` for
/// the admissibility argument).
pub(crate) struct DpResume<'a> {
    /// First stage whose costs — or transitive inputs — changed; stages
    /// `0..frontier` are copied from `stages` verbatim.
    pub(crate) frontier: usize,
    /// Retained per-stage tables of the previous unpruned solve (all `k`).
    pub(crate) stages: &'a [DpStage],
    /// Admissible pruning incumbent in the DP's *internal* arithmetic
    /// (the previous optimum re-priced on the patched table), or
    /// `NEG_INFINITY` to fall back to the greedy bound.
    pub(crate) incumbent: f64,
}

/// The successor axis of one stage: which "next task offer" states are
/// distinguished. Entry `insts[slot]` is the successor's *instance* size
/// (0 = the "no next task" sentinel); `slot_of_raw[pn]` maps a raw
/// successor offer to its slot.
struct Axis {
    insts: Vec<Procs>,
    slot_of_raw: Vec<usize>,
}

impl Axis {
    fn sentinel() -> Self {
        Self {
            insts: vec![0],
            slot_of_raw: Vec::new(),
        }
    }

    /// Axis over the offers `floor..=p` of the task with instance map
    /// `inst_of`. With `dedup`, offers collapse to distinct instance
    /// sizes; otherwise every raw offer keeps its own slot (the faithful
    /// reference enumeration).
    fn for_task(inst_of: &[Procs], floor: Procs, p: Procs, dedup: bool) -> Self {
        let mut slot_of_raw = vec![NO_SLOT; p + 1];
        if dedup {
            let mut insts: Vec<Procs> = (floor..=p).map(|q| inst_of[q]).collect();
            insts.sort_unstable();
            insts.dedup();
            for q in floor..=p {
                slot_of_raw[q] = insts
                    .binary_search(&inst_of[q])
                    .expect("axis contains every instance size");
            }
            Self { insts, slot_of_raw }
        } else {
            let insts: Vec<Procs> = (floor..=p).map(|q| inst_of[q]).collect();
            for (slot, q) in (floor..=p).enumerate() {
                slot_of_raw[q] = slot;
            }
            Self { insts, slot_of_raw }
        }
    }

    fn len(&self) -> usize {
        self.insts.len()
    }
}

/// `1 / f_eff` with the conventions of the solvers: an infinitely slow
/// state contributes throughput 0 (dominated but legal), a zero-cost state
/// contributes `+inf`.
#[inline]
pub(crate) fn throughput_of(f_eff: f64) -> f64 {
    if f_eff.is_infinite() {
        if f_eff.is_sign_positive() {
            0.0
        } else {
            f64::NEG_INFINITY
        }
    } else if f_eff <= 0.0 {
        f64::INFINITY
    } else {
        1.0 / f_eff
    }
}

/// One computed stage row (a single `pl`), produced by a pool worker and
/// merged into the stage table at the barrier.
struct Row {
    /// `value[pt * nslots + slot]`.
    value: Vec<f64>,
    /// Same layout; empty for the base stage (no predecessor).
    parent: Vec<u32>,
    stats: CellStats,
}

pub(crate) fn run_dp(
    problem: &Problem,
    table: &CostTable,
    keep_stages: bool,
    opts: &SolveOptions,
) -> Result<DpTrace, SolveError> {
    run_dp_resumable(problem, table, keep_stages, opts, None)
}

pub(crate) fn run_dp_resumable(
    problem: &Problem,
    table: &CostTable,
    keep_stages: bool,
    opts: &SolveOptions,
    resume: Option<&DpResume<'_>>,
) -> Result<DpTrace, SolveError> {
    let rec = pipemap_obs::global();
    let _wall = rec.timer("solver.dp_assignment.wall_s");
    let _span = pipemap_obs::span!("dp_assignment", "solver");
    // Provenance harvesting reads the winning path back out of the stage
    // tables, so recording implies keeping them.
    let keep_stages = keep_stages || opts.provenance;

    let k = problem.num_tasks();
    let p = problem.total_procs;
    let dense = table.dense();

    let floors: Vec<Procs> = (0..k)
        .map(|i| problem.task_floor(i).ok_or(SolveError::Infeasible))
        .collect::<Result<_, _>>()?;
    if floors.iter().sum::<Procs>() > p {
        return Err(SolveError::Infeasible);
    }

    // Replication maps per task: offer → (instance size, instance count).
    let mut inst_of: Vec<Vec<Procs>> = vec![vec![0; p + 1]; k];
    let mut r_of: Vec<Vec<f64>> = vec![vec![0.0; p + 1]; k];
    for i in 0..k {
        for q in floors[i]..=p {
            let rep = table
                .module_replication(i, i, q)
                .expect("offer >= floor implies a replication exists");
            inst_of[i][q] = rep.procs_per_instance;
            r_of[i][q] = rep.instances as f64;
        }
    }

    // Successor axis of each stage.
    let axes: Vec<Axis> = (0..k)
        .map(|j| {
            if j + 1 == k {
                Axis::sentinel()
            } else {
                Axis::for_task(&inst_of[j + 1], floors[j + 1], p, opts.dedup)
            }
        })
        .collect();

    // Pruning incumbent: the greedy assignment is a feasible DP state
    // computed with the *same* response arithmetic, so the DP optimum is
    // ≥ its throughput — an admissible bound. A warm-started run may carry
    // its own incumbent (the previous optimum re-priced, also a feasible
    // state); both are admissible, so take whichever is tighter — after a
    // drift *on* the old bottleneck the old path's value can fall well
    // below what a fresh greedy finds.
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

    let mut stages: Vec<DpStage> = Vec::new();
    let mut all_parents: Vec<Vec<u32>> = Vec::new();
    let mut prev_value: Vec<f64> = Vec::new();
    let mut prev_rowmax: Vec<f64> = Vec::new();
    let mut totals = CellStats::default();
    let mut stage_cells: Vec<StageCells> = Vec::new();

    for j in 0..k {
        // Warm start: stages left of the invalidation frontier are exact
        // on the patched table — splice the retained tables instead of
        // recomputing them. Rebuilding rowmax at the frontier boundary
        // uses the identical fold as the cold path below.
        if let Some(res) = resume {
            if j < res.frontier {
                let st = &res.stages[j];
                if keep_stages {
                    stages.push(st.clone());
                }
                all_parents.push(st.parent.clone());
                if opts.provenance {
                    stage_cells.push(StageCells {
                        stage: j,
                        cells: 0,
                        pruned: 0,
                        lookups: 0,
                        skips: 0,
                    });
                }
                if j + 1 == res.frontier {
                    prev_value = st.value.clone();
                    if opts.prune {
                        let nslots = st.nslots;
                        let mut rowmax = vec![f64::NEG_INFINITY; (p + 1) * nslots];
                        for (i, m) in rowmax.iter_mut().enumerate() {
                            *m = st.value[i * p..(i + 1) * p]
                                .iter()
                                .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
                        }
                        prev_rowmax = rowmax;
                    }
                }
                continue;
            }
        }
        let axis = &axes[j];
        let nslots = axis.len();
        let nslots_prev = if j > 0 { axes[j - 1].len() } else { 0 };
        let floor = floors[j];
        let rows = p - floor + 1;
        let out_slab = if j + 1 < k {
            Some(dense.ecom_slab(j))
        } else {
            None
        };

        // Pre-gather incoming-transfer columns, one per distinct instance
        // size of task j: eincol[q - 1] = ecom(j-1, inst_{j-1}(q), inst).
        // The q scan then walks both the previous value row and this
        // column contiguously. The paired scalar is the column minimum
        // over feasible q (for the cell's single-task bound).
        let mut eincols: Vec<Option<(Vec<f64>, f64)>> = vec![None; p + 1];
        if j > 0 {
            let in_slab = dense.ecom_slab(j - 1);
            for pl in floor..=p {
                let inst = inst_of[j][pl];
                if eincols[inst].is_some() {
                    continue;
                }
                let mut col = vec![f64::INFINITY; p];
                let mut min = f64::INFINITY;
                for q in floors[j - 1]..=p {
                    let c = in_slab[(inst_of[j - 1][q] - 1) * p + (inst - 1)];
                    col[q - 1] = c;
                    if c < min {
                        min = c;
                    }
                }
                eincols[inst] = Some((col, min));
            }
        }

        // Fewest successor processors mapping to each slot, for the
        // structural reachability prune (see the worker); empty when
        // unused.
        let min_raw: Vec<usize> = if opts.prune && j + 1 < k {
            let mut m = vec![usize::MAX; nslots];
            for q in 1..=p {
                let s = axis.slot_of_raw[q];
                if s != NO_SLOT && q < m[s] {
                    m[s] = q;
                }
            }
            m
        } else {
            Vec::new()
        };

        let worker = |ri: usize| -> Row {
            let pl = floor + ri;
            let inst = inst_of[j][pl];
            let r = r_of[j][pl];
            let e = dense.exec(j, inst);
            let mut value = vec![f64::NEG_INFINITY; (p + 1) * nslots];
            let mut parent = vec![0u32; if j == 0 { 0 } else { (p + 1) * nslots }];
            let mut st = CellStats::default();
            let (ein_col, ein_min) = if j > 0 {
                let (col, min) = eincols[inst]
                    .as_ref()
                    .expect("column built for every offer");
                (&col[..], *min)
            } else {
                (&[][..], 0.0)
            };
            let slot_prev = if j > 0 {
                axes[j - 1].slot_of_raw[pl]
            } else {
                NO_SLOT
            };

            for (s, &ne_inst) in axis.insts.iter().enumerate() {
                let eout = match out_slab {
                    Some(slab) if ne_inst != 0 => slab[(inst - 1) * p + (ne_inst - 1)],
                    _ => 0.0,
                };
                let nominal = (p + 1 - pl) as u64;
                // Structural reachability (the other half of `prune`): a
                // successor row reading this slot holds `min_raw[s]`
                // processors of its own, and the final stage is read by
                // the terminal scan at pt = P only — cells outside
                // [lo, hi] are never read by anything, so skipping them
                // is exact even without an incumbent.
                let (lo, hi) = if !opts.prune {
                    (pl, p)
                } else if j + 1 == k {
                    (p, p)
                } else {
                    (pl, p - min_raw[s].min(p))
                };
                if j == 0 {
                    // Base case: the response depends on (pl, slot) only.
                    let own = throughput_of((e + eout) / r);
                    st.cells += nominal;
                    if opts.prune && own < bound {
                        st.cells_pruned += nominal;
                        continue; // below the incumbent: never optimal
                    }
                    if hi < lo {
                        st.cells_pruned += nominal;
                        continue;
                    }
                    st.cells_pruned += nominal - (hi - lo + 1) as u64;
                    for pt in lo..=hi {
                        value[pt * nslots + s] = own;
                    }
                    continue;
                }
                // Upper bound on any candidate's own term: best possible
                // incoming transfer. If even that misses the incumbent,
                // the whole (pl, slot) row is off the optimal path.
                let cap = throughput_of(((e + ein_min) + eout) / r);
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
                let pfloor = floors[j - 1];
                for pt in lo..=hi {
                    let budget = pt - pl;
                    if budget < pfloor {
                        continue; // no feasible predecessor: stays -inf
                    }
                    let row_base = (budget * nslots_prev + slot_prev) * p;
                    if opts.prune && prev_rowmax[budget * nslots_prev + slot_prev] < bound {
                        // No reachable subchain value meets the incumbent.
                        st.cells_pruned += 1;
                        continue;
                    }
                    let prev_row = &prev_value[row_base..row_base + p];
                    // Start the running best at the pruning bound (`-∞`
                    // when pruning is off): sub-incumbent candidates can
                    // never sit on the optimal chain, so the `sub ≤ best`
                    // skip may drop them wholesale — the cell merely
                    // becomes `-∞` instead of carrying a value that is
                    // never reconstructed.
                    let mut best = bound;
                    let mut updated = false;
                    let mut best_q = 0u32;
                    for q in pfloor..=budget {
                        st.lookups += 1;
                        let sub = prev_row[q - 1];
                        if sub <= best {
                            st.qskips += 1;
                            continue; // min(sub, _) ≤ sub ≤ best
                        }
                        let own = throughput_of(((e + ein_col[q - 1]) + eout) / r);
                        let cand = sub.min(own);
                        if cand > best {
                            best = cand;
                            updated = true;
                            best_q = q as u32;
                            if opts.prune && best >= cap {
                                // Ties can't displace the first argmax
                                // (strict update), so nothing after this
                                // candidate changes the cell.
                                break;
                            }
                        }
                    }
                    value[pt * nslots + s] = if updated { best } else { f64::NEG_INFINITY };
                    parent[pt * nslots + s] = best_q;
                }
            }
            Row {
                value,
                parent,
                stats: st,
            }
        };

        let computed = pool::run_strided(threads, rows, worker);

        // Stage barrier: merge per-row buffers into the stage tables.
        let mut value = vec![f64::NEG_INFINITY; (p + 1) * nslots * p];
        let mut parent = vec![0u32; if j == 0 { 0 } else { (p + 1) * nslots * p }];
        let mut stage_st = CellStats::default();
        for (ri, row) in computed.into_iter().enumerate() {
            let pl = floor + ri;
            for pt in 0..=p {
                for s in 0..nslots {
                    let src = pt * nslots + s;
                    let dst = src * p + (pl - 1);
                    value[dst] = row.value[src];
                    if j > 0 {
                        parent[dst] = row.parent[src];
                    }
                }
            }
            stage_st.absorb(&row.stats);
        }
        totals.absorb(&stage_st);
        if opts.provenance {
            stage_cells.push(StageCells {
                stage: j,
                cells: stage_st.cells,
                pruned: stage_st.cells_pruned,
                lookups: stage_st.lookups,
                skips: stage_st.qskips,
            });
        }
        if opts.prune {
            // Row maxima over pl, used by the next stage's cell bound.
            let mut rowmax = vec![f64::NEG_INFINITY; (p + 1) * nslots];
            for (i, m) in rowmax.iter_mut().enumerate() {
                *m = value[i * p..(i + 1) * p]
                    .iter()
                    .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            }
            prev_rowmax = rowmax;
        }
        if keep_stages {
            stages.push(DpStage {
                task: j,
                value: value.clone(),
                parent: parent.clone(),
                nslots,
                max_p: p,
                slot_of_raw: axis.slot_of_raw.clone(),
            });
        }
        all_parents.push(parent);
        prev_value = value;
    }

    rec.add("solver.dp_assignment.cells", totals.cells);
    rec.add("solver.dp_assignment.lookups", totals.lookups);
    rec.add("solver.dp_assignment.pruned", totals.qskips);
    rec.add(pipemap_obs::names::SOLVER_CELLS_TOTAL, totals.cells);
    rec.add(pipemap_obs::names::SOLVER_CELLS_PRUNED, totals.cells_pruned);

    // Answer: best over pl of V_{k-1}(P, pl, φ); ties prefer fewer procs.
    // The final stage has the single sentinel slot.
    let mut best = f64::NEG_INFINITY;
    let mut best_pl = 0usize;
    for pl in floors[k - 1]..=p {
        let v = prev_value[p * p + (pl - 1)]; // (pt = P, slot 0) row
        if v > best {
            best = v;
            best_pl = pl;
        }
    }
    if best == f64::NEG_INFINITY {
        return Err(SolveError::Infeasible);
    }

    // Reconstruct right-to-left.
    let mut assignment = vec![0usize; k];
    let mut pt = p;
    let mut pl = best_pl;
    let mut slot = 0usize; // sentinel slot of the final stage
    for j in (0..k).rev() {
        assignment[j] = pl;
        if j > 0 {
            let nslots = axes[j].len();
            let q = all_parents[j][(pt * nslots + slot) * p + (pl - 1)] as usize;
            pt -= pl;
            slot = axes[j - 1].slot_of_raw[pl];
            pl = q;
        }
    }

    Ok(DpTrace {
        stages,
        assignment,
        throughput: best,
        stage_cells,
        cells: totals.cells,
        cells_pruned: totals.cells_pruned,
    })
}

/// [`run_dp`] with a defensive retry: if the pruned run reports
/// infeasibility (mathematically impossible when the incumbent is
/// admissible, but cheap to guard), rerun without pruning. The retry keeps
/// the warm-start splice — retained prefixes are exact regardless of
/// pruning.
pub(crate) fn run_dp_with_fallback(
    problem: &Problem,
    table: &CostTable,
    keep_stages: bool,
    opts: &SolveOptions,
    resume: Option<&DpResume<'_>>,
) -> Result<DpTrace, SolveError> {
    match run_dp_resumable(problem, table, keep_stages, opts, resume) {
        Err(SolveError::Infeasible) if opts.prune => {
            let unpruned = SolveOptions {
                prune: false,
                ..*opts
            };
            run_dp_resumable(problem, table, keep_stages, &unpruned, resume)
        }
        r => r,
    }
}

/// Optimal processor assignment for the unclustered problem: each task its
/// own module, replication per the problem's policy. Returns the optimal
/// [`Solution`] (throughput recomputed by the evaluator) and the chosen
/// per-task processor counts. Uses the default performance options; see
/// [`dp_assignment_with`].
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
    let table = CostTable::build(problem);
    let trace = run_dp_with_fallback(problem, &table, false, opts, None)?;
    let assignment = Assignment(trace.assignment.clone());
    let mapping: Mapping = assignment
        .to_mapping(problem)
        .expect("DP respects per-task floors");
    let solution = Solution::from_mapping(problem, mapping);
    debug_assert!(
        (solution.throughput - trace.throughput).abs() <= 1e-9 * trace.throughput.abs().max(1.0)
            || (solution.throughput.is_infinite() && trace.throughput.is_infinite()),
        "DP internal value {} disagrees with evaluator {}",
        trace.throughput,
        solution.throughput
    );
    Ok((solution, assignment))
}

/// [`dp_assignment`] keeping every stage table for inspection (Figure 4).
/// Runs the reference enumeration so the tables cover every raw
/// `(pt, pl, pn)` state.
pub fn dp_assignment_traced(problem: &Problem) -> Result<DpTrace, SolveError> {
    let table = CostTable::build(problem);
    run_dp(problem, &table, true, &SolveOptions::reference())
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
    let table = CostTable::build(problem);
    dp_assignment_provenance_on(problem, &table, opts)
}

/// [`dp_assignment_provenance`] against a caller-supplied cost table (e.g.
/// a [`crate::dp_cluster::SolveCtx`]'s), so multi-entry-point callers like
/// `pipemap explain` build the dense table once.
pub fn dp_assignment_provenance_on(
    problem: &Problem,
    table: &CostTable,
    opts: &SolveOptions,
) -> Result<(Solution, Assignment, Provenance), SolveError> {
    let opts = SolveOptions {
        prune: false,
        provenance: true,
        ..*opts
    };
    let trace = run_dp(problem, table, true, &opts)?;
    let prov = provenance::harvest_assignment(problem, table, &trace);
    let assignment = Assignment(trace.assignment.clone());
    let mapping: Mapping = assignment
        .to_mapping(problem)
        .expect("DP respects per-task floors");
    let solution = Solution::from_mapping(problem, mapping);
    Ok((solution, assignment, prov))
}

/// Per-stage cell statistics of a *pruned* assignment solve against a
/// caller-supplied cost table — the "what did pruning skip" half of the
/// `pipemap explain` heatmap (the exact half comes from
/// [`dp_assignment_provenance`]'s unpruned counts). The solve itself is
/// bit-identical to [`dp_assignment_with`]; only the statistics are kept.
pub fn dp_assignment_pruned_stats_on(
    problem: &Problem,
    table: &CostTable,
    opts: &SolveOptions,
) -> Result<Vec<StageCells>, SolveError> {
    let opts = SolveOptions {
        prune: true,
        provenance: true,
        ..*opts
    };
    let trace = run_dp_with_fallback(problem, table, false, &opts, None)?;
    Ok(trace.stage_cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemap_chain::{throughput, ChainBuilder, Edge, Task};
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
