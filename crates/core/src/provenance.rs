//! Decision provenance and exact stability margins for the DP solvers.
//!
//! The solvers are exact but opaque: they return *the* optimal mapping and
//! nothing about how close the race was. This module records the winning
//! decision path (one [`DecisionCell`] per module, with the runner-up
//! predecessor choice) and derives, for each stage, the **exact stability
//! margin**: the multiplicative factor by which that stage's fitted
//! execution or communication cost can drift before the optimal mapping
//! changes. Margins are computed from the solver's own value tables plus a
//! backward (suffix) DP — no Monte-Carlo, no re-solving per probe point.
//!
//! ## How the margins are exact
//!
//! Scale one module's execution cost by a factor `γ`. Every candidate
//! mapping's throughput, as a function of `γ`, is the minimum of a constant
//! (the rest of its chain) and rational curves `r / (c + γ·d)` (the
//! module's own effective response, whose scaled term is `d`). The optimal
//! alternative *through a different local configuration* of stage `i` has
//! value `min(Wℓ, xℓ(γ))`, where the best completion `Wℓ` comes from
//! joining the forward value table `V_{i-1}` (everything left of the
//! stage) with a suffix table `S_{i+1}` (everything right of it) over the
//! processor split — both tables are `γ`-free because they exclude the
//! scaled stage. The chosen mapping's value is `min(C*, x*(γ))` with `C*`
//! the chosen rest-of-chain constant. The flip point is the first `γ` at
//! which some alternative strictly exceeds the chosen value; since every
//! curve is a hyperbola in `γ`, all pairwise crossings are closed-form and
//! the first flip is found by scanning the elementary intervals they
//! induce. The same construction with the scaled term on an edge's
//! external-communication cost (which appears in *both* adjacent modules'
//! responses) yields the communication margins.
//!
//! For a clustered mapping the chain is first contracted to one task per
//! module ([`crate::cluster::contract_chain`]), so margins answer "how far
//! can this *module's* cost drift before the allocation/replication
//! decision flips, holding the chosen clustering fixed". For singleton
//! mappings this is the full assignment-level question.

use pipemap_chain::{
    module_response, module_throughput, CostTable, Mapping, ModuleAssignment, Problem,
};
use pipemap_model::Procs;

use crate::cluster::contract_chain;
use crate::dp;
use crate::dp_cluster::{response_throughput, SolveCtx};
use crate::options::SolveOptions;
use crate::solution::SolveError;

/// Margins refuse instances beyond this processor count: the joins are
/// polynomial but dense, and paper-scale problems sit far below it.
const MARGIN_MAX_PROCS: usize = 192;

/// Work-estimate ceiling (inner-loop iterations) across all margin joins.
/// Chains of non-replicable tasks keep one axis entry per raw offer, which
/// can push the edge joins toward `P⁵`; refuse rather than hang.
const MARGIN_WORK_LIMIT: u64 = 4_000_000_000;

/// Relative slack when testing whether an alternative *strictly* beats the
/// chosen mapping: the curves `r / (c + γ·d)` price a module in different
/// arithmetic from the evaluator, so ignore ulp-level wins.
const REL_EPS: f64 = 1e-9;

/// Per-stage cell statistics of one DP run (the raw material of the
/// `pipemap explain` pruning heatmap).
#[derive(Clone, Copy, Debug, Default)]
pub struct StageCells {
    /// Stage identity: the task (assignment DP) or end-task (cluster DP)
    /// index.
    pub stage: usize,
    /// DP cells enumerated, including pruned ones.
    pub cells: u64,
    /// Cells skipped wholesale by bounds or reachability.
    pub pruned: u64,
    /// Inner candidate-scan value lookups.
    pub lookups: u64,
    /// Candidates skipped by the running-best test.
    pub skips: u64,
}

/// The best predecessor choice *other than* the chosen one at a decision
/// cell. Exact only when the solve ran unpruned (see
/// [`SolveOptions::provenance`]).
#[derive(Clone, Copy, Debug)]
pub struct RunnerUp {
    /// Length (in tasks) of the alternative previous module (always 1 for
    /// the assignment DP).
    pub prev_len: usize,
    /// Processors offered to the alternative previous module.
    pub prev_procs: usize,
    /// The subchain throughput that alternative would have achieved.
    pub value: f64,
}

/// One winning-path DP cell: the configuration the solver chose for one
/// module, and how it was reached.
#[derive(Clone, Debug)]
pub struct DecisionCell {
    /// Module index in pipeline order.
    pub index: usize,
    /// First task of the module (original chain indices).
    pub first: usize,
    /// Last task of the module.
    pub last: usize,
    /// Raw processors offered to the module.
    pub offer: usize,
    /// Replication degree chosen by the policy at this offer.
    pub instances: usize,
    /// Processors per instance.
    pub instance_procs: Procs,
    /// Processor budget (`pt`) at this cell.
    pub budget: usize,
    /// The cell's DP value: best bottleneck throughput of the subchain
    /// ending here.
    pub value: f64,
    /// Length of the chosen previous module (0 at the first module).
    pub chosen_prev_len: usize,
    /// Processors of the chosen previous module (0 at the first module).
    pub chosen_prev_procs: usize,
    /// Best alternative predecessor, if any candidate besides the chosen
    /// one was feasible.
    pub runner_up: Option<RunnerUp>,
    /// Module execution time at the instance size (internal comm folded
    /// in).
    pub exec_s: f64,
    /// Incoming external transfer at the chosen instance sizes.
    pub ecom_in_s: f64,
    /// Outgoing external transfer at the chosen instance sizes.
    pub ecom_out_s: f64,
}

impl DecisionCell {
    /// The module's response time `cin + exec + cout` (one instance).
    pub fn response_s(&self) -> f64 {
        self.ecom_in_s + self.exec_s + self.ecom_out_s
    }

    /// Effective response: response divided by the replication degree —
    /// the term the pipeline bottleneck takes its max over.
    pub fn effective_s(&self) -> f64 {
        self.response_s() / self.instances as f64
    }
}

/// Full decision provenance of one solve: the winning path plus per-stage
/// cell statistics.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// Which solver produced this (`"dp_assignment"` or `"dp_mapping"`).
    pub algorithm: &'static str,
    /// The solve's optimal throughput (internal DP value).
    pub throughput: f64,
    /// Winning-path cells in pipeline order.
    pub cells: Vec<DecisionCell>,
    /// Per-stage cell statistics (pruning heatmap rows).
    pub stage_cells: Vec<StageCells>,
    /// Whether runner-up values are exact (unpruned scan). The entry
    /// points force this; a pruned trace would drop sub-incumbent
    /// candidates wholesale.
    pub exact_runner_ups: bool,
}

/// Exact stability margins of one mapped stage (one module).
#[derive(Clone, Debug)]
pub struct StageMargin {
    /// Module index in pipeline order.
    pub index: usize,
    /// First task (original chain indices).
    pub first: usize,
    /// Last task.
    pub last: usize,
    /// Raw processors offered to the module.
    pub offer: usize,
    /// Replication degree.
    pub instances: usize,
    /// Processors per instance.
    pub instance_procs: Procs,
    /// Module response time `cin + exec + cout` (one instance).
    pub response_s: f64,
    /// Effective response (response / instances).
    pub effective_s: f64,
    /// Bottleneck slack: this stage's throughput over the pipeline
    /// throughput (`1.0` at the bottleneck). How much this stage's
    /// *response* can grow before it becomes the bottleneck — a weaker,
    /// classical robustness number reported alongside the exact margins.
    pub slack: f64,
    /// Factor (≥ 1) the module's execution cost can grow before the
    /// optimal mapping changes; `inf` if it never does.
    pub exec_up: f64,
    /// Factor (≤ 1) the execution cost can shrink before the optimum
    /// changes; `0` if it never does.
    pub exec_down: f64,
    /// Factor (≥ 1) the incoming edge's external-communication cost can
    /// grow before the optimum changes (`inf` for the first module or
    /// when it never flips).
    pub ecom_in_up: f64,
    /// Factor (≤ 1) the incoming edge's cost can shrink before the
    /// optimum changes (`0` for the first module or when it never flips).
    pub ecom_in_down: f64,
    /// The raw offer of the alternative configuration this stage first
    /// flips to as its execution cost grows (when `exec_up` is finite).
    pub flip_offer: Option<usize>,
}

/// Exact stability margins of a mapping, one entry per module.
#[derive(Clone, Debug)]
pub struct MarginReport {
    /// Pipeline throughput of the analysed mapping.
    pub throughput: f64,
    /// Index of the bottleneck module.
    pub bottleneck: usize,
    /// Per-module margins in pipeline order.
    pub stages: Vec<StageMargin>,
}

impl MarginReport {
    /// The tightest upward execution margin across stages — the first
    /// drift factor at which *any* stage's growth flips the mapping.
    pub fn min_exec_up(&self) -> f64 {
        self.stages
            .iter()
            .map(|s| s.exec_up)
            .fold(f64::INFINITY, f64::min)
    }
}

// ---------------------------------------------------------------------------
// Rational-curve first-crossing machinery.
//
// Every candidate value as a function of the drift factor γ is the minimum
// of curves `r / (c + γ·d)` (constants are `d = 0`). Two curves cross at
// most once at a closed-form γ, so the real line splits into elementary
// intervals on which the comparison of two min-families is constant.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct Curve {
    r: f64,
    c: f64,
    d: f64,
}

impl Curve {
    fn constant(v: f64) -> Self {
        Curve {
            r: v,
            c: 1.0,
            d: 0.0,
        }
    }

    fn eval(&self, g: f64) -> f64 {
        let den = self.c + g * self.d;
        if den <= 0.0 {
            f64::INFINITY
        } else {
            self.r / den
        }
    }
}

fn family_min(curves: &[Curve], g: f64) -> f64 {
    curves
        .iter()
        .map(|c| c.eval(g))
        .fold(f64::INFINITY, f64::min)
}

/// Does the alternative strictly beat the chosen value at `g`? Strict with
/// relative slack so ulp-level association noise never reports a flip.
fn beats(alt: &[Curve], chosen: &[Curve], g: f64) -> bool {
    let a = family_min(alt, g);
    let b = family_min(chosen, g);
    if a.is_infinite() && b.is_infinite() {
        return false;
    }
    a > b * (1.0 + REL_EPS)
}

/// γ at which `u` and `v` cross: `r_u (c_v + γ d_v) = r_v (c_u + γ d_u)`.
fn push_crossing(u: &Curve, v: &Curve, out: &mut Vec<f64>) {
    let den = u.r * v.d - v.r * u.d;
    if den == 0.0 {
        return; // parallel or identical: no isolated crossing
    }
    let g = (v.r * u.c - u.r * v.c) / den;
    if g.is_finite() && g > 0.0 {
        out.push(g);
    }
}

fn all_crossings(alt: &[Curve], chosen: &[Curve]) -> Vec<f64> {
    let mut out = Vec::new();
    let all: Vec<&Curve> = alt.iter().chain(chosen.iter()).collect();
    for i in 0..all.len() {
        for j in i + 1..all.len() {
            push_crossing(all[i], all[j], &mut out);
        }
    }
    out
}

/// First γ ≥ 1 at which the alternative family strictly exceeds the chosen
/// family; `inf` if it never does. Returns the *interval edge* (the exact
/// indifference point), so the safe drift region is `[1, result)`.
fn first_flip_up(alt: &[Curve], chosen: &[Curve]) -> f64 {
    if alt.is_empty() {
        // No constraints at all: an unconstrained (infinitely fast)
        // alternative wins immediately unless the chosen is also
        // unconstrained.
        return if chosen.is_empty() {
            f64::INFINITY
        } else {
            1.0
        };
    }
    let mut bps = all_crossings(alt, chosen);
    bps.retain(|&g| g > 1.0);
    bps.sort_by(f64::total_cmp);
    let mut lo = 1.0;
    for &bp in &bps {
        if beats(alt, chosen, 0.5 * (lo + bp)) {
            return lo;
        }
        lo = bp;
    }
    if beats(alt, chosen, 2.0 * lo + 1.0) {
        return lo;
    }
    f64::INFINITY
}

/// Largest γ ≤ 1 at which the alternative family strictly exceeds the
/// chosen family as γ shrinks; `0` if it never does. The safe region is
/// `(result, 1]`.
fn first_flip_down(alt: &[Curve], chosen: &[Curve]) -> f64 {
    if alt.is_empty() {
        return if chosen.is_empty() { 0.0 } else { 1.0 };
    }
    let mut bps = all_crossings(alt, chosen);
    bps.retain(|&g| g > 0.0 && g < 1.0);
    bps.sort_by(f64::total_cmp);
    let mut hi = 1.0;
    for &bp in bps.iter().rev() {
        if beats(alt, chosen, 0.5 * (bp + hi)) {
            return hi;
        }
        hi = bp;
    }
    if beats(alt, chosen, 0.5 * hi) {
        return hi;
    }
    0.0
}

// ---------------------------------------------------------------------------
// Suffix (backward) DP.
// ---------------------------------------------------------------------------

/// Per-module axis data on the contracted chain.
struct ModInfo {
    floor: usize,
    /// Offer → instance size (`0` below the floor).
    inst_of: Vec<Procs>,
    /// Offer → replication degree.
    r_of: Vec<usize>,
    /// Distinct achievable instance sizes, sorted.
    insts: Vec<Procs>,
    /// Instance size → index into `insts` (`usize::MAX` otherwise).
    idx_of: Vec<usize>,
}

const NO_IDX: usize = usize::MAX;

impl ModInfo {
    fn build(table: &CostTable, i: usize, p: usize) -> Result<Self, SolveError> {
        let floor = table.module_floor(i, i).ok_or(SolveError::Infeasible)?;
        if floor > p {
            return Err(SolveError::Infeasible);
        }
        let mut inst_of = vec![0usize; p + 1];
        let mut r_of = vec![0usize; p + 1];
        for q in floor..=p {
            let rep = table
                .module_replication(i, i, q)
                .expect("offer >= floor implies a replication exists");
            inst_of[q] = rep.procs_per_instance;
            r_of[q] = rep.instances;
        }
        let mut insts: Vec<usize> = inst_of[floor..=p].to_vec();
        insts.sort_unstable();
        insts.dedup();
        let mut idx_of = vec![NO_IDX; p + 1];
        for (x, &inst) in insts.iter().enumerate() {
            idx_of[inst] = x;
        }
        Ok(Self {
            floor,
            inst_of,
            r_of,
            insts,
            idx_of,
        })
    }
}

/// Instance-collapsed suffix table for module `j`:
/// `value[(bud * n_own + oi) * n_prev + pi]` = best min-throughput over
/// modules `j..k-1` on *at most* `bud` processors, module `j` running at
/// own-instance `insts_j[oi]`, its predecessor at instance
/// `insts_{j-1}[pi]`. Monotone non-decreasing in `bud`.
struct SuffixMax {
    value: Vec<f64>,
    n_own: usize,
    n_prev: usize,
}

fn build_suffix(table: &CostTable, info: &[ModInfo], k: usize, p: usize) -> Vec<Option<SuffixMax>> {
    let neg = f64::NEG_INFINITY;
    let mut suffix: Vec<Option<SuffixMax>> = (0..k).map(|_| None).collect();
    for j in (1..k).rev() {
        let own = &info[j];
        let prev = &info[j - 1];
        let n_own = own.insts.len();
        let n_prev = prev.insts.len();
        let mut value = vec![neg; (p + 1) * n_own * n_prev];
        for (pi, &pinst) in prev.insts.iter().enumerate() {
            for pj in own.floor..=p {
                let inst = own.inst_of[pj];
                let r = own.r_of[pj];
                let oi = own.idx_of[inst];
                let cin = table.ecom(j - 1, pinst, inst);
                if j + 1 == k {
                    let v = response_throughput(cin, table.exec(j, inst), 0.0, r);
                    for bud in pj..=p {
                        let cell = &mut value[(bud * n_own + oi) * n_prev + pi];
                        if v > *cell {
                            *cell = v;
                        }
                    }
                } else {
                    let next = suffix[j + 1].as_ref().expect("built right-to-left");
                    // The own response depends on the successor only via
                    // its instance size; precompute per next-instance.
                    let own_thr: Vec<f64> = info[j + 1]
                        .insts
                        .iter()
                        .map(|&ni| {
                            response_throughput(
                                cin,
                                table.exec(j, inst),
                                table.ecom(j, inst, ni),
                                r,
                            )
                        })
                        .collect();
                    for bud in pj..=p {
                        let bud2 = bud - pj;
                        let mut best = neg;
                        for (ni, &ot) in own_thr.iter().enumerate() {
                            let s = next.value[(bud2 * next.n_own + ni) * next.n_prev + oi];
                            if s == neg {
                                continue;
                            }
                            let cand = if ot < s { ot } else { s };
                            if cand > best {
                                best = cand;
                            }
                        }
                        let cell = &mut value[(bud * n_own + oi) * n_prev + pi];
                        if best > *cell {
                            *cell = best;
                        }
                    }
                }
            }
        }
        suffix[j] = Some(SuffixMax {
            value,
            n_own,
            n_prev,
        });
    }
    suffix
}

/// `max over s in 0..=total of min(a[s], b[total - s])` for monotone
/// non-decreasing `a` and `b` — the processor-split join. The optimum sits
/// where the two cross; binary-search it.
fn join_split(a: &[f64], b: &[f64], total: usize) -> f64 {
    let (mut lo, mut hi) = (0usize, total);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if a[mid] <= b[total - mid] {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let mut best = a[lo].min(b[total - lo]);
    if lo < total {
        let c = a[lo + 1].min(b[total - lo - 1]);
        if c > best {
            best = c;
        }
    }
    best
}

// ---------------------------------------------------------------------------
// Margins.
// ---------------------------------------------------------------------------

/// Exact stability margins of `mapping` on `problem`.
///
/// The chain is contracted to the mapping's clustering (a no-op for
/// singleton mappings), so each reported stage is one module and the
/// margins hold the clustering fixed: they answer how far one module's
/// execution cost — or one edge's external-communication cost — can drift,
/// multiplicatively, before a *different allocation or replication* becomes
/// strictly better than the chosen mapping.
///
/// Errors with [`SolveError::TooLarge`] when the instance exceeds the
/// margin engine's processor or work budget, and
/// [`SolveError::Infeasible`] when the mapping's configurations cannot be
/// reproduced from the problem's replication policy (a mapping not
/// produced by the solvers on this problem).
pub fn stability_margins(problem: &Problem, mapping: &Mapping) -> Result<MarginReport, SolveError> {
    let rec = pipemap_obs::global();
    let _wall = rec.timer("solver.margins.wall_s");
    let _span = pipemap_obs::span!("stability_margins", "solver");

    let clustering: Vec<(usize, usize)> =
        mapping.modules.iter().map(|m| (m.first, m.last)).collect();
    let contracted = contract_chain(problem, &clustering);
    let cp = &contracted.problem;
    let k = cp.num_tasks();
    let p = cp.total_procs;
    if p > MARGIN_MAX_PROCS {
        return Err(SolveError::TooLarge {
            limit: "stability margins support P <= 192",
        });
    }
    let ctx = SolveCtx::new(cp)?;
    let table = ctx.table();
    let info: Vec<ModInfo> = (0..k)
        .map(|i| ModInfo::build(table, i, p))
        .collect::<Result<_, _>>()?;

    // Reproduce each module's raw offer from its (replicas, procs) pair.
    let mut offers = Vec::with_capacity(k);
    for (i, m) in mapping.modules.iter().enumerate() {
        let q = (info[i].floor..=p)
            .find(|&q| info[i].inst_of[q] == m.procs && info[i].r_of[q] == m.replicas)
            .ok_or(SolveError::Infeasible)?;
        offers.push(q);
    }

    // Refuse instances whose joins would be excessively dense.
    let axis: Vec<u64> = info.iter().map(|m| m.insts.len() as u64).collect();
    let pp = p as u64;
    let mut work: u64 = 0;
    for j in 1..k {
        work = work.saturating_add(axis[j - 1] * pp * pp * axis.get(j + 1).copied().unwrap_or(1));
    }
    for i in 0..k {
        let ia = if i > 0 { axis[i - 1] } else { 1 };
        let ib = axis.get(i + 1).copied().unwrap_or(1);
        // Exec join: pl × (amax build + class pairs × log P).
        work = work.saturating_add(pp * (pp * pp + ia * ib * 8));
        if i > 0 {
            // Edge join: pa × pb × class pairs × log P, plus amax builds.
            let i2 = if i >= 2 { axis[i - 2] } else { 1 };
            work = work.saturating_add(pp * pp * i2 * ib * 8 + pp * pp * pp);
        }
    }
    if work > MARGIN_WORK_LIMIT {
        return Err(SolveError::TooLarge {
            limit: "stability margin work budget",
        });
    }

    // Chosen mapping's per-module throughputs on the contracted chain.
    let cmapping = Mapping::new(
        mapping
            .modules
            .iter()
            .enumerate()
            .map(|(i, m)| ModuleAssignment::new(i, i, m.replicas, m.procs))
            .collect(),
    );
    let breakdowns: Vec<_> = (0..k)
        .map(|i| module_response(&cp.chain, &cmapping, i))
        .collect();
    let thr_mod: Vec<f64> = breakdowns
        .iter()
        .map(|b| module_throughput(b.effective()))
        .collect();
    let (bottleneck, overall) = pipemap_chain::bottleneck(breakdowns.iter().map(|b| b.effective()));

    // Forward value tables (γ-free pieces left of each stage) and the
    // suffix tables (right of each stage).
    let fwd_opts = SolveOptions {
        prune: false,
        provenance: false,
        ..SolveOptions::default()
    };
    let trace = dp::trace(cp, &ctx, &fwd_opts)?;
    let suffix = build_suffix(table, &info, k, p);

    let neg = f64::NEG_INFINITY;
    let mut stages_out = Vec::with_capacity(k);
    for i in 0..k {
        let m = &mapping.modules[i];
        let inst_star = m.procs;
        let r_star = m.replicas as f64;
        let e_star = table.exec(i, inst_star);
        let cin_star = if i > 0 {
            table.ecom(i - 1, mapping.modules[i - 1].procs, inst_star)
        } else {
            0.0
        };
        let cout_star = if i + 1 < k {
            table.ecom(i, inst_star, mapping.modules[i + 1].procs)
        } else {
            0.0
        };
        let rest_min = (0..k)
            .filter(|&j| j != i)
            .map(|j| thr_mod[j])
            .fold(f64::INFINITY, f64::min);
        let mut chosen = Vec::new();
        if rest_min.is_finite() {
            chosen.push(Curve::constant(rest_min));
        }
        chosen.push(Curve {
            r: r_star,
            c: cin_star + cout_star,
            d: e_star,
        });

        let mut exec_up = f64::INFINITY;
        let mut exec_down = 0.0f64;
        let mut flip_offer = None;

        for pl in info[i].floor..=p {
            let inst = info[i].inst_of[pl];
            let r = info[i].r_of[pl] as f64;
            let e = table.exec(i, inst);
            let total = p - pl;

            // Prefix rows: best V_{i-1}(b, ·, pl) per predecessor
            // instance class; monotone in b.
            let amax: Vec<Vec<f64>> = if i > 0 {
                let prev = &info[i - 1];
                let vstage = &trace.stages[i - 1];
                let mut rows = vec![vec![neg; p + 1]; prev.insts.len()];
                for q in prev.floor..=p {
                    let pi = prev.idx_of[prev.inst_of[q]];
                    let row = &mut rows[pi];
                    for (b, cell) in row.iter_mut().enumerate().take(total + 1) {
                        let v = vstage.get(b, q, pl);
                        if v > *cell {
                            *cell = v;
                        }
                    }
                }
                rows
            } else {
                Vec::new()
            };

            // Suffix rows: S_{i+1}(c, ·, inst) per successor instance
            // class; monotone in c.
            let brows: Vec<Vec<f64>> = if i + 1 < k {
                let stab = suffix[i + 1].as_ref().expect("suffix built for 1..k");
                let oi = info[i].idx_of[inst];
                (0..info[i + 1].insts.len())
                    .map(|ni| {
                        (0..=total)
                            .map(|c| stab.value[(c * stab.n_own + ni) * stab.n_prev + oi])
                            .collect()
                    })
                    .collect()
            } else {
                Vec::new()
            };

            let prev_classes: Vec<Option<usize>> = if i > 0 {
                (0..info[i - 1].insts.len()).map(Some).collect()
            } else {
                vec![None]
            };
            let next_classes: Vec<Option<usize>> = if i + 1 < k {
                (0..info[i + 1].insts.len()).map(Some).collect()
            } else {
                vec![None]
            };
            for &pc in &prev_classes {
                for &nc in &next_classes {
                    let w = match (pc, nc) {
                        (Some(pi), Some(ni)) => join_split(&amax[pi], &brows[ni], total),
                        (Some(pi), None) => amax[pi][total],
                        (None, Some(ni)) => brows[ni][total],
                        (None, None) => f64::INFINITY,
                    };
                    if w == neg {
                        continue;
                    }
                    let cin = pc.map_or(0.0, |pi| table.ecom(i - 1, info[i - 1].insts[pi], inst));
                    let cout = nc.map_or(0.0, |ni| table.ecom(i, inst, info[i + 1].insts[ni]));
                    let mut alt = Vec::new();
                    if w.is_finite() {
                        alt.push(Curve::constant(w));
                    }
                    alt.push(Curve {
                        r,
                        c: cin + cout,
                        d: e,
                    });
                    let up = first_flip_up(&alt, &chosen);
                    if up < exec_up {
                        exec_up = up;
                        flip_offer = Some(pl);
                    }
                    let down = first_flip_down(&alt, &chosen);
                    if down > exec_down {
                        exec_down = down;
                    }
                }
            }
        }

        // Incoming-edge communication margins: the scaled cost appears in
        // both adjacent modules' responses, so each candidate contributes
        // two hyperbolas sharing the scaled term.
        let (ecom_in_up, ecom_in_down) = if i == 0 {
            (f64::INFINITY, 0.0)
        } else {
            let a = i - 1;
            let ia_star = mapping.modules[a].procs;
            let ra_star = mapping.modules[a].replicas as f64;
            let ce_star = table.ecom(a, ia_star, inst_star);
            let ca0 = table.exec(a, ia_star)
                + if a > 0 {
                    table.ecom(a - 1, mapping.modules[a - 1].procs, ia_star)
                } else {
                    0.0
                };
            let cb0 = e_star + cout_star;
            let rest2 = (0..k)
                .filter(|&j| j != a && j != i)
                .map(|j| thr_mod[j])
                .fold(f64::INFINITY, f64::min);
            let mut chosen_e = Vec::new();
            if rest2.is_finite() {
                chosen_e.push(Curve::constant(rest2));
            }
            chosen_e.push(Curve {
                r: ra_star,
                c: ca0,
                d: ce_star,
            });
            chosen_e.push(Curve {
                r: r_star,
                c: cb0,
                d: ce_star,
            });

            let mut up = f64::INFINITY;
            let mut down = 0.0f64;
            for pa in info[a].floor..=p {
                let ia = info[a].inst_of[pa];
                let ra = info[a].r_of[pa] as f64;
                let ea = table.exec(a, ia);
                // Prefix rows left of module a, per its predecessor class.
                let amax2: Vec<Vec<f64>> = if a > 0 {
                    let pprev = &info[a - 1];
                    let vstage = &trace.stages[a - 1];
                    let mut rows = vec![vec![neg; p + 1]; pprev.insts.len()];
                    for q in pprev.floor..=p {
                        let pi = pprev.idx_of[pprev.inst_of[q]];
                        let row = &mut rows[pi];
                        for (bud, cell) in row.iter_mut().enumerate() {
                            let v = vstage.get(bud, q, pa);
                            if v > *cell {
                                *cell = v;
                            }
                        }
                    }
                    rows
                } else {
                    Vec::new()
                };
                for pb in info[i].floor..=p {
                    if pa + pb > p {
                        break;
                    }
                    let ib = info[i].inst_of[pb];
                    let rb = info[i].r_of[pb] as f64;
                    let eb = table.exec(i, ib);
                    let ce = table.ecom(a, ia, ib);
                    let total = p - pa - pb;
                    let brows: Vec<Vec<f64>> = if i + 1 < k {
                        let stab = suffix[i + 1].as_ref().expect("suffix built for 1..k");
                        let oi = info[i].idx_of[ib];
                        (0..info[i + 1].insts.len())
                            .map(|ni| {
                                (0..=total)
                                    .map(|c| stab.value[(c * stab.n_own + ni) * stab.n_prev + oi])
                                    .collect()
                            })
                            .collect()
                    } else {
                        Vec::new()
                    };
                    let prev_classes: Vec<Option<usize>> = if a > 0 {
                        (0..info[a - 1].insts.len()).map(Some).collect()
                    } else {
                        vec![None]
                    };
                    let next_classes: Vec<Option<usize>> = if i + 1 < k {
                        (0..info[i + 1].insts.len()).map(Some).collect()
                    } else {
                        vec![None]
                    };
                    for &pc in &prev_classes {
                        let ca =
                            ea + pc.map_or(0.0, |pi| table.ecom(a - 1, info[a - 1].insts[pi], ia));
                        for &nc in &next_classes {
                            let w = match (pc, nc) {
                                (Some(pi), Some(ni)) => join_split(&amax2[pi], &brows[ni], total),
                                (Some(pi), None) => amax2[pi][total],
                                (None, Some(ni)) => brows[ni][total],
                                (None, None) => f64::INFINITY,
                            };
                            if w == neg {
                                continue;
                            }
                            let cb =
                                eb + nc.map_or(0.0, |ni| table.ecom(i, ib, info[i + 1].insts[ni]));
                            let mut alt = Vec::new();
                            if w.is_finite() {
                                alt.push(Curve::constant(w));
                            }
                            alt.push(Curve {
                                r: ra,
                                c: ca,
                                d: ce,
                            });
                            alt.push(Curve {
                                r: rb,
                                c: cb,
                                d: ce,
                            });
                            let u = first_flip_up(&alt, &chosen_e);
                            if u < up {
                                up = u;
                            }
                            let d = first_flip_down(&alt, &chosen_e);
                            if d > down {
                                down = d;
                            }
                        }
                    }
                }
            }
            (up, down)
        };

        let slack = if overall > 0.0 && thr_mod[i].is_finite() {
            thr_mod[i] / overall
        } else {
            f64::INFINITY
        };
        stages_out.push(StageMargin {
            index: i,
            first: m.first,
            last: m.last,
            offer: offers[i],
            instances: m.replicas,
            instance_procs: m.procs,
            response_s: breakdowns[i].total(),
            effective_s: breakdowns[i].effective(),
            slack,
            exec_up,
            exec_down,
            ecom_in_up,
            ecom_in_down,
            flip_offer,
        });
    }

    let min_up = stages_out
        .iter()
        .map(|s| s.exec_up)
        .fold(f64::INFINITY, f64::min);
    if min_up.is_finite() {
        rec.gauge_set(pipemap_obs::names::SOLVER_MARGIN_MIN_UP, min_up);
    }

    Ok(MarginReport {
        throughput: overall,
        bottleneck,
        stages: stages_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemap_chain::{ChainBuilder, Edge, Task};
    use pipemap_model::{PolyEcom, PolyUnary};

    #[test]
    fn curve_crossing_is_exact() {
        // 2/(1+γ) crosses the constant 1 at γ = 1; an alternative pinned
        // at 0.9 beats the chosen once the chosen falls below it:
        // 2/(1+γ) = 0.9 → γ = 11/9.
        let chosen = vec![Curve {
            r: 2.0,
            c: 1.0,
            d: 1.0,
        }];
        let alt = vec![Curve::constant(0.9)];
        let up = first_flip_up(&alt, &chosen);
        assert!((up - 11.0 / 9.0).abs() < 1e-12, "up = {up}");
    }

    #[test]
    fn flip_down_finds_rest_bound() {
        // Chosen: min(1.0, 2/(1+γ)); alternative: min(1.5, 2/(1+γ)) —
        // identical own curve, better completion. Going down, the own
        // curve rises above 1.0 at γ = 1, where the alternative's better
        // completion starts to win.
        let chosen = vec![
            Curve::constant(1.0),
            Curve {
                r: 2.0,
                c: 1.0,
                d: 1.0,
            },
        ];
        let alt = vec![
            Curve::constant(1.5),
            Curve {
                r: 2.0,
                c: 1.0,
                d: 1.0,
            },
        ];
        assert_eq!(first_flip_up(&alt, &chosen), f64::INFINITY);
        let down = first_flip_down(&alt, &chosen);
        assert!((down - 1.0).abs() < 1e-12, "down = {down}");
    }

    #[test]
    fn join_split_matches_linear_scan() {
        let a = vec![f64::NEG_INFINITY, 0.1, 0.4, 0.4, 0.9, 1.3];
        let b = vec![0.0, 0.2, 0.5, 0.8, 0.8, 2.0];
        for total in 0..=5 {
            let brute = (0..=total)
                .map(|s| a[s].min(b[total - s]))
                .fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(join_split(&a, &b, total), brute, "total = {total}");
        }
    }

    #[test]
    fn symmetric_split_margin_is_balanced() {
        // Two identical perfectly-parallel tasks on 8 procs, no comm: the
        // DP picks 4/4. Scaling task 0's exec by γ, the 5/3 split takes
        // over when min(5/(8γ), 3/8) > min(4/(8γ), 4/8), i.e. when the
        // rest bound 3/8 exceeds the chosen 4/(8γ):  γ > 4/3.
        let c = ChainBuilder::new()
            .task(Task::new("a", PolyUnary::perfectly_parallel(8.0)))
            .edge(Edge::free())
            .task(Task::new("b", PolyUnary::perfectly_parallel(8.0)))
            .build();
        let p = Problem::new(c, 8, 1e9).without_replication();
        let (sol, _) = crate::dp::dp_assignment(&p).unwrap();
        let rep = stability_margins(&p, &sol.mapping).unwrap();
        assert_eq!(rep.stages.len(), 2);
        let up = rep.stages[0].exec_up;
        assert!((up - 4.0 / 3.0).abs() < 1e-9, "exec_up = {up}");
        // Symmetric stage: same margin on the other side.
        let up1 = rep.stages[1].exec_up;
        assert!((up1 - 4.0 / 3.0).abs() < 1e-9, "exec_up = {up1}");
        // No incoming-edge cost at all: the edge margin never flips.
        assert_eq!(rep.stages[1].ecom_in_up, f64::INFINITY);
    }

    #[test]
    fn single_task_has_no_flip() {
        let c = ChainBuilder::new()
            .task(Task::new("only", PolyUnary::perfectly_parallel(4.0)))
            .build();
        let p = Problem::new(c, 4, 1e9).without_replication();
        let (sol, _) = crate::dp::dp_assignment(&p).unwrap();
        let rep = stability_margins(&p, &sol.mapping).unwrap();
        assert_eq!(rep.stages[0].exec_up, f64::INFINITY);
        assert_eq!(rep.stages[0].exec_down, 0.0);
        assert_eq!(rep.throughput, 1.0);
    }

    #[test]
    fn ecom_margin_flips_to_clustered_allocation() {
        // Two tasks, transfer cost grows with γ: at some point giving the
        // receiver fewer processors (cheaper transfer) must win. Use a
        // sender-procs-proportional ecom so allocations differ in cost.
        let c = ChainBuilder::new()
            .task(Task::new("a", PolyUnary::perfectly_parallel(8.0)))
            .edge(Edge::new(
                PolyUnary::zero(),
                PolyEcom::new(0.1, 0.0, 0.0, 0.08, 0.0),
            ))
            .task(Task::new("b", PolyUnary::perfectly_parallel(8.0)))
            .build();
        let p = Problem::new(c, 8, 1e9).without_replication();
        let (sol, _) = crate::dp::dp_assignment(&p).unwrap();
        let rep = stability_margins(&p, &sol.mapping).unwrap();
        let up = rep.stages[1].ecom_in_up;
        assert!(up.is_finite() && up > 1.0, "ecom_in_up = {up}");
    }
}
