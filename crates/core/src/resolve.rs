//! Incremental warm-start re-solving (delta-aware DP).
//!
//! A cold solve prices every `(stage, budget, offer, next-size)` cell from
//! scratch. In a serving loop the problem rarely changes shape — the
//! doctor reports that a handful of *costs* drifted by fitted
//! multiplicative factors. This module re-solves such re-priced
//! problems **bit-identically** to a cold solve at a fraction of the
//! cost, with three stacked mechanisms:
//!
//! 1. **Margin short-circuit.** `stability_margins` gives, per mapped
//!    stage, the exact multiplicative interval a single cost may drift
//!    within before a different solution becomes strictly better. A
//!    single-cost delta strictly inside its interval proves the old
//!    mapping still optimal: return it with **zero** DP work. This is
//!    only sound for *assignment* artifacts — the margins hold the
//!    clustering fixed, and for the assignment DP (all-singleton
//!    clustering) the fixed-clustering alternative space *is* the DP's
//!    full search space. Cluster artifacts always take mechanism 2.
//!
//!    Margins are *value*-level certificates, so on this path the
//!    throughput is bit-identical to a cold solve but the *mapping* may
//!    legitimately differ when the re-priced problem has several optima
//!    tied at the same value: the margin interval proves no alternative
//!    becomes strictly better, while the cold DP's deterministic
//!    first-argmax may hand a value-tied alternative the win (common
//!    under replication, where non-bottleneck stages sit on saturated
//!    plateaus). Either mapping is a true optimum; the two runs only
//!    disagree about which tied representative to report. Deltas that
//!    take the suffix path reproduce the cold argmax exactly, mapping
//!    included.
//! 2. **Suffix invalidation.** The DP sweeps stages left to right and a
//!    stage's cells read only costs of tasks `0..=j` (plus the outgoing
//!    edge `j`). A delta therefore invalidates only stages at or right of
//!    its *frontier*: `exec` of task `d` → frontier `d`; `ecom` of edge
//!    `e` → frontier `e` (the stage ending at `e` charges it as its
//!    out-transfer); `icom` of edge `e` → frontier `e + 1` (internal only
//!    to modules ending at or after `e + 1`; fully inert under the
//!    one-task policy, whose modules never contain an edge). The retained
//!    dense cost table is patched in place ([`CostTable::rescale`],
//!    bitwise equal to rebuilding from the scaled cost functions) and only
//!    the invalidated suffix is recomputed, splicing the retained prefix
//!    tables verbatim. Both artifact kinds retain the same sweep's tables;
//!    they differ only in the clustering policy they were solved under.
//! 3. **Warm incumbent.** The previous optimum stays feasible (floors and
//!    memory are cost-independent), so its throughput on the re-priced
//!    problem — `pipemap_chain::throughput`, which is exactly the DP's
//!    value for that path — is an admissible pruning incumbent, almost
//!    always far tighter than the greedy bound a cold solve starts from.
//!
//! ## Why splicing an unpruned prefix into a pruned suffix is exact
//!
//! Retained artifact tables come from an unpruned, stage-keeping solve,
//! so every prefix cell holds its true value where a pruned cold run may
//! hold `-inf`. In the resumed pruned suffix the running best starts at
//! the incumbent bound and updates strictly, so a true value `<= bound`
//! behaves exactly like the pruned run's `-inf` (the `sub <= best` skip
//! drops it); row maxima over true values only fire the row skip *less*
//! often, after which the inner scan rejects each candidate anyway. Cells
//! on the re-priced optimum's path get identical values in both runs —
//! the winning candidate's value is ≥ the optimum ≥ the bound, and
//! candidates a pruned run drops are `< bound`, so they can never be the
//! first argmax on-path. The path walk re-derives each predecessor as
//! that first argmax by re-scanning the spliced tables the resumed sweep
//! read, so identical terminal scans reconstruct identical mappings.

use pipemap_chain::{ChainBuilder, Edge, Problem, Task};
use pipemap_model::{BinaryCost, UnaryCost};
use pipemap_obs::names;

use crate::dp_cluster::{self, ClusterResume, Clustering, SolveCtx, Stage};
use crate::options::SolveOptions;
use crate::provenance::{self, MarginReport};
use crate::solution::{Solution, SolveError};

/// Per-cost multiplicative drift factors for one re-pricing: `exec[i]`
/// scales task `i`'s execution cost, `icom[e]` / `ecom[e]` scale edge
/// `e`'s internal / external communication costs. Factor `1.0` means
/// "unchanged"; all factors must be finite and positive.
#[derive(Clone, Debug, PartialEq)]
pub struct CostDeltas {
    exec: Vec<f64>,
    icom: Vec<f64>,
    ecom: Vec<f64>,
}

impl CostDeltas {
    /// The identity re-pricing for a `k`-task chain (all factors 1).
    pub fn identity(k: usize) -> Self {
        let edges = k.saturating_sub(1);
        Self {
            exec: vec![1.0; k],
            icom: vec![1.0; edges],
            ecom: vec![1.0; edges],
        }
    }

    /// Deltas from explicit factor vectors; lengths must match a `k`-task
    /// chain (`k`, `k-1`, `k-1`).
    pub fn new(exec: Vec<f64>, icom: Vec<f64>, ecom: Vec<f64>) -> Self {
        assert_eq!(
            icom.len(),
            exec.len().saturating_sub(1),
            "icom factors must cover every edge"
        );
        assert_eq!(
            ecom.len(),
            exec.len().saturating_sub(1),
            "ecom factors must cover every edge"
        );
        for &g in exec.iter().chain(&icom).chain(&ecom) {
            assert!(
                g.is_finite() && g > 0.0,
                "drift factor {g} must be finite and positive"
            );
        }
        Self { exec, icom, ecom }
    }

    /// Scale task `d`'s execution cost by `factor`.
    pub fn set_exec(&mut self, d: usize, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "drift factor {factor}");
        self.exec[d] = factor;
    }

    /// Scale edge `e`'s internal-communication cost by `factor`.
    pub fn set_icom(&mut self, e: usize, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "drift factor {factor}");
        self.icom[e] = factor;
    }

    /// Scale edge `e`'s external-communication cost by `factor`.
    pub fn set_ecom(&mut self, e: usize, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "drift factor {factor}");
        self.ecom[e] = factor;
    }

    /// Per-task execution factors.
    pub fn exec(&self) -> &[f64] {
        &self.exec
    }

    /// Per-edge internal-communication factors.
    pub fn icom(&self) -> &[f64] {
        &self.icom
    }

    /// Per-edge external-communication factors.
    pub fn ecom(&self) -> &[f64] {
        &self.ecom
    }

    /// True when every factor is exactly 1 (re-pricing is a no-op).
    pub fn is_identity(&self) -> bool {
        self.exec
            .iter()
            .chain(&self.icom)
            .chain(&self.ecom)
            .all(|&g| g == 1.0)
    }

    /// Invalidation frontier for the *cluster* DP: the first stage (end
    /// task) whose DP cells can read a changed cost. `k` when nothing is
    /// invalidated.
    pub fn frontier(&self, k: usize) -> usize {
        self.frontier_for(k, Clustering::Contiguous)
    }

    /// [`Self::frontier`] under a clustering policy. One-task modules
    /// never charge internal communication, so there icom deltas are
    /// inert.
    fn frontier_for(&self, k: usize, clustering: Clustering) -> usize {
        let mut f = k;
        for (d, &g) in self.exec.iter().enumerate() {
            if g != 1.0 {
                f = f.min(d);
            }
        }
        for (e, &g) in self.ecom.iter().enumerate() {
            if g != 1.0 {
                f = f.min(e);
            }
        }
        if clustering == Clustering::Contiguous {
            for (e, &g) in self.icom.iter().enumerate() {
                if g != 1.0 {
                    // Internal to modules containing edge e, which end at
                    // task e+1 or later.
                    f = f.min(e + 1);
                }
            }
        }
        f
    }

    fn check_tasks(&self, k: usize) {
        assert_eq!(self.exec.len(), k, "deltas sized for a different chain");
    }
}

/// Scale a unary cost by a constant factor (no-op clone for factor 1, so
/// identity deltas re-price to bitwise-equal cost functions).
fn scale_unary(c: &UnaryCost, factor: f64) -> UnaryCost {
    if factor == 1.0 {
        return c.clone();
    }
    let base = c.clone();
    UnaryCost::custom(move |p| base.eval(p) * factor)
}

/// Scale a binary cost by a constant factor.
fn scale_binary(c: &BinaryCost, factor: f64) -> BinaryCost {
    if factor == 1.0 {
        return c.clone();
    }
    let base = c.clone();
    BinaryCost::custom(move |s, r| base.eval(s, r) * factor)
}

/// Build the re-priced problem: every cost function scaled by its delta
/// factor, all structural metadata (memory, floors, replicability,
/// replication policy) preserved. The scaled functions evaluate as
/// `base(p) * factor`, bitwise identical to patching the corresponding
/// dense table rows in place — which is what lets the incremental solver
/// patch instead of rebuild.
pub fn reprice_problem(problem: &Problem, deltas: &CostDeltas) -> Problem {
    let chain = &problem.chain;
    deltas.check_tasks(chain.len());
    let mut b = ChainBuilder::new();
    for i in 0..chain.len() {
        let src = chain.task(i);
        let mut t = Task::new(src.name.clone(), scale_unary(&src.exec, deltas.exec[i]))
            .with_memory(src.memory);
        if !src.replicable {
            t = t.not_replicable();
        }
        if let Some(m) = src.min_procs {
            t = t.with_min_procs(m);
        }
        b = b.task(t);
        if i + 1 < chain.len() {
            let e = chain.edge(i);
            b = b.edge(Edge::new(
                scale_unary(&e.icom, deltas.icom[i]),
                scale_binary(&e.ecom, deltas.ecom[i]),
            ));
        }
    }
    let mut p = Problem::new(b.build(), problem.total_procs, problem.mem_per_proc);
    p.replication = problem.replication;
    p
}

/// Mechanism an incremental re-solve used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolveMechanism {
    /// The old mapping was proven still optimal without any DP work
    /// (identity deltas, assignment-inert deltas, or a single delta
    /// strictly inside its stability margin).
    ShortCircuit,
    /// The invalidated suffix was recomputed with a warm incumbent.
    Suffix,
}

/// Result of [`ResolveArtifact::resolve`].
#[derive(Clone, Debug)]
pub struct ResolveOutcome {
    /// The new optimum. Its throughput is bit-identical to a cold solve
    /// of the re-priced problem with the artifact's options; on the
    /// suffix path the mapping is bit-identical too, while a margin
    /// short-circuit may report a different *value-tied* optimum than
    /// the cold argmax when ties exist (see the module docs).
    pub solution: Solution,
    /// Which mechanism produced it.
    pub mechanism: ResolveMechanism,
    /// DP cells actually recomputed (0 for a short-circuit).
    pub cells: u64,
    /// First stage whose cells were invalidated (`k` when none were).
    pub frontier: usize,
    /// True when the new mapping differs from the artifact's.
    pub changed: bool,
}

/// Retained cold-solve artifact: the dense cost table, the DP value
/// tables, the optimal mapping, and (when tractable) its exact stability
/// margins. Build once after a cold solve, then [`resolve`] against
/// successive drift deltas.
///
/// The internal solve is forced unpruned and stage-keeping — pruned
/// tables have `-inf` holes and could not be spliced — while `par`,
/// `dedup` and `threads` are honoured as given. Re-solves run with the
/// *same* options verbatim: the stage-table layouts depend on `dedup`.
///
/// [`resolve`]: ResolveArtifact::resolve
pub struct ResolveArtifact {
    problem: Problem,
    opts: SolveOptions,
    ctx: SolveCtx,
    solution: Solution,
    margins: Option<MarginReport>,
    /// The policy the artifact was solved, and re-solves, under.
    clustering: Clustering,
    /// Every `(end, length)` stage table of the cold solve.
    stages: Vec<Option<Stage>>,
}

impl ResolveArtifact {
    /// Cold-solve `problem` with the cluster DP and retain everything a
    /// warm re-solve needs.
    pub fn build(problem: &Problem, opts: &SolveOptions) -> Result<Self, SolveError> {
        Self::build_with(problem, opts, Clustering::Contiguous)
    }

    /// Cold-solve `problem` with the assignment DP (singleton clustering)
    /// and retain everything a warm re-solve needs. Only this artifact
    /// kind can fire the margin short-circuit (see module docs).
    pub fn build_assignment(problem: &Problem, opts: &SolveOptions) -> Result<Self, SolveError> {
        Self::build_with(problem, opts, Clustering::Singletons)
    }

    fn build_with(
        problem: &Problem,
        opts: &SolveOptions,
        clustering: Clustering,
    ) -> Result<Self, SolveError> {
        let ctx = SolveCtx::new(problem)?;
        let unpruned = SolveOptions {
            prune: false,
            provenance: false,
            ..*opts
        };
        let run = dp_cluster::run_cluster_dp(problem, &ctx, &unpruned, clustering, true, None)?;
        let margins = provenance::stability_margins(problem, &run.solution.mapping).ok();
        Ok(Self {
            problem: problem.clone(),
            opts: *opts,
            ctx,
            solution: run.solution,
            margins,
            clustering,
            stages: run.stages.expect("stages kept by the artifact solve"),
        })
    }

    /// The artifact's (cold) optimum.
    pub fn solution(&self) -> &Solution {
        &self.solution
    }

    /// The problem the artifact was solved for.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// The solve options re-solves will run with.
    pub fn options(&self) -> &SolveOptions {
        &self.opts
    }

    /// Exact stability margins of the retained mapping, when the margin
    /// engine could afford them (it has its own work limits).
    pub fn margins(&self) -> Option<&MarginReport> {
        self.margins.as_ref()
    }

    /// True for cluster-DP artifacts, false for assignment-DP ones.
    pub fn is_cluster(&self) -> bool {
        self.clustering == Clustering::Contiguous
    }

    /// Re-solve the re-priced problem incrementally. The returned
    /// solution's throughput is bit-identical to a cold solve of
    /// [`reprice_problem`]`(problem, deltas)` with the artifact's
    /// options, and on the suffix path the mapping is bit-identical
    /// too. A margin short-circuit returns the (provably still optimal)
    /// old mapping, which can differ from the cold argmax only when the
    /// re-priced problem has several value-tied optima — see the module
    /// docs.
    pub fn resolve(&self, deltas: &CostDeltas) -> Result<ResolveOutcome, SolveError> {
        let rec = pipemap_obs::global();
        let _wall = rec.timer(names::SOLVER_RESOLVE_WALL_S);
        let _span = pipemap_obs::span!("resolve", "solver");
        let k = self.problem.num_tasks();
        let p = self.problem.total_procs;
        deltas.check_tasks(k);

        let frontier = deltas.frontier_for(k, self.clustering);
        let repriced = reprice_problem(&self.problem, deltas);

        // Mechanism 1: nothing this solver reads changed, or the single
        // changed cost sits strictly inside its stability margin. Either
        // way the old mapping is provably the cold answer; only its
        // throughput needs re-evaluating on the re-priced costs.
        if frontier >= k || self.margin_short_circuit(deltas) {
            let solution = Solution::from_mapping(&repriced, self.solution.mapping.clone());
            return Ok(self.finish(solution, ResolveMechanism::ShortCircuit, 0, frontier));
        }

        // Mechanisms 2 + 3: patch the retained dense table in place
        // (bitwise equal to a cold build of the re-priced problem),
        // recompute only stages >= frontier, and seed pruning with the
        // old optimum's re-priced throughput.
        let mut table = self.ctx.table().clone();
        table.rescale(&deltas.exec, &deltas.icom, &deltas.ecom);
        let ctx = SolveCtx::from_table(table, k, p);
        let resume = ClusterResume {
            frontier,
            stages: &self.stages,
            incumbent: pipemap_chain::throughput(&repriced.chain, &self.solution.mapping),
        };
        let run = dp_cluster::run_cluster_dp_with_fallback(
            &repriced,
            &ctx,
            &self.opts,
            self.clustering,
            false,
            Some(&resume),
        )?;
        Ok(self.finish(run.solution, ResolveMechanism::Suffix, run.cells, frontier))
    }

    /// Mechanism-1 test: assignment artifact, margins available, exactly
    /// one effective non-unit delta, strictly inside its margin interval
    /// with a relative guard shaved off both ends. The guard covers the
    /// margin engine's ~1e-9 crossing resolution and keeps boundary-exact
    /// deltas (where an alternative ties and argmax order could flip) on
    /// the exact suffix path. Note the interval is a *value* certificate:
    /// firing guarantees the old mapping is still an optimum and its
    /// throughput matches a cold solve bitwise, but value-tied alternate
    /// optima may still win the cold argmax (module docs).
    fn margin_short_circuit(&self, deltas: &CostDeltas) -> bool {
        if self.clustering != Clustering::Singletons {
            // Margins hold the clustering fixed; a different clustering
            // can overtake strictly inside the interval.
            return false;
        }
        let Some(margins) = &self.margins else {
            return false;
        };
        let k = self.problem.num_tasks();
        if margins.stages.len() != k {
            return false;
        }
        // Exactly one non-unit delta among the costs one-task modules read
        // (icom is inert for them — any number of icom deltas rides along
        // for free).
        let changed = |factors: &[f64]| -> Vec<(usize, f64)> {
            factors
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, g)| g != 1.0)
                .collect()
        };
        match (&changed(&deltas.exec)[..], &changed(&deltas.ecom)[..]) {
            (&[(d, g)], []) => {
                let s = &margins.stages[d];
                strictly_inside(g, s.exec_down, s.exec_up)
            }
            ([], &[(e, g)]) => {
                // Edge e is stage e+1's incoming transfer.
                let s = &margins.stages[e + 1];
                strictly_inside(g, s.ecom_in_down, s.ecom_in_up)
            }
            _ => false,
        }
    }

    fn finish(
        &self,
        solution: Solution,
        mechanism: ResolveMechanism,
        cells: u64,
        frontier: usize,
    ) -> ResolveOutcome {
        let rec = pipemap_obs::global();
        let changed = solution.mapping != self.solution.mapping;
        rec.add(names::SOLVER_RESOLVE_CELLS, cells);
        rec.gauge_set(
            names::SOLVER_RESOLVE_MECHANISM,
            match mechanism {
                ResolveMechanism::ShortCircuit => 0.0,
                ResolveMechanism::Suffix => 1.0,
            },
        );
        rec.gauge_set(names::SOLVER_RESOLVE_FRONTIER, frontier as f64);
        rec.gauge_set(
            names::SOLVER_RESOLVE_CHANGED,
            if changed { 1.0 } else { 0.0 },
        );
        ResolveOutcome {
            solution,
            mechanism,
            cells,
            frontier,
            changed,
        }
    }
}

/// Relative guard shaved off both ends of a stability interval before the
/// short-circuit may fire. The margin engine resolves crossings to about
/// 1e-9 relative; 1e-6 is comfortably beyond that and still admits
/// essentially the whole interval.
const MARGIN_GUARD: f64 = 1e-6;

/// `down * (1 + guard) < g < up * (1 - guard)`, with the conventions of
/// [`crate::StageMargin`]: `down == 0` means "never crosses downward",
/// `up == +inf` means "never crosses upward".
fn strictly_inside(g: f64, down: f64, up: f64) -> bool {
    if !(g.is_finite() && g > 0.0) {
        return false;
    }
    let above = if down <= 0.0 {
        true
    } else {
        g > down * (1.0 + MARGIN_GUARD)
    };
    let below = if up.is_finite() {
        g < up * (1.0 - MARGIN_GUARD)
    } else {
        true
    };
    above && below
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dp_assignment_with, dp_mapping_with};
    use pipemap_model::{PolyEcom, PolyUnary};

    fn problem() -> Problem {
        let chain = ChainBuilder::new()
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
        Problem::new(chain, 20, 1e9)
    }

    #[test]
    fn identity_deltas_short_circuit() {
        let p = problem();
        let art = ResolveArtifact::build(&p, &SolveOptions::default()).unwrap();
        let out = art.resolve(&CostDeltas::identity(3)).unwrap();
        assert_eq!(out.mechanism, ResolveMechanism::ShortCircuit);
        assert_eq!(out.cells, 0);
        assert!(!out.changed);
        assert_eq!(
            out.solution.throughput.to_bits(),
            art.solution().throughput.to_bits()
        );
    }

    #[test]
    fn cluster_suffix_matches_cold_solve_bitwise() {
        let p = problem();
        let opts = SolveOptions::default();
        let art = ResolveArtifact::build(&p, &opts).unwrap();
        for (stage, factor) in [(0usize, 1.8), (1, 0.55), (2, 3.0)] {
            let mut d = CostDeltas::identity(3);
            d.set_exec(stage, factor);
            let out = art.resolve(&d).unwrap();
            let cold = dp_mapping_with(&reprice_problem(&p, &d), &opts).unwrap();
            assert_eq!(
                out.solution.throughput.to_bits(),
                cold.throughput.to_bits(),
                "exec drift {factor} at task {stage}"
            );
            assert_eq!(out.solution.mapping, cold.mapping);
            assert_eq!(out.mechanism, ResolveMechanism::Suffix);
        }
    }

    #[test]
    fn assignment_suffix_matches_cold_solve_bitwise() {
        let p = problem().without_replication();
        let opts = SolveOptions::default();
        let art = ResolveArtifact::build_assignment(&p, &opts).unwrap();
        let mut d = CostDeltas::identity(3);
        d.set_exec(1, 2.5);
        d.set_ecom(1, 0.4);
        let out = art.resolve(&d).unwrap();
        let (cold, _) = dp_assignment_with(&reprice_problem(&p, &d), &opts).unwrap();
        assert_eq!(out.solution.throughput.to_bits(), cold.throughput.to_bits());
        assert_eq!(out.solution.mapping, cold.mapping);
        assert_eq!(out.frontier, 1);
    }

    #[test]
    fn icom_deltas_are_inert_for_assignment_artifacts() {
        let p = problem().without_replication();
        let opts = SolveOptions::default();
        let art = ResolveArtifact::build_assignment(&p, &opts).unwrap();
        let mut d = CostDeltas::identity(3);
        d.set_icom(0, 5.0);
        d.set_icom(1, 0.1);
        let out = art.resolve(&d).unwrap();
        assert_eq!(out.mechanism, ResolveMechanism::ShortCircuit);
        assert_eq!(out.cells, 0);
        let (cold, _) = dp_assignment_with(&reprice_problem(&p, &d), &opts).unwrap();
        assert_eq!(out.solution.throughput.to_bits(), cold.throughput.to_bits());
        assert_eq!(out.solution.mapping, cold.mapping);
    }

    #[test]
    fn margin_short_circuit_fires_and_is_exact() {
        let p = problem().without_replication();
        let opts = SolveOptions::default();
        let art = ResolveArtifact::build_assignment(&p, &opts).unwrap();
        let margins = art.margins().expect("margins tractable at this size");
        // A tiny drift on the bottleneck stage's exec cost, well inside
        // its margin interval.
        let stage = margins.bottleneck;
        let up = margins.stages[stage].exec_up;
        let g = if up.is_finite() {
            1.0 + (up - 1.0).min(0.02) / 2.0
        } else {
            1.01
        };
        let mut d = CostDeltas::identity(3);
        d.set_exec(stage, g);
        let out = art.resolve(&d).unwrap();
        assert_eq!(
            out.mechanism,
            ResolveMechanism::ShortCircuit,
            "g = {g}, margin up = {up}"
        );
        assert_eq!(out.cells, 0);
        let (cold, _) = dp_assignment_with(&reprice_problem(&p, &d), &opts).unwrap();
        assert_eq!(out.solution.throughput.to_bits(), cold.throughput.to_bits());
        assert_eq!(out.solution.mapping, cold.mapping);
    }

    #[test]
    fn reprice_identity_is_bitwise_noop() {
        let p = problem();
        let q = reprice_problem(&p, &CostDeltas::identity(3));
        for procs in 1..=20 {
            for i in 0..3 {
                assert_eq!(
                    p.chain.task(i).exec.eval(procs).to_bits(),
                    q.chain.task(i).exec.eval(procs).to_bits()
                );
            }
        }
    }
}
