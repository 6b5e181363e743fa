//! Machine-level feasibility of mappings and the feasible-optimal search.
//!
//! A mapping that is optimal under the cost model may still be impossible
//! to realise on the machine (§6.1): every module instance must occupy a
//! rectangular subarray, all instances must pack onto the array at once,
//! and in systolic mode the logical pathways connecting adjacent modules
//! must fit the per-link pathway limit. Table 1's "Optimal Feasible
//! Mapping" columns are the result of re-optimising under these
//! constraints; [`feasible_optimal`] reproduces that search by ranking the
//! `(processors, replicas)` choices per module by model throughput and
//! returning the best candidate that passes [`is_feasible`].

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use pipemap_chain::{Mapping, ModuleAssignment, Problem};

use crate::config::{CommMode, MachineConfig};
use crate::pack::{pack_rectangles, PackRequest, Placement};

/// Outcome of a machine-feasibility check.
#[derive(Clone, Debug)]
pub enum Feasibility {
    /// A concrete placement exists.
    Feasible(Vec<Placement>),
    /// Provably or practically infeasible, with the reason.
    Infeasible(&'static str),
}

impl Feasibility {
    /// True for [`Feasibility::Feasible`].
    pub fn is_feasible(&self) -> bool {
        matches!(self, Feasibility::Feasible(_))
    }
}

/// Number of distinct (sender-instance, receiver-instance) pairs that
/// carry traffic between adjacent modules replicated `r1` and `r2` times:
/// data set `n` flows from instance `n mod r1` to instance `n mod r2`, so
/// the pairs repeat with period `lcm(r1, r2)`.
pub fn pathway_pairs(r1: usize, r2: usize) -> usize {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    r1 / gcd(r1, r2) * r2
}

/// Check whether `mapping` can be realised on `machine`: rectangular
/// instances must pack, and (systolic mode) the logical pathways
/// connecting adjacent modules' instances — routed XY over the concrete
/// placement — must not overload any physical link.
///
/// The pathway check runs in two stages: a cheap pre-filter (the pathway
/// pairs of a boundary must fit through the array's larger bisection),
/// then an exact per-link load check on the packed placement via
/// [`crate::route::pathway_load`].
pub fn is_feasible(machine: &MachineConfig, mapping: &Mapping) -> Feasibility {
    // Rectangle packing of every instance.
    let mut areas = Vec::new();
    for m in &mapping.modules {
        for _ in 0..m.replicas {
            areas.push(m.procs);
        }
    }
    let total: usize = areas.iter().sum();
    if total > machine.total_procs() {
        return Feasibility::Infeasible("mapping uses more processors than the array has");
    }
    // Systolic pathway budget across a bisection (cheap pre-filter).
    if machine.mode == CommMode::Systolic {
        let capacity = machine
            .max_pathways_per_link
            .saturating_mul(machine.rows.max(machine.cols));
        for w in mapping.modules.windows(2) {
            if pathway_pairs(w[0].replicas, w[1].replicas) > capacity {
                return Feasibility::Infeasible("pathway pairs exceed link capacity");
            }
        }
    }
    let placements = match pack_rectangles(&PackRequest::new(machine.rows, machine.cols, areas)) {
        Some(p) => p,
        None => return Feasibility::Infeasible("module instances do not pack as rectangles"),
    };
    // Exact pathway routing over the placement.
    if machine.mode == CommMode::Systolic && mapping.modules.len() > 1 {
        let groups = group_placements(mapping, &placements);
        let load = crate::route::pathway_load(&groups);
        if load.max_per_link > machine.max_pathways_per_link {
            return Feasibility::Infeasible("a physical link exceeds its pathway limit");
        }
    }
    Feasibility::Feasible(placements)
}

/// Group a flat placement list (item-indexed over the mapping's instances
/// in module order) into per-module placement vectors.
fn group_placements(mapping: &Mapping, placements: &[Placement]) -> Vec<Vec<Placement>> {
    let mut by_item: Vec<Option<Placement>> = vec![None; placements.len()];
    for p in placements {
        by_item[p.item] = Some(*p);
    }
    let mut groups = Vec::with_capacity(mapping.modules.len());
    let mut next = 0;
    for m in &mapping.modules {
        let mut g = Vec::with_capacity(m.replicas);
        for _ in 0..m.replicas {
            g.push(by_item[next].expect("every instance was placed"));
            next += 1;
        }
        groups.push(g);
    }
    groups
}

/// Options for [`feasible_optimal`].
#[derive(Clone, Copy, Debug)]
pub struct FeasibleSearch {
    /// A window, not a give-up threshold: only this many leaves of the
    /// option tree, the first in lexicographic option order (module by
    /// module, processors per instance ascending, then replicas
    /// ascending), are candidates. A space with more leaves is searched
    /// over that prefix only, and the result is then the best feasible
    /// mapping *of the prefix*.
    pub max_candidates: usize,
    /// Check at most this many of the top-ranked candidates for
    /// feasibility (each check is a packing search).
    pub max_checks: usize,
}

impl Default for FeasibleSearch {
    fn default() -> Self {
        Self {
            max_candidates: 4_000_000,
            max_checks: 20_000,
        }
    }
}

/// Find the best machine-feasible mapping with the given clustering:
/// among the per-module `(procs-per-instance, replicas)` choices (bounded
/// by floors, replicability, and the processor budget) inside the search
/// window, take the `max_checks` best by model throughput (ties to the
/// lexicographically earlier choice) and return the first of them
/// accepted by [`is_feasible`].
///
/// Returns `None` if no feasible candidate exists within the search
/// bounds. The clustering is taken as given (the paper fixes the
/// clustering from the unconstrained optimum before re-optimising the
/// quantitative decisions). A candidate with a NaN module response has no
/// defined throughput and is never returned.
pub fn feasible_optimal(
    problem: &Problem,
    machine: &MachineConfig,
    clustering: &[(usize, usize)],
    search: FeasibleSearch,
) -> Option<(Mapping, f64)> {
    let space = OptionSpace::build(problem, clustering)?;
    let mut top = TopCandidates {
        space: &space,
        window: search.max_candidates as u64,
        keep: search.max_checks,
        heap: BinaryHeap::new(),
    };
    if top.keep > 0 && top.window > 0 {
        top.descend(0, problem.total_procs, 0, 0.0, None);
    }
    // Best first, lazily: a handful of the kept candidates get checked.
    let mut kept = BinaryHeap::from_iter(top.heap.into_iter().map(Reverse));
    while let Some(Reverse(Ranked { thr, rank })) = kept.pop() {
        let mapping = space.unrank(clustering, rank);
        if is_feasible(machine, &mapping).is_feasible() {
            return Some((mapping, thr));
        }
    }
    None
}

/// `1 / worst`, with [`pipemap_chain::throughput`]'s convention for a free
/// pipeline. Non-increasing in `worst` (IEEE division rounds
/// monotonically), which is what lets a lower bound on the bottleneck
/// response bound the throughput from above.
fn throughput_of(worst: f64) -> f64 {
    if worst <= 0.0 {
        f64::INFINITY
    } else {
        1.0 / worst
    }
}

/// One `(procs-per-instance, replicas)` choice of a module, with what the
/// search reads for it.
#[derive(Clone, Copy)]
struct ModuleOption {
    procs: usize,
    replicas: usize,
    /// Processors consumed, `procs * replicas`.
    used: usize,
    /// `replicas` as the divisor of the effective response.
    r: f64,
    /// Member execution plus internal redistributions at `procs`, summed
    /// in [`pipemap_chain::module_response`]'s order.
    exec: f64,
    /// Cheapest transfer to the next module over its instance sizes (0
    /// for the last module).
    min_out: f64,
}

/// The option tree of one [`feasible_optimal`] call as dense tables: a
/// level per module, a child per option that fits the remaining budget,
/// a leaf per complete choice. A leaf's *rank* is its position in
/// lexicographic option order.
struct OptionSpace {
    /// Row stride of the tables below, `P + 1`.
    stride: usize,
    /// `options[i]` in lexicographic order (procs, then replicas).
    options: Vec<Vec<ModuleOption>>,
    /// `ecom[i][ps * stride + pr]`: transfer from an instance of module
    /// `i` to one of module `i + 1`; `+inf` where `ps + pr > P` or a side
    /// is below its floor (no candidate reads those).
    ecom: Vec<Vec<f64>>,
    /// `count[i * stride + b]`: leaves below a node at module `i` with
    /// `b` processors left (saturating; row `k` is all ones).
    count: Vec<u64>,
}

impl OptionSpace {
    fn build(problem: &Problem, clustering: &[(usize, usize)]) -> Option<Self> {
        let p_total = problem.total_procs;
        let stride = p_total + 1;
        let k = clustering.len();
        let chain = &problem.chain;

        let mut options: Vec<Vec<ModuleOption>> = Vec::with_capacity(k);
        for &(first, last) in clustering {
            let floor = problem.module_floor(first, last)?;
            if floor > p_total {
                return None;
            }
            let replicable = problem
                .module_replication(first, last, p_total)
                .map(|r| r.instances > 1)
                .unwrap_or(false)
                || chain.range_replicable(first, last);
            let mut opts = Vec::new();
            for procs in floor..=p_total {
                let mut exec = 0.0;
                for l in first..=last {
                    exec += chain.task(l).exec.eval(procs);
                    if l < last {
                        exec += chain.edge(l).icom.eval(procs);
                    }
                }
                let max_r = if replicable { p_total / procs } else { 1 };
                for replicas in 1..=max_r {
                    opts.push(ModuleOption {
                        procs,
                        replicas,
                        used: procs * replicas,
                        r: replicas as f64,
                        exec,
                        min_out: 0.0,
                    });
                }
            }
            options.push(opts);
        }

        let mut ecom = Vec::with_capacity(k.saturating_sub(1));
        for i in 1..k {
            let edge = &chain.edge(clustering[i].0 - 1).ecom;
            let (send_floor, recv_floor) = (options[i - 1][0].procs, options[i][0].procs);
            let mut slab = vec![f64::INFINITY; stride * stride];
            for ps in send_floor..=p_total.saturating_sub(recv_floor) {
                for pr in recv_floor..=p_total - ps {
                    slab[ps * stride + pr] = edge.eval(ps, pr);
                }
            }
            ecom.push(slab);
        }
        // `f64::min` skips NaN, and a candidate that reads a NaN transfer
        // is dropped, so the minimum bounds every candidate that is kept.
        for (opts, slab) in options.iter_mut().zip(&ecom) {
            for o in opts {
                o.min_out = slab[o.procs * stride..][..stride]
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min);
            }
        }

        let mut count = vec![0u64; (k + 1) * stride];
        count[k * stride..].fill(1);
        for i in (0..k).rev() {
            for budget in 0..stride {
                count[i * stride + budget] = options[i]
                    .iter()
                    .filter(|o| o.used <= budget)
                    .map(|o| count[(i + 1) * stride + budget - o.used])
                    .fold(0, u64::saturating_add);
            }
        }

        Some(Self {
            stride,
            options,
            ecom,
            count,
        })
    }

    /// The mapping at lexicographic leaf `rank`.
    fn unrank(&self, clustering: &[(usize, usize)], mut rank: u64) -> Mapping {
        let mut budget = self.stride - 1;
        let mut modules = Vec::with_capacity(clustering.len());
        for (i, &(first, last)) in clustering.iter().enumerate() {
            for o in self.options[i].iter().filter(|o| o.used <= budget) {
                let leaves = self.count[(i + 1) * self.stride + budget - o.used];
                if rank < leaves {
                    modules.push(ModuleAssignment::new(first, last, o.replicas, o.procs));
                    budget -= o.used;
                    break;
                }
                rank -= leaves;
            }
        }
        Mapping::new(modules)
    }
}

/// A kept candidate. Ordered worst first — lower throughput, then higher
/// rank — so a max-heap's top is the entry to evict, and ascending order
/// is exactly a stable descending sort by throughput of the leaves in
/// rank order.
#[derive(Clone, Copy)]
struct Ranked {
    thr: f64,
    rank: u64,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        // Throughputs here are never NaN and never negative, so the total
        // order agrees with `partial_cmp`.
        other
            .thr
            .total_cmp(&self.thr)
            .then(self.rank.cmp(&other.rank))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// The module whose outgoing transfer is not chosen yet.
#[derive(Clone, Copy)]
struct OpenModule {
    procs: usize,
    r: f64,
    /// `incoming + exec`, the part of its response already fixed.
    held: f64,
}

/// A child of the node being expanded that may still reach the heap.
#[derive(Clone, Copy)]
struct Child {
    /// Upper bound on the throughput of every leaf below.
    bound: f64,
    /// Rank of the first leaf below.
    first: u64,
    /// Processors left for the modules after this one.
    budget: usize,
    /// Bottleneck response over the modules finished so far.
    done: f64,
    open: OpenModule,
}

/// Depth-first search over an [`OptionSpace`] keeping the `keep` best
/// leaves of the window by `(throughput desc, rank asc)`.
struct TopCandidates<'a> {
    space: &'a OptionSpace,
    window: u64,
    keep: usize,
    heap: BinaryHeap<Ranked>,
}

impl TopCandidates<'_> {
    /// Whether `(thr, rank)` would enter the heap. For a subtree pass its
    /// throughput bound and its first rank: the answer is then `false`
    /// only if no leaf below can enter.
    fn admits(&self, thr: f64, rank: u64) -> bool {
        if self.heap.len() < self.keep {
            return true;
        }
        let worst = self.heap.peek().expect("keep > 0");
        thr > worst.thr || (thr == worst.thr && rank < worst.rank)
    }

    /// Close the last open module (nothing to send) and offer the leaf.
    fn leaf(&mut self, rank: u64, done: f64, open: Option<OpenModule>) {
        let worst = open.map_or(done, |m| done.max((m.held + 0.0) / m.r));
        let thr = throughput_of(worst);
        if self.heap.len() < self.keep {
            self.heap.push(Ranked { thr, rank });
        } else if self.admits(thr, rank) {
            *self.heap.peek_mut().expect("keep > 0") = Ranked { thr, rank };
        }
    }

    /// Expand the node at module `i` with `budget` processors left, whose
    /// first leaf has rank `first`; `done` is the bottleneck response of
    /// the finished modules, `open` the previous module. A response that
    /// comes out NaN drops every leaf below it: `f64::max` would skip it
    /// and price the candidate as if that module were free.
    fn descend(
        &mut self,
        i: usize,
        budget: usize,
        first: u64,
        done: f64,
        open: Option<OpenModule>,
    ) {
        let space = self.space;
        let k = space.options.len();
        if i == k {
            return self.leaf(first, done, open);
        }
        let below = &space.count[(i + 1) * space.stride..];

        // Lexicographic pass: every child gets its rank, pruned or not.
        let mut frontier = Vec::new();
        let mut rank = first;
        for o in space.options[i].iter().filter(|o| o.used <= budget) {
            let (first, budget) = (rank, budget - o.used);
            if first >= self.window {
                break;
            }
            rank = rank.saturating_add(below[budget]);
            if below[budget] == 0 {
                continue;
            }
            // Choosing this module's size fixes the open module's outgoing
            // transfer, and with it that module's response.
            let incoming =
                open.map_or(0.0, |m| space.ecom[i - 1][m.procs * space.stride + o.procs]);
            let closed = open.map_or(0.0, |m| (m.held + incoming) / m.r);
            let held = incoming + o.exec;
            if closed.is_nan() || held.is_nan() {
                continue;
            }
            let done = done.max(closed);
            let open = OpenModule {
                procs: o.procs,
                r: o.r,
                held,
            };
            if i + 1 == k {
                self.leaf(first, done, Some(open));
                continue;
            }
            let bound = throughput_of(done.max((held + o.min_out) / o.r));
            if self.admits(bound, first) {
                frontier.push(Child {
                    bound,
                    first,
                    budget,
                    done,
                    open,
                });
            }
        }

        // Most promising child first; ranks make the order free.
        frontier.sort_unstable_by(|a, b| b.bound.total_cmp(&a.bound).then(a.first.cmp(&b.first)));
        for c in &frontier {
            // The heap has moved on since the child was queued.
            if self.admits(c.bound, c.first) {
                self.descend(i + 1, c.budget, c.first, c.done, Some(c.open));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemap_chain::{throughput, ChainBuilder, Edge, Task};
    use pipemap_model::{MemoryReq, PolyEcom, PolyUnary};

    #[test]
    fn pathway_pairs_is_lcm() {
        assert_eq!(pathway_pairs(1, 1), 1);
        assert_eq!(pathway_pairs(2, 3), 6);
        assert_eq!(pathway_pairs(4, 6), 12);
        assert_eq!(pathway_pairs(8, 8), 8);
    }

    #[test]
    fn paper_mappings_are_feasible() {
        let msg = MachineConfig::iwarp_message();
        // Table 1 row 1: (3 procs × 8) + (4 procs × 10).
        let m = Mapping::new(vec![
            ModuleAssignment::new(0, 0, 8, 3),
            ModuleAssignment::new(1, 2, 10, 4),
        ]);
        assert!(is_feasible(&msg, &m).is_feasible());
        // Table 1 row 2 under systolic: (3×6) + (4×11).
        let sys = MachineConfig::iwarp_systolic();
        let m2 = Mapping::new(vec![
            ModuleAssignment::new(0, 0, 6, 3),
            ModuleAssignment::new(1, 2, 11, 4),
        ]);
        assert!(is_feasible(&sys, &m2).is_feasible());
    }

    #[test]
    fn prime_instance_size_infeasible() {
        let msg = MachineConfig::iwarp_message();
        // 13-processor instances cannot be rectangles on 8×8.
        let m = Mapping::new(vec![
            ModuleAssignment::new(0, 0, 2, 12),
            ModuleAssignment::new(1, 2, 3, 13),
        ]);
        assert!(!is_feasible(&msg, &m).is_feasible());
    }

    #[test]
    fn pathway_limit_rejects_extreme_replication() {
        let mut sys = MachineConfig::iwarp_systolic();
        sys.max_pathways_per_link = 1; // capacity 8
        let m = Mapping::new(vec![
            ModuleAssignment::new(0, 0, 8, 1),  // r = 8
            ModuleAssignment::new(1, 1, 56, 1), // r = 56 → lcm = 56 > 8
        ]);
        assert!(!is_feasible(&sys, &m).is_feasible());
    }

    #[test]
    fn overallocation_rejected() {
        let msg = MachineConfig::iwarp_message();
        let m = Mapping::new(vec![ModuleAssignment::new(0, 0, 1, 65)]);
        assert!(!is_feasible(&msg, &m).is_feasible());
    }

    fn toy_problem(procs: usize) -> Problem {
        let chain = ChainBuilder::new()
            .task(
                Task::new("a", PolyUnary::perfectly_parallel(10.0))
                    .with_memory(MemoryReq::new(0.0, 3.0)),
            )
            .edge(Edge::new(
                PolyUnary::zero(),
                PolyEcom::new(0.1, 0.5, 0.5, 0.0, 0.0),
            ))
            .task(
                Task::new("b", PolyUnary::perfectly_parallel(14.0))
                    .with_memory(MemoryReq::new(0.0, 4.0)),
            )
            .build();
        Problem::new(chain, procs, 1.0)
    }

    #[test]
    fn feasible_optimal_finds_a_packing() {
        let machine = MachineConfig::iwarp_message();
        let problem = toy_problem(machine.total_procs());
        let (mapping, thr) = feasible_optimal(
            &problem,
            &machine,
            &[(0, 0), (1, 1)],
            FeasibleSearch::default(),
        )
        .expect("some feasible mapping exists");
        assert!(thr > 0.0);
        assert!(is_feasible(&machine, &mapping).is_feasible());
        assert!(mapping.total_procs() <= 64);
    }

    #[test]
    fn feasible_optimal_never_beats_unconstrained() {
        let machine = MachineConfig::iwarp_message();
        let problem = toy_problem(machine.total_procs());
        let (_, feas_thr) = feasible_optimal(
            &problem,
            &machine,
            &[(0, 0), (1, 1)],
            FeasibleSearch::default(),
        )
        .unwrap();
        let unconstrained = pipemap_core_oracle(&problem);
        assert!(feas_thr <= unconstrained + 1e-9);
    }

    /// Every leaf of the option tree in lexicographic order, with no cap:
    /// the old search's enumerator.
    fn enumerate(problem: &Problem, clustering: &[(usize, usize)]) -> Vec<Mapping> {
        fn rec(
            problem: &Problem,
            clustering: &[(usize, usize)],
            budget: usize,
            cur: &mut Vec<ModuleAssignment>,
            out: &mut Vec<Mapping>,
        ) {
            let Some(&(first, last)) = clustering.get(cur.len()) else {
                out.push(Mapping::new(cur.clone()));
                return;
            };
            let p_total = problem.total_procs;
            let floor = problem.module_floor(first, last).unwrap();
            let replicable = problem.chain.range_replicable(first, last);
            for procs in floor..=p_total {
                let max_r = if replicable { p_total / procs } else { 1 };
                for r in (1..=max_r).filter(|r| procs * r <= budget) {
                    cur.push(ModuleAssignment::new(first, last, r, procs));
                    rec(problem, clustering, budget - procs * r, cur, out);
                    cur.pop();
                }
            }
        }
        let mut out = Vec::new();
        rec(
            problem,
            clustering,
            problem.total_procs,
            &mut Vec::new(),
            &mut out,
        );
        out
    }

    #[test]
    fn leaf_counts_and_unranking_match_enumeration() {
        let three = {
            let t = |n: &str, w: f64| Task::new(n, PolyUnary::perfectly_parallel(w));
            let chain = ChainBuilder::new()
                .task(t("a", 6.0).with_memory(MemoryReq::new(0.0, 2.0)))
                .edge(Edge::free())
                .task(t("b", 9.0).not_replicable())
                .edge(Edge::free())
                .task(t("c", 4.0))
                .edge(Edge::free())
                .task(t("d", 4.0).with_min_procs(3))
                .build();
            Problem::new(chain, 14, 1.0)
        };
        let cases: [(Problem, &[(usize, usize)]); 4] = [
            (toy_problem(12), &[(0, 0), (1, 1)]),
            (toy_problem(6), &[(0, 0), (1, 1)]), // floors 3 + 4 leave nothing
            (three.clone(), &[(0, 0), (1, 2), (3, 3)]),
            (three, &[(0, 1), (2, 3)]),
        ];
        for (problem, clustering) in cases {
            let leaves = enumerate(&problem, clustering);
            let space = OptionSpace::build(&problem, clustering).unwrap();
            assert_eq!(space.count[problem.total_procs], leaves.len() as u64);
            for (rank, leaf) in leaves.iter().enumerate() {
                assert_eq!(&space.unrank(clustering, rank as u64), leaf, "rank {rank}");
            }
        }
    }

    #[test]
    fn nan_cost_is_never_chosen() {
        // At 4 processors the first task's model is undefined. `f64::max`
        // skips NaN, so pricing that choice through `throughput` sees only
        // the second module and ranks it above every honest candidate.
        let chain = ChainBuilder::new()
            .task(Task::new(
                "a",
                pipemap_model::UnaryCost::custom(
                    |p| if p == 4 { f64::NAN } else { 10.0 / p as f64 },
                ),
            ))
            .edge(Edge::free())
            .task(Task::new("b", PolyUnary::perfectly_parallel(14.0)))
            .build();
        let problem = Problem::new(chain, 16, 1.0);
        let machine = MachineConfig::iwarp_message().with_geometry(4, 4);
        let clustering = [(0, 0), (1, 1)];
        let undefined = Mapping::new(vec![
            ModuleAssignment::new(0, 0, 1, 4),
            ModuleAssignment::new(1, 1, 1, 12),
        ]);
        assert!(is_feasible(&machine, &undefined).is_feasible());
        let (mapping, thr) =
            feasible_optimal(&problem, &machine, &clustering, FeasibleSearch::default()).unwrap();
        assert!(throughput(&problem.chain, &undefined) > thr);
        assert_ne!(mapping.modules[0].procs, 4);
        assert_eq!(
            thr.to_bits(),
            throughput(&problem.chain, &mapping).to_bits()
        );
        // With the NaN choice gone the rest of the ranking is untouched:
        // the winner is the best feasible honest candidate.
        let best_honest = enumerate(&problem, &clustering)
            .into_iter()
            .filter(|m| m.modules[0].procs != 4 && is_feasible(&machine, m).is_feasible())
            .map(|m| throughput(&problem.chain, &m))
            .fold(0.0, f64::max);
        assert_eq!(thr, best_honest);
    }

    /// Small local oracle: best throughput over singleton-clustered
    /// (procs, replicas) combos without machine constraints.
    fn pipemap_core_oracle(problem: &Problem) -> f64 {
        let p = problem.total_procs;
        let mut best = 0.0_f64;
        for p1 in 1..=p {
            for r1 in 1..=(p / p1) {
                for p2 in 1..=p {
                    for r2 in 1..=(p / p2.max(1)) {
                        if p1 * r1 + p2 * r2 > p {
                            continue;
                        }
                        let m = Mapping::new(vec![
                            ModuleAssignment::new(0, 0, r1, p1),
                            ModuleAssignment::new(1, 1, r2, p2),
                        ]);
                        if problem.module_floor(0, 0).unwrap() <= p1
                            && problem.module_floor(1, 1).unwrap() <= p2
                        {
                            best = best.max(throughput(&problem.chain, &m));
                        }
                    }
                }
            }
        }
        best
    }
}
