//! Latency evaluation and latency-constrained mapping.
//!
//! The paper optimises throughput and cites Vondran's companion work
//! ("Optimization of latency, throughput and processors for pipelines of
//! data parallel tasks", reference \[14\]) for the latency dimension. This
//! module implements that direction:
//!
//! * [`latency`] — the time one data set spends traversing the pipeline
//!   when it never waits: every module's execution plus every transfer
//!   *once* (a transfer occupies sender and receiver simultaneously, so
//!   although it appears in both modules' response times it elapses once
//!   on the data set's clock). Replication does not reduce latency —
//!   that is Figure 3's trade-off: response time per data set goes *up*
//!   with replication while throughput goes up too.
//! * [`best_latency_mapping`] — minimise pipeline latency subject to a
//!   throughput floor, over clusterings, instance sizes and free
//!   replication: the period probe at the floor, asked for its
//!   least-latency label instead of its fewest processors (Benoit,
//!   Rehn-Sonigo & Robert's bi-criteria question: fix the period, then
//!   minimise latency).

use pipemap_chain::{module_response, Mapping, Problem, TaskChain};

use crate::probe::least_latency;
use crate::solution::{checked_table, SolveError};

/// Pipeline latency of one data set under `mapping`: the unloaded
/// traversal time (every module's receive + execute, with each transfer
/// counted once).
pub fn latency(chain: &TaskChain, mapping: &Mapping) -> f64 {
    let l = mapping.num_modules();
    let mut total = 0.0;
    for i in 0..l {
        let r = module_response(chain, mapping, i);
        // `incoming` covers the transfer from module i−1 exactly once;
        // `outgoing` would double-count it from the sender side.
        total += r.incoming + r.exec;
    }
    total
}

/// A latency-optimal mapping under a throughput floor.
#[derive(Clone, Debug)]
pub struct LatencySolution {
    /// The chosen mapping.
    pub mapping: Mapping,
    /// Its unloaded pipeline latency, seconds.
    pub latency: f64,
    /// Its steady-state throughput (≥ the requested floor).
    pub throughput: f64,
}

/// Minimise pipeline latency subject to `throughput ≥ min_throughput`,
/// over clusterings, allocations, and replication.
///
/// One free-rule probe at the floor ([`crate::probe`]) whose cells keep
/// Pareto frontiers of `(processors, latency)` labels; the answer is the
/// least-latency label at the chain's end. Replication is a free
/// per-module choice rather than the §3.2 maximal rule: it never reduces
/// latency, so the optimal degree is the *smallest* `r` meeting the
/// floor, [`pipemap_chain::min_replicas`] of the module's response,
/// decided by the evaluator so that the mapping's throughput is never
/// below the floor.
pub fn best_latency_mapping(
    problem: &Problem,
    min_throughput: f64,
) -> Result<LatencySolution, SolveError> {
    assert!(
        min_throughput >= 0.0 && min_throughput.is_finite(),
        "throughput floor must be a finite non-negative rate"
    );
    let table = checked_table(problem)?;
    let (mapping, summed) = least_latency(&table, min_throughput).ok_or(SolveError::Infeasible)?;
    let lat = latency(&problem.chain, &mapping);
    debug_assert!(
        (lat - summed).abs() <= 1e-9 * summed.max(1.0),
        "probe latency {summed} disagrees with evaluator {lat}"
    );
    Ok(LatencySolution {
        throughput: pipemap_chain::throughput(&problem.chain, &mapping),
        mapping,
        latency: lat,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp_cluster::dp_mapping;
    use pipemap_chain::{validate, ChainBuilder, Edge, ModuleAssignment, Task};
    use pipemap_model::{PolyEcom, PolyUnary};

    /// Fusing on all 8 procs gives stage time 1.0 + 0.2 + 1.0 = 2.2
    /// (throughput 0.455, latency 2.2); splitting 4/4 gives stage times
    /// 1.8 each (throughput 0.556) at latency 3.3 — so latency prefers
    /// fusion and a demanding throughput floor forces the split.
    fn chain() -> TaskChain {
        ChainBuilder::new()
            .task(Task::new("a", PolyUnary::new(0.5, 4.0, 0.0)))
            .edge(Edge::new(
                PolyUnary::new(0.2, 0.0, 0.0),
                PolyEcom::new(0.3, 0.0, 0.0, 0.0, 0.0),
            ))
            .task(Task::new("b", PolyUnary::new(0.5, 4.0, 0.0)))
            .build()
    }

    #[test]
    fn latency_counts_transfers_once() {
        let c = chain();
        let split = Mapping::new(vec![
            ModuleAssignment::new(0, 0, 1, 4),
            ModuleAssignment::new(1, 1, 1, 4),
        ]);
        // a(4) = 1.5, transfer = 0.3, b(4) = 1.5 → latency 3.3 (not 3.6,
        // which double-counting the transfer would give).
        assert!((latency(&c, &split) - 3.3).abs() < 1e-12);
        let fused = Mapping::new(vec![ModuleAssignment::new(0, 1, 1, 8)]);
        // a(8) + icom(0.2) + b(8) = 1.0 + 0.2 + 1.0.
        assert!((latency(&c, &fused) - 2.2).abs() < 1e-12);
    }

    #[test]
    fn replication_increases_latency_but_not_unloaded_transfer_count() {
        let c = chain();
        let single = Mapping::new(vec![ModuleAssignment::new(0, 1, 1, 8)]);
        let replicated = Mapping::new(vec![ModuleAssignment::new(0, 1, 4, 2)]);
        assert!(latency(&c, &replicated) > latency(&c, &single));
    }

    #[test]
    fn unconstrained_latency_prefers_fusion_here() {
        // With the expensive transfer, fusing minimises latency.
        let p = Problem::new(chain(), 8, 1e12).without_replication();
        let sol = best_latency_mapping(&p, 0.0).unwrap();
        assert_eq!(sol.mapping.num_modules(), 1);
        assert!((sol.latency - 2.2).abs() < 1e-9);
        validate(&p, &sol.mapping).unwrap();
    }

    #[test]
    fn throughput_floor_forces_structure() {
        // Fused on 8 procs: stage time 2.2 → throughput 0.4545. Demand
        // more: the mapper must split (pipelining halves the stage time)
        // even though that raises latency.
        let p = Problem::new(chain(), 8, 1e12).without_replication();
        let sol = best_latency_mapping(&p, 0.5).unwrap();
        assert!(sol.throughput >= 0.5 - 1e-9, "thr {}", sol.throughput);
        assert!(sol.latency > 2.2);
        validate(&p, &sol.mapping).unwrap();
    }

    #[test]
    fn infeasible_floor_reported() {
        let p = Problem::new(chain(), 8, 1e12).without_replication();
        // No mapping of this chain reaches 100 data sets/s on 8 procs.
        assert_eq!(
            best_latency_mapping(&p, 100.0).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn floor_at_throughput_optimum_is_achievable() {
        // Ask for exactly the throughput optimum: the latency mapper must
        // find something achieving it.
        let p = Problem::new(chain(), 8, 1e12).without_replication();
        let thr_opt = dp_mapping(&p).unwrap();
        let sol = best_latency_mapping(&p, thr_opt.throughput).unwrap();
        assert!(sol.throughput >= thr_opt.throughput);
        // And its latency is no worse than the throughput-optimal
        // mapping's latency.
        assert!(sol.latency <= latency(&p.chain, &thr_opt.mapping) + 1e-9);
    }

    #[test]
    fn latency_with_replication_policy() {
        // Replication helps throughput but hurts latency: with a floor
        // demanding replication, the mapper should use it; without, not.
        let c = ChainBuilder::new()
            .task(Task::new("t", PolyUnary::new(1.0, 0.0, 0.0)))
            .build();
        let p = Problem::new(c, 4, 1e12);
        let relaxed = best_latency_mapping(&p, 0.9).unwrap();
        assert_eq!(relaxed.mapping.modules[0].replicas, 1);
        assert!((relaxed.latency - 1.0).abs() < 1e-9);
        let demanding = best_latency_mapping(&p, 3.5).unwrap();
        assert_eq!(demanding.mapping.modules[0].replicas, 4);
        assert!(demanding.throughput >= 3.5);
    }
}
