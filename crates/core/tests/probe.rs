//! The two solvers on the period probe against their oracles:
//! `dp_mapping_free` against exhaustive enumeration and the §3.2 DP, and
//! `min_procs_mapping` against a linear scan of `dp_mapping` over budgets.

use pipemap_chain::{validate, ChainBuilder, Edge, Mapping, ModuleAssignment, Problem, Task};
use pipemap_core::{dp_mapping, dp_mapping_free, min_procs_mapping, Solution, SolveError};
use pipemap_model::{MemoryReq, PolyEcom, PolyUnary};
use proptest::prelude::*;

#[test]
fn recovers_the_remainder_loss_case() {
    // Floor 3, 10 processors, perfectly parallel task: the policy DP
    // is stuck at 3×3 (1.13/s); free replication reaches 1×10
    // (1.26/s). (EXPERIMENTS.md finding #4.)
    let chain = ChainBuilder::new()
        .task(Task::new("t", PolyUnary::perfectly_parallel(7.9548)).with_min_procs(3))
        .build();
    let problem = Problem::new(chain, 10, 1e12);
    let policy = dp_mapping(&problem).unwrap();
    let free = dp_mapping_free(&problem).unwrap();
    assert!(
        free.throughput > policy.throughput * 1.05,
        "free {} should beat policy {}",
        free.throughput,
        policy.throughput
    );
    // All 10 processors are put to work (for a perfectly parallel
    // task, 1×10 and 2×5 are equivalent optima).
    assert_eq!(free.mapping.total_procs(), 10);
    assert!((free.throughput - 10.0 / 7.9548).abs() < 1e-3);
}

#[test]
fn never_worse_than_policy_dp_on_random_instances() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(99);
    for trial in 0..20 {
        let k = rng.gen_range(1..=3);
        let p = rng.gen_range(3..=10);
        let mut b = ChainBuilder::new().task(random_task(&mut rng, 0));
        for i in 1..k {
            b = b
                .edge(Edge::new(
                    PolyUnary::new(rng.gen_range(0.0..0.3), 0.0, 0.0),
                    PolyEcom::new(
                        rng.gen_range(0.0..0.6),
                        rng.gen_range(0.0..1.0),
                        rng.gen_range(0.0..1.0),
                        0.0,
                        0.0,
                    ),
                ))
                .task(random_task(&mut rng, i));
        }
        let problem = Problem::new(b.build(), p, 10.0);
        match (dp_mapping(&problem), dp_mapping_free(&problem)) {
            (Ok(policy), Ok(free)) => {
                validate(&problem, &free.mapping).unwrap();
                assert!(
                    free.throughput >= policy.throughput,
                    "trial {trial}: free {} < policy {}",
                    free.throughput,
                    policy.throughput
                );
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            (a, b) => panic!("trial {trial}: disagreement {a:?} vs {b:?}"),
        }
    }

    fn random_task(rng: &mut StdRng, i: usize) -> Task {
        let mut t = Task::new(
            format!("t{i}"),
            PolyUnary::new(rng.gen_range(0.0..0.8), rng.gen_range(0.2..5.0), 0.0),
        )
        .with_memory(MemoryReq::new(0.0, rng.gen_range(0.0..30.0)));
        if rng.gen_bool(0.25) {
            t = t.not_replicable();
        }
        t
    }
}

#[test]
fn matches_brute_force_with_free_replication() {
    // Exhaustive oracle over clusterings × instance sizes ×
    // replication degrees for a tiny instance.
    let chain = ChainBuilder::new()
        .task(Task::new("a", PolyUnary::new(0.3, 2.0, 0.0)))
        .edge(Edge::new(
            PolyUnary::new(0.1, 0.0, 0.0),
            PolyEcom::new(0.2, 0.5, 0.5, 0.0, 0.0),
        ))
        .task(Task::new("b", PolyUnary::new(0.2, 3.0, 0.0)))
        .build();
    let p = 7;
    let problem = Problem::new(chain, p, 1e12);
    let free = dp_mapping_free(&problem).unwrap();

    let mut best = 0.0f64;
    // Split clustering.
    for i1 in 1..=p {
        for r1 in 1..=(p / i1) {
            for i2 in 1..=p {
                for r2 in 1..=(p / i2) {
                    if i1 * r1 + i2 * r2 > p {
                        continue;
                    }
                    let m = Mapping::new(vec![
                        ModuleAssignment::new(0, 0, r1, i1),
                        ModuleAssignment::new(1, 1, r2, i2),
                    ]);
                    best = best.max(pipemap_chain::throughput(&problem.chain, &m));
                }
            }
        }
    }
    // Fused clustering.
    for inst in 1..=p {
        for r in 1..=(p / inst) {
            let m = Mapping::new(vec![ModuleAssignment::new(0, 1, r, inst)]);
            best = best.max(pipemap_chain::throughput(&problem.chain, &m));
        }
    }
    assert_eq!(
        free.throughput.to_bits(),
        best.to_bits(),
        "free {} vs oracle {}",
        free.throughput,
        best
    );
}

#[test]
fn respects_non_replicable_tasks() {
    let chain = ChainBuilder::new()
        .task(Task::new("flat", PolyUnary::new(1.0, 0.0, 0.0)).not_replicable())
        .build();
    let problem = Problem::new(chain, 8, 1e12);
    let free = dp_mapping_free(&problem).unwrap();
    assert_eq!(free.mapping.modules[0].replicas, 1);
    assert_eq!(free.throughput, 1.0);
}

#[test]
fn infeasible_problem_detected() {
    let chain = ChainBuilder::new()
        .task(Task::new("big", PolyUnary::zero()).with_memory(MemoryReq::new(100.0, 0.0)))
        .build();
    let problem = Problem::new(chain, 8, 10.0);
    assert_eq!(
        dp_mapping_free(&problem).unwrap_err(),
        SolveError::Infeasible
    );
}

#[test]
fn zero_cost_chain_is_unbounded() {
    let chain = ChainBuilder::new()
        .task(Task::new("free", PolyUnary::zero()))
        .build();
    let problem = Problem::new(chain, 4, 1e12);
    let free = dp_mapping_free(&problem).unwrap();
    assert!(free.throughput.is_infinite());
}

/// Two tasks without replication, on `p` processors.
fn two_tasks(p: usize) -> Problem {
    let chain = ChainBuilder::new()
        .task(Task::new("a", PolyUnary::new(0.1, 2.0, 0.0)))
        .edge(Edge::new(
            PolyUnary::zero(),
            PolyEcom::new(0.05, 0.1, 0.1, 0.0, 0.0),
        ))
        .task(Task::new("b", PolyUnary::new(0.1, 3.0, 0.0)))
        .build();
    Problem::new(chain, p, 1e12).without_replication()
}

/// `problem` with a budget of `p` processors.
fn at_budget(problem: &Problem, p: usize) -> Problem {
    let mut sub = problem.clone();
    sub.total_procs = p;
    sub
}

#[test]
fn finds_the_minimal_budget() {
    let p = two_tasks(32);
    // The returned budget is feasible and the one below is not.
    let target = 1.2;
    let sol = min_procs_mapping(&p, target).unwrap();
    assert!(sol.solution.throughput >= target);
    assert!(sol.procs >= 2);
    match dp_mapping(&at_budget(&p, sol.procs - 1)) {
        Ok(s) => assert!(
            s.throughput < target,
            "budget {} already reaches {} (target {target})",
            sol.procs - 1,
            s.throughput
        ),
        Err(SolveError::Infeasible) => {}
        Err(e) => panic!("{e}"),
    }
}

/// A random chain of at most three tasks on at most eight processors,
/// with memory floors, clustering and (sometimes) replication.
fn arb_small_problem() -> impl Strategy<Value = Problem> {
    (
        prop::collection::vec(
            (
                0.0..1.5f64,
                0.1..6.0f64,
                0.0..0.15f64,
                0.0..25.0f64,
                any::<bool>(),
            ),
            1..4,
        ),
        prop::collection::vec((0.0..0.4f64, 0.0..1.5f64, 0.0..0.08f64), 3),
        3..9usize,
        any::<bool>(),
    )
        .prop_map(|(tasks, edges, p, replication)| {
            let k = tasks.len();
            let mut b = ChainBuilder::new();
            for (i, (c1, c2, c3, mem, rep)) in tasks.into_iter().enumerate() {
                let mut t = Task::new(format!("t{i}"), PolyUnary::new(c1, c2, c3))
                    .with_memory(MemoryReq::new(0.0, mem));
                if !rep {
                    t = t.not_replicable();
                }
                b = b.task(t);
                if i + 1 < k {
                    let (e1, e2, e3) = edges[i];
                    b = b.edge(Edge::new(
                        PolyUnary::new(e1 * 0.5, 0.0, 0.0),
                        PolyEcom::new(e1, e2, e2, e3, e3),
                    ));
                }
            }
            let problem = Problem::new(b.build(), p, 20.0);
            if replication {
                problem
            } else {
                problem.without_replication()
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The budget is the first one of a linear scan whose optimum
    /// reaches the target, and the solution is that optimum, bit for
    /// bit. Targets are optima at some budget — where a budget is
    /// exactly enough — and the floats either side of them.
    #[test]
    fn minimal_budget_matches_linear_scan(problem in arb_small_problem()) {
        let optima: Vec<Option<Solution>> = (1..=problem.total_procs)
            .map(|b| dp_mapping(&at_budget(&problem, b)).ok())
            .collect();
        for edge in optima.iter().flatten() {
            let bits = edge.throughput.to_bits();
            for target in [bits - 1, bits, bits + 1].map(f64::from_bits) {
                let scan = optima
                    .iter()
                    .position(|s| s.as_ref().is_some_and(|s| s.throughput >= target));
                match (min_procs_mapping(&problem, target), scan) {
                    (Ok(fast), Some(i)) => {
                        let slow = optima[i].as_ref().unwrap();
                        prop_assert_eq!(fast.procs, i + 1, "target {}", target);
                        prop_assert_eq!(&fast.solution.mapping, &slow.mapping);
                        prop_assert_eq!(
                            fast.solution.throughput.to_bits(),
                            slow.throughput.to_bits()
                        );
                    }
                    (Err(SolveError::Infeasible), None) => {}
                    (fast, scan) => prop_assert!(
                        false,
                        "target {target}: probe {:?}, scan {scan:?}",
                        fast.map(|s| s.procs)
                    ),
                }
            }
        }
    }
}

#[test]
fn unreachable_target_is_infeasible() {
    let p = two_tasks(8);
    assert_eq!(
        min_procs_mapping(&p, 1e9).unwrap_err(),
        SolveError::Infeasible
    );
}

#[test]
fn replication_lowers_the_required_budget() {
    // A non-scaling task: without replication no budget reaches 2/s;
    // with replication 2 processors do.
    let chain = ChainBuilder::new()
        .task(Task::new("flat", PolyUnary::new(1.0, 0.0, 0.0)))
        .build();
    let with = Problem::new(chain.clone(), 16, 1e12);
    let sol = min_procs_mapping(&with, 2.0).unwrap();
    assert_eq!(sol.procs, 2);
    let without = Problem::new(chain, 16, 1e12).without_replication();
    assert_eq!(
        min_procs_mapping(&without, 2.0).unwrap_err(),
        SolveError::Infeasible
    );
}

#[test]
fn memory_floors_bound_the_budget_from_below() {
    let chain = ChainBuilder::new()
        .task(
            Task::new("big", PolyUnary::new(0.0, 1.0, 0.0)).with_memory(MemoryReq::new(0.0, 50.0)),
        )
        .build();
    let p = Problem::new(chain, 16, 10.0); // floor 5
    let sol = min_procs_mapping(&p, 0.1).unwrap();
    assert!(sol.procs >= 5);
}
