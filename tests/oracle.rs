//! Oracle tests: on every instance small enough to enumerate, the DP
//! solvers must match brute force exactly, and the solvers' reported
//! throughput must match the independent evaluator. Property-based via
//! proptest.

use pipemap::chain::{
    throughput, validate, ChainBuilder, Edge, Mapping, ModuleAssignment, Problem, Task,
};
use pipemap::core::brute::all_clusterings;
use pipemap::core::{
    best_latency_mapping, brute_force_assignment, brute_force_mapping, dp_assignment, dp_mapping,
    latency, min_procs_mapping, SolveError,
};
use pipemap::model::{MemoryReq, PolyEcom, PolyUnary};
use proptest::prelude::*;

/// Strategy: a random chain of `k` tasks with polynomial costs, optional
/// memory requirements and replicability flags.
fn arb_problem(max_k: usize, max_p: usize) -> impl Strategy<Value = Problem> {
    let task = (
        0.0..1.0f64,
        0.2..8.0f64,
        0.0..0.2f64,
        0.0..30.0f64,
        any::<bool>(),
    );
    let edge = (0.0..0.5f64, 0.0..1.5f64, 0.0..1.5f64, 0.0..0.1f64);
    (
        prop::collection::vec(task, 1..=max_k),
        prop::collection::vec(edge, max_k.saturating_sub(1)),
        2..=max_p,
    )
        .prop_map(|(tasks, edges, p)| {
            let k = tasks.len();
            let mut builder = ChainBuilder::new();
            for (i, (c1, c2, c3, mem, replicable)) in tasks.into_iter().enumerate() {
                let mut t = Task::new(format!("t{i}"), PolyUnary::new(c1, c2, c3))
                    .with_memory(MemoryReq::new(0.0, mem));
                if !replicable {
                    t = t.not_replicable();
                }
                builder = builder.task(t);
                if i + 1 < k {
                    let (e1, e2, e3, e4) = edges[i];
                    builder = builder.edge(Edge::new(
                        PolyUnary::new(e1 * 0.5, e1, 0.0),
                        PolyEcom::new(e1, e2, e3, e4, e4),
                    ));
                }
            }
            Problem::new(builder.build(), p, 10.0)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dp_assignment_matches_brute_force(problem in arb_problem(3, 8)) {
        let brute = brute_force_assignment(&problem);
        let dp = dp_assignment(&problem);
        match (brute, dp) {
            (Ok((b, _)), Ok((d, _))) => {
                prop_assert!(
                    (b.throughput - d.throughput).abs() <= 1e-9 * b.throughput.max(1.0),
                    "brute {} vs dp {}", b.throughput, d.throughput
                );
                validate(&problem, &d.mapping).expect("dp mapping valid");
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            (b, d) => prop_assert!(false, "disagree: {b:?} vs {d:?}"),
        }
    }

    #[test]
    fn dp_mapping_matches_brute_force(problem in arb_problem(4, 7)) {
        let brute = brute_force_mapping(&problem);
        let dp = dp_mapping(&problem);
        match (brute, dp) {
            (Ok(b), Ok(d)) => {
                prop_assert!(
                    (b.throughput - d.throughput).abs() <= 1e-9 * b.throughput.max(1.0),
                    "brute {} ({:?}) vs dp {} ({:?})",
                    b.throughput, b.mapping, d.throughput, d.mapping
                );
                validate(&problem, &d.mapping).expect("dp mapping valid");
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            (b, d) => prop_assert!(false, "disagree: {b:?} vs {d:?}"),
        }
    }

    #[test]
    fn dp_mapping_never_worse_than_fixed_singleton_assignment(problem in arb_problem(3, 8)) {
        // Clustering and replication are extra freedom: the full mapper
        // must dominate the assignment-only mapper.
        if let (Ok(full), Ok((assign, _))) = (dp_mapping(&problem), dp_assignment(&problem)) {
            prop_assert!(
                full.throughput >= assign.throughput - 1e-9 * assign.throughput.max(1.0),
                "full {} < assignment {}", full.throughput, assign.throughput
            );
        }
    }

    #[test]
    fn reported_throughput_matches_evaluator(problem in arb_problem(4, 7)) {
        if let Ok(sol) = dp_mapping(&problem) {
            let independent = pipemap::chain::throughput(&problem.chain, &sol.mapping);
            prop_assert!(
                (sol.throughput - independent).abs() <= 1e-12 * independent.abs().max(1.0)
            );
        }
    }

    #[test]
    fn free_replication_dp_dominates_policy_dp(problem in arb_problem(3, 8)) {
        match (dp_mapping(&problem), pipemap::core::dp_mapping_free(&problem)) {
            (Ok(policy), Ok(free)) => {
                validate(&problem, &free.mapping).expect("free mapping valid");
                prop_assert!(
                    free.throughput >= policy.throughput,
                    "free {} < policy {}",
                    free.throughput,
                    policy.throughput
                );
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            (a, b) => prop_assert!(false, "feasibility disagreement: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn free_replication_dp_matches_exhaustive_two_task_oracle(
        works in prop::collection::vec((0.0..1.0f64, 0.2..5.0f64), 2..=2),
        ecom_fixed in 0.0..0.8f64,
        p in 2..=7usize,
    ) {
        let chain = ChainBuilder::new()
            .task(Task::new("a", PolyUnary::new(works[0].0, works[0].1, 0.0)))
            .edge(Edge::new(
                PolyUnary::new(ecom_fixed * 0.5, 0.0, 0.0),
                PolyEcom::new(ecom_fixed, 0.5, 0.5, 0.0, 0.0),
            ))
            .task(Task::new("b", PolyUnary::new(works[1].0, works[1].1, 0.0)))
            .build();
        let problem = Problem::new(chain, p, 1e12);
        let free = pipemap::core::dp_mapping_free(&problem).unwrap();
        // Oracle: every clustering × instance size × replication degree.
        let mut best = 0.0f64;
        for i1 in 1..=p {
            for r1 in 1..=(p / i1) {
                for i2 in 1..=p {
                    for r2 in 1..=(p / i2) {
                        if i1 * r1 + i2 * r2 > p {
                            continue;
                        }
                        let m = pipemap::chain::Mapping::new(vec![
                            pipemap::chain::ModuleAssignment::new(0, 0, r1, i1),
                            pipemap::chain::ModuleAssignment::new(1, 1, r2, i2),
                        ]);
                        best = best.max(pipemap::chain::throughput(&problem.chain, &m));
                    }
                }
            }
        }
        for inst in 1..=p {
            for r in 1..=(p / inst) {
                let m = pipemap::chain::Mapping::new(vec![
                    pipemap::chain::ModuleAssignment::new(0, 1, r, inst),
                ]);
                best = best.max(pipemap::chain::throughput(&problem.chain, &m));
            }
        }
        prop_assert_eq!(
            free.throughput.to_bits(),
            best.to_bits(),
            "free {} vs oracle {}",
            free.throughput,
            best
        );
    }
}

proptest! {
    // Enough cases to catch a replica count taken from `⌈f · T⌉` instead
    // of the evaluator: it over-replicates a bottleneck at its own
    // throughput on case 102.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn latency_floor_at_the_dp_optimum_is_met(problem in arb_problem(3, 8)) {
        // The DP's optimal mapping lies in the latency mapper's space, so
        // a floor of exactly its throughput is reachable, and the mapping
        // that comes back meets it.
        if let Ok(opt) = dp_mapping(&problem) {
            let sol = best_latency_mapping(&problem, opt.throughput);
            prop_assert!(
                sol.as_ref().is_ok_and(|s| s.throughput >= opt.throughput),
                "floor {}: {:?}",
                opt.throughput,
                sol.map(|s| s.throughput)
            );
        }
    }
}

/// Every mapping of `problem` under free replication: each clustering,
/// each module's instance size and replica count, kept when `validate`
/// accepts it.
fn free_mappings(problem: &Problem) -> Vec<Mapping> {
    let p = problem.total_procs;
    let mut all = Vec::new();
    for clustering in all_clusterings(problem.num_tasks()) {
        let mut prefixes: Vec<Vec<ModuleAssignment>> = vec![Vec::new()];
        for &(first, last) in &clustering {
            let mut longer = Vec::new();
            for prefix in &prefixes {
                let left = p - prefix.iter().map(|m| m.total_procs()).sum::<usize>();
                for inst in 1..=left {
                    for r in 1..=left / inst {
                        let mut modules = prefix.clone();
                        modules.push(ModuleAssignment::new(first, last, r, inst));
                        longer.push(modules);
                    }
                }
            }
            prefixes = longer;
        }
        all.extend(
            prefixes
                .into_iter()
                .map(Mapping::new)
                .filter(|m| validate(problem, m).is_ok()),
        );
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn least_latency_and_fewest_procs_match_brute_force(
        problem in arb_problem(3, 8),
        u in 0.01..1.0f64,
    ) {
        let next = |t: f64| f64::from_bits(t.to_bits() + 1);
        // (throughput, latency, processors) of every free mapping.
        let scored: Vec<(f64, f64, usize)> = free_mappings(&problem)
            .iter()
            .map(|m| (throughput(&problem.chain, m), latency(&problem.chain, m), m.total_procs()))
            .collect();
        let t_free = scored.iter().map(|s| s.0).fold(0.0, f64::max);
        for floor in [0.0, u * t_free, t_free, next(t_free)] {
            let brute = scored
                .iter()
                .filter(|s| s.0 >= floor)
                .map(|s| s.1)
                .min_by(f64::total_cmp);
            match (best_latency_mapping(&problem, floor), brute) {
                (Ok(sol), Some(lat)) => prop_assert!(
                    (sol.latency - lat).abs() <= 1e-12 * lat,
                    "floor {floor}: solver {} ({:?}) vs brute {lat}",
                    sol.latency,
                    sol.mapping
                ),
                (Err(SolveError::Infeasible), None) => {}
                (sol, brute) => prop_assert!(
                    false,
                    "floor {floor}: solver {:?} vs brute {brute:?}",
                    sol.map(|s| s.latency)
                ),
            }
        }

        // The fewest processors: the first budget whose brute-force
        // optimum (the §3.2 rule) reaches the target. Free replication
        // never needs more.
        let Ok(full) = brute_force_mapping(&problem) else {
            return Ok(());
        };
        let optima: Vec<f64> = (1..=problem.total_procs)
            .map(|b| {
                let mut budget = problem.clone();
                budget.total_procs = b;
                brute_force_mapping(&budget).map_or(0.0, |s| s.throughput)
            })
            .collect();
        for target in [u * full.throughput, full.throughput, next(full.throughput)] {
            let scan = optima.iter().position(|&t| t >= target).map(|i| i + 1);
            let free = scored.iter().filter(|s| s.0 >= target).map(|s| s.2).min();
            match (min_procs_mapping(&problem, target), scan) {
                (Ok(sol), Some(b)) => {
                    prop_assert_eq!(sol.procs, b, "target {}", target);
                    prop_assert!(free.is_some_and(|f| f <= b), "target {target}: free {free:?}");
                }
                (Err(SolveError::Infeasible), None) => {}
                (sol, scan) => prop_assert!(
                    false,
                    "target {target}: solver {:?} vs brute {scan:?}",
                    sol.map(|s| s.procs)
                ),
            }
        }
    }
}
