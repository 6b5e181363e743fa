//! Property tests of chain evaluation: the pre-computed cost tables must
//! agree with direct evaluation everywhere, and throughput must follow
//! the bottleneck formula exactly.

use pipemap_chain::{
    bottleneck_module, module_response, throughput, validate, ChainBuilder, CostTable, Edge,
    Mapping, ModuleAssignment, Problem, Task,
};
use pipemap_model::{MemoryReq, PolyEcom, PolyUnary};
use proptest::prelude::*;

fn arb_problem() -> impl Strategy<Value = Problem> {
    (
        prop::collection::vec(
            (
                0.0..2.0f64,
                0.0..8.0f64,
                0.0..0.2f64,
                0.0..40.0f64,
                any::<bool>(),
            ),
            1..6,
        ),
        prop::collection::vec((0.0..0.5f64, 0.0..2.0f64, 0.0..2.0f64, 0.0..0.1f64), 5),
        2..20usize,
    )
        .prop_map(|(tasks, edges, p)| {
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
                    let (e1, e2, e3, e4) = edges[i];
                    b = b.edge(Edge::new(
                        PolyUnary::new(e1, e2 * 0.5, 0.0),
                        PolyEcom::new(e1, e2, e3, e4, e4),
                    ));
                }
            }
            Problem::new(b.build(), p, 25.0)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cost_table_matches_direct_evaluation(problem in arb_problem()) {
        let table = CostTable::build(&problem);
        let chain = &problem.chain;
        for p in 1..=problem.total_procs {
            for i in 0..chain.len() {
                prop_assert!((table.exec(i, p) - chain.task(i).exec.eval(p)).abs() < 1e-9);
            }
            for e in 0..chain.len() - 1 {
                prop_assert!((table.icom(e, p) - chain.edge(e).icom.eval(p)).abs() < 1e-9);
                for q in (1..=problem.total_procs).step_by(3) {
                    prop_assert!(
                        (table.ecom(e, p, q) - chain.edge(e).ecom.eval(p, q)).abs() < 1e-9
                    );
                }
            }
        }
        // Module composition is the evaluator's `exec`, to the bit.
        for first in 0..chain.len() {
            for last in first..chain.len() {
                for p in (1..=problem.total_procs).step_by(2) {
                    let module = Mapping::new(vec![ModuleAssignment::new(first, last, 1, p)]);
                    let direct = module_response(chain, &module, 0).exec;
                    prop_assert_eq!(table.module_exec(first, last, p).to_bits(), direct.to_bits());
                }
                // Floors match the problem's computation.
                prop_assert_eq!(
                    table.module_floor(first, last),
                    problem.module_floor(first, last)
                );
            }
        }
    }

    #[test]
    fn throughput_is_exactly_the_bottleneck_formula(problem in arb_problem()) {
        // Build the singleton mapping at the floors if it fits.
        let k = problem.num_tasks();
        let mut modules = Vec::new();
        let mut used = 0;
        for i in 0..k {
            let f = problem.task_floor(i).unwrap();
            used += f;
            modules.push(ModuleAssignment::new(i, i, 1, f));
        }
        prop_assume!(used <= problem.total_procs);
        let mapping = Mapping::new(modules);
        validate(&problem, &mapping).unwrap();
        let thr = throughput(&problem.chain, &mapping);
        let worst = (0..k)
            .map(|i| module_response(&problem.chain, &mapping, i).effective())
            .fold(0.0f64, f64::max);
        if worst > 0.0 {
            prop_assert_eq!(thr.to_bits(), (1.0 / worst).to_bits());
        } else {
            prop_assert!(thr.is_infinite());
        }
        // The bottleneck index achieves the worst effective response.
        let b = bottleneck_module(&problem.chain, &mapping);
        let eff = module_response(&problem.chain, &mapping, b).effective();
        prop_assert!((eff - worst).abs() <= 1e-12 * worst.abs().max(1.0));
    }

    #[test]
    fn transfers_appear_in_both_neighbours(problem in arb_problem()) {
        let k = problem.num_tasks();
        prop_assume!(k >= 2);
        let per = problem.total_procs / k;
        prop_assume!(per >= 1);
        let floors_ok = (0..k).all(|i| problem.task_floor(i).is_some_and(|f| f <= per));
        prop_assume!(floors_ok);
        let mapping = Mapping::new(
            (0..k).map(|i| ModuleAssignment::new(i, i, 1, per)).collect(),
        );
        for i in 1..k {
            let out = module_response(&problem.chain, &mapping, i - 1).outgoing;
            let inc = module_response(&problem.chain, &mapping, i).incoming;
            prop_assert!((out - inc).abs() < 1e-12, "transfer asymmetry at edge {i}");
        }
    }

    #[test]
    fn validate_accepts_what_assignment_builds(problem in arb_problem()) {
        // Any assignment at/above floors within budget must validate.
        let k = problem.num_tasks();
        let mut total = 0;
        let mut floors = Vec::new();
        for i in 0..k {
            let f = problem.task_floor(i).unwrap();
            total += f;
            floors.push(f);
        }
        prop_assume!(total <= problem.total_procs);
        let assignment = pipemap_chain::Assignment(floors);
        let mapping = assignment.to_mapping(&problem).unwrap();
        prop_assert!(validate(&problem, &mapping).is_ok());
    }
}
