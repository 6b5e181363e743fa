//! Differential equivalence suite for the DP performance layer.
//!
//! The contract of [`SolveOptions`] is *bit-identical results*: pruning,
//! instance dedup, and the worker pool are pure wall-clock optimisations.
//! This suite enforces the contract three ways:
//!
//! 1. **Against the oracles** — on small random chains the reference
//!    serial DP, the full performance path, and the exhaustive brute-force
//!    enumeration must agree on the optimal throughput (property test).
//! 2. **Across the option matrix** — every combination of
//!    `{par, prune, dedup}` must return the same throughput *bits* and
//!    the same mapping as the reference path, on models large enough for
//!    pruning and dedup to actually engage (P = 32/64 with replication,
//!    convex response curves, real communication terms).
//! 3. **Across thread counts** — explicit 1/2/3/4/7-thread runs must
//!    agree bitwise with the serial path, answers and recorded decision
//!    paths and per-stage counters alike, proving that the strided line
//!    partition, whose workers write the stage tables in place, is
//!    deterministic.
//! 4. **Against the period probe** — every mapping optimum, small or at
//!    P = 32/64, certifies in one probe: `min_procs_mapping` finds no
//!    mapping at the next float above it and one worth exactly it at it.
//!
//! `PIPEMAP_THREADS` only affects runs with `threads: None`; the explicit
//! matrix pins counts so CI can run the whole suite under
//! `PIPEMAP_THREADS=1`, `=3` and `=4` (see ci.sh) without changing
//! coverage.

use pipemap_chain::{ChainBuilder, Edge, Problem, Task};
use pipemap_core::{
    brute_force_assignment, brute_force_mapping, dp_assignment, dp_assignment_provenance,
    dp_assignment_pruned_stats_ctx, dp_assignment_with, dp_mapping, dp_mapping_provenance,
    dp_mapping_pruned_stats_ctx, dp_mapping_with, greedy_assignment, min_procs_mapping,
    DecisionCell, GreedyOptions, Provenance, Solution, SolveCtx, SolveError, SolveOptions,
    StageCells,
};
use pipemap_model::{MemoryReq, PolyEcom, PolyUnary};
use proptest::prelude::*;

/// A small random problem: k ≤ 3 tasks, P ≤ 8 — cheap enough for the
/// exhaustive oracles.
fn arb_small_problem() -> impl Strategy<Value = Problem> {
    (
        prop::collection::vec(
            (
                0.0..1.5f64,  // fixed work
                0.1..6.0f64,  // parallel work
                0.0..0.15f64, // per-proc overhead
                0.0..25.0f64, // distributed memory
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

/// A deterministic k-task chain with convex responses, real transfer
/// costs, and per-task memory floors — sized so that at large P both
/// pruning and replication dedup engage.
fn convex_chain(k: usize, seed: u64, mem_scale: f64) -> Problem {
    // Tiny deterministic LCG so the suite needs no RNG dependency and the
    // inputs are identical on every run and platform.
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / ((1u64 << 31) as f64) // in [0, 2)
    };
    let mut b = ChainBuilder::new();
    for i in 0..k {
        let t = Task::new(
            format!("t{i}"),
            PolyUnary::new(0.05 * next(), 2.0 + 4.0 * next(), 0.01 * next()),
        )
        .with_memory(MemoryReq::new(0.0, mem_scale * next()));
        b = b.task(t);
        if i + 1 < k {
            b = b.edge(Edge::new(
                PolyUnary::new(0.02 * next(), 0.0, 0.0),
                PolyEcom::new(
                    0.05 * next(),
                    0.4 * next(),
                    0.4 * next(),
                    0.005 * next(),
                    0.005 * next(),
                ),
            ));
        }
    }
    Problem::new(b.build(), 1, 1.0) // placeholder; caller sets P below
}

fn with_budget(problem: Problem, p: usize, mem_per_proc: f64) -> Problem {
    Problem::new(problem.chain, p, mem_per_proc)
}

/// The option matrix exercised everywhere: reference, each knob alone,
/// everything on.
fn option_matrix() -> Vec<SolveOptions> {
    let on = SolveOptions::default();
    vec![
        SolveOptions::reference(),
        SolveOptions {
            par: true,
            ..SolveOptions::reference()
        },
        SolveOptions {
            prune: true,
            ..SolveOptions::reference()
        },
        SolveOptions {
            dedup: true,
            ..SolveOptions::reference()
        },
        SolveOptions { prune: false, ..on },
        SolveOptions { dedup: false, ..on },
        on,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Small chains: reference DP == optimised DP == brute force, for
    /// both the assignment and the full mapping problem.
    #[test]
    fn small_chains_match_brute_force(problem in arb_small_problem()) {
        let reference = dp_assignment_with(&problem, &SolveOptions::reference());
        let optimised = dp_assignment_with(&problem, &SolveOptions::default());
        let brute = brute_force_assignment(&problem);
        match (reference, optimised, brute) {
            (Ok((rs, ra)), Ok((os, oa)), Ok((bs, _))) => {
                prop_assert_eq!(rs.throughput.to_bits(), os.throughput.to_bits());
                prop_assert_eq!(ra.0, oa.0);
                prop_assert_eq!(
                    rs.throughput.to_bits(), bs.throughput.to_bits(),
                    "dp {} vs brute {}", rs.throughput, bs.throughput
                );
            }
            (Err(a), Err(b), Err(c)) => {
                prop_assert_eq!(a, b);
                prop_assert_eq!(b, c);
            }
            (r, o, b) => prop_assert!(
                false,
                "feasibility disagreement: ref {:?} opt {:?} brute {:?}",
                r.map(|x| x.0.throughput),
                o.map(|x| x.0.throughput),
                b.map(|x| x.0.throughput)
            ),
        }

        let reference = dp_mapping_with(&problem, &SolveOptions::reference());
        let optimised = dp_mapping_with(&problem, &SolveOptions::default());
        let brute = brute_force_mapping(&problem);
        match (reference, optimised, brute) {
            (Ok(rs), Ok(os), Ok(bs)) => {
                prop_assert_eq!(rs.throughput.to_bits(), os.throughput.to_bits());
                prop_assert_eq!(rs.mapping, os.mapping);
                prop_assert_eq!(
                    rs.throughput.to_bits(), bs.throughput.to_bits(),
                    "dp {} vs brute {}", rs.throughput, bs.throughput
                );
                assert_certified_in_one_probe(&problem, rs.throughput);
            }
            (Err(a), Err(b), Err(c)) => {
                prop_assert_eq!(a, b);
                prop_assert_eq!(b, c);
            }
            (r, o, b) => prop_assert!(
                false,
                "feasibility disagreement: ref {:?} opt {:?} brute {:?}",
                r.map(|x| x.throughput),
                o.map(|x| x.throughput),
                b.map(|x| x.throughput)
            ),
        }
    }
}

#[test]
fn assignment_option_matrix_agrees_at_p32_and_p64() {
    for (p, seed) in [(32usize, 7u64), (64, 11)] {
        let problem = with_budget(convex_chain(5, seed, 12.0), p, 8.0);
        let (rs, ra) = dp_assignment_with(&problem, &SolveOptions::reference())
            .expect("feasible convex chain");
        for opts in option_matrix() {
            let (s, a) = dp_assignment_with(&problem, &opts).expect("same feasibility");
            assert_eq!(
                s.throughput.to_bits(),
                rs.throughput.to_bits(),
                "P={p}: options {opts:?} changed the optimum ({} vs {})",
                s.throughput,
                rs.throughput
            );
            assert_eq!(a.0, ra.0, "P={p}: options {opts:?} changed the assignment");
        }
    }
}

#[test]
fn mapping_option_matrix_agrees_at_p32_and_p64() {
    for (p, seed) in [(32usize, 3u64), (64, 5)] {
        let problem = with_budget(convex_chain(4, seed, 10.0), p, 8.0);
        let rs =
            dp_mapping_with(&problem, &SolveOptions::reference()).expect("feasible convex chain");
        for opts in option_matrix() {
            let s = dp_mapping_with(&problem, &opts).expect("same feasibility");
            assert_eq!(
                s.throughput.to_bits(),
                rs.throughput.to_bits(),
                "P={p}: options {opts:?} changed the optimum ({} vs {})",
                s.throughput,
                rs.throughput
            );
            assert_eq!(
                s.mapping, rs.mapping,
                "P={p}: options {opts:?} changed the mapping"
            );
        }
    }
}

/// The period probe certifies `optimum`, `problem`'s DP optimum, in one
/// probe: no mapping reaches the next float above it, and the fewest
/// processors reaching the optimum itself fit in `P` and are worth exactly
/// it.
fn assert_certified_in_one_probe(problem: &Problem, optimum: f64) {
    let above = f64::from_bits(optimum.to_bits() + 1);
    assert_eq!(
        min_procs_mapping(problem, above).map(|s| s.procs),
        Err(SolveError::Infeasible),
        "a mapping beats the optimum {optimum}"
    );
    let at = min_procs_mapping(problem, optimum).expect("the optimum is reachable");
    assert!(at.procs <= problem.total_procs);
    assert_eq!(at.solution.throughput.to_bits(), optimum.to_bits());
}

#[test]
fn mapping_optimum_certifies_in_one_probe_at_p32_and_p64() {
    for (p, seed) in [(32usize, 3u64), (64, 5)] {
        let problem = with_budget(convex_chain(4, seed, 10.0), p, 8.0);
        let optimum = dp_mapping_with(&problem, &SolveOptions::default()).expect("feasible");
        assert_certified_in_one_probe(&problem, optimum.throughput);
    }
}

/// Explicit pool widths of the thread-count tests: 3 and 7 split the
/// stages' lines unevenly, so an off-by-one in the strided partition
/// shows there.
const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 4, 7];

/// The serial optimised path: the reference of the thread-count tests,
/// whose knob under test is `par`/`threads` alone.
fn serial() -> SolveOptions {
    SolveOptions {
        par: false,
        ..SolveOptions::default()
    }
}

/// Thread-count determinism at P = 128 on a replication-friendly chain
/// (floor-1 tasks collapse the dedup axis, keeping the debug-mode run
/// fast).
#[test]
fn thread_counts_agree_bitwise_at_p128() {
    let problem = with_budget(convex_chain(6, 13, 0.0), 128, 8.0);
    let (rs, ra) = dp_assignment_with(&problem, &serial()).expect("feasible");
    let rm = dp_mapping_with(&problem, &serial()).expect("feasible");
    for threads in THREAD_COUNTS {
        let opts = SolveOptions::with_threads(threads);
        let (s, a) = dp_assignment_with(&problem, &opts).expect("feasible");
        assert_eq!(
            s.throughput.to_bits(),
            rs.throughput.to_bits(),
            "threads={threads}"
        );
        assert_eq!(a.0, ra.0, "threads={threads}");
        let m = dp_mapping_with(&problem, &opts).expect("feasible");
        assert_eq!(
            m.throughput.to_bits(),
            rm.throughput.to_bits(),
            "threads={threads}"
        );
        assert_eq!(m.mapping, rm.mapping, "threads={threads}");
    }
}

/// One decision cell, field by field, floats as bits.
type CellFields = ([usize; 9], [u64; 4], Option<(usize, usize, u64)>);

fn cell_fields(c: &DecisionCell) -> CellFields {
    (
        [
            c.index,
            c.first,
            c.last,
            c.offer,
            c.instances,
            c.instance_procs,
            c.budget,
            c.chosen_prev_len,
            c.chosen_prev_procs,
        ],
        [
            c.value.to_bits(),
            c.exec_s.to_bits(),
            c.ecom_in_s.to_bits(),
            c.ecom_out_s.to_bits(),
        ],
        c.runner_up
            .map(|r| (r.prev_len, r.prev_procs, r.value.to_bits())),
    )
}

fn stage_fields(cells: &[StageCells]) -> Vec<[u64; 5]> {
    cells
        .iter()
        .map(|s| [s.stage as u64, s.cells, s.pruned, s.lookups, s.skips])
        .collect()
}

/// Everything one policy's recording entry points report: the exact
/// run's throughput bits, decision cells and per-stage counters, and the
/// pruned run's per-stage counters.
#[derive(Debug, PartialEq)]
struct Recorded {
    throughput: u64,
    cells: Vec<CellFields>,
    stage_cells: Vec<[u64; 5]>,
    pruned_stage_cells: Vec<[u64; 5]>,
}

impl Recorded {
    fn new(prov: Provenance, pruned: Vec<StageCells>) -> Self {
        assert!(prov.exact_runner_ups);
        Self {
            throughput: prov.throughput.to_bits(),
            cells: prov.cells.iter().map(cell_fields).collect(),
            stage_cells: stage_fields(&prov.stage_cells),
            pruned_stage_cells: stage_fields(&pruned),
        }
    }
}

/// The mapping and the assignment DP's recordings of `problem`.
fn recorded(problem: &Problem, opts: &SolveOptions) -> [Recorded; 2] {
    let ctx = SolveCtx::new(problem).expect("valid costs");
    let (_, mapping) = dp_mapping_provenance(problem, opts).expect("feasible");
    let (_, _, assignment) = dp_assignment_provenance(problem, opts).expect("feasible");
    [
        Recorded::new(
            mapping,
            dp_mapping_pruned_stats_ctx(problem, &ctx, opts).expect("feasible"),
        ),
        Recorded::new(
            assignment,
            dp_assignment_pruned_stats_ctx(problem, &ctx, opts).expect("feasible"),
        ),
    ]
}

/// The whole recorded path is independent of the pool width: every
/// decision cell and runner-up, and every stage's `cells`, `pruned`,
/// `lookups` and `skips` of both the exact and the pruned run, on the
/// P = 128 chain above and on a P = 64 chain whose memory floors give
/// the stages many successor slots.
#[test]
fn recorded_paths_and_stage_counters_agree_across_thread_counts() {
    for problem in [
        with_budget(convex_chain(6, 13, 0.0), 128, 8.0),
        with_budget(convex_chain(5, 7, 12.0), 64, 8.0),
    ] {
        let want = recorded(&problem, &serial());
        for threads in THREAD_COUNTS {
            let got = recorded(&problem, &SolveOptions::with_threads(threads));
            assert_eq!(got, want, "P={}, threads={threads}", problem.total_procs);
        }
    }
}

/// The throughput bits `dp_assignment`, `dp_mapping` and the greedy report
/// for `problem`, or their errors, in that order.
fn solver_answers(problem: &Problem) -> [Result<u64, SolveError>; 3] {
    let bits = |s: Solution| s.throughput.to_bits();
    [
        dp_assignment(problem).map(|(s, _)| bits(s)),
        dp_mapping(problem).map(bits),
        greedy_assignment(problem, GreedyOptions::adaptive()).map(|(s, _)| bits(s)),
    ]
}

/// Two tasks `a → b` on `p` processors, `b`'s exec model `(c1, c2, 0)`.
fn two_tasks(b_fixed: f64, b_parallel: f64, p: usize) -> Problem {
    let chain = ChainBuilder::new()
        .task(Task::new("a", PolyUnary::perfectly_parallel(4.0)))
        .edge(Edge::new(
            PolyUnary::zero(),
            PolyEcom::new(0.01, 0.0, 0.0, 0.0, 0.0),
        ))
        .task(Task::new("b", PolyUnary::new(b_fixed, b_parallel, 0.0)))
        .build();
    Problem::new(chain, p, 1e9)
}

/// The evaluator's edge rule, solver by solver against the brute-force
/// oracles: free chains are infinitely fast, floors above `P` are
/// infeasible, a single task gets the oracle's optimum, and a NaN or
/// negative cost is refused instead of priced.
#[test]
fn edge_cases_agree_with_brute_force() {
    // Every cost zero: +∞.
    let free = ChainBuilder::new()
        .task(Task::new("a", PolyUnary::zero()))
        .edge(Edge::free())
        .task(Task::new("b", PolyUnary::zero()))
        .build();
    let free = Problem::new(free, 4, 1e9);
    let inf = f64::INFINITY.to_bits();
    assert_eq!(
        brute_force_assignment(&free)
            .unwrap()
            .0
            .throughput
            .to_bits(),
        inf
    );
    assert_eq!(
        brute_force_mapping(&free).unwrap().throughput.to_bits(),
        inf
    );
    assert_eq!(solver_answers(&free), [Ok(inf), Ok(inf), Ok(inf)]);

    // Floors 5 + 5 (and 10 merged) on 8 processors: infeasible.
    let heavy =
        |name: &str| Task::new(name, PolyUnary::zero()).with_memory(MemoryReq::new(0.0, 50.0));
    let crowded = ChainBuilder::new()
        .task(heavy("a"))
        .edge(Edge::free())
        .task(heavy("b"))
        .build();
    let crowded = Problem::new(crowded, 8, 10.0);
    let infeasible = Err(SolveError::Infeasible);
    assert_eq!(
        brute_force_assignment(&crowded).unwrap_err(),
        SolveError::Infeasible
    );
    assert_eq!(
        brute_force_mapping(&crowded).unwrap_err(),
        SolveError::Infeasible
    );
    assert_eq!(
        solver_answers(&crowded),
        [infeasible.clone(), infeasible.clone(), infeasible]
    );

    // k = 1, replicated with a memory floor of 2: the oracle's optimum.
    let single = ChainBuilder::new()
        .task(
            Task::new("only", PolyUnary::new(0.3, 4.0, 0.05))
                .with_memory(MemoryReq::new(0.0, 15.0)),
        )
        .build();
    let single = Problem::new(single, 7, 10.0);
    let best = brute_force_assignment(&single)
        .unwrap()
        .0
        .throughput
        .to_bits();
    assert_eq!(
        brute_force_mapping(&single).unwrap().throughput.to_bits(),
        best
    );
    assert_eq!(solver_answers(&single), [Ok(best), Ok(best), Ok(best)]);

    // A NaN or negative cost: the oracles can only price every mapping
    // NaN (b's fixed cost is large enough that no module sum is
    // non-negative); the solvers refuse the problem.
    for bad in [two_tasks(f64::NAN, 1.0, 8), two_tasks(-50.0, 1.0, 8)] {
        assert!(brute_force_assignment(&bad).unwrap().0.throughput.is_nan());
        assert!(brute_force_mapping(&bad).unwrap().throughput.is_nan());
        for answer in solver_answers(&bad) {
            match answer {
                Err(SolveError::InvalidCost { detail }) => {
                    assert!(detail.starts_with("exec of task 'b' is "), "{detail}");
                    assert!(detail.ends_with(" at p = 1"), "{detail}");
                }
                other => panic!("expected InvalidCost, got {other:?}"),
            }
        }
    }
    // +∞ is legal: an infinitely slow task makes every mapping worth 0.
    let zero = 0.0f64.to_bits();
    assert_eq!(
        solver_answers(&two_tasks(f64::INFINITY, 1.0, 8)),
        [Ok(zero), Ok(zero), Ok(zero)]
    );
}

/// The greedy incumbent must stay admissible — i.e. never above the DP
/// optimum — or pruning would be unsound. Checked across seeds at P = 64.
#[test]
fn greedy_incumbent_is_admissible() {
    for seed in 0..8u64 {
        let problem = with_budget(convex_chain(5, seed, 10.0), 64, 8.0);
        let greedy =
            pipemap_core::greedy_assignment(&problem, pipemap_core::GreedyOptions::adaptive());
        let (dp, _) = dp_assignment_with(&problem, &SolveOptions::reference()).expect("feasible");
        if let Ok((gs, _)) = greedy {
            assert!(
                gs.throughput <= dp.throughput * (1.0 + 1e-9),
                "seed {seed}: greedy {} exceeds DP optimum {}",
                gs.throughput,
                dp.throughput
            );
        }
    }
}
