//! Oracle validation of the decision-provenance layer.
//!
//! Two contracts are enforced here:
//!
//! 1. **Margins are exact.** [`stability_margins`] claims that scaling one
//!    stage's execution cost (or one edge's communication cost) by any
//!    factor strictly inside `(exec_down, exec_up)` leaves the analysed
//!    mapping optimal, and that stepping just outside flips the optimum.
//!    The brute-force solvers are the judge: at P ≤ 16 we rebuild the
//!    problem with the perturbation applied, enumerate every mapping, and
//!    check that the chosen mapping is exactly optimal 1% inside the
//!    margin and strictly beaten 1% outside it.
//!
//! 2. **Recording is free of side effects.** Solving with the provenance
//!    recorder on must return bit-identical throughput and the identical
//!    mapping to the plain solve at the same options — recording observes
//!    the DP, it never steers it (property test over random chains).

use pipemap_chain::{ChainBuilder, Edge, Mapping, Problem, Task};
use pipemap_core::{
    brute_force_assignment, contract_chain, dp_assignment, dp_assignment_provenance,
    dp_assignment_with, dp_mapping_provenance, dp_mapping_with, stability_margins, Solution,
    SolveOptions,
};
use pipemap_model::{MemoryReq, PolyEcom, PolyUnary};
use proptest::prelude::*;

/// One test chain: per-task `(c1, c2, c3, mem, replicable)` exec models and
/// per-edge `(icom scale, ecom (c1..c5))` communication models.
struct Spec {
    tasks: Vec<(f64, f64, f64, f64, bool)>,
    edges: Vec<(f64, [f64; 5])>,
    procs: usize,
    mem_per_proc: f64,
    replication: bool,
}

/// What to perturb when rebuilding the chain, in *contracted-stage* terms:
/// `Exec` scales every member task of `tasks` (plus the internal
/// communication between them), `Ecom` scales one boundary edge.
#[derive(Clone, Copy)]
enum Perturb {
    None,
    /// Scale the exec of original tasks `first..=last` by `gamma`.
    Exec {
        first: usize,
        last: usize,
        gamma: f64,
    },
    /// Scale original edge `e`'s communication (icom and ecom) by `gamma`.
    Ecom {
        edge: usize,
        gamma: f64,
    },
}

fn build(spec: &Spec, perturb: Perturb) -> Problem {
    let mut b = ChainBuilder::new();
    for (i, &(c1, c2, c3, mem, rep)) in spec.tasks.iter().enumerate() {
        let mut exec = PolyUnary::new(c1, c2, c3);
        if let Perturb::Exec { first, last, gamma } = perturb {
            if i >= first && i <= last {
                exec = exec.scale(gamma);
            }
        }
        let mut t = Task::new(format!("t{i}"), exec).with_memory(MemoryReq::new(0.0, mem));
        if !rep {
            t = t.not_replicable();
        }
        b = b.task(t);
        if i < spec.edges.len() {
            let (ic, ec) = spec.edges[i];
            let mut icom = PolyUnary::new(ic, 0.0, 0.0);
            let mut ecom = PolyEcom::new(ec[0], ec[1], ec[2], ec[3], ec[4]);
            let scale = match perturb {
                // A stage-exec perturbation covers the module's internal
                // redistribution too: icom of edges strictly inside the
                // member range is part of the contracted module's f_exec.
                Perturb::Exec { first, last, gamma } if i >= first && i < last => {
                    Some((gamma, 1.0))
                }
                Perturb::Ecom { edge, gamma } if i == edge => Some((gamma, gamma)),
                _ => None,
            };
            if let Some((gi, ge)) = scale {
                icom = icom.scale(gi);
                ecom = ecom.scale(ge);
            }
            b = b.edge(Edge::new(icom, ecom));
        }
    }
    let problem = Problem::new(b.build(), spec.procs, spec.mem_per_proc);
    if spec.replication {
        problem
    } else {
        problem.without_replication()
    }
}

/// Throughput the fixed `mapping` achieves on the perturbed problem vs the
/// best any mapping (with the same clustering) achieves. Clustering is the
/// margin report's frame of reference, so the oracle enumerates processor
/// assignments of the *contracted* chain.
fn oracle_vs_mapped(spec: &Spec, mapping: &Mapping, perturb: Perturb) -> (f64, f64) {
    let scaled = build(spec, perturb);
    let mapped = Solution::from_mapping(&scaled, mapping.clone()).throughput;
    let clustering: Vec<(usize, usize)> =
        mapping.modules.iter().map(|m| (m.first, m.last)).collect();
    let contracted = contract_chain(&scaled, &clustering);
    let (best, _) = brute_force_assignment(&contracted.problem).expect("oracle solves");
    (best.throughput, mapped)
}

/// Check every finite margin of `mapping` on `spec` against the oracle:
/// 1% inside the margin the mapping must still be exactly optimal, 1%
/// outside a different assignment must be strictly better. Returns the
/// number of (stage, direction) flips actually exercised.
fn check_margins_against_oracle(spec: &Spec, mapping: &Mapping) -> usize {
    let problem = build(spec, Perturb::None);
    let report = stability_margins(&problem, mapping).expect("margins computed");
    let mut flips = 0;
    for stage in &report.stages {
        let exec = Perturb::Exec {
            first: stage.first,
            last: stage.last,
            gamma: 1.0,
        };
        let with_gamma = |p: Perturb, g: f64| match p {
            Perturb::Exec { first, last, .. } => Perturb::Exec {
                first,
                last,
                gamma: g,
            },
            Perturb::Ecom { edge, .. } => Perturb::Ecom { edge, gamma: g },
            Perturb::None => unreachable!(),
        };
        let mut probes: Vec<(Perturb, f64, f64)> = vec![(exec, stage.exec_up, stage.exec_down)];
        if stage.index > 0 {
            // Incoming boundary edge of this stage in original-chain
            // numbering: the edge after the previous module's last task.
            let edge = stage.first - 1;
            let ecom = Perturb::Ecom { edge, gamma: 1.0 };
            probes.push((ecom, stage.ecom_in_up, stage.ecom_in_down));
        }
        for (probe, up, down) in probes {
            if up.is_finite() && up < 100.0 {
                // 1% inside: still exactly optimal. Clamp towards 1 so a
                // margin barely above 1 stays inside the open interval.
                let inside = (up * 0.99).max(1.0 + 0.5 * (up - 1.0));
                let (best, mapped) = oracle_vs_mapped(spec, mapping, with_gamma(probe, inside));
                assert!(
                    (best - mapped).abs() <= 1e-9 * best.abs().max(1.0),
                    "γ = {inside} inside up-margin {up} of stage {}: oracle {best} vs mapped {mapped}",
                    stage.index,
                );
                // 1% outside: strictly beaten.
                let outside = up * 1.01;
                let (best, mapped) = oracle_vs_mapped(spec, mapping, with_gamma(probe, outside));
                assert!(
                    best > mapped * (1.0 + 1e-9),
                    "γ = {outside} outside up-margin {up} of stage {}: oracle {best} vs mapped {mapped}",
                    stage.index,
                );
                flips += 1;
            }
            if down > 0.01 {
                let inside = (down * 1.01).min(1.0 - 0.5 * (1.0 - down));
                let (best, mapped) = oracle_vs_mapped(spec, mapping, with_gamma(probe, inside));
                assert!(
                    (best - mapped).abs() <= 1e-9 * best.abs().max(1.0),
                    "γ = {inside} inside down-margin {down} of stage {}: oracle {best} vs mapped {mapped}",
                    stage.index,
                );
                let outside = down * 0.99;
                let (best, mapped) = oracle_vs_mapped(spec, mapping, with_gamma(probe, outside));
                assert!(
                    best > mapped * (1.0 + 1e-9),
                    "γ = {outside} outside down-margin {down} of stage {}: oracle {best} vs mapped {mapped}",
                    stage.index,
                );
                flips += 1;
            }
        }
    }
    flips
}

#[test]
fn assignment_margins_match_brute_oracle() {
    let specs = [
        // Three unequal tasks, real transfer costs, no replication.
        Spec {
            tasks: vec![
                (0.1, 6.0, 0.0, 0.0, true),
                (0.0, 9.0, 0.05, 0.0, true),
                (0.2, 4.0, 0.0, 0.0, true),
            ],
            edges: vec![
                (0.01, [0.05, 0.4, 0.4, 0.01, 0.0]),
                (0.0, [0.1, 0.6, 0.2, 0.0, 0.02]),
            ],
            procs: 12,
            mem_per_proc: 1e9,
            replication: false,
        },
        // Replication with memory floors: offers change with the budget.
        Spec {
            tasks: vec![
                (0.05, 8.0, 0.0, 2.5, true),
                (0.3, 3.0, 0.02, 1.2, false),
                (0.0, 7.0, 0.0, 2.0, true),
            ],
            edges: vec![
                (0.0, [0.02, 0.5, 0.3, 0.0, 0.01]),
                (0.02, [0.0, 0.3, 0.5, 0.01, 0.0]),
            ],
            procs: 16,
            mem_per_proc: 1.0,
            replication: true,
        },
        // Four stages on a tight budget: down-margins engage.
        Spec {
            tasks: vec![
                (0.0, 5.0, 0.0, 0.0, true),
                (0.1, 2.0, 0.0, 0.0, true),
                (0.0, 6.0, 0.03, 0.0, true),
                (0.05, 3.0, 0.0, 0.0, true),
            ],
            edges: vec![
                (0.0, [0.05, 0.3, 0.3, 0.0, 0.0]),
                (0.01, [0.0, 0.5, 0.2, 0.02, 0.0]),
                (0.0, [0.1, 0.2, 0.4, 0.0, 0.01]),
            ],
            procs: 10,
            mem_per_proc: 1e9,
            replication: false,
        },
    ];
    let mut flips = 0;
    for spec in &specs {
        let problem = build(spec, Perturb::None);
        let (sol, _) = dp_assignment(&problem).expect("solvable");
        flips += check_margins_against_oracle(spec, &sol.mapping);
    }
    assert!(
        flips >= 6,
        "only {flips} margin flips exercised — specs too tame"
    );
}

#[test]
fn cluster_margins_match_brute_oracle_with_clustering_fixed() {
    // Light middle tasks joined by an expensive transfer, with per-proc
    // overhead making wide allocations costly: the cluster DP fuses the
    // middle pair but keeps the heavy ends separate, so the margin report
    // runs on a genuinely contracted problem ({0}, {1,2}, {3}).
    let spec = Spec {
        tasks: vec![
            (0.0, 7.0, 0.06, 0.0, true),
            (0.05, 1.0, 0.02, 0.0, true),
            (0.0, 1.2, 0.02, 0.0, true),
            (0.1, 6.0, 0.06, 0.0, true),
        ],
        edges: vec![
            (0.0, [0.02, 0.1, 0.1, 0.0, 0.0]),
            (0.01, [0.6, 1.0, 1.0, 0.05, 0.05]),
            (0.0, [0.02, 0.1, 0.1, 0.0, 0.0]),
        ],
        procs: 12,
        mem_per_proc: 1e9,
        replication: false,
    };
    let problem = build(&spec, Perturb::None);
    let (sol, prov) = dp_mapping_provenance(&problem, &SolveOptions::default()).expect("solvable");
    assert_eq!(prov.algorithm, "dp_mapping");
    assert_eq!(prov.cells.len(), sol.mapping.modules.len());
    assert!(
        sol.mapping.modules.len() < spec.tasks.len(),
        "spec intended to force clustering, got {:?}",
        sol.mapping.modules,
    );
    let flips = check_margins_against_oracle(&spec, &sol.mapping);
    assert!(flips >= 2, "only {flips} margin flips exercised");
}

/// A small random problem mirroring the equivalence-suite generator:
/// k ≤ 4 tasks, P ≤ 12, optional replication with memory floors.
fn arb_problem() -> impl Strategy<Value = Problem> {
    (
        prop::collection::vec(
            (
                0.0..1.0f64,
                0.1..6.0f64,
                0.0..0.1f64,
                0.0..20.0f64,
                any::<bool>(),
            ),
            1..5,
        ),
        prop::collection::vec((0.0..0.3f64, 0.0..1.2f64, 0.0..0.05f64), 4),
        3..13usize,
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Provenance recording must not perturb any solver result: same
    /// throughput bits, same mapping, and a plausibly-shaped record.
    #[test]
    fn provenance_recording_is_bit_identical(problem in arb_problem()) {
        let unpruned = SolveOptions { prune: false, ..SolveOptions::default() };

        match (
            dp_assignment_with(&problem, &unpruned),
            dp_assignment_provenance(&problem, &SolveOptions::default()),
        ) {
            (Ok((plain, assignment)), Ok((prov_sol, prov_assignment, prov))) => {
                prop_assert_eq!(
                    plain.throughput.to_bits(),
                    prov_sol.throughput.to_bits(),
                );
                prop_assert_eq!(&plain.mapping, &prov_sol.mapping);
                prop_assert_eq!(&assignment, &prov_assignment);
                prop_assert_eq!(prov.algorithm, "dp_assignment");
                prop_assert!(prov.exact_runner_ups);
                prop_assert_eq!(prov.cells.len(), plain.mapping.modules.len());
                prop_assert_eq!(prov.throughput.to_bits(), plain.throughput.to_bits());
                // Chosen beats (or ties) its own runner-up in every cell.
                for cell in &prov.cells {
                    if let Some(ru) = &cell.runner_up {
                        prop_assert!(ru.value <= cell.value);
                    }
                }
                let budget: usize = prov.cells.iter().map(|c| c.offer).sum();
                prop_assert!(budget <= problem.total_procs);
            }
            (Err(_), Err(_)) => {}
            (plain, prov) => prop_assert!(
                false,
                "solvability must not depend on recording: {:?} vs {:?}",
                plain.map(|(s, _)| s.throughput),
                prov.map(|(s, _, _)| s.throughput),
            ),
        }

        match (
            dp_mapping_with(&problem, &unpruned),
            dp_mapping_provenance(&problem, &SolveOptions::default()),
        ) {
            (Ok(plain), Ok((prov_sol, prov))) => {
                prop_assert_eq!(
                    plain.throughput.to_bits(),
                    prov_sol.throughput.to_bits(),
                );
                prop_assert_eq!(&plain.mapping, &prov_sol.mapping);
                prop_assert_eq!(prov.algorithm, "dp_mapping");
                prop_assert_eq!(prov.cells.len(), plain.mapping.modules.len());
                prop_assert_eq!(prov.throughput.to_bits(), plain.throughput.to_bits());
                for cell in &prov.cells {
                    if let Some(ru) = &cell.runner_up {
                        prop_assert!(ru.value <= cell.value);
                    }
                }
            }
            (Err(_), Err(_)) => {}
            (plain, prov) => prop_assert!(
                false,
                "solvability must not depend on recording: {:?} vs {:?}",
                plain.map(|s| s.throughput),
                prov.map(|(s, _)| s.throughput),
            ),
        }

        // The flag alone (without the dedicated entry points, pruning
        // still on) must also leave the optimised path bit-identical.
        let flagged = SolveOptions { provenance: true, ..SolveOptions::default() };
        match (
            dp_assignment_with(&problem, &SolveOptions::default()),
            dp_assignment_with(&problem, &flagged),
        ) {
            (Ok((a, aa)), Ok((b, bb))) => {
                prop_assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
                prop_assert_eq!(&aa, &bb);
            }
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "flag changed solvability"),
        }
    }

    /// Margins on random solvable chains are internally consistent:
    /// `exec_down ≤ 1 ≤ exec_up`, the bottleneck has slack 1, and the
    /// report's throughput matches the solver's.
    #[test]
    fn margin_reports_are_well_formed(problem in arb_problem()) {
        if let Ok((sol, _)) = dp_assignment(&problem) {
            let report = stability_margins(&problem, &sol.mapping).expect("margins");
            prop_assert_eq!(report.throughput.to_bits(), sol.throughput.to_bits());
            prop_assert_eq!(report.stages.len(), sol.mapping.modules.len());
            for s in &report.stages {
                prop_assert!(s.exec_up >= 1.0, "exec_up = {} < 1", s.exec_up);
                prop_assert!(s.exec_down <= 1.0 + 1e-12, "exec_down = {} > 1", s.exec_down);
                prop_assert!(s.slack >= 1.0 - 1e-9, "slack = {} < 1", s.slack);
            }
            let b = &report.stages[report.bottleneck];
            prop_assert!((b.slack - 1.0).abs() <= 1e-9, "bottleneck slack = {}", b.slack);
        }
    }
}
