//! The latency solver against its former dynamic program, kept here as
//! the oracle: `best_latency_mapping` used to be its own DP over
//! `(inst, ne, pt)` cells, P·(P+1)² per stage, and is now the period
//! probe's least-latency label. The oracle below is that DP verbatim;
//! only its `use` lines and its cost-table construction differ.

use pipemap_chain::{
    min_replicas, validate, ChainBuilder, CostTable, Edge, Mapping, ModuleAssignment, Problem, Task,
};
use pipemap_core::{dp_mapping_free, latency, LatencySolution, SolveError};
use pipemap_model::{MemoryReq, PolyEcom, PolyUnary};
use proptest::prelude::*;

/// Minimise pipeline latency subject to `throughput ≥ min_throughput`,
/// over clusterings, allocations, and replication.
///
/// Dynamic program over module boundaries, as in [`crate::dp_cluster`],
/// but with two changes fitting the latency objective:
///
/// * the value is the *sum* of `incoming + exec` stage times of the
///   prefix (minimised), not the bottleneck;
/// * replication is a free per-module choice rather than the §3.2
///   maximal rule — replication never reduces latency, so the optimal
///   degree is the *smallest* `r` meeting the floor. Since a stage's
///   response `f = cin + exec + out` is a function of instance sizes
///   only, `r*` is [`min_replicas`] of `f`, decided by the evaluator so
///   that the mapping's throughput is never below the floor, and the
///   state is keyed by the module's *instance size* with `r*` folded into
///   the budget accounting at each transition.
pub fn best_latency_mapping(
    problem: &Problem,
    min_throughput: f64,
) -> Result<LatencySolution, SolveError> {
    assert!(
        min_throughput >= 0.0 && min_throughput.is_finite(),
        "throughput floor must be a finite non-negative rate"
    );
    let table = CostTable::build(problem);
    let k = problem.num_tasks();
    let p = problem.total_procs;

    // Fewest replicas with which stage response `f` meets the floor, by
    // the evaluator's own test; `None` if no degree ≤ max_r does or the
    // module may not replicate.
    let required_r = |f: f64, replicable: bool, max_r: usize| {
        min_replicas(f, min_throughput, if replicable { max_r } else { 1 })
    };

    // Stage tables keyed by (end task j, module length L):
    // value[(inst-1, ne, pt)] = minimal prefix latency with the last
    // module at instance size `inst`, given the next module's instance
    // size `ne` (0 = none) and at most `pt` processors for the prefix.
    let idx =
        |inst: usize, ne: usize, pt: usize| -> usize { ((inst - 1) * (p + 1) + ne) * (p + 1) + pt };
    let stage_len = p * (p + 1) * (p + 1);
    let stage_key = |j: usize, l: usize| j * k + (l - 1);
    let mut value: Vec<Option<Vec<f64>>> = (0..k * k).map(|_| None).collect();
    let mut parent: Vec<Option<Vec<(u16, u16)>>> = (0..k * k).map(|_| None).collect();

    for j in 0..k {
        for l in 1..=j + 1 {
            let first = j + 1 - l;
            let Some(floor) = table.module_floor(first, j) else {
                continue;
            };
            if floor > p {
                continue;
            }
            let replicable = table.module_replicable(first, j);
            let mut v = vec![f64::INFINITY; stage_len];
            let mut par = vec![(0u16, 0u16); stage_len];
            let ne_values: Vec<usize> = if j + 1 == k {
                vec![0]
            } else {
                (1..=p).collect()
            };
            for inst in floor..=p {
                let exec = table.module_exec(first, j, inst);
                // Previous-module options: (prev_len, prev_inst, cin).
                let mut prev_opts: Vec<(usize, usize, f64)> = Vec::new();
                if first > 0 {
                    for prev_len in 1..=first {
                        let prev_first = first - prev_len;
                        let Some(pf) = table.module_floor(prev_first, first - 1) else {
                            continue;
                        };
                        for prev_inst in pf..=p {
                            prev_opts.push((
                                prev_len,
                                prev_inst,
                                table.ecom(first - 1, prev_inst, inst),
                            ));
                        }
                    }
                }
                for &ne in &ne_values {
                    let out = if ne == 0 {
                        0.0
                    } else {
                        table.ecom(j, inst, ne)
                    };
                    if first == 0 {
                        let f = exec + out;
                        let Some(r) = required_r(f, replicable, p / inst) else {
                            continue;
                        };
                        let spend = inst * r;
                        for pt in spend..=p {
                            let slot = &mut v[idx(inst, ne, pt)];
                            if exec < *slot {
                                *slot = exec;
                            }
                        }
                    } else {
                        for pt in inst..=p {
                            let mut best = f64::INFINITY;
                            let mut best_par = (0u16, 0u16);
                            for &(prev_len, prev_inst, cin) in &prev_opts {
                                let f = cin + exec + out;
                                let Some(r) = required_r(f, replicable, p / inst) else {
                                    continue;
                                };
                                let spend = inst * r;
                                if spend > pt {
                                    continue;
                                }
                                let budget = pt - spend;
                                let Some(sub_v) = value[stage_key(first - 1, prev_len)].as_ref()
                                else {
                                    continue;
                                };
                                if prev_inst > budget {
                                    continue;
                                }
                                let sub = sub_v[idx(prev_inst, inst, budget)];
                                if !sub.is_finite() {
                                    continue;
                                }
                                let cand = sub + cin + exec;
                                if cand < best {
                                    best = cand;
                                    best_par = (prev_len as u16, prev_inst as u16);
                                }
                            }
                            let slot = &mut v[idx(inst, ne, pt)];
                            if best < *slot {
                                *slot = best;
                                par[idx(inst, ne, pt)] = best_par;
                            }
                        }
                    }
                }
            }
            value[stage_key(j, l)] = Some(v);
            parent[stage_key(j, l)] = Some(par);
        }
    }

    // Answer.
    let mut best = f64::INFINITY;
    let mut best_l = 0;
    let mut best_inst = 0;
    for l in 1..=k {
        let Some(v) = value[stage_key(k - 1, l)].as_ref() else {
            continue;
        };
        for inst in 1..=p {
            let cand = v[idx(inst, 0, p)];
            if cand < best {
                best = cand;
                best_l = l;
                best_inst = inst;
            }
        }
    }
    if !best.is_finite() {
        return Err(SolveError::Infeasible);
    }

    // Reconstruct, recomputing each module's r* from its neighbours.
    let mut modules_rev: Vec<ModuleAssignment> = Vec::new();
    let (mut j, mut l, mut inst, mut ne, mut pt) = (k - 1, best_l, best_inst, 0usize, p);
    loop {
        let first = j + 1 - l;
        let replicable = table.module_replicable(first, j);
        let exec = table.module_exec(first, j, inst);
        let out = if ne == 0 {
            0.0
        } else {
            table.ecom(j, inst, ne)
        };
        let (prev_len, prev_inst) = if first == 0 {
            (0usize, 0usize)
        } else {
            let par = parent[stage_key(j, l)].as_ref().expect("visited stage")[idx(inst, ne, pt)];
            (par.0 as usize, par.1 as usize)
        };
        let cin = if first == 0 {
            0.0
        } else {
            table.ecom(first - 1, prev_inst, inst)
        };
        let r = required_r(cin + exec + out, replicable, p / inst)
            .expect("reconstruction follows feasible states");
        modules_rev.push(ModuleAssignment::new(first, j, r, inst));
        if first == 0 {
            break;
        }
        pt -= inst * r;
        ne = inst;
        j = first - 1;
        l = prev_len;
        inst = prev_inst;
    }
    modules_rev.reverse();
    let mapping = Mapping::new(modules_rev);
    let lat = latency(&problem.chain, &mapping);
    let thr = pipemap_chain::throughput(&problem.chain, &mapping);
    debug_assert!(
        (lat - best).abs() <= 1e-9 * best.max(1.0),
        "latency DP value {best} disagrees with evaluator {lat}"
    );
    Ok(LatencySolution {
        mapping,
        latency: lat,
        throughput: thr,
    })
}

/// A random chain of at most six tasks on at most twenty processors,
/// with memory floors, clustering and (sometimes) replication.
fn arb_problem() -> impl Strategy<Value = Problem> {
    (
        prop::collection::vec(
            (
                0.0..1.5f64,
                0.1..6.0f64,
                0.0..0.15f64,
                0.0..25.0f64,
                any::<bool>(),
            ),
            1..7,
        ),
        prop::collection::vec((0.0..0.4f64, 0.0..1.5f64, 0.0..0.08f64), 5),
        2..21usize,
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

    /// At floors 0, `u·T*`, `T*` and the float above `T*` (`T*` the
    /// free-replication optimum), the probe and the former DP agree on
    /// feasibility and on the least latency, and the probe's mapping is
    /// valid and meets the floor.
    #[test]
    fn probe_latency_matches_the_former_dp(problem in arb_problem(), u in 0.0..1.0f64) {
        let Ok(best) = dp_mapping_free(&problem) else {
            prop_assert!(best_latency_mapping(&problem, 0.0).is_err());
            prop_assert!(pipemap_core::best_latency_mapping(&problem, 0.0).is_err());
            return Ok(());
        };
        let t = best.throughput;
        for floor in [0.0, u * t, t, f64::from_bits(t.to_bits() + 1)] {
            match (pipemap_core::best_latency_mapping(&problem, floor), best_latency_mapping(&problem, floor)) {
                (Ok(fast), Ok(slow)) => {
                    prop_assert!(
                        (fast.latency - slow.latency).abs() <= 1e-12 * slow.latency,
                        "floor {floor}: probe {} ({:?}) vs dp {} ({:?})",
                        fast.latency, fast.mapping, slow.latency, slow.mapping
                    );
                    prop_assert!(validate(&problem, &fast.mapping).is_ok());
                    prop_assert!(fast.throughput >= floor, "floor {floor}: {}", fast.throughput);
                }
                (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
                (fast, slow) => prop_assert!(
                    false,
                    "floor {floor}: probe {:?} vs dp {:?}",
                    fast.map(|s| s.latency),
                    slow.map(|s| s.latency)
                ),
            }
        }
    }
}
