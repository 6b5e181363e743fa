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
//!   throughput floor, over the same search space as the throughput DP
//!   (clustering × allocation × policy replication). The state space is
//!   identical to `dp_mapping`'s; only the objective changes from
//!   `max(min throughput)` to `min(sum of stage times)` with a
//!   throughput feasibility filter — so the solver doubles as an
//!   independent check of the DP state construction.

use pipemap_chain::{module_response, Mapping, ModuleAssignment, Problem, TaskChain};

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
/// Dynamic program over module boundaries, as in [`crate::dp_cluster`],
/// but with two changes fitting the latency objective:
///
/// * the value is the *sum* of `incoming + exec` stage times of the
///   prefix (minimised), not the bottleneck;
/// * replication is a free per-module choice rather than the §3.2
///   maximal rule — replication never reduces latency, so the optimal
///   degree is the *smallest* `r` meeting the floor. Since a stage's
///   response `f = cin + exec + out` is a function of instance sizes
///   only, `r* = max(1, ⌈f · floor⌉)` is closed-form, and the state is
///   keyed by the module's *instance size* with `r*` folded into the
///   budget accounting at each transition.
pub fn best_latency_mapping(
    problem: &Problem,
    min_throughput: f64,
) -> Result<LatencySolution, SolveError> {
    assert!(
        min_throughput >= 0.0 && min_throughput.is_finite(),
        "throughput floor must be a finite non-negative rate"
    );
    let table = checked_table(problem)?;
    let k = problem.num_tasks();
    let p = problem.total_procs;

    // Smallest replication degree putting stage response `f` under the
    // floor; `None` if no degree ≤ max_r works or replication is not
    // allowed beyond 1.
    let required_r = |f: f64, replicable: bool, max_r: usize| -> Option<usize> {
        if min_throughput <= 0.0 {
            return Some(1);
        }
        let need = (f * min_throughput).ceil().max(1.0);
        if need > max_r as f64 {
            return None;
        }
        let r = need as usize;
        if r > 1 && !replicable {
            return None;
        }
        Some(r)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp_cluster::dp_mapping;
    use pipemap_chain::{validate, ChainBuilder, Edge, Task};
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
        let sol = best_latency_mapping(&p, thr_opt.throughput * (1.0 - 1e-9)).unwrap();
        assert!(sol.throughput >= thr_opt.throughput * (1.0 - 1e-6));
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
