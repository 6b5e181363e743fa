//! Optimal mapping with *free* replication degrees.
//!
//! The paper's §3.2 rule — replicate maximally subject to the memory
//! floor — lets the throughput DP treat replication as a function of the
//! processors offered to a module. Two failure modes of that rule were
//! surfaced by this reproduction's tests (see EXPERIMENTS.md): remainder
//! loss when the floor does not divide the offer, and neighbour coupling
//! (an instance's size appears in its *neighbours'* transfer costs, so
//! shattering a module into floor-sized instances can slow the modules
//! next to it).
//!
//! This solver removes the rule and optimises replication degrees
//! exactly, with a classic minimax decomposition:
//!
//! 1. **Feasibility subproblem.** For a candidate throughput `T`, every
//!    module must satisfy `f/r ≤ 1/T`, i.e. `r ≥ ⌈f·T⌉`, where the stage
//!    response `f = cin + exec + cout` depends only on *instance sizes*.
//!    So for fixed clustering and instance sizes the cheapest replication
//!    is closed-form, and the minimum total processor count that achieves
//!    `T` is a dynamic program over (module extent, instance size) — the
//!    same boundary decomposition as [`crate::dp_cluster`], with value =
//!    processors instead of throughput.
//! 2. **Binary search** on `T` over the achievable range. Feasible
//!    throughputs form a down-closed set (any mapping reaching `T` also
//!    reaches every `T' < T`), so bisection converges; we refine to a
//!    relative width of 2⁻⁴⁰ and return the mapping of the last feasible
//!    probe, whose *actual* evaluated throughput is reported.
//!
//! Cost: `O(log(1/ε) · k³ P³)` — for the paper's scale comparable to the
//! policy DP, and the result is never worse (also property-tested).

use pipemap_chain::{CostTable, Mapping, ModuleAssignment, Problem};

use crate::solution::{checked_table, Solution, SolveError};

/// Minimum processors needed to reach throughput `t`, plus the mapping
/// achieving it; `None` if `t` is unreachable within the budget.
struct FeasibleProbe {
    mapping: Mapping,
}

/// One DP run of the feasibility subproblem. `None` if no mapping meets
/// the target within the processor budget.
fn min_procs_for_throughput(
    problem: &Problem,
    table: &CostTable,
    target: f64,
) -> Option<FeasibleProbe> {
    let k = problem.num_tasks();
    let p = problem.total_procs;

    // Smallest replication degree putting stage response `f` under 1/t.
    let required_r = |f: f64, replicable: bool, inst: usize| -> Option<usize> {
        if target <= 0.0 {
            return Some(1);
        }
        if !f.is_finite() {
            return None;
        }
        let need = (f * target).ceil().max(1.0);
        let max_r = p / inst;
        if need > max_r as f64 {
            return None;
        }
        let r = need as usize;
        if r > 1 && !replicable {
            return None;
        }
        Some(r)
    };

    // value[(j, L)][(inst-1) * (p+1) + ne] = min processors for the
    // prefix 0..=j whose last module [j-L+1..=j] has instance size
    // `inst`, given the next module's instance size `ne` (0 = none).
    let idx = |inst: usize, ne: usize| (inst - 1) * (p + 1) + ne;
    let stage_len = p * (p + 1);
    let stage_key = |j: usize, l: usize| j * k + (l - 1);
    let mut value: Vec<Option<Vec<usize>>> = (0..k * k).map(|_| None).collect();
    let mut parent: Vec<Option<Vec<(u16, u16)>>> = (0..k * k).map(|_| None).collect();
    const UNREACHABLE: usize = usize::MAX;

    // Shared across all stages: the raw `ne` enumeration and the chain-end
    // sentinel (no per-stage allocation).
    let all_ne: Vec<usize> = (1..=p).collect();
    let sentinel = [0usize];
    let dense = table.dense();

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
            let mut v = vec![UNREACHABLE; stage_len];
            let mut par = vec![(0u16, 0u16); stage_len];
            let ne_values: &[usize] = if j + 1 == k { &sentinel } else { &all_ne };
            // The predecessor (length, instance) pairs are the same for
            // every `inst` of this module; only the transfer cost differs,
            // and that is a dense-slab read.
            let mut prev_opts: Vec<(usize, usize)> = Vec::new();
            if first > 0 {
                for prev_len in 1..=first {
                    let prev_first = first - prev_len;
                    let Some(pf) = table.module_floor(prev_first, first - 1) else {
                        continue;
                    };
                    for prev_inst in pf..=p {
                        prev_opts.push((prev_len, prev_inst));
                    }
                }
            }
            let in_slab = if first > 0 {
                Some(dense.ecom_slab(first - 1))
            } else {
                None
            };
            for inst in floor..=p {
                let exec = table.module_exec(first, j, inst);
                for &ne in ne_values {
                    let out = if ne == 0 {
                        0.0
                    } else {
                        table.ecom(j, inst, ne)
                    };
                    if first == 0 {
                        if let Some(r) = required_r(exec + out, replicable, inst) {
                            let spend = inst * r;
                            if spend <= p {
                                let slot = &mut v[idx(inst, ne)];
                                if spend < *slot {
                                    *slot = spend;
                                }
                            }
                        }
                    } else {
                        let slab = in_slab.expect("in_slab exists when first > 0");
                        let mut best = UNREACHABLE;
                        let mut best_par = (0u16, 0u16);
                        for &(prev_len, prev_inst) in &prev_opts {
                            let cin = slab[(prev_inst - 1) * p + (inst - 1)];
                            let Some(r) = required_r(cin + exec + out, replicable, inst) else {
                                continue;
                            };
                            let spend = inst * r;
                            let Some(sub_v) = value[stage_key(first - 1, prev_len)].as_ref() else {
                                continue;
                            };
                            let sub = sub_v[idx(prev_inst, inst)];
                            if sub == UNREACHABLE {
                                continue;
                            }
                            let total = sub.saturating_add(spend);
                            if total <= p && total < best {
                                best = total;
                                best_par = (prev_len as u16, prev_inst as u16);
                            }
                        }
                        let slot = &mut v[idx(inst, ne)];
                        if best < *slot {
                            *slot = best;
                            par[idx(inst, ne)] = best_par;
                        }
                    }
                }
            }
            value[stage_key(j, l)] = Some(v);
            parent[stage_key(j, l)] = Some(par);
        }
    }

    // Best terminal state.
    let mut best = UNREACHABLE;
    let mut best_l = 0;
    let mut best_inst = 0;
    for l in 1..=k {
        let Some(v) = value[stage_key(k - 1, l)].as_ref() else {
            continue;
        };
        for inst in 1..=p {
            let cand = v[idx(inst, 0)];
            if cand < best {
                best = cand;
                best_l = l;
                best_inst = inst;
            }
        }
    }
    if best == UNREACHABLE {
        return None;
    }

    // Reconstruct, recomputing r from the neighbours at each hop.
    let mut modules_rev: Vec<ModuleAssignment> = Vec::new();
    let (mut j, mut l, mut inst, mut ne) = (k - 1, best_l, best_inst, 0usize);
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
            let par = parent[stage_key(j, l)].as_ref().expect("visited stage")[idx(inst, ne)];
            (par.0 as usize, par.1 as usize)
        };
        let cin = if first == 0 {
            0.0
        } else {
            table.ecom(first - 1, prev_inst, inst)
        };
        let r = required_r(cin + exec + out, replicable, inst)
            .expect("reconstruction follows feasible states");
        modules_rev.push(ModuleAssignment::new(first, j, r, inst));
        if first == 0 {
            break;
        }
        ne = inst;
        j = first - 1;
        l = prev_len;
        inst = prev_inst;
    }
    modules_rev.reverse();
    Some(FeasibleProbe {
        mapping: Mapping::new(modules_rev),
    })
}

/// Optimal mapping with replication degrees chosen freely (each module
/// may use any `r ≥ 1` with `r × instance ≤ P`, subject to
/// replicability), rather than the §3.2 maximal rule. Never worse than
/// [`crate::dp_cluster::dp_mapping`]; strictly better when the rule's
/// remainder or neighbour-coupling losses bite.
pub fn dp_mapping_free(problem: &Problem) -> Result<Solution, SolveError> {
    let table = checked_table(problem)?;

    // Anchor: T = 0 must be feasible iff the problem is feasible at all.
    let Some(base) = min_procs_for_throughput(problem, &table, 0.0) else {
        return Err(SolveError::Infeasible);
    };
    let base_thr = pipemap_chain::throughput(&problem.chain, &base.mapping);
    if base_thr.is_infinite() {
        return Ok(Solution::from_mapping(problem, base.mapping));
    }

    // Find an infeasible upper bound by doubling.
    let mut lo = base_thr.max(1e-12);
    let mut best = base;
    let mut hi = lo * 2.0;
    let mut doublings = 0;
    while let Some(probe) = min_procs_for_throughput(problem, &table, hi) {
        best = probe;
        lo = hi;
        hi *= 2.0;
        doublings += 1;
        if doublings > 60 {
            // Effectively unbounded throughput (zero-cost stages).
            return Ok(Solution::from_mapping(problem, best.mapping));
        }
    }

    // Bisect to relative precision.
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        match min_procs_for_throughput(problem, &table, mid) {
            Some(probe) => {
                best = probe;
                lo = mid;
            }
            None => hi = mid,
        }
    }
    Ok(Solution::from_mapping(problem, best.mapping))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp_cluster::dp_mapping;
    use pipemap_chain::{validate, ChainBuilder, Edge, Task};
    use pipemap_model::{MemoryReq, PolyEcom, PolyUnary};

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
                        free.throughput >= policy.throughput * (1.0 - 1e-9),
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
        assert!(
            (free.throughput - best).abs() <= 1e-6 * best,
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
        assert!((free.throughput - 1.0).abs() < 1e-9);
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
}
