//! The assignment DP against the serial recurrence it is defined by.
//!
//! `dp_assignment*` runs the clustering sweep with one-task modules. This
//! suite keeps the assignment sweep's former reference path — serial,
//! unpruned, one successor slot per *raw* offer, no worker pool,
//! provenance or warm start — as the oracle of both the answers and the
//! tables:
//!
//! * under every option combination, `dp_assignment_with` returns the
//!   oracle's per-task offers and throughput bits, or the oracle's error;
//! * `dp_assignment_traced`'s `get(pt, pl, pn)` equals the oracle's
//!   `V_j(pt, pl, pn)` at every raw state, `-∞` below either floor
//!   included.
//!
//! The tie-break is part of the contract: candidates are scanned with `q`
//! ascending and only a strict improvement replaces the running best, and
//! the terminal scan takes the first best `pl`.

use pipemap_chain::{
    module_throughput, ChainBuilder, CostTable, Edge, Problem, ResponseBreakdown, Task,
};
use pipemap_core::dp::dp_assignment_traced;
use pipemap_core::{dp_assignment_with, SolveError, SolveOptions};
use pipemap_model::{MemoryReq, PolyEcom, PolyUnary};
use proptest::prelude::*;

/// The recurrence's tables and answer. `value[j][idx(pt, pl, pn)]` is
/// `V_j(pt, pl, pn)`; the final stage has only the sentinel `pn = 0`.
struct Oracle {
    p: usize,
    value: Vec<Vec<f64>>,
    offers: Vec<usize>,
    throughput: f64,
}

impl Oracle {
    fn idx(&self, pt: usize, pl: usize, pn: usize) -> usize {
        let n = self.p + 1;
        (pt * n + pl) * n + pn
    }
}

fn oracle(problem: &Problem) -> Result<Oracle, SolveError> {
    let k = problem.num_tasks();
    let p = problem.total_procs;
    let n = p + 1;
    let idx = |pt: usize, pl: usize, pn: usize| (pt * n + pl) * n + pn;
    let floors: Vec<usize> = (0..k)
        .map(|i| problem.task_floor(i).ok_or(SolveError::Infeasible))
        .collect::<Result<_, _>>()?;
    if floors.iter().sum::<usize>() > p {
        return Err(SolveError::Infeasible);
    }
    let table = CostTable::build(problem);
    let rep = |i: usize, q: usize| {
        table
            .module_replication(i, i, q)
            .expect("offer >= floor implies a replication exists")
    };
    // Task j's throughput offered `pl`, its predecessor `q` and its
    // successor `pn` raw processors (`None` at the chain's ends).
    let own = |j: usize, q: Option<usize>, pl: usize, pn: Option<usize>| {
        let r = rep(j, pl);
        let inst = r.procs_per_instance;
        module_throughput(
            ResponseBreakdown {
                incoming: q.map_or(0.0, |q| {
                    table.ecom(j - 1, rep(j - 1, q).procs_per_instance, inst)
                }),
                exec: table.exec(j, inst),
                outgoing: pn.map_or(0.0, |pn| {
                    table.ecom(j, inst, rep(j + 1, pn).procs_per_instance)
                }),
                replicas: r.instances,
            }
            .effective(),
        )
    };

    let mut value: Vec<Vec<f64>> = Vec::with_capacity(k);
    let mut parent: Vec<Vec<usize>> = Vec::with_capacity(k);
    for j in 0..k {
        let successors: Vec<usize> = if j + 1 < k {
            (floors[j + 1]..=p).collect()
        } else {
            vec![0]
        };
        let mut v = vec![f64::NEG_INFINITY; n * n * n];
        let mut par = vec![0usize; n * n * n];
        for pl in floors[j]..=p {
            for &pn in &successors {
                let next = (pn != 0).then_some(pn);
                for pt in pl..=p {
                    if j == 0 {
                        v[idx(pt, pl, pn)] = own(0, None, pl, next);
                        continue;
                    }
                    let budget = pt - pl;
                    let mut best = f64::NEG_INFINITY;
                    let mut best_q = 0;
                    for q in floors[j - 1]..=budget {
                        let sub = value[j - 1][idx(budget, q, pl)];
                        if sub <= best {
                            continue;
                        }
                        let cand = sub.min(own(j, Some(q), pl, next));
                        if cand > best {
                            best = cand;
                            best_q = q;
                        }
                    }
                    v[idx(pt, pl, pn)] = best;
                    par[idx(pt, pl, pn)] = best_q;
                }
            }
        }
        value.push(v);
        parent.push(par);
    }

    let mut best = f64::NEG_INFINITY;
    let mut best_pl = 0;
    for pl in floors[k - 1]..=p {
        let v = value[k - 1][idx(p, pl, 0)];
        if v > best {
            best = v;
            best_pl = pl;
        }
    }
    if best == f64::NEG_INFINITY {
        return Err(SolveError::Infeasible);
    }
    let mut offers = vec![0; k];
    let (mut pt, mut pl, mut pn) = (p, best_pl, 0);
    for j in (0..k).rev() {
        offers[j] = pl;
        if j > 0 {
            let q = parent[j][idx(pt, pl, pn)];
            pt -= pl;
            pn = pl;
            pl = q;
        }
    }
    Ok(Oracle {
        p,
        value,
        offers,
        throughput: best,
    })
}

/// Reference, each knob alone, and everything on (as in
/// `tests/equivalence.rs`).
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

/// Chains of 1–4 tasks on at most 16 processors. Each task may have zero
/// cost, a distributed memory floor, now and then a resident memory that
/// never fits (above `mem_per_proc` = 10) or an explicit `min_procs` of 3,
/// 6 or 9 (above small `P`), and may refuse replication; edges may be
/// free.
fn arb_problem() -> impl Strategy<Value = Problem> {
    (
        prop::collection::vec(
            (
                (0.0..1.0f64, 0.0..6.0f64, 0.0..0.1f64, any::<bool>()),
                (0..20usize, 0.0..2.0f64, 0.0..30.0f64),
                0..10usize,
                any::<bool>(),
            ),
            1..5,
        ),
        prop::collection::vec((0.0..0.4f64, 0.0..1.5f64, 0.0..0.08f64, any::<bool>()), 3),
        1..17usize,
        any::<bool>(),
    )
        .prop_map(|(tasks, edges, p, replication)| {
            let k = tasks.len();
            let mut b = ChainBuilder::new();
            for (i, ((c1, c2, c3, free), (fits, resident, distributed), min_procs, rep)) in
                tasks.into_iter().enumerate()
            {
                let resident = if fits == 0 { 11.0 } else { resident };
                let exec = if free {
                    PolyUnary::zero()
                } else {
                    PolyUnary::new(c1, c2, c3)
                };
                let mut t = Task::new(format!("t{i}"), exec)
                    .with_memory(MemoryReq::new(resident, distributed));
                if min_procs >= 7 {
                    t = t.with_min_procs((min_procs - 6) * 3);
                }
                if !rep {
                    t = t.not_replicable();
                }
                b = b.task(t);
                if i + 1 < k {
                    let (e1, e2, e3, free) = edges[i];
                    b = b.edge(if free {
                        Edge::free()
                    } else {
                        Edge::new(
                            PolyUnary::new(e1 * 0.5, 0.0, 0.0),
                            PolyEcom::new(e1, e2, e2, e3, e3),
                        )
                    });
                }
            }
            let problem = Problem::new(b.build(), p, 10.0);
            if replication {
                problem
            } else {
                problem.without_replication()
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn assignment_matches_the_serial_recurrence(problem in arb_problem()) {
        let want = oracle(&problem);
        for opts in option_matrix() {
            let got = dp_assignment_with(&problem, &opts);
            match (&want, got) {
                (Ok(o), Ok((s, a))) => {
                    prop_assert_eq!(&a.0, &o.offers, "options {:?}", opts);
                    prop_assert_eq!(
                        s.throughput.to_bits(),
                        o.throughput.to_bits(),
                        "options {:?}: {} vs oracle {}", opts, s.throughput, o.throughput
                    );
                }
                (Err(e), Err(g)) => prop_assert_eq!(e, &g, "options {:?}", opts),
                (w, g) => prop_assert!(
                    false,
                    "options {:?}: oracle {:?}, solver {:?}",
                    opts,
                    w.as_ref().map(|o| o.throughput),
                    g.map(|(s, _)| s.throughput)
                ),
            }
        }

        let traced = dp_assignment_traced(&problem);
        match (&want, traced) {
            (Ok(o), Ok(t)) => {
                prop_assert_eq!(&t.assignment, &o.offers);
                prop_assert_eq!(t.throughput.to_bits(), o.throughput.to_bits());
                let k = problem.num_tasks();
                let p = o.p;
                for (j, stage) in t.stages.iter().enumerate() {
                    prop_assert_eq!(stage.task, j);
                    // The final stage reads only the sentinel `pn = 0`.
                    let successors = if j + 1 < k { 0..=p } else { 0..=0 };
                    for pt in 0..=p {
                        for pl in 0..=p {
                            for pn in successors.clone() {
                                prop_assert_eq!(
                                    stage.get(pt, pl, pn).to_bits(),
                                    o.value[j][o.idx(pt, pl, pn)].to_bits(),
                                    "V_{}({}, {}, {}): {} vs oracle {}",
                                    j, pt, pl, pn,
                                    stage.get(pt, pl, pn),
                                    o.value[j][o.idx(pt, pl, pn)]
                                );
                            }
                        }
                    }
                }
            }
            (Err(e), Err(g)) => prop_assert_eq!(e, &g),
            (w, g) => prop_assert!(
                false,
                "traced: oracle {:?}, solver {:?}",
                w.as_ref().map(|o| o.throughput),
                g.map(|t| t.throughput)
            ),
        }
    }
}
