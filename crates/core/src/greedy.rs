//! The fast heuristic processor-assignment algorithm (§4.1).
//!
//! Starting from the memory floors, the greedy algorithm repeatedly finds
//! the *bottleneck* task (largest effective response time) and adds one
//! processor wherever it helps that bottleneck most — to the bottleneck
//! itself, or to one of its neighbours, whose processor counts enter the
//! bottleneck's response through the communication functions. Because
//! throughput is not monotone in the number of allocated processors, the
//! algorithm remembers the best assignment ever seen (`A_opt` in the
//! paper's Procedure `Greedy`).
//!
//! Variants:
//!
//! * [`GreedyVariant::Neighbors`] — the paper's main procedure;
//! * [`GreedyVariant::BottleneckOnly`] — Theorem 1's modification (only
//!   ever grow the bottleneck task), provably optimal when communication
//!   time is monotone in both endpoint processor counts;
//! * [`refine_assignment`] — a bounded local reallocation pass. Theorem 2
//!   bounds the greedy's overallocation by 2 processors per task under
//!   convexity and compute-dominance, so a radius-2 search recovers the
//!   optimum in that regime at `O(Pk + k²)` extra cost rather than the
//!   exponential full backtracking.
//!
//! Complexity of the core loop: at most `P` placements, each scanning `k`
//! tasks and evaluating ≤ 3 candidate assignments at `O(k)` apiece —
//! `O(Pk)` as stated in the paper (treating the candidate count as
//! constant).

use pipemap_chain::{bottleneck, Assignment, CostTable, Problem};
use pipemap_model::Procs;

use crate::solution::{checked_table, Solution, SolveError};

/// Which tasks may receive the next processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GreedyVariant {
    /// The paper's Procedure Greedy: bottleneck and both neighbours.
    #[default]
    Neighbors,
    /// Theorem 1's modified greedy: the bottleneck task only.
    BottleneckOnly,
}

/// Options for [`greedy_assignment`].
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyOptions {
    /// Candidate-set variant.
    pub variant: GreedyVariant,
    /// Radius of the post-pass reallocation search (0 disables it). With
    /// Theorem 2's hypotheses, radius 2 recovers the optimum.
    pub backtrack_radius: usize,
    /// Grow the backtracking radius to the largest task floor. Maximal
    /// replication quantises throughput: a module with floor `f` only
    /// gains an instance every `f` processors, so between multiples the
    /// one-processor greedy step sees a plateau — the §4.1 pathological
    /// case realised by replication. Moves of up to `f` processors see
    /// across the plateau.
    pub adaptive_radius: bool,
}

impl GreedyOptions {
    /// The paper's plain greedy procedure.
    pub fn paper() -> Self {
        Self {
            variant: GreedyVariant::Neighbors,
            backtrack_radius: 0,
            adaptive_radius: false,
        }
    }

    /// Greedy followed by the bounded backtracking pass (radius 2, the
    /// Theorem 2 bound).
    pub fn with_backtracking() -> Self {
        Self {
            variant: GreedyVariant::Neighbors,
            backtrack_radius: 2,
            adaptive_radius: false,
        }
    }

    /// Backtracking whose radius adapts to the replication quantum — the
    /// robust default for problems with memory floors above 1.
    pub fn adaptive() -> Self {
        Self {
            variant: GreedyVariant::Neighbors,
            backtrack_radius: 2,
            adaptive_radius: true,
        }
    }
}

/// Effective response time of task `i` under assignment `a` (per-task
/// offered processor counts), at instance granularity.
#[inline]
fn response(table: &CostTable, a: &[Procs], i: usize) -> f64 {
    let prev = if i == 0 {
        None
    } else {
        table.task_instance_procs(i - 1, a[i - 1])
    };
    let next = if i + 1 == a.len() {
        None
    } else {
        table.task_instance_procs(i + 1, a[i + 1])
    };
    // A neighbour below its floor makes this state invalid; floors are
    // granted up-front so this cannot happen inside the greedy loop.
    table.task_effective_response(i, a[i], prev, next)
}

/// The slowest task of assignment `a` and its pipeline throughput,
/// folded by [`pipemap_chain::bottleneck`].
fn evaluate(table: &CostTable, a: &[Procs]) -> (usize, f64) {
    bottleneck((0..a.len()).map(|i| response(table, a, i)))
}

/// Pipeline throughput of assignment `a`: `1 / max_i f_i`.
fn assignment_throughput(table: &CostTable, a: &[Procs]) -> f64 {
    evaluate(table, a).1
}

/// The greedy processor assignment (Procedure Greedy, §4.1). Returns the
/// best assignment seen and its solution under the problem's replication
/// policy.
pub fn greedy_assignment(
    problem: &Problem,
    options: GreedyOptions,
) -> Result<(Solution, Assignment), SolveError> {
    let table = checked_table(problem)?;
    greedy_assignment_with_table(problem, &table, options)
}

/// [`greedy_assignment`] against a pre-built [`CostTable`], so callers
/// that already materialised the tables (the DP solvers seeding their
/// pruning incumbent, batch sweeps) don't pay the build twice.
pub fn greedy_assignment_with_table(
    problem: &Problem,
    table: &CostTable,
    options: GreedyOptions,
) -> Result<(Solution, Assignment), SolveError> {
    let (best_a, _thr) = greedy_core(problem, table, options)?;
    let assignment = Assignment(best_a);
    let mapping = assignment
        .to_mapping(problem)
        .expect("greedy respects floors");
    Ok((Solution::from_mapping(problem, mapping), assignment))
}

/// The greedy's best throughput (`1 / max_i f_i` over table responses,
/// the evaluator's bits), used by the DP solvers as the admissible
/// pruning incumbent. Returns `0.0` when the singleton
/// clustering is infeasible (the clustering DP may still find a merged
/// mapping, so infeasibility here must not abort the caller — it just
/// means "no incumbent, prune nothing").
pub(crate) fn incumbent_throughput(problem: &Problem, table: &CostTable) -> f64 {
    match greedy_core(problem, table, GreedyOptions::adaptive()) {
        Ok((_, thr)) => thr,
        Err(_) => 0.0,
    }
}

/// Core of the greedy: returns the refined best assignment and its
/// internal throughput (`assignment_throughput` of the result).
fn greedy_core(
    problem: &Problem,
    table: &CostTable,
    options: GreedyOptions,
) -> Result<(Vec<Procs>, f64), SolveError> {
    let rec = pipemap_obs::global();
    let _wall = rec.timer("solver.greedy.wall_s");
    let _span = pipemap_obs::span!("greedy_assignment", "solver");
    // Local accumulators, published once at the end (cheap hot loop).
    let mut n_placements: u64 = 0;
    let mut n_evals: u64 = 0;

    let k = problem.num_tasks();
    let p = problem.total_procs;

    // Step 1: grant every task its floor.
    let mut a: Vec<Procs> = Vec::with_capacity(k);
    for i in 0..k {
        a.push(problem.task_floor(i).ok_or(SolveError::Infeasible)?);
    }
    let used: Procs = a.iter().sum();
    if used > p {
        return Err(SolveError::Infeasible);
    }
    let mut available = p - used;

    let mut best_a = a.clone();
    let mut best_thr = assignment_throughput(table, &a);

    // Steps 2–3: place the remaining processors one at a time.
    while available > 0 {
        let (slow, _) = evaluate(table, &a);
        let candidates: &[isize] = match options.variant {
            GreedyVariant::Neighbors => &[-1, 0, 1],
            GreedyVariant::BottleneckOnly => &[0],
        };
        let mut pick = slow;
        let mut pick_thr = f64::NEG_INFINITY;
        for &d in candidates {
            let Some(c) = slow.checked_add_signed(d) else {
                continue;
            };
            if c >= k {
                continue;
            }
            a[c] += 1;
            n_evals += 1;
            let thr = assignment_throughput(table, &a);
            a[c] -= 1;
            // Strict improvement wins; on ties prefer the bottleneck task
            // itself (d == 0 is scanned between the neighbours, so require
            // strict improvement to displace it once set).
            let better = thr > pick_thr || (thr == pick_thr && c == slow);
            if better {
                pick_thr = thr;
                pick = c;
            }
        }
        a[pick] += 1;
        available -= 1;
        n_placements += 1;
        if pick_thr > best_thr {
            best_thr = pick_thr;
            best_a = a.clone();
        }
    }

    // Step 4 + optional backtracking refinement.
    let mut radius = options.backtrack_radius;
    if options.adaptive_radius {
        let quantum = (0..k)
            .map(|i| problem.task_floor(i).unwrap_or(1))
            .max()
            .unwrap_or(1);
        radius = radius.max(quantum);
    }
    if radius > 0 {
        best_a = refine_assignment(problem, table, &best_a, radius);
        best_thr = assignment_throughput(table, &best_a);
    }
    rec.add("solver.greedy.placements", n_placements);
    rec.add("solver.greedy.evals", n_evals);

    Ok((best_a, best_thr))
}

/// Bounded local reallocation: repeatedly move up to `radius` processors
/// from one task to another (or drop them entirely) while it improves
/// throughput. With Theorem 2's hypotheses (convex costs, computation
/// dominating communication) and `radius = 2`, this recovers the optimum
/// from the greedy's result, because the greedy then overallocates at most
/// 2 processors to any task.
pub fn refine_assignment(
    problem: &Problem,
    table: &CostTable,
    assignment: &[Procs],
    radius: usize,
) -> Vec<Procs> {
    let k = assignment.len();
    let p = problem.total_procs;
    let floors: Vec<Procs> = (0..k)
        .map(|i| {
            problem
                .task_floor(i)
                .expect("assignment exists, so floors do")
        })
        .collect();

    /// One candidate local move: take `take` processors from `from` (if
    /// set) and give `give` processors to `to` (if set); the difference
    /// comes from / goes to the spare pool.
    #[derive(Clone, Copy)]
    struct Move {
        from: Option<(usize, Procs)>,
        to: Option<(usize, Procs)>,
    }

    fn apply(a: &mut [Procs], m: &Move, undo: bool) {
        if let Some((i, d)) = m.from {
            if undo {
                a[i] += d;
            } else {
                a[i] -= d;
            }
        }
        if let Some((j, d)) = m.to {
            if undo {
                a[j] -= d;
            } else {
                a[j] += d;
            }
        }
    }

    let rec = pipemap_obs::global();
    let mut n_moves: u64 = 0;
    let mut n_evals: u64 = 0;

    let mut a = assignment.to_vec();
    let mut thr = assignment_throughput(table, &a);
    // Each accepted move strictly improves throughput, so termination is
    // guaranteed; bound the rounds defensively anyway.
    for _round in 0..(k * p).max(8) {
        let spare = p - a.iter().sum::<Procs>();
        let mut candidates: Vec<Move> = Vec::new();
        for d in 1..=radius {
            for from in 0..k {
                if a[from] < floors[from] + d {
                    continue;
                }
                // Drop d processors entirely.
                candidates.push(Move {
                    from: Some((from, d)),
                    to: None,
                });
                // Transfer d processors to another task.
                for to in 0..k {
                    if to != from {
                        candidates.push(Move {
                            from: Some((from, d)),
                            to: Some((to, d)),
                        });
                    }
                }
            }
            // Grow a task from the spare pool.
            if d <= spare {
                for to in 0..k {
                    candidates.push(Move {
                        from: None,
                        to: Some((to, d)),
                    });
                }
            }
        }
        let mut best_move: Option<Move> = None;
        let mut best_thr = thr;
        for m in &candidates {
            n_evals += 1;
            apply(&mut a, m, false);
            let cand = assignment_throughput(table, &a);
            apply(&mut a, m, true);
            if cand > best_thr {
                best_thr = cand;
                best_move = Some(*m);
            }
        }
        match best_move {
            Some(m) => {
                apply(&mut a, &m, false);
                thr = best_thr;
                n_moves += 1;
            }
            None => break,
        }
    }
    rec.add("solver.greedy.refine_moves", n_moves);
    rec.add("solver.greedy.refine_evals", n_evals);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::dp_assignment;
    use pipemap_chain::{ChainBuilder, Edge, Task, TaskChain};
    use pipemap_model::{MemoryReq, PolyEcom, PolyUnary};

    fn chain(work: &[f64]) -> TaskChain {
        let mut b =
            ChainBuilder::new().task(Task::new("t0", PolyUnary::perfectly_parallel(work[0])));
        for (i, &w) in work.iter().enumerate().skip(1) {
            b = b
                .edge(Edge::free())
                .task(Task::new(format!("t{i}"), PolyUnary::perfectly_parallel(w)));
        }
        b.build()
    }

    #[test]
    fn greedy_balances_identical_tasks() {
        let p = Problem::new(chain(&[8.0, 8.0]), 8, 1e9).without_replication();
        let (s, a) = greedy_assignment(&p, GreedyOptions::paper()).unwrap();
        assert_eq!(a.0, vec![4, 4]);
        assert!((s.throughput - 0.5).abs() < 1e-12);
    }

    #[test]
    fn greedy_matches_dp_without_comm() {
        // With zero communication cost the greedy is provably optimal.
        let p = Problem::new(chain(&[12.0, 4.0, 8.0]), 16, 1e9).without_replication();
        let (g, _) = greedy_assignment(&p, GreedyOptions::paper()).unwrap();
        let (d, _) = dp_assignment(&p).unwrap();
        assert!((g.throughput - d.throughput).abs() < 1e-9);
    }

    #[test]
    fn greedy_matches_dp_with_monotone_comm() {
        // Theorem 1 regime: overhead-dominated communication, monotone in
        // both processor counts; the modified greedy must be optimal.
        let c = ChainBuilder::new()
            .task(Task::new("a", PolyUnary::perfectly_parallel(9.0)))
            .edge(Edge::new(
                PolyUnary::zero(),
                PolyEcom::new(0.3, 0.0, 0.0, 0.05, 0.05),
            ))
            .task(Task::new("b", PolyUnary::perfectly_parallel(6.0)))
            .build();
        let p = Problem::new(c, 10, 1e9).without_replication();
        let opts = GreedyOptions {
            variant: GreedyVariant::BottleneckOnly,
            backtrack_radius: 0,
            adaptive_radius: false,
        };
        let (g, _) = greedy_assignment(&p, opts).unwrap();
        let (d, _) = dp_assignment(&p).unwrap();
        assert!(
            (g.throughput - d.throughput).abs() < 1e-9,
            "greedy {} vs dp {}",
            g.throughput,
            d.throughput
        );
    }

    #[test]
    fn greedy_respects_floors() {
        let c = ChainBuilder::new()
            .task(
                Task::new("a", PolyUnary::perfectly_parallel(1.0))
                    .with_memory(MemoryReq::new(0.0, 50.0)),
            )
            .edge(Edge::free())
            .task(Task::new("b", PolyUnary::perfectly_parallel(9.0)))
            .build();
        let p = Problem::new(c, 8, 10.0).without_replication(); // floor a = 5
        let (_, a) = greedy_assignment(&p, GreedyOptions::paper()).unwrap();
        assert!(a.procs(0) >= 5);
        assert!(a.total() <= 8);
    }

    #[test]
    fn greedy_infeasible() {
        let c = ChainBuilder::new()
            .task(Task::new("a", PolyUnary::zero()).with_memory(MemoryReq::new(0.0, 90.0)))
            .edge(Edge::free())
            .task(Task::new("b", PolyUnary::zero()).with_memory(MemoryReq::new(0.0, 90.0)))
            .build();
        let p = Problem::new(c, 16, 10.0);
        assert_eq!(
            greedy_assignment(&p, GreedyOptions::paper()).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn greedy_with_replication_matches_dp_on_flat_tasks() {
        // Non-scaling tasks, replication on: both should hit the maximal
        // replication throughput.
        let c = ChainBuilder::new()
            .task(Task::new("a", PolyUnary::new(1.0, 0.0, 0.0)))
            .edge(Edge::free())
            .task(Task::new("b", PolyUnary::new(1.0, 0.0, 0.0)))
            .build();
        let p = Problem::new(c, 8, 1e9);
        let (g, _) = greedy_assignment(&p, GreedyOptions::paper()).unwrap();
        let (d, _) = dp_assignment(&p).unwrap();
        assert!((g.throughput - d.throughput).abs() < 1e-9);
    }

    #[test]
    fn best_ever_assignment_is_returned() {
        // A task with overhead growth: throughput peaks mid-way through
        // the allocation loop; the returned assignment must be the peak,
        // not the final state.
        let c = ChainBuilder::new()
            .task(Task::new("a", PolyUnary::new(0.0, 4.0, 0.25)))
            .build();
        let p = Problem::new(c, 16, 1e9).without_replication();
        let (s, a) = greedy_assignment(&p, GreedyOptions::paper()).unwrap();
        // Optimal at p = 4: f = 1 + 1 = 2. Allocating all 16 would give
        // f = 0.25 + 4 = 4.25.
        assert_eq!(a.0, vec![4]);
        assert!((s.throughput - 0.5).abs() < 1e-9);
    }

    #[test]
    fn backtracking_can_only_improve() {
        let c = ChainBuilder::new()
            .task(Task::new("a", PolyUnary::perfectly_parallel(7.0)))
            .edge(Edge::new(
                PolyUnary::zero(),
                PolyEcom::new(0.2, 1.0, 1.0, 0.1, 0.1),
            ))
            .task(Task::new("b", PolyUnary::perfectly_parallel(5.0)))
            .build();
        let p = Problem::new(c, 12, 1e9).without_replication();
        let (plain, _) = greedy_assignment(&p, GreedyOptions::paper()).unwrap();
        let (bt, _) = greedy_assignment(&p, GreedyOptions::with_backtracking()).unwrap();
        assert!(bt.throughput >= plain.throughput - 1e-12);
    }

    #[test]
    fn refine_moves_overallocation_back() {
        let c = chain(&[8.0, 8.0]);
        let p = Problem::new(c, 8, 1e9).without_replication();
        let table = CostTable::build(&p);
        // Deliberately lopsided start: 6/2 (bottleneck 4.0).
        let refined = refine_assignment(&p, &table, &[6, 2], 2);
        let thr = assignment_throughput(&table, &refined);
        assert!((thr - 0.5).abs() < 1e-9, "refined {refined:?} thr {thr}");
    }
}
