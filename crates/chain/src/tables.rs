//! Pre-evaluated cost tables.
//!
//! The DP algorithm evaluates response times `O(P⁴k)` times; evaluating a
//! `UnaryCost`/`BinaryCost` enum (or a user closure) in the innermost loop
//! would dominate the run time. [`CostTable`] materialises every cost
//! function once into a [`pipemap_model::DenseCostTable`] (flat rows for
//! unary costs, row-major `P×P` slabs for `ecom`) and caches memory floors
//! and replication decisions. A *module's* execution time sums its members
//! from these rows in [`crate::module_response`]'s order, so the solvers
//! and the evaluator agree to the bit. The dense backing is shared
//! read-only with the solvers' worker threads via [`CostTable::dense`].

use pipemap_model::{max_replication, DenseCostTable, Procs, Replication, Seconds};

use crate::eval::ResponseBreakdown;
use crate::problem::{Problem, ReplicationPolicy};

/// Pre-evaluated execution, communication, memory-floor, and replication
/// tables for a [`Problem`] over processor counts `1..=P`.
#[derive(Clone, Debug)]
pub struct CostTable {
    k: usize,
    max_p: Procs,
    /// Flat per-point costs: `f_exec`, `f_icom` rows and `f_ecom` slabs,
    /// each cost function evaluated exactly once per argument.
    dense: DenseCostTable,
    /// `floor[first][last]` = module memory/explicit floor. The sentinel
    /// `usize::MAX` marks a module that cannot run at any processor count.
    floor: Vec<Vec<Procs>>,
    /// `replicable[first][last]` = policy allows replication of the module.
    replicable: Vec<Vec<bool>>,
    /// `rep[i][p-1]` = policy replication for the singleton module of task
    /// `i` offered `p` processors; `None` below the floor.
    rep: Vec<Vec<Option<Replication>>>,
}

impl CostTable {
    /// Evaluate all cost functions of `problem` over `1..=problem.total_procs`.
    pub fn build(problem: &Problem) -> Self {
        let chain = &problem.chain;
        let k = chain.len();
        let max_p = problem.total_procs;

        // Single evaluation pass over every cost function; everything
        // below reads the dense table, never the closures again.
        let dense = DenseCostTable::build(
            k,
            max_p,
            |i, p| chain.task(i).exec.eval(p),
            |e, p| chain.edge(e).icom.eval(p),
            |e, ps, pr| chain.edge(e).ecom.eval(ps, pr),
        );

        let mut floor = vec![vec![Procs::MAX; k]; k];
        let mut replicable = vec![vec![false; k]; k];
        for first in 0..k {
            for last in first..k {
                floor[first][last] = problem.module_floor(first, last).unwrap_or(Procs::MAX);
                replicable[first][last] = match problem.replication {
                    ReplicationPolicy::Disabled => false,
                    ReplicationPolicy::Maximal => chain.range_replicable(first, last),
                };
            }
        }

        let mut rep = vec![vec![None; max_p]; k];
        for (i, row) in rep.iter_mut().enumerate() {
            let fl = floor[i][i];
            for (pm1, slot) in row.iter_mut().enumerate() {
                let p = pm1 + 1;
                if fl != Procs::MAX && p >= fl {
                    *slot = max_replication(p, fl, replicable[i][i]);
                }
            }
        }

        Self {
            k,
            max_p,
            dense,
            floor,
            replicable,
            rep,
        }
    }

    /// The dense per-point cost tables backing this table. Solver inner
    /// loops borrow the flat rows / `ecom` slabs directly (the table is
    /// `Sync`, so worker threads share it read-only).
    #[inline]
    pub fn dense(&self) -> &DenseCostTable {
        &self.dense
    }

    /// Re-price the table in place by per-cost multiplicative factors:
    /// `exec[i]` scales task `i`'s execution row, `icom[e]` / `ecom[e]`
    /// scale edge `e`'s redistribution row / transfer slab (factor `1.0`
    /// leaves a cost untouched). The result is bit-identical to building a
    /// fresh table from a problem whose cost functions return
    /// `base(p) * factor`. Floors and replication are cost-independent and
    /// stay as built.
    ///
    /// Slices may be shorter than the chain; missing entries mean `1.0`.
    pub fn rescale(&mut self, exec: &[f64], icom: &[f64], ecom: &[f64]) {
        let at = |f: &[f64], i: usize| f.get(i).copied().unwrap_or(1.0);
        for i in 0..self.k {
            let g = at(exec, i);
            if g != 1.0 {
                self.dense.scale_exec_row(i, g);
            }
        }
        for e in 0..self.k.saturating_sub(1) {
            let g = at(icom, e);
            if g != 1.0 {
                self.dense.scale_icom_row(e, g);
            }
            let g = at(ecom, e);
            if g != 1.0 {
                self.dense.scale_ecom_slab(e, g);
            }
        }
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.k
    }

    /// Largest tabulated processor count (the problem's `P`).
    pub fn max_procs(&self) -> Procs {
        self.max_p
    }

    /// Execution time of task `i` on `p` processors.
    #[inline]
    pub fn exec(&self, i: usize, p: Procs) -> Seconds {
        self.dense.exec(i, p)
    }

    /// Internal redistribution time of edge `e` on `p` processors.
    #[inline]
    pub fn icom(&self, e: usize, p: Procs) -> Seconds {
        self.dense.icom(e, p)
    }

    /// External transfer time of edge `e` from `ps` senders to `pr`
    /// receivers.
    #[inline]
    pub fn ecom(&self, e: usize, ps: Procs, pr: Procs) -> Seconds {
        self.dense.ecom(e, ps, pr)
    }

    /// Execution time of the module `first..=last` on `p` processors:
    /// member executions plus internal redistributions, summed left to
    /// right exactly as [`crate::module_response`] sums them. Linear in the
    /// module's length; the solvers call it once per row, outside their
    /// inner scans.
    pub fn module_exec(&self, first: usize, last: usize, p: Procs) -> Seconds {
        debug_assert!(first <= last && last < self.k);
        let mut exec = 0.0;
        for l in first..=last {
            exec += self.exec(l, p);
            if l < last {
                exec += self.icom(l, p);
            }
        }
        exec
    }

    /// The module's processor floor, or `None` if the module can never run.
    pub fn module_floor(&self, first: usize, last: usize) -> Option<Procs> {
        let f = self.floor[first][last];
        (f != Procs::MAX).then_some(f)
    }

    /// True if the policy allows replicating the module `first..=last`.
    pub fn module_replicable(&self, first: usize, last: usize) -> bool {
        self.replicable[first][last]
    }

    /// Policy replication for the module `first..=last` offered `p`
    /// processors; `None` below the floor. Singleton modules hit a cache.
    pub fn module_replication(&self, first: usize, last: usize, p: Procs) -> Option<Replication> {
        if first == last {
            if p == 0 || p > self.max_p {
                return None;
            }
            return self.rep[first][p - 1];
        }
        let fl = self.floor[first][last];
        if fl == Procs::MAX || p < fl {
            return None;
        }
        max_replication(p, fl, self.replicable[first][last])
    }

    /// Effective (replication-adjusted) response time of the *singleton*
    /// module of task `i` offered `p` processors, with its neighbours'
    /// instance sizes `prev_inst` / `next_inst` (`None` at chain ends):
    /// [`ResponseBreakdown::effective`] of `ecom_in`, `exec` and `ecom_out`
    /// at instance sizes.
    ///
    /// Returns `+inf` below the task's floor — convenient as an "never pick
    /// this" value inside the optimisers.
    pub fn task_effective_response(
        &self,
        i: usize,
        p: Procs,
        prev_inst: Option<Procs>,
        next_inst: Option<Procs>,
    ) -> Seconds {
        let Some(rep) = self.module_replication(i, i, p) else {
            return f64::INFINITY;
        };
        let inst = rep.procs_per_instance;
        ResponseBreakdown {
            incoming: prev_inst.map_or(0.0, |q| self.ecom(i - 1, q, inst)),
            exec: self.exec(i, inst),
            outgoing: next_inst.map_or(0.0, |n| self.ecom(i, inst, n)),
            replicas: rep.instances,
        }
        .effective()
    }

    /// Instance size for task `i` offered `p` processors under the policy
    /// (the §3.2 "effective number of processors"), or `None` below floor.
    pub fn task_instance_procs(&self, i: usize, p: Procs) -> Option<Procs> {
        self.module_replication(i, i, p)
            .map(|r| r.procs_per_instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainBuilder;
    use crate::edge::Edge;
    use crate::task::Task;
    use pipemap_model::{MemoryReq, PolyEcom, PolyUnary};

    fn problem() -> Problem {
        let c = ChainBuilder::new()
            .task(
                Task::new("a", PolyUnary::perfectly_parallel(8.0))
                    .with_memory(MemoryReq::new(0.0, 30.0)),
            )
            .edge(Edge::new(
                PolyUnary::new(1.0, 0.0, 0.0),
                PolyEcom::new(0.5, 2.0, 2.0, 0.0, 0.0),
            ))
            .task(
                Task::new("b", PolyUnary::perfectly_parallel(4.0))
                    .with_memory(MemoryReq::new(0.0, 20.0)),
            )
            .edge(Edge::new(
                PolyUnary::new(0.25, 0.0, 0.0),
                PolyEcom::new(0.25, 1.0, 1.0, 0.0, 0.0),
            ))
            .task(Task::new("c", PolyUnary::perfectly_parallel(2.0)))
            .build();
        Problem::new(c, 16, 10.0) // floors: a → 3, b → 2, c → 1
    }

    #[test]
    fn tables_match_direct_evaluation() {
        let prob = problem();
        let t = CostTable::build(&prob);
        for p in 1..=16 {
            for i in 0..3 {
                let direct = prob.chain.task(i).exec.eval(p);
                assert!((t.exec(i, p) - direct).abs() < 1e-12, "exec {i} @ {p}");
            }
            for e in 0..2 {
                let direct = prob.chain.edge(e).icom.eval(p);
                assert!((t.icom(e, p) - direct).abs() < 1e-12, "icom {e} @ {p}");
                for q in 1..=16 {
                    let direct = prob.chain.edge(e).ecom.eval(p, q);
                    assert!(
                        (t.ecom(e, p, q) - direct).abs() < 1e-12,
                        "ecom {e} @ {p},{q}"
                    );
                }
            }
        }
    }

    #[test]
    fn module_exec_matches_sum() {
        let prob = problem();
        let t = CostTable::build(&prob);
        for p in 1..=16 {
            // Module [0..=2]: 8/p + 1 + 4/p + 0.25 + 2/p.
            let expect = 14.0 / p as f64 + 1.25;
            assert!((t.module_exec(0, 2, p) - expect).abs() < 1e-12);
            // Module [1..=2]: 4/p + 0.25 + 2/p.
            let expect = 6.0 / p as f64 + 0.25;
            assert!((t.module_exec(1, 2, p) - expect).abs() < 1e-12);
            // Singleton [1..=1] equals task exec.
            assert!((t.module_exec(1, 1, p) - t.exec(1, p)).abs() < 1e-12);
        }
    }

    #[test]
    fn floors_cached() {
        let t = CostTable::build(&problem());
        assert_eq!(t.module_floor(0, 0), Some(3));
        assert_eq!(t.module_floor(1, 1), Some(2));
        assert_eq!(t.module_floor(2, 2), Some(1));
        assert_eq!(t.module_floor(0, 1), Some(5));
        assert_eq!(t.module_floor(0, 2), Some(5));
    }

    #[test]
    fn infeasible_module_floor_is_none() {
        let c = ChainBuilder::new()
            .task(Task::new("t", PolyUnary::zero()).with_memory(MemoryReq::new(20.0, 0.0)))
            .build();
        let t = CostTable::build(&Problem::new(c, 8, 10.0));
        assert_eq!(t.module_floor(0, 0), None);
        assert_eq!(t.module_replication(0, 0, 8), None);
    }

    #[test]
    fn replication_cache_matches_problem() {
        let prob = problem();
        let t = CostTable::build(&prob);
        for i in 0..3 {
            for p in 1..=16 {
                assert_eq!(
                    t.module_replication(i, i, p),
                    prob.module_replication(i, i, p),
                    "task {i} @ {p}"
                );
            }
        }
    }

    #[test]
    fn effective_response_below_floor_is_infinite() {
        let t = CostTable::build(&problem());
        assert!(t.task_effective_response(0, 2, None, Some(1)).is_infinite());
    }

    #[test]
    fn effective_response_matches_manual() {
        let prob = problem();
        let t = CostTable::build(&prob);
        // Task b offered 4 procs, floor 2 → r = 2, inst = 2.
        let rep = t.module_replication(1, 1, 4).unwrap();
        assert_eq!(rep.instances, 2);
        assert_eq!(rep.procs_per_instance, 2);
        let f = t.task_effective_response(1, 4, Some(3), Some(1));
        let manual = (prob.chain.edge(0).ecom.eval(3, 2)
            + prob.chain.task(1).exec.eval(2)
            + prob.chain.edge(1).ecom.eval(2, 1))
            / 2.0;
        assert!((f - manual).abs() < 1e-12);
    }

    #[test]
    fn rescale_is_bitwise_equal_to_cold_build_from_scaled_costs() {
        use pipemap_model::{BinaryCost, UnaryCost};

        let prob = problem();
        let exec_g = [1.5, 1.0, 0.75];
        let icom_g = [2.0, 1.0];
        let ecom_g = [1.0, 0.625];

        let mut patched = CostTable::build(&prob);
        patched.rescale(&exec_g, &icom_g, &ecom_g);

        // The problem re-priced the way the incremental solver defines it:
        // each cost function evaluates as `base(args) * factor`.
        let mut b = ChainBuilder::new();
        for (i, g) in exec_g.iter().enumerate() {
            let base = prob.chain.task(i).exec.clone();
            let g = *g;
            let mut t = Task::new(
                prob.chain.task(i).name.clone(),
                UnaryCost::custom(move |p| base.eval(p) * g),
            );
            t.memory = prob.chain.task(i).memory;
            b = b.task(t);
            if i + 1 < exec_g.len() {
                let (icom_base, ecom_base) = {
                    let e = prob.chain.edge(i);
                    (e.icom.clone(), e.ecom.clone())
                };
                let (gi, ge) = (icom_g[i], ecom_g[i]);
                b = b.edge(Edge::new(
                    UnaryCost::custom(move |p| icom_base.eval(p) * gi),
                    BinaryCost::custom(move |s, r| ecom_base.eval(s, r) * ge),
                ));
            }
        }
        let scaled = Problem::new(b.build(), prob.total_procs, prob.mem_per_proc);
        let cold = CostTable::build(&scaled);

        for p in 1..=16 {
            for i in 0..3 {
                assert_eq!(
                    patched.exec(i, p).to_bits(),
                    cold.exec(i, p).to_bits(),
                    "exec {i} @ {p}"
                );
            }
            for e in 0..2 {
                assert_eq!(
                    patched.icom(e, p).to_bits(),
                    cold.icom(e, p).to_bits(),
                    "icom {e} @ {p}"
                );
                for q in 1..=16 {
                    assert_eq!(
                        patched.ecom(e, p, q).to_bits(),
                        cold.ecom(e, p, q).to_bits(),
                        "ecom {e} @ {p},{q}"
                    );
                }
            }
            // Module sums read the patched rows, so they match to the bit
            // too.
            for first in 0..3 {
                for last in first..3 {
                    assert_eq!(
                        patched.module_exec(first, last, p).to_bits(),
                        cold.module_exec(first, last, p).to_bits(),
                        "module [{first},{last}] @ {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_task_chain_tables() {
        let c = ChainBuilder::new()
            .task(Task::new("only", PolyUnary::perfectly_parallel(4.0)))
            .build();
        let t = CostTable::build(&Problem::new(c, 8, 1e9));
        assert_eq!(t.num_tasks(), 1);
        let f = t.task_effective_response(0, 8, None, None);
        // floor 1 → 8 instances of 1 proc: f = 4.0 / 8.
        assert!((f - 0.5).abs() < 1e-12);
    }
}
