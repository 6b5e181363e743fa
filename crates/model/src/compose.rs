//! Composition of task costs into module costs (§2.2, §3.3).
//!
//! "The execution and communication functions of the modules can be composed
//! from the corresponding functions of the tasks that constitute the
//! module." A module containing the contiguous tasks `t_i..t_j` running on
//! one group of `p` processors spends, per data set:
//!
//! ```text
//! exec_module(p) = Σ_{l=i..j} f_exec_l(p)  +  Σ_{l=i..j-1} f_icom_{l→l+1}(p)
//! ```
//!
//! — every member's execution plus the internal redistributions between
//! members. The module's *external* communication at its two boundaries is
//! just the boundary edges' `f_ecom`, and its memory requirement is the sum
//! of its members' (see [`crate::memory`]).
//!
//! §3.3 requires this composition to be O(1) during the clustering DP; the
//! [`ComposedModule`] builder keeps shallow sums so repeated composition
//! stays cheap, and the DPs evaluate a module once per row from
//! `pipemap-chain`'s pre-evaluated tables, never inside their inner loops.

use crate::cost::UnaryCost;
use crate::memory::MemoryReq;
use crate::{Procs, Seconds};

/// Execution time of a module made of the given member tasks on `p`
/// processors: sum of member executions plus internal redistributions.
///
/// `execs` are the member tasks' `f_exec`; `internal_icoms` are the
/// `f_icom` of the edges *strictly inside* the module (one fewer than the
/// member count).
pub fn module_exec_time(execs: &[UnaryCost], internal_icoms: &[UnaryCost], p: Procs) -> Seconds {
    debug_assert!(
        execs.is_empty() || internal_icoms.len() == execs.len() - 1,
        "a module of n tasks has n-1 internal edges"
    );
    execs.iter().map(|f| f.eval(p)).sum::<Seconds>()
        + internal_icoms.iter().map(|f| f.eval(p)).sum::<Seconds>()
}

/// Memory requirement of a module: sum of its members'.
pub fn module_memory(members: &[MemoryReq]) -> MemoryReq {
    members
        .iter()
        .fold(MemoryReq::none(), |acc, m| acc.combine(m))
}

/// An incrementally-built module: tasks are appended on the right, costs
/// and memory compose in O(1) per appended task.
#[derive(Clone, Debug, Default)]
pub struct ComposedModule {
    exec: UnaryCost,
    memory: MemoryReq,
    len: usize,
    replicable: bool,
}

impl ComposedModule {
    /// An empty module (identity for composition).
    pub fn empty() -> Self {
        Self {
            exec: UnaryCost::Zero,
            memory: MemoryReq::none(),
            len: 0,
            replicable: true,
        }
    }

    /// A module containing a single task.
    pub fn single(exec: UnaryCost, memory: MemoryReq, replicable: bool) -> Self {
        Self {
            exec,
            memory,
            len: 1,
            replicable,
        }
    }

    /// Append a task on the right. `icom_joining` is the internal
    /// communication of the edge between the current last member and the
    /// appended task (ignored when the module was empty).
    pub fn push(
        &mut self,
        exec: UnaryCost,
        memory: MemoryReq,
        replicable: bool,
        icom_joining: &UnaryCost,
    ) {
        if self.len > 0 {
            self.exec = self.exec.add(icom_joining);
        }
        self.exec = self.exec.add(&exec);
        self.memory = self.memory.combine(&memory);
        self.replicable &= replicable;
        self.len += 1;
    }

    /// Combined execution time function (members + internal edges).
    pub fn exec(&self) -> &UnaryCost {
        &self.exec
    }

    /// Combined memory requirement.
    pub fn memory(&self) -> MemoryReq {
        self.memory
    }

    /// Number of member tasks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no tasks have been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True iff every member task is replicable (§2.2: only modules composed
    /// exclusively of replicable tasks are replicable).
    pub fn replicable(&self) -> bool {
        self.replicable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::PolyUnary;

    fn pp(total: f64) -> UnaryCost {
        UnaryCost::Poly(PolyUnary::perfectly_parallel(total))
    }

    #[test]
    fn module_exec_sums_members_and_internal_edges() {
        let execs = vec![pp(8.0), pp(4.0)];
        let icoms = vec![UnaryCost::Poly(PolyUnary::new(1.0, 0.0, 0.0))];
        // On 4 procs: 2 + 1 + 1 = 4.
        assert!((module_exec_time(&execs, &icoms, 4) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn singleton_module_has_no_internal_comm() {
        let execs = vec![pp(8.0)];
        assert!((module_exec_time(&execs, &[], 2) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn module_memory_sums() {
        let m = module_memory(&[MemoryReq::new(1.0, 10.0), MemoryReq::new(2.0, 20.0)]);
        assert_eq!(m, MemoryReq::new(3.0, 30.0));
    }

    #[test]
    fn composed_module_incremental_matches_batch() {
        let execs = vec![pp(8.0), pp(4.0), pp(2.0)];
        let icoms = vec![
            UnaryCost::Poly(PolyUnary::new(0.5, 0.0, 0.0)),
            UnaryCost::Poly(PolyUnary::new(0.25, 0.0, 0.0)),
        ];
        let mut m = ComposedModule::empty();
        m.push(execs[0].clone(), MemoryReq::none(), true, &UnaryCost::Zero);
        m.push(execs[1].clone(), MemoryReq::none(), true, &icoms[0]);
        m.push(execs[2].clone(), MemoryReq::none(), true, &icoms[1]);
        for p in 1..=16 {
            let batch = module_exec_time(&execs, &icoms, p);
            assert!((m.exec().eval(p) - batch).abs() < 1e-12, "p = {p}");
        }
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn replicability_is_conjunctive() {
        let mut m = ComposedModule::empty();
        assert!(m.replicable());
        m.push(pp(1.0), MemoryReq::none(), true, &UnaryCost::Zero);
        assert!(m.replicable());
        m.push(pp(1.0), MemoryReq::none(), false, &UnaryCost::Zero);
        assert!(!m.replicable());
        m.push(pp(1.0), MemoryReq::none(), true, &UnaryCost::Zero);
        assert!(!m.replicable());
    }

    #[test]
    fn first_push_ignores_joining_icom() {
        let mut m = ComposedModule::empty();
        let heavy = UnaryCost::Poly(PolyUnary::new(100.0, 0.0, 0.0));
        m.push(pp(4.0), MemoryReq::none(), true, &heavy);
        assert!((m.exec().eval(1) - 4.0).abs() < 1e-12);
    }
}
