//! Solver result and error types.

use std::fmt;

use pipemap_chain::{throughput, CostTable, Mapping, Problem};

/// A mapping produced by one of the solvers, together with the throughput
/// it is predicted to achieve.
#[derive(Clone, Debug, PartialEq)]
pub struct Solution {
    /// The mapping: clustering, replication, processor allocation.
    pub mapping: Mapping,
    /// Predicted throughput in data sets per second:
    /// `pipemap_chain::throughput` of the mapping. The optimal solvers'
    /// internal optimum equals it bit for bit.
    pub throughput: f64,
}

impl Solution {
    /// Wrap a mapping, computing its throughput from first principles.
    pub fn from_mapping(problem: &Problem, mapping: Mapping) -> Self {
        let throughput = throughput(&problem.chain, &mapping);
        Self {
            mapping,
            throughput,
        }
    }
}

/// Why a solver failed to produce a mapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// No valid mapping exists: some task cannot fit in memory at any
    /// processor count, or the singleton floors already exceed `P`.
    Infeasible,
    /// The instance is too large for this solver (used by the brute-force
    /// oracles to refuse exponential blow-ups).
    TooLarge {
        /// A human-readable bound that was exceeded.
        limit: &'static str,
    },
    /// A cost function evaluated to NaN or to a negative time, which has
    /// no throughput. `+∞` is legal: an infinitely slow configuration.
    InvalidCost {
        /// The cost, where it was evaluated and what it returned, e.g.
        /// `exec of task 'b' is NaN at p = 1`.
        detail: String,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "no valid mapping exists for this problem"),
            SolveError::TooLarge { limit } => {
                write!(f, "instance exceeds this solver's limit: {limit}")
            }
            SolveError::InvalidCost { detail } => write!(
                f,
                "invalid cost: {detail} (costs must be non-negative; +inf means infinitely slow)"
            ),
        }
    }
}

impl std::error::Error for SolveError {}

/// Build `problem`'s cost table, refusing any NaN or negative entry with
/// [`SolveError::InvalidCost`]: the solvers would otherwise rank mappings
/// by a throughput that does not exist.
pub(crate) fn checked_table(problem: &Problem) -> Result<CostTable, SolveError> {
    let table = CostTable::build(problem);
    let dense = table.dense();
    let chain = &problem.chain;
    let p = problem.total_procs;
    let first_bad = |row: &[f64]| {
        row.iter()
            .position(|&c| c.is_nan() || c < 0.0)
            .map(|at| (at, row[at]))
    };
    let invalid = |detail: String| Err(SolveError::InvalidCost { detail });
    for i in 0..chain.len() {
        if let Some((at, c)) = first_bad(dense.exec_row(i)) {
            let task = &chain.task(i).name;
            return invalid(format!("exec of task '{task}' is {c} at p = {}", at + 1));
        }
    }
    for e in 0..chain.len().saturating_sub(1) {
        let edge = format!(
            "edge '{}' -> '{}'",
            chain.task(e).name,
            chain.task(e + 1).name
        );
        if let Some((at, c)) = first_bad(dense.icom_row(e)) {
            return invalid(format!("icom of {edge} is {c} at p = {}", at + 1));
        }
        if let Some((at, c)) = first_bad(dense.ecom_slab(e)) {
            let (ps, pr) = (at / p + 1, at % p + 1);
            return invalid(format!("ecom of {edge} is {c} at ps = {ps}, pr = {pr}"));
        }
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemap_chain::{ChainBuilder, ModuleAssignment, Task};
    use pipemap_model::PolyUnary;

    #[test]
    fn from_mapping_recomputes_throughput() {
        let c = ChainBuilder::new()
            .task(Task::new("t", PolyUnary::perfectly_parallel(4.0)))
            .build();
        let p = Problem::new(c, 8, 1e9);
        let m = Mapping::new(vec![ModuleAssignment::new(0, 0, 1, 4)]);
        let s = Solution::from_mapping(&p, m);
        assert!((s.throughput - 1.0).abs() < 1e-12);
    }

    #[test]
    fn errors_display() {
        assert!(SolveError::Infeasible.to_string().contains("no valid"));
        assert!(SolveError::TooLarge { limit: "k <= 8" }
            .to_string()
            .contains("k <= 8"));
    }

    #[test]
    fn checked_table_names_the_bad_cost() {
        use pipemap_chain::Edge;
        use pipemap_model::PolyEcom;

        let chain = |b_exec: f64, ecom: f64| {
            ChainBuilder::new()
                .task(Task::new("a", PolyUnary::perfectly_parallel(4.0)))
                .edge(Edge::new(
                    PolyUnary::zero(),
                    PolyEcom::new(ecom, 0.0, 0.0, 0.0, 0.0),
                ))
                .task(Task::new("b", PolyUnary::new(b_exec, 1.0, 0.0)))
                .build()
        };
        let detail = |c| match checked_table(&Problem::new(c, 4, 1e9)) {
            Err(SolveError::InvalidCost { detail }) => detail,
            other => panic!("expected InvalidCost, got {:?}", other.map(|_| ())),
        };
        assert_eq!(
            detail(chain(f64::NAN, 0.1)),
            "exec of task 'b' is NaN at p = 1"
        );
        assert_eq!(
            detail(chain(0.0, -0.5)),
            "ecom of edge 'a' -> 'b' is -0.5 at ps = 1, pr = 1"
        );
        // +∞ is an infinitely slow configuration, not an error.
        assert!(checked_table(&Problem::new(chain(f64::INFINITY, 0.1), 4, 1e9)).is_ok());
    }
}
