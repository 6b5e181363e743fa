//! Tuning knobs for the optimal DP solvers.
//!
//! All knobs are *performance-only*: every combination returns the same
//! optimal throughput and the same mapping, bit for bit (enforced by the
//! differential suite in `tests/equivalence.rs`). The default enables the
//! whole performance layer; [`SolveOptions::reference`] disables it and
//! reproduces the paper-faithful serial enumeration — useful as the
//! baseline when measuring speedups and as the differential oracle.
//!
//! The one non-performance knob is [`SolveOptions::provenance`]: it asks
//! the solver to *additionally* record the winning decision path and
//! per-stage cell statistics (see [`crate::provenance`]). It never changes
//! the solve's result either — recording observes the scan, it does not
//! steer it — and it is zero-cost when off (no tables are retained, no
//! stats are pushed).

/// Performance options for [`crate::dp_assignment_with`] and
/// [`crate::dp_mapping_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolveOptions {
    /// Fill each DP stage's independent cell lines on a scoped-thread
    /// worker pool ([`crate::pool`]). Results are identical for any thread
    /// count: each line is computed once, by one worker, straight into
    /// the stage table, and nothing is merged.
    pub par: bool,
    /// Bound-based cell pruning: seed the DP with the greedy heuristic's
    /// throughput as an incumbent, skip cells whose single-module upper
    /// bound cannot reach it, and early-break inner processor scans once a
    /// cell's own bound is attained. Skipping the lines no reader reads is
    /// not part of it: every sweep but [`Self::reference`] does that.
    pub prune: bool,
    /// Collapse the "next group size" DP axis to *distinct instance
    /// sizes*. Under replication two neighbour offers with equal instance
    /// size are interchangeable for the subproblem, so the deduplicated
    /// axis is often tiny (a replicable task with floor 1 always runs
    /// 1-processor instances).
    pub dedup: bool,
    /// Worker threads when `par` is set. `None` consults the
    /// `PIPEMAP_THREADS` environment variable, then
    /// `std::thread::available_parallelism()`.
    pub threads: Option<usize>,
    /// Record decision provenance: keep the winning path's DP cells,
    /// runner-up candidates, and per-stage cell/pruning statistics (the
    /// raw material of `pipemap explain`). Does not change results;
    /// zero-cost when off. Runner-up values are only exact when `prune`
    /// is off (a pruned scan drops sub-incumbent candidates wholesale),
    /// which is what [`crate::dp_assignment_provenance`] and
    /// [`crate::dp_mapping_provenance`] enforce.
    pub provenance: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            par: true,
            prune: true,
            dedup: true,
            threads: None,
            provenance: false,
        }
    }
}

impl SolveOptions {
    /// The serial, unpruned, undeduplicated enumeration — the faithful
    /// baseline path, and the one sweep that fills every table line.
    /// Bit-identical results to [`Self::default`], at the full `O(P⁴)`
    /// cost.
    pub fn reference() -> Self {
        Self {
            par: false,
            prune: false,
            dedup: false,
            threads: None,
            provenance: false,
        }
    }

    /// Default options with an explicit worker-thread count.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: Some(threads),
            ..Self::default()
        }
    }

    /// Default options plus provenance recording with the unpruned scan
    /// (exact runner-ups). `par` and `dedup` stay on: both preserve full
    /// tables and bit-identical values.
    pub fn provenance() -> Self {
        Self {
            prune: false,
            provenance: true,
            ..Self::default()
        }
    }
}
