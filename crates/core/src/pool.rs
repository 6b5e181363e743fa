//! A small std-only scoped-thread worker pool for the DP solvers.
//!
//! Each DP stage consists of independent cell rows (one row per processor
//! count of the stage's own module). [`run_strided`] partitions the rows
//! across `t` scoped threads in a deterministic strided fashion (worker
//! `w` computes rows `w, w + t, w + 2t, …`), collects each row's result
//! into a per-thread buffer, and merges the buffers back into row order
//! after the join — the stage barrier. Because every row is computed by
//! exactly one worker from read-only shared inputs and merged
//! single-threaded, results are **bitwise independent of the thread
//! count**; `threads == 1` degenerates to a plain loop with no spawn.
//!
//! No external dependencies (mirroring the std-only discipline of
//! `pipemap-obs`): just [`std::thread::scope`].

use std::thread;

/// Per-worker hot-loop counters, accumulated locally (plain integers, no
/// atomics in the recurrence) and summed at the stage barrier.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CellStats {
    /// DP cells enumerated (including bound-pruned ones).
    pub cells: u64,
    /// Cells skipped wholesale by a bound or by reachability.
    pub cells_pruned: u64,
    /// Subproblem value lookups (inner candidate scans).
    pub lookups: u64,
    /// Candidates skipped because their subvalue, or their row's maximum,
    /// could not beat the running best (`min(sub, ·) ≤ sub ≤ best`).
    pub qskips: u64,
}

impl CellStats {
    pub fn absorb(&mut self, other: &CellStats) {
        self.cells += other.cells;
        self.cells_pruned += other.cells_pruned;
        self.lookups += other.lookups;
        self.qskips += other.qskips;
    }
}

/// Hard cap on pool width; beyond this the stage merge dominates.
pub const MAX_POOL_THREADS: usize = 16;

/// Resolve the effective worker count: an explicit request wins, then the
/// `PIPEMAP_THREADS` environment variable, then the machine's available
/// parallelism (capped at [`MAX_POOL_THREADS`]). Always ≥ 1.
pub fn thread_limit(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        return n.max(1);
    }
    if let Ok(s) = std::env::var("PIPEMAP_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_POOL_THREADS)
}

/// Compute `f(row)` for every `row` in `0..rows` on up to `threads`
/// scoped worker threads and return the results in row order.
///
/// `f` must be safe to call concurrently from several threads (`Sync`) and
/// must depend only on `row` — the pool guarantees each row is evaluated
/// exactly once, but not on which worker or in which global order.
pub fn run_strided<T, F>(threads: usize, rows: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let t = threads.max(1).min(rows.max(1));
    if t <= 1 {
        return (0..rows).map(f).collect();
    }
    let per_worker: Vec<Vec<(usize, T)>> = thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..t)
            .map(|w| {
                s.spawn(move || {
                    (w..rows)
                        .step_by(t)
                        .map(|row| (row, f(row)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });
    // Merge at the barrier: scatter back to row order, single-threaded.
    let mut out: Vec<Option<T>> = (0..rows).map(|_| None).collect();
    for chunk in per_worker {
        for (row, value) in chunk {
            out[row] = Some(value);
        }
    }
    out.into_iter()
        .map(|v| v.expect("every row computed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_row_order_for_any_thread_count() {
        for t in [1, 2, 3, 7, 16, 64] {
            let got = run_strided(t, 23, |row| row * row);
            let want: Vec<usize> = (0..23).map(|r| r * r).collect();
            assert_eq!(got, want, "threads = {t}");
        }
    }

    #[test]
    fn zero_rows_is_fine() {
        let got: Vec<usize> = run_strided(4, 0, |r| r);
        assert!(got.is_empty());
    }

    #[test]
    fn explicit_request_wins() {
        assert_eq!(thread_limit(Some(3)), 3);
        assert_eq!(thread_limit(Some(0)), 1);
    }
}
