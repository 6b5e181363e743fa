//! A small std-only scoped-thread worker pool for the DP solvers.
//!
//! Each DP stage table is a sequence of independent *lines*: `width`
//! contiguous cells (plus, in tables that keep them, the cells' parents)
//! and one summary cell per line. [`run_lines`] splits the table into
//! disjoint line slices and hands them to `t` scoped threads in a
//! deterministic strided fashion (worker `w` fills lines `w, w + t,
//! w + 2t, …`). Workers write straight into the final table: nothing is
//! buffered and nothing is merged afterwards. Because every line is
//! computed by exactly one worker from read-only shared inputs, results
//! are **bitwise independent of the thread count**; `threads == 1`
//! degenerates to a plain loop with no spawn.
//!
//! No external dependencies (mirroring the std-only discipline of
//! `pipemap-obs`): just [`std::thread::scope`].

use std::thread;

/// Per-worker hot-loop counters, accumulated locally (plain integers, no
/// atomics in the recurrence) and summed once the workers join.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct CellStats {
    /// DP cells enumerated (including bound-pruned ones).
    pub cells: u64,
    /// Cells skipped wholesale by a bound or by reachability.
    pub cells_pruned: u64,
    /// Subproblem value lookups (inner candidate scans).
    pub lookups: u64,
    /// Candidates skipped because their subvalue, or their line's maximum,
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

/// Hard cap on pool width: workers are spawned afresh for every stage,
/// and a stage's lines are too few and too short to repay many more
/// spawns.
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

/// One line of a table, handed to exactly one worker.
pub(crate) struct Line<'a, V, P> {
    /// Position of the line in the table.
    pub index: usize,
    /// The line's `width` cells.
    pub values: &'a mut [V],
    /// The cells' parents; empty when the table keeps none.
    pub parents: &'a mut [P],
    /// The line's summary cell.
    pub summary: &'a mut V,
}

/// Fill every line of a table on up to `threads` scoped workers and
/// return the sum of the workers' [`CellStats`].
///
/// The table has `summaries.len()` lines: line `i` is
/// `values[i * width..(i + 1) * width]`, the same range of `parents`
/// (which must be either that long or empty) and `summaries[i]`. `f`
/// must be safe to call concurrently (`Sync`) and may read only shared
/// inputs besides its line: each line is filled exactly once, but on no
/// particular worker and in no particular global order.
pub(crate) fn run_lines<V, P, F>(
    threads: usize,
    width: usize,
    values: &mut [V],
    parents: &mut [P],
    summaries: &mut [V],
    f: F,
) -> CellStats
where
    V: Send,
    P: Send,
    F: Fn(Line<'_, V, P>, &mut CellStats) + Sync,
{
    let lines = summaries.len();
    assert!(width > 0, "lines have at least one cell");
    assert_eq!(values.len(), lines * width, "one value per cell");
    assert!(
        parents.is_empty() || parents.len() == values.len(),
        "one parent per cell, or none"
    );
    let parent_lines = parents
        .chunks_mut(width)
        .chain(std::iter::repeat_with(Default::default));
    let all = values
        .chunks_mut(width)
        .zip(parent_lines)
        .zip(summaries.iter_mut())
        .enumerate()
        .map(|(index, ((values, parents), summary))| Line {
            index,
            values,
            parents,
            summary,
        });
    let mut total = CellStats::default();
    let t = threads.max(1).min(lines.max(1));
    if t == 1 {
        for line in all {
            f(line, &mut total);
        }
        return total;
    }
    let mut shares: Vec<Vec<Line<'_, V, P>>> =
        (0..t).map(|_| Vec::with_capacity(lines / t + 1)).collect();
    for line in all {
        shares[line.index % t].push(line);
    }
    let fill = |share: Vec<Line<'_, V, P>>| {
        let mut st = CellStats::default();
        for line in share {
            f(line, &mut st);
        }
        st
    };
    let mut shares = shares.into_iter();
    let own = shares.next().expect("t >= 2 shares");
    thread::scope(|s| {
        let fill = &fill;
        let handles: Vec<_> = shares.map(|share| s.spawn(move || fill(share))).collect();
        total.absorb(&fill(own));
        for h in handles {
            total.absorb(&h.join().expect("pool worker panicked"));
        }
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    const THREADS: [usize; 6] = [1, 2, 3, 7, 16, 64];

    /// Tag every cell of line `i` with `i + 1` (so an unwritten cell reads
    /// 0) and count the line in the statistics.
    fn tag(line: Line<'_, usize, usize>, st: &mut CellStats) {
        for v in line.values.iter_mut() {
            *v += line.index + 1;
        }
        for p in line.parents.iter_mut() {
            *p += line.index + 1;
        }
        *line.summary += line.index + 1;
        st.cells += line.values.len() as u64;
        st.lookups += 1;
        st.qskips += line.index as u64;
    }

    fn expected(lines: usize, width: usize) -> Vec<usize> {
        (0..lines * width).map(|c| c / width + 1).collect()
    }

    #[test]
    fn results_in_row_order_for_any_thread_count() {
        // Every line written exactly once, in place, whatever the count.
        let (lines, width) = (23, 5);
        for t in THREADS {
            let mut values = vec![0usize; lines * width];
            let mut parents = vec![0usize; lines * width];
            let mut summaries = vec![0usize; lines];
            run_lines(t, width, &mut values, &mut parents, &mut summaries, tag);
            assert_eq!(values, expected(lines, width), "threads = {t}");
            assert_eq!(parents, expected(lines, width), "threads = {t}");
            assert_eq!(summaries, expected(lines, 1), "threads = {t}");
        }
    }

    #[test]
    fn zero_rows_is_fine() {
        for t in THREADS {
            let st = run_lines(t, 4, &mut [], &mut [], &mut [], tag);
            assert_eq!(st, CellStats::default(), "threads = {t}");
        }
    }

    #[test]
    fn more_threads_than_lines() {
        let mut values = vec![0usize; 3 * 2];
        let mut summaries = vec![0usize; 3];
        let st = run_lines(64, 2, &mut values, &mut [], &mut summaries, tag);
        assert_eq!(values, expected(3, 2));
        assert_eq!(summaries, expected(3, 1));
        assert_eq!(st.lookups, 3);
    }

    #[test]
    fn empty_parent_table_leaves_parents_empty() {
        for t in THREADS {
            let mut values = vec![0usize; 9 * 4];
            let mut summaries = vec![0usize; 9];
            let seen = run_lines(
                t,
                4,
                &mut values,
                &mut Vec::<usize>::new(),
                &mut summaries,
                |line, st| {
                    assert!(line.parents.is_empty());
                    tag(line, st);
                },
            );
            assert_eq!(values, expected(9, 4), "threads = {t}");
            assert_eq!(seen.lookups, 9, "threads = {t}");
        }
    }

    #[test]
    fn worker_stats_sum_to_the_serial_sum() {
        let (lines, width) = (41, 3);
        let run = |t: usize| {
            let mut values = vec![0usize; lines * width];
            let mut summaries = vec![0usize; lines];
            run_lines(t, width, &mut values, &mut [], &mut summaries, tag)
        };
        let serial = run(1);
        assert_eq!(
            serial,
            CellStats {
                cells: (lines * width) as u64,
                cells_pruned: 0,
                lookups: lines as u64,
                qskips: (lines * (lines - 1) / 2) as u64,
            }
        );
        for t in THREADS {
            assert_eq!(run(t), serial, "threads = {t}");
        }
    }

    #[test]
    fn explicit_request_wins() {
        assert_eq!(thread_limit(Some(3)), 3);
        assert_eq!(thread_limit(Some(0)), 1);
    }
}
