//! A small std-only scoped-thread worker pool for the DP solvers.
//!
//! Each DP stage table is a sequence of independent *lines*: `width`
//! cells (plus, in tables that keep them, the cells' parents) and one
//! summary cell per line. [`run_rows`] hands the lines to `t` scoped
//! threads in a deterministic strided fashion (worker `w` fills lines `w,
//! w + t, w + 2t, …`), and each worker writes a line at the tail of its
//! own row store, keeping it only when the line turns out *live* (its
//! summary left the blank). Nothing is merged afterwards: a line
//! directory maps every line to its row, or to [`DEAD`]. Because every
//! line is computed by exactly one worker from read-only shared inputs,
//! results are **bitwise independent of the thread count**; `threads ==
//! 1` degenerates to a plain loop with no spawn.
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
/// parallelism. Whichever source answers is clamped to
/// `1..=`[`MAX_POOL_THREADS`].
pub fn thread_limit(requested: Option<usize>) -> usize {
    requested
        .or_else(|| {
            std::env::var("PIPEMAP_THREADS")
                .ok()
                .and_then(|s| s.trim().parse().ok())
        })
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
        .clamp(1, MAX_POOL_THREADS)
}

/// Directory entry of a line that stores no row.
const DEAD: u32 = u32::MAX;

/// One line of a table, handed to exactly one worker.
pub(crate) struct Line<'a, V, P> {
    /// Position of the line in the table.
    pub index: usize,
    /// The line's `width` cells, each starting as the table's blank.
    pub values: &'a mut [V],
    /// The cells' parents, each starting as `P::default()`; empty when
    /// the table keeps none.
    pub parents: &'a mut [P],
    /// The line's summary cell, starting as the blank.
    pub summary: &'a mut V,
}

/// One worker's rows, `width` cells each, in the order it wrote them.
#[derive(Clone, Debug)]
struct Store<V, P> {
    values: Vec<V>,
    parents: Vec<P>,
}

/// A table filled by [`run_rows`]: one summary per line, and a row of
/// cells (with their parents, if kept) for each *live* line only — a line
/// whose summary is still the blank stores nothing.
#[derive(Clone, Debug)]
pub(crate) struct Rows<V, P> {
    width: usize,
    /// Line `i` → its row in store `i % stores.len()`, or [`DEAD`].
    dir: Vec<u32>,
    summaries: Vec<V>,
    stores: Vec<Store<V, P>>,
}

impl<V, P> Rows<V, P> {
    /// Every line's summary, in line order.
    pub fn summaries(&self) -> &[V] {
        &self.summaries
    }

    /// Line `i`'s store and row start, or `None` for a dead line.
    fn locate(&self, i: usize) -> Option<(&Store<V, P>, usize)> {
        let row = self.dir[i];
        (row != DEAD).then(|| {
            (
                &self.stores[i % self.stores.len()],
                row as usize * self.width,
            )
        })
    }

    /// Line `i`'s cells, or `None` for a dead line.
    pub fn values(&self, i: usize) -> Option<&[V]> {
        self.locate(i)
            .map(|(store, at)| &store.values[at..at + self.width])
    }

    /// Line `i`'s parents, or `None` for a dead line or a table that keeps
    /// no parents.
    pub fn parents(&self, i: usize) -> Option<&[P]> {
        self.locate(i)
            .and_then(|(store, at)| store.parents.get(at..at + self.width))
    }

    /// Rows stored, over every worker.
    #[cfg(test)]
    pub fn stored(&self) -> usize {
        self.stores.iter().map(|s| s.values.len()).sum::<usize>() / self.width
    }
}

/// Fill the `lines` lines of a table on up to `threads` scoped workers
/// and return the table with the sum of the workers' [`CellStats`].
///
/// Worker `w` fills lines `w, w + t, …` in order, each at the tail of its
/// own store: `width` cells set to `blank`, as many `P::default()`
/// parents when `parents` is set, and the summary set to `blank`. A line
/// whose summary `f` leaves at `blank` is dead: the worker truncates its
/// row away again, so the table stores, and the pages touch, only live
/// lines plus one row in flight per worker. `f` must leave every cell of
/// a dead line at `blank`, be safe to call concurrently (`Sync`) and read
/// only shared inputs besides its line: each line is filled exactly once,
/// but on no particular worker and in no particular global order.
pub(crate) fn run_rows<V, P, F>(
    threads: usize,
    lines: usize,
    width: usize,
    parents: bool,
    blank: V,
    f: F,
) -> (Rows<V, P>, CellStats)
where
    V: Copy + PartialEq + Send + Sync,
    P: Copy + Default + Send,
    F: Fn(Line<'_, V, P>, &mut CellStats) + Sync,
{
    assert!(width > 0, "lines have at least one cell");
    // A row index is below its line count, and a stage has at most
    // `(P+1)²` lines, which a spec's `P ≤ 65 535` keeps below `DEAD`.
    assert!(lines <= DEAD as usize, "{lines} lines overflow a u32 row");
    let t = threads.max(1).min(lines.max(1));
    let mut dir = vec![DEAD; lines];
    let mut summaries = vec![blank; lines];
    let mut shares: Vec<Vec<(usize, &mut V, &mut u32)>> =
        (0..t).map(|_| Vec::with_capacity(lines / t + 1)).collect();
    for (index, (summary, row)) in summaries.iter_mut().zip(dir.iter_mut()).enumerate() {
        shares[index % t].push((index, summary, row));
    }
    let fill = |share: Vec<(usize, &mut V, &mut u32)>| {
        let mut st = CellStats::default();
        let mut store = Store {
            values: Vec::new(),
            parents: Vec::new(),
        };
        for (index, summary, row) in share {
            let tail = store.values.len();
            store.values.resize(tail + width, blank);
            if parents {
                store.parents.resize(tail + width, P::default());
            }
            let line = Line {
                index,
                values: &mut store.values[tail..],
                parents: if parents {
                    &mut store.parents[tail..]
                } else {
                    &mut []
                },
                summary: &mut *summary,
            };
            f(line, &mut st);
            if *summary == blank {
                store.values.truncate(tail);
                store.parents.truncate(tail);
            } else {
                *row = (tail / width) as u32;
            }
        }
        (store, st)
    };
    let mut shares = shares.into_iter();
    let own = shares.next().expect("t >= 1 shares");
    let done: Vec<_> = thread::scope(|s| {
        let fill = &fill;
        let handles: Vec<_> = shares.map(|share| s.spawn(move || fill(share))).collect();
        std::iter::once(fill(own))
            .chain(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("pool worker panicked")),
            )
            .collect()
    });
    let mut total = CellStats::default();
    let stores = done
        .into_iter()
        .map(|(store, st)| {
            total.absorb(&st);
            store
        })
        .collect();
    let rows = Rows {
        width,
        dir,
        summaries,
        stores,
    };
    (rows, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    const THREADS: [usize; 6] = [1, 2, 3, 7, 16, 64];

    /// Tag every cell of line `i` with `i + 1` (so an unwritten cell reads
    /// the blank 0) and count the line in the statistics.
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

    fn run(t: usize, lines: usize, width: usize, parents: bool) -> (Rows<usize, usize>, CellStats) {
        run_rows(t, lines, width, parents, 0, tag)
    }

    /// A line read back: its cells and parents (`None` when not stored)
    /// and its summary.
    type ReadLine<V, P> = (Option<Vec<V>>, Option<Vec<P>>, V);

    /// Every line of `rows`, in line order.
    fn read<V: Copy, P: Copy>(rows: &Rows<V, P>) -> Vec<ReadLine<V, P>> {
        (0..rows.summaries().len())
            .map(|i| {
                (
                    rows.values(i).map(<[V]>::to_vec),
                    rows.parents(i).map(<[P]>::to_vec),
                    rows.summaries()[i],
                )
            })
            .collect()
    }

    #[test]
    fn results_in_row_order_for_any_thread_count() {
        // Every line written exactly once, whatever the count.
        let (lines, width) = (23, 5);
        for t in THREADS {
            let (rows, _) = run(t, lines, width, true);
            for (i, (values, parents, summary)) in read(&rows).into_iter().enumerate() {
                assert_eq!(values, Some(vec![i + 1; width]), "threads = {t}");
                assert_eq!(parents, Some(vec![i + 1; width]), "threads = {t}");
                assert_eq!(summary, i + 1, "threads = {t}");
            }
            assert_eq!(rows.stored(), lines, "threads = {t}");
        }
    }

    #[test]
    fn zero_rows_is_fine() {
        for t in THREADS {
            let (rows, st) = run(t, 0, 4, true);
            assert_eq!(st, CellStats::default(), "threads = {t}");
            assert_eq!(rows.stored(), 0, "threads = {t}");
        }
    }

    #[test]
    fn more_threads_than_lines() {
        let (rows, st) = run(64, 3, 2, false);
        for i in 0..3 {
            assert_eq!(rows.values(i), Some(&[i + 1; 2][..]));
            assert_eq!(rows.summaries()[i], i + 1);
        }
        assert_eq!(st.lookups, 3);
    }

    #[test]
    fn empty_parent_table_leaves_parents_empty() {
        for t in THREADS {
            let (rows, seen) = run_rows(t, 9, 4, false, 0, |line, st| {
                assert!(line.parents.is_empty());
                tag(line, st);
            });
            for i in 0..9 {
                assert_eq!(rows.values(i), Some(&[i + 1; 4][..]), "threads = {t}");
                assert_eq!(rows.parents(i), None, "threads = {t}");
            }
            assert_eq!(seen.lookups, 9, "threads = {t}");
        }
    }

    #[test]
    fn worker_stats_sum_to_the_serial_sum() {
        let (lines, width) = (41, 3);
        let serial = run(1, lines, width, false).1;
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
            assert_eq!(run(t, lines, width, false).1, serial, "threads = {t}");
        }
    }

    #[test]
    fn dead_lines_store_no_row() {
        // Every third line stays at the blank −∞; the others hold finite
        // cells (one of them −∞) and parents.
        let (lines, width) = (31, 4);
        let fill = |line: Line<'_, f64, u32>, st: &mut CellStats| {
            st.cells += 1;
            if line.index.is_multiple_of(3) {
                return;
            }
            for c in 1..width {
                line.values[c] = (line.index * width + c) as f64;
                line.parents[c] = (line.index * width + c) as u32;
            }
            *line.summary = line.values.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        };
        let serial = read(&run_rows(1, lines, width, true, f64::NEG_INFINITY, fill).0);
        for t in THREADS {
            let (rows, st) = run_rows(t, lines, width, true, f64::NEG_INFINITY, fill);
            assert_eq!(st.cells, lines as u64, "threads = {t}");
            let got = read(&rows);
            for (i, (values, parents, summary)) in got.iter().enumerate() {
                let dead = i.is_multiple_of(3);
                assert_eq!(values.is_none(), dead, "line {i}, threads = {t}");
                assert_eq!(parents.is_none(), dead, "line {i}, threads = {t}");
                assert_eq!(
                    *summary == f64::NEG_INFINITY,
                    dead,
                    "line {i}, threads = {t}"
                );
                if let Some(values) = values {
                    assert_eq!(values[0], f64::NEG_INFINITY, "line {i}, threads = {t}");
                    assert_eq!(values[width - 1], (i * width + width - 1) as f64);
                }
            }
            assert_eq!(got, serial, "threads = {t}");
            assert_eq!(rows.stored(), lines - lines.div_ceil(3), "threads = {t}");
        }
    }

    #[test]
    fn explicit_request_wins() {
        assert_eq!(thread_limit(Some(3)), 3);
        assert_eq!(thread_limit(Some(0)), 1);
        assert_eq!(thread_limit(Some(1 << 40)), MAX_POOL_THREADS);
    }
}
