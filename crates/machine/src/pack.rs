//! Rectangle packing onto the processor array.
//!
//! The Fx compiler "allows only a rectangular subarray of processors to be
//! mapped to a module" (§6.1), and all modules must be placed on the array
//! simultaneously — so a mapping is machine-feasible only if one rectangle
//! per module *instance* (area = its processor count) can be packed into
//! the `rows × cols` grid without overlap. Some processor counts admit no
//! rectangle at all on a given array (e.g. 13 processors on an 8×8 array:
//! 13 is prime and 1×13 exceeds both dimensions) — this is precisely why
//! the paper's Table 1 reports a *feasible* optimal mapping different from
//! the unconstrained optimum for the 512×512/systolic configuration.
//!
//! Packing is exact-cover backtracking with a node budget: the first free
//! cell (row-major) is either the top-left corner of some rectangle or is
//! masked off and left empty for good, so the branching factor is the
//! number of distinct (area, shape) choices plus one. A search that uses
//! up its budget reads as "practically infeasible", so the node order and
//! what counts as a node decide verdicts and are pinned by tests.
//!
//! Every packing leaves exactly `rows·cols − Σ areas` cells uncovered, and
//! a masked cell is never covered afterwards. So [`pack_rectangles`] first
//! runs the same search with a *waste bound*: the mask branch is cut once
//! that many cells are masked on the current path. The cut subtrees hold
//! no packing, and the bounded run visits the unbounded search's nodes in
//! the same order with those subtrees removed. Under the request's budget:
//!
//! * the bounded run finds nothing → `None`. Inside the budget this is a
//!   proof that no packing exists; out of budget, the unbounded search's
//!   first `node_budget` nodes contain the bounded run's as a subsequence
//!   and no packing among them, so it runs out too;
//! * it finds a packing without having cut → that packing; its node trace
//!   is the unbounded search's, so placement and node count are too;
//! * it finds a packing after a cut → the unbounded search decides, since
//!   only its node count says whether the budget would have been met.

/// A packing request: rectangle areas to place (one per module instance).
#[derive(Clone, Debug)]
pub struct PackRequest {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Required rectangle areas, one per instance.
    pub areas: Vec<usize>,
    /// Backtracking node budget (default via [`PackRequest::new`]).
    pub node_budget: u64,
}

impl PackRequest {
    /// A request with the default node budget (2 million nodes).
    pub fn new(rows: usize, cols: usize, areas: Vec<usize>) -> Self {
        Self {
            rows,
            cols,
            areas,
            node_budget: 2_000_000,
        }
    }
}

/// One placed rectangle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Index into the request's `areas`.
    pub item: usize,
    /// Top row of the rectangle.
    pub row: usize,
    /// Left column of the rectangle.
    pub col: usize,
    /// Rectangle height.
    pub height: usize,
    /// Rectangle width.
    pub width: usize,
}

/// The legal rectangle shapes `(h, w)` for `area` on a `rows × cols`
/// grid (`h·w = area`, `h ≤ rows`, `w ≤ cols`), widest first.
pub fn shapes(area: usize, rows: usize, cols: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for h in 1..=rows.min(area) {
        if area.is_multiple_of(h) {
            let w = area / h;
            if w <= cols {
                out.push((h, w));
            }
        }
    }
    out
}

/// A group of interchangeable instances: one area, its legal shapes
/// (computed once, not per search node), and how many are still unplaced.
struct Group {
    area: usize,
    shapes: Vec<(usize, usize)>,
    unplaced: usize,
}

struct Packer {
    rows: usize,
    cols: usize,
    /// One bitmask per row; bit `c` set means cell occupied.
    grid: Vec<u64>,
    /// Distinct areas, largest first.
    groups: Vec<Group>,
    /// Sum of the groups' `unplaced`.
    unplaced: usize,
    /// `(area, row, col, h, w)` of the rectangles placed so far.
    placements: Vec<(usize, usize, usize, usize, usize)>,
    nodes: u64,
    budget: u64,
    /// Most cells the search may mask on one path (`usize::MAX`: no bound).
    waste_bound: usize,
    /// Cells masked on the current path.
    wasted: usize,
    /// Whether the waste bound has cut a mask branch.
    cut: bool,
}

impl Packer {
    /// The search for `request` under `waste_bound`; `None` if some area
    /// has no legal shape, which makes the request infeasible outright.
    fn new(request: &PackRequest, waste_bound: usize) -> Option<Self> {
        // Group identical areas (instances are interchangeable).
        let mut groups: Vec<Group> = Vec::new();
        let mut sorted = request.areas.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        for a in sorted {
            match groups.last_mut() {
                Some(g) if g.area == a => g.unplaced += 1,
                _ => {
                    let shapes = shapes(a, request.rows, request.cols);
                    if shapes.is_empty() {
                        return None;
                    }
                    groups.push(Group {
                        area: a,
                        shapes,
                        unplaced: 1,
                    });
                }
            }
        }
        Some(Packer {
            rows: request.rows,
            cols: request.cols,
            grid: vec![0; request.rows],
            groups,
            unplaced: request.areas.len(),
            placements: Vec::with_capacity(request.areas.len()),
            nodes: 0,
            budget: request.node_budget,
            waste_bound,
            wasted: 0,
            cut: false,
        })
    }

    fn fits(&self, row: usize, col: usize, h: usize, w: usize) -> bool {
        if row + h > self.rows || col + w > self.cols {
            return false;
        }
        let mask = (((1u128 << w) - 1) as u64) << col;
        self.grid[row..row + h].iter().all(|&r| r & mask == 0)
    }

    fn set(&mut self, row: usize, col: usize, h: usize, w: usize, occupied: bool) {
        let mask = (((1u128 << w) - 1) as u64) << col;
        for r in &mut self.grid[row..row + h] {
            if occupied {
                *r |= mask;
            } else {
                *r &= !mask;
            }
        }
    }

    fn first_free(&self) -> Option<(usize, usize)> {
        for (ri, &r) in self.grid.iter().enumerate() {
            let free = !r & (((1u128 << self.cols) - 1) as u64);
            if free != 0 {
                return Some((ri, free.trailing_zeros() as usize));
            }
        }
        None
    }

    fn solve(&mut self) -> bool {
        self.nodes += 1;
        if self.nodes > self.budget {
            return false;
        }
        if self.unplaced == 0 {
            return true;
        }
        let Some((row, col)) = self.first_free() else {
            return false; // items remain but the grid is full
        };
        for g in 0..self.groups.len() {
            if self.groups[g].unplaced == 0 {
                continue;
            }
            let area = self.groups[g].area;
            for s in 0..self.groups[g].shapes.len() {
                let (h, w) = self.groups[g].shapes[s];
                if !self.fits(row, col, h, w) {
                    continue;
                }
                self.set(row, col, h, w, true);
                self.groups[g].unplaced -= 1;
                self.unplaced -= 1;
                self.placements.push((area, row, col, h, w));
                if self.solve() {
                    return true;
                }
                self.placements.pop();
                self.unplaced += 1;
                self.groups[g].unplaced += 1;
                self.set(row, col, h, w, false);
            }
        }
        // Leave the first free cell empty for good: mask it and recurse,
        // unless the path has already masked every cell a packing leaves.
        if self.wasted == self.waste_bound {
            self.cut = true;
            return false;
        }
        self.wasted += 1;
        self.set(row, col, 1, 1, true);
        let ok = self.solve();
        self.set(row, col, 1, 1, false);
        self.wasted -= 1;
        ok
    }
}

/// Pack the requested rectangles; `None` if no packing exists or the
/// unbounded search would find none within the node budget.
pub fn pack_rectangles(request: &PackRequest) -> Option<Vec<Placement>> {
    assert!(request.cols <= 64, "grid wider than 64 columns unsupported");
    let total: usize = request.areas.iter().sum();
    let capacity = request.rows * request.cols;
    if total > capacity {
        return None;
    }
    // The decision rule of the module doc.
    let mut bounded = Packer::new(request, capacity - total)?;
    if !bounded.solve() {
        return None;
    }
    let placements = if bounded.cut {
        let mut unbounded = Packer::new(request, usize::MAX)?;
        if !unbounded.solve() {
            return None;
        }
        unbounded.placements
    } else {
        bounded.placements
    };

    // Re-attach original item indices by area.
    let mut by_area: std::collections::HashMap<usize, Vec<usize>> =
        std::collections::HashMap::new();
    for (i, &a) in request.areas.iter().enumerate() {
        by_area.entry(a).or_default().push(i);
    }
    let out = placements
        .into_iter()
        .map(|(area, row, col, h, w)| {
            let item = by_area.get_mut(&area).unwrap().pop().unwrap();
            Placement {
                item,
                row,
                col,
                height: h,
                width: w,
            }
        })
        .collect();
    Some(out)
}

/// Render a packing as an ASCII grid (instances labelled `A`, `B`, …),
/// used for the paper's Figure 6-style mapping diagrams.
pub fn render_packing(rows: usize, cols: usize, placements: &[Placement]) -> String {
    let mut grid = vec![vec!['.'; cols]; rows];
    for (n, p) in placements.iter().enumerate() {
        let label = char::from(b'A' + (n % 26) as u8);
        for row in grid.iter_mut().skip(p.row).take(p.height) {
            for cell in row.iter_mut().skip(p.col).take(p.width) {
                *cell = label;
            }
        }
    }
    grid.into_iter()
        .map(|row| row.into_iter().collect::<String>())
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_valid(rows: usize, cols: usize, areas: &[usize], ps: &[Placement]) {
        assert_eq!(ps.len(), areas.len());
        let mut grid = vec![vec![false; cols]; rows];
        let mut seen = vec![false; areas.len()];
        for p in ps {
            assert!(!seen[p.item]);
            seen[p.item] = true;
            assert_eq!(p.height * p.width, areas[p.item]);
            #[allow(clippy::needless_range_loop)] // r, c also name the cell
            for r in p.row..p.row + p.height {
                for c in p.col..p.col + p.width {
                    assert!(!grid[r][c], "overlap at ({r},{c})");
                    grid[r][c] = true;
                }
            }
        }
    }

    #[test]
    fn shapes_enumeration() {
        assert_eq!(shapes(4, 8, 8), vec![(1, 4), (2, 2), (4, 1)]);
        assert_eq!(shapes(13, 8, 8), vec![]); // prime > max dim
        assert_eq!(shapes(13, 13, 8), vec![(13, 1)]);
        assert_eq!(shapes(64, 8, 8), vec![(8, 8)]);
    }

    #[test]
    fn packs_paper_table1_row1() {
        // FFT-Hist 256/message optimal: 8 instances of 3 procs + 10
        // instances of 4 procs = 64 on the 8×8 array. The paper executed
        // this mapping, so it must pack.
        let mut areas = vec![3; 8];
        areas.extend(vec![4; 10]);
        let req = PackRequest::new(8, 8, areas.clone());
        let ps = pack_rectangles(&req).expect("paper's mapping must be feasible");
        assert_valid(8, 8, &areas, &ps);
    }

    #[test]
    fn paper_table1_512_message_needs_the_footnote() {
        // 512/message optimal: 1×20 + 3×14 = 62 of 64. The three 14s only
        // shape as 2×7/7×2 and the 20 as 4×5/5×4, and no arrangement of
        // all four fits an 8×8 array — which is exactly why Table 2 marks
        // this configuration with "measured results extrapolated from
        // execution with at least one less module instance".
        assert!(pack_rectangles(&PackRequest::new(8, 8, vec![20, 14, 14, 14])).is_none());
        // With one fewer instance of module 2 it packs, as the paper ran.
        let areas = vec![20, 14, 14];
        let ps = pack_rectangles(&PackRequest::new(8, 8, areas.clone())).unwrap();
        assert_valid(8, 8, &areas, &ps);
    }

    #[test]
    fn prime_13_is_infeasible_on_8x8() {
        // The Table 1 feasibility gap: a 13-processor module instance has
        // no rectangular shape on an 8×8 array.
        assert!(pack_rectangles(&PackRequest::new(8, 8, vec![13])).is_none());
        // But 12 has plenty.
        assert!(pack_rectangles(&PackRequest::new(8, 8, vec![12])).is_some());
    }

    #[test]
    fn overfull_request_rejected() {
        assert!(pack_rectangles(&PackRequest::new(4, 4, vec![10, 10])).is_none());
    }

    #[test]
    fn exact_tiling() {
        // Four 2×2s tile a 4×4 exactly.
        let areas = vec![4, 4, 4, 4];
        let ps = pack_rectangles(&PackRequest::new(4, 4, areas.clone())).unwrap();
        assert_valid(4, 4, &areas, &ps);
    }

    #[test]
    fn awkward_mix_with_holes() {
        // 3+3+5 = 11 on 4×4 (5 must be 1×... 5 is prime: 1×5 > 4 → no
        // shape → infeasible).
        assert!(pack_rectangles(&PackRequest::new(4, 4, vec![3, 3, 5])).is_none());
        // 3+3+6 = 12 on 4×4: 6 = 2×3; feasible with holes.
        let areas = vec![3, 3, 6];
        let ps = pack_rectangles(&PackRequest::new(4, 4, areas.clone())).unwrap();
        assert_valid(4, 4, &areas, &ps);
    }

    /// Smallest node budget under which `areas` pack on 8×8.
    fn min_budget(areas: &[usize]) -> u64 {
        (1..)
            .find(|&node_budget| {
                let request = PackRequest {
                    node_budget,
                    ..PackRequest::new(8, 8, areas.to_vec())
                };
                pack_rectangles(&request).is_some()
            })
            .unwrap()
    }

    #[test]
    fn node_accounting_is_pinned() {
        // A budget-exhausted search reads as "practically infeasible", so
        // the order nodes are visited in and what counts as a node decide
        // which mappings `feasible_optimal` returns. These are the counts
        // of the original packer; a faster packer must reproduce them.
        assert_eq!(min_budget(&[20, 14, 14]), 134);
        assert_eq!(min_budget(&[6; 10]), 13);
        let mut table1 = vec![3; 8];
        table1.extend([4; 10]);
        assert_eq!(min_budget(&table1), 19);
    }

    /// Nodes the waste-bounded search spends on `areas` on 8×8 with no
    /// budget at all, asserting that it proves them unpackable.
    fn certificate_nodes(areas: &[usize]) -> u64 {
        let request = PackRequest {
            node_budget: u64::MAX,
            ..PackRequest::new(8, 8, areas.to_vec())
        };
        let waste = 64 - areas.iter().sum::<usize>();
        let mut packer = Packer::new(&request, waste).unwrap();
        assert!(!packer.solve(), "{areas:?} packs");
        packer.nodes
    }

    #[test]
    fn unpackable_verdicts_do_not_depend_on_the_node_budget() {
        // Radar's two candidates that used to spend the whole default
        // budget, and Table 2's footnoted 512/message mapping: the bounded
        // run exhausts its tree in these many nodes, so under any budget
        // at or above them `None` is a proof, not a give-up.
        let radar = [vec![21, 14, 14, 5, 5, 5], vec![15, 8, 8, 8, 8, 8, 8]];
        assert_eq!(certificate_nodes(&radar[0]), 249);
        assert_eq!(certificate_nodes(&radar[1]), 2_461);
        assert_eq!(certificate_nodes(&[20, 14, 14, 14]), 106);
        // The unbounded search alone is still searching at 100 000 nodes.
        for areas in radar {
            let request = PackRequest {
                node_budget: 100_000,
                ..PackRequest::new(8, 8, areas)
            };
            let mut unbounded = Packer::new(&request, usize::MAX).unwrap();
            assert!(!unbounded.solve());
            assert!(unbounded.nodes > request.node_budget);
        }
    }

    #[test]
    fn zero_area_rejected() {
        assert!(pack_rectangles(&PackRequest::new(4, 4, vec![0])).is_none());
    }

    #[test]
    fn render_shows_all_instances() {
        let areas = vec![4, 4];
        let ps = pack_rectangles(&PackRequest::new(2, 4, areas)).unwrap();
        let s = render_packing(2, 4, &ps);
        assert!(s.contains('A') && s.contains('B'));
        assert!(!s.contains('.'));
    }
}
