//! The period probe: fix a target throughput `T`, then find the cheapest
//! mapping that sustains it — the question Benoit, Rehn-Sonigo & Robert
//! ask of a pipeline before optimising anything else. The value DPs
//! ([`crate::dp_cluster`]) carry the processor budget as a state axis; the
//! probe is a min-sum DP over the same module boundaries without it:
//!
//! ```text
//! N(j, L, c, ne) =
//!   fewest processors for tasks 0..=j whose last module M = [j−L+1 ..= j]
//!   makes choice c, given that the module following M has instance size
//!   ne (0 = none), with every module of the prefix reaching T
//!              = min over (L', q) of N(j−L, L', q, inst(c)) + spend(c)
//! ```
//!
//! over the predecessor's `(length, choice)` pairs whose transfer into `M`
//! still lets `M` reach `T`. The replication rule says what a choice is:
//!
//! * **§3.2 maximal** — the offer `pl`, with `(r, inst)` from
//!   [`CostTable::module_replication`] and `pl` spent: [`dp_mapping`]'s
//!   budget accounting, so the probe's total is the smallest budget whose
//!   optimum reaches `T`;
//! * **free** — the instance size, with the fewest replicas that reach `T`
//!   ([`min_replicas`]) and `r · inst` spent.
//!
//! "Reaches `T`" is the evaluator's own `module_throughput(f / r) >= T`,
//! `f` associated as [`ResponseBreakdown::total`], so a probe succeeds
//! exactly when its mapping's `chain::throughput >= T`. Costs are
//! non-negative ([`checked_table`]), so a choice whose execution alone
//! misses `T` is dropped before any transfer is priced; near the optimum
//! most are.
//!
//! What a cell keeps depends on the question (`Cells`). The processor
//! question keeps the fewest processors and one way back, `O(k³P³)` work
//! and `O(k²P²)` memory. The latency question keeps a Pareto frontier of
//! `(processors, latency)` labels, the latency summed as `(prefix +
//! incoming) + exec`: a label another one matches or beats on both counts
//! is dropped, which is exact for a min-sum. Its answer is the
//! least-latency label at the chain's end (`least_latency`, behind
//! [`crate::best_latency_mapping`]).
//!
//! [`min_procs_mapping`] is one maximal probe plus one [`dp_mapping`] at
//! the budget it found. [`dp_mapping_free`] bisects `T` over `f64` bit
//! patterns; a feasible probe raises the lower end to its mapping's
//! throughput, and the search stops when the probe at the next float above
//! it fails — the certificate that no mapping is faster, to the last bit.

use pipemap_chain::{
    min_replicas, CostTable, Mapping, ModuleAssignment, Problem, ResponseBreakdown,
};
use pipemap_model::{Procs, Seconds};

use crate::dp_cluster::dp_mapping;
use crate::solution::{checked_table, Solution, SolveError};

/// How a module's choice turns processors into replicas (module docs).
#[derive(Clone, Copy)]
enum Rule {
    /// §3.2: choose the offer; replicate maximally; spend the offer.
    Maximal,
    /// Choose the instance size; replicate just enough; spend `r · inst`.
    Free,
}

/// One choice of one module.
#[derive(Clone, Copy)]
struct Choice {
    /// Processors per instance.
    inst: Procs,
    /// The most replicas the choice may run.
    max_r: usize,
    /// Execution time of one instance per data set.
    exec: Seconds,
    /// Processors offered (the maximal rule's spend).
    offer: Procs,
}

impl Rule {
    /// Every choice of the module `first..=last` on at most `p`
    /// processors, in ascending order.
    fn choices(self, table: &CostTable, first: usize, last: usize, p: Procs) -> Vec<Choice> {
        let Some(floor) = table.module_floor(first, last) else {
            return Vec::new();
        };
        let replicable = table.module_replicable(first, last);
        (floor..=p)
            .map(|offer| {
                let (inst, max_r) = match self {
                    Rule::Maximal => {
                        let rep = table
                            .module_replication(first, last, offer)
                            .expect("an offer at the floor or above replicates");
                        (rep.procs_per_instance, rep.instances)
                    }
                    Rule::Free => (offer, if replicable { p / offer } else { 1 }),
                };
                Choice {
                    inst,
                    max_r,
                    exec: table.module_exec(first, last, inst),
                    offer,
                }
            })
            .collect()
    }

    /// The replicas `c` runs and the processors it spends when one of its
    /// instances takes `total` per data set, or `None` if it misses
    /// `target`.
    fn spend(self, c: &Choice, total: Seconds, target: f64) -> Option<(usize, Procs)> {
        let r = min_replicas(total, target, c.max_r)?;
        Some(match self {
            Rule::Maximal => (c.max_r, c.offer),
            Rule::Free => (r, r * c.inst),
        })
    }
}

/// A prefix: the processors it spends and its latency.
type Label = (Procs, Seconds);

/// `x` as a `u16` [`Back`] field. Module lengths, processor counts and
/// choice indices fit: a spec refuses `P > u16::MAX`.
#[inline]
fn narrow(x: usize) -> u16 {
    debug_assert!(x <= u16::MAX as usize, "{x} overflows a u16");
    x as u16
}

/// The way back from a label: the predecessor's length, choice index and
/// label index ([`Cells::labels`]), and the module's replicas.
#[derive(Clone, Copy, Default)]
struct Back {
    len: u16,
    choice: u16,
    replicas: u16,
    from: u32,
}

/// What a probe keeps per `(choice, ne)` cell of the prefixes offered to
/// it. [`probe`] writes the recurrence once, generic over this.
trait Cells {
    fn new(cells: usize, p: Procs) -> Self;
    /// Calls `f` with each label of `cell` and its index.
    fn labels(&self, cell: usize, f: impl FnMut(Label, u32));
    /// Offers `cell` a prefix and the way back from it.
    fn offer(&mut self, cell: usize, label: Label, back: Back);
    /// Ends `cell`'s offers.
    fn close(&mut self, _cell: usize) {}
    /// Whether `a` answers the question better than `b`.
    fn better(a: Label, b: Label) -> bool;
    /// The way back from label `at` of `cell`.
    fn back(&self, cell: usize, at: u32) -> Back;
}

const UNREACHABLE: usize = usize::MAX;

/// The processor question: a cell keeps the fewest processors and the
/// way back from them.
struct Fewest {
    value: Vec<Procs>,
    back: Vec<Back>,
}

impl Cells for Fewest {
    fn new(cells: usize, _: Procs) -> Self {
        Self {
            value: vec![UNREACHABLE; cells],
            back: vec![Back::default(); cells],
        }
    }

    fn labels(&self, cell: usize, mut f: impl FnMut(Label, u32)) {
        if self.value[cell] != UNREACHABLE {
            f((self.value[cell], 0.0), 0);
        }
    }

    fn offer(&mut self, cell: usize, (procs, _): Label, back: Back) {
        if procs < self.value[cell] {
            self.value[cell] = procs;
            self.back[cell] = back;
        }
    }

    fn better(a: Label, b: Label) -> bool {
        a.0 < b.0
    }

    fn back(&self, cell: usize, _: u32) -> Back {
        self.back[cell]
    }
}

/// The latency question: a cell keeps the Pareto frontier of its
/// prefixes' labels. Latency is a sum, so a prefix that spends no fewer
/// processors and takes no less time than another ends no better mapping;
/// dropping it is exact.
struct Frontier {
    /// Per cell, its labels' range in `labels`.
    cells: Vec<(u32, u32)>,
    /// Per cell, in ascending processors and strictly descending latency.
    labels: Vec<(Label, Back)>,
    /// The open cell's least-latency offer per processor count.
    open: Vec<(Seconds, Back)>,
}

impl Cells for Frontier {
    fn new(cells: usize, p: Procs) -> Self {
        Self {
            cells: vec![(0, 0); cells],
            labels: Vec::new(),
            open: vec![(f64::INFINITY, Back::default()); p + 1],
        }
    }

    fn labels(&self, cell: usize, mut f: impl FnMut(Label, u32)) {
        let (start, end) = self.cells[cell];
        for at in start..end {
            f(self.labels[at as usize].0, at);
        }
    }

    fn offer(&mut self, _: usize, (procs, latency): Label, back: Back) {
        if latency < self.open[procs].0 {
            self.open[procs] = (latency, back);
        }
    }

    fn close(&mut self, cell: usize) {
        let index = |n: usize| u32::try_from(n).expect("a stage holds under 2^32 labels");
        let start = index(self.labels.len());
        let mut least = f64::INFINITY;
        for (procs, slot) in self.open.iter_mut().enumerate() {
            let (latency, back) = std::mem::replace(slot, (f64::INFINITY, Back::default()));
            if latency < least {
                least = latency;
                self.labels.push(((procs, latency), back));
            }
        }
        self.cells[cell] = (start, index(self.labels.len()));
    }

    fn better(a: Label, b: Label) -> bool {
        a.1 < b.1
    }

    fn back(&self, _: usize, at: u32) -> Back {
        self.labels[at as usize].1
    }
}

/// The probe table of one module `first..=j`: its choices that can reach
/// the target at all, and its cells, `c * (P + 1) + ne` per `(choice,
/// next instance size)`.
struct Stage<C> {
    choices: Vec<Choice>,
    cells: C,
}

/// The mapping under `rule` in which every module reaches `target`, that
/// fits in `P`, and whose label `C` finds best, with that label; `None`
/// if no such mapping fits.
fn probe<C: Cells>(table: &CostTable, rule: Rule, target: f64) -> Option<(Mapping, Label)> {
    let (k, p) = (table.num_tasks(), table.max_procs());
    let w = p + 1;
    let key = |j: usize, l: usize| j * k + (l - 1);

    // Choices whose execution alone reaches the target, per module; the
    // rest are never priced. `ne_axis[s]` holds the instance sizes of the
    // modules starting at task `s`, the only `ne` a stage ending at
    // `s - 1` is read at (`[0]` at the chain's end).
    let mut live: Vec<Vec<Choice>> = vec![Vec::new(); k * k];
    let mut ne_axis: Vec<Vec<Procs>> = vec![vec![0]; k + 1];
    for (first, axis) in ne_axis.iter_mut().enumerate().take(k) {
        let mut seen = vec![false; w];
        for last in first..k {
            let reach: Vec<Choice> = rule
                .choices(table, first, last, p)
                .into_iter()
                .filter(|c| rule.spend(c, c.exec, target).is_some())
                .collect();
            for c in &reach {
                seen[c.inst] = true;
            }
            live[key(last, last + 1 - first)] = reach;
        }
        *axis = (1..=p).filter(|&i| seen[i]).collect();
    }

    let mut stages: Vec<Option<Stage<C>>> = (0..k * k).map(|_| None).collect();
    for j in 0..k {
        for l in 1..=j + 1 {
            let first = j + 1 - l;
            let choices = std::mem::take(&mut live[key(j, l)]);
            if choices.is_empty() {
                continue;
            }
            let mut cells = C::new(choices.len() * w, p);
            for (ci, c) in choices.iter().enumerate() {
                // The labels of predecessors that reach the target and
                // read M's instance size: (transfer into M, label, length,
                // choice, label index). A module starting at task 0 has
                // the chain's start, which sends nothing and spends
                // nothing.
                let mut preds = Vec::new();
                if first == 0 {
                    preds.push((0.0, (0, 0.0), 0, 0, 0));
                }
                for prev_len in 1..=first {
                    let Some(prev) = stages[key(first - 1, prev_len)].as_ref() else {
                        continue;
                    };
                    for (qi, q) in prev.choices.iter().enumerate() {
                        prev.cells.labels(qi * w + c.inst, |sub, at| {
                            let cin = table.ecom(first - 1, q.inst, c.inst);
                            preds.push((cin, sub, narrow(prev_len), narrow(qi), at));
                        });
                    }
                }
                for &ne in &ne_axis[j + 1] {
                    let out = if ne == 0 {
                        0.0
                    } else {
                        table.ecom(j, c.inst, ne)
                    };
                    let cell = ci * w + ne;
                    for &(incoming, (procs, latency), len, choice, from) in &preds {
                        let f = ResponseBreakdown {
                            incoming,
                            exec: c.exec,
                            outgoing: out,
                            replicas: 1,
                        };
                        let Some((r, spend)) = rule.spend(c, f.total(), target) else {
                            continue;
                        };
                        let n = procs + spend;
                        if n <= p {
                            let replicas = narrow(r);
                            let back = Back {
                                len,
                                choice,
                                replicas,
                                from,
                            };
                            cells.offer(cell, (n, latency + incoming + c.exec), back);
                        }
                    }
                    cells.close(cell);
                }
            }
            stages[key(j, l)] = Some(Stage { choices, cells });
        }
    }

    // The last module, at the chain's end (`ne = 0`): the best label,
    // first in (length, choice, label) order on ties.
    let mut best: Option<(Label, usize, usize, u32)> = None;
    for l in 1..=k {
        let Some(st) = stages[key(k - 1, l)].as_ref() else {
            continue;
        };
        for ci in 0..st.choices.len() {
            st.cells.labels(ci * w, |label, at| {
                if best.is_none_or(|b| C::better(label, b.0)) {
                    best = Some((label, l, ci, at));
                }
            });
        }
    }
    let (label, mut l, mut ci, mut at) = best?;

    let mut modules = Vec::new();
    let (mut j, mut ne) = (k - 1, 0);
    loop {
        let first = j + 1 - l;
        let st = stages[key(j, l)].as_ref().expect("the walk visits stages");
        let inst = st.choices[ci].inst;
        let back = st.cells.back(ci * w + ne, at);
        let r = back.replicas as usize;
        modules.push(ModuleAssignment::new(first, j, r, inst));
        if first == 0 {
            break;
        }
        (l, ci, at) = (back.len as usize, back.choice as usize, back.from);
        (j, ne) = (first - 1, inst);
    }
    modules.reverse();
    Some((Mapping::new(modules), label))
}

/// The least-latency mapping under free replication in which every
/// module reaches `floor` and that fits in `P`, with its latency summed
/// as `(prefix + incoming) + exec`; `None` if no mapping fits.
pub(crate) fn least_latency(table: &CostTable, floor: f64) -> Option<(Mapping, Seconds)> {
    probe::<Frontier>(table, Rule::Free, floor).map(|(mapping, (_, latency))| (mapping, latency))
}

/// Result of a processor-minimisation query.
#[derive(Clone, Debug)]
pub struct ProcsSolution {
    /// Fewest processors meeting the target.
    pub procs: usize,
    /// The optimal mapping at that budget.
    pub solution: Solution,
}

/// The smallest processor budget `P ≤ problem.total_procs` whose optimal
/// mapping reaches `min_throughput`, with [`dp_mapping`]'s optimum at that
/// budget: the third axis of the latency / throughput / processors
/// trade-off of the paper's companion work (\[14\]), asked when a pipeline
/// must sustain a known input rate and the remaining processors should
/// serve other jobs. One maximal-rule probe finds the budget. Errors with
/// [`SolveError::Infeasible`] if even the full budget falls short.
///
/// # Panics
///
/// If `min_throughput` is not positive and finite.
pub fn min_procs_mapping(
    problem: &Problem,
    min_throughput: f64,
) -> Result<ProcsSolution, SolveError> {
    assert!(
        min_throughput > 0.0 && min_throughput.is_finite(),
        "throughput target must be positive and finite"
    );
    let table = checked_table(problem)?;
    let (_, (procs, _)) =
        probe::<Fewest>(&table, Rule::Maximal, min_throughput).ok_or(SolveError::Infeasible)?;
    let mut budget = problem.clone();
    budget.total_procs = procs;
    Ok(ProcsSolution {
        procs,
        solution: dp_mapping(&budget)?,
    })
}

/// Optimal mapping with replication degrees chosen freely (each module
/// may use any `r ≥ 1` with `r × instance ≤ P`, subject to
/// replicability), rather than the §3.2 maximal rule. Never worse than
/// [`dp_mapping`]; strictly better when the rule's remainder or
/// neighbour-coupling losses bite (EXPERIMENTS.md, A3).
pub fn dp_mapping_free(problem: &Problem) -> Result<Solution, SolveError> {
    let table = checked_table(problem)?;
    let probe_at = |target: f64| {
        probe::<Fewest>(&table, Rule::Free, target)
            .map(|(mapping, _)| Solution::from_mapping(problem, mapping))
    };
    // Every mapping that fits reaches 0.
    let mut best = probe_at(0.0).ok_or(SolveError::Infeasible)?;
    // Non-negative floats are ordered by their bits. `best` reaches every
    // target up to its throughput; `hi` is the lowest target known to
    // fail, or one past +∞. The search bisects between them; once they
    // are within a factor of two (2^52 bit patterns, one binade), every
    // other probe is at the float just above `best`, which near the optimum
    // is usually the failure that ends the search instead of a bisection
    // down to one bit.
    const FACTOR_OF_TWO: u64 = 1 << 52;
    let mut hi = f64::INFINITY.to_bits() + 1;
    let mut certify = false;
    while best.throughput.to_bits() + 1 < hi {
        let lo = best.throughput.to_bits();
        let target = if certify { lo + 1 } else { lo + (hi - lo) / 2 };
        match probe_at(f64::from_bits(target)) {
            Some(better) => best = better,
            None => hi = target,
        }
        certify = !certify && hi - best.throughput.to_bits() <= FACTOR_OF_TWO;
    }
    Ok(best)
}
