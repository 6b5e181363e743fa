//! Response-time and throughput evaluation of a mapping (§2.1–§2.2).
//!
//! The response time of a module is the total time one of its instances
//! spends on one data set: receiving the input from the previous module,
//! executing every member task (with internal redistributions between
//! members), and sending the output to the next module. Sender and receiver
//! groups are both occupied for the whole duration of a transfer, so the
//! boundary `ecom` appears in *both* adjacent modules' response times.
//!
//! With `r` replicated instances, each instance handles every `r`-th data
//! set, so the *effective* response — the time budget the module consumes
//! per data set at steady state — is `f / r`, and the pipeline throughput
//! is `1 / max_i (f_i / r_i)` with the maximiser called the *bottleneck*
//! module.
//!
//! This module is the repository's one evaluator of that formula. Every
//! solver prices a module through [`ResponseBreakdown::effective`] and
//! [`module_throughput`], and folds a pipeline through [`bottleneck`], so a
//! solver's internal value for a mapping is [`throughput`] of that mapping
//! to the bit.

use pipemap_model::Seconds;

use crate::chain::TaskChain;
use crate::mapping::Mapping;

/// The components of one module's response time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResponseBreakdown {
    /// Time to receive a data set from the previous module (0 for the
    /// first module, whose external input is folded into its execution).
    pub incoming: Seconds,
    /// Execution of all member tasks plus internal redistributions.
    pub exec: Seconds,
    /// Time to send the result to the next module (0 for the last).
    pub outgoing: Seconds,
    /// Replication degree of the module.
    pub replicas: usize,
}

impl ResponseBreakdown {
    /// The response time `f` of one instance per data set, associated as
    /// `(incoming + exec) + outgoing`.
    #[inline]
    pub fn total(&self) -> Seconds {
        self.incoming + self.exec + self.outgoing
    }

    /// The effective per-data-set time `f / r`.
    #[inline]
    pub fn effective(&self) -> Seconds {
        self.total() / self.replicas as f64
    }
}

/// Throughput of one module in data sets per second, `1 / effective`,
/// with one rule at the edges:
///
/// * `0` (a free module) → `+∞`;
/// * `+∞` (an infinitely slow module) → `0`;
/// * NaN or negative → NaN. Such a module has no throughput, and a NaN
///   loses every comparison, so no optimiser can prefer it.
#[inline]
pub fn module_throughput(effective: Seconds) -> f64 {
    if effective == 0.0 {
        f64::INFINITY
    } else if effective > 0.0 {
        1.0 / effective
    } else {
        f64::NAN
    }
}

/// The bottleneck of a pipeline given its modules' effective responses
/// in chain order: the leftmost module with the largest one, and the
/// pipeline throughput, [`module_throughput`] of that response. IEEE
/// division is monotone, so the throughput is also the minimum over the
/// modules' throughputs.
///
/// A NaN or negative module is returned as the bottleneck with throughput
/// NaN, rather than skipped the way `f64::max` would skip it. No modules
/// give `(0, +∞)`.
pub fn bottleneck(effectives: impl IntoIterator<Item = Seconds>) -> (usize, f64) {
    let (mut index, mut worst) = (0, 0.0);
    for (i, e) in effectives.into_iter().enumerate() {
        if e.is_nan() || e < 0.0 {
            return (i, f64::NAN);
        }
        if e > worst {
            (index, worst) = (i, e);
        }
    }
    (index, module_throughput(worst))
}

/// Response time of module `idx` of the mapping, broken into components.
///
/// All communication is evaluated at *instance* sizes: the transfer between
/// module `m-1` and `m` moves one data set from one instance of the
/// upstream module to one instance of the downstream module, so the group
/// sizes involved are `procs` per instance on each side (§3.2's effective
/// processor count).
///
/// # Panics
///
/// Panics if `idx` is out of range or the mapping's module ranges don't
/// match the chain (use [`crate::validate`] first for untrusted mappings).
pub fn module_response(chain: &TaskChain, mapping: &Mapping, idx: usize) -> ResponseBreakdown {
    let m = &mapping.modules[idx];
    let p = m.procs;

    let incoming = if idx == 0 {
        0.0
    } else {
        let prev = &mapping.modules[idx - 1];
        debug_assert_eq!(prev.last + 1, m.first, "modules must be contiguous");
        chain.edge(m.first - 1).ecom.eval(prev.procs, p)
    };

    let mut exec = 0.0;
    for l in m.first..=m.last {
        exec += chain.task(l).exec.eval(p);
        if l < m.last {
            exec += chain.edge(l).icom.eval(p);
        }
    }

    let outgoing = if idx + 1 == mapping.modules.len() {
        0.0
    } else {
        let next = &mapping.modules[idx + 1];
        chain.edge(m.last).ecom.eval(p, next.procs)
    };

    ResponseBreakdown {
        incoming,
        exec,
        outgoing,
        replicas: m.replicas,
    }
}

/// Effective responses of the mapping's modules, in chain order.
fn effectives<'a>(
    chain: &'a TaskChain,
    mapping: &'a Mapping,
) -> impl Iterator<Item = Seconds> + 'a {
    (0..mapping.modules.len()).map(|i| module_response(chain, mapping, i).effective())
}

/// Pipeline throughput of the mapping in data sets per second:
/// `1 / max_i (f_i / r_i)`, NaN if any module's response is (see
/// [`bottleneck`]).
pub fn throughput(chain: &TaskChain, mapping: &Mapping) -> f64 {
    bottleneck(effectives(chain, mapping)).1
}

/// Index of the bottleneck module (the one with the largest effective
/// response time; ties resolve to the leftmost).
pub fn bottleneck_module(chain: &TaskChain, mapping: &Mapping) -> usize {
    bottleneck(effectives(chain, mapping)).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainBuilder;
    use crate::edge::Edge;
    use crate::mapping::ModuleAssignment;
    use crate::task::Task;
    use pipemap_model::{PolyEcom, PolyUnary};

    /// a --(icom 1, ecom c1+c2/ps+c3/pr)-- b --(free)-- c
    fn chain() -> TaskChain {
        ChainBuilder::new()
            .task(Task::new("a", PolyUnary::perfectly_parallel(8.0)))
            .edge(Edge::new(
                PolyUnary::new(1.0, 0.0, 0.0),
                PolyEcom::new(0.5, 2.0, 2.0, 0.0, 0.0),
            ))
            .task(Task::new("b", PolyUnary::perfectly_parallel(4.0)))
            .edge(Edge::free())
            .task(Task::new("c", PolyUnary::perfectly_parallel(2.0)))
            .build()
    }

    #[test]
    fn separate_modules_use_ecom() {
        let c = chain();
        let m = Mapping::new(vec![
            ModuleAssignment::new(0, 0, 1, 4),
            ModuleAssignment::new(1, 2, 1, 2),
        ]);
        let r0 = module_response(&c, &m, 0);
        // exec a on 4: 2.0; outgoing ecom(4, 2) = 0.5 + 0.5 + 1.0 = 2.0.
        assert!((r0.exec - 2.0).abs() < 1e-12);
        assert!((r0.outgoing - 2.0).abs() < 1e-12);
        assert_eq!(r0.incoming, 0.0);
        let r1 = module_response(&c, &m, 1);
        // incoming same transfer; exec b+c on 2: 2 + 1 = 3 (edge b-c free).
        assert!((r1.incoming - 2.0).abs() < 1e-12);
        assert!((r1.exec - 3.0).abs() < 1e-12);
        assert_eq!(r1.outgoing, 0.0);
        // Bottleneck is module 2 with f = 5.
        assert_eq!(bottleneck_module(&c, &m), 1);
        assert!((throughput(&c, &m) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn clustered_modules_use_icom() {
        let c = chain();
        let m = Mapping::new(vec![ModuleAssignment::new(0, 2, 1, 4)]);
        let r = module_response(&c, &m, 0);
        // exec = 8/4 + icom(1.0) + 4/4 + 0 + 2/4 = 2 + 1 + 1 + 0.5 = 4.5.
        assert!((r.exec - 4.5).abs() < 1e-12);
        assert_eq!(r.incoming, 0.0);
        assert_eq!(r.outgoing, 0.0);
        assert!((throughput(&c, &m) - 1.0 / 4.5).abs() < 1e-12);
    }

    #[test]
    fn replication_divides_effective_response() {
        let c = chain();
        let single = Mapping::new(vec![ModuleAssignment::new(0, 2, 1, 4)]);
        let double = Mapping::new(vec![ModuleAssignment::new(0, 2, 2, 4)]);
        let t1 = throughput(&c, &single);
        let t2 = throughput(&c, &double);
        assert!((t2 - 2.0 * t1).abs() < 1e-9);
    }

    #[test]
    fn comm_counts_in_both_neighbours() {
        let c = chain();
        let m = Mapping::new(vec![
            ModuleAssignment::new(0, 0, 1, 4),
            ModuleAssignment::new(1, 2, 1, 2),
        ]);
        let r0 = module_response(&c, &m, 0);
        let r1 = module_response(&c, &m, 1);
        assert!((r0.outgoing - r1.incoming).abs() < 1e-12);
    }

    #[test]
    fn effective_uses_replicas() {
        let b = ResponseBreakdown {
            incoming: 1.0,
            exec: 5.0,
            outgoing: 2.0,
            replicas: 4,
        };
        assert!((b.total() - 8.0).abs() < 1e-12);
        assert!((b.effective() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cost_mapping_has_infinite_throughput() {
        let c = ChainBuilder::new()
            .task(Task::new("free", PolyUnary::zero()))
            .build();
        let m = Mapping::new(vec![ModuleAssignment::new(0, 0, 1, 1)]);
        assert!(throughput(&c, &m).is_infinite());
    }

    #[test]
    fn module_throughput_rule() {
        assert_eq!(module_throughput(0.0), f64::INFINITY);
        assert_eq!(module_throughput(-0.0), f64::INFINITY);
        assert_eq!(module_throughput(f64::INFINITY), 0.0);
        assert_eq!(module_throughput(4.0), 0.25);
        assert!(module_throughput(f64::NAN).is_nan());
        assert!(module_throughput(-1.0).is_nan());
        assert!(module_throughput(f64::NEG_INFINITY).is_nan());
    }

    #[test]
    fn bottleneck_is_leftmost_argmax_and_nan_poisons() {
        assert_eq!(bottleneck([1.0, 4.0, 4.0, 2.0]), (1, 0.25));
        assert_eq!(bottleneck([0.0, 0.0]), (0, f64::INFINITY));
        assert_eq!(bottleneck([1.0, f64::INFINITY]), (1, 0.0));
        assert_eq!(bottleneck(std::iter::empty()), (0, f64::INFINITY));
        // `f64::max` would skip these and price the module as free.
        let (i, thr) = bottleneck([8.0, f64::NAN, 16.0]);
        assert_eq!(i, 1);
        assert!(thr.is_nan());
        let (i, thr) = bottleneck([8.0, -1.0]);
        assert_eq!(i, 1);
        assert!(thr.is_nan());
    }

    #[test]
    fn nan_module_makes_the_mapping_nan() {
        let c = ChainBuilder::new()
            .task(Task::new("a", PolyUnary::perfectly_parallel(8.0)))
            .edge(Edge::free())
            .task(Task::new("b", PolyUnary::new(f64::NAN, 1.0, 0.0)))
            .build();
        let m = Mapping::task_parallel(&[4, 4]);
        assert!(throughput(&c, &m).is_nan());
        assert_eq!(bottleneck_module(&c, &m), 1);
    }
}
