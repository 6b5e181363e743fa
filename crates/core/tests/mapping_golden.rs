//! Frozen tie order: which optimum every DP entry point reports.
//!
//! The solvers' value contracts (equivalence, oracles) pin *throughput*;
//! when several mappings tie at the optimum they accept any of them. This
//! suite pins the representative too: the sweep's first strict argmax in
//! its candidate order (`prev_len` ascending, then `q` ascending). It
//! solves a few hundred seeded problems — the four synthetic flavours on
//! iWarp geometries, jittered random chains, and deliberately tied chains
//! (identical tasks with free transfers, fixed-cost tasks on replication
//! plateaus) — and compares one line per solver with
//! `tests/golden/mappings.txt`:
//!
//! * `dp_mapping_with` and `dp_assignment_with` under the default options
//!   and [`SolveOptions::reference`]: module bounds, instances, processors
//!   per instance and the throughput's bits;
//! * `dp_mapping_provenance`: each module's chosen predecessor and its
//!   runner-up;
//! * one warm [`ResolveArtifact::resolve`] on a drift of the last task.
//!
//! After a deliberate change of tie order, rewrite the golden file with
//! `PIPEMAP_BLESS=1 cargo test -p pipemap-core --test mapping_golden` and
//! review its diff.

use std::fmt::Write as _;

use pipemap_apps::synthetic::{synthetic_chain, ChainFlavor};
use pipemap_chain::{ChainBuilder, Edge, Problem, Task};
use pipemap_core::{
    dp_assignment_with, dp_mapping_provenance, dp_mapping_with, CostDeltas, ResolveArtifact,
    Solution, SolveError, SolveOptions,
};
use pipemap_machine::{synthesize_problem, MachineConfig};
use pipemap_model::{MemoryReq, PolyEcom, PolyUnary};

/// SplitMix64, so the problems do not depend on any shim's generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    fn pick(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

const FLAVORS: [ChainFlavor; 4] = [
    ChainFlavor::ComputeBound,
    ChainFlavor::CommBound,
    ChainFlavor::MemoryBound,
    ChainFlavor::Alternating,
];

/// Chain length and processor count: `k` in 2–8 and `P` in 8–96, with
/// `P` capped for long chains so the reference enumeration stays quick.
fn size(rng: &mut Rng) -> (usize, usize) {
    let k = rng.pick(2, 8);
    let max_p = match k {
        2..=3 => 96,
        4..=5 => 48,
        _ => 32,
    };
    (k, rng.pick(8, max_p))
}

/// A synthetic flavour with ±20 % jitter on an iWarp geometry of
/// `rows × cols` processors.
fn synthetic(rng: &mut Rng, flavor: ChainFlavor) -> Problem {
    let (k, p) = size(rng);
    let rows = rng.pick(1, 4).min(p / 8).max(1);
    let cols = (p / rows).max(8);
    let mut app = synthetic_chain(flavor, k);
    for t in &mut app.tasks {
        let f = rng.range(0.8, 1.2);
        t.seq_flops *= f;
        t.par_flops *= f;
    }
    for e in &mut app.edges {
        e.bytes *= rng.range(0.8, 1.2);
    }
    synthesize_problem(
        &app,
        &MachineConfig::iwarp_message().with_geometry(rows, cols),
    )
}

/// A random convex chain with memory floors and real transfers.
fn jittered(rng: &mut Rng) -> Problem {
    let (k, p) = size(rng);
    let mut b = ChainBuilder::new();
    for i in 0..k {
        let work = PolyUnary::new(
            0.05 * rng.range(0.0, 2.0),
            2.0 + 4.0 * rng.range(0.0, 2.0),
            0.01 * rng.range(0.0, 2.0),
        );
        b = b.task(
            Task::new(format!("t{i}"), work)
                .with_memory(MemoryReq::new(0.0, 40.0 * rng.range(0.0, 2.0))),
        );
        if i + 1 < k {
            let ecom = PolyEcom::new(
                0.05 * rng.range(0.0, 2.0),
                0.4 * rng.range(0.0, 2.0),
                0.4 * rng.range(0.0, 2.0),
                0.005,
                0.005,
            );
            b = b.edge(Edge::new(
                PolyUnary::new(0.02 * rng.range(0.0, 2.0), 0.0, 0.0),
                ecom,
            ));
        }
    }
    let problem = Problem::new(b.build(), p, 10.0);
    if rng.next().is_multiple_of(3) {
        problem.without_replication()
    } else {
        problem
    }
}

/// Identical perfectly parallel tasks joined by free edges: every split
/// of the processors among equal modules ties.
fn identical(rng: &mut Rng) -> Problem {
    let (k, p) = size(rng);
    let work = rng.range(1.0, 8.0);
    let mut b = ChainBuilder::new();
    for i in 0..k {
        b = b.task(Task::new(
            format!("t{i}"),
            PolyUnary::perfectly_parallel(work),
        ));
        if i + 1 < k {
            b = b.edge(Edge::free());
        }
    }
    let problem = Problem::new(b.build(), p, 1e9);
    if rng.next().is_multiple_of(2) {
        problem.without_replication()
    } else {
        problem
    }
}

/// Fixed-cost tasks that do not parallelise, with a small memory floor:
/// replication sets the rate, and many offers reach the same plateau.
fn plateau(rng: &mut Rng) -> Problem {
    let (k, p) = size(rng);
    let mut b = ChainBuilder::new();
    for i in 0..k {
        let cost = [1.0, 2.0, 0.5][rng.pick(0, 2)];
        b = b.task(
            Task::new(format!("t{i}"), PolyUnary::new(cost, 0.0, 0.0))
                .with_memory(MemoryReq::new(0.0, 10.0 * rng.pick(0, 2) as f64)),
        );
        if i + 1 < k {
            let edge = if rng.next().is_multiple_of(2) {
                Edge::free()
            } else {
                Edge::aligned(PolyEcom::new(0.25, 0.0, 0.0, 0.0, 0.0))
            };
            b = b.edge(edge);
        }
    }
    Problem::new(b.build(), p, 10.0)
}

/// `first-last:replicas×procs` for every module, then the throughput bits.
fn solution_line(s: &Solution) -> String {
    let mut out = String::new();
    for m in &s.mapping.modules {
        write!(out, "{}-{}:{}x{} ", m.first, m.last, m.replicas, m.procs).unwrap();
    }
    write!(out, "thr={:016x}", s.throughput.to_bits()).unwrap();
    out
}

fn line<E: std::fmt::Debug>(r: Result<String, E>) -> String {
    r.unwrap_or_else(|e| format!("{e:?}"))
}

/// The golden lines of one problem.
fn describe(id: usize, kind: &str, problem: &Problem) -> String {
    let mut out = String::new();
    let k = problem.num_tasks();
    writeln!(out, "# {id} {kind} k={k} P={}", problem.total_procs).unwrap();
    for (tag, opts) in [
        ("default", SolveOptions::default()),
        ("reference", SolveOptions::reference()),
    ] {
        let map = dp_mapping_with(problem, &opts).map(|s| solution_line(&s));
        writeln!(out, "map.{tag} {}", line(map)).unwrap();
        let asg = dp_assignment_with(problem, &opts).map(|(s, _)| solution_line(&s));
        writeln!(out, "asg.{tag} {}", line(asg)).unwrap();
    }
    let prov = dp_mapping_provenance(problem, &SolveOptions::default()).map(|(_, prov)| {
        let mut s = String::new();
        for c in &prov.cells {
            write!(
                s,
                "{}-{}@{}<({},{})",
                c.first, c.last, c.offer, c.chosen_prev_len, c.chosen_prev_procs
            )
            .unwrap();
            match &c.runner_up {
                Some(ru) => write!(
                    s,
                    "~({},{},{:016x}) ",
                    ru.prev_len,
                    ru.prev_procs,
                    ru.value.to_bits()
                ),
                None => write!(s, "~- "),
            }
            .unwrap();
        }
        s.trim_end().to_string()
    });
    writeln!(out, "prov {}", line(prov)).unwrap();
    let warm = ResolveArtifact::build(problem, &SolveOptions::default()).and_then(|art| {
        let mut d = CostDeltas::identity(k);
        d.set_exec(k - 1, 1.25);
        art.resolve(&d)
            .map(|o| format!("{:?} {}", o.mechanism, solution_line(&o.solution)))
    });
    writeln!(out, "resolve {}", line::<SolveError>(warm)).unwrap();
    out
}

/// Every problem's lines, in seed order.
fn render() -> String {
    let mut rng = Rng(0x005e_ed0f_7135);
    let mut out = String::new();
    let mut id = 0;
    for round in 0..40 {
        for flavor in FLAVORS {
            out += &describe(id, &format!("{flavor:?}"), &synthetic(&mut rng, flavor));
            id += 1;
        }
        out += &describe(id, "jittered", &jittered(&mut rng));
        id += 1;
        out += &describe(id, "identical", &identical(&mut rng));
        id += 1;
        out += &describe(id, "plateau", &plateau(&mut rng));
        id += 1;
        if round % 2 == 0 {
            out += &describe(id, "jittered", &jittered(&mut rng));
            id += 1;
        }
    }
    out
}

#[test]
fn mappings_match_their_golden_file() {
    let got = render();
    let golden = format!("{}/tests/golden/mappings.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("PIPEMAP_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&golden, &got).expect("golden file is writable");
        return;
    }
    let want = std::fs::read_to_string(&golden).expect("golden file exists");
    let diff: Vec<_> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .take(5)
        .collect();
    assert!(
        got == want,
        "mappings differ from {golden}; first differing lines (got, want):\n{diff:#?}"
    );
}
