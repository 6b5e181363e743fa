//! `feasible_optimal` against the implementation it replaced.
//!
//! [`reference_feasible_optimal`] is the old body, moved here verbatim:
//! enumerate the first `max_candidates` leaves in lexicographic option
//! order, price every one through `chain::throughput`, stable-sort by
//! throughput, and check the first `max_checks` for feasibility. The
//! streaming search must return the same mapping and the same throughput
//! bits on every input — including spaces the window truncates and
//! searches that give up with `None`.

use pipemap_apps::{fft_hist, radar, stereo, FftHistConfig, RadarConfig, StereoConfig};
use pipemap_chain::{
    throughput, ChainBuilder, Edge, Mapping, ModuleAssignment, Problem, Task, TaskChain,
};
use pipemap_core::dp_mapping;
use pipemap_machine::{
    feasible_optimal, is_feasible, synthesize_problem, AppWorkload, FeasibleSearch, MachineConfig,
};
use pipemap_model::{MemoryReq, PolyEcom, PolyUnary};
use pipemap_profile::training::fit_problem;
use pipemap_profile::TrainingConfig;
use proptest::prelude::*;

fn reference_feasible_optimal(
    problem: &Problem,
    machine: &MachineConfig,
    clustering: &[(usize, usize)],
    search: FeasibleSearch,
) -> Option<(Mapping, f64)> {
    let p_total = problem.total_procs;
    // Per-module options: (procs_per_instance, replicas).
    let mut options: Vec<Vec<(usize, usize)>> = Vec::with_capacity(clustering.len());
    for &(first, last) in clustering {
        let floor = problem.module_floor(first, last)?;
        if floor > p_total {
            return None;
        }
        let replicable = problem
            .module_replication(first, last, p_total)
            .map(|r| r.instances > 1)
            .unwrap_or(false)
            || problem.chain.range_replicable(first, last);
        let mut opts = Vec::new();
        for procs in floor..=p_total {
            let max_r = if replicable { p_total / procs } else { 1 };
            for r in 1..=max_r {
                opts.push((procs, r));
            }
        }
        options.push(opts);
    }

    // Enumerate combinations with budget pruning.
    let mut candidates: Vec<Vec<(usize, usize)>> = Vec::new();
    let mut cur: Vec<(usize, usize)> = Vec::new();
    fn rec(
        options: &[Vec<(usize, usize)>],
        budget: usize,
        cur: &mut Vec<(usize, usize)>,
        out: &mut Vec<Vec<(usize, usize)>>,
        cap: usize,
    ) {
        if out.len() >= cap {
            return;
        }
        let idx = cur.len();
        if idx == options.len() {
            out.push(cur.clone());
            return;
        }
        for &(procs, r) in &options[idx] {
            let used = procs * r;
            if used > budget {
                continue;
            }
            cur.push((procs, r));
            rec(options, budget - used, cur, out, cap);
            cur.pop();
        }
    }
    rec(
        &options,
        p_total,
        &mut cur,
        &mut candidates,
        search.max_candidates,
    );

    // Rank by model throughput, descending.
    let mut ranked: Vec<(f64, Mapping)> = candidates
        .into_iter()
        .map(|combo| {
            let modules = clustering
                .iter()
                .zip(&combo)
                .map(|(&(first, last), &(procs, r))| ModuleAssignment::new(first, last, r, procs))
                .collect();
            let m = Mapping::new(modules);
            (throughput(&problem.chain, &m), m)
        })
        .collect();
    ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

    for (thr, mapping) in ranked.into_iter().take(search.max_checks) {
        if is_feasible(machine, &mapping).is_feasible() {
            return Some((mapping, thr));
        }
    }
    None
}

/// Both searches on one input; the mapping and the throughput bits.
type Outcome = Option<(Mapping, u64)>;

fn both(
    problem: &Problem,
    machine: &MachineConfig,
    clustering: &[(usize, usize)],
    search: FeasibleSearch,
) -> (Outcome, Outcome) {
    let bits = |r: Option<(Mapping, f64)>| r.map(|(m, thr)| (m, thr.to_bits()));
    (
        bits(feasible_optimal(problem, machine, clustering, search)),
        bits(reference_feasible_optimal(
            problem, machine, clustering, search,
        )),
    )
}

/// Per-task draw: parallel work, constant and per-processor overhead,
/// memory footprint (the floor at one unit per processor), replicable.
type TaskDraw = (f64, f64, f64, usize, bool);
/// Per-edge draw: `ecom` flavour (0 free, 1 symmetric, 2 asymmetric), its
/// scale, and the internal redistribution cost.
type EdgeDraw = (usize, f64, f64);

/// A chain of `sizes.iter().sum()` tasks clustered into `sizes.len()`
/// modules, from the leading draws.
fn random_chain(
    sizes: &[usize],
    tasks: &[TaskDraw],
    edges: &[EdgeDraw],
) -> (TaskChain, Vec<(usize, usize)>) {
    let n: usize = sizes.iter().sum();
    let mut builder = ChainBuilder::new();
    for (i, &(work, fixed, per_proc, mem, replicable)) in tasks[..n].iter().enumerate() {
        if i > 0 {
            let (flavour, scale, icom) = edges[i - 1];
            let ecom = match flavour {
                0 => PolyEcom::zero(),
                1 => PolyEcom::new(0.1 * scale, scale, scale, 0.0, 0.0),
                _ => PolyEcom::new(0.0, 3.0 * scale, 0.2 * scale, 0.01 * scale, 0.0),
            };
            builder = builder.edge(Edge::new(PolyUnary::new(icom, icom, 0.0), ecom));
        }
        let mut task = Task::new(format!("t{i}"), PolyUnary::new(fixed, work, per_proc))
            .with_memory(MemoryReq::new(0.0, mem as f64));
        if !replicable {
            task = task.not_replicable();
        }
        builder = builder.task(task);
    }
    let mut clustering = Vec::with_capacity(sizes.len());
    let mut first = 0;
    for &s in sizes {
        clustering.push((first, first + s - 1));
        first += s;
    }
    (builder.build(), clustering)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn streaming_search_equals_materialise_and_sort(
        sizes in prop::collection::vec(1..3usize, 2..5),
        tasks in prop::collection::vec(
            (1.0..60.0f64, 0.0..0.5f64, 0.0..0.05f64, 1..4usize, any::<bool>()),
            8,
        ),
        edges in prop::collection::vec((0..3usize, 0.05..2.0f64, 0.0..0.3f64), 7),
        rows in 2..5usize,
        cols in 4..8usize,
        systolic in any::<bool>(),
        pathways in 1..3usize,
        max_candidates in 50..5000usize,
        max_checks in 1..50usize,
    ) {
        let (chain, clustering) = random_chain(&sizes, &tasks, &edges);
        let mut machine = if systolic {
            MachineConfig::iwarp_systolic()
        } else {
            MachineConfig::iwarp_message()
        }
        .with_geometry(rows, cols);
        machine.max_pathways_per_link = pathways;
        let problem = Problem::new(chain, rows * cols, 1.0);
        let search = FeasibleSearch { max_candidates, max_checks };
        let (new, reference) = both(&problem, &machine, &clustering, search);
        prop_assert_eq!(new, reference);
    }
}

/// The exhaustive-window, many-checks regime on small spaces: every leaf
/// is a candidate and ties between equal throughputs decide the winner.
#[test]
fn whole_small_spaces_agree_including_ties() {
    let machine = MachineConfig::iwarp_message().with_geometry(3, 4);
    // Identical perfectly parallel tasks and free edges: whole families of
    // candidates share a throughput, so rank order alone picks among them.
    let task = |n: &str| Task::new(n, PolyUnary::perfectly_parallel(12.0));
    let chain = ChainBuilder::new()
        .task(task("a"))
        .edge(Edge::free())
        .task(task("b"))
        .edge(Edge::free())
        .task(task("c"))
        .build();
    let problem = Problem::new(chain, 12, 1.0);
    let clustering = [(0, 0), (1, 1), (2, 2)];
    for max_checks in [1, 2, 7, 1000] {
        for max_candidates in [0, 1, 13, 400, usize::MAX] {
            let search = FeasibleSearch {
                max_candidates,
                max_checks,
            };
            let (new, reference) = both(&problem, &machine, &clustering, search);
            assert_eq!(new, reference, "{search:?}");
        }
    }
}

/// `auto_map`'s own route to the search: fit the program on the machine
/// with seeded training noise, take the DP's clustering.
fn paper_program_agrees(app: &AppWorkload) {
    for machine in [
        MachineConfig::iwarp_message(),
        MachineConfig::iwarp_systolic(),
    ] {
        let truth = synthesize_problem(app, &machine);
        for seed in [0x7ea, 1, 7919] {
            let training = TrainingConfig::for_procs(truth.total_procs).with_noise(0.03, seed);
            let fitted = fit_problem(&truth, &training);
            let clustering = dp_mapping(&fitted)
                .expect("paper programs are solvable")
                .mapping
                .clustering();
            let (new, reference) = both(&fitted, &machine, &clustering, FeasibleSearch::default());
            assert!(new.is_some(), "{} seed {seed}: nothing feasible", app.name);
            assert_eq!(
                new,
                reference,
                "{} {} seed {seed}",
                app.name,
                machine.mode.label()
            );
        }
    }
}

#[test]
fn radar_agrees_under_default_search() {
    paper_program_agrees(&radar(RadarConfig::paper()));
}

#[test]
fn fft_hist_256_agrees_under_default_search() {
    paper_program_agrees(&fft_hist(FftHistConfig::n256()));
}

#[test]
fn fft_hist_512_agrees_under_default_search() {
    paper_program_agrees(&fft_hist(FftHistConfig::n512()));
}

#[test]
fn stereo_agrees_under_default_search() {
    paper_program_agrees(&stereo(StereoConfig::paper()));
}
