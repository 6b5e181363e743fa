//! What every workload shares: the run's context, repeated set-up, timed
//! passes, and access to the program's own counters.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::expected::Expected;
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;

pub struct Ctx {
    pub seed: u64,
    /// How long the timed section runs.
    pub seconds: f64,
    pub trace: bool,
    /// Committed reference answers for this seed, when there are any.
    pub expected: Option<Expected>,
    /// `benchmark/out`, relative to the checkout root.
    pub out_dir: PathBuf,
}

/// Wall times of something small that is repeated in slots spread through
/// the run (a set-up, a planning request), so that its median is taken
/// across the states the box goes through in ten seconds and not inside
/// the one it happened to be in when the run began.
#[derive(Default)]
pub struct Repeats {
    times_s: Vec<f64>,
}

impl Repeats {
    /// One slot: repeat `f` until 20 ms have gone by (at most 50 times, and
    /// once is enough for something that takes longer), time each call,
    /// and hand back the last result.
    pub fn slot<S>(&mut self, mut f: impl FnMut() -> S) -> S {
        let started = Instant::now();
        for n in 1.. {
            let t0 = Instant::now();
            let state = f();
            self.times_s.push(t0.elapsed().as_secs_f64());
            if started.elapsed() >= Duration::from_millis(20) || n >= 50 {
                return state;
            }
        }
        unreachable!("the loop returns")
    }

    pub fn median_s(&mut self) -> f64 {
        median(&mut self.times_s)
    }
}

/// The timed section of a batch workload: a slot of set-up, then a pass
/// over the state it made, again and again until the passes alone have
/// taken `seconds` (and at least `min` of them have run, so the section
/// overruns by at most one pass). Returns the last state and every pass's
/// result.
pub fn passes_with_setup<S, R>(
    seconds: f64,
    min: usize,
    setup_times: &mut Repeats,
    mut setup: impl FnMut() -> S,
    mut pass: impl FnMut(&S, usize) -> R,
) -> (S, Vec<R>) {
    let mut results = Vec::new();
    let mut timed_s = 0.0;
    loop {
        let state = setup_times.slot(&mut setup);
        let t0 = Instant::now();
        results.push(pass(&state, results.len()));
        timed_s += t0.elapsed().as_secs_f64();
        if results.len() >= min && timed_s >= seconds {
            return (state, results);
        }
    }
}

/// Install the process-wide `pipemap_obs` registry, which switches the
/// program's counters on. There is no uninstalling it, so untraced passes
/// must come first.
pub fn install_registry() {
    pipemap_obs::install_global(pipemap_obs::Registry::new());
}

/// Current value of one of the program's counters (0 before
/// [`install_registry`]).
pub fn counter(name: &str) -> u64 {
    pipemap_obs::global_registry()
        .and_then(|r| r.snapshot().counter(name))
        .unwrap_or(0)
}

/// The share of the untraced wall time that tracing added.
pub fn overhead_frac(untraced_s: f64, traced_s: f64) -> f64 {
    if untraced_s <= 0.0 {
        return 0.0;
    }
    traced_s / untraced_s - 1.0
}

/// What every workload reports last: the trace file, the check counts,
/// memory. A run with a failed check may have skipped a measurement; its
/// result line is still printed, with the failures counted.
pub fn finish(ctx: &Ctx, out: &mut Outcome, workload: &str, tracer: &Tracer) {
    if out.failed > 0 {
        out.fill_unmeasured();
    }
    if ctx.trace {
        if let Err(e) = write_trace(ctx, workload, tracer) {
            out.check(false, || format!("trace file: {e}"));
        }
    }
    out.set("loadgen.checks", out.attempted as f64);
    out.set("failed_frac", out.failed_frac());
    out.set("peak_rss_mb", crate::procfs::peak_rss_mib());
    out.set(
        "threads_available",
        std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
    );
}

/// Write `benchmark/out/trace_<workload>.json`.
fn write_trace(ctx: &Ctx, workload: &str, tracer: &Tracer) -> Result<(), String> {
    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| e.to_string())?;
    let path = ctx.out_dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, tracer.to_json(workload, ctx.seed))
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slot_repeats_cheap_work_and_runs_slow_work_once() {
        let mut r = Repeats::default();
        let mut n = 0;
        let last = r.slot(|| {
            n += 1;
            n
        });
        assert_eq!(last, 50);
        assert_eq!(r.times_s.len(), 50);
        r.slot(|| std::thread::sleep(Duration::from_millis(25)));
        assert_eq!(r.times_s.len(), 51);
        assert!(r.median_s() < 0.025);
    }

    #[test]
    fn passes_fill_the_time_and_reach_the_minimum() {
        let mut setups = Repeats::default();
        let (state, passes) = passes_with_setup(0.0, 2, &mut setups, || 7, |s, i| s + i);
        assert_eq!((state, passes), (7, vec![7, 8]));
        let sleep = |_: &(), _| std::thread::sleep(Duration::from_millis(5));
        let (_, passes) = passes_with_setup(0.02, 1, &mut setups, || (), sleep);
        assert!((3..=4).contains(&passes.len()), "{}", passes.len());
    }

    #[test]
    fn overhead_has_the_sign_of_a_cost() {
        assert!((overhead_frac(2.0, 2.1) - 0.05).abs() < 1e-12);
        assert!(overhead_frac(2.0, 1.9) < 0.0);
        assert_eq!(overhead_frac(0.0, 1.0), 0.0);
    }
}
