//! The serving workloads: `serve_inproc`, `serve_uds`, `serve_observed`,
//! `serve_fft`.
//!
//! Each drives a two-stage pipeline through the executor's public load
//! drivers, first closed-loop (the source blocks on stage-0 backpressure,
//! so the pipeline saturates) and then open-loop on a fixed schedule, and
//! reads everything it reports from the drivers' return values.

use std::time::{Duration, Instant};

use pipemap_exec::kernels::{fft_cols, fft_rows, histogram, Complex, Matrix};
use pipemap_exec::wire::mix_words;
use pipemap_exec::{
    measure_transport, run_load, run_pipeline, run_wire_load, run_wire_pipeline, worker_probe,
    BufferPool, Data, LatencySummary, Lease, LoadOptions, PipelinePlan, PoolStats, Stage,
    StagePlan, WireKernel, WireLoadOptions, WirePlan, WireStagePlan,
};
use pipemap_obs::JourneyEvent;

use crate::gen::{fft_elem, micro_word, InputHash};
use crate::harness::{counter, finish, install_registry, Ctx, Repeats};
use crate::plan::PlanRequests;
use crate::procfs::cpu_s;
use crate::report::Outcome;
use crate::stats::{
    highest_supported_percentile, lateness_s, median, offered_frac, percentile, sorted,
};
use crate::trace::Tracer;

/// Words per micro payload: 512 × 8 bytes = 4 KiB.
const WORDS: usize = 512;
const BATCH: usize = 32;
const FLUSH_US: u64 = 200;
const QUEUE_DEPTH: usize = 4;
/// Salts of the two `mix` stages.
const SALTS: [u64; 2] = [1, 2];
/// Edge of the FFT-Hist matrices, and the histogram the paper takes of them.
const FFT_N: usize = 256;
const HIST_BINS: usize = 64;
/// Data sets checked against the reference before anything is timed.
const MICRO_PREFIX: usize = 256;
/// A quarter of that for FFT-Hist, whose reference costs milliseconds each.
const FFT_PREFIX: usize = 64;
/// The timed section is 12 saturating passes of a twentieth of
/// `--seconds` each, then 10 paced passes of a twenty-fifth each. Both
/// saturated throughput and paced latency swing by 10–25 % from one pass
/// to the next on a two-core box: four threads, or three processes, share
/// the cores, and a pass keeps the phase it started in, so one long pass
/// is as far off as one short one. Many short passes steady the median.
/// Shorter still and the wire driver's start-up burst (its schedule starts
/// before its workers are up) begins to show in the 90th percentile.
const SAT_PASSES: usize = 12;
const PACED_PASSES: usize = 10;
/// The generator stamps a span around every this-many-th data set of the
/// traced pass.
const SPAN_EVERY: u64 = 256;
/// Production settings of an observed run (`pipemap load --serve`).
const TELEMETRY_US: u64 = 100_000;
const JOURNEY_SAMPLE: u64 = 64;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    InProc,
    Uds,
    Observed,
    Fft,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::InProc => "serve_inproc",
            Kind::Uds => "serve_uds",
            Kind::Observed => "serve_observed",
            Kind::Fft => "serve_fft",
        }
    }

    fn wire(self) -> bool {
        matches!(self, Kind::Uds | Kind::Observed)
    }

    /// Open-loop rate, data sets per second. In process that is 35–45 % of
    /// what the pipeline saturates at on the two-core box the benchmark was
    /// sized on (590 k/s micro, 690 /s FFT-Hist), because latency rises well
    /// before throughput stops rising. Over worker processes the knee comes
    /// much earlier. At 100 k/s (45 % of 220 k/s) the 90th percentile of one
    /// pass swings between 0.3 and 1.1 ms; at 50 k/s between 0.25 and 0.57,
    /// and between 0.28 and 2.4 with the observer on; at 20 k/s it stays
    /// within 0.21–0.35 in nine passes of ten, so that is where the wire
    /// plane's latency is taken.
    fn paced_rate(self) -> f64 {
        match self {
            Kind::InProc => 200_000.0,
            Kind::Uds | Kind::Observed => 20_000.0,
            Kind::Fft => 300.0,
        }
    }

    fn prefix(self) -> usize {
        if self == Kind::Fft {
            FFT_PREFIX
        } else {
            MICRO_PREFIX
        }
    }
}

// ---------------------------------------------------------------------------
// Reference computations, written here and not shared with the program.
// ---------------------------------------------------------------------------

/// What one `mix` stage does to a word.
fn reference_mix(x: u64, salt: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(13) ^ salt
}

fn reference_micro(seed: u64, seq: u64) -> Vec<u64> {
    (0..WORDS)
        .map(|j| {
            SALTS
                .iter()
                .fold(micro_word(seed, seq, j), |x, &s| reference_mix(x, s))
        })
        .collect()
}

/// Textbook in-place radix-2 FFT on (re, im) pairs.
fn reference_fft(v: &mut [(f64, f64)]) {
    let n = v.len();
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = ((i as u32).reverse_bits() >> (32 - bits)) as usize;
        if i < j {
            v.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        for block in v.chunks_mut(len) {
            let (mut cr, mut ci) = (1.0, 0.0);
            for i in 0..len / 2 {
                let (ur, ui) = block[i];
                let (xr, xi) = block[i + len / 2];
                let (vr, vi) = (xr * cr - xi * ci, xr * ci + xi * cr);
                block[i] = (ur + vr, ui + vi);
                block[i + len / 2] = (ur - vr, ui - vi);
                (cr, ci) = (cr * wr - ci * wi, cr * wi + ci * wr);
            }
        }
        len *= 2;
    }
}

/// Serial FFT-Hist of data set `seq`: column FFTs, row FFTs, then the
/// histogram of squared magnitudes over `[0, FFT_N)`.
fn reference_fft_hist(seed: u64, seq: u64) -> Vec<u64> {
    let n = FFT_N;
    let mut m: Vec<(f64, f64)> = (0..n * n)
        .map(|i| (fft_elem(seed, seq, i / n, i % n), 0.0))
        .collect();
    let mut col = vec![(0.0, 0.0); n];
    for c in 0..n {
        for r in 0..n {
            col[r] = m[r * n + c];
        }
        reference_fft(&mut col);
        for r in 0..n {
            m[r * n + c] = col[r];
        }
    }
    let mut hist = vec![0u64; HIST_BINS];
    for row in m.chunks_mut(n) {
        reference_fft(row);
        for &(re, im) in row.iter() {
            let b = ((re * re + im * im) / n as f64 * HIST_BINS as f64) as usize;
            hist[b.min(HIST_BINS - 1)] += 1;
        }
    }
    hist
}

// ---------------------------------------------------------------------------
// The pipelines
// ---------------------------------------------------------------------------

fn with_transport(stages: Vec<StagePlan>) -> PipelinePlan {
    PipelinePlan::new(stages)
        .with_batch(BATCH)
        .with_flush_us(FLUSH_US)
        .with_queue_depth(QUEUE_DEPTH)
}

/// Two `mix` stages, one single-thread instance each, pooled payloads.
fn micro_plan() -> PipelinePlan {
    with_transport(
        SALTS
            .iter()
            .map(|&salt| {
                let stage = Stage::new(format!("mix{salt}"), move |mut v: Lease<Vec<u64>>, _| {
                    mix_words(&mut v, salt);
                    v
                });
                StagePlan::new(stage, 1, 1)
            })
            .collect(),
    )
}

/// The paper's Table-1 clustering of FFT-Hist: `{colffts}` then
/// `{rowffts + hist}`, the second module's two tasks fused into one stage.
fn fft_plan() -> PipelinePlan {
    with_transport(vec![
        StagePlan::new(
            Stage::new("colffts", |mut m: Lease<Matrix>, t| {
                fft_cols(&mut m, t);
                m
            }),
            1,
            1,
        ),
        StagePlan::new(
            Stage::new("rowffts+hist", |mut m: Lease<Matrix>, t| {
                fft_rows(&mut m, t);
                // The lease drops here and the matrix goes back to the pool.
                histogram(&m, HIST_BINS, FFT_N as f64, t)
            }),
            1,
            1,
        ),
    ])
}

/// The micro pipeline over worker processes.
fn wire_plan(observed: bool) -> WirePlan {
    let mut plan = WirePlan::new(
        SALTS
            .iter()
            .map(|&salt| WireStagePlan::new(WireKernel::Mix { salt }, 1, 1))
            .collect(),
    );
    plan.batch = BATCH;
    plan.flush_us = FLUSH_US;
    plan.queue_depth = QUEUE_DEPTH;
    if observed {
        plan.telemetry_us = TELEMETRY_US;
        plan.journey_sample = JOURNEY_SAMPLE;
    }
    plan
}

fn fill_micro(seed: u64, seq: u64, v: &mut [u64]) {
    for (j, x) in v.iter_mut().enumerate() {
        *x = micro_word(seed, seq, j);
    }
}

fn micro_data(pool: &BufferPool, seed: u64, seq: u64) -> Data {
    let mut lease = pool.take(|| vec![0u64; WORDS]);
    fill_micro(seed, seq, &mut lease);
    Box::new(lease)
}

fn micro_bytes(seed: u64, seq: u64, buf: &mut Vec<u8>) {
    for j in 0..WORDS {
        buf.extend_from_slice(&micro_word(seed, seq, j).to_le_bytes());
    }
}

fn fill_fft(seed: u64, seq: u64, m: &mut Matrix) {
    for (i, x) in m.data.iter_mut().enumerate() {
        *x = Complex::new(fft_elem(seed, seq, i / FFT_N, i % FFT_N), 0.0);
    }
}

fn fft_data(pool: &BufferPool, seed: u64, seq: u64) -> Data {
    let mut lease = pool.take(|| Matrix::zero(FFT_N));
    fill_fft(seed, seq, &mut lease);
    Box::new(lease)
}

/// The generator's own record of a pass: when each data set was made
/// (paced passes, to say how late the generator ran) and a span around
/// every [`SPAN_EVERY`]-th (traced pass).
struct GenLog {
    epoch: Instant,
    /// The schedule's rate, when the pass has one.
    paced: Option<f64>,
    spans_on: bool,
    stamps_s: Vec<f64>,
    spans: Vec<(u64, f64, f64)>,
}

impl GenLog {
    fn new(epoch: Instant, paced: Option<f64>, spans_on: bool) -> Self {
        Self {
            epoch,
            paced,
            spans_on,
            stamps_s: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn around<R>(&mut self, seq: u64, make: impl FnOnce() -> R) -> R {
        let span = self.spans_on && seq.is_multiple_of(SPAN_EVERY);
        if self.paced.is_none() && !span {
            return make();
        }
        let t0 = self.epoch.elapsed().as_secs_f64();
        if self.paced.is_some() {
            self.stamps_s.push(t0);
        }
        let r = make();
        if span {
            self.spans
                .push((seq, t0, self.epoch.elapsed().as_secs_f64()));
        }
        r
    }

    /// Median and 90th percentile of the generator's lateness, in seconds.
    fn lateness(&self) -> (f64, f64) {
        let Some(rate) = self.paced else {
            return (0.0, 0.0);
        };
        let mut late = lateness_s(&self.stamps_s, rate);
        if late.is_empty() {
            return (0.0, 0.0);
        }
        let late = sorted(&mut late);
        (percentile(late, 0.5), percentile(late, 0.9))
    }
}

/// How a saturating pass of a traced run is made.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Arm {
    /// Without the observer (`serve_observed` only).
    Bare = 0,
    Untraced = 1,
    /// With the generator recording spans.
    Traced = 2,
}

/// One pass through either data plane, in one shape.
struct Pass {
    offered: usize,
    generated: usize,
    completed: usize,
    elapsed: f64,
    throughput: f64,
    latency: LatencySummary,
    /// Summed per stage, seconds.
    busy: Vec<f64>,
    recv_wait: Vec<f64>,
    send_wait: Vec<f64>,
    source_wait: f64,
    messages: u64,
    message_items: u64,
    /// Bytes over every socket of the run (0 in process).
    link_bytes: u64,
    pool: Option<PoolStats>,
    events: Vec<JourneyEvent>,
    /// CPU seconds of this process and the workers it reaped.
    cpu_s: f64,
    /// Median and 90th percentile of how late the generator ran.
    late_s: (f64, f64),
    gen_spans: Vec<(u64, f64, f64)>,
}

struct State {
    kind: Kind,
    seed: u64,
    plan: PipelinePlan,
    pool: BufferPool,
    /// Seconds to bring a worker pipeline up, push one data set through it
    /// and reap it (0 in process).
    spawn_s: f64,
}

fn set_up(kind: Kind, seed: u64) -> Result<State, String> {
    let pool = BufferPool::new(1024);
    let plan = if kind == Kind::Fft {
        fft_plan()
    } else {
        micro_plan()
    };
    // Bring the in-process pipeline up once and push a short stream through
    // it: that starts its threads, fills the pool the timed passes draw on,
    // and faults the kernels in. Long enough that the compute, not the
    // page faults of the first payloads, is what the time consists of.
    if !kind.wire() {
        let opts = LoadOptions {
            rate: None,
            duration: None,
            max_datasets: Some(if kind == Kind::Fft { 48 } else { 2048 }),
            ..LoadOptions::default()
        };
        let pool = &pool;
        let warm = if kind == Kind::Fft {
            run_load(&plan, |seq| fft_data(pool, seed, seq as u64), &opts)
        } else {
            run_load(&plan, |seq| micro_data(pool, seed, seq as u64), &opts)
        };
        if warm.completed != warm.generated {
            return Err("warm-up lost data sets".into());
        }
    }
    let mut spawn_s = 0.0;
    if kind.wire() {
        if !worker_probe() {
            return Err("worker probe failed: no worker binary answers --probe".into());
        }
        let mut bytes = Vec::new();
        micro_bytes(seed, 0, &mut bytes);
        let t0 = Instant::now();
        let (got, _) = run_wire_pipeline(&wire_plan(false), vec![bytes])?;
        spawn_s = t0.elapsed().as_secs_f64();
        if got.len() != 1 {
            return Err("worker bring-up lost its data set".into());
        }
    }
    Ok(State {
        kind,
        seed,
        plan,
        pool,
        spawn_s,
    })
}

fn run_pass(
    st: &State,
    rate: Option<f64>,
    seconds: f64,
    observed: bool,
    mut gen: GenLog,
) -> Result<Pass, String> {
    let duration = Some(Duration::from_secs_f64(seconds));
    let cpu0 = cpu_s();
    let seed = st.seed;
    if st.kind.wire() {
        let opts = WireLoadOptions {
            rate,
            duration,
            ..WireLoadOptions::default()
        };
        let r = run_wire_load(
            &wire_plan(observed),
            |seq, buf| gen.around(seq, || micro_bytes(seed, seq, buf)),
            opts,
        )?;
        let run = r.run;
        return Ok(Pass {
            offered: r.offered as usize,
            generated: r.generated as usize,
            completed: r.completed as usize,
            elapsed: r.elapsed,
            throughput: r.throughput,
            latency: r.latency,
            busy: run.stages.iter().map(|s| s.service_s).collect(),
            recv_wait: run.stages.iter().map(|s| s.recv_wait_s).collect(),
            send_wait: run.stages.iter().map(|s| s.send_wait_s).collect(),
            source_wait: run.source_wait_s,
            messages: run.links.iter().map(|l| l.frames).sum(),
            message_items: run.links.iter().map(|l| l.items).sum(),
            link_bytes: run.links.iter().map(|l| l.bytes).sum(),
            pool: None,
            events: run.events,
            cpu_s: cpu_s() - cpu0,
            late_s: gen.lateness(),
            gen_spans: gen.spans,
        });
    }
    let opts = LoadOptions {
        rate,
        duration,
        ..LoadOptions::default()
    };
    let before = st.pool.stats();
    let pool = &st.pool;
    let r = if st.kind == Kind::Fft {
        run_load(
            &st.plan,
            |seq| gen.around(seq as u64, || fft_data(pool, seed, seq as u64)),
            &opts,
        )
    } else {
        run_load(
            &st.plan,
            |seq| gen.around(seq as u64, || micro_data(pool, seed, seq as u64)),
            &opts,
        )
    };
    let after = st.pool.stats();
    Ok(Pass {
        offered: r.offered,
        generated: r.generated,
        completed: r.completed,
        elapsed: r.elapsed,
        throughput: r.throughput,
        latency: r.latency,
        busy: r.stats.busy,
        recv_wait: r.stats.recv_wait,
        send_wait: r.stats.send_wait,
        source_wait: r.stats.source_wait,
        messages: r.stats.messages,
        message_items: r.stats.message_items,
        link_bytes: 0,
        pool: Some(PoolStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            returns: after.returns - before.returns,
            discarded: after.discarded - before.discarded,
        }),
        events: Vec::new(),
        cpu_s: cpu_s() - cpu0,
        late_s: gen.lateness(),
        gen_spans: gen.spans,
    })
}

/// Run one pass and count it: everything generated must reach the sink.
fn checked_pass(
    st: &State,
    out: &mut Outcome,
    what: &str,
    rate: Option<f64>,
    seconds: f64,
    observed: bool,
    gen: GenLog,
) -> Option<Pass> {
    match run_pass(st, rate, seconds, observed, gen) {
        Ok(p) => {
            out.check(p.completed == p.generated && p.completed > 0, || {
                format!(
                    "{what}: generated {} but completed {}",
                    p.generated, p.completed
                )
            });
            Some(p)
        }
        Err(e) => {
            out.check(false, || format!("{what}: {e}"));
            None
        }
    }
}

/// Push the first data sets through `run_pipeline` (and the worker
/// pipeline, for the wire workloads) and compare every output with the
/// reference computation.
fn check_prefix(st: &State, out: &mut Outcome, hash: &mut InputHash) {
    let n = st.kind.prefix() as u64;
    if st.kind == Kind::Fft {
        let inputs: Vec<Data> = (0..n).map(|s| fft_data(&st.pool, st.seed, s)).collect();
        for i in 0..FFT_N * FFT_N {
            hash.f64(fft_elem(st.seed, 0, i / FFT_N, i % FFT_N));
        }
        let (outputs, _) = run_pipeline(&st.plan, inputs);
        out.check(outputs.len() == n as usize, || {
            "fft prefix lost data sets".into()
        });
        for (seq, data) in outputs.into_iter().enumerate() {
            let got = data.downcast::<Vec<u64>>().ok();
            let want = reference_fft_hist(st.seed, seq as u64);
            out.check(got.as_deref() == Some(&want), || {
                format!("data set {seq}: histogram differs from the serial reference")
            });
        }
        return;
    }
    let inputs: Vec<Data> = (0..n).map(|s| micro_data(&st.pool, st.seed, s)).collect();
    for seq in 0..n {
        for j in 0..WORDS {
            hash.u64(micro_word(st.seed, seq, j));
        }
    }
    let (outputs, _) = run_pipeline(&st.plan, inputs);
    out.check(outputs.len() == n as usize, || {
        "micro prefix lost data sets".into()
    });
    let words: Vec<Option<Vec<u64>>> = outputs
        .into_iter()
        .map(|d| d.downcast::<Lease<Vec<u64>>>().ok().map(|l| l.to_vec()))
        .collect();
    for (seq, got) in words.iter().enumerate() {
        out.check(
            got.as_ref() == Some(&reference_micro(st.seed, seq as u64)),
            || format!("data set {seq}: in-process output differs from the reference mix"),
        );
    }
    if !st.kind.wire() {
        return;
    }
    let inputs = (0..n)
        .map(|s| {
            let mut b = Vec::new();
            micro_bytes(st.seed, s, &mut b);
            b
        })
        .collect();
    match run_wire_pipeline(&wire_plan(false), inputs) {
        Ok((outputs, _)) => {
            out.check(outputs.len() == words.len(), || {
                "uds prefix lost data sets".into()
            });
            for (seq, (bytes, words)) in outputs.iter().zip(&words).enumerate() {
                let same = words.as_ref().is_some_and(|w| {
                    bytes.len() == w.len() * 8
                        && bytes
                            .chunks_exact(8)
                            .zip(w)
                            .all(|(b, w)| b == w.to_le_bytes().as_slice())
                });
                out.check(same, || {
                    format!("data set {seq}: uds bytes differ from the in-process words")
                });
            }
        }
        Err(e) => out.check(false, || format!("uds prefix: {e}")),
    }
}

/// Worker processes of this run still alive, and `pipemap-wire-*` /
/// `pipemap-cal-*` directories left in the temporary directory.
fn orphans() -> u64 {
    let me = std::process::id().to_string();
    let mut n = 0;
    if let Ok(procs) = std::fs::read_dir("/proc") {
        for p in procs.flatten() {
            let stat = std::fs::read_to_string(p.path().join("stat")).unwrap_or_default();
            // Field 4 is the parent's pid; fields are counted after the
            // command name, which may itself hold spaces.
            let ppid = stat
                .rfind(')')
                .and_then(|i| stat[i + 1..].split_whitespace().nth(1));
            if ppid == Some(me.as_str()) {
                n += 1;
            }
        }
    }
    if let Ok(entries) = std::fs::read_dir(std::env::temp_dir()) {
        n += entries
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("pipemap-"))
            .count() as u64;
    }
    n
}

/// The gated serve metrics take the pass at the better quartile: the 75th
/// percentile of the passes' throughputs, the 25th of their latencies.
/// Whatever else runs on a shared box only ever slows a pass down, so the
/// passes are a clean mode with a one-sided tail; the better quartile stays
/// inside the mode while fewer than three passes in four are disturbed,
/// the median only while fewer than two in four are. Over eight seeds the
/// wire plane's 90th percentile spread 32 % by the median of its passes and
/// 6 % by their better quartile.
fn better_quartile(passes: &[Pass], f: impl Fn(&Pass) -> f64, higher_is_better: bool) -> f64 {
    pass_quantile(passes, if higher_is_better { 0.75 } else { 0.25 }, f)
}

fn med(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    pass_quantile(passes, 0.5, f)
}

/// The `q` quantile, over the passes, of what `f` reads from each (0 when
/// there are none).
fn pass_quantile(passes: &[Pass], q: f64, f: impl Fn(&Pass) -> f64) -> f64 {
    let mut v: Vec<f64> = passes.iter().map(f).collect();
    if v.is_empty() {
        return 0.0;
    }
    percentile(sorted(&mut v), q)
}

/// The per-layer numbers every serve workload reads out of its passes.
fn layer_metrics(out: &mut Outcome, sat: &[Pass], paced: &[Pass]) {
    let per_dataset = |p: &Pass, x: f64| x / (p.completed.max(1) as f64);
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let max_frac = |p: &Pass, v: &[f64]| v.iter().fold(0.0f64, |m, x| m.max(x / p.elapsed));
    let fill = |p: &Pass| p.message_items as f64 / (p.messages.max(1) as f64);
    out.set(
        "exec.kernel_ns_per_dataset",
        med(sat, |p| per_dataset(p, sum(&p.busy)) * 1e9),
    );
    out.set("exec.busy_frac_max", med(sat, |p| max_frac(p, &p.busy)));
    out.set(
        "exec.wait_recv_frac",
        med(sat, |p| max_frac(p, &p.recv_wait)),
    );
    out.set(
        "exec.wait_send_frac",
        med(sat, |p| max_frac(p, &p.send_wait)),
    );
    out.set(
        "exec.source_wait_frac",
        med(sat, |p| p.source_wait / p.elapsed),
    );
    // The paper's formula on this run's own service means: with one
    // instance per stage, predicted throughput is 1 / max_i(s_i).
    out.set(
        "exec.achieved_over_predicted",
        med(sat, |p| {
            p.throughput * p.busy.iter().fold(0.0f64, |m, b| m.max(per_dataset(p, *b)))
        }),
    );
    out.set("exec.mean_batch_fill", med(sat, fill));
    out.set(
        "exec.messages_per_dataset",
        med(sat, |p| per_dataset(p, p.messages as f64)),
    );
    if sat.iter().all(|p| p.pool.is_some()) {
        out.set(
            "exec.pool_hit_rate",
            med(sat, |p| p.pool.map_or(0.0, |s| s.hit_rate())),
        );
    }
    out.set(
        "exec.link_bytes_per_dataset",
        med(sat, |p| per_dataset(p, p.link_bytes as f64)),
    );
    if sat.iter().any(|p| p.link_bytes > 0) {
        out.set("exec.link_items_per_frame", med(sat, fill));
    }
    out.set(
        "exec.cpu_us_per_dataset",
        med(sat, |p| per_dataset(p, p.cpu_s) * 1e6),
    );
    out.set("exec.latency_p99_s", med(paced, |p| p.latency.p99));
    out.set("exec.latency_max_s", med(paced, |p| p.latency.max));
    out.set("loadgen.late_p50_s", med(paced, |p| p.late_s.0));
    out.set("loadgen.late_p90_s", med(paced, |p| p.late_s.1));
    out.set(
        "loadgen.latency_samples",
        med(paced, |p| p.completed as f64),
    );
    out.set("loadgen.passes", sat.len() as f64);
}

/// The kernels of the pipeline called directly, outside any pipeline:
/// nanoseconds per data set.
fn kernel_alone_ns(kind: Kind, seed: u64) -> f64 {
    if kind == Kind::Fft {
        let mut m = Matrix::zero(FFT_N);
        let reps = 40;
        let mut kernel_s = 0.0;
        for seq in 0..reps {
            fill_fft(seed, seq, &mut m);
            // Only the kernels count, not refilling the matrix.
            let t0 = Instant::now();
            fft_cols(&mut m, 1);
            fft_rows(&mut m, 1);
            std::hint::black_box(histogram(&m, HIST_BINS, FFT_N as f64, 1));
            kernel_s += t0.elapsed().as_secs_f64();
        }
        return kernel_s / reps as f64 * 1e9;
    }
    let mut v = vec![0u64; WORDS];
    fill_micro(seed, 0, &mut v);
    let reps = 200_000;
    let t0 = Instant::now();
    for _ in 0..reps {
        for salt in SALTS {
            mix_words(std::hint::black_box(&mut v), salt);
        }
    }
    std::hint::black_box(&v);
    t0.elapsed().as_secs_f64() / reps as f64 * 1e9
}

pub fn serve(ctx: &Ctx, kind: Kind) -> Outcome {
    let mut out = Outcome::default();
    let name = kind.name();
    // An observed run is one with the process-wide registry installed.
    if kind == Kind::Observed {
        install_registry();
    }
    let mut tracer = if ctx.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    // Set-up and the planning request are small, so both are repeated in a
    // slot before every pass and their medians taken over the whole run.
    let mut setups = Repeats::default();
    let mut requests = PlanRequests::new(ctx.seed);
    let mut st = None;
    let mut refresh = |st: &mut Option<State>, out: &mut Outcome, tracer: &mut Tracer| -> bool {
        requests.slot(tracer);
        match setups.slot(|| set_up(kind, ctx.seed)) {
            Ok(fresh) => *st = Some(fresh),
            Err(e) => {
                out.fail_whole(format!("{name} set-up: {e}"));
                return false;
            }
        }
        true
    };
    if !refresh(&mut st, &mut out, &mut tracer) {
        finish(ctx, &mut out, name, &tracer);
        return out;
    }
    let mut hash = InputHash::default();
    check_prefix(st.as_ref().expect("set up"), &mut out, &mut hash);
    out.set("loadgen.input_hash", hash.low32());

    let sat_s = ctx.seconds / 20.0;
    let paced_s = ctx.seconds / 25.0;
    let rate = kind.paced_rate();
    let observed = kind == Kind::Observed;
    // A traced run makes fewer steps, and every saturating step of it runs
    // the pass once per arm: untraced and traced (and, observed, bare), in
    // an order that rotates from step to step. Pass-to-pass swings are far
    // larger than any overhead, so only arms measured side by side compare.
    let (sat_n, paced_n) = if ctx.trace {
        (6, 4)
    } else {
        (SAT_PASSES, PACED_PASSES)
    };
    let arms: Vec<Arm> = match (ctx.trace, observed) {
        (false, _) => vec![Arm::Untraced],
        (true, false) => vec![Arm::Untraced, Arm::Traced],
        (true, true) => vec![Arm::Bare, Arm::Untraced, Arm::Traced],
    };
    let driver = if kind.wire() {
        "exec.run_wire_load"
    } else {
        "exec.run_load"
    };
    let mut sat = Vec::new();
    let mut paced = Vec::new();
    // Per step of a traced run: the share of throughput the observer cost
    // (observed against bare) and tracing cost (traced against untraced).
    let mut observer_cost = Vec::new();
    let mut tracing_cost = Vec::new();
    // The two phases are interleaved, so that a few seconds in which the
    // shared box is busy elsewhere cost each phase a few passes, which its
    // median shrugs off, instead of costing one phase most of them.
    let total = sat_n + paced_n;
    let mut sat_steps = 0;
    for i in 0..total {
        if i > 0 && !refresh(&mut st, &mut out, &mut tracer) {
            break;
        }
        let st = st.as_ref().expect("set up");
        let is_paced = (i + 1) * paced_n / total > i * paced_n / total;
        if is_paced {
            let what = format!("{name} paced pass at step {i}");
            let gen = GenLog::new(Instant::now(), Some(rate), false);
            paced.extend(checked_pass(
                st,
                &mut out,
                &what,
                Some(rate),
                paced_s,
                observed,
                gen,
            ));
        } else {
            sat_steps += 1;
            let mut step = [None; 3];
            for k in 0..arms.len() {
                let arm = arms[(sat_steps + k) % arms.len()];
                let what = format!("{name} saturating pass at step {i} ({arm:?})");
                let obs = observed && arm != Arm::Bare;
                let pass = if arm == Arm::Traced {
                    let parent = tracer.next_id();
                    let gen = GenLog::new(tracer.epoch(), None, true);
                    let (pass, _) = tracer.leaf(driver, i as u64, || {
                        checked_pass(st, &mut out, &what, None, sat_s, obs, gen)
                    });
                    for &(seq, a, b) in pass.iter().flat_map(|p| &p.gen_spans) {
                        tracer.add_child(parent, "loadgen.make", seq, a, b);
                    }
                    pass
                } else {
                    let gen = GenLog::new(Instant::now(), None, false);
                    checked_pass(st, &mut out, &what, None, sat_s, obs, gen)
                };
                step[arm as usize] = pass.as_ref().map(|p| p.throughput);
                if arm == Arm::Untraced {
                    sat.extend(pass);
                }
            }
            // Arms are compared inside a step, where they ran back to back.
            if let [bare, Some(untraced), traced] = step {
                observer_cost.extend(bare.map(|b| 1.0 - untraced / b));
                tracing_cost.extend(traced.map(|t| 1.0 - t / untraced));
            }
        }
    }
    // A pass that fell behind its schedule did not measure the pipeline at
    // that rate, so its latencies are not used. One stalled pass in a run is
    // the box; a third of them is the pipeline not keeping up with the rate,
    // and that fails the run whole.
    let offered = |p: &Pass| offered_frac(p.offered, rate, paced_s);
    out.set("loadgen.offered_rate_frac", med(&paced, offered));
    let made = paced.len();
    paced.retain(|p| offered(p) >= 0.99);
    let stalled = made - paced.len();
    if stalled * 3 > paced_n {
        out.fail_whole(format!(
            "{name}: {stalled} of {paced_n} paced passes offered under 99 % of their schedule"
        ));
    }
    // The gated percentiles are the median and the 90th: a pass must have
    // the ten samples beyond the 90th that takes.
    for p in &paced {
        out.check(highest_supported_percentile(p.completed) >= 0.9, || {
            format!(
                "{name}: a paced pass of {} samples cannot carry a 90th percentile",
                p.completed
            )
        });
    }
    out.set("setup_s", setups.median_s());
    let report = requests.finish(ctx, &mut out);
    if kind == Kind::Fft {
        let clustering = report.as_ref().map(|r| r.chosen().clustering());
        out.check(clustering == Some(vec![(0, 0), (1, 2)]), || {
            format!("the planner clusters FFT-Hist as {clustering:?}; what is served is {{colffts}} | {{rowffts+hist}}")
        });
    }
    let (Some(st), false, false) = (st, sat.is_empty(), paced.is_empty()) else {
        out.fail_whole(format!("{name}: no pass completed"));
        finish(ctx, &mut out, name, &tracer);
        return out;
    };
    out.set("exec.spawn_s", st.spawn_s);
    out.set(
        "throughput_dps",
        better_quartile(&sat, |p| p.throughput, true),
    );
    out.set(
        "latency_p50_s",
        better_quartile(&paced, |p| p.latency.p50, false),
    );
    out.set(
        "latency_p90_s",
        better_quartile(&paced, |p| p.latency.p90, false),
    );
    layer_metrics(&mut out, &sat, &paced);
    if !observer_cost.is_empty() {
        out.set("obs.overhead_frac", median(&mut observer_cost));
    }

    if ctx.trace {
        out.set("loadgen.trace_overhead_frac", median(&mut tracing_cost));
        layer_probes(ctx, &st, &mut out, &mut tracer, &sat);
    }
    let left = orphans();
    out.set("exec.orphans", left as f64);
    out.check(left == 0, || {
        format!("{left} worker processes or run directories left behind")
    });
    finish(ctx, &mut out, name, &tracer);
    out
}

/// Layer measurements that are not part of a pass. No registry is installed
/// for them (an observed run has had one from the start): everything these
/// workloads report comes back from the drivers, and the registry switches
/// on a histogram record per data set.
fn layer_probes(ctx: &Ctx, st: &State, out: &mut Outcome, tracer: &mut Tracer, sat: &[Pass]) {
    let kind = st.kind;
    let observed = kind == Kind::Observed;
    let (alone, _) = tracer.leaf("exec.kernels_alone", 0, || kernel_alone_ns(kind, ctx.seed));
    out.set("exec.kernel_alone_ns", alone);

    if kind.wire() {
        for (name, bytes, batch) in [
            ("exec.transport_us_per_msg_64", 64, BATCH),
            ("exec.transport_us_per_msg_4k", WORDS * 8, BATCH),
            ("exec.transport_naive_us_per_msg_64", 64, 1),
        ] {
            let (m, _) = tracer.leaf("exec.measure_transport", bytes as u64, || {
                measure_transport(bytes, 20_000, batch)
            });
            match m {
                Ok(m) => out.set(name, m.seconds_per_message * 1e6),
                Err(e) => out.check(false, || format!("{name}: {e}")),
            }
        }
    }

    if observed {
        // What the run collected, through the observer's own read side.
        let last = sat.last();
        let events: &[JourneyEvent] = last.map_or(&[], |p| &p.events);
        let dropped = counter(pipemap_obs::names::JOURNEY_DROPPED) as f64;
        out.set("obs.journey_events", events.len() as f64);
        out.set(
            "obs.journey_dropped_frac",
            dropped / (events.len() as f64 + dropped).max(1.0),
        );
        if let Some(registry) = pipemap_obs::global_registry() {
            let (text, s) = tracer.leaf("obs.snapshot_render", 0, || {
                std::hint::black_box(registry.snapshot());
                pipemap_obs::render_openmetrics(registry)
            });
            out.set("obs.snapshot_render_s", s);
            out.check(text.contains("pipemap_exec_worker"), || {
                "the observed run shipped no worker series to the registry".into()
            });
        }
        let names: Vec<String> = SALTS.iter().map(|s| format!("mix{s}")).collect();
        let means: Vec<f64> = last.map_or_else(
            || vec![0.0; SALTS.len()],
            |p| {
                p.busy
                    .iter()
                    .map(|b| b / p.completed.max(1) as f64)
                    .collect()
            },
        );
        let model = pipemap_doctor::ModelPrediction::from_measured(&names, &[1, 1], &means);
        let opts = pipemap_doctor::DoctorOptions {
            sample: JOURNEY_SAMPLE,
            ..Default::default()
        };
        let (report, s) = tracer.leaf("doctor.diagnose", 0, || {
            pipemap_doctor::diagnose(events, Some(&model), &opts)
        });
        out.set("doctor.diagnose_s", s);
        out.set(
            "doctor.journeys_per_s",
            report.stitched as f64 / s.max(1e-12),
        );
        out.check(report.complete > 0, || {
            "the doctor found no complete journey".into()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemap_exec::kernels::dft_naive;

    #[test]
    fn reference_mix_is_the_documented_transform() {
        // x -> rotl(x * PRIME, 13) ^ salt, on a value worked by hand.
        assert_eq!(reference_mix(0, 5), 5);
        assert_eq!(
            reference_mix(1, 0),
            0x9E37_79B9_7F4A_7C15u64.rotate_left(13)
        );
        let out = reference_micro(3, 9);
        assert_eq!(out.len(), WORDS);
        assert_eq!(
            out[7],
            reference_mix(reference_mix(micro_word(3, 9, 7), SALTS[0]), SALTS[1])
        );
    }

    #[test]
    fn reference_fft_matches_the_naive_dft() {
        let input: Vec<(f64, f64)> = (0..16)
            .map(|i| ((i * 7 % 5) as f64, (i % 3) as f64))
            .collect();
        let mut got = input.clone();
        reference_fft(&mut got);
        let complex: Vec<Complex> = input.iter().map(|&(re, im)| Complex::new(re, im)).collect();
        for (g, w) in got.iter().zip(dft_naive(&complex)) {
            assert!((g.0 - w.re).abs() < 1e-9 && (g.1 - w.im).abs() < 1e-9);
        }
    }

    #[test]
    fn reference_histogram_counts_every_element_once() {
        let h = reference_fft_hist(1, 0);
        assert_eq!(h.len(), HIST_BINS);
        assert_eq!(h.iter().sum::<u64>(), (FFT_N * FFT_N) as u64);
    }

    #[test]
    fn generator_log_stamps_and_samples() {
        let mut log = GenLog::new(Instant::now(), Some(1e6), true);
        for seq in 0..600 {
            log.around(seq, || ());
        }
        assert_eq!(log.stamps_s.len(), 600);
        assert_eq!(
            log.spans.iter().map(|s| s.0).collect::<Vec<_>>(),
            vec![0, 256, 512]
        );
        assert!(log.stamps_s.windows(2).all(|w| w[0] <= w[1]));
        let (p50, p90) = log.lateness();
        assert!(0.0 <= p50 && p50 <= p90);
        let mut quiet = GenLog::new(Instant::now(), None, false);
        assert_eq!(quiet.around(0, || 4), 4);
        assert!(quiet.stamps_s.is_empty() && quiet.spans.is_empty());
        assert_eq!(quiet.lateness(), (0.0, 0.0));
    }
}
