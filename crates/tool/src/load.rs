//! The `pipemap load` sustained-load driver.
//!
//! Drives a real threaded pipeline (built from one of two built-in
//! workloads) at a target rate or open loop, via
//! [`pipemap_exec::run_load`], and reports achieved datasets/sec, p50/p99
//! end-to-end latency, per-stage backpressure, transport batching
//! effectiveness, and buffer-pool hit rate. The achieved throughput is
//! validated against the paper's closed form
//! `1 / max_i (s_i / r_i)` ([`pipemap_sim::steady_state_throughput`])
//! evaluated on the *measured* per-stage service means — the serving-side
//! counterpart of the predicted-vs-measured tables.
//!
//! Workloads:
//!
//! * `micro` — `stages` light integer-mixing stages over `len`-element
//!   `u64` buffers: per-dataset work is tiny, so the data plane (channel
//!   messages, allocation churn) dominates and batching/pooling effects
//!   are visible;
//! * `fft-hist` — the paper's FFT-Hist computation on `n×n` complex
//!   matrices (row FFTs → column FFTs → histogram): per-dataset work is
//!   real, so latency percentiles and backpressure are meaningful.

use pipemap_exec::kernels::{fft_cols, fft_rows, histogram, Complex, Matrix};
use pipemap_exec::{
    run_load, run_wire_load, BufferPool, Data, InstanceStats, Lease, LinkReport, LoadOptions,
    LoadReport, PipelinePlan, PipelineStats, PoolStats, Stage, StagePlan, TransportKind,
    WireKernel, WireLoadOptions, WirePlan, WireStagePlan,
};
use pipemap_obs::{EventLog, JourneyCollector, JourneyEvent, SloConfig, Value};
use pipemap_profile::TransportCalibration;
use std::time::Duration;

/// Which built-in pipeline to drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Light integer-mixing stages (data-plane stress).
    Micro,
    /// FFT-Hist on complex matrices (real compute).
    FftHist,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "micro" => Some(Workload::Micro),
            "fft-hist" => Some(Workload::FftHist),
            _ => None,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Workload::Micro => "micro",
            Workload::FftHist => "fft-hist",
        }
    }
}

/// The most replicas `pipemap load` starts per stage: the paper's 64-cell
/// machine. Each replica is an OS thread in process, or a worker process
/// over uds.
pub const MAX_LOAD_REPLICAS: usize = 64;

/// The deepest per-instance queue `pipemap load` accepts, in messages:
/// the in-process channels preallocate every slot.
pub const MAX_LOAD_QUEUE_DEPTH: usize = 65_536;

/// The most threads per instance `pipemap load` accepts: the solver
/// pool's cap, [`pipemap_core::pool::MAX_POOL_THREADS`].
pub const MAX_LOAD_THREADS: usize = pipemap_core::pool::MAX_POOL_THREADS;

/// The largest `--size` `pipemap load` accepts: micro's default buffer
/// of 1 024 `u64`s, or a 1 024 × 1 024 FFT-Hist matrix (16 MiB a data
/// set). Every size in use is at or below it, and the power-of-two
/// round-up of a size this small cannot overflow.
pub const MAX_LOAD_SIZE: usize = 1024;

/// Full configuration of one load run.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// The pipeline to drive.
    pub workload: Workload,
    /// Target rate (datasets/s); `None` = open loop.
    pub rate: Option<f64>,
    /// Stop feeding after this many seconds.
    pub duration_s: Option<f64>,
    /// Stop feeding after this many datasets.
    pub datasets: Option<usize>,
    /// Transport batch size (datasets per channel message).
    pub batch: usize,
    /// Batch latency bound, microseconds.
    pub flush_us: u64,
    /// Per-instance input queue depth, in messages.
    pub queue_depth: usize,
    /// Replicas per stage.
    pub replicas: usize,
    /// Threads per instance.
    pub threads: usize,
    /// Recycle payloads through a [`BufferPool`].
    pub pool: bool,
    /// Micro: number of stages. FFT-Hist: fixed 3-stage pipeline.
    pub stages: usize,
    /// Micro: buffer length (u64 elements). FFT-Hist: matrix edge.
    pub size: usize,
    /// Record per-dataset journey events into this collector.
    pub journeys: Option<JourneyCollector>,
    /// Emit SLO/backpressure events into this log.
    pub events: Option<EventLog>,
    /// Latency objective evaluated against every completed data set
    /// (needs `events` to land anywhere).
    pub slo: Option<SloConfig>,
    /// Which data plane carries the pipeline: threads in this process,
    /// or worker processes over Unix sockets.
    pub transport: TransportKind,
    /// Admission control: a token bucket capping the accepted rate.
    pub admit_rate: Option<f64>,
    /// Bounded-queue shedding: drop arrivals beyond this in-flight bound.
    pub shed_queue: Option<usize>,
    /// Calibrated transport cost; when present on a UDS run, the
    /// closed-form prediction includes the measured `f_ecom`.
    pub calibration: Option<TransportCalibration>,
    /// UDS journey sampling: record every n-th data set (0 = off). The
    /// in-process path samples through `journeys` instead.
    pub journey_sample: u64,
    /// UDS telemetry snapshot period, microseconds (0 = off): workers
    /// ship metric deltas, resource gauges, and sampled journeys back to
    /// the parent's global registry while the run is live.
    pub telemetry_us: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            workload: Workload::Micro,
            rate: None,
            duration_s: Some(2.0),
            datasets: None,
            batch: 32,
            flush_us: 200,
            queue_depth: 4,
            replicas: 1,
            threads: 1,
            pool: true,
            stages: 4,
            size: 1024,
            journeys: None,
            events: None,
            slo: None,
            transport: TransportKind::InProc,
            admit_rate: None,
            shed_queue: None,
            calibration: None,
            journey_sample: 0,
            telemetry_us: 0,
        }
    }
}

impl LoadConfig {
    /// The reference data plane: unbatched transport, no pooling — the
    /// pre-batching executor, kept for A/B comparison.
    pub fn reference(mut self) -> Self {
        self.batch = 1;
        self.pool = false;
        self
    }
}

/// What one load run produced, ready for rendering.
#[derive(Clone, Debug)]
pub struct LoadSummary {
    /// The configuration that ran.
    pub config: LoadConfig,
    /// Stage names, in pipeline order.
    pub stage_names: Vec<String>,
    /// The driver's measurement.
    pub report: LoadReport,
    /// Closed-form throughput predicted from the measured per-stage
    /// service means (`NaN` when nothing completed).
    pub predicted_throughput: f64,
    /// Pool counters, when pooling was on.
    pub pool: Option<PoolStats>,
    /// Per-boundary wire counters (UDS runs only; empty in-process).
    pub wire_links: Vec<LinkReport>,
    /// Journey events gathered from the worker processes (UDS runs with
    /// `journey_sample > 0` only).
    pub wire_events: Vec<JourneyEvent>,
    /// Calibrated per-stage transport seconds folded into the
    /// prediction (empty when no calibration was applied).
    pub ecom_means: Vec<f64>,
}

const MIX_PRIME: u64 = 0x9E37_79B9_7F4A_7C15;

fn mix(v: &mut [u64], salt: u64) {
    for x in v.iter_mut() {
        *x = x.wrapping_mul(MIX_PRIME).rotate_left(13) ^ salt;
    }
}

fn fill(v: &mut [u64], seq: usize) {
    for (j, x) in v.iter_mut().enumerate() {
        *x = seq as u64 ^ ((j as u64) << 32);
    }
}

/// The micro workload's plan: `stages` mixing stages, pooled or plain
/// payloads. Exposed for the bench suite, which drives the same plan.
pub fn micro_plan(cfg: &LoadConfig) -> PipelinePlan {
    let stages = (0..cfg.stages.max(1))
        .map(|i| {
            let salt = i as u64 + 1;
            let stage = if cfg.pool {
                Stage::new(format!("mix{i}"), move |mut v: Lease<Vec<u64>>, _| {
                    mix(&mut v, salt);
                    v
                })
            } else {
                Stage::new(format!("mix{i}"), move |mut v: Vec<u64>, _| {
                    mix(&mut v, salt);
                    v
                })
            };
            StagePlan::new(stage, cfg.replicas.max(1), cfg.threads.max(1))
        })
        .collect();
    let plan = PipelinePlan::new(stages)
        .with_batch(cfg.batch.max(1))
        .with_flush_us(cfg.flush_us)
        .with_queue_depth(cfg.queue_depth.max(1));
    attach_observability(plan, cfg)
}

/// Attach whichever observability surfaces the config carries.
fn attach_observability(mut plan: PipelinePlan, cfg: &LoadConfig) -> PipelinePlan {
    if let Some(j) = &cfg.journeys {
        plan = plan.with_journeys(j.clone());
    }
    if let Some(log) = &cfg.events {
        plan = plan.with_events(log.clone());
        if let Some(slo) = cfg.slo {
            plan = plan.with_slo(slo);
        }
    }
    plan
}

/// The micro workload's source: fresh or pooled `len`-element buffers.
/// Exposed for the bench suite.
pub fn micro_source(
    len: usize,
    pool: Option<BufferPool>,
) -> impl FnMut(usize) -> Data + Send + 'static {
    move |seq| match &pool {
        Some(p) => {
            let mut lease = p.take(|| vec![0u64; len]);
            fill(&mut lease, seq);
            Box::new(lease) as Data
        }
        None => {
            let mut v = vec![0u64; len];
            fill(&mut v, seq);
            Box::new(v) as Data
        }
    }
}

/// The FFT-Hist workload's plan: row FFTs → column FFTs → histogram.
pub fn fft_hist_plan(cfg: &LoadConfig) -> PipelinePlan {
    let n = cfg.size.max(2).next_power_of_two();
    let max = n as f64;
    let stages = if cfg.pool {
        vec![
            Stage::new("fft_rows", |mut m: Lease<Matrix>, t| {
                fft_rows(&mut m, t);
                m
            }),
            Stage::new("fft_cols", |mut m: Lease<Matrix>, t| {
                fft_cols(&mut m, t);
                m
            }),
            // The lease drops here, returning the matrix to the pool.
            Stage::new("histogram", move |m: Lease<Matrix>, t| {
                histogram(&m, 64, max, t)
            }),
        ]
    } else {
        vec![
            Stage::new("fft_rows", |mut m: Matrix, t| {
                fft_rows(&mut m, t);
                m
            }),
            Stage::new("fft_cols", |mut m: Matrix, t| {
                fft_cols(&mut m, t);
                m
            }),
            Stage::new("histogram", move |m: Matrix, t| histogram(&m, 64, max, t)),
        ]
    };
    let plans = stages
        .into_iter()
        .map(|s| StagePlan::new(s, cfg.replicas.max(1), cfg.threads.max(1)))
        .collect();
    let plan = PipelinePlan::new(plans)
        .with_batch(cfg.batch.max(1))
        .with_flush_us(cfg.flush_us)
        .with_queue_depth(cfg.queue_depth.max(1));
    attach_observability(plan, cfg)
}

fn fft_hist_source(
    n: usize,
    pool: Option<BufferPool>,
) -> impl FnMut(usize) -> Data + Send + 'static {
    let n = n.max(2).next_power_of_two();
    move |seq| {
        let write = |m: &mut Matrix| {
            for r in 0..n {
                for c in 0..n {
                    m.data[r * n + c] =
                        Complex::new(((r * 31 + c * 17 + seq * 7) % 97) as f64 / 97.0, 0.0);
                }
            }
        };
        match &pool {
            Some(p) => {
                let mut lease = p.take(|| Matrix::zero(n));
                write(&mut lease);
                Box::new(lease) as Data
            }
            None => {
                let mut m = Matrix::zero(n);
                write(&mut m);
                Box::new(m) as Data
            }
        }
    }
}

/// The wire (multi-process) plan equivalent of the configured workload.
pub fn wire_plan_for(cfg: &LoadConfig) -> WirePlan {
    let kernels: Vec<WireKernel> = match cfg.workload {
        Workload::Micro => (0..cfg.stages.max(1))
            .map(|i| WireKernel::Mix { salt: i as u64 + 1 })
            .collect(),
        Workload::FftHist => {
            let n = cfg.size.max(2).next_power_of_two();
            vec![
                WireKernel::FftRows,
                WireKernel::FftCols,
                WireKernel::Histogram {
                    bins: 64,
                    max: n as f64,
                },
            ]
        }
    };
    let stages = kernels
        .into_iter()
        .map(|k| WireStagePlan::new(k, cfg.replicas.max(1), cfg.threads.max(1)))
        .collect();
    let mut plan = WirePlan::new(stages);
    plan.batch = cfg.batch.max(1);
    plan.flush_us = cfg.flush_us;
    plan.queue_depth = cfg.queue_depth.max(1);
    plan.journey_sample = cfg.journey_sample;
    plan.telemetry_us = cfg.telemetry_us;
    plan
}

/// Fill `buf` with data set `seq`'s input payload for the workload.
fn wire_payload(cfg: &LoadConfig, seq: u64, buf: &mut Vec<u8>) {
    match cfg.workload {
        Workload::Micro => {
            for j in 0..cfg.size {
                let w = seq ^ ((j as u64) << 32);
                buf.extend_from_slice(&w.to_le_bytes());
            }
        }
        Workload::FftHist => {
            let n = cfg.size.max(2).next_power_of_two();
            for r in 0..n {
                for c in 0..n {
                    let re = ((r * 31 + c * 17 + seq as usize * 7) % 97) as f64 / 97.0;
                    buf.extend_from_slice(&re.to_le_bytes());
                    buf.extend_from_slice(&0f64.to_le_bytes());
                }
            }
        }
    }
}

/// Run the configured load over worker processes and shape the result
/// into the same [`LoadSummary`] the in-process path produces.
fn run_uds_load(cfg: &LoadConfig) -> Result<LoadSummary, String> {
    let plan = wire_plan_for(cfg);
    let opts = WireLoadOptions {
        rate: cfg.rate,
        duration: cfg.duration_s.map(Duration::from_secs_f64),
        max_datasets: cfg.datasets.map(|n| n as u64),
        admit_rate: cfg.admit_rate,
        shed_queue: cfg.shed_queue.map(|n| n as u64),
    };
    let cfg2 = cfg.clone();
    let wlr = run_wire_load(&plan, move |seq, buf| wire_payload(&cfg2, seq, buf), opts)?;
    let run = &wlr.run;
    let nstages = run.stages.len();
    let elapsed = wlr.elapsed.max(1e-9);
    let busy: Vec<f64> = run.stages.iter().map(|s| s.service_s).collect();
    let recv_wait: Vec<f64> = run.stages.iter().map(|s| s.recv_wait_s).collect();
    let send_wait: Vec<f64> = run.stages.iter().map(|s| s.send_wait_s).collect();
    let utilization: Vec<f64> = run
        .stages
        .iter()
        .map(|s| s.service_s / (s.replicas.max(1) as f64 * elapsed))
        .collect();
    let instances: Vec<InstanceStats> = run
        .workers
        .iter()
        .map(|w| InstanceStats {
            stage: w.stage,
            instance: w.instance,
            recv_wait: w.recv_wait_s,
            busy: w.service_s,
            send_wait: w.send_wait_s,
            lifetime: w.lifetime_s,
        })
        .collect();
    let messages: u64 = run.links.iter().map(|l| l.frames).sum();
    let message_items: u64 = run.links.iter().map(|l| l.items).sum();
    let stats = PipelineStats {
        datasets: wlr.completed as usize,
        generated: wlr.generated as usize,
        elapsed: wlr.elapsed,
        throughput: wlr.throughput,
        busy,
        recv_wait,
        send_wait,
        utilization,
        source_wait: run.source_wait_s,
        messages,
        message_items,
        instances,
    };
    let report = LoadReport {
        offered: wlr.offered as usize,
        rejected: wlr.rejected as usize,
        shed: wlr.shed as usize,
        generated: wlr.generated as usize,
        completed: wlr.completed as usize,
        elapsed: wlr.elapsed,
        throughput: wlr.throughput,
        offered_rate: cfg.rate,
        latency: wlr.latency,
        stats,
    };
    let stage_names: Vec<String> = plan.stage_names();
    let replicas = plan.replicas();

    // Closed form over the measured per-item service means, with the
    // calibrated `f_ecom` folded in when a calibration is present: each
    // stage's outbound link prices as
    //   (per_msg · frames + per_byte · bytes) / items
    // — per-message overhead amortised over the coalescing the run
    // actually achieved.
    let service_means = run.service_means();
    let (predicted_throughput, ecom_means) = if wlr.completed == 0 {
        (f64::NAN, Vec::new())
    } else if let Some(cal) = &cfg.calibration {
        let ecom: Vec<f64> = (0..nstages)
            .map(|i| {
                // Link i+1 is stage i's outbound boundary (0 = source).
                run.links
                    .get(i + 1)
                    .map(|l| {
                        if l.items == 0 {
                            0.0
                        } else {
                            (cal.per_msg_s * l.frames as f64 + cal.per_byte_s * l.bytes as f64)
                                / l.items as f64
                        }
                    })
                    .unwrap_or(0.0)
            })
            .collect();
        let loaded: Vec<f64> = service_means
            .iter()
            .zip(&ecom)
            .map(|(s, e)| s + e)
            .collect();
        (
            pipemap_sim::steady_state_throughput(&loaded, &replicas),
            ecom,
        )
    } else {
        (
            pipemap_sim::steady_state_throughput(&service_means, &replicas),
            Vec::new(),
        )
    };

    Ok(LoadSummary {
        config: cfg.clone(),
        stage_names,
        report,
        predicted_throughput,
        pool: None,
        wire_links: run.links.clone(),
        wire_events: run.events.clone(),
        ecom_means,
    })
}

/// Run one configured load and summarise it.
///
/// # Panics
///
/// Panics if a UDS run fails outright (no workers, dead sockets); the
/// in-process path never errors.
pub fn run_configured_load(cfg: &LoadConfig) -> LoadSummary {
    try_run_configured_load(cfg).expect("load run failed")
}

/// [`run_configured_load`], with UDS engine failures surfaced as `Err`.
pub fn try_run_configured_load(cfg: &LoadConfig) -> Result<LoadSummary, String> {
    if cfg.transport == TransportKind::Uds {
        return run_uds_load(cfg);
    }
    // The shelf must cover the pipeline's in-flight window (stage queues
    // × batch × stages, plus transport buffers) or takes outrun returns
    // and the pool degenerates to plain allocation. 1024 payloads cover
    // every configuration the CLI exposes.
    let pool = cfg.pool.then(|| BufferPool::new(1024));
    let opts = LoadOptions {
        rate: cfg.rate,
        duration: cfg.duration_s.map(Duration::from_secs_f64),
        max_datasets: cfg.datasets,
        admit_rate: cfg.admit_rate,
        shed_queue: cfg.shed_queue,
    };
    let (plan, report) = match cfg.workload {
        Workload::Micro => {
            let plan = micro_plan(cfg);
            let report = run_load(&plan, micro_source(cfg.size, pool.clone()), &opts);
            (plan, report)
        }
        Workload::FftHist => {
            let plan = fft_hist_plan(cfg);
            let report = run_load(&plan, fft_hist_source(cfg.size, pool.clone()), &opts);
            (plan, report)
        }
    };
    let stage_names: Vec<String> = plan
        .stages
        .iter()
        .map(|sp| sp.stage.name.to_string())
        .collect();
    // Closed-form prediction from the measured service means: stage i's
    // mean seconds per dataset is its total busy time over the datasets
    // it served (every dataset passes through every stage once).
    let predicted_throughput = if report.completed > 0 {
        let means: Vec<f64> = report
            .stats
            .busy
            .iter()
            .map(|b| b / report.completed as f64)
            .collect();
        let replicas: Vec<usize> = plan.stages.iter().map(|sp| sp.replicas).collect();
        pipemap_sim::steady_state_throughput(&means, &replicas)
    } else {
        f64::NAN
    };
    if let Some(p) = &pool {
        p.publish();
    }
    Ok(LoadSummary {
        config: cfg.clone(),
        stage_names,
        report,
        predicted_throughput,
        pool: pool.map(|p| p.stats()),
        wire_links: Vec::new(),
        wire_events: Vec::new(),
        ecom_means: Vec::new(),
    })
}

/// Render a human-readable report.
pub fn render_load_summary(s: &LoadSummary) -> String {
    let r = &s.report;
    let cfg = &s.config;
    let mut out = String::new();
    out.push_str(&format!(
        "workload : {} over {} (batch {}, flush {}µs, queue {}, {}x{} per stage, pool {})\n",
        cfg.workload.as_str(),
        cfg.transport.as_str(),
        cfg.batch,
        cfg.flush_us,
        cfg.queue_depth,
        cfg.replicas,
        cfg.threads,
        if cfg.pool { "on" } else { "off" }
    ));
    match cfg.rate {
        Some(rate) => out.push_str(&format!("offered  : {rate:.1} datasets/s\n")),
        None => out.push_str("offered  : open loop (backpressure-limited)\n"),
    }
    out.push_str(&format!(
        "served   : {} datasets in {:.3}s -> {:.1} datasets/s\n",
        r.completed, r.elapsed, r.throughput
    ));
    if r.rejected > 0 || r.shed > 0 || cfg.admit_rate.is_some() || cfg.shed_queue.is_some() {
        out.push_str(&format!(
            "overload : {} offered, {} rejected (admission), {} shed (queue bound)\n",
            r.offered, r.rejected, r.shed
        ));
    }
    if s.predicted_throughput.is_finite() {
        let ratio = r.throughput / s.predicted_throughput;
        let with = if s.ecom_means.is_empty() {
            ""
        } else {
            " + calibrated f_ecom"
        };
        out.push_str(&format!(
            "predicted: {:.1} datasets/s from measured service means{with} (achieved/predicted {:.2})\n",
            s.predicted_throughput, ratio
        ));
    }
    out.push_str(&format!(
        "latency  : mean {:.6}s  p50 {:.6}s  p90 {:.6}s  p99 {:.6}s  max {:.6}s\n",
        r.latency.mean, r.latency.p50, r.latency.p90, r.latency.p99, r.latency.max
    ));
    out.push_str(&format!(
        "transport: {} messages carrying {} datasets (mean fill {:.2}); source blocked {:.3}s\n",
        r.stats.messages,
        r.stats.message_items,
        r.stats.mean_batch_fill(),
        r.stats.source_wait
    ));
    if let Some(p) = &s.pool {
        out.push_str(&format!(
            "pool     : {:.0}% hit rate ({} hits, {} misses, {} returns, {} discarded)\n",
            p.hit_rate() * 100.0,
            p.hits,
            p.misses,
            p.returns,
            p.discarded
        ));
    }
    let denom = (cfg.replicas.max(1) as f64) * r.elapsed.max(1e-9);
    for (i, name) in s.stage_names.iter().enumerate() {
        let ecom = s
            .ecom_means
            .get(i)
            .map(|e| format!("  f_ecom {:.2}µs/item", e * 1e6))
            .unwrap_or_default();
        out.push_str(&format!(
            "stage {i} ({name}): busy {:.0}%  starved {:.0}%  backpressured {:.0}%{ecom}\n",
            100.0 * r.stats.busy[i] / denom,
            100.0 * r.stats.recv_wait[i] / denom,
            100.0 * r.stats.send_wait[i] / denom,
        ));
    }
    for l in &s.wire_links {
        out.push_str(&format!(
            "link {}: {} frames carrying {} items ({:.1} bytes/item, fill {:.2})\n",
            l.label,
            l.frames,
            l.items,
            l.bytes_per_item(),
            if l.frames == 0 {
                0.0
            } else {
                l.items as f64 / l.frames as f64
            }
        ));
    }
    out
}

/// Render the machine-readable JSON report.
pub fn load_report_json(s: &LoadSummary) -> Value {
    let cfg = &s.config;
    let r = &s.report;
    let mut doc = Value::object();
    doc.set("workload", cfg.workload.as_str());

    let mut c = Value::object();
    c.set("transport", cfg.transport.as_str());
    if let Some(rate) = cfg.rate {
        c.set("rate", rate);
    }
    if let Some(a) = cfg.admit_rate {
        c.set("admit_rate", a);
    }
    if let Some(q) = cfg.shed_queue {
        c.set("shed_queue", q as f64);
    }
    if let Some(d) = cfg.duration_s {
        c.set("duration_s", d);
    }
    if let Some(n) = cfg.datasets {
        c.set("datasets", n as f64);
    }
    c.set("batch", cfg.batch as f64);
    c.set("flush_us", cfg.flush_us as f64);
    c.set("queue_depth", cfg.queue_depth as f64);
    c.set("replicas", cfg.replicas as f64);
    c.set("threads", cfg.threads as f64);
    c.set("pool", cfg.pool);
    c.set("stages", cfg.stages as f64);
    c.set("size", cfg.size as f64);
    doc.set("config", c);

    let mut res = Value::object();
    res.set("offered", r.offered as f64);
    res.set("rejected", r.rejected as f64);
    res.set("shed", r.shed as f64);
    res.set("generated", r.generated as f64);
    res.set("completed", r.completed as f64);
    res.set("elapsed_s", r.elapsed);
    res.set("throughput", r.throughput);
    if s.predicted_throughput.is_finite() {
        res.set("predicted_throughput", s.predicted_throughput);
        res.set(
            "achieved_over_predicted",
            r.throughput / s.predicted_throughput,
        );
    }
    let mut lat = Value::object();
    lat.set("mean_s", r.latency.mean);
    lat.set("p50_s", r.latency.p50);
    lat.set("p90_s", r.latency.p90);
    lat.set("p99_s", r.latency.p99);
    lat.set("max_s", r.latency.max);
    res.set("latency", lat);
    doc.set("result", res);

    let mut t = Value::object();
    t.set("messages", r.stats.messages as f64);
    t.set("message_items", r.stats.message_items as f64);
    t.set("mean_batch_fill", r.stats.mean_batch_fill());
    t.set("source_wait_s", r.stats.source_wait);
    doc.set("transport", t);

    if let Some(p) = &s.pool {
        let mut pv = Value::object();
        pv.set("hits", p.hits as f64);
        pv.set("misses", p.misses as f64);
        pv.set("returns", p.returns as f64);
        pv.set("discarded", p.discarded as f64);
        pv.set("hit_rate", p.hit_rate());
        doc.set("pool", pv);
    }

    let denom = (cfg.replicas.max(1) as f64) * r.elapsed.max(1e-9);
    let stages: Vec<Value> = s
        .stage_names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut st = Value::object();
            st.set("name", name.as_str());
            st.set("busy_s", r.stats.busy[i]);
            st.set("recv_wait_s", r.stats.recv_wait[i]);
            st.set("send_wait_s", r.stats.send_wait[i]);
            st.set("utilization", r.stats.utilization[i]);
            st.set("backpressure", r.stats.send_wait[i] / denom);
            if let Some(e) = s.ecom_means.get(i) {
                st.set("ecom_s", *e);
            }
            st
        })
        .collect();
    doc.set("stages", Value::Array(stages));

    if !s.wire_links.is_empty() {
        let links: Vec<Value> = s
            .wire_links
            .iter()
            .map(|l| {
                let mut lv = Value::object();
                lv.set("link", l.label.as_str());
                lv.set("frames", l.frames as f64);
                lv.set("items", l.items as f64);
                lv.set("bytes", l.bytes as f64);
                lv.set("bytes_per_item", l.bytes_per_item());
                lv
            })
            .collect();
        doc.set("links", Value::Array(links));
    }
    doc
}

/// The model snapshot a load run's journey log carries: the closed-form
/// prediction over the *measured* per-stage service means (the executor
/// has no communication model, so predicted transport is zero). The
/// doctor compares journey-derived means against this, so on a healthy
/// run the drift verdict is clean by construction — it flips only when
/// the journey decomposition disagrees with the busy-time accounting.
pub fn measured_prediction(s: &LoadSummary) -> Option<pipemap_doctor::ModelPrediction> {
    if s.report.completed == 0 {
        return None;
    }
    let means: Vec<f64> = s
        .report
        .stats
        .busy
        .iter()
        .map(|b| b / s.report.completed as f64)
        .collect();
    let replicas = vec![s.config.replicas.max(1); s.stage_names.len()];
    Some(pipemap_doctor::ModelPrediction::from_measured(
        &s.stage_names,
        &replicas,
        &means,
    ))
}

/// One point of a rate ramp: offered vs achieved, with the overload
/// counters and tail latency at that rate.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Offered rate of this step (datasets/s).
    pub offered_rate: f64,
    /// Achieved sink throughput (datasets/s).
    pub throughput: f64,
    /// Arrivals rejected by admission control.
    pub rejected: usize,
    /// Arrivals shed at the in-flight bound.
    pub shed: usize,
    /// p50 end-to-end latency (s).
    pub p50: f64,
    /// p99 end-to-end latency (s).
    pub p99: f64,
}

/// A full ramp sweep: the points in offered-rate order, plus the knee.
#[derive(Clone, Debug)]
pub struct RateSweep {
    /// One point per offered rate, ascending.
    pub points: Vec<SweepPoint>,
    /// The saturation knee: the highest offered rate the pipeline still
    /// kept up with (achieved ≥ 95% of offered). `None` when even the
    /// lowest rate saturated.
    pub knee: Option<f64>,
}

/// Fraction of the offered rate a point must achieve to count as
/// "keeping up" in the knee search.
pub const KNEE_KEEPUP: f64 = 0.95;

/// Ramp the offered rate from `lo` to `hi` across `steps` runs of the
/// configured load and locate the saturation knee. Each step reuses the
/// full config (transport, shedding, calibration) with only `rate`
/// swapped.
pub fn run_rate_sweep(
    cfg: &LoadConfig,
    lo: f64,
    hi: f64,
    steps: usize,
) -> Result<RateSweep, String> {
    if !lo.is_finite() || !hi.is_finite() || lo <= 0.0 || hi < lo || steps < 2 {
        return Err(format!(
            "bad sweep lo:hi:steps = {lo}:{hi}:{steps} (need 0 < lo <= hi, steps >= 2)"
        ));
    }
    let mut points = Vec::with_capacity(steps);
    for i in 0..steps {
        let rate = lo + (hi - lo) * i as f64 / (steps - 1) as f64;
        let step_cfg = LoadConfig {
            rate: Some(rate),
            ..cfg.clone()
        };
        let s = try_run_configured_load(&step_cfg)?;
        points.push(SweepPoint {
            offered_rate: rate,
            throughput: s.report.throughput,
            rejected: s.report.rejected,
            shed: s.report.shed,
            p50: s.report.latency.p50,
            p99: s.report.latency.p99,
        });
    }
    // The knee is the last rate the pipeline still kept up with; beyond
    // it the achieved curve flattens while offered keeps climbing.
    let knee = points
        .iter()
        .filter(|p| p.throughput >= KNEE_KEEPUP * p.offered_rate)
        .map(|p| p.offered_rate)
        .fold(None, |acc: Option<f64>, r| {
            Some(acc.map_or(r, |a| a.max(r)))
        });
    Ok(RateSweep { points, knee })
}

/// Render a human-readable sweep table.
pub fn render_rate_sweep(s: &RateSweep) -> String {
    let mut out = String::new();
    out.push_str("offered/s  achieved/s  keep-up  rejected  shed  p50_s      p99_s\n");
    for p in &s.points {
        out.push_str(&format!(
            "{:>9.1}  {:>10.1}  {:>6.2}   {:>8}  {:>4}  {:<9.6}  {:.6}\n",
            p.offered_rate,
            p.throughput,
            p.throughput / p.offered_rate.max(1e-9),
            p.rejected,
            p.shed,
            p.p50,
            p.p99
        ));
    }
    match s.knee {
        Some(k) => out.push_str(&format!(
            "knee     : {k:.1} datasets/s (last rate with achieved >= {:.0}% of offered)\n",
            KNEE_KEEPUP * 100.0
        )),
        None => out.push_str("knee     : below the lowest swept rate (saturated everywhere)\n"),
    }
    out
}

/// Machine-readable sweep report.
pub fn rate_sweep_json(cfg: &LoadConfig, s: &RateSweep) -> Value {
    let mut doc = Value::object();
    doc.set("workload", cfg.workload.as_str());
    doc.set("transport", cfg.transport.as_str());
    let points: Vec<Value> = s
        .points
        .iter()
        .map(|p| {
            let mut pv = Value::object();
            pv.set("offered_rate", p.offered_rate);
            pv.set("throughput", p.throughput);
            pv.set("rejected", p.rejected as f64);
            pv.set("shed", p.shed as f64);
            pv.set("p50_s", p.p50);
            pv.set("p99_s", p.p99);
            pv
        })
        .collect();
    doc.set("points", Value::Array(points));
    match s.knee {
        Some(k) => doc.set("knee_rate", k),
        None => doc.set("knee_rate", Value::Null),
    };
    doc
}

/// Parse a duration like `2`, `2s`, `2.5s`, or `250ms` into seconds.
pub fn parse_duration_s(s: &str) -> Option<f64> {
    let (num, scale) = if let Some(rest) = s.strip_suffix("ms") {
        (rest, 1e-3)
    } else if let Some(rest) = s.strip_suffix('s') {
        (rest, 1.0)
    } else {
        (s, 1.0)
    };
    let v: f64 = num.parse().ok()?;
    (v >= 0.0 && v.is_finite()).then_some(v * scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counted(n: usize, cfg: LoadConfig) -> LoadConfig {
        LoadConfig {
            duration_s: None,
            datasets: Some(n),
            ..cfg
        }
    }

    #[test]
    fn micro_load_reports_consistent_numbers() {
        // 2000 datasets is far beyond the pipeline's in-flight window,
        // so a sustained run must see pool hits regardless of timing.
        let cfg = counted(
            2000,
            LoadConfig {
                size: 64,
                ..LoadConfig::default()
            },
        );
        let s = run_configured_load(&cfg);
        assert_eq!(s.report.completed, 2000);
        assert_eq!(s.stage_names.len(), 4);
        assert!(s.report.throughput > 0.0);
        assert!(s.predicted_throughput > 0.0);
        let pool = s.pool.expect("pool on by default");
        assert_eq!(pool.hits + pool.misses, 2000);
        assert!(pool.hits > 0, "sustained run should recycle: {pool:?}");
        // Batched transport fills messages beyond one item.
        assert!(s.report.stats.mean_batch_fill() > 1.0);
        let text = render_load_summary(&s);
        assert!(text.contains("datasets/s"), "{text}");
        let json = load_report_json(&s);
        assert_eq!(
            json.get("result")
                .and_then(|r| r.get("completed"))
                .and_then(Value::as_f64),
            Some(2000.0)
        );
    }

    #[test]
    fn reference_config_disables_batching_and_pooling() {
        let cfg = counted(200, LoadConfig::default().reference());
        assert_eq!(cfg.batch, 1);
        assert!(!cfg.pool);
        let s = run_configured_load(&cfg);
        assert_eq!(s.report.completed, 200);
        assert!(s.pool.is_none());
        assert!((s.report.stats.mean_batch_fill() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fft_hist_load_runs() {
        let cfg = counted(
            40,
            LoadConfig {
                workload: Workload::FftHist,
                size: 16,
                ..LoadConfig::default()
            },
        );
        let s = run_configured_load(&cfg);
        assert_eq!(s.report.completed, 40);
        assert_eq!(s.stage_names, vec!["fft_rows", "fft_cols", "histogram"]);
        assert!(s.report.latency.p99 >= s.report.latency.p50);
    }

    #[test]
    fn duration_strings_parse() {
        assert_eq!(parse_duration_s("2"), Some(2.0));
        assert_eq!(parse_duration_s("2s"), Some(2.0));
        assert_eq!(parse_duration_s("250ms"), Some(0.25));
        assert_eq!(parse_duration_s("2.5s"), Some(2.5));
        assert_eq!(parse_duration_s("-1"), None);
        assert_eq!(parse_duration_s("x"), None);
    }
}
