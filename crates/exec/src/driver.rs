//! Sustained-load driving: generate data sets at a target rate (or
//! open-loop, as fast as backpressure admits) and measure what the
//! pipeline actually serves — achieved datasets/sec and end-to-end
//! latency percentiles. This is the measurement-side counterpart of the
//! paper's objective: the solver predicts stream throughput
//! `1 / max_i (f_i / r_i)`; [`run_load`] observes it on a running
//! pipeline.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::executor::{execute, Feeder, Item, Outlet, PipelinePlan, PipelineStats};
use crate::pool;
use crate::proc::{run_wire, WireRun};
use crate::stage::Data;
use crate::transport::WireItem;
use crate::wire::WirePlan;

/// Bound on sink buffering in messages, on both planes (channel messages
/// in process, frames over uds). Each carries up to a batch of data sets,
/// so up to 32 768 of them can queue at a lagging sink at batch 32, and
/// every one past the pool's shelf is a fresh allocation.
pub(crate) const SINK_CAP: usize = 1024;

/// How long a run lasts when neither limit is set.
const DEFAULT_RUN: Duration = Duration::from_secs(2);

/// How to drive the pipeline, on either plane. `N` counts data sets:
/// `usize` in process, `u64` over uds ([`WireLoadOptions`]), matching
/// each plane's report.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadOptions<N = usize> {
    /// Target offered rate in data sets per second; `None` is open loop
    /// (push as fast as stage-0 backpressure admits).
    pub rate: Option<f64>,
    /// Stop offering after this long. With both limits set, the first
    /// one reached stops the run; with neither, it runs for 2 s.
    pub duration: Option<Duration>,
    /// Stop after this many offered arrivals (data sets, unless
    /// admission control or shedding turns some away).
    pub max_datasets: Option<N>,
    /// Admission control: a token bucket capping the *accepted* rate;
    /// arrivals beyond it are rejected at the door instead of queueing.
    pub admit_rate: Option<f64>,
    /// Bounded-queue shedding: drop arrivals while more than this many
    /// admitted data sets are still in flight, instead of letting the
    /// source block on backpressure.
    pub shed_queue: Option<N>,
}

/// [`run_wire_load`]'s options: the same type, counted in `u64`.
pub type WireLoadOptions = LoadOptions<u64>;

impl LoadOptions {
    fn widened(&self) -> WireLoadOptions {
        LoadOptions {
            rate: self.rate,
            duration: self.duration,
            max_datasets: self.max_datasets.map(|n| n as u64),
            admit_rate: self.admit_rate,
            shed_queue: self.shed_queue.map(|n| n as u64),
        }
    }
}

/// End-to-end latency summary (seconds from source push to sink
/// arrival; the source's own admission wait is not included).
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Mean latency.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Worst observed.
    pub max: f64,
}

impl LatencySummary {
    /// Summarise a sample set (sorted in place).
    pub fn from_samples(samples: &mut [f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let pct = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
        Self {
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
            max: *samples.last().expect("non-empty"),
        }
    }
}

/// What a load run measured.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Arrivals the load generator offered (equals `generated` unless
    /// admission control or shedding turned some away).
    pub offered: usize,
    /// Arrivals rejected by admission control.
    pub rejected: usize,
    /// Arrivals shed because the in-flight bound was hit.
    pub shed: usize,
    /// Data sets the source pushed.
    pub generated: usize,
    /// Data sets that reached the sink (equals `generated`: the pipeline
    /// drains before the run ends).
    pub completed: usize,
    /// Wall-clock seconds for the whole run (feed + drain).
    pub elapsed: f64,
    /// Achieved throughput, data sets per second.
    pub throughput: f64,
    /// The target rate the source paced itself to, if any.
    pub offered_rate: Option<f64>,
    /// End-to-end latency summary.
    pub latency: LatencySummary,
    /// Full per-stage/per-instance statistics of the run.
    pub stats: PipelineStats,
}

/// What the arrival loop did with its arrivals.
#[derive(Default)]
struct Arrivals {
    offered: u64,
    rejected: u64,
    shed: u64,
}

/// The source side of both load drivers: offer arrivals to `feeder`
/// until the first limit in `opts` is reached (2 s from `start` when
/// neither is set), and hand each admitted one to `push`, which builds
/// and pushes data set [`Feeder::pushed`].
///
/// Pacing is keyed off *offered* arrivals: data set `n` is due at
/// `start + n/rate`, and sheds and rejections consume an arrival slot
/// without feeding. A token bucket refilled at `admit_rate` rejects
/// arrivals beyond it; with `shed_queue`, an arrival is shed while that
/// many admitted data sets are in flight (pushed but not yet counted in
/// `done`), backing off 50 µs in a closed loop instead of spinning.
/// Before either sleep the feeder flushes its partial batches: every one
/// when `flush_all`, else only the aged ones.
fn arrive<O: Outlet>(
    feeder: &mut Feeder<O>,
    opts: &WireLoadOptions,
    start: Instant,
    done: &AtomicU64,
    flush_all: bool,
    tally: &mut Arrivals,
    mut push: impl FnMut(&mut Feeder<O>) -> io::Result<()>,
) -> io::Result<()> {
    let duration = match (opts.duration, opts.max_datasets) {
        (None, None) => Some(DEFAULT_RUN),
        (duration, _) => duration,
    };
    let mut tokens: f64 = 1.0;
    let mut last_refill = Instant::now();
    loop {
        if opts.max_datasets.is_some_and(|max| tally.offered >= max)
            || duration.is_some_and(|d| start.elapsed() >= d)
        {
            return Ok(());
        }
        if let Some(rate) = opts.rate {
            let due = start + Duration::from_secs_f64(tally.offered as f64 / rate);
            let now = Instant::now();
            if due > now {
                feeder.idle(flush_all)?;
                std::thread::sleep(due - now);
            }
        }
        tally.offered += 1;
        if let Some(admit) = opts.admit_rate {
            let now = Instant::now();
            tokens = (tokens + now.duration_since(last_refill).as_secs_f64() * admit)
                .min((admit * 0.1).max(1.0));
            last_refill = now;
            if tokens < 1.0 {
                tally.rejected += 1;
                continue;
            }
            tokens -= 1.0;
        }
        if let Some(bound) = opts.shed_queue {
            let in_flight = (feeder.pushed() as u64).saturating_sub(done.load(Ordering::Relaxed));
            if in_flight >= bound {
                tally.shed += 1;
                if opts.rate.is_none() {
                    feeder.idle(flush_all)?;
                    std::thread::sleep(Duration::from_micros(50));
                }
                continue;
            }
        }
        push(feeder)?;
    }
}

/// Drive `plan` with data sets built by `make(seq)` until the rate/
/// duration/count limits in `opts` are reached, then drain and report.
///
/// Pacing: with a target rate, data set `n` is due at `start + n/rate`;
/// the source sleeps until then (flushing any aged partial batch first,
/// so pacing never extends the batching latency bound). Open loop pushes
/// back-to-back and measures the backpressure-limited maximum.
///
/// # Panics
///
/// Panics if a stage function panics or the plan is empty.
pub fn run_load(
    plan: &PipelinePlan,
    mut make: impl FnMut(usize) -> Data + Send,
    opts: &LoadOptions,
) -> LoadReport {
    let wide = opts.widened();
    // Retired data sets: the sink counts them, the source's shedding
    // reads them.
    let done = AtomicU64::new(0);
    let mut tally = Arrivals::default();
    let rec = pipemap_obs::global();
    let lat_hist = rec.histogram("exec.load.latency_s");
    let mut samples: Vec<f64> = Vec::new();
    // SLO alerting: evaluate every completed data set's end-to-end
    // latency against the objective, emitting burn-rate events into the
    // plan's event log.
    let mut alerts = match (&plan.events, plan.slo) {
        (Some(log), Some(slo)) => {
            Some((pipemap_obs::AlertEngine::new(slo, log.clone()), log.clone()))
        }
        _ => None,
    };
    // Reading the clock per completion is measurable at hundreds of
    // thousands of datasets per second, and the burn windows bucket
    // time far coarser than a few dozen datasets anyway — so refresh
    // the alert timestamp every 32 observations instead of every one.
    let mut alert_t_us = 0.0;
    let mut alert_ctr = 0u32;
    // Journey tracing: the load driver owns the sink side, so it records
    // the terminal `Sink` event as each data set completes.
    let mut stamps = plan
        .journeys
        .as_ref()
        .map(|c| crate::executor::Stamper::local(c.sink()));
    let sink_stage = plan.stages.len() as u32;
    let batch = plan.batch.max(1);
    let stats = {
        let (done, tally) = (&done, &mut tally);
        execute(
            plan,
            SINK_CAP,
            move |feeder| {
                // `make`'s takes read ahead from the pool's shelf; cycling
                // every batch hands back what a batch left unused.
                let takes = pool::Scope::open();
                arrive(feeder, &wide, Instant::now(), done, false, tally, |f| {
                    let seq = f.pushed();
                    let data = make(seq);
                    let born = Instant::now();
                    f.push(Item { seq, born, data }, born)?;
                    if f.pushed().is_multiple_of(batch) {
                        takes.cycle();
                    }
                    Ok(())
                })
                .expect("downstream instance hung up");
            },
            |item| {
                done.fetch_add(1, Ordering::Relaxed);
                if let Some(j) = stamps.as_mut() {
                    j.stamp(&[pipemap_obs::JourneyKind::Sink], item.seq, sink_stage, 0);
                }
                let latency = item.born.elapsed().as_secs_f64();
                lat_hist.record(latency);
                samples.push(latency);
                if let Some((engine, log)) = alerts.as_mut() {
                    if alert_ctr.is_multiple_of(32) {
                        alert_t_us = log.now_us();
                    }
                    alert_ctr = alert_ctr.wrapping_add(1);
                    engine.observe_latency(alert_t_us, latency);
                }
            },
        )
    };
    LoadReport {
        offered: tally.offered as usize,
        rejected: tally.rejected as usize,
        shed: tally.shed as usize,
        generated: stats.generated,
        completed: stats.datasets,
        elapsed: stats.elapsed,
        throughput: stats.throughput,
        offered_rate: opts.rate,
        latency: LatencySummary::from_samples(&mut samples),
        stats,
    }
}

/// What an overloaded (or not) cross-process load run did.
#[derive(Debug)]
pub struct WireLoadReport {
    /// Arrivals offered by the load generator.
    pub offered: u64,
    /// Arrivals rejected by admission control.
    pub rejected: u64,
    /// Arrivals shed because the in-flight bound was hit.
    pub shed: u64,
    /// Data sets actually fed (offered − rejected − shed).
    pub generated: u64,
    /// Data sets that reached the sink.
    pub completed: u64,
    /// Wall seconds of the run.
    pub elapsed: f64,
    /// Sink throughput (completed / elapsed).
    pub throughput: f64,
    /// Offered rate implied by `offered / elapsed`.
    pub offered_rate: f64,
    /// End-to-end latency of completed data sets.
    pub latency: LatencySummary,
    /// The underlying engine measurements.
    pub run: WireRun,
}

/// [`run_load`] over worker processes: the same arrival loop feeds
/// `mk_payload(seq, buf)`'s encoded data sets into a wire plan, and the
/// sink tracks end-to-end latency.
///
/// Two things differ from the in-process driver: the clock starts before
/// the workers spawn, and the source flushes every partial frame (not
/// only aged ones) before a pacing sleep.
pub fn run_wire_load(
    plan: &WirePlan,
    mut mk_payload: impl FnMut(u64, &mut Vec<u8>) + Send,
    opts: WireLoadOptions,
) -> Result<WireLoadReport, String> {
    let born: Mutex<HashMap<u64, Instant>> = Mutex::new(HashMap::new());
    let done = AtomicU64::new(0);
    let mut samples: Vec<f64> = Vec::new();
    let mut tally = Arrivals::default();
    let start = Instant::now();

    let run = {
        let (born, done, tally, samples) = (&born, &done, &mut tally, &mut samples);
        run_wire(
            plan,
            move |f, pool| {
                arrive(f, &opts, start, done, true, tally, |f| {
                    let seq = f.pushed() as u64;
                    let now = Instant::now();
                    born.lock()
                        .expect("a load thread panicked holding the born map")
                        .insert(seq, now);
                    let mut payload = pool.take(Vec::new);
                    payload.clear();
                    mk_payload(seq, &mut payload);
                    f.push(WireItem { seq, payload }, now)
                })
                .map_err(|e| format!("feed: {e}"))
            },
            |seq, _bytes| {
                done.fetch_add(1, Ordering::Relaxed);
                if let Some(t0) = born
                    .lock()
                    .expect("a load thread panicked holding the born map")
                    .remove(&seq)
                {
                    samples.push(t0.elapsed().as_secs_f64());
                }
            },
        )?
    };

    let elapsed = run.elapsed;
    Ok(WireLoadReport {
        offered: tally.offered,
        rejected: tally.rejected,
        shed: tally.shed,
        generated: run.generated,
        completed: run.completed,
        elapsed,
        throughput: run.throughput,
        offered_rate: if elapsed > 0.0 {
            tally.offered as f64 / elapsed
        } else {
            0.0
        },
        latency: LatencySummary::from_samples(&mut samples),
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::StagePlan;
    use crate::stage::Stage;

    fn light_plan() -> PipelinePlan {
        PipelinePlan::new(vec![
            StagePlan::serial(Stage::new("x3", |x: u64, _| x.wrapping_mul(3))),
            StagePlan::serial(Stage::new("p1", |x: u64, _| x.wrapping_add(1))),
        ])
    }

    #[test]
    fn open_loop_count_limited_run_completes_everything() {
        let report = run_load(
            &light_plan().with_batch(8).with_queue_depth(4),
            |seq| Box::new(seq as u64),
            &LoadOptions {
                rate: None,
                duration: None,
                max_datasets: Some(500),
                ..LoadOptions::default()
            },
        );
        assert_eq!(report.generated, 500);
        assert_eq!(report.completed, 500);
        assert!(report.throughput > 0.0);
        assert!(report.latency.p50 <= report.latency.p99);
        assert!(report.latency.p99 <= report.latency.max);
        assert!(report.latency.max > 0.0);
    }

    #[test]
    fn rate_limited_run_paces_the_source() {
        // 200/s for ~0.25 s ≈ 50 data sets; the stages are near-free so
        // the achieved rate tracks the offered rate, not the open-loop
        // maximum (which is orders of magnitude higher).
        let report = run_load(
            &light_plan(),
            |seq| Box::new(seq as u64),
            &LoadOptions {
                rate: Some(200.0),
                duration: Some(Duration::from_millis(250)),
                max_datasets: None,
                ..LoadOptions::default()
            },
        );
        assert!(report.completed > 10, "completed {}", report.completed);
        assert!(
            report.throughput < 400.0,
            "rate limit not applied: {} ds/s",
            report.throughput
        );
    }

    #[test]
    fn duration_limited_run_stops() {
        let t0 = Instant::now();
        let report = run_load(
            &light_plan().with_batch(16).with_queue_depth(4),
            |seq| Box::new(seq as u64),
            &LoadOptions {
                rate: None,
                duration: Some(Duration::from_millis(120)),
                max_datasets: None,
                ..LoadOptions::default()
            },
        );
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert_eq!(report.generated, report.completed);
        assert!(report.completed > 0);
    }

    #[test]
    fn slo_burn_and_backpressure_events_fire_under_overload() {
        use pipemap_obs::{EventKind, EventLog, EventLogConfig, SloConfig};
        // A 2 ms stage behind a depth-1 queue, driven open loop: every
        // latency blows the 1 µs objective (fast burn fires) and the
        // source blocks on stage-0 admission (backpressure onset).
        let log = EventLog::new(EventLogConfig::default());
        let plan = PipelinePlan::new(vec![StagePlan::serial(Stage::new("slow", |x: u64, _| {
            std::thread::sleep(Duration::from_millis(2));
            x
        }))])
        .with_events(log.clone())
        .with_slo(SloConfig::default().with_objective(1e-6, 0.99));
        let report = run_load(
            &plan,
            |seq| Box::new(seq as u64),
            &LoadOptions {
                rate: None,
                duration: None,
                max_datasets: Some(60),
                ..LoadOptions::default()
            },
        );
        assert_eq!(report.completed, 60);
        let events = log.snapshot();
        assert!(
            events.iter().any(|e| e.kind == EventKind::SloFastBurn),
            "no fast-burn event in {events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::BackpressureOnset),
            "no backpressure onset in {events:?}"
        );
        // Timestamps ride the log's shared epoch, so they are ordered.
        for w in events.windows(2) {
            assert!(w[0].t_us <= w[1].t_us);
        }
    }

    #[test]
    fn shedding_bounds_in_flight_work_and_counts_drops() {
        // A slow serial stage driven open loop with a tight in-flight
        // bound: most arrivals must be shed, everything admitted must
        // complete, and the books must balance.
        let plan = PipelinePlan::new(vec![StagePlan::serial(Stage::new("slow", |x: u64, _| {
            std::thread::sleep(Duration::from_micros(500));
            x
        }))])
        .with_batch(1)
        // Queue deep enough that the shed bound, not channel
        // backpressure, is what limits in-flight work.
        .with_queue_depth(16);
        let report = run_load(
            &plan,
            |seq| Box::new(seq as u64),
            &LoadOptions {
                rate: None,
                duration: None,
                max_datasets: Some(2_000),
                shed_queue: Some(4),
                ..LoadOptions::default()
            },
        );
        assert_eq!(report.offered, 2_000);
        assert_eq!(report.generated + report.shed + report.rejected, 2_000);
        assert!(report.shed > 0, "tight bound must shed: {report:?}");
        assert_eq!(report.generated, report.completed);
    }

    #[test]
    fn admission_control_rejects_beyond_the_token_rate() {
        // Offer open-loop but admit at ~200/s for a short window: the
        // accepted count must be far below the offered count.
        let report = run_load(
            &light_plan(),
            |seq| Box::new(seq as u64),
            &LoadOptions {
                rate: None,
                duration: Some(Duration::from_millis(150)),
                admit_rate: Some(200.0),
                ..LoadOptions::default()
            },
        );
        assert!(report.rejected > 0, "open loop must outrun 200/s");
        assert!(
            report.generated < report.offered / 2,
            "admission not binding: {report:?}"
        );
        assert_eq!(report.generated, report.completed);
    }

    #[test]
    fn a_run_with_neither_limit_stops_after_two_seconds() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let opts = LoadOptions {
                duration: None,
                max_datasets: None,
                ..LoadOptions::default()
            };
            let _ = tx.send(run_load(&light_plan(), |seq| Box::new(seq as u64), &opts));
        });
        let report = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a run with neither limit must stop");
        assert!(report.generated > 0);
        assert_eq!(report.completed, report.generated);
    }

    #[test]
    fn empty_run_reports_zeros() {
        let report = run_load(
            &light_plan(),
            |seq| Box::new(seq as u64),
            &LoadOptions {
                rate: None,
                duration: None,
                max_datasets: Some(0),
                ..LoadOptions::default()
            },
        );
        assert_eq!(report.completed, 0);
        assert_eq!(report.latency.p99, 0.0);
    }
}
