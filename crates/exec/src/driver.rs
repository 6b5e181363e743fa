//! Sustained-load driving: generate data sets at a target rate (or
//! open-loop, as fast as backpressure admits) and measure what the
//! pipeline actually serves — achieved datasets/sec and end-to-end
//! latency percentiles. This is the measurement-side counterpart of the
//! paper's objective: the solver predicts stream throughput
//! `1 / max_i (f_i / r_i)`; [`run_load`] observes it on a running
//! pipeline.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::executor::{execute, PipelinePlan, PipelineStats};
use crate::pool;
use crate::stage::Data;

/// Sink channel capacity (in messages) used for load runs.
const LOAD_SINK_CAP: usize = 1024;

/// How to drive the pipeline.
#[derive(Clone, Copy, Debug)]
pub struct LoadOptions {
    /// Target offered rate in data sets per second; `None` is open loop
    /// (push as fast as stage-0 backpressure admits).
    pub rate: Option<f64>,
    /// Stop feeding after this long.
    pub duration: Option<Duration>,
    /// Stop feeding after this many data sets (offered arrivals, when
    /// admission control or shedding is active).
    pub max_datasets: Option<usize>,
    /// Admission control: a token bucket capping the *accepted* rate;
    /// arrivals beyond it are rejected at the door instead of queueing.
    pub admit_rate: Option<f64>,
    /// Bounded-queue shedding: drop arrivals while more than this many
    /// admitted data sets are still in flight, instead of letting the
    /// source block on backpressure.
    pub shed_queue: Option<usize>,
}

impl Default for LoadOptions {
    fn default() -> Self {
        Self {
            rate: None,
            duration: Some(Duration::from_secs(2)),
            max_datasets: None,
            admit_rate: None,
            shed_queue: None,
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
    let LoadOptions {
        rate,
        duration,
        max_datasets,
        admit_rate,
        shed_queue,
    } = *opts;
    // Overload-discipline counters, shared between the source thread
    // (which decides) and the sink (which retires in-flight datasets).
    let done_ctr = AtomicUsize::new(0);
    let offered_ctr = AtomicUsize::new(0);
    let rejected_ctr = AtomicUsize::new(0);
    let shed_ctr = AtomicUsize::new(0);
    let (done_ref, offered_ref, rejected_ref, shed_ref) =
        (&done_ctr, &offered_ctr, &rejected_ctr, &shed_ctr);
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
    let mut jsink = plan
        .journeys
        .as_ref()
        .map(pipemap_obs::JourneyCollector::sink);
    let sink_stage = plan.stages.len() as u32;
    let batch = plan.batch.max(1);
    let stats = execute(
        plan,
        LOAD_SINK_CAP,
        move |feeder| {
            // `make`'s takes read ahead from the pool's shelf; cycling every
            // batch hands back what a batch left unused.
            let takes = pool::Scope::open();
            let start = Instant::now();
            let mut offered = 0usize;
            let mut tokens: f64 = 1.0;
            let mut last_refill = Instant::now();
            loop {
                if let Some(limit) = duration {
                    if start.elapsed() >= limit {
                        break;
                    }
                }
                if let Some(limit) = max_datasets {
                    if offered >= limit {
                        break;
                    }
                }
                // Pacing is keyed off *offered* arrivals: sheds and
                // rejections consume an arrival slot without feeding.
                if let Some(rate) = rate {
                    let due = start + Duration::from_secs_f64(offered as f64 / rate);
                    let now = Instant::now();
                    if due > now {
                        feeder.flush();
                        std::thread::sleep(due - now);
                    }
                }
                offered += 1;
                offered_ref.store(offered, Ordering::Relaxed);
                if let Some(admit) = admit_rate {
                    let now = Instant::now();
                    tokens = (tokens + now.duration_since(last_refill).as_secs_f64() * admit)
                        .min((admit * 0.1).max(1.0));
                    last_refill = now;
                    if tokens < 1.0 {
                        rejected_ref.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    tokens -= 1.0;
                }
                if let Some(bound) = shed_queue {
                    let in_flight = feeder
                        .pushed()
                        .saturating_sub(done_ref.load(Ordering::Relaxed));
                    if in_flight >= bound {
                        shed_ref.fetch_add(1, Ordering::Relaxed);
                        if rate.is_none() {
                            // Closed loop with a full queue: back off
                            // briefly instead of spinning.
                            feeder.flush();
                            std::thread::sleep(Duration::from_micros(50));
                        }
                        continue;
                    }
                }
                feeder.push(make(feeder.pushed()));
                if feeder.pushed().is_multiple_of(batch) {
                    takes.cycle();
                }
            }
        },
        |item| {
            done_ref.fetch_add(1, Ordering::Relaxed);
            if let Some(j) = jsink.as_mut() {
                j.record(pipemap_obs::JourneyKind::Sink, item.seq, sink_stage, 0, 0);
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
    );
    LoadReport {
        offered: offered_ctr.load(Ordering::Relaxed),
        rejected: rejected_ctr.load(Ordering::Relaxed),
        shed: shed_ctr.load(Ordering::Relaxed),
        generated: stats.generated,
        completed: stats.datasets,
        elapsed: stats.elapsed,
        throughput: stats.throughput,
        offered_rate: rate,
        latency: LatencySummary::from_samples(&mut samples),
        stats,
    }
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
