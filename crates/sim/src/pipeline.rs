//! The pipeline simulator.
//!
//! Every module instance runs a serial schedule over the data sets it is
//! responsible for (`n ≡ instance (mod r)`): *receive* the data set from
//! the upstream instance (a rendezvous that occupies both sides, §2.1),
//! *execute* the module's tasks, *send* downstream (another rendezvous).
//! The first module's external input is always available; the last
//! module's output leaves for free.
//!
//! The schedule is computed by a forward sweep over data sets: because the
//! chain is linear and each instance is serial, the start of every
//! activity is the max of (a) when its inputs are ready and (b) when the
//! instances involved become free — no event queue is needed, yet the
//! result is exactly the event-driven schedule.

use pipemap_chain::{module_response, Mapping, TaskChain};
use pipemap_obs::{BottleneckTracker, EventLog, JourneyCollector, JourneyKind};

use crate::noise::NoiseModel;
use crate::stats::Summary;
use crate::trace::{Activity, ActivityKind, Trace};

/// Data sets per bottleneck re-evaluation window when an event log is
/// attached (shared by the sweep and DES simulators so their event
/// streams match).
pub(crate) const EVENT_WINDOW: usize = 16;

/// A mid-stream multiplicative change to one stage's execution cost:
/// data sets with index `>= after` see stage `stage`'s exec time
/// multiplied by `factor`. Both simulators apply it identically (so
/// their 1e-9 equivalence holds under drift); it provides a known
/// ground truth for the drift doctor and its online verdict.
#[derive(Clone, Copy, Debug)]
pub struct CostPerturbation {
    /// First data-set index affected.
    pub after: usize,
    /// Module (stage) index whose exec cost changes.
    pub stage: usize,
    /// Multiplier applied to the stage's exec duration.
    pub factor: f64,
}

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Data sets to push through the pipeline.
    pub num_datasets: usize,
    /// Data sets discarded from the front before measuring throughput
    /// (pipeline fill).
    pub warmup: usize,
    /// Optional per-activity multiplicative noise.
    pub noise: Option<NoiseModel>,
    /// Seconds between successive data-set arrivals at the first module.
    /// `None` models a saturated source (the paper's regime: data sets
    /// are always available); `Some(period)` models an open-loop source
    /// such as a camera, letting latency be measured below saturation.
    pub arrival_period: Option<f64>,
    /// Collect a full activity trace (costs memory proportional to
    /// `num_datasets × modules`).
    pub collect_trace: bool,
    /// Per-dataset journey tracing: when set, the simulators record the
    /// same enqueue/dequeue/service/send events as the real executor
    /// (virtual timestamps, simulated-seconds × 1e6), so the doctor's
    /// analysis runs identically on simulated and real executions.
    pub journeys: Option<JourneyCollector>,
    /// Optional mid-stream cost drift (see [`CostPerturbation`]).
    pub perturb: Option<CostPerturbation>,
    /// Structured-event emission: when set, a [`BottleneckTracker`]
    /// watches the per-data-set exec services and emits
    /// `bottleneck_change` events into the log as the perturbation (or
    /// noise) moves the governing stage. Emission never alters the
    /// simulated schedule, so sweep/DES equivalence is unaffected.
    pub events: Option<EventLog>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            num_datasets: 200,
            warmup: 40,
            noise: None,
            arrival_period: None,
            collect_trace: false,
            journeys: None,
            perturb: None,
            events: None,
        }
    }
}

impl SimConfig {
    /// A config processing `n` data sets with a 20% warmup.
    pub fn with_datasets(n: usize) -> Self {
        Self {
            num_datasets: n,
            warmup: n / 5,
            ..Self::default()
        }
    }

    /// Enable noise.
    pub fn with_noise(mut self, spread: f64, seed: u64) -> Self {
        self.noise = Some(NoiseModel::new(spread, seed));
        self
    }

    /// Enable trace collection.
    pub fn with_trace(mut self) -> Self {
        self.collect_trace = true;
        self
    }

    /// Model an open-loop source delivering one data set every `period`
    /// seconds.
    pub fn with_arrival_period(mut self, period: f64) -> Self {
        assert!(period > 0.0 && period.is_finite());
        self.arrival_period = Some(period);
        self
    }

    /// Attach a journey collector (see [`SimConfig::journeys`]).
    pub fn with_journeys(mut self, journeys: JourneyCollector) -> Self {
        self.journeys = Some(journeys);
        self
    }

    /// Multiply stage `stage`'s exec cost by `factor` from data set
    /// `after` onward (see [`CostPerturbation`]).
    pub fn with_perturbation(mut self, after: usize, stage: usize, factor: f64) -> Self {
        assert!(factor > 0.0 && factor.is_finite(), "factor must be > 0");
        self.perturb = Some(CostPerturbation {
            after,
            stage,
            factor,
        });
        self
    }

    /// Attach an event log (see [`SimConfig::events`]).
    pub fn with_events(mut self, events: EventLog) -> Self {
        self.events = Some(events);
        self
    }
}

/// Results of one simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Measured steady-state throughput, data sets per second, over the
    /// post-warmup window.
    pub throughput: f64,
    /// Completion time of the final data set (makespan).
    pub makespan: f64,
    /// Per-data-set latency summary (first-module start → last-module
    /// output), post-warmup.
    pub latency: Summary,
    /// Busy fraction per module (averaged over instances), post-warmup
    /// window approximated over the whole run.
    pub utilization: Vec<f64>,
    /// Activity trace, if requested.
    pub trace: Option<Trace>,
}

/// Simulate `mapping` of `chain` over a stream of data sets.
///
/// # Panics
///
/// Panics if the mapping is structurally invalid for the chain (validate
/// first) or `num_datasets <= warmup`.
pub fn simulate(chain: &TaskChain, mapping: &Mapping, config: &SimConfig) -> SimResult {
    let l = mapping.num_modules();
    assert!(l >= 1, "mapping has no modules");
    assert!(
        config.num_datasets > config.warmup,
        "need more data sets than warmup"
    );
    let n_data = config.num_datasets;
    let mut noise = config.noise.clone();

    // Live metrics (no-op when no registry is installed): monotonic
    // counters the flight recorder turns into data-sets/sec and
    // activities/sec rates while a long simulation runs.
    let rec = pipemap_obs::global();
    let datasets_ctr = rec.counter("sim.datasets.completed");
    let activities_ctr = rec.counter("sim.activities");

    // Noise-free durations per module: (incoming, exec) — outgoing of
    // module i equals incoming of module i+1 and is sampled once per
    // transfer below.
    let durations: Vec<(f64, f64)> = (0..l)
        .map(|i| {
            let r = module_response(chain, mapping, i);
            (r.incoming, r.exec)
        })
        .collect();
    let replicas: Vec<usize> = mapping.modules.iter().map(|m| m.replicas).collect();

    // free[i][c] = time instance c of module i becomes free.
    let mut free: Vec<Vec<f64>> = replicas.iter().map(|&r| vec![0.0; r]).collect();
    let mut busy: Vec<Vec<f64>> = replicas.iter().map(|&r| vec![0.0; r]).collect();
    // output_ready[i] = for the current data set, when module i's exec
    // finished (computed in the forward sweep).
    let mut start_times = vec![0.0f64; n_data];
    let mut finish_times = vec![0.0f64; n_data];
    let mut trace = config.collect_trace.then(Trace::default);
    let mut jsink = config.journeys.as_ref().map(JourneyCollector::sink);
    let mut tracker = config
        .events
        .as_ref()
        .map(|log| BottleneckTracker::new(&replicas, EVENT_WINDOW, log.clone()));
    let mut services = vec![0.0f64; l];

    let sample = |d: f64, noise: &mut Option<NoiseModel>| -> f64 {
        match noise {
            Some(n) => n.perturb(d),
            None => d,
        }
    };

    for n in 0..n_data {
        let mut activities = 0u64;
        // An open-loop source gates the first module on the data set's
        // arrival time; a saturated source has everything ready at t=0.
        let mut upstream_done = match config.arrival_period {
            Some(period) => n as f64 * period,
            None => 0.0,
        };
        let arrival = upstream_done;
        for i in 0..l {
            let c = n % replicas[i];
            let (incoming, exec) = durations[i];
            // Receive rendezvous: needs upstream output and both
            // instances free. The upstream instance is free at
            // `upstream_done` by construction of its serial schedule
            // (its send immediately follows its exec).
            let mut t = free[i][c].max(upstream_done);
            if let Some(j) = jsink.as_mut() {
                if i == 0 {
                    j.record_at(arrival * 1e6, JourneyKind::Source, n, 0, 0, 0);
                }
                // The data set is available for module i the moment the
                // upstream exec finished (arrival for module 0); the
                // receive rendezvous begins at t.
                j.record_at(
                    upstream_done * 1e6,
                    JourneyKind::Enqueue,
                    n,
                    i as u32,
                    c as u32,
                    0,
                );
                j.record_at(t * 1e6, JourneyKind::Dequeue, n, i as u32, c as u32, 0);
            }
            if i > 0 && incoming > 0.0 {
                let dur = sample(incoming, &mut noise);
                let cu = n % replicas[i - 1];
                if let Some(tr) = trace.as_mut() {
                    tr.push(Activity {
                        module: i - 1,
                        instance: cu,
                        dataset: n,
                        kind: ActivityKind::Send,
                        start: t,
                        end: t + dur,
                    });
                    tr.push(Activity {
                        module: i,
                        instance: c,
                        dataset: n,
                        kind: ActivityKind::Recv,
                        start: t,
                        end: t + dur,
                    });
                }
                busy[i - 1][cu] += dur;
                busy[i][c] += dur;
                // The sender is occupied until the transfer completes.
                free[i - 1][cu] = t + dur;
                t += dur;
                activities += 2;
            }
            if i == 0 {
                // Latency is measured from arrival (sojourn time): under
                // a saturated source arrival is t = 0 for everyone, so
                // the pre-existing semantics — latency from the moment
                // the instance picks the data set up — are preserved by
                // clamping to the actual start.
                start_times[n] = if config.arrival_period.is_some() {
                    arrival
                } else {
                    t
                };
            }
            let exec = match config.perturb {
                Some(p) if p.stage == i && n >= p.after => exec * p.factor,
                _ => exec,
            };
            let dur = sample(exec, &mut noise);
            services[i] = dur;
            if let Some(tr) = trace.as_mut() {
                tr.push(Activity {
                    module: i,
                    instance: c,
                    dataset: n,
                    kind: ActivityKind::Exec,
                    start: t,
                    end: t + dur,
                });
            }
            if let Some(j) = jsink.as_mut() {
                j.record_at(t * 1e6, JourneyKind::ServiceStart, n, i as u32, c as u32, 0);
                let end = (t + dur) * 1e6;
                j.record_at(end, JourneyKind::ServiceEnd, n, i as u32, c as u32, 0);
                j.record_at(end, JourneyKind::Send, n, i as u32, c as u32, 0);
            }
            busy[i][c] += dur;
            t += dur;
            free[i][c] = t;
            upstream_done = t;
            activities += 1;
        }
        finish_times[n] = upstream_done;
        if let Some(j) = jsink.as_mut() {
            j.record_at(upstream_done * 1e6, JourneyKind::Sink, n, l as u32, 0, 0);
        }
        if let Some(tr) = tracker.as_mut() {
            tr.observe(upstream_done * 1e6, &services);
        }
        datasets_ctr.add(1);
        activities_ctr.add(activities);
    }

    let makespan = finish_times[n_data - 1];
    let w = config.warmup;
    let window = finish_times[n_data - 1] - finish_times[w];
    let throughput = if window > 0.0 {
        (n_data - 1 - w) as f64 / window
    } else {
        f64::INFINITY
    };
    let latencies: Vec<f64> = (w..n_data)
        .map(|n| finish_times[n] - start_times[n])
        .collect();
    let latency = Summary::of(&latencies).expect("post-warmup window non-empty");
    if rec.enabled() {
        let lat_hist = rec.histogram("sim.latency_s");
        for &lat in &latencies {
            lat_hist.record(lat);
        }
        rec.gauge_set("sim.throughput", throughput);
    }
    let utilization = (0..l)
        .map(|i| {
            if makespan <= 0.0 {
                return 0.0;
            }
            let total: f64 = busy[i].iter().sum();
            total / (replicas[i] as f64 * makespan)
        })
        .collect();

    SimResult {
        throughput,
        makespan,
        latency,
        utilization,
        trace,
    }
}

/// The paper's closed-form steady-state throughput,
/// `1 / max_i (s_i / r_i)`, from *measured* per-stage service times
/// rather than model costs: `service_s[i]` is stage `i`'s mean seconds
/// per data set on one instance, `replicas[i]` its replication degree.
///
/// This is how a [`run_load`](../pipemap_exec/driver/fn.run_load.html)
/// measurement is validated: feed the per-stage busy means observed by
/// the executor back through the analytic form and compare predicted
/// against achieved datasets/sec. A stage's measured transport time, when
/// priced, is part of its service time: replication divides it exactly
/// like the compute work.
///
/// # Panics
///
/// Panics if the slices differ in length or a replica count is zero.
pub fn steady_state_throughput(service_s: &[f64], replicas: &[usize]) -> f64 {
    assert_eq!(
        service_s.len(),
        replicas.len(),
        "one replica count per stage"
    );
    let effective = service_s.iter().zip(replicas).map(|(&s, &r)| {
        assert!(r >= 1, "replica counts must be >= 1");
        s / r as f64
    });
    pipemap_chain::bottleneck(effective).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemap_chain::{throughput, ChainBuilder, Edge, Mapping, ModuleAssignment, Task};
    use pipemap_model::{PolyEcom, PolyUnary};

    fn chain2(w1: f64, w2: f64, ecom_fixed: f64) -> pipemap_chain::TaskChain {
        ChainBuilder::new()
            .task(Task::new("a", PolyUnary::perfectly_parallel(w1)))
            .edge(Edge::new(
                PolyUnary::zero(),
                PolyEcom::new(ecom_fixed, 0.0, 0.0, 0.0, 0.0),
            ))
            .task(Task::new("b", PolyUnary::perfectly_parallel(w2)))
            .build()
    }

    #[test]
    fn noise_free_matches_analytic_two_modules() {
        let c = chain2(8.0, 6.0, 0.5);
        let m = Mapping::new(vec![
            ModuleAssignment::new(0, 0, 1, 4),
            ModuleAssignment::new(1, 1, 1, 3),
        ]);
        let analytic = throughput(&c, &m);
        let r = simulate(&c, &m, &SimConfig::with_datasets(400));
        assert!(
            (r.throughput - analytic).abs() < 1e-6 * analytic,
            "sim {} vs analytic {}",
            r.throughput,
            analytic
        );
    }

    #[test]
    fn noise_free_matches_analytic_with_replication() {
        let c = chain2(4.0, 4.0, 0.25);
        let m = Mapping::new(vec![
            ModuleAssignment::new(0, 0, 3, 2),
            ModuleAssignment::new(1, 1, 2, 3),
        ]);
        let analytic = throughput(&c, &m);
        let r = simulate(&c, &m, &SimConfig::with_datasets(600));
        assert!(
            (r.throughput - analytic).abs() < 1e-3 * analytic,
            "sim {} vs analytic {}",
            r.throughput,
            analytic
        );
    }

    #[test]
    fn single_module_throughput() {
        let c = ChainBuilder::new()
            .task(Task::new("t", PolyUnary::new(2.0, 0.0, 0.0)))
            .build();
        let m = Mapping::new(vec![ModuleAssignment::new(0, 0, 1, 1)]);
        let r = simulate(&c, &m, &SimConfig::with_datasets(100));
        assert!((r.throughput - 0.5).abs() < 1e-9);
        assert!((r.latency.mean - 2.0).abs() < 1e-9);
        assert!((r.utilization[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn replicated_module_multiplies_throughput() {
        let c = ChainBuilder::new()
            .task(Task::new("t", PolyUnary::new(2.0, 0.0, 0.0)))
            .build();
        let m4 = Mapping::new(vec![ModuleAssignment::new(0, 0, 4, 1)]);
        // Replicas finish in batches of 4, so the measurement window can
        // be misaligned by up to r data sets — an O(r/N) artifact, hence
        // the long run and the 0.5% tolerance.
        let r = simulate(&c, &m4, &SimConfig::with_datasets(4000));
        assert!(
            (r.throughput - 2.0).abs() / 2.0 < 5e-3,
            "got {}",
            r.throughput
        );
        // Latency per data set unchanged.
        assert!((r.latency.mean - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_module_is_fully_utilized() {
        let c = chain2(8.0, 2.0, 0.0);
        let m = Mapping::new(vec![
            ModuleAssignment::new(0, 0, 1, 2), // response 4.0 — bottleneck
            ModuleAssignment::new(1, 1, 1, 2), // response 1.0
        ]);
        let r = simulate(&c, &m, &SimConfig::with_datasets(300));
        assert!(
            r.utilization[0] > 0.95,
            "bottleneck util {}",
            r.utilization[0]
        );
        assert!(
            r.utilization[1] < 0.5,
            "idle module util {}",
            r.utilization[1]
        );
    }

    #[test]
    fn noise_perturbs_but_tracks_analytic() {
        let c = chain2(8.0, 6.0, 0.5);
        let m = Mapping::new(vec![
            ModuleAssignment::new(0, 0, 1, 4),
            ModuleAssignment::new(1, 1, 1, 3),
        ]);
        let analytic = throughput(&c, &m);
        let r = simulate(&c, &m, &SimConfig::with_datasets(500).with_noise(0.08, 13));
        let rel = (r.throughput - analytic).abs() / analytic;
        assert!(rel < 0.15, "noisy sim off by {:.1}%", rel * 100.0);
        assert!(r.throughput != analytic);
    }

    #[test]
    fn trace_is_collected_when_requested() {
        let c = chain2(2.0, 2.0, 0.5);
        let m = Mapping::new(vec![
            ModuleAssignment::new(0, 0, 1, 1),
            ModuleAssignment::new(1, 1, 1, 1),
        ]);
        let r = simulate(&c, &m, &SimConfig::with_datasets(10).with_trace());
        let t = r.trace.expect("trace requested");
        // Sends, recvs and execs all present.
        assert!(t.activities.iter().any(|a| a.kind == ActivityKind::Send));
        assert!(t.activities.iter().any(|a| a.kind == ActivityKind::Recv));
        assert!(t.activities.iter().any(|a| a.kind == ActivityKind::Exec));
        // Busy time consistency: module 0 = exec + send per data set.
        let per_ds = 2.0 + 0.5;
        assert!((t.busy_time(0, 0) - 10.0 * per_ds).abs() < 1e-9);
    }

    #[test]
    fn latency_exceeds_sum_when_queueing() {
        // Downstream slower than upstream: data sets queue, per-data-set
        // latency grows beyond the raw response sum.
        let c = chain2(1.0, 8.0, 0.0);
        let m = Mapping::new(vec![
            ModuleAssignment::new(0, 0, 1, 1),
            ModuleAssignment::new(1, 1, 1, 1),
        ]);
        let r = simulate(&c, &m, &SimConfig::with_datasets(100));
        // Throughput capped by the slow module.
        assert!((r.throughput - 1.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn open_loop_below_saturation_gives_unloaded_latency() {
        // Saturation throughput of this mapping is 1/8 per second; feed
        // one data set every 20 s and the pipeline is always empty when
        // the next arrives, so every latency equals the unloaded
        // traversal time (exec a + transfer + exec b).
        let c = chain2(4.0, 8.0, 0.5);
        let m = Mapping::new(vec![
            ModuleAssignment::new(0, 0, 1, 2),
            ModuleAssignment::new(1, 1, 1, 2),
        ]);
        let cfg = SimConfig::with_datasets(50).with_arrival_period(20.0);
        let r = simulate(&c, &m, &cfg);
        let unloaded = 2.0 + 0.5 + 4.0;
        assert!(
            (r.latency.mean - unloaded).abs() < 1e-9,
            "latency {} vs unloaded {}",
            r.latency.mean,
            unloaded
        );
        assert!((r.latency.max - r.latency.min).abs() < 1e-9);
        // Throughput equals the arrival rate, not the capacity.
        assert!((r.throughput - 0.05).abs() < 1e-6, "thr {}", r.throughput);
    }

    #[test]
    fn open_loop_above_saturation_queues() {
        // Arrivals faster than capacity: throughput caps at capacity and
        // latency grows far beyond the unloaded time.
        let c = chain2(4.0, 8.0, 0.0);
        let m = Mapping::new(vec![
            ModuleAssignment::new(0, 0, 1, 2),
            ModuleAssignment::new(1, 1, 1, 2),
        ]);
        let cfg = SimConfig::with_datasets(200).with_arrival_period(1.0);
        let r = simulate(&c, &m, &cfg);
        assert!((r.throughput - 0.25).abs() < 1e-3, "thr {}", r.throughput);
        assert!(r.latency.max > 100.0, "queueing should blow up latency");
    }

    #[test]
    #[should_panic(expected = "more data sets than warmup")]
    fn warmup_validation() {
        let c = chain2(1.0, 1.0, 0.0);
        let m = Mapping::new(vec![
            ModuleAssignment::new(0, 0, 1, 1),
            ModuleAssignment::new(1, 1, 1, 1),
        ]);
        let cfg = SimConfig {
            num_datasets: 5,
            warmup: 5,
            ..SimConfig::default()
        };
        let _ = simulate(&c, &m, &cfg);
    }

    #[test]
    fn steady_state_throughput_is_bottleneck_governed() {
        // Stage 1 at 4 s/dataset over 2 replicas is the 2 s bottleneck.
        let thr = steady_state_throughput(&[1.0, 4.0, 0.5], &[1, 2, 1]);
        assert!((thr - 0.5).abs() < 1e-12, "thr {thr}");
        // Replicating the bottleneck shifts it to the next stage.
        let thr = steady_state_throughput(&[1.0, 4.0, 0.5], &[1, 4, 1]);
        assert!((thr - 1.0).abs() < 1e-12, "thr {thr}");
        // Zero service times: infinite predicted throughput.
        assert!(steady_state_throughput(&[0.0, 0.0], &[1, 1]).is_infinite());
    }

    #[test]
    fn steady_state_throughput_matches_simulation() {
        // A noise-free simulation of a compute-only chain should land on
        // the closed form from the same service times.
        let c = chain2(3.0, 1.0, 0.0);
        let m = Mapping::new(vec![
            ModuleAssignment::new(0, 0, 3, 1),
            ModuleAssignment::new(1, 1, 1, 1),
        ]);
        let r = simulate(&c, &m, &SimConfig::with_datasets(300));
        let predicted = steady_state_throughput(&[3.0, 1.0], &[3, 1]);
        assert!(
            (r.throughput - predicted).abs() / predicted < 0.02,
            "sim {} vs closed form {}",
            r.throughput,
            predicted
        );
    }

    #[test]
    #[should_panic(expected = "one replica count per stage")]
    fn steady_state_throughput_length_checked() {
        let _ = steady_state_throughput(&[1.0], &[1, 2]);
    }

    #[test]
    fn ecom_shifts_the_bottleneck() {
        // Compute alone says stage 0 (1 s) bounds; a 2 s transport cost
        // on stage 1 makes (0.5 + 2) / 1 the real bottleneck.
        let compute_only = steady_state_throughput(&[1.0, 0.5], &[1, 1]);
        assert!((compute_only - 1.0).abs() < 1e-12);
        let with_ecom = steady_state_throughput(&[1.0, 0.5 + 2.0], &[1, 1]);
        assert!((with_ecom - 0.4).abs() < 1e-12, "thr {with_ecom}");
        // Replication amortises communication like compute.
        let replicated = steady_state_throughput(&[1.0, 0.5 + 2.0], &[1, 5]);
        assert!((replicated - 1.0).abs() < 1e-12, "thr {replicated}");
    }
}
