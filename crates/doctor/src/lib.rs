//! # pipemap-doctor
//!
//! The model-drift doctor: explain live throughput from per-dataset
//! journey traces, and say whether the mapping the DP solver chose is
//! still the right one.
//!
//! The paper's premise is that fitted cost models (`f_exec`, `f_icom`,
//! `f_ecom`) predict the bottleneck module, so the chosen mapping is
//! only as good as the model's fidelity at runtime. This crate closes
//! the loop: it consumes [`pipemap_obs::journey`] events from a real
//! ([`pipemap-exec`]) or simulated ([`pipemap-sim`]) execution and
//!
//! * decomposes per-stage latency into **queue wait** (`dequeue −
//!   enqueue`), **transport** (`service_start − dequeue`), **service**
//!   (`service_end − service_start`), and **batching delay**
//!   (`enqueue(s) − send(s−1)`);
//! * extracts the per-dataset **critical path** — which (stage,
//!   component) dominated each data set's journey;
//! * compares measured service/transport means against the model's
//!   predictions with 95% confidence intervals;
//! * computes the **measured bottleneck** — the stage with the largest
//!   effective response `(transport + service) / replicas`, folded by
//!   [`pipemap_chain::bottleneck`] — and **flags drift** when it
//!   differs from the DP-predicted bottleneck by more than a safety
//!   margin, recommending a re-solve wired to
//!   [`pipemap_core::SolveOptions`].
//!
//! [`JourneyLog`] is the on-disk interchange format (`pipemap load
//! --journey-out`, `pipemap simulate --journey-out`): a header line
//! carrying the model prediction snapshot, then one journey event per
//! line. [`publish`] exports the verdict as `doctor.drift.*` gauges for
//! the OpenMetrics endpoint.

use pipemap_chain::{bottleneck_module, module_response, throughput, Mapping, Problem, TaskChain};
use pipemap_core::{reprice_problem, CostDeltas, MarginReport, SolveOptions};
use pipemap_obs::{journey_jsonl, stitch, Journey, JourneyEvent, Recorder, Value, JOURNEY_SCHEMA};
use pipemap_profile::OnlineModel;

/// Schema tag of the JSON drift report.
pub const DOCTOR_SCHEMA: &str = pipemap_obs::schema::DOCTOR;

/// Exact per-stage stability margins for one mapping, as produced by
/// `pipemap explain --report json` (see [`pipemap_core::stability_margins`]).
///
/// With a spec loaded (`pipemap doctor --margins explain.json`) the
/// doctor stops using the fixed near-tie percentage and instead flags
/// drift exactly when a fitted cost has crossed the drift factor at
/// which a *different* mapping becomes optimal: a stage with a wide
/// margin can drift 3× without a flag, a knife-edge stage flags at 2%.
#[derive(Clone, Debug, PartialEq)]
pub struct MarginSpec {
    /// Per-stage margins; `stage` indexes the mapping's modules.
    pub stages: Vec<StageMarginSpec>,
}

/// One stage's exact drift tolerance, as multiplicative factors on the
/// fitted costs. `1.0` is "exactly as modelled"; the mapping stays
/// optimal while the observed factor lies inside `(down, up)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StageMarginSpec {
    /// Module index in the mapping.
    pub stage: usize,
    /// Largest tolerable growth factor of this stage's execution cost
    /// (`f64::INFINITY` when no growth ever flips the mapping).
    pub exec_up: f64,
    /// Smallest tolerable shrink factor (`0.0` when none flips it).
    pub exec_down: f64,
    /// Growth tolerance of the stage's incoming transfer cost.
    pub ecom_in_up: f64,
    /// Shrink tolerance of the incoming transfer cost.
    pub ecom_in_down: f64,
}

impl MarginSpec {
    /// Adopt the margins of a freshly-computed report.
    pub fn from_report(report: &MarginReport) -> Self {
        Self {
            stages: report
                .stages
                .iter()
                .map(|s| StageMarginSpec {
                    stage: s.index,
                    exec_up: s.exec_up,
                    exec_down: s.exec_down,
                    ecom_in_up: s.ecom_in_up,
                    ecom_in_down: s.ecom_in_down,
                })
                .collect(),
        }
    }

    /// Parse an explain document (or any JSON with a `stages` array
    /// whose entries carry a `margins` object or flat margin fields).
    /// Infinite margins arrive as JSON `null` and parse back to
    /// `INFINITY` (up) / `0.0` (down).
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Value::parse(text.trim()).map_err(|e| format!("invalid JSON: {e:?}"))?;
        let stages_v = doc
            .get("stages")
            .and_then(Value::as_array)
            .ok_or("margin spec: no 'stages' array")?;
        let mut stages = Vec::with_capacity(stages_v.len());
        for (i, s) in stages_v.iter().enumerate() {
            let m = s.get("margins").unwrap_or(s);
            let bound =
                |key: &str, absent: f64| m.get(key).and_then(Value::as_f64).unwrap_or(absent);
            stages.push(StageMarginSpec {
                stage: s
                    .get("index")
                    .or_else(|| s.get("stage"))
                    .and_then(Value::as_f64)
                    .map(|v| v as usize)
                    .unwrap_or(i),
                exec_up: bound("exec_up", f64::INFINITY),
                exec_down: bound("exec_down", 0.0),
                ecom_in_up: bound("ecom_in_up", f64::INFINITY),
                ecom_in_down: bound("ecom_in_down", 0.0),
            });
        }
        if stages.is_empty() {
            return Err("margin spec: 'stages' array is empty".into());
        }
        Ok(Self { stages })
    }
}

/// What the fitted model predicts for one stage of the pipeline.
#[derive(Clone, Debug, PartialEq)]
pub struct StagePrediction {
    /// Stage (module) name.
    pub name: String,
    /// Replication degree `r`.
    pub replicas: usize,
    /// Predicted service seconds per data set on one instance.
    pub service_s: f64,
    /// Predicted incoming-transfer seconds per data set.
    pub transport_s: f64,
}

/// The model's prediction for the whole pipeline — the baseline the
/// doctor compares measurements against.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelPrediction {
    /// Per-stage predictions in chain order.
    pub stages: Vec<StagePrediction>,
    /// The DP-predicted bottleneck stage (leftmost argmax of effective
    /// response).
    pub bottleneck: usize,
    /// Predicted steady-state throughput, data sets per second.
    pub throughput: f64,
}

impl ModelPrediction {
    /// Build from a fitted chain and its chosen mapping (the simulate /
    /// map path: predictions come straight from the cost models).
    pub fn from_chain(chain: &TaskChain, mapping: &Mapping) -> Self {
        let stages = mapping
            .modules
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let r = module_response(chain, mapping, i);
                let name = chain.tasks()[m.first..=m.last]
                    .iter()
                    .map(|t| t.name.as_str())
                    .collect::<Vec<_>>()
                    .join("+");
                StagePrediction {
                    name,
                    replicas: m.replicas,
                    service_s: r.exec,
                    transport_s: r.incoming,
                }
            })
            .collect();
        Self {
            stages,
            bottleneck: bottleneck_module(chain, mapping),
            throughput: throughput(chain, mapping),
        }
    }

    /// Build from measured per-stage service means (the load path:
    /// the executor has no communication model, so transport is 0 and
    /// the "prediction" is the closed form over observed service times).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, are empty, or a replica
    /// count is zero.
    pub fn from_measured(names: &[String], replicas: &[usize], service_s: &[f64]) -> Self {
        assert!(!names.is_empty());
        assert_eq!(names.len(), replicas.len());
        assert_eq!(names.len(), service_s.len());
        let (bottleneck, throughput) =
            pipemap_chain::bottleneck(service_s.iter().zip(replicas).map(|(&s, &r)| {
                assert!(r >= 1, "replica counts must be >= 1");
                s / r as f64
            }));
        Self {
            stages: names
                .iter()
                .zip(replicas)
                .zip(service_s)
                .map(|((n, &r), &s)| StagePrediction {
                    name: n.clone(),
                    replicas: r,
                    service_s: s,
                    transport_s: 0.0,
                })
                .collect(),
            bottleneck,
            throughput,
        }
    }

    /// Serialise for a [`JourneyLog`] header.
    pub fn to_value(&self) -> Value {
        let mut v = Value::object();
        v.set("predicted_bottleneck", self.bottleneck as u64);
        v.set("predicted_throughput", self.throughput);
        let stages: Vec<Value> = self
            .stages
            .iter()
            .map(|s| {
                let mut o = Value::object();
                o.set("name", s.name.as_str());
                o.set("replicas", s.replicas as u64);
                o.set("service_s", s.service_s);
                o.set("transport_s", s.transport_s);
                o
            })
            .collect();
        v.set("stages", Value::Array(stages));
        v
    }

    /// Parse a header produced by [`to_value`](Self::to_value).
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let stages_v = v
            .get("stages")
            .and_then(Value::as_array)
            .ok_or("model header missing 'stages' array")?;
        let mut stages = Vec::with_capacity(stages_v.len());
        for s in stages_v {
            let num = |key: &str| {
                s.get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("stage prediction missing numeric '{key}'"))
            };
            stages.push(StagePrediction {
                name: s
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string(),
                replicas: num("replicas")? as usize,
                service_s: num("service_s")?,
                transport_s: num("transport_s")?,
            });
        }
        if stages.is_empty() {
            return Err("model header has no stages".into());
        }
        Ok(Self {
            bottleneck: v
                .get("predicted_bottleneck")
                .and_then(Value::as_f64)
                .ok_or("model header missing 'predicted_bottleneck'")?
                as usize,
            throughput: v
                .get("predicted_throughput")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN),
            stages,
        })
    }
}

/// The journey interchange file: a header line (schema, provenance,
/// sampling stride, model prediction snapshot) followed by one journey
/// event per line.
#[derive(Clone, Debug)]
pub struct JourneyLog {
    /// Where the journeys came from (`"load"`, `"simulate"`, …).
    pub source: String,
    /// 1-in-N sampling stride the events were recorded with.
    pub sample: u64,
    /// Journey events lost to collector-ring overflow while recording:
    /// nonzero means the file under-represents the run beyond its
    /// declared sampling stride.
    pub dropped: u64,
    /// The model prediction snapshot, when the producer had one.
    pub model: Option<ModelPrediction>,
    /// The recorded events.
    pub events: Vec<JourneyEvent>,
}

impl JourneyLog {
    /// Serialise as JSONL: header first, then events.
    pub fn to_jsonl(&self) -> String {
        let mut header = Value::object();
        header.set("journey_schema", JOURNEY_SCHEMA);
        header.set("source", self.source.as_str());
        header.set("sample", self.sample);
        header.set("dropped", self.dropped);
        match &self.model {
            Some(m) => header.set("model", m.to_value()),
            None => header.set("model", Value::Null),
        };
        let mut out = header.to_json();
        out.push('\n');
        out.push_str(&journey_jsonl(&self.events));
        out
    }

    /// Parse a journey JSONL file. The header is optional: a bare event
    /// stream (e.g. a live `/journeys.jsonl` scrape) parses with
    /// `source = "unknown"`, `sample = 1`, and no model.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut source = "unknown".to_string();
        let mut sample = 1u64;
        let mut dropped = 0u64;
        let mut model = None;
        let mut events = Vec::new();
        let mut saw_header = false;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = Value::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            if let Some(schema) = v.get("journey_schema").and_then(Value::as_str) {
                if schema != JOURNEY_SCHEMA {
                    return Err(format!(
                        "journey schema '{schema}' is not the supported '{JOURNEY_SCHEMA}'"
                    ));
                }
                if saw_header {
                    return Err("duplicate journey header".into());
                }
                saw_header = true;
                if let Some(s) = v.get("source").and_then(Value::as_str) {
                    source = s.to_string();
                }
                if let Some(n) = v.get("sample").and_then(Value::as_f64) {
                    sample = (n as u64).max(1);
                }
                if let Some(n) = v.get("dropped").and_then(Value::as_f64) {
                    dropped = n as u64;
                }
                match v.get("model") {
                    Some(Value::Null) | None => {}
                    Some(m) => model = Some(ModelPrediction::from_value(m)?),
                }
                continue;
            }
            events.push(
                JourneyEvent::from_value(&v).map_err(|e| format!("line {}: {e}", lineno + 1))?,
            );
        }
        Ok(Self {
            source,
            sample,
            dropped,
            model,
            events,
        })
    }
}

/// A latency component of one hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Component {
    /// Waiting in (or blocked at) the stage's input queue.
    Queue,
    /// Dequeue → service start (transfer; in the shared-memory executor
    /// this is dominated by in-batch serialisation behind batchmates).
    Transport,
    /// Inside the stage function.
    Service,
    /// Buffered in the upstream sender's partial batch.
    Batching,
}

impl Component {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Component::Queue => "queue",
            Component::Transport => "transport",
            Component::Service => "service",
            Component::Batching => "batching",
        }
    }
}

/// Mean / spread / count of one measured component (seconds).
#[derive(Clone, Copy, Debug, Default)]
pub struct ComponentStats {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator).
    pub sd: f64,
    /// Sample count.
    pub n: usize,
}

impl ComponentStats {
    /// Summarise `samples` (empty → all-zero stats).
    pub fn of(samples: &[f64]) -> Self {
        let n = samples.len();
        if n == 0 {
            return Self::default();
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let sd = if n > 1 {
            (samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
        } else {
            0.0
        };
        Self { mean, sd, n }
    }

    /// Half-width of the 95% confidence interval of the mean.
    pub fn ci95(&self) -> f64 {
        if self.n < 2 {
            return f64::INFINITY;
        }
        1.96 * self.sd / (self.n as f64).sqrt()
    }
}

/// Per-stage measurement vs prediction.
#[derive(Clone, Debug)]
pub struct StageDiagnosis {
    /// Stage index.
    pub stage: usize,
    /// Stage name (from the model header when available).
    pub name: String,
    /// Replication degree (model header, or inferred from events).
    pub replicas: usize,
    /// Queue wait per data set.
    pub queue: ComponentStats,
    /// Transport per data set.
    pub transport: ComponentStats,
    /// Service per data set.
    pub service: ComponentStats,
    /// Batching delay per data set.
    pub batching: ComponentStats,
    /// Measured effective response `(transport + service) / replicas`.
    pub effective_s: f64,
    /// Model's predicted service seconds, when a model was given.
    pub predicted_service_s: Option<f64>,
    /// Model's predicted transport seconds.
    pub predicted_transport_s: Option<f64>,
    /// `|measured − predicted| / predicted` for service (None without a
    /// model or with a non-positive prediction).
    pub service_rel_err: Option<f64>,
    /// Same for transport.
    pub transport_rel_err: Option<f64>,
    /// Whether the predicted service mean lies within the measured
    /// mean's 95% confidence interval.
    pub service_within_ci: Option<bool>,
    /// Measured-over-predicted service drift factor (`None` without a
    /// positive prediction).
    pub service_gamma: Option<f64>,
    /// Measured-over-predicted transport drift factor.
    pub transport_gamma: Option<f64>,
    /// This stage's exact `(exec_down, exec_up)` tolerance, when a
    /// [`MarginSpec`] was supplied.
    pub exec_margin: Option<(f64, f64)>,
    /// Exact `(ecom_in_down, ecom_in_up)` tolerance.
    pub ecom_margin: Option<(f64, f64)>,
    /// `Some(true)` when an observed drift factor left its exact
    /// stability interval; `None` when margins or predictions were
    /// unavailable for this stage.
    pub margin_crossed: Option<bool>,
}

/// One slice of the critical-path distribution: the fraction of data
/// sets whose journey was dominated by this (stage, component).
#[derive(Clone, Copy, Debug)]
pub struct CriticalShare {
    /// Stage index.
    pub stage: usize,
    /// Dominating component.
    pub component: Component,
    /// Fraction of analysed data sets, in `(0, 1]`.
    pub share: f64,
}

/// Collapse per-*module* drift factors onto per-*task* cost deltas for
/// the incremental re-solver. A module's measured service time is the
/// sum of its members' executions and internal redistributions, so
/// scaling every member row by the module's factor scales the sum by
/// exactly that factor — the collapse loses nothing. A module's
/// transport factor applies to its incoming chain edge (`first − 1`);
/// the first module has no incoming edge and its transport factor is
/// ignored. `None` (or non-finite / non-positive) factors mean "no
/// evidence" and leave the cost unchanged.
pub fn stage_deltas(
    mapping: &Mapping,
    num_tasks: usize,
    service: &[Option<f64>],
    transport: &[Option<f64>],
) -> CostDeltas {
    let mut deltas = CostDeltas::identity(num_tasks);
    let usable = |g: Option<&Option<f64>>| {
        g.copied()
            .flatten()
            .filter(|g| g.is_finite() && *g > 0.0 && *g != 1.0)
    };
    for (i, m) in mapping.modules.iter().enumerate() {
        if let Some(g) = usable(service.get(i)) {
            for t in m.first..=m.last {
                deltas.set_exec(t, g);
            }
            for e in m.first..m.last {
                deltas.set_icom(e, g);
            }
        }
        if let Some(g) = usable(transport.get(i)) {
            if m.first > 0 {
                deltas.set_ecom(m.first - 1, g);
            }
        }
    }
    deltas
}

/// [`stage_deltas`] fed straight from a live [`OnlineModel`]: each stage
/// estimator's fitted-over-static factor becomes the module's service
/// factor (stages without enough samples contribute nothing), each edge
/// estimator's factor becomes the downstream module's transport factor.
pub fn model_deltas(model: &OnlineModel, mapping: &Mapping, num_tasks: usize) -> CostDeltas {
    let service: Vec<Option<f64>> = model
        .stages()
        .iter()
        .map(|s| s.snapshot().map(|sn| sn.factor))
        .collect();
    let mut transport: Vec<Option<f64>> = vec![None; mapping.modules.len()];
    for (e, est) in model.edges().iter().enumerate() {
        if e + 1 < transport.len() {
            transport[e + 1] = Some(est.factor());
        }
    }
    stage_deltas(mapping, num_tasks, &service, &transport)
}

/// Apply an online model's fitted factors to a problem in one call: the
/// returned problem prices every cost at `static(p) × factor`, and the
/// returned deltas are the same factors in the re-solver's vocabulary —
/// hand them to [`pipemap_core::ResolveArtifact::resolve`] to re-plan
/// incrementally, or solve the problem cold. Both routes give
/// bit-identical mappings by the re-solver's contract.
pub fn reprice_from_model(
    problem: &Problem,
    mapping: &Mapping,
    model: &OnlineModel,
) -> (Problem, CostDeltas) {
    let deltas = model_deltas(model, mapping, problem.num_tasks());
    (reprice_problem(problem, &deltas), deltas)
}

/// Why the doctor thinks the mapping should be re-solved.
#[derive(Clone, Debug)]
pub struct Recommendation {
    /// Human-readable justification.
    pub why: String,
    /// Solver options to re-solve with.
    pub options: SolveOptions,
    /// Per-module measured-over-predicted service drift factors — the
    /// warm-start handle: feed them through [`Recommendation::deltas`]
    /// into the incremental re-solver instead of re-profiling from
    /// scratch. `None` where the model had no prediction.
    pub service_factors: Vec<Option<f64>>,
    /// Per-module transport drift factors.
    pub transport_factors: Vec<Option<f64>>,
}

impl Recommendation {
    /// The recommendation's drift factors as re-solver cost deltas for
    /// `mapping` (the mapping the journeys were measured under).
    pub fn deltas(&self, mapping: &Mapping, num_tasks: usize) -> CostDeltas {
        stage_deltas(
            mapping,
            num_tasks,
            &self.service_factors,
            &self.transport_factors,
        )
    }
}

/// Analysis thresholds.
#[derive(Clone, Copy, Debug)]
pub struct DoctorOptions {
    /// Relative error above which a per-stage prediction is called out.
    pub rel_threshold: f64,
    /// Drift is only flagged when the measured bottleneck's effective
    /// response exceeds the predicted-bottleneck stage's by this
    /// fraction — near-ties between balanced stages are not drift.
    pub margin: f64,
    /// Minimum complete journeys before drift verdicts are issued.
    pub min_samples: usize,
    /// Sampling stride the events were recorded with (scales the
    /// measured-throughput estimate).
    pub sample: u64,
    /// Journey events the producer dropped at its collector ring
    /// (sampling-completeness warning when nonzero).
    pub dropped: u64,
}

impl Default for DoctorOptions {
    fn default() -> Self {
        Self {
            rel_threshold: 0.25,
            margin: 0.10,
            min_samples: 8,
            sample: 1,
            dropped: 0,
        }
    }
}

/// The doctor's verdict.
#[derive(Clone, Debug)]
pub struct DriftReport {
    /// Journeys stitched from the event stream.
    pub stitched: usize,
    /// Journeys with every stage fully recorded (the analysed set).
    pub complete: usize,
    /// Sampling stride of the input.
    pub sample: u64,
    /// Journey events the producer dropped at its collector ring.
    pub dropped: u64,
    /// Per-stage decomposition and comparison.
    pub stages: Vec<StageDiagnosis>,
    /// Stage with the largest measured effective response.
    pub measured_bottleneck: usize,
    /// The model's predicted bottleneck, when a model was given.
    pub predicted_bottleneck: Option<usize>,
    /// `Some(true)` when the measured bottleneck materially differs
    /// from the predicted one; `None` without a model or enough data.
    pub drift: Option<bool>,
    /// Throughput estimated from sink-event spacing (datasets/s).
    pub measured_throughput: Option<f64>,
    /// The model's predicted throughput.
    pub predicted_throughput: Option<f64>,
    /// End-to-end latency (source → sink), seconds.
    pub latency: ComponentStats,
    /// Critical-path distribution, largest share first.
    pub critical: Vec<CriticalShare>,
    /// Set when drift is flagged.
    pub recommendation: Option<Recommendation>,
    /// Whether exact stability margins (not the fixed near-tie
    /// percentage) decided the drift verdict.
    pub margins_used: bool,
}

/// Analyse a journey log (uses its header's model and sample stride).
pub fn diagnose_log(log: &JourneyLog, opts: &DoctorOptions) -> DriftReport {
    diagnose_log_with_margins(log, None, opts)
}

/// [`diagnose_log`] with an exact margin spec deciding the drift
/// verdict (`pipemap doctor --margins explain.json`).
pub fn diagnose_log_with_margins(
    log: &JourneyLog,
    margins: Option<&MarginSpec>,
    opts: &DoctorOptions,
) -> DriftReport {
    let mut o = *opts;
    o.sample = log.sample;
    o.dropped = log.dropped;
    diagnose_with_margins(&log.events, log.model.as_ref(), margins, &o)
}

/// Analyse raw journey events against an optional model prediction.
pub fn diagnose(
    events: &[JourneyEvent],
    model: Option<&ModelPrediction>,
    opts: &DoctorOptions,
) -> DriftReport {
    diagnose_with_margins(events, model, None, opts)
}

/// [`diagnose`], with drift judged against exact per-stage stability
/// margins when `margins` is given: instead of "did the measured
/// bottleneck move by more than the fixed percentage", the verdict
/// becomes "did any fitted cost drift past the factor at which the DP
/// would have chosen a different mapping". This both silences false
/// positives on stages with wide margins and catches real drift the
/// bottleneck-move test cannot see (a cost can cross its margin before
/// the bottleneck visibly moves).
pub fn diagnose_with_margins(
    events: &[JourneyEvent],
    model: Option<&ModelPrediction>,
    margins: Option<&MarginSpec>,
    opts: &DoctorOptions,
) -> DriftReport {
    let journeys = stitch(events);
    let n_stages = match model {
        Some(m) => m.stages.len(),
        None => journeys
            .iter()
            .flat_map(|j| j.hops.iter().map(|h| h.stage as usize + 1))
            .max()
            .unwrap_or(0),
    };
    let complete: Vec<&Journey> = journeys.iter().filter(|j| j.complete(n_stages)).collect();

    // Replication degree: trust the model; otherwise infer from the
    // replicas actually observed serving this stage.
    let replicas: Vec<usize> = (0..n_stages)
        .map(|s| match model {
            Some(m) => m.stages[s].replicas,
            None => complete
                .iter()
                .map(|j| j.hops[s].instance as usize + 1)
                .max()
                .unwrap_or(1),
        })
        .collect();

    // Component samples per stage, in seconds.
    let mut queue: Vec<Vec<f64>> = vec![Vec::new(); n_stages];
    let mut transport: Vec<Vec<f64>> = vec![Vec::new(); n_stages];
    let mut service: Vec<Vec<f64>> = vec![Vec::new(); n_stages];
    let mut batching: Vec<Vec<f64>> = vec![Vec::new(); n_stages];
    let mut latencies: Vec<f64> = Vec::new();
    let mut critical_counts: Vec<Vec<usize>> = vec![vec![0; 4]; n_stages];
    for j in &complete {
        let mut worst = (0usize, Component::Service, f64::NEG_INFINITY);
        for (s, hop) in j.hops.iter().enumerate() {
            let enq = hop.enqueue_us.expect("complete");
            let deq = hop.dequeue_us.expect("complete");
            let ss = hop.service_start_us.expect("complete");
            let se = hop.service_end_us.expect("complete");
            let upstream_out = if s == 0 {
                j.source_us.unwrap_or(enq)
            } else {
                j.hops[s - 1].send_us.expect("complete")
            };
            let comps = [
                (Component::Queue, (deq - enq) / 1e6),
                (Component::Transport, (ss - deq) / 1e6),
                (Component::Service, (se - ss) / 1e6),
                (Component::Batching, (enq - upstream_out) / 1e6),
            ];
            queue[s].push(comps[0].1);
            transport[s].push(comps[1].1);
            service[s].push(comps[2].1);
            batching[s].push(comps[3].1);
            for (k, &(c, v)) in comps.iter().enumerate() {
                if v > worst.2 {
                    worst = (s, c, v);
                }
                let _ = k;
            }
        }
        critical_counts[worst.0][component_index(worst.1)] += 1;
        if let Some(lat) = j.latency_us() {
            latencies.push(lat / 1e6);
        }
    }

    let mut stages = Vec::with_capacity(n_stages);
    let mut effective = Vec::with_capacity(n_stages);
    for s in 0..n_stages {
        let q = ComponentStats::of(&queue[s]);
        let t = ComponentStats::of(&transport[s]);
        let sv = ComponentStats::of(&service[s]);
        let b = ComponentStats::of(&batching[s]);
        let eff = (t.mean + sv.mean) / replicas[s].max(1) as f64;
        effective.push(eff);
        let pred = model.map(|m| &m.stages[s]);
        let rel = |measured: f64, predicted: f64| {
            if predicted > 0.0 {
                Some((measured - predicted).abs() / predicted)
            } else {
                None
            }
        };
        let spec = margins.and_then(|m| m.stages.iter().find(|ms| ms.stage == s));
        let gamma = |measured: f64, predicted: Option<f64>| {
            predicted.filter(|p| *p > 0.0).map(|p| measured / p)
        };
        let service_gamma = gamma(sv.mean, pred.map(|p| p.service_s));
        let transport_gamma = gamma(t.mean, pred.map(|p| p.transport_s));
        let outside = |g: Option<f64>, bounds: Option<(f64, f64)>| match (g, bounds) {
            (Some(g), Some((down, up))) => Some(g > up || g < down),
            _ => None,
        };
        let exec_margin = spec.map(|m| (m.exec_down, m.exec_up));
        let ecom_margin = spec.map(|m| (m.ecom_in_down, m.ecom_in_up));
        let crossings = [
            outside(service_gamma, exec_margin),
            outside(transport_gamma, ecom_margin),
        ];
        let margin_crossed = if crossings.iter().all(Option::is_none) {
            None
        } else {
            Some(crossings.contains(&Some(true)))
        };
        stages.push(StageDiagnosis {
            stage: s,
            name: pred
                .map(|p| p.name.clone())
                .unwrap_or_else(|| format!("stage{s}")),
            replicas: replicas[s],
            queue: q,
            transport: t,
            service: sv,
            batching: b,
            effective_s: eff,
            predicted_service_s: pred.map(|p| p.service_s),
            predicted_transport_s: pred.map(|p| p.transport_s),
            service_rel_err: pred.and_then(|p| rel(sv.mean, p.service_s)),
            transport_rel_err: pred.and_then(|p| rel(t.mean, p.transport_s)),
            service_within_ci: pred.map(|p| (sv.mean - p.service_s).abs() <= sv.ci95()),
            service_gamma,
            transport_gamma,
            exec_margin,
            ecom_margin,
            margin_crossed,
        });
    }

    let (measured_bottleneck, _) = pipemap_chain::bottleneck(effective.iter().copied());
    let predicted_bottleneck = model.map(|m| m.bottleneck);
    let margins_used = margins.is_some() && stages.iter().any(|s| s.margin_crossed.is_some());
    let drift = if margins_used {
        // Margin-aware verdict: drift iff a fitted cost provably left
        // the region where the chosen mapping is optimal. The fixed
        // percentage plays no role.
        (complete.len() >= opts.min_samples)
            .then(|| stages.iter().any(|s| s.margin_crossed == Some(true)))
    } else {
        match predicted_bottleneck {
            Some(pb) if complete.len() >= opts.min_samples && !effective.is_empty() => {
                let moved = measured_bottleneck != pb;
                let material = moved
                    && effective[pb] > 0.0
                    && (effective[measured_bottleneck] - effective[pb]) / effective[pb]
                        > opts.margin;
                Some(material)
            }
            _ => None,
        }
    };

    // Throughput from sink spacing: sampled completions are `sample`
    // data sets apart, so the stream rate is the sampled rate × stride.
    let mut sinks: Vec<f64> = complete.iter().filter_map(|j| j.sink_us).collect();
    sinks.sort_by(f64::total_cmp);
    let measured_throughput = (sinks.len() >= 2 && sinks[sinks.len() - 1] > sinks[0]).then(|| {
        (sinks.len() - 1) as f64 * opts.sample as f64 / ((sinks[sinks.len() - 1] - sinks[0]) / 1e6)
    });

    let mut critical: Vec<CriticalShare> = Vec::new();
    if !complete.is_empty() {
        for (s, counts) in critical_counts.iter().enumerate() {
            for (k, &cnt) in counts.iter().enumerate() {
                if cnt > 0 {
                    critical.push(CriticalShare {
                        stage: s,
                        component: component_from_index(k),
                        share: cnt as f64 / complete.len() as f64,
                    });
                }
            }
        }
        critical.sort_by(|a, b| b.share.total_cmp(&a.share));
    }

    let service_factors: Vec<Option<f64>> = stages.iter().map(|s| s.service_gamma).collect();
    let transport_factors: Vec<Option<f64>> = stages.iter().map(|s| s.transport_gamma).collect();
    let recommendation = match drift {
        Some(true) if margins_used => {
            let why = stages
                .iter()
                .find(|s| s.margin_crossed == Some(true))
                .map(|s| {
                    let (kind, g, (down, up)) = match (
                        s.service_gamma.zip(s.exec_margin),
                        s.transport_gamma.zip(s.ecom_margin),
                    ) {
                        (Some((g, b)), _) if g > b.1 || g < b.0 => ("service", g, b),
                        (_, Some((g, b))) => ("transport", g, b),
                        (Some((g, b)), None) => ("service", g, b),
                        (None, None) => unreachable!("crossed implies a drift factor"),
                    };
                    format!(
                        "stage {} ({}) {kind} cost drifted to {g:.3}x its fitted model, \
                         outside the exact stability interval ({:.3}, {}) — a different \
                         mapping is now provably optimal; re-solve against refreshed \
                         profiles",
                        s.stage,
                        s.name,
                        down,
                        if up.is_finite() {
                            format!("{up:.3}")
                        } else {
                            "inf".into()
                        },
                    )
                })
                .expect("margin drift implies a crossed stage");
            Some(Recommendation {
                why,
                options: SolveOptions::default(),
                service_factors,
                transport_factors,
            })
        }
        Some(true) => Some(Recommendation {
            why: format!(
                "measured bottleneck is stage {} but the model predicted stage {}; \
                 the fitted costs no longer describe the run — re-solve the mapping \
                 against refreshed profiles",
                measured_bottleneck,
                predicted_bottleneck.expect("drift implies a prediction"),
            ),
            options: SolveOptions::default(),
            service_factors,
            transport_factors,
        }),
        _ => None,
    };

    DriftReport {
        stitched: journeys.len(),
        complete: complete.len(),
        sample: opts.sample,
        dropped: opts.dropped,
        stages,
        measured_bottleneck,
        predicted_bottleneck,
        drift,
        measured_throughput,
        predicted_throughput: model.map(|m| m.throughput),
        latency: ComponentStats::of(&latencies),
        critical,
        recommendation,
        margins_used,
    }
}

fn component_index(c: Component) -> usize {
    match c {
        Component::Queue => 0,
        Component::Transport => 1,
        Component::Service => 2,
        Component::Batching => 3,
    }
}

fn component_from_index(k: usize) -> Component {
    match k {
        0 => Component::Queue,
        1 => Component::Transport,
        2 => Component::Service,
        _ => Component::Batching,
    }
}

/// Export the verdict as `doctor.drift.*` gauges (no-op on a disabled
/// recorder), so a held `--serve` endpoint exposes it over OpenMetrics.
pub fn publish(report: &DriftReport, rec: &Recorder) {
    rec.gauge_set(
        pipemap_obs::names::DOCTOR_DRIFT_FLAGGED,
        match report.drift {
            Some(true) => 1.0,
            _ => 0.0,
        },
    );
    rec.gauge_set(
        pipemap_obs::names::DOCTOR_DRIFT_MEASURED_BOTTLENECK,
        report.measured_bottleneck as f64,
    );
    if let Some(pb) = report.predicted_bottleneck {
        rec.gauge_set(
            pipemap_obs::names::DOCTOR_DRIFT_PREDICTED_BOTTLENECK,
            pb as f64,
        );
    }
    let max_rel = report
        .stages
        .iter()
        .filter_map(|s| s.service_rel_err)
        .fold(0.0f64, f64::max);
    rec.gauge_set(pipemap_obs::names::DOCTOR_DRIFT_MAX_REL_ERR, max_rel);
    for s in &report.stages {
        if let Some(rel) = s.service_rel_err {
            rec.gauge_set(
                &format!("doctor.drift.stage{}.service_rel_err", s.stage),
                rel,
            );
        }
        if let Some(g) = s.service_gamma {
            rec.gauge_set(&format!("doctor.drift.stage{}.service_gamma", s.stage), g);
        }
    }
    if report.margins_used {
        rec.gauge_set("doctor.drift.margins_used", 1.0);
    }
}

/// The JSON form of the report (`pipemap doctor --report json`).
pub fn report_json(report: &DriftReport) -> Value {
    let mut v = Value::object();
    v.set("schema", DOCTOR_SCHEMA);
    v.set("journeys", report.stitched as u64);
    v.set("complete", report.complete as u64);
    v.set("sample", report.sample);
    v.set("dropped", report.dropped);
    let stats = |s: &ComponentStats| {
        let mut o = Value::object();
        o.set("mean_s", s.mean);
        o.set("sd_s", s.sd);
        o.set("n", s.n as u64);
        if s.n >= 2 {
            o.set("ci95_s", s.ci95());
        }
        o
    };
    let opt_num = |o: &mut Value, key: &str, v_: Option<f64>| {
        match v_ {
            Some(x) => o.set(key, x),
            None => o.set(key, Value::Null),
        };
    };
    let stages: Vec<Value> = report
        .stages
        .iter()
        .map(|s| {
            let mut o = Value::object();
            o.set("stage", s.stage as u64);
            o.set("name", s.name.as_str());
            o.set("replicas", s.replicas as u64);
            o.set("queue", stats(&s.queue));
            o.set("transport", stats(&s.transport));
            o.set("service", stats(&s.service));
            o.set("batching", stats(&s.batching));
            o.set("effective_s", s.effective_s);
            opt_num(&mut o, "predicted_service_s", s.predicted_service_s);
            opt_num(&mut o, "predicted_transport_s", s.predicted_transport_s);
            opt_num(&mut o, "service_rel_err", s.service_rel_err);
            opt_num(&mut o, "transport_rel_err", s.transport_rel_err);
            match s.service_within_ci {
                Some(b) => o.set("service_within_ci", b),
                None => o.set("service_within_ci", Value::Null),
            };
            if report.margins_used {
                opt_num(&mut o, "service_gamma", s.service_gamma);
                opt_num(&mut o, "transport_gamma", s.transport_gamma);
                if let Some((down, up)) = s.exec_margin {
                    let mut m = Value::object();
                    m.set("exec_down", down);
                    m.set("exec_up", up);
                    if let Some((ed, eu)) = s.ecom_margin {
                        m.set("ecom_in_down", ed);
                        m.set("ecom_in_up", eu);
                    }
                    o.set("margins", m);
                }
                match s.margin_crossed {
                    Some(b) => o.set("margin_crossed", b),
                    None => o.set("margin_crossed", Value::Null),
                };
            }
            o
        })
        .collect();
    v.set("stages", Value::Array(stages));
    v.set("measured_bottleneck", report.measured_bottleneck as u64);
    match report.predicted_bottleneck {
        Some(pb) => v.set("predicted_bottleneck", pb as u64),
        None => v.set("predicted_bottleneck", Value::Null),
    };
    match report.drift {
        Some(b) => v.set("drift", b),
        None => v.set("drift", Value::Null),
    };
    v.set("margins_used", report.margins_used);
    opt_num(&mut v, "measured_throughput", report.measured_throughput);
    opt_num(&mut v, "predicted_throughput", report.predicted_throughput);
    v.set("latency", stats(&report.latency));
    let critical: Vec<Value> = report
        .critical
        .iter()
        .map(|c| {
            let mut o = Value::object();
            o.set("stage", c.stage as u64);
            o.set("component", c.component.as_str());
            o.set("share", c.share);
            o
        })
        .collect();
    v.set("critical_path", Value::Array(critical));
    match &report.recommendation {
        Some(r) => {
            let mut o = Value::object();
            o.set("action", "resolve");
            o.set("why", r.why.as_str());
            let mut so = Value::object();
            so.set("par", r.options.par);
            so.set("prune", r.options.prune);
            so.set("dedup", r.options.dedup);
            match r.options.threads {
                Some(t) => so.set("threads", t as u64),
                None => so.set("threads", Value::Null),
            };
            o.set("solve_options", so);
            // The warm-start handle: per-module drift factors for the
            // incremental re-solver (`pipemap resolve --doctor`).
            let factor_array = |fs: &[Option<f64>]| {
                Value::Array(
                    fs.iter()
                        .map(|f| match f {
                            Some(x) => Value::Number(*x),
                            None => Value::Null,
                        })
                        .collect(),
                )
            };
            let mut factors = Value::object();
            factors.set("service", factor_array(&r.service_factors));
            factors.set("transport", factor_array(&r.transport_factors));
            o.set("factors", factors);
            v.set("recommendation", o);
        }
        None => {
            v.set("recommendation", Value::Null);
        }
    }
    v
}

/// Human-readable rendering of the report.
pub fn render(report: &DriftReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "journeys: {} stitched, {} complete (1-in-{} sampling)",
        report.stitched, report.complete, report.sample
    );
    if report.dropped > 0 {
        let _ = writeln!(
            out,
            "WARNING: {} journey events were dropped at the collector ring — the \
             timeline under-represents the run beyond its sampling stride, so the \
             decomposition below may be biased toward quieter periods",
            report.dropped
        );
    }
    if let Some(thr) = report.measured_throughput {
        match report.predicted_throughput {
            Some(p) if p.is_finite() => {
                let _ = writeln!(
                    out,
                    "throughput: measured {thr:.2} datasets/s, model predicted {p:.2}"
                );
            }
            _ => {
                let _ = writeln!(out, "throughput: measured {thr:.2} datasets/s");
            }
        }
    }
    if report.latency.n > 0 {
        let _ = writeln!(
            out,
            "end-to-end latency: mean {:.6}s over {} sampled data sets",
            report.latency.mean, report.latency.n
        );
    }
    let _ = writeln!(
        out,
        "\n{:<4} {:<14} {:>3} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "#",
        "stage",
        "r",
        "queue ms",
        "transport ms",
        "service ms",
        "batching ms",
        "pred ms",
        "rel err"
    );
    for s in &report.stages {
        let ms = |x: f64| x * 1e3;
        let pred = s
            .predicted_service_s
            .map(|p| format!("{:.4}", ms(p)))
            .unwrap_or_else(|| "-".into());
        let rel = s
            .service_rel_err
            .map(|r| format!("{:+.1}%", r * 100.0))
            .unwrap_or_else(|| "-".into());
        let mark = if s.stage == report.measured_bottleneck {
            "*"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{:<4} {:<14} {:>3} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12} {:>8}",
            format!("{}{}", s.stage, mark),
            s.name,
            s.replicas,
            ms(s.queue.mean),
            ms(s.transport.mean),
            ms(s.service.mean),
            ms(s.batching.mean),
            pred,
            rel
        );
    }
    if let Some(c) = report.critical.first() {
        let _ = writeln!(
            out,
            "\ncritical path: {:.0}% of data sets dominated by stage {} {}",
            c.share * 100.0,
            c.stage,
            c.component.as_str()
        );
    }
    if report.margins_used {
        let _ = writeln!(
            out,
            "\nexact stability margins (drift factor vs tolerance):"
        );
        let bound = |b: f64| {
            if b.is_finite() {
                format!("{b:.3}")
            } else {
                "inf".into()
            }
        };
        for s in &report.stages {
            let (Some(g), Some((down, up))) = (s.service_gamma, s.exec_margin) else {
                continue;
            };
            let verdict = match s.margin_crossed {
                Some(true) => "CROSSED",
                Some(false) => "ok",
                None => "-",
            };
            let transport = match (s.transport_gamma, s.ecom_margin) {
                (Some(tg), Some((td, tu))) => {
                    format!(", transport {tg:.3}x in ({:.3}, {})", td, bound(tu))
                }
                _ => String::new(),
            };
            let _ = writeln!(
                out,
                "  stage {} {:<14} service {g:.3}x in ({:.3}, {}){transport}  [{verdict}]",
                s.stage,
                s.name,
                down,
                bound(up),
            );
        }
        match report.drift {
            Some(true) => {
                let _ = writeln!(
                    out,
                    "\nMARGIN DRIFT: a fitted cost left the region where the chosen \
                     mapping is optimal"
                );
                if let Some(r) = &report.recommendation {
                    let _ = writeln!(out, "recommendation: {}", r.why);
                }
            }
            Some(false) => {
                let _ = writeln!(
                    out,
                    "\nno drift: every fitted cost is inside its exact stability margin \
                     (mapping still provably optimal)"
                );
            }
            None => {
                let _ = writeln!(out, "\nnot enough complete journeys for a margin verdict");
            }
        }
        return out;
    }
    match (report.drift, report.predicted_bottleneck) {
        (Some(true), Some(pb)) => {
            let _ = writeln!(
                out,
                "\nDRIFT: measured bottleneck is stage {} but the model predicted stage {pb}",
                report.measured_bottleneck
            );
            if let Some(r) = &report.recommendation {
                let _ = writeln!(out, "recommendation: re-solve the mapping ({})", r.why);
            }
        }
        (Some(false), Some(pb)) if report.measured_bottleneck == pb => {
            let _ = writeln!(
                out,
                "\nno drift: measured bottleneck stage {} agrees with the model's stage {pb}",
                report.measured_bottleneck
            );
        }
        (Some(false), Some(pb)) => {
            let _ = writeln!(
                out,
                "\nno drift: measured bottleneck stage {} differs from the model's stage {pb} \
                 but within the near-tie margin",
                report.measured_bottleneck
            );
        }
        _ => {
            let _ = writeln!(
                out,
                "\nno model prediction available: decomposition only (measured bottleneck: stage {})",
                report.measured_bottleneck
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemap_obs::JourneyKind;

    /// Synthesise complete journeys: per stage `s` a fixed breakdown of
    /// (queue, transport, service, batching) microseconds.
    fn synth(n: usize, per_stage: &[(f64, f64, f64, f64)], period_us: f64) -> Vec<JourneyEvent> {
        let mut events = Vec::new();
        let mut push = |seq: usize, stage: u32, kind: JourneyKind, t: f64| {
            events.push(JourneyEvent {
                seq: seq as u64,
                stage,
                instance: 0,
                kind,
                t_us: t,
                batch: 0,
            });
        };
        for seq in 0..n {
            let mut t = seq as f64 * period_us;
            push(seq, 0, JourneyKind::Source, t);
            for (s, &(q, tr, sv, b)) in per_stage.iter().enumerate() {
                t += b;
                push(seq, s as u32, JourneyKind::Enqueue, t);
                t += q;
                push(seq, s as u32, JourneyKind::Dequeue, t);
                t += tr;
                push(seq, s as u32, JourneyKind::ServiceStart, t);
                t += sv;
                push(seq, s as u32, JourneyKind::ServiceEnd, t);
                push(seq, s as u32, JourneyKind::Send, t);
            }
            push(seq, per_stage.len() as u32, JourneyKind::Sink, t);
        }
        events
    }

    fn model2(s0: f64, s1: f64) -> ModelPrediction {
        ModelPrediction::from_measured(&["a".to_string(), "b".to_string()], &[1, 1], &[s0, s1])
    }

    #[test]
    fn decomposition_recovers_the_synthetic_breakdown() {
        let events = synth(20, &[(5.0, 2.0, 40.0, 1.0), (10.0, 3.0, 20.0, 4.0)], 100.0);
        let report = diagnose(&events, None, &DoctorOptions::default());
        assert_eq!(report.stitched, 20);
        assert_eq!(report.complete, 20);
        let s0 = &report.stages[0];
        assert!((s0.queue.mean - 5e-6).abs() < 1e-12);
        assert!((s0.transport.mean - 2e-6).abs() < 1e-12);
        assert!((s0.service.mean - 40e-6).abs() < 1e-12);
        assert!((s0.batching.mean - 1e-6).abs() < 1e-12);
        let s1 = &report.stages[1];
        assert!((s1.queue.mean - 10e-6).abs() < 1e-12);
        assert!((s1.service.mean - 20e-6).abs() < 1e-12);
        // Stage 0 dominates: effective (2+40)µs > (3+20)µs.
        assert_eq!(report.measured_bottleneck, 0);
        assert!(report.drift.is_none(), "no model, no drift verdict");
        // Critical path: service of stage 0 dominates every journey.
        assert_eq!(report.critical.len(), 1);
        assert_eq!(report.critical[0].stage, 0);
        assert_eq!(report.critical[0].component, Component::Service);
        assert!((report.critical[0].share - 1.0).abs() < 1e-12);
        // Throughput from sink spacing: one data set per 100 µs.
        let thr = report.measured_throughput.expect("sinks recorded");
        assert!((thr - 10_000.0).abs() < 1e-6, "thr {thr}");
    }

    #[test]
    fn drift_flagged_iff_bottleneck_moved_materially() {
        // Model says stage 0 (40 µs) beats stage 1 (20 µs).
        let model = model2(40e-6, 20e-6);
        assert_eq!(model.bottleneck, 0);

        // Run agrees with the model: no drift.
        let agree = synth(20, &[(0.0, 0.0, 40.0, 0.0), (0.0, 0.0, 20.0, 0.0)], 100.0);
        let r = diagnose(&agree, Some(&model), &DoctorOptions::default());
        assert_eq!(r.drift, Some(false));
        assert!(r.recommendation.is_none());
        assert_eq!(r.stages[0].service_within_ci, Some(true));

        // Stage 1 ballooned to 90 µs: the bottleneck moved — drift.
        let moved = synth(20, &[(0.0, 0.0, 40.0, 0.0), (0.0, 0.0, 90.0, 0.0)], 150.0);
        let r = diagnose(&moved, Some(&model), &DoctorOptions::default());
        assert_eq!(r.measured_bottleneck, 1);
        assert_eq!(r.drift, Some(true));
        let rec = r.recommendation.expect("drift recommends a re-solve");
        assert!(rec.why.contains("stage 1"));
        assert!((r.stages[1].service_rel_err.unwrap() - 3.5).abs() < 1e-9);

        // A hair over the model's stage 0 on stage 1 (41 vs 40 µs):
        // nominally moved, but within the margin — not drift.
        let near = synth(20, &[(0.0, 0.0, 40.0, 0.0), (0.0, 0.0, 41.0, 0.0)], 100.0);
        let r = diagnose(&near, Some(&model), &DoctorOptions::default());
        assert_eq!(r.measured_bottleneck, 1);
        assert_eq!(r.drift, Some(false), "near-tie is not drift");

        // Too few samples: no verdict.
        let few = synth(3, &[(0.0, 0.0, 40.0, 0.0), (0.0, 0.0, 90.0, 0.0)], 150.0);
        let r = diagnose(&few, Some(&model), &DoctorOptions::default());
        assert_eq!(r.drift, None);
    }

    fn spec2(up0: f64, up1: f64) -> MarginSpec {
        MarginSpec {
            stages: vec![
                StageMarginSpec {
                    stage: 0,
                    exec_up: up0,
                    exec_down: 0.5,
                    ecom_in_up: f64::INFINITY,
                    ecom_in_down: 0.0,
                },
                StageMarginSpec {
                    stage: 1,
                    exec_up: up1,
                    exec_down: 0.5,
                    ecom_in_up: f64::INFINITY,
                    ecom_in_down: 0.0,
                },
            ],
        }
    }

    #[test]
    fn margins_silence_false_positives_and_catch_hidden_drift() {
        let model = model2(40e-6, 20e-6);
        let opts = DoctorOptions::default();

        // Stage 1 balloons 41/20 = 2.05x and overtakes the bottleneck —
        // the fixed-percentage doctor flags drift. But stage 1's exact
        // margin says anything under 2.5x still leaves the mapping
        // optimal: the margin-aware doctor stays quiet.
        let overtaken = synth(20, &[(0.0, 0.0, 40.0, 0.0), (0.0, 0.0, 41.0, 0.0)], 100.0);
        let fixed = diagnose(&overtaken, Some(&model), &opts);
        assert_eq!(fixed.measured_bottleneck, 1);
        assert!(!fixed.margins_used);
        let wide = spec2(3.0, 2.5);
        let margin = diagnose_with_margins(&overtaken, Some(&model), Some(&wide), &opts);
        assert!(margin.margins_used);
        assert_eq!(margin.drift, Some(false), "inside margins is not drift");
        let g = margin.stages[1].service_gamma.expect("prediction present");
        assert!((g - 41.0 / 20.0).abs() < 1e-9, "gamma {g}");
        assert_eq!(margin.stages[1].margin_crossed, Some(false));
        assert!(margin.recommendation.is_none());

        // Stage 0 creeps only 10% (44/40) and stays the bottleneck — the
        // fixed doctor sees nothing. On a knife-edge mapping (margin
        // 1.05x) that creep already makes a different mapping optimal:
        // only the margin-aware doctor catches it.
        let creep = synth(20, &[(0.0, 0.0, 44.0, 0.0), (0.0, 0.0, 20.0, 0.0)], 100.0);
        let fixed = diagnose(&creep, Some(&model), &opts);
        assert_eq!(fixed.drift, Some(false), "bottleneck never moved");
        let knife = spec2(1.05, 3.0);
        let margin = diagnose_with_margins(&creep, Some(&model), Some(&knife), &opts);
        assert_eq!(margin.drift, Some(true));
        assert_eq!(margin.stages[0].margin_crossed, Some(true));
        let rec = margin
            .recommendation
            .expect("crossing recommends a re-solve");
        assert!(rec.why.contains("stage 0"), "{}", rec.why);
        assert!(rec.why.contains("1.100"), "{}", rec.why);

        // Shrink direction: stage 1 collapses to 0.25x its model, below
        // exec_down = 0.5 — procs are provably misallocated.
        let shrink = synth(20, &[(0.0, 0.0, 40.0, 0.0), (0.0, 0.0, 5.0, 0.0)], 100.0);
        let margin = diagnose_with_margins(&shrink, Some(&model), Some(&wide), &opts);
        assert_eq!(margin.drift, Some(true));
        assert_eq!(margin.stages[1].margin_crossed, Some(true));

        // The JSON report carries the margin fields.
        let v = report_json(&margin);
        let parsed = Value::parse(&v.to_json()).unwrap();
        assert_eq!(parsed.get("margins_used"), Some(&Value::Bool(true)));
        let stages = parsed.get("stages").and_then(Value::as_array).unwrap();
        assert_eq!(
            stages[1].get("service_gamma").and_then(Value::as_f64),
            Some(0.25)
        );
        assert_eq!(stages[1].get("margin_crossed"), Some(&Value::Bool(true)));
        // And the rendering names the verdict.
        let text = render(&margin);
        assert!(text.contains("MARGIN DRIFT"), "{text}");
        assert!(text.contains("CROSSED"), "{text}");
    }

    #[test]
    fn margin_spec_parses_explain_json() {
        // The shape `pipemap explain --report json` produces: stages
        // with nested margins; infinities serialised as null.
        let text = r#"{
            "schema": "pipemap-explain/v1",
            "throughput": 0.5,
            "stages": [
                {"index": 0, "margins": {"exec_up": 1.25, "exec_down": 0.8,
                                          "ecom_in_up": null, "ecom_in_down": 0.0}},
                {"index": 1, "margins": {"exec_up": null, "exec_down": 0.0}}
            ]
        }"#;
        let spec = MarginSpec::parse(text).expect("parses");
        assert_eq!(spec.stages.len(), 2);
        assert_eq!(spec.stages[0].exec_up, 1.25);
        assert_eq!(spec.stages[0].ecom_in_up, f64::INFINITY);
        assert_eq!(spec.stages[1].exec_up, f64::INFINITY);
        assert_eq!(spec.stages[1].ecom_in_down, 0.0);

        assert!(MarginSpec::parse("{}").is_err());
        assert!(MarginSpec::parse("{\"stages\": []}").is_err());
        assert!(MarginSpec::parse("not json").is_err());
    }

    #[test]
    fn journey_log_round_trips_with_model_header() {
        let model = model2(1e-3, 2e-3);
        let events = synth(4, &[(1.0, 1.0, 10.0, 0.0), (0.0, 0.0, 20.0, 0.0)], 50.0);
        let log = JourneyLog {
            source: "simulate".into(),
            sample: 8,
            dropped: 3,
            model: Some(model.clone()),
            events,
        };
        let text = log.to_jsonl();
        let back = JourneyLog::parse(&text).expect("parses");
        assert_eq!(back.source, "simulate");
        assert_eq!(back.sample, 8);
        assert_eq!(back.dropped, 3);
        assert_eq!(back.model, Some(model));
        assert_eq!(back.events, log.events);

        // A lossy log triggers the sampling-completeness warning; a
        // complete one stays quiet.
        let lossy = diagnose_log(&back, &DoctorOptions::default());
        assert_eq!(lossy.dropped, 3);
        assert!(render(&lossy).contains("WARNING: 3 journey events were dropped"));
        let complete = diagnose_log(
            &JourneyLog {
                dropped: 0,
                ..back.clone()
            },
            &DoctorOptions::default(),
        );
        assert!(!render(&complete).contains("WARNING"));

        // Headerless event streams still parse.
        let raw = pipemap_obs::journey_jsonl(&log.events);
        let bare = JourneyLog::parse(&raw).expect("parses without header");
        assert_eq!(bare.source, "unknown");
        assert_eq!(bare.sample, 1);
        assert!(bare.model.is_none());

        // A wrong schema is rejected loudly.
        let bad = text.replace("pipemap-journey/v1", "pipemap-journey/v9");
        let err = JourneyLog::parse(&bad).unwrap_err();
        assert!(err.contains("pipemap-journey/v9"), "{err}");
    }

    #[test]
    fn json_report_is_well_formed() {
        let model = model2(40e-6, 20e-6);
        let events = synth(20, &[(0.0, 0.0, 40.0, 0.0), (0.0, 0.0, 90.0, 0.0)], 150.0);
        let report = diagnose(&events, Some(&model), &DoctorOptions::default());
        let v = report_json(&report);
        let parsed = Value::parse(&v.to_json()).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(Value::as_str),
            Some(DOCTOR_SCHEMA)
        );
        assert_eq!(parsed.get("drift"), Some(&Value::Bool(true)));
        assert_eq!(
            parsed.get("measured_bottleneck").and_then(Value::as_f64),
            Some(1.0)
        );
        let stages = parsed.get("stages").and_then(Value::as_array).unwrap();
        assert_eq!(stages.len(), 2);
        assert!(stages[0]
            .get("service")
            .and_then(|s| s.get("mean_s"))
            .and_then(Value::as_f64)
            .is_some());
        assert!(parsed
            .get("recommendation")
            .and_then(|r| r.get("solve_options"))
            .is_some());
        // Human rendering mentions the verdict either way.
        let text = render(&report);
        assert!(text.contains("DRIFT"), "{text}");
        let snap = {
            let reg = pipemap_obs::Registry::new();
            let rec = reg.recorder();
            publish(&report, &rec);
            reg.snapshot()
        };
        let gauge = |name: &str| snap.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
        assert_eq!(gauge(pipemap_obs::names::DOCTOR_DRIFT_FLAGGED), Some(1.0));
        assert_eq!(
            gauge(pipemap_obs::names::DOCTOR_DRIFT_MEASURED_BOTTLENECK),
            Some(1.0)
        );
        assert!(gauge("doctor.drift.stage1.service_rel_err").is_some());
    }

    #[test]
    fn stage_deltas_collapse_module_factors_onto_tasks() {
        use pipemap_chain::ModuleAssignment;
        // [t0+t1][t2]: module 0's service factor covers both member
        // tasks and the internal edge; module 1's transport factor lands
        // on its incoming chain edge; module 0's transport factor has no
        // incoming edge and is dropped.
        let mapping = Mapping {
            modules: vec![
                ModuleAssignment {
                    first: 0,
                    last: 1,
                    replicas: 1,
                    procs: 2,
                },
                ModuleAssignment {
                    first: 2,
                    last: 2,
                    replicas: 1,
                    procs: 1,
                },
            ],
        };
        let d = stage_deltas(&mapping, 3, &[Some(1.5), None], &[Some(9.0), Some(2.0)]);
        assert_eq!(d.exec(), &[1.5, 1.5, 1.0]);
        assert_eq!(d.icom(), &[1.5, 1.0]);
        assert_eq!(d.ecom(), &[1.0, 2.0]);
        // No evidence anywhere → identity (the re-solver short-circuits).
        let id = stage_deltas(&mapping, 3, &[None, None], &[None, None]);
        assert!(id.is_identity());
        // Garbage factors are evidence of nothing.
        let id = stage_deltas(&mapping, 3, &[Some(f64::NAN), Some(0.0)], &[None, None]);
        assert!(id.is_identity());
    }

    #[test]
    fn model_deltas_feed_the_resolver_from_live_estimators() {
        use pipemap_chain::{ChainBuilder, Edge, ModuleAssignment, Task};
        use pipemap_model::{PolyEcom, PolyUnary};
        use pipemap_profile::OnlineConfig;

        let s0 = PolyUnary::new(0.0, 2.0, 0.0);
        let s1 = PolyUnary::new(0.0, 1.0, 0.0);
        let e0 = PolyEcom::new(0.01, 0.5, 0.5, 0.0, 0.0);
        let mut model = OnlineModel::new(&[s0, s1], &[e0], OnlineConfig::default());
        // Stage 0 runs 1.5× its static model; edge 0 transfers at 2×;
        // stage 1 is never observed.
        for _ in 0..200 {
            model.observe_exec(0, 8, 1.5 * s0.eval(8));
            model.observe_ecom(0, 8, 4, 2.0 * e0.eval(8, 4));
        }
        model.refit();

        let mapping = Mapping {
            modules: vec![
                ModuleAssignment {
                    first: 0,
                    last: 0,
                    replicas: 1,
                    procs: 8,
                },
                ModuleAssignment {
                    first: 1,
                    last: 1,
                    replicas: 1,
                    procs: 4,
                },
            ],
        };
        let d = model_deltas(&model, &mapping, 2);
        assert!(
            (d.exec()[0] - 1.5).abs() < 0.2,
            "exec factor {:?}",
            d.exec()
        );
        assert_eq!(d.exec()[1], 1.0, "unobserved stage stays unchanged");
        assert!(
            (d.ecom()[0] - 2.0).abs() < 0.4,
            "ecom factor {:?}",
            d.ecom()
        );

        // The one-call helper prices the problem at static × factor.
        let chain = ChainBuilder::new()
            .task(Task::new("a", s0))
            .edge(Edge::new(PolyUnary::new(0.0, 0.0, 0.0), e0))
            .task(Task::new("b", s1))
            .build();
        let problem = Problem::new(chain, 12, 1e9);
        let (repriced, deltas) = reprice_from_model(&problem, &mapping, &model);
        let g = deltas.exec()[0];
        for p in 1..=12 {
            let want = g * problem.chain.task(0).exec.eval(p);
            let got = repriced.chain.task(0).exec.eval(p);
            assert_eq!(got.to_bits(), want.to_bits(), "exec @ {p}");
            assert_eq!(
                repriced.chain.task(1).exec.eval(p).to_bits(),
                problem.chain.task(1).exec.eval(p).to_bits(),
                "unobserved stage repriced @ {p}"
            );
        }
    }

    #[test]
    fn recommendation_carries_the_warm_start_factors() {
        use pipemap_chain::ModuleAssignment;
        let model = model2(40e-6, 20e-6);
        let knife = spec2(1.05, 3.0);
        let creep = synth(20, &[(0.0, 0.0, 44.0, 0.0), (0.0, 0.0, 20.0, 0.0)], 100.0);
        let report = diagnose_with_margins(
            &creep,
            Some(&model),
            Some(&knife),
            &DoctorOptions::default(),
        );
        let rec = report.recommendation.as_ref().expect("margin crossed");
        let g = rec.service_factors[0].expect("stage 0 has a prediction");
        assert!((g - 1.1).abs() < 1e-9, "gamma {g}");
        // The factors collapse to re-solver deltas for the live mapping.
        let mapping = Mapping {
            modules: vec![
                ModuleAssignment {
                    first: 0,
                    last: 0,
                    replicas: 1,
                    procs: 1,
                },
                ModuleAssignment {
                    first: 1,
                    last: 1,
                    replicas: 1,
                    procs: 1,
                },
            ],
        };
        let d = rec.deltas(&mapping, 2);
        assert!((d.exec()[0] - 1.1).abs() < 1e-9, "{:?}", d.exec());
        // And they survive the JSON report for `pipemap resolve --doctor`.
        let v = report_json(&report);
        let parsed = Value::parse(&v.to_json()).unwrap();
        let factors = parsed
            .get("recommendation")
            .and_then(|r| r.get("factors"))
            .expect("factors object");
        let service = factors.get("service").and_then(Value::as_array).unwrap();
        assert_eq!(service.len(), 2);
        assert!((service[0].as_f64().unwrap() - 1.1).abs() < 1e-9);
    }

    #[test]
    fn component_stats_ci() {
        let s = ComponentStats::of(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.n, 4);
        assert!(s.sd > 0.0 && s.ci95() > 0.0 && s.ci95().is_finite());
        assert_eq!(ComponentStats::of(&[]).n, 0);
        assert!(ComponentStats::of(&[1.0]).ci95().is_infinite());
    }
}
