//! # pipemap-obs
//!
//! Unified observability for the pipemap workspace: a thread-safe
//! metrics registry (counters, gauges, log-bucketed histograms with
//! p50/p95/p99/max), lightweight span timing with a structured JSONL
//! event sink, and a Chrome `trace_event` exporter whose output loads
//! directly in Perfetto. On top of the registry sit the live layers:
//! an OpenMetrics/Prometheus text endpoint served from a plain
//! [`std::net::TcpListener`] ([`expose`]), and a [`recorder`] flight
//! recorder that samples the registry into a bounded ring for rate
//! derivation, JSONL dumps, and Chrome counter tracks.
//!
//! The design splits *ownership* from *recording*:
//!
//! * [`Registry`] owns the storage and is held by whoever reports
//!   (the CLI, a test);
//! * [`Recorder`] is a cheap cloneable handle passed into instrumented
//!   code. A disabled recorder (no registry installed) makes every
//!   operation a single `None` check, so instrumentation in solver
//!   inner loops and executor workers costs effectively nothing when
//!   observability is off.
//!
//! Instrumented code usually goes through the process-global accessor:
//!
//! ```
//! pipemap_obs::install_global(pipemap_obs::Registry::new());
//! let rec = pipemap_obs::global();
//! rec.add("solver.dp.cells", 128);
//! let _phase = pipemap_obs::span!("dp_fill");
//! ```
//!
//! Only std is used — no external dependencies.

pub mod events;
pub mod expose;
pub mod journey;
pub mod json;
pub mod metrics;
pub mod openmetrics;
pub mod recorder;
pub mod schema;
pub mod telemetry;
pub mod trace;

use std::sync::OnceLock;

pub use events::{
    events_jsonl, parse_events_jsonl, parse_events_jsonl_since, AlertEngine, BottleneckTracker,
    EventKind, EventLog, EventLogConfig, ModelPublisher, ObsEvent, Severity, SloConfig,
    EVENT_SCHEMA,
};
pub use expose::{serve, serve_observatory, serve_with_journeys, MetricsServer};
pub use journey::{
    chrome_flow_trace, journey_jsonl, parse_journey_jsonl, stitch, Hop, Journey, JourneyCollector,
    JourneyConfig, JourneyEvent, JourneyKind, JourneySink, JOURNEY_SCHEMA,
};
pub use json::Value;
pub use metrics::{
    Counter, Histogram, HistogramHandle, HistogramSummary, MetricsSnapshot, Recorder, Registry,
    Timer,
};
pub use openmetrics::{escape_label_value, render_openmetrics};
pub use recorder::{FlightRecorder, FlightSample, RecorderConfig};
pub use telemetry::{HistogramCells, TelemetryFrame};
pub use trace::{chrome_trace, chrome_trace_with_counters, events_to_jsonl, SpanGuard, TraceEvent};

/// Well-known metric names shared across crates, so producers (solvers)
/// and consumers (`/metrics`, `pipemap bench`) cannot drift apart.
pub mod names {
    /// DP cells enumerated by the optimal solvers (`dp_assignment` and
    /// `dp_mapping` both add to it). A "cell" is one `(p_total, p_last,
    /// next-size)` state of the stage recurrence.
    pub const SOLVER_CELLS_TOTAL: &str = "solver.cells_total";
    /// DP cells never computed, by one rule for both solvers: a cell
    /// counts when its row cap (the module's best response) or the suffix
    /// bound (what the processors left can sustain) falls below the
    /// incumbent, or when no consumer can read it (structural
    /// reachability). Candidates a computed cell skips, row-maximum skips
    /// included, are not cells. `cells_pruned / cells_total` is the
    /// pruning effectiveness.
    pub const SOLVER_CELLS_PRUNED: &str = "solver.cells_pruned";

    /// Tightest upward execution-cost stability margin across the mapped
    /// stages (gauge; a factor ≥ 1). Written by
    /// `pipemap_core::stability_margins`: the first drift factor at which
    /// any stage's execution-cost growth makes a different mapping
    /// strictly better. Per-stage margins are published under
    /// `solver.margin.stage<i>.exec_up` / `.ecom_in_up` by
    /// `pipemap explain`.
    pub const SOLVER_MARGIN_MIN_UP: &str = "solver.margin.min_exec_up";

    /// DP cells actually recomputed by the incremental re-solver
    /// (`pipemap_core::ResolveArtifact::resolve`); a margin short-circuit
    /// adds 0, a suffix re-solve adds only the invalidated stages' cells.
    pub const SOLVER_RESOLVE_CELLS: &str = "solver.resolve.cells";
    /// Mechanism of the last resolve (gauge): 0 = short-circuit (old
    /// mapping provably still optimal), 1 = suffix re-solve.
    pub const SOLVER_RESOLVE_MECHANISM: &str = "solver.resolve.mechanism";
    /// Invalidation frontier of the last resolve (gauge): index of the
    /// first stage whose DP cells had to be recomputed; `k` when nothing
    /// was invalidated.
    pub const SOLVER_RESOLVE_FRONTIER: &str = "solver.resolve.frontier";
    /// Wall time of incremental re-solves (histogram, seconds).
    pub const SOLVER_RESOLVE_WALL_S: &str = "solver.resolve.wall_s";
    /// 1 when the last resolve changed the mapping, 0 when the old
    /// mapping survived re-pricing (gauge).
    pub const SOLVER_RESOLVE_CHANGED: &str = "solver.resolve.changed";

    /// Channel messages sent by the executor data plane (each carries a
    /// batch of 1..=B data sets).
    pub const EXEC_BATCH_MESSAGES: &str = "exec.batch.messages";
    /// Data sets carried inside those messages.
    /// `items / messages` is the mean batch fill.
    pub const EXEC_BATCH_ITEMS: &str = "exec.batch.items";
    /// Buffer-pool takes served from a shelf (gauge, no allocation).
    pub const EXEC_POOL_HITS: &str = "exec.pool.hits";
    /// Buffer-pool takes that allocated a fresh payload (gauge).
    pub const EXEC_POOL_MISSES: &str = "exec.pool.misses";
    /// Payloads currently shelved in the buffer pool (gauge).
    pub const EXEC_POOL_SHELVED: &str = "exec.pool.shelved";
    /// Prefix of the per-boundary transport counters published by the
    /// out-of-process engine: `exec.link.<link>.{bytes,frames,items}`,
    /// where `<link>` names a stage boundary (e.g. `source->mix` or
    /// `fftcols->sink`). The OpenMetrics exposition folds the link into
    /// a `link="..."` label on `pipemap_exec_link_{bytes,frames,items}`.
    pub const EXEC_LINK_PREFIX: &str = "exec.link.";

    /// Prefix of the per-worker telemetry series aggregated by the
    /// out-of-process parent: `exec.worker.s<stage>i<inst>.p<pid>.<metric>`.
    /// The OpenMetrics exposition folds the worker identity into
    /// `stage`/`instance`/`pid` labels on `pipemap_exec_worker_<metric>`.
    pub const EXEC_WORKER_PREFIX: &str = "exec.worker.";
    /// Telemetry frames the out-of-process parent received but could not
    /// decode (not UTF-8, not JSON, a foreign schema) and so skipped
    /// (counter). Frames carry cumulative totals, so a skipped frame
    /// loses nothing the next one does not restore.
    pub const TELEMETRY_BAD_FRAMES: &str = "obs.telemetry.bad_frames";
    /// Journey events dropped by a ring because it overflowed (counter;
    /// nonzero means the sampled population is biased toward recent
    /// data sets and `doctor` warns about completeness).
    pub const JOURNEY_DROPPED: &str = "obs.journey.dropped";

    /// 1 when the doctor's measured bottleneck stage differs from the
    /// DP-predicted one (gauge; see `pipemap-doctor`).
    pub const DOCTOR_DRIFT_FLAGGED: &str = "doctor.drift.flagged";
    /// Bottleneck stage index measured from journeys (gauge).
    pub const DOCTOR_DRIFT_MEASURED_BOTTLENECK: &str = "doctor.drift.measured_bottleneck";
    /// Bottleneck stage index the model predicted (gauge).
    pub const DOCTOR_DRIFT_PREDICTED_BOTTLENECK: &str = "doctor.drift.predicted_bottleneck";
    /// Worst per-stage relative error of measured vs predicted service
    /// time (gauge).
    pub const DOCTOR_DRIFT_MAX_REL_ERR: &str = "doctor.drift.max_rel_err";
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// Install the process-global registry. Returns `false` (and drops
/// `registry`) if one is already installed.
pub fn install_global(registry: Registry) -> bool {
    GLOBAL.set(registry).is_ok()
}

/// The global registry, if one was installed.
pub fn global_registry() -> Option<&'static Registry> {
    GLOBAL.get()
}

/// A recorder feeding the global registry — or a no-op handle when no
/// registry is installed. This is the accessor instrumented code uses.
pub fn global() -> Recorder {
    match GLOBAL.get() {
        Some(r) => r.recorder(),
        None => Recorder::disabled(),
    }
}

/// Open a timed span on the global recorder; bind the result:
/// `let _span = span!("dp_fill");`. The optional second argument is the
/// category (defaults to `"pipemap"`).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::global().span($name, "pipemap")
    };
    ($name:expr, $cat:expr) => {
        $crate::global().span($name, $cat)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_starts_disabled_then_records_after_install() {
        // Process-global state: this test owns installation (the other
        // tests in this crate only use local registries).
        let before = global();
        before.add("pre.install", 1);
        assert!(!before.enabled());

        assert!(install_global(Registry::new()));
        assert!(!install_global(Registry::new()), "second install refused");

        let rec = global();
        assert!(rec.enabled());
        rec.add("post.install", 2);
        let snap = global_registry().unwrap().snapshot();
        assert_eq!(snap.counter("post.install"), Some(2));
        assert_eq!(snap.counter("pre.install"), None);

        // span! compiles and is inert until tracing is enabled.
        drop(span!("check"));
        assert!(global_registry().unwrap().events().is_empty());
        global_registry().unwrap().set_tracing(true);
        drop(span!("check", "tests"));
        let events = global_registry().unwrap().take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].cat, "tests");
    }
}
