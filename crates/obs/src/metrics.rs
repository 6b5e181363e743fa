//! Thread-safe metrics: counters, gauges, and log-bucketed histograms.
//!
//! A [`Registry`] owns the metric storage; cheap [`Recorder`] handles
//! are passed to instrumented code. A `Recorder` built from
//! [`Recorder::disabled`] (or from [`crate::global`] before a registry
//! is installed) is a no-op: every operation is a branch on `None` and
//! returns immediately, so instrumentation costs nothing when
//! observability is off.
//!
//! Histograms use logarithmic buckets — 8 sub-buckets per power of two
//! (3 mantissa bits), 128 octaves covering 2⁻⁶⁴..2⁶⁴ — so a recorded
//! value lands in a bucket whose width is ~12.5% of its magnitude and
//! quantile estimates carry at most ~±6% relative error. The maximum is
//! tracked exactly.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::json::Value;
use crate::trace::TraceEvent;

/// Sub-buckets per power of two (3 mantissa bits).
const SUB_BUCKETS: usize = 8;
/// Powers of two covered: exponents −64..=63.
const OCTAVES: usize = 128;
/// Total bucket count (8 KiB of counters per histogram).
pub(crate) const BUCKETS: usize = OCTAVES * SUB_BUCKETS;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Map a value to its bucket. Non-positive, subnormal, and tiny values
/// collapse into bucket 0; huge values into the last bucket.
fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= 0.0 {
        return 0;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    if exp < -(OCTAVES as i64 / 2) {
        return 0;
    }
    if exp >= OCTAVES as i64 / 2 {
        return BUCKETS - 1;
    }
    let sub = ((bits >> 49) & 0x7) as usize;
    (exp + OCTAVES as i64 / 2) as usize * SUB_BUCKETS + sub
}

/// Representative value of a bucket (its geometric middle, linearised).
fn bucket_value(idx: usize) -> f64 {
    let exp = (idx / SUB_BUCKETS) as i32 - OCTAVES as i32 / 2;
    let sub = (idx % SUB_BUCKETS) as f64;
    2f64.powi(exp) * (1.0 + (sub + 0.5) / SUB_BUCKETS as f64)
}

/// Inclusive upper bound of a bucket — the `le` label in OpenMetrics
/// exposition.
fn bucket_upper(idx: usize) -> f64 {
    let exp = (idx / SUB_BUCKETS) as i32 - OCTAVES as i32 / 2;
    let sub = (idx % SUB_BUCKETS) as f64;
    2f64.powi(exp) * (1.0 + (sub + 1.0) / SUB_BUCKETS as f64)
}

fn atomic_f64_add(cell: &AtomicU64, delta: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = f64::from_bits(cur) + delta;
        match cell.compare_exchange_weak(cur, next.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

fn atomic_f64_max(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    while v > f64::from_bits(cur) {
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

/// A log-bucketed histogram. All operations are lock-free.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram (standalone use; registries create their own
    /// via [`Recorder::observe`]).
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0f64.to_bits()),
            max: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Record one observation.
    pub fn record(&self, v: f64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum, v);
        atomic_f64_max(&self.max, v);
    }

    /// Raw per-bucket counts as `(bucket_index, count)` pairs over the
    /// non-empty buckets — the mergeable wire form of this histogram.
    /// Bucket indices are stable across processes (they derive from the
    /// f64 bit pattern alone), so two histograms of the same metric can
    /// be combined bucket-by-bucket without losing quantile accuracy.
    pub fn bucket_counts(&self) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        for (idx, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                out.push((idx as u32, c));
            }
        }
        out
    }

    /// Total observation count.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum.load(Ordering::Relaxed))
    }

    /// Exact maximum observation (0 when empty).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max.load(Ordering::Relaxed))
    }

    /// Fold another histogram into this one. Because buckets are
    /// index-aligned, merge is exact at the bucket level: the merged
    /// histogram's quantiles equal those of a single histogram fed the
    /// union of both sample streams (property-tested in
    /// `tests/histogram_merge.rs`).
    pub fn merge(&self, other: &Histogram) {
        self.merge_cells(
            &other.bucket_counts(),
            other.count(),
            other.sum(),
            other.max(),
        );
    }

    /// Fold pre-extracted `(bucket_index, count)` pairs into this
    /// histogram. Out-of-range bucket indices clamp into the last bucket
    /// rather than panicking.
    pub fn merge_cells(&self, buckets: &[(u32, u64)], count: u64, sum: f64, max: f64) {
        for &(idx, c) in buckets {
            let idx = (idx as usize).min(BUCKETS - 1);
            self.buckets[idx].fetch_add(c, Ordering::Relaxed);
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        atomic_f64_add(&self.sum, sum);
        atomic_f64_max(&self.max, max);
    }

    /// Cumulative `(upper_bound, count)` pairs over the non-empty
    /// buckets, in increasing bound order — the OpenMetrics `_bucket`
    /// series (the implicit `+Inf` bound equals the total count).
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                cum += c;
                out.push((bucket_upper(idx), cum));
            }
        }
        out
    }

    /// A consistent-enough point-in-time summary (readers racing
    /// writers may see a count off by the in-flight observations).
    pub fn summary(&self) -> HistogramSummary {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        let sum = f64::from_bits(self.sum.load(Ordering::Relaxed));
        let max = f64::from_bits(self.max.load(Ordering::Relaxed));
        let quantile = |q: f64| -> f64 {
            if total == 0 {
                return 0.0;
            }
            let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0u64;
            for (idx, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    // The exact max beats the bucket estimate at the top.
                    return bucket_value(idx).min(max);
                }
            }
            max
        };
        HistogramSummary {
            count: total,
            sum,
            mean: if total > 0 { sum / total as f64 } else { 0.0 },
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
            max,
        }
    }
}

/// Point-in-time digest of one histogram.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: f64,
    pub mean: f64,
    /// Median (≤ ~6% relative bucketing error).
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    /// Exact maximum observation.
    pub max: f64,
}

impl HistogramSummary {
    /// JSON form used in reports.
    pub fn to_json(&self) -> Value {
        let mut o = Value::object();
        o.set("count", self.count);
        o.set("sum", self.sum);
        o.set("mean", self.mean);
        o.set("p50", self.p50);
        o.set("p95", self.p95);
        o.set("p99", self.p99);
        o.set("max", self.max);
        o
    }
}

pub(crate) struct Inner {
    pub(crate) epoch: Instant,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    pub(crate) tracing: AtomicBool,
    pub(crate) events: Mutex<Vec<TraceEvent>>,
    pub(crate) lanes: Mutex<Vec<String>>,
}

/// Owner of all metric and trace storage for one observation session.
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry with tracing disabled and one lane ("main").
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                tracing: AtomicBool::new(false),
                events: Mutex::new(Vec::new()),
                lanes: Mutex::new(vec!["main".to_string()]),
            }),
        }
    }

    /// Turn span/event capture on or off (metrics always record).
    pub fn set_tracing(&self, on: bool) {
        self.inner.tracing.store(on, Ordering::Relaxed);
    }

    /// A recorder handle feeding this registry.
    pub fn recorder(&self) -> Recorder {
        Recorder {
            inner: Some(self.inner.clone()),
        }
    }

    /// A second owner of the same storage, for handing the registry to a
    /// background thread (the metrics server, the flight recorder).
    /// Snapshots taken through either handle see the same metrics.
    pub fn clone_handle(&self) -> Registry {
        Registry {
            inner: self.inner.clone(),
        }
    }

    /// Seconds since this registry was created.
    pub fn uptime_s(&self) -> f64 {
        self.inner.epoch.elapsed().as_secs_f64()
    }

    /// The histograms by name, with live access to their buckets (for
    /// exposition formats and telemetry frames, which need more than the
    /// summary).
    pub fn histogram_cells(&self) -> Vec<(String, Arc<Histogram>)> {
        lock(&self.inner.histograms)
            .iter()
            .map(|(k, h)| (k.clone(), h.clone()))
            .collect()
    }

    /// Register a named trace lane (a Chrome `tid`); returns its id.
    pub fn register_lane(&self, name: impl Into<String>) -> u64 {
        let mut lanes = lock(&self.inner.lanes);
        lanes.push(name.into());
        (lanes.len() - 1) as u64
    }

    /// Lane names indexed by lane id.
    pub fn lane_names(&self) -> Vec<String> {
        lock(&self.inner.lanes).clone()
    }

    /// Drain all captured trace events.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut lock(&self.inner.events))
    }

    /// Copy the captured trace events without draining them.
    pub fn events(&self) -> Vec<TraceEvent> {
        lock(&self.inner.events).clone()
    }

    /// Point-in-time snapshot of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = lock(&self.inner.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = lock(&self.inner.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect();
        let histograms = lock(&self.inner.histograms)
            .iter()
            .map(|(k, h)| (k.clone(), h.summary()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Sorted point-in-time view of a registry's metrics.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// JSON form: `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> Value {
        let mut counters = Value::object();
        for (k, v) in &self.counters {
            counters.set(k.clone(), *v);
        }
        let mut gauges = Value::object();
        for (k, v) in &self.gauges {
            gauges.set(k.clone(), *v);
        }
        let mut histograms = Value::object();
        for (k, h) in &self.histograms {
            histograms.set(k.clone(), h.to_json());
        }
        let mut o = Value::object();
        o.set("counters", counters);
        o.set("gauges", gauges);
        o.set("histograms", histograms);
        o
    }

    /// Value of one counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Summary of one histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }
}

/// Cheap, cloneable handle used by instrumented code. All methods are
/// no-ops when the handle is [disabled](Recorder::disabled).
#[derive(Clone)]
pub struct Recorder {
    pub(crate) inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// A handle that drops every observation (the no-op fast path).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether observations go anywhere.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Bump a counter.
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            counter_cell(inner, name).fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Set a counter to an absolute value — for mirroring a total kept
    /// elsewhere (a worker's telemetry frame, a collector's drop count),
    /// never for counting.
    pub fn counter_set(&self, name: &str, v: u64) {
        if let Some(inner) = &self.inner {
            counter_cell(inner, name).store(v, Ordering::Relaxed);
        }
    }

    /// A reusable counter handle: one map lookup now, atomic adds after.
    /// Hot loops should hold one of these (or accumulate locally and
    /// [`Recorder::add`] once).
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|inner| counter_cell(inner, name)),
        }
    }

    /// Set a gauge to an absolute value.
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            let cell = {
                let mut gauges = lock(&inner.gauges);
                gauges
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits())))
                    .clone()
            };
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Record one histogram observation.
    pub fn observe(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            histogram_cell(inner, name).record(v);
        }
    }

    /// A reusable histogram handle.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        HistogramHandle {
            cell: self.inner.as_ref().map(|inner| histogram_cell(inner, name)),
        }
    }

    /// Time a scope into histogram `name` (seconds); stops on drop.
    pub fn timer(&self, name: &str) -> Timer {
        Timer {
            target: self
                .inner
                .as_ref()
                .map(|inner| (histogram_cell(inner, name), Instant::now())),
        }
    }
}

fn counter_cell(inner: &Inner, name: &str) -> Arc<AtomicU64> {
    let mut counters = lock(&inner.counters);
    counters
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(AtomicU64::new(0)))
        .clone()
}

fn histogram_cell(inner: &Inner, name: &str) -> Arc<Histogram> {
    let mut histograms = lock(&inner.histograms);
    histograms
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(Histogram::new()))
        .clone()
}

/// Pre-resolved counter (see [`Recorder::counter`]).
#[derive(Clone)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Bump by `delta`.
    pub fn add(&self, delta: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }
}

/// Pre-resolved histogram (see [`Recorder::histogram`]).
#[derive(Clone)]
pub struct HistogramHandle {
    cell: Option<Arc<Histogram>>,
}

impl HistogramHandle {
    /// Record one observation.
    pub fn record(&self, v: f64) {
        if let Some(cell) = &self.cell {
            cell.record(v);
        }
    }

    /// Replace every cell with a remote worker's cumulative ones —
    /// `buckets` as [`Histogram::bucket_counts`] returns them, in
    /// increasing index order (a bucket left out becomes empty; pairs
    /// out of that order or range are dropped) — and its count, sum and
    /// max.
    pub fn store_cells(&self, buckets: &[(u32, u64)], count: u64, sum: f64, max: f64) {
        let Some(h) = &self.cell else {
            return;
        };
        let mut cells = buckets.iter().peekable();
        for (idx, b) in h.buckets.iter().enumerate() {
            let c = cells
                .next_if(|&&(i, _)| i as usize == idx)
                .map_or(0, |&(_, c)| c);
            b.store(c, Ordering::Relaxed);
        }
        h.count.store(count, Ordering::Relaxed);
        h.sum.store(sum.to_bits(), Ordering::Relaxed);
        h.max.store(max.to_bits(), Ordering::Relaxed);
    }
}

/// Guard from [`Recorder::timer`]; records elapsed seconds on drop.
pub struct Timer {
    target: Option<(Arc<Histogram>, Instant)>,
}

impl Timer {
    /// Stop early and record (otherwise drop does it).
    pub fn stop(self) {}
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.target.take() {
            hist.record(start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_relative_error_is_bounded() {
        for &v in &[1e-6, 0.004, 0.7, 1.0, 1.5, 3.25, 1e3, 7.7e8] {
            let est = bucket_value(bucket_index(v));
            let rel = (est - v).abs() / v;
            assert!(rel < 0.07, "value {v}: estimate {est}, rel err {rel}");
        }
    }

    #[test]
    fn bucket_edges_are_safe() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1e-300), 0);
        assert_eq!(bucket_index(1e300), BUCKETS - 1);
        assert_eq!(bucket_index(f64::INFINITY), BUCKETS - 1);
    }

    #[test]
    fn histogram_percentiles_match_known_distribution() {
        let h = Histogram::new();
        // 1..=1000 milliseconds, uniformly.
        for i in 1..=1000 {
            h.record(i as f64 * 1e-3);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert!((s.sum - 500.5).abs() < 1e-9);
        assert!((s.p50 - 0.5).abs() / 0.5 < 0.07, "p50 {}", s.p50);
        assert!((s.p95 - 0.95).abs() / 0.95 < 0.07, "p95 {}", s.p95);
        assert!((s.p99 - 0.99).abs() / 0.99 < 0.07, "p99 {}", s.p99);
        assert_eq!(s.max, 1.0);
    }

    #[test]
    fn quantiles_of_single_observation_are_that_observation() {
        let h = Histogram::new();
        h.record(0.25);
        let s = h.summary();
        for q in [s.p50, s.p95, s.p99] {
            assert!((q - 0.25).abs() / 0.25 < 0.07, "quantile {q}");
        }
        assert_eq!(s.max, 0.25);
    }

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let s = Histogram::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn concurrent_recorders_agree_on_totals() {
        let registry = Registry::new();
        let recorder = registry.recorder();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let r = recorder.clone();
                scope.spawn(move || {
                    let c = r.counter("work.items");
                    for i in 0..1000 {
                        c.add(1);
                        r.observe("work.size", (t * 1000 + i + 1) as f64);
                    }
                    r.gauge_set("work.last_thread", t as f64);
                });
            }
        });
        let snap = registry.snapshot();
        assert_eq!(snap.counter("work.items"), Some(8000));
        let h = snap.histogram("work.size").unwrap();
        assert_eq!(h.count, 8000);
        assert_eq!(h.max, 8000.0);
        assert!(snap.gauges.iter().any(|(k, _)| k == "work.last_thread"));
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.enabled());
        r.add("x", 5);
        r.observe("y", 1.0);
        r.gauge_set("z", 2.0);
        r.counter("x").add(1);
        r.histogram("y").record(1.0);
        drop(r.timer("t"));
        // Nothing to assert against — the point is none of this panics
        // and none of it allocates registry state.
    }

    #[test]
    fn snapshot_serialises_to_json() {
        let registry = Registry::new();
        let r = registry.recorder();
        r.add("solver.cells", 12);
        r.observe("solver.wall_s", 0.5);
        let text = registry.snapshot().to_json().to_json();
        let doc = crate::json::Value::parse(&text).unwrap();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("solver.cells"))
                .and_then(Value::as_f64),
            Some(12.0)
        );
        assert!(doc
            .get("histograms")
            .and_then(|h| h.get("solver.wall_s"))
            .is_some());
    }
}
