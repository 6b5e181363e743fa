//! Structured observability events and the alert-rule engine.
//!
//! A run produces a bounded ring of [`ObsEvent`]s — SLO burn-rate
//! breaches, bottleneck changes, backpressure onsets — that a live dashboard (`pipemap top`) or a
//! post-hoc reader consumes as JSONL (`/events.jsonl` on the exposition
//! server). Three producers live here:
//!
//! * [`AlertEngine`] — latency-SLO alerting with *fast* and *slow* burn
//!   windows in the multiwindow burn-rate style: the burn rate is the
//!   fraction of observations over the latency objective divided by the
//!   error budget `1 − target`. A short window at a high threshold
//!   catches sudden regressions in seconds; a long window at a low
//!   threshold catches slow budget bleed. Both rules carry hysteresis
//!   (recovery at half the firing threshold) so a burn rate hovering at
//!   the threshold cannot flap.
//! * [`BottleneckTracker`] — windowed per-stage effective-service
//!   argmax; emits a [`EventKind::BottleneckChange`] event when the
//!   most-loaded stage moves, which is exactly the condition under which
//!   the paper's mapping stops being optimal.
//! * [`ModelPublisher`] — a cloneable slot for the latest per-stage
//!   service-window JSON, served at `/model.json`.
//!
//! Timestamps are caller-provided microseconds (wall-relative for the
//! executor, virtual time × 1e6 for the simulators) so the engine is
//! deterministic under test and agnostic to the time base.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Value;

/// Schema identifier stamped into the header line of an event JSONL dump
/// (re-exported from [`crate::schema`], the single home of all tags).
pub const EVENT_SCHEMA: &str = crate::schema::EVENTS;

/// How loud an event is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// State change worth noting (recoveries, onsets clearing).
    Info,
    /// Degradation that needs attention but not paging.
    Warning,
    /// Burning the error budget fast enough to page.
    Critical,
}

impl Severity {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "info" => Some(Severity::Info),
            "warning" => Some(Severity::Warning),
            "critical" => Some(Severity::Critical),
            _ => None,
        }
    }
}

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Fast-window latency-SLO burn rate crossed its threshold.
    SloFastBurn,
    /// Slow-window latency-SLO burn rate crossed its threshold.
    SloSlowBurn,
    /// A previously-firing SLO rule dropped below half its threshold.
    SloRecovered,
    /// The measured bottleneck stage changed.
    BottleneckChange,
    /// A stage started blocking on its downstream queue.
    BackpressureOnset,
    /// A previously backpressured stage stopped blocking.
    BackpressureEnd,
    /// Load was shed (a data set dropped instead of queued).
    Shed,
}

impl EventKind {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SloFastBurn => "slo_fast_burn",
            EventKind::SloSlowBurn => "slo_slow_burn",
            EventKind::SloRecovered => "slo_recovered",
            EventKind::BottleneckChange => "bottleneck_change",
            EventKind::BackpressureOnset => "backpressure_onset",
            EventKind::BackpressureEnd => "backpressure_end",
            EventKind::Shed => "shed",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "slo_fast_burn" => Some(EventKind::SloFastBurn),
            "slo_slow_burn" => Some(EventKind::SloSlowBurn),
            "slo_recovered" => Some(EventKind::SloRecovered),
            "bottleneck_change" => Some(EventKind::BottleneckChange),
            "backpressure_onset" => Some(EventKind::BackpressureOnset),
            "backpressure_end" => Some(EventKind::BackpressureEnd),
            "shed" => Some(EventKind::Shed),
            _ => None,
        }
    }
}

/// One structured event.
#[derive(Clone, Debug, PartialEq)]
pub struct ObsEvent {
    /// Timestamp, microseconds in the producer's time base.
    pub t_us: f64,
    /// What happened.
    pub kind: EventKind,
    /// How loud.
    pub severity: Severity,
    /// The stage the event is about, if any.
    pub stage: Option<u32>,
    /// The quantity that triggered the event (burn rate, effective
    /// service seconds — see `kind`).
    pub value: f64,
    /// Human-readable one-liner.
    pub message: String,
}

impl ObsEvent {
    /// JSON form (one JSONL line when serialised).
    pub fn to_value(&self) -> Value {
        let mut o = Value::object();
        o.set("t_us", self.t_us);
        o.set("kind", self.kind.as_str());
        o.set("severity", self.severity.as_str());
        if let Some(s) = self.stage {
            o.set("stage", s as u64);
        }
        o.set("value", self.value);
        o.set("message", self.message.as_str());
        o
    }

    /// Parse the JSON form.
    pub fn from_value(v: &Value) -> Option<Self> {
        Some(Self {
            t_us: v.get("t_us").and_then(Value::as_f64)?,
            kind: EventKind::parse(v.get("kind").and_then(Value::as_str)?)?,
            severity: Severity::parse(v.get("severity").and_then(Value::as_str)?)?,
            stage: v.get("stage").and_then(Value::as_f64).map(|s| s as u32),
            value: v.get("value").and_then(Value::as_f64)?,
            message: v.get("message").and_then(Value::as_str)?.to_string(),
        })
    }
}

/// Configuration for [`EventLog`].
#[derive(Clone, Copy, Debug)]
pub struct EventLogConfig {
    /// Ring capacity in events; the oldest are dropped (and counted)
    /// beyond it.
    pub capacity: usize,
}

impl Default for EventLogConfig {
    fn default() -> Self {
        Self { capacity: 4096 }
    }
}

struct RingState {
    events: VecDeque<(u64, ObsEvent)>,
    /// Sequence number the next emitted event receives (first event is 1,
    /// so `since=0` means "everything").
    next_seq: u64,
}

struct LogInner {
    ring: Mutex<RingState>,
    dropped: AtomicU64,
    capacity: usize,
    /// Creation instant: the shared epoch for wall-clock producers (see
    /// [`EventLog::now_us`]).
    epoch: Instant,
}

/// A bounded, shared ring of [`ObsEvent`]s. Cloning shares the ring, so
/// one handle can sit in the exposition server while producers emit from
/// worker threads.
#[derive(Clone)]
pub struct EventLog {
    inner: Arc<LogInner>,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::new(EventLogConfig::default())
    }
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("len", &self.len())
            .field("capacity", &self.inner.capacity)
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl EventLog {
    /// A new empty log.
    pub fn new(config: EventLogConfig) -> Self {
        Self {
            inner: Arc::new(LogInner {
                ring: Mutex::new(RingState {
                    events: VecDeque::new(),
                    next_seq: 1,
                }),
                dropped: AtomicU64::new(0),
                capacity: config.capacity.max(1),
                epoch: Instant::now(),
            }),
        }
    }

    /// Microseconds since this log was created — the shared time base
    /// for wall-clock producers (every clone shares the epoch).
    /// Simulators ignore this and stamp virtual time instead.
    pub fn now_us(&self) -> f64 {
        self.inner.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Append an event, evicting the oldest if the ring is full.
    ///
    /// Timestamps are clamped to be non-decreasing in arrival order:
    /// producers on different threads (or ones that batch their clock
    /// reads) can race to the ring with slightly skewed `t_us`, and the
    /// lock here already defines the authoritative order.
    pub fn emit(&self, mut event: ObsEvent) -> u64 {
        let mut ring = self.inner.ring.lock().expect("event ring poisoned");
        if let Some((_, back)) = ring.events.back() {
            if event.t_us < back.t_us {
                event.t_us = back.t_us;
            }
        }
        while ring.events.len() >= self.inner.capacity {
            ring.events.pop_front();
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.events.push_back((seq, event));
        seq
    }

    /// Copy of the current contents, oldest first.
    pub fn snapshot(&self) -> Vec<ObsEvent> {
        self.inner
            .ring
            .lock()
            .expect("event ring poisoned")
            .events
            .iter()
            .map(|(_, e)| e.clone())
            .collect()
    }

    /// Events strictly after cursor `since` (their sequence numbers
    /// included), plus the cursor a caller should pass next time. The
    /// first event ever emitted has sequence 1, so `since = 0` returns
    /// everything still in the ring. The returned cursor is always the
    /// newest sequence assigned so far (so a stale or garbage cursor
    /// self-corrects on the next poll). Evicted events are gone — a tail
    /// reader that falls more than one ring behind silently skips them
    /// (the `dropped` counter still tells the tale).
    pub fn snapshot_since(&self, since: u64) -> (Vec<(u64, ObsEvent)>, u64) {
        let ring = self.inner.ring.lock().expect("event ring poisoned");
        let events: Vec<(u64, ObsEvent)> = ring
            .events
            .iter()
            .filter(|(seq, _)| *seq > since)
            .cloned()
            .collect();
        (events, ring.next_seq - 1)
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.inner
            .ring
            .lock()
            .expect("event ring poisoned")
            .events
            .len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// The whole log as JSONL (header line + one line per event).
    pub fn to_jsonl(&self) -> String {
        self.to_jsonl_since(0)
    }

    /// Events after cursor `since` as JSONL. The header carries
    /// `next_since` — the cursor to pass on the next poll for a
    /// tail-only fetch — and each event line carries its `seq`.
    pub fn to_jsonl_since(&self, since: u64) -> String {
        let (events, next_since) = self.snapshot_since(since);
        let mut header = Value::object();
        header.set("event_schema", EVENT_SCHEMA);
        header.set("dropped", self.dropped());
        header.set("next_since", next_since);
        let mut out = header.to_json();
        out.push('\n');
        for (seq, e) in &events {
            let mut v = e.to_value();
            v.set("seq", *seq);
            out.push_str(&v.to_json());
            out.push('\n');
        }
        out
    }
}

/// Serialise events as JSONL: a header line carrying the schema and drop
/// count, then one event per line.
pub fn events_jsonl(events: &[ObsEvent], dropped: u64) -> String {
    let mut header = Value::object();
    header.set("event_schema", EVENT_SCHEMA);
    header.set("dropped", dropped);
    let mut out = header.to_json();
    out.push('\n');
    for e in events {
        out.push_str(&e.to_value().to_json());
        out.push('\n');
    }
    out
}

/// Parse an event JSONL dump (header line optional).
pub fn parse_events_jsonl(text: &str) -> Result<Vec<ObsEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = Value::parse(line).map_err(|e| format!("line {}: invalid JSON: {e:?}", i + 1))?;
        if v.get("event_schema").is_some() {
            continue;
        }
        events
            .push(ObsEvent::from_value(&v).ok_or_else(|| format!("line {}: not an event", i + 1))?);
    }
    Ok(events)
}

/// Parse an event JSONL dump *and* the paging cursor: returns the events
/// plus the `next_since` value to pass to the next
/// `/events.jsonl?since=` poll. Falls back to the largest per-line `seq`
/// (then to the given `since`) when the header predates the cursor, so
/// polling an old producer degrades to full fetches instead of erroring.
pub fn parse_events_jsonl_since(text: &str, since: u64) -> Result<(Vec<ObsEvent>, u64), String> {
    let mut events = Vec::new();
    let mut next = since;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = Value::parse(line).map_err(|e| format!("line {}: invalid JSON: {e:?}", i + 1))?;
        if v.get("event_schema").is_some() {
            if let Some(n) = v.get("next_since").and_then(Value::as_f64) {
                next = next.max(n as u64);
            }
            continue;
        }
        if let Some(s) = v.get("seq").and_then(Value::as_f64) {
            next = next.max(s as u64);
        }
        events
            .push(ObsEvent::from_value(&v).ok_or_else(|| format!("line {}: not an event", i + 1))?);
    }
    Ok((events, next))
}

/// A latency SLO with multiwindow burn-rate alerting thresholds.
#[derive(Clone, Copy, Debug)]
pub struct SloConfig {
    /// Latency objective in seconds: an observation over this burns
    /// budget.
    pub objective_s: f64,
    /// Target fraction of observations under the objective (e.g. 0.99);
    /// the error budget is `1 − target`.
    pub target: f64,
    /// Fast window length in seconds.
    pub fast_window_s: f64,
    /// Slow window length in seconds.
    pub slow_window_s: f64,
    /// Burn-rate threshold for the fast window (critical).
    pub fast_burn: f64,
    /// Burn-rate threshold for the slow window (warning).
    pub slow_burn: f64,
    /// Minimum observations in a window before its rule can fire.
    pub min_samples: usize,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            objective_s: 0.1,
            target: 0.99,
            fast_window_s: 5.0,
            slow_window_s: 60.0,
            fast_burn: 10.0,
            slow_burn: 2.0,
            min_samples: 20,
        }
    }
}

impl SloConfig {
    /// Set the latency objective and target fraction.
    pub fn with_objective(mut self, objective_s: f64, target: f64) -> Self {
        self.objective_s = objective_s;
        self.target = target.clamp(0.0, 1.0 - 1e-9);
        self
    }
}

/// Time buckets per burn-rate window. The window expires in bucket
/// granularity, so the effective window length wanders within
/// `window ± window/BURN_BUCKETS` — irrelevant for alerting, and it
/// buys O(1) memory and O(1) amortised work per observation where a
/// per-sample deque would hold `window × rate` entries (a 60 s slow
/// window on a 400k datasets/s pipeline is 24M samples).
const BURN_BUCKETS: usize = 64;

/// One burn-rate rule's sliding window and firing state.
struct BurnRule {
    bucket_us: f64,
    threshold: f64,
    kind: EventKind,
    severity: Severity,
    counts: [u64; BURN_BUCKETS],
    overs: [u64; BURN_BUCKETS],
    total: u64,
    over: u64,
    cur: Option<u64>,
    active: bool,
}

impl BurnRule {
    fn new(window_s: f64, threshold: f64, kind: EventKind, severity: Severity) -> Self {
        Self {
            bucket_us: (window_s * 1e6 / BURN_BUCKETS as f64).max(1.0),
            threshold,
            kind,
            severity,
            counts: [0; BURN_BUCKETS],
            overs: [0; BURN_BUCKETS],
            total: 0,
            over: 0,
            cur: None,
            active: false,
        }
    }

    /// Rotate the ring forward to the bucket containing `t_us`, expiring
    /// everything that falls out of the window.
    fn advance(&mut self, idx: u64) {
        let cur = match self.cur {
            None => {
                self.cur = Some(idx);
                return;
            }
            Some(c) => c,
        };
        if idx <= cur {
            return;
        }
        if idx - cur >= BURN_BUCKETS as u64 {
            self.counts = [0; BURN_BUCKETS];
            self.overs = [0; BURN_BUCKETS];
            self.total = 0;
            self.over = 0;
        } else {
            for i in (cur + 1)..=idx {
                let slot = (i % BURN_BUCKETS as u64) as usize;
                self.total -= self.counts[slot];
                self.over -= self.overs[slot];
                self.counts[slot] = 0;
                self.overs[slot] = 0;
            }
        }
        self.cur = Some(idx);
    }

    fn observe(
        &mut self,
        t_us: f64,
        is_over: bool,
        budget: f64,
        min_samples: usize,
        log: &EventLog,
    ) {
        let idx = (t_us.max(0.0) / self.bucket_us) as u64;
        self.advance(idx);
        let slot = (idx % BURN_BUCKETS as u64) as usize;
        self.counts[slot] += 1;
        self.total += 1;
        if is_over {
            self.overs[slot] += 1;
            self.over += 1;
        }
        if (self.total as usize) < min_samples {
            return;
        }
        let burn = (self.over as f64 / self.total as f64) / budget;
        if !self.active && burn >= self.threshold {
            self.active = true;
            log.emit(ObsEvent {
                t_us,
                kind: self.kind,
                severity: self.severity,
                stage: None,
                value: burn,
                message: format!(
                    "{}: burn rate {burn:.1}x over threshold {:.1}x",
                    self.kind.as_str(),
                    self.threshold
                ),
            });
        } else if self.active && burn < self.threshold * 0.5 {
            // Hysteresis: recover at half the firing threshold so a burn
            // rate hovering at the threshold cannot flap.
            self.active = false;
            log.emit(ObsEvent {
                t_us,
                kind: EventKind::SloRecovered,
                severity: Severity::Info,
                stage: None,
                value: burn,
                message: format!("{} recovered: burn rate {burn:.1}x", self.kind.as_str()),
            });
        }
    }
}

/// Latency-SLO burn-rate alerting over a stream of end-to-end latency
/// observations. Feed it every (sampled) completion; it emits into its
/// [`EventLog`].
pub struct AlertEngine {
    cfg: SloConfig,
    log: EventLog,
    fast: BurnRule,
    slow: BurnRule,
}

impl AlertEngine {
    /// A new engine emitting into `log`.
    pub fn new(cfg: SloConfig, log: EventLog) -> Self {
        Self {
            fast: BurnRule::new(
                cfg.fast_window_s,
                cfg.fast_burn,
                EventKind::SloFastBurn,
                Severity::Critical,
            ),
            slow: BurnRule::new(
                cfg.slow_window_s,
                cfg.slow_burn,
                EventKind::SloSlowBurn,
                Severity::Warning,
            ),
            cfg,
            log,
        }
    }

    /// The configured SLO.
    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }

    /// Record one end-to-end latency observation at `t_us`.
    pub fn observe_latency(&mut self, t_us: f64, latency_s: f64) {
        let is_over = latency_s > self.cfg.objective_s;
        let budget = (1.0 - self.cfg.target).max(1e-9);
        self.fast
            .observe(t_us, is_over, budget, self.cfg.min_samples, &self.log);
        self.slow
            .observe(t_us, is_over, budget, self.cfg.min_samples, &self.log);
    }
}

/// Windowed bottleneck detection: accumulate per-stage effective service
/// times (service / replicas) over `window` data sets, take the leftmost
/// argmax, and emit a [`EventKind::BottleneckChange`] event whenever it
/// moves between windows.
pub struct BottleneckTracker {
    replicas: Vec<f64>,
    window: usize,
    sums: Vec<f64>,
    n: usize,
    current: Option<usize>,
    log: EventLog,
}

impl BottleneckTracker {
    /// A new tracker for stages with the given replication degrees,
    /// re-evaluating every `window` data sets.
    pub fn new(replicas: &[usize], window: usize, log: EventLog) -> Self {
        Self {
            replicas: replicas.iter().map(|&r| r.max(1) as f64).collect(),
            window: window.max(1),
            sums: vec![0.0; replicas.len()],
            n: 0,
            current: None,
            log,
        }
    }

    /// The bottleneck of the last completed window.
    pub fn current(&self) -> Option<usize> {
        self.current
    }

    /// Record one data set's per-stage service seconds at `t_us`.
    pub fn observe(&mut self, t_us: f64, services: &[f64]) {
        for (s, d) in self.sums.iter_mut().zip(services) {
            *s += d;
        }
        self.n += 1;
        if self.n < self.window {
            return;
        }
        let mut idx = 0;
        let mut best = f64::NEG_INFINITY;
        for (i, s) in self.sums.iter().enumerate() {
            let eff = s / self.replicas[i];
            if eff > best {
                best = eff;
                idx = i;
            }
        }
        if let Some(prev) = self.current {
            if prev != idx {
                self.log.emit(ObsEvent {
                    t_us,
                    kind: EventKind::BottleneckChange,
                    severity: Severity::Warning,
                    stage: Some(idx as u32),
                    value: best / self.n as f64,
                    message: format!("bottleneck moved: stage {prev} -> stage {idx}"),
                });
            }
        }
        self.current = Some(idx);
        self.sums.fill(0.0);
        self.n = 0;
    }
}

/// A cloneable slot holding the latest per-stage service-window JSON;
/// the exposition server serves it at `/model.json`.
#[derive(Clone, Default)]
pub struct ModelPublisher {
    inner: Arc<Mutex<String>>,
}

impl ModelPublisher {
    /// A new empty publisher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the published document.
    pub fn publish(&self, json: String) {
        *self.inner.lock().expect("model slot poisoned") = json;
    }

    /// The current document; `{}` until the first publish so the route
    /// always serves well-formed JSON.
    pub fn current(&self) -> String {
        let s = self.inner.lock().expect("model slot poisoned").clone();
        if s.is_empty() {
            "{}".to_string()
        } else {
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(t_us: f64, kind: EventKind) -> ObsEvent {
        ObsEvent {
            t_us,
            kind,
            severity: Severity::Info,
            stage: Some(2),
            value: 1.5,
            message: "m".to_string(),
        }
    }

    #[test]
    fn event_round_trips_through_json() {
        let e = event(12.5, EventKind::BottleneckChange);
        let v = e.to_value();
        assert_eq!(ObsEvent::from_value(&v), Some(e.clone()));
        let text = events_jsonl(std::slice::from_ref(&e), 3);
        assert!(text.starts_with('{'));
        let parsed = parse_events_jsonl(&text).unwrap();
        assert_eq!(parsed, vec![e]);
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let log = EventLog::new(EventLogConfig { capacity: 4 });
        for i in 0..10 {
            log.emit(event(i as f64, EventKind::Shed));
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.dropped(), 6);
        let snap = log.snapshot();
        assert_eq!(snap[0].t_us, 6.0);
        assert_eq!(snap[3].t_us, 9.0);
    }

    #[test]
    fn since_cursor_pages_the_tail() {
        let log = EventLog::new(EventLogConfig { capacity: 4 });
        assert_eq!(log.emit(event(0.0, EventKind::Shed)), 1);
        assert_eq!(log.emit(event(1.0, EventKind::Shed)), 2);

        let (page, next) = log.snapshot_since(0);
        assert_eq!(page.len(), 2);
        assert_eq!(next, 2);

        // Nothing new: empty page, cursor stable.
        let (page, next) = log.snapshot_since(next);
        assert!(page.is_empty());
        assert_eq!(next, 2);

        log.emit(event(2.0, EventKind::BottleneckChange));
        let (page, next) = log.snapshot_since(next);
        assert_eq!(page.len(), 1);
        assert_eq!(page[0].0, 3);
        assert_eq!(page[0].1.kind, EventKind::BottleneckChange);
        assert_eq!(next, 3);

        // Eviction keeps sequence numbers monotone: after overflowing the
        // 4-slot ring, an old cursor sees only what survived.
        for i in 0..6 {
            log.emit(event(10.0 + i as f64, EventKind::Shed));
        }
        let (page, next) = log.snapshot_since(3);
        assert_eq!(next, 9);
        assert_eq!(
            page.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "ring holds the newest 4 of 9"
        );

        // JSONL form: header carries the cursor, lines carry seq.
        let text = log.to_jsonl_since(8);
        let mut lines = text.lines();
        let header = Value::parse(lines.next().unwrap()).unwrap();
        assert_eq!(header.get("next_since").and_then(Value::as_f64), Some(9.0));
        let line = Value::parse(lines.next().unwrap()).unwrap();
        assert_eq!(line.get("seq").and_then(Value::as_f64), Some(9.0));
        assert!(lines.next().is_none());
        // Events with seq fields still parse with the plain reader.
        assert_eq!(parse_events_jsonl(&text).unwrap().len(), 1);
    }

    #[test]
    fn kinds_and_severities_round_trip() {
        for k in [
            EventKind::SloFastBurn,
            EventKind::SloSlowBurn,
            EventKind::SloRecovered,
            EventKind::BottleneckChange,
            EventKind::BackpressureOnset,
            EventKind::BackpressureEnd,
            EventKind::Shed,
        ] {
            assert_eq!(EventKind::parse(k.as_str()), Some(k));
        }
        for s in [Severity::Info, Severity::Warning, Severity::Critical] {
            assert_eq!(Severity::parse(s.as_str()), Some(s));
        }
    }

    #[test]
    fn fast_burn_fires_and_recovers_with_hysteresis() {
        let log = EventLog::default();
        let cfg = SloConfig {
            objective_s: 0.1,
            target: 0.9,
            fast_window_s: 1.0,
            slow_window_s: 10.0,
            fast_burn: 5.0,
            slow_burn: 2.0,
            min_samples: 10,
        };
        let mut engine = AlertEngine::new(cfg, log.clone());
        // 30 observations all over the objective: burn = 1.0 / 0.1 = 10x.
        for i in 0..30 {
            engine.observe_latency(i as f64 * 1e4, 0.5);
        }
        let kinds: Vec<EventKind> = log.snapshot().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::SloFastBurn), "{kinds:?}");
        assert!(kinds.contains(&EventKind::SloSlowBurn), "{kinds:?}");
        // Exactly one firing each — no flapping while it stays hot.
        assert_eq!(
            kinds
                .iter()
                .filter(|k| **k == EventKind::SloFastBurn)
                .count(),
            1
        );
        // Healthy traffic long enough to flush the windows: recovery.
        for i in 30..300 {
            engine.observe_latency(i as f64 * 1e4, 0.01);
        }
        let kinds: Vec<EventKind> = log.snapshot().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::SloRecovered), "{kinds:?}");
    }

    #[test]
    fn burn_needs_min_samples() {
        let log = EventLog::default();
        let mut engine = AlertEngine::new(SloConfig::default(), log.clone());
        for i in 0..10 {
            engine.observe_latency(i as f64, 10.0);
        }
        assert!(log.is_empty(), "{:?}", log.snapshot());
    }

    #[test]
    fn bottleneck_change_emits_once_per_move() {
        let log = EventLog::default();
        let mut tracker = BottleneckTracker::new(&[1, 1, 1], 4, log.clone());
        // Stage 0 dominates for two windows, then stage 2 takes over.
        for i in 0..8 {
            tracker.observe(i as f64, &[3.0, 1.0, 1.0]);
        }
        assert_eq!(tracker.current(), Some(0));
        assert!(log.is_empty());
        for i in 8..16 {
            tracker.observe(i as f64, &[1.0, 1.0, 3.0]);
        }
        let snap = log.snapshot();
        assert_eq!(snap.len(), 1, "{snap:?}");
        assert_eq!(snap[0].kind, EventKind::BottleneckChange);
        assert_eq!(snap[0].stage, Some(2));
        assert!(snap[0].message.contains("stage 0 -> stage 2"));
    }

    #[test]
    fn bottleneck_respects_replicas() {
        let log = EventLog::default();
        // Stage 0 is slower per data set but 4-way replicated; stage 1
        // wins on effective service.
        let mut tracker = BottleneckTracker::new(&[4, 1], 2, log.clone());
        for i in 0..2 {
            tracker.observe(i as f64, &[2.0, 1.0]);
        }
        assert_eq!(tracker.current(), Some(1));
    }

    #[test]
    fn model_publisher_defaults_to_empty_object() {
        let p = ModelPublisher::new();
        assert_eq!(p.current(), "{}");
        p.publish("{\"a\":1}".to_string());
        assert_eq!(p.clone().current(), "{\"a\":1}");
    }
}
