//! `pipemap top`: a live terminal dashboard over the observatory
//! surfaces (std-only ANSI, no curses).
//!
//! Two modes:
//!
//! * `--attach <addr>` scrapes a running observatory
//!   (`/snapshot.json`, `/model.json`, `/events.jsonl`) — the surface
//!   `pipemap load --serve <addr>` exposes — and redraws every
//!   `--interval`. `--once` renders a single frame with no screen
//!   control, which is what CI uses to assert the surface is live.
//! * without `--attach`, it drives a short local micro load with an
//!   in-process observatory and renders that — a zero-setup demo.
//!
//! Everything between "bytes in" and "frame out" is pure
//! ([`parse_frame`], [`TopState::observe`], [`render_frame`]), so the
//! dashboard logic is unit-testable without a terminal or a socket.

use std::collections::VecDeque;
use std::io::Write as _;
use std::time::{Duration, Instant};

use pipemap_obs::{parse_events_jsonl_since, ObsEvent, Severity, Value};

/// Sparkline ramp, lowest to highest.
const SPARK: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// How many samples each sparkline remembers.
const HISTORY: usize = 32;

/// How many recent events the feed shows.
const EVENT_FEED: usize = 8;

/// Connect attempts before an attach gives up (50 ms initial backoff,
/// doubling, capped at 500 ms — a touch over 3 s in total).
pub const ATTACH_ATTEMPTS: u32 = 10;

/// How `pipemap top` runs.
#[derive(Clone, Debug)]
pub struct TopConfig {
    /// Observatory address to scrape; `None` drives a local demo load.
    pub attach: Option<String>,
    /// Seconds between frames.
    pub interval_s: f64,
    /// Render one frame and exit (no ANSI screen control).
    pub once: bool,
    /// Local mode: how long the demo load runs.
    pub duration_s: f64,
}

impl Default for TopConfig {
    fn default() -> Self {
        Self {
            attach: None,
            interval_s: 1.0,
            once: false,
            duration_s: 5.0,
        }
    }
}

// ---------------------------------------------------------------------------
// HTTP plumbing (shared with `pipemap doctor --attach`).

/// Minimal HTTP GET against a live observatory (std-only; the server
/// answers with `Connection: close`, so read-to-end is the body).
/// Errors carry a `retryable` flag: connect refusals are worth retrying
/// (the server may not be listening yet), protocol errors are not.
fn http_get_once(addr: &str, path: &str) -> Result<String, (bool, String)> {
    use std::io::Read;
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| (true, format!("cannot connect to {addr}: {e}")))?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| (false, format!("cannot send request to {addr}: {e}")))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| (false, format!("cannot read response from {addr}: {e}")))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| (false, format!("{addr}{path}: malformed HTTP response")))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err((false, format!("{addr}{path}: {status}")));
    }
    Ok(body.to_string())
}

/// One-shot GET (no retry).
pub fn http_get(addr: &str, path: &str) -> Result<String, String> {
    http_get_once(addr, path).map_err(|(_, e)| e)
}

/// GET with bounded retry on connect failure: `attempts` tries with
/// doubling backoff from 50 ms capped at 500 ms. An endpoint started
/// moments ago (`load --serve` in the background) becomes reachable
/// within the window; a dead address fails with a clear summary instead
/// of an instant one-shot error. Non-connect errors never retry.
pub fn http_get_retry(addr: &str, path: &str, attempts: u32) -> Result<String, String> {
    let mut backoff = Duration::from_millis(50);
    let mut last = String::new();
    for attempt in 1..=attempts.max(1) {
        match http_get_once(addr, path) {
            Ok(body) => return Ok(body),
            Err((false, e)) => return Err(e),
            Err((true, e)) => last = e,
        }
        if attempt < attempts.max(1) {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_millis(500));
        }
    }
    Err(format!(
        "gave up connecting to {addr} after {} attempts (~{:.1}s): {last}",
        attempts.max(1),
        // 50+100+200+400+500×(n−5) ms for the default schedule.
        (0..attempts.max(1).saturating_sub(1))
            .map(|i| (50u64 << i.min(4)).min(500) as f64 / 1e3)
            .sum::<f64>(),
    ))
}

// ---------------------------------------------------------------------------
// Frame parsing: /snapshot.json → per-stage gauges.

/// One stage's cumulative numbers extracted from a metrics snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageGauge {
    /// Stage index.
    pub stage: usize,
    /// Stage name (from the service histogram's metric name).
    pub name: String,
    /// Data sets served (service histogram count).
    pub served: u64,
    /// Mean service seconds over the whole run.
    pub mean_s: f64,
    /// p99 service seconds over the whole run.
    pub p99_s: f64,
    /// Cumulative busy microseconds (summed across replicas).
    pub busy_us: u64,
    /// Cumulative receive-starved microseconds.
    pub recv_wait_us: u64,
    /// Cumulative send-blocked microseconds.
    pub send_wait_us: u64,
}

/// One worker *process*'s numbers, extracted from the telemetry-fed
/// `exec.worker.s{s}i{i}.p{pid}.*` series of a UDS run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkerGauge {
    /// Stage index.
    pub stage: usize,
    /// Replica (instance) index within the stage.
    pub instance: usize,
    /// Worker process id.
    pub pid: u32,
    /// Data sets served so far.
    pub items: u64,
    /// p99 service seconds over the whole run.
    pub service_p99_s: f64,
    /// CPU utilisation of the worker process, percent (from /proc).
    pub cpu_pct: f64,
    /// Resident set size, bytes (from /proc).
    pub rss_bytes: f64,
    /// Fraction of the last telemetry interval spent serving.
    pub busy_frac: f64,
    /// Fraction of the last interval spent starved for input.
    pub starved_frac: f64,
    /// Journey events the worker's ring dropped.
    pub journey_dropped: u64,
    /// Whether the parent marked this series stale (worker died or its
    /// telemetry channel broke mid-run).
    pub stale: bool,
}

/// One parsed `/snapshot.json` scrape.
#[derive(Clone, Debug, Default)]
pub struct Frame {
    /// Data sets that reached the sink.
    pub completed: u64,
    /// Cumulative end-to-end p99 latency, seconds.
    pub latency_p99_s: f64,
    /// Per-stage gauges, in stage order.
    pub stages: Vec<StageGauge>,
    /// Per-worker-process gauges (UDS runs with telemetry), ordered by
    /// (stage, instance, pid). Empty on in-process runs.
    pub workers: Vec<WorkerGauge>,
}

/// Split `exec.stage{i}.<rest>` into `(i, rest)`.
fn stage_metric(name: &str) -> Option<(usize, &str)> {
    let rest = name.strip_prefix("exec.stage")?;
    let dot = rest.find('.')?;
    let idx: usize = rest[..dot].parse().ok()?;
    Some((idx, &rest[dot + 1..]))
}

/// Split `exec.worker.s{s}i{i}.p{pid}.<rest>` into `(s, i, pid, rest)`.
fn worker_metric(name: &str) -> Option<(usize, usize, u32, &str)> {
    let rest = name.strip_prefix("exec.worker.s")?;
    let (si, rest) = rest.split_once('i')?;
    let (ii, rest) = rest.split_once('.')?;
    let rest = rest.strip_prefix('p')?;
    let (pid, rest) = rest.split_once('.')?;
    Some((si.parse().ok()?, ii.parse().ok()?, pid.parse().ok()?, rest))
}

fn stage_slot(stages: &mut Vec<StageGauge>, i: usize) -> &mut StageGauge {
    if stages.len() <= i {
        stages.resize_with(i + 1, StageGauge::default);
    }
    let g = &mut stages[i];
    g.stage = i;
    g
}

/// Extract the dashboard's numbers from a `/snapshot.json` document.
/// Unknown metrics are ignored, so the parser tolerates snapshots from
/// richer or older producers.
pub fn parse_frame(snapshot: &Value) -> Frame {
    let mut frame = Frame::default();
    let mut workers: std::collections::BTreeMap<(usize, usize, u32), WorkerGauge> =
        std::collections::BTreeMap::new();
    fn worker_slot(
        workers: &mut std::collections::BTreeMap<(usize, usize, u32), WorkerGauge>,
        s: usize,
        i: usize,
        pid: u32,
    ) -> &mut WorkerGauge {
        workers.entry((s, i, pid)).or_insert_with(|| WorkerGauge {
            stage: s,
            instance: i,
            pid,
            ..WorkerGauge::default()
        })
    }
    if let Some(counters) = snapshot.get("counters").and_then(Value::as_object) {
        for (name, v) in counters {
            let Some(v) = v.as_f64() else { continue };
            if name == "exec.datasets.completed" {
                frame.completed = v as u64;
            } else if let Some((i, rest)) = stage_metric(name) {
                let g = stage_slot(&mut frame.stages, i);
                match rest {
                    "busy_us" => g.busy_us = v as u64,
                    "recv_wait_us" => g.recv_wait_us = v as u64,
                    "send_wait_us" => g.send_wait_us = v as u64,
                    _ => {}
                }
            } else if let Some((s, i, pid, rest)) = worker_metric(name) {
                let w = worker_slot(&mut workers, s, i, pid);
                match rest {
                    "items" => w.items = v as u64,
                    "journey_dropped" => w.journey_dropped = v as u64,
                    _ => {}
                }
            }
        }
    }
    if let Some(gauges) = snapshot.get("gauges").and_then(Value::as_object) {
        for (name, v) in gauges {
            let Some(v) = v.as_f64() else { continue };
            if let Some((s, i, pid, rest)) = worker_metric(name) {
                let w = worker_slot(&mut workers, s, i, pid);
                match rest {
                    "cpu_pct" => w.cpu_pct = v,
                    "rss_bytes" => w.rss_bytes = v,
                    "busy_frac" => w.busy_frac = v,
                    "starved_frac" => w.starved_frac = v,
                    "stale" => w.stale = v != 0.0,
                    _ => {}
                }
            }
        }
    }
    if let Some(hists) = snapshot.get("histograms").and_then(Value::as_object) {
        for (name, h) in hists {
            if name == "exec.load.latency_s" {
                frame.latency_p99_s = h.get("p99").and_then(Value::as_f64).unwrap_or(0.0);
            } else if let Some((i, rest)) = stage_metric(name) {
                let Some(stage_name) = rest.strip_suffix(".service_s") else {
                    continue;
                };
                let g = stage_slot(&mut frame.stages, i);
                g.name = stage_name.to_string();
                g.served = h.get("count").and_then(Value::as_f64).unwrap_or(0.0) as u64;
                g.mean_s = h.get("mean").and_then(Value::as_f64).unwrap_or(0.0);
                g.p99_s = h.get("p99").and_then(Value::as_f64).unwrap_or(0.0);
            } else if let Some((s, i, pid, "service_s")) = worker_metric(name) {
                let w = worker_slot(&mut workers, s, i, pid);
                w.service_p99_s = h.get("p99").and_then(Value::as_f64).unwrap_or(0.0);
            }
        }
    }
    frame.workers = workers.into_values().collect();
    frame
}

// ---------------------------------------------------------------------------
// Rate derivation and history.

/// Per-frame rates derived from two consecutive scrapes.
#[derive(Clone, Debug, Default)]
pub struct Rates {
    /// Data sets per second at the sink.
    pub throughput: f64,
    /// Per-stage busy cores (Δbusy / Δwall; >1 with replicas).
    pub busy: Vec<f64>,
    /// Per-stage starved-core fraction.
    pub starved: Vec<f64>,
    /// Per-stage send-blocked-core fraction.
    pub blocked: Vec<f64>,
}

/// Rolling dashboard state: the previous scrape plus bounded history
/// rings feeding the sparklines.
#[derive(Debug, Default)]
pub struct TopState {
    prev: Option<(f64, Frame)>,
    thr_hist: VecDeque<f64>,
    busy_hist: Vec<VecDeque<f64>>,
}

impl TopState {
    /// Fold in a scrape taken at `t_s` (any monotonic clock) and return
    /// the rates since the previous one (zeros on the first call).
    pub fn observe(&mut self, t_s: f64, frame: &Frame) -> Rates {
        let mut rates = Rates {
            busy: vec![0.0; frame.stages.len()],
            starved: vec![0.0; frame.stages.len()],
            blocked: vec![0.0; frame.stages.len()],
            ..Rates::default()
        };
        if let Some((t0, prev)) = &self.prev {
            let dt = (t_s - t0).max(1e-9);
            rates.throughput = (frame.completed.saturating_sub(prev.completed)) as f64 / dt;
            for (i, g) in frame.stages.iter().enumerate() {
                let d = |now: u64, before: u64| now.saturating_sub(before) as f64 / 1e6 / dt;
                let p = prev.stages.get(i);
                rates.busy[i] = d(g.busy_us, p.map_or(0, |p| p.busy_us));
                rates.starved[i] = d(g.recv_wait_us, p.map_or(0, |p| p.recv_wait_us));
                rates.blocked[i] = d(g.send_wait_us, p.map_or(0, |p| p.send_wait_us));
            }
        }
        push_capped(&mut self.thr_hist, rates.throughput);
        while self.busy_hist.len() < frame.stages.len() {
            self.busy_hist.push(VecDeque::new());
        }
        for (i, b) in rates.busy.iter().enumerate() {
            push_capped(&mut self.busy_hist[i], *b);
        }
        self.prev = Some((t_s, frame.clone()));
        rates
    }

    /// Throughput history, oldest first.
    pub fn throughput_history(&self) -> Vec<f64> {
        self.thr_hist.iter().copied().collect()
    }

    /// Stage `i`'s busy-core history, oldest first.
    pub fn busy_history(&self, i: usize) -> Vec<f64> {
        self.busy_hist
            .get(i)
            .map(|h| h.iter().copied().collect())
            .unwrap_or_default()
    }
}

fn push_capped(ring: &mut VecDeque<f64>, v: f64) {
    if ring.len() == HISTORY {
        ring.pop_front();
    }
    ring.push_back(v);
}

/// Render values as a sparkline scaled to their own maximum.
pub fn sparkline(values: &[f64]) -> String {
    let max = values.iter().copied().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 || !v.is_finite() {
                SPARK[0]
            } else {
                let idx = (v / max * (SPARK.len() - 1) as f64).round() as usize;
                SPARK[idx.min(SPARK.len() - 1)]
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Rendering.

/// Render one full dashboard frame (no ANSI control codes — the caller
/// decides whether to clear the screen first).
pub fn render_frame(
    title: &str,
    frame: &Frame,
    rates: &Rates,
    state: &TopState,
    model: &Value,
    events: &[ObsEvent],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("pipemap top — {title}\n"));
    out.push_str(&format!(
        "throughput {:>9.1} ds/s  {}\n",
        rates.throughput,
        sparkline(&state.throughput_history())
    ));
    out.push_str(&format!(
        "completed  {:>9}       p99 latency {:.3} ms (run)\n",
        frame.completed,
        frame.latency_p99_s * 1e3
    ));
    out.push_str(
        "stage  name          served        busy  starv%  block%     p99 ms  busy cores\n",
    );
    for (i, g) in frame.stages.iter().enumerate() {
        out.push_str(&format!(
            "{:<6} {:<12}  {:>10}  {:>8.2}  {:>5.1}  {:>6.1}  {:>9.3}  {}\n",
            g.stage,
            g.name,
            g.served,
            rates.busy.get(i).copied().unwrap_or(0.0),
            rates.starved.get(i).copied().unwrap_or(0.0) * 100.0,
            rates.blocked.get(i).copied().unwrap_or(0.0) * 100.0,
            g.p99_s * 1e3,
            sparkline(&state.busy_history(i)),
        ));
    }
    out.push_str(&render_workers(&frame.workers));
    out.push_str(&render_model(model));
    out.push_str(&render_events(events));
    out
}

/// The per-worker-process section (UDS runs with telemetry). Absent
/// series render nothing, so in-process dashboards are unchanged.
fn render_workers(workers: &[WorkerGauge]) -> String {
    if workers.is_empty() {
        return String::new();
    }
    let mut out = String::from(
        "workers (per process):\n\
         stage  inst  pid          items    cpu%   rss MB   busy%  starv%   p99 ms  drop  state\n",
    );
    for w in workers {
        out.push_str(&format!(
            "{:<6} {:<5} {:<8} {:>9}  {:>6.1}  {:>7.1}  {:>6.1}  {:>6.1}  {:>7.3}  {:>4}  {}\n",
            w.stage,
            w.instance,
            w.pid,
            w.items,
            w.cpu_pct,
            w.rss_bytes / (1024.0 * 1024.0),
            w.busy_frac * 100.0,
            w.starved_frac * 100.0,
            w.service_p99_s * 1e3,
            w.journey_dropped,
            if w.stale { "STALE" } else { "live" },
        ));
    }
    out
}

/// The fitted-model section from a `/model.json` document.
fn render_model(model: &Value) -> String {
    let Some(stages) = model.get("stages").and_then(Value::as_array) else {
        return "model: (not published yet)\n".to_string();
    };
    let ingested = model
        .get("journeys_ingested")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let mut out = format!("model ({ingested:.0} journeys ingested):\n");
    for st in stages {
        let idx = st.get("stage").and_then(Value::as_f64).unwrap_or(-1.0);
        let samples = st.get("samples").and_then(Value::as_f64).unwrap_or(0.0);
        if samples == 0.0 {
            out.push_str(&format!("  stage {idx:.0}: no samples yet\n"));
            continue;
        }
        let mean = st.get("mean_s").and_then(Value::as_f64).unwrap_or(0.0);
        let drift = st.get("drift").and_then(Value::as_f64).unwrap_or(0.0);
        let conf = st.get("confidence").and_then(Value::as_f64).unwrap_or(0.0);
        out.push_str(&format!(
            "  stage {idx:.0}: fitted mean {:.6}s  drift {:>5.1}%  confidence {conf:.2}  (n={samples:.0})\n",
            mean,
            drift * 100.0,
        ));
    }
    out
}

/// The scrolling event feed (most recent last).
fn render_events(events: &[ObsEvent]) -> String {
    if events.is_empty() {
        return "events: (none)\n".to_string();
    }
    let mut out = format!(
        "events (last {} of {}):\n",
        EVENT_FEED.min(events.len()),
        events.len()
    );
    let tail = &events[events.len().saturating_sub(EVENT_FEED)..];
    for e in tail {
        let stage = match e.stage {
            Some(s) => format!("stage {s}"),
            None => "-".to_string(),
        };
        let sev = match e.severity {
            Severity::Info => "INFO",
            Severity::Warning => "WARN",
            Severity::Critical => "CRIT",
        };
        out.push_str(&format!(
            "  {:>9.3}s  {:<4}  {:<20}  {:<8}  {}\n",
            e.t_us / 1e6,
            sev,
            e.kind.as_str(),
            stage,
            e.message
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// The two run modes.

/// Scrape one frame's worth of documents from a live observatory. The
/// event feed is fetched through the `?since=` cursor, so each poll pays
/// for the new tail of the ring, not the whole history; the returned
/// cursor feeds the next scrape.
fn scrape(
    addr: &str,
    attempts: u32,
    since: u64,
) -> Result<(Frame, Value, Vec<ObsEvent>, u64), String> {
    let snap_text = http_get_retry(addr, "/snapshot.json", attempts)?;
    let snap = Value::parse(&snap_text)
        .map_err(|e| format!("{addr}/snapshot.json: invalid JSON: {e:?}"))?;
    // Model and events are best-effort: an endpoint that predates the
    // observatory (plain `--serve`) still gets the utilization table.
    let model = http_get(addr, "/model.json")
        .ok()
        .and_then(|t| Value::parse(&t).ok())
        .unwrap_or_else(Value::object);
    let (events, next_since) = http_get(addr, &format!("/events.jsonl?since={since}"))
        .ok()
        .and_then(|t| parse_events_jsonl_since(&t, since).ok())
        .unwrap_or((Vec::new(), since));
    Ok((parse_frame(&snap), model, events, next_since))
}

fn emit(text: &str, clear: bool) {
    let mut stdout = std::io::stdout().lock();
    if clear {
        let _ = stdout.write_all(b"\x1b[2J\x1b[H");
    }
    let _ = stdout.write_all(text.as_bytes());
    let _ = stdout.flush();
}

/// Attached mode: scrape-and-redraw until interrupted (or once).
fn run_attached(cfg: &TopConfig, addr: &str) -> Result<(), String> {
    let started = Instant::now();
    let mut state = TopState::default();
    // First contact retries while the endpoint comes up; after that a
    // vanished endpoint is a clean exit condition, not a hang.
    let mut attempts = ATTACH_ATTEMPTS;
    // The feed accumulates tail-only fetches across polls; the cursor
    // self-corrects if the endpoint restarts (a stale cursor returns the
    // whole ring plus a fresh cursor).
    let mut since = 0u64;
    let mut feed: Vec<ObsEvent> = Vec::new();
    loop {
        let (frame, model, fresh, next_since) = scrape(addr, attempts, since)?;
        attempts = 1;
        since = next_since;
        feed.extend(fresh);
        let keep = feed.len().saturating_sub(4 * EVENT_FEED);
        feed.drain(..keep);
        let rates = state.observe(started.elapsed().as_secs_f64(), &frame);
        let text = render_frame(
            &format!("attached to {addr}"),
            &frame,
            &rates,
            &state,
            &model,
            &feed,
        );
        emit(&text, !cfg.once);
        if cfg.once {
            return Ok(());
        }
        std::thread::sleep(Duration::from_secs_f64(cfg.interval_s.max(0.05)));
    }
}

/// Local mode: drive a short micro load with an in-process observatory
/// and render it live.
fn run_local(cfg: &TopConfig) -> Result<(), String> {
    use crate::load::{run_configured_load, LoadConfig};
    use crate::observatory::{spawn_observatory, Observatory};
    use pipemap_obs::{EventLog, JourneyCollector, JourneyConfig, ModelPublisher, SloConfig};

    // The executor records into the process-global registry; install one
    // if no other observability flag already did.
    pipemap_obs::install_global(pipemap_obs::Registry::new());
    let events = EventLog::default();
    let journeys = JourneyCollector::new(JourneyConfig::default());
    let publisher = ModelPublisher::default();
    let load_cfg = LoadConfig {
        duration_s: Some(cfg.duration_s.max(0.1)),
        size: 256,
        journeys: Some(journeys.clone()),
        events: Some(events.clone()),
        slo: Some(SloConfig::default()),
        ..LoadConfig::default()
    };
    let observatory = Observatory::new(vec![1; load_cfg.stages], publisher.clone());
    let obs_handle = spawn_observatory(journeys, observatory, Duration::from_millis(250));
    let load = std::thread::spawn(move || run_configured_load(&load_cfg));

    let started = Instant::now();
    let mut state = TopState::default();
    loop {
        let done = load.is_finished();
        let snap = match pipemap_obs::global_registry() {
            Some(r) => r.snapshot().to_json(),
            None => Value::object(),
        };
        let model = Value::parse(&publisher.current()).unwrap_or_else(|_| Value::object());
        let evs = events.snapshot();
        let frame = parse_frame(&snap);
        let rates = state.observe(started.elapsed().as_secs_f64(), &frame);
        let text = render_frame("local micro load", &frame, &rates, &state, &model, &evs);
        emit(&text, !cfg.once);
        if cfg.once || done {
            break;
        }
        std::thread::sleep(Duration::from_secs_f64(cfg.interval_s.max(0.05)));
    }
    load.join()
        .map_err(|_| "load thread panicked".to_string())?;
    obs_handle.stop();
    Ok(())
}

/// Run `pipemap top` to completion.
pub fn run_top(cfg: &TopConfig) -> Result<(), String> {
    match &cfg.attach {
        Some(addr) => run_attached(cfg, addr),
        None => run_local(cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot_doc() -> Value {
        Value::parse(
            r#"{
              "counters": {
                "exec.datasets.completed": 1000,
                "exec.stage0.busy_us": 500000,
                "exec.stage0.recv_wait_us": 100000,
                "exec.stage0.send_wait_us": 50000,
                "exec.stage1.busy_us": 900000
              },
              "gauges": {},
              "histograms": {
                "exec.load.latency_s": {"count": 1000, "sum": 2.0, "mean": 0.002, "p50": 0.001, "p95": 0.004, "p99": 0.005, "max": 0.01},
                "exec.stage0.mix0.service_s": {"count": 1000, "sum": 0.5, "mean": 0.0005, "p50": 0.0004, "p95": 0.001, "p99": 0.002, "max": 0.003},
                "exec.stage1.mix1.service_s": {"count": 990, "sum": 0.9, "mean": 0.0009, "p50": 0.0008, "p95": 0.001, "p99": 0.002, "max": 0.003}
              }
            }"#,
        )
        .expect("valid snapshot")
    }

    #[test]
    fn parses_stage_rows_from_snapshot() {
        let frame = parse_frame(&snapshot_doc());
        assert_eq!(frame.completed, 1000);
        assert_eq!(frame.stages.len(), 2);
        assert_eq!(frame.stages[0].name, "mix0");
        assert_eq!(frame.stages[0].served, 1000);
        assert_eq!(frame.stages[0].busy_us, 500_000);
        assert_eq!(frame.stages[0].recv_wait_us, 100_000);
        assert_eq!(frame.stages[1].name, "mix1");
        assert_eq!(frame.stages[1].busy_us, 900_000);
        assert!((frame.latency_p99_s - 0.005).abs() < 1e-12);
    }

    #[test]
    fn rates_derive_from_consecutive_frames() {
        let mut state = TopState::default();
        let f0 = parse_frame(&snapshot_doc());
        let r0 = state.observe(0.0, &f0);
        assert_eq!(r0.throughput, 0.0); // first frame has no baseline
                                        // One second later: +500 datasets, stage 0 busy another 0.8 s.
        let mut f1 = f0.clone();
        f1.completed += 500;
        f1.stages[0].busy_us += 800_000;
        let r1 = state.observe(1.0, &f1);
        assert!((r1.throughput - 500.0).abs() < 1e-9);
        assert!((r1.busy[0] - 0.8).abs() < 1e-9);
        assert_eq!(state.throughput_history().len(), 2);
    }

    fn worker_snapshot_doc() -> Value {
        Value::parse(
            r#"{
              "counters": {
                "exec.worker.s0i0.p4242.items": 600,
                "exec.worker.s0i1.p4243.items": 400,
                "exec.worker.s1i0.p4244.items": 1000,
                "exec.worker.s1i0.p4244.journey_dropped": 7
              },
              "gauges": {
                "exec.worker.s0i0.p4242.cpu_pct": 85.5,
                "exec.worker.s0i0.p4242.rss_bytes": 10485760,
                "exec.worker.s0i0.p4242.busy_frac": 0.72,
                "exec.worker.s0i0.p4242.starved_frac": 0.11,
                "exec.worker.s0i0.p4242.stale": 0,
                "exec.worker.s1i0.p4244.stale": 1
              },
              "histograms": {
                "exec.worker.s0i0.p4242.service_s": {"count": 600, "sum": 0.3, "mean": 0.0005, "p50": 0.0004, "p95": 0.001, "p99": 0.002, "max": 0.003}
              }
            }"#,
        )
        .expect("valid snapshot")
    }

    #[test]
    fn parses_worker_rows_from_telemetry_series() {
        let frame = parse_frame(&worker_snapshot_doc());
        assert_eq!(frame.workers.len(), 3);
        let w = &frame.workers[0];
        assert_eq!((w.stage, w.instance, w.pid), (0, 0, 4242));
        assert_eq!(w.items, 600);
        assert!((w.cpu_pct - 85.5).abs() < 1e-9);
        assert!((w.rss_bytes - 10_485_760.0).abs() < 1e-9);
        assert!((w.busy_frac - 0.72).abs() < 1e-9);
        assert!((w.service_p99_s - 0.002).abs() < 1e-12);
        assert!(!w.stale);
        let dead = &frame.workers[2];
        assert_eq!((dead.stage, dead.instance, dead.pid), (1, 0, 4244));
        assert_eq!(dead.journey_dropped, 7);
        assert!(dead.stale);
    }

    #[test]
    fn renders_worker_rows_with_stale_marking() {
        let frame = parse_frame(&worker_snapshot_doc());
        let text = render_workers(&frame.workers);
        assert!(text.contains("workers (per process):"), "{text}");
        assert!(text.contains("4242"), "{text}");
        assert!(text.contains("live"), "{text}");
        assert!(text.contains("STALE"), "{text}");
        // In-process snapshots have no worker series and add no section.
        assert_eq!(render_workers(&[]), "");
        let plain = parse_frame(&snapshot_doc());
        assert!(plain.workers.is_empty());
    }

    #[test]
    fn sparkline_scales_to_max() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 3);
        assert_eq!(chars[0], SPARK[0]);
        assert_eq!(chars[2], *SPARK.last().unwrap());
        assert_eq!(sparkline(&[0.0, 0.0]), "  "); // all-zero guard
    }

    #[test]
    fn renders_a_frame_with_model_and_events() {
        let mut state = TopState::default();
        let frame = parse_frame(&snapshot_doc());
        let rates = state.observe(0.0, &frame);
        let model = Value::parse(
            r#"{"model_schema":"pipemap-model/v1","journeys_ingested":42,
               "stages":[{"stage":0,"samples":42,"mean_s":0.0005,"drift":0.3,"confidence":0.9,
                          "static":{"c1":0.0004,"c2":0,"c3":0},"fitted":{"c1":0.0005,"c2":0,"c3":0}}]}"#,
        )
        .unwrap();
        let events = vec![pipemap_obs::ObsEvent {
            t_us: 1.5e6,
            kind: pipemap_obs::EventKind::BackpressureOnset,
            severity: Severity::Warning,
            stage: Some(0),
            value: 0.3,
            message: "stage 0 blocking downstream".to_string(),
        }];
        let text = render_frame("test", &frame, &rates, &state, &model, &events);
        assert!(text.contains("pipemap top — test"), "{text}");
        assert!(text.contains("mix0"), "{text}");
        assert!(text.contains("42 journeys ingested"), "{text}");
        assert!(text.contains("drift  30.0%"), "{text}");
        assert!(text.contains("backpressure_onset"), "{text}");
        assert!(text.contains("WARN"), "{text}");
    }

    #[test]
    fn event_cursor_parser_accumulates_the_tail() {
        // A cursor-bearing dump: header next_since plus per-line seq.
        let text = "{\"event_schema\":\"pipemap-events/v1\",\"dropped\":0,\"next_since\":7}\n\
             {\"seq\":7,\"t_us\":1000000,\"kind\":\"backpressure_onset\",\"severity\":\"warning\",\"stage\":0,\"value\":0.5,\"message\":\"m\"}\n";
        let (events, next) = parse_events_jsonl_since(text, 3).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(next, 7);
        // An empty tail keeps the cursor where it was.
        let empty = "{\"event_schema\":\"pipemap-events/v1\",\"dropped\":0,\"next_since\":7}\n";
        let (events, next) = parse_events_jsonl_since(empty, 7).unwrap();
        assert!(events.is_empty());
        assert_eq!(next, 7);
    }

    #[test]
    fn retry_gives_up_with_a_clear_error() {
        // A port from the ephemeral range with no listener: connect
        // refuses instantly, so even 3 attempts are fast.
        let err = http_get_retry("127.0.0.1:1", "/snapshot.json", 3)
            .expect_err("nothing listens on port 1");
        assert!(err.contains("gave up connecting"), "{err}");
        assert!(err.contains("after 3 attempts"), "{err}");
    }
}
