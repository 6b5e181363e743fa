//! Multi-process pipeline engine: spawn, handshake, run, aggregate.
//!
//! One worker *process* per (stage, instance), wired stage-to-stage with
//! the framed UDS links of [`crate::transport`]. The parent:
//!
//! 1. binds the sink socket, picks a shared wall-clock epoch, and spawns
//!    every worker with the serialized [`WirePlan`] in its environment;
//! 2. each worker binds its own listener first, then connects downstream
//!    with retries — so no global start ordering is needed — and the
//!    `HELLO`/`READY` handshake validates protocol version and plan hash
//!    on every link before data flows;
//! 3. the parent feeds encoded payloads into stage 0 through the
//!    executor's tx set and feeder — round-robin by sequence, coalesced
//!    and age-flushed by the same code as the in-process plane — and
//!    drains the last stage's output at the sink;
//! 4. at end of stream an `EOF` frame cascades down the chain; workers
//!    flush, dump their stats and sampled journey events to stdout, and
//!    exit. A worker that dies instead closes its sockets, which the
//!    neighbours see as hard errors — the failure cascades to the parent
//!    as a clean `Err`, never a hang.
//!
//! Journeys work across processes because every event is stamped against
//! the shared epoch with `SystemTime` (one host, one `CLOCK_REALTIME`),
//! so the merged per-process samples form a single monotone timeline
//! that `pipemap doctor` can diagnose like any in-process run.

use std::io::{self, BufRead, BufReader};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pipemap_obs::{
    DeltaTracker, JourneyCollector, JourneyConfig, JourneyEvent, JourneyKind, JourneySink,
    Recorder, Registry, Value,
};

use crate::driver::SINK_CAP;
use crate::executor::{unix_now_us, Feeder, Stamper, TxSet};
use crate::pool::BufferPool;
use crate::transport::{DataBatch, LinkStats, Transport, UdsLink, WireItem};
use crate::wire::{WireKernel, WirePlan, WireScratch, WIRE_PLAN_ENV};

/// Environment variable naming the worker executable. When unset the
/// parent re-executes itself with a hidden `__worker` argument.
pub const WORKER_BIN_ENV: &str = "PIPEMAP_WORKER_BIN";

/// Token `--probe` prints, so callers can cheaply verify that the
/// resolved worker command really is a pipemap worker (and skip
/// spawn-dependent paths when it is not, e.g. under a unit-test
/// harness).
pub const PROBE_TOKEN: &str = "pipemap-worker-ok";

/// How long connect/accept phases retry before declaring a peer dead.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// What one worker process measured about itself, reported over stdout
/// when it drains cleanly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkerStats {
    /// Stage index.
    pub stage: usize,
    /// Instance index within the stage.
    pub instance: usize,
    /// Data sets processed.
    pub items: u64,
    /// Time blocked waiting for input frames.
    pub recv_wait_s: f64,
    /// Time in the kernel (decode + compute + encode).
    pub service_s: f64,
    /// Time blocked writing output frames.
    pub send_wait_s: f64,
    /// Wall time from handshake completion to drain.
    pub lifetime_s: f64,
    /// Socket counters, inbound plus outbound, for this worker.
    pub link: LinkStats,
}

impl WorkerStats {
    /// JSON form for the stdout stats line.
    pub fn to_value(&self) -> Value {
        let mut v = Value::object();
        v.set("stage", self.stage as u64);
        v.set("instance", self.instance as u64);
        v.set("items", self.items);
        v.set("recv_wait_s", self.recv_wait_s);
        v.set("service_s", self.service_s);
        v.set("send_wait_s", self.send_wait_s);
        v.set("lifetime_s", self.lifetime_s);
        v.set("frames_in", self.link.frames_in);
        v.set("items_in", self.link.items_in);
        v.set("bytes_in", self.link.bytes_in);
        v.set("frames_out", self.link.frames_out);
        v.set("items_out", self.link.items_out);
        v.set("bytes_out", self.link.bytes_out);
        v
    }

    /// Parse the stdout stats line.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("worker stats missing '{key}'"))
        };
        Ok(WorkerStats {
            stage: num("stage")? as usize,
            instance: num("instance")? as usize,
            items: num("items")? as u64,
            recv_wait_s: num("recv_wait_s")?,
            service_s: num("service_s")?,
            send_wait_s: num("send_wait_s")?,
            lifetime_s: num("lifetime_s")?,
            link: LinkStats {
                frames_in: num("frames_in")? as u64,
                items_in: num("items_in")? as u64,
                bytes_in: num("bytes_in")? as u64,
                frames_out: num("frames_out")? as u64,
                items_out: num("items_out")? as u64,
                bytes_out: num("bytes_out")? as u64,
            },
        })
    }
}

/// Per-stage aggregate over all worker processes of that stage.
#[derive(Clone, Debug)]
pub struct StageAgg {
    /// Stage (kernel) display name.
    pub name: String,
    /// Worker processes.
    pub replicas: usize,
    /// Data-parallel threads inside each worker.
    pub threads: usize,
    /// Items processed across all instances.
    pub items: u64,
    /// Summed kernel time.
    pub service_s: f64,
    /// Summed input-wait time.
    pub recv_wait_s: f64,
    /// Summed output-wait time.
    pub send_wait_s: f64,
}

impl StageAgg {
    /// Mean per-item service time across the stage's instances.
    pub fn service_mean_s(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.service_s / self.items as f64
        }
    }
}

/// Counters for one stage boundary of the wire.
#[derive(Clone, Debug)]
pub struct LinkReport {
    /// `from->to` label (stage display names, `source`/`sink` at the
    /// ends).
    pub label: String,
    /// `DATA` frames that crossed the boundary.
    pub frames: u64,
    /// Items those frames carried.
    pub items: u64,
    /// Bytes on the wire (frame + item headers + payloads).
    pub bytes: u64,
}

impl LinkReport {
    /// Mean payload-bearing bytes per item.
    pub fn bytes_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.bytes as f64 / self.items as f64
        }
    }
}

/// Everything a cross-process run measured.
#[derive(Debug, Default)]
pub struct WireRun {
    /// Data sets fed by the source.
    pub generated: u64,
    /// Data sets that reached the sink.
    pub completed: u64,
    /// Wall seconds from first feed to drain.
    pub elapsed: f64,
    /// `completed / elapsed`.
    pub throughput: f64,
    /// Parent time blocked feeding stage 0.
    pub source_wait_s: f64,
    /// Per-stage aggregates, in order.
    pub stages: Vec<StageAgg>,
    /// Raw per-worker stats.
    pub workers: Vec<WorkerStats>,
    /// Per-boundary wire counters, source through sink.
    pub links: Vec<LinkReport>,
    /// Merged journey samples from every process, epoch-relative.
    pub events: Vec<JourneyEvent>,
}

impl WireRun {
    /// Mean per-item service seconds per stage.
    pub fn service_means(&self) -> Vec<f64> {
        self.stages.iter().map(StageAgg::service_mean_s).collect()
    }

    /// Mean wire bytes per item entering each stage (one entry per
    /// stage; the final sink boundary is excluded).
    pub fn input_bytes_per_item(&self) -> Vec<f64> {
        self.links
            .iter()
            .take(self.stages.len())
            .map(LinkReport::bytes_per_item)
            .collect()
    }

    /// Publish the per-boundary counters to the global observability
    /// registry as `exec.link.<label>.{bytes,frames,items}`.
    pub fn publish_link_counters(&self) {
        let rec = pipemap_obs::global();
        for l in &self.links {
            rec.counter(&format!("exec.link.{}.bytes", l.label))
                .add(l.bytes);
            rec.counter(&format!("exec.link.{}.frames", l.label))
                .add(l.frames);
            rec.counter(&format!("exec.link.{}.items", l.label))
                .add(l.items);
        }
    }
}

fn sock_path(dir: &Path, stage: usize, instance: usize) -> PathBuf {
    dir.join(format!("s{stage}i{instance}.sock"))
}

fn sink_path(dir: &Path) -> PathBuf {
    dir.join("sink.sock")
}

fn telemetry_path(dir: &Path) -> PathBuf {
    dir.join("telemetry.sock")
}

/// Bare metric names inside a worker's local registry. The parent
/// prefixes each with `exec.worker.s<stage>i<instance>.p<pid>.` on
/// ingest, which is the shape `pipemap_obs::openmetrics` folds into
/// labelled `{stage,instance,pid}` families on `/metrics`.
pub mod worker_metric {
    /// Data sets processed (counter).
    pub const ITEMS: &str = "items";
    /// Kernel time per item, seconds (histogram).
    pub const SERVICE_S: &str = "service_s";
    /// Blocking input waits, seconds per wait (histogram).
    pub const RECV_WAIT_S: &str = "recv_wait_s";
    /// Blocking output writes, seconds per flush (histogram).
    pub const SEND_WAIT_S: &str = "send_wait_s";
    /// CPU utilisation since the previous telemetry tick, percent of
    /// one core (gauge, from `/proc/self/stat`).
    pub const CPU_PCT: &str = "cpu_pct";
    /// Resident set size, bytes (gauge, from `/proc/self/status`).
    pub const RSS_BYTES: &str = "rss_bytes";
    /// Voluntary context switches since process start (gauge).
    pub const CTX_VOLUNTARY: &str = "ctx_voluntary";
    /// Involuntary context switches since process start (gauge).
    pub const CTX_INVOLUNTARY: &str = "ctx_involuntary";
    /// Fraction of the last telemetry interval spent in the kernel
    /// (gauge, Δservice_s / Δwall).
    pub const BUSY_FRAC: &str = "busy_frac";
    /// Fraction of the last telemetry interval spent blocked on input
    /// (gauge, Δrecv_wait_s / Δwall).
    pub const STARVED_FRAC: &str = "starved_frac";
    /// Journey ring evictions in this worker (counter; nonzero means
    /// the sampled timeline is incomplete).
    pub const JOURNEY_DROPPED: &str = "journey_dropped";
    /// 0 while the worker's telemetry stream is live, 1 once the parent
    /// saw it die without a clean EOF (gauge, parent-written).
    pub const STALE: &str = "stale";
}

/// Where the parent routes journey events arriving over telemetry.
/// Installed by the caller (e.g. `pipemap load --serve`) so live runs
/// can expose worker-sampled journeys while the run is still going;
/// `WireRun::events` stays fed by the end-of-run stdout lines either
/// way.
static TELEMETRY_JOURNEYS: Mutex<Option<JourneySink>> = Mutex::new(None);

/// Install the sink that receives live worker journey events from the
/// telemetry plane. Events were already sampled worker-side, so pass a
/// sink from a collector configured with sample = 1 — a coarser sample
/// here would silently re-filter them.
pub fn install_telemetry_journeys(sink: JourneySink) {
    *TELEMETRY_JOURNEYS.lock().unwrap() = Some(sink);
}

/// Remove the installed telemetry journey sink (flushing it), so a
/// finished serve run stops holding the ring alive.
pub fn uninstall_telemetry_journeys() {
    if let Some(mut sink) = TELEMETRY_JOURNEYS.lock().unwrap().take() {
        sink.flush();
    }
}

/// The command that runs workers: `PIPEMAP_WORKER_BIN` if set (a
/// dedicated worker binary taking worker args directly), else the
/// current executable re-run with the hidden `__worker` argument.
pub fn worker_command() -> Result<Command, String> {
    if let Ok(bin) = std::env::var(WORKER_BIN_ENV) {
        if !bin.is_empty() {
            return Ok(Command::new(bin));
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("__worker");
    Ok(cmd)
}

/// Whether the resolved worker command actually is a pipemap worker.
/// Cheap spawn of `--probe`; anything that does not print the probe
/// token (e.g. a test harness re-executed as itself) fails the probe.
pub fn worker_probe() -> bool {
    let Ok(mut cmd) = worker_command() else {
        return false;
    };
    cmd.arg("--probe")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map(|out| String::from_utf8_lossy(&out.stdout).contains(PROBE_TOKEN))
        .unwrap_or(false)
}

/// One calibration measurement: `messages` items of `payload_bytes`
/// each pushed through a real worker process over UDS, timed end to end
/// (first byte out to the drain worker's acknowledgement of everything).
#[derive(Clone, Copy, Debug)]
pub struct TransportMeasurement {
    /// Payload bytes per item.
    pub payload_bytes: usize,
    /// Items sent.
    pub messages: u64,
    /// Wall seconds from first send to the drain's count+checksum reply.
    pub elapsed_s: f64,
    /// Mean seconds per item: `elapsed_s / messages`.
    pub seconds_per_message: f64,
}

/// Measure cross-process transport cost against a spawned drain worker:
/// send `messages` items of `payload_bytes` each, coalesced `batch` per
/// frame, and time until the drain acknowledges receipt of all of them.
/// The drain's checksum confirms every byte arrived intact.
pub fn measure_transport(
    payload_bytes: usize,
    messages: u64,
    batch: usize,
) -> Result<TransportMeasurement, String> {
    let dir = std::env::temp_dir().join(format!(
        "pipemap-cal-{}-{}",
        std::process::id(),
        RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = measure_transport_in(&dir, payload_bytes, messages, batch);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn measure_transport_in(
    dir: &Path,
    payload_bytes: usize,
    messages: u64,
    batch: usize,
) -> Result<TransportMeasurement, String> {
    let batch = batch.max(1);
    let path = dir.join("cal.sock");
    let listener =
        UnixListener::bind(&path).map_err(|e| format!("bind {}: {e}", path.display()))?;
    let mut cmd = worker_command()?;
    cmd.arg("--drain")
        .arg(&path)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn drain worker: {e}"))?;
    let run = (|| -> Result<TransportMeasurement, String> {
        let pool = BufferPool::new(64);
        let stream = accept_with_deadline(&listener, Instant::now() + HANDSHAKE_TIMEOUT)
            .map_err(|e| format!("accept drain worker: {e}"))?;
        let mut link = UdsLink::new(stream, pool.clone());
        link.recv_hello(0).map_err(|e| e.to_string())?;
        link.send_ready().map_err(|e| e.to_string())?;

        // Template payload; each item copies it into a pooled lease so
        // the send path is exactly the engine's.
        let template: Vec<u8> = (0..payload_bytes).map(|i| (i % 251) as u8).collect();
        let mut expect_checksum: u64 = 0xcbf2_9ce4_8422_2325;
        let start = Instant::now();
        let mut sent: u64 = 0;
        while sent < messages {
            let n = batch.min((messages - sent) as usize);
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                let mut payload = pool.take(Vec::new);
                payload.clear();
                payload.extend_from_slice(&template);
                fnv1a(&mut expect_checksum, &sent.to_le_bytes());
                fnv1a(&mut expect_checksum, &template);
                items.push(WireItem { seq: sent, payload });
                sent += 1;
            }
            link.send_data(items).map_err(|e| format!("send: {e}"))?;
        }
        link.send_eof().map_err(|e| format!("eof: {e}"))?;

        // The drain replies one item: [count u64, checksum u64].
        let reply = link
            .recv_data()
            .map_err(|e| format!("drain reply: {e}"))?
            .ok_or_else(|| "drain worker closed without a reply".to_string())?;
        let elapsed_s = start.elapsed().as_secs_f64();
        let mut got: Option<(u64, u64)> = None;
        reply.for_each(|_, bytes| {
            if bytes.len() == 16 {
                got = Some((
                    u64::from_le_bytes(bytes[..8].try_into().expect("sized")),
                    u64::from_le_bytes(bytes[8..].try_into().expect("sized")),
                ));
            }
        });
        let (count, checksum) = got.ok_or_else(|| "malformed drain reply".to_string())?;
        if count != messages {
            return Err(format!("drain saw {count} of {messages} items"));
        }
        if checksum != expect_checksum {
            return Err("drain checksum mismatch: bytes corrupted in flight".to_string());
        }
        // Consume the worker's EOF before dropping the socket, so its
        // final flush never lands on a closed pipe (which would make an
        // otherwise clean worker exit with EPIPE).
        let _ = link.recv_data();
        Ok(TransportMeasurement {
            payload_bytes,
            messages,
            elapsed_s,
            seconds_per_message: elapsed_s / messages.max(1) as f64,
        })
    })();
    if run.is_err() {
        let _ = child.kill();
    }
    let _ = child.wait();
    run
}

fn accept_with_deadline(listener: &UnixListener, deadline: Instant) -> io::Result<UnixStream> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((s, _)) => {
                listener.set_nonblocking(false)?;
                s.set_nonblocking(false)?;
                return Ok(s);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "timed out waiting for a peer to connect",
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Message from a reader thread to the owning consumer.
enum RxMsg {
    Batch(DataBatch),
    Done(LinkStats),
    Fail(String),
}

fn spawn_reader(
    mut link: UdsLink,
    tx: crossbeam::channel::Sender<RxMsg>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || loop {
        match link.recv_data() {
            Ok(Some(b)) => {
                if tx.send(RxMsg::Batch(b)).is_err() {
                    return;
                }
            }
            Ok(None) => {
                let _ = tx.send(RxMsg::Done(link.stats()));
                return;
            }
            Err(e) => {
                let _ = tx.send(RxMsg::Fail(e.to_string()));
                return;
            }
        }
    })
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Entry point for a worker process. `args` excludes the dispatcher
/// token (`__worker` / argv[0]). Returns the process exit code.
pub fn worker_main(args: &[String]) -> i32 {
    if args.first().map(String::as_str) == Some("--probe") {
        println!("{PROBE_TOKEN}");
        return 0;
    }
    match run_worker(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("pipemap-worker: {e}");
            1
        }
    }
}

fn run_worker(args: &[String]) -> Result<(), String> {
    let mut stage: Option<usize> = None;
    let mut instance: Option<usize> = None;
    let mut dir: Option<PathBuf> = None;
    let mut drain: Option<PathBuf> = None;
    let mut echo: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {a}"))
        };
        match a.as_str() {
            "--stage" => stage = Some(val()?.parse().map_err(|e| format!("--stage: {e}"))?),
            "--instance" => {
                instance = Some(val()?.parse().map_err(|e| format!("--instance: {e}"))?)
            }
            "--dir" => dir = Some(PathBuf::from(val()?)),
            "--drain" => drain = Some(PathBuf::from(val()?)),
            "--echo" => echo = Some(PathBuf::from(val()?)),
            other => return Err(format!("unknown worker argument '{other}'")),
        }
    }
    if let Some(path) = drain {
        return run_drain_worker(&path);
    }
    if let Some(path) = echo {
        return run_echo_worker(&path);
    }
    let (Some(si), Some(ii), Some(dir)) = (stage, instance, dir) else {
        return Err("worker needs --stage, --instance and --dir".to_string());
    };
    let plan_str = std::env::var(WIRE_PLAN_ENV)
        .map_err(|_| format!("{WIRE_PLAN_ENV} not set in worker environment"))?;
    let plan = WirePlan::parse(&plan_str)?;
    run_pipeline_worker(&plan, si, ii, &dir)
}

/// FNV-1a over a byte stream, used by the drain worker's checksum so
/// A/B benchmark variants can prove they delivered identical bytes.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// A sink-only worker: counts and checksums everything it receives,
/// then reports `[count, checksum]` in a single item and exits. Used by
/// calibration and the transport A/B bench, where only the send path is
/// under test.
fn run_drain_worker(path: &Path) -> Result<(), String> {
    let pool = BufferPool::new(64);
    let mut link =
        UdsLink::connect_retry(path, pool.clone(), HANDSHAKE_TIMEOUT).map_err(|e| e.to_string())?;
    link.send_hello(0, 0, 0).map_err(|e| e.to_string())?;
    link.recv_ready().map_err(|e| e.to_string())?;
    let mut count: u64 = 0;
    let mut checksum: u64 = 0xcbf2_9ce4_8422_2325;
    while let Some(b) = link.recv_data().map_err(|e| e.to_string())? {
        b.for_each(|seq, bytes| {
            count += 1;
            fnv1a(&mut checksum, &seq.to_le_bytes());
            fnv1a(&mut checksum, bytes);
        });
    }
    let mut reply = pool.take(Vec::new);
    reply.clear();
    reply.extend_from_slice(&count.to_le_bytes());
    reply.extend_from_slice(&checksum.to_le_bytes());
    link.send_data(vec![WireItem {
        seq: 0,
        payload: reply,
    }])
    .map_err(|e| e.to_string())?;
    link.send_eof().map_err(|e| e.to_string())
}

/// A loopback worker: echoes every batch back to the sender. Used by
/// calibration to measure a full round trip per frame.
fn run_echo_worker(path: &Path) -> Result<(), String> {
    let pool = BufferPool::new(64);
    let mut link =
        UdsLink::connect_retry(path, pool.clone(), HANDSHAKE_TIMEOUT).map_err(|e| e.to_string())?;
    link.send_hello(0, 0, 0).map_err(|e| e.to_string())?;
    link.recv_ready().map_err(|e| e.to_string())?;
    while let Some(b) = link.recv_data().map_err(|e| e.to_string())? {
        let mut back = Vec::new();
        b.for_each(|seq, bytes| {
            let mut payload = pool.take(Vec::new);
            payload.clear();
            payload.extend_from_slice(bytes);
            back.push(WireItem { seq, payload });
        });
        link.send_data(back).map_err(|e| e.to_string())?;
    }
    link.send_eof().map_err(|e| e.to_string())
}

/// Pre-resolved handles for the worker loop's hot-path observations.
struct WorkerMeters {
    items: pipemap_obs::Counter,
    service: pipemap_obs::HistogramHandle,
    recv_wait: pipemap_obs::HistogramHandle,
    send_wait: pipemap_obs::HistogramHandle,
}

impl WorkerMeters {
    fn new(rec: &Recorder) -> Self {
        Self {
            items: rec.counter(worker_metric::ITEMS),
            service: rec.histogram(worker_metric::SERVICE_S),
            recv_wait: rec.histogram(worker_metric::RECV_WAIT_S),
            send_wait: rec.histogram(worker_metric::SEND_WAIT_S),
        }
    }
}

/// The worker side of the telemetry plane: a process-local registry the
/// pipeline loop records into, plus a background thread that ships
/// delta snapshots (metrics, resource stats, drained journey events)
/// to the parent every `telemetry_us` over the dedicated telemetry
/// socket. Telemetry is strictly best-effort: if the connection cannot
/// be made the worker runs on without it, and a worker that dies takes
/// its stream down with it — the parent, not the worker, handles that.
struct WorkerTelemetry {
    rec: Recorder,
    stop: Arc<AtomicBool>,
    /// Journey events drained from the ring by the telemetry thread,
    /// kept so the end-of-run stdout `J ` lines stay complete.
    kept: Arc<Mutex<Vec<JourneyEvent>>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl WorkerTelemetry {
    fn start(
        plan: &WirePlan,
        si: usize,
        ii: usize,
        dir: &Path,
        hash: u64,
        collector: Option<JourneyCollector>,
    ) -> Self {
        let registry = Registry::new();
        let rec = registry.recorder();
        let stop = Arc::new(AtomicBool::new(false));
        let kept = Arc::new(Mutex::new(Vec::new()));
        let period = Duration::from_micros(plan.telemetry_us.max(1));
        // Handshake and first snapshot happen synchronously, before the
        // caller joins the data plane: the parent learns this worker's
        // pid up front, so even a crash moments into the stream is
        // attributed to the right series. A failure here just disables
        // telemetry for the run — the data plane never depends on it.
        let handle = match TelemetrySession::open(
            &telemetry_path(dir),
            hash,
            si,
            ii,
            registry,
            collector,
            &kept,
        ) {
            Ok(mut session) => {
                let thread_stop = stop.clone();
                let thread_kept = kept.clone();
                Some(std::thread::spawn(move || {
                    session.run(period, &thread_stop, &thread_kept);
                }))
            }
            Err(e) => {
                eprintln!("stage {si}.{ii} telemetry: {e} (continuing without)");
                None
            }
        };
        Self {
            rec,
            stop,
            kept,
            handle,
        }
    }

    /// Signal the thread, wait for its final snapshot + EOF, and return
    /// every journey event it drained from the ring along the way.
    fn finish(mut self) -> Vec<JourneyEvent> {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        std::mem::take(&mut self.kept.lock().unwrap())
    }
}

/// One worker's live telemetry connection and the delta-collection
/// state behind it.
struct TelemetrySession {
    link: UdsLink,
    registry: Registry,
    rec: Recorder,
    tracker: DeltaTracker,
    cpu: pipemap_profile::CpuTracker,
    collector: Option<JourneyCollector>,
    dropped_seen: u64,
    last_tick: Instant,
    pid: u32,
}

impl TelemetrySession {
    fn open(
        path: &Path,
        hash: u64,
        si: usize,
        ii: usize,
        registry: Registry,
        collector: Option<JourneyCollector>,
        kept: &Mutex<Vec<JourneyEvent>>,
    ) -> io::Result<Self> {
        let pool = BufferPool::new(8);
        let mut link = UdsLink::connect_retry(path, pool, HANDSHAKE_TIMEOUT)?;
        link.send_hello(hash, si as u32, ii as u32)?;
        link.recv_ready()?;
        let mut session = Self {
            link,
            rec: registry.recorder(),
            registry,
            tracker: DeltaTracker::new(),
            cpu: pipemap_profile::CpuTracker::new(),
            collector,
            dropped_seen: 0,
            last_tick: Instant::now(),
            pid: std::process::id(),
        };
        session.tick(kept)?;
        Ok(session)
    }

    /// One telemetry beat: refresh resource gauges, collect the delta
    /// since the previous tick (plus drained journey events), ship it.
    fn tick(&mut self, kept: &Mutex<Vec<JourneyEvent>>) -> io::Result<()> {
        if let Some(s) = pipemap_profile::sample_self() {
            self.rec
                .gauge_set(worker_metric::CPU_PCT, self.cpu.cpu_pct(&s));
            self.rec
                .gauge_set(worker_metric::RSS_BYTES, s.rss_bytes as f64);
            self.rec
                .gauge_set(worker_metric::CTX_VOLUNTARY, s.vol_ctx as f64);
            self.rec
                .gauge_set(worker_metric::CTX_INVOLUNTARY, s.invol_ctx as f64);
        }
        if let Some(c) = &self.collector {
            let d = c.dropped();
            self.rec
                .add(worker_metric::JOURNEY_DROPPED, d - self.dropped_seen);
            self.dropped_seen = d;
        }

        let mut snap = self.tracker.collect(&self.registry, self.pid);

        // Busy/starved fractions of the interval just ended, derived
        // from the very deltas being shipped so they can never disagree
        // with the aggregated histograms.
        let dt = self.last_tick.elapsed().as_secs_f64();
        self.last_tick = Instant::now();
        if dt > 1e-6 {
            let delta_sum = |name: &str| {
                snap.histograms
                    .iter()
                    .find(|h| h.name == name)
                    .map_or(0.0, |h| h.sum)
            };
            let busy = delta_sum(worker_metric::SERVICE_S) / dt;
            let starved = delta_sum(worker_metric::RECV_WAIT_S) / dt;
            self.rec.gauge_set(worker_metric::BUSY_FRAC, busy);
            self.rec.gauge_set(worker_metric::STARVED_FRAC, starved);
            snap.gauges
                .push((worker_metric::BUSY_FRAC.to_string(), busy));
            snap.gauges
                .push((worker_metric::STARVED_FRAC.to_string(), starved));
        }

        if let Some(c) = &self.collector {
            let drained = c.drain();
            if !drained.is_empty() {
                kept.lock().unwrap().extend_from_slice(&drained);
                snap.journeys = drained;
            }
        }

        self.link.send_telemetry(snap.to_json().as_bytes())
    }

    fn run(&mut self, period: Duration, stop: &AtomicBool, kept: &Mutex<Vec<JourneyEvent>>) {
        loop {
            // Sleep the period in small slices so a stop request still
            // gets its final snapshot promptly.
            let deadline = Instant::now() + period;
            while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
                let left = deadline.saturating_duration_since(Instant::now());
                std::thread::sleep(left.min(Duration::from_millis(20)));
            }
            let stopping = stop.load(Ordering::Relaxed);
            if self.tick(kept).is_err() {
                // Parent side gone; nothing left to ship to.
                return;
            }
            if stopping {
                let _ = self.link.send_eof();
                return;
            }
        }
    }
}

fn run_pipeline_worker(plan: &WirePlan, si: usize, ii: usize, dir: &Path) -> Result<(), String> {
    let nstages = plan.stages.len();
    if si >= nstages {
        return Err(format!("stage {si} out of range ({nstages} stages)"));
    }
    let stage_plan = plan.stages[si];
    let hash = plan.hash();
    let pool = BufferPool::new(256);

    // Bind our listener before connecting downstream, so every worker
    // can start in any order and retry its way to a full mesh.
    let listener = UnixListener::bind(sock_path(dir, si, ii))
        .map_err(|e| format!("bind stage {si}.{ii} listener: {e}"))?;

    let collector = (plan.journey_sample > 0).then(|| {
        JourneyCollector::new(
            JourneyConfig::default()
                .with_sample(plan.journey_sample)
                .with_capacity(1 << 16),
        )
    });

    // Telemetry is per-process: a local registry the loop below records
    // into, shipped to the parent as deltas by a background thread.
    // Started before the data-plane handshake so the parent learns this
    // worker's pid from the first snapshot even if the worker dies
    // moments into the stream.
    let telemetry = (plan.telemetry_us > 0)
        .then(|| WorkerTelemetry::start(plan, si, ii, dir, hash, collector.clone()));
    let meters = telemetry.as_ref().map(|t| WorkerMeters::new(&t.rec));
    let mut send_wait_logged = 0.0_f64;

    // Downstream links: one per next-stage instance (or the sink).
    let down_paths: Vec<PathBuf> = if si + 1 < nstages {
        (0..plan.stages[si + 1].replicas)
            .map(|j| sock_path(dir, si + 1, j))
            .collect()
    } else {
        vec![sink_path(dir)]
    };
    let mut down = Vec::with_capacity(down_paths.len());
    for p in &down_paths {
        let mut l = UdsLink::connect_retry(p, pool.clone(), HANDSHAKE_TIMEOUT)
            .map_err(|e| format!("stage {si}.{ii} downstream: {e}"))?;
        l.send_hello(hash, si as u32, ii as u32)
            .map_err(|e| e.to_string())?;
        l.recv_ready().map_err(|e| e.to_string())?;
        down.push(l);
    }

    // Upstream connections: the parent feeder for stage 0, otherwise
    // every instance of the previous stage.
    let n_up = if si == 0 {
        1
    } else {
        plan.stages[si - 1].replicas
    };
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let mut ups = Vec::with_capacity(n_up);
    for _ in 0..n_up {
        let stream = accept_with_deadline(&listener, deadline)
            .map_err(|e| format!("stage {si}.{ii} accept: {e}"))?;
        let mut l = UdsLink::new(stream, pool.clone());
        l.recv_hello(hash).map_err(|e| e.to_string())?;
        l.send_ready().map_err(|e| e.to_string())?;
        ups.push(l);
    }

    let (tx, rx) = crossbeam::channel::bounded::<RxMsg>(plan.queue_depth.max(1));
    let readers: Vec<_> = ups
        .into_iter()
        .map(|l| spawn_reader(l, tx.clone()))
        .collect();
    drop(tx);

    // Distinct high bits per process so minted batch ids never collide
    // across the merged timeline.
    let salt = ((si as u64 + 1) << 48) | ((ii as u64) << 40);
    let stamper = collector
        .as_ref()
        .map(|c| Stamper::shared(c.sink(), plan.epoch_unix_us, salt));
    // The last stage's frames land at the sink, not a stage queue:
    // suppress the Enqueue record there so stitched journeys have
    // exactly `nstages` hops.
    let enqueue_dest = (si + 1 < plan.stages.len()).then_some(si as u32 + 1);
    let mut txset = TxSet::new(down, plan.batch, plan.flush_us, stamper, enqueue_dest);
    let (stage, inst) = (si as u32, ii as u32);
    let mut scratch = WireScratch::default();
    let started = Instant::now();
    let mut stats = WorkerStats {
        stage: si,
        instance: ii,
        ..WorkerStats::default()
    };
    let mut upstream_in = LinkStats::default();
    let crash_after = match stage_plan.kernel {
        WireKernel::CrashAfter { n } => Some(n),
        _ => None,
    };
    let err = |e: io::Error| format!("stage {si}.{ii}: {e}");

    loop {
        let msg = match rx.try_recv() {
            Some(m) => m,
            None => {
                // About to block: everything buffered goes out now, so
                // stragglers never wait on future input.
                txset.flush_all().map_err(err)?;
                let t0 = Instant::now();
                match rx.recv() {
                    Ok(m) => {
                        let waited = t0.elapsed().as_secs_f64();
                        stats.recv_wait_s += waited;
                        if let Some(mt) = &meters {
                            mt.recv_wait.record(waited);
                        }
                        m
                    }
                    Err(_) => break,
                }
            }
        };
        match msg {
            RxMsg::Batch(b) => {
                let mut failure: Option<String> = None;
                b.for_each(|seq, bytes| {
                    if failure.is_some() {
                        return;
                    }
                    if let Some(j) = txset.stamper() {
                        let kinds = [JourneyKind::Dequeue, JourneyKind::ServiceStart];
                        j.stamp(&kinds, seq as usize, stage, inst);
                    }
                    let mut out = pool.take(Vec::new);
                    let t0 = Instant::now();
                    if let Err(e) =
                        stage_plan
                            .kernel
                            .apply(bytes, &mut out, &mut scratch, stage_plan.threads)
                    {
                        failure = Some(format!("stage {si}.{ii} kernel: {e}"));
                        return;
                    }
                    let t_done = Instant::now();
                    let served = t_done.duration_since(t0).as_secs_f64();
                    stats.service_s += served;
                    stats.items += 1;
                    if let Some(mt) = &meters {
                        mt.service.record(served);
                        mt.items.add(1);
                    }
                    if let Some(j) = txset.stamper() {
                        let kinds = [JourneyKind::ServiceEnd, JourneyKind::Send];
                        j.stamp(&kinds, seq as usize, stage, inst);
                    }
                    if let Err(e) = txset.push(WireItem { seq, payload: out }, t_done) {
                        failure = Some(format!("stage {si}.{ii} send: {e}"));
                        return;
                    }
                    if crash_after.is_some_and(|n| stats.items >= n) {
                        // Fault injection: die abruptly, no EOF, no
                        // flush — neighbours must see a hard error.
                        std::process::exit(3);
                    }
                });
                if let Some(e) = failure {
                    return Err(e);
                }
                txset.flush_aged().map_err(err)?;
                if let Some(mt) = &meters {
                    let waited = txset.send_wait() - send_wait_logged;
                    if waited > 0.0 {
                        mt.send_wait.record(waited);
                        send_wait_logged = txset.send_wait();
                    }
                }
            }
            RxMsg::Done(s) => upstream_in.merge(&s),
            RxMsg::Fail(e) => return Err(format!("stage {si}.{ii} upstream: {e}")),
        }
    }
    for r in readers {
        let _ = r.join();
    }
    txset.flush_all().map_err(err)?;
    txset.eof_all().map_err(err)?;

    stats.send_wait_s = txset.send_wait();
    stats.lifetime_s = started.elapsed().as_secs_f64();
    stats.link = upstream_in;
    stats.link.merge(&txset.link_stats());
    if let Some(mt) = &meters {
        let waited = txset.send_wait() - send_wait_logged;
        if waited > 0.0 {
            mt.send_wait.record(waited);
        }
    }
    println!("S {}", stats.to_value().to_json());
    // Flush the journey sink into the ring *before* stopping telemetry,
    // so the final delta snapshot carries the tail of the timeline.
    drop(txset);
    let drained_early = telemetry.map(WorkerTelemetry::finish).unwrap_or_default();
    if let Some(c) = collector {
        // Telemetry drains the ring as it ships; stdout still reports
        // the complete set (drained + whatever is left in the ring).
        for ev in drained_early.iter().copied().chain(c.snapshot()) {
            println!("J {}", ev.to_value().to_json());
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------------

/// Parent half of the telemetry plane: accept one connection per
/// worker on the run's telemetry socket and fold every delta snapshot
/// into the *global* registry under per-process prefixes, so `/metrics`,
/// the flight recorder and `pipemap top` see worker internals without
/// any of them changing.
struct TelemetryIngest {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TelemetryIngest {
    fn start(listener: UnixListener, hash: u64, pool: BufferPool) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
            if listener.set_nonblocking(true).is_err() {
                return;
            }
            while !accept_stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((s, _)) => {
                        let _ = s.set_nonblocking(false);
                        let link = UdsLink::new(s, pool.clone());
                        handlers.push(std::thread::spawn(move || telemetry_handler(link, hash)));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
            // Workers are dead (reaped or killed) by the time the run
            // asks us to stop, so every handler sees EOF or a closed
            // socket and the joins cannot hang.
            for h in handlers {
                let _ = h.join();
            }
        });
        Self {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for TelemetryIngest {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Drain one worker's telemetry stream into the global registry. A
/// clean `EOF` ends the series as-is; a dead socket instead pins the
/// worker's `stale` gauge to 1 — its last-known series stay visible
/// and clearly marked rather than silently frozen.
fn telemetry_handler(mut link: UdsLink, hash: u64) {
    let Ok((si, ii)) = link.recv_hello(hash) else {
        return;
    };
    if link.send_ready().is_err() {
        return;
    }
    let rec = pipemap_obs::global();
    let mut prefix: Option<String> = None;
    loop {
        match link.recv_telemetry() {
            Ok(Some(buf)) => {
                let Ok(text) = std::str::from_utf8(&buf) else {
                    continue;
                };
                let Ok(snap) = pipemap_obs::DeltaSnapshot::parse(text) else {
                    continue;
                };
                let p = prefix.get_or_insert_with(|| {
                    format!(
                        "{}s{si}i{ii}.p{}.",
                        pipemap_obs::names::EXEC_WORKER_PREFIX,
                        snap.pid
                    )
                });
                pipemap_obs::apply_delta(&rec, p, &snap);
                rec.gauge_set(&format!("{p}{}", worker_metric::STALE), 0.0);
                if !snap.journeys.is_empty() {
                    if let Some(sink) = TELEMETRY_JOURNEYS.lock().unwrap().as_mut() {
                        for ev in &snap.journeys {
                            sink.record_at(
                                ev.t_us,
                                ev.kind,
                                ev.seq as usize,
                                ev.stage,
                                ev.instance,
                                ev.batch,
                            );
                        }
                        sink.flush();
                    }
                }
            }
            Ok(None) => return,
            Err(_) => {
                if let Some(p) = &prefix {
                    rec.gauge_set(&format!("{p}{}", worker_metric::STALE), 1.0);
                }
                return;
            }
        }
    }
}

fn kill_children(children: &mut [(usize, usize, Child)]) {
    for (_, _, c) in children.iter_mut() {
        let _ = c.kill();
    }
    for (_, _, c) in children.iter_mut() {
        let _ = c.wait();
    }
}

/// Run a wire plan across worker processes.
///
/// `feed` runs on its own thread and pushes every input through the
/// feeder, taking payload buffers from the pool it is handed; `on_item`
/// is called on the caller's thread for each `(seq, payload)` arriving
/// at the sink, in arrival order.
pub(crate) fn run_wire(
    plan: &WirePlan,
    feed: impl FnOnce(&mut Feeder<UdsLink>, &BufferPool) -> Result<(), String> + Send,
    mut on_item: impl FnMut(u64, &[u8]),
) -> Result<WireRun, String> {
    if plan.stages.is_empty() {
        return Err("wire plan has no stages".to_string());
    }
    let mut plan = plan.clone();
    if plan.epoch_unix_us == 0 {
        plan.epoch_unix_us = unix_now_us();
    }
    let plan = plan;
    let plan_str = plan.serialize();
    let hash = plan.hash();

    let dir = std::env::temp_dir().join(format!(
        "pipemap-wire-{}-{}",
        std::process::id(),
        RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = run_wire_in(&plan, &plan_str, hash, &dir, feed, &mut on_item);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_wire_in(
    plan: &WirePlan,
    plan_str: &str,
    hash: u64,
    dir: &Path,
    feed: impl FnOnce(&mut Feeder<UdsLink>, &BufferPool) -> Result<(), String> + Send,
    on_item: &mut impl FnMut(u64, &[u8]),
) -> Result<WireRun, String> {
    let nstages = plan.stages.len();
    let pool = BufferPool::new(256);

    // The sink listener must exist before any last-stage worker tries
    // to connect.
    let sink_listener =
        UnixListener::bind(sink_path(dir)).map_err(|e| format!("bind sink listener: {e}"))?;

    // Likewise the telemetry listener, when the plan turns telemetry
    // on: every worker's telemetry thread connects to it right after
    // startup. The ingest joins on drop, which is after every child is
    // reaped or killed — so its handlers always see their sockets
    // close.
    let _telemetry_ingest = if plan.telemetry_us > 0 {
        let listener = UnixListener::bind(telemetry_path(dir))
            .map_err(|e| format!("bind telemetry listener: {e}"))?;
        Some(TelemetryIngest::start(listener, hash, pool.clone()))
    } else {
        None
    };

    // Spawn every worker.
    let mut children: Vec<(usize, usize, Child)> = Vec::new();
    for (si, sp) in plan.stages.iter().enumerate() {
        for ii in 0..sp.replicas {
            let mut cmd = match worker_command() {
                Ok(c) => c,
                Err(e) => {
                    kill_children(&mut children);
                    return Err(e);
                }
            };
            cmd.arg("--stage")
                .arg(si.to_string())
                .arg("--instance")
                .arg(ii.to_string())
                .arg("--dir")
                .arg(dir)
                .env(WIRE_PLAN_ENV, plan_str)
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            match cmd.spawn() {
                Ok(c) => children.push((si, ii, c)),
                Err(e) => {
                    kill_children(&mut children);
                    return Err(format!("spawn stage {si}.{ii}: {e}"));
                }
            }
        }
    }

    // Accept the last stage first, then connect to stage 0. Readiness
    // propagates backwards: a worker sends READY upstream only after
    // its own downstream links are READY, so the sink side must come up
    // before anyone upstream can finish — connecting to stage 0 first
    // would deadlock the whole mesh.
    let setup = (|| -> io::Result<(Vec<UdsLink>, Vec<UdsLink>)> {
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        let mut sinks = Vec::with_capacity(plan.stages[nstages - 1].replicas);
        for _ in 0..plan.stages[nstages - 1].replicas {
            let stream = accept_with_deadline(&sink_listener, deadline)?;
            let mut l = UdsLink::new(stream, pool.clone());
            l.recv_hello(hash)?;
            l.send_ready()?;
            sinks.push(l);
        }
        let mut sources = Vec::with_capacity(plan.stages[0].replicas);
        for j in 0..plan.stages[0].replicas {
            let mut l =
                UdsLink::connect_retry(&sock_path(dir, 0, j), pool.clone(), HANDSHAKE_TIMEOUT)?;
            l.send_hello(hash, u32::MAX, j as u32)?;
            l.recv_ready()?;
            sources.push(l);
        }
        Ok((sources, sinks))
    })();
    let (sources, sinks) = match setup {
        Ok(v) => v,
        Err(e) => {
            kill_children(&mut children);
            return Err(format!("handshake: {e}"));
        }
    };

    let collector = (plan.journey_sample > 0).then(|| {
        JourneyCollector::new(
            JourneyConfig::default()
                .with_sample(plan.journey_sample)
                .with_capacity(1 << 16),
        )
    });
    let stamper = |salt: u64| {
        collector
            .as_ref()
            .map(|c| Stamper::shared(c.sink(), plan.epoch_unix_us, salt))
    };
    // Stampers are created up front so the scoped threads own them
    // outright instead of sharing the factory closure.
    let feeder_journey = stamper(1 << 32);
    let mut sink_journey = stamper(2 << 32);

    let started = Instant::now();
    let sink_stage = nstages as u32;
    let mut completed: u64 = 0;
    let mut sink_in = LinkStats::default();

    let drained: Result<(u64, f64), String> = std::thread::scope(|s| {
        let (tx, rx) = crossbeam::channel::bounded::<RxMsg>(SINK_CAP);
        let reader_handles: Vec<_> = sinks
            .into_iter()
            .map(|l| spawn_reader(l, tx.clone()))
            .collect();
        drop(tx);

        let feeder_handle = s.spawn(|| {
            let tx = TxSet::new(sources, plan.batch, plan.flush_us, feeder_journey, Some(0));
            let mut feeder = Feeder::new(tx);
            feed(&mut feeder, &pool)?;
            let finish = feeder.finish().and_then(|(pushed, mut tx)| {
                tx.eof_all()?;
                Ok((pushed as u64, tx.send_wait()))
            });
            finish.map_err(|e| format!("source: {e}"))
        });

        let mut failure: Option<String> = None;
        let mut eof_seen = 0usize;
        while eof_seen < reader_handles.len() {
            match rx.recv() {
                Ok(RxMsg::Batch(b)) => {
                    b.for_each(|seq, bytes| {
                        if let Some(j) = &mut sink_journey {
                            j.stamp(&[JourneyKind::Sink], seq as usize, sink_stage, 0);
                        }
                        completed += 1;
                        on_item(seq, bytes);
                    });
                }
                Ok(RxMsg::Done(stats)) => {
                    sink_in.merge(&stats);
                    eof_seen += 1;
                }
                Ok(RxMsg::Fail(e)) => {
                    failure = Some(format!("sink: {e}"));
                    break;
                }
                Err(_) => {
                    if eof_seen < reader_handles.len() {
                        failure = Some("sink channel closed early".to_string());
                    }
                    break;
                }
            }
        }
        // Unblock any reader still trying to hand us frames, then any
        // feeder blocked on a dead pipeline, before joining either.
        drop(rx);
        if failure.is_some() {
            kill_children(&mut children);
        }
        for r in reader_handles {
            let _ = r.join();
        }
        let fed = feeder_handle
            .join()
            .unwrap_or_else(|_| Err("feeder thread panicked".to_string()));
        match (failure, fed) {
            (Some(e), _) => Err(e),
            (None, Err(e)) => {
                kill_children(&mut children);
                Err(e)
            }
            (None, Ok(v)) => Ok(v),
        }
    });
    let (generated, source_wait_s) = match drained {
        Ok(v) => v,
        Err(e) => {
            kill_children(&mut children);
            return Err(e);
        }
    };
    let elapsed = started.elapsed().as_secs_f64();

    // The sink-side journey buffers flush on drop; without this the
    // tail of the timeline (up to one sink chunk) would be missing
    // from the snapshot below.
    drop(sink_journey);

    // Children have sent EOF all the way down, so they are exiting:
    // read each stdout to end (stats + journey lines), then reap.
    let mut workers: Vec<WorkerStats> = Vec::new();
    let mut events: Vec<JourneyEvent> =
        collector.as_ref().map(|c| c.snapshot()).unwrap_or_default();
    let mut reap_error: Option<String> = None;
    for (si, ii, child) in children.iter_mut() {
        if reap_error.is_some() {
            break;
        }
        if let Some(out) = child.stdout.take() {
            for line in BufReader::new(out).lines() {
                let line = match line {
                    Ok(l) => l,
                    Err(_) => break,
                };
                if let Some(json) = line.strip_prefix("S ") {
                    match Value::parse(json)
                        .map_err(|e| format!("{e:?}"))
                        .and_then(|v| WorkerStats::from_value(&v))
                    {
                        Ok(ws) => workers.push(ws),
                        Err(e) => {
                            reap_error = Some(format!("stage {si}.{ii} stats line: {e}"));
                            break;
                        }
                    }
                } else if let Some(json) = line.strip_prefix("J ") {
                    if let Ok(v) = Value::parse(json) {
                        if let Ok(ev) = JourneyEvent::from_value(&v) {
                            events.push(ev);
                        }
                    }
                }
            }
        }
        if reap_error.is_none() {
            match child.wait() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    reap_error = Some(format!("worker stage {si}.{ii} exited with {status}"))
                }
                Err(e) => reap_error = Some(format!("wait stage {si}.{ii}: {e}")),
            }
        }
    }
    if let Some(e) = reap_error {
        kill_children(&mut children);
        return Err(e);
    }
    if workers.len() != children.len() {
        return Err(format!(
            "expected {} worker stats lines, got {}",
            children.len(),
            workers.len()
        ));
    }
    events.sort_by(|a, b| {
        (a.seq, a.t_us)
            .partial_cmp(&(b.seq, b.t_us))
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    // Per-stage and per-boundary aggregation.
    let mut stages: Vec<StageAgg> = plan
        .stages
        .iter()
        .map(|sp| StageAgg {
            name: sp.kernel.name(),
            replicas: sp.replicas,
            threads: sp.threads,
            items: 0,
            service_s: 0.0,
            recv_wait_s: 0.0,
            send_wait_s: 0.0,
        })
        .collect();
    let mut in_by_stage: Vec<LinkStats> = vec![LinkStats::default(); nstages];
    for w in &workers {
        let a = &mut stages[w.stage];
        a.items += w.items;
        a.service_s += w.service_s;
        a.recv_wait_s += w.recv_wait_s;
        a.send_wait_s += w.send_wait_s;
        in_by_stage[w.stage].merge(&w.link);
    }
    let mut links: Vec<LinkReport> = Vec::with_capacity(nstages + 1);
    let boundary_from = |b: usize| {
        if b == 0 {
            "source".to_string()
        } else {
            stages[b - 1].name.clone()
        }
    };
    for (b, stat) in in_by_stage.iter().enumerate() {
        links.push(LinkReport {
            label: format!("{}->{}", boundary_from(b), stages[b].name),
            frames: stat.frames_in,
            items: stat.items_in,
            bytes: stat.bytes_in,
        });
    }
    links.push(LinkReport {
        label: format!("{}->sink", stages[nstages - 1].name),
        frames: sink_in.frames_in,
        items: sink_in.items_in,
        bytes: sink_in.bytes_in,
    });

    let run = WireRun {
        generated,
        completed,
        elapsed,
        throughput: if elapsed > 0.0 {
            completed as f64 / elapsed
        } else {
            0.0
        },
        source_wait_s,
        stages,
        workers,
        links,
        events,
    };
    run.publish_link_counters();
    Ok(run)
}

/// Run a fixed set of encoded inputs through a wire plan and return the
/// outputs ordered by sequence number, exactly like
/// [`crate::run_pipeline`] does for the in-process executor.
pub fn run_wire_pipeline(
    plan: &WirePlan,
    inputs: Vec<Vec<u8>>,
) -> Result<(Vec<Vec<u8>>, WireRun), String> {
    let n = inputs.len();
    let mut out: Vec<Option<Vec<u8>>> = (0..n).map(|_| None).collect();
    let run = run_wire(
        plan,
        move |f, pool| {
            for bytes in &inputs {
                let mut payload = pool.take(Vec::new);
                payload.clear();
                payload.extend_from_slice(bytes);
                let seq = f.pushed() as u64;
                f.push(WireItem { seq, payload }, Instant::now())
                    .map_err(|e| format!("feed: {e}"))?;
            }
            Ok(())
        },
        |seq, bytes| {
            if let Some(slot) = out.get_mut(seq as usize) {
                *slot = Some(bytes.to_vec());
            }
        },
    )?;
    let mut ordered = Vec::with_capacity(n);
    for (i, slot) in out.into_iter().enumerate() {
        ordered.push(slot.ok_or_else(|| format!("data set {i} never reached the sink"))?);
    }
    Ok((ordered, run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::WireLoadOptions;
    use crate::transport::InProcLink;
    use crate::wire::WireStagePlan;

    #[test]
    fn txset_coalesces_to_batch_and_round_robins() {
        let (tx_a, mut rx_a) = InProcLink::pair(16);
        let (tx_b, mut rx_b) = InProcLink::pair(16);
        let mut set = TxSet::new(vec![tx_a, tx_b], 3, 1_000_000, None, Some(1));
        for seq in 0..12u64 {
            set.push(
                WireItem {
                    seq,
                    payload: crate::pool::Lease::detached(vec![seq as u8]),
                },
                Instant::now(),
            )
            .unwrap();
        }
        set.flush_all().unwrap();
        set.eof_all().unwrap();
        // Destination a gets even seqs, b odd, coalesced in threes.
        let mut a_seqs = Vec::new();
        while let Some(b) = rx_a.recv_data().unwrap() {
            assert!(b.len() <= 3);
            b.for_each(|s, _| a_seqs.push(s));
        }
        assert_eq!(a_seqs, vec![0, 2, 4, 6, 8, 10]);
        let mut b_seqs = Vec::new();
        while let Some(b) = rx_b.recv_data().unwrap() {
            b.for_each(|s, _| b_seqs.push(s));
        }
        assert_eq!(b_seqs, vec![1, 3, 5, 7, 9, 11]);
    }

    #[test]
    fn txset_age_flush_releases_stragglers() {
        let (tx, mut rx) = InProcLink::pair(16);
        let mut set = TxSet::new(vec![tx], 64, 0, None, Some(1));
        set.push(
            WireItem {
                seq: 0,
                payload: crate::pool::Lease::detached(vec![1]),
            },
            Instant::now(),
        )
        .unwrap();
        // flush_us = 0 means any pending item is already aged.
        set.flush_aged().unwrap();
        set.eof_all().unwrap();
        assert_eq!(rx.recv_data().unwrap().expect("flushed").len(), 1);
        assert!(rx.recv_data().unwrap().is_none());
    }

    #[test]
    fn worker_stats_round_trip_their_stdout_form() {
        let ws = WorkerStats {
            stage: 2,
            instance: 1,
            items: 42,
            recv_wait_s: 0.5,
            service_s: 1.25,
            send_wait_s: 0.125,
            lifetime_s: 2.0,
            link: LinkStats {
                frames_out: 7,
                items_out: 42,
                bytes_out: 9001,
                frames_in: 6,
                items_in: 42,
                bytes_in: 8000,
            },
        };
        let v = ws.to_value();
        let back = WorkerStats::from_value(&Value::parse(&v.to_json()).unwrap()).unwrap();
        assert_eq!(back, ws);
    }

    #[test]
    fn probe_fails_under_the_test_harness() {
        // current_exe is the libtest binary, which is not a worker; the
        // probe must say so rather than wedge or false-positive.
        if std::env::var(WORKER_BIN_ENV).is_err() {
            assert!(!worker_probe());
        }
    }

    #[test]
    fn wire_load_options_default_to_no_discipline() {
        let o = WireLoadOptions::default();
        assert!(o.admit_rate.is_none() && o.shed_queue.is_none() && o.rate.is_none());
        // Silence the unused-plan-type lint path: a minimal plan builds.
        let p = WirePlan::new(vec![WireStagePlan::new(WireKernel::Echo, 1, 1)]);
        assert_eq!(p.stage_names(), vec!["echo"]);
    }
}
