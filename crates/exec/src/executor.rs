//! The threaded pipeline executor.
//!
//! Wiring: one dispatcher thread per stage boundary is avoided — instead
//! each module *instance* owns a bounded input channel, and the upstream
//! instance sends data set `n` directly to downstream instance
//! `n mod r_next` (the §2.2 round-robin). The sink reorders completed
//! data sets by sequence number. Bounded channels provide the
//! backpressure that makes the bottleneck module govern throughput, as in
//! the paper's execution model.
//!
//! # Data plane
//!
//! Messages carry *batches*: up to [`PipelinePlan::batch`] data sets per
//! channel message, grouped per destination instance so the round-robin
//! assignment (data set `n` → instance `n mod r`) is untouched — batching
//! only changes how many data sets ride in one message, never which
//! instance serves them. A batch is flushed when it is full, when its
//! oldest item has waited [`PipelinePlan::flush_us`] microseconds, and
//! always before a worker blocks on input or exits — so batching never
//! holds a data set hostage behind an idle stage. `batch == 1` is the
//! unbatched reference data plane (one message per data set, the
//! pre-batching executor), kept for A/B measurement in `pipemap bench`.
//!
//! Per-instance statistics are accumulated thread-locally and handed back
//! through the scoped-thread join (no shared lock on the data path).

use std::io;
use std::mem;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crossbeam::channel::{bounded, Receiver, Sender};
use pipemap_obs::{
    Counter, EventKind, EventLog, JourneyCollector, JourneyKind, JourneySink, ObsEvent, Recorder,
    Severity, SloConfig, TraceEvent,
};

use crate::pool;
use crate::stage::{Data, Stage};
use crate::transport::{LinkStats, Transport, WireItem};

/// Default latency bound on buffered batch items (microseconds), on both
/// planes.
pub const DEFAULT_FLUSH_US: u64 = 200;

/// A single send blocking at least this long (seconds) marks the sender
/// as backpressured; a send blocking under half of it clears the state
/// (hysteresis, so a boundary-hovering sender cannot flap events).
const BACKPRESSURE_ONSET_S: f64 = 1e-3;

/// One stage of a pipeline plan: the computation plus its mapping.
#[derive(Clone, Debug)]
pub struct StagePlan {
    /// The computation.
    pub stage: Stage,
    /// Number of replicated instances (§2.2's `r`).
    pub replicas: usize,
    /// Worker threads per instance (the instance's processor count).
    pub threads: usize,
}

impl StagePlan {
    /// A plan entry with one instance and one thread.
    pub fn serial(stage: Stage) -> Self {
        Self {
            stage,
            replicas: 1,
            threads: 1,
        }
    }

    /// A plan entry with explicit replication and threads.
    pub fn new(stage: Stage, replicas: usize, threads: usize) -> Self {
        assert!(replicas >= 1 && threads >= 1);
        Self {
            stage,
            replicas,
            threads,
        }
    }
}

/// A full pipeline plan.
#[derive(Clone, Debug)]
pub struct PipelinePlan {
    /// Stages in chain order.
    pub stages: Vec<StagePlan>,
    /// Capacity of each instance's input queue in *messages* (≥ 1; each
    /// message carries up to [`batch`](Self::batch) data sets). Small
    /// values mimic the rendezvous of the paper's model; larger values
    /// decouple stages.
    pub queue_depth: usize,
    /// Maximum data sets per channel message (≥ 1). `1` is the unbatched
    /// reference data plane; larger values amortize per-message channel
    /// overhead across the batch on high-rate streams.
    pub batch: usize,
    /// Latency bound: a buffered item is force-flushed once it has
    /// waited this many microseconds, even if its batch is not full.
    pub flush_us: u64,
    /// Per-dataset journey tracing: when set, every worker records
    /// enqueue/dequeue/service/send events for sampled data sets into
    /// this collector (see [`pipemap_obs::journey`]).
    pub journeys: Option<JourneyCollector>,
    /// Structured-event emission: when set, senders emit
    /// `backpressure_onset`/`backpressure_end` events (with hysteresis)
    /// as downstream queues fill and drain, and the load driver runs the
    /// latency-SLO [`AlertEngine`](pipemap_obs::AlertEngine) when
    /// [`slo`](Self::slo) is also set.
    pub events: Option<EventLog>,
    /// Latency-SLO objective evaluated by
    /// [`run_load`](crate::driver::run_load); requires
    /// [`events`](Self::events) for the alerts to land anywhere.
    pub slo: Option<SloConfig>,
}

impl PipelinePlan {
    /// A plan with queue depth 1 and unbatched transport (closest to the
    /// paper's rendezvous semantics).
    pub fn new(stages: Vec<StagePlan>) -> Self {
        assert!(!stages.is_empty());
        Self {
            stages,
            queue_depth: 1,
            batch: 1,
            flush_us: DEFAULT_FLUSH_US,
            journeys: None,
            events: None,
            slo: None,
        }
    }

    /// Set the queue depth.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        assert!(depth >= 1);
        self.queue_depth = depth;
        self
    }

    /// Set the transport batch size (data sets per channel message).
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch >= 1);
        self.batch = batch;
        self
    }

    /// Set the batch latency bound in microseconds.
    pub fn with_flush_us(mut self, flush_us: u64) -> Self {
        self.flush_us = flush_us;
        self
    }

    /// Attach a journey collector (see [`Self::journeys`]).
    pub fn with_journeys(mut self, journeys: JourneyCollector) -> Self {
        self.journeys = Some(journeys);
        self
    }

    /// Attach an event log (see [`Self::events`]).
    pub fn with_events(mut self, events: EventLog) -> Self {
        self.events = Some(events);
        self
    }

    /// Evaluate a latency SLO during load runs (see [`Self::slo`]).
    pub fn with_slo(mut self, slo: SloConfig) -> Self {
        self.slo = Some(slo);
        self
    }
}

/// Timing breakdown of one module instance's worker thread. The three
/// accounted intervals tile the thread's lifetime (up to loop
/// bookkeeping of a few microseconds per data set):
/// `recv_wait + busy + send_wait ≈ lifetime`.
#[derive(Clone, Copy, Debug)]
pub struct InstanceStats {
    /// Stage index in the plan.
    pub stage: usize,
    /// Instance index within the stage.
    pub instance: usize,
    /// Seconds blocked waiting for input (upstream too slow).
    pub recv_wait: f64,
    /// Seconds inside the stage function (service time).
    pub busy: f64,
    /// Seconds blocked pushing output (downstream backpressure).
    pub send_wait: f64,
    /// Seconds from worker start to worker exit.
    pub lifetime: f64,
}

/// Execution statistics of one pipeline run.
#[derive(Clone, Debug)]
pub struct PipelineStats {
    /// Data sets completed at the sink.
    pub datasets: usize,
    /// Data sets fed by the source (equals `datasets` when the pipeline
    /// drained fully).
    pub generated: usize,
    /// Wall-clock seconds from first send to last completion.
    pub elapsed: f64,
    /// Measured throughput (data sets per second).
    pub throughput: f64,
    /// Busy seconds per stage (summed over instances).
    pub busy: Vec<f64>,
    /// Seconds blocked on input per stage (summed over instances).
    pub recv_wait: Vec<f64>,
    /// Seconds blocked on output per stage (summed over instances).
    pub send_wait: Vec<f64>,
    /// Fraction of stage capacity spent computing:
    /// `busy / (replicas × elapsed)`, in `[0, 1]`.
    pub utilization: Vec<f64>,
    /// Seconds the source spent blocked on stage-0 backpressure.
    pub source_wait: f64,
    /// Channel messages sent (source + every stage boundary).
    pub messages: u64,
    /// Data sets carried inside those messages.
    pub message_items: u64,
    /// Per-instance breakdowns, ordered by (stage, instance).
    pub instances: Vec<InstanceStats>,
}

impl PipelineStats {
    /// Mean data sets per channel message (1.0 on the unbatched path).
    pub fn mean_batch_fill(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.message_items as f64 / self.messages as f64
        }
    }
}

/// One in-flight data set: its global sequence number, the instant it
/// entered the pipeline (for end-to-end latency), and the payload.
pub(crate) struct Item {
    pub(crate) seq: usize,
    pub(crate) born: Instant,
    pub(crate) data: Data,
}

type Batch = Vec<Item>;

/// Microseconds since the UNIX epoch: the clock every process of a uds
/// run shares.
pub(crate) fn unix_now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_micros() as u64
}

/// Journey stamping for one thread, on either plane: a [`JourneySink`],
/// the clock its stamps read and the salt of the batch ids it mints. In
/// process the clock is the collector's own. Over uds every process
/// stamps against the run's shared UNIX epoch, so the merged samples form
/// one timeline, and a per-process salt keeps the batch ids that
/// different processes mint apart.
pub(crate) struct Stamper {
    sink: JourneySink,
    epoch_us: Option<u64>,
    salt: u64,
}

impl Stamper {
    /// The in-process stamper: the collector's clock, no salt.
    pub(crate) fn local(sink: JourneySink) -> Self {
        Self {
            sink,
            epoch_us: None,
            salt: 0,
        }
    }

    /// A uds stamper: microseconds since `epoch_us` on the UNIX clock,
    /// batch ids salted with `salt`.
    pub(crate) fn shared(sink: JourneySink, epoch_us: u64, salt: u64) -> Self {
        Self {
            sink,
            epoch_us: Some(epoch_us),
            salt,
        }
    }

    fn now_us(&self) -> f64 {
        match self.epoch_us {
            Some(epoch) => unix_now_us().saturating_sub(epoch) as f64,
            None => self.sink.now_us(),
        }
    }

    /// Stamp each of `kinds` for data set `seq` at `stage`/`instance`,
    /// all at one clock read. The sampling check comes first: unsampled
    /// data sets must not pay for the clock read, which is a real
    /// syscall on containers without a vDSO clock.
    pub(crate) fn stamp(&mut self, kinds: &[JourneyKind], seq: usize, stage: u32, instance: u32) {
        if self.sink.sampled(seq) {
            let t_us = self.now_us();
            for &kind in kinds {
                self.sink.record_at(t_us, kind, seq, stage, instance, 0);
            }
        }
    }

    /// Stamp `Enqueue` for the sampled data sets of one batch bound for
    /// `replica` of `stage`, with one clock read and one batch id.
    fn enqueue(
        &mut self,
        seqs: impl ExactSizeIterator<Item = usize> + Clone,
        stage: u32,
        replica: u32,
    ) {
        if !seqs.clone().any(|seq| self.sink.sampled(seq)) {
            return;
        }
        let batch_id = if seqs.len() > 1 {
            self.salt | self.sink.next_batch()
        } else {
            0
        };
        let t_us = self.now_us();
        for seq in seqs {
            self.sink
                .record_at(t_us, JourneyKind::Enqueue, seq, stage, replica, batch_id);
        }
    }
}

/// One destination instance's input, as a [`TxSet`] sends to it: a
/// channel of [`Item`]s in process, a [`Transport`] of [`WireItem`]s
/// over uds.
pub(crate) trait Outlet {
    /// One buffered data set.
    type Item;
    /// The data set's sequence number.
    fn seq(item: &Self::Item) -> usize;
    /// Send one batch, blocking while the destination is full.
    fn send_batch(&mut self, batch: Vec<Self::Item>) -> io::Result<()>;
}

impl Outlet for Sender<Batch> {
    type Item = Item;
    fn seq(item: &Item) -> usize {
        item.seq
    }
    fn send_batch(&mut self, batch: Batch) -> io::Result<()> {
        self.send(batch)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "instance hung up"))
    }
}

impl<T: Transport> Outlet for T {
    type Item = WireItem;
    fn seq(item: &WireItem) -> usize {
        item.seq as usize
    }
    fn send_batch(&mut self, batch: Vec<WireItem>) -> io::Result<()> {
        self.send_data(batch)
    }
}

/// Batching output side shared by the source and every worker of both
/// planes: one buffer per destination instance (data set `n` goes to
/// instance `n mod r`), flushed when full, aged past the latency bound,
/// or explicitly (before blocking / at exit).
pub(crate) struct TxSet<O: Outlet> {
    targets: Vec<O>,
    bufs: Vec<Vec<O::Item>>,
    /// When `bufs[t]` went non-empty; only consulted when `batch > 1`.
    since: Vec<Instant>,
    batch: usize,
    flush: Duration,
    send_wait: f64,
    messages: u64,
    items: u64,
    msg_ctr: Counter,
    item_ctr: Counter,
    wait_ctr: Counter,
    /// The owning thread's journey stamps; this set adds `Enqueue`
    /// events (destination stage, replica, batch identity) as batches
    /// flush. `dest_stage` is `None` when the targets are the sink (no
    /// queue there, so no enqueue recorded).
    journey: Option<Stamper>,
    dest_stage: Option<u32>,
    /// Structured backpressure events; `src_stage` is `None` for the
    /// source feeder.
    events: Option<EventLog>,
    src_stage: Option<u32>,
    bp_active: bool,
}

impl<O: Outlet> TxSet<O> {
    /// An unmetered set: its counters go nowhere and it emits no
    /// backpressure events (see [`metered`](Self::metered)).
    pub(crate) fn new(
        targets: Vec<O>,
        batch: usize,
        flush_us: u64,
        journey: Option<Stamper>,
        dest_stage: Option<u32>,
    ) -> Self {
        let batch = batch.max(1);
        let off = Recorder::disabled().counter("");
        Self {
            bufs: targets.iter().map(|_| Vec::with_capacity(batch)).collect(),
            since: vec![Instant::now(); targets.len()],
            targets,
            batch,
            flush: Duration::from_micros(flush_us),
            send_wait: 0.0,
            messages: 0,
            items: 0,
            msg_ctr: off.clone(),
            item_ctr: off.clone(),
            wait_ctr: off,
            journey,
            dest_stage,
            events: None,
            src_stage: None,
            bp_active: false,
        }
    }

    /// Count messages and items into `rec`, send waits into `wait_ctr`,
    /// and emit backpressure events into `events` as `src_stage` (the
    /// source when `None`).
    fn metered(
        mut self,
        rec: &Recorder,
        wait_ctr: Counter,
        events: Option<EventLog>,
        src_stage: Option<u32>,
    ) -> Self {
        self.msg_ctr = rec.counter(pipemap_obs::names::EXEC_BATCH_MESSAGES);
        self.item_ctr = rec.counter(pipemap_obs::names::EXEC_BATCH_ITEMS);
        self.wait_ctr = wait_ctr;
        self.events = events;
        self.src_stage = src_stage;
        self
    }

    /// The owning thread's journey stamps, when journeys are on.
    pub(crate) fn stamper(&mut self) -> Option<&mut Stamper> {
        self.journey.as_mut()
    }

    /// Seconds blocked in sends so far.
    pub(crate) fn send_wait(&self) -> f64 {
        self.send_wait
    }

    /// Event-message name for this sender.
    fn who(&self) -> String {
        match self.src_stage {
            Some(s) => format!("stage {s}"),
            None => "source".to_string(),
        }
    }

    /// Track the backpressure state machine after a send that blocked
    /// for `blocked` seconds: one onset event when a send first blocks
    /// past [`BACKPRESSURE_ONSET_S`], one end event once sends flow
    /// freely again (half-threshold hysteresis in between).
    fn note_blocked(&mut self, blocked: f64) {
        let Some(log) = self.events.as_ref() else {
            return;
        };
        // Both arms are state *transitions*, so the formatting below is
        // off the steady-state path — most calls return right here.
        if !self.bp_active && blocked >= BACKPRESSURE_ONSET_S {
            self.bp_active = true;
            log.emit(ObsEvent {
                t_us: log.now_us(),
                kind: EventKind::BackpressureOnset,
                severity: Severity::Warning,
                stage: self.src_stage,
                value: blocked,
                message: format!("{} blocked {:.1} ms on send", self.who(), blocked * 1e3),
            });
        } else if self.bp_active && blocked < BACKPRESSURE_ONSET_S * 0.5 {
            self.bp_active = false;
            log.emit(ObsEvent {
                t_us: log.now_us(),
                kind: EventKind::BackpressureEnd,
                severity: Severity::Info,
                stage: self.src_stage,
                value: blocked,
                message: format!("{} sends flowing again", self.who()),
            });
        }
    }

    /// Route `item` to its round-robin destination; flushes the
    /// destination's buffer when full or aged. `now` is the caller's
    /// latest clock read, so a push reads no clock of its own. Returns
    /// whether it flushed (and so may have blocked on the send).
    pub(crate) fn push(&mut self, item: O::Item, now: Instant) -> io::Result<bool> {
        let t = O::seq(&item) % self.targets.len();
        if self.batch > 1 && self.bufs[t].is_empty() {
            self.since[t] = now;
        }
        self.bufs[t].push(item);
        let flush = self.bufs[t].len() >= self.batch
            || (self.batch > 1 && now.duration_since(self.since[t]) >= self.flush);
        if flush {
            self.flush_target(t)?;
        }
        Ok(flush)
    }

    fn flush_target(&mut self, t: usize) -> io::Result<()> {
        if self.bufs[t].is_empty() {
            return Ok(());
        }
        let out = mem::replace(&mut self.bufs[t], Vec::with_capacity(self.batch));
        let n = out.len() as u64;
        if let (Some(j), Some(stage)) = (self.journey.as_mut(), self.dest_stage) {
            // Timestamp taken before the (possibly blocking) send, so a
            // receiver that dequeues promptly still observes
            // `enqueue ≤ dequeue`; queue wait therefore includes any
            // backpressure block at the queue door.
            j.enqueue(out.iter().map(O::seq), stage, t as u32);
        }
        let t0 = Instant::now();
        self.targets[t].send_batch(out)?;
        let blocked = t0.elapsed().as_secs_f64();
        self.send_wait += blocked;
        self.wait_ctr.add((blocked * 1e6) as u64);
        self.note_blocked(blocked);
        self.messages += 1;
        self.items += n;
        self.msg_ctr.add(1);
        self.item_ctr.add(n);
        Ok(())
    }

    /// Flush buffers whose oldest item exceeded the latency bound.
    pub(crate) fn flush_aged(&mut self) -> io::Result<()> {
        if self.batch == 1 {
            return Ok(());
        }
        for t in 0..self.bufs.len() {
            if !self.bufs[t].is_empty() && self.since[t].elapsed() >= self.flush {
                self.flush_target(t)?;
            }
        }
        Ok(())
    }

    pub(crate) fn flush_all(&mut self) -> io::Result<()> {
        for t in 0..self.bufs.len() {
            self.flush_target(t)?;
        }
        Ok(())
    }
}

impl<T: Transport> TxSet<T> {
    /// Send the end-of-stream marker on every link.
    pub(crate) fn eof_all(&mut self) -> io::Result<()> {
        for l in &mut self.targets {
            l.send_eof()?;
        }
        Ok(())
    }

    /// Socket counters summed over every link.
    pub(crate) fn link_stats(&self) -> LinkStats {
        let mut s = LinkStats::default();
        for l in &self.targets {
            s.merge(&l.stats());
        }
        s
    }
}

/// The source's handle on stage 0, on either plane: numbers data sets,
/// stamps their `Source` event and sends them through a [`TxSet`].
pub(crate) struct Feeder<O: Outlet> {
    tx: TxSet<O>,
    seq: usize,
}

impl<O: Outlet> Feeder<O> {
    pub(crate) fn new(tx: TxSet<O>) -> Self {
        Self { tx, seq: 0 }
    }

    /// Push one data set, which must carry sequence number
    /// [`pushed`](Self::pushed); `now` is the caller's latest clock read.
    /// Blocks when stage 0 exerts backpressure.
    pub(crate) fn push(&mut self, item: O::Item, now: Instant) -> io::Result<()> {
        debug_assert_eq!(O::seq(&item), self.seq);
        if let Some(j) = self.tx.journey.as_mut() {
            j.stamp(&[JourneyKind::Source], self.seq, 0, 0);
        }
        self.seq += 1;
        self.tx.push(item, now).map(drop)
    }

    /// Before a sleep: flush every partial batch when `all`, else only
    /// the aged ones, so a paced source never holds a data set past the
    /// latency bound.
    pub(crate) fn idle(&mut self, all: bool) -> io::Result<()> {
        if all {
            self.tx.flush_all()
        } else {
            self.tx.flush_aged()
        }
    }

    /// Data sets pushed so far.
    pub(crate) fn pushed(&self) -> usize {
        self.seq
    }

    /// Flush everything and hand back the count and the tx set.
    pub(crate) fn finish(mut self) -> io::Result<(usize, TxSet<O>)> {
        self.tx.flush_all()?;
        Ok((self.seq, self.tx))
    }
}

/// Source-side totals collected when the feeder finishes.
struct SourceTotals {
    pushed: usize,
    send_wait: f64,
    messages: u64,
    items: u64,
}

/// Per-worker context handed to [`worker_loop`].
struct WorkerCtx<'a> {
    rx: Receiver<Batch>,
    tx: TxSet<Sender<Batch>>,
    stage: &'a Stage,
    threads: usize,
    si: usize,
    ii: usize,
    lane: u64,
    rec: Recorder,
    tracing: bool,
}

fn worker_loop(mut ctx: WorkerCtx<'_>) -> (InstanceStats, u64, u64) {
    // Hoisted per-instance handles: metric names are formatted once and
    // the stage name is cloned per trace event only when tracing is on —
    // the untraced hot path does no per-message allocation.
    let service_hist = ctx.rec.histogram(&format!(
        "exec.stage{}.{}.service_s",
        ctx.si, &*ctx.stage.name
    ));
    let recv_ctr = ctx
        .rec
        .counter(&format!("exec.stage{}.recv_wait_us", ctx.si));
    let busy_ctr = ctx.rec.counter(&format!("exec.stage{}.busy_us", ctx.si));
    let trace_name: String = ctx.stage.name.to_string();
    // The clock read that ends one item's service starts the next one's,
    // unless a send, a journey record or a trace event came in between.
    let chain_clock = !ctx.tracing && ctx.tx.stamper().is_none();
    let (si, ii) = (ctx.si as u32, ctx.ii as u32);
    let born = Instant::now();
    let mut recv_wait = 0.0f64;
    let mut busy = 0.0f64;
    loop {
        // Fast path: input already queued — no clock reads for the wait.
        let batch = match ctx.rx.try_recv() {
            Some(b) => b,
            None => {
                // Latency rule: never hold buffered output while blocked
                // on input.
                ctx.tx.flush_all().expect("downstream instance hung up");
                let t_recv = Instant::now();
                match ctx.rx.recv() {
                    Ok(b) => {
                        let waited = t_recv.elapsed().as_secs_f64();
                        recv_wait += waited;
                        recv_ctr.add((waited * 1e6) as u64);
                        if ctx.tracing && waited > 0.0 {
                            let now = ctx.rec.now_us();
                            ctx.rec.event(TraceEvent {
                                name: "recv".into(),
                                cat: "recv".into(),
                                lane: ctx.lane,
                                ts_us: now - waited * 1e6,
                                dur_us: waited * 1e6,
                                args: vec![(
                                    "seq".into(),
                                    (b.first().map_or(0, |i| i.seq) as u64).into(),
                                )],
                            });
                        }
                        b
                    }
                    Err(_) => break,
                }
            }
        };
        let mut next_start = None;
        for item in batch {
            if let Some(j) = ctx.tx.stamper() {
                // Dequeue is stamped when the worker *picks the item up*,
                // not at batch arrival: an item waiting behind batchmates
                // in the same message is still queued, so that wait lands
                // in the queue component. Transfer itself is a pointer
                // move here, so Dequeue and ServiceStart share one clock
                // read and the transport component is ~0 — unlike the
                // simulators, whose modelled transfers occupy the
                // instance for real time.
                j.stamp(
                    &[JourneyKind::Dequeue, JourneyKind::ServiceStart],
                    item.seq,
                    si,
                    ii,
                );
            }
            let t_exec = next_start.take().unwrap_or_else(Instant::now);
            let out = ctx.stage.apply(item.data, ctx.threads);
            let t_done = Instant::now();
            let service = t_done.duration_since(t_exec).as_secs_f64();
            busy += service;
            service_hist.record(service);
            busy_ctr.add((service * 1e6) as u64);
            if ctx.tracing {
                let now = ctx.rec.now_us();
                ctx.rec.event(TraceEvent {
                    name: trace_name.clone(),
                    cat: "exec".into(),
                    lane: ctx.lane,
                    ts_us: now - service * 1e6,
                    dur_us: service * 1e6,
                    args: vec![("seq".into(), (item.seq as u64).into())],
                });
            }
            if let Some(j) = ctx.tx.stamper() {
                j.stamp(
                    &[JourneyKind::ServiceEnd, JourneyKind::Send],
                    item.seq,
                    si,
                    ii,
                );
            }
            let item = Item {
                seq: item.seq,
                born: item.born,
                data: out,
            };
            let flushed = ctx
                .tx
                .push(item, t_done)
                .expect("downstream instance hung up");
            if !flushed && chain_clock {
                next_start = Some(t_done);
            }
        }
    }
    ctx.tx.flush_all().expect("downstream instance hung up");
    let stats = InstanceStats {
        stage: ctx.si,
        instance: ctx.ii,
        recv_wait,
        busy,
        send_wait: ctx.tx.send_wait,
        lifetime: born.elapsed().as_secs_f64(),
    };
    (stats, ctx.tx.messages, ctx.tx.items)
}

/// Run the pipeline with a source closure feeding data sets and a sink
/// closure consuming completed items (called on the caller's thread, in
/// arrival order — *not* sequence order). Shared engine behind
/// [`run_pipeline`] and [`run_load`](crate::driver::run_load).
///
/// # Panics
///
/// Panics if a stage function panics (the panic is propagated) or the
/// plan is empty.
pub(crate) fn execute(
    plan: &PipelinePlan,
    sink_cap: usize,
    feed: impl FnOnce(&mut Feeder<Sender<Batch>>) + Send,
    mut on_item: impl FnMut(Item),
) -> PipelineStats {
    let n_stages = plan.stages.len();
    assert!(n_stages > 0, "empty pipeline plan");
    let batch = plan.batch.max(1);

    // Observability: metrics always flow to the global recorder (no-op
    // when none is installed); per-activity trace events only when the
    // installed registry has tracing enabled. Each instance gets its own
    // trace lane so Perfetto shows one row per worker thread.
    let rec = pipemap_obs::global();
    let tracing = rec.tracing();
    let stamper = |journeys: Option<&JourneyCollector>| journeys.map(|c| Stamper::local(c.sink()));
    let lanes: Vec<Vec<u64>> = plan
        .stages
        .iter()
        .enumerate()
        .map(|(si, sp)| {
            (0..sp.replicas)
                .map(|ii| match (tracing, pipemap_obs::global_registry()) {
                    (true, Some(reg)) => {
                        reg.register_lane(format!("stage{si}.{}.{ii}", &*sp.stage.name))
                    }
                    _ => 0,
                })
                .collect()
        })
        .collect();

    // Channels: input channels for every instance of every stage, plus a
    // sink channel. Messages carry batches of (sequence, data) items.
    let mut senders: Vec<Vec<Sender<Batch>>> = Vec::with_capacity(n_stages);
    let mut receivers: Vec<Vec<Receiver<Batch>>> = Vec::with_capacity(n_stages);
    for sp in &plan.stages {
        let mut ss = Vec::with_capacity(sp.replicas);
        let mut rs = Vec::with_capacity(sp.replicas);
        for _ in 0..sp.replicas {
            let (s, r) = bounded::<Batch>(plan.queue_depth);
            ss.push(s);
            rs.push(r);
        }
        senders.push(ss);
        receivers.push(rs);
    }
    let (sink_s, sink_r) = bounded::<Batch>(sink_cap.max(1));

    let start = Instant::now();
    let (results, source_totals, completed) = std::thread::scope(|scope| {
        // Instance workers; stats come back through the join handles.
        let mut worker_handles = Vec::new();
        for (si, (sp, stage_rxs)) in plan.stages.iter().zip(receivers).enumerate() {
            for (ii, rx) in stage_rxs.into_iter().enumerate() {
                let targets: Vec<Sender<Batch>> = match senders.get(si + 1) {
                    Some(next) => next.clone(),
                    None => vec![sink_s.clone()],
                };
                let stage = &sp.stage;
                let threads = sp.threads;
                let rec = rec.clone();
                let lane = lanes[si][ii];
                let journeys = plan.journeys.as_ref();
                let events = plan.events.clone();
                let dest_stage = (si + 1 < n_stages).then(|| (si + 1) as u32);
                worker_handles.push(scope.spawn(move || {
                    let send_ctr = rec.counter(&format!("exec.stage{si}.send_wait_us"));
                    let tx =
                        TxSet::new(targets, batch, plan.flush_us, stamper(journeys), dest_stage)
                            .metered(&rec, send_ctr, events, Some(si as u32));
                    worker_loop(WorkerCtx {
                        rx,
                        tx,
                        stage,
                        threads,
                        si,
                        ii,
                        lane,
                        rec,
                        tracing,
                    })
                }));
            }
        }
        // Close our copies so workers see disconnects once sources drain.
        drop(sink_s);
        let first = senders[0].clone();
        drop(senders);

        // Source thread: run the feed closure, then flush and hang up —
        // the disconnect cascades down the chain as workers finish.
        let feeder_rec = rec.clone();
        let feeder_journeys = plan.journeys.as_ref();
        let feeder_events = plan.events.clone();
        let feeder_handle = scope.spawn(move || {
            let send_ctr = feeder_rec.counter("exec.source.send_wait_us");
            let tx = TxSet::new(
                first,
                batch,
                plan.flush_us,
                stamper(feeder_journeys),
                Some(0),
            )
            .metered(&feeder_rec, send_ctr, feeder_events, None);
            let mut feeder = Feeder::new(tx);
            feed(&mut feeder);
            let (pushed, tx) = feeder.finish().expect("downstream instance hung up");
            SourceTotals {
                pushed,
                send_wait: tx.send_wait,
                messages: tx.messages,
                items: tx.items,
            }
        });

        // Sink: drain until every last-stage worker hangs up.
        let done_ctr = rec.counter("exec.datasets.completed");
        let mut completed = 0usize;
        while let Ok(items) = sink_r.recv() {
            // The sink drops most leases: a message's go back to the pool
            // under one lock.
            let _returns = pool::Scope::open();
            for item in items {
                done_ctr.add(1);
                completed += 1;
                on_item(item);
            }
        }
        fn join<T>(h: std::thread::ScopedJoinHandle<'_, T>) -> T {
            match h.join() {
                Ok(v) => v,
                Err(p) => std::panic::resume_unwind(p),
            }
        }
        let source_totals = join(feeder_handle);
        let results: Vec<(InstanceStats, u64, u64)> =
            worker_handles.into_iter().map(join).collect();
        (results, source_totals, completed)
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut messages = source_totals.messages;
    let mut message_items = source_totals.items;
    let mut instances = Vec::with_capacity(results.len());
    for (stats, msgs, items) in results {
        messages += msgs;
        message_items += items;
        instances.push(stats);
    }
    instances.sort_by_key(|i| (i.stage, i.instance));
    let per_stage = |f: fn(&InstanceStats) -> f64| -> Vec<f64> {
        let mut v = vec![0.0; n_stages];
        for i in &instances {
            v[i.stage] += f(i);
        }
        v
    };
    let busy = per_stage(|i| i.busy);
    let recv_wait = per_stage(|i| i.recv_wait);
    let send_wait = per_stage(|i| i.send_wait);
    let utilization: Vec<f64> = plan
        .stages
        .iter()
        .enumerate()
        .map(|(si, sp)| {
            if elapsed > 0.0 {
                busy[si] / (sp.replicas as f64 * elapsed)
            } else {
                0.0
            }
        })
        .collect();

    PipelineStats {
        datasets: completed,
        generated: source_totals.pushed,
        elapsed,
        throughput: if elapsed > 0.0 {
            completed as f64 / elapsed
        } else {
            f64::INFINITY
        },
        busy,
        recv_wait,
        send_wait,
        utilization,
        source_wait: source_totals.send_wait,
        messages,
        message_items,
        instances,
    }
}

/// Run `inputs` through the pipeline and return the outputs (in input
/// order) plus statistics.
///
/// # Panics
///
/// Panics if a stage function panics (the panic is propagated) or the
/// plan is empty.
pub fn run_pipeline(plan: &PipelinePlan, inputs: Vec<Data>) -> (Vec<Data>, PipelineStats) {
    let n_data = inputs.len();
    let mut out: Vec<Option<Data>> = (0..n_data).map(|_| None).collect();
    let mut stamps = plan.journeys.as_ref().map(|c| Stamper::local(c.sink()));
    let sink_stage = plan.stages.len() as u32;
    let stats = execute(
        plan,
        n_data.max(1),
        move |feeder| {
            for data in inputs {
                let (seq, born) = (feeder.pushed(), Instant::now());
                feeder
                    .push(Item { seq, born, data }, born)
                    .expect("downstream instance hung up");
            }
        },
        |item| {
            if let Some(j) = stamps.as_mut() {
                j.stamp(&[JourneyKind::Sink], item.seq, sink_stage, 0);
            }
            out[item.seq] = Some(item.data);
        },
    );
    let outputs = out
        .into_iter()
        .map(|o| o.expect("every sequence number must arrive"))
        .collect();
    (outputs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn unwrap_all<T: 'static>(data: Vec<Data>) -> Vec<T> {
        data.into_iter()
            .map(|d| *d.downcast::<T>().expect("output type"))
            .collect()
    }

    #[test]
    fn identity_pipeline_preserves_order() {
        let plan = PipelinePlan::new(vec![StagePlan::serial(Stage::new("id", |x: usize, _| x))]);
        let inputs: Vec<Data> = (0..50usize).map(|i| Box::new(i) as Data).collect();
        let (out, stats) = run_pipeline(&plan, inputs);
        assert_eq!(unwrap_all::<usize>(out), (0..50).collect::<Vec<_>>());
        assert_eq!(stats.datasets, 50);
        assert_eq!(stats.generated, 50);
    }

    #[test]
    fn replicated_stage_preserves_order() {
        let plan = PipelinePlan::new(vec![
            StagePlan::new(Stage::new("slow", |x: usize, _| x * 3), 4, 1),
            StagePlan::new(Stage::new("plus", |x: usize, _| x + 1), 3, 1),
        ]);
        let inputs: Vec<Data> = (0..100usize).map(|i| Box::new(i) as Data).collect();
        let (out, _) = run_pipeline(&plan, inputs);
        let got = unwrap_all::<usize>(out);
        assert_eq!(got, (0..100).map(|i| i * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn batched_transport_matches_unbatched_output() {
        for batch in [2usize, 5, 16, 64] {
            let mk = || {
                vec![
                    StagePlan::new(Stage::new("x3", |x: u64, _| x.wrapping_mul(3)), 3, 1),
                    StagePlan::new(Stage::new("p7", |x: u64, _| x.wrapping_add(7)), 2, 1),
                ]
            };
            let inputs = || (0..137u64).map(|i| Box::new(i) as Data).collect::<Vec<_>>();
            let (ref_out, ref_stats) = run_pipeline(&PipelinePlan::new(mk()), inputs());
            let plan = PipelinePlan::new(mk())
                .with_batch(batch)
                .with_queue_depth(3);
            let (out, stats) = run_pipeline(&plan, inputs());
            assert_eq!(unwrap_all::<u64>(out), unwrap_all::<u64>(ref_out));
            assert_eq!(stats.datasets, 137);
            // Batching reduces messages; the unbatched path is 1 item
            // per message by construction.
            assert!((ref_stats.mean_batch_fill() - 1.0).abs() < 1e-12);
            assert!(stats.messages < ref_stats.messages, "batch={batch}");
            assert!(stats.mean_batch_fill() > 1.0, "batch={batch}");
        }
    }

    #[test]
    fn replication_increases_throughput_of_a_slow_stage() {
        let slow = |x: usize, _t: usize| {
            std::thread::sleep(Duration::from_millis(4));
            x
        };
        let n = 40usize;
        let inputs = || (0..n).map(|i| Box::new(i) as Data).collect::<Vec<_>>();
        let single = PipelinePlan::new(vec![StagePlan::new(Stage::new("s", slow), 1, 1)]);
        let quad = PipelinePlan::new(vec![StagePlan::new(Stage::new("s", slow), 4, 1)]);
        let (_, st1) = run_pipeline(&single, inputs());
        let (_, st4) = run_pipeline(&quad, inputs());
        assert!(
            st4.throughput > 2.0 * st1.throughput,
            "4-way replication should at least double throughput: {} vs {}",
            st4.throughput,
            st1.throughput
        );
    }

    #[test]
    fn pipelining_overlaps_stages() {
        // Two stages of 3 ms each: serial would take ~6 ms per data set;
        // pipelined steady state is ~3 ms.
        let mk = || {
            Stage::new("sleep", |x: usize, _| {
                std::thread::sleep(Duration::from_millis(3));
                x
            })
        };
        let plan = PipelinePlan::new(vec![StagePlan::serial(mk()), StagePlan::serial(mk())]);
        let n = 30usize;
        let inputs: Vec<Data> = (0..n).map(|i| Box::new(i) as Data).collect();
        let (_, stats) = run_pipeline(&plan, inputs);
        // Allow generous scheduling slack; the serial time would be
        // 6 ms × 30 = 180 ms, pipelined ≈ 3 ms × 31 ≈ 93 ms.
        assert!(
            stats.elapsed < 0.160,
            "expected pipelining overlap, elapsed {:.3}s",
            stats.elapsed
        );
    }

    #[test]
    fn busy_time_accounted_per_stage() {
        let plan = PipelinePlan::new(vec![
            StagePlan::serial(Stage::new("a", |x: usize, _| {
                std::thread::sleep(Duration::from_millis(2));
                x
            })),
            StagePlan::serial(Stage::new("b", |x: usize, _| x)),
        ]);
        let inputs: Vec<Data> = (0..20usize).map(|i| Box::new(i) as Data).collect();
        let (_, stats) = run_pipeline(&plan, inputs);
        assert!(stats.busy[0] > stats.busy[1]);
        assert!(stats.busy[0] >= 0.020);
    }

    #[test]
    fn empty_input_is_fine() {
        let plan = PipelinePlan::new(vec![StagePlan::serial(Stage::new("id", |x: usize, _| x))]);
        let (out, stats) = run_pipeline(&plan, vec![]);
        assert!(out.is_empty());
        assert_eq!(stats.datasets, 0);
        assert_eq!(stats.messages, 0);
    }

    #[test]
    fn instance_accounting_tiles_lifetime() {
        // Stage 0 is the bottleneck: stage 1 should accumulate recv_wait,
        // stage 0 send_wait (queue depth 1 gives backpressure).
        let plan = PipelinePlan::new(vec![
            StagePlan::serial(Stage::new("slow", |x: usize, _| {
                std::thread::sleep(Duration::from_millis(3));
                x
            })),
            StagePlan::serial(Stage::new("fast", |x: usize, _| x)),
        ]);
        let inputs: Vec<Data> = (0..20usize).map(|i| Box::new(i) as Data).collect();
        let (_, stats) = run_pipeline(&plan, inputs);

        assert_eq!(stats.instances.len(), 2);
        for inst in &stats.instances {
            let accounted = inst.recv_wait + inst.busy + inst.send_wait;
            assert!(
                accounted <= inst.lifetime + 1e-6,
                "stage {} accounted {accounted} > lifetime {}",
                inst.stage,
                inst.lifetime
            );
            // Loop bookkeeping between the timed sections is microseconds
            // per data set; allow 20% slack plus a constant for very short
            // runs.
            assert!(
                accounted >= 0.8 * inst.lifetime - 2e-3,
                "stage {} accounted {accounted} ≪ lifetime {}",
                inst.stage,
                inst.lifetime
            );
        }
        for (si, u) in stats.utilization.iter().enumerate() {
            assert!((0.0..=1.0).contains(u), "stage {si} utilization {u}");
        }
        // The stage downstream of the bottleneck starves on input.
        assert!(
            stats.recv_wait[1] > stats.recv_wait[0],
            "downstream recv_wait {:?}",
            stats.recv_wait
        );
        assert!(stats.utilization[0] > stats.utilization[1]);
    }

    #[test]
    fn per_stage_sums_match_instances() {
        let plan = PipelinePlan::new(vec![StagePlan::new(
            Stage::new("work", |x: usize, _| {
                std::thread::sleep(Duration::from_millis(1));
                x
            }),
            3,
            1,
        )]);
        let inputs: Vec<Data> = (0..30usize).map(|i| Box::new(i) as Data).collect();
        let (_, stats) = run_pipeline(&plan, inputs);
        assert_eq!(stats.instances.len(), 3);
        let busy_sum: f64 = stats.instances.iter().map(|i| i.busy).sum();
        assert!((busy_sum - stats.busy[0]).abs() < 1e-9);
        let recv_sum: f64 = stats.instances.iter().map(|i| i.recv_wait).sum();
        assert!((recv_sum - stats.recv_wait[0]).abs() < 1e-9);
        // Instances are sorted by (stage, instance).
        let order: Vec<usize> = stats.instances.iter().map(|i| i.instance).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn heterogeneous_stage_types_flow() {
        let plan = PipelinePlan::new(vec![
            StagePlan::new(Stage::new("stringify", |x: usize, _| x.to_string()), 2, 1),
            StagePlan::new(Stage::new("len", |s: String, _| s.len()), 2, 1),
        ]);
        let inputs: Vec<Data> = vec![Box::new(5usize), Box::new(123usize), Box::new(42usize)];
        let (out, _) = run_pipeline(&plan, inputs);
        assert_eq!(unwrap_all::<usize>(out), vec![1, 3, 2]);
    }

    #[test]
    fn journeys_are_complete_and_monotone() {
        use pipemap_obs::{stitch, JourneyConfig};
        let col = JourneyCollector::new(JourneyConfig::default());
        let plan = PipelinePlan::new(vec![
            StagePlan::new(Stage::new("x3", |x: u64, _| x.wrapping_mul(3)), 2, 1),
            StagePlan::new(Stage::new("p7", |x: u64, _| x.wrapping_add(7)), 3, 1),
        ])
        .with_batch(4)
        .with_queue_depth(2)
        .with_journeys(col.clone());
        let inputs: Vec<Data> = (0..40u64).map(|i| Box::new(i) as Data).collect();
        let (out, _) = run_pipeline(&plan, inputs);
        assert_eq!(out.len(), 40);
        let journeys = stitch(&col.drain());
        assert_eq!(journeys.len(), 40);
        for j in &journeys {
            assert!(j.complete(2), "journey {} incomplete: {j:?}", j.seq);
            assert!(j.monotone(), "journey {} not monotone: {j:?}", j.seq);
            assert!(j.source_us.is_some() && j.sink_us.is_some());
            // Round-robin replica identity is recorded per hop.
            assert_eq!(j.hops[0].instance as u64, j.seq % 2);
            assert_eq!(j.hops[1].instance as u64, j.seq % 3);
        }
        // Batched transport: some data sets share a batch identity.
        let shared_batches = journeys
            .iter()
            .filter(|j| j.hops.iter().any(|h| h.batch != 0))
            .count();
        assert!(shared_batches > 0, "batch ids should appear with batch=4");
    }

    #[test]
    fn journey_sampling_records_one_in_n() {
        use pipemap_obs::{stitch, JourneyConfig};
        let col = JourneyCollector::new(JourneyConfig::default().with_sample(5));
        let plan = PipelinePlan::new(vec![StagePlan::serial(Stage::new("id", |x: u64, _| x))])
            .with_journeys(col.clone());
        let inputs: Vec<Data> = (0..23u64).map(|i| Box::new(i) as Data).collect();
        let (_, _) = run_pipeline(&plan, inputs);
        let journeys = stitch(&col.drain());
        let seqs: Vec<u64> = journeys.iter().map(|j| j.seq).collect();
        assert_eq!(seqs, vec![0, 5, 10, 15, 20]);
        assert!(journeys.iter().all(|j| j.complete(1) && j.monotone()));
    }

    #[test]
    fn pooled_payloads_flow_and_recycle() {
        use crate::pool::{BufferPool, Lease};
        let pool = BufferPool::new(8);
        let plan = PipelinePlan::new(vec![
            StagePlan::serial(Stage::new("double", |mut v: Lease<Vec<u64>>, _| {
                for x in v.iter_mut() {
                    *x *= 2;
                }
                v
            })),
            StagePlan::serial(Stage::new("sum", |v: Lease<Vec<u64>>, _| {
                v.iter().sum::<u64>()
                // lease drops here → payload returns to the pool
            })),
        ])
        .with_batch(4);
        let inputs = |pool: &BufferPool| -> Vec<Data> {
            (0..20u64)
                .map(|i| {
                    let mut lease = pool.take(|| vec![0u64; 4]);
                    for (j, x) in lease.iter_mut().enumerate() {
                        *x = i + j as u64;
                    }
                    Box::new(lease) as Data
                })
                .collect()
        };
        // First wave: all takes are misses; the sink drops each lease,
        // shelving up to the pool's bound of 8.
        let (out, _) = run_pipeline(&plan, inputs(&pool));
        let sums = unwrap_all::<u64>(out);
        assert_eq!(sums[0], 2 * (1 + 2 + 3));
        assert_eq!(sums.len(), 20);
        let first = pool.stats();
        assert_eq!(first.hits, 0, "{first:?}");
        assert!(first.returns >= 8, "{first:?}");
        // Second wave over the same pool: shelved payloads are recycled.
        let (out, _) = run_pipeline(&plan, inputs(&pool));
        assert_eq!(unwrap_all::<u64>(out), sums);
        let second = pool.stats();
        assert_eq!(second.hits, 8, "{second:?}");
    }
}
