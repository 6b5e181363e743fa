//! Framed transport backends for the out-of-process data plane.
//!
//! The in-process executor moves `Box<dyn Any>` payloads through
//! channels; crossing a process boundary instead moves *bytes* through a
//! stream socket. This module defines that wire contract once, behind
//! the [`Transport`] trait, so the engine in [`crate::proc`] is written
//! against an abstract link and the socket machinery stays here:
//!
//! * **length-prefixed frames** — `[u32 len][u8 kind][payload]`, with
//!   `DATA` frames carrying a whole coalesced batch (the batched /
//!   age-flush path of the in-process transport, reused at the frame
//!   level);
//! * **vectored writes** — a `DATA` frame is written as one small header
//!   buffer plus one [`IoSlice`] per item payload, so item bytes are
//!   never copied into a contiguous staging buffer;
//! * **pooled receives** — inbound frames land in
//!   [`BufferPool`]-leased buffers and are parsed in place, so the
//!   deserialize path allocates nothing at steady state.
//!
//! [`UdsLink`] is the Unix-domain-socket backend; [`InProcLink`] moves
//! the same batches through a bounded channel (used to test the engine
//! without sockets, and as the degenerate single-process transport).
//! [`UdsLink::send_data_naive`] is the deliberately unbatched,
//! copy-per-item reference path the bench suite compares against.

use std::io::{self, IoSlice, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::pool::{BufferPool, Lease};

/// Wire protocol version; both ends of a link must agree.
pub const PROTOCOL_VERSION: u8 = 1;

/// Upper bound on a single frame, as a sanity check against a corrupt
/// or hostile length prefix (256 MiB).
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// Per-item header inside a `DATA` frame: `u64` seq + `u32` byte length.
const ITEM_HEADER: usize = 12;

/// Frame type tags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Connection opener: protocol version, plan hash, sender identity.
    Hello = 0,
    /// Handshake acknowledgement.
    Ready = 1,
    /// A coalesced batch of data items.
    Data = 2,
    /// Clean end of stream.
    Eof = 3,
    /// Fatal error, UTF-8 message payload.
    Err = 4,
    /// A worker's delta snapshot (JSON `pipemap-telemetry/v1` payload)
    /// on the dedicated telemetry socket.
    Telemetry = 5,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(FrameKind::Hello),
            1 => Some(FrameKind::Ready),
            2 => Some(FrameKind::Data),
            3 => Some(FrameKind::Eof),
            4 => Some(FrameKind::Err),
            5 => Some(FrameKind::Telemetry),
            _ => None,
        }
    }
}

/// Which backend a link runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// Bounded in-memory channel (single process).
    InProc,
    /// Unix domain socket (crosses processes).
    Uds,
}

impl TransportKind {
    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "inproc" => Some(TransportKind::InProc),
            "uds" => Some(TransportKind::Uds),
            _ => None,
        }
    }

    /// The CLI name.
    pub fn as_str(self) -> &'static str {
        match self {
            TransportKind::InProc => "inproc",
            TransportKind::Uds => "uds",
        }
    }
}

/// One data set on the wire: sequence number plus its encoded payload.
/// The payload rides a [`Lease`] so send-side buffers recycle through
/// the pool once the frame is written.
pub struct WireItem {
    /// Global dataset sequence number (drives round-robin routing and
    /// sink reordering).
    pub seq: u64,
    /// Encoded payload bytes.
    pub payload: Lease<Vec<u8>>,
}

/// Byte/frame/item counters for one link direction pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// `DATA` frames written.
    pub frames_out: u64,
    /// Items carried by those frames.
    pub items_out: u64,
    /// Total bytes written (headers + payloads).
    pub bytes_out: u64,
    /// `DATA` frames read.
    pub frames_in: u64,
    /// Items carried by those frames.
    pub items_in: u64,
    /// Total bytes read (headers + payloads).
    pub bytes_in: u64,
}

impl LinkStats {
    /// Merge another link's counters into this one.
    pub fn merge(&mut self, o: &LinkStats) {
        self.frames_out += o.frames_out;
        self.items_out += o.items_out;
        self.bytes_out += o.bytes_out;
        self.frames_in += o.frames_in;
        self.items_in += o.items_in;
        self.bytes_in += o.bytes_in;
    }
}

/// An inbound `DATA` batch: either a pooled frame buffer parsed in
/// place (UDS) or the items themselves (in-proc).
pub enum DataBatch {
    /// A raw frame payload leased from the receive pool.
    Framed(Lease<Vec<u8>>),
    /// Items moved directly through a channel.
    Direct(Vec<WireItem>),
}

impl std::fmt::Debug for DataBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataBatch::Framed(buf) => write!(f, "DataBatch::Framed({} bytes)", buf.len()),
            DataBatch::Direct(items) => write!(f, "DataBatch::Direct({} items)", items.len()),
        }
    }
}

impl DataBatch {
    /// Number of items in the batch.
    pub fn len(&self) -> usize {
        match self {
            DataBatch::Framed(buf) => {
                u32::from_le_bytes(buf[..4].try_into().expect("frame validated on read")) as usize
            }
            DataBatch::Direct(items) => items.len(),
        }
    }

    /// Whether the batch carries no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visit each `(seq, payload)` in order. Framed batches are parsed
    /// in place — no per-item allocation.
    pub fn for_each(&self, mut f: impl FnMut(u64, &[u8])) {
        match self {
            DataBatch::Framed(buf) => {
                // Layout: [count][count × (seq, len)][concat payloads].
                let count = self.len();
                let mut hdr = 4;
                let mut off = 4 + count * ITEM_HEADER;
                for _ in 0..count {
                    let seq = u64::from_le_bytes(buf[hdr..hdr + 8].try_into().expect("validated"));
                    let len =
                        u32::from_le_bytes(buf[hdr + 8..hdr + 12].try_into().expect("validated"))
                            as usize;
                    hdr += ITEM_HEADER;
                    f(seq, &buf[off..off + len]);
                    off += len;
                }
            }
            DataBatch::Direct(items) => {
                for it in items {
                    f(it.seq, &it.payload);
                }
            }
        }
    }
}

/// A unidirectional-in-spirit link moving coalesced data batches. Both
/// backends also expose the handshake frames (`HELLO`/`READY`) where
/// meaningful; for [`InProcLink`] the handshake is a no-op.
pub trait Transport: Send {
    /// Send one coalesced `DATA` frame carrying `items`.
    fn send_data(&mut self, items: Vec<WireItem>) -> io::Result<()>;
    /// Send the end-of-stream marker.
    fn send_eof(&mut self) -> io::Result<()>;
    /// Blocking receive of the next `DATA` batch; `None` after a clean
    /// `EOF`. A peer that disappears without `EOF` is an error.
    fn recv_data(&mut self) -> io::Result<Option<DataBatch>>;
    /// Counters so far.
    fn stats(&self) -> LinkStats;
}

fn proto_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Write `header` then `payloads` with as few syscalls as the kernel
/// allows, never copying payload bytes into a staging buffer. Handles
/// short writes by re-slicing from the current offset.
fn write_all_vectored(w: &mut impl Write, header: &[u8], payloads: &[WireItem]) -> io::Result<()> {
    // Segment cursor: 0 is the header, 1 + i is payload i.
    let total_segments = 1 + payloads.len();
    let seg = |i: usize| -> &[u8] {
        if i == 0 {
            header
        } else {
            &payloads[i - 1].payload
        }
    };
    let mut idx = 0usize;
    let mut off = 0usize;
    let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(total_segments);
    while idx < total_segments {
        // Skip zero-length segments so the first slice is never empty.
        if off >= seg(idx).len() {
            idx += 1;
            off = 0;
            continue;
        }
        slices.clear();
        slices.push(IoSlice::new(&seg(idx)[off..]));
        for i in idx + 1..total_segments {
            slices.push(IoSlice::new(seg(i)));
        }
        let mut n = w.write_vectored(&slices)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "peer stopped accepting frame bytes",
            ));
        }
        while n > 0 && idx < total_segments {
            let rem = seg(idx).len() - off;
            if n >= rem {
                n -= rem;
                idx += 1;
                off = 0;
            } else {
                off += n;
                n = 0;
            }
        }
    }
    Ok(())
}

/// The UDS backend: a framed [`UnixStream`] plus a receive pool.
pub struct UdsLink {
    stream: UnixStream,
    pool: BufferPool,
    /// Reused header staging buffer for outbound frames.
    hdr: Vec<u8>,
    stats: LinkStats,
}

impl UdsLink {
    /// Wrap an accepted or connected stream. Receive buffers lease from
    /// `pool`.
    pub fn new(stream: UnixStream, pool: BufferPool) -> Self {
        Self {
            stream,
            pool,
            hdr: Vec::new(),
            stats: LinkStats::default(),
        }
    }

    /// Connect to `path`, retrying until `timeout` elapses — the peer
    /// may not have bound its listener yet (spawn races are expected and
    /// benign).
    pub fn connect_retry(path: &Path, pool: BufferPool, timeout: Duration) -> io::Result<Self> {
        let deadline = Instant::now() + timeout;
        loop {
            match UnixStream::connect(path) {
                Ok(s) => return Ok(Self::new(s, pool)),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            e.kind(),
                            format!("connect {}: {e}", path.display()),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }

    /// Bound the time any single blocking socket operation may take, so
    /// a wedged peer turns into an error instead of a hang.
    pub fn set_io_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// Apply a write timeout only (reads may legitimately idle while
    /// the upstream is quiet; writes blocking forever means a dead or
    /// wedged receiver).
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_write_timeout(timeout)
    }

    fn write_frame_header(&mut self, kind: FrameKind, payload_len: usize) {
        self.hdr.clear();
        let total = 1 + payload_len;
        self.hdr.extend_from_slice(&(total as u32).to_le_bytes());
        self.hdr.push(kind as u8);
    }

    /// Send a control frame with a small contiguous payload.
    fn send_control(&mut self, kind: FrameKind, payload: &[u8]) -> io::Result<()> {
        self.write_frame_header(kind, payload.len());
        self.hdr.extend_from_slice(payload);
        self.stream.write_all(&self.hdr)?;
        self.stats.bytes_out += self.hdr.len() as u64;
        Ok(())
    }

    /// Open the link: announce protocol version, plan hash, and sender
    /// identity.
    pub fn send_hello(&mut self, plan_hash: u64, stage: u32, instance: u32) -> io::Result<()> {
        let mut p = [0u8; 17];
        p[0] = PROTOCOL_VERSION;
        p[1..9].copy_from_slice(&plan_hash.to_le_bytes());
        p[9..13].copy_from_slice(&stage.to_le_bytes());
        p[13..17].copy_from_slice(&instance.to_le_bytes());
        self.send_control(FrameKind::Hello, &p)?;
        self.stream.flush()
    }

    /// Expect a `HELLO`; validate version and plan hash, return the
    /// sender's `(stage, instance)`.
    pub fn recv_hello(&mut self, plan_hash: u64) -> io::Result<(u32, u32)> {
        let frame = self
            .read_frame()?
            .ok_or_else(|| proto_err("peer closed before HELLO"))?;
        let (kind, buf) = frame;
        if kind != FrameKind::Hello {
            return Err(proto_err(format!("expected HELLO, got {kind:?}")));
        }
        if buf.len() != 17 {
            return Err(proto_err("malformed HELLO payload"));
        }
        if buf[0] != PROTOCOL_VERSION {
            return Err(proto_err(format!(
                "protocol version mismatch: ours {PROTOCOL_VERSION}, peer {}",
                buf[0]
            )));
        }
        let hash = u64::from_le_bytes(buf[1..9].try_into().expect("sized"));
        if hash != plan_hash {
            return Err(proto_err(format!(
                "plan hash mismatch: ours {plan_hash:#x}, peer {hash:#x}"
            )));
        }
        let stage = u32::from_le_bytes(buf[9..13].try_into().expect("sized"));
        let instance = u32::from_le_bytes(buf[13..17].try_into().expect("sized"));
        Ok((stage, instance))
    }

    /// Acknowledge a valid `HELLO`.
    pub fn send_ready(&mut self) -> io::Result<()> {
        self.send_control(FrameKind::Ready, &[PROTOCOL_VERSION])?;
        self.stream.flush()
    }

    /// Wait for the peer's `READY`.
    pub fn recv_ready(&mut self) -> io::Result<()> {
        let (kind, _) = self
            .read_frame()?
            .ok_or_else(|| proto_err("peer closed before READY"))?;
        if kind != FrameKind::Ready {
            return Err(proto_err(format!("expected READY, got {kind:?}")));
        }
        Ok(())
    }

    /// Send one telemetry snapshot (the worker side of the sidecar
    /// channel). The payload is an opaque serialized
    /// `pipemap-telemetry/v1` document.
    pub fn send_telemetry(&mut self, payload: &[u8]) -> io::Result<()> {
        self.send_control(FrameKind::Telemetry, payload)?;
        self.stream.flush()
    }

    /// Blocking receive on the telemetry channel: `Some(payload)` per
    /// snapshot, `None` after the worker's clean final `EOF`. A raw
    /// close without `EOF` (the worker died) is an error, so the
    /// parent can mark the series stale instead of wedging.
    pub fn recv_telemetry(&mut self) -> io::Result<Option<Lease<Vec<u8>>>> {
        let Some((kind, buf)) = self.read_frame()? else {
            return Err(proto_err(
                "peer closed without EOF (worker died mid-stream?)",
            ));
        };
        match kind {
            FrameKind::Telemetry => Ok(Some(buf)),
            FrameKind::Eof => Ok(None),
            FrameKind::Err => {
                let msg = String::from_utf8_lossy(&buf).into_owned();
                Err(io::Error::other(format!("peer error: {msg}")))
            }
            other => Err(proto_err(format!(
                "unexpected {other:?} on telemetry channel"
            ))),
        }
    }

    /// The naive reference path: one frame per item, header and payload
    /// copied into a freshly allocated contiguous buffer, one `write`
    /// per item. This is what [`Transport::send_data`]'s coalesced
    /// vectored path is benchmarked against.
    pub fn send_data_naive(&mut self, items: &[WireItem]) -> io::Result<()> {
        for it in items {
            let payload_len = 4 + ITEM_HEADER + it.payload.len();
            let mut buf = Vec::with_capacity(5 + payload_len);
            buf.extend_from_slice(&(1 + payload_len as u32).to_le_bytes());
            buf.push(FrameKind::Data as u8);
            buf.extend_from_slice(&1u32.to_le_bytes());
            buf.extend_from_slice(&it.seq.to_le_bytes());
            buf.extend_from_slice(&(it.payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(&it.payload);
            self.stream.write_all(&buf)?;
            self.stats.frames_out += 1;
            self.stats.items_out += 1;
            self.stats.bytes_out += buf.len() as u64;
        }
        Ok(())
    }

    /// Read one raw frame; `None` on a clean close at a frame boundary.
    fn read_frame(&mut self) -> io::Result<Option<(FrameKind, Lease<Vec<u8>>)>> {
        let mut len4 = [0u8; 4];
        match self.stream.read_exact(&mut len4) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let total = u32::from_le_bytes(len4) as usize;
        if total == 0 || total > MAX_FRAME_BYTES {
            return Err(proto_err(format!("implausible frame length {total}")));
        }
        let mut kind1 = [0u8; 1];
        self.stream.read_exact(&mut kind1)?;
        let kind = FrameKind::from_u8(kind1[0])
            .ok_or_else(|| proto_err(format!("unknown frame kind {}", kind1[0])))?;
        let payload_len = total - 1;
        let mut buf = self.pool.take(Vec::new);
        buf.resize(payload_len, 0);
        self.stream.read_exact(&mut buf)?;
        self.stats.bytes_in += (5 + payload_len) as u64;
        Ok(Some((kind, buf)))
    }

    /// Validate a `DATA` frame's internal structure once, on receipt,
    /// so later in-place parsing can index without bounds anxiety.
    fn validate_data(buf: &[u8]) -> io::Result<usize> {
        if buf.len() < 4 {
            return Err(proto_err("DATA frame shorter than its count"));
        }
        let count = u32::from_le_bytes(buf[..4].try_into().expect("sized")) as usize;
        // All item headers come first, then the concatenated payloads.
        let headers_end = 4usize
            .checked_add(
                count
                    .checked_mul(ITEM_HEADER)
                    .ok_or_else(|| proto_err("DATA frame item count overflows"))?,
            )
            .ok_or_else(|| proto_err("DATA frame item count overflows"))?;
        if headers_end > buf.len() {
            return Err(proto_err("DATA frame truncated in item header"));
        }
        let mut off = headers_end;
        for i in 0..count {
            let hdr = 4 + i * ITEM_HEADER;
            let len =
                u32::from_le_bytes(buf[hdr + 8..hdr + 12].try_into().expect("sized")) as usize;
            if len > buf.len() || off + len > buf.len() {
                return Err(proto_err("DATA frame truncated in item payload"));
            }
            off += len;
        }
        if off != buf.len() {
            return Err(proto_err("DATA frame has trailing bytes"));
        }
        Ok(count)
    }
}

impl Transport for UdsLink {
    fn send_data(&mut self, items: Vec<WireItem>) -> io::Result<()> {
        if items.is_empty() {
            return Ok(());
        }
        let payload_bytes: usize = items.iter().map(|i| i.payload.len()).sum();
        let header_payload = 4 + ITEM_HEADER * items.len();
        self.write_frame_header(FrameKind::Data, header_payload + payload_bytes);
        self.hdr
            .extend_from_slice(&(items.len() as u32).to_le_bytes());
        for it in &items {
            self.hdr.extend_from_slice(&it.seq.to_le_bytes());
            self.hdr
                .extend_from_slice(&(it.payload.len() as u32).to_le_bytes());
        }
        let hdr = std::mem::take(&mut self.hdr);
        let res = write_all_vectored(&mut self.stream, &hdr, &items);
        self.hdr = hdr;
        res?;
        self.stats.frames_out += 1;
        self.stats.items_out += items.len() as u64;
        self.stats.bytes_out += (self.hdr.len() + payload_bytes) as u64;
        // Dropping `items` here returns their payload leases to the
        // sender's pool: the send path recycles, end to end.
        Ok(())
    }

    fn send_eof(&mut self) -> io::Result<()> {
        self.send_control(FrameKind::Eof, &[])?;
        self.stream.flush()
    }

    fn recv_data(&mut self) -> io::Result<Option<DataBatch>> {
        let Some((kind, buf)) = self.read_frame()? else {
            return Err(proto_err(
                "peer closed without EOF (worker died mid-stream?)",
            ));
        };
        match kind {
            FrameKind::Data => {
                let count = Self::validate_data(&buf)?;
                self.stats.frames_in += 1;
                self.stats.items_in += count as u64;
                Ok(Some(DataBatch::Framed(buf)))
            }
            FrameKind::Eof => Ok(None),
            FrameKind::Err => {
                let msg = String::from_utf8_lossy(&buf).into_owned();
                Err(io::Error::other(format!("peer error: {msg}")))
            }
            other => Err(proto_err(format!("unexpected {other:?} mid-stream"))),
        }
    }

    fn stats(&self) -> LinkStats {
        self.stats
    }
}

/// Channel message for the in-proc backend.
enum InProcMsg {
    Data(Vec<WireItem>),
    Eof,
}

/// The single-process backend: the same batch semantics over a bounded
/// channel. Useful for engine tests and as the `inproc` transport of
/// the wire plane.
pub struct InProcLink {
    tx: Option<crossbeam::channel::Sender<InProcMsg>>,
    rx: Option<crossbeam::channel::Receiver<InProcMsg>>,
    stats: LinkStats,
}

impl InProcLink {
    /// A connected (sender, receiver) pair over a channel holding at
    /// most `cap` batches.
    pub fn pair(cap: usize) -> (Self, Self) {
        let (tx, rx) = crossbeam::channel::bounded(cap.max(1));
        (
            Self {
                tx: Some(tx),
                rx: None,
                stats: LinkStats::default(),
            },
            Self {
                tx: None,
                rx: Some(rx),
                stats: LinkStats::default(),
            },
        )
    }
}

impl Transport for InProcLink {
    fn send_data(&mut self, items: Vec<WireItem>) -> io::Result<()> {
        if items.is_empty() {
            return Ok(());
        }
        let tx = self
            .tx
            .as_ref()
            .ok_or_else(|| proto_err("receive-only in-proc link"))?;
        self.stats.frames_out += 1;
        self.stats.items_out += items.len() as u64;
        self.stats.bytes_out += items
            .iter()
            .map(|i| i.payload.len() as u64 + ITEM_HEADER as u64)
            .sum::<u64>();
        tx.send(InProcMsg::Data(items))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "receiver hung up"))
    }

    fn send_eof(&mut self) -> io::Result<()> {
        let tx = self
            .tx
            .as_ref()
            .ok_or_else(|| proto_err("receive-only in-proc link"))?;
        tx.send(InProcMsg::Eof)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "receiver hung up"))
    }

    fn recv_data(&mut self) -> io::Result<Option<DataBatch>> {
        let rx = self
            .rx
            .as_ref()
            .ok_or_else(|| proto_err("send-only in-proc link"))?;
        match rx.recv() {
            Ok(InProcMsg::Data(items)) => {
                self.stats.frames_in += 1;
                self.stats.items_in += items.len() as u64;
                self.stats.bytes_in += items
                    .iter()
                    .map(|i| i.payload.len() as u64 + ITEM_HEADER as u64)
                    .sum::<u64>();
                Ok(Some(DataBatch::Direct(items)))
            }
            Ok(InProcMsg::Eof) => Ok(None),
            Err(_) => Err(proto_err("peer closed without EOF")),
        }
    }

    fn stats(&self) -> LinkStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(seq: u64, bytes: &[u8]) -> WireItem {
        WireItem {
            seq,
            payload: Lease::detached(bytes.to_vec()),
        }
    }

    fn uds_pair() -> (UdsLink, UdsLink) {
        let (a, b) = UnixStream::pair().expect("socketpair");
        (
            UdsLink::new(a, BufferPool::new(8)),
            UdsLink::new(b, BufferPool::new(8)),
        )
    }

    #[test]
    fn coalesced_data_round_trips_bit_exactly() {
        let (mut tx, mut rx) = uds_pair();
        let batch = vec![item(3, b"abc"), item(4, b""), item(5, &[7u8; 1000])];
        let writer = std::thread::spawn(move || {
            tx.send_data(batch).unwrap();
            tx.send_eof().unwrap();
            tx
        });
        let got = rx.recv_data().unwrap().expect("one batch");
        let mut seen: Vec<(u64, Vec<u8>)> = Vec::new();
        got.for_each(|seq, bytes| seen.push((seq, bytes.to_vec())));
        assert_eq!(
            seen,
            vec![(3, b"abc".to_vec()), (4, Vec::new()), (5, vec![7u8; 1000])]
        );
        assert!(rx.recv_data().unwrap().is_none(), "clean EOF");
        let tx = writer.join().unwrap();
        assert_eq!(tx.stats().frames_out, 1);
        assert_eq!(tx.stats().items_out, 3);
        assert_eq!(rx.stats().items_in, 3);
    }

    #[test]
    fn naive_and_coalesced_paths_deliver_identical_items() {
        let (mut tx, mut rx) = uds_pair();
        let items: Vec<WireItem> = (0..40)
            .map(|s| item(s, &vec![s as u8; (s as usize * 13) % 257]))
            .collect();
        let expect: Vec<(u64, Vec<u8>)> =
            items.iter().map(|i| (i.seq, i.payload.clone())).collect();
        let writer = std::thread::spawn(move || {
            tx.send_data_naive(&items).unwrap();
            tx.send_eof().unwrap();
        });
        let mut seen: Vec<(u64, Vec<u8>)> = Vec::new();
        while let Some(b) = rx.recv_data().unwrap() {
            b.for_each(|seq, bytes| seen.push((seq, bytes.to_vec())));
        }
        writer.join().unwrap();
        assert_eq!(seen, expect);
        // Naive framing: one frame per item.
        assert_eq!(rx.stats().frames_in, 40);
    }

    #[test]
    fn handshake_validates_version_and_plan_hash() {
        let (mut a, mut b) = uds_pair();
        let t = std::thread::spawn(move || {
            a.send_hello(0xfeed, 2, 1).unwrap();
            a.recv_ready().unwrap();
            a
        });
        let (stage, inst) = b.recv_hello(0xfeed).unwrap();
        assert_eq!((stage, inst), (2, 1));
        b.send_ready().unwrap();
        t.join().unwrap();

        // Mismatched hash is rejected.
        let (mut a, mut b) = uds_pair();
        let t = std::thread::spawn(move || {
            let _ = a.send_hello(0xdead, 0, 0);
        });
        let err = b.recv_hello(0xbeef).unwrap_err();
        assert!(err.to_string().contains("plan hash mismatch"), "{err}");
        t.join().unwrap();
    }

    #[test]
    fn telemetry_frames_round_trip_and_close_semantics_hold() {
        let (mut tx, mut rx) = uds_pair();
        let writer = std::thread::spawn(move || {
            tx.send_telemetry(br#"{"schema":"pipemap-telemetry/v1","pid":1,"seq":1}"#)
                .unwrap();
            tx.send_telemetry(b"second").unwrap();
            tx.send_eof().unwrap();
        });
        let first = rx.recv_telemetry().unwrap().expect("first snapshot");
        assert!(first.starts_with(br#"{"schema""#));
        let second = rx.recv_telemetry().unwrap().expect("second snapshot");
        assert_eq!(&second[..], b"second");
        assert!(rx.recv_telemetry().unwrap().is_none(), "clean EOF");
        writer.join().unwrap();

        // A worker that dies without EOF surfaces as an error, not a hang.
        let (tx, mut rx) = uds_pair();
        drop(tx);
        let err = rx.recv_telemetry().unwrap_err();
        assert!(err.to_string().contains("without EOF"), "{err}");

        // A telemetry frame on a data channel is a protocol error.
        let (mut tx, mut rx) = uds_pair();
        let writer = std::thread::spawn(move || {
            tx.send_telemetry(b"x").unwrap();
        });
        let err = rx.recv_data().unwrap_err();
        assert!(err.to_string().contains("Telemetry"), "{err}");
        writer.join().unwrap();
    }

    #[test]
    fn close_without_eof_is_an_error_not_a_hang() {
        let (tx, mut rx) = uds_pair();
        drop(tx);
        let err = rx.recv_data().unwrap_err();
        assert!(err.to_string().contains("without EOF"), "{err}");
    }

    #[test]
    fn receive_buffers_recycle_through_the_pool() {
        let (a, b) = UnixStream::pair().unwrap();
        let pool = BufferPool::new(8);
        let mut tx = UdsLink::new(a, BufferPool::new(8));
        let mut rx = UdsLink::new(b, pool.clone());
        let writer = std::thread::spawn(move || {
            for round in 0..10u64 {
                tx.send_data(vec![item(round, &[1u8; 256])]).unwrap();
            }
            tx.send_eof().unwrap();
        });
        let mut batches = 0;
        while let Some(b) = rx.recv_data().unwrap() {
            assert_eq!(b.len(), 1);
            batches += 1;
            // The leased frame buffer drops here and returns to the pool.
        }
        writer.join().unwrap();
        assert_eq!(batches, 10);
        let stats = pool.stats();
        assert!(
            stats.hits >= 8,
            "steady-state receive should be allocation-free: {stats:?}"
        );
    }

    #[test]
    fn in_proc_pair_matches_the_framed_semantics() {
        let (mut tx, mut rx) = InProcLink::pair(4);
        tx.send_data(vec![item(0, b"x"), item(1, b"yy")]).unwrap();
        tx.send_eof().unwrap();
        let b = rx.recv_data().unwrap().expect("batch");
        assert_eq!(b.len(), 2);
        let mut seqs = Vec::new();
        b.for_each(|s, _| seqs.push(s));
        assert_eq!(seqs, vec![0, 1]);
        assert!(rx.recv_data().unwrap().is_none());
    }

    #[test]
    fn vectored_write_handles_many_segments() {
        // Enough payload segments to exceed typical IOV_MAX batching in
        // one call; the loop must still deliver every byte in order.
        let (mut tx, mut rx) = uds_pair();
        let items: Vec<WireItem> = (0..2000).map(|s| item(s, &[s as u8; 3])).collect();
        let writer = std::thread::spawn(move || {
            tx.send_data(items).unwrap();
            tx.send_eof().unwrap();
        });
        let b = rx.recv_data().unwrap().expect("batch");
        assert_eq!(b.len(), 2000);
        let mut ok = true;
        b.for_each(|seq, bytes| ok &= bytes == [seq as u8; 3]);
        assert!(ok);
        writer.join().unwrap();
    }
}
