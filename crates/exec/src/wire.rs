//! Byte-level stage kernels and plans for the out-of-process data plane.
//!
//! The in-process executor passes `Box<dyn Any>` between stages; a
//! worker *process* can only receive bytes. [`WireKernel`] is the small
//! closed set of computations a worker knows how to run directly on
//! encoded payloads: each kernel decodes little-endian bytes into
//! scratch, runs the same kernel functions from [`crate::kernels`], and
//! re-encodes. Because both the in-process and cross-process paths call
//! the same kernels on the same decoded values and encode with
//! `to_le_bytes`, output is bit-identical across transports — the
//! property the UDS tests pin down.
//!
//! [`WirePlan`] is the cross-process analogue of
//! [`crate::PipelinePlan`]: stage kernels, replica and thread counts,
//! and transport tuning (batch, age flush, queue depth). It serializes
//! to a single-line string handed to workers via the
//! `PIPEMAP_WIRE_PLAN` environment variable, and hashes to the value
//! both ends validate during the `HELLO` handshake.

use std::sync::Arc;

use crate::executor::DEFAULT_FLUSH_US;
use crate::kernels::{fft_cols, fft_rows, histogram, Complex, Matrix};
use crate::stage::Stage;

/// Environment variable carrying the serialized plan to workers.
pub const WIRE_PLAN_ENV: &str = "PIPEMAP_WIRE_PLAN";

/// Multiplier of the `mix` micro-kernel (same constant as the tool's
/// in-process micro workload, so the two planes compute the same
/// function).
pub const MIX_PRIME: u64 = 0x9E37_79B9_7F4A_7C15;

/// A computation a worker process can run on encoded payloads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WireKernel {
    /// `u64` array, each element `x → rotl(x · MIX_PRIME, 13) ^ salt`.
    Mix {
        /// Per-stage salt so consecutive stages differ.
        salt: u64,
    },
    /// FFT of every row of a square complex matrix.
    FftRows,
    /// FFT of every column, as butterflies between whole rows (no
    /// transpose).
    FftCols,
    /// Histogram of squared magnitudes into `bins` buckets over
    /// `[0, max)`; output is the `u64` bin counts.
    Histogram {
        /// Number of buckets.
        bins: u32,
        /// Upper bound of the value range.
        max: f64,
    },
    /// Identity: output bytes equal input bytes (calibration probe).
    Echo,
    /// Identity that abruptly kills the process after `n` items — a
    /// fault-injection kernel for the worker-death tests.
    CrashAfter {
        /// Items to pass through before exiting.
        n: u64,
    },
}

/// Reusable decode/compute buffers so steady-state kernel application
/// allocates nothing.
#[derive(Default)]
pub struct WireScratch {
    words: Vec<u64>,
    matrix: Option<Matrix>,
}

fn decode_words(bytes: &[u8], out: &mut Vec<u64>) -> Result<(), String> {
    if !bytes.len().is_multiple_of(8) {
        return Err(format!(
            "payload length {} not a multiple of 8",
            bytes.len()
        ));
    }
    out.clear();
    out.reserve(bytes.len() / 8);
    for chunk in bytes.chunks_exact(8) {
        out.push(u64::from_le_bytes(chunk.try_into().expect("sized")));
    }
    Ok(())
}

fn encode_words(words: &[u64], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(words.len() * 8);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

fn decode_matrix(bytes: &[u8], slot: &mut Option<Matrix>) -> Result<(), String> {
    if !bytes.len().is_multiple_of(16) {
        return Err(format!(
            "matrix payload length {} not a multiple of 16",
            bytes.len()
        ));
    }
    let elems = bytes.len() / 16;
    let n = (elems as f64).sqrt().round() as usize;
    if n * n != elems {
        return Err(format!("matrix payload of {elems} elements is not square"));
    }
    let m = slot.get_or_insert_with(|| Matrix::zero(n));
    if m.n != n {
        *m = Matrix::zero(n);
    }
    for (i, chunk) in bytes.chunks_exact(16).enumerate() {
        let re = f64::from_le_bytes(chunk[..8].try_into().expect("sized"));
        let im = f64::from_le_bytes(chunk[8..].try_into().expect("sized"));
        m.data[i] = Complex::new(re, im);
    }
    Ok(())
}

fn encode_matrix(m: &Matrix, out: &mut Vec<u8>) {
    out.clear();
    out.reserve(m.data.len() * 16);
    for c in &m.data {
        out.extend_from_slice(&c.re.to_le_bytes());
        out.extend_from_slice(&c.im.to_le_bytes());
    }
}

/// The `mix` transform shared with the tool's micro workload.
pub fn mix_words(words: &mut [u64], salt: u64) {
    for x in words.iter_mut() {
        *x = x.wrapping_mul(MIX_PRIME).rotate_left(13) ^ salt;
    }
}

impl WireKernel {
    /// Run the kernel: decode `input`, compute with `threads`, encode
    /// into `out` (cleared first). `CrashAfter` behaves as `Echo` here —
    /// the *process exit* is the worker loop's job, not the kernel's.
    pub fn apply(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
        scratch: &mut WireScratch,
        threads: usize,
    ) -> Result<(), String> {
        match *self {
            WireKernel::Mix { salt } => {
                decode_words(input, &mut scratch.words)?;
                mix_words(&mut scratch.words, salt);
                encode_words(&scratch.words, out);
            }
            WireKernel::FftRows => {
                decode_matrix(input, &mut scratch.matrix)?;
                let m = scratch.matrix.as_mut().expect("decoded");
                fft_rows(m, threads);
                encode_matrix(m, out);
            }
            WireKernel::FftCols => {
                decode_matrix(input, &mut scratch.matrix)?;
                let m = scratch.matrix.as_mut().expect("decoded");
                fft_cols(m, threads);
                encode_matrix(m, out);
            }
            WireKernel::Histogram { bins, max } => {
                decode_matrix(input, &mut scratch.matrix)?;
                let m = scratch.matrix.as_ref().expect("decoded");
                let h = histogram(m, bins as usize, max, threads);
                encode_words(&h, out);
            }
            WireKernel::Echo | WireKernel::CrashAfter { .. } => {
                out.clear();
                out.extend_from_slice(input);
            }
        }
        Ok(())
    }

    /// A short display name for stats and stage labels.
    pub fn name(&self) -> String {
        match self {
            WireKernel::Mix { salt } => format!("mix{salt}"),
            WireKernel::FftRows => "rowffts".to_string(),
            WireKernel::FftCols => "colffts".to_string(),
            WireKernel::Histogram { .. } => "histogram".to_string(),
            WireKernel::Echo => "echo".to_string(),
            WireKernel::CrashAfter { .. } => "crash".to_string(),
        }
    }

    /// The same computation as an in-process [`Stage`] over `Vec<u8>`
    /// payloads — the reference the UDS bit-identity property compares
    /// against.
    pub fn stage(&self) -> Stage {
        let k = *self;
        let name: Arc<str> = self.name().into();
        Stage::new::<Vec<u8>, Vec<u8>, _>(name, move |input, threads| {
            let mut scratch = WireScratch::default();
            let mut out = Vec::new();
            k.apply(&input, &mut out, &mut scratch, threads)
                .unwrap_or_else(|e| panic!("wire kernel {k:?}: {e}"));
            out
        })
    }

    fn format(&self) -> String {
        match self {
            WireKernel::Mix { salt } => format!("mix:{salt}"),
            WireKernel::FftRows => "fftrows".to_string(),
            WireKernel::FftCols => "fftcols".to_string(),
            WireKernel::Histogram { bins, max } => {
                format!("hist:{bins}:{}", max.to_bits())
            }
            WireKernel::Echo => "echo".to_string(),
            WireKernel::CrashAfter { n } => format!("crash:{n}"),
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or("");
        let kernel = match head {
            "mix" => WireKernel::Mix {
                salt: parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad mix kernel '{s}'"))?,
            },
            "fftrows" => WireKernel::FftRows,
            "fftcols" => WireKernel::FftCols,
            "hist" => {
                let bins = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad hist bins in '{s}'"))?;
                let max_bits: u64 = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad hist max in '{s}'"))?;
                WireKernel::Histogram {
                    bins,
                    max: f64::from_bits(max_bits),
                }
            }
            "echo" => WireKernel::Echo,
            "crash" => WireKernel::CrashAfter {
                n: parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad crash kernel '{s}'"))?,
            },
            other => return Err(format!("unknown wire kernel '{other}'")),
        };
        if parts.next().is_some() {
            return Err(format!("trailing fields in kernel '{s}'"));
        }
        Ok(kernel)
    }
}

/// One stage of a wire plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireStagePlan {
    /// The computation.
    pub kernel: WireKernel,
    /// Worker processes running this stage (round-robin by seq).
    pub replicas: usize,
    /// Data-parallel threads inside each worker.
    pub threads: usize,
}

impl WireStagePlan {
    /// A stage plan.
    pub fn new(kernel: WireKernel, replicas: usize, threads: usize) -> Self {
        Self {
            kernel,
            replicas: replicas.max(1),
            threads: threads.max(1),
        }
    }
}

/// A cross-process pipeline plan: what every worker needs to know to
/// play its part, serialized into its environment.
#[derive(Clone, Debug, PartialEq)]
pub struct WirePlan {
    /// The stages, source to sink.
    pub stages: Vec<WireStagePlan>,
    /// Items coalesced per `DATA` frame before an eager flush.
    pub batch: usize,
    /// Age-based flush for partially filled frames (µs).
    pub flush_us: u64,
    /// Bound on queued frames inside each worker.
    pub queue_depth: usize,
    /// Journey sampling: record every `sample`-th data set (0 = off).
    pub journey_sample: u64,
    /// Shared wall-clock epoch (unix µs) so per-process timestamps form
    /// one timeline. The parent picks it just before spawning.
    pub epoch_unix_us: u64,
    /// Telemetry frame interval (µs). When nonzero each worker runs a
    /// local registry and ships its cumulative totals to the parent over
    /// a dedicated TELEMETRY socket this often; 0 disables the sidecar.
    pub telemetry_us: u64,
}

impl WirePlan {
    /// A plan with transport defaults (batch 32, 200 µs flush, queue
    /// depth 4, journeys off).
    pub fn new(stages: Vec<WireStagePlan>) -> Self {
        Self {
            stages,
            batch: 32,
            flush_us: DEFAULT_FLUSH_US,
            queue_depth: 4,
            journey_sample: 0,
            epoch_unix_us: 0,
            telemetry_us: 0,
        }
    }

    /// Serialize to the single-line form carried in `PIPEMAP_WIRE_PLAN`.
    pub fn serialize(&self) -> String {
        let mut s = format!(
            "v1;batch={};flush_us={};queue={};sample={};epoch={};telem={}",
            self.batch,
            self.flush_us,
            self.queue_depth,
            self.journey_sample,
            self.epoch_unix_us,
            self.telemetry_us
        );
        for st in &self.stages {
            s.push_str(&format!(
                ";stage={}@{}x{}",
                st.kernel.format(),
                st.replicas,
                st.threads
            ));
        }
        s
    }

    /// Parse the serialized form.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut fields = s.split(';');
        if fields.next() != Some("v1") {
            return Err(format!("unknown wire plan version in '{s}'"));
        }
        let mut plan = WirePlan::new(Vec::new());
        for field in fields {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("malformed wire plan field '{field}'"))?;
            let num = |v: &str| -> Result<u64, String> {
                v.parse()
                    .map_err(|_| format!("bad number '{v}' in '{field}'"))
            };
            match key {
                "batch" => plan.batch = num(value)? as usize,
                "flush_us" => plan.flush_us = num(value)?,
                "queue" => plan.queue_depth = num(value)? as usize,
                "sample" => plan.journey_sample = num(value)?,
                "epoch" => plan.epoch_unix_us = num(value)?,
                "telem" => plan.telemetry_us = num(value)?,
                "stage" => {
                    let (kernel, shape) = value
                        .split_once('@')
                        .ok_or_else(|| format!("stage missing shape in '{value}'"))?;
                    let (replicas, threads) = shape
                        .split_once('x')
                        .ok_or_else(|| format!("stage shape not RxT in '{shape}'"))?;
                    plan.stages.push(WireStagePlan::new(
                        WireKernel::parse(kernel)?,
                        num(replicas)? as usize,
                        num(threads)? as usize,
                    ));
                }
                other => return Err(format!("unknown wire plan field '{other}'")),
            }
        }
        if plan.stages.is_empty() {
            return Err("wire plan has no stages".to_string());
        }
        if plan.batch == 0 || plan.queue_depth == 0 {
            return Err("batch and queue depth must be >= 1".to_string());
        }
        Ok(plan)
    }

    /// FNV-1a hash of the serialized plan — the value the `HELLO`
    /// handshake validates so mismatched processes fail fast instead of
    /// mis-parsing each other's frames.
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.serialize().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Stage display names, in order.
    pub fn stage_names(&self) -> Vec<String> {
        self.stages.iter().map(|s| s.kernel.name()).collect()
    }

    /// Replica counts, in order.
    pub fn replicas(&self) -> Vec<usize> {
        self.stages.iter().map(|s| s.replicas).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_round_trips_through_its_env_form() {
        let mut plan = WirePlan::new(vec![
            WireStagePlan::new(WireKernel::Mix { salt: 7 }, 2, 3),
            WireStagePlan::new(WireKernel::FftRows, 1, 2),
            WireStagePlan::new(
                WireKernel::Histogram {
                    bins: 64,
                    max: 123.456,
                },
                4,
                1,
            ),
            WireStagePlan::new(WireKernel::CrashAfter { n: 9 }, 1, 1),
        ]);
        plan.batch = 16;
        plan.flush_us = 500;
        plan.queue_depth = 2;
        plan.journey_sample = 8;
        plan.epoch_unix_us = 1_234_567;
        plan.telemetry_us = 250_000;
        let s = plan.serialize();
        let back = WirePlan::parse(&s).expect("parse");
        assert_eq!(back, plan);
        assert_eq!(back.hash(), plan.hash());
        // Histogram max survives bit-exactly (it travels as bits).
        match back.stages[2].kernel {
            WireKernel::Histogram { max, .. } => assert_eq!(max.to_bits(), 123.456f64.to_bits()),
            other => panic!("wrong kernel {other:?}"),
        }
    }

    #[test]
    fn different_plans_hash_differently() {
        let a = WirePlan::new(vec![WireStagePlan::new(WireKernel::Mix { salt: 1 }, 1, 1)]);
        let b = WirePlan::new(vec![WireStagePlan::new(WireKernel::Mix { salt: 2 }, 1, 1)]);
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(WirePlan::parse("v2;stage=echo@1x1").is_err());
        assert!(WirePlan::parse("v1").is_err(), "no stages");
        assert!(WirePlan::parse("v1;stage=warp@1x1").is_err());
        assert!(WirePlan::parse("v1;batch=0;stage=echo@1x1").is_err());
        assert!(WirePlan::parse("v1;stage=echo").is_err(), "missing shape");
    }

    #[test]
    fn mix_kernel_is_deterministic_and_threadcount_free() {
        let input: Vec<u8> = (0..64u64).flat_map(|x| x.to_le_bytes()).collect();
        let k = WireKernel::Mix { salt: 3 };
        let mut scratch = WireScratch::default();
        let mut a = Vec::new();
        let mut b = Vec::new();
        k.apply(&input, &mut a, &mut scratch, 1).unwrap();
        k.apply(&input, &mut b, &mut scratch, 4).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, input);
    }

    #[test]
    fn fft_kernels_are_threadcount_invariant_at_the_byte_level() {
        // 8x8 matrix of deterministic values.
        let n = 8usize;
        let mut input = Vec::new();
        for i in 0..n * n {
            input.extend_from_slice(&(i as f64).to_le_bytes());
            input.extend_from_slice(&(0.0f64).to_le_bytes());
        }
        for k in [WireKernel::FftRows, WireKernel::FftCols] {
            let mut s1 = WireScratch::default();
            let mut s4 = WireScratch::default();
            let mut a = Vec::new();
            let mut b = Vec::new();
            k.apply(&input, &mut a, &mut s1, 1).unwrap();
            k.apply(&input, &mut b, &mut s4, 4).unwrap();
            assert_eq!(a, b, "{k:?} must not depend on thread count");
        }
    }

    #[test]
    fn histogram_kernel_counts_every_element() {
        let n = 4usize;
        let mut input = Vec::new();
        for i in 0..n * n {
            input.extend_from_slice(&(i as f64 * 0.1).to_le_bytes());
            input.extend_from_slice(&(0.0f64).to_le_bytes());
        }
        let k = WireKernel::Histogram { bins: 8, max: 4.0 };
        let mut scratch = WireScratch::default();
        let mut out = Vec::new();
        k.apply(&input, &mut out, &mut scratch, 2).unwrap();
        let mut total = 0u64;
        for c in out.chunks_exact(8) {
            total += u64::from_le_bytes(c.try_into().unwrap());
        }
        assert_eq!(total, (n * n) as u64);
    }

    #[test]
    fn stage_wrapper_matches_direct_apply() {
        let k = WireKernel::Mix { salt: 11 };
        let input: Vec<u8> = (0..16u64).flat_map(|x| x.to_le_bytes()).collect();
        let mut scratch = WireScratch::default();
        let mut direct = Vec::new();
        k.apply(&input, &mut direct, &mut scratch, 1).unwrap();
        let staged = k.stage().apply(Box::new(input), 1);
        assert_eq!(*staged.downcast::<Vec<u8>>().unwrap(), direct);
    }

    #[test]
    fn bad_payloads_are_errors_not_panics() {
        let mut scratch = WireScratch::default();
        let mut out = Vec::new();
        assert!(WireKernel::Mix { salt: 0 }
            .apply(&[1, 2, 3], &mut out, &mut scratch, 1)
            .is_err());
        assert!(
            WireKernel::FftRows
                .apply(&[0u8; 48], &mut out, &mut scratch, 1)
                .is_err(),
            "3 elements is not square"
        );
    }
}
