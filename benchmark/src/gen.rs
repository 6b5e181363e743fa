//! Seeded input generators. Everything a workload feeds the program is
//! derived here from `--seed`, and every generator folds what it produced
//! into an [`InputHash`] so two runs can be compared input for input.

use pipemap_apps::{synthetic_chain, ChainFlavor};
use pipemap_core::CostDeltas;
use pipemap_machine::AppWorkload;

/// SplitMix64: tiny, seedable, and good enough to jitter work sizes.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed, so adding a stream
    /// never shifts the numbers another stream sees.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut h = InputHash::default();
        h.bytes(stream.as_bytes());
        Rng(seed ^ h.0)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over everything the generators hand out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InputHash(pub u64);

impl Default for InputHash {
    fn default() -> Self {
        InputHash(0xcbf2_9ce4_8422_2325)
    }
}

impl InputHash {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// As written in the `expected/` files.
    pub fn hex(&self) -> String {
        format!("0x{:016x}", self.0)
    }

    /// The low 32 bits, which an `f64` metric value carries exactly.
    pub fn low32(&self) -> f64 {
        (self.0 & 0xffff_ffff) as f64
    }
}

pub const FLAVORS: [ChainFlavor; 4] = [
    ChainFlavor::ComputeBound,
    ChainFlavor::CommBound,
    ChainFlavor::MemoryBound,
    ChainFlavor::Alternating,
];

/// `synthetic_chain(flavor, k)` with every task's flop counts and every
/// edge's byte count scaled by its own factor in `[1 - spread, 1 + spread)`.
pub fn jittered_chain(
    flavor: ChainFlavor,
    k: usize,
    spread: f64,
    rng: &mut Rng,
    hash: &mut InputHash,
) -> AppWorkload {
    let mut app = synthetic_chain(flavor, k);
    for t in &mut app.tasks {
        let f = rng.range(1.0 - spread, 1.0 + spread);
        t.seq_flops *= f;
        t.par_flops *= f;
        hash.f64(t.seq_flops);
        hash.f64(t.par_flops);
    }
    for e in &mut app.edges {
        e.bytes *= rng.range(1.0 - spread, 1.0 + spread);
        hash.f64(e.bytes);
    }
    app
}

/// The drift stream of `plan_replan`: `n` updates over a `k`-task chain,
/// alternating a small drift (within ±2 % of one stage) with a large one
/// (0.8–1.25× on one to three stages).
///
/// How much of the retained table an update invalidates depends on the
/// earliest stage it touches, so that stage is stratified: it walks a
/// seeded permutation of the stages, and the extra stages of a large
/// update lie at or after it. Every seed therefore asks for the same
/// amount of re-solving, with different stages in a different order
/// drifting by different factors.
pub fn drift_stream(k: usize, n: usize, rng: &mut Rng, hash: &mut InputHash) -> Vec<CostDeltas> {
    let mut order: Vec<usize> = (0..k).collect();
    for i in (1..k).rev() {
        order.swap(i, rng.below(i + 1));
    }
    (0..n)
        .map(|i| {
            let mut d = CostDeltas::identity(k);
            let first = order[(i / 2) % k];
            let mut drift = |stage: usize, g: f64| {
                d.set_exec(stage, g);
                hash.u64(stage as u64);
                hash.f64(g);
            };
            if i % 2 == 0 {
                drift(first, rng.range(0.98, 1.02));
            } else {
                // Log-uniform, so 0.8x and 1.25x are equally likely.
                let large = |rng: &mut Rng| rng.range(0.8f64.ln(), 1.25f64.ln()).exp();
                drift(first, large(rng));
                for _ in 0..rng.below(3) {
                    drift(first + rng.below(k - first), large(rng));
                }
            }
            d
        })
        .collect()
}

/// Word `j` of micro data set `seq`: the seed salts what `pipemap load`
/// would send, so payload bytes differ by seed but cost the same to mix.
pub fn micro_word(seed: u64, seq: u64, j: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seq ^ ((j as u64) << 32)
}

/// Real part of element `(r, c)` of FFT data set `seq` (imaginary is 0).
pub fn fft_elem(seed: u64, seq: u64, r: usize, c: usize) -> f64 {
    let s = (seed % 89) as usize;
    ((r * 31 + c * 17 + seq as usize * 7 + s * 13) % 97) as f64 / 97.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let gen = |seed| {
            let mut h = InputHash::default();
            let mut rng = Rng::new(seed, "t");
            let app = jittered_chain(ChainFlavor::Alternating, 8, 0.2, &mut rng, &mut h);
            let drifts = drift_stream(8, 48, &mut rng, &mut h);
            (h, app.tasks[3].par_flops, drifts[5].exec().to_vec())
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7).0, gen(8).0);
        assert_ne!(micro_word(1, 5, 3), micro_word(2, 5, 3));
        assert_ne!(fft_elem(1, 5, 3, 4), fft_elem(2, 5, 3, 4));
    }

    #[test]
    fn jitter_stays_inside_its_spread_and_streams_are_independent() {
        let base = synthetic_chain(ChainFlavor::CommBound, 6);
        let mut h = InputHash::default();
        let app = jittered_chain(
            ChainFlavor::CommBound,
            6,
            0.2,
            &mut Rng::new(3, "a"),
            &mut h,
        );
        for (t, b) in app.tasks.iter().zip(&base.tasks) {
            let f = t.par_flops / b.par_flops;
            assert!((0.8..1.2).contains(&f), "{f}");
        }
        assert_ne!(Rng::new(3, "a").next_u64(), Rng::new(3, "b").next_u64());
        let mut r = Rng::new(1, "u");
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn drift_stream_alternates_small_and_large_updates() {
        let mut h = InputHash::default();
        let d = drift_stream(8, 48, &mut Rng::new(11, "d"), &mut h);
        assert_eq!(d.len(), 48);
        let mut firsts = [Vec::new(), Vec::new()];
        for (i, delta) in d.iter().enumerate() {
            let moved: Vec<f64> = delta.exec().iter().copied().filter(|g| *g != 1.0).collect();
            assert!(!moved.is_empty() && moved.len() <= 3);
            // The earliest drifted stage walks a permutation of the stages.
            let first = delta.exec().iter().position(|g| *g != 1.0).unwrap();
            firsts[i % 2].push(first);
            for g in moved {
                if i % 2 == 0 {
                    assert!((0.98..1.02).contains(&g), "small {g}");
                } else {
                    assert!((0.8..1.25).contains(&g), "large {g}");
                }
            }
        }
        for f in &mut firsts {
            assert_eq!(f[..8], f[8..16]);
            f.truncate(8);
            f.sort_unstable();
            assert_eq!(*f, (0..8).collect::<Vec<_>>());
        }
    }
}
