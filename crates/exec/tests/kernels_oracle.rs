//! The FFT kernels against their former serial implementation, kept here
//! as the oracle: `fft_inplace` stepped its twiddle factor inside the
//! butterfly loop, and `fft_cols` transposed the matrix, ran row FFTs and
//! transposed back. The oracle bodies below are those functions verbatim
//! and serial; only the complex helpers became free functions, because
//! `Complex`'s arithmetic is private to the crate. Every comparison is bit
//! for bit, on `to_bits` of both parts.

use std::f64::consts::PI;

use pipemap_exec::kernels::{fft_cols, fft_inplace, fft_rows, transpose, Complex, Matrix};
use proptest::prelude::*;

fn mul(a: Complex, o: Complex) -> Complex {
    Complex::new(a.re * o.re - a.im * o.im, a.re * o.im + a.im * o.re)
}

fn add(a: Complex, o: Complex) -> Complex {
    Complex::new(a.re + o.re, a.im + o.im)
}

fn sub(a: Complex, o: Complex) -> Complex {
    Complex::new(a.re - o.re, a.im - o.im)
}

/// In-place iterative radix-2 Cooley–Tukey FFT.
fn oracle_fft_inplace(data: &mut [Complex]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if i < j {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * PI / len as f64;
        let wlen = Complex::new(ang.cos(), ang.sin());
        for chunk in data.chunks_mut(len) {
            let mut w = Complex::new(1.0, 0.0);
            let half = len / 2;
            for i in 0..half {
                let u = chunk[i];
                let v = mul(chunk[i + half], w);
                chunk[i] = add(u, v);
                chunk[i + half] = sub(u, v);
                w = mul(w, wlen);
            }
        }
        len <<= 1;
    }
}

/// FFT every row of the matrix.
fn oracle_fft_rows(m: &mut Matrix) {
    let n = m.n;
    for row in m.data.chunks_mut(n) {
        oracle_fft_inplace(row);
    }
}

/// Transpose the matrix in place.
fn oracle_transpose(m: &mut Matrix) {
    let n = m.n;
    for r in 0..n {
        for c in r + 1..n {
            m.data.swap(r * n + c, c * n + r);
        }
    }
}

/// FFT every column: transpose, row-FFT, transpose back.
fn oracle_fft_cols(m: &mut Matrix) {
    oracle_transpose(m);
    oracle_fft_rows(m);
    oracle_transpose(m);
}

/// The first index at which `got` and `want` differ in the bits of
/// either part, with both values; `None` when they are bit for bit equal.
fn first_difference(got: &[Complex], want: &[Complex]) -> Option<(usize, Complex, Complex)> {
    assert_eq!(got.len(), want.len());
    let bits = |x: &Complex| (x.re.to_bits(), x.im.to_bits());
    got.iter()
        .zip(want)
        .position(|(g, w)| bits(g) != bits(w))
        .map(|i| (i, got[i], want[i]))
}

/// SplitMix64: the entries' source, so a large matrix costs no more
/// strategy draws than a small one.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A finite value: a signed zero, or a signed `mantissa · 10^exp` with
/// `mantissa` in [1, 10) and the exponent either anywhere in −300..300
/// or near 0 (where the butterflies' roundings are least masked by
/// magnitude differences).
fn value(state: &mut u64) -> f64 {
    let r = next(state);
    let mantissa = 1.0 + 9.0 * ((r >> 11) as f64 / (1u64 << 53) as f64);
    let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
    match (r >> 1) % 8 {
        0 => 0.0,
        1 => -0.0,
        2..=4 => sign * mantissa * 10f64.powi(((r >> 4) % 600) as i32 - 300),
        _ => sign * mantissa * 10f64.powi(((r >> 4) % 3) as i32 - 1),
    }
}

/// A square matrix of edge `2^log_n` whose entries derive from `seed`.
fn matrix(log_n: u32, seed: u64) -> Matrix {
    let n = 1usize << log_n;
    let mut state = seed;
    Matrix {
        n,
        data: (0..n * n)
            .map(|_| Complex::new(value(&mut state), value(&mut state)))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fft_inplace_matches_oracle_bitwise(log_n in 0..=8u32, seed in 0..u64::MAX) {
        let m = matrix(log_n, seed);
        // One row of the matrix, plus the whole matrix as one long
        // sequence (up to 65 536 points).
        for data in [m.row(0).to_vec(), m.data.clone()] {
            let mut got = data.clone();
            let mut want = data;
            fft_inplace(&mut got);
            oracle_fft_inplace(&mut want);
            prop_assert_eq!(first_difference(&got, &want), None, "n = {}", got.len());
        }
    }

    #[test]
    fn matrix_ffts_match_oracle_bitwise(log_n in 0..=8u32, seed in 0..u64::MAX, threads in 1..=5usize) {
        let m = matrix(log_n, seed);
        let n = m.n;

        let mut got = m.clone();
        let mut want = m.clone();
        fft_rows(&mut got, threads);
        oracle_fft_rows(&mut want);
        prop_assert_eq!(first_difference(&got.data, &want.data), None, "fft_rows n = {} threads = {}", n, threads);

        let mut got = m.clone();
        let mut want = m.clone();
        fft_cols(&mut got, threads);
        oracle_fft_cols(&mut want);
        prop_assert_eq!(first_difference(&got.data, &want.data), None, "fft_cols n = {} threads = {}", n, threads);

        // The FFT-Hist prefix: column FFTs, then row FFTs.
        fft_rows(&mut got, threads);
        oracle_fft_rows(&mut want);
        prop_assert_eq!(first_difference(&got.data, &want.data), None, "2-D FFT n = {} threads = {}", n, threads);

        let mut got = m.clone();
        let mut want = m;
        transpose(&mut got);
        oracle_transpose(&mut want);
        prop_assert_eq!(first_difference(&got.data, &want.data), None, "transpose n = {}", n);
    }
}
