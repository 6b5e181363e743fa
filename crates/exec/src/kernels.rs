//! Data parallel kernels used by the example applications.
//!
//! Each kernel takes a `threads` argument and splits its independent work
//! units (columns, rows, disparity levels) across that many worker
//! threads with `std::thread::scope` — the shared-memory analogue of the
//! processors assigned to a module instance. `threads = 1` runs inline.

use std::f64::consts::PI;

/// A complex number (the FFT element type).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// A new complex number.
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }

    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }

    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }

    /// Squared magnitude.
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

/// In-place iterative radix-2 Cooley–Tukey FFT. Its twiddle factors come
/// from a table built once per call with the running-product recurrence
/// the butterfly loop would otherwise step, so the output bits are those
/// of that loop.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn fft_inplace(data: &mut [Complex]) {
    fft_lanes(data, &twiddles(data.len()));
}

/// Twiddle factors of every butterfly span of an `n`-point FFT, `n - 1`
/// values in all: the span of `len = 2·half` points holds its `half`
/// factors at `[half - 1, 2·half - 1)`.
///
/// A span's factors are the serial running product `w₀ = 1`,
/// `wᵢ₊₁ = wᵢ · wlen` with `wlen = (cos, sin)(−2π / len)`: the recurrence
/// a textbook radix-2 loop steps inside its butterflies, evaluated with
/// the same operations in the same order. A lookup therefore returns
/// bit for bit the factor that loop would use, without putting the
/// four-multiply recurrence on every butterfly's dependency chain.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
fn twiddles(n: usize) -> Vec<Complex> {
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    let mut table = Vec::with_capacity(n - 1);
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * PI / len as f64;
        let wlen = Complex::new(ang.cos(), ang.sin());
        let mut w = Complex::new(1.0, 0.0);
        for _ in 0..len / 2 {
            table.push(w);
            w = w.mul(wlen);
        }
        len <<= 1;
    }
    table
}

/// One point of the sequence an FFT transforms: a single value (an FFT
/// along a row) or a segment of a matrix row, whose columns then
/// transform side by side (FFTs down the columns).
trait Lane {
    /// The radix-2 butterfly `(a, b) ← (a + b·w, a − b·w)`.
    fn butterfly(&mut self, hi: &mut Self, w: Complex);
    /// Exchange two points (the bit-reversal permutation).
    fn exchange(&mut self, other: &mut Self);
}

impl Lane for Complex {
    #[inline(always)]
    fn butterfly(&mut self, hi: &mut Self, w: Complex) {
        let u = *self;
        let v = hi.mul(w);
        *self = u.add(v);
        *hi = u.sub(v);
    }

    fn exchange(&mut self, other: &mut Self) {
        std::mem::swap(self, other);
    }
}

impl Lane for &mut [Complex] {
    /// Every column's butterfly with the one factor `w`. Each element
    /// sees exactly the operations, in the order, of the per-column FFT,
    /// so the result does not depend on how the columns are grouped;
    /// the loop runs along contiguous memory.
    #[inline(always)]
    fn butterfly(&mut self, hi: &mut Self, w: Complex) {
        for (a, b) in self.iter_mut().zip(hi.iter_mut()) {
            a.butterfly(b, w);
        }
    }

    fn exchange(&mut self, other: &mut Self) {
        self.swap_with_slice(other);
    }
}

/// Radix-2 decimation-in-time FFT over `points`, in place, with the
/// factors of [`twiddles`] for `points.len()`.
///
/// Bit-reversal order, span order and the butterfly's operations are
/// those of the textbook loop that steps `w ← w · wlen` inside its
/// butterflies; the factors are that loop's own (see [`twiddles`]); and
/// Rust never fuses a multiply and an add into an FMA. So the output is
/// bit for bit what that loop computes, for one sequence of values or for
/// every column of a list of row segments.
fn fft_lanes<L: Lane>(points: &mut [L], table: &[Complex]) {
    let n = points.len();
    if n <= 1 {
        return;
    }
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = ((i as u32).reverse_bits() >> (32 - bits)) as usize;
        if i < j {
            let (head, tail) = points.split_at_mut(j);
            head[i].exchange(&mut tail[0]);
        }
    }
    let mut half = 1;
    while half < n {
        let factors = &table[half - 1..2 * half - 1];
        for chunk in points.chunks_exact_mut(2 * half) {
            let (lo, hi) = chunk.split_at_mut(half);
            for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(factors) {
                a.butterfly(b, w);
            }
        }
        half <<= 1;
    }
}

/// Reference O(n²) DFT, for testing the FFT.
pub fn dft_naive(data: &[Complex]) -> Vec<Complex> {
    let n = data.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::default();
            for (j, &x) in data.iter().enumerate() {
                let ang = -2.0 * PI * (k * j) as f64 / n as f64;
                acc = acc.add(x.mul(Complex::new(ang.cos(), ang.sin())));
            }
            acc
        })
        .collect()
}

/// Split `count` work units into at most `threads` contiguous ranges.
pub fn split_ranges(count: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    let threads = threads.max(1).min(count.max(1));
    let base = count / threads;
    let extra = count % threads;
    let mut out = Vec::with_capacity(threads);
    let mut start = 0;
    for t in 0..threads {
        let len = base + usize::from(t < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// A row-major square complex matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    /// Edge length.
    pub n: usize,
    /// Row-major data, `n * n` elements.
    pub data: Vec<Complex>,
}

impl Matrix {
    /// A zero matrix.
    pub fn zero(n: usize) -> Self {
        Self {
            n,
            data: vec![Complex::default(); n * n],
        }
    }

    /// Build from a function of (row, col).
    pub fn from_fn(n: usize, f: impl Fn(usize, usize) -> Complex) -> Self {
        let mut m = Self::zero(n);
        for r in 0..n {
            for c in 0..n {
                m.data[r * n + c] = f(r, c);
            }
        }
        m
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[Complex] {
        &self.data[r * self.n..(r + 1) * self.n]
    }
}

/// FFT every row of the matrix, splitting rows across `threads`. One
/// twiddle table serves every row.
pub fn fft_rows(m: &mut Matrix, threads: usize) {
    let table = twiddles(m.n);
    let rows: Vec<&mut [Complex]> = m.data.chunks_mut(m.n).collect();
    run_chunks(rows, threads, |row| fft_lanes(row, &table));
}

/// Transpose the matrix in place (single-threaded; the transpose is the
/// *communication* step of FFT-Hist, modelled separately).
pub fn transpose(m: &mut Matrix) {
    let n = m.n;
    for r in 0..n {
        for c in r + 1..n {
            m.data.swap(r * n + c, c * n + r);
        }
    }
}

/// FFT every column, without a transpose: each butterfly combines two
/// whole rows with one twiddle factor, so the inner loop runs along
/// contiguous memory. The columns split into contiguous stripes across
/// `threads`; each worker transforms the row segments of its stripe.
/// Every element sees the operations of a per-column FFT in the same
/// order, so the bits do not depend on the split.
pub fn fft_cols(m: &mut Matrix, threads: usize) {
    let n = m.n;
    let table = twiddles(n);
    let stripes = split_ranges(n, threads);
    let mut segments: Vec<Vec<&mut [Complex]>> =
        stripes.iter().map(|_| Vec::with_capacity(n)).collect();
    for row in m.data.chunks_mut(n) {
        let mut rest = row;
        for (stripe, range) in segments.iter_mut().zip(&stripes) {
            let (segment, tail) = rest.split_at_mut(range.len());
            stripe.push(segment);
            rest = tail;
        }
    }
    let stripes: Vec<&mut [&mut [Complex]]> = segments.iter_mut().map(Vec::as_mut_slice).collect();
    run_chunks(stripes, threads, |rows| fft_lanes(rows, &table));
}

/// Histogram of squared magnitudes in `bins` buckets over `[0, max)`,
/// computed with per-thread partial histograms merged at the end.
pub fn histogram(m: &Matrix, bins: usize, max: f64, threads: usize) -> Vec<u64> {
    assert!(bins >= 1 && max > 0.0);
    let mut total = vec![0u64; bins];
    if threads <= 1 {
        // Inline fast path: accumulate straight into the result — no
        // row-pointer scratch, no partials, no scope.
        for x in &m.data {
            let b = ((x.norm_sq() / max) * bins as f64) as usize;
            total[b.min(bins - 1)] += 1;
        }
        return total;
    }
    let rows: Vec<&[Complex]> = m.data.chunks(m.n).collect();
    let ranges = split_ranges(rows.len(), threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|range| {
                let rows = &rows[range.clone()];
                s.spawn(move || {
                    let mut h = vec![0u64; bins];
                    for row in rows {
                        for x in *row {
                            let v = x.norm_sq();
                            let b = ((v / max) * bins as f64) as usize;
                            h[b.min(bins - 1)] += 1;
                        }
                    }
                    h
                })
            })
            .collect();
        // Merge partials into the one accumulator as workers finish,
        // instead of first collecting a Vec<Vec<u64>> of them.
        for h in handles {
            for (t, v) in total.iter_mut().zip(h.join().unwrap()) {
                *t += v;
            }
        }
    });
    total
}

/// A grayscale image, row-major `u8` pixels.
#[derive(Clone, Debug, PartialEq)]
pub struct Image {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Pixels, `width * height`.
    pub pixels: Vec<u8>,
}

impl Image {
    /// A constant-valued image.
    pub fn filled(width: usize, height: usize, value: u8) -> Self {
        Self {
            width,
            height,
            pixels: vec![value; width * height],
        }
    }

    /// Build from a function of (x, y).
    pub fn from_fn(width: usize, height: usize, f: impl Fn(usize, usize) -> u8) -> Self {
        let mut pixels = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                pixels.push(f(x, y));
            }
        }
        Self {
            width,
            height,
            pixels,
        }
    }
}

/// Per-disparity absolute-difference images between a reference and a
/// shifted image (multibaseline stereo's `difference` task): output `d`
/// holds `|ref(x, y) − other(x + d, y)|`. Disparities split across
/// threads.
pub fn disparity_differences(
    reference: &Image,
    other: &Image,
    disparities: usize,
    threads: usize,
) -> Vec<Vec<u16>> {
    assert_eq!(reference.width, other.width);
    assert_eq!(reference.height, other.height);
    let (w, h) = (reference.width, reference.height);
    let work: Vec<usize> = (0..disparities).collect();
    map_units(&work, threads, |&d| {
        let mut out = vec![0u16; w * h];
        for y in 0..h {
            for x in 0..w {
                let rx = reference.pixels[y * w + x] as i32;
                let ox = if x + d < w {
                    other.pixels[y * w + x + d] as i32
                } else {
                    0
                };
                out[y * w + x] = (rx - ox).unsigned_abs() as u16;
            }
        }
        out
    })
}

/// Error images: box-filtered (windowed SSD) version of each difference
/// image. Disparities split across threads.
pub fn error_images(
    diffs: &[Vec<u16>],
    width: usize,
    height: usize,
    window: usize,
    threads: usize,
) -> Vec<Vec<u32>> {
    map_units(diffs, threads, |diff| {
        let mut out = vec![0u32; width * height];
        let r = window as isize;
        for y in 0..height {
            for x in 0..width {
                let mut acc = 0u32;
                for dy in -r..=r {
                    for dx in -r..=r {
                        let yy = y as isize + dy;
                        let xx = x as isize + dx;
                        if yy >= 0 && (yy as usize) < height && xx >= 0 && (xx as usize) < width {
                            let v = diff[yy as usize * width + xx as usize] as u32;
                            acc += v * v;
                        }
                    }
                }
                out[y * width + x] = acc;
            }
        }
        out
    })
}

/// Depth image: per-pixel argmin across the error images (the stereo
/// `min-depth` reduction). Pixels split across threads by rows.
pub fn min_depth(errors: &[Vec<u32>], width: usize, height: usize, threads: usize) -> Vec<u8> {
    assert!(!errors.is_empty());
    let rows: Vec<usize> = (0..height).collect();
    let per_row = map_units(&rows, threads, |&y| {
        let mut row = vec![0u8; width];
        for (x, out) in row.iter_mut().enumerate() {
            let mut best = u32::MAX;
            let mut best_d = 0u8;
            for (d, e) in errors.iter().enumerate() {
                let v = e[y * width + x];
                if v < best {
                    best = v;
                    best_d = d as u8;
                }
            }
            *out = best_d;
        }
        row
    });
    per_row.into_iter().flatten().collect()
}

/// FIR filter of each channel of a multi-channel signal (the radar
/// pulse-compression stand-in). Channels split across threads.
pub fn fir_filter(channels: &[Vec<f64>], taps: &[f64], threads: usize) -> Vec<Vec<f64>> {
    map_units(channels, threads, |ch| {
        let mut out = vec![0.0; ch.len()];
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (t, &w) in taps.iter().enumerate() {
                if i >= t {
                    acc += w * ch[i - t];
                }
            }
            *o = acc;
        }
        out
    })
}

/// Map `f` over `units` with up to `threads` scoped worker threads,
/// preserving order.
pub fn map_units<T: Sync, R: Send>(
    units: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    if threads <= 1 || units.len() <= 1 {
        // Fast path: map on the calling thread, no scope spawn.
        return units.iter().map(f).collect();
    }
    let ranges = split_ranges(units.len(), threads);
    let mut chunks: Vec<Vec<R>> = std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = ranges
            .iter()
            .map(|range| {
                let slice = &units[range.clone()];
                s.spawn(move || slice.iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut out = Vec::with_capacity(units.len());
    for c in &mut chunks {
        out.append(c);
    }
    out
}

/// Run `f` over mutable chunks with up to `threads` scoped threads.
/// `threads <= 1` runs inline on the caller — no range splitting, no
/// scoped spawn — so a serial instance pays nothing for the machinery.
fn run_chunks<T: Send>(chunks: Vec<&mut [T]>, threads: usize, f: impl Fn(&mut [T]) + Sync) {
    if threads <= 1 || chunks.len() <= 1 {
        for c in chunks {
            f(c);
        }
        return;
    }
    let ranges = split_ranges(chunks.len(), threads);
    let mut chunks = chunks;
    std::thread::scope(|s| {
        let f = &f;
        // Partition the chunk list itself across threads.
        let mut rest = chunks.as_mut_slice();
        let mut handles = Vec::new();
        for range in &ranges {
            let (mine, other) = rest.split_at_mut(range.len());
            rest = other;
            handles.push(s.spawn(move || {
                for c in mine {
                    f(c);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a.re - b.re).abs() < 1e-6 && (a.im - b.im).abs() < 1e-6
    }

    #[test]
    fn fft_matches_naive_dft() {
        let data: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let expect = dft_naive(&data);
        let mut got = data.clone();
        fft_inplace(&mut got);
        for (g, e) in got.iter().zip(&expect) {
            assert!(close(*g, *e), "{g:?} vs {e:?}");
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex::default(); 16];
        data[0] = Complex::new(1.0, 0.0);
        fft_inplace(&mut data);
        for x in &data {
            assert!(close(*x, Complex::new(1.0, 0.0)));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut data = vec![Complex::default(); 12];
        fft_inplace(&mut data);
    }

    #[test]
    fn split_ranges_covers_exactly() {
        for count in [0usize, 1, 7, 16, 100] {
            for threads in [1usize, 2, 3, 8, 200] {
                let rs = split_ranges(count, threads);
                let total: usize = rs.iter().map(|r| r.len()).sum();
                assert_eq!(total, count, "count={count} threads={threads}");
                for w in rs.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                // Balanced within one unit.
                if let (Some(max), Some(min)) = (
                    rs.iter().map(|r| r.len()).max(),
                    rs.iter().map(|r| r.len()).min(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn row_and_col_ffts_are_threadcount_invariant() {
        // More threads than columns, the degenerate edges, and a split
        // that divides no power of two evenly.
        let cases: [(usize, &[usize]); 4] =
            [(16, &[4, 3, 32]), (1, &[2, 5]), (2, &[2, 3]), (256, &[3])];
        for (n, threads) in cases {
            let m0 = Matrix::from_fn(n, |r, c| {
                Complex::new((r * n + c) as f64, (r + 2 * c) as f64)
            });
            let mut rows1 = m0.clone();
            let mut cols1 = m0.clone();
            fft_rows(&mut rows1, 1);
            fft_cols(&mut cols1, 1);
            for &t in threads {
                let mut a = m0.clone();
                fft_rows(&mut a, t);
                assert_eq!(a, rows1, "fft_rows n={n} threads={t}");
                let mut b = m0.clone();
                fft_cols(&mut b, t);
                assert_eq!(b, cols1, "fft_cols n={n} threads={t}");
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let m0 = Matrix::from_fn(8, |r, c| Complex::new(r as f64, c as f64));
        let mut m = m0.clone();
        transpose(&mut m);
        assert_eq!(m.data[8], Complex::new(0.0, 1.0));
        transpose(&mut m);
        assert_eq!(m, m0);
    }

    #[test]
    fn full_2d_fft_equals_col_then_row() {
        // colffts then rowffts is the 2D FFT; check against separable
        // naive computation on a small case.
        let mut m = Matrix::from_fn(8, |r, c| Complex::new((r + 2 * c) as f64, 0.0));
        let mut rows_first = m.clone();
        fft_cols(&mut m, 2);
        fft_rows(&mut m, 2);
        // Row-then-col must give the same (separability).
        fft_rows(&mut rows_first, 2);
        fft_cols(&mut rows_first, 2);
        for (a, b) in m.data.iter().zip(&rows_first.data) {
            assert!(close(*a, *b));
        }
    }

    #[test]
    fn histogram_counts_all_points_and_is_threadcount_invariant() {
        let m = Matrix::from_fn(16, |r, c| Complex::new((r % 4) as f64, (c % 3) as f64));
        let h1 = histogram(&m, 10, 32.0, 1);
        let h4 = histogram(&m, 10, 32.0, 4);
        assert_eq!(h1, h4);
        assert_eq!(h1.iter().sum::<u64>(), 256);
    }

    #[test]
    fn disparity_difference_of_shifted_image_is_zero_at_true_shift() {
        // other(x) = ref(x + 3): at disparity 3 the difference vanishes
        // (away from the border).
        let reference = Image::from_fn(32, 8, |x, y| ((x * 7 + y * 13) % 251) as u8);
        let other = Image::from_fn(32, 8, |x, y| {
            if x + 3 < 32 {
                reference.pixels[y * 32 + x + 3]
            } else {
                0
            }
        });
        // Difference `d` compares first(x) with second(x + d), so the
        // pair that vanishes at d = 3 is (other, reference):
        // other(x) = ref(x + 3) = reference(x + 3).
        let flipped = disparity_differences(&other, &reference, 8, 2);
        let d3 = &flipped[3];
        let interior: u32 = (0..8)
            .flat_map(|y| (0..29).map(move |x| d3[y * 32 + x] as u32))
            .sum();
        assert_eq!(interior, 0, "true disparity should match exactly");
        // And d = 0 must not be zero.
        let d0: u32 = flipped[0].iter().map(|&v| v as u32).sum();
        assert!(d0 > 0);
    }

    #[test]
    fn min_depth_picks_true_disparity() {
        let reference = Image::from_fn(64, 16, |x, y| ((x * 31 + y * 17) % 199) as u8);
        let other = Image::from_fn(64, 16, |x, y| {
            if x + 2 < 64 {
                reference.pixels[y * 64 + x + 2]
            } else {
                0
            }
        });
        let diffs = disparity_differences(&other, &reference, 6, 3);
        let errors = error_images(&diffs, 64, 16, 1, 3);
        let depth = min_depth(&errors, 64, 16, 2);
        // Interior pixels should report disparity 2.
        let mut correct = 0;
        let mut total = 0;
        for y in 2..14 {
            for x in 2..58 {
                total += 1;
                if depth[y * 64 + x] == 2 {
                    correct += 1;
                }
            }
        }
        assert!(
            correct as f64 / total as f64 > 0.95,
            "only {correct}/{total} pixels at true disparity"
        );
    }

    #[test]
    fn fir_filter_identity_tap() {
        let channels = vec![vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]];
        let out = fir_filter(&channels, &[1.0], 2);
        assert_eq!(out, channels);
        // Two-tap moving sum.
        let out = fir_filter(&channels, &[1.0, 1.0], 1);
        assert_eq!(out[0], vec![1.0, 3.0, 5.0, 7.0]);
    }

    #[test]
    fn map_units_preserves_order() {
        let units: Vec<usize> = (0..57).collect();
        let out = map_units(&units, 5, |&x| x * 2);
        assert_eq!(out, (0..57).map(|x| x * 2).collect::<Vec<_>>());
    }
}
