//! Exponentially-decayed service-time windows.
//!
//! The paper fits `f_exec` / `f_ecom` once, from a small set of training
//! runs (§5), and the mapping stays optimal only while those fits match
//! reality. A [`Decayed`] window keeps one stage's recent service times:
//! each new sample halves the weight of history every `half_life`
//! samples, so a mid-stream cost change shows within a few half-lives
//! instead of being averaged away over the whole run.
//!
//! A running system executes each stage at one fixed processor count,
//! which cannot determine a three-coefficient model. The window's fitted
//! cost therefore scales the static model to the measured level
//! ([`Decayed::fitted`]) — exact when the drift is a uniform cost change
//! (the common case: data grew, a cache stopped fitting).
//!
//! `pipemap doctor --model online` keeps one window per stage and prices
//! its fitted cost against the static model; the live observatory keeps
//! one per stage and publishes it as `/model.json`.

/// Samples a window needs before its mean stands as the fitted cost.
pub const MIN_FIT_SAMPLES: u64 = 4;

/// Exponentially-decayed mean/variance of service seconds: each new
/// sample multiplies the weight of history by `0.5^(1/half_life)`, so
/// behaviour from more than a few half-lives ago no longer influences
/// the estimate. The update is Welford's, with exponential weights.
#[derive(Clone, Copy, Debug)]
pub struct Decayed {
    alpha: f64,
    weight: f64,
    mean: f64,
    var: f64,
    n: u64,
}

impl Decayed {
    /// A new window whose history halves in weight every `half_life`
    /// samples.
    pub fn new(half_life: f64) -> Self {
        let half_life = half_life.max(1.0);
        Self {
            alpha: 0.5f64.powf(1.0 / half_life),
            weight: 0.0,
            mean: 0.0,
            var: 0.0,
            n: 0,
        }
    }

    /// Absorb one service time. Non-finite or negative observations are
    /// ignored.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() || x < 0.0 {
            return;
        }
        self.weight = self.weight * self.alpha + 1.0;
        let eta = 1.0 / self.weight;
        let d = x - self.mean;
        self.mean += eta * d;
        self.var = (1.0 - eta) * (self.var + eta * d * d);
        self.n += 1;
    }

    /// Total observations absorbed (undecayed count).
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Decay-weighted mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Decay-weighted standard deviation.
    pub fn sd(&self) -> f64 {
        self.var.max(0.0).sqrt()
    }

    /// The fitted cost against a static prediction `static_s`: the static
    /// cost scaled by `mean / static_s`, or the mean itself when the
    /// static cost is not positive. Until [`MIN_FIT_SAMPLES`] samples are
    /// in, the static cost stands.
    pub fn fitted(&self, static_s: f64) -> f64 {
        if self.n < MIN_FIT_SAMPLES {
            static_s
        } else if static_s.is_finite() && static_s > 0.0 {
            static_s * (self.mean / static_s)
        } else {
            self.mean
        }
    }

    /// Confidence in the mean, in `[0, 1]`: it grows with samples and
    /// shrinks with relative spread — about 0.5 after 8 quiet samples,
    /// towards 1 as the window fills.
    pub fn confidence(&self) -> f64 {
        let n = self.n as f64;
        let rel_sd = if self.mean > 0.0 {
            self.sd() / self.mean
        } else {
            0.0
        };
        ((n / (n + 8.0)) * (1.0 / (1.0 + rel_sd))).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        // With no decay every sample weighs the same: the update is
        // Welford's, so mean and (population) variance match the direct
        // formulas.
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0, 3.5];
        let mut w = Decayed::new(f64::INFINITY);
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.sd() - var.sqrt()).abs() < 1e-12);
        assert_eq!(w.count(), 6);
    }

    #[test]
    fn decayed_window_tracks_a_step_change() {
        let mut d = Decayed::new(8.0);
        for _ in 0..100 {
            d.push(1.0);
        }
        assert!((d.mean() - 1.0).abs() < 1e-9);
        // Step to 3.0: after a few half-lives the old level is gone.
        for _ in 0..40 {
            d.push(3.0);
        }
        assert!((d.mean() - 3.0).abs() < 0.1, "mean {}", d.mean());
        // An all-time mean over the same stream would still sit near
        // 1.57 — that is exactly why the window decays.
    }

    #[test]
    fn scale_refit_tracks_a_perturbation_at_fixed_p() {
        let static_s = 0.02 + 1.5 / 4.0 + 0.001 * 4.0;
        let g = 3.0; // the stage got 3x slower mid-stream
        let mut w = Decayed::new(16.0);
        for _ in 0..64 {
            w.push(static_s);
        }
        for _ in 0..128 {
            w.push(static_s * g);
        }
        let want = static_s * g;
        let fitted = w.fitted(static_s);
        assert!((fitted - want).abs() / want < 0.10, "fitted {fitted}");
        // The signed factor tracks γ itself, not just its magnitude.
        assert!((fitted / static_s - g).abs() < 0.3, "fitted {fitted}");
        assert!(w.confidence() > 0.5, "confidence {}", w.confidence());
    }

    #[test]
    fn snapshot_reports_quiet_stage_as_undrifted() {
        let static_s = 0.25;
        let mut w = Decayed::new(64.0);
        for _ in 0..3 {
            w.push(static_s * 2.0);
        }
        // Too few samples to fit: the static cost stands.
        assert_eq!(w.fitted(static_s), static_s);
        let mut w = Decayed::new(64.0);
        for _ in 0..100 {
            w.push(static_s);
        }
        assert_eq!(w.fitted(static_s).to_bits(), static_s.to_bits());
        // Without a static model the fit is the mean itself.
        assert_eq!(w.fitted(0.0), w.mean());
        assert_eq!(w.count(), 100);
        assert_eq!(w.sd(), 0.0);
        assert!((w.confidence() - 100.0 / 108.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_garbage_observations() {
        let mut w = Decayed::new(16.0);
        w.push(f64::NAN);
        w.push(f64::INFINITY);
        w.push(-1.0);
        assert_eq!(w.count(), 0);
        assert_eq!(w.fitted(1.0), 1.0);
        assert_eq!(w.confidence(), 0.0);
    }
}
