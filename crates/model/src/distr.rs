//! Self-contained random samplers.
//!
//! The ground-truth model needs a handful of heavy-tailed distributions
//! (prefix densities are the paper's Figure 4: a sharply decaying curve
//! over five orders of magnitude). They are implemented here — inverse-CDF
//! for the bounded Pareto, Box–Muller for the log-normal — instead of
//! pulling in `rand_distr`, keeping the dependency footprint to the crates
//! allowed by the workspace policy (see DESIGN.md §6).

use rand::Rng;

/// A Pareto distribution truncated to `[lo, hi]`.
///
/// Sampling uses the inverse CDF of the truncated Pareto:
/// `F⁻¹(u) = (lo^-α − u·(lo^-α − hi^-α))^(−1/α)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    lo: f64,
    hi: f64,
    alpha: f64,
}

impl BoundedPareto {
    /// Create a bounded Pareto sampler. Panics if `lo <= 0`, `hi < lo`, or
    /// `alpha <= 0` — these are programming errors in model parameters.
    pub fn new(lo: f64, hi: f64, alpha: f64) -> Self {
        assert!(lo > 0.0, "BoundedPareto lo must be positive");
        assert!(hi >= lo, "BoundedPareto hi must be >= lo");
        assert!(alpha > 0.0, "BoundedPareto alpha must be positive");
        BoundedPareto { lo, hi, alpha }
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Tail exponent.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Draw one sample in `[lo, hi]`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.hi == self.lo {
            return self.lo;
        }
        let u: f64 = rng.random();
        let la = self.lo.powf(-self.alpha);
        let ha = self.hi.powf(-self.alpha);
        (la - u * (la - ha)).powf(-1.0 / self.alpha)
    }

    /// Analytical mean of the truncated distribution (for tests and
    /// calibration). Valid for `alpha != 1`.
    pub fn mean(&self) -> f64 {
        let (l, h, a) = (self.lo, self.hi, self.alpha);
        if (a - 1.0).abs() < 1e-9 {
            // α = 1: mean = ln(h/l) · l·h/(h−l)
            return (h / l).ln() * l * h / (h - l);
        }
        let la = l.powf(-a);
        let ha = h.powf(-a);
        (a / (a - 1.0)) * (l.powf(1.0 - a) - h.powf(1.0 - a)) / (la - ha)
    }
}

/// A log-normal distribution, sampled via Box–Muller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Create a log-normal with the given parameters of the underlying
    /// normal. Panics if `sigma < 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "LogNormal sigma must be >= 0");
        LogNormal { mu, sigma }
    }

    /// Draw one sample (always positive).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// One standard-normal variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 in (0, 1] to avoid ln(0)
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Sample an index proportional to `weights`. Panics if all weights are
/// zero/negative or the slice is empty.
pub fn sample_weighted<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "sample_weighted: empty weights");
    let total: f64 = weights.iter().filter(|w| **w > 0.0).sum();
    assert!(total > 0.0, "sample_weighted: no positive weight");
    let mut x = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    // float slack: return the last positive-weight index
    weights
        .iter()
        .rposition(|&w| w > 0.0)
        .expect("at least one positive weight")
}

/// Bernoulli draw that tolerates probabilities outside \[0,1\] by clamping —
/// convenient for composed model parameters.
pub fn coin<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    if p <= 0.0 {
        false
    } else if p >= 1.0 {
        true
    } else {
        rng.random::<f64>() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xD157)
    }

    #[test]
    fn pareto_respects_bounds() {
        let d = BoundedPareto::new(1e-4, 1e-1, 1.2);
        let mut r = rng();
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!((1e-4..=1e-1).contains(&x), "{x} out of bounds");
        }
    }

    #[test]
    fn pareto_degenerate_interval() {
        let d = BoundedPareto::new(0.5, 0.5, 2.0);
        let mut r = rng();
        assert_eq!(d.sample(&mut r), 0.5);
    }

    #[test]
    fn pareto_empirical_mean_close_to_analytical() {
        for alpha in [0.8, 1.0, 1.5, 2.5] {
            let d = BoundedPareto::new(1.0, 1000.0, alpha);
            let mut r = rng();
            let n = 200_000;
            let sum: f64 = (0..n).map(|_| d.sample(&mut r)).sum();
            let emp = sum / n as f64;
            let ana = d.mean();
            let rel = (emp - ana).abs() / ana;
            assert!(
                rel < 0.05,
                "alpha={alpha}: empirical {emp} vs analytical {ana}"
            );
        }
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        // lower alpha ⇒ larger mean for same bounds
        let lo_alpha = BoundedPareto::new(1.0, 1e6, 0.7).mean();
        let hi_alpha = BoundedPareto::new(1.0, 1e6, 2.0).mean();
        assert!(lo_alpha > hi_alpha * 10.0);
    }

    #[test]
    #[should_panic(expected = "lo must be positive")]
    fn pareto_rejects_zero_lo() {
        BoundedPareto::new(0.0, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "hi must be >= lo")]
    fn pareto_rejects_inverted() {
        BoundedPareto::new(1.0, 0.5, 1.0);
    }

    #[test]
    fn lognormal_positive_and_median() {
        let d = LogNormal::new(0.0, 1.0);
        let mut r = rng();
        let mut below = 0usize;
        let n = 100_000;
        for _ in 0..n {
            let x = d.sample(&mut r);
            assert!(x > 0.0);
            if x < 1.0 {
                below += 1;
            }
        }
        // median of LogNormal(0, 1) is 1
        let frac = below as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "median fraction {frac}");
    }

    #[test]
    fn lognormal_zero_sigma_is_constant() {
        let d = LogNormal::new(1.0, 0.0);
        let mut r = rng();
        let x = d.sample(&mut r);
        assert!((x - std::f64::consts::E).abs() < 1e-12);
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }

    #[test]
    fn weighted_prefers_heavy_weights() {
        let mut r = rng();
        let w = [1.0, 0.0, 9.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[sample_weighted(&mut r, &w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((7.5..10.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn weighted_single_element() {
        let mut r = rng();
        assert_eq!(sample_weighted(&mut r, &[0.3]), 0);
    }

    #[test]
    #[should_panic(expected = "no positive weight")]
    fn weighted_rejects_all_zero() {
        sample_weighted(&mut rng(), &[0.0, 0.0]);
    }

    #[test]
    fn coin_clamps() {
        let mut r = rng();
        assert!(!coin(&mut r, -0.5));
        assert!(coin(&mut r, 1.5));
        let heads = (0..10_000).filter(|_| coin(&mut r, 0.25)).count();
        let frac = heads as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.03, "{frac}");
    }
}
