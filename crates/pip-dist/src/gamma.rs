//! The Gamma distribution class: `Gamma(shape, scale)`.

use pip_core::{PipError, Result};

use crate::distribution::DistributionClass;
use crate::rng::{open01, PipRng};
use crate::special;
use crate::ziggurat::standard_normal;

/// `Gamma(k, θ)` with shape k > 0 and scale θ > 0, supported on `(0, ∞)`.
///
/// `Generate` uses the Marsaglia–Tsang (2000) squeeze method over
/// ziggurat normals, boosted to shapes < 1 via the `U^{1/k}` trick. `CDF`
/// is the regularized lower incomplete gamma; `CDF⁻¹` falls back to the
/// generic monotone inverter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gamma;

impl Gamma {
    fn shape(params: &[f64]) -> f64 {
        params[0]
    }
    fn scale(params: &[f64]) -> f64 {
        params[1]
    }

    /// Marsaglia–Tsang for shape ≥ 1 (shared with the Beta sampler).
    pub(crate) fn sample_mt(shape: f64, rng: &mut PipRng) -> f64 {
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = standard_normal(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v = v * v * v;
            let u = open01(rng);
            // Squeeze acceptance (fast path), then the full log test.
            if u < 1.0 - 0.0331 * x * x * x * x {
                return d * v;
            }
            if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

impl DistributionClass for Gamma {
    fn name(&self) -> &'static str {
        "Gamma"
    }

    fn arity(&self) -> usize {
        2
    }

    fn validate(&self, params: &[f64]) -> Result<()> {
        let (k, t) = (params[0], params[1]);
        if !(k > 0.0) || !k.is_finite() || !(t > 0.0) || !t.is_finite() {
            return Err(PipError::InvalidParameter(format!(
                "Gamma: need shape > 0 and scale > 0, got ({k}, {t})"
            )));
        }
        Ok(())
    }

    fn generate(&self, params: &[f64], rng: &mut PipRng) -> f64 {
        let k = Self::shape(params);
        let theta = Self::scale(params);
        if k >= 1.0 {
            theta * Self::sample_mt(k, rng)
        } else {
            // Boost: Gamma(k) = Gamma(k+1) * U^{1/k}
            let u: f64 = open01(rng);
            theta * Self::sample_mt(k + 1.0, rng) * u.powf(1.0 / k)
        }
    }

    fn pdf(&self, params: &[f64], x: f64) -> Option<f64> {
        let (k, t) = (Self::shape(params), Self::scale(params));
        if x <= 0.0 {
            return Some(0.0);
        }
        let log_pdf = (k - 1.0) * x.ln() - x / t - special::ln_gamma(k) - k * t.ln();
        Some(log_pdf.exp())
    }

    fn cdf(&self, params: &[f64], x: f64) -> Option<f64> {
        let (k, t) = (Self::shape(params), Self::scale(params));
        if x <= 0.0 {
            return Some(0.0);
        }
        Some(special::gamma_p(k, x / t))
    }

    fn inverse_cdf(&self, params: &[f64], p: f64) -> Option<f64> {
        let (k, t) = (Self::shape(params), Self::scale(params));
        let mean = k * t;
        let cdf = |x: f64| self.cdf(params, x).unwrap_or(0.0);
        Some(special::invert_cdf(cdf, p, 0.0, f64::INFINITY, mean))
    }

    fn mean(&self, params: &[f64]) -> Option<f64> {
        Some(Self::shape(params) * Self::scale(params))
    }

    fn variance(&self, params: &[f64]) -> Option<f64> {
        let t = Self::scale(params);
        Some(Self::shape(params) * t * t)
    }

    fn support(&self, _params: &[f64]) -> (f64, f64) {
        (0.0, f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    const P: [f64; 2] = [3.0, 2.0];

    #[test]
    fn validation() {
        assert!(Gamma.check_params(&P).is_ok());
        assert!(Gamma.check_params(&[0.0, 1.0]).is_err());
        assert!(Gamma.check_params(&[1.0, -1.0]).is_err());
    }

    #[test]
    fn cdf_matches_exponential_for_shape_one() {
        // Gamma(1, 1/λ) is Exponential(λ)
        for &x in &[0.1, 0.5, 2.0] {
            let c = Gamma.cdf(&[1.0, 0.5], x).unwrap();
            assert!((c - (1.0 - (-2.0 * x).exp())).abs() < 1e-10);
        }
    }

    #[test]
    fn inverse_round_trip() {
        for &p in &[0.05, 0.5, 0.95] {
            let x = Gamma.inverse_cdf(&P, p).unwrap();
            assert!((Gamma.cdf(&P, x).unwrap() - p).abs() < 1e-8);
        }
    }

    #[test]
    fn sample_moments_converge_for_large_shape() {
        let mut rng = rng_from_seed(7);
        let n = 20_000;
        let mut s = 0.0;
        for _ in 0..n {
            let x = Gamma.generate(&P, &mut rng);
            assert!(x > 0.0);
            s += x;
        }
        assert!((s / n as f64 - 6.0).abs() < 0.1);
    }

    #[test]
    fn sample_moments_converge_for_small_shape() {
        let mut rng = rng_from_seed(8);
        let n = 20_000;
        let s: f64 = (0..n).map(|_| Gamma.generate(&[0.5, 1.0], &mut rng)).sum();
        assert!((s / n as f64 - 0.5).abs() < 0.03);
    }

    #[test]
    fn pdf_zero_outside_support() {
        assert_eq!(Gamma.pdf(&P, -1.0), Some(0.0));
        assert_eq!(Gamma.cdf(&P, -1.0), Some(0.0));
    }
}
