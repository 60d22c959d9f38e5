//! The Exponential distribution class: `Exponential(lambda)`.

use std::sync::Arc;

use pip_core::{PipError, Result};

use crate::distribution::{DistributionClass, PreparedInverseCdf};
use crate::rng::{open01, PipRng};

/// `Exponential(λ)` with rate λ > 0 (mean 1/λ), supported on `[0, ∞)`.
///
/// Generation uses the inverse-CDF transform `x = −ln(u)/λ`. Only
/// `CDF⁻¹` must be monotone in its uniform (the constrained sampler draws
/// through it); `Generate` is free to use any exact method.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exponential;

impl DistributionClass for Exponential {
    fn name(&self) -> &'static str {
        "Exponential"
    }

    fn arity(&self) -> usize {
        1
    }

    fn validate(&self, params: &[f64]) -> Result<()> {
        if !(params[0] > 0.0) || !params[0].is_finite() {
            return Err(PipError::InvalidParameter(format!(
                "Exponential: lambda must be finite and > 0, got {}",
                params[0]
            )));
        }
        Ok(())
    }

    fn generate(&self, params: &[f64], rng: &mut PipRng) -> f64 {
        -open01(rng).ln() / params[0]
    }

    fn pdf(&self, params: &[f64], x: f64) -> Option<f64> {
        let l = params[0];
        Some(if x < 0.0 { 0.0 } else { l * (-l * x).exp() })
    }

    fn cdf(&self, params: &[f64], x: f64) -> Option<f64> {
        let l = params[0];
        Some(if x < 0.0 { 0.0 } else { 1.0 - (-l * x).exp() })
    }

    fn inverse_cdf(&self, params: &[f64], p: f64) -> Option<f64> {
        Some(ExpInv { lambda: params[0] }.inverse_cdf(p))
    }

    fn prepare_inverse_cdf(&self, params: &[f64]) -> Option<Arc<dyn PreparedInverseCdf>> {
        Some(Arc::new(ExpInv { lambda: params[0] }))
    }

    fn mean(&self, params: &[f64]) -> Option<f64> {
        Some(1.0 / params[0])
    }

    fn variance(&self, params: &[f64]) -> Option<f64> {
        Some(1.0 / (params[0] * params[0]))
    }

    fn support(&self, _params: &[f64]) -> (f64, f64) {
        (0.0, f64::INFINITY)
    }
}

/// The inverse-CDF transform with the rate bound — shared by the plain
/// and prepared paths so both are one expression.
#[derive(Debug, Clone, Copy)]
struct ExpInv {
    lambda: f64,
}

impl PreparedInverseCdf for ExpInv {
    #[inline]
    fn inverse_cdf(&self, p: f64) -> f64 {
        if p >= 1.0 {
            return f64::INFINITY;
        }
        -(1.0 - p.max(0.0)).ln() / self.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    const P: [f64; 1] = [2.0];

    #[test]
    fn validation() {
        assert!(Exponential.check_params(&P).is_ok());
        assert!(Exponential.check_params(&[0.0]).is_err());
        assert!(Exponential.check_params(&[-3.0]).is_err());
        assert!(Exponential.check_params(&[f64::NAN]).is_err());
    }

    #[test]
    fn closed_forms() {
        assert_eq!(Exponential.mean(&P), Some(0.5));
        assert_eq!(Exponential.variance(&P), Some(0.25));
        assert_eq!(Exponential.cdf(&P, -1.0), Some(0.0));
        assert!((Exponential.cdf(&P, 0.5).unwrap() - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        assert_eq!(Exponential.pdf(&P, -0.1), Some(0.0));
        assert!((Exponential.pdf(&P, 0.0).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_round_trip() {
        for &p in &[0.0, 0.1, 0.5, 0.9, 0.999] {
            let x = Exponential.inverse_cdf(&P, p).unwrap();
            assert!((Exponential.cdf(&P, x).unwrap() - p).abs() < 1e-12);
        }
        assert_eq!(Exponential.inverse_cdf(&P, 1.0), Some(f64::INFINITY));
    }

    #[test]
    fn samples_nonnegative_and_mean_converges() {
        let mut rng = rng_from_seed(3);
        let n = 20_000;
        let mut s = 0.0;
        for _ in 0..n {
            let x = Exponential.generate(&P, &mut rng);
            assert!(x >= 0.0);
            s += x;
        }
        assert!((s / n as f64 - 0.5).abs() < 0.02);
    }
}
