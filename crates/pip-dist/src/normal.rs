//! The Normal distribution class: `Normal(mu, sigma)`.

use std::sync::Arc;

use pip_core::{PipError, Result};

use crate::distribution::{DistributionClass, PreparedGen, PreparedInverseCdf};
use crate::rng::PipRng;
use crate::special;
use crate::ziggurat::standard_normal;

/// `Normal(μ, σ)` with standard deviation σ > 0.
///
/// `Generate` is `μ + σ·z` with `z` from the ziggurat
/// ([`crate::ziggurat::standard_normal`]). `CDF⁻¹` is `μ + σ·Φ⁻¹(p)`,
/// monotone in `p`: the constrained (CDF-bounded) sampler in
/// `pip-sampling` draws through it, never through `Generate`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Normal;

impl Normal {
    fn mu(params: &[f64]) -> f64 {
        params[0]
    }
    fn sigma(params: &[f64]) -> f64 {
        params[1]
    }
}

impl DistributionClass for Normal {
    fn name(&self) -> &'static str {
        "Normal"
    }

    fn arity(&self) -> usize {
        2
    }

    fn validate(&self, params: &[f64]) -> Result<()> {
        if !params[0].is_finite() {
            return Err(PipError::InvalidParameter(
                "Normal: mu must be finite".into(),
            ));
        }
        if !(params[1] > 0.0) || !params[1].is_finite() {
            return Err(PipError::InvalidParameter(format!(
                "Normal: sigma must be finite and > 0, got {}",
                params[1]
            )));
        }
        Ok(())
    }

    fn generate(&self, params: &[f64], rng: &mut PipRng) -> f64 {
        NormalDraw {
            mu: Self::mu(params),
            sigma: Self::sigma(params),
        }
        .generate(rng)
    }

    fn pdf(&self, params: &[f64], x: f64) -> Option<f64> {
        let z = (x - Self::mu(params)) / Self::sigma(params);
        Some(special::normal_pdf(z) / Self::sigma(params))
    }

    fn cdf(&self, params: &[f64], x: f64) -> Option<f64> {
        let z = (x - Self::mu(params)) / Self::sigma(params);
        Some(special::normal_cdf(z))
    }

    fn inverse_cdf(&self, params: &[f64], p: f64) -> Option<f64> {
        Some(
            NormalDraw {
                mu: Self::mu(params),
                sigma: Self::sigma(params),
            }
            .inverse_cdf(p),
        )
    }

    fn prepare_generate(&self, params: &[f64]) -> Option<Arc<dyn PreparedGen>> {
        Some(Arc::new(NormalDraw {
            mu: Self::mu(params),
            sigma: Self::sigma(params),
        }))
    }

    fn prepare_inverse_cdf(&self, params: &[f64]) -> Option<Arc<dyn PreparedInverseCdf>> {
        Some(Arc::new(NormalDraw {
            mu: Self::mu(params),
            sigma: Self::sigma(params),
        }))
    }

    fn mean(&self, params: &[f64]) -> Option<f64> {
        Some(Self::mu(params))
    }

    fn variance(&self, params: &[f64]) -> Option<f64> {
        let s = Self::sigma(params);
        Some(s * s)
    }
}

/// The affine maps of a standard draw and of `Φ⁻¹` with `(μ, σ)` bound —
/// shared by the plain and prepared paths so each is one expression (the
/// compiled kernels' `PreparedGen` contract demands bit-identical draws,
/// and structural sharing makes that true by construction).
#[derive(Debug, Clone, Copy)]
struct NormalDraw {
    mu: f64,
    sigma: f64,
}

impl PreparedGen for NormalDraw {
    #[inline]
    fn generate(&self, rng: &mut PipRng) -> f64 {
        self.mu + self.sigma * standard_normal(rng)
    }
}

impl PreparedInverseCdf for NormalDraw {
    #[inline]
    fn inverse_cdf(&self, p: f64) -> f64 {
        self.mu + self.sigma * special::inverse_normal_cdf(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::capabilities;
    use crate::rng::rng_from_seed;

    const P: [f64; 2] = [5.0, 2.0];

    #[test]
    fn validation() {
        assert!(Normal.check_params(&P).is_ok());
        assert!(Normal.check_params(&[0.0, 0.0]).is_err());
        assert!(Normal.check_params(&[0.0, -1.0]).is_err());
        assert!(Normal.check_params(&[f64::NAN, 1.0]).is_err());
        assert!(Normal.check_params(&[0.0]).is_err());
    }

    #[test]
    fn moments() {
        assert_eq!(Normal.mean(&P), Some(5.0));
        assert_eq!(Normal.variance(&P), Some(4.0));
    }

    #[test]
    fn cdf_inverse_round_trip() {
        for &p in &[0.01, 0.3, 0.5, 0.77, 0.999] {
            let x = Normal.inverse_cdf(&P, p).unwrap();
            let back = Normal.cdf(&P, x).unwrap();
            assert!((back - p).abs() < 1e-9, "{back} vs {p}");
        }
    }

    #[test]
    fn pdf_integrates_cdf() {
        // Numeric derivative of CDF should match PDF.
        for &x in &[2.0, 5.0, 8.5] {
            let h = 1e-5;
            let d = (Normal.cdf(&P, x + h).unwrap() - Normal.cdf(&P, x - h).unwrap()) / (2.0 * h);
            let pdf = Normal.pdf(&P, x).unwrap();
            assert!((d - pdf).abs() < 1e-6, "{d} vs {pdf}");
        }
    }

    #[test]
    fn sample_moments_converge() {
        let mut rng = rng_from_seed(42);
        let n = 20_000;
        let (mut s, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let x = Normal.generate(&P, &mut rng);
            s += x;
            s2 += x * x;
        }
        let mean = s / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!((mean - 5.0).abs() < 0.06, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn full_capabilities() {
        let caps = capabilities(&Normal, &P);
        assert!(caps.has_pdf && caps.has_cdf && caps.has_inverse_cdf && caps.has_mean);
    }

    #[test]
    fn prepared_paths_are_bit_identical() {
        let gen = Normal.prepare_generate(&P).unwrap();
        let mut a = rng_from_seed(9);
        let mut b = rng_from_seed(9);
        for _ in 0..2000 {
            let x = Normal.generate(&P, &mut a);
            let y = gen.generate(&mut b);
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.state(), b.state(), "same draw count consumed");

        let inv = Normal.prepare_inverse_cdf(&P).unwrap();
        for &p in &[1e-12, 0.001, 0.3, 0.5, 0.99, 1.0 - 1e-12, 0.0, 1.0] {
            assert_eq!(
                Normal.inverse_cdf(&P, p).unwrap().to_bits(),
                inv.inverse_cdf(p).to_bits()
            );
        }
    }
}
