//! The Categorical distribution class: `Categorical(w₀, w₁, …, wₙ₋₁)`.
//!
//! Takes one weight per outcome and samples the outcome *index*
//! `0..n−1` with probability `wᵢ / Σw`. This is the distribution behind
//! PIP's MayBMS-style `repair-key` operator (paper Section V-A footnote:
//! "For discrete distributions, PIP uses a repair-key operator similar
//! to that used in \[11\]"): each key group of a repaired table becomes one
//! Categorical variable selecting which alternative row exists.

use pip_core::{PipError, Result};
use rand::Rng;

use crate::distribution::DistributionClass;
use crate::rng::PipRng;

/// `Categorical(weights…)` over outcomes `0..weights.len()`.
///
/// Weights need not be normalized; they must be finite, non-negative,
/// and sum to something positive.
#[derive(Debug, Clone, Copy, Default)]
pub struct Categorical;

impl Categorical {
    fn total(params: &[f64]) -> f64 {
        params.iter().sum()
    }
}

impl DistributionClass for Categorical {
    fn name(&self) -> &'static str {
        "Categorical"
    }

    fn is_discrete(&self) -> bool {
        true
    }

    fn arity(&self) -> usize {
        1 // minimum; see variable_arity
    }

    fn variable_arity(&self) -> bool {
        true
    }

    fn validate(&self, params: &[f64]) -> Result<()> {
        if params.is_empty() {
            return Err(PipError::InvalidParameter(
                "Categorical: need at least one weight".into(),
            ));
        }
        if params.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(PipError::InvalidParameter(
                "Categorical: weights must be finite and non-negative".into(),
            ));
        }
        if Self::total(params) <= 0.0 {
            return Err(PipError::InvalidParameter(
                "Categorical: weights must sum to a positive value".into(),
            ));
        }
        Ok(())
    }

    fn generate(&self, params: &[f64], rng: &mut PipRng) -> f64 {
        let u: f64 = rng.gen::<f64>() * Self::total(params);
        let mut acc = 0.0;
        for (i, w) in params.iter().enumerate() {
            acc += w;
            if u < acc {
                return i as f64;
            }
        }
        (params.len() - 1) as f64
    }

    fn pdf(&self, params: &[f64], x: f64) -> Option<f64> {
        if x.fract() != 0.0 || x < 0.0 || x >= params.len() as f64 {
            return Some(0.0);
        }
        Some(params[x as usize] / Self::total(params))
    }

    fn cdf(&self, params: &[f64], x: f64) -> Option<f64> {
        if x < 0.0 {
            return Some(0.0);
        }
        let k = (x.floor() as usize).min(params.len() - 1);
        Some(params[..=k].iter().sum::<f64>() / Self::total(params))
    }

    fn inverse_cdf(&self, params: &[f64], p: f64) -> Option<f64> {
        let target = p.clamp(0.0, 1.0) * Self::total(params);
        let mut acc = 0.0;
        for (i, w) in params.iter().enumerate() {
            acc += w;
            if target <= acc {
                return Some(i as f64);
            }
        }
        Some((params.len() - 1) as f64)
    }

    fn mean(&self, params: &[f64]) -> Option<f64> {
        let t = Self::total(params);
        Some(
            params
                .iter()
                .enumerate()
                .map(|(i, w)| i as f64 * w / t)
                .sum(),
        )
    }

    fn variance(&self, params: &[f64]) -> Option<f64> {
        let t = Self::total(params);
        let m = self.mean(params)?;
        Some(
            params
                .iter()
                .enumerate()
                .map(|(i, w)| (i as f64 - m) * (i as f64 - m) * w / t)
                .sum(),
        )
    }

    fn support(&self, params: &[f64]) -> (f64, f64) {
        (0.0, (params.len() - 1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    const P: [f64; 3] = [1.0, 2.0, 1.0];

    #[test]
    fn validation() {
        assert!(Categorical.check_params(&P).is_ok());
        assert!(Categorical.check_params(&[]).is_err());
        assert!(Categorical.check_params(&[1.0, -1.0]).is_err());
        assert!(Categorical.check_params(&[0.0, 0.0]).is_err());
        assert!(Categorical.check_params(&[5.0]).is_ok(), "variable arity");
        assert!(Categorical.is_discrete());
    }

    #[test]
    fn pmf_and_cdf() {
        assert_eq!(Categorical.pdf(&P, 0.0), Some(0.25));
        assert_eq!(Categorical.pdf(&P, 1.0), Some(0.5));
        assert_eq!(Categorical.pdf(&P, 1.5), Some(0.0));
        assert_eq!(Categorical.pdf(&P, 5.0), Some(0.0));
        assert_eq!(Categorical.cdf(&P, -0.5), Some(0.0));
        assert_eq!(Categorical.cdf(&P, 0.0), Some(0.25));
        assert_eq!(Categorical.cdf(&P, 1.0), Some(0.75));
        assert_eq!(Categorical.cdf(&P, 9.0), Some(1.0));
        assert_eq!(Categorical.support(&P), (0.0, 2.0));
    }

    #[test]
    fn quantile_is_discrete_inverse() {
        assert_eq!(Categorical.inverse_cdf(&P, 0.2), Some(0.0));
        assert_eq!(Categorical.inverse_cdf(&P, 0.5), Some(1.0));
        assert_eq!(Categorical.inverse_cdf(&P, 0.9), Some(2.0));
    }

    #[test]
    fn moments() {
        // mean = 0·0.25 + 1·0.5 + 2·0.25 = 1
        assert_eq!(Categorical.mean(&P), Some(1.0));
        assert_eq!(Categorical.variance(&P), Some(0.5));
    }

    #[test]
    fn sampling_frequencies() {
        let mut rng = rng_from_seed(44);
        let mut counts = [0usize; 3];
        let n = 30_000;
        for _ in 0..n {
            counts[Categorical.generate(&P, &mut rng) as usize] += 1;
        }
        assert!((counts[0] as f64 / n as f64 - 0.25).abs() < 0.01);
        assert!((counts[1] as f64 / n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn zero_weight_outcomes_never_sampled() {
        let p = [0.0, 1.0, 0.0];
        let mut rng = rng_from_seed(45);
        for _ in 0..500 {
            assert_eq!(Categorical.generate(&p, &mut rng), 1.0);
        }
        assert_eq!(Categorical.pdf(&p, 0.0), Some(0.0));
    }
}
