//! The standard-normal kernel: Marsaglia & Tsang's ziggurat.
//!
//! G. Marsaglia and W. W. Tsang, "The Ziggurat Method for Generating
//! Random Variables", Journal of Statistical Software 5(8), 2000: the
//! right half of `f(x) = e^{−x²/2}` is covered by 128 layers of equal
//! area `V` — 127 rectangles stacked on a base strip that is the
//! rectangle `[0, R] × [0, f(R)]` plus the tail beyond `R`. A draw picks
//! a layer and a signed uniform; most land inside the curve at once (one
//! `next_u64`, one multiply, one compare). The rest take a wedge test
//! against `f`, or for the base strip Marsaglia's exponential tail
//! method.
//!
//! Layer index and uniform come from independent bits of one `next_u64`
//! — the low 7 bits pick the layer, the top 53 make the uniform — which
//! is the fix J. A. Doornik ("An Improved Ziggurat Method to Generate
//! Normal Random Samples", 2005) gave for the correlation between the
//! two in the original's 32-bit code.
//!
//! Every unconstrained Gaussian draw in PIP goes through
//! [`standard_normal`]: `Normal`'s `Generate`, Gamma's Marsaglia–Tsang
//! step and the Metropolis random-walk proposals. It is not monotone in
//! any uniform, so CDF-bounded sampling keeps to `CDF⁻¹`.

use std::sync::OnceLock;

use rand::Rng;

use crate::rng::{open01, PipRng};

/// Number of layers (a power of two: the layer index is a bit mask).
const LAYERS: usize = 128;
/// Right edge of the base strip's rectangle, from Marsaglia & Tsang's
/// table for 128 layers.
const R: f64 = 3.442619855899;
/// Area of every layer, from the same table.
const V: f64 = 9.91256303526217e-3;

/// The layer geometry, derived once from `R` and `V`.
struct Tables {
    /// `x[i]` is the half-width of layer `i`; `x[0] = V / f(R)` is the
    /// base strip's pseudo-width, `x[1] = R`, `x[LAYERS] = 0`.
    x: [f64; LAYERS + 1],
    /// `x[i + 1] / x[i]`: a uniform `|u|` below it lands inside the curve.
    inner: [f64; LAYERS],
    /// `f(x[i])`, the bottom of layer `i` for `i ≥ 1`.
    f: [f64; LAYERS + 1],
}

fn density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0; LAYERS + 1];
        x[0] = V / density(R);
        x[1] = R;
        // Layer i spans f(x[i]) .. f(x[i+1]) at width x[i], with area V.
        for i in 1..LAYERS - 1 {
            x[i + 1] = (-2.0 * (V / x[i] + density(x[i])).ln()).sqrt();
        }
        let mut inner = [0.0; LAYERS];
        for i in 0..LAYERS {
            inner[i] = x[i + 1] / x[i];
        }
        let f = x.map(density);
        Tables { x, inner, f }
    })
}

/// One draw from `Normal(0, 1)`.
#[inline]
pub fn standard_normal(rng: &mut PipRng) -> f64 {
    let t = tables();
    loop {
        let bits = rng.next_u64();
        let i = (bits as usize) & (LAYERS - 1);
        // Top 53 bits: a uniform on [−1, 1) with 2⁻⁵² spacing.
        let u = (bits >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0;
        if u.abs() < t.inner[i] {
            return u * t.x[i];
        }
        if i == 0 {
            return tail(rng, u < 0.0);
        }
        let x = u * t.x[i];
        let y = t.f[i] + rng.gen::<f64>() * (t.f[i + 1] - t.f[i]);
        if y < density(x) {
            return x;
        }
    }
}

/// A draw from the normal tail beyond `R` (Marsaglia, 1964): propose
/// `R + E₁/R` and accept when `2·E₂ > (E₁/R)²`, `E₁`, `E₂` exponential.
#[cold]
fn tail(rng: &mut PipRng, negative: bool) -> f64 {
    loop {
        let x = -open01(rng).ln() / R;
        let y = -open01(rng).ln();
        if y + y > x * x {
            return if negative { -(R + x) } else { R + x };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_close_at_the_mode() {
        let t = tables();
        // The published (R, V) make the top layer end at f = 1: its area
        // at width x[127] is V, to the 13 digits R is published with.
        let top = t.x[LAYERS - 1] * (1.0 - t.f[LAYERS - 1]);
        assert!((top - V).abs() < 1e-8 * V, "top layer area {top} vs {V}");
        assert!(t.x.windows(2).all(|w| w[0] > w[1]), "edges decrease");
        assert_eq!(t.x[LAYERS], 0.0);
        // The layers cover the half curve, whose area is √(π/2).
        let half = (std::f64::consts::PI / 2.0).sqrt();
        assert!(LAYERS as f64 * V > half && LAYERS as f64 * V < 1.02 * half);
    }
}
