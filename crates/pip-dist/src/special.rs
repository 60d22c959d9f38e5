//! Special functions implemented from scratch.
//!
//! The offline-dependency policy (DESIGN.md §6) rules out `statrs`/`libm`,
//! so the error function, its inverse, the log-gamma function and the
//! regularized incomplete gamma functions — everything the distribution
//! classes need for their `PDF`/`CDF`/`CDF⁻¹` capabilities — are
//! implemented here against published algorithms:
//!
//! * `erf`/`erfc`: computed through the regularized incomplete gamma
//!   identity `erf(x) = sgn(x)·P(½, x²)`, which inherits the near-machine
//!   precision of the series / continued-fraction evaluation below.
//! * `inverse_normal_cdf`: Acklam's algorithm (relative error below
//!   1.15e-9) plus one Halley step against `normal_cdf`. The round trip
//!   `normal_cdf(inverse_normal_cdf(p))` returns `p` to 1e-12 relative
//!   for `p ≤ ½` (down to 1e-300) and to 1e-15 absolute over (0, 1);
//!   that measures agreement with this module's `Φ`, so the quantile is
//!   as accurate as `normal_cdf` is.
//! * `ln_gamma`: Lanczos approximation (g = 7, n = 9 coefficients).
//! * `gamma_p`/`gamma_q`: regularized incomplete gamma via series /
//!   continued-fraction split at `x = a + 1` (Numerical Recipes §6.2).

/// Machine-level convergence threshold for iterative expansions.
const EPS: f64 = 1e-15;
/// Iteration cap for series/continued fractions; generous for f64.
const MAX_ITER: usize = 500;

/// The error function `erf(x) = 2/√π ∫₀ˣ e^(−t²) dt`.
///
/// Computed as `sgn(x)·P(½, x²)` where `P` is the regularized lower
/// incomplete gamma function, inheriting its near-machine precision.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let p = gamma_p(0.5, x * x);
    if x > 0.0 {
        p
    } else {
        -p
    }
}

/// The complementary error function `erfc(x) = 1 − erf(x)`.
///
/// For x ≥ 0 this is `Q(½, x²)`, which stays accurate deep into the tail
/// (the continued fraction carries the `e^{−x²}` factor explicitly).
pub fn erfc(x: f64) -> f64 {
    if x >= 0.0 {
        gamma_q(0.5, x * x)
    } else {
        1.0 + gamma_p(0.5, x * x)
    }
}

/// Inverse error function on (−1, 1).
pub fn erf_inv(y: f64) -> f64 {
    if y <= -1.0 {
        return f64::NEG_INFINITY;
    }
    if y >= 1.0 {
        return f64::INFINITY;
    }
    // erf(x) = y  <=>  x = Phi^{-1}((y+1)/2) / sqrt(2)
    inverse_normal_cdf(0.5 * (y + 1.0)) / std::f64::consts::SQRT_2
}

/// Standard normal CDF `Φ(x)`.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal PDF `φ(x)`.
pub fn normal_pdf(x: f64) -> f64 {
    (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Acklam's rational approximation to `Φ⁻¹(p)`, |rel ε| < 1.15e-9.
fn inverse_normal_cdf_acklam(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p <= 0.0 {
        return f64::NEG_INFINITY;
    }
    if p >= 1.0 {
        return f64::INFINITY;
    }
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Standard normal quantile `Φ⁻¹(p)`: Acklam's approximation with one
/// Halley refinement step, which brings `normal_cdf` of the result back
/// to `p` within the round-trip bounds in the module doc.
pub fn inverse_normal_cdf(p: f64) -> f64 {
    let x = inverse_normal_cdf_acklam(p);
    if !x.is_finite() {
        return x;
    }
    // Halley's method: e = Phi(x) - p; u = e / phi(x);
    // x' = x - u / (1 + x*u/2)
    let e = normal_cdf(x) - p;
    let u = e / normal_pdf(x);
    x - u / (1.0 + x * u / 2.0)
}

/// Lanczos approximation of `ln Γ(x)` for x > 0.
pub fn ln_gamma(x: f64) -> f64 {
    // g = 7, n = 9 coefficients (Godfrey / Pugh tabulation).
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma `P(a, x) = γ(a,x)/Γ(a)`.
///
/// Series expansion for `x < a + 1`, continued fraction for the rest
/// (computing `Q` and returning `1 − Q`).
pub fn gamma_p(a: f64, x: f64) -> f64 {
    if x < 0.0 || a <= 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma `Q(a, x) = 1 − P(a, x)`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    if x < 0.0 || a <= 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Series representation of `P(a, x)` (converges fast for x < a+1).
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Lentz continued fraction for `Q(a, x)` (converges fast for x ≥ a+1).
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    const FPMIN: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// `ln B(a, b) = ln Γ(a) + ln Γ(b) − ln Γ(a+b)`.
pub fn ln_beta(a: f64, b: f64) -> f64 {
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// Regularized incomplete beta function `I_x(a, b)` via the Lentz
/// continued fraction (Numerical Recipes §6.4), using the symmetry
/// `I_x(a,b) = 1 − I_{1−x}(b,a)` to stay in the fast-converging region.
pub fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    if a <= 0.0 || b <= 0.0 {
        return f64::NAN;
    }
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front = (a * x.ln() + b * (1.0 - x).ln() - ln_beta(a, b)).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Lentz evaluation of the incomplete-beta continued fraction.
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Monotone-CDF numeric inversion by bisection + Newton polish.
///
/// Generic fallback used by distribution classes that have a `CDF` but no
/// closed-form `CDF⁻¹` (e.g. Gamma). `lo`/`hi` must bracket the quantile;
/// infinite brackets are first shrunk by doubling steps from `start`.
pub fn invert_cdf<F: Fn(f64) -> f64>(cdf: F, p: f64, mut lo: f64, mut hi: f64, start: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&p));
    if p <= 0.0 {
        return lo;
    }
    if p >= 1.0 {
        return hi;
    }
    // Establish finite brackets by doubling outward from `start`.
    if !lo.is_finite() {
        let mut step = 1.0_f64.max(start.abs());
        lo = start - step;
        while cdf(lo) > p {
            step *= 2.0;
            lo = start - step;
            if step > 1e300 {
                break;
            }
        }
    }
    if !hi.is_finite() {
        let mut step = 1.0_f64.max(start.abs());
        hi = start + step;
        while cdf(hi) < p {
            step *= 2.0;
            hi = start + step;
            if step > 1e300 {
                break;
            }
        }
    }
    // Bisection to ~1e-12 relative width.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if !(mid > lo && mid < hi) {
            break; // interval collapsed to adjacent floats
        }
        if cdf(mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo).abs() <= 1e-13 * (1.0 + mid.abs()) {
            break;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * (1.0 + b.abs()),
            "expected {b}, got {a} (tol {tol})"
        );
    }

    #[test]
    fn erf_reference_values() {
        // Reference values from Abramowitz & Stegun table 7.1.
        assert_close(erf(0.0), 0.0, 1e-12);
        assert_close(erf(0.5), 0.5204998778, 1e-7);
        assert_close(erf(1.0), 0.8427007929, 1e-7);
        assert_close(erf(2.0), 0.9953222650, 1e-7);
        assert_close(erf(-1.0), -0.8427007929, 1e-7);
        assert_close(erf(3.5), 0.999999257, 1e-7);
    }

    #[test]
    fn erfc_tails() {
        assert_close(erfc(3.0), 2.209049699858544e-5, 1e-5);
        assert!(erfc(10.0) > 0.0 && erfc(10.0) < 1e-20);
        assert_close(erfc(-3.0), 2.0 - 2.209049699858544e-5, 1e-7);
    }

    #[test]
    fn erf_inv_round_trip() {
        for &y in &[-0.99, -0.5, -0.1, 0.0, 0.1, 0.5, 0.9, 0.999] {
            assert_close(erf(erf_inv(y)), y, 1e-9);
        }
        assert_eq!(erf_inv(1.0), f64::INFINITY);
        assert_eq!(erf_inv(-1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert_close(normal_cdf(0.0), 0.5, 1e-12);
        assert_close(normal_cdf(1.0), 0.8413447460685429, 1e-9);
        assert_close(normal_cdf(-1.96), 0.024997895148220435, 1e-7);
        assert_close(normal_cdf(3.0), 0.9986501019683699, 1e-9);
    }

    #[test]
    fn inverse_normal_round_trip() {
        for &p in &[1e-10, 1e-5, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-9] {
            assert_close(normal_cdf(inverse_normal_cdf(p)), p, 1e-9);
        }
        assert_eq!(inverse_normal_cdf(0.0), f64::NEG_INFINITY);
        assert_eq!(inverse_normal_cdf(1.0), f64::INFINITY);
        assert_close(inverse_normal_cdf(0.975), 1.959963984540054, 1e-8);
    }

    #[test]
    fn inverse_normal_round_trip_bounds() {
        // The bounds the module doc states: relative for p ≤ ½ on a log
        // grid down to 1e-300, absolute on a linear grid over (0, 1).
        for k in 0..=3000 {
            let p = 10f64.powf(-300.0 + (300.0 - 2f64.log10()) * k as f64 / 3000.0);
            let back = normal_cdf(inverse_normal_cdf(p));
            assert!(((back - p) / p).abs() < 1e-12, "p = {p:e}: {back:e}");
        }
        for k in 1..10_000 {
            let p = k as f64 / 10_000.0;
            let back = normal_cdf(inverse_normal_cdf(p));
            assert!((back - p).abs() < 1e-15, "p = {p}: {back}");
        }
    }

    #[test]
    fn ln_gamma_reference_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π
        assert_close(ln_gamma(1.0), 0.0, 1e-12);
        assert_close(ln_gamma(2.0), 0.0, 1e-12);
        assert_close(ln_gamma(5.0), 24.0_f64.ln(), 1e-12);
        assert_close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
        // Γ(10.5) = 9.5·8.5·…·0.5·√π  →  ln Γ(10.5) ≈ 13.940625219403767
        assert_close(ln_gamma(10.5), 13.940625219403767, 1e-10);
    }

    #[test]
    fn gamma_p_q_complementarity() {
        for &(a, x) in &[
            (0.5, 0.3),
            (1.0, 1.0),
            (3.0, 2.0),
            (10.0, 14.0),
            (100.0, 90.0),
        ] {
            assert_close(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-12);
        }
    }

    #[test]
    fn gamma_p_reference_values() {
        // P(1, x) = 1 - e^{-x} (exponential CDF)
        for &x in &[0.1, 1.0, 2.5, 8.0] {
            assert_close(gamma_p(1.0, x), 1.0 - (-x).exp(), 1e-12);
        }
        // P(a, 0) = 0, P(a, inf) -> 1
        assert_eq!(gamma_p(3.0, 0.0), 0.0);
        assert_close(gamma_p(3.0, 1e4), 1.0, 1e-12);
        // chi-square with k=4 at x=4: P(2, 2) ≈ 0.59399415
        assert_close(gamma_p(2.0, 2.0), 0.5939941502901616, 1e-10);
    }

    #[test]
    fn gamma_edge_cases() {
        assert!(gamma_p(-1.0, 1.0).is_nan());
        assert!(gamma_p(1.0, -1.0).is_nan());
        assert_eq!(gamma_q(2.0, 0.0), 1.0);
    }

    #[test]
    fn invert_cdf_recovers_normal_quantiles() {
        for &p in &[0.01, 0.25, 0.5, 0.75, 0.99] {
            let x = invert_cdf(normal_cdf, p, f64::NEG_INFINITY, f64::INFINITY, 0.0);
            assert_close(x, inverse_normal_cdf(p), 1e-9);
        }
    }

    #[test]
    fn invert_cdf_respects_finite_bounds() {
        // Uniform[2, 5]
        let cdf = |x: f64| ((x - 2.0) / 3.0).clamp(0.0, 1.0);
        assert_close(invert_cdf(cdf, 0.5, 2.0, 5.0, 3.0), 3.5, 1e-10);
        assert_eq!(invert_cdf(cdf, 0.0, 2.0, 5.0, 3.0), 2.0);
        assert_eq!(invert_cdf(cdf, 1.0, 2.0, 5.0, 3.0), 5.0);
    }
}
