//! Closed-form answers every check compares the server's estimates with.
//!
//! Written from the textbook formulas and kept independent of `pip-dist`
//! (the code under test): the Normal CDF comes from this file's own
//! `erfc`, and the unit tests check each closed form against numerical
//! quadrature of the defining integral.

use std::f64::consts::PI;

/// Complementary error function, accurate to ~1e-15 relative.
///
/// Below 2.5 the all-positive-terms series of `erf` is stable; above it the
/// continued fraction of `erfc` converges quickly.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    if x < 2.5 {
        // erf(x) = 2/sqrt(pi) * exp(-x^2) * sum_n 2^n x^(2n+1) / (2n+1)!!
        let mut term = x;
        let mut sum = x;
        let mut n = 0.0;
        while term > sum * 1e-17 {
            n += 1.0;
            term *= 2.0 * x * x / (2.0 * n + 1.0);
            sum += term;
        }
        return 1.0 - 2.0 / PI.sqrt() * (-x * x).exp() * sum;
    }
    // erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + (1/2)/(x + (2/2)/(x + (3/2)/(x + ...)))),
    // evaluated bottom-up from a depth that is ample for x >= 2.5.
    let mut tail = x;
    for k in (1..=120).rev() {
        tail = x + (k as f64 / 2.0) / tail;
    }
    (-x * x).exp() / PI.sqrt() / tail
}

/// Standard Normal density.
pub fn phi(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * PI).sqrt()
}

/// Standard Normal upper tail `P[Z > z]`.
pub fn upper_tail(z: f64) -> f64 {
    0.5 * erfc(z / std::f64::consts::SQRT_2)
}

/// `P[X > c]` for `X ~ Normal(mu, sigma)`.
pub fn normal_tail(mu: f64, sigma: f64, c: f64) -> f64 {
    upper_tail((c - mu) / sigma)
}

/// Truncated-Normal partial expectation `E[X * 1{X > c}]` for
/// `X ~ Normal(mu, sigma)`: `mu * Q(a) + sigma * phi(a)`, `a = (c - mu) / sigma`.
pub fn normal_partial_expectation(mu: f64, sigma: f64, c: f64) -> f64 {
    let a = (c - mu) / sigma;
    mu * upper_tail(a) + sigma * phi(a)
}

/// `E[X * 1{X + Y > c}]` for independent `X ~ Normal(mu_x, s_x)`,
/// `Y ~ Normal(mu_y, s_y)`. With `S = X + Y`, `Cov(X, S) = s_x^2`, so
/// `E[X | S]` is linear in `S` and the answer is
/// `mu_x * Q(a) + (s_x^2 / s_s) * phi(a)`, `a = (c - mu_s) / s_s`.
pub fn bivariate_partial_expectation(mu_x: f64, s_x: f64, mu_y: f64, s_y: f64, c: f64) -> f64 {
    let s_s = (s_x * s_x + s_y * s_y).sqrt();
    let a = (c - mu_x - mu_y) / s_s;
    mu_x * upper_tail(a) + s_x * s_x / s_s * phi(a)
}

/// `E[N * 1{D > thr}]` for independent `N ~ Poisson(rate)`,
/// `D ~ Normal(mu, sigma)`: the Poisson mean times the Normal tail.
pub fn poisson_mean_times_tail(rate: f64, mu: f64, sigma: f64, thr: f64) -> f64 {
    rate * normal_tail(mu, sigma, thr)
}

/// `P[at least one of independent events]` given each event's probability.
pub fn any_of(probabilities: impl IntoIterator<Item = f64>) -> f64 {
    1.0 - probabilities.into_iter().map(|p| 1.0 - p).product::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Composite Simpson quadrature of `f` over `[lo, hi]`.
    fn simpson(f: impl Fn(f64) -> f64, lo: f64, hi: f64, n: usize) -> f64 {
        let h = (hi - lo) / n as f64;
        let mut sum = f(lo) + f(hi);
        for i in 1..n {
            sum += f(lo + i as f64 * h) * if i % 2 == 1 { 4.0 } else { 2.0 };
        }
        sum * h / 3.0
    }

    fn normal_pdf(mu: f64, sigma: f64, x: f64) -> f64 {
        phi((x - mu) / sigma) / sigma
    }

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol * b.abs().max(1e-300), "{a} vs {b}");
    }

    #[test]
    fn erfc_matches_known_values_on_both_branches() {
        close(erfc(0.0), 1.0, 1e-15);
        close(erfc(0.5), 0.479_500_122_186_953_5, 1e-14);
        close(erfc(1.0), 0.157_299_207_050_285_13, 1e-14);
        close(erfc(2.0), 0.004_677_734_981_047_266, 1e-13);
        close(erfc(3.0), 2.209_049_699_858_544e-5, 1e-13);
        close(erfc(5.0), 1.537_459_794_428_035e-12, 1e-12);
        close(erfc(-1.0), 2.0 - 0.157_299_207_050_285_13, 1e-14);
        // The two branches meet without a step.
        close(erfc(2.5 - 1e-9), erfc(2.5 + 1e-9), 1e-7);
    }

    #[test]
    fn normal_tail_matches_quadrature() {
        for (mu, sigma, c) in [(10.0, 2.0, 12.0), (55.0, 5.0, 60.0), (0.0, 1.0, -1.5)] {
            let q = simpson(|x| normal_pdf(mu, sigma, x), c, mu + 12.0 * sigma, 20_000);
            close(normal_tail(mu, sigma, c), q, 1e-9);
        }
    }

    #[test]
    fn truncated_partial_expectation_matches_quadrature() {
        for (mu, sigma, c) in [(10.0, 2.0, 12.0), (11.0, 2.5, 9.0), (62.0, 5.0, 60.0)] {
            let q = simpson(
                |x| x * normal_pdf(mu, sigma, x),
                c,
                mu + 12.0 * sigma,
                20_000,
            );
            close(normal_partial_expectation(mu, sigma, c), q, 1e-9);
        }
    }

    #[test]
    fn bivariate_partial_expectation_matches_quadrature() {
        // Integrate x * pdf(x) * P[Y > c - x] over x.
        for (mx, sx, my, sy, c) in [(10.0, 2.0, 11.0, 2.0, 24.0), (9.5, 1.5, 12.0, 2.5, 20.0)] {
            let q = simpson(
                |x| x * normal_pdf(mx, sx, x) * normal_tail(my, sy, c - x),
                mx - 12.0 * sx,
                mx + 12.0 * sx,
                20_000,
            );
            close(bivariate_partial_expectation(mx, sx, my, sy, c), q, 1e-9);
        }
    }

    #[test]
    fn poisson_mean_times_tail_matches_summation_and_quadrature() {
        let (rate, mu, sigma, thr): (f64, f64, f64, f64) = (3.25, 12.0, 3.0, 14.5);
        // E[N] by summing k * pmf(k) far into the tail.
        let mut pmf = (-rate).exp();
        let mut mean = 0.0;
        for k in 1..200 {
            pmf *= rate / k as f64;
            mean += k as f64 * pmf;
        }
        let tail = simpson(|x| normal_pdf(mu, sigma, x), thr, mu + 12.0 * sigma, 20_000);
        close(
            poisson_mean_times_tail(rate, mu, sigma, thr),
            mean * tail,
            1e-9,
        );
    }

    #[test]
    fn any_of_is_the_complement_of_none() {
        close(any_of([0.5, 0.5]), 0.75, 1e-15);
        close(any_of([0.1]), 0.1, 1e-15);
        assert_eq!(any_of(std::iter::empty()), 0.0);
    }
}
