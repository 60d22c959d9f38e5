//! The standard-normal kernel behind every unconstrained Gaussian draw
//! (`pip_dist::standard_normal`, a ziggurat), checked as a distribution
//! at fixed seeds, and the rejection path built on it checked against a
//! closed form across seeds.

use pip::dist::prelude::builtin;
use pip::dist::special::{inverse_normal_cdf, normal_cdf, normal_pdf};
use pip::dist::{rng_from_seed, standard_normal};
use pip::expr::{atoms, Conjunction, Equation, RandomVar};
use pip::sampling::{expectation, SamplerConfig};

/// The first `n` draws of the stream seeded with `seed`.
fn draws(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = rng_from_seed(seed);
    (0..n).map(|_| standard_normal(&mut rng)).collect()
}

#[test]
fn chi_square_over_equiprobable_bins() {
    // 128 bins of mass 1/128 each, edges from Φ⁻¹. With 127 degrees of
    // freedom the statistic has mean 127 and σ ≈ 15.9; 200 is past its
    // 99.99th percentile.
    const BINS: usize = 128;
    let edges: Vec<f64> = (1..BINS)
        .map(|k| inverse_normal_cdf(k as f64 / BINS as f64))
        .collect();
    for seed in [1, 2, 3] {
        let n = 256_000;
        let mut counts = [0u32; BINS];
        for z in draws(seed, n) {
            counts[edges.partition_point(|&e| e <= z)] += 1;
        }
        let expected = n as f64 / BINS as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum();
        assert!(chi2 < 200.0, "seed {seed}: χ² = {chi2}");
    }
}

#[test]
fn tail_frequencies_match_the_cdf() {
    // Two-sided tails past 3σ, 4σ and 5σ. The ziggurat's layers end at
    // R ≈ 3.44; every draw past it comes from the tail method.
    let n = 2_000_000;
    let zs = draws(11, n);
    for k in [3.0, 4.0, 5.0] {
        let expected = 2.0 * normal_cdf(-k) * n as f64;
        let hits = zs.iter().filter(|z| z.abs() > k).count() as f64;
        // Poisson counts: within 4.5 standard deviations, plus one for
        // the 5σ bin's ~1 expected hit.
        let slack = 4.5 * expected.sqrt() + 1.0;
        assert!(
            (hits - expected).abs() < slack,
            "|z| > {k}: {hits} vs {expected:.1}"
        );
    }
}

#[test]
fn first_four_moments() {
    let n = 400_000;
    let zs = draws(5, n);
    let m = |k: i32| zs.iter().map(|z| z.powi(k)).sum::<f64>() / n as f64;
    // Var(zᵏ) for k = 1..4 is 1, 2, 15, 96.
    let se = |var: f64| (var / n as f64).sqrt();
    assert!(m(1).abs() < 4.0 * se(1.0), "E[z] {}", m(1));
    assert!((m(2) - 1.0).abs() < 4.0 * se(2.0), "E[z²] {}", m(2));
    assert!(m(3).abs() < 4.0 * se(15.0), "E[z³] {}", m(3));
    assert!((m(4) - 3.0).abs() < 4.0 * se(96.0), "E[z⁴] {}", m(4));
}

#[test]
fn normal_generate_is_the_kernel_scaled() {
    // `Normal(μ, σ)` draws μ + σ·z from the same stream, draw for draw.
    let normal = builtin::normal();
    let (mut a, mut b) = (rng_from_seed(4), rng_from_seed(4));
    for _ in 0..10_000 {
        let x = normal.generate(&[5.0, 2.0], &mut a);
        assert_eq!(x.to_bits(), (5.0 + 2.0 * standard_normal(&mut b)).to_bits());
    }
    assert_eq!(a.state(), b.state());
}

/// `E[x | x + y > c]` over Normals: one group with no box, so
/// CDF-bounded sampling has nothing to bound and the loop rejects over
/// `Generate` draws. With `s = x + y ~ Normal(μs, σs)` and
/// `a = (c − μs)/σs`, the closed form is `μx + (σx²/σs)·φ(a)/Q(a)`.
/// Each seed's estimate targets relative error δ with confidence 1 − ε
/// (paper Section IV-A), so across seeds the band `truth·(1 ± δ)` is
/// missed in about an ε share of them.
#[test]
fn rejection_path_is_calibrated_against_the_closed_form() {
    let (mx, sx, my, sy, c) = (5.0, 2.0, 0.0, 1.0, 6.0);
    let x = RandomVar::create(builtin::normal(), &[mx, sx]).unwrap();
    let y = RandomVar::create(builtin::normal(), &[my, sy]).unwrap();
    let target = Equation::from(x.clone());
    let cond = Conjunction::single(atoms::gt(Equation::from(x) + Equation::from(y), c));
    let ss = f64::hypot(sx, sy);
    let a = (c - mx - my) / ss;
    let truth = mx + sx * sx / ss * normal_pdf(a) / (1.0 - normal_cdf(a));

    let seeds = 200;
    let cfg = SamplerConfig::default();
    let (mut misses, mut mean) = (0, 0.0);
    for seed in 0..seeds {
        let r = expectation(&target, &cond, false, &cfg.clone().with_seed(seed), 0).unwrap();
        assert!(r.n_samples >= cfg.min_samples && !r.used_metropolis);
        misses += usize::from((r.expectation - truth).abs() > cfg.delta * truth);
        mean += r.expectation / seeds as f64;
    }
    // 21: the 99.9th percentile of Binomial(200, ε = 0.05).
    assert!(
        misses <= 21,
        "{misses} of {seeds} seeds outside {truth}·(1 ± {})",
        cfg.delta
    );
    // Where a biased draw would show: each estimate's standard error is
    // at most δ·truth/z, so the mean of 200 sits within 4 of theirs.
    let se_mean = cfg.delta * truth / cfg.z_target() / (seeds as f64).sqrt();
    assert!((mean - truth).abs() < 4.0 * se_mean, "{mean} vs {truth}");
}
