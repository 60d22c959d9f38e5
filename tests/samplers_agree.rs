//! Cross-strategy agreement tests (DESIGN.md invariant 3): rejection,
//! CDF-bounded, Metropolis, and the Sample-First baseline must all
//! estimate the same conditional expectations, and PIP and Sample-First
//! must converge to the same answers as samples grow (invariant 7).

use pip::ctable::{CRow, CTable};
use pip::dist::prelude::*;
use pip::dist::special;
use pip::expr::{atoms, Conjunction, Equation, RandomVar};
use pip::prelude::{DataType, Schema};
use pip::sampling::{expectation, SamplerConfig};
use pip_samplefirst::{agg as sf_agg, BundleTable};

/// E[Y | 1 < Y < 2] for Y ~ Normal(0,1), the closed form.
fn truncated_normal_mean(a: f64, b: f64) -> f64 {
    (special::normal_pdf(a) - special::normal_pdf(b))
        / (special::normal_cdf(b) - special::normal_cdf(a))
}

#[test]
fn all_pip_strategies_agree_on_truncated_normal() {
    let y = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
    let cond = Conjunction::of(vec![
        atoms::gt(Equation::from(y.clone()), 1.0),
        atoms::lt(Equation::from(y.clone()), 2.0),
    ]);
    let expr = Equation::from(y);
    let truth = truncated_normal_mean(1.0, 2.0);

    // CDF-bounded.
    let cdf_cfg = SamplerConfig::fixed_samples(4000);
    let r1 = expectation(&expr, &cond, true, &cdf_cfg, 1).unwrap();
    assert!(
        (r1.expectation - truth).abs() < 0.05,
        "cdf: {}",
        r1.expectation
    );

    // Pure rejection.
    let rej = SamplerConfig::naive(4000);
    let r2 = expectation(&expr, &cond, true, &rej, 2).unwrap();
    assert!(
        (r2.expectation - truth).abs() < 0.05,
        "rej: {}",
        r2.expectation
    );

    // Metropolis (force the switch: disable CDF, threshold 0 so any
    // rejection triggers it).
    let mut mh = SamplerConfig::fixed_samples(6000);
    mh.use_cdf_sampling = false;
    mh.metropolis_threshold = 0.2;
    let r3 = expectation(&expr, &cond, false, &mh, 3).unwrap();
    assert!(r3.used_metropolis, "expected the Metropolis fallback");
    assert!(
        (r3.expectation - truth).abs() < 0.1,
        "mh: {}",
        r3.expectation
    );

    // Exact probability from the CDF path.
    let p_truth = special::normal_cdf(2.0) - special::normal_cdf(1.0);
    assert!((r1.probability - p_truth).abs() < 1e-9);
}

#[test]
fn pip_and_samplefirst_converge_to_the_same_value() {
    // E[χ_{W>1}·X·W] with X ~ Poisson(3) ⊥ W ~ Exponential(1):
    // = λ·E[W·1{W>1}] = 3·(1+1)·e^{-1} (∫_1^∞ w e^{-w} dw = 2e^{-1}).
    let x = RandomVar::create(builtin::poisson(), &[3.0]).unwrap();
    let w = RandomVar::create(builtin::exponential(), &[1.0]).unwrap();
    let schema = Schema::of(&[("v", DataType::Symbolic)]);
    let ct = CTable::new(
        schema,
        vec![CRow::new(
            vec![(Equation::from(x) * Equation::from(w.clone())).simplify()],
            Conjunction::single(atoms::gt(Equation::from(w), 1.0)),
        )],
    )
    .unwrap();
    let truth = 3.0 * 2.0 * (-1.0f64).exp();

    // PIP: expected_sum = E[v|cond]·P[cond].
    let cfg = SamplerConfig::fixed_samples(6000);
    let pip = pip::sampling::expected_sum(&ct, "v", &cfg).unwrap().value;
    assert!((pip - truth).abs() / truth < 0.05, "pip {pip} vs {truth}");

    // Sample-First: unconditional per-world sum mean.
    let bt = BundleTable::instantiate(&ct, 60_000, 9).unwrap();
    let sf = sf_agg::expected_sum(&bt, "v").unwrap();
    assert!((sf - truth).abs() / truth < 0.05, "sf {sf} vs {truth}");
}

#[test]
fn discrete_explosion_equals_symbolic_evaluation() {
    // Exploding a die roll and summing exact per-row confidences must
    // reproduce the symbolic expectation.
    let d = RandomVar::create(builtin::discrete_uniform(), &[1.0, 6.0]).unwrap();
    let schema = Schema::of(&[("roll", DataType::Symbolic)]);
    let ct = CTable::new(
        schema,
        vec![CRow::unconditional(vec![Equation::from(d.clone())])],
    )
    .unwrap();
    let exploded = pip::ctable::explode_discrete(&ct, 16).unwrap();
    assert_eq!(exploded.len(), 6);
    let cfg = SamplerConfig::default();
    // Σ value · P[X = value] = 3.5.
    let mut acc = 0.0;
    for (i, row) in exploded.rows().iter().enumerate() {
        let v = row.cells[0].as_const().unwrap().as_f64().unwrap();
        let p = pip::sampling::conf(&row.condition, &cfg, i as u64).unwrap();
        assert!((p - 1.0 / 6.0).abs() < 1e-9, "{p}");
        acc += v * p;
    }
    assert!((acc - 3.5).abs() < 1e-9);
    // Symbolic path: linearity fast path gives the mean directly.
    let r = expectation(&Equation::from(d), &Conjunction::top(), false, &cfg, 0).unwrap();
    assert!((r.expectation - 3.5).abs() < 1e-9);
}

#[test]
fn seeded_runs_are_fully_reproducible_across_the_stack() {
    let y = RandomVar::create(builtin::gamma(), &[2.0, 3.0]).unwrap();
    let cond = Conjunction::single(atoms::gt(Equation::from(y.clone()), 5.0));
    let cfg = SamplerConfig::fixed_samples(500).with_seed(0xAB);
    let a = expectation(&Equation::from(y.clone()), &cond, true, &cfg, 7).unwrap();
    let b = expectation(&Equation::from(y.clone()), &cond, true, &cfg, 7).unwrap();
    assert_eq!(a, b);

    let schema = Schema::of(&[("v", DataType::Symbolic)]);
    let ct = CTable::new(schema, vec![CRow::unconditional(vec![Equation::from(y)])]).unwrap();
    let t1 = BundleTable::instantiate(&ct, 64, 5).unwrap();
    let t2 = BundleTable::instantiate(&ct, 64, 5).unwrap();
    assert_eq!(t1, t2);
}

/// `P[C]` of a group that switched to Metropolis rests on every candidate
/// the group drew: the rejection prefix before the switch and the
/// fixed-budget probe after it, iid draws from the same box. The prefix
/// alone is a few hundred candidates at P ≈ 0.004, often without a hit.
#[test]
fn probability_after_a_metropolis_switch_uses_every_candidate() {
    let x = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
    let e = RandomVar::create(builtin::exponential(), &[1.0]).unwrap();
    let cond = Conjunction::single(atoms::gt(
        Equation::from(x.clone()) + Equation::from(e),
        6.0,
    ));
    // P[x + e > 6] = Φ̄(6) + e^{−5.5}·Φ(5): the x > 6 tail, plus
    // ∫_{−∞}^{6} φ(x)·e^{−(6−x)} dx.
    let truth = 1.0 - special::normal_cdf(6.0) + (-5.5f64).exp() * special::normal_cdf(5.0);
    let cfg = SamplerConfig::default();
    let mut rel_errs: Vec<f64> = (0..40u64)
        .map(|site| {
            let r = expectation(&Equation::from(x.clone()), &cond, true, &cfg, site).unwrap();
            assert!(r.used_metropolis, "site {site}: the setup must switch");
            assert!(r.probability > 0.0, "site {site}: P[C] = 0");
            (r.probability - truth).abs() / truth
        })
        .collect();
    rel_errs.sort_by(f64::total_cmp);
    let median = (rel_errs[19] + rel_errs[20]) / 2.0;
    assert!(median < 0.15, "median rel_err {median}");
}
