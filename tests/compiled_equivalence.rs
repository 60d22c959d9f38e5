//! Sampling equivalence properties: the production operators (slot
//! tapes + group kernels + columnar sample blocks) must be
//! **bit-identical** to the tree-walking oracle (`pip::sampling::oracle`)
//! at every seed, site, and thread count.
//!
//! * tape vs tree: `Tape::eval` == `Equation::eval_f64` and
//!   `CondTape::eval_bool` == `Conjunction::eval` over random
//!   expressions and assignments, to the bit (including errors);
//! * operator level: `expectation` / `conf` == `oracle::expectation` /
//!   `oracle::conf`, for both `want_probability` settings, across
//!   sampler configurations that exercise CDF-bounded sampling,
//!   rejection, multi-group independence, non-numeric constants, and
//!   the Metropolis switch;
//! * a group that switches to Metropolis after a full 256-sample block
//!   switches where the oracle does;
//! * an affine expression independent of its condition is answered in
//!   closed form: no draws, the unconditional mean, and the `P[C]` of a
//!   constant expression.

mod common;

use proptest::prelude::*;

use pip::core::Value;
use pip::dist::prelude::builtin;
use pip::expr::{atoms, Assignment, Conjunction, Equation, RandomVar, SlotMap};
use pip::sampling::{conf, expectation, oracle, CondTape, ExpectationResult, SamplerConfig, Tape};

/// Deterministic pseudo-stream for structure generation (the proptest
/// shim supplies only flat numeric inputs).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + u * (hi - lo)
    }
}

fn var_pool(g: &mut Gen, n: usize) -> Vec<RandomVar> {
    (0..n)
        .map(|_| match g.below(4) {
            0 => RandomVar::create(
                builtin::normal(),
                &[g.f64_in(-3.0, 3.0), g.f64_in(0.5, 3.0)],
            )
            .unwrap(),
            1 => RandomVar::create(builtin::uniform(), &[-2.0, 5.0]).unwrap(),
            2 => RandomVar::create(builtin::exponential(), &[g.f64_in(0.2, 2.0)]).unwrap(),
            _ => RandomVar::create(builtin::poisson(), &[g.f64_in(0.5, 8.0)]).unwrap(),
        })
        .collect()
}

/// Random arithmetic tree over the pool (division kept, so the
/// divide-by-zero error path is also compared; a rare string constant
/// makes the tape's type error meet the tree walk's).
fn random_expr(g: &mut Gen, pool: &[RandomVar], depth: usize) -> Equation {
    if depth == 0 || g.below(4) == 0 {
        return match g.below(48) {
            0 => Equation::val(Value::str("a")),
            1..=15 => Equation::val(g.f64_in(-4.0, 4.0)),
            _ => Equation::from(pool[g.below(pool.len() as u64) as usize].clone()),
        };
    }
    let l = random_expr(g, pool, depth - 1);
    let r = random_expr(g, pool, depth - 1);
    match g.below(5) {
        0 => l + r,
        1 => l - r,
        2 => l * r,
        3 => l / r,
        _ => -l,
    }
}

/// Random conjunction over the pool: single-variable intervals (exact /
/// CDF-bounded paths), cross-variable atoms (genuine rejection),
/// deterministic atoms, and rarely one that divides or adds a string.
fn random_cond(g: &mut Gen, pool: &[RandomVar], n_atoms: usize) -> Conjunction {
    let mut atoms_v = Vec::new();
    for _ in 0..n_atoms {
        let a = pool[g.below(pool.len() as u64) as usize].clone();
        let atom = match g.below(26) {
            24 => atoms::gt(Equation::from(a) / random_expr(g, pool, 1), 0.5),
            25 => atoms::lt(Equation::from(a) + Equation::val(Value::str("s")), 1.0),
            k => match k % 4 {
                0 => atoms::gt(Equation::from(a), g.f64_in(-2.0, 1.0)),
                1 => atoms::lt(Equation::from(a), g.f64_in(1.0, 6.0)),
                2 => {
                    let b = pool[g.below(pool.len() as u64) as usize].clone();
                    atoms::gt(Equation::from(a), Equation::from(b) - g.f64_in(0.0, 3.0))
                }
                _ => atoms::le(Equation::val(g.f64_in(-1.0, 1.0)), 0.5),
            },
        };
        atoms_v.push(atom);
    }
    Conjunction::of(atoms_v)
}

/// Random affine expression `c + Σ ±aᵢ·Xᵢ` over the pool, in the shapes
/// the closed form must recognise (`a * X`, `X * a`, `X / a`, `-X`).
fn random_affine(g: &mut Gen, pool: &[RandomVar]) -> Equation {
    let mut expr = Equation::val(g.f64_in(-4.0, 4.0));
    for v in pool {
        let x = Equation::from(v.clone());
        let term = match g.below(4) {
            0 => x * g.f64_in(-3.0, 3.0),
            1 => Equation::val(g.f64_in(-3.0, 3.0)) * x,
            2 => x / g.f64_in(0.5, 4.0),
            _ => -x,
        };
        expr = if g.below(2) == 0 {
            expr + term
        } else {
            expr - term
        };
    }
    expr
}

/// Bit-exact comparison (NaN == NaN, unlike PartialEq).
fn assert_results_identical(a: &ExpectationResult, b: &ExpectationResult, what: &str) {
    assert_eq!(
        a.expectation.to_bits(),
        b.expectation.to_bits(),
        "{what}: expectation {} vs {}",
        a.expectation,
        b.expectation
    );
    assert_eq!(
        a.probability.to_bits(),
        b.probability.to_bits(),
        "{what}: probability {} vs {}",
        a.probability,
        b.probability
    );
    assert_eq!(a.n_samples, b.n_samples, "{what}: n_samples");
    assert_eq!(
        a.std_error.to_bits(),
        b.std_error.to_bits(),
        "{what}: std_error"
    );
    assert_eq!(a.used_metropolis, b.used_metropolis, "{what}: metropolis");
}

/// Production and oracle agree: identical results, or identical errors.
fn assert_same_outcome(
    prod: pip::core::Result<ExpectationResult>,
    oracle: pip::core::Result<ExpectationResult>,
    what: &str,
) {
    match (prod, oracle) {
        (Ok(a), Ok(b)) => assert_results_identical(&a, &b, what),
        (Err(ea), Err(eb)) => assert_eq!(ea.to_string(), eb.to_string(), "{what}"),
        (a, b) => panic!("{what}: production {a:?} vs oracle {b:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tape evaluation is the tree evaluation, to the bit — including
    /// which error comes first (division by zero, a string constant).
    #[test]
    fn tape_matches_tree_on_random_expressions(
        structure in 0u64..u64::MAX,
        n_vars in 1usize..5,
        depth in 0usize..5,
    ) {
        let mut g = Gen(structure);
        let pool = var_pool(&mut g, n_vars);
        let expr = random_expr(&mut g, &pool, depth);
        let mut slots = SlotMap::new();
        slots.intern_all(&pool);
        let tape = Tape::compile(&expr, &slots);
        let mut regs = Vec::new();
        for _ in 0..8 {
            let mut buf = vec![0.0; slots.len()];
            let mut asg = Assignment::new();
            for (i, v) in pool.iter().enumerate() {
                // Include exact zeros so division-by-zero fires.
                let x = if g.below(5) == 0 { 0.0 } else { g.f64_in(-5.0, 5.0) };
                buf[i] = x;
                asg.set(v.key, x);
            }
            match (tape.eval(&buf, &mut regs), expr.eval_f64(&asg)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a.to_bits(), b.to_bits()),
                (Err(ea), Err(eb)) => prop_assert_eq!(ea.to_string(), eb.to_string()),
                (a, b) => prop_assert!(false, "tape {:?} vs tree {:?}", a, b),
            }
        }
    }

    /// Condition tapes agree with `Conjunction::eval`, short-circuit
    /// order and errors included.
    #[test]
    fn cond_tape_matches_conjunction(
        structure in 0u64..u64::MAX,
        n_vars in 1usize..4,
        n_atoms in 0usize..5,
    ) {
        let mut g = Gen(structure);
        let pool = var_pool(&mut g, n_vars);
        let cond = random_cond(&mut g, &pool, n_atoms);
        let mut slots = SlotMap::new();
        slots.intern_all(&pool);
        let tape = CondTape::compile(&cond, &slots);
        let mut regs = Vec::new();
        for _ in 0..8 {
            let mut buf = vec![0.0; slots.len()];
            let mut asg = Assignment::new();
            for (i, v) in pool.iter().enumerate() {
                let x = g.f64_in(-5.0, 5.0);
                buf[i] = x;
                asg.set(v.key, x);
            }
            match (tape.eval_bool(&buf, &mut regs), cond.eval(&asg)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(ea), Err(eb)) => prop_assert_eq!(ea.to_string(), eb.to_string()),
                (a, b) => prop_assert!(false, "tape {:?} vs tree {:?}", a, b),
            }
        }
    }

    /// The headline property: `expectation` is bit-identical to the
    /// oracle, for both probability settings, on expressions/conditions
    /// spanning every strategy.
    #[test]
    fn expectation_compiled_matches_interpreted(
        structure in 0u64..u64::MAX,
        site in 0u64..64,
        n in 64usize..512,
        wp in 0u8..2,
        adaptive in 0u8..3,
    ) {
        let mut g = Gen(structure);
        let pool = var_pool(&mut g, 3);
        let expr = random_expr(&mut g, &pool, 3);
        let n_atoms = (g.below(3) + 1) as usize;
        let cond = random_cond(&mut g, &pool, n_atoms);
        // Exercise both the fixed-budget loop and the adaptive ε–δ
        // stopping rule (which can fire mid-block: the blocked loop must
        // stop — and leave its sampler state — at exactly the oracle's
        // sample, counters included, because the probability pass reads
        // both the RNG and the acceptance counts).
        let cfg = match adaptive {
            0 => SamplerConfig::fixed_samples(n),
            1 => SamplerConfig {
                min_samples: 32,
                max_samples: n,
                delta: 0.1,
                ..Default::default()
            },
            _ => SamplerConfig {
                min_samples: 16,
                max_samples: n,
                ..Default::default()
            },
        };
        let want_probability = wp == 1;
        assert_same_outcome(
            expectation(&expr, &cond, want_probability, &cfg, site),
            oracle::expectation(&expr, &cond, want_probability, &cfg, site),
            "expectation",
        );
    }

    /// The same property where groups switch to Metropolis: no CDF
    /// bounds, selective atoms, a lower switch threshold. The switch
    /// lands anywhere — first sample, mid-block, past the adaptive stop.
    #[test]
    fn expectation_matches_oracle_through_metropolis_switches(
        structure in 0u64..u64::MAX,
        site in 0u64..64,
        n in 64usize..768,
        wp in 0u8..2,
        adaptive in 0u8..2,
    ) {
        let mut g = Gen(structure);
        let pool = var_pool(&mut g, 2);
        let expr = random_expr(&mut g, &pool, 2);
        // A tail atom on each pool variable, at P ≈ 2–15 %.
        let mut tail: Vec<_> = pool
            .iter()
            .map(|v| {
                let p = g.f64_in(0.85, 0.98);
                let c = v.class.inverse_cdf(&v.params, p).unwrap_or(1.0);
                atoms::gt(Equation::from(v.clone()), c)
            })
            .collect();
        tail.extend(random_cond(&mut g, &pool, 1).atoms().iter().cloned());
        let cond = Conjunction::of(tail);
        let cfg = SamplerConfig {
            use_cdf_sampling: false,
            metropolis_threshold: g.f64_in(0.8, 0.97),
            metropolis_burn_in: 50,
            ..if adaptive == 1 {
                SamplerConfig {
                    min_samples: 32,
                    max_samples: n,
                    delta: 0.2,
                    ..Default::default()
                }
            } else {
                SamplerConfig::fixed_samples(n)
            }
        };
        let want_probability = wp == 1;
        assert_same_outcome(
            expectation(&expr, &cond, want_probability, &cfg, site),
            oracle::expectation(&expr, &cond, want_probability, &cfg, site),
            "escalating expectation",
        );
    }

    /// An affine expression over variables no condition atom touches is
    /// answered in closed form (paper Example 3.1): its expectation is
    /// the unconditional one, nothing is drawn for it, and `P[C]` is the
    /// one a constant expression gets — probes included, on the same
    /// generator.
    #[test]
    fn unconstrained_affine_expectation_is_closed_form(
        structure in 0u64..u64::MAX,
        site in 0u64..64,
        n in 64usize..512,
        n_vars in 1usize..4,
    ) {
        let mut g = Gen(structure);
        let expr_pool = var_pool(&mut g, n_vars);
        let cond_pool = var_pool(&mut g, 3);
        let expr = random_affine(&mut g, &expr_pool);
        let n_atoms = (g.below(4) + 1) as usize;
        let cond = random_cond(&mut g, &cond_pool, n_atoms);
        let cfg = SamplerConfig::fixed_samples(n);
        let one = expectation(&Equation::val(1.0), &cond, true, &cfg, site);
        let r = expectation(&expr, &cond, true, &cfg, site);
        assert_same_outcome(
            r.clone(),
            oracle::expectation(&expr, &cond, true, &cfg, site),
            "closed-form expectation",
        );
        match (r, one) {
            (Ok(r), Ok(one)) => {
                prop_assert_eq!(r.n_samples, 0);
                prop_assert_eq!(r.probability.to_bits(), one.probability.to_bits());
                if one.expectation.is_nan() {
                    // The condition holds in no world.
                    prop_assert!(r.expectation.is_nan());
                } else {
                    let top = expectation(&expr, &Conjunction::top(), true, &cfg, site).unwrap();
                    prop_assert_eq!(top.n_samples, 0);
                    prop_assert_eq!(r.expectation.to_bits(), top.expectation.to_bits());
                }
            }
            (Err(ea), Err(eb)) => prop_assert_eq!(ea.to_string(), eb.to_string()),
            (a, b) => prop_assert!(false, "affine {:?} vs constant {:?}", a, b),
        }
        // A non-affine expression of the same variables still averages.
        let x = Equation::from(expr_pool[0].clone());
        let sq = expectation(&(x.clone() * x), &cond, false, &cfg, site).unwrap();
        prop_assert!(sq.expectation.is_nan() || sq.n_samples > 0);
    }

    /// `conf` through kernels + the probe cache equals the oracle's
    /// `conf`, bit for bit, cold and warm.
    #[test]
    fn conf_compiled_matches_interpreted(
        structure in 0u64..u64::MAX,
        site in 0u64..64,
        naive_sel in 0u8..2,
    ) {
        let mut g = Gen(structure);
        let pool = var_pool(&mut g, 3);
        let n_atoms = (g.below(4) + 1) as usize;
        let cond = random_cond(&mut g, &pool, n_atoms);
        let cfg = if naive_sel == 1 {
            SamplerConfig::naive(400)
        } else {
            SamplerConfig::fixed_samples(400)
        };
        let outcome = |r: pip::core::Result<f64>| r.map(f64::to_bits).map_err(|e| e.to_string());
        let a = outcome(oracle::conf(&cond, &cfg, site));
        let b = outcome(conf(&cond, &cfg, site));
        // And again with a warm probe cache.
        let c = outcome(conf(&cond, &cfg, site));
        prop_assert!(a == b, "cold conf diverged: {:?} vs {:?}", a, b);
        prop_assert!(a == c, "warm conf diverged: {:?} vs {:?}", a, c);
    }
}

/// Regression (caught in review): with adaptive stopping and a
/// multi-variable group that has no exact CDF path, the probability
/// comes from the averaging loop's acceptance counters — a compiled
/// block that overdraws past the stopping point would inflate them.
/// `E[X | X+Y > 0]` for Normal `X` and Exponential `Y` (two Normals
/// would take the exact Normal-sum path) at delta=0.1 must agree to the
/// bit, probability included.
#[test]
fn adaptive_stop_counters_feed_probability_bit_identically() {
    let x = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
    let y = RandomVar::create(builtin::exponential(), &[1.0]).unwrap();
    let cond = Conjunction::single(atoms::gt(
        Equation::from(x.clone()) + Equation::from(y.clone()),
        0.0,
    ));
    let cfg = SamplerConfig {
        min_samples: 32,
        max_samples: 10_000,
        delta: 0.1,
        ..Default::default()
    };
    for site in 0..16u64 {
        let a = oracle::expectation(&Equation::from(x.clone()), &cond, true, &cfg, site).unwrap();
        let b = expectation(&Equation::from(x.clone()), &cond, true, &cfg, site).unwrap();
        assert_results_identical(&a, &b, &format!("adaptive site {site}"));
    }
}

/// Grouped `conf()` over multi-row groups — `aconf`'s factorised,
/// sampled-component and probe paths — is bit-identical at one thread
/// and at four, on a first run and on repeats. (The oracle side is the `conf`
/// property above: a one-disjunct component is `conf` at its
/// component's site.)
#[test]
fn grouped_conf_compiled_matches_interpreted() {
    use pip::engine::{execute, AggFunc, Database, PlanBuilder};
    let (t, _) = common::grouped_conf_table();
    let db = Database::new();
    db.register_table("t", t).unwrap();
    let plan = PlanBuilder::scan("t")
        .aggregate(vec!["g"], vec![AggFunc::Conf])
        .build();
    let cold = execute(&db, &plan, &SamplerConfig::default()).unwrap();
    assert_eq!(cold.len(), 3);
    for threads in [1usize, 4] {
        // Twice: a repeat draws the same streams again.
        for _ in 0..2 {
            let cfg = SamplerConfig::default().with_threads(threads);
            assert_eq!(
                execute(&db, &plan, &cfg).unwrap().rows(),
                cold.rows(),
                "grouped conf() diverged at {threads} threads"
            );
        }
    }
}

/// A selectivity extreme enough to trip the Metropolis switch (with CDF
/// bounds disabled): the kernel switches where the oracle does and
/// continues draw for draw, on the sample-at-a-time loop (a sampled
/// `P[C]` follows) and on the blocked one.
#[test]
fn escalation_continues_bit_identically() {
    let y = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
    let e = RandomVar::create(builtin::exponential(), &[1.0]).unwrap();
    let cfg = SamplerConfig {
        use_cdf_sampling: false,
        ..SamplerConfig::fixed_samples(400)
    };
    let tail = Conjunction::single(atoms::gt(Equation::from(y.clone()), 4.0));
    let sum = Conjunction::single(atoms::gt(
        Equation::from(y.clone()) + Equation::from(e),
        7.0,
    ));
    for (cond, wp) in [(&tail, true), (&tail, false), (&sum, true)] {
        let a = oracle::expectation(&Equation::from(y.clone()), cond, wp, &cfg, 3).unwrap();
        let b = expectation(&Equation::from(y.clone()), cond, wp, &cfg, 3).unwrap();
        assert!(a.used_metropolis, "test setup must force the switch");
        assert_results_identical(&a, &b, &format!("escalated expectation of {cond}"));
    }
}

/// `E[x | x > 1.2816]` at rejection rate ≈ 0.9 = the switch threshold,
/// adaptive stop after 32 samples: whether and when a group switches
/// depends on the draws.
fn near_threshold() -> (Equation, Conjunction, SamplerConfig) {
    let x = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
    let cond = Conjunction::single(atoms::gt(Equation::from(x.clone()), 1.2816));
    let cfg = SamplerConfig {
        use_cdf_sampling: false,
        metropolis_threshold: 0.9,
        ..SamplerConfig::default()
    };
    (Equation::from(x), cond, cfg)
}

/// A blocked fill draws 256 samples where the adaptive loop may stop
/// after 32. At site 0 the oracle stops before the rejection rate
/// crosses the threshold, while 256 samples cross it: the block must
/// not switch the group in a tail the loop never reads. Whether a site
/// has that shape depends on the exact draw stream; site 0 is the first
/// in a scan from 0 on which both preconditions below hold.
#[test]
fn overdrawn_block_never_switches_past_the_stop() {
    let (x, cond, base) = near_threshold();
    let site = 0;
    let adaptive = SamplerConfig {
        min_samples: 32,
        delta: 0.5,
        ..base.clone()
    };
    let stopped = oracle::expectation(&x, &cond, false, &adaptive, site).unwrap();
    assert!(stopped.n_samples < 256 && !stopped.used_metropolis);
    let block = SamplerConfig {
        min_samples: 256,
        max_samples: 256,
        ..base
    };
    let crossed = oracle::expectation(&x, &cond, false, &block, site).unwrap();
    assert!(
        crossed.used_metropolis,
        "site {site} no longer crosses in a block"
    );
    let prod = expectation(&x, &cond, false, &adaptive, site).unwrap();
    assert_results_identical(&stopped, &prod, "adaptive stop before the trigger");
}

/// A group that switches after its first 256-sample block: the blocked
/// loop holds the trigger reached inside a later block until the loop
/// asks for that sample, and then continues on the chain exactly where
/// the oracle does. (`escalation_continues_bit_identically` switches on
/// the first sample, so only this test crosses a block boundary before
/// the switch.) Whether a site has that shape depends on the exact draw
/// stream; site 16 is the first in a scan from 0 on which both
/// preconditions below hold. A held trigger that the next fill failed to
/// switch on would cost one extra candidate before the switch, which the
/// chain's start-point scan rejects anyway at most sites, this one
/// included; `tape::tests::held_switch_resumes_where_it_stopped` checks
/// that resume on the kernel itself.
#[test]
fn switch_after_first_block_matches_oracle() {
    let (x, cond, base) = near_threshold();
    let site = 16;
    let fixed = |n| SamplerConfig {
        min_samples: n,
        max_samples: n,
        ..base.clone()
    };
    let first_block = oracle::expectation(&x, &cond, false, &fixed(256), site).unwrap();
    assert!(
        !first_block.used_metropolis,
        "site {site} now switches in its first block"
    );
    let truth = oracle::expectation(&x, &cond, false, &fixed(1024), site).unwrap();
    assert!(
        truth.used_metropolis,
        "site {site} no longer switches after 256"
    );
    let r = expectation(&x, &cond, false, &fixed(1024), site).unwrap();
    assert_results_identical(&truth, &r, "switch after the first block");
}

/// Satellite fix: `probability` is NAN — never a fake 0 or 1 — when the
/// caller did not request it, on every path (sampled, exact-constant,
/// linear-exact, unsatisfiable), in production and in the oracle.
#[test]
fn probability_is_nan_when_not_requested() {
    type Operator = fn(
        &Equation,
        &Conjunction,
        bool,
        &SamplerConfig,
        u64,
    ) -> pip::core::Result<ExpectationResult>;
    let y = RandomVar::create(builtin::normal(), &[1.0, 2.0]).unwrap();
    let cond = Conjunction::single(atoms::gt(Equation::from(y.clone()), 0.5));
    let dead = Conjunction::of(vec![
        atoms::gt(Equation::from(y.clone()), 5.0),
        atoms::lt(Equation::from(y.clone()), 3.0),
    ]);
    let cfg = SamplerConfig::fixed_samples(100);
    for operator in [expectation as Operator, oracle::expectation] {
        // Sampled path.
        let r = operator(&Equation::from(y.clone()), &cond, false, &cfg, 0).unwrap();
        assert!(r.probability.is_nan(), "sampled: {}", r.probability);
        // Exact-constant expression path.
        let r = operator(&Equation::val(42.0), &cond, false, &cfg, 0).unwrap();
        assert!(r.probability.is_nan(), "const: {}", r.probability);
        // Linear-exact path (trivially-true condition).
        let r = operator(
            &Equation::from(y.clone()),
            &Conjunction::top(),
            false,
            &cfg,
            0,
        )
        .unwrap();
        assert!(r.probability.is_nan(), "linear: {}", r.probability);
        // Unsatisfiable context.
        let r = operator(&Equation::from(y.clone()), &dead, false, &cfg, 0).unwrap();
        assert!(r.expectation.is_nan() && r.probability.is_nan());
        // And the probability is still real when requested.
        let r = operator(&Equation::from(y.clone()), &cond, true, &cfg, 0).unwrap();
        assert!(r.probability > 0.0 && r.probability <= 1.0);
    }
}
