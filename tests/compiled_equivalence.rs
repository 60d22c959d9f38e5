//! Sampling-compiler equivalence properties: the compiled path (slot
//! tapes + group kernels + columnar sample blocks, `SamplerConfig::
//! compile`) must be **bit-identical** to the interpreted reference
//! path at every seed, site, thread count, and cache setting.
//!
//! * tape vs tree: `Tape::eval` == `Equation::eval_f64` and
//!   `CondTape::eval_bool` == `Conjunction::eval` over random
//!   expressions and assignments, to the bit (including errors);
//! * operator level: `expectation` / `conf` with the compiler on ==
//!   off, for both `want_probability` settings,
//!   across sampler configurations that exercise CDF-bounded sampling,
//!   rejection, multi-group independence, and the Metropolis
//!   escalation bail-out;
//! * the sample-block cache is pure memoization: cold, warm, and
//!   disabled runs produce the same `ExpectationResult`.

mod common;

use proptest::prelude::*;

use pip::dist::prelude::builtin;
use pip::expr::{atoms, Assignment, Conjunction, Equation, RandomVar, SlotMap};
use pip::sampling::{
    block_cache_clear, conf, expectation, CondTape, ExpectationResult, SamplerConfig, Tape,
};

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
/// divide-by-zero error path is also compared).
fn random_expr(g: &mut Gen, pool: &[RandomVar], depth: usize) -> Equation {
    if depth == 0 || g.below(4) == 0 {
        return if g.below(3) == 0 {
            Equation::val(g.f64_in(-4.0, 4.0))
        } else {
            Equation::from(pool[g.below(pool.len() as u64) as usize].clone())
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
/// CDF-bounded paths), cross-variable atoms (genuine rejection), and
/// deterministic atoms.
fn random_cond(g: &mut Gen, pool: &[RandomVar], n_atoms: usize) -> Conjunction {
    let mut atoms_v = Vec::new();
    for _ in 0..n_atoms {
        let a = pool[g.below(pool.len() as u64) as usize].clone();
        let atom = match g.below(4) {
            0 => atoms::gt(Equation::from(a), g.f64_in(-2.0, 1.0)),
            1 => atoms::lt(Equation::from(a), g.f64_in(1.0, 6.0)),
            2 => {
                let b = pool[g.below(pool.len() as u64) as usize].clone();
                atoms::gt(Equation::from(a), Equation::from(b) - g.f64_in(0.0, 3.0))
            }
            _ => atoms::le(Equation::val(g.f64_in(-1.0, 1.0)), 0.5),
        };
        atoms_v.push(atom);
    }
    Conjunction::of(atoms_v)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tape evaluation is the tree evaluation, to the bit — including
    /// which of the two errors first (unassigned variables never occur
    /// in compiled contexts; division by zero must match).
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
        let tape = Tape::compile(&expr, &slots).expect("numeric expression compiles");
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
    /// order included.
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
        let tape = CondTape::compile(&cond, &slots).expect("condition compiles");
        let mut regs = Vec::new();
        for _ in 0..8 {
            let mut buf = vec![0.0; slots.len()];
            let mut asg = Assignment::new();
            for (i, v) in pool.iter().enumerate() {
                let x = g.f64_in(-5.0, 5.0);
                buf[i] = x;
                asg.set(v.key, x);
            }
            prop_assert_eq!(
                tape.eval_bool(&buf, &mut regs).unwrap(),
                cond.eval(&asg).unwrap()
            );
        }
    }

    /// The headline property: `expectation` with the compiler on is
    /// bit-identical to the interpreted path, for both probability
    /// settings, on expressions/conditions spanning every strategy.
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
        // stopping rule (which can fire mid-block: the compiled path
        // must stop — and leave its sampler state — at exactly the
        // interpreted sample, counters included, because the
        // probability pass reads both the RNG and the acceptance
        // counts).
        let interpreted_cfg = match adaptive {
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
        }
        .with_compile(false);
        let compiled_cfg = interpreted_cfg.clone().with_compile(true);
        let want_probability = wp == 1;
        let a = expectation(&expr, &cond, want_probability, &interpreted_cfg, site);
        let b = expectation(&expr, &cond, want_probability, &compiled_cfg, site);
        match (a, b) {
            (Ok(a), Ok(b)) => assert_results_identical(&a, &b, "expectation"),
            (Err(ea), Err(eb)) => prop_assert_eq!(ea.to_string(), eb.to_string()),
            (a, b) => prop_assert!(false, "interpreted {:?} vs compiled {:?}", a, b),
        }
    }

    /// `conf` through kernels + the probe cache equals interpreted
    /// `conf`, bit for bit.
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
        let base = if naive_sel == 1 {
            SamplerConfig::naive(400)
        } else {
            SamplerConfig::fixed_samples(400)
        };
        let a = conf(&cond, &base.clone().with_compile(false), site).unwrap();
        let b = conf(&cond, &base.clone().with_compile(true), site).unwrap();
        // And again with a warm probe cache.
        let c = conf(&cond, &base.with_compile(true), site).unwrap();
        prop_assert!(a.to_bits() == b.to_bits(), "cold conf diverged: {} vs {}", a, b);
        prop_assert!(a.to_bits() == c.to_bits(), "warm conf diverged: {} vs {}", a, c);
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
    let base = SamplerConfig {
        min_samples: 32,
        max_samples: 10_000,
        delta: 0.1,
        ..Default::default()
    };
    for site in 0..16u64 {
        let a = expectation(
            &Equation::from(x.clone()),
            &cond,
            true,
            &base.clone().with_compile(false),
            site,
        )
        .unwrap();
        let b = expectation(
            &Equation::from(x.clone()),
            &cond,
            true,
            &base.clone().with_compile(true),
            site,
        )
        .unwrap();
        assert_results_identical(&a, &b, &format!("adaptive site {site}"));
    }
}

/// Grouped `conf()` over multi-row groups — `aconf`'s factorised,
/// sampled-component and probe paths — is bit-identical with the
/// compiler on or off, at one thread and at four, cold cache and warm.
#[test]
fn grouped_conf_compiled_matches_interpreted() {
    use pip::engine::{execute, AggFunc, Database, PlanBuilder};
    let (t, _) = common::grouped_conf_table();
    let db = Database::new();
    db.register_table("t", t).unwrap();
    let plan = PlanBuilder::scan("t")
        .aggregate(vec!["g"], vec![AggFunc::Conf])
        .build();
    let interpreted = execute(&db, &plan, &SamplerConfig::default().with_compile(false)).unwrap();
    assert_eq!(interpreted.len(), 3);
    for threads in [1usize, 4] {
        // Twice: the second pass finds the probe cache warm.
        for _ in 0..2 {
            let cfg = SamplerConfig::default()
                .with_compile(true)
                .with_threads(threads);
            assert_eq!(
                execute(&db, &plan, &cfg).unwrap().rows(),
                interpreted.rows(),
                "compiled grouped conf() diverged at {threads} threads"
            );
        }
    }
}

/// The Metropolis escalation bail-out: a selectivity extreme enough to
/// trip the switch (with CDF bounds disabled) must produce the
/// interpreted numbers exactly, compiler on or off.
#[test]
fn escalation_falls_back_bit_identically() {
    let y = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
    let cond = Conjunction::single(atoms::gt(Equation::from(y.clone()), 4.0));
    let base = SamplerConfig {
        use_cdf_sampling: false,
        ..SamplerConfig::fixed_samples(400)
    };
    let a = expectation(
        &Equation::from(y.clone()),
        &cond,
        true,
        &base.clone().with_compile(false),
        3,
    )
    .unwrap();
    let b = expectation(&Equation::from(y), &cond, true, &base.with_compile(true), 3).unwrap();
    assert!(a.used_metropolis, "test setup must force the switch");
    assert_results_identical(&a, &b, "escalated expectation");
}

/// Satellite regression: the sample-block cache never changes an
/// `ExpectationResult` — cold cache, warm cache, and cache-off agree.
#[test]
fn block_cache_never_changes_results() {
    let mut g = Gen(0xB10C);
    let pool = var_pool(&mut g, 3);
    let expr = random_expr(&mut g, &pool, 3);
    let cond = random_cond(&mut g, &pool, 2);

    block_cache_clear();
    let serial_ref = expectation(
        &expr,
        &cond,
        false,
        &SamplerConfig::fixed_samples(300).with_block_reuse(false),
        9,
    )
    .unwrap();
    for _ in 0..2 {
        let r = expectation(
            &expr,
            &cond,
            false,
            &SamplerConfig::fixed_samples(300).with_block_reuse(true),
            9,
        )
        .unwrap();
        assert_results_identical(&serial_ref, &r, "serial cache toggle");
    }
}

/// Satellite fix: `probability` is NAN — never a fake 0 or 1 — when the
/// caller did not request it, on every path (sampled, exact-constant,
/// linear-exact, unsatisfiable).
#[test]
fn probability_is_nan_when_not_requested() {
    let y = RandomVar::create(builtin::normal(), &[1.0, 2.0]).unwrap();
    let cond = Conjunction::single(atoms::gt(Equation::from(y.clone()), 0.5));
    let dead = Conjunction::of(vec![
        atoms::gt(Equation::from(y.clone()), 5.0),
        atoms::lt(Equation::from(y.clone()), 3.0),
    ]);
    for compile in [false, true] {
        let cfg = SamplerConfig::fixed_samples(100).with_compile(compile);
        // Sampled path.
        let r = expectation(&Equation::from(y.clone()), &cond, false, &cfg, 0).unwrap();
        assert!(r.probability.is_nan(), "sampled: {}", r.probability);
        // Exact-constant expression path.
        let r = expectation(&Equation::val(42.0), &cond, false, &cfg, 0).unwrap();
        assert!(r.probability.is_nan(), "const: {}", r.probability);
        // Linear-exact path (trivially-true condition).
        let r = expectation(
            &Equation::from(y.clone()),
            &Conjunction::top(),
            false,
            &cfg,
            0,
        )
        .unwrap();
        assert!(r.probability.is_nan(), "linear: {}", r.probability);
        // Unsatisfiable context.
        let r = expectation(&Equation::from(y.clone()), &dead, false, &cfg, 0).unwrap();
        assert!(r.expectation.is_nan() && r.probability.is_nan());
        // And the probability is still real when requested.
        let r = expectation(&Equation::from(y.clone()), &cond, true, &cfg, 0).unwrap();
        assert!(r.probability > 0.0 && r.probability <= 1.0);
    }
}
