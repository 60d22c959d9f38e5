//! Property-based tests (proptest) of the core invariants listed in
//! DESIGN.md §5: c-table possible-world semantics, consistency-check
//! soundness, special-function identities, and sampler agreement.

use proptest::prelude::*;

use pip::ctable::{
    algebra, consistency_check, consistency_of_groups, CRow, CTable, Consistency, SelectOutcome,
};
use pip::dist::prelude::*;
use pip::dist::special;
use pip::expr::{
    atoms, independent_groups, Assignment, Atom, BinOp, CmpOp, Conjunction, Equation, LinearForm,
    RandomVar,
};
use pip::prelude::{DataType, Schema, Value};
use pip::sampling::{conf, expectation, SamplerConfig};

/// A small pool of variables with assigned values, for world-semantics
/// checks.
fn var_pool(n: usize) -> Vec<RandomVar> {
    (0..n)
        .map(|_| RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap())
        .collect()
}

/// Strategy: an assignment over the pool.
fn assignment(pool: &[RandomVar]) -> impl Strategy<Value = Assignment> {
    let keys: Vec<_> = pool.iter().map(|v| v.key).collect();
    proptest::collection::vec(-10.0f64..10.0, keys.len()).prop_map(move |vals| {
        let mut a = Assignment::new();
        for (k, v) in keys.iter().zip(vals) {
            a.set(*k, v);
        }
        a
    })
}

/// A deterministic stream for building random structures from one
/// proptest-drawn seed.
struct Stream(u64);

impl Stream {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// A constant, often one that simplification treats specially.
    fn constant(&mut self) -> Equation {
        let c = *self.pick(&[0.0, 1.0, -1.0, -0.0, 0.5, 3.0, 1e-3, 7.25, -2.5, 0.1]);
        Equation::val(c)
    }

    /// A deterministic subtree: folds to a constant (or fails to).
    fn constant_tree(&mut self, depth: u32) -> Equation {
        if depth == 0 || self.below(3) == 0 {
            return self.constant();
        }
        let op = *self.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]);
        Equation::binary(
            op,
            self.constant_tree(depth - 1),
            self.constant_tree(depth - 1),
        )
    }

    /// A (mostly) affine expression over `pool`: constant subtrees,
    /// negation, division by constants, repeated and cancelling terms,
    /// and now and then a product of two variables.
    fn affine(&mut self, pool: &[RandomVar], depth: u32) -> Equation {
        let leaf = depth == 0 || self.below(4) == 0;
        match if leaf {
            self.below(2)
        } else {
            2 + self.below(6)
        } {
            0 => self.constant_tree(1),
            1 => Equation::from(self.pick(pool).clone()),
            2 => self.affine(pool, depth - 1).neg(),
            3 => Equation::binary(
                BinOp::Add,
                self.affine(pool, depth - 1),
                self.affine(pool, depth - 1),
            ),
            4 => Equation::binary(
                BinOp::Sub,
                self.affine(pool, depth - 1),
                self.affine(pool, depth - 1),
            ),
            5 if self.below(2) == 0 => Equation::binary(
                BinOp::Mul,
                self.constant_tree(1),
                self.affine(pool, depth - 1),
            ),
            5 => Equation::binary(
                BinOp::Mul,
                self.affine(pool, depth - 1),
                self.constant_tree(1),
            ),
            6 => Equation::binary(
                BinOp::Div,
                self.affine(pool, depth - 1),
                self.constant_tree(1),
            ),
            _ => {
                let (x, y) = (self.pick(pool).clone(), self.pick(pool).clone());
                Equation::from(x) * Equation::from(y)
            }
        }
    }

    fn op(&mut self) -> CmpOp {
        *self.pick(&[
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ])
    }
}

/// `Equation::simplify` as it was written before it learned to return
/// unchanged subtrees by reference: the reference the current one must
/// match node for node.
fn reference_simplify(e: &Equation) -> Equation {
    let num = |e: &Equation| e.as_const().and_then(|v| v.as_f64().ok());
    match e {
        Equation::Const(_) | Equation::Var(_) => e.clone(),
        Equation::Unary { expr, .. } => match reference_simplify(expr) {
            Equation::Const(v) => match v.as_f64() {
                Ok(x) => Equation::val(-x),
                Err(_) => Equation::Const(v).neg(),
            },
            Equation::Unary { expr, .. } => (*expr).clone(),
            other => other.neg(),
        },
        Equation::Binary { op, left, right } => {
            let (l, r) = (reference_simplify(left), reference_simplify(right));
            if let (Some(lf), Some(rf)) = (num(&l), num(&r)) {
                if let Ok(folded) = op.apply(lf, rf) {
                    return Equation::val(folded);
                }
            }
            let is_zero = |e: &Equation| num(e) == Some(0.0);
            let is_one = |e: &Equation| num(e) == Some(1.0);
            match op {
                BinOp::Add if is_zero(&l) => r,
                BinOp::Add | BinOp::Sub if is_zero(&r) => l,
                BinOp::Mul if is_one(&l) => r,
                BinOp::Mul | BinOp::Div if is_one(&r) => l,
                BinOp::Mul if is_zero(&l) || is_zero(&r) => Equation::val(0.0),
                _ => Equation::binary(*op, l, r),
            }
        }
    }
}

/// Variables of several classes (bounded and unbounded supports, one
/// discrete), plus a second component of the first one.
fn mixed_pool() -> Vec<RandomVar> {
    let mut pool = vec![
        RandomVar::create(builtin::normal(), &[1.0, 2.0]).unwrap(),
        RandomVar::create(builtin::exponential(), &[0.5]).unwrap(),
        RandomVar::create(builtin::uniform(), &[-1.0, 4.0]).unwrap(),
        RandomVar::create(builtin::poisson(), &[3.0]).unwrap(),
        RandomVar::create(builtin::normal(), &[-2.0, 0.5]).unwrap(),
    ];
    pool.push(pool[0].component(1));
    pool
}

/// A form as raw bits — each term's key and coefficient, then the
/// constant — for bit-for-bit comparison.
fn form_bits(form: Option<LinearForm>) -> Option<Vec<u64>> {
    form.map(|f| {
        let terms = f.terms().iter();
        let mut bits: Vec<u64> = terms
            .flat_map(|(k, a)| [k.id.0, k.subscript.into(), a.to_bits()])
            .collect();
        bits.push(f.constant.to_bits());
        bits
    })
}

/// A verdict as raw bits: `None` when inconsistent, else every bound's
/// key and endpoints.
fn verdict_bits(c: &Consistency) -> Option<Vec<u64>> {
    match c {
        Consistency::Inconsistent => None,
        Consistency::Consistent { bounds } => Some(
            bounds
                .iter()
                .flat_map(|(k, iv)| [k.id.0, k.subscript.into(), iv.lo.to_bits(), iv.hi.to_bits()])
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fused analysis: propagating bounds over the partition that
    /// also holds an expectation's extra variables gives exactly what
    /// `consistency_check` gives — verdict and every bound, to
    /// the bit — including when an extra variable is another component
    /// of a variable the condition mentions.
    #[test]
    fn consistency_of_extended_partition_is_consistency_check(seed in 0u64..1_000_000) {
        let pool = mixed_pool();
        let mut s = Stream(seed);
        for _ in 0..8 {
            let n_atoms = 1 + s.below(5);
            let cond = Conjunction::of(
                (0..n_atoms)
                    .map(|_| {
                        let l = s.affine(&pool[..5], 2);
                        let r = if s.below(2) == 0 { s.constant() } else { s.affine(&pool[..5], 1) };
                        Atom::new(l, s.op(), r)
                    })
                    .collect(),
            );
            let extras: Vec<RandomVar> = (0..s.below(4)).map(|_| s.pick(&pool).clone()).collect();
            let direct = consistency_check(&cond);
            let (simplified, _) = cond.simplify();
            let fused = consistency_of_groups(&independent_groups(&simplified, &extras));
            if !simplified.atoms().is_empty() {
                let (fused, direct) = (verdict_bits(&fused), verdict_bits(&direct));
                prop_assert!(fused == direct, "{}: {:?} vs {:?}", cond, fused, direct);
            }
        }
    }

    /// Simplification returns what the reference returns, node for node
    /// and bit for bit, and `is_simplified` holds exactly for the trees
    /// simplification leaves unchanged.
    #[test]
    fn simplify_matches_reference(seed in 0u64..1_000_000) {
        let pool = mixed_pool();
        let mut s = Stream(seed);
        for _ in 0..16 {
            let e = if s.below(4) == 0 { s.constant_tree(3) } else { s.affine(&pool, 4) };
            let want = reference_simplify(&e);
            let got = e.simplify();
            prop_assert!(format!("{got:?}") == format!("{want:?}"), "{}: {} vs {}", e, got, want);
            prop_assert!(got.is_simplified(), "{}", got);
            prop_assert!(e.is_simplified() == (format!("{e:?}") == format!("{want:?}")), "{}", e);
        }
    }

    /// Linearising an atom without building `left − right` gives the
    /// form of the normalized tree, to the bit: coefficient order and
    /// values and the constant, over raw and simplified sides alike.
    #[test]
    fn atom_linear_form_is_normalized_linear_coeffs(seed in 0u64..1_000_000) {
        let pool = mixed_pool();
        let mut s = Stream(seed);
        for _ in 0..16 {
            let (l, r) = (s.affine(&pool, 3), s.affine(&pool, 2));
            let op = s.op();
            for atom in [
                Atom::new(l.clone(), op, r.clone()),
                Atom::new(l.simplify(), op, r.simplify()),
                Atom::new(l.simplify(), op, Equation::val(0.0)),
            ] {
                let expect = form_bits(atom.normalized().0.linear_coeffs());
                let got = form_bits(atom.linear_form());
                prop_assert!(got == expect, "{}: {:?} vs {:?}", atom, got, expect);
            }
        }
    }

    /// σ commutes with instantiation: filtering symbolically and then
    /// instantiating equals instantiating and filtering the world.
    #[test]
    fn select_commutes_with_instantiation(
        thr in -5.0f64..5.0,
        seed_world in 0usize..16,
    ) {
        let pool = var_pool(4);
        let mut runner_a = Assignment::new();
        // Deterministic pseudo-world from seed_world.
        for (i, v) in pool.iter().enumerate() {
            runner_a.set(v.key, ((seed_world * 7 + i * 13) % 19) as f64 - 9.0);
        }
        let schema = Schema::of(&[("v", DataType::Symbolic)]);
        let mut t = CTable::empty(schema);
        for v in &pool {
            t.push(CRow::unconditional(vec![Equation::from(v.clone())])).unwrap();
        }
        let selected = algebra::select(&t, |cells| {
            Ok(SelectOutcome::Conditional(vec![atoms::gt(cells[0].clone(), thr)]))
        }).unwrap();
        let w1 = selected.instantiate(&runner_a).unwrap();
        let w2: Vec<_> = t
            .instantiate(&runner_a).unwrap()
            .into_iter()
            .filter(|tp| tp.get(0).unwrap().as_f64().unwrap() > thr)
            .collect();
        prop_assert_eq!(w1, w2);
    }

    /// distinct: instantiated world of distinct(R) == dedup of
    /// instantiated world of R (set semantics).
    #[test]
    fn distinct_matches_world_dedup(a in prop::collection::vec(-3i64..3, 1..8)) {
        let schema = Schema::of(&[("v", DataType::Int)]);
        let tuples: Vec<_> = a.iter().map(|&x| pip::core::tuple![x]).collect();
        let t = CTable::from_tuples(schema, &tuples).unwrap();
        let d = algebra::distinct(&t).unwrap();
        let mut w = d.instantiate(&Assignment::new()).unwrap();
        w.sort();
        let mut expect: Vec<_> = tuples.clone();
        expect.sort();
        expect.dedup();
        prop_assert_eq!(w, expect);
    }

    /// Consistency soundness: any assignment satisfying the condition is
    /// inside the returned bounds, and satisfiable conditions are never
    /// declared inconsistent.
    #[test]
    fn consistency_never_refutes_a_witness(world in assignment(&var_pool(3))) {
        // Build the pool fresh but copy keys from the generated world.
        let keys: Vec<_> = world.iter().map(|(k, _)| *k).collect();
        prop_assume!(keys.len() == 3);
        let vars: Vec<RandomVar> = keys
            .iter()
            .map(|k| {
                let mut v = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
                v.key = *k;
                v
            })
            .collect();
        // Condition: box around each witness value plus one chain atom.
        let mut atoms_v = Vec::new();
        for v in &vars {
            let x = world.get(v.key).unwrap();
            atoms_v.push(atoms::ge(Equation::from(v.clone()), x - 1.0));
            atoms_v.push(atoms::le(Equation::from(v.clone()), x + 1.0));
        }
        let cond = Conjunction::of(atoms_v);
        prop_assert!(cond.eval(&world).unwrap());
        match consistency_check(&cond) {
            Consistency::Inconsistent => prop_assert!(false, "witness refuted"),
            Consistency::Consistent { bounds, .. } => {
                for v in &vars {
                    let iv = bounds.get(v.key);
                    let x = world.get(v.key).unwrap();
                    prop_assert!(iv.contains(x));
                }
            }
        }
    }

    /// Special functions: CDF/quantile round trips.
    #[test]
    fn normal_quantile_round_trip(p in 1e-6f64..0.999999) {
        let x = special::inverse_normal_cdf(p);
        prop_assert!((special::normal_cdf(x) - p).abs() < 1e-8);
    }

    #[test]
    fn erf_odd_symmetry(x in -5.0f64..5.0) {
        prop_assert!((special::erf(x) + special::erf(-x)).abs() < 1e-12);
        prop_assert!((special::erf(x) + special::erfc(x) - 1.0).abs() < 1e-10);
        prop_assert!((special::erfc(-x) - (2.0 - special::erfc(x))).abs() < 1e-10);
    }

    #[test]
    fn gamma_pq_sum_to_one(a in 0.1f64..50.0, x in 0.0f64..80.0) {
        let s = special::gamma_p(a, x) + special::gamma_q(a, x);
        prop_assert!((s - 1.0).abs() < 1e-9, "{}", s);
    }

    /// conf() via exact CDF equals the closed-form tail for arbitrary
    /// Normal parameters and thresholds.
    #[test]
    fn conf_matches_closed_form(mu in -10.0f64..10.0, sigma in 0.1f64..5.0, t in -20.0f64..20.0) {
        let v = RandomVar::create(builtin::normal(), &[mu, sigma]).unwrap();
        let cond = Conjunction::single(atoms::gt(Equation::from(v), t));
        let cfg = SamplerConfig::default();
        let p = conf(&cond, &cfg, 0).unwrap();
        let truth = 1.0 - special::normal_cdf((t - mu) / sigma);
        prop_assert!((p - truth).abs() < 1e-9);
    }

    /// Linearity fast path equals the analytical mean for affine
    /// combinations of mixed distributions.
    #[test]
    fn linear_expectation_exact(a in -5.0f64..5.0, b in -5.0f64..5.0, lam in 0.5f64..10.0) {
        let x = RandomVar::create(builtin::poisson(), &[lam]).unwrap();
        let u = RandomVar::create(builtin::uniform(), &[0.0, 2.0]).unwrap();
        let expr = Equation::from(x) * a + Equation::from(u) * b + 1.0;
        let cfg = SamplerConfig::default();
        let r = expectation(&expr, &Conjunction::top(), false, &cfg, 0).unwrap();
        let truth = a * lam + b * 1.0 + 1.0;
        prop_assert!((r.expectation - truth).abs() < 1e-9);
        prop_assert_eq!(r.n_samples, 0);
    }

    /// Equation simplification preserves semantics under random
    /// assignments.
    #[test]
    fn simplify_preserves_eval(x in -10.0f64..10.0, y in -10.0f64..10.0, c in -3.0f64..3.0) {
        let vx = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
        let vy = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
        let mut a = Assignment::new();
        a.set(vx.key, x);
        a.set(vy.key, y);
        let e = (Equation::from(vx.clone()) * c + Equation::from(vy.clone()) * 0.0)
            * (Equation::val(1.0) + Equation::val(0.0))
            - (-Equation::from(vy.clone()));
        let s = e.simplify();
        let (ev, sv) = (e.eval_f64(&a).unwrap(), s.eval_f64(&a).unwrap());
        prop_assert!((ev - sv).abs() < 1e-9);
    }

    /// Values survive a serde round trip (bench result rows rely on it).
    #[test]
    fn value_total_order_is_transitive(a in -5i64..5, b in -5.0f64..5.0, s in "[a-z]{0,3}") {
        let vals = [Value::Int(a), Value::Float(b), Value::str(&s), Value::Null];
        for x in &vals {
            for y in &vals {
                for z in &vals {
                    if x.cmp_total(y).is_le() && y.cmp_total(z).is_le() {
                        prop_assert!(x.cmp_total(z).is_le());
                    }
                }
            }
        }
    }
}

/// A chain `x₀ < x₁ < … < xₙ` of `n` atoms, each variable bounded below
/// by the previous one from `x₀ > 0`: one group of `n + 1` variables.
fn chain(n: usize, reversed: bool) -> Conjunction {
    let vars: Vec<RandomVar> = (0..=n)
        .map(|_| RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap())
        .collect();
    let mut atoms_v: Vec<Atom> = vars
        .windows(2)
        .map(|w| atoms::lt(Equation::from(w[0].clone()), Equation::from(w[1].clone())))
        .collect();
    atoms_v.push(atoms::gt(Equation::from(vars[0].clone()), 0.0));
    if reversed {
        atoms_v.reverse();
    }
    Conjunction::of(atoms_v)
}

/// Best of a few runs of `consistency_check`, in seconds.
fn check_secs(cond: &Conjunction) -> f64 {
    (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(consistency_check(std::hint::black_box(cond)));
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Long conjunctions stay linear: the variable interning, the bounds map
/// and the sweeps of `consistency_check` on a 2,000-atom chain cost about
/// four times a 500-atom chain's, in either atom order (a quadratic step
/// would make it sixteen).
#[test]
fn consistency_check_scales_linearly_on_long_chains() {
    for reversed in [false, true] {
        let (short, long) = (chain(500, reversed), chain(2000, reversed));
        match consistency_check(&long) {
            Consistency::Consistent { bounds, .. } => assert_eq!(bounds.len(), 2001),
            other => panic!("{other:?}"),
        }
        let ratio = check_secs(&long) / check_secs(&short);
        assert!(
            ratio < 8.0,
            "reversed={reversed}: 4x the atoms cost {ratio:.1}x the time"
        );
    }
}
