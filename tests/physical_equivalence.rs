//! Executor equivalence properties: the pipelined physical executor
//! must be indistinguishable from the materializing reference
//! interpreter — identical c-tables (schema, row order, cells,
//! conditions) on the raw plan and on the optimized plan, bit-identical
//! sampled numbers through the streaming heads at 1/2/4 threads, and
//! world-semantics preservation through the optimizer — across randomly
//! composed plans (joins, products, unions, differences, fused
//! select/project chains, distinct, sort, limit, aggregate and conf
//! heads), and join-key fusion against the `Select(Product)` it
//! replaces.

use proptest::prelude::*;

use pip::ctable::CRow;
use pip::dist::prelude::builtin;
use pip::engine::{
    execute, execute_materialized, optimize, AggFunc, Database, Plan, PlanBuilder, ScalarExpr,
};
use pip::expr::{atoms, Assignment, Conjunction, Equation, RandomVar};
use pip::prelude::{DataType, Schema};
use pip::sampling::SamplerConfig;

/// The database every generated plan runs against: `t1(k, v, s)` mixes
/// deterministic cells, symbolic cells and row conditions (including
/// cross-variable atoms that force real rejection sampling); `t2(k, w)`
/// is deterministic. `t3(j, u)` and `t4(m, q)` are small deterministic
/// tables with names disjoint from `t1`, so multi-way join graphs over
/// them are eligible for the cost-based join reorderer. Returns the
/// variable pool for world instantiation.
fn test_db() -> (Database, Vec<RandomVar>) {
    let db = Database::new();
    let mut vars = Vec::new();
    db.create_table(
        "t1",
        Schema::of(&[
            ("k", DataType::Int),
            ("v", DataType::Float),
            ("s", DataType::Symbolic),
        ]),
    )
    .unwrap();
    db.create_table(
        "t2",
        Schema::of(&[("k", DataType::Int), ("w", DataType::Float)]),
    )
    .unwrap();
    let mut rows = Vec::new();
    for i in 0..6i64 {
        let s = RandomVar::create(builtin::normal(), &[i as f64, 1.0 + (i % 3) as f64]).unwrap();
        let cond = match i % 3 {
            0 => Conjunction::top(),
            1 => Conjunction::single(atoms::gt(Equation::from(s.clone()), (i - 2) as f64)),
            _ => {
                // Cross-variable and not affine: the sampler cannot use
                // a CDF shortcut.
                let gate = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
                let cond = Conjunction::single(atoms::gt(
                    Equation::from(gate.clone()) * Equation::from(gate.clone()),
                    Equation::from(s.clone()) - i as f64,
                ));
                vars.push(gate);
                cond
            }
        };
        vars.push(s.clone());
        rows.push(CRow::new(
            vec![
                Equation::val(i % 3),
                Equation::val(i as f64 * 2.0),
                Equation::from(s),
            ],
            cond,
        ));
    }
    db.insert_rows("t1", rows).unwrap();
    db.insert_tuples(
        "t2",
        &[
            pip::core::tuple![0i64, 10.0],
            pip::core::tuple![1i64, 20.0],
            pip::core::tuple![3i64, 30.0],
        ],
    )
    .unwrap();
    db.create_table(
        "t3",
        Schema::of(&[("j", DataType::Int), ("u", DataType::Int)]),
    )
    .unwrap();
    db.insert_tuples(
        "t3",
        &(0..4i64)
            .map(|i| pip::core::tuple![i, i % 3])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    db.create_table(
        "t4",
        Schema::of(&[("m", DataType::Int), ("q", DataType::Int)]),
    )
    .unwrap();
    db.insert_tuples(
        "t4",
        &(0..3i64)
            .map(|i| pip::core::tuple![i, i * 5])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    (db, vars)
}

/// Compose a plan from random choices, tracking live column names so
/// every generated plan is well-formed.
fn random_plan(base: u8, ops: &[u8], head: u8, thr: f64, limit_n: usize) -> Plan {
    let mut cols: Vec<&str>;
    let mut b = match base % 7 {
        0 => {
            cols = vec!["k", "v", "s"];
            PlanBuilder::scan("t1")
        }
        1 => {
            cols = vec!["k", "v", "s", "k.right", "w"];
            PlanBuilder::scan("t1").equi_join(PlanBuilder::scan("t2"), vec![("k", "k")])
        }
        2 => {
            cols = vec!["k", "v", "s", "k.right", "w"];
            PlanBuilder::scan("t1").product(PlanBuilder::scan("t2"))
        }
        3 => {
            cols = vec!["k", "v", "s"];
            PlanBuilder::scan("t1").union(PlanBuilder::scan("t1"))
        }
        4 => {
            // Difference over the deterministic table: subtracting a
            // symbolically-conditioned row from itself conjoins a
            // cross-variable atom with its own negation, which is only
            // numerically unsatisfiable — every sample then burns the
            // full rejection cap. Real, but not a property-test budget.
            cols = vec!["k", "w"];
            PlanBuilder::scan("t2").difference(
                PlanBuilder::scan("t2")
                    .select(ScalarExpr::col("w").gt(ScalarExpr::lit(15.0)))
                    .unwrap(),
            )
        }
        5 => {
            // A reorderable three-way chain join written as products:
            // t1–t3 via k=j, t3–t4 via u=m. Name-disjoint leaves, so the
            // cost-based reorderer may restructure it into hash joins.
            cols = vec!["k", "v", "s", "j", "u", "m", "q"];
            PlanBuilder::scan("t1")
                .product(PlanBuilder::scan("t3"))
                .product(PlanBuilder::scan("t4"))
                .select(
                    ScalarExpr::col("k")
                        .eq(ScalarExpr::col("j"))
                        .and(ScalarExpr::col("u").eq(ScalarExpr::col("m"))),
                )
                .unwrap()
        }
        _ => {
            // A reorderable star: t1 at the center, t3 and t4 hanging
            // off the same key (k=j AND k=m).
            cols = vec!["k", "v", "s", "j", "u", "m", "q"];
            PlanBuilder::scan("t1")
                .product(PlanBuilder::scan("t3"))
                .product(PlanBuilder::scan("t4"))
                .select(
                    ScalarExpr::col("k")
                        .eq(ScalarExpr::col("j"))
                        .and(ScalarExpr::col("k").eq(ScalarExpr::col("m"))),
                )
                .unwrap()
        }
    };
    for &op in ops {
        match op % 6 {
            0 if cols.contains(&"v") => {
                b = b
                    .select(ScalarExpr::col("v").gt(ScalarExpr::lit(thr)))
                    .unwrap();
            }
            1 if cols.contains(&"s") => {
                b = b
                    .select(ScalarExpr::col("s").gt(ScalarExpr::lit(thr / 2.0)))
                    .unwrap();
            }
            2 if cols.contains(&"k") && cols.contains(&"s") && cols.contains(&"v") => {
                b = b.project(vec![
                    ("k", ScalarExpr::col("k")),
                    ("s", ScalarExpr::col("s")),
                    ("v2", ScalarExpr::col("v").mul(ScalarExpr::lit(2.0))),
                ]);
                cols = vec!["k", "s", "v2"];
            }
            3 => b = b.distinct(),
            4 if cols.contains(&"k") => b = b.sort(vec![("k", thr > 5.0)]),
            5 => b = b.limit(limit_n),
            _ => {}
        }
    }
    match head % 3 {
        0 => b.build(),
        1 => b.conf().build(),
        _ => {
            let mut aggs = vec![AggFunc::ExpectedCount, AggFunc::Conf];
            if cols.contains(&"s") {
                aggs.push(AggFunc::ExpectedSum("s".into()));
            } else if cols.contains(&"v") {
                aggs.push(AggFunc::ExpectedSum("v".into()));
            }
            let group = if cols.contains(&"k") {
                vec!["k"]
            } else {
                vec![]
            };
            b.aggregate(group, aggs).build()
        }
    }
}

/// Tables for the join-key property. `fa(k INT, x FLOAT, s SYMBOLIC,
/// pad INT)` holds Int keys, a discrete variable in its INT key column
/// and conditional rows; `fb(kb FLOAT, y FLOAT, pad INT)` holds Float
/// keys (`1.0` must meet `Int(1)`) and a variable key; `fc(kc INT, z
/// SYMBOLIC, x FLOAT)` mixes all three. `pad` (fa, fb) and `x` (fa, fc)
/// are duplicated names: the join-order pass then keeps every region in
/// written order, and equalities over them bind to neither side.
fn fusion_db() -> Database {
    let db = Database::new();
    let key =
        || Equation::from(RandomVar::create(builtin::discrete_uniform(), &[0.0, 2.0]).unwrap());
    let normal = |mean: f64| RandomVar::create(builtin::normal(), &[mean, 1.0]).unwrap();
    let cols = |c: &[(&str, DataType)]| Schema::of(c);
    db.create_table(
        "fa",
        cols(&[
            ("k", DataType::Int),
            ("x", DataType::Float),
            ("s", DataType::Symbolic),
            ("pad", DataType::Int),
        ]),
    )
    .unwrap();
    db.create_table(
        "fb",
        cols(&[
            ("kb", DataType::Float),
            ("y", DataType::Float),
            ("pad", DataType::Int),
        ]),
    )
    .unwrap();
    db.create_table(
        "fc",
        cols(&[
            ("kc", DataType::Int),
            ("z", DataType::Symbolic),
            ("x", DataType::Float),
        ]),
    )
    .unwrap();
    let fa_keys = [
        Equation::val(0i64),
        Equation::val(1i64),
        key(),
        Equation::val(1i64),
        Equation::val(2i64),
    ];
    let rows = fa_keys
        .into_iter()
        .enumerate()
        .map(|(i, k)| {
            let s = normal(i as f64);
            let cond = if i % 2 == 1 {
                Conjunction::single(atoms::gt(Equation::from(s.clone()), 0.5))
            } else {
                Conjunction::top()
            };
            let cells = vec![
                k,
                Equation::val(i as f64 + 0.5),
                Equation::from(s),
                Equation::val(i as i64),
            ];
            CRow::new(cells, cond)
        })
        .collect();
    db.insert_rows("fa", rows).unwrap();
    let fb_keys = [
        Equation::val(1.0),
        Equation::val(0.0),
        key(),
        Equation::val(2.5),
        Equation::val(1.0),
    ];
    let rows = fb_keys
        .into_iter()
        .enumerate()
        .map(|(i, kb)| {
            CRow::unconditional(vec![
                kb,
                Equation::val(i as f64 + 1.0),
                Equation::val(i as i64),
            ])
        })
        .collect();
    db.insert_rows("fb", rows).unwrap();
    let fc_keys = [
        Equation::val(1i64),
        Equation::val(2.0),
        key(),
        Equation::val(0i64),
    ];
    let rows = fc_keys
        .into_iter()
        .enumerate()
        .map(|(i, kc)| {
            CRow::unconditional(vec![
                kc,
                Equation::from(normal(2.0 + i as f64)),
                Equation::val(i as f64 + 0.5),
            ])
        })
        .collect();
    db.insert_rows("fc", rows).unwrap();
    db
}

/// Cross-side conjuncts over `fa × fb` and over `(fa × fb) × fc`, as
/// (left column, equality?, right column). `kb = k` and `kc = k` are
/// flipped, `pad` and `x` are ambiguous.
const INNER: [(&str, bool, &str); 5] = [
    ("k", true, "kb"),
    ("kb", true, "k"),
    ("k", true, "pad"),
    ("x", false, "y"),
    ("s", false, "y"),
];
const OUTER: [(&str, bool, &str); 6] = [
    ("k", true, "kc"),
    ("kb", true, "kc"),
    ("kc", true, "k"),
    ("x", true, "kc"),
    ("y", false, "z"),
    ("s", false, "z"),
];

/// The conjunction of the picked menu entries, in pick order.
fn conjunction(menu: &[(&str, bool, &str)], picks: &[u8]) -> Option<ScalarExpr> {
    picks
        .iter()
        .map(|&i| {
            let (a, eq, b) = menu[i as usize % menu.len()];
            let (a, b) = (ScalarExpr::col(a), ScalarExpr::col(b));
            if eq {
                a.eq(b)
            } else {
                a.lt(b)
            }
        })
        .reduce(ScalarExpr::and)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The streaming executor and the materializing reference produce
    /// identical c-tables — schema, row order, cells and conditions —
    /// on the raw plan AND on its optimized form (including cost-based
    /// join reorderings of the multi-way bases), and the sampled
    /// numbers are bit-identical at 1, 2 and 4 threads on both.
    #[test]
    fn streaming_equals_materialized_on_random_plans(
        base in 0u8..7,
        ops in prop::collection::vec(0u8..6, 0..4),
        head in 0u8..3,
        thr in -2.0f64..8.0,
        limit_n in 0usize..7,
    ) {
        let (db, _vars) = test_db();
        let plan = random_plan(base, &ops, head, thr, limit_n);
        // A small fixed budget: sampling still happens on the
        // cross-variable conditions, but debug-build runs stay fast.
        let cfg = SamplerConfig::fixed_samples(96);

        let streamed = execute(&db, &plan, &cfg).unwrap();
        let reference = execute_materialized(&db, &plan, &cfg).unwrap();
        prop_assert_eq!(&streamed, &reference);

        let optimized = optimize(&db, plan.clone()).unwrap();
        let streamed_opt = execute(&db, &optimized, &cfg).unwrap();
        let reference_opt = execute_materialized(&db, &optimized, &cfg).unwrap();
        prop_assert_eq!(&streamed_opt, &reference_opt);

        // Thread count must be invisible in the streaming heads — on
        // the written plan and on the (possibly reordered) one.
        for threads in [2usize, 4] {
            let par = cfg.clone().with_threads(threads);
            let t = execute(&db, &plan, &par).unwrap();
            prop_assert_eq!(&t, &streamed);
            let t = execute(&db, &optimized, &par).unwrap();
            prop_assert_eq!(&t, &streamed_opt);
        }
    }

    /// The optimizer (predicate pushdown, join reordering, projection
    /// pushdown) preserves possible-worlds semantics: instantiating the
    /// optimized plan's result yields the same multiset of tuples as
    /// the reference result in every sampled world. Row order is only
    /// pinned for non-reordered plans; a reordered join region emits in
    /// its new join sequence, so the comparison sorts both sides.
    /// (Sampling-free plans only: heads turn worlds into numbers.)
    #[test]
    fn optimizer_preserves_world_semantics(
        base in 0u8..7,
        ops in prop::collection::vec(0u8..6, 0..4),
        thr in -2.0f64..8.0,
        world in prop::collection::vec(-6.0f64..6.0, 12),
    ) {
        let (db, vars) = test_db();
        let plan = random_plan(base, &ops, 0, thr, 3);
        let cfg = SamplerConfig::fixed_samples(64);
        let optimized = optimize(&db, plan.clone()).unwrap();
        let raw = execute_materialized(&db, &plan, &cfg).unwrap();
        let opt = execute(&db, &optimized, &cfg).unwrap();
        let mut a = Assignment::new();
        for (var, x) in vars.iter().zip(world) {
            a.set(var.key, x);
        }
        // The optimizer may drop nothing the plan's own output depends
        // on: the worlds must coincide as multisets.
        let mut w_raw = raw.instantiate(&a).unwrap();
        let mut w_opt = opt.instantiate(&a).unwrap();
        w_raw.sort();
        w_opt.sort();
        prop_assert_eq!(w_raw, w_opt);
    }

    /// Join-key fusion is invisible: `optimize`, which turns the leading
    /// cross-side `l = r` conjuncts into hash-join keys, gives the rows,
    /// row conditions and estimates of the hand-built `Select(Product)`
    /// it replaces, on both executors at 1, 2 and 4 threads — over Int,
    /// Float and variable keys, equalities behind other conjuncts,
    /// flipped or ambiguous ones, and cross-side `<` residuals.
    #[test]
    fn join_key_fusion_matches_filtering_the_product(
        inner in prop::collection::vec(0u8..5, 1..4),
        outer in prop::collection::vec(0u8..6, 0..4),
        three in 0u8..2,
        head in 0u8..3,
    ) {
        let db = fusion_db();
        let mut b = PlanBuilder::scan("fa")
            .product(PlanBuilder::scan("fb"))
            .select(conjunction(&INNER, &inner).unwrap())
            .unwrap();
        if three == 1 {
            b = b.product(PlanBuilder::scan("fc"));
            if let Some(p) = conjunction(&OUTER, &outer) {
                b = b.select(p).unwrap();
            }
        }
        let plan = match head {
            0 => b.build(),
            1 => b.conf().build(),
            _ => b
                .aggregate(
                    vec![],
                    vec![AggFunc::ExpectedCount, AggFunc::Conf, AggFunc::ExpectedSum("s".into())],
                )
                .build(),
        };
        let fused = optimize(&db, plan.clone()).unwrap();
        if inner[0] == 0 {
            prop_assert!(fused.explain().contains("EquiJoin: k=kb"), "{}", fused.explain());
        }
        let cfg = SamplerConfig::fixed_samples(64);
        for threads in [1usize, 2, 4] {
            let cfg = cfg.clone().with_threads(threads);
            prop_assert_eq!(execute(&db, &fused, &cfg).unwrap(), execute(&db, &plan, &cfg).unwrap());
            prop_assert_eq!(
                execute_materialized(&db, &fused, &cfg).unwrap(),
                execute_materialized(&db, &plan, &cfg).unwrap()
            );
        }
    }
}
