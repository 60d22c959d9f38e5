//! The plan executors: logical plans → c-tables (and, at aggregate
//! heads, deterministic result tables).
//!
//! Query evaluation in PIP is split into two phases (paper Section IV):
//! the *query phase* manipulates c-tables symbolically, the *sampling
//! phase* (aggregate / conf nodes) converts symbolic results into
//! numbers. Two executors implement that contract:
//!
//! * [`execute`] — the default path: lowers the plan through
//!   [`crate::physical`] into a pipelined operator tree (zero-copy
//!   scans, fused select/project stages, hash joins) and streams rows
//!   into the sampling heads. [`QueryStats`] carries the query/sample
//!   phase split of Figure 6 plus per-operator row counts and timings.
//! * [`execute_materialized`] — the original recursive interpreter that
//!   materializes every intermediate c-table. It is kept as the
//!   executable semantics reference: `tests/physical_equivalence.rs`
//!   asserts the two produce identical tables and bit-identical sampled
//!   numbers.

use std::sync::Arc;
use std::time::Instant;

use pip_core::{Column, DataType, PipError, Result, Schema, Value};
use pip_expr::Equation;

use pip_ctable::{algebra, CRow, CTable};
use pip_sampling::parallel::run_indexed;
use pip_sampling::{
    aconf, conf, expected_avg, expected_count, expected_max_const, expected_max_sampled,
    expected_sum, SamplerConfig,
};

use crate::catalog::Database;
use crate::physical::{self, OpProfile};
use crate::plan::{AggFunc, Plan, ScalarExpr};
use crate::rewrite::{compile_predicate, compile_scalar};

/// Wall-clock breakdown of one query execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryStats {
    /// Seconds spent in the symbolic (relational algebra) phase.
    pub query_secs: f64,
    /// Seconds spent sampling / integrating.
    pub sample_secs: f64,
    /// Per-operator profiles of the physical tree, pre-order (empty for
    /// the materializing executor, which has no operator tree).
    pub ops: Vec<OpProfile>,
}

impl QueryStats {
    /// Split the wall time of one drained pipelined run into its
    /// phases: the sampling heads' exclusive time is the sample phase,
    /// the rest the query phase.
    pub fn from_profiles(total_secs: f64, ops: Vec<OpProfile>) -> QueryStats {
        let sample_secs: f64 = ops
            .iter()
            .filter(|p| p.sampling)
            .map(|p| p.exclusive_secs)
            .sum();
        QueryStats {
            query_secs: (total_secs - sample_secs).max(0.0),
            sample_secs,
            ops,
        }
    }
}

/// Execute `plan` against `db` through the pipelined physical layer,
/// returning the result table and the query/sample timing split with
/// per-operator profiles.
pub fn execute_with_stats(
    db: &Database,
    plan: &Plan,
    cfg: &SamplerConfig,
) -> Result<(CTable, QueryStats)> {
    let mut phys = physical::lower(db, plan, cfg)?;
    let t0 = Instant::now();
    let table = phys.collect()?;
    let stats = QueryStats::from_profiles(t0.elapsed().as_secs_f64(), phys.profiles());
    db.metrics().record(&stats);
    Ok((table, stats))
}

/// Execute `plan` against `db` (pipelined executor).
pub fn execute(db: &Database, plan: &Plan, cfg: &SamplerConfig) -> Result<CTable> {
    execute_with_stats(db, plan, cfg).map(|(t, _)| t)
}

/// Execute `plan` with the legacy materializing interpreter (the
/// semantics reference for the pipelined executor).
pub fn execute_materialized(db: &Database, plan: &Plan, cfg: &SamplerConfig) -> Result<CTable> {
    execute_materialized_with_stats(db, plan, cfg).map(|(t, _)| t)
}

/// [`execute_materialized`] with the query/sample timing split.
pub fn execute_materialized_with_stats(
    db: &Database,
    plan: &Plan,
    cfg: &SamplerConfig,
) -> Result<(CTable, QueryStats)> {
    let mut stats = QueryStats::default();
    let table = run(db, plan, cfg, &mut stats)?;
    // The root result is owned unless the plan is a bare table scan, in
    // which case the catalog still shares it and one clone is due.
    let table = Arc::try_unwrap(table).unwrap_or_else(|arc| (*arc).clone());
    Ok((table, stats))
}

/// The recursive materializing interpreter. Base-table scans hand back
/// the catalog's shared [`Arc`] snapshot — operators above borrow it, so
/// scans never copy the table.
fn run(
    db: &Database,
    plan: &Plan,
    cfg: &SamplerConfig,
    stats: &mut QueryStats,
) -> Result<Arc<CTable>> {
    match plan {
        Plan::Scan(name) => db.table(name),
        Plan::Select { input, predicate } => {
            let t = run(db, input, cfg, stats)?;
            let start = Instant::now();
            let schema = t.schema().clone();
            let out =
                algebra::select(&t, |cells| compile_predicate(predicate, &schema, cells, db))?;
            stats.query_secs += start.elapsed().as_secs_f64();
            Ok(Arc::new(out))
        }
        Plan::Project { input, exprs } => {
            let t = run(db, input, cfg, stats)?;
            let start = Instant::now();
            let in_schema = t.schema().clone();
            let out_schema = Schema::new(
                exprs
                    .iter()
                    .map(|(name, e)| Column::new(name.clone(), output_type(e, &in_schema)))
                    .collect(),
            )?;
            let out = algebra::map(&t, out_schema, |cells| {
                exprs
                    .iter()
                    .map(|(_, e)| compile_scalar(e, &in_schema, cells, db))
                    .collect()
            })?;
            stats.query_secs += start.elapsed().as_secs_f64();
            Ok(Arc::new(out))
        }
        Plan::Product { left, right } => {
            let l = run(db, left, cfg, stats)?;
            let r = run(db, right, cfg, stats)?;
            let start = Instant::now();
            let out = algebra::product(&l, &r)?;
            stats.query_secs += start.elapsed().as_secs_f64();
            Ok(Arc::new(out))
        }
        Plan::EquiJoin { left, right, on } => {
            let l = run(db, left, cfg, stats)?;
            let r = run(db, right, cfg, stats)?;
            let start = Instant::now();
            let pairs: Vec<(&str, &str)> =
                on.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
            let out = algebra::equi_join(&l, &r, &pairs)?;
            stats.query_secs += start.elapsed().as_secs_f64();
            Ok(Arc::new(out))
        }
        Plan::Union { left, right } => {
            let l = run(db, left, cfg, stats)?;
            let r = run(db, right, cfg, stats)?;
            let start = Instant::now();
            let out = algebra::union(&l, &r)?;
            stats.query_secs += start.elapsed().as_secs_f64();
            Ok(Arc::new(out))
        }
        Plan::Distinct(input) => {
            let t = run(db, input, cfg, stats)?;
            let start = Instant::now();
            let out = algebra::distinct(&t)?;
            stats.query_secs += start.elapsed().as_secs_f64();
            Ok(Arc::new(out))
        }
        Plan::Difference { left, right } => {
            let l = run(db, left, cfg, stats)?;
            let r = run(db, right, cfg, stats)?;
            let start = Instant::now();
            let out = algebra::difference(&l, &r)?;
            stats.query_secs += start.elapsed().as_secs_f64();
            Ok(Arc::new(out))
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let t = run(db, input, cfg, stats)?;
            let start = Instant::now();
            let out = aggregate(&t, group_by, aggs, cfg)?;
            stats.sample_secs += start.elapsed().as_secs_f64();
            Ok(Arc::new(out))
        }
        Plan::Conf(input) => {
            let t = run(db, input, cfg, stats)?;
            let start = Instant::now();
            let out = conf_table(&t, cfg)?;
            stats.sample_secs += start.elapsed().as_secs_f64();
            Ok(Arc::new(out))
        }
        Plan::Sort { input, keys } => {
            let t = run(db, input, cfg, stats)?;
            let start = Instant::now();
            let idx = keys
                .iter()
                .map(|(c, d)| Ok((t.schema().index_of(c)?, *d)))
                .collect::<Result<Vec<_>>>()?;
            let rows = sort_rows(t.schema(), t.rows().to_vec(), &idx)?;
            let out = CTable::new(t.schema().clone(), rows)?;
            stats.query_secs += start.elapsed().as_secs_f64();
            Ok(Arc::new(out))
        }
        Plan::Limit { input, n } => {
            let t = run(db, input, cfg, stats)?;
            let rows = t.rows().iter().take(*n).cloned().collect();
            Ok(Arc::new(CTable::new(t.schema().clone(), rows)?))
        }
        // The index access paths are physical details: the materializing
        // interpreter executes their logical equivalents, which is
        // exactly what makes it the semantics oracle for them.
        Plan::IndexScan {
            table, predicate, ..
        } => {
            let t = db.table(table)?;
            let start = Instant::now();
            let schema = t.schema().clone();
            let out =
                algebra::select(&t, |cells| compile_predicate(predicate, &schema, cells, db))?;
            stats.query_secs += start.elapsed().as_secs_f64();
            Ok(Arc::new(out))
        }
        Plan::IndexJoin {
            left, table, on, ..
        } => {
            let l = run(db, left, cfg, stats)?;
            let r = db.table(table)?;
            let start = Instant::now();
            let pairs: Vec<(&str, &str)> =
                on.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
            let out = algebra::equi_join(&l, &r, &pairs)?;
            stats.query_secs += start.elapsed().as_secs_f64();
            Ok(Arc::new(out))
        }
    }
}

/// Static output type inference for projection expressions.
pub(crate) fn output_type(expr: &ScalarExpr, schema: &Schema) -> DataType {
    match expr {
        ScalarExpr::Column(name) => schema
            .column(name)
            .map(|c| c.dtype)
            .unwrap_or(DataType::Symbolic),
        ScalarExpr::Literal(v) => match v {
            pip_core::Value::Bool(_) => DataType::Bool,
            pip_core::Value::Int(_) => DataType::Int,
            pip_core::Value::Float(_) => DataType::Float,
            pip_core::Value::Str(_) => DataType::Str,
            pip_core::Value::Null => DataType::Symbolic,
        },
        _ => DataType::Symbolic,
    }
}

/// The ORDER BY kernel both executors share: validate that every sort
/// key cell is deterministic (like group-by keys), then stably sort by
/// `(column index, descending)` keys under the total value order.
pub(crate) fn sort_rows(
    schema: &Schema,
    mut rows: Vec<CRow>,
    keys: &[(usize, bool)],
) -> Result<Vec<CRow>> {
    for row in &rows {
        for &(i, _) in keys {
            if row.cells[i].as_const().is_none() {
                return Err(PipError::Unsupported(format!(
                    "ORDER BY on uncertain column '{}'",
                    schema.columns()[i].name
                )));
            }
        }
    }
    rows.sort_by(|a, b| {
        for &(i, desc) in keys {
            let av = a.cells[i].as_const().expect("validated");
            let bv = b.cells[i].as_const().expect("validated");
            let ord = av.cmp_total(bv);
            let ord = if desc { ord.reverse() } else { ord };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(rows)
}

/// Output schema of an aggregate head: the group keys followed by one
/// Float column per aggregate.
pub(crate) fn aggregate_schema(
    in_schema: &Schema,
    group_by: &[String],
    aggs: &[AggFunc],
) -> Result<Schema> {
    let mut cols: Vec<Column> = Vec::new();
    for g in group_by {
        cols.push(in_schema.column(g)?.clone());
    }
    for a in aggs {
        cols.push(Column::new(a.output_name(), DataType::Float));
    }
    Schema::new(cols)
}

/// Run the aggregate sampling operators over pre-partitioned groups,
/// returning one output cell vector per group (in group order).
///
/// Per-group sampling sites derive from the group's row contents (row
/// index within the part), never from scheduling, so groups go through
/// [`run_indexed`] without changing any number; the fold back into the
/// result rows stays in group order. Both executors call this.
pub(crate) fn group_head_rows(
    groups: &[(Vec<Value>, CTable)],
    aggs: &[AggFunc],
    cfg: &SamplerConfig,
) -> Result<Vec<Vec<Equation>>> {
    let group_row = |(key, part): &(Vec<Value>, CTable)| -> Result<Vec<Equation>> {
        let mut cells: Vec<Equation> = key.iter().cloned().map(Equation::Const).collect();
        for a in aggs {
            let v = match a {
                AggFunc::ExpectedSum(col) => expected_sum(part, col, cfg)?.value,
                AggFunc::ExpectedCount => expected_count(part, cfg)?.value,
                AggFunc::ExpectedAvg(col) => expected_avg(part, col, cfg)?.value,
                AggFunc::ExpectedMax { column, precision } => {
                    // Constant cells: the sorted scan of Example 4.4,
                    // which stops once a row can add no more than
                    // `precision`. Symbolic ones: the per-world fallback
                    // of §IV-C, over as many worlds as a fixed-budget
                    // probe draws; it has no such stop, so a precision
                    // there is refused rather than ignored.
                    let idx = part.schema().index_of(column)?;
                    if part
                        .rows()
                        .iter()
                        .all(|r| r.cells[idx].as_const().is_some())
                    {
                        expected_max_const(part, column, cfg, *precision)?.value
                    } else if *precision != 0.0 {
                        return Err(PipError::Unsupported(format!(
                            "expected_max precision applies to constant cells only; \
                             '{column}' has symbolic cells, so omit it"
                        )));
                    } else {
                        let worlds = cfg.probe_budget() as usize;
                        expected_max_sampled(part, column, cfg, worlds)?.value
                    }
                }
                AggFunc::Conf => {
                    // Probability the group (the whole result, without
                    // GROUP BY) is non-empty: aconf over the disjunction
                    // of all row conditions.
                    let dnf = pip_expr::Dnf::of(
                        part.rows().iter().map(|r| r.condition.clone()).collect(),
                    );
                    aconf(&dnf, cfg, 0)?
                }
            };
            cells.push(Equation::val(v));
        }
        Ok(cells)
    };

    run_indexed(cfg, groups.len(), |i| group_row(&groups[i]))
}

/// Execute the aggregate head: group, then run sampling operators.
fn aggregate(
    table: &CTable,
    group_by: &[String],
    aggs: &[AggFunc],
    cfg: &SamplerConfig,
) -> Result<CTable> {
    let out_schema = aggregate_schema(table.schema(), group_by, aggs)?;
    let mut out = CTable::empty(out_schema);

    let groups: Vec<(Vec<Value>, CTable)> = if group_by.is_empty() {
        vec![(Vec::new(), table.clone())]
    } else {
        let keys: Vec<&str> = group_by.iter().map(String::as_str).collect();
        algebra::partition_by(table, &keys)?
    };

    for cells in group_head_rows(&groups, aggs, cfg)? {
        out.push(CRow::unconditional(cells))?;
    }
    Ok(out)
}

/// The row-level confidence operator: append `conf()`, strip conditions.
///
/// Each row's `conf` is seeded by its row index, so the rows go through
/// [`run_indexed`].
fn conf_table(table: &CTable, cfg: &SamplerConfig) -> Result<CTable> {
    let mut cols = table.schema().columns().to_vec();
    cols.push(Column::new("conf()", DataType::Float));
    let out_schema = Schema::new(cols)?;
    let mut out = CTable::empty(out_schema);
    let rows = table.rows();
    let probs = run_indexed(cfg, rows.len(), |i| conf(&rows[i].condition, cfg, i as u64))?;
    for (row, p) in rows.iter().zip(probs) {
        let mut cells = row.cells.clone();
        cells.push(Equation::val(p));
        out.push(CRow::unconditional(cells))?;
    }
    Ok(out)
}

/// Convenience: extract a single scalar f64 from a 1×1 result table.
pub fn scalar_result(table: &CTable) -> Result<f64> {
    if table.len() != 1 || table.schema().len() != 1 {
        return Err(PipError::Eval(format!(
            "expected 1x1 result, got {}x{}",
            table.len(),
            table.schema().len()
        )));
    }
    table.rows()[0].cells[0]
        .as_const()
        .ok_or_else(|| PipError::Eval("result cell is symbolic".into()))?
        .as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;
    use pip_core::{tuple, Value};
    use pip_dist::special;

    /// The paper's running example as a full engine test.
    fn shipping_db() -> Database {
        let db = Database::new();
        db.create_table(
            "orders",
            Schema::of(&[
                ("cust", DataType::Str),
                ("ship_to", DataType::Str),
                ("price", DataType::Symbolic),
            ]),
        )
        .unwrap();
        db.create_table(
            "shipping",
            Schema::of(&[("dest", DataType::Str), ("duration", DataType::Symbolic)]),
        )
        .unwrap();
        let x1 = db.create_variable("Normal", &[100.0, 10.0]).unwrap();
        let x3 = db.create_variable("Normal", &[50.0, 5.0]).unwrap();
        let x2 = db.create_variable("Normal", &[5.0, 2.0]).unwrap();
        let x4 = db.create_variable("Normal", &[9.0, 2.0]).unwrap();
        db.insert_rows(
            "orders",
            vec![
                CRow::unconditional(vec![
                    Equation::val(Value::str("Joe")),
                    Equation::val(Value::str("NY")),
                    Equation::from(x1),
                ]),
                CRow::unconditional(vec![
                    Equation::val(Value::str("Bob")),
                    Equation::val(Value::str("LA")),
                    Equation::from(x3),
                ]),
            ],
        )
        .unwrap();
        db.insert_rows(
            "shipping",
            vec![
                CRow::unconditional(vec![Equation::val(Value::str("NY")), Equation::from(x2)]),
                CRow::unconditional(vec![Equation::val(Value::str("LA")), Equation::from(x4)]),
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn paper_intro_query_end_to_end() {
        // select expected_sum(price) from orders o, shipping s
        // where o.ship_to = s.dest and o.cust = 'Joe' and s.duration >= 7
        let db = shipping_db();
        let plan = PlanBuilder::scan("orders")
            .select(ScalarExpr::col("cust").eq(ScalarExpr::lit("Joe")))
            .unwrap()
            .equi_join(PlanBuilder::scan("shipping"), vec![("ship_to", "dest")])
            .select(ScalarExpr::col("duration").ge(ScalarExpr::lit(7.0)))
            .unwrap()
            .aggregate(vec![], vec![AggFunc::ExpectedSum("price".into())])
            .build();
        let cfg = SamplerConfig::default();
        let (result, stats) = execute_with_stats(&db, &plan, &cfg).unwrap();
        let v = scalar_result(&result).unwrap();
        // E[X1]·P[X2 ≥ 7]: price independent of duration.
        let truth = 100.0 * (1.0 - special::normal_cdf((7.0 - 5.0) / 2.0));
        assert!((v - truth).abs() < 2.0, "{v} vs {truth}");
        assert!(stats.query_secs >= 0.0 && stats.sample_secs > 0.0);
        // The physical tree was profiled: an aggregate head over a join.
        assert!(
            stats.ops[0].name.starts_with("Aggregate"),
            "{:?}",
            stats.ops
        );
        assert!(stats.ops[0].sampling);
        assert!(stats.ops.iter().any(|p| p.name.starts_with("HashJoin")));
    }

    #[test]
    fn streaming_matches_materialized_on_the_paper_query() {
        let db = shipping_db();
        let plan = PlanBuilder::scan("orders")
            .equi_join(PlanBuilder::scan("shipping"), vec![("ship_to", "dest")])
            .select(ScalarExpr::col("duration").ge(ScalarExpr::lit(7.0)))
            .unwrap()
            .aggregate(
                vec!["cust"],
                vec![AggFunc::ExpectedSum("price".into()), AggFunc::Conf],
            )
            .build();
        let cfg = SamplerConfig::default();
        let streamed = execute(&db, &plan, &cfg).unwrap();
        let materialized = execute_materialized(&db, &plan, &cfg).unwrap();
        assert_eq!(streamed, materialized);
    }

    #[test]
    fn conf_operator_appends_probability_column() {
        let db = shipping_db();
        let plan = PlanBuilder::scan("shipping")
            .select(ScalarExpr::col("duration").ge(ScalarExpr::lit(7.0)))
            .unwrap()
            .conf()
            .build();
        let cfg = SamplerConfig::default();
        let t = execute(&db, &plan, &cfg).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.schema().columns().last().unwrap().name, "conf()");
        // NY: P[N(5,2) ≥ 7] ≈ 0.1587; LA: P[N(9,2) ≥ 7] ≈ 0.8413.
        let p_ny = t.rows()[0].cells[2].as_const().unwrap().as_f64().unwrap();
        let p_la = t.rows()[1].cells[2].as_const().unwrap().as_f64().unwrap();
        assert!((p_ny - 0.1587).abs() < 1e-3, "{p_ny}");
        assert!((p_la - 0.8413).abs() < 1e-3, "{p_la}");
        // Conditions stripped.
        assert!(t.rows().iter().all(|r| r.condition.is_trivially_true()));
    }

    #[test]
    fn group_by_aggregates() {
        let db = Database::new();
        db.create_table(
            "sales",
            Schema::of(&[("region", DataType::Str), ("amount", DataType::Symbolic)]),
        )
        .unwrap();
        db.insert_tuples(
            "sales",
            &[
                tuple!["east", 10.0],
                tuple!["east", 20.0],
                tuple!["west", 5.0],
            ],
        )
        .unwrap();
        let plan = PlanBuilder::scan("sales")
            .aggregate(
                vec!["region"],
                vec![
                    AggFunc::ExpectedSum("amount".into()),
                    AggFunc::ExpectedCount,
                ],
            )
            .build();
        let cfg = SamplerConfig::default();
        let t = execute(&db, &plan, &cfg).unwrap();
        assert_eq!(t.len(), 2);
        let east = &t.rows()[0];
        assert_eq!(east.cells[0].as_const().unwrap(), &Value::str("east"));
        assert_eq!(east.cells[1].as_const().unwrap().as_f64().unwrap(), 30.0);
        assert_eq!(east.cells[2].as_const().unwrap().as_f64().unwrap(), 2.0);
    }

    #[test]
    fn projection_with_arithmetic_and_fresh_variables() {
        let db = Database::new();
        db.create_table("base", Schema::of(&[("x", DataType::Float)]))
            .unwrap();
        db.insert_tuples("base", &[tuple![3.0], tuple![4.0]])
            .unwrap();
        let plan = PlanBuilder::scan("base")
            .project(vec![
                ("doubled", ScalarExpr::col("x").mul(ScalarExpr::lit(2.0))),
                (
                    "noise",
                    ScalarExpr::CreateVariable {
                        class: "Normal".into(),
                        params: vec![0.0, 1.0],
                    },
                ),
            ])
            .build();
        let cfg = SamplerConfig::default();
        let t = execute(&db, &plan, &cfg).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.rows()[0].cells[0].as_const().unwrap().as_f64().unwrap(),
            6.0
        );
        // Fresh variable per row.
        let v0 = t.rows()[0].cells[1].variables();
        let v1 = t.rows()[1].cells[1].variables();
        assert_ne!(v0[0].key, v1[0].key);
    }

    #[test]
    fn union_distinct_difference_through_plans() {
        let db = Database::new();
        db.create_table("a", Schema::of(&[("v", DataType::Int)]))
            .unwrap();
        db.create_table("b", Schema::of(&[("v", DataType::Int)]))
            .unwrap();
        db.insert_tuples("a", &[tuple![1i64], tuple![2i64], tuple![2i64]])
            .unwrap();
        db.insert_tuples("b", &[tuple![2i64]]).unwrap();
        let cfg = SamplerConfig::default();

        let u = execute(
            &db,
            &PlanBuilder::scan("a").union(PlanBuilder::scan("b")).build(),
            &cfg,
        )
        .unwrap();
        assert_eq!(u.len(), 4);

        let d = execute(&db, &PlanBuilder::scan("a").distinct().build(), &cfg).unwrap();
        assert_eq!(d.len(), 2);

        let diff = execute(
            &db,
            &PlanBuilder::scan("a")
                .difference(PlanBuilder::scan("b"))
                .build(),
            &cfg,
        )
        .unwrap();
        let world = diff.instantiate(&pip_expr::Assignment::new()).unwrap();
        assert_eq!(world, vec![tuple![1i64]]);
    }

    #[test]
    fn thread_count_never_changes_query_results() {
        let db = shipping_db();
        let agg_plan = PlanBuilder::scan("orders")
            .equi_join(PlanBuilder::scan("shipping"), vec![("ship_to", "dest")])
            .select(ScalarExpr::col("duration").ge(ScalarExpr::lit(7.0)))
            .unwrap()
            .aggregate(
                vec!["cust"],
                vec![
                    AggFunc::ExpectedSum("price".into()),
                    AggFunc::ExpectedCount,
                    AggFunc::Conf,
                ],
            )
            .build();
        let conf_plan = PlanBuilder::scan("shipping")
            .select(ScalarExpr::col("duration").ge(ScalarExpr::lit(7.0)))
            .unwrap()
            .conf()
            .build();
        let serial = SamplerConfig::default();
        let t1_agg = execute(&db, &agg_plan, &serial).unwrap();
        let t1_conf = execute(&db, &conf_plan, &serial).unwrap();
        // The conf column is row i's `conf` at site i.
        let Plan::Conf(conf_input) = &conf_plan else {
            unreachable!()
        };
        let symbolic = execute(&db, conf_input, &serial).unwrap();
        for (i, (row, out)) in symbolic.rows().iter().zip(t1_conf.rows()).enumerate() {
            let p = conf(&row.condition, &serial, i as u64).unwrap();
            assert_eq!(out.cells.last().unwrap(), &Equation::val(p), "row {i}");
        }
        for threads in [2usize, 4, 8] {
            let par = serial.clone().with_threads(threads);
            for (exec, which) in [
                (execute as fn(&_, &_, &_) -> _, "streaming"),
                (execute_materialized, "materialized"),
            ] {
                assert_eq!(
                    exec(&db, &agg_plan, &par).unwrap().rows(),
                    t1_agg.rows(),
                    "{which} aggregate head diverged at {threads} threads"
                );
                assert_eq!(
                    exec(&db, &conf_plan, &par).unwrap().rows(),
                    t1_conf.rows(),
                    "{which} conf head diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn scalar_result_shape_checks() {
        let t = CTable::from_tuples(Schema::of(&[("a", DataType::Int)]), &[tuple![5i64]]).unwrap();
        assert_eq!(scalar_result(&t).unwrap(), 5.0);
        let t2 = CTable::from_tuples(
            Schema::of(&[("a", DataType::Int)]),
            &[tuple![5i64], tuple![6i64]],
        )
        .unwrap();
        assert!(scalar_result(&t2).is_err());
    }

    #[test]
    fn missing_table_errors() {
        let db = Database::new();
        let cfg = SamplerConfig::default();
        assert!(execute(&db, &Plan::Scan("ghost".into()), &cfg).is_err());
        assert!(execute_materialized(&db, &Plan::Scan("ghost".into()), &cfg).is_err());
    }

    #[test]
    fn bare_scan_returns_the_table_without_mutating_the_catalog() {
        let db = shipping_db();
        let cfg = SamplerConfig::default();
        let v0 = db.version();
        let t = execute(&db, &Plan::Scan("orders".into()), &cfg).unwrap();
        let m = execute_materialized(&db, &Plan::Scan("orders".into()), &cfg).unwrap();
        assert_eq!(t, m);
        assert_eq!(t.len(), 2);
        assert_eq!(db.version(), v0);
    }
}
