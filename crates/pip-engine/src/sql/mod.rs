//! SQL front-end: lexer, parser, and statement execution.
//!
//! ```
//! use pip_engine::{Database, sql};
//! use pip_sampling::SamplerConfig;
//!
//! let db = Database::new();
//! let cfg = SamplerConfig::default();
//! sql::run(&db, "CREATE TABLE orders (cust TEXT, price SYMBOLIC)", &cfg).unwrap();
//! sql::run(
//!     &db,
//!     "INSERT INTO orders VALUES ('Joe', create_variable('Normal', 100, 10))",
//!     &cfg,
//! )
//! .unwrap();
//! let r = sql::run(&db, "SELECT expected_sum(price) FROM orders", &cfg).unwrap();
//! let v = pip_engine::scalar_result(&r).unwrap();
//! assert!((v - 100.0).abs() < 1e-9);
//! ```

pub mod lexer;
pub mod parser;

use pip_core::{Column, Result, Schema};
use pip_expr::Equation;
use pip_sampling::SamplerConfig;

use pip_ctable::{CRow, CTable};

use crate::catalog::Database;
use crate::exec::execute;
use crate::rewrite::compile_scalar;

pub use parser::{parse, ExplainFormat, Statement};

/// Parse and run one SQL statement. DDL/DML return an empty table;
/// SELECT returns its result.
pub fn run(db: &Database, sql: &str, cfg: &SamplerConfig) -> Result<CTable> {
    let start = std::time::Instant::now();
    let stmt = parse(sql)?;
    db.metrics().parse_seconds.observe_since(start);
    run_statement(db, stmt, cfg)
}

/// Run an already-parsed statement (the server's prepared-statement path
/// parses once and executes many times).
pub fn run_statement(db: &Database, stmt: Statement, cfg: &SamplerConfig) -> Result<CTable> {
    match stmt {
        Statement::CreateTable { name, columns } => {
            let schema = Schema::new(
                columns
                    .into_iter()
                    .map(|(n, t)| Column::new(n, t))
                    .collect(),
            )?;
            db.create_table(&name, schema)?;
            Ok(CTable::empty(Schema::empty()))
        }
        Statement::CreateIndex {
            name,
            table,
            column,
        } => {
            db.create_index(&name, &table, &column)?;
            Ok(CTable::empty(Schema::empty()))
        }
        Statement::DropIndex { name } => {
            db.drop_index(&name)?;
            Ok(CTable::empty(Schema::empty()))
        }
        Statement::Insert { table, rows } => {
            let schema = db.table(&table)?.schema().clone();
            let empty_cells: Vec<Equation> = Vec::new();
            let mut crows = Vec::with_capacity(rows.len());
            for row in rows {
                let cells = row
                    .iter()
                    .map(|e| {
                        // INSERT expressions see no input columns.
                        compile_scalar(e, &Schema::empty(), &empty_cells, db)
                    })
                    .collect::<Result<Vec<_>>>()?;
                if cells.len() != schema.len() {
                    return Err(pip_core::PipError::Sql(format!(
                        "INSERT arity {} does not match table '{}' ({})",
                        cells.len(),
                        table,
                        schema.len()
                    )));
                }
                crows.push(CRow::unconditional(cells));
            }
            db.insert_rows(&table, crows)?;
            Ok(CTable::empty(Schema::empty()))
        }
        Statement::Select(plan) => {
            let plan = crate::optimize::optimize(db, plan)?;
            execute(db, &plan, cfg)
        }
        Statement::Explain {
            plan,
            analyze,
            format,
        } => explain_statement(db, plan, analyze, format, cfg),
        Statement::Analyze { table } => analyze_statement(db, table),
    }
}

/// Run `ANALYZE [table]`: refresh optimizer statistics and report one
/// row per analyzed table.
fn analyze_statement(db: &Database, table: Option<String>) -> Result<CTable> {
    let stats = match table {
        Some(t) => vec![db.analyze_table(&t)?],
        None => db.analyze_all()?,
    };
    let schema = Schema::new(vec![
        Column::new("table", pip_core::DataType::Str),
        Column::new("rows", pip_core::DataType::Int),
        Column::new("columns", pip_core::DataType::Int),
        Column::new("symbolic_cells", pip_core::DataType::Int),
        Column::new("conditional_rows", pip_core::DataType::Int),
    ])?;
    let mut out = CTable::empty(schema);
    for s in stats {
        let symbolic: u64 = s.columns.iter().map(|c| c.n_symbolic).sum();
        out.push(CRow::unconditional(vec![
            Equation::val(pip_core::Value::str(s.table.clone())),
            Equation::val(s.rows as i64),
            Equation::val(s.columns.len() as i64),
            Equation::val(symbolic as i64),
            Equation::val(s.conditional_rows as i64),
        ]))?;
    }
    Ok(out)
}

/// JSON shape of one logical plan node (`EXPLAIN (FORMAT JSON)`).
#[derive(serde::Serialize)]
struct LogicalJson {
    op: String,
    /// Estimated output rows (`null` when estimation failed).
    est_rows: f64,
    children: Vec<LogicalJson>,
}

fn logical_json(db: &Database, plan: &crate::plan::Plan) -> LogicalJson {
    LogicalJson {
        op: plan.label(),
        est_rows: crate::stats::estimate(db, plan)
            .map(|e| e.rows)
            .unwrap_or(f64::NAN),
        children: plan
            .children()
            .iter()
            .map(|c| logical_json(db, c))
            .collect(),
    }
}

/// JSON shape of one physical operator (`EXPLAIN (FORMAT JSON)`).
#[derive(serde::Serialize)]
struct PhysicalJson {
    op: String,
    /// Estimated output rows (`null` when estimation failed).
    est_rows: f64,
    rows: u64,
    total_secs: f64,
    self_secs: f64,
    sampling: bool,
    children: Vec<PhysicalJson>,
}

/// Rebuild the operator tree from the pre-order profile list.
fn physical_json(profiles: &[crate::physical::OpProfile], i: &mut usize) -> PhysicalJson {
    let p = &profiles[*i];
    let depth = p.depth;
    *i += 1;
    let mut node = PhysicalJson {
        op: p.name.clone(),
        est_rows: p.est_rows.unwrap_or(f64::NAN),
        rows: p.rows_out,
        total_secs: p.secs,
        self_secs: p.exclusive_secs,
        sampling: p.sampling,
        children: Vec::new(),
    };
    while *i < profiles.len() && profiles[*i].depth == depth + 1 {
        node.children.push(physical_json(profiles, i));
    }
    node
}

/// The whole `EXPLAIN (FORMAT JSON)` document.
#[derive(serde::Serialize)]
struct ExplainJson {
    analyzed: bool,
    result_rows: u64,
    query_secs: f64,
    sample_secs: f64,
    logical: LogicalJson,
    physical: PhysicalJson,
}

/// Run `EXPLAIN [ANALYZE] [(FORMAT ...)]`. Text format emits one `plan`
/// text row per tree line — the optimized logical plan with `est_rows`
/// estimates, then the physical operator tree (per-operator estimated
/// rows, and under ANALYZE — which executes the query — actual rows-out
/// plus inclusive `total` and exclusive `self` wall time). JSON format
/// emits a single row holding one machine-readable document with both
/// trees.
fn explain_statement(
    db: &Database,
    plan: crate::plan::Plan,
    analyze: bool,
    format: ExplainFormat,
    cfg: &SamplerConfig,
) -> Result<CTable> {
    let plan = crate::optimize::optimize(db, plan)?;
    let mut phys = crate::physical::lower_annotated(db, &plan, cfg)?;
    let mut result_rows = 0u64;
    let mut qs = crate::exec::QueryStats::default();
    if analyze {
        let t0 = std::time::Instant::now();
        let result = phys.collect()?;
        qs = crate::exec::QueryStats::from_profiles(t0.elapsed().as_secs_f64(), phys.profiles());
        result_rows = result.len() as u64;
    }

    let lines: Vec<String> = match format {
        ExplainFormat::Json => {
            let doc = ExplainJson {
                analyzed: analyze,
                result_rows,
                query_secs: qs.query_secs,
                sample_secs: qs.sample_secs,
                logical: logical_json(db, &plan),
                physical: physical_json(&phys.profiles(), &mut 0),
            };
            vec![serde_json::to_string(&doc)
                .map_err(|e| pip_core::PipError::Eval(format!("explain json: {e}")))?]
        }
        ExplainFormat::Text => {
            let mut lines = Vec::new();
            lines.push("-- logical plan --".to_string());
            lines.extend(
                crate::stats::explain_estimated(db, &plan)
                    .lines()
                    .map(String::from),
            );
            if analyze {
                lines.push("-- physical plan (analyzed) --".to_string());
                lines.extend(phys.explain(true).lines().map(String::from));
                lines.push(format!(
                    "-- {result_rows} result rows; query phase {:.6}s, \
                     sample phase {:.6}s --",
                    qs.query_secs, qs.sample_secs
                ));
            } else {
                lines.push("-- physical plan --".to_string());
                lines.extend(phys.explain(false).lines().map(String::from));
            }
            lines
        }
    };
    let mut out = CTable::empty(Schema::new(vec![Column::new(
        "plan".to_string(),
        pip_core::DataType::Str,
    )])?);
    for line in lines {
        out.push(CRow::unconditional(vec![Equation::val(
            pip_core::Value::str(line),
        )]))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::scalar_result;
    use pip_dist::special;

    fn db_with_orders() -> (Database, SamplerConfig) {
        let db = Database::new();
        let cfg = SamplerConfig::default();
        run(
            &db,
            "CREATE TABLE orders (cust TEXT, ship_to TEXT, price SYMBOLIC)",
            &cfg,
        )
        .unwrap();
        run(
            &db,
            "CREATE TABLE shipping (dest TEXT, duration SYMBOLIC)",
            &cfg,
        )
        .unwrap();
        run(
            &db,
            "INSERT INTO orders VALUES \
             ('Joe', 'NY', create_variable('Normal', 100, 10)), \
             ('Bob', 'LA', create_variable('Normal', 50, 5))",
            &cfg,
        )
        .unwrap();
        run(
            &db,
            "INSERT INTO shipping VALUES \
             ('NY', create_variable('Normal', 5, 2)), \
             ('LA', create_variable('Normal', 9, 2))",
            &cfg,
        )
        .unwrap();
        (db, cfg)
    }

    #[test]
    fn full_paper_query_via_sql() {
        // Paper Example 3.1: the price is independent of the duration
        // condition, so E[price]·P[duration ≥ 7] is answered in closed
        // form, whatever the seed.
        let (db, cfg) = db_with_orders();
        let truth = 100.0 * (1.0 - special::normal_cdf(1.0));
        for seed in [cfg.world_seed, cfg.world_seed + 1] {
            let r = run(
                &db,
                "SELECT expected_sum(price) FROM orders, shipping \
                 WHERE ship_to = dest AND cust = 'Joe' AND duration >= 7",
                &cfg.clone().with_seed(seed),
            )
            .unwrap();
            let v = scalar_result(&r).unwrap();
            assert!((v - truth).abs() < 1e-9, "seed {seed}: {v} vs {truth}");
        }
    }

    #[test]
    fn ddl_dml_select_round_trip() {
        let db = Database::new();
        let cfg = SamplerConfig::default();
        run(&db, "CREATE TABLE t (a INT, b FLOAT)", &cfg).unwrap();
        run(&db, "INSERT INTO t VALUES (1, 2.5), (2, 3.5)", &cfg).unwrap();
        let r = run(&db, "SELECT expected_sum(b) FROM t", &cfg).unwrap();
        assert_eq!(scalar_result(&r).unwrap(), 6.0);
        // Arity mismatch caught.
        assert!(run(&db, "INSERT INTO t VALUES (1)", &cfg).is_err());
        // Unknown table caught.
        assert!(run(&db, "SELECT * FROM ghost", &cfg).is_err());
    }

    #[test]
    fn conf_query_via_sql() {
        let (db, cfg) = db_with_orders();
        let r = run(
            &db,
            "SELECT dest, conf() FROM shipping WHERE duration >= 7",
            &cfg,
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        let p_ny = r.rows()[0].cells[1].as_const().unwrap().as_f64().unwrap();
        assert!((p_ny - (1.0 - special::normal_cdf(1.0))).abs() < 1e-3);
    }

    fn plan_text(t: &CTable) -> String {
        t.rows()
            .iter()
            .map(|r| r.cells[0].as_const().unwrap().as_str().unwrap().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn explain_and_explain_analyze_via_sql() {
        let (db, cfg) = db_with_orders();
        let q = "SELECT expected_sum(price) FROM orders, shipping \
                 WHERE ship_to = dest AND duration >= 7";
        let text = plan_text(&run(&db, &format!("EXPLAIN {q}"), &cfg).unwrap());
        assert!(text.contains("-- logical plan --"), "{text}");
        assert!(text.contains("-- physical plan --"), "{text}");
        assert!(text.contains("Scan: orders"), "{text}");
        // Estimates appear on every operator, logical and physical.
        assert!(text.contains("est_rows="), "{text}");
        // Plain EXPLAIN does not execute: no actual row counts/timings.
        assert!(!text.contains(", rows="), "{text}");
        assert!(!text.contains("self="), "{text}");

        let text = plan_text(&run(&db, &format!("EXPLAIN ANALYZE {q}"), &cfg).unwrap());
        assert!(text.contains("-- physical plan (analyzed) --"), "{text}");
        // est_rows sits alongside the actual rows-out...
        assert!(text.contains("est_rows="), "{text}");
        assert!(text.contains(", rows="), "{text}");
        // ...and exclusive (self) time alongside inclusive (total).
        assert!(text.contains("total="), "{text}");
        assert!(text.contains("self="), "{text}");
        assert!(text.contains("sample phase"), "{text}");
        assert!(text.contains("Aggregate"), "{text}");
    }

    #[test]
    fn explain_analyze_exclusive_times_sum_to_inclusive_root() {
        // The profile API itself: every operator's exclusive time is its
        // inclusive time minus its children's inclusive share.
        let (db, cfg) = db_with_orders();
        let stmt = parse(
            "SELECT expected_sum(price) FROM orders, shipping \
             WHERE ship_to = dest AND duration >= 7",
        )
        .unwrap();
        let Statement::Select(plan) = stmt else {
            panic!("not a select");
        };
        let plan = crate::optimize::optimize(&db, plan).unwrap();
        let mut phys = crate::physical::lower(&db, &plan, &cfg).unwrap();
        phys.collect().unwrap();
        let profiles = phys.profiles();
        let total_self: f64 = profiles.iter().map(|p| p.exclusive_secs).sum();
        let root_total = profiles[0].secs;
        assert!(
            total_self <= root_total * 1.0001 + 1e-9,
            "self {total_self} vs root {root_total}"
        );
        assert!(profiles.iter().all(|p| p.exclusive_secs <= p.secs + 1e-12));
    }

    #[test]
    fn explain_format_json_is_machine_checkable() {
        let (db, cfg) = db_with_orders();
        let q = "SELECT expected_sum(price) FROM orders, shipping \
                 WHERE ship_to = dest AND duration >= 7";
        let t = run(&db, &format!("EXPLAIN (FORMAT JSON) {q}"), &cfg).unwrap();
        assert_eq!(t.len(), 1, "one row holding the document");
        let doc = plan_text(&t);
        assert!(doc.starts_with('{'), "{doc}");
        assert!(doc.contains("\"analyzed\":false"), "{doc}");
        assert!(doc.contains("\"logical\":"), "{doc}");
        assert!(doc.contains("\"physical\":"), "{doc}");
        assert!(doc.contains("\"est_rows\":"), "{doc}");
        assert!(doc.contains("\"children\":"), "{doc}");

        let t = run(&db, &format!("EXPLAIN (ANALYZE, FORMAT JSON) {q}"), &cfg).unwrap();
        let doc = plan_text(&t);
        assert!(doc.contains("\"analyzed\":true"), "{doc}");
        assert!(doc.contains("\"result_rows\":1"), "{doc}");
        assert!(doc.contains("\"rows\":"), "{doc}");
        assert!(doc.contains("\"self_secs\":"), "{doc}");
        assert!(doc.contains("\"sampling\":true"), "{doc}");
    }

    #[test]
    fn analyze_via_sql_reports_statistics() {
        let (db, cfg) = db_with_orders();
        // Per-table refresh.
        let t = run(&db, "ANALYZE orders", &cfg).unwrap();
        assert_eq!(t.len(), 1);
        let row = &t.rows()[0];
        assert_eq!(row.cells[0].as_const().unwrap().as_str().unwrap(), "orders");
        assert_eq!(row.cells[1].as_const().unwrap().as_i64().unwrap(), 2);
        // price is symbolic in both rows.
        assert_eq!(row.cells[3].as_const().unwrap().as_i64().unwrap(), 2);
        // Bare ANALYZE covers every table, sorted by name.
        let t = run(&db, "ANALYZE", &cfg).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.rows()[0].cells[0].as_const().unwrap().as_str().unwrap(),
            "orders"
        );
        assert!(run(&db, "ANALYZE ghost", &cfg).is_err());
    }

    #[test]
    fn group_by_via_sql() {
        let db = Database::new();
        let cfg = SamplerConfig::default();
        run(&db, "CREATE TABLE s (region TEXT, amount FLOAT)", &cfg).unwrap();
        run(
            &db,
            "INSERT INTO s VALUES ('e', 10), ('e', 20), ('w', 5)",
            &cfg,
        )
        .unwrap();
        let r = run(
            &db,
            "SELECT region, expected_sum(amount), expected_count(*) FROM s GROUP BY region",
            &cfg,
        )
        .unwrap();
        assert_eq!(r.len(), 2);
    }
}
