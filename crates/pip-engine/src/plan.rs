//! Logical plans and scalar expressions over named columns.
//!
//! Scalar expressions compile, per row, into symbolic [`Equation`]s;
//! boolean expressions compile into condition atoms (the CTYPE hoisting
//! of Section V-A happens in [`crate::rewrite`]). Plans are built either
//! programmatically via [`PlanBuilder`] or from SQL.

use pip_core::{PipError, Result, Value};
use pip_expr::{BinOp, CmpOp, RandomVar};

/// A scalar (value-producing) or boolean (predicate) expression over the
/// columns of a plan node's schema.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// A column reference by name.
    Column(String),
    /// A literal value.
    Literal(Value),
    /// A pre-created random variable (injected by workload builders).
    Var(RandomVar),
    /// `CREATE_VARIABLE(class, params)` — allocates a *fresh* variable
    /// each time the expression is evaluated on a row (Section V-A).
    CreateVariable { class: String, params: Vec<f64> },
    /// Arithmetic.
    Binary {
        op: BinOp,
        left: Box<ScalarExpr>,
        right: Box<ScalarExpr>,
    },
    /// Negation.
    Neg(Box<ScalarExpr>),
    /// Comparison (boolean-valued; only legal inside predicates).
    Cmp {
        op: CmpOp,
        left: Box<ScalarExpr>,
        right: Box<ScalarExpr>,
    },
    /// Conjunction of predicates.
    And(Vec<ScalarExpr>),
}

impl ScalarExpr {
    pub fn col(name: impl Into<String>) -> Self {
        ScalarExpr::Column(name.into())
    }

    pub fn lit(v: impl Into<Value>) -> Self {
        ScalarExpr::Literal(v.into())
    }

    pub fn var(v: RandomVar) -> Self {
        ScalarExpr::Var(v)
    }

    pub fn add(self, rhs: ScalarExpr) -> Self {
        self.bin(BinOp::Add, rhs)
    }

    pub fn sub(self, rhs: ScalarExpr) -> Self {
        self.bin(BinOp::Sub, rhs)
    }

    pub fn mul(self, rhs: ScalarExpr) -> Self {
        self.bin(BinOp::Mul, rhs)
    }

    pub fn div(self, rhs: ScalarExpr) -> Self {
        self.bin(BinOp::Div, rhs)
    }

    fn bin(self, op: BinOp, rhs: ScalarExpr) -> Self {
        ScalarExpr::Binary {
            op,
            left: Box::new(self),
            right: Box::new(rhs),
        }
    }

    pub fn cmp(self, op: CmpOp, rhs: ScalarExpr) -> Self {
        ScalarExpr::Cmp {
            op,
            left: Box::new(self),
            right: Box::new(rhs),
        }
    }

    pub fn gt(self, rhs: ScalarExpr) -> Self {
        self.cmp(CmpOp::Gt, rhs)
    }

    pub fn ge(self, rhs: ScalarExpr) -> Self {
        self.cmp(CmpOp::Ge, rhs)
    }

    pub fn lt(self, rhs: ScalarExpr) -> Self {
        self.cmp(CmpOp::Lt, rhs)
    }

    pub fn le(self, rhs: ScalarExpr) -> Self {
        self.cmp(CmpOp::Le, rhs)
    }

    pub fn eq(self, rhs: ScalarExpr) -> Self {
        self.cmp(CmpOp::Eq, rhs)
    }

    pub fn and(self, rhs: ScalarExpr) -> Self {
        match self {
            ScalarExpr::And(mut v) => {
                v.push(rhs);
                ScalarExpr::And(v)
            }
            other => ScalarExpr::And(vec![other, rhs]),
        }
    }

    /// True if the expression is a predicate (produces a boolean).
    pub fn is_predicate(&self) -> bool {
        matches!(self, ScalarExpr::Cmp { .. } | ScalarExpr::And(_))
    }
}

/// Aggregate functions available at the head of a plan (the paper's
/// probability-removing functions, Section V-A).
#[derive(Debug, Clone, PartialEq)]
pub enum AggFunc {
    /// `expected_sum(col)`.
    ExpectedSum(String),
    /// `expected_count(*)`.
    ExpectedCount,
    /// `expected_avg(col)`.
    ExpectedAvg(String),
    /// `expected_max(col)` with the given early-exit precision.
    ExpectedMax { column: String, precision: f64 },
    /// `conf()` — confidence that the group (without `GROUP BY`, the
    /// whole result) is non-empty, `aconf` over its rows' conditions. The
    /// per-row confidence is the `Conf` plan node instead.
    Conf,
}

impl AggFunc {
    /// Output column name for the aggregate.
    pub fn output_name(&self) -> String {
        match self {
            AggFunc::ExpectedSum(c) => format!("expected_sum({c})"),
            AggFunc::ExpectedCount => "expected_count(*)".to_string(),
            AggFunc::ExpectedAvg(c) => format!("expected_avg({c})"),
            AggFunc::ExpectedMax { column, .. } => format!("expected_max({column})"),
            AggFunc::Conf => "conf()".to_string(),
        }
    }
}

/// A logical query plan over c-tables.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan a catalog table.
    Scan(String),
    /// Filter rows; symbolic comparisons hoist into row conditions.
    Select {
        input: Box<Plan>,
        predicate: ScalarExpr,
    },
    /// Compute output columns (generalized projection).
    Project {
        input: Box<Plan>,
        exprs: Vec<(String, ScalarExpr)>,
    },
    /// Cross product.
    Product { left: Box<Plan>, right: Box<Plan> },
    /// Equi-join on column pairs.
    EquiJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        on: Vec<(String, String)>,
    },
    /// Bag union.
    Union { left: Box<Plan>, right: Box<Plan> },
    /// Duplicate elimination (bag-encoded DNF).
    Distinct(Box<Plan>),
    /// Multiset-free difference.
    Difference { left: Box<Plan>, right: Box<Plan> },
    /// Group by deterministic keys and apply aggregate sampling
    /// operators; output is a *deterministic* table.
    Aggregate {
        input: Box<Plan>,
        group_by: Vec<String>,
        aggs: Vec<AggFunc>,
    },
    /// Append a `conf()` column with each row's confidence and strip the
    /// condition (the row-level confidence operator, Section IV-B).
    Conf(Box<Plan>),
    /// Sort by deterministic columns (uncertain sort keys are rejected at
    /// execution time, like group-by keys).
    Sort {
        input: Box<Plan>,
        keys: Vec<(String, bool)>, // (column, descending)
    },
    /// Keep the first `n` rows.
    Limit { input: Box<Plan>, n: usize },
    /// Seek an ordered secondary index for the rows of `table` whose
    /// indexed column may fall inside `[lo, hi]` (the seek
    /// over-approximates: symbolic cells and out-of-order constants are
    /// always candidates), then re-apply the full `predicate` per
    /// candidate. Semantically identical to
    /// `Select { input: Scan(table), predicate }` — candidates stream in
    /// ascending row id, so results are row- and bit-identical to the
    /// full scan.
    IndexScan {
        table: String,
        index: String,
        column: String,
        /// Lower bound as `(value, inclusive)`; `None` = unbounded.
        lo: Option<(Value, bool)>,
        /// Upper bound as `(value, inclusive)`; `None` = unbounded.
        hi: Option<(Value, bool)>,
        /// The complete original predicate, re-checked per candidate.
        predicate: ScalarExpr,
    },
    /// Probe an ordered index on `table` once per left row instead of
    /// building a hash table. Semantically identical to
    /// `EquiJoin { left, right: Scan(table), on }`.
    IndexJoin {
        left: Box<Plan>,
        table: String,
        index: String,
        on: Vec<(String, String)>,
    },
}

impl Plan {
    /// One-line operator label (the node's EXPLAIN header).
    pub fn label(&self) -> String {
        match self {
            Plan::Scan(t) => format!("Scan: {t}"),
            Plan::Select { predicate, .. } => format!("Select: {predicate:?}"),
            Plan::Project { exprs, .. } => {
                let names: Vec<&str> = exprs.iter().map(|(n, _)| n.as_str()).collect();
                format!("Project: [{}]", names.join(", "))
            }
            Plan::Product { .. } => "Product".to_string(),
            Plan::EquiJoin { on, .. } => {
                let pairs: Vec<String> = on.iter().map(|(a, b)| format!("{a}={b}")).collect();
                format!("EquiJoin: {}", pairs.join(" AND "))
            }
            Plan::Union { .. } => "Union".to_string(),
            Plan::Distinct(_) => "Distinct".to_string(),
            Plan::Difference { .. } => "Difference".to_string(),
            Plan::Aggregate { group_by, aggs, .. } => {
                let names: Vec<String> = aggs.iter().map(|a| a.output_name()).collect();
                format!(
                    "Aggregate: [{}] group by [{}]",
                    names.join(", "),
                    group_by.join(", ")
                )
            }
            Plan::Conf(_) => "Conf".to_string(),
            Plan::Sort { keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(c, desc)| format!("{c}{}", if *desc { " DESC" } else { "" }))
                    .collect();
                format!("Sort: [{}]", ks.join(", "))
            }
            Plan::Limit { n, .. } => format!("Limit: {n}"),
            Plan::IndexScan {
                table,
                index,
                column,
                lo,
                hi,
                ..
            } => {
                let mut range = String::new();
                if let Some((v, inc)) = lo {
                    range.push_str(&format!("{v:?} {} ", if *inc { "<=" } else { "<" }));
                }
                range.push_str(column);
                if let Some((v, inc)) = hi {
                    range.push_str(&format!(" {} {v:?}", if *inc { "<=" } else { "<" }));
                }
                format!("IndexScan: {table} via {index} ({range})")
            }
            Plan::IndexJoin {
                table, index, on, ..
            } => {
                let pairs: Vec<String> = on.iter().map(|(a, b)| format!("{a}={b}")).collect();
                format!(
                    "IndexJoin: {} (probe={table} via {index})",
                    pairs.join(" AND ")
                )
            }
        }
    }

    /// Child plans in operator order (left before right).
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan(_) | Plan::IndexScan { .. } => Vec::new(),
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => vec![input],
            Plan::Distinct(input) | Plan::Conf(input) => vec![input],
            Plan::IndexJoin { left, .. } => vec![left],
            Plan::Product { left, right }
            | Plan::EquiJoin { left, right, .. }
            | Plan::Union { left, right }
            | Plan::Difference { left, right } => vec![left, right],
        }
    }

    /// EXPLAIN-style rendering, one node per line with indentation.
    fn explain_into(&self, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let _ = writeln!(out, "{}{}", "  ".repeat(depth), self.label());
        for child in self.children() {
            child.explain_into(depth + 1, out);
        }
    }

    /// Human-readable plan tree (the engine's EXPLAIN).
    pub fn explain(&self) -> String {
        let mut s = String::new();
        self.explain_into(0, &mut s);
        s
    }

    /// The operator tree as a compact JSON document — node labels plus
    /// children, no estimates or timings. This is the *shape* that the
    /// plan-regression guard in the `fig6_queries` bench records and
    /// diffs across runs: two plans with equal `shape_json` apply the
    /// same operators in the same arrangement.
    pub fn shape_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        fn go(plan: &Plan, out: &mut String) {
            out.push_str("{\"op\":\"");
            out.push_str(&esc(&plan.label()));
            out.push_str("\",\"children\":[");
            for (i, c) in plan.children().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                go(c, out);
            }
            out.push_str("]}");
        }
        let mut s = String::new();
        go(self, &mut s);
        s
    }
}

impl std::fmt::Display for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.explain())
    }
}

/// Fluent plan construction.
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    plan: Plan,
}

impl PlanBuilder {
    pub fn scan(table: impl Into<String>) -> Self {
        PlanBuilder {
            plan: Plan::Scan(table.into()),
        }
    }

    pub fn select(self, predicate: ScalarExpr) -> Result<Self> {
        if !predicate.is_predicate() {
            return Err(PipError::Sql(format!(
                "WHERE clause must be a predicate, got {predicate:?}"
            )));
        }
        Ok(PlanBuilder {
            plan: Plan::Select {
                input: Box::new(self.plan),
                predicate,
            },
        })
    }

    pub fn project(self, exprs: Vec<(impl Into<String>, ScalarExpr)>) -> Self {
        PlanBuilder {
            plan: Plan::Project {
                input: Box::new(self.plan),
                exprs: exprs.into_iter().map(|(n, e)| (n.into(), e)).collect(),
            },
        }
    }

    pub fn product(self, right: PlanBuilder) -> Self {
        PlanBuilder {
            plan: Plan::Product {
                left: Box::new(self.plan),
                right: Box::new(right.plan),
            },
        }
    }

    pub fn equi_join(self, right: PlanBuilder, on: Vec<(&str, &str)>) -> Self {
        PlanBuilder {
            plan: Plan::EquiJoin {
                left: Box::new(self.plan),
                right: Box::new(right.plan),
                on: on
                    .into_iter()
                    .map(|(a, b)| (a.to_string(), b.to_string()))
                    .collect(),
            },
        }
    }

    pub fn union(self, right: PlanBuilder) -> Self {
        PlanBuilder {
            plan: Plan::Union {
                left: Box::new(self.plan),
                right: Box::new(right.plan),
            },
        }
    }

    pub fn distinct(self) -> Self {
        PlanBuilder {
            plan: Plan::Distinct(Box::new(self.plan)),
        }
    }

    pub fn difference(self, right: PlanBuilder) -> Self {
        PlanBuilder {
            plan: Plan::Difference {
                left: Box::new(self.plan),
                right: Box::new(right.plan),
            },
        }
    }

    pub fn aggregate(self, group_by: Vec<&str>, aggs: Vec<AggFunc>) -> Self {
        PlanBuilder {
            plan: Plan::Aggregate {
                input: Box::new(self.plan),
                group_by: group_by.into_iter().map(String::from).collect(),
                aggs,
            },
        }
    }

    pub fn conf(self) -> Self {
        PlanBuilder {
            plan: Plan::Conf(Box::new(self.plan)),
        }
    }

    /// Sort by `(column, descending)` keys.
    pub fn sort(self, keys: Vec<(&str, bool)>) -> Self {
        PlanBuilder {
            plan: Plan::Sort {
                input: Box::new(self.plan),
                keys: keys.into_iter().map(|(c, d)| (c.to_string(), d)).collect(),
            },
        }
    }

    pub fn limit(self, n: usize) -> Self {
        PlanBuilder {
            plan: Plan::Limit {
                input: Box::new(self.plan),
                n,
            },
        }
    }

    pub fn build(self) -> Plan {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_json_captures_structure_not_estimates() {
        let a = PlanBuilder::scan("t")
            .equi_join(PlanBuilder::scan("u"), vec![("k", "k")])
            .build();
        let s = a.shape_json();
        assert!(s.starts_with('{') && s.ends_with('}'), "{s}");
        assert!(s.contains("\"op\":\"EquiJoin: k=k\""), "{s}");
        assert!(s.contains("Scan: t") && s.contains("Scan: u"), "{s}");
        // Identical structure → identical shape; different join order →
        // different shape.
        let b = PlanBuilder::scan("t")
            .equi_join(PlanBuilder::scan("u"), vec![("k", "k")])
            .build();
        assert_eq!(s, b.shape_json());
        let c = PlanBuilder::scan("u")
            .equi_join(PlanBuilder::scan("t"), vec![("k", "k")])
            .build();
        assert_ne!(s, c.shape_json());
    }

    #[test]
    fn builder_composes() {
        let plan = PlanBuilder::scan("orders")
            .select(ScalarExpr::col("price").gt(ScalarExpr::lit(5.0)))
            .unwrap()
            .project(vec![("p", ScalarExpr::col("price"))])
            .build();
        match plan {
            Plan::Project { input, exprs } => {
                assert_eq!(exprs[0].0, "p");
                assert!(matches!(*input, Plan::Select { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn select_requires_predicate() {
        let r = PlanBuilder::scan("t").select(ScalarExpr::lit(1i64));
        assert!(r.is_err());
    }

    #[test]
    fn expr_builders() {
        let e = ScalarExpr::col("a")
            .mul(ScalarExpr::lit(2.0))
            .add(ScalarExpr::lit(1.0));
        assert!(matches!(e, ScalarExpr::Binary { op: BinOp::Add, .. }));
        let p = ScalarExpr::col("a")
            .gt(ScalarExpr::lit(0.0))
            .and(ScalarExpr::col("b").le(ScalarExpr::lit(9.0)));
        assert!(p.is_predicate());
        match p {
            ScalarExpr::And(v) => assert_eq!(v.len(), 2),
            _ => panic!(),
        }
    }

    #[test]
    fn agg_output_names() {
        assert_eq!(
            AggFunc::ExpectedSum("x".into()).output_name(),
            "expected_sum(x)"
        );
        assert_eq!(AggFunc::ExpectedCount.output_name(), "expected_count(*)");
        assert_eq!(AggFunc::Conf.output_name(), "conf()");
    }
}
