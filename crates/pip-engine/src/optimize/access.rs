//! Pass 3: cost-based access-path selection over secondary indexes.

use pip_core::{Result, Value};
use pip_expr::CmpOp;

use super::{conjuncts, OptimizerConfig};
use crate::catalog::Database;
use crate::plan::{Plan, ScalarExpr};
use crate::stats;

/// The access-path pass; the identity unless `cfg.use_indexes`.
pub(super) fn run(db: &Database, plan: Plan, cfg: &OptimizerConfig) -> Result<Plan> {
    if cfg.use_indexes {
        choose_access_paths(db, plan)
    } else {
        Ok(plan)
    }
}

/// One inclusive/exclusive bound of an index seek range.
type Bound = Option<(Value, bool)>;

/// The access-path pass: bottom-up over the plan, rewriting
/// `Select(Scan)` to [`Plan::IndexScan`] and `EquiJoin(_, Scan)` to
/// [`Plan::IndexJoin`] wherever an index applies *and* wins on cost.
/// Both candidates keep the exact semantics (the full predicate is
/// re-applied as a residual; the join re-checks every key pair), so the
/// rewrite is always safe — the cost gate is purely about speed.
fn choose_access_paths(db: &Database, plan: Plan) -> Result<Plan> {
    Ok(match plan {
        leaf @ (Plan::Scan(_) | Plan::IndexScan { .. }) => leaf,
        Plan::Select { input, predicate } => {
            let input = choose_access_paths(db, *input)?;
            if let Plan::Scan(table) = &input {
                if let Some(better) = index_scan_candidate(db, table, &predicate)? {
                    return Ok(better);
                }
            }
            Plan::Select {
                input: Box::new(input),
                predicate,
            }
        }
        Plan::EquiJoin { left, right, on } => {
            let left = choose_access_paths(db, *left)?;
            let right = choose_access_paths(db, *right)?;
            if let Plan::Scan(table) = &right {
                if let Some(better) = index_join_candidate(db, &left, table, &on)? {
                    return Ok(better);
                }
            }
            Plan::EquiJoin {
                left: Box::new(left),
                right: Box::new(right),
                on,
            }
        }
        Plan::IndexJoin {
            left,
            table,
            index,
            on,
        } => Plan::IndexJoin {
            left: Box::new(choose_access_paths(db, *left)?),
            table,
            index,
            on,
        },
        Plan::Project { input, exprs } => Plan::Project {
            input: Box::new(choose_access_paths(db, *input)?),
            exprs,
        },
        Plan::Product { left, right } => Plan::Product {
            left: Box::new(choose_access_paths(db, *left)?),
            right: Box::new(choose_access_paths(db, *right)?),
        },
        Plan::Union { left, right } => Plan::Union {
            left: Box::new(choose_access_paths(db, *left)?),
            right: Box::new(choose_access_paths(db, *right)?),
        },
        Plan::Distinct(input) => Plan::Distinct(Box::new(choose_access_paths(db, *input)?)),
        Plan::Difference { left, right } => Plan::Difference {
            left: Box::new(choose_access_paths(db, *left)?),
            right: Box::new(choose_access_paths(db, *right)?),
        },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => Plan::Aggregate {
            input: Box::new(choose_access_paths(db, *input)?),
            group_by,
            aggs,
        },
        Plan::Conf(input) => Plan::Conf(Box::new(choose_access_paths(db, *input)?)),
        Plan::Sort { input, keys } => Plan::Sort {
            input: Box::new(choose_access_paths(db, *input)?),
            keys,
        },
        Plan::Limit { input, n } => Plan::Limit {
            input: Box::new(choose_access_paths(db, *input)?),
            n,
        },
    })
}

/// Flip a comparison so the column lands on the left.
fn flip_cmp(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        eq => eq,
    }
}

/// Tighten a lower bound: keep the greater value; at equal values an
/// exclusive bound is the stricter one.
fn tighten_lo(lo: &mut Bound, value: Value, inclusive: bool) {
    let stricter = match lo {
        None => true,
        Some((cur, cur_incl)) => match value.cmp_total(cur) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Equal => *cur_incl && !inclusive,
            std::cmp::Ordering::Less => false,
        },
    };
    if stricter {
        *lo = Some((value, inclusive));
    }
}

/// Tighten an upper bound: keep the smaller value; at equal values an
/// exclusive bound is the stricter one.
fn tighten_hi(hi: &mut Bound, value: Value, inclusive: bool) {
    let stricter = match hi {
        None => true,
        Some((cur, cur_incl)) => match value.cmp_total(cur) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Equal => *cur_incl && !inclusive,
            std::cmp::Ordering::Greater => false,
        },
    };
    if stricter {
        *hi = Some((value, inclusive));
    }
}

/// Extract the seek range the predicate's sargable conjuncts impose on
/// `column` — `column θ literal` comparisons against numeric literals.
/// `None` when no conjunct constrains the column at all (an unbounded
/// index scan never beats the sequential scan).
fn sargable_bounds(parts: &[ScalarExpr], column: &str) -> Option<(Bound, Bound)> {
    let mut lo: Bound = None;
    let mut hi: Bound = None;
    let mut any = false;
    for p in parts {
        let ScalarExpr::Cmp { op, left, right } = p else {
            continue;
        };
        let (op, value) = match (&**left, &**right) {
            (ScalarExpr::Column(c), ScalarExpr::Literal(v)) if c == column => (*op, v.clone()),
            (ScalarExpr::Literal(v), ScalarExpr::Column(c)) if c == column => {
                (flip_cmp(*op), v.clone())
            }
            _ => continue,
        };
        if !matches!(value, Value::Int(_) | Value::Float(_)) {
            continue;
        }
        match op {
            CmpOp::Eq => {
                tighten_lo(&mut lo, value.clone(), true);
                tighten_hi(&mut hi, value, true);
                any = true;
            }
            CmpOp::Lt => {
                tighten_hi(&mut hi, value, false);
                any = true;
            }
            CmpOp::Le => {
                tighten_hi(&mut hi, value, true);
                any = true;
            }
            CmpOp::Gt => {
                tighten_lo(&mut lo, value, false);
                any = true;
            }
            CmpOp::Ge => {
                tighten_lo(&mut lo, value, true);
                any = true;
            }
            CmpOp::Ne => {}
        }
    }
    if any {
        Some((lo, hi))
    } else {
        None
    }
}

/// Build the cheapest applicable [`Plan::IndexScan`] over `table` for
/// `predicate`, returning it only when it beats the sequential
/// `Select(Scan)` on estimated cost.
fn index_scan_candidate(
    db: &Database,
    table: &str,
    predicate: &ScalarExpr,
) -> Result<Option<Plan>> {
    let indexes = db.indexes_on(table);
    if indexes.is_empty() {
        return Ok(None);
    }
    let parts = conjuncts(predicate.clone());
    let mut best: Option<(f64, Plan)> = None;
    for (iname, entry) in indexes {
        let Some((lo, hi)) = sargable_bounds(&parts, &entry.column) else {
            continue;
        };
        let candidate = Plan::IndexScan {
            table: table.to_string(),
            index: iname,
            column: entry.column.clone(),
            lo,
            hi,
            predicate: predicate.clone(),
        };
        let cost = stats::plan_cost(db, &candidate)?;
        if best.as_ref().map(|(c, _)| cost < *c).unwrap_or(true) {
            best = Some((cost, candidate));
        }
    }
    let Some((cost, candidate)) = best else {
        return Ok(None);
    };
    let sequential = Plan::Select {
        input: Box::new(Plan::Scan(table.to_string())),
        predicate: predicate.clone(),
    };
    let seq_cost = stats::plan_cost(db, &sequential)?;
    Ok(if cost < seq_cost {
        Some(candidate)
    } else {
        None
    })
}

/// Build an [`Plan::IndexJoin`] probing `table` through an index on one
/// of the join's probe-side key columns, returning it only when it
/// beats the hash join on estimated cost.
fn index_join_candidate(
    db: &Database,
    left: &Plan,
    table: &str,
    on: &[(String, String)],
) -> Result<Option<Plan>> {
    let Some((iname, _)) = db
        .indexes_on(table)
        .into_iter()
        .find(|(_, e)| on.iter().any(|(_, r)| r == &e.column))
    else {
        return Ok(None);
    };
    let candidate = Plan::IndexJoin {
        left: Box::new(left.clone()),
        table: table.to_string(),
        index: iname,
        on: on.to_vec(),
    };
    let hash = Plan::EquiJoin {
        left: Box::new(left.clone()),
        right: Box::new(Plan::Scan(table.to_string())),
        on: on.to_vec(),
    };
    let index_cost = stats::plan_cost(db, &candidate)?;
    let hash_cost = stats::plan_cost(db, &hash)?;
    Ok(if index_cost < hash_cost {
        Some(candidate)
    } else {
        None
    })
}
