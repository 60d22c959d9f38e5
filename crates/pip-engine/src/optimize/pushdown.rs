//! Pass 1: predicate pushdown, select fusion and join-key fusion.

use pip_core::{Result, Schema};
use pip_expr::CmpOp;

use super::{columns_of, conjuncts, plan_schema, rebuild};
use crate::catalog::Database;
use crate::plan::{Plan, ScalarExpr};

/// The predicate-pushdown / select-fusion pass alone (no reordering or
/// column pruning). Exposed so benchmarks can isolate what the
/// cost-based passes buy on top; [`super::optimize`] runs the full pipeline.
pub fn push_selects(db: &Database, plan: Plan) -> Result<Plan> {
    Ok(match plan {
        Plan::Select { input, predicate } => {
            let input = push_selects(db, *input)?;
            push_select(db, input, predicate)?
        }
        Plan::Project { input, exprs } => Plan::Project {
            input: Box::new(push_selects(db, *input)?),
            exprs,
        },
        Plan::Product { left, right } => Plan::Product {
            left: Box::new(push_selects(db, *left)?),
            right: Box::new(push_selects(db, *right)?),
        },
        Plan::EquiJoin { left, right, on } => Plan::EquiJoin {
            left: Box::new(push_selects(db, *left)?),
            right: Box::new(push_selects(db, *right)?),
            on,
        },
        Plan::Union { left, right } => Plan::Union {
            left: Box::new(push_selects(db, *left)?),
            right: Box::new(push_selects(db, *right)?),
        },
        Plan::Distinct(input) => Plan::Distinct(Box::new(push_selects(db, *input)?)),
        Plan::Difference { left, right } => Plan::Difference {
            left: Box::new(push_selects(db, *left)?),
            right: Box::new(push_selects(db, *right)?),
        },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => Plan::Aggregate {
            input: Box::new(push_selects(db, *input)?),
            group_by,
            aggs,
        },
        Plan::Conf(input) => Plan::Conf(Box::new(push_selects(db, *input)?)),
        Plan::Sort { input, keys } => Plan::Sort {
            input: Box::new(push_selects(db, *input)?),
            keys,
        },
        Plan::Limit { input, n } => Plan::Limit {
            input: Box::new(push_selects(db, *input)?),
            n,
        },
        leaf @ (Plan::Scan(_) | Plan::IndexScan { .. }) => leaf,
        // Access paths are chosen after pushdown; a pre-placed index
        // join only recurses (pushing a filter into the probe side
        // would change the access path behind the planner's back).
        Plan::IndexJoin {
            left,
            table,
            index,
            on,
        } => Plan::IndexJoin {
            left: Box::new(push_selects(db, *left)?),
            table,
            index,
            on,
        },
    })
}

/// Place `predicate` as low as possible over `input`.
fn push_select(db: &Database, input: Plan, predicate: ScalarExpr) -> Result<Plan> {
    match input {
        // Fuse Select(Select(x)) into one conjunction, then retry.
        Plan::Select {
            input: inner,
            predicate: inner_pred,
        } => {
            let combined = inner_pred.and(predicate);
            push_select(db, *inner, combined)
        }
        Plan::Product { left, right } => {
            push_through_binary(db, *left, *right, Vec::new(), predicate)
        }
        Plan::EquiJoin { left, right, on } => push_through_binary(db, *left, *right, on, predicate),
        other => Ok(Plan::Select {
            input: Box::new(other),
            predicate,
        }),
    }
}

/// Distribute conjuncts over a product (`on` empty) or an equi-join:
/// single-side ones go below it, the leading cross-side column
/// equalities of the rest become join keys, and what remains filters
/// above it.
///
/// A key `l = r` turns a product into an equi-join or extends an
/// equi-join's `on`, whatever the reorderer decides later. The rows and
/// row conditions stay those of filtering the product, because the hash
/// join visits candidates in build order and emits its key atoms `l = r`
/// before the filter above it adds its own. So only the *leading* run of
/// kept conjuncts fuses, only in written orientation (`r = l` would flip
/// the atom), and nothing fuses when a kept conjunct creates variables:
/// the join drops a row whose key atom simplifies to false before the
/// filter runs, where the filter would have allocated them first.
fn push_through_binary(
    db: &Database,
    left: Plan,
    right: Plan,
    mut on: Vec<(String, String)>,
    predicate: ScalarExpr,
) -> Result<Plan> {
    let l_schema = plan_schema(db, &left)?;
    let r_schema = plan_schema(db, &right)?;
    let has = |s: &Schema, c: &str| s.index_of(c).is_ok();

    let mut left_parts = Vec::new();
    let mut right_parts = Vec::new();
    let mut keep = Vec::new();
    for part in conjuncts(predicate) {
        let mut cols = Vec::new();
        columns_of(&part, &mut cols);
        let all_left = cols.iter().all(|c| has(&l_schema, c));
        // A column present on BOTH sides is ambiguous after the join
        // rename; only push when it binds unambiguously.
        let any_right = cols.iter().any(|c| has(&r_schema, c));
        let all_right = cols.iter().all(|c| has(&r_schema, c));
        let any_left = cols.iter().any(|c| has(&l_schema, c));
        if all_left && !any_right {
            left_parts.push(part);
        } else if all_right && !any_left {
            right_parts.push(part);
        } else {
            keep.push(part);
        }
    }
    if !keep.iter().any(creates_variables) {
        while let Some(pair) = keep.first().and_then(|p| key_pair(p, &l_schema, &r_schema)) {
            on.push(pair);
            keep.remove(0);
        }
    }

    let new_left = match rebuild(left_parts) {
        Some(p) => push_select(db, left, p)?,
        None => left,
    };
    let new_right = match rebuild(right_parts) {
        Some(p) => push_select(db, right, p)?,
        None => right,
    };
    let (left, right) = (Box::new(new_left), Box::new(new_right));
    let node = if on.is_empty() {
        Plan::Product { left, right }
    } else {
        Plan::EquiJoin { left, right, on }
    };
    Ok(match rebuild(keep) {
        Some(p) => Plan::Select {
            input: Box::new(node),
            predicate: p,
        },
        None => node,
    })
}

/// `(a, b)` when `part` is the column equality `a = b` with `a` bound
/// only by the left input and `b` only by the right one.
fn key_pair(part: &ScalarExpr, l: &Schema, r: &Schema) -> Option<(String, String)> {
    let ScalarExpr::Cmp {
        op: CmpOp::Eq,
        left,
        right,
    } = part
    else {
        return None;
    };
    let (ScalarExpr::Column(a), ScalarExpr::Column(b)) = (&**left, &**right) else {
        return None;
    };
    let has = |s: &Schema, c: &str| s.index_of(c).is_ok();
    if has(l, a) && !has(r, a) && has(r, b) && !has(l, b) {
        Some((a.clone(), b.clone()))
    } else {
        None
    }
}

/// True if evaluating `e` allocates a fresh random variable.
fn creates_variables(e: &ScalarExpr) -> bool {
    match e {
        ScalarExpr::CreateVariable { .. } => true,
        ScalarExpr::Column(_) | ScalarExpr::Literal(_) | ScalarExpr::Var(_) => false,
        ScalarExpr::Binary { left, right, .. } | ScalarExpr::Cmp { left, right, .. } => {
            creates_variables(left) || creates_variables(right)
        }
        ScalarExpr::Neg(e) => creates_variables(e),
        ScalarExpr::And(ps) => ps.iter().any(creates_variables),
    }
}
