//! Pass 4: required-column propagation.

use super::columns_of;
use crate::plan::{AggFunc, Plan, ScalarExpr};

/// The required-columns pass: narrow each `Project` to the outputs its
/// parent reads. The pass never inserts an operator.
pub(super) fn run(plan: Plan) -> Plan {
    prune_columns(plan, None)
}

/// Add `names` to a requirement set (`None` means "all columns").
fn require(req: &mut Option<Vec<String>>, names: &[String]) {
    if let Some(set) = req {
        for n in names {
            if !set.contains(n) {
                set.push(n.clone());
            }
        }
    }
}

/// Carry the set of columns read from above (`None`: every column) down
/// through the operators that read their input by column name
/// (`Aggregate`, `Project`, `Select`, `Sort`, `Limit`), and drop the
/// outputs of each `Project` on the way that nothing above reads.
///
/// The walk stops at every other operator and leaves its subtree as it
/// is: scans and joins emit whole rows, and `distinct`, `difference`,
/// `union` and `conf` compare every cell. The projections the SQL layer
/// and the join reorderer build all sit on the chain the walk follows.
fn prune_columns(plan: Plan, mut required: Option<Vec<String>>) -> Plan {
    match plan {
        Plan::Project { input, exprs } => {
            // A projection redefines the row: only its own inputs
            // matter — and only the outputs the parent needs survive.
            let exprs = match &required {
                Some(req) => {
                    let kept: Vec<(String, ScalarExpr)> = exprs
                        .iter()
                        .filter(|(n, _)| req.contains(n))
                        .cloned()
                        .collect();
                    if kept.is_empty() {
                        exprs
                    } else {
                        kept
                    }
                }
                None => exprs,
            };
            let mut cols = Vec::new();
            for (_, e) in &exprs {
                columns_of(e, &mut cols);
            }
            Plan::Project {
                input: Box::new(prune_columns(*input, Some(cols))),
                exprs,
            }
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let mut cols: Vec<String> = group_by.clone();
            for a in &aggs {
                if let AggFunc::ExpectedSum(c)
                | AggFunc::ExpectedAvg(c)
                | AggFunc::ExpectedMax { column: c, .. } = a
                {
                    if !cols.contains(c) {
                        cols.push(c.clone());
                    }
                }
            }
            Plan::Aggregate {
                input: Box::new(prune_columns(*input, Some(cols))),
                group_by,
                aggs,
            }
        }
        Plan::Select { input, predicate } => {
            let mut cols = Vec::new();
            columns_of(&predicate, &mut cols);
            require(&mut required, &cols);
            Plan::Select {
                input: Box::new(prune_columns(*input, required)),
                predicate,
            }
        }
        Plan::Sort { input, keys } => {
            let key_cols: Vec<String> = keys.iter().map(|(c, _)| c.clone()).collect();
            require(&mut required, &key_cols);
            Plan::Sort {
                input: Box::new(prune_columns(*input, required)),
                keys,
            }
        }
        Plan::Limit { input, n } => Plan::Limit {
            input: Box::new(prune_columns(*input, required)),
            n,
        },
        other => other,
    }
}
