//! Pass 4: cost-gated projection pushdown.

use pip_core::{Result, Schema};

use super::{columns_of, plan_schema, OptimizerConfig, PruneMode};
use crate::catalog::Database;
use crate::plan::{Plan, ScalarExpr};
use crate::stats::{self, ExecTarget};

/// The projection-pushdown pass; the identity under [`PruneMode::Never`].
pub(super) fn run(db: &Database, plan: Plan, cfg: &OptimizerConfig) -> Result<Plan> {
    match cfg.prune {
        PruneMode::Never => Ok(plan),
        _ => prune_columns(db, plan, None, 0.0, cfg),
    }
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

/// Expected number of times one input-side row's cells are cloned by the
/// operators above the current position (`mult`), updated as the pass
/// descends. The scan-level gate compares the cells saved against the
/// cost of the extra projection stage; per scanned row:
/// `saved = dropped_cols × cell_cost × mult` vs
/// `stage = row_cost + cell_cost × kept_cols`.
fn scan_prune_pays(cfg: &OptimizerConfig, dropped: usize, kept: usize, mult: f64) -> bool {
    match cfg.prune {
        PruneMode::Never => false,
        PruneMode::Always => dropped > 0,
        PruneMode::CostBased => {
            dropped as f64 * cfg.cost.cell_cost * mult
                > cfg.cost.row_cost + cfg.cost.cell_cost * kept as f64
        }
    }
}

/// The projection-pushdown pass: propagate the set of columns each node
/// actually needs downward and wrap base-table scans whose schema is a
/// strict superset in a narrow column projection — where the cost gate
/// approves (see [`scan_prune_pays`]).
///
/// `required = None` means every column is needed. The pass is
/// deliberately conservative: nodes whose semantics depend on the whole
/// row (`distinct`, `difference`, `union`, `conf`) reset the requirement
/// to "all", as does any column name that does not bind unambiguously to
/// exactly one side of a product/join (e.g. post-join `.right` renames).
fn prune_columns(
    db: &Database,
    plan: Plan,
    required: Option<Vec<String>>,
    mult: f64,
    cfg: &OptimizerConfig,
) -> Result<Plan> {
    let mat = cfg.target == ExecTarget::Materializing;
    Ok(match plan {
        Plan::Scan(name) => {
            let schema = db.table(&name)?.schema().clone();
            let keep: Vec<&pip_core::Column> = match &required {
                None => return Ok(Plan::Scan(name)),
                Some(req) => schema
                    .columns()
                    .iter()
                    .filter(|c| req.contains(&c.name))
                    .collect(),
            };
            let dropped = schema.len() - keep.len();
            if keep.is_empty() || !scan_prune_pays(cfg, dropped, keep.len(), mult) {
                return Ok(Plan::Scan(name));
            }
            Plan::Project {
                input: Box::new(Plan::Scan(name)),
                exprs: keep
                    .into_iter()
                    .map(|c| (c.name.clone(), ScalarExpr::col(c.name.clone())))
                    .collect(),
            }
        }
        // Access paths are final: an index scan emits whole base rows,
        // and the index join's probe side must stay unwrapped, so the
        // pass only recurses conservatively.
        leaf @ Plan::IndexScan { .. } => leaf,
        Plan::IndexJoin {
            left,
            table,
            index,
            on,
        } => Plan::IndexJoin {
            left: Box::new(prune_columns(db, *left, None, mult, cfg)?),
            table,
            index,
            on,
        },
        Plan::Select { input, predicate } => {
            let mut req = required;
            let mut cols = Vec::new();
            columns_of(&predicate, &mut cols);
            require(&mut req, &cols);
            // The materializing interpreter clones every kept row.
            let child_mult = if mat { mult + 1.0 } else { mult };
            Plan::Select {
                input: Box::new(prune_columns(db, *input, req, child_mult, cfg)?),
                predicate,
            }
        }
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
            // Dead columns die at this projection for free: clone
            // counting below restarts at zero.
            Plan::Project {
                input: Box::new(prune_columns(db, *input, Some(cols), 0.0, cfg)?),
                exprs,
            }
        }
        Plan::Product { left, right } => {
            let (l_req, r_req) = split_requirement(db, &left, &right, required, &[])?;
            // Every pair clones both sides' cells (output = l × r), so
            // each side's per-row fan-out is the other side's rows.
            let l_rows = stats::estimate(db, &left).map(|e| e.rows).unwrap_or(1.0);
            let r_rows = stats::estimate(db, &right).map(|e| e.rows).unwrap_or(1.0);
            let l_mult = r_rows * (1.0 + mult);
            let r_mult = l_rows * (1.0 + mult);
            Plan::Product {
                left: Box::new(prune_columns(db, *left, l_req, l_mult, cfg)?),
                right: Box::new(prune_columns(db, *right, r_req, r_mult, cfg)?),
            }
        }
        Plan::EquiJoin { left, right, on } => {
            let (l_req, r_req) = split_requirement(db, &left, &right, required, &on)?;
            // Pipelined join: each side's cells are cloned once per
            // *matching* output row (fan-out = other rows × key
            // selectivity, via build-order candidate probing).
            // Materializing join: product-then-select clones each side
            // once per *pair* first, then clones survivors again.
            let l_rows = stats::estimate(db, &left).map(|e| e.rows).unwrap_or(1.0);
            let r_rows = stats::estimate(db, &right).map(|e| e.rows).unwrap_or(1.0);
            let sel = stats::equijoin_selectivity(db, &left, &right, &on);
            let (f_l, f_r) = (r_rows * sel, l_rows * sel);
            let (l_mult, r_mult) = if mat {
                (r_rows + f_l * (1.0 + mult), l_rows + f_r * (1.0 + mult))
            } else {
                (f_l * (1.0 + mult), f_r * (1.0 + mult))
            };
            Plan::EquiJoin {
                left: Box::new(prune_columns(db, *left, l_req, l_mult, cfg)?),
                right: Box::new(prune_columns(db, *right, r_req, r_mult, cfg)?),
                on,
            }
        }
        // Positional (union/difference) and whole-row (distinct/conf)
        // semantics: every column stays live.
        Plan::Union { left, right } => Plan::Union {
            left: Box::new(prune_columns(db, *left, None, mult, cfg)?),
            right: Box::new(prune_columns(db, *right, None, mult, cfg)?),
        },
        Plan::Difference { left, right } => Plan::Difference {
            left: Box::new(prune_columns(db, *left, None, mult, cfg)?),
            right: Box::new(prune_columns(db, *right, None, mult, cfg)?),
        },
        Plan::Distinct(input) => {
            Plan::Distinct(Box::new(prune_columns(db, *input, None, mult, cfg)?))
        }
        Plan::Conf(input) => Plan::Conf(Box::new(prune_columns(db, *input, None, mult, cfg)?)),
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let mut cols: Vec<String> = group_by.clone();
            for a in &aggs {
                if let crate::plan::AggFunc::ExpectedSum(c)
                | crate::plan::AggFunc::ExpectedAvg(c)
                | crate::plan::AggFunc::ExpectedMax { column: c, .. } = a
                {
                    if !cols.contains(c) {
                        cols.push(c.clone());
                    }
                }
            }
            // Group partitioning clones each row once; dead columns die
            // inside the head.
            Plan::Aggregate {
                input: Box::new(prune_columns(db, *input, Some(cols), 1.0, cfg)?),
                group_by,
                aggs,
            }
        }
        Plan::Sort { input, keys } => {
            let mut req = required;
            let key_cols: Vec<String> = keys.iter().map(|(c, _)| c.clone()).collect();
            require(&mut req, &key_cols);
            // Blocking: buffered rows replay through a clone.
            Plan::Sort {
                input: Box::new(prune_columns(db, *input, req, mult + 1.0, cfg)?),
                keys,
            }
        }
        Plan::Limit { input, n } => Plan::Limit {
            input: Box::new(prune_columns(db, *input, required, mult, cfg)?),
            n,
        },
    })
}

/// Attribute a requirement set to the two sides of a product/join. Any
/// name that does not bind to exactly one side (absent, or present on
/// both — it would be `.right`-renamed in the joined schema) makes the
/// split bail out to "all columns" on both sides.
#[allow(clippy::type_complexity)]
fn split_requirement(
    db: &Database,
    left: &Plan,
    right: &Plan,
    required: Option<Vec<String>>,
    on: &[(String, String)],
) -> Result<(Option<Vec<String>>, Option<Vec<String>>)> {
    let Some(req) = required else {
        return Ok((None, None));
    };
    let l_schema = plan_schema(db, left)?;
    let r_schema = plan_schema(db, right)?;
    let has = |s: &Schema, c: &str| s.index_of(c).is_ok();
    let mut l_req: Vec<String> = Vec::new();
    let mut r_req: Vec<String> = Vec::new();
    for name in req {
        match (has(&l_schema, &name), has(&r_schema, &name)) {
            (true, false) => l_req.push(name),
            (false, true) => r_req.push(name),
            _ => return Ok((None, None)), // ambiguous or unknown
        }
    }
    for (l, r) in on {
        if !l_req.contains(l) {
            l_req.push(l.clone());
        }
        if !r_req.contains(r) {
            r_req.push(r.clone());
        }
    }
    Ok((Some(l_req), Some(r_req)))
}
