//! Pass 2: cost-based join reordering.

use pip_core::Result;

use super::{conjuncts, plan_schema, rebuild, OptimizerConfig};
use crate::catalog::Database;
use crate::plan::{Plan, ScalarExpr};
use crate::stats;

/// The join-reordering pass; the identity unless `cfg.reorder_joins`.
pub(super) fn run(db: &Database, plan: Plan, cfg: &OptimizerConfig) -> Result<Plan> {
    if cfg.reorder_joins {
        reorder_pass(db, plan, cfg, true)
    } else {
        Ok(plan)
    }
}

/// True for nodes that belong to a join region: products, equi-joins,
/// and selects sitting directly on them (their conjuncts are the join
/// graph's edges).
fn is_region_node(plan: &Plan) -> bool {
    match plan {
        Plan::Product { .. } | Plan::EquiJoin { .. } => true,
        Plan::Select { input, .. } => is_region_node(input),
        _ => false,
    }
}

/// Recursive driver of the reorder pass: rewrite join regions where the
/// cost model approves, recurse everywhere else. `allow` is false below
/// any `Limit`: a limit keeps "the first n rows", so changing the row
/// order beneath it would change *which* rows survive — a semantic
/// change, not just an ordering one.
fn reorder_pass(db: &Database, plan: Plan, cfg: &OptimizerConfig, allow: bool) -> Result<Plan> {
    if allow && is_region_node(&plan) {
        reorder_region(db, plan, cfg)
    } else {
        reorder_children(db, plan, cfg, allow)
    }
}

/// Rebuild a non-region node with reordered children.
fn reorder_children(db: &Database, plan: Plan, cfg: &OptimizerConfig, allow: bool) -> Result<Plan> {
    Ok(match plan {
        leaf @ (Plan::Scan(_) | Plan::IndexScan { .. }) => leaf,
        Plan::IndexJoin {
            left,
            table,
            index,
            on,
        } => Plan::IndexJoin {
            left: Box::new(reorder_pass(db, *left, cfg, allow)?),
            table,
            index,
            on,
        },
        Plan::Select { input, predicate } => Plan::Select {
            input: Box::new(reorder_pass(db, *input, cfg, allow)?),
            predicate,
        },
        Plan::Project { input, exprs } => Plan::Project {
            input: Box::new(reorder_pass(db, *input, cfg, allow)?),
            exprs,
        },
        Plan::Product { left, right } => Plan::Product {
            left: Box::new(reorder_pass(db, *left, cfg, allow)?),
            right: Box::new(reorder_pass(db, *right, cfg, allow)?),
        },
        Plan::EquiJoin { left, right, on } => Plan::EquiJoin {
            left: Box::new(reorder_pass(db, *left, cfg, allow)?),
            right: Box::new(reorder_pass(db, *right, cfg, allow)?),
            on,
        },
        Plan::Union { left, right } => Plan::Union {
            left: Box::new(reorder_pass(db, *left, cfg, allow)?),
            right: Box::new(reorder_pass(db, *right, cfg, allow)?),
        },
        Plan::Distinct(input) => Plan::Distinct(Box::new(reorder_pass(db, *input, cfg, allow)?)),
        Plan::Difference { left, right } => Plan::Difference {
            left: Box::new(reorder_pass(db, *left, cfg, allow)?),
            right: Box::new(reorder_pass(db, *right, cfg, allow)?),
        },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => Plan::Aggregate {
            input: Box::new(reorder_pass(db, *input, cfg, allow)?),
            group_by,
            aggs,
        },
        Plan::Conf(input) => Plan::Conf(Box::new(reorder_pass(db, *input, cfg, allow)?)),
        Plan::Sort { input, keys } => Plan::Sort {
            input: Box::new(reorder_pass(db, *input, cfg, allow)?),
            keys,
        },
        Plan::Limit { input, n } => Plan::Limit {
            input: Box::new(reorder_pass(db, *input, cfg, false)?),
            n,
        },
    })
}

/// Flatten one join region into its leaf plans and predicate conjuncts.
/// `EquiJoin` key pairs are re-expressed as equality conjuncts so the
/// classifier sees one uniform edge list.
fn flatten_region(plan: Plan, leaves: &mut Vec<Plan>, preds: &mut Vec<ScalarExpr>) {
    match plan {
        Plan::Product { left, right } => {
            flatten_region(*left, leaves, preds);
            flatten_region(*right, leaves, preds);
        }
        Plan::EquiJoin { left, right, on } => {
            flatten_region(*left, leaves, preds);
            flatten_region(*right, leaves, preds);
            for (a, b) in on {
                preds.push(ScalarExpr::col(a).eq(ScalarExpr::col(b)));
            }
        }
        Plan::Select { input, predicate } if is_region_node(&input) => {
            flatten_region(*input, leaves, preds);
            preds.extend(conjuncts(predicate));
        }
        leaf => leaves.push(leaf),
    }
}

/// Rebuild the original region structure around (recursively reordered)
/// leaves, consumed in written order — the bail-out path that keeps the
/// written plan bit-for-bit.
fn rebuild_written(plan: &Plan, leaves: &mut std::vec::IntoIter<Plan>) -> Plan {
    match plan {
        Plan::Product { left, right } => {
            let l = rebuild_written(left, leaves);
            let r = rebuild_written(right, leaves);
            Plan::Product {
                left: Box::new(l),
                right: Box::new(r),
            }
        }
        Plan::EquiJoin { left, right, on } => {
            let l = rebuild_written(left, leaves);
            let r = rebuild_written(right, leaves);
            Plan::EquiJoin {
                left: Box::new(l),
                right: Box::new(r),
                on: on.clone(),
            }
        }
        Plan::Select { input, predicate } if is_region_node(input) => Plan::Select {
            input: Box::new(rebuild_written(input, leaves)),
            predicate: predicate.clone(),
        },
        _ => leaves.next().expect("one leaf per flattened slot"),
    }
}

/// An equality edge of the join graph, between columns of two leaves.
struct JoinEdge {
    a_leaf: usize,
    a_col: String,
    b_leaf: usize,
    b_col: String,
}

/// Try to reorder one join region; falls back to the written order when
/// column names are ambiguous, estimation fails, or the cost model does
/// not approve the rewrite.
fn reorder_region(db: &Database, plan: Plan, cfg: &OptimizerConfig) -> Result<Plan> {
    let shape = plan.clone();
    let mut leaves = Vec::new();
    let mut preds = Vec::new();
    flatten_region(plan, &mut leaves, &mut preds);
    // Reorder below the leaves first (a leaf may hide a region under a
    // blocking operator, e.g. an aggregate subquery).
    let leaves: Vec<Plan> = leaves
        .into_iter()
        .map(|l| reorder_pass(db, l, cfg, true))
        .collect::<Result<_>>()?;

    let written = |leaves: Vec<Plan>| -> Plan {
        let mut it = leaves.into_iter();
        rebuild_written(&shape, &mut it)
    };

    // Leaf schemas; every column name must bind to exactly one leaf,
    // otherwise join renames make the region impossible to rebuild
    // faithfully and we keep the written order.
    let mut schemas = Vec::with_capacity(leaves.len());
    for leaf in &leaves {
        schemas.push(plan_schema(db, leaf)?);
    }
    let mut owner: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for (i, s) in schemas.iter().enumerate() {
        for c in s.columns() {
            if owner.insert(c.name.as_str(), i).is_some() {
                return Ok(written(leaves));
            }
        }
    }

    // Classify conjuncts: two-leaf equality atoms are join edges, the
    // rest stays as a residual filter above the rebuilt tree.
    let mut edges: Vec<JoinEdge> = Vec::new();
    let mut residual: Vec<ScalarExpr> = Vec::new();
    for p in &preds {
        if let ScalarExpr::Cmp {
            op: pip_expr::CmpOp::Eq,
            left,
            right,
        } = p
        {
            if let (ScalarExpr::Column(a), ScalarExpr::Column(b)) = (&**left, &**right) {
                if let (Some(&la), Some(&lb)) = (owner.get(a.as_str()), owner.get(b.as_str())) {
                    if la != lb {
                        edges.push(JoinEdge {
                            a_leaf: la,
                            a_col: a.clone(),
                            b_leaf: lb,
                            b_col: b.clone(),
                        });
                        continue;
                    }
                }
            }
        }
        residual.push(p.clone());
    }

    // Estimates per leaf; estimation failure keeps the written order.
    let mut leaf_rows = Vec::with_capacity(leaves.len());
    for leaf in &leaves {
        match stats::estimate(db, leaf) {
            Ok(e) => leaf_rows.push(e.rows),
            Err(_) => return Ok(written(leaves)),
        }
    }

    let n = leaves.len();
    let mut in_tree = vec![false; n];

    // Key pairs between the current tree and a candidate leaf, oriented
    // (tree column, leaf column).
    let on_pairs = |in_tree: &[bool], leaf: usize| -> Vec<(String, String)> {
        edges
            .iter()
            .filter_map(|e| {
                if in_tree[e.a_leaf] && e.b_leaf == leaf {
                    Some((e.a_col.clone(), e.b_col.clone()))
                } else if in_tree[e.b_leaf] && e.a_leaf == leaf {
                    Some((e.b_col.clone(), e.a_col.clone()))
                } else {
                    None
                }
            })
            .collect()
    };
    let join_with = |acc: &Plan, leaf: &Plan, on: Vec<(String, String)>| -> Plan {
        if on.is_empty() {
            Plan::Product {
                left: Box::new(acc.clone()),
                right: Box::new(leaf.clone()),
            }
        } else {
            Plan::EquiJoin {
                left: Box::new(acc.clone()),
                right: Box::new(leaf.clone()),
                on,
            }
        }
    };

    // Seed the left-deep tree with the connected pair of smallest
    // estimated join output — a disconnected (cross-product) seed may
    // look tiny but forces a larger table onto a build side later, so
    // products are only considered when the region has no edges at all.
    // Written orientation (lower index left) is preferred on near-ties:
    // probe order is what downstream row order follows.
    let connected = |i: usize, j: usize| {
        edges
            .iter()
            .any(|e| (e.a_leaf == i && e.b_leaf == j) || (e.a_leaf == j && e.b_leaf == i))
    };
    let mut best: Option<(f64, usize, usize)> = None;
    for i in 0..n {
        for j in 0..n {
            if i == j || (!edges.is_empty() && !connected(i, j)) {
                continue;
            }
            let mut tree = vec![false; n];
            tree[i] = true;
            let candidate = join_with(&leaves[i], &leaves[j], on_pairs(&tree, j));
            let Ok(est) = stats::estimate(db, &candidate) else {
                return Ok(written(leaves));
            };
            // Prefer written orientation on near-ties: penalize flipped
            // pairs slightly so i < j wins unless the flip is a real win.
            let tie_bias = if i < j { 1.0 } else { 1.001 };
            let score = (est.rows + leaf_rows[j]) * tie_bias;
            if best.map(|(s, _, _)| score < s).unwrap_or(true) {
                best = Some((score, i, j));
            }
        }
    }
    let Some((_, first, second)) = best else {
        return Ok(written(leaves));
    };
    let mut order = vec![first, second];
    in_tree[first] = true;
    let mut acc = {
        let on = on_pairs(&in_tree, second);
        in_tree[second] = true;
        join_with(&leaves[first], &leaves[second], on)
    };

    // Extend greedily: next leaf = smallest estimated join output,
    // preferring connected leaves over cross products.
    type Step = (f64, usize, Vec<(String, String)>);
    while order.len() < n {
        let mut best: Option<Step> = None;
        for (j, leaf) in leaves.iter().enumerate() {
            if in_tree[j] {
                continue;
            }
            let on = on_pairs(&in_tree, j);
            let candidate = join_with(&acc, leaf, on.clone());
            let Ok(est) = stats::estimate(db, &candidate) else {
                return Ok(written(leaves));
            };
            // A disconnected leaf products with everything: its estimate
            // already reflects the blow-up, no extra penalty needed.
            if best.as_ref().map(|(s, _, _)| est.rows < *s).unwrap_or(true) {
                best = Some((est.rows, j, on));
            }
        }
        let (_, j, on) = best.expect("at least one unused leaf");
        acc = join_with(&acc, &leaves[j], on);
        in_tree[j] = true;
        order.push(j);
    }

    // Residual (non-equi / single-leaf) conjuncts filter above the tree.
    if let Some(pred) = rebuild(residual) {
        acc = Plan::Select {
            input: Box::new(acc),
            predicate: pred,
        };
    }

    // Restore the written column order when the leaf sequence changed.
    let written_order: Vec<usize> = (0..n).collect();
    if order != written_order {
        let orig_cols: Vec<String> = (0..n)
            .flat_map(|i| schemas[i].columns().iter().map(|c| c.name.clone()))
            .collect();
        acc = Plan::Project {
            input: Box::new(acc),
            exprs: orig_cols
                .into_iter()
                .map(|c| (c.clone(), ScalarExpr::col(c)))
                .collect(),
        };
    }

    // Adopt only on a clear estimated win over the written order.
    let written_plan = written(leaves);
    let old_cost = stats::plan_cost(db, &written_plan, cfg.target, &cfg.cost)?;
    let new_cost = stats::plan_cost(db, &acc, cfg.target, &cfg.cost)?;
    if new_cost < old_cost * cfg.reorder_margin {
        Ok(acc)
    } else {
        Ok(written_plan)
    }
}
