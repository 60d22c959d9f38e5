//! Table statistics, cardinality estimation, and the plan cost model.
//!
//! The deterministic query phase is only cheap if the plan is good, and
//! plan quality should not depend on how the user wrote the query
//! (Section III-C leans on the host DBMS for exactly this). This module
//! supplies the three ingredients the cost-based passes in
//! [`crate::optimize`](mod@crate::optimize) consume:
//!
//! 1. **Statistics** ([`TableStats`] / [`ColumnStats`]): per-table row
//!    counts and per-column distinct-value estimates, min/max bounds,
//!    and — specific to c-tables — the *deterministic vs symbolic* cell
//!    split. A predicate over symbolic cells does not remove rows, it
//!    conjoins condition atoms, so its selectivity must be treated as 1
//!    for the symbolic fraction of a column.
//! 2. **Cardinality estimation** ([`estimate`]): selectivity rules for
//!    equality/range/conjunction and NDV-based join fan-out, applied
//!    over logical [`Plan`] nodes.
//! 3. **A cost model** ([`plan_cost`]) of the pipelined executor (fused
//!    σ/π stages, build/probe hash joins, index seeks).

use std::collections::HashSet;

use pip_core::{DataType, Result, Value};
use pip_ctable::{CRow, CTable};
use pip_expr::CmpOp;

use crate::catalog::Database;
use crate::optimize::plan_schema;
use crate::plan::{Plan, ScalarExpr};

/// Selectivity assumed for predicates the estimator cannot resolve to
/// column statistics (neither too optimistic nor row-preserving).
const DEFAULT_SELECTIVITY: f64 = 0.5;

/// Random-access penalty for index probes relative to a sequential
/// scan's per-row touch: candidate row ids come back in ascending order
/// but are not contiguous, so each fetch pays an extra indirection.
const INDEX_PROBE_COST: f64 = 1.5;

/// Bucket budget for per-column equi-depth histograms.
const HISTOGRAM_BUCKETS: usize = 32;

/// An equi-depth histogram over the deterministic numeric cells of one
/// column: `bounds` has one more entry than `counts`, bucket `i` covers
/// `[bounds[i], bounds[i+1]]` and holds `counts[i]` values. Buckets are
/// built to equal depth at `ANALYZE` time (so skew shows up as narrow
/// buckets, not mis-estimates); incremental INSERT maintenance bumps the
/// covering bucket in place and widens the edge bounds as needed, which
/// drifts toward unequal depth until the staleness threshold triggers a
/// rebuild.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub bounds: Vec<f64>,
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Build an equi-depth histogram over (up to `HISTOGRAM_BUCKETS`
    /// buckets of) the given values. Returns `None` for no values.
    /// Bucket boundaries never split a run of equal values, so
    /// `fraction_le(v)` is exact at every boundary value.
    pub fn equi_depth(mut values: Vec<f64>) -> Option<Histogram> {
        if values.is_empty() {
            return None;
        }
        values.sort_by(f64::total_cmp);
        let n = values.len();
        let b = HISTOGRAM_BUCKETS.min(n);
        let mut bounds = vec![values[0]];
        let mut counts = Vec::with_capacity(b);
        let mut start = 0usize;
        for i in 0..b {
            let mut end = ((i + 1) * n) / b;
            if end <= start {
                continue;
            }
            while end < n && values[end] == values[end - 1] {
                end += 1;
            }
            counts.push((end - start) as u64);
            bounds.push(values[end - 1]);
            start = end;
            if start >= n {
                break;
            }
        }
        Some(Histogram { bounds, counts })
    }

    /// Total values held.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Estimated fraction of values `<= x`, with linear interpolation
    /// inside the covering bucket.
    pub fn fraction_le(&self, x: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for (i, &cnt) in self.counts.iter().enumerate() {
            let lo = self.bounds[i];
            let hi = self.bounds[i + 1];
            if x >= hi {
                acc += cnt as f64;
                continue;
            }
            if x >= lo && hi > lo {
                acc += (x - lo) / (hi - lo) * cnt as f64;
            }
            break;
        }
        acc / total as f64
    }

    /// Incremental INSERT maintenance: count `x` in its covering bucket,
    /// widening the edge bounds when it falls outside the histogram.
    pub fn bump(&mut self, x: f64) {
        if self.counts.is_empty() {
            return;
        }
        if x < self.bounds[0] {
            self.bounds[0] = x;
            self.counts[0] += 1;
            return;
        }
        let last = self.bounds.len() - 1;
        if x > self.bounds[last] {
            self.bounds[last] = x;
            *self.counts.last_mut().expect("non-empty") += 1;
            return;
        }
        for i in 0..self.counts.len() {
            if x <= self.bounds[i + 1] {
                self.counts[i] += 1;
                return;
            }
        }
    }
}

/// Per-column statistics of one analyzed table.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    pub name: String,
    pub dtype: DataType,
    /// Cells holding a constant value.
    pub n_deterministic: u64,
    /// Cells holding a random-variable equation (opaque until sampling).
    pub n_symbolic: u64,
    /// Distinct-value estimate: distinct constants, plus each symbolic
    /// cell counted as potentially distinct (conservative).
    pub n_distinct: f64,
    /// Minimum over deterministic numeric cells.
    pub min: Option<f64>,
    /// Maximum over deterministic numeric cells.
    pub max: Option<f64>,
    /// Equi-depth histogram over deterministic numeric cells (absent
    /// when the column has none, or the statistics predate histograms).
    pub histogram: Option<Histogram>,
}

impl ColumnStats {
    /// Fraction of cells that are symbolic (0 when the table is empty).
    pub fn symbolic_fraction(&self) -> f64 {
        let total = self.n_deterministic + self.n_symbolic;
        if total == 0 {
            0.0
        } else {
            self.n_symbolic as f64 / total as f64
        }
    }
}

/// Statistics of one analyzed table snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    pub table: String,
    pub rows: u64,
    /// Rows carrying a non-trivial c-table condition.
    pub conditional_rows: u64,
    pub columns: Vec<ColumnStats>,
    /// Catalog version the statistics are valid at. A full collection
    /// stamps the version it scanned; cheap delta maintenance on insert
    /// re-stamps the entry at the post-insert version without rescanning.
    pub version: u64,
    /// Rows at the last *full* collection. `rows` may run ahead of this
    /// via delta maintenance; once the gap exceeds
    /// [`TableStats::COLUMN_STALENESS`], the per-column statistics are
    /// considered stale and the catalog recollects on demand.
    pub analyzed_rows: u64,
}

impl TableStats {
    /// Analyze a table snapshot: one full scan collecting row counts and
    /// per-column NDV, min/max and the deterministic/symbolic split.
    pub fn analyze(name: &str, table: &CTable, version: u64) -> TableStats {
        let mut columns: Vec<ColumnStats> = table
            .schema()
            .columns()
            .iter()
            .map(|c| ColumnStats {
                name: c.name.clone(),
                dtype: c.dtype,
                n_deterministic: 0,
                n_symbolic: 0,
                n_distinct: 0.0,
                min: None,
                max: None,
                histogram: None,
            })
            .collect();
        let mut distinct: Vec<HashSet<Value>> = vec![HashSet::new(); columns.len()];
        let mut numeric: Vec<Vec<f64>> = vec![Vec::new(); columns.len()];
        let mut conditional_rows = 0u64;
        for row in table.rows() {
            if !row.condition.is_trivially_true() {
                conditional_rows += 1;
            }
            for (i, cell) in row.cells.iter().enumerate() {
                let col = &mut columns[i];
                match cell.as_const() {
                    Some(v) => {
                        col.n_deterministic += 1;
                        distinct[i].insert(v.clone());
                        if let Ok(x) = v.as_f64() {
                            col.min = Some(col.min.map_or(x, |m| m.min(x)));
                            col.max = Some(col.max.map_or(x, |m| m.max(x)));
                            numeric[i].push(x);
                        }
                    }
                    None => col.n_symbolic += 1,
                }
            }
        }
        for ((col, seen), values) in columns.iter_mut().zip(&distinct).zip(numeric) {
            // Every symbolic cell may realize a distinct value.
            col.n_distinct = seen.len() as f64 + col.n_symbolic as f64;
            col.histogram = Histogram::equi_depth(values);
        }
        TableStats {
            table: name.to_string(),
            rows: table.len() as u64,
            conditional_rows,
            columns,
            version,
            analyzed_rows: table.len() as u64,
        }
    }

    /// Growth factor past which delta-maintained row counts no longer
    /// excuse the per-column statistics: beyond `rows >
    /// COLUMN_STALENESS × analyzed_rows` a full recollection runs.
    pub const COLUMN_STALENESS: f64 = 1.2;

    /// Cheap incremental maintenance for an `INSERT` of the given rows:
    /// bump the row counts, the per-column deterministic/symbolic split,
    /// min/max bounds and histogram bucket counts in place, and re-stamp
    /// the entry at the post-insert catalog version. NDV is left as
    /// collected (a fresh value is indistinguishable from a repeat
    /// without the full distinct set) —
    /// [`TableStats::columns_stale`] reports when the accumulated drift
    /// has grown past the recollection threshold.
    pub fn apply_insert(&self, added: &[CRow], version: u64) -> TableStats {
        let mut out = self.clone();
        out.version = version;
        out.rows += added.len() as u64;
        out.conditional_rows += added
            .iter()
            .filter(|r| !r.condition.is_trivially_true())
            .count() as u64;
        for row in added {
            for (i, cell) in row.cells.iter().enumerate() {
                let Some(col) = out.columns.get_mut(i) else {
                    continue;
                };
                match cell.as_const() {
                    Some(v) => {
                        col.n_deterministic += 1;
                        if let Ok(x) = v.as_f64() {
                            col.min = Some(col.min.map_or(x, |m| m.min(x)));
                            col.max = Some(col.max.map_or(x, |m| m.max(x)));
                            if let Some(h) = &mut col.histogram {
                                h.bump(x);
                            }
                        }
                    }
                    None => col.n_symbolic += 1,
                }
            }
        }
        out
    }

    /// True when enough rows arrived since the last full collection that
    /// the per-column statistics should not be trusted.
    pub fn columns_stale(&self) -> bool {
        self.rows as f64 > (self.analyzed_rows.max(1) as f64) * Self::COLUMN_STALENESS
    }

    /// Statistics for one column by name.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.iter().find(|c| c.name == name)
    }
}

// ---------------------------------------------------------------------
// Cardinality estimation.
// ---------------------------------------------------------------------

/// Estimated output shape of a plan node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEst {
    /// Estimated output rows.
    pub rows: f64,
    /// Output width in columns (exact, from the schema).
    pub width: f64,
}

/// A column of some sub-plan resolved back to base-table statistics.
#[derive(Debug, Clone)]
struct ColProfile {
    ndv: f64,
    min: Option<f64>,
    max: Option<f64>,
    sym_frac: f64,
    histogram: Option<Histogram>,
}

/// Base-table column statistics as a [`ColProfile`].
fn table_column_profile(db: &Database, table: &str, name: &str) -> Option<ColProfile> {
    let stats = db.table_stats(table).ok()?;
    let c = stats.column(name)?;
    Some(ColProfile {
        ndv: c.n_distinct.max(1.0),
        min: c.min,
        max: c.max,
        sym_frac: c.symbolic_fraction(),
        histogram: c.histogram.clone(),
    })
}

/// Resolve a column of `plan`'s output to base-table statistics by
/// walking through order/filter-preserving operators. Returns `None`
/// when the column is computed or renamed (e.g. post-join `.right`).
fn column_profile(db: &Database, plan: &Plan, name: &str) -> Option<ColProfile> {
    match plan {
        Plan::Scan(table) => table_column_profile(db, table, name),
        Plan::IndexScan { table, .. } => table_column_profile(db, table, name),
        Plan::IndexJoin { left, table, .. } => {
            let on_left = plan_schema(db, left)
                .map(|s| s.index_of(name).is_ok())
                .unwrap_or(false);
            if on_left {
                column_profile(db, left, name)
            } else {
                table_column_profile(db, table, name)
            }
        }
        Plan::Select { input, .. }
        | Plan::Distinct(input)
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. }
        | Plan::Conf(input) => column_profile(db, input, name),
        Plan::Project { input, exprs } => match exprs.iter().find(|(n, _)| n == name) {
            Some((_, ScalarExpr::Column(src))) => column_profile(db, input, src),
            _ => None,
        },
        Plan::Product { left, right } | Plan::EquiJoin { left, right, .. } => {
            let on_left = plan_schema(db, left)
                .map(|s| s.index_of(name).is_ok())
                .unwrap_or(false);
            if on_left {
                column_profile(db, left, name)
            } else {
                column_profile(db, right, name)
            }
        }
        Plan::Union { left, .. } => column_profile(db, left, name),
        Plan::Difference { left, .. } => column_profile(db, left, name),
        Plan::Aggregate {
            input, group_by, ..
        } => {
            if group_by.iter().any(|g| g == name) {
                column_profile(db, input, name)
            } else {
                None
            }
        }
    }
}

/// Fraction of the column's deterministic values selected by
/// `col θ value`: equi-depth histogram buckets when collected (robust
/// to skew), otherwise uniform interpolation over `[min, max]`.
fn range_fraction(op: CmpOp, profile: &ColProfile, value: f64) -> f64 {
    if let Some(h) = &profile.histogram {
        if h.total() > 0 {
            let frac = match op {
                CmpOp::Lt | CmpOp::Le => h.fraction_le(value),
                CmpOp::Gt | CmpOp::Ge => 1.0 - h.fraction_le(value),
                CmpOp::Eq | CmpOp::Ne => return DEFAULT_SELECTIVITY,
            };
            return frac.clamp(0.0, 1.0);
        }
    }
    let (Some(min), Some(max)) = (profile.min, profile.max) else {
        return DEFAULT_SELECTIVITY;
    };
    if !(max > min) {
        // Degenerate or unknown range: a point either matches or not.
        return DEFAULT_SELECTIVITY;
    }
    let frac = match op {
        CmpOp::Lt | CmpOp::Le => (value - min) / (max - min),
        CmpOp::Gt | CmpOp::Ge => (max - value) / (max - min),
        CmpOp::Eq | CmpOp::Ne => return DEFAULT_SELECTIVITY,
    };
    frac.clamp(0.0, 1.0)
}

/// Selectivity of one comparison conjunct against `input`'s output.
///
/// The symbolic fraction of a column always passes (a symbolic
/// comparison hoists into the row condition instead of dropping the
/// row); selectivity rules apply to the deterministic remainder only.
fn comparison_selectivity(
    db: &Database,
    input: &Plan,
    op: CmpOp,
    left: &ScalarExpr,
    right: &ScalarExpr,
) -> f64 {
    match (left, right) {
        (ScalarExpr::Column(c), ScalarExpr::Literal(v)) => {
            let Some(p) = column_profile(db, input, c) else {
                return DEFAULT_SELECTIVITY;
            };
            let det = 1.0 - p.sym_frac;
            let det_sel = match op {
                CmpOp::Eq => 1.0 / p.ndv.max(1.0),
                CmpOp::Ne => 1.0 - 1.0 / p.ndv.max(1.0),
                other => match v.as_f64() {
                    Ok(x) => range_fraction(other, &p, x),
                    Err(_) => DEFAULT_SELECTIVITY,
                },
            };
            p.sym_frac + det * det_sel
        }
        (ScalarExpr::Literal(_), ScalarExpr::Column(_)) => {
            // Flip `v θ col` to `col θ' v`.
            let flipped = match op {
                CmpOp::Lt => CmpOp::Gt,
                CmpOp::Le => CmpOp::Ge,
                CmpOp::Gt => CmpOp::Lt,
                CmpOp::Ge => CmpOp::Le,
                eq => eq,
            };
            comparison_selectivity(db, input, flipped, right, left)
        }
        (ScalarExpr::Column(a), ScalarExpr::Column(b)) => {
            let (Some(pa), Some(pb)) = (column_profile(db, input, a), column_profile(db, input, b))
            else {
                return DEFAULT_SELECTIVITY;
            };
            let sym = pa.sym_frac + pb.sym_frac - pa.sym_frac * pb.sym_frac;
            let det_sel = match op {
                CmpOp::Eq => 1.0 / pa.ndv.max(pb.ndv).max(1.0),
                CmpOp::Ne => 1.0 - 1.0 / pa.ndv.max(pb.ndv).max(1.0),
                _ => DEFAULT_SELECTIVITY,
            };
            sym + (1.0 - sym) * det_sel
        }
        _ => DEFAULT_SELECTIVITY,
    }
}

/// Selectivity of a full predicate: independence across conjuncts.
pub fn predicate_selectivity(db: &Database, input: &Plan, pred: &ScalarExpr) -> f64 {
    match pred {
        ScalarExpr::And(ps) => ps
            .iter()
            .map(|p| predicate_selectivity(db, input, p))
            .product::<f64>()
            .clamp(0.0, 1.0),
        ScalarExpr::Cmp { op, left, right } => {
            comparison_selectivity(db, input, *op, left, right).clamp(0.0, 1.0)
        }
        _ => DEFAULT_SELECTIVITY,
    }
}

/// Combined selectivity of an equi-join's key pairs between two
/// sub-plans (independence across pairs).
pub(crate) fn equijoin_selectivity(
    db: &Database,
    left: &Plan,
    right: &Plan,
    on: &[(String, String)],
) -> f64 {
    on.iter()
        .map(|(a, b)| join_pair_selectivity(db, left, right, a, b))
        .product::<f64>()
        .clamp(0.0, 1.0)
}

/// Selectivity of one equi-join key pair between two sub-plans.
fn join_pair_selectivity(db: &Database, left: &Plan, right: &Plan, l: &str, r: &str) -> f64 {
    let pl = column_profile(db, left, l);
    let pr = column_profile(db, right, r);
    let (Some(pl), Some(pr)) = (pl, pr) else {
        return DEFAULT_SELECTIVITY * DEFAULT_SELECTIVITY;
    };
    // Symbolic key cells match every row on the other side (the equality
    // hoists into a condition atom), so they keep the full cross term.
    let sym = pl.sym_frac + pr.sym_frac - pl.sym_frac * pr.sym_frac;
    (sym + (1.0 - sym) / pl.ndv.max(pr.ndv).max(1.0)).clamp(0.0, 1.0)
}

/// Estimate the output cardinality (and width) of a logical plan.
pub fn estimate(db: &Database, plan: &Plan) -> Result<PlanEst> {
    let width = plan_schema(db, plan)?.len() as f64;
    let rows = match plan {
        Plan::Scan(name) => db.table_stats(name)?.rows as f64,
        // Estimate-parity: an index access path must carry *exactly* the
        // estimate of the logical shape it replaces, so the cost-based
        // choice between them compares like with like.
        Plan::IndexScan {
            table, predicate, ..
        } => {
            let base = Plan::Scan(table.clone());
            db.table_stats(table)?.rows as f64 * predicate_selectivity(db, &base, predicate)
        }
        Plan::IndexJoin {
            left, table, on, ..
        } => {
            let base = Plan::Scan(table.clone());
            let l = estimate(db, left)?.rows;
            let r = estimate(db, &base)?.rows;
            l * r * equijoin_selectivity(db, left, &base, on)
        }
        Plan::Select { input, predicate } => {
            let in_est = estimate(db, input)?;
            in_est.rows * predicate_selectivity(db, input, predicate)
        }
        Plan::Project { input, .. } => estimate(db, input)?.rows,
        Plan::Product { left, right } => estimate(db, left)?.rows * estimate(db, right)?.rows,
        Plan::EquiJoin { left, right, on } => {
            let l = estimate(db, left)?.rows;
            let r = estimate(db, right)?.rows;
            l * r * equijoin_selectivity(db, left, right, on)
        }
        Plan::Union { left, right } => estimate(db, left)?.rows + estimate(db, right)?.rows,
        // Upper bound: duplicate elimination at least never grows.
        Plan::Distinct(input) => estimate(db, input)?.rows,
        Plan::Difference { left, .. } => estimate(db, left)?.rows,
        Plan::Aggregate {
            input, group_by, ..
        } => {
            let in_rows = estimate(db, input)?.rows;
            if group_by.is_empty() {
                1.0
            } else {
                let groups: f64 = group_by
                    .iter()
                    .map(|g| {
                        column_profile(db, input, g)
                            .map(|p| p.ndv)
                            .unwrap_or(in_rows)
                    })
                    .product();
                groups.min(in_rows).max(1.0_f64.min(in_rows))
            }
        }
        Plan::Conf(input) => estimate(db, input)?.rows,
        Plan::Sort { input, .. } => estimate(db, input)?.rows,
        Plan::Limit { input, n } => estimate(db, input)?.rows.min(*n as f64),
    };
    Ok(PlanEst {
        rows: rows.max(0.0),
        width,
    })
}

// ---------------------------------------------------------------------
// Cost model.
// ---------------------------------------------------------------------

/// Fixed per-row per-operator overhead, in abstract cost units: the
/// iterator call, per-expression schema lookups, a fresh cell vector
/// and a condition clone.
const ROW_COST: f64 = 24.0;

/// Price of cloning or materializing one cell. The *ratio* to
/// [`ROW_COST`] is what drives decisions; 24:1 was calibrated against
/// the fig6 join workload, where measurement shows an extra per-row
/// operator stage costs on the order of two dozen plain cell clones.
/// Join reordering and access-path selection weigh rows touched against
/// cells copied at this rate.
const CELL_COST: f64 = 1.0;

/// Estimated execution cost of a plan on the pipelined executor, in
/// the abstract units of `ROW_COST` and `CELL_COST`. Sampling-head
/// work is excluded: it depends on the sampling budget, not the plan
/// shape, and is identical across plan alternatives.
pub fn plan_cost(db: &Database, plan: &Plan) -> Result<f64> {
    Ok(cost_rec(db, plan)?.1)
}

/// Returns `(estimate, cumulative cost)` for one node.
fn cost_rec(db: &Database, plan: &Plan) -> Result<(PlanEst, f64)> {
    let est = estimate(db, plan)?;
    let (r, c) = (ROW_COST, CELL_COST);
    let cost = match plan {
        Plan::Scan(_) => est.rows * (r + c * est.width),
        Plan::IndexScan { table, .. } => {
            // Binary-search the ordered entries, then touch only the
            // estimated matches: each pays the random-access penalty for
            // the candidate fetch plus the residual predicate check and
            // the output clone. Competes against Select-over-Scan's
            // n·(2r + c·width)-ish full pass.
            let n = (db.table_stats(table)?.rows as f64).max(2.0);
            n.log2() * r + est.rows * INDEX_PROBE_COST * (2.0 * r + c * est.width)
        }
        Plan::IndexJoin { left, table, .. } => {
            // No build phase: each left row binary-searches the ordered
            // index, and every candidate pays the random-access penalty
            // before joining. Competes against HashJoin's build-n +
            // probe cost.
            let (l, lc) = cost_rec(db, left)?;
            let n = (db.table_stats(table)?.rows as f64).max(2.0);
            lc + l.rows * r * (1.0 + n.log2())
                + est.rows * INDEX_PROBE_COST * (r + c)
                + est.rows * (r + c * est.width)
        }
        Plan::Select { input, .. } => {
            let (in_est, in_cost) = cost_rec(db, input)?;
            // Predicate evaluation only: the row passes through.
            in_cost + in_est.rows * r
        }
        Plan::Project { input, exprs } => {
            let (in_est, in_cost) = cost_rec(db, input)?;
            in_cost + in_est.rows * (r + c * exprs.len() as f64)
        }
        Plan::Product { left, right } => {
            let (l, lc) = cost_rec(db, left)?;
            let (rr, rc) = cost_rec(db, right)?;
            // Every pair is visited; output rows clone both sides'
            // cells.
            lc + rc + l.rows * rr.rows * r + est.rows * (r + c * est.width)
        }
        Plan::EquiJoin { left, right, .. } => {
            let (l, lc) = cost_rec(db, left)?;
            let (rr, rc) = cost_rec(db, right)?;
            // build (right) + probe (left) + output.
            let join = rr.rows * (r + c) + l.rows * (r + c);
            lc + rc + join + est.rows * (r + c * est.width)
        }
        Plan::Union { left, right } => {
            let (_, lc) = cost_rec(db, left)?;
            let (_, rc) = cost_rec(db, right)?;
            lc + rc + est.rows * r
        }
        Plan::Distinct(input) => {
            let (in_est, in_cost) = cost_rec(db, input)?;
            in_cost + in_est.rows * (r + c * est.width) * 2.0
        }
        Plan::Difference { left, right } => {
            let (l, lc) = cost_rec(db, left)?;
            let (rr, rc) = cost_rec(db, right)?;
            lc + rc + (l.rows + rr.rows) * (r + c * est.width) * 2.0
        }
        Plan::Sort { input, .. } => {
            let (in_est, in_cost) = cost_rec(db, input)?;
            let n = in_est.rows.max(2.0);
            in_cost + n * (r + c * est.width) + n * n.log2() * r
        }
        Plan::Limit { input, n } => {
            let (in_est, in_cost) = cost_rec(db, input)?;
            let frac = (*n as f64 / in_est.rows.max(1.0)).min(1.0);
            in_cost * frac + est.rows * r
        }
        Plan::Aggregate { input, .. } | Plan::Conf(input) => {
            let (in_est, in_cost) = cost_rec(db, input)?;
            in_cost + in_est.rows * (r + c * in_est.width)
        }
    };
    Ok((est, cost))
}

/// Render the logical plan tree with per-node `est_rows` annotations
/// (the logical half of `EXPLAIN`).
pub fn explain_estimated(db: &Database, plan: &Plan) -> String {
    fn walk(db: &Database, plan: &Plan, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        match estimate(db, plan) {
            Ok(e) => {
                let _ = writeln!(out, "{pad}{} (est_rows={:.0})", plan.label(), e.rows);
            }
            Err(_) => {
                let _ = writeln!(out, "{pad}{}", plan.label());
            }
        }
        for child in plan.children() {
            walk(db, child, depth + 1, out);
        }
    }
    let mut s = String::new();
    walk(db, plan, 0, &mut s);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;
    use pip_core::{tuple, Schema};
    use pip_ctable::CRow;
    use pip_expr::Equation;

    fn stats_db() -> Database {
        let db = Database::new();
        db.create_table(
            "t",
            Schema::of(&[
                ("k", DataType::Int),
                ("v", DataType::Float),
                ("s", DataType::Symbolic),
            ]),
        )
        .unwrap();
        let mut rows = Vec::new();
        for i in 0..100i64 {
            let sym = db.create_variable("Normal", &[i as f64, 1.0]).unwrap();
            rows.push(CRow::unconditional(vec![
                Equation::val(i % 10),
                Equation::val(i as f64),
                Equation::from(sym),
            ]));
        }
        db.insert_rows("t", rows).unwrap();
        db.create_table(
            "d",
            Schema::of(&[("j", DataType::Int), ("w", DataType::Float)]),
        )
        .unwrap();
        db.insert_tuples(
            "d",
            &(0..10i64).map(|i| tuple![i, i as f64]).collect::<Vec<_>>(),
        )
        .unwrap();
        db
    }

    #[test]
    fn analyze_collects_column_shapes() {
        let db = stats_db();
        let stats = db.analyze_table("t").unwrap();
        assert_eq!(stats.rows, 100);
        assert_eq!(stats.conditional_rows, 0);
        let k = stats.column("k").unwrap();
        assert_eq!(k.n_deterministic, 100);
        assert_eq!(k.n_distinct, 10.0);
        assert_eq!((k.min, k.max), (Some(0.0), Some(9.0)));
        let s = stats.column("s").unwrap();
        assert_eq!(s.n_symbolic, 100);
        assert_eq!(s.symbolic_fraction(), 1.0);
        assert_eq!(s.n_distinct, 100.0);
    }

    #[test]
    fn stats_cache_invalidated_by_mutation() {
        let db = stats_db();
        let a = db.table_stats("t").unwrap();
        let b = db.table_stats("t").unwrap();
        assert!(std::sync::Arc::ptr_eq(&a, &b), "second read hits the cache");
        db.insert_tuples("d", &[tuple![11i64, 11.0]]).unwrap();
        let c = db.table_stats("t").unwrap();
        assert!(!std::sync::Arc::ptr_eq(&a, &c), "mutation retires stats");
        assert_eq!(c.rows, 100);
    }

    #[test]
    fn equality_and_range_selectivity() {
        let db = stats_db();
        let scan = Plan::Scan("t".into());
        // k = 3 → 1/10 of rows.
        let eq = ScalarExpr::col("k").eq(ScalarExpr::lit(3i64));
        let sel = predicate_selectivity(&db, &scan, &eq);
        assert!((sel - 0.1).abs() < 1e-9, "{sel}");
        // v < 25 → about a quarter.
        let range = ScalarExpr::col("v").lt(ScalarExpr::lit(25.0));
        let sel = predicate_selectivity(&db, &scan, &range);
        assert!((sel - 0.25).abs() < 0.05, "{sel}");
        // Conjunction multiplies.
        let both = eq.clone().and(range);
        let sel = predicate_selectivity(&db, &scan, &both);
        assert!((sel - 0.025).abs() < 0.01, "{sel}");
    }

    #[test]
    fn symbolic_columns_are_conservative() {
        let db = stats_db();
        let scan = Plan::Scan("t".into());
        // s is fully symbolic: the predicate keeps every row (it only
        // conjoins condition atoms), so selectivity is 1.
        let p = ScalarExpr::col("s").gt(ScalarExpr::lit(100.0));
        assert_eq!(predicate_selectivity(&db, &scan, &p), 1.0);
    }

    #[test]
    fn join_estimate_uses_ndv_fanout() {
        let db = stats_db();
        let join = PlanBuilder::scan("t")
            .equi_join(PlanBuilder::scan("d"), vec![("k", "j")])
            .build();
        let e = estimate(&db, &join).unwrap();
        // 100 × 10 / max(ndv 10, 10) = 100.
        assert!((e.rows - 100.0).abs() < 1e-6, "{}", e.rows);
        let prod = PlanBuilder::scan("t")
            .product(PlanBuilder::scan("d"))
            .build();
        assert_eq!(estimate(&db, &prod).unwrap().rows, 1000.0);
    }

    #[test]
    fn aggregate_and_limit_estimates() {
        let db = stats_db();
        let agg = PlanBuilder::scan("t")
            .aggregate(vec!["k"], vec![crate::plan::AggFunc::ExpectedCount])
            .build();
        assert_eq!(estimate(&db, &agg).unwrap().rows, 10.0);
        let lim = PlanBuilder::scan("t").limit(7).build();
        assert_eq!(estimate(&db, &lim).unwrap().rows, 7.0);
    }

    #[test]
    fn hash_join_costs_below_product_select() {
        let db = stats_db();
        let join = PlanBuilder::scan("t")
            .equi_join(PlanBuilder::scan("d"), vec![("k", "j")])
            .build();
        let product = PlanBuilder::scan("t")
            .product(PlanBuilder::scan("d"))
            .select(ScalarExpr::col("k").eq(ScalarExpr::col("j")))
            .unwrap()
            .build();
        let cj = plan_cost(&db, &join).unwrap();
        let cp = plan_cost(&db, &product).unwrap();
        assert!(cj < cp, "hash join {cj} vs product+select {cp}");
    }

    #[test]
    fn histogram_tracks_skew_where_uniform_interpolation_fails() {
        // 90 values at 0..9, 10 values spread over 1000..1009: uniform
        // min/max interpolation puts "v < 100" at ~10%, the histogram
        // knows it's 90%.
        let db = Database::new();
        db.create_table("skew", Schema::of(&[("v", DataType::Float)]))
            .unwrap();
        let mut vals = Vec::new();
        for i in 0..90i64 {
            vals.push(tuple![(i % 10) as f64]);
        }
        for i in 0..10i64 {
            vals.push(tuple![1000.0 + i as f64]);
        }
        db.insert_tuples("skew", &vals).unwrap();
        let scan = Plan::Scan("skew".into());
        let p = ScalarExpr::col("v").lt(ScalarExpr::lit(100.0));
        let sel = predicate_selectivity(&db, &scan, &p);
        assert!((sel - 0.9).abs() < 0.05, "histogram should see skew: {sel}");

        let stats = db.table_stats("skew").unwrap();
        let h = stats.column("v").unwrap().histogram.as_ref().unwrap();
        assert_eq!(h.total(), 100);
        assert_eq!(h.bounds.len(), h.counts.len() + 1);
        assert!((h.fraction_le(9.0) - 0.9).abs() < 1e-9);
        assert_eq!(h.fraction_le(1009.0), 1.0);
        assert_eq!(h.fraction_le(-1.0), 0.0);
    }

    #[test]
    fn apply_insert_maintains_histogram_and_reports_staleness() {
        let db = stats_db();
        let before = db.table_stats("t").unwrap();
        let h0 = before.column("v").unwrap().histogram.clone().unwrap();
        assert_eq!(h0.total(), 100);

        // Delta maintenance: new rows land in histogram buckets (edge
        // bounds widen for out-of-range values) without a rescan.
        let added: Vec<CRow> = (0..10i64)
            .map(|i| {
                CRow::unconditional(vec![
                    Equation::val(i % 10),
                    Equation::val(500.0 + i as f64),
                    Equation::val(0i64),
                ])
            })
            .collect();
        let after = before.apply_insert(&added, before.version + 1);
        assert_eq!(after.rows, 110);
        let v = after.column("v").unwrap();
        let h1 = v.histogram.as_ref().unwrap();
        assert_eq!(h1.total(), 110, "every inserted value is counted");
        assert_eq!(v.max, Some(509.0), "max widened by delta maintenance");
        assert_eq!(
            *h1.bounds.last().unwrap(),
            509.0,
            "edge bucket widened to cover out-of-range inserts"
        );
        assert!(!after.columns_stale(), "10% growth is under threshold");

        // Past the staleness threshold the columns stop being trusted.
        let mut lots = Vec::new();
        for _ in 0..3 {
            lots.extend(added.iter().cloned());
        }
        let stale = after.apply_insert(&lots, after.version + 1);
        assert!(stale.columns_stale(), "40% growth exceeds threshold");
    }

    #[test]
    fn histogram_survives_through_live_insert_path() {
        // The catalog's own insert path routes through apply_insert; the
        // cached stats entry must keep a consistent histogram.
        let db = stats_db();
        let _ = db.table_stats("t").unwrap();
        db.insert_tuples("d", &[tuple![42i64, 42.0]]).unwrap();
        let stats = db.table_stats("d").unwrap();
        let h = stats.column("w").unwrap().histogram.as_ref().unwrap();
        assert_eq!(h.total(), 11);
        assert_eq!(stats.rows, 11);
    }

    #[test]
    fn index_plan_estimates_match_logical_equivalents() {
        let db = stats_db();
        // IndexScan carries the same estimate as Select-over-Scan.
        let pred = ScalarExpr::col("v").lt(ScalarExpr::lit(25.0));
        let logical = PlanBuilder::scan("t").select(pred.clone()).unwrap().build();
        let index = Plan::IndexScan {
            table: "t".into(),
            index: "ix".into(),
            column: "v".into(),
            lo: None,
            hi: Some((pip_core::Value::Float(25.0), false)),
            predicate: pred,
        };
        let a = estimate(&db, &logical).unwrap();
        let b = estimate(&db, &index).unwrap();
        assert_eq!(a.rows.to_bits(), b.rows.to_bits(), "estimate parity");

        // IndexJoin carries the same estimate as the equi-join it replaces.
        let logical = PlanBuilder::scan("t")
            .equi_join(PlanBuilder::scan("d"), vec![("k", "j")])
            .build();
        let index = Plan::IndexJoin {
            left: Box::new(Plan::Scan("t".into())),
            table: "d".into(),
            index: "ix".into(),
            on: vec![("k".into(), "j".into())],
        };
        let a = estimate(&db, &logical).unwrap();
        let b = estimate(&db, &index).unwrap();
        assert_eq!(a.rows.to_bits(), b.rows.to_bits(), "estimate parity");
    }

    #[test]
    fn explain_estimated_annotates_every_node() {
        let db = stats_db();
        let plan = PlanBuilder::scan("t")
            .select(ScalarExpr::col("k").eq(ScalarExpr::lit(1i64)))
            .unwrap()
            .build();
        let text = explain_estimated(&db, &plan);
        assert!(text.contains("Select:"), "{text}");
        assert!(text.contains("(est_rows=10)"), "{text}");
        assert!(text.contains("Scan: t (est_rows=100)"), "{text}");
    }
}
