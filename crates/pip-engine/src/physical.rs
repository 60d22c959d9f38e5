//! The pipelined physical execution layer.
//!
//! [`lower`] turns an optimized logical [`Plan`] into a tree of
//! pull-based physical operators (the Volcano iterator model): each
//! operator yields one [`CRow`] per [`PhysicalPlan::next_row`] call, so
//! `Scan → Filter → Project → Join` pipelines never materialize
//! intermediate c-tables and base tables are read through shared
//! [`Arc`] snapshots rather than cloned. Lowering fuses adjacent
//! `Select`/`Project` nodes into a single [`Fused` stage](StageOp) and
//! compiles `EquiJoin` to a build/probe hash join.
//!
//! Operators that genuinely need their whole input — `distinct`,
//! `difference`, `sort`, and the group-by sampling head — buffer it and
//! delegate to the same [`pip_ctable::algebra`] / sampling-head code the
//! materializing executor uses, which is what keeps the two executors
//! row-for-row and bit-for-bit equivalent (asserted by
//! `tests/physical_equivalence.rs`). The row-level `conf()` head streams
//! in fixed-size waves via [`pip_sampling::ConfStream`].
//!
//! Every operator tracks rows-out and inclusive wall time; the driver
//! surfaces them through [`OpProfile`] and `EXPLAIN ANALYZE`.
//!
//! One caveat, shared with all pipelined engines: `CREATE_VARIABLE` in
//! *multiple* pipeline stages of one plan allocates fresh variables in
//! per-row (pipelined) order rather than per-operator (materialized)
//! order. The result tables are distributionally identical but the
//! opaque variable keys can differ from the materializing executor's.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use pip_core::{PipError, Result, Schema, Value};
use pip_expr::{Atom, Equation};

use pip_ctable::{algebra, filter_row, join_rows, map_row, CRow, CTable, OrderedIndex};
use pip_sampling::{ConfStream, SamplerConfig, StreamingGroups};

use crate::catalog::Database;
use crate::exec::{aggregate_schema, group_head_rows, output_type};
use crate::plan::{AggFunc, Plan, ScalarExpr};
use crate::rewrite::{compile_predicate, compile_scalar};

/// Execution profile of one physical operator (inclusive timings).
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfile {
    /// Operator label as rendered by EXPLAIN.
    pub name: String,
    /// Depth in the operator tree (root = 0).
    pub depth: usize,
    /// Optimizer cardinality estimate for the operator's output (`None`
    /// when estimation failed, e.g. statistics were unavailable).
    pub est_rows: Option<f64>,
    /// Rows the operator produced.
    pub rows_out: u64,
    /// Wall time inside the operator, including its children.
    pub secs: f64,
    /// Wall time minus the children's share (the operator's own work).
    pub exclusive_secs: f64,
    /// True for sampling heads (aggregate / conf): their exclusive time
    /// is the query's sample phase.
    pub sampling: bool,
}

/// A pull-based physical operator body. State and profiling live in the
/// wrapping [`OpNode`]; implementations only produce rows.
trait Operator<'a> {
    fn next(&mut self) -> Result<Option<CRow>>;
    fn children(&self) -> Vec<&OpNode<'a>>;
}

/// One node of the physical tree: an operator plus its schema, label,
/// and execution counters.
pub struct OpNode<'a> {
    op: Box<dyn Operator<'a> + 'a>,
    schema: Schema,
    label: String,
    sampling: bool,
    est_rows: Option<f64>,
    rows_out: u64,
    secs: f64,
}

impl<'a> OpNode<'a> {
    fn new(
        op: impl Operator<'a> + 'a,
        schema: Schema,
        label: impl Into<String>,
        sampling: bool,
    ) -> Self {
        OpNode {
            op: Box::new(op),
            schema,
            label: label.into(),
            sampling,
            est_rows: None,
            rows_out: 0,
            secs: 0.0,
        }
    }

    /// Pull the next row, accounting rows-out and inclusive wall time.
    pub fn next_row(&mut self) -> Result<Option<CRow>> {
        let t0 = Instant::now();
        let out = self.op.next();
        self.secs += t0.elapsed().as_secs_f64();
        if let Ok(Some(_)) = &out {
            self.rows_out += 1;
        }
        out
    }

    /// The operator's output schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    fn profile_into(&self, depth: usize, out: &mut Vec<OpProfile>) {
        let children = self.op.children();
        let child_secs: f64 = children.iter().map(|c| c.secs).sum();
        out.push(OpProfile {
            name: self.label.clone(),
            depth,
            est_rows: self.est_rows,
            rows_out: self.rows_out,
            secs: self.secs,
            exclusive_secs: (self.secs - child_secs).max(0.0),
            sampling: self.sampling,
        });
        for c in children {
            c.profile_into(depth + 1, out);
        }
    }
}

/// An executable physical plan: the operator tree plus driver surface.
pub struct PhysicalPlan<'a> {
    root: OpNode<'a>,
}

impl<'a> PhysicalPlan<'a> {
    /// The result schema.
    pub fn schema(&self) -> &Schema {
        self.root.schema()
    }

    /// Pull the next result row (`None` when the stream is exhausted).
    pub fn next_row(&mut self) -> Result<Option<CRow>> {
        self.root.next_row()
    }

    /// Drain the stream into a materialized result table.
    pub fn collect(&mut self) -> Result<CTable> {
        let mut out = CTable::empty(self.schema().clone());
        while let Some(row) = self.next_row()? {
            out.push(row)?;
        }
        Ok(out)
    }

    /// Per-operator profiles in pre-order (root first).
    pub fn profiles(&self) -> Vec<OpProfile> {
        let mut out = Vec::new();
        self.root.profile_into(0, &mut out);
        out
    }

    /// Render the physical tree with the optimizer's cardinality
    /// estimates (present when lowered via [`lower_annotated`]); with
    /// `analyze`, append each operator's actual rows-out, inclusive
    /// (`total`) and exclusive (`self`) wall time (call after
    /// draining).
    pub fn explain(&self, analyze: bool) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for p in self.profiles() {
            let pad = "  ".repeat(p.depth);
            let mut parts: Vec<String> = Vec::new();
            if let Some(e) = p.est_rows {
                parts.push(format!("est_rows={e:.0}"));
            }
            if analyze {
                parts.push(format!("rows={}", p.rows_out));
                parts.push(format!("total={:.6}s", p.secs));
                parts.push(format!("self={:.6}s", p.exclusive_secs));
            }
            if parts.is_empty() {
                let _ = writeln!(s, "{pad}{}", p.name);
            } else {
                let _ = writeln!(s, "{pad}{} ({})", p.name, parts.join(", "));
            }
        }
        s
    }
}

/// Lower an (ideally already optimized) logical plan to a physical
/// operator tree over `db`.
pub fn lower<'a>(db: &'a Database, plan: &Plan, cfg: &SamplerConfig) -> Result<PhysicalPlan<'a>> {
    Ok(PhysicalPlan {
        root: build(db, plan, cfg, false)?,
    })
}

/// [`lower`], with every operator annotated with the optimizer's
/// cardinality estimate for its logical source node (the EXPLAIN path;
/// the plain execute path skips the extra estimator walks).
pub fn lower_annotated<'a>(
    db: &'a Database,
    plan: &Plan,
    cfg: &SamplerConfig,
) -> Result<PhysicalPlan<'a>> {
    Ok(PhysicalPlan {
        root: build(db, plan, cfg, true)?,
    })
}

// ---------------------------------------------------------------------
// Lowering.
// ---------------------------------------------------------------------

/// A fused per-row transform inside one pipeline stage.
enum Transform {
    /// σ — CTYPE-hoisting filter over the stage's current schema.
    Filter {
        predicate: ScalarExpr,
        schema: Schema,
    },
    /// π — generalized projection (computed cells).
    Map {
        exprs: Vec<(String, ScalarExpr)>,
        in_schema: Schema,
    },
}

impl Transform {
    fn label(&self) -> String {
        match self {
            Transform::Filter { predicate, .. } => format!("Filter: {predicate:?}"),
            Transform::Map { exprs, .. } => {
                let names: Vec<&str> = exprs.iter().map(|(n, _)| n.as_str()).collect();
                format!("Project: [{}]", names.join(", "))
            }
        }
    }
}

/// Build one operator node; with `annotate`, attach the optimizer's
/// cardinality estimate for its logical source node (best effort —
/// estimation failures leave the annotation empty, never fail the
/// query).
fn build<'a>(
    db: &'a Database,
    plan: &Plan,
    cfg: &SamplerConfig,
    annotate: bool,
) -> Result<OpNode<'a>> {
    let mut node = build_op(db, plan, cfg, annotate)?;
    if annotate {
        node.est_rows = crate::stats::estimate(db, plan).ok().map(|e| e.rows);
    }
    Ok(node)
}

fn build_op<'a>(
    db: &'a Database,
    plan: &Plan,
    cfg: &SamplerConfig,
    annotate: bool,
) -> Result<OpNode<'a>> {
    match plan {
        Plan::Scan(name) => {
            let table = db.table(name)?;
            let schema = table.schema().clone();
            Ok(OpNode::new(
                ScanOp { table, idx: 0 },
                schema,
                format!("Scan: {name}"),
                false,
            ))
        }
        Plan::IndexScan {
            table,
            index,
            column,
            lo,
            hi,
            predicate,
        } => {
            let t = db.table(table)?;
            let entry = db
                .index(index)
                .ok_or_else(|| PipError::NotFound(format!("index '{index}'")))?;
            let schema = t.schema().clone();
            // Seek once at lowering time against the pinned snapshot.
            // The candidate list is a superset of the matching rows in
            // ascending row order; rows past the index watermark (a
            // snapshot racing an insert) are appended as candidates and
            // ids past the table length are dropped — the residual
            // predicate below decides every candidate either way.
            let mut ids = entry.index.seek(lo.as_ref(), hi.as_ref());
            ids.retain(|&id| (id as usize) < t.len());
            ids.extend((entry.index.covered_rows() as usize..t.len()).map(|i| i as u32));
            let label = format!(
                "IndexRangeScan: {table} via {index} ({})",
                bound_label(column, lo, hi)
            );
            Ok(OpNode::new(
                IndexRangeScanOp {
                    table: t,
                    db,
                    predicate: predicate.clone(),
                    schema: schema.clone(),
                    ids,
                    pos: 0,
                },
                schema,
                label,
                false,
            ))
        }
        Plan::IndexJoin {
            left,
            table,
            index,
            on,
        } => {
            let l = build(db, left, cfg, annotate)?;
            let t = db.table(table)?;
            let entry = db
                .index(index)
                .ok_or_else(|| PipError::NotFound(format!("index '{index}'")))?;
            let l_key = on
                .iter()
                .map(|(a, _)| l.schema().index_of(a))
                .collect::<Result<Vec<_>>>()?;
            let r_key = on
                .iter()
                .map(|(_, b)| t.schema().index_of(b))
                .collect::<Result<Vec<_>>>()?;
            let seek_pair = on
                .iter()
                .position(|(_, b)| b == &entry.column)
                .ok_or_else(|| {
                    PipError::Schema(format!(
                        "index '{index}' on column '{}' serves no key of the join",
                        entry.column
                    ))
                })?;
            let schema = l.schema().join(t.schema())?;
            let pairs: Vec<String> = on.iter().map(|(a, b)| format!("{a}={b}")).collect();
            let tail: Vec<u32> = (entry.index.covered_rows() as usize..t.len())
                .map(|i| i as u32)
                .collect();
            Ok(OpNode::new(
                IndexNestedLoopJoinOp {
                    left: l,
                    table: t,
                    index: Arc::clone(&entry.index),
                    l_key,
                    r_key,
                    seek_pair,
                    tail,
                    probe: None,
                    candidates: Candidates::List(Vec::new()),
                    cand_pos: 0,
                },
                schema,
                format!(
                    "IndexNestedLoopJoin: {} (probe={table} via {index})",
                    pairs.join(" AND ")
                ),
                false,
            ))
        }
        Plan::Select { .. } | Plan::Project { .. } => {
            // Walk the maximal Select/Project chain and fuse it into one
            // stage (innermost transform first).
            let mut chain: Vec<&Plan> = Vec::new();
            let mut cur = plan;
            while let Plan::Select { input, .. } | Plan::Project { input, .. } = cur {
                chain.push(cur);
                cur = input;
            }
            let input = build(db, cur, cfg, annotate)?;
            let mut schema = input.schema().clone();
            let mut transforms = Vec::with_capacity(chain.len());
            for node in chain.into_iter().rev() {
                match node {
                    Plan::Select { predicate, .. } => transforms.push(Transform::Filter {
                        predicate: predicate.clone(),
                        schema: schema.clone(),
                    }),
                    Plan::Project { exprs, .. } => {
                        let out_schema = Schema::new(
                            exprs
                                .iter()
                                .map(|(n, e)| {
                                    pip_core::Column::new(n.clone(), output_type(e, &schema))
                                })
                                .collect(),
                        )?;
                        transforms.push(Transform::Map {
                            exprs: exprs.clone(),
                            in_schema: schema.clone(),
                        });
                        schema = out_schema;
                    }
                    _ => unreachable!("chain holds only Select/Project"),
                }
            }
            let label = if transforms.len() == 1 {
                transforms[0].label()
            } else {
                format!(
                    "Fused: {}",
                    transforms
                        .iter()
                        .map(Transform::label)
                        .collect::<Vec<_>>()
                        .join(" → ")
                )
            };
            Ok(OpNode::new(
                StageOp {
                    input,
                    db,
                    transforms,
                },
                schema,
                label,
                false,
            ))
        }
        Plan::Product { left, right } => {
            let l = build(db, left, cfg, annotate)?;
            let r = build(db, right, cfg, annotate)?;
            let schema = l.schema().join(r.schema())?;
            Ok(OpNode::new(
                ProductOp {
                    left: l,
                    right: r,
                    right_rows: None,
                    current: None,
                    r_idx: 0,
                },
                schema,
                "Product",
                false,
            ))
        }
        Plan::EquiJoin { left, right, on } => {
            let l = build(db, left, cfg, annotate)?;
            let r = build(db, right, cfg, annotate)?;
            let l_key = on
                .iter()
                .map(|(a, _)| l.schema().index_of(a))
                .collect::<Result<Vec<_>>>()?;
            let r_key = on
                .iter()
                .map(|(_, b)| r.schema().index_of(b))
                .collect::<Result<Vec<_>>>()?;
            let schema = l.schema().join(r.schema())?;
            let pairs: Vec<String> = on.iter().map(|(a, b)| format!("{a}={b}")).collect();
            Ok(OpNode::new(
                HashJoinOp {
                    left: l,
                    right: r,
                    l_key,
                    r_key,
                    build: None,
                    key: Vec::new(),
                    probe: None,
                    candidates: JoinCandidates::All(0),
                },
                schema,
                format!("HashJoin: {} (build=right)", pairs.join(" AND ")),
                false,
            ))
        }
        Plan::Union { left, right } => {
            let l = build(db, left, cfg, annotate)?;
            let r = build(db, right, cfg, annotate)?;
            if l.schema().len() != r.schema().len() {
                return Err(PipError::Schema(format!(
                    "union arity mismatch: {} vs {}",
                    l.schema().len(),
                    r.schema().len()
                )));
            }
            let schema = l.schema().clone();
            Ok(OpNode::new(
                UnionOp {
                    left: l,
                    right: r,
                    on_right: false,
                },
                schema,
                "Union",
                false,
            ))
        }
        Plan::Distinct(input) => {
            let input = build(db, input, cfg, annotate)?;
            let schema = input.schema().clone();
            Ok(OpNode::new(
                DistinctOp {
                    input,
                    out: Replay::default(),
                },
                schema,
                "Distinct",
                false,
            ))
        }
        Plan::Difference { left, right } => {
            let l = build(db, left, cfg, annotate)?;
            let r = build(db, right, cfg, annotate)?;
            if l.schema().len() != r.schema().len() {
                return Err(PipError::Schema(format!(
                    "difference arity mismatch: {} vs {}",
                    l.schema().len(),
                    r.schema().len()
                )));
            }
            let schema = l.schema().clone();
            Ok(OpNode::new(
                DifferenceOp {
                    left: l,
                    right: r,
                    out: Replay::default(),
                },
                schema,
                "Difference",
                false,
            ))
        }
        Plan::Sort { input, keys } => {
            let input = build(db, input, cfg, annotate)?;
            let idx = keys
                .iter()
                .map(|(c, d)| Ok((input.schema().index_of(c)?, *d)))
                .collect::<Result<Vec<_>>>()?;
            let schema = input.schema().clone();
            let ks: Vec<String> = keys
                .iter()
                .map(|(c, d)| format!("{c}{}", if *d { " DESC" } else { "" }))
                .collect();
            Ok(OpNode::new(
                SortOp {
                    input,
                    keys: idx,
                    out: Replay::default(),
                },
                schema,
                format!("Sort: [{}]", ks.join(", ")),
                false,
            ))
        }
        Plan::Limit { input, n } => {
            let input = build(db, input, cfg, annotate)?;
            let schema = input.schema().clone();
            Ok(OpNode::new(
                LimitOp {
                    input,
                    n: *n,
                    emitted: 0,
                },
                schema,
                format!("Limit: {n}"),
                false,
            ))
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let input = build(db, input, cfg, annotate)?;
            let schema = aggregate_schema(input.schema(), group_by, aggs)?;
            let names: Vec<String> = aggs.iter().map(|a| a.output_name()).collect();
            Ok(OpNode::new(
                AggregateOp {
                    input,
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                    cfg: cfg.clone(),
                    out: Replay::default(),
                },
                schema,
                format!(
                    "Aggregate: [{}] group by [{}]",
                    names.join(", "),
                    group_by.join(", ")
                ),
                true,
            ))
        }
        Plan::Conf(input) => {
            let input = build(db, input, cfg, annotate)?;
            let mut cols = input.schema().columns().to_vec();
            cols.push(pip_core::Column::new("conf()", pip_core::DataType::Float));
            let schema = Schema::new(cols)?;
            Ok(OpNode::new(
                ConfOp {
                    input,
                    stream: ConfStream::new(cfg),
                    out: std::collections::VecDeque::new(),
                    done: false,
                },
                schema,
                "Conf",
                true,
            ))
        }
    }
}

// ---------------------------------------------------------------------
// Operators.
// ---------------------------------------------------------------------

/// Zero-copy base-table scan: rows stream out of the shared catalog
/// snapshot; the table itself is never cloned.
struct ScanOp {
    table: Arc<CTable>,
    idx: usize,
}

impl<'a> Operator<'a> for ScanOp {
    fn next(&mut self) -> Result<Option<CRow>> {
        let row = self.table.rows().get(self.idx).cloned();
        self.idx += row.is_some() as usize;
        Ok(row)
    }

    fn children(&self) -> Vec<&OpNode<'a>> {
        Vec::new()
    }
}

/// Render the seek range of an index scan for EXPLAIN.
fn bound_label(column: &str, lo: &Option<(Value, bool)>, hi: &Option<(Value, bool)>) -> String {
    match (lo, hi) {
        (None, None) => format!("{column} unbounded"),
        (Some((v, inc)), None) => format!("{column} {} {v}", if *inc { ">=" } else { ">" }),
        (None, Some((v, inc))) => format!("{column} {} {v}", if *inc { "<=" } else { "<" }),
        (Some((lv, li)), Some((hv, hi_inc))) => format!(
            "{lv} {} {column} {} {hv}",
            if *li { "<=" } else { "<" },
            if *hi_inc { "<=" } else { "<" }
        ),
    }
}

/// Index-driven base-table access: candidate rows come from one ordered
/// seek (ascending row order, symbolic cells always included), then the
/// *full* predicate re-decides every candidate — semantically identical
/// to `Filter(Scan)`, row-for-row and condition-for-condition, just
/// skipping rows the index proves cannot match.
struct IndexRangeScanOp<'a> {
    table: Arc<CTable>,
    db: &'a Database,
    predicate: ScalarExpr,
    schema: Schema,
    ids: Vec<u32>,
    pos: usize,
}

impl<'a> Operator<'a> for IndexRangeScanOp<'a> {
    fn next(&mut self) -> Result<Option<CRow>> {
        while let Some(&id) = self.ids.get(self.pos) {
            self.pos += 1;
            let row = self.table.rows()[id as usize].clone();
            let outcome = compile_predicate(&self.predicate, &self.schema, &row.cells, self.db)?;
            if let Some(r) = filter_row(row, outcome) {
                return Ok(Some(r));
            }
        }
        Ok(None)
    }

    fn children(&self) -> Vec<&OpNode<'a>> {
        Vec::new()
    }
}

/// Index nested-loop join: for every probe (left) row, candidate base
/// rows come from an equality seek on the indexed key column instead of
/// a hash bucket. Candidates arrive in ascending base order with the
/// symbolic-key rows merged in — the same candidate set and order a
/// [`HashJoinOp`] would visit — and every key pair is then re-decided
/// exactly as the hash join does (const keys filter, symbolic keys
/// hoist equality atoms), so the output is bit-identical.
struct IndexNestedLoopJoinOp<'a> {
    left: OpNode<'a>,
    table: Arc<CTable>,
    index: Arc<OrderedIndex>,
    l_key: Vec<usize>,
    r_key: Vec<usize>,
    /// Which `on` pair the index serves.
    seek_pair: usize,
    /// Base rows past the index watermark (snapshot skew): always
    /// candidates, decided by the key checks like any other row.
    tail: Vec<u32>,
    probe: Option<CRow>,
    candidates: Candidates,
    cand_pos: usize,
}

impl IndexNestedLoopJoinOp<'_> {
    /// Candidate base-row indices for `probe`, ascending.
    fn candidates_for(&self, probe: &CRow) -> Candidates {
        match probe.cells[self.l_key[self.seek_pair]].as_const() {
            None => Candidates::All(self.table.len()),
            Some(key) => {
                let mut ids = self.index.equal_candidates(key);
                ids.extend_from_slice(&self.tail);
                ids.retain(|&id| (id as usize) < self.table.len());
                Candidates::List(ids.into_iter().map(|id| id as usize).collect())
            }
        }
    }
}

impl<'a> Operator<'a> for IndexNestedLoopJoinOp<'a> {
    fn next(&mut self) -> Result<Option<CRow>> {
        loop {
            if self.probe.is_none() {
                self.probe = self.left.next_row()?;
                match &self.probe {
                    None => return Ok(None),
                    Some(p) => {
                        self.candidates = self.candidates_for(p);
                        self.cand_pos = 0;
                    }
                }
            }
            let probe = self.probe.as_ref().expect("checked");
            'cands: while let Some(idx) = self.candidates.get(self.cand_pos) {
                let r = &self.table.rows()[idx];
                self.cand_pos += 1;
                // Conjoin conditions first (product), then decide keys
                // (select) — mirroring HashJoinOp exactly.
                let Some(joined) = join_rows(probe, r) else {
                    continue;
                };
                let mut atoms: Vec<Atom> = Vec::new();
                for (&li, &ri) in self.l_key.iter().zip(&self.r_key) {
                    let (l, rc) = (&probe.cells[li], &r.cells[ri]);
                    match (l.as_const(), rc.as_const()) {
                        (Some(a), Some(b)) => {
                            if !a.sql_eq(b) {
                                continue 'cands;
                            }
                        }
                        _ => atoms.push(Atom::new(l.clone(), pip_expr::CmpOp::Eq, rc.clone())),
                    }
                }
                let out = if atoms.is_empty() {
                    Some(joined)
                } else {
                    filter_row(joined, algebra::SelectOutcome::Conditional(atoms))
                };
                if let Some(row) = out {
                    return Ok(Some(row));
                }
            }
            self.probe = None;
        }
    }

    fn children(&self) -> Vec<&OpNode<'a>> {
        vec![&self.left]
    }
}

/// A fused pipeline stage: any run of filters and projections applied
/// per row, with no operator boundary (and no intermediate table)
/// between them.
struct StageOp<'a> {
    input: OpNode<'a>,
    db: &'a Database,
    transforms: Vec<Transform>,
}

impl<'a> Operator<'a> for StageOp<'a> {
    fn next(&mut self) -> Result<Option<CRow>> {
        'rows: while let Some(mut row) = self.input.next_row()? {
            for t in &self.transforms {
                match t {
                    Transform::Filter { predicate, schema } => {
                        let outcome = compile_predicate(predicate, schema, &row.cells, self.db)?;
                        match filter_row(row, outcome) {
                            Some(r) => row = r,
                            None => continue 'rows,
                        }
                    }
                    Transform::Map { exprs, in_schema } => {
                        let cells = exprs
                            .iter()
                            .map(|(_, e)| compile_scalar(e, in_schema, &row.cells, self.db))
                            .collect::<Result<Vec<Equation>>>()?;
                        row = map_row(row, cells);
                    }
                }
            }
            return Ok(Some(row));
        }
        Ok(None)
    }

    fn children(&self) -> Vec<&OpNode<'a>> {
        vec![&self.input]
    }
}

/// × — streams the left input, buffering the right side once.
struct ProductOp<'a> {
    left: OpNode<'a>,
    right: OpNode<'a>,
    right_rows: Option<Vec<CRow>>,
    current: Option<CRow>,
    r_idx: usize,
}

impl<'a> ProductOp<'a> {
    fn right_rows(&mut self) -> Result<&[CRow]> {
        if self.right_rows.is_none() {
            let mut rows = Vec::new();
            while let Some(r) = self.right.next_row()? {
                rows.push(r);
            }
            self.right_rows = Some(rows);
        }
        Ok(self.right_rows.as_deref().expect("just built"))
    }
}

impl<'a> Operator<'a> for ProductOp<'a> {
    fn next(&mut self) -> Result<Option<CRow>> {
        self.right_rows()?;
        loop {
            if self.current.is_none() {
                self.current = self.left.next_row()?;
                self.r_idx = 0;
                if self.current.is_none() {
                    return Ok(None);
                }
            }
            let right = self.right_rows.as_deref().expect("built above");
            let l = self.current.as_ref().expect("checked");
            while self.r_idx < right.len() {
                let r = &right[self.r_idx];
                self.r_idx += 1;
                if let Some(row) = join_rows(l, r) {
                    return Ok(Some(row));
                }
            }
            self.current = None;
        }
    }

    fn children(&self) -> Vec<&OpNode<'a>> {
        vec![&self.left, &self.right]
    }
}

/// Build-side index of the hash join: rows whose key cells are all
/// constants live in hash buckets; rows with any symbolic key cell must
/// be probed pairwise (their equality becomes a condition atom).
struct JoinBuild {
    rows: Vec<CRow>,
    /// Ascending build-row indices per distinct constant key.
    buckets: Vec<Vec<usize>>,
    /// Which bucket holds a key.
    bucket_of: HashMap<Vec<Value>, usize>,
    symbolic: Vec<usize>,
}

impl JoinBuild {
    /// The next candidate for one probe row, in build order: every build
    /// row, or a bucket merged with the symbolic-key rows by two cursors.
    fn next_candidate(&self, cands: &mut JoinCandidates) -> Option<usize> {
        match cands {
            JoinCandidates::All(pos) => {
                let idx = *pos;
                (idx < self.rows.len()).then(|| {
                    *pos += 1;
                    idx
                })
            }
            JoinCandidates::Merge { bucket, i, j } => {
                let a = bucket.map_or(&[][..], |b| &self.buckets[b][..]);
                match (a.get(*i), self.symbolic.get(*j)) {
                    (Some(&x), Some(&y)) if y < x => {
                        *j += 1;
                        Some(y)
                    }
                    (Some(&x), _) => {
                        *i += 1;
                        Some(x)
                    }
                    (None, Some(&y)) => {
                        *j += 1;
                        Some(y)
                    }
                    (None, None) => None,
                }
            }
        }
    }
}

/// Where [`JoinBuild::next_candidate`] stands for one probe row.
enum JoinCandidates {
    /// The probe key has a symbolic cell: every build row, from this one.
    All(usize),
    /// The probe key's bucket (`None`: no build row has that key) at
    /// cursor `i`, merged with the symbolic-key rows at cursor `j`.
    Merge {
        bucket: Option<usize>,
        i: usize,
        j: usize,
    },
}

/// Equi-join as build (right) / probe (left) hash join.
///
/// For every probe row, candidate build rows are visited in build order
/// — hash-bucket matches merged with the symbolic-key rows — so the
/// output ordering (and every row condition) is identical to the
/// product-then-select definition the materializing executor runs.
struct HashJoinOp<'a> {
    left: OpNode<'a>,
    right: OpNode<'a>,
    l_key: Vec<usize>,
    r_key: Vec<usize>,
    build: Option<JoinBuild>,
    /// The probe row's key cells, reused from row to row.
    key: Vec<Value>,
    probe: Option<CRow>,
    candidates: JoinCandidates,
}

/// Candidate rows for one probe row of the index join, in base order.
enum Candidates {
    /// Every base row (the probe key has a symbolic cell).
    All(usize),
    /// An explicit ascending index list.
    List(Vec<usize>),
}

impl Candidates {
    fn get(&self, pos: usize) -> Option<usize> {
        match self {
            Candidates::All(n) => (pos < *n).then_some(pos),
            Candidates::List(v) => v.get(pos).copied(),
        }
    }
}

impl<'a> HashJoinOp<'a> {
    fn build_side(&mut self) -> Result<()> {
        if self.build.is_some() {
            return Ok(());
        }
        let mut rows = Vec::new();
        while let Some(r) = self.right.next_row()? {
            rows.push(r);
        }
        let mut buckets: Vec<Vec<usize>> = Vec::new();
        let mut bucket_of: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut symbolic = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let key: Option<Vec<Value>> = self
                .r_key
                .iter()
                .map(|&k| row.cells[k].as_const().cloned())
                .collect();
            match key {
                Some(k) => {
                    let b = *bucket_of.entry(k).or_insert_with(|| {
                        buckets.push(Vec::new());
                        buckets.len() - 1
                    });
                    buckets[b].push(i);
                }
                None => symbolic.push(i),
            }
        }
        self.build = Some(JoinBuild {
            rows,
            buckets,
            bucket_of,
            symbolic,
        });
        Ok(())
    }

    /// Candidate build rows for `probe`, ascending.
    fn candidates_for(&mut self, probe: &CRow) -> JoinCandidates {
        let build = self.build.as_ref().expect("built");
        self.key.clear();
        for &k in &self.l_key {
            match probe.cells[k].as_const() {
                Some(v) => self.key.push(v.clone()),
                None => return JoinCandidates::All(0),
            }
        }
        JoinCandidates::Merge {
            bucket: build.bucket_of.get(self.key.as_slice()).copied(),
            i: 0,
            j: 0,
        }
    }
}

impl<'a> Operator<'a> for HashJoinOp<'a> {
    fn next(&mut self) -> Result<Option<CRow>> {
        self.build_side()?;
        loop {
            if self.probe.is_none() {
                let Some(p) = self.left.next_row()? else {
                    return Ok(None);
                };
                self.candidates = self.candidates_for(&p);
                self.probe = Some(p);
            }
            let probe = self.probe.as_ref().expect("checked");
            let build = self.build.as_ref().expect("built");
            'cands: while let Some(idx) = build.next_candidate(&mut self.candidates) {
                let r = &build.rows[idx];
                // Conjoin conditions first (product), then decide keys
                // (select) — the exact order of the algebraic definition.
                let Some(joined) = join_rows(probe, r) else {
                    continue;
                };
                let mut atoms: Vec<Atom> = Vec::new();
                for (&li, &ri) in self.l_key.iter().zip(&self.r_key) {
                    let (l, rc) = (&probe.cells[li], &r.cells[ri]);
                    match (l.as_const(), rc.as_const()) {
                        (Some(a), Some(b)) => {
                            if !a.sql_eq(b) {
                                continue 'cands;
                            }
                        }
                        _ => atoms.push(Atom::new(l.clone(), pip_expr::CmpOp::Eq, rc.clone())),
                    }
                }
                let out = if atoms.is_empty() {
                    Some(joined)
                } else {
                    filter_row(joined, algebra::SelectOutcome::Conditional(atoms))
                };
                if let Some(row) = out {
                    return Ok(Some(row));
                }
            }
            self.probe = None;
        }
    }

    fn children(&self) -> Vec<&OpNode<'a>> {
        vec![&self.left, &self.right]
    }
}

/// ∪ — bag union: stream left, then right.
struct UnionOp<'a> {
    left: OpNode<'a>,
    right: OpNode<'a>,
    on_right: bool,
}

impl<'a> Operator<'a> for UnionOp<'a> {
    fn next(&mut self) -> Result<Option<CRow>> {
        if !self.on_right {
            if let Some(r) = self.left.next_row()? {
                return Ok(Some(r));
            }
            self.on_right = true;
        }
        self.right.next_row()
    }

    fn children(&self) -> Vec<&OpNode<'a>> {
        vec![&self.left, &self.right]
    }
}

/// Drain an input node into a c-table (pipeline breakers share this).
fn drain(node: &mut OpNode<'_>) -> Result<CTable> {
    let mut t = CTable::empty(node.schema().clone());
    while let Some(row) = node.next_row()? {
        t.push(row)?;
    }
    Ok(t)
}

/// Shared buffer-then-replay state of the pipeline breakers: `fill`
/// runs once on the first pull, then rows replay in order.
#[derive(Default)]
struct Replay {
    rows: Option<Vec<CRow>>,
    pos: usize,
}

impl Replay {
    fn next(&mut self, fill: impl FnOnce() -> Result<Vec<CRow>>) -> Result<Option<CRow>> {
        if self.rows.is_none() {
            self.rows = Some(fill()?);
        }
        let rows = self.rows.as_ref().expect("just filled");
        let row = rows.get(self.pos).cloned();
        self.pos += row.is_some() as usize;
        Ok(row)
    }
}

/// `distinct` — blocking; delegates to the algebra operator.
struct DistinctOp<'a> {
    input: OpNode<'a>,
    out: Replay,
}

impl<'a> Operator<'a> for DistinctOp<'a> {
    fn next(&mut self) -> Result<Option<CRow>> {
        let input = &mut self.input;
        self.out
            .next(|| Ok(algebra::distinct(&drain(input)?)?.rows().to_vec()))
    }

    fn children(&self) -> Vec<&OpNode<'a>> {
        vec![&self.input]
    }
}

/// − — blocking; delegates to the algebra operator.
struct DifferenceOp<'a> {
    left: OpNode<'a>,
    right: OpNode<'a>,
    out: Replay,
}

impl<'a> Operator<'a> for DifferenceOp<'a> {
    fn next(&mut self) -> Result<Option<CRow>> {
        let (left, right) = (&mut self.left, &mut self.right);
        self.out.next(|| {
            let l = drain(left)?;
            let r = drain(right)?;
            Ok(algebra::difference(&l, &r)?.rows().to_vec())
        })
    }

    fn children(&self) -> Vec<&OpNode<'a>> {
        vec![&self.left, &self.right]
    }
}

/// Sort — blocking; deterministic keys only, stable order (the same
/// kernel the materializing executor runs).
struct SortOp<'a> {
    input: OpNode<'a>,
    keys: Vec<(usize, bool)>,
    out: Replay,
}

impl<'a> Operator<'a> for SortOp<'a> {
    fn next(&mut self) -> Result<Option<CRow>> {
        let (input, keys) = (&mut self.input, &self.keys);
        self.out.next(|| {
            let t = drain(input)?;
            crate::exec::sort_rows(t.schema(), t.rows().to_vec(), keys)
        })
    }

    fn children(&self) -> Vec<&OpNode<'a>> {
        vec![&self.input]
    }
}

/// Limit — stops pulling its input once `n` rows were emitted.
struct LimitOp<'a> {
    input: OpNode<'a>,
    n: usize,
    emitted: usize,
}

impl<'a> Operator<'a> for LimitOp<'a> {
    fn next(&mut self) -> Result<Option<CRow>> {
        if self.emitted >= self.n {
            return Ok(None);
        }
        let row = self.input.next_row()?;
        self.emitted += row.is_some() as usize;
        Ok(row)
    }

    fn children(&self) -> Vec<&OpNode<'a>> {
        vec![&self.input]
    }
}

/// The group-by sampling head: groups stream in incrementally, then the
/// per-group aggregate operators fan out on the shared pool — the same
/// head code (and the same deterministic per-row sites) as the
/// materializing executor.
struct AggregateOp<'a> {
    input: OpNode<'a>,
    group_by: Vec<String>,
    aggs: Vec<AggFunc>,
    cfg: SamplerConfig,
    out: Replay,
}

impl<'a> Operator<'a> for AggregateOp<'a> {
    fn next(&mut self) -> Result<Option<CRow>> {
        let Self {
            input,
            group_by,
            aggs,
            cfg,
            out,
        } = self;
        out.next(|| {
            let mut groups = StreamingGroups::new(input.schema().clone(), group_by)?;
            while let Some(row) = input.next_row()? {
                groups.push(row)?;
            }
            let rows = group_head_rows(&groups.finish()?, aggs, cfg)?;
            Ok(rows.into_iter().map(CRow::unconditional).collect())
        })
    }

    fn children(&self) -> Vec<&OpNode<'a>> {
        vec![&self.input]
    }
}

/// The row-level `conf()` head: confidences computed a wave at a time
/// while upstream rows are still being produced.
struct ConfOp<'a> {
    input: OpNode<'a>,
    stream: ConfStream,
    out: std::collections::VecDeque<CRow>,
    done: bool,
}

impl ConfOp<'_> {
    fn enqueue(&mut self, batch: Vec<(CRow, f64)>) {
        for (row, p) in batch {
            let mut cells = row.cells;
            cells.push(Equation::val(p));
            self.out.push_back(CRow::unconditional(cells));
        }
    }
}

impl<'a> Operator<'a> for ConfOp<'a> {
    fn next(&mut self) -> Result<Option<CRow>> {
        while self.out.is_empty() && !self.done {
            match self.input.next_row()? {
                Some(row) => {
                    let batch = self.stream.push(row)?;
                    self.enqueue(batch);
                }
                None => {
                    let batch = self.stream.finish()?;
                    self.enqueue(batch);
                    self.done = true;
                }
            }
        }
        Ok(self.out.pop_front())
    }

    fn children(&self) -> Vec<&OpNode<'a>> {
        vec![&self.input]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;
    use pip_core::{tuple, DataType};

    fn join_db() -> Database {
        let db = Database::new();
        db.create_table(
            "l",
            Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]),
        )
        .unwrap();
        db.create_table(
            "r",
            Schema::of(&[("c", DataType::Int), ("d", DataType::Int)]),
        )
        .unwrap();
        db.insert_tuples(
            "l",
            &[
                tuple![1i64, 10i64],
                tuple![2i64, 20i64],
                tuple![3i64, 30i64],
            ],
        )
        .unwrap();
        db.insert_tuples(
            "r",
            &[
                tuple![2i64, 200i64],
                tuple![1i64, 100i64],
                tuple![1i64, 101i64],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn hash_join_matches_algebra_equi_join() {
        let db = join_db();
        let cfg = SamplerConfig::default();
        let plan = PlanBuilder::scan("l")
            .equi_join(PlanBuilder::scan("r"), vec![("a", "c")])
            .build();
        let mut phys = lower(&db, &plan, &cfg).unwrap();
        let streamed = phys.collect().unwrap();
        let l = db.table("l").unwrap();
        let r = db.table("r").unwrap();
        let reference = algebra::equi_join(&l, &r, &[("a", "c")]).unwrap();
        assert_eq!(streamed, reference);
        // Build-order candidates: l row a=1 pairs with BOTH r rows (in
        // right order), so ordering is left-major, right-original.
        assert_eq!(streamed.len(), 3);
    }

    #[test]
    fn hash_join_with_symbolic_keys_matches_algebra() {
        // Symbolic key cells on both sides: probe rows fall back to the
        // all-candidates scan, build rows to the symbolic list, and key
        // equality hoists into condition atoms.
        let db = Database::new();
        db.create_table(
            "a",
            Schema::of(&[
                ("x", pip_core::DataType::Symbolic),
                ("i", pip_core::DataType::Int),
            ]),
        )
        .unwrap();
        db.create_table("b", Schema::of(&[("y", pip_core::DataType::Symbolic)]))
            .unwrap();
        // Discrete keys: equality on continuous variables is zero-
        // measure and both executors drop such rows outright.
        let v1 = db.create_variable("Poisson", &[2.0]).unwrap();
        let v2 = db.create_variable("Poisson", &[3.0]).unwrap();
        db.insert_rows(
            "a",
            vec![
                CRow::unconditional(vec![pip_expr::Equation::from(v1.clone()), 1i64.into()]),
                CRow::unconditional(vec![pip_expr::Equation::val(2.0), 2i64.into()]),
            ],
        )
        .unwrap();
        db.insert_rows(
            "b",
            vec![
                CRow::unconditional(vec![pip_expr::Equation::val(2.0)]),
                CRow::unconditional(vec![pip_expr::Equation::from(v2)]),
            ],
        )
        .unwrap();
        let cfg = SamplerConfig::default();
        let plan = PlanBuilder::scan("a")
            .equi_join(PlanBuilder::scan("b"), vec![("x", "y")])
            .build();
        let streamed = lower(&db, &plan, &cfg).unwrap().collect().unwrap();
        let reference = algebra::equi_join(
            &db.table("a").unwrap(),
            &db.table("b").unwrap(),
            &[("x", "y")],
        )
        .unwrap();
        assert_eq!(streamed, reference);
        // All four pairs survive: the const=const key pair is kept
        // unconditionally, the three pairs with a symbolic side carry
        // hoisted equality atoms.
        assert_eq!(streamed.len(), 4);
        assert_eq!(
            streamed
                .rows()
                .iter()
                .filter(|r| !r.condition.is_trivially_true())
                .count(),
            3
        );
    }

    #[test]
    fn fused_stage_collapses_select_project_chain() {
        let db = join_db();
        let cfg = SamplerConfig::default();
        let plan = PlanBuilder::scan("l")
            .select(ScalarExpr::col("a").gt(ScalarExpr::lit(1i64)))
            .unwrap()
            .project(vec![(
                "a2",
                ScalarExpr::col("a").mul(ScalarExpr::lit(2i64)),
            )])
            .build();
        let phys = lower(&db, &plan, &cfg).unwrap();
        let text = phys.explain(false);
        assert!(text.starts_with("Fused: Filter:"), "{text}");
        assert!(text.contains("Project: [a2]"), "{text}");
        // One stage over one scan: exactly two operators.
        assert_eq!(phys.profiles().len(), 2, "{text}");
    }

    #[test]
    fn profiles_count_rows_and_depths() {
        let db = join_db();
        let cfg = SamplerConfig::default();
        let plan = PlanBuilder::scan("l")
            .equi_join(PlanBuilder::scan("r"), vec![("a", "c")])
            .limit(2)
            .build();
        let mut phys = lower(&db, &plan, &cfg).unwrap();
        let t = phys.collect().unwrap();
        assert_eq!(t.len(), 2);
        let profiles = phys.profiles();
        assert_eq!(profiles[0].name, "Limit: 2");
        assert_eq!(profiles[0].rows_out, 2);
        assert_eq!(profiles[0].depth, 0);
        assert!(profiles[1].name.starts_with("HashJoin"));
        assert_eq!(profiles[1].depth, 1);
        // Limit stopped the join after 2 rows.
        assert_eq!(profiles[1].rows_out, 2);
        let scan_l = profiles.iter().find(|p| p.name == "Scan: l").unwrap();
        // The probe side was not fully drained.
        assert!(scan_l.rows_out < 3, "{}", scan_l.rows_out);
        let analyzed = phys.explain(true);
        assert!(analyzed.contains("rows=2"), "{analyzed}");
    }

    #[test]
    fn limit_stops_pulling_upstream() {
        let db = join_db();
        let cfg = SamplerConfig::default();
        let plan = PlanBuilder::scan("l").limit(1).build();
        let mut phys = lower(&db, &plan, &cfg).unwrap();
        let t = phys.collect().unwrap();
        assert_eq!(t.len(), 1);
        let scans = phys.profiles();
        assert_eq!(scans[1].rows_out, 1, "scan pulled exactly one row");
    }

    #[test]
    fn join_candidates_merge_bucket_and_symbolic_rows() {
        let build = JoinBuild {
            rows: Vec::new(),
            buckets: vec![vec![0, 3, 5], vec![7]],
            bucket_of: HashMap::new(),
            symbolic: vec![1, 2, 4],
        };
        let walk = |bucket| {
            let mut c = JoinCandidates::Merge { bucket, i: 0, j: 0 };
            std::iter::from_fn(|| build.next_candidate(&mut c)).collect::<Vec<_>>()
        };
        assert_eq!(walk(Some(0)), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(walk(Some(1)), vec![1, 2, 4, 7]);
        assert_eq!(walk(None), vec![1, 2, 4]);
    }
}
