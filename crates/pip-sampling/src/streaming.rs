//! Streaming sampling heads for the pipelined executor.
//!
//! The table-based operators in [`crate::aggregate`] and
//! [`crate::confidence`] take a fully materialized [`CTable`]; a
//! pull-based physical plan instead produces rows one at a time. The
//! heads here consume that stream while reproducing the table-based
//! operators *bit for bit*:
//!
//! * [`ConfStream`] — the row-level `conf()` head. Rows are admitted in
//!   arrival order and their confidences computed a fixed-size wave at a
//!   time through [`run_indexed`]. Each row's sampler is seeded by its
//!   global row index (never by wave or thread), so every wave size and
//!   thread count produces the table operator's numbers. Each `conf`
//!   runs through the group kernels of [`crate::tape`].
//! * [`StreamingGroups`] — incremental group-by partitioning with the
//!   exact key semantics of [`pip_ctable::partition_by`]: deterministic
//!   keys only, groups emitted in first-appearance order. With no group
//!   columns it yields the single (possibly empty) whole-input group the
//!   aggregate executor expects.

use std::collections::HashMap;

use pip_core::{PipError, Result, Schema, Value};

use pip_ctable::{CRow, CTable};

use crate::confidence::conf;
use crate::config::SamplerConfig;
use crate::parallel::run_indexed;

/// Rows whose confidences are evaluated per wave of [`ConfStream`]. The
/// *values* are wave-size independent (each row's stream derives from
/// its global index), this only bounds latency and batch overhead.
pub const CONF_WAVE: usize = 16;

/// Streaming row-level confidence head: push rows, pop `(row, conf)`
/// pairs in row order.
pub struct ConfStream {
    cfg: SamplerConfig,
    pending: Vec<CRow>,
    /// Global index of `pending[0]` (rows admitted so far minus pending).
    base_index: u64,
}

impl ConfStream {
    pub fn new(cfg: &SamplerConfig) -> Self {
        ConfStream {
            cfg: cfg.clone(),
            pending: Vec::new(),
            base_index: 0,
        }
    }

    /// Evaluate every pending row's confidence (one wave).
    fn drain_wave(&mut self) -> Result<Vec<(CRow, f64)>> {
        let rows = std::mem::take(&mut self.pending);
        let base = self.base_index;
        self.base_index += rows.len() as u64;
        let confs = run_indexed(&self.cfg, rows.len(), |i| {
            conf(&rows[i].condition, &self.cfg, base + i as u64)
        })?;
        Ok(rows.into_iter().zip(confs).collect())
    }

    /// Admit one row. Returns a completed wave's `(row, conf)` pairs
    /// when the wave fills, an empty vec otherwise.
    pub fn push(&mut self, row: CRow) -> Result<Vec<(CRow, f64)>> {
        self.pending.push(row);
        if self.pending.len() >= CONF_WAVE {
            self.drain_wave()
        } else {
            Ok(Vec::new())
        }
    }

    /// Flush the final partial wave.
    pub fn finish(&mut self) -> Result<Vec<(CRow, f64)>> {
        if self.pending.is_empty() {
            return Ok(Vec::new());
        }
        self.drain_wave()
    }
}

/// Incremental deterministic-key partitioning for the aggregate head.
pub struct StreamingGroups {
    schema: Schema,
    idx: Vec<usize>,
    names: Vec<String>,
    order: Vec<Vec<Value>>,
    parts: HashMap<Vec<Value>, Vec<CRow>>,
}

impl StreamingGroups {
    /// Partition incoming rows of `schema` by the named columns.
    pub fn new(schema: Schema, cols: &[String]) -> Result<Self> {
        let idx = cols
            .iter()
            .map(|n| schema.index_of(n))
            .collect::<Result<Vec<_>>>()?;
        Ok(StreamingGroups {
            schema,
            idx,
            names: cols.to_vec(),
            order: Vec::new(),
            parts: HashMap::new(),
        })
    }

    /// Admit one row; errors on a symbolic (non-constant) key cell, the
    /// same restriction as [`pip_ctable::partition_by`].
    pub fn push(&mut self, row: CRow) -> Result<()> {
        let key = self
            .idx
            .iter()
            .zip(&self.names)
            .map(|(&i, name)| {
                row.cells[i].as_const().cloned().ok_or_else(|| {
                    PipError::Unsupported(format!("group-by on uncertain column '{name}'"))
                })
            })
            .collect::<Result<Vec<Value>>>()?;
        self.parts
            .entry(key.clone())
            .or_insert_with(|| {
                self.order.push(key);
                Vec::new()
            })
            .push(row);
        Ok(())
    }

    /// Emit `(key, sub-table)` pairs in first-appearance order. With no
    /// group columns the result is always exactly one group — the whole
    /// input, possibly empty — matching the scalar-aggregate convention.
    pub fn finish(mut self) -> Result<Vec<(Vec<Value>, CTable)>> {
        if self.idx.is_empty() {
            let rows = self.parts.remove(&Vec::new()).unwrap_or_default();
            return Ok(vec![(Vec::new(), CTable::new(self.schema, rows)?)]);
        }
        self.order
            .into_iter()
            .map(|key| {
                let rows = self.parts.remove(&key).expect("partition exists");
                Ok((key.clone(), CTable::new(self.schema.clone(), rows)?))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_core::{tuple, DataType};
    use pip_ctable::partition_by;
    use pip_dist::prelude::builtin;
    use pip_expr::{atoms, Conjunction, Equation, RandomVar};

    fn normal(mu: f64, sigma: f64) -> RandomVar {
        RandomVar::create(builtin::normal(), &[mu, sigma]).unwrap()
    }

    fn gated_table(n: usize) -> CTable {
        let schema = Schema::of(&[("v", DataType::Symbolic)]);
        let mut t = CTable::empty(schema);
        for i in 0..n {
            let y = normal(i as f64, 1.0);
            t.push(CRow::new(
                vec![Equation::val(i as f64)],
                Conjunction::single(atoms::gt(Equation::from(y), 0.5)),
            ))
            .unwrap();
        }
        t
    }

    #[test]
    fn conf_stream_matches_serial_conf_across_wave_boundaries() {
        // 37 rows: crosses two wave boundaries plus a partial tail.
        let t = gated_table(37);
        let cfg = SamplerConfig::default();
        let mut stream = ConfStream::new(&cfg.clone().with_threads(4));
        let mut got: Vec<(CRow, f64)> = Vec::new();
        for row in t.rows() {
            got.extend(stream.push(row.clone()).unwrap());
        }
        got.extend(stream.finish().unwrap());
        assert_eq!(got.len(), t.len());
        for (i, (row, p)) in got.iter().enumerate() {
            assert_eq!(row, &t.rows()[i], "row order preserved");
            assert_eq!(*p, conf(&row.condition, &cfg, i as u64).unwrap());
        }
        // finish() on an empty tail is a no-op.
        assert!(stream.finish().unwrap().is_empty());
    }

    #[test]
    fn streaming_groups_match_partition_by() {
        let schema = Schema::of(&[("g", DataType::Str), ("v", DataType::Int)]);
        let t = CTable::from_tuples(
            schema.clone(),
            &[
                tuple!["a", 1i64],
                tuple!["b", 2i64],
                tuple!["a", 3i64],
                tuple!["c", 4i64],
                tuple!["b", 5i64],
            ],
        )
        .unwrap();
        let mut g = StreamingGroups::new(schema, &["g".to_string()]).unwrap();
        for row in t.rows() {
            g.push(row.clone()).unwrap();
        }
        let streamed = g.finish().unwrap();
        let reference = partition_by(&t, &["g"]).unwrap();
        assert_eq!(streamed.len(), reference.len());
        for ((k1, t1), (k2, t2)) in streamed.iter().zip(&reference) {
            assert_eq!(k1, k2);
            assert_eq!(t1.rows(), t2.rows());
        }
    }

    #[test]
    fn streaming_groups_scalar_convention_and_symbolic_keys() {
        let schema = Schema::of(&[("v", DataType::Symbolic)]);
        // No group columns, no rows: still one (empty) group.
        let g = StreamingGroups::new(schema.clone(), &[]).unwrap();
        let out = g.finish().unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].0.is_empty());
        assert!(out[0].1.is_empty());
        // Symbolic key cells are rejected at push time.
        let mut g = StreamingGroups::new(schema, &["v".to_string()]).unwrap();
        let y = normal(0.0, 1.0);
        let err = g.push(CRow::unconditional(vec![Equation::from(y)]));
        assert!(matches!(err, Err(PipError::Unsupported(_))));
    }
}
