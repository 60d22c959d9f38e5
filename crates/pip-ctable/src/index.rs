//! Ordered secondary indexes over one column of a c-table.
//!
//! An [`OrderedIndex`] is a sorted run of `(key, row_id)` pairs over the
//! rows whose cell in the indexed column is a *constant*, plus a list of
//! the remaining rows (symbolic cells — equations over random
//! variables). Keys are ordered by [`Value::cmp_total`], the same total
//! order every deterministic comparison in the engine goes through
//! (`Atom::const_truth`, `sql_eq`), so a seek range computed with
//! `cmp_total` bounds selects exactly the constant cells a full scan's
//! predicate would decide on.
//!
//! The contract consumed by the physical operators is *candidate
//! superset, base order*: [`OrderedIndex::seek`] and
//! [`OrderedIndex::equal_candidates`] return row ids in ascending
//! (insertion) order, always including every symbolic row — a symbolic
//! comparison never drops a row, it hoists a condition atom, so those
//! rows must reach the residual filter. Emitting candidates in base
//! order (not key order) is what keeps index plans row-identical — and
//! therefore sample-site- and bit-identical — to their full-scan
//! equivalents.
//!
//! Maintenance is incremental and in place: [`OrderedIndex::append`]
//! merges a sorted batch of new entries in O(existing + new) and
//! binary-search inserts a single one, matching the catalog's INSERT
//! path, which appends to the table and its indexes in place (copying
//! them first only while a reader still holds the old snapshot).

use pip_core::{PipError, Result, Value};

use crate::ctable::{CRow, CTable};

/// Inclusive/exclusive bound of a seek range.
pub type Bound = (Value, bool);

/// An ordered index over one column: sorted `(key, row_id)` entries for
/// constant cells, plus the symbolic rows that every probe must visit.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderedIndex {
    /// Indexed cell position in the table schema.
    column: usize,
    /// `(key, row_id)` sorted by `(cmp_total, row_id)`.
    entries: Vec<(Value, u32)>,
    /// Rows whose indexed cell is symbolic, ascending.
    others: Vec<u32>,
    /// Rows covered (entries + others); the next row id to assign.
    covered: u32,
}

impl OrderedIndex {
    /// Build an index over `column` from scratch.
    pub fn build(table: &CTable, column: usize) -> Result<OrderedIndex> {
        if column >= table.schema().len() {
            return Err(PipError::Schema(format!(
                "index column {column} out of range for schema of {} columns",
                table.schema().len()
            )));
        }
        let mut idx = OrderedIndex {
            column,
            entries: Vec::new(),
            others: Vec::new(),
            covered: 0,
        };
        idx.append(table.rows());
        Ok(idx)
    }

    /// Extend the index in place with `rows`, which the table has just
    /// appended after the [`covered_rows`](Self::covered_rows) it had
    /// (row ids continue from there). A batch is sorted and merged into
    /// the entries once; a single row is a binary-search insert, which
    /// for keys that only grow is a push.
    pub fn append(&mut self, rows: &[CRow]) {
        let mut fresh: Vec<(Value, u32)> = Vec::new();
        for (id, row) in (self.covered..).zip(rows) {
            match row.cells[self.column].as_const() {
                Some(v) => fresh.push((v.clone(), id)),
                None => self.others.push(id),
            }
        }
        self.covered += rows.len() as u32;
        if let [(key, _)] = fresh.as_slice() {
            // Every existing id is below the new one, so it goes after
            // all cmp_total-equal keys.
            let at = self
                .entries
                .partition_point(|(k, _)| k.cmp_total(key).is_le());
            self.entries.insert(at, fresh.pop().expect("one entry"));
            return;
        }
        fresh.sort_by(|a, b| a.0.cmp_total(&b.0).then(a.1.cmp(&b.1)));
        match (self.entries.last(), fresh.first()) {
            (Some(last), Some(first)) if last.0.cmp_total(&first.0).is_gt() => {
                let old = std::mem::take(&mut self.entries);
                self.entries = merge_entries(old, fresh);
            }
            // Appended keys all sort after the existing run (monotone
            // inserts): plain extend.
            _ => self.entries.extend(fresh),
        }
    }

    /// Indexed cell position.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Rows covered by the index.
    pub fn covered_rows(&self) -> u32 {
        self.covered
    }

    /// Sorted constant entries (tests and byte-identity checks).
    pub fn entries(&self) -> &[(Value, u32)] {
        &self.entries
    }

    /// Symbolic rows, ascending (always candidates).
    pub fn others(&self) -> &[u32] {
        &self.others
    }

    /// First entry position whose key is not below `bound` (when
    /// `inclusive`) / not at-or-below `bound` (when exclusive).
    fn lower_pos(&self, bound: &Value, inclusive: bool) -> usize {
        self.entries.partition_point(|(k, _)| {
            let ord = k.cmp_total(bound);
            if inclusive {
                ord.is_lt()
            } else {
                ord.is_le()
            }
        })
    }

    /// One past the last entry position inside an upper `bound`.
    fn upper_pos(&self, bound: &Value, inclusive: bool) -> usize {
        self.entries.partition_point(|(k, _)| {
            let ord = k.cmp_total(bound);
            if inclusive {
                ord.is_le()
            } else {
                ord.is_lt()
            }
        })
    }

    /// Candidate row ids for a range seek, ascending: constant cells
    /// inside the `cmp_total` range `[lo, hi]` (each bound optional,
    /// inclusive or exclusive) merged with every symbolic row.
    pub fn seek(&self, lo: Option<&Bound>, hi: Option<&Bound>) -> Vec<u32> {
        let start = lo.map_or(0, |(v, inc)| self.lower_pos(v, *inc));
        let end = hi.map_or(self.entries.len(), |(v, inc)| self.upper_pos(v, *inc));
        let mut hits: Vec<u32> = self.entries[start..end.max(start)]
            .iter()
            .map(|(_, id)| *id)
            .collect();
        hits.sort_unstable();
        merge_ids(&hits, &self.others)
    }

    /// Candidate row ids for an equality probe, ascending: constant
    /// cells `cmp_total`-equal to `key` (the engine's `sql_eq`) merged
    /// with every symbolic row.
    pub fn equal_candidates(&self, key: &Value) -> Vec<u32> {
        let start = self.lower_pos(key, true);
        let end = self.upper_pos(key, true);
        let mut hits: Vec<u32> = self.entries[start..end.max(start)]
            .iter()
            .map(|(_, id)| *id)
            .collect();
        hits.sort_unstable();
        merge_ids(&hits, &self.others)
    }
}

/// Merge two `(key, row_id)` runs sorted by `(cmp_total, row_id)`.
fn merge_entries(a: Vec<(Value, u32)>, b: Vec<(Value, u32)>) -> Vec<(Value, u32)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ai, mut bi) = (a.into_iter().peekable(), b.into_iter().peekable());
    loop {
        match (ai.peek(), bi.peek()) {
            (Some(x), Some(y)) => {
                if x.0.cmp_total(&y.0).then(x.1.cmp(&y.1)).is_le() {
                    out.push(ai.next().expect("peeked"));
                } else {
                    out.push(bi.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.push(ai.next().expect("peeked")),
            (None, Some(_)) => out.push(bi.next().expect("peeked")),
            (None, None) => return out,
        }
    }
}

/// Merge two ascending row-id lists into one ascending list.
fn merge_ids(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_core::{DataType, Schema};
    use pip_dist::prelude::builtin;
    use pip_expr::{Equation, RandomVar};

    fn table(keys: &[Option<i64>]) -> CTable {
        let schema = Schema::of(&[("k", DataType::Symbolic), ("v", DataType::Int)]);
        let rows = keys
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let cell = match k {
                    Some(x) => Equation::val(*x),
                    None => {
                        let v = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
                        Equation::from(v)
                    }
                };
                CRow::unconditional(vec![cell, Equation::val(i as i64)])
            })
            .collect();
        CTable::new(schema, rows).unwrap()
    }

    #[test]
    fn build_splits_constant_and_symbolic_cells() {
        let t = table(&[Some(5), None, Some(2), Some(9), None]);
        let idx = OrderedIndex::build(&t, 0).unwrap();
        assert_eq!(idx.covered_rows(), 5);
        assert_eq!(idx.others(), &[1, 4]);
        let keys: Vec<i64> = idx
            .entries()
            .iter()
            .map(|(v, _)| match v {
                Value::Int(i) => *i,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(keys, vec![2, 5, 9]);
    }

    #[test]
    fn seek_ranges_are_ascending_supersets() {
        let t = table(&[Some(5), None, Some(2), Some(9), Some(5)]);
        let idx = OrderedIndex::build(&t, 0).unwrap();
        // k < 5: row 2 (k=2) plus the symbolic row 1.
        let lo = idx.seek(None, Some(&(Value::Int(5), false)));
        assert_eq!(lo, vec![1, 2]);
        // k <= 5: adds both k=5 rows, ascending.
        let le = idx.seek(None, Some(&(Value::Int(5), true)));
        assert_eq!(le, vec![0, 1, 2, 4]);
        // 2 < k <= 9: everything but row 2's key, still ascending.
        let mid = idx.seek(Some(&(Value::Int(2), false)), Some(&(Value::Int(9), true)));
        assert_eq!(mid, vec![0, 1, 3, 4]);
        // Unbounded: every row.
        assert_eq!(idx.seek(None, None), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn equality_probes_match_sql_eq_across_int_and_float() {
        let schema = Schema::of(&[("k", DataType::Symbolic)]);
        let rows = vec![
            CRow::unconditional(vec![Equation::val(1i64)]),
            CRow::unconditional(vec![Equation::val(1.0f64)]),
            CRow::unconditional(vec![Equation::val(2i64)]),
        ];
        let t = CTable::new(schema, rows).unwrap();
        let idx = OrderedIndex::build(&t, 0).unwrap();
        // Int(1) and Float(1.0) are cmp_total-equal — exactly sql_eq.
        assert_eq!(idx.equal_candidates(&Value::Int(1)), vec![0, 1]);
        assert_eq!(idx.equal_candidates(&Value::Float(2.0)), vec![2]);
        assert!(idx.equal_candidates(&Value::Int(7)).is_empty());
    }

    #[test]
    fn append_matches_full_rebuild() {
        let t = table(&[Some(5), None, Some(2), Some(3), Some(7)]);
        let prefix = CTable::new(t.schema().clone(), t.rows()[..3].to_vec()).unwrap();
        let mut idx = OrderedIndex::build(&prefix, 0).unwrap();
        idx.append(&t.rows()[3..]);
        assert_eq!(idx, OrderedIndex::build(&t, 0).unwrap());
    }

    #[test]
    fn monotone_append_fast_path_stays_sorted() {
        let t = table(&[Some(1), Some(2), Some(3), Some(4)]);
        let prefix = CTable::new(t.schema().clone(), t.rows()[..2].to_vec()).unwrap();
        let mut idx = OrderedIndex::build(&prefix, 0).unwrap();
        idx.append(&t.rows()[2..]);
        assert_eq!(idx, OrderedIndex::build(&t, 0).unwrap());
    }

    /// Code `4k + r` is a symbolic cell (`r = 0`), `Int(k)` (`r = 1`),
    /// `Float(k)` (`r = 2`, `cmp_total`-equal to `Int(k)`) or
    /// `Float(k + 0.5)` (`r = 3`); sorted codes give monotone keys.
    fn coded_row(code: i64) -> CRow {
        let k = code / 4;
        let cell = match code % 4 {
            0 => Equation::from(RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap()),
            1 => Equation::val(k),
            2 => Equation::val(k as f64),
            _ => Equation::val(k as f64 + 0.5),
        };
        CRow::unconditional(vec![cell, Equation::val(code)])
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Appending rows in batches of any size (1 is the binary-search
        /// insert, more the sorted merge) gives the index `build` makes
        /// over the same rows.
        #[test]
        fn append_equals_build(
            codes in proptest::collection::vec(0i64..48, 0..60),
            batches in proptest::collection::vec(0i64..6, 1..10),
            monotone in 0i64..2,
        ) {
            let mut codes = codes;
            if monotone == 1 {
                codes.sort_unstable();
            }
            let rows: Vec<CRow> = codes.into_iter().map(coded_row).collect();
            let schema = Schema::of(&[("k", DataType::Symbolic), ("v", DataType::Int)]);
            let mut idx = OrderedIndex::build(&CTable::empty(schema.clone()), 0).unwrap();
            let mut start = 0;
            for size in batches.into_iter().map(|b| b as usize).chain([rows.len()]) {
                let end = (start + size).min(rows.len());
                idx.append(&rows[start..end]);
                start = end;
                let prefix = CTable::new(schema.clone(), rows[..end].to_vec()).unwrap();
                proptest::prop_assert_eq!(&idx, &OrderedIndex::build(&prefix, 0).unwrap());
            }
        }
    }

    #[test]
    fn column_out_of_range_rejected() {
        let t = table(&[Some(1)]);
        assert!(OrderedIndex::build(&t, 2).is_err());
    }
}
