//! Row-at-a-time views of the Figure 1 algebra.
//!
//! The operators in [`crate::algebra`] consume and produce whole
//! [`CTable`](crate::CTable)s; a pipelined executor instead wants the same condition
//! manipulation one row at a time, so intermediate tables never
//! materialize. The helpers here are the per-row kernels of σ, π and ×
//! — each is definitionally identical to the corresponding whole-table
//! operator applied to a singleton table, which is what the executor
//! equivalence tests rely on.

use pip_expr::{simplify_row_condition, Equation};

use crate::algebra::SelectOutcome;
use crate::ctable::CRow;

/// σ on one row: apply a precomputed [`SelectOutcome`] to an owned row.
///
/// `Keep` passes the row through, `Drop` discards it, and `Conditional`
/// conjoins the hoisted atoms to the row's condition and re-simplifies —
/// rows whose condition collapses to `false` vanish, exactly as in
/// [`crate::algebra::select`]. The atoms move into the condition; an
/// already simplified result is not copied again.
pub fn filter_row(row: CRow, outcome: SelectOutcome) -> Option<CRow> {
    match outcome {
        SelectOutcome::Keep => Some(row),
        SelectOutcome::Drop => None,
        SelectOutcome::Conditional(atoms) => {
            let cond = row.condition.and_atoms(atoms);
            simplify_row_condition(cond).map(|cond| CRow::new(row.cells, cond))
        }
    }
}

/// π (generalized) on one row: replace the cells, keep (move) the
/// condition.
pub fn map_row(row: CRow, cells: Vec<Equation>) -> CRow {
    CRow::new(cells, row.condition)
}

/// × on one row pair: concatenate cells, conjoin conditions.
///
/// Returns `None` when the conjoined condition is statically false, the
/// same dead-row pruning [`crate::algebra::product`] performs.
pub fn join_rows(left: &CRow, right: &CRow) -> Option<CRow> {
    let cond = left.condition.and(&right.condition);
    simplify_row_condition(cond).map(|cond| {
        let mut cells = Vec::with_capacity(left.cells.len() + right.cells.len());
        cells.extend(left.cells.iter().cloned());
        cells.extend(right.cells.iter().cloned());
        CRow::new(cells, cond)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra;
    use crate::ctable::CTable;
    use pip_core::{DataType, Schema};
    use pip_dist::prelude::builtin;
    use pip_expr::{atoms, Conjunction, RandomVar};

    fn yvar() -> RandomVar {
        RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap()
    }

    #[test]
    fn filter_row_matches_algebra_select() {
        let y = yvar();
        let row = CRow::new(
            vec![Equation::from(y.clone())],
            Conjunction::single(atoms::gt(Equation::from(y.clone()), 0.0)),
        );
        // Keep / Drop.
        assert!(filter_row(row.clone(), SelectOutcome::Keep).is_some());
        assert!(filter_row(row.clone(), SelectOutcome::Drop).is_none());
        // Conditional: conjoined and simplified like algebra::select.
        let atoms_v = vec![atoms::lt(Equation::from(y.clone()), 5.0)];
        let streamed = filter_row(row.clone(), SelectOutcome::Conditional(atoms_v.clone()));
        let table = CTable::new(Schema::of(&[("v", DataType::Symbolic)]), vec![row]).unwrap();
        let full =
            algebra::select(&table, |_| Ok(SelectOutcome::Conditional(atoms_v.clone()))).unwrap();
        assert_eq!(streamed.as_ref(), full.rows().first());
        // A statically-false atom kills the row in both views.
        let dead = filter_row(
            CRow::unconditional(vec![Equation::val(1.0)]),
            SelectOutcome::Conditional(vec![atoms::gt(1.0, 2.0)]),
        );
        assert!(dead.is_none());
    }

    #[test]
    fn join_rows_matches_algebra_product() {
        let y = yvar();
        let z = yvar();
        let l = CRow::new(
            vec![Equation::from(y.clone())],
            Conjunction::single(atoms::gt(Equation::from(y.clone()), 4.0)),
        );
        let r = CRow::new(
            vec![Equation::from(z.clone())],
            Conjunction::single(atoms::gt(Equation::from(z.clone()), 2.0)),
        );
        let joined = join_rows(&l, &r).unwrap();
        let schema = Schema::of(&[("v", DataType::Symbolic)]);
        let lt = CTable::new(schema.clone(), vec![l]).unwrap();
        let rt = CTable::new(schema, vec![r]).unwrap();
        let full = algebra::product(&lt, &rt).unwrap();
        assert_eq!(&joined, &full.rows()[0]);
        // A statically-false condition on either side prunes the pair
        // (matching product's dead-row elimination).
        let a = CRow::new(
            vec![Equation::val(1.0)],
            Conjunction::single(atoms::gt(Equation::from(y), 1.0)),
        );
        let b = CRow::new(
            vec![Equation::val(2.0)],
            Conjunction::single(atoms::gt(1.0, 2.0)),
        );
        assert!(join_rows(&a, &b).is_none());
    }

    #[test]
    fn map_row_keeps_condition() {
        let y = yvar();
        let row = CRow::new(
            vec![Equation::val(3.0)],
            Conjunction::single(atoms::gt(Equation::from(y), 0.0)),
        );
        let mapped = map_row(row.clone(), vec![Equation::val(6.0)]);
        assert_eq!(mapped.condition, row.condition);
        assert_eq!(mapped.cells, vec![Equation::val(6.0)]);
    }
}
