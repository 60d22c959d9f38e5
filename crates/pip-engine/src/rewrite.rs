//! The PIP query rewriter (paper Section V-A).
//!
//! In the Postgres plugin, CTYPE (condition-typed) expressions appearing
//! in `WHERE` clauses are *moved into the row condition* rather than
//! evaluated as booleans, so deterministic query machinery never sees
//! probabilistic data. This module performs the equivalent step for our
//! engine: it compiles a [`ScalarExpr`] against a row's symbolic cells
//! and splits the result into a statically-known part (filter now) and a
//! symbolic part (atoms to conjoin to the row's condition).

use pip_core::{PipError, Result, Schema};
use pip_expr::{Atom, Equation};

use pip_ctable::SelectOutcome;

use crate::catalog::Database;
use crate::plan::ScalarExpr;

/// Compile a scalar (value) expression into an [`Equation`] over a row's
/// cells. `CREATE_VARIABLE` allocates a fresh variable per invocation.
///
/// A bare column reference is an identity projection: its cell is copied
/// verbatim. Anything else is compiled and simplified in one pass, each
/// node built from simplified operands, so the result equals compiling
/// the tree and then calling [`Equation::simplify`], and a node a rule
/// removes is never allocated.
pub fn compile_scalar(
    expr: &ScalarExpr,
    schema: &Schema,
    cells: &[Equation],
    db: &Database,
) -> Result<Equation> {
    match expr {
        ScalarExpr::Column(name) => Ok(cells[schema.index_of(name)?].clone()),
        other => compile_node(other, schema, cells, db),
    }
}

/// One simplified node of [`compile_scalar`].
fn compile_node(
    expr: &ScalarExpr,
    schema: &Schema,
    cells: &[Equation],
    db: &Database,
) -> Result<Equation> {
    Ok(match expr {
        ScalarExpr::Column(name) => cells[schema.index_of(name)?].simplify(),
        ScalarExpr::Literal(v) => Equation::Const(v.clone()),
        ScalarExpr::Var(v) => Equation::Var(v.clone()),
        ScalarExpr::CreateVariable { class, params } => {
            Equation::Var(db.create_variable(class, params)?)
        }
        ScalarExpr::Binary { op, left, right } => Equation::simplified_binary(
            *op,
            compile_node(left, schema, cells, db)?,
            compile_node(right, schema, cells, db)?,
        ),
        ScalarExpr::Neg(e) => Equation::simplified_neg(compile_node(e, schema, cells, db)?),
        ScalarExpr::Cmp { .. } | ScalarExpr::And(_) => {
            return Err(PipError::Sql(
                "boolean expression used where a value is required".into(),
            ))
        }
    })
}

/// Compile a predicate against a row: the CTYPE hoisting step.
///
/// Deterministic comparisons are decided immediately (`Keep`/`Drop`);
/// comparisons touching random variables become condition atoms.
pub fn compile_predicate(
    pred: &ScalarExpr,
    schema: &Schema,
    cells: &[Equation],
    db: &Database,
) -> Result<SelectOutcome> {
    let mut atoms: Vec<Atom> = Vec::new();
    if !collect_atoms(pred, schema, cells, db, &mut atoms)? {
        return Ok(SelectOutcome::Drop);
    }
    if atoms.is_empty() {
        Ok(SelectOutcome::Keep)
    } else {
        Ok(SelectOutcome::Conditional(atoms))
    }
}

/// Walk a predicate tree; returns `false` when statically refuted.
fn collect_atoms(
    pred: &ScalarExpr,
    schema: &Schema,
    cells: &[Equation],
    db: &Database,
    atoms: &mut Vec<Atom>,
) -> Result<bool> {
    match pred {
        ScalarExpr::And(ps) => {
            for p in ps {
                if !collect_atoms(p, schema, cells, db, atoms)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        ScalarExpr::Cmp { op, left, right } => {
            // Simplified sides; only a bare column needs the call.
            let l = compile_scalar(left, schema, cells, db)?.simplify();
            let r = compile_scalar(right, schema, cells, db)?.simplify();
            let atom = Atom::new(l, *op, r);
            match atom.const_truth() {
                Some(true) => Ok(true),
                Some(false) => Ok(false),
                None => {
                    atoms.push(atom);
                    Ok(true)
                }
            }
        }
        other => Err(PipError::Sql(format!(
            "unsupported predicate shape: {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_core::{DataType, Value};
    use pip_expr::CmpOp;

    fn setup() -> (Database, Schema, Vec<Equation>) {
        let db = Database::new();
        let schema = Schema::of(&[("name", DataType::Str), ("price", DataType::Symbolic)]);
        let y = db.create_variable("Normal", &[100.0, 10.0]).unwrap();
        let cells = vec![Equation::val(Value::str("Joe")), Equation::from(y)];
        (db, schema, cells)
    }

    #[test]
    fn deterministic_predicate_decided_statically() {
        let (db, schema, cells) = setup();
        let keep = ScalarExpr::col("name").eq(ScalarExpr::lit("Joe"));
        assert_eq!(
            compile_predicate(&keep, &schema, &cells, &db).unwrap(),
            SelectOutcome::Keep
        );
        let drop = ScalarExpr::col("name").eq(ScalarExpr::lit("Bob"));
        assert_eq!(
            compile_predicate(&drop, &schema, &cells, &db).unwrap(),
            SelectOutcome::Drop
        );
    }

    #[test]
    fn symbolic_predicate_hoists_atoms() {
        let (db, schema, cells) = setup();
        let p = ScalarExpr::col("price").ge(ScalarExpr::lit(90.0));
        match compile_predicate(&p, &schema, &cells, &db).unwrap() {
            SelectOutcome::Conditional(atoms) => {
                assert_eq!(atoms.len(), 1);
                assert_eq!(atoms[0].op, CmpOp::Ge);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mixed_and_short_circuits_on_static_false() {
        let (db, schema, cells) = setup();
        let p = ScalarExpr::col("name")
            .eq(ScalarExpr::lit("Bob"))
            .and(ScalarExpr::col("price").ge(ScalarExpr::lit(90.0)));
        assert_eq!(
            compile_predicate(&p, &schema, &cells, &db).unwrap(),
            SelectOutcome::Drop
        );
    }

    #[test]
    fn scalar_compilation_arithmetic() {
        let (db, schema, cells) = setup();
        let e = ScalarExpr::col("price")
            .mul(ScalarExpr::lit(2.0))
            .add(ScalarExpr::lit(1.0));
        let eq = compile_scalar(&e, &schema, &cells, &db).unwrap();
        assert_eq!(eq.variables().len(), 1);
        let bad = ScalarExpr::col("nope");
        assert!(compile_scalar(&bad, &schema, &cells, &db).is_err());
        // One pass gives what compiling and then simplifying gives; a
        // bare column is its cell verbatim.
        assert_eq!(
            compile_scalar(&ScalarExpr::col("price"), &schema, &cells, &db).unwrap(),
            cells[1]
        );
        for e in [
            e,
            ScalarExpr::col("price").mul(ScalarExpr::lit(1.0)),
            ScalarExpr::lit(2.0)
                .mul(ScalarExpr::lit(3.0))
                .add(ScalarExpr::col("price")),
            ScalarExpr::Neg(Box::new(ScalarExpr::Neg(Box::new(ScalarExpr::col(
                "price",
            ))))),
            ScalarExpr::col("price")
                .sub(ScalarExpr::col("price"))
                .mul(ScalarExpr::lit(0.0)),
        ] {
            assert_eq!(
                compile_scalar(&e, &schema, &cells, &db).unwrap(),
                compile_unsimplified(&e, &schema, &cells).simplify()
            );
        }
    }

    /// The tree `compile_scalar` simplifies as it builds, unsimplified
    /// (no `CREATE_VARIABLE`).
    fn compile_unsimplified(expr: &ScalarExpr, schema: &Schema, cells: &[Equation]) -> Equation {
        match expr {
            ScalarExpr::Column(name) => cells[schema.index_of(name).unwrap()].clone(),
            ScalarExpr::Literal(v) => Equation::Const(v.clone()),
            ScalarExpr::Var(v) => Equation::Var(v.clone()),
            ScalarExpr::Binary { op, left, right } => Equation::binary(
                *op,
                compile_unsimplified(left, schema, cells),
                compile_unsimplified(right, schema, cells),
            ),
            ScalarExpr::Neg(e) => compile_unsimplified(e, schema, cells).neg(),
            other => panic!("not a value expression: {other:?}"),
        }
    }

    #[test]
    fn create_variable_allocates_fresh() {
        let (db, schema, cells) = setup();
        let e = ScalarExpr::CreateVariable {
            class: "Exponential".into(),
            params: vec![1.0],
        };
        let a = compile_scalar(&e, &schema, &cells, &db).unwrap();
        let b = compile_scalar(&e, &schema, &cells, &db).unwrap();
        let (va, vb) = (a.variables(), b.variables());
        assert_ne!(va[0].key, vb[0].key, "each evaluation is a new variable");
    }

    #[test]
    fn value_in_boolean_position_rejected() {
        let (db, schema, cells) = setup();
        let e = ScalarExpr::lit(1i64);
        let mut atoms = Vec::new();
        assert!(collect_atoms(&e, &schema, &cells, &db, &mut atoms).is_err());
        let b = ScalarExpr::col("price").gt(ScalarExpr::lit(0.0));
        assert!(compile_scalar(&b, &schema, &cells, &db).is_err());
    }
}
