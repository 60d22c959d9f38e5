//! Constraint atoms: comparisons between equations.
//!
//! C-table conditions are boolean formulas over atoms of the form
//! `eq₁ θ eq₂` with θ ∈ {<, ≤, >, ≥, =, ≠} (paper Section II-A). PIP
//! keeps per-row conditions in conjunctive form; disjunction is encoded
//! by bag semantics (one row per disjunct) and re-coalesced by DISTINCT.

use std::fmt;

use pip_core::{Result, Value};

use crate::equation::{Equation, LinearForm};
use crate::vars::{Assignment, RandomVar};

/// Comparison operator of an atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    /// The operator satisfied exactly when `self` is not.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
        }
    }

    /// Mirror image: `a θ b  ⇔  b θ' a`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }

    pub fn eval_f64(self, l: f64, r: f64) -> bool {
        match self {
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
        }
    }

    pub fn eval_value(self, l: &Value, r: &Value) -> bool {
        let ord = l.cmp_total(r);
        match self {
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
        }
    }
}

/// One constraint atom `left θ right`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    pub left: Equation,
    pub op: CmpOp,
    pub right: Equation,
}

impl Atom {
    pub fn new(left: impl Into<Equation>, op: CmpOp, right: impl Into<Equation>) -> Self {
        Atom {
            left: left.into(),
            op,
            right: right.into(),
        }
    }

    /// Logical negation (`¬(a < b)` is `a ≥ b`).
    pub fn negate(&self) -> Atom {
        Atom {
            left: self.left.clone(),
            op: self.op.negate(),
            right: self.right.clone(),
        }
    }

    /// True if no random variables occur on either side.
    pub fn is_deterministic(&self) -> bool {
        self.left.is_deterministic() && self.right.is_deterministic()
    }

    /// For a deterministic atom, its truth value; `None` otherwise.
    ///
    /// String comparisons are honoured; mixed string/number comparisons
    /// use the total value order.
    pub fn const_truth(&self) -> Option<bool> {
        let l = self.left.as_const()?;
        let r = self.right.as_const()?;
        Some(self.op.eval_value(l, r))
    }

    /// Evaluate under a variable assignment.
    pub fn eval(&self, assignment: &Assignment) -> Result<bool> {
        // Deterministic (possibly string-valued) comparisons go through
        // Value ordering; variable-bearing ones through numeric eval.
        if let (Some(l), Some(r)) = (self.left.as_const(), self.right.as_const()) {
            return Ok(self.op.eval_value(l, r));
        }
        Ok(self.op.eval_f64(
            self.left.eval_f64(assignment)?,
            self.right.eval_f64(assignment)?,
        ))
    }

    /// All distinct variables mentioned by the atom.
    pub fn variables(&self) -> Vec<RandomVar> {
        let mut out = Vec::new();
        self.left.collect_vars(&mut out);
        self.right.collect_vars(&mut out);
        out
    }

    /// Call `f` on every variable occurrence, left side first.
    pub fn for_each_var<'a>(&'a self, f: &mut impl FnMut(&'a RandomVar)) {
        self.left.for_each_var(f);
        self.right.for_each_var(f);
    }

    /// Rewrite as `expr θ 0` (left minus right), simplified. The
    /// normalized form feeds the linear bounds propagation.
    pub fn normalized(&self) -> (Equation, CmpOp) {
        ((self.left.clone() - self.right.clone()).simplify(), self.op)
    }

    /// The affine form of `left − right`, as
    /// `self.normalized().0.linear_coeffs()` returns it, bit for bit —
    /// but without building the difference: over simplified sides,
    /// simplifying `left − right` only drops a zero right side, so the
    /// walk takes `left` at scale +1 and `right` at −1 directly. Any other
    /// atom goes through the tree.
    pub fn linear_form(&self) -> Option<LinearForm> {
        let (l, r) = (&self.left, &self.right);
        let both_const = l.as_const().is_some() && r.as_const().is_some();
        if both_const || !l.is_simplified() || !r.is_simplified() {
            return self.normalized().0.linear_coeffs();
        }
        let right_is_zero = r.as_const().and_then(|v| v.as_f64().ok()) == Some(0.0);
        let mut form = LinearForm::default();
        (form.add(l, 1.0) && (right_is_zero || form.add(r, -1.0))).then(|| form.finish())
    }

    /// Equality atom over continuous variables carries zero probability
    /// mass (paper Section III-C case 3): `Y = c` can be *treated as*
    /// inconsistent, `Y ≠ c` as true — unless the two sides are
    /// syntactically identical.
    pub fn is_zero_measure_eq(&self) -> bool {
        self.op == CmpOp::Eq
            && !self.is_deterministic()
            && self.left != self.right
            && self.has_continuous_var()
    }

    fn has_continuous_var(&self) -> bool {
        let mut continuous = false;
        self.for_each_var(&mut |v| continuous |= !v.is_discrete());
        continuous
    }

    /// Dual of [`Atom::is_zero_measure_eq`]: `Y ≠ (·)` is almost surely
    /// true for continuous `Y` (unless trivially `Y ≠ Y`).
    pub fn is_almost_surely_true_ne(&self) -> bool {
        self.op == CmpOp::Ne
            && !self.is_deterministic()
            && self.left != self.right
            && self.has_continuous_var()
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op.symbol(), self.right)
    }
}

/// Shorthand constructors used all over the tests and workloads.
pub mod atoms {
    use super::*;

    pub fn lt(l: impl Into<Equation>, r: impl Into<Equation>) -> Atom {
        Atom::new(l, CmpOp::Lt, r)
    }
    pub fn le(l: impl Into<Equation>, r: impl Into<Equation>) -> Atom {
        Atom::new(l, CmpOp::Le, r)
    }
    pub fn gt(l: impl Into<Equation>, r: impl Into<Equation>) -> Atom {
        Atom::new(l, CmpOp::Gt, r)
    }
    pub fn ge(l: impl Into<Equation>, r: impl Into<Equation>) -> Atom {
        Atom::new(l, CmpOp::Ge, r)
    }
    pub fn eq(l: impl Into<Equation>, r: impl Into<Equation>) -> Atom {
        Atom::new(l, CmpOp::Eq, r)
    }
    pub fn ne(l: impl Into<Equation>, r: impl Into<Equation>) -> Atom {
        Atom::new(l, CmpOp::Ne, r)
    }
}

#[cfg(test)]
mod tests {
    use super::atoms::*;
    use super::*;
    use crate::vars::RandomVar;
    use pip_dist::prelude::builtin;

    fn y() -> RandomVar {
        RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap()
    }

    fn d() -> RandomVar {
        RandomVar::create(builtin::bernoulli(), &[0.5]).unwrap()
    }

    #[test]
    fn negate_and_flip_are_involutions_through_eval() {
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            for (l, r) in [(1.0, 2.0), (2.0, 2.0), (3.0, 2.0)] {
                assert_eq!(op.eval_f64(l, r), !op.negate().eval_f64(l, r));
                assert_eq!(op.eval_f64(l, r), op.flip().eval_f64(r, l));
                assert_eq!(op.negate().negate(), op);
            }
        }
    }

    #[test]
    fn const_truth_for_deterministic_atoms() {
        assert_eq!(lt(1.0, 2.0).const_truth(), Some(true));
        assert_eq!(ge(1.0, 2.0).const_truth(), Some(false));
        let v = y();
        assert_eq!(gt(Equation::from(v), 0.0).const_truth(), None);
        // strings compare lexicographically
        let s = Atom::new(
            Equation::val(Value::str("LA")),
            CmpOp::Lt,
            Equation::val(Value::str("NY")),
        );
        assert_eq!(s.const_truth(), Some(true));
    }

    #[test]
    fn eval_under_assignment() {
        let v = y();
        let mut a = Assignment::new();
        a.set(v.key, 7.5);
        let atom = ge(Equation::from(v.clone()), 7.0);
        assert!(atom.eval(&a).unwrap());
        assert!(!atom.negate().eval(&a).unwrap());
        let unbound = gt(Equation::from(y()), 0.0);
        assert!(unbound.eval(&a).is_err());
    }

    #[test]
    fn zero_measure_equalities() {
        let v = y();
        let eq_atom = eq(Equation::from(v.clone()), 3.0);
        assert!(eq_atom.is_zero_measure_eq());
        let identity = Atom::new(
            Equation::from(v.clone()),
            CmpOp::Eq,
            Equation::from(v.clone()),
        );
        assert!(!identity.is_zero_measure_eq());
        let ne_atom = ne(Equation::from(v), 3.0);
        assert!(ne_atom.is_almost_surely_true_ne());
        // Discrete equality has mass — not zero-measure.
        let disc = eq(Equation::from(d()), 1.0);
        assert!(!disc.is_zero_measure_eq());
        // Deterministic equality untouched.
        assert!(!eq(3.0, 3.0).is_zero_measure_eq());
    }

    #[test]
    fn normalization_moves_everything_left() {
        let v = y();
        let atom = gt(Equation::from(v.clone()) * 2.0, 6.0);
        let (expr, op) = atom.normalized();
        assert_eq!(op, CmpOp::Gt);
        let form = expr.linear_coeffs().unwrap();
        assert_eq!(form.coeff(v.key), Some(2.0));
        assert_eq!(form.constant, -6.0);
        assert_eq!(atom.linear_form(), Some(form));
    }

    #[test]
    fn display() {
        let s = le(1.0, 2.0).to_string();
        assert!(s.contains("<="), "{s}");
    }
}
