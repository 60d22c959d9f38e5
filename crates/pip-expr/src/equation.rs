//! The *equation* datatype (paper Section III-B): a flattened parse tree
//! of an arithmetic expression whose leaves are random variables or
//! constants. An equation itself describes a (composite) random variable,
//! so the paper — and this crate — uses "equation" and "random variable"
//! interchangeably.

use std::borrow::Cow;
use std::fmt;
use std::ops;
use std::sync::Arc;

use pip_core::{PipError, Result, Value};

use crate::vars::{Assignment, RandomVar, VarKey};

/// Binary arithmetic operators admitted in equations.
///
/// The paper's implementation "limits users to simple algebraic
/// operators, thus all variable expressions are polynomial" — we admit
/// division too (used by its own examples), which keeps expressions
/// rational; the consistency checker simply skips non-degree-1 atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl BinOp {
    pub fn apply(self, l: f64, r: f64) -> Result<f64> {
        Ok(match self {
            BinOp::Add => l + r,
            BinOp::Sub => l - r,
            BinOp::Mul => l * r,
            BinOp::Div => {
                if r == 0.0 {
                    return Err(PipError::Eval("division by zero".into()));
                }
                l / r
            }
        })
    }

    fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
}

/// A symbolic arithmetic expression over random variables and constants.
///
/// Shared subtrees use `Arc` so that relational operators can copy cells
/// between tuples for free — exactly the property that makes PIP's
/// "evaluate the query first, sample later" strategy cheap.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Equation {
    /// A deterministic constant (any [`Value`], including strings).
    Const(Value),
    /// A reference to a random variable.
    Var(RandomVar),
    /// `left op right`.
    Binary {
        op: BinOp,
        left: Arc<Equation>,
        right: Arc<Equation>,
    },
    /// `op expr`.
    Unary { op: UnOp, expr: Arc<Equation> },
}

impl Equation {
    /// Constant constructor.
    pub fn val(v: impl Into<Value>) -> Self {
        Equation::Const(v.into())
    }

    /// Variable constructor.
    pub fn var(v: RandomVar) -> Self {
        Equation::Var(v)
    }

    pub fn binary(op: BinOp, left: Equation, right: Equation) -> Self {
        Equation::Binary {
            op,
            left: Arc::new(left),
            right: Arc::new(right),
        }
    }

    pub fn neg(self) -> Self {
        Equation::Unary {
            op: UnOp::Neg,
            expr: Arc::new(self),
        }
    }

    /// The constant value, if this equation is deterministic *at the root*
    /// (after [`Equation::simplify`], any deterministic tree is a root
    /// constant).
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            Equation::Const(v) => Some(v),
            _ => None,
        }
    }

    /// True if no random variable occurs anywhere in the tree.
    pub fn is_deterministic(&self) -> bool {
        match self {
            Equation::Const(_) => true,
            Equation::Var(_) => false,
            Equation::Binary { left, right, .. } => {
                left.is_deterministic() && right.is_deterministic()
            }
            Equation::Unary { expr, .. } => expr.is_deterministic(),
        }
    }

    /// Append every distinct variable occurring in the tree to `out`.
    pub fn collect_vars(&self, out: &mut Vec<RandomVar>) {
        self.for_each_var(&mut |v| {
            if !out.iter().any(|o| o.key == v.key) {
                out.push(v.clone());
            }
        });
    }

    /// All distinct variables in the tree.
    pub fn variables(&self) -> Vec<RandomVar> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    /// Evaluate to a numeric value under `assignment`.
    ///
    /// Errors if a variable is unassigned or a non-numeric constant is
    /// reached by an arithmetic operator.
    pub fn eval_f64(&self, assignment: &Assignment) -> Result<f64> {
        match self {
            Equation::Const(v) => v.as_f64(),
            Equation::Var(v) => assignment
                .get(v.key)
                .ok_or_else(|| PipError::Eval(format!("variable {} not assigned", v.key.id))),
            Equation::Binary { op, left, right } => {
                op.apply(left.eval_f64(assignment)?, right.eval_f64(assignment)?)
            }
            Equation::Unary {
                op: UnOp::Neg,
                expr,
            } => Ok(-expr.eval_f64(assignment)?),
        }
    }

    /// Evaluate to a [`Value`]: constants pass through (so string cells
    /// survive), anything with variables goes down the numeric path.
    pub fn eval_value(&self, assignment: &Assignment) -> Result<Value> {
        match self {
            Equation::Const(v) => Ok(v.clone()),
            other => Ok(Value::Float(other.eval_f64(assignment)?)),
        }
    }

    /// Bottom-up constant folding plus neutral-element elimination
    /// (`x+0`, `x*1`, `x*0 → 0`, `--x → x`).
    pub fn simplify(&self) -> Equation {
        self.simplified().into_owned()
    }

    /// [`Equation::simplify`] without copying what is already simplified:
    /// `Borrowed(self)` when no rule applies anywhere in the tree (see
    /// [`Equation::is_simplified`]), and an owned tree that reuses every
    /// unchanged subtree otherwise. The result equals `simplify()`.
    pub fn simplified(&self) -> Cow<'_, Equation> {
        match self {
            Equation::Const(_) | Equation::Var(_) => Cow::Borrowed(self),
            Equation::Unary {
                op: UnOp::Neg,
                expr,
            } => {
                let e = expr.simplified();
                match neg_rewrite(&e) {
                    Rewrite::Value(x) => Cow::Owned(Equation::val(x)),
                    Rewrite::Keep if unchanged(&e, expr) => Cow::Borrowed(self),
                    Rewrite::Keep => Cow::Owned(e.into_owned().neg()),
                    // `--x → x`: `e` is a negation.
                    _ => match e {
                        Cow::Borrowed(Equation::Unary { expr: inner, .. }) => Cow::Borrowed(inner),
                        Cow::Owned(Equation::Unary { expr: inner, .. }) => {
                            Cow::Owned(Arc::unwrap_or_clone(inner))
                        }
                        _ => unreachable!("neg_rewrite unwraps only a negation"),
                    },
                }
            }
            Equation::Binary { op, left, right } => {
                let (l, r) = (left.simplified(), right.simplified());
                match binary_rewrite(*op, &l, &r) {
                    Rewrite::Value(x) => Cow::Owned(Equation::val(x)),
                    Rewrite::Left => l,
                    Rewrite::Right => r,
                    Rewrite::Keep if unchanged(&l, left) && unchanged(&r, right) => {
                        Cow::Borrowed(self)
                    }
                    Rewrite::Keep => {
                        Cow::Owned(Equation::binary(*op, l.into_owned(), r.into_owned()))
                    }
                }
            }
        }
    }

    /// True when [`Equation::simplify`] would return this tree unchanged
    /// (it is idempotent, so every simplified tree is). Allocates nothing.
    pub fn is_simplified(&self) -> bool {
        match self {
            Equation::Const(_) | Equation::Var(_) => true,
            Equation::Unary { expr, .. } => {
                expr.is_simplified() && matches!(neg_rewrite(expr), Rewrite::Keep)
            }
            Equation::Binary { op, left, right } => {
                left.is_simplified()
                    && right.is_simplified()
                    && matches!(binary_rewrite(*op, left, right), Rewrite::Keep)
            }
        }
    }

    /// `Equation::binary(op, l, r).simplify()` for operands that are
    /// already simplified, without building the node when a rule removes
    /// it: compiling and simplifying an expression in one pass.
    pub fn simplified_binary(op: BinOp, l: Equation, r: Equation) -> Equation {
        match binary_rewrite(op, &l, &r) {
            Rewrite::Value(x) => Equation::val(x),
            Rewrite::Left => l,
            Rewrite::Right => r,
            Rewrite::Keep => Equation::binary(op, l, r),
        }
    }

    /// `e.neg().simplify()` for an already simplified `e`.
    pub fn simplified_neg(e: Equation) -> Equation {
        match (neg_rewrite(&e), e) {
            (Rewrite::Value(x), _) => Equation::val(x),
            (Rewrite::Keep, e) => e.neg(),
            (_, Equation::Unary { expr, .. }) => Arc::unwrap_or_clone(expr),
            _ => unreachable!("neg_rewrite unwraps only a negation"),
        }
    }

    /// If the equation is an *affine* (degree-1) polynomial
    /// `c + Σ aᵢ·Xᵢ`, return its [`LinearForm`]; otherwise `None`.
    ///
    /// This is what `tighten1` in Algorithm 3.2 consumes. Products of two
    /// variable-bearing subtrees, or division *by* a variable, make the
    /// expression non-affine. The coefficients come in the order their
    /// variables first appear in the tree (left to right), accumulated
    /// per occurrence in that order; nothing is hashed, so the form — and
    /// every sum over it — is the same bits on every run.
    pub fn linear_coeffs(&self) -> Option<LinearForm> {
        let mut form = LinearForm::default();
        form.add(self, 1.0).then(|| form.finish())
    }

    /// Call `f` on every variable occurrence, left to right (repeats
    /// included).
    pub fn for_each_var<'a>(&'a self, f: &mut impl FnMut(&'a RandomVar)) {
        match self {
            Equation::Const(_) => {}
            Equation::Var(v) => f(v),
            Equation::Binary { left, right, .. } => {
                left.for_each_var(f);
                right.for_each_var(f);
            }
            Equation::Unary { expr, .. } => expr.for_each_var(f),
        }
    }

    /// Polynomial degree in the random variables: 0 for deterministic,
    /// 1 for affine, 2+ for products; `None` when the expression is not
    /// polynomial (division by a variable).
    pub fn degree(&self) -> Option<u32> {
        match self {
            Equation::Const(_) => Some(0),
            Equation::Var(_) => Some(1),
            Equation::Unary { expr, .. } => expr.degree(),
            Equation::Binary { op, left, right } => {
                let l = left.degree()?;
                let r = right.degree()?;
                match op {
                    BinOp::Add | BinOp::Sub => Some(l.max(r)),
                    BinOp::Mul => Some(l + r),
                    BinOp::Div => {
                        if r == 0 {
                            Some(l)
                        } else {
                            None
                        }
                    }
                }
            }
        }
    }
}

/// What [`Equation::simplify`] does at one node whose children are
/// already simplified.
enum Rewrite {
    /// No rule applies: the node stays.
    Keep,
    /// The node folds to this constant.
    Value(f64),
    /// The node is its (simplified) left operand — for a negation, the
    /// operand of the inner negation.
    Left,
    /// The node is its (simplified) right operand.
    Right,
}

/// True when simplifying `child` gave `child` itself — not a copy, and
/// not a subtree of it that a rule below borrowed.
fn unchanged(simplified: &Equation, child: &Equation) -> bool {
    std::ptr::eq(simplified, child)
}

fn numeric(e: &Equation) -> Option<f64> {
    e.as_const().and_then(|v| v.as_f64().ok())
}

/// Constant folding when both sides are numeric, then the neutral
/// elements `0 + x`, `x ± 0`, `1 · x`, `x · 1`, `x / 1` and `x · 0 → 0`.
fn binary_rewrite(op: BinOp, l: &Equation, r: &Equation) -> Rewrite {
    if let (Some(lf), Some(rf)) = (numeric(l), numeric(r)) {
        if let Ok(folded) = op.apply(lf, rf) {
            return Rewrite::Value(folded);
        }
    }
    let is_zero = |e: &Equation| numeric(e) == Some(0.0);
    let is_one = |e: &Equation| numeric(e) == Some(1.0);
    match op {
        BinOp::Add if is_zero(l) => Rewrite::Right,
        BinOp::Add | BinOp::Sub if is_zero(r) => Rewrite::Left,
        BinOp::Mul if is_one(l) => Rewrite::Right,
        BinOp::Mul | BinOp::Div if is_one(r) => Rewrite::Left,
        BinOp::Mul if is_zero(l) || is_zero(r) => Rewrite::Value(0.0),
        _ => Rewrite::Keep,
    }
}

/// `-c` folds, `--x → x`.
fn neg_rewrite(e: &Equation) -> Rewrite {
    match e {
        Equation::Const(_) => match numeric(e) {
            Some(x) => Rewrite::Value(-x),
            None => Rewrite::Keep,
        },
        Equation::Unary { op: UnOp::Neg, .. } => Rewrite::Left,
        _ => Rewrite::Keep,
    }
}

/// An affine form `c + Σ aᵢ·Xᵢ` ([`Equation::linear_coeffs`],
/// [`crate::Atom::linear_form`]): the non-zero coefficients in
/// first-appearance order, and the constant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinearForm {
    terms: Vec<(VarKey, f64)>,
    /// The constant term `c`.
    pub constant: f64,
}

impl LinearForm {
    /// `(variable, coefficient)` pairs, non-zero, in first-appearance
    /// order.
    pub fn terms(&self) -> &[(VarKey, f64)] {
        &self.terms
    }

    /// The coefficient of `key`, if it has a non-zero one.
    pub fn coeff(&self, key: VarKey) -> Option<f64> {
        self.terms()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, a)| a)
    }

    pub fn len(&self) -> usize {
        self.terms().len()
    }

    pub fn is_empty(&self) -> bool {
        self.terms().is_empty()
    }

    /// Add `scale · eq`; false when `eq` is not affine.
    pub(crate) fn add(&mut self, eq: &Equation, scale: f64) -> bool {
        match eq {
            Equation::Const(v) => match v.as_f64() {
                Ok(x) => {
                    self.constant += scale * x;
                    true
                }
                Err(_) => false,
            },
            Equation::Var(v) => {
                match self.terms.iter_mut().find(|(k, _)| *k == v.key) {
                    Some((_, a)) => *a += scale,
                    None => self.terms.push((v.key, 0.0 + scale)),
                }
                true
            }
            Equation::Unary {
                op: UnOp::Neg,
                expr,
            } => self.add(expr, -scale),
            Equation::Binary { op, left, right } => match op {
                BinOp::Add => self.add(left, scale) && self.add(right, scale),
                BinOp::Sub => self.add(left, scale) && self.add(right, -scale),
                // One side must be deterministic.
                BinOp::Mul if left.is_deterministic() => match folded(left) {
                    Some(k) => self.add(right, scale * k),
                    None => false,
                },
                BinOp::Mul if right.is_deterministic() => match folded(right) {
                    Some(k) => self.add(left, scale * k),
                    None => false,
                },
                BinOp::Div if right.is_deterministic() => match folded(right) {
                    Some(k) if k != 0.0 => self.add(left, scale / k),
                    _ => false,
                },
                BinOp::Mul | BinOp::Div => false,
            },
        }
    }

    /// Drop the coefficients that cancelled to zero.
    pub(crate) fn finish(mut self) -> LinearForm {
        self.terms.retain(|&(_, a)| a != 0.0);
        self
    }
}

/// The numeric value a deterministic subtree simplifies to, if any.
fn folded(e: &Equation) -> Option<f64> {
    match e {
        Equation::Const(_) => numeric(e),
        other => numeric(&other.simplify()),
    }
}

impl fmt::Display for Equation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Equation::Const(v) => write!(f, "{v}"),
            Equation::Var(v) => write!(f, "{}", v.key.id),
            Equation::Binary { op, left, right } => {
                write!(f, "({} {} {})", left, op.symbol(), right)
            }
            Equation::Unary {
                op: UnOp::Neg,
                expr,
            } => write!(f, "(-{expr})"),
        }
    }
}

impl From<RandomVar> for Equation {
    fn from(v: RandomVar) -> Self {
        Equation::Var(v)
    }
}

impl From<f64> for Equation {
    fn from(v: f64) -> Self {
        Equation::val(v)
    }
}

impl From<i64> for Equation {
    fn from(v: i64) -> Self {
        Equation::val(v)
    }
}

impl From<Value> for Equation {
    fn from(v: Value) -> Self {
        Equation::Const(v)
    }
}

// Operator overloading so query/workload code reads like arithmetic:
// `price * Equation::from(x) + 3.0`.
macro_rules! impl_bin {
    ($trait:ident, $method:ident, $op:expr) => {
        impl ops::$trait for Equation {
            type Output = Equation;
            fn $method(self, rhs: Equation) -> Equation {
                Equation::binary($op, self, rhs)
            }
        }
        impl ops::$trait<f64> for Equation {
            type Output = Equation;
            fn $method(self, rhs: f64) -> Equation {
                Equation::binary($op, self, Equation::val(rhs))
            }
        }
        impl ops::$trait<Equation> for f64 {
            type Output = Equation;
            fn $method(self, rhs: Equation) -> Equation {
                Equation::binary($op, Equation::val(self), rhs)
            }
        }
    };
}

impl_bin!(Add, add, BinOp::Add);
impl_bin!(Sub, sub, BinOp::Sub);
impl_bin!(Mul, mul, BinOp::Mul);
impl_bin!(Div, div, BinOp::Div);

impl ops::Neg for Equation {
    type Output = Equation;
    fn neg(self) -> Equation {
        Equation::neg(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_dist::prelude::builtin;

    fn x() -> RandomVar {
        RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap()
    }

    #[test]
    fn eval_arithmetic() {
        let v = x();
        let mut a = Assignment::new();
        a.set(v.key, 4.0);
        let eq = (Equation::from(v.clone()) * 3.0 + 1.0) / 2.0;
        assert_eq!(eq.eval_f64(&a).unwrap(), 6.5);
        let neg = -Equation::from(v);
        assert_eq!(neg.eval_f64(&a).unwrap(), -4.0);
    }

    #[test]
    fn eval_errors() {
        let v = x();
        let a = Assignment::new();
        assert!(Equation::from(v).eval_f64(&a).is_err());
        let div0 = Equation::val(1.0) / Equation::val(0.0);
        assert!(div0.eval_f64(&a).is_err());
        let s = Equation::val(Value::str("hi")) + Equation::val(1.0);
        assert!(s.eval_f64(&a).is_err());
    }

    #[test]
    fn eval_value_passes_strings_through() {
        let a = Assignment::new();
        assert_eq!(
            Equation::val(Value::str("NY")).eval_value(&a).unwrap(),
            Value::str("NY")
        );
        assert_eq!(
            (Equation::val(2.0) * 2.0).eval_value(&a).unwrap(),
            Value::Float(4.0)
        );
    }

    #[test]
    fn variables_dedup() {
        let v = x();
        let w = x();
        let eq = Equation::from(v.clone()) + Equation::from(w.clone()) * Equation::from(v.clone());
        let vars = eq.variables();
        assert_eq!(vars.len(), 2);
        assert!(vars.contains(&v) && vars.contains(&w));
    }

    #[test]
    fn simplify_folds_constants() {
        let e = (Equation::val(2.0) + Equation::val(3.0)) * Equation::val(4.0);
        assert_eq!(e.simplify().as_const().unwrap().as_f64().unwrap(), 20.0);
        let v = x();
        let e = Equation::from(v.clone()) + Equation::val(0.0);
        assert_eq!(e.simplify(), Equation::from(v.clone()));
        let e = Equation::from(v.clone()) * Equation::val(0.0);
        assert_eq!(e.simplify().as_const().unwrap().as_f64().unwrap(), 0.0);
        let e = Equation::val(1.0) * Equation::from(v.clone());
        assert_eq!(e.simplify(), Equation::from(v.clone()));
        let e = -(-Equation::from(v.clone()));
        assert_eq!(e.simplify(), Equation::from(v.clone()));
        // Rules below the root rebuild the nodes above them.
        let w = Equation::from(x());
        for (e, want) in [
            (
                -(-Equation::from(v.clone())) + w.clone(),
                Equation::from(v.clone()) + w.clone(),
            ),
            (
                (Equation::from(v.clone()) * 1.0) * w.clone(),
                Equation::from(v.clone()) * w.clone(),
            ),
            (
                -(Equation::from(v.clone()) + 0.0),
                -Equation::from(v.clone()),
            ),
        ] {
            assert!(!e.is_simplified());
            assert_eq!(e.simplify(), want);
            assert!(want.is_simplified());
            assert!(matches!(want.simplified(), Cow::Borrowed(s) if std::ptr::eq(s, &want)));
        }
    }

    #[test]
    fn simplify_preserves_semantics() {
        let v = x();
        let mut a = Assignment::new();
        a.set(v.key, 2.5);
        let e = (Equation::from(v.clone()) * 2.0 + 0.0) * (Equation::val(3.0) - 1.0);
        assert_eq!(e.simplify().eval_f64(&a).unwrap(), e.eval_f64(&a).unwrap());
    }

    #[test]
    fn linear_coefficients_of_affine() {
        let v = x();
        let w = x();
        // 3v - 2w/4 + 7
        let eq = Equation::from(v.clone()) * 3.0 - Equation::from(w.clone()) * 2.0 / 4.0 + 7.0;
        let form = eq.linear_coeffs().unwrap();
        assert_eq!(form.terms(), &[(v.key, 3.0), (w.key, -0.5)]);
        assert_eq!(form.coeff(w.key), Some(-0.5));
        assert_eq!(form.constant, 7.0);
        // A coefficient that cancels leaves the form.
        let gone = Equation::from(v.clone()) + Equation::from(w.clone()) - Equation::from(v);
        assert_eq!(gone.linear_coeffs().unwrap().terms(), &[(w.key, 1.0)]);
    }

    #[test]
    fn nonlinear_rejected_by_linear_coeffs() {
        let v = x();
        let w = x();
        let prod = Equation::from(v.clone()) * Equation::from(w.clone());
        assert!(prod.linear_coeffs().is_none());
        let div = Equation::val(1.0) / Equation::from(v.clone());
        assert!(div.linear_coeffs().is_none());
        // but (v * deterministic) is fine
        let scaled = Equation::from(v) * (Equation::val(2.0) + Equation::val(1.0));
        assert!(scaled.linear_coeffs().is_some());
    }

    #[test]
    fn degree_computation() {
        let v = x();
        let w = x();
        assert_eq!(Equation::val(3.0).degree(), Some(0));
        assert_eq!(Equation::from(v.clone()).degree(), Some(1));
        let sq = Equation::from(v.clone()) * Equation::from(v.clone());
        assert_eq!(sq.degree(), Some(2));
        let mixed = sq.clone() + Equation::from(w.clone());
        assert_eq!(mixed.degree(), Some(2));
        let rational = Equation::val(1.0) / Equation::from(w);
        assert_eq!(rational.degree(), None);
        assert_eq!((Equation::from(v) / 2.0).degree(), Some(1));
    }

    #[test]
    fn display() {
        let v = x();
        let e = Equation::from(v.clone()) * 3.0;
        let s = e.to_string();
        assert!(s.contains('*') && s.contains('3'), "{s}");
    }
}
