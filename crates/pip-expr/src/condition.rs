//! Row conditions: conjunctions of atoms, plus the DNF view used by
//! `distinct` and set difference.
//!
//! PIP stores every c-table row with a condition that is a *conjunction*
//! of atoms; disjunction is represented by bag semantics (one row per
//! disjunct). This module provides that conjunction type, simplification
//! of trivially-true/false atoms, and DNF manipulation (negation of a
//! DNF back into DNF) for the difference operator.

use std::borrow::Cow;
use std::fmt;

use pip_core::Result;

use crate::atom::{Atom, CmpOp};
use crate::equation::Equation;
use crate::vars::{Assignment, RandomVar};

/// Outcome of constant-level simplification of a condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// Condition simplified to `true` (row exists in every world).
    True,
    /// Condition simplified to `false` (row can be dropped).
    False,
    /// Truth depends on random variables.
    Unknown,
}

/// A conjunction of constraint atoms — the canonical PIP row condition.
///
/// The empty conjunction is `true`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Conjunction {
    atoms: Vec<Atom>,
}

impl Conjunction {
    /// The trivially-true condition.
    pub fn top() -> Self {
        Conjunction { atoms: Vec::new() }
    }

    pub fn of(atoms: Vec<Atom>) -> Self {
        Conjunction { atoms }
    }

    pub fn single(atom: Atom) -> Self {
        Conjunction { atoms: vec![atom] }
    }

    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    pub fn is_trivially_true(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Conjoin another atom.
    pub fn and_atom(&self, atom: Atom) -> Conjunction {
        let mut atoms = self.atoms.clone();
        atoms.push(atom);
        Conjunction { atoms }
    }

    /// Conjoin two conditions (cross product of rows).
    pub fn and(&self, other: &Conjunction) -> Conjunction {
        let mut atoms = Vec::with_capacity(self.atoms.len() + other.atoms.len());
        atoms.extend_from_slice(&self.atoms);
        atoms.extend_from_slice(&other.atoms);
        Conjunction { atoms }
    }

    /// Conjoin `atoms`, moving them in (no copy of either side's atoms
    /// when `self` is empty).
    pub fn and_atoms(mut self, atoms: Vec<Atom>) -> Conjunction {
        if self.atoms.is_empty() {
            return Conjunction { atoms };
        }
        self.atoms.extend(atoms);
        self
    }

    /// Constant-level simplification (paper Section III-C, cases 1–3):
    ///
    /// * deterministic atoms are evaluated and dropped (or kill the row);
    /// * `Y = (·)` over continuous variables is treated as false
    ///   (zero probability mass), `Y ≠ (·)` as true;
    /// * `X = c₁ ∧ X = c₂` with `c₁ ≠ c₂` over a discrete variable is
    ///   recognized as inconsistent.
    ///
    /// Returns the simplified condition and its truth status. A `False`
    /// status means the caller should drop the row.
    pub fn simplify(&self) -> (Conjunction, Truth) {
        let (c, truth) = self.simplified();
        (c.into_owned(), truth)
    }

    /// [`Conjunction::simplify`] without copying a condition that is
    /// already simplified — every atom kept as it is, as in a row the
    /// query phase produced: then `Borrowed(self)`. Equal to
    /// `simplify()` either way.
    pub fn simplified(&self) -> (Cow<'_, Conjunction>, Truth) {
        let unchanged = |a: &Atom| {
            a.left.is_simplified()
                && a.right.is_simplified()
                && a.const_truth().is_none()
                && !a.is_almost_surely_true_ne()
                && !a.is_zero_measure_eq()
        };
        if !self.atoms.iter().all(unchanged) {
            return self.simplify_atoms();
        }
        if discrete_contradiction(&self.atoms) {
            return (Cow::Owned(Conjunction::top()), Truth::False);
        }
        (Cow::Borrowed(self), truth_of(&self.atoms))
    }

    fn simplify_atoms(&self) -> (Cow<'_, Conjunction>, Truth) {
        let dead = (Cow::Owned(Conjunction::top()), Truth::False);
        let mut kept: Vec<Atom> = Vec::with_capacity(self.atoms.len());
        for atom in &self.atoms {
            let atom = Atom {
                left: atom.left.simplify(),
                op: atom.op,
                right: atom.right.simplify(),
            };
            if let Some(t) = atom.const_truth() {
                if t {
                    continue; // true atom contributes nothing
                }
                return dead;
            }
            if atom.is_almost_surely_true_ne() {
                continue;
            }
            if atom.is_zero_measure_eq() {
                return dead;
            }
            kept.push(atom);
        }
        if discrete_contradiction(&kept) {
            return dead;
        }
        let truth = truth_of(&kept);
        (Cow::Owned(Conjunction { atoms: kept }), truth)
    }

    /// Evaluate the condition under a full assignment.
    pub fn eval(&self, assignment: &Assignment) -> Result<bool> {
        for atom in &self.atoms {
            if !atom.eval(assignment)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// All distinct variables across all atoms.
    pub fn variables(&self) -> Vec<RandomVar> {
        let mut out = Vec::new();
        for a in &self.atoms {
            a.left.collect_vars(&mut out);
            a.right.collect_vars(&mut out);
        }
        out.dedup_by(|a, b| a.key == b.key);
        // dedup_by only removes consecutive duplicates; do it properly.
        let mut seen = std::collections::HashSet::new();
        out.retain(|v| seen.insert(v.key));
        out
    }
}

impl fmt::Display for Conjunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "true");
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

impl From<Atom> for Conjunction {
    fn from(atom: Atom) -> Self {
        Conjunction::single(atom)
    }
}

/// `True` for no atoms, `Unknown` otherwise.
fn truth_of(atoms: &[Atom]) -> Truth {
    if atoms.is_empty() {
        Truth::True
    } else {
        Truth::Unknown
    }
}

/// Discrete contradiction: `X = c1 AND X = c2` with `c1 != c2`.
fn discrete_contradiction(atoms: &[Atom]) -> bool {
    for (i, a) in atoms.iter().enumerate() {
        if a.op != CmpOp::Eq {
            continue;
        }
        if let (Equation::Var(v), Some(c1)) = (&a.left, a.right.as_const()) {
            for b in &atoms[i + 1..] {
                if b.op != CmpOp::Eq {
                    continue;
                }
                if let (Equation::Var(w), Some(c2)) = (&b.left, b.right.as_const()) {
                    if v.key == w.key && !c1.sql_eq(c2) {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Disjunctive normal form: an OR of conjunctions.
///
/// Used transiently by `distinct` (the disjunction of all duplicate rows'
/// conditions) and by difference (negating the matching rows' DNF).
/// The empty DNF is `false`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dnf {
    disjuncts: Vec<Conjunction>,
}

impl Dnf {
    /// The trivially-false condition (empty disjunction).
    pub fn bottom() -> Self {
        Dnf {
            disjuncts: Vec::new(),
        }
    }

    pub fn of(disjuncts: Vec<Conjunction>) -> Self {
        Dnf { disjuncts }
    }

    pub fn disjuncts(&self) -> &[Conjunction] {
        &self.disjuncts
    }

    pub fn or(&mut self, c: Conjunction) {
        self.disjuncts.push(c);
    }

    pub fn is_trivially_false(&self) -> bool {
        self.disjuncts.is_empty()
    }

    pub fn is_trivially_true(&self) -> bool {
        self.disjuncts.iter().any(|c| c.is_trivially_true())
    }

    /// Evaluate: true iff some disjunct holds.
    pub fn eval(&self, assignment: &Assignment) -> Result<bool> {
        for c in &self.disjuncts {
            if c.eval(assignment)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Negate into DNF.
    ///
    /// `¬(C₁ ∨ … ∨ Cₖ)` = `¬C₁ ∧ … ∧ ¬Cₖ`; each `¬Cᵢ` is a disjunction of
    /// negated atoms, so the conjunction distributes into (at most)
    /// `Π |Cᵢ|` conjuncts. This exponential worst case is inherent to the
    /// difference operator on c-tables; trivially-false products are
    /// pruned as we go.
    pub fn negate(&self) -> Dnf {
        // Start from the single empty conjunction (true).
        let mut acc: Vec<Conjunction> = vec![Conjunction::top()];
        for conj in &self.disjuncts {
            let mut next: Vec<Conjunction> = Vec::new();
            for partial in &acc {
                for atom in conj.atoms() {
                    let cand = partial.and_atom(atom.negate());
                    let (c, t) = cand.simplify();
                    match t {
                        Truth::False => {}
                        _ => next.push(c),
                    }
                }
                // A trivially-true conjunct (empty) negates to false and
                // contributes nothing, killing every partial: handled
                // naturally because the inner loop never runs.
            }
            acc = next;
            if acc.is_empty() {
                break;
            }
        }
        Dnf { disjuncts: acc }
    }

    /// All distinct variables across all disjuncts.
    pub fn variables(&self) -> Vec<RandomVar> {
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for d in &self.disjuncts {
            for v in d.variables() {
                if seen.insert(v.key) {
                    out.push(v);
                }
            }
        }
        out
    }
}

impl fmt::Display for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.disjuncts.is_empty() {
            return write!(f, "false");
        }
        for (i, c) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, " OR ")?;
            }
            write!(f, "({c})")?;
        }
        Ok(())
    }
}

/// Helper for code that conditionally drops rows: fold a freshly built
/// condition, returning `None` when the row is statically dead.
pub fn simplify_row_condition(cond: Conjunction) -> Option<Conjunction> {
    let (c, t) = cond.simplified();
    if t == Truth::False {
        return None;
    }
    match c {
        Cow::Owned(c) => Some(c),
        Cow::Borrowed(_) => Some(cond),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::atoms::*;
    use crate::vars::RandomVar;
    use pip_dist::prelude::builtin;

    fn y() -> RandomVar {
        RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap()
    }

    fn x_disc() -> RandomVar {
        RandomVar::create(builtin::discrete_uniform(), &[0.0, 9.0]).unwrap()
    }

    #[test]
    fn empty_conjunction_is_true() {
        let c = Conjunction::top();
        assert!(c.is_trivially_true());
        assert!(c.eval(&Assignment::new()).unwrap());
        assert_eq!(c.to_string(), "true");
    }

    #[test]
    fn simplify_drops_true_atoms_and_kills_false() {
        let v = y();
        let cond = Conjunction::of(vec![lt(1.0, 2.0), gt(Equation::from(v.clone()), 0.0)]);
        let (c, t) = cond.simplify();
        assert_eq!(t, Truth::Unknown);
        assert_eq!(c.atoms().len(), 1);

        let dead = Conjunction::of(vec![gt(1.0, 2.0), gt(Equation::from(v), 0.0)]);
        let (_, t) = dead.simplify();
        assert_eq!(t, Truth::False);
    }

    #[test]
    fn simplify_zero_measure_equalities() {
        let v = y();
        let (_, t) = Conjunction::single(eq(Equation::from(v.clone()), 3.0)).simplify();
        assert_eq!(t, Truth::False);
        let (c, t) = Conjunction::single(ne(Equation::from(v), 3.0)).simplify();
        assert_eq!(t, Truth::True);
        assert!(c.is_trivially_true());
    }

    #[test]
    fn simplify_discrete_contradiction() {
        let x = x_disc();
        let cond = Conjunction::of(vec![
            eq(Equation::from(x.clone()), 1.0),
            eq(Equation::from(x.clone()), 2.0),
        ]);
        let (_, t) = cond.simplify();
        assert_eq!(t, Truth::False);
        // Same constant twice is fine.
        let cond = Conjunction::of(vec![
            eq(Equation::from(x.clone()), 1.0),
            eq(Equation::from(x), 1.0),
        ]);
        let (_, t) = cond.simplify();
        assert_eq!(t, Truth::Unknown);
    }

    #[test]
    fn eval_conjunction() {
        let v = y();
        let mut a = Assignment::new();
        a.set(v.key, 5.0);
        let cond = Conjunction::of(vec![
            gt(Equation::from(v.clone()), 0.0),
            lt(Equation::from(v.clone()), 10.0),
        ]);
        assert!(cond.eval(&a).unwrap());
        a.set(v.key, 20.0);
        assert!(!cond.eval(&a).unwrap());
    }

    #[test]
    fn variables_deduplicated() {
        let v = y();
        let w = y();
        let cond = Conjunction::of(vec![
            gt(Equation::from(v.clone()), 0.0),
            lt(Equation::from(v.clone()), Equation::from(w.clone())),
        ]);
        let vars = cond.variables();
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn dnf_eval_and_negate_agree() {
        let v = y();
        let w = y();
        // (v > 1) OR (w < -1)
        let dnf = Dnf::of(vec![
            Conjunction::single(gt(Equation::from(v.clone()), 1.0)),
            Conjunction::single(lt(Equation::from(w.clone()), -1.0)),
        ]);
        let neg = dnf.negate();
        let mut a = Assignment::new();
        for (vv, wv) in [(0.0, 0.0), (2.0, 0.0), (0.0, -2.0), (2.0, -2.0)] {
            a.set(v.key, vv);
            a.set(w.key, wv);
            assert_eq!(
                dnf.eval(&a).unwrap(),
                !neg.eval(&a).unwrap(),
                "at v={vv}, w={wv}"
            );
        }
    }

    #[test]
    fn negate_prunes_contradictions() {
        let v = y();
        // (v > 1 AND v <= 1) is unsatisfiable; its negation is `true`.
        // Negating [(v>1) OR (v<=1)] gives (v<=1 AND v>1) -> pruned? The
        // pruning here only covers *statically* detectable falsity, and
        // cross-atom interval reasoning lives in pip-ctable; so we just
        // check the negation of a deterministic-true DNF is false.
        let dnf = Dnf::of(vec![Conjunction::top()]);
        assert!(dnf.is_trivially_true());
        let neg = dnf.negate();
        assert!(neg.is_trivially_false());
        // And ¬false = true.
        let t = Dnf::bottom().negate();
        assert!(t.is_trivially_true());
        let _ = v;
    }

    #[test]
    fn simplify_row_condition_helper() {
        assert!(simplify_row_condition(Conjunction::single(gt(2.0, 1.0))).is_some());
        assert!(simplify_row_condition(Conjunction::single(gt(1.0, 2.0))).is_none());
    }

    #[test]
    fn display_forms() {
        let v = y();
        let c = Conjunction::of(vec![gt(Equation::from(v), 0.0), lt(1.0, 2.0)]);
        assert!(c.to_string().contains(" AND "));
        assert_eq!(Dnf::bottom().to_string(), "false");
    }
}
