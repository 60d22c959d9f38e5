//! Condition consistency checking — Algorithm 3.2 of the paper.
//!
//! Statically detectable inconsistencies let PIP drop rows during query
//! evaluation; for everything else the Monte Carlo phase enforces the
//! constraints. The algorithm:
//!
//! 1. deterministic atoms and discrete `X=c₁ ∧ X=c₂` contradictions are
//!    resolved immediately (also done by `Conjunction::simplify`);
//! 2. per independent variable group, a bounds map is initialized to
//!    `[−∞, ∞]` (here: intersected with each variable's distribution
//!    support) and tightened to a fixpoint using `tighten1` on every
//!    degree-1 atom;
//! 3. an empty interval proves inconsistency; anything else is
//!    consistent as far as box reasoning can tell. Atoms that are not
//!    degree 1 are skipped, and propagation stops after `MAX_SWEEPS`, so
//!    a consistent verdict never proves the condition satisfiable.
//!
//! [`consistency_check`] partitions the condition itself;
//! [`consistency_of_groups`] is steps 2–3 over a partition the caller
//! already holds — the expectation operator's, which also carries the
//! expression's variables — so a row is partitioned once. Each atom is
//! linearised once ([`pip_expr::Atom::linear_form`]) and the bounds map is
//! a sorted list: nothing is hashed, and every sum runs in a fixed order.

use pip_expr::{independent_groups, Atom, CmpOp, Conjunction, Truth, VarGroup, VarKey};

use crate::bounds::{BoundsMap, Interval};

/// Verdict of the consistency check.
#[derive(Debug, Clone, PartialEq)]
pub enum Consistency {
    /// Proven unsatisfiable.
    Inconsistent,
    /// No inconsistency found; `bounds` is reused by the CDF sampler.
    Consistent { bounds: BoundsMap },
}

impl Consistency {
    pub fn is_inconsistent(&self) -> bool {
        matches!(self, Consistency::Inconsistent)
    }

    /// The bounds map (empty for inconsistent verdicts).
    pub fn bounds(&self) -> BoundsMap {
        match self {
            Consistency::Inconsistent => BoundsMap::new(),
            Consistency::Consistent { bounds, .. } => bounds.clone(),
        }
    }
}

/// Maximum fixpoint sweeps. Linear constraint graphs converge in a few
/// passes; pathological chains (x < y < x − 1 style contradictions that
/// tighten by a constant per round) are cut off and yield a consistent
/// verdict, matching the paper's "rely on the Monte Carlo phase" escape.
const MAX_SWEEPS: usize = 64;

/// Run Algorithm 3.2 on a (pre-simplified or raw) conjunction.
pub fn consistency_check(condition: &Conjunction) -> Consistency {
    // Lines 1–3: constant-level simplification + discrete contradictions.
    let (cond, truth) = condition.simplified();
    match truth {
        Truth::False => return Consistency::Inconsistent,
        Truth::True => {
            return Consistency::Consistent {
                bounds: BoundsMap::new(),
            }
        }
        Truth::Unknown => {}
    }
    consistency_of_groups(&independent_groups(&cond, &[]))
}

/// Lines 4–13 of Algorithm 3.2 over a simplified condition that is
/// already partitioned: interval propagation per group that carries
/// atoms, in order. Groups without atoms (a caller's extra variables)
/// add nothing, and a group's bounds start from the supports of the
/// variables its atoms mention, so `groups` may be
/// `independent_groups(&condition, extra)` for any `extra` and the
/// verdict and every bound equal `consistency_check(&condition)`.
/// The groups must share no variable, as `independent_groups` returns
/// them.
pub fn consistency_of_groups(groups: &[VarGroup]) -> Consistency {
    let mut entries = Vec::new();
    for group in groups.iter().filter(|g| !g.atoms.is_empty()) {
        if !propagate_group(group, &mut entries) {
            return Consistency::Inconsistent;
        }
    }
    Consistency::Consistent {
        bounds: BoundsMap::from_entries(entries),
    }
}

/// One group's bounds, appended to `entries` sorted by key (the group's
/// own segment; no other group's variable is read or written). `false`
/// when some variable's interval is empty.
fn propagate_group(group: &VarGroup, entries: &mut Vec<(VarKey, Interval)>) -> bool {
    // Initialize with distribution support (a strict improvement over the
    // paper's [−∞,∞] start that costs nothing).
    let start = entries.len();
    for atom in &group.atoms {
        atom.for_each_var(&mut |v| {
            let (lo, hi) = v.class.support(&v.params);
            entries.push((v.key, Interval::new(lo, hi)));
        });
    }
    entries[start..].sort_unstable_by_key(|e| e.0);
    dedup_tail(entries, start);
    let bounds = &mut entries[start..];
    if bounds.iter().any(|e| e.1.is_empty()) {
        return false;
    }
    let slot = |bounds: &[(VarKey, Interval)], key: VarKey| {
        bounds
            .binary_search_by_key(&key, |e| e.0)
            .expect("every atom variable has bounds")
    };

    // Linearize each atom once: expr (op) 0 with affine expr. Atoms of
    // degree ≥ 2 or non-polynomial ones are skipped.
    let linear = |atom: &Atom| match (atom.linear_form(), atom.op) {
        // Ne carries no interval information; Eq over continuous vars
        // was already handled by simplify, and over discrete vars we
        // treat it like Le ∧ Ge via two passes below.
        (Some(form), CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge | CmpOp::Eq)
            if !form.is_empty() =>
        {
            Some((form, atom.op))
        }
        _ => None,
    };
    // A one-atom group (a typical row's) needs no list.
    let one;
    let many: Vec<_>;
    let lin = match group.atoms.as_slice() {
        [atom] => {
            one = linear(atom);
            one.as_slice()
        }
        atoms => {
            many = atoms.iter().filter_map(linear).collect();
            many.as_slice()
        }
    };

    // Fixpoint sweeps (Algorithm 3.2 lines 6–12).
    for _ in 0..MAX_SWEEPS {
        let mut changed = false;
        for (form, op) in lin {
            let (coeffs, c) = (form.terms(), form.constant);
            // tighten1: for each variable X with coefficient a, the atom
            //   a·X + Σ_j b_j·Y_j + c (op) 0
            // implies, using current bounds on the Y_j:
            //   X ≥ (−c − max Σ b_j·Y_j)/a  (a > 0, op ∈ {>, ≥, =})
            // and symmetrically for upper bounds.
            for &(xk, a) in coeffs {
                // Extremes of the rest = c + Σ_{j≠X} b_j·Y_j.
                let mut rest_min = c;
                let mut rest_max = c;
                for &(yk, b) in coeffs {
                    if yk == xk {
                        continue;
                    }
                    let iv = bounds[slot(bounds, yk)].1;
                    let (lo, hi) = if b > 0.0 {
                        (b * iv.lo, b * iv.hi)
                    } else {
                        (b * iv.hi, b * iv.lo)
                    };
                    rest_min += lo;
                    rest_max += hi;
                }
                // Derive the implied interval for a·X.
                // expr >= 0  →  a·X ≥ −rest_max is NOT valid (existential);
                // the *necessary* bound is a·X ≥ −rest_max, since for the
                // atom to hold at all we need a·X + rest ≥ 0 for the
                // actual rest value, which is ≤ rest_max; hence
                // a·X ≥ −rest_max always. Similarly Le gives a·X ≤ −rest_min.
                let implied = match op {
                    CmpOp::Gt | CmpOp::Ge => Interval::new(-rest_max, f64::INFINITY),
                    CmpOp::Lt | CmpOp::Le => Interval::new(f64::NEG_INFINITY, -rest_min),
                    CmpOp::Eq => Interval::new(-rest_max, -rest_min),
                    CmpOp::Ne => continue,
                };
                // Scale by 1/a (flip on negative a).
                let scaled = if a > 0.0 {
                    Interval::new(implied.lo / a, implied.hi / a)
                } else {
                    Interval::new(implied.hi / a, implied.lo / a)
                };
                // NaN guard: ±∞ / a stays ±∞, but 0·∞ style results from
                // degenerate coefficients would poison the map.
                if scaled.lo.is_nan() || scaled.hi.is_nan() {
                    continue;
                }
                let x = &mut bounds[slot(bounds, xk)].1;
                let after = x.intersect(&scaled);
                if after != *x {
                    changed = true;
                }
                *x = after;
                if after.is_empty() {
                    return false;
                }
            }
        }
        if !changed {
            break;
        }
    }
    true
}

/// Collapse repeated keys in the sorted `entries[start..]` (a variable
/// met in several atoms, each time with the same support).
fn dedup_tail(entries: &mut Vec<(VarKey, Interval)>, start: usize) {
    let mut kept = start;
    for i in start..entries.len() {
        if kept > start && entries[kept - 1].0 == entries[i].0 {
            continue;
        }
        entries[kept] = entries[i];
        kept += 1;
    }
    entries.truncate(kept);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_core::Value;
    use pip_dist::prelude::builtin;
    use pip_expr::{atoms, Equation, RandomVar};

    fn y() -> RandomVar {
        RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap()
    }

    fn expo() -> RandomVar {
        RandomVar::create(builtin::exponential(), &[1.0]).unwrap()
    }

    #[test]
    fn trivially_true_and_false() {
        let c = consistency_check(&Conjunction::top());
        assert!(matches!(c, Consistency::Consistent { .. }));
        let c = consistency_check(&Conjunction::single(atoms::gt(1.0, 2.0)));
        assert!(c.is_inconsistent());
    }

    #[test]
    fn box_contradiction_detected() {
        let v = y();
        // v > 5 AND v < 3 — inconsistent.
        let cond = Conjunction::of(vec![
            atoms::gt(Equation::from(v.clone()), 5.0),
            atoms::lt(Equation::from(v.clone()), 3.0),
        ]);
        assert!(consistency_check(&cond).is_inconsistent());
    }

    #[test]
    fn satisfiable_box_returns_bounds() {
        let v = y();
        let cond = Conjunction::of(vec![
            atoms::gt(Equation::from(v.clone()), -3.0),
            atoms::lt(Equation::from(v.clone()), 2.0),
        ]);
        match consistency_check(&cond) {
            Consistency::Consistent { bounds } => {
                let iv = bounds.get(v.key);
                assert_eq!(iv.lo, -3.0);
                assert_eq!(iv.hi, 2.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn support_intersection_strengthens_bounds() {
        // Exponential has support [0, ∞); atom v < 5 then bounds to [0,5].
        let v = expo();
        let cond = Conjunction::single(atoms::lt(Equation::from(v.clone()), 5.0));
        let bounds = consistency_check(&cond).bounds();
        let iv = bounds.get(v.key);
        assert_eq!(iv.lo, 0.0);
        assert_eq!(iv.hi, 5.0);
        // And support alone can refute: v < -1 is impossible.
        let cond = Conjunction::single(atoms::lt(Equation::from(v), -1.0));
        assert!(consistency_check(&cond).is_inconsistent());
    }

    #[test]
    fn cross_variable_propagation() {
        let a = y();
        let b = y();
        // a > 4 AND b > a  →  b > 4 (propagated through tighten1).
        let cond = Conjunction::of(vec![
            atoms::gt(Equation::from(a.clone()), 4.0),
            atoms::gt(Equation::from(b.clone()), Equation::from(a.clone())),
        ]);
        let bounds = consistency_check(&cond).bounds();
        assert!(bounds.get(b.key).lo >= 4.0, "{:?}", bounds.get(b.key));
    }

    #[test]
    fn chain_contradiction_via_propagation() {
        let a = y();
        let b = y();
        // a > 10 AND b > a AND b < 5 — needs one propagation round.
        let cond = Conjunction::of(vec![
            atoms::gt(Equation::from(a.clone()), 10.0),
            atoms::gt(Equation::from(b.clone()), Equation::from(a.clone())),
            atoms::lt(Equation::from(b.clone()), 5.0),
        ]);
        assert!(consistency_check(&cond).is_inconsistent());
    }

    #[test]
    fn coefficients_scale_correctly() {
        let v = y();
        // -2v + 6 >= 0  →  v <= 3
        let cond = Conjunction::single(atoms::ge(Equation::from(v.clone()) * -2.0 + 6.0, 0.0));
        let bounds = consistency_check(&cond).bounds();
        assert_eq!(bounds.get(v.key).hi, 3.0);
    }

    #[test]
    fn discrete_equality_contradiction() {
        let x = RandomVar::create(builtin::discrete_uniform(), &[0.0, 9.0]).unwrap();
        let cond = Conjunction::of(vec![
            atoms::eq(Equation::from(x.clone()), 1.0),
            atoms::eq(Equation::from(x.clone()), 2.0),
        ]);
        assert!(consistency_check(&cond).is_inconsistent());
    }

    #[test]
    fn equality_pins_interval_for_discrete() {
        let x = RandomVar::create(builtin::discrete_uniform(), &[0.0, 9.0]).unwrap();
        let cond = Conjunction::single(atoms::eq(Equation::from(x.clone()), 4.0));
        let bounds = consistency_check(&cond).bounds();
        let iv = bounds.get(x.key);
        assert_eq!((iv.lo, iv.hi), (4.0, 4.0));
    }

    #[test]
    fn string_conditions_resolved_statically() {
        // Deterministic string atom folds away before propagation.
        let v = y();
        let cond = Conjunction::of(vec![
            pip_expr::Atom::new(
                Equation::val(Value::str("Joe")),
                CmpOp::Eq,
                Equation::val(Value::str("Joe")),
            ),
            atoms::gt(Equation::from(v), 0.0),
        ]);
        assert!(!consistency_check(&cond).is_inconsistent());
        let cond = Conjunction::single(pip_expr::Atom::new(
            Equation::val(Value::str("Joe")),
            CmpOp::Eq,
            Equation::val(Value::str("Bob")),
        ));
        assert!(consistency_check(&cond).is_inconsistent());
    }

    /// Soundness property: a sampled witness that satisfies the condition
    /// implies the checker must NOT call it inconsistent, and the witness
    /// must lie inside the returned bounds.
    #[test]
    fn soundness_against_random_witnesses() {
        use pip_dist::rng_from_seed;
        use pip_expr::Assignment;
        use rand::Rng;
        let mut rng = rng_from_seed(123);
        for trial in 0..50 {
            let a = y();
            let b = y();
            // Random box + one linking constraint.
            let (la, ha) = {
                let l: f64 = rng.gen_range(-5.0..0.0);
                (l, l + rng.gen_range(0.5..5.0))
            };
            let cond = Conjunction::of(vec![
                atoms::ge(Equation::from(a.clone()), la),
                atoms::le(Equation::from(a.clone()), ha),
                atoms::le(Equation::from(b.clone()), Equation::from(a.clone()) + 1.0),
            ]);
            // Witness: pick a in box, b below a+1.
            let wa = rng.gen_range(la..ha);
            let wb = wa + 1.0 - rng.gen_range(0.0..3.0);
            let mut asg = Assignment::new();
            asg.set(a.key, wa);
            asg.set(b.key, wb);
            assert!(cond.eval(&asg).unwrap(), "witness must satisfy");
            match consistency_check(&cond) {
                Consistency::Inconsistent => panic!("trial {trial}: sound witness refuted"),
                Consistency::Consistent { bounds, .. } => {
                    assert!(bounds.get(a.key).contains(wa));
                    assert!(bounds.get(b.key).contains(wb));
                }
            }
        }
    }
}
