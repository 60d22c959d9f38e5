//! Minimal independent subsets of condition atoms (paper Section IV-A(c)).
//!
//! Before sampling, PIP partitions a conjunction's atoms into *minimal
//! independent subsets*: groups of atoms sharing no variables. Each group
//! can then be sampled (and its acceptance probability estimated)
//! independently, which both shrinks the rejection space and lets the
//! expectation operator skip groups that don't touch the target
//! expression. Components of one multivariate distribution (same
//! [`crate::vars::VarId`], different subscripts) are statistically
//! dependent, so grouping unifies on `VarId`, not `VarKey`.
//!
//! The same analysis one level up — which *disjuncts* of a DNF share a
//! variable — is [`independent_components`]: `aconf` multiplies across
//! components and samples only inside one.

use std::collections::HashMap;

use crate::atom::Atom;
use crate::condition::Conjunction;
use crate::vars::{RandomVar, VarId};

/// A minimal independent subset: the atoms plus every variable they touch.
#[derive(Debug, Clone)]
pub struct VarGroup {
    pub atoms: Vec<Atom>,
    pub vars: Vec<RandomVar>,
}

impl VarGroup {
    /// True if the group mentions any of the given variable ids.
    pub fn touches(&self, ids: &[VarId]) -> bool {
        self.vars.iter().any(|v| ids.contains(&v.key.id))
    }
}

/// Union-find over a dense index space.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    /// Each element's class index, and the class count. Classes are
    /// numbered by their first member, so the numbering is a pure
    /// function of the element order.
    fn classes(&mut self) -> (Vec<usize>, usize) {
        let mut root_to_class: HashMap<usize, usize> = HashMap::new();
        let class_of = (0..self.parent.len())
            .map(|x| {
                let root = self.find(x);
                let next = root_to_class.len();
                *root_to_class.entry(root).or_insert(next)
            })
            .collect();
        (class_of, root_to_class.len())
    }
}

/// Partition `condition` into minimal independent subsets.
///
/// Extra variables that the caller needs grouped but that appear in no
/// atom (e.g. variables in the target expression of an expectation) can be
/// passed in `extra_vars`; each lands in its own singleton group unless an
/// atom connects it.
pub fn independent_groups(condition: &Conjunction, extra_vars: &[RandomVar]) -> Vec<VarGroup> {
    // Map each distinct VarId to a dense index.
    let mut id_index: HashMap<VarId, usize> = HashMap::new();
    let mut id_vars: Vec<Vec<RandomVar>> = Vec::new(); // all keys per id
    let intern =
        |v: &RandomVar, id_index: &mut HashMap<VarId, usize>, id_vars: &mut Vec<Vec<RandomVar>>| {
            let idx = *id_index.entry(v.key.id).or_insert_with(|| {
                id_vars.push(Vec::new());
                id_vars.len() - 1
            });
            if !id_vars[idx].iter().any(|o| o.key == v.key) {
                id_vars[idx].push(v.clone());
            }
            idx
        };

    let atom_vars: Vec<Vec<usize>> = condition
        .atoms()
        .iter()
        .map(|a| {
            a.variables()
                .iter()
                .map(|v| intern(v, &mut id_index, &mut id_vars))
                .collect()
        })
        .collect();
    for v in extra_vars {
        intern(v, &mut id_index, &mut id_vars);
    }

    let n = id_vars.len();
    let mut dsu = Dsu::new(n);
    for vars in &atom_vars {
        for w in vars.windows(2) {
            dsu.union(w[0], w[1]);
        }
    }

    let (group_of, n_groups) = dsu.classes();
    let mut groups: Vec<VarGroup> = (0..n_groups)
        .map(|_| VarGroup {
            atoms: Vec::new(),
            vars: Vec::new(),
        })
        .collect();
    for (vars, &g) in id_vars.iter().zip(&group_of) {
        groups[g].vars.extend(vars.iter().cloned());
    }
    for (atom, vars) in condition.atoms().iter().zip(&atom_vars) {
        if let Some(&first) = vars.first() {
            groups[group_of[first]].atoms.push(atom.clone());
        }
        // Atoms with no variables were simplified away upstream; if one
        // survives (caller skipped simplify) it holds in every world and
        // can be ignored for grouping purposes.
    }
    groups
}

/// Partition the disjuncts of a DNF into variable-connected components:
/// two disjuncts land together iff a chain of shared [`VarId`]s links
/// them, so events of different components are independent and
/// `P[∨ all] = 1 − Π_components (1 − P[∨ component])`.
///
/// Components are lists of indices into `disjuncts`, each ascending,
/// ordered by their first index — a pure function of the input order. A
/// variable-free disjunct is a component of its own.
pub fn independent_components(disjuncts: &[Conjunction]) -> Vec<Vec<usize>> {
    let mut dsu = Dsu::new(disjuncts.len());
    let mut owner: HashMap<VarId, usize> = HashMap::new();
    for (i, d) in disjuncts.iter().enumerate() {
        for v in d.variables() {
            match owner.get(&v.key.id) {
                Some(&j) => dsu.union(i, j),
                None => {
                    owner.insert(v.key.id, i);
                }
            }
        }
    }
    let (component_of, n_components) = dsu.classes();
    let mut components = vec![Vec::new(); n_components];
    for (i, &c) in component_of.iter().enumerate() {
        components[c].push(i);
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::atoms::*;
    use crate::equation::Equation;
    use crate::vars::RandomVar;
    use pip_dist::prelude::builtin;

    fn y() -> RandomVar {
        RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap()
    }

    #[test]
    fn paper_section_4a_example() {
        // (Y1 > 4) ∧ (Y1·Y2 > Y3) ∧ (A < 6) — two groups.
        let y1 = y();
        let y2 = y();
        let y3 = y();
        let a = y();
        let cond = Conjunction::of(vec![
            gt(Equation::from(y1.clone()), 4.0),
            gt(
                Equation::from(y1.clone()) * Equation::from(y2.clone()),
                Equation::from(y3.clone()),
            ),
            lt(Equation::from(a.clone()), 6.0),
        ]);
        let groups = independent_groups(&cond, &[]);
        assert_eq!(groups.len(), 2);
        let big = groups.iter().find(|g| g.vars.len() == 3).unwrap();
        assert_eq!(big.atoms.len(), 2);
        let small = groups.iter().find(|g| g.vars.len() == 1).unwrap();
        assert_eq!(small.atoms.len(), 1);
        assert!(small.vars[0].key == a.key);
    }

    #[test]
    fn multivariate_components_share_a_group() {
        let base = y();
        let c0 = base.component(0);
        let c1 = base.component(1);
        let other = y();
        let cond = Conjunction::of(vec![
            gt(Equation::from(c0), 0.0),
            lt(Equation::from(c1), 5.0),
            gt(Equation::from(other), 1.0),
        ]);
        let groups = independent_groups(&cond, &[]);
        // c0 and c1 share VarId → same group despite disjoint atoms.
        assert_eq!(groups.len(), 2);
        let mv = groups.iter().find(|g| g.vars.len() == 2).unwrap();
        assert_eq!(mv.atoms.len(), 2);
    }

    #[test]
    fn extra_vars_form_singletons() {
        let v = y();
        let w = y();
        let cond = Conjunction::single(gt(Equation::from(v.clone()), 0.0));
        let groups = independent_groups(&cond, std::slice::from_ref(&w));
        assert_eq!(groups.len(), 2);
        let lonely = groups.iter().find(|g| g.atoms.is_empty()).unwrap();
        assert_eq!(lonely.vars[0].key, w.key);
        assert!(lonely.touches(&[w.key.id]));
        assert!(!lonely.touches(&[v.key.id]));
    }

    #[test]
    fn empty_condition_no_groups() {
        assert!(independent_groups(&Conjunction::top(), &[]).is_empty());
    }

    #[test]
    fn disjunct_components_follow_shared_ids_in_input_order() {
        let (a, b, c) = (y(), y(), y());
        let on = |v: &RandomVar| Conjunction::single(gt(Equation::from(v.clone()), 0.0));
        // 0:{a} 1:{b} 2:{a,c} 3:{} 4:{c.component(1)} — a links 0–2, c's id links 2–4.
        let disjuncts = vec![
            on(&a),
            on(&b),
            Conjunction::single(lt(Equation::from(a.clone()), Equation::from(c.clone()))),
            Conjunction::top(),
            on(&c.component(1)),
        ];
        assert_eq!(
            independent_components(&disjuncts),
            vec![vec![0, 2, 4], vec![1], vec![3]]
        );
        assert!(independent_components(&[]).is_empty());
    }

    #[test]
    fn chain_merges_transitively() {
        let a = y();
        let b = y();
        let c = y();
        // a-b and b-c connect all three.
        let cond = Conjunction::of(vec![
            lt(Equation::from(a.clone()), Equation::from(b.clone())),
            lt(Equation::from(b.clone()), Equation::from(c.clone())),
        ]);
        let groups = independent_groups(&cond, &[]);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].vars.len(), 3);
        assert_eq!(groups[0].atoms.len(), 2);
    }
}
