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
#[derive(Default)]
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
        // Indexed by element: a root's slot holds its class number, and
        // every other slot its element's class once it is visited.
        let mut class = vec![usize::MAX; self.parent.len()];
        let mut n = 0;
        for x in 0..self.parent.len() {
            let root = self.find(x);
            if class[root] == usize::MAX {
                class[root] = n;
                n += 1;
            }
            class[x] = class[root];
        }
        (class, n)
    }
}

/// The variables of one partition. Each distinct [`VarId`] gets a dense
/// index in order of appearance; the union-find runs over those indices.
/// The ids are collected and sorted once up front, so finding one is a
/// binary search and a long conjunction costs `n log n`, with no hashing.
struct Interned<'a> {
    /// Every id that will be interned, sorted, with its dense index once
    /// interned (`usize::MAX` before).
    slots: Vec<(VarId, usize)>,
    /// Per id index: the key the id first appeared with.
    ids: Vec<&'a RandomVar>,
    /// Further keys (other subscripts) of known ids, in order of
    /// appearance — empty unless a multivariate variable shows up.
    others: Vec<&'a RandomVar>,
    dsu: Dsu,
}

impl<'a> Interned<'a> {
    /// Ready to intern the variables of `atoms`, then `extra_vars`.
    fn new(atoms: &[Atom], extra_vars: &[RandomVar]) -> Self {
        let mut slots = Vec::new();
        for atom in atoms {
            atom.for_each_var(&mut |v| slots.push((v.key.id, usize::MAX)));
        }
        slots.extend(extra_vars.iter().map(|v| (v.key.id, usize::MAX)));
        slots.sort_unstable();
        slots.dedup();
        Interned {
            slots,
            ids: Vec::new(),
            others: Vec::new(),
            dsu: Dsu::default(),
        }
    }

    fn slot(&self, id: VarId) -> usize {
        (self.slots.binary_search_by_key(&id, |&(s, _)| s)).expect("collected up front")
    }

    /// The id index of an interned id.
    fn find(&self, id: VarId) -> usize {
        self.slots[self.slot(id)].1
    }

    /// The id index of `v`.
    fn intern(&mut self, v: &'a RandomVar) -> usize {
        let slot = self.slot(v.key.id);
        let i = self.slots[slot].1;
        if i != usize::MAX {
            let known = self.ids[i].key == v.key || self.others.iter().any(|o| o.key == v.key);
            if !known {
                self.others.push(v);
            }
            return i;
        }
        let i = self.ids.len();
        self.slots[slot].1 = i;
        self.ids.push(v);
        self.dsu.parent.push(i);
        i
    }
}

/// Partition `condition` into minimal independent subsets.
///
/// Extra variables that the caller needs grouped but that appear in no
/// atom (e.g. variables in the target expression of an expectation) can be
/// passed in `extra_vars`; each lands in its own singleton group unless an
/// atom connects it. The atoms' variables are numbered before the extras,
/// so the groups that carry atoms come first, in the same order and with
/// the same atoms as `independent_groups(condition, &[])` gives.
///
/// Groups are numbered by their first variable in order of appearance;
/// a group's variables are listed by id in that order (the keys of one
/// id in order of appearance), its atoms in condition order.
pub fn independent_groups(condition: &Conjunction, extra_vars: &[RandomVar]) -> Vec<VarGroup> {
    let atoms = condition.atoms();
    let mut vars = Interned::new(atoms, extra_vars);
    for atom in atoms {
        let mut first = None;
        atom.for_each_var(&mut |v| {
            let i = vars.intern(v);
            match first {
                None => first = Some(i),
                Some(f) => vars.dsu.union(f, i),
            }
        });
    }
    for v in extra_vars {
        vars.intern(v);
    }
    let (group_of, n_groups) = vars.dsu.classes();

    let mut groups: Vec<VarGroup> = (0..n_groups)
        .map(|_| VarGroup {
            atoms: Vec::new(),
            vars: Vec::new(),
        })
        .collect();
    for (v, &g) in vars.ids.iter().zip(&group_of) {
        let vs = &mut groups[g].vars;
        vs.push((*v).clone());
        let same_id = |o: &&&RandomVar| o.key.id == v.key.id;
        vs.extend(vars.others.iter().filter(same_id).map(|o| (*o).clone()));
    }
    for atom in atoms {
        let mut first = None;
        atom.for_each_var(&mut |v| {
            first = first.or(Some(v.key.id));
        });
        // Atoms with no variables were simplified away upstream; if one
        // survives (caller skipped simplify) it holds in every world and
        // can be ignored for grouping purposes.
        if let Some(id) = first {
            let i = vars.find(id);
            groups[group_of[i]].atoms.push(atom.clone());
        }
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
