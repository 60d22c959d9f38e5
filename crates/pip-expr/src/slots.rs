//! Dense slot indices for variable keys.
//!
//! The sampling compiler in `pip-sampling` flattens equation/condition
//! trees into evaluation tapes whose operands are *slot indices* into a
//! flat `f64` buffer instead of [`crate::vars::VarKey`]s resolved through
//! an [`crate::vars::Assignment`] hash map. A [`SlotMap`] is the bridge:
//! it interns every variable a prepared query can touch (in a
//! deterministic first-come order) and hands out the dense indices the
//! tapes and sample blocks are built around.

use std::collections::HashMap;

use crate::vars::{RandomVar, VarKey};

/// Interned `VarKey → dense index` mapping for one compiled query.
///
/// Slots are allocated in insertion order, so building the map by
/// iterating variable groups in group order gives every thread and every
/// run the same layout.
#[derive(Debug, Clone, Default)]
pub struct SlotMap {
    keys: Vec<VarKey>,
    index: HashMap<VarKey, u32>,
}

impl SlotMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `key`, returning its slot (existing or freshly allocated).
    pub fn intern(&mut self, key: VarKey) -> u32 {
        if let Some(&i) = self.index.get(&key) {
            return i;
        }
        let i = self.keys.len() as u32;
        self.keys.push(key);
        self.index.insert(key, i);
        i
    }

    /// Slot of an already-interned key.
    pub fn slot_of(&self, key: VarKey) -> Option<u32> {
        self.index.get(&key).copied()
    }

    /// Number of slots allocated so far (the scratch-buffer width).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Keys in slot order (`keys()[i]` owns slot `i`).
    pub fn keys(&self) -> &[VarKey] {
        &self.keys
    }

    /// Intern every variable of `vars` in order.
    pub fn intern_all(&mut self, vars: &[RandomVar]) {
        for v in vars {
            self.intern(v.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_dist::prelude::builtin;

    #[test]
    fn interning_is_dense_and_stable() {
        let a = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
        let b = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
        let mut m = SlotMap::new();
        assert!(m.is_empty());
        assert_eq!(m.intern(a.key), 0);
        assert_eq!(m.intern(b.key), 1);
        assert_eq!(m.intern(a.key), 0, "re-interning returns the old slot");
        assert_eq!(m.len(), 2);
        assert_eq!(m.slot_of(b.key), Some(1));
        assert_eq!(m.slot_of(a.component(7).key), None);
        assert_eq!(m.keys(), &[a.key, b.key]);
    }

    #[test]
    fn intern_all_preserves_order() {
        let vars: Vec<RandomVar> = (0..5)
            .map(|_| RandomVar::create(builtin::uniform(), &[0.0, 1.0]).unwrap())
            .collect();
        let mut m = SlotMap::new();
        m.intern_all(&vars);
        for (i, v) in vars.iter().enumerate() {
            assert_eq!(m.slot_of(v.key), Some(i as u32));
        }
    }
}
