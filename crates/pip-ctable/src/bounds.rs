//! Interval bounds on random variables, derived from condition atoms.
//!
//! The consistency checker (Algorithm 3.2) maintains a map
//! `variable → [lo, hi]` and repeatedly tightens it; the same map is then
//! reused by the CDF-bounded sampler (Section IV-A(b)) to restrict the
//! uniform input range of inverse-CDF generation.

use std::fmt;

use pip_expr::VarKey;

/// A closed interval `[lo, hi]` (±∞ allowed).
///
/// Strict (`<`) constraints are recorded with closed endpoints: for
/// continuous variables the boundary carries zero probability mass, so
/// the distinction never changes an expectation; an interval is *empty*
/// only when `lo > hi`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub lo: f64,
    pub hi: f64,
}

impl Interval {
    /// The unconstrained interval `[−∞, ∞]`.
    pub fn all() -> Self {
        Interval {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        }
    }

    pub fn new(lo: f64, hi: f64) -> Self {
        Interval { lo, hi }
    }

    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    pub fn is_unbounded(&self) -> bool {
        self.lo == f64::NEG_INFINITY && self.hi == f64::INFINITY
    }

    /// True when both endpoints are finite.
    pub fn is_finite(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    pub fn intersect(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo && x <= self.hi
    }

    pub fn width(&self) -> f64 {
        (self.hi - self.lo).max(0.0)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// The bounds map `S` of Algorithm 3.2: entries sorted by variable,
/// looked up by binary search. No hashing, and iteration runs in key
/// order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BoundsMap {
    entries: Vec<(VarKey, Interval)>,
}

impl BoundsMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// The map of `entries`, given in any order, each key once.
    pub(crate) fn from_entries(mut entries: Vec<(VarKey, Interval)>) -> Self {
        entries.sort_unstable_by_key(|e| e.0);
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "a key listed twice"
        );
        BoundsMap { entries }
    }

    fn find(&self, key: VarKey) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&key, |e| e.0)
    }

    /// Bounds for `key` (unconstrained if absent).
    pub fn get(&self, key: VarKey) -> Interval {
        match self.find(key) {
            Ok(i) => self.entries[i].1,
            Err(_) => Interval::all(),
        }
    }

    pub fn set(&mut self, key: VarKey, iv: Interval) {
        match self.find(key) {
            Ok(i) => self.entries[i].1 = iv,
            Err(i) => self.entries.insert(i, (key, iv)),
        }
    }

    /// Intersect the stored interval with `iv`; returns the result.
    pub fn tighten(&mut self, key: VarKey, iv: Interval) -> Interval {
        let next = self.get(key).intersect(&iv);
        self.set(key, next);
        next
    }

    /// True if any variable's interval became empty.
    pub fn any_empty(&self) -> bool {
        self.entries.iter().any(|e| e.1.is_empty())
    }

    /// Entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&VarKey, &Interval)> {
        self.entries.iter().map(|(k, iv)| (k, iv))
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_expr::{VarId, VarKey};

    fn k(n: u64) -> VarKey {
        VarKey {
            id: VarId(n),
            subscript: 0,
        }
    }

    #[test]
    fn interval_basics() {
        let a = Interval::all();
        assert!(a.is_unbounded() && !a.is_empty() && !a.is_finite());
        let i = Interval::new(1.0, 3.0);
        assert!(i.contains(2.0) && i.contains(1.0) && i.contains(3.0));
        assert!(!i.contains(0.0));
        assert_eq!(i.width(), 2.0);
        let e = Interval::new(3.0, 1.0);
        assert!(e.is_empty());
        assert_eq!(e.width(), 0.0);
    }

    #[test]
    fn intersection() {
        let a = Interval::new(0.0, 10.0);
        let b = Interval::new(5.0, 20.0);
        assert_eq!(a.intersect(&b), Interval::new(5.0, 10.0));
        let c = Interval::new(11.0, 20.0);
        assert!(a.intersect(&c).is_empty());
        assert_eq!(a.intersect(&Interval::all()), a);
    }

    #[test]
    fn bounds_map_tighten() {
        let mut m = BoundsMap::new();
        assert!(m.get(k(1)).is_unbounded());
        m.tighten(k(1), Interval::new(0.0, f64::INFINITY));
        m.tighten(k(1), Interval::new(f64::NEG_INFINITY, 5.0));
        assert_eq!(m.get(k(1)), Interval::new(0.0, 5.0));
        assert!(!m.any_empty());
        m.tighten(k(1), Interval::new(6.0, 7.0));
        assert!(m.any_empty());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn entries_stay_sorted() {
        let mut m = BoundsMap::new();
        for n in [5, 1, 3] {
            m.tighten(k(n), Interval::new(0.0, n as f64));
        }
        let keys: Vec<u64> = m.iter().map(|(key, _)| key.id.0).collect();
        assert_eq!(keys, [1, 3, 5]);
        let built = BoundsMap::from_entries(vec![
            (k(5), Interval::new(0.0, 5.0)),
            (k(3), Interval::new(0.0, 3.0)),
            (k(1), Interval::new(0.0, 1.0)),
        ]);
        assert_eq!(built, m);
    }
}
