//! Variable scopes as compact bitsets.
//!
//! Every SPN node covers a *scope*: the set of random variables its
//! sub-network models. Structural validity (completeness of sum nodes,
//! decomposability of product nodes) is defined entirely in terms of
//! scope equality and disjointness, so scope operations sit on the hot
//! path of validation. A `Vec<u64>` bitset keeps
//! them O(V/64).

use std::fmt;

/// A set of variable indices.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub(crate) struct Scope {
    words: Vec<u64>,
}

impl Scope {
    /// The empty scope.
    pub(crate) fn empty() -> Self {
        Scope::default()
    }

    /// Scope containing exactly `var`.
    pub(crate) fn singleton(var: usize) -> Self {
        let mut s = Scope::empty();
        s.insert(var);
        s
    }

    /// Scope from an iterator of variable indices.
    pub(crate) fn from_vars<I: IntoIterator<Item = usize>>(vars: I) -> Self {
        let mut s = Scope::empty();
        for v in vars {
            s.insert(v);
        }
        s
    }

    /// Insert a variable. Returns `true` if it was newly inserted.
    pub(crate) fn insert(&mut self, var: usize) -> bool {
        let (w, b) = (var / 64, var % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Number of variables in the scope.
    pub(crate) fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Union with another scope, in place.
    pub(crate) fn union_with(&mut self, other: &Scope) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Structural equality ignoring trailing zero words.
    pub(crate) fn same_as(&self, other: &Scope) -> bool {
        let longest = self.words.len().max(other.words.len());
        (0..longest).all(|i| {
            self.words.get(i).copied().unwrap_or(0) == other.words.get(i).copied().unwrap_or(0)
        })
    }

    /// Iterate over member variables in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            (0..64).filter_map(move |b| (word & (1 << b) != 0).then_some(wi * 64 + b))
        })
    }
}

impl fmt::Debug for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for Scope {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        Scope::from_vars(iter)
    }
}

#[cfg(test)]
impl Scope {
    /// Membership test.
    pub(crate) fn contains(&self, var: usize) -> bool {
        let (w, b) = (var / 64, var % 64);
        self.words.get(w).is_some_and(|&word| word & (1 << b) != 0)
    }

    /// True when no variable is in scope.
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True when every variable of `self` is also in `other`.
    pub(crate) fn is_subset(&self, other: &Scope) -> bool {
        self.words.iter().enumerate().all(|(i, &a)| {
            let b = other.words.get(i).copied().unwrap_or(0);
            a & !b == 0
        })
    }

    /// Scope containing all variables in `0..n`.
    pub(crate) fn full(n: usize) -> Self {
        let mut s = Scope::empty();
        for v in 0..n {
            s.insert(v);
        }
        s
    }

    /// Union as a new scope.
    pub(crate) fn union(&self, other: &Scope) -> Scope {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// True when the two scopes share no variable.
    pub(crate) fn is_disjoint(&self, other: &Scope) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(&a, &b)| a & b == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = Scope::empty();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(100));
        assert!(s.contains(3));
        assert!(s.contains(100));
        assert!(!s.contains(4));
        assert!(!s.contains(1000));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn empty_and_singleton_and_full() {
        assert!(Scope::empty().is_empty());
        assert_eq!(Scope::empty().len(), 0);
        let s = Scope::singleton(7);
        assert_eq!(s.len(), 1);
        assert!(s.contains(7));
        let f = Scope::full(80);
        assert_eq!(f.len(), 80);
        assert!(f.contains(0) && f.contains(79) && !f.contains(80));
    }

    #[test]
    fn union_and_disjoint() {
        let a = Scope::from_vars([0, 2, 64]);
        let b = Scope::from_vars([1, 3, 65]);
        assert!(a.is_disjoint(&b));
        let u = a.union(&b);
        assert_eq!(u.len(), 6);
        assert!(!u.is_disjoint(&a));
        let c = Scope::from_vars([2]);
        assert!(!a.is_disjoint(&c));
    }

    #[test]
    fn same_as_ignores_trailing_words() {
        let mut a = Scope::singleton(1);
        let mut b = Scope::singleton(1);
        let _ = &mut b;
        assert!(a.same_as(&b));
        a.insert(200);
        assert!(!a.same_as(&b));
        // A scope that grew and shrank conceptually: simulate by comparing
        // short vs long representations of the same set.
        let short = Scope::singleton(0);
        let mut long = Scope::singleton(0);
        long.insert(300);
        assert!(!short.same_as(&long));
    }

    #[test]
    fn iter_ascending() {
        let s = Scope::from_vars([65, 0, 7, 64]);
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 7, 64, 65]);
    }

    #[test]
    fn subset_relations() {
        let small = Scope::from_vars([1, 3]);
        let big = Scope::from_vars([0, 1, 3, 64]);
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(Scope::empty().is_subset(&small));
        assert!(small.is_subset(&small));
        // A long scope is never a subset of a shorter, disjoint one.
        let long = Scope::singleton(300);
        assert!(!long.is_subset(&small));
        assert!(!small.is_subset(&long));
    }

    #[test]
    fn disjoint_with_different_lengths() {
        let small = Scope::singleton(1);
        let big = Scope::singleton(500);
        assert!(small.is_disjoint(&big));
        assert!(big.is_disjoint(&small));
    }
}
