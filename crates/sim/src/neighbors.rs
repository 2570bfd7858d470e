//! Per-neighbour state: one value per neighbour in a vector sorted by
//! [`NodeId`].
//!
//! The paper's automata only ever look at their current neighbours, so a
//! node's state is O(δ) records keyed by the same ≤ δ IDs. A
//! [`Neighbors<T>`] keeps them as one `Vec<(NodeId, T)>` in ascending ID
//! order: lookups binary-search, insertion and removal shift at most δ
//! entries, iteration is the ascending order an ordered map has, and
//! nothing is allocated per lookup or per walk. [`NeighborSet`] is the
//! same container without values.
//!
//! Both derive `Hash` over the sorted entries, so the state digest of an
//! automaton holding them (`crate::digest_of`) does not depend on the
//! order its neighbours were inserted in. The types live here, beside
//! [`NodeId`], because every automaton crate needs them — the doorway crate
//! included, which cannot depend on the algorithms.

use std::fmt;

use crate::ids::NodeId;

/// One value of type `T` per neighbour, sorted by [`NodeId`].
///
/// ```
/// use manet_sim::{Neighbors, NodeId};
///
/// let mut n = Neighbors::new();
/// n.insert(NodeId(3), 'c');
/// n.insert(NodeId(1), 'a');
/// assert_eq!(n.get(NodeId(1)), Some(&'a'));
/// assert!(n.iter().map(|(j, _)| j).eq([NodeId(1), NodeId(3)]));
/// // Rendered like an ordered map.
/// assert_eq!(format!("{n:?}"), "{p1: 'a', p3: 'c'}");
/// assert!(n.keys_where(|&c| c == 'c').eq([NodeId(3)]));
/// assert!(n.keys_where(|&c| c == 'b').is_empty());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Neighbors<T> {
    /// Strictly ascending by ID.
    entries: Vec<(NodeId, T)>,
}

impl<T> Default for Neighbors<T> {
    fn default() -> Neighbors<T> {
        Neighbors::new()
    }
}

impl<T> Neighbors<T> {
    /// No neighbours; owns no heap memory.
    pub const fn new() -> Neighbors<T> {
        Neighbors {
            entries: Vec::new(),
        }
    }

    /// True when no neighbour is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn find(&self, j: NodeId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&j, |&(k, _)| k)
    }

    /// Whether `j` is held.
    pub fn contains(&self, j: NodeId) -> bool {
        self.find(j).is_ok()
    }

    /// The value of `j`, if held.
    pub fn get(&self, j: NodeId) -> Option<&T> {
        self.find(j).ok().map(|i| &self.entries[i].1)
    }

    /// The value of `j` for update, if held.
    pub fn get_mut(&mut self, j: NodeId) -> Option<&mut T> {
        self.find(j).ok().map(|i| &mut self.entries[i].1)
    }

    /// Set the value of `j`, returning the one it replaces.
    pub fn insert(&mut self, j: NodeId, value: T) -> Option<T> {
        match self.find(j) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (j, value));
                None
            }
        }
    }

    /// Drop `j`, returning its value if it was held.
    pub fn remove(&mut self, j: NodeId) -> Option<T> {
        self.find(j).ok().map(|i| self.entries.remove(i).1)
    }

    /// Drop every neighbour, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Keep only the neighbours for which `keep` returns true, visiting
    /// each once in ascending order.
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId, &mut T) -> bool) {
        self.entries.retain_mut(|(j, v)| keep(*j, v));
    }

    /// The neighbours and their values, ascending by ID.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> + Clone {
        self.entries.iter().map(|(j, v)| (*j, v))
    }

    /// The neighbours and their values for update, ascending by ID.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut T)> {
        self.entries.iter_mut().map(|(j, v)| (*j, v))
    }

    /// The neighbours whose value satisfies `pred`, ascending by ID.
    pub fn keys_where(&self, pred: fn(&T) -> bool) -> KeysWhere<'_, T> {
        KeysWhere {
            entries: self.entries.iter(),
            pred,
        }
    }
}

/// Rendered like the ordered map with the same entries.
impl<T: fmt::Debug> fmt::Debug for Neighbors<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Collects like an ordered map: any order in, ascending out, and a later
/// value for a repeated ID replaces the earlier one.
impl<T> FromIterator<(NodeId, T)> for Neighbors<T> {
    fn from_iter<I: IntoIterator<Item = (NodeId, T)>>(iter: I) -> Neighbors<T> {
        let mut n = Neighbors::new();
        for (j, v) in iter {
            n.insert(j, v);
        }
        n
    }
}

/// The neighbours whose value satisfies a predicate, ascending by ID; see
/// [`Neighbors::keys_where`].
pub struct KeysWhere<'a, T> {
    entries: std::slice::Iter<'a, (NodeId, T)>,
    pred: fn(&T) -> bool,
}

impl<T> KeysWhere<'_, T> {
    /// True when no neighbour is left to yield.
    pub fn is_empty(&self) -> bool {
        !self.entries.as_slice().iter().any(|(_, v)| (self.pred)(v))
    }
}

impl<T> Iterator for KeysWhere<'_, T> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let pred = self.pred;
        self.entries.find(|(_, v)| pred(v)).map(|&(j, _)| j)
    }
}

/// A set of neighbours: a [`Neighbors`] without values, rendered like the
/// ordered set with the same members.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct NeighborSet(Neighbors<()>);

impl NeighborSet {
    /// No neighbours; owns no heap memory.
    pub const fn new() -> NeighborSet {
        NeighborSet(Neighbors::new())
    }

    /// True when no neighbour is a member.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether `j` is a member.
    pub fn contains(&self, j: NodeId) -> bool {
        self.0.contains(j)
    }

    /// Add `j`; false if it already was a member.
    pub fn insert(&mut self, j: NodeId) -> bool {
        self.0.insert(j, ()).is_none()
    }

    /// Drop `j`; false if it was not a member.
    pub fn remove(&mut self, j: NodeId) -> bool {
        self.0.remove(j).is_some()
    }

    /// Drop every member, keeping the allocation.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// The members, ascending by ID.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + Clone + '_ {
        self.0.iter().map(|(j, _)| j)
    }
}

impl fmt::Debug for NeighborSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::{BTreeMap, BTreeSet};

    fn odd(v: &u8) -> bool {
        v % 2 == 1
    }

    /// Every observable of `n` and `set` equals the trees they replace:
    /// contents, iteration order, the selected keys, and the `Debug`
    /// rendering.
    fn assert_same(
        n: &Neighbors<u8>,
        set: &NeighborSet,
        reference: &BTreeMap<NodeId, u8>,
        members: &BTreeSet<NodeId>,
        at: &str,
    ) {
        assert!(n.iter().eq(reference.iter().map(|(&j, v)| (j, v))), "{at}");
        assert!(set.iter().eq(members.iter().copied()), "{at}");
        let odd_ids: BTreeSet<NodeId> = reference
            .iter()
            .filter(|(_, v)| odd(v))
            .map(|(&j, _)| j)
            .collect();
        assert!(n.keys_where(odd).eq(odd_ids.iter().copied()), "{at}");
        assert_eq!(n.keys_where(odd).is_empty(), odd_ids.is_empty(), "{at}");
        assert_eq!(format!("{n:?}"), format!("{reference:?}"), "{at}");
        assert_eq!(format!("{set:?}"), format!("{members:?}"), "{at}");
    }

    #[test]
    fn random_operations_match_the_ordered_trees() {
        const N: u32 = 12;
        for seed in 0..20 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut n: Neighbors<u8> = Neighbors::new();
            let mut reference: BTreeMap<NodeId, u8> = BTreeMap::new();
            let mut set = NeighborSet::new();
            let mut members: BTreeSet<NodeId> = BTreeSet::new();
            for step in 0..2000 {
                let j = NodeId(rng.gen_range(0..N));
                let v = rng.gen_range(0..=255u32) as u8;
                let at = format!("seed {seed} step {step}");
                match rng.gen_range(0..9u32) {
                    0 | 1 => {
                        assert_eq!(n.insert(j, v), reference.insert(j, v), "{at}");
                        assert_eq!(set.insert(j), members.insert(j), "{at}");
                    }
                    2 => {
                        assert_eq!(n.remove(j), reference.remove(&j), "{at}");
                        assert_eq!(set.remove(j), members.remove(&j), "{at}");
                    }
                    3 => {
                        assert_eq!(n.get(j), reference.get(&j), "{at}");
                        assert_eq!(n.contains(j), reference.contains_key(&j), "{at}");
                        assert_eq!(set.contains(j), members.contains(&j), "{at}");
                        assert_eq!(set.is_empty(), members.is_empty(), "{at}");
                    }
                    4 => {
                        if let Some(x) = n.get_mut(j) {
                            *x = x.wrapping_add(v);
                        }
                        if let Some(x) = reference.get_mut(&j) {
                            *x = x.wrapping_add(v);
                        }
                    }
                    5 => {
                        for ((_, x), (_, y)) in n.iter_mut().zip(reference.iter_mut()) {
                            *x ^= v;
                            *y ^= v;
                        }
                    }
                    6 if v < 8 => {
                        n.clear();
                        reference.clear();
                        set.clear();
                        members.clear();
                    }
                    _ => {
                        let mut visited = Vec::new();
                        n.retain(|k, x| {
                            visited.push(k);
                            *x % 3 != v % 3
                        });
                        reference.retain(|_, x| *x % 3 != v % 3);
                        assert!(visited.windows(2).all(|w| w[0] < w[1]), "{at}");
                    }
                }
                assert_same(&n, &set, &reference, &members, &at);
            }
            let rebuilt: Neighbors<u8> = reference.iter().rev().map(|(&j, &v)| (j, v)).collect();
            let at = format!("seed {seed} collected");
            assert_same(&rebuilt, &set, &reference, &members, &at);
            // Built in another order, hashed the same.
            assert_eq!(crate::digest_of(&rebuilt), crate::digest_of(&n), "{at}");
        }
    }

    #[test]
    fn collecting_keeps_the_last_value_of_a_repeated_id() {
        let n: Neighbors<char> = [(NodeId(2), 'a'), (NodeId(1), 'b'), (NodeId(2), 'c')]
            .into_iter()
            .collect();
        assert_eq!(format!("{n:?}"), "{p1: 'b', p2: 'c'}");
    }
}
