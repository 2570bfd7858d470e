//! The link-incarnation store: every piece of simulator state that is
//! scoped to *one incarnation of one directed link* lives in a
//! [`LinkStore`], and this module is the only place that decides how such
//! state is stored, found and reset.
//!
//! A link's **incarnation** is a counter per unordered node pair: 0 until
//! the pair's first flap, +1 on every link-up and every link-down. Frames
//! in flight carry the incarnation they were sent on (and queue digests
//! hash it), so a pair's counter is never dropped or renumbered — records
//! outlive the link they describe. That is also why per-node rows searched
//! linearly lose: a mover's row keeps every peer it ever met, and the scan
//! grows with the run (measured +24 % wall on `sim_mobile_a1`; DESIGN §15).
//!
//! Payloads are reset lazily: [`LinkStore::get_mut`] replaces a payload
//! last written under an older incarnation with `T::default()` before
//! handing it out. State of a dead incarnation is therefore never
//! observed, and nothing is touched at flap time beyond the counter.
//!
//! The map is keyed by the directed pair packed into a `u64`, hashed by a
//! fixed in-crate multiplicative hasher, and **never iterated**: nothing a
//! run can observe depends on its order. Memory is O(pairs ever linked),
//! independent of `n`; an empty store owns no heap memory at all.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::ids::NodeId;

/// Fixed-seed hasher for packed node pairs: one multiply by the 64-bit
/// golden ratio, then the high half folded onto the low half — the
/// product's low bits depend only on `to`, and the table indexes by them.
#[derive(Default)]
pub(crate) struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let h = (self.0 ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn key(from: NodeId, to: NodeId) -> u64 {
    u64::from(from.0) << 32 | u64::from(to.0)
}

#[derive(Clone, Default)]
struct Record<T> {
    /// Current incarnation of the link, mirrored in both directions.
    incarnation: u64,
    /// Incarnation `payload` was last handed out under.
    written: u64,
    payload: T,
}

/// Per-directed-link state of type `T`, valid for one link incarnation at
/// a time. A pair with no record reads as incarnation 0 with a default
/// payload. See the module docs.
#[derive(Clone)]
pub(crate) struct LinkStore<T> {
    map: HashMap<u64, Record<T>, BuildHasherDefault<PairHasher>>,
}

impl<T: Default> LinkStore<T> {
    pub fn new() -> LinkStore<T> {
        LinkStore {
            map: HashMap::default(),
        }
    }

    /// Current incarnation of the `a — b` link.
    pub fn incarnation(&self, a: NodeId, b: NodeId) -> u64 {
        self.map.get(&key(a, b)).map_or(0, |r| r.incarnation)
    }

    /// The `a — b` link flapped (up or down): start its next incarnation.
    /// Both directions' payloads go stale at once.
    pub fn bump(&mut self, a: NodeId, b: NodeId) {
        self.map.entry(key(a, b)).or_default().incarnation += 1;
        self.map.entry(key(b, a)).or_default().incarnation += 1;
    }

    /// Payload of `from → to` in the link's current incarnation, starting
    /// from `T::default()` on first access in each incarnation.
    pub fn get_mut(&mut self, from: NodeId, to: NodeId) -> &mut T {
        self.entry(from, to).1
    }

    /// [`LinkStore::get_mut`] together with the incarnation it belongs
    /// to, in one lookup.
    pub fn entry(&mut self, from: NodeId, to: NodeId) -> (u64, &mut T) {
        let rec = self.map.entry(key(from, to)).or_default();
        if rec.written != rec.incarnation {
            rec.payload = T::default();
            rec.written = rec.incarnation;
        }
        (rec.incarnation, &mut rec.payload)
    }

    /// Read-only view of `from → to`: `None` when nothing was written in
    /// the current incarnation (the payload is, in effect, the default).
    pub fn get(&self, from: NodeId, to: NodeId) -> Option<&T> {
        let rec = self.map.get(&key(from, to))?;
        (rec.written == rec.incarnation).then_some(&rec.payload)
    }

    /// Number of directed records held.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// The layout the store replaced: flat `n × n` tables, each slot
    /// carrying its own epoch tag and its own reset-on-mismatch.
    struct Dense {
        n: usize,
        epoch: Vec<u64>,
        slots: Vec<(u64, u64)>,
    }

    impl Dense {
        fn new(n: usize) -> Dense {
            Dense {
                n,
                epoch: vec![0; n * n],
                slots: vec![(0, 0); n * n],
            }
        }

        fn undirected(&self, a: NodeId, b: NodeId) -> usize {
            a.0.min(b.0) as usize * self.n + a.0.max(b.0) as usize
        }

        fn slot(&mut self, from: NodeId, to: NodeId) -> &mut u64 {
            let epoch = self.epoch[self.undirected(from, to)];
            let slot = &mut self.slots[from.index() * self.n + to.index()];
            if slot.0 != epoch {
                *slot = (epoch, 0);
            }
            &mut slot.1
        }
    }

    #[test]
    fn random_operations_match_the_dense_tables() {
        const N: u32 = 7;
        let mut touched = std::collections::HashSet::new();
        for seed in 0..20 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut store: LinkStore<u64> = LinkStore::new();
            let mut dense = Dense::new(N as usize);
            for step in 0..4000u64 {
                let a = NodeId(rng.gen_range(0..N));
                let b = NodeId((a.0 + rng.gen_range(1..N)) % N);
                match rng.gen_range(0..8u32) {
                    0 => {
                        store.bump(a, b);
                        let i = dense.undirected(a, b);
                        dense.epoch[i] += 1;
                        touched.extend([(a, b), (b, a)]);
                    }
                    1..=3 => {
                        let got = store.get_mut(a, b);
                        assert_eq!(*got, *dense.slot(a, b), "seed {seed} step {step}");
                        *got += step;
                        *dense.slot(a, b) += step;
                        touched.insert((a, b));
                    }
                    4..=5 => assert_eq!(
                        store.get(a, b).copied().unwrap_or_default(),
                        *dense.slot(a, b),
                        "seed {seed} step {step}"
                    ),
                    _ => assert_eq!(
                        store.incarnation(a, b),
                        dense.epoch[dense.undirected(a, b)],
                        "seed {seed} step {step}"
                    ),
                }
                assert_eq!(store.incarnation(a, b), store.incarnation(b, a));
            }
            assert!(store.len() <= (N * (N - 1)) as usize);
        }
        assert_eq!(touched.len(), (N * (N - 1)) as usize, "every pair seen");
    }

    #[test]
    fn payloads_restart_from_default_in_each_incarnation() {
        #[derive(Debug, PartialEq)]
        struct FromOne(u64);
        impl Default for FromOne {
            fn default() -> FromOne {
                FromOne(1)
            }
        }
        let mut store: LinkStore<FromOne> = LinkStore::new();
        let (a, b) = (NodeId(0), NodeId(1));
        assert_eq!(store.get(a, b), None, "no record reads as the default");
        assert_eq!(store.len(), 0, "reads create nothing");
        store.get_mut(a, b).0 = 9;
        store.get_mut(b, a).0 = 5;
        assert_eq!(store.get(a, b), Some(&FromOne(9)), "same incarnation");
        store.bump(b, a);
        assert_eq!(store.get(a, b), None, "a flap stales both directions");
        assert_eq!(*store.get_mut(a, b), FromOne(1));
        assert_eq!(*store.get_mut(b, a), FromOne(1));
        assert_eq!(store.incarnation(a, b), 1);
        assert_eq!(store.incarnation(a, NodeId(2)), 0, "other pairs untouched");
    }

    #[test]
    fn pair_hash_spreads_both_halves_of_the_key_over_the_low_bits() {
        let low7 = |from: u32, to: u32| {
            let mut h = PairHasher::default();
            h.write_u64(key(NodeId(from), NodeId(to)));
            h.finish() & 0x7f
        };
        let distinct =
            |it: &mut dyn Iterator<Item = u64>| it.collect::<std::collections::HashSet<_>>().len();
        assert!(distinct(&mut (0..128).map(|f| low7(f, 3))) > 64);
        assert!(distinct(&mut (0..128).map(|t| low7(3, t))) > 64);
    }
}
