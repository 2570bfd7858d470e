//! A lock-free seen-state table, kept only for the frozen benchmark.
//!
//! No search uses it: `certify` and the DFS of `explore` keep their
//! seen-sets in a plain `HashSet<u64>` that grows with the search, because
//! only their sequential merge, in wave order, reads or writes it. The
//! benchmark still measures this table's insert cost (`check.table.*`),
//! so it stays public until the benchmark is unfrozen (ROADMAP item 14
//! deletes it).
//!
//! The table is a fixed-capacity open-addressing hash set of `u64` state
//! digests built on [`AtomicU64`] slots and CAS insertion: a worker (or the
//! merge step) asks "was this digest seen before?" and atomically records
//! it if not, with no locks and no allocation after construction. Zero is
//! the empty-slot sentinel; the (astronomically unlikely, but legal) digest
//! value `0` is remapped to `1` so it stays representable.
//!
//! The capacity is fixed at construction. When the table fills up,
//! [`DigestTable::insert`] reports [`Insert::Full`] and the caller must
//! treat the state as unseen — exploration then degrades gracefully from
//! "deduplicated" to "may revisit", which is safe for every use here:
//! dedup is a pruning optimization, never a soundness requirement, and the
//! exhaustive certifier merely re-explores a subtree it failed to record.

use std::sync::atomic::{AtomicU64, Ordering};

/// Outcome of [`DigestTable::insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Insert {
    /// The digest was not present and is now recorded.
    Inserted,
    /// The digest was already present (inserted earlier by any thread).
    Present,
    /// The table is at capacity and the digest could not be recorded; the
    /// caller must treat the state as unseen.
    Full,
}

/// Fixed-capacity lock-free hash set of state digests.
pub struct DigestTable {
    slots: Box<[AtomicU64]>,
    /// `slots.len() - 1`; the length is a power of two so this doubles as
    /// the index mask.
    mask: usize,
}

impl DigestTable {
    /// Probe limit before declaring the table full. Bounding the probe
    /// sequence keeps worst-case insert cost O(1) even on a nearly-full
    /// table; unrecorded digests only cost re-exploration, never soundness.
    const MAX_PROBES: usize = 64;

    /// A table with room for at least `capacity` digests (rounded up to a
    /// power of two, with headroom so load stays below ~50%).
    pub fn with_capacity(capacity: usize) -> DigestTable {
        let len = capacity
            .max(16)
            .checked_mul(2)
            .expect("table size overflow");
        let len = len.next_power_of_two();
        let slots = (0..len).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        DigestTable {
            slots: slots.into_boxed_slice(),
            mask: len - 1,
        }
    }

    /// Insert-or-check `digest`: returns whether it was newly recorded,
    /// already present, or dropped because the table is full. Safe to call
    /// from any number of threads concurrently; exactly one caller of a
    /// given digest observes [`Insert::Inserted`].
    pub fn insert(&self, digest: u64) -> Insert {
        // 0 marks an empty slot; remap the one colliding digest value.
        let digest = if digest == 0 { 1 } else { digest };
        // Multiplicative scatter (Fibonacci hashing) so dense digest
        // families don't cluster into one probe chain.
        let mut i = (digest.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask;
        for _ in 0..Self::MAX_PROBES.min(self.slots.len()) {
            let slot = &self.slots[i];
            match slot.compare_exchange(0, digest, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Insert::Inserted,
                Err(existing) if existing == digest => return Insert::Present,
                Err(_) => i = (i + 1) & self.mask,
            }
        }
        Insert::Full
    }

    /// Number of recorded digests (linear scan; diagnostic only).
    pub fn len(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) != 0)
            .count()
    }

    /// Whether no digest has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_check() {
        let t = DigestTable::with_capacity(128);
        assert_eq!(t.insert(42), Insert::Inserted);
        assert_eq!(t.insert(42), Insert::Present);
        assert_eq!(t.insert(43), Insert::Inserted);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn zero_digest_is_representable() {
        let t = DigestTable::with_capacity(16);
        assert_eq!(t.insert(0), Insert::Inserted);
        assert_eq!(t.insert(0), Insert::Present);
        // …and shares its slot value with digest 1 by design.
        assert_eq!(t.insert(1), Insert::Present);
    }

    #[test]
    fn fills_up_gracefully() {
        let t = DigestTable::with_capacity(1); // rounds up to 32 slots
        let mut full = 0;
        for d in 1..=10_000u64 {
            if t.insert(d) == Insert::Full {
                full += 1;
            }
        }
        assert!(full > 0, "a saturated table must report Full");
        assert!(!t.is_empty());
    }

    #[test]
    fn concurrent_inserts_record_each_digest_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        let t = DigestTable::with_capacity(4096);
        let wins = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for d in 1..=1000u64 {
                        if t.insert(d) == Insert::Inserted {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 1000);
        assert_eq!(t.len(), 1000);
    }
}
