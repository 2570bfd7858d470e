//! The event queue: a bounded-horizon timing wheel.
//!
//! It has two hosts: the engine dispatches its events from one in
//! `(time, sequence)` order, and each live shard worker keeps its nodes'
//! wakeups in one, keyed on virtual ticks. Both schedule almost nothing
//! far ahead — message delays are capped by ν, motion steps by
//! `move_step_ticks`, think times and protocol timers are short — so
//! almost every entry lands within a small window above the current
//! instant, and the wheel makes both `push` and `pop` O(1): entries hash
//! into per-tick buckets, ties within a bucket are consumed in insertion
//! (= sequence) order, and the rare entry outside the window — beyond it,
//! or, for the live host, already past — parks in a small overflow heap
//! consulted alongside the wheel. The contract is the `(at, seq)` total
//! order; the unit tests below hold the wheel to it against
//! `std::collections::BinaryHeap`. See DESIGN.md §12 for the argument.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::config::SimConfig;
use crate::time::SimTime;

/// Ceiling on the bucket count. ν comes from configuration and witness
/// files, so the window must not grow with it without bound; events beyond
/// the window go to the overflow heap, which keeps the same order.
const MAX_BUCKETS: u64 = 1 << 16;

/// Slab cell: payload plus the key it was queued under. `item` is `None`
/// when the cell is on the free list.
#[derive(Clone)]
struct Slot<T> {
    at: SimTime,
    seq: u64,
    item: Option<T>,
}

/// One wheel bucket: slab indices in insertion (= sequence) order,
/// consumed FIFO through `head`. All live entries of a bucket share one
/// `at` — the window invariant maps each pending tick to its own bucket.
#[derive(Default)]
struct Bucket {
    entries: Vec<u32>,
    head: usize,
}

/// Where the cached peek candidate lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Loc {
    Bucket,
    Overflow,
}

/// The cached peek candidate: the global `(at, seq)` minimum, computed at
/// most once between structural changes.
#[derive(Clone, Copy)]
struct Cand {
    at: SimTime,
    seq: u64,
    slot: u32,
    loc: Loc,
}

/// A bounded-horizon timing wheel over slab-allocated entries. `seq` values
/// are assigned by the caller (strictly increasing across pushes); the
/// wheel yields entries in ascending `(at, seq)` order.
///
/// Invariants:
/// * every bucket-resident entry satisfies `base ≤ at < base + size`, so
///   `at & mask` is injective over pending ticks and each bucket holds one
///   `at` value, in sequence order;
/// * `base` only advances while anything is pending, to the `at` of each
///   popped entry (the global minimum, so nothing on the wheel is ever
///   below `base`);
/// * entries outside the window — beyond it, or below `base` (a deadline
///   that had already passed when it was pushed) — go to the `overflow`
///   heap and are popped from there; they are never redistributed onto the
///   wheel.
pub struct TimingWheel<T> {
    slab: Vec<Slot<T>>,
    free: Vec<u32>,
    buckets: Vec<Bucket>,
    mask: u64,
    base: SimTime,
    overflow: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    cached: Option<Cand>,
    len: usize,
}

impl<T: Clone> Clone for TimingWheel<T> {
    /// A copy whose buckets hold only their pending entries, in sequence
    /// order, so copying a queue mid-run (a forked engine's) costs what is
    /// pending plus one bucket array, whatever has been consumed.
    fn clone(&self) -> TimingWheel<T> {
        TimingWheel {
            slab: self.slab.clone(),
            free: self.free.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| match &b.entries[b.head..] {
                    [] => Bucket::default(),
                    pending => Bucket {
                        entries: pending.to_vec(),
                        head: 0,
                    },
                })
                .collect(),
            mask: self.mask,
            base: self.base,
            overflow: self.overflow.clone(),
            cached: self.cached,
            len: self.len,
        }
    }
}

impl<T> TimingWheel<T> {
    /// Size the window to the config's scheduling horizon (ν and the
    /// motion step), with a generous floor so harness-level timers stay on
    /// the wheel and a ceiling so an absurd ν cannot exhaust memory.
    pub(crate) fn from_config(cfg: &SimConfig) -> TimingWheel<T> {
        let span = cfg
            .max_message_delay
            .saturating_add(cfg.move_step_ticks)
            .saturating_add(2);
        let size = span
            .checked_next_power_of_two()
            .map_or(MAX_BUCKETS, |s| s.clamp(256, MAX_BUCKETS));
        TimingWheel::new(size as usize)
    }

    /// A wheel whose window spans `buckets` ticks.
    ///
    /// # Panics
    ///
    /// Panics unless `buckets` is a power of two.
    pub fn new(buckets: usize) -> TimingWheel<T> {
        assert!(
            buckets.is_power_of_two(),
            "wheel size {buckets} is not a power of two"
        );
        TimingWheel {
            slab: Vec::new(),
            free: Vec::new(),
            mask: buckets as u64 - 1,
            buckets: (0..buckets).map(|_| Bucket::default()).collect(),
            base: SimTime::ZERO,
            overflow: BinaryHeap::new(),
            cached: None,
            len: 0,
        }
    }

    fn alloc(&mut self, at: SimTime, seq: u64, item: T) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slab[slot as usize] = Slot {
                at,
                seq,
                item: Some(item),
            };
            slot
        } else {
            self.slab.push(Slot {
                at,
                seq,
                item: Some(item),
            });
            (self.slab.len() - 1) as u32
        }
    }

    /// Insert an entry. `seq` must exceed every previously pushed `seq`;
    /// `at` may lie anywhere, including before entries already popped.
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        if self.len == 0 {
            // Nothing pending: re-anchor the window so a long quiet gap
            // does not force future near-term events into the overflow.
            self.base = at;
            self.cached = None;
        }
        let slot = self.alloc(at, seq, item);
        let size = self.buckets.len() as u64;
        let loc = if at >= self.base && at.0 - self.base.0 < size {
            self.buckets[(at.0 & self.mask) as usize].entries.push(slot);
            Loc::Bucket
        } else {
            // Beyond the window, or below the base.
            self.overflow.push(Reverse((at, seq, slot)));
            Loc::Overflow
        };
        self.len += 1;
        // A fresh entry can only displace the cached minimum with a
        // strictly smaller time: its seq is larger than everything queued.
        if let Some(c) = self.cached {
            if at < c.at {
                self.cached = Some(Cand { at, seq, slot, loc });
            }
        }
    }

    /// Compute (or reuse) the global minimum candidate.
    fn ensure_cand(&mut self) {
        if self.cached.is_some() || self.len == 0 {
            return;
        }
        let mut best: Option<Cand> = None;
        if self.len > self.overflow.len() {
            // At least one bucket-resident entry: scan ticks upward from
            // `base`; the first non-empty bucket holds the wheel minimum,
            // and its FIFO head is the smallest seq at that tick.
            let size = self.buckets.len() as u64;
            for i in 0..size {
                let t = self.base.0.wrapping_add(i);
                let b = &self.buckets[(t & self.mask) as usize];
                if b.head < b.entries.len() {
                    let slot = b.entries[b.head];
                    let s = &self.slab[slot as usize];
                    best = Some(Cand {
                        at: s.at,
                        seq: s.seq,
                        slot,
                        loc: Loc::Bucket,
                    });
                    break;
                }
            }
            debug_assert!(best.is_some(), "wheel count says an entry exists");
        }
        if let Some(&Reverse((at, seq, slot))) = self.overflow.peek() {
            if best.is_none_or(|c| (at, seq) < (c.at, c.seq)) {
                best = Some(Cand {
                    at,
                    seq,
                    slot,
                    loc: Loc::Overflow,
                });
            }
        }
        self.cached = best;
    }

    /// Time of the next entry in `(at, seq)` order, without removing it.
    /// The following [`TimingWheel::pop`] returns exactly this entry — peek
    /// and pop share one candidate, so the two can never desynchronize.
    pub fn next_at(&mut self) -> Option<SimTime> {
        self.ensure_cand();
        self.cached.map(|c| c.at)
    }

    /// Number of queued entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Visit every queued entry in unspecified order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SimTime, u64, &T)> {
        self.slab
            .iter()
            .filter_map(|s| s.item.as_ref().map(|it| (s.at, s.seq, it)))
    }

    /// Remove and return the smallest entry in `(at, seq)` order.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.ensure_cand();
        let c = self.cached.take()?;
        match c.loc {
            Loc::Bucket => {
                let b = &mut self.buckets[(c.at.0 & self.mask) as usize];
                debug_assert_eq!(b.entries.get(b.head), Some(&c.slot));
                b.head += 1;
                if b.head == b.entries.len() {
                    b.entries.clear();
                    b.head = 0;
                }
            }
            Loc::Overflow => {
                let popped = self.overflow.pop();
                debug_assert_eq!(popped, Some(Reverse((c.at, c.seq, c.slot))));
            }
        }
        // Advance-only: a below-base overflow entry (pushed after an
        // empty-queue re-anchor picked a later base) must not drag the
        // window backwards under the remaining bucket entries.
        self.base = self.base.max(c.at);
        self.len -= 1;
        let cell = &mut self.slab[c.slot as usize];
        let item = cell.item.take().expect("candidate slot is live");
        self.free.push(c.slot);
        Some((c.at, c.seq, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// The contract: std's heap over `(at, seq, item)`.
    type Reference = BinaryHeap<Reverse<(SimTime, u64, u64)>>;

    fn wheel() -> TimingWheel<u64> {
        TimingWheel::from_config(&SimConfig::default())
    }

    fn drain(q: &mut TimingWheel<u64>) -> Vec<(SimTime, u64, u64)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn ties_drain_in_seq_order() {
        let mut q = wheel();
        // Same instant, interleaved pushes: ties must break by seq (FIFO).
        for (seq, at) in [(1, 5u64), (2, 3), (3, 5), (4, 3), (5, 4)] {
            q.push(SimTime(at), seq, seq);
        }
        assert_eq!(
            drain(&mut q),
            vec![
                (SimTime(3), 2, 2),
                (SimTime(3), 4, 4),
                (SimTime(4), 5, 5),
                (SimTime(5), 1, 1),
                (SimTime(5), 3, 3),
            ]
        );
    }

    #[test]
    fn peek_always_matches_the_next_pop() {
        // Randomized differential run against the reference heap, including
        // far events (overflow), deadlines already past when pushed (the
        // live host schedules those; they sit below the window), interleaved
        // pushes and pops, and peeks between every step.
        let mut rng = SimRng::seed_from_u64(0xBEE5_0001);
        let mut heap = Reference::new();
        let mut wheel = wheel();
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut late = 0;
        for step in 0..20_000 {
            if rng.gen_bool(0.55) || heap.is_empty() {
                // Mostly near-term events; occasionally far beyond the
                // 256-tick window, sometimes exactly `now`, and sometimes
                // before `now`: below the window once anything was popped.
                let at = match rng.gen_range(0..11u32) {
                    0 => now,
                    1..=7 => now + rng.gen_range(0..12u64),
                    8 => now + rng.gen_range(200..300u64),
                    9 => now + rng.gen_range(1_000..50_000u64),
                    _ => {
                        late += 1;
                        now.saturating_sub(rng.gen_range(1..400u64))
                    }
                };
                seq += 1;
                heap.push(Reverse((SimTime(at), seq, seq)));
                wheel.push(SimTime(at), seq, seq);
            } else {
                let next = heap.peek().map(|Reverse((at, _, _))| *at);
                assert_eq!(next, wheel.next_at(), "peek diverged @{step}");
                let h = heap.pop().map(|Reverse(e)| e);
                assert_eq!(h, wheel.pop(), "pop diverged @{step}");
                if let Some((at, _, _)) = h {
                    // A late entry pops at once, without moving `now` back.
                    now = now.max(at.0);
                }
            }
            assert_eq!(heap.len(), wheel.len());
        }
        assert!(late > 500, "only {late} pushes below the minimum");
        while let Some(Reverse(h)) = heap.pop() {
            assert_eq!(Some(h), wheel.pop());
        }
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn iter_visits_every_pending_entry() {
        let mut q = wheel();
        q.push(SimTime(2), 1, 10);
        q.push(SimTime(9_999), 2, 20); // overflow
        q.push(SimTime(2), 3, 30);
        assert_eq!(q.pop(), Some((SimTime(2), 1, 10)));
        let mut seen: Vec<(u64, u64, u64)> =
            q.iter().map(|(at, seq, &it)| (at.0, seq, it)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![(2, 3, 30), (9_999, 2, 20)]);
        assert_eq!(q.len(), 2);
    }

    /// A copy taken mid-drain, with a bucket half consumed and an entry
    /// in the overflow, pops what the original pops, and each goes on
    /// independently of the other.
    #[test]
    fn a_copy_drains_as_the_original() {
        let mut q = wheel();
        for (seq, at) in [(1, 2u64), (2, 9_999), (3, 2), (4, 7), (5, 3)] {
            q.push(SimTime(at), seq, seq * 10);
        }
        assert_eq!(q.pop(), Some((SimTime(2), 1, 10)));
        let mut copy = q.clone();
        copy.push(SimTime(5), 6, 60);
        assert_eq!(
            drain(&mut q),
            vec![
                (SimTime(2), 3, 30),
                (SimTime(3), 5, 50),
                (SimTime(7), 4, 40),
                (SimTime(9_999), 2, 20),
            ]
        );
        assert_eq!(
            drain(&mut copy),
            vec![
                (SimTime(2), 3, 30),
                (SimTime(3), 5, 50),
                (SimTime(5), 6, 60),
                (SimTime(7), 4, 40),
                (SimTime(9_999), 2, 20),
            ]
        );
    }

    #[test]
    fn window_reanchors_after_a_quiet_gap() {
        let mut q = wheel();
        q.push(SimTime(1), 1, 1);
        assert_eq!(q.pop(), Some((SimTime(1), 1, 1)));
        // Far in the future relative to the drained window: must still be
        // an O(1) wheel insert (re-anchored base), and pop correctly.
        q.push(SimTime(1_000_000), 2, 2);
        q.push(SimTime(1_000_001), 3, 3);
        assert!(q.overflow.is_empty(), "base must re-anchor when empty");
        assert_eq!(q.pop(), Some((SimTime(1_000_000), 2, 2)));
        assert_eq!(q.pop(), Some((SimTime(1_000_001), 3, 3)));
    }

    #[test]
    fn untrusted_nu_cannot_size_the_window() {
        assert_eq!(wheel().buckets.len(), 256, "default window");
        // ν arrives from witness files: 2^62 used to overflow the bucket
        // allocation, u64::MAX the span arithmetic itself.
        for nu in [1 << 62, u64::MAX] {
            let mut q: TimingWheel<u64> = TimingWheel::from_config(&SimConfig {
                max_message_delay: nu,
                ..SimConfig::default()
            });
            assert_eq!(q.buckets.len() as u64, MAX_BUCKETS);
            // Near, beyond-the-window and absurdly far events interleaved:
            // the overflow heap keeps them in (at, seq) order.
            let ats = [1 << 40, 3, MAX_BUCKETS + 7, 3, 1 << 61, MAX_BUCKETS - 1];
            let mut want = Vec::new();
            for (seq, at) in (1u64..).zip(ats) {
                q.push(SimTime(at), seq, seq);
                want.push((SimTime(at), seq, seq));
            }
            want.sort_unstable();
            assert_eq!(drain(&mut q), want);
        }
    }
}
