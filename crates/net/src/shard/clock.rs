//! Per-shard trace clocks and the ticket-range merge.
//!
//! One shared ticket counter would totally order the trace, but every
//! observable event, on every thread, would pay one contended RMW.
//! Instead each shard keeps a hybrid logical clock: stamping advances
//! the clock to
//! `max(last + 1, wall_tick)`, and every cross-shard batch carries the
//! sender's clock so the receiver can merge it in before processing.
//! That gives each shard a strictly increasing private ticket range whose
//! stamps respect causality across shards: any record that can see the
//! effect of another (a delivery after a send, a rejoin after a crash)
//! carries a strictly larger stamp.
//!
//! At export the per-shard streams are k-way merged by `(clock, shard)`
//! into one dense total order — `order = 0, 1, 2, …` — which is exactly
//! the shape [`crate::trace::LiveTrace`] and the safety monitor expect.
//! See DESIGN.md §11 for what this order gives up versus a global
//! counter (wall-time placement of *concurrent* records) and why the
//! safety verdict does not depend on it.

use std::collections::VecDeque;

use crate::trace::{LiveEventKind, LiveRecord};

/// A hybrid logical clock: one per shard (and one for the driver).
///
/// Stamps are strictly increasing locally, never behind the wall-clock
/// tick, and — via [`HybridClock::witness`] on received batches — strictly
/// above every stamp the shard has causally observed.
#[derive(Debug, Default)]
pub struct HybridClock {
    last: u64,
}

impl HybridClock {
    /// A clock at zero.
    pub fn new() -> HybridClock {
        HybridClock { last: 0 }
    }

    /// Take the next stamp: `max(last + 1, now_tick)`.
    pub fn stamp(&mut self, now_tick: u64) -> u64 {
        self.last = (self.last + 1).max(now_tick);
        self.last
    }

    /// Merge in a stamp observed from another shard; later local stamps
    /// will strictly exceed it.
    pub fn witness(&mut self, remote: u64) {
        self.last = self.last.max(remote);
    }

    /// The latest stamp issued or witnessed (0 if none).
    pub fn current(&self) -> u64 {
        self.last
    }
}

/// One trace record carrying its shard-clock stamp instead of a global
/// ticket; [`merge_stamped`] turns streams of these into ticketed
/// [`LiveRecord`]s.
#[derive(Debug, Clone)]
pub struct StampedRecord {
    /// The hybrid-clock stamp under which the record was taken.
    pub clock: u64,
    /// Wall nanoseconds since the run origin.
    pub at_ns: u64,
    /// What happened.
    pub kind: LiveEventKind,
}

const _: () = assert!(std::mem::size_of::<StampedRecord>() == 40);

/// K-way merge the per-shard record streams into one dense total order.
///
/// Each input stream must be non-decreasing in `clock` (the per-shard
/// clocks guarantee strictly increasing stamps). The merge orders by
/// `(clock, stream index, position)` — ties across shards are concurrent
/// records, so any deterministic tie-break yields a valid linearization —
/// and assigns `order = 0, 1, 2, …` with no ticket reused or skipped. A
/// stream whose stamps (unexpectedly) go backwards keeps its own order: a
/// record's clock counts as the running maximum of its stream's stamps.
///
/// The streams are consumed, back to front: the record with the largest
/// key among the streams' tails is taken next and written to the front of
/// the output, so each stream gives its memory back as it drains (shrunk
/// whenever a 32nd of its capacity is free) while the output fills in
/// from its end, and the trace is never held twice: the peak is the
/// records plus a 32nd of each stream. The tails' keys are kept in a
/// small array sorted largest first, not in a heap: the shards' stamps run
/// far ahead of the wall tick, so the streams interleave finely and nearly
/// every record ends a run; a run's new tail then sinks by a short scan
/// down at most k ≤ 17 keys (the shards plus the driver) where a heap
/// would pay a pop and a push.
pub fn merge_stamped(mut streams: Vec<Vec<StampedRecord>>) -> Vec<LiveRecord> {
    for stream in &mut streams {
        let mut max = 0;
        for rec in stream.iter_mut() {
            // Written only where a stamp went backwards, so an ordered
            // stream is read, not rewritten.
            if rec.clock < max {
                rec.clock = max;
            }
            max = rec.clock;
        }
    }
    let total: usize = streams.iter().map(Vec::len).sum();
    // Filled from the back, exactly to capacity, so it ends contiguous
    // from the start of its buffer and converts to a `Vec` without a move.
    let mut out = VecDeque::with_capacity(total);
    // The tails' `(clock, stream)`, largest first: the front stream keeps
    // the lead for as long as its tail stays above the next one's.
    let mut tails: Vec<_> = (0..streams.len())
        .filter_map(|s| Some((streams[s].last()?.clock, s)))
        .collect();
    tails.sort_unstable_by(|a, b| b.cmp(a));
    while let Some(&(_, s)) = tails.first() {
        let rival = tails.get(1).copied();
        let stream = &mut streams[s];
        while let Some(rec) = stream.pop_if(|r| rival.is_none_or(|k| (r.clock, s) > k)) {
            out.push_front(LiveRecord {
                at_ns: rec.at_ns,
                order: (total - 1 - out.len()) as u64,
                kind: rec.kind,
            });
            if stream.len() < stream.capacity() / 32 * 31 {
                stream.shrink_to_fit();
            }
        }
        // The leader's new tail sinks to its place; a drained stream leaves.
        let Some(tail) = stream.last() else {
            tails.remove(0);
            continue;
        };
        let key = (tail.clock, s);
        let mut at = 0;
        while tails.get(at + 1).is_some_and(|&next| next > key) {
            tails[at] = tails[at + 1];
            at += 1;
        }
        tails[at] = key;
    }
    Vec::from(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::NodeId;

    fn rec(clock: u64, node: u32) -> StampedRecord {
        StampedRecord {
            clock,
            at_ns: clock * 7,
            kind: LiveEventKind::Crash { node: NodeId(node) },
        }
    }

    fn node_of(r: &LiveRecord) -> u32 {
        match r.kind {
            LiveEventKind::Crash { node } => node.0,
            _ => unreachable!(),
        }
    }

    #[test]
    fn stamps_are_strictly_increasing_and_never_behind_the_wall_tick() {
        let mut c = HybridClock::new();
        assert_eq!(c.stamp(0), 1);
        assert_eq!(c.stamp(0), 2);
        assert_eq!(c.stamp(100), 100);
        assert_eq!(c.stamp(100), 101);
        c.witness(500);
        assert_eq!(c.stamp(100), 501);
    }

    #[test]
    fn merge_is_dense_and_preserves_per_stream_order() {
        let a = vec![rec(1, 0), rec(4, 1), rec(9, 2)];
        let b = vec![rec(2, 10), rec(3, 11), rec(9, 12)];
        let merged = merge_stamped(vec![a, b]);
        assert_eq!(merged.len(), 6);
        for (i, r) in merged.iter().enumerate() {
            assert_eq!(r.order, i as u64, "dense ticket order");
        }
        let ids: Vec<u32> = merged.iter().map(node_of).collect();
        // Clock order with stream 0 winning the tie at clock 9.
        assert_eq!(ids, vec![0, 10, 11, 1, 2, 12]);
    }

    #[test]
    fn merge_of_empty_streams_is_empty() {
        assert!(merge_stamped(vec![Vec::new(), Vec::new()]).is_empty());
        assert!(merge_stamped(Vec::new()).is_empty());
    }

    /// The merge `merge_stamped` replaced, verbatim: a front-to-back heap
    /// merge into a second full-size vector, cloning every record, with
    /// each record keyed by the larger of its own and its predecessor's
    /// stamp.
    fn heap_merge(streams: &[Vec<StampedRecord>]) -> Vec<LiveRecord> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let total: usize = streams.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        let mut heap: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();
        for (s, stream) in streams.iter().enumerate() {
            if let Some(first) = stream.first() {
                heap.push(Reverse((first.clock, s, 0)));
            }
        }
        while let Some(Reverse((_, s, i))) = heap.pop() {
            let rec = &streams[s][i];
            out.push(LiveRecord {
                at_ns: rec.at_ns,
                order: out.len() as u64,
                kind: rec.kind.clone(),
            });
            if let Some(next) = streams[s].get(i + 1) {
                heap.push(Reverse((next.clock.max(rec.clock), s, i + 1)));
            }
        }
        out
    }

    #[test]
    fn merge_matches_the_heap_merge_on_random_streams() {
        use manet_sim::SimRng;
        for seed in 0..300u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            // Up to 17 streams: 16 shards and the driver.
            let streams: Vec<Vec<StampedRecord>> = (0..rng.gen_range(0..18usize))
                .map(|s| {
                    let mut clock = 0u64;
                    (0..rng.gen_range(0..40u32))
                        .map(|i| {
                            // Small steps make cross-stream ties common;
                            // one record in ten steps backwards.
                            clock = if rng.gen_range(0..10u32) == 0 {
                                clock.saturating_sub(rng.gen_range(0..4u64))
                            } else {
                                clock + rng.gen_range(0..3u64)
                            };
                            let mut r = rec(clock, s as u32 * 100 + i);
                            r.at_ns = rng.gen_range(0..1_000u64);
                            r
                        })
                        .collect()
                })
                .collect();
            let want = heap_merge(&streams);
            assert_eq!(merge_stamped(streams), want, "seed {seed}");
        }
    }
}
