//! Injectable schedule strategies.
//!
//! The engine's *only* source of nondeterminism is the per-message delivery
//! delay: any arrival in `[send + min_delay, send + ν]` is legal under the
//! paper's timing model, and because events are totally ordered by
//! `(time, sequence)`, choosing the delays *is* choosing the interleaving.
//! By default the engine draws each delay uniformly from its seeded RNG;
//! installing a [`Strategy`] (see `Engine::set_strategy`) replaces that draw
//! with an arbitrary policy — a random walk, an exhaustive enumerator, a
//! priority-based adversary — without touching the engine's semantics. Runs
//! without a strategy are bit-for-bit identical to runs before this module
//! existed.

use std::hash::{Hash, Hasher};

use crate::ids::NodeId;
use crate::rng::SimRng;
use crate::time::SimTime;

/// Everything a [`Strategy`] may consult when picking the delivery delay of
/// one message. All fields are snapshots taken at send time.
#[derive(Clone, Copy, Debug)]
pub struct DeliveryChoice {
    /// The sender.
    pub from: NodeId,
    /// The destination.
    pub to: NodeId,
    /// Coarse label of the message (see `Protocol::msg_kind`).
    pub kind: &'static str,
    /// The send instant.
    pub now: SimTime,
    /// Smallest legal delay (`SimConfig::min_message_delay`).
    pub earliest: u64,
    /// Largest legal delay (the paper's ν, `SimConfig::max_message_delay`).
    pub latest: u64,
    /// Number of already-queued events that dispatch at or before
    /// `now + latest` — the events this delivery can be ordered against.
    pub pending_in_window: usize,
    /// Subset of [`DeliveryChoice::pending_in_window`] that dispatches *at
    /// the destination* `to` (global items such as channel ticks count
    /// conservatively). Two deliveries to distinct nodes commute — the
    /// receiving automata share no state — so only this subset can make the
    /// delivery order observable. Partial-order-reducing explorers branch
    /// only when it is non-zero; see DESIGN.md §9.
    pub pending_dependent_in_window: usize,
    /// FIFO floor of the `from → to` channel in its current incarnation
    /// (the delivery will be clamped above it regardless of the choice).
    pub fifo_floor: Option<SimTime>,
    /// Digest of the global engine state, present only when the strategy
    /// asked for one via [`Strategy::digest_mode`] and every protocol
    /// implements the corresponding digest method.
    pub digest: Option<u64>,
}

/// Which engine-state digest a [`Strategy`] wants attached to each
/// [`DeliveryChoice`]. Digests walk every protocol's state on each send, so
/// strategies that don't deduplicate should leave this [`DigestMode::Off`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DigestMode {
    /// No digest (the default).
    #[default]
    Off,
    /// `Engine::state_digest`: protocol states, dining states, eating
    /// sessions, and the pending queue at *absolute* times. Two states with
    /// equal absolute digests evolve identically — the dedup key of
    /// exhaustive explorers.
    Absolute,
    /// `Engine::progress_digest`: protocol *progress* states (monotone
    /// observational counters excluded), dining states, and the pending
    /// queue at times *relative to now*. Equal progress digests at two
    /// instants of one run mean the run has entered a schedulable cycle —
    /// the key for liveness (lasso) detection, where absolute times and
    /// ever-growing counters would make repetition impossible.
    Progress,
}

impl DeliveryChoice {
    /// True when every legal delay yields the same *event ordering*: either
    /// the window is a single point, the FIFO floor clamps every choice to
    /// the same arrival, or no other queued event can dispatch within the
    /// window (commuting deliveries — the delivery is the next relevant
    /// event no matter which delay is picked). Enumerating strategies use
    /// this as a partial-order reduction and skip branching here; see
    /// DESIGN.md §9 for the soundness argument and its caveat.
    pub fn forced(&self) -> bool {
        self.earliest == self.latest
            || self.fifo_floor.is_some_and(|f| f >= self.now + self.latest)
            || self.pending_in_window == 0
    }
}

/// A schedule strategy: called once per accepted send to pick the delivery
/// delay. The returned value must lie within `[earliest, latest]`: an
/// out-of-window value is a malformed schedule, and the engine aborts the
/// run with [`crate::RunAbort::DelayOutOfWindow`] instead of silently
/// clamping (which would reorder the run while claiming conformance).
/// In-window values flow through the unchanged fault-adversary and FIFO
/// machinery.
pub trait Strategy {
    /// Pick the delivery delay for one message.
    fn choose_delay(&mut self, choice: &DeliveryChoice) -> u64;

    /// Which digest (if any) the engine should compute into
    /// [`DeliveryChoice::digest`] for this strategy. Defaults to
    /// [`DigestMode::Off`]: digests walk every protocol's state on each
    /// send, which only deduplicating or lasso-detecting explorers need.
    fn digest_mode(&self) -> DigestMode {
        DigestMode::Off
    }
}

/// Seeded random walk over legal schedules: every delay is drawn uniformly
/// from the full legal window, from a stream independent of the engine's
/// own RNG. Two walks with the same seed replay byte-for-byte.
#[derive(Clone, Debug)]
pub struct RandomDelays {
    rng: SimRng,
}

impl RandomDelays {
    /// Create a walk from `seed`.
    pub fn new(seed: u64) -> RandomDelays {
        RandomDelays {
            rng: SimRng::seed_from_u64(seed ^ 0x5C4E_D01E_4A1C_0001),
        }
    }
}

impl Strategy for RandomDelays {
    fn choose_delay(&mut self, choice: &DeliveryChoice) -> u64 {
        self.rng.gen_range(choice.earliest..=choice.latest)
    }
}

/// A schedule imported from a recorded execution — typically a live run
/// (`lme-net`), whose observed per-message latencies are quantized to
/// ticks and replayed here for deterministic conformance checking in the
/// simulator.
///
/// Delays are keyed by *directed channel* `(from, to)` and consumed in
/// recording order, mirroring the per-link FIFO delivery of both the
/// engine and real transports. Exact event-order replay of a live run is
/// a fixed point (the messages themselves depend on the interleaving), so
/// an imported schedule reproduces the live run's *timing shape*: once the
/// recorded delays of a channel are exhausted — the simulated run may send
/// more or fewer messages than the live one — the strategy falls back to
/// `fallback`.
///
/// Recorded and fallback delays are returned verbatim: a delay outside the
/// legal `[min_delay, ν]` window means the recording does not conform to
/// the model being replayed against, and the engine rejects the run with
/// [`crate::RunAbort::DelayOutOfWindow`] rather than silently reordering
/// it. Importers quantizing real latencies clamp at conversion time.
#[derive(Clone, Debug, Default)]
pub struct ImportedSchedule {
    per_channel: std::collections::BTreeMap<(NodeId, NodeId), std::collections::VecDeque<u64>>,
    fallback: u64,
    imported: usize,
    consumed: usize,
}

impl ImportedSchedule {
    /// An empty schedule whose every choice is `fallback` ticks.
    pub fn new(fallback: u64) -> ImportedSchedule {
        ImportedSchedule {
            per_channel: std::collections::BTreeMap::new(),
            fallback,
            imported: 0,
            consumed: 0,
        }
    }

    /// Append one recorded delay (in ticks) for the `from → to` channel.
    /// Delays must be pushed in the channel's delivery order.
    pub fn push(&mut self, from: NodeId, to: NodeId, delay: u64) {
        self.per_channel
            .entry((from, to))
            .or_default()
            .push_back(delay);
        self.imported += 1;
    }

    /// Total recorded delays imported.
    pub fn imported(&self) -> usize {
        self.imported
    }

    /// Recorded delays consumed so far (the rest of the run used the
    /// fallback).
    pub fn consumed(&self) -> usize {
        self.consumed
    }
}

impl Strategy for ImportedSchedule {
    fn choose_delay(&mut self, choice: &DeliveryChoice) -> u64 {
        let recorded = self
            .per_channel
            .get_mut(&(choice.from, choice.to))
            .and_then(|q| q.pop_front());
        match recorded {
            Some(d) => {
                self.consumed += 1;
                d
            }
            None => self.fallback,
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a [`Hasher`], used for state digests and frame
/// checksums. Unlike std's `DefaultHasher` it is unkeyed, so a digest is
/// the same in every process. Not cryptographic; collisions merely weaken
/// dedup pruning.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a digest of a value's [`Hash`]: the fingerprint of protocol and
/// engine state. Equal values digest equally however they were reached.
pub fn digest_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv::new();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn choice(earliest: u64, latest: u64, pending: usize, floor: Option<u64>) -> DeliveryChoice {
        DeliveryChoice {
            from: NodeId(0),
            to: NodeId(1),
            kind: "msg",
            now: SimTime(100),
            earliest,
            latest,
            pending_in_window: pending,
            pending_dependent_in_window: pending,
            fifo_floor: floor.map(SimTime),
            digest: None,
        }
    }

    #[test]
    fn forced_when_window_degenerate_or_clamped_or_alone() {
        assert!(choice(3, 3, 5, None).forced(), "single-point window");
        assert!(choice(1, 10, 5, Some(110)).forced(), "FIFO floor at ν");
        assert!(choice(1, 10, 0, None).forced(), "nothing else in window");
        assert!(!choice(1, 10, 5, Some(105)).forced());
        assert!(!choice(1, 10, 1, None).forced());
    }

    #[test]
    fn random_delays_stay_in_window_and_replay() {
        let mut a = RandomDelays::new(7);
        let mut b = RandomDelays::new(7);
        let mut c = RandomDelays::new(8);
        let mut diverged = false;
        for _ in 0..200 {
            let ch = choice(1, 10, 3, None);
            let da = a.choose_delay(&ch);
            assert!((1..=10).contains(&da));
            assert_eq!(da, b.choose_delay(&ch), "same seed must replay");
            diverged |= da != c.choose_delay(&ch);
        }
        assert!(diverged, "different seeds should explore differently");
    }

    #[test]
    fn imported_schedule_pops_per_channel_then_falls_back() {
        let mut s = ImportedSchedule::new(2);
        s.push(NodeId(0), NodeId(1), 7);
        s.push(NodeId(0), NodeId(1), 4);
        s.push(NodeId(1), NodeId(0), 9);
        assert_eq!(s.imported(), 3);
        let ch01 = choice(1, 10, 3, None);
        let mut ch10 = choice(1, 10, 3, None);
        ch10.from = NodeId(1);
        ch10.to = NodeId(0);
        // Recorded delays come back in channel order…
        assert_eq!(s.choose_delay(&ch01), 7);
        assert_eq!(s.choose_delay(&ch10), 9);
        assert_eq!(s.choose_delay(&ch01), 4);
        // …then the channel is dry and the fallback takes over.
        assert_eq!(s.choose_delay(&ch01), 2);
        assert_eq!(s.consumed(), 3);
        // Out-of-window recordings are returned verbatim — the engine, not
        // this strategy, decides that the replay is malformed and aborts.
        let mut t = ImportedSchedule::new(1);
        t.push(NodeId(0), NodeId(1), 99);
        assert_eq!(t.choose_delay(&ch01), 99);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        assert_eq!(digest_of(&(1u64, 2u64)), digest_of(&(1u64, 2u64)));
        assert_ne!(digest_of(&(1u64, 2u64)), digest_of(&(2u64, 1u64)));
        // Length-prefixed: moving an element across a boundary shows.
        assert_ne!(
            digest_of(&(vec![1u8], vec![2u8])),
            digest_of(&(vec![1u8, 2], Vec::<u8>::new()))
        );
    }
}
