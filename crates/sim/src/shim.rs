//! Per-link reliable-delivery (ARQ) shim.
//!
//! The paper's model gives every protocol reliable FIFO links, but the
//! PR-2 fault adversary deliberately violates exactly that (drop /
//! duplicate). The shim closes the gap: when [`crate::SimConfig::arq`] is
//! set, every protocol message travels as a sequenced data frame on its
//! directed link incarnation, receivers deliver in order exactly once and
//! acknowledge cumulatively (piggybacked on reverse traffic, or as a
//! standalone ack after an idle timeout), and senders retransmit
//! unacknowledged frames on a timeout with capped exponential backoff.
//!
//! Determinism contract:
//!
//! * With `arq: None` (the default) the engine's behavior — random
//!   streams, traces, digests, stats — is bit-for-bit identical to a build
//!   without this module (pinned by `tests/reliable_delivery.rs`).
//! * With the shim enabled, backoff jitter draws from a *dedicated* RNG
//!   stream seeded from the run seed, so shim runs replay byte-for-byte
//!   and never perturb the fault adversary's stream.
//!
//! Scope: reliability is **per link incarnation**. A link flap (mobility,
//! partition, crash recovery) kills the incarnation and the shim state on
//! both sides with it — protocols already own re-synchronization across
//! incarnations (fork re-minting on `LinkUp`), and the shim must not
//! resurrect traffic from a dead incarnation under their feet. Both
//! halves of a channel are [`crate::links::LinkStore`] payloads, which is
//! what restarts them with the incarnation.

use std::collections::VecDeque;

use crate::ids::NodeId;
use crate::links::LinkStore;
use crate::rng::SimRng;

/// Turns the per-link ARQ shim on (see [`crate::SimConfig::arq`]; `None`
/// disables it entirely). The shim has no tunables: its window, timeouts
/// and retry budget are constants derived from the run's ν.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ArqConfig {}

/// Maximum unacknowledged frames buffered per directed link. Overflow
/// aborts the run with [`crate::RunAbort::ShimBufferOverflow`] (a
/// structured abort, not a panic).
pub(crate) const WINDOW: usize = 64;

/// Consecutive timeouts without ack progress before the sender gives up on
/// a channel and discards its buffered frames. Giving up is essential: a
/// crashed peer keeps its links up (crashes are silent in the model), and
/// retransmitting to it forever would turn every crash into an
/// event-budget livelock abort.
pub(crate) const MAX_RETRIES: u32 = 16;

/// Counters of shim activity over a run (all zero with the shim
/// disabled). Lives inside [`crate::EngineStats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShimStats {
    /// Data frames retransmitted after a timeout (go-back-N: every
    /// buffered frame of the timed-out channel counts).
    pub retransmissions: u64,
    /// Standalone acknowledgment frames sent after the idle timeout
    /// (piggybacked acks ride existing frames and are not counted).
    pub acks_sent: u64,
    /// Largest number of unacknowledged frames ever buffered on any
    /// single directed link.
    pub buffer_high_water: u64,
}

/// Sender-side state of one directed channel, valid for one link
/// incarnation (a [`LinkStore`] payload).
#[derive(Clone, Debug)]
pub(crate) struct SendSlot<M> {
    /// Sequence number of the first unacknowledged frame (the front of
    /// `buf`); numbering starts at 1 per incarnation.
    pub base: u64,
    /// Unacknowledged payloads, in sequence order starting at `base`.
    pub buf: VecDeque<M>,
    /// Consecutive timeouts since the last ack progress.
    pub attempts: u32,
    /// Generation of the armed retransmission timer; stale timer events
    /// (superseded by a re-arm) carry an older generation and no-op.
    pub rto_gen: u64,
    pub rto_armed: bool,
}

impl<M> Default for SendSlot<M> {
    fn default() -> SendSlot<M> {
        SendSlot {
            base: 1,
            buf: VecDeque::new(),
            attempts: 0,
            rto_gen: 0,
            rto_armed: false,
        }
    }
}

impl<M> SendSlot<M> {
    /// Sequence number the next freshly sent frame takes.
    pub fn next_seq(&self) -> u64 {
        self.base + self.buf.len() as u64
    }
}

/// Receiver-side state of one directed channel (same incarnation scoping
/// as [`SendSlot`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct RecvSlot {
    /// Next in-order sequence number expected; `next - 1` is the
    /// cumulative ack value.
    pub next: u64,
    /// Whether an acknowledgment is owed (set on every data arrival,
    /// cleared when an ack goes out, piggybacked or standalone).
    pub ack_owed: bool,
    /// Generation of the armed idle-ack timer.
    pub ack_gen: u64,
    pub ack_armed: bool,
}

impl Default for RecvSlot {
    fn default() -> RecvSlot {
        RecvSlot {
            next: 1,
            ack_owed: false,
            ack_gen: 0,
            ack_armed: false,
        }
    }
}

/// The engine-side shim state: timing parameters resolved from ν plus the
/// per-directed-channel send and receive halves.
pub(crate) struct ShimState<M> {
    /// Initial retransmission timeout: `2ν` (one frame plus one ack at
    /// worst-case delay).
    pub rto_initial: u64,
    /// Upper bound on the backed-off retransmission timeout: `16ν`.
    pub rto_cap: u64,
    /// Idle time after which a receiver owing an acknowledgment sends a
    /// standalone ack instead of waiting for reverse traffic: ν.
    pub ack_idle: u64,
    /// Dedicated stream for backoff jitter, so shim timing never perturbs
    /// the engine's or the fault adversary's streams.
    pub rng: SimRng,
    pub send: LinkStore<SendSlot<M>>,
    pub recv: LinkStore<RecvSlot>,
}

impl<M> ShimState<M> {
    pub fn new(nu: u64, run_seed: u64) -> ShimState<M> {
        let nu = nu.max(1);
        ShimState {
            rto_initial: 2 * nu,
            rto_cap: 16 * nu,
            ack_idle: nu,
            rng: SimRng::seed_from_u64(shim_seed(run_seed)),
            send: LinkStore::new(),
            recv: LinkStore::new(),
        }
    }

    /// Cumulative ack to piggyback on a frame `from → to`, i.e. how much
    /// of the *reverse* data channel `to → from` has been received in
    /// order — and mark that debt paid. A fresh incarnation acks 0.
    pub fn take_piggyback_ack(&mut self, from: NodeId, to: NodeId) -> u64 {
        let slot = self.recv.get_mut(to, from);
        slot.ack_owed = false;
        slot.next - 1
    }

    /// Backed-off retransmission delay after `attempts` consecutive
    /// timeouts: `min(rto_cap, rto_initial · 2^attempts)` plus up to 25%
    /// jitter from the dedicated stream (desynchronizes competing
    /// senders; the jitter draw happens even at the cap, keeping the
    /// stream's consumption a pure function of the timeout count).
    pub fn backoff(&mut self, attempts: u32) -> u64 {
        let base = self
            .rto_initial
            .checked_shl(attempts.min(32))
            .unwrap_or(u64::MAX)
            .min(self.rto_cap);
        base + self.rng.gen_range(0..=base / 4)
    }
}

/// Seed of the dedicated shim RNG: a salt of the run seed, so distinct
/// runs explore distinct backoff timings with no extra configuration.
pub(crate) fn shim_seed(run_seed: u64) -> u64 {
    run_seed ^ 0xA49_5EED_0C8E_77A1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_resolves_from_nu() {
        let state: ShimState<u64> = ShimState::new(10, 7);
        assert_eq!(state.rto_initial, 20);
        assert_eq!(state.rto_cap, 160);
        assert_eq!(state.ack_idle, 10);
    }

    #[test]
    fn piggyback_acks_the_reverse_channel_and_pays_the_debt() {
        let mut state: ShimState<u64> = ShimState::new(10, 7);
        let (a, b) = (NodeId(0), NodeId(1));
        assert_eq!(state.send.get_mut(a, b).next_seq(), 1, "numbering from 1");
        let r = state.recv.get_mut(a, b);
        r.next = 5;
        r.ack_owed = true;
        assert_eq!(state.take_piggyback_ack(b, a), 4);
        assert!(!state.recv.get_mut(a, b).ack_owed);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let mut state: ShimState<u64> = ShimState::new(10, 7);
        // rto_initial 20, cap 160; jitter adds at most base/4.
        for attempts in 0..10 {
            let d = state.backoff(attempts);
            let base = (20u64 << attempts.min(3)).min(160);
            assert!(
                d >= base && d <= base + base / 4,
                "attempts {attempts}: {d}"
            );
        }
        // Huge attempt counts must not overflow the shift.
        assert!(state.backoff(200) >= 160);
    }
}
