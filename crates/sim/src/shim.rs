//! Per-link reliable-delivery (ARQ) shim: the engine's host state for
//! [`crate::arq::GoBackN`].
//!
//! The paper's model gives every protocol reliable FIFO links, but the
//! PR-2 fault adversary deliberately violates exactly that (drop /
//! duplicate). The shim closes the gap: when [`crate::SimConfig::arq`] is
//! set, every protocol message travels as a sequenced go-back-N data
//! frame on its directed link incarnation. How is [`crate::arq`]'s
//! decision alone; what lives here is what only the engine has — the
//! queue-item generations of the two timers, the window, the counters and
//! the dedicated random stream.
//!
//! Determinism contract:
//!
//! * With `arq: None` (the default) the engine's behavior — random
//!   streams, traces, digests, stats — is bit-for-bit identical to a build
//!   without this module (pinned by `tests/reliable_delivery.rs`).
//! * With the shim enabled, backoff jitter draws from a *dedicated* RNG
//!   stream seeded from the run seed, so shim runs replay byte-for-byte
//!   and never perturb the fault adversary's stream (pinned by the same
//!   file's shim-on golden).
//!
//! Scope: reliability is **per link incarnation**. A link flap (mobility,
//! partition, crash recovery) kills the incarnation and the shim state on
//! both sides with it — protocols already own re-synchronization across
//! incarnations (fork re-minting on `LinkUp`), and the shim must not
//! resurrect traffic from a dead incarnation under their feet. Each
//! node's end of a link is one [`crate::links::LinkStore`] payload, which
//! is what restarts it with the incarnation.

use crate::arq::{ArqTiming, GoBackN};
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

/// One node's end of one link incarnation, filed under `(owner, peer)`:
/// the machine plus the generations of its two timers. Timers live in the
/// engine's queue as items and cannot be recalled; a re-arm bumps the
/// generation instead, and an item carrying an older one no-ops (the
/// generations ride in the items, and so in the state digest).
#[derive(Clone)]
pub(crate) struct ShimLink<M> {
    pub arq: GoBackN<M>,
    pub rto_gen: u64,
    pub ack_gen: u64,
}

impl<M> ShimLink<M> {
    /// Start the next generation of the retransmission timer.
    pub fn next_rto_gen(&mut self) -> u64 {
        self.rto_gen += 1;
        self.rto_gen
    }
}

impl<M> Default for ShimLink<M> {
    fn default() -> ShimLink<M> {
        ShimLink {
            arq: GoBackN::default(),
            rto_gen: 0,
            ack_gen: 0,
        }
    }
}

/// The engine-side shim state: timing resolved from ν, the dedicated
/// jitter stream, and every node's end of every link.
#[derive(Clone)]
pub(crate) struct ShimState<M> {
    pub timing: ArqTiming,
    /// Dedicated stream for backoff jitter, so shim timing never perturbs
    /// the engine's or the fault adversary's streams.
    pub rng: SimRng,
    pub links: LinkStore<ShimLink<M>>,
}

impl<M> ShimState<M> {
    pub fn new(nu: u64, run_seed: u64) -> ShimState<M> {
        ShimState {
            timing: ArqTiming::from_nu(nu),
            rng: SimRng::seed_from_u64(shim_seed(run_seed)),
            links: LinkStore::new(),
        }
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
        let timing = state.timing;
        assert_eq!(
            (timing.rto_initial, timing.rto_cap, timing.ack_idle),
            (20, 160, 10)
        );
    }
}
