//! The protocol trait and the context handed to protocol handlers.

use crate::event::Event;
use crate::ids::NodeId;
use crate::time::SimTime;

/// The three sets of states of the local mutual exclusion problem
/// (Section 3.2 of the paper).
///
/// Every node cycles thinking → hungry → eating → thinking. The application
/// triggers thinking→hungry and eating→thinking; the algorithm triggers
/// hungry→eating, and — uniquely to the mobile setting — may demote an eating
/// node back to hungry when it moves into a new neighborhood.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum DiningState {
    /// Not interested in the critical section (the initial state).
    #[default]
    Thinking,
    /// Requested, but not yet granted, the critical section.
    Hungry,
    /// Inside the critical section.
    Eating,
}

impl std::fmt::Display for DiningState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DiningState::Thinking => "thinking",
            DiningState::Hungry => "hungry",
            DiningState::Eating => "eating",
        };
        f.write_str(s)
    }
}

/// A distributed algorithm run by every node of the simulation.
///
/// One value of the implementing type exists per node; the engine calls
/// [`Protocol::on_event`] for every event addressed to that node and reads
/// [`Protocol::dining_state`] after each call to detect transitions (for the
/// safety checker, metrics, and eating-session scheduling).
///
/// Handlers must not block: all "wait until" conditions of the paper's
/// pseudo-code are encoded as protocol state re-evaluated on later events.
pub trait Protocol {
    /// The message type exchanged between nodes. `Hash` is what the
    /// engine's state digest hashes a queued message by.
    type Msg: Clone + std::fmt::Debug + std::hash::Hash;

    /// Handle one event. Outgoing messages and timers are issued through
    /// `ctx`.
    fn on_event(&mut self, ev: Event<Self::Msg>, ctx: &mut Context<'_, Self::Msg>);

    /// The node's current position in the thinking/hungry/eating cycle.
    fn dining_state(&self) -> DiningState;

    /// Coarse, static label of a message — used in delivery trace entries
    /// and message-complexity accounting. The default labels everything
    /// `"msg"`; algorithms override it to distinguish requests, forks, etc.
    fn msg_kind(_msg: &Self::Msg) -> &'static str {
        "msg"
    }

    /// Deterministic fingerprint of this node's protocol state, consulted
    /// by schedule explorers for state-hash deduplication. `None` (the
    /// default) opts out: exploration still works, just without dedup
    /// pruning. Implementations must be pure and history-independent —
    /// equal states must digest equally regardless of how they were
    /// reached. The usual body is `Some(manet_sim::digest_of(self))` over
    /// a derived `Hash`, which covers every field: configuration that
    /// stays constant through a run hashes the same in every state of
    /// that run, so it never changes which states are merged.
    fn state_digest(&self) -> Option<u64> {
        None
    }

    /// Deterministic fingerprint of this node's *progress* state: like
    /// [`Protocol::state_digest`] but with monotone observational fields
    /// (phase logs, transfer generations) excluded, so the digest of a
    /// node that returns to the same behavioral configuration repeats.
    /// Liveness (lasso) detection keys on it: a repeated global
    /// progress digest means the run has entered a schedulable cycle.
    /// Defaults to [`Protocol::state_digest`], which is correct — merely
    /// pessimal, never unsound — for protocols whose state digest already
    /// excludes monotone fields: cycle detection finds fewer (never bogus)
    /// lassos.
    fn progress_digest(&self) -> Option<u64> {
        self.state_digest()
    }
}

/// Something a protocol did that its host cannot see from messages and
/// dining transitions alone, reported through [`Context::observe`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Obs {
    /// A recoloring procedure finished with a new color.
    Recolored,
    /// The `SD^f` return path of Algorithm 1 was taken (Lines 59–60).
    ReturnPath,
    /// A `switch` message of Algorithm 2 was sent.
    Switched,
}

/// The [`Obs`] one node reported over a run, as the engine counted them.
/// An observation, not state: no digest covers it, and a recovered node
/// keeps counting where its crashed incarnation stopped. Meals and
/// demotions are read off dining transitions by [`crate::Metrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Observed {
    /// [`Obs::Recolored`] reports.
    pub recolorings: u64,
    /// [`Obs::ReturnPath`] reports.
    pub return_paths: u64,
    /// [`Obs::Switched`] reports.
    pub switches: u64,
}

/// Handle through which a protocol interacts with the simulated world during
/// one event: sending messages, reading the neighbor set maintained by the
/// link-level protocol, setting timers and reporting observations.
pub struct Context<'a, M> {
    pub(crate) me: NodeId,
    pub(crate) now: SimTime,
    pub(crate) neighbors: &'a [NodeId],
    pub(crate) moving: bool,
    pub(crate) outbox: &'a mut Vec<(NodeId, M)>,
    pub(crate) timers: &'a mut Vec<(u64, u64)>,
    /// Where [`Context::observe`] counts; `None` discards.
    pub(crate) observed: Option<&'a mut Observed>,
}

impl<'a, M> Context<'a, M> {
    /// Build a context for a host *outside* the simulation engine — the
    /// live runtime drives the same [`Protocol`] automata from OS threads
    /// and real transports, and needs to hand them a context per event.
    ///
    /// `outbox` collects `(destination, message)` pairs issued via
    /// [`Context::send`]/[`Context::broadcast`]; `timers` collects
    /// `(delay_ticks, token)` pairs issued via [`Context::set_timer`]. The
    /// host owns delivery and timer semantics; observations are discarded.
    /// The engine's own event loop never uses this constructor.
    pub fn for_host(
        me: NodeId,
        now: SimTime,
        neighbors: &'a [NodeId],
        moving: bool,
        outbox: &'a mut Vec<(NodeId, M)>,
        timers: &'a mut Vec<(u64, u64)>,
    ) -> Context<'a, M> {
        Context {
            me,
            now,
            neighbors,
            moving,
            outbox,
            timers,
            observed: None,
        }
    }
}

impl<'a, M: Clone> Context<'a, M> {
    /// The ID of the node executing the handler.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Current virtual time.
    pub fn time(&self) -> SimTime {
        self.now
    }

    /// The node's current neighbors, sorted by ID. This is the local
    /// variable `N` of the paper, maintained by the link-level protocol.
    pub fn neighbors(&self) -> &'a [NodeId] {
        self.neighbors
    }

    /// Whether this node is currently moving. The paper assumes nodes know
    /// their own mobility status.
    pub fn is_moving(&self) -> bool {
        self.moving
    }

    /// Send `msg` to `to`. Delivery is reliable and FIFO while the link
    /// lives; if the link to `to` fails before delivery, the message is
    /// dropped (forks and other shared state die with their link).
    pub fn send(&mut self, to: NodeId, msg: M) {
        debug_assert_ne!(to, self.me, "node sent a message to itself");
        self.outbox.push((to, msg));
    }

    /// Broadcast `msg` to every current neighbor (the paper's `broadcast`,
    /// which is a local one-hop broadcast).
    pub fn broadcast(&mut self, msg: M) {
        for &n in self.neighbors {
            self.outbox.push((n, msg.clone()));
        }
    }

    /// Schedule a [`Event::Timer`] with `token` to fire after `delay` ticks
    /// (at least 1).
    pub fn set_timer(&mut self, delay: u64, token: u64) {
        self.timers.push((delay.max(1), token));
    }

    /// Report `obs` to the host, which counts it in the node's
    /// [`Observed`] record (the engine) or drops it (a live host).
    pub fn observe(&mut self, obs: Obs) {
        if let Some(seen) = self.observed.as_deref_mut() {
            match obs {
                Obs::Recolored => seen.recolorings += 1,
                Obs::ReturnPath => seen.return_paths += 1,
                Obs::Switched => seen.switches += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dining_state_default_is_thinking() {
        assert_eq!(DiningState::default(), DiningState::Thinking);
        assert_eq!(DiningState::Eating.to_string(), "eating");
    }

    #[test]
    fn context_collects_sends_and_timers() {
        let mut outbox = Vec::new();
        let mut timers = Vec::new();
        let mut observed = Observed::default();
        let neighbors = [NodeId(1), NodeId(2)];
        let mut ctx = Context {
            me: NodeId(0),
            now: SimTime(3),
            neighbors: &neighbors,
            moving: false,
            outbox: &mut outbox,
            timers: &mut timers,
            observed: Some(&mut observed),
        };
        ctx.send(NodeId(1), 9u8);
        ctx.broadcast(7u8);
        ctx.set_timer(0, 42); // clamped to 1
        ctx.observe(Obs::Switched);
        ctx.observe(Obs::Switched);
        ctx.observe(Obs::Recolored);
        assert_eq!(outbox, vec![(NodeId(1), 9), (NodeId(1), 7), (NodeId(2), 7)]);
        assert_eq!(timers, vec![(1, 42)]);
        let want = Observed {
            recolorings: 1,
            switches: 2,
            ..Observed::default()
        };
        assert_eq!(observed, want);
    }
}
