//! The per-node automaton host inside a shard worker.
//!
//! A [`ShardNode`] owns one protocol automaton (`sim::Protocol` — the
//! *same* state machines the deterministic engine runs), a self-driven
//! workload clocked by a per-node [`SimRng`], and, under
//! `LiveConfig::reliable`, one go-back-N state machine per neighbour
//! ([`manet_sim::arq::GoBackN`] — the machine the engine hosts, here over
//! the protocol's own messages and wall nanoseconds, with jitter from the
//! node's own stream). It has no thread, clock or socket of its own: the
//! worker calls in with a control event, an envelope or a due wakeup,
//! records come back stamped by the shard's hybrid clock, outbound
//! envelopes land in the worker's routing buffer, and every deadline —
//! think time, eating exit, protocol timer, retransmission, idle ack —
//! is reported through [`ShardNode::earliest_deadline_ns`] for the
//! worker's timing wheel. Wall time divided by `tick_ns` plays the role
//! of virtual time in the `Context` handed to the automaton.
//!
//! A node never sees bytes on its way out: it emits typed
//! [`Envelope`]s, and the worker encodes only those bound for another
//! shard. On the way in, [`ShardNode::on_envelope`] decodes a
//! cross-shard envelope and hands it to [`ShardNode::receive`], the one
//! receive path, which same-shard envelopes enter directly.

use std::collections::HashMap;
use std::ops::AddAssign;
use std::sync::atomic::Ordering;

use manet_sim::arq::{ArqTiming, GoBackN, Rto};
use manet_sim::{Context, DiningState, Event, NodeId, Protocol, SimConfig, SimRng, SimTime};

use super::clock::{HybridClock, StampedRecord};
use super::{Ctrl, ShardShared};
use crate::codec::WireMsg;
use crate::runtime::LiveConfig;
use crate::trace::LiveEventKind;
use crate::transport::Envelope;

/// A worker's data-plane counters, summed over the workers once they
/// exit: no frame pays for a shared atomic.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct NetCounts {
    pub(crate) sent: u64,
    pub(crate) delivered: u64,
    pub(crate) decode_errors: u64,
    pub(crate) send_failures: u64,
    pub(crate) retransmissions: u64,
    pub(crate) acks_sent: u64,
}

impl AddAssign for NetCounts {
    fn add_assign(&mut self, o: NetCounts) {
        self.sent += o.sent;
        self.delivered += o.delivered;
        self.decode_errors += o.decode_errors;
        self.send_failures += o.send_failures;
        self.retransmissions += o.retransmissions;
        self.acks_sent += o.acks_sent;
    }
}

/// The worker-owned output side of every node call: the shard clock,
/// the stamped record stream, the routing buffer for outbound
/// envelopes and the worker's counters. Owned by the worker (not the
/// node) so one borrow serves every node in the shard.
pub(crate) struct WireOut<M> {
    pub(crate) clock: HybridClock,
    pub(crate) records: Vec<StampedRecord>,
    /// `(to, envelope)` pairs the worker routes after the call — as they
    /// are into the local queue for same-shard peers, encoded into a
    /// per-shard-pair batch otherwise.
    pub(crate) sends: Vec<(NodeId, Envelope<M>)>,
    pub(crate) counts: NetCounts,
}

impl<M> WireOut<M> {
    pub(crate) fn new() -> WireOut<M> {
        WireOut {
            clock: HybridClock::new(),
            records: Vec::new(),
            sends: Vec::new(),
            counts: NetCounts::default(),
        }
    }
}

/// One hosted protocol automaton plus its workload state.
pub(crate) struct ShardNode<P: Protocol> {
    me: NodeId,
    tick_ns: u64,
    eat_ns: u64,
    one_shot: bool,
    closed_loop: bool,
    mean_think_ns: u64,
    rng: SimRng,
    proto: P,
    /// Sorted.
    neighbors: Vec<NodeId>,
    moving: bool,
    crashed: bool,
    dining: DiningState,
    session: u64,
    ate_once: bool,
    /// Per-peer envelope sequence numbers of the current link incarnation
    /// with the shim off (with it on, the machine numbers the frames); a
    /// map, not a dense vector, so 10k-node shards do not pay O(n) memory
    /// per node.
    send_seq: HashMap<u32, u64>,
    /// `(deadline_ns, token)` pairs from `Context::set_timer`.
    timers: Vec<(u64, u64)>,
    next_hungry: Option<u64>,
    exit_at: Option<u64>,
    outbox: Vec<(NodeId, P::Msg)>,
    timer_buf: Vec<(u64, u64)>,
    /// Fresh incarnations, one per `Recover` command for this node,
    /// swapped in by the driver's recoveries.
    spares: Vec<P>,
    /// The shim's timeouts from ν in wall nanoseconds when it is armed
    /// (`LiveConfig::reliable`), `None` when it is off.
    arq_timing: Option<ArqTiming>,
    /// Per-peer go-back-N state over the protocol's messages, created on
    /// first use and dropped when the link resets; always empty with the
    /// shim off.
    arq: HashMap<u32, GoBackN<P::Msg>>,
    // Per-node counters behind the shutdown NetStats record. A failed
    // send is counted per shard batch (`Outbound::flush`), not per node.
    n_decode_errors: u64,
    n_retransmissions: u64,
    n_acks_sent: u64,
}

impl<P> ShardNode<P>
where
    P: Protocol,
    P::Msg: WireMsg,
{
    pub(crate) fn new(
        me: NodeId,
        proto: P,
        spares: Vec<P>,
        neighbors: Vec<NodeId>,
        cfg: &LiveConfig,
        now_ns: u64,
    ) -> ShardNode<P> {
        let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0x11FE_0000 ^ ((me.0 as u64) << 32));
        let mean_think_ns = ((1e9 / cfg.rate) as u64).max(1);
        // Stagger the first hunger so the run opens with contention, not
        // a thundering herd at t = 0.
        let first = now_ns + rng.gen_range(0..=mean_think_ns / 2);
        let dining = proto.dining_state();
        ShardNode {
            me,
            tick_ns: cfg.tick_ns,
            eat_ns: cfg.eat_ms.saturating_mul(1_000_000),
            one_shot: cfg.one_shot,
            closed_loop: cfg.closed_loop,
            mean_think_ns,
            rng,
            proto,
            neighbors,
            moving: false,
            crashed: false,
            dining,
            session: 0,
            ate_once: false,
            send_seq: HashMap::new(),
            timers: Vec::new(),
            next_hungry: Some(first),
            exit_at: None,
            outbox: Vec::new(),
            timer_buf: Vec::new(),
            spares,
            arq_timing: cfg.reliable.then(|| {
                ArqTiming::from_nu(
                    SimConfig::default()
                        .max_message_delay
                        .saturating_mul(cfg.tick_ns),
                )
            }),
            arq: HashMap::new(),
            n_decode_errors: 0,
            n_retransmissions: 0,
            n_acks_sent: 0,
        }
    }

    fn record(&self, kind: LiveEventKind, wire: &mut WireOut<P::Msg>, shared: &ShardShared) {
        let at_ns = shared.now_ns();
        let clock = wire.clock.stamp(at_ns / self.tick_ns);
        wire.records.push(StampedRecord { clock, at_ns, kind });
    }

    /// Feed one event to the automaton, flush what it emitted, and do
    /// the workload bookkeeping for any dining transition.
    fn apply(&mut self, ev: Event<P::Msg>, wire: &mut WireOut<P::Msg>, shared: &ShardShared) {
        let now = shared.now_ns();
        {
            let mut ctx = Context::for_host(
                self.me,
                SimTime(now / self.tick_ns),
                &self.neighbors,
                self.moving,
                &mut self.outbox,
                &mut self.timer_buf,
            );
            self.proto.on_event(ev, &mut ctx);
        }
        for (delay_ticks, token) in self.timer_buf.drain(..) {
            self.timers
                .push((now + delay_ticks.saturating_mul(self.tick_ns), token));
        }
        // Record any dining transition BEFORE queuing the messages that
        // announce it: a fork handover recorded send-first would read as
        // two neighbors eating at once. The batch that carries these
        // sends is sealed with a clock stamp at least as large as the
        // transition's, so the receiving shard's delivery (and any entry
        // it enables) merges strictly after this record.
        let new = self.proto.dining_state();
        let old = self.dining;
        if new != old {
            self.dining = new;
            if new == DiningState::Eating {
                self.session += 1;
                self.exit_at = Some(shared.now_ns() + self.eat_ns);
            }
            if old == DiningState::Eating {
                // Covers both a normal exit and a mobility demotion back
                // to hungry: either way the meal is over.
                self.exit_at = None;
                // Only a finished meal counts (DESIGN "Sessions"), so a
                // one-shot run may stop once every node has finished one.
                if new == DiningState::Thinking && !self.ate_once {
                    self.ate_once = true;
                    shared.ate.fetch_add(1, Ordering::Relaxed);
                }
                if new == DiningState::Thinking && !self.one_shot {
                    let think = if self.closed_loop {
                        0
                    } else {
                        self.draw_think()
                    };
                    self.next_hungry = Some(shared.now_ns() + think);
                }
            }
            self.record(
                LiveEventKind::State {
                    node: self.me,
                    old,
                    new,
                    session: self.session,
                },
                wire,
                shared,
            );
        }
        // Lent out and handed back drained, so its capacity is reused.
        let mut outbox = std::mem::take(&mut self.outbox);
        for (to, msg) in outbox.drain(..) {
            self.transmit(to, msg, wire, shared);
        }
        self.outbox = outbox;
    }

    fn draw_think(&mut self) -> u64 {
        // Uniform in [0.5, 1.5] of the mean, like the sim workload's
        // jittered think times.
        let lo = (self.mean_think_ns / 2).max(1);
        let hi = lo + self.mean_think_ns;
        self.rng.gen_range(lo..=hi)
    }

    fn transmit(
        &mut self,
        to: NodeId,
        msg: P::Msg,
        wire: &mut WireOut<P::Msg>,
        shared: &ShardShared,
    ) {
        if self.crashed || to == self.me || self.neighbors.binary_search(&to).is_err() {
            return;
        }
        if shared.severed(self.me, to) {
            // Severed at send time: the message dies silently, exactly
            // like the engine's `dropped_at_send`.
            return;
        }
        let now = shared.now_ns();
        let (seq, ack) = match self.arq_timing {
            Some(timing) => {
                let link = self.arq.entry(to.0).or_default();
                let (seq, _) = link.send(now, msg.clone(), timing, &mut self.rng);
                (seq, link.take_ack())
            }
            None => {
                let seq = self.send_seq.entry(to.0).or_insert(0);
                *seq += 1;
                (*seq, 0)
            }
        };
        let envelope = Envelope {
            from: self.me,
            seq,
            ack,
            sent_ns: now,
            msg: Some(msg),
        };
        wire.sends.push((to, envelope));
        wire.counts.sent += 1;
    }

    /// Fire the due retransmission and idle-ack timers of every link.
    /// While a path is dark (severed, or the peer is no longer a
    /// neighbour) the timers still run but nothing goes on the wire: a
    /// dark retransmission backs off without consuming the owed ack, a
    /// dark idle-ack forgets the debt.
    fn fire_arq(&mut self, now: u64, wire: &mut WireOut<P::Msg>, shared: &ShardShared) {
        let Some(timing) = self.arq_timing else {
            return;
        };
        let me = self.me;
        let (mut resent, mut acks) = (0, 0);
        for (&peer, link) in &mut self.arq {
            if link.next_deadline().is_none_or(|at| at > now) {
                continue;
            }
            let peer = NodeId(peer);
            let dark = shared.severed(me, peer) || self.neighbors.binary_search(&peer).is_err();
            if link.rto_at().is_some_and(|at| at <= now) {
                let verdict = link.on_rto(now, timing, &mut self.rng);
                if !dark && matches!(verdict, Rto::Resend { .. }) {
                    let ack = link.take_ack();
                    for (seq, msg) in link.unacked() {
                        resent += 1;
                        let msg = Some(msg.clone());
                        let envelope = Envelope {
                            from: me,
                            seq,
                            ack,
                            sent_ns: now,
                            msg,
                        };
                        wire.sends.push((peer, envelope));
                    }
                }
            }
            if link.ack_at().is_some_and(|at| at <= now) {
                let owed = link.on_ack_idle();
                if let (Some(ack), false) = (owed, dark) {
                    acks += 1;
                    let envelope = Envelope {
                        from: me,
                        seq: 0,
                        ack,
                        sent_ns: now,
                        msg: None,
                    };
                    wire.sends.push((peer, envelope));
                }
            }
        }
        self.n_retransmissions += resent;
        self.n_acks_sent += acks;
        wire.counts.retransmissions += resent;
        wire.counts.acks_sent += acks;
    }

    /// The link to `peer` flapped: a new incarnation owes nothing to the
    /// old one, and numbers its frames from 1 again, shim or no shim.
    fn reset_link(&mut self, peer: NodeId) {
        self.send_seq.remove(&peer.0);
        self.arq.remove(&peer.0);
    }

    /// Apply a driver control event.
    pub(crate) fn handle_ctrl(
        &mut self,
        ctrl: Ctrl<P::Msg>,
        wire: &mut WireOut<P::Msg>,
        shared: &ShardShared,
    ) {
        match ctrl {
            Ctrl::Crash => {
                // From here on the node is inert. The crash record is
                // emitted here (not by the driver) so it is serialized
                // against the node's own state records.
                self.crashed = true;
                self.record(LiveEventKind::Crash { node: self.me }, wire, shared);
            }
            Ctrl::Recover => {
                // Restart as a fresh incarnation: new protocol instance,
                // empty neighborhood (the driver's rejoin link-ups follow
                // in the same mailbox), all shim and workload state of the
                // dead incarnation discarded. The eating-session counter is
                // NOT reset — it is monotonic across incarnations, which
                // the trace validator depends on.
                if self.crashed {
                    if let Some(fresh) = self.spares.pop() {
                        self.crashed = false;
                        self.proto = fresh;
                        self.neighbors.clear();
                        self.timers.clear();
                        self.outbox.clear();
                        self.send_seq.clear();
                        self.arq.clear();
                        self.moving = false;
                        self.exit_at = None;
                        self.dining = self.proto.dining_state();
                        self.record(LiveEventKind::Recover { node: self.me }, wire, shared);
                        let think = self.draw_think();
                        self.next_hungry = Some(shared.now_ns() + think);
                    }
                }
            }
            _ if self.crashed => {}
            Ctrl::Tell(ev) => {
                match ev {
                    Event::LinkUp { peer, .. } => {
                        if let Err(slot) = self.neighbors.binary_search(&peer) {
                            self.neighbors.insert(slot, peer);
                        }
                        self.reset_link(peer);
                    }
                    Event::LinkDown { peer } => {
                        if let Ok(slot) = self.neighbors.binary_search(&peer) {
                            self.neighbors.remove(slot);
                        }
                        self.reset_link(peer);
                    }
                    Event::MovementStarted => self.moving = true,
                    Event::MovementEnded => self.moving = false,
                    _ => {}
                }
                self.apply(ev, wire, shared);
            }
        }
    }

    /// Fire every due workload deadline and timer.
    pub(crate) fn tick(&mut self, wire: &mut WireOut<P::Msg>, shared: &ShardShared) {
        if self.crashed {
            return;
        }
        let now = shared.now_ns();
        if self.dining == DiningState::Thinking {
            if let Some(at) = self.next_hungry {
                if at <= now {
                    self.next_hungry = None;
                    self.apply(Event::Hungry, wire, shared);
                }
            }
        }
        if self.dining == DiningState::Eating {
            if let Some(at) = self.exit_at {
                if at <= now {
                    self.exit_at = None;
                    self.apply(Event::ExitCs, wire, shared);
                }
            }
        }
        while let Some(i) = self.timers.iter().position(|&(at, _)| at <= now) {
            let (_, token) = self.timers.swap_remove(i);
            self.apply(Event::Timer { token }, wire, shared);
        }
        self.fire_arq(now, wire, shared);
    }

    /// The earliest armed deadline in wall nanoseconds, for the wheel.
    pub(crate) fn earliest_deadline_ns(&self) -> Option<u64> {
        if self.crashed {
            return None;
        }
        self.next_hungry
            .iter()
            .chain(self.exit_at.iter())
            .chain(self.timers.iter().map(|(at, _)| at))
            .copied()
            .chain(self.arq.values().filter_map(GoBackN::next_deadline))
            .min()
    }

    /// Decode one cross-shard envelope and [`receive`](Self::receive) it.
    pub(crate) fn on_envelope(
        &mut self,
        bytes: &[u8],
        wire: &mut WireOut<P::Msg>,
        shared: &ShardShared,
    ) {
        if self.crashed {
            return;
        }
        match Envelope::decode(bytes) {
            Ok(envelope) => self.receive(envelope, wire, shared),
            Err(_) => {
                self.n_decode_errors += 1;
                wire.counts.decode_errors += 1;
            }
        }
    }

    /// Process one envelope from the data plane, whichever route it came
    /// by.
    pub(crate) fn receive(
        &mut self,
        envelope: Envelope<P::Msg>,
        wire: &mut WireOut<P::Msg>,
        shared: &ShardShared,
    ) {
        let Envelope {
            from,
            seq,
            ack,
            sent_ns,
            msg,
        } = envelope;
        // In-flight losses: traffic from a peer that is no longer a
        // neighbor (the link died under the message) or across a severed
        // link is dropped before the protocol sees it, like the engine's
        // `dropped_in_flight`.
        if self.crashed
            || self.neighbors.binary_search(&from).is_err()
            || shared.severed(from, self.me)
        {
            return;
        }
        if let Some(timing) = self.arq_timing {
            let now = shared.now_ns();
            let link = self.arq.entry(from.0).or_default();
            link.on_ack(now, ack, timing, &mut self.rng);
            if msg.is_some() && !link.on_data(now, seq, timing).0 {
                return;
            }
        }
        // A standalone ack carries no message; with the shim off a stray
        // one is dropped, not an error.
        let Some(msg) = msg else {
            return;
        };
        let latency_ns = shared.now_ns().saturating_sub(sent_ns);
        self.record(
            LiveEventKind::Deliver {
                from,
                to: self.me,
                seq,
                latency_ns: saturate(latency_ns),
            },
            wire,
            shared,
        );
        wire.counts.delivered += 1;
        self.apply(Event::Message { from, msg }, wire, shared);
    }

    /// Emit the shutdown `NetStats` record.
    pub(crate) fn emit_net_stats(&mut self, wire: &mut WireOut<P::Msg>, shared: &ShardShared) {
        self.record(
            LiveEventKind::NetStats {
                node: self.me,
                decode_errors: saturate(self.n_decode_errors),
                send_failures: 0,
                retransmissions: saturate(self.n_retransmissions),
                acks_sent: saturate(self.n_acks_sent),
            },
            wire,
            shared,
        );
    }
}

/// A trace record's `u32` field: `x`, or `u32::MAX` if it does not fit.
fn saturate(x: u64) -> u32 {
    u32::try_from(x).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::super::batch::{batch_begin, batch_decode, batch_push};
    use super::*;
    use crate::transport::{decode_envelope, TransportKind, ENV_ACK, ENV_DATA};
    use harness::AlgKind;
    use local_mutex::{A2Msg, Algorithm2};
    use manet_sim::{LinkUpKind, NodeSeed};

    const PEER: NodeId = NodeId(1);

    /// Node 0 of a two-node line, due to go hungry on its first tick.
    fn node0(reliable: bool) -> (ShardNode<Algorithm2>, WireOut<A2Msg>, ShardShared) {
        let mut cfg = LiveConfig::new(
            AlgKind::A2,
            TransportKind::Mpsc,
            vec![(0.0, 0.0), (1.0, 0.0)],
        );
        cfg.reliable = reliable;
        cfg.rate = 1e9;
        let seed = NodeSeed {
            id: NodeId(0),
            neighbors: vec![PEER],
            n_nodes: 2,
            max_degree: 1,
        };
        let proto = Algorithm2::new(&seed);
        let node = ShardNode::new(seed.id, proto, Vec::new(), seed.neighbors, &cfg, 0);
        (node, WireOut::new(), ShardShared::new(2, true))
    }

    /// How the peer gets node 0's envelopes: handed over as they are
    /// (same shard), or written into a batch and decoded (cross-shard).
    #[derive(Clone, Copy, Debug)]
    enum Route {
        Typed,
        Encoded,
    }

    /// `(kind, seq)` of every envelope queued for the wire, as the peer
    /// reads it on `route`, draining the queue.
    fn sent(wire: &mut WireOut<A2Msg>, route: Route) -> Vec<(u8, u64)> {
        let sends: Vec<_> = wire.sends.drain(..).collect();
        assert!(sends.iter().all(|&(to, _)| to == PEER));
        match route {
            Route::Typed => sends
                .into_iter()
                .map(|(_, env)| {
                    let kind = if env.msg.is_some() { ENV_DATA } else { ENV_ACK };
                    (kind, env.seq)
                })
                .collect(),
            Route::Encoded => {
                let mut batch = batch_begin(0);
                for (to, env) in &sends {
                    batch_push(&mut batch, *to, |out| env.write(out));
                }
                let (_, _, entries) = batch_decode(&batch).expect("own batch");
                assert_eq!(entries.len(), sends.len());
                entries
                    .into_iter()
                    .zip(&sends)
                    .map(|((_, bytes), (_, env))| {
                        assert_eq!(Envelope::decode(bytes).as_ref(), Ok(env));
                        let (_, kind, seq, ..) = decode_envelope(bytes).expect("own envelope");
                        (kind, seq)
                    })
                    .collect()
            }
        }
    }

    #[test]
    fn each_link_incarnation_numbers_its_envelopes_from_one() {
        for (reliable, route) in [false, true]
            .into_iter()
            .flat_map(|reliable| [Route::Typed, Route::Encoded].map(|route| (reliable, route)))
        {
            let (mut node, mut wire, shared) = node0(reliable);
            node.tick(&mut wire, &shared);
            let first = sent(&mut wire, route);
            assert!(!first.is_empty(), "a hungry node announces itself");
            let numbered = (1..).map(|seq| (ENV_DATA, seq));
            assert!(first.iter().copied().eq(numbered.take(first.len())));

            let down = Ctrl::Tell(Event::LinkDown { peer: PEER });
            node.handle_ctrl(down, &mut wire, &shared);
            let kind = LinkUpKind::AsMoving;
            node.handle_ctrl(
                Ctrl::Tell(Event::LinkUp { peer: PEER, kind }),
                &mut wire,
                &shared,
            );
            let after = sent(&mut wire, route);
            assert_eq!(
                after.first(),
                Some(&(ENV_DATA, 1)),
                "reliable {reliable}, {route:?}: a reconnect restarts at 1, got {after:?}"
            );
        }
    }

    #[test]
    fn a_dark_path_lets_the_timers_run_but_puts_nothing_on_the_wire() {
        for route in [Route::Typed, Route::Encoded] {
            let (mut node, mut wire, shared) = node0(true);
            node.tick(&mut wire, &shared);
            let buffered = sent(&mut wire, route);
            let rto = node.arq[&PEER.0].rto_at().expect("frames in flight");

            shared.set_down(PEER, true);
            node.fire_arq(rto, &mut wire, &shared);
            assert_eq!(
                sent(&mut wire, route),
                vec![],
                "nothing crosses a dark path"
            );
            let link = &node.arq[&PEER.0];
            assert_eq!(link.in_flight(), buffered.len(), "still buffered");
            let backed_off = link.rto_at().expect("still armed");
            assert!(backed_off - rto >= 4_000_000, "doubled to 4ν = 4 ms");

            shared.set_down(PEER, false);
            node.fire_arq(backed_off, &mut wire, &shared);
            assert_eq!(
                sent(&mut wire, route),
                buffered,
                "{route:?}: resent once the path is lit"
            );
            assert_eq!(node.n_retransmissions, buffered.len() as u64);
        }
    }
}
