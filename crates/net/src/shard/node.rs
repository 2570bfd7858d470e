//! The per-node automaton host inside a shard worker.
//!
//! A [`ShardNode`] owns one protocol automaton (`sim::Protocol` — the
//! *same* state machines the deterministic engine runs), the
//! simulator's application layer ([`Workload`], the rule the engine
//! installs as a hook) with its one pending command, and, under
//! `LiveConfig::reliable`, one go-back-N state machine per neighbour
//! ([`manet_sim::arq::GoBackN`] — the machine the engine hosts, here over
//! the protocol's own messages and wall nanoseconds, with jitter from the
//! node's own stream). It has no thread, clock or socket of its own: the
//! worker calls in with a control event, an envelope or a due wakeup and
//! `now`, the instant (wall nanoseconds since the run origin) at which it
//! took that input in hand, as the simulator hands a handler its one
//! `now`. Everything the node produces for the input carries that
//! instant: each record's `at_ns`, each envelope's `sent_ns`, a
//! delivery's latency (`now - sent_ns`) and every deadline it arms; the
//! node never reads a clock. Records come back stamped by the shard's
//! hybrid clock, outbound envelopes land in the worker's routing buffer,
//! and every deadline — think time, eating exit, protocol timer,
//! retransmission, idle ack — is reported through
//! [`ShardNode::earliest_deadline_ns`] for the worker's timing wheel.
//! `now` divided by `tick_ns` plays the role of virtual time in the
//! `Context` handed to the automaton.
//!
//! A node never sees bytes on its way out: it emits typed
//! [`Envelope`]s, and the worker encodes only those bound for another
//! shard. On the way in, [`ShardNode::on_envelope`] decodes a
//! cross-shard envelope and hands it to [`ShardNode::receive`], the one
//! receive path, which same-shard envelopes enter directly.

use std::ops::AddAssign;
use std::sync::atomic::Ordering;

use manet_sim::arq::{ArqTiming, GoBackN, Rto};
use manet_sim::{
    Command, Context, DiningState, Event, Neighbors, NodeId, Protocol, SimConfig, SimRng, SimTime,
    Workload,
};

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
    /// Timed parks whose next pass found their wheel tick due, and their
    /// summed lateness (that pass's clock reading minus the tick), in ns.
    pub(crate) timer_wakes: u64,
    pub(crate) timer_late_ns: u64,
}

impl AddAssign for NetCounts {
    fn add_assign(&mut self, o: NetCounts) {
        self.sent += o.sent;
        self.delivered += o.delivered;
        self.decode_errors += o.decode_errors;
        self.send_failures += o.send_failures;
        self.retransmissions += o.retransmissions;
        self.acks_sent += o.acks_sent;
        self.timer_wakes += o.timer_wakes;
        self.timer_late_ns += o.timer_late_ns;
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
    workload: Workload,
    /// The workload's one scheduled `(deadline_ns, command)`: the next
    /// hunger or the current meal's exit. Run, once due, only if
    /// [`Workload::applies`].
    pending: Option<(u64, Command)>,
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
    /// with the shim off (with it on, the machine numbers the frames);
    /// O(δ), not a dense vector, so 10k-node shards do not pay O(n) memory
    /// per node.
    send_seq: Neighbors<u64>,
    /// `(deadline_ns, token)` pairs from `Context::set_timer`.
    timers: Vec<(u64, u64)>,
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
    /// shim off. Sorted by peer, so its timers fire in ascending peer order.
    arq: Neighbors<GoBackN<P::Msg>>,
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
        now: u64,
    ) -> ShardNode<P> {
        let seed = cfg.seed ^ 0x11FE_0000 ^ ((me.0 as u64) << 32);
        let mut rng = SimRng::seed_from_u64(seed);
        let mean_think = ((1e9 / cfg.rate) as u64).max(1);
        // Stagger the first hunger so the run opens with contention, not
        // a thundering herd at t = 0.
        let first = now + rng.gen_range(0..=mean_think / 2);
        let eat = cfg.eat_ms.saturating_mul(1_000_000);
        let lo = (mean_think / 2).max(1);
        let workload = match (cfg.one_shot, cfg.closed_loop) {
            (true, _) => Workload::one_shot(eat..=eat, seed),
            // Hungry again at once: after the rule's floor of 1 ns.
            (false, true) => Workload::cyclic(eat..=eat, 0..=0, seed),
            // Open loop: think uniform in [0.5, 1.5] of the mean 1/rate.
            (false, false) => Workload::cyclic(eat..=eat, lo..=lo + mean_think, seed),
        };
        let dining = proto.dining_state();
        ShardNode {
            me,
            tick_ns: cfg.tick_ns,
            workload,
            pending: Some((first, Command::SetHungry(me))),
            rng,
            proto,
            neighbors,
            moving: false,
            crashed: false,
            dining,
            session: 0,
            ate_once: false,
            send_seq: Neighbors::new(),
            timers: Vec::new(),
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
            arq: Neighbors::new(),
            n_decode_errors: 0,
            n_retransmissions: 0,
            n_acks_sent: 0,
        }
    }

    fn record(&self, kind: LiveEventKind, at_ns: u64, wire: &mut WireOut<P::Msg>) {
        let clock = wire.clock.stamp(at_ns / self.tick_ns);
        wire.records.push(StampedRecord { clock, at_ns, kind });
    }

    /// Feed one event to the automaton at `now`, flush what it emitted,
    /// and do the workload bookkeeping for any dining transition.
    fn apply(
        &mut self,
        ev: Event<P::Msg>,
        now: u64,
        wire: &mut WireOut<P::Msg>,
        shared: &ShardShared,
    ) {
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
            }
            // Only a finished meal counts (DESIGN "Sessions"), so a
            // one-shot run may stop once every node has finished one.
            if old == DiningState::Eating && new == DiningState::Thinking && !self.ate_once {
                self.ate_once = true;
                shared.ate.fetch_add(1, Ordering::Relaxed);
            }
            // A demotion back to hungry schedules nothing: its meal's exit
            // stays pending and is voided by session when due.
            if let Some((delay, cmd)) = self.workload.entered(self.me, new, self.session) {
                self.pending = Some((now + delay, cmd));
            }
            self.record(
                LiveEventKind::State {
                    node: self.me,
                    old,
                    new,
                    session: self.session,
                },
                now,
                wire,
            );
        }
        // Lent out and handed back drained, so its capacity is reused.
        let mut outbox = std::mem::take(&mut self.outbox);
        for (to, msg) in outbox.drain(..) {
            self.transmit(to, msg, now, wire, shared);
        }
        self.outbox = outbox;
    }

    fn transmit(
        &mut self,
        to: NodeId,
        msg: P::Msg,
        now: u64,
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
        let (seq, ack) = match self.arq_timing {
            Some(timing) => {
                let link = peer_entry(&mut self.arq, to);
                let (seq, _) = link.send(now, msg.clone(), timing, &mut self.rng);
                (seq, link.take_ack())
            }
            None => {
                let seq = peer_entry(&mut self.send_seq, to);
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

    /// Fire the due retransmission and idle-ack timers of every link, in
    /// ascending peer order.
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
        for (peer, link) in self.arq.iter_mut() {
            if link.next_deadline().is_none_or(|at| at > now) {
                continue;
            }
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
        self.send_seq.remove(peer);
        self.arq.remove(peer);
    }

    /// Apply a driver control event taken in hand at `now`.
    pub(crate) fn handle_ctrl(
        &mut self,
        ctrl: Ctrl<P::Msg>,
        now: u64,
        wire: &mut WireOut<P::Msg>,
        shared: &ShardShared,
    ) {
        match ctrl {
            Ctrl::Crash => {
                // From here on the node is inert. The crash record is
                // emitted here (not by the driver) so it is serialized
                // against the node's own state records.
                self.crashed = true;
                self.record(LiveEventKind::Crash { node: self.me }, now, wire);
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
                        self.dining = self.proto.dining_state();
                        self.record(LiveEventKind::Recover { node: self.me }, now, wire);
                        let next = self.workload.recovered(self.me);
                        self.pending = next.map(|(delay, cmd)| (now + delay, cmd));
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
                self.apply(ev, now, wire, shared);
            }
        }
    }

    /// Fire every workload deadline and timer due at `now`.
    pub(crate) fn tick(&mut self, now: u64, wire: &mut WireOut<P::Msg>, shared: &ShardShared) {
        if self.crashed {
            return;
        }
        if let Some((_, cmd)) = self.pending.take_if(|&mut (at, _)| at <= now) {
            if Workload::applies(&cmd, self.dining, self.session) {
                let ev = if let Command::SetHungry(_) = cmd {
                    Event::Hungry
                } else {
                    Event::ExitCs
                };
                self.apply(ev, now, wire, shared);
            }
        }
        while let Some(i) = self.timers.iter().position(|&(at, _)| at <= now) {
            let (_, token) = self.timers.swap_remove(i);
            self.apply(Event::Timer { token }, now, wire, shared);
        }
        self.fire_arq(now, wire, shared);
    }

    /// The earliest armed deadline in wall nanoseconds, for the wheel.
    pub(crate) fn earliest_deadline_ns(&self) -> Option<u64> {
        if self.crashed {
            return None;
        }
        self.pending
            .iter()
            .map(|(at, _)| at)
            .chain(self.timers.iter().map(|(at, _)| at))
            .copied()
            .chain(self.arq.iter().filter_map(|(_, link)| link.next_deadline()))
            .min()
    }

    /// Decode one cross-shard envelope and [`receive`](Self::receive) it
    /// at `now`.
    pub(crate) fn on_envelope(
        &mut self,
        bytes: &[u8],
        now: u64,
        wire: &mut WireOut<P::Msg>,
        shared: &ShardShared,
    ) {
        if self.crashed {
            return;
        }
        match Envelope::decode(bytes) {
            Ok(envelope) => self.receive(envelope, now, wire, shared),
            Err(_) => {
                self.n_decode_errors += 1;
                wire.counts.decode_errors += 1;
            }
        }
    }

    /// Process one envelope from the data plane, whichever route it came
    /// by, taken in hand at `now`.
    pub(crate) fn receive(
        &mut self,
        envelope: Envelope<P::Msg>,
        now: u64,
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
            let link = peer_entry(&mut self.arq, from);
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
        self.record(
            LiveEventKind::Deliver {
                from,
                to: self.me,
                seq,
                latency_ns: saturate(now.saturating_sub(sent_ns)),
            },
            now,
            wire,
        );
        wire.counts.delivered += 1;
        self.apply(Event::Message { from, msg }, now, wire, shared);
    }

    /// Emit the shutdown `NetStats` record at `now`.
    pub(crate) fn emit_net_stats(&mut self, now: u64, wire: &mut WireOut<P::Msg>) {
        self.record(
            LiveEventKind::NetStats {
                node: self.me,
                decode_errors: saturate(self.n_decode_errors),
                send_failures: 0,
                retransmissions: saturate(self.n_retransmissions),
                acks_sent: saturate(self.n_acks_sent),
            },
            now,
            wire,
        );
    }
}

/// `peer`'s entry in `map`, created empty on first use.
fn peer_entry<T: Default>(map: &mut Neighbors<T>, peer: NodeId) -> &mut T {
    if !map.contains(peer) {
        map.insert(peer, T::default());
    }
    map.get_mut(peer).expect("inserted above")
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
        hub(reliable, 1)
    }

    /// Node 0 linked to nodes `1..=peers`, due to go hungry on its first
    /// tick, with think times of 1–2 ns and 1 ms meals. It holds every
    /// fork, so it eats as soon as it is hungry.
    fn hub(reliable: bool, peers: u32) -> (ShardNode<Algorithm2>, WireOut<A2Msg>, ShardShared) {
        let n = peers as usize + 1;
        let mut cfg = LiveConfig::new(AlgKind::A2, TransportKind::Mpsc, vec![(0.0, 0.0); n]);
        cfg.reliable = reliable;
        cfg.rate = 1e9;
        cfg.eat_ms = 1;
        let seed = NodeSeed {
            id: NodeId(0),
            neighbors: (1..=peers).map(NodeId).collect(),
            n_nodes: n,
            max_degree: peers as usize,
        };
        let proto = Algorithm2::new(&seed);
        let node = ShardNode::new(seed.id, proto, Vec::new(), seed.neighbors, &cfg, 0);
        (node, WireOut::new(), ShardShared::new(n, true))
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
            node.tick(1, &mut wire, &shared);
            let first = sent(&mut wire, route);
            assert!(!first.is_empty(), "a hungry node announces itself");
            let numbered = (1..).map(|seq| (ENV_DATA, seq));
            assert!(first.iter().copied().eq(numbered.take(first.len())));

            let down = Ctrl::Tell(Event::LinkDown { peer: PEER });
            node.handle_ctrl(down, 2, &mut wire, &shared);
            let kind = LinkUpKind::AsMoving;
            node.handle_ctrl(
                Ctrl::Tell(Event::LinkUp { peer: PEER, kind }),
                3,
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
            node.tick(1, &mut wire, &shared);
            let buffered = sent(&mut wire, route);
            let rto = node.arq.get(PEER).expect("link").rto_at();
            let rto = rto.expect("frames in flight");

            shared.set_down(PEER, true);
            node.fire_arq(rto, &mut wire, &shared);
            assert_eq!(
                sent(&mut wire, route),
                vec![],
                "nothing crosses a dark path"
            );
            let link = node.arq.get(PEER).expect("link");
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

    /// The records and envelopes one input produced, drained: every
    /// record stamped `now`, every envelope sent at `now`.
    fn outputs_at(now: u64, wire: &mut WireOut<A2Msg>) -> (Vec<LiveEventKind>, Vec<NodeId>) {
        let records: Vec<_> = wire.records.drain(..).collect();
        assert!(records.iter().all(|r| r.at_ns == now), "{records:?}");
        let sends: Vec<_> = wire.sends.drain(..).collect();
        assert!(sends.iter().all(|(_, env)| env.sent_ns == now));
        let kinds = records.into_iter().map(|r| r.kind).collect();
        (kinds, sends.into_iter().map(|(to, _)| to).collect())
    }

    #[test]
    fn an_input_is_recorded_sent_and_timed_at_the_now_it_is_handed() {
        use DiningState::{Eating, Thinking};
        // Far above any reading of the shared clock, which starts with
        // the test.
        const T1: u64 = 7_000_000_000;
        const NU: u64 = 1_000_000;
        let (mut node, mut wire, shared) = node0(true);
        let state = |old, new, session| LiveEventKind::State {
            node: NodeId(0),
            old,
            new,
            session,
        };
        let rto_from = |node: &ShardNode<Algorithm2>, now: u64| {
            let rto = node.arq.get(PEER).and_then(GoBackN::rto_at).expect("armed");
            assert!(
                (now + 2 * NU..=now + 2 * NU + NU / 2).contains(&rto),
                "{rto}"
            );
        };

        // A tick: hungry, then eating at once; the announcement is sent,
        // and the meal's end and the retransmission are armed from T1.
        node.tick(T1, &mut wire, &shared);
        let (records, sends) = outputs_at(T1, &mut wire);
        assert_eq!(records, vec![state(Thinking, Eating, 1)]);
        assert_eq!(sends, vec![PEER]);
        let exit = Command::ExitCs {
            node: NodeId(0),
            session: 1,
        };
        assert_eq!(node.pending, Some((T1 + NU, exit)));
        rto_from(&node, T1);
        assert_eq!(node.earliest_deadline_ns(), Some(T1 + NU));

        // A delivered envelope: its latency is counted to T2, its ack
        // disarms the retransmission and its data arms the idle ack.
        let t2 = T1 + NU / 2;
        let envelope = Envelope {
            from: PEER,
            seq: 1,
            ack: 1,
            sent_ns: t2 - 123_456,
            msg: Some(A2Msg::Req),
        };
        node.receive(envelope, t2, &mut wire, &shared);
        let (records, sends) = outputs_at(t2, &mut wire);
        let deliver = LiveEventKind::Deliver {
            from: PEER,
            to: NodeId(0),
            seq: 1,
            latency_ns: 123_456,
        };
        assert_eq!(records, vec![deliver]);
        assert_eq!(sends, vec![], "an eating node holds the request");
        let link = node.arq.get(PEER).expect("link");
        assert_eq!((link.rto_at(), link.ack_at()), (None, Some(t2 + NU)));

        // The meal's end: the held fork goes out, the next hunger and a
        // new retransmission are armed from T3.
        let t3 = T1 + NU;
        node.tick(t3, &mut wire, &shared);
        let (records, sends) = outputs_at(t3, &mut wire);
        assert_eq!(records, vec![state(Eating, Thinking, 1)]);
        assert_eq!(sends, vec![PEER]);
        let rehungry = |node: &ShardNode<Algorithm2>, now: u64| {
            let pending = node.pending.as_ref();
            assert!(
                pending.is_some_and(|(at, cmd)| *cmd == Command::SetHungry(NodeId(0))
                    && (now + 1..=now + 2).contains(at)),
                "{pending:?}"
            );
        };
        rehungry(&node, t3);
        rto_from(&node, t3);

        // Control messages: a crash, then a recovery whose first hunger
        // is drawn from T5, then the shutdown record.
        let t4 = t3 + 10;
        node.handle_ctrl(Ctrl::Crash, t4, &mut wire, &shared);
        let (records, _) = outputs_at(t4, &mut wire);
        assert_eq!(records, vec![LiveEventKind::Crash { node: NodeId(0) }]);
        let seed = NodeSeed {
            id: NodeId(0),
            neighbors: Vec::new(),
            n_nodes: 2,
            max_degree: 1,
        };
        node.spares.push(Algorithm2::new(&seed));
        let t5 = t4 + 1_000;
        node.handle_ctrl(Ctrl::Recover, t5, &mut wire, &shared);
        let (records, _) = outputs_at(t5, &mut wire);
        assert_eq!(records, vec![LiveEventKind::Recover { node: NodeId(0) }]);
        rehungry(&node, t5);
        let t6 = t5 + 1;
        node.emit_net_stats(t6, &mut wire);
        assert_eq!(outputs_at(t6, &mut wire).0.len(), 1);
    }

    #[test]
    fn a_demoted_meals_exit_does_not_cut_the_next_meal_short() {
        use DiningState::{Eating, Hungry, Thinking};
        const T1: u64 = 7_000_000_000;
        const NU: u64 = 1_000_000;
        let exit = |session| Command::ExitCs {
            node: NodeId(0),
            session,
        };
        let (mut node, mut wire, shared) = node0(false);
        node.tick(T1, &mut wire, &shared);
        assert_eq!(
            (node.dining, node.pending.clone()),
            (Eating, Some((T1 + NU, exit(1))))
        );

        // The peer links up anew with node 0 as the moving side: the meal
        // is cut, and its exit stays pending.
        let kind = LinkUpKind::AsMoving;
        let up = Ctrl::Tell(Event::LinkUp { peer: PEER, kind });
        node.handle_ctrl(up, T1 + 10, &mut wire, &shared);
        assert_eq!(
            (node.dining, node.pending.clone()),
            (Hungry, Some((T1 + NU, exit(1))))
        );

        // The fork comes back before session 1's exit is due: session 2.
        let t2 = T1 + NU / 2;
        let fork = Envelope {
            from: PEER,
            seq: 1,
            ack: 0,
            sent_ns: t2,
            msg: Some(A2Msg::Fork {
                flag: false,
                gen: 1,
            }),
        };
        node.receive(fork, t2, &mut wire, &shared);
        assert_eq!((node.dining, node.session), (Eating, 2));

        // Session 2 eats its full meal, through session 1's deadline.
        node.tick(T1 + NU, &mut wire, &shared);
        assert_eq!(node.dining, Eating);
        assert_eq!(node.earliest_deadline_ns(), Some(t2 + NU));
        node.tick(t2 + NU, &mut wire, &shared);
        assert_eq!(node.dining, Thinking);
    }

    #[test]
    fn due_retransmissions_go_out_in_ascending_peer_order() {
        let (mut node, mut wire, shared) = hub(true, 3);
        // A standalone ack from the last peer opens its link first.
        let ack = Envelope {
            from: NodeId(3),
            seq: 0,
            ack: 0,
            sent_ns: 0,
            msg: None,
        };
        node.receive(ack, 1, &mut wire, &shared);
        node.tick(2, &mut wire, &shared);
        let announced: Vec<NodeId> = wire.sends.drain(..).map(|(to, _)| to).collect();
        assert_eq!(announced, [1, 2, 3].map(NodeId));
        let rtos = node.arq.iter().filter_map(|(_, link)| link.rto_at());
        let all_due = rtos.max().expect("frames in flight");
        node.fire_arq(all_due, &mut wire, &shared);
        let resent: Vec<NodeId> = wire.sends.drain(..).map(|(to, _)| to).collect();
        assert_eq!(resent, [1, 2, 3].map(NodeId));
    }
}
