//! The discrete-event engine: the event queue, dispatch, observation
//! hooks, the strategy seam and the hosts of the ARQ shim.
//!
//! What happens to a frame between send and arrival — delay, channel
//! model, fault adversary, FIFO clamp — is decided by the
//! [`crate::link::LinkLayer`] the engine owns; the engine builds each
//! frame's [`DeliveryChoice`] for an installed strategy (it needs the queue
//! and the digests), hands the frame over and queues what comes back.
//! Everything kept per link lives in [`crate::links::LinkStore`]s, so a
//! run's memory follows its links, not `n²`.

use std::hash::{Hash, Hasher};

use crate::arq::Rto;
use crate::channel::{ChannelStats, Scan};
use crate::command::Command;
use crate::config::SimConfig;
use crate::event::Event;
use crate::fault::FaultStats;
use crate::hooks::{Hook, Sink, View};
use crate::ids::NodeId;
use crate::link::{Fate, Frame, Ledger, LinkLayer};
use crate::protocol::{Context, DiningState, Observed, Protocol};
use crate::sched::{self, DeliveryChoice, Strategy};
use crate::shim::{self, ShimState, ShimStats};
use crate::time::SimTime;
use crate::trace::{Trace, TraceEntry, TraceKind};
use crate::wheel::TimingWheel;
use crate::workload::Workload;
use crate::world::{LinkChange, Position, World};

/// Information handed to the node factory when constructing each protocol
/// instance.
#[derive(Clone, Debug)]
pub struct NodeSeed {
    /// The node's unique ID.
    pub id: NodeId,
    /// The node's initial neighbors (sorted by ID). Initial links are
    /// established without LinkUp notifications; initial shared state (e.g.
    /// fork placement by ID) is derived from this set.
    pub neighbors: Vec<NodeId>,
    /// Total number of nodes in the system (the paper's `n`; only the
    /// knowledge-of-`n` algorithm variants may consult it).
    pub n_nodes: usize,
    /// Maximum degree of the initial topology (the paper's δ; only the
    /// knowledge-of-δ algorithm variants may consult it).
    pub max_degree: usize,
}

/// Counters accumulated over a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total events processed.
    pub events: u64,
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Messages delivered to protocols.
    pub messages_delivered: u64,
    /// Messages refused at send time because the destination link had
    /// already failed inside the sending handler (link-race losses).
    pub dropped_at_send: u64,
    /// Messages accepted by the network that died in flight: their link
    /// failed (or changed incarnation) or their destination crashed before
    /// delivery.
    pub dropped_in_flight: u64,
    /// Faults injected by the [`crate::FaultPlan`] adversary, by kind
    /// (all zero when the plan is empty).
    pub faults: FaultStats,
    /// Reliable-delivery shim activity (all zero when
    /// [`crate::SimConfig::arq`] is `None`).
    pub shim: ShimStats,
    /// Channel-model activity (all zero with the default
    /// [`crate::ChannelConfig::Iid`] model).
    pub channel: ChannelStats,
}

impl EngineStats {
    /// Total messages lost for any reason: [`EngineStats::dropped_at_send`]
    /// plus [`EngineStats::dropped_in_flight`].
    pub fn messages_dropped(&self) -> u64 {
        self.dropped_at_send + self.dropped_in_flight
    }
}

/// A queued event. `Hash` covers every field, so a pending item enters
/// [`Engine::state_digest`] as exactly what it will do when dispatched.
#[derive(Hash)]
enum Item<M> {
    /// A physical frame in flight.
    Frame(Frame<Wire<M>>),
    Proto {
        node: NodeId,
        ev: Event<M>,
    },
    Command(Command),
    MoveStep {
        node: NodeId,
        epoch: u64,
    },
    MotionDone {
        node: NodeId,
        epoch: u64,
    },
    /// Retransmission timeout of the `from → to` ARQ sender; stale
    /// generations (superseded by a re-arm) and dead incarnations no-op.
    ShimRto {
        from: NodeId,
        to: NodeId,
        epoch: u64,
        gen: u64,
    },
    /// Idle-ack timeout of the receiver of the `from → to` data channel.
    ShimAckIdle {
        from: NodeId,
        to: NodeId,
        epoch: u64,
        gen: u64,
    },
    /// Completion scan of the shared-medium channel model; stale
    /// generations (superseded by a fair-share reallocation) no-op.
    ChannelTick {
        gen: u64,
    },
}

/// What the shim (or its absence) puts on the wire for one
/// [`Engine::send`].
#[derive(Clone, Hash)]
enum Wire<M> {
    /// Shim disabled: the bare protocol message, exactly as always.
    Plain(M),
    /// Sequenced shim data frame with a piggybacked cumulative ack.
    Data { seq: u64, ack: u64, msg: M },
    /// Standalone cumulative ack: the sender confirms in-order receipt of
    /// the reverse data channel up to sequence `ack`.
    Ack { ack: u64 },
}

/// A structured reason a run stopped early. Replaces the panics that used
/// to fire inside worker threads (killing whole parallel sweeps when one
/// pathological cell tripped): the engine records the abort, stops
/// dispatching, and reports surface it in their JSONL rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunAbort {
    /// The livelock guard tripped: the run dispatched
    /// [`SimConfig::max_events`] events before reaching its horizon.
    EventBudgetExceeded {
        /// The configured budget ([`SimConfig::max_events`]).
        limit: u64,
    },
    /// A delivery delay was produced outside the legal `[min_delay, ν]`
    /// window — a malformed imported schedule, a buggy policy, or a
    /// misconfigured channel model whose per-frame transmit time does not
    /// fit the window. The engine used to clamp such delays silently,
    /// which masked the corruption while reordering the replayed run.
    DelayOutOfWindow {
        /// Who produced the offending delay: `"strategy"` for an injected
        /// schedule, otherwise the channel model's
        /// [`crate::ChannelConfig::name`].
        channel: &'static str,
        /// The sender of the offending delivery.
        from: NodeId,
        /// The destination of the offending delivery.
        to: NodeId,
        /// The delay that was produced.
        delay: u64,
        /// Smallest legal delay ([`SimConfig::min_message_delay`]).
        earliest: u64,
        /// Largest legal delay (the paper's ν).
        latest: u64,
    },
    /// A channel model's bounded transmit queue overflowed: the protocol
    /// kept sending faster than the configured link capacity (or medium
    /// share) could drain. A structured stop, not a panic — the bound is
    /// [`crate::ChannelConfig::ConstantBandwidth::max_queue`] or
    /// [`crate::ChannelConfig::SharedMedium::max_inflight`].
    ChannelQueueOverflow {
        /// The sender of the overflowing channel.
        from: NodeId,
        /// The destination of the overflowing channel.
        to: NodeId,
        /// The configured queue bound.
        limit: usize,
    },
    /// The reliable-delivery shim's bounded in-flight buffer overflowed on
    /// one directed link: the sender kept producing while the channel
    /// never acknowledged. A structured stop (the protocol is outrunning
    /// the shim's fixed window), not a panic.
    ShimBufferOverflow {
        /// The sender of the overflowing channel.
        from: NodeId,
        /// The destination of the overflowing channel.
        to: NodeId,
        /// The shim's window, in frames.
        window: usize,
    },
}

impl std::fmt::Display for RunAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunAbort::EventBudgetExceeded { limit } => {
                write!(f, "event budget exceeded ({limit} events): livelock?")
            }
            RunAbort::DelayOutOfWindow {
                channel,
                from,
                to,
                delay,
                earliest,
                latest,
            } => write!(
                f,
                "{channel} delay {delay} on channel {}->{} outside legal window [{earliest}, {latest}]",
                from.0, to.0
            ),
            RunAbort::ChannelQueueOverflow { from, to, limit } => write!(
                f,
                "channel transmit queue overflow on {}->{} ({limit} frames in flight)",
                from.0, to.0
            ),
            RunAbort::ShimBufferOverflow { from, to, window } => write!(
                f,
                "ARQ shim buffer overflow on channel {}->{} ({window} unacked frames)",
                from.0, to.0
            ),
        }
    }
}

struct Core<M> {
    cfg: SimConfig,
    now: SimTime,
    seq: u64,
    queue: TimingWheel<Item<M>>,
    /// Set when the run stops early (budget overrun, malformed schedule);
    /// once set, `run_until` dispatches nothing further.
    abort: Option<RunAbort>,
    world: World,
    dining: Vec<DiningState>,
    eating_session: Vec<u64>,
    /// Per node, what [`Engine::observed`] reports; never digested.
    observed: Vec<Observed>,
    /// Link incarnations and each frame's fate. The shim keeps a store of
    /// its own; [`Core::bump_link`] keeps both in step.
    link: LinkLayer<Wire<M>>,
    stats: EngineStats,
    trace: Trace,
    /// Injected schedule strategy; `None` keeps the historical seeded
    /// uniform delay draw, bit-for-bit.
    sched: Option<Box<dyn Strategy>>,
    /// Reliable-delivery shim state; `None` (the default) keeps the
    /// engine's behavior — streams, traces, digests — bit-for-bit
    /// identical to a build without the shim.
    shim: Option<ShimState<M>>,
}

impl<M: Clone> Core<M> {
    /// The `a — b` link flapped (up or down): kill its incarnation in
    /// both stores at once. In-flight frames of the dead link can never
    /// be delivered, and FIFO floors, ARQ windows and channel state of
    /// both directions go stale immediately.
    fn bump_link(&mut self, a: NodeId, b: NodeId) {
        self.link.bump(a, b);
        if let Some(shim) = &mut self.shim {
            shim.links.bump(a, b);
        }
    }

    /// Queue `ev` for `node`'s protocol at the current instant.
    fn notify(&mut self, node: NodeId, ev: Event<M>) {
        self.push(self.now, Item::Proto { node, ev });
    }

    /// Queue the shared medium's completion scan, if one was armed.
    fn arm(&mut self, scan: Option<Scan>) {
        if let Some(Scan { at, gen }) = scan {
            self.push(at, Item::ChannelTick { gen });
        }
    }

    /// Queue `item` at `at`. Internal callers must never schedule in the
    /// past — the old `at.max(now)` clamp silently reordered events and
    /// masked such bugs; injected-schedule inputs are validated explicitly
    /// at their entry points (`Engine::schedule`, hook sinks, strategy
    /// delays) before they reach this seam.
    fn push(&mut self, at: SimTime, item: Item<M>) {
        debug_assert!(
            at >= self.now,
            "internal event scheduled in the past: at {at:?} < now {:?}",
            self.now
        );
        self.seq += 1;
        self.queue.push(at, self.seq, item);
    }

    fn view<'a>(&'a self) -> View<'a> {
        View {
            now: self.now,
            world: &self.world,
            dining: &self.dining,
            eating_session: &self.eating_session,
        }
    }
}

/// The deterministic discrete-event simulation engine.
///
/// An `Engine` owns one protocol instance per node, the physical
/// [`World`], the event queue and the observation [`Hook`]s. See the crate
/// docs for an end-to-end example.
pub struct Engine<P: Protocol> {
    core: Core<P::Msg>,
    protocols: Vec<P>,
    hooks: Vec<Box<dyn Hook<P::Msg>>>,
    /// The node factory, retained so [`Command::Recover`] can rebuild a
    /// crashed node's protocol as a fresh incarnation.
    factory: Box<dyn FnMut(NodeSeed) -> P>,
    /// δ of the initial topology, handed to recovered incarnations
    /// exactly as it was handed to the original ones.
    max_degree: usize,
    /// The outbox and timer buffers lent to every handler call and
    /// drained after it, so dispatching an event allocates nothing once
    /// they have grown to the largest handler's output.
    outbox: Vec<(NodeId, P::Msg)>,
    timers: Vec<(u64, u64)>,
}

impl<P: Protocol> Engine<P> {
    /// Create an engine with nodes at `positions`; the factory builds each
    /// node's protocol from its [`NodeSeed`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SimConfig::validate`].
    pub fn new<Pos, F>(cfg: SimConfig, positions: Vec<Pos>, factory: F) -> Engine<P>
    where
        Pos: Into<Position>,
        F: FnMut(NodeSeed) -> P + 'static,
    {
        cfg.validate().expect("invalid SimConfig");
        let world = World::new(
            cfg.radio_range,
            positions.into_iter().map(Into::into).collect(),
        );
        Engine::from_world(cfg, world, factory)
    }

    /// Create an engine over an *explicit* topology (see
    /// [`World::from_adjacency`]): `n` nodes wired exactly by `edges`,
    /// independent of geometry. Movement commands are rejected in such
    /// worlds; crashes work normally.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SimConfig::validate`] or `edges` is
    /// malformed.
    pub fn new_graph<F>(cfg: SimConfig, n: usize, edges: &[(u32, u32)], factory: F) -> Engine<P>
    where
        F: FnMut(NodeSeed) -> P + 'static,
    {
        cfg.validate().expect("invalid SimConfig");
        Engine::from_world(cfg, World::from_adjacency(n, edges), factory)
    }

    fn from_world<F>(cfg: SimConfig, world: World, mut factory: F) -> Engine<P>
    where
        F: FnMut(NodeSeed) -> P + 'static,
    {
        let n = world.len();
        let max_degree = world.max_degree();
        let protocols = (0..n)
            .map(|i| {
                let id = NodeId(i as u32);
                factory(NodeSeed {
                    id,
                    neighbors: world.neighbors(id).to_vec(),
                    n_nodes: n,
                    max_degree,
                })
            })
            .collect::<Vec<_>>();
        let dining = protocols.iter().map(|p| p.dining_state()).collect();
        let trace = Trace {
            enabled: cfg.trace,
            ..Trace::default()
        };
        let shim = cfg
            .arq
            .as_ref()
            .map(|_| ShimState::new(cfg.max_message_delay, cfg.seed));
        let mut engine = Engine {
            core: Core {
                link: LinkLayer::new(&cfg, n),
                queue: TimingWheel::from_config(&cfg),
                cfg,
                now: SimTime::ZERO,
                seq: 0,
                abort: None,
                world,
                dining,
                eating_session: vec![0; n],
                observed: vec![Observed::default(); n],
                stats: EngineStats::default(),
                trace,
                sched: None,
                shim,
            },
            protocols,
            hooks: Vec::new(),
            factory: Box::new(factory),
            max_degree,
            outbox: Vec::new(),
            timers: Vec::new(),
        };
        engine.install_fault_plan();
        engine
    }

    /// Validate the configured [`crate::FaultPlan`] against the real node
    /// count and schedule its scripted parts (crash waves, partition
    /// windows) as ordinary commands.
    fn install_fault_plan(&mut self) {
        self.core
            .cfg
            .fault
            .validate(self.core.world.len())
            .expect("invalid FaultPlan");
        if self.core.cfg.fault.is_empty() {
            return;
        }
        let plan = self.core.cfg.fault.clone();
        for wave in &plan.crash_waves {
            for &node in &wave.nodes {
                self.core.stats.faults.crashes_injected += 1;
                self.core
                    .push(SimTime(wave.at), Item::Command(Command::Crash(node)));
            }
        }
        for window in &plan.partitions {
            self.core.push(
                SimTime(window.at),
                Item::Command(Command::Partition {
                    side: window.side.clone(),
                }),
            );
            self.core.push(
                SimTime(window.at.saturating_add(window.heal_after)),
                Item::Command(Command::Heal),
            );
        }
        // Recoveries count at execution time (unlike crash waves): a
        // recover scheduled for a node that is not actually crashed by
        // then is a no-op and must not inflate the ledger.
        for wave in &plan.recovers {
            for &node in &wave.nodes {
                self.core
                    .push(SimTime(wave.at), Item::Command(Command::Recover(node)));
            }
        }
    }

    /// Register an observation hook. Hooks fire in registration order.
    pub fn add_hook(&mut self, hook: Box<dyn Hook<P::Msg>>) {
        self.hooks.push(hook);
    }

    /// Schedule a [`Command`] at absolute time `at` (clamped to now).
    pub fn schedule(&mut self, at: SimTime, cmd: Command) {
        // External surface: callers may legitimately hand in an instant the
        // run has already passed (e.g. re-scheduling between `run_until`
        // calls), so the clamp is part of the contract here.
        let at = at.max(self.core.now);
        self.core.push(at, Item::Command(cmd));
    }

    /// Sugar for scheduling [`Command::SetHungry`].
    pub fn set_hungry_at(&mut self, at: SimTime, node: NodeId) {
        self.schedule(at, Command::SetHungry(node));
    }

    /// Sugar for scheduling [`Command::Crash`].
    pub fn crash_at(&mut self, at: SimTime, node: NodeId) {
        self.schedule(at, Command::Crash(node));
    }

    /// Sugar for scheduling [`Command::Recover`].
    pub fn recover_at(&mut self, at: SimTime, node: NodeId) {
        self.schedule(at, Command::Recover(node));
    }

    /// Sugar for scheduling [`Command::Teleport`].
    pub fn teleport_at(&mut self, at: SimTime, node: NodeId, dest: impl Into<Position>) {
        self.schedule(
            at,
            Command::Teleport {
                node,
                dest: dest.into(),
            },
        );
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Cached dining state of `node`.
    pub fn dining_state(&self, node: NodeId) -> DiningState {
        self.core.dining[node.index()]
    }

    /// The physical world.
    pub fn world(&self) -> &World {
        &self.core.world
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &EngineStats {
        &self.core.stats
    }

    /// Why the run stopped early, if it did: `None` while the run is
    /// healthy, the structured reason once the livelock guard trips or an
    /// injected schedule misbehaves (see [`RunAbort`]). Once set, further
    /// [`Engine::run_until`] calls dispatch nothing.
    pub fn abort(&self) -> Option<&RunAbort> {
        self.core.abort.as_ref()
    }

    /// The recorded trace (empty unless [`SimConfig::trace`] was set).
    pub fn trace(&self) -> &[TraceEntry] {
        &self.core.trace.entries
    }

    /// Borrow the protocol instance of `node` (for tests and inspection).
    pub fn protocol(&self, node: NodeId) -> &P {
        &self.protocols[node.index()]
    }

    /// The observations `node`'s protocol reported so far (see
    /// [`Observed`]).
    pub fn observed(&self, node: NodeId) -> Observed {
        self.core.observed[node.index()]
    }

    /// Install a schedule [`Strategy`]: from now on it picks every delivery
    /// delay within the legal `[min_delay, ν]` window, replacing the seeded
    /// uniform draw. Install before running — choices already made are not
    /// revisited.
    pub fn set_strategy(&mut self, strategy: Box<dyn Strategy>) {
        self.core.sched = Some(strategy);
    }

    /// Number of queued, not-yet-dispatched events. Zero at the end of a
    /// run means the run reached quiescence (rather than the horizon).
    pub fn pending_events(&self) -> usize {
        self.core.queue.len()
    }

    /// Deterministic digest of the global engine state — every protocol's
    /// `state_digest`, all dining states and eating sessions, and the
    /// ordered signature of the pending event queue. `None` if any protocol
    /// does not implement `state_digest`.
    ///
    /// The current instant is deliberately excluded: two executions that
    /// reach identical protocol states and identical *absolute* pending
    /// times at different `now`s evolve identically, and schedule explorers
    /// want to deduplicate exactly those.
    pub fn state_digest(&self) -> Option<u64> {
        let mut h = sched::Fnv::new();
        for p in &self.protocols {
            h.write_u64(p.state_digest()?);
        }
        self.core.dining.hash(&mut h);
        self.core.eating_session.hash(&mut h);
        self.hash_queue(&mut h, SimTime::ZERO);
        Some(h.finish())
    }

    /// Deterministic digest of the engine's *progress* state, for liveness
    /// (lasso) detection: every protocol's `progress_digest` (monotone
    /// observational counters excluded), all dining states, and the pending
    /// queue signature at times **relative to now**. Eating-session
    /// counters are excluded too — they only grow. A digest that repeats at
    /// a later instant of the same run certifies a schedulable cycle: the
    /// engine is in the same behavioral configuration with the same
    /// in-flight events at the same offsets, so the delay choices of the
    /// intervening segment are legal again, verbatim, forever. `None` if
    /// any protocol opts out of `progress_digest`.
    pub fn progress_digest(&self) -> Option<u64> {
        let mut h = sched::Fnv::new();
        for p in &self.protocols {
            h.write_u64(p.progress_digest()?);
        }
        self.core.dining.hash(&mut h);
        self.hash_queue(&mut h, self.core.now);
        Some(h.finish())
    }

    /// The pending queue's signature, at times relative to `since`, in
    /// dispatch order: sorted by (at, seq) but hashing only (at, item)
    /// — the insertion-order seq values differ across histories even when
    /// the executions are equivalent, while the *relative* order they
    /// induce is exactly what matters. The sort's scratch vector is the
    /// only allocation of a digest.
    fn hash_queue(&self, h: &mut sched::Fnv, since: SimTime) {
        let mut items: Vec<_> = self.core.queue.iter().collect();
        items.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        for (at, _, item) in items {
            (at.0.saturating_sub(since.0), item).hash(h);
        }
    }

    /// Run until the queue is exhausted or virtual time would exceed
    /// `t_end`; returns the time reached.
    ///
    /// The run can also stop early with a structured [`RunAbort`] (see
    /// [`Engine::abort`]): when [`SimConfig::max_events`] events have been
    /// dispatched (livelock guard), or when an injected [`Strategy`]
    /// returns a delivery delay outside the legal window. Aborted engines
    /// stay inspectable — stats, trace and queue are all intact — but
    /// dispatch nothing further.
    pub fn run_until(&mut self, t_end: SimTime) -> SimTime {
        let mut quantum_checked = false;
        loop {
            if self.core.abort.is_some() {
                break;
            }
            let next_at = match self.core.queue.next_at() {
                Some(at) => at,
                None => {
                    if !quantum_checked {
                        self.fire_quantum_end();
                    }
                    break;
                }
            };
            if next_at > t_end {
                if !quantum_checked {
                    self.fire_quantum_end();
                    // Hooks may have scheduled events at the current instant.
                    if self.core.queue.next_at().is_some_and(|at| at <= t_end) {
                        quantum_checked = false;
                        continue;
                    }
                }
                self.core.now = t_end;
                break;
            }
            if next_at > self.core.now {
                if !quantum_checked {
                    self.fire_quantum_end();
                    quantum_checked = true;
                    continue; // hooks may have scheduled events at `now`
                }
                self.core.now = next_at;
                quantum_checked = false;
                continue;
            }
            // next_at == now: process one event. The budget check runs
            // before the pop so the guard is a clean stop, not a panic
            // mid-dispatch: exactly `max_events` events get dispatched,
            // same boundary the old assert enforced.
            quantum_checked = false;
            if self.core.stats.events >= self.core.cfg.max_events {
                self.core.abort = Some(RunAbort::EventBudgetExceeded {
                    limit: self.core.cfg.max_events,
                });
                break;
            }
            // The queue's peek caches the exact entry its pop returns, so
            // the two cannot desynchronize; an empty pop here is impossible
            // but degrades to a clean stop instead of a panic.
            let Some((_, _, item)) = self.core.queue.pop() else {
                break;
            };
            self.core.stats.events += 1;
            self.dispatch(item);
        }
        self.core.now
    }

    /// Run for `ticks` ticks past the current time.
    pub fn run_for(&mut self, ticks: u64) -> SimTime {
        let t = self.core.now + ticks;
        self.run_until(t)
    }

    fn dispatch(&mut self, item: Item<P::Msg>) {
        match item {
            Item::Frame(Frame {
                from,
                to,
                link_epoch,
                wire,
            }) => {
                if !self.arrives(from, to, link_epoch) {
                    return;
                }
                match wire {
                    Wire::Plain(msg) => self.deliver(from, to, msg),
                    Wire::Data { seq, ack, msg } => {
                        self.shim_data(from, to, msg, link_epoch, seq, ack)
                    }
                    // `from` acknowledges data `to` sent on the reverse
                    // channel; the receiver of this frame owns that
                    // sender's end.
                    Wire::Ack { ack } => self.shim_apply_ack(to, from, link_epoch, ack),
                }
            }
            Item::Proto { node, ev } => self.deliver_proto(node, ev),
            Item::Command(cmd) => self.execute(cmd),
            Item::ShimRto {
                from,
                to,
                epoch,
                gen,
            } => self.shim_rto(from, to, epoch, gen),
            Item::ShimAckIdle {
                from,
                to,
                epoch,
                gen,
            } => self.shim_ack_idle(from, to, epoch, gen),
            Item::ChannelTick { gen } => {
                let (arrivals, scan) = self.core.link.tick(self.core.now, gen);
                for (at, frame) in arrivals {
                    self.core.push(at, Item::Frame(frame));
                }
                self.core.arm(scan);
            }
            Item::MoveStep { node, epoch } => self.move_step(node, epoch),
            Item::MotionDone { node, epoch } => {
                if !self.moving(node, epoch) {
                    return;
                }
                self.core.world.end_motion(node);
                self.core
                    .trace
                    .record(self.core.now, TraceKind::MoveEnd(node));
                self.fire_hooks(|h, view, sink| h.on_move(view, node, false, sink));
                self.deliver_proto(node, Event::MovementEnded);
            }
        }
    }

    /// Whether a frame sent on incarnation `link_epoch` of `from → to`
    /// reaches a live receiver; a frame whose link failed (or changed
    /// incarnation) or whose destination crashed is counted as lost in
    /// flight.
    fn arrives(&mut self, from: NodeId, to: NodeId, link_epoch: u64) -> bool {
        let live = self.core.world.linked(from, to)
            && self.core.link.incarnation(from, to) == link_epoch
            && !self.core.world.is_crashed(to);
        self.core.stats.dropped_in_flight += !live as u64;
        live
    }

    /// Hand an arrived message to its destination: count it, number it
    /// within the link incarnation, trace it, run the handler.
    fn deliver(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        self.core.stats.messages_delivered += 1;
        let seq = self.core.link.next_delivery(from, to);
        self.core.trace.record(
            self.core.now,
            TraceKind::Deliver {
                from,
                to,
                kind: P::msg_kind(&msg),
                seq,
            },
        );
        self.fire_hooks(|h, view, sink| h.on_deliver(view, from, to, &msg, sink));
        self.deliver_proto(to, Event::Message { from, msg });
    }

    fn execute(&mut self, cmd: Command) {
        match cmd {
            Command::SetHungry(node) | Command::ExitCs { node, .. } => {
                let i = node.index();
                let (dining, session) = (self.core.dining[i], self.core.eating_session[i]);
                if !self.core.world.is_crashed(node) && Workload::applies(&cmd, dining, session) {
                    let ev = if let Command::SetHungry(_) = cmd {
                        Event::Hungry
                    } else {
                        Event::ExitCs
                    };
                    self.deliver_proto(node, ev);
                }
            }
            Command::Crash(node) => {
                if !self.core.world.is_crashed(node) {
                    self.core.world.crash(node);
                    self.core
                        .trace
                        .record(self.core.now, TraceKind::Crash(node));
                    self.fire_hooks(|h, view, sink| h.on_crash(view, node, sink));
                }
            }
            Command::Recover(node) => {
                if !self.core.world.is_crashed(node) {
                    return;
                }
                let flap = self.core.world.recover(node);
                self.core.stats.faults.recoveries += 1;
                self.core
                    .trace
                    .record(self.core.now, TraceKind::Recover(node));
                // Fresh incarnation: the crashed automaton's state is gone
                // for good; the rejoin handshake below re-establishes all
                // shared state through the ordinary link layer.
                let n = self.core.world.len();
                self.protocols[node.index()] = (self.factory)(NodeSeed {
                    id: node,
                    neighbors: Vec::new(),
                    n_nodes: n,
                    max_degree: self.max_degree,
                });
                // Re-sync the cached dining state silently: crash→rejoin
                // is an incarnation change, not a dining transition, so no
                // StateChange fires and `eating_session` stays monotonic
                // (the safety monitor's session bookkeeping depends on
                // both).
                self.core.dining[node.index()] = self.protocols[node.index()].dining_state();
                self.fire_hooks(|h, view, sink| h.on_recover(view, node, sink));
                // Rejoin handshake: ARQ and FIFO state die with the old
                // incarnation of each link, and the surviving peer (static
                // side) re-mints shared fork state exactly as after mobility.
                self.emit_link_changes(flap);
            }
            Command::StartMove { node, dest, speed } => {
                if self.core.world.is_crashed(node) || speed <= 0.0 || speed.is_nan() {
                    return;
                }
                let step_len = speed * self.core.cfg.move_step_ticks as f64;
                let epoch = self.core.world.begin_motion(node, dest, step_len);
                self.core
                    .trace
                    .record(self.core.now, TraceKind::MoveStart(node));
                self.fire_hooks(|h, view, sink| h.on_move(view, node, true, sink));
                self.deliver_proto(node, Event::MovementStarted);
                let at = self.core.now + self.core.cfg.move_step_ticks;
                self.core.push(at, Item::MoveStep { node, epoch });
            }
            Command::Teleport { node, dest } => {
                if self.core.world.is_crashed(node) {
                    return;
                }
                // Treat the jump as an (instantaneous) movement.
                let epoch = self.core.world.begin_motion(node, dest, 0.0);
                self.core
                    .trace
                    .record(self.core.now, TraceKind::MoveStart(node));
                self.fire_hooks(|h, view, sink| h.on_move(view, node, true, sink));
                self.deliver_proto(node, Event::MovementStarted);
                let changes = self.core.world.relocate(node, dest);
                self.emit_link_changes(changes);
                // Ends after the queued link notifications are processed.
                let now = self.core.now;
                self.core.push(now, Item::MotionDone { node, epoch });
            }
            Command::Partition { side } => {
                let changes = self.core.world.apply_cut(&side);
                self.core.stats.faults.partitions += 1;
                self.core
                    .trace
                    .record(self.core.now, TraceKind::Partition(changes.len()));
                self.emit_link_changes(changes);
            }
            Command::Heal => {
                let changes = self.core.world.clear_cut();
                self.core.stats.faults.heals += 1;
                self.core
                    .trace
                    .record(self.core.now, TraceKind::Heal(changes.len()));
                self.emit_link_changes(changes);
            }
        }
    }

    /// Whether `node` is alive and still in its motion `epoch` (a later
    /// move or a crash makes the motion's queued steps stale).
    fn moving(&self, node: NodeId, epoch: u64) -> bool {
        !self.core.world.is_crashed(node)
            && self
                .core
                .world
                .motion(node)
                .is_some_and(|m| m.epoch == epoch)
    }

    fn move_step(&mut self, node: NodeId, epoch: u64) {
        if !self.moving(node, epoch) {
            return;
        }
        let (changes, arrived) = self.core.world.step_motion(node);
        self.emit_link_changes(changes);
        let now = self.core.now;
        if arrived {
            self.core.push(now, Item::MotionDone { node, epoch });
        } else {
            let at = now + self.core.cfg.move_step_ticks;
            self.core.push(at, Item::MoveStep { node, epoch });
        }
    }

    /// Apply each change to the link layer, record it, show it to the
    /// hooks and queue what [`LinkChange::notices`] tells each end.
    fn emit_link_changes(&mut self, changes: Vec<LinkChange>) {
        for change in changes {
            let (LinkChange::Up(a, b) | LinkChange::Down(a, b)) = change;
            self.core.bump_link(a, b);
            let (change, notices) = change.notices(&self.core.world);
            let now = self.core.now;
            match change {
                LinkChange::Up(a, b) => {
                    self.core.trace.record(now, TraceKind::LinkUp(a, b));
                    self.fire_hooks(|h, view, sink| h.on_link_up(view, a, b, sink));
                }
                LinkChange::Down(a, b) => {
                    self.core.trace.record(now, TraceKind::LinkDown(a, b));
                    self.fire_hooks(|h, view, sink| h.on_link_down(view, a, b, sink));
                }
            }
            for (node, ev) in notices {
                self.core.notify(node, ev);
            }
        }
    }

    fn deliver_proto(&mut self, node: NodeId, ev: Event<P::Msg>) {
        if self.core.world.is_crashed(node) {
            return;
        }
        let old = self.core.dining[node.index()];
        let mut outbox = std::mem::take(&mut self.outbox);
        let mut timers = std::mem::take(&mut self.timers);
        {
            let mut ctx = Context {
                me: node,
                now: self.core.now,
                neighbors: self.core.world.neighbors(node),
                moving: self.core.world.is_moving(node),
                outbox: &mut outbox,
                timers: &mut timers,
                observed: Some(&mut self.core.observed[node.index()]),
            };
            self.protocols[node.index()].on_event(ev, &mut ctx);
        }
        for (to, msg) in outbox.drain(..) {
            self.send(node, to, msg);
        }
        for (delay, token) in timers.drain(..) {
            let at = self.core.now + delay;
            self.core.push(
                at,
                Item::Proto {
                    node,
                    ev: Event::Timer { token },
                },
            );
        }
        self.outbox = outbox;
        self.timers = timers;
        let new = self.protocols[node.index()].dining_state();
        if new != old {
            self.core.dining[node.index()] = new;
            if new == DiningState::Eating {
                self.core.eating_session[node.index()] += 1;
            }
            self.core
                .trace
                .record(self.core.now, TraceKind::StateChange(node, old, new));
            self.fire_hooks(|h, view, sink| h.on_state_change(view, node, old, new, sink));
        }
    }

    fn send(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        if !self.core.world.linked(from, to) {
            // The neighbor departed during this very handler; the message
            // would have been lost with the link anyway.
            self.core.stats.dropped_at_send += 1;
            return;
        }
        self.core.stats.messages_sent += 1;
        if self.core.shim.is_some() {
            self.shim_send(from, to, msg);
        } else {
            self.transmit(from, to, Wire::Plain(msg));
        }
    }

    /// Queue generation `gen` of the retransmission timer `owner`'s machine
    /// just armed for its link to `peer`.
    fn push_shim_rto(&mut self, owner: NodeId, peer: NodeId, epoch: u64, gen: u64, at: u64) {
        self.core.push(
            SimTime(at),
            Item::ShimRto {
                from: owner,
                to: peer,
                epoch,
                gen,
            },
        );
    }

    /// Shim-mode send: number the message on `from`'s end of the link's
    /// current incarnation, buffer it for retransmission, queue the
    /// retransmission timer if this armed it, and put a data frame (with
    /// a piggybacked cumulative ack for the reverse channel) on the wire.
    fn shim_send(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        let epoch = self.core.link.incarnation(from, to);
        let now = self.core.now.0;
        let shim = self.core.shim.as_mut().expect("shim_send without shim");
        let link = shim.links.get_mut(from, to);
        if link.arq.in_flight() >= shim::WINDOW {
            self.core.abort.get_or_insert(RunAbort::ShimBufferOverflow {
                from,
                to,
                window: shim::WINDOW,
            });
            return;
        }
        let (seq, armed) = link.arq.send(now, msg.clone(), shim.timing, &mut shim.rng);
        let armed = armed.map(|at| (link.next_rto_gen(), at));
        let ack = link.arq.take_ack();
        let depth = link.arq.in_flight() as u64;
        let hw = &mut self.core.stats.shim.buffer_high_water;
        *hw = (*hw).max(depth);
        if let Some((gen, at)) = armed {
            self.push_shim_rto(from, to, epoch, gen, at);
        }
        self.transmit(from, to, Wire::Data { seq, ack, msg });
    }

    /// Apply a cumulative acknowledgment (piggybacked or standalone) to
    /// `owner`'s end of its link to `peer`, and queue the retransmission
    /// timer if frames still in flight re-armed it.
    fn shim_apply_ack(&mut self, owner: NodeId, peer: NodeId, epoch: u64, ack: u64) {
        let now = self.core.now.0;
        let shim = self
            .core
            .shim
            .as_mut()
            .expect("shim_apply_ack without shim");
        let link = shim.links.get_mut(owner, peer);
        if let Some(at) = link.arq.on_ack(now, ack, shim.timing, &mut shim.rng) {
            let gen = link.next_rto_gen();
            self.push_shim_rto(owner, peer, epoch, gen, at);
        }
    }

    /// A sequenced data frame arrived on a live link: process its
    /// piggybacked ack, then deliver the payload iff it is the next
    /// in-order frame — duplicates and reordered frames update ack state
    /// but never reach the protocol, which is exactly the reliable-FIFO
    /// contract the paper assumes.
    fn shim_data(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: P::Msg,
        link_epoch: u64,
        seq: u64,
        ack: u64,
    ) {
        self.shim_apply_ack(to, from, link_epoch, ack);
        let now = self.core.now.0;
        let shim = self.core.shim.as_mut().expect("shim_data without shim");
        let link = shim.links.get_mut(to, from);
        let (deliver, armed) = link.arq.on_data(now, seq, shim.timing);
        if let Some(at) = armed {
            link.ack_gen += 1;
            let gen = link.ack_gen;
            self.core.push(
                SimTime(at),
                Item::ShimAckIdle {
                    from,
                    to,
                    epoch: link_epoch,
                    gen,
                },
            );
        }
        if deliver {
            self.deliver(from, to, msg);
        }
    }

    /// Retransmission timeout fired: resend every buffered frame of the
    /// channel (go-back-N) under the re-armed, backed-off timer — unless
    /// the machine is idle or has given up on a silent peer.
    fn shim_rto(&mut self, from: NodeId, to: NodeId, epoch: u64, gen: u64) {
        if self.core.world.is_crashed(from) || self.core.link.incarnation(from, to) != epoch {
            return;
        }
        let now = self.core.now.0;
        let shim = self.core.shim.as_mut().expect("shim_rto without shim");
        let link = shim.links.get_mut(from, to);
        if link.arq.rto_at().is_none() || link.rto_gen != gen {
            return;
        }
        let Rto::Resend { rto_at } = link.arq.on_rto(now, shim.timing, &mut shim.rng) else {
            return;
        };
        let gen = link.next_rto_gen();
        let ack = link.arq.take_ack();
        let frames: Vec<(u64, P::Msg)> = link
            .arq
            .unacked()
            .map(|(seq, msg)| (seq, msg.clone()))
            .collect();
        self.core.stats.shim.retransmissions += frames.len() as u64;
        // The timer item goes in before the frames it covers.
        self.push_shim_rto(from, to, epoch, gen, rto_at);
        for (seq, msg) in frames {
            self.transmit(from, to, Wire::Data { seq, ack, msg });
        }
    }

    /// Idle-ack timeout fired for the receiver of the `from → to` data
    /// channel: if an acknowledgment is still owed (no reverse traffic
    /// piggybacked it in time), send a standalone cumulative ack.
    fn shim_ack_idle(&mut self, from: NodeId, to: NodeId, epoch: u64, gen: u64) {
        if self.core.world.is_crashed(to) || self.core.link.incarnation(from, to) != epoch {
            return;
        }
        let shim = self.core.shim.as_mut().expect("shim_ack_idle without shim");
        let link = shim.links.get_mut(to, from);
        if link.arq.ack_at().is_none() || link.ack_gen != gen {
            return;
        }
        if let Some(ack) = link.arq.on_ack_idle() {
            self.core.stats.shim.acks_sent += 1;
            self.transmit(to, from, Wire::Ack { ack });
        }
    }

    /// Put one physical frame on the `from → to` link: an installed
    /// strategy picks its delay, the link layer decides its fate, and the
    /// queue takes whatever arrives.
    fn transmit(&mut self, from: NodeId, to: NodeId, wire: Wire<P::Msg>) {
        let choice = (self.core.sched.is_some()).then(|| self.delivery_choice(from, to, &wire));
        let pick = match (choice, &mut self.core.sched) {
            (Some(choice), Some(strategy)) => Some(strategy.choose_delay(&choice)),
            _ => None,
        };
        let core = &mut self.core;
        let mut ledger = Ledger {
            now: core.now,
            stats: &mut core.stats,
            trace: &mut core.trace,
            abort: &mut core.abort,
        };
        let hearers = core.world.neighbors(from);
        match core
            .link
            .transmit(from, to, wire, pick, hearers, &mut ledger)
        {
            Fate::Lost => {}
            Fate::Arrives { at, ghost, frame } => {
                if let Some(ghost) = ghost {
                    core.push(ghost, Item::Frame(frame.clone()));
                }
                core.push(at, Item::Frame(frame));
            }
            Fate::Flying(scan) => core.arm(scan),
        }
    }

    /// What an installed strategy sees of one frame: the legal window and
    /// what the delivery can be ordered against.
    fn delivery_choice(&self, from: NodeId, to: NodeId, wire: &Wire<P::Msg>) -> DeliveryChoice {
        let kind = match wire {
            Wire::Plain(m) | Wire::Data { msg: m, .. } => P::msg_kind(m),
            Wire::Ack { .. } => "ack",
        };
        let earliest = self.core.cfg.min_message_delay;
        let latest = self.core.cfg.max_message_delay;
        let deadline = self.core.now + latest;
        let (mut pending_in_window, mut pending_dependent_in_window) = (0usize, 0usize);
        for (at, _, item) in self.core.queue.iter() {
            if at > deadline {
                continue;
            }
            pending_in_window += 1;
            if item_node(item).is_none_or(|n| n == to) {
                pending_dependent_in_window += 1;
            }
        }
        let digest = match self
            .core
            .sched
            .as_ref()
            .map_or(sched::DigestMode::Off, |s| s.digest_mode())
        {
            sched::DigestMode::Off => None,
            sched::DigestMode::Absolute => self.state_digest(),
            sched::DigestMode::Progress => self.progress_digest(),
        };
        DeliveryChoice {
            from,
            to,
            kind,
            now: self.core.now,
            earliest,
            latest,
            pending_in_window,
            pending_dependent_in_window,
            fifo_floor: self.core.link.fifo_floor(from, to),
            digest,
        }
    }

    fn fire_quantum_end(&mut self) {
        self.fire_hooks(|h, view, sink| h.on_quantum_end(view, sink));
    }

    fn fire_hooks<F>(&mut self, mut f: F)
    where
        F: FnMut(&mut dyn Hook<P::Msg>, &View<'_>, &mut Sink),
    {
        if self.hooks.is_empty() {
            return;
        }
        let mut sink = Sink { scheduled: vec![] };
        {
            let view = self.core.view();
            for hook in &mut self.hooks {
                f(hook.as_mut(), &view, &mut sink);
            }
        }
        for (at, cmd) in sink.scheduled {
            // Hooks are an external surface like `Engine::schedule`: a
            // request for an already-passed instant means "now".
            let at = at.max(self.core.now);
            self.core.push(at, Item::Command(cmd));
        }
    }
}

/// The node at which a queued item dispatches, for dependent-delivery
/// counting: two queued items interact only when they dispatch at the same
/// node (the receiving automata share no state otherwise). `None` means the
/// item has global effect (commands may retarget any node, channel ticks
/// reshape every in-flight frame) and must be counted as dependent on
/// everything.
fn item_node<M>(item: &Item<M>) -> Option<NodeId> {
    match item {
        // Every frame dispatches at its receiver (a standalone ack at the
        // receiver's shim); an RTO fires at the sender `from`; the
        // idle-ack timer fires at the receiver of the `from → to` data
        // channel, i.e. `to`.
        Item::Frame(Frame { to, .. }) | Item::ShimAckIdle { to, .. } => Some(*to),
        Item::Proto { node, .. } | Item::MoveStep { node, .. } | Item::MotionDone { node, .. } => {
            Some(*node)
        }
        Item::ShimRto { from, .. } => Some(*from),
        Item::Command(_) | Item::ChannelTick { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LinkUpKind;

    /// Echo protocol: replies `x+1` to any numeric message; used to test
    /// delivery, FIFO and link semantics.
    struct Echo {
        state: DiningState,
        received: Vec<(NodeId, u64)>,
    }

    impl Protocol for Echo {
        type Msg = u64;
        fn on_event(&mut self, ev: Event<u64>, ctx: &mut Context<'_, u64>) {
            match ev {
                Event::Hungry => self.state = DiningState::Eating,
                Event::ExitCs => self.state = DiningState::Thinking,
                Event::Message { from, msg } => {
                    self.received.push((from, msg));
                    if msg < 3 {
                        ctx.send(from, msg + 1);
                    }
                }
                Event::Timer { token } => {
                    // Kick off a ping-pong with the first neighbor.
                    if let Some(&n) = ctx.neighbors().first() {
                        ctx.send(n, token);
                    }
                }
                _ => {}
            }
        }
        fn dining_state(&self) -> DiningState {
            self.state
        }
    }

    fn engine2() -> Engine<Echo> {
        Engine::new(
            SimConfig {
                trace: true,
                ..SimConfig::default()
            },
            vec![(0.0, 0.0), (1.0, 0.0)],
            |_| Echo {
                state: DiningState::Thinking,
                received: vec![],
            },
        )
    }

    #[test]
    fn ping_pong_round_trips() {
        let mut e = engine2();
        // Fire a timer on node 0 that starts a ping-pong 0 -> 1 -> 0 ...
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 0 },
            },
        );
        e.run_until(SimTime(1_000));
        // 0 sent 0; 1 replied 1; 0 replied 2; 1 replied 3 (no further reply).
        assert_eq!(
            e.protocol(NodeId(1)).received,
            vec![(NodeId(0), 0), (NodeId(0), 2)]
        );
        assert_eq!(
            e.protocol(NodeId(0)).received,
            vec![(NodeId(1), 1), (NodeId(1), 3)]
        );
        assert_eq!(e.stats().messages_sent, 4);
        assert_eq!(e.stats().messages_delivered, 4);
    }

    /// Eats when hungry; a timer with token 0 reports a switch, any other
    /// token demotes it from eating to hungry.
    struct Reporter(DiningState);

    impl Protocol for Reporter {
        type Msg = ();
        fn on_event(&mut self, ev: Event<()>, ctx: &mut Context<'_, ()>) {
            match ev {
                Event::Hungry => self.0 = DiningState::Eating,
                Event::ExitCs => self.0 = DiningState::Thinking,
                Event::Timer { token: 0 } => ctx.observe(crate::Obs::Switched),
                Event::Timer { .. } => self.0 = DiningState::Hungry,
                _ => {}
            }
        }
        fn dining_state(&self) -> DiningState {
            self.0
        }
        fn state_digest(&self) -> Option<u64> {
            Some(sched::digest_of(&self.0))
        }
    }

    #[test]
    fn observed_counts_meals_demotions_and_reports_outside_the_digests() {
        let run = |report: bool| {
            let node = NodeId(0);
            let mut e = Engine::new(SimConfig::default(), vec![(0.0, 0.0)], |_| {
                Reporter(DiningState::Thinking)
            });
            let (metrics, data) = crate::Metrics::new(1);
            e.add_hook(Box::new(metrics));
            e.set_hungry_at(SimTime(1), node);
            e.schedule(SimTime(2), Command::ExitCs { node, session: 1 });
            e.set_hungry_at(SimTime(3), node);
            let timer = |token| Item::Proto {
                node,
                ev: Event::Timer { token },
            };
            e.core.push(SimTime(4), timer(1));
            if report {
                e.core.push(SimTime(4), timer(0));
            }
            e.run_until(SimTime(10));
            let d = data.borrow();
            let sessions = (d.meals[0], d.demotions[0]);
            (
                sessions,
                e.observed(node),
                e.state_digest(),
                e.progress_digest(),
            )
        };
        let (sessions, seen, state, progress) = run(true);
        assert_eq!(sessions, (1, 1), "(meals, demotions)");
        let want = Observed {
            switches: 1,
            ..Observed::default()
        };
        assert_eq!(seen, want);
        let (_, quiet, quiet_state, quiet_progress) = run(false);
        assert_eq!(quiet.switches, 0);
        assert_eq!((state, progress), (quiet_state, quiet_progress));
    }

    #[test]
    fn fifo_order_is_preserved_per_channel() {
        struct Burst {
            got: Vec<u64>,
        }
        impl Protocol for Burst {
            type Msg = u64;
            fn on_event(&mut self, ev: Event<u64>, ctx: &mut Context<'_, u64>) {
                match ev {
                    Event::Timer { .. } => {
                        for i in 0..50 {
                            if let Some(&n) = ctx.neighbors().first() {
                                ctx.send(n, i);
                            }
                        }
                    }
                    Event::Message { msg, .. } => self.got.push(msg),
                    _ => {}
                }
            }
            fn dining_state(&self) -> DiningState {
                DiningState::Thinking
            }
        }
        let mut e: Engine<Burst> =
            Engine::new(SimConfig::default(), vec![(0.0, 0.0), (1.0, 0.0)], |_| {
                Burst { got: vec![] }
            });
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 0 },
            },
        );
        e.run_until(SimTime(10_000));
        let got = &e.protocol(NodeId(1)).got;
        assert_eq!(got.len(), 50);
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "FIFO violated: {got:?}"
        );
    }

    #[test]
    fn crashed_node_stops_processing() {
        let mut e = engine2();
        e.crash_at(SimTime(1), NodeId(1));
        e.core.push(
            SimTime(2),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 7 },
            },
        );
        e.run_until(SimTime(1_000));
        assert!(e.protocol(NodeId(1)).received.is_empty());
        assert!(e.world().is_crashed(NodeId(1)));
    }

    #[test]
    fn hungry_and_exit_commands_respect_state_and_session() {
        let mut e = engine2();
        e.set_hungry_at(SimTime(1), NodeId(0));
        e.run_until(SimTime(2));
        assert_eq!(e.dining_state(NodeId(0)), DiningState::Eating);
        // Wrong session: ignored.
        e.schedule(
            SimTime(3),
            Command::ExitCs {
                node: NodeId(0),
                session: 99,
            },
        );
        e.run_until(SimTime(4));
        assert_eq!(e.dining_state(NodeId(0)), DiningState::Eating);
        // Right session (first eating session = 1).
        e.schedule(
            SimTime(5),
            Command::ExitCs {
                node: NodeId(0),
                session: 1,
            },
        );
        e.run_until(SimTime(6));
        assert_eq!(e.dining_state(NodeId(0)), DiningState::Thinking);
    }

    #[test]
    fn teleport_generates_link_events_with_mover_semantics() {
        struct Watcher {
            ups: Vec<(NodeId, LinkUpKind)>,
            downs: Vec<NodeId>,
            move_events: u32,
        }
        impl Protocol for Watcher {
            type Msg = ();
            fn on_event(&mut self, ev: Event<()>, _ctx: &mut Context<'_, ()>) {
                match ev {
                    Event::LinkUp { peer, kind } => self.ups.push((peer, kind)),
                    Event::LinkDown { peer } => self.downs.push(peer),
                    Event::MovementStarted | Event::MovementEnded => self.move_events += 1,
                    _ => {}
                }
            }
            fn dining_state(&self) -> DiningState {
                DiningState::Thinking
            }
        }
        // p0 - p1 linked; p2 isolated far away.
        let mut e: Engine<Watcher> = Engine::new(
            SimConfig::default(),
            vec![(0.0, 0.0), (1.0, 0.0), (100.0, 0.0)],
            |_| Watcher {
                ups: vec![],
                downs: vec![],
                move_events: 0,
            },
        );
        // Teleport p1 next to p2: p1 loses p0, gains p2 as the moving side.
        e.teleport_at(SimTime(5), NodeId(1), (99.0, 0.0));
        e.run_until(SimTime(10));
        assert_eq!(e.protocol(NodeId(0)).downs, vec![NodeId(1)]);
        assert_eq!(
            e.protocol(NodeId(1)).ups,
            vec![(NodeId(2), LinkUpKind::AsMoving)]
        );
        assert_eq!(
            e.protocol(NodeId(2)).ups,
            vec![(NodeId(1), LinkUpKind::AsStatic)]
        );
        assert_eq!(e.protocol(NodeId(1)).move_events, 2); // started + ended
        assert!(e.world().linked(NodeId(1), NodeId(2)));
        assert!(!e.world().linked(NodeId(0), NodeId(1)));
    }

    #[test]
    fn messages_in_flight_die_with_their_link() {
        // Long delays so the message is in flight when the link breaks.
        let mut e: Engine<Echo> = Engine::new(
            SimConfig {
                min_message_delay: 50,
                max_message_delay: 60,
                ..SimConfig::default()
            },
            vec![(0.0, 0.0), (1.0, 0.0)],
            |_| Echo {
                state: DiningState::Thinking,
                received: vec![],
            },
        );
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 9 },
            },
        );
        e.teleport_at(SimTime(5), NodeId(1), (50.0, 0.0));
        e.run_until(SimTime(1_000));
        assert!(e.protocol(NodeId(1)).received.is_empty());
        assert_eq!(e.stats().dropped_in_flight, 1);
        assert_eq!(e.stats().dropped_at_send, 0);
        assert_eq!(e.stats().messages_dropped(), 1);
    }

    #[test]
    fn fifo_floor_does_not_survive_a_link_flap() {
        // Regression: `fifo_last` used to persist across link incarnations,
        // so a burst sent before a flap kept clamping (delaying) messages
        // sent after the reconnect. The floor must die with the link.
        struct Burst {
            got: Vec<(u64, SimTime)>,
        }
        impl Protocol for Burst {
            type Msg = u64;
            fn on_event(&mut self, ev: Event<u64>, ctx: &mut Context<'_, u64>) {
                match ev {
                    Event::Timer { token } => {
                        // A burst of 40 messages: FIFO serialization pushes
                        // the channel's arrival floor far past `now + ν`.
                        if let Some(&n) = ctx.neighbors().first() {
                            for i in 0..40 {
                                ctx.send(n, token + i);
                            }
                        }
                    }
                    Event::Message { msg, .. } => self.got.push((msg, ctx.time())),
                    _ => {}
                }
            }
            fn dining_state(&self) -> DiningState {
                DiningState::Thinking
            }
        }
        let mut e: Engine<Burst> =
            Engine::new(SimConfig::default(), vec![(0.0, 0.0), (1.0, 0.0)], |_| {
                Burst { got: vec![] }
            });
        // t=1: node 0 sends a 40-message burst; the FIFO floor of channel
        // 0→1 climbs to ≥ 40 ticks.
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 0 },
            },
        );
        // t=5: node 1 teleports away (link down, most of the burst dies in
        // flight) and immediately back (link up, fresh incarnation).
        e.teleport_at(SimTime(5), NodeId(1), (50.0, 0.0));
        e.teleport_at(SimTime(6), NodeId(1), (1.0, 0.0));
        e.run_until(SimTime(5_000));
        let floor_before_flap = e
            .protocol(NodeId(1))
            .got
            .iter()
            .map(|&(_, at)| at)
            .max()
            .unwrap_or(SimTime::ZERO);
        // t=100: a single post-reconnect message. With the stale floor it
        // would be clamped to ~t=41+; with epoch-scoped FIFO it arrives
        // within ν of its send time.
        let mut e2 = e;
        e2.core.push(
            SimTime(100),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 1_000 },
            },
        );
        e2.run_until(SimTime(5_000));
        let first_post = e2
            .protocol(NodeId(1))
            .got
            .iter()
            .find(|&&(msg, _)| msg >= 1_000)
            .map(|&(_, at)| at)
            .expect("post-reconnect burst delivered");
        assert!(
            first_post >= SimTime(101) && first_post <= SimTime(100 + 10),
            "post-reconnect message clamped by a dead incarnation's FIFO floor: \
             arrived {first_post:?} (pre-flap floor {floor_before_flap:?})"
        );
        // And the flap actually killed in-flight messages, so the scenario
        // exercises what it claims to.
        assert!(e2.stats().dropped_in_flight > 0);
    }

    #[test]
    fn drop_counters_split_send_races_from_in_flight_losses() {
        // Node 0 replies to every message; node 1 departs while a reply is
        // in flight → in-flight loss. A protocol that sends to a neighbor
        // that vanished within the same handler → at-send loss.
        struct Pinger;
        impl Protocol for Pinger {
            type Msg = u64;
            fn on_event(&mut self, ev: Event<u64>, ctx: &mut Context<'_, u64>) {
                if let Event::Timer { .. } = ev {
                    // Sent unconditionally: if the link is already gone
                    // this is a send-time drop.
                    ctx.send(NodeId(1), 1);
                }
            }
            fn dining_state(&self) -> DiningState {
                DiningState::Thinking
            }
        }
        let mut e: Engine<Pinger> = Engine::new(
            SimConfig {
                min_message_delay: 50,
                max_message_delay: 60,
                ..SimConfig::default()
            },
            vec![(0.0, 0.0), (1.0, 0.0)],
            |_| Pinger,
        );
        // In flight when the link dies at t=10.
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 0 },
            },
        );
        e.teleport_at(SimTime(10), NodeId(1), (50.0, 0.0));
        // Sent after the link is gone: dropped at send.
        e.core.push(
            SimTime(20),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 1 },
            },
        );
        e.run_until(SimTime(1_000));
        let s = e.stats();
        assert_eq!(s.dropped_in_flight, 1, "{s:?}");
        assert_eq!(s.dropped_at_send, 1, "{s:?}");
        assert_eq!(s.messages_dropped(), 2);
        // At-send drops never entered the network, so the ledger is
        // sent = delivered + died-in-flight.
        assert_eq!(s.messages_sent, s.messages_delivered + s.dropped_in_flight);
    }

    #[test]
    fn smooth_movement_reaches_destination_and_churns_links() {
        let mut e = engine2();
        e.schedule(
            SimTime(1),
            Command::StartMove {
                node: NodeId(1),
                dest: Position { x: 10.0, y: 0.0 },
                speed: 0.5,
            },
        );
        e.run_until(SimTime(200));
        assert_eq!(e.world().position(NodeId(1)), Position { x: 10.0, y: 0.0 });
        assert!(!e.world().is_moving(NodeId(1)));
        assert!(!e.world().linked(NodeId(0), NodeId(1)));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut e = engine2();
            e.core.push(
                SimTime(1),
                Item::Proto {
                    node: NodeId(0),
                    ev: Event::Timer { token: 0 },
                },
            );
            e.run_until(SimTime(500));
            (e.stats().clone(), e.trace().to_vec())
        };
        let (s1, t1) = run();
        let (s2, t2) = run();
        assert_eq!(s1, s2);
        assert_eq!(t1, t2);
    }

    /// One-shot sender: on its timer it sends `count` copies of distinct
    /// numbered messages to its first neighbor; never replies.
    struct Sender {
        got: Vec<(u64, SimTime)>,
    }
    impl Protocol for Sender {
        type Msg = u64;
        fn on_event(&mut self, ev: Event<u64>, ctx: &mut Context<'_, u64>) {
            match ev {
                Event::Timer { token } => {
                    if let Some(&n) = ctx.neighbors().first() {
                        for i in 0..(token % 1_000) {
                            ctx.send(n, token + i);
                        }
                    }
                }
                Event::Message { msg, .. } => self.got.push((msg, ctx.time())),
                _ => {}
            }
        }
        fn dining_state(&self) -> DiningState {
            DiningState::Thinking
        }
    }

    fn sender_engine(cfg: SimConfig) -> Engine<Sender> {
        Engine::new(cfg, vec![(0.0, 0.0), (1.0, 0.0)], |_| Sender {
            got: vec![],
        })
    }

    #[test]
    fn fault_drops_never_reach_the_network() {
        use crate::fault::{FaultPlan, LinkFaults};
        let mut e = sender_engine(SimConfig {
            fault: FaultPlan {
                link: Some(LinkFaults {
                    drop: 1.0,
                    ..LinkFaults::default()
                }),
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        });
        // token = 100 → 100 messages, all dropped by the adversary.
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 100 },
            },
        );
        e.run_until(SimTime(1_000));
        let s = e.stats();
        assert_eq!(s.messages_sent, 100);
        assert_eq!(s.faults.msgs_dropped, 100);
        assert_eq!(s.messages_delivered, 0);
        assert_eq!(s.dropped_in_flight, 0);
        assert!(e.protocol(NodeId(1)).got.is_empty());
    }

    #[test]
    fn duplicates_arrive_later_same_payload_and_balance_the_ledger() {
        use crate::fault::{FaultPlan, LinkFaults};
        let mut e = sender_engine(SimConfig {
            fault: FaultPlan {
                link: Some(LinkFaults {
                    duplicate: 1.0,
                    dup_lag: Some(25),
                    ..LinkFaults::default()
                }),
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        });
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 5 },
            },
        );
        e.run_until(SimTime(1_000));
        let s = e.stats();
        assert_eq!(s.messages_sent, 5);
        assert_eq!(s.faults.msgs_duplicated, 5);
        assert_eq!(s.messages_delivered, 10);
        // sent + duplicated = delivered + fault-dropped + died-in-flight.
        assert_eq!(
            s.messages_sent + s.faults.msgs_duplicated,
            s.messages_delivered + s.faults.msgs_dropped + s.dropped_in_flight
        );
        let got = &e.protocol(NodeId(1)).got;
        // Each payload exactly twice, ghost strictly later.
        for i in 5..10 {
            let times: Vec<SimTime> = got
                .iter()
                .filter(|&&(m, _)| m == i)
                .map(|&(_, at)| at)
                .collect();
            assert_eq!(times.len(), 2, "payload {i} delivered {times:?}");
            assert!(times[0] < times[1], "ghost of {i} not strictly later");
        }
    }

    #[test]
    fn skew_and_max_delay_adversary_stretch_delays() {
        use crate::fault::{DelayAdversary, FaultPlan, LinkFaults};
        // Adaptive adversary alone: every delivery takes exactly ν.
        let mut e = sender_engine(SimConfig {
            fault: FaultPlan {
                max_delay: Some(DelayAdversary {
                    targets: vec![NodeId(1)],
                    window: None,
                }),
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        });
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 1 },
            },
        );
        e.run_until(SimTime(1_000));
        assert_eq!(e.stats().faults.max_delay_forced, 1);
        assert_eq!(e.protocol(NodeId(1)).got, vec![(1, SimTime(1 + 10))]);
        // Skew alone: delivery beyond ν of the send instant.
        let mut e = sender_engine(SimConfig {
            fault: FaultPlan {
                link: Some(LinkFaults {
                    skew: 1.0,
                    skew_ticks: 40,
                    ..LinkFaults::default()
                }),
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        });
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 1 },
            },
        );
        e.run_until(SimTime(1_000));
        assert_eq!(e.stats().faults.msgs_delayed, 1);
        let (_, at) = e.protocol(NodeId(1)).got[0];
        assert!(at > SimTime(1 + 10), "skew must exceed ν: {at:?}");
    }

    #[test]
    fn fault_runs_replay_byte_for_byte_from_the_same_seed() {
        use crate::fault::{Burst, FaultPlan, LinkFaults};
        let run = |fault_seed: u64| {
            let mut e = sender_engine(SimConfig {
                trace: true,
                fault: FaultPlan {
                    seed: fault_seed,
                    link: Some(LinkFaults {
                        drop: 0.3,
                        duplicate: 0.3,
                        skew: 0.3,
                        skew_ticks: 15,
                        burst: Some(Burst {
                            period: 50,
                            active: 20,
                            factor: 2.0,
                        }),
                        ..LinkFaults::default()
                    }),
                    ..FaultPlan::default()
                },
                ..SimConfig::default()
            });
            for t in 0..20 {
                e.core.push(
                    SimTime(1 + t * 7),
                    Item::Proto {
                        node: NodeId(0),
                        ev: Event::Timer { token: 10 },
                    },
                );
            }
            e.run_until(SimTime(2_000));
            (e.stats().clone(), e.trace().to_vec())
        };
        let (s1, t1) = run(42);
        let (s2, t2) = run(42);
        assert_eq!(s1, s2);
        assert_eq!(t1, t2);
        assert!(s1.faults.total() > 0, "plan injected nothing: {s1:?}");
        // A different fault seed explores a different schedule.
        let (s3, _) = run(43);
        assert_ne!(s1.faults, s3.faults);
    }

    #[test]
    fn empty_plan_with_nonzero_seed_changes_nothing() {
        use crate::fault::FaultPlan;
        let run = |fault_seed: u64| {
            let mut e = sender_engine(SimConfig {
                trace: true,
                fault: FaultPlan {
                    seed: fault_seed,
                    ..FaultPlan::default()
                },
                ..SimConfig::default()
            });
            e.core.push(
                SimTime(1),
                Item::Proto {
                    node: NodeId(0),
                    ev: Event::Timer { token: 30 },
                },
            );
            e.run_until(SimTime(2_000));
            (e.stats().clone(), e.trace().to_vec())
        };
        // The fault RNG is never consulted when the plan is empty, so its
        // seed is irrelevant: the engine's own stream decides everything.
        assert_eq!(run(0), run(12_345));
    }

    #[test]
    fn partition_heal_cycle_behaves_like_fresh_link_incarnations() {
        // Satellite of the fault-injection issue, extending the teleport
        // FIFO regression: a healed partition must not resurrect the dead
        // incarnation's FIFO floors or its in-flight messages.
        use crate::fault::{FaultPlan, PartitionWindow};
        let mut e = sender_engine(SimConfig {
            trace: true,
            fault: FaultPlan {
                partitions: vec![PartitionWindow {
                    at: 5,
                    side: vec![NodeId(1)],
                    heal_after: 30,
                }],
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        });
        // t=1: a 40-message burst pushes the 0→1 FIFO floor past t=40.
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 40 },
            },
        );
        // t=100 (after the t=35 heal): a single probe message.
        e.core.push(
            SimTime(100),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 1_001 },
            },
        );
        e.run_until(SimTime(2_000));
        let s = e.stats();
        assert_eq!(s.faults.partitions, 1);
        assert_eq!(s.faults.heals, 1);
        assert!(
            s.dropped_in_flight > 0,
            "the cut must kill the in-flight burst: {s:?}"
        );
        let probe_at = e
            .protocol(NodeId(1))
            .got
            .iter()
            .find(|&&(m, _)| m >= 1_000)
            .map(|&(_, at)| at)
            .expect("post-heal message delivered");
        assert!(
            probe_at > SimTime(100) && probe_at <= SimTime(110),
            "post-heal message clamped by a dead incarnation's FIFO floor: {probe_at:?}"
        );
        // The healed link is a fresh incarnation: LinkUp with the
        // partitioned side (node 1) as the moving side.
        assert!(e
            .trace()
            .iter()
            .any(|t| t.kind == TraceKind::LinkUp(NodeId(0), NodeId(1)) && t.at == SimTime(35)));
        assert!(e
            .trace()
            .iter()
            .any(|t| t.kind == TraceKind::LinkDown(NodeId(0), NodeId(1)) && t.at == SimTime(5)));
    }

    #[test]
    fn crash_waves_fire_on_schedule() {
        use crate::fault::{CrashWave, FaultPlan};
        let mut e: Engine<Echo> = Engine::new(
            SimConfig {
                fault: FaultPlan {
                    crash_waves: vec![CrashWave {
                        at: 50,
                        nodes: vec![NodeId(0), NodeId(1)],
                    }],
                    ..FaultPlan::default()
                },
                ..SimConfig::default()
            },
            vec![(0.0, 0.0), (1.0, 0.0)],
            |_| Echo {
                state: DiningState::Thinking,
                received: vec![],
            },
        );
        e.run_until(SimTime(40));
        assert!(!e.world().is_crashed(NodeId(0)));
        e.run_until(SimTime(60));
        assert!(e.world().is_crashed(NodeId(0)));
        assert!(e.world().is_crashed(NodeId(1)));
        assert_eq!(e.stats().faults.crashes_injected, 2);
    }

    #[test]
    fn strategy_picks_delays_and_deliver_traces_carry_kind_and_seq() {
        struct AlwaysLatest;
        impl Strategy for AlwaysLatest {
            fn choose_delay(&mut self, c: &DeliveryChoice) -> u64 {
                c.latest
            }
        }
        let mut e = engine2();
        e.set_strategy(Box::new(AlwaysLatest));
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 0 },
            },
        );
        e.run_until(SimTime(1_000));
        assert_eq!(e.pending_events(), 0, "run must reach quiescence");
        let delivers: Vec<(SimTime, NodeId, u64)> = e
            .trace()
            .iter()
            .filter_map(|t| match t.kind {
                TraceKind::Deliver {
                    from, kind, seq, ..
                } => {
                    assert_eq!(kind, "msg", "Echo uses the default label");
                    Some((t.at, from, seq))
                }
                _ => None,
            })
            .collect();
        // Ping-pong of 4 messages, each delivered exactly ν after its send:
        // t = 11, 21, 31, 41.
        assert_eq!(
            delivers.iter().map(|&(at, _, _)| at).collect::<Vec<_>>(),
            vec![SimTime(11), SimTime(21), SimTime(31), SimTime(41)]
        );
        // Per-directed-channel numbering: each channel carries 2 messages.
        assert_eq!(
            delivers
                .iter()
                .map(|&(_, from, seq)| (from, seq))
                .collect::<Vec<_>>(),
            vec![
                (NodeId(0), 1),
                (NodeId(1), 1),
                (NodeId(0), 2),
                (NodeId(1), 2)
            ]
        );
    }

    #[test]
    fn random_delay_strategy_replays_from_its_seed() {
        let run = |seed: u64| {
            let mut e = engine2();
            e.set_strategy(Box::new(crate::sched::RandomDelays::new(seed)));
            e.core.push(
                SimTime(1),
                Item::Proto {
                    node: NodeId(0),
                    ev: Event::Timer { token: 0 },
                },
            );
            e.run_until(SimTime(1_000));
            (e.stats().clone(), e.trace().to_vec())
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn malformed_replay_schedule_is_rejected_not_reordered() {
        // Regression: a delay below the legal window used to be clamped
        // silently, so a corrupt imported schedule replayed as a *different*
        // run that still claimed conformance. It must abort instead.
        let mut s = crate::sched::ImportedSchedule::new(5);
        s.push(NodeId(0), NodeId(1), 0); // below min_message_delay = 1
        let mut e = engine2();
        e.set_strategy(Box::new(s));
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 0 },
            },
        );
        let reached = e.run_until(SimTime(1_000));
        assert_eq!(
            e.abort(),
            Some(&RunAbort::DelayOutOfWindow {
                channel: "strategy",
                from: NodeId(0),
                to: NodeId(1),
                delay: 0,
                earliest: 1,
                latest: 10,
            })
        );
        assert!(reached < SimTime(1_000), "run must stop early");
        // The abort is sticky: nothing further dispatches.
        let events = e.stats().events;
        e.run_until(SimTime(2_000));
        assert_eq!(e.stats().events, events);
        // And a delay above ν is rejected the same way.
        let mut s = crate::sched::ImportedSchedule::new(5);
        s.push(NodeId(0), NodeId(1), 99);
        let mut e = engine2();
        e.set_strategy(Box::new(s));
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 0 },
            },
        );
        e.run_until(SimTime(1_000));
        assert!(matches!(
            e.abort(),
            Some(&RunAbort::DelayOutOfWindow { delay: 99, .. })
        ));
        // In-window schedules still run to quiescence with no abort.
        let mut s = crate::sched::ImportedSchedule::new(5);
        s.push(NodeId(0), NodeId(1), 3);
        let mut e = engine2();
        e.set_strategy(Box::new(s));
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 0 },
            },
        );
        e.run_until(SimTime(1_000));
        assert_eq!(e.abort(), None);
        assert_eq!(e.pending_events(), 0);
    }

    #[test]
    fn event_budget_overrun_aborts_instead_of_panicking() {
        // Echo ping-pong is finite, so drive an infinite timer loop.
        struct Ticker;
        impl Protocol for Ticker {
            type Msg = ();
            fn on_event(&mut self, ev: Event<()>, ctx: &mut Context<'_, ()>) {
                if let Event::Timer { token } = ev {
                    ctx.set_timer(1, token);
                }
            }
            fn dining_state(&self) -> DiningState {
                DiningState::Thinking
            }
        }
        let mut e: Engine<Ticker> = Engine::new(
            SimConfig {
                max_events: 100,
                ..SimConfig::default()
            },
            vec![(0.0, 0.0)],
            |_| Ticker,
        );
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 0 },
            },
        );
        e.run_until(SimTime(1_000_000));
        assert_eq!(
            e.abort(),
            Some(&RunAbort::EventBudgetExceeded { limit: 100 })
        );
        // Exactly the budget is dispatched — the boundary the old panic
        // enforced — and the engine stays inspectable and inert.
        assert_eq!(e.stats().events, 100);
        e.run_until(SimTime(2_000_000));
        assert_eq!(e.stats().events, 100);
        assert!(e.abort().unwrap().to_string().contains("livelock"));
    }

    #[test]
    fn quantum_end_hook_fires_between_instants() {
        use std::cell::RefCell;
        use std::rc::Rc;
        struct Q(Rc<RefCell<Vec<SimTime>>>);
        impl Hook<u64> for Q {
            fn on_quantum_end(&mut self, view: &View<'_>, _sink: &mut Sink) {
                self.0.borrow_mut().push(view.time());
            }
        }
        let log = Rc::new(RefCell::new(vec![]));
        let mut e = engine2();
        e.add_hook(Box::new(Q(log.clone())));
        e.set_hungry_at(SimTime(3), NodeId(0));
        e.set_hungry_at(SimTime(7), NodeId(1));
        e.run_until(SimTime(10));
        let log = log.borrow();
        assert!(
            log.contains(&SimTime(3)) && log.contains(&SimTime(7)),
            "{log:?}"
        );
        // Monotone, no duplicates of the same instant in a row beyond re-opens.
        assert!(log.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn shim_window_overflow_is_a_structured_abort() {
        // The peer is crashed (silently: its link stays up), so nothing is
        // ever acknowledged and every frame stays buffered.
        let run = |frames: u64| {
            let mut e = sender_engine(SimConfig {
                arq: Some(crate::ArqConfig::default()),
                ..SimConfig::default()
            });
            e.crash_at(SimTime(0), NodeId(1));
            e.core.push(
                SimTime(1),
                Item::Proto {
                    node: NodeId(0),
                    ev: Event::Timer { token: frames },
                },
            );
            e.run_until(SimTime(100_000));
            (e.abort().cloned(), e.stats().shim.buffer_high_water)
        };
        assert_eq!(run(64), (None, 64), "a full window is not an overflow");
        assert_eq!(
            run(65),
            (
                Some(RunAbort::ShimBufferOverflow {
                    from: NodeId(0),
                    to: NodeId(1),
                    window: 64,
                }),
                64
            )
        );
    }

    #[test]
    fn per_link_state_is_linear_in_links_at_twenty_thousand_nodes() {
        /// Every node sends to each neighbor once per period.
        struct Chatter;
        impl Protocol for Chatter {
            type Msg = u64;
            fn on_event(&mut self, ev: Event<u64>, ctx: &mut Context<'_, u64>) {
                if let Event::Timer { token } = ev {
                    for peer in ctx.neighbors().to_vec() {
                        ctx.send(peer, token);
                    }
                    ctx.set_timer(60, token + 1);
                }
            }
            fn dining_state(&self) -> DiningState {
                DiningState::Thinking
            }
        }
        const N: u32 = 20_000;
        let ring: Vec<(u32, u32)> = (0..N).map(|i| (i, (i + 1) % N)).collect();
        let cfg = SimConfig {
            arq: Some(crate::ArqConfig::default()),
            channel: crate::ChannelConfig::burst_loss_default(),
            ..SimConfig::default()
        };
        let mut e: Engine<Chatter> = Engine::new_graph(cfg, N as usize, &ring, |_| Chatter);
        for i in 0..N {
            e.core.push(
                SimTime(1),
                Item::Proto {
                    node: NodeId(i),
                    ev: Event::Timer { token: 0 },
                },
            );
        }
        e.run_until(SimTime(200));
        assert_eq!(e.abort(), None);
        assert!(e.stats().shim.retransmissions > 0 && e.stats().channel.frames_lost > 0);
        // At most one record per directed link in every store — the dense
        // tables these replaced held N² slots each.
        let directed = 2 * ring.len();
        let shim = e.core.shim.as_ref().unwrap();
        let (fifo, chains) = e.core.link.records();
        let lens = [fifo, shim.links.len(), chains];
        for len in lens {
            assert!(len > directed / 2 && len <= directed, "{lens:?}");
        }
    }
}
