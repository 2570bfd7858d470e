//! The live runtime: one OS thread per node, real transports, and a
//! driver that injects mobility and faults by the same rules the
//! simulator uses.
//!
//! Each node thread owns one protocol automaton (`sim::Protocol` — the
//! *same* state machines the deterministic engine runs), one transport
//! endpoint, and a self-driven workload clocked by a per-node [`SimRng`].
//! The thread loop is: drain control messages from the driver, fire due
//! workload/timer deadlines, then block briefly on the transport. Wall
//! time divided by `tick_ns` plays the role of virtual time in the
//! `Context` handed to the automaton.
//!
//! The driver (the calling thread) owns the mirror [`World`]: it
//! teleports nodes along the configured waypoints, translates the
//! resulting [`LinkChange`]s into per-node control events with the
//! engine's static/moving symmetry breaking, and injects crashes and
//! partitions by flipping the [`LinkGate`] — severing transports without
//! telling the protocols, exactly like the simulator's fault adversary.
//!
//! Everything observable lands in a [`LiveTrace`] (see [`crate::trace`])
//! which is validated by the harness safety monitor and exportable as a
//! simulator schedule.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use baselines::ChandyMisra;
use coloring::LinialSchedule;
use harness::Violation;
use local_mutex::{Algorithm1, Algorithm2};
use manet_sim::{
    Context, DiningState, Event, LinkChange, LinkUpKind, NodeId, NodeSeed, Position, Protocol,
    SimConfig, SimRng, SimTime, World,
};

use std::collections::VecDeque;

use crate::codec::{decode_frame, encode_frame, WireMsg};
use crate::trace::{LiveEventKind, LiveRecord, LiveTrace};
use crate::transport::{
    decode_envelope, encode_envelope, mpsc_mesh, udp_mesh, LinkGate, Transport, TransportKind,
    ENV_ACK, ENV_DATA,
};

/// Which protocol a live run hosts.
///
/// The set is the thread-safe subset of [`harness::AlgKind`]:
/// `choy-singh` shares its coloring via `Rc` and cannot cross threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LiveAlg {
    /// Algorithm 1 with the greedy doorway coloring.
    A1Greedy,
    /// Algorithm 1 with the Linial-schedule coloring.
    A1Linial,
    /// Algorithm 1 with the randomized recoloring doorway. The `SimRng`
    /// choice state stays node-local; only the recoloring messages cross
    /// the wire, and those have a codec, so the algorithm is fully
    /// live-capable.
    A1Random,
    /// Algorithm 2 (doorway-free).
    A2,
    /// The Chandy–Misra baseline.
    ChandyMisra,
}

impl LiveAlg {
    /// All live-capable algorithms, in canonical order.
    pub fn all() -> [LiveAlg; 5] {
        [
            LiveAlg::A1Greedy,
            LiveAlg::A1Linial,
            LiveAlg::A1Random,
            LiveAlg::A2,
            LiveAlg::ChandyMisra,
        ]
    }

    /// Canonical name (also the `--alg` flag value).
    pub fn name(self) -> &'static str {
        match self {
            LiveAlg::A1Greedy => "A1-greedy",
            LiveAlg::A1Linial => "A1-linial",
            LiveAlg::A1Random => "A1-random",
            LiveAlg::A2 => "A2",
            LiveAlg::ChandyMisra => "chandy-misra",
        }
    }

    /// Parse an `--alg` flag value (case-insensitive).
    pub fn parse(s: &str) -> Result<LiveAlg, String> {
        match s.to_ascii_lowercase().as_str() {
            "a1-greedy" => Ok(LiveAlg::A1Greedy),
            "a1-linial" => Ok(LiveAlg::A1Linial),
            "a1-random" => Ok(LiveAlg::A1Random),
            "a2" => Ok(LiveAlg::A2),
            "chandy-misra" => Ok(LiveAlg::ChandyMisra),
            other => Err(format!(
                "unknown live algorithm '{other}'; live runs support \
                 A1-greedy, A1-linial, A1-random, A2, chandy-misra"
            )),
        }
    }

    /// The corresponding simulator algorithm (for conformance replay).
    pub fn as_alg_kind(self) -> harness::AlgKind {
        match self {
            LiveAlg::A1Greedy => harness::AlgKind::A1Greedy,
            LiveAlg::A1Linial => harness::AlgKind::A1Linial,
            LiveAlg::A1Random => harness::AlgKind::A1Random,
            LiveAlg::A2 => harness::AlgKind::A2,
            LiveAlg::ChandyMisra => harness::AlgKind::ChandyMisra,
        }
    }
}

/// Which execution engine hosts the nodes of a live run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LiveRuntime {
    /// One OS thread per node — faithful, simple, caps out at hundreds
    /// of nodes.
    ThreadPerNode,
    /// A fixed worker pool owning contiguous node shards (see
    /// [`crate::shard`]); scales to tens of thousands of nodes.
    Sharded {
        /// Worker-pool size; 0 picks the host parallelism (min 2).
        workers: usize,
    },
}

impl LiveRuntime {
    /// Canonical name (also the `--runtime` flag value).
    pub fn name(self) -> &'static str {
        match self {
            LiveRuntime::ThreadPerNode => "thread-per-node",
            LiveRuntime::Sharded { .. } => "sharded",
        }
    }

    /// Parse a `--runtime` flag value (case-insensitive). `sharded`
    /// starts with `workers: 0` (auto); set the field for an explicit
    /// pool size.
    pub fn parse(s: &str) -> Result<LiveRuntime, String> {
        match s.to_ascii_lowercase().as_str() {
            "thread-per-node" | "thread" | "threads" => Ok(LiveRuntime::ThreadPerNode),
            "sharded" => Ok(LiveRuntime::Sharded { workers: 0 }),
            other => Err(format!(
                "unknown live runtime '{other}'; expected thread-per-node or sharded"
            )),
        }
    }
}

/// Everything that defines one live run.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Which protocol to host.
    pub alg: LiveAlg,
    /// Which transport carries the frames.
    pub transport: TransportKind,
    /// Node positions; links follow the unit-disk rule with the
    /// simulator's default radio range.
    pub positions: Vec<(f64, f64)>,
    /// Wall-clock run length in milliseconds.
    pub duration_ms: u64,
    /// Mean hungry-cycle rate per node, in cycles per second.
    pub rate: f64,
    /// Eating time per session in milliseconds (must fit under τ ticks).
    pub eat_ms: u64,
    /// One hungry cycle per node instead of a cyclic workload. The run
    /// ends early once every node has eaten (plus a drain window), which
    /// is what makes the eating census schedule-independent — the
    /// property the conformance replay asserts on.
    pub one_shot: bool,
    /// Seed for the per-node workload RNGs.
    pub seed: u64,
    /// Wall nanoseconds per virtual tick (the live analogue of the
    /// simulator quantum; ν = 10 ticks of this).
    pub tick_ns: u64,
    /// Crash `(node, at_ms)`: sever every adjacent transport and stop the
    /// node's thread from processing anything but shutdown.
    pub crash: Option<(u32, u64)>,
    /// Recover `(node, at_ms)`: restart the crashed node as a fresh
    /// protocol incarnation, heal its transports, and rejoin it to its
    /// neighbors with link flaps — the live mirror of the simulator's
    /// `Command::Recover`. Requires a matching `crash` of the same node at
    /// an earlier time.
    pub recover: Option<(u32, u64)>,
    /// Arm the per-link reliable-delivery shim: go-back-N retransmission
    /// with capped exponential backoff, cumulative acks piggybacked on
    /// data frames, and standalone acks after an idle timeout — the live
    /// mirror of `manet_sim::ArqConfig`.
    pub reliable: bool,
    /// Partition `(side, at_ms, heal_ms)`: silently sever every link
    /// between `side` and its complement for the window.
    pub partition: Option<(Vec<u32>, u64, u64)>,
    /// Teleport waypoints `(at_ms, node, destination)`.
    pub moves: Vec<(u64, u32, (f64, f64))>,
    /// Which execution engine hosts the nodes.
    pub runtime: LiveRuntime,
    /// Closed-loop workload: a node goes hungry again immediately after
    /// eating instead of drawing a think time, so throughput is set by
    /// the protocol and the runtime, not by the open-loop rate limiter.
    pub closed_loop: bool,
}

impl LiveConfig {
    /// A config with the standard knobs: 2 s runs, 25 hungry cycles per
    /// node-second, 2 ms meals, 0.1 ms ticks (so ν = 10 ticks = 1 ms of
    /// wall time).
    pub fn new(alg: LiveAlg, transport: TransportKind, positions: Vec<(f64, f64)>) -> LiveConfig {
        LiveConfig {
            alg,
            transport,
            positions,
            duration_ms: 2_000,
            rate: 25.0,
            eat_ms: 2,
            one_shot: false,
            seed: 0xA77D_2008,
            tick_ns: 100_000,
            crash: None,
            recover: None,
            partition: None,
            moves: Vec::new(),
            reliable: false,
            runtime: LiveRuntime::ThreadPerNode,
            closed_loop: false,
        }
    }

    fn validate(&self) -> Result<(), String> {
        let n = self.positions.len();
        if n == 0 {
            return Err("live run needs at least one node".into());
        }
        if self.rate <= 0.0 || !self.rate.is_finite() {
            return Err(format!(
                "--rate must be a positive number, got {}",
                self.rate
            ));
        }
        if self.tick_ns == 0 {
            return Err("tick_ns must be positive".into());
        }
        let tau_ns = SimConfig::default().max_eating_ticks * self.tick_ns;
        if self.eat_ms.saturating_mul(1_000_000) > tau_ns {
            return Err(format!(
                "--eat-ms {} exceeds τ ({} ms at the configured tick)",
                self.eat_ms,
                tau_ns / 1_000_000
            ));
        }
        for &(_, node, _) in &self.moves {
            if node as usize >= n {
                return Err(format!("move targets node {node}, but n = {n}"));
            }
        }
        if let Some((victim, _)) = self.crash {
            if victim as usize >= n {
                return Err(format!("crash targets node {victim}, but n = {n}"));
            }
        }
        if let Some((node, at_ms)) = self.recover {
            match self.crash {
                Some((victim, crash_ms)) if victim == node && at_ms > crash_ms => {}
                Some((victim, _)) if victim != node => {
                    return Err(format!(
                        "recover targets node {node}, but the crash targets {victim}"
                    ));
                }
                Some(_) => return Err("recover must come after the crash".into()),
                None => return Err("recover needs a preceding crash".into()),
            }
        }
        if let Some((side, at, heal)) = &self.partition {
            if heal <= at {
                return Err("partition must heal after it starts".into());
            }
            if let Some(&bad) = side.iter().find(|&&m| m as usize >= n) {
                return Err(format!("partition side contains node {bad}, but n = {n}"));
            }
        }
        if self.reliable && matches!(self.runtime, LiveRuntime::Sharded { .. }) {
            return Err("--reliable is not supported by the sharded runtime; \
                 use --runtime thread-per-node for the ARQ shim"
                .into());
        }
        Ok(())
    }
}

/// What one live run produced.
#[derive(Debug)]
pub struct LiveOutcome {
    /// The totally-ordered trace (already sorted).
    pub trace: LiveTrace,
    /// Eating sessions entered, per node.
    pub meals: Vec<u64>,
    /// Pooled hungry→eating latencies in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Safety violations found by replaying the trace into the harness
    /// safety core (empty = the run was safe).
    pub violations: Vec<Violation>,
    /// Envelopes handed to transports.
    pub messages_sent: u64,
    /// Envelopes decoded and delivered to protocols.
    pub messages_delivered: u64,
    /// Envelopes or frames that failed to decode (0 on healthy transports).
    pub decode_errors: u64,
    /// Transport send calls that returned an error (0 on healthy
    /// transports; previously these failures were swallowed invisibly).
    pub send_failures: u64,
    /// Data frames retransmitted by the reliable shim (0 with
    /// `reliable: false`).
    pub retransmissions: u64,
    /// Standalone acknowledgment frames sent by the reliable shim.
    pub acks_sent: u64,
    /// Crash recoveries executed by the driver.
    pub recoveries: u64,
    /// Wall-clock length of the run in milliseconds.
    pub elapsed_ms: u64,
    /// Milliseconds from the end of the run (every node joined, where
    /// `elapsed_ms` stops) until `violations` was known: trace merge or
    /// sort plus the safety replay.
    pub verdict_ms: u64,
    /// Node threads that exited cleanly (always `n` on success).
    pub threads_joined: usize,
}

impl LiveOutcome {
    /// Total eating sessions across all nodes.
    pub fn total_meals(&self) -> u64 {
        self.meals.iter().sum()
    }

    /// Throughput: eating sessions per wall-clock second.
    pub fn sessions_per_sec(&self) -> f64 {
        let secs = self.elapsed_ms.max(1) as f64 / 1_000.0;
        self.total_meals() as f64 / secs
    }
}

/// State shared by the driver and every node thread.
struct Shared {
    origin: Instant,
    order: AtomicU64,
    gate: LinkGate,
    sent: AtomicU64,
    delivered: AtomicU64,
    decode_errors: AtomicU64,
    send_failures: AtomicU64,
    retransmissions: AtomicU64,
    acks_sent: AtomicU64,
    /// Nodes that have eaten at least once (one-shot early stop).
    ate: AtomicU64,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn ticket(&self) -> u64 {
        self.order.fetch_add(1, Ordering::Relaxed)
    }
}

/// Driver → node control plane. Kept separate from the data plane so
/// topology changes and shutdown cannot be lost to a severed transport.
/// Shared with the sharded runtime, whose workers apply the same events
/// to their owned nodes.
pub(crate) enum Ctrl {
    LinkUp { peer: NodeId, kind: LinkUpKind },
    LinkDown { peer: NodeId },
    MoveStarted,
    MoveEnded,
    Crash,
    Recover,
    Shutdown,
}

/// Reliable-shim sender state for one directed link: the unacknowledged
/// frame buffer (go-back-N) and its retransmission timer.
#[derive(Clone, Default)]
struct ArqSend {
    /// Buffered `(seq, frame)` pairs awaiting acknowledgment.
    buf: VecDeque<(u64, Vec<u8>)>,
    /// Wall deadline of the armed retransmission timer.
    rto_at: Option<u64>,
    /// Consecutive silent timeouts (drives the backoff and the give-up).
    attempts: u32,
}

/// Reliable-shim receiver state for one directed link.
#[derive(Clone, Copy, Default)]
struct ArqRecv {
    /// Next in-order sequence expected; 0 = resynchronize on the next
    /// frame (link incarnations reset here, and live envelope sequence
    /// numbers start at 1, so 0 is free as the sentinel).
    next: u64,
    /// A cumulative ack is owed to the peer.
    ack_owed: bool,
    /// Wall deadline of the armed standalone-ack idle timer.
    ack_at: Option<u64>,
}

/// Per-node immutable parameters.
struct NodeParams {
    me: NodeId,
    neighbors: Vec<NodeId>,
    n: usize,
    seed: u64,
    tick_ns: u64,
    rate: f64,
    eat_ns: u64,
    one_shot: bool,
    closed_loop: bool,
    reliable: bool,
}

/// The mutable heart of one node thread.
struct NodeCore<P: Protocol> {
    me: NodeId,
    tick_ns: u64,
    eat_ns: u64,
    one_shot: bool,
    closed_loop: bool,
    mean_think_ns: u64,
    rng: SimRng,
    proto: P,
    neighbors: Vec<NodeId>,
    moving: bool,
    crashed: bool,
    dining: DiningState,
    session: u64,
    ate_once: bool,
    send_seq: Vec<u64>,
    /// `(deadline_ns, token)` pairs from `Context::set_timer`.
    timers: Vec<(u64, u64)>,
    next_hungry: Option<u64>,
    exit_at: Option<u64>,
    outbox: Vec<(NodeId, P::Msg)>,
    timer_buf: Vec<(u64, u64)>,
    /// Reliable shim armed (`LiveConfig::reliable`).
    reliable: bool,
    /// ν in wall nanoseconds (the sim's delay bound times `tick_ns`).
    nu_ns: u64,
    /// Per-peer sender shim state (indexed by peer, empty when off).
    arq_send: Vec<ArqSend>,
    /// Per-peer receiver shim state.
    arq_recv: Vec<ArqRecv>,
    /// Fresh protocol instance swapped in on `Ctrl::Recover`.
    spare: Option<P>,
    // Per-node counters behind the shutdown NetStats record.
    n_decode_errors: u64,
    n_send_failures: u64,
    n_retransmissions: u64,
    n_acks_sent: u64,
    shared: Arc<Shared>,
    out: Sender<LiveRecord>,
}

/// Give up retransmitting to a silent peer after this many consecutive
/// timeouts (a crashed neighbor never acks; its links stay up).
const ARQ_MAX_RETRIES: u32 = 16;

impl<P> NodeCore<P>
where
    P: Protocol,
    P::Msg: WireMsg,
{
    fn record(&self, kind: LiveEventKind) {
        let at_ns = self.shared.now_ns();
        let order = self.shared.ticket();
        let _ = self.out.send(LiveRecord { at_ns, order, kind });
    }

    /// Feed one event to the automaton, flush what it emitted, and do the
    /// workload bookkeeping for any dining transition.
    fn apply(&mut self, ev: Event<P::Msg>, transport: &mut dyn Transport) {
        let now = self.shared.now_ns();
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
        for (delay_ticks, token) in std::mem::take(&mut self.timer_buf) {
            self.timers
                .push((now + delay_ticks.saturating_mul(self.tick_ns), token));
        }
        // Record any dining transition BEFORE transmitting the messages
        // that announce it. A send is a wakeup point: the receiver thread
        // can run the whole delivery path (and take trace tickets) before
        // this thread gets the CPU back, and a fork handover recorded
        // send-first would read as two neighbors eating at once. Ticketing
        // the transition first pins exit < send < deliver < entry in the
        // total order.
        let new = self.proto.dining_state();
        let old = self.dining;
        if new != old {
            self.dining = new;
            if new == DiningState::Eating {
                self.session += 1;
                self.exit_at = Some(self.shared.now_ns() + self.eat_ns);
                if !self.ate_once {
                    self.ate_once = true;
                    self.shared.ate.fetch_add(1, Ordering::Relaxed);
                }
            }
            if old == DiningState::Eating {
                // Covers both a normal exit and a mobility demotion back to
                // hungry: either way the meal is over.
                self.exit_at = None;
                if new == DiningState::Thinking && !self.one_shot {
                    let think = if self.closed_loop {
                        0
                    } else {
                        self.draw_think()
                    };
                    self.next_hungry = Some(self.shared.now_ns() + think);
                }
            }
            self.record(LiveEventKind::State {
                node: self.me,
                old,
                new,
                session: self.session,
            });
        }
        for (to, msg) in std::mem::take(&mut self.outbox) {
            self.transmit(to, msg, transport);
        }
    }

    fn draw_think(&mut self) -> u64 {
        // Uniform in [0.5, 1.5] of the mean, like the sim workload's
        // jittered think times.
        let lo = (self.mean_think_ns / 2).max(1);
        let hi = lo + self.mean_think_ns;
        self.rng.gen_range(lo..=hi)
    }

    /// Push one already-framed envelope onto the wire, counting (not
    /// swallowing) transport failures.
    fn raw_send(
        &mut self,
        to: NodeId,
        kind: u8,
        seq: u64,
        ack: u64,
        frame: &[u8],
        transport: &mut dyn Transport,
    ) {
        let env = encode_envelope(self.me, kind, seq, ack, self.shared.now_ns(), frame);
        if transport.send(to, &env).is_err() {
            self.n_send_failures += 1;
            self.shared.send_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The cumulative ack to piggyback on traffic toward `to` (clears the
    /// owed flag and the standalone-ack timer; 0 when nothing to ack).
    fn take_piggyback_ack(&mut self, to: NodeId) -> u64 {
        if !self.reliable {
            return 0;
        }
        let slot = &mut self.arq_recv[to.index()];
        slot.ack_owed = false;
        slot.ack_at = None;
        slot.next.saturating_sub(1)
    }

    /// Backoff delay before the next retransmission, with jitter.
    fn arq_backoff(&mut self, attempts: u32) -> u64 {
        let init = (2 * self.nu_ns).max(1);
        let cap = 16 * self.nu_ns;
        let base = init
            .checked_shl(attempts.min(32))
            .unwrap_or(u64::MAX)
            .min(cap.max(init));
        base + self.rng.gen_range(0..=init / 4)
    }

    /// Apply a cumulative ack from `peer` to the send buffer toward it.
    fn apply_ack(&mut self, peer: NodeId, ack: u64) {
        if !self.reliable || ack == 0 {
            return;
        }
        let slot = &mut self.arq_send[peer.index()];
        let before = slot.buf.len();
        while slot.buf.front().is_some_and(|&(seq, _)| seq <= ack) {
            slot.buf.pop_front();
        }
        if slot.buf.len() == before {
            return;
        }
        slot.attempts = 0;
        if slot.buf.is_empty() {
            slot.rto_at = None;
        } else {
            let at = self.shared.now_ns() + self.arq_backoff(0);
            self.arq_send[peer.index()].rto_at = Some(at);
        }
    }

    fn transmit(&mut self, to: NodeId, msg: P::Msg, transport: &mut dyn Transport) {
        if self.crashed || to == self.me || !self.neighbors.contains(&to) {
            return;
        }
        if self.shared.gate.is_severed(self.me, to) {
            // Severed at send time: the message dies silently, exactly like
            // the engine's `dropped_at_send`.
            return;
        }
        let seq = &mut self.send_seq[to.index()];
        *seq += 1;
        let seq = *seq;
        let frame = encode_frame(&msg);
        let ack = self.take_piggyback_ack(to);
        if self.reliable {
            let slot = &mut self.arq_send[to.index()];
            slot.buf.push_back((seq, frame.clone()));
            if slot.rto_at.is_none() {
                let at = self.shared.now_ns() + self.arq_backoff(0);
                self.arq_send[to.index()].rto_at = Some(at);
            }
        }
        self.raw_send(to, ENV_DATA, seq, ack, &frame, transport);
        self.shared.sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Fire a due retransmission timer toward `peer`: resend every
    /// buffered frame (go-back-N), double the backoff, and give up on a
    /// peer that stayed silent through [`ARQ_MAX_RETRIES`] timeouts.
    fn fire_rto(&mut self, peer: NodeId, transport: &mut dyn Transport) {
        let slot = &mut self.arq_send[peer.index()];
        slot.rto_at = None;
        if slot.buf.is_empty() {
            return;
        }
        slot.attempts += 1;
        if slot.attempts > ARQ_MAX_RETRIES {
            // The peer is gone (crashed, or the link died without notice):
            // stop retransmitting so the timer load stays bounded. A later
            // link flap resynchronizes both ends.
            slot.buf.clear();
            slot.attempts = 0;
            return;
        }
        let attempts = slot.attempts;
        let frames: Vec<(u64, Vec<u8>)> = slot.buf.iter().cloned().collect();
        if self.shared.gate.is_severed(self.me, peer) || !self.neighbors.contains(&peer) {
            // Keep backing off while the path is dark; frames stay buffered.
            let at = self.shared.now_ns() + self.arq_backoff(attempts);
            self.arq_send[peer.index()].rto_at = Some(at);
            return;
        }
        self.n_retransmissions += frames.len() as u64;
        self.shared
            .retransmissions
            .fetch_add(frames.len() as u64, Ordering::Relaxed);
        let ack = self.take_piggyback_ack(peer);
        for (seq, frame) in &frames {
            self.raw_send(peer, ENV_DATA, *seq, ack, frame, transport);
        }
        let at = self.shared.now_ns() + self.arq_backoff(attempts);
        self.arq_send[peer.index()].rto_at = Some(at);
    }

    /// Fire a due standalone-ack timer: the link toward `peer` has been
    /// idle since traffic arrived, so the owed cumulative ack gets its own
    /// frame.
    fn fire_ack_idle(&mut self, peer: NodeId, transport: &mut dyn Transport) {
        let slot = &mut self.arq_recv[peer.index()];
        slot.ack_at = None;
        if !slot.ack_owed {
            return;
        }
        slot.ack_owed = false;
        let ack = slot.next.saturating_sub(1);
        if self.shared.gate.is_severed(self.me, peer) || !self.neighbors.contains(&peer) {
            return;
        }
        self.n_acks_sent += 1;
        self.shared.acks_sent.fetch_add(1, Ordering::Relaxed);
        self.raw_send(peer, ENV_ACK, 0, ack, b"", transport);
    }

    /// Reset the shim state of the directed links to and from `peer` — a
    /// new link incarnation owes nothing to the old one.
    fn reset_arq(&mut self, peer: NodeId) {
        if self.reliable {
            self.arq_send[peer.index()] = ArqSend::default();
            self.arq_recv[peer.index()] = ArqRecv::default();
        }
    }

    /// Returns `true` when the driver asked for shutdown.
    fn handle_ctrl(&mut self, ctrl: Ctrl, transport: &mut dyn Transport) -> bool {
        match ctrl {
            Ctrl::Shutdown => {
                self.record(LiveEventKind::NetStats {
                    node: self.me,
                    decode_errors: self.n_decode_errors,
                    send_failures: self.n_send_failures,
                    retransmissions: self.n_retransmissions,
                    acks_sent: self.n_acks_sent,
                });
                return true;
            }
            Ctrl::Crash => {
                // From here on the node is inert: the crash record is
                // emitted by us (not the driver) so it is serialized
                // against our own state records.
                self.crashed = true;
                self.record(LiveEventKind::Crash { node: self.me });
            }
            Ctrl::Recover => {
                // Restart as a fresh incarnation: new protocol instance,
                // empty neighborhood (the driver's rejoin link-ups follow
                // in the same mailbox), all shim and workload state of the
                // dead incarnation discarded. The eating-session counter is
                // NOT reset — it is monotonic across incarnations, which
                // the trace validator depends on.
                if self.crashed {
                    if let Some(fresh) = self.spare.take() {
                        self.crashed = false;
                        self.proto = fresh;
                        self.neighbors.clear();
                        self.timers.clear();
                        self.outbox.clear();
                        self.moving = false;
                        self.exit_at = None;
                        self.dining = self.proto.dining_state();
                        for s in &mut self.arq_send {
                            *s = ArqSend::default();
                        }
                        for r in &mut self.arq_recv {
                            *r = ArqRecv::default();
                        }
                        self.record(LiveEventKind::Recover { node: self.me });
                        let think = self.draw_think();
                        self.next_hungry = Some(self.shared.now_ns() + think);
                    }
                }
            }
            _ if self.crashed => {}
            Ctrl::LinkUp { peer, kind } => {
                if let Err(slot) = self.neighbors.binary_search(&peer) {
                    self.neighbors.insert(slot, peer);
                }
                self.reset_arq(peer);
                self.apply(Event::LinkUp { peer, kind }, transport);
            }
            Ctrl::LinkDown { peer } => {
                if let Ok(slot) = self.neighbors.binary_search(&peer) {
                    self.neighbors.remove(slot);
                }
                self.reset_arq(peer);
                self.apply(Event::LinkDown { peer }, transport);
            }
            Ctrl::MoveStarted => {
                self.moving = true;
                self.apply(Event::MovementStarted, transport);
            }
            Ctrl::MoveEnded => {
                self.moving = false;
                self.apply(Event::MovementEnded, transport);
            }
        }
        false
    }

    /// Fire every due workload deadline and timer.
    fn tick(&mut self, transport: &mut dyn Transport) {
        let now = self.shared.now_ns();
        if self.dining == DiningState::Thinking {
            if let Some(at) = self.next_hungry {
                if at <= now {
                    self.next_hungry = None;
                    self.apply(Event::Hungry, transport);
                }
            }
        }
        if self.dining == DiningState::Eating {
            if let Some(at) = self.exit_at {
                if at <= now {
                    self.exit_at = None;
                    self.apply(Event::ExitCs, transport);
                }
            }
        }
        while let Some(i) = self.timers.iter().position(|&(at, _)| at <= now) {
            let (_, token) = self.timers.swap_remove(i);
            self.apply(Event::Timer { token }, transport);
        }
        if self.reliable {
            for i in 0..self.arq_send.len() {
                if self.arq_send[i].rto_at.is_some_and(|at| at <= now) {
                    self.fire_rto(NodeId(i as u32), transport);
                }
            }
            for i in 0..self.arq_recv.len() {
                if self.arq_recv[i].ack_at.is_some_and(|at| at <= now) {
                    self.fire_ack_idle(NodeId(i as u32), transport);
                }
            }
        }
    }

    /// How long the transport poll may block before the next deadline.
    fn poll_timeout(&self) -> Duration {
        let now = self.shared.now_ns();
        let mut deadline = now + 1_000_000; // re-check at least every 1 ms
        for at in self
            .next_hungry
            .iter()
            .chain(self.exit_at.iter())
            .chain(self.timers.iter().map(|(at, _)| at))
            .chain(self.arq_send.iter().filter_map(|s| s.rto_at.as_ref()))
            .chain(self.arq_recv.iter().filter_map(|r| r.ack_at.as_ref()))
        {
            deadline = deadline.min(*at);
        }
        Duration::from_nanos(deadline.saturating_sub(now).clamp(50_000, 1_000_000))
    }

    fn count_decode_error(&mut self) {
        self.n_decode_errors += 1;
        self.shared.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    fn on_envelope(&mut self, env: &[u8], transport: &mut dyn Transport) {
        let (from, env_kind, seq, ack, sent_ns, frame) = match decode_envelope(env) {
            Ok(parts) => parts,
            Err(_) => {
                self.count_decode_error();
                return;
            }
        };
        // In-flight losses: traffic from a peer that is no longer a
        // neighbor (the link died under the message) or across a severed
        // link is dropped before the protocol sees it, like the engine's
        // `dropped_in_flight`.
        if self.neighbors.binary_search(&from).is_err()
            || self.shared.gate.is_severed(from, self.me)
        {
            return;
        }
        if env_kind == ENV_ACK {
            self.apply_ack(from, ack);
            return;
        }
        if env_kind != ENV_DATA {
            self.count_decode_error();
            return;
        }
        self.apply_ack(from, ack);
        if self.reliable {
            // In-order filter: resynchronize on the first frame of a link
            // incarnation (next == 0), deliver exactly the expected
            // sequence, and drop gaps/duplicates — go-back-N retransmission
            // re-supplies them in order.
            let slot = &mut self.arq_recv[from.index()];
            if slot.next != 0 && seq != slot.next {
                // A gap or duplicate still deserves an ack so the sender's
                // window can advance past delivered frames.
                slot.ack_owed = true;
                if slot.ack_at.is_none() {
                    slot.ack_at = Some(self.shared.now_ns() + self.nu_ns);
                }
                return;
            }
            slot.next = seq + 1;
            slot.ack_owed = true;
            if slot.ack_at.is_none() {
                slot.ack_at = Some(self.shared.now_ns() + self.nu_ns);
            }
        }
        match decode_frame::<P::Msg>(frame) {
            Ok(msg) => {
                let latency_ns = self.shared.now_ns().saturating_sub(sent_ns);
                self.record(LiveEventKind::Deliver {
                    from,
                    to: self.me,
                    seq,
                    kind: P::msg_kind(&msg),
                    latency_ns,
                });
                self.shared.delivered.fetch_add(1, Ordering::Relaxed);
                self.apply(Event::Message { from, msg }, transport);
            }
            Err(_) => {
                self.count_decode_error();
            }
        }
    }
}

fn node_main<P>(
    proto: P,
    spare: Option<P>,
    p: NodeParams,
    mut transport: Box<dyn Transport>,
    ctrl: Receiver<Ctrl>,
    out: Sender<LiveRecord>,
    shared: Arc<Shared>,
) where
    P: Protocol,
    P::Msg: WireMsg,
{
    let mut rng = SimRng::seed_from_u64(p.seed ^ 0x11FE_0000 ^ ((p.me.0 as u64) << 32));
    let mean_think_ns = ((1e9 / p.rate) as u64).max(1);
    // Stagger the first hunger so the run opens with contention, not a
    // thundering herd at t = 0.
    let first = shared.now_ns() + rng.gen_range(0..=mean_think_ns / 2);
    let dining = proto.dining_state();
    let mut core = NodeCore {
        me: p.me,
        tick_ns: p.tick_ns,
        eat_ns: p.eat_ns,
        one_shot: p.one_shot,
        closed_loop: p.closed_loop,
        mean_think_ns,
        rng,
        proto,
        neighbors: p.neighbors,
        moving: false,
        crashed: false,
        dining,
        session: 0,
        ate_once: false,
        send_seq: vec![0; p.n],
        timers: Vec::new(),
        next_hungry: Some(first),
        exit_at: None,
        outbox: Vec::new(),
        timer_buf: Vec::new(),
        reliable: p.reliable,
        nu_ns: SimConfig::default()
            .max_message_delay
            .saturating_mul(p.tick_ns),
        arq_send: vec![ArqSend::default(); p.n],
        arq_recv: vec![ArqRecv::default(); p.n],
        spare,
        n_decode_errors: 0,
        n_send_failures: 0,
        n_retransmissions: 0,
        n_acks_sent: 0,
        shared,
        out,
    };
    loop {
        loop {
            match ctrl.try_recv() {
                Ok(c) => {
                    if core.handle_ctrl(c, transport.as_mut()) {
                        return;
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return,
            }
        }
        if core.crashed {
            // Inert: ignore the data plane, wait for shutdown.
            match ctrl.recv_timeout(Duration::from_millis(20)) {
                Ok(c) => {
                    if core.handle_ctrl(c, transport.as_mut()) {
                        return;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
            continue;
        }
        core.tick(transport.as_mut());
        let timeout = core.poll_timeout();
        if let Some(env) = transport.recv(timeout) {
            core.on_envelope(&env, transport.as_mut());
            // Drain whatever else is already queued before re-checking
            // deadlines, so bursts don't pay a poll timeout per message.
            while let Some(env) = transport.recv(Duration::ZERO) {
                core.on_envelope(&env, transport.as_mut());
            }
        }
    }
}

/// A driver-side fault/mobility action, due at `0` ns. Shared with the
/// sharded runtime's driver, which builds the same timeline.
pub(crate) enum Action {
    Crash(NodeId),
    Recover(NodeId),
    PartitionStart,
    PartitionEnd,
    Move(NodeId, Position),
}

/// Run one live execution and validate its trace.
///
/// # Errors
///
/// Configuration errors (bad rate, out-of-range fault targets, eating
/// time above τ), transport setup failures, and node-thread panics are
/// reported as `Err`; safety violations are *not* an error — they are
/// returned in [`LiveOutcome::violations`] for the caller to assert on.
pub fn run_live(cfg: &LiveConfig) -> Result<LiveOutcome, String> {
    cfg.validate()?;
    match cfg.alg {
        LiveAlg::A1Greedy => dispatch(cfg, Algorithm1::greedy),
        LiveAlg::A1Linial => {
            let radio_range = SimConfig::default().radio_range;
            let world = World::new(
                radio_range,
                cfg.positions.iter().map(|&p| p.into()).collect(),
            );
            let sched = Arc::new(LinialSchedule::compute(
                world.len() as u64,
                world.max_degree() as u64,
            ));
            dispatch(cfg, move |seed| Algorithm1::linial(seed, sched.clone()))
        }
        LiveAlg::A1Random => {
            let radio_range = SimConfig::default().radio_range;
            let world = World::new(
                radio_range,
                cfg.positions.iter().map(|&p| p.into()).collect(),
            );
            let delta = (world.max_degree() as u64).max(1);
            let rng_seed = cfg.seed;
            dispatch(cfg, move |seed| {
                Algorithm1::randomized(seed, delta, rng_seed)
            })
        }
        LiveAlg::A2 => dispatch(cfg, Algorithm2::new),
        LiveAlg::ChandyMisra => dispatch(cfg, ChandyMisra::new),
    }
}

/// Route a validated config to the configured runtime.
fn dispatch<P, F>(cfg: &LiveConfig, factory: F) -> Result<LiveOutcome, String>
where
    P: Protocol + Send + 'static,
    P::Msg: WireMsg + Send,
    F: FnMut(&NodeSeed) -> P,
{
    match cfg.runtime {
        LiveRuntime::ThreadPerNode => run_live_with(cfg, factory),
        LiveRuntime::Sharded { .. } => {
            crate::shard::run_sharded_with(cfg, factory, crate::shard::ShardTuning::default())
        }
    }
}

fn run_live_with<P, F>(cfg: &LiveConfig, mut factory: F) -> Result<LiveOutcome, String>
where
    P: Protocol + Send + 'static,
    P::Msg: WireMsg + Send,
    F: FnMut(&NodeSeed) -> P,
{
    let n = cfg.positions.len();
    let radio_range = SimConfig::default().radio_range;
    let mut world = World::new(
        radio_range,
        cfg.positions.iter().map(|&p| p.into()).collect(),
    );
    let max_degree = world.max_degree();
    let shared = Arc::new(Shared {
        origin: Instant::now(),
        order: AtomicU64::new(0),
        gate: LinkGate::new(n),
        sent: AtomicU64::new(0),
        delivered: AtomicU64::new(0),
        decode_errors: AtomicU64::new(0),
        send_failures: AtomicU64::new(0),
        retransmissions: AtomicU64::new(0),
        acks_sent: AtomicU64::new(0),
        ate: AtomicU64::new(0),
    });
    let transports: Vec<Box<dyn Transport>> = match cfg.transport {
        TransportKind::Mpsc => mpsc_mesh(n)
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .collect(),
        TransportKind::Udp => udp_mesh(n)?
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .collect(),
    };

    let (rec_tx, rec_rx) = channel::<LiveRecord>();
    let mut ctrls = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    for (i, transport) in transports.into_iter().enumerate() {
        let me = NodeId(i as u32);
        let seed = NodeSeed {
            id: me,
            neighbors: world.neighbors(me).to_vec(),
            n_nodes: n,
            max_degree,
        };
        let proto = factory(&seed);
        // The recovery victim carries a pre-built fresh incarnation: the
        // factory cannot be shared with node threads, and a recovering
        // node rejoins with an empty neighborhood (rejoin link-ups follow).
        let spare = match cfg.recover {
            Some((victim, _)) if victim as usize == i => Some(factory(&NodeSeed {
                id: me,
                neighbors: Vec::new(),
                n_nodes: n,
                max_degree,
            })),
            _ => None,
        };
        let (ctx, crx) = channel::<Ctrl>();
        ctrls.push(ctx);
        let params = NodeParams {
            me,
            neighbors: seed.neighbors,
            n,
            seed: cfg.seed,
            tick_ns: cfg.tick_ns,
            rate: cfg.rate,
            eat_ns: cfg.eat_ms.saturating_mul(1_000_000),
            one_shot: cfg.one_shot,
            closed_loop: cfg.closed_loop,
            reliable: cfg.reliable,
        };
        let out = rec_tx.clone();
        let sh = shared.clone();
        handles.push(
            thread::Builder::new()
                .name(format!("lme-node-{i}"))
                .spawn(move || node_main(proto, spare, params, transport, crx, out, sh))
                .map_err(|e| format!("failed to spawn node thread {i}: {e}"))?,
        );
    }

    // Build the driver's action timeline in nanoseconds.
    let mut actions: Vec<(u64, Action)> = Vec::new();
    if let Some((victim, at_ms)) = cfg.crash {
        actions.push((at_ms * 1_000_000, Action::Crash(NodeId(victim))));
    }
    if let Some((node, at_ms)) = cfg.recover {
        actions.push((at_ms * 1_000_000, Action::Recover(NodeId(node))));
    }
    if let Some((_, at_ms, heal_ms)) = &cfg.partition {
        actions.push((at_ms * 1_000_000, Action::PartitionStart));
        actions.push((heal_ms * 1_000_000, Action::PartitionEnd));
    }
    for &(at_ms, node, dest) in &cfg.moves {
        actions.push((at_ms * 1_000_000, Action::Move(NodeId(node), dest.into())));
    }
    actions.sort_by_key(|&(at, _)| at);
    let cut_pairs: Vec<(NodeId, NodeId)> = match &cfg.partition {
        Some((side, _, _)) => {
            let inside: Vec<bool> = {
                let mut v = vec![false; n];
                for &m in side {
                    v[m as usize] = true;
                }
                v
            };
            (0..n as u32)
                .flat_map(|a| (0..n as u32).map(move |b| (NodeId(a), NodeId(b))))
                .filter(|&(a, b)| a < b && inside[a.index()] != inside[b.index()])
                .collect()
        }
        None => Vec::new(),
    };

    let deadline_ns = cfg.duration_ms.saturating_mul(1_000_000);
    let mut records: Vec<LiveRecord> = Vec::new();
    let mut ai = 0;
    let mut quiesce_at: Option<u64> = None;
    let mut recoveries: u64 = 0;
    let mut partition_active = false;
    loop {
        let now = shared.now_ns();
        while ai < actions.len() && actions[ai].0 <= now {
            let (_, action) = &actions[ai];
            ai += 1;
            match action {
                Action::Crash(victim) => {
                    // Sever first so no further traffic leaks, then tell the
                    // victim (it records the crash, serialized against its
                    // own state records). Peers are NOT notified: a crash
                    // is silent, exactly as in the simulator.
                    shared.gate.sever_all(*victim);
                    world.mark_crashed(*victim);
                    let _ = ctrls[victim.index()].send(Ctrl::Crash);
                }
                Action::Recover(node) => {
                    let node = *node;
                    if !world.is_crashed(node) {
                        continue;
                    }
                    world.mark_recovered(node);
                    // Reopen the victim's gates, except pairs an active
                    // partition still cuts.
                    for i in 0..n as u32 {
                        let peer = NodeId(i);
                        if peer == node || world.is_crashed(peer) {
                            continue;
                        }
                        let cut = partition_active
                            && cut_pairs
                                .iter()
                                .any(|&(a, b)| (a, b) == (node, peer) || (a, b) == (peer, node));
                        if !cut {
                            shared.gate.set_pair(node, peer, false);
                        }
                    }
                    // The victim restarts as a fresh incarnation first;
                    // then the rejoin flap makes each surviving neighbor
                    // drop its stale edge state and re-form the link with
                    // itself as the static (fork-owning) side, so no fork
                    // is duplicated or lost across the crash.
                    let _ = ctrls[node.index()].send(Ctrl::Recover);
                    for &peer in world.neighbors(node) {
                        if world.is_crashed(peer) {
                            continue;
                        }
                        records.push(LiveRecord {
                            at_ns: shared.now_ns(),
                            order: shared.ticket(),
                            kind: LiveEventKind::LinkDown { a: node, b: peer },
                        });
                        let _ = ctrls[peer.index()].send(Ctrl::LinkDown { peer: node });
                        records.push(LiveRecord {
                            at_ns: shared.now_ns(),
                            order: shared.ticket(),
                            kind: LiveEventKind::LinkUp { a: peer, b: node },
                        });
                        let _ = ctrls[peer.index()].send(Ctrl::LinkUp {
                            peer: node,
                            kind: LinkUpKind::AsStatic,
                        });
                        let _ = ctrls[node.index()].send(Ctrl::LinkUp {
                            peer,
                            kind: LinkUpKind::AsMoving,
                        });
                    }
                    recoveries += 1;
                }
                Action::PartitionStart => {
                    partition_active = true;
                    for &(a, b) in &cut_pairs {
                        shared.gate.set_pair(a, b, true);
                    }
                }
                Action::PartitionEnd => {
                    partition_active = false;
                    for &(a, b) in &cut_pairs {
                        if !world.is_crashed(a) && !world.is_crashed(b) {
                            shared.gate.set_pair(a, b, false);
                        }
                    }
                }
                Action::Move(m, dest) => {
                    if world.is_crashed(*m) {
                        continue;
                    }
                    // Record the relocation *before* the link records so a
                    // trace validator's mirror world updates its adjacency
                    // at the right point in the total order.
                    records.push(LiveRecord {
                        at_ns: shared.now_ns(),
                        order: shared.ticket(),
                        kind: LiveEventKind::Relocate {
                            node: *m,
                            x: dest.x,
                            y: dest.y,
                        },
                    });
                    let _ = ctrls[m.index()].send(Ctrl::MoveStarted);
                    for change in world.relocate(*m, *dest) {
                        match change {
                            LinkChange::Up(a, b) => {
                                // The moved node is the moving side; the
                                // peer is static and owns the new fork —
                                // the engine's symmetry breaking.
                                let (stat, mov) = if a == *m { (b, a) } else { (a, b) };
                                records.push(LiveRecord {
                                    at_ns: shared.now_ns(),
                                    order: shared.ticket(),
                                    kind: LiveEventKind::LinkUp { a: stat, b: mov },
                                });
                                let _ = ctrls[stat.index()].send(Ctrl::LinkUp {
                                    peer: mov,
                                    kind: LinkUpKind::AsStatic,
                                });
                                let _ = ctrls[mov.index()].send(Ctrl::LinkUp {
                                    peer: stat,
                                    kind: LinkUpKind::AsMoving,
                                });
                            }
                            LinkChange::Down(a, b) => {
                                records.push(LiveRecord {
                                    at_ns: shared.now_ns(),
                                    order: shared.ticket(),
                                    kind: LiveEventKind::LinkDown { a, b },
                                });
                                let _ = ctrls[a.index()].send(Ctrl::LinkDown { peer: b });
                                let _ = ctrls[b.index()].send(Ctrl::LinkDown { peer: a });
                            }
                        }
                    }
                    let _ = ctrls[m.index()].send(Ctrl::MoveEnded);
                }
            }
        }
        if now >= deadline_ns {
            break;
        }
        // One-shot runs end early once every node has eaten, after a short
        // drain window for trailing records.
        if cfg.one_shot && cfg.crash.is_none() && shared.ate.load(Ordering::Relaxed) as usize >= n {
            let at = *quiesce_at.get_or_insert(now + 50_000_000);
            if now >= at {
                break;
            }
        }
        let next_action = actions
            .get(ai)
            .map(|&(at, _)| at)
            .unwrap_or(u64::MAX)
            .min(deadline_ns);
        let wait_ns = next_action
            .saturating_sub(shared.now_ns())
            .clamp(100_000, 5_000_000);
        match rec_rx.recv_timeout(Duration::from_nanos(wait_ns)) {
            Ok(r) => records.push(r),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }

    for c in &ctrls {
        let _ = c.send(Ctrl::Shutdown);
    }
    drop(rec_tx);
    // Drain until every node thread has dropped its sender.
    for r in rec_rx.iter() {
        records.push(r);
    }
    let mut threads_joined = 0;
    for (i, h) in handles.into_iter().enumerate() {
        h.join()
            .map_err(|_| format!("node thread {i} panicked during the live run"))?;
        threads_joined += 1;
    }
    let elapsed_ms = shared.now_ns() / 1_000_000;

    let trace = LiveTrace::new(records);
    let violations = trace.check_safety(radio_range, &cfg.positions);
    let verdict_ms = shared.now_ns() / 1_000_000 - elapsed_ms;
    let meals = trace.census(n);
    let latencies_ns = trace.hungry_to_eat_latencies_ns(n);
    Ok(LiveOutcome {
        trace,
        meals,
        latencies_ns,
        violations,
        messages_sent: shared.sent.load(Ordering::Relaxed),
        messages_delivered: shared.delivered.load(Ordering::Relaxed),
        decode_errors: shared.decode_errors.load(Ordering::Relaxed),
        send_failures: shared.send_failures.load(Ordering::Relaxed),
        retransmissions: shared.retransmissions.load(Ordering::Relaxed),
        acks_sent: shared.acks_sent.load(Ordering::Relaxed),
        recoveries,
        elapsed_ms,
        verdict_ms,
        threads_joined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> Vec<(f64, f64)> {
        vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = LiveConfig::new(LiveAlg::A2, TransportKind::Mpsc, vec![]);
        assert!(run_live(&cfg).is_err(), "empty topology");
        cfg.positions = line3();
        cfg.rate = 0.0;
        assert!(run_live(&cfg).is_err(), "zero rate");
        cfg.rate = 25.0;
        cfg.eat_ms = 10_000;
        assert!(run_live(&cfg).is_err(), "eating beyond tau");
        cfg.eat_ms = 2;
        cfg.crash = Some((9, 10));
        assert!(run_live(&cfg).is_err(), "crash target out of range");
    }

    #[test]
    fn short_mpsc_run_is_safe_and_joins_all_threads() {
        let mut cfg = LiveConfig::new(LiveAlg::A1Greedy, TransportKind::Mpsc, line3());
        cfg.duration_ms = 300;
        cfg.rate = 60.0;
        cfg.eat_ms = 1;
        let out = run_live(&cfg).expect("live run");
        assert_eq!(out.threads_joined, 3);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.total_meals() > 0, "nobody ate in 300 ms");
        assert_eq!(out.decode_errors, 0);
        assert!(out.messages_delivered > 0);
    }

    #[test]
    fn one_shot_run_feeds_every_node_exactly_once() {
        let mut cfg = LiveConfig::new(LiveAlg::ChandyMisra, TransportKind::Mpsc, line3());
        cfg.duration_ms = 2_000;
        cfg.one_shot = true;
        cfg.eat_ms = 1;
        let out = run_live(&cfg).expect("live run");
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.meals, vec![1, 1, 1]);
        // Early stop: nowhere near the 2 s deadline.
        assert!(out.elapsed_ms < 1_500, "one-shot run did not stop early");
    }

    #[test]
    fn alg_names_round_trip() {
        for alg in LiveAlg::all() {
            assert_eq!(LiveAlg::parse(alg.name()).unwrap(), alg);
        }
        assert!(LiveAlg::parse("choy-singh").is_err());
    }
}
