//! The live runtime's execution engine: M worker threads host n ≫ M
//! nodes.
//!
//! Every live run executes here. The `Protocol` automata run on a fixed
//! worker pool:
//!
//! - **Contiguous shards.** Worker s owns nodes `[start_s, start_s +
//!   size_s)`; ownership never migrates, so all per-node state is
//!   thread-local to its worker.
//! - **Per-shard run queues on a timing wheel.** Each worker drives its
//!   nodes from a [`manet_sim::TimingWheel`] — the simulator's own
//!   bounded-horizon event queue, keyed here on virtual ticks over local
//!   node indices — plus a local delivery queue for same-shard traffic.
//!   Workload deadlines, protocol timers and the reliable shim's
//!   retransmission and idle-ack timers all land on it.
//! - **Typed inside a shard, bytes only in a batch.** A node emits typed
//!   envelopes. A same-shard one goes on the local queue as it is and
//!   never meets the codec; a cross-shard one is encoded once, straight
//!   into the one buffer per shard pair per flush ([`batch`]), which
//!   rides a bounded SPSC ring ([`ring`]) in-process or a single datagram
//!   on UDP, and is decoded in place where it lands. So under
//!   `--transport udp` only cross-shard traffic crosses a socket.
//! - **Every input wakes its worker.** A worker parks until its next
//!   deadline (at most 1 ms) or an input: a control message, a ring batch
//!   and a UDP batch each unpark it, so a cross-shard frame never waits
//!   out the park. The park's length comes from the runtime's one wait
//!   rule, `park_ns`, which ends it Linux's timer slack short of the
//!   deadline so that the wake lands on its tick, not 50 µs past it; the
//!   driver's wait for its next timeline command uses the same rule.
//! - **The worker reads the clock, once per input.** It hands each node
//!   input — a control message, a delivered envelope (cross-shard or
//!   local), a due wakeup — the instant it took it in hand, one reading
//!   per control message and per envelope; every wakeup a pass finds due
//!   shares the reading that found it due. A node never reads a clock:
//!   the records, envelope send instants, delivery latencies and
//!   deadlines it produces for one input all carry that input's `now`,
//!   as a simulator handler's carry its event's time.
//! - **Backpressure, not buffering.** A full ring stalls the producer
//!   briefly and then aborts the run with a structured
//!   [`ShardAbort::RingBackpressure`] — the live analogue of the
//!   engine's `RunAbort::ChannelQueueOverflow`.
//! - **Per-shard ticket ranges.** One hybrid logical clock per shard
//!   ([`clock`]) stamps every record; the per-shard streams are k-way
//!   merged into one dense total order at export, and the merged
//!   [`crate::trace::LiveTrace`] is replayed through the simulator's safety
//!   core.
//!
//! The driver (the calling thread) owns the mirror `World` and runs the
//! configured `Command` timeline on it the way `Engine::execute` does:
//! a teleport's or a recovery's `LinkChange`s reach the nodes as
//! [`LinkChange::notices`] decides, the simulator's own rule, and a crash
//! marks the victim down in a bitmap every worker reads — traffic to and
//! from it is dropped without telling the protocols, exactly like the
//! simulator's silent crashes. See DESIGN.md §11.

mod batch;
pub mod clock;
mod node;
mod ring;

pub use clock::{merge_stamped, HybridClock, StampedRecord};

use std::collections::VecDeque;
use std::fmt;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use manet_sim::{Command, Event, LinkChange, NodeId, NodeSeed, Protocol, SimConfig, World};

use crate::codec::WireMsg;
use crate::runtime::{LiveConfig, LiveOutcome, LiveRuntime};
use crate::trace::{LiveEventKind, LiveTrace};
use crate::transport::{Envelope, TransportKind};

use batch::{batch_begin, batch_count, batch_decode, batch_push, batch_seal, batch_split_last};
use node::{NetCounts, ShardNode, WireOut};
use ring::{ring, RingReceiver, RingSender};
use wheel::Wakeups;

/// The worker's use of the simulator's timing wheel.
mod wheel {
    use manet_sim::{SimTime, TimingWheel};

    /// The shard's pending node wakeups: the simulator's timing wheel, keyed
    /// on virtual ticks (`wall_ns / tick_ns`) over local node indices.
    pub(super) struct Wakeups {
        wheel: TimingWheel<u32>,
        /// Insertion counter — the wheel's tie-break among equal ticks.
        pushed: u64,
        /// Per node, the earliest tick it is on the wheel for.
        armed: Vec<Option<u64>>,
    }

    impl Wakeups {
        pub(super) fn new(nodes: usize) -> Wakeups {
            Wakeups {
                wheel: TimingWheel::new(1024),
                pushed: 0,
                armed: vec![None; nodes],
            }
        }

        /// Wake local node `node` at virtual tick `tick`, unless it is
        /// already due to wake no later; a tick already past fires on the
        /// next drain.
        pub(super) fn arm(&mut self, tick: u64, node: u32) {
            let armed = &mut self.armed[node as usize];
            if armed.is_none_or(|at| tick < at) {
                *armed = Some(tick);
                self.pushed += 1;
                self.wheel.push(SimTime(tick), self.pushed, node);
            }
        }

        /// Move every wakeup due at or before `now_tick` into `due`.
        pub(super) fn drain_due(&mut self, now_tick: u64, due: &mut Vec<u32>) {
            while self.next_tick().is_some_and(|tick| tick <= now_tick) {
                if let Some((_, _, node)) = self.wheel.pop() {
                    self.armed[node as usize] = None;
                    due.push(node);
                }
            }
        }

        /// The earliest armed tick, if any (drives the worker's sleep).
        pub(super) fn next_tick(&mut self) -> Option<u64> {
            self.wheel.next_at().map(|at| at.0)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn drain(w: &mut Wakeups, now: u64) -> Vec<u32> {
            let mut due = Vec::new();
            w.drain_due(now, &mut due);
            due
        }

        #[test]
        fn due_wakeups_fire_and_future_ones_wait() {
            let mut w = Wakeups::new(10);
            w.arm(2, 0);
            w.arm(5, 1);
            w.arm(5, 2);
            assert_eq!(w.next_tick(), Some(2));
            assert_eq!(drain(&mut w, 1), Vec::<u32>::new());
            assert_eq!(drain(&mut w, 4), vec![0]);
            assert_eq!(w.next_tick(), Some(5));
            assert_eq!(drain(&mut w, 5), vec![1, 2]);
            assert_eq!(w.next_tick(), None);
        }

        #[test]
        fn far_deadlines_park_in_overflow_and_still_fire() {
            let mut w = Wakeups::new(10);
            w.arm(1, 0);
            w.arm(100_000, 7);
            assert_eq!(drain(&mut w, 50), vec![0]);
            assert_eq!(w.next_tick(), Some(100_000));
            assert_eq!(drain(&mut w, 99_999), Vec::<u32>::new());
            assert_eq!(drain(&mut w, 100_000), vec![7]);
        }

        #[test]
        fn lapped_entries_do_not_fire_early() {
            // Ticks 2 and 1026 share a bucket of the 1024-tick window.
            for order in [[(2, 0), (1026, 1)], [(1026, 1), (2, 0)]] {
                let mut w = Wakeups::new(10);
                for (tick, node) in order {
                    w.arm(tick, node);
                }
                assert_eq!(drain(&mut w, 2), vec![0]);
                assert_eq!(drain(&mut w, 1025), Vec::<u32>::new());
                assert_eq!(drain(&mut w, 1026), vec![1]);
            }
        }

        #[test]
        fn long_stall_sweeps_everything_once() {
            let mut w = Wakeups::new(10);
            w.arm(5_000, 9);
            for i in 0..4u64 {
                w.arm(i, i as u32);
            }
            assert_eq!(drain(&mut w, 1_000_000), vec![0, 1, 2, 3, 9]);
            assert_eq!(w.next_tick(), None);
        }

        #[test]
        fn past_schedules_fire_on_the_next_advance() {
            let mut w = Wakeups::new(10);
            w.arm(8, 0);
            assert_eq!(drain(&mut w, 10), vec![0]);
            w.arm(20, 1);
            w.arm(3, 5); // already past, and below the wheel's window
            assert_eq!(w.next_tick(), Some(3));
            assert_eq!(drain(&mut w, 11), vec![5]);
            assert_eq!(w.next_tick(), Some(20));
        }
    }
}

/// Why a live run stopped instead of finishing — the live runtime's
/// analogue of the simulator's `RunAbort`. Rendered into the `Err`
/// returned by `run_live`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardAbort {
    /// A cross-shard SPSC ring stayed full past the backpressure
    /// budget: the consumer shard cannot keep up and unbounded
    /// buffering is refused by design.
    RingBackpressure {
        /// The producing shard.
        from_shard: u32,
        /// The shard whose inbound ring stayed full.
        to_shard: u32,
        /// Ring capacity in batches.
        capacity: usize,
    },
}

impl fmt::Display for ShardAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardAbort::RingBackpressure {
                from_shard,
                to_shard,
                capacity,
            } => write!(
                f,
                "cross-shard ring {from_shard}->{to_shard} stayed full past the \
                 backpressure budget (capacity {capacity} batches); the consumer \
                 shard cannot keep up"
            ),
        }
    }
}

/// Internal knobs of the worker pool, separated from [`LiveConfig`] so
/// tests can force the backpressure path deterministically.
#[derive(Debug, Clone, Copy)]
pub struct ShardTuning {
    /// Capacity of each cross-shard ring, in batches (0 = always full).
    pub ring_capacity: usize,
    /// How long a producer retries a full ring before aborting.
    pub backpressure_wait_ms: u64,
}

impl Default for ShardTuning {
    fn default() -> ShardTuning {
        ShardTuning {
            ring_capacity: 1024,
            backpressure_wait_ms: 2_000,
        }
    }
}

/// State shared by the driver and every worker.
pub(crate) struct ShardShared {
    origin: Instant,
    /// Which nodes are crashed right now, flipped by the driver; present
    /// only when the timeline has a crash, so fault-free runs pay one
    /// `None` check per frame. The flags publish nothing — a victim learns
    /// of its own crash through its control channel — hence `Relaxed`.
    down: Option<Vec<AtomicBool>>,
    /// Nodes that have finished at least one meal (one-shot early stop).
    pub(crate) ate: AtomicU64,
    /// Raised on abort so every thread winds down promptly.
    stop: AtomicBool,
    abort: Mutex<Option<ShardAbort>>,
    /// Worker thread handles for unparking, set once after spawn.
    wakers: OnceLock<Vec<Thread>>,
}

impl ShardShared {
    /// Wall nanoseconds since the run origin. Read by the driver and by a
    /// worker, once per input it hands a node (see the module docs);
    /// never by a node.
    pub(crate) fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn new(n: usize, can_crash: bool) -> ShardShared {
        ShardShared {
            origin: Instant::now(),
            down: can_crash.then(|| (0..n).map(|_| AtomicBool::new(false)).collect()),
            ate: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            abort: Mutex::new(None),
            wakers: OnceLock::new(),
        }
    }

    /// Whether traffic between `a` and `b` is dropped: one of them is
    /// crashed. Nodes ask before sending *and* after receiving, so a crash
    /// also kills what was in flight, in both directions.
    pub(crate) fn severed(&self, a: NodeId, b: NodeId) -> bool {
        self.down.as_ref().is_some_and(|down| {
            down[a.index()].load(Ordering::Relaxed) || down[b.index()].load(Ordering::Relaxed)
        })
    }

    /// Driver side of a crash (`true`) or a recovery (`false`).
    fn set_down(&self, node: NodeId, is_down: bool) {
        if let Some(down) = &self.down {
            down[node.index()].store(is_down, Ordering::Relaxed);
        }
    }

    /// Unpark `shard`'s worker: every input it may be parked on (a control
    /// message, a ring batch, a UDP batch) is followed by this call.
    fn wake(&self, shard: usize) {
        if let Some(wakers) = self.wakers.get() {
            if let Some(t) = wakers.get(shard) {
                t.unpark();
            }
        }
    }
}

/// Driver → node control plane. Kept separate from the data plane so
/// topology changes cannot be lost to a severed link.
pub(crate) enum Ctrl<M> {
    /// A link or motion event for the protocol.
    Tell(Event<M>),
    Crash,
    Recover,
}

/// Driver → worker control plane.
enum WorkerMsg<M> {
    /// A control event for one owned node, stamped with the driver's
    /// clock so the node's reaction merges after the driver's records.
    Node {
        clock: u64,
        node: NodeId,
        ctrl: Ctrl<M>,
    },
    /// Emit final per-node stats and exit.
    Shutdown { clock: u64 },
}

/// Per-worker transport endpoints.
enum Links {
    /// In-process: one bounded SPSC ring per ordered shard pair.
    Rings {
        /// Inbound rings, indexed by producing shard (`None` at self).
        rx: Vec<Option<RingReceiver<Vec<u8>>>>,
        /// Outbound rings, indexed by consuming shard (`None` at self).
        tx: Vec<Option<RingSender<Vec<u8>>>>,
    },
    /// One nonblocking UDP socket per shard; batches ride datagrams.
    Udp {
        socket: UdpSocket,
        peers: Vec<SocketAddr>,
    },
}

impl Links {
    /// One endpoint per shard: a ring matrix in-process (rings of
    /// `ring_capacity` batches), a nonblocking loopback socket per shard on
    /// UDP.
    fn build(
        transport: TransportKind,
        workers: usize,
        ring_capacity: usize,
    ) -> Result<Vec<Links>, String> {
        Ok(match transport {
            TransportKind::Mpsc => {
                let mut txs: Vec<Vec<Option<RingSender<Vec<u8>>>>> = (0..workers)
                    .map(|_| (0..workers).map(|_| None).collect())
                    .collect();
                let mut rxs: Vec<Vec<Option<RingReceiver<Vec<u8>>>>> = (0..workers)
                    .map(|_| (0..workers).map(|_| None).collect())
                    .collect();
                for a in 0..workers {
                    for b in 0..workers {
                        if a != b {
                            let (tx, rx) = ring(ring_capacity);
                            txs[a][b] = Some(tx);
                            rxs[b][a] = Some(rx);
                        }
                    }
                }
                txs.into_iter()
                    .zip(rxs)
                    .map(|(tx, rx)| Links::Rings { rx, tx })
                    .collect()
            }
            TransportKind::Udp => {
                let mut sockets = Vec::with_capacity(workers);
                let mut addrs = Vec::with_capacity(workers);
                for s in 0..workers {
                    let socket = UdpSocket::bind("127.0.0.1:0")
                        .map_err(|e| format!("failed to bind shard {s} socket: {e}"))?;
                    socket
                        .set_nonblocking(true)
                        .map_err(|e| format!("failed to set shard {s} socket nonblocking: {e}"))?;
                    addrs.push(
                        socket
                            .local_addr()
                            .map_err(|e| format!("failed to read shard {s} socket addr: {e}"))?,
                    );
                    sockets.push(socket);
                }
                sockets
                    .into_iter()
                    .map(|socket| Links::Udp {
                        socket,
                        peers: addrs.clone(),
                    })
                    .collect()
            }
        })
    }
}

/// Keep UDP batch datagrams under the practical payload ceiling.
const UDP_BATCH_LIMIT: usize = 60_000;

/// Immutable per-worker parameters.
struct WorkerEnv {
    shard: u32,
    base: u32,
    workers: usize,
    tick_ns: u64,
    backpressure_wait_ms: u64,
    ring_capacity: usize,
    /// Global node id → owning shard.
    shard_map: Arc<Vec<u32>>,
}

/// A worker's cross-shard side: one open batch per peer shard, and the
/// closed batches waiting for the flush.
struct Outbound {
    udp: bool,
    /// Indexed by receiving shard; the own shard's stays empty.
    open: Vec<Vec<u8>>,
    ready: Vec<(usize, Vec<u8>)>,
}

impl Outbound {
    fn new(env: &WorkerEnv, udp: bool) -> Outbound {
        Outbound {
            udp,
            open: (0..env.workers).map(|_| batch_begin(env.shard)).collect(),
            ready: Vec::new(),
        }
    }

    /// Encode `envelope` for `to` on shard `s` once, straight into the
    /// pair's batch. On UDP an entry that takes a non-empty batch past a
    /// datagram's ceiling moves to a batch of its own.
    fn push<M: WireMsg>(&mut self, s: usize, to: NodeId, envelope: &Envelope<M>) {
        let open = &mut self.open[s];
        let at = open.len();
        batch_push(open, to, |out| envelope.write(out));
        if self.udp && open.len() > UDP_BATCH_LIMIT && batch_count(open) > 1 {
            let last = batch_split_last(open, at);
            self.ready.push((s, std::mem::replace(open, last)));
        }
    }

    /// Seal every non-empty batch with `wire`'s clock and send it; each
    /// sent batch wakes its shard.
    fn flush<M>(
        &mut self,
        wire: &mut WireOut<M>,
        env: &WorkerEnv,
        links: &mut Links,
        shared: &ShardShared,
    ) -> Result<(), ShardAbort> {
        for (s, open) in self.open.iter_mut().enumerate() {
            if batch_count(open) > 0 {
                let full = std::mem::replace(open, batch_begin(env.shard));
                self.ready.push((s, full));
            }
        }
        for (s, mut buf) in self.ready.drain(..) {
            batch_seal(&mut buf, wire.clock.current());
            match links {
                Links::Rings { tx, .. } => {
                    let tx = tx[s].as_ref().expect("ring to a peer shard");
                    push_with_backpressure(tx, buf, env, s, shared)?;
                }
                Links::Udp { socket, peers } => match socket.send_to(&buf, peers[s]) {
                    Ok(_) => shared.wake(s),
                    Err(_) => wire.counts.send_failures += u64::from(batch_count(&buf)),
                },
            }
        }
        Ok(())
    }
}

/// Push one sealed batch into a ring, parking briefly under
/// backpressure and aborting when the budget runs out.
fn push_with_backpressure(
    tx: &RingSender<Vec<u8>>,
    mut buf: Vec<u8>,
    env: &WorkerEnv,
    to_shard: usize,
    shared: &ShardShared,
) -> Result<(), ShardAbort> {
    let deadline = Instant::now() + Duration::from_millis(env.backpressure_wait_ms);
    loop {
        match tx.try_push(buf) {
            Ok(()) => {
                shared.wake(to_shard);
                return Ok(());
            }
            Err(back) => {
                buf = back;
                if shared.stop.load(Ordering::Relaxed) {
                    // The run is already winding down; drop the batch.
                    return Ok(());
                }
                if Instant::now() >= deadline {
                    return Err(ShardAbort::RingBackpressure {
                        from_shard: env.shard,
                        to_shard: to_shard as u32,
                        capacity: env.ring_capacity,
                    });
                }
                thread::park_timeout(Duration::from_micros(100));
            }
        }
    }
}

/// One worker's nodes and everything they write to.
struct Worker<P: Protocol> {
    env: WorkerEnv,
    nodes: Vec<ShardNode<P>>,
    wire: WireOut<P::Msg>,
    wakeups: Wakeups,
    /// Same-shard envelopes, typed.
    local_q: VecDeque<(NodeId, Envelope<P::Msg>)>,
    out: Outbound,
}

impl<P> Worker<P>
where
    P: Protocol,
    P::Msg: WireMsg,
{
    /// After a call into local node `i`: re-arm its wakeup and route what
    /// it emitted, a same-shard envelope onto the local queue as it is, a
    /// cross-shard one into its batch.
    fn settle(&mut self, i: usize) {
        if let Some(at) = self.nodes[i].earliest_deadline_ns() {
            self.wakeups.arm(at.div_ceil(self.env.tick_ns), i as u32);
        }
        for (to, envelope) in self.wire.sends.drain(..) {
            let s = self.env.shard_map[to.index()] as usize;
            if s == self.env.shard as usize {
                self.local_q.push_back((to, envelope));
            } else {
                self.out.push(s, to, &envelope);
            }
        }
    }

    /// Deliver one inbound cross-shard batch, decoding from `buf` in place;
    /// each envelope is taken in hand at its own clock reading.
    fn take_batch(&mut self, buf: &[u8], shared: &ShardShared) {
        let Some((_, clock, envelopes)) = batch_decode(buf) else {
            self.wire.counts.decode_errors += 1;
            return;
        };
        self.wire.clock.witness(clock);
        for (to, bytes) in envelopes {
            let i = to.0.wrapping_sub(self.env.base) as usize;
            if i < self.nodes.len() {
                self.nodes[i].on_envelope(bytes, shared.now_ns(), &mut self.wire, shared);
                self.settle(i);
            }
        }
    }

    /// Deliver same-shard envelopes until none is left (chains drain
    /// within the pass); whether there was any.
    fn drain_local(&mut self, shared: &ShardShared) -> bool {
        let busy = !self.local_q.is_empty();
        while let Some((to, envelope)) = self.local_q.pop_front() {
            let i = (to.0 - self.env.base) as usize;
            self.nodes[i].receive(envelope, shared.now_ns(), &mut self.wire, shared);
            self.settle(i);
        }
        busy
    }
}

fn worker_main<P>(
    env: WorkerEnv,
    nodes: Vec<ShardNode<P>>,
    mut links: Links,
    ctrl: Receiver<WorkerMsg<P::Msg>>,
    shared: Arc<ShardShared>,
) -> WireOut<P::Msg>
where
    P: Protocol,
    P::Msg: WireMsg,
{
    let out = Outbound::new(&env, matches!(links, Links::Udp { .. }));
    let mut w = Worker {
        wakeups: Wakeups::new(nodes.len()),
        nodes,
        env,
        wire: WireOut::new(),
        local_q: VecDeque::new(),
        out,
    };
    let mut due: Vec<u32> = Vec::new();
    let mut rx_buf = vec![0u8; 65_535];
    // The wall instant of the tick the last timed park waited for.
    let mut parked_for: Option<u64> = None;

    for i in 0..w.nodes.len() {
        w.settle(i);
    }

    'run: loop {
        let mut busy = false;

        // 1. Control plane.
        loop {
            match ctrl.try_recv() {
                Ok(WorkerMsg::Node { clock, node, ctrl }) => {
                    busy = true;
                    w.wire.clock.witness(clock);
                    let i = (node.0 - w.env.base) as usize;
                    w.nodes[i].handle_ctrl(ctrl, shared.now_ns(), &mut w.wire, &shared);
                    w.settle(i);
                }
                Ok(WorkerMsg::Shutdown { clock }) => {
                    w.wire.clock.witness(clock);
                    let now = shared.now_ns();
                    for node in &mut w.nodes {
                        node.emit_net_stats(now, &mut w.wire);
                    }
                    break 'run;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break 'run,
            }
        }

        // 2. Inbound cross-shard batches.
        match &links {
            Links::Rings { rx, .. } => {
                for r in rx.iter().flatten() {
                    while let Some(buf) = r.try_pop() {
                        busy = true;
                        w.take_batch(&buf, &shared);
                    }
                }
            }
            Links::Udp { socket, .. } => {
                while let Ok((len, _)) = socket.recv_from(&mut rx_buf) {
                    busy = true;
                    w.take_batch(&rx_buf[..len], &shared);
                }
            }
        }

        // 3. Same-shard deliveries.
        busy |= w.drain_local(&shared);

        // 4. Due wakeups from the wheel, each taken in hand at the one
        // reading that found it due, then the same-shard traffic they
        // enqueued, rather than sleeping on it. That reading also times
        // the park before it: a pass at or past the tick the park waited
        // for counts as a timer wake, with how late it came.
        let now = shared.now_ns();
        if let Some(at) = parked_for.take().filter(|&at| now >= at) {
            w.wire.counts.timer_wakes += 1;
            w.wire.counts.timer_late_ns += now - at;
        }
        due.clear();
        w.wakeups.drain_due(now / w.env.tick_ns, &mut due);
        for &i in &due {
            let i = i as usize;
            w.nodes[i].tick(now, &mut w.wire, &shared);
            w.settle(i);
            busy = true;
        }
        w.drain_local(&shared);

        // 5. Flush cross-shard batches (one buffer per shard pair).
        if let Err(abort) = w.out.flush(&mut w.wire, &w.env, &mut links, &shared) {
            *shared.abort.lock().expect("abort slot") = Some(abort);
            shared.stop.store(true, Ordering::Relaxed);
            break 'run;
        }

        if shared.stop.load(Ordering::Relaxed) {
            // Another thread aborted; the driver's shutdown follows, but
            // stop ticking nodes in the meantime.
            thread::park_timeout(Duration::from_millis(1));
            continue;
        }

        // 6. Park until the next deadline or an input's unpark; the 1 ms
        // cap is the fallback.
        if !busy {
            let now_ns = shared.now_ns();
            let due_ns = w
                .wakeups
                .next_tick()
                .map(|t| t.saturating_mul(w.env.tick_ns));
            let remaining = due_ns.map_or(u64::MAX, |at| at.saturating_sub(now_ns));
            if let Some(sleep_ns) = park_ns(remaining, 1_000_000) {
                thread::park_timeout(Duration::from_nanos(sleep_ns));
                parked_for = due_ns;
            }
        }
    }
    w.wire
}

/// Linux's default timer slack for a normal thread (prctl(2)): the
/// kernel may end a timed sleep up to this long after the instant it was
/// asked for, and on an idle host it does.
const TIMER_SLACK_NS: u64 = 50_000;

/// The one wait rule of the live runtime: how long to sleep for a
/// deadline `remaining_ns` away, at most `cap_ns`. `None` when it is
/// already due. Otherwise the sleep ends [`TIMER_SLACK_NS`] short of the
/// deadline, so that the slack lands the wake on it rather than 50 µs
/// past it; a deadline within the slack is slept for as it is.
///
/// Ending early is safe: whoever sleeps checks the clock again on
/// waking and acts only on what is due by then, so a slack smaller than
/// assumed costs one more wake and never an early deadline.
fn park_ns(remaining_ns: u64, cap_ns: u64) -> Option<u64> {
    match remaining_ns {
        0 => None,
        r if r > TIMER_SLACK_NS => Some((r - TIMER_SLACK_NS).min(cap_ns)),
        r => Some(r.min(cap_ns)),
    }
}

/// The calling thread's side of a run: it executes the command timeline
/// on the mirror world, records what no node sees (relocations and link
/// changes) on its own clock, and tells each node what happened to it.
struct Driver<'a, M> {
    shared: &'a ShardShared,
    shard_map: &'a [u32],
    ctrls: Vec<Sender<WorkerMsg<M>>>,
    tick_ns: u64,
    clock: HybridClock,
    records: Vec<StampedRecord>,
    world: World,
    recoveries: u64,
}

impl<M> Driver<'_, M> {
    fn record(&mut self, kind: LiveEventKind) {
        let at_ns = self.shared.now_ns();
        let clock = self.clock.stamp(at_ns / self.tick_ns);
        self.records.push(StampedRecord { clock, at_ns, kind });
    }

    /// Send `ctrl` to `node`'s worker, stamped with the driver's clock so
    /// the node's reaction merges after the driver's records.
    fn tell(&self, node: NodeId, ctrl: Ctrl<M>) {
        let s = self.shard_map[node.index()] as usize;
        let clock = self.clock.current();
        let _ = self.ctrls[s].send(WorkerMsg::Node { clock, node, ctrl });
        self.shared.wake(s);
    }

    /// Record each change and tell both of its ends what
    /// [`LinkChange::notices`] says.
    fn notify(&mut self, changes: Vec<LinkChange>) {
        for change in changes {
            let (change, notices) = change.notices(&self.world);
            self.record(match change {
                LinkChange::Up(a, b) => LiveEventKind::LinkUp { a, b },
                LinkChange::Down(a, b) => LiveEventKind::LinkDown { a, b },
            });
            for (node, ev) in notices {
                self.tell(node, Ctrl::Tell(ev));
            }
        }
    }

    /// Execute one command of the timeline, as `Engine::execute` does.
    fn execute(&mut self, cmd: &Command) {
        match *cmd {
            Command::Crash(node) if !self.world.is_crashed(node) => {
                // Sever first so no further traffic leaks, then tell the
                // victim. Peers are not told: a crash is silent.
                self.shared.set_down(node, true);
                self.world.crash(node);
                self.tell(node, Ctrl::Crash);
            }
            Command::Recover(node) if self.world.is_crashed(node) => {
                // The node restarts as a fresh incarnation first; then the
                // rejoin flap re-forms each link with the surviving peer
                // as the static (fork-owning) side, so no fork is
                // duplicated or lost across the crash.
                let flap = self.world.recover(node);
                self.shared.set_down(node, false);
                self.tell(node, Ctrl::Recover);
                self.notify(flap);
                self.recoveries += 1;
            }
            Command::Teleport { node, dest } if !self.world.is_crashed(node) => {
                // Record the relocation *before* the link records, so the
                // audit's mirror world updates its adjacency at the right
                // point in the total order.
                let (x, y) = (dest.x, dest.y);
                self.record(LiveEventKind::Relocate { node, x, y });
                self.tell(node, Ctrl::Tell(Event::MovementStarted));
                self.world.begin_motion(node, dest, 0.0);
                let changes = self.world.relocate(node, dest);
                self.notify(changes);
                self.world.end_motion(node);
                self.tell(node, Ctrl::Tell(Event::MovementEnded));
            }
            // A no-op on a crashed node, or a recovery of a live one.
            // `LiveConfig::validate` rejects every other command.
            _ => {}
        }
    }
}

/// Resolve the worker-pool size: explicit, or the host parallelism
/// (min 2 so cross-shard machinery is always exercised), capped at n.
fn resolve_workers(cfg: &LiveConfig, n: usize) -> usize {
    let LiveRuntime::Sharded { workers: requested } = cfg.runtime;
    let w = if requested == 0 {
        thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(2)
            .clamp(2, 16)
    } else {
        requested
    };
    w.min(n.max(1))
}

/// Run one live execution and validate its merged trace. The factory
/// runs on the calling thread (it need not be `Send`); the built
/// automata are shipped to workers.
pub(crate) fn run_sharded_with<P, F>(
    cfg: &LiveConfig,
    mut factory: F,
    tuning: ShardTuning,
) -> Result<LiveOutcome, String>
where
    P: Protocol + Send + 'static,
    P::Msg: WireMsg + Send,
    F: FnMut(&NodeSeed) -> P,
{
    let n = cfg.positions.len();
    let radio_range = SimConfig::default().radio_range;
    let world = World::new(
        radio_range,
        cfg.positions.iter().map(|&p| p.into()).collect(),
    );
    let max_degree = world.max_degree();
    let workers = resolve_workers(cfg, n);

    // Contiguous shard ranges: the first `n % workers` shards get one
    // extra node.
    let base_size = n / workers;
    let remainder = n % workers;
    let mut starts: Vec<usize> = Vec::with_capacity(workers + 1);
    let mut acc = 0;
    for s in 0..workers {
        starts.push(acc);
        acc += base_size + usize::from(s < remainder);
    }
    starts.push(acc);
    let mut shard_map: Vec<u32> = vec![0; n];
    for s in 0..workers {
        for item in shard_map.iter_mut().take(starts[s + 1]).skip(starts[s]) {
            *item = s as u32;
        }
    }
    let shard_map = Arc::new(shard_map);

    let crashes = cfg.schedules(|cmd| matches!(cmd, Command::Crash(_)));
    let shared = Arc::new(ShardShared::new(n, crashes));

    let mut links = Links::build(cfg.transport, workers, tuning.ring_capacity)?.into_iter();

    // Build every automaton (and the recovery spares) on this thread —
    // the factory is not shared with workers.
    let mut ctrls: Vec<Sender<WorkerMsg<P::Msg>>> = Vec::with_capacity(workers);
    let mut handles = Vec::with_capacity(workers);
    for s in 0..workers {
        let mut nodes = Vec::with_capacity(starts[s + 1] - starts[s]);
        for i in starts[s]..starts[s + 1] {
            let me = NodeId(i as u32);
            let seed = NodeSeed {
                id: me,
                neighbors: world.neighbors(me).to_vec(),
                n_nodes: n,
                max_degree,
            };
            let proto = factory(&seed);
            // One pre-built fresh incarnation per recovery of this node:
            // a recovering node rejoins with an empty neighborhood
            // (rejoin link-ups follow).
            let spares = cfg
                .commands
                .iter()
                .filter(|(_, cmd)| *cmd == Command::Recover(me))
                .map(|_| {
                    factory(&NodeSeed {
                        id: me,
                        neighbors: Vec::new(),
                        n_nodes: n,
                        max_degree,
                    })
                })
                .collect();
            nodes.push(ShardNode::new(
                me,
                proto,
                spares,
                seed.neighbors,
                cfg,
                shared.now_ns(),
            ));
        }
        let env = WorkerEnv {
            shard: s as u32,
            base: starts[s] as u32,
            workers,
            tick_ns: cfg.tick_ns,
            backpressure_wait_ms: tuning.backpressure_wait_ms,
            ring_capacity: tuning.ring_capacity,
            shard_map: shard_map.clone(),
        };
        let my_links = links.next().expect("links built per shard");
        let (ctx, crx) = channel();
        ctrls.push(ctx);
        let sh = shared.clone();
        handles.push(
            thread::Builder::new()
                .name(format!("lme-shard-{s}"))
                .spawn(move || worker_main(env, nodes, my_links, crx, sh))
                .map_err(|e| format!("failed to spawn shard worker {s}: {e}"))?,
        );
    }
    let _ = shared
        .wakers
        .set(handles.iter().map(|h| h.thread().clone()).collect());

    // The driver: its own clock and record stream (merged as the last
    // input).
    let mut driver = Driver {
        shared: &shared,
        shard_map: &shard_map,
        ctrls,
        tick_ns: cfg.tick_ns,
        clock: HybridClock::new(),
        records: Vec::new(),
        world,
        recoveries: 0,
    };
    // The timeline in nanoseconds. Saturating: an instant past the
    // representable range is "never", not a wrapped early one.
    let mut timeline: Vec<(u64, &Command)> = cfg
        .commands
        .iter()
        .map(|(at_ms, cmd)| (at_ms.saturating_mul(1_000_000), cmd))
        .collect();
    timeline.sort_by_key(|&(at, _)| at);

    let deadline_ns = cfg.duration_ms.saturating_mul(1_000_000);
    let mut next = 0;
    let mut quiesce_at: Option<u64> = None;
    loop {
        let now = shared.now_ns();
        while let Some(&(_, cmd)) = timeline.get(next).filter(|&&(at, _)| at <= now) {
            next += 1;
            driver.execute(cmd);
        }
        if now >= deadline_ns || shared.stop.load(Ordering::Relaxed) {
            break;
        }
        // One-shot runs end early once every node has finished a meal,
        // after a short drain window for trailing records.
        if cfg.one_shot && !crashes && shared.ate.load(Ordering::Relaxed) as usize >= n {
            let at = *quiesce_at.get_or_insert(now + 50_000_000);
            if now >= at {
                break;
            }
        }
        let next_at = timeline
            .get(next)
            .map_or(u64::MAX, |&(at, _)| at)
            .min(deadline_ns);
        if let Some(wait_ns) = park_ns(next_at.saturating_sub(shared.now_ns()), 5_000_000) {
            thread::sleep(Duration::from_nanos(wait_ns));
        }
    }

    for (s, c) in driver.ctrls.iter().enumerate() {
        let _ = c.send(WorkerMsg::Shutdown {
            clock: driver.clock.current(),
        });
        shared.wake(s);
    }
    let mut streams: Vec<Vec<StampedRecord>> = Vec::with_capacity(workers + 1);
    let mut counts = NetCounts::default();
    let mut threads_joined = 0;
    for (s, h) in handles.into_iter().enumerate() {
        let wire = h
            .join()
            .map_err(|_| format!("shard worker {s} panicked during the live run"))?;
        threads_joined += starts[s + 1] - starts[s];
        counts += wire.counts;
        streams.push(wire.records);
    }
    if let Some(abort) = shared.abort.lock().expect("abort slot").take() {
        return Err(format!("sharded runtime aborted: {abort}"));
    }
    streams.push(driver.records);
    let elapsed_ms = shared.now_ns() / 1_000_000;

    let trace = LiveTrace::from_merged(merge_stamped(streams));
    let audit = trace.audit_safety(radio_range, &cfg.positions);
    let verdict_ms = shared.now_ns() / 1_000_000 - elapsed_ms;
    Ok(LiveOutcome {
        trace,
        meals: audit.meals,
        latencies_ns: audit.latencies_ns,
        violations: audit.violations,
        messages_sent: counts.sent,
        messages_delivered: counts.delivered,
        decode_errors: counts.decode_errors,
        send_failures: counts.send_failures,
        retransmissions: counts.retransmissions,
        acks_sent: counts.acks_sent,
        timer_wakes: counts.timer_wakes,
        timer_late_ns: counts.timer_late_ns,
        recoveries: driver.recoveries,
        elapsed_ms,
        verdict_ms,
        threads_joined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_live;
    use harness::AlgKind;
    use local_mutex::Algorithm2;

    fn clique4() -> Vec<(f64, f64)> {
        vec![(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    }

    fn sharded_cfg() -> LiveConfig {
        let mut cfg = LiveConfig::new(AlgKind::A2, TransportKind::Mpsc, clique4());
        cfg.runtime = LiveRuntime::Sharded { workers: 2 };
        cfg.duration_ms = 300;
        cfg.rate = 60.0;
        cfg.eat_ms = 1;
        cfg
    }

    #[test]
    fn sharded_mpsc_run_is_safe_with_a_dense_merged_order() {
        let cfg = sharded_cfg();
        let out =
            run_sharded_with(&cfg, Algorithm2::new, ShardTuning::default()).expect("sharded run");
        assert_eq!(out.threads_joined, 4);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.total_meals() > 0, "nobody ate in 300 ms");
        assert_eq!(out.decode_errors, 0);
        assert!(out.messages_delivered > 0);
        for (i, r) in out.trace.records().iter().enumerate() {
            assert_eq!(r.order, i as u64, "merged ticket order must be dense");
        }
    }

    #[test]
    fn exhausted_ring_backpressure_is_a_structured_abort() {
        let cfg = sharded_cfg();
        let tuning = ShardTuning {
            ring_capacity: 0,
            backpressure_wait_ms: 0,
        };
        let err = run_sharded_with(&cfg, Algorithm2::new, tuning)
            .expect_err("zero-capacity rings must abort");
        assert!(
            err.contains("backpressure") && err.contains("ring"),
            "unexpected abort message: {err}"
        );
    }

    #[test]
    fn an_unrepresentably_late_recovery_never_fires() {
        // u64::MAX / 2 ms wraps when scaled to nanoseconds unchecked:
        // debug builds panic, release builds sort the recovery before the
        // crash and silently skip it.
        let mut cfg = sharded_cfg();
        cfg.commands = vec![
            (100, Command::Crash(NodeId(0))),
            (u64::MAX / 2, Command::Recover(NodeId(0))),
        ];
        let out = run_live(&cfg).expect("a far-future recovery is a legal config");
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.recoveries, 0, "recovery fired before the deadline");
        let crashed = out
            .trace
            .records()
            .iter()
            .any(|r| matches!(r.kind, LiveEventKind::Crash { node } if node == NodeId(0)));
        assert!(crashed, "the crash itself must still execute");
    }

    #[test]
    fn a_sent_batch_wakes_its_receiver_on_either_transport() {
        for transport in [TransportKind::Mpsc, TransportKind::Udp] {
            let shared = ShardShared::new(2, false);
            let _ = shared.wakers.set(vec![thread::current(); 2]);
            let mut links = Links::build(transport, 2, 4).expect("links");
            let env = WorkerEnv {
                shard: 0,
                base: 0,
                workers: 2,
                tick_ns: 100_000,
                backpressure_wait_ms: 0,
                ring_capacity: 4,
                shard_map: Arc::new(vec![0, 1]),
            };
            let mut out = Outbound::new(&env, transport == TransportKind::Udp);
            let mut wire = WireOut::<local_mutex::A2Msg>::new();
            let envelope = Envelope {
                from: NodeId(0),
                seq: 1,
                ack: 0,
                sent_ns: 0,
                msg: Some(local_mutex::A2Msg::Req),
            };
            out.push(1, NodeId(1), &envelope);
            // Spend any unpark token left over, so only the flush's counts.
            thread::park_timeout(Duration::ZERO);
            out.flush(&mut wire, &env, &mut links[0], &shared)
                .expect("one batch fits");
            assert_eq!(wire.counts.send_failures, 0);
            let parked = Instant::now();
            thread::park_timeout(Duration::from_secs(5));
            let woke = parked.elapsed();
            assert!(
                woke < Duration::from_secs(1),
                "{transport:?}: the receiver slept {woke:?} on a sent batch"
            );
        }
    }

    #[test]
    fn a_park_ends_the_timer_slack_short_of_its_deadline() {
        // (remaining, cap, park): the worker's 1 ms cap, then the driver's
        // 5 ms one, which has no floor.
        for (remaining, cap, park) in [
            (0, 1_000_000, None),
            (30_000, 1_000_000, Some(30_000)),
            (TIMER_SLACK_NS, 1_000_000, Some(TIMER_SLACK_NS)),
            (120_000, 1_000_000, Some(70_000)),
            (5_000_000, 1_000_000, Some(1_000_000)),
            (u64::MAX, 1_000_000, Some(1_000_000)),
            (0, 5_000_000, None),
            (100_000, 5_000_000, Some(50_000)),
            (5_000_000, 5_000_000, Some(4_950_000)),
            (9_000_000, 5_000_000, Some(5_000_000)),
        ] {
            assert_eq!(
                park_ns(remaining, cap),
                park,
                "{remaining} ns left, cap {cap}"
            );
        }
    }

    #[test]
    fn abort_display_mirrors_the_run_abort_style() {
        let a = ShardAbort::RingBackpressure {
            from_shard: 1,
            to_shard: 3,
            capacity: 64,
        };
        let s = a.to_string();
        assert!(s.contains("1->3") && s.contains("64"), "{s}");
    }
}
