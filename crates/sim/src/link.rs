//! The link layer: what becomes of one frame on one directed link, as a
//! sans-IO state machine.
//!
//! The paper gives every protocol reliable FIFO links whose delay never
//! exceeds ν. Everything else that happens to a frame between send and
//! arrival is this simulator's own machinery, and [`LinkLayer`] is the one
//! place it lives: the delay source, the channel model
//! ([`crate::channel`]), the fault adversary ([`crate::FaultPlan`]'s
//! per-frame half), the per-link FIFO clamp and the duplicate ghost. The
//! engine keeps the queue, dispatch, hooks, the ARQ hosts and the
//! strategy seam: it hands the layer a frame — with the injected
//! strategy's pick, if any — and queues whatever [`Fate`] comes back.
//!
//! Like [`crate::arq::GoBackN`], the layer has no clock, no queue and no
//! callback. The instant comes in with the [`Ledger`] the engine lends
//! each call, counters, trace records and the first abort are written to
//! it, and every call returns what changed.
//!
//! **Per-frame order** — the contract the goldens pin, per random stream
//! and per trace record (DESIGN.md §14):
//!
//! 1. *Delay source.* A strategy's pick is window-checked and clamped,
//!    and nothing is drawn. Otherwise, by model: i.i.d. — one main-stream
//!    draw; Gilbert–Elliott — the same draw, then a flip and a loss draw
//!    on the channel stream (a lost frame stops here); constant bandwidth
//!    — window check, evict, queue overflow (the frame stops here, before
//!    any fault draw), admit.
//! 2. *Fault adversary.* The max-delay adversary first (no draw; it only
//!    ever delays), then drop, duplicate, skew — one fault-stream draw
//!    each, a drop ending the chain.
//! 3. *FIFO.* The arrival is clamped above the link's floor; a ghost is
//!    clamped at `at + lag` and queued before its original.
//!
//! The shared medium runs window check, adversary (the max-delay
//! adversary *adds* ν), audibility overflow, then puts the flight(s) in
//! the air; a completed flight arrives at its completion plus that extra
//! delay, FIFO-clamped only if its incarnation is still current.
//!
//! Three streams, so that an unused model or an empty plan perturbs
//! nothing: the run's main stream (the i.i.d. draw and nothing else), the
//! fault stream ([`crate::FaultPlan::seed`], else a salt of the run seed)
//! and the channel stream (Gilbert–Elliott only).

use crate::channel::{Flight, Medium, Scan};
use crate::config::SimConfig;
use crate::engine::{EngineStats, RunAbort};
use crate::fault::{DelayAdversary, LinkFaults};
use crate::ids::NodeId;
use crate::links::LinkStore;
use crate::rng::SimRng;
use crate::time::SimTime;
use crate::trace::{Trace, TraceKind};

/// One frame on one directed link incarnation: what the queue holds
/// between send and arrival.
#[derive(Clone, Hash)]
pub(crate) struct Frame<W> {
    pub from: NodeId,
    pub to: NodeId,
    /// The incarnation the frame was sent on; a frame whose link flapped
    /// since dies in flight.
    pub link_epoch: u64,
    pub wire: W,
}

/// What became of one transmitted frame.
pub(crate) enum Fate<W> {
    /// Lost before the queue: to the channel, the adversary, or a full
    /// transmit queue (whose abort is in the ledger).
    Lost,
    /// Queue `frame` for `at`, after its duplicate `ghost` if the
    /// adversary made one.
    Arrives {
        at: SimTime,
        ghost: Option<SimTime>,
        frame: Frame<W>,
    },
    /// Shared medium: the frame is in the air; arm the completion scan.
    Flying(Option<Scan>),
}

/// The engine's side of one call: the instant, and where the layer writes
/// counters, trace records and the first abort.
pub(crate) struct Ledger<'a> {
    pub now: SimTime,
    pub stats: &'a mut EngineStats,
    pub trace: &'a mut Trace,
    pub abort: &'a mut Option<RunAbort>,
}

impl Ledger<'_> {
    fn record(&mut self, kind: TraceKind) {
        self.trace.record(self.now, kind);
    }

    fn duplicated(&mut self, from: NodeId, to: NodeId) {
        self.stats.faults.msgs_duplicated += 1;
        self.record(TraceKind::FaultDuplicate(from, to));
    }
}

/// The legal delay window `[earliest, latest]`; `latest` is ν.
#[derive(Clone, Copy)]
struct Window {
    earliest: u64,
    latest: u64,
}

impl Window {
    /// `delay` clamped into the window. A delay outside it — a malformed
    /// imported schedule or buggy policy (`who` = `"strategy"`), or a
    /// channel model whose frame time cannot fit — aborts the run, and the
    /// clamped frame still flies so the stopped engine stays coherent for
    /// inspection. (A silent clamp would reorder a replay while claiming
    /// conformance.)
    fn fit(self, who: &'static str, from: NodeId, to: NodeId, delay: u64, log: &mut Ledger) -> u64 {
        if delay < self.earliest || delay > self.latest {
            log.abort.get_or_insert(RunAbort::DelayOutOfWindow {
                channel: who,
                from,
                to,
                delay,
                earliest: self.earliest,
                latest: self.latest,
            });
        }
        delay.clamp(self.earliest, self.latest)
    }
}

/// A channel's bounded queue refused the frame: the run stops with a
/// structured abort, and the frame is lost before any fault draw.
fn overflow<W>(from: NodeId, to: NodeId, limit: usize, log: &mut Ledger) -> Fate<W> {
    log.abort
        .get_or_insert(RunAbort::ChannelQueueOverflow { from, to, limit });
    Fate::Lost
}

/// What the fault adversary decided about a frame it let through.
struct Verdict {
    /// The max-delay adversary charged ν against it.
    forced: bool,
    /// Extra delay of a skew fault (0 if none).
    skew: u64,
    /// Lag of the duplicate ghost, if one was made.
    ghost_lag: Option<u64>,
}

/// The per-frame half of the [`crate::FaultPlan`].
#[derive(Clone)]
struct Adversary {
    /// Dedicated stream, so an empty plan leaves every other stream —
    /// and so every pre-existing experiment — untouched.
    rng: SimRng,
    link: Option<LinkFaults>,
    max_delay: Option<DelayAdversary>,
    nu: u64,
}

impl Adversary {
    /// Judge one frame: the max-delay adversary first (no draw), then
    /// drop, duplicate, skew — one fault-stream draw each, in that order.
    /// `None`: dropped, and nothing further is drawn.
    fn judge(&mut self, from: NodeId, to: NodeId, log: &mut Ledger) -> Option<Verdict> {
        let now = log.now;
        let forced = self
            .max_delay
            .as_ref()
            .is_some_and(|da| da.applies(from, to, now));
        if forced {
            log.stats.faults.max_delay_forced += 1;
            log.record(TraceKind::FaultDelay(from, to));
        }
        let mut verdict = Verdict {
            forced,
            skew: 0,
            ghost_lag: None,
        };
        let Some(lf) = self.link.as_ref().filter(|lf| lf.applies(from, to, now)) else {
            return Some(verdict);
        };
        if self.rng.gen_bool(lf.rate(lf.drop, now)) {
            // Never handed to the network: the ledger counts it under
            // `faults.msgs_dropped` only.
            log.stats.faults.msgs_dropped += 1;
            log.record(TraceKind::FaultDrop(from, to));
            return None;
        }
        if self.rng.gen_bool(lf.rate(lf.duplicate, now)) {
            verdict.ghost_lag = Some(lf.dup_lag.unwrap_or(self.nu).max(1));
        }
        if self.rng.gen_bool(lf.rate(lf.skew, now)) {
            verdict.skew = lf.skew_ticks;
            log.stats.faults.msgs_delayed += 1;
            log.record(TraceKind::FaultDelay(from, to));
        }
        Some(verdict)
    }
}

/// The layer's own record of one directed link incarnation (a
/// [`LinkStore`] payload): a reconnected link inherits no arrival floor
/// and restarts its delivery numbering at 1.
#[derive(Clone, Copy, Debug, Default)]
struct FifoSlot {
    /// Last scheduled arrival, to enforce FIFO.
    floor: SimTime,
    /// Messages delivered so far (trace numbering).
    delivered: u64,
}

impl FifoSlot {
    /// Clamp an arrival above the floor and raise the floor to it.
    fn clamp(&mut self, at: SimTime) -> SimTime {
        self.floor = if at <= self.floor { self.floor + 1 } else { at };
        self.floor
    }
}

/// Everything that decides a frame's fate. See the module docs.
#[derive(Clone)]
pub(crate) struct LinkLayer<W> {
    window: Window,
    /// The run's main stream; its one use is the i.i.d. delay draw.
    rng: SimRng,
    adversary: Adversary,
    /// Link incarnations, with each one's FIFO floor and delivery
    /// numbering; [`LinkLayer::bump`] keeps the medium's stores in step.
    fifo: LinkStore<FifoSlot>,
    medium: Medium<W>,
}

impl<W: Clone> LinkLayer<W> {
    /// The layer of a run of `n` nodes under `cfg`.
    pub fn new(cfg: &SimConfig, n: usize) -> LinkLayer<W> {
        let fault_seed = match cfg.fault.seed {
            0 => cfg.seed ^ 0xFA01_7001_AD5E_ED00,
            seed => seed,
        };
        LinkLayer {
            window: Window {
                earliest: cfg.min_message_delay,
                latest: cfg.max_message_delay,
            },
            rng: SimRng::seed_from_u64(cfg.seed),
            adversary: Adversary {
                rng: SimRng::seed_from_u64(fault_seed),
                link: cfg.fault.link.clone(),
                max_delay: cfg.fault.max_delay.clone(),
                nu: cfg.max_message_delay,
            },
            fifo: LinkStore::new(),
            medium: Medium::new(&cfg.channel, cfg.seed, n),
        }
    }

    /// Current incarnation of the `a — b` link.
    pub fn incarnation(&self, a: NodeId, b: NodeId) -> u64 {
        self.fifo.incarnation(a, b)
    }

    /// The `a — b` link flapped: start its next incarnation. Frames in
    /// flight on the old one can never be delivered, and FIFO floors and
    /// channel state of both directions go stale at once.
    pub fn bump(&mut self, a: NodeId, b: NodeId) {
        self.fifo.bump(a, b);
        self.medium.bump(a, b);
    }

    /// Number of the delivery about to happen on `from → to`, counted
    /// from 1 within the incarnation.
    pub fn next_delivery(&mut self, from: NodeId, to: NodeId) -> u64 {
        let slot = self.fifo.get_mut(from, to);
        slot.delivered += 1;
        slot.delivered
    }

    /// FIFO floor of `from → to` in its current incarnation; `None` until
    /// the incarnation carries a frame.
    pub fn fifo_floor(&self, from: NodeId, to: NodeId) -> Option<SimTime> {
        self.fifo.get(from, to).map(|slot| slot.floor)
    }

    /// Decide the fate of `wire`, sent on `from → to` at `log.now`.
    /// `pick` is the injected strategy's delay, which bypasses the
    /// channel model; `hearers` are the sender's neighbours (the shared
    /// medium's audience). Hinted inline into the engine's send: without
    /// the hint `sim_static_a2` ran ≈ 6 % slower (2-CPU Xeon, rustc 1.95).
    #[inline]
    pub fn transmit(
        &mut self,
        from: NodeId,
        to: NodeId,
        wire: W,
        pick: Option<u64>,
        hearers: &[NodeId],
        log: &mut Ledger,
    ) -> Fate<W> {
        let now = log.now;
        let window = self.window;
        let delay = match (pick, &mut self.medium) {
            (Some(pick), _) => window.fit("strategy", from, to, pick, log),
            (None, Medium::Iid) => self.rng.gen_range(window.earliest..=window.latest),
            (None, Medium::Gilbert(chain)) => {
                let drawn = self.rng.gen_range(window.earliest..=window.latest);
                let (flipped, lost) = chain.step(from, to);
                log.stats.channel.burst_transitions += flipped as u64;
                if lost {
                    log.stats.channel.frames_lost += 1;
                    log.record(TraceKind::ChannelLoss(from, to));
                    return Fate::Lost;
                }
                drawn
            }
            (None, Medium::Bandwidth(link)) => {
                let frame = window.fit("constant-bandwidth", from, to, link.ticks_per_frame, log);
                match link.admit(now, from, to, frame, &mut log.stats.channel) {
                    Ok(delay) => delay,
                    Err(limit) => return overflow(from, to, limit, log),
                }
            }
            (None, Medium::Shared(medium)) => {
                let work = window.fit("shared-medium", from, to, medium.ticks_per_frame, log);
                let Some(verdict) = self.adversary.judge(from, to, log) else {
                    return Fate::Lost;
                };
                let span: Vec<NodeId> = hearers.iter().copied().chain([from]).collect();
                let depth = medium.audible(&span);
                if depth >= medium.max_inflight {
                    return overflow(from, to, medium.max_inflight, log);
                }
                let stats = &mut log.stats.channel;
                stats.frames_queued += (depth > 0) as u64;
                stats.queue_peak = stats.queue_peak.max(depth as u64 + 1);
                let extra = if verdict.forced { window.latest } else { 0 } + verdict.skew;
                let link_epoch = self.fifo.incarnation(from, to);
                let frame = Frame {
                    from,
                    to,
                    link_epoch,
                    wire,
                };
                let ghost = verdict.ghost_lag.map(|lag| {
                    log.duplicated(from, to);
                    Flight::new(frame.clone(), work, extra + lag, span.clone())
                });
                let flight = Flight::new(frame, work, extra, span);
                medium.enqueue(now, std::iter::once(flight).chain(ghost));
                return Fate::Flying(medium.scan(now));
            }
        };
        let Some(verdict) = self.adversary.judge(from, to, log) else {
            return Fate::Lost;
        };
        let mut at = now + delay;
        if verdict.forced {
            at = at.max(now + window.latest);
        }
        at += verdict.skew;
        let (link_epoch, slot) = self.fifo.entry(from, to);
        let at = slot.clamp(at);
        let ghost = verdict.ghost_lag.map(|lag| {
            log.duplicated(from, to);
            slot.clamp(at + lag)
        });
        Fate::Arrives {
            at,
            ghost,
            frame: Frame {
                from,
                to,
                link_epoch,
                wire,
            },
        }
    }

    /// The shared medium's completion scan of generation `gen` fired at
    /// `now`: every frame that completed, with its arrival, and the next
    /// scan to arm. A stale scan returns nothing. A frame whose
    /// incarnation died in the air keeps its stale epoch and is not
    /// clamped; it dies at dispatch like every other frame of a dead link.
    pub fn tick(&mut self, now: SimTime, gen: u64) -> (Vec<(SimTime, Frame<W>)>, Option<Scan>) {
        let Medium::Shared(medium) = &mut self.medium else {
            return (Vec::new(), None);
        };
        let Some(done) = medium.complete(now, gen) else {
            return (Vec::new(), None);
        };
        let arrivals = done
            .into_iter()
            .map(|flight| {
                let Frame { from, to, .. } = flight.frame;
                let mut at = now + flight.extra_delay;
                if self.fifo.incarnation(from, to) == flight.frame.link_epoch {
                    at = self.fifo.get_mut(from, to).clamp(at);
                }
                (at, flight.frame)
            })
            .collect();
        (arrivals, medium.scan(now))
    }

    /// Records held by the FIFO store and by the medium's per-link store.
    #[cfg(test)]
    pub fn records(&self) -> (usize, usize) {
        (self.fifo.len(), self.medium.records())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelConfig;
    use crate::fault::FaultPlan;

    const A: NodeId = NodeId(0);
    const B: NodeId = NodeId(1);

    /// The counters, trace and abort slot a test lends the layer.
    #[derive(Default)]
    struct Books {
        stats: EngineStats,
        trace: Trace,
        abort: Option<RunAbort>,
    }

    impl Books {
        fn new() -> Books {
            Books {
                trace: Trace {
                    enabled: true,
                    ..Trace::default()
                },
                ..Books::default()
            }
        }

        fn kinds(&self) -> Vec<TraceKind> {
            self.trace.entries.iter().map(|e| e.kind.clone()).collect()
        }
    }

    fn layer(channel: ChannelConfig, fault: FaultPlan) -> LinkLayer<u32> {
        let cfg = SimConfig {
            seed: 5,
            channel,
            fault,
            ..SimConfig::default()
        };
        LinkLayer::new(&cfg, 4)
    }

    fn faults(link: LinkFaults) -> FaultPlan {
        FaultPlan {
            link: Some(link),
            ..FaultPlan::default()
        }
    }

    /// Transmit `wire` on `A → B` at `now`, `A`'s only neighbour being `B`.
    fn send(
        layer: &mut LinkLayer<u32>,
        books: &mut Books,
        now: u64,
        wire: u32,
        pick: Option<u64>,
    ) -> Fate<u32> {
        let mut log = Ledger {
            now: SimTime(now),
            stats: &mut books.stats,
            trace: &mut books.trace,
            abort: &mut books.abort,
        };
        layer.transmit(A, B, wire, pick, &[B], &mut log)
    }

    /// How many raw draws `after` is ahead of `before` on the same stream.
    fn draws(before: &SimRng, after: &SimRng) -> usize {
        let mut rng = before.clone();
        for k in 0..16 {
            if &rng == after {
                return k;
            }
            rng.next_u64();
        }
        panic!("the stream moved more than 16 draws");
    }

    /// Main-stream and fault-stream draws one transmit makes.
    fn streams(layer: &mut LinkLayer<u32>, pick: Option<u64>) -> (usize, usize) {
        let (main, fault) = (layer.rng.clone(), layer.adversary.rng.clone());
        send(layer, &mut Books::new(), 1, 0, pick);
        (
            draws(&main, &layer.rng),
            draws(&fault, &layer.adversary.rng),
        )
    }

    #[test]
    fn each_delay_source_draws_from_its_own_streams_only() {
        // Zero probabilities still cost a draw each: the fault stream's
        // consumption is a pure function of the frames that reach it.
        let quiet = || faults(LinkFaults::default());
        let bandwidth = ChannelConfig::ConstantBandwidth {
            ticks_per_frame: 3,
            max_queue: 8,
        };
        let shared = ChannelConfig::SharedMedium {
            ticks_per_frame: 3,
            max_inflight: 8,
        };
        let chain = ChannelConfig::GilbertElliott {
            p_good_to_bad: 0.5,
            p_bad_to_good: 0.5,
            loss_good: 0.0,
            loss_bad: 0.0,
        };
        let iid = ChannelConfig::Iid;
        assert_eq!(streams(&mut layer(iid.clone(), quiet()), None), (1, 3));
        assert_eq!(
            streams(&mut layer(iid, quiet()), Some(4)),
            (0, 3),
            "strategy"
        );
        assert_eq!(
            streams(&mut layer(bandwidth.clone(), quiet()), None),
            (0, 3)
        );
        assert_eq!(streams(&mut layer(bandwidth, quiet()), Some(4)), (0, 3));
        assert_eq!(streams(&mut layer(shared, quiet()), None), (0, 3));
        // Gilbert–Elliott: the i.i.d. draw, then two channel-stream draws —
        // the layer's chain and a twin stepped twice stay in lockstep.
        let mut gilbert = layer(chain.clone(), quiet());
        assert_eq!(streams(&mut gilbert, None), (1, 3));
        let Medium::Gilbert(mut twin) = Medium::<u32>::new(&chain, 5, 4) else {
            unreachable!()
        };
        twin.step(A, B);
        let Medium::Gilbert(ours) = &mut gilbert.medium else {
            unreachable!()
        };
        for _ in 0..64 {
            assert_eq!(ours.step(A, B), twin.step(A, B));
        }
        // A frame the chain loses gets no fault draws.
        let lossy = ChannelConfig::GilbertElliott {
            p_good_to_bad: 0.5,
            p_bad_to_good: 0.5,
            loss_good: 1.0,
            loss_bad: 1.0,
        };
        let mut gilbert = layer(lossy, quiet());
        assert_eq!(streams(&mut gilbert, None), (1, 0));
    }

    #[test]
    fn the_adversary_records_max_delay_then_skew_then_the_ghost() {
        let mut plan = faults(LinkFaults {
            duplicate: 1.0,
            skew: 1.0,
            skew_ticks: 5,
            ..LinkFaults::default()
        });
        plan.max_delay = Some(DelayAdversary {
            targets: vec![A],
            window: None,
        });
        let mut layer = layer(ChannelConfig::Iid, plan);
        let mut books = Books::new();
        let Fate::Arrives { at, ghost, .. } = send(&mut layer, &mut books, 1, 0, None) else {
            panic!("frame lost");
        };
        // Forced to ν, then skewed past it; the ghost trails by ν.
        assert_eq!((at, ghost), (SimTime(1 + 10 + 5), Some(SimTime(16 + 10))));
        assert_eq!(
            books.kinds(),
            [
                TraceKind::FaultDelay(A, B),
                TraceKind::FaultDelay(A, B),
                TraceKind::FaultDuplicate(A, B),
            ]
        );
        let faults = &books.stats.faults;
        assert_eq!(
            (
                faults.max_delay_forced,
                faults.msgs_delayed,
                faults.msgs_duplicated
            ),
            (1, 1, 1)
        );
    }

    #[test]
    fn fault_draws_go_drop_then_duplicate_then_skew() {
        // Read the fault stream's next three draws, then set each fault's
        // probability just above (drop: exactly at) the draw it should
        // consume: all three decide as planned only in the contract order.
        let mut layer = layer(ChannelConfig::Iid, FaultPlan::default());
        let mut rng = layer.adversary.rng.clone();
        let [drop, duplicate, skew] = [(); 3].map(|_| rng.gen_f64());
        layer.adversary.link = Some(LinkFaults {
            drop,
            duplicate: duplicate + 1e-12,
            skew: skew + 1e-12,
            skew_ticks: 5,
            ..LinkFaults::default()
        });
        let mut books = Books::new();
        assert!(matches!(
            send(&mut layer, &mut books, 1, 0, None),
            Fate::Arrives { ghost: Some(_), .. }
        ));
        let faults = &books.stats.faults;
        assert_eq!(
            (
                faults.msgs_dropped,
                faults.msgs_duplicated,
                faults.msgs_delayed
            ),
            (0, 1, 1)
        );
    }

    #[test]
    fn a_dropped_frame_stops_the_chain() {
        let mut layer = layer(
            ChannelConfig::Iid,
            faults(LinkFaults {
                drop: 1.0,
                duplicate: 1.0,
                skew: 1.0,
                skew_ticks: 5,
                ..LinkFaults::default()
            }),
        );
        let fault = layer.adversary.rng.clone();
        let mut books = Books::new();
        assert!(matches!(
            send(&mut layer, &mut books, 1, 0, None),
            Fate::Lost
        ));
        assert_eq!(draws(&fault, &layer.adversary.rng), 1, "only the drop draw");
        assert_eq!(books.kinds(), [TraceKind::FaultDrop(A, B)]);
        let faults = &books.stats.faults;
        assert_eq!(
            (
                faults.msgs_dropped,
                faults.msgs_duplicated,
                faults.msgs_delayed
            ),
            (1, 0, 0)
        );
        assert_eq!(layer.fifo_floor(A, B), None, "never reached the link");
    }

    #[test]
    fn a_ghost_trails_its_original_and_raises_the_fifo_floor() {
        let mut layer = layer(
            ChannelConfig::Iid,
            faults(LinkFaults {
                duplicate: 1.0,
                dup_lag: Some(25),
                ..LinkFaults::default()
            }),
        );
        let mut books = Books::new();
        let Fate::Arrives {
            at,
            ghost: Some(ghost),
            frame,
        } = send(&mut layer, &mut books, 1, 7, None)
        else {
            panic!("no ghost");
        };
        assert_eq!((frame.wire, frame.link_epoch), (7, 0));
        assert!(ghost >= at + 25, "{at:?} {ghost:?}");
        assert_eq!(layer.fifo_floor(A, B), Some(ghost));
        // Later traffic on the link arrives after the ghost, not just after
        // the original.
        let Fate::Arrives { at: next, .. } = send(&mut layer, &mut books, 2, 8, Some(1)) else {
            panic!("frame lost");
        };
        assert!(next > ghost, "{next:?} overtook the ghost at {ghost:?}");
    }

    #[test]
    fn a_full_bandwidth_queue_drops_the_frame_before_any_fault_draw() {
        let mut layer = layer(
            ChannelConfig::ConstantBandwidth {
                ticks_per_frame: 3,
                max_queue: 1,
            },
            faults(LinkFaults::default()),
        );
        let mut books = Books::new();
        let Fate::Arrives { at, .. } = send(&mut layer, &mut books, 1, 0, None) else {
            panic!("first frame lost");
        };
        assert_eq!(at, SimTime(4));
        let fault = layer.adversary.rng.clone();
        assert!(matches!(
            send(&mut layer, &mut books, 2, 1, None),
            Fate::Lost
        ));
        assert_eq!(draws(&fault, &layer.adversary.rng), 0);
        assert_eq!(
            books.abort,
            Some(RunAbort::ChannelQueueOverflow {
                from: A,
                to: B,
                limit: 1,
            })
        );
        // Once the first frame has left the link, the queue admits again.
        assert!(matches!(
            send(&mut layer, &mut books, 4, 2, None),
            Fate::Arrives { .. }
        ));
    }

    #[test]
    fn the_max_delay_adversary_only_ever_delays() {
        let mut layer = layer(
            ChannelConfig::ConstantBandwidth {
                ticks_per_frame: 3,
                max_queue: 64,
            },
            FaultPlan {
                max_delay: Some(DelayAdversary {
                    targets: vec![A],
                    window: None,
                }),
                ..FaultPlan::default()
            },
        );
        let mut books = Books::new();
        let (send_at, nu) = (1, 10);
        let mut last = SimTime::ZERO;
        for k in 0..8u64 {
            let Fate::Arrives { at, .. } = send(&mut layer, &mut books, send_at, k as u32, None)
            else {
                panic!("frame {k} lost");
            };
            // Never before its own serialization completes, never before ν,
            // always after the frame ahead of it.
            assert!(
                at.0 >= send_at + 3 * (k + 1) && at.0 >= send_at + nu && at > last,
                "{k}: {at:?}"
            );
            last = at;
        }
        assert_eq!(books.stats.faults.max_delay_forced, 8);
    }

    #[test]
    fn a_shared_flight_on_a_dead_incarnation_keeps_its_stale_epoch() {
        let mut layer = layer(
            ChannelConfig::SharedMedium {
                ticks_per_frame: 4,
                max_inflight: 8,
            },
            FaultPlan::default(),
        );
        let mut books = Books::new();
        let Fate::Flying(Some(scan)) = send(&mut layer, &mut books, 0, 9, None) else {
            panic!("not in the air");
        };
        assert_eq!(scan.at, SimTime(4));
        layer.bump(A, B);
        let (none, rescan) = layer.tick(scan.at, scan.gen - 1);
        assert!(
            none.is_empty() && rescan.is_none(),
            "a stale scan is a no-op"
        );
        let (arrivals, rescan) = layer.tick(scan.at, scan.gen);
        assert_eq!(rescan, None, "the medium is idle");
        let [(at, frame)] = &arrivals[..] else {
            panic!("{} arrivals", arrivals.len());
        };
        assert_eq!((*at, frame.link_epoch, frame.wire), (SimTime(4), 0, 9));
        assert_eq!(layer.incarnation(A, B), 1);
        assert_eq!(
            layer.fifo_floor(A, B),
            None,
            "the live incarnation is untouched"
        );
    }
}
