//! Adapters the traced run puts around public seams: a [`Timed`] protocol
//! around `on_event`, a [`TimedHook`] around every hook callback, and the
//! calibration that removes the clock's own cost from what they measure.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use manet_sim::{Context, DiningState, Event, Hook, NodeId, Protocol, Sink, View};

/// Busy nanoseconds and calls of one kind of timed work.
#[derive(Clone, Copy, Default)]
pub struct Busy {
    pub ns: u64,
    pub calls: u64,
}

impl Busy {
    fn add(&mut self, since: Instant) {
        self.ns += since.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    pub fn merge(&mut self, other: Busy) {
        self.ns += other.ns;
        self.calls += other.calls;
    }

    /// Busy time with the clock reads that fall inside each timed interval
    /// taken out.
    pub fn net_ns(self, clock: ClockCost) -> f64 {
        (self.ns as f64 - self.calls as f64 * clock.inside_ns).max(0.0)
    }
}

/// What one `Instant::now()` … `elapsed()` pair costs on this host.
#[derive(Clone, Copy)]
pub struct ClockCost {
    /// The two reads back to back (a timed call costs more in place, where
    /// it also serializes the pipeline around the work it brackets).
    pub pair_ns: f64,
    /// The part of it that lands inside the measured interval.
    pub inside_ns: f64,
}

impl ClockCost {
    pub fn calibrate() -> ClockCost {
        const ROUNDS: u64 = 1_000_000;
        let mut busy = Busy::default();
        let start = Instant::now();
        for _ in 0..ROUNDS {
            busy.add(std::hint::black_box(Instant::now()));
        }
        let total = start.elapsed().as_nanos() as f64;
        ClockCost {
            pair_ns: total / ROUNDS as f64,
            inside_ns: busy.ns as f64 / ROUNDS as f64,
        }
    }
}

/// The kinds of event a handler's time is split by.
#[derive(Clone, Copy, Default)]
pub struct HandlerClock {
    pub message: Busy,
    pub timer: Busy,
    /// `LinkUp` and `LinkDown`.
    pub link: Busy,
    /// `Hungry`, `ExitCs` and the movement notifications.
    pub app: Busy,
}

impl HandlerClock {
    pub fn merge(&mut self, other: &HandlerClock) {
        self.message.merge(other.message);
        self.timer.merge(other.timer);
        self.link.merge(other.link);
        self.app.merge(other.app);
    }

    pub fn total(&self) -> Busy {
        let mut all = self.message;
        all.merge(self.timer);
        all.merge(self.link);
        all.merge(self.app);
        all
    }
}

/// A protocol that times its inner protocol's `on_event`, per event kind.
/// Everything else passes through, so the engine cannot tell the two apart.
pub struct Timed<P> {
    inner: P,
    pub clock: HandlerClock,
    /// Messages handed to this node, by `Protocol::msg_kind` (a handful of
    /// kinds, so a scan beats a map).
    pub received: Vec<(&'static str, u64)>,
}

impl<P> Timed<P> {
    pub fn new(inner: P) -> Timed<P> {
        Timed {
            inner,
            clock: HandlerClock::default(),
            received: Vec::new(),
        }
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;

    fn on_event(&mut self, ev: Event<P::Msg>, ctx: &mut Context<'_, P::Msg>) {
        let slot = match &ev {
            Event::Message { msg, .. } => {
                let kind = P::msg_kind(msg);
                match self.received.iter_mut().find(|(k, _)| *k == kind) {
                    Some((_, count)) => *count += 1,
                    None => self.received.push((kind, 1)),
                }
                &mut self.clock.message
            }
            Event::Timer { .. } => &mut self.clock.timer,
            Event::LinkUp { .. } | Event::LinkDown { .. } => &mut self.clock.link,
            Event::Hungry | Event::ExitCs | Event::MovementStarted | Event::MovementEnded => {
                &mut self.clock.app
            }
        };
        let since = Instant::now();
        self.inner.on_event(ev, ctx);
        slot.add(since);
    }

    fn dining_state(&self) -> DiningState {
        self.inner.dining_state()
    }

    fn msg_kind(msg: &P::Msg) -> &'static str {
        P::msg_kind(msg)
    }

    fn state_digest(&self) -> Option<u64> {
        self.inner.state_digest()
    }

    fn progress_digest(&self) -> Option<u64> {
        self.inner.progress_digest()
    }
}

/// Shared busy counters of one timed hook (the engine owns the hook box, so
/// the caller keeps this handle).
#[derive(Default)]
pub struct HookClock {
    all: Cell<Busy>,
    quantum: Cell<Busy>,
}

impl HookClock {
    /// Every callback of the hook.
    pub fn all(&self) -> Busy {
        self.all.get()
    }

    /// `on_quantum_end` alone.
    pub fn quantum(&self) -> Busy {
        self.quantum.get()
    }
}

/// A hook that times the callbacks of its inner hook.
pub struct TimedHook<H> {
    inner: H,
    clock: Rc<HookClock>,
    /// `on_deliver` fires once per message on every hook. Timing it on a
    /// hook that does not override it would cost two clock reads per
    /// message to measure nothing, so the caller says whether the hook does.
    times_deliver: bool,
}

impl<H> TimedHook<H> {
    pub fn new(inner: H, times_deliver: bool) -> (TimedHook<H>, Rc<HookClock>) {
        let clock = Rc::new(HookClock::default());
        (
            TimedHook {
                inner,
                clock: clock.clone(),
                times_deliver,
            },
            clock,
        )
    }

    fn timed(&mut self, call: impl FnOnce(&mut H)) {
        let since = Instant::now();
        call(&mut self.inner);
        let mut busy = self.clock.all.get();
        busy.add(since);
        self.clock.all.set(busy);
    }
}

impl<M, H: Hook<M>> Hook<M> for TimedHook<H> {
    fn on_state_change(
        &mut self,
        view: &View<'_>,
        node: NodeId,
        old: DiningState,
        new: DiningState,
        sink: &mut Sink,
    ) {
        self.timed(|h| h.on_state_change(view, node, old, new, sink));
    }

    fn on_quantum_end(&mut self, view: &View<'_>, sink: &mut Sink) {
        let since = Instant::now();
        self.inner.on_quantum_end(view, sink);
        for slot in [&self.clock.quantum, &self.clock.all] {
            let mut busy = slot.get();
            busy.add(since);
            slot.set(busy);
        }
    }

    fn on_link_up(&mut self, view: &View<'_>, a: NodeId, b: NodeId, sink: &mut Sink) {
        self.timed(|h| h.on_link_up(view, a, b, sink));
    }

    fn on_link_down(&mut self, view: &View<'_>, a: NodeId, b: NodeId, sink: &mut Sink) {
        self.timed(|h| h.on_link_down(view, a, b, sink));
    }

    fn on_crash(&mut self, view: &View<'_>, node: NodeId, sink: &mut Sink) {
        self.timed(|h| h.on_crash(view, node, sink));
    }

    fn on_recover(&mut self, view: &View<'_>, node: NodeId, sink: &mut Sink) {
        self.timed(|h| h.on_recover(view, node, sink));
    }

    fn on_move(&mut self, view: &View<'_>, node: NodeId, started: bool, sink: &mut Sink) {
        self.timed(|h| h.on_move(view, node, started, sink));
    }

    fn on_deliver(&mut self, view: &View<'_>, from: NodeId, to: NodeId, msg: &M, sink: &mut Sink) {
        if self.times_deliver {
            self.timed(|h| h.on_deliver(view, from, to, msg, sink));
        } else {
            self.inner.on_deliver(view, from, to, msg, sink);
        }
    }
}

/// The dispatch-bound floor: handlers that do almost nothing, so wall time
/// is queue push, pop and dispatch (the shape `lme bench engine` measures).
pub struct Ticker {
    token: u64,
    pings: u64,
}

impl Ticker {
    pub fn new() -> Ticker {
        Ticker { token: 0, pings: 0 }
    }
}

impl Protocol for Ticker {
    type Msg = u8;

    fn on_event(&mut self, ev: Event<u8>, ctx: &mut Context<'_, u8>) {
        match ev {
            // Four timer chains per node keep the pending set a few times n.
            Event::Hungry => (0..4).for_each(|lane| ctx.set_timer(1 + lane, lane)),
            Event::Timer { token } => {
                self.token = self.token.wrapping_add(1);
                ctx.set_timer(1 + (self.token & 7), token);
                // A ping on a quarter of the firings keeps delivery honest.
                if self.token & 3 == 0 {
                    let nbrs = ctx.neighbors();
                    if let Some(&to) = nbrs.get(self.token as usize % nbrs.len().max(1)) {
                        ctx.send(to, 0);
                    }
                }
            }
            Event::Message { .. } => self.pings = self.pings.wrapping_add(1),
            _ => {}
        }
    }

    fn dining_state(&self) -> DiningState {
        DiningState::Thinking
    }
}
