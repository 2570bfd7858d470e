//! Algorithm 1: local mutual exclusion with recoloring and doorway-guarded
//! fork collection (Chapter 5 of the paper).
//!
//! The algorithm pipelines two modules, each behind a double doorway
//! (Figure 5):
//!
//! 1. the **recoloring module** — run by a hungry node that moved into a new
//!    neighborhood, behind the double doorway `AD^r`/`SD^r`; it picks a new
//!    legal (negative) color via one of the procedures of
//!    [`crate::recolor`];
//! 2. the **fork collection module** — behind the double doorway
//!    `AD^f`/`SD^f` *with a return path*; a node first collects the forks
//!    shared with its *low* neighbors (smaller color ⇒ higher priority),
//!    then its *high* forks, suspending lower-priority requests while it
//!    holds all low forks.
//!
//! The doorways interleave: a recolored node crosses `AD^f` *before*
//! exiting `SD^r`/`AD^r` (this ordering, plus FIFO links, is what makes
//! Lemma 4's legality argument work). A node that did not move since it last
//! ate skips the first double doorway entirely and enters at `AD^f`.
//!
//! Mobility handling follows Algorithm 3: on arriving in a new neighborhood
//! a node abandons every doorway, releases suspended forks, demotes itself
//! from eating to hungry, waits for each new static neighbor's
//! ⟨update-color, L⟩ summary, and then (when hungry) restarts at `AD^r`.
//! A node that loses a low neighbor holding their shared fork while behind
//! `SD^f` takes the **return path**: it exits `SD^f`, releases suspended
//! forks, and re-executes the `SD^f` entry code (the Figure 6 scenario).
//!
//! A neighbour's colour (⊥ until a `Hello` or `update-color` names it)
//! lives in its fork record, and the neighbours whose ⟨update-color, L⟩
//! summary is still awaited form a [`NeighborSet`], so the request and
//! release loops walk one record per neighbour and nothing is allocated per
//! event.

use std::sync::Arc;

use coloring::{smallest_free_color, LinialSchedule};
use doorway::{Doorway, DoorwayKind, DoorwayMsg, DoorwaySet, DoorwayTag};
use manet_sim::{
    Context, DiningState, Event, LinkUpKind, NeighborSet, NodeId, NodeSeed, Obs, Protocol, SimTime,
};

use crate::forks::ForkTable;
use crate::message::{A1Msg, RecolorMsg};
use crate::recolor::{
    GreedyRecolor, LinialRecolor, RandomizedRecolor, RecolorOutcome, RecolorProcedure,
};

/// Tag of the recoloring module's asynchronous doorway `AD^r`.
pub const ADR: DoorwayTag = DoorwayTag::new(0);
/// Tag of the recoloring module's synchronous doorway `SD^r`.
pub const SDR: DoorwayTag = DoorwayTag::new(1);
/// Tag of the fork module's asynchronous doorway `AD^f`.
pub const ADF: DoorwayTag = DoorwayTag::new(2);
/// Tag of the fork module's synchronous doorway `SD^f`.
pub const SDF: DoorwayTag = DoorwayTag::new(3);

/// Which recoloring procedure the algorithm runs (Section 5.4, plus the
/// randomized extension from the Discussion chapter).
#[derive(Clone, Debug, Hash)]
pub enum RecolorConfig {
    /// The simple greedy procedure (Algorithm 4): no knowledge of `n`/δ,
    /// failure locality `n`, recoloring time `O(n)`.
    Greedy,
    /// Linial-style fast coloring (Algorithm 5) over the shared schedule:
    /// requires `(n, δ)`, failure locality `O(log* n)`.
    Linial(Arc<LinialSchedule>),
    /// Randomized Kuhn–Wattenhofer-style color reduction (Discussion
    /// chapter): needs only a bound on δ; `O(log n)` rounds whp.
    Randomized {
        /// Upper bound on the maximum degree (sizes the color palette).
        delta_bound: u64,
        /// Seed for the per-node candidate streams.
        seed: u64,
    },
    /// Never recolor, not even after moving: the installed coloring stays
    /// for the whole run. This is the Choy–Singh-style static-color
    /// baseline; colors may become illegal under mobility, which degrades
    /// liveness but never safety.
    Never,
}

/// Where the node is in the Figure 5 pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Thinking, outside all doorways.
    Idle,
    /// Arrived in a new neighborhood; waiting for ⟨update-color, L⟩ from
    /// each new static neighbor (Algorithm 3, Line 53).
    AwaitInfo,
    /// Executing the entry code of `AD^r`.
    EnterAdr,
    /// Executing the entry code of `SD^r`.
    EnterSdr,
    /// Running the recoloring procedure behind `SD^r`.
    Recoloring,
    /// Executing the entry code of `AD^f` (still behind `SD^r`/`AD^r` when
    /// coming from recoloring).
    EnterAdf,
    /// Executing the entry code of `SD^f`.
    EnterSdf,
    /// Behind `SD^f`: collecting forks, then eating.
    Collecting,
}

impl Phase {
    /// Short human-readable name (used by the phase-breakdown experiment).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Idle => "idle",
            Phase::AwaitInfo => "await-info",
            Phase::EnterAdr => "enter-ADr",
            Phase::EnterSdr => "enter-SDr",
            Phase::Recoloring => "recoloring",
            Phase::EnterAdf => "enter-ADf",
            Phase::EnterSdf => "enter-SDf",
            Phase::Collecting => "collecting",
        }
    }
}

/// One node of Algorithm 1. Implements [`Protocol`] for the simulator.
#[derive(Debug, Hash)]
pub struct Algorithm1 {
    me: NodeId,
    state: DiningState,
    my_color: i64,
    /// Fork records whose `ext` is the neighbour's colour, `None` (⊥) on a
    /// new link until it is told.
    forks: ForkTable<Option<i64>>,
    adr: Doorway,
    sdr: Doorway,
    adf: Doorway,
    sdf: Doorway,
    phase: Phase,
    needs_recolor: bool,
    pending_info: NeighborSet,
    recolor_cfg: RecolorConfig,
    active_proc: Option<Box<dyn RecolorProcedure>>,
    /// Timestamped phase transitions (only when `record_phases`).
    pub phase_log: Vec<(SimTime, Phase)>,
    /// Record phase transitions into [`Algorithm1::phase_log`].
    pub record_phases: bool,
    /// Ablation switch: when false, the `SD^f` return path (Lines 59–60)
    /// is disabled — a node that loses a low neighbor holding their shared
    /// fork stays behind the doorway. The Figure 6 scenario then leaves
    /// `p2` blocked forever after `p3` departs, which is exactly why the
    /// paper added the return path.
    pub return_path_enabled: bool,
    /// Mutation knob for the model checker's sanity suite: when false, the
    /// `behind SD^f` status check of request arbitration (Lines 10–16) is
    /// ignored — the node arbitrates every fork request as if it were
    /// outside the doorway, so a collecting or even *eating* node hands its
    /// forks away on demand. This deliberately breaks local mutual
    /// exclusion; `lme check` must find a witness for it. Never disabled on
    /// production paths.
    pub sdf_guard_enabled: bool,
}

/// A known colour below `mine`: the neighbour has priority (it is *low*).
fn below(color: &Option<i64>, mine: i64) -> bool {
    color.is_some_and(|c| c < mine)
}

/// A known colour above `mine`: the neighbour is *high*.
fn above(color: &Option<i64>, mine: i64) -> bool {
    color.is_some_and(|c| c > mine)
}

impl Algorithm1 {
    /// Build a node from its simulator seed. Initial colors are the node
    /// IDs — always legal; nodes converge to `[0, δ]` colors as they eat.
    pub fn new(seed: &NodeSeed, recolor_cfg: RecolorConfig) -> Algorithm1 {
        Algorithm1 {
            me: seed.id,
            state: DiningState::Thinking,
            my_color: i64::from(seed.id.0),
            forks: ForkTable::with(seed.id, &seed.neighbors, |j| Some(i64::from(j.0))),
            adr: Doorway::new(ADR, DoorwayKind::Asynchronous),
            sdr: Doorway::new(SDR, DoorwayKind::Synchronous),
            adf: Doorway::new(ADF, DoorwayKind::Asynchronous),
            sdf: Doorway::new(SDF, DoorwayKind::Synchronous),
            phase: Phase::Idle,
            needs_recolor: false,
            pending_info: NeighborSet::new(),
            recolor_cfg,
            active_proc: None,
            phase_log: Vec::new(),
            record_phases: false,
            return_path_enabled: true,
            sdf_guard_enabled: true,
        }
    }

    /// Override this node's current color (used to install a precomputed
    /// legal coloring, e.g. for the Choy–Singh baseline). Must be called
    /// before the simulation starts; neighbor color maps are updated by the
    /// caller installing the same coloring on every node.
    pub fn set_initial_coloring(&mut self, colors: &[i64]) {
        self.my_color = colors[self.me.index()];
        for (j, c) in self.forks.exts_mut() {
            *c = Some(colors[j.index()]);
        }
    }

    /// The greedy-recoloring variant (Theorem 16).
    pub fn greedy(seed: &NodeSeed) -> Algorithm1 {
        Algorithm1::new(seed, RecolorConfig::Greedy)
    }

    /// The Linial-recoloring variant (Theorem 22); the schedule must be the
    /// shared one computed from `(n, δ)`.
    pub fn linial(seed: &NodeSeed, schedule: Arc<LinialSchedule>) -> Algorithm1 {
        Algorithm1::new(seed, RecolorConfig::Linial(schedule))
    }

    /// The randomized-recoloring variant (Discussion chapter): needs only a
    /// bound on δ.
    pub fn randomized(seed: &NodeSeed, delta_bound: u64, rng_seed: u64) -> Algorithm1 {
        Algorithm1::new(
            seed,
            RecolorConfig::Randomized {
                delta_bound,
                seed: rng_seed,
            },
        )
    }

    /// Make this node run the recoloring module before its first critical
    /// section, as the paper prescribes for initialization ("the recoloring
    /// module is also executed by each node in order to obtain an initial
    /// color"). Without this, nodes start from their (always legal) ID
    /// colors and only recolor after moving. A [`RecolorConfig::Never`]
    /// node ignores it.
    pub fn require_initial_recoloring(&mut self) {
        self.needs_recolor = self.recolors();
    }

    fn recolors(&self) -> bool {
        !matches!(self.recolor_cfg, RecolorConfig::Never)
    }

    /// This node's current color.
    pub fn color(&self) -> i64 {
        self.my_color
    }

    /// This node's current pipeline phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Whether this node currently holds the fork shared with `j`
    /// (observability for tests and experiments).
    pub fn holds_fork(&self, j: NodeId) -> bool {
        self.forks.holds(j)
    }

    /// Neighbors whose fork requests are currently suspended (the paper's
    /// set `S`; observability for tests and experiments).
    pub fn suspended_requests(&self) -> Vec<NodeId> {
        self.forks.suspended().collect()
    }

    // -- predicates --------------------------------------------------------

    fn is_low(&self, j: NodeId) -> bool {
        self.forks.ext(j).is_some_and(|c| below(c, self.my_color))
    }

    fn is_high(&self, j: NodeId) -> bool {
        self.forks.ext(j).is_some_and(|c| above(c, self.my_color))
    }

    fn behind_sdf(&self) -> bool {
        self.sdf.is_behind()
    }

    fn all_forks(&self) -> bool {
        self.forks.all_where(|_| true)
    }

    fn all_low_forks(&self) -> bool {
        self.forks.all_where(|c| below(c, self.my_color))
    }

    fn status_set(&self) -> DoorwaySet {
        [&self.adr, &self.sdr, &self.adf, &self.sdf]
            .into_iter()
            .filter(|d| d.is_behind())
            .map(Doorway::tag)
            .collect()
    }

    fn doorway_mut(&mut self, tag: DoorwayTag) -> &mut Doorway {
        match tag {
            ADR => &mut self.adr,
            SDR => &mut self.sdr,
            ADF => &mut self.adf,
            SDF => &mut self.sdf,
            _ => panic!("unknown doorway tag {tag:?}"),
        }
    }

    fn each_doorway(&mut self) -> [&mut Doorway; 4] {
        [&mut self.adr, &mut self.sdr, &mut self.adf, &mut self.sdf]
    }

    fn set_phase(&mut self, phase: Phase, now: SimTime) {
        if self.phase != phase {
            self.phase = phase;
            if self.record_phases {
                self.phase_log.push((now, phase));
            }
        }
    }

    // -- fork plumbing -----------------------------------------------------

    fn send_fork(&mut self, j: NodeId, ctx: &mut Context<'_, A1Msg>) {
        // Line 31: ask for the fork back iff it is a low fork relinquished
        // while competing behind SD^f.
        let flag = self.is_low(j) && self.behind_sdf();
        let gen = self.forks.sent(j);
        ctx.send(j, A1Msg::Fork { flag, gen });
    }

    /// Grant the suspended requests whose forks this node holds: every one,
    /// or only those of high neighbors when `high_only` (Lines 33–35).
    fn release(&mut self, high_only: bool, ctx: &mut Context<'_, A1Msg>) {
        let (mine, behind) = (self.my_color, self.behind_sdf());
        // Line 31, as in `send_fork`.
        let grant = |j, c: &Option<i64>, gen| {
            let flag = below(c, mine) && behind;
            ctx.send(j, A1Msg::Fork { flag, gen });
        };
        self.forks
            .release_where(|c| !high_only || above(c, mine), grant);
    }

    /// Lines 1–4 / 17–23 request driver: (re-)issue requests appropriate to
    /// the current holdings; promote to eating when all forks are in.
    fn kick_collection(&mut self, ctx: &mut Context<'_, A1Msg>) {
        if self.phase != Phase::Collecting || self.state != DiningState::Hungry {
            return;
        }
        if self.all_forks() {
            self.state = DiningState::Eating;
            return;
        }
        // Low forks first; the high ones once every low fork is in.
        let wanted = if self.all_low_forks() { above } else { below };
        let mine = self.my_color;
        self.forks
            .request_where(|c| wanted(c, mine), |j| ctx.send(j, A1Msg::Req));
    }

    /// Lines 10–16: evaluate (or re-evaluate) a request from `j`.
    fn consider_request(&mut self, j: NodeId, ctx: &mut Context<'_, A1Msg>) {
        if !self.forks.holds(j) {
            return; // crossing with a fork already in flight to j
        }
        let outside = !self.behind_sdf() || !self.sdf_guard_enabled;
        if self.is_high(j) && (!self.all_low_forks() || outside) {
            self.send_fork(j, ctx);
        } else if self.is_low(j) && (!self.all_forks() || outside) {
            self.send_fork(j, ctx);
            self.release(true, ctx);
        } else {
            self.forks.suspend(j);
        }
    }

    fn on_fork(&mut self, from: NodeId, flag: bool, gen: u64, ctx: &mut Context<'_, A1Msg>) {
        if !self.forks.receive_if_fresh(from, gen) {
            // Link died while the fork was in flight, or a duplicated
            // delivery of a transfer already accepted (stale generation).
            return;
        }
        if self.phase == Phase::Collecting && self.state == DiningState::Hungry && self.all_forks()
        {
            self.state = DiningState::Eating;
        }
        if self.all_low_forks() && self.behind_sdf() {
            // Lines 20–22.
            if flag {
                self.forks.suspend(from);
            }
            self.kick_collection(ctx);
        } else if flag {
            // Line 23: a high fork we cannot use yet — return it.
            self.send_fork(from, ctx);
        } else {
            self.kick_collection(ctx);
        }
    }

    // -- pipeline ----------------------------------------------------------

    /// A thinking/hungry node starts its quest for the critical section.
    fn begin_quest(&mut self, ctx: &mut Context<'_, A1Msg>) {
        debug_assert_eq!(self.state, DiningState::Hungry);
        match self.phase {
            Phase::Idle => {
                if self.needs_recolor {
                    self.adr.begin_entry(ctx.neighbors());
                    self.set_phase(Phase::EnterAdr, ctx.time());
                } else {
                    self.adf.begin_entry(ctx.neighbors());
                    self.set_phase(Phase::EnterAdf, ctx.time());
                }
                self.try_progress(ctx);
            }
            Phase::AwaitInfo => { /* resumes when the last Hello arrives */ }
            _ => debug_assert!(false, "begin_quest in phase {:?}", self.phase),
        }
    }

    /// Drive the doorway pipeline as far as entry conditions allow.
    fn try_progress(&mut self, ctx: &mut Context<'_, A1Msg>) {
        loop {
            match self.phase {
                Phase::EnterAdr if self.adr.ready(ctx.neighbors()) => {
                    let m = self.adr.cross();
                    ctx.broadcast(A1Msg::Doorway(m));
                    self.sdr.begin_entry(ctx.neighbors());
                    self.set_phase(Phase::EnterSdr, ctx.time());
                }
                Phase::EnterSdr if self.sdr.ready(ctx.neighbors()) => {
                    let m = self.sdr.cross();
                    ctx.broadcast(A1Msg::Doorway(m));
                    self.set_phase(Phase::Recoloring, ctx.time());
                    self.start_recolor(ctx);
                }
                Phase::EnterAdf if self.adf.ready(ctx.neighbors()) => {
                    let m = self.adf.cross();
                    ctx.broadcast(A1Msg::Doorway(m));
                    // Interleaving of Figure 5: cross AD^f, then leave the
                    // first double doorway (if we came through it).
                    if self.sdr.is_behind() {
                        let m = self.sdr.exit();
                        ctx.broadcast(A1Msg::Doorway(m));
                    }
                    if self.adr.is_behind() {
                        let m = self.adr.exit();
                        ctx.broadcast(A1Msg::Doorway(m));
                    }
                    self.sdf.begin_entry(ctx.neighbors());
                    self.set_phase(Phase::EnterSdf, ctx.time());
                }
                Phase::EnterSdf if self.sdf.ready(ctx.neighbors()) => {
                    let m = self.sdf.cross();
                    ctx.broadcast(A1Msg::Doorway(m));
                    self.set_phase(Phase::Collecting, ctx.time());
                    // Lines 1–4.
                    self.kick_collection(ctx);
                }
                _ => break,
            }
        }
    }

    fn start_recolor(&mut self, ctx: &mut Context<'_, A1Msg>) {
        let proc: Box<dyn RecolorProcedure> = match &self.recolor_cfg {
            RecolorConfig::Greedy => Box::new(GreedyRecolor::new(self.me)),
            RecolorConfig::Linial(s) => Box::new(LinialRecolor::new(self.me, s.clone())),
            RecolorConfig::Randomized { delta_bound, seed } => {
                Box::new(RandomizedRecolor::new(self.me, *delta_bound, *seed))
            }
            RecolorConfig::Never => unreachable!("a never-recoloring node entered SD^r"),
        };
        self.active_proc = Some(proc);
        let r = ctx.neighbors();
        self.recolor_step(ctx, |p, out| p.start(r, out));
    }

    /// Feed one event to the running recoloring procedure, send what it
    /// emits, and finish recoloring once it is done; true if it finished.
    fn recolor_step(
        &mut self,
        ctx: &mut Context<'_, A1Msg>,
        step: impl FnOnce(&mut dyn RecolorProcedure, &mut Vec<(NodeId, RecolorMsg)>) -> RecolorOutcome,
    ) -> bool {
        let proc = self.active_proc.as_deref_mut();
        let mut out = Vec::new();
        let outcome = step(proc.expect("recoloring without procedure"), &mut out);
        for (j, m) in out {
            ctx.send(j, A1Msg::Recolor(m));
        }
        let RecolorOutcome::Done(c) = outcome else {
            return false;
        };
        self.finish_recolor(c, ctx);
        true
    }

    fn finish_recolor(&mut self, color: i64, ctx: &mut Context<'_, A1Msg>) {
        debug_assert_eq!(self.phase, Phase::Recoloring);
        self.active_proc = None;
        self.my_color = color;
        self.needs_recolor = false;
        ctx.observe(Obs::Recolored);
        ctx.broadcast(A1Msg::UpdateColor(color));
        self.adf.begin_entry(ctx.neighbors());
        self.set_phase(Phase::EnterAdf, ctx.time());
    }

    fn on_recolor_msg(&mut self, from: NodeId, msg: RecolorMsg, ctx: &mut Context<'_, A1Msg>) {
        if self.phase == Phase::Recoloring {
            if self.recolor_step(ctx, |p, out| p.on_message(from, msg, out)) {
                self.try_progress(ctx);
            }
        } else if !matches!(msg, RecolorMsg::Nack) {
            // Lines 40–43: not participating — reject.
            ctx.send(from, A1Msg::Recolor(RecolorMsg::Nack));
        }
    }

    // -- exit code (Lines 5–9) ----------------------------------------------

    fn exit_cs(&mut self, ctx: &mut Context<'_, A1Msg>) {
        debug_assert_eq!(self.state, DiningState::Eating);
        self.state = DiningState::Thinking;
        // Line 6: the smallest non-negative color unused by any neighbor.
        self.my_color = smallest_free_color(self.forks.records().iter().filter_map(|(_, f)| f.ext));
        ctx.broadcast(A1Msg::UpdateColor(self.my_color));
        self.release(false, ctx);
        let m = self.sdf.exit();
        ctx.broadcast(A1Msg::Doorway(m));
        let m = self.adf.exit();
        ctx.broadcast(A1Msg::Doorway(m));
        self.set_phase(Phase::Idle, ctx.time());
    }

    // -- topology changes (Algorithm 3) --------------------------------------

    fn on_linkup_static(&mut self, peer: NodeId, ctx: &mut Context<'_, A1Msg>) {
        // Lines 44–46.
        self.forks.link_up(peer, true);
        for d in self.each_doorway() {
            d.neighbor_joined(peer, false);
        }
        let hello = A1Msg::Hello {
            color: self.my_color,
            behind: self.status_set(),
        };
        ctx.send(peer, hello);
    }

    fn on_linkup_moving(&mut self, peer: NodeId, ctx: &mut Context<'_, A1Msg>) {
        // Lines 47–55.
        self.forks.link_up(peer, false);
        for d in self.each_doorway() {
            d.neighbor_joined(peer, false);
        }
        if self.behind_sdf() {
            if self.state == DiningState::Eating {
                self.state = DiningState::Hungry;
            }
            self.release(false, ctx);
        }
        // Line 52: exit any doorway.
        for d in self.each_doorway() {
            d.abandon();
        }
        ctx.broadcast(A1Msg::Doorway(DoorwayMsg::ExitAll));
        self.active_proc = None;
        self.needs_recolor = self.recolors();
        self.pending_info.insert(peer);
        self.set_phase(Phase::AwaitInfo, ctx.time());
    }

    fn on_hello(
        &mut self,
        from: NodeId,
        color: i64,
        behind: DoorwaySet,
        ctx: &mut Context<'_, A1Msg>,
    ) {
        if let Some(c) = self.forks.ext_mut(from) {
            *c = Some(color);
        }
        for d in self.each_doorway() {
            let tag = d.tag();
            d.neighbor_joined(from, behind.contains(tag));
        }
        // Tell the static side our color too. With recoloring enabled an
        // update-color broadcast will follow anyway, but without it (the
        // static-colors baseline) the static side would otherwise treat us
        // as color-⊥ forever and suspend our requests.
        ctx.send(from, A1Msg::UpdateColor(self.my_color));
        self.pending_info.remove(from);
        self.after_info_progress(ctx);
    }

    /// Lines 53–55: once every new static neighbor reported, resume.
    fn after_info_progress(&mut self, ctx: &mut Context<'_, A1Msg>) {
        if self.phase == Phase::AwaitInfo && self.pending_info.is_empty() {
            self.set_phase(Phase::Idle, ctx.time());
            if self.state == DiningState::Hungry {
                self.begin_quest(ctx);
            }
        }
    }

    fn on_linkdown(&mut self, peer: NodeId, ctx: &mut Context<'_, A1Msg>) {
        // Capture Line 59's condition before dropping state.
        let lost_low_fork = !self.forks.holds(peer) && self.is_low(peer) && self.forks.knows(peer);
        self.forks.link_down(peer);
        for d in self.each_doorway() {
            d.neighbor_left(peer);
        }
        self.pending_info.remove(peer);
        match self.phase {
            Phase::AwaitInfo => self.after_info_progress(ctx),
            Phase::Collecting
                if lost_low_fork
                    && self.state != DiningState::Eating
                    && self.return_path_enabled =>
            {
                // Lines 59–60: return path of SD^f.
                ctx.observe(Obs::ReturnPath);
                let m = self.sdf.exit();
                ctx.broadcast(A1Msg::Doorway(m));
                self.release(false, ctx);
                self.sdf.begin_entry(ctx.neighbors());
                self.set_phase(Phase::EnterSdf, ctx.time());
            }
            Phase::Recoloring => {
                self.recolor_step(ctx, |p, out| p.on_removed(peer, out));
            }
            _ => {}
        }
        self.kick_collection(ctx);
        self.try_progress(ctx);
    }

    fn on_doorway_msg(&mut self, from: NodeId, msg: DoorwayMsg, ctx: &mut Context<'_, A1Msg>) {
        match msg {
            DoorwayMsg::Cross(tag) => self.doorway_mut(tag).note_cross(from),
            DoorwayMsg::Exit(tag) => self.doorway_mut(tag).note_exit(from),
            DoorwayMsg::ExitAll => {
                for d in self.each_doorway() {
                    d.note_exit(from);
                }
            }
            DoorwayMsg::Status(_) => { /* A1 conveys status via Hello */ }
        }
        self.try_progress(ctx);
    }
}

impl Protocol for Algorithm1 {
    type Msg = A1Msg;

    fn on_event(&mut self, ev: Event<A1Msg>, ctx: &mut Context<'_, A1Msg>) {
        match ev {
            Event::Hungry => {
                if self.state == DiningState::Thinking {
                    self.state = DiningState::Hungry;
                    self.begin_quest(ctx);
                }
            }
            Event::ExitCs => {
                if self.state == DiningState::Eating {
                    self.exit_cs(ctx);
                }
            }
            Event::Message { from, msg } => match msg {
                A1Msg::Doorway(dm) => self.on_doorway_msg(from, dm, ctx),
                A1Msg::Req => self.consider_request(from, ctx),
                A1Msg::Fork { flag, gen } => self.on_fork(from, flag, gen, ctx),
                A1Msg::UpdateColor(c) => {
                    if let Some(color) = self.forks.ext_mut(from) {
                        *color = Some(c);
                    }
                    if self.forks.is_suspended(from) {
                        self.consider_request(from, ctx);
                    }
                    self.kick_collection(ctx);
                }
                A1Msg::Hello { color, behind } => self.on_hello(from, color, behind, ctx),
                A1Msg::Recolor(rm) => self.on_recolor_msg(from, rm, ctx),
            },
            Event::LinkUp { peer, kind } => match kind {
                LinkUpKind::AsStatic => self.on_linkup_static(peer, ctx),
                LinkUpKind::AsMoving => self.on_linkup_moving(peer, ctx),
            },
            Event::LinkDown { peer } => self.on_linkdown(peer, ctx),
            Event::MovementStarted | Event::MovementEnded | Event::Timer { .. } => {}
        }
    }

    fn dining_state(&self) -> DiningState {
        self.state
    }

    fn msg_kind(msg: &A1Msg) -> &'static str {
        msg.kind()
    }

    fn state_digest(&self) -> Option<u64> {
        Some(manet_sim::digest_of(self))
    }

    fn progress_digest(&self) -> Option<u64> {
        // Everything behavioral, nothing monotone: `phase_log` only grows
        // and the fork table's transfer generations never repeat, so both
        // are excluded (see `ForkTable::progress_digest`).
        Some(manet_sim::digest_of(&(
            self.me,
            self.state,
            self.my_color,
            self.forks.progress_digest(),
            [&self.adr, &self.sdr, &self.adf, &self.sdf],
            self.phase,
            self.needs_recolor,
            &self.pending_info,
            &self.active_proc,
            self.sdf_guard_enabled,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::{Engine, Metrics, MetricsData, SafetyMonitor, SimConfig, Workload};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn line_engine(n: usize) -> Engine<Algorithm1> {
        Engine::new(
            SimConfig::default(),
            (0..n).map(|i| (i as f64, 0.0)).collect::<Vec<_>>(),
            |seed| Algorithm1::greedy(&seed),
        )
    }

    /// [`line_engine`] with a [`Metrics`] hook counting meals.
    fn fed_line(n: usize) -> (Engine<Algorithm1>, Rc<RefCell<MetricsData>>) {
        let mut e = line_engine(n);
        let (metrics, data) = Metrics::new(n);
        e.add_hook(Box::new(metrics));
        (e, data)
    }

    fn exit_hook() -> Box<Workload> {
        Box::new(Workload::one_shot(20..=20, 0))
    }

    #[test]
    fn lone_hungry_node_eats() {
        let (mut e, data) = fed_line(1);
        e.add_hook(exit_hook());
        e.set_hungry_at(SimTime(1), NodeId(0));
        e.run_until(SimTime(500));
        assert!(data.borrow().meals[0] >= 1);
    }

    #[test]
    fn two_neighbors_both_eat_in_turn() {
        let (mut e, data) = fed_line(2);
        e.add_hook(exit_hook());
        e.add_hook(Box::new(SafetyMonitor::new(true).0));
        e.set_hungry_at(SimTime(1), NodeId(0));
        e.set_hungry_at(SimTime(1), NodeId(1));
        e.run_until(SimTime(5_000));
        assert!(data.borrow().meals[0] >= 1, "p0 starved");
        assert!(data.borrow().meals[1] >= 1, "p1 starved");
    }

    #[test]
    fn line_of_five_all_eat_under_full_contention() {
        let (mut e, data) = fed_line(5);
        e.add_hook(exit_hook());
        e.add_hook(Box::new(SafetyMonitor::new(true).0));
        for i in 0..5 {
            e.set_hungry_at(SimTime(1), NodeId(i));
        }
        e.run_until(SimTime(50_000));
        for (i, &m) in data.borrow().meals.iter().enumerate() {
            assert!(m >= 1, "p{i} starved on the line");
        }
    }

    #[test]
    fn exit_color_lands_in_low_range() {
        let mut e = line_engine(3);
        e.add_hook(exit_hook());
        for i in 0..3 {
            e.set_hungry_at(SimTime(1), NodeId(i));
        }
        e.run_until(SimTime(50_000));
        for i in 0..3 {
            let c = e.protocol(NodeId(i)).color();
            assert!((0..=2).contains(&c), "p{i} color {c} outside [0, δ]");
        }
    }

    /// Node 2 of a line, between 1 and 3.
    fn middle() -> Algorithm1 {
        Algorithm1::greedy(&NodeSeed {
            id: NodeId(2),
            neighbors: vec![NodeId(1), NodeId(3)],
            n_nodes: 4,
            max_degree: 2,
        })
    }

    fn assert_both_digests_differ(a: &Algorithm1, b: &Algorithm1, what: &str) {
        assert_ne!(a.state_digest(), b.state_digest(), "{what}");
        assert_ne!(a.progress_digest(), b.progress_digest(), "{what}");
    }

    #[test]
    fn a_doorway_flag_or_a_recolor_inbox_entry_moves_both_digests() {
        let mut entering = middle();
        entering.sdf.begin_entry(&[NodeId(1), NodeId(3)]);
        assert_both_digests_differ(&entering, &middle(), "doorway flag");
        // A running procedure is hashed through its trait object.
        let recoloring = || {
            let mut p = middle();
            let mut proc = GreedyRecolor::new(p.me);
            proc.start(&[NodeId(1), NodeId(3)], &mut Vec::new());
            p.active_proc = Some(Box::new(proc));
            p
        };
        let mut answered = recoloring();
        let graph = RecolorMsg::Graph {
            edges: vec![],
            finished: false,
        };
        let proc = answered.active_proc.as_mut().expect("running");
        // Node 3 has not answered, so the round stays open.
        assert_eq!(
            proc.on_message(NodeId(1), graph, &mut Vec::new()),
            RecolorOutcome::Continue
        );
        assert_both_digests_differ(&answered, &recoloring(), "recolor inbox entry");
    }
}
