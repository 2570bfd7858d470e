//! Live trace capture and validation.
//!
//! Every worker and the driver stamp the records they emit with their
//! shard's hybrid logical clock plus a nanosecond reading of the run's
//! shared monotonic origin, and the per-shard streams are merged into one
//! dense ticket order at export (see [`crate::shard::clock`]). That is a
//! *total order consistent with causality*: a record that can see the
//! effect of another carries a later ticket, and the per-link envelope
//! sequence numbers embed FIFO delivery inside it.
//!
//! That total order is what lets two sim-grade facilities run over a live
//! execution:
//!
//! * [`LiveTrace::check_safety`] replays the trace into
//!   [`manet_sim::SafetyCore`] — the incremental invariant the simulator's
//!   `SafetyMonitor` hook adapts, so there is no second implementation —
//!   over a mirror [`World`]. The core's event vocabulary maps one to one
//!   onto records: `State` → `state_changed`, `Crash` → `crashed`,
//!   `Recover` → `recovered`, and each link a `Relocate` raises in the
//!   mirror world → `link_up`. Every such record is an instant of its
//!   own and is settled on the spot, which examines only the
//!   neighborhoods the record touched; `Deliver`, `LinkUp`, `LinkDown`
//!   and `NetStats` records cannot change what the invariant reads and
//!   never reach the core. The replay is O(records + eating transitions
//!   · δ), not O(records · n), and [`LiveTrace::audit_safety`] feeds the
//!   same `State` and `Recover` records to a [`SessionFold`], the
//!   simulator's one rule for meals and response times;
//! * [`LiveTrace::to_schedule`] quantizes each observed delivery latency
//!   into virtual-time delivery delays, producing an [`ImportedSchedule`]
//!   the deterministic engine can replay (the conformance bridge).

use manet_sim::{
    DiningState, ImportedSchedule, LinkChange, NodeId, SafetyCore, SessionFold, SimTime, Violation,
    World,
};

/// What happened, as observed by one thread of the live run.
///
/// Plain data of 24 bytes: a one-byte tag, then every variant's fields
/// packed behind it with no `u64` wider than it has to be, so a trace
/// record is 40 bytes (DESIGN §11).
#[derive(Clone, Debug, PartialEq)]
pub enum LiveEventKind {
    /// A node's dining state changed. `session` is the node's eating-session
    /// counter *after* the transition (incremented on entering `Eating`).
    State {
        /// The node that changed state.
        node: NodeId,
        /// State before the transition.
        old: DiningState,
        /// State after the transition.
        new: DiningState,
        /// Eating-session counter after the transition.
        session: u64,
    },
    /// A message was decoded and handed to the receiving protocol.
    Deliver {
        /// Sender.
        from: NodeId,
        /// Receiver (the recording node).
        to: NodeId,
        /// Sequence number from the envelope: per directed link
        /// incarnation, from 1 (a reconnect restarts at 1).
        seq: u64,
        /// Receive instant minus the envelope's send instant, saturating
        /// at `u32::MAX` (≈ 4.29 s; see [`LiveTrace::to_schedule`]).
        latency_ns: u32,
    },
    /// A link came up; `a` is the designated static side.
    LinkUp {
        /// Static endpoint.
        a: NodeId,
        /// Moving endpoint.
        b: NodeId,
    },
    /// A link went down.
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The driver crashed a node.
    Crash {
        /// The victim.
        node: NodeId,
    },
    /// A crashed node restarted as a fresh incarnation (recorded by the
    /// node itself, serialized against its own state records).
    Recover {
        /// The restarted node.
        node: NodeId,
    },
    /// A node's network counters at shutdown — one record per node, the
    /// per-node ledger behind the run-level totals. All zero on a healthy
    /// fault-free transport. Each counter saturates at `u32::MAX`;
    /// [`LiveTrace::net_stats`] widens them back into [`NodeNetStats`].
    NetStats {
        /// The reporting node.
        node: NodeId,
        /// Envelopes or frames that failed to decode.
        decode_errors: u32,
        /// Transport send calls that returned an error.
        send_failures: u32,
        /// Data frames retransmitted by the reliable shim.
        retransmissions: u32,
        /// Standalone acknowledgment frames sent by the reliable shim.
        acks_sent: u32,
    },
    /// The driver teleported a node (recorded *before* the resulting
    /// link records, so a validator's mirror world stays in sync).
    Relocate {
        /// The node that moved.
        node: NodeId,
        /// New horizontal coordinate.
        x: f64,
        /// New vertical coordinate.
        y: f64,
    },
}

const _: () = assert!(std::mem::size_of::<LiveEventKind>() == 24);

/// One node's network counters, as reported at shutdown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeNetStats {
    /// Envelopes or frames that failed to decode.
    pub decode_errors: u64,
    /// Transport send calls that returned an error.
    pub send_failures: u64,
    /// Data frames retransmitted by the reliable shim.
    pub retransmissions: u64,
    /// Standalone acknowledgment frames sent by the reliable shim.
    pub acks_sent: u64,
}

/// One totally-ordered trace record.
#[derive(Clone, Debug, PartialEq)]
pub struct LiveRecord {
    /// Nanoseconds since the run's shared monotonic origin.
    pub at_ns: u64,
    /// Ticket in the run's merged total order; the sort key.
    pub order: u64,
    /// The observation itself.
    pub kind: LiveEventKind,
}

const _: () = assert!(std::mem::size_of::<LiveRecord>() == 40);

/// A captured live run, sorted into its total order.
#[derive(Clone, Debug, Default)]
pub struct LiveTrace {
    records: Vec<LiveRecord>,
}

impl LiveTrace {
    /// Sort `records` by order ticket and wrap them.
    pub fn new(mut records: Vec<LiveRecord>) -> LiveTrace {
        records.sort_by_key(|r| r.order);
        LiveTrace { records }
    }

    /// Wrap records that are already in their total order — what
    /// [`crate::merge_stamped`] returns — without sorting them again.
    pub fn from_merged(records: Vec<LiveRecord>) -> LiveTrace {
        debug_assert!(
            records.windows(2).all(|w| w[0].order < w[1].order),
            "from_merged needs records sorted by order ticket"
        );
        LiveTrace { records }
    }

    /// The records, in total order.
    pub fn records(&self) -> &[LiveRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Per-node network counters from the shutdown [`LiveEventKind::NetStats`]
    /// records. Nodes that never reported (a thread that died before
    /// shutdown) stay at zero.
    pub fn net_stats(&self, n: usize) -> Vec<NodeNetStats> {
        let mut out = vec![NodeNetStats::default(); n];
        for r in &self.records {
            if let LiveEventKind::NetStats {
                node,
                decode_errors,
                send_failures,
                retransmissions,
                acks_sent,
            } = r.kind
            {
                out[node.index()] = NodeNetStats {
                    decode_errors: decode_errors.into(),
                    send_failures: send_failures.into(),
                    retransmissions: retransmissions.into(),
                    acks_sent: acks_sent.into(),
                };
            }
        }
        out
    }

    /// Number of message deliveries observed.
    pub fn deliveries(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.kind, LiveEventKind::Deliver { .. }))
            .count()
    }

    /// Quantize every observed delivery latency into a virtual-time delay
    /// and build the per-channel schedule the deterministic engine can
    /// replay. Latencies are clamped into `[min_delay, max_delay]` ticks —
    /// the engine rejects out-of-window replay delays as malformed
    /// schedules, so quantization is where real latencies get squeezed into
    /// the model's legal window.
    ///
    /// A recorded latency saturates at `u32::MAX` ns (≈ 4.29 s). That
    /// cannot change a schedule while `max_delay · tick_ns` stays below
    /// 4.29 s: the clamp maps every latency of at least that much to
    /// `max_delay` ticks, so a saturated latency lands there exactly as
    /// its true value would have. The live runtime calls this with
    /// `max_delay` = ν = 10 ticks of 100 µs by default, i.e. 1 ms.
    pub fn to_schedule(&self, tick_ns: u64, min_delay: u64, max_delay: u64) -> ImportedSchedule {
        let tick_ns = tick_ns.max(1);
        let lo = min_delay.max(1);
        let mut sched = ImportedSchedule::new(lo);
        for r in &self.records {
            if let LiveEventKind::Deliver {
                from,
                to,
                latency_ns,
                ..
            } = r.kind
            {
                let ticks = (u64::from(latency_ns) / tick_ns).clamp(lo, max_delay.max(lo));
                sched.push(from, to, ticks);
            }
        }
        sched
    }

    /// Replay the trace into [`SafetyCore`] — the invariant
    /// that audits simulated runs — over a mirror world that follows the
    /// `Relocate` records. Every record is an instant of its own. Returns
    /// every recorded violation (empty = the live run never had two
    /// current neighbors eating at once, and never ate next to a neighbor
    /// that crashed mid-meal).
    pub fn check_safety(&self, radio_range: f64, positions: &[(f64, f64)]) -> Vec<Violation> {
        self.audit_safety(radio_range, positions).violations
    }

    /// The run's verdict in one pass over the trace: the
    /// [`LiveTrace::check_safety`] replay, what it cost, and the meals and
    /// response times of the [`SessionFold`] fed on the same pass, over
    /// `positions.len()` nodes.
    pub fn audit_safety(&self, radio_range: f64, positions: &[(f64, f64)]) -> SafetyAudit {
        let mut world = World::new(radio_range, positions.iter().map(|&p| p.into()).collect());
        let mut core = SafetyCore::new(world.len());
        let mut sessions = SessionFold::new(world.len());
        let mut violations = Vec::new();
        let mut latencies_ns = Vec::new();
        for r in &self.records {
            match r.kind {
                LiveEventKind::State {
                    node,
                    old,
                    new,
                    session,
                } => {
                    let closed = sessions.state_changed(node, old, new, SimTime(r.at_ns), false);
                    latencies_ns.extend(closed.map(|s| s.response()));
                    core.state_changed(node, new, session);
                }
                // Nodes record their own crash and recovery, serialized
                // against their state records, so the seat freezes on its
                // reading at the crash instant and the fresh incarnation
                // starts thinking (no State record bridges the two).
                LiveEventKind::Crash { node } => core.crashed(node),
                LiveEventKind::Recover { node } => {
                    sessions.recovered(node);
                    core.recovered(node);
                }
                LiveEventKind::Relocate { node, x, y } => {
                    // The adjacency change is what matters for the
                    // invariant; the LinkUp/LinkDown records that follow
                    // are documentation of what the nodes were told.
                    for change in world.relocate(node, (x, y).into()) {
                        if let LinkChange::Up(a, b) = change {
                            core.link_up(a, b);
                        }
                    }
                }
                // Nothing the invariant reads can change here.
                LiveEventKind::Deliver { .. }
                | LiveEventKind::LinkUp { .. }
                | LiveEventKind::LinkDown { .. }
                | LiveEventKind::NetStats { .. } => continue,
            }
            core.settle(SimTime(r.at_ns), &world, &mut violations);
        }
        SafetyAudit {
            violations,
            pairs_examined: core.pairs_examined(),
            meals: sessions.meals,
            latencies_ns,
        }
    }
}

/// The verdict of [`LiveTrace::audit_safety`], its machine-independent
/// cost, and the meals and response times read on the same pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SafetyAudit {
    /// Every recorded violation, in trace order.
    pub violations: Vec<Violation>,
    /// [`SafetyCore::pairs_examined`] at the end of the replay.
    pub pairs_examined: u64,
    /// Completed meals (Eating → Thinking) per node: a meal cut off by a
    /// crash or by the end of the run does not count, as in the simulator.
    pub meals: Vec<u64>,
    /// Hungry→eating latencies in nanoseconds, pooled over all nodes in
    /// the order the episodes closed.
    pub latencies_ns: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::SimConfig;

    fn state(
        order: u64,
        node: u32,
        old: DiningState,
        new: DiningState,
        session: u64,
    ) -> LiveRecord {
        LiveRecord {
            at_ns: order * 1_000,
            order,
            kind: LiveEventKind::State {
                node: NodeId(node),
                old,
                new,
                session,
            },
        }
    }

    const T: DiningState = DiningState::Thinking;
    const H: DiningState = DiningState::Hungry;
    const E: DiningState = DiningState::Eating;

    #[test]
    fn serial_eating_by_neighbors_is_safe() {
        let trace = LiveTrace::new(vec![
            state(1, 0, T, H, 0),
            state(2, 0, H, E, 1),
            state(3, 0, E, T, 1),
            state(4, 1, T, H, 0),
            state(5, 1, H, E, 1),
            state(6, 1, E, T, 1),
        ]);
        let audit = trace.audit_safety(1.5, &[(0.0, 0.0), (1.0, 0.0)]);
        assert!(audit.violations.is_empty(), "{:?}", audit.violations);
        assert_eq!(audit.meals, vec![1, 1]);
        assert_eq!(audit.latencies_ns, vec![1_000, 1_000]);
    }

    /// The response times one pass reads off `records` on a lone node.
    fn latencies(records: Vec<LiveRecord>) -> Vec<u64> {
        LiveTrace::new(records)
            .audit_safety(1.5, &[(0.0, 0.0)])
            .latencies_ns
    }

    #[test]
    fn thinking_to_eating_in_one_handler_is_a_zero_latency_sample() {
        // All forks in hand: hungry and eating inside one handler, so the
        // node records Thinking → Eating and the simulator samples 0.
        let rt = latencies(vec![state(1, 0, T, E, 1), state(2, 0, E, T, 1)]);
        assert_eq!(rt, vec![0]);
    }

    #[test]
    fn a_demotion_to_hungry_opens_a_new_episode() {
        // Eating → Hungry (a mobility demotion) restarts the clock at the
        // demotion, as the simulator's `Metrics` does.
        let rt = latencies(vec![
            state(1, 0, T, H, 0),
            state(3, 0, H, E, 1),
            state(4, 0, E, H, 1),
            state(9, 0, H, E, 2),
        ]);
        assert_eq!(rt, vec![2_000, 5_000]);
    }

    #[test]
    fn a_recovery_drops_the_dead_incarnations_open_episode() {
        // Hungry at 1, crashed at 2, recovered at 10: the fresh
        // incarnation's first episode starts at its own hunger (11), not
        // at the dead one's.
        let rt = latencies(vec![
            state(1, 0, T, H, 0),
            LiveRecord {
                at_ns: 2_000,
                order: 2,
                kind: LiveEventKind::Crash { node: NodeId(0) },
            },
            LiveRecord {
                at_ns: 10_000,
                order: 10,
                kind: LiveEventKind::Recover { node: NodeId(0) },
            },
            state(11, 0, T, H, 0),
            state(14, 0, H, E, 1),
        ]);
        assert_eq!(rt, vec![3_000]);
    }

    /// One step of a dining script for a lone node, at a tick.
    #[derive(Clone, Copy)]
    enum Step {
        To(DiningState),
        Crash,
        Recover,
    }

    /// A protocol that walks the dining states its incarnation was given:
    /// the `Hungry` kick arms one timer per step, and each timer applies
    /// its step.
    struct Script {
        steps: Vec<(u64, DiningState)>,
        state: DiningState,
    }

    impl manet_sim::Protocol for Script {
        type Msg = ();
        fn on_event(&mut self, ev: manet_sim::Event<()>, ctx: &mut manet_sim::Context<'_, ()>) {
            match ev {
                manet_sim::Event::Hungry => {
                    for (i, &(at, _)) in self.steps.iter().enumerate() {
                        ctx.set_timer(at - ctx.time().0, i as u64);
                    }
                }
                manet_sim::Event::Timer { token } => self.state = self.steps[token as usize].1,
                _ => {}
            }
        }
        fn dining_state(&self) -> DiningState {
            self.state
        }
    }

    /// `(meals, response times)` of `script` run by the engine under the
    /// `Metrics` hook.
    fn simulated(script: &[(u64, Step)]) -> (Vec<u64>, Vec<u64>) {
        // One incarnation per stretch between recoveries, each kicked at
        // tick 1 or at its recovery.
        let mut lives = vec![Vec::new()];
        for &(at, step) in script {
            match step {
                Step::To(state) => lives.last_mut().unwrap().push((at, state)),
                Step::Recover => lives.push(Vec::new()),
                Step::Crash => {}
            }
        }
        let mut lives = lives.into_iter();
        let mut e =
            manet_sim::Engine::new(SimConfig::default(), vec![(0.0, 0.0)], move |_| Script {
                steps: lives.next().expect("one script per incarnation"),
                state: T,
            });
        let (metrics, data) = manet_sim::Metrics::new(1);
        e.add_hook(Box::new(metrics));
        e.set_hungry_at(SimTime(1), NodeId(0));
        for &(at, step) in script {
            match step {
                Step::Crash => e.crash_at(SimTime(at), NodeId(0)),
                Step::Recover => {
                    e.recover_at(SimTime(at), NodeId(0));
                    e.set_hungry_at(SimTime(at), NodeId(0));
                }
                Step::To(_) => {}
            }
        }
        e.run_until(SimTime(100));
        let d = data.borrow();
        (d.meals.clone(), d.all_responses())
    }

    /// `(meals, response times)` that [`LiveTrace::audit_safety`] reads
    /// off the records `script` would leave, with `at_ns` = the tick.
    fn audited(script: &[(u64, Step)]) -> (Vec<u64>, Vec<u64>) {
        let (mut state, mut session) = (T, 0);
        let node = NodeId(0);
        let records = script.iter().map(|&(at, step)| {
            let kind = match step {
                Step::To(new) => {
                    let old = std::mem::replace(&mut state, new);
                    session += u64::from(new == E);
                    LiveEventKind::State {
                        node,
                        old,
                        new,
                        session,
                    }
                }
                Step::Crash => LiveEventKind::Crash { node },
                Step::Recover => {
                    state = T;
                    LiveEventKind::Recover { node }
                }
            };
            LiveRecord {
                at_ns: at,
                order: at,
                kind,
            }
        });
        let audit = LiveTrace::new(records.collect()).audit_safety(1.5, &[(0.0, 0.0)]);
        (audit.meals, audit.latencies_ns)
    }

    #[test]
    fn sim_and_live_count_meals_and_response_times_by_one_rule() {
        use Step::{Crash, Recover, To};
        let rows = [
            ("T→H→E→T", vec![(2, To(H)), (4, To(E)), (7, To(T))], 1),
            ("T→E→T, zero latency", vec![(2, To(E)), (5, To(T))], 1),
            ("meal open at the end", vec![(2, To(H)), (4, To(E))], 0),
            (
                "crash mid-meal",
                vec![(2, To(H)), (4, To(E)), (5, Crash)],
                0,
            ),
            (
                "recovery with an episode open",
                vec![
                    (2, To(H)),
                    (3, Crash),
                    (6, Recover),
                    (7, To(H)),
                    (9, To(E)),
                    (11, To(T)),
                ],
                1,
            ),
            (
                "E→H demotion",
                vec![(2, To(H)), (4, To(E)), (5, To(H)), (8, To(E)), (10, To(T))],
                1,
            ),
        ];
        for (name, script, meals) in rows {
            let sim = simulated(&script);
            assert_eq!(audited(&script), sim, "{name}: live vs sim");
            assert_eq!(sim.0, vec![meals], "{name}: meals");
        }
    }

    #[test]
    fn concurrent_neighbor_eating_is_flagged() {
        let trace = LiveTrace::new(vec![
            state(1, 0, T, H, 0),
            state(2, 1, T, H, 0),
            state(3, 0, H, E, 1),
            state(4, 1, H, E, 1),
        ]);
        let violations = trace.check_safety(1.5, &[(0.0, 0.0), (1.0, 0.0)]);
        assert_eq!(violations.len(), 1);
        assert_eq!((violations[0].a, violations[0].b), (NodeId(0), NodeId(1)));
    }

    #[test]
    fn non_neighbors_may_eat_concurrently() {
        // Same schedule as above, but the nodes are out of radio range.
        let trace = LiveTrace::new(vec![
            state(1, 0, T, H, 0),
            state(2, 1, T, H, 0),
            state(3, 0, H, E, 1),
            state(4, 1, H, E, 1),
        ]);
        let violations = trace.check_safety(1.5, &[(0.0, 0.0), (10.0, 0.0)]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn eating_beside_a_neighbor_crashed_mid_meal_is_flagged() {
        let mut records = vec![
            state(1, 1, T, H, 0),
            state(2, 1, H, E, 1),
            LiveRecord {
                at_ns: 3_000,
                order: 3,
                kind: LiveEventKind::Crash { node: NodeId(1) },
            },
            state(4, 0, T, H, 0),
            state(5, 0, H, E, 1),
        ];
        // Out-of-order input exercises the sort.
        records.reverse();
        let trace = LiveTrace::new(records);
        let violations = trace.check_safety(1.5, &[(0.0, 0.0), (1.0, 0.0)]);
        assert_eq!(violations.len(), 1, "{violations:?}");
    }

    #[test]
    fn relocation_updates_the_mirror_adjacency() {
        // Node 1 teleports next to node 0, then both eat: violation only
        // because the mirror world tracked the move.
        let trace = LiveTrace::new(vec![
            LiveRecord {
                at_ns: 500,
                order: 1,
                kind: LiveEventKind::Relocate {
                    node: NodeId(1),
                    x: 1.0,
                    y: 0.0,
                },
            },
            state(2, 0, T, H, 0),
            state(3, 1, T, H, 0),
            state(4, 0, H, E, 1),
            state(5, 1, H, E, 1),
        ]);
        let violations = trace.check_safety(1.5, &[(0.0, 0.0), (10.0, 0.0)]);
        assert_eq!(violations.len(), 1, "{violations:?}");
    }

    #[test]
    fn schedule_export_quantizes_latencies_per_channel() {
        let deliver = |order: u64, from: u32, to: u32, latency_ns: u32| LiveRecord {
            at_ns: order * 1_000,
            order,
            kind: LiveEventKind::Deliver {
                from: NodeId(from),
                to: NodeId(to),
                seq: order,
                latency_ns,
            },
        };
        let trace = LiveTrace::new(vec![
            deliver(1, 0, 1, 2_500),  // 2 ticks at tick_ns = 1000
            deliver(2, 0, 1, 25_000), // clamped to ν = 10
            deliver(3, 1, 0, 0),      // clamped up to the minimum delay
        ]);
        let sched = trace.to_schedule(1_000, 1, 10);
        assert_eq!(sched.imported(), 3);
    }
}
