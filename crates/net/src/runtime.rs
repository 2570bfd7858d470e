//! The live run: what a run is configured with, what it produces, and
//! the entry point that builds the chosen algorithm's automata and hands
//! them to the shard worker pool ([`crate::shard`]), the one engine that
//! hosts every live run.
//!
//! Everything observable lands in a [`LiveTrace`] (see [`crate::trace`])
//! which is validated by the harness safety core and exportable as a
//! simulator schedule.

use baselines::ChandyMisra;
use harness::{topology, AlgKind, Automata};
use local_mutex::Algorithm2;
use manet_sim::{Command, SimConfig, Violation};

use crate::shard::{run_sharded_with, ShardTuning};
use crate::trace::LiveTrace;
use crate::transport::TransportKind;

/// Which protocol a live run hosts: any [`AlgKind`]. The name survives
/// for callers that spelled it before every algorithm was live-capable.
pub type LiveAlg = AlgKind;

/// Which execution engine hosts the nodes of a live run. There is one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LiveRuntime {
    /// A fixed worker pool owning contiguous node shards (see
    /// [`crate::shard`]).
    Sharded {
        /// Worker-pool size; 0 picks the host parallelism (min 2).
        workers: usize,
    },
}

impl LiveRuntime {
    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            LiveRuntime::Sharded { .. } => "sharded",
        }
    }
}

/// Everything that defines one live run.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Which protocol to host.
    pub alg: AlgKind,
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
    /// The run's timeline: `(at_ms, command)` pairs the driver executes
    /// as the simulator's engine does. Three commands are live:
    /// - `Crash` silences the node and drops its traffic both ways;
    /// - `Recover` restarts a crashed node as a fresh protocol
    ///   incarnation and rejoins it with a flap of each of its links. It
    ///   needs a `Crash` of the same node at an earlier time;
    /// - `Teleport` moves a node, which learns the link changes as the
    ///   moving side.
    pub commands: Vec<(u64, Command)>,
    /// Arm the per-link reliable-delivery shim: go-back-N retransmission
    /// with capped exponential backoff, cumulative acks piggybacked on
    /// data frames, and standalone acks after an idle timeout — what
    /// `manet_sim::ArqConfig` arms in the simulator, run by the same
    /// machine ([`manet_sim::arq`]).
    pub reliable: bool,
    /// Worker-pool sizing of the execution engine.
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
    pub fn new(alg: AlgKind, transport: TransportKind, positions: Vec<(f64, f64)>) -> LiveConfig {
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
            commands: Vec::new(),
            reliable: false,
            runtime: LiveRuntime::Sharded { workers: 0 },
            closed_loop: false,
        }
    }

    /// Whether the timeline has a command that `is` picks out.
    pub fn schedules(&self, is: fn(&Command) -> bool) -> bool {
        self.commands.iter().any(|(_, cmd)| is(cmd))
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
        for (at_ms, cmd) in &self.commands {
            match *cmd {
                Command::Crash(node) | Command::Recover(node) | Command::Teleport { node, .. }
                    if node.index() >= n =>
                {
                    return Err(format!("{cmd:?} targets node {node}, but n = {n}"));
                }
                Command::Teleport { dest, .. } if !(dest.x.is_finite() && dest.y.is_finite()) => {
                    return Err(format!("{cmd:?} has a destination that is not finite"));
                }
                Command::Recover(node)
                    if !self
                        .commands
                        .iter()
                        .any(|(t, c)| t < at_ms && *c == Command::Crash(node)) =>
                {
                    return Err(format!(
                        "recover of {node} at {at_ms} ms needs a crash of {node} before it"
                    ));
                }
                Command::Crash(_) | Command::Recover(_) | Command::Teleport { .. } => {}
                _ => {
                    return Err(format!(
                        "{cmd:?}: a live run executes only crash, recover and teleport commands"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// What one live run produced.
#[derive(Debug)]
pub struct LiveOutcome {
    /// The totally-ordered trace (already sorted).
    pub trace: LiveTrace,
    /// Completed meals (Eating → Thinking) per node, under the
    /// simulator's meal rule (see [`LiveTrace::audit_safety`]): a meal cut
    /// off by a crash or by the end of the run does not count.
    pub meals: Vec<u64>,
    /// Pooled hungry→eating latencies in nanoseconds, sampled under the
    /// simulator's response-time rule (see [`LiveTrace::audit_safety`]).
    pub latencies_ns: Vec<u64>,
    /// Safety violations found by replaying the trace into
    /// [`manet_sim::SafetyCore`] (empty = the run was safe).
    pub violations: Vec<Violation>,
    /// Data envelopes handed to the wire (first transmissions).
    pub messages_sent: u64,
    /// Envelopes decoded and delivered to protocols.
    pub messages_delivered: u64,
    /// Envelopes or frames that failed to decode (0 on healthy transports).
    pub decode_errors: u64,
    /// Envelopes lost to a socket send that returned an error (0 on
    /// healthy transports).
    pub send_failures: u64,
    /// Data frames retransmitted by the reliable shim (0 with
    /// `reliable: false`).
    pub retransmissions: u64,
    /// Standalone acknowledgment frames sent by the reliable shim.
    pub acks_sent: u64,
    /// Timed parks of a shard worker after which the worker's next pass
    /// found the wheel tick they waited for due.
    pub timer_wakes: u64,
    /// Those wakes' summed lateness in nanoseconds: the clock reading
    /// that found the tick due minus the instant of the tick.
    pub timer_late_ns: u64,
    /// Crash recoveries executed by the driver.
    pub recoveries: u64,
    /// Wall-clock length of the run in milliseconds.
    pub elapsed_ms: u64,
    /// Milliseconds from the end of the run (every node joined, where
    /// `elapsed_ms` stops) until the whole verdict was known: the trace
    /// merge plus the one pass that yields `violations`, `meals` and
    /// `latencies_ns`.
    pub verdict_ms: u64,
    /// Nodes whose worker thread exited cleanly (always `n` on success).
    pub threads_joined: usize,
}

impl LiveOutcome {
    /// Total completed meals across all nodes.
    pub fn total_meals(&self) -> u64 {
        self.meals.iter().sum()
    }

    /// Throughput: completed meals per wall-clock second.
    pub fn sessions_per_sec(&self) -> f64 {
        let secs = self.elapsed_ms.max(1) as f64 / 1_000.0;
        self.total_meals() as f64 / secs
    }
}

/// Run one live execution and validate its trace.
///
/// # Errors
///
/// Configuration errors (bad rate, out-of-range fault targets, eating
/// time above τ), transport setup failures, worker-thread panics and
/// structured aborts ([`crate::shard::ShardAbort`]) are reported as
/// `Err`; safety violations are *not* an error — they are returned in
/// [`LiveOutcome::violations`] for the caller to assert on.
pub fn run_live(cfg: &LiveConfig) -> Result<LiveOutcome, String> {
    cfg.validate()?;
    let tuning = ShardTuning::default();
    let edges = topology::unit_disk_edges(SimConfig::default().radio_range, &cfg.positions);
    match cfg
        .alg
        .automata(cfg.positions.len(), &edges, None, cfg.seed)
    {
        Automata::A1(make) => run_sharded_with(cfg, move |seed| make(seed), tuning),
        Automata::A2 => run_sharded_with(cfg, Algorithm2::new, tuning),
        Automata::ChandyMisra => run_sharded_with(cfg, ChandyMisra::new, tuning),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::{NodeId, Position};

    fn line3() -> Vec<(f64, f64)> {
        vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = LiveConfig::new(AlgKind::A2, TransportKind::Mpsc, vec![]);
        assert!(run_live(&cfg).is_err(), "empty topology");
        cfg.positions = line3();
        cfg.rate = 0.0;
        assert!(run_live(&cfg).is_err(), "zero rate");
        cfg.rate = 25.0;
        cfg.eat_ms = 10_000;
        assert!(run_live(&cfg).is_err(), "eating beyond tau");
        cfg.eat_ms = 2;
        let crash = |at, node| (at, Command::Crash(NodeId(node)));
        let recover = |at, node| (at, Command::Recover(NodeId(node)));
        let teleport = |at, node, x| {
            let dest = Position { x, y: 0.0 };
            (
                at,
                Command::Teleport {
                    node: NodeId(node),
                    dest,
                },
            )
        };
        cfg.commands = vec![crash(10, 9)];
        assert!(run_live(&cfg).is_err(), "crash target out of range");
        cfg.commands = vec![teleport(10, 3, 0.0)];
        assert!(run_live(&cfg).is_err(), "teleport target out of range");
        cfg.commands = vec![recover(20, 1)];
        assert!(run_live(&cfg).is_err(), "recover with no crash");
        cfg.commands = vec![crash(10, 0), recover(20, 1)];
        assert!(run_live(&cfg).is_err(), "recover of another node");
        for at in [5, 10] {
            cfg.commands = vec![crash(10, 0), recover(at, 0)];
            assert!(run_live(&cfg).is_err(), "recover at {at} ms, crash at 10");
        }
        cfg.commands = vec![(
            10,
            Command::Partition {
                side: vec![NodeId(0)],
            },
        )];
        assert!(run_live(&cfg).is_err(), "a partition is not live");
        let dest = Position { x: 1.0, y: 0.0 };
        cfg.commands = vec![(
            10,
            Command::StartMove {
                node: NodeId(0),
                dest,
                speed: 1.0,
            },
        )];
        assert!(run_live(&cfg).is_err(), "smooth motion is not live");
        for x in [f64::NAN, f64::INFINITY] {
            cfg.commands = vec![teleport(10, 0, x)];
            assert!(run_live(&cfg).is_err(), "teleport to x = {x}");
        }
    }

    #[test]
    fn short_mpsc_run_is_safe_and_joins_all_threads() {
        let mut cfg = LiveConfig::new(AlgKind::A1Greedy, TransportKind::Mpsc, line3());
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
        let mut cfg = LiveConfig::new(AlgKind::ChandyMisra, TransportKind::Mpsc, line3());
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
        // Every algorithm name is accepted live: a one-shot line:3 run of
        // each feeds every node once.
        for alg in AlgKind::extended() {
            let mut cfg = LiveConfig::new(alg, TransportKind::Mpsc, line3());
            cfg.one_shot = true;
            cfg.eat_ms = 1;
            let out = run_live(&cfg).unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
            assert_eq!(out.meals, vec![1, 1, 1], "{}", alg.name());
        }
    }
}
