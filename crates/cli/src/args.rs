//! Hand-rolled argument parsing (the workspace is dependency-minimal by
//! design; see DESIGN.md §6).

use harness::{topology, AlgKind, MobilityMix, Topo};
use lme_check::{Mutation, StrategyKind};
use lme_net::TransportKind;
use manet_sim::{ChannelConfig, SimConfig};

/// A parsed topology specification.
#[derive(Clone, Debug, PartialEq)]
pub enum TopoSpec {
    /// `line:N`
    Line(usize),
    /// `ring:N`
    Ring(usize),
    /// `grid:WxH`
    Grid(usize, usize),
    /// `clique:N`
    Clique(usize),
    /// `random:N[:SEED]` — random unit-disk graph.
    Random(usize, u64),
    /// `star:LEAVES` — explicit graph (not unit-disk embeddable).
    Star(usize),
    /// `tree:N` — explicit complete binary tree.
    Tree(usize),
}

impl TopoSpec {
    /// Number of nodes this spec produces.
    pub fn len(&self) -> usize {
        match *self {
            TopoSpec::Line(n)
            | TopoSpec::Ring(n)
            | TopoSpec::Clique(n)
            | TopoSpec::Random(n, _)
            | TopoSpec::Tree(n) => n,
            TopoSpec::Grid(w, h) => w * h,
            TopoSpec::Star(leaves) => leaves + 1,
        }
    }

    /// True only for degenerate zero-node specs (rejected by the parser).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for specs that need the explicit-graph engine (no geometry).
    pub fn is_explicit(&self) -> bool {
        matches!(self, TopoSpec::Star(_) | TopoSpec::Tree(_))
    }

    /// The topology this spec names, as every run takes it.
    pub fn topo(&self) -> Topo {
        match *self {
            TopoSpec::Line(n) => Topo::Geo(topology::line(n)),
            TopoSpec::Ring(n) => Topo::Geo(topology::ring(n)),
            TopoSpec::Grid(w, h) => Topo::Geo(topology::grid(w, h)),
            TopoSpec::Clique(n) => Topo::Geo(topology::clique(n)),
            TopoSpec::Random(n, seed) => Topo::Geo(topology::random_connected(n, seed)),
            TopoSpec::Star(leaves) => {
                let (n, edges) = topology::star_edges(leaves);
                Topo::Graph { n, edges }
            }
            TopoSpec::Tree(n) => {
                let (n, edges) = topology::binary_tree_edges(n);
                Topo::Graph { n, edges }
            }
        }
    }
}

impl std::fmt::Display for TopoSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TopoSpec::Line(n) => write!(f, "line:{n}"),
            TopoSpec::Ring(n) => write!(f, "ring:{n}"),
            TopoSpec::Grid(w, h) => write!(f, "grid:{w}x{h}"),
            TopoSpec::Clique(n) => write!(f, "clique:{n}"),
            TopoSpec::Random(n, seed) => write!(f, "random:{n}:{seed}"),
            TopoSpec::Star(leaves) => write!(f, "star:{leaves}"),
            TopoSpec::Tree(n) => write!(f, "tree:{n}"),
        }
    }
}

/// The parsed command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Print the available algorithms and topology syntax.
    List,
    /// Run a workload and report.
    Run,
    /// Crash probe: crash the victim mid-CS and report locality.
    Probe,
    /// Multi-seed sweep: algorithms × seeds in parallel, aggregated.
    Sweep,
    /// Fault-injection matrix: every fault class × seeds, aggregated.
    Chaos,
    /// Bounded schedule-space model checking with witness shrink/replay.
    Check,
    /// Benchmarks (`lme bench live`, `lme bench channel`).
    Bench,
    /// Live run on the shard worker pool over a real transport (`lme live`).
    Live,
}

/// Which benchmark `lme bench` runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchMode {
    /// Live-runtime throughput/latency over a real transport (wall time).
    Live,
    /// Channel-model matrix: every channel model × a clique and a ring,
    /// reporting meals, response times and channel counters.
    Channel,
}

/// Everything the CLI understood.
#[derive(Clone, Debug)]
pub struct Cli {
    /// Which subcommand to run.
    pub command: Command,
    /// Algorithm under test.
    pub alg: AlgKind,
    /// Algorithms a sweep compares (all of Table 1 unless `--alg` narrows
    /// it to one).
    pub algs: Vec<AlgKind>,
    /// Topology specification.
    pub topo: TopoSpec,
    /// Virtual-time horizon.
    pub horizon: u64,
    /// RNG seed.
    pub seed: u64,
    /// Eating-time range.
    pub eat: (u64, u64),
    /// Think-time range.
    pub think: (u64, u64),
    /// Random-waypoint movements to schedule.
    pub moves: usize,
    /// Heterogeneous mobility mix (static-core : highway : group); wins
    /// over `--moves` when both are given.
    pub mix: Option<MobilityMix>,
    /// Channel model messages traverse (`iid` is the historical default).
    pub channel: ChannelConfig,
    /// Crash-probe victim (probe) or optional mid-run crash (run).
    pub victim: Option<u32>,
    /// Arm the reliable-delivery ARQ shim in simulator runs.
    pub arq: bool,
    /// Recover the crashed `--victim`: ticks for `run`, ms for `live`.
    pub recover_at: Option<u64>,
    /// Live: per-link ARQ (retransmit + ack) over the real transport.
    pub reliable: bool,
    /// Emit per-episode samples as CSV instead of the text report.
    pub csv: bool,
    /// Sweep worker threads (`None` = the machine's parallelism).
    pub jobs: Option<usize>,
    /// Number of consecutive seeds a sweep runs, starting at `seed`.
    pub seeds: u64,
    /// Write per-run metrics as JSON lines to this path.
    pub metrics_out: Option<String>,
    /// Per-message drop probability on faulted links.
    pub fault_drop: f64,
    /// Per-message duplication probability on faulted links.
    pub fault_dup: f64,
    /// Extra delay (ticks) added to every message on faulted links
    /// (`0` = off).
    pub fault_skew: u64,
    /// Run the adaptive maximum-delay adversary (every message to or from
    /// a target is charged exactly ν).
    pub fault_delay: bool,
    /// Partition window `at..heal_at`: cut `fault_targets` off at `at`,
    /// heal at `heal_at`.
    pub fault_partition: Option<(u64, u64)>,
    /// Nodes the link faults / adversary / partition aim at
    /// (`None` = every link; the partition requires an explicit side).
    pub fault_targets: Option<Vec<u32>>,
    /// Active window `[a, b)` for link faults and the delay adversary
    /// (`None` = the whole run).
    pub fault_window: Option<(u64, u64)>,
    /// Seed of the fault RNG (`0` = derive from the run seed).
    pub fault_seed: u64,
    /// Check: exploration strategy.
    pub strategy: StrategyKind,
    /// Check: DFS schedule budget.
    pub steps: usize,
    /// Check: DFS flip-depth bound.
    pub depth: usize,
    /// Check: write the (shrunk) witness JSON here when a violation is found.
    pub witness_out: Option<String>,
    /// Check: replay this witness file instead of exploring.
    pub replay_witness: Option<String>,
    /// Check: deliberate algorithm defect for checker self-validation.
    pub mutate: Mutation,
    /// Check: recycling liveness workload — nodes go hungry again after
    /// eating and starvation is checked as a repeated-progress-state lasso.
    pub liveness: bool,
    /// Check: exhaust the extremal schedule space and certify the exact
    /// worst-case response time instead of exploring for violations.
    pub certify: bool,
    /// Every flag the user passed explicitly, in order — used to detect
    /// conflicts between the command line and a replayed witness's
    /// recorded instance.
    pub explicit: Vec<String>,
    /// Bench: which benchmark to run.
    pub bench_mode: BenchMode,
    /// Bench live: ring sizes of the `--ns` scale ladder (none unless
    /// the flag is given).
    pub bench_ns: Vec<usize>,
    /// Bench: where the JSON output is written (`None` = the mode's
    /// default: `BENCH_live.json` / `BENCH_channel.json`).
    pub bench_out: Option<String>,
    /// Live: which transport carries the frames.
    pub transport: TransportKind,
    /// Live: wall-clock run length in milliseconds.
    pub duration_ms: u64,
    /// Live: mean hungry-cycle rate per node, in cycles per second.
    pub rate: f64,
    /// Live: eating time per session in milliseconds.
    pub eat_ms: u64,
    /// Live: one hungry cycle per node, stop once everyone has eaten.
    pub one_shot: bool,
    /// Live: after the run, replay its delivery timing in the simulator
    /// and check safety + census conformance (needs `--oneshot`).
    pub conformance: bool,
    /// Live: run the full algorithm × {clique, ring} matrix instead of a
    /// single cell.
    pub matrix: bool,
    /// Live: worker-thread count of the shard pool (`None` = size to the
    /// machine's parallelism).
    pub workers: Option<usize>,
    /// Live / bench live: closed-loop workload — a node goes hungry again
    /// immediately after eating instead of drawing an open-loop think
    /// time from `--rate`.
    pub closed_loop: bool,
}

impl Cli {
    /// Whether the user passed `flag` explicitly on the command line.
    pub fn explicitly_set(&self, flag: &str) -> bool {
        self.explicit.iter().any(|f| f == flag)
    }

    /// This command's bit in [`FLAG_READERS`] and its name; `bench` counts
    /// as one command per mode.
    fn reader(&self) -> (u8, &'static str) {
        match (&self.command, self.bench_mode) {
            (Command::List, _) => (0, "list"),
            (Command::Run, _) => (RUN, "run"),
            (Command::Probe, _) => (PROBE, "probe"),
            (Command::Sweep, _) => (SWEEP, "sweep"),
            (Command::Chaos, _) => (CHAOS, "chaos"),
            (Command::Check, _) => (CHECK, "check"),
            (Command::Live, _) => (LIVE, "live"),
            (Command::Bench, BenchMode::Live) => (BENCH_LIVE, "bench live"),
            (Command::Bench, BenchMode::Channel) => (BENCH_CHANNEL, "bench channel"),
        }
    }
}

const RUN: u8 = 1;
const PROBE: u8 = 1 << 1;
const SWEEP: u8 = 1 << 2;
const CHAOS: u8 = 1 << 3;
const CHECK: u8 = 1 << 4;
const LIVE: u8 = 1 << 5;
const BENCH_LIVE: u8 = 1 << 6;
const BENCH_CHANNEL: u8 = 1 << 7;
/// The simulator runs that take a workload and a fault plan.
const SIM: u8 = RUN | PROBE | SWEEP;
/// The wall-clock runs of the live runtime.
const LIVE_RUNS: u8 = LIVE | BENCH_LIVE;

/// Which commands read each flag. Passing a flag to any other command is
/// an error (exit 2), never a silent drop.
const FLAG_READERS: &[(&str, u8)] = &[
    ("--alg", SIM | CHAOS | CHECK | LIVE_RUNS | BENCH_CHANNEL),
    ("--topo", SIM | CHAOS | CHECK | LIVE_RUNS),
    ("--nodes", SIM | CHAOS | CHECK | LIVE_RUNS),
    ("--horizon", SIM | CHAOS | CHECK | BENCH_CHANNEL),
    ("--seed", SIM | CHAOS | CHECK | LIVE_RUNS | BENCH_CHANNEL),
    ("--eat", SIM | CHAOS | CHECK | BENCH_CHANNEL),
    ("--think", SIM | CHAOS | CHECK | BENCH_CHANNEL),
    ("--moves", RUN | SWEEP | LIVE_RUNS),
    ("--mix", RUN | SWEEP),
    ("--channel", SIM),
    ("--victim", SIM | CHAOS | LIVE_RUNS),
    ("--arq", SIM),
    ("--recover", RUN | SWEEP | LIVE_RUNS),
    ("--reliable", LIVE_RUNS),
    ("--csv", RUN),
    ("--jobs", SWEEP | CHAOS | CHECK),
    ("--seeds", SWEEP | CHAOS | CHECK),
    ("--metrics-out", SIM | CHAOS | BENCH_LIVE),
    ("--fault-drop", SIM),
    ("--fault-dup", SIM),
    ("--fault-skew", SIM),
    ("--fault-delay", SIM),
    ("--fault-partition", SIM),
    ("--fault-targets", SIM),
    ("--fault-window", SIM),
    ("--fault-seed", SIM),
    ("--strategy", CHECK),
    ("--steps", CHECK),
    ("--depth", CHECK),
    ("--mutate", CHECK),
    ("--liveness", CHECK),
    ("--certify", CHECK),
    ("--witness-out", CHECK),
    ("--replay", CHECK),
    ("--ns", BENCH_LIVE),
    ("--out", CHECK | BENCH_LIVE | BENCH_CHANNEL),
    ("--transport", LIVE_RUNS),
    ("--duration", LIVE_RUNS),
    ("--rate", LIVE_RUNS),
    ("--eat-ms", LIVE_RUNS),
    ("--oneshot", LIVE_RUNS),
    ("--conformance", LIVE),
    ("--matrix", LIVE),
    ("--workers", LIVE_RUNS),
    ("--closed-loop", LIVE_RUNS),
];

impl Default for Cli {
    fn default() -> Cli {
        Cli {
            command: Command::Run,
            alg: AlgKind::A2,
            algs: AlgKind::all().to_vec(),
            topo: TopoSpec::Line(8),
            horizon: 40_000,
            seed: 0xA77D_2008,
            eat: (10, 30),
            think: (50, 150),
            moves: 0,
            mix: None,
            channel: ChannelConfig::default(),
            victim: None,
            arq: false,
            recover_at: None,
            reliable: false,
            csv: false,
            jobs: None,
            seeds: 8,
            metrics_out: None,
            fault_drop: 0.0,
            fault_dup: 0.0,
            fault_skew: 0,
            fault_delay: false,
            fault_partition: None,
            fault_targets: None,
            fault_window: None,
            fault_seed: 0,
            strategy: StrategyKind::Dfs,
            steps: 256,
            depth: 12,
            witness_out: None,
            replay_witness: None,
            mutate: Mutation::None,
            liveness: false,
            certify: false,
            explicit: Vec::new(),
            bench_mode: BenchMode::Live,
            bench_ns: Vec::new(),
            bench_out: None,
            transport: TransportKind::Mpsc,
            duration_ms: 2_000,
            rate: 25.0,
            eat_ms: 2,
            one_shot: false,
            conformance: false,
            matrix: false,
            workers: None,
            closed_loop: false,
        }
    }
}

/// Usage text shown for `lme list` and on errors.
pub const USAGE: &str = "\
usage: lme <list|run|probe|sweep|chaos|check|bench|live> [options]

commands:
  list    print algorithms and topology syntax
  run     one workload run, full report
  probe   crash the victim mid-CS, report failure locality
  sweep   algorithms x seeds grid in parallel, aggregated report
  chaos   fault classes x seeds matrix (crash, recover, windowed-loss,
          sustained-loss, windowed-duplication, partition, max-delay),
          aggregated report; sustained-loss arms the ARQ shim and the
          command exits nonzero if that class stalls
  check   explore the legal delivery schedules of a small model for
          safety/liveness violations; shrink and replay witnesses
  bench   `bench live`: wall-clock throughput (eating sessions/sec) and
          hungry->eat latency percentiles of every algorithm over a
          real transport, written as BENCH_live.json
          `bench channel`: every channel model x {clique:8, ring:8},
          reporting meals, response percentiles and channel counters,
          written as BENCH_channel.json
  live    real message passing (in-process rings or UDP on loopback)
          on an M:N sharded worker pool that scales the same automata
          to tens of thousands of nodes; every algorithm runs live, and
          the live trace is validated by the safety monitor

A flag the command does not read is an error (exit 2).

options:
  --alg <name>       a1-greedy | a1-linial | a1-random | a2 |
                     chandy-misra | choy-singh              (default a2;
                     sweep compares all Table 1 algorithms unless given)
  --topo <spec>      line:N | ring:N | grid:WxH | clique:N |
                     random:N[:SEED] | star:LEAVES | tree:N (default line:8)
  --horizon <ticks>  run length                             (default 40000)
  --seed <n>         RNG seed (sweep: first seed of the range)
  --eat <a..b>       eating-time range in ticks             (default 10..30)
  --think <a..b>     think-time range in ticks              (default 50..150)
  --moves <k>        random-waypoint movements              (default 0)
  --mix <s:h>        heterogeneous mobility mix: fraction of static-core
                     and highway nodes (rest wander in groups), e.g.
                     0.4:0.3; wins over --moves    (default: homogeneous)
  --channel <spec>   channel model: iid | bandwidth:TPF[:QUEUE] |
                     shared:TPF[:INFLIGHT] | gilbert:PG2B:PB2G[:LG:LB]
                     (default iid — the historical i.i.d. delay draw)
  --victim <node>    probe: node to crash mid-CS            (default center)
  --csv              emit per-episode samples as CSV
  --jobs <n>         sweep worker threads         (default: all cores;
                     results are identical for every value)
  --seeds <n>        sweep: consecutive seeds to run        (default 8)
  --metrics-out <p>  write per-run metrics as JSON lines to <p>

fault injection (run/probe/sweep; chaos builds its own schedule):
  --fault-drop <p>       drop probability per message          (default 0)
  --fault-dup <p>        duplication probability per message   (default 0)
  --fault-skew <ticks>   extra delay added to every message    (default 0)
  --fault-delay          charge every message the max legal delay
  --fault-partition a..b cut --fault-targets off at a, heal at b
  --fault-targets <ids>  comma-separated nodes to aim faults at
                         (default: every link; required for partitions)
  --fault-window <a..b>  restrict link faults / delay adversary to [a,b)
  --fault-seed <n>       fault RNG seed (default: derived from --seed)

reliable delivery and recovery:
  --arq                  run/sweep/probe: arm the per-link ARQ shim
                         (retransmit + cumulative ack) between every
                         protocol and its channel
  --recover <t>          run/sweep: crash --victim at horizon/4 and
                         recover it as a fresh incarnation at tick <t>
                         live: recover the crashed --victim at <t> ms
  --reliable             live: per-link go-back-N ARQ (retransmit + ack)
                         between every node pair

model checking (check):
  --strategy <s>       dfs | random | pct                  (default dfs)
  --steps <n>          dfs: schedule budget (default 256; with --certify
                       the budget defaults to 2000000)
  --seeds <n>          random/pct: number of walks         (default 8)
  --depth <n>          dfs: branch points eligible to flip (default 12)
  --jobs <n>           exploration worker threads (default 1; verdicts,
                       prune counts and witnesses are byte-identical for
                       every value)
  --nodes <n>          shorthand for --topo line:N
  --mutate <m>         none | no-sdf-guard | unfair-fork — deliberately
                       break the algorithm to validate the checker
                       (default none)
  --liveness           recycling workload: every node goes hungry again
                       --think ticks after eating, and starvation is
                       checked directly as a repeated-progress-state
                       lasso (property starvation-lasso)
  --certify            exhaust the extremal schedule space and report the
                       exact worst-case response time as a machine-
                       readable certificate (written to --out if given)
  --witness-out <p>    write the shrunk witness JSON to <p>
  --replay <p>         replay a witness file instead of exploring; any
                       explicitly-passed instance flag that conflicts
                       with the witness is a structured error

live runtime (live, bench live):
  --transport <t>      mpsc | udp               (default mpsc)
  --duration <ms>      wall-clock run length    (default 2000)
  --rate <r>           hungry cycles per node-second        (default 25)
  --eat-ms <ms>        eating time per session  (default 2; must fit
                       under the model's tau)
  --oneshot            one hungry cycle per node, stop when everyone ate
  --conformance        after the run, replay its delivery timing in the
                       simulator and check safety + census (needs
                       --oneshot on a fault-free static topology)
  --matrix             run every algorithm x {clique:5, ring:6}
                       instead of a single cell; nonzero exit on any
                       safety violation
  --victim <node>      crash this node a quarter into the run
  --moves <k>          teleport waypoints pushed by the driver
  --workers <n>        worker-pool size             (default: the machine's
                       parallelism, clamped to 2..16; every node runs on
                       a fixed pool of contiguous shards with batched
                       cross-shard frames and per-shard ticket ranges
                       merged at export)
  --closed-loop        nodes go hungry again immediately after eating
                       (saturation workload; --rate only staggers the
                       first cycle)
  --ns <a,b,...>       bench live: also run --alg on ring:n per rung
  --out <p>            bench live: JSON path    (default BENCH_live.json)
";

fn parse_alg(s: &str) -> Result<AlgKind, String> {
    AlgKind::extended()
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(s))
        .ok_or_else(|| format!("unknown algorithm '{s}'; try `lme list`"))
}

fn parse_usize(s: &str, what: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("invalid {what} '{s}'"))
}

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("invalid {what} '{s}'"))
}

fn parse_pos_f64(s: &str, what: &str) -> Result<f64, String> {
    let v: f64 = s.parse().map_err(|_| format!("invalid {what} '{s}'"))?;
    if v <= 0.0 || !v.is_finite() {
        return Err(format!("{what} '{s}' must be a positive number"));
    }
    Ok(v)
}

fn parse_prob(s: &str, what: &str) -> Result<f64, String> {
    let p: f64 = s.parse().map_err(|_| format!("invalid {what} '{s}'"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("{what} '{s}' must be a probability in [0, 1]"));
    }
    Ok(p)
}

/// Parse a half-open tick window `a..b` with `a < b` (zero start allowed,
/// unlike the eat/think ranges).
fn parse_window(s: &str, what: &str) -> Result<(u64, u64), String> {
    let (a, b) = s
        .split_once("..")
        .ok_or_else(|| format!("{what} '{s}' must look like 100..900"))?;
    let a = parse_u64(a, what)?;
    let b = parse_u64(b, what)?;
    if b <= a {
        return Err(format!("{what} '{s}' must satisfy a < b"));
    }
    Ok((a, b))
}

fn parse_nodes(s: &str) -> Result<Vec<u32>, String> {
    s.split(',')
        .map(|id| {
            id.trim()
                .parse()
                .map_err(|_| format!("invalid node id '{id}' in '{s}'"))
        })
        .collect()
}

fn parse_range(s: &str) -> Result<(u64, u64), String> {
    let (a, b) = s
        .split_once("..")
        .ok_or_else(|| format!("range '{s}' must look like 10..30"))?;
    let a = parse_u64(a, "range start")?;
    let b = parse_u64(b, "range end")?;
    if a == 0 || b < a {
        return Err(format!("range '{s}' must satisfy 1 ≤ a ≤ b"));
    }
    Ok((a, b))
}

/// `harness::topology::ring` asserts `n ≥ 3`; turn smaller sizes away at
/// the door, naming the offending `what` + value.
fn ring_size(n: usize, what: &str) -> Result<usize, String> {
    if n < 3 {
        return Err(format!(
            "{what}{n} is too small: a ring needs at least 3 nodes"
        ));
    }
    Ok(n)
}

/// Parse a topology spec like `grid:4x5` or `random:24:7`.
pub fn parse_topo(s: &str) -> Result<TopoSpec, String> {
    let mut parts = s.split(':');
    let kind = parts.next().unwrap_or_default();
    let arg = parts
        .next()
        .ok_or_else(|| format!("topology '{s}' needs a size, e.g. line:8"))?;
    let spec = match kind {
        "line" => TopoSpec::Line(parse_usize(arg, "size")?),
        "ring" => TopoSpec::Ring(ring_size(parse_usize(arg, "size")?, "ring:")?),
        "clique" => TopoSpec::Clique(parse_usize(arg, "size")?),
        "star" => TopoSpec::Star(parse_usize(arg, "leaf count")?),
        "tree" => TopoSpec::Tree(parse_usize(arg, "size")?),
        "grid" => {
            let (w, h) = arg
                .split_once('x')
                .ok_or_else(|| format!("grid spec '{arg}' must look like 4x5"))?;
            TopoSpec::Grid(
                parse_usize(w, "grid width")?,
                parse_usize(h, "grid height")?,
            )
        }
        "random" => {
            let n = parse_usize(arg, "size")?;
            let seed = match parts.next() {
                Some(s) => parse_u64(s, "topology seed")?,
                None => 7,
            };
            TopoSpec::Random(n, seed)
        }
        other => return Err(format!("unknown topology kind '{other}'; try `lme list`")),
    };
    if spec.is_empty() {
        return Err("topology must have at least one node".to_string());
    }
    if let Some(extra) = parts.next() {
        if !matches!(spec, TopoSpec::Random(..)) || !extra.is_empty() {
            // random consumed its optional seed above; anything else is junk
            if !matches!(spec, TopoSpec::Random(..)) {
                return Err(format!("trailing topology arguments: '{extra}'"));
            }
        }
    }
    Ok(spec)
}

/// Parse full argv (excluding the binary name is fine too — `list`, `run`
/// or `probe` is located positionally).
///
/// # Errors
///
/// Returns a diagnostic (often including [`USAGE`]) on malformed input.
pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Cli, String> {
    let mut args: Vec<String> = argv.into_iter().collect();
    if args
        .first()
        .is_some_and(|a| a.ends_with("lme") || a.ends_with("lme.exe"))
    {
        args.remove(0);
    }
    let mut cli = Cli::default();
    let mut it = args.into_iter().peekable();
    let cmd = it
        .next()
        .ok_or_else(|| format!("missing command\n{USAGE}"))?;
    cli.command = match cmd.as_str() {
        "list" => Command::List,
        "run" => Command::Run,
        "probe" => Command::Probe,
        "sweep" => Command::Sweep,
        "chaos" => Command::Chaos,
        "check" => Command::Check,
        "bench" => Command::Bench,
        "live" => Command::Live,
        other => return Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    if cli.command == Command::Bench {
        // `bench` takes a positional mode.
        let mode = it.next_if(|a| !a.starts_with("--")).unwrap_or_default();
        cli.bench_mode = match mode.as_str() {
            "live" => BenchMode::Live,
            "channel" => BenchMode::Channel,
            _ => {
                return Err(format!(
                    "unknown bench mode '{mode}'; try `lme bench live` or `lme bench channel`"
                ))
            }
        };
    }
    while let Some(flag) = it.next() {
        if flag.starts_with("--") {
            cli.explicit.push(flag.clone());
        }
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("flag {name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--alg" => {
                cli.alg = parse_alg(&value("--alg")?)?;
                cli.algs = vec![cli.alg];
            }
            "--topo" => cli.topo = parse_topo(&value("--topo")?)?,
            "--horizon" => cli.horizon = parse_u64(&value("--horizon")?, "horizon")?,
            "--seed" => cli.seed = parse_u64(&value("--seed")?, "seed")?,
            "--eat" => {
                let spec = value("--eat")?;
                cli.eat = parse_range(&spec)?;
                let tau = SimConfig::default().max_eating_ticks;
                if cli.eat.1 > tau {
                    return Err(format!("--eat {spec} exceeds τ ({tau} ticks)"));
                }
            }
            "--think" => cli.think = parse_range(&value("--think")?)?,
            "--moves" => cli.moves = parse_usize(&value("--moves")?, "move count")?,
            "--mix" => cli.mix = Some(MobilityMix::parse(&value("--mix")?)?),
            "--channel" => cli.channel = ChannelConfig::parse(&value("--channel")?)?,
            "--victim" => {
                cli.victim = Some(parse_u64(&value("--victim")?, "victim")? as u32);
            }
            "--arq" => cli.arq = true,
            "--recover" => {
                cli.recover_at = Some(parse_u64(&value("--recover")?, "recover time")?);
            }
            "--reliable" => cli.reliable = true,
            "--csv" => cli.csv = true,
            "--jobs" => {
                let jobs = parse_usize(&value("--jobs")?, "job count")?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                cli.jobs = Some(jobs);
            }
            "--seeds" => {
                cli.seeds = parse_u64(&value("--seeds")?, "seed count")?;
                if cli.seeds == 0 {
                    return Err("--seeds must be at least 1".to_string());
                }
            }
            "--metrics-out" => cli.metrics_out = Some(value("--metrics-out")?),
            "--fault-drop" => {
                cli.fault_drop = parse_prob(&value("--fault-drop")?, "drop probability")?;
            }
            "--fault-dup" => {
                cli.fault_dup = parse_prob(&value("--fault-dup")?, "duplication probability")?;
            }
            "--fault-skew" => {
                cli.fault_skew = parse_u64(&value("--fault-skew")?, "skew ticks")?;
            }
            "--fault-delay" => cli.fault_delay = true,
            "--fault-partition" => {
                cli.fault_partition = Some(parse_window(
                    &value("--fault-partition")?,
                    "partition window",
                )?);
            }
            "--fault-targets" => {
                let nodes = parse_nodes(&value("--fault-targets")?)?;
                if nodes.is_empty() {
                    return Err("--fault-targets needs at least one node".to_string());
                }
                cli.fault_targets = Some(nodes);
            }
            "--fault-window" => {
                cli.fault_window = Some(parse_window(&value("--fault-window")?, "fault window")?);
            }
            "--fault-seed" => {
                cli.fault_seed = parse_u64(&value("--fault-seed")?, "fault seed")?;
            }
            "--strategy" => cli.strategy = StrategyKind::parse(&value("--strategy")?)?,
            "--steps" => {
                cli.steps = parse_usize(&value("--steps")?, "step budget")?;
                if cli.steps == 0 {
                    return Err("--steps must be at least 1".to_string());
                }
            }
            "--depth" => cli.depth = parse_usize(&value("--depth")?, "depth bound")?,
            "--nodes" => {
                let n = parse_usize(&value("--nodes")?, "node count")?;
                if n == 0 {
                    return Err("--nodes must be at least 1".to_string());
                }
                cli.topo = TopoSpec::Line(n);
            }
            "--mutate" => cli.mutate = Mutation::parse(&value("--mutate")?)?,
            "--liveness" => cli.liveness = true,
            "--certify" => cli.certify = true,
            "--witness-out" => cli.witness_out = Some(value("--witness-out")?),
            "--replay" => cli.replay_witness = Some(value("--replay")?),
            "--ns" => {
                cli.bench_ns = value("--ns")?
                    .split(',')
                    .map(|s| ring_size(parse_usize(s.trim(), "node count")?, "--ns "))
                    .collect::<Result<_, _>>()?;
            }
            "--out" => cli.bench_out = Some(value("--out")?),
            "--transport" => cli.transport = TransportKind::parse(&value("--transport")?)?,
            "--duration" => {
                cli.duration_ms = parse_u64(&value("--duration")?, "duration")?;
                if cli.duration_ms == 0 {
                    return Err("--duration must be at least 1 ms".to_string());
                }
            }
            "--rate" => cli.rate = parse_pos_f64(&value("--rate")?, "rate")?,
            "--eat-ms" => {
                cli.eat_ms = parse_u64(&value("--eat-ms")?, "eating time")?;
                if cli.eat_ms == 0 {
                    return Err("--eat-ms must be at least 1 ms".to_string());
                }
            }
            "--oneshot" => cli.one_shot = true,
            "--conformance" => cli.conformance = true,
            "--matrix" => cli.matrix = true,
            "--workers" => {
                let workers = parse_usize(&value("--workers")?, "worker count")?;
                if workers == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
                cli.workers = Some(workers);
            }
            "--closed-loop" => cli.closed_loop = true,
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    let (bit, name) = cli.reader();
    for flag in &cli.explicit {
        let readers = FLAG_READERS
            .iter()
            .find(|(f, _)| f == flag)
            .map_or(0, |&(_, readers)| readers);
        if readers & bit == 0 {
            return Err(format!("{flag} does not apply to `lme {name}`"));
        }
    }
    if cli.certify {
        if cli.liveness {
            return Err(
                "--certify measures one hungry cycle per node; the recycling \
                 --liveness workload never quiesces"
                    .to_string(),
            );
        }
        if cli.strategy != StrategyKind::Dfs {
            return Err("--certify exhausts the schedule space; --strategy does not apply".into());
        }
        if cli.replay_witness.is_some() {
            return Err("--certify and --replay are mutually exclusive".to_string());
        }
    }
    if (cli.moves > 0 || cli.mix.is_some()) && cli.topo.is_explicit() {
        return Err("star/tree topologies are explicit graphs: movement is not supported".into());
    }
    if let Some(v) = cli.victim {
        if v as usize >= cli.topo.len() {
            return Err(format!(
                "victim {v} out of range for a {}-node topology",
                cli.topo.len()
            ));
        }
    }
    if cli.recover_at.is_some() && cli.victim.is_none() {
        return Err("--recover needs --victim (the node that crashes)".to_string());
    }
    if cli.fault_partition.is_some() && cli.fault_targets.is_none() {
        return Err("--fault-partition needs --fault-targets (the side to cut off)".to_string());
    }
    if let Some(targets) = &cli.fault_targets {
        let n = cli.topo.len();
        if let Some(&bad) = targets.iter().find(|&&t| t as usize >= n) {
            return Err(format!(
                "fault target {bad} out of range for a {n}-node topology"
            ));
        }
        if cli.fault_partition.is_some() && targets.len() >= n {
            return Err("a partition side must leave at least one node outside".to_string());
        }
    }
    if cli.command == Command::Live {
        if cli.topo.is_explicit() {
            return Err(
                "live runs need a geometric topology (the driver owns positions)".to_string(),
            );
        }
        if cli.conformance {
            if !cli.one_shot {
                return Err("--conformance needs --oneshot (see `lme list`)".to_string());
            }
            if cli.victim.is_some() || cli.moves > 0 {
                return Err(
                    "--conformance needs a fault-free, static run (drop --victim/--moves)"
                        .to_string(),
                );
            }
        }
    }
    Ok(cli)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn parses_run_with_defaults() {
        let cli = parse(argv("run")).unwrap();
        assert_eq!(cli.command, Command::Run);
        assert_eq!(cli.alg, AlgKind::A2);
        assert_eq!(cli.topo, TopoSpec::Line(8));
    }

    #[test]
    fn parses_full_flag_set() {
        let cli = parse(argv(
            "run --alg a1-linial --topo grid:4x5 --horizon 9000 --seed 3 \
             --eat 5..9 --think 11..20 --moves 4 --csv",
        ))
        .unwrap();
        assert_eq!(cli.alg, AlgKind::A1Linial);
        assert_eq!(cli.topo, TopoSpec::Grid(4, 5));
        assert_eq!(cli.topo.len(), 20);
        assert_eq!(cli.horizon, 9000);
        assert_eq!(cli.seed, 3);
        assert_eq!(cli.eat, (5, 9));
        assert_eq!(cli.think, (11, 20));
        assert_eq!(cli.moves, 4);
        assert!(cli.csv);
    }

    #[test]
    fn parses_every_topology_kind() {
        assert_eq!(parse_topo("line:3").unwrap(), TopoSpec::Line(3));
        assert_eq!(parse_topo("ring:9").unwrap(), TopoSpec::Ring(9));
        assert_eq!(parse_topo("clique:4").unwrap(), TopoSpec::Clique(4));
        assert_eq!(parse_topo("random:24:9").unwrap(), TopoSpec::Random(24, 9));
        assert_eq!(parse_topo("random:24").unwrap(), TopoSpec::Random(24, 7));
        assert_eq!(parse_topo("star:6").unwrap(), TopoSpec::Star(6));
        assert_eq!(parse_topo("tree:15").unwrap(), TopoSpec::Tree(15));
    }

    #[test]
    fn parses_sweep_flags() {
        let cli = parse(argv(
            "sweep --topo line:6 --seeds 12 --jobs 3 --metrics-out m.jsonl",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Sweep);
        assert_eq!(cli.seeds, 12);
        assert_eq!(cli.jobs, Some(3));
        assert_eq!(cli.metrics_out.as_deref(), Some("m.jsonl"));
        // No --alg: the sweep compares the whole Table 1 field.
        assert_eq!(cli.algs, AlgKind::all().to_vec());
        let one = parse(argv("sweep --alg a2")).unwrap();
        assert_eq!(one.algs, vec![AlgKind::A2]);
    }

    #[test]
    fn topo_specs_display_round_trip() {
        for s in [
            "line:3",
            "ring:9",
            "grid:4x5",
            "clique:4",
            "random:24:9",
            "star:6",
            "tree:15",
        ] {
            assert_eq!(parse_topo(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(argv("bogus")).is_err());
        assert!(parse(argv("sweep --jobs 0")).is_err());
        assert!(parse(argv("sweep --seeds 0")).is_err());
        assert!(parse(argv("sweep --metrics-out")).is_err());
        assert!(parse(argv("run --alg nope")).is_err());
        assert!(parse(argv("run --topo blob:3")).is_err());
        assert!(parse(argv("run --topo grid:4")).is_err());
        assert!(parse(argv("run --eat 30..10")).is_err());
        assert!(parse(argv("run --eat 0..10")).is_err());
        let err = parse(argv("run --eat 10..100")).unwrap_err();
        assert_eq!(err, "--eat 10..100 exceeds τ (50 ticks)");
        parse(argv("run --eat 10..50")).unwrap();
        for cmd in ["run", "probe", "sweep", "chaos", "check", "live"] {
            for n in [1, 2] {
                let err = parse(argv(&format!("{cmd} --topo ring:{n}"))).unwrap_err();
                assert!(err.starts_with(&format!("ring:{n} is too small")), "{err}");
            }
        }
        parse(argv("run --topo ring:3")).unwrap();
        assert!(parse(argv("run --horizon")).is_err());
        assert!(parse(argv("run --topo star:4 --moves 2")).is_err());
        assert!(parse(argv("probe --topo line:5 --victim 9")).is_err());
        // A flag the command never reads is an error naming both.
        for (line, flag, cmd) in [
            ("list --alg a2", "--alg", "list"),
            ("run --jobs 2", "--jobs", "run"),
            ("probe --moves 3", "--moves", "probe"),
            ("chaos --arq", "--arq", "chaos"),
            ("chaos --recover 900 --victim 1", "--recover", "chaos"),
            ("sweep --csv", "--csv", "sweep"),
            ("run --duration 100", "--duration", "run"),
        ] {
            let err = parse(argv(line)).unwrap_err();
            assert_eq!(
                err,
                format!("{flag} does not apply to `lme {cmd}`"),
                "{line}"
            );
        }
    }

    #[test]
    fn every_documented_flag_has_readers() {
        let flags = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--") && w.len() > 2);
        for flag in flags {
            let readers = FLAG_READERS.iter().find(|(f, _)| *f == flag);
            assert!(readers.is_some_and(|&(_, r)| r != 0), "{flag}");
        }
    }

    #[test]
    fn parses_reliability_flags() {
        let cli = parse(argv("run --topo line:5 --arq --victim 2 --recover 5000")).unwrap();
        assert!(cli.arq);
        assert_eq!(cli.victim, Some(2));
        assert_eq!(cli.recover_at, Some(5000));
        assert!(!cli.reliable);
        let live = parse(argv(
            "live --topo ring:6 --reliable --victim 1 --recover 800",
        ))
        .unwrap();
        assert!(live.reliable);
        assert_eq!(live.recover_at, Some(800));
        assert!(parse(argv("run --topo line:5 --recover 5000")).is_err()); // no victim
        assert!(parse(argv("probe --topo line:5 --victim 2 --recover 5000")).is_err());
    }

    #[test]
    fn parses_fault_flags() {
        let cli = parse(argv(
            "run --topo line:6 --fault-drop 0.25 --fault-dup 0.1 --fault-skew 40 \
             --fault-delay --fault-partition 100..900 --fault-targets 2,3 \
             --fault-window 50..5000 --fault-seed 99",
        ))
        .unwrap();
        assert_eq!(cli.fault_drop, 0.25);
        assert_eq!(cli.fault_dup, 0.1);
        assert_eq!(cli.fault_skew, 40);
        assert!(cli.fault_delay);
        assert_eq!(cli.fault_partition, Some((100, 900)));
        assert_eq!(cli.fault_targets, Some(vec![2, 3]));
        assert_eq!(cli.fault_window, Some((50, 5000)));
        assert_eq!(cli.fault_seed, 99);
        let chaos = parse(argv("chaos --topo line:9 --seeds 4")).unwrap();
        assert_eq!(chaos.command, Command::Chaos);
    }

    #[test]
    fn rejects_malformed_fault_flags() {
        assert!(parse(argv("run --fault-drop 1.5")).is_err());
        assert!(parse(argv("run --fault-drop -0.1")).is_err());
        assert!(parse(argv("run --fault-window 10..10")).is_err());
        assert!(parse(argv("run --fault-partition 100..900")).is_err()); // no targets
        assert!(parse(argv("run --topo line:4 --fault-targets 9")).is_err());
        assert!(parse(argv(
            "run --topo line:3 --fault-partition 1..2 --fault-targets 0,1,2"
        ))
        .is_err()); // nobody left outside the cut
        assert!(parse(argv("run --fault-targets")).is_err());
    }

    #[test]
    fn parses_check_flags() {
        let cli = parse(argv(
            "check --alg a1-greedy --strategy pct --steps 99 --depth 7 \
             --nodes 4 --mutate no-sdf-guard --witness-out w.json",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Check);
        assert_eq!(cli.strategy, StrategyKind::Pct);
        assert_eq!(cli.steps, 99);
        assert_eq!(cli.depth, 7);
        assert_eq!(cli.topo, TopoSpec::Line(4));
        assert_eq!(cli.mutate, Mutation::NoSdfGuard);
        assert_eq!(cli.witness_out.as_deref(), Some("w.json"));
        let replay = parse(argv("check --replay w.json")).unwrap();
        assert_eq!(replay.replay_witness.as_deref(), Some("w.json"));
    }

    #[test]
    fn rejects_malformed_check_flags() {
        assert!(parse(argv("check --strategy bfs")).is_err());
        assert!(parse(argv("check --steps 0")).is_err());
        assert!(parse(argv("check --nodes 0")).is_err());
        assert!(parse(argv("check --mutate frobnicate")).is_err());
        assert!(parse(argv("check --witness-out")).is_err());
        for flag in [
            "--fault-drop 0.1",
            "--fault-delay",
            "--channel bandwidth:2",
            "--arq",
            "--mix 0.5:0.25",
            "--moves 2",
            "--victim 1",
            "--csv",
            "--metrics-out m.jsonl",
        ] {
            let err = parse(argv(&format!("check --topo line:3 {flag}"))).unwrap_err();
            assert!(
                err.ends_with("does not apply to `lme check`"),
                "{flag}: {err}"
            );
        }
    }

    #[test]
    fn parses_bench_flags() {
        let cli = parse(argv("bench live --ns 100,200 --out b.json")).unwrap();
        assert_eq!(cli.command, Command::Bench);
        assert_eq!(cli.bench_mode, BenchMode::Live);
        assert_eq!(cli.bench_ns, vec![100, 200]);
        assert_eq!(cli.bench_out.as_deref(), Some("b.json"));
        let default = parse(argv("bench live")).unwrap();
        assert!(default.bench_ns.is_empty(), "no ladder unless --ns");
        assert_eq!(default.bench_out, None);
    }

    #[test]
    fn parses_channel_and_mix_flags() {
        let cli = parse(argv("run --topo ring:6 --channel bandwidth:3:16")).unwrap();
        assert_eq!(
            cli.channel,
            ChannelConfig::ConstantBandwidth {
                ticks_per_frame: 3,
                max_queue: 16
            }
        );
        let cli = parse(argv("sweep --topo line:8 --mix 0.5:0.25")).unwrap();
        let mix = cli.mix.expect("mix parsed");
        assert_eq!(mix.static_frac, 0.5);
        assert_eq!(mix.highway_frac, 0.25);
        // Default stays the historical i.i.d. draw.
        assert_eq!(parse(argv("run")).unwrap().channel, ChannelConfig::Iid);
        assert!(parse(argv("run")).unwrap().mix.is_none());
        let bench = parse(argv("bench channel --out c.json")).unwrap();
        assert_eq!(bench.bench_mode, BenchMode::Channel);
        assert_eq!(bench.bench_out.as_deref(), Some("c.json"));
    }

    #[test]
    fn rejects_malformed_channel_and_mix_flags() {
        assert!(parse(argv("run --channel warp")).is_err());
        assert!(parse(argv("run --channel bandwidth:0")).is_err());
        assert!(parse(argv("run --channel gilbert:2:0.5")).is_err());
        assert!(parse(argv("run --mix 0.7:0.7")).is_err());
        assert!(parse(argv("run --topo star:4 --mix 0.4:0.3")).is_err());
        assert!(parse(argv("run --channel")).is_err());
    }

    #[test]
    fn rejects_malformed_bench_flags() {
        // The mode word is mandatory, and the retired modes are unknown.
        for line in [
            "bench",
            "bench --out b.json",
            "bench warp",
            "bench scale",
            "bench engine",
        ] {
            let err = parse(argv(line)).unwrap_err();
            assert!(err.starts_with("unknown bench mode"), "{line}: {err}");
            assert!(err.contains("`lme bench live`") && err.contains("`lme bench channel`"));
        }
        assert!(parse(argv("bench live --ns")).is_err());
        assert!(parse(argv("bench live --ns 0")).is_err());
        let err = parse(argv("bench live --ns 8,2")).unwrap_err();
        assert!(err.starts_with("--ns 2 is too small"), "{err}");
        parse(argv("bench live --ns 3")).unwrap();
        assert!(parse(argv("bench live --ns 10,x")).is_err());
        let err = parse(argv("bench channel --topo line:3")).unwrap_err();
        assert_eq!(err, "--topo does not apply to `lme bench channel`");
        let err = parse(argv("bench live --horizon 500")).unwrap_err();
        assert_eq!(err, "--horizon does not apply to `lme bench live`");
        let err = parse(argv("bench live --matrix")).unwrap_err();
        assert_eq!(err, "--matrix does not apply to `lme bench live`");
    }

    #[test]
    fn parses_live_flags() {
        let cli = parse(argv(
            "live --transport udp --alg a1-greedy --topo ring:6 --duration 500 \
             --rate 40 --eat-ms 1 --oneshot --conformance --seed 9",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Live);
        assert_eq!(cli.transport, TransportKind::Udp);
        assert_eq!(cli.alg, AlgKind::A1Greedy);
        assert_eq!(cli.topo, TopoSpec::Ring(6));
        assert_eq!(cli.duration_ms, 500);
        assert_eq!(cli.rate, 40.0);
        assert_eq!(cli.eat_ms, 1);
        assert!(cli.one_shot && cli.conformance);
        assert_eq!(cli.seed, 9);
        let matrix = parse(argv("live --matrix --duration 250")).unwrap();
        assert!(matrix.matrix);
        let bench = parse(argv("bench live --duration 300 --rate 50")).unwrap();
        assert_eq!(bench.command, Command::Bench);
        assert_eq!(bench.bench_mode, BenchMode::Live);
        assert_eq!(bench.duration_ms, 300);
    }

    #[test]
    fn parses_worker_pool_flags() {
        let cli = parse(argv("live --workers 4 --closed-loop --reliable")).unwrap();
        assert_eq!(cli.workers, Some(4));
        assert!(cli.closed_loop && cli.reliable);
        let default = parse(argv("live")).unwrap();
        assert_eq!(default.workers, None);
        assert!(!default.closed_loop);
        let bench = parse(argv("bench live --workers 2")).unwrap();
        assert_eq!(bench.workers, Some(2));
    }

    #[test]
    fn the_retired_runtime_flag_is_an_unknown_flag() {
        for cmd in ["live --runtime sharded", "bench live --runtime sharded"] {
            let err = parse(argv(cmd)).unwrap_err();
            assert!(err.contains("unknown flag '--runtime'"), "{err}");
        }
    }

    #[test]
    fn rejects_malformed_live_flags() {
        assert!(parse(argv("live --transport tcp")).is_err());
        assert!(parse(argv("live --workers 0")).is_err());
        assert!(parse(argv("live --duration 0")).is_err());
        assert!(parse(argv("live --rate 0")).is_err());
        assert!(parse(argv("live --rate -3")).is_err());
        assert!(parse(argv("live --eat-ms 0")).is_err());
        assert!(parse(argv("live --topo star:4")).is_err());
        assert!(parse(argv("live --conformance")).is_err()); // needs --oneshot
        assert!(parse(argv("live --conformance --oneshot --victim 0")).is_err());
        assert!(parse(argv("live --conformance --oneshot --moves 2")).is_err());
        for flag in [
            "--fault-drop 0.1",
            "--fault-window 1..9",
            "--channel shared:2",
            "--arq",
            "--mix 0.5:0.25",
            "--eat 5..9",
            "--think 5..9",
            "--horizon 900",
            "--csv",
        ] {
            let err = parse(argv(&format!("live --topo ring:4 {flag}"))).unwrap_err();
            assert!(
                err.ends_with("does not apply to `lme live`"),
                "{flag}: {err}"
            );
        }
    }

    #[test]
    fn every_algorithm_name_round_trips() {
        for k in AlgKind::extended() {
            assert_eq!(parse_alg(k.name()).unwrap(), k);
        }
    }
}
