//! Hand-rolled argument parsing (the workspace is dependency-minimal by
//! design; see DESIGN.md §6). Each command parses into its own type, and a
//! parser takes exactly the flags its type has a field for: a flag left
//! over does not apply to that command (or mode) and is an error.

use std::str::FromStr;

use harness::{topology, AlgKind, Mobility, MobilityMix, Topo, WaypointPlan};
use lme_check::{Mutation, StrategyKind};
use lme_net::{LiveConfig, LiveRuntime, TransportKind};
use manet_sim::{
    ChannelConfig, Command as SimCommand, CrashWave, DelayAdversary, FaultPlan, LinkFaults, NodeId,
    PartitionWindow, SimConfig,
};

use crate::experiments;

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

/// The parsed command line: one variant per command, each carrying exactly
/// the flags that command reads.
#[derive(Clone, Debug)]
pub enum Command {
    /// Print the available algorithms and topology syntax.
    List,
    /// Run a workload and report.
    Run(Run),
    /// Crash probe: crash the victim mid-CS and report locality.
    Probe(Probe),
    /// Multi-seed sweep: algorithms × seeds in parallel, aggregated.
    Sweep(Sweep),
    /// Fault-injection matrix: every fault class × seeds, aggregated.
    Chaos(Chaos),
    /// Bounded schedule-space model checking with witness shrink/replay.
    Check(Check),
    /// Live run on the shard worker pool over a real transport.
    Live(Live),
    /// Regenerate the tables and figures of EXPERIMENTS.md.
    Experiments(Experiments),
}

/// The instance flags as passed, `None` where left out.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Asked {
    /// `--alg`.
    pub alg: Option<AlgKind>,
    /// `--topo`, or `--nodes N` for `line:N`.
    pub topo: Option<TopoSpec>,
    /// `--seed`.
    pub seed: Option<u64>,
    /// `--horizon`, at least 1.
    pub horizon: Option<u64>,
    /// `--eat a..b`.
    pub eat: Option<(u64, u64)>,
    /// `--think a..b`.
    pub think: Option<(u64, u64)>,
}

/// The RNG seed of a run that names none.
const SEED: u64 = 0xA77D_2008;

impl Asked {
    fn take(args: &mut Args) -> Result<Asked, String> {
        Ok(Asked {
            alg: args.with("--alg", parse_alg)?,
            topo: take_topo(args)?,
            seed: args.parsed("--seed")?,
            horizon: args.count("--horizon")?,
            eat: args.with("--eat", |s| parse_range("--eat", s))?,
            think: args.with("--think", |s| parse_range("--think", s))?,
        })
    }

    /// The instance, each flag left out at its default.
    pub fn instance(&self) -> Instance {
        Instance {
            alg: self.alg.unwrap_or(AlgKind::A2),
            topo: self.topo.clone().unwrap_or(TopoSpec::Line(8)),
            seed: self.seed.unwrap_or(SEED),
            horizon: self.horizon.unwrap_or(40_000),
            eat: self.eat.unwrap_or((10, 30)),
            think: self.think.unwrap_or((50, 150)),
        }
    }
}

/// One algorithm on one topology for a horizon: what the simulator runs.
#[derive(Clone, Debug, PartialEq)]
pub struct Instance {
    /// Algorithm under test.
    pub alg: AlgKind,
    /// Topology specification.
    pub topo: TopoSpec,
    /// RNG seed (`sweep`, `chaos`: the first seed of the range).
    pub seed: u64,
    /// Virtual-time horizon.
    pub horizon: u64,
    /// Eating-time range.
    pub eat: (u64, u64),
    /// Think-time range.
    pub think: (u64, u64),
}

/// How a simulated run's messages travel (`--channel`, `--arq`, the
/// `--fault-*` plan), and where `--metrics-out` writes its metrics.
#[derive(Clone, Debug, Default)]
pub struct Sim {
    /// Channel model messages traverse (`iid` is the historical default).
    pub channel: ChannelConfig,
    /// Arm the reliable-delivery ARQ shim.
    pub arq: bool,
    /// The `--fault-*` flags (and the crash → recover cycle of `run` and
    /// `sweep`) as one fault plan, empty when none were given.
    pub fault: FaultPlan,
    /// Write per-run metrics as JSON lines to this path.
    pub metrics_out: Option<String>,
}

impl Sim {
    /// The sim flags on `inst`, plus `recover`: crash node `.0` at
    /// horizon/4 and recover it as a fresh incarnation at tick `.1`.
    fn take(args: &mut Args, inst: &Instance, recover: Option<(u32, u64)>) -> Result<Sim, String> {
        let n = inst.topo.len();
        let targets = args.with("--fault-targets", parse_nodes)?;
        if let Some(&bad) = targets.iter().flatten().find(|&&t| t as usize >= n) {
            return Err(format!(
                "fault target {bad} out of range for a {n}-node topology"
            ));
        }
        let targets: Option<Vec<NodeId>> = targets.map(|ts| ts.into_iter().map(NodeId).collect());
        let window = args.with("--fault-window", |s| parse_window(s, "fault window"))?;
        let mut fault = FaultPlan {
            seed: args.parsed("--fault-seed")?.unwrap_or(0),
            ..FaultPlan::default()
        };
        let drop = args.with("--fault-drop", |s| parse_prob(s, "drop probability"))?;
        let duplicate = args.with("--fault-dup", |s| parse_prob(s, "duplication probability"))?;
        let skew_ticks = args.parsed("--fault-skew")?.unwrap_or(0);
        let (drop, duplicate) = (drop.unwrap_or(0.0), duplicate.unwrap_or(0.0));
        if drop > 0.0 || duplicate > 0.0 || skew_ticks > 0 {
            fault.link = Some(LinkFaults {
                drop,
                duplicate,
                skew: if skew_ticks > 0 { 1.0 } else { 0.0 },
                skew_ticks,
                window,
                targets: targets.clone(),
                ..LinkFaults::default()
            });
        }
        if args.switch("--fault-delay") {
            let targets = targets.clone();
            let targets = targets.unwrap_or_else(|| (0..n as u32).map(NodeId).collect());
            fault.max_delay = Some(DelayAdversary { targets, window });
        }
        let partition = args.with("--fault-partition", |s| parse_window(s, "partition window"))?;
        if let Some((at, heal_at)) = partition {
            let side =
                targets.ok_or("--fault-partition needs --fault-targets (the side to cut off)")?;
            fault.partitions = vec![PartitionWindow {
                at,
                side,
                heal_after: heal_at - at,
            }];
        }
        if let Some((victim, at)) = recover {
            let crash_at = (inst.horizon / 4).max(1);
            if at <= crash_at {
                return Err(format!(
                    "--recover {at} must come after the crash at tick {crash_at} (horizon/4)"
                ));
            }
            let nodes = vec![NodeId(victim)];
            fault.crash_waves.push(CrashWave {
                at: crash_at,
                nodes: nodes.clone(),
            });
            fault.recovers.push(CrashWave { at, nodes });
        }
        fault
            .validate(n)
            .map_err(|e| format!("invalid fault plan: {e}"))?;
        Ok(Sim {
            channel: args
                .with("--channel", ChannelConfig::parse)?
                .unwrap_or_default(),
            arq: args.switch("--arq"),
            fault,
            metrics_out: args.take("--metrics-out")?,
        })
    }
}

/// What `run` and `sweep` simulate.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Algorithm, topology, seed and times (a sweep runs its `algs`, not
    /// `inst.alg`).
    pub inst: Instance,
    /// Channel, ARQ, fault plan and metrics path. `--victim N --recover
    /// T` (one needs the other) adds a crash → recover cycle to the plan.
    pub sim: Sim,
    /// How nodes move, grounded in the instance: `--moves k` (random
    /// waypoint) and `--mix s:h` both roam the same area over the middle
    /// 80 % of the horizon. Each run re-seeds the model with its own seed
    /// (see `harness::SweepSpec`).
    pub mobility: Mobility,
}

impl Scenario {
    fn take(asked: &Asked, args: &mut Args) -> Result<Scenario, String> {
        let inst = asked.instance();
        let area_side = (inst.topo.len() as f64 / 1.6).sqrt().max(2.0);
        let window = (inst.horizon / 10, inst.horizon * 9 / 10);
        let (moves, mix) = (
            args.parsed("--moves")?,
            args.with("--mix", MobilityMix::parse)?,
        );
        let mobility = match (moves, mix) {
            (Some(_), Some(_)) => return Err("--mix and --moves are two mobility models".into()),
            (_, Some(mix)) => Mobility::Mix(MobilityMix {
                area_side,
                window,
                seed: inst.seed,
                ..mix
            }),
            (Some(moves), None) if moves > 0 => Mobility::Waypoints(WaypointPlan {
                area_side,
                moves,
                window,
                speed: Some(0.25),
                seed: inst.seed,
            }),
            _ => Mobility::Static,
        };
        if !matches!(mobility, Mobility::Static) && inst.topo.is_explicit() {
            return Err(
                "star/tree topologies are explicit graphs: movement is not supported".into(),
            );
        }
        let recover = match take_crash(args, &inst.topo)? {
            (Some(_), None) => {
                return Err("--victim needs --recover (`lme probe` crashes without one)".into())
            }
            (victim, at) => victim.zip(at),
        };
        Ok(Scenario {
            sim: Sim::take(args, &inst, recover)?,
            inst,
            mobility,
        })
    }
}

/// `lme run`: one simulated run, full report.
#[derive(Clone, Debug)]
pub struct Run {
    /// What runs.
    pub scenario: Scenario,
    /// `--csv`: per-episode samples as CSV instead of the text report.
    pub csv: bool,
}

/// `lme probe`: crash the victim mid-CS and report failure locality.
#[derive(Clone, Debug)]
pub struct Probe {
    /// What runs.
    pub inst: Instance,
    /// Channel, ARQ, fault plan and metrics path.
    pub sim: Sim,
    /// `--victim` (default: the middle node).
    pub victim: Option<u32>,
}

/// `lme sweep`: algorithms × seeds in parallel, aggregated.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// What each cell runs.
    pub scenario: Scenario,
    /// The algorithms compared: all of Table 1 unless `--alg` names one.
    pub algs: Vec<AlgKind>,
    /// `--seeds`: consecutive seeds from the instance's (default 8).
    pub seeds: u64,
    /// `--jobs` (`None` = the machine's parallelism).
    pub jobs: Option<usize>,
}

/// `lme chaos`: every fault class × seeds, aggregated.
#[derive(Clone, Debug)]
pub struct Chaos {
    /// What each cell runs; chaos builds its own fault schedule.
    pub inst: Instance,
    /// `--victim` of the node-fault classes (default: the middle node).
    pub victim: Option<u32>,
    /// `--seeds`: consecutive seeds from the instance's (default 8).
    pub seeds: u64,
    /// `--jobs` (`None` = the machine's parallelism).
    pub jobs: Option<usize>,
    /// `--metrics-out`: per-run metrics as JSON lines.
    pub metrics_out: Option<String>,
}

/// `lme check`: model checking in one of three modes.
#[derive(Clone, Debug)]
pub struct Check {
    /// The instance flags as passed. Explore and certify fill in the
    /// defaults; a replay compares each one passed with the witness.
    /// `eat` and `think` hold one time each (`a == b`).
    pub asked: Asked,
    /// `--mutate`: a deliberate defect that validates the checker.
    pub mutate: Option<Mutation>,
    /// `--liveness`: the recycling workload, checked for starvation
    /// lassos; `--think` needs it.
    pub liveness: bool,
    /// What to do with the instance.
    pub mode: CheckMode,
}

/// The three things `lme check` does; each reads only its own flags.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckMode {
    /// Explore the schedule space for violations (the default).
    Explore {
        /// `--strategy` and its budget.
        strategy: Strategy,
        /// `--jobs` (default 1).
        jobs: Option<usize>,
        /// `--witness-out`: write the shrunk witness JSON here.
        witness_out: Option<String>,
    },
    /// `--certify`: exhaust the extremal schedule space and certify the
    /// exact worst-case response time over it.
    Certify {
        /// `--steps` (default: the certifier's budget).
        steps: Option<usize>,
        /// `--jobs` (default 1).
        jobs: Option<usize>,
        /// `--out`: write the certificate JSON here.
        out: Option<String>,
    },
    /// `--replay`: replay this witness file.
    Replay {
        /// The witness file.
        path: String,
    },
}

/// How `check` explores.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Strategy {
    /// Bounded exhaustive DFS.
    Dfs {
        /// `--steps`: schedule budget (default 256).
        steps: usize,
        /// `--depth`: branch points eligible to flip (default 12).
        depth: usize,
    },
    /// Seeded random walks.
    Random {
        /// `--seeds` (default 8).
        walks: usize,
    },
    /// PCT priority schedules.
    Pct {
        /// `--seeds` (default 8).
        walks: usize,
    },
}

impl Check {
    fn take(args: &mut Args) -> Result<Check, String> {
        let asked = Asked::take(args)?;
        let mutate = args.with("--mutate", Mutation::parse)?;
        for (flag, time) in [("--eat", asked.eat), ("--think", asked.think)] {
            if let Some((a, b)) = time.filter(|(a, b)| a < b) {
                return Err(format!(
                    "{flag} {a}..{b}: `lme check` takes one time, N or N..N"
                ));
            }
        }
        let mode = if let Some(path) = args.take("--replay")? {
            args.cmd += " --replay";
            CheckMode::Replay { path }
        } else if args.switch("--certify") {
            args.cmd += " --certify";
            CheckMode::Certify {
                steps: args.count("--steps")?,
                jobs: args.count("--jobs")?,
                out: args.take("--out")?,
            }
        } else {
            let kind = args
                .with("--strategy", StrategyKind::parse)?
                .unwrap_or_default();
            args.cmd += &format!(" --strategy {}", kind.name());
            let walks = |args: &mut Args| args.count("--seeds").map(|w| w.unwrap_or(8));
            let strategy = match kind {
                StrategyKind::Dfs => Strategy::Dfs {
                    steps: args.count("--steps")?.unwrap_or(256),
                    depth: args.parsed("--depth")?.unwrap_or(12),
                },
                StrategyKind::Random => Strategy::Random {
                    walks: walks(args)?,
                },
                StrategyKind::Pct => Strategy::Pct {
                    walks: walks(args)?,
                },
            };
            CheckMode::Explore {
                strategy,
                jobs: args.count("--jobs")?,
                witness_out: args.take("--witness-out")?,
            }
        };
        // A certificate measures one hungry cycle per node, and the
        // recycling workload never quiesces: certify has no `--liveness`.
        let liveness = !matches!(mode, CheckMode::Certify { .. }) && args.switch("--liveness");
        if asked.think.is_some() && !liveness {
            return Err("--think needs --liveness (only the recycling workload thinks)".into());
        }
        Ok(Check {
            asked,
            mutate,
            liveness,
            mode,
        })
    }
}

/// `lme live`: real message passing on the shard worker pool.
#[derive(Clone, Debug)]
pub struct Live {
    /// The one cell, or `None` under `--matrix`, which runs every
    /// algorithm × {clique:5, ring:6}.
    pub cell: Option<LiveCell>,
    /// Every other flag: `--alg` (of the one cell), `--seed`,
    /// `--transport`, `--duration`, `--rate`, `--eat-ms`, `--oneshot`,
    /// `--reliable`, `--closed-loop`, `--workers`, and `--victim` (crashed
    /// a quarter into the run) with `--recover` (in ms), both on the
    /// command timeline. Each cell fills in its positions and appends its
    /// `moves` teleports.
    pub cfg: LiveConfig,
    /// `--moves`: teleport waypoints pushed by the driver.
    pub moves: usize,
}

/// The single cell a `live` run without `--matrix` runs.
#[derive(Clone, Debug, PartialEq)]
pub struct LiveCell {
    /// `--topo` or `--nodes`; always geometric.
    pub topo: TopoSpec,
    /// `--conformance`: after the run, replay its delivery timing in the
    /// simulator and check safety + census conformance.
    pub conformance: bool,
}

impl Live {
    fn take(args: &mut Args) -> Result<Live, String> {
        let transport = args.with("--transport", TransportKind::parse)?;
        let mut cfg = LiveConfig::new(
            AlgKind::A2,
            transport.unwrap_or(TransportKind::Mpsc),
            vec![],
        );
        let cell = if args.switch("--matrix") {
            args.cmd += " --matrix";
            None
        } else {
            let topo = take_topo(args)?.unwrap_or(TopoSpec::Line(8));
            if topo.is_explicit() {
                return Err(
                    "live runs need a geometric topology (the driver owns positions)".into(),
                );
            }
            cfg.alg = args.with("--alg", parse_alg)?.unwrap_or(cfg.alg);
            let conformance = args.switch("--conformance");
            Some(LiveCell { topo, conformance })
        };
        // The smallest matrix cell is clique:5.
        let topo = cell.as_ref().map_or(&TopoSpec::Clique(5), |c| &c.topo);
        let (victim, recover) = take_crash(args, topo)?;
        cfg.seed = args.parsed("--seed")?.unwrap_or(cfg.seed);
        cfg.duration_ms = args.count("--duration")?.unwrap_or(cfg.duration_ms);
        cfg.rate = args
            .with("--rate", |s| parse_pos_f64(s, "rate"))?
            .unwrap_or(cfg.rate);
        cfg.eat_ms = args.count("--eat-ms")?.unwrap_or(cfg.eat_ms);
        cfg.one_shot = args.switch("--oneshot");
        cfg.reliable = args.switch("--reliable");
        cfg.closed_loop = args.switch("--closed-loop");
        let workers = args.count("--workers")?.unwrap_or(0);
        cfg.runtime = LiveRuntime::Sharded { workers };
        let crash = victim.map(|v| ((cfg.duration_ms / 4).max(1), SimCommand::Crash(NodeId(v))));
        let recover = victim
            .zip(recover)
            .map(|(v, at)| (at, SimCommand::Recover(NodeId(v))));
        cfg.commands.extend(crash.into_iter().chain(recover));
        let moves = args.parsed("--moves")?.unwrap_or(0);
        if cell.as_ref().is_some_and(|c| c.conformance) {
            if !cfg.one_shot {
                return Err("--conformance needs --oneshot (see `lme list`)".to_string());
            }
            if victim.is_some() || moves > 0 {
                return Err(
                    "--conformance needs a fault-free, static run (drop --victim/--moves)".into(),
                );
            }
        }
        Ok(Live { cell, cfg, moves })
    }
}

/// `lme experiments`: regenerate EXPERIMENTS.md's tables and figures.
#[derive(Clone, Debug)]
pub struct Experiments {
    /// The ids to render, in the order given (empty = all).
    pub ids: Vec<&'static str>,
    /// `--quick`: reduced sizes that run in seconds.
    pub quick: bool,
    /// `--jobs` (`None` = the machine's parallelism).
    pub jobs: Option<usize>,
    /// `--out`: the document whose blocks are rewritten in place.
    pub out: Option<String>,
}

impl Experiments {
    fn take(args: &mut Args) -> Result<Experiments, String> {
        let quick = args.switch("--quick");
        let (jobs, out) = (args.count("--jobs")?, args.take("--out")?);
        let ids = args.rest()?.into_iter().map(|id| {
            experiments::id(&id).ok_or_else(|| {
                format!(
                    "unknown experiment id '{id}'; ids: {}",
                    experiments::ids().join(" ")
                )
            })
        });
        Ok(Experiments {
            ids: ids.collect::<Result<_, _>>()?,
            quick,
            jobs,
            out,
        })
    }
}

/// A command line being parsed. Each command takes the flags its type has
/// a field for; whatever is left over is refused, naming the command.
struct Args {
    /// `lme <cmd>` as errors name it, followed by the mode once a flag
    /// has chosen one (`check --certify`).
    cmd: String,
    /// The words after the command; a taken word becomes `None`.
    words: Vec<Option<String>>,
}

impl Args {
    /// Take every `flag` with its value; the last one given wins.
    fn take(&mut self, flag: &str) -> Result<Option<String>, String> {
        let mut value = None;
        while let Some(i) = self.words.iter().position(|w| w.as_deref() == Some(flag)) {
            self.words[i] = None;
            let next = self.words.get_mut(i + 1).and_then(Option::take);
            value = Some(next.ok_or_else(|| format!("flag {flag} needs a value\n{USAGE}"))?);
        }
        Ok(value)
    }

    /// Take every `flag` that has no value; true if one was given.
    fn switch(&mut self, flag: &str) -> bool {
        let mut given = false;
        for word in self.words.iter_mut().filter(|w| w.as_deref() == Some(flag)) {
            *word = None;
            given = true;
        }
        given
    }

    fn with<T>(
        &mut self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.take(flag)?.map(|s| parse(&s)).transpose()
    }

    fn parsed<T: FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.with(flag, |s| parse_num(s, &format!("{flag} value")))
    }

    /// A count, which must be at least 1.
    fn count<T: FromStr + PartialOrd + From<u8>>(
        &mut self,
        flag: &str,
    ) -> Result<Option<T>, String> {
        match self.parsed(flag)? {
            Some(n) if n < T::from(1) => Err(format!("{flag} must be at least 1")),
            n => Ok(n),
        }
    }

    /// The words no flag took. A flag among them does not apply to the
    /// command if USAGE documents it, and is unknown otherwise.
    fn rest(&mut self) -> Result<Vec<String>, String> {
        let rest: Vec<String> = self.words.drain(..).flatten().collect();
        let Some(flag) = rest.iter().find(|w| w.starts_with("--")) else {
            return Ok(rest);
        };
        let mut words = USAGE.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
        if words.any(|w| w == flag) {
            Err(format!("{flag} does not apply to `lme {}`", self.cmd))
        } else {
            Err(format!("unknown flag '{flag}'\n{USAGE}"))
        }
    }

    /// Refuse whatever no flag took.
    fn end(&mut self) -> Result<(), String> {
        match self.rest()?.first() {
            Some(word) => Err(format!("unknown flag '{word}'\n{USAGE}")),
            None => Ok(()),
        }
    }
}

/// `--topo`, or `--nodes N` for `line:N`.
fn take_topo(args: &mut Args) -> Result<Option<TopoSpec>, String> {
    match (args.with("--topo", parse_topo)?, args.count("--nodes")?) {
        (Some(_), Some(_)) => Err("--nodes is shorthand for --topo line:N: pass one".to_string()),
        (topo, nodes) => Ok(topo.or(nodes.map(TopoSpec::Line))),
    }
}

/// `--victim`, which must name a node of `topo`, and `--recover`, which
/// needs it.
fn take_crash(args: &mut Args, topo: &TopoSpec) -> Result<(Option<u32>, Option<u64>), String> {
    match (take_victim(args, topo)?, args.parsed("--recover")?) {
        (None, Some(_)) => Err("--recover needs --victim (the node that crashes)".into()),
        crash => Ok(crash),
    }
}

/// `--victim`, which must name a node of `topo`.
fn take_victim(args: &mut Args, topo: &TopoSpec) -> Result<Option<u32>, String> {
    match args.parsed("--victim")? {
        Some(v) if v as usize >= topo.len() => Err(format!(
            "victim {v} out of range for a {}-node topology",
            topo.len()
        )),
        victim => Ok(victim),
    }
}

/// Usage text shown for `lme list` and on errors.
pub const USAGE: &str = "\
usage: lme <list|run|probe|sweep|chaos|check|live|experiments> [options]

commands:
  list    print algorithms and topology syntax
  run     one workload run, full report
  probe   crash the victim mid-CS, report failure locality
  sweep   algorithms x seeds grid in parallel, aggregated report
  chaos   fault classes x seeds matrix (crash, recover, windowed-loss,
          sustained-loss, burst-loss, windowed-duplication, partition,
          max-delay), aggregated report; sustained-loss and burst-loss
          arm the ARQ shim, and the command exits 2 if either stalls
  check   explore the legal delivery schedules of a small model for
          safety/liveness violations; shrink and replay witnesses
  live    real message passing (in-process rings or UDP on loopback)
          on an M:N sharded worker pool that scales the same automata
          to tens of thousands of nodes; every algorithm runs live, and
          the live trace is validated by the safety monitor
  experiments [ID...]
          regenerate the tables and figures of EXPERIMENTS.md as
          Markdown blocks: T1 F1-F4 F5 F6 C1 C2 C3 C4 M1 AB R CH L1
          (default: all); exits 2 naming id, cell and seed if any cell
          is unsafe or misses its expectation

A flag the command does not read is an error (exit 2), and so is a flag
of a check or live mode other than the one chosen. run, probe, sweep and
chaos exit 2 on a safety violation in a run inside the paper's model (no
frame lost or duplicated: no drop, dup or gilbert channel); a run outside
it only reports the count. A live cell exits 2 on any violation.

options:
  --alg <name>       a1-greedy | a1-linial | a1-random | a2 |
                     chandy-misra | choy-singh              (default a2;
                     sweep compares all Table 1 algorithms unless given)
  --topo <spec>      line:N | ring:N | grid:WxH | clique:N |
                     random:N[:SEED] | star:LEAVES | tree:N (default line:8)
  --nodes <n>        shorthand for --topo line:N
  --horizon <ticks>  run length                             (default 40000)
  --seed <n>         RNG seed (sweep/chaos: first seed of the range)
  --eat <a..b>       eating-time range in ticks, n = n..n   (default 10..30)
  --think <a..b>     think-time range in ticks              (default 50..150)
  --moves <k>        random-waypoint movements              (default 0)
  --mix <s:h>        heterogeneous mobility mix: fraction of static-core
                     and highway nodes (rest wander in groups), e.g.
                     0.4:0.3; not with --moves     (default: homogeneous)
  --channel <spec>   channel model: iid | bandwidth:TPF[:QUEUE] |
                     shared:TPF[:INFLIGHT] | gilbert:PG2B:PB2G[:LG:LB]
                     (default iid — the historical i.i.d. delay draw)
  --victim <node>    probe/chaos: node to crash mid-CS      (default center)
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
                         (--victim and --recover come together)
                         live: recover the crashed --victim at <t> ms
  --reliable             live: per-link go-back-N ARQ (retransmit + ack)
                         between every node pair

model checking (check): --eat n is one eating time and --think n one
thinking time (it needs --liveness); each mode reads only its own flags
  --mutate <m>         none | no-sdf-guard | unfair-fork — deliberately
                       break the algorithm to validate the checker
                       (default none)
  --liveness           explore/replay: recycling workload: every node
                       goes hungry again --think ticks after eating, and
                       starvation is checked directly as a repeated-
                       progress-state lasso (property starvation-lasso)
 explore (the default):
  --strategy <s>       dfs | random | pct                  (default dfs)
  --steps <n>          dfs: schedule budget                (default 256)
  --depth <n>          dfs: branch points eligible to flip (default 12)
  --seeds <n>          random/pct: number of walks         (default 8)
  --jobs <n>           exploration worker threads (default 1; verdicts,
                       prune counts and witnesses are byte-identical for
                       every value)
  --witness-out <p>    write the shrunk witness JSON to <p>
 certify:
  --certify            exhaust the extremal schedule space and report the
                       exact worst-case response time as a machine-
                       readable certificate; reads --steps (default
                       2000000) and --jobs as above
  --out <p>            write the certificate JSON to <p>
 replay:
  --replay <p>         replay a witness file instead of exploring; any
                       instance flag passed that conflicts with the
                       witness is a structured error

live runtime (live):
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
                       instead of the --alg/--topo cell (so neither they
                       nor --conformance apply); nonzero exit on any
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

experiments:
  --quick              reduced sizes that run in seconds
  --jobs <n>           worker threads (default: all cores; every block
                       but the wall-clock L1 is identical for any value)
  --out <p>            rewrite the blocks between the ids' markers in <p>
                       (appending missing ones) and draw figures/*.svg
                       beside it; without it the blocks are printed
";

fn parse_alg(s: &str) -> Result<AlgKind, String> {
    AlgKind::extended()
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(s))
        .ok_or_else(|| format!("unknown algorithm '{s}'; try `lme list`"))
}

fn parse_num<T: FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what} '{s}'"))
}

fn parse_pos_f64(s: &str, what: &str) -> Result<f64, String> {
    let v: f64 = parse_num(s, what)?;
    if v <= 0.0 || !v.is_finite() {
        return Err(format!("{what} '{s}' must be a positive number"));
    }
    Ok(v)
}

fn parse_prob(s: &str, what: &str) -> Result<f64, String> {
    let p: f64 = parse_num(s, what)?;
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
    let a = parse_num(a, what)?;
    let b = parse_num(b, what)?;
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

/// Parse an `--eat`/`--think` range `a..b` with `1 ≤ a ≤ b` (`n` is
/// `n..n`); an eating time must also fit under τ.
fn parse_range(flag: &str, s: &str) -> Result<(u64, u64), String> {
    let (a, b) = s.split_once("..").unwrap_or((s, s));
    let a = parse_num(a, "range start")?;
    let b = parse_num(b, "range end")?;
    if a == 0 || b < a {
        return Err(format!("range '{s}' must satisfy 1 ≤ a ≤ b"));
    }
    let tau = SimConfig::default().max_eating_ticks;
    if flag == "--eat" && b > tau {
        return Err(format!("--eat {s} exceeds τ ({tau} ticks)"));
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
        "line" => TopoSpec::Line(parse_num(arg, "size")?),
        "ring" => TopoSpec::Ring(ring_size(parse_num(arg, "size")?, "ring:")?),
        "clique" => TopoSpec::Clique(parse_num(arg, "size")?),
        "star" => TopoSpec::Star(parse_num(arg, "leaf count")?),
        "tree" => TopoSpec::Tree(parse_num(arg, "size")?),
        "grid" => {
            let (w, h) = arg
                .split_once('x')
                .ok_or_else(|| format!("grid spec '{arg}' must look like 4x5"))?;
            TopoSpec::Grid(parse_num(w, "grid width")?, parse_num(h, "grid height")?)
        }
        "random" => {
            let n = parse_num(arg, "size")?;
            let seed = match parts.next() {
                Some(s) => parse_num(s, "topology seed")?,
                None => 7,
            };
            TopoSpec::Random(n, seed)
        }
        other => return Err(format!("unknown topology kind '{other}'; try `lme list`")),
    };
    if spec.is_empty() {
        return Err("topology must have at least one node".to_string());
    }
    // `random` took its optional seed above; anything further is junk.
    if let Some(extra) = parts.next() {
        return Err(format!("trailing topology arguments: '{extra}'"));
    }
    Ok(spec)
}

/// Parse full argv (a leading binary name ending in `lme` is skipped).
///
/// # Errors
///
/// Returns a diagnostic (often including [`USAGE`]) on malformed input,
/// and on a flag the command (or its mode) does not read.
pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Command, String> {
    let mut argv = argv.into_iter().peekable();
    argv.next_if(|a| a.ends_with("lme") || a.ends_with("lme.exe"));
    let cmd = argv
        .next()
        .ok_or_else(|| format!("missing command\n{USAGE}"))?;
    let args = &mut Args {
        cmd: cmd.clone(),
        words: argv.map(Some).collect(),
    };
    let command = match cmd.as_str() {
        "list" => Command::List,
        "run" => Command::Run(Run {
            scenario: Scenario::take(&Asked::take(args)?, args)?,
            csv: args.switch("--csv"),
        }),
        "probe" => {
            let inst = Asked::take(args)?.instance();
            Command::Probe(Probe {
                victim: take_victim(args, &inst.topo)?,
                sim: Sim::take(args, &inst, None)?,
                inst,
            })
        }
        "sweep" => {
            let asked = Asked::take(args)?;
            Command::Sweep(Sweep {
                algs: asked
                    .alg
                    .map_or_else(|| AlgKind::all().to_vec(), |alg| vec![alg]),
                scenario: Scenario::take(&asked, args)?,
                seeds: args.count("--seeds")?.unwrap_or(8),
                jobs: args.count("--jobs")?,
            })
        }
        "chaos" => {
            let inst = Asked::take(args)?.instance();
            Command::Chaos(Chaos {
                victim: take_victim(args, &inst.topo)?,
                seeds: args.count("--seeds")?.unwrap_or(8),
                jobs: args.count("--jobs")?,
                metrics_out: args.take("--metrics-out")?,
                inst,
            })
        }
        "check" => Command::Check(Check::take(args)?),
        "live" => Command::Live(Live::take(args)?),
        "experiments" => Command::Experiments(Experiments::take(args)?),
        other => return Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    args.end()?;
    Ok(command)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    /// Parse `line` and unwrap the `$cmd` variant.
    macro_rules! parse_as {
        ($cmd:ident, $line:expr) => {
            match parse(argv($line)).unwrap() {
                Command::$cmd(cmd) => cmd,
                other => panic!("{}: parsed as {other:?}", $line),
            }
        };
    }

    #[test]
    fn parses_run_with_defaults() {
        let run = parse_as!(Run, "run");
        assert_eq!(run.scenario.inst.alg, AlgKind::A2);
        assert_eq!(run.scenario.inst.topo, TopoSpec::Line(8));
    }

    #[test]
    fn parses_full_flag_set() {
        let run = parse_as!(
            Run,
            "run --alg a1-linial --topo grid:4x5 --horizon 9000 --seed 3 \
             --eat 5..9 --think 11..20 --moves 4 --csv"
        );
        let inst = &run.scenario.inst;
        assert_eq!(inst.alg, AlgKind::A1Linial);
        assert_eq!(inst.topo, TopoSpec::Grid(4, 5));
        assert_eq!(inst.topo.len(), 20);
        assert_eq!(inst.horizon, 9000);
        assert_eq!(inst.seed, 3);
        assert_eq!(inst.eat, (5, 9));
        assert_eq!(inst.think, (11, 20));
        assert!(matches!(&run.scenario.mobility, Mobility::Waypoints(p) if p.moves == 4));
        assert!(run.csv);
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
        let sweep = parse_as!(
            Sweep,
            "sweep --topo line:6 --seeds 12 --jobs 3 --metrics-out m.jsonl"
        );
        assert_eq!(sweep.seeds, 12);
        assert_eq!(sweep.jobs, Some(3));
        assert_eq!(sweep.scenario.sim.metrics_out.as_deref(), Some("m.jsonl"));
        // No --alg: the sweep compares the whole Table 1 field.
        assert_eq!(sweep.algs, AlgKind::all().to_vec());
        let one = parse_as!(Sweep, "sweep --alg a2");
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
        assert!(parse(argv("run --topo line:8:3")).is_err());
        assert!(parse(argv("run --topo random:24:7:9")).is_err());
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
        assert!(parse(argv("run --topo line:5 --nodes 5")).is_err());
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
        // Some command takes each flag USAGE documents: given to it, the
        // flag is neither refused nor unknown.
        let commands = [
            "run",
            "probe",
            "sweep",
            "chaos",
            "check",
            "live",
            "experiments",
        ];
        let flags = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--") && w.len() > 2);
        for flag in flags {
            let read = commands.iter().any(|cmd| {
                let err = parse(argv(&format!("{cmd} {flag} 1")))
                    .err()
                    .unwrap_or_default();
                !err.starts_with(&format!("{flag} does not apply"))
                    && !err.starts_with(&format!("unknown flag '{flag}'"))
            });
            assert!(read, "{flag}");
        }
    }

    #[test]
    fn parses_reliability_flags() {
        // The recovery must come after the crash at horizon/4.
        let run = parse_as!(
            Run,
            "run --topo line:5 --horizon 12000 --arq --victim 2 --recover 5000"
        );
        let sim = &run.scenario.sim;
        assert!(sim.arq);
        assert_eq!(sim.fault.crash_waves[0].nodes, vec![NodeId(2)]);
        assert_eq!(sim.fault.recovers[0].at, 5000);
        let live = parse_as!(
            Live,
            "live --topo ring:6 --reliable --victim 1 --recover 800"
        );
        assert!(live.cfg.reliable);
        assert_eq!(live.cfg.commands[1], (800, SimCommand::Recover(NodeId(1))));
        assert!(parse(argv("run --topo line:5 --recover 5000")).is_err()); // no victim
        assert!(parse(argv("run --topo line:5 --victim 2 --recover 5000")).is_err()); // too early
        assert!(parse(argv("probe --topo line:5 --victim 2 --recover 5000")).is_err());
    }

    #[test]
    fn run_and_sweep_victim_needs_recover_and_one_mobility_model() {
        // A crash with no recovery is `lme probe`'s job; on run/sweep the
        // victim alone used to be dropped without a word.
        for cmd in ["run", "sweep"] {
            let err = parse(argv(&format!("{cmd} --topo line:5 --victim 2"))).unwrap_err();
            assert!(err.starts_with("--victim needs --recover"), "{cmd}: {err}");
            let err = parse(argv(&format!("{cmd} --moves 3 --mix 0.5:0.25"))).unwrap_err();
            assert!(err.contains("--mix and --moves"), "{cmd}: {err}");
        }
    }

    #[test]
    fn parses_fault_flags() {
        let run = parse_as!(
            Run,
            "run --topo line:6 --fault-drop 0.25 --fault-dup 0.1 --fault-skew 40 \
             --fault-delay --fault-partition 100..900 --fault-targets 2,3 \
             --fault-window 50..5000 --fault-seed 99"
        );
        let fault = &run.scenario.sim.fault;
        let link = fault.link.as_ref().expect("link faults");
        assert_eq!(link.drop, 0.25);
        assert_eq!(link.duplicate, 0.1);
        assert_eq!(link.skew_ticks, 40);
        let delay = fault.max_delay.as_ref().expect("delay adversary");
        assert_eq!(fault.partitions[0].at, 100);
        assert_eq!(fault.partitions[0].heal_after, 800);
        assert_eq!(delay.targets, vec![NodeId(2), NodeId(3)]);
        assert_eq!(
            (link.window, delay.window),
            (Some((50, 5000)), Some((50, 5000)))
        );
        assert_eq!(fault.seed, 99);
        parse_as!(Chaos, "chaos --topo line:9 --seeds 4");
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
        let check = parse_as!(
            Check,
            "check --alg a1-greedy --strategy dfs --steps 99 --depth 7 \
             --nodes 4 --mutate no-sdf-guard --witness-out w.json"
        );
        let CheckMode::Explore {
            strategy,
            witness_out,
            ..
        } = &check.mode
        else {
            panic!("{check:?}");
        };
        assert_eq!(
            *strategy,
            Strategy::Dfs {
                steps: 99,
                depth: 7
            }
        );
        assert_eq!(check.asked.topo, Some(TopoSpec::Line(4)));
        assert_eq!(check.mutate, Some(Mutation::NoSdfGuard));
        assert_eq!(witness_out.as_deref(), Some("w.json"));
        let pct = parse_as!(Check, "check --strategy pct --seeds 5");
        assert!(matches!(
            pct.mode,
            CheckMode::Explore {
                strategy: Strategy::Pct { walks: 5 },
                ..
            }
        ));
        let replay = parse_as!(Check, "check --replay w.json");
        assert_eq!(
            replay.mode,
            CheckMode::Replay {
                path: "w.json".to_string()
            }
        );
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
                err.ends_with("does not apply to `lme check --strategy dfs`"),
                "{flag}: {err}"
            );
        }
    }

    #[test]
    fn check_flags_apply_only_in_their_mode() {
        // Each of these exited 0 with the flag ignored before modes had
        // their own fields.
        for (line, flag, mode) in [
            ("--out c.json", "--out", "--strategy dfs"),
            (
                "--certify --witness-out w.json",
                "--witness-out",
                "--certify",
            ),
            ("--certify --liveness", "--liveness", "--certify"),
            ("--certify --depth 3", "--depth", "--certify"),
            ("--seeds 3", "--seeds", "--strategy dfs"),
            (
                "--strategy random --steps 9",
                "--steps",
                "--strategy random",
            ),
            ("--strategy pct --depth 4", "--depth", "--strategy pct"),
            ("--replay w.json --jobs 2", "--jobs", "--replay"),
            ("--replay w.json --strategy dfs", "--strategy", "--replay"),
            ("--replay w.json --out c.json", "--out", "--replay"),
        ] {
            let err = parse(argv(&format!("check {line}"))).unwrap_err();
            assert_eq!(
                err,
                format!("{flag} does not apply to `lme check {mode}`"),
                "{line}"
            );
        }
        let err = parse(argv("check --think 10")).unwrap_err();
        assert!(err.starts_with("--think needs --liveness"), "{err}");
        for flag in ["--eat 5..9", "--think 5..9 --liveness"] {
            let err = parse(argv(&format!("check {flag}"))).unwrap_err();
            assert!(err.contains("takes one time"), "{flag}: {err}");
        }
        // One time is N or N..N.
        let check = parse_as!(Check, "check --eat 7 --think 10..10 --liveness");
        assert_eq!(
            (check.asked.eat, check.asked.think),
            (Some((7, 7)), Some((10, 10)))
        );
    }

    #[test]
    fn parses_bench_flags() {
        // The experiment front end that replaced `lme bench`.
        let exp = parse_as!(
            Experiments,
            "experiments --quick --jobs 2 t1 --out E.md C3 l1"
        );
        assert!(exp.quick);
        assert_eq!(exp.jobs, Some(2));
        assert_eq!(exp.out.as_deref(), Some("E.md"));
        assert_eq!(exp.ids, vec!["T1", "C3", "L1"]);
        let default = parse_as!(Experiments, "experiments");
        assert!(default.ids.is_empty(), "no ids means every id");
        assert!(!default.quick);
        assert_eq!(default.out, None);
    }

    #[test]
    fn parses_channel_and_mix_flags() {
        let run = parse_as!(Run, "run --topo ring:6 --channel bandwidth:3:16");
        assert_eq!(
            run.scenario.sim.channel,
            ChannelConfig::ConstantBandwidth {
                ticks_per_frame: 3,
                max_queue: 16
            }
        );
        let sweep = parse_as!(Sweep, "sweep --topo line:8 --mix 0.5:0.25");
        let Mobility::Mix(mix) = sweep.scenario.mobility else {
            panic!("mix parsed");
        };
        assert_eq!(mix.static_frac, 0.5);
        assert_eq!(mix.highway_frac, 0.25);
        // Default stays the historical i.i.d. draw.
        let run = parse_as!(Run, "run");
        assert_eq!(run.scenario.sim.channel, ChannelConfig::Iid);
        assert!(matches!(run.scenario.mobility, Mobility::Static));
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
        // `lme bench` is gone: every former mode is an unknown command.
        for line in ["bench", "bench live", "bench channel --out c.json"] {
            let err = parse(argv(line)).unwrap_err();
            assert!(err.starts_with("unknown command 'bench'"), "{line}: {err}");
        }
        for flags in ["--jobs 0", "--jobs many", "--jobs", "--out"] {
            assert!(
                parse(argv(&format!("experiments {flags}"))).is_err(),
                "{flags}"
            );
        }
        let err = parse(argv("experiments T1 T9")).unwrap_err();
        assert!(err.starts_with("unknown experiment id 'T9'"), "{err}");
        assert!(err.contains("F1-F4") && err.contains("L1"), "{err}");
        let err = parse(argv("experiments --ns 3")).unwrap_err();
        assert!(err.starts_with("unknown flag '--ns'"), "{err}");
        for (line, flag) in [
            ("experiments --topo line:3", "--topo"),
            ("experiments --horizon 500", "--horizon"),
            ("experiments --metrics-out m.jsonl", "--metrics-out"),
            ("run --quick", "--quick"),
        ] {
            let err = parse(argv(line)).unwrap_err();
            assert!(err.starts_with(&format!("{flag} does not apply")), "{err}");
        }
    }

    #[test]
    fn parses_live_flags() {
        let live = parse_as!(
            Live,
            "live --transport udp --alg a1-greedy --topo ring:6 --duration 500 \
             --rate 40 --eat-ms 1 --oneshot --conformance --seed 9"
        );
        let cell = live.cell.as_ref().expect("one cell");
        assert_eq!(live.cfg.transport, TransportKind::Udp);
        assert_eq!(live.cfg.alg, AlgKind::A1Greedy);
        assert_eq!(cell.topo, TopoSpec::Ring(6));
        assert_eq!(live.cfg.duration_ms, 500);
        assert_eq!(live.cfg.rate, 40.0);
        assert_eq!(live.cfg.eat_ms, 1);
        assert!(live.cfg.one_shot && cell.conformance);
        assert_eq!(live.cfg.seed, 9);
        let matrix = parse_as!(Live, "live --matrix --duration 250");
        assert!(matrix.cell.is_none());
        // The matrix runs its fixed cells: a cell's flags do not apply.
        for flag in ["--alg a2", "--topo ring:6", "--nodes 4", "--conformance"] {
            let err = parse(argv(&format!("live --matrix {flag}"))).unwrap_err();
            let name = flag.split(' ').next().unwrap();
            assert_eq!(err, format!("{name} does not apply to `lme live --matrix`"));
        }
    }

    #[test]
    fn parses_worker_pool_flags() {
        let live = parse_as!(Live, "live --workers 4 --closed-loop --reliable");
        assert_eq!(live.cfg.runtime, LiveRuntime::Sharded { workers: 4 });
        assert!(live.cfg.closed_loop && live.cfg.reliable);
        let default = parse_as!(Live, "live");
        assert_eq!(default.cfg.runtime, LiveRuntime::Sharded { workers: 0 });
        assert!(!default.cfg.closed_loop);
        let err = parse(argv("experiments --workers 2")).unwrap_err();
        assert_eq!(err, "--workers does not apply to `lme experiments`");
    }

    #[test]
    fn the_retired_runtime_flag_is_an_unknown_flag() {
        for cmd in ["live --runtime sharded", "experiments --runtime sharded"] {
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
        assert!(parse(argv("live --matrix --victim 5")).is_err()); // clique:5 has 0..4
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
