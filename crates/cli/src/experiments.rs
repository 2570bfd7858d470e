//! `lme experiments`: every table and figure of EXPERIMENTS.md, regenerated.
//!
//! Each experiment id renders Markdown between `<!-- experiments:ID -->` and
//! `<!-- /experiments:ID -->`, headed by a provenance line: the command that
//! reproduces the block, its seeds, its sizes and the commit. Every id but
//! the wall-clock `L1` is a pure function of that line — the simulator is
//! deterministic and no output depends on `--jobs`. An unsafe cell or a
//! failed expectation is recorded, never a panic: every block is still
//! rendered, and the caller fails afterwards, naming id, cell and seeds.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{Debug, Display};
use std::rc::Rc;
use std::sync::Arc;

use baselines::ChandyMisra;
use coloring::{greedy_color_graph, AdjGraph, LinialSchedule};
use doorway::demo::{DemoConfig, DemoEvent, DoorwayDemo, Structure, INNER, OUTER};
use doorway::DoorwayKind;
use harness::census::MessageCensus;
use harness::{
    par_map, response_by_distance, run, run_algorithm, run_cells, run_protocol, topology, AlgKind,
    Automata, FaultClass, RunReport, RunSpec, Summary, SweepCell, SweepSpec, Topo, WaypointPlan,
    Workload,
};
use lme_net::{run_live, LiveConfig, TransportKind};
use local_mutex::recolor::{GreedyRecolor, LinialRecolor, RecolorOutcome, RecolorProcedure};
use local_mutex::{Algorithm1, Algorithm2, Phase, RecolorMsg};
use manet_sim::{
    ArqConfig, ChannelConfig, Command, DiningState, Engine, Metrics, MetricsData, NodeId, NodeSeed,
    Position, Protocol, SafetyMonitor, Sample, SimConfig, SimTime, Violation,
};

use crate::svg::{BarChart, LineChart, Series};

type Experiment = fn(&mut Cx<'_>);

/// Every experiment, in document order.
const EXPERIMENTS: [(&str, Experiment); 13] = [
    ("T1", t1),
    ("F1-F4", doorways),
    ("F5", f5),
    ("F6", f6),
    ("C1", c1),
    ("C2", c2),
    ("C3", c3),
    ("C4", c4),
    ("M1", m1),
    ("AB", ab),
    ("R", r),
    ("CH", ch),
    ("L1", l1),
];

/// The ids whose blocks measure wall-clock time, so no two runs agree.
pub const WALL_CLOCK: [&str; 1] = ["L1"];

/// Every experiment id, in document order.
pub fn ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|(id, _)| *id).collect()
}

/// The canonical spelling of `name` (case-insensitive), if it is an id.
pub fn id(name: &str) -> Option<&'static str> {
    ids().into_iter().find(|id| id.eq_ignore_ascii_case(name))
}

/// What one `lme experiments` invocation produced.
#[derive(Debug, Default)]
pub struct Report {
    /// `(id, block)`: the Markdown, markers included, in the order asked.
    pub blocks: Vec<(&'static str, String)>,
    /// `(file name, SVG)` for every figure the rendered rows feed.
    pub figures: Vec<(&'static str, String)>,
    /// One line per unsafe cell or failed expectation.
    pub failures: Vec<String>,
}

/// Render the blocks of `ids` at quick or full size over `jobs` workers,
/// stamping `commit` into each provenance line.
///
/// # Panics
///
/// Panics if an entry of `ids` is not an experiment id (the parser only
/// lets through ids from [`ids`]).
pub fn run_ids(ids: &[&'static str], quick: bool, jobs: usize, commit: &str) -> Report {
    let mut report = Report::default();
    for &id in ids {
        let position = EXPERIMENTS.iter().position(|(name, _)| *name == id);
        let experiment = EXPERIMENTS[position.expect("ids are validated by the parser")].1;
        let (seeds, sizes, md, report) = (sim_seed(), Vec::new(), String::new(), &mut report);
        let mut cx = Cx {
            id,
            quick,
            jobs,
            seeds,
            sizes,
            md,
            report,
        };
        experiment(&mut cx);
        let quick = if quick { " --quick" } else { "" };
        let (seeds, sizes, md) = (cx.seeds, cx.sizes.join(", "), cx.md);
        let block = format!(
            "<!-- experiments:{id} -->\n_`lme experiments{quick} {id}` at commit {commit} · \
             seeds: {seeds} · sizes: {sizes}_\n{md}<!-- /experiments:{id} -->"
        );
        report.blocks.push((id, block));
    }
    report
}

/// `doc` with each block's marked region replaced; a block whose markers
/// are missing is appended.
pub fn splice(doc: &str, blocks: &[(&str, String)]) -> String {
    let mut doc = doc.to_string();
    for (id, block) in blocks {
        let open = format!("<!-- experiments:{id} -->");
        let close = format!("<!-- /experiments:{id} -->");
        let span = |a| Some((a, a + doc[a..].find(&close)? + close.len()));
        match doc.find(&open).and_then(span) {
            Some((a, b)) => doc.replace_range(a..b, block),
            None => {
                if !doc.is_empty() && !doc.ends_with("\n\n") {
                    doc.push_str(if doc.ends_with('\n') { "\n" } else { "\n\n" });
                }
                doc.push_str(block);
                doc.push('\n');
            }
        }
    }
    doc
}

/// The commit the code under test sits on: `git rev-parse --short HEAD`,
/// suffixed `-dirty` when tracked files other than Markdown and
/// `figures/` differ from it; `unknown` outside a git checkout.
pub fn commit() -> String {
    let git = |args: &[&str]| {
        let out = std::process::Command::new("git").args(args).output().ok()?;
        let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
        out.status.success().then_some(text)
    };
    let Some(head) = git(&["rev-parse", "--short=7", "HEAD"]) else {
        return "unknown".to_string();
    };
    let top = git(&["rev-parse", "--show-toplevel"]).unwrap_or_default();
    let status = ["-C", top.as_str(), "status", "--porcelain", "-uno"];
    let code = ["--", ".", ":!*.md", ":!figures"];
    match git(&[&status[..], &code[..]].concat()) {
        Some(changes) if changes.is_empty() => head,
        _ => format!("{head}-dirty"),
    }
}

/// One experiment's view of the run: its sizes, its block, and the shared
/// failures and figures.
struct Cx<'a> {
    id: &'static str,
    quick: bool,
    jobs: usize,
    seeds: String,
    sizes: Vec<String>,
    md: String,
    report: &'a mut Report,
}

/// One table row, and the expectations its cell missed.
struct Row {
    cell: String,
    text: String,
    missed: Vec<String>,
}

impl Row {
    /// A row of `cells`, checked under the name `cell`.
    fn new(cell: impl Display, cells: impl Display) -> Row {
        let (cell, text, missed) = (cell.to_string(), cells.to_string(), Vec::new());
        Row { cell, text, missed }
    }

    fn check(mut self, ok: bool, what: impl Display) -> Row {
        if !ok {
            self.missed.push(what.to_string());
        }
        self
    }

    fn safe(self, violations: usize) -> Row {
        let what = format!("{violations} safety violation(s)");
        self.check(violations == 0, what)
    }
}

impl Cx<'_> {
    /// `full`, or `quick` under `--quick`; the provenance line lists it.
    fn size<T: Debug>(&mut self, name: &str, full: T, quick: T) -> T {
        let value = if self.quick { quick } else { full };
        self.sizes.push(format!("{name} {value:?}"));
        value
    }

    /// A Markdown table whose header and row texts are ` | `-separated
    /// cells; each row's missed expectations become failures.
    fn table(&mut self, caption: &str, header: &str, rows: impl IntoIterator<Item = Row>) {
        let rule = " --- |".repeat(header.split(" | ").count());
        self.md += &format!("\n**{caption}**\n\n| {header} |\n|{rule}\n");
        for row in rows {
            self.md += &format!("| {} |\n", row.text);
            for what in row.missed {
                self.fail(&row.cell, what);
            }
        }
    }

    fn check(&mut self, ok: bool, cell: &str, what: impl Display) {
        if !ok {
            self.fail(cell, what);
        }
    }

    fn fail(&mut self, cell: &str, what: impl Display) {
        let failure = format!("{} {cell} (seeds: {}): {what}", self.id, self.seeds);
        self.report.failures.push(failure);
    }
}

/// The seed of every cell that does not name its own.
fn sim_seed() -> String {
    format!("sim {:#x}", SimConfig::default().seed)
}

fn horizon(ticks: u64) -> RunSpec {
    RunSpec {
        horizon: ticks,
        ..RunSpec::default()
    }
}

/// A one-shot workload with every node hungry at t = 1.
fn cold(ticks: u64) -> RunSpec {
    RunSpec {
        cyclic: false,
        first_hungry: (1, 1),
        ..horizon(ticks)
    }
}

/// `moves` random waypoints in the middle 80 % of `ticks`, on the
/// standard area for `n` nodes.
fn waypoints(n: usize, ticks: u64, moves: usize, speed: f64, seed: u64) -> WaypointPlan {
    let area_side = (n as f64 / 1.6).sqrt();
    let (window, speed) = ((ticks / 10, ticks * 9 / 10), Some(speed));
    WaypointPlan {
        area_side,
        moves,
        window,
        speed,
        seed,
    }
}

/// A line of `n` nodes (δ = 2) running `kind`, an Algorithm 1 variant,
/// with every node recoloring before its first meal: the bootstrap
/// scenario where the greedy and Linial procedures part ways.
fn recoloring_a1(kind: AlgKind, n: usize) -> impl FnMut(NodeSeed) -> Algorithm1 + 'static {
    let Automata::A1(make) = kind.automata(n, &[], Some(2), 0) else {
        unreachable!("{} is not an Algorithm 1 variant", kind.name());
    };
    move |seed| {
        let mut node = make(&seed);
        node.require_initial_recoloring();
        node
    }
}

fn cell(label: String, kind: AlgKind, spec: RunSpec, positions: Vec<(f64, f64)>) -> SweepCell {
    let (topo, commands) = (Topo::Geo(positions), Vec::new());
    SweepCell {
        label,
        kind,
        spec,
        topo,
        commands,
    }
}

fn dash<T: Display>(v: Option<T>) -> String {
    v.map_or("-".to_string(), |v| v.to_string())
}

/// Table cells: `xs` separated by ` | `.
fn join<T: Display>(xs: impl IntoIterator<Item = T>) -> String {
    let cells: Vec<String> = xs.into_iter().map(|x| x.to_string()).collect();
    cells.join(" | ")
}

/// `p50/p95` of a summary.
fn p50_95(s: &Summary) -> String {
    format!("{}/{}", s.p50, s.p95)
}

/// p95 of the response times of `samples`.
fn p95_of<'a>(samples: impl Iterator<Item = &'a Sample>) -> u64 {
    let responses: Vec<u64> = samples.map(Sample::response).collect();
    Summary::of(&responses).p95
}

/// The head-to-head columns: Table 1's algorithms without Choy–Singh.
const KINDS: [AlgKind; 4] = [
    AlgKind::ChandyMisra,
    AlgKind::A1Greedy,
    AlgKind::A1Linial,
    AlgKind::A2,
];
const KIND_COLUMNS: &str = "chandy-misra | A1-greedy | A1-linial | A2";

/// `(x, greedy), (x, linial)` for every `x`.
fn a1_pairs(xs: &[usize]) -> Vec<(usize, AlgKind)> {
    let pair = |&x: &usize| [(x, AlgKind::A1Greedy), (x, AlgKind::A1Linial)];
    xs.iter().flat_map(pair).collect()
}

/// Run `cells` over the sweep executor, record every unsafe run, and
/// return the reports in groups of `per_row`.
fn run_grid(cx: &mut Cx, cells: &[SweepCell], per_row: usize) -> Vec<Vec<RunReport>> {
    let runs = run_cells(cells, cx.jobs).runs;
    for r in runs.iter().filter(|r| r.violations > 0) {
        let cell = format!("{} {}", r.label, r.alg);
        cx.fail(&cell, format!("{} safety violation(s)", r.violations));
    }
    runs.chunks(per_row).map(<[RunReport]>::to_vec).collect()
}

/// Every size × every [`KINDS`] entry, in groups of one size.
fn kinds_x_sizes(
    cx: &mut Cx,
    sizes: &[usize],
    spec: impl Fn(usize) -> RunSpec,
    positions: fn(usize) -> Vec<(f64, f64)>,
) -> Vec<Vec<RunReport>> {
    let cells = |n| KINDS.map(|kind| cell(format!("{n}-node"), kind, spec(n), positions(n)));
    let cells: Vec<SweepCell> = sizes.iter().flat_map(|&n| cells(n)).collect();
    run_grid(cx, &cells, KINDS.len())
}

fn t1(cx: &mut Cx) {
    cx.seeds = format!("topology 7, mobility 11, {}", sim_seed());
    let n = cx.size("random", 32, 12);
    let ticks = cx.size("ticks", 60_000, 10_000);
    let moves = cx.size("moves", 40, 8);
    let line_n = cx.size("probe line", 25, 11);
    let fl_ticks = cx.size("probe ticks", 80_000, 15_000);
    let (spec, fl_spec) = (horizon(ticks), horizon(fl_ticks));
    let positions = topology::random_connected(n, 7);
    let commands = waypoints(n, ticks, moves, 0.2, 11).commands(n);
    let fl_topo = Topo::Geo(topology::line(line_n));
    let victim = NodeId(line_n as u32 / 2);
    let mut rows = par_map(&AlgKind::extended(), cx.jobs, |&kind| {
        let stat = run_algorithm(kind, &spec, &positions, &[]);
        let mob = run_algorithm(kind, &spec, &positions, &commands);
        let crash = FaultClass::Crash;
        let probe = harness::probe(kind, &fl_spec, &fl_topo, victim, crash, fl_ticks / 20);
        let bad = stat.violations.len() + mob.violations.len() + probe.outcome.violations.len();
        let mut name = kind.name().to_string();
        if kind == AlgKind::A1Random {
            name += " (extension)";
        }
        let fl = match probe.locality {
            Some(m) => format!("{m} ({} starving)", probe.starving.len()),
            None => "none observed".to_string(),
        };
        let fl_paper = kind.paper_failure_locality();
        let rt_paper = kind.paper_response_time();
        let s = p50_95(&stat.static_summary());
        let m = p50_95(&mob.static_summary());
        let per_cs = stat.messages_per_meal();
        let cells = format!("{name} | {fl_paper} | {fl} | {rt_paper} | {s} | {m}");
        Row::new(kind.name(), format!("{cells} | {per_cs:.1} | {bad}")).safe(bad)
    });
    // The literature-only rows of the paper's Table 1.
    let tsay = "tsay-bagrodia/sivilotti | 2 | paper only | O(n²) (O(n) fault-free)";
    let cs3 = "choy-singh FL3 variant | 3 | paper only | exp(δ)";
    for text in [tsay, cs3] {
        rows.push(Row::new(text, format!("{text} | — | — | — | —")));
    }
    let header = "algorithm | FL (paper) | FL (measured) | RT (paper) | RT static p50/p95 | \
                  RT mobile p50/p95 | msgs/CS | unsafe";
    cx.table("Table 1: paper bounds vs measured", header, rows);
}

/// Doorway demo nodes at `positions`, each built from `config`'s
/// structure, hold time and recycle time.
fn demo(
    positions: Vec<(f64, f64)>,
    config: impl Fn(NodeId) -> DemoConfig + 'static,
) -> Engine<DoorwayDemo> {
    let node = move |seed: NodeSeed| DoorwayDemo::new(config(seed.id));
    Engine::new(SimConfig::default(), positions, node)
}

fn config(structure: Structure, hold_ticks: u64, recycle_after: Option<u64>) -> DemoConfig {
    DemoConfig {
        structure,
        hold_ticks,
        recycle_after,
    }
}

fn doorways(cx: &mut Cx) {
    let f2_ticks = cx.size("F2 ticks", 60_000, 15_000);
    let ks = cx.size("F3 cliques", vec![4usize, 6, 10, 14, 18], vec![4, 6, 10]);
    let returns = cx.size("F4 returns", vec![0u32, 2, 4, 8], vec![0, 2, 4]);

    // F1: a node that crosses before its neighbour begins the entry code
    // blocks that neighbour until it exits.
    let sync = config(Structure::Single(DoorwayKind::Synchronous), 60, None);
    let mut e = demo(topology::line(2), move |_| sync);
    e.set_hungry_at(SimTime(1), NodeId(0));
    e.set_hungry_at(SimTime(25), NodeId(1)); // after p0's cross propagated
    e.run_until(SimTime(2_000));
    let find = |n: u32, ev: DemoEvent| {
        let log = &e.protocol(NodeId(n)).log;
        log.iter().find(|(_, x)| *x == ev).map(|(t, _)| t.0)
    };
    let events = [
        ("p0 crossed", find(0, DemoEvent::Crossed(OUTER))),
        ("p0 exited", find(0, DemoEvent::Exited(OUTER))),
        ("p1 began entry", find(1, DemoEvent::EntryStarted(OUTER))),
        ("p1 crossed", find(1, DemoEvent::Crossed(OUTER))),
    ];
    let held = matches!(events.map(|(_, t)| t),
        [Some(cross), Some(exit), Some(entry), Some(later)] if cross < entry && later >= exit);
    cx.check(held, "F1", "p1 crossed before p0 exited");
    let rows = events.map(|(event, t)| Row::new("F1", format!("{event} | {}", dash(t))));
    cx.table("F1: the doorway guarantee", "event | tick", rows);

    // F2: path p0 – p1 – p2. The leaves cannot hear each other and recycle
    // (hold 100, think 30, offset 65) so that the centre never sees both
    // outside at once: the synchronous entry condition never holds, the
    // asynchronous one (each outside at least once) does.
    let kinds = [DoorwayKind::Synchronous, DoorwayKind::Asynchronous];
    let rows = kinds.map(|kind| {
        let structure = Structure::Single(kind);
        let centre = config(structure, 10, None);
        let leaf = config(structure, 100, Some(30));
        let node = move |id| if id == NodeId(1) { centre } else { leaf };
        let mut e = demo(topology::line(3), node);
        e.set_hungry_at(SimTime(1), NodeId(0));
        e.set_hungry_at(SimTime(66), NodeId(2));
        e.set_hungry_at(SimTime(200), NodeId(1));
        e.run_until(SimTime(f2_ticks));
        let done = |n| e.protocol(NodeId(n)).completions.len();
        let (center, leaves) = (done(1), done(0) + done(2));
        let ok = (center == 0) == (kind == DoorwayKind::Synchronous);
        let text = format!("{kind:?} | {center} | {leaves}");
        let row = Row::new(format!("F2 {kind:?}"), text);
        row.check(ok, format!("the centre completed {center} times"))
    });
    let header = "doorway kind | center completions | leaf completions (sum)";
    let caption = "F2: synchronous starvation vs asynchronous progress";
    cx.table(caption, header, rows);

    // F3: a one-shot centre against δ = k − 1 recycling clique-mates. Lemma
    // 1: once behind the asynchronous doorway no leaf can re-enter, and
    // each leaf delays the centre at most once more.
    let hold = 40u64;
    let rows = ks.iter().map(|&k| {
        let delta = k as u64 - 1;
        let node = move |id| config(Structure::Double, hold, (id != NodeId(0)).then_some(3));
        let mut e = demo(topology::clique(k), node);
        for i in 1..k as u32 {
            e.set_hungry_at(SimTime(1 + u64::from(i) * 7), NodeId(i));
        }
        e.set_hungry_at(SimTime(120), NodeId(0));
        // The traversal is final once the centre completes; the leaves
        // would recycle to the horizon.
        let mut t = 0;
        while e.protocol(NodeId(0)).completions.is_empty() && t < 1_000_000 {
            t += 1_000;
            e.run_until(SimTime(t));
        }
        let traversal = e.protocol(NodeId(0)).completions.first().map(|c| c.1 - c.0);
        let ratio = traversal.map(|t| format!("{:.2}", t as f64 / (delta * hold) as f64));
        let (shown, ratio) = (dash(traversal), dash(ratio));
        let bound = 3 * delta * hold + 5 * hold; // generous O(δT)
        let text = format!("{delta} | {shown} | {ratio}");
        let row = Row::new(format!("F3 δ={delta}"), text);
        let what = format!("centre traversal {shown} exceeds Lemma 1's {bound}");
        row.check(traversal.is_some_and(|t| t <= bound), what)
    });
    let header = "δ (neighbors) | center traversal | traversal / δ·T";
    cx.table("F3: double-doorway traversal vs δ (Lemma 1)", header, rows);

    // F4: every clique member is hungry at once and re-enters the inner
    // doorway R times.
    let (hold, k) = (30u64, 4usize);
    let rows = returns.iter().map(|&r| {
        let structure = Structure::DoubleWithReturn { returns: r };
        let node = config(structure, hold, None);
        let mut e = demo(topology::clique(k), move |_| node);
        for i in 0..k as u32 {
            e.set_hungry_at(SimTime(1), NodeId(i));
        }
        e.run_until(SimTime(1_000_000));
        let nodes: Vec<&DoorwayDemo> = (0..k as u32).map(|i| e.protocol(NodeId(i))).collect();
        let completed = nodes.iter().all(|p| p.completions.len() == 1);
        let traversals = nodes.iter().flat_map(|p| p.completions.first());
        let total: u64 = traversals.map(|c| c.1 - c.0).sum();
        let inner = |ev: &&(SimTime, DemoEvent)| ev.1 == DemoEvent::Crossed(INNER);
        let crossings = nodes.iter().flat_map(|p| &p.log).filter(inner).count();
        let mean = total as f64 / k as f64;
        let ratio = mean / ((r as f64 + 1.0) * hold as f64);
        let row = Row::new(format!("F4 R={r}"), format!("{r} | {mean:.0} | {ratio:.2}"));
        let ok = completed && crossings == k * (r as usize + 1);
        row.check(ok, format!("{crossings} inner crossings, or no completion"))
    });
    let header = "R (returns) | mean traversal | traversal / (R+1)·T";
    let caption = "F4: double doorway with return path vs R (Lemma 2)";
    cx.table(caption, header, rows);
}

const PHASES: [&str; 7] = [
    "await-info",
    "enter-ADr",
    "enter-SDr",
    "recoloring",
    "enter-ADf",
    "enter-SDf",
    "collecting",
];

/// Busy ticks per pipeline phase; `[meals, recolorings, return paths,
/// demotions]`; safety violations.
type Pipeline = (BTreeMap<&'static str, u64>, [u64; 4], usize);

fn pipeline(n: usize, ticks: u64, moves: Option<usize>) -> Pipeline {
    let positions = topology::random_connected(n, 21);
    let node = |seed: NodeSeed| {
        let mut node = Algorithm1::greedy(&seed);
        node.record_phases = true;
        node
    };
    let mut engine = Engine::new(SimConfig::default(), positions, node);
    let (metrics, data) = Metrics::new(n);
    engine.add_hook(Box::new(metrics));
    let (monitor, violations) = SafetyMonitor::new(false);
    engine.add_hook(Box::new(monitor));
    engine.add_hook(Box::new(Workload::cyclic(10..=30, 50..=150, 3)));
    for i in 0..n as u32 {
        engine.set_hungry_at(SimTime(1 + u64::from(i) % 17), NodeId(i));
    }
    let plan = moves.map(|moves| waypoints(n, ticks, moves, 0.25, 31));
    for (at, cmd) in plan.map(|p| p.commands(n)).unwrap_or_default() {
        engine.schedule(at, cmd);
    }
    engine.run_until(SimTime(ticks));
    let mut phase_ticks = BTreeMap::new();
    let d = data.borrow();
    let mut counters = [d.meals.iter().sum(), 0, 0, d.demotions.iter().sum()];
    for i in 0..n as u32 {
        let seen = engine.observed(NodeId(i));
        counters[1] += seen.recolorings;
        counters[2] += seen.return_paths;
        for w in engine.protocol(NodeId(i)).phase_log.windows(2) {
            let ((t0, phase), (t1, _)) = (w[0], w[1]);
            if phase != Phase::Idle {
                *phase_ticks.entry(phase.name()).or_insert(0) += t1 - t0;
            }
        }
    }
    let violations = violations.borrow().len();
    (phase_ticks, counters, violations)
}

fn f5(cx: &mut Cx) {
    cx.seeds = format!("topology 21, mobility 31, workload 3, {}", sim_seed());
    let n = cx.size("random", 24, 10);
    let ticks = cx.size("ticks", 40_000, 8_000);
    let moves = cx.size("moves", 60, 12);
    let stat = pipeline(n, ticks, None);
    let mob = pipeline(n, ticks, Some(moves));
    let at = |r: &Pipeline, phase: &str| r.0.get(phase).copied().unwrap_or(0);
    let share = |r: &Pipeline, phase| {
        let busy = r.0.values().sum::<u64>().max(1) as f64;
        format!("{:.1}", at(r, phase) as f64 / busy * 100.0)
    };
    let rows = PHASES.map(|p| {
        let row = Row::new(p, format!("{p} | {} | {}", share(&stat, p), share(&mob, p)));
        let first_doorway = p == "enter-ADr" || p == "enter-SDr";
        let ok = !first_doorway || at(&stat, p) == 0;
        row.check(ok, "a static run entered the first double doorway")
    });
    let header = "phase | static (% of busy time) | mobile (% of busy time)";
    let caption = "F5: time in each pipeline phase of Algorithm 1";
    cx.table(caption, header, rows);
    let names = [
        "meals",
        "recoloring runs",
        "SD^f return paths",
        "eating→hungry demotions",
    ];
    let recolored = stat.1[1] == 0 && mob.1[1] > 0;
    let rows = (0..4).map(|i| {
        let name = names[i];
        let row = Row::new(name, format!("{name} | {} | {}", stat.1[i], mob.1[i]));
        match i {
            0 => row.safe(stat.2 + mob.2),
            1 => row.check(recolored, "only the mobile run may, and must, recolor"),
            _ => row,
        }
    });
    cx.table("F5: pipeline counters", "counter | static | mobile", rows);
}

type Chain = (
    Engine<Algorithm1>,
    Rc<RefCell<MetricsData>>,
    Rc<RefCell<Vec<Violation>>>,
);

/// The Figure 6 chain `p4 – p3 – p2 – p1` (node0 … node3, colours
/// c(p3) < c(p4), c(p3) < c(p2) < c(p1)): p4 crashes at t = 5 holding the
/// fork it shares with p3, the others get hungry at t = 10 and eat once.
fn figure6(return_path: bool) -> Chain {
    let positions = vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)];
    let node = move |seed: NodeSeed| {
        let mut node = Algorithm1::greedy(&seed);
        node.set_initial_coloring(&[1, 0, 2, 3]);
        node.return_path_enabled = return_path;
        node
    };
    let mut engine = Engine::new(SimConfig::default(), positions, node);
    let (metrics, data) = Metrics::new(4);
    engine.add_hook(Box::new(metrics));
    let (monitor, violations) = SafetyMonitor::new(false);
    engine.add_hook(Box::new(monitor));
    engine.add_hook(Box::new(Workload::one_shot(20..=20, 1)));
    engine.crash_at(SimTime(5), NodeId(0));
    for n in 1..4 {
        engine.set_hungry_at(SimTime(10), NodeId(n));
    }
    (engine, data, violations)
}

fn f6(cx: &mut Cx) {
    cx.sizes.push("fixed".into());
    let (mut engine, data, violations) = figure6(true);
    let nodes = [("p3", NodeId(1)), ("p2", NodeId(2)), ("p1", NodeId(3))];
    engine.run_until(SimTime(4_000));
    let meals = |n: NodeId| data.borrow().meals[n.index()];
    let before = nodes.map(|(_, n)| (engine.dining_state(n), meals(n)));
    // p3 moves away; p2 must take the return path and eat.
    engine.teleport_at(SimTime(4_000), NodeId(1), (50.0, 0.0));
    engine.run_until(SimTime(8_000));
    let expected = [
        (DiningState::Hungry, 0, 1, false),
        (DiningState::Hungry, 0, 1, true),
        (DiningState::Thinking, 1, 1, false),
    ];
    let unsafe_ = violations.borrow().len();
    cx.check(unsafe_ == 0, "chain", format!("{unsafe_} unsafe"));
    let cells = nodes.into_iter().zip(before).zip(expected);
    let rows = cells.map(|(((name, node), (was, ate)), want)| {
        let (now, after) = (engine.dining_state(node), meals(node));
        let returns = engine.observed(node).return_paths;
        let id = node.0;
        let text = format!("{name} (node{id}) | {was} | {ate} | {now} | {after} | {returns}");
        let what = format!("{was}/{ate} meals, then {after} meals and {returns} return paths");
        Row::new(name, text).check((was, ate, after, returns >= 1) == want, what)
    });
    let header = "node | t=4000 state | t=4000 meals | t=8000 state | t=8000 meals | return paths";
    let caption = "F6: crash containment and the SD^f return path";
    cx.table(caption, header, rows);
}

fn ab(cx: &mut Cx) {
    cx.seeds = format!("workload 3, {}", sim_seed());
    let n = cx.size("AB-2 line", 16, 10);
    let ticks = cx.size("AB-2 ticks", 80_000, 20_000);
    let arms = [true, false];
    let rows = par_map(&arms, cx.jobs, |&enabled| {
        let (mut engine, data, violations) = figure6(enabled);
        engine.run_until(SimTime(4_000));
        engine.teleport_at(SimTime(4_000), NodeId(1), (50.0, 0.0));
        engine.run_until(SimTime(12_000));
        let (p2, data) = (NodeId(2), data.borrow());
        let ate = data.samples.iter().find(|s| s.node == p2);
        let latency = ate.map(|s| s.eat_at.ticks_since(SimTime(4_000)));
        let returns = engine.observed(p2).return_paths;
        let meals = data.meals[p2.index()];
        let text = format!("{enabled} | {meals} | {} | {returns}", dash(latency));
        let row = Row::new(format!("AB-1 return path {enabled}"), text);
        let ok = meals == 1 && latency.is_some() && returns == u64::from(enabled);
        let row = row.safe(violations.borrow().len());
        row.check(ok, format!("p2 ate {meals} times, {returns} return paths"))
    });
    let header = "return path | p2 meals | p2 post-move latency | p2 return paths";
    let caption = "AB-1: Figure 6 with and without the SD^f return path";
    cx.table(caption, header, rows);

    // AB-2, skewed regime: even nodes cycle fast, odd nodes think long. A
    // long-thinking dominator that wakes mid-collection snatches priority
    // unless notifications made it step aside.
    let rows = par_map(&arms, cx.jobs, |&enabled| {
        let node = move |seed: NodeSeed| {
            let mut node = Algorithm2::new(&seed);
            node.notifications_enabled = enabled;
            node
        };
        let mut engine = Engine::new(SimConfig::default(), topology::line(n), node);
        let (metrics, data) = Metrics::new(n);
        engine.add_hook(Box::new(metrics));
        let (monitor, violations) = SafetyMonitor::new(false);
        engine.add_hook(Box::new(monitor));
        engine.add_hook(Box::new(Workload::cyclic(10..=30, 40..=600, 3)));
        for i in 0..n as u32 {
            engine.set_hungry_at(SimTime(1 + u64::from(i) * 3), NodeId(i));
        }
        engine.run_until(SimTime(ticks));
        let data = data.borrow();
        let fast = data.samples.iter().filter(|s| s.node.0 % 2 == 0);
        let fast: Vec<u64> = fast.map(Sample::response).collect();
        let s = Summary::of(&fast);
        let switches = (0..n as u32).map(|i| engine.observed(NodeId(i)).switches);
        let (switches, meals) = (switches.sum::<u64>(), data.meals.iter().sum::<u64>());
        let text = format!("{enabled} | {} | {} | {meals} | {switches}", s.p95, s.max);
        let unsafe_ = violations.borrow().len();
        Row::new(format!("AB-2 notifications {enabled}"), text).safe(unsafe_)
    });
    let header = "notifications | fast nodes p95 | fast nodes max | total meals | switch msgs";
    let caption = "AB-2: Algorithm 2 with and without notifications";
    cx.table(caption, header, rows);
}

fn c1(cx: &mut Cx) {
    let lines = cx.size("lines", vec![8usize, 16, 32, 64], vec![8, 16]);
    let line_ticks = cx.size("line ticks", 60_000, 15_000);
    let cliques = cx.size("cliques", vec![3usize, 5, 9, 13, 17], vec![3, 5, 9]);
    let stars = cx.size("star leaves", vec![2usize, 4, 8, 16, 24], vec![2, 4, 8]);
    let ticks = cx.size("clique/star ticks", 80_000, 20_000);
    let p95s = |x: usize, g: &[RunReport]| {
        let p95s = join(g.iter().map(|r| r.rt_static.p95));
        Row::new(x, format!("{x} | {p95s}"))
    };

    let groups = kinds_x_sizes(cx, &lines, |_| horizon(line_ticks), topology::line);
    let rows = lines.iter().zip(&groups).map(|(&n, g)| p95s(n, g));
    let caption = "C1-n: steady state on a line (δ = 2), p95 static response vs n";
    cx.table(caption, &format!("n | {KIND_COLUMNS}"), rows);

    let groups = kinds_x_sizes(cx, &cliques, |_| horizon(ticks), topology::clique);
    let deltas: Vec<usize> = cliques.iter().map(|k| k - 1).collect();
    let rows = deltas.iter().zip(&groups).map(|(&d, g)| p95s(d, g));
    let caption = "C1-δ: steady state on cliques, p95 static response vs δ";
    cx.table(caption, &format!("δ | {KIND_COLUMNS}"), rows);
    let series = |i: usize| {
        let point = |(&d, g): (&usize, &Vec<RunReport>)| (d as f64, g[i].rt_static.p95 as f64);
        let points = deltas.iter().zip(&groups).map(point);
        Series {
            name: KINDS[i].name().into(),
            points: points.collect(),
        }
    };
    let chart = LineChart {
        title: "Steady-state response vs neighborhood size".into(),
        subtitle: "cliques (δ = n − 1), cyclic workload; p95 of static episodes".into(),
        x_label: "maximum degree δ".into(),
        y_label: "p95 response (ticks)".into(),
        series: vec![series(0), series(1), series(3)],
    };
    cx.report
        .figures
        .push(("response_vs_delta.svg", chart.render()));

    // Stars beyond five leaves cannot be embedded in the unit disk; the
    // explicit-graph engine runs them anyway. Leaves conflict only with
    // the hub.
    let spec = horizon(ticks);
    let rows = par_map(&stars, cx.jobs, |&leaves| {
        let (n, edges) = topology::star_edges(leaves);
        let star = Topo::Graph { n, edges };
        let hub_and_leaf = |kind| {
            let out = run(kind, &spec, &star, &[], None);
            let hub = |s: &&Sample| s.node == NodeId(0);
            let samples = &out.metrics.samples;
            let hub_p95 = p95_of(samples.iter().filter(hub));
            let leaf_p95 = p95_of(samples.iter().filter(|s| !hub(s)));
            (format!("{hub_p95} | {leaf_p95}"), out.violations.len())
        };
        let (a2, a2_bad) = hub_and_leaf(AlgKind::A2);
        let (a1, a1_bad) = hub_and_leaf(AlgKind::A1Greedy);
        let row = Row::new(format!("star{leaves}"), format!("{leaves} | {a2} | {a1}"));
        row.safe(a2_bad + a1_bad)
    });
    let header = "δ (leaves) | hub p95 (A2) | leaf p95 (A2) | hub p95 (A1-greedy) | \
                  leaf p95 (A1-greedy)";
    let caption = "C1-star: hub vs leaf p95 static response vs δ";
    cx.table(caption, header, rows);
}

fn c2(cx: &mut Cx) {
    cx.seeds = format!("topology 97, mobility 13, {}", sim_seed());
    let cold_ns = cx.size("static lines", vec![8, 16, 32, 48, 64], vec![8, 16, 24]);
    let n = cx.size("mobile random", 32, 12);
    let mobile_ticks = cx.size("mobile ticks", 60_000, 12_000);
    let moves = cx.size("mobile moves", 50, 10);
    let boot = cx.size("boot lines", vec![8usize, 16, 32, 48], vec![8, 16]);
    let resident = cx.size("recolor line", 16, 8);
    let movers = cx.size("recolor movers", vec![2usize, 4, 8, 12], vec![2, 4]);
    let mover_ticks = cx.size("recolor ticks", 40_000, 12_000);

    // Cold start: all hungry at t = 1 forces the worst priority chain.
    let spec = |n: usize| cold(40_000 + 2_000 * n as u64);
    let groups = kinds_x_sizes(cx, &cold_ns, spec, topology::line);
    let rows = cold_ns.iter().zip(&groups).map(|(&n, g)| {
        let maxes = join(g.iter().map(|r| r.rt_all.max));
        let cm_per_node = g[0].rt_all.max as f64 / n as f64;
        let text = format!("{n} | {maxes} | {cm_per_node:.1}");
        let starved = g.iter().filter(|r| r.meals != n as u64).map(|r| r.alg);
        let starved: Vec<&str> = starved.collect();
        let what = format!("{starved:?} starved at cold start");
        Row::new(format!("line{n}"), text).check(starved.is_empty(), what)
    });
    let header = format!("n | {KIND_COLUMNS} | CM / n");
    let caption = "C2-static: cold start on a line, max first response";
    cx.table(caption, &header, rows);

    let positions = topology::random_connected(n, 97);
    let spec = horizon(mobile_ticks);
    let commands = waypoints(n, mobile_ticks, moves, 0.25, 13).commands(n);
    let pair = |kind| {
        let label = format!("rand{n}:static");
        let stat = cell(label, kind, spec.clone(), positions.clone());
        let mut mob = stat.clone();
        (mob.label, mob.commands) = (format!("rand{n}:mobile"), commands.clone());
        [stat, mob]
    };
    let cells: Vec<SweepCell> = KINDS.into_iter().flat_map(pair).collect();
    let groups = run_grid(cx, &cells, 2);
    let rows = KINDS.iter().zip(&groups).map(|(kind, p)| {
        let (name, meals) = (kind.name(), p[1].meals);
        let (s, m) = (p50_95(&p[0].rt_static), p50_95(&p[1].rt_static));
        Row::new(name, format!("{name} | {s} | {m} | {meals}"))
    });
    let header = "algorithm | static p50/p95 | mobile p50/p95 | mobile meals";
    cx.table("C2-mobile: mobility cost, p50/p95", header, rows);

    // The paper's initialization: every node runs the recoloring module
    // before its first meal, with the whole line hungry at once.
    let outs = par_map(&a1_pairs(&boot), cx.jobs, |&(n, kind)| {
        let spec = cold(60_000 + 3_000 * n as u64);
        let line = Topo::Geo(topology::line(n));
        let out = run_protocol(&spec, &line, recoloring_a1(kind, n), |_| {});
        let (name, meals, bad) = (kind.name(), out.total_meals(), out.violations.len());
        let ok = bad == 0 && meals == n as u64;
        let what = format!("{name}: {bad} safety violation(s), {meals} of {n} ate");
        (out.all_summary().max, (!ok).then_some(what))
    });
    let maxes: Vec<[u64; 2]> = outs.chunks(2).map(|p| [p[0].0, p[1].0]).collect();
    let rows = boot.iter().zip(outs.chunks(2)).map(|(n, p)| {
        let (greedy, linial) = (p[0].0, p[1].0);
        let ratio = greedy as f64 / linial as f64;
        let text = format!("{n} | {greedy} | {linial} | {ratio:.2}");
        let missed = p.iter().filter_map(|(_, what)| what.clone()).collect();
        Row {
            missed,
            ..Row::new(format!("line{n}"), text)
        }
    });
    let header = "n | A1-greedy max | A1-linial max | greedy/linial";
    let caption = "C2-boot: initial recoloring at cold start, max first response";
    cx.table(caption, header, rows);
    let series = |i: usize, name: &str| {
        let points = boot
            .iter()
            .zip(&maxes)
            .map(|(&n, m)| (n as f64, m[i] as f64));
        Series {
            name: name.into(),
            points: points.collect(),
        }
    };
    let chart = LineChart {
        title: "Initial recoloring: greedy O(n) vs Linial O(log* n)".into(),
        subtitle: "line topology, all nodes hungry and recoloring at once; max first response"
            .into(),
        x_label: "nodes (n)".into(),
        y_label: "max first response (ticks)".into(),
        series: vec![series(0, "A1-greedy"), series(1, "A1-linial")],
    };
    cx.report
        .figures
        .push(("bootstrap_recoloring.svg", chart.render()));

    // k movers staged far away teleport at once into a contiguous strip
    // beside a resident line: k concurrent recolorings in one component.
    let move_at = SimTime(2_000);
    let outs = par_map(&a1_pairs(&movers), cx.jobs, |&(k, kind)| {
        let mut positions = topology::line(resident);
        positions.extend((0..k).map(|i| (200.0 + 0.2 * i as f64, 200.0)));
        let mut spec = horizon(mover_ticks);
        spec.delta_bound = Some(8);
        let teleport = |i: usize| {
            let x = (i as f64).min(resident as f64 - 1.0);
            let (node, dest) = (NodeId((resident + i) as u32), Position { x, y: 1.0 });
            (move_at, Command::Teleport { node, dest })
        };
        let commands: Vec<(SimTime, Command)> = (0..k).map(teleport).collect();
        let out = run_algorithm(kind, &spec, &positions, &commands);
        let post = |s: &&Sample| s.hungry_at >= move_at && !s.moved;
        let p95 = p95_of(out.metrics.samples.iter().filter(post));
        (p95, out.violations)
    });
    let rows = movers.iter().zip(outs.chunks(2)).map(|(k, p)| {
        let ((greedy, g_bad), (linial, l_bad)) = (&p[0], &p[1]);
        let counts = format!("{}/{}", g_bad.len(), l_bad.len());
        let text = format!("{k} | {greedy} | {linial} | {counts}");
        let first = g_bad.first().or(l_bad.first()).map(|v| (v.at.0, v.a, v.b));
        let first = first.map(|(t, a, b)| format!(", the first at t={t} between {a} and {b}"));
        let what = format!(
            "{counts} unsafe (greedy/linial){}",
            first.unwrap_or_default()
        );
        let ok = g_bad.is_empty() && l_bad.is_empty();
        Row::new(format!("line{resident}+{k}"), text).check(ok, what)
    });
    let header = "movers k | A1-greedy p95 (post-move) | A1-linial p95 (post-move) | \
                  unsafe (greedy/linial)";
    let caption = "C2-recolor: k simultaneous movers, post-move p95";
    cx.table(caption, header, rows);
}

/// Crash the centre of `positions` mid-CS under every Table 1 algorithm;
/// returns each algorithm's starvation distance for the figure.
fn probe(cx: &mut Cx, name: &str, positions: &[(f64, f64)], ticks: u64) -> Vec<(String, f64)> {
    let victim = NodeId(positions.len() as u32 / 2);
    let (spec, topo) = (horizon(ticks), Topo::Geo(positions.to_vec()));
    let outs = par_map(&AlgKind::all(), cx.jobs, |&kind| {
        let report = harness::probe(kind, &spec, &topo, victim, FaultClass::Crash, ticks / 20);
        let locality = dash(report.locality);
        let ok = kind != AlgKind::A2 || report.locality.is_none_or(|m| m <= 2);
        // Any algorithm with bounded locality keeps the farthest node fed.
        let dist = report.outcome.distances_from(victim);
        let others = (0..positions.len()).filter(|&i| i != victim.index());
        let far = others.max_by_key(|&i| dist[i].unwrap_or(0)).unwrap_or(0);
        let (fl, starving) = (kind.paper_failure_locality(), report.starving.len());
        let meals = report.outcome.metrics.meals[far];
        let text = format!("{} | {fl} | {starving} | {locality} | {meals}", kind.name());
        let row = Row::new(format!("{name} {}", kind.name()), text);
        let row = row.safe(report.outcome.violations.len());
        let bar = (kind.name().to_string(), report.locality.unwrap_or(0) as f64);
        (bar, row.check(ok, format!("A2 locality {locality} > 2")))
    });
    let (bars, rows): (Vec<_>, Vec<_>) = outs.into_iter().unzip();
    let caption = format!("C3: crash probe on {name} (victim = {victim})");
    let header = "algorithm | FL (paper) | starving nodes | max starvation distance | \
                  meals by farthest node";
    cx.table(&caption, header, rows);
    bars
}

fn c3(cx: &mut Cx) {
    let line_n = cx.size("probe line", 31, 13);
    let side = cx.size("probe grid side", 7, 5);
    let ticks = cx.size("ticks", 100_000, 20_000);
    let gradient_n = cx.size("gradient line", 21, 11);
    let dual_n = cx.size("dual/recolor line", 25, 13);
    let recolor_ticks = cx.size("recolor ticks", 120_000, 30_000);
    let line = topology::line(line_n);
    let bars = probe(cx, &format!("a {line_n}-node line"), &line, ticks);
    let chart = BarChart {
        title: "Empirical failure locality".into(),
        subtitle: format!(
            "{line_n}-node line, center crashed mid-critical-section; max hop distance of a \
             starving node"
        ),
        y_label: "starvation distance (hops)".into(),
        bars,
    };
    cx.report
        .figures
        .push(("failure_locality.svg", chart.render()));
    let grid = topology::grid(side, side);
    probe(cx, &format!("a {side}×{side} grid"), &grid, ticks);

    // Mean post-crash response by hop distance from the crash.
    let spec = horizon(ticks);
    let victim = NodeId(gradient_n as u32 / 2);
    let kinds = [AlgKind::ChandyMisra, AlgKind::A1Linial, AlgKind::A2];
    let curves = par_map(&kinds, cx.jobs, |&kind| {
        let line = Topo::Geo(topology::line(gradient_n));
        let report = harness::probe(kind, &spec, &line, victim, FaultClass::Crash, ticks / 20);
        let after = report.outcome.crash_time.unwrap_or(SimTime(ticks / 20));
        let curve = response_by_distance(&report.outcome, victim, after);
        (curve, report.outcome.violations.len())
    });
    let unsafe_: usize = curves.iter().map(|(_, v)| v).sum();
    cx.check(unsafe_ == 0, "gradient", format!("{unsafe_} unsafe"));
    let mean = |c: &Vec<Option<f64>>, d: usize| {
        let v = c.get(d).copied().flatten();
        v.map_or("starved/none".into(), |v| format!("{v:.0}"))
    };
    let max_d = curves.iter().map(|(c, _)| c.len()).max().unwrap_or(0);
    let rows = (1..max_d).map(|d| {
        let means = join(curves.iter().map(|(c, _)| mean(c, d)));
        Row::new(d, format!("{d} | {means}"))
    });
    let header = format!("distance | {}", join(kinds.map(AlgKind::name)));
    let caption = format!("C3-gradient: mean post-crash response vs distance, line:{gradient_n}");
    cx.table(&caption, &header, rows);

    // Two crashes far apart: for locality m each is contained on its own.
    // The first victim crashes while eating, the second by a plain command
    // mid-run (it may or may not hold forks).
    let (v1, v2) = (NodeId(dual_n as u32 / 4), NodeId(3 * dual_n as u32 / 4));
    let kinds = [AlgKind::A1Greedy, AlgKind::A1Linial, AlgKind::A2];
    let rows = par_map(&kinds, cx.jobs, |&kind| {
        let mut spec = spec.clone();
        spec.crash_eating = Some((v1, ticks / 20));
        let commands = [(SimTime(ticks / 10), Command::Crash(v2))];
        let out = run_algorithm(kind, &spec, &topology::line(dual_n), &commands);
        let starving = out.metrics.starving_since(SimTime(ticks * 3 / 4));
        let (d1, d2) = (out.distances_from(v1), out.distances_from(v2));
        let within_2 = |d: &[Option<usize>], s: NodeId| d[s.index()].is_some_and(|d| d <= 2);
        let near = |s: NodeId| within_2(&d1, s) || within_2(&d2, s);
        let contained = starving.iter().all(|&s| s == v1 || s == v2 || near(s));
        let (name, mid) = (kind.name(), out.metrics.meals[dual_n / 2]);
        let text = format!("{name} | {} | {mid} | {contained}", starving.len());
        let row = Row::new(format!("dual {name}"), text).safe(out.violations.len());
        let ok = contained || kind != AlgKind::A2;
        row.check(ok, "A2 did not contain both crashes")
    });
    let header = "algorithm | starving nodes | mid-point meals | contained";
    let caption = format!("C3-dual: two crashes on a {dual_n}-node line");
    cx.table(&caption, header, rows);

    // §5.4.2: every node starts the recoloring module at once (the paper's
    // initialization) with one node already crashed. Greedy: a node at
    // distance k blocks in its k-th iteration. Linial: rounds are capped
    // at log* n, so farther nodes finish first.
    let victim = NodeId(dual_n as u32 / 2);
    let linial_bound = (LinialSchedule::compute(dual_n as u64, 2).rounds() + 4).max(6);
    let kinds = [AlgKind::A1Greedy, AlgKind::A1Linial];
    let rows = par_map(&kinds, cx.jobs, |&kind| {
        let mut spec = cold(recolor_ticks);
        spec.first_hungry = (5, 5);
        let line = Topo::Geo(topology::line(dual_n));
        let crash = |e: &mut Engine<Algorithm1>| e.crash_at(SimTime(2), victim);
        let out = run_protocol(&spec, &line, recoloring_a1(kind, dual_n), crash);
        let dist = out.distances_from(victim);
        let starving = out.metrics.starving_since(SimTime(recolor_ticks / 2));
        let others = starving.into_iter().filter(|&s| s != victim);
        let far: Vec<usize> = others.filter_map(|s| dist[s.index()]).collect();
        let locality = far.iter().copied().max();
        let ok = kind != AlgKind::A1Linial || locality.is_none_or(|m| m <= linial_bound);
        let (name, bound, locality) = (kind.name(), kind.paper_failure_locality(), dash(locality));
        let text = format!("{name} | {} | {locality} | {bound}", far.len());
        let row = Row::new(format!("recolor {name}"), text).safe(out.violations.len());
        row.check(ok, format!("locality {locality} exceeds {linial_bound}"))
    });
    let header = "variant | starving nodes | max starvation distance | paper bound";
    let caption = format!("C3-recolor: crash during system-wide recoloring ({dual_n}-node line)");
    cx.table(&caption, header, rows);
}

type Recolor = Box<dyn RecolorProcedure>;

/// Drive `k` recoloring procedures on a path in lockstep message rounds;
/// the rounds until all are done and their colours, or `None` if they
/// never converge.
fn drive_path(k: usize, make: impl Fn(NodeId) -> Recolor) -> Option<(usize, Vec<i64>)> {
    let mut procs: Vec<Recolor> = (0..k).map(|i| make(NodeId(i as u32))).collect();
    let mut colors: Vec<Option<i64>> = vec![None; k];
    // outboxes[i] = messages from i not yet delivered.
    let mut outboxes: Vec<Vec<(NodeId, RecolorMsg)>> = vec![Vec::new(); k];
    for (i, proc) in procs.iter_mut().enumerate() {
        let neighbors = [i.checked_sub(1), Some(i + 1).filter(|&j| j < k)];
        let neighbors: Vec<NodeId> = neighbors
            .iter()
            .flatten()
            .map(|&j| NodeId(j as u32))
            .collect();
        if let RecolorOutcome::Done(c) = proc.start(&neighbors, &mut outboxes[i]) {
            colors[i] = Some(c);
        }
    }
    let mut rounds = 0;
    while colors.iter().any(Option::is_none) {
        rounds += 1;
        if rounds >= 10 * k + 50 {
            return None;
        }
        let batches: Vec<_> = outboxes.iter_mut().map(std::mem::take).collect();
        for (from, batch) in batches.into_iter().enumerate() {
            let from = NodeId(from as u32);
            for (to, msg) in batch {
                let t = to.index();
                if colors[t].is_some() {
                    // Finished nodes are not participating: NACK data.
                    if !matches!(msg, RecolorMsg::Nack) {
                        outboxes[t].push((from, RecolorMsg::Nack));
                    }
                    continue;
                }
                let mut out = Vec::new();
                if let RecolorOutcome::Done(c) = procs[t].on_message(from, msg, &mut out) {
                    colors[t] = Some(c);
                }
                outboxes[t].extend(out);
            }
        }
    }
    Some((rounds, colors.into_iter().flatten().collect()))
}

fn c4(cx: &mut Cx) {
    cx.seeds = "none (the procedures are deterministic)".into();
    let log_ns = cx.size("log2 n", vec![8u32, 12, 16, 24, 32, 48], vec![8, 16, 32]);
    let ks = cx.size("path", vec![2usize, 4, 8, 16, 32], vec![2, 4, 8]);
    let rows = [2u64, 4, 8].into_iter().flat_map(|delta| {
        log_ns.iter().map(move |&log_n| {
            let sched = LinialSchedule::compute(1u64 << log_n, delta);
            let (rounds, range) = (sched.rounds(), sched.final_range());
            let text = format!("2^{log_n} | {delta} | {rounds} | {range}");
            let row = Row::new(format!("2^{log_n} δ={delta}"), text);
            row.check(rounds <= 8, format!("{rounds} rounds is not log*-like"))
        })
    });
    let header = "n | δ | rounds | final color range";
    cx.table("C4-a: Linial schedule rounds and final range", header, rows);

    let sched = Arc::new(LinialSchedule::compute(1 << 16, 4));
    let proper = |c: &Vec<i64>| c.windows(2).all(|w| w[0] != w[1]) && c.iter().all(|&c| c < 0);
    let rows = ks.iter().map(|&k| {
        let greedy = drive_path(k, |me| Box::new(GreedyRecolor::new(me)));
        let linial = drive_path(k, |me| Box::new(LinialRecolor::new(me, sched.clone())));
        let legal = |r: &Option<(usize, Vec<i64>)>| r.as_ref().is_some_and(|(_, c)| proper(c));
        let legal = legal(&greedy) && legal(&linial);
        let rounds = |r: Option<(usize, Vec<i64>)>| dash(r.map(|(rounds, _)| rounds));
        let text = format!("{k} | {} | {}", rounds(greedy), rounds(linial));
        let what = "no convergence, equal neighbour colours, or a non-negative recolor colour";
        Row::new(format!("{k}-path"), text).check(legal, what)
    });
    let caption = "C4-b: concurrent recoloring on a k-path, message rounds to completion";
    let header = "k (participants) | greedy rounds | linial rounds";
    cx.table(caption, header, rows);

    let ring = AdjGraph::from_edges((0..64u32).map(|i| (i, (i + 1) % 64)));
    let mut grid = AdjGraph::new();
    for v in 0..64u32 {
        if v % 8 < 7 {
            grid.add_edge(v, v + 1);
        }
        if v < 56 {
            grid.add_edge(v, v + 8);
        }
    }
    let rows = [("ring-64", &ring), ("grid-8x8", &grid)].map(|(name, g)| {
        let colors = greedy_color_graph(g);
        let delta = g.vertices().map(|v| g.degree(v)).max().unwrap_or(0);
        let used = colors.values().collect::<BTreeSet<_>>().len();
        let legal = g.is_legal_coloring(|v| colors.get(&v).copied());
        let max = colors.values().max().copied().unwrap_or(0);
        let row = Row::new(name, format!("{name} | {delta} | {used} | {legal}"));
        let what = format!("greedy colouring legal {legal}, max colour {max}, δ = {delta}");
        row.check(legal && max <= delta as i64, what)
    });
    let header = "graph | δ | colors used | legal";
    cx.table("C4-c: exit-time greedy colour quality", header, rows);
}

type Census = (BTreeMap<&'static str, u64>, u64);

/// Delivered messages by kind, and the meals, of one census run.
fn census<P, F>(n: usize, ticks: u64, plan: Option<&WaypointPlan>, make: F) -> Census
where
    P: Protocol,
    P::Msg: 'static,
    F: FnMut(NodeSeed) -> P + 'static,
{
    let positions = topology::random_connected(n, 41);
    let mut engine: Engine<P> = Engine::new(SimConfig::default(), positions, make);
    let (hook, counts) = MessageCensus::new(P::msg_kind as fn(&P::Msg) -> &'static str);
    engine.add_hook(Box::new(hook));
    let (metrics, data) = Metrics::new(n);
    engine.add_hook(Box::new(metrics));
    engine.add_hook(Box::new(Workload::cyclic(10..=30, 50..=150, 5)));
    for i in 0..n as u32 {
        engine.set_hungry_at(SimTime(1 + u64::from(i % 13)), NodeId(i));
    }
    for (at, cmd) in plan.map(|p| p.commands(n)).unwrap_or_default() {
        engine.schedule(at, cmd);
    }
    engine.run_until(SimTime(ticks));
    let meals = data.borrow().meals.iter().sum::<u64>().max(1);
    let counts = counts.borrow().clone();
    (counts, meals)
}

fn m1(cx: &mut Cx) {
    cx.seeds = format!("topology 41, mobility 77, workload 5, {}", sim_seed());
    let n = cx.size("random", 24, 10);
    let ticks = cx.size("ticks", 40_000, 8_000);
    let moves = cx.size("moves", 40, 8);
    let plan = waypoints(n, ticks, moves, 0.25, 77);
    for (regime, plan) in [("static", None), ("mobile", Some(&plan))] {
        let a1 = census(n, ticks, plan, |s| Algorithm1::greedy(&s));
        let a2 = census(n, ticks, plan, |s| Algorithm2::new(&s));
        let cm = census(n, ticks, plan, |s| ChandyMisra::new(&s));
        let runs = [("A1-greedy", a1), ("A2", a2), ("chandy-misra", cm)];
        let kinds = runs.iter().flat_map(|(_, (counts, _))| counts.keys());
        let labels: BTreeSet<&str> = kinds.copied().collect();
        let rows = runs.iter().map(|(name, (counts, meals))| {
            let per_cs = |c: u64| c as f64 / *meals as f64;
            let kinds = labels.iter().map(|l| counts.get(l).copied().unwrap_or(0));
            let kinds = join(kinds.map(|c| format!("{:.2}", per_cs(c))));
            let total = per_cs(counts.values().sum());
            Row::new(name, format!("{name} | {total:.1} | {kinds}"))
        });
        let per_kind = join(labels.iter().map(|l| format!("{l}/CS")));
        let header = format!("algorithm | msgs/CS | {per_kind}");
        let caption = format!("M1: messages per critical section by kind ({regime})");
        cx.table(&caption, &header, rows);
    }
}

fn r(cx: &mut Cx) {
    let all_seeds = vec![1, 7, 23, 42, 99, 512, 777, 1234];
    let seeds = cx.size("seeds", all_seeds, vec![1, 7, 23]);
    cx.seeds = format!("{seeds:?}, simulator and topology alike");
    let random_ticks = cx.size("R-1 ticks", 40_000, 10_000);
    let line_ticks = cx.size("R-2 ticks", 80_000, 20_000);
    // The topology is part of what the seed varies, so R-1 is built cell
    // by cell.
    let seeded = |kind, seed| {
        let (mut spec, positions) = (horizon(random_ticks), topology::random_connected(24, seed));
        spec.sim.seed = seed;
        cell(format!("rand24:{seed}"), kind, spec, positions)
    };
    let per_kind = |kind| seeds.iter().map(move |&seed| seeded(kind, seed));
    let cells: Vec<SweepCell> = KINDS.into_iter().flat_map(per_kind).collect();
    let groups = run_grid(cx, &cells, seeds.len());
    let medians = groups.iter().map(|g| {
        let mut p95s: Vec<u64> = g.iter().map(|r| r.rt_static.p95).collect();
        p95s.sort_unstable();
        (p95s[0], p95s[p95s.len() / 2], p95s[p95s.len() - 1])
    });
    let medians: Vec<(u64, u64, u64)> = medians.collect();
    let (a1, a2) = (medians[1].1, medians[3].1);
    let rows = KINDS
        .iter()
        .zip(&medians)
        .map(|(kind, (min, median, max))| {
            let row = Row::new("R-1", format!("{} | {min} | {median} | {max}", kind.name()));
            let ok = *kind != AlgKind::A2 || a2 <= a1;
            row.check(ok, format!("A2 median p95 {a2} exceeds A1-greedy's {a1}"))
        });
    let caption = "R-1: steady-state p95 over seeds (24-node random graph)";
    cx.table(caption, "algorithm | p95 min | p95 median | p95 max", rows);

    let kinds = [AlgKind::ChandyMisra, AlgKind::A1Linial, AlgKind::A2];
    let report = SweepSpec::new("line21", Topo::Geo(topology::line(21)), horizon(line_ticks))
        .kinds(kinds)
        .seeds(seeds.iter().copied())
        .probe(NodeId(10), 2_000)
        .run(cx.jobs);
    let groups = report.runs.chunks(seeds.len());
    let rows = kinds.iter().zip(groups).map(|(&kind, group)| {
        let locs = group.iter().map(|r| r.locality.map_or(-1, |m| m as i64));
        let locs: Vec<i64> = locs.collect();
        let max = locs.iter().copied().max().filter(|&m| m >= 0);
        let unsafe_ = group.iter().map(|r| r.violations).sum();
        let (name, shown) = (kind.name(), dash(max));
        let text = format!("{name} | {locs:?} | {shown}");
        let row = Row::new(format!("R-2 {name}"), text).safe(unsafe_);
        match kind {
            AlgKind::A2 => row.check(max.is_none_or(|m| m <= 2), "A2's locality exceeds 2"),
            AlgKind::ChandyMisra => row.check(max.is_some_and(|m| m > 2), "CM's stays ≤ 2"),
            _ => row,
        }
    });
    let header = "algorithm | locality per seed (−1 = none) | max over seeds";
    let caption = "R-2: failure locality over seeds (21-node line)";
    cx.table(caption, header, rows);
}

fn ch(cx: &mut Cx) {
    let ticks = cx.size("ticks", 40_000, 8_000);
    let (ticks_per_frame, max_queue, max_inflight) = (2, 64, 64);
    let bandwidth = ChannelConfig::ConstantBandwidth {
        ticks_per_frame,
        max_queue,
    };
    let shared = ChannelConfig::SharedMedium {
        ticks_per_frame,
        max_inflight,
    };
    let burst = ChannelConfig::burst_loss_default();
    let models = [ChannelConfig::Iid, bandwidth, shared, burst];
    let (clique, ring) = (topology::clique(8), topology::ring(8));
    let topos = [("clique:8", clique), ("ring:8", ring)];
    let pairs = |m| topos.iter().map(move |t| (m, t));
    let grid: Vec<_> = models.iter().flat_map(pairs).collect();
    let rows = par_map(&grid, cx.jobs, |(channel, (topo, positions))| {
        let (model, mut spec) = (channel.name(), horizon(ticks));
        spec.sim.channel = (*channel).clone();
        // Burst loss without retransmission starves by design.
        if let ChannelConfig::GilbertElliott { .. } = channel {
            spec.sim.arq = Some(ArqConfig::default());
        }
        let out = run(AlgKind::A2, &spec, &Topo::Geo(positions.clone()), &[], None);
        let (rt, c) = (out.all_summary(), &out.stats.channel);
        let rt = format!("{}/{}/{}", rt.p50, rt.p95, rt.max);
        let queue = format!("{}/{}", c.frames_queued, c.queue_peak);
        let loss = format!("{}/{}", c.burst_transitions, c.frames_lost);
        // A cell whose load exceeds the channel's capacity ends in a
        // structured queue-overflow abort: saturation is the result.
        let saturated = out.abort.is_some();
        let outcome = if saturated { "saturated" } else { "ok" };
        let (meals, msgs) = (out.total_meals(), out.messages_sent);
        let cells = format!("{meals} | {rt} | {msgs} | {queue} | {loss} | {outcome}");
        let text = format!("{model} | {topo} | {cells}");
        Row::new(format!("{model} {topo}"), text).safe(out.violations.len())
    });
    let header = "model | topology | meals | rt p50/p95/max | messages | queued/peak | \
                  transitions/lost | outcome";
    cx.table("CH: A2 under every channel model", header, rows);
}

fn l1(cx: &mut Cx) {
    cx.seeds = format!("live {:#x}", SimConfig::default().seed);
    let duration = cx.size("ms per run", 1_000, 150);
    let rungs = cx.size("A2 rings", vec![1_000usize, 10_000], vec![100]);
    // Each cell reports the median and range of its runs.
    let runs = cx.size("runs", 3, 3);
    let clique = |alg| (alg, "clique:5".to_string(), topology::clique(5));
    let ring = |&n: &usize| (AlgKind::A2, format!("ring:{n}"), topology::ring(n));
    let cliques = AlgKind::extended().map(clique);
    let cells = cliques.into_iter().chain(rungs.iter().map(ring));
    // Live cells run one at a time: concurrent runs would share the cores
    // they are timed on.
    let rows = cells.map(|(alg, topo, positions)| {
        let mut row = Row::new(format!("{} {topo}", alg.name()), "");
        let mut samples = [const { Vec::new() }; 3];
        let mut unsafe_ = 0;
        for _ in 0..runs {
            let mut cfg = LiveConfig::new(alg, TransportKind::Mpsc, positions.clone());
            (cfg.duration_ms, cfg.eat_ms, cfg.rate, cfg.closed_loop) = (duration, 1, 40.0, true);
            let out = match run_live(&cfg) {
                Ok(out) => out,
                Err(e) => {
                    row = row.check(false, e);
                    continue;
                }
            };
            unsafe_ += out.violations.len();
            let (joined, n) = (out.threads_joined, positions.len());
            row = row.check(joined == n, format!("{joined}/{n} threads joined"));
            let p95_ms = Summary::of(&out.latencies_ns).p95 as f64 / 1e6;
            let values = [out.sessions_per_sec(), p95_ms, out.verdict_ms as f64];
            samples.iter_mut().zip(values).for_each(|(s, v)| s.push(v));
        }
        let [sps, p95, lag] = samples.map(spread);
        let name = alg.name();
        row.text = format!("{name} | {topo} | {sps} | {p95} | {lag} | {unsafe_}");
        row.safe(unsafe_)
    });
    let header = "algorithm | topology | sessions/s | hungry→eat p95 (ms) | verdict lag (ms) | \
                  unsafe";
    cx.table("L1: live runtime throughput and latency", header, rows);
}

/// `median (min–max)` of wall-clock samples.
fn spread(mut v: Vec<f64>) -> String {
    v.sort_by(f64::total_cmp);
    match (v.first(), v.get(v.len() / 2), v.last()) {
        (Some(min), Some(median), Some(max)) => format!("{median:.1} ({min:.1}–{max:.1})"),
        _ => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splice_replaces_marked_blocks_and_appends_missing_ones() {
        let doc = "intro\n<!-- experiments:T1 -->\nold\n<!-- /experiments:T1 -->\nprose\n";
        let t1 = "<!-- experiments:T1 -->\nnew\n<!-- /experiments:T1 -->".to_string();
        let c4 = "<!-- experiments:C4 -->\nc4\n<!-- /experiments:C4 -->".to_string();
        let out = splice(doc, &[("T1", t1.clone()), ("C4", c4.clone())]);
        assert_eq!(out, format!("intro\n{t1}\nprose\n\n{c4}\n"));
        assert_eq!(splice(&out, &[("T1", t1), ("C4", c4)]), out, "idempotent");
    }
}
