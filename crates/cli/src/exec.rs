//! Command execution: turn a parsed [`Command`] into a run and render the
//! report.

use std::path::Path;

use harness::{
    default_jobs, run_cells, AggregateRow, AlgKind, FaultClass, FlReport, RunReport, RunSpec,
    Sample, Summary, SweepCell, SweepReport, SweepSpec, Table, Topo, WaypointPlan,
};
use lme_check::{
    certify, explore, replay, Certificate, CertifyConfig, CheckSpec, Exploration, ExploreConfig,
    Mutation, StrategyKind, Witness,
};
use lme_net::{conformance_replay, run_live, ConformanceReport, LiveConfig, LiveOutcome};
use manet_sim::{ArqConfig, Command as SimCommand, NodeId, SimConfig};

use crate::args::{
    Chaos, Check, CheckMode, Command, Experiments, Instance, Live, LiveCell, Mobility, Probe, Run,
    Scenario, Sim, Strategy, Sweep, TopoSpec, USAGE,
};
use crate::experiments;

/// The sweep of `inst` over `sim` with `mobility`: one cell, `inst.alg`
/// at `inst.seed`, until the caller sets its algorithms and seeds.
/// `run` and `probe` are this one cell, so they run what `sweep --seeds
/// 1` runs.
fn sweep_of(inst: &Instance, sim: &Sim, mobility: &Mobility) -> SweepSpec {
    let base = RunSpec {
        sim: SimConfig {
            seed: inst.seed,
            fault: sim.fault.clone(),
            arq: sim.arq.then(ArqConfig::default),
            channel: sim.channel.clone(),
            ..SimConfig::default()
        },
        horizon: inst.horizon,
        eat: inst.eat.0..=inst.eat.1,
        think: inst.think.0..=inst.think.1,
        ..RunSpec::default()
    };
    let sweep = SweepSpec::new(inst.topo.to_string(), inst.topo.topo(), base).kinds([inst.alg]);
    match mobility {
        Mobility::Static => sweep,
        Mobility::Waypoints(plan) => sweep.moves(plan.clone()),
        Mobility::Mix(mix) => sweep.mix(mix.clone()),
    }
}

/// Write the JSONL metrics file when `--metrics-out` was given.
fn emit_metrics(path: Option<&String>, report: &SweepReport) -> Result<(), String> {
    if let Some(path) = path {
        report
            .write_jsonl(std::path::Path::new(path))
            .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
    }
    Ok(())
}

/// Run the one cell of `sweep` and write its record where `out` says:
/// the record, and the finished run it came from.
fn run_one(sweep: &SweepSpec, out: Option<&String>) -> Result<(RunReport, FlReport), String> {
    let cell = &sweep.cells()[0];
    let fl = cell.outcome();
    let mut report = SweepReport {
        runs: vec![cell.report(&fl)],
    };
    emit_metrics(out, &report)?;
    Ok((report.runs.remove(0), fl))
}

/// The command's result: its report `s`, or, when an in-model run of
/// `spec` (see [`RunSpec::in_model`]) saw safety violations, an error
/// carrying the report (exit 2). An out-of-model run only reports its
/// count: lost or duplicated frames are outside what the paper proves.
fn verdict(spec: &RunSpec, violations: usize, s: String) -> Result<String, String> {
    if violations == 0 || !spec.in_model() {
        return Ok(s);
    }
    Err(format!(
        "{violations} safety violation(s) in an in-model run\n{s}"
    ))
}

fn render_run(cmd: &Run) -> Result<String, String> {
    let Scenario {
        inst,
        sim,
        mobility,
    } = &cmd.scenario;
    let sweep = sweep_of(inst, sim, mobility);
    let (r, fl) = run_one(&sweep, sim.metrics_out.as_ref())?;
    let text = if cmd.csv {
        samples_csv(&fl.outcome.metrics.samples)
    } else {
        run_text(cmd, &r)
    };
    verdict(&sweep.base, r.violations, text)
}

/// The per-episode samples of `run --csv`.
fn samples_csv(samples: &[Sample]) -> String {
    let mut t = Table::new(&["node", "hungry_at", "eat_at", "response", "moved", "msgs"]);
    for s in samples {
        t.row([
            s.node.0.to_string(),
            s.hungry_at.to_string(),
            s.eat_at.to_string(),
            s.response().to_string(),
            s.moved.to_string(),
            s.msgs.to_string(),
        ]);
    }
    t.to_csv()
}

/// The text of `run`: its record `r` under a header of its arguments.
fn run_text(cmd: &Run, r: &RunReport) -> String {
    let inst = &cmd.scenario.inst;
    let mut s = format!(
        "{} on {:?} (n = {}), horizon {}, seed {}\n",
        inst.alg.name(),
        inst.topo,
        inst.topo.len(),
        inst.horizon,
        inst.seed
    );
    s += &format!("  safety violations : {}\n", r.violations);
    s += &format!("  total meals       : {}\n", r.meals);
    s += &format!("  meals fairness    : {:.3} (Jain index)\n", r.jain);
    s += &format!("  response (static) : {}\n", r.rt_static);
    s += &format!("  response (all)    : {}\n", r.rt_all);
    s += &format!(
        "  messages          : {} ({:.1} per meal)\n",
        r.messages_sent,
        r.messages_per_meal()
    );
    if cmd.scenario.sim.arq {
        s += &format!(
            "  arq shim          : {} retransmissions, {} acks, buffer high water {}\n",
            r.retransmissions, r.acks_sent, r.buffer_high_water
        );
    }
    if r.recoveries > 0 {
        s += &format!("  recoveries        : {}\n", r.recoveries);
    }
    if r.starving_nodes.is_empty() {
        s += "  starvation        : none\n";
    } else {
        let starving: Vec<NodeId> = r.starving_nodes.iter().map(|&(node, _)| node).collect();
        s += &format!("  starvation        : {starving:?}\n");
    }
    s
}

fn render_probe(cmd: &Probe) -> Result<String, String> {
    let sweep = probe_sweep(cmd);
    let (r, _) = run_one(&sweep, cmd.sim.metrics_out.as_ref())?;
    verdict(&sweep.base, r.violations, probe_text(cmd, &r))
}

/// The node `--victim` names, by default the middle one.
fn victim_of(inst: &Instance, victim: Option<u32>) -> NodeId {
    NodeId(victim.unwrap_or(inst.topo.len() as u32 / 2))
}

/// The one-cell sweep of `probe`: its victim crashes the first time it
/// eats a twentieth into the run.
fn probe_sweep(cmd: &Probe) -> SweepSpec {
    let inst = &cmd.inst;
    let victim = victim_of(inst, cmd.victim);
    sweep_of(inst, &cmd.sim, &Mobility::Static).probe(victim, inst.horizon / 20)
}

/// The text of `probe`: its record `r` under a header of its arguments.
fn probe_text(cmd: &Probe, r: &RunReport) -> String {
    let mut s = format!(
        "crash probe: {} on {:?}, victim {} crashed mid-CS\n",
        cmd.inst.alg.name(),
        cmd.inst.topo,
        victim_of(&cmd.inst, cmd.victim)
    );
    let fired = r.crash_time.map(|t| t.to_string());
    let fired = fired.unwrap_or_else(|| "never (victim never ate)".to_string());
    s += &format!("  crash fired at    : {fired}\n");
    s += &format!("  safety violations : {}\n", r.violations);
    if r.starving_nodes.is_empty() {
        s += "  starvation        : none observed\n";
    } else {
        s += &format!("  starving nodes    : {:?}\n", r.starving_nodes);
        let locality = r.locality.map_or("none".to_string(), |m| m.to_string());
        s += &format!("  empirical locality: {locality}\n");
    }
    s
}

fn render_sweep(cmd: &Sweep) -> Result<String, String> {
    let Scenario {
        inst,
        sim,
        mobility,
    } = &cmd.scenario;
    let sweep = sweep_of(inst, sim, mobility)
        .kinds(cmd.algs.iter().copied())
        .seed_range(inst.seed, cmd.seeds);
    let jobs = cmd.jobs.unwrap_or_else(default_jobs);
    let report = sweep.run(jobs);
    emit_metrics(sim.metrics_out.as_ref(), &report)?;
    let violations = report.runs.iter().map(|r| r.violations).sum();
    verdict(&sweep.base, violations, sweep_text(cmd, jobs, &report))
}

/// The text of `sweep`: its records pooled per algorithm, under a header
/// of its arguments.
fn sweep_text(cmd: &Sweep, jobs: usize, report: &SweepReport) -> String {
    let Scenario { inst, sim, .. } = &cmd.scenario;
    let mut s = format!(
        "sweep: {} on {} (n = {}), seeds {}..{}, horizon {}, {} jobs\n",
        if cmd.algs.len() == 1 {
            cmd.algs[0].name()
        } else {
            "all algorithms"
        },
        inst.topo,
        inst.topo.len(),
        inst.seed,
        inst.seed + cmd.seeds,
        inst.horizon,
        jobs,
    );
    let mut table = Table::new(&[
        "algorithm",
        "runs",
        "static p50/p95/max",
        "meals",
        "msg/meal",
        "dropped send/flight",
        "unsafe",
    ]);
    for row in report.aggregate() {
        table.row([
            row.alg.to_string(),
            row.runs.to_string(),
            format!(
                "{}/{}/{}",
                row.rt_static.p50, row.rt_static.p95, row.rt_static.max
            ),
            row.meals.to_string(),
            format!("{:.1}", row.messages_per_meal()),
            format!("{}/{}", row.dropped_at_send, row.dropped_in_flight),
            row.violations.to_string(),
        ]);
    }
    s += &table.to_string();
    if let Some(path) = &sim.metrics_out {
        s += &format!("per-run metrics written to {path}\n");
    }
    s
}

/// The fixed fault matrix the `chaos` subcommand sweeps: one column per
/// fault class, crash and crash→recover first (matching the paper's fault
/// model), then the out-of-model link faults, then partition and the
/// ν-adversary. [`FaultClass::apply`] decides what each class does to a
/// run; sustained and burst loss arm the ARQ shim, the classes whose
/// liveness depends on reliable delivery.
const CHAOS_CLASSES: [FaultClass; 8] = [
    FaultClass::Crash,
    FaultClass::Recover,
    FaultClass::Loss(0.3),
    FaultClass::SustainedLoss(0.3),
    FaultClass::BurstLoss,
    FaultClass::Duplication(0.3),
    FaultClass::Partition,
    FaultClass::MaxDelay,
];

fn render_chaos(cmd: &Chaos) -> Result<String, String> {
    let sweeps = chaos_sweeps(cmd)?;
    let cells: Vec<SweepCell> = sweeps.iter().flat_map(SweepSpec::cells).collect();
    let report = run_cells(&cells, cmd.jobs.unwrap_or_else(default_jobs));
    emit_metrics(cmd.metrics_out.as_ref(), &report)?;
    let rows = report.aggregate();
    let mut s = chaos_text(cmd, &rows);
    for ((row, class), sweep) in rows.iter().zip(CHAOS_CLASSES).zip(&sweeps) {
        s = verdict(&sweep.base, row.violations, s)
            .map_err(|e| format!("{}: {e}", class.label()))?;
        // A class that arms the ARQ shim is survivable only through it; a
        // stall there means reliable delivery is broken, so the command
        // fails.
        if sweep.base.sim.arq.is_some() && row.starving > 0 {
            return Err(format!(
                "{} stalled: {} starving node-run(s) despite the ARQ shim\n{s}",
                class.label(),
                row.starving
            ));
        }
    }
    Ok(s)
}

/// The victim of `chaos` and the window `[strike, quiesce)` of its
/// faults: from a twentieth into the run to halfway through the rest.
fn chaos_fault(cmd: &Chaos) -> (NodeId, (u64, u64)) {
    let inst = &cmd.inst;
    let fault_at = (inst.horizon / 20).max(1);
    let quiesce = fault_at + (inst.horizon - fault_at) / 2;
    (victim_of(inst, cmd.victim), (fault_at, quiesce))
}

/// The sweep of each class of [`CHAOS_CLASSES`] over the seeds of `cmd`,
/// the class applied to its victim over its window.
fn chaos_sweeps(cmd: &Chaos) -> Result<[SweepSpec; 8], String> {
    let inst = &cmd.inst;
    if inst.topo.len() < 2 {
        return Err("chaos needs at least two nodes".to_string());
    }
    let (victim, window) = chaos_fault(cmd);
    let sweep = sweep_of(inst, &Sim::default(), &Mobility::Static);
    let sweep = sweep.seed_range(inst.seed, cmd.seeds);
    Ok(CHAOS_CLASSES.map(|class| {
        let mut sweep = sweep.clone();
        sweep.label = format!("{}/{}", inst.topo, class.label());
        class.apply(&mut sweep.base, victim, window);
        sweep
    }))
}

/// The text of `chaos`: its records pooled per class (`rows`), under a
/// header of its arguments.
fn chaos_text(cmd: &Chaos, rows: &[AggregateRow]) -> String {
    let inst = &cmd.inst;
    let (victim, (fault_at, quiesce)) = chaos_fault(cmd);
    // The job count is deliberately absent from the output: the chaos
    // report (and its JSONL) is byte-identical for every --jobs value.
    let mut s = format!(
        "chaos: {} on {} (n = {}), victim {victim}, seeds {}..{}, horizon {}\n\
         faults strike at {fault_at}, quiesce by {quiesce}\n",
        inst.alg.name(),
        inst.topo,
        inst.topo.len(),
        inst.seed,
        inst.seed + cmd.seeds,
        inst.horizon,
    );
    let mut table = Table::new(&[
        "fault class",
        "in-model",
        "runs",
        "meals",
        "faults",
        "unsafe",
        "starving",
        "locality",
    ]);
    for (row, class) in rows.iter().zip(CHAOS_CLASSES) {
        table.row([
            class.label().to_string(),
            if class.in_model() { "yes" } else { "no" }.to_string(),
            row.runs.to_string(),
            row.meals.to_string(),
            row.faults_injected.to_string(),
            row.violations.to_string(),
            row.starving.to_string(),
            row.locality
                .map_or_else(|| "-".to_string(), |d| d.to_string()),
        ]);
    }
    s += &table.to_string();
    if let Some(path) = &cmd.metrics_out {
        s += &format!("per-run metrics written to {path}\n");
    }
    s
}

fn check_spec_of(cmd: &Check) -> Result<CheckSpec, String> {
    let inst = cmd.asked.instance();
    let topo = inst.topo.topo();
    let edges = topo.edges(SimConfig::default().radio_range).into_owned();
    let mut spec = CheckSpec::new(inst.alg, inst.topo.to_string(), topo.len(), edges);
    spec.seed = inst.seed;
    spec.horizon = inst.horizon;
    spec.eat = inst.eat.0;
    spec.mutation = cmd.mutate.unwrap_or(Mutation::None);
    spec.liveness = cmd.liveness;
    spec.think = inst.think.0;
    spec.validate()?;
    Ok(spec)
}

/// The instance flags passed that contradict the instance a witness
/// records. A flag left out never conflicts: the witness is the authority
/// on its own instance.
fn witness_flag_conflicts(cmd: &Check, w: &Witness) -> Vec<String> {
    let asked = &cmd.asked;
    let text = |v: Option<u64>| v.map(|v| v.to_string());
    let run = |live| format!("a {} run", if live { "liveness" } else { "safety-only" });
    let topo = asked.topo.as_ref().map(TopoSpec::to_string);
    let think = asked.think.filter(|_| w.liveness).map(|t| t.0);
    let mutate = cmd.mutate.map(|m| m.name().to_string());
    let liveness = cmd.liveness.then(|| run(true));
    let flags = [
        ("--alg", asked.alg.map(|k| k.name().into()), w.alg.clone()),
        ("--topo", topo, w.topo.clone()),
        ("--seed", text(asked.seed), w.seed.to_string()),
        ("--horizon", text(asked.horizon), w.horizon.to_string()),
        ("--eat", text(asked.eat.map(|e| e.0)), w.eat.to_string()),
        ("--think", text(think), w.think.to_string()),
        ("--mutate", mutate, w.mutation.clone()),
        ("--liveness", liveness, run(w.liveness)),
    ];
    let conflicts = flags.into_iter().filter_map(|(flag, asked, recorded)| {
        let asked = asked.filter(|asked| *asked != recorded)?;
        Some(format!(
            "{flag} asks for {asked} but the witness records {recorded}"
        ))
    });
    conflicts.collect()
}

/// Replay a witness file: the rendered report (including the full trace) is
/// a pure function of the file, byte-identical across machines.
/// Instance flags passed that contradict the witness are a structured
/// error (exit 2), never silently ignored.
fn render_replay(cmd: &Check, path: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read witness {path}: {e}"))?;
    let witness = Witness::from_json(text.trim())?;
    let conflicts = witness_flag_conflicts(cmd, &witness);
    if !conflicts.is_empty() {
        return Err(format!(
            "replay: witness {path} conflicts with the command line:\n  {}\n\
             drop the conflicting flags or replay a matching witness",
            conflicts.join("\n  ")
        ));
    }
    let (_spec, verdict) = replay(&witness)?;
    let mut s = format!(
        "replay: {} on {} (n = {}), seed {}, mutation {}, {} recorded choices\n",
        witness.alg,
        witness.topo,
        witness.n,
        witness.seed,
        witness.mutation,
        witness.choices.len(),
    );
    match &verdict.violation {
        Some(v) if v.property == witness.property && v.detail == witness.detail => {
            s.push_str(&format!("  violation reproduced: {}\n", v.property));
            s.push_str(&format!("  detail              : {}\n", v.detail));
        }
        Some(v) => {
            s.push_str(&format!(
                "  MISMATCH: witness claims '{}' ({}) but replay found '{}' ({})\n",
                witness.property, witness.detail, v.property, v.detail
            ));
        }
        None => {
            s.push_str(&format!(
                "  MISMATCH: witness claims '{}' but replay found no violation\n",
                witness.property
            ));
        }
    }
    s.push_str(&format!(
        "  meals {}, drained {}, trace ({} entries):\n",
        verdict.meals,
        verdict.drained,
        verdict.trace.len()
    ));
    for entry in &verdict.trace {
        s.push_str(&format!("    t={:<6} {:?}\n", entry.at.0, entry.kind));
    }
    Ok(s)
}

fn render_check(cmd: &Check) -> Result<String, String> {
    let (strategy, jobs, witness_out) = match &cmd.mode {
        CheckMode::Replay { path } => return render_replay(cmd, path),
        CheckMode::Certify { steps, jobs, out } => return render_certify(cmd, *steps, *jobs, out),
        CheckMode::Explore {
            strategy,
            jobs,
            witness_out,
        } => (*strategy, *jobs, witness_out),
    };
    let spec = check_spec_of(cmd)?;
    let cfg = explore_config(strategy, jobs);
    let result = explore(&spec, &cfg);
    if let (Some(w), Some(path)) = (&result.witness, witness_out) {
        std::fs::write(path, w.to_json() + "\n")
            .map_err(|e| format!("cannot write witness to {path}: {e}"))?;
    }
    Ok(check_text(&spec, &cfg, &result, witness_out.as_ref()))
}

/// How `check` explores: `strategy` over `jobs` workers (default 1).
fn explore_config(strategy: Strategy, jobs: Option<usize>) -> ExploreConfig {
    let mut cfg = ExploreConfig {
        jobs: jobs.unwrap_or(1),
        ..ExploreConfig::default()
    };
    (cfg.strategy, cfg.max_schedules) = match strategy {
        Strategy::Dfs { steps, depth } => {
            cfg.max_depth = depth;
            (StrategyKind::Dfs, steps)
        }
        Strategy::Random { walks } => (StrategyKind::Random, walks),
        Strategy::Pct { walks } => (StrategyKind::Pct, walks),
    };
    cfg
}

/// The text of `check`: its `result` under a header of its arguments,
/// naming the file the witness was written to.
fn check_text(
    spec: &CheckSpec,
    cfg: &ExploreConfig,
    result: &Exploration,
    witness_out: Option<&String>,
) -> String {
    let mut s = format!(
        "check: {} on {} (n = {}), strategy {}, seed {}, mutation {}\n",
        spec.alg.name(),
        spec.topo,
        spec.n,
        cfg.strategy.name(),
        spec.seed,
        spec.mutation.name(),
    );
    if spec.liveness {
        s += &format!("  liveness workload : recycling (think {})\n", spec.think);
    }
    let space = match (result.complete, cfg.strategy) {
        (false, _) => " (budget exhausted before the space)",
        (true, StrategyKind::Dfs) => " (bounded schedule space exhausted)",
        (true, _) => " (all requested walks)",
    };
    s += &format!("  schedules run     : {}{space}\n", result.schedules);
    s += &format!("  max branch points : {}\n", result.max_branch_points);
    if cfg.strategy == StrategyKind::Dfs {
        s += &format!("  dedup prunes      : {}\n", result.dedup_prunes);
        s += &format!("  dpor prunes       : {}\n", result.dpor_prunes);
    }
    match &result.witness {
        None => s += "  result            : no property violations\n",
        Some(w) => {
            s += &format!("  result            : VIOLATION {}\n", w.property);
            s += &format!("  detail            : {}\n", w.detail);
            s += &format!(
                "  shrunk witness    : {} choices, {} hungry nodes ({} shrink replays)\n",
                w.choices.len(),
                w.hungry.len(),
                result.shrink_runs
            );
            if let Some(path) = witness_out {
                s += &format!("  witness written to: {path}\n");
            }
        }
    }
    s
}

/// `lme check --certify`: exhaust the extremal schedule space and report
/// the exact worst-case response time as a machine-readable certificate.
fn render_certify(
    cmd: &Check,
    steps: Option<usize>,
    jobs: Option<usize>,
    out: &Option<String>,
) -> Result<String, String> {
    let spec = check_spec_of(cmd)?;
    let default = CertifyConfig::default();
    let cfg = CertifyConfig {
        max_schedules: steps.unwrap_or(default.max_schedules),
        jobs: jobs.unwrap_or(1),
        ..default
    };
    let cert = certify(&spec, &cfg);
    if let Some(path) = out {
        std::fs::write(path, cert.to_json() + "\n")
            .map_err(|e| format!("cannot write certificate to {path}: {e}"))?;
    }
    let s = certify_text(&cert, out.as_ref());
    // A void certificate certifies nothing: a script must not read it as a
    // pass.
    if !cert.holds() {
        return Err(format!("the certificate is void\n{s}"));
    }
    Ok(s)
}

/// The text of `check --certify`: the certificate, naming the file it was
/// written to.
fn certify_text(cert: &Certificate, out: Option<&String>) -> String {
    let mut s = format!(
        "certify: {} on {} (n = {}), seed {}, nu {}, eat {}, horizon {}\n",
        cert.alg, cert.topo, cert.n, cert.seed, cert.nu, cert.eat, cert.horizon,
    );
    let space = if cert.complete {
        " (extremal schedule space exhausted)"
    } else {
        " (budget exhausted before the space)"
    };
    s += &format!("  schedules run     : {}{space}\n", cert.schedules);
    s += &format!("  max branch points : {}\n", cert.max_branch_points);
    s += &format!("  dedup prunes      : {}\n", cert.dedup_prunes);
    if let Some(v) = &cert.violation {
        s += &format!("  VIOLATION         : {v}\n");
    }
    if cert.unfed_runs > 0 {
        s += &format!("  unfed runs        : {}\n", cert.unfed_runs);
    }
    if cert.holds() {
        s += &format!(
            "  worst response    : {} ticks (node {}, over {} branch delays)\n",
            cert.worst_rt,
            cert.worst_rt_node,
            cert.worst_schedule.len(),
        );
        // The CLI always certifies with dedup, which can prune the worst
        // case (ROADMAP item 1).
        s += "  certificate       : holds (a lower bound on the extremal worst case)\n";
    } else {
        s += "  certificate       : VOID (see above)\n";
    }
    if let Some(path) = out {
        s += &format!("  certificate written to: {path}\n");
    }
    s
}

/// The config of one live cell: `alg` on `topo`, with `--moves`
/// random waypoints pushed by the driver as teleports.
fn live_cell(cmd: &Live, alg: AlgKind, topo: &TopoSpec) -> Result<LiveConfig, String> {
    // The driver moves and crashes nodes in space: live runs need a geometry.
    let Topo::Geo(positions) = topo.topo() else {
        return Err(format!("live runs need a geometric topology, not {topo}"));
    };
    let mut cfg = LiveConfig {
        alg,
        positions,
        ..cmd.cfg.clone()
    };
    let n = cfg.positions.len();
    if cmd.moves > 0 {
        let plan = WaypointPlan {
            area_side: (n as f64 / 1.6).sqrt().max(2.0),
            moves: cmd.moves,
            window: (cfg.duration_ms / 10, (cfg.duration_ms * 9 / 10).max(1)),
            speed: None,
            seed: cfg.seed ^ 0xB0B,
        };
        let teleports = plan.commands(n).into_iter();
        cfg.commands.extend(teleports.map(|(t, cmd)| (t.0, cmd)));
    }
    Ok(cfg)
}

/// Render a pooled hungry→eat latency summary in milliseconds.
fn fmt_latency_ms(s: &Summary) -> String {
    if s.count == 0 {
        return "n=0".to_string();
    }
    format!(
        "n={} p50={:.2} p95={:.2} max={:.2} ms",
        s.count,
        s.p50 as f64 / 1e6,
        s.p95 as f64 / 1e6,
        s.max as f64 / 1e6
    )
}

fn render_live(cmd: &Live) -> Result<String, String> {
    let Some(cell) = &cmd.cell else {
        return render_live_matrix(cmd);
    };
    let cfg = live_cell(cmd, cmd.cfg.alg, &cell.topo)?;
    let out = run_live(&cfg)?;
    let conformance = cell.conformance.then(|| conformance_replay(&cfg, &out));
    let conformance = conformance.transpose()?;
    let s = live_text(cell, &cfg, &out, conformance.as_ref());
    if conformance.is_some_and(|report| !report.conforms()) {
        return Err(format!("conformance replay diverged\n{s}"));
    }
    // Live links are reliable, so every live run is in the model: any
    // violation fails the command, as in `--matrix`.
    if !out.violations.is_empty() {
        let count = out.violations.len();
        return Err(format!("{count} safety violation(s) in a live run\n{s}"));
    }
    Ok(s)
}

/// The text of one `live` cell: its outcome, and its conformance replay
/// when asked, under a header of its arguments.
fn live_text(
    cell: &LiveCell,
    cfg: &LiveConfig,
    out: &LiveOutcome,
    conformance: Option<&ConformanceReport>,
) -> String {
    let mut s = format!(
        "live: {} over {} on {} (n = {}), {} ms, rate {}/s, seed {}, {} runtime{}\n",
        cfg.alg.name(),
        cfg.transport.name(),
        cell.topo,
        cell.topo.len(),
        out.elapsed_ms,
        cfg.rate,
        cfg.seed,
        cfg.runtime.name(),
        if cfg.closed_loop { ", closed loop" } else { "" },
    );
    s += &format!("  safety violations : {}\n", out.violations.len());
    s += &format!(
        "  verdict lag       : {} ms after the run\n",
        out.verdict_ms
    );
    s += &format!(
        "  eating sessions   : {} ({:.1}/s)\n",
        out.total_meals(),
        out.sessions_per_sec()
    );
    let lat = Summary::of(&out.latencies_ns);
    s += &format!("  hungry→eat        : {}\n", fmt_latency_ms(&lat));
    s += &format!(
        "  messages          : {} sent, {} delivered, {} decode errors, \
         {} send failures\n",
        out.messages_sent, out.messages_delivered, out.decode_errors, out.send_failures
    );
    if cfg.reliable || cfg.schedules(|c| matches!(c, SimCommand::Recover(_))) {
        s += &format!(
            "  reliability       : {} retransmissions, {} acks, {} recoveries\n",
            out.retransmissions, out.acks_sent, out.recoveries
        );
    }
    s += &format!(
        "  timer wakes       : {}, mean {:.1} µs past their tick\n",
        out.timer_wakes,
        out.timer_late_ns as f64 / out.timer_wakes.max(1) as f64 / 1e3
    );
    s += &format!(
        "  threads joined    : {}/{}\n",
        out.threads_joined,
        cell.topo.len()
    );
    if let Some(report) = conformance {
        s += &format!(
            "  conformance       : {} delays imported, sim census {:?} vs live {:?}, \
             {} sim violations\n",
            report.imported_delays, report.sim_census, report.live_census, report.sim_violations
        );
        if report.conforms() {
            s += "  conformance       : PASS (replay safe, census match)\n";
        }
    }
    s
}

/// The fixed algorithm × topology acceptance matrix: every algorithm over
/// a clique and a ring, each cell validated by the safety monitor.
/// Nonzero exit on any violation.
fn render_live_matrix(cmd: &Live) -> Result<String, String> {
    let topos = [TopoSpec::Clique(5), TopoSpec::Ring(6)];
    let cfg = &cmd.cfg;
    let algs = AlgKind::extended();
    let crashes = cfg.schedules(|c| matches!(c, SimCommand::Crash(_)));
    let mut s = format!(
        "live matrix: {} algorithms x {} topologies{} over {} ({} runtime), \
         {} ms per cell, rate {}/s, seed {}\n",
        algs.len(),
        topos.len(),
        if crashes { " + crash" } else { "" },
        cfg.transport.name(),
        cfg.runtime.name(),
        cfg.duration_ms,
        cfg.rate,
        cfg.seed,
    );
    let mut table = Table::new(&[
        "algorithm",
        "topology",
        "meals",
        "sessions/s",
        "hungry→eat p95",
        "delivered",
        "unsafe",
        "joined",
    ]);
    let mut bad_cells = 0;
    for alg in algs {
        for topo in &topos {
            let cfg = live_cell(cmd, alg, topo)?;
            let n = cfg.positions.len();
            let out = run_live(&cfg)?;
            let lat = Summary::of(&out.latencies_ns);
            if !out.violations.is_empty() || out.threads_joined != n {
                bad_cells += 1;
            }
            table.row([
                alg.name().to_string(),
                topo.to_string(),
                out.total_meals().to_string(),
                format!("{:.1}", out.sessions_per_sec()),
                format!("{:.2} ms", lat.p95 as f64 / 1e6),
                out.messages_delivered.to_string(),
                out.violations.len().to_string(),
                format!("{}/{n}", out.threads_joined),
            ]);
        }
    }
    s.push_str(&table.to_string());
    if bad_cells > 0 {
        return Err(format!(
            "{bad_cells} live matrix cell(s) violated safety or leaked threads\n{s}"
        ));
    }
    s.push_str(&format!(
        "matrix: all {} cells safe, all threads joined\n",
        algs.len() * topos.len()
    ));
    Ok(s)
}

/// `lme experiments`: the blocks of the asked ids (all by default), or with
/// `--out` spliced into that document, its `figures/` redrawn beside it.
fn render_experiments(cmd: &Experiments) -> Result<String, String> {
    let mut ids = cmd.ids.clone();
    if ids.is_empty() {
        ids = experiments::ids();
    }
    let jobs = cmd.jobs.unwrap_or_else(default_jobs);
    let report = experiments::run_ids(&ids, cmd.quick, jobs, &experiments::commit());
    let mut s: String = report
        .blocks
        .iter()
        .map(|(_, b)| format!("{b}\n\n"))
        .collect();
    if let Some(out) = &cmd.out {
        let path = Path::new(out);
        let doc = match std::fs::read_to_string(path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("cannot read {out}: {e}"))
            }
            doc => experiments::splice(&doc.unwrap_or_default(), &report.blocks),
        };
        std::fs::write(path, doc).map_err(|e| format!("cannot write {out}: {e}"))?;
        s = format!("rewrote {} block(s) of {out}\n", report.blocks.len());
        let dir = path.parent().unwrap_or(Path::new(".")).join("figures");
        for (name, svg) in &report.figures {
            let file = dir.join(name);
            let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, svg));
            written.map_err(|e| format!("cannot write {}: {e}", file.display()))?;
            s += &format!("wrote {}\n", file.display());
        }
    }
    if report.failures.is_empty() {
        return Ok(s);
    }
    let (count, failures) = (report.failures.len(), report.failures.join("\n  "));
    Err(format!("{count} expectation(s) failed:\n  {failures}\n{s}"))
}

/// Execute a parsed command and return the rendered report.
///
/// # Errors
///
/// Returns a diagnostic on unsupported combinations.
pub fn execute(cmd: &Command) -> Result<String, String> {
    match cmd {
        Command::List => {
            let mut s = String::from("algorithms:\n");
            for k in AlgKind::extended() {
                s.push_str(&format!(
                    "  {:<14} FL {:<22} RT {}\n",
                    k.name(),
                    k.paper_failure_locality(),
                    k.paper_response_time()
                ));
            }
            s.push('\n');
            s.push_str(USAGE);
            Ok(s)
        }
        Command::Run(cmd) => render_run(cmd),
        Command::Probe(cmd) => render_probe(cmd),
        Command::Sweep(cmd) => render_sweep(cmd),
        Command::Chaos(cmd) => render_chaos(cmd),
        Command::Check(cmd) => render_check(cmd),
        Command::Live(cmd) => render_live(cmd),
        Command::Experiments(cmd) => render_experiments(cmd),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_cli;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn unwritable_output_paths_are_errors_not_panics() {
        // `run --metrics-out` and `experiments --out` both surface write
        // failures as Err (main exits 2), never a panic.
        let err = run_cli(argv(
            "run --alg a2 --topo line:3 --horizon 5000 --metrics-out /nonexistent-dir/m.json",
        ))
        .unwrap_err();
        assert!(err.contains("cannot write"), "{err}");
        let err = run_cli(argv(
            "experiments --quick C4 --out /nonexistent-dir/EXPERIMENTS.md",
        ))
        .unwrap_err();
        assert!(err.contains("cannot write"), "{err}");
    }

    #[test]
    fn live_sharded_runs_safe_and_renders() {
        let out = run_cli(argv(
            "live --alg a2 --topo clique:4 --workers 2 \
             --duration 300 --rate 40 --eat-ms 1 --closed-loop --seed 5",
        ))
        .unwrap();
        assert!(out.contains("sharded runtime"), "{out}");
        assert!(out.contains("closed loop"), "{out}");
        assert!(out.contains("safety violations : 0"), "{out}");
        assert!(out.contains("timer wakes       : "), "{out}");
        assert!(out.contains("threads joined    : 4/4"), "{out}");
        // The reliable shim and crash recovery run at any worker count.
        let out = run_cli(argv(
            "live --alg a2 --topo clique:4 --reliable --victim 0 --recover 180 --duration 500",
        ))
        .unwrap();
        assert!(out.contains("safety violations : 0"), "{out}");
        assert!(out.contains("1 recoveries"), "{out}");
    }

    #[test]
    fn bench_live_scale_rows_are_one_per_rung_with_net_stats() {
        // L1, the live rows and ring ladder that replaced `bench live`:
        // one row per algorithm plus one per rung, each with its spread.
        let out = run_cli(argv("experiments --quick L1")).unwrap();
        assert!(out.starts_with("<!-- experiments:L1 -->\n_`lme experiments --quick L1`"));
        let rows = |topo: &str| out.lines().filter(|l| l.contains(topo)).count();
        assert_eq!(
            (rows(" | clique:5 |"), rows(" | ring:100 |")),
            (6, 1),
            "{out}"
        );
        let rung = out.lines().find(|l| l.contains(" | ring:100 |")).unwrap();
        assert!(
            rung.starts_with("| A2 |") && rung.ends_with(" | 0 |"),
            "{out}"
        );
        let live = |l: &&str| l.contains(" | clique:5 |") || l.contains(" | ring:100 |");
        assert!(out.lines().filter(live).all(|r| r.contains('–')), "{out}");
    }

    #[test]
    fn list_shows_all_algorithms() {
        let out = run_cli(argv("list")).unwrap();
        for name in [
            "a1-greedy",
            "a1-linial",
            "a1-random",
            "a2",
            "chandy-misra",
            "choy-singh",
        ] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
    }

    #[test]
    fn run_reports_liveness_on_a_line() {
        let out = run_cli(argv("run --alg a2 --topo line:5 --horizon 15000")).unwrap();
        assert!(out.contains("safety violations : 0"), "{out}");
        assert!(out.contains("starvation        : none"), "{out}");
    }

    #[test]
    fn run_supports_explicit_stars() {
        let out = run_cli(argv("run --alg a1-greedy --topo star:6 --horizon 15000")).unwrap();
        assert!(out.contains("safety violations : 0"), "{out}");
    }

    #[test]
    fn run_csv_emits_samples() {
        let out = run_cli(argv("run --alg a2 --topo line:3 --horizon 5000 --csv")).unwrap();
        let mut lines = out.lines();
        assert_eq!(
            lines.next(),
            Some("node,hungry_at,eat_at,response,moved,msgs")
        );
        assert!(lines.count() > 10);
    }

    #[test]
    fn probe_reports_locality() {
        let out = run_cli(argv(
            "probe --alg chandy-misra --topo line:9 --horizon 30000",
        ))
        .unwrap();
        assert!(out.contains("crash probe"), "{out}");
        assert!(out.contains("crash fired at"), "{out}");
    }

    #[test]
    fn probe_reports_locality_on_explicit_graphs() {
        // A hub crashed mid-CS holds every leaf's fork: all six leaves
        // starve, one hop away.
        let out = run_cli(argv("probe --topo star:6 --victim 0 --horizon 20000")).unwrap();
        assert!(out.contains("victim p0 crashed mid-CS"), "{out}");
        assert!(out.contains("empirical locality: 1"), "{out}");
    }

    #[test]
    fn live_runs_choy_singh_and_refuses_explicit_graphs() {
        let out = run_cli(argv(
            "live --alg choy-singh --topo ring:5 --oneshot --conformance --eat-ms 1",
        ))
        .unwrap();
        assert!(out.contains("safety violations : 0"), "{out}");
        assert!(out.contains("conformance       : PASS"), "{out}");
        // The live driver owns positions; an explicit graph is refused,
        // not a panic.
        let err = run_cli(argv("live --topo tree:7 --duration 100")).unwrap_err();
        assert!(err.contains("geometric topology"), "{err}");
    }

    #[test]
    fn sweep_aggregates_and_is_jobs_invariant() {
        let a = run_cli(argv(
            "sweep --alg a2 --topo line:4 --horizon 6000 --seeds 3 --jobs 1",
        ))
        .unwrap();
        let b = run_cli(argv(
            "sweep --alg a2 --topo line:4 --horizon 6000 --seeds 3 --jobs 4",
        ))
        .unwrap();
        // The rendered report names its job count; everything else must
        // be byte-identical.
        assert_eq!(a.replace("1 jobs", "N jobs"), b.replace("4 jobs", "N jobs"));
        assert!(a.contains("runs"), "{a}");
        assert!(a.contains("A2"), "{a}");
    }

    #[test]
    fn sweep_writes_metrics_jsonl() {
        let dir = std::env::temp_dir().join("lme-cli-test-metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.jsonl");
        let out = run_cli(argv(&format!(
            "sweep --alg chandy-misra --topo line:3 --horizon 4000 --seeds 2 --metrics-out {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("per-run metrics written"), "{out}");
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written.lines().count(), 2);
        assert!(written.starts_with("{\"label\":\"line:3\",\"alg\":\"chandy-misra\",\"seed\":"));
        std::fs::remove_file(&path).ok();
    }

    /// `run` is the one cell of `sweep --seeds 1`: both write the same
    /// record, byte for byte, under link faults (whose four starving nodes
    /// the text lists and the record counts), ARQ with a crash → recover
    /// cycle, either mobility model, and burst loss.
    #[test]
    fn run_metrics_count_the_starving_nodes_its_text_lists() {
        let dir = std::env::temp_dir().join("lme-cli-test-metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = |cmd: &str, spec: &str, file: &str| {
            let path = dir.join(file);
            let out = run_cli(argv(&format!(
                "{cmd} {spec} --metrics-out {}",
                path.display()
            )))
            .unwrap();
            let written = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).ok();
            (out, written)
        };
        let specs = [
            "--alg a2 --topo line:5 --horizon 8000 --seed 42 --fault-drop 0.5 --fault-targets 2",
            "--alg a2 --topo line:5 --horizon 12000 --arq --victim 2 --recover 6000",
            "--alg a1-greedy --topo random:12:3 --moves 4 --horizon 12000",
            "--alg a2 --topo random:12:3 --mix 0.5:0.25 --channel bandwidth:2 --horizon 12000",
            "--alg a2 --topo ring:5 --channel gilbert:0.05:0.25 --arq --horizon 8000",
        ];
        for (i, spec) in specs.into_iter().enumerate() {
            let (text, run) = jsonl("run", spec, "run-starving.jsonl");
            let (_, sweep) = jsonl("sweep --seeds 1", spec, "sweep-starving.jsonl");
            assert_eq!(run, sweep, "{spec}");
            if i == 0 {
                assert!(
                    text.contains("starvation        : [p1, p2, p3, p4]"),
                    "{text}"
                );
                assert!(run.contains("\"starving\":4,"), "{run}");
            }
        }
    }

    #[test]
    fn run_with_fault_flags_stays_safe() {
        let out = run_cli(argv(
            "run --alg a2 --topo line:5 --horizon 10000 --fault-drop 0.2 \
             --fault-dup 0.2 --fault-window 500..4000 --fault-targets 2",
        ))
        .unwrap();
        assert!(out.contains("safety violations : 0"), "{out}");
    }

    #[test]
    fn run_rejects_partition_without_targets_side() {
        // Parser-level: partition needs a side.
        assert!(crate::args::parse(argv("run --fault-partition 10..20")).is_err());
    }

    #[test]
    fn sweep_accepts_fault_flags() {
        let out = run_cli(argv(
            "sweep --alg a2 --topo line:4 --horizon 6000 --seeds 2 \
             --fault-delay --fault-targets 1",
        ))
        .unwrap();
        assert!(out.contains("A2"), "{out}");
    }

    #[test]
    fn chaos_reports_every_fault_class() {
        let out = run_cli(argv(
            "chaos --alg a2 --topo line:5 --horizon 8000 --seeds 2",
        ))
        .unwrap();
        for class in [
            "crash",
            "recover",
            "windowed-loss",
            "sustained-loss",
            "burst-loss",
            "windowed-duplication",
            "partition",
            "max-delay",
        ] {
            assert!(out.contains(class), "missing {class} in:\n{out}");
        }
        assert!(out.contains("in-model"), "{out}");
    }

    #[test]
    fn run_with_arq_and_recover_stays_safe() {
        let out = run_cli(argv(
            "run --alg a2 --topo line:5 --horizon 12000 --arq --victim 2 --recover 6000",
        ))
        .unwrap();
        assert!(out.contains("safety violations : 0"), "{out}");
        assert!(out.contains("arq shim"), "{out}");
        assert!(out.contains("recoveries        : 1"), "{out}");
    }

    #[test]
    fn chaos_jsonl_is_byte_identical_across_job_counts() {
        let dir = std::env::temp_dir().join("lme-cli-test-chaos");
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("j1.jsonl");
        let p4 = dir.join("j4.jsonl");
        let a = run_cli(argv(&format!(
            "chaos --alg a2 --topo line:5 --horizon 6000 --seed 11 --seeds 2 \
             --jobs 1 --metrics-out {}",
            p1.display()
        )))
        .unwrap();
        let b = run_cli(argv(&format!(
            "chaos --alg a2 --topo line:5 --horizon 6000 --seed 11 --seeds 2 \
             --jobs 4 --metrics-out {}",
            p4.display()
        )))
        .unwrap();
        // Neither the rendered report nor the JSONL may depend on --jobs.
        assert_eq!(
            a.replace(&p1.display().to_string(), "<out>"),
            b.replace(&p4.display().to_string(), "<out>")
        );
        let j1 = std::fs::read(&p1).unwrap();
        let j4 = std::fs::read(&p4).unwrap();
        assert!(!j1.is_empty());
        assert_eq!(j1, j4, "chaos JSONL must be byte-identical across --jobs");
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p4).ok();
    }

    #[test]
    fn chaos_rejects_manual_fault_flags() {
        assert!(run_cli(argv("chaos --topo line:5 --fault-drop 0.5")).is_err());
        // The channel belongs to chaos too (burst-loss arms it).
        assert!(run_cli(argv("chaos --topo line:5 --channel bandwidth:2")).is_err());
    }

    #[test]
    fn run_under_every_channel_model_stays_safe() {
        for channel in ["bandwidth:2", "shared:2", "gilbert:0.05:0.25"] {
            let arq = if channel.starts_with("gilbert") {
                " --arq"
            } else {
                ""
            };
            let out = run_cli(argv(&format!(
                "run --alg a2 --topo ring:5 --horizon 8000 --channel {channel}{arq}"
            )))
            .unwrap();
            assert!(out.contains("safety violations : 0"), "{channel}: {out}");
        }
    }

    #[test]
    fn sweep_with_mix_is_jobs_invariant() {
        let a = run_cli(argv(
            "sweep --alg a2 --topo random:10:3 --horizon 6000 --seeds 2 --mix 0.5:0.25 --jobs 1",
        ))
        .unwrap();
        let b = run_cli(argv(
            "sweep --alg a2 --topo random:10:3 --horizon 6000 --seeds 2 --mix 0.5:0.25 --jobs 4",
        ))
        .unwrap();
        assert_eq!(a.replace("1 jobs", "N jobs"), b.replace("4 jobs", "N jobs"));
        assert!(a.contains("A2"), "{a}");
    }

    #[test]
    fn bench_channel_writes_the_matrix() {
        // CH, the channel matrix that replaced `bench channel`, spliced
        // into a document between its markers, prose around it kept.
        let dir = std::env::temp_dir().join("lme-cli-test-experiments-ch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("EXPERIMENTS.md");
        let (open, close) = ("<!-- experiments:CH -->", "<!-- /experiments:CH -->");
        std::fs::write(&path, format!("# prose\n{open}\nstale\n{close}\nafter\n")).unwrap();
        let out = run_cli(argv(&format!(
            "experiments --quick CH --out {}",
            path.display()
        )));
        assert!(out.unwrap().starts_with("rewrote 1 block(s)"));
        let doc = std::fs::read_to_string(&path).unwrap();
        let (head, tail) = (format!("# prose\n{open}\n"), format!("{close}\nafter\n"));
        assert!(doc.starts_with(&head) && doc.ends_with(&tail), "{doc}");
        assert!(!doc.contains("stale"), "{doc}");
        let models = [
            "iid",
            "constant-bandwidth",
            "shared-medium",
            "gilbert-elliott",
        ];
        for (model, topo) in models.iter().flat_map(|m| [(m, "clique:8"), (m, "ring:8")]) {
            assert!(doc.contains(&format!("| {model} | {topo} |")), "{doc}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_intact_algorithm_is_clean() {
        let out = run_cli(argv(
            "check --alg a1-greedy --nodes 2 --steps 64 --depth 6 --horizon 4000",
        ))
        .unwrap();
        assert!(out.contains("no property violations"), "{out}");
        assert!(out.contains("strategy dfs"), "{out}");
    }

    #[test]
    fn check_finds_the_mutation_and_replays_it_jobs_invariant() {
        // Exploration reads --jobs: the shrunk witness it writes must be
        // byte-identical at any worker count. Replay reads no --jobs.
        let dir = std::env::temp_dir().join("lme-cli-test-check");
        std::fs::create_dir_all(&dir).unwrap();
        let explore = |jobs: usize| {
            let path = dir.join(format!("witness-j{jobs}.json"));
            let out = run_cli(argv(&format!(
                "check --alg a1-greedy --topo line:3 --mutate no-sdf-guard \
                 --horizon 4000 --jobs {jobs} --witness-out {}",
                path.display()
            )))
            .unwrap();
            assert!(out.contains("VIOLATION lme-safety"), "{out}");
            assert!(out.contains("witness written to"), "{out}");
            path
        };
        let (p1, p4) = (explore(1), explore(4));
        let w1 = std::fs::read(&p1).unwrap();
        assert!(!w1.is_empty());
        assert_eq!(
            w1,
            std::fs::read(&p4).unwrap(),
            "witness must not depend on --jobs"
        );
        let a = run_cli(argv(&format!("check --replay {}", p1.display()))).unwrap();
        assert!(a.contains("violation reproduced: lme-safety"), "{a}");
        assert!(a.contains("trace ("), "{a}");
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p4).ok();
    }

    #[test]
    fn check_sampling_strategies_run_via_the_cli() {
        for strategy in ["random", "pct"] {
            let out = run_cli(argv(&format!(
                "check --alg a2 --nodes 3 --strategy {strategy} --seeds 2 --horizon 4000",
            )))
            .unwrap();
            assert!(out.contains("no property violations"), "{strategy}: {out}");
            assert!(out.contains("(all requested walks)"), "{strategy}: {out}");
        }
    }

    #[test]
    fn check_rejects_mutation_on_non_a1_algorithms() {
        assert!(run_cli(argv("check --alg a2 --nodes 2 --mutate no-sdf-guard")).is_err());
    }

    #[test]
    fn check_replay_rejects_conflicting_flags_with_a_structured_error() {
        let dir = std::env::temp_dir().join("lme-cli-test-replay-conflict");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("witness.json");
        run_cli(argv(&format!(
            "check --alg a1-greedy --topo line:3 --mutate no-sdf-guard \
             --horizon 4000 --witness-out {}",
            path.display()
        )))
        .unwrap();
        // Explicit flags that MATCH the witness replay fine.
        let ok = run_cli(argv(&format!(
            "check --alg a1-greedy --horizon 4000 --replay {}",
            path.display()
        )))
        .unwrap();
        assert!(ok.contains("violation reproduced: lme-safety"), "{ok}");
        // Conflicting flags are a structured error naming each flag.
        let err =
            run_cli(argv(&format!("check --alg a2 --replay {}", path.display()))).unwrap_err();
        assert!(err.contains("--alg"), "{err}");
        assert!(err.contains("witness"), "{err}");
        let err = run_cli(argv(&format!(
            "check --topo line:4 --seed 99 --replay {}",
            path.display()
        )))
        .unwrap_err();
        assert!(err.contains("--topo") && err.contains("--seed"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_replay_survives_an_absurd_nu_in_the_witness() {
        let dir = std::env::temp_dir().join("lme-cli-test-replay-nu");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("witness.json");
        run_cli(argv(&format!(
            "check --alg a1-greedy --topo line:3 --mutate no-sdf-guard \
             --horizon 4000 --witness-out {}",
            path.display()
        )))
        .unwrap();
        let witness = std::fs::read_to_string(&path).unwrap();
        assert!(witness.contains("\"nu\":10,"), "{witness}");
        // ν sizes the engine's event queue; a witness is outside input, so
        // any value must end in a verdict or a structured error — 2^62
        // used to panic with `capacity overflow`.
        for nu in ["4611686018427387904", "18446744073709551615"] {
            std::fs::write(
                &path,
                witness.replace("\"nu\":10,", &format!("\"nu\":{nu},")),
            )
            .unwrap();
            match run_cli(argv(&format!("check --replay {}", path.display()))) {
                Ok(out) => assert!(out.contains("violation reproduced"), "{out}"),
                Err(err) => assert!(err.contains("nu"), "{err}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_certify_writes_a_holding_certificate() {
        let dir = std::env::temp_dir().join("lme-cli-test-certify");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cert.json");
        let out = run_cli(argv(&format!(
            "check --alg a2 --topo line:2 --certify --horizon 300 --out {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("extremal schedule space exhausted"), "{out}");
        assert!(out.contains("certificate       : holds"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"holds\":true"), "{json}");
        assert!(json.contains("\"space\":\"extremal\""), "{json}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_liveness_lasso_is_found_for_the_unfair_fork_mutation_only() {
        let starved = run_cli(argv(
            "check --alg a2 --topo clique:3 --mutate unfair-fork --liveness \
             --think 10..10 --steps 8 --horizon 4000",
        ))
        .unwrap();
        assert!(starved.contains("VIOLATION starvation-lasso"), "{starved}");
        let intact = run_cli(argv(
            "check --alg a2 --topo clique:3 --liveness --think 10..10 \
             --steps 8 --horizon 4000",
        ))
        .unwrap();
        assert!(intact.contains("no property violations"), "{intact}");
    }

    #[test]
    fn mobile_run_stays_safe() {
        // The second line is CI's heterogeneous-mix smoke.
        for line in [
            "run --alg a1-linial --topo random:12:3 --moves 4 --horizon 12000",
            "run --alg a2 --topo random:12:3 --horizon 12000 --channel bandwidth:2 --mix 0.5:0.25",
        ] {
            let out = run_cli(argv(line)).unwrap();
            assert!(out.contains("safety violations : 0"), "{out}");
        }
    }

    /// Known failure, pinned until ROADMAP item 15 flips it: the live audit
    /// flags a mover that the simulator does not, so this run reports
    /// violations, and a violation in a live run exits 2. Once item 15
    /// lands it reports 0 and exits 0.
    #[test]
    fn live_movers_fail_the_command_until_item_15() {
        let err = run_cli(argv(
            "live --alg a2 --topo random:24 --moves 20 --duration 1500 --rate 40 --eat-ms 1",
        ))
        .expect_err("the live mover audit of ROADMAP item 15 is fixed");
        let count = err.split(' ').next().and_then(|n| n.parse::<usize>().ok());
        assert!(count.is_some_and(|n| n > 0), "{err}");
        assert!(err.contains("safety violation(s) in a live run"), "{err}");
        assert!(err.contains(&format!("safety violations : {}\n", count.unwrap())));
    }

    /// The numbers in `line`: every word between white space and
    /// `,;()[]/:` that is a number, `key=number`, or a node name `pN` (as
    /// `N`).
    fn line_numbers(line: &str) -> impl Iterator<Item = &str> {
        let words = line.split(|c: char| c.is_whitespace() || ",;()[]/:".contains(c));
        words.filter_map(|word| {
            let word = word.rsplit('=').next().unwrap_or(word);
            let node = word
                .strip_prefix('p')
                .filter(|id| id.parse::<u32>().is_ok());
            let word = node.unwrap_or(word);
            word.parse::<f64>().is_ok().then_some(word)
        })
    }

    /// The numbers `text` prints below its header line. Table column
    /// headers and the line naming a written file are left out.
    fn numbers(text: &str) -> Vec<&str> {
        let lines: Vec<&str> = text.lines().skip(1).collect();
        let mut words = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            let column_header = lines.get(i + 1).is_some_and(|l| l.starts_with("---"));
            if !(column_header || line.starts_with("---") || line.contains("written to")) {
                words.extend(line_numbers(line));
            }
        }
        words
    }

    /// Assert that every number `text` prints below its header is one of
    /// `fields`, printed at the number's own precision.
    fn assert_prints_only(line: &str, text: &str, fields: &[f64]) {
        let words = numbers(text);
        assert!(!words.is_empty(), "{line}: no numbers in\n{text}");
        for word in words {
            let places = word.split_once('.').map_or(0, |(_, f)| f.len());
            let printed = |v: &f64| format!("{v:.places$}") == word;
            assert!(
                fields.iter().any(printed),
                "{line}: {word} is no field of the record:\n{text}"
            );
        }
    }

    fn summary(s: &Summary) -> [f64; 5] {
        [
            s.count as f64,
            s.mean,
            s.p50 as f64,
            s.p95 as f64,
            s.max as f64,
        ]
    }

    /// Every number a run's record holds.
    fn run_fields(r: &RunReport) -> Vec<f64> {
        let mut fields: Vec<f64> = [
            r.seed,
            r.n as u64,
            r.horizon,
            r.meals,
            r.messages_sent,
            r.messages_delivered,
            r.dropped_at_send,
            r.dropped_in_flight,
            r.events,
            r.violations as u64,
            r.starving as u64,
            r.faults.total(),
            r.retransmissions,
            r.acks_sent,
            r.recoveries,
            r.buffer_high_water,
            r.frames_queued,
            r.queue_peak,
            r.burst_transitions,
            r.frames_lost,
        ]
        .map(|v| v as f64)
        .to_vec();
        fields.extend([r.jain, r.messages_per_meal()]);
        fields.extend(r.locality.map(|d| d as f64));
        fields.extend(r.crash_time.map(|t| t.0 as f64));
        for s in [&r.rt_static, &r.rt_all, &r.msg_complexity] {
            fields.extend(summary(s));
        }
        for &(node, d) in &r.starving_nodes {
            fields.push(f64::from(node.0));
            fields.extend(d.map(|d| d as f64));
        }
        fields
    }

    /// Every number the rows a sweep or chaos pools its records into hold.
    fn row_fields(rows: &[AggregateRow]) -> Vec<f64> {
        let mut fields = Vec::new();
        for row in rows {
            fields.extend(
                [
                    row.runs as u64,
                    row.meals,
                    row.messages_sent,
                    row.dropped_at_send,
                    row.dropped_in_flight,
                    row.violations as u64,
                    row.starving as u64,
                    row.faults_injected,
                ]
                .map(|v| v as f64),
            );
            fields.extend(row.locality.map(|d| d as f64));
            fields.push(row.messages_per_meal());
            fields.extend(
                summary(&row.rt_static)
                    .into_iter()
                    .chain(summary(&row.rt_all)),
            );
        }
        fields
    }

    /// The text of every command renders its record (ROADMAP item 22):
    /// each number it prints below its header is a field of the record
    /// (`RunReport`, the pooled rows of a sweep or chaos, `LiveOutcome` and
    /// its conformance report, `Exploration`, `Certificate`) or one of its
    /// parsed arguments, and each deterministic command prints exactly the
    /// text rendered from a record computed again.
    #[test]
    fn every_number_a_command_prints_is_a_field_of_its_record() {
        let parse = |line: &str| crate::args::parse(argv(line)).unwrap();
        let printed = |line: &str| run_cli(argv(line)).unwrap();
        for line in [
            "run --alg a2 --topo line:5 --horizon 12000 --arq --victim 2 --recover 6000",
            "run --alg a2 --topo line:5 --horizon 8000 --seed 42 --fault-drop 0.5 \
             --fault-targets 2",
        ] {
            let Command::Run(cmd) = parse(line) else {
                unreachable!()
            };
            let Scenario {
                inst,
                sim,
                mobility,
            } = &cmd.scenario;
            let (r, _) = run_one(&sweep_of(inst, sim, mobility), None).unwrap();
            let text = run_text(&cmd, &r);
            assert_eq!(printed(line), text, "{line}");
            assert_prints_only(line, &text, &run_fields(&r));
        }
        // The second probe's victim never eats, so its crash never fires.
        for line in [
            "probe --topo line:9 --seed 4 --horizon 20000",
            "probe --topo line:5 --horizon 19",
        ] {
            let Command::Probe(cmd) = parse(line) else {
                unreachable!()
            };
            let (r, _) = run_one(&probe_sweep(&cmd), None).unwrap();
            let text = probe_text(&cmd, &r);
            assert_eq!(printed(line), text, "{line}");
            assert_prints_only(line, &text, &run_fields(&r));
        }
        let line = "sweep --alg a2 --topo line:4 --horizon 6000 --seeds 2 --jobs 1";
        let Command::Sweep(cmd) = parse(line) else {
            unreachable!()
        };
        let Scenario {
            inst,
            sim,
            mobility,
        } = &cmd.scenario;
        let sweep = sweep_of(inst, sim, mobility).seed_range(inst.seed, cmd.seeds);
        let report = sweep.run(1);
        let text = sweep_text(&cmd, 1, &report);
        assert_eq!(printed(line), text, "{line}");
        assert_prints_only(line, &text, &row_fields(&report.aggregate()));

        let line = "chaos --alg a2 --topo line:5 --horizon 6000 --seeds 2 --jobs 1";
        let Command::Chaos(cmd) = parse(line) else {
            unreachable!()
        };
        let sweeps = chaos_sweeps(&cmd).unwrap();
        let cells: Vec<SweepCell> = sweeps.iter().flat_map(SweepSpec::cells).collect();
        let rows = run_cells(&cells, 1).aggregate();
        let text = chaos_text(&cmd, &rows);
        assert_eq!(printed(line), text, "{line}");
        let (_, (strike, quiesce)) = chaos_fault(&cmd);
        let mut fields = row_fields(&rows);
        fields.extend([strike as f64, quiesce as f64]);
        assert_prints_only(line, &text, &fields);

        let line = "live --alg a2 --topo ring:5 --oneshot --conformance --eat-ms 1";
        let Command::Live(cmd) = parse(line) else {
            unreachable!()
        };
        let cell = cmd.cell.as_ref().unwrap();
        let cfg = live_cell(&cmd, cmd.cfg.alg, &cell.topo).unwrap();
        let out = run_live(&cfg).unwrap();
        let report = conformance_replay(&cfg, &out).unwrap();
        let text = live_text(cell, &cfg, &out, Some(&report));
        let lat = Summary::of(&out.latencies_ns);
        let mut fields: Vec<f64> = [
            out.violations.len() as u64,
            out.verdict_ms,
            out.total_meals(),
            out.messages_sent,
            out.messages_delivered,
            out.decode_errors,
            out.send_failures,
            out.retransmissions,
            out.acks_sent,
            out.recoveries,
            out.timer_wakes,
            out.threads_joined as u64,
            cell.topo.len() as u64,
            report.imported_delays as u64,
            report.sim_violations as u64,
        ]
        .map(|v| v as f64)
        .to_vec();
        fields.push(out.sessions_per_sec());
        fields.push(out.timer_late_ns as f64 / out.timer_wakes.max(1) as f64 / 1e3);
        fields.push(lat.count as f64);
        fields.extend([lat.p50, lat.p95, lat.max].map(|ns| ns as f64 / 1e6));
        fields.extend(
            report
                .sim_census
                .iter()
                .chain(&report.live_census)
                .map(|&m| m as f64),
        );
        assert_prints_only(line, &text, &fields);

        for line in [
            "check --alg a2 --topo line:3",
            "check --alg a1-greedy --topo line:3 --mutate no-sdf-guard --horizon 4000",
        ] {
            let Command::Check(cmd) = parse(line) else {
                unreachable!()
            };
            let CheckMode::Explore { strategy, jobs, .. } = cmd.mode else {
                unreachable!()
            };
            let (spec, cfg) = (check_spec_of(&cmd).unwrap(), explore_config(strategy, jobs));
            let result = explore(&spec, &cfg);
            let text = check_text(&spec, &cfg, &result, None);
            assert_eq!(printed(line), text, "{line}");
            let mut fields = [
                result.schedules,
                result.max_branch_points,
                result.dedup_prunes,
                result.dpor_prunes,
                result.shrink_runs,
            ]
            .map(|v| v as f64)
            .to_vec();
            if let Some(w) = &result.witness {
                fields.extend([w.choices.len() as f64, w.hungry.len() as f64]);
                fields.extend(line_numbers(&w.detail).map(|v| v.parse::<f64>().unwrap()));
            }
            assert_prints_only(line, &text, &fields);
        }

        let line = "check --alg a2 --topo line:3 --certify";
        let Command::Check(cmd) = parse(line) else {
            unreachable!()
        };
        let cert = certify(&check_spec_of(&cmd).unwrap(), &CertifyConfig::default());
        let text = certify_text(&cert, None);
        assert_eq!(printed(line), text, "{line}");
        let fields = [
            cert.schedules,
            cert.max_branch_points,
            cert.dedup_prunes,
            cert.unfed_runs,
            cert.worst_rt as usize,
            cert.worst_rt_node as usize,
            cert.worst_schedule.len(),
        ];
        assert_prints_only(line, &text, &fields.map(|v| v as f64));
    }
}
