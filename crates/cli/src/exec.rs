//! Command execution: turn a parsed [`Cli`] into a run and render the
//! report.

use harness::{
    crash_probe, default_jobs, run, run_cells, stats::jain_index, topology, AlgKind, FaultClass,
    Job, MobilityMix, RunOutcome, RunReport, RunSpec, Summary, SweepCell, SweepReport, SweepSpec,
    Table, Topo, WaypointPlan,
};
use lme_check::{
    certify, explore, replay, CertifyConfig, CheckSpec, ExploreConfig, StrategyKind, Witness,
};
use lme_net::{conformance_replay, run_live, LiveConfig, LiveOutcome, LiveRuntime};
use manet_sim::{
    ArqConfig, ChannelConfig, CrashWave, DelayAdversary, FaultPlan, LinkFaults, NodeId,
    PartitionWindow, SimConfig, SimTime,
};

use crate::args::{BenchMode, Cli, Command, TopoSpec, USAGE};

fn spec_of(cli: &Cli) -> Result<RunSpec, String> {
    Ok(RunSpec {
        sim: SimConfig {
            seed: cli.seed,
            fault: fault_plan_of(cli)?,
            arq: cli.arq.then(ArqConfig::default),
            channel: cli.channel.clone(),
            ..SimConfig::default()
        },
        horizon: cli.horizon,
        eat: cli.eat.0..=cli.eat.1,
        think: cli.think.0..=cli.think.1,
        ..RunSpec::default()
    })
}

/// Assemble the [`FaultPlan`] the `--fault-*` flags describe (empty when
/// none were given).
fn fault_plan_of(cli: &Cli) -> Result<FaultPlan, String> {
    let targets: Option<Vec<NodeId>> = cli
        .fault_targets
        .as_ref()
        .map(|ts| ts.iter().map(|&t| NodeId(t)).collect());
    let mut plan = FaultPlan {
        seed: cli.fault_seed,
        ..FaultPlan::default()
    };
    if cli.fault_drop > 0.0 || cli.fault_dup > 0.0 || cli.fault_skew > 0 {
        plan.link = Some(LinkFaults {
            drop: cli.fault_drop,
            duplicate: cli.fault_dup,
            skew: if cli.fault_skew > 0 { 1.0 } else { 0.0 },
            skew_ticks: cli.fault_skew,
            window: cli.fault_window,
            targets: targets.clone(),
            ..LinkFaults::default()
        });
    }
    if cli.fault_delay {
        let adversary_targets = targets
            .clone()
            .unwrap_or_else(|| (0..cli.topo.len() as u32).map(NodeId).collect());
        plan.max_delay = Some(DelayAdversary {
            targets: adversary_targets,
            window: cli.fault_window,
        });
    }
    if let Some((at, heal_at)) = cli.fault_partition {
        let side = targets.ok_or("--fault-partition needs --fault-targets")?;
        plan.partitions = vec![PartitionWindow {
            at,
            side,
            heal_after: heal_at - at,
        }];
    }
    if let Some(at) = cli.recover_at {
        // `live` interprets --recover itself (in ms); here it is a tick
        // against the sim fault plan: crash --victim at horizon/4,
        // restart it as a fresh incarnation at the given tick.
        let victim = cli.victim.ok_or("--recover needs --victim")?;
        let crash_at = (cli.horizon / 4).max(1);
        if at <= crash_at {
            return Err(format!(
                "--recover {at} must come after the crash at tick {crash_at} (horizon/4)"
            ));
        }
        plan.crash_waves.push(CrashWave {
            at: crash_at,
            nodes: vec![NodeId(victim)],
        });
        plan.recovers.push(CrashWave {
            at,
            nodes: vec![NodeId(victim)],
        });
    }
    plan.validate(cli.topo.len())
        .map_err(|e| format!("invalid fault plan: {e}"))?;
    Ok(plan)
}

fn waypoint_plan(cli: &Cli, n: usize) -> WaypointPlan {
    WaypointPlan {
        area_side: (n as f64 / 1.6).sqrt().max(2.0),
        moves: cli.moves,
        window: (cli.horizon / 10, cli.horizon * 9 / 10),
        speed: Some(0.25),
        seed: cli.seed ^ 0xB0B,
    }
}

/// Ground a parsed `--mix` (class fractions only) in this run's geometry:
/// same area, window, and seed derivation as [`waypoint_plan`].
fn mobility_mix_of(cli: &Cli, mix: &MobilityMix, n: usize) -> MobilityMix {
    MobilityMix {
        area_side: (n as f64 / 1.6).sqrt().max(2.0),
        window: (cli.horizon / 10, cli.horizon * 9 / 10),
        seed: cli.seed ^ 0xB0B,
        ..mix.clone()
    }
}

/// Write the JSONL metrics file when `--metrics-out` was given.
fn emit_metrics(cli: &Cli, report: &SweepReport) -> Result<(), String> {
    if let Some(path) = &cli.metrics_out {
        report
            .write_jsonl(std::path::Path::new(path))
            .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
    }
    Ok(())
}

fn render_run(cli: &Cli, out: &RunOutcome) -> String {
    if cli.csv {
        let mut t = Table::new(&["node", "hungry_at", "eat_at", "response", "moved", "msgs"]);
        for s in &out.metrics.samples {
            t.row([
                s.node.0.to_string(),
                s.hungry_at.to_string(),
                s.eat_at.to_string(),
                s.response().to_string(),
                s.moved.to_string(),
                s.msgs.to_string(),
            ]);
        }
        return t.to_csv();
    }
    let mut report = String::new();
    report.push_str(&format!(
        "{} on {:?} (n = {}), horizon {}, seed {}\n",
        cli.alg.name(),
        cli.topo,
        cli.topo.len(),
        cli.horizon,
        cli.seed
    ));
    report.push_str(&format!("  safety violations : {}\n", out.violations.len()));
    report.push_str(&format!("  total meals       : {}\n", out.total_meals()));
    report.push_str(&format!(
        "  meals fairness    : {:.3} (Jain index)\n",
        jain_index(&out.metrics.meals)
    ));
    report.push_str(&format!("  response (static) : {}\n", out.static_summary()));
    report.push_str(&format!("  response (all)    : {}\n", out.all_summary()));
    report.push_str(&format!(
        "  messages          : {} ({:.1} per meal)\n",
        out.messages_sent,
        out.messages_per_meal()
    ));
    if cli.arq {
        report.push_str(&format!(
            "  arq shim          : {} retransmissions, {} acks, buffer high water {}\n",
            out.stats.shim.retransmissions,
            out.stats.shim.acks_sent,
            out.stats.shim.buffer_high_water
        ));
    }
    if out.stats.faults.recoveries > 0 {
        report.push_str(&format!(
            "  recoveries        : {}\n",
            out.stats.faults.recoveries
        ));
    }
    let starving = out.metrics.starving_since(SimTime(cli.horizon / 2));
    if starving.is_empty() {
        report.push_str("  starvation        : none\n");
    } else {
        report.push_str(&format!("  starvation        : {starving:?}\n"));
    }
    report
}

fn render_probe(cli: &Cli) -> Result<String, String> {
    let spec = spec_of(cli)?;
    let victim = NodeId(cli.victim.unwrap_or(cli.topo.len() as u32 / 2));
    let report = crash_probe(cli.alg, &spec, &cli.topo.topo(), victim, spec.horizon / 20);
    emit_metrics(
        cli,
        &SweepReport {
            runs: vec![RunReport::from_outcome(
                &cli.topo.to_string(),
                cli.alg.name(),
                cli.seed,
                spec.horizon,
                &report.outcome,
                Some((report.starving.len(), report.locality)),
            )],
        },
    )?;
    let mut s = String::new();
    s.push_str(&format!(
        "crash probe: {} on {:?}, victim {victim} crashed mid-CS\n",
        cli.alg.name(),
        cli.topo
    ));
    s.push_str(&format!(
        "  crash fired at    : {}\n",
        report
            .outcome
            .crash_time
            .map_or("never (victim never ate)".to_string(), |t| t.to_string())
    ));
    s.push_str(&format!(
        "  safety violations : {}\n",
        report.outcome.violations.len()
    ));
    match report.locality {
        None => s.push_str("  starvation        : none observed\n"),
        Some(m) => {
            s.push_str(&format!("  starving nodes    : {:?}\n", report.starving));
            s.push_str(&format!("  empirical locality: {m}\n"));
        }
    }
    Ok(s)
}

fn render_sweep(cli: &Cli) -> Result<String, String> {
    let base = spec_of(cli)?;
    let topo = cli.topo.topo();
    let n = topo.len();
    let mut sweep = SweepSpec::new(cli.topo.to_string(), topo, base)
        .kinds(cli.algs.iter().copied())
        .seed_range(cli.seed, cli.seeds);
    if let Some(mix) = &cli.mix {
        sweep = sweep.mix(mobility_mix_of(cli, mix, n));
    } else if cli.moves > 0 {
        sweep = sweep.moves(waypoint_plan(cli, n));
    }
    let jobs = cli.jobs.unwrap_or_else(default_jobs);
    let report = sweep.run(jobs);
    emit_metrics(cli, &report)?;

    let mut s = format!(
        "sweep: {} on {} (n = {}), seeds {}..{}, horizon {}, {} jobs\n",
        if cli.algs.len() == 1 {
            cli.algs[0].name()
        } else {
            "all algorithms"
        },
        cli.topo,
        n,
        cli.seed,
        cli.seed + cli.seeds,
        cli.horizon,
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
    s.push_str(&table.to_string());
    if let Some(path) = &cli.metrics_out {
        s.push_str(&format!("per-run metrics written to {path}\n"));
    }
    Ok(s)
}

/// The fixed fault matrix the `chaos` subcommand sweeps: one column per
/// fault class, crash and crash→recover first (matching the paper's fault
/// model), then the out-of-model link faults, then partition and the
/// ν-adversary. Sustained loss and burst loss run with the ARQ shim
/// armed — they are the classes whose liveness depends on reliable
/// delivery (burst loss rides the Gilbert–Elliott channel model rather
/// than a fault plan).
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

fn render_chaos(cli: &Cli) -> Result<String, String> {
    let topo = cli.topo.topo();
    let n = topo.len();
    if n < 2 {
        return Err("chaos needs at least two nodes".to_string());
    }
    let victim = NodeId(cli.victim.unwrap_or(n as u32 / 2));
    let fault_at = (cli.horizon / 20).max(1);
    let quiesce = fault_at + (cli.horizon - fault_at) / 2;
    let mut cells = Vec::with_capacity(CHAOS_CLASSES.len() * cli.seeds as usize);
    for &class in &CHAOS_CLASSES {
        for seed in cli.seed..cli.seed + cli.seeds {
            let mut spec = RunSpec {
                sim: SimConfig {
                    seed,
                    ..SimConfig::default()
                },
                horizon: cli.horizon,
                eat: cli.eat.0..=cli.eat.1,
                think: cli.think.0..=cli.think.1,
                ..RunSpec::default()
            };
            let job = match class {
                FaultClass::Crash => Job::Probe {
                    victim,
                    crash_at: fault_at,
                },
                _ => {
                    spec.sim.fault = class.plan(victim, (fault_at, quiesce));
                    if matches!(class, FaultClass::SustainedLoss(_)) {
                        spec.sim.arq = Some(ArqConfig::default());
                    }
                    if matches!(class, FaultClass::BurstLoss) {
                        // Correlated loss comes from the channel model, not
                        // the fault adversary; the shim restores liveness.
                        spec.sim.channel = ChannelConfig::burst_loss_default();
                        spec.sim.arq = Some(ArqConfig::default());
                    }
                    Job::Run
                }
            };
            cells.push(SweepCell {
                label: format!("{}/{}", cli.topo, class.label()),
                kind: cli.alg,
                spec,
                topo: topo.clone(),
                commands: Vec::new(),
                job,
            });
        }
    }
    let jobs = cli.jobs.unwrap_or_else(default_jobs);
    let report = run_cells(&cells, jobs);
    emit_metrics(cli, &report)?;

    // The job count is deliberately absent from the output: the chaos
    // report (and its JSONL) is byte-identical for every --jobs value.
    let mut s = format!(
        "chaos: {} on {} (n = {}), victim {victim}, seeds {}..{}, horizon {}\n\
         faults strike at {fault_at}, quiesce by {quiesce}\n",
        cli.alg.name(),
        cli.topo,
        n,
        cli.seed,
        cli.seed + cli.seeds,
        cli.horizon,
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
    for (row, class) in report.aggregate().iter().zip(CHAOS_CLASSES) {
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
    s.push_str(&table.to_string());
    if let Some(path) = &cli.metrics_out {
        s.push_str(&format!("per-run metrics written to {path}\n"));
    }
    // Sustained and burst loss are survivable only through the ARQ shim;
    // a stall there means reliable delivery is broken, so the command
    // fails.
    for (row, class) in report.aggregate().iter().zip(CHAOS_CLASSES) {
        if matches!(class, FaultClass::SustainedLoss(_) | FaultClass::BurstLoss) && row.starving > 0
        {
            return Err(format!(
                "{} stalled: {} starving node-run(s) despite the ARQ shim\n{s}",
                class.label(),
                row.starving
            ));
        }
    }
    Ok(s)
}

fn check_spec_of(cli: &Cli) -> Result<CheckSpec, String> {
    let topo = cli.topo.topo();
    let edges = topo.edges(SimConfig::default().radio_range).into_owned();
    let mut spec = CheckSpec::new(cli.alg, cli.topo.to_string(), topo.len(), edges);
    spec.seed = cli.seed;
    spec.horizon = cli.horizon;
    spec.eat = cli.eat.0;
    spec.mutation = cli.mutate;
    spec.liveness = cli.liveness;
    spec.think = cli.think.0;
    spec.validate()?;
    Ok(spec)
}

/// Explicitly-passed CLI flags that contradict the instance a witness
/// records. Flags left at their defaults never conflict: the witness is
/// the authority on its own instance.
fn witness_flag_conflicts(cli: &Cli, witness: &Witness) -> Vec<String> {
    let mut out = Vec::new();
    let mut check = |flags: &[&str], same: bool, asked: String, recorded: String| {
        if !same && flags.iter().any(|f| cli.explicitly_set(f)) {
            out.push(format!(
                "{} asks for {asked} but the witness records {recorded}",
                flags[0]
            ));
        }
    };
    check(
        &["--alg"],
        cli.alg.name() == witness.alg,
        cli.alg.name().to_string(),
        witness.alg.clone(),
    );
    check(
        &["--topo", "--nodes"],
        cli.topo.to_string() == witness.topo,
        cli.topo.to_string(),
        witness.topo.clone(),
    );
    check(
        &["--seed"],
        cli.seed == witness.seed,
        cli.seed.to_string(),
        witness.seed.to_string(),
    );
    check(
        &["--horizon"],
        cli.horizon == witness.horizon,
        cli.horizon.to_string(),
        witness.horizon.to_string(),
    );
    check(
        &["--eat"],
        cli.eat.0 == witness.eat,
        cli.eat.0.to_string(),
        witness.eat.to_string(),
    );
    check(
        &["--think"],
        !witness.liveness || cli.think.0 == witness.think,
        cli.think.0.to_string(),
        witness.think.to_string(),
    );
    check(
        &["--mutate"],
        cli.mutate.name() == witness.mutation,
        cli.mutate.name().to_string(),
        witness.mutation.clone(),
    );
    check(
        &["--liveness"],
        cli.liveness == witness.liveness,
        "a liveness run".to_string(),
        "a safety-only run".to_string(),
    );
    out
}

/// Replay a witness file: the rendered report (including the full trace) is
/// a pure function of the file, byte-identical across machines and `--jobs`.
/// Explicitly-passed instance flags that contradict the witness are a
/// structured error (exit 2), never silently ignored.
fn render_replay(cli: &Cli, path: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read witness {path}: {e}"))?;
    let witness = Witness::from_json(text.trim())?;
    let conflicts = witness_flag_conflicts(cli, &witness);
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

fn render_check(cli: &Cli) -> Result<String, String> {
    if let Some(path) = &cli.replay_witness {
        return render_replay(cli, path);
    }
    if cli.certify {
        return render_certify(cli);
    }
    let spec = check_spec_of(cli)?;
    let cfg = ExploreConfig {
        strategy: cli.strategy,
        max_schedules: match cli.strategy {
            StrategyKind::Dfs => cli.steps,
            StrategyKind::Random | StrategyKind::Pct => cli.seeds as usize,
        },
        max_depth: cli.depth,
        jobs: cli.jobs.unwrap_or(1),
        ..ExploreConfig::default()
    };
    let result = explore(&spec, &cfg);
    let mut s = format!(
        "check: {} on {} (n = {}), strategy {}, seed {}, mutation {}\n",
        spec.alg.name(),
        spec.topo,
        spec.n,
        cli.strategy.name(),
        spec.seed,
        spec.mutation.name(),
    );
    if spec.liveness {
        s.push_str(&format!(
            "  liveness workload : recycling (think {})\n",
            spec.think
        ));
    }
    s.push_str(&format!(
        "  schedules run     : {}{}\n",
        result.schedules,
        if result.complete {
            match cli.strategy {
                StrategyKind::Dfs => " (bounded schedule space exhausted)",
                _ => " (all requested walks)",
            }
        } else {
            " (budget exhausted before the space)"
        }
    ));
    s.push_str(&format!(
        "  max branch points : {}\n",
        result.max_branch_points
    ));
    if cli.strategy == StrategyKind::Dfs {
        s.push_str(&format!("  dedup prunes      : {}\n", result.dedup_prunes));
        s.push_str(&format!("  dpor prunes       : {}\n", result.dpor_prunes));
    }
    match &result.witness {
        None => s.push_str("  result            : no property violations\n"),
        Some(w) => {
            s.push_str(&format!("  result            : VIOLATION {}\n", w.property));
            s.push_str(&format!("  detail            : {}\n", w.detail));
            s.push_str(&format!(
                "  shrunk witness    : {} choices, {} hungry nodes ({} shrink replays)\n",
                w.choices.len(),
                w.hungry.len(),
                result.shrink_runs
            ));
            if let Some(path) = &cli.witness_out {
                std::fs::write(path, w.to_json() + "\n")
                    .map_err(|e| format!("cannot write witness to {path}: {e}"))?;
                s.push_str(&format!("  witness written to: {path}\n"));
            }
        }
    }
    Ok(s)
}

/// `lme check --certify`: exhaust the extremal schedule space and report
/// the exact worst-case response time as a machine-readable certificate.
fn render_certify(cli: &Cli) -> Result<String, String> {
    let spec = check_spec_of(cli)?;
    let cfg = CertifyConfig {
        max_schedules: if cli.explicitly_set("--steps") {
            cli.steps
        } else {
            CertifyConfig::default().max_schedules
        },
        jobs: cli.jobs.unwrap_or(1),
        ..CertifyConfig::default()
    };
    let cert = certify(&spec, &cfg);
    let mut s = format!(
        "certify: {} on {} (n = {}), seed {}, nu {}, eat {}, horizon {}\n",
        cert.alg, cert.topo, cert.n, cert.seed, cert.nu, cert.eat, cert.horizon,
    );
    s.push_str(&format!(
        "  schedules run     : {}{}\n",
        cert.schedules,
        if cert.complete {
            " (extremal schedule space exhausted)"
        } else {
            " (budget exhausted before the space)"
        }
    ));
    s.push_str(&format!(
        "  max branch points : {}\n",
        cert.max_branch_points
    ));
    s.push_str(&format!("  dedup prunes      : {}\n", cert.dedup_prunes));
    if let Some(v) = &cert.violation {
        s.push_str(&format!("  VIOLATION         : {v}\n"));
    }
    if cert.unfed_runs > 0 {
        s.push_str(&format!("  unfed runs        : {}\n", cert.unfed_runs));
    }
    if cert.holds() {
        s.push_str(&format!(
            "  worst response    : {} ticks (node {}, over {} branch delays)\n",
            cert.worst_rt,
            cert.worst_rt_node,
            cert.worst_schedule.len(),
        ));
        s.push_str("  certificate       : holds (exact over the extremal space)\n");
    } else {
        s.push_str("  certificate       : VOID (see above)\n");
    }
    if let Some(path) = &cli.bench_out {
        std::fs::write(path, cert.to_json() + "\n")
            .map_err(|e| format!("cannot write certificate to {path}: {e}"))?;
        s.push_str(&format!("  certificate written to: {path}\n"));
    }
    Ok(s)
}

/// Node positions of a live run's topology: the driver moves and crashes
/// nodes in space, so live runs need a geometry.
fn live_positions(topo: &TopoSpec) -> Result<Vec<(f64, f64)>, String> {
    match topo.topo() {
        Topo::Geo(positions) => Ok(positions),
        Topo::Graph { .. } => Err(format!(
            "live runs need a geometric topology, not {topo} (the driver owns positions)"
        )),
    }
}

/// The worker pool the flags ask for (`--workers`, else sized to the
/// machine).
fn live_runtime_of(cli: &Cli) -> LiveRuntime {
    LiveRuntime::Sharded {
        workers: cli.workers.unwrap_or(0),
    }
}

/// Assemble one live-run configuration from the flags. `--victim` crashes
/// a quarter into the run; `--moves` reuses the harness random-waypoint
/// generator as driver-pushed teleports.
fn live_config_of(cli: &Cli, alg: AlgKind, positions: Vec<(f64, f64)>) -> LiveConfig {
    let n = positions.len();
    let mut cfg = LiveConfig::new(alg, cli.transport, positions);
    cfg.duration_ms = cli.duration_ms;
    cfg.rate = cli.rate;
    cfg.eat_ms = cli.eat_ms;
    cfg.one_shot = cli.one_shot;
    cfg.seed = cli.seed;
    cfg.reliable = cli.reliable;
    cfg.closed_loop = cli.closed_loop;
    cfg.runtime = live_runtime_of(cli);
    if let Some(v) = cli.victim {
        cfg.crash = Some((v, (cli.duration_ms / 4).max(1)));
        if let Some(at) = cli.recover_at {
            cfg.recover = Some((v, at));
        }
    }
    if cli.moves > 0 {
        let plan = WaypointPlan {
            area_side: (n as f64 / 1.6).sqrt().max(2.0),
            moves: cli.moves,
            window: (cli.duration_ms / 10, (cli.duration_ms * 9 / 10).max(1)),
            speed: None,
            seed: cli.seed ^ 0xB0B,
        };
        for (t, cmd) in plan.commands(n) {
            if let manet_sim::Command::Teleport { node, dest } = cmd {
                cfg.moves.push((t.0, node.0, (dest.x, dest.y)));
            }
        }
    }
    cfg
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

fn render_live(cli: &Cli) -> Result<String, String> {
    if cli.matrix {
        return render_live_matrix(cli);
    }
    let cfg = live_config_of(cli, cli.alg, live_positions(&cli.topo)?);
    let out = run_live(&cfg)?;
    let lat = Summary::of(&out.latencies_ns);
    let mut s = format!(
        "live: {} over {} on {} (n = {}), {} ms, rate {}/s, seed {}, {} runtime{}\n",
        cli.alg.name(),
        cli.transport.name(),
        cli.topo,
        cli.topo.len(),
        out.elapsed_ms,
        cli.rate,
        cli.seed,
        cfg.runtime.name(),
        if cli.closed_loop { ", closed loop" } else { "" },
    );
    s.push_str(&format!("  safety violations : {}\n", out.violations.len()));
    s.push_str(&format!(
        "  verdict lag       : {} ms after the run\n",
        out.verdict_ms
    ));
    s.push_str(&format!(
        "  eating sessions   : {} ({:.1}/s)\n",
        out.total_meals(),
        out.sessions_per_sec()
    ));
    s.push_str(&format!("  hungry→eat        : {}\n", fmt_latency_ms(&lat)));
    s.push_str(&format!(
        "  messages          : {} sent, {} delivered, {} decode errors, \
         {} send failures\n",
        out.messages_sent, out.messages_delivered, out.decode_errors, out.send_failures
    ));
    if cli.reliable || cli.recover_at.is_some() {
        s.push_str(&format!(
            "  reliability       : {} retransmissions, {} acks, {} recoveries\n",
            out.retransmissions, out.acks_sent, out.recoveries
        ));
    }
    s.push_str(&format!(
        "  threads joined    : {}/{}\n",
        out.threads_joined,
        cli.topo.len()
    ));
    if cli.conformance {
        let report = conformance_replay(&cfg, &out)?;
        s.push_str(&format!(
            "  conformance       : {} delays imported, sim census {:?} vs live {:?}, \
             {} sim violations\n",
            report.imported_delays, report.sim_census, report.live_census, report.sim_violations
        ));
        if !report.conforms() {
            return Err(format!("conformance replay diverged\n{s}"));
        }
        s.push_str("  conformance       : PASS (replay safe, census match)\n");
    }
    Ok(s)
}

/// The fixed algorithm × topology acceptance matrix: every algorithm over
/// a clique and a ring, each cell validated by the safety monitor.
/// Nonzero exit on any violation.
fn render_live_matrix(cli: &Cli) -> Result<String, String> {
    let topos = [TopoSpec::Clique(5), TopoSpec::Ring(6)];
    let algs = AlgKind::extended();
    if let Some(v) = cli.victim {
        if v as usize >= 5 {
            return Err(format!(
                "matrix cells have 5–6 nodes; victim {v} out of range"
            ));
        }
    }
    let mut s = format!(
        "live matrix: {} algorithms x {} topologies{} over {} ({} runtime), \
         {} ms per cell, rate {}/s, seed {}\n",
        algs.len(),
        topos.len(),
        if cli.victim.is_some() { " + crash" } else { "" },
        cli.transport.name(),
        live_runtime_of(cli).name(),
        cli.duration_ms,
        cli.rate,
        cli.seed,
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
            let cfg = live_config_of(cli, alg, live_positions(topo)?);
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

/// One `bench live` result row as a JSON object, including the per-node
/// network-health suffix keys (`net_*`) aggregated from the trace's
/// [`lme_net::NodeNetStats`] records — previously collected by every node
/// and dropped at aggregation.
fn bench_live_row_json(
    alg: &str,
    runtime: &str,
    n: usize,
    topo: &str,
    out: &LiveOutcome,
) -> String {
    let lat = Summary::of(&out.latencies_ns);
    let net = out.trace.net_stats(n);
    let nodes_with_errors = net
        .iter()
        .filter(|s| s.decode_errors + s.send_failures > 0)
        .count();
    let max_decode = net.iter().map(|s| s.decode_errors).max().unwrap_or(0);
    let max_send = net.iter().map(|s| s.send_failures).max().unwrap_or(0);
    let max_rtx = net.iter().map(|s| s.retransmissions).max().unwrap_or(0);
    let max_acks = net.iter().map(|s| s.acks_sent).max().unwrap_or(0);
    format!(
        "{{\"alg\": \"{alg}\", \"runtime\": \"{runtime}\", \"n\": {n}, \
         \"topo\": \"{topo}\", \"elapsed_ms\": {}, \"meals\": {}, \
         \"sessions_per_sec\": {:.2}, \"latency_ns\": {{\"count\": {}, \
         \"mean\": {:.0}, \"p50\": {}, \"p95\": {}, \"max\": {}}}, \
         \"messages_sent\": {}, \"messages_delivered\": {}, \
         \"decode_errors\": {}, \"violations\": {}, \
         \"send_failures\": {}, \"retransmissions\": {}, \
         \"acks_sent\": {}, \"recoveries\": {}, \
         \"net_nodes_with_errors\": {nodes_with_errors}, \
         \"net_max_node_decode_errors\": {max_decode}, \
         \"net_max_node_send_failures\": {max_send}, \
         \"net_max_node_retransmissions\": {max_rtx}, \
         \"net_max_node_acks\": {max_acks}, \
         \"verdict_ms\": {}}}",
        out.elapsed_ms,
        out.total_meals(),
        out.sessions_per_sec(),
        lat.count,
        lat.mean,
        lat.p50,
        lat.p95,
        lat.max,
        out.messages_sent,
        out.messages_delivered,
        out.decode_errors,
        out.violations.len(),
        out.send_failures,
        out.retransmissions,
        out.acks_sent,
        out.recoveries,
        out.verdict_ms,
    )
}

/// `lme bench live`: wall-clock throughput and pooled hungry→eat latency
/// percentiles for every algorithm, written as JSON. With an
/// explicit `--ns` ladder it also runs `--alg` on `ring:n` per rung and
/// records the rungs as `scale_rows`.
fn render_bench_live(cli: &Cli) -> Result<String, String> {
    let out_path = cli
        .bench_out
        .clone()
        .unwrap_or_else(|| "BENCH_live.json".to_string());
    let positions = live_positions(&cli.topo)?;
    let n = positions.len();
    let runtime = live_runtime_of(cli).name();
    let mut results: Vec<(AlgKind, LiveOutcome, Summary)> = Vec::new();
    for alg in AlgKind::extended() {
        let cfg = live_config_of(cli, alg, positions.clone());
        let out = run_live(&cfg)?;
        if !out.violations.is_empty() {
            return Err(format!(
                "bench live: {} on {} had {} safety violations",
                alg.name(),
                cli.topo,
                out.violations.len()
            ));
        }
        let lat = Summary::of(&out.latencies_ns);
        results.push((alg, out, lat));
    }
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"live\",\n");
    json.push_str(&format!("  \"transport\": \"{}\",\n", cli.transport.name()));
    json.push_str(&format!("  \"topo\": \"{}\",\n", cli.topo));
    json.push_str(&format!("  \"n\": {n},\n"));
    json.push_str(&format!("  \"duration_ms\": {},\n", cli.duration_ms));
    json.push_str(&format!("  \"rate_per_node_sec\": {},\n", cli.rate));
    json.push_str(&format!("  \"eat_ms\": {},\n", cli.eat_ms));
    json.push_str(&format!("  \"seed\": {},\n", cli.seed));
    json.push_str(&format!("  \"runtime\": \"{runtime}\",\n"));
    json.push_str(&format!("  \"closed_loop\": {},\n", cli.closed_loop));
    let mut jsonl: Vec<String> = Vec::new();
    json.push_str("  \"rows\": [\n");
    for (i, (alg, out, _lat)) in results.iter().enumerate() {
        let row = bench_live_row_json(alg.name(), runtime, n, &cli.topo.to_string(), out);
        jsonl.push(row.clone());
        json.push_str(&format!(
            "    {row}{}\n",
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");

    // The `--ns` scale ladder: `--alg` on `ring:n` per rung.
    let mut scale_results: Vec<(usize, LiveOutcome)> = Vec::new();
    if cli.explicitly_set("--ns") {
        for &sn in &cli.bench_ns {
            let cfg = live_config_of(cli, cli.alg, topology::ring(sn));
            let out = run_live(&cfg)?;
            if !out.violations.is_empty() {
                return Err(format!(
                    "bench live scale: {} on ring:{sn} had {} safety violations",
                    cli.alg.name(),
                    out.violations.len()
                ));
            }
            scale_results.push((sn, out));
        }
    }
    json.push_str("  \"scale_rows\": [\n");
    for (i, (sn, out)) in scale_results.iter().enumerate() {
        let row = bench_live_row_json(cli.alg.name(), runtime, *sn, &format!("ring:{sn}"), out);
        jsonl.push(row.clone());
        json.push_str(&format!(
            "    {row}{}\n",
            if i + 1 < scale_results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Some(path) = &cli.metrics_out {
        std::fs::write(path, jsonl.join("\n") + "\n")
            .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
    }
    std::fs::write(&out_path, &json).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    let mut s = format!(
        "bench live: {} on {} (n = {n}, {} runtime{}), {} ms per algorithm, rate {}/s\n",
        cli.transport.name(),
        cli.topo,
        runtime,
        if cli.closed_loop { ", closed loop" } else { "" },
        cli.duration_ms,
        cli.rate,
    );
    let mut table = Table::new(&[
        "algorithm",
        "meals",
        "sessions/s",
        "hungry→eat (pooled)",
        "delivered",
    ]);
    for (alg, out, lat) in &results {
        table.row([
            alg.name().to_string(),
            out.total_meals().to_string(),
            format!("{:.1}", out.sessions_per_sec()),
            fmt_latency_ms(lat),
            out.messages_delivered.to_string(),
        ]);
    }
    s.push_str(&table.to_string());
    if !scale_results.is_empty() {
        s.push_str(&format!("scale ladder: {} on ring:n\n", cli.alg.name()));
        let mut scale_table = Table::new(&["n", "meals", "sessions/s", "p95"]);
        for (sn, out) in &scale_results {
            let lat = Summary::of(&out.latencies_ns);
            scale_table.row([
                sn.to_string(),
                out.total_meals().to_string(),
                format!("{:.1}", out.sessions_per_sec()),
                format!("{:.2} ms", lat.p95 as f64 / 1e6),
            ]);
        }
        s.push_str(&scale_table.to_string());
    }
    s.push_str(&format!("results written to {out_path}\n"));
    Ok(s)
}

/// The fixed channel-model matrix `lme bench channel` sweeps: every
/// model over a dense (clique) and a sparse (ring) topology. The
/// Gilbert–Elliott cells arm the ARQ shim — burst loss without
/// retransmission starves by design.
fn bench_channel_models() -> Vec<(&'static str, ChannelConfig, bool)> {
    vec![
        ("iid", ChannelConfig::Iid, false),
        (
            "constant-bandwidth",
            ChannelConfig::ConstantBandwidth {
                ticks_per_frame: 2,
                max_queue: 64,
            },
            false,
        ),
        (
            "shared-medium",
            ChannelConfig::SharedMedium {
                ticks_per_frame: 2,
                max_inflight: 64,
            },
            false,
        ),
        ("gilbert-elliott", ChannelConfig::burst_loss_default(), true),
    ]
}

/// `lme bench channel`: run the algorithm under every channel model on a
/// clique and a ring, reporting meals, response percentiles and the
/// channel counters, written as JSON. This is the degradation matrix in
/// miniature: the i.i.d. rows are the paper's assumption-satisfying
/// baseline, everything below shows what contention and burst loss cost.
/// A cell whose offered load exceeds channel capacity (a dense clique on
/// one shared medium) ends in a structured queue-overflow abort; the row
/// is kept with its `abort` recorded — saturation is the result, not an
/// error. Only safety violations fail the bench.
fn render_bench_channel(cli: &Cli) -> Result<String, String> {
    let out_path = cli
        .bench_out
        .clone()
        .unwrap_or_else(|| "BENCH_channel.json".to_string());
    let topos = [TopoSpec::Clique(8), TopoSpec::Ring(8)];
    struct Row {
        model: &'static str,
        topo: String,
        arq: bool,
        meals: u64,
        rt: Summary,
        messages: u64,
        stats: manet_sim::ChannelStats,
        violations: usize,
        abort: Option<String>,
    }
    let mut rows: Vec<Row> = Vec::new();
    for (model, channel, arq) in bench_channel_models() {
        for topo in &topos {
            let spec = RunSpec {
                sim: SimConfig {
                    seed: cli.seed,
                    channel: channel.clone(),
                    arq: arq.then(ArqConfig::default),
                    ..SimConfig::default()
                },
                horizon: cli.horizon,
                eat: cli.eat.0..=cli.eat.1,
                think: cli.think.0..=cli.think.1,
                ..RunSpec::default()
            };
            let out = run(cli.alg, &spec, &topo.topo(), &[], None);
            if !out.violations.is_empty() {
                return Err(format!(
                    "bench channel: {} under {model} on {topo} had {} safety violations",
                    cli.alg.name(),
                    out.violations.len()
                ));
            }
            rows.push(Row {
                model,
                topo: topo.to_string(),
                arq,
                meals: out.total_meals(),
                rt: out.all_summary(),
                messages: out.messages_sent,
                stats: out.stats.channel.clone(),
                violations: out.violations.len(),
                abort: out.abort.clone(),
            });
        }
    }
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"channel\",\n");
    json.push_str(&format!("  \"alg\": \"{}\",\n", cli.alg.name()));
    json.push_str(&format!("  \"seed\": {},\n", cli.seed));
    json.push_str(&format!("  \"horizon\": {},\n", cli.horizon));
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let abort = match &r.abort {
            Some(a) => format!("\"{}\"", a.replace('\\', "\\\\").replace('"', "\\\"")),
            None => "null".to_string(),
        };
        json.push_str(&format!(
            "    {{\"model\": \"{}\", \"topo\": \"{}\", \"arq\": {}, \"meals\": {}, \
             \"rt\": {{\"count\": {}, \"p50\": {}, \"p95\": {}, \"max\": {}}}, \
             \"messages\": {}, \"frames_queued\": {}, \"queue_peak\": {}, \
             \"burst_transitions\": {}, \"frames_lost\": {}, \"violations\": {}, \
             \"abort\": {abort}}}{}\n",
            r.model,
            r.topo,
            r.arq,
            r.meals,
            r.rt.count,
            r.rt.p50,
            r.rt.p95,
            r.rt.max,
            r.messages,
            r.stats.frames_queued,
            r.stats.queue_peak,
            r.stats.burst_transitions,
            r.stats.frames_lost,
            r.violations,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    let mut s = format!(
        "bench channel: {} x {{clique:8, ring:8}}, horizon {}, seed {}\n",
        cli.alg.name(),
        cli.horizon,
        cli.seed
    );
    let mut table = Table::new(&[
        "model",
        "topology",
        "meals",
        "rt p50/p95/max",
        "messages",
        "queued/peak",
        "transitions/lost",
        "outcome",
    ]);
    for r in &rows {
        table.row([
            r.model.to_string(),
            r.topo.clone(),
            r.meals.to_string(),
            format!("{}/{}/{}", r.rt.p50, r.rt.p95, r.rt.max),
            r.messages.to_string(),
            format!("{}/{}", r.stats.frames_queued, r.stats.queue_peak),
            format!("{}/{}", r.stats.burst_transitions, r.stats.frames_lost),
            if r.abort.is_some() {
                "saturated".to_string()
            } else {
                "ok".to_string()
            },
        ]);
    }
    s.push_str(&table.to_string());
    s.push_str(&format!("results written to {out_path}\n"));
    Ok(s)
}

/// Execute a parsed command and return the rendered report.
///
/// # Errors
///
/// Returns a diagnostic on unsupported combinations.
pub fn execute(cli: &Cli) -> Result<String, String> {
    match cli.command {
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
        Command::Run => {
            let spec = spec_of(cli)?;
            let topo = cli.topo.topo();
            let n = topo.len();
            let commands = match &cli.mix {
                Some(mix) => mobility_mix_of(cli, mix, n).commands(n),
                None if cli.moves > 0 => waypoint_plan(cli, n).commands(n),
                None => Vec::new(),
            };
            let out = run(cli.alg, &spec, &topo, &commands, None);
            emit_metrics(
                cli,
                &SweepReport {
                    runs: vec![RunReport::from_outcome(
                        &cli.topo.to_string(),
                        cli.alg.name(),
                        cli.seed,
                        spec.horizon,
                        &out,
                        None,
                    )],
                },
            )?;
            Ok(render_run(cli, &out))
        }
        Command::Probe => render_probe(cli),
        Command::Sweep => render_sweep(cli),
        Command::Chaos => render_chaos(cli),
        Command::Check => render_check(cli),
        Command::Bench => match cli.bench_mode {
            BenchMode::Live => render_bench_live(cli),
            BenchMode::Channel => render_bench_channel(cli),
        },
        Command::Live => render_live(cli),
    }
}

#[cfg(test)]
mod tests {
    use crate::run_cli;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn unwritable_output_paths_are_errors_not_panics() {
        // `run --metrics-out` and `bench live --out` both surface write
        // failures as Err (main exits 2), never a panic.
        let err = run_cli(argv(
            "run --alg a2 --topo line:3 --horizon 5000 --metrics-out /nonexistent-dir/m.json",
        ))
        .unwrap_err();
        assert!(err.contains("cannot write"), "{err}");
        let err = run_cli(argv(
            "bench live --topo line:2 --duration 120 --rate 40 --eat-ms 1 \
             --out /nonexistent-dir/b.json",
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
        let dir = std::env::temp_dir().join("lme-cli-test-bench-live");
        std::fs::create_dir_all(&dir).unwrap();
        let out_p = dir.join("b.json");
        let jsonl_p = dir.join("b.jsonl");
        let out = run_cli(argv(&format!(
            "bench live --alg a2 --topo line:2 --duration 150 --rate 40 \
             --eat-ms 1 --ns 3 --out {} --metrics-out {}",
            out_p.display(),
            jsonl_p.display()
        )))
        .unwrap();
        assert!(out.contains("scale ladder"), "{out}");
        let json = std::fs::read_to_string(&out_p).unwrap();
        assert!(json.contains("\"scale_rows\""), "{json}");
        assert!(json.contains("\"runtime\": \"sharded\""), "{json}");
        assert!(!json.contains("thread"), "{json}");
        assert!(!json.contains("skipped"), "{json}");
        assert!(json.contains("\"net_max_node_decode_errors\""), "{json}");
        assert!(json.contains("\"net_nodes_with_errors\""), "{json}");
        let jsonl = std::fs::read_to_string(&jsonl_p).unwrap();
        // One line per main row (6 algorithms) + the one scale rung.
        assert_eq!(jsonl.lines().count(), 7, "{jsonl}");
        std::fs::remove_file(&out_p).ok();
        std::fs::remove_file(&jsonl_p).ok();
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
        // `bench live` has no explicit-graph driver either; it says so
        // instead of panicking.
        let err = run_cli(argv("bench live --topo tree:7 --duration 100")).unwrap_err();
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
        let dir = std::env::temp_dir().join("lme-cli-test-bench-channel");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("channel.json");
        let out = run_cli(argv(&format!(
            "bench channel --alg a2 --horizon 6000 --out {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("results written to"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        for model in [
            "iid",
            "constant-bandwidth",
            "shared-medium",
            "gilbert-elliott",
        ] {
            assert!(json.contains(&format!("\"model\": \"{model}\"")), "{json}");
        }
        for topo in ["clique:8", "ring:8"] {
            assert!(json.contains(&format!("\"topo\": \"{topo}\"")), "{json}");
        }
        assert!(json.matches("\"violations\": 0").count() == 8, "{json}");
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
        let dir = std::env::temp_dir().join("lme-cli-test-check");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("witness.json");
        let out = run_cli(argv(&format!(
            "check --alg a1-greedy --topo line:3 --mutate no-sdf-guard \
             --horizon 4000 --witness-out {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("VIOLATION lme-safety"), "{out}");
        assert!(out.contains("witness written to"), "{out}");
        let a = run_cli(argv(&format!("check --replay {} --jobs 1", path.display()))).unwrap();
        let b = run_cli(argv(&format!("check --replay {} --jobs 4", path.display()))).unwrap();
        assert!(a.contains("violation reproduced: lme-safety"), "{a}");
        assert!(a.contains("trace ("), "{a}");
        assert_eq!(a, b, "witness replay must not depend on --jobs");
        std::fs::remove_file(&path).ok();
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
        let out = run_cli(argv(
            "run --alg a1-linial --topo random:12:3 --moves 4 --horizon 12000",
        ))
        .unwrap();
        assert!(out.contains("safety violations : 0"), "{out}");
    }
}
