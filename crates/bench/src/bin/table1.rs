//! Experiment T1 — reproduce **Table 1** ("Comparison of algorithms").
//!
//! The paper's Table 1 lists each algorithm's theoretical failure locality
//! and response time. We print those bounds next to *measured* values:
//!
//! * response time (p50/p95 of static episodes) on a 32-node random
//!   unit-disk graph, static and mobile;
//! * empirical failure locality from a crash probe on a 25-node line;
//! * messages per critical section;
//! * safety violations (must be 0 for every implemented algorithm).
//!
//! Tsay–Bagrodia / Sivilotti rows are carried from the literature (the
//! thesis doesn't implement them either); they are marked `paper only`.
//!
//! The per-algorithm measurement triples fan out over the sweep executor
//! (`--jobs N`; identical output for any value); `--metrics-out PATH`
//! captures every run as JSON lines.
//!
//! Run: `cargo run --release --bin table1 [--quick] [--jobs N]
//!       [--metrics-out PATH]`

use harness::{
    crash_probe, par_map, run_algorithm, topology, AlgKind, RunReport, RunSpec, SweepReport, Table,
    Topo, WaypointPlan,
};
use lme_bench::{jobs, section, sized, write_metrics};
use manet_sim::NodeId;

fn main() {
    let n = sized(32, 12);
    let horizon = sized(60_000, 10_000);
    let line_n = sized(25, 11);
    let jobs = jobs();

    let positions = topology::random_connected(n, 7);
    let spec = RunSpec {
        horizon,
        ..RunSpec::default()
    };
    let mobile_plan = WaypointPlan {
        area_side: (n as f64 / 1.6).sqrt().max(1.0),
        moves: sized(40, 8),
        window: (horizon / 10, horizon * 9 / 10),
        speed: Some(0.2),
        seed: 11,
    };
    let mobile_commands = mobile_plan.commands(n);
    let fl_topo = Topo::Geo(topology::line(line_n));
    let fl_spec = RunSpec {
        horizon: sized(80_000, 15_000),
        ..RunSpec::default()
    };

    section("Table 1 — comparison of algorithms (paper bounds vs measured)");
    let kinds = AlgKind::extended();
    let measured = par_map(&kinds, jobs, |&kind| {
        let stat = run_algorithm(kind, &spec, &positions, &[]);
        let mob = run_algorithm(kind, &spec, &positions, &mobile_commands);
        let probe = crash_probe(
            kind,
            &fl_spec,
            &fl_topo,
            NodeId(line_n as u32 / 2),
            fl_spec.horizon / 20,
        );
        (stat, mob, probe)
    });

    let mut table = Table::new(&[
        "algorithm",
        "FL (paper)",
        "FL (measured)",
        "RT (paper)",
        "RT static p50/p95",
        "RT mobile p50/p95",
        "msgs/CS",
        "unsafe",
    ]);
    let mut all_runs = SweepReport::default();
    for ((stat, mob, probe), &kind) in measured.iter().zip(&kinds) {
        let fl = match probe.locality {
            Some(m) => format!("{m} ({} starving)", probe.starving.len()),
            None => "none observed".to_string(),
        };
        let s = stat.static_summary();
        let m = mob.static_summary();
        let name = if kind == AlgKind::A1Random {
            format!("{} (extension)", kind.name())
        } else {
            kind.name().to_string()
        };
        table.row([
            name,
            kind.paper_failure_locality().to_string(),
            fl,
            kind.paper_response_time().to_string(),
            format!("{}/{}", s.p50, s.p95),
            format!("{}/{}", m.p50, m.p95),
            format!("{:.1}", stat.messages_per_meal()),
            format!(
                "{}",
                stat.violations.len() + mob.violations.len() + probe.outcome.violations.len()
            ),
        ]);
        let label_base = format!("rand{n}");
        all_runs.runs.push(RunReport::from_outcome(
            &format!("{label_base}:static"),
            kind.name(),
            spec.sim.seed,
            horizon,
            stat,
            None,
        ));
        all_runs.runs.push(RunReport::from_outcome(
            &format!("{label_base}:mobile"),
            kind.name(),
            spec.sim.seed,
            horizon,
            mob,
            None,
        ));
        all_runs.runs.push(RunReport::from_outcome(
            &format!("line{line_n}:probe"),
            kind.name(),
            fl_spec.sim.seed,
            fl_spec.horizon,
            &probe.outcome,
            Some((probe.starving.len(), probe.locality)),
        ));
    }
    // Literature-only rows of the paper's Table 1.
    table.row([
        "tsay-bagrodia/sivilotti",
        "2",
        "paper only",
        "O(n²) (O(n) fault-free)",
        "paper only",
        "paper only",
        "-",
        "-",
    ]);
    table.row([
        "choy-singh FL3 variant",
        "3",
        "paper only",
        "exp(δ)",
        "paper only",
        "paper only",
        "-",
        "-",
    ]);
    print!("{table}");
    println!(
        "\nworkload: {n}-node random unit-disk graph, cyclic eat 10-30 / think 50-150, \
         horizon {horizon}; mobility: {} random-waypoint moves; \
         FL probe: {line_n}-node line, center crash.",
        mobile_plan.moves
    );
    write_metrics(&all_runs);
}
