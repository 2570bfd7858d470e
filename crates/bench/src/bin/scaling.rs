//! Experiments C1–C2 — response-time scaling behind Theorems 16, 22, 25, 26.
//!
//! * **C2-static (Thm 26)**: cold start on a line — all nodes hungry at
//!   once forces the worst-case priority chain; the slowest node's first
//!   response grows ~linearly in `n` (the `O(n)` bound for Algorithm 2;
//!   the first-meal chain of the color/fork algorithms behaves alike).
//! * **C1-n (Thm 16/22)**: steady state on a line — once exit-colors
//!   converge to `[0, δ]`, response times are independent of `n` for every
//!   algorithm (δ fixed); this is the paper's "scalability" claim.
//! * **C1-δ (Thm 16/22)**: steady state on cliques — response grows with δ
//!   (polynomial in δ; constants differ per algorithm).
//! * **C2-mobile (Thm 25)**: mobility costs — mobile vs static percentiles
//!   on a random graph, plus the recoloring-cost comparison between the
//!   greedy (`O(n)` worst case) and Linial (`O(log* n)`) procedures under
//!   *simultaneous* movers.
//!
//! Every grid fans out over the parallel sweep executor: `--jobs N` bounds
//! the workers (output is identical for any value), `--metrics-out PATH`
//! captures the sweep-cell runs as JSON lines.
//!
//! Run: `cargo run --release -p lme-bench --bin scaling [--quick]
//!       [--jobs N] [--metrics-out PATH]`

use harness::{
    par_map, run_cells, topology, AlgKind, Job, RunSpec, SweepCell, SweepReport, Table, Topo,
    WaypointPlan,
};
use lme_bench::{jobs, recoloring_a1, section, sized, write_metrics};
use manet_sim::{Command, Position, SimTime};

const KINDS: [AlgKind; 4] = [
    AlgKind::ChandyMisra,
    AlgKind::A1Greedy,
    AlgKind::A1Linial,
    AlgKind::A2,
];

fn cell(label: String, kind: AlgKind, spec: RunSpec, positions: Vec<(f64, f64)>) -> SweepCell {
    SweepCell {
        label,
        kind,
        spec,
        topo: Topo::Geo(positions),
        commands: Vec::new(),
        job: Job::Run,
    }
}

fn cold_start_line(jobs: usize, all_runs: &mut SweepReport) {
    section("C2-static: cold start, line, all hungry at t=1 (worst chain) — max first response");
    let sizes = sized(vec![8usize, 16, 32, 48, 64], vec![8, 16, 24]);
    let cells: Vec<SweepCell> = sizes
        .iter()
        .flat_map(|&n| {
            let spec = RunSpec {
                horizon: 40_000 + 2_000 * n as u64,
                cyclic: false,
                first_hungry: (1, 1),
                ..RunSpec::default()
            };
            KINDS
                .iter()
                .map(move |&kind| cell(format!("line{n}"), kind, spec.clone(), topology::line(n)))
        })
        .collect();
    let runs = run_cells(&cells, jobs).runs;
    let mut table = Table::new(&[
        "n",
        "chandy-misra",
        "A1-greedy",
        "A1-linial",
        "A2",
        "CM / n",
    ]);
    for (i, &n) in sizes.iter().enumerate() {
        let group = &runs[i * KINDS.len()..(i + 1) * KINDS.len()];
        let mut row = vec![n.to_string()];
        let mut cm_max = 0;
        for (r, &kind) in group.iter().zip(&KINDS) {
            assert_eq!(r.violations, 0, "{} unsafe", kind.name());
            assert_eq!(
                r.meals,
                n as u64,
                "{}: starvation in the cold-start chain",
                kind.name()
            );
            let max = r.rt_all.max;
            if kind == AlgKind::ChandyMisra {
                cm_max = max;
            }
            row.push(max.to_string());
        }
        row.push(format!("{:.1}", cm_max as f64 / n as f64));
        table.row(row);
    }
    print!("{table}");
    println!(
        "expected shape: Chandy-Misra's dirty-fork chains grow with n, while the paper's \
         algorithms stay flat — comfortably inside their O(n)-type worst-case bounds \
         (randomized delays break the adversarial chains those bounds describe)"
    );
    all_runs.runs.extend(runs);
}

fn steady_state_line(jobs: usize, all_runs: &mut SweepReport) {
    section("C1-n: steady state on a line (δ = 2) — p95 static response vs n");
    let sizes = sized(vec![8usize, 16, 32, 64], vec![8, 16]);
    let spec = RunSpec {
        horizon: sized(60_000, 15_000),
        ..RunSpec::default()
    };
    let cells: Vec<SweepCell> = sizes
        .iter()
        .flat_map(|&n| {
            let spec = spec.clone();
            KINDS
                .iter()
                .map(move |&kind| cell(format!("line{n}"), kind, spec.clone(), topology::line(n)))
        })
        .collect();
    let runs = run_cells(&cells, jobs).runs;
    let mut table = Table::new(&["n", "chandy-misra", "A1-greedy", "A1-linial", "A2"]);
    for (i, &n) in sizes.iter().enumerate() {
        let group = &runs[i * KINDS.len()..(i + 1) * KINDS.len()];
        let mut row = vec![n.to_string()];
        for r in group {
            assert_eq!(r.violations, 0);
            row.push(r.rt_static.p95.to_string());
        }
        table.row(row);
    }
    print!("{table}");
    println!("expected shape: columns ~flat — steady-state response independent of n at fixed δ");
    all_runs.runs.extend(runs);
}

fn steady_state_clique(jobs: usize, all_runs: &mut SweepReport) {
    section("C1-δ: steady state on cliques — p95 static response vs δ");
    let sizes = sized(vec![3usize, 5, 9, 13, 17], vec![3, 5, 9]);
    let spec = RunSpec {
        horizon: sized(80_000, 20_000),
        ..RunSpec::default()
    };
    let cells: Vec<SweepCell> = sizes
        .iter()
        .flat_map(|&k| {
            let spec = spec.clone();
            KINDS.iter().map(move |&kind| {
                cell(
                    format!("clique{k}"),
                    kind,
                    spec.clone(),
                    topology::clique(k),
                )
            })
        })
        .collect();
    let runs = run_cells(&cells, jobs).runs;
    let mut table = Table::new(&["δ", "chandy-misra", "A1-greedy", "A1-linial", "A2"]);
    for (i, &k) in sizes.iter().enumerate() {
        let group = &runs[i * KINDS.len()..(i + 1) * KINDS.len()];
        let mut row = vec![(k - 1).to_string()];
        for r in group {
            assert_eq!(r.violations, 0);
            row.push(r.rt_static.p95.to_string());
        }
        table.row(row);
    }
    print!("{table}");
    println!("expected shape: response grows with δ for every algorithm (contention is per-neighborhood)");
    all_runs.runs.extend(runs);
}

fn mobile_vs_static(jobs: usize, all_runs: &mut SweepReport) {
    section("C2-mobile: mobility cost on a 32-node random graph — p50/p95");
    let n = sized(32, 12);
    let horizon = sized(60_000, 12_000);
    let positions = topology::random_connected(n, 97);
    let spec = RunSpec {
        horizon,
        ..RunSpec::default()
    };
    let plan = WaypointPlan {
        area_side: (n as f64 / 1.6).sqrt(),
        moves: sized(50, 10),
        window: (horizon / 10, horizon * 9 / 10),
        speed: Some(0.25),
        seed: 13,
    };
    let commands = plan.commands(n);
    // Per kind: one static cell, one mobile cell (kind-major order).
    let cells: Vec<SweepCell> = KINDS
        .iter()
        .flat_map(|&kind| {
            [
                cell(
                    format!("rand{n}:static"),
                    kind,
                    spec.clone(),
                    positions.clone(),
                ),
                SweepCell {
                    commands: commands.clone(),
                    ..cell(
                        format!("rand{n}:mobile"),
                        kind,
                        spec.clone(),
                        positions.clone(),
                    )
                },
            ]
        })
        .collect();
    let runs = run_cells(&cells, jobs).runs;
    let mut table = Table::new(&[
        "algorithm",
        "static p50/p95",
        "mobile p50/p95",
        "mobile meals",
    ]);
    for (i, &kind) in KINDS.iter().enumerate() {
        let (stat, mob) = (&runs[2 * i], &runs[2 * i + 1]);
        assert_eq!(stat.violations + mob.violations, 0);
        let (s, m) = (&stat.rt_static, &mob.rt_static);
        table.row([
            kind.name().to_string(),
            format!("{}/{}", s.p50, s.p95),
            format!("{}/{}", m.p50, m.p95),
            mob.meals.to_string(),
        ]);
    }
    print!("{table}");
    println!("expected shape: mobility inflates tails moderately; no algorithm loses safety or livelocks");
    all_runs.runs.extend(runs);
}

fn simultaneous_movers(jobs: usize) {
    section("C2-recolor: k simultaneous movers into one region — post-move p95 (greedy vs Linial recoloring)");
    // k nodes teleport at the same instant next to a resident line, forcing
    // k concurrent recolorings. The greedy procedure floods the whole
    // concurrent-recoloring component (O(n) worst case); Linial needs only
    // its log* n rounds.
    let resident = sized(16usize, 8);
    let ks = sized(vec![2usize, 4, 8, 12], vec![2, 4]);
    // Per-node sample filtering keeps this off the SweepCell path; the
    // (k, kind) grid still fans out through par_map.
    let grid: Vec<(usize, AlgKind)> = ks
        .iter()
        .flat_map(|&k| [(k, AlgKind::A1Greedy), (k, AlgKind::A1Linial)])
        .collect();
    let p95s = par_map(&grid, jobs, |&(k, kind)| {
        let mut positions = topology::line(resident);
        // Movers start in a far-away staging clique.
        for i in 0..k {
            positions.push((200.0 + 0.2 * i as f64, 200.0));
        }
        let move_at = 2_000u64;
        let horizon = sized(40_000u64, 12_000);
        let spec = RunSpec {
            horizon,
            delta_bound: Some(8),
            ..RunSpec::default()
        };
        let commands: Vec<(SimTime, Command)> = (0..k)
            .map(|i| {
                // Land in a contiguous strip so the movers are adjacent to
                // each other: their recolorings form one concurrent component.
                let x = (i as f64).min(resident as f64 - 1.0);
                (
                    SimTime(move_at),
                    Command::Teleport {
                        node: manet_sim::NodeId((resident + i) as u32),
                        dest: Position { x, y: 1.0 },
                    },
                )
            })
            .collect();
        let out = harness::run_algorithm(kind, &spec, &positions, &commands);
        assert!(out.violations.is_empty());
        let post: Vec<u64> = out
            .metrics
            .samples
            .iter()
            .filter(|s| s.hungry_at >= SimTime(move_at) && !s.moved)
            .map(|s| s.response())
            .collect();
        harness::Summary::of(&post).p95
    });
    let mut table = Table::new(&[
        "movers k",
        "A1-greedy p95 (post-move)",
        "A1-linial p95 (post-move)",
    ]);
    for (i, &k) in ks.iter().enumerate() {
        table.row([
            k.to_string(),
            p95s[2 * i].to_string(),
            p95s[2 * i + 1].to_string(),
        ]);
    }
    print!("{table}");
    println!(
        "expected shape: post-move latency grows with the movers' contention but both \
         variants cope; the asymptotic gap between the procedures (Θ(k) greedy rounds vs \
         constant log* n Linial rounds) is isolated at the procedure level in \
         coloring_exp C4-b — here system-level noise (doorways, fork traffic) dominates \
         because concurrent-recoloring components stay small under realistic arrival jitter"
    );
}

fn bootstrap_recoloring(jobs: usize) {
    section(
        "C2-boot: initial recoloring at cold start — max first response vs n (greedy vs Linial)",
    );
    // The paper initializes colors by running the recoloring module on
    // every node. With the whole line hungry at once, recoloring components
    // are large: the greedy flood must traverse them (O(n) per Lemma 15)
    // while Linial needs only its log* n rounds (Lemma 21) — the
    // system-level counterpart of coloring_exp C4-b.
    let sizes = sized(vec![8usize, 16, 32, 48], vec![8, 16]);
    let grid: Vec<(usize, AlgKind)> = sizes
        .iter()
        .flat_map(|&n| [(n, AlgKind::A1Greedy), (n, AlgKind::A1Linial)])
        .collect();
    let maxes = par_map(&grid, jobs, |&(n, kind)| {
        let spec = RunSpec {
            horizon: 60_000 + 3_000 * n as u64,
            cyclic: false,
            first_hungry: (1, 1),
            ..RunSpec::default()
        };
        let out = harness::run_protocol(
            &spec,
            &Topo::Geo(topology::line(n)),
            recoloring_a1(kind, n),
            |_| {},
        );
        assert!(out.violations.is_empty());
        assert_eq!(out.total_meals(), n as u64, "{}: starvation", kind.name());
        out.all_summary().max
    });
    let mut table = Table::new(&["n", "A1-greedy max", "A1-linial max", "greedy/linial"]);
    for (i, &n) in sizes.iter().enumerate() {
        let (greedy, linial) = (maxes[2 * i], maxes[2 * i + 1]);
        table.row([
            n.to_string(),
            greedy.to_string(),
            linial.to_string(),
            format!("{:.2}", greedy as f64 / linial as f64),
        ]);
    }
    print!("{table}");
    println!(
        "expected shape: the greedy column grows faster with n than the Linial column          (its recoloring flood must traverse each concurrent component); the ratio rises"
    );
}

fn hub_vs_leaves_star(jobs: usize) {
    section("C1-star: explicit star graphs — hub vs leaf p95 static response vs δ");
    // Stars cannot be embedded in the unit disk beyond 5 leaves; the
    // explicit-graph engine runs them anyway. Leaves conflict only with
    // the hub, so leaf latency stays flat while the hub's grows with δ —
    // per-neighborhood contention in its purest form.
    let sizes = sized(vec![2usize, 4, 8, 16, 24], vec![2, 4, 8]);
    let grid: Vec<(usize, AlgKind)> = sizes
        .iter()
        .flat_map(|&leaves| [(leaves, AlgKind::A2), (leaves, AlgKind::A1Greedy)])
        .collect();
    let rows = par_map(&grid, jobs, |&(leaves, kind)| {
        let (n, edges) = harness::topology::star_edges(leaves);
        let star = Topo::Graph { n, edges };
        let spec = RunSpec {
            horizon: sized(80_000, 20_000),
            ..RunSpec::default()
        };
        let out = harness::run(kind, &spec, &star, &[], None);
        assert!(out.violations.is_empty());
        let hub: Vec<u64> = out
            .metrics
            .samples
            .iter()
            .filter(|s| s.node == manet_sim::NodeId(0))
            .map(|s| s.response())
            .collect();
        let leaf: Vec<u64> = out
            .metrics
            .samples
            .iter()
            .filter(|s| s.node != manet_sim::NodeId(0))
            .map(|s| s.response())
            .collect();
        (
            harness::Summary::of(&hub).p95,
            harness::Summary::of(&leaf).p95,
        )
    });
    let mut table = Table::new(&[
        "δ (leaves)",
        "hub p95 (A2)",
        "leaf p95 (A2)",
        "hub p95 (A1-greedy)",
        "leaf p95 (A1-greedy)",
    ]);
    for (i, &leaves) in sizes.iter().enumerate() {
        let (a2, a1) = (rows[2 * i], rows[2 * i + 1]);
        table.row([
            leaves.to_string(),
            a2.0.to_string(),
            a2.1.to_string(),
            a1.0.to_string(),
            a1.1.to_string(),
        ]);
    }
    print!("{table}");
    println!("expected shape: hub latency grows with δ; leaf latency stays ~flat (they conflict only with the hub)");
}

fn main() {
    let jobs = jobs();
    let mut all_runs = SweepReport::default();
    cold_start_line(jobs, &mut all_runs);
    steady_state_line(jobs, &mut all_runs);
    steady_state_clique(jobs, &mut all_runs);
    mobile_vs_static(jobs, &mut all_runs);
    hub_vs_leaves_star(jobs);
    bootstrap_recoloring(jobs);
    simultaneous_movers(jobs);
    write_metrics(&all_runs);
}
