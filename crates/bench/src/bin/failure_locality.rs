//! Experiment C3 — empirical failure locality (the paper's headline metric).
//!
//! Crash one node mid-run under a cyclic workload and measure the hop
//! distance of every node that subsequently starves. The paper proves:
//!
//! * Algorithm 2: failure locality **2** (optimal — Theorem 25);
//! * Algorithm 1 + Linial: `max(log* n, 4) + 2` (6 for any feasible n);
//! * Algorithm 1 + greedy: `n` (a recoloring wave can stall on the crash);
//! * Choy–Singh: 4 (static setting);
//! * Chandy–Misra: `n` (dirty-fork chains).
//!
//! We probe a long line (worst case for chains) and a 7×7 grid, and also
//! run the canonical Figure 6-style chain where Chandy–Misra's unbounded
//! locality is forced deterministically. Each probe battery fans out over
//! the parallel sweep executor (`--jobs N`; identical output for any value).
//!
//! Run: `cargo run --release -p lme-bench --bin failure_locality [--quick]
//!       [--jobs N]`

use harness::{crash_probe, par_map, topology, AlgKind, RunSpec, Table, Topo};
use lme_bench::{jobs, recoloring_a1, section, sized};
use manet_sim::NodeId;

fn probe_topology(name: &str, positions: &[(f64, f64)], victim: NodeId, horizon: u64, jobs: usize) {
    section(&format!("C3: crash probe on {name} (victim = {victim})"));
    let spec = RunSpec {
        horizon,
        ..RunSpec::default()
    };
    let kinds = AlgKind::all();
    let reports = par_map(&kinds, jobs, |&kind| {
        crash_probe(
            kind,
            &spec,
            &Topo::Geo(positions.to_vec()),
            victim,
            horizon / 20,
        )
    });
    let mut table = Table::new(&[
        "algorithm",
        "FL (paper)",
        "starving nodes",
        "max starvation distance",
        "meals by farthest node",
    ]);
    for (report, &kind) in reports.iter().zip(&kinds) {
        assert!(
            report.outcome.violations.is_empty(),
            "{} unsafe",
            kind.name()
        );
        // The node farthest from the victim must keep making progress for
        // any algorithm with bounded locality.
        let dist = report.outcome.distances_from(victim);
        let far = (0..positions.len())
            .filter(|&i| NodeId(i as u32) != victim)
            .max_by_key(|&i| dist[i].unwrap_or(0))
            .expect("non-trivial topology");
        table.row([
            kind.name().to_string(),
            kind.paper_failure_locality().to_string(),
            report.starving.len().to_string(),
            report.locality.map_or("-".to_string(), |m| m.to_string()),
            report.outcome.metrics.meals[far].to_string(),
        ]);
        if kind == AlgKind::A2 {
            if let Some(m) = report.locality {
                assert!(m <= 2, "A2 locality must be ≤ 2, saw {m}");
            }
        }
    }
    print!("{table}");
}

fn gradient_line(jobs: usize) {
    let n = sized(21usize, 11);
    section(&format!(
        "C3-gradient: mean post-crash response vs distance from the crash ({n}-node line)"
    ));
    let spec = RunSpec {
        horizon: sized(100_000, 20_000),
        ..RunSpec::default()
    };
    let victim = NodeId(n as u32 / 2);
    let kinds = [AlgKind::ChandyMisra, AlgKind::A1Linial, AlgKind::A2];
    let curves = par_map(&kinds, jobs, |&kind| {
        let line = Topo::Geo(topology::line(n));
        let report = crash_probe(kind, &spec, &line, victim, spec.horizon / 20);
        let after = report
            .outcome
            .crash_time
            .unwrap_or(manet_sim::SimTime(spec.horizon / 20));
        harness::response_by_distance(&report.outcome, victim, after)
    });
    let rows: Vec<(&str, Vec<Option<f64>>)> = kinds.iter().map(|k| k.name()).zip(curves).collect();
    let max_d = rows.iter().map(|(_, c)| c.len()).max().unwrap_or(0);
    let mut headers = vec!["distance".to_string()];
    headers.extend(rows.iter().map(|(n, _)| n.to_string()));
    let mut table = Table::new(&headers);
    for d in 1..max_d {
        let mut row = vec![d.to_string()];
        for (_, curve) in &rows {
            row.push(match curve.get(d).copied().flatten() {
                Some(v) => format!("{v:.0}"),
                None => "starved/none".to_string(),
            });
        }
        table.row(row);
    }
    print!("{table}");
    println!(
        "expected shape: the paper's algorithms show elevated latency (or starvation) only \
         at distances 1-2 and a flat tail; Chandy–Misra's disruption spreads across the line"
    );
}

fn dual_crash_independence(jobs: usize) {
    let n = sized(25usize, 13);
    section(&format!(
        "C3-dual: two simultaneous crashes on a {n}-node line — independent containment"
    ));
    // Crash two nodes far apart; for algorithms with failure locality m,
    // each crash is contained independently and the middle keeps eating.
    let spec = RunSpec {
        horizon: sized(100_000, 20_000),
        ..RunSpec::default()
    };
    let v1 = NodeId(n as u32 / 4);
    let v2 = NodeId(3 * n as u32 / 4);
    let kinds = [AlgKind::A1Greedy, AlgKind::A1Linial, AlgKind::A2];
    let results = par_map(&kinds, jobs, |&kind| {
        // First victim crashes by time trigger while eating; second by a
        // scheduled command mid-run (it may or may not hold forks).
        let spec = RunSpec {
            crash_eating: Some((v1, spec.horizon / 20)),
            ..spec.clone()
        };
        let commands = [(
            manet_sim::SimTime(spec.horizon / 10),
            manet_sim::Command::Crash(v2),
        )];
        let out = harness::run_algorithm(kind, &spec, &topology::line(n), &commands);
        assert!(out.violations.is_empty());
        let deadline = manet_sim::SimTime(spec.horizon * 3 / 4);
        let starving = out.metrics.starving_since(deadline);
        let d1 = out.distances_from(v1);
        let d2 = out.distances_from(v2);
        let contained = starving.iter().all(|&s| {
            s == v1
                || s == v2
                || d1[s.index()].is_some_and(|d| d <= 2)
                || d2[s.index()].is_some_and(|d| d <= 2)
        });
        let mid = NodeId(n as u32 / 2);
        (starving.len(), out.metrics.meals[mid.index()], contained)
    });
    let mut table = Table::new(&[
        "algorithm",
        "starving nodes",
        "mid-point meals",
        "contained",
    ]);
    for (&(starving, mid_meals, contained), &kind) in results.iter().zip(&kinds) {
        table.row([
            kind.name().to_string(),
            starving.to_string(),
            mid_meals.to_string(),
            contained.to_string(),
        ]);
        if kind == AlgKind::A2 {
            assert!(contained, "A2 must contain both crashes independently");
        }
    }
    print!("{table}");
    println!("expected shape: each crash is contained in its own 2-neighborhood; the midpoint between them keeps eating");
}

fn recoloring_locality(jobs: usize) {
    let n = sized(25usize, 13);
    section(&format!(
        "C3-recolor: crash during system-wide recoloring ({n}-node line) — the f_color locality"
    ));
    // The §5.4.2 scenario: all nodes start the recoloring module
    // simultaneously (the paper's initialization) and one node is already
    // crashed. It never answers and never NACKs, so its cohort neighbors
    // block mid-procedure; the question is how far the blockage spreads.
    // Greedy: a node at distance k blocks in its k-th iteration — the wave
    // covers the line (failure locality n, Theorem 16). Linial: rounds are
    // capped at log* n, so nodes farther than that finish before the
    // missing messages matter (failure locality max(log* n, 4) + 2,
    // Theorem 22).
    let victim = manet_sim::NodeId(n as u32 / 2);
    let kinds = [AlgKind::A1Greedy, AlgKind::A1Linial];
    let results = par_map(&kinds, jobs, |&kind| {
        let spec = RunSpec {
            horizon: sized(120_000, 30_000),
            cyclic: false,
            first_hungry: (5, 5),
            ..RunSpec::default()
        };
        let out = harness::run_protocol(
            &spec,
            &Topo::Geo(topology::line(n)),
            recoloring_a1(kind, n),
            |e| e.crash_at(manet_sim::SimTime(2), victim),
        );
        assert!(out.violations.is_empty());
        let deadline = manet_sim::SimTime(spec.horizon / 2);
        let dist = out.distances_from(victim);
        let starving: Vec<usize> = out
            .metrics
            .starving_since(deadline)
            .into_iter()
            .filter(|&s| s != victim)
            .filter_map(|s| dist[s.index()])
            .collect();
        let locality = starving.iter().copied().max();
        (starving.len(), locality)
    });
    let mut table = Table::new(&[
        "variant",
        "starving nodes",
        "max starvation distance",
        "paper bound",
    ]);
    for (&(starving, locality), &kind) in results.iter().zip(&kinds) {
        table.row([
            kind.name().to_string(),
            starving.to_string(),
            locality.map_or("-".to_string(), |m| m.to_string()),
            kind.paper_failure_locality().to_string(),
        ]);
        if kind == AlgKind::A1Linial {
            let rounds = coloring::LinialSchedule::compute(n as u64, 2).rounds();
            let bound = (rounds + 4).max(6);
            if let Some(m) = locality {
                assert!(
                    m <= bound,
                    "Linial recoloring locality {m} exceeds its bound {bound}"
                );
            }
        }
    }
    print!("{table}");
    println!(
        "expected shape: the greedy blockage sweeps the line (locality ~n); \
         the Linial blockage stops within its log*-sized radius — the paper's \
         central failure-locality separation between the two variants"
    );
}

fn main() {
    let jobs = jobs();
    let line_n = sized(31, 13);
    probe_topology(
        &format!("a {line_n}-node line"),
        &topology::line(line_n),
        NodeId(line_n as u32 / 2),
        sized(100_000, 20_000),
        jobs,
    );

    let side = sized(7usize, 5);
    probe_topology(
        &format!("a {side}×{side} grid"),
        &topology::grid(side, side),
        NodeId((side * side / 2) as u32),
        sized(100_000, 20_000),
        jobs,
    );

    gradient_line(jobs);
    dual_crash_independence(jobs);
    recoloring_locality(jobs);

    println!(
        "\nexpected shape: A2 never starves beyond distance 2 (optimal); the doorway \
         algorithms stay small; Chandy–Misra's starvation reaches the farthest — its \
         locality grows with the topology (unbounded in n)."
    );
}
