//! Generate the repository's SVG figures under `figures/` from live
//! experiment runs (deterministic seeds; `--quick` shrinks the sweeps).
//!
//! * `failure_locality.svg` — max starvation distance per algorithm after a
//!   mid-CS center crash on a line (Table 1 / C3 headline).
//! * `bootstrap_recoloring.svg` — max first response vs n with the paper's
//!   initialization (greedy vs Linial recoloring; Theorems 16 vs 22).
//! * `response_vs_delta.svg` — steady-state p95 vs δ on cliques for four
//!   algorithms (C1-δ).
//!
//! Run: `cargo run --release -p lme-bench --bin figures [--quick]`

use harness::{crash_probe, run_algorithm, run_protocol, topology, AlgKind, RunSpec, Topo};
use lme_bench::svg::{BarChart, LineChart, Series};
use lme_bench::{recoloring_a1, sized};
use manet_sim::NodeId;

fn write(name: &str, svg: &str) -> Result<(), String> {
    std::fs::create_dir_all("figures").map_err(|e| format!("cannot create figures/: {e}"))?;
    let path = format!("figures/{name}");
    std::fs::write(&path, svg).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

fn failure_locality_figure() -> Result<(), String> {
    let n = sized(31, 13);
    let spec = RunSpec {
        horizon: sized(100_000, 20_000),
        ..RunSpec::default()
    };
    let mut bars = Vec::new();
    for kind in AlgKind::all() {
        let report = crash_probe(
            kind,
            &spec,
            &Topo::Geo(topology::line(n)),
            NodeId(n as u32 / 2),
            spec.horizon / 20,
        );
        bars.push((kind.name().to_string(), report.locality.unwrap_or(0) as f64));
    }
    let chart = BarChart {
        title: "Empirical failure locality".into(),
        subtitle: format!(
            "{n}-node line, center crashed mid-critical-section; max hop distance of a starving node"
        ),
        y_label: "starvation distance (hops)".into(),
        bars,
    };
    write("failure_locality.svg", &chart.render())
}

fn bootstrap_figure() -> Result<(), String> {
    let sizes = sized(vec![8usize, 16, 32, 48], vec![8, 16]);
    let mut greedy = Vec::new();
    let mut linial = Vec::new();
    for &n in &sizes {
        let spec = RunSpec {
            horizon: 60_000 + 3_000 * n as u64,
            cyclic: false,
            first_hungry: (1, 1),
            ..RunSpec::default()
        };
        for (kind, out_points) in [
            (AlgKind::A1Greedy, &mut greedy),
            (AlgKind::A1Linial, &mut linial),
        ] {
            let out = run_protocol(
                &spec,
                &Topo::Geo(topology::line(n)),
                recoloring_a1(kind, n),
                |_| {},
            );
            out_points.push((n as f64, out.all_summary().max as f64));
        }
    }
    let chart = LineChart {
        title: "Initial recoloring: greedy O(n) vs Linial O(log* n)".into(),
        subtitle: "line topology, all nodes hungry and recoloring at once; max first response"
            .into(),
        x_label: "nodes (n)".into(),
        y_label: "max first response (ticks)".into(),
        series: vec![
            Series {
                name: "A1-greedy".into(),
                points: greedy,
            },
            Series {
                name: "A1-linial".into(),
                points: linial,
            },
        ],
    };
    write("bootstrap_recoloring.svg", &chart.render())
}

fn delta_figure() -> Result<(), String> {
    let sizes = sized(vec![3usize, 5, 9, 13, 17], vec![3, 5, 9]);
    let kinds = [AlgKind::ChandyMisra, AlgKind::A1Greedy, AlgKind::A2];
    let mut series: Vec<Series> = kinds
        .iter()
        .map(|k| Series {
            name: k.name().into(),
            points: Vec::new(),
        })
        .collect();
    for &k in &sizes {
        let spec = RunSpec {
            horizon: sized(80_000, 20_000),
            ..RunSpec::default()
        };
        for (i, kind) in kinds.into_iter().enumerate() {
            let out = run_algorithm(kind, &spec, &topology::clique(k), &[]);
            series[i]
                .points
                .push(((k - 1) as f64, out.static_summary().p95 as f64));
        }
    }
    let chart = LineChart {
        title: "Steady-state response vs neighborhood size".into(),
        subtitle: "cliques (δ = n − 1), cyclic workload; p95 of static episodes".into(),
        x_label: "maximum degree δ".into(),
        y_label: "p95 response (ticks)".into(),
        series,
    };
    write("response_vs_delta.svg", &chart.render())
}

fn main() {
    let run = || -> Result<(), String> {
        failure_locality_figure()?;
        bootstrap_figure()?;
        delta_figure()
    };
    if let Err(e) = run() {
        eprintln!("figures: {e}");
        std::process::exit(2);
    }
}
