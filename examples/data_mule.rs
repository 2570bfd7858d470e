//! Data mule — exclusive access to a shared repository under mobility.
//!
//! The paper's second motivating application: "arbitrate access to some
//! piece of specialized hardware in a region, such as a more powerful
//! computer in the system (e.g., a repository for collected data)". Here
//! two sensor clusters each surround a repository; a *data mule* shuttles
//! between the clusters, and whenever it docks at a cluster it competes
//! with the local sensors for exclusive repository access (the critical
//! section). Mobility exercises the full Algorithm 1 machinery: doorway
//! abandonment, the ⟨update-color, L⟩ handshake, recoloring, and
//! eating→hungry demotion.
//!
//! Run with: `cargo run --example data_mule`

use manet_local_mutex::harness::{run_protocol, topology, RunSpec, Topo};
use manet_local_mutex::lme::Algorithm1;
use manet_local_mutex::sim::{Command, NodeId, Position, SimTime};

fn main() {
    // Cluster A around (0, 0), cluster B around (30, 0), mule starts in A.
    let mut positions: Vec<(f64, f64)> = topology::clique(4);
    positions.extend(topology::clique(4).into_iter().map(|(x, y)| (x + 30.0, y)));
    let mule = NodeId(positions.len() as u32);
    positions.push((0.0, 1.0));
    let n = positions.len();

    let spec = RunSpec {
        horizon: 80_000,
        eat: 10..=25,
        think: 60..=150,
        ..RunSpec::default()
    };

    // The mule shuttles: A → B → A → B …, moving at 0.1 units/tick.
    let mut commands: Vec<(SimTime, Command)> = Vec::new();
    for (k, t) in (5_000..spec.horizon).step_by(10_000).enumerate() {
        let dest = if k % 2 == 0 { (30.0, 1.0) } else { (0.0, 1.0) };
        commands.push((
            SimTime(t),
            Command::StartMove {
                node: mule,
                dest: Position::from(dest),
                speed: 0.1,
            },
        ));
    }

    let out = run_protocol(
        &spec,
        &Topo::Geo(positions),
        |seed| Algorithm1::greedy(&seed),
        |engine| {
            for (at, cmd) in &commands {
                engine.schedule(*at, cmd.clone());
            }
        },
    );

    println!("Data mule among {} nodes (A1-greedy, mobile)", n);
    println!("  repository accesses per node: {:?}", out.metrics.meals);
    println!(
        "  mule accesses               : {}",
        out.metrics.meals[mule.index()]
    );
    println!("  LME violations              : {}", out.violations.len());
    println!("  static-episode latency      : {}", out.static_summary());
    println!("  all-episode latency         : {}", out.all_summary());

    assert!(
        out.violations.is_empty(),
        "repository accessed concurrently"
    );
    assert!(
        out.metrics.meals[mule.index()] > 0,
        "the mule never got the repository"
    );
    assert!(
        out.metrics.meals.iter().all(|&m| m > 0),
        "a cluster node starved"
    );
    println!("OK: exclusive repository access maintained across shuttling.");
}
