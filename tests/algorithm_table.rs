//! Golden pins of the algorithm table: every implemented algorithm, built
//! from its name by `AlgKind`, through the runner on a geometric world with
//! motion, on an explicit graph, and through the model checker. Each cell
//! is one FNV-64 constant (see `tests/sim_golden/mod.rs`).

mod sim_golden;

#[test]
fn every_algorithm_on_a_random_world_with_waypoints() {
    sim_golden::every_algorithm_random_waypoint();
}

#[test]
fn every_algorithm_on_an_explicit_tree() {
    sim_golden::every_algorithm_explicit_tree();
}

#[test]
fn every_algorithm_under_the_checker_on_line3() {
    sim_golden::every_algorithm_check_line3();
}
