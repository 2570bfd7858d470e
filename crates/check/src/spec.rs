//! The model-checking problem instance: algorithm, topology, workload,
//! bounds, and an optional mutation that deliberately breaks the algorithm
//! (used to validate that the checker actually finds bugs).

use harness::AlgKind;
use manet_sim::ArqConfig;

/// A deliberate, test-only defect injected into the algorithm under check.
///
/// The checker's own sanity suite enables a mutation, verifies that
/// exploration finds the resulting violation, and that the shrunk witness
/// replays to the same violation. With [`Mutation::None`] the algorithms are
/// run exactly as shipped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Mutation {
    /// No mutation: check the algorithm as implemented.
    #[default]
    None,
    /// Disable the behind-SD^f status check of Algorithm 1's request
    /// arbitration (Lines 10–16): a node hands its fork away even while
    /// eating, breaking local mutual exclusion. Only meaningful for the
    /// Algorithm 1 family (including the Choy–Singh baseline built on it).
    NoSdfGuard,
    /// Make every Algorithm 2 node silently drop fork requests arriving
    /// from node 0 — an unfair fork policy that starves the victim after
    /// its first meal while its neighbors keep cycling. Breaks liveness
    /// (never safety): `lme check --liveness` must find the resulting
    /// starvation lasso. Only meaningful for Algorithm 2.
    UnfairFork,
}

impl Mutation {
    /// Stable textual name (used in witness files and on the CLI).
    pub fn name(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::NoSdfGuard => "no-sdf-guard",
            Mutation::UnfairFork => "unfair-fork",
        }
    }

    /// Parse a textual name produced by [`Mutation::name`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the valid spellings.
    pub fn parse(s: &str) -> Result<Mutation, String> {
        match s {
            "none" => Ok(Mutation::None),
            "no-sdf-guard" => Ok(Mutation::NoSdfGuard),
            "unfair-fork" => Ok(Mutation::UnfairFork),
            other => Err(format!(
                "unknown mutation '{other}' (expected 'none', 'no-sdf-guard' or 'unfair-fork')"
            )),
        }
    }
}

/// One model-checking instance: everything needed to run a schedule
/// deterministically except the schedule itself.
#[derive(Clone, Debug)]
pub struct CheckSpec {
    /// Algorithm under check.
    pub alg: AlgKind,
    /// Human-readable topology label (e.g. `line:3`), carried into witnesses.
    pub topo: String,
    /// Number of nodes.
    pub n: usize,
    /// Undirected edges as `(a, b)` pairs with `a, b < n`.
    pub edges: Vec<(u32, u32)>,
    /// Engine seed (fixes everything except the injected schedule choices).
    pub seed: u64,
    /// Maximum message delay ν in ticks; each delivery delay is chosen from
    /// `[1, ν]`, and those choices *are* the schedule space.
    pub nu: u64,
    /// Horizon in ticks; a run also ends early once the event queue drains.
    pub horizon: u64,
    /// Fixed eating duration in ticks (the workload exits the critical
    /// section this long after entry).
    pub eat: u64,
    /// Nodes made hungry at tick 1.
    pub hungry: Vec<u32>,
    /// Optional deliberate defect (see [`Mutation`]).
    pub mutation: Mutation,
    /// Optional ARQ shim configuration. `None` (the default) checks the
    /// bare channel exactly as before; `Some` interposes the reliable-
    /// delivery shim so schedules explore its retransmission machinery too.
    pub arq: Option<ArqConfig>,
    /// Liveness mode: nodes become hungry again `think` ticks after every
    /// exit (so runs cycle instead of draining), progress digests are
    /// attached to every delivery, and each run is scanned for a
    /// *starvation lasso* — a repeated progress digest bracketing a node
    /// that stays hungry across the whole cycle (see DESIGN.md §9).
    pub liveness: bool,
    /// Thinking time in ticks between an exit and the next hungry command
    /// of the liveness workload. Ignored unless [`CheckSpec::liveness`].
    /// Keeping it at ν or above (like `eat`) preserves the DPOR window
    /// argument for hook-scheduled commands.
    pub think: u64,
}

impl CheckSpec {
    /// Build a spec with the default bounds: seed `0xA77D_2008`, ν = 10,
    /// horizon 4000, eating time 10, and *every* node initially hungry
    /// (maximum contention, the regime where interleavings matter most).
    pub fn new(
        alg: AlgKind,
        topo: impl Into<String>,
        n: usize,
        edges: Vec<(u32, u32)>,
    ) -> CheckSpec {
        CheckSpec {
            alg,
            topo: topo.into(),
            n,
            edges,
            seed: 0xA77D_2008,
            nu: 10,
            horizon: 4000,
            eat: 10,
            hungry: (0..n as u32).collect(),
            mutation: Mutation::None,
            arq: None,
            liveness: false,
            think: 10,
        }
    }

    /// Largest vertex degree of the topology (δ).
    pub fn max_degree(&self) -> usize {
        harness::topology::max_degree(self.n, &self.edges)
    }

    /// Validate the instance.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("check spec needs at least one node".into());
        }
        for &(a, b) in &self.edges {
            if a as usize >= self.n || b as usize >= self.n || a == b {
                return Err(format!("edge ({a}, {b}) is invalid for n = {}", self.n));
            }
        }
        for &h in &self.hungry {
            if h as usize >= self.n {
                return Err(format!(
                    "hungry node {h} is out of range for n = {}",
                    self.n
                ));
            }
        }
        if self.nu == 0 {
            return Err("nu must be ≥ 1".into());
        }
        if self.eat == 0 {
            return Err("eat must be ≥ 1".into());
        }
        if self.mutation == Mutation::NoSdfGuard
            && !matches!(
                self.alg,
                AlgKind::A1Greedy | AlgKind::A1Linial | AlgKind::A1Random | AlgKind::ChoySingh
            )
        {
            return Err(format!(
                "mutation 'no-sdf-guard' targets the Algorithm 1 family, not {}",
                self.alg.name()
            ));
        }
        if self.mutation == Mutation::UnfairFork && self.alg != AlgKind::A2 {
            return Err(format!(
                "mutation 'unfair-fork' targets Algorithm 2, not {}",
                self.alg.name()
            ));
        }
        if self.liveness && self.think == 0 {
            return Err("liveness mode needs think ≥ 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_valid_and_everyone_is_hungry() {
        let spec = CheckSpec::new(AlgKind::A1Greedy, "line:3", 3, vec![(0, 1), (1, 2)]);
        spec.validate().unwrap();
        assert_eq!(spec.hungry, vec![0, 1, 2]);
        assert_eq!(spec.max_degree(), 2);
    }

    #[test]
    fn rejects_bad_edges_and_hungry_ids() {
        let mut spec = CheckSpec::new(AlgKind::A2, "line:2", 2, vec![(0, 5)]);
        assert!(spec.validate().is_err());
        spec.edges = vec![(0, 1)];
        spec.hungry = vec![7];
        assert!(spec.validate().is_err());
    }

    #[test]
    fn mutation_is_rejected_outside_the_alg1_family() {
        let mut spec = CheckSpec::new(AlgKind::A2, "line:2", 2, vec![(0, 1)]);
        spec.mutation = Mutation::NoSdfGuard;
        assert!(spec.validate().is_err());
        spec.alg = AlgKind::A1Greedy;
        spec.validate().unwrap();
    }

    #[test]
    fn mutation_names_round_trip() {
        for m in [Mutation::None, Mutation::NoSdfGuard, Mutation::UnfairFork] {
            assert_eq!(Mutation::parse(m.name()).unwrap(), m);
        }
        assert!(Mutation::parse("frobnicate").is_err());
    }

    #[test]
    fn unfair_fork_is_rejected_outside_a2_and_liveness_needs_think() {
        let mut spec = CheckSpec::new(AlgKind::A1Greedy, "line:2", 2, vec![(0, 1)]);
        spec.mutation = Mutation::UnfairFork;
        assert!(spec.validate().is_err());
        spec.alg = AlgKind::A2;
        spec.validate().unwrap();
        spec.liveness = true;
        spec.validate().unwrap();
        spec.think = 0;
        assert!(spec.validate().is_err());
    }
}
