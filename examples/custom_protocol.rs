//! Writing your own protocol against the simulator — the downstream-user
//! path. This example implements a deliberately naive "polite backoff"
//! mutual-exclusion protocol in ~60 lines, runs it next to Algorithm 2 on
//! the same workload, and lets the safety monitor and fairness index show
//! where naivety loses: simultaneous claims race inside the message-delay
//! window (hundreds of violations), and ID-based deference starves the
//! largest IDs — while Algorithm 2 is violation-free with Jain index 1.0.
//!
//! Run with: `cargo run --example custom_protocol`

use manet_local_mutex::harness::{stats::jain_index, topology, Workload};
use manet_local_mutex::lme::Algorithm2;
use manet_local_mutex::sim::{
    digest_of, Context, DiningState, Engine, Event, Metrics, NodeId, Protocol, SafetyMonitor,
    SimConfig, SimTime,
};

/// Naive protocol: announce intent; enter only if no *smaller-ID* neighbor
/// announced first; retry on a timer otherwise. Looks plausible, but two
/// nodes whose `Want`s cross in flight can both enter (unsafe), and
/// deference by fixed ID starves the largest IDs.
///
/// Messages must be `Hash` (the engine's state digest hashes queued ones);
/// deriving `Hash` on the state too lets `state_digest` opt the protocol
/// into the model checker's state deduplication.
#[derive(Hash)]
struct PoliteBackoff {
    me: NodeId,
    state: DiningState,
    /// Neighbors currently claiming the region.
    claims: std::collections::BTreeSet<NodeId>,
}

#[derive(Clone, Debug, PartialEq, Hash)]
enum Claim {
    Want,
    Release,
}

impl PoliteBackoff {
    fn try_enter(&mut self, ctx: &mut Context<'_, Claim>) {
        if self.state != DiningState::Hungry {
            return;
        }
        if self.claims.iter().all(|&j| j > self.me) {
            self.state = DiningState::Eating;
        } else {
            ctx.set_timer(17, 0); // back off and retry
        }
    }
}

impl Protocol for PoliteBackoff {
    type Msg = Claim;
    fn on_event(&mut self, ev: Event<Claim>, ctx: &mut Context<'_, Claim>) {
        match ev {
            Event::Hungry => {
                self.state = DiningState::Hungry;
                ctx.broadcast(Claim::Want);
                // Wait one delay bound for conflicting claims to arrive.
                ctx.set_timer(12, 0);
            }
            Event::ExitCs => {
                self.state = DiningState::Thinking;
                ctx.broadcast(Claim::Release);
            }
            Event::Message { from, msg } => {
                match msg {
                    Claim::Want => {
                        self.claims.insert(from);
                    }
                    Claim::Release => {
                        self.claims.remove(&from);
                    }
                }
                // NOTE: deliberately no re-entry attempt here; the timer
                // drives retries (keeps the example minimal).
            }
            Event::Timer { .. } => self.try_enter(ctx),
            Event::LinkDown { peer } => {
                self.claims.remove(&peer);
            }
            _ => {}
        }
    }
    fn dining_state(&self) -> DiningState {
        self.state
    }
    fn state_digest(&self) -> Option<u64> {
        Some(digest_of(self))
    }
}

fn run<P: Protocol + 'static, F: FnMut(manet_local_mutex::sim::NodeSeed) -> P + 'static>(
    factory: F,
) -> (Vec<u64>, usize) {
    let n = 6;
    let mut engine: Engine<P> = Engine::new(SimConfig::default(), topology::clique(n), factory);
    let (metrics, data) = Metrics::new(n);
    engine.add_hook(Box::new(metrics));
    let (monitor, violations) = SafetyMonitor::new(false);
    engine.add_hook(Box::new(monitor));
    engine.add_hook(Box::new(Workload::cyclic(10..=25, 20..=60, 7)));
    for i in 0..n as u32 {
        engine.set_hungry_at(SimTime(1), NodeId(i));
    }
    engine.run_until(SimTime(30_000));
    let meals = data.borrow().meals.clone();
    let n_violations = violations.borrow().len();
    (meals, n_violations)
}

fn main() {
    let (naive_meals, naive_violations) = run(|seed| PoliteBackoff {
        me: seed.id,
        state: DiningState::Thinking,
        claims: std::collections::BTreeSet::new(),
    });
    let (a2_meals, a2_violations) = run(|seed| Algorithm2::new(&seed));

    println!("6-node clique, identical workload, 30 000 ticks\n");
    println!("naive polite-backoff : meals {naive_meals:?}");
    println!(
        "                       violations {naive_violations}, Jain fairness {:.2}",
        jain_index(&naive_meals)
    );
    println!("Algorithm 2          : meals {a2_meals:?}");
    println!(
        "                       violations {a2_violations}, Jain fairness {:.2}",
        jain_index(&a2_meals)
    );

    assert_eq!(a2_violations, 0, "Algorithm 2 must be violation-free");
    assert!(
        a2_meals.iter().all(|&m| m > 0),
        "Algorithm 2 must starve nobody"
    );
    assert!(
        naive_violations > 0,
        "the naive protocol races inside the delay window"
    );
    assert!(
        jain_index(&a2_meals) > jain_index(&naive_meals),
        "Algorithm 2 should distribute the critical section more fairly"
    );
    println!("\nOK: the paper's algorithm dominates the naive one on both safety and fairness.");
}
