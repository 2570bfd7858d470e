//! Conformance bridge: replay a live run inside the deterministic engine.
//!
//! A live execution is one schedule drawn from the model's adversary —
//! every message took *some* delay in wall time. [`conformance_replay`]
//! exports that delay sequence as an [`ImportedSchedule`] (per-channel
//! FIFO queues of quantized delivery delays) and re-runs the same
//! algorithm, topology, and workload shape under the simulator. Two
//! checks tie the runtimes together:
//!
//! * the replay must be **safe** under the engine's own monitor, and
//! * the **eating census must match**: with a one-shot workload on a
//!   static topology every node eats exactly once no matter how delivery
//!   delays fall, so a live census and a sim census that disagree expose
//!   a lost session — a real divergence between the runtimes, not noise.
//!
//! The replay is *timing-shape* conformance, not lock-step replay: exact
//! event-order replay of a live run inside the sim is a fixed point by
//! construction (the schedule dictates the order), so the meaningful
//! assertion is that the live timing profile, pushed through the model,
//! preserves the outcomes the model promises.

use harness::{run, Topo};
use manet_sim::SimConfig;

use crate::runtime::{LiveConfig, LiveOutcome};

/// What the conformance replay observed.
#[derive(Clone, Debug)]
pub struct ConformanceReport {
    /// Completed meals per node in the live run.
    pub live_census: Vec<u64>,
    /// Completed meals per node in the simulator replay.
    pub sim_census: Vec<u64>,
    /// Safety violations in the replay (must be 0).
    pub sim_violations: usize,
    /// Delivery delays imported from the live trace.
    pub imported_delays: usize,
    /// Whether the two censuses agree.
    pub census_match: bool,
}

impl ConformanceReport {
    /// True when the replay was safe and the censuses agree.
    pub fn conforms(&self) -> bool {
        self.sim_violations == 0 && self.census_match
    }
}

/// Replay `outcome`'s delivery timing inside the deterministic engine and
/// compare outcomes.
///
/// # Errors
///
/// Requires a one-shot, fault-free live run on a static topology — the
/// regime where the eating census is schedule-independent. Anything else
/// would make a census mismatch meaningless.
pub fn conformance_replay(
    cfg: &LiveConfig,
    outcome: &LiveOutcome,
) -> Result<ConformanceReport, String> {
    if !cfg.one_shot {
        return Err("conformance replay needs a one-shot live run (--oneshot)".into());
    }
    if !cfg.commands.is_empty() {
        return Err("conformance replay needs a fault-free, static live run".into());
    }
    let sim = SimConfig {
        seed: cfg.seed,
        ..SimConfig::default()
    };
    // Quantize the live eating time into ticks, clamped under τ.
    let eat_ticks =
        (cfg.eat_ms.saturating_mul(1_000_000) / cfg.tick_ns.max(1)).clamp(1, sim.max_eating_ticks);
    let schedule =
        outcome
            .trace
            .to_schedule(cfg.tick_ns, sim.min_message_delay, sim.max_message_delay);
    let imported_delays = schedule.imported();
    let spec = harness::RunSpec {
        sim,
        horizon: 50_000,
        eat: eat_ticks..=eat_ticks,
        cyclic: false,
        // The live stagger window is up to half a think time; mirror its
        // *shape* in ticks (the exact draw differs — that's the point).
        first_hungry: (1, 400),
        panic_on_violation: false,
        ..harness::RunSpec::default()
    };
    let sim_out = run(
        cfg.alg,
        &spec,
        &Topo::Geo(cfg.positions.clone()),
        &[],
        Some(Box::new(schedule)),
    );
    let live_census = outcome.meals.clone();
    let sim_census = sim_out.metrics.meals.clone();
    let census_match = live_census == sim_census;
    Ok(ConformanceReport {
        live_census,
        sim_census,
        sim_violations: sim_out.violations.len(),
        imported_delays,
        census_match,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_live;
    use crate::transport::TransportKind;
    use harness::AlgKind;
    use manet_sim::{Command, NodeId};

    #[test]
    fn replay_rejects_cyclic_and_faulty_runs() {
        let cfg = LiveConfig::new(
            AlgKind::A2,
            TransportKind::Mpsc,
            vec![(0.0, 0.0), (1.0, 0.0)],
        );
        let mut one_shot = cfg.clone();
        one_shot.one_shot = true;
        one_shot.eat_ms = 1;
        let out = run_live(&one_shot).expect("live run");
        assert!(conformance_replay(&cfg, &out).is_err(), "cyclic rejected");
        let mut crashed = one_shot.clone();
        crashed.commands = vec![(100, Command::Crash(NodeId(0)))];
        assert!(
            conformance_replay(&crashed, &out).is_err(),
            "fault rejected"
        );
    }

    #[test]
    fn one_shot_live_run_conforms_under_replay() {
        let mut cfg = LiveConfig::new(
            AlgKind::A1Greedy,
            TransportKind::Mpsc,
            vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],
        );
        cfg.one_shot = true;
        cfg.eat_ms = 1;
        cfg.duration_ms = 2_000;
        let out = run_live(&cfg).expect("live run");
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        let report = conformance_replay(&cfg, &out).expect("replay");
        assert!(report.imported_delays > 0, "no delays were imported");
        assert!(
            report.conforms(),
            "live and sim diverged: live {:?}, sim {:?}, violations {}",
            report.live_census,
            report.sim_census,
            report.sim_violations
        );
    }
}
