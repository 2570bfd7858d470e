//! Exhaustive response-time certification of small instances.
//!
//! `certify` exhausts the **extremal** schedule space of an instance —
//! every delivery whose timing can matter branches between its earliest
//! and latest legal delay — and reports the exact worst-case response
//! time observed, as a machine-readable [`Certificate`] that
//! `tests/paper_bounds.rs` asserts against the paper's O(n) static-case
//! claim for Algorithm 2 (Theorem 26).
//!
//! Two deliberate differences from [`crate::explore`]:
//!
//! * **Timing-exact branching.** The explorer's `forced()` reduction
//!   preserves event *order* but not event *times*: a lone delivery in
//!   its window still arrives up to ν − 1 ticks apart across its legal
//!   delays, which is invisible to the property checks but changes
//!   response times. Certification therefore branches at every delivery
//!   except those whose arrival instant is pinned (degenerate window or
//!   full FIFO clamp), and DPOR stays off.
//! * **Dedup under-reports.** The absolute state digest covers every
//!   queue item with its absolute dispatch time and the monotone
//!   eating-session counters, which was meant to make equal digests
//!   imply identical continuations, so that pruning keeps the worst case.
//!   It does not: on `line:3` dedup certifies a worst response of 41
//!   ticks where exhausting without dedup finds 42
//!   (`dedup_under_reports_the_worst_case_on_line3`). Suspects, per
//!   ROADMAP item 1, which owns the fix: the digest is taken *at a send*,
//!   before the pending delay is chosen, and leaves out the per-link FIFO
//!   floors that clamp the choice and the rest of the sending handler's
//!   outbox. Until then a certificate with dedup is a lower bound on the
//!   extremal worst case.
//!
//! The certificate's `space` field records the `"extremal"` caveat: a
//! worst case over interior delays (2..ν−1) is not enumerated. Response
//! time is measured per node from the hungry command at tick 1 to the
//! first `→ Eating` transition.
//!
//! The search does only the work its merge reads. A run's state digest is
//! computed only past its DFS prefix (inside it the merge never looks), a
//! wave keeps of each run only its branch choices, first-eat times and
//! verdict (no trace, no delivery log), and the seen-set of digests is a
//! plain set that grows with the search, because only the sequential
//! merge, in wave order, reads or writes it. A complete certify therefore
//! reads exactly `schedules − 1 + dedup_prunes` digests.

use std::collections::HashSet;

use crate::explore::run_wave;
use crate::spec::CheckSpec;
use crate::strategy::{Plan, RecorderMode};

/// Certification bounds.
#[derive(Clone, Debug)]
pub struct CertifyConfig {
    /// Maximum schedules before giving up with `complete: false`.
    pub max_schedules: usize,
    /// Worker threads per wave (results are independent of this).
    pub jobs: usize,
    /// Deduplicate subtrees by absolute state digest. Not exact: it can
    /// prune the worst case (see the module docs and ROADMAP item 1);
    /// `false` exhausts the space and is the differential reference.
    pub dedup: bool,
}

impl Default for CertifyConfig {
    fn default() -> CertifyConfig {
        CertifyConfig {
            max_schedules: 2_000_000,
            jobs: 1,
            dedup: true,
        }
    }
}

/// Machine-readable outcome of one certification run.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// Algorithm name.
    pub alg: String,
    /// Topology label.
    pub topo: String,
    /// Number of nodes.
    pub n: usize,
    /// Maximum message delay ν.
    pub nu: u64,
    /// Eating duration in ticks.
    pub eat: u64,
    /// Engine seed.
    pub seed: u64,
    /// Run horizon in ticks.
    pub horizon: u64,
    /// Schedules executed.
    pub schedules: usize,
    /// Whether the extremal schedule space was exhausted. Only a complete,
    /// violation-free, fully-fed certificate certifies anything.
    pub complete: bool,
    /// Largest number of branch points in any single run.
    pub max_branch_points: usize,
    /// Subtrees pruned by absolute-digest dedup.
    pub dedup_prunes: usize,
    /// Worst response time observed: hungry at tick 1 to first `→ Eating`,
    /// maximized over nodes and schedules.
    pub worst_rt: u64,
    /// The node attaining `worst_rt`.
    pub worst_rt_node: u32,
    /// Branch-point delays of the schedule attaining `worst_rt`.
    pub worst_schedule: Vec<u64>,
    /// Which schedule space was exhausted (always `"extremal"`: earliest
    /// and latest legal delay per branch point, interior delays excluded).
    pub space: String,
    /// `property: detail` of a violation, if any schedule violated a
    /// checked property (the certificate is then void).
    pub violation: Option<String>,
    /// Runs that failed to reach quiescence with every node fed; any such
    /// run voids the certificate (its response times are unmeasurable).
    pub unfed_runs: usize,
}

impl Certificate {
    /// Whether this certificate certifies anything: the extremal schedule
    /// space was exhausted, with no violation and every run fed. Then
    /// `worst_rt` is the worst response time the search observed. Without
    /// dedup that is the exact extremal worst case; with dedup it is a
    /// lower bound on it, because dedup can prune the subtree that holds
    /// the worst case (see the module docs and ROADMAP item 1).
    pub fn holds(&self) -> bool {
        self.complete && self.violation.is_none() && self.unfed_runs == 0
    }

    /// Serialize as a single JSON line with a fixed key order.
    pub fn to_json(&self) -> String {
        let sched: Vec<String> = self.worst_schedule.iter().map(u64::to_string).collect();
        format!(
            concat!(
                "{{\"version\":1,\"alg\":\"{}\",\"topo\":\"{}\",\"n\":{},\"nu\":{},",
                "\"eat\":{},\"seed\":{},\"horizon\":{},\"schedules\":{},\"complete\":{},",
                "\"max_branch_points\":{},\"dedup_prunes\":{},\"worst_rt\":{},",
                "\"worst_rt_node\":{},\"worst_schedule\":[{}],\"space\":\"{}\",",
                "\"violation\":{},\"unfed_runs\":{},\"holds\":{}}}"
            ),
            self.alg,
            self.topo,
            self.n,
            self.nu,
            self.eat,
            self.seed,
            self.horizon,
            self.schedules,
            self.complete,
            self.max_branch_points,
            self.dedup_prunes,
            self.worst_rt,
            self.worst_rt_node,
            sched.join(","),
            self.space,
            match &self.violation {
                Some(v) => format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")),
                None => "null".to_string(),
            },
            self.unfed_runs,
            self.holds(),
        )
    }
}

/// Exhaust the extremal schedule space of `spec` and certify its worst
/// observed response time. Same wave determinism as [`crate::explore`]:
/// the result is a pure function of `(spec, cfg.max_schedules, cfg.dedup)`
/// and independent of `cfg.jobs`.
pub fn certify(spec: &CheckSpec, cfg: &CertifyConfig) -> Certificate {
    let rmode = RecorderMode {
        digest: None, // the DFS-with-dedup plan already asks for absolute digests
        branch_all: true,
    };
    // Only the sequential merge reads and writes the seen-set.
    let mut seen: HashSet<u64> = HashSet::new();
    let mut cert = Certificate {
        alg: spec.alg.name().to_string(),
        topo: spec.topo.clone(),
        n: spec.n,
        nu: spec.nu,
        eat: spec.eat,
        seed: spec.seed,
        horizon: spec.horizon,
        schedules: 0,
        complete: false,
        max_branch_points: 0,
        dedup_prunes: 0,
        worst_rt: 0,
        worst_rt_node: 0,
        worst_schedule: Vec::new(),
        space: "extremal".to_string(),
        violation: None,
        unfed_runs: 0,
    };
    let mut frontier: Vec<Vec<u8>> = vec![Vec::new()];
    let mut truncated = false;
    while !frontier.is_empty() {
        let budget = cfg.max_schedules - cert.schedules;
        if budget == 0 {
            return cert; // budget exhausted: incomplete, certifies nothing
        }
        let wave: Vec<Vec<u8>> = if frontier.len() > budget {
            truncated = true;
            frontier.drain(..budget).collect()
        } else {
            std::mem::take(&mut frontier)
        };
        let plans: Vec<Plan> = wave
            .iter()
            .map(|prefix| Plan::Dfs {
                prefix: prefix.clone(),
                dedup: cfg.dedup,
            })
            .collect();
        let verdicts = run_wave(spec, &plans, rmode, cfg.jobs, false);
        cert.schedules += verdicts.len();
        for (prefix, verdict) in wave.iter().zip(&verdicts) {
            cert.max_branch_points = cert.max_branch_points.max(verdict.choices.len());
            if let Some(v) = &verdict.violation {
                cert.violation = Some(format!("{}: {}", v.property, v.detail));
                return cert;
            }
            if !verdict.drained || verdict.first_eat.iter().any(Option::is_none) {
                cert.unfed_runs += 1;
            } else {
                // Response time: hungry commands land at tick 1.
                for (node, first) in verdict.first_eat.iter().enumerate() {
                    let rt = first.expect("checked above").saturating_sub(1);
                    if rt > cert.worst_rt {
                        cert.worst_rt = rt;
                        cert.worst_rt_node = node as u32;
                        cert.worst_schedule = verdict.choices.iter().map(|c| c.delay).collect();
                    }
                }
            }
            // Children: flip each default-earliest branch point at or
            // beyond the prefix (no depth bound — certification exhausts).
            for i in prefix.len()..verdict.choices.len() {
                if cfg.dedup {
                    if let Some(digest) = verdict.choices[i].digest {
                        if !seen.insert(digest) {
                            cert.dedup_prunes += 1;
                            continue;
                        }
                    }
                }
                let mut child: Vec<u8> = verdict.choices[..i].iter().map(|c| c.index).collect();
                child.push(1);
                frontier.push(child);
            }
        }
    }
    cert.complete = !truncated;
    cert
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::AlgKind;

    #[test]
    fn certifies_a_trivial_instance_exactly() {
        // Two nodes, one link: node 0 holds the fork and eats immediately;
        // node 1 needs one request and one fork message.
        let mut spec = CheckSpec::new(AlgKind::A2, "line:2", 2, vec![(0, 1)]);
        spec.nu = 2;
        spec.horizon = 200;
        let cert = certify(&spec, &CertifyConfig::default());
        assert!(cert.holds(), "trivial instance must certify: {cert:?}");
        assert!(cert.schedules >= 1);
        assert!(cert.worst_rt > 0, "node 1 cannot eat instantly");
        let json = cert.to_json();
        assert!(json.contains("\"space\":\"extremal\""));
        assert!(json.contains("\"holds\":true"));
    }

    #[test]
    fn dedup_does_not_change_the_certified_bound() {
        let mut spec = CheckSpec::new(AlgKind::A2, "line:2", 2, vec![(0, 1)]);
        spec.nu = 2;
        spec.horizon = 200;
        let with = certify(&spec, &CertifyConfig::default());
        let without = certify(
            &spec,
            &CertifyConfig {
                dedup: false,
                ..CertifyConfig::default()
            },
        );
        assert!(with.holds() && without.holds());
        assert_eq!(with.worst_rt, without.worst_rt);
        assert!(with.schedules <= without.schedules);
    }

    /// ROADMAP item 1's finding, pinned as it stands: on `line:3` the
    /// dedup prunes a subtree holding the worst case, so the certificate
    /// with dedup reports one tick less than exhausting without it. The
    /// prune counts also pin which states the digest merges. A sound
    /// dedup flips the first triple.
    #[test]
    fn dedup_under_reports_the_worst_case_on_line3() {
        let spec = CheckSpec::new(AlgKind::A2, "line:3", 3, vec![(0, 1), (1, 2)]);
        let run = |dedup| {
            let c = certify(
                &spec,
                &CertifyConfig {
                    dedup,
                    jobs: 2,
                    ..CertifyConfig::default()
                },
            );
            assert!(c.holds(), "{c:?}");
            (c.schedules, c.dedup_prunes, c.worst_rt)
        };
        assert_eq!(run(true), (112, 442, 41));
        assert_eq!(run(false), (3_360, 0, 42));
    }

    /// Every algorithm's dedup partition on `line:3`, pinned: the schedule
    /// and prune counts move whenever a digest merges more or fewer
    /// states, so a change to what an automaton hashes shows up here.
    #[test]
    fn dedup_partition_on_line3_for_every_algorithm() {
        let table = [
            (AlgKind::A2, (112, 442, 41)),
            (AlgKind::A1Greedy, (1_960, 10_875, 45)),
            (AlgKind::A1Linial, (1_960, 10_875, 45)),
            (AlgKind::A1Random, (1_960, 10_875, 45)),
            (AlgKind::ChandyMisra, (22, 22, 31)),
            (AlgKind::ChoySingh, (1_584, 11_795, 43)),
        ];
        for (alg, want) in table {
            let spec = CheckSpec::new(alg, "line:3", 3, vec![(0, 1), (1, 2)]);
            let config = CertifyConfig {
                jobs: 2,
                ..CertifyConfig::default()
            };
            let c = certify(&spec, &config);
            assert!(c.holds(), "{alg:?}: {c:?}");
            assert_eq!((c.schedules, c.dedup_prunes, c.worst_rt), want, "{alg:?}");
        }
    }

    #[test]
    fn jobs_do_not_change_the_certificate() {
        let mut spec = CheckSpec::new(AlgKind::A2, "line:2", 2, vec![(0, 1)]);
        spec.nu = 2;
        spec.horizon = 200;
        let one = certify(&spec, &CertifyConfig::default());
        let four = certify(
            &spec,
            &CertifyConfig {
                jobs: 4,
                ..CertifyConfig::default()
            },
        );
        assert_eq!(one.to_json(), four.to_json());
    }
}
