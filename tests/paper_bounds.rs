//! Empirical conformance suite for the paper's headline analytic bounds
//! (Attiya/Kogan/Welch, ICDCS 2008, Table 1):
//!
//! * Algorithm 2 has failure locality 2 — a crash starves nothing beyond
//!   two hops (Theorem 26). Checked actively in tier-1.
//! * Algorithm 2's static response time is O(n) — the measured growth
//!   over n ∈ {8, 16, 32, 64} must not be superlinear. Nightly (release).
//! * Algorithm 1's greedy (O((n + δ³)δ)) and Linial (O((log* n + δ⁴)δ))
//!   variants trade response time in opposite directions as δ grows: on
//!   bounded-δ graphs with large n the Linial doorway wins, at large δ
//!   the greedy one does. Nightly (release).
//!
//! The heavy fits are `#[ignore]`d so `cargo test -q` stays fast; the CI
//! nightly matrix runs them with `--release -- --include-ignored`.
//!
//! The degradation matrix at the bottom re-fits the A2 bounds under every
//! channel model × mobility mix: the paper's analysis assumes i.i.d.
//! bounded delay, so the non-iid rows *report* how far contention and
//! burst loss push failure locality and response-time growth — the
//! nightly job fails only on safety violations, never on degraded bounds.

use harness::{
    probe, run_algorithm, run_cells, topology, AlgKind, FaultClass, MobilityMix, RunSpec,
    SweepCell, Topo,
};
use lme_check::{certify, Certificate, CertifyConfig, CheckSpec};
use manet_sim::{ArqConfig, ChannelConfig, NodeId, SimConfig};

fn spec(seed: u64, horizon: u64) -> RunSpec {
    RunSpec {
        sim: SimConfig {
            seed,
            ..SimConfig::default()
        },
        horizon,
        ..RunSpec::default()
    }
}

// ---------------------------------------------------------------------
// Failure locality (tier-1).
// ---------------------------------------------------------------------

/// A2 crash probes: no node more than 2 hops from a mid-CS crash may
/// starve, on a line and on random unit-disk deployments.
#[test]
fn a2_crash_probes_confirm_failure_locality_two() {
    let cells = [
        ("line:9", Topo::Geo(topology::line(9)), NodeId(4)),
        (
            "random:16:1",
            Topo::Geo(topology::random_connected(16, 1)),
            NodeId(7),
        ),
        (
            "random:16:2",
            Topo::Geo(topology::random_connected(16, 2)),
            NodeId(3),
        ),
    ];
    for (label, topo, victim) in cells {
        for seed in [11, 23] {
            let crash = FaultClass::Crash;
            let report = probe(
                AlgKind::A2,
                &spec(seed, 30_000),
                &topo,
                victim,
                crash,
                4_000,
            );
            assert!(
                report.locality.is_none_or(|d| d <= 2),
                "{label} seed {seed}: A2 starved a node {}(>2) hops from the crash; starving: {:?}",
                report.locality.unwrap(),
                report.starving
            );
        }
    }
}

// ---------------------------------------------------------------------
// Response-time growth (nightly, release).
// ---------------------------------------------------------------------

/// Mean static response time of `kind` on `positions`, pooled over seeds.
fn mean_static_rt(kind: AlgKind, positions: &[(f64, f64)], horizon: u64) -> f64 {
    let mut samples = Vec::new();
    for seed in [3, 5, 7] {
        let out = run_algorithm(kind, &spec(seed, horizon), positions, &[]);
        assert!(out.violations.is_empty(), "{}: unsafe run", kind.name());
        samples.extend(out.metrics.static_responses());
    }
    assert!(!samples.is_empty(), "{}: no static samples", kind.name());
    samples.iter().sum::<u64>() as f64 / samples.len() as f64
}

/// Least-squares slope of ln(rt) against ln(n): the empirical growth
/// exponent of the response time.
fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let k = points.len() as f64;
    let (sx, sy): (f64, f64) = points
        .iter()
        .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x.ln(), b + y.ln()));
    let (mx, my) = (sx / k, sy / k);
    let num: f64 = points
        .iter()
        .map(|&(x, y)| (x.ln() - mx) * (y.ln() - my))
        .sum();
    let den: f64 = points.iter().map(|&(x, _)| (x.ln() - mx).powi(2)).sum();
    num / den
}

/// A2's static response time on cliques (the max-contention regime where
/// the O(n) bound binds: δ = n − 1, every meal serializes against every
/// other) must grow at most linearly in n. A superlinear regression —
/// growth exponent ≥ 1.5, i.e. closer to n² than to n — fails the test.
#[test]
#[ignore = "heavy fit; run in the nightly matrix with --release -- --include-ignored"]
fn a2_static_response_time_grows_linearly_in_n() {
    let mut points = Vec::new();
    for n in [8usize, 16, 32, 64] {
        let rt = mean_static_rt(AlgKind::A2, &topology::clique(n), 60_000 * n as u64 / 8);
        points.push((n as f64, rt));
    }
    let slope = loglog_slope(&points);
    assert!(
        slope < 1.5,
        "A2 static RT grows superlinearly (exponent {slope:.2}): {points:?}"
    );
    assert!(
        slope > 0.2,
        "A2 static RT did not grow with n at all (exponent {slope:.2}): {points:?} — \
         the contention regime is not binding; fix the workload"
    );
}

/// The δ³-vs-δ⁴ tradeoff direction of the two Algorithm 1 doorways
/// (Theorems 16 and 22): on a bounded-δ graph with many nodes (ring:48,
/// δ = 2) the Linial variant must not lose to greedy by more than the
/// slack, and at large δ (clique:10, δ = 9, n = δ + 1) the greedy variant
/// must not lose to Linial by more than the slack. The slack absorbs
/// constant factors; what may not happen is the *ordering inverting by a
/// wide margin* in either regime.
#[test]
#[ignore = "heavy fit; run in the nightly matrix with --release -- --include-ignored"]
fn a1_greedy_vs_linial_tradeoff_direction() {
    const SLACK: f64 = 1.5;
    // Bounded δ, large n: greedy pays O(n·δ) recoloring worst case, the
    // Linial schedule pays O(log* n + δ⁴) — Linial's regime.
    let ring = topology::ring(48);
    let greedy_ring = mean_static_rt(AlgKind::A1Greedy, &ring, 60_000);
    let linial_ring = mean_static_rt(AlgKind::A1Linial, &ring, 60_000);
    assert!(
        linial_ring <= greedy_ring * SLACK,
        "bounded-δ regime inverted: linial {linial_ring:.0} vs greedy {greedy_ring:.0}"
    );
    // Large δ: greedy's δ³ beats Linial's δ⁴ — greedy's regime.
    let clique = topology::clique(10);
    let greedy_clique = mean_static_rt(AlgKind::A1Greedy, &clique, 80_000);
    let linial_clique = mean_static_rt(AlgKind::A1Linial, &clique, 80_000);
    assert!(
        greedy_clique <= linial_clique * SLACK,
        "large-δ regime inverted: greedy {greedy_clique:.0} vs linial {linial_clique:.0}"
    );
}

// ---------------------------------------------------------------------
// Certified exact worst-case response time (Theorem 26, small cliques).
// ---------------------------------------------------------------------

/// Exhaust the extremal schedule space of A2 on `clique:n` and return the
/// certificate (exact worst-case response time over that space).
fn certified_a2_clique(n: usize, jobs: usize) -> Certificate {
    let mut edges = Vec::new();
    for a in 0..n as u32 {
        for b in a + 1..n as u32 {
            edges.push((a, b));
        }
    }
    let mut spec = CheckSpec::new(AlgKind::A2, format!("clique:{n}"), n, edges);
    // Every node hungry at tick 1, ν = 10, eat = 10: max contention. The
    // horizon only needs to cover the slowest extremal run.
    spec.horizon = 600;
    let cert = certify(
        &spec,
        &CertifyConfig {
            jobs,
            ..CertifyConfig::default()
        },
    );
    assert!(
        cert.holds(),
        "clique:{n} certificate is void (the bound means nothing): {cert:?}"
    );
    cert
}

/// The linear response-time budget the certificates are asserted against:
/// each of the `n - 1` contenders ahead of the worst-placed node costs at
/// most one eating session plus one fork handover (ν) plus constant
/// bookkeeping. Any superlinear blow-up bursts this for some small n.
fn linear_rt_budget(n: usize, eat: u64, nu: u64) -> u64 {
    (n as u64 - 1) * (eat + nu + 2) + 2
}

/// Exhaustive certification of A2 on clique:3: the exact worst-case
/// response time over every extremal schedule must sit within the linear
/// budget of Theorem 26. This is the machine-checked (if small) form of
/// the O(n) claim — not a regression fit but an exact bound.
#[test]
fn certified_a2_worst_case_rt_is_linear_on_clique_3() {
    let cert = certified_a2_clique(3, 1);
    let budget = linear_rt_budget(3, cert.eat, cert.nu);
    println!("clique:3 certificate: {}", cert.to_json());
    assert!(
        cert.worst_rt <= budget,
        "A2 worst-case RT {} exceeds the linear budget {budget} on clique:3\n{}",
        cert.worst_rt,
        cert.to_json()
    );
    // The bound is not vacuous: contention really serializes some meals.
    assert!(cert.worst_rt > cert.eat, "{}", cert.to_json());
}

/// clique:4 exhausts ~200k extremal schedules — nightly, release only.
#[test]
#[ignore = "exhausts ~200k schedules; run in the nightly matrix with --release -- --include-ignored"]
fn certified_a2_worst_case_rt_is_linear_on_clique_4() {
    let cert = certified_a2_clique(4, 4);
    let budget = linear_rt_budget(4, cert.eat, cert.nu);
    println!("clique:4 certificate: {}", cert.to_json());
    assert!(
        cert.worst_rt <= budget,
        "A2 worst-case RT {} exceeds the linear budget {budget} on clique:4\n{}",
        cert.worst_rt,
        cert.to_json()
    );
    // The certified worst case must actually grow with n (clique:3 tops
    // out at the clique:3 budget), pinning the linear trend between the
    // two exhaustively-checked points.
    let smaller = certified_a2_clique(3, 4);
    assert!(cert.worst_rt > smaller.worst_rt, "{}", cert.to_json());
}

// ---------------------------------------------------------------------
// Degradation matrix (nightly, release): channel models × mobility.
// ---------------------------------------------------------------------

/// A run spec with a channel model (and, where the model loses frames,
/// the ARQ shim — burst loss without retransmission starves by design).
fn channel_spec(seed: u64, horizon: u64, channel: &ChannelConfig, arq: bool) -> RunSpec {
    RunSpec {
        sim: SimConfig {
            seed,
            channel: channel.clone(),
            arq: arq.then(ArqConfig::default),
            ..SimConfig::default()
        },
        horizon,
        ..RunSpec::default()
    }
}

/// Ground a mobility mix in an `n`-node random deployment's geometry.
fn grounded_mix(mix: &MobilityMix, n: usize, horizon: u64, seed: u64) -> MobilityMix {
    MobilityMix {
        area_side: (n as f64 / 1.6).sqrt().max(2.0),
        window: (horizon / 10, horizon * 9 / 10),
        seed,
        ..mix.clone()
    }
}

/// Worst observed failure locality of A2 crash probes under one
/// (channel, mobility) cell, pooled over seeds and deployments. Returns
/// `(max locality, safety violations)`; starvation with no crash-distance
/// is folded in as `usize::MAX` (unbounded locality).
fn probe_fl_cell(
    channel: &ChannelConfig,
    arq: bool,
    mix: Option<&MobilityMix>,
    horizon: u64,
) -> (Option<usize>, usize) {
    let n = 16;
    let mut cells = Vec::new();
    for topo_seed in [1u64, 2] {
        let positions = topology::random_connected(n, topo_seed);
        for seed in [11u64, 23] {
            let commands = mix
                .map(|m| grounded_mix(m, n, horizon, seed).commands(n))
                .unwrap_or_default();
            cells.push(SweepCell {
                label: format!("random:{n}:{topo_seed}/{}", channel.name()),
                kind: AlgKind::A2,
                spec: RunSpec {
                    crash_eating: Some((NodeId(7), horizon / 10)),
                    ..channel_spec(seed, horizon, channel, arq)
                },
                topo: Topo::Geo(positions.clone()),
                commands,
            });
        }
    }
    let report = run_cells(&cells, 4);
    let mut fl: Option<usize> = None;
    let mut violations = 0;
    for run in &report.runs {
        violations += run.violations;
        let cell_fl = match (run.starving, run.locality) {
            (0, _) => None,
            (_, Some(d)) => Some(d),
            // Starving nodes with no crash distance: unbounded locality.
            (_, None) => Some(usize::MAX),
        };
        fl = fl.max(cell_fl);
    }
    (fl, violations)
}

/// Response-time growth exponent of A2 under one (channel, mobility)
/// cell: mean static RT over random deployments of n ∈ {12, 24, 48},
/// log–log slope. Returns `(slope, safety violations)`.
fn rt_growth_cell(channel: &ChannelConfig, arq: bool, mix: Option<&MobilityMix>) -> (f64, usize) {
    let mut points = Vec::new();
    let mut violations = 0;
    for n in [12usize, 24, 48] {
        let horizon = 30_000 * n as u64 / 12;
        let positions = topology::random_connected(n, 7);
        let mut samples = Vec::new();
        for seed in [3u64, 5] {
            let commands = mix
                .map(|m| grounded_mix(m, n, horizon, seed).commands(n))
                .unwrap_or_default();
            let out = run_algorithm(
                AlgKind::A2,
                &channel_spec(seed, horizon, channel, arq),
                &positions,
                &commands,
            );
            violations += out.violations.len();
            samples.extend(out.metrics.static_responses());
        }
        assert!(
            !samples.is_empty(),
            "{}: no static samples at n = {n}",
            channel.name()
        );
        points.push((
            n as f64,
            samples.iter().sum::<u64>() as f64 / samples.len() as f64,
        ));
    }
    (loglog_slope(&points), violations)
}

/// The full degradation matrix: every channel model × {static,
/// heterogeneous-mix} mobility, one fitted FL and RT-growth row per cell,
/// plus a contention ladder reporting the first constant-bandwidth frame
/// time at which FL ≤ 2 fails empirically. Fails only on safety
/// violations (and on FL > 2 in the i.i.d. static cell, where the
/// paper's assumptions hold and Theorem 26 must bind).
#[test]
#[ignore = "heavy fit; run in the nightly matrix with --release -- --include-ignored"]
fn a2_bounds_degradation_matrix() {
    let channels: [(&str, ChannelConfig, bool); 4] = [
        ("iid", ChannelConfig::Iid, false),
        (
            "constant-bandwidth",
            ChannelConfig::ConstantBandwidth {
                ticks_per_frame: 2,
                max_queue: 1024,
            },
            false,
        ),
        (
            "shared-medium",
            ChannelConfig::SharedMedium {
                ticks_per_frame: 2,
                max_inflight: 1024,
            },
            false,
        ),
        ("gilbert-elliott", ChannelConfig::burst_loss_default(), true),
    ];
    let het = MobilityMix {
        static_frac: 0.5,
        highway_frac: 0.25,
        ..MobilityMix::default()
    };
    let mixes: [(&str, Option<&MobilityMix>); 2] = [("static", None), ("het-mix", Some(&het))];
    let mut total_violations = 0;
    println!(
        "degradation matrix: channel × mobility, A2, random:16 probes + n ∈ {{12,24,48}} fits"
    );
    println!(
        "{:<20} {:<8} {:>8} {:>9}",
        "channel", "mobility", "fl_max", "rt_slope"
    );
    for (cname, channel, arq) in &channels {
        for (mname, mix) in &mixes {
            let (fl, v1) = probe_fl_cell(channel, *arq, *mix, 30_000);
            let (slope, v2) = rt_growth_cell(channel, *arq, *mix);
            total_violations += v1 + v2;
            let fl_str = match fl {
                None => "none".to_string(),
                Some(usize::MAX) => "unbounded".to_string(),
                Some(d) => d.to_string(),
            };
            println!("{cname:<20} {mname:<8} {fl_str:>8} {slope:>9.2}");
            if *cname == "iid" && *mname == "static" {
                assert!(
                    fl.is_none_or(|d| d <= 2),
                    "FL > 2 under the paper's own assumptions (iid, static): {fl:?}"
                );
            }
        }
    }
    // Contention ladder: shrink the link capacity (grow the per-frame
    // serialization time) until the empirical FL ≤ 2 bound first fails.
    let mut first_failure = None;
    for ticks_per_frame in [1u64, 2, 4, 8] {
        let cb = ChannelConfig::ConstantBandwidth {
            ticks_per_frame,
            max_queue: 1024,
        };
        let (fl, v) = probe_fl_cell(&cb, false, None, 30_000);
        total_violations += v;
        if fl.is_some_and(|d| d > 2) && first_failure.is_none() {
            first_failure = Some(ticks_per_frame);
        }
    }
    match first_failure {
        Some(tpf) => println!(
            "FL ≤ 2 first fails at constant-bandwidth ticks_per_frame = {tpf} \
             (capacity 1/{tpf} frames per tick)"
        ),
        None => println!("FL ≤ 2 held across the whole contention ladder (ticks_per_frame ≤ 8)"),
    }
    assert_eq!(
        total_violations, 0,
        "safety violations in the degradation matrix"
    );
}
