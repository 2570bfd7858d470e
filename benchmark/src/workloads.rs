//! The six workloads: how each makes its inputs from the seed, the one
//! public call it measures with tracing off, and how it judges the output.
//!
//! The program under test receives only the generated inputs (positions,
//! waypoint commands, run specs, live configs); the seed never reaches it
//! except as the `seed` field those inputs carry.

use std::time::Instant;

use harness::{run_algorithm, topology, AlgKind, RunOutcome, RunSpec, WaypointPlan};
use lme_check::{
    certify, run_schedule_mode, Certificate, CertifyConfig, CheckSpec, Plan, RecorderMode,
};
use lme_net::{run_live, LiveAlg, LiveConfig, LiveOutcome, LiveRuntime, TransportKind};
use manet_sim::{ArqConfig, ChannelConfig, Command, SimConfig, SimRng, SimTime, World};

use crate::procfs::{cpu_s, vm_hwm_mb};
use crate::report::RepReport;

/// Worker threads of the sharded live runtime and of the checker: the host
/// has two cores, and no workload may use more threads than that.
pub const WORKERS: usize = 2;

/// Wall milliseconds per live tick (`LiveConfig::new` sets 0.1 ms), the
/// repo's own mapping between simulated ticks and wall time.
const LIVE_TICK_MS: f64 = 0.1;

/// The held-out seed: a gain claimed on the default seed must also hold
/// here (choosing-metrics, section 6.3).
pub const HELD_OUT_SEED: u64 = 11;
pub const DEFAULT_SEED: u64 = 7;

/// The random deployments are part of a workload's definition, like the
/// grid and the ring: the run seed drives every stochastic draw (delays,
/// channel and ARQ streams, eat and think times, first-hungry times, the
/// waypoint plan, reference schedules, live think times) but not where the
/// nodes stand. Drawing the deployment from the run seed too moves density
/// and maximum degree, and with them wall time, RT and messages per session
/// by 10-25 % from seed to seed, which no regression bound survives.
const SIM_TOPOLOGY_SEED: u64 = 7;
const LIVE_TOPOLOGY_SEED: u64 = 3;

/// Full-size or `--quick` smoke sizes (horizons ÷ 4, live windows 500 ms).
#[derive(Clone, Copy)]
pub struct Scale {
    pub quick: bool,
}

impl Scale {
    fn horizon(self, full: u64) -> u64 {
        if self.quick {
            full / 4
        } else {
            full
        }
    }

    fn duration_ms(self, full: u64) -> u64 {
        if self.quick {
            500
        } else {
            full
        }
    }
}

/// How many times a child generates its inputs; `setup_s` is the median.
const SETUP_REPEATS: usize = 21;

fn timed_setup<T>(make: impl Fn() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        last = Some(std::hint::black_box(make()));
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one setup"),
        crate::stats::median(&mut times),
    )
}

/// `p`-th percentile (nearest rank below, as `harness::Summary`).
pub fn percentile(sorted: &[u64], p: usize) -> u64 {
    sorted[(sorted.len() - 1) * p / 100]
}

/// A measured call: its result, wall seconds and process CPU seconds.
pub struct Measured<T> {
    pub out: T,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Time `call` — the one public call of a workload, judging included.
pub fn measured<T>(call: impl FnOnce() -> T) -> Measured<T> {
    let cpu0 = cpu_s();
    let t0 = Instant::now();
    let out = call();
    let wall_s = t0.elapsed().as_secs_f64();
    Measured {
        out,
        wall_s,
        cpu_s: cpu_s() - cpu0,
    }
}

/// The raw readings of one repetition from which the ten end-to-end
/// metrics are derived the same way on every workload.
struct EndToEnd {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    /// Seconds the protocol executed: the whole call, or the live window.
    exec_s: f64,
    events: f64,
    schedules: f64,
    sessions: f64,
    msgs_per_session: f64,
    rt_p50_ticks: f64,
    rt_p99_ticks: f64,
}

impl EndToEnd {
    fn emit(&self, rep: &mut RepReport) {
        rep.metric("setup_s", self.setup_s);
        rep.metric("wall_s", self.wall_s);
        rep.metric("events_per_s", self.events / self.wall_s);
        rep.metric("schedules_per_s", self.schedules / self.wall_s);
        rep.metric("sessions_per_s", self.sessions / self.exec_s);
        rep.metric("rt_p50_ticks", self.rt_p50_ticks);
        rep.metric("rt_p99_ticks", self.rt_p99_ticks);
        rep.metric("msgs_per_session", self.msgs_per_session);
        rep.metric("cpu_us_per_session", self.cpu_s * 1e6 / self.sessions);
        rep.metric("peak_rss_mb", vm_hwm_mb());
    }
}

// ---------------------------------------------------------------- sim ---

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum SimCase {
    StaticA2,
    MobileA1,
    LossyArq,
}

pub struct SimInputs {
    pub alg: AlgKind,
    pub spec: RunSpec,
    pub positions: Vec<(f64, f64)>,
    pub commands: Vec<(SimTime, Command)>,
    pub edges: usize,
    pub delta: usize,
}

pub fn sim_inputs(case: SimCase, seed: u64, scale: Scale) -> SimInputs {
    let (alg, positions, horizon) = match case {
        SimCase::StaticA2 => (AlgKind::A2, topology::grid(50, 40), scale.horizon(24_000)),
        SimCase::MobileA1 => (
            AlgKind::A1Linial,
            topology::random_connected(1000, SIM_TOPOLOGY_SEED),
            scale.horizon(12_000),
        ),
        SimCase::LossyArq => (
            AlgKind::A2,
            topology::random_connected(1000, SIM_TOPOLOGY_SEED),
            scale.horizon(10_000),
        ),
    };
    let n = positions.len();
    let mut sim = SimConfig {
        seed,
        ..SimConfig::default()
    };
    if case == SimCase::LossyArq {
        sim.channel = ChannelConfig::GilbertElliott {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.2,
            loss_good: 0.01,
            loss_bad: 0.3,
        };
        sim.arq = Some(ArqConfig::default());
    }
    let commands = if case == SimCase::MobileA1 {
        WaypointPlan {
            area_side: (n as f64 / 1.6).sqrt(),
            // One movement per ten ticks of horizon, as the sizing runs.
            moves: (horizon / 10) as usize,
            window: (horizon / 10, horizon * 9 / 10),
            speed: Some(0.25),
            seed,
        }
        .commands(n)
    } else {
        Vec::new()
    };
    // The initial world gives δ for the recoloring schedule and the edge
    // count for the provenance line.
    let world = World::new(
        sim.radio_range,
        positions.iter().map(|&p| p.into()).collect(),
    );
    let delta = world.max_degree();
    let edges = world.csr_snapshot().edges().count();
    let spec = RunSpec {
        sim,
        horizon,
        eat: 10..=30,
        think: 50..=150,
        cyclic: true,
        delta_bound: Some(delta),
        ..RunSpec::default()
    };
    SimInputs {
        alg,
        spec,
        positions,
        commands,
        edges,
        delta,
    }
}

/// Failures of a sim run: violations, an abort, and nodes that never ate.
pub fn sim_failures(out: &RunOutcome) -> u64 {
    let starved = out.metrics.meals.iter().filter(|&&m| m == 0).count() as u64;
    out.violations.len() as u64 + u64::from(out.abort.is_some()) + starved
}

fn sim_rep(case: SimCase, seed: u64, scale: Scale) -> RepReport {
    let (inp, setup_s) = timed_setup(|| sim_inputs(case, seed, scale));
    let run = measured(|| {
        let out = run_algorithm(inp.alg, &inp.spec, &inp.positions, &inp.commands);
        let failed = sim_failures(&out);
        (out, failed)
    });
    let (out, failed) = &run.out;

    let mut rep = RepReport::default();
    let sessions = out.total_meals();
    let mut rts = out.metrics.all_responses();
    rts.sort_unstable();
    rep.check(
        "no-violation",
        out.violations.is_empty(),
        format!("{:?}", out.violations.first()),
    );
    rep.check("no-abort", out.abort.is_none(), format!("{:?}", out.abort));
    rep.check("rt-samples", !rts.is_empty(), "no completed episode");
    rep.attempted = sessions + failed;
    rep.failed = *failed;
    if rts.is_empty() || sessions == 0 {
        return rep;
    }
    EndToEnd {
        setup_s,
        wall_s: run.wall_s,
        cpu_s: run.cpu_s,
        exec_s: run.wall_s,
        events: out.events as f64,
        schedules: 1.0,
        sessions: sessions as f64,
        msgs_per_session: out.messages_sent as f64 / sessions as f64,
        rt_p50_ticks: percentile(&rts, 50) as f64,
        rt_p99_ticks: percentile(&rts, 99) as f64,
    }
    .emit(&mut rep);
    rep.exact("events", out.events);
    rep.exact("sessions", sessions);
    rep.exact("messages_sent", out.messages_sent);
    rep.info(
        "inputs",
        format!(
            "{} n={} edges={} delta={} horizon={} moves={} channel={} arq={}",
            inp.alg.name(),
            inp.positions.len(),
            inp.edges,
            inp.delta,
            inp.spec.horizon,
            inp.commands.len(),
            inp.spec.sim.channel.name(),
            inp.spec.sim.arq.is_some()
        ),
    );
    rep.info(
        "time",
        format!(
            "rt_* are simulated ticks over {} episodes; wall, cpu, setup are host time",
            rts.len()
        ),
    );
    rep
}

// -------------------------------------------------------------- check ---

/// Extremal reference schedules the certificate is judged against.
const REFERENCE_SCHEDULES: usize = 64;
/// Longer than any schedule of the instance has branch points.
const REFERENCE_DEPTH: usize = 256;

pub struct CheckInputs {
    pub spec: CheckSpec,
    pub cfg: CertifyConfig,
    /// Seeded schedules inside the space `certify` exhausts: every branch
    /// point takes its earliest or its latest legal delay.
    pub reference: Vec<Plan>,
}

pub fn check_inputs(seed: u64, scale: Scale) -> CheckInputs {
    let n = if scale.quick { 4 } else { 5 };
    let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    let mut spec = CheckSpec::new(AlgKind::A2, format!("line:{n}"), n, edges);
    spec.seed = seed;
    spec.validate().expect("line instance is valid");
    let nu = spec.nu;
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5245_4653);
    let reference = (0..REFERENCE_SCHEDULES)
        .map(|i| Plan::Replay {
            // The first two are the all-earliest and all-latest corners.
            delays: (0..REFERENCE_DEPTH)
                .map(|_| match i {
                    0 => 1,
                    1 => nu,
                    _ if rng.gen_range(0..=1u64) == 0 => 1,
                    _ => nu,
                })
                .collect(),
        })
        .collect();
    CheckInputs {
        spec,
        cfg: CertifyConfig {
            jobs: WORKERS,
            dedup: true,
            ..CertifyConfig::default()
        },
        reference,
    }
}

/// What the reference schedules observed, independently of `certify`.
pub struct ReferenceRuns {
    pub rts: Vec<u64>,
    pub deliveries: u64,
    pub meals: u64,
    pub failed: u64,
}

/// The recorder mode `certify` runs its schedules under.
pub const CERTIFY_MODE: RecorderMode = RecorderMode {
    digest: None,
    branch_all: true,
};

pub fn run_reference(inp: &CheckInputs) -> ReferenceRuns {
    let mut r = ReferenceRuns {
        rts: Vec::new(),
        deliveries: 0,
        meals: 0,
        failed: 0,
    };
    for plan in &inp.reference {
        let v = run_schedule_mode(&inp.spec, plan, CERTIFY_MODE);
        let fed = v.first_eat.iter().all(Option::is_some);
        if v.violation.is_some() || v.abort.is_some() || !v.drained || !fed {
            r.failed += 1;
            continue;
        }
        // Hungry commands land at tick 1 (as `certify` measures).
        r.rts
            .extend(v.first_eat.iter().flatten().map(|t| t.saturating_sub(1)));
        r.deliveries += v.deliveries.len() as u64;
        r.meals += v.meals;
    }
    r.rts.sort_unstable();
    r
}

/// Attempted and failed schedules and the certificate's checks, shared by
/// the untraced and the traced repetition. At the default seed `line:5`
/// must reproduce its pinned constants.
pub fn judge_certificate(
    rep: &mut RepReport,
    cert: &Certificate,
    reference: &ReferenceRuns,
    seed: u64,
    scale: Scale,
) {
    rep.attempted = cert.schedules as u64 + reference.failed;
    rep.failed = u64::from(cert.violation.is_some())
        + cert.unfed_runs as u64
        + u64::from(!cert.complete)
        + reference.failed;
    rep.check(
        "certificate-holds",
        cert.holds(),
        format!("{:?}", cert.violation),
    );
    if seed == DEFAULT_SEED && !scale.quick {
        let got = (cert.schedules, cert.dedup_prunes, cert.worst_rt);
        rep.check(
            "pinned-constants",
            got == (22_114, 177_470, 72),
            format!("(schedules, prunes, worst_rt) = {got:?}, expected (22114, 177470, 72)"),
        );
    }
    rep.check(
        "reference-runs",
        !reference.rts.is_empty(),
        "no reference schedule completed",
    );
}

fn check_rep(seed: u64, scale: Scale) -> RepReport {
    let (inp, setup_s) = timed_setup(|| check_inputs(seed, scale));
    let run = measured(|| {
        let cert = certify(&inp.spec, &inp.cfg);
        let holds = cert.holds();
        (cert, holds)
    });
    let (cert, holds) = &run.out;
    // The oracle runs after the clock stops: it is the benchmark's check,
    // not part of the program's time to verdict.
    let reference = run_reference(&inp);

    let mut rep = RepReport::default();
    judge_certificate(&mut rep, cert, &reference, seed, scale);
    if !holds || reference.rts.is_empty() {
        return rep;
    }
    EndToEnd {
        setup_s,
        wall_s: run.wall_s,
        cpu_s: run.cpu_s,
        exec_s: run.wall_s,
        // Search-tree nodes decided: run as a schedule or pruned by dedup.
        events: (cert.schedules + cert.dedup_prunes) as f64,
        schedules: cert.schedules as f64,
        // Without liveness recycling every hungry node eats exactly once
        // per fed schedule, and `holds()` says every schedule was fed.
        sessions: (cert.schedules * inp.spec.hungry.len()) as f64,
        msgs_per_session: reference.deliveries as f64 / reference.meals as f64,
        rt_p50_ticks: percentile(&reference.rts, 50) as f64,
        rt_p99_ticks: percentile(&reference.rts, 99) as f64,
    }
    .emit(&mut rep);
    rep.exact("schedules", cert.schedules as u64);
    rep.exact("dedup_prunes", cert.dedup_prunes as u64);
    rep.exact("worst_rt", cert.worst_rt);
    rep.exact("max_branch_points", cert.max_branch_points as u64);
    rep.info(
        "inputs",
        format!(
            "certify A2 {} nu={} jobs={} dedup=true; {} extremal reference schedules",
            inp.spec.topo,
            inp.spec.nu,
            inp.cfg.jobs,
            inp.reference.len()
        ),
    );
    rep.info(
        "time",
        format!(
            "rt_* and msgs_per_session are simulated, over {} first-eat samples of the reference schedules",
            reference.rts.len()
        ),
    );
    rep.info("oracle", oracle_line(cert, &reference));
    rep
}

/// Every reference schedule lies inside the space `certify` exhausts, so
/// the certified worst RT should dominate theirs. At the baseline commit it
/// does not (dedup prunes subtrees that hold the true worst case; see the
/// README's findings), so the gap is reported, not gated.
pub fn reference_rt_excess(cert: &Certificate, reference: &ReferenceRuns) -> u64 {
    reference
        .rts
        .last()
        .map_or(0, |&worst| worst.saturating_sub(cert.worst_rt))
}

fn oracle_line(cert: &Certificate, reference: &ReferenceRuns) -> String {
    let excess = reference_rt_excess(cert, reference);
    format!(
        "certified worst_rt {} vs worst RT {} over the sampled extremal schedules: {}",
        cert.worst_rt,
        reference.rts.last().copied().unwrap_or(0),
        if excess == 0 {
            "the certificate dominates".to_string()
        } else {
            format!("WARNING the certificate under-reports by {excess} ticks")
        }
    )
}

// --------------------------------------------------------------- live ---

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum LiveCase {
    RingLocal,
    CrossUdp,
}

pub struct LiveInputs {
    pub cfg: LiveConfig,
    pub edges: usize,
    /// Share of edges whose endpoints sit in different shards (contiguous
    /// id ranges, as `lme_net::shard` cuts them).
    pub cross_edge_share: f64,
}

/// The shard of node `id` among `n`: contiguous id ranges, the first one
/// taking the odd node, as `lme_net::shard` cuts them for two workers.
pub fn shard_of(id: u32, n: usize) -> usize {
    usize::from(id as usize >= n.div_ceil(WORKERS))
}

pub fn live_inputs(case: LiveCase, seed: u64, scale: Scale) -> LiveInputs {
    let (transport, positions) = match case {
        LiveCase::RingLocal => (TransportKind::Mpsc, topology::ring(400)),
        LiveCase::CrossUdp => (
            TransportKind::Udp,
            topology::random_connected(300, LIVE_TOPOLOGY_SEED),
        ),
    };
    let n = positions.len();
    let world = World::new(
        SimConfig::default().radio_range,
        positions.iter().map(|&p| p.into()).collect(),
    );
    let (mut edges, mut cross) = (0usize, 0usize);
    for (a, b) in world.csr_snapshot().edges() {
        edges += 1;
        cross += usize::from(shard_of(a, n) != shard_of(b, n));
    }
    let mut cfg = LiveConfig::new(LiveAlg::A2, transport, positions);
    cfg.runtime = LiveRuntime::Sharded { workers: WORKERS };
    cfg.eat_ms = 1;
    cfg.seed = seed;
    match case {
        LiveCase::RingLocal => {
            cfg.closed_loop = true;
            cfg.duration_ms = scale.duration_ms(1_000);
        }
        LiveCase::CrossUdp => {
            cfg.rate = 20.0;
            cfg.duration_ms = scale.duration_ms(1_500);
        }
    }
    LiveInputs {
        cfg,
        edges,
        cross_edge_share: cross as f64 / edges.max(1) as f64,
    }
}

/// Failures of a live run: violations, codec and socket errors, and nodes
/// that never ate.
pub fn live_failures(out: &LiveOutcome) -> u64 {
    let starved = out.meals.iter().filter(|&&m| m == 0).count() as u64;
    out.violations.len() as u64 + out.decode_errors + out.send_failures + starved
}

/// "closed loop, n clients, think time …", as the provenance header says.
pub fn loop_shape(cfg: &LiveConfig) -> String {
    let think = if cfg.closed_loop {
        "0".to_string()
    } else {
        // `ShardNode::draw_think`: uniform on [1/2, 3/2] of the mean 1/rate.
        let mean_ms = 1_000.0 / cfg.rate;
        format!(
            "uniform {:.0}-{:.0} ms (mean 1/rate = {mean_ms:.0} ms)",
            mean_ms / 2.0,
            mean_ms * 1.5
        )
    };
    format!(
        "closed loop, {} clients (nodes), think time {think}, eat {} ms, window {} ms, {} x{} workers, {}",
        cfg.positions.len(),
        cfg.eat_ms,
        cfg.duration_ms,
        cfg.runtime.name(),
        WORKERS,
        cfg.transport.name()
    )
}

/// One measured `run_live` call (its outcome carries the verdict).
pub fn run_live_measured(cfg: &LiveConfig) -> Result<Measured<LiveOutcome>, String> {
    let run = measured(|| run_live(cfg));
    Ok(Measured {
        out: run.out?,
        wall_s: run.wall_s,
        cpu_s: run.cpu_s,
    })
}

/// Attempted and failed sessions, the live checks and the provenance lines,
/// shared by the untraced and the traced repetition (live tracing wraps the
/// call from outside, so both see the same run).
pub fn judge_live(rep: &mut RepReport, inp: &LiveInputs, out: &LiveOutcome) {
    let failed = live_failures(out);
    rep.attempted = out.total_meals() + failed;
    rep.failed = failed;
    rep.check(
        "no-violation",
        out.violations.is_empty(),
        format!("{:?}", out.violations.first()),
    );
    rep.check(
        "no-decode-error",
        out.decode_errors == 0,
        format!("{}", out.decode_errors),
    );
    rep.check(
        "no-send-failure",
        out.send_failures == 0,
        format!("{}", out.send_failures),
    );
    rep.check(
        "delivered-le-sent",
        out.messages_delivered <= out.messages_sent,
        format!("{} > {}", out.messages_delivered, out.messages_sent),
    );
    rep.check(
        "rt-samples",
        !out.latencies_ns.is_empty() && out.total_meals() > 0,
        "no completed episode",
    );
    rep.info("loop", loop_shape(&inp.cfg));
    rep.info(
        "inputs",
        format!(
            "edges={} cross_shard_edge_share={:.3} records={} sessions={}",
            inp.edges,
            inp.cross_edge_share,
            out.trace.len(),
            out.total_meals()
        ),
    );
}

fn live_rep(case: LiveCase, seed: u64, scale: Scale) -> RepReport {
    let (inp, setup_s) = timed_setup(|| live_inputs(case, seed, scale));
    let mut rep = RepReport::default();
    let run = match run_live_measured(&inp.cfg) {
        Ok(run) => run,
        Err(e) => {
            rep.attempted = 1;
            rep.failed = 1;
            rep.check("run-live", false, e);
            return rep;
        }
    };
    let out = &run.out;
    judge_live(&mut rep, &inp, out);
    let sessions = out.total_meals() as f64;
    let mut lat = out.latencies_ns.clone();
    lat.sort_unstable();
    if lat.is_empty() || sessions == 0.0 {
        return rep;
    }
    let window_s = out.elapsed_ms as f64 / 1_000.0;
    let lag_s = run.wall_s - window_s;
    let (p50_ms, p99_ms) = (
        percentile(&lat, 50) as f64 / 1e6,
        percentile(&lat, 99) as f64 / 1e6,
    );
    let records = out.trace.len() as f64;
    EndToEnd {
        setup_s,
        wall_s: run.wall_s,
        cpu_s: run.cpu_s,
        exec_s: window_s,
        events: records,
        schedules: 1.0,
        sessions,
        msgs_per_session: out.messages_sent as f64 / sessions,
        rt_p50_ticks: p50_ms / LIVE_TICK_MS,
        rt_p99_ticks: p99_ms / LIVE_TICK_MS,
    }
    .emit(&mut rep);
    // Report lines that mean nothing on the other workloads.
    rep.metric("rt_p50_ms", p50_ms);
    rep.metric("rt_p99_ms", p99_ms);
    rep.metric("verdict_lag_s", lag_s);
    rep.metric("verdict_lag_us_per_record", lag_s * 1e6 / records);
    rep.info(
        "time",
        format!(
            "all host time; rt_* over {} samples ({} beyond p99); rt_*_ticks = ms / {LIVE_TICK_MS}",
            lat.len(),
            lat.len() - 1 - (lat.len() - 1) * 99 / 100
        ),
    );
    rep
}

// ----------------------------------------------------------- dispatch ---

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Case {
    Sim(SimCase),
    Check,
    Live(LiveCase),
}

pub fn case_of(name: &str) -> Option<Case> {
    Some(match name {
        "sim_static_a2" => Case::Sim(SimCase::StaticA2),
        "sim_mobile_a1" => Case::Sim(SimCase::MobileA1),
        "sim_lossy_arq" => Case::Sim(SimCase::LossyArq),
        "check_certify" => Case::Check,
        "live_ring_local" => Case::Live(LiveCase::RingLocal),
        "live_cross_udp" => Case::Live(LiveCase::CrossUdp),
        _ => return None,
    })
}

/// One untraced repetition: set up, make the one measured call, judge it.
pub fn untraced_rep(case: Case, seed: u64, scale: Scale) -> RepReport {
    match case {
        Case::Sim(c) => sim_rep(c, seed, scale),
        Case::Check => check_rep(seed, scale),
        Case::Live(c) => live_rep(c, seed, scale),
    }
}
