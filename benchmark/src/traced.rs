//! The traced run: the same workloads with spans around every public call
//! and timing adapters on the public seams, plus micro-measurements of the
//! layers a span cannot isolate. It reports the per-layer metrics and the
//! tracing overhead; end-to-end numbers never come from here.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use coloring::LinialSchedule;
use harness::{run_algorithm, AlgKind, Metrics, SafetyMonitor, Workload};
use lme_check::{certify, run_schedule_mode, CertifyConfig, DigestTable, Insert, Plan};
use lme_net::{
    decode_envelope, decode_frame, encode_envelope, encode_frame, merge_stamped, LiveEventKind,
    LiveRecord, StampedRecord, ENV_DATA,
};
use local_mutex::{A2Msg, Algorithm1, Algorithm2};
use manet_sim::{
    Command, Engine, EngineStats, NodeId, NodeSeed, Position, Protocol, SimConfig, SimRng, SimTime,
    World,
};

use crate::adapters::{Busy, ClockCost, HandlerClock, HookClock, Ticker, Timed, TimedHook};
use crate::report::RepReport;
use crate::spans::Tracer;
use crate::workloads::{
    check_inputs, judge_certificate, judge_live, live_inputs, measured, reference_rt_excess,
    run_live_measured, run_reference, shard_of, sim_failures, sim_inputs, Case, LiveCase, Scale,
    SimCase, SimInputs, CERTIFY_MODE, WORKERS,
};

pub fn traced_rep(name: &str, case: Case, seed: u64, scale: Scale) -> RepReport {
    let mut tr = Tracer::new();
    let mut rep = RepReport::default();
    tr.span(name, |tr| match case {
        Case::Sim(c) => sim_traced(tr, &mut rep, c, seed, scale),
        Case::Check => check_traced(tr, &mut rep, seed, scale),
        Case::Live(c) => live_traced(tr, &mut rep, c, seed, scale),
    });
    let path = format!("{}/trace-{name}.json", crate::OUT_DIR);
    let written = std::fs::create_dir_all(crate::OUT_DIR)
        .and_then(|()| std::fs::write(&path, tr.to_json(name, seed)));
    rep.check(
        "spans-written",
        written.is_ok(),
        format!("{path}: {written:?}"),
    );
    rep.info("spans", path);
    rep
}

// ---------------------------------------------------------------- sim ---

/// What the rebuilt driver hands back: the counters the untraced run must
/// match, and the clocks of every seam.
struct TracedSim {
    stats: EngineStats,
    meals: Vec<u64>,
    violations: usize,
    handler: HandlerClock,
    metrics: Rc<HookClock>,
    monitor: Rc<HookClock>,
    workload: Rc<HookClock>,
    msgs_by_kind: BTreeMap<&'static str, u64>,
}

/// `harness::runner::drive`, rebuilt over the public engine API with timed
/// hooks and a timed protocol. The first-hungry draw repeats the runner's
/// (same seed mix, same order), which the stats-equality check pins.
fn drive_traced<P, F>(tr: &mut Tracer, inp: &SimInputs, mut factory: F) -> TracedSim
where
    P: Protocol + 'static,
    F: FnMut(&NodeSeed) -> P + 'static,
{
    let spec = &inp.spec;
    let mut engine: Engine<Timed<P>> = tr.span("sim.engine.new", |_| {
        Engine::new(spec.sim.clone(), inp.positions.clone(), move |seed| {
            Timed::new(factory(&seed))
        })
    });
    let n = engine.world().len();
    let (metrics, data) = Metrics::new(n);
    let (metrics, metrics_clock) = TimedHook::new(metrics, true);
    engine.add_hook(Box::new(metrics));
    // The monitor and the workload leave `on_deliver` at its no-op default.
    let (monitor, violations) = SafetyMonitor::new(spec.panic_on_violation);
    let (monitor, monitor_clock) = TimedHook::new(monitor, false);
    engine.add_hook(Box::new(monitor));
    let workload = Workload::cyclic(spec.eat.clone(), spec.think.clone(), spec.sim.seed);
    let (workload, workload_clock) = TimedHook::new(workload, false);
    engine.add_hook(Box::new(workload));
    let mut rng = SimRng::seed_from_u64(spec.sim.seed ^ 0x4655_4747);
    let (a, b) = spec.first_hungry;
    for i in 0..n as u32 {
        engine.set_hungry_at(SimTime(rng.gen_range(a..=b.max(a))), NodeId(i));
    }
    for (at, cmd) in &inp.commands {
        engine.schedule(*at, cmd.clone());
    }
    tr.span("sim.engine.run_until", |_| {
        engine.run_until(SimTime(spec.horizon))
    });
    let mut handler = HandlerClock::default();
    let mut msgs_by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    for i in 0..n as u32 {
        let node = engine.protocol(NodeId(i));
        handler.merge(&node.clock);
        for &(kind, count) in &node.received {
            *msgs_by_kind.entry(kind).or_default() += count;
        }
    }
    let meals = data.borrow().meals.clone();
    let violations = violations.borrow().len() + usize::from(engine.abort().is_some());
    TracedSim {
        stats: engine.stats().clone(),
        meals,
        violations,
        handler,
        metrics: metrics_clock,
        monitor: monitor_clock,
        workload: workload_clock,
        msgs_by_kind,
    }
}

fn sim_traced(tr: &mut Tracer, rep: &mut RepReport, case: SimCase, seed: u64, scale: Scale) {
    let clock = tr.span("bench.clock_calibration", |_| ClockCost::calibrate());
    let inp = tr.span("bench.inputs", |_| sim_inputs(case, seed, scale));

    // The untraced twin: the overhead ratio's denominator and the counters
    // the traced run must reproduce.
    let twin = tr.span("harness.run_algorithm", |_| {
        measured(|| run_algorithm(inp.alg, &inp.spec, &inp.positions, &inp.commands))
    });
    let (plain, plain_s) = (&twin.out, twin.wall_s);

    let traced_start = Instant::now();
    let run = tr.span("bench.drive_traced", |tr| {
        // What `run_algorithm` does before it builds the engine.
        let delta = tr.span("sim.world.new", |_| {
            World::new(
                inp.spec.sim.radio_range,
                inp.positions.iter().map(|&p| Position::from(p)).collect(),
            )
            .max_degree()
        });
        let delta = inp.spec.delta_bound.unwrap_or(delta).max(1);
        match inp.alg {
            AlgKind::A1Linial => {
                let n = inp.positions.len() as u64;
                let sched = tr.span("coloring.linial.compute", |_| {
                    Arc::new(LinialSchedule::compute(n, delta as u64))
                });
                drive_traced(tr, &inp, move |seed| {
                    Algorithm1::linial(seed, sched.clone())
                })
            }
            AlgKind::A2 => drive_traced(tr, &inp, Algorithm2::new),
            other => unreachable!("no workload runs {}", other.name()),
        }
    });
    let traced_s = traced_start.elapsed().as_secs_f64();

    let sessions: u64 = run.meals.iter().sum();
    rep.attempted = sessions + sim_failures(plain) + run.violations as u64;
    rep.failed = sim_failures(plain) + run.violations as u64;
    rep.check(
        "traced-stats-equal-untraced",
        run.stats == plain.stats,
        format!("traced {:?} vs untraced {:?}", run.stats, plain.stats),
    );
    rep.check(
        "traced-meals-equal-untraced",
        run.meals == plain.metrics.meals,
        "per-node meals differ",
    );
    if sessions == 0 {
        return;
    }

    // Attribution inside run_until. The adapters slow the traced run by more
    // than their clock reads (a timed call also serializes the pipeline), so
    // the total comes from the untraced call: what it spent outside
    // `run_until` is not wrapped by any adapter and costs the same in both
    // runs. Busy times have the clock reads inside them taken out.
    let hooks = [
        ("harness.metrics", run.metrics.all()),
        ("harness.monitor", run.monitor.all()),
        ("harness.workload", run.workload.all()),
    ];
    let handler = run.handler.total();
    let before_run_s = tr.seconds("sim.world.new")
        + tr.seconds("coloring.linial.compute")
        + tr.seconds("sim.engine.new");
    let run_ns = (plain_s - before_run_s) * 1e9;
    let handler_ns = handler.net_ns(clock);
    let hook_ns: f64 = hooks.iter().map(|(_, busy)| busy.net_ns(clock)).sum();
    let events = run.stats.events as f64;
    tr.aggregate(
        "sim.engine.run_until",
        "core.handler.on_event",
        handler.ns,
        handler.calls,
    );
    for (name, busy) in hooks {
        tr.aggregate("sim.engine.run_until", name, busy.ns, busy.calls);
        rep.metric(&format!("{name}.share"), busy.net_ns(clock) / run_ns);
    }
    let per_call = |b: Busy| b.net_ns(clock) / b.calls.max(1) as f64;
    let alg = if inp.alg == AlgKind::A2 {
        "alg2"
    } else {
        "alg1"
    };
    rep.metric(
        &format!("core.{alg}.handler_ns_per_event"),
        handler_ns / events,
    );
    rep.metric(&format!("core.{alg}.handler_share"), handler_ns / run_ns);
    for (kind, count) in &run.msgs_by_kind {
        rep.metric(
            &format!("core.msgs.{kind}_per_session"),
            *count as f64 / sessions as f64,
        );
    }
    let (stats, ch, shim) = (&run.stats, &run.stats.channel, &run.stats.shim);
    for (name, value) in [
        ("trace_overhead", traced_s / plain_s),
        ("trace.clock_ns", clock.pair_ns),
        ("sim.engine.new_s", tr.seconds("sim.engine.new")),
        ("sim.engine.run_s", run_ns / 1e9),
        ("sim.engine.events", events),
        (
            "sim.engine.self_ns_per_event",
            (run_ns - handler_ns - hook_ns) / events,
        ),
        ("sim.engine.dropped_at_send", stats.dropped_at_send as f64),
        (
            "sim.engine.dropped_in_flight",
            stats.dropped_in_flight as f64,
        ),
        ("core.handler.message_ns", per_call(run.handler.message)),
        ("core.handler.timer_ns", per_call(run.handler.timer)),
        ("core.handler.link_ns", per_call(run.handler.link)),
        (
            "harness.monitor.ns_per_quantum",
            per_call(run.monitor.quantum()),
        ),
        (
            "coloring.linial.compute_s",
            tr.seconds("coloring.linial.compute"),
        ),
        ("sim.channel.frames_queued", ch.frames_queued as f64),
        ("sim.channel.frames_lost", ch.frames_lost as f64),
        ("sim.channel.burst_transitions", ch.burst_transitions as f64),
        ("sim.shim.retransmissions", shim.retransmissions as f64),
        ("sim.shim.acks", shim.acks_sent as f64),
    ] {
        rep.metric(name, value);
    }
    if inp.spec.sim.arq.is_some() {
        // Payload deliveries ÷ frames put on the channel (first sends,
        // retransmissions and standalone acks).
        let frames = stats.messages_sent + shim.retransmissions + shim.acks_sent;
        rep.metric(
            "sim.shim.useful_ratio",
            stats.messages_delivered as f64 / frames as f64,
        );
    }
    match case {
        SimCase::StaticA2 => {
            for n in [1000usize, 2000] {
                let ns = tr.span("sim.queue.ticker", |_| ticker_floor(n, seed, scale));
                rep.metric(&format!("sim.queue.ticker_ns_per_event_n{n}"), ns);
            }
        }
        SimCase::MobileA1 => {
            let w = tr.span("sim.world.relocate_replay", |_| relocate_replay(&inp));
            rep.metric("sim.world.relocate_ns", w.ns_per_relocate);
            rep.metric(
                "sim.world.candidates_per_relocate",
                w.candidates_per_relocate,
            );
            rep.metric("sim.world.link_changes", w.link_changes as f64);
        }
        SimCase::LossyArq => {}
    }
    rep.info(
        "attribution",
        format!(
            "untraced call {plain_s:.3} s, of it run_until {:.3} s; traced run_until {:.3} s with {} timed calls (clock pair {:.1} ns)",
            run_ns / 1e9,
            tr.seconds("sim.engine.run_until"),
            handler.calls + hooks.iter().map(|(_, busy)| busy.calls).sum::<u64>(),
            clock.pair_ns
        ),
    );
}

/// ns per event of a no-op ticker protocol on `n` constant-density nodes.
fn ticker_floor(n: usize, seed: u64, scale: Scale) -> f64 {
    let min_events: u64 = if scale.quick { 200_000 } else { 2_000_000 };
    let positions = harness::topology::random_connected(n, seed);
    let cfg = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let mut engine = Engine::new(cfg, positions, |_| Ticker::new());
    for i in 0..n as u32 {
        engine.set_hungry_at(SimTime(1 + u64::from(i % 7)), NodeId(i));
    }
    let start = Instant::now();
    let mut horizon = 0;
    while engine.stats().events < min_events && engine.abort().is_none() {
        horizon += 500;
        engine.run_until(SimTime(horizon));
    }
    start.elapsed().as_nanos() as f64 / engine.stats().events as f64
}

struct RelocateReplay {
    ns_per_relocate: f64,
    candidates_per_relocate: f64,
    link_changes: u64,
}

/// The workload's waypoint moves, stepped through `World::relocate` on a
/// fresh world exactly as far per step as the engine moves a node
/// (`speed × move_step_ticks`), one move after the other.
fn relocate_replay(inp: &SimInputs) -> RelocateReplay {
    let mut world = World::new(
        inp.spec.sim.radio_range,
        inp.positions.iter().map(|&p| Position::from(p)).collect(),
    );
    let (mut relocations, mut link_changes) = (0u64, 0u64);
    let start = Instant::now();
    for (_, cmd) in &inp.commands {
        let Command::StartMove { node, dest, speed } = *cmd else {
            continue;
        };
        let step = speed * inp.spec.sim.move_step_ticks as f64;
        loop {
            let at = world.position(node);
            let left = at.distance(dest);
            let next = if left <= step {
                dest
            } else {
                Position {
                    x: at.x + (dest.x - at.x) * step / left,
                    y: at.y + (dest.y - at.y) * step / left,
                }
            };
            link_changes += world.relocate(node, next).len() as u64;
            relocations += 1;
            if left <= step {
                break;
            }
        }
    }
    let ns = start.elapsed().as_nanos() as f64;
    RelocateReplay {
        ns_per_relocate: ns / relocations.max(1) as f64,
        candidates_per_relocate: world.candidates_examined() as f64 / relocations.max(1) as f64,
        link_changes,
    }
}

// -------------------------------------------------------------- check ---

fn check_traced(tr: &mut Tracer, rep: &mut RepReport, seed: u64, scale: Scale) {
    let inp = tr.span("bench.inputs", |_| check_inputs(seed, scale));
    // No adapter sits inside `certify`: the span wraps the public call, so
    // the traced call is the untraced call.
    let cert = tr.span("check.certify.jobs2", |_| certify(&inp.spec, &inp.cfg));
    let one_job = CertifyConfig {
        jobs: 1,
        ..inp.cfg.clone()
    };
    let cert1 = tr.span("check.certify.jobs1", |_| certify(&inp.spec, &one_job));
    let reference = tr.span("check.reference_runs", |_| run_reference(&inp));

    judge_certificate(rep, &cert, &reference, seed, scale);
    rep.check(
        "jobs-do-not-change-the-certificate",
        cert.to_json() == cert1.to_json(),
        "jobs 1 and jobs 2 certificates differ",
    );

    rep.metric("trace_overhead", 1.0);
    rep.metric("check.certify.dedup_prunes", cert.dedup_prunes as f64);
    rep.metric(
        "check.certify.max_branch_points",
        cert.max_branch_points as f64,
    );
    rep.metric(
        "check.certify.jobs_speedup",
        tr.seconds("check.certify.jobs1") / tr.seconds("check.certify.jobs2"),
    );
    rep.metric(
        "check.certify.reference_rt_excess",
        reference_rt_excess(&cert, &reference) as f64,
    );

    // One schedule to a verdict: the certificate's worst schedule and the
    // all-earliest and all-latest corners, 200 times each.
    let plans = [
        Plan::Replay {
            delays: cert.worst_schedule.clone(),
        },
        inp.reference[0].clone(),
        inp.reference[1].clone(),
    ];
    let rounds = if scale.quick { 20 } else { 200 };
    let per_schedule = tr.span("check.verdict.run_schedule", |_| {
        let start = Instant::now();
        for _ in 0..rounds {
            for plan in &plans {
                std::hint::black_box(run_schedule_mode(&inp.spec, plan, CERTIFY_MODE));
            }
        }
        start.elapsed().as_nanos() as f64 / (rounds * plans.len()) as f64
    });
    rep.metric("check.verdict.ns_per_schedule", per_schedule);

    // The state digest of a line engine in the middle of its contention.
    let digest_ns = tr.span("sim.digest.state_digest", |_| {
        let cfg = SimConfig {
            seed,
            ..SimConfig::default()
        };
        let mut engine: Engine<Algorithm2> =
            Engine::new_graph(cfg, inp.spec.n, &inp.spec.edges, |s| Algorithm2::new(&s));
        for &h in &inp.spec.hungry {
            engine.set_hungry_at(SimTime(1), NodeId(h));
        }
        engine.run_until(SimTime(15));
        let start = Instant::now();
        for _ in 0..10_000 {
            std::hint::black_box(engine.state_digest());
        }
        start.elapsed().as_nanos() as f64 / 10_000.0
    });
    rep.metric("sim.digest.state_digest_ns", digest_ns);

    // The seen-state table at the hit rate certification drives it at.
    let lookups = cert.dedup_prunes + cert.schedules;
    let hit_ratio = cert.dedup_prunes as f64 / lookups.max(1) as f64;
    let keys = table_keys(seed, hit_ratio);
    rep.metric("check.table.hit_ratio", hit_ratio);
    rep.metric(
        "check.table.insert_ns",
        tr.span("check.table.insert_1t", |_| table_insert_ns(&keys, 1)),
    );
    rep.metric(
        "check.table.insert_ns_2t",
        tr.span("check.table.insert_2t", |_| table_insert_ns(&keys, WORKERS)),
    );
    rep.info(
        "certify",
        format!(
            "jobs 2: {:.3} s, jobs 1: {:.3} s, {} schedules, {} prunes",
            tr.seconds("check.certify.jobs2"),
            tr.seconds("check.certify.jobs1"),
            cert.schedules,
            cert.dedup_prunes
        ),
    );
}

const TABLE_KEYS: usize = 200_000;

/// `TABLE_KEYS` digests of which a `hit_ratio` share repeat an earlier one.
fn table_keys(seed: u64, hit_ratio: f64) -> Vec<u64> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x7461_626c);
    let mut keys: Vec<u64> = Vec::with_capacity(TABLE_KEYS);
    for i in 0..TABLE_KEYS {
        let repeat = i > 0 && rng.gen_f64() < hit_ratio;
        let key = if repeat {
            keys[rng.gen_range(0..i as u64) as usize]
        } else {
            rng.gen_range(1..=u64::MAX)
        };
        keys.push(key);
    }
    keys
}

/// ns per `DigestTable::insert` with the keys split across `threads`.
fn table_insert_ns(keys: &[u64], threads: usize) -> f64 {
    let table = DigestTable::with_capacity(1 << 20);
    let start = Instant::now();
    let present: usize = std::thread::scope(|scope| {
        let workers: Vec<_> = keys
            .chunks(keys.len().div_ceil(threads))
            .map(|chunk| {
                let table = &table;
                scope.spawn(move || {
                    chunk
                        .iter()
                        .filter(|&&k| table.insert(k) == Insert::Present)
                        .count()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("table worker does not panic"))
            .sum()
    });
    std::hint::black_box(present);
    start.elapsed().as_nanos() as f64 / keys.len() as f64
}

// --------------------------------------------------------------- live ---

fn live_traced(tr: &mut Tracer, rep: &mut RepReport, case: LiveCase, seed: u64, scale: Scale) {
    let inp = tr.span("bench.inputs", |_| live_inputs(case, seed, scale));
    // No adapter sits inside `run_live` either: the span wraps the call.
    let run = match tr.span("net.run_live", |_| run_live_measured(&inp.cfg)) {
        Ok(run) => run,
        Err(e) => {
            rep.attempted = 1;
            rep.failed = 1;
            rep.check("run-live", false, e);
            return;
        }
    };
    let out = &run.out;
    judge_live(rep, &inp, out);
    let sessions = out.total_meals() as f64;
    let records = out.trace.len() as f64;
    if sessions == 0.0 || records == 0.0 {
        return;
    }
    let window_s = out.elapsed_ms as f64 / 1e3;
    let lag_s = run.wall_s - window_s;
    tr.aggregate("net.run_live", "net.run.window", (window_s * 1e9) as u64, 1);

    // The post-hoc replay, run again on the returned trace.
    let radio_range = SimConfig::default().radio_range;
    let replay = tr.span("net.replay.check_safety", |_| {
        measured(|| out.trace.check_safety(radio_range, &inp.cfg.positions))
    });
    rep.check(
        "replay-repeats-the-verdict",
        replay.out == out.violations,
        format!(
            "{} vs {} violations",
            replay.out.len(),
            out.violations.len()
        ),
    );

    // The k-way merge, on the returned records split back into per-shard
    // streams (the total order serves as each record's stamp).
    let n = inp.cfg.positions.len();
    let streams = split_by_shard(out.trace.records(), n);
    let merged = tr.span("net.merge.merge_stamped", |_| merge_stamped(streams));
    rep.check(
        "merge-keeps-every-record",
        merged.len() == out.trace.len(),
        format!("{} of {}", merged.len(), out.trace.len()),
    );

    let net_stats = out.trace.net_stats(n);
    let nodes_with_errors = net_stats
        .iter()
        .filter(|s| s.decode_errors + s.send_failures > 0)
        .count();

    let codec = tr.span("net.codec.roundtrip", |_| codec_bench(rep, scale));
    let live = [
        ("trace_overhead", 1.0),
        ("net.run.window_s", window_s),
        ("net.verdict.lag_s", lag_s),
        ("net.verdict.lag_us_per_record", lag_s * 1e6 / records),
        ("net.replay.check_safety_s", replay.wall_s),
        ("net.replay.us_per_record", replay.wall_s * 1e6 / records),
        ("net.merge.residual_s", lag_s - replay.wall_s),
        (
            "net.merge.merge_stamped_us_per_record",
            tr.seconds("net.merge.merge_stamped") * 1e6 / records,
        ),
        ("net.trace.records", records),
        ("net.trace.deliveries", out.trace.deliveries() as f64),
        ("net.trace.records_per_session", records / sessions),
        ("net.msgs.sent", out.messages_sent as f64),
        ("net.msgs.delivered", out.messages_delivered as f64),
        (
            "net.msgs.undelivered",
            out.messages_sent.saturating_sub(out.messages_delivered) as f64,
        ),
        (
            "net.msgs.msgs_per_session",
            out.messages_sent as f64 / sessions,
        ),
        ("net.stats.decode_errors", out.decode_errors as f64),
        ("net.stats.send_failures", out.send_failures as f64),
        ("net.stats.nodes_with_errors", nodes_with_errors as f64),
        ("net.cpu.run_share", (run.cpu_s - replay.cpu_s) / run.cpu_s),
        ("net.shard.cross_edge_share", inp.cross_edge_share),
    ];
    for (name, value) in live.into_iter().chain(codec) {
        rep.metric(name, value);
    }
}

/// The shard-local record streams a sharded run would have produced: each
/// record goes to the shard of the node that took it (driver records to
/// shard 0), stamped with its place in the total order.
fn split_by_shard(records: &[LiveRecord], n: usize) -> Vec<Vec<StampedRecord>> {
    let mut streams: Vec<Vec<StampedRecord>> = vec![Vec::new(); WORKERS];
    for r in records {
        let node = match r.kind {
            LiveEventKind::State { node, .. }
            | LiveEventKind::Recover { node }
            | LiveEventKind::NetStats { node, .. } => node,
            LiveEventKind::Deliver { to, .. } => to,
            _ => NodeId(0),
        };
        streams[shard_of(node.0, n)].push(StampedRecord {
            clock: r.order,
            at_ns: r.at_ns,
            kind: r.kind.clone(),
        });
    }
    streams
}

/// Encode and decode every `A2Msg` variant, frame and envelope, asserting
/// the round trip.
fn codec_bench(rep: &mut RepReport, scale: Scale) -> [(&'static str, f64); 5] {
    let corpus = [
        A2Msg::Req,
        A2Msg::Fork { flag: true, gen: 1 },
        A2Msg::Fork {
            flag: false,
            gen: u64::MAX,
        },
        A2Msg::Notification,
        A2Msg::Switch,
    ];
    let rounds = if scale.quick { 20_000 } else { 200_000 };
    let ops = (rounds * corpus.len()) as f64;
    let frames: Vec<Vec<u8>> = corpus.iter().map(encode_frame).collect();
    let envelopes: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| encode_envelope(NodeId(7), ENV_DATA, 42, 41, 123_456_789, f))
        .collect();
    let mut ok = true;
    for ((msg, frame), envelope) in corpus.iter().zip(&frames).zip(&envelopes) {
        ok &= decode_frame::<A2Msg>(frame).as_ref() == Ok(msg);
        ok &= decode_envelope(envelope).is_ok_and(|(from, kind, seq, ack, sent, f)| {
            (from, kind, seq, ack, sent, f)
                == (NodeId(7), ENV_DATA, 42, 41, 123_456_789, &frame[..])
        });
    }
    rep.check(
        "codec-round-trip",
        ok,
        "a frame or envelope did not round-trip",
    );
    let time = |work: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..rounds {
            work();
        }
        start.elapsed().as_nanos() as f64 / ops
    };
    let frame_bytes = frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len() as f64;
    [
        (
            "net.codec.encode_ns",
            time(&mut || {
                for m in &corpus {
                    std::hint::black_box(encode_frame(std::hint::black_box(m)));
                }
            }),
        ),
        (
            "net.codec.decode_ns",
            time(&mut || {
                for f in &frames {
                    std::hint::black_box(decode_frame::<A2Msg>(std::hint::black_box(f)).is_ok());
                }
            }),
        ),
        ("net.codec.frame_bytes", frame_bytes),
        (
            "net.envelope.encode_ns",
            time(&mut || {
                for f in &frames {
                    std::hint::black_box(encode_envelope(NodeId(7), ENV_DATA, 42, 41, 9, f));
                }
            }),
        ),
        (
            "net.envelope.decode_ns",
            time(&mut || {
                for e in &envelopes {
                    std::hint::black_box(decode_envelope(std::hint::black_box(e)).is_ok());
                }
            }),
        ),
    ]
}
