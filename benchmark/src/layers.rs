//! The per-layer metrics the traced run reports. Layers are this repo's
//! crates and modules; every number is taken by the benchmark from outside,
//! around public calls. `README.md` says which end-to-end metric each one
//! should move, and on which workload. A metric reads 0 on a workload that
//! does not exercise its layer.

use crate::catalogue::{Better, END_TO_END};

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [Layer; 72] = [
    // The tracing itself.
    lower("trace_overhead", "ratio"),
    lower("trace.clock_ns", "ns"),
    // manet-sim: engine, queue, world, channel, shim.
    lower("sim.engine.new_s", "s"),
    lower("sim.engine.run_s", "s"),
    lower("sim.engine.events", "count"),
    lower("sim.engine.self_ns_per_event", "ns"),
    lower("sim.queue.ticker_ns_per_event_n1000", "ns"),
    lower("sim.queue.ticker_ns_per_event_n2000", "ns"),
    lower("sim.engine.dropped_at_send", "count"),
    lower("sim.engine.dropped_in_flight", "count"),
    lower("sim.world.relocate_ns", "ns"),
    lower("sim.world.candidates_per_relocate", "count"),
    lower("sim.world.link_changes", "count"),
    lower("sim.channel.frames_queued", "count"),
    lower("sim.channel.frames_lost", "count"),
    lower("sim.channel.burst_transitions", "count"),
    lower("sim.shim.retransmissions", "count"),
    lower("sim.shim.acks", "count"),
    higher("sim.shim.useful_ratio", "ratio"),
    lower("sim.digest.state_digest_ns", "ns"),
    // local-mutex: the protocol handlers.
    lower("core.alg2.handler_ns_per_event", "ns"),
    lower("core.alg2.handler_share", "ratio"),
    lower("core.alg1.handler_ns_per_event", "ns"),
    lower("core.alg1.handler_share", "ratio"),
    lower("core.handler.message_ns", "ns"),
    lower("core.handler.timer_ns", "ns"),
    lower("core.handler.link_ns", "ns"),
    lower("core.msgs.req_per_session", "count"),
    lower("core.msgs.fork_per_session", "count"),
    lower("core.msgs.notification_per_session", "count"),
    lower("core.msgs.switch_per_session", "count"),
    lower("core.msgs.doorway_per_session", "count"),
    lower("core.msgs.update-color_per_session", "count"),
    lower("core.msgs.hello_per_session", "count"),
    lower("core.msgs.recolor_per_session", "count"),
    // coloring.
    lower("coloring.linial.compute_s", "s"),
    // harness: the hooks every sim run carries.
    lower("harness.monitor.share", "ratio"),
    lower("harness.monitor.ns_per_quantum", "ns"),
    lower("harness.metrics.share", "ratio"),
    lower("harness.workload.share", "ratio"),
    // lme-check.
    lower("check.certify.dedup_prunes", "count"),
    lower("check.certify.max_branch_points", "count"),
    higher("check.certify.jobs_speedup", "ratio"),
    lower("check.certify.reference_rt_excess", "ticks"),
    lower("check.verdict.ns_per_schedule", "ns"),
    lower("check.table.insert_ns", "ns"),
    lower("check.table.insert_ns_2t", "ns"),
    higher("check.table.hit_ratio", "ratio"),
    // lme-net.
    lower("net.run.window_s", "s"),
    lower("net.verdict.lag_s", "s"),
    lower("net.verdict.lag_us_per_record", "us"),
    lower("net.replay.check_safety_s", "s"),
    lower("net.replay.us_per_record", "us"),
    lower("net.merge.residual_s", "s"),
    lower("net.merge.merge_stamped_us_per_record", "us"),
    lower("net.trace.records", "count"),
    lower("net.trace.deliveries", "count"),
    lower("net.trace.records_per_session", "count"),
    lower("net.codec.encode_ns", "ns"),
    lower("net.codec.decode_ns", "ns"),
    lower("net.codec.frame_bytes", "bytes"),
    lower("net.envelope.encode_ns", "ns"),
    lower("net.envelope.decode_ns", "ns"),
    lower("net.msgs.sent", "count"),
    lower("net.msgs.delivered", "count"),
    lower("net.msgs.undelivered", "count"),
    lower("net.msgs.msgs_per_session", "count"),
    lower("net.stats.decode_errors", "count"),
    lower("net.stats.send_failures", "count"),
    lower("net.stats.nodes_with_errors", "count"),
    higher("net.cpu.run_share", "ratio"),
    lower("net.shard.cross_edge_share", "ratio"),
];

/// Unit of any metric either catalogue names ("" for report-only extras).
pub fn unit_of(name: &str) -> &'static str {
    if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
        return m.unit;
    }
    match PER_LAYER.iter().find(|l| l.name == name) {
        Some(l) => l.unit,
        None if name == "verdict_lag_s" => "s",
        None if name == "verdict_lag_us_per_record" => "us",
        None if name == "rt_p50_ms" || name == "rt_p99_ms" => "ms",
        None => "",
    }
}
