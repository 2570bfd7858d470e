//! Run-level observability: per-run reports, JSON-lines emission, and
//! cross-run aggregation for the sweep executor.
//!
//! Every finished sweep cell becomes one [`RunReport`] — a flat record of
//! what happened in that run (meals, messages, drops, violations, response
//! -time summaries, probe results). Reports serialize to one JSON line each
//! with a fixed key order and deterministic number formatting, so a sweep's
//! JSONL output is byte-identical across repetitions and worker counts.
//! [`SweepReport`] groups runs and pools their raw response samples into
//! [`AggregateRow`]s (p50/p95/max over *all* pooled episodes, not summaries
//! of summaries).

use std::fmt;

use manet_sim::{FaultStats, NodeId, SimTime};

use crate::failure_locality::FlReport;
use crate::runner::RunOutcome;
use crate::stats::{jain_index, Summary};

/// Flat record of one finished run (one sweep cell).
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Sweep/topology label, e.g. `"line16"` (groups runs in aggregates).
    pub label: String,
    /// Algorithm display name (see [`crate::runner::AlgKind::name`]).
    pub alg: &'static str,
    /// The engine seed of this run.
    pub seed: u64,
    /// Node count.
    pub n: usize,
    /// Virtual-time horizon of the run.
    pub horizon: u64,
    /// Total completed critical sections.
    pub meals: u64,
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Messages delivered.
    pub messages_delivered: u64,
    /// Messages dropped at send time (no live link).
    pub dropped_at_send: u64,
    /// Messages dropped in flight (link died under them).
    pub dropped_in_flight: u64,
    /// Events processed by the engine.
    pub events: u64,
    /// Safety violations observed (0 for correct algorithms).
    pub violations: usize,
    /// Response-time summary of static episodes (Definition 1 regime).
    pub rt_static: Summary,
    /// Response-time summary over all episodes.
    pub rt_all: Summary,
    /// Jain fairness index of per-node meal counts.
    pub jain: f64,
    /// Number of starving nodes: `starving_nodes.len()`.
    pub starving: usize,
    /// Empirical failure locality from a crash probe (`None` = no
    /// starving node at a known distance from a crash, or not a probe).
    pub locality: Option<usize>,
    /// Injected-fault counters, by kind (all zero for fault-free runs).
    pub faults: FaultStats,
    /// Summary of per-episode message counts — the empirical message
    /// complexity of a CS entry under this algorithm.
    pub msg_complexity: Summary,
    /// Why the engine stopped early, if it did (e.g. the event-budget
    /// livelock guard): the rendered `manet_sim::RunAbort`. `None` for
    /// healthy runs. A cell carrying an abort failed gracefully — its
    /// siblings in a parallel sweep still complete.
    pub abort: Option<String>,
    /// Data frames retransmitted by the ARQ shim (0 when the shim is off).
    pub retransmissions: u64,
    /// Standalone acknowledgment frames emitted by the ARQ shim.
    pub acks_sent: u64,
    /// Crash recoveries executed during the run.
    pub recoveries: u64,
    /// Largest number of unacknowledged frames buffered on any directed
    /// link by the ARQ shim.
    pub buffer_high_water: u64,
    /// Frames the channel model queued behind other traffic (0 with the
    /// default i.i.d. channel).
    pub frames_queued: u64,
    /// Peak channel transmit-queue depth (per directed link or per
    /// neighborhood, depending on the model).
    pub queue_peak: u64,
    /// Gilbert–Elliott burst-chain state transitions.
    pub burst_transitions: u64,
    /// Frames lost by the channel itself (burst loss).
    pub frames_lost: u64,
    /// Raw static-episode response times, kept for pooled aggregation
    /// (not serialized).
    pub static_responses: Vec<u64>,
    /// Raw response times of all episodes, kept for pooled aggregation
    /// (not serialized).
    pub all_responses: Vec<u64>,
    /// The starving nodes, each with its hop distance from a crash
    /// probe's victim (see [`FlReport::starving`]; not serialized:
    /// the JSONL `starving` is their count).
    pub starving_nodes: Vec<(NodeId, Option<usize>)>,
    /// When a crash probe's victim crashed mid-CS (`None` when it never
    /// ate, or not a probe; not serialized).
    pub crash_time: Option<SimTime>,
}

impl RunReport {
    /// Build a report from a finished run. `starvation` carries its
    /// starving nodes and locality when the run was judged for them.
    pub fn from_outcome(
        label: &str,
        alg: &'static str,
        seed: u64,
        horizon: u64,
        outcome: &RunOutcome,
        starvation: Option<&FlReport>,
    ) -> RunReport {
        let static_responses = outcome.metrics.static_responses();
        let all_responses = outcome.metrics.all_responses();
        let msg_complexity = Summary::of(&outcome.metrics.msg_complexities());
        let (starving, locality) =
            starvation.map_or((&[][..], None), |fl| (&fl.starving, fl.locality));
        RunReport {
            label: label.to_string(),
            alg,
            seed,
            n: outcome.adjacency.len(),
            horizon,
            meals: outcome.total_meals(),
            messages_sent: outcome.messages_sent,
            messages_delivered: outcome.stats.messages_delivered,
            dropped_at_send: outcome.stats.dropped_at_send,
            dropped_in_flight: outcome.stats.dropped_in_flight,
            events: outcome.events,
            violations: outcome.violations.len(),
            rt_static: Summary::of(&static_responses),
            rt_all: Summary::of(&all_responses),
            jain: jain_index(&outcome.metrics.meals),
            starving: starving.len(),
            locality,
            faults: outcome.stats.faults.clone(),
            msg_complexity,
            abort: outcome.abort.clone(),
            retransmissions: outcome.stats.shim.retransmissions,
            acks_sent: outcome.stats.shim.acks_sent,
            recoveries: outcome.stats.faults.recoveries,
            buffer_high_water: outcome.stats.shim.buffer_high_water,
            frames_queued: outcome.stats.channel.frames_queued,
            queue_peak: outcome.stats.channel.queue_peak,
            burst_transitions: outcome.stats.channel.burst_transitions,
            frames_lost: outcome.stats.channel.frames_lost,
            static_responses,
            all_responses,
            starving_nodes: starving.to_vec(),
            crash_time: outcome.crash_time,
        }
    }

    /// Messages per completed critical section.
    pub fn messages_per_meal(&self) -> f64 {
        if self.meals == 0 {
            f64::INFINITY
        } else {
            self.messages_sent as f64 / self.meals as f64
        }
    }

    /// One JSON line (no trailing newline), fixed key order, deterministic
    /// number formatting.
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"label\":{},\"alg\":{},\"seed\":{},\"n\":{},\"horizon\":{},\
             \"meals\":{},\"messages_sent\":{},\"messages_delivered\":{},\
             \"dropped_at_send\":{},\"dropped_in_flight\":{},\"events\":{},\
             \"violations\":{},\"rt_static\":{},\"rt_all\":{},\"jain\":{},\
             \"starving\":{},\"locality\":{},\"faults\":{},\"msg_complexity\":{},\
             \"abort\":{},\"retransmissions\":{},\"acks_sent\":{},\
             \"recoveries\":{},\"buffer_high_water\":{},\"frames_queued\":{},\
             \"queue_peak\":{},\"burst_transitions\":{},\"frames_lost\":{}}}",
            json_str(&self.label),
            json_str(self.alg),
            self.seed,
            self.n,
            self.horizon,
            self.meals,
            self.messages_sent,
            self.messages_delivered,
            self.dropped_at_send,
            self.dropped_in_flight,
            self.events,
            self.violations,
            json_summary(&self.rt_static),
            json_summary(&self.rt_all),
            json_num(self.jain),
            self.starving,
            json_opt(self.locality),
            json_faults(&self.faults),
            json_summary(&self.msg_complexity),
            self.abort.as_deref().map_or("null".to_string(), json_str),
            self.retransmissions,
            self.acks_sent,
            self.recoveries,
            self.buffer_high_water,
            self.frames_queued,
            self.queue_peak,
            self.burst_transitions,
            self.frames_lost,
        )
    }
}

/// Everything a finished sweep produced, in cell order (seed-major inside
/// each `(label, alg)` group) — the order is a pure function of the sweep
/// spec, never of worker scheduling.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// One report per cell, in cell order.
    pub runs: Vec<RunReport>,
}

impl SweepReport {
    /// The full JSONL document: one line per run, in cell order, newline
    /// after every line. Byte-identical across repetitions and `--jobs`
    /// values.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.runs {
            out.push_str(&r.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// Write the JSONL document to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.jsonl())
    }

    /// Pool runs by `(label, alg)` in first-seen order.
    pub fn aggregate(&self) -> Vec<AggregateRow> {
        let mut rows: Vec<AggregateRow> = Vec::new();
        for r in &self.runs {
            let row = match rows
                .iter_mut()
                .find(|row| row.label == r.label && row.alg == r.alg)
            {
                Some(row) => row,
                None => {
                    rows.push(AggregateRow {
                        label: r.label.clone(),
                        alg: r.alg,
                        ..AggregateRow::default()
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.absorb(r);
        }
        for row in &mut rows {
            row.finish();
        }
        rows
    }
}

/// Pooled statistics over every run of one `(label, alg)` group.
#[derive(Clone, Debug, Default)]
pub struct AggregateRow {
    /// Group label.
    pub label: String,
    /// Algorithm display name.
    pub alg: &'static str,
    /// Number of runs pooled.
    pub runs: usize,
    /// Response-time summary over the *pooled* static episodes of every
    /// run (not a summary of per-run summaries).
    pub rt_static: Summary,
    /// Response-time summary over all pooled episodes.
    pub rt_all: Summary,
    /// Total meals across runs.
    pub meals: u64,
    /// Total messages sent across runs.
    pub messages_sent: u64,
    /// Total messages dropped at send time.
    pub dropped_at_send: u64,
    /// Total messages dropped in flight.
    pub dropped_in_flight: u64,
    /// Total safety violations (must be 0).
    pub violations: usize,
    /// Total starving nodes across probe runs.
    pub starving: usize,
    /// Worst empirical failure locality across probe runs.
    pub locality: Option<usize>,
    /// Total injected faults (all kinds) across runs.
    pub faults_injected: u64,
    pooled_static: Vec<u64>,
    pooled_all: Vec<u64>,
}

impl AggregateRow {
    fn absorb(&mut self, r: &RunReport) {
        self.runs += 1;
        self.meals += r.meals;
        self.messages_sent += r.messages_sent;
        self.dropped_at_send += r.dropped_at_send;
        self.dropped_in_flight += r.dropped_in_flight;
        self.violations += r.violations;
        self.starving += r.starving;
        self.locality = self.locality.max(r.locality);
        self.faults_injected += r.faults.total();
        self.pooled_static.extend_from_slice(&r.static_responses);
        self.pooled_all.extend_from_slice(&r.all_responses);
    }

    fn finish(&mut self) {
        self.rt_static = Summary::of(&self.pooled_static);
        self.rt_all = Summary::of(&self.pooled_all);
    }

    /// Messages per completed critical section across the group.
    pub fn messages_per_meal(&self) -> f64 {
        if self.meals == 0 {
            f64::INFINITY
        } else {
            self.messages_sent as f64 / self.meals as f64
        }
    }

    /// One JSON line (no trailing newline) for the aggregate, fixed key
    /// order.
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"label\":{},\"alg\":{},\"runs\":{},\"rt_static\":{},\"rt_all\":{},\
             \"meals\":{},\"messages_sent\":{},\"dropped_at_send\":{},\
             \"dropped_in_flight\":{},\"violations\":{},\"starving\":{},\
             \"locality\":{},\"faults_injected\":{}}}",
            json_str(&self.label),
            json_str(self.alg),
            self.runs,
            json_summary(&self.rt_static),
            json_summary(&self.rt_all),
            self.meals,
            self.messages_sent,
            self.dropped_at_send,
            self.dropped_in_flight,
            self.violations,
            self.starving,
            json_opt(self.locality),
            self.faults_injected,
        )
    }
}

impl fmt::Display for AggregateRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} {:<13} runs={:<3} static[{}] meals={} msg/meal={:.1} viol={}",
            self.label,
            self.alg,
            self.runs,
            self.rt_static,
            self.meals,
            self.messages_per_meal(),
            self.violations,
        )?;
        if self.starving > 0 || self.locality.is_some() {
            write!(
                f,
                " starving={} locality={}",
                self.starving,
                self.locality
                    .map_or_else(|| "-".to_string(), |d| d.to_string())
            )?;
        }
        Ok(())
    }
}

/// JSON string escaping for labels (ASCII control chars, quotes,
/// backslash).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An optional count: the number, or `null`.
fn json_opt(v: Option<usize>) -> String {
    v.map_or("null".to_string(), |v| v.to_string())
}

/// Deterministic JSON number: shortest round-trip formatting; non-finite
/// values become `null` (JSON has no NaN/Infinity).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Fixed-key-order JSON object for the per-kind fault counters.
fn json_faults(f: &FaultStats) -> String {
    format!(
        "{{\"dropped\":{},\"duplicated\":{},\"delayed\":{},\
         \"max_delay_forced\":{},\"crashes\":{},\"partitions\":{},\
         \"heals\":{}}}",
        f.msgs_dropped,
        f.msgs_duplicated,
        f.msgs_delayed,
        f.max_delay_forced,
        f.crashes_injected,
        f.partitions,
        f.heals,
    )
}

fn json_summary(s: &Summary) -> String {
    format!(
        "{{\"count\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"max\":{}}}",
        s.count,
        json_num(s.mean),
        s.p50,
        s.p95,
        s.max
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_and_numbers() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("tab\tend"), "\"tab\\u0009end\"");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(f64::NAN), "null");
    }

    #[test]
    fn aggregate_pools_raw_samples() {
        let mk = |seed: u64, responses: Vec<u64>| RunReport {
            label: "g".into(),
            alg: "A2",
            seed,
            n: 4,
            horizon: 100,
            meals: responses.len() as u64,
            messages_sent: 10,
            messages_delivered: 9,
            dropped_at_send: 1,
            dropped_in_flight: 0,
            events: 50,
            violations: 0,
            rt_static: Summary::of(&responses),
            rt_all: Summary::of(&responses),
            jain: 1.0,
            starving: 0,
            locality: None,
            faults: FaultStats::default(),
            msg_complexity: Summary::default(),
            abort: None,
            retransmissions: 0,
            acks_sent: 0,
            recoveries: 0,
            buffer_high_water: 0,
            frames_queued: 0,
            queue_peak: 0,
            burst_transitions: 0,
            frames_lost: 0,
            static_responses: responses.clone(),
            all_responses: responses,
            starving_nodes: Vec::new(),
            crash_time: None,
        };
        let report = SweepReport {
            runs: vec![mk(1, vec![1, 2, 3]), mk(2, vec![100])],
        };
        let agg = report.aggregate();
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].runs, 2);
        // Pooled max comes from the second run — a summary-of-summaries
        // would have averaged it away.
        assert_eq!(agg[0].rt_static.max, 100);
        assert_eq!(agg[0].rt_static.count, 4);
        assert_eq!(agg[0].meals, 4);
    }

    #[test]
    fn jsonl_lines_are_valid_and_stable() {
        let r = RunReport {
            label: "line8".into(),
            alg: "A2",
            seed: 7,
            n: 8,
            horizon: 1000,
            meals: 3,
            messages_sent: 12,
            messages_delivered: 11,
            dropped_at_send: 1,
            dropped_in_flight: 0,
            events: 99,
            violations: 0,
            rt_static: Summary::of(&[4, 6]),
            rt_all: Summary::of(&[4, 6]),
            jain: 0.5,
            starving: 0,
            locality: None,
            faults: FaultStats::default(),
            msg_complexity: Summary::of(&[5, 9]),
            abort: None,
            retransmissions: 2,
            acks_sent: 1,
            recoveries: 1,
            buffer_high_water: 3,
            frames_queued: 0,
            queue_peak: 0,
            burst_transitions: 0,
            frames_lost: 0,
            static_responses: vec![4, 6],
            all_responses: vec![4, 6],
            starving_nodes: Vec::new(),
            crash_time: None,
        };
        let line = r.to_jsonl();
        assert_eq!(line, r.to_jsonl(), "serialization must be stable");
        assert!(line.starts_with("{\"label\":\"line8\",\"alg\":\"A2\",\"seed\":7,"));
        assert!(line.contains("\"locality\":null"));
        assert!(line.contains(
            "\"faults\":{\"dropped\":0,\"duplicated\":0,\"delayed\":0,\
             \"max_delay_forced\":0,\"crashes\":0,\"partitions\":0,\"heals\":0}"
        ));
        // p95 of a 2-sample set floors to the first element (nearest-rank).
        assert!(
            line.contains("\"rt_static\":{\"count\":2,\"mean\":5,\"p50\":4,\"p95\":4,\"max\":6}")
        );
        // New keys are suffix-appended (msg_complexity, abort, then the
        // reliability counters), so pre-existing consumers keyed on the
        // prefix keep working.
        assert!(line.contains(
            ",\"msg_complexity\":{\"count\":2,\"mean\":7,\"p50\":5,\"p95\":5,\"max\":9},\
             \"abort\":null"
        ));
        assert!(line.ends_with(
            ",\"abort\":null,\"retransmissions\":2,\"acks_sent\":1,\
             \"recoveries\":1,\"buffer_high_water\":3,\"frames_queued\":0,\
             \"queue_peak\":0,\"burst_transitions\":0,\"frames_lost\":0}"
        ));
        let aborted = RunReport {
            abort: Some("event budget exceeded (100 events): livelock?".into()),
            ..r.clone()
        };
        assert!(aborted.to_jsonl().contains(
            ",\"abort\":\"event budget exceeded (100 events): livelock?\",\
             \"retransmissions\":"
        ));

        // Prefix-stability against the PR-7 on-disk format: the exact line
        // the previous release emitted for this report must reappear
        // verbatim as a prefix, with the channel counters suffix-appended —
        // consumers keyed on the old keys keep working untouched.
        let pr7_fixture = "{\"label\":\"line8\",\"alg\":\"A2\",\"seed\":7,\"n\":8,\
             \"horizon\":1000,\"meals\":3,\"messages_sent\":12,\"messages_delivered\":11,\
             \"dropped_at_send\":1,\"dropped_in_flight\":0,\"events\":99,\"violations\":0,\
             \"rt_static\":{\"count\":2,\"mean\":5,\"p50\":4,\"p95\":4,\"max\":6},\
             \"rt_all\":{\"count\":2,\"mean\":5,\"p50\":4,\"p95\":4,\"max\":6},\"jain\":0.5,\
             \"starving\":0,\"locality\":null,\"faults\":{\"dropped\":0,\"duplicated\":0,\
             \"delayed\":0,\"max_delay_forced\":0,\"crashes\":0,\"partitions\":0,\"heals\":0},\
             \"msg_complexity\":{\"count\":2,\"mean\":7,\"p50\":5,\"p95\":5,\"max\":9},\
             \"abort\":null,\"retransmissions\":2,\"acks_sent\":1,\"recoveries\":1,\
             \"buffer_high_water\":3}";
        let pr7_prefix = pr7_fixture.strip_suffix('}').unwrap();
        assert!(
            line.starts_with(pr7_prefix),
            "PR-7 JSONL keys must survive byte-for-byte as a prefix"
        );
        assert_eq!(
            &line[pr7_prefix.len()..],
            ",\"frames_queued\":0,\"queue_peak\":0,\"burst_transitions\":0,\"frames_lost\":0}",
            "channel keys must be appended strictly after the PR-7 suffix"
        );
    }
}
