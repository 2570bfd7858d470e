//! The names this benchmark fixes: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` is printed
//! from these tables (`--contract`), so the file and the program cannot
//! drift apart.

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "sim_static_a2",
        why: "A2 on a static 50x40 grid: event core, alg2 handler and hooks do all the work; geo, channel, shim, coloring idle",
    },
    WorkloadDef {
        name: "sim_mobile_a1",
        why: "A1-linial on 1000 random nodes under waypoint motion: link churn drives relocate, LinkUp/Down, doorway and recoloring",
    },
    WorkloadDef {
        name: "sim_lossy_arq",
        why: "A2 on 1000 static random nodes over Gilbert-Elliott loss with the ARQ shim: channel and shim dominate, world idle",
    },
    WorkloadDef {
        name: "check_certify",
        why: "certify A2 on line:5 with 2 jobs and dedup: engine step, state digest and DigestTable; no live or large-n code runs",
    },
    WorkloadDef {
        name: "live_ring_local",
        why: "live A2 ring:400, 2 shards, mpsc, closed loop: ~0% cross-shard traffic, so wheel, handler, stamp, merge and replay dominate",
    },
    WorkloadDef {
        name: "live_cross_udp",
        why: "live A2 on 300 random nodes, 2 shards over UDP loopback, 20 cycles/node/s: half the edges cross shards via batch, codec, sockets",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every end-to-end metric is defined on every workload (the driver
/// compares each metric on each workload); `benchmark/README.md` gives the
/// per-workload definition of each.
///
/// The bounds of the host-time metrics are wide because the host is: thirty
/// consecutive `check_certify` repetitions on the 2-vCPU microVM this was
/// sized on drift between 3.02 s and 3.82 s over two minutes, and ten runs
/// with ten seeds spread (interquartile range over median) by 5 % on the
/// single-threaded workloads and by 9-17 % on the two-threaded checker.
/// The simulated metrics repeat to within 4 %.
pub const END_TO_END: [EndToEnd; 10] = [
    // Input generation and validation before the measured call (host time).
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // The one public call, inputs ready to verdict (host time; live = run window + verdict lag).
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // Events vouched for per wall second (sim: engine events; live: trace records; check: search nodes).
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    // Schedules judged per wall second (check: certificate schedules; sim and live: the one run).
    EndToEnd {
        name: "schedules_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    // Critical sections per second of execution (sim, check: of the call; live: of the run window).
    EndToEnd {
        name: "sessions_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    // Median hungry-to-eating response time in ticks (sim, check: simulated; live: wall at 0.1 ms/tick).
    EndToEnd {
        name: "rt_p50_ticks",
        unit: "ticks",
        better: Better::Lower,
        bound: 0.20,
    },
    // 99th percentile response time in ticks.
    EndToEnd {
        name: "rt_p99_ticks",
        unit: "ticks",
        better: Better::Lower,
        bound: 0.25,
    },
    // Messages sent per critical section, the paper's message complexity.
    EndToEnd {
        name: "msgs_per_session",
        unit: "count",
        better: Better::Lower,
        bound: 0.10,
    },
    // Process CPU (user + system) across the measured call per critical section.
    EndToEnd {
        name: "cpu_us_per_session",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    // Peak resident set (VmHWM) of the child process that ran the repetition.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];
