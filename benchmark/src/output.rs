//! What a run prints and writes: the provenance header, one table per
//! workload, the machine-readable result line, `results.json`, and
//! `BENCHMARK.json` itself.

use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::catalogue::{END_TO_END, WORKLOADS};
use crate::layers::{unit_of, PER_LAYER};
use crate::workloads::{HELD_OUT_SEED, WORKERS};
use crate::{Args, WorkloadResult, DEFAULT_REPS, OUT_DIR};

pub struct Provenance {
    git: String,
    rustc: String,
    profile: &'static str,
    parallelism: usize,
    seed: u64,
    mode: String,
}

fn tool_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

pub fn provenance(args: &Args) -> Provenance {
    // Only a checkout that is itself a repository is asked: elsewhere git
    // would climb out of the working directory looking for one.
    let rev = std::path::Path::new(".git")
        .exists()
        .then(|| tool_line("git", &["rev-parse", "--short=12", "HEAD"]))
        .flatten();
    let git = match rev {
        Some(rev) => {
            let dirty = tool_line("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            format!("{rev}{}", if dirty { " (dirty)" } else { "" })
        }
        // The driver's checkout is a plain directory.
        None => "unknown (not a git checkout)".to_string(),
    };
    let reps = match (args.trace, args.reps, args.seconds) {
        (true, _, _) => "1 traced run per workload".to_string(),
        (_, Some(k), _) => format!("k = {k} repetitions"),
        (_, None, Some(s)) => format!("k >= {DEFAULT_REPS} repetitions, as many as fit in {s} s"),
        (_, None, None) => format!("k = {DEFAULT_REPS} repetitions"),
    };
    let quick = if args.quick {
        "QUICK sizes, numbers not comparable; "
    } else {
        ""
    };
    Provenance {
        git,
        rustc: tool_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        parallelism: std::thread::available_parallelism().map_or(0, usize::from),
        seed: args.seed,
        mode: format!("{quick}{reps}; reported value = median over repetitions"),
    }
}

pub fn header_text(p: &Provenance) -> String {
    let held_out = if p.seed == HELD_OUT_SEED {
        " (the held-out seed)"
    } else {
        ""
    };
    format!(
        "# lme-benchmark\n# git {}\n# {}, profile {}\n# available_parallelism {}, live workers {WORKERS}, checker jobs {WORKERS}\n# seed {}{held_out}\n# {}\n",
        p.git, p.rustc, p.profile, p.parallelism, p.seed, p.mode
    )
}

pub fn workload_text(res: &WorkloadResult, args: &Args) -> String {
    let why = WORKLOADS
        .iter()
        .find(|w| w.name == res.name)
        .map_or("", |w| w.why);
    let mut out = format!("\n== {} — {why}\n", res.name);
    for (k, v) in res.reps.first().map_or(&[][..], |r| &r.info[..]) {
        let _ = writeln!(out, "   {k}: {v}");
    }
    let _ = writeln!(
        out,
        "   {:<44} {:>14} {:>14} {:>14} {:>2}  {:<6} bound",
        "metric", "median", "min", "max", "k", "unit"
    );
    for (name, s) in &res.metrics {
        let bound = match END_TO_END.iter().find(|m| m.name == name) {
            Some(m) if !args.trace => format!("{:.0}% {}", m.bound * 100.0, m.better.name()),
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "   {name:<44} {:>14} {:>14} {:>14} {:>2}  {:<6} {bound}",
            human(s.median),
            human(s.min),
            human(s.max),
            s.samples,
            unit_of(name)
        );
    }
    let _ = writeln!(
        out,
        "   attempted {} failed {} failed_share {:?} correct {}",
        res.attempted,
        res.failed,
        res.failed as f64 / res.attempted.max(1) as f64,
        res.correct()
    );
    out
}

/// Fixed-point at everyday magnitudes, so a column reads at a glance.
fn human(v: f64) -> String {
    let a = v.abs();
    if a == 0.0 {
        "0".to_string()
    } else if a >= 1e5 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.6}")
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` with the
/// metrics this mode's contract names: the end-to-end ones untraced, the
/// per-layer ones traced. Values carry all their digits.
pub fn result_line(res: &WorkloadResult, trace: bool) -> String {
    let names: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|l| (l.name, l.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics: Vec<String> = names
        .into_iter()
        .map(|(name, unit)| {
            // A layer metric a workload does not exercise reads 0.
            let v = res
                .metrics
                .iter()
                .find(|(m, _)| m == name)
                .map_or(0.0, |(_, s)| s.median);
            format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        res.correct(),
        res.attempted.max(1),
        res.failed,
        metrics.join(", ")
    )
}

/// `benchmark/out/results.json` (`results-traced.json` for the traced set):
/// the provenance header and, per workload, every metric's median, min, max
/// and sample count.
pub fn write_results(
    p: &Provenance,
    results: &[WorkloadResult],
    args: &Args,
) -> std::io::Result<()> {
    let workloads: Vec<String> = results
        .iter()
        .map(|res| {
            let info: Vec<String> = res
                .reps
                .first()
                .map_or(&[][..], |r| &r.info[..])
                .iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
                .collect();
            let failures: Vec<String> = res.failures.iter().map(|f| json_str(f)).collect();
            let metrics: Vec<String> = res
                .metrics
                .iter()
                .map(|(name, s)| {
                    format!(
                        "       {}: {{\"median\": {:?}, \"min\": {:?}, \"max\": {:?}, \"samples\": {}, \"unit\": {}}}",
                        json_str(name),
                        s.median,
                        s.min,
                        s.max,
                        s.samples,
                        json_str(unit_of(name))
                    )
                })
                .collect();
            format!(
                "    {{\"name\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"repetitions\": {},\n     \"info\": {{{}}},\n     \"failures\": [{}],\n     \"metrics\": {{\n{}\n     }}}}",
                json_str(&res.name),
                res.correct(),
                res.attempted,
                res.failed,
                res.reps.len(),
                info.join(", "),
                failures.join(", "),
                metrics.join(",\n")
            )
        })
        .collect();
    let out = format!(
        "{{\n  \"provenance\": {{\"git\": {}, \"rustc\": {}, \"profile\": {}, \"available_parallelism\": {}, \"live_workers\": {WORKERS}, \"checker_jobs\": {WORKERS}, \"seed\": {}, \"trace\": {}, \"quick\": {}, \"mode\": {}}},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        json_str(&p.git),
        json_str(&p.rustc),
        json_str(p.profile),
        p.parallelism,
        p.seed,
        args.trace,
        args.quick,
        json_str(&p.mode),
        workloads.join(",\n")
    );
    std::fs::create_dir_all(OUT_DIR)?;
    let file = if args.trace {
        "results-traced.json"
    } else {
        "results.json"
    };
    std::fs::write(format!("{OUT_DIR}/{file}"), out)
}

/// `BENCHMARK.json`, printed from the catalogues.
pub fn contract_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {:?}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.name()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|l| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(l.name),
                json_str(l.unit),
                json_str(l.better.name())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": 15,\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
