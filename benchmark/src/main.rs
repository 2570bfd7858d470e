//! The repo benchmark: one command that builds, runs the six workloads,
//! checks their outputs and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- [flags]
//!   --workload <name>   run one workload (repeatable; default: all six)
//!   --seed <u64>        input seed (default 7; 11 is the held-out seed)
//!   --seconds <s>       keep repeating until this much time is measured
//!   --reps <k>          exactly k repetitions (default 3)
//!   --trace [0|1]       the traced run: per-layer metrics and overhead
//!   --quick             smoke sizes; numbers are not comparable
//!   --contract          print BENCHMARK.json from the built-in tables
//! ```
//!
//! Every repetition runs in a child process of its own (this binary with
//! `--child`), so `VmHWM` is that repetition's peak and nothing leaks from
//! one repetition into the next.

mod adapters;
mod catalogue;
mod layers;
mod output;
mod procfs;
mod report;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use catalogue::WORKLOADS;
use output::{contract_json, header_text, provenance, result_line, workload_text, write_results};
use report::RepReport;
use stats::Spread;
use workloads::{case_of, Scale, DEFAULT_SEED};

/// Where spans and results are written, relative to the working directory
/// (the root of the checkout).
pub const OUT_DIR: &str = "benchmark/out";

pub const DEFAULT_REPS: usize = 3;

pub struct Args {
    workloads: Vec<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub reps: Option<usize>,
    pub trace: bool,
    pub quick: bool,
    child: bool,
    contract: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        reps: None,
        trace: false,
        quick: false,
        child: false,
        contract: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if case_of(&name).is_none() {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload '{name}'; known: {}",
                        known.join(", ")
                    ));
                }
                a.workloads.push(name);
            }
            "--seed" => {
                a.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            "--reps" => {
                let k: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if k == 0 {
                    return Err("--reps must be at least 1".into());
                }
                a.reps = Some(k);
            }
            "--trace" => {
                // The driver passes `--trace 0|1`; by hand it is a switch.
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => a.quick = true,
            "--child" => a.child = true,
            "--contract" => a.contract = true,
            other => return Err(format!("unknown flag '{other}' (see benchmark/README.md)")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.contract {
        print!("{}", contract_json());
        return ExitCode::SUCCESS;
    }
    if args.child {
        return child_main(&args);
    }
    parent_main(&args)
}

// -------------------------------------------------------------- child ---

fn child_main(args: &Args) -> ExitCode {
    let name = &args.workloads[0];
    let case = case_of(name).expect("validated by parse_args");
    let scale = Scale { quick: args.quick };
    let rep = if args.trace {
        traced::traced_rep(name, case, args.seed, scale)
    } else {
        workloads::untraced_rep(case, args.seed, scale)
    };
    print!("{}", rep.to_lines());
    ExitCode::SUCCESS
}

fn spawn_rep(name: &str, args: &Args) -> Result<RepReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--child",
        "--workload",
        name,
        "--seed",
        &args.seed.to_string(),
    ]);
    if args.trace {
        cmd.arg("--trace");
    }
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child and collects its stdout; its stderr
    // (panics, library diagnostics) passes straight through.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child for {name} exited with {}", out.status));
    }
    RepReport::from_lines(&String::from_utf8_lossy(&out.stdout))
}

// ------------------------------------------------------------- parent ---

/// One workload's repetitions, folded.
pub struct WorkloadResult {
    pub name: String,
    pub reps: Vec<RepReport>,
    pub metrics: Vec<(String, Spread)>,
    pub attempted: u64,
    pub failed: u64,
    /// Every failed check, ready to print.
    pub failures: Vec<String>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

fn run_workload(name: &str, args: &Args) -> WorkloadResult {
    let mut res = WorkloadResult {
        name: name.to_string(),
        reps: Vec::new(),
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    // The traced run is one child: it measures its own untraced twin for
    // the overhead ratio and then the layer micro-measurements.
    let fixed = if args.trace { Some(1) } else { args.reps };
    let started = Instant::now();
    loop {
        match spawn_rep(name, args) {
            Ok(rep) => res.reps.push(rep),
            Err(e) => {
                res.failures.push(format!("{name}: {e}"));
                res.attempted = res.attempted.max(1);
                res.failed += 1;
                return res;
            }
        }
        let done = res.reps.len();
        let enough = match (fixed, args.seconds) {
            (Some(k), _) => done >= k,
            (None, None) => done >= DEFAULT_REPS,
            (None, Some(s)) => {
                let elapsed = started.elapsed().as_secs_f64();
                done >= DEFAULT_REPS && elapsed + elapsed / done as f64 > s
            }
        };
        if enough {
            break;
        }
    }
    fold(&mut res);
    res
}

/// Medians per metric, the correctness gate, and the exact-counter check.
fn fold(res: &mut WorkloadResult) {
    let name = &res.name;
    let failures = &mut res.failures;
    for (i, rep) in res.reps.iter().enumerate() {
        res.attempted += rep.attempted;
        res.failed += rep.failed;
        for c in rep.checks.iter().filter(|c| !c.ok) {
            failures.push(format!(
                "{name} rep {i}: check '{}' failed: {}",
                c.name, c.detail
            ));
        }
        if rep.failed > 0 {
            failures.push(format!(
                "{name} rep {i}: {} of {} operations failed",
                rep.failed, rep.attempted
            ));
        }
        if rep.exact != res.reps[0].exact {
            failures.push(format!(
                "{name} rep {i}: counters {:?} differ from rep 0's {:?}; a deterministic workload must repeat exactly",
                rep.exact, res.reps[0].exact
            ));
        }
    }
    // Every repetition reports the metrics the first one does.
    for (m, _) in &res.reps[0].metrics {
        let values: Vec<f64> = res.reps.iter().filter_map(|r| r.get(m)).collect();
        if values.len() != res.reps.len() || values.iter().any(|v| !v.is_finite()) {
            failures.push(format!(
                "{name}: metric {m} is missing or not finite in a repetition: {values:?}"
            ));
            continue;
        }
        res.metrics.push((m.clone(), Spread::of(values)));
    }
    if res.attempted == 0 {
        failures.push(format!("{name}: nothing was attempted"));
    }
}

fn parent_main(args: &Args) -> ExitCode {
    // Results and spans go to `benchmark/out` under the working directory.
    if !std::path::Path::new("benchmark/Cargo.toml").exists() {
        eprintln!("error: run the benchmark from the root of the repository");
        return ExitCode::from(2);
    }
    let header = provenance(args);
    print!("{}", header_text(&header));
    let mut results = Vec::new();
    for name in &args.workloads {
        let res = run_workload(name, args);
        print!("{}", workload_text(&res, args));
        results.push(res);
    }
    if let Err(e) = write_results(&header, &results, args) {
        eprintln!("error: writing {OUT_DIR}/results.json: {e}");
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    for res in &results {
        for f in &res.failures {
            ok = false;
            println!("FAILED {f}");
        }
    }
    // The last line is the machine-readable result of the last workload
    // run (the driver always names exactly one).
    for res in &results {
        println!("{}", result_line(res, args.trace));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
