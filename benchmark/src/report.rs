//! What one repetition reports, and the line protocol a child process uses
//! to hand it to the parent.

use std::fmt::Write as _;

/// One correctness check of the gate inside the benchmark command.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one repetition of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct RepReport {
    /// Metric name → value. Units live in the catalogue.
    pub metrics: Vec<(String, f64)>,
    /// Counters that must repeat exactly across repetitions of a
    /// deterministic workload (empty for live workloads).
    pub exact: Vec<(String, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Free-form provenance (sizes, loop shape, sample counts).
    pub info: Vec<(String, String)>,
}

impl RepReport {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn exact(&mut self, name: &str, value: u64) {
        self.exact.push((name.to_string(), value));
    }

    pub fn info(&mut self, key: &str, text: impl Into<String>) {
        self.info.push((key.to_string(), text.into()));
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Serialize for the parent: one tab-separated record per line.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.metrics {
            // `{:?}` prints the shortest string that round-trips the f64.
            let _ = writeln!(out, "M\t{name}\t{v:?}");
        }
        for (name, v) in &self.exact {
            let _ = writeln!(out, "X\t{name}\t{v}");
        }
        let _ = writeln!(out, "A\t{}\t{}", self.attempted, self.failed);
        for c in &self.checks {
            let _ = writeln!(out, "C\t{}\t{}\t{}", c.name, c.ok, one_line(&c.detail));
        }
        for (k, v) in &self.info {
            let _ = writeln!(out, "I\t{k}\t{}", one_line(v));
        }
        out
    }

    /// Parse what [`RepReport::to_lines`] wrote; lines of any other shape
    /// (a library's stray prints) are ignored.
    pub fn from_lines(text: &str) -> Result<RepReport, String> {
        let mut rep = RepReport::default();
        let mut saw_counts = false;
        for line in text.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("malformed child line: {line:?}");
            match f.as_slice() {
                ["M", name, v] => rep.metric(name, v.parse().map_err(|_| bad())?),
                ["X", name, v] => rep.exact(name, v.parse().map_err(|_| bad())?),
                ["A", a, b] => {
                    rep.attempted = a.parse().map_err(|_| bad())?;
                    rep.failed = b.parse().map_err(|_| bad())?;
                    saw_counts = true;
                }
                ["C", name, ok, detail] => {
                    rep.check(name, ok.parse().map_err(|_| bad())?, *detail);
                }
                ["I", k, v] => rep.info(k, *v),
                _ => {}
            }
        }
        if !saw_counts {
            return Err("child printed no attempted/failed record".into());
        }
        Ok(rep)
    }
}

fn one_line(s: &str) -> String {
    s.replace(['\t', '\n'], " ")
}
