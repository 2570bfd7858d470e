//! Every `lme` command line the CI workflow runs, and every example in the
//! crate docs, parses: a CLI change cannot turn a CI step red without this
//! test failing first.

use std::collections::BTreeMap;
use std::path::Path;

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Shell words, a double-quoted string being one word.
fn words(s: &str) -> Vec<String> {
    s.split('"')
        .enumerate()
        .flat_map(|(i, part)| match i % 2 {
            0 => part.split_whitespace().map(str::to_string).collect(),
            _ => vec![part.to_string()],
        })
        .collect()
}

/// The `lme` arguments on one shell line: after `-p lme-cli --` or
/// `target/release/lme`, up to a redirection, pipe, quote, `)` or `;`.
fn lme_args(line: &str) -> Option<&str> {
    let start = ["-p lme-cli -- ", "target/release/lme "]
        .iter()
        .find_map(|lme| line.find(lme).map(|i| i + lme.len()))?;
    let rest = &line[start..];
    let end = [" 2>", ">", ")", "'", ";", "|", "&&"]
        .iter()
        .filter_map(|stop| rest.find(stop))
        .min()
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Every command line `args` stands for, with each shell variable bound
/// to each of its values (`$var` splits into words, `"$var"` does not
/// matter here: no value holds a quote).
fn expand(args: &str, vars: &BTreeMap<String, Vec<String>>) -> Vec<String> {
    let mut lines = vec![args.replace('"', "")];
    for (name, values) in vars {
        if lines[0].contains(name.as_str()) {
            lines = lines
                .iter()
                .flat_map(|l| values.iter().map(move |v| l.replace(name.as_str(), v)))
                .collect();
        }
    }
    lines
}

#[test]
fn every_documented_command_line_parses() {
    let ci = read("../../.github/workflows/ci.yml").replace("\\\n", " ");
    let mut vars: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for line in ci.lines().map(str::trim) {
        // `for alg in a b c; do` binds `$alg` to a, b and c.
        if let Some((name, values)) = line.strip_prefix("for ").and_then(|l| l.split_once(" in ")) {
            let values = values.trim_end_matches("; do");
            vars.entry(format!("${name}"))
                .or_default()
                .extend(words(values));
        }
        // A job matrix `alg: [a, b]` binds `${{ matrix.alg }}`.
        if let Some(values) = line.strip_prefix("alg: [") {
            let values = values.trim_end_matches(']').split(", ");
            let entry = vars.entry("${{ matrix.alg }}".to_string()).or_default();
            entry.extend(values.map(str::to_string));
        }
    }
    assert!(["$alg", "$topo", "$chan", "${{ matrix.alg }}"]
        .iter()
        .all(|v| vars.contains_key(*v)));
    let mut lines: Vec<String> = ci
        .lines()
        .filter_map(lme_args)
        .flat_map(|args| expand(args, &vars))
        .collect();
    assert!(lines.len() > 30, "only {} CI command lines", lines.len());
    let docs = read("src/lib.rs");
    let examples = docs.lines().filter_map(|l| l.strip_prefix("//! lme "));
    lines.extend(examples.map(str::to_string));
    for line in &lines {
        assert!(!line.contains('$'), "unbound variable in {line}");
        let argv = line.split_whitespace().map(str::to_string);
        if let Err(err) = lme_cli::parse(argv) {
            panic!("`lme {line}` no longer parses: {err}");
        }
    }
}
