#!/usr/bin/env bash
# Full local gate: formatting, lints, tests. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# The whole workspace: the root integration suites and every crate's own
# unit tests (the root package alone does not reach those).
echo "== cargo test --workspace =="
cargo test -q --workspace

echo "All checks passed."
