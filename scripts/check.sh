#!/usr/bin/env bash
# Full local gate: formatting, lints, tests. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q

# The root suite does not reach the unit tests of these crates (the safety
# monitor, the live trace replay, the engine).
echo "== cargo test (harness, lme-net, manet-sim) =="
cargo test -q -p harness -p lme-net -p manet-sim

echo "All checks passed."
