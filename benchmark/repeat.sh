#!/usr/bin/env bash
# Run the full benchmark twice on the same build and fail if, for any
# workload, the second set's median of an end-to-end metric is worse than the
# first set's by more than that metric's bound in BENCHMARK.json.
#
#   benchmark/repeat.sh [flags passed on to the benchmark, e.g. --seed 11]
#
# Needs python3, only to compare the two results files.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/lme-benchmark"

for set in 1 2; do
    echo "== set $set =="
    "$bin" "$@"
    cp benchmark/out/results.json "benchmark/out/results-set$set.json"
done

python3 - <<'EOF'
import json, sys

contract = json.load(open("BENCHMARK.json"))
sets = [json.load(open(f"benchmark/out/results-set{i}.json")) for i in (1, 2)]
print(f"# {sets[0]['provenance']['git']}, {sets[0]['provenance']['mode']}")
print(f"{'workload':<16} {'metric':<20} {'set 1':>14} {'set 2':>14} {'worse by':>9} {'bound':>6}")
failed = 0
for first, second in zip(sets[0]["workloads"], sets[1]["workloads"]):
    for m in contract["end_to_end"]:
        a = first["metrics"][m["name"]]["median"]
        b = second["metrics"][m["name"]]["median"]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        verdict = "" if worse <= m["bound"] else "  FAIL"
        failed += bool(verdict)
        print(f"{first['name']:<16} {m['name']:<20} {a:>14.6g} {b:>14.6g} {worse:>8.1%} {m['bound']:>6.0%}{verdict}")
    if not (first["correct"] and second["correct"]):
        failed += 1
        print(f"{first['name']}: a correctness check failed")
print("repeat: FAIL" if failed else "repeat: ok, every second median within its bound of the first")
sys.exit(1 if failed else 0)
EOF
