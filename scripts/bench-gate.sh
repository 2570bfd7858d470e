#!/usr/bin/env bash
# The deterministic half of the benchmark gate. Builds the repo benchmark
# (benchmark/) at a base revision and in the working tree, runs each
# simulator and checker workload once at --quick sizes on both, and fails
# if either side is not correct or if a simulated-time metric
# (rt_p50_ticks, rt_p99_ticks, msgs_per_session) differs at all. Host-time
# metrics are not compared: on a shared CI runner they are too noisy to
# gate on.
#
# It also runs live_ring_local once at --quick sizes on both sides and
# fails if either is not correct or if head's live memory per trace
# record, peak_rss_mb * 2^20 / (events_per_s * wall_s) bytes, is more
# than 10 % (peak_rss_mb's bound in BENCHMARK.json) above base's. Peak
# RSS follows the trace's length, which follows host speed, so the
# quotient is what stays put across runners.
#
# Last, it runs live_cross_udp once at --quick sizes on both sides and
# fails if either is not correct, so the UDP path (batches over loopback
# sockets) is exercised end to end; none of its numbers are compared.
#
# Usage, from anywhere in the repository:
#   scripts/bench-gate.sh [BASE_REV]      # BASE_REV defaults to HEAD^
set -euo pipefail
cd "$(dirname "$0")/.."

base="${1:-HEAD^}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
git archive --format=tar "$base" | tar -x -C "$work"

# The last line the benchmark prints is its machine-readable result.
result() { # <checkout> <target dir> <workload>
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo run --release --quiet --offline \
        --manifest-path benchmark/Cargo.toml -- \
        --quick --reps 1 --workload "$3" | tail -n 1)
}

status=0
for workload in sim_static_a2 sim_mobile_a1 sim_lossy_arq check_certify; do
    before=$(result "$work" "$work/target" "$workload") || true
    after=$(result . "$PWD/target/bench-gate" "$workload") || true
    python3 - "$workload" "$before" "$after" <<'EOF' || status=1
import json
import sys

workload, sides = sys.argv[1], {}
for side, line in zip(("base", "head"), sys.argv[2:]):
    try:
        sides[side] = json.loads(line)
    except ValueError:
        sys.exit(f"{workload}: {side} printed no result line: {line!r}")
problems = [f"{side} is not correct" for side, r in sides.items() if not r["correct"]]
for metric in ("rt_p50_ticks", "rt_p99_ticks", "msgs_per_session"):
    a, b = (sides[s]["metrics"][metric]["value"] for s in ("base", "head"))
    if a != b:
        problems.append(f"{metric} {a!r} -> {b!r}")
print(f"{workload}: " + ("; ".join(problems) or "simulated-time metrics equal, both correct"))
sys.exit(1 if problems else 0)
EOF
done

before=$(result "$work" "$work/target" live_ring_local) || true
after=$(result . "$PWD/target/bench-gate" live_ring_local) || true
python3 - "$before" "$after" <<'EOF' || status=1
import json
import sys

sides = {}
for side, line in zip(("base", "head"), sys.argv[1:]):
    try:
        sides[side] = json.loads(line)
    except ValueError:
        sys.exit(f"live_ring_local: {side} printed no result line: {line!r}")
problems = [f"{side} is not correct" for side, r in sides.items() if not r["correct"]]
per_record = {}
for side, r in sides.items():
    m = {k: v["value"] for k, v in r["metrics"].items()}
    per_record[side] = m["peak_rss_mb"] * 2**20 / (m["events_per_s"] * m["wall_s"])
base, head = per_record["base"], per_record["head"]
if head > base * 1.10:
    problems.append(f"peak RSS per record {base:.1f} -> {head:.1f} B (more than +10 %)")
print(
    "live_ring_local: "
    + ("; ".join(problems) or f"peak RSS per record {base:.1f} -> {head:.1f} B, both correct")
)
sys.exit(1 if problems else 0)
EOF

before=$(result "$work" "$work/target" live_cross_udp) || true
after=$(result . "$PWD/target/bench-gate" live_cross_udp) || true
python3 - "$before" "$after" <<'EOF' || status=1
import json
import sys

problems = []
for side, line in zip(("base", "head"), sys.argv[1:]):
    try:
        if not json.loads(line)["correct"]:
            problems.append(f"{side} is not correct")
    except ValueError:
        problems.append(f"{side} printed no result line: {line!r}")
print("live_cross_udp: " + ("; ".join(problems) or "both correct"))
sys.exit(1 if problems else 0)
EOF
exit "$status"
