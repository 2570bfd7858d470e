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
# With --pairs N it measures host time instead, and runs nothing above.
# It builds each side's benchmark once and runs N alternating pairs of
# full-size `--reps 1` runs per workload (base first in odd pairs, head
# first in even ones). For each end-to-end metric in BENCHMARK.json it
# prints both sides' median [quartiles], the change, and how many pairs
# head won (ties count for neither), then a verdict under that metric's
# bound:
#   worse       head's median is past the bound in the bad direction;
#   unresolved  base's own quartile spread exceeds the bound, so the
#               runs cannot tell a move of that size from noise;
#   ok          otherwise.
# It fails on any `worse`, on a run that is not correct or prints no
# result, and on a larger share of failed operations at head. Every
# run's result line is kept in target/bench-gate/pairs.jsonl.
#
# Usage, from anywhere in the repository:
#   scripts/bench-gate.sh [BASE_REV]      # BASE_REV defaults to HEAD^
#   scripts/bench-gate.sh --pairs N [--workload W]... [--seed S] [BASE_REV]
#                                         # default: every workload, seed 7
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/bench-gate.sh [--pairs N [--workload W]... [--seed S]] [BASE_REV]"
base="HEAD^"
pairs=""
seed=""
workloads=()
while [ "$#" -gt 0 ]; do
    case "$1" in
        --pairs) pairs="${2:?$usage}"; shift 2 ;;
        --workload) workloads+=("${2:?$usage}"); shift 2 ;;
        --seed) seed="${2:?$usage}"; shift 2 ;;
        -*) echo "$usage" >&2; exit 2 ;;
        *) base="$1"; shift ;;
    esac
done
if [ -z "$pairs" ] && { [ -n "$seed" ] || [ "${#workloads[@]}" -gt 0 ]; }; then
    echo "--workload and --seed apply only with --pairs; $usage" >&2
    exit 2
fi
if [ -n "$pairs" ] && ! [[ "$pairs" =~ ^[1-9][0-9]*$ ]]; then
    echo "--pairs takes a positive count; $usage" >&2
    exit 2
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
git archive --format=tar "$base" | tar -x -C "$work"

if [ -n "$pairs" ]; then
    build() { # <checkout> <target dir>
        (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --quiet --offline \
            --manifest-path benchmark/Cargo.toml)
    }
    build "$work" "$work/target"
    build . "$PWD/target/bench-gate"
    if [ "${#workloads[@]}" -eq 0 ]; then
        mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
    fi
    runs="$PWD/target/bench-gate/pairs.jsonl"
    : >"$runs"
    run() { # <side> <workload> <pair>
        local dir="$work" bin="$work/target/release/lme-benchmark" line
        if [ "$1" = head ]; then
            dir="$PWD" bin="$PWD/target/bench-gate/release/lme-benchmark"
        fi
        line=$(cd "$dir" && "$bin" --reps 1 --workload "$2" ${seed:+--seed "$seed"} \
            | tail -n 1) || true
        python3 -c 'import json, sys; print(json.dumps(dict(zip(
            ("side", "workload", "pair", "line"), sys.argv[1:]))))' "$1" "$2" "$3" "$line" >>"$runs"
    }
    for workload in "${workloads[@]}"; do
        for pair in $(seq 1 "$pairs"); do
            if [ $((pair % 2)) -eq 1 ]; then
                run base "$workload" "$pair"
                run head "$workload" "$pair"
            else
                run head "$workload" "$pair"
                run base "$workload" "$pair"
            fi
        done
    done
    python3 - "$runs" "$base" "${seed:-7}" <<'EOF'
import json
import statistics
import sys

runs_path, base_rev, seed = sys.argv[1:]
contract = json.load(open("BENCHMARK.json"))
runs = {}  # workload -> side -> pair -> result
for entry in map(json.loads, open(runs_path)):
    try:
        result = json.loads(entry["line"])
    except ValueError:
        result = None
    runs.setdefault(entry["workload"], {}).setdefault(entry["side"], {})[entry["pair"]] = result


def spread(xs):
    """Median and quartiles."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q2, q1, q3


status = 0
print(f"# base {base_rev} vs head (working tree), seed {seed}, alternating --reps 1 pairs")
for workload, sides in runs.items():
    pairs = sorted(set(sides["base"]) & set(sides["head"]), key=int)
    problems = []
    for side in ("base", "head"):
        bad = [p for p in pairs if not (sides[side][p] or {}).get("correct")]
        if bad:
            problems.append(f"{side} not correct or no result in pair(s) {', '.join(bad)}")
    ok_pairs = [p for p in pairs if sides["base"][p] and sides["head"][p]]
    share = {}
    for side in ("base", "head"):
        attempted = sum(sides[side][p]["attempted"] for p in ok_pairs)
        failed = sum(sides[side][p]["failed"] for p in ok_pairs)
        share[side] = failed / attempted if attempted else 0.0
    if share["head"] > share["base"]:
        problems.append(f"failed share {share['base']:.4%} -> {share['head']:.4%}")
    print(f"\n{workload}: {len(ok_pairs)} pairs")
    print(f"  {'metric':<20} {'base median [quartiles]':>30} {'head median [quartiles]':>30}"
          f" {'change':>8} {'head won':>8}  verdict")
    for m in contract["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        vals = {s: [sides[s][p]["metrics"][name]["value"] for p in ok_pairs] for s in sides}
        if not ok_pairs or any(v is None for xs in vals.values() for v in xs):
            print(f"  {name:<20} n/a")
            continue
        (bm, bq1, bq3), (hm, hq1, hq3) = spread(vals["base"]), spread(vals["head"])
        won = sum((h < b) if lower else (h > b) for b, h in zip(vals["base"], vals["head"]))
        change = (hm - bm) / abs(bm) if bm else 0.0
        worse = change if lower else -change
        base_spread = (bq3 - bq1) / abs(bm) if bm else 0.0
        if worse > bound:
            verdict = f"worse (bound {bound:.0%})"
            problems.append(f"{name} worse by {worse:.1%}")
        elif base_spread > bound:
            verdict = f"unresolved (base spread {base_spread:.0%} > {bound:.0%})"
        else:
            verdict = "ok"
        cell = lambda med, q1, q3: f"{med:.4g} [{q1:.4g}-{q3:.4g}]"
        print(f"  {name:<20} {cell(bm, bq1, bq3):>30} {cell(hm, hq1, hq3):>30}"
              f" {change:>+8.1%} {won:>4}/{len(ok_pairs):<3}  {verdict}")
    if ok_pairs:
        # Live memory per trace record (an event of a live row is a record).
        per_event = {
            s: statistics.median(
                r["metrics"]["peak_rss_mb"]["value"] * 2**20
                / (r["metrics"]["events_per_s"]["value"] * r["metrics"]["wall_s"]["value"])
                for r in (sides[s][p] for p in ok_pairs)
            )
            for s in sides
        }
        print(f"  peak RSS per event: {per_event['base']:.1f} -> {per_event['head']:.1f} B (median)")
    if problems:
        status = 1
        print(f"  FAIL: {'; '.join(problems)}")
sys.exit(status)
EOF
    exit 0
fi

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
