#!/usr/bin/env bash
# Byte identity of the `lme` command line between a base revision and the
# working tree. Builds `lme` at BASE (from `git archive`, as bench-gate.sh
# does) and in the working tree, runs a fixed list of deterministic
# commands with each binary, and compares with `cmp` each command's
# stdout, stderr, exit status and every file it writes (`--metrics-out`,
# `--out`). Prints `same` or `differs` per command and exits 1 on any
# difference.
#
# The list: the sim commands whose output a refactor of the CLI must keep
# (chaos on ring:6 and line:9 for three algorithms, two probes, a sweep,
# a run with ARQ and a crash → recover cycle, a red chaos cell), the
# checker on line:3 in explore and certify mode, and `run` under both
# mobility models.
#
# Usage, from anywhere in the repository:
#   scripts/cli-identity.sh [BASE_REV]     # BASE_REV defaults to HEAD
set -euo pipefail
cd "$(dirname "$0")/.."

base="${1:-HEAD}"
commands=(
    "chaos --alg a1-greedy --topo ring:6 --horizon 40000 --seed 1 --seeds 8 --metrics-out m.jsonl"
    "chaos --alg chandy-misra --topo ring:6 --horizon 40000 --seed 1 --seeds 8 --metrics-out m.jsonl"
    "chaos --alg a2 --topo ring:6 --horizon 40000 --seed 1 --seeds 8 --metrics-out m.jsonl"
    "chaos --alg a1-greedy --topo line:9 --horizon 40000 --seed 1 --seeds 8 --metrics-out m.jsonl"
    "chaos --alg chandy-misra --topo line:9 --horizon 40000 --seed 1 --seeds 8 --metrics-out m.jsonl"
    "chaos --alg a2 --topo line:9 --horizon 40000 --seed 1 --seeds 8 --metrics-out m.jsonl"
    "probe --topo line:9 --seed 4 --metrics-out m.jsonl"
    "probe --alg a1-greedy --topo grid:5x5 --metrics-out m.jsonl"
    "sweep --topo ring:12 --seeds 4 --horizon 8000 --metrics-out m.jsonl"
    "run --alg a2 --topo line:5 --horizon 12000 --arq --victim 2 --recover 6000 --metrics-out m.jsonl"
    "chaos --alg a1-greedy --topo line:9 --horizon 40000 --seed 2 --seeds 1 --metrics-out m.jsonl"
    "check --alg a2 --topo line:3"
    "check --alg a2 --topo line:3 --certify --out cert.json"
    "run --alg a1-greedy --topo random:12:3 --moves 4 --horizon 12000 --metrics-out m.jsonl"
    "run --alg a2 --topo random:12:3 --horizon 12000 --channel bandwidth:2 --mix 0.5:0.25 --metrics-out m.jsonl"
)

# The base checkout and its build live under target/ so that a second run
# against the same base rebuilds only what changed.
root="$PWD/target/cli-identity"
rm -rf "$root/base" "$root/runs"
mkdir -p "$root/base" "$root/runs"
git archive --format=tar "$base" | tar -x -C "$root/base"
(cd "$root/base" && CARGO_TARGET_DIR="$root/target" cargo build --release --quiet --offline -p lme-cli)
cargo build --release --quiet --offline -p lme-cli
declare -A bins=([base]="$root/target/release/lme" [head]="$PWD/target/release/lme")

differs=0
for i in "${!commands[@]}"; do
    cmd="${commands[$i]}"
    for side in base head; do
        dir="$root/runs/$i/$side"
        mkdir -p "$dir"
        status=0
        # Word splitting of $cmd is the point: each entry is one command line.
        # shellcheck disable=SC2086
        (cd "$dir" && exec "${bins[$side]}" $cmd >.stdout 2>.stderr) || status=$?
        echo "$status" >"$dir/.status"
    done
    verdict=same
    for file in $( (ls -A "$root/runs/$i/base"; ls -A "$root/runs/$i/head") | sort -u); do
        if ! cmp -s "$root/runs/$i/base/$file" "$root/runs/$i/head/$file"; then
            verdict=differs
        fi
    done
    if [ "$verdict" = differs ]; then
        differs=1
    fi
    printf '%-8s lme %s\n' "$verdict" "$cmd"
done
exit "$differs"
