#!/usr/bin/env bash
# Runs every workload -runs N times, interleaved and in alternating order
# (forward on odd rounds, reversed on even ones), with seeds S, S+1, ...,
# then one traced run per workload at seed S, and appends one JSONL line
# per run to -out:
#
#   {"workload": "...", "seed": N, "trace": 0|1, "result": {...}}
#
#   bash bench/run.sh -runs 10 -seed 1 -out bench/baseline.jsonl
#
# Compare two such files with `bash bench/bench.sh compare -a A -b B`.
set -euo pipefail
runs=5 seed=1 seconds=20 out=bench/results.jsonl
while [[ $# -gt 0 ]]; do
    case "$1" in
        -runs) runs=$2; shift 2 ;;
        -seed) seed=$2; shift 2 ;;
        -seconds) seconds=$2; shift 2 ;;
        -out) out=$2; shift 2 ;;
        *) echo "usage: run.sh [-runs N] [-seed S] [-seconds T] [-out FILE]" >&2; exit 2 ;;
    esac
done
cd "$(dirname "$0")/.."
bash bench/bench.sh # build once
workloads=(randomized deterministic skeleton serve)

one() { # workload seed trace
    local line
    if ! line=$(.bench_build/lrbench -workload "$1" -seed "$2" -seconds "$seconds" -trace "$3" | tail -n 1); then
        echo "run.sh: $1 seed $2 trace $3 failed" >&2
    fi
    if [[ "$line" == "{"* ]]; then
        printf '{"workload":"%s","seed":%d,"trace":%d,"result":%s}\n' "$1" "$2" "$3" "$line" >>"$out"
    fi
}

for ((i = 0; i < runs; i++)); do
    order=("${workloads[@]}")
    if ((i % 2 == 1)); then
        order=(serve skeleton deterministic randomized)
    fi
    for w in "${order[@]}"; do
        one "$w" $((seed + i)) 0
    done
done
for w in "${workloads[@]}"; do
    one "$w" "$seed" 1
done
