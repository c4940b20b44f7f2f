#!/usr/bin/env bash
# Benchmark correctness gate: run every workload BENCHMARK.json declares once
# (seed 0, no timed passes, traced) and fail unless each reports correct: true.
# Each workload's output is kept in bench-<workload>.out.
#
#   bash .github/scripts/bench_gate.sh      # from the repository root
set -u

# every workload BENCHMARK.json declares is gated, with no list to keep in step here
workloads=$(python -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
if [ -z "$workloads" ]; then
  echo "::error::BENCHMARK.json declares no workloads"
  exit 1
fi
for w in $workloads; do
  if ! python perfbench/run.py --workload "$w" --seed 0 --seconds 0 --trace 1 > "bench-$w.out" \
      || ! tail -n 1 "bench-$w.out" | python -c 'import json, sys; sys.exit(json.loads(sys.stdin.read())["correct"] is not True)'; then
    echo "::error::$w failed its correctness gate"
    cat "bench-$w.out"
    exit 1
  fi
done
