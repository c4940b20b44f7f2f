#!/usr/bin/env bash
# Writes the artifacts of every configs/*.yaml of the checkout in the current directory to
# OUT/<config>/seed<s>/, at --seed 0 and --seed 7, through `python -m smallscat.cli` on that
# checkout's src/.  The subcommand is the config's top-level key (`scene` runs `solve`).
# Each manifest.json is dropped: its timings differ from run to run by design.  Exits
# non-zero if any demo does; comparing two OUT trees (diff -rq) shows which artifacts a
# change alters.  Each demo's wall time, both seeds and their process start-ups together,
# is printed and, given SECONDS, appended to that file as "<config><TAB><seconds>" lines
# (outside OUT, so that the artifact trees compare byte for byte).
#
#   bash .github/scripts/demo_artifacts.sh OUT [SECONDS]
set -euo pipefail

out=${1:?usage: demo_artifacts.sh OUT [SECONDS]}
seconds=${2:-/dev/null}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"

for config in configs/*.yaml; do
  name=$(basename "$config" .yaml)
  command=$(grep -m1 -E '^[a-z_]+:' "$config" | cut -d: -f1)
  [ "$command" = scene ] && command=solve
  start=$EPOCHREALTIME
  for seed in 0 7; do
    dir="$out/$name/seed$seed"
    python -m smallscat.cli "$command" --config "$config" --out "$dir" --seed "$seed" > /dev/null
    rm "$dir/manifest.json"
  done
  wall=$(awk -v a="$start" -v b="$EPOCHREALTIME" 'BEGIN { printf "%.2f", b - a }')
  printf '%s\t%s\n' "$name" "$wall" >> "$seconds"
  echo "$name ($command): seeds 0 and 7, $wall s"
done
