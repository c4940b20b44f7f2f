#!/usr/bin/env bash
# Writes the artifacts of every configs/*.yaml of the checkout in the current directory to
# OUT/<config>/seed<s>/, at --seed 0 and --seed 7, through `python -m smallscat.cli` on that
# checkout's src/.  The subcommand is the config's top-level key (`scene` runs `solve`).
# Each manifest.json is dropped: its timings differ from run to run by design.  Exits
# non-zero if any demo does; comparing two OUT trees (diff -rq) shows which artifacts a
# change alters.
#
#   bash .github/scripts/demo_artifacts.sh OUT
set -euo pipefail

out=${1:?usage: demo_artifacts.sh OUT}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"

for config in configs/*.yaml; do
  name=$(basename "$config" .yaml)
  command=$(grep -m1 -E '^[a-z_]+:' "$config" | cut -d: -f1)
  [ "$command" = scene ] && command=solve
  for seed in 0 7; do
    dir="$out/$name/seed$seed"
    python -m smallscat.cli "$command" --config "$config" --out "$dir" --seed "$seed" > /dev/null
    rm "$dir/manifest.json"
  done
  echo "$name ($command): seeds 0 and 7"
done
