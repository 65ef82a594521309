#!/usr/bin/env bash
# Do two sets of runs of the same build agree within the benchmark's own
# bounds? Runs every workload twice, back to back, the second set in the
# opposite order; the first set also runs traced, so the per-layer probe
# metrics are on record. Prints, per workload and end-to-end metric, both
# values, their relative difference and the bound; exits non-zero if a
# pair disagrees by more than its bound.
#
#   benchmark/agree.sh [seed]        (default 42; 2002 is the held-out seed)
#
# Writes benchmark/out/agree-seed<seed>.json. Copy it to
# benchmark/results/ to extend the committed series.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
seed="${1:-42}"
order=(read_hot pipeline_thesis mixed_rw routed_pipeline)

mkdir -p "$here/out"
a="$here/out/agree-a.txt"
b="$here/out/agree-b.txt"
: >"$a"
: >"$b"
for w in "${order[@]}"; do
    "$here/run.sh" --workload "$w" --seed "$seed" --trace | tee -a "$a"
done
for ((i = ${#order[@]} - 1; i >= 0; i--)); do
    "$here/run.sh" --workload "${order[i]}" --seed "$seed" | tee -a "$b"
done

target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
"$target/release/gea-e2e" agree "$a" "$b" \
    --json "$here/out/agree-seed$seed.json" --commit "$commit" --date "$(date -u +%F)"
