#!/usr/bin/env bash
# The repo benchmark. Builds gea-e2e and runs each workload in a fresh
# process (so peak_rss_mb and warm state never leak between workloads).
#
#   benchmark/run.sh [--workload W]... [--seed S] [--seconds N] [--trace [0|1]] [--quick]
#
# Prints `<workload> <metric> <value> <unit> n=<samples>` per metric and,
# last for each run, the one-line JSON result; writes benchmark/out/.
# `--trace` alone runs each workload untraced, then traced; `--trace 1`
# runs only the traced half. Exits non-zero on any identity failure.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# cargo resolves a relative CARGO_TARGET_DIR against its own working
# directory; pin it to the caller's. Default: the workspace's target/, so
# the workspace's release artifacts are reused.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# glibc gives every new thread its own malloc arena and never returns an
# arena's small blocks to the system, so with the default (8 arenas per
# core) peak_rss_mb measures which arena each server thread happened to
# draw: one seed read 318, 336 and 401 MB on three runs. With one arena
# it measures what the program allocates and repeats within 3 %.
export MALLOC_ARENA_MAX=1

workloads=()
pass=()
trace=0
quick=0
while (($#)); do
    case "$1" in
    --workload)
        workloads+=("$2")
        shift 2
        ;;
    --trace)
        if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then
            trace="$2"
            shift 2
        else
            trace=both
            shift
        fi
        ;;
    --seed | --seconds)
        pass+=("$1" "$2")
        shift 2
        ;;
    --quick)
        quick=1
        pass+=(--quick)
        shift
        ;;
    *)
        sed -n '2,11p' "${BASH_SOURCE[0]}" >&2
        exit 2
        ;;
    esac
done
((${#workloads[@]})) || workloads=(read_hot pipeline_thesis mixed_rw routed_pipeline)

# Build chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/gea-e2e"

out="$here/out"
mkdir -p "$out"
# The bench removes its corpus and save directories itself; this catches
# the ones a killed run leaves behind.
trap 'rm -rf "$out/tmp"' EXIT

if ((quick)); then
    # The names are the contract: BENCHMARK.json must be what the crate
    # declares (each run then checks that it printed exactly those names).
    diff <("$bin" --emit-benchmark-json) "$root/BENCHMARK.json" >&2
fi

status=0
for w in "${workloads[@]}"; do
    case "$trace" in
    both) modes=(0 1) ;;
    *) modes=("$trace") ;;
    esac
    for mode in "${modes[@]}"; do
        "$bin" --workload "$w" --trace "$mode" ${pass[@]+"${pass[@]}"} --out "$out" || status=1
    done
done
exit "$status"
