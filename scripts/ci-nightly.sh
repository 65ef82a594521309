#!/usr/bin/env bash
# Nightly/perf CI lane for the GEA workspace. Run from the repo root:
#
#     scripts/ci-nightly.sh
#
# Runs everything tier-1 skips because of wall-clock cost: the
# `#[ignore]`d thesis-scale pipeline (100 libraries, a raw union of
# 312,957 tags at seed 42 — seconds under --release, so scripts/ci.sh
# runs it too; kept here so this lane stands alone) and the full
# cache-transparency battery under --release. Assumes scripts/ci.sh
# already passed; this lane is additive, not a substitute.

set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n== %s ==\n' "$*"; }

step "cargo build --release --workspace"
cargo build --release --workspace

step "thesis-scale pipeline, serial + sharded (ignored tier-1, release)"
# Includes thesis_scale_pipeline_sharded: the sharded executor run side
# by side with a serial session over the identical corpus, byte-identical
# at full scale — the isa and simplex mining backends included.
cargo test --release --test thesis_scale -- --ignored --nocapture

step "cache transparency battery (release)"
cargo test --release --test server_cache -- --nocapture

step "spill transparency battery (release)"
cargo test --release --test server_spill -- --nocapture
cargo test --release --test server_spill -- --ignored --nocapture

step "optimizer rule audit, full enumeration (release)"
# The complete small-term enumeration over three randomized corpora on
# the full shard/thread grid: every shipped rule byte-identical to
# serial at the wire, every tombstoned non-rule still refuted.
GEA_OPT_AUDIT=full cargo run --release --bin gea-opt-audit

step "repo benchmark, traced (release) -> bench-archive/<date>/"
# Every workload with per-layer attribution: the kernel rows
# (core.sumy.aggregate_us, core.populate.*, sage.clean_us), the sharded
# drivers (exec.*_sharded_us, exec.shards_per_op) and the router's
# (router.*, routed_pipeline). A dated copy of each result keeps the
# perf trajectory across nightlies reconstructible from the working tree.
bash benchmark/run.sh --trace
mkdir -p bench-archive/"$(date +%F)"
cp benchmark/out/*.json bench-archive/"$(date +%F)"/

printf '\nNightly lane passed.\n'

# ----- sanitizer / interpreter lanes (need extra nightly components; -----
# ----- each skips gracefully when its toolchain isn't installed)     -----

host_target="$(rustc -vV | sed -n 's/^host: //p')"

step "ThreadSanitizer: server concurrency suite (nightly, -Zsanitizer=thread)"
# The registry/cache/eviction machinery is the raciest code in the tree;
# TSan needs a std rebuilt with instrumentation, hence nightly + rust-src.
if rustup toolchain list 2>/dev/null | grep -q '^nightly' \
    && rustup component list --toolchain nightly 2>/dev/null \
        | grep -q '^rust-src (installed)$'; then
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target "$host_target" \
        --test server_smoke --test server_cache
else
    echo "skipping: nightly toolchain with rust-src not installed"
fi

step "Miri: session persistence decoder (nightly)"
# The save/load codec does the tree's manual byte-level decoding; run its
# unit battery under Miri to pin down undefined behavior, not just wrong
# answers.
if cargo +nightly miri --version >/dev/null 2>&1; then
    cargo +nightly miri test -p gea-core persist
else
    echo "skipping: cargo miri not installed"
fi

printf '\nSanitizer lanes done (or skipped).\n'
