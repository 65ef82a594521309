#!/usr/bin/env bash
# CI gate for the GEA workspace. Run from the repo root:
#
#     scripts/ci.sh          # full gate
#     scripts/ci.sh quick    # skip clippy + bench smokes
#
# Steps: release build (the workspace, then the separately-locked
# benchmark crate), workspace tests (which carry the kernel identity
# properties in kernel_props, exec_determinism and gea-sage's sage_props,
# and the router's byte-identity gate over the example scripts in
# router_determinism), formatting, lints, a bench smoke (the loopback
# server integration test under --release, which exercises the mine ->
# gap -> topgap pipeline end to end over TCP), the thesis-scale pipeline
# under --release, and the repo benchmark's quick identity tier.

set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-full}"

step() { printf '\n== %s ==\n' "$*"; }

step "cargo build --release --workspace"
cargo build --release --workspace

# The benchmark is its own workspace, so the build above never compiles
# it; building it here makes a change to the API it calls fail CI instead
# of the next benchmark run. It shares the workspace's target directory,
# as benchmark/run.sh does.
step "cargo build --release --offline --manifest-path benchmark/Cargo.toml"
CARGO_TARGET_DIR="$PWD/target" cargo build --release --offline --manifest-path benchmark/Cargo.toml

step "cargo test -q --workspace"
cargo test -q --workspace

# Static analysis over the checked-in example scripts: the runnable case
# study must lint clean, and the deliberately ill-typed fixture must be
# rejected — so the checker's gate provably fires in both directions.
step "gea-check lint: example GQL scripts"
./target/release/gea-cli --check examples/scripts/brain_case_study.gql
./target/release/gea-cli --check examples/scripts/mine_backends.gql
if ./target/release/gea-cli --check examples/scripts/ill_typed.gql; then
    echo "ill_typed.gql passed the checker but must be rejected" >&2
    exit 1
fi

# The --fix rewriter, pinned byte-for-byte: repairing the dirty fixture
# must reproduce the committed golden exactly, and running it on an
# already-clean script must leave the file untouched.
step "gea-check --fix: dirty fixture matches golden, clean script untouched"
mkdir -p target/fix-gate
cp examples/scripts/fix_dirty.gql target/fix-gate/fix_dirty.gql
./target/release/gea-cli --check target/fix-gate/fix_dirty.gql --fix
diff -u examples/scripts/fix_dirty.golden.gql target/fix-gate/fix_dirty.gql
cp examples/scripts/brain_case_study.gql target/fix-gate/clean.gql
./target/release/gea-cli --check target/fix-gate/clean.gql --fix
cmp examples/scripts/brain_case_study.gql target/fix-gate/clean.gql

# Kick-tires tier of the rule audit: every shipped rewrite rule proved
# observationally equivalent to the literal engine (wire replies +
# lineage) on the pinned shard/thread grid and seen to fire, and every
# tombstoned non-rule proved still refuted. The nightly lane runs the
# full enumeration; this tier keeps the oracle itself from rotting.
step "gea-opt rule audit (kick-tires)"
./target/release/gea-opt-audit --kick-tires

# The gea-exec byte-identity contract, property-tested over randomized
# corpora for every pinned shard/thread combination — including the
# isa/simplex mining-backend drivers — plus the backend subsystem's
# end-to-end suite (engine routing, `with fascicles` sugar equivalence,
# provenance through save/spill/load). Runs as part of the workspace
# suite too; the explicit step keeps a determinism regression from
# hiding inside a long test log.
step "sharded-execution determinism property suite"
cargo test -q --test exec_determinism --test mine_backends

# The thesis reproduction is an artifact: `repro` (every experiment, fixed
# seeds) must print repro_output.txt byte for byte, apart from the three
# wall-clock fields masked below — Table 3.2's time-saving column, its
# `scan = … ms` line, and the §3.3.1 `… ms` timings.
step "repro output matches repro_output.txt (wall-clock fields masked)"
mask_wall_clock() {
    sed -E -e 's/^( *[0-9]+ +[0-9]+ +[0-9]+\.[0-9]+) +-?[0-9]+\.[0-9]+( +[0-9]+)$/\1 <ms>\2/' \
        -e 's/scan = [0-9.]+ ms/scan = <ms> ms/' \
        -e 's/: +[0-9.]+ ms \(/: <ms> ms (/'
}
./target/release/repro > target/repro_output.txt
diff -u <(mask_wall_clock < repro_output.txt) <(mask_wall_clock < target/repro_output.txt)

# Hot-path invariants: unwrap()/expect( stays within the per-file budget
# in scripts/lint-allowlist.txt (ratcheted both ways), every lock-order
# comment quotes the canonical line in registry.rs verbatim, and the
# accept loop, worker hand-off, polled read and signal handler exist in
# front.rs only; the session keeps one copy of every table (no
# relational catalog beside the typed tables, no CSV read back by persist);
# a command reaches a session one way (no batch planner, no second
# executor, no flag or config field that would choose between two); and
# the session's installs take results (no table cloned to be handed back,
# no closure threaded through the bookkeeping); save and load stream the
# snapshot body; the request path names no reproduction-only module
# (baselines, compression, eval, index_analysis); a reload keeps one
# corpus; every binary format uses the one byte codec (one FNV-1a, no
# private u32/str codec, no io::Read/io::Write bridge, no text decoder
# in persist); no non-test code calls a reference kernel; SAGE is
# derived (no front end calls .base(), which would build the dense root);
# and clusters are derived (the installs of mined clusters, control groups
# and populate results build no table, materialize_cluster aggregates
# nothing).
step "invariant lints (panic budget + lock-order sync + one front end + one table representation + one executor + installs take results + snapshot streams + no reproduction-only module on the request path + a reload keeps one corpus + one byte codec + reference kernels stay oracles + SAGE is derived + clusters are derived)"
scripts/lint-invariants.sh

step "cargo fmt --all --check"
cargo fmt --all --check

if [ "$mode" != "quick" ]; then
    step "cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings

    step "bench smoke: server loopback pipeline (release)"
    cargo test --release --test server_smoke -- --nocapture

    # The shared connection front end's contract (line reassembly, the
    # line ceiling, EBUSY, drain on shutdown), on both daemons, with the
    # timing an optimized build has.
    step "front-end conformance: server and router (release)"
    cargo test --release --test front_conformance

    # The #[ignore]d thesis-scale tier: the serial and sharded pipelines
    # (fascicles, isa and simplex mined serial vs sharded) plus
    # open-equals-the-definition on the 100-library corpus. Seconds
    # under --release now that opening a session is tens of milliseconds;
    # still ignored in the debug workspace run above.
    step "thesis-scale pipeline, serial + sharded (release)"
    cargo test --release --test thesis_scale -- --ignored

    # The repo benchmark is a separately-locked crate that compiles
    # against this workspace's public API; its identity tier (every wire
    # set-up byte-identical to the in-process oracle, no failed operation,
    # BENCHMARK.json equal to the declared names) catches an API removal
    # or a behaviour change here instead of in the next benchmark run.
    step "repo benchmark: quick identity tier"
    bash benchmark/run.sh --quick > /dev/null
fi

printf '\nCI gate passed (%s).\n' "$mode"
