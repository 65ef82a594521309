#!/usr/bin/env bash
# Invariant lints for the server/router hot paths, the session's table
# store, the command path and the install seam, run by scripts/ci.sh.
#
# 1. Panic-site ban in non-test code on the request path: unwrap(),
#    expect(, panic!(, unreachable!(, assert!(, assert_eq!( and
#    assert_ne!( (debug_assert* is not counted) under crates/server/src
#    and crates/router/src, in the grammar every request line meets
#    (crates/check/src/gql.rs, crates/mine/src/params.rs), in the files
#    an x-verb's bytes reach (crates/core/src/{sumy,session,mine}.rs,
#    crates/sage/src/codec.rs, crates/exec/src/pool.rs), and in the
#    snapshot decoders that `xadopt` bytes and `load <dir>` files reach
#    (crates/core/src/persist.rs, crates/sage/src/io.rs), and in the
#    pooled comparison every `xprofiler` line reaches
#    (crates/core/src/xprofiler.rs). A worker thread
#    that panics takes its connection (and possibly a poisoned lock) with
#    it, so every panic site on the request path must be deliberate and
#    budgeted in scripts/lint-allowlist.txt. The budget ratchets both
#    ways: counts above it fail (new panic site), counts below it fail too
#    (lower the budget so removed sites cannot creep back).
#
# 2. Lock-ordering comments stay in sync with the registry. The canonical
#    "LOCK ORDER:" line lives in crates/server/src/registry.rs; every
#    other occurrence in the server/router sources must quote it verbatim,
#    so the discipline documented at an acquisition site can never drift
#    from the one the registry implements.
#
# 3. One connection front end. Binding a listener, the accept loop, the
#    bounded hand-off to the worker pool, the polled read and the signal
#    handler live in crates/server/src/front.rs and nowhere else in the
#    non-test code of either daemon (bins included), so a second copy of
#    the inbound half cannot grow back beside it.
#
# 4. One table representation. The typed ENUM/SUMY/GAP tables are the
#    store; the relational form is a view GeaSession::relation builds for
#    `save`. So, in non-test code: crates/core/src/session.rs maintains no
#    catalog (no create_or_replace / drop_table / .truncate( call, no field
#    of type Database), crates/core/src/persist.rs parses no CSV back
#    (no import_csv), and in crates/core/src a *_to_relation( call occurs
#    in relational.rs and in the view function only.
#
# 5. One executor. A parsed command reaches a session one way from every
#    front end: gea_opt::rewrite_command, then optexec::run_rewritten or
#    engine::execute. So, in non-test code under crates/opt/src,
#    crates/server/src and src/ (bins included): no batch planner or second
#    executor (run_plan, optimize_checked, Fused, stop_on_error), no switch
#    between two (set_optimize, a ServerConfig `optimize` field, --no-opt or
#    --plan in gea-cli's or gea-server's argument parser).
#
# 6. Installs take results. The session's install half (install_mined_*,
#    install_populate, install_control_groups) takes what an executor
#    computed as plain data and looks its own inputs up, so no caller
#    clones a table to hand it back and no closure is threaded through the
#    bookkeeping. So, in non-test code of crates/core/src/session.rs and
#    crates/exec/src/scatter.rs: no `enum_table(..)?.clone()` or
#    `sumy(..)?.clone()`, no `pub fn .._with(` whose signature takes an
#    `impl Fn..`, and no `&EnumTable` in an `install_mined_` signature.
#
# 7. The snapshot streams. `session.gea`'s body is the codec's own bytes:
#    `save` and `spill` encode them straight into the file, and `load`
#    reads them through a Cur over the file, so neither holds the whole
#    body and no second codec sits between the fields and the file. So,
#    in non-test code of crates/core/src/persist.rs: no `LzWriter`,
#    `Inflate` or `fn lz_`; no `snapshot_to_bytes(` or `fs::write(` in
#    write_snapshot_file, spill_session or save_session; no `fs::read(`
#    (the load path streams the file); no `encode_session` returning a
#    `Vec<u8>`; and no `Vec<Vec<f64>>` (a matrix decodes into its flat
#    value buffer).
#
# 8. The request path names no reproduction-only module. The thesis's
#    baselines (k-means, hierarchical clustering, SOM), fascicle semantic
#    compression, the clustering-evaluation metrics and the Table 3.1
#    index-budget math are what `repro` prints, and only crates/bench
#    calls them. So, in the non-test code of crates/{core,exec,mine,server,
#    router,opt,check}/src (bins included) and src/: no `kmeans`, `KMeans`,
#    `agglomerate`, `Dendrogram`, `som`, `compression::`,
#    `gea_cluster::eval` or `index_analysis`.
#
# 9. A reload keeps one corpus. `load` in crates/server/src/engine.rs
#    replaces a live session from a snapshot, and it offers that session's
#    source (corpus, cleaning report, root) to load_session_sharing,
#    not to a bare `load_session(`, which would decode a second copy of a
#    corpus the session already holds.
#
# 10. One byte codec. Every binary format (the corpus blob, the snapshot,
#    the scatter partials) writes and reads with crates/sage/src/codec.rs,
#    and nothing bridges it to a second one. So, in the non-test code of
#    crates/*/src and src/ (bins included): the FNV-1a offset basis and
#    prime appear in crates/sage/src/codec.rs only, no file defines
#    `fn write_u32(`, `fn read_u32(`, `fn write_str(` or `fn read_str(`,
#    and crates/{sage,core}/src/codec.rs have no `impl Read for` or
#    `impl Write for`. And no text decoder returns to the snapshot: the
#    non-test code of crates/core/src/persist.rs has no `from_utf8(`,
#    `.lines()` or `splitn(` (lineage.txt is written, never read back).
#
# 11. Reference kernels stay oracles. fascicle::reference, sumy::reference,
#    clean::reference and isa::reference keep the first-draft kernels only
#    so that tests can pin the fast ones to them bit for bit. So, in the
#    non-test code of crates/*/src and src/ (bins included): no
#    `reference::` path outside a `//` comment line.
#
# 12. SAGE is derived. A session opened over a corpus keeps the cleaning
#    decisions (kept tags, per-library scale factors), builds data sets
#    from the corpus columns they select, and builds the dense root matrix
#    only when a command names `SAGE` (through enum_table). A front end
#    that asks for the root directly would build that matrix for every
#    session it touches. So, in the non-test code of crates/server/src,
#    crates/exec/src, crates/router/src and src/ (bins included): no
#    `.base()` call; library counts and names come from the source
#    (`source().n_libraries()`, `source().libraries()`).
#
# 13. Clusters are derived. A mined cluster's ENUM and SUMY, the `groups`
#    outside and contrast ENUMs and a `populate` result are held as the
#    Selection they derive from and built when first read, so the installs
#    that record them copy no table. So, in the non-test code of
#    crates/core/src/session.rs: the bodies of install_mined_clusters,
#    install_populate and commit_control_groups call no `with_libraries(`,
#    `select_tags(`, `select_libraries(` or `aggregate_tags(`; and in
#    crates/core/src/mine.rs the body of materialize_cluster names no
#    `aggregate` kernel. `pub struct Selection {` and `Derived(Selection,`
#    in session.rs are the sentinels.

set -euo pipefail
cd "$(dirname "$0")/.."

allowlist="scripts/lint-allowlist.txt"
fail=0

# Count panic sites (lint 1) before the first #[cfg(test)].
nontest_panics() {
    awk '
        /#\[cfg\(test\)\]/ { exit }
        {
            gsub(/debug_assert(_eq|_ne)?!\(/, "")
            n = gsub(/unwrap\(\)/, "")
            n += gsub(/expect\(/, "")
            n += gsub(/(panic|unreachable|assert|assert_eq|assert_ne)!\(/, "")
            c += n
        }
        END { print c + 0 }
    ' "$1"
}

# A file up to its first #[cfg(test)].
nontest() { awk '/#\[cfg\(test\)\]/ { exit } { print }' "$1"; }

# Lines of a file's non-test code matching a grep pattern (-F or -E).
nontest_hits() { nontest "$2" | grep -c "$1" -- "$3" || true; }

budget_for() {
    awk -v f="$1" '$1 !~ /^#/ && $2 == f { print $1; found = 1 }
                   END { if (!found) print "-" }' "$allowlist"
}

sources="crates/server/src/*.rs crates/server/src/bin/*.rs crates/router/src/*.rs crates/router/src/bin/*.rs"
panic_sources="$sources crates/check/src/gql.rs crates/mine/src/params.rs
    crates/core/src/sumy.rs crates/core/src/session.rs crates/core/src/mine.rs
    crates/sage/src/codec.rs crates/exec/src/pool.rs
    crates/core/src/persist.rs crates/sage/src/io.rs
    crates/core/src/xprofiler.rs"

for file in $panic_sources; do
    n="$(nontest_panics "$file")"
    budget="$(budget_for "$file")"
    if [ "$budget" = "-" ]; then
        if [ "$n" -gt 0 ]; then
            echo "lint: $file has $n panic site(s) in non-test code but no budget in $allowlist" >&2
            fail=1
        fi
    elif [ "$n" -gt "$budget" ]; then
        echo "lint: $file has $n panic site(s) in non-test code, budget is $budget — remove the new panic site" >&2
        fail=1
    elif [ "$n" -lt "$budget" ]; then
        echo "lint: $file is down to $n panic site(s), budget is $budget — ratchet $allowlist down" >&2
        fail=1
    fi
done

# Every budgeted file must still exist (a rename would silently retire
# its budget).
while read -r budget file; do
    case "$budget" in '#'*|'') continue ;; esac
    if [ ! -f "$file" ]; then
        echo "lint: $allowlist budgets missing file $file" >&2
        fail=1
    fi
done < "$allowlist"

# Lock-order comments: one canonical line in registry.rs, quoted verbatim
# everywhere else it appears.
canon="$(grep -h 'LOCK ORDER:' crates/server/src/registry.rs | sed 's|^.*LOCK ORDER:|LOCK ORDER:|' | sed 's/[[:space:]]*$//')"
if [ "$(printf '%s\n' "$canon" | wc -l)" -ne 1 ] || [ -z "$canon" ]; then
    echo "lint: crates/server/src/registry.rs must contain exactly one canonical 'LOCK ORDER:' line" >&2
    exit 1
fi
refs=0
for file in $sources; do
    [ "$file" = "crates/server/src/registry.rs" ] && continue
    while IFS= read -r line; do
        refs=$((refs + 1))
        norm="$(printf '%s' "$line" | sed 's|^.*LOCK ORDER:|LOCK ORDER:|' | sed 's/[[:space:]]*$//')"
        if [ "$norm" != "$canon" ]; then
            echo "lint: $file quotes a stale lock order:" >&2
            echo "    found:     $norm" >&2
            echo "    canonical: $canon" >&2
            fail=1
        fi
    done < <(grep -h 'LOCK ORDER:' "$file" || true)
done
if [ "$refs" -eq 0 ]; then
    echo "lint: no file outside registry.rs quotes the canonical 'LOCK ORDER:' line" >&2
    fail=1
fi

# One front end: each construct below occurs, before the first
# #[cfg(test)], in front.rs and in no other file.
front="crates/server/src/front.rs"
for construct in 'TcpListener::bind' '.incoming()' 'sync_channel' 'set_read_timeout' 'extern "C"'; do
    for file in $sources; do
        hits="$(nontest_hits -F "$file" "$construct")"
        if [ "$file" = "$front" ] && [ "$hits" -eq 0 ]; then
            echo "lint: $front no longer contains '$construct' — the front-end check is looking for the wrong thing" >&2
            fail=1
        elif [ "$file" != "$front" ] && [ "$hits" -gt 0 ]; then
            echo "lint: $file has '$construct' in non-test code; the connection front end is $front" >&2
            fail=1
        fi
    done
done

# One table representation: no relational copy kept beside the typed
# tables, no second reader of one.
session="crates/core/src/session.rs"
for construct in 'create_or_replace' 'drop_table' '.truncate('; do
    if [ "$(nontest_hits -F "$session" "$construct")" -gt 0 ]; then
        echo "lint: $session has '$construct' in non-test code; the session keeps no relational catalog" >&2
        fail=1
    fi
done
if [ "$(nontest_hits -E "$session" '^ +(pub )?[a-z_]+: *([a-z_]+::)*Database,')" -gt 0 ]; then
    echo "lint: $session has a field of type Database; the relational form is a view, not state" >&2
    fail=1
fi
if [ "$(nontest_hits -F crates/core/src/persist.rs 'import_csv')" -gt 0 ]; then
    echo "lint: crates/core/src/persist.rs has 'import_csv' in non-test code; snapshots do not store relations" >&2
    fail=1
fi
# session.rs converts inside `pub fn relation(` (which ends at the next doc
# comment) and nowhere else; no other file but relational.rs converts.
for file in crates/core/src/*.rs; do
    [ "$file" = "crates/core/src/relational.rs" ] && continue
    hits="$(nontest "$file" | awk '
        /pub fn relation\(/ { view = 1 }
        view && /^    \/\/\// { view = 0 }
        !view && /_to_relation\(/ { n++ }
        END { print n + 0 }')"
    if [ "$hits" -gt 0 ]; then
        echo "lint: $file converts a table to a relation outside relational.rs and GeaSession::relation ($hits site(s))" >&2
        fail=1
    fi
done
if [ "$(nontest_hits -F "$session" '_to_relation(')" -eq 0 ]; then
    echo "lint: $session no longer contains '_to_relation(' — the one-representation check is looking for the wrong thing" >&2
    fail=1
fi

# One executor: no planner, no second executor, no switch between two.
for file in crates/opt/src/*.rs crates/server/src/*.rs crates/server/src/bin/*.rs src/*.rs src/bin/*.rs; do
    for construct in 'run_plan' 'optimize_checked' 'Fused' 'stop_on_error' 'set_optimize'; do
        if [ "$(nontest_hits -F "$file" "$construct")" -gt 0 ]; then
            echo "lint: $file has '$construct' in non-test code; a command runs one way (rewrite_command, then run_rewritten or engine::execute)" >&2
            fail=1
        fi
    done
done
if [ "$(nontest_hits -E crates/server/src/server.rs '^ +pub optimize:')" -gt 0 ]; then
    echo "lint: ServerConfig has an 'optimize' field; there is one executor and nothing to switch" >&2
    fail=1
fi
for bin in src/bin/gea-cli.rs crates/server/src/bin/gea-server.rs; do
    for flag in '--no-opt' '--plan'; do
        if [ "$(nontest_hits -F "$bin" "$flag")" -gt 0 ]; then
            echo "lint: $bin mentions '$flag'; there is one executor and no planner to show" >&2
            fail=1
        fi
    done
done
if [ "$(nontest_hits -F crates/server/src/optexec.rs 'pub fn run_rewritten(')" -eq 0 ]; then
    echo "lint: crates/server/src/optexec.rs no longer contains 'pub fn run_rewritten(' — the one-executor check is looking for the wrong thing" >&2
    fail=1
fi

# Installs take results: no whole-table clone to feed a callee, no closure
# seam, no caller-supplied copy of the table an install can look up.
# `sig` is set from a matching `fn` line to the `{` that ends its signature.
for file in "$session" crates/exec/src/scatter.rs; do
    if [ "$(nontest_hits -E "$file" '(enum_table|sumy)\([^)]*\)\?\.clone\(\)')" -gt 0 ]; then
        echo "lint: $file clones a whole table it looked up in non-test code; borrow it, or let the install look it up" >&2
        fail=1
    fi
    hits="$(nontest "$file" | awk '
        /pub fn [a-z0-9_]+_with[(<]/ { sig = "with" }
        /fn install_mined_/ { sig = "install" }
        sig == "with" && /impl Fn/ { n++ }
        sig == "install" && /&EnumTable/ { n++ }
        sig && /\{$/ { sig = "" }
        END { print n + 0 }')"
    if [ "$hits" -gt 0 ]; then
        echo "lint: $file has a pub fn .._with( taking a closure, or an install_mined_ signature naming &EnumTable ($hits site(s)); installs take results and look their inputs up" >&2
        fail=1
    fi
done
if [ "$(nontest_hits -F "$session" 'pub fn install_mined_clusters(')" -eq 0 ]; then
    echo "lint: $session no longer contains 'pub fn install_mined_clusters(' — the installs-take-results check is looking for the wrong thing" >&2
    fail=1
fi

# The snapshot streams: no second codec, no whole body on either side,
# no row-of-rows matrix on the way in.
persist="crates/core/src/persist.rs"
for construct in 'LzWriter' 'Inflate' 'fn lz_' 'fs::read(' 'Vec<Vec<f64>>'; do
    if [ "$(nontest_hits -F "$persist" "$construct")" -gt 0 ]; then
        echo "lint: $persist has '$construct' in non-test code; the snapshot body is the codec's bytes, streamed to and from its file" >&2
        fail=1
    fi
done
# `body` is set from a writer's `fn` line to the `}` that closes it.
hits="$(nontest "$persist" | awk '
    /^(pub )?fn (write_snapshot_file|spill_session|save_session)[(<]/ { body = 1 }
    body && /snapshot_to_bytes\(|fs::write\(/ { n++ }
    body && /^}/ { body = 0 }
    END { print n + 0 }')"
if [ "$hits" -gt 0 ]; then
    echo "lint: $persist writes a snapshot file through snapshot_to_bytes( or fs::write( ($hits site(s)); encode it straight into the file" >&2
    fail=1
fi
hits="$(nontest "$persist" | awk '
    /fn encode_session[(<]/ { sig = 1 }
    sig && /Vec<u8>/ { n++ }
    sig && /\{$/ { sig = 0 }
    END { print n + 0 }')"
if [ "$hits" -gt 0 ]; then
    echo "lint: $persist has an encode_session returning Vec<u8>; the body is encoded into its sink" >&2
    fail=1
fi
for construct in 'Cur::streaming(' 'fn write_snapshot_file('; do
    if [ "$(nontest_hits -F "$persist" "$construct")" -eq 0 ]; then
        echo "lint: $persist no longer contains '$construct' — the snapshot-streams check is looking for the wrong thing" >&2
        fail=1
    fi
done

# The request path names no reproduction-only module.
repro_only='\bkmeans\b|KMeans|agglomerate|Dendrogram|\bsom\b|compression::|gea_cluster::eval|index_analysis'
while IFS= read -r file; do
    hits="$(nontest_hits -E "$file" "$repro_only")"
    if [ "$hits" -gt 0 ]; then
        echo "lint: $file names a reproduction-only module in non-test code ($hits line(s)); baselines, compression, eval and index_analysis are called from crates/bench only" >&2
        fail=1
    fi
done < <(find crates/core/src crates/exec/src crates/mine/src crates/server/src \
    crates/router/src crates/opt/src crates/check/src src -name '*.rs' | sort)

# A reload offers the replaced session's source for sharing.
engine=crates/server/src/engine.rs
if [ "$(nontest_hits -E "$engine" '\bload_session\(')" -gt 0 ]; then
    echo "lint: $engine calls a bare load_session(; offer the replaced session's source to load_session_sharing" >&2
    fail=1
fi
if [ "$(nontest_hits -F "$engine" 'load_session_sharing(')" -eq 0 ]; then
    echo "lint: $engine no longer calls 'load_session_sharing(' — the sharing check is looking for the wrong thing" >&2
    fail=1
fi

# One byte codec: one FNV-1a, no private primitive codec, no io bridge.
codec=crates/sage/src/codec.rs
fnv_constants='cbf29ce484222325|100000001b3'
while IFS= read -r file; do
    hits="$(nontest "$file" | tr -d _ | grep -ciE "$fnv_constants" || true)"
    if [ "$file" = "$codec" ] && [ "$hits" -ne 2 ]; then
        echo "lint: $codec no longer holds the FNV-1a offset basis and prime — the one-codec check is looking for the wrong thing" >&2
        fail=1
    elif [ "$file" != "$codec" ] && [ "$hits" -gt 0 ]; then
        echo "lint: $file spells an FNV-1a constant in non-test code; hash with the Fnv1a/fnv1a of $codec" >&2
        fail=1
    fi
    if [ "$(nontest_hits -E "$file" 'fn (write|read)_(u32|str)\(')" -gt 0 ]; then
        echo "lint: $file defines a private write_/read_ u32 or str codec; use the put_* writers and Cur of $codec" >&2
        fail=1
    fi
done < <(find crates/*/src src -name '*.rs' | sort)
for file in "$codec" crates/core/src/codec.rs; do
    if [ "$(nontest_hits -E "$file" 'impl(<[^>]*>)? ([a-z_]+::)*(Read|Write)(<[^>]*>)? for')" -gt 0 ]; then
        echo "lint: $file bridges the codec to io::Read/io::Write; formats write to a ByteSink and read a Cur" >&2
        fail=1
    fi
done
if [ "$(nontest_hits -E "$persist" 'from_utf8\(|\.lines\(\)|splitn\(')" -gt 0 ]; then
    echo "lint: $persist decodes text in non-test code (from_utf8( / .lines() / splitn(); every snapshot field is read through the Cur of $codec" >&2
    fail=1
fi

# Reference kernels stay oracles: no non-test code calls one.
while IFS= read -r file; do
    hits="$(nontest "$file" | grep -v '^[[:space:]]*//' | grep -c 'reference::' || true)"
    if [ "$hits" -gt 0 ]; then
        echo "lint: $file names a reference:: kernel in non-test code ($hits line(s)); reference kernels are test oracles" >&2
        fail=1
    fi
done < <(find crates/*/src src -name '*.rs' | sort)
for file in crates/cluster/src/fascicle.rs crates/core/src/sumy.rs crates/sage/src/clean.rs crates/mine/src/isa.rs; do
    if [ "$(nontest_hits -F "$file" 'pub mod reference')" -eq 0 ]; then
        echo "lint: $file no longer declares 'pub mod reference' — the oracle check is looking for the wrong thing" >&2
        fail=1
    fi
done

# SAGE is derived: no front end asks for the dense root directly.
while IFS= read -r file; do
    hits="$(nontest_hits -F "$file" '.base()')"
    if [ "$hits" -gt 0 ]; then
        echo "lint: $file calls .base() in non-test code ($hits line(s)); the root is built only when a command names SAGE — count or list libraries through source()" >&2
        fail=1
    fi
done < <(find crates/server/src crates/exec/src crates/router/src src -name '*.rs' | sort)
if [ "$(nontest_hits -F "$session" 'OnceLock<EnumTable>')" -eq 0 ]; then
    echo "lint: $session no longer holds the root in a 'OnceLock<EnumTable>' — the SAGE-is-derived check is looking for the wrong thing" >&2
    fail=1
fi

# Clusters are derived: the installs build nothing, materialize_cluster
# aggregates nothing. `body` runs from a function's `fn` line to the `}`
# that closes it, at the indentation its `fn` line has.
fn_body_hits() {
    nontest "$1" | awk -v fn="$2" -v pat="$3" '
        match($0, "fn " fn "[(<]") { body = 1; indent = $0; sub(/[^ ].*$/, "", indent); next }
        body && $0 == indent "}" { body = 0 }
        body && $0 ~ pat { n++ }
        END { print n + 0 }'
}
for fn in install_mined_clusters install_populate commit_control_groups; do
    hits="$(fn_body_hits "$session" "$fn" 'with_libraries[(]|select_tags[(]|select_libraries[(]|aggregate_tags[(]')"
    if [ "$hits" -gt 0 ]; then
        echo "lint: $session $fn builds a table ($hits site(s)); install the Selection it derives from" >&2
        fail=1
    fi
done
hits="$(fn_body_hits crates/core/src/mine.rs materialize_cluster 'aggregate')"
if [ "$hits" -gt 0 ]; then
    echo "lint: crates/core/src/mine.rs materialize_cluster aggregates ($hits site(s)); a cluster is its ids, its SUMY is built when read" >&2
    fail=1
fi
for construct in 'pub struct Selection {' 'Derived(Selection,' 'fn install_mined_clusters(' 'fn install_populate(' 'fn commit_control_groups('; do
    if [ "$(nontest_hits -F "$session" "$construct")" -eq 0 ]; then
        echo "lint: $session no longer contains '$construct' — the clusters-are-derived check is looking for the wrong thing" >&2
        fail=1
    fi
done
if [ "$(nontest_hits -F crates/core/src/mine.rs 'pub fn materialize_cluster(')" -eq 0 ]; then
    echo "lint: crates/core/src/mine.rs no longer contains 'pub fn materialize_cluster(' — the clusters-are-derived check is looking for the wrong thing" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "invariant lints FAILED" >&2
    exit 1
fi
echo "invariant lints passed ($refs lock-order reference(s), $(grep -c '^[0-9]' "$allowlist") budgeted file(s))"
