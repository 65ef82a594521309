//! The cache transparency battery: the response cache must be purely an
//! optimization. For randomized interleavings of read and write GQL
//! commands, every reply from a cache-enabled server must be
//! byte-identical to the reply from a cache-disabled server fed the same
//! command sequence — including error replies. A divergence means a stale
//! or wrongly-keyed cache entry was served.

mod common;

use std::time::Duration;

use common::gql_gen::GqlGen;
use gea_server::client::reply_evicted;
use gea_server::ServerConfig;

const INTERLEAVINGS: usize = 100;
const STEPS_PER_INTERLEAVING: usize = 8;

/// `library` keys: library ids, two past the demo corpus's 21 libraries.
const LIBRARY_IDS: [&str; 6] = ["1", "5", "9", "13", "21", "29"];

fn config(cache_bytes: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 4,
        lock_timeout: Duration::from_secs(30),
        cache_bytes,
        ..ServerConfig::default()
    }
}

/// The verbs a pass draws from: nine reads (cacheable and not) to three
/// writes, so most steps are cache-eligible reads with writes interleaved
/// to bump the generation.
const VERBS: [&str; 12] = [
    "tissues",
    "lineage",
    "cleaning",
    "fascicles",
    "dataset",
    "comment",
    "delete",
    "show",
    "tagfreq",
    "library",
    "purity",
    "xprofiler",
];

#[test]
fn cache_is_transparent_over_randomized_interleavings() {
    let (mut cached, cached_handle) = common::serve(config(8 * 1024 * 1024));
    let (mut plain, plain_handle) = common::serve(config(0));

    for client in [&mut cached, &mut plain] {
        client.expect_ok("open battery demo 11").expect("open");
    }

    let mut compared = 0usize;
    for iter in 0..INTERLEAVINGS {
        let mut gen = GqlGen::new(0xCAC4E + iter as u64).with("<name|id>", &LIBRARY_IDS);
        let mut live = Vec::new();
        let mut script = Vec::new();
        for step in 0..STEPS_PER_INTERLEAVING {
            script.push(gen.step(&VERBS, format!("d{iter}_{step}"), &mut live));
        }
        // Keep the session lean across 100 interleavings: every table this
        // pass created is cascade-deleted at the end of the pass (itself
        // more command pairs to compare).
        for name in live {
            script.push(format!("delete {name} --cascade"));
        }
        for line in script {
            let with_cache = cached.request(&line).expect("cached transport");
            let without = plain.request(&line).expect("plain transport");
            assert_eq!(
                with_cache, without,
                "cache changed the reply to {line:?} (interleaving {iter})"
            );
            compared += 1;
        }
    }
    assert!(compared >= INTERLEAVINGS * STEPS_PER_INTERLEAVING);

    // The comparison is only meaningful if the cache actually served hits.
    let stats = cached.expect_ok("stats").expect("stats");
    let hits: u64 = stats
        .lines()
        .find_map(|l| l.strip_prefix("cache_hits "))
        .expect("cache_hits line")
        .parse()
        .unwrap();
    assert!(hits > 0, "no cache hits in {INTERLEAVINGS} interleavings");
    let plain_stats = plain.expect_ok("stats").expect("stats");
    assert!(
        plain_stats.contains("cache_hits 0"),
        "disabled cache served a hit: {plain_stats}"
    );

    cached_handle.stop();
    plain_handle.stop();
}

/// Extract a numeric counter from a `stats` reply.
fn counter(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{key} ")))
        .unwrap_or_else(|| panic!("no {key} line in {stats:?}"))
        .parse()
        .unwrap()
}

/// Twin sessions opened from the same demo seed share a corpus: as long
/// as both are pristine (no write ever ran), pure-read replies cached by
/// one must be served to the other — keyed by corpus fingerprint, not
/// session identity — and must survive the first twin closing. A write
/// diverges a session from the corpus and must drop it out of the shared
/// scope without affecting its twin.
#[test]
fn pristine_twin_sessions_share_cached_replies() {
    let (mut client, handle) = common::serve(config(8 * 1024 * 1024));

    client.expect_ok("open a demo 99").expect("open a");
    client.expect_ok("open b demo 99").expect("open b");
    // A twin from a *different* corpus must never share.
    client.expect_ok("open other demo 100").expect("open other");

    client.expect_ok("use a").expect("use a");
    let from_a = client.expect_ok("tissues").expect("tissues on a");
    let hits_before = counter(&client.expect_ok("stats").unwrap(), "cache_hits");

    // The same read on the pristine twin is a cross-session hit, and the
    // reply is byte-identical to the one computed on `a`.
    client.expect_ok("use b").expect("use b");
    let from_b = client.expect_ok("tissues").expect("tissues on b");
    assert_eq!(from_a, from_b);
    let hits_after = counter(&client.expect_ok("stats").unwrap(), "cache_hits");
    assert!(
        hits_after > hits_before,
        "twin read was not served from the shared cache ({hits_before} -> {hits_after})"
    );

    // A different corpus misses: the hit counter must not move.
    client.expect_ok("use other").expect("use other");
    let hits_before = counter(&client.expect_ok("stats").unwrap(), "cache_hits");
    let _from_other = client.expect_ok("tissues").expect("tissues on other");
    let hits_after = counter(&client.expect_ok("stats").unwrap(), "cache_hits");
    assert_eq!(
        hits_after, hits_before,
        "different-seed twin shared a reply"
    );

    // Closing the twin that populated the cache must not strand `b`: the
    // corpus-scoped entry belongs to the corpus, so `b` still hits.
    client.expect_ok("close a").expect("close a");
    client.expect_ok("use b").expect("use b");
    let hits_before = counter(&client.expect_ok("stats").unwrap(), "cache_hits");
    assert_eq!(client.expect_ok("tissues").unwrap(), from_b);
    assert!(
        counter(&client.expect_ok("stats").unwrap(), "cache_hits") > hits_before,
        "corpus-scoped entry died with its originating session"
    );

    // A write diverges `b` from the pristine corpus; its replies must stop
    // flowing through the shared scope (a later pristine twin would
    // otherwise see post-write state) but stay correct.
    client.expect_ok("dataset d brain").expect("write on b");
    let diverged = client.expect_ok("tissues").expect("tissues after write");
    assert_eq!(diverged, from_b, "tissues content changed by dataset");
    // A fresh pristine twin still hits the original corpus-scoped entry.
    client.expect_ok("open c demo 99").expect("open c");
    let hits_before = counter(&client.expect_ok("stats").unwrap(), "cache_hits");
    assert_eq!(client.expect_ok("tissues").unwrap(), from_b);
    assert!(
        counter(&client.expect_ok("stats").unwrap(), "cache_hits") > hits_before,
        "new pristine twin missed the shared entry"
    );

    handle.stop();
}

/// Admission is scan-resistant: a one-pass cold scan of distinct reads
/// must not evict a hotter resident. The frequency sketch ranks the
/// primed-and-hit `tissues` reply above any command seen once, so the
/// overflowing scan inserts are *rejected* at admission (each scan read
/// still computes a correct reply — rejection only skips caching it) and
/// the hot entry survives to hit again. This flips the old
/// `admission_baseline_has_no_thrash_protection` picture, where pure LRU
/// let the same scan evict the hot entry.
#[test]
fn admission_is_scan_resistant() {
    let (mut client, handle) = common::serve(config(4 * 1024));
    client.expect_ok("open adm demo 42").expect("open");

    // Prime the hot entry and prove it hits. The miss, the insert, and
    // the hit each feed the frequency sketch, so `tissues` now out-ranks
    // any command the cache has seen only once.
    let tissues = client.expect_ok("tissues").expect("prime");
    let hits = counter(&client.expect_ok("stats").unwrap(), "cache_hits");
    assert_eq!(client.expect_ok("tissues").unwrap(), tissues);
    assert_eq!(
        counter(&client.expect_ok("stats").unwrap(), "cache_hits"),
        hits + 1,
        "hot entry did not hit before the scan"
    );

    // A one-pass cold scan: each reply is individually small enough for
    // the size gate, and collectively they overflow the 4 KiB budget.
    let rejected_before = counter(&client.expect_ok("stats").unwrap(), "cache_rejected");
    for i in 0..21 {
        client
            .expect_ok(&format!("library {i}"))
            .expect("scan read");
    }

    // The scan pressured the cache, but the pressure shows up as
    // admission rejections — once the budget is full, every once-seen
    // scan key loses the frequency contest against the hot resident.
    let stats = client.expect_ok("stats").expect("stats");
    assert!(
        counter(&stats, "cache_rejected") > rejected_before,
        "over-budget scan was fully admitted: {stats}"
    );

    // The hot entry survived the scan: the next read hits, and misses do
    // not move.
    let hits = counter(&stats, "cache_hits");
    let misses = counter(&stats, "cache_misses");
    assert_eq!(client.expect_ok("tissues").unwrap(), tissues);
    let stats = client.expect_ok("stats").expect("stats");
    assert_eq!(
        counter(&stats, "cache_hits"),
        hits + 1,
        "hot entry was thrashed by a one-pass cold scan"
    );
    assert_eq!(
        counter(&stats, "cache_misses"),
        misses,
        "hot entry re-read missed after the scan"
    );

    // The size gate still fronts the frequency filter: an entry whose key
    // alone exceeds budget/4 is rejected outright (the reply is still
    // computed and correct).
    let rejected = counter(&client.expect_ok("stats").unwrap(), "cache_rejected");
    let oversized = format!("check {}", vec!["tissues"; 300].join(" ; "));
    client.expect_ok(&oversized).expect("oversized check");
    assert_eq!(
        counter(&client.expect_ok("stats").unwrap(), "cache_rejected"),
        rejected + 1,
        "oversized entry was not size-rejected"
    );

    handle.stop();
}

#[test]
fn eviction_round_trips_through_the_client() {
    let mut cfg = config(1024 * 1024);
    // A 1-byte budget means any session is over budget the moment it is
    // installed, so eviction is deterministic: open succeeds, the next
    // use of the name answers EEVICTED.
    cfg.session_budget = Some(1);
    let (mut client, handle) = common::serve(cfg);

    client.expect_ok("open alpha demo 42").expect("open alpha");
    let reply = client.request("tissues").expect("transport");
    assert!(reply_evicted(&reply), "expected EEVICTED, got {reply:?}");
    // The helper is selective: other errors are not "evicted".
    let reply = client.request("use never-opened").expect("transport");
    assert!(!reply_evicted(&reply));
    // `close` acknowledges the eviction and clears the tombstone; the
    // name then reads as never-opened, not evicted.
    client.expect_ok("close alpha").expect("clear tombstone");
    let reply = client.request("use alpha").expect("transport");
    assert_eq!(reply.as_ref().unwrap_err().0, "ENOSESSION");
    assert!(!reply_evicted(&reply));

    handle.stop();
}
