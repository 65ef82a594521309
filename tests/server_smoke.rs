//! Loopback integration test for gea-server: concurrent clients drive the
//! full thesis pipeline (mine → groups → gap → topgap) over TCP against a
//! shared named session, and every reply must match what the in-process
//! [`GeaSession`] API produces for the same commands.

use std::thread;
use std::time::Duration;

use gea_core::session::GeaSession;
use gea_sage::clean::CleaningConfig;
use gea_sage::generate::{generate, GeneratorConfig};
use gea_server::engine;
use gea_server::gql::{parse, Request};
use gea_server::{GeaClient, Server, ServerConfig};

const N_CLIENTS: usize = 4;

/// Each client's pipeline, on tables namespaced by the client index so
/// concurrent writers never collide on names. On demo seed 42 the 50%
/// mine finds exactly one fascicle (`a{i}_1`) that is pure on cancer, so
/// the whole script is deterministic.
fn client_script(i: usize) -> Vec<String> {
    vec![
        format!("dataset E{i} brain"),
        format!("mine E{i} a{i} 50 3 6"),
        format!("purity a{i}_1"),
        format!("groups a{i}_1"),
        format!("gap g{i} a{i}_1CancerFasTbl a{i}_1NormalTable"),
        format!("topgap g{i} 5"),
        format!("show gap g{i} 3"),
    ]
}

#[test]
fn concurrent_clients_match_the_in_process_api() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: N_CLIENTS + 2,
        queue_depth: 8,
        lock_timeout: Duration::from_secs(120),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let serving = thread::spawn(move || server.run().expect("serve"));

    // One client opens the shared session every other client attaches to.
    let mut admin = GeaClient::connect(addr).expect("connect admin");
    let opened = admin
        .request("open shared demo 42")
        .unwrap()
        .expect("open shared session");
    assert!(opened.contains("tags after cleaning"), "{opened}");

    // Malformed and failing commands answer ERR without killing the
    // connection.
    assert_eq!(admin.request("mine").unwrap().unwrap_err().0, "EPARSE");
    assert_eq!(admin.request("bogus cmd").unwrap().unwrap_err().0, "EPARSE");
    assert_eq!(
        admin
            .request("gap g missing1 missing2")
            .unwrap()
            .unwrap_err()
            .0,
        "ENOTFOUND"
    );
    assert_eq!(
        admin.request("use nosuch").unwrap().unwrap_err().0,
        "ENOSESSION"
    );
    assert_eq!(admin.request("ping").unwrap(), Ok("pong".to_string()));

    // N concurrent clients run the pipeline against the shared session.
    let mut workers = Vec::new();
    for i in 0..N_CLIENTS {
        workers.push(thread::spawn(move || {
            let mut client = GeaClient::connect(addr).expect("connect client");
            client.request("use shared").unwrap().expect("use shared");
            client_script(i)
                .iter()
                .map(|line| {
                    client.request(line).unwrap().unwrap_or_else(|(code, msg)| {
                        panic!("client {i}: {line:?} failed: {code} {msg}")
                    })
                })
                .collect::<Vec<String>>()
        }));
    }
    let served: Vec<Vec<String>> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();

    // The reference: the same commands through the in-process API. Replies
    // must be byte-identical (modulo the frame's trailing newline).
    let (corpus, _) = generate(&GeneratorConfig::demo(42));
    let mut reference =
        GeaSession::open(corpus, &CleaningConfig::default()).expect("open reference");
    for (i, replies) in served.iter().enumerate() {
        let script = client_script(i);
        assert_eq!(replies.len(), script.len());
        for (line, over_wire) in script.iter().zip(replies) {
            let Some(Request::Gql(cmd)) = parse(line).unwrap() else {
                panic!("{line:?} is not an algebra command");
            };
            let local = engine::execute(&mut reference, &cmd)
                .unwrap_or_else(|e| panic!("reference {line:?}: {e}"));
            assert_eq!(
                local.trim_end_matches('\n'),
                over_wire,
                "wire reply diverged from in-process API on {line:?}"
            );
        }
    }

    // The pipeline actually produced gaps worth serving.
    assert!(served[0][5].contains("g0_5"), "{}", served[0][5]);
    assert!(served[0][6].contains("TagName"), "{}", served[0][6]);

    // The cache serves a repeat read at an unchanged generation without
    // re-executing it, and the reply is byte-identical.
    let first = admin.request("show gap g0 3").unwrap().expect("show");
    let second = admin.request("show gap g0 3").unwrap().expect("show again");
    assert_eq!(first, second, "cached reply diverged");

    // Metrics: non-zero request counts and latency histograms per verb.
    let stats = admin.request("stats").unwrap().expect("stats");
    let cache_hits: u64 = stats
        .lines()
        .find_map(|l| l.strip_prefix("cache_hits "))
        .expect("cache_hits line")
        .parse()
        .unwrap();
    assert!(cache_hits > 0, "no cache hits recorded: {stats}");
    assert!(stats.contains("requests_total"), "{stats}");
    let requests: u64 = stats
        .lines()
        .find_map(|l| l.strip_prefix("requests_total "))
        .expect("requests_total line")
        .parse()
        .unwrap();
    assert!(
        requests as usize >= N_CLIENTS * 8,
        "only {requests} requests: {stats}"
    );
    for verb in ["mine", "gap", "topgap", "show", "purity"] {
        let line = stats
            .lines()
            .find(|l| l.starts_with(&format!("cmd {verb} ")))
            .unwrap_or_else(|| panic!("no stats line for {verb}: {stats}"));
        // The admin's deliberate failures also count, so >= per client.
        let count: usize = line
            .split_whitespace()
            .nth(3)
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unparsable stats line: {line}"));
        assert!(count >= N_CLIENTS, "{line}");
        assert!(
            line.contains("hist_log2us [") && !line.contains("[]"),
            "{line}"
        );
    }

    // Graceful shutdown via the protocol.
    assert_eq!(
        admin.request("shutdown").unwrap(),
        Ok("shutting down".to_string())
    );
    serving.join().expect("server thread");
}

#[test]
fn sessions_are_isolated_and_closable() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 4,
        lock_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let serving = thread::spawn(move || server.run().expect("serve"));

    let mut a = GeaClient::connect(addr).unwrap();
    let mut b = GeaClient::connect(addr).unwrap();
    a.request("open one demo 42").unwrap().expect("open one");
    b.request("open two demo 7").unwrap().expect("open two");
    a.request("dataset Eb brain")
        .unwrap()
        .expect("dataset in one");
    // Session `two` never saw Eb.
    assert_eq!(
        b.request("tagfreq Eb TTTTTTTTTT").unwrap().unwrap_err().0,
        "ENOTFOUND"
    );
    let sessions = a.request("sessions").unwrap().expect("sessions");
    assert!(
        sessions.contains("one") && sessions.contains("two"),
        "{sessions}"
    );
    a.request("close two").unwrap().expect("close two");
    assert_eq!(b.request("tissues").unwrap().unwrap_err().0, "ENOSESSION");

    handle.shutdown();
    serving.join().expect("server thread");
}

/// A corpus file is outside input: a tag whose lines sum past `u32::MAX`
/// (which `open … dir` used to wrap to a small count in release builds) and
/// a count line with a third field are each refused with one `ERR EIO`
/// naming the line, no session is created, and the server keeps serving.
#[test]
fn open_dir_rejects_overflowing_and_three_field_count_lines() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 4,
        lock_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let serving = thread::spawn(move || server.run().expect("serve"));

    let dir = std::env::temp_dir().join(format!("gea_bad_corpus_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("sageName.txt"),
        "SAGE_bad\tbrain\tcancer\tbulk\tlib_000.sage\n",
    )
    .unwrap();
    let open = format!("open s dir {}", dir.display());

    let mut client = GeaClient::connect(addr).unwrap();
    for (text, expected) in [
        (
            "AAAAAAAAAA\t4294967295\nCCCCCCCCCC\t7\nAAAAAAAAAA\t2\n",
            "line 3: counts of AAAAAAAAAA sum past 4294967295",
        ),
        ("AAAAAAAAAA\t5\tjunk\n", "line 1: more than two fields"),
    ] {
        std::fs::write(dir.join("lib_000.sage"), text).unwrap();
        let (code, message) = client.request(&open).unwrap().unwrap_err();
        assert_eq!(code, "EIO");
        assert!(message.contains(expected), "{message}");
        assert_eq!(client.request("ping").unwrap().expect("ping"), "pong");
        assert_eq!(
            client.request("tissues").unwrap().unwrap_err().0,
            "ENOSESSION"
        );
    }

    // The same directory with a well-formed file opens.
    std::fs::write(dir.join("lib_000.sage"), "AAAAAAAAAA\t5\nAAAAAAAAAA\t2\n").unwrap();
    client
        .request(&open)
        .unwrap()
        .expect("open well-formed dir");

    std::fs::remove_dir_all(&dir).unwrap();
    handle.shutdown();
    serving.join().expect("server thread");
}

/// A `mine` with any parameter outside its domain (`k_pct`, `min_records`
/// or `batch`) is refused by the parser on every path to the kernel —
/// positional, inside `xpart`, and `with fascicles` — with one message
/// per parameter, and the worker survives it. On a one-worker server each connection holds the
/// only worker, so a worker lost to a panic would leave every later
/// connection unanswered; the read timeout turns that into a failure.
#[test]
fn out_of_domain_mine_batch_is_refused_and_the_worker_survives() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 4,
        lock_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let serving = thread::spawn(move || server.run().expect("serve"));
    let connect = || {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        GeaClient::from_stream(stream).expect("client")
    };

    connect().request("open s demo 42").unwrap().expect("open");
    for (positional, sugared, message) in [
        (
            "mine SAGE f 50 3 0",
            "mine SAGE f with fascicles batch=0",
            "parameter batch = 0 out of domain (integer 1..=1048576)",
        ),
        (
            "mine SAGE a 101 3 6",
            "mine SAGE a with fascicles k_pct=101",
            "parameter k_pct = 101 out of domain (integer 1..=100)",
        ),
        (
            "mine SAGE b 0 3 6",
            "mine SAGE b with fascicles k_pct=0",
            "parameter k_pct = 0 out of domain (integer 1..=100)",
        ),
        (
            "mine SAGE c 50 0 6",
            "mine SAGE c with fascicles min_records=0",
            "parameter min_records = 0 out of domain (integer 1..=1048576)",
        ),
    ] {
        let refused = Err(("EPARSE".to_string(), message.to_string()));
        for line in [
            positional.to_string(),
            format!("xpart 0 2 :: {positional}"),
            sugared.to_string(),
        ] {
            let mut client = connect();
            client.request("use s").unwrap().expect("use");
            assert_eq!(client.request(&line).unwrap(), refused, "{line}");
            assert_eq!(client.request("ping").unwrap().expect("ping"), "pong");
        }
    }
    // Nothing was mined.
    let mut client = connect();
    client.request("use s").unwrap().expect("use");
    assert_eq!(
        client.request("fascicles").unwrap().expect("fascicles"),
        "no fascicles mined yet"
    );
    drop(client);

    handle.shutdown();
    serving.join().expect("server thread");
}

/// The `check` verb validates a pipeline against the *live* session's
/// symbol table without mutating it: a table created over the wire
/// resolves, a fresh session rejects the same reference, and checking a
/// pipeline that "defines" names leaves them free for real commands.
#[test]
fn check_verb_validates_against_the_live_session() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 4,
        lock_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let serving = thread::spawn(move || server.run().expect("serve"));

    let mut a = GeaClient::connect(addr).unwrap();
    a.request("open live demo 42").unwrap().expect("open live");
    a.request("dataset Eb brain").unwrap().expect("dataset");

    // Eb exists in this session, so referencing it checks clean…
    let reply = a
        .request("check comment Eb \"exists here\"")
        .unwrap()
        .expect("check against live session");
    assert!(reply.contains("clean"), "{reply}");

    // …while a fresh session flags the same reference as undefined.
    let mut b = GeaClient::connect(addr).unwrap();
    b.request("open fresh demo 7").unwrap().expect("open fresh");
    let reply = b
        .request("check comment Eb \"not here\"")
        .unwrap()
        .expect("check against fresh session");
    assert!(reply.contains("error[undefined-name]"), "{reply}");
    assert!(reply.contains("line 1:"), "{reply}");

    // World typing uses the live table's world: Eb is an ENUM, not a SUMY.
    let reply = a
        .request("check gap g Eb Eb")
        .unwrap()
        .expect("check world mismatch");
    assert!(reply.contains("error[world-mismatch]"), "{reply}");

    // A multi-command pipeline is checked as a whole — definitions made
    // inside the check are visible to later commands of the pipeline…
    let reply = a
        .request("check dataset X brain ; comment X \"pipeline-local\"")
        .unwrap()
        .expect("check pipeline");
    assert!(reply.contains("clean"), "{reply}");

    // …but never leak into the session: `check` is a pure read, so X is
    // still free for a real command, and the generation never moved.
    let sessions = a.request("sessions").unwrap().expect("sessions");
    assert_eq!(generation_of(&sessions, "live"), 1, "{sessions}");
    a.request("dataset X brain")
        .unwrap()
        .expect("X must still be free after check");

    handle.shutdown();
    serving.join().expect("server thread");
}

/// The session generation listed by `sessions`, for session `name`.
fn generation_of(sessions_reply: &str, name: &str) -> u64 {
    sessions_reply
        .lines()
        .find(|l| l.starts_with(&format!("{name}:")))
        .and_then(|l| l.split("generation ").nth(1))
        .and_then(|rest| rest.split(',').next())
        .and_then(|g| g.trim().parse().ok())
        .unwrap_or_else(|| panic!("no generation for {name} in {sessions_reply:?}"))
}

/// The highest `W<k>` table visible in a lineage tree reply (0 if none).
fn max_w_node(lineage_reply: &str) -> u64 {
    lineage_reply
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .filter_map(|tok| tok.strip_prefix('W').and_then(|n| n.parse().ok()))
        .max()
        .unwrap_or(0)
}

/// Hot-loop staleness check: readers hammer cacheable reads while one
/// writer appends tables. Each write bumps the session generation by
/// exactly one and adds a `W<k>` lineage node, so a reader that samples
/// generation `g` and *then* reads the lineage must see node `W<g>` —
/// whether the reply came from the engine or the response cache. Seeing
/// less means a stale cached reply was served for a newer generation.
#[test]
fn hot_loop_readers_never_observe_stale_generations() {
    const N_WRITES: u64 = 20;
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue_depth: 8,
        lock_timeout: Duration::from_secs(60),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let serving = thread::spawn(move || server.run().expect("serve"));

    let mut admin = GeaClient::connect(addr).expect("connect admin");
    admin.request("open hot demo 42").unwrap().expect("open");

    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let done = std::sync::Arc::clone(&done);
        thread::spawn(move || {
            let mut client = GeaClient::connect(addr).expect("connect writer");
            client.request("use hot").unwrap().expect("use");
            for k in 1..=N_WRITES {
                client
                    .request(&format!("dataset W{k} brain"))
                    .unwrap()
                    .unwrap_or_else(|e| panic!("write {k} failed: {e:?}"));
            }
            done.store(true, std::sync::atomic::Ordering::SeqCst);
        })
    };

    let mut readers = Vec::new();
    for r in 0..2 {
        let done = std::sync::Arc::clone(&done);
        readers.push(thread::spawn(move || {
            let mut client = GeaClient::connect(addr).expect("connect reader");
            client.request("use hot").unwrap().expect("use");
            let mut checks = 0u64;
            while checks < 3 || !done.load(std::sync::atomic::Ordering::SeqCst) {
                let sessions = client.request("sessions").unwrap().expect("sessions");
                let sampled = generation_of(&sessions, "hot");
                let lineage = client.request("lineage").unwrap().expect("lineage");
                let seen = max_w_node(&lineage);
                assert!(
                    seen >= sampled,
                    "reader {r}: stale read — sampled generation {sampled}, \
                     lineage only shows W{seen}"
                );
                checks += 1;
            }
            checks
        }));
    }

    writer.join().expect("writer thread");
    for reader in readers {
        assert!(reader.join().expect("reader thread") >= 3);
    }

    // Quiesced: the generation equals the write count, the last table is
    // visible, and the hammering produced real cache traffic.
    let sessions = admin.request("sessions").unwrap().expect("sessions");
    assert_eq!(generation_of(&sessions, "hot"), N_WRITES, "{sessions}");
    let lineage = admin.request("lineage").unwrap().expect("lineage");
    assert_eq!(max_w_node(&lineage), N_WRITES, "{lineage}");
    let stats = admin.request("stats").unwrap().expect("stats");
    let hits: u64 = stats
        .lines()
        .find_map(|l| l.strip_prefix("cache_hits "))
        .expect("cache_hits line")
        .parse()
        .unwrap();
    let misses: u64 = stats
        .lines()
        .find_map(|l| l.strip_prefix("cache_misses "))
        .expect("cache_misses line")
        .parse()
        .unwrap();
    assert!(misses > 0, "{stats}");

    // With the writer quiet, a repeated read must hit.
    admin.request("lineage").unwrap().expect("lineage");
    admin.request("lineage").unwrap().expect("lineage");
    let stats = admin.request("stats").unwrap().expect("stats");
    let hits_after: u64 = stats
        .lines()
        .find_map(|l| l.strip_prefix("cache_hits "))
        .expect("cache_hits line")
        .parse()
        .unwrap();
    assert!(
        hits_after > hits,
        "quiesced repeat read did not hit: {stats}"
    );

    handle.shutdown();
    serving.join().expect("server thread");
}
