//! The gea-server binary: serve the GEA algebra over TCP.
//!
//! ```text
//! gea-server [--addr HOST:PORT] [--workers N] [--queue N]
//!            [--lock-timeout-ms MS] [--demo SEED]
//!            [--cache-bytes N] [--session-budget N] [--idle-timeout-ms MS]
//!            [--spill-dir PATH] [--threads N] [--max-cost UNITS]
//! ```
//!
//! `--demo SEED` pre-opens the session named `default` from a generated
//! demo corpus so clients can start querying without an `open` of their
//! own. `--cache-bytes` sizes the response cache (0 disables it);
//! `--session-budget` caps total approximate session bytes with LRU
//! eviction, and `--idle-timeout-ms` evicts sessions no request has
//! touched in that long. Without `--spill-dir`, evicted sessions answer
//! `ERR EEVICTED` until re-opened; with it, they are persisted to PATH on
//! eviction and restored transparently on their next use. `--threads N`
//! sizes the sharded executor for mine/populate/aggregate inside each
//! session (0, the default, means available parallelism; 1 forces the
//! serial path — results are byte-identical either way). `--max-cost
//! UNITS` enables the static budget gate: commands whose predicted cost
//! (the `gea-check` abstract cost model over the session's live table
//! sizes) exceeds UNITS answer `ERR EBUDGET` before execution. Stop the
//! server with the `shutdown` protocol command, SIGINT, or SIGTERM — all
//! three drain in-flight requests (and spills) before exiting.

use std::time::Duration;

use gea_core::session::GeaSession;
use gea_sage::clean::CleaningConfig;
use gea_sage::generate::{generate, GeneratorConfig};
use gea_server::front::signals;
use gea_server::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: gea-server [--addr HOST:PORT] [--workers N] [--queue N] \
         [--lock-timeout-ms MS] [--demo SEED] [--cache-bytes N] \
         [--session-budget N] [--idle-timeout-ms MS] [--spill-dir PATH] \
         [--threads N] [--max-cost UNITS]"
    );
    std::process::exit(2);
}

fn parse_args() -> (ServerConfig, Option<u64>) {
    let mut config = ServerConfig::default();
    let mut demo = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--workers" => match value("--workers").parse() {
                Ok(n) => config.workers = n,
                Err(e) => {
                    eprintln!("bad --workers: {e}");
                    usage()
                }
            },
            "--queue" => match value("--queue").parse() {
                Ok(n) => config.queue_depth = n,
                Err(e) => {
                    eprintln!("bad --queue: {e}");
                    usage()
                }
            },
            "--lock-timeout-ms" => match value("--lock-timeout-ms").parse() {
                Ok(ms) => config.lock_timeout = Duration::from_millis(ms),
                Err(e) => {
                    eprintln!("bad --lock-timeout-ms: {e}");
                    usage()
                }
            },
            "--cache-bytes" => match value("--cache-bytes").parse() {
                Ok(n) => config.cache_bytes = n,
                Err(e) => {
                    eprintln!("bad --cache-bytes: {e}");
                    usage()
                }
            },
            "--session-budget" => match value("--session-budget").parse() {
                Ok(n) => config.session_budget = Some(n),
                Err(e) => {
                    eprintln!("bad --session-budget: {e}");
                    usage()
                }
            },
            "--idle-timeout-ms" => match value("--idle-timeout-ms").parse() {
                Ok(ms) => config.idle_timeout = Some(Duration::from_millis(ms)),
                Err(e) => {
                    eprintln!("bad --idle-timeout-ms: {e}");
                    usage()
                }
            },
            "--spill-dir" => {
                config.spill_dir = Some(std::path::PathBuf::from(value("--spill-dir")));
            }
            "--threads" => match value("--threads").parse() {
                Ok(n) => config.threads = n,
                Err(e) => {
                    eprintln!("bad --threads: {e}");
                    usage()
                }
            },
            "--max-cost" => match value("--max-cost").parse() {
                Ok(n) => config.max_cost = Some(n),
                Err(e) => {
                    eprintln!("bad --max-cost: {e}");
                    usage()
                }
            },
            "--demo" => match value("--demo").parse() {
                Ok(seed) => demo = Some(seed),
                Err(e) => {
                    eprintln!("bad --demo: {e}");
                    usage()
                }
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    (config, demo)
}

fn main() {
    let (config, demo) = parse_args();
    let threads = config.threads;
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("gea-server: bind failed: {e}");
            std::process::exit(1);
        }
    };
    if let Some(seed) = demo {
        let (corpus, _) = generate(&GeneratorConfig::demo(seed));
        match GeaSession::open(corpus, &CleaningConfig::default()) {
            Ok(mut session) => {
                session.set_exec_config(gea_core::session::ExecConfig::with_threads(threads));
                let fingerprint = gea_core::persist::corpus_fingerprint(&session).ok();
                server
                    .registry()
                    .open_with_fingerprint("default", session, fingerprint);
                eprintln!("gea-server: opened demo session `default` (seed {seed})");
            }
            Err(e) => {
                eprintln!("gea-server: demo session failed: {e}");
                std::process::exit(1);
            }
        }
    }
    signals::watch("server", server.handle());
    eprintln!("gea-server: listening on {}", server.local_addr());
    if let Err(e) = server.run() {
        eprintln!("gea-server: {e}");
        std::process::exit(1);
    }
    eprintln!("gea-server: shut down");
}
