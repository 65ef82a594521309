//! The `gea-router` binary: a distributed shard router speaking the GQL
//! wire protocol in front of multiple `gea-server` backends.

use std::process::ExitCode;
use std::time::Duration;

use gea_router::{Router, RouterConfig};
use gea_server::front::signals;

fn usage() -> String {
    "usage: gea-router [options]\n\
     \n\
     options:\n\
       --addr HOST:PORT        bind address (default 127.0.0.1:7787; port 0 = ephemeral)\n\
       --backend HOST:PORT     a gea-server backend, in shard order (repeatable, required)\n\
       --active N              backends active at start; 0 = all (default 0)\n\
       --workers N             client worker threads (default 4)\n\
       --queue N               accepted connections that may wait (default 16)\n\
       --health-interval-ms N  backend health-probe cadence (default 500)\n\
       --connect-timeout-ms N  per-backend connect timeout (default 2000)\n\
       --help                  this text\n\
     \n\
     The router scatters mine/populate/groups across the active backends\n\
     and replicates every other write; replies are byte-identical to a\n\
     single gea-server. Admin verbs: `backends`, `rebalance <k>`."
        .to_string()
}

fn parse_args(args: &[String]) -> Result<RouterConfig, String> {
    let mut config = RouterConfig::default();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--backend" => config.backends.push(value("--backend")?),
            "--active" => {
                config.active = value("--active")?
                    .parse()
                    .map_err(|_| "--active needs a number".to_string())?
            }
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers needs a number".to_string())?
            }
            "--queue" => {
                config.queue_depth = value("--queue")?
                    .parse()
                    .map_err(|_| "--queue needs a number".to_string())?
            }
            "--health-interval-ms" => {
                let ms: u64 = value("--health-interval-ms")?
                    .parse()
                    .map_err(|_| "--health-interval-ms needs a number".to_string())?;
                config.health_interval = Duration::from_millis(ms);
            }
            "--connect-timeout-ms" => {
                let ms: u64 = value("--connect-timeout-ms")?
                    .parse()
                    .map_err(|_| "--connect-timeout-ms needs a number".to_string())?;
                config.connect_timeout = Duration::from_millis(ms);
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown option {other}\n\n{}", usage())),
        }
        i += 1;
    }
    if config.backends.is_empty() {
        return Err(format!("at least one --backend is required\n\n{}", usage()));
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let router = match Router::bind(config.clone()) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("gea-router: cannot bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "gea-router listening on {} over {} backend(s)",
        router.local_addr(),
        config.backends.len()
    );
    signals::watch("router", router.handle());
    match router.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gea-router: {e}");
            ExitCode::FAILURE
        }
    }
}
