//! The system under test: in-process `gea-server` instances on
//! `127.0.0.1:0`, optionally behind an in-process `gea-router`, and the
//! scratch directories corpora and saves are written to.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

use gea_router::{Router, RouterConfig, RouterHandle};
use gea_server::{Server, ServerConfig, ServerHandle};

/// `ServerConfig.threads` for every server the bench starts.
pub const SERVER_THREADS: usize = 2;

/// A directory under `benchmark/out/tmp` that is removed when dropped —
/// on success, on a failed check, and while unwinding from a panic.
pub struct TempDir(PathBuf);

static NEXT_TEMP: AtomicU64 = AtomicU64::new(0);

impl TempDir {
    pub fn new(out_dir: &Path, label: &str) -> std::io::Result<TempDir> {
        let n = NEXT_TEMP.fetch_add(1, Ordering::Relaxed);
        let path = out_dir
            .join("tmp")
            .join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Running<H> {
    addr: SocketAddr,
    handle: H,
    join: JoinHandle<()>,
}

/// One deployment: the servers, the router in front of them if the
/// workload is routed, and the address clients connect to.
pub struct Fixture {
    servers: Vec<Running<ServerHandle>>,
    router: Option<Running<RouterHandle>>,
}

fn spawn_server() -> Running<ServerHandle> {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: SERVER_THREADS,
        lock_timeout: Duration::from_secs(120),
        ..ServerConfig::default()
    })
    .expect("bind gea-server on 127.0.0.1:0");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("gea-server run loop"));
    Running { addr, handle, join }
}

impl Fixture {
    /// `backends == 0`: one direct server. Otherwise `backends` servers
    /// behind a router with `RouterConfig::default()` tuning.
    pub fn start(backends: usize) -> Fixture {
        let servers: Vec<_> = (0..backends.max(1)).map(|_| spawn_server()).collect();
        let router = (backends > 0).then(|| {
            let router = Router::bind(RouterConfig {
                addr: "127.0.0.1:0".to_string(),
                backends: servers.iter().map(|s| s.addr.to_string()).collect(),
                ..RouterConfig::default()
            })
            .expect("bind gea-router on 127.0.0.1:0");
            let addr = router.local_addr();
            let handle = router.handle();
            let join = std::thread::spawn(move || router.run().expect("gea-router run loop"));
            Running { addr, handle, join }
        });
        Fixture { servers, router }
    }

    /// Where clients connect: the router if there is one.
    pub fn addr(&self) -> SocketAddr {
        self.router
            .as_ref()
            .map_or(self.servers[0].addr, |r| r.addr)
    }

    /// The servers' own addresses, for scraping `stats` behind a router.
    pub fn server_addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(|s| s.addr).collect()
    }

    /// Stop everything and wait for every thread. Call after the clients
    /// have disconnected, or each worker waits out its 250 ms read poll.
    pub fn shutdown(self) {
        if let Some(router) = self.router {
            router.handle.shutdown();
            router.join.join().expect("router thread");
        }
        for server in self.servers {
            server.handle.shutdown();
            server.join.join().expect("server thread");
        }
    }
}
