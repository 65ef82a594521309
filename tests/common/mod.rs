//! Helpers shared by the integration tests: a `gea-server` or a
//! `gea-router` serving on a loopback port from a background thread, and
//! [`gql_gen`], well-formed GQL lines generated from the grammar table.

// Each test binary compiles its own copy and few use both daemons.
#![allow(dead_code)]

pub mod gql_gen;

use std::net::SocketAddr;
use std::sync::mpsc::{self, Receiver};
use std::time::Duration;

use gea_router::{Router, RouterConfig};
use gea_server::front::Handle;
use gea_server::{GeaClient, Server, ServerConfig};

/// A daemon serving from a background thread.
pub struct Daemon {
    pub addr: SocketAddr,
    pub handle: Handle,
    /// Receives `run()`'s result when it returns.
    done: Receiver<std::io::Result<()>>,
}

impl Daemon {
    fn serving(
        addr: SocketAddr,
        handle: Handle,
        run: impl FnOnce() -> std::io::Result<()> + Send + 'static,
    ) -> Daemon {
        let (tx, done) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(run());
        });
        Daemon { addr, handle, done }
    }

    /// Wait for `run()` to return `Ok`; a daemon still serving after
    /// `within` fails the test instead of hanging it.
    pub fn wait(&self, within: Duration) {
        self.done
            .recv_timeout(within)
            .expect("run() did not return in time")
            .expect("run() failed");
    }

    /// Request shutdown and wait for `run()` to return.
    pub fn stop(&self) {
        self.handle.shutdown();
        self.wait(Duration::from_secs(30));
    }
}

/// Serve `config` (its `addr` should name port 0) from a background thread.
pub fn spawn_server(config: ServerConfig) -> Daemon {
    let server = Server::bind(config).expect("bind server");
    Daemon::serving(server.local_addr(), server.handle(), move || server.run())
}

/// [`spawn_server`], plus a client connected to it.
pub fn serve(config: ServerConfig) -> (GeaClient, Daemon) {
    let daemon = spawn_server(config);
    (GeaClient::connect(daemon.addr).expect("connect"), daemon)
}

/// Route `config` (its `addr` should name port 0) from a background thread.
pub fn spawn_router(config: RouterConfig) -> Daemon {
    let router = Router::bind(config).expect("bind router");
    Daemon::serving(router.local_addr(), router.handle(), move || router.run())
}
