//! # gea-server — serving the GEA algebra to concurrent clients
//!
//! The thesis ships GEA as a single-user Swing GUI; this crate turns the
//! same [`GeaSession`](gea_core::session::GeaSession) algebra into a shared
//! network service, the way Simcluster and THEA serve enumeration-data
//! analysis to many analysts at once. It contains five layers, each usable
//! on its own:
//!
//! * [`gql`] — the **GEA Query Language**: a line-oriented textual grammar
//!   covering the session algebra (`dataset`, `mine`, `populate`, `gap`,
//!   `topgap`, `compare`, `select`/`project`, `lineage`, `delete`,
//!   `save`/`load`, `check`, …). One parser serves every front-end: the
//!   `gea-cli` REPL, scripts, and the wire protocol. The grammar (and the
//!   static analyzer behind the `check` verb) lives in the `gea-check`
//!   crate and is re-exported here for compatibility.
//! * [`engine`] — the **executor**: runs a parsed command against a
//!   session, split into a read path (`&GeaSession`, shareable under a read
//!   lock) and a write path (`&mut GeaSession`).
//! * [`front`] — the **connection front end** `gea-server` and
//!   `gea-router` share: listener, bounded worker-thread pool, request-line
//!   reader, graceful shutdown, signal handling.
//! * [`server`] — the **runtime** behind it: a [`registry`] of named
//!   generation-stamped sessions (readers share, writers exclude and bump
//!   the generation), condvar-parked per-request lock deadlines, a
//!   [`cache`] of read replies, one slot per `(session, command)` stamped
//!   with the generation it was computed under, a session eviction policy
//!   (idle timeout + LRU byte budget, surfacing `EEVICTED`), and
//!   [`metrics`] exposed by the `stats` command.
//! * [`client`] — a blocking **client library** (used by the `gea-client`
//!   binary and the integration tests).
//!
//! ## Wire protocol
//!
//! Requests are single lines. Every reply starts with a one-line status:
//!
//! ```text
//! -> open brain demo 42
//! <- OK 1
//! <- session open: 62256 -> 19683 tags after cleaning, 21 libraries
//! -> gap g1 missing1 missing2
//! <- ERR ENOTFOUND no SUMY table named "missing1"
//! ```
//!
//! `OK <k>` is followed by exactly `k` payload lines; `ERR <CODE> <msg>` is
//! always a single line, and the connection stays usable afterwards.

pub mod cache;
pub mod client;
pub mod engine;
pub mod front;
pub use gea_check::gql;
pub use gea_check::{Effect, EffectTable, VerbEffect};
pub mod linebuf;
pub mod metrics;
pub mod optexec;
pub mod registry;
pub mod server;
pub mod wire;
pub mod xcodec;
mod xverb;

pub use cache::{Admission, ResponseCache};
pub use client::GeaClient;
pub use engine::EngineError;
pub use gql::{GqlCommand, Request, SessionCtl};
pub use registry::{Adopt, EvictReason, EvictionPolicy, SessionRegistry, SpillRecord};
pub use server::{Server, ServerConfig, ServerHandle};
