//! The shard-scoped backend verbs (`x*`) a `gea-router` scatters to.
//!
//! These verbs are *not* part of the user-facing GQL grammar — they are
//! the distributed execution plane, intercepted before `gql::parse`:
//!
//! * `xpart <i> <k> :: <command>` — compute shard *i* of *k*'s partial
//!   result for a scatterable write (`mine`, `mine … with isa`,
//!   `populate … from`, `groups`) under a **read** lock — the scatter
//!   seam's `prepare` + `partial` — replying with a hex-armored opaque
//!   blob. Nothing is installed, so a failure here mutates no state
//!   anywhere.
//! * `xstage <hex>` / `xreset` — append bytes to (or clear) the
//!   connection's staging buffer. Request lines are capped, so large
//!   payloads arrive in chunks.
//! * `xapply <k> :: <command>` — interpret the staged bytes as the `k`
//!   length-framed per-shard partials in shard order and hand them to the
//!   seam's `install`, the very function the engine's own write path
//!   ends in — the reply text, lineage, and all derived state are
//!   byte-identical to a single-process execution.
//! * `xsnapshot <session>` / `xadopt <session> <fingerprint>` /
//!   `xgen <session>` — the rebalance plane: a session's spill-format
//!   snapshot is read out under generation observation, shipped, and
//!   adopted elsewhere under a fingerprint check, with `xgen` letting
//!   the router refuse on generation drift exactly like spill does.
//!
//! **Staging verbs may be pipelined, so staging fails closed.** A router
//! writes `xreset`, every `xstage` chunk and the commit line (`xapply` or
//! `xadopt`) back to back and reads the replies afterwards, so the commit
//! arrives before the sender knows whether every chunk was accepted. A
//! failed `xstage` therefore *poisons* the connection's [`Staging`]
//! buffer: until the next `xreset`, further `xstage`, `xapply` and
//! `xadopt` lines answer `ERR` and install nothing. The sender finds the
//! first `ERR` among the gathered replies — the chunk's own — exactly as
//! if it had stopped there.

use gea_core::persist;
use gea_core::session::ExecConfig;
use gea_exec::scatter::{self, ScatterOp};
use gea_exec::ShardPlan;

use crate::engine::{self, EngineError};
use crate::gql::{self, Request};
use crate::server::{enforce_budget, live_entry, with_live_entry, Shared};
use crate::xcodec;

fn eparse(msg: impl Into<String>) -> EngineError {
    EngineError::new("EPARSE", msg.into())
}

/// One connection's staging buffer: the bytes `xstage` has accumulated
/// for the next `xapply`/`xadopt`, or the fact that a chunk was refused.
#[derive(Default)]
pub(crate) struct Staging {
    bytes: Vec<u8>,
    poisoned: bool,
}

impl Staging {
    fn check(&self) -> Result<(), EngineError> {
        if self.poisoned {
            return Err(eparse(
                "staging buffer is poisoned by a failed xstage; xreset first",
            ));
        }
        Ok(())
    }

    /// `xstage <hex>`: append one chunk, or poison the buffer if the chunk
    /// is refused.
    fn push(&mut self, hex: &str) -> Result<String, EngineError> {
        self.check()?;
        let chunk = if hex.is_empty() {
            Err(xcodec::CodecError("usage: xstage <hex>".to_string()))
        } else {
            xcodec::hex_decode(hex)
        };
        match chunk {
            Ok(bytes) => {
                self.bytes.extend_from_slice(&bytes);
                Ok(format!("staged {} bytes", self.bytes.len()))
            }
            Err(e) => {
                self.bytes = Vec::new();
                self.poisoned = true;
                Err(eparse(e))
            }
        }
    }

    /// Hand the staged bytes to a commit verb, leaving the buffer empty.
    /// A poisoned buffer stays poisoned: only `xreset` reopens it.
    fn take(&mut self) -> Result<Vec<u8>, EngineError> {
        self.check()?;
        Ok(std::mem::take(&mut self.bytes))
    }
}

/// Intercept an `x*` request line. Returns `None` when the line is not a
/// backend verb (including `xprofiler`, which is ordinary GQL) so the
/// normal parse path handles it.
pub(crate) fn handle(
    line: &str,
    staged: &mut Staging,
    current: &str,
    shared: &Shared,
) -> Option<(&'static str, Result<String, EngineError>)> {
    let trimmed = line.trim();
    let (verb, rest) = match trimmed.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (trimmed, ""),
    };
    match verb {
        "xstage" => Some(("xstage", staged.push(rest))),
        "xreset" => {
            *staged = Staging::default();
            Some(("xreset", Ok("staging cleared".to_string())))
        }
        "xpart" => Some(("xpart", xpart(rest, current, shared))),
        "xapply" => Some(("xapply", xapply(rest, staged, current, shared))),
        "xsnapshot" => Some(("xsnapshot", xsnapshot(rest, shared))),
        "xadopt" => Some(("xadopt", xadopt(rest, staged, shared))),
        "xgen" => Some(("xgen", xgen(rest, shared))),
        _ => None,
    }
}

/// Parse the `<command>` tail of `xpart`/`xapply` into its scatter op.
fn parse_scatter_op(text: &str) -> Result<ScatterOp, EngineError> {
    let cmd = match gql::parse(text) {
        Ok(Some(Request::Gql(cmd))) => cmd,
        Ok(_) => return Err(eparse(format!("{text:?} is not an algebra command"))),
        Err(e) => return Err(eparse(e.0)),
    };
    engine::scatter_op(&cmd)?.ok_or_else(|| {
        EngineError::new(
            "EQUERY",
            format!("{} is not a scatterable command", cmd.verb()),
        )
    })
}

fn xpart(rest: &str, current: &str, shared: &Shared) -> Result<String, EngineError> {
    let (head, text) = rest
        .split_once(" :: ")
        .ok_or_else(|| eparse("usage: xpart <i> <k> :: <command>"))?;
    let mut it = head.split_whitespace();
    let (shard, shards) = match (it.next(), it.next(), it.next()) {
        (Some(i), Some(k), None) => (
            i.parse::<usize>().map_err(|_| eparse("bad shard index"))?,
            k.parse::<usize>().map_err(|_| eparse("bad shard count"))?,
        ),
        _ => return Err(eparse("usage: xpart <i> <k> :: <command>")),
    };
    if shards == 0 || shard >= shards {
        return Err(eparse(format!("shard {shard} of {shards} is out of range")));
    }
    let op = parse_scatter_op(text)?;
    let blob = with_live_entry(shared, current, |entry| {
        let session = entry.read_with_deadline(shared.config.lock_timeout)?;
        let prepared = scatter::prepare(&session, &op)?;
        // The plan clamps to the item count: past its end this backend has
        // nothing to compute and ships the op's empty partial.
        let (lo, hi) = ShardPlan::new(prepared.n_items(), shards)
            .get(shard)
            .unwrap_or((0, 0));
        Ok(xcodec::encode_partial(&prepared.partial(lo, hi)))
    })?;
    Ok(xcodec::hex_encode(&blob))
}

fn xapply(
    rest: &str,
    staged: &mut Staging,
    current: &str,
    shared: &Shared,
) -> Result<String, EngineError> {
    let (head, text) = rest
        .split_once(" :: ")
        .ok_or_else(|| eparse("usage: xapply <k> :: <command>"))?;
    let shards: usize = head.trim().parse().map_err(|_| eparse("bad shard count"))?;
    if shards == 0 {
        return Err(eparse("xapply needs at least one shard"));
    }
    let op = parse_scatter_op(text)?;
    let bytes = staged.take()?;
    let blobs = xcodec::unframe(&bytes).map_err(eparse)?;
    if blobs.len() != shards {
        return Err(eparse(format!(
            "expected {shards} staged partial(s), found {}",
            blobs.len()
        )));
    }
    let parts = blobs
        .iter()
        .map(|blob| xcodec::decode_partial(&op, blob))
        .collect::<Result<Vec<_>, _>>()
        .map_err(eparse)?;
    let mut parts = Some(parts);
    with_live_entry(shared, current, |entry| {
        let mut session = entry.write_with_deadline(shared.config.lock_timeout)?;
        // Admitted: this attempt is the one that installs.
        let parts = parts.take().unwrap_or_default();
        let result = scatter::install(&mut session, &op, parts)
            .map_err(EngineError::from)
            .and_then(|created| engine::render_scattered(&session, &op, &created));
        drop(session);
        enforce_budget(shared);
        result
    })
}

fn xsnapshot(rest: &str, shared: &Shared) -> Result<String, EngineError> {
    let name = single_token(rest, "usage: xsnapshot <session>")?;
    let (generation, bytes, fingerprint) = with_live_entry(shared, name, |entry| {
        let session = entry.read_with_deadline(shared.config.lock_timeout)?;
        // Writers are excluded while the read guard is held, so the
        // snapshot is consistent with exactly this generation — the
        // router's drift check (`xgen` after shipping) mirrors the spill
        // path's refusal.
        let generation = entry.generation();
        let (bytes, fingerprint) = persist::snapshot_to_bytes(&session)?;
        Ok((generation, bytes, fingerprint))
    })?;
    Ok(format!(
        "{generation} {fingerprint}\n{}",
        xcodec::hex_encode(&bytes)
    ))
}

fn xadopt(rest: &str, staged: &mut Staging, shared: &Shared) -> Result<String, EngineError> {
    let mut it = rest.split_whitespace();
    let (name, fingerprint) = match (it.next(), it.next(), it.next()) {
        (Some(n), Some(fp), None) => (
            n,
            fp.parse::<u64>()
                .map_err(|_| eparse("bad snapshot fingerprint"))?,
        ),
        _ => return Err(eparse("usage: xadopt <session> <fingerprint>")),
    };
    let bytes = staged.take()?;
    let mut session = persist::session_from_snapshot_bytes(&bytes, Some(fingerprint))?;
    session.set_exec_config(ExecConfig::with_threads(shared.config.threads));
    // A fresh adoption supersedes any spilled state under the name,
    // exactly like `open` does.
    if let Some(record) = shared.registry.take_spill(name) {
        persist::remove_spill(&record.path);
    }
    // No corpus fingerprint: an adopted replica carries derived state, so
    // its cached replies must stay private to the entry rather than share
    // the pristine corpus-wide namespace.
    if let Some(replaced) = shared.registry.open_with_fingerprint(name, session, None) {
        shared.cache.purge_entry(replaced.id());
    }
    enforce_budget(shared);
    Ok(format!("adopted session {name}"))
}

fn xgen(rest: &str, shared: &Shared) -> Result<String, EngineError> {
    let name = single_token(rest, "usage: xgen <session>")?;
    let entry = live_entry(shared, name)?;
    Ok(entry.generation().to_string())
}

fn single_token<'a>(rest: &'a str, usage: &str) -> Result<&'a str, EngineError> {
    let mut it = rest.split_whitespace();
    match (it.next(), it.next()) {
        (Some(tok), None) => Ok(tok),
        _ => Err(eparse(usage)),
    }
}
