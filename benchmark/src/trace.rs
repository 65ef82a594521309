//! Spans for the traced run: kept in memory, written out at exit.
//!
//! A span is `(trace, id, parent, name, start, end)`. Spans of one request
//! share the request's trace id; a pipeline iteration is the parent of its
//! requests, and in the probe replay a request is the parent of the spans
//! of the public calls made on its behalf.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    /// The request (or iteration) this span belongs to.
    pub trace: u64,
    pub id: u64,
    /// 0 = root.
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. Ids are `(thread << 40) | counter`, so
/// buffers from different client threads merge without clashes.
pub struct Tracer {
    epoch: Instant,
    thread: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: usize) -> Tracer {
        Tracer {
            epoch,
            thread: thread as u64,
            next: 0,
            spans: Vec::new(),
        }
    }

    pub fn fresh_id(&mut self) -> u64 {
        self.next += 1;
        (self.thread << 40) | self.next
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        trace: u64,
        id: u64,
        parent: u64,
        name: &str,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            trace,
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
    }
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.trace, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
