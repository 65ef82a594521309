//! The closed loop: each client sends its next request only after the
//! previous reply is decoded, with no think time, for a fixed window.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use gea_server::wire::Reply;
use gea_server::GeaClient;

use crate::hist::Hist;
use crate::plan::{iter_tag, Op, Source, Stream, Target, SESSION};
use crate::rng::{Rng, Zipf};
use crate::trace::Tracer;

/// A wire connection as a set-up [`Target`].
pub struct Wire(pub GeaClient);

impl Target for Wire {
    fn open(&mut self, source: &Source) -> Result<(), String> {
        let line = match source {
            Source::Demo(seed) => format!("open {SESSION} demo {seed}"),
            Source::Dir { dir, .. } => format!("open {SESSION} dir {dir}"),
        };
        self.0
            .expect_ok(&line)
            .map(|_| ())
            .map_err(|e| format!("{line:?} failed: {e}"))
    }

    fn request(&mut self, line: &str) -> Reply {
        self.0
            .request(line)
            .unwrap_or_else(|e| Err(("ETRANSPORT".to_string(), e.to_string())))
    }
}

/// What one client does in the window.
pub enum Script<'a> {
    /// Draw keys Zipf(1.0) from `reads`.
    Zipf { reads: &'a Stream, rng: Rng },
    /// Walk `reads` round-robin.
    RoundRobin { reads: &'a Stream },
    /// Run `stream` start to end under a fresh index each time; the
    /// window ends on a whole iteration. `span` names the iteration.
    Iterations {
        stream: &'a Stream,
        span: &'static str,
    },
}

/// What one client saw.
#[derive(Default)]
pub struct Outcome {
    /// Client-observed latency per verb (request line written → reply
    /// frame decoded).
    pub verbs: BTreeMap<&'static str, Hist>,
    /// The same for every cacheable read, pooled.
    pub reads: Hist,
    /// Wall time of whole iterations.
    pub iterations: Hist,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// This client's own window; not merged.
    pub elapsed: Duration,
}

impl Outcome {
    pub fn merge(&mut self, other: &Outcome) {
        for (verb, h) in &other.verbs {
            self.verbs.entry(verb).or_default().merge(h);
        }
        self.reads.merge(&other.reads);
        self.iterations.merge(&other.iterations);
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&other.first_failure);
        }
    }

    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }
}

struct Driver<'a> {
    client: &'a mut GeaClient,
    out: Outcome,
    tracer: Option<&'a mut Tracer>,
}

impl Driver<'_> {
    /// One timed request, checked against `expected`. `parent` is the
    /// enclosing iteration span, 0 for none.
    fn request(&mut self, op: &Op, line: &str, expected: &str, parent: u64) {
        let start = Instant::now();
        let reply = self.client.request(line);
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;
        self.out.verbs.entry(op.verb).or_default().record(ns);
        if op.cacheable {
            self.out.reads.record(ns);
        }
        self.out.attempted += 1;
        let failure = match &reply {
            Ok(Ok(payload)) if payload == expected => None,
            Ok(Ok(payload)) => Some(format!("reply differs from the oracle's:\n{payload}")),
            Ok(Err((code, msg))) => Some(format!("ERR {code} {msg}")),
            Err(e) => Some(format!("transport: {e}")),
        };
        if let Some(why) = failure {
            self.out.failed += 1;
            self.out
                .first_failure
                .get_or_insert_with(|| format!("{line:?}: {why}"));
        }
        if let Some(tracer) = self.tracer.as_deref_mut() {
            let id = tracer.fresh_id();
            let trace = if parent == 0 { id } else { parent };
            tracer.record(
                trace,
                id,
                parent,
                &format!("client.{}", op.verb),
                start,
                end,
            );
        }
    }
}

/// Run one client for `window`. `first_iteration` continues where an
/// earlier window on the same session stopped.
pub fn drive(
    client: &mut GeaClient,
    script: Script<'_>,
    window: Duration,
    first_iteration: usize,
    start: &Barrier,
    tracer: Option<&mut Tracer>,
) -> Outcome {
    let mut d = Driver {
        client,
        out: Outcome::default(),
        tracer,
    };
    start.wait();
    let began = Instant::now();
    match script {
        Script::Zipf { reads, mut rng } => {
            let zipf = Zipf::new(reads.ops.len());
            while began.elapsed() < window {
                let k = zipf.sample(&mut rng);
                d.request(&reads.ops[k], &reads.ops[k].line, &reads.expected[k], 0);
            }
        }
        Script::RoundRobin { reads } => {
            let mut k = 0;
            while began.elapsed() < window {
                d.request(&reads.ops[k], &reads.ops[k].line, &reads.expected[k], 0);
                k = (k + 1) % reads.ops.len();
            }
        }
        Script::Iterations { stream, span } => {
            let mut i = first_iteration;
            while began.elapsed() < window {
                // Lines and expectations are built before the iteration's
                // clock starts, so `pipeline_s` holds requests only.
                let tag = iter_tag(i);
                let lines: Vec<(String, String)> = (0..stream.ops.len())
                    .map(|k| (stream.ops[k].at(&tag), stream.expected_at(k, &tag)))
                    .collect();
                let parent = d.tracer.as_deref_mut().map_or(0, Tracer::fresh_id);
                let iter_start = Instant::now();
                for (op, (line, expected)) in stream.ops.iter().zip(&lines) {
                    d.request(op, line, expected, parent);
                }
                let iter_end = Instant::now();
                d.out
                    .iterations
                    .record(iter_end.duration_since(iter_start).as_nanos() as u64);
                if let Some(tracer) = d.tracer.as_deref_mut() {
                    tracer.record(parent, parent, 0, span, iter_start, iter_end);
                }
                i += 1;
            }
        }
    }
    d.out.elapsed = began.elapsed();
    d.out
}
