//! One workload, start to finish: oracle, timed set-ups, the window, the
//! persist phase, and the numbers that come out of them.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use gea_core::session::GeaSession;
use gea_sage::generate::{generate, GeneratorConfig};
use gea_sage::library::TissueType;
use gea_server::GeaClient;

use crate::fixture::{Fixture, TempDir};
use crate::hist::Hist;
use crate::layers::layer_metrics;
use crate::load::{drive, Outcome, Script, Wire};
use crate::names::{Scale, Shape, Workload};
use crate::oracle::{first_difference, Oracle};
use crate::plan::{prepare, Plan, Source, Transcript, SESSION};
use crate::rng::Rng;
use crate::stats::{session_bytes, Stats};
use crate::trace::{Span, Tracer};

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: u64,
    pub trace: bool,
    /// Seconds-scale shape: demo corpus everywhere, one set-up, one
    /// persist round. Gates identity only.
    pub quick: bool,
    /// `benchmark/out`.
    pub out_dir: PathBuf,
}

impl Args {
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::Demo
        } else {
            self.workload.scale
        }
    }

    /// Set-ups timed per run; `setup_s` is their median.
    pub fn setup_reps(&self) -> usize {
        if self.quick || self.trace {
            1
        } else {
            3
        }
    }

    /// `save`/`load` rounds after the window.
    pub fn persist_rounds(&self) -> usize {
        match (self.workload.persist, self.quick || self.trace) {
            (false, _) => 0,
            (true, true) => 1,
            (true, false) => 3,
        }
    }
}

/// A measured number and how many samples stand behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub n: u64,
}

impl Value {
    pub fn new(value: f64, n: u64) -> Value {
        Value { value, n }
    }
}

pub type Values = BTreeMap<String, Value>;

pub fn put(values: &mut Values, name: &str, value: f64, n: u64) {
    values.insert(name.to_string(), Value::new(value, n));
}

/// `num / den`, or 0 when nothing was counted: a layer the workload
/// bypasses reads 0.
pub fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Everything a run produced.
pub struct RunResult {
    pub end_to_end: Values,
    pub per_layer: Values,
    pub attempted: u64,
    pub failed: u64,
    /// Identity failures other than failed requests: session bytes that
    /// did not return, a trace overhead over budget.
    pub violations: Vec<String>,
    pub first_failure: Option<String>,
    /// What set-up found, for the JSON: the ladder rung that worked and
    /// the length of one iteration.
    pub k_pct: usize,
    pub iteration_ops: usize,
    /// The pooled read median in microseconds, for the probes' residual.
    pub read_p50_us: Value,
    pub spans: Vec<Span>,
}

/// A deployment brought to the start of the window.
struct Live {
    fixture: Fixture,
    clients: Vec<GeaClient>,
    plan: Plan,
    transcript: Transcript,
    /// The corpus directory the session was opened from.
    _corpus: Option<TempDir>,
}

impl Live {
    fn shutdown(self) {
        drop(self.clients);
        self.fixture.shutdown();
    }
}

/// Libraries in the thesis-scale mined data set `D`.
const DEEP_BRAIN: usize = 12;

/// Generate what `open` needs. At thesis scale that is the corpus itself,
/// written once with `write_corpus_dir`.
fn make_source(args: &Args) -> Result<(Source, Option<TempDir>), String> {
    match args.scale() {
        Scale::Demo => Ok((Source::Demo(args.seed), None)),
        Scale::Thesis => {
            let (corpus, _) = generate(&GeneratorConfig::thesis_scale(args.seed));
            // The deepest brain libraries, in corpus order. A fixed count
            // rather than a depth cut-off: `mine` is quadratic in the
            // library count, and the workload's size must not depend on
            // the seed.
            let mut brain: Vec<_> = corpus
                .iter()
                .filter(|(_, l)| l.meta.tissue == TissueType::Brain)
                .map(|(id, l)| (std::cmp::Reverse(l.total_tags()), id))
                .collect();
            brain.sort();
            brain.truncate(DEEP_BRAIN);
            brain.sort_by_key(|&(_, id)| id);
            let deep_brain = brain
                .into_iter()
                .map(|(_, id)| corpus.library(id).meta.name.clone())
                .collect();
            let dir = TempDir::new(&args.out_dir, "corpus").map_err(|e| e.to_string())?;
            gea_sage::io::write_corpus_dir(&corpus, dir.path()).map_err(|e| e.to_string())?;
            let source = Source::Dir {
                dir: dir.path().display().to_string(),
                deep_brain,
            };
            Ok((source, Some(dir)))
        }
    }
}

fn connect(addr: std::net::SocketAddr) -> Result<GeaClient, String> {
    GeaClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// Corpus generation, server start, `open`, preparation and warm-up:
/// everything `setup_s` covers.
fn set_up(args: &Args, backends: usize) -> Result<Live, String> {
    let (source, corpus) = make_source(args)?;
    let fixture = Fixture::start(backends);
    let mut first = Wire(connect(fixture.addr())?);
    let (plan, transcript) = prepare(&mut first, args.workload, args.scale(), args.seed, &source)?;
    let mut clients = vec![first.0];
    for _ in 1..args.workload.clients {
        let mut client = connect(fixture.addr())?;
        client
            .expect_ok(&format!("use {SESSION}"))
            .map_err(|e| e.to_string())?;
        clients.push(client);
    }
    Ok(Live {
        fixture,
        clients,
        plan,
        transcript,
        _corpus: corpus,
    })
}

/// `stats` from every server, each parsed on its own.
fn scrape(control: &mut [GeaClient]) -> Result<Vec<Stats>, String> {
    control
        .iter_mut()
        .map(|c| {
            let reply = c.expect_ok("stats").map_err(|e| e.to_string())?;
            Stats::parse(&reply)
        })
        .collect()
}

fn scraped_session_bytes(control: &mut GeaClient) -> Result<u64, String> {
    let reply = control.expect_ok("sessions").map_err(|e| e.to_string())?;
    session_bytes(&reply, SESSION).ok_or_else(|| format!("no session {SESSION:?} in {reply:?}"))
}

/// Median of up to 200 `ping`s, stopping early after a second: the wire
/// floor under every request.
fn ping_floor(client: &mut GeaClient) -> Result<Hist, String> {
    let mut hist = Hist::new();
    let began = Instant::now();
    while hist.count() < 200 && (hist.count() < 20 || began.elapsed() < Duration::from_secs(1)) {
        let start = Instant::now();
        client.expect_ok("ping").map_err(|e| e.to_string())?;
        hist.record(start.elapsed().as_nanos() as u64);
    }
    Ok(hist)
}

/// One timed window over every client, each with its tracer if the
/// window is traced. Returns the per-client outcomes.
fn window(
    live: &mut Live,
    args: &Args,
    first_iteration: usize,
    tracers: &mut [Option<Tracer>],
) -> Vec<Outcome> {
    let w = args.workload;
    let window = Duration::from_secs(args.seconds);
    let plan = &live.plan;
    let barrier = &Barrier::new(live.clients.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = live
            .clients
            .iter_mut()
            .zip(tracers)
            .enumerate()
            .map(|(c, (client, tracer))| {
                let script = match (w.shape, c) {
                    (Shape::ZipfReads, _) => Script::Zipf {
                        reads: &plan.reads,
                        rng: Rng::for_client(args.seed, c),
                    },
                    (Shape::Pipeline, _) => Script::Iterations {
                        stream: &plan.iteration,
                        span: "client.iteration",
                    },
                    (Shape::WriterAndReader, 0) => Script::Iterations {
                        stream: &plan.writer,
                        span: "client.cycle",
                    },
                    (Shape::WriterAndReader, _) => Script::RoundRobin { reads: &plan.reads },
                };
                s.spawn(move || {
                    drive(
                        client,
                        script,
                        window,
                        first_iteration,
                        barrier,
                        tracer.as_mut(),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// `OK` replies per second, summed over clients (each over its own
/// elapsed time: a pipeline client runs its last iteration to the end).
fn ops_per_s(outcomes: &[Outcome]) -> f64 {
    outcomes
        .iter()
        .map(|o| o.ok() as f64 / o.elapsed.as_secs_f64())
        .sum()
}

fn merged(outcomes: &[Outcome]) -> Outcome {
    let mut all = Outcome::default();
    for o in outcomes {
        all.merge(o);
    }
    all
}

/// `save` + `load` rounds, outside the window.
fn persist_phase(live: &mut Live, args: &Args, all: &mut Outcome) -> Result<(), String> {
    let rounds = args.persist_rounds();
    if rounds == 0 {
        return Ok(());
    }
    let dir = TempDir::new(&args.out_dir, "save").map_err(|e| e.to_string())?;
    let client = &mut live.clients[0];
    for _ in 0..rounds {
        for verb in ["save", "load"] {
            let line = format!("{verb} {}", dir.path().display());
            let start = Instant::now();
            let reply = client.request(&line);
            let ns = start.elapsed().as_nanos() as u64;
            all.verbs.entry(verb).or_default().record(ns);
            all.attempted += 1;
            if !matches!(reply, Ok(Ok(_))) {
                all.failed += 1;
                all.first_failure
                    .get_or_insert_with(|| format!("{line:?}: {reply:?}"));
            }
        }
    }
    Ok(())
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// The oracle's run of the set-up: the transcript every deployment must
/// reproduce, and — for the traced run — the session the probes use.
pub struct Reference {
    pub transcript: Transcript,
    pub plan: Plan,
    pub session: Option<GeaSession>,
    pub source: Source,
    /// Keeps the corpus directory alive for the probes.
    pub _corpus: Option<TempDir>,
}

fn reference(args: &Args) -> Result<Reference, String> {
    let (source, corpus) = make_source(args)?;
    let mut oracle = Oracle::serial();
    let (plan, transcript) = prepare(&mut oracle, args.workload, args.scale(), args.seed, &source)?;
    Ok(Reference {
        transcript,
        plan,
        session: args.trace.then(|| oracle.into_session()),
        source,
        _corpus: if args.trace { corpus } else { None },
    })
}

pub fn run(args: &Args, epoch: Instant) -> Result<(RunResult, Reference), String> {
    let w = args.workload;
    let oracle = reference(args)?;
    let check = |live: &Live, what: &str| -> Result<(), String> {
        first_difference(what, &live.transcript, &oracle.transcript).map_or(Ok(()), Err)
    };
    if w.backends > 0 {
        // A routed reply must equal a single server's, not only the
        // oracle's.
        let direct = set_up(args, 0)?;
        let verdict = check(&direct, "direct-server");
        direct.shutdown();
        verdict?;
    }

    let mut setups = Vec::new();
    let mut live: Option<Live> = None;
    for _ in 0..args.setup_reps() {
        if let Some(previous) = live.take() {
            previous.shutdown();
        }
        let began = Instant::now();
        let fresh = set_up(args, w.backends)?;
        setups.push(began.elapsed().as_secs_f64());
        check(&fresh, "wire")?;
        live = Some(fresh);
    }
    let mut live = live.expect("at least one set-up");

    let mut control: Vec<GeaClient> = live
        .fixture
        .server_addrs()
        .into_iter()
        .map(connect)
        .collect::<Result<_, _>>()?;
    let ping = ping_floor(&mut live.clients[0])?;

    // Traced run: an untraced window first, as the reference the traced
    // window's throughput is compared with.
    let mut violations = Vec::new();
    let mut tracers: Vec<Option<Tracer>> = (0..w.clients).map(|_| None).collect();
    let mut next_iteration = 1;
    let mut reference_ops = 0.0;
    if args.trace {
        let outcomes = window(&mut live, args, next_iteration, &mut tracers);
        next_iteration += outcomes[0].iterations.count() as usize;
        reference_ops = ops_per_s(&outcomes);
        tracers = (0..w.clients)
            .map(|c| Some(Tracer::new(epoch, c + 1)))
            .collect();
    }

    let bytes_start = scraped_session_bytes(&mut control[0])?;
    let before = scrape(&mut control)?;
    let outcomes = window(&mut live, args, next_iteration, &mut tracers);
    let throughput = ops_per_s(&outcomes);
    let mut all = merged(&outcomes);
    let bytes_end = scraped_session_bytes(&mut control[0])?;
    persist_phase(&mut live, args, &mut all)?;
    let after = scrape(&mut control)?;
    let rss = peak_rss_mb();
    drop(control);
    live.shutdown();

    if bytes_end.abs_diff(bytes_start) as f64 > bytes_start as f64 * 0.01 {
        violations.push(format!(
            "session bytes did not return: {bytes_start} before the window, {bytes_end} after"
        ));
    }

    let mut e2e = Values::new();
    let ms = |h: &Hist, q: f64| h.quantile_ns(q) / 1e6;
    let verb = |name: &str| all.verbs.get(name).cloned().unwrap_or_default();
    put(
        &mut e2e,
        "setup_s",
        median(setups.clone()),
        setups.len() as u64,
    );
    put(&mut e2e, "ops_per_s", throughput, all.ok());
    put(
        &mut e2e,
        "pipeline_s",
        all.iterations.quantile_ns(0.5) / 1e9,
        all.iterations.count(),
    );
    put(
        &mut e2e,
        "read_p50_ms",
        ms(&all.reads, 0.50),
        all.reads.count(),
    );
    put(
        &mut e2e,
        "read_p95_ms",
        ms(&all.reads, 0.95),
        all.reads.count(),
    );
    for name in ["gap", "mine", "groups", "populate", "save", "load"] {
        let h = verb(name);
        put(&mut e2e, &format!("{name}_p50_ms"), ms(&h, 0.50), h.count());
    }
    put(
        &mut e2e,
        "err_rate",
        all.failed as f64 / all.attempted.max(1) as f64,
        all.attempted,
    );
    put(&mut e2e, "peak_rss_mb", rss, 1);
    e2e.retain(|name, _| {
        crate::names::END_TO_END
            .iter()
            .any(|m| m.name == name && m.reported_on(w.name))
    });

    let mut per_layer = layer_metrics(
        &all,
        &ping,
        &before,
        &after,
        (bytes_start, bytes_end),
        w.backends > 0,
    );
    if args.trace {
        let overhead = (reference_ops - throughput) / reference_ops * 100.0;
        put(&mut per_layer, "trace.overhead_pct", overhead, all.ok());
        if overhead >= 5.0 {
            violations.push(format!(
                "tracing cost {overhead:.2} % of throughput ({reference_ops:.2} → {throughput:.2} ops/s)"
            ));
        }
    }
    let spans = tracers
        .into_iter()
        .flatten()
        .flat_map(|t| t.spans)
        .collect();

    Ok((
        RunResult {
            end_to_end: e2e,
            per_layer,
            attempted: all.attempted,
            failed: all.failed,
            violations,
            first_failure: all.first_failure,
            k_pct: oracle.plan.k_pct,
            iteration_ops: oracle.plan.iteration.ops.len(),
            read_p50_us: Value {
                value: all.reads.quantile_ns(0.5) / 1e3,
                n: all.reads.count(),
            },
            spans,
        },
        oracle,
    ))
}
