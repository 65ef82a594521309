//! The traced run's second half: the **P** per-layer metrics.
//!
//! The benchmark measures layers from outside. After the traced window,
//! the oracle's session — same corpus, same set-up — is put behind the
//! same public types the server uses (`SessionRegistry`, `ResponseCache`)
//! and the workload's own command stream is walked through the public
//! calls in server order, one span per call. Then the kernels, codecs and
//! persistence functions are timed on the tables that session holds.

use std::hint::black_box;
use std::io::{BufReader, Write};
use std::time::{Duration, Instant};

use gea_check::{check_pipeline, cost_pipeline, CostModel, CostSeed, SymbolSeed};
use gea_cluster::{mine_greedy, FascicleParams};
use gea_core::mine::{generate_metadata, materialize_cluster, mine_groups, MatrixView, Miner};
use gea_core::populate::{populate_columnar, populate_indexed, populate_scan, PopulateIndex};
use gea_core::session::{ExecConfig, GeaSession};
use gea_core::sumy::aggregate_tags;
use gea_core::{persist, top_gaps, ApproxMem, TopGapOrder};
use gea_exec::{aggregate_tags_sharded, mine_sharded, populate_columnar_sharded};
use gea_mine::{resolve_params, MineInput};
use gea_sage::clean::{clean, CleaningConfig};
use gea_sage::generate::{generate, GeneratorConfig};
use gea_sage::library::LibraryProperty;
use gea_sage::SageCorpus;
use gea_server::cache::CacheScope;
use gea_server::gql::GqlCommand;
use gea_server::{engine, optexec, wire, xcodec, ResponseCache, ServerConfig, SessionRegistry};

use crate::fixture::{TempDir, SERVER_THREADS};
use crate::names::Scale;
use crate::plan::{parse_gql, Op, Plan, Source};
use crate::run::{per, Args, Reference, Value, Values};
use crate::trace::{Span, Tracer};

/// Mean microseconds per call of `call`, timing only `call` (not `prep`,
/// not dropping the result). Runs until 30 calls and 0.2 s of measured
/// time, or — for calls that take seconds — three calls and 2 s of wall.
fn timed<I, R>(mut prep: impl FnMut() -> I, mut call: impl FnMut(I) -> R) -> Value {
    let began = Instant::now();
    let mut busy = Duration::ZERO;
    let mut n = 0u64;
    loop {
        let input = prep();
        let start = Instant::now();
        let result = black_box(call(black_box(input)));
        busy += start.elapsed();
        drop(result);
        n += 1;
        let enough = n >= 30 && busy >= Duration::from_millis(200);
        if enough || (n >= 3 && began.elapsed() >= Duration::from_secs(2)) {
            return Value::new(busy.as_secs_f64() * 1e6 / n as f64, n);
        }
    }
}

fn mean_us<R>(mut call: impl FnMut() -> R) -> Value {
    timed(|| (), |()| call())
}

/// A [`Value`] whose call handled `items` things at once.
fn per_item(v: Value, items: usize) -> Value {
    Value::new(v.value / items.max(1) as f64, v.n * items as u64)
}

/// Counts `write()` calls and bytes the way a socket would see them.
#[derive(Default)]
struct CountingSink {
    calls: u64,
    buf: Vec<u8>,
}

impl Write for CountingSink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.calls += 1;
        self.buf.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The session behind the server's own public types.
struct Served {
    registry: SessionRegistry,
    cache: ResponseCache,
    fingerprint: Option<u64>,
}

const PROBE: &str = "probe";
const LOCK: Duration = Duration::from_secs(120);

impl Served {
    fn entry(&self) -> gea_server::registry::SharedSession {
        self.registry.get(PROBE).expect("probe session registered")
    }

    /// The cache namespace the server would use (`server::cache_scope`).
    fn scope(&self, generation: u64) -> CacheScope {
        match self.fingerprint {
            Some(fp) if generation == 0 => CacheScope::Corpus(fp),
            _ => CacheScope::Entry(self.entry().id()),
        }
    }

    /// One request through the public calls in server order, a span per
    /// call under one request span. Returns the reply and the request
    /// span's duration in microseconds.
    fn replay(&self, line: &str, label: &str, tracer: &mut Tracer) -> (String, f64) {
        let request = tracer.fresh_id();
        let began = Instant::now();
        let mut last = began;
        let mut step = |tracer: &mut Tracer, name: &str| {
            let now = Instant::now();
            let id = tracer.fresh_id();
            tracer.record(request, id, request, name, last, now);
            last = now;
        };
        let cmd = parse_gql(line);
        step(tracer, "check.gql.parse");
        let entry = self.entry();
        let reply = if cmd.is_read() {
            let key = gea_opt::cache_key(&cmd);
            step(tracer, "opt.cache_key");
            let generation = entry.generation();
            let cached = self.cache.get(self.scope(generation), generation, &key);
            step(tracer, "server.cache.get");
            cached.unwrap_or_else(|| {
                let session = entry.read_with_deadline(LOCK).expect("probe read lock");
                step(tracer, "server.registry.read_lock");
                let reply = engine::execute_read(&session, &cmd).expect("replayed read");
                step(tracer, "server.engine.read");
                drop(session);
                step(tracer, "server.registry.read_unlock");
                self.cache
                    .insert(self.scope(generation), generation, key, reply.clone());
                step(tracer, "server.cache.insert");
                reply
            })
        } else {
            let rewritten = gea_opt::rewrite_command(0, &cmd);
            step(tracer, "opt.rewrite");
            let mut session = entry.write_with_deadline(LOCK).expect("probe write lock");
            step(tracer, "server.registry.write_lock");
            let reply = match &rewritten {
                Some((plan_step, _)) => optexec::run_rewritten(&mut session, plan_step),
                None => engine::execute_write(&mut session, &cmd),
            }
            .expect("replayed write");
            session.drain_exec_events();
            step(tracer, "server.engine.write");
            // Releasing the write guard refreshes the size estimate.
            drop(session);
            step(tracer, "server.registry.write_unlock");
            reply
        };
        let mut sink = CountingSink::default();
        wire::write_ok(&mut sink, &reply).expect("write to memory");
        step(tracer, "server.wire.write_ok");
        let decoded = wire::read_reply(&mut BufReader::new(&sink.buf[..])).expect("own frame");
        step(tracer, "server.wire.read_reply");
        let payload = decoded.expect("a frame").expect("an OK frame");
        tracer.record(request, request, 0, &format!("replay.{label}"), began, last);
        (payload, last.duration_since(began).as_secs_f64() * 1e6)
    }
}

fn mean(xs: &[f64]) -> Value {
    let n = xs.len() as u64;
    Value::new(per(xs.iter().sum(), n), n)
}

/// The index the replayed iteration runs under.
const REPLAYED: &str = "99999";

/// Time every **P** metric. `measured` holds the window's **C**/**S**
/// metrics and `read_p50_us` the client's pooled read median, for the
/// unattributed residuals.
pub fn run(
    args: &Args,
    reference: Reference,
    measured: &Values,
    read_p50_us: Value,
    epoch: Instant,
) -> Result<(Values, Vec<Span>), String> {
    let mut v = Values::new();
    let plan = &reference.plan;
    let mut tracer = Tracer::new(epoch, 0);
    let mut session = reference
        .session
        .expect("traced runs keep the oracle session");
    session.set_exec_config(ExecConfig::with_threads(SERVER_THREADS));
    let corpus = session.corpus().clone();
    let served = Served {
        fingerprint: persist::corpus_fingerprint(&session).ok(),
        registry: SessionRegistry::new(),
        cache: ResponseCache::new(ServerConfig::default().cache_bytes),
    };
    served
        .registry
        .open_with_fingerprint(PROBE, session, served.fingerprint);

    let replies = replay_stream(&served, plan, measured, read_p50_us, &mut tracer, &mut v);
    call_probes(&served, plan, &replies, &mut v);
    kernel_probes(args, &served, plan, &reference.source, &corpus, &mut v)?;
    Ok((v, tracer.spans))
}

/// The command stream in server order, a span per call. Returns the
/// replies: the iteration's, then a miss and a hit for every read key.
fn replay_stream(
    served: &Served,
    plan: &Plan,
    measured: &Values,
    read_p50_us: Value,
    tracer: &mut Tracer,
    v: &mut Values,
) -> Vec<String> {
    let mut replies: Vec<String> = Vec::new();
    let mut spans_of = std::collections::BTreeMap::<&str, Vec<f64>>::new();
    for op in &plan.iteration.ops {
        let (reply, us) = served.replay(&op.at(REPLAYED), op.verb, tracer);
        spans_of.entry(op.verb).or_default().push(us);
        if op.cacheable {
            spans_of.entry("read.miss").or_default().push(us);
        }
        replies.push(reply);
    }
    for op in &plan.reads.ops {
        // First a miss (execute + insert), then the hit a warm cache serves.
        for path in ["read.miss", "read.hit"] {
            let (reply, us) = served.replay(&op.line, &format!("{}.{path}", op.verb), tracer);
            spans_of.entry(path).or_default().push(us);
            replies.push(reply);
        }
    }
    let attributed = |key: &str| mean(spans_of.get(key).map_or(&[], Vec::as_slice)).value;
    let seen = |name: &str| measured.get(name).copied().unwrap_or(Value::new(0.0, 0));
    let hits = seen("server.cache.hit_ratio").value >= 0.5;
    let read_path = if hits && spans_of.contains_key("read.hit") {
        "read.hit"
    } else {
        "read.miss"
    };
    // Client medians minus everything the replay attributes to a call.
    for (metric, seen, replayed) in [
        ("unattributed.read_us", read_p50_us, read_path),
        ("unattributed.mine_us", seen("client.mine.p50_us"), "mine"),
        (
            "unattributed.groups_us",
            seen("client.groups.p50_us"),
            "groups",
        ),
    ] {
        let left = if seen.n == 0 {
            0.0
        } else {
            seen.value - attributed(replayed)
        };
        v.insert(metric.to_string(), Value::new(left, seen.n));
    }
    replies
}

/// The per-call probes: parse, key, rewrite, guards, framing and cache,
/// on the workload's own lines and the replies the replay produced.
fn call_probes(served: &Served, plan: &Plan, replies: &[String], v: &mut Values) {
    let mut put = |name: &str, value: Value| {
        v.insert(name.to_string(), value);
    };
    let stream: Vec<String> = plan
        .iteration
        .ops
        .iter()
        .map(|op| op.at("99997"))
        .chain(plan.reads.ops.iter().map(|op| op.line.clone()))
        .collect();
    let cmds: Vec<GqlCommand> = stream.iter().map(|l| parse_gql(l)).collect();
    let (read_cmds, write_cmds): (Vec<&GqlCommand>, Vec<&GqlCommand>) =
        cmds.iter().partition(|c| c.is_read());

    put(
        "check.gql.parse_us",
        per_item(
            mean_us(|| {
                for line in &stream {
                    black_box(gea_server::gql::parse(line).expect("bench line parses"));
                }
            }),
            stream.len(),
        ),
    );
    put(
        "opt.cache_key_us",
        per_item(
            mean_us(|| {
                for cmd in &read_cmds {
                    black_box(gea_opt::cache_key(cmd));
                }
            }),
            read_cmds.len(),
        ),
    );
    put(
        "opt.rewrite_us",
        per_item(
            mean_us(|| {
                for cmd in &write_cmds {
                    black_box(gea_opt::rewrite_command(0, cmd));
                }
            }),
            write_cmds.len(),
        ),
    );

    // ---- registry guards, uncontended ----
    let entry = served.entry();
    put(
        "server.registry.read_lock_us",
        mean_us(|| drop(entry.read_with_deadline(LOCK).expect("read lock"))),
    );
    put(
        "server.registry.write_lock_us",
        mean_us(|| drop(entry.write_with_deadline(LOCK).expect("write lock"))),
    );

    // ---- wire framing, on the replies the replay produced ----
    let mut frames = CountingSink::default();
    for reply in replies {
        wire::write_ok(&mut frames, reply).expect("write to memory");
    }
    put(
        "server.wire.write_calls",
        Value::new(
            frames.calls as f64 / replies.len() as f64,
            replies.len() as u64,
        ),
    );
    put(
        "server.wire.reply_bytes",
        Value::new(
            frames.buf.len() as f64 / replies.len() as f64,
            replies.len() as u64,
        ),
    );
    put(
        "server.wire.write_ok_us",
        per_item(
            timed(
                || CountingSink {
                    calls: 0,
                    buf: Vec::with_capacity(frames.buf.len()),
                },
                |mut sink| {
                    for reply in replies {
                        wire::write_ok(&mut sink, reply).expect("write to memory");
                    }
                    sink
                },
            ),
            replies.len(),
        ),
    );
    put(
        "server.wire.read_reply_us",
        per_item(
            mean_us(|| {
                let mut reader = BufReader::new(&frames.buf[..]);
                while let Some(reply) = wire::read_reply(&mut reader).expect("own frames") {
                    let _ = black_box(reply);
                }
            }),
            replies.len(),
        ),
    );

    // ---- response cache, on the workload's read keys and replies ----
    let keyed: Vec<(String, String)> = plan
        .iteration
        .ops
        .iter()
        .zip(replies)
        .filter(|(op, _)| op.cacheable)
        .map(|(op, reply)| (op.at(REPLAYED), reply.clone()))
        .chain(plan.reads.ops.iter().enumerate().map(|(k, op)| {
            (
                op.line.clone(),
                replies[plan.iteration.ops.len() + 2 * k].clone(),
            )
        }))
        .map(|(line, reply)| (gea_opt::cache_key(&parse_gql(&line)), reply))
        .collect();
    let cache = ResponseCache::new(ServerConfig::default().cache_bytes);
    let scope = CacheScope::Entry(1);
    for (key, reply) in &keyed {
        cache.insert(scope, 0, key.clone(), reply.clone());
    }
    put(
        "server.cache.get_hit_us",
        per_item(
            mean_us(|| {
                for (key, _) in &keyed {
                    black_box(cache.get(scope, 0, key).expect("warm key"));
                }
            }),
            keyed.len(),
        ),
    );
    put(
        "server.cache.get_miss_us",
        per_item(
            mean_us(|| {
                for (key, _) in &keyed {
                    black_box(cache.get(scope, u64::MAX, key));
                }
            }),
            keyed.len(),
        ),
    );
    // Every round inserts under a new generation, like reads behind a
    // writer: dead slots pile up until the byte budget evicts them.
    let mut generation = 0;
    put(
        "server.cache.insert_us",
        per_item(
            timed(
                || {
                    generation += 1;
                    (generation, keyed.clone())
                },
                |(generation, fresh)| {
                    for (key, reply) in fresh {
                        black_box(cache.insert(scope, generation, key, reply));
                    }
                },
            ),
            keyed.len(),
        ),
    );
}

/// The kernels, codecs and persistence, on the session's own tables.
fn kernel_probes(
    args: &Args,
    served: &Served,
    plan: &Plan,
    source: &Source,
    corpus: &SageCorpus,
    v: &mut Values,
) -> Result<(), String> {
    let mut put = |name: &str, value: Value| {
        v.insert(name.to_string(), value);
    };
    // A second pipeline under its own names, left in place: the tables
    // the probes below read. `groups`' inputs exist only before it runs.
    let entry = served.entry();
    let mut guard = entry.write_with_deadline(LOCK).expect("probe write lock");
    let session: &mut GeaSession = &mut guard;
    let kept = "99998";
    let head: Vec<&Op> = plan
        .iteration
        .ops
        .iter()
        .filter(|op| op.verb != "delete")
        .collect();
    let fascicle = head
        .iter()
        .find(|op| op.verb == "groups")
        .and_then(|op| op.at(kept).split_whitespace().nth(1).map(str::to_string))
        .ok_or("the iteration has no `groups`")?;
    let mut group_inputs = None;
    for op in &head {
        if op.verb == "groups" {
            group_inputs = Some(
                session
                    .control_group_inputs(&fascicle, LibraryProperty::Cancer)
                    .map_err(|e| e.to_string())?,
            );
        }
        engine::execute(session, &parse_gql(&op.at(kept))).map_err(|e| e.message)?;
    }
    session.drain_exec_events();
    let inputs = group_inputs.expect("captured before `groups`");
    let iteration_cmds: Vec<GqlCommand> = plan
        .iteration
        .ops
        .iter()
        .map(|op| parse_gql(&op.at("99997")))
        .collect();
    let cfg = ExecConfig::with_threads(SERVER_THREADS);
    // Sharded, but on one thread: what sharding itself costs.
    let one_thread = ExecConfig {
        threads: 1,
        shards: SERVER_THREADS,
    };

    let cost_model = CostModel::default_coefficients();
    put(
        "check.cost.pipeline_us",
        mean_us(|| {
            cost_pipeline(
                &cost_model,
                &CostSeed::from_session(session),
                &iteration_cmds,
            )
        }),
    );
    put(
        "check.analyze.pipeline_us",
        mean_us(|| check_pipeline(&SymbolSeed::from_session(session), &iteration_cmds)),
    );

    // Reads the window sends, valid against the tables kept in place.
    let live_reads: Vec<GqlCommand> = head
        .iter()
        .filter(|op| op.cacheable)
        .map(|op| parse_gql(&op.at(kept)))
        .chain(plan.reads.ops.iter().map(|op| parse_gql(&op.line)))
        .collect();
    put(
        "server.engine.read_us",
        per_item(
            mean_us(|| {
                for cmd in &live_reads {
                    black_box(engine::execute_read(session, cmd).expect("probe read"));
                }
            }),
            live_reads.len(),
        ),
    );

    // Whole iterations through the engine, timed per verb.
    let mut engine_us = std::collections::BTreeMap::<&str, Vec<f64>>::new();
    let began = Instant::now();
    let mut i = 0;
    while i < 3 || (i < 30 && began.elapsed() < Duration::from_secs(2)) {
        let tag = format!("9{i:04}");
        for op in &plan.iteration.ops {
            let cmd = parse_gql(&op.at(&tag));
            let start = Instant::now();
            black_box(engine::execute(session, &cmd).map_err(|e| e.message)?);
            engine_us
                .entry(op.verb)
                .or_default()
                .push(start.elapsed().as_secs_f64() * 1e6);
        }
        session.drain_exec_events();
        i += 1;
    }
    let engine_mean = |verb: &str| mean(engine_us.get(verb).map_or(&[], Vec::as_slice));

    let table = session
        .enum_table(&plan.dataset)
        .map_err(|e| e.to_string())?
        .clone();
    let table_e = session.enum_table("E").map_err(|e| e.to_string())?.clone();
    let params = FascicleParams {
        min_compact_attrs: table.n_tags() * plan.k_pct / 100,
        min_records: 3,
        batch_size: 6,
    };
    let miner = Miner::Fascicles(params.clone());
    let tol = generate_metadata(&table, 0.10);
    let mine_sharded_us = mean_us(|| mine_sharded(&table, PROBE, &miner, Some(&tol), &cfg));
    put("exec.mine_sharded_us", mine_sharded_us);
    put(
        "core.mine.groups_us",
        mean_us(|| mine_groups(&table, &miner, Some(&tol))),
    );
    let groups = mine_groups(&table, &miner, Some(&tol));
    put(
        "core.mine.materialize_us",
        timed(
            || groups.clone(),
            |groups| {
                groups
                    .into_iter()
                    .enumerate()
                    .map(|(i, (records, attrs))| {
                        materialize_cluster(&table, PROBE, i, records, attrs)
                    })
                    .collect::<Vec<_>>()
            },
        ),
    );
    put(
        "cluster.fascicle.mine_greedy_us",
        mean_us(|| mine_greedy(&MatrixView::new(&table), &tol, &params)),
    );
    for (algo, metric) in [
        ("isa", "mine.isa.run_us"),
        ("simplex", "mine.simplex.run_us"),
    ] {
        let cmd = iteration_cmds
            .iter()
            .find_map(|c| match c {
                GqlCommand::MineWith {
                    algo: a, params, ..
                } if a == algo => Some(params.clone()),
                _ => None,
            })
            .ok_or_else(|| format!("the iteration has no `mine … with {algo}`"))?;
        let backend = gea_mine::backend(algo).ok_or_else(|| format!("no backend {algo}"))?;
        let resolved = resolve_params(backend.params(), &cmd)?;
        put(
            metric,
            mean_us(|| {
                backend.mine(&MineInput {
                    table: &table,
                    base_name: PROBE,
                    params: &resolved,
                })
            }),
        );
    }

    // `groups`: three aggregations over the fascicle's compact tags.
    let selections = [&inputs.in_members, &inputs.outside, &inputs.contrast];
    let aggregate_with = |cfg: &ExecConfig| {
        selections.map(|t| aggregate_tags_sharded(PROBE, &t.matrix, &inputs.compact_ids, cfg).0)
    };
    let aggregate_sharded_us = mean_us(|| aggregate_with(&cfg));
    put("exec.aggregate_sharded_us", aggregate_sharded_us);
    let aggregate_serial =
        mean_us(|| selections.map(|t| aggregate_tags(PROBE, &t.matrix, &inputs.compact_ids)));
    put("core.sumy.aggregate_us", aggregate_serial);
    let aggregate_one = mean_us(|| aggregate_with(&one_thread));
    put(
        "exec.overhead.aggregate_ratio",
        Value::new(
            aggregate_one.value / aggregate_serial.value,
            aggregate_one.n,
        ),
    );

    // `populate`: the fascicle's SUMY against E.
    let sumy_name = |suffix: &str| format!("{fascicle}{suffix}");
    let sumy = session
        .sumy(&sumy_name("CancerFasTbl"))
        .map_err(|e| e.to_string())?
        .clone();
    let normal = session
        .sumy(&sumy_name("NormalTable"))
        .map_err(|e| e.to_string())?
        .clone();
    let outside = session
        .sumy(&sumy_name("CanNotInFasTbl"))
        .map_err(|e| e.to_string())?
        .clone();
    put(
        "core.populate.scan_us",
        mean_us(|| populate_scan(&sumy, &table_e)),
    );
    let columnar = mean_us(|| populate_columnar(&sumy, &table_e));
    put("core.populate.columnar_us", columnar);
    // optexec's access-path constants: 4 indexes, 16 entropy bins.
    put(
        "core.populate.index_build_us",
        mean_us(|| PopulateIndex::build_top_entropy(&table_e, 4, 16)),
    );
    let index = PopulateIndex::build_top_entropy(&table_e, 4, 16);
    put(
        "core.populate.indexed_us",
        mean_us(|| populate_indexed(&sumy, &table_e, &index)),
    );
    let populate_sharded_us = mean_us(|| populate_columnar_sharded(&sumy, &table_e, &cfg));
    put("exec.populate_sharded_us", populate_sharded_us);
    let populate_one = mean_us(|| populate_columnar_sharded(&sumy, &table_e, &one_thread));
    put(
        "exec.overhead.populate_ratio",
        Value::new(populate_one.value / columnar.value, populate_one.n),
    );

    // What the engine adds around the gea-exec drivers: naming, install,
    // lineage, render.
    for (verb, driver) in [
        ("mine", mine_sharded_us),
        ("groups", aggregate_sharded_us),
        ("populate", populate_sharded_us),
    ] {
        let whole = engine_mean(verb);
        put(
            &format!("server.engine.self.{verb}_us"),
            Value::new(whole.value - driver.value, whole.n),
        );
    }

    put(
        "core.gap.diff_us",
        mean_us(|| gea_core::diff(PROBE, &sumy, &normal)),
    );
    let gap_name = head
        .iter()
        .find(|op| op.verb == "gap")
        .and_then(|op| op.at(kept).split_whitespace().nth(1).map(str::to_string))
        .ok_or("the iteration has no `gap`")?;
    let gap = session.gap(&gap_name).map_err(|e| e.to_string())?.clone();
    put(
        "core.topgap.top_gaps_us",
        mean_us(|| top_gaps(&gap, 20, TopGapOrder::LargestMagnitude)),
    );
    put(
        "core.mem.approx_bytes_us",
        mean_us(|| session.approx_bytes()),
    );

    // The router's codec on the three SUMY tables `groups` ships.
    let rows3 = [
        sumy.rows().to_vec(),
        outside.rows().to_vec(),
        normal.rows().to_vec(),
    ];
    let n_rows: usize = rows3.iter().map(Vec::len).sum();
    let framed = xcodec::frame(&[xcodec::encode_rows3(&rows3)]);
    let hex = xcodec::hex_encode(&framed);
    put(
        "server.xcodec.encode_us",
        mean_us(|| xcodec::frame(&[xcodec::encode_rows3(&rows3)])),
    );
    put(
        "server.xcodec.hex_us",
        mean_us(|| xcodec::hex_decode(&xcodec::hex_encode(&framed)).expect("own hex")),
    );
    put(
        "server.xcodec.decode_us",
        mean_us(|| {
            let blobs = xcodec::unframe(&framed).expect("own frame");
            xcodec::decode_rows3(&blobs[0]).expect("own rows")
        }),
    );
    put(
        "server.xcodec.wire_bytes_per_row",
        Value::new(hex.len() as f64 / n_rows.max(1) as f64, n_rows as u64),
    );

    // Persistence: what `save` and `load` spend outside the file system.
    let (snapshot, _) = persist::snapshot_to_bytes(session).map_err(|e| e.to_string())?;
    put(
        "core.persist.encode_us",
        mean_us(|| persist::snapshot_to_bytes(session).expect("encodes")),
    );
    put(
        "core.persist.decode_us",
        mean_us(|| persist::session_from_snapshot_bytes(&snapshot, None).expect("decodes")),
    );
    put(
        "core.persist.snapshot_bytes",
        Value::new(snapshot.len() as f64, 1),
    );
    put(
        "core.persist.bytes_per_session_byte",
        Value::new(snapshot.len() as f64 / session.approx_bytes() as f64, 1),
    );
    put(
        "relstore.csv.export_us",
        mean_us(|| {
            let db = session.database();
            let mut sink = std::io::sink();
            for name in db.names() {
                let table = db.get(name).expect("listed table");
                gea_relstore::export_csv(table, &mut sink).expect("export to a sink");
            }
        }),
    );

    // Set-up's own layers.
    let cleaning = CleaningConfig::default();
    put(
        "core.session.open_us",
        timed(
            || corpus.clone(),
            |corpus| GeaSession::open(corpus, &cleaning).expect("opens"),
        ),
    );
    put("sage.clean_us", mean_us(|| clean(corpus, &cleaning)));
    let generator = match args.scale() {
        Scale::Demo => GeneratorConfig::demo(args.seed),
        Scale::Thesis => GeneratorConfig::thesis_scale(args.seed),
    };
    put("sage.generate_us", mean_us(|| generate(&generator)));
    let written;
    let dir = match source {
        Source::Dir { dir, .. } => std::path::PathBuf::from(dir),
        Source::Demo(_) => {
            written = TempDir::new(&args.out_dir, "corpus").map_err(|e| e.to_string())?;
            gea_sage::io::write_corpus_dir(corpus, written.path()).map_err(|e| e.to_string())?;
            written.path().to_path_buf()
        }
    };
    put(
        "sage.io.read_corpus_us",
        mean_us(|| gea_sage::io::read_corpus_dir(&dir).expect("reads back")),
    );
    drop(guard);
    Ok(())
}
