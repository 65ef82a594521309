//! The benchmark's contract, declared once: workload names, end-to-end
//! metric names with unit, direction and regression bound, and per-layer
//! metric names. `BENCHMARK.json`, the README tables, every printed line
//! and every `out/*.json` key come from these tables; a unit test fails
//! when `BENCHMARK.json` and this file disagree.

/// Corpus scale a workload opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `open <s> demo <seed>`: 21 libraries.
    Demo,
    /// `GeneratorConfig::thesis_scale(seed)` written with
    /// `write_corpus_dir` and opened with `open <s> dir <tmp>`: 100
    /// libraries.
    Thesis,
}

impl Scale {
    /// The `k%` ladder the analyst walks to find a usable fascicle. The
    /// first four rungs are the ones an analyst would try; the last two
    /// are there so that no seed is left without a fascicle (of 1700 demo
    /// seeds, 2 needed a fifth rung).
    pub fn ladder(self) -> [usize; 6] {
        match self {
            Scale::Demo => [50, 60, 70, 40, 45, 48],
            Scale::Thesis => [80, 85, 75, 70, 65, 60],
        }
    }
}

/// What the clients do inside the timed window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Every client draws Zipf(1.0) keys from the cacheable read set.
    ZipfReads,
    /// One client runs whole pipeline iterations.
    Pipeline,
    /// One writer cycles `gap → topgap → delete`; one reader round-robins
    /// reads the writer cannot change.
    WriterAndReader,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line, copied into `BENCHMARK.json`.
    pub why: &'static str,
    pub scale: Scale,
    pub shape: Shape,
    /// Closed-loop client threads (never more than `nproc`).
    pub clients: usize,
    /// `gea-router` backends in front of the servers; 0 = direct.
    pub backends: usize,
    /// Whether a `save`/`load` phase follows the window.
    pub persist: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read_hot",
        why: "2 clients, Zipf over 64 cached reads: wire, parse, cache_key and cache hit do all the work and the kernels none",
        scale: Scale::Demo,
        shape: Shape::ZipfReads,
        clients: 2,
        backends: 0,
        persist: false,
    },
    Workload {
        name: "pipeline_thesis",
        why: "1 client, whole mine-to-delete iterations at thesis scale plus save/load: core, cluster, mine and exec kernels do most of the work",
        scale: Scale::Thesis,
        shape: Shape::Pipeline,
        clients: 1,
        backends: 0,
        persist: true,
    },
    Workload {
        name: "mixed_rw",
        why: "1 writer + 1 reader on one thesis session: every write bumps the generation, so reads miss, queue at the lock gate and re-execute",
        scale: Scale::Thesis,
        shape: Shape::WriterAndReader,
        clients: 2,
        backends: 0,
        persist: false,
    },
    Workload {
        name: "routed_pipeline",
        why: "1 client, the same iterations through gea-router over 2 backends: scatter, xverb, xcodec and per-backend round trips dominate",
        scale: Scale::Demo,
        shape: Shape::Pipeline,
        clients: 1,
        backends: 2,
        persist: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

const ALL: &[&str] = &["read_hot", "pipeline_thesis", "mixed_rw", "routed_pipeline"];
const PIPELINES: &[&str] = &["pipeline_thesis", "routed_pipeline"];
const WRITERS: &[&str] = &["pipeline_thesis", "mixed_rw", "routed_pipeline"];
const CONCURRENT: &[&str] = &["read_hot", "mixed_rw"];
const PERSIST: &[&str] = &["pipeline_thesis"];

/// One end-to-end metric: something the analyst at the client sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// it counts as a regression, same seed on both sides (`agree.sh`);
    /// 0 means any increase.
    pub bound: f64,
    /// The bound `BENCHMARK.json` declares, for the metrics it lists: the
    /// builder's driver wants every listed metric on every workload, never
    /// 0, and steady across *different* seeds, which draw different
    /// corpora — so fewer metrics qualify and some need a wider bound.
    pub driver_bound: Option<f64>,
    /// Workloads that report it.
    pub on: &'static [&'static str],
}

impl EndToEnd {
    pub fn reported_on(&self, workload: &str) -> bool {
        self.on.contains(&workload)
    }
}

pub const END_TO_END: [EndToEnd; 13] = [
    e2e("setup_s", "s", Better::Lower, 0.25, Some(0.25), ALL),
    e2e("ops_per_s", "1/s", Better::Higher, 0.10, Some(0.25), ALL),
    e2e("pipeline_s", "s", Better::Lower, 0.10, None, PIPELINES),
    e2e("read_p50_ms", "ms", Better::Lower, 0.10, Some(0.10), ALL),
    e2e("read_p95_ms", "ms", Better::Lower, 0.15, None, CONCURRENT),
    e2e("gap_p50_ms", "ms", Better::Lower, 0.10, None, WRITERS),
    e2e("mine_p50_ms", "ms", Better::Lower, 0.10, None, PIPELINES),
    e2e("groups_p50_ms", "ms", Better::Lower, 0.10, None, PIPELINES),
    e2e(
        "populate_p50_ms",
        "ms",
        Better::Lower,
        0.10,
        None,
        PIPELINES,
    ),
    e2e("save_p50_ms", "ms", Better::Lower, 0.10, None, PERSIST),
    e2e("load_p50_ms", "ms", Better::Lower, 0.10, None, PERSIST),
    e2e("err_rate", "ratio", Better::Lower, 0.0, None, ALL),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10, Some(0.25), ALL),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    driver_bound: Option<f64>,
    on: &'static [&'static str],
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        driver_bound,
        on,
    }
}

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Scraped from the public `stats` / `sessions` verbs around the window.
    Stats,
    /// Measured at the client.
    Client,
    /// Traced run only: public functions timed on the workload's own
    /// command stream and tables.
    Probe,
}

/// One per-layer metric. Reported on every workload; a layer the
/// workload bypasses reads 0.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub src: Src,
}

const fn lo(name: &'static str, unit: &'static str, src: Src) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        src,
    }
}

const fn hi(name: &'static str, unit: &'static str, src: Src) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
        src,
    }
}

/// Verbs with their own `client.<verb>.p50_us` / `.p99_us` pair (`isa`
/// and `simplex` are `mine … with <algo>`).
pub const CLIENT_VERBS: [&str; 11] = [
    "mine", "groups", "gap", "topgap", "populate", "isa", "simplex", "delete", "show", "save",
    "load",
];

/// Verbs with a `server.handle.<verb>_us` mean (`read` pools every
/// cacheable read verb).
pub const HANDLE_VERBS: [&str; 9] = [
    "read", "gap", "mine", "groups", "populate", "topgap", "delete", "save", "load",
];

use Src::{Client as C, Probe as P, Stats as S};

/// Every per-layer metric, in print order.
pub const PER_LAYER: &[Layer] = &[
    // client: per-verb latency of the verbs the end-to-end table does not gate
    lo("client.mine.p50_us", "us", C),
    lo("client.mine.p99_us", "us", C),
    lo("client.groups.p50_us", "us", C),
    lo("client.groups.p99_us", "us", C),
    lo("client.gap.p50_us", "us", C),
    lo("client.gap.p99_us", "us", C),
    lo("client.topgap.p50_us", "us", C),
    lo("client.topgap.p99_us", "us", C),
    lo("client.populate.p50_us", "us", C),
    lo("client.populate.p99_us", "us", C),
    lo("client.isa.p50_us", "us", C),
    lo("client.isa.p99_us", "us", C),
    lo("client.simplex.p50_us", "us", C),
    lo("client.simplex.p99_us", "us", C),
    lo("client.delete.p50_us", "us", C),
    lo("client.delete.p99_us", "us", C),
    lo("client.show.p50_us", "us", C),
    lo("client.show.p99_us", "us", C),
    lo("client.save.p50_us", "us", C),
    lo("client.save.p99_us", "us", C),
    lo("client.load.p50_us", "us", C),
    lo("client.load.p99_us", "us", C),
    // client: the wire floor
    lo("client.rtt.ping_us", "us", C),
    // server, from `stats`: mean time inside the request handler
    lo("server.handle.read_us", "us", S),
    lo("server.handle.gap_us", "us", S),
    lo("server.handle.mine_us", "us", S),
    lo("server.handle.groups_us", "us", S),
    lo("server.handle.populate_us", "us", S),
    lo("server.handle.topgap_us", "us", S),
    lo("server.handle.delete_us", "us", S),
    lo("server.handle.save_us", "us", S),
    lo("server.handle.load_us", "us", S),
    // server, from `stats`
    lo("server.errors", "count", S),
    lo("wire.residual.read_us", "us", S),
    lo("wire.residual.write_us", "us", S),
    hi("server.cache.hit_ratio", "ratio", S),
    lo("server.cache.evictions", "count", S),
    lo("server.cache.rejected", "count", S),
    lo("server.cache.entries", "count", S),
    lo("server.cache.bytes", "B", S),
    lo("server.registry.session_bytes_start", "B", S),
    lo("server.registry.session_bytes_end", "B", S),
    hi("opt.rewrites", "count", S),
    hi("opt.key_unified", "count", S),
    lo("exec.mine.wall_us", "us", S),
    lo("exec.mine.cpu_us", "us", S),
    lo("exec.aggregate.wall_us", "us", S),
    lo("exec.aggregate.cpu_us", "us", S),
    lo("exec.populate.wall_us", "us", S),
    lo("exec.populate.cpu_us", "us", S),
    hi("exec.shards_per_op", "count", S),
    // router, from the backends' `stats`
    lo("router.backend.xpart_us", "us", S),
    lo("router.backend.xstage_us", "us", S),
    lo("router.backend.xapply_us", "us", S),
    lo("router.xstage.lines_per_op", "count", S),
    lo("router.scatter.backend_skew", "ratio", S),
    lo("router.hop.residual_us", "us", S),
    // server, probed
    lo("server.registry.read_lock_us", "us", P),
    lo("server.registry.write_lock_us", "us", P),
    lo("server.wire.write_ok_us", "us", P),
    lo("server.wire.write_calls", "count", P),
    lo("server.wire.reply_bytes", "B", P),
    lo("server.wire.read_reply_us", "us", P),
    lo("server.cache.get_hit_us", "us", P),
    lo("server.cache.get_miss_us", "us", P),
    lo("server.cache.insert_us", "us", P),
    lo("server.engine.read_us", "us", P),
    lo("server.engine.self.mine_us", "us", P),
    lo("server.engine.self.groups_us", "us", P),
    lo("server.engine.self.populate_us", "us", P),
    lo("server.xcodec.encode_us", "us", P),
    lo("server.xcodec.hex_us", "us", P),
    lo("server.xcodec.decode_us", "us", P),
    lo("server.xcodec.wire_bytes_per_row", "B", P),
    // check, opt
    lo("check.gql.parse_us", "us", P),
    lo("check.cost.pipeline_us", "us", P),
    lo("check.analyze.pipeline_us", "us", P),
    lo("opt.cache_key_us", "us", P),
    lo("opt.rewrite_us", "us", P),
    // exec
    lo("exec.mine_sharded_us", "us", P),
    lo("exec.aggregate_sharded_us", "us", P),
    lo("exec.populate_sharded_us", "us", P),
    lo("exec.overhead.aggregate_ratio", "ratio", P),
    lo("exec.overhead.populate_ratio", "ratio", P),
    // core
    lo("core.sumy.aggregate_us", "us", P),
    lo("core.gap.diff_us", "us", P),
    lo("core.topgap.top_gaps_us", "us", P),
    lo("core.populate.scan_us", "us", P),
    lo("core.populate.columnar_us", "us", P),
    lo("core.populate.indexed_us", "us", P),
    lo("core.populate.index_build_us", "us", P),
    lo("core.mine.groups_us", "us", P),
    lo("core.mine.materialize_us", "us", P),
    lo("core.mem.approx_bytes_us", "us", P),
    lo("core.session.open_us", "us", P),
    lo("core.persist.encode_us", "us", P),
    lo("core.persist.decode_us", "us", P),
    lo("core.persist.snapshot_bytes", "B", P),
    lo("core.persist.bytes_per_session_byte", "ratio", P),
    lo("relstore.csv.export_us", "us", P),
    // cluster, mine, sage
    lo("cluster.fascicle.mine_greedy_us", "us", P),
    lo("mine.isa.run_us", "us", P),
    lo("mine.simplex.run_us", "us", P),
    lo("sage.generate_us", "us", P),
    lo("sage.io.read_corpus_us", "us", P),
    lo("sage.clean_us", "us", P),
    // whole
    lo("unattributed.read_us", "us", P),
    lo("unattributed.mine_us", "us", P),
    lo("unattributed.groups_us", "us", P),
    lo("trace.overhead_pct", "%", P),
];

/// The builder's contract file, rendered from the tables above.
pub fn benchmark_json(run_seconds: u64) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    let gated: Vec<(&EndToEnd, f64)> = END_TO_END
        .iter()
        .filter_map(|m| Some((m, m.driver_bound?)))
        .collect();
    for (i, (m, bound)) in gated.iter().enumerate() {
        let comma = if i + 1 < gated.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, l) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            l.name,
            l.unit,
            l.better.as_str()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The timed window the builder's driver passes as `--seconds`.
pub const RUN_SECONDS: u64 = 10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_rendered_from_this_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(RUN_SECONDS),
            "regenerate with `gea-e2e --emit-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        assert!(
            PER_LAYER.len() <= 128,
            "{} per-layer metrics",
            PER_LAYER.len()
        );
        let names = WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .chain(END_TO_END.iter().map(|m| m.name.to_string()))
            .chain(PER_LAYER.iter().map(|l| l.name.to_string()));
        for name in names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(seen.insert(name.clone()), "{name} declared twice");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('"'));
        }
        // The driver's rules: listed metrics are on every workload, no
        // bound above 0.25, and set-up time has the widest.
        let listed: Vec<_> = END_TO_END
            .iter()
            .filter(|m| m.driver_bound.is_some())
            .collect();
        assert!(listed.iter().all(|m| m.on.len() == WORKLOADS.len()));
        let widest = listed
            .iter()
            .filter_map(|m| m.driver_bound)
            .fold(0.0, f64::max);
        let setup = listed.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.driver_bound == Some(widest) && widest <= 0.25);
    }
}
