//! Tiered hot-path kernel benchmark behind `BENCH_aggregate.json`,
//! `BENCH_populate.json` and `BENCH_clean.json`.
//!
//! Where `parallel` measures serial-vs-sharded wall time per operator,
//! this experiment records the *perf trajectory* of the hot paths —
//! the variants of each operator, every later variant checked
//! bit-identical against the first:
//!
//! * `aggregate`: the pre-blocking scalar reference kernel
//!   ([`gea_core::sumy::reference`]), the fused 4-lane blocked kernel
//!   ([`gea_core::sumy::aggregate`]), and the sharded driver
//!   ([`gea_exec::aggregate_sharded`]).
//! * `populate`: the library-at-a-time scan ([`populate_scan`]), the
//!   selection-vector columnar pruner ([`populate_columnar`]), and the
//!   sharded driver ([`gea_exec::populate_columnar_sharded`]).
//! * `clean`: the §4.2 rule asked tag by tag
//!   ([`gea_sage::clean::reference`]) and the one-census form every
//!   session open runs ([`gea_sage::clean::clean`]). Its corpus is a raw
//!   generated one (demo at kick-tires, thesis scale at full), not the
//!   synthetic matrix the other two share.
//!
//! Two tiers: **kick-tires** (seconds-scale corpus, one repetition —
//! identity gate only, for every CI run) and **full** (thesis-scale
//! corpus, repeated — emits the JSON documents, for the nightly lane).
//! Within a repetition the variants run interleaved (A B C A B C …), so
//! no variant systematically inherits a warmed cache or a settled
//! allocator from running second in a block.

use std::time::Instant;

use gea_core::populate::{populate_columnar, populate_scan, PopulateStats};
use gea_core::sumy::{aggregate, reference, SumyTable};
use gea_core::ExecConfig;
use gea_exec::{aggregate_sharded, populate_columnar_sharded};
use gea_sage::clean::{clean, CleaningConfig};
use gea_sage::generate::{generate, GeneratorConfig};
use gea_sage::library::LibraryId;
use gea_sage::tag::TagId;

use crate::workloads::populate_workload;

/// Which rung of the harness to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Seconds-scale corpus, one repetition, identity checks only.
    KickTires,
    /// Thesis-scale corpus, repeated and timed, JSON emitted.
    Full,
}

impl Tier {
    /// The tier's name as it appears in the emitted JSON.
    pub fn name(self) -> &'static str {
        match self {
            Tier::KickTires => "kick-tires",
            Tier::Full => "full",
        }
    }
}

/// Shape of one hot-path experiment.
#[derive(Debug, Clone)]
pub struct HotpathConfig {
    /// Tier (sets the default corpus scale and repetition count).
    pub tier: Tier,
    /// Tags in the corpus.
    pub n_tags: usize,
    /// Libraries in the corpus.
    pub n_libs: usize,
    /// Clustered member libraries (the populate answer by construction).
    pub n_members: usize,
    /// Member window width (per-condition selectivity knob).
    pub member_width: f64,
    /// Worker threads for the sharded variant.
    pub threads: usize,
    /// Interleaved repetitions; each variant keeps its minimum wall time.
    pub repetitions: usize,
    /// RNG seed for the synthetic corpus.
    pub seed: u64,
}

impl HotpathConfig {
    /// The thesis-scale full tier (the `parallel` experiment's corpus).
    pub fn full() -> HotpathConfig {
        HotpathConfig {
            tier: Tier::Full,
            n_tags: 60_000,
            n_libs: 100,
            n_members: 5,
            member_width: 0.75,
            threads: 4,
            repetitions: 3,
            seed: 2002,
        }
    }

    /// The seconds-scale kick-tires tier for every CI run.
    pub fn kick_tires() -> HotpathConfig {
        HotpathConfig {
            tier: Tier::KickTires,
            n_tags: 4_000,
            n_libs: 60,
            n_members: 4,
            member_width: 0.7,
            threads: 4,
            repetitions: 1,
            seed: 7,
        }
    }

    /// The synthetic matrix the `aggregate` and `populate` rows share, as
    /// the JSON document describes it.
    pub fn corpus_json(&self) -> String {
        format!(
            "{{\"n_tags\": {}, \"n_libs\": {}, \"n_members\": {}, \"member_width\": {}, \"seed\": {}}}",
            self.n_tags, self.n_libs, self.n_members, self.member_width, self.seed
        )
    }
}

/// One variant's measurement within an operator's trajectory.
#[derive(Debug, Clone)]
pub struct HotpathRow {
    /// Variant name (`reference`/`blocked`/`sharded` for aggregate;
    /// `scan`/`columnar`/`sharded` for populate; `definition`/`census`
    /// for clean).
    pub variant: &'static str,
    /// Minimum wall time over the repetitions, milliseconds.
    pub wall_ms: f64,
    /// Bit-identical to the operator's first (oracle) variant. The
    /// oracle row itself records `true`.
    pub identical: bool,
}

/// Time one closure invocation in milliseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// A named kernel variant to be timed: label + boxed thunk.
type Variant<'a, T> = (&'static str, Box<dyn FnMut() -> T + 'a>);

/// Run `variants` interleaved for `repetitions` rounds, keeping each
/// variant's minimum wall time and final result.
fn interleave<T>(
    repetitions: usize,
    variants: &mut [Variant<'_, T>],
) -> Vec<(&'static str, T, f64)> {
    let mut best: Vec<f64> = vec![f64::INFINITY; variants.len()];
    let mut out: Vec<Option<T>> = variants.iter().map(|_| None).collect();
    for _ in 0..repetitions.max(1) {
        for (i, (_, f)) in variants.iter_mut().enumerate() {
            let (v, ms) = timed(&mut **f);
            best[i] = best[i].min(ms);
            out[i] = Some(v);
        }
    }
    variants
        .iter()
        .zip(out)
        .zip(best)
        .map(|(((name, _), v), ms)| (*name, v.expect("at least one repetition ran"), ms))
        .collect()
}

/// The `aggregate` trajectory: scalar reference → blocked kernel →
/// sharded driver, all three timed interleaved and compared for bit
/// identity against the reference.
pub fn run_aggregate(cfg: &HotpathConfig) -> Vec<HotpathRow> {
    let exec = ExecConfig::with_threads(cfg.threads.max(1));
    let w = populate_workload(
        cfg.n_tags,
        cfg.n_libs,
        cfg.n_members,
        cfg.member_width,
        cfg.seed,
    );
    let matrix = &w.table.matrix;
    let reference_rows = || {
        SumyTable::new(
            "agg",
            (0..matrix.n_tags())
                .map(|i| reference::aggregate_row(matrix, TagId(i as u32)))
                .collect(),
        )
    };
    let mut variants: Vec<Variant<'_, SumyTable>> = vec![
        ("reference", Box::new(reference_rows)),
        ("blocked", Box::new(|| aggregate("agg", matrix))),
        (
            "sharded",
            Box::new(|| aggregate_sharded("agg", matrix, &exec).0),
        ),
    ];
    let measured = interleave(cfg.repetitions, &mut variants);
    let oracle = measured[0].1.clone();
    measured
        .into_iter()
        .map(|(variant, table, wall_ms)| HotpathRow {
            variant,
            wall_ms,
            identical: table == oracle,
        })
        .collect()
}

/// The `populate` trajectory: library-at-a-time scan → selection-vector
/// columnar pruner → sharded driver. Identity is on the hit list (the
/// strategies charge different `comparisons` by design); the sharded
/// variant must additionally reproduce the columnar variant's stats,
/// which is folded into its `identical` flag.
pub fn run_populate(cfg: &HotpathConfig) -> Vec<HotpathRow> {
    let exec = ExecConfig::with_threads(cfg.threads.max(1));
    let w = populate_workload(
        cfg.n_tags,
        cfg.n_libs,
        cfg.n_members,
        cfg.member_width,
        cfg.seed,
    );
    let member_ids: Vec<LibraryId> = w.members.iter().map(|&m| LibraryId(m as u32)).collect();
    let members = w.table.with_libraries("members", &member_ids);
    let sumy = aggregate("def", &members.matrix);
    let table = &w.table;

    type PopulateOut = (Vec<LibraryId>, PopulateStats);
    let mut variants: Vec<Variant<'_, PopulateOut>> = vec![
        ("scan", Box::new(|| populate_scan(&sumy, table))),
        ("columnar", Box::new(|| populate_columnar(&sumy, table))),
        (
            "sharded",
            Box::new(|| {
                let (hits, stats, _) = populate_columnar_sharded(&sumy, table, &exec);
                (hits, stats)
            }),
        ),
    ];
    let measured = interleave(cfg.repetitions, &mut variants);
    let oracle_hits = measured[0].1 .0.clone();
    let columnar_stats = measured[1].1 .1;
    measured
        .into_iter()
        .map(|(variant, (hits, stats), wall_ms)| HotpathRow {
            variant,
            wall_ms,
            identical: hits == oracle_hits && (variant != "sharded" || stats == columnar_stats),
        })
        .collect()
}

/// The `clean` trajectory: the §4.2 rule as one `max_count` question per
/// union tag (the oracle) → one sorted census of the raw corpus. Identity
/// is the cleaned matrix and the cleaning report, both bit for bit. The
/// corpus is the demo one at kick-tires and the thesis-scale one at full,
/// generated from `cfg.seed`; returned beside the rows is its description
/// for the JSON document.
pub fn run_clean(cfg: &HotpathConfig) -> (String, Vec<HotpathRow>) {
    let (generator, config) = match cfg.tier {
        Tier::KickTires => ("demo", GeneratorConfig::demo(cfg.seed)),
        Tier::Full => ("thesis_scale", GeneratorConfig::thesis_scale(cfg.seed)),
    };
    let (corpus, _) = generate(&config);
    let cleaning = CleaningConfig::default();
    let mut variants: Vec<Variant<'_, _>> = vec![
        (
            "definition",
            Box::new(|| gea_sage::clean::reference::clean(&corpus, &cleaning)),
        ),
        ("census", Box::new(|| clean(&corpus, &cleaning))),
    ];
    let measured = interleave(cfg.repetitions, &mut variants);
    let oracle = measured[0].1.clone();
    let entries: usize = corpus.iter().map(|(_, l)| l.unique_tags()).sum();
    let described = format!(
        "{{\"generator\": \"{generator}\", \"seed\": {}, \"n_libs\": {}, \"entries\": {entries}, \"raw_union_tags\": {}, \"kept_tags\": {}}}",
        cfg.seed,
        corpus.len(),
        oracle.1.raw_union_tags,
        oracle.1.kept_tags
    );
    let rows = measured
        .into_iter()
        .map(|(variant, out, wall_ms)| HotpathRow {
            variant,
            wall_ms,
            identical: out == oracle,
        })
        .collect();
    (described, rows)
}

/// Render one operator's trajectory as its `BENCH_<op>.json` document;
/// `corpus` is the JSON object describing what the rows ran over.
pub fn to_json(op: &str, cfg: &HotpathConfig, corpus: &str, rows: &[HotpathRow]) -> String {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"experiment\": \"{op}_hotpath\",\n"));
    out.push_str(&format!("  \"tier\": \"{}\",\n", cfg.tier.name()));
    out.push_str(&format!("  \"host_parallelism\": {host},\n"));
    out.push_str(&format!("  \"threads\": {},\n", cfg.threads));
    out.push_str(&format!("  \"corpus\": {corpus},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"variant\": \"{}\", \"wall_ms\": {:.3}, \"identical\": {}}}{}\n",
            r.variant,
            r.wall_ms,
            r.identical,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HotpathConfig {
        HotpathConfig {
            tier: Tier::KickTires,
            n_tags: 300,
            n_libs: 20,
            n_members: 3,
            member_width: 0.7,
            threads: 2,
            repetitions: 1,
            seed: 11,
        }
    }

    #[test]
    fn aggregate_trajectory_is_identical_and_renders() {
        let cfg = tiny();
        let rows = run_aggregate(&cfg);
        assert_eq!(
            rows.iter().map(|r| r.variant).collect::<Vec<_>>(),
            ["reference", "blocked", "sharded"]
        );
        assert!(rows.iter().all(|r| r.identical), "divergence: {rows:?}");
        let json = to_json("aggregate", &cfg, &cfg.corpus_json(), &rows);
        assert!(json.contains("\"experiment\": \"aggregate_hotpath\""));
        assert!(json.contains("\"tier\": \"kick-tires\""));
        assert!(!json.contains("\"identical\": false"));
    }

    #[test]
    fn populate_trajectory_is_identical_and_renders() {
        let cfg = tiny();
        let rows = run_populate(&cfg);
        assert_eq!(
            rows.iter().map(|r| r.variant).collect::<Vec<_>>(),
            ["scan", "columnar", "sharded"]
        );
        assert!(rows.iter().all(|r| r.identical), "divergence: {rows:?}");
        let json = to_json("populate", &cfg, &cfg.corpus_json(), &rows);
        assert!(json.contains("\"experiment\": \"populate_hotpath\""));
    }

    #[test]
    fn clean_trajectory_is_identical_and_renders() {
        let cfg = tiny();
        let (corpus, rows) = run_clean(&cfg);
        assert_eq!(
            rows.iter().map(|r| r.variant).collect::<Vec<_>>(),
            ["definition", "census"]
        );
        assert!(rows.iter().all(|r| r.identical), "divergence: {rows:?}");
        let json = to_json("clean", &cfg, &corpus, &rows);
        assert!(json.contains("\"experiment\": \"clean_hotpath\""));
        assert!(json.contains("\"generator\": \"demo\", \"seed\": 11"));
    }
}
