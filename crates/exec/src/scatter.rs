//! The scatter seam: one `prepare → partial(range) → install` per
//! scan-shaped macro operation, called by every executor.
//!
//! Four session operations split into independent contiguous ranges —
//! fascicle `mine` (clusters to materialize), `mine … with isa` (seeds to
//! converge), `populate <name> <sumy> <dataset>` (libraries to qualify)
//! and `groups` (compact tags to aggregate, three tables at once). Each is
//! a [`ScatterOp`], and each runs in three steps:
//!
//! 1. [`prepare`] validates and resolves the inputs against the session,
//!    in the order the session's own methods check them, and fixes the
//!    item count the [`ShardPlan`] partitions;
//! 2. [`Prepared::partial`] runs the *serial* per-item kernel over one
//!    plan range and returns that range's [`Partial`];
//! 3. [`install`] concatenates the partials in shard order (shard order
//!    is serial order) and hands the result, as plain data, to the
//!    session's install method, which looks its own inputs up, validates
//!    everything and only then commits (lineage, tables, naming) — so a
//!    refused install leaves nothing behind.
//!
//! [`run`] is the in-process executor: step 2 fans out over the session's
//! pool. `gea-server`'s `xpart` verb is steps 1–2 for the one range a
//! router assigned to this backend, and `xapply` is step 3 over the
//! partials every backend shipped back. Because all of them call the same
//! three functions, a single server, a sharded one and a routed fleet
//! produce the same bytes, the same lineage and the same errors in the
//! same order.

use gea_core::mine::{generate_metadata, materialize_groups, mine_groups, MinedCluster, Miner};
use gea_core::session::{ControlGroupInputs, GeaError, GeaSession};
use gea_core::sumy::{aggregate_tag_rows, SumyRow};
use gea_core::{EnumTable, ExecConfig};
use gea_mine::isa::{IsaModule, IsaParams, IsaScores};
use gea_mine::simplex::SimplexParams;
use gea_mine::{
    fascicle_params, IsaBackend, MineBackend, ResolvedParams, SimplexBackend, WIDTH_FRACTION,
};
use gea_sage::library::{LibraryId, LibraryProperty};

use crate::drivers::{
    converge_seeds, isa_clusters, run_sharded, simplex_mine_sharded, tag_rows_sharded, PopulateScan,
};
use crate::shard::ShardPlan;
use crate::ExecStats;

/// One scatterable macro operation, with its operands as written.
#[derive(Debug, Clone, PartialEq)]
pub enum ScatterOp {
    /// `mine <dataset> <out> with fascicles …` (positionally, `mine
    /// <dataset> <out> <k%> <min> <batch>`): the thesis's fascicle miner.
    /// The greedy search is serial; the found clusters are the items.
    Fascicles {
        /// The ENUM table to mine.
        dataset: String,
        /// Base name of the fascicles (`{out}_1`, `{out}_2`, …).
        out: String,
        /// Parameters resolved against [`FasciclesBackend`]'s schema.
        ///
        /// [`FasciclesBackend`]: gea_mine::FasciclesBackend
        params: ResolvedParams,
    },
    /// `mine <dataset> <out> with isa …`: the seeds are the items.
    Isa {
        /// The ENUM table to mine.
        dataset: String,
        /// Base name of the clusters.
        out: String,
        /// Parameters resolved against [`IsaBackend`]'s schema.
        params: ResolvedParams,
    },
    /// `populate <name> <sumy> <dataset>`: the libraries are the items.
    Populate {
        /// The ENUM table to create.
        name: String,
        /// The SUMY whose per-tag ranges are the conditions.
        sumy: String,
        /// The ENUM table whose libraries are tested.
        dataset: String,
    },
    /// `groups <fascicle>`: the fascicle's compact tags are the items,
    /// aggregated over three library selections at once.
    Groups {
        /// The pure fascicle the control groups are formed around.
        fascicle: String,
        /// The property it must be pure on.
        property: LibraryProperty,
    },
}

impl ScatterOp {
    /// The operator name the executor notes its wall/busy times under.
    fn exec_label(&self) -> &'static str {
        match self {
            ScatterOp::Fascicles { .. } | ScatterOp::Isa { .. } => "mine",
            ScatterOp::Populate { .. } => "populate",
            ScatterOp::Groups { .. } => "aggregate",
        }
    }
}

/// The result of one plan range of a [`ScatterOp`]; each op produces
/// exactly one kind.
#[derive(Debug, Clone)]
pub enum Partial {
    /// [`ScatterOp::Fascicles`]: the range's materialized clusters.
    Clusters(Vec<MinedCluster>),
    /// [`ScatterOp::Isa`]: the range's converged seeds, dead ones kept in
    /// place (the dedupe at install time consumes the full seed order).
    Modules(Vec<Option<IsaModule>>),
    /// [`ScatterOp::Populate`]: the range's qualifying libraries.
    Hits(Vec<LibraryId>),
    /// [`ScatterOp::Groups`]: the range's rows of the in-fascicle, outside
    /// and contrast tables, in the order the session aggregates them.
    Rows3([Vec<SumyRow>; 3]),
}

impl Partial {
    /// Concatenate partials of one kind in shard order — which, ranges
    /// being contiguous and ascending, is the serial iteration order.
    /// `None` when there is nothing to merge or the kinds differ.
    fn merge(parts: Vec<Partial>) -> Option<Partial> {
        let mut parts = parts.into_iter();
        let mut merged = parts.next()?;
        for part in parts {
            match (&mut merged, part) {
                (Partial::Clusters(all), Partial::Clusters(more)) => all.extend(more),
                (Partial::Modules(all), Partial::Modules(more)) => all.extend(more),
                (Partial::Hits(all), Partial::Hits(more)) => all.extend(more),
                (Partial::Rows3(all), Partial::Rows3(more)) => {
                    for (table, rows) in all.iter_mut().zip(more) {
                        table.extend(rows);
                    }
                }
                _ => return None,
            }
        }
        Some(merged)
    }
}

/// A [`ScatterOp`] with its inputs validated and resolved, ready to
/// compute any range of its items. Borrows the session it was prepared
/// against; nothing has been installed.
pub struct Prepared<'a>(Kind<'a>);

enum Kind<'a> {
    /// Found clusters, each materialized independently.
    Clusters {
        table: &'a EnumTable,
        base_name: &'a str,
        groups: Vec<(Vec<usize>, Vec<usize>)>,
    },
    /// Z-scored views, each seed converged independently.
    Isa {
        scores: IsaScores<'a>,
        params: IsaParams,
    },
    /// Resolved conditions, each library range pruned independently.
    Populate(PopulateScan<'a>),
    /// The three library selections, each compact tag aggregated
    /// independently.
    Groups(Box<ControlGroupInputs>),
}

/// Validate and resolve `op`'s inputs against `session`. Checks run in
/// the order of the session method [`install`] will call, so an executor
/// that prepares on one process and installs on another reports the error
/// a single process would.
pub fn prepare<'a>(session: &'a GeaSession, op: &'a ScatterOp) -> Result<Prepared<'a>, GeaError> {
    Ok(Prepared(match op {
        ScatterOp::Fascicles {
            dataset,
            out,
            params,
        } => {
            let table = session.enum_table(dataset)?;
            let tolerance = generate_metadata(table, WIDTH_FRACTION);
            let params = fascicle_params(table.n_tags(), params);
            Kind::Clusters {
                table,
                base_name: out,
                groups: mine_groups(table, &Miner::Fascicles(params), Some(&tolerance)),
            }
        }
        ScatterOp::Isa {
            dataset, params, ..
        } => Kind::Isa {
            scores: IsaScores::build(session.enum_table(dataset)?),
            params: IsaParams::from_resolved(params),
        },
        ScatterOp::Populate {
            name,
            sumy,
            dataset,
        } => {
            session.check_name_free(name)?;
            let sumy = session.sumy(sumy)?;
            Kind::Populate(PopulateScan::new(sumy, session.enum_table(dataset)?))
        }
        ScatterOp::Groups { fascicle, property } => {
            Kind::Groups(Box::new(session.control_group_inputs(fascicle, *property)?))
        }
    }))
}

/// The three selections `groups` aggregates, in the session's order.
fn group_tables(inputs: &ControlGroupInputs) -> [&EnumTable; 3] {
    [&inputs.in_members, &inputs.outside, &inputs.contrast]
}

impl Prepared<'_> {
    /// How many items the op ranges over — what a [`ShardPlan`] for it
    /// partitions.
    pub fn n_items(&self) -> usize {
        match &self.0 {
            Kind::Clusters { groups, .. } => groups.len(),
            Kind::Isa { params, .. } => params.seeds,
            Kind::Populate(scan) => scan.n_libraries(),
            Kind::Groups(inputs) => inputs.compact_ids.len(),
        }
    }

    /// Compute the items `[lo, hi)` with the serial per-item kernel. An
    /// empty range yields the op's empty partial.
    pub fn partial(&self, lo: usize, hi: usize) -> Partial {
        match &self.0 {
            Kind::Clusters {
                table,
                base_name,
                groups,
            } => Partial::Clusters(materialize_groups(
                table,
                base_name,
                lo,
                groups[lo..hi].iter().cloned(),
            )),
            Kind::Isa { scores, params } => {
                Partial::Modules(converge_seeds(scores, params, lo, hi))
            }
            Kind::Populate(scan) => Partial::Hits(scan.prune(lo, hi).0),
            Kind::Groups(inputs) => Partial::Rows3(
                group_tables(inputs)
                    .map(|table| aggregate_tag_rows(&table.matrix, &inputs.compact_ids[lo..hi])),
            ),
        }
    }

    /// Every partial, in shard order, computed on this process's pool.
    ///
    /// `groups` keeps the aggregate drivers' in-place sink: each of its
    /// three tables is filled shard by shard straight into its final row
    /// vector ([`tag_rows_sharded`]) and returned as one full-range
    /// partial, instead of staging per-shard vectors only to concatenate
    /// them again.
    fn pooled(&self, cfg: &ExecConfig) -> (Vec<Partial>, ExecStats) {
        if let Kind::Groups(inputs) = &self.0 {
            let mut total = ExecStats::default();
            let rows = group_tables(inputs).map(|table| {
                let (rows, stats) = tag_rows_sharded(&table.matrix, &inputs.compact_ids, cfg);
                total.shards += stats.shards;
                total.wall_us += stats.wall_us;
                total.busy_us += stats.busy_us;
                rows
            });
            return (vec![Partial::Rows3(rows)], total);
        }
        let plan = ShardPlan::new(self.n_items(), cfg.shards);
        run_sharded(cfg, &plan, |_, lo, hi| self.partial(lo, hi))
    }
}

/// Merge `parts` (one per shard, in shard order) and hand the result to
/// the session's install method for `op`, which commits whole or not at
/// all. Returns the names of the tables created, in creation order: the
/// fascicles of a `mine`, the ENUM of a `populate`, the in-fascicle /
/// outside / contrast SUMYs of a `groups`. Partials that are empty or of a
/// kind `op` does not produce are [`GeaError::Malformed`], like any other
/// result no run of `op` produces.
pub fn install(
    session: &mut GeaSession,
    op: &ScatterOp,
    parts: Vec<Partial>,
) -> Result<Vec<String>, GeaError> {
    match (op, Partial::merge(parts)) {
        (
            ScatterOp::Fascicles {
                dataset, params, ..
            },
            Some(Partial::Clusters(clusters)),
        ) => {
            let n_tags = session.enum_table(dataset)?.n_tags();
            let params = fascicle_params(n_tags, params);
            session.install_mined_fascicles(dataset, WIDTH_FRACTION, &params, clusters)
        }
        (
            ScatterOp::Isa {
                dataset,
                out,
                params,
            },
            Some(Partial::Modules(modules)),
        ) => {
            let clusters = isa_clusters(session.enum_table(dataset)?, out, modules);
            install_backend_clusters(session, dataset, "ISA", &IsaBackend, params, clusters)
        }
        (
            ScatterOp::Populate {
                name,
                sumy,
                dataset,
            },
            Some(Partial::Hits(hits)),
        ) => {
            session.install_populate(name, sumy, dataset, &hits)?;
            Ok(vec![name.clone()])
        }
        (ScatterOp::Groups { fascicle, property }, Some(Partial::Rows3(rows))) => {
            let groups = session.install_control_groups(fascicle, *property, rows)?;
            Ok(vec![
                groups.in_fascicle,
                groups.outside_fascicle,
                groups.contrast,
            ])
        }
        (op, _) => Err(GeaError::Malformed(format!(
            "the scatter partials handed to install are not {op:?}'s"
        ))),
    }
}

/// Run `op` whole on this process: prepare, compute every partial on the
/// session's pool, note the pool's wall/busy times on the session, and
/// install. Byte-identical to the session's serial macro operation for
/// every shard × thread configuration.
pub fn run(session: &mut GeaSession, op: &ScatterOp) -> Result<Vec<String>, GeaError> {
    let cfg = session.exec_config();
    let (parts, stats) = prepare(session, op)?.pooled(&cfg);
    session.note_exec(stats.event(op.exec_label()));
    install(session, op, parts)
}

/// `mine <dataset> <out> with simplex …`, the one registry backend that
/// does not scatter — its parallelism is a per-round assignment step
/// rather than independent ranges — mined whole through its sharded
/// driver, then installed. `params` are resolved against
/// [`SimplexBackend`]'s schema. (`isa` is [`ScatterOp::Isa`]; `fascicles`
/// is [`ScatterOp::Fascicles`].)
pub fn mine_simplex_sharded(
    session: &mut GeaSession,
    dataset: &str,
    out: &str,
    params: &ResolvedParams,
) -> Result<Vec<String>, GeaError> {
    let cfg = session.exec_config();
    let (clusters, stats) = simplex_mine_sharded(
        session.enum_table(dataset)?,
        out,
        &SimplexParams::from_resolved(params),
        &cfg,
    );
    session.note_exec(stats.event("mine"));
    install_backend_clusters(
        session,
        dataset,
        "Simplex",
        &SimplexBackend,
        params,
        clusters,
    )
}

/// Install a registry backend's clusters as fascicles, recording backend
/// provenance (its name plus the resolved parameters) on every fascicle
/// record. `operation` is the lineage label (`ISA`, `Simplex`), so mined
/// tables of different algorithms are distinguishable in `lineage` output.
fn install_backend_clusters(
    session: &mut GeaSession,
    dataset: &str,
    operation: &str,
    backend: &dyn MineBackend,
    params: &ResolvedParams,
    clusters: Vec<MinedCluster>,
) -> Result<Vec<String>, GeaError> {
    let mut lineage_params = vec![("tissue_dataset".to_string(), dataset.to_string())];
    lineage_params.extend(params.to_strings());
    session.install_mined_clusters(
        dataset,
        operation,
        lineage_params,
        backend.name(),
        params.to_strings(),
        clusters,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gea_core::sumy::{aggregate_tags, SumyTable};
    use gea_mine::{MineInput, ParamValue};
    use gea_sage::clean::CleaningConfig;
    use gea_sage::generate::{generate, GeneratorConfig};
    use gea_sage::TissueType;

    /// Demo seed 42 with the brain data set `E` — and a second data set
    /// squatting on `m_2`, the name an ISA mine under base name `m` wants
    /// for its second cluster.
    fn brain_session() -> GeaSession {
        let (corpus, _) = generate(&GeneratorConfig::demo(42));
        let mut s = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
        s.create_tissue_dataset("E", &TissueType::Brain).unwrap();
        s.create_tissue_dataset("m_2", &TissueType::Brain).unwrap();
        s
    }

    /// `k_pct=50 min_records=3 batch=6`: the schema's defaults.
    fn fascicles_params() -> ResolvedParams {
        gea_mine::resolve_params(gea_mine::FASCICLES_PARAMS, &[]).unwrap()
    }

    fn mine_op(out: &str) -> ScatterOp {
        ScatterOp::Fascicles {
            dataset: "E".into(),
            out: out.into(),
            params: fascicles_params(),
        }
    }

    fn isa_params() -> ResolvedParams {
        let given = vec![
            ("seeds".to_string(), ParamValue::UInt(6)),
            ("t_tags".to_string(), ParamValue::Float(0.8)),
            ("t_libs".to_string(), ParamValue::Float(0.8)),
        ];
        gea_mine::resolve_params(IsaBackend.params(), &given).unwrap()
    }

    /// On demo seed 42 this ISA mine finds five clusters.
    fn isa_op(out: &str) -> ScatterOp {
        ScatterOp::Isa {
            dataset: "E".into(),
            out: out.into(),
            params: isa_params(),
        }
    }

    /// The router's path, in process: every backend prepares on its own,
    /// computes the one range the plan gives it (nothing, past the end of
    /// a clamped plan), and the partials are installed in shard order.
    fn run_scattered(
        session: &mut GeaSession,
        op: &ScatterOp,
        k: usize,
    ) -> Result<Vec<String>, GeaError> {
        let mut parts = Vec::new();
        for shard in 0..k {
            let prepared = prepare(session, op)?;
            let (lo, hi) = ShardPlan::new(prepared.n_items(), k)
                .get(shard)
                .unwrap_or((0, 0));
            parts.push(prepared.partial(lo, hi));
        }
        install(session, op, parts)
    }

    /// On demo seed 42 the 50% mine finds exactly one fascicle, pure on
    /// cancer, so the script exercises all four ops end to end.
    fn script() -> Vec<ScatterOp> {
        vec![
            mine_op("a"),
            ScatterOp::Groups {
                fascicle: "a_1".into(),
                property: LibraryProperty::Cancer,
            },
            ScatterOp::Populate {
                name: "P".into(),
                sumy: "a_1CancerFasTbl".into(),
                dataset: "E".into(),
            },
            // Refused at its second cluster (`m_2` is taken), then retried
            // under a free base name.
            isa_op("m"),
            isa_op("n"),
            // Error paths: taken names and missing inputs.
            mine_op("a"),
            ScatterOp::Populate {
                name: "P".into(),
                sumy: "no_such_sumy".into(),
                dataset: "E".into(),
            },
            ScatterOp::Populate {
                name: "Q".into(),
                sumy: "a_1CancerFasTbl".into(),
                dataset: "nosuchE".into(),
            },
            ScatterOp::Groups {
                fascicle: "a_1".into(),
                property: LibraryProperty::Cancer,
            },
        ]
    }

    /// Everything an install can leave behind.
    fn footprint(s: &GeaSession) -> (usize, Vec<String>, Vec<String>, Vec<String>) {
        let owned = |names: Vec<&str>| names.into_iter().map(String::from).collect();
        (
            s.lineage().len(),
            owned(s.relation_names()),
            owned(s.fascicle_names()),
            owned(s.enum_names().collect()),
        )
    }

    /// `exec`'s reply to `op`; a refusal must leave the session as it was.
    fn reply(
        session: &mut GeaSession,
        op: &ScatterOp,
        exec: impl FnOnce(&mut GeaSession, &ScatterOp) -> Result<Vec<String>, GeaError>,
    ) -> String {
        let before = footprint(session);
        let reply = exec(session, op);
        if reply.is_err() {
            assert_eq!(footprint(session), before, "refused {op:?} left tables");
        }
        format!("{reply:?}")
    }

    #[test]
    fn pool_and_scattered_paths_agree_with_the_serial_session() {
        // The serial reference: the session's own macro operations.
        let mut serial = brain_session();
        let n_tags = serial.enum_table("E").unwrap().n_tags();
        let params = fascicle_params(n_tags, &fascicles_params());
        let names = serial
            .calculate_fascicles("E", "a", WIDTH_FRACTION, &params)
            .unwrap();
        assert_eq!(names, ["a_1"]);
        let groups = serial
            .form_control_groups("a_1", LibraryProperty::Cancer)
            .unwrap();
        serial
            .populate_from_sumy("P", &groups.in_fascicle, "E")
            .unwrap();
        // `mine … with isa`, serially: the backend's own `mine`, installed
        // the way every executor installs it.
        let isa_serially = |s: &mut GeaSession, op: &ScatterOp| {
            let ScatterOp::Isa { out, params, .. } = op else {
                panic!("{op:?} is not an isa mine");
            };
            let clusters = IsaBackend.mine(&MineInput {
                table: s.enum_table("E")?,
                base_name: out,
                params,
            });
            install_backend_clusters(s, "E", "ISA", &IsaBackend, params, clusters)
        };
        let refused = reply(&mut serial, &isa_op("m"), isa_serially);
        let retried = reply(&mut serial, &isa_op("n"), isa_serially);

        let mut reference: Option<(Vec<String>, String)> = None;
        for (shards, threads) in [(1, 1), (3, 4)] {
            let mut pooled = brain_session();
            pooled.set_exec_config(ExecConfig { threads, shards });
            let replies: Vec<String> = script()
                .iter()
                .map(|op| reply(&mut pooled, op, run))
                .collect();
            for name in ["a_1", "n_1", "n_5", &groups.in_fascicle, &groups.contrast] {
                assert_eq!(pooled.sumy(name).unwrap(), serial.sumy(name).unwrap());
            }
            for name in ["P", "n_1", "n_5"] {
                assert_eq!(
                    pooled.enum_table(name).unwrap(),
                    serial.enum_table(name).unwrap()
                );
            }
            let ops: Vec<&str> = pooled.drain_exec_events().iter().map(|e| e.op).collect();
            // One event per op that got past `prepare`.
            assert_eq!(
                ops,
                ["mine", "aggregate", "populate", "mine", "mine", "mine"]
            );
            let lineage = pooled.lineage().render_tree();
            let (want_replies, want_lineage) =
                reference.get_or_insert((replies.clone(), lineage.clone()));
            assert_eq!(&replies, want_replies, "shards={shards} threads={threads}");
            assert_eq!(&lineage, want_lineage, "shards={shards} threads={threads}");
        }
        let (want_replies, want_lineage) = reference.unwrap();
        // A refused `mine` leaves nothing behind — not even the cluster
        // that came before the one refused — and the retry installs all.
        assert_eq!(want_replies[3], "Err(NameTaken(\"m_2\"))");
        assert_eq!(
            want_replies[4],
            "Ok([\"n_1\", \"n_2\", \"n_3\", \"n_4\", \"n_5\"])"
        );
        assert_eq!([&refused, &retried], [&want_replies[3], &want_replies[4]]);
        assert_eq!(serial.lineage().render_tree(), want_lineage);
        assert!(want_replies[5].contains("NameTaken"), "{want_replies:?}");
        assert!(want_replies[6].contains("NameTaken"), "{want_replies:?}");
        assert!(want_replies[7].contains("nosuchE"), "{want_replies:?}");
        assert!(want_replies[8].contains("NameTaken"), "{want_replies:?}");

        // More backends than items: the plan clamps and the surplus
        // backends contribute empty partials.
        for k in [2, 1000] {
            let mut scattered = brain_session();
            let replies: Vec<String> = script()
                .iter()
                .map(|op| reply(&mut scattered, op, |s, op| run_scattered(s, op, k)))
                .collect();
            assert_eq!(replies, want_replies, "k={k}");
            assert_eq!(scattered.lineage().render_tree(), want_lineage, "k={k}");
            assert!(matches!(
                scattered.fascicle("m_1"),
                Err(GeaError::NotFound { .. })
            ));
            assert!(scattered.drain_exec_events().is_empty());
        }
    }

    #[test]
    fn a_batch_no_run_produces_installs_nothing() {
        // `xapply` decodes partials off the wire, so an install meets
        // batches no executor computes: each is one refusal that leaves the
        // session as it was. Here, every item arrives twice.
        let twice = |s: &mut GeaSession, op: &ScatterOp| {
            let part = {
                let prepared = prepare(s, op)?;
                prepared.partial(0, prepared.n_items())
            };
            install(s, op, vec![part.clone(), part])
        };
        let mut s = brain_session();
        // Two clusters named `a_1`: one refusal, not a fascicle and an error.
        assert_eq!(
            reply(&mut s, &mine_op("a"), twice),
            "Err(NameTaken(\"a_1\"))"
        );
        // One shard's share of a `groups` is decoded without table order,
        // so every tag of all three tables twice first meets a table here.
        run(&mut s, &mine_op("a")).unwrap();
        let groups = ScatterOp::Groups {
            fascicle: "a_1".into(),
            property: LibraryProperty::Cancer,
        };
        let refused = reply(&mut s, &groups, twice);
        assert!(
            refused.starts_with("Err(Malformed(\"a_1CancerFasTbl names tag "),
            "{refused}"
        );
        // No partials, or another op's, are refused the same way.
        for parts in [Vec::new(), vec![Partial::Hits(Vec::new())]] {
            let refused = reply(&mut s, &groups, |s, op| install(s, op, parts));
            assert!(refused.starts_with("Err(Malformed("), "{refused}");
        }
        // The batch as computed still installs.
        assert_eq!(run(&mut s, &groups).unwrap().len(), 3);
    }

    #[test]
    fn group_partials_concatenate_to_the_serial_rows() {
        let mut s = brain_session();
        run(&mut s, &mine_op("a")).unwrap();
        let op = ScatterOp::Groups {
            fascicle: "a_1".into(),
            property: LibraryProperty::Cancer,
        };
        let prepared = prepare(&s, &op).unwrap();
        let Kind::Groups(inputs) = &prepared.0 else {
            panic!("groups prepares to group inputs");
        };
        let serial = aggregate_tags("x", &inputs.outside.matrix, &inputs.compact_ids);
        for k in [2usize, 7] {
            let plan = ShardPlan::new(prepared.n_items(), k);
            let parts = plan
                .ranges()
                .map(|(lo, hi)| prepared.partial(lo, hi))
                .collect();
            let Some(Partial::Rows3([_, outside, _])) = Partial::merge(parts) else {
                panic!("groups partials merge to three row lists");
            };
            assert_eq!(SumyTable::new("x", outside), serial, "k={k}");
        }
    }
}
