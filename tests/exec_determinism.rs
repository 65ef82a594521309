//! The gea-exec determinism contract, as properties: every sharded driver
//! is **byte-identical** to its serial counterpart for every tested shard
//! count (1, 2, 3, 7 — including shard counts that don't divide the input
//! and exceed the thread count) and thread count (1, 4), over randomized
//! corpora. Work counters (`PopulateStats`) must match too, not just
//! results — the sharded engine may not even *charge* differently.

use proptest::prelude::*;

use gea::cluster::FascicleParams;
use gea::core::mine::{generate_metadata, mine, MinedCluster, Miner};
use gea::core::populate::{materialize_populate, populate, populate_columnar};
use gea::core::session::GeaSession;
use gea::core::sumy::{aggregate, aggregate_tags};
use gea::core::{EnumTable, ExecConfig};
use gea::exec::scatter::{self, ScatterOp};
use gea::exec::{aggregate_sharded, mine_sharded, populate_columnar_sharded, simplex_mine_sharded};
use gea::mine::simplex::SimplexParams;
use gea::mine::{backend, resolve_params, MineInput, ParamValue};
use gea::sage::corpus::library_meta;
use gea::sage::library::{LibraryId, NeoplasticState, TissueSource};
use gea::sage::tag::{Tag, TagUniverse};
use gea::sage::{ExpressionMatrix, TissueType};

/// Every (shards, threads) combination the issue pins down.
const GRID: &[(usize, usize)] = &[
    (1, 1),
    (2, 1),
    (3, 1),
    (7, 1),
    (1, 4),
    (2, 4),
    (3, 4),
    (7, 4),
];

fn exec(shards: usize, threads: usize) -> ExecConfig {
    ExecConfig { threads, shards }
}

fn small_enum(values: Vec<Vec<f64>>) -> EnumTable {
    let n_libs = values[0].len();
    let universe =
        TagUniverse::from_tags((0..values.len() as u32).map(|i| Tag::from_code(i * 53).unwrap()));
    let libs = (0..n_libs)
        .map(|i| {
            library_meta(
                &format!("L{i}"),
                TissueType::Brain,
                if i % 3 == 0 {
                    NeoplasticState::Cancerous
                } else {
                    NeoplasticState::Normal
                },
                TissueSource::BulkTissue,
            )
        })
        .collect();
    EnumTable::new("E", ExpressionMatrix::from_rows(universe, libs, values))
}

fn matrix_values() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..12, 1usize..14).prop_flat_map(|(n_tags, n_libs)| {
        prop::collection::vec(prop::collection::vec(0.0f64..100.0, n_libs), n_tags)
    })
}

/// A cluster is its name, member ids and compact-tag ids; its ENUM and
/// SUMY are functions of those and the table both runs mined.
fn clusters_identical(a: &[MinedCluster], b: &[MinedCluster]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.name == y.name && x.libraries == y.libraries && x.compact_tags == y.compact_tags
        })
}

/// Whether the fascicles `names` of `session` are `clusters` (mined from
/// its root data set) installed: the same names in order, each with the
/// cluster's SUMY — its members aggregated over its compact tags — its
/// member libraries and its compact tags.
fn installed_identical(session: &GeaSession, names: &[String], clusters: &[MinedCluster]) -> bool {
    let root = &session.base().matrix;
    names.len() == clusters.len()
        && names.iter().zip(clusters).all(|(name, c)| {
            let record = session.fascicle(name).unwrap();
            let members = root.select_libraries(&c.libraries);
            *name == c.name
                && session.sumy(name).unwrap() == &aggregate_tags(name, &members, &c.compact_tags)
                && record
                    .members
                    .iter()
                    .eq(c.libraries.iter().map(|&l| &root.library(l).name))
                && record
                    .compact_tags
                    .iter()
                    .copied()
                    .eq(c.compact_tags.iter().map(|&t| root.tag_of(t)))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn aggregate_sharded_is_byte_identical(values in matrix_values()) {
        let table = small_enum(values);
        let serial = aggregate("s", &table.matrix);
        for &(shards, threads) in GRID {
            let (sharded, stats) = aggregate_sharded("s", &table.matrix, &exec(shards, threads));
            prop_assert_eq!(&sharded, &serial, "shards={} threads={}", shards, threads);
            prop_assert_eq!(stats.shards, shards.min(table.n_tags()).max(1));
        }
    }

    #[test]
    fn populate_sharded_is_byte_identical(
        values in matrix_values(),
        subset_mask in prop::collection::vec(any::<bool>(), 14),
    ) {
        let table = small_enum(values);
        let ids: Vec<LibraryId> = table
            .matrix
            .library_ids()
            .enumerate()
            .filter(|(i, _)| subset_mask.get(*i).copied().unwrap_or(false))
            .map(|(_, id)| id)
            .collect();
        prop_assume!(!ids.is_empty());
        let sub = table.with_libraries("sub", &ids);
        let sumy = aggregate("def", &sub.matrix);

        let columnar = populate_columnar(&sumy, &table);
        let macro_op = populate("hits", &sumy, &table);

        for &(shards, threads) in GRID {
            let cfg = exec(shards, threads);
            let (hits, stats, _) = populate_columnar_sharded(&sumy, &table, &cfg);
            let out = materialize_populate("hits", &sumy, &table, &hits);
            prop_assert_eq!((hits, stats), columnar.clone(), "columnar shards={} threads={}", shards, threads);
            prop_assert_eq!(&out, &macro_op, "populate shards={} threads={}", shards, threads);
        }
    }

    #[test]
    fn mine_sharded_is_byte_identical(
        values in prop::collection::vec(prop::collection::vec(0.0f64..50.0, 6), 2usize..10),
        frac in 0.05f64..0.4,
        k in 1usize..3,
    ) {
        let table = small_enum(values);
        let tol = generate_metadata(&table, frac);
        let miner = Miner::Fascicles(FascicleParams {
            min_compact_attrs: k,
            min_records: 2,
            batch_size: 3,
        });
        let serial = mine(&table, "m", &miner, Some(&tol));
        for &(shards, threads) in GRID {
            let (sharded, _) = mine_sharded(&table, "m", &miner, Some(&tol), &exec(shards, threads));
            prop_assert!(
                clusters_identical(&serial, &sharded),
                "mine diverged at shards={} threads={}: {:?} vs {:?}",
                shards, threads, serial, sharded
            );
        }
    }

    /// `mine … with isa` as the product runs it — `scatter::run` over
    /// `ScatterOp::Isa`: seed-range fan-out on the session's pool, then
    /// the one install — against the serial `MineBackend::mine`, over the
    /// full shard × thread grid.
    #[test]
    fn isa_sharded_is_byte_identical(
        values in matrix_values(),
        seeds in 1u64..9,
        t_tags in 0.3f64..2.0,
        t_libs in 0.3f64..2.0,
    ) {
        let table = small_enum(values);
        let isa = backend("isa").unwrap();
        let given = vec![
            ("seeds".to_string(), ParamValue::UInt(seeds)),
            ("t_tags".to_string(), ParamValue::Float(t_tags)),
            ("t_libs".to_string(), ParamValue::Float(t_libs)),
        ];
        let resolved = resolve_params(isa.params(), &given).unwrap();
        let serial = isa.mine(&MineInput { table: &table, base_name: "m", params: &resolved });
        let op = ScatterOp::Isa { dataset: "SAGE".into(), out: "m".into(), params: resolved };
        for &(shards, threads) in GRID {
            let mut session = GeaSession::open_matrix(table.matrix.clone(), "random").unwrap();
            session.set_exec_config(exec(shards, threads));
            let installed = scatter::run(&mut session, &op);
            prop_assert!(
                installed.as_ref().is_ok_and(|names| installed_identical(&session, names, &serial)),
                "isa diverged at shards={} threads={}: {:?} vs {:?}",
                shards, threads, serial, installed
            );
        }
    }

    /// The simplex backend's sharded driver (per-round assignment
    /// fan-out) against the serial `MineBackend::mine`, over the grid.
    #[test]
    fn simplex_sharded_is_byte_identical(
        values in matrix_values(),
        k in 1u64..5,
        zero_repl in 0.05f64..2.0,
    ) {
        let table = small_enum(values);
        let simplex = backend("simplex").unwrap();
        let given = vec![
            ("k".to_string(), ParamValue::UInt(k)),
            ("zero_repl".to_string(), ParamValue::Float(zero_repl)),
        ];
        let resolved = resolve_params(simplex.params(), &given).unwrap();
        let serial = simplex.mine(&MineInput { table: &table, base_name: "m", params: &resolved });
        let params = SimplexParams::from_resolved(&resolved);
        for &(shards, threads) in GRID {
            let (sharded, _) = simplex_mine_sharded(&table, "m", &params, &exec(shards, threads));
            prop_assert!(
                clusters_identical(&serial, &sharded),
                "simplex diverged at shards={} threads={}: {:?} vs {:?}",
                shards, threads, serial, sharded
            );
        }
    }
}

/// The GQL `populate <name> <sumy> <dataset>` verb routes through the
/// sharded populate driver via the engine: a serial session and a
/// many-threads/odd-shards session running the same command sequence must
/// produce byte-identical replies and byte-identical materialized tables.
#[test]
fn gql_populate_is_byte_identical_across_executors() {
    use gea::sage::clean::CleaningConfig;
    use gea::sage::generate::{generate, GeneratorConfig};
    use gea::server::engine;
    use gea::server::gql::{parse, Request};

    let (corpus, _) = generate(&GeneratorConfig::demo(42));
    let mut serial = GeaSession::open(corpus.clone(), &CleaningConfig::default()).unwrap();
    serial.set_exec_config(ExecConfig::serial());
    let mut sharded = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
    sharded.set_exec_config(ExecConfig {
        threads: 4,
        shards: 3,
    });

    // On demo seed 42 the 50% mine deterministically yields fascicle f_1.
    let script = ["dataset Eb brain", "mine Eb f 50 3 6", "populate P f_1 Eb"];
    for line in script {
        let Some(Request::Gql(cmd)) = parse(line).unwrap() else {
            panic!("{line:?} is not an algebra command");
        };
        let a = engine::execute(&mut serial, &cmd).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        let b = engine::execute(&mut sharded, &cmd).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        assert_eq!(a, b, "engine reply diverged on {line:?}");
    }
    for name in ["Eb", "f_1", "P"] {
        assert_eq!(
            serial.enum_table(name).unwrap().matrix,
            sharded.enum_table(name).unwrap().matrix,
            "table {name} diverged"
        );
    }
    // The populated ENUM is the fascicle's extension: same libraries,
    // restricted to the SUMY's tags.
    let p = serial.enum_table("P").unwrap();
    assert!(p.n_libraries() >= serial.enum_table("f_1").unwrap().n_libraries());
    // Both sessions routed the verb through the exec engine — a
    // `populate` event was noted regardless of the executor shape.
    for session in [&mut serial, &mut sharded] {
        assert!(session
            .drain_exec_events()
            .iter()
            .any(|e| e.op == "populate"));
    }
}
