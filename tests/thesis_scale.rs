//! Full-scale validation on the thesis-shaped corpus (100 libraries, nine
//! tissue types, a raw union of 312,957 tags at seed 42). Seconds in a
//! release build but slow in a debug one, so ignored by default;
//! `scripts/ci.sh` runs it in its full tier with:
//!
//! ```text
//! cargo test --release --test thesis_scale -- --ignored
//! ```

use gea::cluster::fascicle::reference as greedy_reference;
use gea::cluster::{mine_greedy, FascicleParams};
use gea::core::mine::{generate_metadata, MatrixView};
use gea::core::persist::{corpus_fingerprint, load_session, save_session, SNAPSHOT_FILE};
use gea::core::session::GeaSession;
use gea::core::sumy::aggregate_tags;
use gea::core::ExecConfig;
use gea::exec::mine_simplex_sharded;
use gea::exec::scatter::{run, ScatterOp};
use gea::mine::{backend, resolve_params, MineInput, ParamValue};
use gea::sage::clean::{clean_factors, cleaned_columns, reference, CleaningConfig};
use gea::sage::generate::{generate, GeneratorConfig};
use gea::sage::library::LibraryProperty;
use gea::sage::{LibraryId, NeoplasticState, TissueType};

#[test]
#[ignore = "thesis-scale corpus; run with --release -- --ignored"]
fn thesis_scale_pipeline() {
    let (corpus, truth) = generate(&GeneratorConfig::thesis_scale(42));
    assert_eq!(corpus.len(), 100);
    let stats = corpus.stats();
    // The §4.2 premises at scale: a raw union in the hundreds of thousands,
    // dominated by frequency-1 singletons.
    assert!(stats.union_tags > 200_000, "union {}", stats.union_tags);
    assert!(stats.freq1_fraction() > 0.8);

    let mut session = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
    let report = session.cleaning_report().clone();
    assert!(report.removed_fraction() > 0.7);
    assert!(report.kept_tags > 10_000, "kept {}", report.kept_tags);

    // Case 1 at scale: brain has 24 libraries like the real collection.
    session
        .create_tissue_dataset("Ebrain", &TissueType::Brain)
        .unwrap();
    assert_eq!(session.enum_table("Ebrain").unwrap().n_libraries(), 24);

    // §4.3.1.2's advice in action: libraries with "only a very small amount
    // of total tags" can never cluster into a fascicle (shot noise), so the
    // analyst removes them via a user-defined data set.
    let deep: Vec<String> = session
        .corpus()
        .iter()
        .filter(|(_, l)| l.meta.tissue == TissueType::Brain && l.total_tags() >= 16_000)
        .map(|(_, l)| l.meta.name.clone())
        .collect();
    assert!(
        deep.len() >= 8,
        "too few deep brain libraries: {}",
        deep.len()
    );
    let refs: Vec<&str> = deep.iter().map(|x| x.as_str()).collect();
    session.create_custom_dataset("deepBrain", &refs).unwrap();
    let table = session.enum_table("deepBrain").unwrap();
    let n_tags = table.n_tags();
    let n_cancer = table
        .library_ids_where(|m| m.state == NeoplasticState::Cancerous)
        .len();

    // Sweep k and keep the *largest* pure cancerous fascicle with
    // outsiders, as the analyst browsing Figure 4.7's list would.
    let mut best: Option<String> = None;
    for pct in [85, 80, 75, 70] {
        let names = session
            .calculate_fascicles(
                "deepBrain",
                &format!("deep{pct}s"),
                0.10,
                &FascicleParams {
                    min_compact_attrs: n_tags * pct / 100,
                    min_records: 3,
                    batch_size: 6,
                },
            )
            .unwrap();
        for f in names {
            let purity = session.purity_check(&f).unwrap();
            let size = session.fascicle(&f).unwrap().members.len();
            if purity.contains(&LibraryProperty::Cancer) && size < n_cancer {
                let better = best
                    .as_ref()
                    .map(|b| size > session.fascicle(b).unwrap().members.len())
                    .unwrap_or(true);
                if better {
                    best = Some(f);
                }
            }
        }
    }
    let fascicle = best.expect("pure cancerous fascicle at scale");
    let members = session.fascicle(&fascicle).unwrap().members.clone();
    let planted = truth.fascicle_members_of(&TissueType::Brain);
    // The recovered fascicle is dominated by the planted subtype: most of
    // its members are planted, and most planted deep members are found.
    let planted_in = members.iter().filter(|m| planted.contains(m)).count();
    assert!(
        planted_in * 2 > members.len(),
        "only {planted_in}/{} members planted",
        members.len()
    );
    assert!(
        planted_in >= 5,
        "only {planted_in} planted members recovered"
    );

    // The full gap pipeline completes at scale.
    let groups = session
        .form_control_groups(&fascicle, LibraryProperty::Cancer)
        .unwrap();
    session
        .create_gap("scale_gap", &groups.in_fascicle, &groups.contrast)
        .unwrap();
    assert!(!session.gap("scale_gap").unwrap().is_empty());
}

/// Opening at thesis scale: the census-based cleaning equals the §4.2 rule
/// asked tag by tag (matrix and report, bit for bit), the session holds no
/// dense root until something names it, and the session's source-data
/// fingerprint is pinned (it changed with `session.gea` v5, whose source
/// part it hashes).
#[test]
#[ignore = "thesis-scale corpus; run with --release -- --ignored"]
fn thesis_scale_open_is_the_definition() {
    let (corpus, _) = generate(&GeneratorConfig::thesis_scale(42));
    let config = CleaningConfig::default();
    let (matrix, report) = reference::clean(&corpus, &config);
    assert_eq!(report.raw_union_tags, 312_957);
    let session = GeaSession::open(corpus, &config).unwrap();
    assert!(session.source().held_base().is_none());
    assert_eq!(session.cleaning_report(), &report);
    assert_eq!(corpus_fingerprint(&session).unwrap(), 0x8f90_450b_a786_6144);
    assert_eq!(session.base().matrix, matrix);
}

/// The columns a session derives from the corpus are the definition's,
/// bit for bit, on thesis seeds 42 and 2002 under the default cleaning and
/// under a stricter, unnormalized one, for the whole roster and for every
/// third library.
#[test]
#[ignore = "thesis-scale corpus; run with --release -- --ignored"]
fn thesis_scale_derived_columns_are_the_definition() {
    let strict = CleaningConfig {
        min_tolerance: 3,
        scale_to: None,
    };
    for seed in [42, 2002] {
        let (corpus, _) = generate(&GeneratorConfig::thesis_scale(seed));
        for config in [CleaningConfig::default(), strict.clone()] {
            let (want, want_report) = reference::clean(&corpus, &config);
            let (kept, factors, report) = clean_factors(&corpus, &config);
            assert_eq!(report, want_report);
            let all: Vec<LibraryId> = corpus.ids().collect();
            let strided: Vec<LibraryId> = corpus.ids().step_by(3).collect();
            for libs in [&all, &strided] {
                let got = cleaned_columns(&corpus, &kept, &factors, libs);
                assert_eq!(got.universe(), want.universe());
                assert_eq!(got.n_libraries(), libs.len());
                for (col, &lib) in libs.iter().enumerate() {
                    let col = LibraryId(col as u32);
                    assert_eq!(got.library(col), want.library(lib));
                    for tag in want.tag_ids() {
                        assert_eq!(
                            got.value(tag, col).to_bits(),
                            want.value(tag, lib).to_bits(),
                            "seed {seed}, {config:?}: library {lib}, tag {tag:?}"
                        );
                    }
                }
            }
        }
    }
}

/// The in-place fascicle greedy returns, bit for bit, what the first-draft
/// greedy kept in `fascicle::reference` returns, on the data set the repo
/// benchmark mines: the 12 deepest brain libraries, in corpus order, at the
/// two top rungs of its k ladder.
#[test]
#[ignore = "thesis-scale corpus; run with --release -- --ignored"]
fn thesis_scale_greedy_is_the_reference() {
    let (corpus, _) = generate(&GeneratorConfig::thesis_scale(42));
    let mut brain: Vec<_> = corpus
        .iter()
        .filter(|(_, l)| l.meta.tissue == TissueType::Brain)
        .map(|(id, l)| (std::cmp::Reverse(l.total_tags()), id))
        .collect();
    brain.sort();
    brain.truncate(12);
    brain.sort_by_key(|&(_, id)| id);
    let deep: Vec<String> = brain
        .into_iter()
        .map(|(_, id)| corpus.library(id).meta.name.clone())
        .collect();
    let mut session = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
    let refs: Vec<&str> = deep.iter().map(|x| x.as_str()).collect();
    session.create_custom_dataset("D", &refs).unwrap();
    let table = session.enum_table("D").unwrap();
    let tol = generate_metadata(table, 0.10);
    for pct in [80, 85] {
        let params = FascicleParams {
            min_compact_attrs: table.n_tags() * pct / 100,
            min_records: 3,
            batch_size: 6,
        };
        let mined = mine_greedy(&MatrixView::new(table), &tol, &params);
        assert!(!mined.is_empty(), "k = {pct}% mined nothing");
        assert_eq!(
            format!("{mined:?}"),
            format!(
                "{:?}",
                greedy_reference::mine_greedy(&MatrixView::new(table), &tol, &params)
            ),
            "k = {pct}%"
        );
    }
}

/// `save` → `load` → `save` at thesis scale, through the streaming writer
/// and reader: a body many fill chunks long (the corpus, the brain data
/// set, the 12 deepest brain libraries and what mining them at k = 80 %
/// derives) loads as the session that was saved, and saving that again
/// writes the same file.
#[test]
#[ignore = "thesis-scale corpus; run with --release -- --ignored"]
fn thesis_scale_snapshot_round_trips_through_its_file() {
    let (corpus, _) = generate(&GeneratorConfig::thesis_scale(42));
    let mut brain: Vec<_> = corpus
        .iter()
        .filter(|(_, l)| l.meta.tissue == TissueType::Brain)
        .map(|(id, l)| (std::cmp::Reverse(l.total_tags()), id))
        .collect();
    brain.sort();
    let deep: Vec<String> = brain[..12]
        .iter()
        .map(|&(_, id)| corpus.library(id).meta.name.clone())
        .collect();
    let mut session = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
    session
        .create_tissue_dataset("E", &TissueType::Brain)
        .unwrap();
    let refs: Vec<&str> = deep.iter().map(|x| x.as_str()).collect();
    session.create_custom_dataset("D", &refs).unwrap();
    let n_tags = session.enum_table("D").unwrap().n_tags();
    let params = FascicleParams {
        min_compact_attrs: n_tags * 80 / 100,
        min_records: 3,
        batch_size: 6,
    };
    let mined = session.calculate_fascicles("D", "f", 0.10, &params);
    assert!(!mined.unwrap().is_empty());

    let root = std::env::temp_dir().join(format!("gea_thesis_snapshot_{}", std::process::id()));
    let (first, second) = (root.join("first"), root.join("second"));
    let fingerprint = save_session(&session, &first).unwrap();
    let saved = std::fs::read(first.join(SNAPSHOT_FILE)).unwrap();
    assert!(saved.len() > 16 * (256 << 10), "{} bytes", saved.len());
    let loaded = load_session(&first).unwrap();
    assert_eq!(loaded.cleaning_report(), session.cleaning_report());
    assert!(loaded.enum_names().eq(session.enum_names()));
    for name in session.enum_names() {
        assert_eq!(
            loaded.enum_table(name).unwrap(),
            session.enum_table(name).unwrap()
        );
    }
    assert!(loaded.sumy_names().eq(session.sumy_names()));
    for name in session.sumy_names() {
        assert_eq!(loaded.sumy(name).unwrap(), session.sumy(name).unwrap());
    }
    assert_eq!(loaded.gap_tables(), session.gap_tables());
    assert_eq!(
        format!("{:?}", loaded.fascicle_records()),
        format!("{:?}", session.fascicle_records())
    );
    assert_eq!(
        loaded.lineage().render_tree(),
        session.lineage().render_tree()
    );
    assert!(loaded.source().held_base().is_none());
    assert_eq!(loaded.base(), session.base());
    assert_eq!(save_session(&loaded, &second).unwrap(), fingerprint);
    let resaved = std::fs::read(second.join(SNAPSHOT_FILE)).unwrap();
    assert!(resaved == saved, "the re-saved snapshot differs");
    std::fs::remove_dir_all(&root).unwrap();
}

/// The same pipeline with mining and control-group aggregation routed
/// through the `gea-exec` sharded drivers, run side by side with a serial
/// session over the identical corpus: every intermediate (fascicle names,
/// SUMY definitions, control groups, the final GAP table) must be
/// byte-identical at thesis scale, not just on the unit corpora.
#[test]
#[ignore = "thesis-scale corpus; run with --release -- --ignored"]
fn thesis_scale_pipeline_sharded() {
    let (corpus, _) = generate(&GeneratorConfig::thesis_scale(42));
    let mut serial = GeaSession::open(corpus.clone(), &CleaningConfig::default()).unwrap();
    let mut sharded = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
    sharded.set_exec_config(ExecConfig {
        threads: 4,
        shards: 4,
    });

    let deep: Vec<String> = serial
        .corpus()
        .iter()
        .filter(|(_, l)| l.meta.tissue == TissueType::Brain && l.total_tags() >= 16_000)
        .map(|(_, l)| l.meta.name.clone())
        .collect();
    let refs: Vec<&str> = deep.iter().map(|x| x.as_str()).collect();
    for s in [&mut serial, &mut sharded] {
        s.create_custom_dataset("deepBrain", &refs).unwrap();
    }
    let table = serial.enum_table("deepBrain").unwrap();
    let n_tags = table.n_tags();
    let n_cancer = table
        .library_ids_where(|m| m.state == NeoplasticState::Cancerous)
        .len();

    // The same k sweep the serial pipeline test does, mined on both
    // sessions; every sweep step must produce identical fascicles.
    let mut fascicle: Option<String> = None;
    for pct in [85, 80, 75, 70] {
        let params = FascicleParams {
            min_compact_attrs: n_tags * pct / 100,
            min_records: 3,
            batch_size: 6,
        };
        let base = format!("deep{pct}s");
        let names_serial = serial
            .calculate_fascicles("deepBrain", &base, 0.10, &params)
            .unwrap();
        let names_sharded = run(
            &mut sharded,
            &ScatterOp::Fascicles {
                dataset: "deepBrain".into(),
                out: base.clone(),
                params: resolve_params(
                    gea::mine::FASCICLES_PARAMS,
                    &[("k_pct".to_string(), ParamValue::UInt(pct as u64))],
                )
                .unwrap(),
            },
        )
        .unwrap();
        assert_eq!(names_serial, names_sharded, "names diverged at pct {pct}");
        for name in &names_serial {
            assert_eq!(serial.sumy(name).unwrap(), sharded.sumy(name).unwrap());
            assert_eq!(
                serial.enum_table(name).unwrap().matrix,
                sharded.enum_table(name).unwrap().matrix
            );
        }
        // Only the sharded session noted executor activity. Mine shards
        // across *clusters*, so the shard count is min(4, fascicles
        // found) — at least one, not necessarily four.
        assert!(serial.drain_exec_events().is_empty());
        let events = sharded.drain_exec_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].op, "mine");
        assert!(events[0].shards >= 1, "no mine shards recorded");

        if fascicle.is_none() {
            fascicle = names_serial
                .iter()
                .find(|f| {
                    serial
                        .purity_check(f)
                        .map(|p| p.contains(&LibraryProperty::Cancer))
                        .unwrap_or(false)
                        && serial.fascicle(f).unwrap().members.len() < n_cancer
                })
                .cloned();
        }
        if fascicle.is_some() {
            break;
        }
    }

    // Finish the gap pipeline on a pure cancerous fascicle, both ways.
    let fascicle = fascicle.expect("pure cancerous fascicle at scale");
    let ga = serial
        .form_control_groups(&fascicle, LibraryProperty::Cancer)
        .unwrap();
    let gb = run(
        &mut sharded,
        &ScatterOp::Groups {
            fascicle: fascicle.clone(),
            property: LibraryProperty::Cancer,
        },
    )
    .unwrap();
    assert_eq!(
        gb,
        [
            ga.in_fascicle.clone(),
            ga.outside_fascicle.clone(),
            ga.contrast.clone()
        ]
    );
    for n in [&ga.in_fascicle, &ga.outside_fascicle, &ga.contrast] {
        assert_eq!(serial.sumy(n).unwrap(), sharded.sumy(n).unwrap());
    }
    for s in [&mut serial, &mut sharded] {
        s.create_gap("scale_gap", &ga.in_fascicle, &ga.contrast)
            .unwrap();
    }
    assert_eq!(
        serial.gap("scale_gap").unwrap(),
        sharded.gap("scale_gap").unwrap()
    );

    // The registry backends at scale: what the sharded session installs
    // for `mine … with isa` (seed-range scatter) and `… with simplex`
    // (per-round assignment fan-out) is the serial `MineBackend::mine`
    // over the same data set — names, SUMY definitions, members × tags.
    let uint = |key: &str, v| (key.to_string(), ParamValue::UInt(v));
    let float = |key: &str, v| (key.to_string(), ParamValue::Float(v));
    for (algo, given) in [
        (
            "isa",
            vec![uint("seeds", 6), float("t_tags", 0.8), float("t_libs", 0.8)],
        ),
        ("simplex", vec![uint("k", 3)]),
    ] {
        let miner = backend(algo).unwrap();
        let params = resolve_params(miner.params(), &given).unwrap();
        let clusters = miner.mine(&MineInput {
            table: serial.enum_table("deepBrain").unwrap(),
            base_name: algo,
            params: &params,
        });
        assert!(!clusters.is_empty(), "{algo} found nothing at scale");
        let installed = if algo == "isa" {
            let op = ScatterOp::Isa {
                dataset: "deepBrain".into(),
                out: algo.into(),
                params,
            };
            run(&mut sharded, &op)
        } else {
            mine_simplex_sharded(&mut sharded, "deepBrain", algo, &params)
        };
        let names: Vec<&str> = clusters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(installed.unwrap(), names, "{algo} names diverged");
        for c in &clusters {
            let mined = serial.enum_table("deepBrain").unwrap();
            let members = mined.matrix.select_libraries(&c.libraries);
            let sumy = aggregate_tags(&c.name, &members, &c.compact_tags);
            assert_eq!(sharded.sumy(&c.name).unwrap(), &sumy, "{algo}");
            let members = sharded.enum_table(&c.name).unwrap();
            assert_eq!(
                (members.n_libraries(), members.n_tags()),
                (c.libraries.len(), c.compact_tags.len()),
                "{algo} {}",
                c.name
            );
        }
    }
}
