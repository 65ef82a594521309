//! The relational form is a view: what `save` exports is what the mirror
//! the session used to keep would have held, and a refused install leaves
//! nothing behind.
//!
//! The golden digests below were captured at the last commit that stored
//! the mirror (`dc7d075`), from the same pipeline, with
//! `gea-cli --no-opt --script` and an FNV-1a over each file `save` wrote.
//! That flag is gone: what it selected — one command at a time, a
//! self-compare rewritten, everything else through the engine — is what
//! every front end now runs (`tests/router_determinism.rs`,
//! `every_front_end_saves_the_same_bytes`).

use std::collections::BTreeMap;
use std::path::PathBuf;

use gea::audit;
use gea::core::codec::fnv1a;
use gea::core::session::GeaSession;
use gea::server::engine::{self, EngineError};
use gea::server::optexec;

fn run(session: &mut GeaSession, line: &str) -> Result<String, EngineError> {
    engine::execute(session, &audit::parse_lines(&[line])[0])
}

/// Demo seed 42 through the brain case study up to its first GAP table.
fn brain_session() -> GeaSession {
    let mut session = audit::open_session(42, 1, 1);
    for line in [
        "dataset E brain",
        "mine E f 50 3 6",
        "groups f_1",
        "gap ga f_1CancerFasTbl f_1NormalTable",
    ] {
        run(&mut session, line).unwrap();
    }
    session
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gea_relview_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_refused_install_leaves_no_lineage_node() {
    // A self-union doubles the qualified column `ga.Gap`; the relational
    // schema refuses it, on the literal path and on the optimizer's.
    let refused = "compare cu ga ga union 2";
    let mut literal = brain_session();
    let mut rewritten = brain_session();
    let want = run(&mut literal, refused).unwrap_err();
    assert_eq!(
        want.to_string(),
        "EEMPTY duplicate column name \"ga.Gap\" selected no libraries"
    );
    let cmd = &audit::parse_lines(&[refused])[0];
    let (step, rewrite) = gea::opt::rewrite_command(0, cmd).unwrap();
    assert_eq!(rewrite.rule, gea::opt::RULE_SELF_UNION);
    assert_eq!(optexec::run_rewritten(&mut rewritten, &step), Err(want));

    for session in [&mut literal, &mut rewritten] {
        assert!(!audit::world_digest(session).contains("cu"));
        assert_eq!(run(session, "show gap cu 3").unwrap_err().code, "ENOTFOUND");
        // The name was never taken, so it is free at once.
        run(session, "compare cu ga ga difference 4").unwrap();
        assert!(audit::world_digest(session).contains("cu [Compare]"));
    }
    assert_eq!(
        audit::world_digest(&literal),
        audit::world_digest(&rewritten)
    );
}

#[test]
fn the_table_count_does_not_depend_on_history() {
    // Creating a data set never gave it a relation; regenerating one
    // after a contents-only delete used to.
    let mut session = brain_session();
    let dir = temp_dir("count");
    let saved = format!(
        "saved 5 table(s) and full session snapshot to {}",
        dir.display()
    );
    let save = format!("save {}", dir.display());
    assert_eq!(run(&mut session, &save).unwrap(), saved);
    run(&mut session, "delete E").unwrap();
    run(&mut session, "populate E").unwrap();
    assert_eq!(run(&mut session, &save).unwrap(), saved);
    let restored = run(&mut session, &format!("load {}", dir.display())).unwrap();
    assert!(restored.contains(": 5 table(s); operation history:"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_browsable_save_is_byte_identical_to_the_stored_mirror() {
    let mut session = brain_session();
    for line in [
        "topgap ga 5",
        "populate P f_1CancerFasTbl E",
        "comment f_1 \"the compact tags here are interesting\"",
        "delete ga_5",
    ] {
        run(&mut session, line).unwrap();
    }
    let dir = temp_dir("golden");
    run(&mut session, &format!("save {}", dir.display())).unwrap();

    let written: BTreeMap<String, u64> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap())
        .filter(|entry| entry.file_name() != "session.gea")
        .map(|entry| {
            let name = entry.file_name().into_string().unwrap();
            (name, fnv1a(&std::fs::read(entry.path()).unwrap()))
        })
        .collect();
    let golden: BTreeMap<String, u64> = [
        ("P.csv", 0x46d3_1416_d785_af60),
        ("P.schema", 0x991b_ee95_901a_b1be),
        ("f_1.csv", 0x46d3_1416_d785_af60),
        ("f_1.schema", 0x991b_ee95_901a_b1be),
        ("f_1CanNotInFasTbl.csv", 0x2d74_f47a_6b43_cc5c),
        ("f_1CanNotInFasTbl.schema", 0x8a98_7c81_1421_a497),
        ("f_1CancerFasTbl.csv", 0x1f92_5d83_1a4e_d469),
        ("f_1CancerFasTbl.schema", 0x8a98_7c81_1421_a497),
        ("f_1NormalTable.csv", 0xe58a_ffea_5488_be68),
        ("f_1NormalTable.schema", 0x8a98_7c81_1421_a497),
        ("ga.csv", 0xd697_d78a_3329_2fb7),
        ("ga.schema", 0xe2e4_cbbc_fefc_47ea),
        ("ga_5.csv", 0x3355_eb3c_4756_8eb7),
        ("ga_5.schema", 0xe2e4_cbbc_fefc_47ea),
        ("lineage.txt", 0xc105_5206_382f_a023),
    ]
    .into_iter()
    .map(|(name, digest)| (name.to_string(), digest))
    .collect();
    assert_eq!(written, golden);
    std::fs::remove_dir_all(&dir).unwrap();
}
