//! The lineage feature (thesis §4.4.2, Figure 4.18): record a multi-step
//! analysis, annotate it, browse the history tree, and use the two deletion
//! modes — contents-only (the relational export shows the table empty, the
//! metadata stays for regeneration; DESIGN.md "Storage note") and cascade
//! (drop a subtree of derived results).
//!
//! ```text
//! cargo run --release --example lineage_session
//! ```

use gea::cluster::FascicleParams;
use gea::core::session::GeaSession;
use gea::core::topgap::TopGapOrder;
use gea::sage::clean::CleaningConfig;
use gea::sage::generate::{generate, GeneratorConfig};
use gea::sage::library::LibraryProperty;
use gea::sage::{NeoplasticState, TissueType};

fn main() {
    let (corpus, _) = generate(&GeneratorConfig::demo(42));
    let mut session = GeaSession::open(corpus, &CleaningConfig::default()).expect("clean");

    // Build a small history: data set -> fascicles -> control groups ->
    // gap -> top gap.
    session
        .create_tissue_dataset("Ebrain", &TissueType::Brain)
        .expect("brain");
    let n_tags = session.enum_table("Ebrain").unwrap().n_tags();
    let n_cancer = session
        .enum_table("Ebrain")
        .unwrap()
        .library_ids_where(|m| m.state == NeoplasticState::Cancerous)
        .len();
    let mut chosen = None;
    for pct in [60, 55, 50, 45] {
        let names = session
            .calculate_fascicles(
                "Ebrain",
                &format!("brain{pct}"),
                0.10,
                &FascicleParams {
                    min_compact_attrs: n_tags * pct / 100,
                    min_records: 3,
                    batch_size: 6,
                },
            )
            .expect("mine");
        for f in names {
            let purity = session.purity_check(&f).unwrap();
            if purity.contains(&LibraryProperty::Cancer)
                && session.fascicle(&f).unwrap().members.len() < n_cancer
            {
                chosen = Some(f);
                break;
            }
        }
        if chosen.is_some() {
            break;
        }
    }
    let fascicle = chosen.expect("pure cancerous fascicle");
    session
        .comment(
            &fascicle,
            "The compact tags in this fascicle are very interesting",
        )
        .unwrap();
    let groups = session
        .form_control_groups(&fascicle, LibraryProperty::Cancer)
        .expect("groups");
    session
        .create_gap("b_canvsnor_gap1", &groups.in_fascicle, &groups.contrast)
        .expect("gap");
    let top = session
        .calculate_top_gap("b_canvsnor_gap1", 10, TopGapOrder::HighestValue)
        .expect("top gap");

    println!("operation history (Figure 4.18's explorer view):\n");
    println!("{}", session.lineage().render_tree());

    // Inspect a node's recorded metadata, as the right-hand panel shows.
    let node = session.lineage().find_by_name(&fascicle).unwrap();
    println!("selected operation: {}", node.name);
    println!("  operation type: {}", node.operation);
    for (k, v) in &node.params {
        println!("  {k}: {v}");
    }
    println!("  user comment: {}", node.comment);

    // Contents-only delete: the GAP table's relational form loses its rows
    // but its metadata (and the typed table every operator reads) survive,
    // so it can be regenerated.
    let dropped = session.delete(&top, false).unwrap();
    println!("\ncontents-only delete of {dropped:?} — metadata kept:");
    println!(
        "  database still lists it: {}",
        session.database().exists(&top)
    );
    println!(
        "  rows in database now: {}",
        session
            .database()
            .get(&top)
            .map(|t| t.n_rows())
            .unwrap_or(0)
    );

    // Cascade delete of the whole fascicle subtree.
    let removed = session.delete(&fascicle, true).unwrap();
    println!(
        "\ncascade delete of {fascicle:?} removed {} tables:",
        removed.len()
    );
    for name in &removed {
        println!("  - {name}");
    }
    println!(
        "\nhistory after deletion:\n{}",
        session.lineage().render_tree()
    );
}
