//! Integration test for the §2.4 generality claim: the same GEA machinery
//! that analyzes SAGE data analyzes microarray data once the chip
//! intensities are expressed as tags with expression values.

use gea::cluster::FascicleParams;
use gea::core::gap::diff;
use gea::core::mine::{generate_metadata, mine, Miner};
use gea::core::sumy::{aggregate, aggregate_tags};
use gea::core::topgap::{top_gaps, TopGapOrder};
use gea::core::xprofiler::compare_cancer_vs_normal;
use gea::core::EnumTable;
use gea::sage::generate::{generate, CancerResponse, GeneratorConfig};
use gea::sage::microarray::{synthesize_experiment, to_expression_matrix};
use gea::sage::{NeoplasticState, TissueType};

#[test]
fn microarray_data_flows_through_the_whole_toolkit() {
    let config = GeneratorConfig::demo(42);
    let (_, truth) = generate(&config);
    let samples = synthesize_experiment(&truth, &config, &TissueType::Brain, 6, 6, 42);
    let matrix = to_expression_matrix(&samples, Some(100_000.0)).expect("shared probe layout");
    let table = EnumTable::new("ARRAY", matrix);

    // Aggregate / diff pipeline: cancer vs normal arrays.
    let cancer = table.select_libraries("c", |m| m.state == NeoplasticState::Cancerous);
    let normal = table.select_libraries("n", |m| m.state == NeoplasticState::Normal);
    assert_eq!(cancer.n_libraries(), 6);
    assert_eq!(normal.n_libraries(), 6);
    let gap = diff(
        "array_gap",
        &aggregate("c", &cancer.matrix),
        &aggregate("n", &normal.matrix),
    );
    assert!(!gap.is_empty());

    // The planted differential genes dominate the top gaps.
    let top = top_gaps(&gap, 10, TopGapOrder::LargestMagnitude);
    let planted_hits = top
        .rows()
        .iter()
        .filter(|r| {
            truth
                .gene_of_tag(r.tag)
                .map(|g| g.response != CancerResponse::Unchanged)
                .unwrap_or(false)
        })
        .count();
    assert!(
        planted_hits >= 7,
        "only {planted_hits}/10 microarray top gaps are planted diff genes"
    );
    // Gap signs match the planted direction.
    for r in top.rows() {
        if let Some(gene) = truth.gene_of_tag(r.tag) {
            match gene.response {
                CancerResponse::Up => assert!(r.gap().unwrap() > 0.0, "{} sign", r.tag),
                CancerResponse::Down => assert!(r.gap().unwrap() < 0.0, "{} sign", r.tag),
                CancerResponse::Unchanged => {}
            }
        }
    }

    // The xProfiler baseline runs on it too.
    let pooled = compare_cancer_vs_normal(&table).expect("both states");
    assert!(!pooled.significant(0.05).is_empty());

    // And the fascicle miner accepts the matrix (arrays have no planted
    // fascicle structure, so we only require clean execution and valid
    // invariants).
    let tol_table = table.clone();
    let tolerance = generate_metadata(&tol_table, 0.10);
    let clusters = mine(
        &table,
        "array",
        &Miner::Fascicles(FascicleParams {
            min_compact_attrs: table.n_tags() / 2,
            min_records: 2,
            batch_size: 6,
        }),
        Some(&tolerance),
    );
    for c in &clusters {
        assert!(c.libraries.len() >= 2);
        let members = table.matrix.select_libraries(&c.libraries);
        let sumy = aggregate_tags(&c.name, &members, &c.compact_tags);
        assert_eq!(sumy.len(), c.compact_tags.len());
    }
}

#[test]
fn microarray_probe_bias_limits_the_view() {
    // §2.2.1: "the experimenter must select the mRNA sequences to be
    // detected" — the chip only sees its printed probes, unlike SAGE.
    let config = GeneratorConfig::demo(42);
    let (corpus, truth) = generate(&config);
    let samples = synthesize_experiment(&truth, &config, &TissueType::Brain, 3, 3, 7);
    let matrix = to_expression_matrix(&samples, None).unwrap();
    // Every probe is a planted brain or housekeeping gene...
    for tid in matrix.tag_ids() {
        let tag = matrix.tag_of(tid);
        let gene = truth.gene_of_tag(tag).expect("probes are planted genes");
        assert!(
            gene.tissue.is_none() || gene.tissue == Some(TissueType::Brain),
            "{} probe is foreign",
            gene.gene
        );
    }
    // ...whereas the SAGE corpus observed tags the chip never could.
    let sage_union = corpus.tag_union();
    assert!(sage_union.len() > matrix.n_tags() * 10);
}
