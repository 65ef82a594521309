//! `repro` — regenerate every table and figure of the GEA thesis
//! evaluation.
//!
//! ```text
//! repro                 # run everything
//! repro --exp table-3.1 # one experiment
//! repro --list          # list experiment ids
//! repro --fast          # smaller workloads (CI-sized)
//! ```
//!
//! Output is plain text; `EXPERIMENTS.md` records a captured run against
//! the thesis's numbers.

use std::collections::BTreeMap;

use gea_bench::baselines::{compare_baselines, tissue_labels};
use gea_bench::populate_experiment::{index_choice_ablation, table_3_2, Table32Config};
use gea_bench::workloads::demo_matrix;
use gea_cluster::FascicleParams;
use gea_core::compare::{CompareOp, CompareQuery};
use gea_core::interval::{AllenRelation, Interval};
use gea_core::session::GeaSession;
use gea_core::topgap::{series_means, TopGapOrder};
use gea_core::EnumTable;
use gea_relstore::index_analysis;
use gea_sage::annotation::AnnotationCatalog;
use gea_sage::clean::{clean, CleaningConfig};
use gea_sage::library::LibraryProperty;
use gea_sage::{GroundTruth, NeoplasticState, SageCorpus, TissueType};

const SEED: u64 = 42;

struct Ctx {
    fast: bool,
    corpus: SageCorpus,
    truth: GroundTruth,
}

impl Ctx {
    fn session(&self) -> GeaSession {
        GeaSession::open(self.corpus.clone(), &CleaningConfig::default())
            .expect("cleaning succeeds")
    }
}

fn heading(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Mine a pure cancerous fascicle with outsiders, sweeping k as a thesis
/// user does. Prefers fascicles of at least three libraries, falling back
/// to pairs (breast has only four cancerous libraries in the demo corpus).
fn pure_cancer_fascicle(session: &mut GeaSession, tissue: &TissueType) -> Option<String> {
    let dataset = format!("E{}", tissue.name());
    if session.enum_table(&dataset).is_err() {
        session.create_tissue_dataset(&dataset, tissue).ok()?;
    }
    let n_tags = session.enum_table(&dataset).unwrap().n_tags();
    let n_cancer = session
        .enum_table(&dataset)
        .unwrap()
        .library_ids_where(|m| m.state == NeoplasticState::Cancerous)
        .len();
    for min_records in [3usize, 2] {
        for pct in [60, 55, 50, 45, 40] {
            let base = format!("{}{}m{}r", tissue.name(), pct, min_records);
            let names = session
                .calculate_fascicles(
                    &dataset,
                    &base,
                    0.10,
                    &FascicleParams {
                        min_compact_attrs: n_tags * pct / 100,
                        min_records,
                        batch_size: 6,
                    },
                )
                .ok()?;
            for f in names {
                let purity = session.purity_check(&f).ok()?;
                if purity.contains(&LibraryProperty::Cancer)
                    && session.fascicle(&f).unwrap().members.len() < n_cancer
                {
                    return Some(f);
                }
            }
        }
    }
    None
}

fn case1_gaps(session: &mut GeaSession, tissue: &TissueType) -> Option<(String, String, String)> {
    let fascicle = pure_cancer_fascicle(session, tissue)?;
    let groups = session
        .form_control_groups(&fascicle, LibraryProperty::Cancer)
        .ok()?;
    let nor = format!("{}_canvsnor", tissue.name());
    let cnif = format!("{}_canvscnif", tissue.name());
    session
        .create_gap(&nor, &groups.in_fascicle, &groups.contrast)
        .ok()?;
    session
        .create_gap(&cnif, &groups.in_fascicle, &groups.outside_fascicle)
        .ok()?;
    Some((fascicle, nor, cnif))
}

// ----------------------------------------------------------- experiments

fn exp_table_2_2(ctx: &Ctx) {
    heading("Table 2.2 — a fragment of the SAGE data");
    let stats = ctx.corpus.stats();
    println!(
        "(corpus: {} libraries, {} distinct raw tags)\n",
        stats.libraries, stats.union_tags
    );
    // First 5 abundant tags × first 8 libraries, raw counts.
    let lib_ids: Vec<_> = ctx.corpus.ids().take(8).collect();
    let union = ctx.corpus.tag_union();
    let tags: Vec<_> = union
        .iter()
        .map(|(_, t)| t)
        .filter(|&t| ctx.corpus.global_count(t) > 50)
        .take(5)
        .collect();
    print!("{:<22}", "Library/Tag");
    for t in &tags {
        print!("{t:>12}");
    }
    println!();
    for &id in &lib_ids {
        print!("{:<22}", ctx.corpus.meta(id).name);
        for &t in &tags {
            print!("{:>12}", ctx.corpus.library(id).count(t));
        }
        println!();
    }
}

fn exp_fig_3_5() {
    heading("Figure 3.5 — GAP = diff(SUMY1, SUMY2), the worked example");
    use gea_core::gap::diff;
    use gea_core::sumy::{SumyRow, SumyTable};
    let row = |tag: &str, no: u32, lo: f64, hi: f64, avg: f64, sd: f64| SumyRow {
        tag: tag.parse().unwrap(),
        tag_no: no,
        range: Interval::new(lo, hi).unwrap(),
        average: avg,
        std_dev: sd,
    };
    let sumy1 = SumyTable::new(
        "SUMY1",
        vec![
            row("AAAAAAAAAA", 1, 5.0, 5.0, 5.0, 0.0),
            row("CCCCCCCCCC", 2, 0.0, 7.0, 3.0, 1.0),
            row("GGGGGGGGGG", 3, 10.0, 120.0, 70.0, 15.0),
            row("TTTTTTTTTT", 4, 0.0, 20.0, 10.0, 4.0),
        ],
    );
    let sumy2 = SumyTable::new(
        "SUMY2",
        vec![
            row("AAAAAAAAAA", 1, 0.0, 14.0, 7.0, 1.0),
            row("GGGGGGGGGG", 3, 10.0, 130.0, 60.0, 25.0),
            row("TTTTTTTTTT", 4, 0.0, 12.0, 3.0, 1.0),
            row("ACGTACGTAC", 5, 0.0, 50.0, 20.0, 15.0),
        ],
    );
    let gap = diff("GAP", &sumy1, &sumy2);
    println!("(Tag1..Tag5 stand in as concrete tags)\n");
    println!("{:<14}{:>8}", "Tag Name", "Gap");
    for r in gap.rows() {
        println!(
            "{:<14}{:>8}",
            format!("Tag{}", r.tag_no),
            r.gap()
                .map(|g| format!("{g:+}"))
                .unwrap_or_else(|| "NULL".into())
        );
    }
    println!("\nthesis: Tag1 = -1, Tag3 = NULL, Tag4 = +2 — matched exactly.");
}

fn exp_fig_3_6() {
    heading("Figure 3.6 — GAP3 = minus(GAP1, GAP2); GAP4 = intersect(GAP1, GAP2)");
    use gea_core::gap::{GapRow, GapTable};
    use gea_core::setops::{gap_intersect, gap_minus};
    let table = |name: &str, rows: &[(u32, Option<f64>)]| {
        GapTable::new(
            name,
            vec!["Gap".to_string()],
            rows.iter()
                .map(|&(no, g)| GapRow {
                    tag: gea_sage::Tag::from_code(no * 11).unwrap(),
                    tag_no: no,
                    gaps: vec![g],
                })
                .collect(),
        )
    };
    let gap1 = table(
        "GAP1",
        &[(1, Some(-11.0)), (2, Some(2.0)), (3, None), (4, Some(5.0))],
    );
    let gap2 = table(
        "GAP2",
        &[
            (1, Some(-8.0)),
            (3, Some(9.0)),
            (4, Some(10.0)),
            (5, Some(11.0)),
        ],
    );
    let gap3 = gap_minus("GAP3", &gap1, &gap2);
    println!("GAP3 (thesis: only Tag2 = 2):");
    for r in gap3.rows() {
        println!("  Tag{} = {:?}", r.tag_no, r.gap());
    }
    let gap4 = gap_intersect("GAP4", &gap1, &gap2);
    println!("GAP4 (thesis: Tag1 = -11/-8, Tag3 = NULL/9, Tag4 = 5/10):");
    for r in gap4.rows() {
        let fmt = |g: Option<f64>| g.map(|v| format!("{v}")).unwrap_or_else(|| "NULL".into());
        println!("  Tag{} = {}/{}", r.tag_no, fmt(r.gaps[0]), fmt(r.gaps[1]));
    }
}

fn exp_table_3_1() {
    heading("Table 3.1 — indexes required to guarantee w hits (n=60,000, p=25,000, P>=0.999)");
    let rows = index_analysis::table_3_1(60_000, 25_000, 10, 0.999);
    let thesis = [17, 23, 27, 32, 36, 40, 44, 48, 51, 55];
    println!(
        "{:>3} {:>18} {:>10} {:>22}",
        "w", "m (binomial)", "thesis", "m (hypergeometric)"
    );
    for (row, &t) in rows.iter().zip(&thesis) {
        println!(
            "{:>3} {:>18} {:>10} {:>22}",
            row.w, row.m_binomial, t, row.m_hypergeometric
        );
    }
    println!(
        "\nbinomial model matches the thesis exactly; the exact \
         without-replacement model\nneeds fewer indexes (Table 3.1 is conservative)."
    );
}

fn exp_table_3_2(ctx: &Ctx) {
    heading("Table 3.2 — populate() saving per index hit");
    let config = if ctx.fast {
        Table32Config {
            n_tags: 6_000,
            p_sumy_tags: 2_500,
            repetitions: 3,
            ..Table32Config::default()
        }
    } else {
        Table32Config::default()
    };
    println!(
        "(n = {} tags, p = {} SUMY tags, {} libraries, {} cluster members)\n",
        config.n_tags, config.p_sumy_tags, config.n_libs, config.n_members
    );
    let rows = table_3_2(&config);
    let thesis = [0, 45, 76, 78, 85, 85, 85, 85, 90, 90, 90];
    println!(
        "{:>3} {:>11} {:>16} {:>14} {:>13}",
        "w", "candidates", "cell saving %", "time saving %", "thesis %"
    );
    for row in &rows {
        let t = thesis.get(row.w).copied().unwrap_or(0);
        println!(
            "{:>3} {:>11} {:>16.1} {:>14.1} {:>13}",
            row.w, row.candidates, row.cell_saving_pct, row.time_saving_pct, t
        );
    }
    println!(
        "\ncell saving reproduces the thesis's I/O-bound curve; in-memory wall \
         time differs\n(see EXPERIMENTS.md). scan = {:.1} ms.",
        rows[0].scan_seconds * 1e3
    );

    println!("\nAblation — entropy-ranked vs random index choice (whole-universe budget m):");
    let ms = if ctx.fast {
        vec![8, 32, 128]
    } else {
        vec![17, 32, 48, 128]
    };
    let ablation = index_choice_ablation(&config, &ms);
    println!(
        "{:>5} {:>14} {:>13} {:>17} {:>16}",
        "m", "hits(entropy)", "hits(random)", "saving(entropy)%", "saving(random)%"
    );
    for r in &ablation {
        println!(
            "{:>5} {:>14} {:>13} {:>17.1} {:>16.1}",
            r.m, r.hits_entropy, r.hits_random, r.saving_entropy_pct, r.saving_random_pct
        );
    }
}

fn exp_table_4_1() {
    heading("Table 4.1 — Allen's basic interval relations");
    let b = Interval::new(10.0, 20.0).unwrap();
    let examples = [
        Interval::new(1.0, 5.0).unwrap(),
        Interval::new(25.0, 30.0).unwrap(),
        Interval::new(5.0, 10.0).unwrap(),
        Interval::new(20.0, 25.0).unwrap(),
        Interval::new(5.0, 15.0).unwrap(),
        Interval::new(15.0, 25.0).unwrap(),
        Interval::new(12.0, 18.0).unwrap(),
        Interval::new(5.0, 25.0).unwrap(),
        Interval::new(10.0, 15.0).unwrap(),
        Interval::new(10.0, 25.0).unwrap(),
        Interval::new(15.0, 20.0).unwrap(),
        Interval::new(5.0, 20.0).unwrap(),
        Interval::new(10.0, 20.0).unwrap(),
    ];
    println!("{:<22} {:>7}   example A (B = {b})", "Relation", "Symbol");
    for a in examples {
        let rel = a.relation(b);
        println!("{:<22} {:>7}   {}", rel.meaning(), rel.symbol(), a);
    }
    // Completeness: all 13 relations occur above.
    let mut seen: Vec<AllenRelation> = examples.iter().map(|a| a.relation(b)).collect();
    seen.dedup();
    assert_eq!(seen.len(), 13);
}

fn marker_figure(ctx: &Ctx, session: &GeaSession, fascicle: &str, gene: &str, figure: &str) {
    let Some(tag) = ctx.truth.tag_of_gene(gene) else {
        println!("{figure}: {gene} not planted");
        return;
    };
    let points = match session.tag_plot("Ebrain", tag, fascicle) {
        Ok(p) if !p.is_empty() => p,
        _ => {
            println!("{figure}: {gene} tag not in the cleaned data");
            return;
        }
    };
    println!("\n{figure} — {gene} (tag {tag}):");
    for (series, mean, n) in series_means(&points) {
        println!("  {:<24} avg {:>8.1}  (n={})", series.label(), mean, n);
    }
}

fn exp_case_1(ctx: &Ctx) {
    heading("Case 1 / Figures 4.2, 4.3, 4.10 — cancerous vs normal brain");
    let mut session = ctx.session();
    let Some((fascicle, nor_gap, _)) = case1_gaps(&mut session, &TissueType::Brain) else {
        println!("no pure cancerous fascicle found");
        return;
    };
    let record = session.fascicle(&fascicle).unwrap().clone();
    println!(
        "fascicle {fascicle}: members {:?} ({} compact tags)",
        record.members,
        record.compact_tags.len()
    );
    let planted = ctx.truth.fascicle_members_of(&TissueType::Brain);
    println!("planted members:  {planted:?}");
    marker_figure(
        ctx,
        &session,
        &fascicle,
        "RIBOSOMAL PROTEIN L12",
        "Figure 4.2",
    );
    println!("  thesis: in-fascicle ~275, normal ~100 (positive gap)");
    marker_figure(ctx, &session, &fascicle, "ALPHA TUBULIN", "Figure 4.3");
    println!("  thesis: in-fascicle ~0, normal ~90 (negative gap)");

    // Figure 4.10: the top positive gap's distribution.
    let top = session
        .calculate_top_gap(&nor_gap, 1, TopGapOrder::HighestValue)
        .unwrap();
    if let Some(row) = session.gap(&top).unwrap().rows().first() {
        println!(
            "\nFigure 4.10 — top tag {} per-library distribution:",
            row.tag
        );
        let points = session.tag_plot("Ebrain", row.tag, &fascicle).unwrap();
        for p in points {
            println!(
                "  {:<24} {:>10.1}  [{}]",
                p.library,
                p.level,
                p.series.label()
            );
        }
    }
}

fn exp_case_2(ctx: &Ctx) {
    heading("Case 2 / Figure 4.11 — cancerous brain inside vs outside the fascicle");
    let mut session = ctx.session();
    let Some((fascicle, nor_gap, cnif_gap)) = case1_gaps(&mut session, &TissueType::Brain) else {
        println!("no pure cancerous fascicle found");
        return;
    };
    marker_figure(ctx, &session, &fascicle, "ADP PROTEIN", "Figure 4.11");
    println!("  thesis: in-fascicle much lower than outside (outside avg ~11)");
    let mean_abs = |name: &str| {
        let vals: Vec<f64> = session
            .gap(name)
            .unwrap()
            .rows()
            .iter()
            .filter_map(|r| r.gap())
            .map(f64::abs)
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    println!(
        "\nmean |gap|: vs normal = {:.1}, inside-vs-outside = {:.1}",
        mean_abs(&nor_gap),
        mean_abs(&cnif_gap)
    );
    println!(
        "thesis section 4.3.2: gaps vs normal are larger than inside-vs-outside — {}",
        if mean_abs(&nor_gap) > mean_abs(&cnif_gap) {
            "confirmed"
        } else {
            "NOT confirmed"
        }
    );
}

fn exp_case_3(ctx: &Ctx) {
    heading("Case 3 / Figure 4.13 — genes always lower in cancer (brain & breast)");
    let mut session = ctx.session();
    let (Some((_, brain_gap, _)), Some((_, breast_gap, _))) = (
        case1_gaps(&mut session, &TissueType::Brain),
        case1_gaps(&mut session, &TissueType::Breast),
    ) else {
        println!("fascicle mining failed");
        return;
    };
    for (i, (query, label)) in [
        (
            CompareQuery::LowerInAInBoth,
            "query 2 (lower in cancer, both)",
        ),
        (
            CompareQuery::HigherInAInBoth,
            "query 1 (higher in cancer, both)",
        ),
        (CompareQuery::NonNullInBoth, "query 5 (non-null in both)"),
    ]
    .into_iter()
    .enumerate()
    {
        let name = format!("case3_q{i}");
        session
            .compare_gaps(&name, &brain_gap, &breast_gap, CompareOp::Intersect, query)
            .unwrap();
        let result = session.gap(&name).unwrap();
        println!("{label}: {} tags", result.len());
        for r in result.rows().iter().take(5) {
            println!(
                "  {}_({})  {:+.2} / {:+.2}",
                r.tag,
                r.tag_no,
                r.gaps[0].unwrap_or(f64::NAN),
                r.gaps[1].unwrap_or(f64::NAN)
            );
        }
    }
}

fn exp_case_4(ctx: &Ctx) {
    heading("Case 4 / Figure 4.14 — genes unique to brain cancer (brain - breast)");
    let mut session = ctx.session();
    let (Some((_, brain_gap, _)), Some((_, breast_gap, _))) = (
        case1_gaps(&mut session, &TissueType::Brain),
        case1_gaps(&mut session, &TissueType::Breast),
    ) else {
        println!("fascicle mining failed");
        return;
    };
    session
        .compare_gaps(
            "brainBreastDiff1",
            &brain_gap,
            &breast_gap,
            CompareOp::Difference,
            CompareQuery::LowerInAInBoth,
        )
        .unwrap();
    let unique = session.gap("brainBreastDiff1").unwrap();
    println!(
        "tags with a negative cancer gap unique to brain: {}",
        unique.len()
    );
    let catalog = AnnotationCatalog::synthesize(&ctx.truth, SEED, 0.95);
    for r in unique.rows().iter().take(8) {
        let gene = catalog
            .gene_for_tag(r.tag)
            .map(|g| g.gene.as_str())
            .unwrap_or("(unmapped)");
        println!(
            "  {}_({})  {:+.2}  {}",
            r.tag,
            r.tag_no,
            r.gaps[0].unwrap(),
            gene
        );
    }
}

fn exp_case_5(ctx: &Ctx) {
    heading("Case 5 / Figure 4.15 — verification with user-defined ENUM tables");
    let mut session = ctx.session();
    let Some((fascicle, ..)) = case1_gaps(&mut session, &TissueType::Brain) else {
        println!("fascicle mining failed");
        return;
    };
    let members = session.fascicle(&fascicle).unwrap().members.clone();
    let keep: Vec<String> = session
        .base()
        .libraries()
        .iter()
        .filter(|m| m.tissue == TissueType::Brain)
        .map(|m| m.name.clone())
        .filter(|n| !n.ends_with("N09"))
        .collect();
    let refs: Vec<&str> = keep.iter().map(|s| s.as_str()).collect();
    session.create_custom_dataset("newBrain", &refs).unwrap();
    println!(
        "user-defined data set newBrain: {} libraries (one normal removed)",
        keep.len()
    );
    let n_tags = session.enum_table("newBrain").unwrap().n_tags();
    let mut recovered = false;
    for pct in [60, 55, 50, 45, 40] {
        let names = session
            .calculate_fascicles(
                "newBrain",
                &format!("nb{pct}"),
                0.10,
                &FascicleParams {
                    min_compact_attrs: n_tags * pct / 100,
                    min_records: 3,
                    batch_size: 6,
                },
            )
            .unwrap();
        for f in &names {
            if session.fascicle(f).unwrap().members == members {
                recovered = true;
            }
        }
        if recovered {
            break;
        }
    }
    println!(
        "original fascicle {members:?} recovered on the reduced data set: {}",
        if recovered { "yes" } else { "NO" }
    );
}

fn exp_cleaning(ctx: &Ctx) {
    heading("Section 4.2 — pre-processing and data cleaning");
    let (_, report) = clean(&ctx.corpus, &CleaningConfig::default());
    println!(
        "raw union: {} tags -> kept {} ({:.0}% removed; thesis: 350k -> 60k, ~83%)",
        report.raw_union_tags,
        report.kept_tags,
        100.0 * report.removed_fraction()
    );
    println!(
        "frequency-1 fraction of unique tags: {:.0}% (thesis estimate: >80%)",
        100.0 * report.freq1_union_fraction
    );
    let (min, max) = report
        .removed_fraction_per_library
        .iter()
        .fold((1.0f64, 0.0f64), |(lo, hi), &f| (lo.min(f), hi.max(f)));
    println!(
        "per-library distinct tags removed: {:.0}%-{:.0}% (thesis: 5%-15%; our \
         generator is singleton-heavier)",
        100.0 * min,
        100.0 * max
    );
    println!("every library normalized to 300,000 total tags");
}

fn exp_eadb(ctx: &Ctx) {
    heading("Figure 4.22 — Expression Analysis Database search chain");
    let catalog = AnnotationCatalog::synthesize(&ctx.truth, SEED, 0.92);
    let tag = ctx
        .truth
        .tag_of_gene("RIBOSOMAL PROTEIN L12")
        .expect("marker planted");
    let report = catalog.lookup_chain(tag);
    println!("tag {tag}:");
    if let Some(g) = &report.gene {
        println!("  gene:     {} ({})", g.gene, g.unigene_id);
    }
    if let Some(p) = &report.protein {
        println!("  protein:  {} ({} aa)", p.accession, p.sequence.len());
    }
    for pw in &report.pathways {
        println!("  pathway:  {} — {}", pw.pathway_id, pw.name);
    }
    for d in &report.diseases {
        println!("  disease:  OMIM {} — {}", d.omim_id, d.name);
    }
    for publication in &report.publications {
        println!("  pubmed:   [{}] {}", publication.pmid, publication.title);
    }
    println!(
        "\ncatalog coverage: {} of {} planted genes mapped",
        catalog.mapped_tags(),
        ctx.truth.genes.len()
    );
}

fn exp_lineage(ctx: &Ctx) {
    heading("Figure 4.18 — the lineage feature");
    let mut session = ctx.session();
    if case1_gaps(&mut session, &TissueType::Brain).is_none() {
        println!("fascicle mining failed");
        return;
    }
    println!("{}", session.lineage().render_tree());
}

fn exp_baselines(ctx: &Ctx) {
    heading("Baselines — fascicles vs k-means vs hierarchical vs SOM (tissue recovery)");
    let (matrix, _) = clean(&ctx.corpus, &CleaningConfig::default());
    let base = EnumTable::new("SAGE", matrix);
    let labels = tissue_labels(&base);
    let rows = compare_baselines(&base, &labels, &[0.5, 0.4, 0.3], SEED);
    println!(
        "{:<24} {:>8} {:>11} {:>10} {:>9}",
        "algorithm", "purity", "rand index", "clusters", "covered"
    );
    for r in &rows {
        println!(
            "{:<24} {:>8.2} {:>11.2} {:>10} {:>9}",
            r.algorithm, r.purity, r.rand_index, r.clusters, r.covered
        );
    }
    println!(
        "\n(purity against tissue-type labels; fascicles additionally yield \
         compact-tag signatures,\nwhich the distance baselines cannot — the \
         thesis's reason for choosing them)"
    );
}

fn exp_xprofiler(ctx: &Ctx) {
    heading("xProfiler baseline (section 2.3.3) vs GEA's mined-group gaps");
    use gea_core::xprofiler::{compare_cancer_vs_normal, compare_pools};
    let mut session = ctx.session();
    let Some((fascicle, nor_gap, _)) = case1_gaps(&mut session, &TissueType::Brain) else {
        println!("fascicle mining failed");
        return;
    };
    let brain = session.enum_table("Ebrain").unwrap().clone();
    let truth = &ctx.truth;
    let planted_diff: std::collections::HashSet<_> = truth
        .genes
        .iter()
        .filter(|g| {
            g.response != gea_sage::generate::CancerResponse::Unchanged
                && (g.tissue == Some(TissueType::Brain) || g.tissue.is_none())
        })
        .map(|g| g.tag)
        .collect();
    let score = |tags: Vec<gea_sage::Tag>| -> (usize, usize, f64, f64) {
        let hits = tags.iter().filter(|t| planted_diff.contains(t)).count();
        let precision = hits as f64 / tags.len().max(1) as f64;
        let recall = hits as f64 / planted_diff.len().max(1) as f64;
        (tags.len(), hits, precision, recall)
    };

    // 1. Naive xProfiler grouping: every cancerous vs every normal library.
    let naive = compare_cancer_vs_normal(&brain).expect("brain holds both states");
    let naive_tags: Vec<_> = naive.significant(0.05).iter().map(|r| r.tag).collect();
    let (n, h, prec, rec) = score(naive_tags);
    println!("xProfiler, naive pools (all cancer vs all normal):");
    println!("  {n} significant tags; {h} planted ({prec:.2} precision, {rec:.2} recall)");

    // 2. Informed xProfiler grouping: the mined fascicle vs normals.
    let members = session.fascicle(&fascicle).unwrap().members.clone();
    let member_ids = brain.library_ids_where(|m| members.contains(&m.name));
    let normal_ids = brain.library_ids_where(|m| m.state == NeoplasticState::Normal);
    let informed =
        compare_pools(&brain, &member_ids, &normal_ids).expect("a fascicle and the normals");
    let informed_tags: Vec<_> = informed.significant(0.05).iter().map(|r| r.tag).collect();
    let (n, h, prec, rec) = score(informed_tags);
    println!("xProfiler, GEA-mined pools (fascicle vs normal):");
    println!("  {n} significant tags; {h} planted ({prec:.2} precision, {rec:.2} recall)");

    // 3. GEA's own candidates: non-NULL gaps of the fascicle-vs-normal GAP.
    let gap_tags: Vec<_> = session
        .gap(&nor_gap)
        .unwrap()
        .drop_null_gaps("nn")
        .project_tags();
    let (n, h, prec, rec) = score(gap_tags);
    println!("GEA gap candidates (non-NULL gaps, fascicle vs normal):");
    println!("  {n} candidate tags; {h} planted ({prec:.2} precision, {rec:.2} recall)");
    println!("\n(the thesis's point: xProfiler needs the user to guess the pools;");
    println!("GEA mines them — and its GAP output carries per-tag separation magnitudes.");
    println!("Measured trade-off: pooled z-tests maximize recall but drown the analyst in");
    println!("false positives; GEA's gap criterion is the higher-precision screen.)");
}

fn exp_compression(ctx: &Ctx) {
    heading("Ablation — fascicle semantic compression vs k (VLDB'99's original use)");
    use gea_cluster::compression::compress;
    use gea_cluster::{mine_greedy, ToleranceVector};
    use gea_core::mine::MatrixView;
    let session = ctx.session();
    let brain = session.base().select_tissue("Eb", &TissueType::Brain);
    let view = MatrixView::new(&brain);
    let tol = ToleranceVector::from_width_fraction(&view, 0.10);
    println!(
        "{:>5} {:>10} {:>13} {:>12} {:>18}",
        "k %", "fascicles", "cells saved", "ratio %", "max err/tolerance"
    );
    for pct in [70, 60, 50, 40, 30] {
        let params = FascicleParams {
            min_compact_attrs: brain.n_tags() * pct / 100,
            min_records: 2,
            batch_size: 6,
        };
        let fascicles = mine_greedy(&view, &tol, &params);
        let summary = compress(&view, &fascicles, &tol);
        println!(
            "{:>5} {:>10} {:>13} {:>12.1} {:>18.2}",
            pct,
            fascicles.len(),
            summary.cells_saved,
            100.0 * summary.ratio(),
            summary.max_relative_error
        );
    }
    println!(
        "
(lower k admits looser, larger fascicles: more cells elided, error          still bounded by
the tolerance — the storage/precision dial of the          original fascicle paper)"
    );
}

fn exp_complexity(ctx: &Ctx) {
    heading("Section 3.3.1 — operation complexity (scaling sanity check)");
    use std::time::Instant;
    let (matrix, _) = clean(&ctx.corpus, &CleaningConfig::default());
    let base = EnumTable::new("SAGE", matrix);
    // aggregate() is one pass: time should scale ~linearly in tags.
    for frac in [4usize, 2, 1] {
        let keep = base.n_tags() / frac;
        let tag_ids: Vec<_> = (0..keep as u32).map(gea_sage::TagId).collect();
        let sub = base.select_tags("sub", &tag_ids);
        let start = Instant::now();
        let sumy = gea_core::aggregate("s", &sub.matrix);
        let dt = start.elapsed().as_secs_f64();
        println!(
            "aggregate over {:>6} tags x {} libraries: {:>8.3} ms ({} rows)",
            keep,
            sub.n_libraries(),
            dt * 1e3,
            sumy.len()
        );
    }
    // diff() is linear in tags.
    let sumy = gea_core::aggregate("all", &base.matrix);
    let start = Instant::now();
    let gap = gea_core::diff("g", &sumy, &sumy);
    println!(
        "diff over {} tags: {:.3} ms ({} rows)",
        sumy.len(),
        start.elapsed().as_secs_f64() * 1e3,
        gap.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let exp = args
        .iter()
        .position(|a| a == "--exp")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let mut experiments: BTreeMap<&str, &str> = BTreeMap::new();
    for (id, desc) in [
        ("table-2.2", "fragment of the SAGE data"),
        ("fig-3.5", "diff() worked example"),
        ("fig-3.6", "set-operation worked example"),
        ("table-3.1", "index budget analysis"),
        (
            "table-3.2",
            "populate() savings per index hit + index-choice ablation",
        ),
        ("table-4.1", "Allen interval relations"),
        ("case-1", "cancerous vs normal brain (Figures 4.2/4.3/4.10)"),
        ("case-2", "inside vs outside the fascicle (Figure 4.11)"),
        ("case-3", "consistent genes across tissues (Figure 4.13)"),
        ("case-4", "tissue-unique genes (Figure 4.14)"),
        ("case-5", "user-defined ENUM verification (Figure 4.15)"),
        ("cleaning", "section 4.2 pre-processing statistics"),
        ("eadb", "annotation search chain (Figure 4.22)"),
        ("lineage", "operation history (Figure 4.18)"),
        ("baselines", "clustering algorithm comparison"),
        ("xprofiler", "pooled-comparison baseline vs GEA gaps"),
        ("compression", "fascicle semantic-compression ablation"),
        ("complexity", "section 3.3.1 operation scaling"),
    ] {
        experiments.insert(id, desc);
    }

    if args.iter().any(|a| a == "--list") {
        for (id, desc) in &experiments {
            println!("{id:<12} {desc}");
        }
        return;
    }
    if let Some(e) = &exp {
        if !experiments.contains_key(e.as_str()) {
            eprintln!("unknown experiment {e:?}; use --list");
            std::process::exit(1);
        }
    }

    let (corpus, truth) = demo_matrix(SEED);
    let ctx = Ctx {
        fast,
        corpus,
        truth,
    };

    let run = |id: &str| exp.as_deref().map(|e| e == id).unwrap_or(true);
    if run("table-2.2") {
        exp_table_2_2(&ctx);
    }
    if run("fig-3.5") {
        exp_fig_3_5();
    }
    if run("fig-3.6") {
        exp_fig_3_6();
    }
    if run("table-3.1") {
        exp_table_3_1();
    }
    if run("table-3.2") {
        exp_table_3_2(&ctx);
    }
    if run("table-4.1") {
        exp_table_4_1();
    }
    if run("case-1") {
        exp_case_1(&ctx);
    }
    if run("case-2") {
        exp_case_2(&ctx);
    }
    if run("case-3") {
        exp_case_3(&ctx);
    }
    if run("case-4") {
        exp_case_4(&ctx);
    }
    if run("case-5") {
        exp_case_5(&ctx);
    }
    if run("cleaning") {
        exp_cleaning(&ctx);
    }
    if run("eadb") {
        exp_eadb(&ctx);
    }
    if run("lineage") {
        exp_lineage(&ctx);
    }
    if run("baselines") {
        exp_baselines(&ctx);
    }
    if run("xprofiler") {
        exp_xprofiler(&ctx);
    }
    if run("compression") {
        exp_compression(&ctx);
    }
    if run("complexity") {
        exp_complexity(&ctx);
    }
}
