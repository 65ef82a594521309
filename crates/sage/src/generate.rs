//! Synthetic SAGE corpus generation.
//!
//! The thesis evaluates GEA on the NCBI CGAP SAGE collection circa 2001
//! (100 libraries, nine tissue types). That snapshot is not available
//! offline, so this module generates a corpus that reproduces every
//! statistical property the thesis's pipeline and case studies depend on:
//!
//! * **High dimensionality**: a large pool of gene tags plus per-library
//!   sequencing-error singletons inflate the raw tag union (the thesis's
//!   350k → 60k cleaning ratio).
//! * **Error structure**: ~10–20 % of each library's total tag count comes
//!   from frequency-1 mis-reads, so that > 80 % of unique tags are
//!   frequency-1 (§4.2's cleaning premises).
//! * **Tissue specificity**: most genes are expressed in a single home
//!   tissue; housekeeping genes are expressed everywhere (§2.1).
//! * **Cancer differential expression**: per tissue, planted gene sets are
//!   up- or down-regulated in cancerous libraries.
//! * **Fascicle structure**: a subset of each tissue's cancerous libraries
//!   agree tightly (low variance) on a signature tag set, so the Fascicles
//!   algorithm can find a pure cancerous fascicle (Case 1).
//! * **Named markers**: genes such as RIBOSOMAL PROTEIN L12 and ALPHA
//!   TUBULIN are planted with the group means of Figures 4.2, 4.3 and 4.11.
//!
//! Generation is fully deterministic given the seed.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::corpus::SageCorpus;
use crate::library::{LibraryMeta, NeoplasticState, SageLibrary, TissueSource, TissueType};
use crate::tag::{Tag, TAG_SPACE};

/// How many libraries of each kind a tissue contributes.
#[derive(Debug, Clone, PartialEq)]
pub struct TissueConfig {
    /// The tissue type.
    pub tissue: TissueType,
    /// Number of cancerous libraries.
    pub n_cancer: usize,
    /// Number of normal libraries.
    pub n_normal: usize,
    /// Fraction of libraries derived from cell lines rather than bulk
    /// tissue.
    pub cell_line_fraction: f64,
}

/// A named marker gene planted with specific group means so the thesis's
/// case-study figures reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkerGene {
    /// Gene name, e.g. `"RIBOSOMAL PROTEIN L12"`.
    pub gene: String,
    /// The tissue whose case study features this marker.
    pub tissue: TissueType,
    /// Mean normalized expression in cancerous libraries inside the planted
    /// fascicle.
    pub mean_cancer_in_fascicle: f64,
    /// Mean in cancerous libraries outside the planted fascicle.
    pub mean_cancer_outside: f64,
    /// Mean in normal libraries of the tissue.
    pub mean_normal: f64,
}

/// Full generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// RNG seed; the corpus is a pure function of the config.
    pub seed: u64,
    /// Tissues and their library counts.
    pub tissues: Vec<TissueConfig>,
    /// Genes expressed in every library regardless of tissue.
    pub n_housekeeping_genes: usize,
    /// Of the housekeeping genes, how many respond to cancer in *every*
    /// tissue (half up, half down) — proliferation-style genes, the prey
    /// of Case 3's cross-tissue screen.
    pub n_universal_diff_genes: usize,
    /// Tissue-specific genes *per tissue*.
    pub n_tissue_genes: usize,
    /// Of the tissue-specific genes, how many are differentially expressed
    /// in cancer (half up-regulated, half down-regulated).
    pub n_cancer_diff_genes: usize,
    /// Size of the planted fascicle signature (tags on which in-fascicle
    /// cancer libraries agree tightly) per tissue.
    pub fascicle_signature_size: usize,
    /// Fraction of each tissue's cancerous libraries placed inside the
    /// planted fascicle.
    pub fascicle_fraction: f64,
    /// Range of per-library sequencing depth (total tag count), inclusive.
    pub depth_range: (u64, u64),
    /// Fraction of each library's total count contributed by frequency-1
    /// sequencing-error tags (§4.2 estimates ~10–20 %).
    pub error_count_fraction: f64,
    /// Named markers to plant.
    pub markers: Vec<MarkerGene>,
    /// Multiplier applied to differential genes in cancerous libraries
    /// (up-regulated genes ×f, down-regulated ×1/f).
    pub cancer_fold_change: f64,
    /// Relative noise (coefficient of variation) on library expression
    /// outside the fascicle; in-fascicle signature tags get a tenth of it.
    pub noise_cv: f64,
    /// Fraction of a tissue gene's home-level expressed in *foreign*
    /// tissues. SAGE only counts present transcripts, so this is near zero
    /// in reality; a small value emulates sample cross-contamination.
    pub foreign_leak: f64,
}

impl GeneratorConfig {
    /// The three markers of the thesis's case-study figures, planted in
    /// brain tissue.
    pub fn thesis_markers() -> Vec<MarkerGene> {
        vec![
            // Figure 4.2: positive gap — higher in cancer-in-fascicle (~275)
            // than normal (~100).
            MarkerGene {
                gene: "RIBOSOMAL PROTEIN L12".to_string(),
                tissue: TissueType::Brain,
                mean_cancer_in_fascicle: 275.0,
                mean_cancer_outside: 180.0,
                mean_normal: 100.0,
            },
            // Figure 4.3: negative gap — near zero in cancer-in-fascicle,
            // ~90 in normal.
            MarkerGene {
                gene: "ALPHA TUBULIN".to_string(),
                tissue: TissueType::Brain,
                mean_cancer_in_fascicle: 2.0,
                mean_cancer_outside: 35.0,
                mean_normal: 90.0,
            },
            // Figure 4.11: lower inside the fascicle than outside it
            // (outside average ~11).
            MarkerGene {
                gene: "ADP PROTEIN".to_string(),
                tissue: TissueType::Brain,
                mean_cancer_in_fascicle: 1.0,
                mean_cancer_outside: 11.0,
                mean_normal: 9.0,
            },
        ]
    }

    /// A small, fast corpus for tests and examples: brain + breast + colon,
    /// 21 libraries, ~1,500 genes.
    pub fn demo(seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            seed,
            tissues: vec![
                TissueConfig {
                    tissue: TissueType::Brain,
                    n_cancer: 6,
                    n_normal: 4,
                    cell_line_fraction: 0.3,
                },
                TissueConfig {
                    tissue: TissueType::Breast,
                    n_cancer: 4,
                    n_normal: 3,
                    cell_line_fraction: 0.3,
                },
                TissueConfig {
                    tissue: TissueType::Colon,
                    n_cancer: 2,
                    n_normal: 2,
                    cell_line_fraction: 0.3,
                },
            ],
            n_housekeeping_genes: 160,
            // Enough universally cancer-responsive genes that Case 3's
            // two-tissue intersection (each side also requires fascicle
            // compactness) reliably surfaces several.
            n_universal_diff_genes: 60,
            n_tissue_genes: 450,
            n_cancer_diff_genes: 60,
            fascicle_signature_size: 200,
            fascicle_fraction: 0.5,
            // Deep enough that a marker at ~10 counts per 300,000 is
            // representable as a raw count ≥ 1 (Figure 4.11's ADP PROTEIN).
            depth_range: (24_000, 48_000),
            error_count_fraction: 0.18,
            markers: GeneratorConfig::thesis_markers(),
            cancer_fold_change: 4.0,
            noise_cv: 0.18,
            foreign_leak: 0.01,
        }
    }

    /// A corpus shaped like the thesis's data set: nine tissue types,
    /// 100 libraries, tens of thousands of genes, 1k–32k depth. Used by the
    /// bench harness (Tables 3.1/3.2 are computed at n = 60,000 tags).
    pub fn thesis_scale(seed: u64) -> GeneratorConfig {
        let mut tissues = Vec::new();
        // 100 libraries spread over the nine system tissue types, brain
        // heaviest as in the real collection (24 brain libraries).
        let plan: [(TissueType, usize, usize); 9] = [
            (TissueType::Brain, 14, 10),
            (TissueType::Breast, 8, 6),
            (TissueType::Prostate, 7, 5),
            (TissueType::Ovary, 6, 4),
            (TissueType::Colon, 7, 5),
            (TissueType::Pancreas, 5, 4),
            (TissueType::Vascular, 4, 3),
            (TissueType::Skin, 4, 3),
            (TissueType::Kidney, 3, 2),
        ];
        for (tissue, n_cancer, n_normal) in plan {
            tissues.push(TissueConfig {
                tissue,
                n_cancer,
                n_normal,
                cell_line_fraction: 0.35,
            });
        }
        GeneratorConfig {
            seed,
            tissues,
            n_housekeeping_genes: 600,
            n_universal_diff_genes: 80,
            n_tissue_genes: 2_400,
            n_cancer_diff_genes: 300,
            fascicle_signature_size: 900,
            fascicle_fraction: 0.5,
            depth_range: (1_000, 32_000),
            error_count_fraction: 0.18,
            markers: GeneratorConfig::thesis_markers(),
            cancer_fold_change: 4.0,
            noise_cv: 0.18,
            // At 100 libraries the sparse leaked singletons would swamp the
            // planted structure with inter-group compactness noise; keep
            // the leak at trace level, as the SAGE protocol implies.
            foreign_leak: 0.001,
        }
    }
}

/// How a planted gene responds to cancer in its home tissue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancerResponse {
    /// Expressed identically in cancerous and normal tissue.
    Unchanged,
    /// Up-regulated in cancer.
    Up,
    /// Down-regulated in cancer.
    Down,
}

/// One planted gene: the generator's unit of ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantedGene {
    /// Synthetic gene symbol (`HK0001`, `BRAIN_G0042`, or a marker name).
    pub gene: String,
    /// The tag transcribed from this gene.
    pub tag: Tag,
    /// Home tissue; `None` for housekeeping genes expressed everywhere.
    pub tissue: Option<TissueType>,
    /// Cancer response in the home tissue.
    pub response: CancerResponse,
    /// Whether the tag belongs to the tissue's fascicle signature.
    pub in_fascicle_signature: bool,
    /// Baseline normalized abundance in the home tissue (counts per
    /// 300,000).
    pub base_level: f64,
}

/// Ground truth emitted alongside the corpus, used by tests and the bench
/// harness to verify that analyses recover the planted structure.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Every planted gene.
    pub genes: Vec<PlantedGene>,
    /// Library names inside the planted fascicle, per tissue.
    pub fascicle_members: BTreeMap<String, Vec<String>>,
}

impl GroundTruth {
    /// Tag planted for a named gene, if any.
    pub fn tag_of_gene(&self, gene: &str) -> Option<Tag> {
        self.genes.iter().find(|g| g.gene == gene).map(|g| g.tag)
    }

    /// The planted gene transcribing `tag`, if any (tags map to at most one
    /// gene, as in UNIGENE).
    pub fn gene_of_tag(&self, tag: Tag) -> Option<&PlantedGene> {
        self.genes.iter().find(|g| g.tag == tag)
    }

    /// Names of libraries planted inside the fascicle of `tissue`.
    pub fn fascicle_members_of(&self, tissue: &TissueType) -> &[String] {
        self.fascicle_members
            .get(tissue.name())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Signature tags of `tissue`'s planted fascicle.
    pub fn signature_tags(&self, tissue: &TissueType) -> Vec<Tag> {
        self.genes
            .iter()
            .filter(|g| g.in_fascicle_signature && g.tissue.as_ref() == Some(tissue))
            .map(|g| g.tag)
            .collect()
    }
}

/// Deterministic generator state.
struct Generator {
    rng: StdRng,
    used_tags: std::collections::HashSet<Tag>,
}

impl Generator {
    fn new(seed: u64) -> Generator {
        Generator {
            rng: StdRng::seed_from_u64(seed),
            used_tags: std::collections::HashSet::new(),
        }
    }

    /// Draw a tag not yet assigned to a gene.
    fn fresh_tag(&mut self) -> Tag {
        loop {
            let code = self.rng.gen_range(0..TAG_SPACE);
            let tag = Tag::from_code(code).expect("in range");
            if self.used_tags.insert(tag) {
                return tag;
            }
        }
    }

    /// Draw a tag that is *not* a gene tag, for sequencing errors.
    fn error_tag(&mut self) -> Tag {
        loop {
            let code = self.rng.gen_range(0..TAG_SPACE);
            let tag = Tag::from_code(code).expect("in range");
            if !self.used_tags.contains(&tag) {
                return tag;
            }
        }
    }

    /// Standard normal via Box–Muller (rand 0.8 without rand_distr).
    fn std_normal(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Multiplicative log-normal noise with coefficient of variation ~cv.
    fn noise(&mut self, cv: f64) -> f64 {
        if cv <= 0.0 {
            return 1.0;
        }
        let sigma = (1.0 + cv * cv).ln().sqrt();
        let mu = -0.5 * sigma * sigma;
        (mu + sigma * self.std_normal()).exp()
    }

    /// Poisson sample: Knuth's method for small means, normal
    /// approximation for large ones. SAGE tag counts are Poisson draws
    /// from the transcript pool, which is what gives low-abundance tags
    /// their occasional count-2 observations (the §4.2 cleaning
    /// ambiguity).
    fn poisson(&mut self, lambda: f64) -> u32 {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda < 30.0 {
            let limit = (-lambda).exp();
            let mut product: f64 = self.rng.gen_range(0.0..1.0);
            let mut count = 0u32;
            while product > limit {
                product *= self.rng.gen_range(0.0..1.0f64);
                count += 1;
            }
            count
        } else {
            let sample = lambda + lambda.sqrt() * self.std_normal();
            sample.round().max(0.0) as u32
        }
    }

    /// Heavy-tailed baseline abundance: a few hundred counts for common
    /// transcripts, single digits for rare ones.
    fn base_level(&mut self) -> f64 {
        // log-uniform between 1 and ~400 counts per 300k.
        let log = self.rng.gen_range(0.0..=1.0f64) * 400.0f64.ln();
        log.exp()
    }

    /// Abundance for fascicle-signature genes: log-uniform between ~300
    /// and ~3,000 counts per 300k. Signature agreement must be visible
    /// above Poisson shot noise (relative sd ~ 1/sqrt(level)), so the
    /// signature lives in abundant transcripts — as real compact tags do:
    /// a range tolerance can only be meaningfully tight for tags whose
    /// counts are well above the sampling floor.
    fn signature_level(&mut self) -> f64 {
        let lo = 300.0f64.ln();
        let hi = 3000.0f64.ln();
        self.rng.gen_range(lo..hi).exp()
    }
}

/// Generate a corpus and its ground truth from a configuration.
pub fn generate(config: &GeneratorConfig) -> (SageCorpus, GroundTruth) {
    let mut g = Generator::new(config.seed);
    let mut truth = GroundTruth::default();

    // --- plant genes -----------------------------------------------------
    for i in 0..config.n_housekeeping_genes {
        let tag = g.fresh_tag();
        let base_level = g.base_level();
        let response = if i < config.n_universal_diff_genes / 2 {
            CancerResponse::Up
        } else if i < config.n_universal_diff_genes {
            CancerResponse::Down
        } else {
            CancerResponse::Unchanged
        };
        truth.genes.push(PlantedGene {
            gene: format!("HK{i:04}"),
            tag,
            tissue: None,
            response,
            in_fascicle_signature: false,
            base_level,
        });
    }
    for tc in &config.tissues {
        let upper = tc.tissue.name().to_uppercase();
        for i in 0..config.n_tissue_genes {
            let tag = g.fresh_tag();
            let response = if i < config.n_cancer_diff_genes / 2 {
                CancerResponse::Up
            } else if i < config.n_cancer_diff_genes {
                CancerResponse::Down
            } else {
                CancerResponse::Unchanged
            };
            let in_sig = i < config.fascicle_signature_size;
            let base_level = if in_sig {
                g.signature_level()
            } else {
                g.base_level()
            };
            truth.genes.push(PlantedGene {
                gene: format!("{upper}_G{i:04}"),
                tag,
                tissue: Some(tc.tissue.clone()),
                response,
                in_fascicle_signature: in_sig,
                base_level,
            });
        }
        // Markers for this tissue.
        for m in config.markers.iter().filter(|m| m.tissue == tc.tissue) {
            let tag = g.fresh_tag();
            truth.genes.push(PlantedGene {
                gene: m.gene.clone(),
                tag,
                tissue: Some(tc.tissue.clone()),
                response: CancerResponse::Unchanged, // marker means are explicit
                in_fascicle_signature: false,
                base_level: m.mean_normal,
            });
        }
    }

    // --- build libraries ---------------------------------------------------
    let mut corpus = SageCorpus::new();
    for tc in &config.tissues {
        let n_in_fascicle = ((tc.n_cancer as f64) * config.fascicle_fraction).round() as usize;
        let mut members = Vec::new();
        for k in 0..(tc.n_cancer + tc.n_normal) {
            let cancerous = k < tc.n_cancer;
            let in_fascicle = cancerous && k < n_in_fascicle;
            let state = if cancerous {
                NeoplasticState::Cancerous
            } else {
                NeoplasticState::Normal
            };
            let source = if g.rng.gen_bool(tc.cell_line_fraction) {
                TissueSource::CellLine
            } else {
                TissueSource::BulkTissue
            };
            let name = format!(
                "SAGE_{}_{}{:02}",
                tc.tissue.name(),
                if cancerous { "C" } else { "N" },
                k
            );
            if in_fascicle {
                members.push(name.clone());
            }
            let meta = LibraryMeta {
                name,
                tissue: tc.tissue.clone(),
                state,
                source,
            };
            let lib = synthesize_library(
                &mut g,
                config,
                &truth,
                meta,
                &tc.tissue,
                cancerous,
                in_fascicle,
            );
            corpus.add(lib);
        }
        truth
            .fascicle_members
            .insert(tc.tissue.name().to_string(), members);
    }
    (corpus, truth)
}

/// Expected relative abundance of one *non-marker* planted gene in one
/// library context.
fn expected_level(
    config: &GeneratorConfig,
    gene: &PlantedGene,
    tissue: &TissueType,
    cancerous: bool,
) -> f64 {
    match &gene.tissue {
        None => {
            // Housekeeping: expressed everywhere; universal-diff genes
            // respond to cancer in every tissue.
            let mut level = gene.base_level;
            if cancerous {
                match gene.response {
                    CancerResponse::Up => level *= config.cancer_fold_change,
                    CancerResponse::Down => level /= config.cancer_fold_change,
                    CancerResponse::Unchanged => {}
                }
            }
            level
        }
        Some(home) if home == tissue => {
            let mut level = gene.base_level;
            if cancerous {
                match gene.response {
                    CancerResponse::Up => level *= config.cancer_fold_change,
                    CancerResponse::Down => level /= config.cancer_fold_change,
                    CancerResponse::Unchanged => {}
                }
            }
            level
        }
        // Foreign tissue: SAGE counts a transcript only if it is present,
        // and tissue-specific genes are essentially absent elsewhere
        // (§2.1: most genes are expressed in a single tissue type). The
        // configurable leak emulates cross-contamination.
        Some(_) => gene.base_level * config.foreign_leak,
    }
}

#[allow(clippy::too_many_arguments)]
fn synthesize_library(
    g: &mut Generator,
    config: &GeneratorConfig,
    truth: &GroundTruth,
    meta: LibraryMeta,
    tissue: &TissueType,
    cancerous: bool,
    in_fascicle: bool,
) -> SageLibrary {
    // Fascicle members draw from the upper half of the depth range: a
    // subtype signature is only discoverable in adequately sequenced
    // libraries (shot noise at 1k-tag depth erases any tightness), so the
    // ground truth plants it where the thesis's own advice — remove
    // libraries with "only a very small amount of total tags" — can find
    // it.
    let depth_lo = if in_fascicle {
        config.depth_range.0.midpoint(config.depth_range.1)
    } else {
        config.depth_range.0
    };
    let depth = g.rng.gen_range(depth_lo..=config.depth_range.1);
    let error_total = (depth as f64 * config.error_count_fraction) as u64;
    let gene_total = depth - error_total.min(depth);

    // Expected relative profile over non-marker planted genes.
    let mut expected: Vec<(Tag, f64, bool)> = Vec::with_capacity(truth.genes.len());
    let mut mass = 0.0;
    let is_marker = |name: &str| config.markers.iter().any(|m| m.gene == name);
    for gene in &truth.genes {
        if is_marker(&gene.gene) {
            continue;
        }
        let level = expected_level(config, gene, tissue, cancerous);
        if level > 0.0 {
            expected.push((gene.tag, level, gene.in_fascicle_signature));
            mass += level;
        }
    }

    // Markers carry explicit group means *per 300,000 normalized tags*
    // (crate::clean::MRNAS_PER_CELL). Solve their relative levels against
    // the background mass so that after per-library normalization the
    // marker's expectation lands exactly on its target mean.
    let target_scale = crate::clean::MRNAS_PER_CELL;
    let marker_targets: Vec<(Tag, f64)> = config
        .markers
        .iter()
        .filter(|m| &m.tissue == tissue)
        .filter_map(|m| {
            let tag = truth.tag_of_gene(&m.gene)?;
            let target = if !cancerous {
                m.mean_normal
            } else if in_fascicle {
                m.mean_cancer_in_fascicle
            } else {
                m.mean_cancer_outside
            };
            Some((tag, target))
        })
        .collect();
    let target_sum: f64 = marker_targets.iter().map(|(_, t)| t).sum();
    if mass > 0.0 && target_sum < target_scale {
        for (tag, target) in marker_targets {
            let level = target * mass / (target_scale - target_sum);
            if level > 0.0 {
                expected.push((tag, level, false));
            }
        }
        mass = expected.iter().map(|(_, l, _)| l).sum();
    }

    let mut pairs: Vec<(Tag, u32)> = Vec::with_capacity(expected.len() + error_total as usize);
    if mass > 0.0 {
        for (tag, level, in_signature) in expected {
            // In-fascicle signature tags agree tightly across the fascicle's
            // libraries (a tenth of the global noise). Every library
            // *outside* the fascicle — cancerous or normal — disagrees
            // strongly on the same tags: the signature is a co-regulation
            // pattern specific to the planted cancer subtype, and the
            // outside disagreement is what makes the fascicle minable at a
            // high compact-attribute threshold (and what stops a maximal
            // fascicle from absorbing outsiders). Everything else
            // fluctuates with the base noise_cv.
            let tight = in_fascicle && in_signature;
            let cv = if tight {
                config.noise_cv * 0.1
            } else if in_signature {
                config.noise_cv * 6.0
            } else {
                config.noise_cv
            };
            let expected_count = gene_total as f64 * level / mass;
            // Biological noise modulates the transcript pool; the sequencer
            // then draws Poisson counts from it.
            let modulated = expected_count * g.noise(cv);
            pairs.push((tag, g.poisson(modulated)));
        }
    }

    // Frequency-1 sequencing errors.
    let mut added = 0u64;
    while added < error_total {
        pairs.push((g.error_tag(), 1));
        added += 1;
    }
    SageLibrary::from_counts(meta, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clean::{clean, CleaningConfig};

    #[test]
    fn generation_is_deterministic() {
        let config = GeneratorConfig::demo(7);
        let (c1, t1) = generate(&config);
        let (c2, t2) = generate(&config);
        assert_eq!(c1.len(), c2.len());
        assert_eq!(t1.genes, t2.genes);
        for (id, lib) in c1.iter() {
            assert_eq!(lib, c2.library(id));
        }
    }

    #[test]
    fn library_roster_matches_config() {
        let config = GeneratorConfig::demo(7);
        let (corpus, truth) = generate(&config);
        assert_eq!(corpus.len(), 10 + 7 + 4);
        let brain = corpus.libraries_of_tissue(&TissueType::Brain);
        assert_eq!(brain.len(), 10);
        let cancerous = brain
            .iter()
            .filter(|&&id| corpus.meta(id).state == NeoplasticState::Cancerous)
            .count();
        assert_eq!(cancerous, 6);
        assert_eq!(truth.fascicle_members_of(&TissueType::Brain).len(), 3);
    }

    #[test]
    fn error_singletons_dominate_unique_tags() {
        let config = GeneratorConfig::demo(11);
        let (corpus, _) = generate(&config);
        let stats = corpus.stats();
        // The thesis: "more than 80% of the unique tags have a frequency of
        // 1". Our singletons are random over a 4^10 space, so almost all are
        // unique to one library and never recur.
        assert!(
            stats.freq1_fraction() > 0.6,
            "freq-1 fraction {} too low",
            stats.freq1_fraction()
        );
    }

    #[test]
    fn cleaning_removes_error_inflation() {
        let config = GeneratorConfig::demo(13);
        let (corpus, truth) = generate(&config);
        let (matrix, report) = clean(&corpus, &CleaningConfig::default());
        assert!(report.kept_tags < report.raw_union_tags / 2);
        // Every *abundant* housekeeping gene must survive cleaning. (Very
        // rare transcripts — expected count below ~1 per library — can
        // legitimately be indistinguishable from sequencing error, exactly
        // the ambiguity §4.2 discusses.)
        for gene in truth
            .genes
            .iter()
            .filter(|g| g.tissue.is_none() && g.base_level > 50.0)
            .take(20)
        {
            assert!(
                matrix.id_of(gene.tag).is_some(),
                "housekeeping gene {} lost in cleaning",
                gene.gene
            );
        }
    }

    #[test]
    fn markers_reproduce_group_means() {
        let config = GeneratorConfig::demo(17);
        let (corpus, truth) = generate(&config);
        let (matrix, _) = clean(&corpus, &CleaningConfig::default());
        let tag = truth.tag_of_gene("RIBOSOMAL PROTEIN L12").unwrap();
        let tid = matrix.id_of(tag).expect("marker survives cleaning");
        let members = truth.fascicle_members_of(&TissueType::Brain);
        let mut in_fas = Vec::new();
        let mut normal = Vec::new();
        for lib in matrix.library_ids() {
            let meta = matrix.library(lib);
            if meta.tissue != TissueType::Brain {
                continue;
            }
            let v = matrix.value(tid, lib);
            if members.contains(&meta.name) {
                in_fas.push(v);
            } else if meta.state == NeoplasticState::Normal {
                normal.push(v);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let mf = mean(&in_fas);
        let mn = mean(&normal);
        // Figure 4.2's shape: in-fascicle ≈ 275, normal ≈ 100.
        assert!(mf > 1.6 * mn, "fascicle {mf} vs normal {mn}");
        assert!((150.0..450.0).contains(&mf), "fascicle mean {mf}");
        assert!((50.0..180.0).contains(&mn), "normal mean {mn}");
    }

    #[test]
    fn signature_tags_are_tight_within_fascicle() {
        let config = GeneratorConfig::demo(19);
        let (corpus, truth) = generate(&config);
        let (matrix, _) = clean(&corpus, &CleaningConfig::default());
        let members = truth.fascicle_members_of(&TissueType::Brain);
        let member_ids: Vec<_> = matrix
            .library_ids()
            .filter(|&l| members.contains(&matrix.library(l).name))
            .collect();
        assert!(member_ids.len() >= 2);
        let outsider_ids: Vec<_> = matrix
            .library_ids()
            .filter(|&l| {
                let m = matrix.library(l);
                m.tissue == TissueType::Brain
                    && m.state == NeoplasticState::Cancerous
                    && !members.contains(&m.name)
            })
            .collect();
        assert!(!outsider_ids.is_empty());
        // Within the fascicle, signature tags carry a tenth of the noise;
        // outside it they are scrambled (×6 noise). After Poisson count
        // sampling, absolute tightness is limited by √λ shot noise, but the
        // in-fascicle spread must still be systematically smaller than the
        // spread over all cancerous libraries of the tissue.
        let spread = |tid: crate::tag::TagId, ids: &[crate::library::LibraryId]| -> f64 {
            let vals: Vec<f64> = ids.iter().map(|&l| matrix.value(tid, l)).collect();
            vals.iter().cloned().fold(f64::MIN, f64::max)
                - vals.iter().cloned().fold(f64::MAX, f64::min)
        };
        let all_cancer: Vec<crate::library::LibraryId> =
            member_ids.iter().chain(&outsider_ids).copied().collect();
        let sig = truth.signature_tags(&TissueType::Brain);
        let mut tighter = 0usize;
        let mut total = 0usize;
        for tag in sig {
            let Some(tid) = matrix.id_of(tag) else {
                continue;
            };
            let mean = member_ids
                .iter()
                .map(|&l| matrix.value(tid, l))
                .sum::<f64>()
                / member_ids.len() as f64;
            if mean < 30.0 {
                continue; // shot noise dominates below this level
            }
            total += 1;
            if spread(tid, &member_ids) < spread(tid, &all_cancer) {
                tighter += 1;
            }
        }
        assert!(total > 20, "too few expressed signature tags: {total}");
        assert!(
            tighter as f64 / total as f64 > 0.75,
            "only {tighter}/{total} signature tags tighter inside the fascicle"
        );
    }
}
