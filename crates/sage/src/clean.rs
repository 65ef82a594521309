//! Pre-processing and data cleaning (thesis §4.2).
//!
//! SAGE sequencing introduces errors: roughly 10 % of the tags in each
//! library are mis-reads, almost all of which appear with frequency 1. The
//! thesis's cleaning rule:
//!
//! 1. Take the union of all tags across all libraries.
//! 2. Remove every tag whose expression level is ≤ the *minimum tolerance*
//!    (default 1) in **all** libraries. A tag that is frequency-1 in some
//!    libraries but higher elsewhere is kept, since a count of 1 can be a
//!    legitimate low-abundance mRNA.
//! 3. Normalize: because libraries are sequenced to very different depths
//!    (1k–32k tags), scale each library so its total count equals a common
//!    target — 300,000, the estimated number of mRNAs per cell.
//!
//! On the thesis's data this takes the union from ~350,000 tags down to
//! ~60,000, removing 5–15 % of each library's distinct tags.
//!
//! # One census, not one question per tag
//!
//! Steps 1 and 2 ask, for every union tag, "what is the largest count any
//! library gave it?". Asked tag by tag ([`SageCorpus::max_count`]) that is
//! one lookup per library per tag — libraries × union, 31 million probes
//! at thesis scale (100 × 312,957), and the rule asks twice. But the answer
//! to all of them at once is already in the corpus: every library holds
//! its `(tag, count)` entries sorted by tag, so a k-way merge of the
//! libraries, folding each run of equal tags to its maximum, yields the
//! union in tag order with each tag's maximum ([`SageCorpus::census`]).
//! That stream *is* the union (its tags), the keep set (`max > tolerance`)
//! and the frequency-1 population (`max <= 1`) — the same integers compared
//! with the same thresholds, so it is the definition evaluated in a
//! different order, not an approximation of it. The merge holds one cursor
//! per library and no copy of the 504,654 entries, and costs
//! O(entries · log libraries). Each library is then walked once for its
//! removed fraction and surviving total, which fix its scale factor
//! ([`clean_factors`]); the matrix is a second walk over any chosen
//! libraries ([`cleaned_columns`]), which is how a session builds a data
//! set without ever holding the whole cleaned matrix. [`reference::clean`]
//! keeps the tag-by-tag form as the oracle the tests hold this one to, bit
//! for bit.

#[doc(hidden)]
pub mod reference;

use crate::corpus::SageCorpus;
use crate::library::LibraryId;
use crate::matrix::ExpressionMatrix;
use crate::tag::TagUniverse;

/// Estimated mRNA transcripts per cell; the normalization target (§4.2).
pub const MRNAS_PER_CELL: f64 = 300_000.0;

/// Configuration of the cleaning pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct CleaningConfig {
    /// A tag is removed when its count is ≤ this value in *every* library.
    /// The thesis's GUI calls this the "minimum tolerance value"; default 1.
    pub min_tolerance: u32,
    /// Target total count every library is scaled to. Default
    /// [`MRNAS_PER_CELL`]. Set to `None` to skip normalization.
    pub scale_to: Option<f64>,
}

impl Default for CleaningConfig {
    fn default() -> CleaningConfig {
        CleaningConfig {
            min_tolerance: 1,
            scale_to: Some(MRNAS_PER_CELL),
        }
    }
}

/// What the cleaning pass did — the §4.2 summary numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct CleaningReport {
    /// Distinct tags in the union before cleaning (~350,000 in the thesis).
    pub raw_union_tags: usize,
    /// Distinct tags kept (~60,000 in the thesis).
    pub kept_tags: usize,
    /// Per-library fraction of distinct tags removed (5–15 % in the thesis).
    pub removed_fraction_per_library: Vec<f64>,
    /// Fraction of union tags that never exceeded frequency 1 anywhere
    /// (> 80 % in the thesis's estimate).
    pub freq1_union_fraction: f64,
    /// The tolerance used.
    pub min_tolerance: u32,
    /// The normalization target, if normalization ran.
    pub scale_to: Option<f64>,
}

impl CleaningReport {
    /// Fraction of the raw union removed overall.
    pub fn removed_fraction(&self) -> f64 {
        if self.raw_union_tags == 0 {
            0.0
        } else {
            1.0 - self.kept_tags as f64 / self.raw_union_tags as f64
        }
    }
}

/// Run the §4.2 cleaning pipeline over a raw corpus, producing the cleaned,
/// normalized expression matrix and a report of what was removed: every
/// library's columns ([`cleaned_columns`]) over what [`clean_factors`]
/// derives.
pub fn clean(corpus: &SageCorpus, config: &CleaningConfig) -> (ExpressionMatrix, CleaningReport) {
    let (kept, factors, report) = clean_factors(corpus, config);
    let all: Vec<LibraryId> = corpus.ids().collect();
    (cleaned_columns(corpus, &kept, &factors, &all), report)
}

/// Everything cleaning decides, short of the matrix: the kept tags, each
/// library's scale factor (indexed by [`LibraryId`]) and the report. A
/// cell of the cleaned matrix is then `count as f64 * factor` for a kept
/// tag and 0 otherwise, so any set of columns can be built from the
/// corpus on demand ([`cleaned_columns`]) without the whole matrix.
pub fn clean_factors(
    corpus: &SageCorpus,
    config: &CleaningConfig,
) -> (TagUniverse, Vec<f64>, CleaningReport) {
    // Steps 1 and 2 off one census pass: the union is its length, a tag is
    // kept iff some library saw it more than `min_tolerance` times, and the
    // report's frequency-1 population is the tags that never exceed 1.
    let (mut raw_union_tags, mut freq1) = (0, 0);
    let kept = TagUniverse::from_tags(corpus.census().filter_map(|(tag, max)| {
        raw_union_tags += 1;
        freq1 += usize::from(max <= 1);
        (max > config.min_tolerance).then_some(tag)
    }));
    let freq1_union_fraction = if raw_union_tags == 0 {
        0.0
    } else {
        freq1 as f64 / raw_union_tags as f64
    };

    // Each library is walked once for its surviving entries, which give
    // both the removal fraction and the surviving total.
    let mut removed_fraction_per_library = Vec::with_capacity(corpus.len());
    let mut factors = Vec::with_capacity(corpus.len());
    for (_, lib) in corpus.iter() {
        let (mut survivors, mut surviving_total) = (0usize, 0u64);
        for (tag, count) in lib.iter() {
            if kept.id_of(tag).is_some() {
                survivors += 1;
                surviving_total += count as u64;
            }
        }
        let before = lib.unique_tags();
        removed_fraction_per_library.push(if before == 0 {
            0.0
        } else {
            1.0 - survivors as f64 / before as f64
        });
        // Step 3: scale factor from *surviving* counts, so library totals in
        // the matrix land exactly on the target. ("We scale up the data sets
        // by proportionally increasing the count of genes that exist in the
        // library, and the genes that do not exist will remain as zero.")
        factors.push(match config.scale_to {
            Some(target) if surviving_total > 0 => target / surviving_total as f64,
            _ => 1.0,
        });
    }

    let report = CleaningReport {
        raw_union_tags,
        kept_tags: kept.len(),
        removed_fraction_per_library,
        freq1_union_fraction,
        min_tolerance: config.min_tolerance,
        scale_to: config.scale_to,
    };
    (kept, factors, report)
}

/// The cleaned matrix's columns for `libs`, in that order, over the `kept`
/// tags and per-library `factors` of [`clean_factors`]: column `j` holds
/// `count as f64 * factors[libs[j]]` for each kept tag of library
/// `libs[j]` and 0 elsewhere — bit for bit the columns [`clean`] builds.
/// It reads only the named libraries' entries.
pub fn cleaned_columns(
    corpus: &SageCorpus,
    kept: &TagUniverse,
    factors: &[f64],
    libs: &[LibraryId],
) -> ExpressionMatrix {
    let metas = libs.iter().map(|&id| corpus.meta(id).clone()).collect();
    let mut matrix = ExpressionMatrix::zeroed(kept.clone(), metas);
    for (col, &id) in libs.iter().enumerate() {
        let factor = factors[id.index()];
        for (tag, count) in corpus.library(id).iter() {
            if let Some(tid) = kept.id_of(tag) {
                matrix.set(tid, LibraryId(col as u32), count as f64 * factor);
            }
        }
    }
    matrix
}

/// Normalize an already-clean matrix so every library column sums to
/// `target`. Exposed separately so user-defined ENUM tables can be
/// re-normalized after library removal (Case 5, §4.3.5).
pub fn normalize(matrix: &mut ExpressionMatrix, target: f64) {
    let n_libs = matrix.n_libraries();
    for l in 0..n_libs {
        let lib = LibraryId(l as u32);
        let total = matrix.library_total(lib);
        if total > 0.0 {
            let factor = target / total;
            for t in matrix.tag_ids().collect::<Vec<_>>() {
                let v = matrix.value(t, lib);
                if v != 0.0 {
                    matrix.set(t, lib, v * factor);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::library_meta;
    use crate::library::{NeoplasticState, SageLibrary, TissueSource, TissueType};
    use crate::tag::Tag;

    fn tag(s: &str) -> Tag {
        s.parse().unwrap()
    }

    fn corpus() -> SageCorpus {
        let mut c = SageCorpus::new();
        c.add(SageLibrary::from_counts(
            library_meta(
                "A",
                TissueType::Brain,
                NeoplasticState::Cancerous,
                TissueSource::BulkTissue,
            ),
            [
                (tag("AAAAAAAAAA"), 10), // kept: high somewhere
                (tag("CCCCCCCCCC"), 1),  // kept: freq 1 here but 5 in B
                (tag("GGGGGGGGGG"), 1),  // removed: never above 1
            ],
        ));
        c.add(SageLibrary::from_counts(
            library_meta(
                "B",
                TissueType::Brain,
                NeoplasticState::Normal,
                TissueSource::BulkTissue,
            ),
            [
                (tag("CCCCCCCCCC"), 5),
                (tag("TTTTTTTTTT"), 1), // removed: only ever 1
            ],
        ));
        c
    }

    #[test]
    fn removes_only_globally_low_tags() {
        let (matrix, report) = clean(
            &corpus(),
            &CleaningConfig {
                min_tolerance: 1,
                scale_to: None,
            },
        );
        assert_eq!(report.raw_union_tags, 4);
        assert_eq!(report.kept_tags, 2);
        assert!(matrix.id_of(tag("AAAAAAAAAA")).is_some());
        assert!(matrix.id_of(tag("CCCCCCCCCC")).is_some());
        assert!(matrix.id_of(tag("GGGGGGGGGG")).is_none());
        assert!(matrix.id_of(tag("TTTTTTTTTT")).is_none());
        // Library A lost 1 of 3 tags; B lost 1 of 2.
        assert!((report.removed_fraction_per_library[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((report.removed_fraction_per_library[1] - 0.5).abs() < 1e-12);
        // GGGGGGGGGG and TTTTTTTTTT are the freq-1-everywhere tags.
        assert!((report.freq1_union_fraction - 0.5).abs() < 1e-12);
        assert!((report.removed_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn keeps_freq1_tags_that_rise_elsewhere() {
        // "Sometimes it is legitimate for a tag to have a frequency of 1 ...
        // we can't conclude a tag is an error based on observations in one
        // library" (§4.2).
        let (matrix, _) = clean(
            &corpus(),
            &CleaningConfig {
                min_tolerance: 1,
                scale_to: None,
            },
        );
        let c = matrix.id_of(tag("CCCCCCCCCC")).unwrap();
        let a_lib = LibraryId(0);
        assert_eq!(matrix.value(c, a_lib), 1.0);
    }

    #[test]
    fn normalization_scales_each_library_to_target() {
        let (matrix, report) = clean(
            &corpus(),
            &CleaningConfig {
                min_tolerance: 1,
                scale_to: Some(300.0),
            },
        );
        assert_eq!(report.scale_to, Some(300.0));
        for lib in matrix.library_ids() {
            let total = matrix.library_total(lib);
            assert!(
                (total - 300.0).abs() < 1e-9,
                "library {lib} total {total} != 300"
            );
        }
        // Relative abundances within a library are preserved.
        let a = matrix.id_of(tag("AAAAAAAAAA")).unwrap();
        let c = matrix.id_of(tag("CCCCCCCCCC")).unwrap();
        let lib0 = LibraryId(0);
        assert!((matrix.value(a, lib0) / matrix.value(c, lib0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn higher_tolerance_removes_more() {
        let (matrix, report) = clean(
            &corpus(),
            &CleaningConfig {
                min_tolerance: 5,
                scale_to: None,
            },
        );
        // Only AAAAAAAAAA exceeds count 5 somewhere.
        assert_eq!(report.kept_tags, 1);
        assert!(matrix.id_of(tag("AAAAAAAAAA")).is_some());
    }

    #[test]
    fn cleaning_is_idempotent_on_clean_data() {
        let cfg = CleaningConfig {
            min_tolerance: 1,
            scale_to: None,
        };
        let (m1, r1) = clean(&corpus(), &cfg);
        // Re-feed the cleaned matrix as a corpus of integer counts.
        let mut c2 = SageCorpus::new();
        for lib in m1.library_ids() {
            let pairs: Vec<(Tag, u32)> = m1
                .tag_ids()
                .map(|t| (m1.tag_of(t), m1.value(t, lib) as u32))
                .collect();
            c2.add(SageLibrary::from_counts(m1.library(lib).clone(), pairs));
        }
        let (m2, r2) = clean(&c2, &cfg);
        assert_eq!(r2.kept_tags, r1.kept_tags);
        assert_eq!(m2.n_tags(), m1.n_tags());
    }

    #[test]
    fn explicit_normalize_helper() {
        let (mut matrix, _) = clean(
            &corpus(),
            &CleaningConfig {
                min_tolerance: 1,
                scale_to: None,
            },
        );
        normalize(&mut matrix, 1000.0);
        for lib in matrix.library_ids() {
            assert!((matrix.library_total(lib) - 1000.0).abs() < 1e-9);
        }
    }
}
