//! Property-based tests for the SAGE substrate: I/O round-trips and
//! cleaning-pipeline invariants.

use std::collections::BTreeMap;

use proptest::prelude::*;

use gea_sage::clean::{
    clean, clean_factors, cleaned_columns, reference, CleaningConfig, MRNAS_PER_CELL,
};
use gea_sage::codec::Cur;
use gea_sage::corpus::{library_meta, SageCorpus};
use gea_sage::generate::{generate, GeneratorConfig};
use gea_sage::io::{put_corpus, read_corpus, read_library_text, write_library_text};
use gea_sage::library::{NeoplasticState, SageLibrary, TissueSource};
use gea_sage::tag::{Tag, TagUniverse, TAG_SPACE};
use gea_sage::{LibraryId, TissueType};

fn arbitrary_library(name: String, pairs: Vec<(u32, u32)>) -> SageLibrary {
    SageLibrary::from_counts(
        library_meta(
            &name,
            TissueType::Brain,
            NeoplasticState::Cancerous,
            TissueSource::BulkTissue,
        ),
        pairs
            .into_iter()
            .map(|(code, count)| (Tag::from_code(code % TAG_SPACE).unwrap(), count % 500)),
    )
}

fn corpus_strategy() -> impl Strategy<Value = SageCorpus> {
    prop::collection::vec(
        prop::collection::vec((0u32..10_000, 0u32..500), 0..40),
        1..6,
    )
    .prop_map(|libs| {
        let mut corpus = SageCorpus::new();
        for (i, pairs) in libs.into_iter().enumerate() {
            corpus.add(arbitrary_library(format!("L{i}"), pairs));
        }
        corpus
    })
}

/// The three normalization settings the differential tests cover.
const SCALES: [Option<f64>; 3] = [None, Some(10_000.0), Some(MRNAS_PER_CELL)];

/// `clean` against the §4.2 rule as stated (`reference::clean`: one
/// `max_count` question per union tag), matrix and report, bit for bit.
fn assert_clean_matches_definition(corpus: &SageCorpus, tolerances: std::ops::Range<u32>) {
    for min_tolerance in tolerances {
        for scale_to in SCALES {
            let config = CleaningConfig {
                min_tolerance,
                scale_to,
            };
            assert_eq!(
                clean(corpus, &config),
                reference::clean(corpus, &config),
                "tolerance {min_tolerance}, scale_to {scale_to:?}"
            );
        }
    }
}

fn tag(s: &str) -> Tag {
    s.parse().unwrap()
}

#[test]
fn clean_matches_definition_on_degenerate_inputs() {
    // Empty corpus.
    assert_clean_matches_definition(&SageCorpus::new(), 0..3);
    let (matrix, report) = clean(&SageCorpus::new(), &CleaningConfig::default());
    assert_eq!((matrix.n_tags(), matrix.n_libraries()), (0, 0));
    assert_eq!(report.raw_union_tags, 0);
    assert_eq!(report.freq1_union_fraction, 0.0);
    assert!(report.removed_fraction_per_library.is_empty());

    // A library with no tags beside one with some; tolerance 0 keeps every
    // tag, tolerance 9 removes every tag.
    let mut corpus = SageCorpus::new();
    corpus.add(arbitrary_library("empty".to_string(), vec![]));
    corpus.add(SageLibrary::from_counts(
        corpus.meta(gea_sage::LibraryId(0)).clone(),
        [(tag("AAAAAAAAAA"), 9), (tag("CCCCCCCCCC"), 1)],
    ));
    assert_clean_matches_definition(&corpus, 0..11);

    let keep_all = CleaningConfig {
        min_tolerance: 0,
        scale_to: None,
    };
    let (matrix, report) = clean(&corpus, &keep_all);
    assert_eq!(matrix.n_tags(), 2);
    assert_eq!(report.removed_fraction_per_library, vec![0.0, 0.0]);

    let remove_all = CleaningConfig {
        min_tolerance: 9,
        scale_to: Some(MRNAS_PER_CELL),
    };
    let (matrix, report) = clean(&corpus, &remove_all);
    assert_eq!(matrix.n_tags(), 0);
    assert_eq!(report.raw_union_tags, 2);
    assert_eq!(report.removed_fraction_per_library, vec![0.0, 1.0]);
    for lib in matrix.library_ids() {
        assert_eq!(matrix.library_total(lib), 0.0);
    }
}

/// `cleaned_columns` over `clean_factors`, for the whole roster and for
/// every third library, against the same columns of `reference::clean`'s
/// matrix, cell by cell as `f64` bits, with the reports equal.
fn assert_columns_are_the_reference(corpus: &SageCorpus, config: &CleaningConfig) {
    let (want, want_report) = reference::clean(corpus, config);
    let (kept, factors, report) = clean_factors(corpus, config);
    assert_eq!(report, want_report);
    let all: Vec<LibraryId> = corpus.ids().collect();
    let strided: Vec<LibraryId> = corpus.ids().step_by(3).collect();
    for libs in [&all, &strided] {
        let got = cleaned_columns(corpus, &kept, &factors, libs);
        assert_eq!(got.universe(), want.universe());
        assert_eq!(got.n_libraries(), libs.len());
        for (col, &lib) in libs.iter().enumerate() {
            let col = LibraryId(col as u32);
            assert_eq!(got.library(col), want.library(lib));
            for tag in want.tag_ids() {
                assert_eq!(
                    got.value(tag, col).to_bits(),
                    want.value(tag, lib).to_bits(),
                    "library {lib}, tag {tag:?}, {config:?}"
                );
            }
        }
    }
}

/// The cleaned root is derived column by column from the corpus, and those
/// columns are the definition's, on the demo corpora under the default
/// cleaning and under a stricter, unnormalized one.
#[test]
fn derived_columns_are_the_reference_matrix() {
    let strict = CleaningConfig {
        min_tolerance: 3,
        scale_to: None,
    };
    for seed in [42, 7] {
        let (corpus, _) = generate(&GeneratorConfig::demo(seed));
        for config in [CleaningConfig::default(), strict.clone()] {
            assert_columns_are_the_reference(&corpus, &config);
        }
    }
}

proptest! {
    #[test]
    fn clean_matches_definition(corpus in corpus_strategy()) {
        assert_clean_matches_definition(&corpus, 0..5);
    }

    #[test]
    fn tag_census_is_the_union_with_max_counts(corpus in corpus_strategy()) {
        let census = corpus.tag_census();
        // Sorted and duplicate-free.
        prop_assert!(census.windows(2).all(|w| w[0].0 < w[1].0));
        let tags = TagUniverse::from_tags(census.iter().map(|&(tag, _)| tag));
        prop_assert_eq!(tags, corpus.tag_union());
        for &(tag, max) in &census {
            prop_assert_eq!(max, corpus.max_count(tag), "tag {}", tag);
        }
    }

    #[test]
    fn streamed_census_is_the_sort_and_fold_census(corpus in corpus_strategy()) {
        // The k-way merge `clean_factors` and `stats` read, against the
        // sort-and-fold of every entry.
        prop_assert_eq!(corpus.census().collect::<Vec<_>>(), corpus.tag_census());
    }

    #[test]
    fn library_text_roundtrip(pairs in prop::collection::vec((0u32..10_000, 1u32..500), 0..40)) {
        let lib = arbitrary_library("L".to_string(), pairs);
        let mut buf = Vec::new();
        write_library_text(&lib, &mut buf).unwrap();
        let back = read_library_text(lib.meta.clone(), &mut buf.as_slice(), "prop").unwrap();
        prop_assert_eq!(back, lib);
    }

    #[test]
    fn from_counts_is_add_per_pair(pairs in prop::collection::vec((0u32..50, 0u32..500), 0..60)) {
        // The bulk path (sort, fold runs, split) against adding each pair
        // to a map: duplicates accumulate, zero counts never create an
        // entry.
        let bulk = arbitrary_library("L".to_string(), pairs.clone());
        let mut one_by_one: BTreeMap<Tag, u32> = BTreeMap::new();
        for (code, count) in pairs {
            if count > 0 {
                let entry = one_by_one.entry(Tag::from_code(code).unwrap()).or_insert(0);
                *entry = entry.saturating_add(count);
            }
        }
        prop_assert_eq!(bulk.iter().collect::<Vec<_>>(), one_by_one.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn corpus_binary_roundtrip(corpus in corpus_strategy()) {
        let mut buf = Vec::new();
        put_corpus(&mut buf, &corpus);
        let back = read_corpus(&mut Cur::new(&buf)).unwrap();
        prop_assert_eq!(back.len(), corpus.len());
        for (id, lib) in corpus.iter() {
            prop_assert_eq!(back.library(id), lib);
        }
    }

    #[test]
    fn cleaning_keeps_exactly_the_above_tolerance_tags(
        corpus in corpus_strategy(),
        tolerance in 0u32..5,
    ) {
        let (matrix, report) = clean(
            &corpus,
            &CleaningConfig { min_tolerance: tolerance, scale_to: None },
        );
        let union = corpus.tag_union();
        prop_assert_eq!(report.raw_union_tags, union.len());
        prop_assert_eq!(report.kept_tags, matrix.n_tags());
        // Characterization: a tag is kept iff its max count exceeds the
        // tolerance.
        for (_, tag) in union.iter() {
            let kept = matrix.id_of(tag).is_some();
            prop_assert_eq!(kept, corpus.max_count(tag) > tolerance, "tag {}", tag);
        }
        // Kept values equal the raw counts (no normalization requested).
        for tid in matrix.tag_ids() {
            let tag = matrix.tag_of(tid);
            for (lib, _) in corpus.iter() {
                prop_assert_eq!(
                    matrix.value(tid, lib),
                    corpus.library(lib).count(tag) as f64
                );
            }
        }
    }

    #[test]
    fn cleaning_is_monotone_in_tolerance(corpus in corpus_strategy()) {
        let kept_at = |tol: u32| {
            clean(&corpus, &CleaningConfig { min_tolerance: tol, scale_to: None })
                .1
                .kept_tags
        };
        let mut prev = usize::MAX;
        for tol in 0..4 {
            let kept = kept_at(tol);
            prop_assert!(kept <= prev, "tolerance {tol}: {kept} > {prev}");
            prev = kept;
        }
    }

    #[test]
    fn normalization_hits_the_target(corpus in corpus_strategy()) {
        let (matrix, _) = clean(
            &corpus,
            &CleaningConfig { min_tolerance: 0, scale_to: Some(10_000.0) },
        );
        for lib in matrix.library_ids() {
            let total = matrix.library_total(lib);
            // Libraries whose every tag was removed stay at zero.
            prop_assert!(
                total.abs() < 1e-9 || (total - 10_000.0).abs() < 1e-6,
                "library {lib} total {total}"
            );
        }
    }

    #[test]
    fn corpus_stats_are_consistent(corpus in corpus_strategy()) {
        let stats = corpus.stats();
        prop_assert_eq!(stats.libraries, corpus.len());
        prop_assert_eq!(stats.per_library.len(), corpus.len());
        prop_assert!(stats.union_tags_max_freq1 <= stats.union_tags);
        let union = corpus.tag_union();
        prop_assert_eq!(stats.union_tags, union.len());
        prop_assert_eq!(
            stats.union_tags_max_freq1,
            union.iter().filter(|&(_, tag)| corpus.max_count(tag) <= 1).count()
        );
        let f = stats.freq1_fraction();
        prop_assert!((0.0..=1.0).contains(&f));
        for (i, ls) in stats.per_library.iter().enumerate() {
            let lib = corpus.library(gea_sage::LibraryId(i as u32));
            prop_assert_eq!(ls.unique_tags, lib.unique_tags());
            prop_assert_eq!(ls.total_tags, lib.total_tags());
            prop_assert!(ls.freq1_tags <= ls.unique_tags);
        }
    }
}
