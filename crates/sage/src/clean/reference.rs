//! The §4.2 rule written as the thesis states it — one
//! [`SageCorpus::max_count`] question per union tag — kept verbatim from
//! before the census as the bit-identity oracle: `tests/sage_props.rs`
//! and `tests/thesis_scale.rs` pin [`super::clean`] to it, matrix and
//! report. It costs libraries × union map probes (seconds at thesis
//! scale); nothing on a served path calls it.

use super::{CleaningConfig, CleaningReport};
use crate::corpus::SageCorpus;
use crate::matrix::ExpressionMatrix;

/// [`super::clean`] by the definition.
pub fn clean(corpus: &SageCorpus, config: &CleaningConfig) -> (ExpressionMatrix, CleaningReport) {
    let raw_union = corpus.tag_union();
    let raw_union_tags = raw_union.len();

    // Step 2: keep a tag iff some library saw it more than `min_tolerance`
    // times.
    let kept = raw_union
        .filter(|_, tag| corpus.max_count(tag) > config.min_tolerance)
        .0;

    // Frequency-1 census over the raw union, for the report.
    let freq1 = raw_union
        .iter()
        .filter(|&(_, tag)| corpus.max_count(tag) <= 1)
        .count();
    let freq1_union_fraction = if raw_union_tags == 0 {
        0.0
    } else {
        freq1 as f64 / raw_union_tags as f64
    };

    // Per-library removal fractions.
    let mut removed_fraction_per_library = Vec::with_capacity(corpus.len());
    for (_, lib) in corpus.iter() {
        let before = lib.unique_tags();
        let after = lib.tags().filter(|&t| kept.id_of(t).is_some()).count();
        let frac = if before == 0 {
            0.0
        } else {
            1.0 - after as f64 / before as f64
        };
        removed_fraction_per_library.push(frac);
    }

    // Build the matrix over kept tags, then normalize per library.
    let metas = corpus.iter().map(|(_, l)| l.meta.clone()).collect();
    let mut matrix = ExpressionMatrix::zeroed(kept, metas);
    for (lib_id, lib) in corpus.iter() {
        let surviving_total: u64 = lib
            .iter()
            .filter(|&(t, _)| matrix.id_of(t).is_some())
            .map(|(_, c)| c as u64)
            .sum();
        let factor = match config.scale_to {
            Some(target) if surviving_total > 0 => target / surviving_total as f64,
            _ => 1.0,
        };
        for (tag, count) in lib.iter() {
            if let Some(tid) = matrix.id_of(tag) {
                matrix.set(tid, lib_id, count as f64 * factor);
            }
        }
    }

    let report = CleaningReport {
        raw_union_tags,
        kept_tags: matrix.n_tags(),
        removed_fraction_per_library,
        freq1_union_fraction,
        min_tolerance: config.min_tolerance,
        scale_to: config.scale_to,
    };
    (matrix, report)
}
