//! An xProfiler-style pooled differential comparison (thesis §2.3.3).
//!
//! The NCBI SAGE site's *xProfiler* "is designed for differential-type
//! analyses, for pooling and comparing SAGE libraries. The user can place
//! similar libraries into one of the two groups … Comparisons are then made
//! between the two groups using a statistical test developed specifically
//! for SAGE data." The thesis's critique: "the user has to guess which SAGE
//! libraries should form a group", whereas GEA *mines* the groups.
//!
//! This module reproduces the xProfiler workflow as a comparison baseline:
//! pool each group's (normalized) levels per tag, and test the difference
//! of pooled proportions with a two-proportion z-test — the frequentist
//! stand-in for the site's SAGE-specific test, adequate at pooled depths of
//! hundreds of thousands of tags. The `repro` harness contrasts its
//! candidate lists with GEA's gap-based lists under correct and naive
//! groupings.

use gea_sage::library::LibraryId;
use gea_sage::tag::Tag;

use crate::enum_table::EnumTable;
use crate::session::GeaError;

/// One tag's pooled comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct XProfilerRow {
    /// The tag.
    pub tag: Tag,
    /// Tag number in the table's universe.
    pub tag_no: u32,
    /// Pooled level in group A (sum of normalized levels).
    pub pooled_a: f64,
    /// Pooled level in group B.
    pub pooled_b: f64,
    /// log2 of the (pseudocounted) proportion ratio A/B.
    pub log2_ratio: f64,
    /// Two-proportion z statistic (positive: enriched in A).
    pub z_score: f64,
    /// Two-sided p-value under the normal approximation.
    pub p_value: f64,
}

/// A full pooled comparison, sorted by ascending p-value.
#[derive(Debug, Clone, PartialEq)]
pub struct XProfilerResult {
    /// Rows for every tag expressed in either pool, most significant first.
    pub rows: Vec<XProfilerRow>,
    /// Total pooled mass of group A.
    pub total_a: f64,
    /// Total pooled mass of group B.
    pub total_b: f64,
}

impl XProfilerResult {
    /// Rows significant at level `alpha` with a Bonferroni correction over
    /// the tested tags.
    pub fn significant(&self, alpha: f64) -> Vec<&XProfilerRow> {
        let threshold = alpha / self.rows.len().max(1) as f64;
        self.rows.iter().filter(|r| r.p_value < threshold).collect()
    }

    /// The row for one tag, if it was tested.
    pub fn row_for(&self, tag: Tag) -> Option<&XProfilerRow> {
        self.rows.iter().find(|r| r.tag == tag)
    }
}

/// Complementary error function, Abramowitz & Stegun 7.1.26 (|ε| ≤ 1.5e−7)
/// extended over the real line by symmetry.
fn erfc(x: f64) -> f64 {
    let sign_negative = x < 0.0;
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let val = poly * (-x * x).exp();
    if sign_negative {
        2.0 - val
    } else {
        val
    }
}

/// Two-sided p-value for a standard-normal statistic.
fn two_sided_p(z: f64) -> f64 {
    erfc(z.abs() / std::f64::consts::SQRT_2)
}

/// Pool and compare two library groups over every tag of the table.
///
/// [`GeaError::EmptyGroup`] when either group is empty or holds no
/// expression at all (a proportion of nothing is undefined), and
/// [`GeaError::Malformed`] when the groups overlap.
pub fn compare_pools(
    table: &EnumTable,
    group_a: &[LibraryId],
    group_b: &[LibraryId],
) -> Result<XProfilerResult, GeaError> {
    let refuse = |what: &str| Err(GeaError::EmptyGroup(what.to_string()));
    if group_a.is_empty() || group_b.is_empty() {
        return refuse("xProfiler pool");
    }
    if let Some(&shared) = group_a.iter().find(|a| group_b.contains(a)) {
        let library = table.libraries().get(shared.index());
        let name = library.map_or_else(|| shared.to_string(), |m| m.name.clone());
        return Err(GeaError::Malformed(format!(
            "library {name:?} is in both xProfiler pools"
        )));
    }
    let pool = |group: &[LibraryId], tid| -> f64 {
        group
            .iter()
            .map(|&l| table.matrix.value(tid, l))
            .sum::<f64>()
    };
    let mut total_a = 0.0;
    let mut total_b = 0.0;
    let mut raw = Vec::with_capacity(table.n_tags());
    for tid in table.matrix.tag_ids() {
        let a = pool(group_a, tid);
        let b = pool(group_b, tid);
        total_a += a;
        total_b += b;
        raw.push((tid, a, b));
    }
    if total_a <= 0.0 || total_b <= 0.0 {
        return refuse("xProfiler pool with expression");
    }

    let mut rows = Vec::with_capacity(raw.len());
    for (tid, a, b) in raw {
        if a == 0.0 && b == 0.0 {
            continue;
        }
        let pa = a / total_a;
        let pb = b / total_b;
        // Pooled-proportion z-test.
        let p = (a + b) / (total_a + total_b);
        let se = (p * (1.0 - p) * (1.0 / total_a + 1.0 / total_b)).sqrt();
        let z = if se > 0.0 { (pa - pb) / se } else { 0.0 };
        // Pseudocount of one normalized unit per pool for the ratio.
        let log2_ratio = ((a + 1.0) / (total_a + 1.0) / ((b + 1.0) / (total_b + 1.0))).log2();
        rows.push(XProfilerRow {
            tag: table.matrix.tag_of(tid),
            tag_no: tid.0,
            pooled_a: a,
            pooled_b: b,
            log2_ratio,
            z_score: z,
            p_value: two_sided_p(z),
        });
    }
    rows.sort_by(|x, y| {
        x.p_value
            .total_cmp(&y.p_value)
            .then(y.z_score.abs().total_cmp(&x.z_score.abs()))
            .then(x.tag.cmp(&y.tag))
    });
    Ok(XProfilerResult {
        rows,
        total_a,
        total_b,
    })
}

/// Convenience: pool by neoplastic state within a table — the "guess" a
/// naive xProfiler user makes (all cancerous vs all normal). A table
/// without both states is refused as [`compare_pools`] refuses it.
pub fn compare_cancer_vs_normal(table: &EnumTable) -> Result<XProfilerResult, GeaError> {
    use gea_sage::NeoplasticState;
    let cancer: Vec<LibraryId> = table.library_ids_where(|m| m.state == NeoplasticState::Cancerous);
    let normal: Vec<LibraryId> = table.library_ids_where(|m| m.state == NeoplasticState::Normal);
    compare_pools(table, &cancer, &normal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gea_sage::corpus::library_meta;
    use gea_sage::library::{NeoplasticState, TissueSource};
    use gea_sage::tag::TagUniverse;
    use gea_sage::{ExpressionMatrix, TissueType};

    fn table() -> EnumTable {
        let universe = TagUniverse::from_tags(
            ["AAAAAAAAAA", "CCCCCCCCCC", "GGGGGGGGGG"]
                .iter()
                .map(|s| s.parse().unwrap()),
        );
        let libs = (0..6)
            .map(|i| {
                library_meta(
                    &format!("L{i}"),
                    TissueType::Brain,
                    if i < 3 {
                        NeoplasticState::Cancerous
                    } else {
                        NeoplasticState::Normal
                    },
                    TissueSource::BulkTissue,
                )
            })
            .collect();
        EnumTable::new(
            "E",
            ExpressionMatrix::from_rows(
                universe,
                libs,
                // Every library sums to 1,500 — proportions are only
                // meaningful on normalized libraries (as GEA's cleaned
                // matrix guarantees); unequal totals would leak
                // compositional artifacts into the balanced tag.
                vec![
                    // Strongly enriched in the first group.
                    vec![900.0, 950.0, 920.0, 100.0, 120.0, 90.0],
                    // Balanced.
                    vec![500.0, 480.0, 510.0, 505.0, 495.0, 500.0],
                    // Depleted in the first group.
                    vec![100.0, 70.0, 70.0, 895.0, 885.0, 910.0],
                ],
            ),
        )
    }

    #[test]
    fn erfc_sanity() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!(erfc(3.0) < 3e-5);
        assert!((erfc(-1.0) + erfc(1.0) - 2.0).abs() < 1e-6);
        // Φ(1.96) two-sided ≈ 0.05.
        assert!((two_sided_p(1.96) - 0.05).abs() < 0.001);
    }

    #[test]
    fn detects_differential_tags() {
        let t = table();
        let result = compare_cancer_vs_normal(&t).unwrap();
        assert_eq!(result.rows.len(), 3);
        let a = result.row_for("AAAAAAAAAA".parse().unwrap()).unwrap();
        assert!(a.z_score > 2.0, "enriched tag z = {}", a.z_score);
        assert!(a.log2_ratio > 1.0);
        let g = result.row_for("GGGGGGGGGG".parse().unwrap()).unwrap();
        assert!(g.z_score < -2.0, "depleted tag z = {}", g.z_score);
        let c = result.row_for("CCCCCCCCCC".parse().unwrap()).unwrap();
        assert!(c.z_score.abs() < 1.0, "balanced tag z = {}", c.z_score);
        // Sorted by significance: the balanced tag comes last.
        assert_eq!(result.rows.last().unwrap().tag, c.tag);
    }

    #[test]
    fn significance_filter_is_bonferroni_corrected() {
        let t = table();
        let result = compare_cancer_vs_normal(&t).unwrap();
        let hits = result.significant(0.05);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|r| r.p_value < 0.05 / 3.0));
    }

    #[test]
    fn direction_flips_with_group_order() {
        let t = table();
        let cancer: Vec<LibraryId> = (0..3).map(LibraryId).collect();
        let normal: Vec<LibraryId> = (3..6).map(LibraryId).collect();
        let forward = compare_pools(&t, &cancer, &normal).unwrap();
        let backward = compare_pools(&t, &normal, &cancer).unwrap();
        let tag = "AAAAAAAAAA".parse().unwrap();
        let f = forward.row_for(tag).unwrap();
        let b = backward.row_for(tag).unwrap();
        assert!((f.z_score + b.z_score).abs() < 1e-9);
        assert!((f.p_value - b.p_value).abs() < 1e-12);
    }

    fn refusal(result: Result<XProfilerResult, GeaError>) -> String {
        match result {
            Err(e @ GeaError::EmptyGroup(_)) => e.to_string(),
            other => panic!("expected an EmptyGroup refusal, got {other:?}"),
        }
    }

    #[test]
    fn overlapping_pools_rejected() {
        let t = table();
        let refused = compare_pools(&t, &[LibraryId(0), LibraryId(1)], &[LibraryId(1)]);
        assert!(
            matches!(&refused, Err(GeaError::Malformed(what)) if what.contains("\"L1\"")),
            "{refused:?}"
        );
    }

    #[test]
    fn empty_pool_rejected() {
        let t = table();
        assert_eq!(
            refusal(compare_pools(&t, &[], &[LibraryId(0)])),
            "xProfiler pool selected no libraries"
        );
        // A table of one neoplastic state has no second pool.
        let cancer = t.with_libraries("C", &[LibraryId(0), LibraryId(1)]);
        assert_eq!(
            refusal(compare_cancer_vs_normal(&cancer)),
            "xProfiler pool selected no libraries"
        );
    }

    #[test]
    fn a_pool_without_expression_is_rejected() {
        let t = table();
        let silent = EnumTable::new(
            "Z",
            ExpressionMatrix::from_rows(
                t.matrix.universe().clone(),
                t.matrix.libraries().to_vec(),
                vec![vec![5.0, 5.0, 5.0, 0.0, 0.0, 0.0]; 3],
            ),
        );
        let message = refusal(compare_cancer_vs_normal(&silent));
        assert!(message.contains("with expression"), "{message}");
    }
}
