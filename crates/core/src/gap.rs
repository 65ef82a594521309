//! GAP tables and the diff() operator (thesis §3.2.2).
//!
//! A GAP table summarizes the difference between two SUMY tables, one row
//! per tag common to both. The gap level for a tag is
//!
//! ```text
//! gap = (μ_hi − σ_hi) − (μ_lo + σ_lo)
//! ```
//!
//! where the `hi` side is the SUMY table with the higher average. When the
//! two `[μ − σ, μ + σ]` bands do not overlap the gap is that positive
//! separation, *signed*: positive if the **first** SUMY table has the higher
//! average, negative otherwise. When the bands overlap, the gap is NULL
//! (Figure 3.4) — such tags are usually filtered out before candidate-gene
//! inspection.

use gea_sage::tag::Tag;

use crate::sumy::{SumyRow, SumyTable};

/// One GAP row.
#[derive(Debug, Clone, PartialEq)]
pub struct GapRow {
    /// The tag.
    pub tag: Tag,
    /// Display tag number (taken from the first SUMY table's row).
    pub tag_no: u32,
    /// Gap levels, one per gap column. A single-`diff` table has one; set
    /// operations can produce several (Figure 3.6's GAP₄ has two).
    pub gaps: Vec<Option<f64>>,
}

impl GapRow {
    /// The first gap column (the common case).
    pub fn gap(&self) -> Option<f64> {
        self.gaps.first().copied().flatten()
    }
}

/// A GAP table: named, one row per tag, one or more gap columns.
#[derive(Debug, Clone, PartialEq)]
pub struct GapTable {
    /// Table name, e.g. `brain35k_4canvsnor_gap`.
    pub name: String,
    /// Names of the gap columns (`["Gap"]` for a plain diff; set operations
    /// label columns by their source table).
    pub columns: Vec<String>,
    rows: Vec<GapRow>,
}

impl GapTable {
    /// Build from rows; sorted by tag, duplicates rejected, and every row
    /// must have one gap per column.
    pub fn new(name: &str, columns: Vec<String>, mut rows: Vec<GapRow>) -> GapTable {
        assert!(
            !columns.is_empty(),
            "GAP table needs at least one gap column"
        );
        for r in &rows {
            assert_eq!(
                r.gaps.len(),
                columns.len(),
                "row {} has {} gaps for {} columns",
                r.tag,
                r.gaps.len(),
                columns.len()
            );
        }
        rows.sort_by_key(|r| r.tag);
        for pair in rows.windows(2) {
            assert_ne!(pair[0].tag, pair[1].tag, "duplicate tag in GAP table");
        }
        GapTable {
            name: name.to_string(),
            columns,
            rows,
        }
    }

    /// Number of tags.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows in tag order.
    pub fn rows(&self) -> &[GapRow] {
        &self.rows
    }

    /// The row for `tag`, if present.
    pub fn row_for(&self, tag: Tag) -> Option<&GapRow> {
        self.rows
            .binary_search_by_key(&tag, |r| r.tag)
            .ok()
            .map(|i| &self.rows[i])
    }

    /// σ on GAP: keep rows satisfying `keep` (§3.2.3's selection operator).
    pub fn select(&self, name: &str, mut keep: impl FnMut(&GapRow) -> bool) -> GapTable {
        GapTable {
            name: name.to_string(),
            columns: self.columns.clone(),
            rows: self.rows.iter().filter(|r| keep(r)).cloned().collect(),
        }
    }

    /// Keep only rows whose first gap is non-NULL — the usual step before
    /// sorting and plotting ("we remove all the tags with overlapping
    /// ranges", §4.3.1 step 7).
    pub fn drop_null_gaps(&self, name: &str) -> GapTable {
        self.select(name, |r| r.gap().is_some())
    }

    /// π on GAP: only the tag list survives (Case 3 "applied 'projection'
    /// to retain only the tags").
    pub fn project_tags(&self) -> Vec<Tag> {
        self.rows.iter().map(|r| r.tag).collect()
    }
}

/// The diff() operator: `GAP = diff(SUMY₁, SUMY₂)` over the tags common to
/// both tables.
pub fn diff(name: &str, first: &SumyTable, second: &SumyTable) -> GapTable {
    let mut rows = Vec::new();
    for row1 in first.rows() {
        let Some(row2) = second.row_for(row1.tag) else {
            continue;
        };
        rows.push(GapRow {
            tag: row1.tag,
            tag_no: row1.tag_no,
            gaps: vec![gap_value(row1, row2)],
        });
    }
    GapTable::new(name, vec!["Gap".to_string()], rows)
}

/// The gap level between two SUMY rows for the same tag (Figure 3.4):
/// `(μ_hi − σ_hi) − (μ_lo + σ_lo)`, signed positive when `first` has the
/// higher average, NULL (None) when the σ-bands overlap.
pub fn gap_value(first: &SumyRow, second: &SumyRow) -> Option<f64> {
    let (hi, lo, sign) = if first.average >= second.average {
        (first, second, 1.0)
    } else {
        (second, first, -1.0)
    };
    let separation = (hi.average - hi.std_dev) - (lo.average + lo.std_dev);
    if separation > 0.0 {
        Some(sign * separation)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;

    fn row(tag: &str, no: u32, lo: f64, hi: f64, avg: f64, sd: f64) -> SumyRow {
        SumyRow {
            tag: tag.parse().unwrap(),
            tag_no: no,
            range: Interval::new(lo, hi).unwrap(),
            average: avg,
            std_dev: sd,
        }
    }

    /// The exact worked example of Figure 3.5.
    fn figure_3_5_tables() -> (SumyTable, SumyTable) {
        // Tag names stand in for the thesis's abstract Tag1..Tag5.
        let sumy1 = SumyTable::new(
            "SUMY1",
            vec![
                row("AAAAAAAAAA", 1, 5.0, 5.0, 5.0, 0.0),      // Tag1
                row("CCCCCCCCCC", 2, 0.0, 7.0, 3.0, 1.0),      // Tag2
                row("GGGGGGGGGG", 3, 10.0, 120.0, 70.0, 15.0), // Tag3
                row("TTTTTTTTTT", 4, 0.0, 20.0, 10.0, 4.0),    // Tag4
            ],
        );
        let sumy2 = SumyTable::new(
            "SUMY2",
            vec![
                row("AAAAAAAAAA", 1, 0.0, 14.0, 7.0, 1.0),
                row("GGGGGGGGGG", 3, 10.0, 130.0, 60.0, 25.0),
                row("TTTTTTTTTT", 4, 0.0, 12.0, 3.0, 1.0),
                row("ACGTACGTAC", 5, 0.0, 50.0, 20.0, 15.0), // Tag5
            ],
        );
        (sumy1, sumy2)
    }

    #[test]
    fn figure_3_5() {
        let (s1, s2) = figure_3_5_tables();
        let gap = diff("GAP", &s1, &s2);
        // Only the common tags Tag1, Tag3, Tag4 appear.
        assert_eq!(gap.len(), 3);
        assert!(gap.row_for("CCCCCCCCCC".parse().unwrap()).is_none());
        assert!(gap.row_for("ACGTACGTAC".parse().unwrap()).is_none());
        // Tag1: (7−1) − (5+0) = 1, negative because SUMY1 has the lower
        // average → −1.
        let t1 = gap.row_for("AAAAAAAAAA".parse().unwrap()).unwrap();
        assert_eq!(t1.gap(), Some(-1.0));
        // Tag3: bands overlap → NULL.
        let t3 = gap.row_for("GGGGGGGGGG".parse().unwrap()).unwrap();
        assert_eq!(t3.gap(), None);
        // Tag4: (10−4) − (3+1) = 2, positive (SUMY1 higher).
        let t4 = gap.row_for("TTTTTTTTTT".parse().unwrap()).unwrap();
        assert_eq!(t4.gap(), Some(2.0));
    }

    #[test]
    fn gap_is_antisymmetric() {
        let (s1, s2) = figure_3_5_tables();
        let forward = diff("f", &s1, &s2);
        let backward = diff("b", &s2, &s1);
        for fr in forward.rows() {
            let br = backward.row_for(fr.tag).unwrap();
            match (fr.gap(), br.gap()) {
                (Some(f), Some(b)) => assert_eq!(f, -b, "tag {}", fr.tag),
                (None, None) => {}
                other => panic!("nullness differs for {}: {other:?}", fr.tag),
            }
        }
    }

    #[test]
    fn touching_bands_are_overlap() {
        // μ₁ = 10, σ₁ = 2 → band up to 12... band down to 8; μ₂ = 5, σ₂ = 3
        // → band up to 8. Separation = 8 − 8 = 0: defined as overlap (NULL).
        let a = row("AAAAAAAAAA", 1, 0.0, 20.0, 10.0, 2.0);
        let b = row("AAAAAAAAAA", 1, 0.0, 10.0, 5.0, 3.0);
        assert_eq!(gap_value(&a, &b), None);
    }

    #[test]
    fn selection_helpers() {
        let (s1, s2) = figure_3_5_tables();
        let gap = diff("g", &s1, &s2);
        assert_eq!(gap.drop_null_gaps("nn").len(), 2);
        assert_eq!(gap.project_tags().len(), 3);
    }

    #[test]
    fn equal_rows_have_null_gap() {
        let a = row("AAAAAAAAAA", 1, 0.0, 10.0, 5.0, 1.0);
        assert_eq!(gap_value(&a, &a), None);
    }

    #[test]
    fn zero_stddev_non_overlapping() {
        let a = row("AAAAAAAAAA", 1, 8.0, 8.0, 8.0, 0.0);
        let b = row("AAAAAAAAAA", 1, 3.0, 3.0, 3.0, 0.0);
        assert_eq!(gap_value(&a, &b), Some(5.0));
        assert_eq!(gap_value(&b, &a), Some(-5.0));
    }

    #[test]
    #[should_panic(expected = "needs at least one gap column")]
    fn empty_columns_rejected() {
        GapTable::new("bad", vec![], vec![]);
    }
}
