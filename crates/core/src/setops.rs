//! Set operations in the intensional world (thesis §3.2.3).
//!
//! These operators "apply to either a pair of GAP or a pair of SUMY tables.
//! The intent is to manipulate at the level of tags":
//!
//! * **minus** — tags in the first table that are missing from the second
//!   (Figure 3.6's GAP₃);
//! * **intersect** — the common tags *with their corresponding values from
//!   both tables*: the result GAP table carries one gap column per input
//!   (Figure 3.6's GAP₄ has columns Gap₁ and Gap₂);
//! * **union** — defined similarly to intersection; tags present in only
//!   one input carry NULL in the other's columns.

use crate::gap::{GapRow, GapTable};
use crate::sumy::SumyTable;

/// GAP minus: rows of `first` whose tag does not appear in `second`. Keeps
/// `first`'s gap columns.
pub fn gap_minus(name: &str, first: &GapTable, second: &GapTable) -> GapTable {
    let rows = first
        .rows()
        .iter()
        .filter(|r| second.row_for(r.tag).is_none())
        .cloned()
        .collect();
    GapTable::new(name, first.columns.clone(), rows)
}

fn combined_columns(first: &GapTable, second: &GapTable) -> Vec<String> {
    // Column names qualified by source table, as in Figure 4.13's display
    // of two gap values per tag.
    let mut columns = Vec::with_capacity(first.columns.len() + second.columns.len());
    for c in &first.columns {
        columns.push(format!("{}.{}", first.name, c));
    }
    for c in &second.columns {
        columns.push(format!("{}.{}", second.name, c));
    }
    columns
}

/// GAP intersect: common tags, with the gap columns of both inputs side by
/// side.
pub fn gap_intersect(name: &str, first: &GapTable, second: &GapTable) -> GapTable {
    let columns = combined_columns(first, second);
    let rows = first
        .rows()
        .iter()
        .filter_map(|r1| {
            second.row_for(r1.tag).map(|r2| {
                let mut gaps = r1.gaps.clone();
                gaps.extend(r2.gaps.iter().copied());
                GapRow {
                    tag: r1.tag,
                    tag_no: r1.tag_no,
                    gaps,
                }
            })
        })
        .collect();
    GapTable::new(name, columns, rows)
}

/// GAP union: every tag of either input; missing sides padded with NULL.
pub fn gap_union(name: &str, first: &GapTable, second: &GapTable) -> GapTable {
    let columns = combined_columns(first, second);
    let mut rows: Vec<GapRow> = Vec::new();
    for r1 in first.rows() {
        let mut gaps = r1.gaps.clone();
        match second.row_for(r1.tag) {
            Some(r2) => gaps.extend(r2.gaps.iter().copied()),
            None => gaps.extend(std::iter::repeat_n(None, second.columns.len())),
        }
        rows.push(GapRow {
            tag: r1.tag,
            tag_no: r1.tag_no,
            gaps,
        });
    }
    for r2 in second.rows() {
        if first.row_for(r2.tag).is_none() {
            let mut gaps: Vec<Option<f64>> =
                std::iter::repeat_n(None, first.columns.len()).collect();
            gaps.extend(r2.gaps.iter().copied());
            rows.push(GapRow {
                tag: r2.tag,
                tag_no: r2.tag_no,
                gaps,
            });
        }
    }
    GapTable::new(name, columns, rows)
}

/// SUMY minus: rows of `first` whose tag does not appear in `second`.
pub fn sumy_minus(name: &str, first: &SumyTable, second: &SumyTable) -> SumyTable {
    let rows = first
        .rows()
        .iter()
        .filter(|r| second.row_for(r.tag).is_none())
        .cloned()
        .collect();
    SumyTable::new(name, rows)
}

/// SUMY intersect: rows of `first` whose tag also appears in `second`
/// (aggregates taken from `first`; pair with another intersect the other
/// way around to see both sides).
pub fn sumy_intersect(name: &str, first: &SumyTable, second: &SumyTable) -> SumyTable {
    let rows = first
        .rows()
        .iter()
        .filter(|r| second.row_for(r.tag).is_some())
        .cloned()
        .collect();
    SumyTable::new(name, rows)
}

/// SUMY union: all of `first`'s rows plus `second`'s rows for tags absent
/// from `first`.
pub fn sumy_union(name: &str, first: &SumyTable, second: &SumyTable) -> SumyTable {
    let mut rows: Vec<_> = first.rows().to_vec();
    rows.extend(
        second
            .rows()
            .iter()
            .filter(|r| first.row_for(r.tag).is_none())
            .cloned(),
    );
    SumyTable::new(name, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gap::GapRow;

    fn gap_row(tag: &str, no: u32, gap: Option<f64>) -> GapRow {
        GapRow {
            tag: tag.parse().unwrap(),
            tag_no: no,
            gaps: vec![gap],
        }
    }

    /// The literal GAP₁ and GAP₂ of Figure 3.6 (tag names stand in for
    /// Tag1..Tag5).
    fn figure_3_6_tables() -> (GapTable, GapTable) {
        let gap1 = GapTable::new(
            "GAP1",
            vec!["Gap".to_string()],
            vec![
                gap_row("AAAAAAAAAA", 1, Some(-11.0)), // Tag1
                gap_row("CCCCCCCCCC", 2, Some(2.0)),   // Tag2
                gap_row("GGGGGGGGGG", 3, None),        // Tag3 NULL
                gap_row("TTTTTTTTTT", 4, Some(5.0)),   // Tag4
            ],
        );
        let gap2 = GapTable::new(
            "GAP2",
            vec!["Gap".to_string()],
            vec![
                gap_row("AAAAAAAAAA", 1, Some(-8.0)),
                gap_row("GGGGGGGGGG", 3, Some(9.0)),
                gap_row("TTTTTTTTTT", 4, Some(10.0)),
                gap_row("ACGTACGTAC", 5, Some(11.0)), // Tag5
            ],
        );
        (gap1, gap2)
    }

    #[test]
    fn figure_3_6_minus() {
        let (g1, g2) = figure_3_6_tables();
        let g3 = gap_minus("GAP3", &g1, &g2);
        // GAP₃ contains only Tag2 with gap 2.
        assert_eq!(g3.len(), 1);
        let row = &g3.rows()[0];
        assert_eq!(row.tag.to_string(), "CCCCCCCCCC");
        assert_eq!(row.gap(), Some(2.0));
    }

    #[test]
    fn figure_3_6_intersect() {
        let (g1, g2) = figure_3_6_tables();
        let g4 = gap_intersect("GAP4", &g1, &g2);
        // GAP₄: Tag1 (−11, −8), Tag3 (NULL, 9), Tag4 (5, 10) — two gap
        // columns.
        assert_eq!(g4.len(), 3);
        assert_eq!(g4.columns.len(), 2);
        let t1 = g4.row_for("AAAAAAAAAA".parse().unwrap()).unwrap();
        assert_eq!(t1.gaps, vec![Some(-11.0), Some(-8.0)]);
        let t3 = g4.row_for("GGGGGGGGGG".parse().unwrap()).unwrap();
        assert_eq!(t3.gaps, vec![None, Some(9.0)]);
        let t4 = g4.row_for("TTTTTTTTTT".parse().unwrap()).unwrap();
        assert_eq!(t4.gaps, vec![Some(5.0), Some(10.0)]);
    }

    #[test]
    fn gap_union_pads_with_null() {
        let (g1, g2) = figure_3_6_tables();
        let u = gap_union("U", &g1, &g2);
        assert_eq!(u.len(), 5);
        let t2 = u.row_for("CCCCCCCCCC".parse().unwrap()).unwrap();
        assert_eq!(t2.gaps, vec![Some(2.0), None]);
        let t5 = u.row_for("ACGTACGTAC".parse().unwrap()).unwrap();
        assert_eq!(t5.gaps, vec![None, Some(11.0)]);
    }

    #[test]
    fn set_op_algebra() {
        let (g1, g2) = figure_3_6_tables();
        // |minus| + |intersect| = |first|.
        let m = gap_minus("m", &g1, &g2);
        let i = gap_intersect("i", &g1, &g2);
        assert_eq!(m.len() + i.len(), g1.len());
        // |union| = |first| + |second| − |intersect|.
        let u = gap_union("u", &g1, &g2);
        assert_eq!(u.len(), g1.len() + g2.len() - i.len());
        // minus with self is empty; intersect with self is self-sized.
        assert!(gap_minus("e", &g1, &g1).is_empty());
        assert_eq!(gap_intersect("s", &g1, &g1).len(), g1.len());
    }

    #[test]
    fn sumy_set_ops() {
        use crate::interval::Interval;
        use crate::sumy::SumyRow;
        let row = |tag: &str, no: u32, avg: f64| SumyRow {
            tag: tag.parse().unwrap(),
            tag_no: no,
            range: Interval::new(0.0, avg * 2.0).unwrap(),
            average: avg,
            std_dev: 1.0,
        };
        let s1 = SumyTable::new(
            "s1",
            vec![row("AAAAAAAAAA", 1, 5.0), row("CCCCCCCCCC", 2, 8.0)],
        );
        let s2 = SumyTable::new(
            "s2",
            vec![row("CCCCCCCCCC", 2, 100.0), row("GGGGGGGGGG", 3, 9.0)],
        );
        let m = sumy_minus("m", &s1, &s2);
        assert_eq!(m.len(), 1);
        assert_eq!(m.rows()[0].tag.to_string(), "AAAAAAAAAA");
        let i = sumy_intersect("i", &s1, &s2);
        assert_eq!(i.len(), 1);
        // Values come from the first table.
        assert_eq!(i.rows()[0].average, 8.0);
        let u = sumy_union("u", &s1, &s2);
        assert_eq!(u.len(), 3);
        assert_eq!(
            u.row_for("CCCCCCCCCC".parse().unwrap()).unwrap().average,
            8.0
        );
    }
}
