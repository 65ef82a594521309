//! Sorted range indexes.
//!
//! The populate() operator evaluates a conjunction of up to tens of
//! thousands of range conditions (§3.3.2). A [`SortedIndex`] over one
//! attribute answers `lo ≤ value ≤ hi` with two binary searches, returning
//! the qualifying row ids; populate() intersects the hit lists of whichever
//! indexed attributes appear in the query and verifies the remaining
//! conditions by scan.

use crate::table::RowId;

/// A sorted `(value, row)` index over one numeric attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct SortedIndex {
    /// Entries sorted by value (NaNs excluded at build time).
    entries: Vec<(f64, RowId)>,
}

impl SortedIndex {
    /// Build from a slice of values; `values[r]` indexes row `r`. Non-finite
    /// values are skipped (they can never satisfy a range condition).
    pub fn build(values: &[f64]) -> SortedIndex {
        let mut entries: Vec<(f64, RowId)> = values
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_finite())
            .map(|(r, &v)| (v, r))
            .collect();
        entries.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        SortedIndex { entries }
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Row ids whose value lies in `lo..=hi`, in ascending row order.
    pub fn range(&self, lo: f64, hi: f64) -> Vec<RowId> {
        if lo > hi {
            return Vec::new();
        }
        let start = self.entries.partition_point(|&(v, _)| v < lo);
        let end = self.entries.partition_point(|&(v, _)| v <= hi);
        let mut rows: Vec<RowId> = self.entries[start..end].iter().map(|&(_, r)| r).collect();
        rows.sort_unstable();
        rows
    }
}

/// Intersect several ascending row-id lists, cheapest-first.
pub fn intersect_row_lists(mut lists: Vec<Vec<RowId>>) -> Vec<RowId> {
    if lists.is_empty() {
        return Vec::new();
    }
    lists.sort_by_key(|l| l.len());
    let mut acc = lists[0].clone();
    for list in &lists[1..] {
        let mut out = Vec::with_capacity(acc.len().min(list.len()));
        let (mut i, mut j) = (0, 0);
        while i < acc.len() && j < list.len() {
            match acc[i].cmp(&list[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(acc[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        acc = out;
        if acc.is_empty() {
            break;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_queries() {
        let idx = SortedIndex::build(&[5.0, 1.0, 3.0, 3.0, 9.0]);
        assert_eq!(idx.range(3.0, 5.0), vec![0, 2, 3]);
        assert_eq!(idx.range(0.0, 0.5), Vec::<usize>::new());
        assert_eq!(idx.range(9.0, 9.0), vec![4]);
        assert_eq!(idx.range(5.0, 3.0), Vec::<usize>::new());
    }

    #[test]
    fn non_finite_values_are_skipped() {
        let idx = SortedIndex::build(&[1.0, f64::NAN, f64::INFINITY, 2.0]);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.range(0.0, 10.0), vec![0, 3]);
    }

    #[test]
    fn intersection_of_hit_lists() {
        let lists = vec![vec![1, 3, 5, 7, 9], vec![3, 4, 5, 9], vec![0, 3, 9]];
        assert_eq!(intersect_row_lists(lists), vec![3, 9]);
        assert_eq!(
            intersect_row_lists(vec![vec![1, 2], vec![]]),
            Vec::<usize>::new()
        );
        assert_eq!(intersect_row_lists(vec![]), Vec::<usize>::new());
        assert_eq!(intersect_row_lists(vec![vec![4, 8]]), vec![4, 8]);
    }
}
