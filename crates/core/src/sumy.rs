//! SUMY tables — intensional cluster definitions (thesis §3.1.2).
//!
//! In the intensional world a cluster is represented by its *definition*:
//! for each compact tag, the range, mean and standard deviation of its
//! expression levels over the cluster's libraries (Figure 3.3a). The thesis
//! allows more aggregate columns than these (§3.1.2); nothing here computes
//! one, so a row carries exactly these.

use gea_sage::tag::{Tag, TagId};
use gea_sage::ExpressionMatrix;

use crate::interval::{AllenRelation, Interval};

/// One SUMY row: the definition of one compact tag.
#[derive(Debug, Clone, PartialEq)]
pub struct SumyRow {
    /// The tag.
    pub tag: Tag,
    /// The tag's number in the originating universe (display only, as in
    /// `AACAGCAAAA_(1580)`).
    pub tag_no: u32,
    /// `[min, max]` of the tag's expression over the cluster's libraries.
    pub range: Interval,
    /// Mean expression level.
    pub average: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

/// A SUMY table: a named set of tag definitions, sorted by tag.
#[derive(Debug, Clone, PartialEq)]
pub struct SumyTable {
    /// Table name, e.g. `brain35k_4CancerFasTbl`.
    pub name: String,
    rows: Vec<SumyRow>,
}

impl SumyTable {
    /// Build from rows; they are sorted by tag and must not contain
    /// duplicate tags.
    ///
    /// The common producers ([`aggregate`], the sharded drivers' shard-order
    /// concatenation) emit rows already in tag order because the tag
    /// universe assigns ids in sorted order — one strictly-ascending pass
    /// then proves both sortedness and uniqueness at once, and the stable
    /// sort (with its scratch buffer and row moves) is skipped entirely.
    ///
    /// # Panics
    ///
    /// On a duplicate tag: for rows the caller built itself. Rows that came
    /// from elsewhere go through [`SumyTable::try_new`].
    pub fn new(name: &str, rows: Vec<SumyRow>) -> SumyTable {
        match SumyTable::try_new(name, rows) {
            Ok(table) => table,
            Err(tag) => panic!("duplicate tag {tag} in SUMY table"),
        }
    }

    /// [`SumyTable::new`] for rows off the wire: a duplicate tag is the
    /// error, carrying that tag.
    pub fn try_new(name: &str, mut rows: Vec<SumyRow>) -> Result<SumyTable, Tag> {
        let sorted_unique = rows.windows(2).all(|pair| pair[0].tag < pair[1].tag);
        if !sorted_unique {
            rows.sort_by_key(|r| r.tag);
            if let Some(pair) = rows.windows(2).find(|pair| pair[0].tag == pair[1].tag) {
                return Err(pair[0].tag);
            }
        }
        Ok(SumyTable {
            name: name.to_string(),
            rows,
        })
    }

    /// Number of tags defined.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table defines no tags.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows in tag order.
    pub fn rows(&self) -> &[SumyRow] {
        &self.rows
    }

    /// The row for `tag`, if present.
    pub fn row_for(&self, tag: Tag) -> Option<&SumyRow> {
        self.rows
            .binary_search_by_key(&tag, |r| r.tag)
            .ok()
            .map(|i| &self.rows[i])
    }

    /// All defined tags, in order.
    pub fn tags(&self) -> impl Iterator<Item = Tag> + '_ {
        self.rows.iter().map(|r| r.tag)
    }

    /// σ on SUMY: keep rows satisfying `keep`, producing a new named table.
    pub fn select(&self, name: &str, mut keep: impl FnMut(&SumyRow) -> bool) -> SumyTable {
        SumyTable {
            name: name.to_string(),
            rows: self.rows.iter().filter(|r| keep(r)).cloned().collect(),
        }
    }

    /// Range selection via an Allen relation: keep tags whose `[min, max]`
    /// stands in `rel` to `query` (Figure 4.17's "any tag" search).
    pub fn select_range(&self, name: &str, rel: AllenRelation, query: Interval) -> SumyTable {
        self.select(name, |r| r.range.satisfies(rel, query))
    }

    /// Loose-overlap range selection: keep tags whose range shares at least
    /// one point with `query` — what the thesis's "Overlaps" search button
    /// actually computes (its example accepts [20, 616] against [10, 700],
    /// which is Allen-*during*, not Allen-*overlaps*).
    pub fn select_intersecting(&self, name: &str, query: Interval) -> SumyTable {
        self.select(name, |r| r.range.intersects(query))
    }
}

/// The aggregate() operator (§3.2.1): convert a cluster from its
/// extensional/ENUM form to its intensional/SUMY form, computing range,
/// mean and population standard deviation per tag in one pass over the
/// matrix's tag rows.
///
/// `matrix` must already be restricted to the cluster's libraries; every
/// tag of the matrix becomes a SUMY row.
pub fn aggregate(name: &str, matrix: &ExpressionMatrix) -> SumyTable {
    assert!(
        matrix.n_libraries() > 0,
        "cannot aggregate an ENUM table with no libraries"
    );
    SumyTable::new(name, aggregate_rows_range(matrix, 0, matrix.n_tags()))
}

/// How many tag rows the blocked kernels interleave. The per-tag
/// accumulation chains (`min`/`max`/`+`) are latency-bound and strictly
/// sequential per tag — interleaving independent tags' chains keeps the
/// FPU pipeline full without reordering any single tag's operations, so
/// the blocked kernels stay bit-identical to the scalar reference.
const LANES: usize = 4;

/// One fused min/max/sum pass over a contiguous tag row — the exact
/// accumulation order of the scalar reference ([`reference::aggregate_row`]).
#[inline(always)]
fn fused_min_max_sum(values: &[f64]) -> (f64, f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut sum = 0.0;
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
        sum += v;
    }
    (lo, hi, sum)
}

/// The variance pass: sum of squared deviations from `avg`, in row order.
#[inline(always)]
fn squared_deviation_sum(values: &[f64], avg: f64) -> f64 {
    let mut acc = 0.0;
    for &v in values {
        acc += (v - avg) * (v - avg);
    }
    acc
}

/// [`fused_min_max_sum`] over four equal-length rows at once. Each row's
/// accumulator chain is untouched — the lanes are independent tags — so
/// lane `l` returns exactly `fused_min_max_sum(r_l)`.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn fused_block(r0: &[f64], r1: &[f64], r2: &[f64], r3: &[f64]) -> [(f64, f64, f64); LANES] {
    let len = r0.len();
    assert!(r1.len() == len && r2.len() == len && r3.len() == len);
    let mut lo = [f64::INFINITY; LANES];
    let mut hi = [f64::NEG_INFINITY; LANES];
    let mut sum = [0.0; LANES];
    for i in 0..len {
        let v = [r0[i], r1[i], r2[i], r3[i]];
        for l in 0..LANES {
            lo[l] = lo[l].min(v[l]);
            hi[l] = hi[l].max(v[l]);
            sum[l] += v[l];
        }
    }
    [
        (lo[0], hi[0], sum[0]),
        (lo[1], hi[1], sum[1]),
        (lo[2], hi[2], sum[2]),
        (lo[3], hi[3], sum[3]),
    ]
}

/// [`squared_deviation_sum`] over four rows at once, one mean per lane.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn squared_deviation_block(
    r0: &[f64],
    r1: &[f64],
    r2: &[f64],
    r3: &[f64],
    avg: [f64; LANES],
) -> [f64; LANES] {
    let len = r0.len();
    assert!(r1.len() == len && r2.len() == len && r3.len() == len);
    let mut acc = [0.0; LANES];
    for i in 0..len {
        let v = [r0[i], r1[i], r2[i], r3[i]];
        for l in 0..LANES {
            let d = v[l] - avg[l];
            acc[l] += d * d;
        }
    }
    acc
}

/// The blocked columnar kernel behind [`aggregate`], [`aggregate_tags`]
/// and `gea-exec`'s shards: aggregate `count` tags (`tid_at(0..count)`),
/// interleaving [`LANES`] contiguous tag rows per pass.
fn aggregate_rows_with(
    matrix: &ExpressionMatrix,
    tid_at: impl Fn(usize) -> TagId,
    count: usize,
) -> Vec<SumyRow> {
    let mut out = Vec::with_capacity(count);
    aggregate_rows_sink(matrix, tid_at, count, |row| out.push(row));
    out
}

/// Sink-shaped core of the blocked kernel: emit each finished row through
/// `sink` instead of collecting. `gea-exec` uses this to write shard rows
/// straight into their final positions in one preallocated output,
/// skipping the per-shard staging vectors and the merge copy.
fn aggregate_rows_sink(
    matrix: &ExpressionMatrix,
    tid_at: impl Fn(usize) -> TagId,
    count: usize,
    mut sink: impl FnMut(SumyRow),
) {
    let nf = matrix.n_libraries() as f64;
    let mut i = 0;
    while i + LANES <= count {
        let t = [tid_at(i), tid_at(i + 1), tid_at(i + 2), tid_at(i + 3)];
        let r = [
            matrix.tag_row(t[0]),
            matrix.tag_row(t[1]),
            matrix.tag_row(t[2]),
            matrix.tag_row(t[3]),
        ];
        let stats = fused_block(r[0], r[1], r[2], r[3]);
        let avg = [
            stats[0].2 / nf,
            stats[1].2 / nf,
            stats[2].2 / nf,
            stats[3].2 / nf,
        ];
        let sq = squared_deviation_block(r[0], r[1], r[2], r[3], avg);
        for l in 0..LANES {
            let (lo, hi, _) = stats[l];
            sink(SumyRow {
                tag: matrix.tag_of(t[l]),
                tag_no: t[l].0,
                range: Interval::new(lo, hi).expect("finite expression levels"),
                average: avg[l],
                std_dev: (sq[l] / nf).sqrt(),
            });
        }
        i += LANES;
    }
    while i < count {
        sink(aggregate_row(matrix, tid_at(i)));
        i += 1;
    }
}

/// Aggregate the contiguous tag-id block `[lo, hi)` with the blocked
/// kernel. The serial operator is this helper over `[0, n_tags)`; sharded
/// drivers (`gea-exec`) run it per shard range — same per-tag operation
/// order either way, hence bit-identical results.
pub fn aggregate_rows_range(matrix: &ExpressionMatrix, lo: usize, hi: usize) -> Vec<SumyRow> {
    aggregate_rows_with(matrix, |i| TagId((lo + i) as u32), hi - lo)
}

/// [`aggregate_rows_range`] emitting rows through `sink` instead of
/// collecting — same kernel, same order, zero staging allocation.
pub fn aggregate_rows_range_with(
    matrix: &ExpressionMatrix,
    lo: usize,
    hi: usize,
    sink: impl FnMut(SumyRow),
) {
    aggregate_rows_sink(matrix, |i| TagId((lo + i) as u32), hi - lo, sink);
}

/// Aggregate an explicit tag list with the blocked kernel (the
/// [`aggregate_tags`] axis, sliced by sharded drivers).
pub fn aggregate_tag_rows(matrix: &ExpressionMatrix, tags: &[TagId]) -> Vec<SumyRow> {
    aggregate_rows_with(matrix, |i| tags[i], tags.len())
}

/// [`aggregate_tag_rows`] emitting rows through `sink` instead of
/// collecting.
pub fn aggregate_tag_rows_with(
    matrix: &ExpressionMatrix,
    tags: &[TagId],
    sink: impl FnMut(SumyRow),
) {
    aggregate_rows_sink(matrix, |i| tags[i], tags.len(), sink);
}

/// The per-tag arithmetic of [`aggregate`]: one fused min/max/sum pass
/// followed by the variance pass. Exposed so sharded drivers can compute
/// shard-local rows that are bit-identical to the serial operator —
/// identical operation order, not merely identical math. The matrix must
/// have at least one library.
pub fn aggregate_row(matrix: &ExpressionMatrix, tid: TagId) -> SumyRow {
    let n = matrix.n_libraries();
    let values = matrix.tag_row(tid);
    let (lo, hi, sum) = fused_min_max_sum(values);
    let avg = sum / n as f64;
    let var = squared_deviation_sum(values, avg) / n as f64;
    SumyRow {
        tag: matrix.tag_of(tid),
        tag_no: tid.0,
        range: Interval::new(lo, hi).expect("finite expression levels"),
        average: avg,
        std_dev: var.sqrt(),
    }
}

/// Aggregate only a subset of the matrix's tags — used when forming the
/// control-group SUMY tables, which "contain only the compact attributes of
/// the fascicle" (§4.3.1.2 steps 4–5).
pub fn aggregate_tags(name: &str, matrix: &ExpressionMatrix, tags: &[TagId]) -> SumyTable {
    assert!(
        matrix.n_libraries() > 0,
        "cannot aggregate an ENUM table with no libraries"
    );
    SumyTable::new(name, aggregate_tag_rows(matrix, tags))
}

/// The pre-change scalar kernels, kept verbatim as the bit-identity
/// oracle: `tests/kernel_props.rs` pins the fused/blocked kernels (and the
/// sharded drivers built on them) to these reference implementations for
/// randomized matrices, so any accidental reassociation of a per-tag
/// accumulation chain fails loudly.
#[doc(hidden)]
pub mod reference {
    use super::*;

    /// `aggregate_row` as originally shipped: fused min/max/sum pass,
    /// then a variance pass via iterator sum.
    pub fn aggregate_row(matrix: &ExpressionMatrix, tid: TagId) -> SumyRow {
        let n = matrix.n_libraries();
        let values = matrix.tag_row(tid);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &v in values {
            lo = lo.min(v);
            hi = hi.max(v);
            sum += v;
        }
        let avg = sum / n as f64;
        let var = values.iter().map(|v| (v - avg) * (v - avg)).sum::<f64>() / n as f64;
        SumyRow {
            tag: matrix.tag_of(tid),
            tag_no: tid.0,
            range: Interval::new(lo, hi).expect("finite expression levels"),
            average: avg,
            std_dev: var.sqrt(),
        }
    }

    /// `aggregate_tags_row` as originally shipped: one fold pass per
    /// statistic (min, max, sum, then squared deviations).
    pub fn aggregate_tags_row(matrix: &ExpressionMatrix, tid: TagId) -> SumyRow {
        let n = matrix.n_libraries();
        let values = matrix.tag_row(tid);
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let avg = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|v| (v - avg) * (v - avg)).sum::<f64>() / n as f64;
        SumyRow {
            tag: matrix.tag_of(tid),
            tag_no: tid.0,
            range: Interval::new(lo, hi).expect("finite expression levels"),
            average: avg,
            std_dev: var.sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gea_sage::corpus::library_meta;
    use gea_sage::library::{NeoplasticState, TissueSource, TissueType};
    use gea_sage::tag::TagUniverse;

    fn matrix() -> ExpressionMatrix {
        let universe = TagUniverse::from_tags(
            ["AAAAAAAAAA", "CCCCCCCCCC", "GGGGGGGGGG"]
                .iter()
                .map(|s| s.parse().unwrap()),
        );
        let libs = (0..4)
            .map(|i| {
                library_meta(
                    &format!("L{i}"),
                    TissueType::Brain,
                    NeoplasticState::Normal,
                    TissueSource::BulkTissue,
                )
            })
            .collect();
        ExpressionMatrix::from_rows(
            universe,
            libs,
            vec![
                vec![2.0, 4.0, 4.0, 6.0],     // avg 4, sd sqrt(2)
                vec![10.0, 10.0, 10.0, 10.0], // constant
                vec![0.0, 1.0, 2.0, 3.0],
            ],
        )
    }

    #[test]
    fn aggregate_computes_range_mean_stddev() {
        let sumy = aggregate("test", &matrix());
        assert_eq!(sumy.len(), 3);
        let a = sumy.row_for("AAAAAAAAAA".parse().unwrap()).unwrap();
        assert_eq!(a.range, Interval::new(2.0, 6.0).unwrap());
        assert_eq!(a.average, 4.0);
        assert!((a.std_dev - 2.0f64.sqrt()).abs() < 1e-12);
        let c = sumy.row_for("CCCCCCCCCC".parse().unwrap()).unwrap();
        assert_eq!(c.range.width(), 0.0);
        assert_eq!(c.std_dev, 0.0);
    }

    #[test]
    fn aggregate_tags_restricts_rows() {
        let m = matrix();
        let g = m.id_of("GGGGGGGGGG".parse().unwrap()).unwrap();
        let sumy = aggregate_tags("sub", &m, &[g]);
        assert_eq!(sumy.len(), 1);
        assert_eq!(sumy.rows()[0].average, 1.5);
    }

    #[test]
    fn select_range_with_allen_relation() {
        let sumy = aggregate("test", &matrix());
        // Tags whose range is *during* [−1, 7]: AAAAAAAAAA ([2,6]) and
        // GGGGGGGGGG ([0,3]).
        let hit = sumy.select_range(
            "d",
            AllenRelation::During,
            Interval::new(-1.0, 7.0).unwrap(),
        );
        assert_eq!(hit.len(), 2);
        assert!(hit.row_for("CCCCCCCCCC".parse().unwrap()).is_none());
    }

    #[test]
    fn select_intersecting_is_loose() {
        let sumy = aggregate("test", &matrix());
        let hit = sumy.select_intersecting("ov", Interval::new(6.0, 9.0).unwrap());
        // [2,6] touches 6; [10,10] and [0,3] do not intersect [6,9].
        assert_eq!(hit.len(), 1);
        assert_eq!(hit.rows()[0].tag.to_string(), "AAAAAAAAAA");
    }

    #[test]
    fn selection_by_average() {
        let sumy = aggregate("test", &matrix());
        let high = sumy.select("high", |r| r.average > 3.0);
        assert_eq!(high.len(), 2);
    }

    #[test]
    fn blocked_kernel_matches_scalar_reference() {
        // A shape that exercises both the 4-lane blocks and the scalar
        // tail (7 tags = one block + 3), with awkward values.
        // Distinct tags, lexicographically ascending in i, so row i is
        // universe tag id i.
        let universe = TagUniverse::from_tags((0..7usize).map(|i| {
            let mut s = String::new();
            s.push(['A', 'C', 'G', 'T'][i / 4]);
            s.push(['A', 'C', 'G', 'T'][i % 4]);
            s.push_str("AAAAAAAA");
            s.parse().unwrap()
        }));
        let libs = (0..5)
            .map(|i| {
                library_meta(
                    &format!("L{i}"),
                    TissueType::Brain,
                    NeoplasticState::Normal,
                    TissueSource::BulkTissue,
                )
            })
            .collect();
        let rows: Vec<Vec<f64>> = (0..7)
            .map(|t| {
                (0..5)
                    .map(|l| ((t * 31 + l * 17) % 23) as f64 * 0.1 + 0.01 * t as f64)
                    .collect()
            })
            .collect();
        let m = ExpressionMatrix::from_rows(universe, libs, rows);
        let blocked = aggregate_rows_range(&m, 0, 7);
        for (i, row) in blocked.iter().enumerate() {
            let want = reference::aggregate_row(&m, TagId(i as u32));
            assert_eq!(row, &want, "tag {i} diverged from the reference");
            let want_tags = reference::aggregate_tags_row(&m, TagId(i as u32));
            assert_eq!(row, &want_tags, "tag {i} diverged from the fold reference");
        }
    }

    #[test]
    fn sumy_new_sorts_unsorted_rows() {
        // The sorted fast path must not change behaviour for unsorted
        // input: rows still come out tag-sorted, duplicates still panic.
        let mut rows = aggregate("t", &matrix()).rows().to_vec();
        rows.reverse();
        let table = SumyTable::new("r", rows);
        let tags: Vec<Tag> = table.tags().collect();
        let mut sorted = tags.clone();
        sorted.sort();
        assert_eq!(tags, sorted);
    }

    #[test]
    #[should_panic(expected = "duplicate tag")]
    fn duplicate_tags_rejected() {
        let row = SumyRow {
            tag: "AAAAAAAAAA".parse().unwrap(),
            tag_no: 0,
            range: Interval::new(0.0, 1.0).unwrap(),
            average: 0.5,
            std_dev: 0.1,
        };
        assert_eq!(
            SumyTable::try_new("dup", vec![row.clone(), row.clone()]),
            Err(row.tag)
        );
        SumyTable::new("dup", vec![row.clone(), row]);
    }
}
