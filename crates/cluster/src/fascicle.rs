//! The Fascicles algorithm (Jagadish, Madar, Ng — VLDB 1999; thesis §2.5.1).
//!
//! A *fascicle* is a set of records that "more or less agree" — within a
//! per-attribute tolerance — on at least `k` attributes, the fascicle's
//! *compact attributes*. Given the tolerance vector `t` and minimum compact
//! count `k`, the miner finds fascicles with at least `min_records` members.
//! If a fascicle consists of only cancerous libraries, its compact tags
//! collectively form a signature of the cancer — the thesis's route to
//! candidate genes.
//!
//! Two miners are provided:
//!
//! * [`mine_greedy`] — the production algorithm: seed-and-grow. Every
//!   record seeds a candidate fascicle, which greedily absorbs whichever
//!   remaining record keeps the most compact attributes (the first such
//!   record on a tie), as long as at least `k` remain; duplicate grown
//!   sets are collapsed. Each growth round is linear in records ×
//!   attributes, matching the §3.3.1 complexity claim. Seeds are grown in
//!   record order. Scoring copies nothing per candidate: the table is
//!   copied once, record-major, and the seed being grown keeps one
//!   per-attribute `lo`/`hi` envelope. A growth round scores every
//!   available record against it in place, stopping once the record can
//!   no longer win, and the absorbed record merges into the envelope in
//!   place. A grown seed keeps only its member list; the envelopes of the
//!   fascicles that survive deduplication are rebuilt from their members'
//!   rows.
//!   [`reference::mine_greedy`] keeps the first draft, which built a
//!   one-record candidate for every record it scored, as the oracle the
//!   tests hold this one to, bit for bit. Fascicles may overlap — "a
//!   library may be included in multiple clusters" (§3.1.1).
//! * [`mine_exact`] — exhaustive enumeration of record subsets, feasible
//!   only for small inputs; used to cross-validate the greedy miner in
//!   tests. Reports all *maximal* qualifying fascicles, which may overlap.

#[doc(hidden)]
pub mod reference;

use crate::dataset::AttrSource;
use crate::tolerance::ToleranceVector;

/// Mining parameters (the thesis's Figure 4.6 inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct FascicleParams {
    /// `k` — minimum number of compact attributes.
    pub min_compact_attrs: usize,
    /// Minimum number of records in a reported fascicle ("min size = the
    /// minimum # of tuples per set").
    pub min_records: usize,
    /// Records ingested per phase-1 batch: the VLDB paper's memory-bounded
    /// phase structure, surfaced in the thesis's GUI as "how big of a chunk
    /// phase 1 would use". It is kept for the GQL schema and the lineage;
    /// it never changed the result, since the batches covered the seeds in
    /// record order, and [`mine_greedy`] grows them in that order without
    /// batching.
    pub batch_size: usize,
}

impl Default for FascicleParams {
    fn default() -> FascicleParams {
        FascicleParams {
            min_compact_attrs: 1,
            min_records: 2,
            batch_size: 6, // the thesis's example batch size
        }
    }
}

/// A mined fascicle.
#[derive(Debug, Clone, PartialEq)]
pub struct Fascicle {
    /// Member records, ascending.
    pub records: Vec<usize>,
    /// Compact attributes, ascending.
    pub compact_attrs: Vec<usize>,
    /// Per-compact-attribute value ranges `(lo, hi)`, aligned with
    /// `compact_attrs`.
    pub compact_ranges: Vec<(f64, f64)>,
}

impl Fascicle {
    /// Number of member records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the fascicle has no members.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The value range of a compact attribute, if it is compact here.
    pub fn range_of(&self, attr: usize) -> Option<(f64, f64)> {
        self.compact_attrs
            .binary_search(&attr)
            .ok()
            .map(|i| self.compact_ranges[i])
    }

    /// Re-verify the fascicle invariant against the data: every listed
    /// compact attribute's spread over the member records is within
    /// tolerance, and the recorded ranges are exact.
    pub fn verify<D: AttrSource>(&self, data: &D, tol: &ToleranceVector) -> bool {
        for (&attr, &(lo, hi)) in self.compact_attrs.iter().zip(&self.compact_ranges) {
            let vals = data.attr_values(attr);
            let actual_lo = self
                .records
                .iter()
                .map(|&r| vals[r])
                .fold(f64::INFINITY, f64::min);
            let actual_hi = self
                .records
                .iter()
                .map(|&r| vals[r])
                .fold(f64::NEG_INFINITY, f64::max);
            if actual_lo != lo || actual_hi != hi || !tol.is_compact(attr, lo, hi) {
                return false;
            }
        }
        true
    }
}

/// Attributes scored between two early-exit checks: long enough for the
/// count to vectorize, short enough to drop a hopeless record early.
const CHUNK: usize = 256;

/// The mined table, copied once record-major (`values[record * n_attrs +
/// attr]`), so scoring a record reads one contiguous row.
struct Rows {
    values: Vec<f64>,
    n_records: usize,
    n_attrs: usize,
}

impl Rows {
    fn copy<D: AttrSource>(data: &D) -> Rows {
        let (n_records, n_attrs) = (data.n_records(), data.n_attrs());
        let mut values = vec![0.0; n_records * n_attrs];
        for a in 0..n_attrs {
            for (r, &v) in data.attr_values(a).iter().enumerate() {
                values[r * n_attrs + a] = v;
            }
        }
        Rows {
            values,
            n_records,
            n_attrs,
        }
    }

    fn row(&self, record: usize) -> &[f64] {
        &self.values[record * self.n_attrs..(record + 1) * self.n_attrs]
    }
}

/// Compact attributes the envelope `lo`/`hi` keeps with `row` added, or
/// `None` if fewer than `need` would. Scoring stops as soon as the
/// attributes still unscored cannot make up the difference.
fn score(lo: &[f64], hi: &[f64], row: &[f64], tol: &[f64], need: usize) -> Option<usize> {
    let mut count = 0;
    let mut remaining = row.len();
    let chunks = lo.chunks(CHUNK).zip(hi.chunks(CHUNK));
    for ((lo, hi), (row, tol)) in chunks.zip(row.chunks(CHUNK).zip(tol.chunks(CHUNK))) {
        if count + remaining < need {
            return None;
        }
        count += lo
            .iter()
            .zip(hi)
            .zip(row.iter().zip(tol))
            .map(|((&lo, &hi), (&v, &t))| (hi.max(v) - lo.min(v) <= t) as usize)
            .sum::<usize>();
        remaining -= row.len();
    }
    (count >= need).then_some(count)
}

/// Grow one seed, leaving its envelope in `lo`/`hi`: repeatedly absorb the
/// first available record that keeps the most compact attributes, while at
/// least `k` remain. Returns the members, ascending, and the compact count;
/// a seed that absorbs nothing counts every attribute compact.
fn grow_seed(
    rows: &Rows,
    tol: &[f64],
    k: usize,
    seed: usize,
    lo: &mut [f64],
    hi: &mut [f64],
) -> (Vec<usize>, usize) {
    lo.copy_from_slice(rows.row(seed));
    hi.copy_from_slice(rows.row(seed));
    let mut available = vec![true; rows.n_records];
    available[seed] = false;
    let mut members = vec![seed];
    let mut compact = rows.n_attrs;
    loop {
        let mut best: Option<(usize, usize)> = None; // (record, compact)
        for r in (0..rows.n_records).filter(|&r| available[r]) {
            let need = best.map_or(k, |(_, c)| c + 1);
            if let Some(c) = score(lo, hi, rows.row(r), tol, need) {
                best = Some((r, c));
            }
        }
        let Some((r, c)) = best else { break };
        available[r] = false;
        members.push(r);
        for ((lo, hi), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(rows.row(r)) {
            *lo = lo.min(v);
            *hi = hi.max(v);
        }
        compact = c;
    }
    members.sort_unstable();
    (members, compact)
}

/// The fascicle a member set describes: its envelope rebuilt in `lo`/`hi`
/// from the members' rows (min and max are order-free, so this is the
/// envelope growth left behind), then its compact attributes and their
/// ranges.
fn envelope_fascicle(
    rows: &Rows,
    records: Vec<usize>,
    tol: &[f64],
    lo: &mut [f64],
    hi: &mut [f64],
) -> Fascicle {
    lo.copy_from_slice(rows.row(records[0]));
    hi.copy_from_slice(rows.row(records[0]));
    for &r in &records[1..] {
        for ((lo, hi), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(rows.row(r)) {
            *lo = lo.min(v);
            *hi = hi.max(v);
        }
    }
    let (compact_attrs, compact_ranges) = (0..lo.len())
        .filter(|&a| hi[a] - lo[a] <= tol[a])
        .map(|a| (a, (lo[a], hi[a])))
        .unzip();
    Fascicle {
        records,
        compact_attrs,
        compact_ranges,
    }
}

/// The seed-and-grow miner. Returns qualifying fascicles sorted by
/// descending member count (ties by first record id); duplicate grown sets
/// are collapsed, and a fascicle that is a subset of another reported
/// fascicle is dropped. Only the member lists are kept while seeds grow;
/// the envelopes are rebuilt for the survivors. `params.batch_size` does
/// not change the result.
pub fn mine_greedy<D: AttrSource>(
    data: &D,
    tol: &ToleranceVector,
    params: &FascicleParams,
) -> Vec<Fascicle> {
    assert_eq!(
        tol.len(),
        data.n_attrs(),
        "tolerance vector must cover every attribute"
    );
    let rows = Rows::copy(data);
    let tol = tol.as_slice();
    let k = params.min_compact_attrs;
    let mut lo = vec![0.0; rows.n_attrs];
    let mut hi = vec![0.0; rows.n_attrs];
    let mut grown: Vec<Vec<usize>> = Vec::new();
    for seed in 0..rows.n_records {
        let (records, compact) = grow_seed(&rows, tol, k, seed, &mut lo, &mut hi);
        if records.len() >= params.min_records && compact >= k && !grown.contains(&records) {
            grown.push(records);
        }
    }
    // Drop sets subsumed by a larger one.
    let mut fascicles: Vec<Fascicle> = grown
        .iter()
        .filter(|c| {
            !grown
                .iter()
                .any(|other| other.len() > c.len() && c.iter().all(|r| other.contains(r)))
        })
        .map(|records| envelope_fascicle(&rows, records.clone(), tol, &mut lo, &mut hi))
        .collect();
    fascicles.sort_by(|a, b| {
        b.len()
            .cmp(&a.len())
            .then_with(|| a.records.cmp(&b.records))
    });
    fascicles
}

/// Exhaustive miner for small inputs (≤ 22 records): every record subset of
/// size ≥ `min_records` with ≥ `k` compact attributes, filtered to the
/// *maximal* qualifying subsets.
pub fn mine_exact<D: AttrSource>(
    data: &D,
    tol: &ToleranceVector,
    params: &FascicleParams,
) -> Vec<Fascicle> {
    let n = data.n_records();
    assert!(n <= 22, "mine_exact is exponential; got {n} records");
    assert_eq!(tol.len(), data.n_attrs());
    let k = params.min_compact_attrs;

    let compact_count = |members: u32| -> usize {
        let mut count = 0;
        for a in 0..data.n_attrs() {
            let vals = data.attr_values(a);
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for (r, &v) in vals.iter().enumerate().take(n) {
                if members & (1 << r) != 0 {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
            if tol.is_compact(a, lo, hi) {
                count += 1;
            }
        }
        count
    };

    // Collect all qualifying subsets, then keep the maximal ones.
    let mut qualifying: Vec<u32> = Vec::new();
    for members in 1u32..(1 << n) {
        if (members.count_ones() as usize) < params.min_records {
            continue;
        }
        if compact_count(members) >= k {
            qualifying.push(members);
        }
    }
    let all = qualifying.clone();
    qualifying.retain(|&m| !all.iter().any(|&other| other != m && other & m == m));

    let mut fascicles: Vec<Fascicle> = qualifying
        .into_iter()
        .map(|members| {
            let records: Vec<usize> = (0..n).filter(|r| members & (1 << r) != 0).collect();
            let mut compact_attrs = Vec::new();
            let mut compact_ranges = Vec::new();
            for a in 0..data.n_attrs() {
                let vals = data.attr_values(a);
                let lo = records
                    .iter()
                    .map(|&r| vals[r])
                    .fold(f64::INFINITY, f64::min);
                let hi = records
                    .iter()
                    .map(|&r| vals[r])
                    .fold(f64::NEG_INFINITY, f64::max);
                if tol.is_compact(a, lo, hi) {
                    compact_attrs.push(a);
                    compact_ranges.push((lo, hi));
                }
            }
            Fascicle {
                records,
                compact_attrs,
                compact_ranges,
            }
        })
        .collect();
    fascicles.sort_by(|a, b| {
        b.len()
            .cmp(&a.len())
            .then_with(|| a.records.cmp(&b.records))
    });
    fascicles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    /// The Table 2.2 fragment: 10 libraries × 5 tags.
    fn table_2_2() -> Dataset {
        Dataset::from_records(&[
            vec![1843.0, 3.0, 10.0, 15.0, 11.0], // SAGE_BB542_whitematter
            vec![1418.0, 7.0, 0.0, 30.0, 12.0],  // SAGE_Duke_1273
            vec![1251.0, 18.0, 0.0, 33.0, 20.0], // SAGE_Duke_757
            vec![1800.0, 0.0, 58.0, 40.0, 20.0], // SAGE_Duke_cerebellum
            vec![1050.0, 25.0, 1.0, 60.0, 15.0], // SAGE_Duke_GBM_H1110
            vec![1910.0, 1.0, 17.0, 74.0, 30.0], // SAGE_Duke_H1020
            vec![503.0, 8.0, 0.0, 0.0, 456.0],   // SAGE_95_259
            vec![364.0, 7.0, 7.0, 7.0, 222.0],   // SAGE_95_260
            vec![65.0, 5.0, 79.0, 9.0, 300.0],   // SAGE_Br_N
            vec![847.0, 4.0, 124.0, 0.0, 500.0], // SAGE_DCIS
        ])
    }

    /// The §2.5.1 tolerances. Note: the thesis states t_AAAAAAAAAT = 47 and
    /// claims libraries {0, 3, 5} are in a 5-D fascicle, but their actual
    /// spread on that tag is 58 − 10 = 48 — an off-by-one slip in the
    /// thesis's example. We use 48 so the example's *conclusion* holds.
    fn table_2_2_tolerances() -> ToleranceVector {
        ToleranceVector::from_values(vec![120.0, 3.0, 48.0, 60.0, 20.0])
    }

    #[test]
    fn thesis_example_fascicle_is_found_exactly() {
        let data = table_2_2();
        let tol = table_2_2_tolerances();
        let params = FascicleParams {
            min_compact_attrs: 5,
            min_records: 3,
            batch_size: 10,
        };
        let fascicles = mine_exact(&data, &tol, &params);
        let hit = fascicles
            .iter()
            .find(|f| f.records == vec![0, 3, 5])
            .expect("the thesis's {whitematter, cerebellum, H1020} fascicle");
        assert_eq!(hit.compact_attrs, vec![0, 1, 2, 3, 4]);
        assert!(hit.verify(&data, &tol));
    }

    #[test]
    fn greedy_finds_the_thesis_fascicle() {
        let data = table_2_2();
        let tol = table_2_2_tolerances();
        let params = FascicleParams {
            min_compact_attrs: 5,
            min_records: 3,
            batch_size: 6,
        };
        let fascicles = mine_greedy(&data, &tol, &params);
        assert!(
            fascicles.iter().any(|f| f.records == vec![0, 3, 5]),
            "greedy missed the planted fascicle: {:?}",
            fascicles.iter().map(|f| &f.records).collect::<Vec<_>>()
        );
        for f in &fascicles {
            assert!(f.verify(&data, &tol));
            assert!(f.compact_attrs.len() >= 5);
            assert!(f.len() >= 3);
        }
    }

    #[test]
    fn greedy_respects_min_records() {
        let data = table_2_2();
        let tol = table_2_2_tolerances();
        let params = FascicleParams {
            min_compact_attrs: 5,
            min_records: 4,
            batch_size: 10,
        };
        let fascicles = mine_greedy(&data, &tol, &params);
        assert!(fascicles.iter().all(|f| f.len() >= 4));
    }

    #[test]
    fn zero_tolerance_groups_only_identical_records() {
        let data = Dataset::from_records(&[vec![1.0, 2.0], vec![1.0, 2.0], vec![1.0, 3.0]]);
        let tol = ToleranceVector::from_values(vec![0.0, 0.0]);
        let params = FascicleParams {
            min_compact_attrs: 2,
            min_records: 2,
            batch_size: 3,
        };
        let fascicles = mine_greedy(&data, &tol, &params);
        assert_eq!(fascicles.len(), 1);
        assert_eq!(fascicles[0].records, vec![0, 1]);
    }

    #[test]
    fn exact_reports_maximal_overlapping_fascicles() {
        // Records 0,1 agree on attr 0; records 1,2 agree on attr 1. With
        // k = 1, both pairs are maximal 1-compact fascicles containing
        // record 1.
        let data = Dataset::from_records(&[vec![0.0, 0.0], vec![1.0, 10.0], vec![50.0, 11.0]]);
        let tol = ToleranceVector::from_values(vec![2.0, 2.0]);
        let params = FascicleParams {
            min_compact_attrs: 1,
            min_records: 2,
            batch_size: 3,
        };
        let fascicles = mine_exact(&data, &tol, &params);
        let sets: Vec<&Vec<usize>> = fascicles.iter().map(|f| &f.records).collect();
        assert!(sets.contains(&&vec![0, 1]));
        assert!(sets.contains(&&vec![1, 2]));
    }

    #[test]
    fn greedy_batching_covers_all_records() {
        let data = table_2_2();
        let tol = table_2_2_tolerances();
        for batch_size in [1, 2, 3, 5, 10] {
            let params = FascicleParams {
                min_compact_attrs: 4,
                min_records: 2,
                batch_size,
            };
            let fascicles = mine_greedy(&data, &tol, &params);
            for f in &fascicles {
                assert!(f.verify(&data, &tol), "batch_size {batch_size}");
            }
            // No duplicate or subsumed fascicles are reported.
            for (i, f) in fascicles.iter().enumerate() {
                for (j, g) in fascicles.iter().enumerate() {
                    if i != j {
                        assert!(
                            !f.records.iter().all(|r| g.records.contains(r)),
                            "fascicle {:?} subsumed by {:?}",
                            f.records,
                            g.records
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fascicle_range_lookup() {
        let data = table_2_2();
        let tol = table_2_2_tolerances();
        let params = FascicleParams {
            min_compact_attrs: 5,
            min_records: 3,
            batch_size: 10,
        };
        let f = mine_exact(&data, &tol, &params)
            .into_iter()
            .find(|f| f.records == vec![0, 3, 5])
            .unwrap();
        assert_eq!(f.range_of(0), Some((1800.0, 1910.0)));
        assert_eq!(f.range_of(1), Some((0.0, 3.0)));
    }
}
