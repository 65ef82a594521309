//! The seed-and-grow greedy as first written — one `Candidate`, two
//! `n_attrs`-long vectors, built for every record it scores — kept
//! verbatim as the identity oracle: `crates/cluster/tests/cluster_props.rs`
//! and `tests/thesis_scale.rs` pin [`super::mine_greedy`] to it on random
//! matrices (NaN cells and ties included) and on the thesis-scale data
//! set. Nothing on a served path calls it.

use super::{Fascicle, FascicleParams};
use crate::dataset::AttrSource;
use crate::tolerance::ToleranceVector;

/// Internal candidate: member records plus the per-attribute envelope.
#[derive(Debug, Clone)]
struct Candidate {
    records: Vec<usize>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    compact: usize,
}

impl Candidate {
    fn singleton<D: AttrSource>(data: &D, record: usize) -> Candidate {
        let n_attrs = data.n_attrs();
        let mut lo = Vec::with_capacity(n_attrs);
        for a in 0..n_attrs {
            lo.push(data.attr_values(a)[record]);
        }
        let hi = lo.clone();
        Candidate {
            records: vec![record],
            compact: n_attrs,
            lo,
            hi,
        }
    }

    /// Compact attributes the union of `self` and `other` would retain.
    fn union_compact(&self, other: &Candidate, tol: &ToleranceVector) -> usize {
        let mut count = 0;
        for a in 0..self.lo.len() {
            let lo = self.lo[a].min(other.lo[a]);
            let hi = self.hi[a].max(other.hi[a]);
            if tol.is_compact(a, lo, hi) {
                count += 1;
            }
        }
        count
    }

    fn merge(&mut self, other: Candidate, tol: &ToleranceVector) {
        self.records.extend(other.records);
        self.records.sort_unstable();
        let mut compact = 0;
        for a in 0..self.lo.len() {
            self.lo[a] = self.lo[a].min(other.lo[a]);
            self.hi[a] = self.hi[a].max(other.hi[a]);
            if tol.is_compact(a, self.lo[a], self.hi[a]) {
                compact += 1;
            }
        }
        self.compact = compact;
    }

    fn into_fascicle(self, tol: &ToleranceVector) -> Fascicle {
        let mut compact_attrs = Vec::new();
        let mut compact_ranges = Vec::new();
        for a in 0..self.lo.len() {
            if tol.is_compact(a, self.lo[a], self.hi[a]) {
                compact_attrs.push(a);
                compact_ranges.push((self.lo[a], self.hi[a]));
            }
        }
        Fascicle {
            records: self.records,
            compact_attrs,
            compact_ranges,
        }
    }
}

/// Grow one seed: repeatedly absorb the record whose addition keeps the
/// most compact attributes, while at least `k` remain.
fn grow_seed<D: AttrSource>(data: &D, tol: &ToleranceVector, k: usize, seed: usize) -> Candidate {
    let mut grown = Candidate::singleton(data, seed);
    let mut available: Vec<bool> = vec![true; data.n_records()];
    available[seed] = false;
    loop {
        let mut best: Option<(usize, usize)> = None; // (record, compact)
        for (r, &avail) in available.iter().enumerate() {
            if !avail {
                continue;
            }
            let other = Candidate::singleton(data, r);
            let compact = grown.union_compact(&other, tol);
            if compact >= k && best.map(|(_, c)| compact > c).unwrap_or(true) {
                best = Some((r, compact));
            }
        }
        match best {
            Some((r, _)) => {
                available[r] = false;
                grown.merge(Candidate::singleton(data, r), tol);
            }
            None => break,
        }
    }
    grown
}

/// The batched seed-and-grow miner. Returns qualifying fascicles sorted by
/// descending member count (ties by first record id); duplicate grown sets
/// are collapsed, and a fascicle that is a subset of another reported
/// fascicle is dropped.
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
    assert!(params.batch_size > 0, "batch size must be positive");
    let k = params.min_compact_attrs;
    let mut grown: Vec<Candidate> = Vec::new();
    let mut batch_start = 0;
    while batch_start < data.n_records() {
        let batch_end = (batch_start + params.batch_size).min(data.n_records());
        for seed in batch_start..batch_end {
            let candidate = grow_seed(data, tol, k, seed);
            if candidate.records.len() >= params.min_records
                && candidate.compact >= k
                && !grown.iter().any(|g| g.records == candidate.records)
            {
                grown.push(candidate);
            }
        }
        batch_start = batch_end;
    }
    // Drop fascicles subsumed by a larger one.
    let sets: Vec<Vec<usize>> = grown.iter().map(|g| g.records.clone()).collect();
    let mut fascicles: Vec<Fascicle> = grown
        .into_iter()
        .filter(|c| {
            !sets.iter().any(|other| {
                other.len() > c.records.len() && c.records.iter().all(|r| other.contains(r))
            })
        })
        .map(|c| c.into_fascicle(tol))
        .collect();
    fascicles.sort_by(|a, b| {
        b.len()
            .cmp(&a.len())
            .then_with(|| a.records.cmp(&b.records))
    });
    fascicles
}
