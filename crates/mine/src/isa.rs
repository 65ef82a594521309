//! The Iterative Signature Algorithm (Bergmann, Ihmels & Barkai 2003),
//! mapped onto GEA's worlds: *genes* are SAGE tags, *conditions* are
//! libraries. Starting from a deterministic seed tag set, the algorithm
//! alternates two thresholded projections until a fixpoint:
//!
//! 1. score every library by the mean of the seed tags' row-z-scores and
//!    keep those at least `t_libs` standard deviations high;
//! 2. score every tag by the mean of the kept libraries' column-z-scores
//!    and keep those at least `t_tags` standard deviations high.
//!
//! A converged (tags, libraries) pair is a *transcription module*: a
//! candidate fascicle whose compact tags are the signature itself.
//!
//! Everything is deterministic by construction — seeds are fixed strided
//! subsets of the tag universe visited in order, thresholds have no random
//! component, and ties never arise because membership is a predicate, not
//! a ranking. That makes the per-seed loop embarrassingly parallel:
//! `gea-exec` shards the seed range and concatenates in seed order, which
//! is byte-identical to the serial loop.

#[doc(hidden)]
pub mod reference;

use gea_core::EnumTable;
use gea_sage::tag::TagId;
use gea_sage::ExpressionMatrix;

use crate::ResolvedParams;

/// Resolved ISA parameters (see [`crate::IsaBackend`] for the schema).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsaParams {
    /// Number of strided seed tag sets to iterate (modules are deduped).
    pub seeds: usize,
    /// Tag threshold, in standard deviations of the tag score vector.
    pub t_tags: f64,
    /// Library threshold, in standard deviations of the library scores.
    pub t_libs: f64,
    /// Iteration cap per seed; a seed still oscillating here is kept
    /// as-is (deterministically) rather than discarded.
    pub max_iters: usize,
}

impl IsaParams {
    /// Extract from a resolved parameter set (panics on schema mismatch —
    /// impossible for params resolved against [`crate::IsaBackend`]).
    pub fn from_resolved(p: &ResolvedParams) -> IsaParams {
        IsaParams {
            seeds: p.uint("seeds") as usize,
            t_tags: p.float("t_tags"),
            t_libs: p.float("t_libs"),
            max_iters: p.uint("max_iters") as usize,
        }
    }
}

/// What ISA iterates over: the mined matrix, borrowed, with each tag row's
/// and each library column's `(mean, sd)`, computed once per `mine` and
/// shared (read-only) across seed workers. A cell's two z-scores are
/// computed when read, so the scores hold no copy of the matrix.
#[derive(Debug, Clone)]
pub struct IsaScores<'a> {
    matrix: &'a ExpressionMatrix,
    /// Tag `t`'s row statistics, across libraries: the view that scores
    /// libraries.
    rows: Vec<(f64, f64)>,
    /// Library `l`'s column statistics, across tags: the view that scores
    /// tags.
    cols: Vec<(f64, f64)>,
}

fn mean_sd(values: impl Iterator<Item = f64> + Clone) -> (f64, f64) {
    let n = values.clone().count();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mean = values.clone().sum::<f64>() / n as f64;
    let var = values.map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
    (mean, var.sqrt())
}

/// `v` z-scored against `(mean, sd)`; 0 when the spread is 0.
fn zscore(v: f64, (mean, sd): (f64, f64)) -> f64 {
    if sd > 0.0 {
        (v - mean) / sd
    } else {
        0.0
    }
}

impl<'a> IsaScores<'a> {
    /// The row and column statistics of the table's matrix.
    pub fn build(table: &'a EnumTable) -> IsaScores<'a> {
        let matrix = &table.matrix;
        let row = |t: usize| matrix.tag_row(TagId(t as u32));
        let n_tags = table.n_tags();
        let rows = (0..n_tags)
            .map(|t| mean_sd(row(t).iter().copied()))
            .collect();
        let cols = (0..table.n_libraries())
            .map(|l| mean_sd((0..n_tags).map(move |t| row(t)[l])))
            .collect();
        IsaScores { matrix, rows, cols }
    }

    fn n_tags(&self) -> usize {
        self.rows.len()
    }

    fn n_libs(&self) -> usize {
        self.cols.len()
    }

    /// Tag `t`'s expression in library `l`, z-scored across libraries.
    pub fn row_z(&self, t: usize, l: usize) -> f64 {
        zscore(self.matrix.tag_row(TagId(t as u32))[l], self.rows[t])
    }

    /// The same cell z-scored within library `l`'s column, across tags.
    pub fn col_z(&self, t: usize, l: usize) -> f64 {
        zscore(self.matrix.tag_row(TagId(t as u32))[l], self.cols[l])
    }
}

/// Threshold a score vector: keep indices whose score is positive and at
/// least `t` standard deviations of the score vector. Membership is a
/// pure predicate over the scores, so the result is order-free.
fn threshold(scores: &[f64], t: f64) -> Vec<usize> {
    let (_, sd) = mean_sd(scores.iter().copied());
    let cut = t * sd;
    scores
        .iter()
        .enumerate()
        .filter(|(_, &s)| s > 0.0 && s >= cut)
        .map(|(i, _)| i)
        .collect()
}

/// One ISA refinement step: project the tag set onto library scores,
/// threshold, then project the kept libraries back onto tag scores and
/// threshold. Returns `(libraries, tags)`; either may be empty (a dead
/// module). Public so the fixpoint-idempotence property can be tested
/// directly: for a converged module, `isa_step` is the identity.
pub fn isa_step(
    scores: &IsaScores<'_>,
    tags: &[usize],
    params: &IsaParams,
) -> (Vec<usize>, Vec<usize>) {
    if tags.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let inv = 1.0 / tags.len() as f64;
    let lib_scores: Vec<f64> = (0..scores.n_libs())
        .map(|l| tags.iter().map(|&t| scores.row_z(t, l)).sum::<f64>() * inv)
        .collect();
    let libs = threshold(&lib_scores, params.t_libs);
    if libs.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let inv = 1.0 / libs.len() as f64;
    let tag_scores: Vec<f64> = (0..scores.n_tags())
        .map(|t| libs.iter().map(|&l| scores.col_z(t, l)).sum::<f64>() * inv)
        .collect();
    (libs, threshold(&tag_scores, params.t_tags))
}

/// A converged (or iteration-capped) transcription module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsaModule {
    /// Member libraries (indices into the mined table), ascending.
    pub libs: Vec<usize>,
    /// Signature tags (indices into the mined table), ascending.
    pub tags: Vec<usize>,
    /// Whether the module reached a true fixpoint before `max_iters`.
    pub converged: bool,
}

/// Iterate seed `seed` (of `n_seeds` strided seed sets) to convergence.
/// Returns `None` if the module dies (either projection empties out).
pub fn converge_seed(
    scores: &IsaScores<'_>,
    seed: usize,
    n_seeds: usize,
    params: &IsaParams,
) -> Option<IsaModule> {
    converge_with(scores.n_tags(), seed, n_seeds, params, |tags| {
        isa_step(scores, tags, params)
    })
}

/// [`converge_seed`]'s fixpoint loop over any step function, so
/// [`reference`] iterates its own step the same way.
fn converge_with(
    n_tags: usize,
    seed: usize,
    n_seeds: usize,
    params: &IsaParams,
    step: impl Fn(&[usize]) -> (Vec<usize>, Vec<usize>),
) -> Option<IsaModule> {
    let mut tags: Vec<usize> = (seed..n_tags).step_by(n_seeds.max(1)).collect();
    if tags.is_empty() {
        return None;
    }
    let mut libs: Vec<usize> = Vec::new();
    let mut converged = false;
    for _ in 0..params.max_iters.max(1) {
        let (next_libs, next_tags) = step(&tags);
        if next_tags.is_empty() || next_libs.is_empty() {
            return None;
        }
        if next_tags == tags && next_libs == libs {
            converged = true;
            break;
        }
        tags = next_tags;
        libs = next_libs;
    }
    Some(IsaModule {
        libs,
        tags,
        converged,
    })
}

/// Drop dead seeds and collapse duplicate modules, keeping first-seed
/// order. Shared verbatim by the serial backend and the sharded driver so
/// their outputs agree byte-for-byte.
pub fn dedupe_modules(modules: Vec<Option<IsaModule>>) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut seen: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
    for module in modules.into_iter().flatten() {
        let group = (module.libs, module.tags);
        if !seen.contains(&group) {
            seen.push(group);
        }
    }
    seen
}

/// Run ISA end to end over a table: every seed in order, then dedupe.
/// Returns `(libraries, tags)` groups ready for materialization.
pub fn mine_groups(table: &EnumTable, params: &IsaParams) -> Vec<(Vec<usize>, Vec<usize>)> {
    let scores = IsaScores::build(table);
    let modules = (0..params.seeds)
        .map(|s| converge_seed(&scores, s, params.seeds, params))
        .collect();
    dedupe_modules(modules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gea_core::EnumTable;
    use gea_sage::corpus::library_meta;
    use gea_sage::library::{NeoplasticState, TissueSource};
    use gea_sage::tag::{Tag, TagUniverse};
    use gea_sage::{ExpressionMatrix, TissueType};

    fn table(values: Vec<Vec<f64>>) -> EnumTable {
        let n_libs = values[0].len();
        let universe = TagUniverse::from_tags(
            (0..values.len() as u32).map(|i| Tag::from_code(i * 101).unwrap()),
        );
        let libs = (0..n_libs)
            .map(|i| {
                library_meta(
                    &format!("L{i}"),
                    TissueType::Brain,
                    NeoplasticState::Normal,
                    TissueSource::BulkTissue,
                )
            })
            .collect();
        EnumTable::new("E", ExpressionMatrix::from_rows(universe, libs, values))
    }

    fn params() -> IsaParams {
        IsaParams {
            seeds: 4,
            t_tags: 0.5,
            t_libs: 1.0,
            max_iters: 50,
        }
    }

    /// A planted module: tags 0–3 are high exactly in libraries 0–2.
    fn planted() -> Vec<Vec<f64>> {
        (0..8)
            .map(|t| {
                (0..9)
                    .map(|l| {
                        let base = ((t * 13 + l * 7) % 5) as f64;
                        if t < 4 && l < 3 {
                            base + 40.0
                        } else {
                            base
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn recovers_the_planted_module() {
        let groups = mine_groups(&table(planted()), &params());
        assert!(
            groups.contains(&(vec![0, 1, 2], vec![0, 1, 2, 3])),
            "planted module not recovered: {groups:?}"
        );
    }

    #[test]
    fn converged_modules_are_fixpoints() {
        let t = table(planted());
        let scores = IsaScores::build(&t);
        let p = params();
        let mut checked = 0;
        for seed in 0..p.seeds {
            if let Some(m) = converge_seed(&scores, seed, p.seeds, &p) {
                if m.converged {
                    let (libs, tags) = isa_step(&scores, &m.tags, &p);
                    assert_eq!((libs, tags), (m.libs, m.tags), "seed {seed} not a fixpoint");
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "no seed converged");
    }

    #[test]
    fn constant_matrix_yields_no_modules() {
        let groups = mine_groups(&table(vec![vec![1.0; 5]; 4]), &params());
        assert!(groups.is_empty(), "{groups:?}");
    }

    #[test]
    fn dedupe_keeps_first_occurrence_order() {
        let m = |libs: Vec<usize>, tags: Vec<usize>| {
            Some(IsaModule {
                libs,
                tags,
                converged: true,
            })
        };
        let groups = dedupe_modules(vec![
            m(vec![1], vec![2]),
            None,
            m(vec![0], vec![3]),
            m(vec![1], vec![2]),
        ]);
        assert_eq!(groups, vec![(vec![1], vec![2]), (vec![0], vec![3])]);
    }
}
