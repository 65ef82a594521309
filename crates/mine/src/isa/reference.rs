//! ISA as first written — both z-scored views built as two
//! `Vec<Vec<f64>>` copies of the matrix before the first step — kept
//! verbatim as the identity oracle: `crates/mine/tests/properties.rs` pins
//! [`super::isa_step`] and [`super::mine_groups`] to it on random matrices
//! (constant rows and columns included). Nothing on a served path calls it.

use gea_core::EnumTable;
use gea_sage::tag::TagId;

use super::{converge_with, dedupe_modules, mean_sd, threshold, IsaParams};

/// The two z-scored views of the expression matrix.
#[derive(Debug, Clone)]
pub struct IsaScores {
    /// `row_z[t][l]`: tag `t`'s expression in library `l`, z-scored
    /// across libraries (the view that scores libraries).
    row_z: Vec<Vec<f64>>,
    /// `col_z[t][l]`: the same cell z-scored within library `l`'s column,
    /// across tags (the view that scores tags).
    col_z: Vec<Vec<f64>>,
}

impl IsaScores {
    /// Z-score the table's matrix both ways.
    pub fn build(table: &EnumTable) -> IsaScores {
        let n_tags = table.n_tags();
        let n_libs = table.n_libraries();
        let rows: Vec<&[f64]> = (0..n_tags)
            .map(|t| table.matrix.tag_row(TagId(t as u32)))
            .collect();

        let mut row_z = Vec::with_capacity(n_tags);
        for row in &rows {
            let (mean, sd) = mean_sd(row.iter().copied());
            row_z.push(zscore(row, mean, sd));
        }

        let mut col_z = vec![vec![0.0; n_libs]; n_tags];
        for l in 0..n_libs {
            let column = rows.iter().map(|row| row[l]);
            let (mean, sd) = mean_sd(column);
            if sd > 0.0 {
                for (t, row) in rows.iter().enumerate() {
                    col_z[t][l] = (row[l] - mean) / sd;
                }
            }
        }
        IsaScores { row_z, col_z }
    }

    fn n_tags(&self) -> usize {
        self.row_z.len()
    }

    fn n_libs(&self) -> usize {
        self.row_z.first().map_or(0, |r| r.len())
    }

    /// The stored row-z-score of tag `t` in library `l`.
    pub fn row_z(&self, t: usize, l: usize) -> f64 {
        self.row_z[t][l]
    }

    /// The stored column-z-score of tag `t` in library `l`.
    pub fn col_z(&self, t: usize, l: usize) -> f64 {
        self.col_z[t][l]
    }
}

fn zscore(row: &[f64], mean: f64, sd: f64) -> Vec<f64> {
    if sd > 0.0 {
        row.iter().map(|v| (v - mean) / sd).collect()
    } else {
        vec![0.0; row.len()]
    }
}

/// [`super::isa_step`] over the stored views.
pub fn isa_step(
    scores: &IsaScores,
    tags: &[usize],
    params: &IsaParams,
) -> (Vec<usize>, Vec<usize>) {
    if tags.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let inv = 1.0 / tags.len() as f64;
    let lib_scores: Vec<f64> = (0..scores.n_libs())
        .map(|l| tags.iter().map(|&t| scores.row_z[t][l]).sum::<f64>() * inv)
        .collect();
    let libs = threshold(&lib_scores, params.t_libs);
    if libs.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let inv = 1.0 / libs.len() as f64;
    let tag_scores: Vec<f64> = (0..scores.n_tags())
        .map(|t| libs.iter().map(|&l| scores.col_z[t][l]).sum::<f64>() * inv)
        .collect();
    (libs, threshold(&tag_scores, params.t_tags))
}

/// [`super::mine_groups`] over the stored views.
pub fn mine_groups(table: &EnumTable, params: &IsaParams) -> Vec<(Vec<usize>, Vec<usize>)> {
    let scores = IsaScores::build(table);
    let modules = (0..params.seeds)
        .map(|s| {
            converge_with(scores.n_tags(), s, params.seeds, params, |tags| {
                isa_step(&scores, tags, params)
            })
        })
        .collect();
    dedupe_modules(modules)
}
