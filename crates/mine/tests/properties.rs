//! Property tests for the mining backends' mathematical contracts:
//! Aitchison-distance invariants for the simplex backend (permutation
//! invariance, perturbation invariance, zero-replacement monotonicity)
//! and, for ISA, fixpoint idempotence — a converged module must be exactly
//! fixed by one more refinement step — and agreement with
//! `isa::reference`, which z-scores two stored copies of the matrix.

// The proptest shim's macro recurses once per token of the block.
#![recursion_limit = "1024"]

use proptest::prelude::*;

use gea_mine::isa::{converge_seed, isa_step, mine_groups, reference, IsaParams, IsaScores};
use gea_mine::simplex::{aitchison, clr, zero_replace};

use gea_core::EnumTable;
use gea_sage::corpus::library_meta;
use gea_sage::library::{NeoplasticState, TissueSource};
use gea_sage::tag::{Tag, TagUniverse};
use gea_sage::{ExpressionMatrix, TissueType};

fn rotate(x: &[f64], by: usize) -> Vec<f64> {
    let mut v = x.to_vec();
    v.rotate_left(by % x.len().max(1));
    v
}

fn l2(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Pairs of strictly positive compositions of a shared length.
fn positive_pair() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (2usize..10).prop_flat_map(|n| {
        (
            prop::collection::vec(0.01f64..100.0, n),
            prop::collection::vec(0.01f64..100.0, n),
        )
    })
}

fn small_enum(values: Vec<Vec<f64>>) -> EnumTable {
    let n_libs = values[0].len();
    let universe =
        TagUniverse::from_tags((0..values.len() as u32).map(|i| Tag::from_code(i * 53).unwrap()));
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

/// Small matrices of small integers (ties and zeros are common), with row
/// `const_row` and column `const_col` flattened to one value when they
/// exist, so zero-spread rows and columns are always in play.
fn isa_matrix() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..9, 1usize..9)
        .prop_flat_map(|(t, l)| {
            (
                prop::collection::vec(prop::collection::vec(0u32..20, l), t),
                0usize..12,
                0usize..12,
            )
        })
        .prop_map(|(cells, const_row, const_col)| {
            let mut values: Vec<Vec<f64>> = cells
                .into_iter()
                .map(|row| row.into_iter().map(f64::from).collect())
                .collect();
            if let Some(row) = values.get_mut(const_row) {
                let v = row[0];
                row.fill(v);
            }
            if const_col < values[0].len() {
                let v = values[0][const_col];
                for row in &mut values {
                    row[const_col] = v;
                }
            }
            values
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Applying the same permutation (a rotation) to both compositions
    /// leaves the Aitchison distance unchanged: the metric has no
    /// preferred component order.
    #[test]
    fn aitchison_is_permutation_invariant(pair in positive_pair(), by in 0usize..10) {
        let (a, b) = pair;
        let d = aitchison(&a, &b);
        let d_rot = aitchison(&rotate(&a, by), &rotate(&b, by));
        prop_assert!((d - d_rot).abs() <= 1e-9 * (1.0 + d), "{d} vs {d_rot}");
    }

    /// Perturbing both compositions by the same composition `p`
    /// (component-wise product, the simplex group operation) is an
    /// isometry: `d(a∘p, b∘p) = d(a, b)`.
    #[test]
    fn aitchison_is_perturbation_invariant(pair in positive_pair(), scale in 0.1f64..10.0) {
        let (a, b) = pair;
        let p: Vec<f64> = a.iter().zip(&b).map(|(x, y)| (x + y) * scale).collect();
        let ap: Vec<f64> = a.iter().zip(&p).map(|(x, q)| x * q).collect();
        let bp: Vec<f64> = b.iter().zip(&p).map(|(x, q)| x * q).collect();
        let d = aitchison(&a, &b);
        let d_pert = aitchison(&ap, &bp);
        prop_assert!((d - d_pert).abs() <= 1e-9 * (1.0 + d), "{d} vs {d_pert}");
    }

    /// Zero-replacement smoothing is monotone: growing the additive
    /// constant pulls a count vector toward the uniform composition, so
    /// its Aitchison distance from uniform never increases. (Pairwise
    /// log-ratios `ln((x_t+α)/(x_s+α))` all shrink in magnitude as α
    /// grows, and the clr norm is a fixed combination of them.)
    #[test]
    fn zero_replacement_is_monotone_toward_uniform(
        x in prop::collection::vec(0.0f64..50.0, 2..10),
        alpha in 0.01f64..5.0,
        delta in 0.01f64..5.0,
    ) {
        let near = l2(&clr(&zero_replace(&x, alpha)));
        let far = l2(&clr(&zero_replace(&x, alpha + delta)));
        prop_assert!(far <= near + 1e-9, "alpha {alpha} -> {near}, +{delta} -> {far}");
    }

    /// ISA convergence means fixpoint: re-applying the refinement step to
    /// a converged module returns exactly the same (libraries, tags).
    #[test]
    fn isa_converged_modules_are_idempotent(
        values in (2usize..8, 2usize..8).prop_flat_map(|(t, l)| {
            prop::collection::vec(prop::collection::vec(0.0f64..100.0, l), t)
        }),
        t_tags in 0.2f64..2.5,
        t_libs in 0.2f64..2.5,
    ) {
        let table = small_enum(values);
        let params = IsaParams { seeds: 4, t_tags, t_libs, max_iters: 60 };
        let scores = IsaScores::build(&table);
        for seed in 0..params.seeds {
            if let Some(m) = converge_seed(&scores, seed, params.seeds, &params) {
                if m.converged {
                    let (libs, tags) = isa_step(&scores, &m.tags, &params);
                    prop_assert_eq!(
                        (libs, tags),
                        (m.libs.clone(), m.tags.clone()),
                        "seed {} converged but is not fixed",
                        seed
                    );
                }
            }
        }
    }

    /// The z-scores computed on read are the two stored z-scored copies,
    /// bit for bit, and give their steps, for every strided seed set and
    /// for the whole tag set, and their modules.
    #[test]
    fn isa_matches_the_stored_z_score_reference(
        values in isa_matrix(),
        seeds in 1usize..6,
        t_tags in 0.0f64..2.5,
        t_libs in 0.0f64..2.5,
    ) {
        let table = small_enum(values);
        let params = IsaParams { seeds, t_tags, t_libs, max_iters: 60 };
        let scores = IsaScores::build(&table);
        let stored = reference::IsaScores::build(&table);
        let n_tags = table.n_tags();
        for t in 0..n_tags {
            for l in 0..table.n_libraries() {
                prop_assert_eq!(scores.row_z(t, l).to_bits(), stored.row_z(t, l).to_bits());
                prop_assert_eq!(scores.col_z(t, l).to_bits(), stored.col_z(t, l).to_bits());
            }
        }
        let mut sets: Vec<Vec<usize>> = (0..seeds)
            .map(|s| (s..n_tags).step_by(seeds).collect())
            .collect();
        sets.push((0..n_tags).collect());
        for tags in &sets {
            prop_assert_eq!(
                isa_step(&scores, tags, &params),
                reference::isa_step(&stored, tags, &params),
                "tags {:?}",
                tags
            );
        }
        prop_assert_eq!(mine_groups(&table, &params), reference::mine_groups(&table, &params));
    }
}
