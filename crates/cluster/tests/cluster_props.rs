//! Property-based tests for the clustering algorithms.

use proptest::prelude::*;

use gea_cluster::compression::compress;
use gea_cluster::dataset::{AttrSource, Dataset};
use gea_cluster::eval::{n_clusters, purity, rand_index};
use gea_cluster::fascicle::reference;
use gea_cluster::{
    agglomerate, kmeans, mine_greedy, som, FascicleParams, KMeansParams, Linkage, Metric,
    SomParams, ToleranceVector,
};

fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (2usize..10, 1usize..6).prop_flat_map(|(n_records, n_attrs)| {
        prop::collection::vec(prop::collection::vec(0.0f64..100.0, n_attrs), n_records)
            .prop_map(|rows| Dataset::from_records(&rows))
    })
}

proptest! {
    #[test]
    fn kmeans_assignments_are_valid(d in dataset_strategy(), k in 1usize..4, seed in 0u64..100) {
        let k = k.min(d.n_records());
        let result = kmeans(&d, &KMeansParams { k, max_iters: 50, seed });
        prop_assert_eq!(result.assignments.len(), d.n_records());
        prop_assert!(result.assignments.iter().all(|&a| a < k));
        prop_assert!(result.inertia >= 0.0);
        prop_assert_eq!(result.centroids.len(), k);
        // Deterministic under the seed.
        let again = kmeans(&d, &KMeansParams { k, max_iters: 50, seed });
        prop_assert_eq!(again.assignments, result.assignments);
    }

    #[test]
    fn dendrogram_structure_is_sound(d in dataset_strategy()) {
        let n = d.n_records();
        let dend = agglomerate(&d, Metric::Euclidean, Linkage::Average);
        prop_assert_eq!(dend.n_leaves, n);
        prop_assert_eq!(dend.merges.len(), n - 1);
        if let Some(last) = dend.merges.last() {
            prop_assert_eq!(last.size, n);
        }
        // Every cut yields exactly k clusters covering all leaves.
        for k in 1..=n {
            let labels = dend.cut(k);
            prop_assert_eq!(labels.len(), n);
            prop_assert_eq!(n_clusters(&labels), k);
        }
    }

    #[test]
    fn hierarchical_heights_non_decreasing_for_complete_linkage(d in dataset_strategy()) {
        let dend = agglomerate(&d, Metric::Euclidean, Linkage::Complete);
        for w in dend.merges.windows(2) {
            prop_assert!(w[1].height >= w[0].height - 1e-9);
        }
    }

    #[test]
    fn som_assigns_every_record(d in dataset_strategy(), seed in 0u64..50) {
        let result = som(&d, &SomParams { rows: 1, cols: 2, epochs: 10, learning_rate: 0.5, seed });
        prop_assert_eq!(result.assignments.len(), d.n_records());
        prop_assert!(result.assignments.iter().all(|&a| a < 2));
        let clusters = result.clusters();
        prop_assert!(n_clusters(&clusters) <= 2);
    }

    #[test]
    fn tolerance_scales_linearly_with_fraction(d in dataset_strategy()) {
        let t1 = ToleranceVector::from_width_fraction(&d, 0.1);
        let t2 = ToleranceVector::from_width_fraction(&d, 0.2);
        for a in 0..d.n_attrs() {
            prop_assert!((t2.get(a) - 2.0 * t1.get(a)).abs() < 1e-9);
            prop_assert!(t1.get(a) >= 0.0);
        }
    }

    #[test]
    fn greedy_fascicles_compress_within_tolerance(
        d in dataset_strategy(),
        frac in 0.05f64..0.6,
    ) {
        let tol = ToleranceVector::from_width_fraction(&d, frac);
        let params = FascicleParams {
            min_compact_attrs: 1,
            min_records: 2,
            batch_size: 4,
        };
        let fascicles = mine_greedy(&d, &tol, &params);
        for f in &fascicles {
            prop_assert!(f.verify(&d, &tol));
        }
        let summary = compress(&d, &fascicles, &tol);
        prop_assert!(summary.cells_saved <= summary.cells_total);
        // Midpoint representatives err at most half the tolerance.
        prop_assert!(summary.max_relative_error <= 0.5 + 1e-9);
    }

    #[test]
    fn purity_and_rand_bounds(
        assignments in prop::collection::vec(0usize..4, 1..20),
        labels in prop::collection::vec(0usize..3, 1..20),
    ) {
        let n = assignments.len().min(labels.len());
        let a = &assignments[..n];
        let l = &labels[..n];
        let p = purity(a, l);
        prop_assert!((0.0..=1.0).contains(&p));
        let r = rand_index(a, l);
        prop_assert!((0.0..=1.0).contains(&r));
        // Purity is at least the largest label's frequency.
        let mut counts = [0usize; 3];
        for &x in l {
            counts[x] += 1;
        }
        let max_frac = *counts.iter().max().unwrap() as f64 / n as f64;
        prop_assert!(p >= max_frac - 1e-12);
    }
}

/// Small matrices with tied cells (a six-value alphabet) and NaN cells,
/// half of them hundreds of attributes wide so that the greedy's early exit
/// fires partway through a record.
fn tied_nan_matrix() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..9, 1usize..8, any::<bool>()).prop_flat_map(|(n_records, n_attrs, wide)| {
        let n_attrs = if wide { n_attrs * 100 } else { n_attrs };
        let cell = (0u8..7).prop_map(|c| if c == 6 { f64::NAN } else { f64::from(c) });
        prop::collection::vec(prop::collection::vec(cell, n_attrs), n_records)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The in-place greedy returns what the first-draft greedy it replaced
    /// returns, compared through `Debug` so that NaN ranges compare too.
    #[test]
    fn greedy_matches_the_reference_kernel(
        rows in tied_nan_matrix(),
        tols in prop::collection::vec(0u8..4, 700),
        k_permille in 0usize..1000,
        min_records in 1usize..5,
        batch_size in 1usize..12,
    ) {
        let data = Dataset::from_records(&rows);
        let n_attrs = data.n_attrs();
        let tol = ToleranceVector::from_values(
            tols[..n_attrs].iter().map(|&t| f64::from(t)).collect(),
        );
        let params = FascicleParams {
            // 0 ..= n_attrs + 1.
            min_compact_attrs: (n_attrs + 2) * k_permille / 1000,
            min_records,
            batch_size,
        };
        prop_assert_eq!(
            format!("{:?}", mine_greedy(&data, &tol, &params)),
            format!("{:?}", reference::mine_greedy(&data, &tol, &params))
        );
    }
}
