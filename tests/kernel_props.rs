//! Kernel-identity property battery: the blocked/fused SUMY aggregation
//! kernels (and the sharded drivers built on them) must be
//! **bit-identical** to the pre-change scalar kernels preserved in
//! `gea::core::sumy::reference` — not merely approximately equal.
//! Floating-point addition does not associate, so any reordering of a
//! per-tag accumulation chain (a blocked lane picking up tags in a
//! different order is fine; summing one tag's values in a different
//! order is not) shows up here as a ULP-level divergence. Randomized
//! matrices run through the full shard {1,2,3,7} × thread {1,4} grid,
//! and the edge shapes the blocked kernel's tail path must get right —
//! one library, one tag, constant rows — are pinned explicitly.

use proptest::prelude::*;

use gea::core::populate::{populate_columnar, populate_scan};
use gea::core::sumy::{aggregate, aggregate_tags, reference, SumyTable};
use gea::core::{EnumTable, ExecConfig};
use gea::exec::{aggregate_sharded, aggregate_tags_sharded};
use gea::sage::corpus::library_meta;
use gea::sage::library::{LibraryId, NeoplasticState, TissueSource};
use gea::sage::tag::{Tag, TagId, TagUniverse};
use gea::sage::{ExpressionMatrix, TissueType};

/// The shard × thread grid the determinism contract pins down.
const GRID: &[(usize, usize)] = &[
    (1, 1),
    (2, 1),
    (3, 1),
    (7, 1),
    (1, 4),
    (2, 4),
    (3, 4),
    (7, 4),
];

fn small_enum(values: Vec<Vec<f64>>) -> EnumTable {
    let n_libs = values[0].len();
    let universe =
        TagUniverse::from_tags((0..values.len() as u32).map(|i| Tag::from_code(i * 53).unwrap()));
    let libs = (0..n_libs)
        .map(|i| {
            library_meta(
                &format!("L{i}"),
                TissueType::Brain,
                if i % 3 == 0 {
                    NeoplasticState::Cancerous
                } else {
                    NeoplasticState::Normal
                },
                TissueSource::BulkTissue,
            )
        })
        .collect();
    EnumTable::new("E", ExpressionMatrix::from_rows(universe, libs, values))
}

/// The whole-matrix SUMY as the pre-change scalar kernel computed it.
fn reference_aggregate(name: &str, matrix: &ExpressionMatrix) -> SumyTable {
    let rows = (0..matrix.n_tags())
        .map(|t| reference::aggregate_row(matrix, TagId(t as u32)))
        .collect();
    SumyTable::new(name, rows)
}

/// The tag-subset SUMY as the pre-change scalar kernel computed it.
fn reference_aggregate_tags(name: &str, matrix: &ExpressionMatrix, tags: &[TagId]) -> SumyTable {
    let rows = tags
        .iter()
        .map(|&t| reference::aggregate_tags_row(matrix, t))
        .collect();
    SumyTable::new(name, rows)
}

/// Bit-level equality of every float a SUMY row carries. `==` on f64
/// would already fail on any real kernel divergence, but comparing bits
/// states the contract exactly (and catches a -0.0 / +0.0 flip, which
/// `==` waves through).
fn bit_identical(a: &SumyTable, b: &SumyTable) -> bool {
    a.name == b.name
        && a.rows().len() == b.rows().len()
        && a.rows().iter().zip(b.rows()).all(|(x, y)| {
            x.tag == y.tag
                && x.tag_no == y.tag_no
                && x.range.lo().to_bits() == y.range.lo().to_bits()
                && x.range.hi().to_bits() == y.range.hi().to_bits()
                && x.average.to_bits() == y.average.to_bits()
                && x.std_dev.to_bits() == y.std_dev.to_bits()
        })
}

fn matrix_values() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..12, 1usize..14).prop_flat_map(|(n_tags, n_libs)| {
        prop::collection::vec(prop::collection::vec(0.0f64..100.0, n_libs), n_tags)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The blocked whole-matrix kernel, serial and across the grid,
    /// against the scalar reference.
    #[test]
    fn aggregate_matches_scalar_reference(values in matrix_values()) {
        let table = small_enum(values);
        let oracle = reference_aggregate("s", &table.matrix);
        let fused = aggregate("s", &table.matrix);
        prop_assert!(bit_identical(&fused, &oracle), "serial blocked kernel diverged");
        for &(shards, threads) in GRID {
            let cfg = ExecConfig { threads, shards };
            let (sharded, _) = aggregate_sharded("s", &table.matrix, &cfg);
            prop_assert!(
                bit_identical(&sharded, &oracle),
                "sharded blocked kernel diverged at shards={} threads={}",
                shards, threads
            );
        }
    }

    /// The blocked tag-subset kernel over random (unsorted, possibly
    /// duplicated-free) tag selections, serial and across the grid.
    #[test]
    fn aggregate_tags_matches_scalar_reference(
        values in matrix_values(),
        mask in prop::collection::vec(any::<bool>(), 12),
    ) {
        let table = small_enum(values);
        let tags: Vec<TagId> = (0..table.matrix.n_tags())
            .filter(|&t| mask.get(t).copied().unwrap_or(false))
            .map(|t| TagId(t as u32))
            .collect();
        prop_assume!(!tags.is_empty());
        let oracle = reference_aggregate_tags("s", &table.matrix, &tags);
        let fused = aggregate_tags("s", &table.matrix, &tags);
        prop_assert!(bit_identical(&fused, &oracle), "serial tag-subset kernel diverged");
        for &(shards, threads) in GRID {
            let cfg = ExecConfig { threads, shards };
            let (sharded, _) = aggregate_tags_sharded("s", &table.matrix, &tags, &cfg);
            prop_assert!(
                bit_identical(&sharded, &oracle),
                "sharded tag-subset kernel diverged at shards={} threads={}",
                shards, threads
            );
        }
    }

    /// The selection-vector columnar pruner finds exactly the libraries
    /// the naive row-scan finds (the hit list is what `populate`
    /// materializes from; the work counters legitimately differ).
    #[test]
    fn columnar_pruning_matches_the_row_scan(
        values in matrix_values(),
        mask in prop::collection::vec(any::<bool>(), 14),
    ) {
        let table = small_enum(values);
        let ids: Vec<LibraryId> = table
            .matrix
            .library_ids()
            .enumerate()
            .filter(|(i, _)| mask.get(*i).copied().unwrap_or(false))
            .map(|(_, id)| id)
            .collect();
        prop_assume!(!ids.is_empty());
        let sub = table.with_libraries("sub", &ids);
        let sumy = aggregate("def", &sub.matrix);
        let (scan_hits, _) = populate_scan(&sumy, &table);
        let (columnar_hits, _) = populate_columnar(&sumy, &table);
        prop_assert_eq!(columnar_hits, scan_hits);
    }
}

/// Edge shapes exercise the blocked kernel's lane tail: fewer tags than
/// the lane width, a single library (variance over n=1), and constant
/// rows (variance exactly 0.0, a point range).
#[test]
fn edge_shapes_match_the_scalar_reference() {
    let shapes: Vec<Vec<Vec<f64>>> = vec![
        // One tag, one library: every loop is all-tail.
        vec![vec![42.0]],
        // One tag, many libraries: a single accumulation chain.
        vec![(0..13).map(|l| l as f64 * 0.3 + 1.0).collect()],
        // Many tags, one library: avg == the value, std_dev == 0.
        (0..9).map(|t| vec![t as f64 * 7.5]).collect(),
        // Constant rows: lo == hi, variance must be exactly zero.
        vec![vec![5.5; 6], vec![0.0; 6], vec![99.99; 6]],
    ];
    for values in shapes {
        let table = small_enum(values);
        let oracle = reference_aggregate("s", &table.matrix);
        assert!(
            bit_identical(&aggregate("s", &table.matrix), &oracle),
            "serial kernel diverged on {}x{}",
            table.matrix.n_tags(),
            table.n_libraries()
        );
        for &(shards, threads) in GRID {
            let cfg = ExecConfig { threads, shards };
            let (sharded, _) = aggregate_sharded("s", &table.matrix, &cfg);
            assert!(
                bit_identical(&sharded, &oracle),
                "sharded kernel diverged on {}x{} at shards={shards} threads={threads}",
                table.matrix.n_tags(),
                table.n_libraries()
            );
        }
    }
    // Constant rows really do produce point statistics — pin the exact
    // bit patterns, not just reference agreement.
    let table = small_enum(vec![vec![5.5; 6]]);
    let sumy = aggregate("s", &table.matrix);
    let row = &sumy.rows()[0];
    assert_eq!(row.average.to_bits(), 5.5f64.to_bits());
    assert_eq!(row.std_dev.to_bits(), 0.0f64.to_bits());
    assert!(row.range.is_point());
}
