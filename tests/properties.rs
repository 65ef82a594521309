//! Property-based tests on the core invariants, spanning crates.

use proptest::prelude::*;

use gea::cluster::dataset::{AttrSource, Dataset};
use gea::cluster::{mine_exact, mine_greedy, FascicleParams, ToleranceVector};
use gea::core::gap::{diff, gap_value, GapRow, GapTable};
use gea::core::interval::{AllenRelation, Interval};
use gea::core::populate::{populate_columnar, populate_indexed, populate_scan, PopulateIndex};
use gea::core::relational::{
    gap_from_relation, gap_to_relation, sumy_from_relation, sumy_to_relation,
};
use gea::core::setops::{gap_intersect, gap_minus, gap_union};
use gea::core::sumy::{aggregate, SumyRow, SumyTable};
use gea::core::EnumTable;
use gea::sage::corpus::library_meta;
use gea::sage::library::{NeoplasticState, TissueSource};
use gea::sage::tag::{Tag, TagUniverse, TAG_SPACE};
use gea::sage::{ExpressionMatrix, TissueType};

// ---------------------------------------------------------------- tag codec

proptest! {
    #[test]
    fn tag_roundtrips_through_string(code in 0u32..TAG_SPACE) {
        let tag = Tag::from_code(code).unwrap();
        let s = tag.to_string();
        prop_assert_eq!(s.parse::<Tag>().unwrap(), tag);
        prop_assert_eq!(tag.code(), code);
    }

    #[test]
    fn tag_order_matches_string_order(a in 0u32..TAG_SPACE, b in 0u32..TAG_SPACE) {
        let ta = Tag::from_code(a).unwrap();
        let tb = Tag::from_code(b).unwrap();
        prop_assert_eq!(ta.cmp(&tb), ta.to_string().cmp(&tb.to_string()));
    }
}

// ---------------------------------------------------------- Allen relations

fn proper_interval() -> impl Strategy<Value = Interval> {
    (-1000.0f64..1000.0, 0.001f64..500.0).prop_map(|(lo, w)| Interval::new(lo, lo + w).unwrap())
}

proptest! {
    #[test]
    fn allen_inverse_consistency(a in proper_interval(), b in proper_interval()) {
        prop_assert_eq!(a.relation(b).inverse(), b.relation(a));
    }

    #[test]
    fn allen_equals_iff_same_endpoints(a in proper_interval()) {
        prop_assert_eq!(a.relation(a), AllenRelation::Equals);
    }

    #[test]
    fn allen_intersects_is_symmetric(a in proper_interval(), b in proper_interval()) {
        prop_assert_eq!(a.intersects(b), b.intersects(a));
        // intersects ⟺ neither before nor after.
        let rel = a.relation(b);
        let disjoint = rel == AllenRelation::Before || rel == AllenRelation::After;
        prop_assert_eq!(a.intersects(b), !disjoint);
    }

    #[test]
    fn allen_hull_contains_both(a in proper_interval(), b in proper_interval()) {
        let h = a.hull(b);
        prop_assert!(h.lo() <= a.lo() && h.hi() >= a.hi());
        prop_assert!(h.lo() <= b.lo() && h.hi() >= b.hi());
    }
}

// ----------------------------------------------------------------- gap math

fn sumy_row(tag_code: u32, avg: f64, sd: f64) -> SumyRow {
    SumyRow {
        tag: Tag::from_code(tag_code % TAG_SPACE).unwrap(),
        tag_no: tag_code % 1000,
        range: Interval::spanning(avg - 2.0 * sd, avg + 2.0 * sd),
        average: avg,
        std_dev: sd,
    }
}

proptest! {
    #[test]
    fn gap_value_is_antisymmetric(
        avg1 in -500.0f64..500.0, sd1 in 0.0f64..50.0,
        avg2 in -500.0f64..500.0, sd2 in 0.0f64..50.0,
    ) {
        let a = sumy_row(1, avg1, sd1);
        let b = sumy_row(1, avg2, sd2);
        match (gap_value(&a, &b), gap_value(&b, &a)) {
            (Some(x), Some(y)) => prop_assert_eq!(x, -y),
            (None, None) => {}
            other => prop_assert!(false, "nullness differs: {:?}", other),
        }
    }

    #[test]
    fn gap_null_iff_bands_touch(
        avg1 in -500.0f64..500.0, sd1 in 0.0f64..50.0,
        avg2 in -500.0f64..500.0, sd2 in 0.0f64..50.0,
    ) {
        let a = sumy_row(1, avg1, sd1);
        let b = sumy_row(1, avg2, sd2);
        let (hi, lo) = if avg1 >= avg2 { (&a, &b) } else { (&b, &a) };
        let separated = (hi.average - hi.std_dev) - (lo.average + lo.std_dev) > 0.0;
        prop_assert_eq!(gap_value(&a, &b).is_some(), separated);
    }

    #[test]
    fn gap_magnitude_matches_band_separation(
        avg1 in -500.0f64..500.0, sd1 in 0.0f64..50.0,
        avg2 in -500.0f64..500.0, sd2 in 0.0f64..50.0,
    ) {
        let a = sumy_row(1, avg1, sd1);
        let b = sumy_row(1, avg2, sd2);
        if let Some(g) = gap_value(&a, &b) {
            let expected = (avg1 - avg2).abs() - sd1 - sd2;
            prop_assert!((g.abs() - expected).abs() < 1e-9);
            // The sign tracks which argument has the higher average.
            prop_assert_eq!(g > 0.0, avg1 >= avg2);
        }
    }
}

// ------------------------------------------------------------------ set ops

fn gap_table(name: &str, entries: &[(u32, Option<f64>)]) -> GapTable {
    let mut seen = std::collections::HashSet::new();
    let rows: Vec<GapRow> = entries
        .iter()
        .filter(|(code, _)| seen.insert(*code % TAG_SPACE))
        .map(|&(code, gap)| GapRow {
            tag: Tag::from_code(code % TAG_SPACE).unwrap(),
            tag_no: code % 1000,
            gaps: vec![gap],
        })
        .collect();
    GapTable::new(name, vec!["Gap".to_string()], rows)
}

fn gap_entries() -> impl Strategy<Value = Vec<(u32, Option<f64>)>> {
    prop::collection::vec((0u32..64, prop::option::of(-100.0f64..100.0)), 0..12)
}

proptest! {
    #[test]
    fn setop_partition_law(a in gap_entries(), b in gap_entries()) {
        let ga = gap_table("a", &a);
        let gb = gap_table("b", &b);
        let minus = gap_minus("m", &ga, &gb);
        let inter = gap_intersect("i", &ga, &gb);
        let union = gap_union("u", &ga, &gb);
        // minus + intersect partition the first table's tags.
        prop_assert_eq!(minus.len() + inter.len(), ga.len());
        // |union| = |a| + |b| − |intersect|.
        prop_assert_eq!(union.len(), ga.len() + gb.len() - inter.len());
        // Every tag of the intersection is in both inputs; of the minus, in
        // a only.
        for r in inter.rows() {
            prop_assert!(ga.row_for(r.tag).is_some() && gb.row_for(r.tag).is_some());
        }
        for r in minus.rows() {
            prop_assert!(ga.row_for(r.tag).is_some() && gb.row_for(r.tag).is_none());
        }
    }

    #[test]
    fn setop_self_identities(a in gap_entries()) {
        let ga = gap_table("a", &a);
        prop_assert!(gap_minus("m", &ga, &ga).is_empty());
        prop_assert_eq!(gap_intersect("i", &ga, &ga).len(), ga.len());
        prop_assert_eq!(gap_union("u", &ga, &ga).len(), ga.len());
    }

    #[test]
    fn intersect_tag_sets_commute(a in gap_entries(), b in gap_entries()) {
        let ga = gap_table("a", &a);
        let gb = gap_table("b", &b);
        let ab: Vec<Tag> = gap_intersect("i", &ga, &gb).project_tags();
        let ba: Vec<Tag> = gap_intersect("i", &gb, &ga).project_tags();
        prop_assert_eq!(ab, ba);
    }
}

// ------------------------------------------------------- populate invariants

fn small_enum(values: Vec<Vec<f64>>) -> EnumTable {
    let n_libs = values[0].len();
    let universe =
        TagUniverse::from_tags((0..values.len() as u32).map(|i| Tag::from_code(i * 37).unwrap()));
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

fn matrix_values() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..8, 1usize..10).prop_flat_map(|(n_tags, n_libs)| {
        prop::collection::vec(prop::collection::vec(0.0f64..100.0, n_libs), n_tags)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn populate_indexed_equals_scan(
        values in matrix_values(),
        subset_mask in prop::collection::vec(any::<bool>(), 10),
        m in 0usize..6,
    ) {
        let table = small_enum(values);
        // Build a SUMY from a subset of libraries.
        let ids: Vec<_> = table
            .matrix
            .library_ids()
            .enumerate()
            .filter(|(i, _)| subset_mask.get(*i).copied().unwrap_or(false))
            .map(|(_, id)| id)
            .collect();
        prop_assume!(!ids.is_empty());
        let sub = table.with_libraries("sub", &ids);
        let sumy = aggregate("def", &sub.matrix);

        let (scan_hits, _) = populate_scan(&sumy, &table);
        // The defining libraries always qualify.
        for id in &ids {
            prop_assert!(scan_hits.contains(id));
        }
        // Columnar and index-assisted evaluation return the same answer
        // for any index budget.
        let (columnar_hits, _) = populate_columnar(&sumy, &table);
        prop_assert_eq!(&columnar_hits, &scan_hits);
        let index = PopulateIndex::build_top_entropy(&table, m, 8);
        let (indexed_hits, _) = populate_indexed(&sumy, &table, &index);
        prop_assert_eq!(indexed_hits, scan_hits);
    }

    #[test]
    fn aggregate_diff_self_is_all_null(values in matrix_values()) {
        let table = small_enum(values);
        let sumy = aggregate("s", &table.matrix);
        let gap = diff("g", &sumy, &sumy);
        for row in gap.rows() {
            prop_assert!(row.gap().is_none(), "self-diff must be NULL at {}", row.tag);
        }
    }
}

// ------------------------------------------------------ fascicle invariants

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn greedy_fascicles_verify_and_match_exact(
        rows in prop::collection::vec(
            prop::collection::vec(0.0f64..50.0, 3),
            2usize..8,
        ),
        frac in 0.05f64..0.5,
        k in 1usize..3,
    ) {
        let data = Dataset::from_records(&rows);
        let tol = ToleranceVector::from_width_fraction(&data, frac);
        let params = FascicleParams {
            min_compact_attrs: k,
            min_records: 2,
            batch_size: 3,
        };
        let greedy = mine_greedy(&data, &tol, &params);
        let exact = mine_exact(&data, &tol, &params);
        for f in &greedy {
            // Invariant: reported compact attrs really are compact.
            prop_assert!(f.verify(&data, &tol));
            prop_assert!(f.compact_attrs.len() >= k);
            prop_assert!(f.len() >= 2);
            // ... and they are *all* the compact attributes: exactly those
            // whose range over the members is within tolerance.
            let compact: Vec<usize> = (0..data.n_attrs())
                .filter(|&a| {
                    let vals = data.attr_values(a);
                    let lo = f.records.iter().map(|&r| vals[r]).fold(f64::INFINITY, f64::min);
                    let hi = f.records.iter().map(|&r| vals[r]).fold(f64::NEG_INFINITY, f64::max);
                    tol.is_compact(a, lo, hi)
                })
                .collect();
            prop_assert_eq!(&f.compact_attrs, &compact);
            // Every greedy fascicle is a qualifying set, hence a subset of
            // some maximal exact fascicle.
            prop_assert!(
                exact.iter().any(|e| f.records.iter().all(|r| e.records.contains(r))),
                "greedy fascicle {:?} not within any exact maximal fascicle",
                f.records
            );
        }
        // No reported fascicle's record set is a subset of another's.
        for (i, f) in greedy.iter().enumerate() {
            for (j, g) in greedy.iter().enumerate() {
                prop_assert!(
                    i == j || !f.records.iter().all(|r| g.records.contains(r)),
                    "fascicle {:?} is a subset of {:?}",
                    f.records,
                    g.records
                );
            }
        }
        // The batch size is a phase-structure knob, not a result knob.
        let n = data.n_records();
        for batch_size in [1, 2, n, n + 1] {
            let batched = mine_greedy(&data, &tol, &FascicleParams { batch_size, ..params.clone() });
            prop_assert_eq!(&batched, &greedy, "batch_size {}", batch_size);
        }
    }
}

// ------------------------------------------------- relational roundtripping

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sumy_relation_roundtrip(
        rows in prop::collection::vec(
            (0u32..1000, -100.0f64..100.0, 0.0f64..20.0),
            0..10,
        ),
    ) {
        let mut seen = std::collections::HashSet::new();
        let sumy_rows: Vec<SumyRow> = rows
            .iter()
            .filter(|(code, _, _)| seen.insert(*code))
            .map(|&(code, avg, sd)| sumy_row(code, avg, sd))
            .collect();
        let sumy = SumyTable::new("s", sumy_rows);
        let relation = sumy_to_relation(&sumy).unwrap();
        let back = sumy_from_relation("s", &relation).unwrap();
        prop_assert_eq!(back, sumy);
    }

    #[test]
    fn gap_relation_roundtrip(entries in gap_entries()) {
        let gap = gap_table("g", &entries);
        let relation = gap_to_relation(&gap).unwrap();
        let back = gap_from_relation("g", &relation).unwrap();
        prop_assert_eq!(back.rows(), gap.rows());
    }
}
