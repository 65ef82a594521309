//! The populate() operator and its index optimization (thesis §3.3.2).
//!
//! `populate(SUMY, ENUM)` finds every library in the ENUM table whose
//! expression levels satisfy *all* the tag ranges of the SUMY table —
//! "nothing more than a conjunction of a number, say p, of range
//! conditions", except that p is 25,000–30,000, so the query is extremely
//! high-dimensional.
//!
//! Three evaluation strategies:
//!
//! * [`populate_scan`] — library-at-a-time: test every library against the
//!   conditions (with early exit on the first failing condition).
//! * [`populate_columnar`] — condition-at-a-time in the rotated physical
//!   layout (§4.6.1): read each condition's tag row in storage order and
//!   prune the surviving-candidate set. This is the sequential baseline of
//!   Table 3.2 on the thesis's physical design.
//! * [`populate_indexed`] — build sorted range indexes on a few
//!   highest-entropy tags ([`PopulateIndex`]); for every indexed tag that
//!   *hits* (appears in the SUMY table), probe the index and intersect the
//!   candidate lists; verify only the surviving candidates against the
//!   remaining conditions. Table 3.1 sizes the index budget; Table 3.2
//!   measures the saving per hit count.
//!
//! All three return the same libraries (property-tested); each reports a
//! [`PopulateStats`] with the work performed, so savings can be measured
//! deterministically in cell touches as well as in wall time.

use gea_relstore::entropy::top_entropy_attributes;
use gea_relstore::index::{intersect_row_lists, SortedIndex};
use gea_sage::library::LibraryId;
use gea_sage::tag::{Tag, TagId};

use crate::enum_table::EnumTable;
use crate::sumy::SumyTable;

/// Work counters for one populate() evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PopulateStats {
    /// Indexed tags that appeared in the SUMY table.
    pub indexes_hit: usize,
    /// Libraries surviving index intersection (all libraries for a scan).
    pub candidates: usize,
    /// Range-condition evaluations performed during verification. Each
    /// evaluation touches exactly one stored cell, so this is also the
    /// cell-I/O proxy the Table 3.2 reproduction reports.
    pub comparisons: u64,
}

/// One library-qualification check: every SUMY condition must hold. Tags
/// absent from the ENUM table's universe carry an implicit expression level
/// of 0 (the library never exhibited them), so the condition becomes
/// `min ≤ 0 ≤ max`. Conditions whose position is in `skip` (already proven
/// by an index probe) are not re-evaluated. Public so sharded drivers
/// (`gea-exec`) charge exactly the comparisons the serial path would.
pub fn library_satisfies(
    table: &EnumTable,
    resolved: &[(Option<TagId>, f64, f64)],
    lib: LibraryId,
    skip: Option<&std::collections::HashSet<usize>>,
    comparisons: &mut u64,
) -> bool {
    for (i, &(tid, lo, hi)) in resolved.iter().enumerate() {
        if let Some(skip_set) = skip {
            if skip_set.contains(&i) {
                continue;
            }
        }
        *comparisons += 1;
        let v = match tid {
            Some(tid) => table.matrix.value(tid, lib),
            None => 0.0,
        };
        if v < lo || v > hi {
            return false;
        }
    }
    true
}

/// Resolve the SUMY conditions against the ENUM table's universe once:
/// `(tag id if present, range lo, range hi)` per SUMY row, in row order.
pub fn resolve_conditions(sumy: &SumyTable, table: &EnumTable) -> Vec<(Option<TagId>, f64, f64)> {
    sumy.rows()
        .iter()
        .map(|r| (table.matrix.id_of(r.tag), r.range.lo(), r.range.hi()))
        .collect()
}

/// Sequential populate(): test every library.
pub fn populate_scan(sumy: &SumyTable, table: &EnumTable) -> (Vec<LibraryId>, PopulateStats) {
    let resolved = resolve_conditions(sumy, table);
    let mut stats = PopulateStats {
        candidates: table.n_libraries(),
        ..PopulateStats::default()
    };
    let hits = table
        .matrix
        .library_ids()
        .filter(|&lib| library_satisfies(table, &resolved, lib, None, &mut stats.comparisons))
        .collect();
    (hits, stats)
}

/// Sequential populate() in the rotated physical layout (§4.6.1): process
/// tag rows in storage order, pruning a candidate-library set as each range
/// condition is applied. This is how a sequential scan behaves on the
/// thesis's physical design: every condition's physical row must be
/// *fetched in full* — one cell per library, whether or not that library
/// is still a candidate — because storage reads whole rows; only when the
/// candidate set empties can the remaining condition rows be skipped. The
/// reported `comparisons` therefore counts `n_libraries` cells per
/// processed condition row, the I/O the thesis's DB2 baseline pays (the
/// sequential baseline of Table 3.2).
pub fn populate_columnar(sumy: &SumyTable, table: &EnumTable) -> (Vec<LibraryId>, PopulateStats) {
    let resolved = resolve_conditions(sumy, table);
    let n = table.n_libraries();
    let (hits, rows_processed) = columnar_prune_range(&resolved, table, 0, n);
    let stats = PopulateStats {
        candidates: n,
        comparisons: (rows_processed * n) as u64,
        ..PopulateStats::default()
    };
    (hits, stats)
}

/// The pruning loop of [`populate_columnar`] over the library range
/// `[lo_lib, hi_lib)`: apply each condition row in order until the range's
/// candidate set empties, and return the surviving libraries (ascending)
/// plus the number of condition rows processed. The serial operator is
/// this helper over `[0, n)`; sharded drivers run it per contiguous
/// library range. Because a library's fate depends only on its own cells,
/// shard-local pruning survives exactly the libraries the global loop
/// would, and the global loop stops only when *every* range is empty — so
/// the global rows-processed count is the maximum over ranges.
pub fn columnar_prune_range(
    resolved: &[(Option<TagId>, f64, f64)],
    table: &EnumTable,
    lo_lib: usize,
    hi_lib: usize,
) -> (Vec<LibraryId>, usize) {
    let mut candidates = Vec::new();
    let rows_processed = columnar_prune_with(resolved, table, lo_lib, hi_lib, &mut candidates);
    let hits = candidates
        .into_iter()
        .map(|l| LibraryId((lo_lib + l as usize) as u32))
        .collect();
    (hits, rows_processed)
}

/// The allocation-reusing core of [`columnar_prune_range`]: fills
/// `candidates` with the surviving library offsets *relative to `lo_lib`*
/// (ascending) and returns the number of condition rows processed.
///
/// The candidate set is a selection vector, not a byte mask: each
/// condition row compacts the survivors in place with a branchless
/// write-cursor, so a row's cost is proportional to the *current*
/// candidate count instead of the full range width — once the first few
/// conditions have pruned the range, the remaining tens of thousands of
/// condition rows touch a handful of cells each instead of branching over
/// every library's dead flag. Survivor order (ascending), the early-empty
/// break, the implicit-zero handling for absent tags, and the
/// rows-processed count are exactly the original mask loop's; `candidates`
/// is cleared before use, so a caller looping over ranges can hand the
/// same buffer in dirty.
pub fn columnar_prune_with(
    resolved: &[(Option<TagId>, f64, f64)],
    table: &EnumTable,
    lo_lib: usize,
    hi_lib: usize,
    candidates: &mut Vec<u32>,
) -> usize {
    let n = hi_lib - lo_lib;
    candidates.clear();
    candidates.extend(0..n as u32);
    let mut rows_processed = 0usize;
    for &(tid, lo, hi) in resolved {
        if candidates.is_empty() {
            break;
        }
        // Fetching the physical row touches every library's cell.
        rows_processed += 1;
        match tid {
            Some(tid) => {
                let row = &table.matrix.tag_row(tid)[lo_lib..hi_lib];
                let mut write = 0usize;
                for read in 0..candidates.len() {
                    let l = candidates[read];
                    let v = row[l as usize];
                    candidates[write] = l;
                    // Same predicate as the library-at-a-time check
                    // (`library_satisfies`), kept in rejection form so any
                    // exotic value orders identically.
                    write += usize::from(!(v < lo || v > hi));
                }
                candidates.truncate(write);
            }
            None => {
                // Implicit zero for every library.
                if lo > 0.0 || hi < 0.0 {
                    candidates.clear();
                }
            }
        }
    }
    rows_processed
}

/// A set of sorted range indexes over chosen tags of one ENUM table.
#[derive(Debug, Clone)]
pub struct PopulateIndex {
    /// Indexed tags and their per-library sorted indexes.
    indexed: Vec<(Tag, SortedIndex)>,
}

impl PopulateIndex {
    /// Build indexes on the `m` highest-entropy tags of the table
    /// (§3.3.2's heuristic), estimating entropy with `bins`-bucket
    /// histograms.
    pub fn build_top_entropy(table: &EnumTable, m: usize, bins: usize) -> PopulateIndex {
        let rows: Vec<&[f64]> = table
            .matrix
            .tag_ids()
            .map(|t| table.matrix.tag_row(t))
            .collect();
        let chosen = top_entropy_attributes(rows, bins, m);
        PopulateIndex::build_on(
            table,
            &chosen
                .into_iter()
                .map(|i| table.matrix.tag_of(TagId(i as u32)))
                .collect::<Vec<_>>(),
        )
    }

    /// Build indexes on an explicit tag list (used by the Table 3.2 bench
    /// to force a chosen number of hits, and by the random-choice
    /// ablation).
    pub fn build_on(table: &EnumTable, tags: &[Tag]) -> PopulateIndex {
        let indexed = tags
            .iter()
            .filter_map(|&tag| {
                table
                    .matrix
                    .id_of(tag)
                    .map(|tid| (tag, SortedIndex::build(table.matrix.tag_row(tid))))
            })
            .collect();
        PopulateIndex { indexed }
    }

    /// Number of indexes built.
    pub fn len(&self) -> usize {
        self.indexed.len()
    }

    /// Whether no indexes were built.
    pub fn is_empty(&self) -> bool {
        self.indexed.is_empty()
    }

    /// The indexed tags.
    pub fn tags(&self) -> impl Iterator<Item = Tag> + '_ {
        self.indexed.iter().map(|&(t, _)| t)
    }
}

/// Index-assisted populate(). Falls back to a scan when no index hits.
pub fn populate_indexed(
    sumy: &SumyTable,
    table: &EnumTable,
    index: &PopulateIndex,
) -> (Vec<LibraryId>, PopulateStats) {
    let resolved = resolve_conditions(sumy, table);
    let (hit_lists, covered) = index_probe(sumy, index);
    let indexes_hit = hit_lists.len();
    if indexes_hit == 0 {
        let (hits, mut stats) = populate_scan(sumy, table);
        return (hits, stats_with_hits(&mut stats, 0));
    }

    let candidates = intersect_row_lists(hit_lists);
    let mut stats = PopulateStats {
        indexes_hit,
        candidates: candidates.len(),
        comparisons: 0,
    };
    let hits = candidates
        .into_iter()
        .map(|r| LibraryId(r as u32))
        .filter(|&lib| {
            library_satisfies(
                table,
                &resolved,
                lib,
                Some(&covered),
                &mut stats.comparisons,
            )
        })
        .collect();
    (hits, stats)
}

fn stats_with_hits(stats: &mut PopulateStats, hits: usize) -> PopulateStats {
    stats.indexes_hit = hits;
    *stats
}

/// The probe half of [`populate_indexed`]: for every indexed tag that
/// appears in the SUMY table, the sorted-index candidate list for that
/// row's range, plus the set of SUMY row positions so covered (skippable
/// during verification). Cheap and sequential; exposed so sharded drivers
/// share the probe and fan out only the verification.
pub fn index_probe(
    sumy: &SumyTable,
    index: &PopulateIndex,
) -> (Vec<Vec<usize>>, std::collections::HashSet<usize>) {
    let mut hit_lists: Vec<Vec<usize>> = Vec::new();
    let mut covered: std::collections::HashSet<usize> = std::collections::HashSet::new();
    for (tag, sorted) in &index.indexed {
        if let Some(pos) = sumy.rows().iter().position(|r| r.tag == *tag) {
            let row = &sumy.rows()[pos];
            hit_lists.push(sorted.range(row.range.lo(), row.range.hi()));
            covered.insert(pos);
        }
    }
    (hit_lists, covered)
}

/// The populate() macro-operation: evaluate and materialize the result as a
/// named ENUM table over the SUMY's tags ("the populate operator converts a
/// cluster from its intensional/SUMY form to its extensional/ENUM form").
/// Qualification runs through the columnar pruning kernel — it returns
/// exactly the scan's hit list (same predicate, same ascending order;
/// property-tested) while touching only surviving candidates per
/// condition row.
pub fn populate(name: &str, sumy: &SumyTable, table: &EnumTable) -> EnumTable {
    let (libs, _) = populate_columnar(sumy, table);
    materialize_populate(name, sumy, table, &libs)
}

/// Materialize a populate() result: restrict `table` to the qualifying
/// `libs`, then to the SUMY's tags ([`populate_tags`]). Shared by the
/// serial macro-operation and the sharded driver, and what a session's
/// `populate` result is built as, so the result table is identical by
/// construction on every path.
pub fn materialize_populate(
    name: &str,
    sumy: &SumyTable,
    table: &EnumTable,
    libs: &[LibraryId],
) -> EnumTable {
    let restricted = table.with_libraries(name, libs);
    match populate_tags(sumy, table) {
        Some(tag_ids) => restricted.select_tags(name, &tag_ids),
        None => restricted,
    }
}

/// The tags of `table` a populate() result keeps: the SUMY's, as ids
/// within `table`, ascending — or `None` when that is every tag of the
/// table in order.
///
/// That happens in the common `populate(aggregate(E'), E)` closure, where
/// the SUMY was aggregated from a same-universe table, and there the tag
/// restriction is the identity: filtering a sorted universe with a
/// keep-everything predicate rebuilds the same universe, and copying every
/// row in order rebuilds the same value block. That copy is pure overhead
/// at 25k–30k conditions, so it is skipped.
pub fn populate_tags(sumy: &SumyTable, table: &EnumTable) -> Option<Vec<TagId>> {
    let tag_ids: Vec<TagId> = sumy.tags().filter_map(|t| table.matrix.id_of(t)).collect();
    let identity =
        tag_ids.len() == table.n_tags() && tag_ids.iter().enumerate().all(|(i, t)| t.index() == i);
    (!identity).then_some(tag_ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sumy::aggregate;
    use gea_sage::corpus::library_meta;
    use gea_sage::library::{NeoplasticState, TissueSource, TissueType};
    use gea_sage::tag::TagUniverse;
    use gea_sage::ExpressionMatrix;

    fn enum_table() -> EnumTable {
        let universe = TagUniverse::from_tags(
            ["AAAAAAAAAA", "CCCCCCCCCC", "GGGGGGGGGG", "TTTTTTTTTT"]
                .iter()
                .map(|s| s.parse().unwrap()),
        );
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
        EnumTable::new(
            "E",
            ExpressionMatrix::from_rows(
                universe,
                libs,
                vec![
                    vec![10.0, 12.0, 11.0, 50.0, 60.0], // A
                    vec![5.0, 5.0, 5.0, 5.0, 90.0],     // C
                    vec![1.0, 2.0, 3.0, 4.0, 5.0],      // G
                    vec![7.0, 7.5, 6.5, 7.2, 7.0],      // T
                ],
            ),
        )
    }

    /// A SUMY describing libraries 0–2: tight ranges they satisfy and
    /// libraries 3–4 do not.
    fn sumy_012(table: &EnumTable) -> SumyTable {
        let sub = table.with_libraries("sub", &[LibraryId(0), LibraryId(1), LibraryId(2)]);
        aggregate("def", &sub.matrix)
    }

    #[test]
    fn scan_finds_exactly_the_defining_libraries() {
        let table = enum_table();
        let sumy = sumy_012(&table);
        let (libs, stats) = populate_scan(&sumy, &table);
        assert_eq!(libs, vec![LibraryId(0), LibraryId(1), LibraryId(2)]);
        assert_eq!(stats.candidates, 5);
        assert!(stats.comparisons > 0);
    }

    #[test]
    fn indexed_agrees_with_scan() {
        let table = enum_table();
        let sumy = sumy_012(&table);
        for m in 0..=4 {
            let index = PopulateIndex::build_top_entropy(&table, m, 8);
            let (indexed, stats) = populate_indexed(&sumy, &table, &index);
            let (scanned, _) = populate_scan(&sumy, &table);
            assert_eq!(indexed, scanned, "m = {m}");
            assert!(stats.indexes_hit <= m);
        }
    }

    #[test]
    fn index_hits_reduce_verification_work() {
        let table = enum_table();
        let sumy = sumy_012(&table);
        let (_, scan_stats) = populate_scan(&sumy, &table);
        // Index the A tag (range [10, 12] excludes libraries 3 and 4).
        let index = PopulateIndex::build_on(&table, &["AAAAAAAAAA".parse().unwrap()]);
        let (libs, stats) = populate_indexed(&sumy, &table, &index);
        assert_eq!(libs.len(), 3);
        assert_eq!(stats.indexes_hit, 1);
        assert_eq!(stats.candidates, 3); // libraries 3, 4 pruned by the index
        assert!(stats.comparisons < scan_stats.comparisons);
    }

    #[test]
    fn missing_sumy_tag_means_implicit_zero() {
        let table = enum_table();
        // A SUMY over a tag the ENUM table has never seen, requiring
        // level in [0, 1]: all libraries qualify (implicit 0).
        let foreign = SumyTable::new(
            "foreign",
            vec![crate::sumy::SumyRow {
                tag: "ACACACACAC".parse().unwrap(),
                tag_no: 0,
                range: crate::interval::Interval::new(0.0, 1.0).unwrap(),
                average: 0.5,
                std_dev: 0.1,
            }],
        );
        let (libs, _) = populate_scan(&foreign, &table);
        assert_eq!(libs.len(), 5);
        // Requiring level in [2, 3] disqualifies everyone.
        let strict = SumyTable::new(
            "strict",
            vec![crate::sumy::SumyRow {
                tag: "ACACACACAC".parse().unwrap(),
                tag_no: 0,
                range: crate::interval::Interval::new(2.0, 3.0).unwrap(),
                average: 2.5,
                std_dev: 0.1,
            }],
        );
        let (libs, _) = populate_scan(&strict, &table);
        assert!(libs.is_empty());
    }

    #[test]
    fn populate_macro_materializes_enum() {
        let table = enum_table();
        let sumy = sumy_012(&table);
        let result = populate("ENUM1", &sumy, &table);
        assert_eq!(result.name, "ENUM1");
        assert_eq!(result.n_libraries(), 3);
        assert_eq!(result.n_tags(), 4);
        assert_eq!(result.library_names(), vec!["L0", "L1", "L2"]);
    }

    #[test]
    fn columnar_agrees_with_scan() {
        let table = enum_table();
        let sumy = sumy_012(&table);
        let (scan, _) = populate_scan(&sumy, &table);
        let (columnar, stats) = populate_columnar(&sumy, &table);
        assert_eq!(columnar, scan);
        // The columnar scan reads at most n_tags × n_libraries cells.
        assert!(stats.comparisons <= (table.n_tags() * table.n_libraries()) as u64);
    }

    #[test]
    fn columnar_short_circuits_when_no_candidates_remain() {
        let table = enum_table();
        // Impossible condition on the first tag: candidates die on row one.
        let impossible = SumyTable::new(
            "x",
            vec![crate::sumy::SumyRow {
                tag: "AAAAAAAAAA".parse().unwrap(),
                tag_no: 0,
                range: crate::interval::Interval::new(-5.0, -1.0).unwrap(),
                average: -3.0,
                std_dev: 0.5,
            }],
        );
        let (hits, stats) = populate_columnar(&impossible, &table);
        assert!(hits.is_empty());
        // Only the first condition row was fetched.
        assert_eq!(stats.comparisons, table.n_libraries() as u64);
    }

    #[test]
    fn empty_index_falls_back_to_scan() {
        let table = enum_table();
        let sumy = sumy_012(&table);
        let index = PopulateIndex::build_on(&table, &[]);
        assert!(index.is_empty());
        let (libs, stats) = populate_indexed(&sumy, &table, &index);
        assert_eq!(libs.len(), 3);
        assert_eq!(stats.indexes_hit, 0);
        assert_eq!(stats.candidates, 5);
    }

    #[test]
    fn aggregate_populate_closure() {
        // populate(aggregate(E), E) returns at least E's libraries
        // (aggregate's ranges are satisfied by construction).
        let table = enum_table();
        let sumy = aggregate("all", &table.matrix);
        let (libs, _) = populate_scan(&sumy, &table);
        assert_eq!(libs.len(), 5);
    }
}
