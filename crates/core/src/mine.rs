//! The mine() operator (thesis §3.2.1): from the extensional world to the
//! intensional world.
//!
//! `SUMY = mine(ENUM, fascicle)` runs the Fascicles algorithm over an ENUM
//! table and names each found fascicle by its member libraries and compact
//! tags; a session holds its ENUM and SUMY as that definition. "In the
//! general case, the mining operation can be something other than fascicle
//! production" — other algorithms plug in as `gea_mine::MineBackend`s,
//! which reuse [`materialize_groups`].

use gea_cluster::dataset::AttrSource;
use gea_cluster::{mine_greedy, FascicleParams, ToleranceVector};
use gea_sage::library::LibraryId;
use gea_sage::tag::TagId;

use crate::enum_table::EnumTable;

/// Adapter presenting an ENUM table's matrix as a clustering input:
/// libraries are the records, tags the attributes.
pub struct MatrixView<'a>(&'a EnumTable);

impl<'a> MatrixView<'a> {
    /// Wrap an ENUM table.
    pub fn new(table: &'a EnumTable) -> MatrixView<'a> {
        MatrixView(table)
    }
}

impl AttrSource for MatrixView<'_> {
    fn n_records(&self) -> usize {
        self.0.n_libraries()
    }

    fn n_attrs(&self) -> usize {
        self.0.n_tags()
    }

    fn attr_values(&self, attr: usize) -> &[f64] {
        self.0.matrix.tag_row(TagId(attr as u32))
    }
}

/// The width fraction the thesis's fascicle runs use (Figure 4.5's
/// metadata generator at 10 %), and what [`mine_groups`] mines under when
/// no tolerance vector is given.
pub const WIDTH_FRACTION: f64 = 0.10;

/// The metadata generator of Figure 4.5: a tolerance vector from a
/// width percentage over the ENUM table's tags.
pub fn generate_metadata(table: &EnumTable, width_fraction: f64) -> ToleranceVector {
    ToleranceVector::from_width_fraction(&MatrixView::new(table), width_fraction)
}

/// One mined cluster: its member libraries and compact tags, which
/// determine both its identities — the extensional ENUM (members × compact
/// tags) and the intensional SUMY (the members aggregated over the compact
/// tags) — so a session holds them as this definition and builds each
/// when first read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinedCluster {
    /// Name assigned to the cluster (e.g. `brain35k_1`).
    pub name: String,
    /// Member libraries, as ids within the mined ENUM table.
    pub libraries: Vec<LibraryId>,
    /// Compact tags, as ids within the mined ENUM table.
    pub compact_tags: Vec<TagId>,
}

/// The mining algorithm behind mine().
#[derive(Debug, Clone)]
pub enum Miner {
    /// The Fascicles algorithm with the given parameters (the thesis's
    /// default and focus).
    Fascicles(FascicleParams),
}

/// Run mine() over an ENUM table. `tolerance` is the per-tag compactness
/// bound of [`generate_metadata`]; without one, the fascicle miner uses
/// the table's own at [`WIDTH_FRACTION`]. Returned clusters
/// are named `{base_name}_{i}` with `i` starting at 1, as in the thesis's
/// `brain35k_1 … brain35k_4`.
pub fn mine(
    table: &EnumTable,
    base_name: &str,
    miner: &Miner,
    tolerance: Option<&ToleranceVector>,
) -> Vec<MinedCluster> {
    materialize_groups(table, base_name, 0, mine_groups(table, miner, tolerance))
}

/// Materialize `(records, attrs)` groups as clusters numbered from `first`
/// (zero-based), in group order — the tail every miner shares, and the
/// per-range kernel of the sharded `mine`, whose range starts at `first`.
/// `table` is the mined table; a cluster's ids are within it.
pub fn materialize_groups(
    table: &EnumTable,
    base_name: &str,
    first: usize,
    groups: impl IntoIterator<Item = (Vec<usize>, Vec<usize>)>,
) -> Vec<MinedCluster> {
    groups
        .into_iter()
        .enumerate()
        .map(|(off, (records, attrs))| {
            materialize_cluster(table, base_name, first + off, records, attrs)
        })
        .collect()
}

/// The clustering half of [`mine`]: run the configured algorithm and
/// return each cluster as `(record indices, compact attribute indices)`.
/// Sequential by nature (the greedy pass is iterative); the per-cluster
/// [`materialize_cluster`] step that follows is what parallel drivers fan
/// out.
pub fn mine_groups(
    table: &EnumTable,
    miner: &Miner,
    tolerance: Option<&ToleranceVector>,
) -> Vec<(Vec<usize>, Vec<usize>)> {
    let view = MatrixView::new(table);
    match miner {
        Miner::Fascicles(params) => {
            let own;
            let tol = match tolerance {
                Some(tol) => tol,
                None => {
                    own = generate_metadata(table, WIDTH_FRACTION);
                    &own
                }
            };
            mine_greedy(&view, tol, params)
                .into_iter()
                .map(|f| (f.records, f.compact_attrs))
                .collect()
        }
    }
}

/// The materialization half of [`mine`]: turn the `index`-th cluster of a
/// [`mine_groups`] pass into a [`MinedCluster`] — name it and number its
/// members and compact tags. It builds no table: the session builds the
/// cluster's ENUM and SUMY from these ids when something reads them.
/// Each cluster materializes independently, so this is the unit of work
/// the sharded mine driver fans across its pool. (`table`, the mined
/// table, is what the ids index.)
pub fn materialize_cluster(
    _table: &EnumTable,
    base_name: &str,
    index: usize,
    records: Vec<usize>,
    attrs: Vec<usize>,
) -> MinedCluster {
    MinedCluster {
        name: format!("{base_name}_{}", index + 1),
        libraries: records.iter().map(|&r| LibraryId(r as u32)).collect(),
        compact_tags: attrs.iter().map(|&a| TagId(a as u32)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gea_sage::corpus::library_meta;
    use gea_sage::library::{NeoplasticState, TissueSource, TissueType};
    use gea_sage::tag::TagUniverse;
    use gea_sage::ExpressionMatrix;

    /// A cluster's SUMY: its members aggregated over its compact tags.
    fn cluster_sumy(table: &EnumTable, c: &MinedCluster) -> crate::sumy::SumyTable {
        let members = table.matrix.select_libraries(&c.libraries);
        crate::sumy::aggregate_tags(&c.name, &members, &c.compact_tags)
    }

    /// Six libraries: 0–2 agree tightly on both tags (a plantable
    /// fascicle), 3–5 scattered.
    fn table() -> EnumTable {
        let universe = TagUniverse::from_tags(
            ["AAAAAAAAAA", "CCCCCCCCCC"]
                .iter()
                .map(|s| s.parse().unwrap()),
        );
        let libs = (0..6)
            .map(|i| {
                library_meta(
                    &format!("L{i}"),
                    TissueType::Brain,
                    if i < 3 {
                        NeoplasticState::Cancerous
                    } else {
                        NeoplasticState::Normal
                    },
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
                    vec![100.0, 102.0, 101.0, 10.0, 250.0, 400.0],
                    vec![50.0, 50.5, 49.5, 200.0, 90.0, 5.0],
                ],
            ),
        )
    }

    #[test]
    fn fascicle_mining_finds_the_tight_group() {
        let table = table();
        let tol = generate_metadata(&table, 0.05);
        let clusters = mine(
            &table,
            "brain2k",
            &Miner::Fascicles(FascicleParams {
                min_compact_attrs: 2,
                min_records: 3,
                batch_size: 6,
            }),
            Some(&tol),
        );
        assert_eq!(clusters.len(), 1);
        let c = &clusters[0];
        assert_eq!(c.name, "brain2k_1");
        assert_eq!(c.libraries, vec![LibraryId(0), LibraryId(1), LibraryId(2)]);
        assert_eq!(c.compact_tags.len(), 2);
        // The SUMY definition covers exactly the compact tags with the
        // member-library aggregates.
        let sumy = cluster_sumy(&table, c);
        assert_eq!(sumy.len(), 2);
        let a = sumy.row_for("AAAAAAAAAA".parse().unwrap()).unwrap();
        assert_eq!(a.average, 101.0);
        assert_eq!(a.range.lo(), 100.0);
        assert_eq!(a.range.hi(), 102.0);
    }

    #[test]
    fn mined_sumy_populates_back_to_members() {
        // The mine → populate closure of Figure 3.1.
        let table = table();
        let tol = generate_metadata(&table, 0.05);
        let clusters = mine(
            &table,
            "f",
            &Miner::Fascicles(FascicleParams {
                min_compact_attrs: 2,
                min_records: 3,
                batch_size: 6,
            }),
            Some(&tol),
        );
        let c = &clusters[0];
        let (libs, _) = crate::populate::populate_scan(&cluster_sumy(&table, c), &table);
        assert_eq!(libs, c.libraries);
    }
}
