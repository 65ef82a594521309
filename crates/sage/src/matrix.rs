//! The cleaned, normalized expression matrix.
//!
//! After cleaning (§4.2) the corpus becomes a dense matrix of expression
//! levels: one row per tag, one column per library. Following the thesis's
//! physical design (§4.6.1, Figure 4.30), storage is *rotated*: tags are the
//! physical rows (because a DBMS of the time handled at most hundreds of
//! columns, while the data has ~60,000 tags). We keep that layout — values
//! for one tag across all libraries are contiguous — because every analysis
//! operator (aggregation, gap computation, compactness checks) walks
//! tag-wise.

use crate::library::{LibraryId, LibraryMeta};
use crate::tag::{Tag, TagId, TagUniverse};

/// A dense tag-major expression matrix over a fixed tag universe and library
/// roster.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpressionMatrix {
    universe: TagUniverse,
    libraries: Vec<LibraryMeta>,
    /// Row-major with tags as rows: `values[tag.index() * n_libs + lib.index()]`.
    values: Vec<f64>,
}

impl ExpressionMatrix {
    /// Create a zero-filled matrix.
    pub fn zeroed(universe: TagUniverse, libraries: Vec<LibraryMeta>) -> ExpressionMatrix {
        let n = universe.len() * libraries.len();
        ExpressionMatrix {
            universe,
            libraries,
            values: vec![0.0; n],
        }
    }

    /// Create a matrix from tag-major rows. `rows[t]` must hold one value per
    /// library. Panics when dimensions disagree.
    pub fn from_rows(
        universe: TagUniverse,
        libraries: Vec<LibraryMeta>,
        rows: Vec<Vec<f64>>,
    ) -> ExpressionMatrix {
        assert_eq!(rows.len(), universe.len(), "one row per universe tag");
        let n_libs = libraries.len();
        let mut values = Vec::with_capacity(rows.len() * n_libs);
        for row in rows {
            assert_eq!(row.len(), n_libs, "one value per library");
            values.extend(row);
        }
        ExpressionMatrix {
            universe,
            libraries,
            values,
        }
    }

    /// The tag universe the rows are indexed by.
    pub fn universe(&self) -> &TagUniverse {
        &self.universe
    }

    /// Number of tags (physical rows).
    pub fn n_tags(&self) -> usize {
        self.universe.len()
    }

    /// Number of libraries (physical columns).
    pub fn n_libraries(&self) -> usize {
        self.libraries.len()
    }

    /// Metadata of a library column.
    pub fn library(&self, id: LibraryId) -> &LibraryMeta {
        &self.libraries[id.index()]
    }

    /// All library metadata, in column order.
    pub fn libraries(&self) -> &[LibraryMeta] {
        &self.libraries
    }

    /// All library ids, in column order.
    pub fn library_ids(&self) -> impl Iterator<Item = LibraryId> {
        (0..self.libraries.len() as u32).map(LibraryId)
    }

    /// Expression level of `tag` in `lib`.
    pub fn value(&self, tag: TagId, lib: LibraryId) -> f64 {
        self.values[tag.index() * self.libraries.len() + lib.index()]
    }

    /// Set the expression level of `tag` in `lib`.
    pub fn set(&mut self, tag: TagId, lib: LibraryId, v: f64) {
        self.values[tag.index() * self.libraries.len() + lib.index()] = v;
    }

    /// The contiguous slice of one tag's levels across all libraries — the
    /// rotated layout's unit of locality.
    pub fn tag_row(&self, tag: TagId) -> &[f64] {
        let w = self.libraries.len();
        &self.values[tag.index() * w..(tag.index() + 1) * w]
    }

    /// One library's levels gathered across all tags (a strided walk in this
    /// layout — deliberately the slow direction).
    pub fn library_column(&self, lib: LibraryId) -> Vec<f64> {
        let w = self.libraries.len();
        (0..self.n_tags())
            .map(|t| self.values[t * w + lib.index()])
            .collect()
    }

    /// Sum of one library's levels — its (normalized) total tag count.
    pub fn library_total(&self, lib: LibraryId) -> f64 {
        let w = self.libraries.len();
        (0..self.n_tags())
            .map(|t| self.values[t * w + lib.index()])
            .sum()
    }

    /// Resolve a tag string to its row id, if the tag survived cleaning.
    pub fn id_of(&self, tag: Tag) -> Option<TagId> {
        self.universe.id_of(tag)
    }

    /// The tag behind a row id.
    pub fn tag_of(&self, id: TagId) -> Tag {
        self.universe.tag_of(id)
    }

    /// All tag ids, in row order.
    pub fn tag_ids(&self) -> impl Iterator<Item = TagId> {
        (0..self.universe.len() as u32).map(TagId)
    }

    /// Project onto a subset of library columns, preserving the given order.
    /// The result's `LibraryId`s are re-numbered 0..k.
    pub fn select_libraries(&self, keep: &[LibraryId]) -> ExpressionMatrix {
        let libraries: Vec<LibraryMeta> = keep
            .iter()
            .map(|&id| self.libraries[id.index()].clone())
            .collect();
        let w = self.libraries.len();
        let mut values = Vec::with_capacity(self.n_tags() * keep.len());
        for t in 0..self.n_tags() {
            let row = &self.values[t * w..(t + 1) * w];
            values.extend(keep.iter().map(|&id| row[id.index()]));
        }
        ExpressionMatrix {
            universe: self.universe.clone(),
            libraries,
            values,
        }
    }

    /// Project onto a subset of tag rows. The surviving tags keep their
    /// relative order; the result has a fresh, smaller universe.
    pub fn select_tags(&self, keep: impl Fn(TagId, Tag) -> bool) -> ExpressionMatrix {
        let (universe, remap) = self.universe.filter(&keep);
        let w = self.libraries.len();
        let mut values = Vec::with_capacity(universe.len() * w);
        for (old_idx, new_id) in remap.iter().enumerate() {
            if new_id.is_some() {
                values.extend_from_slice(&self.values[old_idx * w..(old_idx + 1) * w]);
            }
        }
        ExpressionMatrix {
            universe,
            libraries: self.libraries.clone(),
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::library_meta;
    use crate::library::{NeoplasticState, TissueSource, TissueType};

    fn tiny() -> ExpressionMatrix {
        let universe = TagUniverse::from_tags(
            ["AAAAAAAAAA", "CCCCCCCCCC", "GGGGGGGGGG"]
                .iter()
                .map(|s| s.parse().unwrap()),
        );
        let libs = vec![
            library_meta(
                "L0",
                TissueType::Brain,
                NeoplasticState::Cancerous,
                TissueSource::BulkTissue,
            ),
            library_meta(
                "L1",
                TissueType::Brain,
                NeoplasticState::Normal,
                TissueSource::BulkTissue,
            ),
        ];
        ExpressionMatrix::from_rows(
            universe,
            libs,
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
        )
    }

    #[test]
    fn indexing_and_rows() {
        let m = tiny();
        assert_eq!(m.n_tags(), 3);
        assert_eq!(m.n_libraries(), 2);
        assert_eq!(m.value(TagId(1), LibraryId(0)), 3.0);
        assert_eq!(m.tag_row(TagId(2)), &[5.0, 6.0]);
        assert_eq!(m.library_column(LibraryId(1)), vec![2.0, 4.0, 6.0]);
        assert_eq!(m.library_total(LibraryId(0)), 9.0);
    }

    #[test]
    fn set_updates_cell() {
        let mut m = tiny();
        m.set(TagId(0), LibraryId(1), 42.0);
        assert_eq!(m.value(TagId(0), LibraryId(1)), 42.0);
    }

    #[test]
    fn select_libraries_reorders_and_renumbers() {
        let m = tiny();
        let sub = m.select_libraries(&[LibraryId(1)]);
        assert_eq!(sub.n_libraries(), 1);
        assert_eq!(sub.library(LibraryId(0)).name, "L1");
        assert_eq!(sub.tag_row(TagId(0)), &[2.0]);
        assert_eq!(sub.tag_row(TagId(2)), &[6.0]);
    }

    #[test]
    fn select_tags_shrinks_universe() {
        let m = tiny();
        let g: Tag = "GGGGGGGGGG".parse().unwrap();
        let sub = m.select_tags(|_, t| t == g);
        assert_eq!(sub.n_tags(), 1);
        assert_eq!(sub.tag_of(TagId(0)), g);
        assert_eq!(sub.tag_row(TagId(0)), &[5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "one value per library")]
    fn from_rows_validates_width() {
        let universe = TagUniverse::from_tags(["AAAAAAAAAA".parse::<Tag>().unwrap()]);
        let libs = vec![library_meta(
            "L0",
            TissueType::Brain,
            NeoplasticState::Normal,
            TissueSource::BulkTissue,
        )];
        ExpressionMatrix::from_rows(universe, libs, vec![vec![1.0, 2.0]]);
    }
}
