//! ENUM tables — extensional cluster enumerations (thesis §3.1.1).
//!
//! In the extensional world a cluster is an explicit enumeration of the
//! libraries it contains, with columns for the cluster's (compact) tags
//! (Figure 3.2). The original cleaned SAGE data set itself is "a
//! 'degenerate' cluster" stored the same way. An [`EnumTable`] is a named
//! view: an expression matrix restricted to the cluster's libraries and
//! tags.

use gea_sage::library::{LibraryId, LibraryMeta, LibraryProperty};
use gea_sage::tag::{Tag, TagId};
use gea_sage::{ExpressionMatrix, TissueType};

/// A named extensional cluster: libraries × tags with expression levels.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumTable {
    /// Table name, e.g. `brain35k_4` or `Ebrain`.
    pub name: String,
    /// The enumerated data. Libraries are the cluster's members; tags are
    /// the cluster's columns.
    pub matrix: ExpressionMatrix,
}

impl EnumTable {
    /// Wrap a matrix as a named ENUM table.
    pub fn new(name: &str, matrix: ExpressionMatrix) -> EnumTable {
        EnumTable {
            name: name.to_string(),
            matrix,
        }
    }

    /// Number of member libraries.
    pub fn n_libraries(&self) -> usize {
        self.matrix.n_libraries()
    }

    /// Number of tag columns.
    pub fn n_tags(&self) -> usize {
        self.matrix.n_tags()
    }

    /// Member library metadata, in order.
    pub fn libraries(&self) -> &[LibraryMeta] {
        self.matrix.libraries()
    }

    /// Library ids whose metadata satisfies `keep` — relational selection
    /// on the auxiliary columns (σ tissueType = 'brain' in Case 1 step 1).
    pub fn library_ids_where(&self, mut keep: impl FnMut(&LibraryMeta) -> bool) -> Vec<LibraryId> {
        self.matrix
            .library_ids()
            .filter(|&id| keep(self.matrix.library(id)))
            .collect()
    }

    /// σ on libraries: a new named ENUM table containing only the selected
    /// libraries.
    pub fn select_libraries(
        &self,
        name: &str,
        keep: impl FnMut(&LibraryMeta) -> bool,
    ) -> EnumTable {
        let ids = self.library_ids_where(keep);
        EnumTable::new(name, self.matrix.select_libraries(&ids))
    }

    /// Restrict to an explicit library-id list (populate()'s output path,
    /// and Case 5's user-defined tissue sets).
    pub fn with_libraries(&self, name: &str, ids: &[LibraryId]) -> EnumTable {
        EnumTable::new(name, self.matrix.select_libraries(ids))
    }

    /// The tissue-type dataset constructor of §4.3.1.2 step 1:
    /// `E_tissue = σ_tissueType(SAGE)`.
    pub fn select_tissue(&self, name: &str, tissue: &TissueType) -> EnumTable {
        self.select_libraries(name, |m| &m.tissue == tissue)
    }

    /// Library minus: members of `self` that are not members of `other`
    /// (matched by library name) — Case 1 step 4's
    /// `ENUM₂ = σ_cancerous(E_brain) − ENUM₁`.
    pub fn minus(&self, name: &str, other: &EnumTable) -> EnumTable {
        let other_names: std::collections::HashSet<&str> =
            other.libraries().iter().map(|m| m.name.as_str()).collect();
        self.select_libraries(name, |m| !other_names.contains(m.name.as_str()))
    }

    /// Restrict the tag columns to `tags` (a fascicle's ENUM table has
    /// "the columns representing the compact tags of the fascicle").
    pub fn select_tags(&self, name: &str, tags: &[TagId]) -> EnumTable {
        let keep: std::collections::HashSet<Tag> =
            tags.iter().map(|&t| self.matrix.tag_of(t)).collect();
        EnumTable::new(name, self.matrix.select_tags(|_, tag| keep.contains(&tag)))
    }

    /// Member library names, in order.
    pub fn library_names(&self) -> Vec<&str> {
        self.libraries().iter().map(|m| m.name.as_str()).collect()
    }
}

/// The purity check of Figure 4.8, over library metadata alone — a
/// table's or a selection's: whether there is a library and every one has
/// `property` (an empty table is pure on nothing).
pub fn is_pure<'a>(
    libraries: impl IntoIterator<Item = &'a LibraryMeta>,
    property: LibraryProperty,
) -> bool {
    let mut any = false;
    libraries.into_iter().all(|m| {
        any = true;
        m.has_property(property)
    }) && any
}

/// Every property these libraries are pure on ([`is_pure`]).
pub fn pure_properties<'a>(
    libraries: impl IntoIterator<Item = &'a LibraryMeta, IntoIter: Clone>,
) -> Vec<LibraryProperty> {
    let libraries = libraries.into_iter();
    LibraryProperty::ALL
        .into_iter()
        .filter(|&p| is_pure(libraries.clone(), p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gea_sage::corpus::library_meta;
    use gea_sage::library::{NeoplasticState, TissueSource};
    use gea_sage::tag::TagUniverse;

    fn table() -> EnumTable {
        let universe = TagUniverse::from_tags(
            ["AAAAAAAAAA", "CCCCCCCCCC"]
                .iter()
                .map(|s| s.parse().unwrap()),
        );
        let libs = vec![
            library_meta(
                "b_c1",
                TissueType::Brain,
                NeoplasticState::Cancerous,
                TissueSource::BulkTissue,
            ),
            library_meta(
                "b_c2",
                TissueType::Brain,
                NeoplasticState::Cancerous,
                TissueSource::CellLine,
            ),
            library_meta(
                "b_n1",
                TissueType::Brain,
                NeoplasticState::Normal,
                TissueSource::BulkTissue,
            ),
            library_meta(
                "k_c1",
                TissueType::Kidney,
                NeoplasticState::Cancerous,
                TissueSource::BulkTissue,
            ),
        ];
        EnumTable::new(
            "SAGE",
            ExpressionMatrix::from_rows(
                universe,
                libs,
                vec![vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]],
            ),
        )
    }

    #[test]
    fn tissue_selection() {
        let t = table();
        let brain = t.select_tissue("Ebrain", &TissueType::Brain);
        assert_eq!(brain.n_libraries(), 3);
        assert_eq!(brain.library_names(), vec!["b_c1", "b_c2", "b_n1"]);
    }

    #[test]
    fn case_1_control_group_construction() {
        let t = table();
        let brain = t.select_tissue("Ebrain", &TissueType::Brain);
        // Pretend the fascicle picked b_c1 only.
        let enum1 = brain.with_libraries("ENUM1", &[LibraryId(0)]);
        let cancerous = brain.select_libraries("canc", |m| m.state == NeoplasticState::Cancerous);
        let enum2 = cancerous.minus("ENUM2", &enum1);
        assert_eq!(enum2.library_names(), vec!["b_c2"]);
        let enum3 = brain.select_libraries("ENUM3", |m| m.state == NeoplasticState::Normal);
        assert_eq!(enum3.library_names(), vec!["b_n1"]);
    }

    #[test]
    fn purity_check() {
        let t = table();
        let cancerous = t.select_libraries("c", |m| m.state == NeoplasticState::Cancerous);
        assert!(is_pure(cancerous.libraries(), LibraryProperty::Cancer));
        assert!(!is_pure(cancerous.libraries(), LibraryProperty::BulkTissue));
        assert_eq!(
            pure_properties(cancerous.libraries()),
            vec![LibraryProperty::Cancer]
        );
        // An empty table is pure on nothing.
        let empty = t.select_libraries("e", |_| false);
        assert!(pure_properties(empty.libraries()).is_empty());
    }

    #[test]
    fn tag_restriction() {
        let t = table();
        let c: Tag = "CCCCCCCCCC".parse().unwrap();
        let cid = t.matrix.id_of(c).unwrap();
        let sub = t.select_tags("sub", &[cid]);
        assert_eq!(sub.n_tags(), 1);
        assert_eq!(sub.matrix.tag_of(TagId(0)), c);
        assert_eq!(sub.n_libraries(), 4);
    }

    #[test]
    fn values_survive_selection() {
        let t = table();
        let brain = t.select_tissue("Ebrain", &TissueType::Brain);
        let a = brain.matrix.id_of("AAAAAAAAAA".parse().unwrap()).unwrap();
        assert_eq!(brain.matrix.tag_row(a), &[1.0, 2.0, 3.0]);
    }
}
