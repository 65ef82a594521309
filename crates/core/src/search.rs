//! The database searches the `library` and `tagfreq` verbs answer (thesis
//! §4.4.4): library information by id or name (Figure 4.23) and one tag's
//! expression values over a data set's libraries (Figure 4.26). The range
//! searches over SUMY tables (Figures 4.16/4.17) are
//! [`SumyTable::select_range`](crate::sumy::SumyTable::select_range) and
//! [`SumyTable::select_intersecting`](crate::sumy::SumyTable::select_intersecting).

use gea_sage::corpus::SageCorpus;
use gea_sage::library::{LibraryId, LibraryMeta};
use gea_sage::tag::Tag;

use crate::enum_table::EnumTable;

/// Figure 4.23's library-information search result.
#[derive(Debug, Clone, PartialEq)]
pub struct LibraryInfo {
    /// Library id.
    pub id: LibraryId,
    /// Metadata (name, tissue, state, source).
    pub meta: LibraryMeta,
    /// Total number of tags (sum of counts).
    pub total_tags: u64,
    /// Unique number of tags.
    pub unique_tags: usize,
}

/// Search a corpus for library information by id.
pub fn library_info_by_id(corpus: &SageCorpus, id: LibraryId) -> Option<LibraryInfo> {
    if id.index() >= corpus.len() {
        return None;
    }
    let lib = corpus.library(id);
    Some(LibraryInfo {
        id,
        meta: lib.meta.clone(),
        total_tags: lib.total_tags(),
        unique_tags: lib.unique_tags(),
    })
}

/// Search by exact library name.
pub fn library_info_by_name(corpus: &SageCorpus, name: &str) -> Option<LibraryInfo> {
    corpus
        .find_by_name(name)
        .and_then(|id| library_info_by_id(corpus, id))
}

/// One row of the tag-frequency search (Figures 4.25/4.26): a tag, its
/// number, and its expression value in each requested library.
#[derive(Debug, Clone, PartialEq)]
pub struct TagFrequencyRow {
    /// The tag.
    pub tag: Tag,
    /// Tag number in the ENUM table's universe.
    pub tag_no: u32,
    /// `(library name, expression value)` pairs, in request order.
    pub values: Vec<(String, f64)>,
}

/// Expression values of a single tag over the chosen libraries (empty
/// library list means all libraries).
pub fn tag_frequency(
    table: &EnumTable,
    tag: Tag,
    libraries: &[LibraryId],
) -> Option<TagFrequencyRow> {
    let tid = table.matrix.id_of(tag)?;
    let ids: Vec<LibraryId> = if libraries.is_empty() {
        table.matrix.library_ids().collect()
    } else {
        libraries.to_vec()
    };
    Some(TagFrequencyRow {
        tag,
        tag_no: tid.0,
        values: ids
            .into_iter()
            .map(|lib| {
                (
                    table.matrix.library(lib).name.clone(),
                    table.matrix.value(tid, lib),
                )
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gea_sage::corpus::library_meta;
    use gea_sage::library::{NeoplasticState, SageLibrary, TissueSource};
    use gea_sage::tag::TagUniverse;
    use gea_sage::{ExpressionMatrix, TissueType};

    fn corpus() -> SageCorpus {
        let mut c = SageCorpus::new();
        c.add(SageLibrary::from_counts(
            library_meta(
                "SAGE_Duke_H1020",
                TissueType::Brain,
                NeoplasticState::Cancerous,
                TissueSource::BulkTissue,
            ),
            [("AAAAAAAAAA".parse().unwrap(), 152371u32 / 2)],
        ));
        c.add(SageLibrary::from_counts(
            library_meta(
                "SAGE_Br_N",
                TissueType::Brain,
                NeoplasticState::Normal,
                TissueSource::BulkTissue,
            ),
            [("CCCCCCCCCC".parse().unwrap(), 7)],
        ));
        c
    }

    fn enum_table() -> EnumTable {
        let universe = TagUniverse::from_tags(
            ["AAAAAAAAAC", "AAAAAAAAAG", "AAAAAAAAAT", "CAAAAAAAAA"]
                .iter()
                .map(|s| s.parse().unwrap()),
        );
        let libs = vec![
            library_meta(
                "SAGE_293-IND",
                TissueType::Kidney,
                NeoplasticState::Cancerous,
                TissueSource::CellLine,
            ),
            library_meta(
                "SAGE_95-259",
                TissueType::Brain,
                NeoplasticState::Cancerous,
                TissueSource::BulkTissue,
            ),
            library_meta(
                "SAGE_95-260",
                TissueType::Brain,
                NeoplasticState::Cancerous,
                TissueSource::BulkTissue,
            ),
        ];
        EnumTable::new(
            "E",
            ExpressionMatrix::from_rows(
                universe,
                libs,
                vec![
                    vec![13.0, 8.0, 0.0],
                    vec![26.0, 0.0, 7.0],
                    vec![1.0, 3.0, 0.0],
                    vec![5.0, 5.0, 5.0],
                ],
            ),
        )
    }

    #[test]
    fn library_info_lookup() {
        let c = corpus();
        let by_id = library_info_by_id(&c, LibraryId(0)).unwrap();
        assert_eq!(by_id.meta.name, "SAGE_Duke_H1020");
        assert_eq!(by_id.meta.tissue, TissueType::Brain);
        let by_name = library_info_by_name(&c, "SAGE_Br_N").unwrap();
        assert_eq!(by_name.id, LibraryId(1));
        assert_eq!(by_name.total_tags, 7);
        assert_eq!(by_name.unique_tags, 1);
        assert!(library_info_by_id(&c, LibraryId(9)).is_none());
        assert!(library_info_by_name(&c, "nope").is_none());
    }

    #[test]
    fn single_tag_frequency_matches_figure_4_26() {
        // "the tag number for AAAAAAAAAC is 2, and the expression values for
        // the selected libraries are 13 and 8" — our universe numbers from
        // 0, so the shape is what we check.
        let t = enum_table();
        let row = tag_frequency(
            &t,
            "AAAAAAAAAC".parse().unwrap(),
            &[LibraryId(0), LibraryId(1)],
        )
        .unwrap();
        assert_eq!(
            row.values,
            vec![
                ("SAGE_293-IND".to_string(), 13.0),
                ("SAGE_95-259".to_string(), 8.0)
            ]
        );
        assert!(tag_frequency(&t, "GGGGGGGGGG".parse().unwrap(), &[]).is_none());
    }
}
