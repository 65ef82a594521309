//! A corpus of raw SAGE libraries, before cleaning.
//!
//! The thesis's test data is the NCBI CGAP SAGE collection: 100 libraries,
//! each with 1,000–32,000 distinct tags, across nine tissue types with both
//! cancerous and normal samples (§2.2.3). A [`SageCorpus`] holds such a
//! collection and answers the descriptive queries of §4.4.4.2 (library
//! information, tissue-type membership, frequency census).

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::library::{LibraryId, LibraryMeta, NeoplasticState, SageLibrary, TissueType};
use crate::tag::{Tag, TagUniverse};

/// An immutable-by-id collection of raw SAGE libraries.
#[derive(Debug, Clone, Default)]
pub struct SageCorpus {
    libraries: Vec<SageLibrary>,
}

impl SageCorpus {
    /// Create an empty corpus.
    pub fn new() -> SageCorpus {
        SageCorpus::default()
    }

    /// Add a library, returning the id it was assigned.
    pub fn add(&mut self, library: SageLibrary) -> LibraryId {
        let id = LibraryId(self.libraries.len() as u32);
        self.libraries.push(library);
        id
    }

    /// Number of libraries.
    pub fn len(&self) -> usize {
        self.libraries.len()
    }

    /// Whether the corpus has no libraries.
    pub fn is_empty(&self) -> bool {
        self.libraries.is_empty()
    }

    /// The library behind an id. Panics on a foreign id.
    pub fn library(&self, id: LibraryId) -> &SageLibrary {
        &self.libraries[id.index()]
    }

    /// Metadata of the library behind an id.
    pub fn meta(&self, id: LibraryId) -> &LibraryMeta {
        &self.libraries[id.index()].meta
    }

    /// Iterate `(id, library)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (LibraryId, &SageLibrary)> {
        self.libraries
            .iter()
            .enumerate()
            .map(|(i, l)| (LibraryId(i as u32), l))
    }

    /// All library ids, in order.
    pub fn ids(&self) -> impl Iterator<Item = LibraryId> {
        (0..self.libraries.len() as u32).map(LibraryId)
    }

    /// Find a library by its exact name (Figure 4.23 searches by name or id).
    pub fn find_by_name(&self, name: &str) -> Option<LibraryId> {
        self.iter()
            .find(|(_, l)| l.meta.name == name)
            .map(|(id, _)| id)
    }

    /// Ids of all libraries of the given tissue type (Figure 4.24).
    pub fn libraries_of_tissue(&self, tissue: &TissueType) -> Vec<LibraryId> {
        self.iter()
            .filter(|(_, l)| &l.meta.tissue == tissue)
            .map(|(id, _)| id)
            .collect()
    }

    /// The distinct tissue types present, in sorted order.
    pub fn tissue_types(&self) -> Vec<TissueType> {
        let mut seen: Vec<TissueType> = Vec::new();
        for (_, l) in self.iter() {
            if !seen.contains(&l.meta.tissue) {
                seen.push(l.meta.tissue.clone());
            }
        }
        seen.sort();
        seen
    }

    /// The union of all tags across all libraries (the starting point of the
    /// cleaning pipeline, §4.2: "we take the union of all the tags in the
    /// libraries").
    pub fn tag_union(&self) -> TagUniverse {
        TagUniverse::from_tags(self.census().map(|(tag, _)| tag))
    }

    /// The raw union with each tag's maximum per-library count, in tag
    /// order: a k-way merge of the libraries' sorted entries, holding one
    /// cursor per library and no copy of the entries. One pass answers
    /// what [`SageCorpus::max_count`] answers one tag at a time — the
    /// cleaning rule (§4.2) and the frequency-1 census both read it.
    pub fn census(&self) -> impl Iterator<Item = (Tag, u32)> + '_ {
        // A min-heap of (next tag, library, position) cursors.
        let mut heads: BinaryHeap<Reverse<(Tag, usize, usize)>> = self
            .libraries
            .iter()
            .enumerate()
            .filter_map(|(i, lib)| Some(Reverse((*lib.entries().0.first()?, i, 0))))
            .collect();
        std::iter::from_fn(move || {
            let tag = heads.peek()?.0 .0;
            let mut max = 0;
            while let Some(mut top) = heads.peek_mut() {
                let Reverse((t, i, pos)) = *top;
                if t != tag {
                    break;
                }
                let (tags, counts) = self.libraries[i].entries();
                max = max.max(counts[pos]);
                match tags.get(pos + 1) {
                    Some(&next) => *top = Reverse((next, i, pos + 1)),
                    None => {
                        PeekMut::pop(top);
                    }
                }
            }
            Some((tag, max))
        })
    }

    /// [`SageCorpus::census`] by sort-and-fold: every library's entries
    /// gathered into one vector, sorted and folded to each tag's maximum.
    /// Kept as the oracle the tests hold the merge to; it holds a copy of
    /// every entry, so nothing on a served path calls it.
    #[doc(hidden)]
    pub fn tag_census(&self) -> Vec<(Tag, u32)> {
        let entries = self.libraries.iter().map(|l| l.unique_tags()).sum();
        let mut census: Vec<(Tag, u32)> = Vec::with_capacity(entries);
        for lib in &self.libraries {
            census.extend(lib.iter());
        }
        census.sort_unstable();
        census.dedup_by(|next, kept| {
            let same_tag = next.0 == kept.0;
            if same_tag {
                kept.1 = kept.1.max(next.1);
            }
            same_tag
        });
        census
    }

    /// Total observed count of `tag` summed over every library.
    pub fn global_count(&self, tag: Tag) -> u64 {
        self.libraries.iter().map(|l| l.count(tag) as u64).sum()
    }

    /// Maximum per-library count of `tag` over every library. The cleaning
    /// rule keeps a tag iff this exceeds the tolerance; this is the point
    /// query, [`SageCorpus::census`] the whole-corpus form.
    pub fn max_count(&self, tag: Tag) -> u32 {
        self.libraries
            .iter()
            .map(|l| l.count(tag))
            .max()
            .unwrap_or(0)
    }

    /// Descriptive statistics for the whole corpus.
    pub fn stats(&self) -> CorpusStats {
        let mut per_library = Vec::with_capacity(self.libraries.len());
        for lib in &self.libraries {
            per_library.push(LibraryStats {
                name: lib.meta.name.clone(),
                unique_tags: lib.unique_tags(),
                total_tags: lib.total_tags(),
                freq1_tags: lib.tags_with_frequency(1),
            });
        }
        // Tags whose count is exactly 1 in every library where they appear
        // at all — the error-candidate population of §4.2.
        let (mut union_tags, mut union_tags_max_freq1) = (0, 0);
        for (_, max) in self.census() {
            union_tags += 1;
            union_tags_max_freq1 += usize::from(max <= 1);
        }
        CorpusStats {
            libraries: self.libraries.len(),
            union_tags,
            union_tags_max_freq1,
            per_library,
        }
    }
}

/// Per-library descriptive statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct LibraryStats {
    /// Library name.
    pub name: String,
    /// Distinct tags detected.
    pub unique_tags: usize,
    /// Sum of counts.
    pub total_tags: u64,
    /// Distinct tags with count exactly 1.
    pub freq1_tags: usize,
}

/// Corpus-level descriptive statistics (§4.2's cleaning analysis inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusStats {
    /// Number of libraries.
    pub libraries: usize,
    /// Distinct tags in the union of all libraries.
    pub union_tags: usize,
    /// Distinct tags whose count never exceeds 1 in any library — the tags
    /// the default cleaning pass removes.
    pub union_tags_max_freq1: usize,
    /// Per-library statistics, in library-id order.
    pub per_library: Vec<LibraryStats>,
}

impl CorpusStats {
    /// Fraction of unique tags that are frequency-1 everywhere. The thesis
    /// estimates "more than 80% of the unique tags have a frequency of 1".
    pub fn freq1_fraction(&self) -> f64 {
        if self.union_tags == 0 {
            0.0
        } else {
            self.union_tags_max_freq1 as f64 / self.union_tags as f64
        }
    }
}

/// Convenience builder for library metadata used throughout tests and the
/// generator.
pub fn library_meta(
    name: &str,
    tissue: TissueType,
    state: NeoplasticState,
    source: crate::library::TissueSource,
) -> LibraryMeta {
    LibraryMeta {
        name: name.to_string(),
        tissue,
        state,
        source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::TissueSource;

    fn tag(s: &str) -> Tag {
        s.parse().unwrap()
    }

    fn small_corpus() -> SageCorpus {
        let mut corpus = SageCorpus::new();
        corpus.add(SageLibrary::from_counts(
            library_meta(
                "SAGE_brain_c1",
                TissueType::Brain,
                NeoplasticState::Cancerous,
                TissueSource::BulkTissue,
            ),
            [(tag("AAAAAAAAAA"), 5), (tag("CCCCCCCCCC"), 1)],
        ));
        corpus.add(SageLibrary::from_counts(
            library_meta(
                "SAGE_brain_n1",
                TissueType::Brain,
                NeoplasticState::Normal,
                TissueSource::CellLine,
            ),
            [(tag("AAAAAAAAAA"), 2), (tag("GGGGGGGGGG"), 1)],
        ));
        corpus.add(SageLibrary::from_counts(
            library_meta(
                "SAGE_breast_c1",
                TissueType::Breast,
                NeoplasticState::Cancerous,
                TissueSource::BulkTissue,
            ),
            [(tag("TTTTTTTTTT"), 9)],
        ));
        corpus
    }

    #[test]
    fn lookup_by_name_and_tissue() {
        let corpus = small_corpus();
        assert_eq!(corpus.find_by_name("SAGE_brain_n1"), Some(LibraryId(1)));
        assert_eq!(corpus.find_by_name("nope"), None);
        assert_eq!(
            corpus.libraries_of_tissue(&TissueType::Brain),
            vec![LibraryId(0), LibraryId(1)]
        );
        assert_eq!(
            corpus.libraries_of_tissue(&TissueType::Breast),
            vec![LibraryId(2)]
        );
        assert!(corpus.libraries_of_tissue(&TissueType::Kidney).is_empty());
    }

    #[test]
    fn union_and_global_counts() {
        let corpus = small_corpus();
        let union = corpus.tag_union();
        assert_eq!(union.len(), 4);
        assert_eq!(corpus.global_count(tag("AAAAAAAAAA")), 7);
        assert_eq!(corpus.max_count(tag("AAAAAAAAAA")), 5);
        assert_eq!(corpus.max_count(tag("CCCCCCCCCC")), 1);
    }

    #[test]
    fn stats_census() {
        let corpus = small_corpus();
        let stats = corpus.stats();
        assert_eq!(stats.libraries, 3);
        assert_eq!(stats.union_tags, 4);
        // CCCCCCCCCC and GGGGGGGGGG never exceed count 1 anywhere.
        assert_eq!(stats.union_tags_max_freq1, 2);
        assert!((stats.freq1_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(stats.per_library[0].unique_tags, 2);
        assert_eq!(stats.per_library[0].total_tags, 6);
        assert_eq!(stats.per_library[0].freq1_tags, 1);
    }

    #[test]
    fn tissue_types_sorted_distinct() {
        let corpus = small_corpus();
        assert_eq!(
            corpus.tissue_types(),
            vec![TissueType::Brain, TissueType::Breast]
        );
    }
}
