//! SAGE libraries and their descriptive metadata.
//!
//! A SAGE *library* is the product of one expression-profiling experiment: a
//! list of tags with their observed counts (thesis §2.2.3). Each library
//! carries auxiliary metadata — the tissue it was derived from, whether the
//! tissue was cancerous or normal, and whether it came from bulk tissue or a
//! cell line (thesis §4.4.4.2, "Search SAGE Library Information").

use std::fmt;

use crate::tag::Tag;

/// Identifier of a library within a corpus. The thesis numbers its 100
/// libraries 1..=100; we use a dense zero-based index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LibraryId(pub u32);

impl LibraryId {
    /// The dense index as a `usize`, for direct vector addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LibraryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The system-defined tissue types of the thesis's SAGE data set (§2.2.3:
/// "brain, breast, prostate, ovary, colon, pancreas, vascular, skin, and
/// kidney"), plus an escape hatch for user-defined tissue groupings
/// (§4.3.1.2 step 1).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TissueType {
    /// Brain tissue.
    Brain,
    /// Breast tissue.
    Breast,
    /// Prostate tissue.
    Prostate,
    /// Ovary tissue.
    Ovary,
    /// Colon tissue.
    Colon,
    /// Pancreas tissue.
    Pancreas,
    /// Vascular tissue.
    Vascular,
    /// Skin tissue.
    Skin,
    /// Kidney tissue.
    Kidney,
    /// A user-defined tissue type, e.g. a combination of brain and breast
    /// libraries (Figure 4.15).
    Custom(String),
}

impl TissueType {
    /// The nine system-defined tissue types, in the order the thesis lists
    /// them.
    pub const SYSTEM: [TissueType; 9] = [
        TissueType::Brain,
        TissueType::Breast,
        TissueType::Prostate,
        TissueType::Ovary,
        TissueType::Colon,
        TissueType::Pancreas,
        TissueType::Vascular,
        TissueType::Skin,
        TissueType::Kidney,
    ];

    /// Lower-case name, matching the thesis's GUI labels.
    pub fn name(&self) -> &str {
        match self {
            TissueType::Brain => "brain",
            TissueType::Breast => "breast",
            TissueType::Prostate => "prostate",
            TissueType::Ovary => "ovary",
            TissueType::Colon => "colon",
            TissueType::Pancreas => "pancreas",
            TissueType::Vascular => "vascular",
            TissueType::Skin => "skin",
            TissueType::Kidney => "kidney",
            TissueType::Custom(name) => name,
        }
    }

    /// Parse a tissue name; unknown names become [`TissueType::Custom`].
    pub fn parse(name: &str) -> TissueType {
        for t in TissueType::SYSTEM {
            if t.name() == name {
                return t;
            }
        }
        TissueType::Custom(name.to_string())
    }
}

impl fmt::Display for TissueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether the sampled tissue was cancerous or normal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NeoplasticState {
    /// The sample came from a tumour.
    Cancerous,
    /// The sample came from healthy tissue.
    Normal,
}

impl fmt::Display for NeoplasticState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NeoplasticState::Cancerous => "cancerous",
            NeoplasticState::Normal => "normal",
        })
    }
}

/// Whether the library was made from bulk tissue (cells taken directly from
/// a body) or a cell line (cells grown indefinitely in vitro) — thesis
/// §2.2.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TissueSource {
    /// Cells taken directly out of tissue in a person's body.
    BulkTissue,
    /// Cells grown indefinitely in vitro.
    CellLine,
}

impl fmt::Display for TissueSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TissueSource::BulkTissue => "bulk tissue",
            TissueSource::CellLine => "cell line",
        })
    }
}

/// One of the four fascicle purity properties of Figure 4.7/4.8: a fascicle
/// is *pure* with respect to a property when all its libraries share it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LibraryProperty {
    /// All libraries cancerous.
    Cancer,
    /// All libraries normal.
    Normal,
    /// All libraries from bulk tissue.
    BulkTissue,
    /// All libraries from cell lines.
    CellLine,
}

impl LibraryProperty {
    /// All four properties, in the order the thesis's purity-check GUI
    /// presents them.
    pub const ALL: [LibraryProperty; 4] = [
        LibraryProperty::Cancer,
        LibraryProperty::Normal,
        LibraryProperty::BulkTissue,
        LibraryProperty::CellLine,
    ];
}

impl fmt::Display for LibraryProperty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LibraryProperty::Cancer => "cancer",
            LibraryProperty::Normal => "normal",
            LibraryProperty::BulkTissue => "bulk tissue",
            LibraryProperty::CellLine => "cell line",
        })
    }
}

/// Descriptive metadata for a library (thesis Figure 4.23's search result).
#[derive(Debug, Clone, PartialEq)]
pub struct LibraryMeta {
    /// Human-readable library name, e.g. `SAGE_Duke_H1020`.
    pub name: String,
    /// Tissue the sample came from.
    pub tissue: TissueType,
    /// Cancerous or normal.
    pub state: NeoplasticState,
    /// Bulk tissue or cell line.
    pub source: TissueSource,
}

impl LibraryMeta {
    /// Whether the library satisfies one of the four purity properties.
    pub fn has_property(&self, p: LibraryProperty) -> bool {
        match p {
            LibraryProperty::Cancer => self.state == NeoplasticState::Cancerous,
            LibraryProperty::Normal => self.state == NeoplasticState::Normal,
            LibraryProperty::BulkTissue => self.source == TissueSource::BulkTissue,
            LibraryProperty::CellLine => self.source == TissueSource::CellLine,
        }
    }
}

/// The counts of one tag summed past `u32::MAX`
/// ([`SageLibrary::try_from_counts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountOverflow(pub Tag);

impl fmt::Display for CountOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "counts of {} sum past {}", self.0, u32::MAX)
    }
}

impl std::error::Error for CountOverflow {}

/// A raw SAGE library: tag → observed count.
///
/// Counts are kept sparse and sorted by tag, as two parallel vectors; a
/// library only records the tags actually sequenced in its sample (between
/// ~1,000 and ~32,000 distinct tags in the thesis's data).
#[derive(Debug, Clone, PartialEq)]
pub struct SageLibrary {
    /// Descriptive metadata.
    pub meta: LibraryMeta,
    /// Distinct tags, ascending.
    tags: Vec<Tag>,
    /// `counts[i]` is the observed count of `tags[i]`; never 0.
    counts: Vec<u32>,
}

impl SageLibrary {
    /// Create a library from `(tag, count)` pairs. Duplicate tags accumulate
    /// (saturating at `u32::MAX`); zero counts are dropped.
    pub fn from_counts<I>(meta: LibraryMeta, pairs: I) -> SageLibrary
    where
        I: IntoIterator<Item = (Tag, u32)>,
    {
        SageLibrary::fold_counts(meta, pairs).0
    }

    /// [`SageLibrary::from_counts`] for counts that arrive from outside the
    /// program: a tag whose counts sum past `u32::MAX` is an error, not a
    /// saturated entry.
    pub fn try_from_counts<I>(meta: LibraryMeta, pairs: I) -> Result<SageLibrary, CountOverflow>
    where
        I: IntoIterator<Item = (Tag, u32)>,
    {
        match SageLibrary::fold_counts(meta, pairs) {
            (lib, None) => Ok(lib),
            (_, Some(tag)) => Err(CountOverflow(tag)),
        }
    }

    /// The one construction path: collect, sort by tag, sum each tag's run
    /// in place, and split the sorted pairs into the two vectors. Returns
    /// the first tag whose sum saturated, if any.
    fn fold_counts<I>(meta: LibraryMeta, pairs: I) -> (SageLibrary, Option<Tag>)
    where
        I: IntoIterator<Item = (Tag, u32)>,
    {
        let mut sorted: Vec<(Tag, u32)> = pairs.into_iter().filter(|&(_, c)| c > 0).collect();
        sorted.sort_by_key(|&(tag, _)| tag);
        let mut overflowed = None;
        sorted.dedup_by(|next, kept| {
            let same_tag = next.0 == kept.0;
            if same_tag {
                kept.1 = kept.1.checked_add(next.1).unwrap_or_else(|| {
                    overflowed.get_or_insert(kept.0);
                    u32::MAX
                });
            }
            same_tag
        });
        let (tags, counts) = sorted.into_iter().unzip();
        (SageLibrary { meta, tags, counts }, overflowed)
    }

    /// Observed count for `tag` (0 when absent).
    pub fn count(&self, tag: Tag) -> u32 {
        self.tags.binary_search(&tag).map_or(0, |i| self.counts[i])
    }

    /// Number of *distinct* tags detected — the thesis's "unique number of
    /// tags".
    pub fn unique_tags(&self) -> usize {
        self.tags.len()
    }

    /// Sum of all count values — the thesis's "total number of tags".
    pub fn total_tags(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }

    /// Iterate `(tag, count)` pairs in tag order.
    pub fn iter(&self) -> impl Iterator<Item = (Tag, u32)> + '_ {
        self.tags.iter().copied().zip(self.counts.iter().copied())
    }

    /// The distinct tags, ascending, and their counts, aligned.
    pub(crate) fn entries(&self) -> (&[Tag], &[u32]) {
        (&self.tags, &self.counts)
    }

    /// Iterate just the tags, in tag order.
    pub fn tags(&self) -> impl Iterator<Item = Tag> + '_ {
        self.tags.iter().copied()
    }

    /// Number of distinct tags whose observed count equals `freq`. The
    /// cleaning analysis of §4.2 is driven by the frequency-1 population.
    pub fn tags_with_frequency(&self, freq: u32) -> usize {
        self.counts.iter().filter(|&&c| c == freq).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(s: &str) -> Tag {
        s.parse().unwrap()
    }

    fn meta() -> LibraryMeta {
        LibraryMeta {
            name: "SAGE_test".to_string(),
            tissue: TissueType::Brain,
            state: NeoplasticState::Cancerous,
            source: TissueSource::BulkTissue,
        }
    }

    #[test]
    fn counts_accumulate_and_zero_is_dropped() {
        let lib = SageLibrary::from_counts(
            meta(),
            [
                (tag("AAAAAAAAAA"), 3),
                (tag("CCCCCCCCCC"), 0),
                (tag("AAAAAAAAAA"), 2),
            ],
        );
        assert_eq!(lib.count(tag("AAAAAAAAAA")), 5);
        assert_eq!(lib.count(tag("CCCCCCCCCC")), 0);
        assert_eq!(lib.unique_tags(), 1);
        assert_eq!(lib.total_tags(), 5);
    }

    #[test]
    fn counts_never_wrap() {
        let a = tag("AAAAAAAAAA");
        let c = tag("CCCCCCCCCC");
        let pairs = [(c, 7), (a, u32::MAX - 1), (a, 1), (a, 1)];
        // In-memory construction saturates ...
        let lib = SageLibrary::from_counts(meta(), pairs);
        assert_eq!(lib.count(a), u32::MAX);
        assert_eq!(lib.count(c), 7);
        let lib = SageLibrary::from_counts(meta(), [(a, u32::MAX), (a, 5)]);
        assert_eq!(lib.count(a), u32::MAX);
        // ... and the checked form names the tag instead.
        assert_eq!(
            SageLibrary::try_from_counts(meta(), pairs),
            Err(CountOverflow(a))
        );
        // A sum of exactly u32::MAX is not an overflow.
        let lib = SageLibrary::try_from_counts(meta(), [(a, u32::MAX - 1), (a, 1)]).unwrap();
        assert_eq!(lib.count(a), u32::MAX);
    }

    #[test]
    fn totals_match_thesis_definitions() {
        let lib = SageLibrary::from_counts(
            meta(),
            [
                (tag("AAAAAAAAAA"), 1843),
                (tag("AAAAAAAAAC"), 3),
                (tag("AAAAAAAAAT"), 10),
            ],
        );
        // "The number of unique tags ... is the number of different tags
        // detected"; "the total number of tags is the sum of all the count
        // values" (§2.2.3).
        assert_eq!(lib.unique_tags(), 3);
        assert_eq!(lib.total_tags(), 1856);
    }

    #[test]
    fn frequency_census() {
        let lib = SageLibrary::from_counts(
            meta(),
            [
                (tag("AAAAAAAAAA"), 1),
                (tag("AAAAAAAAAC"), 1),
                (tag("AAAAAAAAAG"), 7),
            ],
        );
        assert_eq!(lib.tags_with_frequency(1), 2);
        assert_eq!(lib.tags_with_frequency(7), 1);
        assert_eq!(lib.tags_with_frequency(2), 0);
    }

    #[test]
    fn purity_properties() {
        let m = meta();
        assert!(m.has_property(LibraryProperty::Cancer));
        assert!(!m.has_property(LibraryProperty::Normal));
        assert!(m.has_property(LibraryProperty::BulkTissue));
        assert!(!m.has_property(LibraryProperty::CellLine));
    }

    #[test]
    fn tissue_type_parsing() {
        assert_eq!(TissueType::parse("brain"), TissueType::Brain);
        assert_eq!(
            TissueType::parse("newBrain"),
            TissueType::Custom("newBrain".to_string())
        );
        for t in TissueType::SYSTEM {
            assert_eq!(TissueType::parse(t.name()), t);
        }
    }
}
