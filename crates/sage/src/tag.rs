//! SAGE tag representation.
//!
//! A SAGE *tag* is a nucleotide sequence of exactly 10 base pairs drawn from
//! the alphabet `{A, C, G, T}` (thesis §2.2.3). A tag identifies the
//! transcription product of at most one gene. With 4 bases over 10
//! positions there are 4^10 = 1,048,576 possible tags, so a tag packs
//! losslessly into 20 bits; we store it in a `u32`.
//!
//! The packed form doubles as a total order that matches lexicographic
//! order on the string form (`AAAAAAAAAA < AAAAAAAAAC < ... < TTTTTTTTTT`),
//! which the thesis relies on for *tag range* searches such as
//! `AAAAAAAAAA-AAAAAAAACT` (Figure 4.25).

use std::fmt;
use std::str::FromStr;

/// Number of base pairs in a SAGE tag.
pub const TAG_LEN: usize = 10;

/// Number of distinct tags (4^10).
pub const TAG_SPACE: u32 = 1 << (2 * TAG_LEN as u32);

/// One nucleotide base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Base {
    /// Adenine.
    A = 0,
    /// Cytosine.
    C = 1,
    /// Guanine.
    G = 2,
    /// Thymine.
    T = 3,
}

impl Base {
    /// All four bases in lexicographic order.
    pub const ALL: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

    /// Parse a single character (case-insensitive).
    pub fn from_char(c: char) -> Result<Base, TagParseError> {
        match c.to_ascii_uppercase() {
            'A' => Ok(Base::A),
            'C' => Ok(Base::C),
            'G' => Ok(Base::G),
            'T' => Ok(Base::T),
            other => Err(TagParseError::InvalidBase(other)),
        }
    }

    /// Character form of the base.
    pub fn to_char(self) -> char {
        match self {
            Base::A => 'A',
            Base::C => 'C',
            Base::G => 'G',
            Base::T => 'T',
        }
    }

    /// Decode from a 2-bit code.
    fn from_code(code: u32) -> Base {
        match code & 0b11 {
            0 => Base::A,
            1 => Base::C,
            2 => Base::G,
            _ => Base::T,
        }
    }
}

/// Errors produced when parsing a tag from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TagParseError {
    /// The input was not exactly [`TAG_LEN`] characters.
    WrongLength(usize),
    /// The input contained a character outside `{A, C, G, T}`.
    InvalidBase(char),
}

impl fmt::Display for TagParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TagParseError::WrongLength(n) => {
                write!(f, "SAGE tag must have exactly {TAG_LEN} bases, got {n}")
            }
            TagParseError::InvalidBase(c) => {
                write!(f, "invalid nucleotide {c:?}; expected one of A, C, G, T")
            }
        }
    }
}

impl std::error::Error for TagParseError {}

/// A 10-bp SAGE tag, packed 2 bits per base into the low 20 bits of a `u32`.
///
/// The most significant base pair occupies the highest bits so the numeric
/// order of the packed value equals the lexicographic order of the string
/// form.
///
/// ```
/// use gea_sage::tag::Tag;
/// let t: Tag = "AAAAAGAAAA".parse().unwrap();
/// assert_eq!(t.to_string(), "AAAAAGAAAA");
/// assert!(t > "AAAAACTCCC".parse().unwrap());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tag(u32);

impl Tag {
    /// The lexicographically smallest tag, `AAAAAAAAAA`.
    pub const MIN: Tag = Tag(0);

    /// The lexicographically largest tag, `TTTTTTTTTT`.
    pub const MAX: Tag = Tag(TAG_SPACE - 1);

    /// Construct from a packed code. Returns `None` when the code is outside
    /// the 20-bit tag space.
    pub fn from_code(code: u32) -> Option<Tag> {
        (code < TAG_SPACE).then_some(Tag(code))
    }

    /// The packed 20-bit code (also the tag's rank in lexicographic order).
    pub fn code(self) -> u32 {
        self.0
    }

    /// The ten bases, most significant first.
    pub fn bases(self) -> [Base; TAG_LEN] {
        let mut out = [Base::A; TAG_LEN];
        for (i, slot) in out.iter_mut().enumerate() {
            let shift = 2 * (TAG_LEN - 1 - i) as u32;
            *slot = Base::from_code(self.0 >> shift);
        }
        out
    }
}

impl FromStr for Tag {
    type Err = TagParseError;

    fn from_str(s: &str) -> Result<Tag, TagParseError> {
        let len = s.chars().count();
        if len != TAG_LEN {
            return Err(TagParseError::WrongLength(len));
        }
        let mut code = 0u32;
        for c in s.chars() {
            code = (code << 2) | Base::from_char(c)? as u32;
        }
        Ok(Tag(code))
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.bases() {
            write!(f, "{}", b.to_char())?;
        }
        Ok(())
    }
}

/// Dense identifier of a tag *within a corpus*: its index in the corpus's
/// sorted tag universe. The thesis displays this as the "tag number" next to
/// the tag name, e.g. `AAAAAGAAAA_(1580)`.
///
/// `TagId` is only meaningful relative to the [`TagUniverse`] that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TagId(pub u32);

impl TagId {
    /// The dense index as a `usize`, for direct vector addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The sorted set of distinct tags observed in a corpus, assigning each a
/// dense [`TagId`].
///
/// The thesis works with ~60,000 distinct tags after cleaning (out of the
/// 4^10 possible); a sorted dense universe keeps ENUM/SUMY tables compact
/// and makes tag-range predicates contiguous id ranges.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TagUniverse {
    sorted: Vec<Tag>,
}

impl TagUniverse {
    /// Build a universe from any iterator of tags; duplicates are collapsed
    /// and the result is sorted so ids follow lexicographic tag order.
    pub fn from_tags<I: IntoIterator<Item = Tag>>(tags: I) -> TagUniverse {
        let mut sorted: Vec<Tag> = tags.into_iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        TagUniverse { sorted }
    }

    /// Number of distinct tags in the universe.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Resolve a tag to its dense id, if present.
    pub fn id_of(&self, tag: Tag) -> Option<TagId> {
        self.sorted
            .binary_search(&tag)
            .ok()
            .map(|i| TagId(i as u32))
    }

    /// The tag behind a dense id. Panics if the id is out of range, which
    /// indicates the id came from a different universe.
    pub fn tag_of(&self, id: TagId) -> Tag {
        self.sorted[id.index()]
    }

    /// Iterate `(id, tag)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TagId, Tag)> + '_ {
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, t)| (TagId(i as u32), *t))
    }

    /// Restrict the universe to the tags satisfying `keep`, producing the new
    /// universe and a mapping `old id -> new id` for surviving tags.
    pub fn filter(
        &self,
        mut keep: impl FnMut(TagId, Tag) -> bool,
    ) -> (TagUniverse, Vec<Option<TagId>>) {
        let mut sorted = Vec::new();
        let mut remap = vec![None; self.sorted.len()];
        for (id, tag) in self.iter() {
            if keep(id, tag) {
                remap[id.index()] = Some(TagId(sorted.len() as u32));
                sorted.push(tag);
            }
        }
        (TagUniverse { sorted }, remap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple_tags() {
        for s in [
            "AAAAAAAAAA",
            "TTTTTTTTTT",
            "ACGTACGTAC",
            "GAGGGAGTTT",
            "CCTTGAGTAC",
        ] {
            let t: Tag = s.parse().unwrap();
            assert_eq!(t.to_string(), s);
        }
    }

    #[test]
    fn packed_order_matches_lexicographic_order() {
        let a: Tag = "AAAAAAAAAC".parse().unwrap();
        let b: Tag = "AAAAAAAAAT".parse().unwrap();
        let c: Tag = "AAAAAACTCC".parse().unwrap();
        let d: Tag = "AAAAAGAAAA".parse().unwrap();
        assert!(a < b && b < c && c < d);
        assert_eq!(Tag::MIN.to_string(), "AAAAAAAAAA");
        assert_eq!(Tag::MAX.to_string(), "TTTTTTTTTT");
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert_eq!("AAAA".parse::<Tag>(), Err(TagParseError::WrongLength(4)));
        assert_eq!(
            "AAAAAAAAAX".parse::<Tag>(),
            Err(TagParseError::InvalidBase('X'))
        );
        assert_eq!(
            "AAAAAAAAAAA".parse::<Tag>(),
            Err(TagParseError::WrongLength(11))
        );
    }

    #[test]
    fn parse_is_case_insensitive() {
        let lower: Tag = "acgtacgtac".parse().unwrap();
        let upper: Tag = "ACGTACGTAC".parse().unwrap();
        assert_eq!(lower, upper);
    }

    #[test]
    fn universe_assigns_sorted_dense_ids() {
        let tags: Vec<Tag> = ["GGGGGGGGGG", "AAAAAAAAAA", "CCCCCCCCCC", "GGGGGGGGGG"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let u = TagUniverse::from_tags(tags);
        assert_eq!(u.len(), 3);
        assert_eq!(u.tag_of(TagId(0)).to_string(), "AAAAAAAAAA");
        assert_eq!(u.tag_of(TagId(2)).to_string(), "GGGGGGGGGG");
        assert_eq!(u.id_of("CCCCCCCCCC".parse().unwrap()), Some(TagId(1)));
        assert_eq!(u.id_of("TTTTTTTTTT".parse().unwrap()), None);
    }

    #[test]
    fn universe_filter_remaps_ids() {
        let tags: Vec<Tag> = ["AAAAAAAAAA", "CCCCCCCCCC", "GGGGGGGGGG"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let u = TagUniverse::from_tags(tags);
        let (filtered, remap) = u.filter(|_, t| t.to_string() != "CCCCCCCCCC");
        assert_eq!(filtered.len(), 2);
        assert_eq!(remap[0], Some(TagId(0)));
        assert_eq!(remap[1], None);
        assert_eq!(remap[2], Some(TagId(1)));
    }
}
