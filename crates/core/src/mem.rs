//! Approximate memory accounting for session state.
//!
//! The query server's registry evicts sessions against a configurable
//! byte budget, which needs a cheap estimate of how much heap a
//! [`GeaSession`] is holding. [`ApproxMem`] provides that estimate:
//! structural sizes (dense matrix cells, table rows, string payloads)
//! plus small per-object constants for allocator and container overhead.
//! The numbers are deliberately approximate — eviction needs relative
//! magnitudes and stable ordering, not byte-exact totals — but they are
//! dominated by the terms that actually dominate (the `values` buffer of
//! every [`ExpressionMatrix`], the per-tag counts of every raw library),
//! so a session holding a thesis-scale corpus reports tens of megabytes
//! while a freshly opened demo session reports a few.

use std::collections::BTreeMap;

use gea_sage::corpus::SageCorpus;
use gea_sage::library::{LibraryMeta, SageLibrary};
use gea_sage::tag::TagUniverse;
use gea_sage::ExpressionMatrix;

use crate::enum_table::EnumTable;
use crate::gap::GapTable;
use crate::lineage::Lineage;
use crate::session::{FascicleRecord, GeaSession, Root, SessionSource};
use crate::sumy::SumyTable;

/// Per-allocation bookkeeping charged for each owned heap object
/// (allocator header plus container node overhead).
const ALLOC_OVERHEAD: usize = 32;

/// Estimated heap footprint of a value, in bytes.
///
/// Estimates are additive over components and never zero for an owning
/// container, so a registry summing them gets a monotone signal: growing
/// a session (new ENUM/SUMY/GAP tables, mined fascicles) strictly grows
/// its reported size.
pub trait ApproxMem {
    /// Approximate number of heap bytes reachable through `self`.
    fn approx_bytes(&self) -> usize;
}

fn string_bytes(s: &str) -> usize {
    ALLOC_OVERHEAD + s.len()
}

impl ApproxMem for TagUniverse {
    fn approx_bytes(&self) -> usize {
        universe_bytes(self.len())
    }
}

impl ApproxMem for LibraryMeta {
    fn approx_bytes(&self) -> usize {
        // The enums (tissue/state/source) are inline; only the name owns heap.
        string_bytes(&self.name) + 16
    }
}

impl ApproxMem for SageLibrary {
    fn approx_bytes(&self) -> usize {
        // Two parallel vectors: a tag (u32) and a count (u32) per distinct
        // tag.
        self.meta.approx_bytes() + 2 * ALLOC_OVERHEAD + self.unique_tags() * 8
    }
}

impl ApproxMem for SageCorpus {
    fn approx_bytes(&self) -> usize {
        ALLOC_OVERHEAD
            + self
                .iter()
                .map(|(_, lib)| lib.approx_bytes())
                .sum::<usize>()
    }
}

/// A tag universe of `n_tags` tags.
fn universe_bytes(n_tags: usize) -> usize {
    // A tag code (u32) plus its id-lookup entry.
    ALLOC_OVERHEAD + n_tags * 12
}

/// A dense matrix over `n_tags` tags and these library columns, built or
/// not.
fn dense_bytes<'a>(
    n_tags: usize,
    libraries: impl IntoIterator<Item = &'a LibraryMeta, IntoIter: ExactSizeIterator>,
) -> usize {
    let libraries = libraries.into_iter();
    let cells = n_tags * libraries.len() * std::mem::size_of::<f64>();
    cells + universe_bytes(n_tags) + libraries.map(ApproxMem::approx_bytes).sum::<usize>()
}

/// What an ENUM table named `name` over `n_tags` tags and these library
/// columns costs once built: its [`ApproxMem`] figure, before it exists.
pub(crate) fn enum_table_bytes<'a>(
    name: &str,
    n_tags: usize,
    libraries: impl IntoIterator<Item = &'a LibraryMeta, IntoIter: ExactSizeIterator>,
) -> usize {
    string_bytes(name) + dense_bytes(n_tags, libraries)
}

/// What a SUMY table named `name` with `rows` rows costs once built.
pub(crate) fn sumy_table_bytes(name: &str, rows: usize) -> usize {
    // tag + tag_no + range + average + std_dev: 48 bytes a row. The
    // registry's eviction budget is compared against this figure, so
    // changing it changes which sessions spill.
    string_bytes(name) + 48 * rows
}

/// A name-keyed map of entries charged `bytes` each.
pub(crate) fn map_bytes<'a>(entries: impl Iterator<Item = (&'a String, usize)>) -> usize {
    ALLOC_OVERHEAD
        + entries
            .map(|(name, bytes)| string_bytes(name) + bytes)
            .sum::<usize>()
}

impl ApproxMem for ExpressionMatrix {
    fn approx_bytes(&self) -> usize {
        dense_bytes(self.n_tags(), self.libraries())
    }
}

impl ApproxMem for EnumTable {
    fn approx_bytes(&self) -> usize {
        enum_table_bytes(&self.name, self.n_tags(), self.libraries())
    }
}

impl ApproxMem for SumyTable {
    fn approx_bytes(&self) -> usize {
        sumy_table_bytes(&self.name, self.len())
    }
}

impl ApproxMem for GapTable {
    fn approx_bytes(&self) -> usize {
        let columns: usize = self.columns.iter().map(|c| string_bytes(c)).sum();
        let rows: usize = self
            .rows()
            .iter()
            .map(|r| 16 + r.gaps.len() * std::mem::size_of::<Option<f64>>())
            .sum();
        string_bytes(&self.name) + columns + rows
    }
}

impl ApproxMem for Lineage {
    fn approx_bytes(&self) -> usize {
        ALLOC_OVERHEAD
            + self
                .iter()
                .map(|n| {
                    string_bytes(&n.name)
                        + string_bytes(&n.operation)
                        + string_bytes(&n.comment)
                        + n.parents.len() * 4
                        + n.params
                            .iter()
                            .map(|(k, v)| string_bytes(k) + string_bytes(v))
                            .sum::<usize>()
                })
                .sum::<usize>()
    }
}

impl ApproxMem for FascicleRecord {
    fn approx_bytes(&self) -> usize {
        string_bytes(&self.name)
            + string_bytes(&self.dataset)
            + string_bytes(&self.sumy_name)
            + string_bytes(&self.backend)
            + self.members.iter().map(|m| string_bytes(m)).sum::<usize>()
            + self.compact_tags.len() * 4
            + self.purity.len()
            + self
                .params
                .iter()
                .map(|(k, v)| string_bytes(k) + string_bytes(v))
                .sum::<usize>()
    }
}

impl<T: ApproxMem> ApproxMem for BTreeMap<String, T> {
    fn approx_bytes(&self) -> usize {
        map_bytes(self.iter().map(|(k, v)| (k, v.approx_bytes())))
    }
}

impl ApproxMem for SessionSource {
    /// The corpus plus the dense root matrix, whether the source holds the
    /// matrix yet or not: a cleaned source is charged what its `SAGE`
    /// costs once built, so a read that builds it never changes the
    /// charge between the registry's re-measures, and eviction stays as
    /// conservative as when every session held it.
    fn approx_bytes(&self) -> usize {
        let base = match &self.root {
            Root::Cleaned { kept, .. } => enum_table_bytes("SAGE", kept.len(), self.libraries()),
            Root::Matrix(base) => base.approx_bytes(),
        };
        self.corpus.approx_bytes() + base
    }
}

impl ApproxMem for GeaSession {
    /// Each session is charged its whole source, shared with another
    /// session or not, so eviction stays conservative and the registry's
    /// byte figures do not move when a reload shares.
    fn approx_bytes(&self) -> usize {
        self.source().approx_bytes() + self.lineage().approx_bytes() + self.named_tables_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::GeaSession;
    use gea_sage::clean::CleaningConfig;
    use gea_sage::generate::{generate, GeneratorConfig};
    use gea_sage::TissueType;

    #[test]
    fn session_size_grows_with_derived_tables() {
        let (corpus, _) = generate(&GeneratorConfig::demo(42));
        let mut s = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
        let base = s.approx_bytes();
        // A demo session holds a dense matrix; well over 100 KiB.
        assert!(base > 100 * 1024, "implausibly small session: {base}");
        s.create_tissue_dataset("Eb", &TissueType::Brain).unwrap();
        let grown = s.approx_bytes();
        assert!(grown > base, "dataset did not grow the estimate");
        // Deleting with cascade shrinks it back below the grown size.
        s.delete("Eb", true).unwrap();
        assert!(s.approx_bytes() < grown);
    }

    #[test]
    fn a_cleaned_source_is_charged_its_root_before_building_it() {
        let (corpus, _) = generate(&GeneratorConfig::demo(42));
        let s = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
        assert!(s.source().held_base().is_none());
        let charged = s.approx_bytes();
        let built = s.corpus().approx_bytes() + s.base().approx_bytes();
        assert!(s.source().held_base().is_some());
        assert_eq!(s.source().approx_bytes(), built);
        assert_eq!(s.approx_bytes(), charged, "building SAGE moved the charge");
    }

    #[test]
    fn component_estimates_are_nonzero() {
        let (corpus, _) = generate(&GeneratorConfig::demo(7));
        assert!(corpus.approx_bytes() > 0);
        let s = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
        assert!(s.base().approx_bytes() > s.base().matrix.universe().approx_bytes());
        assert!(s.lineage().approx_bytes() > 0);
    }
}
