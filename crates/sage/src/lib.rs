//! # gea-sage — the SAGE data substrate for GEA
//!
//! Serial Analysis of Gene Expression (SAGE) quantifies cellular gene
//! expression as counts of 10-bp *tags*, each the transcription product of
//! at most one gene. This crate provides everything the GEA toolkit needs
//! below the analysis layer:
//!
//! * [`tag`] — the tag codec, dense tag ids and sorted tag universes;
//! * [`library`] — SAGE libraries with tissue / neoplastic-state /
//!   tissue-source metadata;
//! * [`corpus`] — collections of raw libraries and their descriptive
//!   statistics;
//! * [`mod@clean`] — the §4.2 cleaning pipeline (error removal + normalization
//!   to 300,000 tags per library);
//! * [`matrix`] — the cleaned expression matrix in the thesis's rotated
//!   (tag-major) physical layout;
//! * [`mod@generate`] — a deterministic synthetic corpus generator standing in
//!   for the 2001 NCBI CGAP SAGE collection, with planted ground truth;
//! * [`annotation`] — the Expression Analysis Database (UNIGENE /
//!   SWISSPROT / PFAM / KEGG / GENBANK / OMIM / PUBMED join queries);
//! * [`microarray`] — microarray samples and their conversion to the
//!   same expression matrix (the §2.4 generality claim);
//! * [`codec`] — the one little-endian byte codec every binary format
//!   uses, and FNV-1a;
//! * [`io`] — the thesis's text and binary on-disk formats.

#![warn(missing_docs)]

pub mod annotation;
pub mod clean;
pub mod codec;
pub mod corpus;
pub mod generate;
pub mod io;
pub mod library;
pub mod matrix;
pub mod microarray;
pub mod tag;

pub use clean::{clean, CleaningConfig, CleaningReport};
pub use corpus::SageCorpus;
pub use generate::{generate, GeneratorConfig, GroundTruth};
pub use library::{
    LibraryId, LibraryMeta, LibraryProperty, NeoplasticState, SageLibrary, TissueSource, TissueType,
};
pub use matrix::ExpressionMatrix;
pub use tag::{Tag, TagId, TagUniverse};
