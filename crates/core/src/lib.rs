//! # gea-core — the Gene Expression Analyzer
//!
//! GEA models multi-step cluster analysis of gene expression data with a
//! two-world algebraic framework (a specialization of the 3W model of
//! Johnson, Lakshmanan & Ng):
//!
//! * the **extensional world** — [`enum_table::EnumTable`]: explicit
//!   enumerations of libraries × tags, manipulated by selecting libraries
//!   and tags (their relational form, via `gea-relstore`, is what `save`
//!   exports);
//! * the **intensional world** — [`sumy::SumyTable`] (cluster definitions:
//!   per-tag range / mean / std-dev) and [`gap::GapTable`] (per-tag
//!   differences between two SUMY tables).
//!
//! Operators move between and within the worlds: [`mine::mine`] (fascicle
//! production), [`mod@populate`] (definition → enumeration, with
//! entropy-indexed evaluation), [`sumy::aggregate`] (enumeration →
//! definition), [`gap::diff`], the [`setops`] (minus/intersect/union at the
//! tag level), selection with Allen [`interval`] relations, and
//! [`topgap`] extraction. [`compare`] implements the thirteen GAP-analysis
//! queries; [`lineage`] tracks the operation history; [`search`] answers
//! the library-information and tag-frequency searches;
//! [`session::GeaSession`] strings it all together as the thesis's macro
//! operations.
//!
//! ```
//! use gea_core::session::GeaSession;
//! use gea_sage::clean::CleaningConfig;
//! use gea_sage::generate::{generate, GeneratorConfig};
//! use gea_sage::TissueType;
//!
//! let (corpus, _truth) = generate(&GeneratorConfig::demo(7));
//! let mut session = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
//! session.create_tissue_dataset("Ebrain", &TissueType::Brain).unwrap();
//! assert!(session.enum_table("Ebrain").unwrap().n_libraries() > 0);
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod compare;
pub mod enum_table;
pub mod gap;
pub mod interval;
pub mod lineage;
pub mod mem;
pub mod mine;
pub mod persist;
pub mod populate;
pub mod relational;
pub mod search;
pub mod session;
pub mod setops;
pub mod sumy;
pub mod topgap;
pub mod xprofiler;

pub use compare::{compare_gaps, compare_gaps_self, CompareOp, CompareQuery};
pub use enum_table::EnumTable;
pub use gap::{diff, GapTable};
pub use interval::{AllenRelation, Interval};
pub use lineage::{Lineage, NodeKind};
pub use mem::ApproxMem;
pub use mine::{materialize_cluster, mine, mine_groups, MinedCluster, Miner};
pub use persist::{
    corpus_fingerprint, load_session, load_session_sharing, load_session_verified, remove_spill,
    save_results, save_session, session_from_snapshot_bytes, snapshot_to_bytes, spill_session,
    PersistError, SpillFile,
};
pub use populate::{populate, populate_columnar, populate_indexed, populate_scan, PopulateIndex};
pub use session::{
    ControlGroupInputs, ControlGroupSelection, ControlGroups, ExecConfig, ExecEvent, GeaError,
    GeaSession, Selection, SessionSnapshot, SessionSource,
};
pub use sumy::{aggregate, SumyTable};
pub use topgap::{top_gaps, TopGapOrder};
pub use xprofiler::{compare_pools, XProfilerResult, XProfilerRow};
