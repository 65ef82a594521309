//! # GEA — a toolkit for gene expression analysis
//!
//! A Rust reproduction of *GEA: A Toolkit for Gene Expression Analysis*
//! (Phan, UBC 2001; demonstrated at SIGMOD 2002). GEA models multi-step
//! cluster analysis of SAGE gene-expression data with a two-world algebraic
//! framework: ENUM tables (explicit library enumerations) in the
//! extensional world, SUMY and GAP tables (cluster definitions and their
//! differences) in the intensional world, and operators — `mine`,
//! `populate`, `aggregate`, `diff`, the minus/intersect/union set
//! operations, Allen-interval range selection — moving results between
//! them.
//!
//! This facade re-exports the nine crates:
//!
//! * [`sage`] — the SAGE substrate: tags, libraries, cleaning,
//!   normalization, the synthetic corpus generator, and the annotation
//!   catalog (EADB);
//! * [`relstore`] — the embedded relational engine with entropy-guided
//!   range indexing;
//! * [`cluster`] — the Fascicles algorithm and baseline clusterers;
//! * [`core`] — the GEA algebra, session, lineage, and the library and
//!   tag-frequency searches behind the `library` and `tagfreq` verbs;
//! * [`mine`] — the pluggable mining-backend subsystem: the
//!   [`MineBackend`](gea_mine::MineBackend) trait, its typed parameter
//!   schemas, and the `fascicles`/`isa`/`simplex` registry behind GQL's
//!   `mine … with <algo>`;
//! * [`exec`] — the sharded parallel execution engine (byte-identical
//!   fan-out of `mine`/`populate`/`aggregate` over a scoped thread pool);
//! * [`check`] — the world-typed static analyzer for GQL scripts (and the
//!   home of the GQL grammar itself), behind `gea-cli --check` and the
//!   server's `check` verb;
//! * [`opt`] — equivalence-tested algebraic rewrites for single commands:
//!   self-compare fast paths audited for wire-level byte identity
//!   (ruler-style, by [`audit`]) and canonical ResponseCache keys;
//! * [`server`] — the GQL grammar and executor shared by the [`cli`]
//!   interpreter, plus the concurrent TCP query server (`gea-server`) and
//!   its client library (`gea-client`).
//!
//! ## Quickstart
//!
//! ```
//! use gea::core::session::GeaSession;
//! use gea::sage::clean::CleaningConfig;
//! use gea::sage::generate::{generate, GeneratorConfig};
//! use gea::sage::TissueType;
//!
//! // Generate a corpus (stand-in for the 2001 NCBI SAGE collection),
//! // clean it, and open an analysis session.
//! let (corpus, _truth) = generate(&GeneratorConfig::demo(42));
//! let mut session = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
//!
//! // Step 1 of Case 1: collect the brain libraries.
//! session.create_tissue_dataset("Ebrain", &TissueType::Brain).unwrap();
//! let brain = session.enum_table("Ebrain").unwrap();
//! assert!(brain.n_libraries() > 0);
//! ```
//!
//! See `examples/` for the full case studies and `gea-bench`'s `repro`
//! binary for the reproduction of every table and figure in the thesis's
//! evaluation.

pub mod audit;
pub mod cli;

pub use gea_check as check;
pub use gea_cluster as cluster;
pub use gea_core as core;
pub use gea_exec as exec;
pub use gea_mine as mine;
pub use gea_opt as opt;
pub use gea_relstore as relstore;
pub use gea_sage as sage;
pub use gea_server as server;
