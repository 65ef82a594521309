//! # gea-relstore — an embedded columnar relational substrate
//!
//! The GEA thesis runs on IBM DB2 7.0 through JDBC; this crate replaces
//! that stack with an in-process engine providing exactly what GEA's
//! served path needs (§3.2.4): typed relations for the browsable `save`,
//! range indexes, and the entropy-guided index selection of the
//! high-dimensional populate() operator (§3.3.2, Tables 3.1/3.2).
//!
//! * [`value`] / [`schema`] / [`table`] — typed columnar relations;
//! * [`index`] — sorted range indexes and hit-list intersection;
//! * [`entropy`] — the highest-entropy attribute-ranking heuristic;
//! * [`index_analysis`] — the Table 3.1 index-budget math (binomial model
//!   as in the thesis, plus the exact hypergeometric refinement);
//! * [`catalog`] — the read-only named-table view of a session;
//! * [`csv`] — the LOAD/EXPORT file utilities of §4.6.2.

#![warn(missing_docs)]

pub mod catalog;
pub mod csv;
pub mod entropy;
pub mod index;
pub mod index_analysis;
pub mod schema;
pub mod table;
pub mod value;

pub use catalog::{CatalogError, Database};
pub use csv::{export_csv, import_csv, CsvError};
pub use index::SortedIndex;
pub use schema::{Column, Schema, SchemaError};
pub use table::{RowId, Table, TableError};
pub use value::{DataType, Value};
