//! Named-table catalog — the session's "database".
//!
//! GEA stores every intermediate result (ENUM/SUMY/GAP tables, metadata
//! relations) as a named table in the underlying DBMS. Here the session
//! keeps typed tables and builds this catalog as a read-only view of their
//! relational form (for `save` and for browsing); the GUI's management
//! operations — create with the Figure 4.28 redundancy check, and the
//! lineage feature's two deletion modes (§4.4.2) — live on the session.

use std::collections::BTreeMap;
use std::fmt;

use crate::table::Table;

/// Catalog errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// The named table does not exist.
    NotFound(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::NotFound(name) => write!(f, "no such table {name:?}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// An in-memory database of named tables.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Look up a table.
    pub fn get(&self, name: &str) -> Result<&Table, CatalogError> {
        self.tables
            .get(name)
            .ok_or_else(|| CatalogError::NotFound(name.to_string()))
    }

    /// Whether a table exists.
    pub fn exists(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// All table names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the database has no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

/// A database folded from `(name, table)` pairs; a repeated name keeps the
/// last table.
impl FromIterator<(String, Table)> for Database {
    fn from_iter<I: IntoIterator<Item = (String, Table)>>(pairs: I) -> Database {
        Database {
            tables: pairs.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn table(rows: i64) -> Table {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
        let mut t = Table::new(schema);
        for r in 0..rows {
            t.push_row(vec![r.into()]).unwrap();
        }
        t
    }

    #[test]
    fn collect_and_get() {
        let db: Database = [("brainfile".to_string(), table(1))].into_iter().collect();
        assert!(db.exists("brainfile"));
        assert_eq!(db.get("brainfile").unwrap().n_rows(), 1);
        assert!(matches!(db.get("nope"), Err(CatalogError::NotFound(_))));
    }

    #[test]
    fn a_repeated_name_keeps_the_last_table() {
        let db: Database = [("t".to_string(), table(1)), ("t".to_string(), table(2))]
            .into_iter()
            .collect();
        assert_eq!(db.len(), 1);
        assert_eq!(db.get("t").unwrap().n_rows(), 2);
    }

    #[test]
    fn names_are_sorted() {
        let db: Database = [("b".to_string(), table(1)), ("a".to_string(), table(1))]
            .into_iter()
            .collect();
        assert_eq!(db.names(), vec!["a", "b"]);
        assert!(!db.is_empty());
        assert!(Database::new().is_empty());
    }
}
