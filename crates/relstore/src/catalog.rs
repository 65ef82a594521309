//! Named-table catalog — the session's "database".
//!
//! GEA stores every intermediate result (ENUM/SUMY/GAP tables, metadata
//! relations) as a named table in the underlying DBMS. The catalog supports
//! the management operations of the thesis's GUI: create (with the
//! Figure 4.28 redundancy check on name collisions), view, replace, and the
//! two deletion modes of the lineage feature — drop contents only or drop
//! entirely (§4.4.2).

use std::collections::BTreeMap;
use std::fmt;

use crate::table::Table;

/// Catalog errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// Create would overwrite an existing table (thesis Figure 4.28: "A
    /// table already exists ... Do you want to replace the existing
    /// table?").
    AlreadyExists(String),
    /// The named table does not exist.
    NotFound(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::AlreadyExists(name) => {
                write!(f, "table {name:?} already exists")
            }
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

    /// Register a new table; fails if the name is taken (redundancy check).
    pub fn create(&mut self, name: &str, table: Table) -> Result<(), CatalogError> {
        if self.tables.contains_key(name) {
            return Err(CatalogError::AlreadyExists(name.to_string()));
        }
        self.tables.insert(name.to_string(), table);
        Ok(())
    }

    /// Register or overwrite — the "Yes, replace" path of Figure 4.28.
    pub fn create_or_replace(&mut self, name: &str, table: Table) {
        self.tables.insert(name.to_string(), table);
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

    /// Drop a table entirely, returning it.
    pub fn drop_table(&mut self, name: &str) -> Result<Table, CatalogError> {
        self.tables
            .remove(name)
            .ok_or_else(|| CatalogError::NotFound(name.to_string()))
    }

    /// Drop a table's *contents* but keep its schema registered — the
    /// space-saving deletion mode of the lineage feature (§4.4.2), which
    /// lets the table be regenerated later from its recorded metadata.
    pub fn truncate(&mut self, name: &str) -> Result<(), CatalogError> {
        let table = self
            .tables
            .get_mut(name)
            .ok_or_else(|| CatalogError::NotFound(name.to_string()))?;
        *table = Table::new(table.schema().clone());
        Ok(())
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

    /// Remove everything — the thesis's "initialize database" operation
    /// (Appendix III.2.1).
    pub fn initialize(&mut self) {
        self.tables.clear();
    }
}

/// A database folded from `(name, table)` pairs; a repeated name keeps the
/// last table, as [`Database::create_or_replace`] would.
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

    fn table() -> Table {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
        let mut t = Table::new(schema);
        t.push_row(vec![1.into()]).unwrap();
        t
    }

    #[test]
    fn create_and_get() {
        let mut db = Database::new();
        db.create("brainfile", table()).unwrap();
        assert!(db.exists("brainfile"));
        assert_eq!(db.get("brainfile").unwrap().n_rows(), 1);
        assert!(matches!(db.get("nope"), Err(CatalogError::NotFound(_))));
    }

    #[test]
    fn redundancy_check_blocks_overwrite() {
        let mut db = Database::new();
        db.create("t", table()).unwrap();
        assert!(matches!(
            db.create("t", table()),
            Err(CatalogError::AlreadyExists(_))
        ));
        db.create_or_replace("t", table()); // explicit replace allowed
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn truncate_keeps_schema() {
        let mut db = Database::new();
        db.create("t", table()).unwrap();
        db.truncate("t").unwrap();
        let t = db.get("t").unwrap();
        assert_eq!(t.n_rows(), 0);
        assert_eq!(t.n_cols(), 1);
    }

    #[test]
    fn drop_and_initialize() {
        let mut db = Database::new();
        db.create("a", table()).unwrap();
        db.create("b", table()).unwrap();
        assert_eq!(db.names(), vec!["a", "b"]);
        db.drop_table("a").unwrap();
        assert_eq!(db.len(), 1);
        db.initialize();
        assert!(db.is_empty());
    }
}
