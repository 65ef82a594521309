//! Relation schemas.

use std::fmt;

use crate::value::DataType;

/// One column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name; unique within a schema.
    pub name: String,
    /// Declared type. NULLs are admitted in every column.
    pub dtype: DataType,
}

impl Column {
    /// Shorthand constructor.
    pub fn new(name: &str, dtype: DataType) -> Column {
        Column {
            name: name.to_string(),
            dtype,
        }
    }
}

/// Errors raised by schema construction and lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// Two columns share a name.
    DuplicateColumn(String),
    /// A referenced column does not exist.
    UnknownColumn(String),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::DuplicateColumn(name) => {
                write!(f, "duplicate column name {name:?}")
            }
            SchemaError::UnknownColumn(name) => {
                write!(f, "unknown column {name:?}")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// An ordered list of uniquely-named columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema, rejecting duplicate names.
    pub fn new(columns: Vec<Column>) -> Result<Schema, SchemaError> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|p| p.name == c.name) {
                return Err(SchemaError::DuplicateColumn(c.name.clone()));
            }
        }
        Ok(Schema { columns })
    }

    /// Build from `(name, type)` pairs, rejecting duplicates.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Result<Schema, SchemaError> {
        Schema::new(pairs.iter().map(|(n, t)| Column::new(n, *t)).collect())
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Position of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize, SchemaError> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| SchemaError::UnknownColumn(name.to_string()))
    }

    /// The column definition behind an index.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.dtype)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("TagName", DataType::Text),
            ("TagNo", DataType::Int),
            ("GapValue", DataType::Float),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_duplicates() {
        let err = Schema::from_pairs(&[("a", DataType::Int), ("a", DataType::Text)]).unwrap_err();
        assert_eq!(err, SchemaError::DuplicateColumn("a".to_string()));
    }

    #[test]
    fn lookup_by_name() {
        let s = schema();
        assert_eq!(s.index_of("TagNo").unwrap(), 1);
        assert!(matches!(
            s.index_of("nope"),
            Err(SchemaError::UnknownColumn(_))
        ));
    }

    #[test]
    fn display_form() {
        assert_eq!(
            schema().to_string(),
            "(TagName TEXT, TagNo INT, GapValue FLOAT)"
        );
    }
}
