//! Columnar tables.
//!
//! Storage is column-major: each column is a `Vec<Value>`. This mirrors the
//! access pattern of GEA's analysis operators, which scan one attribute at a
//! time (aggregation over a tag, entropy over a column, range predicates),
//! and it is what makes the thesis's "rotated" TAGS layout (§4.6.1) pay off:
//! a tag's expression levels across all libraries are one contiguous column
//! scan away.

use std::fmt;

use crate::schema::{Schema, SchemaError};
use crate::value::{DataType, Value};

/// Zero-based row identifier within one table.
pub type RowId = usize;

/// Errors raised by table mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum TableError {
    /// Schema lookup failed.
    Schema(SchemaError),
    /// A row had the wrong number of values.
    RowArity {
        /// Values provided.
        got: usize,
        /// Columns in the schema.
        expected: usize,
    },
    /// A value's type disagreed with its column's declared type.
    TypeMismatch {
        /// Offending column name.
        column: String,
        /// Declared column type.
        expected: DataType,
        /// The value that was rejected.
        value: Value,
    },
}

impl From<SchemaError> for TableError {
    fn from(e: SchemaError) -> TableError {
        TableError::Schema(e)
    }
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::Schema(e) => write!(f, "{e}"),
            TableError::RowArity { got, expected } => {
                write!(f, "row has {got} values; schema has {expected} columns")
            }
            TableError::TypeMismatch {
                column,
                expected,
                value,
            } => write!(
                f,
                "value {value} does not fit column {column:?} of type {expected}"
            ),
        }
    }
}

impl std::error::Error for TableError {}

/// A columnar relation instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Vec<Value>>,
    n_rows: usize,
}

impl Table {
    /// Create an empty table with the given schema.
    pub fn new(schema: Schema) -> Table {
        let columns = vec![Vec::new(); schema.len()];
        Table {
            schema,
            columns,
            n_rows: 0,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.schema.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Append a row, validating arity and types (NULL fits any column).
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<RowId, TableError> {
        if row.len() != self.schema.len() {
            return Err(TableError::RowArity {
                got: row.len(),
                expected: self.schema.len(),
            });
        }
        for (i, v) in row.iter().enumerate() {
            if let Some(t) = v.data_type() {
                let declared = self.schema.column(i).dtype;
                let compatible =
                    t == declared || (t == DataType::Int && declared == DataType::Float);
                if !compatible {
                    return Err(TableError::TypeMismatch {
                        column: self.schema.column(i).name.clone(),
                        expected: declared,
                        value: v.clone(),
                    });
                }
            }
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
        let id = self.n_rows;
        self.n_rows += 1;
        Ok(id)
    }

    /// The value at `(row, column index)`.
    pub fn value(&self, row: RowId, col: usize) -> &Value {
        &self.columns[col][row]
    }

    /// The value at `(row, column name)`.
    pub fn value_by_name(&self, row: RowId, name: &str) -> Result<&Value, TableError> {
        let idx = self.schema.index_of(name)?;
        Ok(self.value(row, idx))
    }

    /// Materialize one row as a `Vec<Value>`.
    pub fn row(&self, row: RowId) -> Vec<Value> {
        self.columns.iter().map(|c| c[row].clone()).collect()
    }

    /// Iterate all rows, materializing each.
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.n_rows).map(|r| self.row(r))
    }

    /// Render the first `limit` rows as an aligned text grid (the thesis's
    /// GUI lists, in terminal form).
    pub fn render(&self, limit: usize) -> String {
        self.render_rows(self.n_rows.min(limit), self.n_rows)
    }

    /// Render every row of a table that holds the first rows of one with
    /// `total` rows, exactly as that whole table renders them: `render(n)`
    /// of the whole table is `render_head_of(total)` of its first `n`.
    pub fn render_head_of(&self, total: usize) -> String {
        self.render_rows(self.n_rows, total.max(self.n_rows))
    }

    /// The first `shown` rows, then a trailer counting the rest of `total`.
    fn render_rows(&self, shown: usize, total: usize) -> String {
        let headers: Vec<String> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(shown);
        for r in 0..shown {
            cells.push(
                (0..self.n_cols())
                    .map(|c| self.value(r, c).to_string())
                    .collect(),
            );
        }
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in &cells {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, row: &[String]| {
            for (i, (cell, w)) in row.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                out.extend(std::iter::repeat_n(' ', w - cell.len()));
            }
            out.push('\n');
        };
        write_row(&mut out, &headers);
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        write_row(&mut out, &rule);
        for row in &cells {
            write_row(&mut out, row);
        }
        if total > shown {
            out.push_str(&format!("... ({} more rows)\n", total - shown));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("name", DataType::Text),
            Column::new("n", DataType::Int),
            Column::new("x", DataType::Float),
        ])
        .unwrap()
    }

    fn table() -> Table {
        let mut t = Table::new(schema());
        t.push_row(vec!["a".into(), 1.into(), 1.5.into()]).unwrap();
        t.push_row(vec!["b".into(), 2.into(), Value::Null]).unwrap();
        t.push_row(vec!["c".into(), 3.into(), 3.5.into()]).unwrap();
        t
    }

    #[test]
    fn push_and_read_back() {
        let t = table();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.value(1, 0), &Value::Text("b".into()));
        assert_eq!(t.value_by_name(2, "x").unwrap(), &Value::Float(3.5));
        assert!(t.value(1, 2).is_null());
    }

    #[test]
    fn arity_and_type_validation() {
        let mut t = Table::new(schema());
        assert!(matches!(
            t.push_row(vec!["a".into()]),
            Err(TableError::RowArity {
                got: 1,
                expected: 3
            })
        ));
        assert!(matches!(
            t.push_row(vec![1.into(), 1.into(), 1.5.into()]),
            Err(TableError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn int_widens_into_float_column() {
        let mut t = Table::new(schema());
        t.push_row(vec!["a".into(), 1.into(), Value::Int(2)])
            .unwrap();
        assert_eq!(t.value(0, 2).as_f64(), Some(2.0));
    }

    #[test]
    fn null_fits_any_column() {
        let mut t = Table::new(schema());
        t.push_row(vec![Value::Null, Value::Null, Value::Null])
            .unwrap();
        assert_eq!(t.n_rows(), 1);
    }

    #[test]
    fn render_produces_grid() {
        let t = table();
        let s = t.render(2);
        assert!(s.contains("name"));
        assert!(s.contains("1 more rows"));
        assert!(s.lines().count() >= 4);
    }
}
