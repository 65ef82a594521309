//! The clustering input: records × numeric attributes.
//!
//! In GEA the records are SAGE libraries and the attributes are tags, but
//! the algorithms in this crate are domain-agnostic. Data is stored
//! attribute-major, matching the rotated physical layout of the expression
//! matrix (one attribute's values across all records are contiguous), which
//! is the access pattern of compactness checks and tolerance generation.

/// Anything that can serve records × attributes to the miners.
pub trait AttrSource {
    /// Number of records (rows in the conceptual view; SAGE libraries).
    fn n_records(&self) -> usize;

    /// Number of attributes (columns in the conceptual view; tags).
    fn n_attrs(&self) -> usize;

    /// One attribute's values across all records, length [`Self::n_records`].
    fn attr_values(&self, attr: usize) -> &[f64];

    /// The value of `attr` for `record`.
    fn value(&self, record: usize, attr: usize) -> f64 {
        self.attr_values(attr)[record]
    }

    /// Materialize one record's values across all attributes.
    fn record_vector(&self, record: usize) -> Vec<f64> {
        (0..self.n_attrs())
            .map(|a| self.attr_values(a)[record])
            .collect()
    }
}

/// An owned attribute-major dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    n_records: usize,
    n_attrs: usize,
    /// `values[attr * n_records + record]`.
    values: Vec<f64>,
}

impl Dataset {
    /// Build from record-major rows (each row one record).
    pub fn from_records(rows: &[Vec<f64>]) -> Dataset {
        assert!(!rows.is_empty(), "need at least one record");
        let n_records = rows.len();
        let n_attrs = rows[0].len();
        let mut values = vec![0.0; n_records * n_attrs];
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n_attrs, "ragged record {r}");
            for (a, &v) in row.iter().enumerate() {
                values[a * n_records + r] = v;
            }
        }
        Dataset {
            n_records,
            n_attrs,
            values,
        }
    }
}

impl AttrSource for Dataset {
    fn n_records(&self) -> usize {
        self.n_records
    }

    fn n_attrs(&self) -> usize {
        self.n_attrs
    }

    fn attr_values(&self, attr: usize) -> &[f64] {
        &self.values[attr * self.n_records..(attr + 1) * self.n_records]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_attr_views_agree() {
        let d = Dataset::from_records(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(d.n_records(), 2);
        assert_eq!(d.n_attrs(), 3);
        assert_eq!(d.attr_values(1), &[2.0, 5.0]);
        assert_eq!(d.record_vector(0), vec![1.0, 2.0, 3.0]);
        assert_eq!(d.value(1, 2), 6.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        Dataset::from_records(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
