//! The relational form of a GEA table — the Appendix IV schemas.
//!
//! The thesis keeps every structure in the underlying DBMS: SUMY tables as
//! `SummaryTable(TagName, TagNo, Minimum, Maximum, Range, Average, STDV)`,
//! GAP tables as `GapTable(TagName, TagNo, GapValue…)`, and ENUM tables in
//! the rotated physical layout of §4.6.1 (`TAGS(TagName, TagNo, Lib_a …)`).
//! Here the typed tables are the store and these conversions are the
//! export: [`crate::session::GeaSession::relation`] builds a relation when
//! `save` asks for one, and nothing keeps it (DESIGN.md, "Storage note").
//! Each conversion is a schema (column names only — what an install checks)
//! plus rows, and is lossless both ways (`tests/properties.rs`), which is
//! what makes a view derived on demand equal to a stored copy.

use gea_relstore::schema::{Column, Schema};
use gea_relstore::table::{Table, TableError};
use gea_relstore::value::{DataType, Value};
use gea_sage::library::LibraryMeta;
use gea_sage::tag::Tag;

use crate::enum_table::EnumTable;
use crate::gap::{GapRow, GapTable};
use crate::interval::Interval;
use crate::sumy::{SumyRow, SumyTable};

/// Errors raised while converting between GEA structures and relations.
#[derive(Debug)]
pub enum ConvertError {
    /// Underlying table error.
    Table(TableError),
    /// A cell failed to parse back into the GEA structure.
    Malformed(String),
}

impl From<TableError> for ConvertError {
    fn from(e: TableError) -> ConvertError {
        ConvertError::Table(e)
    }
}

impl std::fmt::Display for ConvertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConvertError::Table(e) => write!(f, "{e}"),
            ConvertError::Malformed(m) => write!(f, "malformed relation: {m}"),
        }
    }
}

impl std::error::Error for ConvertError {}

/// The Appendix IV `SummaryTable` schema, the same for every SUMY table.
pub fn sumy_schema() -> Result<Schema, ConvertError> {
    Schema::from_pairs(&[
        ("TagName", DataType::Text),
        ("TagNo", DataType::Int),
        ("Minimum", DataType::Float),
        ("Maximum", DataType::Float),
        ("Range", DataType::Float),
        ("Average", DataType::Float),
        ("STDV", DataType::Float),
    ])
    .map_err(|e| TableError::Schema(e).into())
}

/// Materialize a SUMY table under [`sumy_schema`].
pub fn sumy_to_relation(sumy: &SumyTable) -> Result<Table, ConvertError> {
    sumy_rows_relation(sumy.rows())
}

/// What `show sumy <T> <n>` prints: `sumy_to_relation(sumy)?.render(n)`,
/// converting only the `n` rows it shows.
pub fn render_sumy_head(sumy: &SumyTable, n: usize) -> Result<String, ConvertError> {
    let rows = sumy.rows();
    Ok(sumy_rows_relation(&rows[..n.min(rows.len())])?.render_head_of(rows.len()))
}

/// `rows` under [`sumy_schema`].
fn sumy_rows_relation(rows: &[SumyRow]) -> Result<Table, ConvertError> {
    let mut table = Table::new(sumy_schema()?);
    for row in rows {
        table.push_row(vec![
            row.tag.to_string().into(),
            row.tag_no.into(),
            row.range.lo().into(),
            row.range.hi().into(),
            row.range.width().into(),
            row.average.into(),
            row.std_dev.into(),
        ])?;
    }
    Ok(table)
}

/// Reconstruct a SUMY table from its relational form.
pub fn sumy_from_relation(name: &str, table: &Table) -> Result<SumyTable, ConvertError> {
    let mut rows = Vec::with_capacity(table.n_rows());
    for r in 0..table.n_rows() {
        let tag_s = table
            .value_by_name(r, "TagName")?
            .as_str()
            .ok_or_else(|| ConvertError::Malformed("TagName not text".into()))?;
        let tag: Tag = tag_s
            .parse()
            .map_err(|e| ConvertError::Malformed(format!("bad tag {tag_s:?}: {e}")))?;
        let f = |col: &str| -> Result<f64, ConvertError> {
            table
                .value_by_name(r, col)?
                .as_f64()
                .ok_or_else(|| ConvertError::Malformed(format!("{col} not numeric")))
        };
        let lo = f("Minimum")?;
        let hi = f("Maximum")?;
        rows.push(SumyRow {
            tag,
            tag_no: table
                .value_by_name(r, "TagNo")?
                .as_i64()
                .ok_or_else(|| ConvertError::Malformed("TagNo not int".into()))?
                as u32,
            range: Interval::new(lo, hi).map_err(|e| ConvertError::Malformed(e.to_string()))?,
            average: f("Average")?,
            std_dev: f("STDV")?,
        });
    }
    Ok(SumyTable::new(name, rows))
}

/// `TagName, TagNo`, then one FLOAT column per name in `floats` — the
/// shape GAP and ENUM relations share. Fails on a repeated name.
fn tag_keyed_schema<'a>(floats: impl Iterator<Item = &'a str>) -> Result<Schema, ConvertError> {
    let mut cols = vec![
        Column::new("TagName", DataType::Text),
        Column::new("TagNo", DataType::Int),
    ];
    cols.extend(floats.map(|name| Column::new(name, DataType::Float)));
    Schema::new(cols).map_err(|e| TableError::Schema(e).into())
}

/// A GAP table's schema (`TagName, TagNo, GapValue…`, one column per gap).
/// A self-`union` doubles every qualified column, and is refused here.
pub fn gap_schema(gap: &GapTable) -> Result<Schema, ConvertError> {
    tag_keyed_schema(gap.columns.iter().map(String::as_str))
}

/// Materialize a GAP table under [`gap_schema`].
pub fn gap_to_relation(gap: &GapTable) -> Result<Table, ConvertError> {
    gap_rows_relation(gap, gap.rows())
}

/// What `show gap <G> <n>` prints: `gap_to_relation(gap)?.render(n)`,
/// converting only the `n` rows it shows.
pub fn render_gap_head(gap: &GapTable, n: usize) -> Result<String, ConvertError> {
    let rows = gap.rows();
    Ok(gap_rows_relation(gap, &rows[..n.min(rows.len())])?.render_head_of(rows.len()))
}

/// `rows` of `gap` under its [`gap_schema`].
fn gap_rows_relation(gap: &GapTable, rows: &[GapRow]) -> Result<Table, ConvertError> {
    let mut table = Table::new(gap_schema(gap)?);
    for row in rows {
        let mut values: Vec<Value> = vec![row.tag.to_string().into(), row.tag_no.into()];
        for g in &row.gaps {
            values.push(match g {
                Some(v) => Value::Float(*v),
                None => Value::Null,
            });
        }
        table.push_row(values)?;
    }
    Ok(table)
}

/// Reconstruct a GAP table from its relational form.
pub fn gap_from_relation(name: &str, table: &Table) -> Result<GapTable, ConvertError> {
    let columns: Vec<String> = table
        .schema()
        .columns()
        .iter()
        .skip(2)
        .map(|c| c.name.clone())
        .collect();
    if columns.is_empty() {
        return Err(ConvertError::Malformed("no gap columns".into()));
    }
    let mut rows = Vec::with_capacity(table.n_rows());
    for r in 0..table.n_rows() {
        let tag_s = table
            .value_by_name(r, "TagName")?
            .as_str()
            .ok_or_else(|| ConvertError::Malformed("TagName not text".into()))?;
        let tag: Tag = tag_s
            .parse()
            .map_err(|e| ConvertError::Malformed(format!("bad tag {tag_s:?}: {e}")))?;
        let tag_no = table
            .value_by_name(r, "TagNo")?
            .as_i64()
            .ok_or_else(|| ConvertError::Malformed("TagNo not int".into()))?
            as u32;
        let gaps = (2..table.n_cols())
            .map(|c| table.value(r, c).as_f64())
            .collect();
        rows.push(GapRow { tag, tag_no, gaps });
    }
    Ok(GapTable::new(name, columns, rows))
}

/// The schema of an ENUM table over these library columns, in the rotated
/// physical layout of Figure 4.30: one FLOAT column per library. Only the
/// libraries' names matter, so a table can be checked before it is built.
pub fn enum_schema<'a>(
    libraries: impl IntoIterator<Item = &'a LibraryMeta>,
) -> Result<Schema, ConvertError> {
    tag_keyed_schema(libraries.into_iter().map(|meta| meta.name.as_str()))
}

/// Materialize an ENUM table under [`enum_schema`]: one row per tag.
pub fn enum_to_relation(table: &EnumTable) -> Result<Table, ConvertError> {
    let mut out = Table::new(enum_schema(table.libraries())?);
    for tid in table.matrix.tag_ids() {
        let mut row: Vec<Value> = vec![table.matrix.tag_of(tid).to_string().into(), tid.0.into()];
        row.extend(table.matrix.tag_row(tid).iter().map(|&v| Value::Float(v)));
        out.push_row(row)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sumy::aggregate;
    use gea_sage::corpus::library_meta;
    use gea_sage::library::{NeoplasticState, TissueSource, TissueType};
    use gea_sage::tag::TagUniverse;
    use gea_sage::ExpressionMatrix;

    fn enum_table() -> EnumTable {
        let universe = TagUniverse::from_tags(
            ["AAAAAAAAAA", "CCCCCCCCCC"]
                .iter()
                .map(|s| s.parse().unwrap()),
        );
        let libs = vec![
            library_meta(
                "L0",
                TissueType::Brain,
                NeoplasticState::Cancerous,
                TissueSource::BulkTissue,
            ),
            library_meta(
                "L1",
                TissueType::Brain,
                NeoplasticState::Normal,
                TissueSource::BulkTissue,
            ),
        ];
        EnumTable::new(
            "E",
            ExpressionMatrix::from_rows(universe, libs, vec![vec![10.0, 20.0], vec![3.0, 5.0]]),
        )
    }

    #[test]
    fn sumy_roundtrip() {
        let sumy = aggregate("s", &enum_table().matrix);
        let relation = sumy_to_relation(&sumy).unwrap();
        assert_eq!(relation.n_rows(), 2);
        assert_eq!(relation.n_cols(), 7);
        let back = sumy_from_relation("s", &relation).unwrap();
        assert_eq!(back, sumy);
    }

    #[test]
    fn gap_roundtrip_preserves_nulls() {
        use crate::gap::GapRow;
        let gap = GapTable::new(
            "g",
            vec!["Gap".to_string()],
            vec![
                GapRow {
                    tag: "AAAAAAAAAA".parse().unwrap(),
                    tag_no: 0,
                    gaps: vec![Some(-1.5)],
                },
                GapRow {
                    tag: "CCCCCCCCCC".parse().unwrap(),
                    tag_no: 1,
                    gaps: vec![None],
                },
            ],
        );
        let relation = gap_to_relation(&gap).unwrap();
        assert!(relation.value_by_name(1, "Gap").unwrap().is_null());
        let back = gap_from_relation("g", &relation).unwrap();
        assert_eq!(back.rows(), gap.rows());
        assert_eq!(back.columns, gap.columns);
    }

    #[test]
    fn multi_column_gap_roundtrip() {
        use crate::gap::GapRow;
        let gap = GapTable::new(
            "g4",
            vec!["GAP1.Gap".to_string(), "GAP2.Gap".to_string()],
            vec![GapRow {
                tag: "AAAAAAAAAA".parse().unwrap(),
                tag_no: 0,
                gaps: vec![Some(-11.0), Some(-8.0)],
            }],
        );
        let relation = gap_to_relation(&gap).unwrap();
        assert_eq!(relation.n_cols(), 4);
        let back = gap_from_relation("g4", &relation).unwrap();
        assert_eq!(back.rows()[0].gaps, vec![Some(-11.0), Some(-8.0)]);
    }

    #[test]
    fn enum_relation_is_rotated() {
        let t = enum_table();
        let relation = enum_to_relation(&t).unwrap();
        // One row per tag, one column per library (Figure 4.30b).
        assert_eq!(relation.n_rows(), 2);
        assert_eq!(relation.n_cols(), 4);
        assert_eq!(
            relation.value_by_name(0, "TagName").unwrap().as_str(),
            Some("AAAAAAAAAA")
        );
        assert_eq!(
            relation.value_by_name(0, "L1").unwrap().as_f64(),
            Some(20.0)
        );
    }

    /// `show`'s head renders are the whole relation rendered, byte for
    /// byte, at every cut that matters: none, one row, all but one, all,
    /// and past the end; a schema the relation refuses is refused alike.
    #[test]
    fn head_renders_are_the_whole_relation_rendered() {
        use gea_sage::clean::{clean, CleaningConfig};
        use gea_sage::generate::{generate, GeneratorConfig};
        use gea_sage::library::LibraryId;

        let (corpus, _) = generate(&GeneratorConfig::demo(42));
        let (matrix, _) = clean(&corpus, &CleaningConfig::default());
        let ids: Vec<LibraryId> = matrix.library_ids().collect();
        let (left, right) = ids.split_at(ids.len() / 2);
        let a = aggregate("a", &matrix.select_libraries(left));
        let b = aggregate("b", &matrix.select_libraries(right));
        let gap = crate::gap::diff("g", &a, &b);
        assert!(gap
            .rows()
            .iter()
            .any(|r| r.gaps.iter().any(Option::is_none)));
        let cuts = |len: usize| [0, 1, len - 1, len, len + 1];
        for n in cuts(a.len()) {
            assert_eq!(
                render_sumy_head(&a, n).unwrap(),
                sumy_to_relation(&a).unwrap().render(n),
                "sumy, n = {n}"
            );
        }
        for n in cuts(gap.len()) {
            assert_eq!(
                render_gap_head(&gap, n).unwrap(),
                gap_to_relation(&gap).unwrap().render(n),
                "gap, n = {n}"
            );
        }
        let twice = GapTable::new("t", vec!["G".into(), "G".into()], Vec::new());
        assert_eq!(
            render_gap_head(&twice, 5).unwrap_err().to_string(),
            gap_to_relation(&twice).unwrap_err().to_string()
        );
    }

    #[test]
    fn malformed_relation_rejected() {
        let schema =
            Schema::from_pairs(&[("TagName", DataType::Text), ("TagNo", DataType::Int)]).unwrap();
        let t = Table::new(schema);
        assert!(gap_from_relation("g", &t).is_err());
    }
}
