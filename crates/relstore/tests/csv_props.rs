//! Property-based test for CSV round-tripping.

use proptest::prelude::*;

use gea_relstore::csv::{export_csv, import_csv};
use gea_relstore::schema::Schema;
use gea_relstore::table::Table;
use gea_relstore::value::{DataType, Value};

fn test_schema() -> Schema {
    Schema::from_pairs(&[
        ("name", DataType::Text),
        ("group", DataType::Int),
        ("x", DataType::Float),
    ])
    .unwrap()
}

fn value_row() -> impl Strategy<Value = (String, i64, Option<f64>)> {
    (
        "[a-zA-Z,\"\\- ]{0,12}",
        0i64..5,
        prop::option::of(-100.0f64..100.0),
    )
}

fn arbitrary_table() -> impl Strategy<Value = Table> {
    prop::collection::vec(value_row(), 0..25).prop_map(|rows| {
        let mut t = Table::new(test_schema());
        for (name, group, x) in rows {
            t.push_row(vec![
                Value::Text(name),
                Value::Int(group),
                x.map(Value::Float).unwrap_or(Value::Null),
            ])
            .unwrap();
        }
        t
    })
}

proptest! {
    #[test]
    fn csv_roundtrip_arbitrary_tables(t in arbitrary_table()) {
        let mut buf = Vec::new();
        export_csv(&t, &mut buf).unwrap();
        let back = import_csv(test_schema(), &mut buf.as_slice()).unwrap();
        prop_assert_eq!(back, t);
    }
}
