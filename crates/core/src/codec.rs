//! The SUMY row layout, the one binary layout above the corpus: a
//! snapshot's SUMY tables ([`crate::persist`]) and the router's scatter
//! partials (`gea_server::xcodec`) are these bytes. The primitives it is
//! written with — [`ByteSink`], the `put_*` writers, the bounds-checked
//! [`Cur`], [`CodecError`] and FNV-1a — are `gea_sage::codec`'s,
//! re-exported here.

pub use gea_sage::codec::{
    fnv1a, put_blob, put_f64, put_list, put_str, put_u32, put_u64, put_u8, ByteCount, ByteSink,
    CodecError, Cur, Fnv1a,
};

use crate::interval::Interval;
use crate::sumy::SumyRow;

/// Append a `u32` row count and then each SUMY row: tag code, tag number,
/// range ends, average, standard deviation, and a `u32` `0`: the v3 layout
/// kept a count of extra aggregate columns there, and no row has any. The
/// one SUMY row layout — a snapshot's SUMY tables and a scatter partial's
/// rows are these bytes.
pub fn put_sumy_rows(out: &mut impl ByteSink, rows: &[SumyRow]) {
    put_u32(out, rows.len() as u32);
    for row in rows {
        put_u32(out, row.tag.code());
        put_u32(out, row.tag_no);
        put_f64(out, row.range.lo());
        put_f64(out, row.range.hi());
        put_f64(out, row.average);
        put_f64(out, row.std_dev);
        put_u32(out, 0);
    }
}

/// Read rows written by [`put_sumy_rows`]: the count is checked against the
/// bytes remaining before anything is allocated, tag codes against the tag
/// range, range ends against [`Interval::new`], and the extras count must
/// be `0`. `ascending` also requires strictly ascending tags — what a
/// whole table has, and what keeps duplicates from `SumyTable::new`, which
/// panics on them; one shard's share of a scattered aggregation is exempt,
/// and the table the shares merge into is built with `SumyTable::try_new`.
pub fn read_sumy_rows(cur: &mut Cur, ascending: bool) -> Result<Vec<SumyRow>, CodecError> {
    let n = cur.count(44, "sumy row")?;
    let mut rows: Vec<SumyRow> = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = cur.tag("sumy tag")?;
        if ascending && rows.last().is_some_and(|prev| tag <= prev.tag) {
            return Err(CodecError("sumy rows out of order".to_string()));
        }
        let tag_no = cur.u32("sumy tag number")?;
        let lo = cur.f64("sumy range lo")?;
        let hi = cur.f64("sumy range hi")?;
        let range =
            Interval::new(lo, hi).map_err(|e| CodecError(format!("bad sumy range: {e}")))?;
        let average = cur.f64("sumy average")?;
        let std_dev = cur.f64("sumy std dev")?;
        let n_extras = cur.u32("sumy extras count")?;
        if n_extras != 0 {
            return Err(CodecError(format!(
                "sumy row carries {n_extras} extra aggregates; none are defined"
            )));
        }
        rows.push(SumyRow {
            tag,
            tag_no,
            range,
            average,
            std_dev,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gea_sage::tag::Tag;

    /// One SUMY row block whose row declares `n_extras` extra aggregates,
    /// with one name/value pair behind it, so a reader that took extras
    /// would decode a count of 1.
    fn row_block_with_extras(n_extras: u32) -> Vec<u8> {
        let row = SumyRow {
            tag: Tag::from_code(5).unwrap(),
            tag_no: 5,
            range: Interval::new(1.0, 2.0).unwrap(),
            average: 1.5,
            std_dev: 0.5,
        };
        let mut out = Vec::new();
        put_sumy_rows(&mut out, std::slice::from_ref(&row));
        let at = out.len() - 4;
        out[at..].copy_from_slice(&n_extras.to_le_bytes());
        put_str(&mut out, "median");
        put_f64(&mut out, 1.5);
        out
    }

    #[test]
    fn a_nonzero_extras_count_is_refused() {
        for n in [1, u32::MAX] {
            let bytes = row_block_with_extras(n);
            let err = read_sumy_rows(&mut Cur::new(&bytes), true).unwrap_err();
            assert!(err.0.contains("extra aggregates"), "{n}: {err}");
        }
    }
}
