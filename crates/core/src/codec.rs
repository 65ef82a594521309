//! The one little-endian byte codec: primitive writers, a bounds-checked
//! reader and the SUMY row layout, shared by the `session.gea` snapshot
//! ([`crate::persist`]) and the router's scatter partials
//! (`gea_server::xcodec`).
//!
//! Both formats carry untrusted bytes (a file on disk, a frame off the
//! wire), so the reader is total: every short read, implausible count or
//! bad string is a [`CodecError`], never a panic, and element counts are
//! validated against the bytes actually remaining *before* anything is
//! allocated for them ([`Cur::ensure_elems`]). `f64` travels as its
//! IEEE-754 bits, so every float round-trips bit-exactly.
//!
//! A [`Cur`] reads a slice, or a `Source` that produces the bytes on
//! demand (the snapshot's inflater): then the reader holds a window of
//! them, not the whole stream, and "the bytes remaining" are the ones the
//! stream still declares.

use std::io::{Read, Write};

use gea_sage::tag::Tag;

use crate::interval::Interval;
use crate::sumy::SumyRow;

/// Strings are capped at 1 MiB, matching the corpus binary format's cap.
const MAX_STR: usize = 1 << 20;

/// A decode failure: the bytes did not match the expected shape. Each
/// format converts it into its own error type with `From`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for String {
    fn from(e: CodecError) -> String {
        e.0
    }
}

/// Where the primitive writers put their bytes: a buffer that keeps them,
/// or a hash that folds them and keeps nothing.
pub trait ByteSink {
    /// Take the next bytes of the encoding.
    fn put(&mut self, bytes: &[u8]);
}

impl ByteSink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Append one byte.
pub fn put_u8(out: &mut impl ByteSink, v: u8) {
    out.put(&[v]);
}

/// Append a `u32`, little-endian.
pub fn put_u32(out: &mut impl ByteSink, v: u32) {
    out.put(&v.to_le_bytes());
}

/// Append a `u64`, little-endian.
pub fn put_u64(out: &mut impl ByteSink, v: u64) {
    out.put(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bits, little-endian.
pub fn put_f64(out: &mut impl ByteSink, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a `u32`-length-prefixed UTF-8 string.
pub fn put_str(out: &mut impl ByteSink, s: &str) {
    put_u32(out, s.len() as u32);
    out.put(s.as_bytes());
}

/// Append a `u64`-length-prefixed byte blob that `write` produces, without
/// ever holding it: one pass counts its bytes, a second streams them into
/// `out`. (`write` runs twice and must write the same bytes both times.)
pub fn put_blob<S: ByteSink>(
    out: &mut S,
    write: impl Fn(&mut dyn Write) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut len = ByteCount(0);
    write(&mut SinkWriter(&mut len))?;
    put_u64(out, len.0);
    write(&mut SinkWriter(out))
}

/// A sink that only counts: the length a blob will have, ahead of its bytes.
struct ByteCount(u64);

impl ByteSink for ByteCount {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len() as u64;
    }
}

/// Any sink as an [`io::Write`](Write), for the encoders that write one.
struct SinkWriter<'s, S>(&'s mut S);

impl<S: ByteSink> Write for SinkWriter<'_, S> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0.put(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

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

/// A byte stream a [`Cur`] reads as it is produced. The reader owns the
/// buffer; the source appends to it and may read back into its tail.
pub(crate) trait Source {
    /// How far back from the end of the buffer [`Source::fill`] reads: the
    /// reader keeps that many bytes when it drops what it has consumed.
    fn history(&self) -> usize;

    /// Bytes the stream declares it has yet to append.
    fn pending(&self) -> usize;

    /// Append to `buf` until it holds at least `len` bytes. Only called
    /// with `len` within [`Source::pending`]; a stream that ends short of
    /// what it declared is an error.
    fn fill(&mut self, buf: &mut Vec<u8>, len: usize) -> Result<(), CodecError>;

    /// Everything declared has been read: fail if the encoding has bytes
    /// left over.
    fn finish(&self) -> Result<(), CodecError>;
}

/// How much a streaming [`Cur`] asks its source for at a time, beyond the
/// read that ran out.
const FILL_CHUNK: usize = 256 << 10;

/// A bounds-checked little-endian reader. The `what` argument of each
/// method names the field being read, for the error message.
pub struct Cur<'a> {
    buf: Buf<'a>,
    pos: usize,
}

enum Buf<'a> {
    Slice(&'a [u8]),
    Stream {
        window: Vec<u8>,
        source: Box<dyn Source + 'a>,
    },
}

impl<'a> Cur<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur {
            buf: Buf::Slice(buf),
            pos: 0,
        }
    }

    /// Read what `source` produces, holding only a window of it.
    pub(crate) fn streaming(source: impl Source + 'a) -> Cur<'a> {
        Cur {
            buf: Buf::Stream {
                window: Vec::new(),
                source: Box::new(source),
            },
            pos: 0,
        }
    }

    fn held(&self) -> &[u8] {
        match &self.buf {
            Buf::Slice(bytes) => bytes,
            Buf::Stream { window, .. } => window,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        let pending = match &self.buf {
            Buf::Slice(_) => 0,
            Buf::Stream { source, .. } => source.pending(),
        };
        self.held().len() - self.pos + pending
    }

    /// Whether every byte has been consumed.
    pub fn done(&self) -> bool {
        self.remaining() == 0
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&[u8], CodecError> {
        if self.held().len() - self.pos < n {
            self.refill(n, what)?;
        }
        let start = self.pos;
        self.pos += n;
        Ok(&self.held()[start..start + n])
    }

    /// Make `n` bytes available past `pos`, or fail without consuming
    /// anything. A stream first drops the consumed bytes its source no
    /// longer reads, then fills at least `n` bytes (a chunk if it can).
    #[cold]
    fn refill(&mut self, n: usize, what: &str) -> Result<(), CodecError> {
        let remaining = self.remaining();
        if remaining < n {
            return Err(CodecError(format!(
                "truncated input: {what} needs {n} bytes, {remaining} left"
            )));
        }
        if let Buf::Stream { window, source } = &mut self.buf {
            let cut = self.pos.min(window.len().saturating_sub(source.history()));
            window.drain(..cut);
            self.pos -= cut;
            source.fill(window, self.pos + n.max(FILL_CHUNK).min(remaining))?;
            if window.len() - self.pos < n {
                return Err(CodecError(format!("stream ended inside {what}")));
            }
        }
        Ok(())
    }

    /// Reject an element count that could not possibly fit in the bytes
    /// remaining (each element occupies at least `min_size` bytes). Call
    /// it before allocating for `n` elements.
    pub fn ensure_elems(&self, n: usize, min_size: usize, what: &str) -> Result<(), CodecError> {
        match n.checked_mul(min_size) {
            Some(total) if total <= self.remaining() => Ok(()),
            _ => Err(CodecError(format!(
                "implausible {what} count {n} for {} remaining bytes",
                self.remaining()
            ))),
        }
    }

    /// Read a `u32` element count and check it with [`Cur::ensure_elems`].
    pub fn count(&mut self, min_size: usize, what: &str) -> Result<usize, CodecError> {
        let n = self.u32(what)? as usize;
        self.ensure_elems(n, min_size, what)?;
        Ok(n)
    }

    /// Read one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, CodecError> {
        let bytes = self.take(4, what)?;
        Ok(u32::from_le_bytes(
            bytes.try_into().expect("take returned 4 bytes"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, CodecError> {
        let bytes = self.take(8, what)?;
        Ok(u64::from_le_bytes(
            bytes.try_into().expect("take returned 8 bytes"),
        ))
    }

    /// Read a tag code and check it against the tag range.
    pub fn tag(&mut self, what: &str) -> Result<Tag, CodecError> {
        let code = self.u32(what)?;
        Tag::from_code(code)
            .ok_or_else(|| CodecError(format!("{what}: tag code {code} out of range")))
    }

    /// Read an `f64` from its IEEE-754 bits.
    pub fn f64(&mut self, what: &str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self, what: &str) -> Result<String, CodecError> {
        let len = self.u32(what)? as usize;
        if len > MAX_STR {
            return Err(CodecError(format!("{what} length {len} implausible")));
        }
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| CodecError(format!("non-utf8 {what}: {e}")))
    }

    /// Read a `u64`-length-prefixed byte blob.
    pub fn blob(&mut self, what: &str) -> Result<&[u8], CodecError> {
        let len = self.blob_len(what)?;
        self.take(len, what)
    }

    /// Hand a `u64`-length-prefixed byte blob to `decode` as an
    /// [`io::Read`](Read) that ends where the blob does, so a decoder that
    /// reads a stream never needs the blob whole. Whatever `decode` leaves
    /// unread is skipped.
    pub fn blob_reader<T>(
        &mut self,
        what: &str,
        decode: impl FnOnce(&mut dyn Read) -> T,
    ) -> Result<T, CodecError> {
        let len = self.blob_len(what)?;
        let mut reader = BlobReader {
            cur: self,
            left: len,
        };
        let decoded = decode(&mut reader);
        let mut left = reader.left;
        while left > 0 {
            let n = left.min(FILL_CHUNK);
            self.take(n, what)?;
            left -= n;
        }
        Ok(decoded)
    }

    /// A blob's `u64` length, checked against the bytes remaining.
    fn blob_len(&mut self, what: &str) -> Result<usize, CodecError> {
        let len = self.u64(what)?;
        let len = usize::try_from(len)
            .map_err(|_| CodecError(format!("{what} length {len} implausible")))?;
        let remaining = self.remaining();
        if len > remaining {
            return Err(CodecError(format!(
                "truncated input: {what} needs {len} bytes, {remaining} left"
            )));
        }
        Ok(len)
    }

    /// Require that nothing is left over — of what a stream declared, and
    /// of the encoding it was produced from.
    pub fn finish(self, what: &str) -> Result<(), CodecError> {
        if !self.done() {
            return Err(CodecError(format!(
                "{} trailing bytes after {what}",
                self.remaining()
            )));
        }
        match &self.buf {
            Buf::Slice(_) => Ok(()),
            Buf::Stream { source, .. } => source.finish(),
        }
    }
}

/// The [`io::Read`](Read) view of one blob that [`Cur::blob_reader`] hands
/// out.
struct BlobReader<'c, 'a> {
    cur: &'c mut Cur<'a>,
    left: usize,
}

impl Read for BlobReader<'_, '_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = out.len().min(self.left);
        let bytes = self
            .cur
            .take(n, "blob")
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        out[..n].copy_from_slice(bytes);
        self.left -= n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 0xdead_beef);
        put_u64(&mut out, u64::MAX - 1);
        put_f64(&mut out, -0.0);
        put_f64(&mut out, f64::NAN);
        put_str(&mut out, "uni→code");
        put_blob(&mut out, |w| w.write_all(&[1, 2, 3])).unwrap();
        let mut cur = Cur::new(&out);
        assert_eq!(cur.u8("a").unwrap(), 7);
        assert_eq!(cur.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(cur.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(cur.f64("d").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(cur.f64("e").unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(cur.string("f").unwrap(), "uni→code");
        assert_eq!(cur.blob("g").unwrap(), &[1, 2, 3]);
        cur.finish("test").unwrap();
    }

    #[test]
    fn a_blob_reader_ends_with_its_blob_and_skips_what_is_left() {
        let mut out = Vec::new();
        put_blob(&mut out, |w| w.write_all(b"hello world")).unwrap();
        put_u8(&mut out, 9);
        let mut cur = Cur::new(&out);
        let head = cur
            .blob_reader("b", |r| {
                let mut head = [0u8; 5];
                r.read_exact(&mut head).map(|_| head)
            })
            .unwrap()
            .unwrap();
        assert_eq!(&head, b"hello");
        assert_eq!(cur.u8("after").unwrap(), 9);
        cur.finish("test").unwrap();
        // Reading to the end stops at the blob's, not the input's.
        let mut cur = Cur::new(&out);
        let mut all = Vec::new();
        cur.blob_reader("b", |r| r.read_to_end(&mut all))
            .unwrap()
            .unwrap();
        assert_eq!(all, b"hello world");
        // A blob longer than what is left is refused before `decode` runs.
        assert!(Cur::new(&out[..12])
            .blob_reader("b", |_| panic!("decoded a truncated blob"))
            .is_err());
    }

    #[test]
    fn short_reads_and_implausible_counts_are_errors() {
        let mut cur = Cur::new(&[1, 2, 3]);
        assert!(cur.u32("x").is_err());
        assert_eq!(cur.remaining(), 3, "a failed read consumes nothing");
        assert!(Cur::new(&[0xff; 4]).count(1, "elem").is_err());
        assert!(Cur::new(&[0xff; 12]).string("s").is_err());
        assert!(Cur::new(&[0xff; 8]).blob("b").is_err());
        assert!(Cur::new(&[0]).finish("blob").is_err());
        // usize overflow in the size product is rejected, not wrapped.
        assert!(Cur::new(&[0; 8])
            .ensure_elems(usize::MAX, 2, "elem")
            .is_err());
    }

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
