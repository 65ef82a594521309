//! The one little-endian byte codec: primitive writers, a bounds-checked
//! reader and the FNV-1a hash, shared by every binary format in the
//! workspace — the corpus blob ([`crate::io::put_corpus`]), the
//! `session.gea` snapshot (`gea_core::persist`, which adds the SUMY row
//! layout in `gea_core::codec`) and the router's scatter partials
//! (`gea_server::xcodec`).
//!
//! Every format carries untrusted bytes (a file on disk, a frame off the
//! wire), so the reader is total: every short read, implausible count or
//! bad string is a [`CodecError`], never a panic, and element counts are
//! validated against the bytes actually remaining *before* anything is
//! allocated for them ([`Cur::ensure_elems`]). `f64` travels as its
//! IEEE-754 bits, so every float round-trips bit-exactly.
//!
//! A [`Cur`] reads a slice, or a declared number of bytes from an
//! [`std::io::Read`] (a `session.gea` file): then the reader holds a window
//! of them, not the whole stream, and "the bytes remaining" are the ones
//! the stream still declares.

use std::io::Read;

use crate::tag::Tag;

/// Strings are capped at 1 MiB.
const MAX_STR: usize = 1 << 20;

/// A decode failure: the bytes did not match the expected shape. A format
/// with its own error type converts it with `From`.
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
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Append one byte.
#[inline]
pub fn put_u8(out: &mut (impl ByteSink + ?Sized), v: u8) {
    out.put(&[v]);
}

/// Append a `u32`, little-endian.
#[inline]
pub fn put_u32(out: &mut (impl ByteSink + ?Sized), v: u32) {
    out.put(&v.to_le_bytes());
}

/// Append a `u64`, little-endian.
#[inline]
pub fn put_u64(out: &mut (impl ByteSink + ?Sized), v: u64) {
    out.put(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bits, little-endian.
#[inline]
pub fn put_f64(out: &mut (impl ByteSink + ?Sized), v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a `u32`-length-prefixed UTF-8 string.
#[inline]
pub fn put_str(out: &mut (impl ByteSink + ?Sized), s: &str) {
    put_u32(out, s.len() as u32);
    out.put(s.as_bytes());
}

/// Append a `u32` count and then each item as `put` writes it: what
/// [`Cur::list`] reads.
pub fn put_list<S: ByteSink + ?Sized, I: IntoIterator>(
    out: &mut S,
    items: I,
    put: impl Fn(&mut S, I::Item),
) where
    I::IntoIter: ExactSizeIterator,
{
    let items = items.into_iter();
    put_u32(out, items.len() as u32);
    for item in items {
        put(out, item);
    }
}

/// Append a `u64`-length-prefixed byte blob that `write` produces, without
/// ever holding it: one pass counts its bytes, a second streams them into
/// `out`. (`write` runs twice and must write the same bytes both times.)
pub fn put_blob(out: &mut impl ByteSink, write: impl Fn(&mut dyn ByteSink)) {
    let mut len = ByteCount::default();
    write(&mut len);
    put_u64(out, len.0);
    write(out);
}

/// A sink that only counts: the length an encoding will have, ahead of
/// its bytes.
#[derive(Default)]
pub struct ByteCount(pub u64);

impl ByteSink for ByteCount {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len() as u64;
    }
}

/// The running FNV-1a 64-bit state. It folds byte by byte, so it is a sink
/// an encoder can write straight into: what it hashes is never
/// materialized. Cheap and dependency-free: an integrity check and a
/// stable key, not an authenticity one.
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    /// The offset basis: the hash of no bytes.
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl ByteSink for Fnv1a {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a 64-bit of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::default();
    hash.put(bytes);
    hash.0
}

/// How much a streaming [`Cur`] reads at a time, beyond the read that ran
/// out.
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
        reader: Box<dyn Read + 'a>,
        /// Bytes declared and not yet read into the window.
        left: usize,
        /// FNV-1a of every byte read into the window so far.
        hash: Fnv1a,
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

    /// Read the next `len` bytes of `reader`, holding only a window of
    /// them and folding each into FNV-1a as it is read
    /// ([`Cur::fingerprint`]).
    pub fn streaming(reader: impl Read + 'a, len: usize) -> Cur<'a> {
        Cur {
            buf: Buf::Stream {
                window: Vec::new(),
                reader: Box::new(reader),
                left: len,
                hash: Fnv1a::default(),
            },
            pos: 0,
        }
    }

    #[inline]
    fn held(&self) -> &[u8] {
        match &self.buf {
            Buf::Slice(bytes) => bytes,
            Buf::Stream { window, .. } => window,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        let left = match &self.buf {
            Buf::Slice(_) => 0,
            Buf::Stream { left, .. } => *left,
        };
        self.held().len() - self.pos + left
    }

    /// Whether every byte has been consumed.
    pub fn done(&self) -> bool {
        self.remaining() == 0
    }

    /// Consume exactly `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize, what: &str) -> Result<&[u8], CodecError> {
        if self.held().len() - self.pos < n {
            self.refill(n, what)?;
        }
        let start = self.pos;
        self.pos += n;
        Ok(&self.held()[start..start + n])
    }

    /// Consume exactly `N` bytes, as an array.
    #[inline]
    fn take_array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], CodecError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N, what)?);
        Ok(out)
    }

    /// Make `n` bytes available past `pos`, or fail without consuming
    /// anything. A stream first drops the bytes already consumed, then
    /// reads at least `n` more (a chunk if that many are declared).
    #[cold]
    fn refill(&mut self, n: usize, what: &str) -> Result<(), CodecError> {
        let remaining = self.remaining();
        if remaining < n {
            return Err(CodecError(format!(
                "truncated input: {what} needs {n} bytes, {remaining} left"
            )));
        }
        if let Buf::Stream { window, .. } = &mut self.buf {
            window.drain(..self.pos);
            self.pos = 0;
            let want = n.max(FILL_CHUNK).min(remaining) - window.len();
            self.read_more(want, what)?;
        }
        Ok(())
    }

    /// Append the next `k` declared bytes of a stream to its window,
    /// folding them into its hash.
    fn read_more(&mut self, k: usize, what: &str) -> Result<(), CodecError> {
        if let Buf::Stream {
            window,
            reader,
            left,
            hash,
        } = &mut self.buf
        {
            let from = window.len();
            window.resize(from + k, 0);
            if let Err(e) = reader.read_exact(&mut window[from..]) {
                window.truncate(from);
                return Err(CodecError(format!("stream ended inside {what}: {e}")));
            }
            hash.put(&window[from..]);
            *left -= k;
        }
        Ok(())
    }

    /// The FNV-1a of the whole input, consumed or not: a stream reads what
    /// is left of it (a chunk at a time, and never decodes it), so a
    /// reader can check what it decoded against a fingerprint without
    /// reading the bytes twice.
    pub fn fingerprint(mut self) -> Result<u64, CodecError> {
        loop {
            let k = match &mut self.buf {
                Buf::Slice(bytes) => return Ok(fnv1a(bytes)),
                Buf::Stream { left: 0, hash, .. } => return Ok(hash.0),
                Buf::Stream { window, left, .. } => {
                    window.clear();
                    FILL_CHUNK.min(*left)
                }
            };
            self.pos = 0;
            self.read_more(k, "fingerprinted input")?;
        }
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
    #[inline]
    pub fn count(&mut self, min_size: usize, what: &str) -> Result<usize, CodecError> {
        let n = self.u32(what)? as usize;
        self.ensure_elems(n, min_size, what)?;
        Ok(n)
    }

    /// Read a list [`put_list`] wrote: a [`Cur::count`] of elements at
    /// least `min_size` bytes each, then each element as `read` reads it.
    #[inline]
    pub fn list<T>(
        &mut self,
        min_size: usize,
        what: &str,
        mut read: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.count(min_size, what)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(read(self)?);
        }
        Ok(items)
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self, what: &str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, what: &str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take_array(what)?))
    }

    /// Read a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, what: &str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take_array(what)?))
    }

    /// Read a tag code and check it against the tag range.
    #[inline]
    pub fn tag(&mut self, what: &str) -> Result<Tag, CodecError> {
        let code = self.u32(what)?;
        Tag::from_code(code)
            .ok_or_else(|| CodecError(format!("{what}: tag code {code} out of range")))
    }

    /// Read an `f64` from its IEEE-754 bits.
    #[inline]
    pub fn f64(&mut self, what: &str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    #[inline]
    pub fn string(&mut self, what: &str) -> Result<String, CodecError> {
        let len = self.u32(what)? as usize;
        if len > MAX_STR {
            return Err(CodecError(format!("{what} length {len} implausible")));
        }
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| CodecError(format!("non-utf8 {what}: {e}")))
    }

    /// Decode a `u64`-length-prefixed byte blob in place with `decode`,
    /// which reads it from this reader and must end exactly where the blob
    /// does: stopping short of its declared length, or running past it, is
    /// an error.
    pub fn blob_with<T>(
        &mut self,
        what: &str,
        decode: impl FnOnce(&mut Self) -> Result<T, CodecError>,
    ) -> Result<T, CodecError> {
        let len = self.blob_len(what)?;
        let after = self.remaining() - len;
        let decoded = decode(self)?;
        match self.remaining().checked_sub(after) {
            Some(0) => Ok(decoded),
            Some(left) => Err(CodecError(format!("{left} unread bytes inside {what}"))),
            None => Err(CodecError(format!("decoder ran past the end of {what}"))),
        }
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

    /// Require that nothing is left over.
    pub fn finish(&self, what: &str) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(CodecError(format!("{extra} trailing bytes after {what}"))),
        }
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
        put_blob(&mut out, |w| w.put(&[1, 2, 3]));
        put_list(&mut out, &[5u32, 6], |out, &v| put_u32(out, v));
        let mut cur = Cur::new(&out);
        assert_eq!(cur.u8("a").unwrap(), 7);
        assert_eq!(cur.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(cur.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(cur.f64("d").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(cur.f64("e").unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(cur.string("f").unwrap(), "uni→code");
        let blob = cur.blob_with("g", |c| Ok(c.take(3, "g")?.to_vec()));
        assert_eq!(blob.unwrap(), [1, 2, 3]);
        assert_eq!(cur.list(4, "h", |c| c.u32("h")).unwrap(), vec![5, 6]);
        cur.finish("test").unwrap();
    }

    #[test]
    fn blob_with_must_end_where_the_blob_does() {
        let mut out = Vec::new();
        put_blob(&mut out, |w| {
            put_u32(w, 1);
            put_u32(w, 2);
        });
        put_u32(&mut out, 9);
        // A decoder that reads the whole blob, and nothing after it.
        let mut cur = Cur::new(&out);
        let both = cur
            .blob_with("b", |c| Ok((c.u32("x")?, c.u32("y")?)))
            .unwrap();
        assert_eq!(both, (1, 2));
        assert_eq!(cur.u32("after").unwrap(), 9);
        cur.finish("test").unwrap();
        // Stopping short leaves unread bytes inside the blob.
        let err = Cur::new(&out).blob_with("b", |c| c.u32("x")).unwrap_err();
        assert_eq!(err.0, "4 unread bytes inside b");
        // Running past reads what follows the blob.
        let err = Cur::new(&out)
            .blob_with("b", |c| {
                (0..3).map(|_| c.u32("x")).collect::<Result<Vec<_>, _>>()
            })
            .unwrap_err();
        assert_eq!(err.0, "decoder ran past the end of b");
        // A blob longer than what is left is refused before `decode` runs.
        assert!(Cur::new(&out[..12])
            .blob_with("b", |_| -> Result<(), CodecError> {
                panic!("decoded a truncated blob")
            })
            .is_err());
    }

    #[test]
    fn short_reads_and_implausible_counts_are_errors() {
        let mut cur = Cur::new(&[1, 2, 3]);
        assert!(cur.u32("x").is_err());
        assert_eq!(cur.remaining(), 3, "a failed read consumes nothing");
        assert!(Cur::new(&[0xff; 4]).count(1, "elem").is_err());
        let list = Cur::new(&[0xff; 8]).list(1, "elem", |_| -> Result<u8, _> { panic!("read") });
        assert!(list.unwrap_err().0.starts_with("implausible elem count"));
        assert!(Cur::new(&[0xff; 12]).string("s").is_err());
        assert!(Cur::new(&[0xff; 8]).blob_with("b", |_| Ok(())).is_err());
        assert!(Cur::new(&[0]).finish("blob").is_err());
        // usize overflow in the size product is rejected, not wrapped.
        assert!(Cur::new(&[0; 8])
            .ensure_elems(usize::MAX, 2, "elem")
            .is_err());
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        // Fed in pieces, the same value.
        let mut hash = Fnv1a::default();
        put_str(&mut hash, "foo");
        let mut whole = Vec::new();
        put_str(&mut whole, "foo");
        assert_eq!(hash.0, fnv1a(&whole));
    }
}
