//! Binary codecs for the scatter/gather (`x*`) backend verbs.
//!
//! A router scattering a macro operation across backends needs each
//! backend's *partial result* shipped back over the line protocol and
//! re-fed to the applying backend. Partials are encoded here as compact
//! little-endian binary with the workspace's one byte codec and its SUMY
//! row layout, `gea_core::codec` (strings as length-prefixed UTF-8, `f64`
//! via `to_bits` so every float round-trips bit-exactly; element counts
//! checked against the bytes remaining before anything is allocated for
//! them; [`CodecError`] for every decode failure), hex-armored
//! onto the single-line wire. The router treats the blobs as opaque: its
//! only codec work is [`frame`]/[`unframe`] — concatenating per-shard blobs
//! in shard order with `u32` length prefixes — plus the hex armor.
//!
//! Bit-exact `f64` transport matters: the whole distributed design rests
//! on byte-identical replies, and a decimal round-trip of a standard
//! deviation would be the one place the bits could drift.

pub use gea_core::codec::{fnv1a, CodecError};

use gea_core::codec::{
    put_list, put_str, put_sumy_rows, put_u32, put_u64, put_u8, read_sumy_rows, Cur,
};
use gea_core::mine::MinedCluster;
use gea_core::sumy::SumyRow;
use gea_exec::{Partial, ScatterOp};
use gea_mine::isa::IsaModule;
use gea_sage::library::LibraryId;
use gea_sage::tag::TagId;

/// Hex-armor bytes for single-line transport.
pub fn hex_encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0x0f) as usize] as char);
    }
    out
}

/// Decode hex armor produced by [`hex_encode`].
pub fn hex_decode(s: &str) -> Result<Vec<u8>, CodecError> {
    let s = s.trim();
    if !s.len().is_multiple_of(2) {
        return Err(CodecError("odd-length hex blob".to_string()));
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let bytes = s.as_bytes();
    for pair in bytes.chunks(2) {
        let hi = hex_nibble(pair[0])?;
        let lo = hex_nibble(pair[1])?;
        out.push((hi << 4) | lo);
    }
    Ok(out)
}

fn hex_nibble(b: u8) -> Result<u8, CodecError> {
    match b {
        b'0'..=b'9' => Ok(b - b'0'),
        b'a'..=b'f' => Ok(b - b'a' + 10),
        b'A'..=b'F' => Ok(b - b'A' + 10),
        other => Err(CodecError(format!("bad hex byte {other:#04x}"))),
    }
}

/// Concatenate blobs in shard order, each prefixed with its `u32` length.
/// The frame order **is** the merge order: `xapply` decodes the blobs in
/// sequence and `gea_exec::scatter::install` merges them unchanged.
pub fn frame(blobs: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = blobs.iter().map(|b| 4 + b.len()).sum();
    let mut out = Vec::with_capacity(total);
    for blob in blobs {
        put_u32(&mut out, blob.len() as u32);
        out.extend_from_slice(blob);
    }
    out
}

/// Split a [`frame`]d byte stream back into its blobs, in order.
pub fn unframe(bytes: &[u8]) -> Result<Vec<Vec<u8>>, CodecError> {
    let mut cur = Cur::new(bytes);
    let mut out = Vec::new();
    while !cur.done() {
        let len = cur.u32("frame length")? as usize;
        out.push(cur.take(len, "framed blob")?.to_vec());
    }
    Ok(out)
}

// --- SUMY rows -------------------------------------------------------------

/// Encode the three per-shard row vectors of a scattered `groups`
/// aggregation (in-fascicle, outside, contrast — in the exact order the
/// serial aggregator is called).
pub fn encode_rows3(rows: &[Vec<SumyRow>; 3]) -> Vec<u8> {
    let mut out = Vec::new();
    for part in rows {
        put_sumy_rows(&mut out, part);
    }
    out
}

/// Decode a blob produced by [`encode_rows3`].
pub fn decode_rows3(bytes: &[u8]) -> Result<[Vec<SumyRow>; 3], CodecError> {
    let mut cur = Cur::new(bytes);
    // One shard's share of each aggregation: the merged table, not the
    // shard, owes ascending tags.
    let a = read_sumy_rows(&mut cur, false)?;
    let b = read_sumy_rows(&mut cur, false)?;
    let c = read_sumy_rows(&mut cur, false)?;
    cur.finish("rows blob")?;
    Ok([a, b, c])
}

// --- mined clusters --------------------------------------------------------

/// Encode a shard's materialized clusters (`mine` scatter partial): each
/// cluster's name, member ids and compact-tag ids — all the install needs,
/// as its ENUM and SUMY derive from them.
fn encode_clusters(clusters: &[MinedCluster]) -> Vec<u8> {
    let mut out = Vec::new();
    put_list(&mut out, clusters, |out, c| {
        put_str(out, &c.name);
        put_list(out, &c.libraries, |out, l| put_u32(out, l.0));
        put_list(out, &c.compact_tags, |out, t| put_u32(out, t.0));
    });
    out
}

/// Decode a blob produced by [`encode_clusters`].
fn decode_clusters(bytes: &[u8]) -> Result<Vec<MinedCluster>, CodecError> {
    let mut cur = Cur::new(bytes);
    let out = cur.list(12, "cluster", |cur| {
        let name = cur.string("cluster name")?;
        let libraries = cur.list(4, "cluster library", |cur| {
            Ok(LibraryId(cur.u32("cluster library")?))
        })?;
        let compact_tags = cur.list(4, "cluster tag", |cur| Ok(TagId(cur.u32("cluster tag")?)))?;
        Ok(MinedCluster {
            name,
            libraries,
            compact_tags,
        })
    })?;
    cur.finish("clusters blob")?;
    Ok(out)
}

// --- ISA modules -----------------------------------------------------------

/// Encode a shard's converged-seed results (`mine … with isa` partial).
/// `None` seeds are kept in place: the gather-side dedupe consumes the
/// full seed-order list, exactly like the in-process driver.
fn encode_modules(modules: &[Option<IsaModule>]) -> Vec<u8> {
    let mut out = Vec::new();
    put_list(&mut out, modules, |out, m| match m {
        None => put_u8(out, 0),
        Some(m) => {
            put_u8(out, 1);
            put_list(out, &m.libs, |out, &l| put_u64(out, l as u64));
            put_list(out, &m.tags, |out, &t| put_u64(out, t as u64));
            put_u8(out, m.converged as u8);
        }
    });
    out
}

/// Decode a blob produced by [`encode_modules`].
fn decode_modules(bytes: &[u8]) -> Result<Vec<Option<IsaModule>>, CodecError> {
    let mut cur = Cur::new(bytes);
    let out = cur.list(1, "module", |cur| {
        if cur.u8("module flag")? == 0 {
            return Ok(None);
        }
        let libs = cur.list(8, "module library", |cur| {
            Ok(cur.u64("module library")? as usize)
        })?;
        let tags = cur.list(8, "module tag", |cur| Ok(cur.u64("module tag")? as usize))?;
        let converged = cur.u8("module converged flag")? != 0;
        Ok(Some(IsaModule {
            libs,
            tags,
            converged,
        }))
    })?;
    cur.finish("modules blob")?;
    Ok(out)
}

// --- populate hits ---------------------------------------------------------

/// Encode a shard's qualifying libraries (`populate` scatter partial).
fn encode_libs(libs: &[LibraryId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + libs.len() * 4);
    put_list(&mut out, libs, |out, l| put_u32(out, l.0));
    out
}

/// Decode a blob produced by [`encode_libs`].
fn decode_libs(bytes: &[u8]) -> Result<Vec<LibraryId>, CodecError> {
    let mut cur = Cur::new(bytes);
    let out = cur.list(4, "library", |cur| Ok(LibraryId(cur.u32("library")?)))?;
    cur.finish("libraries blob")?;
    Ok(out)
}

// --- scatter partials ------------------------------------------------------

/// Encode one shard's [`Partial`]. The blob carries no kind tag: the
/// command travels with it, and [`decode_partial`] reads the kind off the
/// op.
pub fn encode_partial(partial: &Partial) -> Vec<u8> {
    match partial {
        Partial::Clusters(clusters) => encode_clusters(clusters),
        Partial::Modules(modules) => encode_modules(modules),
        Partial::Hits(libs) => encode_libs(libs),
        Partial::Rows3(rows) => encode_rows3(rows),
    }
}

/// Decode a blob as the kind of [`Partial`] that `op` produces.
pub fn decode_partial(op: &ScatterOp, bytes: &[u8]) -> Result<Partial, CodecError> {
    Ok(match op {
        ScatterOp::Fascicles { .. } => Partial::Clusters(decode_clusters(bytes)?),
        ScatterOp::Isa { .. } => Partial::Modules(decode_modules(bytes)?),
        ScatterOp::Populate { .. } => Partial::Hits(decode_libs(bytes)?),
        ScatterOp::Groups { .. } => Partial::Rows3(decode_rows3(bytes)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gea_core::Interval;
    use gea_sage::library::LibraryProperty;
    use gea_sage::tag::Tag;

    fn row(tag_no: u32) -> SumyRow {
        SumyRow {
            tag: Tag::from_code(tag_no).unwrap(),
            tag_no,
            range: Interval::new(-1.25, 7.5).unwrap(),
            average: 0.1 + f64::EPSILON,
            std_dev: 2.0f64.sqrt(),
        }
    }

    #[test]
    fn hex_roundtrip() {
        // Every byte value, then 64 KiB of xorshift noise: the armour is
        // the `{:02x}` spelling of each byte, and decodes back.
        let mut bytes: Vec<u8> = (0..=255).collect();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        bytes.extend((0..64 * 1024).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        }));
        let spelled: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex_encode(&bytes), spelled);
        assert_eq!(hex_decode(&spelled).unwrap(), bytes);
        assert!(hex_decode("0g").is_err());
        assert!(hex_decode("abc").is_err());
    }

    #[test]
    fn frame_roundtrip() {
        let blobs = vec![vec![1u8, 2, 3], Vec::new(), vec![9u8; 100]];
        assert_eq!(unframe(&frame(&blobs)).unwrap(), blobs);
        assert!(unframe(&[1, 2, 3]).is_err());
    }

    #[test]
    fn clusters_roundtrip_bit_exact() {
        let clusters = vec![MinedCluster {
            name: "brain_1".to_string(),
            libraries: vec![LibraryId(0), LibraryId(7)],
            compact_tags: vec![TagId(3), TagId(12)],
        }];
        let decoded = decode_clusters(&encode_clusters(&clusters)).unwrap();
        assert_eq!(decoded, clusters);
    }

    #[test]
    fn modules_and_libs_and_rows3_roundtrip() {
        let modules = vec![
            None,
            Some(IsaModule {
                libs: vec![1, 5, 9],
                tags: vec![0, 2],
                converged: true,
            }),
        ];
        let back = decode_modules(&encode_modules(&modules)).unwrap();
        assert_eq!(back.len(), 2);
        assert!(back[0].is_none());
        let m = back[1].as_ref().unwrap();
        assert_eq!(
            (m.libs.clone(), m.tags.clone(), m.converged),
            (vec![1, 5, 9], vec![0, 2], true)
        );

        let libs = vec![LibraryId(3), LibraryId(11)];
        assert_eq!(decode_libs(&encode_libs(&libs)).unwrap(), libs);

        let rows3 = [vec![row(1)], Vec::new(), vec![row(2), row(4)]];
        let back3 = decode_rows3(&encode_rows3(&rows3)).unwrap();
        assert_eq!(back3, rows3);
        assert!(decode_rows3(&encode_libs(&libs)).is_err());
    }

    #[test]
    fn a_cluster_blob_carrying_sumy_rows_is_refused() {
        // A cluster is its ids; its SUMY is derived on install. A blob that
        // still carries SUMY rows after them is refused whole. No encoder
        // writes this blob; spell it by hand.
        let mut blob = Vec::new();
        put_u32(&mut blob, 1);
        put_str(&mut blob, "brain_1");
        put_u32(&mut blob, 0);
        put_u32(&mut blob, 0);
        put_str(&mut blob, "brain_1");
        put_sumy_rows(&mut blob, &[row(3), row(3)]);
        assert!(decode_clusters(&blob).is_err());
        // One shard's share of a `groups` is not a table and is not held
        // to table order.
        let share = [vec![row(3), row(3)], Vec::new(), Vec::new()];
        assert_eq!(decode_rows3(&encode_rows3(&share)).unwrap(), share);
    }

    #[test]
    fn implausible_counts_are_rejected_before_allocating() {
        // A count of u32::MAX with no bytes behind it: every decoder must
        // refuse up front instead of reserving gigabytes.
        let huge = u32::MAX.to_le_bytes();
        assert!(decode_libs(&huge).is_err());
        assert!(decode_modules(&huge).is_err());
        assert!(decode_clusters(&huge).is_err());
        assert!(decode_rows3(&huge).is_err());
        let mut nested = encode_modules(&[]);
        nested[0] = 1; // one module ...
        nested.push(1); // ... present ...
        nested.extend_from_slice(&huge); // ... with 4 billion libraries
        assert!(decode_modules(&nested).is_err());
        // A `groups` share whose one row declares 4 billion extra
        // aggregates: the count must be 0.
        let mut forged = encode_rows3(&[vec![row(1)], Vec::new(), Vec::new()]);
        let at = 4 + 44 - 4;
        forged[at..at + 4].copy_from_slice(&huge);
        let groups = ScatterOp::Groups {
            fascicle: "a_1".into(),
            property: LibraryProperty::Cancer,
        };
        let err = decode_partial(&groups, &forged).unwrap_err();
        assert!(err.0.contains("extra aggregates"), "{err}");
    }
}
