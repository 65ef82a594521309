//! Persisting analysis results across sessions.
//!
//! The thesis keeps every intermediate table in DB2, so an analyst can come
//! back days later, browse the lineage (Figure 4.18) and continue. Two
//! layers provide that here:
//!
//! * The browsable layer: [`save_results`] exports the relational form of
//!   a session's tables ([`GeaSession::relation`], one at a time, as CSV
//!   with schema sidecars) and the lineage DAG to a directory, for reading
//!   outside the toolkit. It is write-only: sessions are restored from the
//!   snapshot below. Dematerialized tables (contents-only deletes) export
//!   as empty tables whose lineage metadata still describes how to
//!   regenerate them.
//! * The fidelity-complete layer: [`save_session`] additionally writes a
//!   versioned binary snapshot (`session.gea`) holding *everything* a
//!   [`GeaSession`] owns that cannot be derived — raw corpus, cleaning
//!   report, derived ENUM/SUMY/GAP tables, fascicle records and lineage,
//!   each once: the relational form is derived from these, and so is the
//!   cleaned base matrix of a session opened over a corpus, so neither is
//!   stored — and [`load_session`] reassembles a live session from it. This
//!   is the format the server's eviction spill/restore path and the
//!   router's resync use ([`spill_session`], [`snapshot_to_bytes`]):
//!   replies answered by a restored session are byte-identical to the
//!   pre-eviction ones, and so is its next save.
//!
//! Every field of the snapshot, the lineage included, is written with the
//! `put_*` writers of `gea_sage::codec` and read back through its bounded
//! [`Cur`]; there is no text decoder on the load path. The lineage's node
//! ids and next id are stored, not re-derived, and
//! [`Lineage::from_parts`] reinstalls them only if they form a DAG a
//! tracker could hold.
//!
//! The snapshot carries an FNV-1a fingerprint over its body; truncated,
//! bit-flipped, or version-skewed files load as
//! [`PersistError::Malformed`], never a panic.
//!
//! A load that replaces a live session can offer that session's
//! [`SessionSource`] ([`load_session_sharing`]): a snapshot whose source
//! part (cleaning report, corpus, base kind and any stored base table) is
//! the same bytes shares it instead of decoding a second copy.
//!
//! Neither direction holds the raw (uncompressed) body, which at thesis
//! scale is several times the stored bytes. `save` encodes every field
//! into the LZSS compressor (`LzWriter`), which keeps a 64 KiB history
//! and a 261-byte look-ahead and writes tokens straight into the one output
//! buffer; `load` checks the fingerprint over the stored bytes, then reads
//! every field through one [`Cur`] whose source is the inflater
//! (`Inflate`). The greedy parse never looks further than that window,
//! so the stored bytes are the ones a whole-buffer compressor writes.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gea_relstore::csv::export_csv;
use gea_relstore::value::DataType;
use gea_sage::clean::{CleaningConfig, CleaningReport};
use gea_sage::corpus::SageCorpus;
use gea_sage::io::{put_corpus, read_corpus};
use gea_sage::library::{
    LibraryId, LibraryMeta, LibraryProperty, NeoplasticState, TissueSource, TissueType,
};
use gea_sage::tag::{TagId, TagUniverse};
use gea_sage::ExpressionMatrix;

use crate::codec::{
    fnv1a, put_blob, put_f64, put_list, put_str, put_sumy_rows, put_u32, put_u64, put_u8,
    read_sumy_rows, ByteSink, CodecError, Cur, Fnv1a, Source,
};
use crate::enum_table::EnumTable;
use crate::gap::{GapRow, GapTable};
use crate::lineage::{Lineage, LineageNode, NodeId, NodeKind};
use crate::session::{FascicleRecord, GeaSession, Root, SessionSnapshot, SessionSource};
use crate::sumy::SumyTable;

/// Errors raised by persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A file's contents did not parse.
    Malformed(String),
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> PersistError {
        PersistError::Io(e)
    }
}

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> PersistError {
        PersistError::Malformed(e.0)
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Malformed(m) => write!(f, "malformed session data: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

fn malformed(detail: impl Into<String>) -> CodecError {
    CodecError(detail.into())
}

fn kind_token(kind: NodeKind) -> &'static str {
    match kind {
        NodeKind::Enum => "enum",
        NodeKind::Fascicle => "fascicle",
        NodeKind::Sumy => "sumy",
        NodeKind::Gap => "gap",
        NodeKind::TopGap => "topgap",
        NodeKind::Compare => "compare",
    }
}

fn parse_kind(token: &str) -> Result<NodeKind, CodecError> {
    Ok(match token {
        "enum" => NodeKind::Enum,
        "fascicle" => NodeKind::Fascicle,
        "sumy" => NodeKind::Sumy,
        "gap" => NodeKind::Gap,
        "topgap" => NodeKind::TopGap,
        "compare" => NodeKind::Compare,
        other => return Err(malformed(format!("unknown node kind {other:?}"))),
    })
}

fn dtype_token(d: DataType) -> &'static str {
    match d {
        DataType::Int => "INT",
        DataType::Float => "FLOAT",
        DataType::Text => "TEXT",
        DataType::Bool => "BOOL",
    }
}

/// Percent-encode a table name into a safe file stem.
fn encode_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
            out.push(c);
        } else {
            out.push('%');
            out.push_str(&format!("{:04x}", c as u32));
        }
    }
    out
}

/// Save the relational form of the session's tables and its lineage into
/// `dir`, converting and writing one table at a time.
pub fn save_results(session: &GeaSession, dir: &Path) -> Result<(), PersistError> {
    fs::create_dir_all(dir)?;
    // Tables: CSV + schema sidecar.
    for name in session.relation_names() {
        let Some(table) = session.relation(name) else {
            continue;
        };
        let stem = encode_name(name);
        let mut schema_file = fs::File::create(dir.join(format!("{stem}.schema")))?;
        for col in table.schema().columns() {
            writeln!(schema_file, "{}\t{}", col.name, dtype_token(col.dtype))?;
        }
        let mut csv_file = fs::File::create(dir.join(format!("{stem}.csv")))?;
        export_csv(&table, &mut csv_file)?;
    }
    // Lineage.
    let mut out = fs::File::create(dir.join("lineage.txt"))?;
    write_lineage(session.lineage(), &mut out)?;
    Ok(())
}

/// Write the lineage DAG as `lineage.txt`'s tagged-record text, for
/// reading outside the toolkit; the snapshot stores it as binary records
/// ([`put_lineage`]).
fn write_lineage(lineage: &Lineage, out: &mut impl Write) -> std::io::Result<()> {
    for node in lineage.iter() {
        writeln!(out, "node\t{}", node.id.0)?;
        writeln!(out, "name\t{}", encode_name(&node.name))?;
        writeln!(out, "kind\t{}", kind_token(node.kind))?;
        writeln!(out, "op\t{}", node.operation)?;
        for (k, v) in &node.params {
            writeln!(out, "param\t{k}\t{v}")?;
        }
        if !node.comment.is_empty() {
            writeln!(out, "comment\t{}", node.comment.replace('\n', " "))?;
        }
        let parents: Vec<String> = node.parents.iter().map(|p| p.0.to_string()).collect();
        writeln!(out, "parents\t{}", parents.join(","))?;
        writeln!(out, "materialized\t{}", node.materialized as u8)?;
        writeln!(out, "end")?;
    }
    Ok(())
}

// ----- fidelity-complete binary snapshots (`session.gea`) -----------------

/// File name of the binary snapshot inside a saved-session directory.
pub const SNAPSHOT_FILE: &str = "session.gea";

const SNAPSHOT_MAGIC: &[u8; 4] = b"GEAS";
/// The one snapshot version written and read. The LZSS-compressed body
/// ([`LzWriter`]) is, in order: cleaning report, corpus blob, the base kind
/// byte ([`put_source`]; the base ENUM table follows it only for a session
/// opened over a prepared matrix), then the counted lists of ENUM, SUMY and GAP tables and fascicle
/// records (each with its mining backend and resolved parameters), then the
/// lineage: the next node id and the counted list of live nodes
/// ([`put_lineage`]). Node ids and the next id are restored verbatim, so a
/// loaded session records its next table under the id the saved one would
/// have used.
const SNAPSHOT_VERSION: u32 = 5;
/// Magic, version and fingerprint (FNV-1a over the stored body); the
/// stored body follows.
const SNAPSHOT_HEADER: usize = 16;

// ----- LZSS body compression ----------------------------------------------
//
// Dependency-free and fully deterministic: the encoder keeps a fixed
// table of `LZ_SLOTS` recent positions, indexed by a multiplicative hash of
// the 3-byte prefix there, so identical input always yields identical
// output (a requirement — the snapshot fingerprint is computed over the
// *stored* bytes, and re-spilling an unchanged session must reproduce the
// same fingerprint). A slot is only a candidate: the byte compare that
// measures the match also rejects a colliding or never-written slot
// (which reads as position 0), so collisions cost ratio, not correctness.
//
// Stream layout: `u64 LE raw_len`, then token groups. Each group is one
// flag byte followed by up to eight tokens, LSB first; a clear bit is a
// literal byte, a set bit is a match of `u16 LE offset` (distance back,
// 1..=65535) and `u8 len-3` (match length 3..=258).
//
// Both ends stream. The greedy parse at position `i` compares at most 258
// bytes against a candidate at most 65 535 bytes back and, after a match,
// refreshes the table for prefixes up to `i + 260`. So an encoder that
// parses `i` only once 261 bytes from `i` on are known (or the input has
// ended) makes exactly the choices one holding the whole input would, and
// keeps nothing older than 65 535 bytes. The decoder's matches reach the
// same 65 535 bytes back.

const LZ_MIN_MATCH: usize = 3;
const LZ_MAX_MATCH: usize = 258;
const LZ_MAX_OFFSET: usize = 65535;
/// A 3-byte match token can emit at most 258 bytes, so even ignoring flag
/// bytes a stream cannot expand more than 86×. A claimed raw length beyond
/// this bound is corruption, rejected before any allocation.
const LZ_MAX_EXPANSION: usize = 128;

/// Match-table slots: 2^16, a 512 KiB table whatever the input.
const LZ_SLOTS: usize = 1 << 16;

/// The table slot of the 3-byte prefix at `buf[i..]` (Knuth's
/// multiplicative hash, top 16 bits).
fn lz_slot(buf: &[u8], i: usize) -> usize {
    let key = u32::from_le_bytes([buf[i], buf[i + 1], buf[i + 2], 0]);
    (key.wrapping_mul(2_654_435_761) >> 16) as usize
}

/// Bytes from a parse position on that must be known before it is parsed.
const LZ_LOOKAHEAD: usize = LZ_MAX_MATCH + LZ_MIN_MATCH;
/// The encoder parses once it holds this much raw input, then drops all
/// but the history: one 64 KiB move per ~190 KiB encoded.
const LZ_WINDOW: usize = 256 << 10;

/// The streaming LZSS encoder: a [`ByteSink`] whose tokens go straight
/// into the output buffer it was given, after the `u64` raw length that
/// [`LzWriter::finish`] patches in.
struct LzWriter {
    out: Vec<u8>,
    len_at: usize,
    /// Raw input from offset `base` on: history, then unparsed bytes.
    window: Vec<u8>,
    base: usize,
    /// Raw offset of the next position to parse.
    next: usize,
    /// Per slot, the raw offset last seen with that prefix hash.
    table: Vec<usize>,
    flag_at: usize,
    /// Tokens in the open flag group; 8 when none is open.
    bit: u8,
}

impl LzWriter {
    fn new(mut out: Vec<u8>) -> LzWriter {
        let len_at = out.len();
        put_u64(&mut out, 0);
        LzWriter {
            out,
            len_at,
            window: Vec::with_capacity(LZ_WINDOW + LZ_LOOKAHEAD),
            base: 0,
            next: 0,
            table: vec![0; LZ_SLOTS],
            flag_at: 0,
            bit: 8,
        }
    }

    /// Parse every position whose look-ahead is known — all of them once
    /// the input has `ended` — then drop what no match can reach.
    fn parse(&mut self, ended: bool) {
        let LzWriter {
            out,
            window,
            base,
            next,
            table,
            flag_at,
            bit,
            ..
        } = self;
        let (raw, start) = (&window[..], *base);
        let n = raw.len();
        let end = if ended {
            n
        } else {
            n.saturating_sub(LZ_LOOKAHEAD - 1)
        };
        let mut i = *next - start;
        while i < end {
            if *bit == 8 {
                *flag_at = out.len();
                out.push(0);
                *bit = 0;
            }
            let mut len = 0;
            if i + LZ_MIN_MATCH <= n {
                let slot = lz_slot(raw, i);
                let offset = start + i - table[slot];
                if (1..=LZ_MAX_OFFSET).contains(&offset) {
                    let prev = i - offset;
                    let limit = (n - i).min(LZ_MAX_MATCH);
                    // Eight bytes a compare, then byte by byte to the first
                    // difference: the same length either way.
                    while len + 8 <= limit && raw[prev + len..][..8] == raw[i + len..][..8] {
                        len += 8;
                    }
                    while len < limit && raw[prev + len] == raw[i + len] {
                        len += 1;
                    }
                }
                if len >= LZ_MIN_MATCH {
                    out[*flag_at] |= 1 << *bit;
                    out.extend_from_slice(&(offset as u16).to_le_bytes());
                    out.push((len - LZ_MIN_MATCH) as u8);
                    // Refresh the table for every covered position so long
                    // runs keep finding nearby matches.
                    let stop = (i + len).min(n.saturating_sub(LZ_MIN_MATCH - 1));
                    for j in i..stop {
                        table[lz_slot(raw, j)] = start + j;
                    }
                } else {
                    table[slot] = start + i;
                }
            }
            if len >= LZ_MIN_MATCH {
                i += len;
            } else {
                out.push(raw[i]);
                i += 1;
            }
            *bit += 1;
        }
        *next = start + i;
        let keep_from = next.saturating_sub(LZ_MAX_OFFSET);
        if keep_from > start {
            window.drain(..keep_from - start);
            *base = keep_from;
        }
    }

    /// Parse what is left and patch in the raw length: the finished stream.
    fn finish(mut self) -> Vec<u8> {
        self.parse(true);
        let raw_len = (self.base + self.window.len()) as u64;
        self.out[self.len_at..self.len_at + 8].copy_from_slice(&raw_len.to_le_bytes());
        self.out
    }
}

impl ByteSink for LzWriter {
    fn put(&mut self, bytes: &[u8]) {
        self.window.extend_from_slice(bytes);
        if self.window.len() >= LZ_WINDOW {
            self.parse(false);
        }
    }
}

/// The streaming LZSS decoder, a [`Source`] for [`Cur`]: it appends whole
/// flag groups to the reader's buffer and copies matches out of its tail.
/// Bounds-checked throughout: truncated tokens, zero or out-of-window
/// offsets, a match past the declared length, an implausible declared
/// length and bytes after the last token are all errors, never a panic,
/// and the declared length is capped by the stored bytes before the
/// reader allocates anything for it.
struct Inflate<'a> {
    tokens: Cur<'a>,
    /// Raw bytes declared and not yet produced.
    left: usize,
}

impl<'a> Inflate<'a> {
    /// Read the declared raw length off the front of `stored` and refuse
    /// one the stored bytes could not expand to.
    fn new(stored: &'a [u8]) -> Result<Inflate<'a>, CodecError> {
        let mut tokens = Cur::new(stored);
        let raw_len = tokens.u64("compressed body length")?;
        let raw_len = usize::try_from(raw_len)
            .map_err(|_| malformed(format!("compressed body length {raw_len} implausible")))?;
        let stored = tokens.remaining();
        match stored.checked_mul(LZ_MAX_EXPANSION) {
            Some(cap) if raw_len <= cap => {}
            _ => {
                return Err(malformed(format!(
                    "compressed body claims {raw_len} bytes from {stored} stored"
                )))
            }
        }
        Ok(Inflate {
            tokens,
            left: raw_len,
        })
    }
}

impl Source for Inflate<'_> {
    fn history(&self) -> usize {
        LZ_MAX_OFFSET
    }

    fn pending(&self) -> usize {
        self.left
    }

    fn fill(&mut self, buf: &mut Vec<u8>, len: usize) -> Result<(), CodecError> {
        while buf.len() < len && self.left > 0 {
            let flags = self.tokens.u8("lz flag byte")?;
            for bit in 0..8 {
                if self.left == 0 {
                    break;
                }
                if flags & (1 << bit) == 0 {
                    buf.push(self.tokens.u8("lz literal")?);
                    self.left -= 1;
                    continue;
                }
                let offset = self.tokens.take(2, "lz match offset")?;
                let offset = u16::from_le_bytes([offset[0], offset[1]]) as usize;
                let n = self.tokens.u8("lz match length")? as usize + LZ_MIN_MATCH;
                if offset == 0 || offset > buf.len() {
                    return Err(CodecError(format!(
                        "lz match offset {offset} outside {}-byte window",
                        buf.len()
                    )));
                }
                if n > self.left {
                    return Err(CodecError(
                        "lz match overruns declared body length".to_string(),
                    ));
                }
                // A match that overlaps its own output repeats with period
                // `offset`: copy what exists, which doubles each round. One
                // that does not is one slice copy.
                let start = buf.len() - offset;
                let mut todo = n;
                while todo > 0 {
                    let k = todo.min(buf.len() - start);
                    buf.extend_from_within(start..start + k);
                    todo -= k;
                }
                self.left -= n;
            }
        }
        Ok(())
    }

    fn finish(&self) -> Result<(), CodecError> {
        match self.tokens.remaining() {
            0 => Ok(()),
            extra => Err(CodecError(format!(
                "{extra} trailing bytes after compressed body"
            ))),
        }
    }
}

fn state_code(s: NeoplasticState) -> u8 {
    match s {
        NeoplasticState::Cancerous => 0,
        NeoplasticState::Normal => 1,
    }
}

fn parse_state_code(c: u8) -> Result<NeoplasticState, CodecError> {
    Ok(match c {
        0 => NeoplasticState::Cancerous,
        1 => NeoplasticState::Normal,
        other => return Err(CodecError(format!("unknown neoplastic state code {other}"))),
    })
}

fn source_code(s: TissueSource) -> u8 {
    match s {
        TissueSource::BulkTissue => 0,
        TissueSource::CellLine => 1,
    }
}

fn parse_source_code(c: u8) -> Result<TissueSource, CodecError> {
    Ok(match c {
        0 => TissueSource::BulkTissue,
        1 => TissueSource::CellLine,
        other => return Err(CodecError(format!("unknown tissue source code {other}"))),
    })
}

fn property_code(p: LibraryProperty) -> u8 {
    match p {
        LibraryProperty::Cancer => 0,
        LibraryProperty::Normal => 1,
        LibraryProperty::BulkTissue => 2,
        LibraryProperty::CellLine => 3,
    }
}

fn parse_property_code(c: u8) -> Result<LibraryProperty, CodecError> {
    Ok(match c {
        0 => LibraryProperty::Cancer,
        1 => LibraryProperty::Normal,
        2 => LibraryProperty::BulkTissue,
        3 => LibraryProperty::CellLine,
        other => return Err(CodecError(format!("unknown library property code {other}"))),
    })
}

fn put_library_meta(out: &mut impl ByteSink, meta: &LibraryMeta) {
    put_str(out, &meta.name);
    put_str(out, meta.tissue.name());
    put_u8(out, state_code(meta.state));
    put_u8(out, source_code(meta.source));
}

fn read_library_meta(cur: &mut Cur) -> Result<LibraryMeta, CodecError> {
    Ok(LibraryMeta {
        name: cur.string("library name")?,
        tissue: TissueType::parse(&cur.string("library tissue")?),
        state: parse_state_code(cur.u8("library state")?)?,
        source: parse_source_code(cur.u8("library source")?)?,
    })
}

fn put_enum_table(out: &mut impl ByteSink, table: &EnumTable) {
    put_str(out, &table.name);
    let m = &table.matrix;
    put_u32(out, m.n_tags() as u32);
    put_u32(out, m.n_libraries() as u32);
    for (_, tag) in m.universe().iter() {
        put_u32(out, tag.code());
    }
    for meta in m.libraries() {
        put_library_meta(out, meta);
    }
    for tid in m.tag_ids() {
        for &v in m.tag_row(tid) {
            put_f64(out, v);
        }
    }
}

fn read_enum_table(cur: &mut Cur) -> Result<EnumTable, CodecError> {
    let name = cur.string("enum table name")?;
    let n_tags = cur.u32("enum tag count")? as usize;
    let n_libs = cur.u32("enum library count")? as usize;
    cur.ensure_elems(n_tags, 4, "enum tag")?;
    let mut tags = Vec::with_capacity(n_tags);
    for _ in 0..n_tags {
        let tag = cur.tag("enum tag")?;
        // Universe order is sorted and duplicate-free by construction;
        // enforcing it here means `TagUniverse::from_tags` below assigns
        // the same ids the rows were written under.
        if let Some(&prev) = tags.last() {
            if tag <= prev {
                return Err(malformed("enum tags out of order"));
            }
        }
        tags.push(tag);
    }
    cur.ensure_elems(n_libs, 6, "enum library")?;
    let mut libraries = Vec::with_capacity(n_libs);
    for _ in 0..n_libs {
        libraries.push(read_library_meta(cur)?);
    }
    cur.ensure_elems(n_tags.saturating_mul(n_libs), 8, "enum value")?;
    // Straight into the matrix's one value buffer, tag-major as written.
    let mut matrix = ExpressionMatrix::zeroed(TagUniverse::from_tags(tags), libraries);
    for t in 0..n_tags as u32 {
        for l in 0..n_libs as u32 {
            matrix.set(TagId(t), LibraryId(l), cur.f64("enum value")?);
        }
    }
    Ok(EnumTable::new(&name, matrix))
}

fn put_sumy_table(out: &mut impl ByteSink, table: &SumyTable) {
    put_str(out, &table.name);
    put_sumy_rows(out, table.rows());
}

fn read_sumy_table(cur: &mut Cur) -> Result<SumyTable, CodecError> {
    let name = cur.string("sumy table name")?;
    Ok(SumyTable::new(&name, read_sumy_rows(cur, true)?))
}

fn put_gap_table(out: &mut impl ByteSink, table: &GapTable) {
    put_str(out, &table.name);
    put_list(out, &table.columns, |out, col| put_str(out, col));
    put_u32(out, table.rows().len() as u32);
    for row in table.rows() {
        put_u32(out, row.tag.code());
        put_u32(out, row.tag_no);
        for gap in &row.gaps {
            match gap {
                Some(v) => {
                    put_u8(out, 1);
                    put_f64(out, *v);
                }
                None => put_u8(out, 0),
            }
        }
    }
}

fn read_gap_table(cur: &mut Cur) -> Result<GapTable, CodecError> {
    let name = cur.string("gap table name")?;
    let columns = cur.list(4, "gap column", |cur| cur.string("gap column name"))?;
    let n_cols = columns.len();
    if n_cols == 0 {
        return Err(malformed("gap table without columns"));
    }
    let n = cur.u32("gap row count")? as usize;
    cur.ensure_elems(n, 8 + n_cols, "gap row")?;
    let mut rows: Vec<GapRow> = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = cur.tag("gap tag")?;
        if let Some(prev) = rows.last() {
            if tag <= prev.tag {
                return Err(malformed("gap rows out of order"));
            }
        }
        let tag_no = cur.u32("gap tag number")?;
        let mut gaps = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            gaps.push(match cur.u8("gap presence flag")? {
                0 => None,
                1 => Some(cur.f64("gap value")?),
                other => return Err(malformed(format!("bad gap presence flag {other}"))),
            });
        }
        rows.push(GapRow { tag, tag_no, gaps });
    }
    Ok(GapTable::new(&name, columns, rows))
}

fn put_fascicle(out: &mut impl ByteSink, rec: &FascicleRecord) {
    put_str(out, &rec.name);
    put_str(out, &rec.dataset);
    put_list(out, &rec.members, |out, m| put_str(out, m));
    put_list(out, &rec.compact_tags, |out, t| put_u32(out, t.code()));
    put_str(out, &rec.sumy_name);
    put_list(out, &rec.purity, |out, &p| put_u8(out, property_code(p)));
    put_str(out, &rec.backend);
    put_list(out, &rec.params, |out, (k, v)| {
        put_str(out, k);
        put_str(out, v);
    });
}

fn read_fascicle(cur: &mut Cur) -> Result<FascicleRecord, CodecError> {
    let name = cur.string("fascicle name")?;
    let dataset = cur.string("fascicle dataset")?;
    let members = cur.list(4, "fascicle member", |cur| cur.string("fascicle member"))?;
    let compact_tags = cur.list(4, "fascicle tag", |cur| cur.tag("fascicle tag"))?;
    let sumy_name = cur.string("fascicle sumy name")?;
    let purity = cur.list(1, "fascicle purity", |cur| {
        parse_property_code(cur.u8("fascicle purity")?)
    })?;
    let backend = cur.string("fascicle backend")?;
    let params = cur.list(8, "fascicle param", |cur| {
        Ok((
            cur.string("fascicle param key")?,
            cur.string("fascicle param value")?,
        ))
    })?;
    Ok(FascicleRecord {
        name,
        dataset,
        members,
        compact_tags,
        sumy_name,
        purity,
        backend,
        params,
    })
}

fn put_report(out: &mut impl ByteSink, report: &CleaningReport) {
    put_u64(out, report.raw_union_tags as u64);
    put_u64(out, report.kept_tags as u64);
    put_u32(out, report.min_tolerance);
    match report.scale_to {
        Some(s) => {
            put_u8(out, 1);
            put_f64(out, s);
        }
        None => put_u8(out, 0),
    }
    put_list(out, &report.removed_fraction_per_library, |out, &f| {
        put_f64(out, f)
    });
    put_f64(out, report.freq1_union_fraction);
}

fn read_report(cur: &mut Cur) -> Result<CleaningReport, CodecError> {
    let raw_union_tags = usize::try_from(cur.u64("report raw tags")?)
        .map_err(|_| malformed("report raw tag count implausible"))?;
    let kept_tags = usize::try_from(cur.u64("report kept tags")?)
        .map_err(|_| malformed("report kept tag count implausible"))?;
    let min_tolerance = cur.u32("report min tolerance")?;
    let scale_to = match cur.u8("report scale flag")? {
        0 => None,
        1 => Some(cur.f64("report scale")?),
        other => return Err(malformed(format!("bad report scale flag {other}"))),
    };
    let removed_fraction_per_library =
        cur.list(8, "report fraction", |cur| cur.f64("report fraction"))?;
    let freq1_union_fraction = cur.f64("report freq1 fraction")?;
    Ok(CleaningReport {
        raw_union_tags,
        kept_tags,
        removed_fraction_per_library,
        freq1_union_fraction,
        min_tolerance,
        scale_to,
    })
}

/// The snapshot body, field by field, into `out` — the compressor when
/// saving, so the raw body is never held.
fn encode_session(session: &GeaSession, out: &mut impl ByteSink) -> Result<(), PersistError> {
    put_source(out, session.source());
    put_list(out, session.enum_tables().values(), put_enum_table);
    put_list(out, session.sumy_tables().values(), put_sumy_table);
    put_list(out, session.gap_tables().values(), put_gap_table);
    put_list(out, session.fascicle_records().values(), put_fascicle);
    put_lineage(out, session.lineage());
    Ok(())
}

/// The lineage as binary records: the next id, then each live node in id
/// order — id, name, kind, operation, parameters, comment, parent ids and
/// the materialized flag — so a load reinstalls the DAG with its own ids.
fn put_lineage(out: &mut impl ByteSink, lineage: &Lineage) {
    put_u32(out, lineage.next_id());
    put_list(out, lineage.iter(), put_node);
}

fn put_node(out: &mut impl ByteSink, node: &LineageNode) {
    put_u32(out, node.id.0);
    put_str(out, &node.name);
    put_str(out, kind_token(node.kind));
    put_str(out, &node.operation);
    put_list(out, &node.params, |out, (k, v)| {
        put_str(out, k);
        put_str(out, v);
    });
    put_str(out, &node.comment);
    put_list(out, &node.parents, |out, p| put_u32(out, p.0));
    put_u8(out, node.materialized as u8);
}

/// Read what [`put_lineage`] wrote and reinstall it through
/// [`Lineage::from_parts`], which refuses ids, names or parents no tracker
/// could hold.
fn read_lineage(cur: &mut Cur) -> Result<Lineage, CodecError> {
    let next_id = cur.u32("lineage next id")?;
    let nodes = cur.list(29, "lineage node", |cur| {
        Ok(LineageNode {
            id: NodeId(cur.u32("lineage node id")?),
            name: cur.string("lineage node name")?,
            kind: parse_kind(&cur.string("lineage node kind")?)?,
            operation: cur.string("lineage node operation")?,
            params: cur.list(8, "lineage node param", |cur| {
                Ok((
                    cur.string("lineage param key")?,
                    cur.string("lineage param value")?,
                ))
            })?,
            comment: cur.string("lineage node comment")?,
            parents: cur.list(4, "lineage node parent", |cur| {
                Ok(NodeId(cur.u32("lineage node parent")?))
            })?,
            materialized: match cur.u8("lineage materialized flag")? {
                0 => false,
                1 => true,
                other => return Err(malformed(format!("bad materialized flag {other}"))),
            },
        })
    })?;
    Lineage::from_parts(nodes, next_id).map_err(|e| malformed(format!("bad lineage: {e}")))
}

/// Key decoded tables by name, refusing a name that repeats.
fn by_name<T>(
    items: Vec<T>,
    name: impl Fn(&T) -> &str,
    what: &str,
) -> Result<BTreeMap<String, T>, CodecError> {
    let mut map = BTreeMap::new();
    for item in items {
        let key = name(&item).to_string();
        if map.contains_key(&key) {
            return Err(malformed(format!("duplicate {what} {key:?}")));
        }
        map.insert(key, item);
    }
    Ok(map)
}

/// The base kind byte of a source cleaned from its corpus: the root is
/// derived again on load, so it is not stored.
const BASE_CLEANED: u8 = 0;
/// The base kind byte of a source over a prepared matrix (`load_matrix`):
/// the matrix follows, as there is no corpus to derive it from.
const BASE_MATRIX: u8 = 1;

/// The session's source, the body's first part: cleaning report, corpus
/// blob, base kind, and the base table only when it cannot be derived.
fn put_source(out: &mut impl ByteSink, source: &SessionSource) {
    put_report(out, &source.report);
    put_corpus_blob(out, &source.corpus);
    match &source.root {
        Root::Cleaned { .. } => put_u8(out, BASE_CLEANED),
        Root::Matrix(base) => {
            put_u8(out, BASE_MATRIX);
            put_enum_table(out, base);
        }
    }
}

/// The corpus in its binary format, as a length-prefixed blob.
fn put_corpus_blob(out: &mut impl ByteSink, corpus: &SageCorpus) {
    put_blob(out, |w| put_corpus(w, corpus));
}

/// Fingerprint of a session's *source data*: the cleaning report (which
/// carries the cleaning configuration), the raw corpus and the base kind —
/// with the base matrix itself when it cannot be derived — encoded with
/// the snapshot codec and FNV-1a-hashed. Two sessions opened from the same
/// corpus with the same cleaning configuration share this value no matter
/// how their derived tables later diverge — the key the server's
/// cross-session response cache shares pure-read replies under.
///
/// The bytes hashed are those [`encode_session`] writes for the source
/// ([`put_source`]), fed to the hash as they are produced.
pub fn corpus_fingerprint(session: &GeaSession) -> Result<u64, PersistError> {
    let mut hash = Fnv1a::default();
    put_source(&mut hash, session.source());
    Ok(hash.0)
}

/// A sink that checks what an encoder writes against the next bytes of a
/// reader. Every encoder writes a field or a buffered chunk of at most a
/// few KiB at a time, so neither side of a comparison is ever a whole
/// table. After the first differing byte, or a stream that ends first, it
/// only remembers that.
struct SameBytes<'c, 'a> {
    cur: &'c mut Cur<'a>,
    same: bool,
}

impl ByteSink for SameBytes<'_, '_> {
    fn put(&mut self, bytes: &[u8]) {
        if self.same {
            self.same = self
                .cur
                .take(bytes.len(), "candidate source")
                .is_ok_and(|held| held == bytes);
        }
    }
}

/// Whether the next bytes of `cur` are [`put_source`]'s encoding of
/// `source`, consuming them if they are.
fn holds_source(cur: &mut Cur, source: &SessionSource) -> bool {
    let mut sink = SameBytes { cur, same: true };
    put_source(&mut sink, source);
    sink.same
}

/// Read a stored body (the bytes after the header) through the inflater.
/// A body whose source part — report, corpus blob, base kind — is the
/// `candidate`'s encoding byte for byte adopts the candidate's `Arc`
/// instead of decoding a second copy. At the first differing byte the
/// same stored bytes are decoded again with no candidate, and so they are
/// after any error past an adopted source (the comparison fills the
/// reader's window at other offsets, so a forged body could fail on
/// another field first): the result, session or error, never depends on
/// the shortcut. Bytes, not the FNV-1a fingerprint: that is an integrity
/// check, not an identity, and a colliding file must never adopt another
/// session's corpus.
fn decode_session(
    stored: &[u8],
    candidate: Option<&Arc<SessionSource>>,
) -> Result<SessionSnapshot, PersistError> {
    let mut body = Cur::streaming(Inflate::new(stored)?);
    let source = match candidate {
        None => Arc::new(read_source(&mut body)?),
        Some(candidate) if holds_source(&mut body, candidate) => Arc::clone(candidate),
        Some(_) => return decode_session(stored, None),
    };
    match read_derived(body, source) {
        Err(_) if candidate.is_some() => decode_session(stored, None),
        read => read,
    }
}

/// Read what [`encode_session`] writes after the source — the named
/// tables, fascicle records and lineage — and require that nothing is
/// left.
fn read_derived(
    mut body: Cur,
    source: Arc<SessionSource>,
) -> Result<SessionSnapshot, PersistError> {
    let cur = &mut body;
    let enums = cur.list(12, "enum map entry", read_enum_table)?;
    let enums = by_name(enums, |t| &t.name, "enum table")?;
    let sumys = cur.list(8, "sumy map entry", read_sumy_table)?;
    let sumys = by_name(sumys, |t| &t.name, "sumy table")?;
    let gaps = cur.list(12, "gap map entry", read_gap_table)?;
    let gaps = by_name(gaps, |t| &t.name, "gap table")?;
    let fascicles = cur.list(16, "fascicle map entry", read_fascicle)?;
    let fascicles = by_name(fascicles, |r| &r.name, "fascicle")?;
    let lineage = read_lineage(cur)?;
    body.finish("snapshot body")?;
    Ok(SessionSnapshot {
        source,
        lineage,
        enums,
        sumys,
        gaps,
        fascicles,
    })
}

/// Read what [`put_source`] wrote. A cleaned source is cleaned again from
/// the stored corpus under the stored report's configuration, and the
/// report it derives must be the stored one, byte for byte.
fn read_source(cur: &mut Cur) -> Result<SessionSource, PersistError> {
    let report = read_report(cur)?;
    let corpus = cur
        .blob_with("corpus blob", read_corpus)
        .map_err(|e| malformed(format!("bad embedded corpus: {e}")))?;
    match cur.u8("base kind")? {
        BASE_CLEANED => {
            let config = CleaningConfig {
                min_tolerance: report.min_tolerance,
                scale_to: report.scale_to,
            };
            let source = SessionSource::clean(corpus, &config);
            let (mut stored, mut derived) = (Vec::new(), Vec::new());
            put_report(&mut stored, &report);
            put_report(&mut derived, &source.report);
            if stored != derived {
                return Err(malformed("stored cleaning report differs from its corpus").into());
            }
            Ok(source)
        }
        BASE_MATRIX if corpus.is_empty() => {
            Ok(SessionSource::from_matrix(read_enum_table(cur)?, report))
        }
        BASE_MATRIX => Err(malformed("a prepared-matrix base beside a corpus").into()),
        other => Err(malformed(format!("unknown base kind {other}")).into()),
    }
}

/// Serialize a session into the exact byte stream a `session.gea` snapshot
/// file holds (magic, version, fingerprint header, compressed body), plus
/// the body fingerprint. This is the wire form of a session: front-ends
/// that migrate sessions between processes (the shard router's rebalance
/// path) ship these bytes and install them with
/// [`session_from_snapshot_bytes`], reusing the spill format end to end.
pub fn snapshot_to_bytes(session: &GeaSession) -> Result<(Vec<u8>, u64), PersistError> {
    let mut header = Vec::new();
    header.extend_from_slice(SNAPSHOT_MAGIC);
    put_u32(&mut header, SNAPSHOT_VERSION);
    put_u64(&mut header, 0);
    let mut body = LzWriter::new(header);
    encode_session(session, &mut body)?;
    let mut out = body.finish();
    // The fingerprint covers the *stored* (compressed) bytes, so integrity
    // is checked before any decompression of untrusted input — and it only
    // holds because the compressor is deterministic.
    let fingerprint = fnv1a(&out[SNAPSHOT_HEADER..]);
    out[SNAPSHOT_HEADER - 8..SNAPSHOT_HEADER].copy_from_slice(&fingerprint.to_le_bytes());
    Ok((out, fingerprint))
}

/// Decode a session from snapshot bytes ([`snapshot_to_bytes`] output or a
/// `session.gea` file read whole). Verification matches the file path
/// exactly: magic, supported version, stored-vs-computed fingerprint, and
/// — when `expected` is given — the fingerprint the sender advertised, so
/// a truncated or substituted transfer is detected before adoption.
pub fn session_from_snapshot_bytes(
    bytes: &[u8],
    expected: Option<u64>,
) -> Result<GeaSession, PersistError> {
    session_from_snapshot_bytes_sharing(bytes, expected, None)
}

/// Like [`session_from_snapshot_bytes`], but a snapshot whose source part
/// ([`put_source`]) is `candidate`'s, byte for byte,
/// shares the candidate's [`SessionSource`] instead of decoding a second
/// copy. The session is the one the candidate-free decode returns, and so
/// is any error.
fn session_from_snapshot_bytes_sharing(
    bytes: &[u8],
    expected: Option<u64>,
    candidate: Option<&Arc<SessionSource>>,
) -> Result<GeaSession, PersistError> {
    let mut cur = Cur::new(bytes);
    let magic = cur.take(4, "snapshot magic")?;
    if magic != SNAPSHOT_MAGIC {
        return Err(malformed("bad magic; not a GEA session snapshot").into());
    }
    let version = cur.u32("snapshot version")?;
    if version != SNAPSHOT_VERSION {
        return Err(malformed(format!("unsupported snapshot version {version}")).into());
    }
    let stored = cur.u64("snapshot fingerprint")?;
    let body = &bytes[SNAPSHOT_HEADER..];
    if fnv1a(body) != stored {
        return Err(malformed("fingerprint mismatch; snapshot is corrupt").into());
    }
    if let Some(want) = expected {
        if want != stored {
            return Err(malformed(format!(
                "snapshot fingerprint {stored:#018x} does not match expected {want:#018x}"
            ))
            .into());
        }
    }
    Ok(GeaSession::from_snapshot(decode_session(body, candidate)?))
}

fn write_snapshot_file(session: &GeaSession, path: &Path) -> Result<u64, PersistError> {
    let (out, fingerprint) = snapshot_to_bytes(session)?;
    fs::write(path, &out)?;
    Ok(fingerprint)
}

/// Save the *complete* session state into `dir`: the browsable CSV +
/// lineage layer of [`save_results`], plus the fidelity-complete binary
/// snapshot ([`SNAPSHOT_FILE`]) that [`load_session`] restores from.
/// Returns the snapshot's fingerprint.
pub fn save_session(session: &GeaSession, dir: &Path) -> Result<u64, PersistError> {
    save_results(session, dir)?;
    write_snapshot_file(session, &dir.join(SNAPSHOT_FILE))
}

fn load_session_checked(
    dir: &Path,
    expected: Option<u64>,
    candidate: Option<&Arc<SessionSource>>,
) -> Result<GeaSession, PersistError> {
    let bytes = fs::read(dir.join(SNAPSHOT_FILE))?;
    session_from_snapshot_bytes_sharing(&bytes, expected, candidate)
}

/// Restore a full [`GeaSession`] from a directory written by
/// [`save_session`] (or [`spill_session`]). Corruption of any kind —
/// truncation, bit flips, a foreign file — yields
/// [`PersistError::Malformed`], never a panic.
pub fn load_session(dir: &Path) -> Result<GeaSession, PersistError> {
    load_session_checked(dir, None, None)
}

/// Like [`load_session`], sharing `candidate` — the source of the session
/// the load replaces — when the snapshot's source part (report, corpus,
/// base kind) is the same, byte for byte. The session is the one
/// [`load_session`] returns, and so is any error.
pub fn load_session_sharing(
    dir: &Path,
    candidate: &Arc<SessionSource>,
) -> Result<GeaSession, PersistError> {
    load_session_checked(dir, None, Some(candidate))
}

/// Like [`load_session`], but additionally require the snapshot's
/// fingerprint to equal `expected` — the server's restore path passes the
/// fingerprint recorded at spill time, so a swapped or re-written file is
/// detected even when internally consistent.
pub fn load_session_verified(dir: &Path, expected: u64) -> Result<GeaSession, PersistError> {
    load_session_checked(dir, Some(expected), None)
}

/// Where a spilled session lives on disk, and the fingerprint to demand
/// back at restore time.
#[derive(Debug, Clone)]
pub struct SpillFile {
    /// Directory holding the session's [`SNAPSHOT_FILE`].
    pub path: PathBuf,
    /// FNV-1a fingerprint of the snapshot body.
    pub fingerprint: u64,
}

/// Spill a session under `name` into `spill_dir` for later transparent
/// restore. Only the binary snapshot is written (the browsable CSV layer
/// is skipped — spills are a hot path). The write goes to a `.tmp`
/// directory first and is renamed into place, so a crash mid-spill leaves
/// no half-written restore source behind.
pub fn spill_session(
    session: &GeaSession,
    spill_dir: &Path,
    name: &str,
) -> Result<SpillFile, PersistError> {
    fs::create_dir_all(spill_dir)?;
    let stem = encode_name(name);
    let final_dir = spill_dir.join(&stem);
    let tmp_dir = spill_dir.join(format!("{stem}.tmp"));
    let _ = fs::remove_dir_all(&tmp_dir);
    fs::create_dir_all(&tmp_dir)?;
    let fingerprint = write_snapshot_file(session, &tmp_dir.join(SNAPSHOT_FILE))?;
    let _ = fs::remove_dir_all(&final_dir);
    fs::rename(&tmp_dir, &final_dir)?;
    Ok(SpillFile {
        path: final_dir,
        fingerprint,
    })
}

/// Delete a spill directory (after a successful restore, or when a spilled
/// session is closed). Best-effort: the spill is advisory state.
pub fn remove_spill(path: &Path) {
    let _ = fs::remove_dir_all(path);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gea_cluster::FascicleParams;
    use gea_relstore::csv::import_csv;
    use gea_relstore::schema::Schema;
    use gea_sage::clean::CleaningConfig;
    use gea_sage::generate::{generate, GeneratorConfig};
    use gea_sage::TissueType;

    /// Mine with a k sweep until fascicles appear.
    fn mine_with_sweep(session: &mut GeaSession, base: &str) -> Vec<String> {
        let n_tags = session.enum_table("Ebrain").unwrap().n_tags();
        for pct in [60usize, 55, 50, 45, 40] {
            let names = session
                .calculate_fascicles(
                    "Ebrain",
                    &format!("{base}{pct}"),
                    0.10,
                    &FascicleParams {
                        min_compact_attrs: n_tags * pct / 100,
                        min_records: 3,
                        batch_size: 6,
                    },
                )
                .unwrap();
            if !names.is_empty() {
                return names;
            }
        }
        panic!("no fascicles in sweep");
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gea_persist_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn name_encoding_is_safe_and_distinct() {
        let names = [
            "plain",
            "with space",
            "uni→code",
            "a%b",
            "Ebrain/2",
            "a%0025b",
        ];
        let stems: std::collections::BTreeSet<String> =
            names.iter().map(|name| encode_name(name)).collect();
        assert_eq!(stems.len(), names.len(), "two names share a stem");
        for stem in &stems {
            assert!(stem
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_-%".contains(c)));
        }
        assert_eq!(encode_name("uni→code"), "uni%2192code");
    }

    /// Re-import one exported table: the CSV under the exported schema
    /// sidecar's column list.
    fn reimport(dir: &Path, name: &str, schema: &Schema) -> gea_relstore::Table {
        let stem = encode_name(name);
        let sidecar = fs::read_to_string(dir.join(format!("{stem}.schema"))).unwrap();
        let exported: Vec<(&str, &str)> = sidecar
            .lines()
            .map(|l| l.split_once('\t').unwrap())
            .collect();
        let declared: Vec<(&str, &str)> = schema
            .columns()
            .iter()
            .map(|c| (c.name.as_str(), dtype_token(c.dtype)))
            .collect();
        assert_eq!(exported, declared, "schema sidecar of {name:?} differs");
        let mut csv = fs::File::open(dir.join(format!("{stem}.csv"))).unwrap();
        import_csv(schema.clone(), &mut csv).unwrap()
    }

    #[test]
    fn exported_results_reimport_identically() {
        let (corpus, _) = generate(&GeneratorConfig::demo(42));
        let mut session = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
        session
            .create_tissue_dataset("Ebrain", &TissueType::Brain)
            .unwrap();
        let names = mine_with_sweep(&mut session, "brainP");
        assert!(!names.is_empty());
        session.comment(&names[0], "persisted comment").unwrap();
        // A contents-only delete exports as an empty table whose lineage
        // node is still there, marked dematerialized.
        let dropped = names.last().unwrap();
        session.delete(dropped, false).unwrap();

        let dir = temp_dir("export");
        save_results(&session, &dir).unwrap();

        // Every table's CSV re-imports with identical contents.
        let db = session.database();
        assert_eq!(db.names(), session.relation_names());
        for name in db.names() {
            let original = db.get(name).unwrap();
            let reloaded = reimport(&dir, name, original.schema());
            assert_eq!(&reloaded, original, "table {name:?} differs");
        }
        assert_eq!(
            reimport(&dir, dropped, db.get(dropped).unwrap().schema()).n_rows(),
            0
        );
        // lineage.txt is the saved session's lineage as `write_lineage`
        // renders it, comment and dematerialized node included.
        let mut want = Vec::new();
        write_lineage(session.lineage(), &mut want).unwrap();
        let text = fs::read_to_string(dir.join("lineage.txt")).unwrap();
        assert_eq!(text.as_bytes(), want);
        let record = |name: &str| {
            let start = text
                .find(&format!("name\t{}\n", encode_name(name)))
                .unwrap();
            text[start..].split("end\n").next().unwrap().to_string()
        };
        assert!(record(&names[0]).contains("op\tFascicles\n"));
        if dropped != &names[0] {
            assert!(record(&names[0]).contains("comment\tpersisted comment\n"));
        }
        assert!(record(dropped).contains("materialized\t0\n"));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The deterministic rich session of `tests/server_smoke.rs`: on demo
    /// seed 42 the 50% mine finds exactly one fascicle pure on cancer, so
    /// every layer of session state (corpus, base, ENUM/SUMY/GAP maps,
    /// fascicles, lineage, comments) gets populated.
    fn rich_session() -> GeaSession {
        use crate::topgap::TopGapOrder;
        use gea_sage::library::LibraryProperty;

        let (corpus, _) = generate(&GeneratorConfig::demo(42));
        let mut session = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
        session
            .create_tissue_dataset("E", &TissueType::Brain)
            .unwrap();
        let n_tags = session.enum_table("E").unwrap().n_tags();
        let names = session
            .calculate_fascicles(
                "E",
                "a",
                0.10,
                &FascicleParams {
                    min_compact_attrs: n_tags * 50 / 100,
                    min_records: 3,
                    batch_size: 6,
                },
            )
            .unwrap();
        assert!(!names.is_empty(), "demo seed 42 mines no fascicle");
        let fascicle = names[0].clone();
        session.purity_check(&fascicle).unwrap();
        let groups = session
            .form_control_groups(&fascicle, LibraryProperty::Cancer)
            .unwrap();
        session
            .create_gap("g", &groups.in_fascicle, &groups.contrast)
            .unwrap();
        session
            .calculate_top_gap("g", 5, TopGapOrder::LargestMagnitude)
            .unwrap();
        session.comment(&fascicle, "spilled comment").unwrap();
        session
    }

    fn assert_sessions_identical(a: &GeaSession, b: &GeaSession) {
        assert_eq!(b.base(), a.base(), "base matrix differs");
        assert_eq!(b.cleaning_report(), a.cleaning_report(), "report differs");
        assert_eq!(b.enum_tables(), a.enum_tables(), "enum tables differ");
        assert_eq!(b.sumy_tables(), a.sumy_tables(), "sumy tables differ");
        assert_eq!(b.gap_tables(), a.gap_tables(), "gap tables differ");
        assert_eq!(
            format!("{:?}", b.fascicle_records()),
            format!("{:?}", a.fascicle_records()),
            "fascicle records differ"
        );
        assert_eq!(b.corpus().len(), a.corpus().len(), "corpus size differs");
        for ((_, la), (_, lb)) in a.corpus().iter().zip(b.corpus().iter()) {
            assert_eq!(lb, la, "corpus library differs");
        }
        assert_eq!(
            b.lineage().render_tree(),
            a.lineage().render_tree(),
            "lineage differs"
        );
        assert_eq!(b.database().len(), a.database().len());
        for name in a.database().names() {
            assert_eq!(
                b.database().get(name).unwrap(),
                a.database().get(name).unwrap(),
                "db table {name:?} differs"
            );
        }
    }

    /// The outcome of one load with no candidate and one with, which must
    /// agree: the same snapshot bytes, or the same error. Returns the
    /// second.
    fn same_outcome(
        plain: Result<GeaSession, PersistError>,
        shared: Result<GeaSession, PersistError>,
    ) -> Result<GeaSession, PersistError> {
        match (&plain, &shared) {
            (Ok(a), Ok(b)) => assert_eq!(
                snapshot_to_bytes(a).unwrap(),
                snapshot_to_bytes(b).unwrap(),
                "the candidate changed the session"
            ),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            _ => panic!(
                "the candidate changed the outcome: {:?} vs {:?}",
                plain.err(),
                shared.err()
            ),
        }
        shared
    }

    fn load_both(dir: &Path, candidate: &Arc<SessionSource>) -> Result<GeaSession, PersistError> {
        same_outcome(load_session(dir), load_session_sharing(dir, candidate))
    }

    fn decode_both(
        bytes: &[u8],
        candidate: &Arc<SessionSource>,
    ) -> Result<GeaSession, PersistError> {
        same_outcome(
            session_from_snapshot_bytes(bytes, None),
            session_from_snapshot_bytes_sharing(bytes, None, Some(candidate)),
        )
    }

    #[test]
    fn a_reload_of_its_own_save_shares_the_source() {
        let session = rich_session();
        let dir = temp_dir("share");
        save_session(&session, &dir).unwrap();
        let shared = load_session_sharing(&dir, session.source()).unwrap();
        assert!(Arc::ptr_eq(shared.source(), session.source()));
        let plain = load_session(&dir).unwrap();
        assert!(!Arc::ptr_eq(plain.source(), session.source()));
        assert_sessions_identical(&plain, &shared);
        // Re-saving the session that shares writes the same file.
        let again = temp_dir("share_again");
        save_session(&shared, &again).unwrap();
        assert!(
            fs::read(dir.join(SNAPSHOT_FILE)).unwrap()
                == fs::read(again.join(SNAPSHOT_FILE)).unwrap(),
            "re-saved snapshot differs"
        );
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&again).unwrap();
    }

    /// A session over a prepared matrix — the demo-42 root, opened as
    /// `load_matrix` does — with a data set selected from it.
    fn matrix_session() -> GeaSession {
        let (corpus, _) = generate(&GeneratorConfig::demo(42));
        let cleaned = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
        let mut session =
            GeaSession::open_matrix(cleaned.base().matrix.clone(), "demo 42").unwrap();
        session
            .create_tissue_dataset("E", &TissueType::Brain)
            .unwrap();
        session
    }

    #[test]
    fn a_candidate_with_another_source_falls_back() {
        // Cleaned sources store no base: a candidate differs in its corpus
        // or, over the same corpus under a stricter cleaning, its report.
        let session = rich_session();
        let (bytes, _) = snapshot_to_bytes(&session).unwrap();
        let plain = session_from_snapshot_bytes(&bytes, None).unwrap();
        let (corpus, _) = generate(&GeneratorConfig::demo(7));
        let other_seed = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
        let stricter = CleaningConfig {
            min_tolerance: 2,
            ..CleaningConfig::default()
        };
        let stricter = GeaSession::open(session.corpus().clone(), &stricter).unwrap();
        assert_ne!(stricter.cleaning_report(), session.cleaning_report());
        let matrix = matrix_session();
        for candidate in [other_seed.source(), stricter.source(), matrix.source()] {
            let loaded = decode_both(&bytes, candidate).unwrap();
            assert!(!Arc::ptr_eq(loaded.source(), candidate));
            assert_sessions_identical(&plain, &loaded);
        }

        // A prepared-matrix source stores its base, so a candidate may
        // differ in the base alone: another matrix under the same report,
        // or the same one with only the last cell changed, which is the
        // last byte compared.
        let (bytes, _) = snapshot_to_bytes(&matrix).unwrap();
        let plain = session_from_snapshot_bytes(&bytes, None).unwrap();
        let source = matrix.source();
        let held = source.held_base().expect("a matrix source holds its base");
        let mut last_cell = held.clone();
        let m = &mut last_cell.matrix;
        let (t, l) = (
            TagId(m.n_tags() as u32 - 1),
            LibraryId(m.n_libraries() as u32 - 1),
        );
        m.set(t, l, m.value(t, l) + 1.0);
        let stricter_base = EnumTable::new("SAGE", stricter.base().matrix.clone());
        assert_ne!(&stricter_base, held);
        for candidate in [
            Arc::new(SessionSource::from_matrix(
                stricter_base,
                source.report.clone(),
            )),
            Arc::new(SessionSource::from_matrix(last_cell, source.report.clone())),
            Arc::clone(session.source()),
        ] {
            let loaded = decode_both(&bytes, &candidate).unwrap();
            assert!(!Arc::ptr_eq(loaded.source(), &candidate));
            assert_sessions_identical(&plain, &loaded);
        }
        let shared = decode_both(&bytes, source).unwrap();
        assert!(Arc::ptr_eq(shared.source(), source));
        assert_sessions_identical(&plain, &shared);
    }

    #[test]
    fn session_snapshot_full_roundtrip() {
        let session = rich_session();
        let dir = temp_dir("snapshot");
        let fp = save_session(&session, &dir).unwrap();
        let restored = load_session(&dir).unwrap();
        assert_sessions_identical(&session, &restored);
        // The verified path accepts the recorded fingerprint and rejects
        // any other.
        assert!(load_session_verified(&dir, fp).is_ok());
        assert!(matches!(
            load_session_verified(&dir, fp ^ 1),
            Err(PersistError::Malformed(_))
        ));
        // A restored session is live, not a browse copy: it can keep
        // deriving new tables from restored state.
        let mut restored = restored;
        restored
            .calculate_top_gap("g", 3, crate::topgap::TopGapOrder::LargestMagnitude)
            .unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_restored_session_keeps_its_lineage_ids() {
        // A cascade delete leaves a gap in the ids: `F` and its node go,
        // and `next_id` stays past them.
        let mut session = rich_session();
        session
            .create_tissue_dataset("F", &TissueType::Breast)
            .unwrap();
        session.delete("F", true).unwrap();
        let (saved, _) = snapshot_to_bytes(&session).unwrap();
        let mut restored = session_from_snapshot_bytes(&saved, None).unwrap();
        let (resaved, _) = snapshot_to_bytes(&restored).unwrap();
        assert!(saved == resaved, "save -> load -> save changed the bytes");
        assert_eq!(restored.lineage().next_id(), session.lineage().next_id());
        // The next table gets the id it gets in the session never saved.
        for s in [&mut session, &mut restored] {
            s.create_tissue_dataset("C", &TissueType::Colon).unwrap();
        }
        let id = |s: &GeaSession| s.lineage().find_by_name("C").unwrap().id;
        assert_eq!(id(&restored), id(&session));
        assert!(snapshot_to_bytes(&restored).unwrap() == snapshot_to_bytes(&session).unwrap());
    }

    #[test]
    fn snapshot_fingerprint_is_deterministic() {
        let session = rich_session();
        let d1 = temp_dir("fp1");
        let d2 = temp_dir("fp2");
        let fp1 = save_session(&session, &d1).unwrap();
        let fp2 = save_session(&session, &d2).unwrap();
        assert_eq!(fp1, fp2, "same session must fingerprint identically");
        fs::remove_dir_all(&d1).unwrap();
        fs::remove_dir_all(&d2).unwrap();

        // Pinned at snapshot version 5, which derives the cleaned base
        // instead of storing it.
        let (bytes, fp) = snapshot_to_bytes(&session).unwrap();
        assert_eq!((fp, bytes.len()), (0x338d_b6b0_6e4b_1315, 910_754));
        // And those bytes are the oracle's over the raw body.
        let mut raw = Vec::new();
        encode_session(&session, &mut raw).unwrap();
        assert_eq!(&bytes[SNAPSHOT_HEADER..], lz_compress(&raw));
    }

    #[test]
    fn corpus_fingerprint_hashes_the_snapshot_bytes_of_the_source() {
        // The streamed hash against the materialized form: the report, the
        // corpus blob and the base kind exactly as `encode_session` lays
        // them out, with the base table after the kind only for a matrix.
        let materialized = |session: &GeaSession, kind: u8| {
            let mut corpus_blob = Vec::new();
            put_corpus(&mut corpus_blob, session.corpus());
            let mut bytes = Vec::new();
            put_report(&mut bytes, session.cleaning_report());
            put_u64(&mut bytes, corpus_blob.len() as u64);
            bytes.extend_from_slice(&corpus_blob);
            bytes.push(kind);
            if kind == BASE_MATRIX {
                put_enum_table(&mut bytes, session.base());
            }
            bytes
        };
        let session = rich_session();
        assert_eq!(
            corpus_fingerprint(&session).unwrap(),
            fnv1a(&materialized(&session, BASE_CLEANED))
        );
        assert!(session.source().held_base().is_none());
        let matrix = matrix_session();
        assert_eq!(
            corpus_fingerprint(&matrix).unwrap(),
            fnv1a(&materialized(&matrix, BASE_MATRIX))
        );

        // Pinned: the server's cross-session cache key for `open … demo 42`
        // (thesis-scale seed 42 is pinned in `tests/thesis_scale.rs`).
        let (corpus, _) = generate(&GeneratorConfig::demo(42));
        let demo = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
        assert_eq!(corpus_fingerprint(&demo).unwrap(), 0x44f7_3170_95bc_5a67);
    }

    #[test]
    fn snapshot_corruption_yields_malformed_not_panic() {
        let session = rich_session();
        let dir = temp_dir("corrupt");
        save_session(&session, &dir).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let clean = fs::read(&path).unwrap();
        // Every case runs with and without the session's own source as the
        // candidate, and must fail the same way both times.
        let own = Arc::clone(session.source());

        // Truncations at assorted prefix lengths.
        for len in [0, 3, 4, 8, 15, 16, 40, clean.len() / 2, clean.len() - 1] {
            fs::write(&path, &clean[..len]).unwrap();
            assert!(
                matches!(load_both(&dir, &own), Err(PersistError::Malformed(_))),
                "truncation to {len} bytes not rejected"
            );
        }

        // A flipped body byte fails the fingerprint.
        let mut flipped = clean.clone();
        let mid = 16 + (clean.len() - 16) / 2;
        flipped[mid] ^= 0xff;
        fs::write(&path, &flipped).unwrap();
        match load_both(&dir, &own) {
            Err(PersistError::Malformed(m)) => assert!(m.contains("fingerprint"), "{m}"),
            Err(other) => panic!("expected fingerprint mismatch, got {other:?}"),
            Ok(_) => panic!("corrupt snapshot loaded"),
        }

        // Structural corruption that *recomputes* the fingerprint must
        // still never panic — decode either rejects it or reads it as
        // different-but-valid data.
        let step = (clean.len() - 16) / 37 + 1;
        for offset in (16..clean.len()).step_by(step) {
            let mut evil = clean.clone();
            evil[offset] ^= 0xff;
            let fp = fnv1a(&evil[16..]);
            evil[8..16].copy_from_slice(&fp.to_le_bytes());
            fs::write(&path, &evil).unwrap();
            let _ = load_both(&dir, &own); // must not panic
        }

        // Bodies that are valid LZSS of a wrong raw body, or whose tokens
        // disagree with the length they declare, re-fingerprinted so they
        // reach the inflater and the decoder: each is Malformed.
        let mut raw = Vec::new();
        encode_session(&session, &mut raw).unwrap();
        let declaring = |raw_len: usize| {
            let mut body = lz_compress(&raw);
            body[..8].copy_from_slice(&(raw_len as u64).to_le_bytes());
            body
        };
        // One byte short of where the body's last match token ends: the
        // inflater meets a match running past the declared length.
        let inside_last_match = {
            let stored = lz_compress(&raw);
            let (mut at, mut inflated, mut cut) = (8, 0, 0);
            while at < stored.len() {
                let flags = stored[at];
                at += 1;
                for bit in 0..8 {
                    if at == stored.len() {
                        break;
                    }
                    if flags & (1 << bit) == 0 {
                        at += 1;
                        inflated += 1;
                    } else {
                        inflated += stored[at + 2] as usize + LZ_MIN_MATCH;
                        at += 3;
                        cut = inflated - 1;
                    }
                }
            }
            cut
        };
        let mut past_the_end = lz_compress(&raw);
        past_the_end.extend_from_slice(&[0, b'x']);
        // The report's library-fraction count (8 bytes each), one element
        // over what the declared body has left after it: refused against
        // the declared length, not the few bytes inflated so far.
        let count_at = 21 + 8 * session.cleaning_report().scale_to.is_some() as usize;
        let over = (raw.len() - count_at - 4) / 8 + 1;
        let mut count_over = raw.clone();
        count_over[count_at..count_at + 4].copy_from_slice(&(over as u32).to_le_bytes());
        // The lineage, the last field, rewritten: `with_lineage` puts
        // `next_id` and `nodes` in place of the session's own, as
        // `put_lineage` would lay them out, without checking them.
        let mut stored_lineage = Vec::new();
        put_lineage(&mut stored_lineage, session.lineage());
        let before_lineage = &raw[..raw.len() - stored_lineage.len()];
        let with_lineage = |next_id: u32, nodes: &[LineageNode]| {
            let mut body = before_lineage.to_vec();
            put_u32(&mut body, next_id);
            put_list(&mut body, nodes, put_node);
            lz_compress(&body)
        };
        let nodes: Vec<LineageNode> = session.lineage().iter().cloned().collect();
        let next_id = session.lineage().next_id();
        let last = nodes.len() - 1;
        let edited = |edit: &dyn Fn(&mut Vec<LineageNode>)| {
            let mut nodes = nodes.clone();
            edit(&mut nodes);
            nodes
        };
        // A parent that names no node at all, and one that names a node
        // the child precedes.
        let dangling = edited(&|n| n[last].parents.push(NodeId(next_id + 7)));
        let (id1, id2) = (nodes[1].id, nodes[2].id);
        let later_parent = edited(&|n| n[1].parents.push(id2));
        let own_parent = edited(&|n| n[1].parents.push(id1));
        let duplicate_id = edited(&|n| n[2].id = id1);
        // Two SUMYs of one fascicle in the wrong order.
        let sumy_at = nodes.iter().position(|n| n.kind == NodeKind::Sumy).unwrap();
        let swapped = edited(&|n| n.swap(sumy_at, sumy_at + 1));
        let duplicate_name = edited(&|n| n[2].name = n[1].name.clone());
        // An unknown kind token (the root's `enum`, respelled), a node
        // count no body could hold, and a materialized flag that is
        // neither 0 nor 1 (the body's last byte).
        let mut unknown_kind = raw.clone();
        let kind_at = before_lineage.len()
            + stored_lineage
                .windows(8)
                .position(|w| w == b"\x04\0\0\0enum")
                .unwrap();
        unknown_kind[kind_at + 4..kind_at + 8].copy_from_slice(b"mune");
        let mut count_max = raw.clone();
        let count_at = before_lineage.len() + 4;
        count_max[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut bad_flag = raw.clone();
        *bad_flag.last_mut().unwrap() = 2;
        // A SUMY table listed twice: the map would keep only one.
        let sumy = session.sumy_tables().values().next().unwrap();
        let mut twin_sumy = Vec::new();
        put_source(&mut twin_sumy, session.source());
        put_list(
            &mut twin_sumy,
            session.enum_tables().values(),
            put_enum_table,
        );
        put_list(&mut twin_sumy, [sumy, sumy], put_sumy_table);
        put_list(&mut twin_sumy, session.gap_tables().values(), put_gap_table);
        put_list(
            &mut twin_sumy,
            session.fascicle_records().values(),
            put_fascicle,
        );
        put_lineage(&mut twin_sumy, session.lineage());
        // Just past the source, the ENUM map count flipped to an
        // implausible one, and a declared length one too long: the reader
        // meets one error or the other depending on where it last
        // refilled, and a candidate must not change which.
        let mut source = Vec::new();
        put_source(&mut source, session.source());
        let mut past_source = raw.clone();
        past_source[source.len()] ^= 0x5a;
        let mut twice_wrong = lz_compress(&past_source);
        twice_wrong[..8].copy_from_slice(&(raw.len() as u64 + 1).to_le_bytes());
        // A corpus blob that declares 4 bytes more than the corpus encoding
        // holds, the 4 being zeros after it: the corpus must end where its
        // blob says.
        let mut report = Vec::new();
        put_report(&mut report, session.cleaning_report());
        let mut corpus = Vec::new();
        put_corpus(&mut corpus, session.corpus());
        let mut padded_corpus = report.clone();
        put_u64(&mut padded_corpus, corpus.len() as u64 + 4);
        padded_corpus.extend_from_slice(&corpus);
        padded_corpus.extend_from_slice(&[0; 4]);
        padded_corpus.extend_from_slice(&raw[report.len() + 8 + corpus.len()..]);
        // The base kind byte forged: to a prepared matrix, which a body
        // with a corpus cannot hold, and to no kind at all.
        let kind_at = report.len() + 8 + corpus.len();
        assert_eq!(raw[kind_at], BASE_CLEANED);
        let forged_kind = |kind: u8| {
            let mut body = raw.clone();
            body[kind_at] = kind;
            lz_compress(&body)
        };
        // A stored report that its corpus does not derive: the tolerance
        // (which keeps fewer tags) or the last bit of the frequency-1
        // fraction changed.
        let tolerance_at = 16;
        let forged_report = |at: usize, edit: fn(u8) -> u8| {
            let mut body = raw.clone();
            body[at] = edit(body[at]);
            lz_compress(&body)
        };
        for (body, want) in [
            (declaring(raw.len() + 1), "truncated input: lz"),
            (
                declaring(inside_last_match),
                "lz match overruns declared body length",
            ),
            (past_the_end, "2 trailing bytes after compressed body"),
            (
                lz_compress(&count_over),
                "implausible report fraction count",
            ),
            (
                with_lineage(next_id, &dangling),
                &format!("bad lineage: parent node {} does not exist", next_id + 7),
            ),
            (
                with_lineage(next_id, &later_parent),
                &format!("bad lineage: parent node {} does not exist", nodes[2].id.0),
            ),
            (
                with_lineage(next_id, &own_parent),
                &format!("bad lineage: parent node {} does not exist", nodes[1].id.0),
            ),
            (
                with_lineage(next_id, &duplicate_id),
                &format!(
                    "bad lineage: node {} does not follow the node before it",
                    nodes[1].id.0
                ),
            ),
            (
                with_lineage(next_id, &swapped),
                &format!(
                    "bad lineage: node {} does not follow the node before it",
                    nodes[sumy_at].id.0
                ),
            ),
            (
                with_lineage(next_id, &duplicate_name),
                &format!(
                    "bad lineage: lineage already tracks a table named {:?}",
                    nodes[1].name
                ),
            ),
            (
                with_lineage(nodes[last].id.0, &nodes),
                &format!(
                    "bad lineage: node {} is not below the next id",
                    nodes[last].id.0
                ),
            ),
            (lz_compress(&unknown_kind), "unknown node kind \"mune\""),
            (
                lz_compress(&count_max),
                "implausible lineage node count 4294967295",
            ),
            (lz_compress(&bad_flag), "bad materialized flag 2"),
            (
                lz_compress(&twin_sumy),
                &format!("duplicate sumy table {:?}", sumy.name),
            ),
            (twice_wrong, "truncated input: lz"),
            (
                lz_compress(&padded_corpus),
                "bad embedded corpus: 4 unread bytes inside corpus blob",
            ),
            (
                forged_kind(BASE_MATRIX),
                "a prepared-matrix base beside a corpus",
            ),
            (forged_kind(7), "unknown base kind 7"),
            (
                forged_report(tolerance_at, |b| b + 1),
                "stored cleaning report differs from its corpus",
            ),
            (
                forged_report(report.len() - 8, |b| b ^ 1),
                "stored cleaning report differs from its corpus",
            ),
        ] {
            let mut file = clean[..SNAPSHOT_HEADER].to_vec();
            file[8..16].copy_from_slice(&fnv1a(&body).to_le_bytes());
            file.extend_from_slice(&body);
            match decode_both(&file, &own) {
                Err(PersistError::Malformed(m)) => assert!(m.contains(want), "{want:?}: {m}"),
                Err(other) => panic!("{want:?}: expected Malformed, got {other:?}"),
                Ok(_) => panic!("{want:?}: loaded"),
            }
        }

        // Wrong magic and unsupported version are rejected up front.
        let mut bad_magic = clean.clone();
        bad_magic[0] = b'X';
        fs::write(&path, &bad_magic).unwrap();
        assert!(matches!(
            load_both(&dir, &own),
            Err(PersistError::Malformed(_))
        ));
        // Versions 4, 3 and 2, the layouts before this one, are refused
        // like any other: there is one version, not a reader per past
        // layout.
        for version in [99u32, 4, 3, 2] {
            let mut bad_version = clean.clone();
            bad_version[4..8].copy_from_slice(&version.to_le_bytes());
            fs::write(&path, &bad_version).unwrap();
            match load_both(&dir, &own) {
                Err(PersistError::Malformed(m)) => {
                    assert_eq!(m, format!("unsupported snapshot version {version}"))
                }
                Err(other) => panic!("expected version rejection, got {other:?}"),
                Ok(_) => panic!("version-skewed snapshot loaded"),
            }
        }

        // A foreign file is malformed, and a missing one is Io.
        fs::write(&path, b"not a snapshot at all").unwrap();
        assert!(matches!(
            load_both(&dir, &own),
            Err(PersistError::Malformed(_))
        ));
        fs::remove_file(&path).unwrap();
        assert!(matches!(load_both(&dir, &own), Err(PersistError::Io(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_matrix_snapshot_keeps_its_base_and_refuses_a_forged_kind() {
        let session = matrix_session();
        let (bytes, _) = snapshot_to_bytes(&session).unwrap();
        let restored = session_from_snapshot_bytes(&bytes, None).unwrap();
        assert!(restored.source().held_base().is_some());
        assert_sessions_identical(&session, &restored);
        // Called a cleaned base, the empty corpus derives another report.
        let mut raw = Vec::new();
        encode_session(&session, &mut raw).unwrap();
        let mut report = Vec::new();
        put_report(&mut report, session.cleaning_report());
        let mut corpus = Vec::new();
        put_corpus(&mut corpus, session.corpus());
        let kind_at = report.len() + 8 + corpus.len();
        assert_eq!(raw[kind_at], BASE_MATRIX);
        raw[kind_at] = BASE_CLEANED;
        let body = lz_compress(&raw);
        let mut file = bytes[..SNAPSHOT_HEADER].to_vec();
        file[8..16].copy_from_slice(&fnv1a(&body).to_le_bytes());
        file.extend_from_slice(&body);
        match session_from_snapshot_bytes(&file, None) {
            Err(PersistError::Malformed(m)) => {
                assert!(m.contains("stored cleaning report differs"), "{m}")
            }
            Err(other) => panic!("expected Malformed, got {other:?}"),
            Ok(_) => panic!("a forged base kind loaded"),
        }
    }

    /// The whole-buffer LZSS compressor, kept as the reference the
    /// streaming [`LzWriter`] must match byte for byte.
    fn lz_compress(raw: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(raw.len() / 2 + 16);
        put_u64(&mut out, raw.len() as u64);
        let mut table = vec![0usize; LZ_SLOTS];
        let mut i = 0;
        while i < raw.len() {
            let flag_pos = out.len();
            out.push(0);
            let mut flags = 0u8;
            let mut bit = 0;
            while bit < 8 && i < raw.len() {
                let mut emitted = false;
                if i + LZ_MIN_MATCH <= raw.len() {
                    let slot = lz_slot(raw, i);
                    let prev = table[slot];
                    let offset = i - prev;
                    if (1..=LZ_MAX_OFFSET).contains(&offset) {
                        let limit = (raw.len() - i).min(LZ_MAX_MATCH);
                        let mut len = 0;
                        while len < limit && raw[prev + len] == raw[i + len] {
                            len += 1;
                        }
                        if len >= LZ_MIN_MATCH {
                            flags |= 1 << bit;
                            out.extend_from_slice(&(offset as u16).to_le_bytes());
                            out.push((len - LZ_MIN_MATCH) as u8);
                            let stop = (i + len).min(raw.len().saturating_sub(LZ_MIN_MATCH - 1));
                            for j in i..stop {
                                table[lz_slot(raw, j)] = j;
                            }
                            i += len;
                            emitted = true;
                        }
                    }
                    if !emitted {
                        table[slot] = i;
                    }
                }
                if !emitted {
                    out.push(raw[i]);
                    i += 1;
                }
                bit += 1;
            }
            out[flag_pos] = flags;
        }
        out
    }

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// A piece size from 1 byte to 256 KiB, log-uniform in scale.
    fn piece(x: &mut u64) -> usize {
        let scale = 1u64 << (xorshift(x) % 19);
        (xorshift(x) % scale) as usize + 1
    }

    /// `raw` through the streaming encoder, fed in random-size pieces.
    fn compress_in_pieces(raw: &[u8], seed: u64) -> Vec<u8> {
        let mut writer = LzWriter::new(Vec::new());
        let (mut x, mut rest) = (seed, raw);
        while !rest.is_empty() {
            let n = piece(&mut x).min(rest.len());
            writer.put(&rest[..n]);
            rest = &rest[n..];
        }
        writer.finish()
    }

    /// `stored` through the streaming reader, taken in random-size pieces.
    fn inflate_in_pieces(stored: &[u8], seed: u64) -> Result<Vec<u8>, PersistError> {
        let mut cur = Cur::streaming(Inflate::new(stored)?);
        let (mut out, mut x) = (Vec::new(), seed);
        while !cur.done() {
            let n = piece(&mut x).min(cur.remaining());
            out.extend_from_slice(cur.take(n, "piece")?);
        }
        cur.finish("compressed body")?;
        Ok(out)
    }

    #[test]
    fn lz_roundtrip_is_lossless_and_deterministic() {
        let mut x = 0x9e37_79b9_7f4a_7c15;
        let noise = |n: usize, x: &mut u64| (0..n).map(|_| xorshift(x) as u8).collect::<Vec<_>>();
        let near = noise(65_000, &mut x);
        let far = noise(70_000, &mut x);
        let cases: Vec<Vec<u8>> = vec![
            Vec::new(),
            vec![7],
            b"abcabcabcabcabcabc".to_vec(),
            vec![0u8; 10_000],
            (0..=255u8).cycle().take(4096).collect(),
            b"no repeats here: qwertyuiop".to_vec(),
            // Overlapping match territory: run-length data.
            [b"aaaaab".as_slice(), &[b'a'; 500], b"tail".as_slice()].concat(),
            // Repeats just inside and just outside the 65 535-byte reach.
            [&near[..], &near[..], &far[..], &far[..]].concat(),
            // Over 2 MiB, so both windows drain many times: zero-heavy like
            // a snapshot body (a sparse f64 matrix) — far more distinct
            // prefixes than table slots — with runs of noise between.
            (0..300_000u64)
                .flat_map(|i| {
                    let cell = match i % 7 {
                        0 => i * 2_654_435_761,
                        3 if i % 5_000 < 300 => xorshift(&mut x),
                        _ => 0,
                    };
                    cell.to_le_bytes()
                })
                .collect(),
        ];
        for (seed, raw) in (1u64..).zip(&cases) {
            let oracle = lz_compress(raw);
            let streamed = compress_in_pieces(raw, seed);
            assert_eq!(streamed, oracle, "streaming differs from the oracle");
            assert_eq!(compress_in_pieces(raw, seed + 99), oracle);
            assert_eq!(&inflate_in_pieces(&oracle, seed).unwrap(), raw);
        }
        // Redundant data actually shrinks.
        let zeros = lz_compress(&vec![0u8; 10_000]);
        assert!(zeros.len() < 1_000, "10k zeros stored as {}", zeros.len());
    }

    #[test]
    fn lz_inflate_rejects_garbage_without_panicking() {
        let inflate = |stored: &[u8]| inflate_in_pieces(stored, 7);
        // Truncated header, implausible raw_len, bad offsets, overruns.
        assert!(inflate(&[]).is_err());
        assert!(inflate(&[1, 2, 3]).is_err());
        let mut huge = Vec::new();
        put_u64(&mut huge, u64::MAX);
        assert!(inflate(&huge).is_err());
        let mut claims_much = Vec::new();
        put_u64(&mut claims_much, 1_000_000);
        claims_much.push(0);
        claims_much.push(b'x');
        assert!(inflate(&claims_much).is_err());
        // A match token pointing before the start of output.
        let mut bad_offset = Vec::new();
        put_u64(&mut bad_offset, 10);
        bad_offset.push(0b0000_0001); // first token is a match
        bad_offset.extend_from_slice(&5u16.to_le_bytes());
        bad_offset.push(0);
        assert!(inflate(&bad_offset).is_err());

        let text = b"the quick brown fox jumps over the lazy dog, twice over";
        let valid = lz_compress(text);
        assert_eq!(inflate(&valid).unwrap(), text);
        let declaring = |raw_len: u64| {
            let mut stored = valid.clone();
            stored[..8].copy_from_slice(&raw_len.to_le_bytes());
            stored
        };
        // Tokens that end before the declared length.
        let short = inflate(&declaring(text.len() as u64 + 1)).unwrap_err();
        assert!(short.to_string().contains("truncated"), "{short}");
        // Tokens that continue past it: a whole extra group, or the last
        // token's bytes once the length is one short.
        let mut extra = valid.clone();
        extra.extend_from_slice(&[0, b'x']);
        let long = inflate(&extra).unwrap_err();
        assert!(long.to_string().contains("trailing"), "{long}");
        assert!(inflate(&declaring(text.len() as u64 - 1)).is_err());

        // An element count is checked against the raw bytes the stream
        // still declares, not the few it has inflated: 25 four-byte
        // elements need 100 bytes.
        let counted = |body: usize| {
            let mut raw = 25u32.to_le_bytes().to_vec();
            raw.resize(4 + body, 0);
            let stored = lz_compress(&raw);
            let mut cur = Cur::streaming(Inflate::new(&stored).unwrap());
            cur.count(4, "element").map(|_| ()).map_err(|e| e.0)
        };
        assert!(counted(100).is_ok());
        let over = counted(99).unwrap_err();
        assert!(over.contains("implausible element count 25"), "{over}");

        // Fuzz-ish: corrupt every byte of a valid stream in turn.
        for i in 0..valid.len() {
            let mut evil = valid.clone();
            evil[i] ^= 0xff;
            let _ = inflate(&evil); // must not panic
        }
    }

    #[test]
    fn snapshots_carry_backend_provenance() {
        let session = rich_session();
        let dir = temp_dir("prov");
        save_session(&session, &dir).unwrap();
        let restored = load_session(&dir).unwrap();
        for (name, rec) in restored.fascicle_records() {
            let orig = &session.fascicle_records()[name];
            assert_eq!(rec.backend, orig.backend, "{name}: backend lost");
            assert_eq!(rec.params, orig.params, "{name}: params lost");
            assert!(!rec.backend.is_empty());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spill_roundtrip_and_cleanup() {
        let session = rich_session();
        let spill_dir = temp_dir("spill");
        let spilled = spill_session(&session, &spill_dir, "weird name/πσ").unwrap();
        assert!(spilled.path.starts_with(&spill_dir));
        assert!(spilled.path.join(SNAPSHOT_FILE).exists());
        // Spills skip the browsable CSV layer.
        assert!(!spilled.path.join("lineage.txt").exists());
        let restored = load_session_verified(&spilled.path, spilled.fingerprint).unwrap();
        assert_sessions_identical(&session, &restored);
        // Re-spilling the same name replaces the old spill atomically.
        let again = spill_session(&session, &spill_dir, "weird name/πσ").unwrap();
        assert_eq!(again.path, spilled.path);
        assert_eq!(again.fingerprint, spilled.fingerprint);
        remove_spill(&spilled.path);
        assert!(!spilled.path.exists());
        fs::remove_dir_all(&spill_dir).unwrap();
    }
}
