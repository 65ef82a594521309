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
//! Neither direction holds the whole body. `save` encodes every field
//! straight into the file through one buffered writer, folding the body
//! into its fingerprint as it goes, and patches the fingerprint into the
//! header last; `load` reads every field through one [`Cur`] that streams
//! the file a window at a time and hashes what it reads, and returns a
//! session only if that hash is the header's.

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
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
    put_blob, put_f64, put_list, put_str, put_sumy_rows, put_u32, put_u64, put_u8, read_sumy_rows,
    ByteCount, ByteSink, CodecError, Cur, Fnv1a,
};
use crate::enum_table::EnumTable;
use crate::gap::{GapRow, GapTable};
use crate::lineage::{Lineage, LineageNode, NodeId, NodeKind};
use crate::session::{FascicleRecord, GeaError, GeaSession, Root, SessionSnapshot, SessionSource};
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

/// A derived table whose definition no longer resolves cannot be written.
impl From<GeaError> for PersistError {
    fn from(e: GeaError) -> PersistError {
        PersistError::Malformed(e.to_string())
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
/// The one snapshot version written and read. The body is the codec's
/// bytes as [`encode_session`] writes them, in order: cleaning report,
/// corpus blob, the base kind byte ([`put_source`]; the base ENUM table
/// follows it only for a session opened over a prepared matrix), then the
/// counted lists of ENUM, SUMY and GAP tables and fascicle records (each
/// with its mining backend and resolved parameters), then the lineage: the
/// next node id and the counted list of live nodes ([`put_lineage`]). Node
/// ids and the next id are restored verbatim, so a loaded session records
/// its next table under the id the saved one would have used.
const SNAPSHOT_VERSION: u32 = 6;
/// Magic, version and fingerprint (FNV-1a over the body); the body
/// follows.
const SNAPSHOT_HEADER: usize = 16;

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

/// The snapshot body, field by field, into `out` — the file itself when
/// saving, so the body is never held. A derived ENUM or SUMY not built yet
/// is built for its bytes and dropped before the next, so writing a
/// session builds at most one table at a time and leaves it as it was.
fn encode_session(session: &GeaSession, out: &mut impl ByteSink) -> Result<(), PersistError> {
    put_source(out, session.source());
    put_u32(out, session.enum_names().len() as u32);
    for name in session.enum_names() {
        put_enum_table(out, &*session.enum_view(name)?);
    }
    put_u32(out, session.sumy_names().len() as u32);
    for name in session.sumy_names() {
        put_sumy_table(out, &*session.sumy_view(name)?);
    }
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

/// Decode the body `open` opens, and require that the body's FNV-1a is
/// the fingerprint it opens with. Every byte is read and hashed before
/// anything is returned, decoded or not, so a body that fails the
/// fingerprint answers that, whatever its decode did, and a session comes
/// only from bytes that match it — even when the file changes between two
/// opens.
///
/// A body whose source part — report, corpus blob, base kind — is the
/// `candidate`'s encoding byte for byte adopts the candidate's `Arc`
/// instead of decoding a second copy. At the first differing byte the body
/// is opened again and decoded from the start with no candidate, and so it
/// is after any error past an adopted source: the result, session or
/// error, never depends on the shortcut. Bytes, not the FNV-1a
/// fingerprint: that is an integrity check, not an identity, and a
/// colliding file must never adopt another session's corpus.
fn decode_session<'a>(
    open: &dyn Fn() -> Result<(Cur<'a>, u64), PersistError>,
    candidate: Option<&Arc<SessionSource>>,
) -> Result<SessionSnapshot, PersistError> {
    let (mut body, fingerprint) = open()?;
    let decoded = match candidate {
        None => read_source(&mut body).map(Arc::new),
        Some(candidate) if holds_source(&mut body, candidate) => Ok(Arc::clone(candidate)),
        Some(_) => return decode_session(open, None),
    }
    .and_then(|source| read_derived(&mut body, source));
    if body.fingerprint()? != fingerprint {
        return Err(malformed("fingerprint mismatch; snapshot is corrupt").into());
    }
    match decoded {
        Err(_) if candidate.is_some() => decode_session(open, None),
        decoded => decoded,
    }
}

/// Read what [`encode_session`] writes after the source — the named
/// tables, fascicle records and lineage — and require that nothing is
/// left.
fn read_derived(
    cur: &mut Cur,
    source: Arc<SessionSource>,
) -> Result<SessionSnapshot, PersistError> {
    let enums = cur.list(12, "enum map entry", read_enum_table)?;
    let enums = by_name(enums, |t| &t.name, "enum table")?;
    let sumys = cur.list(8, "sumy map entry", read_sumy_table)?;
    let sumys = by_name(sumys, |t| &t.name, "sumy table")?;
    let gaps = cur.list(12, "gap map entry", read_gap_table)?;
    let gaps = by_name(gaps, |t| &t.name, "gap table")?;
    let fascicles = cur.list(16, "fascicle map entry", read_fascicle)?;
    let fascicles = by_name(fascicles, |r| &r.name, "fascicle")?;
    let lineage = read_lineage(cur)?;
    cur.finish("snapshot body")?;
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

/// The header: magic, version and the body's fingerprint.
fn header(fingerprint: u64) -> Vec<u8> {
    let mut header = SNAPSHOT_MAGIC.to_vec();
    put_u32(&mut header, SNAPSHOT_VERSION);
    put_u64(&mut header, fingerprint);
    header
}

/// Read a header off the front of `cur`: the magic, the one supported
/// version, and the fingerprint, which must be `expected` when one is
/// given.
fn read_header(cur: &mut Cur, expected: Option<u64>) -> Result<u64, PersistError> {
    if cur.take(4, "snapshot magic")? != SNAPSHOT_MAGIC {
        return Err(malformed("bad magic; not a GEA session snapshot").into());
    }
    let version = cur.u32("snapshot version")?;
    if version != SNAPSHOT_VERSION {
        return Err(malformed(format!("unsupported snapshot version {version}")).into());
    }
    let stored = cur.u64("snapshot fingerprint")?;
    match expected {
        Some(want) if want != stored => Err(malformed(format!(
            "snapshot fingerprint {stored:#018x} does not match expected {want:#018x}"
        ))
        .into()),
        _ => Ok(stored),
    }
}

/// The sink a snapshot is written through: each byte goes to `out` and
/// the body's into the fingerprint. The encoders cannot fail, so the
/// first write error is kept and the bytes after it dropped.
struct SnapshotSink<W: Write> {
    out: W,
    hash: Fnv1a,
    failed: Option<std::io::Error>,
}

impl<W: Write> ByteSink for SnapshotSink<W> {
    fn put(&mut self, bytes: &[u8]) {
        self.hash.put(bytes);
        if self.failed.is_none() {
            self.failed = self.out.write_all(bytes).err();
        }
    }
}

/// Write the header, with the fingerprint left 0, and the body into `out`.
/// Returns `out` and the fingerprint, for the caller to patch in.
fn write_snapshot<W: Write>(session: &GeaSession, mut out: W) -> Result<(W, u64), PersistError> {
    out.write_all(&header(0))?;
    let mut sink = SnapshotSink {
        out,
        hash: Fnv1a::default(),
        failed: None,
    };
    encode_session(session, &mut sink)?;
    match sink.failed {
        Some(e) => Err(e.into()),
        None => Ok((sink.out, sink.hash.0)),
    }
}

/// Serialize a session into the exact byte stream a `session.gea` snapshot
/// file holds (magic, version, fingerprint header, body), plus the body
/// fingerprint. This is the wire form of a session: front-ends that
/// migrate sessions between processes (the shard router's rebalance path)
/// ship these bytes and install them with [`session_from_snapshot_bytes`],
/// reusing the spill format end to end. A counting pass sizes the buffer
/// first, so it is allocated once.
pub fn snapshot_to_bytes(session: &GeaSession) -> Result<(Vec<u8>, u64), PersistError> {
    let mut len = ByteCount::default();
    encode_session(session, &mut len)?;
    let exact = Vec::with_capacity(SNAPSHOT_HEADER + len.0 as usize);
    let (mut bytes, fingerprint) = write_snapshot(session, exact)?;
    bytes[..SNAPSHOT_HEADER].copy_from_slice(&header(fingerprint));
    Ok((bytes, fingerprint))
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
    let open = || {
        let fingerprint = read_header(&mut Cur::new(bytes), expected)?;
        Ok((Cur::new(&bytes[SNAPSHOT_HEADER..]), fingerprint))
    };
    Ok(GeaSession::from_snapshot(decode_session(&open, candidate)?))
}

/// Write a snapshot file: header and body streamed through one buffered
/// writer, then the fingerprint patched into the header.
fn write_snapshot_file(session: &GeaSession, path: &Path) -> Result<u64, PersistError> {
    let file = BufWriter::with_capacity(1 << 16, fs::File::create(path)?);
    let (file, fingerprint) = write_snapshot(session, file)?;
    let mut file = file.into_inner().map_err(|e| e.into_error())?;
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&header(fingerprint))?;
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

/// Load `dir`'s snapshot file, streaming the body from the file: the
/// header is read first, then the declared rest through a [`Cur`] that
/// holds a window of it.
fn load_session_checked(
    dir: &Path,
    expected: Option<u64>,
    candidate: Option<&Arc<SessionSource>>,
) -> Result<GeaSession, PersistError> {
    let path = dir.join(SNAPSHOT_FILE);
    let open = || {
        let mut file = fs::File::open(&path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| malformed("snapshot file too large"))?;
        let mut head = vec![0; len.min(SNAPSHOT_HEADER)];
        file.read_exact(&mut head)?;
        let fingerprint = read_header(&mut Cur::new(&head), expected)?;
        Ok((Cur::streaming(file, len - SNAPSHOT_HEADER), fingerprint))
    };
    Ok(GeaSession::from_snapshot(decode_session(&open, candidate)?))
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
    use crate::codec::fnv1a;
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

    /// Every ENUM table of `s` as a save writes it, derived ones built.
    fn enums_of(s: &GeaSession) -> Vec<EnumTable> {
        let view = |name| s.enum_view(name).unwrap().into_owned();
        s.enum_names().map(view).collect()
    }

    /// Every SUMY table of `s` as a save writes it, derived ones built.
    fn sumys_of(s: &GeaSession) -> Vec<SumyTable> {
        let view = |name| s.sumy_view(name).unwrap().into_owned();
        s.sumy_names().map(view).collect()
    }

    fn assert_sessions_identical(a: &GeaSession, b: &GeaSession) {
        assert_eq!(b.base(), a.base(), "base matrix differs");
        assert_eq!(b.cleaning_report(), a.cleaning_report(), "report differs");
        assert_eq!(enums_of(b), enums_of(a), "enum tables differ");
        assert_eq!(sumys_of(b), sumys_of(a), "sumy tables differ");
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

        // Pinned at snapshot version 6, whose body is the codec's bytes.
        let (bytes, fp) = snapshot_to_bytes(&session).unwrap();
        assert_eq!((fp, bytes.len()), (0x2d17_111f_1934_4970, 1_759_237));
        // The body is exactly what `encode_session` writes, and the buffer
        // was sized to it.
        let mut raw = Vec::new();
        encode_session(&session, &mut raw).unwrap();
        assert!(bytes[SNAPSHOT_HEADER..] == raw);
        assert_eq!(bytes.capacity(), bytes.len());
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

        // Bodies that are wrong where the decoder must notice, given their
        // own fingerprint so they reach it: each is Malformed.
        let mut raw = Vec::new();
        encode_session(&session, &mut raw).unwrap();
        // Two bytes after the lineage, and the body one byte short.
        let past_the_end = [&raw[..], &[0, b'x']].concat();
        let short = raw[..raw.len() - 1].to_vec();
        // The report's library-fraction count (8 bytes each), one element
        // over what the body has left after it: refused against the
        // declared length, not the window read so far.
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
            body
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
        let sumys = sumys_of(&session);
        let sumy = &sumys[0];
        let mut twin_sumy = Vec::new();
        put_source(&mut twin_sumy, session.source());
        put_list(&mut twin_sumy, &enums_of(&session), put_enum_table);
        put_list(&mut twin_sumy, [sumy, sumy], put_sumy_table);
        put_list(&mut twin_sumy, session.gap_tables().values(), put_gap_table);
        put_list(
            &mut twin_sumy,
            session.fascicle_records().values(),
            put_fascicle,
        );
        put_lineage(&mut twin_sumy, session.lineage());
        // Just past the source, the ENUM map count flipped: the candidate's
        // source is adopted before the reader meets it, and must not change
        // the error.
        let mut source = Vec::new();
        put_source(&mut source, session.source());
        let mut past_source = raw.clone();
        past_source[source.len()] ^= 0x5a;
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
            body
        };
        // A stored report that its corpus does not derive: the tolerance
        // (which keeps fewer tags) or the last bit of the frequency-1
        // fraction changed.
        let tolerance_at = 16;
        let forged_report = |at: usize, edit: fn(u8) -> u8| {
            let mut body = raw.clone();
            body[at] = edit(body[at]);
            body
        };
        for (body, want) in [
            (past_the_end, "2 trailing bytes after snapshot body"),
            (short, "truncated input: lineage materialized flag"),
            (count_over, "implausible report fraction count"),
            (past_source, "implausible enum tag count"),
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
            (unknown_kind, "unknown node kind \"mune\""),
            (count_max, "implausible lineage node count 4294967295"),
            (bad_flag, "bad materialized flag 2"),
            (twin_sumy, &format!("duplicate sumy table {:?}", sumy.name)),
            (
                padded_corpus,
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
            let mut file = header(fnv1a(&body));
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
        // Versions 5 to 2, the layouts before this one, are refused
        // like any other: there is one version, not a reader per past
        // layout.
        for version in [99u32, 5, 4, 3, 2] {
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
        let mut file = header(fnv1a(&raw));
        file.extend_from_slice(&raw);
        match session_from_snapshot_bytes(&file, None) {
            Err(PersistError::Malformed(m)) => {
                assert!(m.contains("stored cleaning report differs"), "{m}")
            }
            Err(other) => panic!("expected Malformed, got {other:?}"),
            Ok(_) => panic!("a forged base kind loaded"),
        }
    }

    /// Seeded mutations in the battery, spread over its four kinds.
    const N_SEEDED: usize = 24;

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// Where each `put` of an encoding starts, and how many bytes it puts.
    #[derive(Default)]
    struct Fields {
        at: Vec<(usize, usize)>,
        len: usize,
    }

    impl ByteSink for Fields {
        fn put(&mut self, bytes: &[u8]) {
            self.at.push((self.len, bytes.len()));
            self.len += bytes.len();
        }
    }

    #[test]
    fn a_seeded_mutation_battery_loads_alike_from_the_file_and_the_bytes() {
        let session = rich_session();
        let own = Arc::clone(session.source());
        let mut body = Vec::new();
        encode_session(&session, &mut body).unwrap();
        let mut fields = Fields::default();
        encode_session(&session, &mut fields).unwrap();
        let wide = |n: usize| -> Vec<usize> {
            let at = fields.at.iter().filter(|&&(_, len)| len == n);
            at.map(|&(at, _)| at).collect()
        };
        let (u32s, u64s) = (wide(4), wide(8));
        // The report's `u32`s (before the corpus blob), the four table-map
        // counts and a seeded sixth of the lineage's `u32`s (the last
        // field): nearly all of them counts or string lengths.
        let mut prefix = Vec::new();
        put_report(&mut prefix, session.cleaning_report());
        let corpus_at = prefix.len();
        prefix.clear();
        put_source(&mut prefix, session.source());
        let mut counts = vec![prefix.len()];
        put_list(&mut prefix, &enums_of(&session), put_enum_table);
        counts.push(prefix.len());
        put_list(&mut prefix, &sumys_of(&session), put_sumy_table);
        counts.push(prefix.len());
        put_list(&mut prefix, session.gap_tables().values(), put_gap_table);
        counts.push(prefix.len());
        put_list(
            &mut prefix,
            session.fascicle_records().values(),
            put_fascicle,
        );
        let lineage_at = prefix.len();
        counts.extend(u32s.iter().filter(|&&at| at < corpus_at));
        let mut x = 0x2545_f491_4f6c_dd1d;
        let lineage = u32s.iter().filter(|&&at| at >= lineage_at);
        counts.extend(lineage.filter(|_| xorshift(&mut x).is_multiple_of(6)));

        // Each mutated body gets its own fingerprint, so it reaches the
        // decoder on both paths.
        let dir = temp_dir("battery");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        // A loaded session is known by its snapshot fingerprint.
        let outcome = |loaded: Result<GeaSession, PersistError>| match loaded {
            Ok(s) => {
                let mut hash = Fnv1a::default();
                encode_session(&s, &mut hash).unwrap();
                Ok(hash.0)
            }
            Err(PersistError::Malformed(m)) => Err(m),
            Err(other) => panic!("expected Malformed, got {other:?}"),
        };
        let pick = |x: &mut u64, n: usize| (xorshift(x) % n as u64) as usize;
        let seeded = (0..N_SEEDED).map(|i| {
            let mut evil = body.clone();
            match i % 4 {
                0 => evil[pick(&mut x, body.len())] ^= 1 << (xorshift(&mut x) % 8),
                1 => evil.truncate(pick(&mut x, body.len())),
                2 => {
                    let at = u32s[pick(&mut x, u32s.len())];
                    evil[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                }
                _ => {
                    let at = u64s[pick(&mut x, u64s.len())];
                    evil[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
                }
            }
            evil
        });
        let maxed = counts.into_iter().map(|at| {
            let mut evil = body.clone();
            evil[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            evil
        });
        let corpus_len = {
            let mut evil = body.clone();
            evil[corpus_at..corpus_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            evil
        };
        let (mut loaded, mut refused) = (0, 0);
        for (i, evil) in seeded.chain(maxed).chain([corpus_len]).enumerate() {
            let mut file = header(fnv1a(&evil));
            file.extend_from_slice(&evil);
            fs::write(&path, &file).unwrap();
            // Half the cases offer the session's own source on one path.
            let candidate = (i % 2 == 0).then_some(&own);
            let from_file = outcome(load_session_checked(&dir, None, candidate));
            let from_bytes = outcome(session_from_snapshot_bytes_sharing(
                &file,
                None,
                candidate.xor(Some(&own)),
            ));
            assert_eq!(from_file, from_bytes, "mutation {i}");
            match from_file {
                Ok(_) => loaded += 1,
                Err(_) => refused += 1,
            }
        }
        // Some mutations are other valid data (a flipped value bit); most
        // are refused.
        assert!(
            loaded > 0 && refused > loaded,
            "{loaded} loaded, {refused} refused"
        );
        fs::remove_dir_all(&dir).unwrap();
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
