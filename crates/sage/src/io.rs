//! On-disk SAGE formats.
//!
//! The thesis loads SAGE libraries from a directory of plain-text files (one
//! per library, listed in an index file `sageName.txt`) and also keeps a
//! binary copy (`file.b`) for the fascicle miner, "because reading a large
//! amount of data from a plain text file proves faster than from a database"
//! (§4.3.1.2). We reproduce both:
//!
//! * **Library text format** — one `TAG<TAB>count` line per tag.
//! * **Index format** — one line per library:
//!   `name<TAB>tissue<TAB>state<TAB>source<TAB>filename`.
//! * **Corpus binary format** — a blob in the [`crate::codec`] primitives
//!   with magic `GEAB`, holding every library's metadata and packed
//!   `(tag code, count)` pairs: what `session.gea`, spill files and router
//!   resync embed.

use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

use crate::codec::{put_str, put_u32, ByteSink, CodecError, Cur};
use crate::corpus::SageCorpus;
use crate::library::{
    CountOverflow, LibraryMeta, NeoplasticState, SageLibrary, TissueSource, TissueType,
};
use crate::tag::Tag;

/// Errors raised by the readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// A line or field did not parse; carries file context and detail.
    Malformed {
        /// File or stream the error occurred in.
        context: String,
        /// Human-readable description of the problem.
        detail: String,
    },
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> IoError {
        IoError::Io(e)
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Malformed { context, detail } => {
                write!(f, "malformed input in {context}: {detail}")
            }
        }
    }
}

impl std::error::Error for IoError {}

fn malformed(context: &str, detail: impl Into<String>) -> IoError {
    IoError::Malformed {
        context: context.to_string(),
        detail: detail.into(),
    }
}

/// Serialize one library as `TAG<TAB>count` lines in tag order.
pub fn write_library_text(lib: &SageLibrary, w: &mut impl Write) -> io::Result<()> {
    let mut out = io::BufWriter::new(w);
    for (tag, count) in lib.iter() {
        writeln!(out, "{tag}\t{count}")?;
    }
    out.flush()
}

/// One line of a library text: `None` for a blank or `#` line, the
/// `(tag, count)` of a data line, or why the line does not parse.
fn parse_count_line(line: &str) -> Result<Option<(Tag, u32)>, String> {
    let mut fields = line.split_whitespace();
    let Some(tag_s) = fields.next().filter(|f| !f.starts_with('#')) else {
        return Ok(None);
    };
    let count_s = fields.next().ok_or("missing count")?;
    if fields.next().is_some() {
        return Err("more than two fields".into());
    }
    let tag = tag_s.parse::<Tag>().map_err(|e| e.to_string())?;
    let count = count_s
        .parse::<u32>()
        .map_err(|e| format!("bad count: {e}"))?;
    Ok(Some((tag, count)))
}

/// Parse one library from `TAG<TAB>count` lines. Blank lines and lines
/// starting with `#` are skipped; repeated tags accumulate, and a tag whose
/// counts sum past `u32::MAX` is malformed input.
pub fn read_library_text(
    meta: LibraryMeta,
    r: &mut impl Read,
    context: &str,
) -> Result<SageLibrary, IoError> {
    let mut text = String::new();
    r.read_to_string(&mut text)?;
    let mut pairs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let parsed = parse_count_line(line)
            .map_err(|detail| malformed(context, format!("line {}: {detail}", i + 1)))?;
        pairs.extend(parsed);
    }
    SageLibrary::try_from_counts(meta, pairs).map_err(|overflow| {
        // Rare path: find the line that tips this tag's sum over.
        let CountOverflow(tag) = overflow;
        let mut sum = 0u64;
        let lineno = text
            .lines()
            .enumerate()
            .filter_map(|(i, line)| match parse_count_line(line) {
                Ok(Some((t, count))) if t == tag => Some((i + 1, count)),
                _ => None,
            })
            .find(|&(_, count)| {
                sum += u64::from(count);
                sum > u64::from(u32::MAX)
            })
            .map_or(0, |(lineno, _)| lineno);
        malformed(context, format!("line {lineno}: {overflow}"))
    })
}

fn state_token(s: NeoplasticState) -> &'static str {
    match s {
        NeoplasticState::Cancerous => "cancer",
        NeoplasticState::Normal => "normal",
    }
}

fn source_token(s: TissueSource) -> &'static str {
    match s {
        TissueSource::BulkTissue => "bulk",
        TissueSource::CellLine => "cellline",
    }
}

fn parse_state(s: &str) -> Result<NeoplasticState, String> {
    match s {
        "cancer" => Ok(NeoplasticState::Cancerous),
        "normal" => Ok(NeoplasticState::Normal),
        other => Err(format!("unknown state {other:?}")),
    }
}

fn parse_source(s: &str) -> Result<TissueSource, String> {
    match s {
        "bulk" => Ok(TissueSource::BulkTissue),
        "cellline" => Ok(TissueSource::CellLine),
        other => Err(format!("unknown source {other:?}")),
    }
}

/// Write a corpus as a directory: `sageName.txt` index plus one text file
/// per library. Mirrors the thesis's `SageLibrary` directory layout.
pub fn write_corpus_dir(corpus: &SageCorpus, dir: &Path) -> Result<(), IoError> {
    fs::create_dir_all(dir)?;
    let mut index = fs::File::create(dir.join("sageName.txt"))?;
    for (id, lib) in corpus.iter() {
        let filename = format!("lib_{:03}.sage", id.0);
        writeln!(
            index,
            "{}\t{}\t{}\t{}\t{}",
            lib.meta.name,
            lib.meta.tissue.name(),
            state_token(lib.meta.state),
            source_token(lib.meta.source),
            filename
        )?;
        let mut f = fs::File::create(dir.join(&filename))?;
        write_library_text(lib, &mut f)?;
    }
    Ok(())
}

/// Read a corpus directory written by [`write_corpus_dir`].
pub fn read_corpus_dir(dir: &Path) -> Result<SageCorpus, IoError> {
    let index_path = dir.join("sageName.txt");
    let index = fs::read_to_string(&index_path)?;
    let context = index_path.display().to_string();
    let mut corpus = SageCorpus::new();
    for (lineno, line) in index.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 5 {
            return Err(malformed(
                &context,
                format!("line {}: expected 5 tab-separated fields", lineno + 1),
            ));
        }
        let meta = LibraryMeta {
            name: fields[0].to_string(),
            tissue: TissueType::parse(fields[1]),
            state: parse_state(fields[2]).map_err(|d| malformed(&context, d))?,
            source: parse_source(fields[3]).map_err(|d| malformed(&context, d))?,
        };
        let lib_path = dir.join(fields[4]);
        let mut f = fs::File::open(&lib_path)?;
        let lib = read_library_text(meta, &mut f, &lib_path.display().to_string())?;
        corpus.add(lib);
    }
    Ok(corpus)
}

const BINARY_MAGIC: &[u8; 4] = b"GEAB";
const BINARY_VERSION: u32 = 1;
/// A library record is at least four empty strings and a tag count.
const MIN_LIBRARY_BYTES: usize = 20;
/// The most a library record hands the sink at once.
const PIECE: usize = 8 << 10;

/// Write the corpus in the compact binary format (the thesis's `file.b`).
/// Each library record is staged whole and handed over in pieces of at
/// most 8 KiB, so a sink that hashes, compresses or compares sees neither
/// one field at a time nor a whole corpus.
pub fn put_corpus(out: &mut (impl ByteSink + ?Sized), corpus: &SageCorpus) {
    out.put(BINARY_MAGIC);
    put_u32(out, BINARY_VERSION);
    put_u32(out, corpus.len() as u32);
    let mut record = Vec::new();
    for (_, lib) in corpus.iter() {
        record.clear();
        put_str(&mut record, &lib.meta.name);
        put_str(&mut record, lib.meta.tissue.name());
        put_str(&mut record, state_token(lib.meta.state));
        put_str(&mut record, source_token(lib.meta.source));
        put_u32(&mut record, lib.unique_tags() as u32);
        for (tag, count) in lib.iter() {
            put_u32(&mut record, tag.code());
            put_u32(&mut record, count);
        }
        for piece in record.chunks(PIECE) {
            out.put(piece);
        }
    }
}

/// Read a corpus [`put_corpus`] wrote. The blob is what `session.gea`,
/// spill files and router resync carry, so it is checked like the text
/// format: library and tag-pair counts are checked against the bytes
/// remaining before anything is allocated, repeated tags accumulate, and
/// a tag whose counts sum past `u32::MAX` is malformed input.
pub fn read_corpus(cur: &mut Cur) -> Result<SageCorpus, CodecError> {
    if cur.take(4, "corpus magic")? != BINARY_MAGIC {
        return Err(CodecError("bad magic; not a GEA binary corpus".into()));
    }
    let version = cur.u32("corpus version")?;
    if version != BINARY_VERSION {
        return Err(CodecError(format!("unsupported corpus version {version}")));
    }
    let n_libs = cur.count(MIN_LIBRARY_BYTES, "corpus library")?;
    let mut corpus = SageCorpus::new();
    for _ in 0..n_libs {
        let meta = LibraryMeta {
            name: cur.string("library name")?,
            tissue: TissueType::parse(&cur.string("library tissue")?),
            state: parse_state(&cur.string("library state")?).map_err(CodecError)?,
            source: parse_source(&cur.string("library source")?).map_err(CodecError)?,
        };
        let pairs = cur.list(8, "library tag pair", |cur| {
            Ok((cur.tag("library tag")?, cur.u32("library tag count")?))
        })?;
        let lib = SageLibrary::try_from_counts(meta, pairs)
            .map_err(|overflow| CodecError(overflow.to_string()))?;
        corpus.add(lib);
    }
    Ok(corpus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GeneratorConfig};

    fn small_corpus() -> SageCorpus {
        let mut config = GeneratorConfig::demo(41);
        config.depth_range = (200, 400);
        config.n_tissue_genes = 40;
        config.n_housekeeping_genes = 20;
        config.n_cancer_diff_genes = 10;
        config.fascicle_signature_size = 10;
        generate(&config).0
    }

    #[test]
    fn library_text_roundtrip() {
        let corpus = small_corpus();
        let (_, lib) = corpus.iter().next().unwrap();
        let mut buf = Vec::new();
        write_library_text(lib, &mut buf).unwrap();
        let parsed = read_library_text(lib.meta.clone(), &mut buf.as_slice(), "test").unwrap();
        assert_eq!(&parsed, lib);
    }

    #[test]
    fn text_reader_rejects_garbage() {
        let meta = small_corpus().meta(crate::library::LibraryId(0)).clone();
        let bad = b"NOTATAG\t5\n";
        let err = read_library_text(meta, &mut bad.as_slice(), "test").unwrap_err();
        assert!(matches!(err, IoError::Malformed { .. }));
    }

    fn malformed_detail(text: &str) -> String {
        let meta = small_corpus().meta(crate::library::LibraryId(0)).clone();
        match read_library_text(meta, &mut text.as_bytes(), "test").unwrap_err() {
            IoError::Malformed { detail, .. } => detail,
            other => panic!("expected Malformed, got {other}"),
        }
    }

    #[test]
    fn text_reader_rejects_a_count_that_overflows() {
        // Two lines for one tag summing past u32::MAX: the line that tips
        // the sum over is named, never a wrapped or saturated count.
        let detail =
            malformed_detail("# lib\nAAAAAAAAAA\t4294967295\nCCCCCCCCCC\t3\n\nAAAAAAAAAA\t1\n");
        assert_eq!(detail, "line 5: counts of AAAAAAAAAA sum past 4294967295");
        // A single count beyond u32 was already rejected, as a bad count.
        assert!(malformed_detail("AAAAAAAAAA\t4294967296\n").starts_with("line 1: bad count"));
    }

    /// A hand-built blob: one library of the given tag pairs, declaring
    /// `n_tags` of them.
    fn one_library_blob(n_tags: u32, pairs: &[(u32, u32)]) -> Vec<u8> {
        let mut blob = Vec::new();
        blob.extend_from_slice(BINARY_MAGIC);
        put_u32(&mut blob, BINARY_VERSION);
        put_u32(&mut blob, 1);
        for field in ["lib", "brain", "cancer", "bulk"] {
            put_str(&mut blob, field);
        }
        put_u32(&mut blob, n_tags);
        for &(code, count) in pairs {
            put_u32(&mut blob, code);
            put_u32(&mut blob, count);
        }
        blob
    }

    #[test]
    fn binary_reader_rejects_a_count_that_overflows() {
        // Two entries for tag code 0 summing past u32::MAX. The tag is
        // named, never saturated.
        let mut blob = one_library_blob(2, &[(0, u32::MAX), (0, 1)]);
        let err = read_corpus(&mut Cur::new(&blob)).unwrap_err();
        assert_eq!(err.0, "counts of AAAAAAAAAA sum past 4294967295");
        // Repeated entries that fit still accumulate.
        let at = blob.len() - 12;
        blob[at..at + 4].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
        let corpus = read_corpus(&mut Cur::new(&blob)).unwrap();
        let (_, lib) = corpus.iter().next().unwrap();
        assert_eq!(lib.count(Tag::from_code(0).unwrap()), u32::MAX);
    }

    #[test]
    fn binary_reader_refuses_implausible_counts_up_front() {
        // A library count, then a tag-pair count, of u32::MAX: refused as
        // implausible before anything is read for them, not read on until
        // the input runs out.
        let mut blob = one_library_blob(1, &[(0, 5)]);
        blob[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_corpus(&mut Cur::new(&blob)).unwrap_err();
        assert!(
            err.0.starts_with("implausible corpus library count"),
            "{err}"
        );
        let blob = one_library_blob(u32::MAX, &[(0, 5)]);
        let err = read_corpus(&mut Cur::new(&blob)).unwrap_err();
        assert!(
            err.0.starts_with("implausible library tag pair count"),
            "{err}"
        );
    }

    #[test]
    fn text_reader_rejects_a_third_field() {
        assert_eq!(
            malformed_detail("AAAAAAAAAA\t5\nCCCCCCCCCC\t5\tjunk\n"),
            "line 2: more than two fields"
        );
        assert_eq!(malformed_detail("AAAAAAAAAA\n"), "line 1: missing count");
    }

    #[test]
    fn text_reader_accumulates_repeated_tags() {
        let meta = small_corpus().meta(crate::library::LibraryId(0)).clone();
        let text = b"CCCCCCCCCC\t2\nAAAAAAAAAA\t4\nCCCCCCCCCC\t3\nGGGGGGGGGG\t0\n";
        let lib = read_library_text(meta, &mut text.as_slice(), "test").unwrap();
        assert_eq!(lib.count("CCCCCCCCCC".parse().unwrap()), 5);
        assert_eq!(lib.unique_tags(), 2);
        assert_eq!(lib.total_tags(), 9);
    }

    #[test]
    fn text_reader_skips_comments_and_blanks() {
        let meta = small_corpus().meta(crate::library::LibraryId(0)).clone();
        let text = b"# header\n\nAAAAAAAAAA\t4\n";
        let lib = read_library_text(meta, &mut text.as_slice(), "test").unwrap();
        assert_eq!(lib.unique_tags(), 1);
        assert_eq!(lib.total_tags(), 4);
    }

    #[test]
    fn corpus_dir_roundtrip() {
        let corpus = small_corpus();
        let dir = std::env::temp_dir().join(format!("gea_io_test_{}", std::process::id()));
        write_corpus_dir(&corpus, &dir).unwrap();
        let back = read_corpus_dir(&dir).unwrap();
        assert_eq!(back.len(), corpus.len());
        for (id, lib) in corpus.iter() {
            assert_eq!(back.library(id), lib);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corpus_binary_roundtrip() {
        let corpus = small_corpus();
        let mut buf = Vec::new();
        put_corpus(&mut buf, &corpus);
        let mut cur = Cur::new(&buf);
        let back = read_corpus(&mut cur).unwrap();
        cur.finish("corpus").unwrap();
        assert_eq!(back.len(), corpus.len());
        for (id, lib) in corpus.iter() {
            assert_eq!(back.library(id), lib);
        }
    }

    #[test]
    fn binary_reader_rejects_bad_magic() {
        let bytes = b"NOPE\x01\x00\x00\x00";
        let err = read_corpus(&mut Cur::new(bytes)).unwrap_err();
        assert_eq!(err.0, "bad magic; not a GEA binary corpus");
    }
}
