//! The GEA Query Language (GQL): one line-oriented textual grammar shared
//! by the `gea-cli` REPL, batch scripts, and the TCP wire protocol.
//!
//! A request line is a verb plus whitespace-separated arguments; double
//! quotes group an argument containing spaces (`comment g1 "looks real"`).
//! Parsing is front-end independent: the same [`parse`] feeds the REPL's
//! single session and the server's named shared sessions.
//!
//! The grammar is one table, [`VERBS`]. Each verb is declared there once:
//! its forms' typed argument [`Slot`]s, each form's `help` line, the build
//! from slot values to a [`Request`] and its reverse, and, for an algebra
//! verb, its effect row. [`parse`], [`GqlCommand::canonical`], both
//! `verb()`s, [`HELP`] and [`crate::effects::EffectTable`] all read it, so
//! a surplus or a missing token is `usage: …` on every verb.

use std::cmp::Reverse;
use std::fmt;
use std::sync::LazyLock;

use gea_core::compare::{CompareOp, CompareQuery};
use gea_mine::{ParamDomain, ParamValue};
use gea_sage::tag::TAG_SPACE;
use gea_sage::{Tag, TissueType};

use crate::effects::VerbEffect;

/// The command reference printed by `help` (the thesis chapter 4 menus plus
/// the serving layer): every form of [`VERBS`], grouped by section.
pub static HELP: LazyLock<String> = LazyLock::new(|| {
    let mut out = String::from("GQL commands (thesis chapter 4's menus, served):");
    for section in SECTIONS {
        out.push_str("\n  ");
        out.push_str(section);
        for spec in VERBS.iter().filter(|v| v.section == section) {
            for form in spec.forms {
                // Descriptions start in column 40; a longer usage line
                // carries its own gap at the head of its description.
                let line = format!("\n    {:<36}{}", spec.usage(form), form.help);
                out.push_str(line.trim_end());
            }
        }
    }
    out
});

/// A parse failure: the offending message, reported as `ERR EPARSE …`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

/// Session-registry control commands, handled by the hosting front-end
/// (the server's connection loop or the REPL), not the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionCtl {
    /// Create or replace a named session from a generated demo corpus.
    OpenDemo {
        /// Registry name (`default` for the REPL shorthands).
        name: String,
        /// Generator seed.
        seed: u64,
    },
    /// Create or replace a named session from a corpus directory.
    OpenDir {
        /// Registry name.
        name: String,
        /// Directory of `sageName.txt` files.
        dir: String,
    },
    /// Attach the connection to an existing named session.
    Use(String),
    /// List open sessions.
    List,
    /// Drop a named session from the registry.
    Close(String),
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// The command reference.
    Help,
    /// Close the connection (REPL: exit).
    Quit,
    /// Liveness check.
    Ping,
    /// Server metrics.
    Stats,
    /// Graceful server shutdown.
    Shutdown,
    /// Write a demo corpus to disk (no session involved).
    GenCorpus {
        /// Generator seed.
        seed: u64,
        /// Output directory.
        dir: String,
    },
    /// Session-registry control.
    Session(SessionCtl),
    /// An algebra command for the current session.
    Gql(GqlCommand),
}

/// The table kinds `show` accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShowKind {
    /// A GAP table.
    Gap,
    /// A SUMY table.
    Sumy,
}

/// An algebra command executed against one session by the server's engine
/// (`gea_server::engine`).
#[derive(Debug, Clone, PartialEq)]
pub enum GqlCommand {
    /// List tissue types.
    Tissues,
    /// `E = σ_tissue(SAGE)`.
    Dataset {
        /// New table name.
        name: String,
        /// Tissue to select.
        tissue: TissueType,
    },
    /// User-defined data set from the root.
    Custom {
        /// New table name.
        name: String,
        /// Member library names.
        libraries: Vec<String>,
    },
    /// `σ_libraries(dataset)` — select libraries out of any data set.
    Select {
        /// New table name.
        name: String,
        /// Source data set.
        dataset: String,
        /// Library names to keep.
        libraries: Vec<String>,
    },
    /// `π_tags(dataset)` — project a data set onto a tag list.
    Project {
        /// New table name.
        name: String,
        /// Source data set.
        dataset: String,
        /// Tags to keep.
        tags: Vec<Tag>,
    },
    /// Calculate clusters with a named `gea-mine` backend: `mine
    /// <dataset> <out> with <algo> [key=val ...]`, or the thesis's
    /// positional `mine <dataset> <out> <k%> <min> <batch>`, which is
    /// `with fascicles k_pct=… min_records=… batch=…`.
    MineWith {
        /// Source data set.
        dataset: String,
        /// Output name prefix.
        out: String,
        /// Backend registry name (`fascicles`, `isa`, `simplex`).
        algo: String,
        /// The backend's whole parameter list, resolved against its
        /// schema (in domain, defaults filled), in schema order.
        params: Vec<(String, ParamValue)>,
    },
    /// List mined fascicles.
    Fascicles,
    /// Purity check.
    Purity(String),
    /// Form control-group SUMYs.
    Groups(String),
    /// `GAP = diff(SUMY₁, SUMY₂)`.
    Gap {
        /// New GAP name.
        name: String,
        /// First SUMY.
        sumy1: String,
        /// Second SUMY.
        sumy2: String,
    },
    /// Calculate top gaps.
    TopGap {
        /// Source GAP.
        gap: String,
        /// How many.
        x: usize,
    },
    /// GAP comparison.
    Compare {
        /// New GAP name.
        name: String,
        /// First GAP.
        g1: String,
        /// Second GAP.
        g2: String,
        /// Set operation.
        op: CompareOp,
        /// Thesis query (1–13).
        query: CompareQuery,
    },
    /// View a table's first rows.
    Show {
        /// Table kind.
        kind: ShowKind,
        /// Table name.
        name: String,
        /// Row limit.
        n: usize,
    },
    /// Tag distribution across a data set.
    Plot {
        /// Data set.
        dataset: String,
        /// The tag.
        tag: Tag,
        /// Fascicle labelling the series.
        fascicle: String,
    },
    /// Library information.
    Library(String),
    /// Expression values of a tag.
    TagFreq {
        /// Data set.
        dataset: String,
        /// The tag.
        tag: Tag,
    },
    /// Export a table to CSV.
    Export {
        /// Table name.
        name: String,
        /// Output path.
        path: String,
    },
    /// Annotate a lineage node.
    Comment {
        /// Table name.
        name: String,
        /// The comment.
        text: String,
    },
    /// Drop contents or cascade-delete.
    Delete {
        /// Table name.
        name: String,
        /// Cascade to derived tables.
        cascade: bool,
    },
    /// `populate <name>`: re-materialize a contents-only-deleted table
    /// from its lineage (§4.4.2). `populate <name> <sumy> <dataset>`: the
    /// thesis's populate operator — materialize the ENUM of `dataset`
    /// libraries whose expression satisfies the SUMY's intensional
    /// definition.
    Populate {
        /// New (or re-materialized) table name.
        name: String,
        /// `Some((sumy, dataset))` selects the operator form.
        from: Option<(String, String)>,
    },
    /// Statically validate a `;`-separated pipeline against the session's
    /// symbol table without executing any of it.
    Check(Vec<GqlCommand>),
    /// Operation history.
    Lineage,
    /// Cleaning report.
    Cleaning,
    /// Pooled cancer-vs-normal comparison.
    Xprofiler(String),
    /// Persist tables and lineage.
    Save(String),
    /// Browse saved tables and lineage.
    Load(String),
}

impl GqlCommand {
    /// Whether the command only reads the session. Read commands run under
    /// a shared read lock on the server; everything else takes the write
    /// lock. Delegates to the verb-effect table ([`crate::effects`]), the
    /// single source of truth for verb classification — `save` and
    /// `export` touch the filesystem but not the session, so they are
    /// reads here; `load` *replaces* the session in place, so it is a
    /// write; `check` analyzes but never mutates, so it is a read.
    pub fn is_read(&self) -> bool {
        crate::effects::EffectTable::of(self).is_read()
    }

    /// Whether the command's reply may be served from the server's
    /// response cache: the pure deterministic reads, per the verb-effect
    /// table. `save` and `export` are reads for locking purposes but
    /// touch the filesystem, whose state the session generation does not
    /// cover, so they always execute.
    pub fn is_cacheable(&self) -> bool {
        crate::effects::EffectTable::of(self).is_cacheable()
    }

    /// The normalized command line: the canonical spelling that parses
    /// back to this command, rendered through the slots of the form that
    /// spells it. Used as the response-cache key component, so surface
    /// variants (`show gap g` vs `show gap g 10`, extra whitespace,
    /// `difference` vs `diff`) share one cache slot.
    pub fn canonical(&self) -> String {
        let Some((spec, form, args)) = spelled(Cmd::Gql(self)) else {
            return String::new();
        };
        let mut out = spec.name.to_string();
        let mut args = args.into_iter();
        for slot in form.slots {
            render(slot, &mut args, &mut out);
        }
        out
    }

    /// The verb, for metrics labels.
    pub fn verb(&self) -> &'static str {
        spelled(Cmd::Gql(self)).map_or("", |(spec, ..)| spec.name)
    }
}

impl Request {
    /// The verb, for metrics labels.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Gql(cmd) => cmd.verb(),
            req => spelled(Cmd::Req(req)).map_or("", |(spec, ..)| spec.name),
        }
    }
}

/// One typed argument slot of a verb form. Single-token slots come first;
/// an `Opt` or `Many` slot, if any, is last and takes the rest of the
/// line.
#[derive(Debug, Clone, Copy)]
pub enum Slot {
    /// A free-form word: a table, session, library, file, directory,
    /// backend or `key=val` parameter.
    Name(&'static str),
    /// A fixed token (`with`, `demo`, `--cascade`); it has no value.
    Lit(&'static str),
    /// One of `words`, valued by its index; `what` names it in errors.
    /// Each word's first spelling comes first, aliases after.
    Alt {
        /// Placeholder in the usage line.
        show: &'static str,
        /// What an unknown token is called in its error.
        what: &'static str,
        /// The accepted spellings.
        words: &'static [&'static str],
    },
    /// An unsigned integer `what`, admitted by `domain`.
    Num {
        /// Placeholder in the usage line.
        show: &'static str,
        /// The number's name in errors.
        what: &'static str,
        /// The values it may take.
        domain: ParamDomain,
    },
    /// A SAGE tag.
    Tag(&'static str),
    /// All of `slots`, or none (the build supplies any default).
    Opt {
        /// Placeholder in the usage line.
        show: &'static str,
        /// The optional slots.
        slots: &'static [Slot],
    },
    /// `min` or more of `each`.
    Many {
        /// Placeholder in the usage line.
        show: &'static str,
        /// The fewest values the line may give.
        min: usize,
        /// The repeated slot.
        each: &'static Slot,
    },
}

impl Slot {
    /// The slot as the usage line shows it.
    fn show(&self) -> &'static str {
        match *self {
            Slot::Name(show) | Slot::Lit(show) | Slot::Tag(show) => show,
            Slot::Alt { show, .. } | Slot::Num { show, .. } => show,
            Slot::Opt { show, .. } | Slot::Many { show, .. } => show,
        }
    }

    /// How many of `left` tokens the slot takes.
    fn width(&self, left: usize) -> usize {
        match self {
            Slot::Opt { .. } | Slot::Many { .. } => left,
            _ => left.min(1),
        }
    }
}

/// One form of a verb: its slots, its `help` line, and the two directions
/// between a line's tokens and the request.
pub struct Form {
    /// The typed argument slots, in line order.
    pub slots: &'static [Slot],
    /// The description `help` prints after the usage line.
    pub help: &'static str,
    build: fn(&mut Args<'_>) -> Result<Request, ParseError>,
    spell: for<'a> fn(Cmd<'a>) -> Option<Vec<Arg<'a>>>,
}

/// One verb of the grammar.
pub struct VerbSpec {
    /// The verb, as lines spell it and metrics label it.
    pub name: &'static str,
    /// Other spellings of the verb.
    pub aliases: &'static [&'static str],
    /// The `help` section listing it.
    pub section: &'static str,
    /// Its forms; a line is parsed by the one with the most literals
    /// among those that fit it.
    pub forms: &'static [Form],
    /// The effect row of an algebra verb (`None` for session and server
    /// verbs, which the engine never sees).
    pub effect: Option<VerbEffect>,
}

impl VerbSpec {
    /// The usage line of one of the verb's forms.
    pub fn usage(&self, form: &Form) -> String {
        let mut out = self.name.to_string();
        for slot in form.slots {
            out.push(' ');
            out.push_str(slot.show());
        }
        out
    }

    /// Parse a line's arguments with the most specific form that fits
    /// them. If none does, the error is the usage of the most specific
    /// form whose literals the line gives, or of every form.
    fn parse(&self, args: &[&str]) -> Result<Request, ParseError> {
        let mut forms: Vec<&'static Form> = self
            .forms
            .iter()
            .filter(|f| literals_match(f.slots, args))
            .collect();
        forms
            .sort_by_key(|f| Reverse(f.slots.iter().filter(|s| matches!(s, Slot::Lit(_))).count()));
        if let Some(form) = forms.iter().find(|f| fits(f.slots, args)) {
            let slots = form.slots.iter().rev().collect();
            return (form.build)(&mut Args { slots, toks: args });
        }
        let usages: Vec<String> = match forms.first() {
            Some(form) => vec![self.usage(form)],
            None => self.forms.iter().map(|f| self.usage(f)).collect(),
        };
        Err(ParseError(format!("usage: {}", usages.join(" | "))))
    }
}

/// Whether every literal among the leading single-token `slots` is the
/// line's token at its position.
fn literals_match(slots: &[Slot], args: &[&str]) -> bool {
    let lit = |(i, slot): (usize, &Slot)| matches!(slot, Slot::Lit(w) if args.get(i) != Some(w));
    !slots.iter().enumerate().any(lit)
}

/// Whether `args` has as many tokens as `slots` takes, and an optional
/// group that is there gives its literals.
fn fits(slots: &[Slot], args: &[&str]) -> bool {
    let Some((last, singles)) = slots.split_last() else {
        return args.is_empty();
    };
    let Some(rest) = args.get(singles.len()..) else {
        return false;
    };
    match last {
        Slot::Opt { slots, .. } => {
            rest.is_empty() || (rest.len() == slots.len() && literals_match(slots, rest))
        }
        Slot::Many { min, .. } => rest.len() >= *min,
        _ => rest.len() == 1,
    }
}

/// A fitting line's tokens, taken slot by slot by its form's build, which
/// checks each value as it takes it. A build asking a slot for the wrong
/// kind of value is a table bug the round-trip tests catch; it answers a
/// parse error here rather than panic a worker.
struct Args<'a> {
    /// The slots still to take, the next one last.
    slots: Vec<&'static Slot>,
    toks: &'a [&'a str],
}

impl<'a> Args<'a> {
    /// The next slot with a value, and the tokens it takes.
    fn next(&mut self) -> (&'static Slot, &'a [&'a str]) {
        while let Some(slot) = self.slots.pop() {
            let (taken, rest) = self.toks.split_at(slot.width(self.toks.len()));
            self.toks = rest;
            if !matches!(slot, Slot::Lit(_)) {
                return (slot, taken);
            }
        }
        (&Slot::Lit("<end of line>"), &[])
    }

    fn word(&mut self) -> Result<String, ParseError> {
        match self.next() {
            (Slot::Name(_), [token]) => Ok(token.to_string()),
            (slot, _) => Err(misfit(slot)),
        }
    }

    fn num(&mut self) -> Result<u64, ParseError> {
        let (slot, toks) = self.next();
        let (Slot::Num { what, domain, .. }, [token]) = (slot, toks) else {
            return Err(misfit(slot));
        };
        let n: u64 = token
            .parse()
            .map_err(|e| ParseError(format!("bad {what}: {e}")))?;
        domain
            .admit(what, ParamValue::UInt(n))
            .map_err(ParseError)?;
        Ok(n)
    }

    fn alt(&mut self) -> Result<usize, ParseError> {
        let (slot, toks) = self.next();
        let (Slot::Alt { what, words, .. }, [token]) = (slot, toks) else {
            return Err(misfit(slot));
        };
        words
            .iter()
            .position(|w| w == token)
            .ok_or_else(|| ParseError(format!("unknown {what} {token:?}")))
    }

    fn tag(&mut self) -> Result<Tag, ParseError> {
        match self.next() {
            (Slot::Tag(_), [token]) => parse_tag(token),
            (slot, _) => Err(misfit(slot)),
        }
    }

    /// Whether an `Opt` group is there; if it is, its slots come next.
    fn opt(&mut self) -> Result<bool, ParseError> {
        match self.next() {
            (Slot::Opt { slots, .. }, toks) if !toks.is_empty() => {
                self.toks = toks;
                self.slots.extend(slots.iter().rev());
                Ok(true)
            }
            (Slot::Opt { .. }, _) => Ok(false),
            (slot, _) => Err(misfit(slot)),
        }
    }

    /// A list slot's tokens.
    fn rest(&mut self) -> Result<&'a [&'a str], ParseError> {
        match self.next() {
            (Slot::Many { .. }, toks) => Ok(toks),
            (slot, _) => Err(misfit(slot)),
        }
    }

    fn words(&mut self) -> Result<Vec<String>, ParseError> {
        Ok(self.rest()?.iter().map(|t| t.to_string()).collect())
    }

    fn tags(&mut self) -> Result<Vec<Tag>, ParseError> {
        self.rest()?.iter().map(|t| parse_tag(t)).collect()
    }
}

fn misfit(slot: &Slot) -> ParseError {
    ParseError(format!("grammar table: {} misread", slot.show()))
}

fn parse_tag(token: &str) -> Result<Tag, ParseError> {
    token
        .parse()
        .map_err(|e| ParseError(format!("bad tag: {e}")))
}

/// One slot's value, as a command spells it back for
/// [`GqlCommand::canonical`].
enum Arg<'a> {
    /// A `Name` value, or a list spelt as one token (`comment`'s text).
    Word(&'a str),
    /// A `Num`.
    Num(u64),
    /// A `Tag`.
    Tag(Tag),
    /// An `Alt`: the index of its spelling.
    Alt(usize),
    /// A `Many` slot's values, or an `Opt` group that is there.
    Many(Vec<Arg<'a>>),
    /// An `Opt` group that is not.
    Absent,
    /// `mine`'s resolved `key=val` list.
    Params(&'a [(String, ParamValue)]),
    /// `check`'s pipeline, one canonical line per command.
    Cmds(&'a [GqlCommand]),
}

/// What a form spells: a whole request, or an algebra command.
#[derive(Clone, Copy)]
enum Cmd<'a> {
    Req(&'a Request),
    Gql(&'a GqlCommand),
}

/// The verb and form that spell `cmd`, with its slot values.
fn spelled(cmd: Cmd<'_>) -> Option<(&'static VerbSpec, &'static Form, Vec<Arg<'_>>)> {
    VERBS.iter().find_map(|spec| {
        spec.forms
            .iter()
            .find_map(|form| (form.spell)(cmd).map(|args| (spec, form, args)))
    })
}

/// Append `slot`'s canonical tokens, taking its values from `args`.
fn render<'a>(slot: &Slot, args: &mut impl Iterator<Item = Arg<'a>>, out: &mut String) {
    if let Slot::Lit(word) = slot {
        return push_token(out, word);
    }
    match (slot, args.next()) {
        (Slot::Opt { slots, .. }, Some(Arg::Many(group))) => {
            let mut group = group.into_iter();
            for slot in *slots {
                render(slot, &mut group, out);
            }
        }
        (Slot::Many { each, .. }, Some(Arg::Many(items))) => {
            for item in items {
                render(each, &mut std::iter::once(item), out);
            }
        }
        (_, Some(Arg::Params(params))) => {
            for (key, value) in params {
                push_token(out, &format!("{key}={value}"));
            }
        }
        // Each sub-command spells its own canonical line; the separator
        // stays a bare `;` token so the line re-splits into the same
        // pipeline.
        (_, Some(Arg::Cmds(cmds))) => {
            for (i, cmd) in cmds.iter().enumerate() {
                out.push_str(if i == 0 { " " } else { " ; " });
                out.push_str(&cmd.canonical());
            }
        }
        (Slot::Alt { words, .. }, Some(Arg::Alt(i))) => {
            push_token(out, words.get(i).copied().unwrap_or_default());
        }
        (_, Some(Arg::Word(w))) => push_token(out, w),
        (_, Some(Arg::Num(n))) => push_token(out, &n.to_string()),
        (_, Some(Arg::Tag(tag))) => push_token(out, &tag.to_string()),
        _ => {}
    }
}

/// Append one token, quoted when it is empty or holds whitespace or a
/// quote, so it re-tokenizes to itself.
fn push_token(out: &mut String, token: &str) {
    out.push(' ');
    if !token.is_empty() && !token.contains(|c: char| c.is_whitespace() || c == '"') {
        return out.push_str(token);
    }
    out.push('"');
    for c in token.chars() {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
}

fn words(items: &[String]) -> Arg<'_> {
    Arg::Many(items.iter().map(|s| Arg::Word(s)).collect())
}

/// The thesis query numbered `n` (the slot's domain admits 1..=13).
fn query(n: u64) -> Result<CompareQuery, ParseError> {
    let query = (n as usize)
        .checked_sub(1)
        .and_then(|i| CompareQuery::ALL.get(i));
    query
        .copied()
        .ok_or_else(|| ParseError(format!("no thesis query {n}")))
}

/// `mine` through the `gea-mine` registry: unknown backends, unknown
/// keys, duplicates, non-numeric and out-of-domain values are parse
/// errors. The command carries the backend's whole resolved parameter
/// list, so the positional form and `with fascicles` share one canonical
/// spelling, one cache key, and one execution path.
fn mine(
    dataset: String,
    out: String,
    algo: &str,
    tokens: Vec<String>,
) -> Result<Request, ParseError> {
    let Some(backend) = gea_mine::backend(algo) else {
        return Err(ParseError(format!(
            "unknown mining backend {algo:?} (available: {})",
            gea_mine::backend_names()
        )));
    };
    let specs = backend.params();
    let mut params: Vec<(String, ParamValue)> = Vec::new();
    for token in &tokens {
        let Some((key, value)) = token.split_once('=') else {
            return Err(ParseError(format!(
                "expected key=val after `with {algo}`, got {token:?}"
            )));
        };
        let Some(spec) = specs.iter().find(|s| s.key == key) else {
            let known: Vec<&str> = specs.iter().map(|s| s.key).collect();
            return Err(ParseError(format!(
                "backend {} has no parameter {key:?} (expected: {})",
                backend.name(),
                known.join(", ")
            )));
        };
        let value = spec
            .domain
            .parse_token(value)
            .map_err(|e| ParseError(format!("parameter {key}: {e}")))?;
        params.push((key.to_string(), value));
    }
    // Duplicates and ranges, in token order; defaults for the rest.
    let resolved = gea_mine::resolve_params(specs, &params).map_err(ParseError)?;
    Ok(Request::Gql(GqlCommand::MineWith {
        dataset,
        out,
        algo: backend.name().to_string(),
        params: resolved.iter().map(|(k, v)| (k.to_string(), v)).collect(),
    }))
}

/// `check`'s pipeline: each `;`-separated segment parsed as an algebra
/// command with the same table.
fn pipeline(tokens: &[&str]) -> Result<Request, ParseError> {
    let mut cmds = Vec::new();
    for segment in tokens.split(|t| *t == ";") {
        let Some((&sub, args)) = segment.split_first() else {
            return Err(ParseError(
                "check: empty command in pipeline (stray `;`)".to_string(),
            ));
        };
        if sub == "check" {
            return Err(ParseError("check cannot nest".to_string()));
        }
        let spec = VERBS.iter().find(|v| v.effect.is_some() && v.name == sub);
        match spec.map(|spec| spec.parse(args)).transpose()? {
            Some(Request::Gql(cmd)) => cmds.push(cmd),
            _ => {
                return Err(ParseError(format!(
                    "check validates algebra commands only; {sub:?} is a session/server command"
                )))
            }
        }
    }
    Ok(Request::Gql(GqlCommand::Check(cmds)))
}

/// Split a request line into tokens. Double quotes group a token with
/// spaces; `\"` escapes a quote inside one.
pub fn tokenize(line: &str) -> Result<Vec<String>, ParseError> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut in_token = false;
    let mut chars = line.chars();
    loop {
        match chars.next() {
            None => break,
            Some(c) if c.is_whitespace() => {
                if in_token {
                    tokens.push(std::mem::take(&mut current));
                    in_token = false;
                }
            }
            Some('"') => {
                in_token = true;
                loop {
                    match chars.next() {
                        None => return Err(ParseError("unterminated quote".to_string())),
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some(e) => current.push(e),
                            None => return Err(ParseError("unterminated quote".to_string())),
                        },
                        Some(c) => current.push(c),
                    }
                }
            }
            Some(c) => {
                in_token = true;
                current.push(c);
            }
        }
    }
    if in_token {
        tokens.push(current);
    }
    Ok(tokens)
}

/// Parse one request line. `Ok(None)` means the line was blank.
pub fn parse(line: &str) -> Result<Option<Request>, ParseError> {
    let tokens = tokenize(line)?;
    let Some((verb, args)) = tokens.split_first() else {
        return Ok(None);
    };
    let (verb, args): (&str, Vec<&str>) = (verb, args.iter().map(String::as_str).collect());
    let spec = VERBS
        .iter()
        .find(|v| v.name == verb || v.aliases.contains(&verb))
        .ok_or_else(|| ParseError(format!("unknown command {verb:?}; try `help`")))?;
    spec.parse(&args).map(Some)
}

const SESSION: &str = "session control";
const DATA: &str = "data sets";
const MINING: &str = "mining and gaps";
const INSPECT: &str = "inspection";
const ANALYSIS: &str = "static analysis";
const ADMIN: &str = "persistence and admin";
const SERVER: &str = "server";

/// `help`'s sections, in the order it lists them.
const SECTIONS: [&str; 7] = [SESSION, DATA, MINING, INSPECT, ANALYSIS, ADMIN, SERVER];

/// An algebra verb's `(mutates_session, pure)`; `CONTROL` marks a session
/// or server verb, which the engine never sees.
type Effects = Option<(bool, bool)>;
const CONTROL: Effects = None;
const READ: Effects = Some((false, true));
const WRITE: Effects = Some((true, true));
/// Reads for locking purposes, but the reply lands on the filesystem,
/// which the session generation does not cover: never cached.
const FS_READ: Effects = Some((false, false));

const fn verb(
    name: &'static str,
    section: &'static str,
    effects: Effects,
    forms: &'static [Form],
) -> VerbSpec {
    let effect = match effects {
        Some((mutates_session, pure)) => Some(VerbEffect {
            verb: name,
            mutates_session,
            pure,
            deterministic: true,
        }),
        None => None,
    };
    let aliases = &[];
    VerbSpec {
        name,
        aliases,
        section,
        forms,
        effect,
    }
}

/// The reverse of a form's build: the slot values of the command it
/// spells, `None` for any other.
macro_rules! spell {
    ($pat:pat => $args:expr) => {
        |cmd| match cmd {
            $pat => Some($args),
            _ => None,
        }
    };
}

/// Every verb, once. Algebra verbs are in effect-row order
/// ([`crate::effects::EffectTable::rows`]); `help` regroups the table by
/// section. A form that spells nothing (`load-demo`, positional `mine`)
/// parses to a command another form spells.
#[rustfmt::skip]
pub const VERBS: &[VerbSpec] = {
    use GqlCommand as G;
    use Request as R;
    use SessionCtl as S;
    /// `topgap`'s `x`: at least one row, and no more than a GAP can hold
    /// (one row per tag of the 20-bit tag space).
    const TOPGAP_X: ParamDomain = ParamDomain::UInt { min: 1, max: TAG_SPACE as u64 };
    const QUERY: ParamDomain = ParamDomain::UInt { min: 1, max: CompareQuery::ALL.len() as u64 };
    const ANY: ParamDomain = ParamDomain::UInt { min: 0, max: u64::MAX };
    const ROWS: ParamDomain = ParamDomain::UInt { min: 0, max: usize::MAX as u64 };
    const NAME: Slot = Slot::Name("<name>");
    const DATASET: Slot = Slot::Name("<dataset>");
    const FASCICLE: Slot = Slot::Name("<fascicle>");
    const DIR: Slot = Slot::Name("<dir>");
    const OUT: Slot = Slot::Name("<out>");
    const TAG: Slot = Slot::Tag("<tag>");
    const LIBS: Slot = Slot::Many { show: "<lib> [<lib>...]", min: 1, each: &Slot::Name("<lib>") };
    const SEED: Slot = Slot::Num { show: "<seed>", what: "seed", domain: ANY };
    &[
    verb("open", SESSION, CONTROL, &[Form {
        slots: &[NAME, Slot::Lit("demo"), SEED], help: "create/replace a named session from a demo corpus",
        build: |a| Ok(R::Session(S::OpenDemo { name: a.word()?, seed: a.num()? })),
        spell: spell!(Cmd::Req(R::Session(S::OpenDemo { name, seed })) => vec![Arg::Word(name), Arg::Num(*seed)]),
    }, Form {
        slots: &[NAME, Slot::Lit("dir"), DIR], help: "create/replace a named session from a corpus directory",
        build: |a| Ok(R::Session(S::OpenDir { name: a.word()?, dir: a.word()? })),
        spell: spell!(Cmd::Req(R::Session(S::OpenDir { name, dir })) => vec![Arg::Word(name), Arg::Word(dir)]),
    }]),
    verb("load-demo", SESSION, CONTROL, &[Form {
        slots: &[Slot::Opt { show: "<seed>", slots: &[SEED] }],
        help: "shorthand: open the default session from a demo corpus",
        build: |a| Ok(R::Session(S::OpenDemo { name: "default".to_string(), seed: if a.opt()? { a.num()? } else { 42 } })),
        spell: |_| None,
    }]),
    verb("load-dir", SESSION, CONTROL, &[Form {
        slots: &[DIR], help: "shorthand: open the default session from a directory",
        build: |a| Ok(R::Session(S::OpenDir { name: "default".to_string(), dir: a.word()? })),
        spell: |_| None,
    }]),
    verb("use", SESSION, CONTROL, &[Form {
        slots: &[NAME], help: "attach this connection to a named session",
        build: |a| Ok(R::Session(S::Use(a.word()?))),
        spell: spell!(Cmd::Req(R::Session(S::Use(name))) => vec![Arg::Word(name)]),
    }]),
    verb("sessions", SESSION, CONTROL, &[Form {
        slots: &[], help: "list open sessions",
        build: |_| Ok(R::Session(S::List)), spell: spell!(Cmd::Req(R::Session(S::List)) => vec![]),
    }]),
    verb("close", SESSION, CONTROL, &[Form {
        slots: &[NAME], help: "drop a named session",
        build: |a| Ok(R::Session(S::Close(a.word()?))),
        spell: spell!(Cmd::Req(R::Session(S::Close(name))) => vec![Arg::Word(name)]),
    }]),
    verb("tissues", DATA, READ, &[Form {
        slots: &[], help: "list tissue types and their libraries",
        build: |_| Ok(R::Gql(G::Tissues)), spell: spell!(Cmd::Gql(G::Tissues) => vec![]),
    }]),
    verb("dataset", DATA, WRITE, &[Form {
        slots: &[NAME, Slot::Name("<tissue>")], help: "E = sigma_tissue(SAGE)        [Fig 4.4]",
        build: |a| Ok(R::Gql(G::Dataset { name: a.word()?, tissue: TissueType::parse(&a.word()?) })),
        spell: spell!(Cmd::Gql(G::Dataset { name, tissue }) => vec![Arg::Word(name), Arg::Word(tissue.name())]),
    }]),
    verb("custom", DATA, WRITE, &[Form {
        slots: &[NAME, LIBS], help: "user-defined data set         [Fig 4.15]",
        build: |a| Ok(R::Gql(G::Custom { name: a.word()?, libraries: a.words()? })),
        spell: spell!(Cmd::Gql(G::Custom { name, libraries }) => vec![Arg::Word(name), words(libraries)]),
    }]),
    verb("select", DATA, WRITE, &[Form {
        slots: &[NAME, DATASET, LIBS], help: "   sigma_libraries(dataset)",
        build: |a| Ok(R::Gql(G::Select { name: a.word()?, dataset: a.word()?, libraries: a.words()? })),
        spell: spell!(Cmd::Gql(G::Select { name, dataset, libraries }) =>
            vec![Arg::Word(name), Arg::Word(dataset), words(libraries)]),
    }]),
    verb("project", DATA, WRITE, &[Form {
        slots: &[NAME, DATASET, Slot::Many { show: "<tag> [<tag>...]", min: 1, each: &TAG }],
        help: "  pi_tags(dataset)",
        build: |a| Ok(R::Gql(G::Project { name: a.word()?, dataset: a.word()?, tags: a.tags()? })),
        spell: spell!(Cmd::Gql(G::Project { name, dataset, tags }) =>
            vec![Arg::Word(name), Arg::Word(dataset), Arg::Many(tags.iter().map(|t| Arg::Tag(*t)).collect())]),
    }]),
    // One command: the positional form is `with fascicles`, its values
    // checked by that backend's schema.
    verb("mine", MINING, WRITE, &[Form {
        slots: &[DATASET, OUT, Slot::Name("<k%>"), Slot::Name("<min>"), Slot::Name("<batch>")],
        help: "   calculate fascicles: k% 1..=100, min and batch 1..=1048576   [Fig 4.6]",
        build: |a| mine(a.word()?, a.word()?, "fascicles", vec![format!("k_pct={}", a.word()?),
            format!("min_records={}", a.word()?), format!("batch={}", a.word()?)]),
        spell: |_| None,
    }, Form {
        slots: &[DATASET, OUT, Slot::Lit("with"), Slot::Name("<algo>"),
            Slot::Many { show: "[key=val ...]", min: 0, each: &Slot::Name("key=val") }],
        help: "   pluggable backends: fascicles, isa, simplex",
        build: |a| mine(a.word()?, a.word()?, &a.word()?, a.words()?),
        spell: spell!(Cmd::Gql(G::MineWith { dataset, out, algo, params }) =>
            vec![Arg::Word(dataset), Arg::Word(out), Arg::Word(algo), Arg::Params(params)]),
    }]),
    verb("fascicles", MINING, READ, &[Form {
        slots: &[], help: "list mined fascicles",
        build: |_| Ok(R::Gql(G::Fascicles)), spell: spell!(Cmd::Gql(G::Fascicles) => vec![]),
    }]),
    verb("purity", MINING, READ, &[Form {
        slots: &[FASCICLE], help: "purity check                  [Fig 4.8]",
        build: |a| Ok(R::Gql(G::Purity(a.word()?))), spell: spell!(Cmd::Gql(G::Purity(f)) => vec![Arg::Word(f)]),
    }]),
    verb("groups", MINING, WRITE, &[Form {
        slots: &[FASCICLE], help: "form control-group SUMYs      [Fig 4.7]",
        build: |a| Ok(R::Gql(G::Groups(a.word()?))), spell: spell!(Cmd::Gql(G::Groups(f)) => vec![Arg::Word(f)]),
    }]),
    verb("gap", MINING, WRITE, &[Form {
        slots: &[NAME, Slot::Name("<sumy1>"), Slot::Name("<sumy2>")], help: "GAP = diff(S1, S2)            [Fig 4.9]",
        build: |a| Ok(R::Gql(G::Gap { name: a.word()?, sumy1: a.word()?, sumy2: a.word()? })),
        spell: spell!(Cmd::Gql(G::Gap { name, sumy1, sumy2 }) => vec![Arg::Word(name), Arg::Word(sumy1), Arg::Word(sumy2)]),
    }]),
    verb("topgap", MINING, WRITE, &[Form {
        slots: &[Slot::Name("<gap>"), Slot::Num { show: "<x>", what: "x", domain: TOPGAP_X }],
        help: "calculate top gaps, x >= 1    [Fig 4.19]",
        build: |a| Ok(R::Gql(G::TopGap { gap: a.word()?, x: a.num()? as usize })),
        spell: spell!(Cmd::Gql(G::TopGap { gap, x }) => vec![Arg::Word(gap), Arg::Num(*x as u64)]),
    }]),
    verb("compare", MINING, WRITE, &[Form {
        slots: &[NAME, Slot::Name("<g1>"), Slot::Name("<g2>"), Slot::Alt {
            show: "<union|intersect|difference>", what: "op", words: &["union", "intersect", "difference", "diff"],
        }, Slot::Num { show: "<query#>", what: "query #", domain: QUERY }],
        help: "    [Fig 4.13]",
        build: |a| Ok(R::Gql(G::Compare {
            name: a.word()?, g1: a.word()?, g2: a.word()?,
            op: [CompareOp::Union, CompareOp::Intersect, CompareOp::Difference][a.alt()?.min(2)],
            query: query(a.num()?)?,
        })),
        spell: spell!(Cmd::Gql(G::Compare { name, g1, g2, op, query }) => vec![Arg::Word(name), Arg::Word(g1), Arg::Word(g2),
            Arg::Alt(*op as usize), Arg::Num(CompareQuery::ALL.iter().position(|q| q == query).map_or(0, |i| i as u64 + 1))]),
    }]),
    verb("show", INSPECT, READ, &[Form {
        slots: &[Slot::Alt { show: "gap|sumy", what: "table kind", words: &["gap", "sumy"] }, NAME,
            Slot::Opt { show: "[n]", slots: &[Slot::Num { show: "n", what: "n", domain: ROWS }] }],
        help: "view a table's first rows",
        build: |a| Ok(R::Gql(G::Show {
            kind: [ShowKind::Gap, ShowKind::Sumy][a.alt()?.min(1)], name: a.word()?, n: if a.opt()? { a.num()? as usize } else { 10 },
        })),
        spell: spell!(Cmd::Gql(G::Show { kind, name, n }) =>
            vec![Arg::Alt(*kind as usize), Arg::Word(name), Arg::Many(vec![Arg::Num(*n as u64)])]),
    }]),
    verb("plot", INSPECT, READ, &[Form {
        slots: &[DATASET, TAG, FASCICLE], help: "tag distribution              [Fig 4.10]",
        build: |a| Ok(R::Gql(G::Plot { dataset: a.word()?, tag: a.tag()?, fascicle: a.word()? })),
        spell: spell!(Cmd::Gql(G::Plot { dataset, tag, fascicle }) => vec![Arg::Word(dataset), Arg::Tag(*tag), Arg::Word(fascicle)]),
    }]),
    verb("library", INSPECT, READ, &[Form {
        slots: &[Slot::Name("<name|id>")], help: "library information           [Fig 4.23]",
        build: |a| Ok(R::Gql(G::Library(a.word()?))), spell: spell!(Cmd::Gql(G::Library(key)) => vec![Arg::Word(key)]),
    }]),
    verb("tagfreq", INSPECT, READ, &[Form {
        slots: &[DATASET, TAG], help: "expression values of a tag    [Fig 4.26]",
        build: |a| Ok(R::Gql(G::TagFreq { dataset: a.word()?, tag: a.tag()? })),
        spell: spell!(Cmd::Gql(G::TagFreq { dataset, tag }) => vec![Arg::Word(dataset), Arg::Tag(*tag)]),
    }]),
    verb("export", ADMIN, FS_READ, &[Form {
        slots: &[NAME, Slot::Name("<file.csv>")], help: "EXPORT a table to CSV",
        build: |a| Ok(R::Gql(G::Export { name: a.word()?, path: a.word()? })),
        spell: spell!(Cmd::Gql(G::Export { name, path }) => vec![Arg::Word(name), Arg::Word(path)]),
    }]),
    // Annotation lands in the lineage, which `lineage` then reports: a
    // session mutation even though no table changes.
    verb("comment", ADMIN, WRITE, &[Form {
        slots: &[NAME, Slot::Many { show: "<text...>", min: 1, each: &Slot::Name("<word>") }],
        help: "annotate a lineage node",
        build: |a| Ok(R::Gql(G::Comment { name: a.word()?, text: a.rest()?.join(" ") })),
        spell: spell!(Cmd::Gql(G::Comment { name, text }) => vec![Arg::Word(name), Arg::Word(text)]),
    }]),
    verb("delete", ADMIN, WRITE, &[Form {
        slots: &[NAME, Slot::Opt { show: "[--cascade]", slots: &[Slot::Lit("--cascade")] }],
        help: "drop contents / cascade       [Fig 4.18]",
        build: |a| Ok(R::Gql(G::Delete { name: a.word()?, cascade: a.opt()? })),
        spell: spell!(Cmd::Gql(G::Delete { name, cascade }) =>
            vec![Arg::Word(name), if *cascade { Arg::Many(Vec::new()) } else { Arg::Absent }]),
    }]),
    verb("populate", ADMIN, WRITE, &[Form {
        slots: &[NAME, Slot::Opt { show: "[<sumy> <dataset>]", slots: &[Slot::Name("<sumy>"), DATASET] }],
        help: "re-materialize (§4.4.2), or populate(SUMY, ENUM) -> ENUM",
        build: |a| Ok(R::Gql(G::Populate { name: a.word()?, from: if a.opt()? { Some((a.word()?, a.word()?)) } else { None } })),
        spell: spell!(Cmd::Gql(G::Populate { name, from }) => vec![Arg::Word(name), match from {
            Some((sumy, dataset)) => Arg::Many(vec![Arg::Word(sumy), Arg::Word(dataset)]),
            None => Arg::Absent,
        }]),
    }]),
    // Analyzes the pipeline against the symbol table without executing
    // it: a pure, cacheable read.
    verb("check", ANALYSIS, READ, &[Form {
        slots: &[Slot::Many { show: "<cmd> [; <cmd>]...", min: 1, each: &Slot::Name("<token>") }],
        help: "validate a pipeline against this session without running it",
        build: |a| pipeline(a.rest()?),
        spell: spell!(Cmd::Gql(G::Check(cmds)) => vec![Arg::Cmds(cmds)]),
    }]),
    verb("lineage", INSPECT, READ, &[Form {
        slots: &[], help: "operation history             [Fig 4.18]",
        build: |_| Ok(R::Gql(G::Lineage)), spell: spell!(Cmd::Gql(G::Lineage) => vec![]),
    }]),
    verb("cleaning", INSPECT, READ, &[Form {
        slots: &[], help: "cleaning report               [Fig 4.1]",
        build: |_| Ok(R::Gql(G::Cleaning)), spell: spell!(Cmd::Gql(G::Cleaning) => vec![]),
    }]),
    verb("xprofiler", INSPECT, READ, &[Form {
        slots: &[DATASET], help: "pooled cancer-vs-normal comparison  [sec 2.3.3]",
        build: |a| Ok(R::Gql(G::Xprofiler(a.word()?))), spell: spell!(Cmd::Gql(G::Xprofiler(dataset)) => vec![Arg::Word(dataset)]),
    }]),
    verb("save", ADMIN, FS_READ, &[Form {
        slots: &[DIR], help: "persist the full session (tables, lineage, snapshot)",
        build: |a| Ok(R::Gql(G::Save(a.word()?))), spell: spell!(Cmd::Gql(G::Save(dir)) => vec![Arg::Word(dir)]),
    }]),
    verb("load", ADMIN, WRITE, &[Form {
        slots: &[DIR], help: "restore a saved session in place (replaces current state)",
        build: |a| Ok(R::Gql(G::Load(a.word()?))), spell: spell!(Cmd::Gql(G::Load(dir)) => vec![Arg::Word(dir)]),
    }]),
    verb("gen-corpus", ADMIN, CONTROL, &[Form {
        slots: &[SEED, DIR], help: "write a demo corpus as SAGE text files",
        build: |a| Ok(R::GenCorpus { seed: a.num()?, dir: a.word()? }),
        spell: spell!(Cmd::Req(R::GenCorpus { seed, dir }) => vec![Arg::Num(*seed), Arg::Word(dir)]),
    }]),
    verb("ping", SERVER, CONTROL, &[Form {
        slots: &[], help: "liveness check",
        build: |_| Ok(R::Ping), spell: spell!(Cmd::Req(R::Ping) => vec![]),
    }]),
    verb("stats", SERVER, CONTROL, &[Form {
        slots: &[], help: "request counts, latencies, connections",
        build: |_| Ok(R::Stats), spell: spell!(Cmd::Req(R::Stats) => vec![]),
    }]),
    verb("shutdown", SERVER, CONTROL, &[Form {
        slots: &[], help: "stop the server gracefully",
        build: |_| Ok(R::Shutdown), spell: spell!(Cmd::Req(R::Shutdown) => vec![]),
    }]),
    verb("help", SERVER, CONTROL, &[Form {
        slots: &[], help: "this text",
        build: |_| Ok(R::Help), spell: spell!(Cmd::Req(R::Help) => vec![]),
    }]),
    VerbSpec { aliases: &["exit"], ..verb("quit", SERVER, CONTROL, &[Form {
        slots: &[], help: "",
        build: |_| Ok(R::Quit), spell: spell!(Cmd::Req(R::Quit) => vec![]),
    }]) },
    ]
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_handles_quotes_and_blanks() {
        assert_eq!(tokenize("a b  c").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(
            tokenize("comment g \"two words\"").unwrap(),
            vec!["comment", "g", "two words"]
        );
        assert_eq!(
            tokenize(r#"say "a \"quoted\" bit""#).unwrap(),
            vec!["say", "a \"quoted\" bit"]
        );
        assert_eq!(tokenize("   ").unwrap(), Vec::<String>::new());
        assert!(tokenize("bad \"unterminated").is_err());
    }

    #[test]
    fn parses_the_full_surface() {
        assert_eq!(parse("").unwrap(), None);
        assert_eq!(parse("help").unwrap(), Some(Request::Help));
        assert_eq!(parse("quit").unwrap(), Some(Request::Quit));
        assert_eq!(parse("exit").unwrap(), Some(Request::Quit));
        assert!(matches!(
            parse("open brain demo 42").unwrap(),
            Some(Request::Session(SessionCtl::OpenDemo { ref name, seed: 42 }))
                if name == "brain"
        ));
        assert!(matches!(
            parse("load-demo 7").unwrap(),
            Some(Request::Session(SessionCtl::OpenDemo { ref name, seed: 7 }))
                if name == "default"
        ));
        // The positional form is `with fascicles`: identical command,
        // identical canonical spelling.
        match parse("mine E f 50 3 6").unwrap() {
            Some(Request::Gql(cmd @ GqlCommand::MineWith { .. })) => assert_eq!(
                cmd.canonical(),
                "mine E f with fascicles k_pct=50 min_records=3 batch=6"
            ),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(
            parse("mine E f with fascicles").unwrap(),
            parse("mine E f 50 3 6").unwrap()
        );
        assert_eq!(
            parse("mine E f with fascicles batch=4 min_records=2 k_pct=70").unwrap(),
            parse("mine E f 70 2 4").unwrap()
        );
        // Every backend carries its whole resolved list, in schema order.
        match parse("mine E f with isa t_tags=2.5 seeds=4").unwrap() {
            Some(Request::Gql(GqlCommand::MineWith {
                ref algo,
                ref params,
                ..
            })) => {
                assert_eq!(algo, "isa");
                assert_eq!(
                    params,
                    &vec![
                        ("seeds".to_string(), ParamValue::UInt(4)),
                        ("t_tags".to_string(), ParamValue::Float(2.5)),
                        ("t_libs".to_string(), ParamValue::Float(1.5)),
                        ("max_iters".to_string(), ParamValue::UInt(50)),
                    ]
                );
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(matches!(
            parse("delete g --cascade").unwrap(),
            Some(Request::Gql(GqlCommand::Delete { cascade: true, .. }))
        ));
        assert!(matches!(
            parse("show sumy s 3").unwrap(),
            Some(Request::Gql(GqlCommand::Show {
                kind: ShowKind::Sumy,
                n: 3,
                ..
            }))
        ));
        assert!(matches!(
            parse("compare c a b intersect 2").unwrap(),
            Some(Request::Gql(GqlCommand::Compare { .. }))
        ));
    }

    #[test]
    fn errors_are_parse_errors() {
        assert!(parse("mine").is_err());
        assert!(parse("mine E f with").is_err());
        assert!(parse("mine E f with pca").is_err());
        assert!(parse("mine E f with isa bogus=1").is_err());
        assert!(parse("mine E f with isa seeds").is_err());
        assert!(parse("mine E f with isa seeds=abc").is_err());
        assert!(parse("mine E f with isa t_tags=NaN").is_err());
        assert!(parse("mine E f with isa seeds=2 seeds=3").is_err());
        // One domain per parameter, whatever the spelling.
        for (positional, sugared, message) in [
            (
                "mine E f 150 3 6",
                "mine E f with fascicles k_pct=150",
                "parameter k_pct = 150 out of domain (integer 1..=100)",
            ),
            (
                "mine E f 0 3 6",
                "mine E f with fascicles k_pct=0",
                "parameter k_pct = 0 out of domain (integer 1..=100)",
            ),
            (
                "mine E f 50 0 6",
                "mine E f with fascicles min_records=0",
                "parameter min_records = 0 out of domain (integer 1..=1048576)",
            ),
            (
                "mine E f 50 3 0",
                "mine E f with fascicles batch=0",
                "parameter batch = 0 out of domain (integer 1..=1048576)",
            ),
        ] {
            let refused = Err(ParseError(message.to_string()));
            assert_eq!(parse(positional), refused, "{positional}");
            assert_eq!(parse(sugared), refused, "{sugared}");
        }
        assert_eq!(
            parse("mine E f with isa seeds=0"),
            Err(ParseError(
                "parameter seeds = 0 out of domain (integer 1..=4096)".to_string()
            ))
        );
        assert!(parse("mine E f with simplex zero_repl=0").is_err());
        assert!(parse("mine E f abc 3 6").is_err());
        assert_eq!(
            parse("topgap g 0"),
            Err(ParseError(
                "parameter x = 0 out of domain (integer 1..=1048576)".to_string()
            ))
        );
        assert!(parse("show gap g abc")
            .unwrap_err()
            .0
            .starts_with("bad n: "));
        assert!(parse("custom C").is_err());
        assert!(parse("select S E").is_err());
        assert!(parse("project P E").is_err());
        assert!(parse("bogus").is_err());
        assert!(parse("open x demo notanumber").is_err());
        assert!(parse("compare a b c union 99").is_err());
        assert!(parse("topgap g notanumber").is_err());
        assert!(parse("populate a b").is_err());
        assert!(parse("populate a b c d").is_err());
    }

    #[test]
    fn check_parses_pipelines_and_rejects_non_gql() {
        match parse("check dataset E brain ; purity f_1").unwrap() {
            Some(Request::Gql(GqlCommand::Check(cmds))) => {
                assert_eq!(cmds.len(), 2);
                assert!(matches!(cmds[0], GqlCommand::Dataset { .. }));
                assert!(matches!(cmds[1], GqlCommand::Purity(_)));
            }
            other => panic!("unexpected: {other:?}"),
        }
        // A one-command pipeline needs no separator.
        assert!(matches!(
            parse("check tissues").unwrap(),
            Some(Request::Gql(GqlCommand::Check(ref cmds))) if cmds.len() == 1
        ));
        assert!(parse("check").is_err());
        assert!(parse("check dataset E brain ;").is_err());
        assert!(parse("check ; tissues").is_err());
        assert!(parse("check stats").is_err());
        assert!(parse("check open s demo 42").is_err());
        assert!(parse("check check tissues").is_err());
        // A sub-command parse error surfaces as the pipeline's error.
        assert!(parse("check mine E").is_err());
        // `check` never mutates, so it is a cacheable read.
        match parse("check tissues").unwrap() {
            Some(Request::Gql(cmd)) => {
                assert!(cmd.is_read());
                assert!(cmd.is_cacheable());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn read_write_classification() {
        let read = parse("show gap g 5").unwrap().unwrap();
        let write = parse("gap g a b").unwrap().unwrap();
        match (read, write) {
            (Request::Gql(r), Request::Gql(w)) => {
                assert!(r.is_read());
                assert!(!w.is_read());
            }
            other => panic!("unexpected: {other:?}"),
        }
        for line in ["tissues", "lineage", "cleaning", "fascicles", "purity f"] {
            match parse(line).unwrap().unwrap() {
                Request::Gql(cmd) => assert!(cmd.is_read(), "{line} should be a read"),
                other => panic!("{line} parsed to {other:?}"),
            }
        }
        for line in [
            "mine E f 50 3 6",
            "mine E f with isa",
            "mine E f with simplex k=2",
            "dataset E brain",
            "populate t",
            "comment t x",
            "load dir", // replaces the session in place, so it's a write
        ] {
            match parse(line).unwrap().unwrap() {
                Request::Gql(cmd) => assert!(!cmd.is_read(), "{line} should be a write"),
                other => panic!("{line} parsed to {other:?}"),
            }
        }
    }

    #[test]
    fn canonical_round_trips_and_normalizes() {
        // Every command surface: canonical() must parse back to the same
        // command, and re-canonicalize to the same string (a fixpoint).
        for line in [
            "tissues",
            "dataset E brain",
            "dataset E \"weird tissue\"",
            "custom C l1 l2",
            "select S E l1",
            "project P E AAAAAAAAAA",
            "mine E f 50 3 6",
            "mine E f with isa",
            "mine E f with isa seeds=4 t_tags=2.5",
            "mine E f with simplex k=2 zero_repl=0.25",
            "fascicles",
            "purity f_1",
            "groups f_1",
            "gap g s1 s2",
            "topgap g 5",
            "compare c a b intersect 2",
            "show sumy s 3",
            "plot E AAAAAAAAAA f_1",
            "library lib1",
            "tagfreq E AAAAAAAAAA",
            "export g out.csv",
            "comment g \"two words\"",
            "delete g --cascade",
            "delete g",
            "populate g",
            "populate P defS Eb",
            "check dataset E brain ; purity f_1 ; comment g \"two words\"",
            "lineage",
            "cleaning",
            "xprofiler E",
            "save dir",
            "load dir",
        ] {
            let Some(Request::Gql(cmd)) = parse(line).unwrap() else {
                panic!("{line} did not parse to a GQL command");
            };
            let canon = cmd.canonical();
            let Some(Request::Gql(reparsed)) = parse(&canon).unwrap() else {
                panic!("canonical {canon:?} did not parse");
            };
            assert_eq!(reparsed, cmd, "round-trip failed for {line:?}");
            assert_eq!(reparsed.canonical(), canon, "not a fixpoint: {canon:?}");
        }
        // Normalization: surface variants collapse to one key.
        let a = parse("show   gap g").unwrap().unwrap();
        let b = parse("show gap g 10").unwrap().unwrap();
        match (a, b) {
            (Request::Gql(a), Request::Gql(b)) => assert_eq!(a.canonical(), b.canonical()),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn cacheable_is_a_strict_subset_of_reads() {
        for line in ["show gap g 5", "lineage", "tissues", "purity f", "cleaning"] {
            let Some(Request::Gql(cmd)) = parse(line).unwrap() else {
                panic!("{line}");
            };
            assert!(cmd.is_cacheable(), "{line} should be cacheable");
        }
        // Filesystem-touching reads and all writes are not cacheable.
        for line in [
            "export g out.csv",
            "save dir",
            "load dir",
            "mine E f 50 3 6",
            "mine E f with isa seeds=4",
            "topgap g 5",
            "comment g x",
            "dataset E brain",
        ] {
            let Some(Request::Gql(cmd)) = parse(line).unwrap() else {
                panic!("{line}");
            };
            assert!(!cmd.is_cacheable(), "{line} must not be cacheable");
        }
    }

    #[test]
    fn help_covers_every_verb() {
        for spec in VERBS {
            for form in spec.forms {
                let usage = spec.usage(form);
                assert!(HELP.contains(&usage), "help missing {usage:?}");
            }
        }
    }
}
