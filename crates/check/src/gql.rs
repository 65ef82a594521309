//! The GEA Query Language (GQL): one line-oriented textual grammar shared
//! by the `gea-cli` REPL, batch scripts, and the TCP wire protocol.
//!
//! A request line is a verb plus whitespace-separated arguments; double
//! quotes group an argument containing spaces (`comment g1 "looks real"`).
//! Parsing is front-end independent: the same [`parse`] feeds the REPL's
//! single session and the server's named shared sessions.

use std::fmt;

use gea_core::compare::{CompareOp, CompareQuery};
use gea_mine::{ParamDomain, ParamValue};
use gea_sage::tag::TAG_SPACE;
use gea_sage::{Tag, TissueType};

/// The command reference printed by `help` (the thesis chapter 4 menus plus
/// the serving layer).
pub const HELP: &str = "\
GQL commands (thesis chapter 4's menus, served):
  session control
    open <name> demo <seed>             create/replace a named session from a demo corpus
    open <name> dir <dir>               create/replace a named session from a corpus directory
    load-demo <seed>                    shorthand: open the default session from a demo corpus
    load-dir <dir>                      shorthand: open the default session from a directory
    use <name>                          attach this connection to a named session
    sessions                            list open sessions
    close <name>                        drop a named session
  data sets
    tissues                             list tissue types and their libraries
    dataset <name> <tissue>             E = sigma_tissue(SAGE)        [Fig 4.4]
    custom <name> <lib> [<lib>...]      user-defined data set         [Fig 4.15]
    select <name> <dataset> <lib> [<lib>...]   sigma_libraries(dataset)
    project <name> <dataset> <tag> [<tag>...]  pi_tags(dataset)
  mining and gaps
    mine <dataset> <out> <k%> <min> <batch>   calculate fascicles: k% 1..=100, min and batch 1..=1048576   [Fig 4.6]
    mine <dataset> <out> with <algo> [key=val ...]   pluggable backends: fascicles, isa, simplex
    fascicles                           list mined fascicles
    purity <fascicle>                   purity check                  [Fig 4.8]
    groups <fascicle>                   form control-group SUMYs      [Fig 4.7]
    gap <name> <sumy1> <sumy2>          GAP = diff(S1, S2)            [Fig 4.9]
    topgap <gap> <x>                    calculate top gaps, x >= 1    [Fig 4.19]
    compare <name> <g1> <g2> <union|intersect|difference> <query#>    [Fig 4.13]
  inspection
    show gap|sumy <name> [n]            view a table's first rows
    plot <dataset> <tag> <fascicle>     tag distribution              [Fig 4.10]
    library <name|id>                   library information           [Fig 4.23]
    tagfreq <dataset> <tag>             expression values of a tag    [Fig 4.26]
    lineage                             operation history             [Fig 4.18]
    cleaning                            cleaning report               [Fig 4.1]
    xprofiler <dataset>                 pooled cancer-vs-normal comparison  [sec 2.3.3]
  static analysis
    check <cmd> [; <cmd>]...            validate a pipeline against this session without running it
  persistence and admin
    export <name> <file.csv>            EXPORT a table to CSV
    comment <name> <text...>            annotate a lineage node
    delete <name> [--cascade]           drop contents / cascade       [Fig 4.18]
    populate <name> [<sumy> <dataset>]  re-materialize (§4.4.2), or populate(SUMY, ENUM) -> ENUM
    save <dir>                          persist the full session (tables, lineage, snapshot)
    load <dir>                          restore a saved session in place (replaces current state)
    gen-corpus <seed> <dir>             write a demo corpus as SAGE text files
  server
    ping                                liveness check
    stats                               request counts, latencies, connections
    shutdown                            stop the server gracefully
    help                                this text
    quit";

/// A parse failure: the offending message, reported as `ERR EPARSE …`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

fn usage(text: &str) -> ParseError {
    ParseError(format!("usage: {text}"))
}

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
    /// back to this command. Used as the response-cache key component, so
    /// surface variants (`show gap g` vs `show gap g 10`, extra
    /// whitespace, `difference` vs `diff`) share one cache slot.
    pub fn canonical(&self) -> String {
        fn quote(token: &str) -> String {
            if !token.is_empty() && !token.contains(|c: char| c.is_whitespace() || c == '"') {
                return token.to_string();
            }
            let mut out = String::with_capacity(token.len() + 2);
            out.push('"');
            for c in token.chars() {
                if c == '"' || c == '\\' {
                    out.push('\\');
                }
                out.push(c);
            }
            out.push('"');
            out
        }
        fn join(verb: &str, args: &[&str]) -> String {
            let mut out = verb.to_string();
            for arg in args {
                out.push(' ');
                out.push_str(&quote(arg));
            }
            out
        }
        match self {
            GqlCommand::Tissues => "tissues".to_string(),
            GqlCommand::Dataset { name, tissue } => join("dataset", &[name, &tissue.to_string()]),
            GqlCommand::Custom { name, libraries } => {
                let mut args: Vec<&str> = vec![name];
                args.extend(libraries.iter().map(|s| s.as_str()));
                join("custom", &args)
            }
            GqlCommand::Select {
                name,
                dataset,
                libraries,
            } => {
                let mut args: Vec<&str> = vec![name, dataset];
                args.extend(libraries.iter().map(|s| s.as_str()));
                join("select", &args)
            }
            GqlCommand::Project {
                name,
                dataset,
                tags,
            } => {
                let tags: Vec<String> = tags.iter().map(|t| t.to_string()).collect();
                let mut args: Vec<&str> = vec![name, dataset];
                args.extend(tags.iter().map(|s| s.as_str()));
                join("project", &args)
            }
            GqlCommand::MineWith {
                dataset,
                out,
                algo,
                params,
            } => {
                let rendered: Vec<String> =
                    params.iter().map(|(k, v)| format!("{k}={v}")).collect();
                let mut args: Vec<&str> = vec![dataset, out, "with", algo];
                args.extend(rendered.iter().map(|s| s.as_str()));
                join("mine", &args)
            }
            GqlCommand::Fascicles => "fascicles".to_string(),
            GqlCommand::Purity(f) => join("purity", &[f]),
            GqlCommand::Groups(f) => join("groups", &[f]),
            GqlCommand::Gap { name, sumy1, sumy2 } => join("gap", &[name, sumy1, sumy2]),
            GqlCommand::TopGap { gap, x } => join("topgap", &[gap, &x.to_string()]),
            GqlCommand::Compare {
                name,
                g1,
                g2,
                op,
                query,
            } => {
                let op = match op {
                    CompareOp::Union => "union",
                    CompareOp::Intersect => "intersect",
                    CompareOp::Difference => "difference",
                };
                let qnum = CompareQuery::ALL
                    .iter()
                    .position(|q| q == query)
                    .map_or(0, |i| i + 1);
                join("compare", &[name, g1, g2, op, &qnum.to_string()])
            }
            GqlCommand::Show { kind, name, n } => {
                let kind = match kind {
                    ShowKind::Gap => "gap",
                    ShowKind::Sumy => "sumy",
                };
                join("show", &[kind, name, &n.to_string()])
            }
            GqlCommand::Plot {
                dataset,
                tag,
                fascicle,
            } => join("plot", &[dataset, &tag.to_string(), fascicle]),
            GqlCommand::Library(key) => join("library", &[key]),
            GqlCommand::TagFreq { dataset, tag } => join("tagfreq", &[dataset, &tag.to_string()]),
            GqlCommand::Export { name, path } => join("export", &[name, path]),
            GqlCommand::Comment { name, text } => join("comment", &[name, text]),
            GqlCommand::Delete { name, cascade } => {
                if *cascade {
                    join("delete", &[name, "--cascade"])
                } else {
                    join("delete", &[name])
                }
            }
            GqlCommand::Populate { name, from: None } => join("populate", &[name]),
            GqlCommand::Populate {
                name,
                from: Some((sumy, dataset)),
            } => join("populate", &[name, sumy, dataset]),
            GqlCommand::Check(cmds) => {
                // The separator stays a bare `;` token so the canonical
                // line re-splits into the same sub-commands.
                let mut out = "check".to_string();
                for (i, c) in cmds.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" ;");
                    }
                    out.push(' ');
                    out.push_str(&c.canonical());
                }
                out
            }
            GqlCommand::Lineage => "lineage".to_string(),
            GqlCommand::Cleaning => "cleaning".to_string(),
            GqlCommand::Xprofiler(dataset) => join("xprofiler", &[dataset]),
            GqlCommand::Save(dir) => join("save", &[dir]),
            GqlCommand::Load(dir) => join("load", &[dir]),
        }
    }

    /// The verb, for metrics labels.
    pub fn verb(&self) -> &'static str {
        match self {
            GqlCommand::Tissues => "tissues",
            GqlCommand::Dataset { .. } => "dataset",
            GqlCommand::Custom { .. } => "custom",
            GqlCommand::Select { .. } => "select",
            GqlCommand::Project { .. } => "project",
            GqlCommand::MineWith { .. } => "mine",
            GqlCommand::Fascicles => "fascicles",
            GqlCommand::Purity(_) => "purity",
            GqlCommand::Groups(_) => "groups",
            GqlCommand::Gap { .. } => "gap",
            GqlCommand::TopGap { .. } => "topgap",
            GqlCommand::Compare { .. } => "compare",
            GqlCommand::Show { .. } => "show",
            GqlCommand::Plot { .. } => "plot",
            GqlCommand::Library(_) => "library",
            GqlCommand::TagFreq { .. } => "tagfreq",
            GqlCommand::Export { .. } => "export",
            GqlCommand::Comment { .. } => "comment",
            GqlCommand::Delete { .. } => "delete",
            GqlCommand::Populate { .. } => "populate",
            GqlCommand::Check(_) => "check",
            GqlCommand::Lineage => "lineage",
            GqlCommand::Cleaning => "cleaning",
            GqlCommand::Xprofiler(_) => "xprofiler",
            GqlCommand::Save(_) => "save",
            GqlCommand::Load(_) => "load",
        }
    }
}

impl Request {
    /// The verb, for metrics labels.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Help => "help",
            Request::Quit => "quit",
            Request::Ping => "ping",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
            Request::GenCorpus { .. } => "gen-corpus",
            Request::Session(SessionCtl::OpenDemo { .. })
            | Request::Session(SessionCtl::OpenDir { .. }) => "open",
            Request::Session(SessionCtl::Use(_)) => "use",
            Request::Session(SessionCtl::List) => "sessions",
            Request::Session(SessionCtl::Close(_)) => "close",
            Request::Gql(cmd) => cmd.verb(),
        }
    }
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

fn parse_num<T: std::str::FromStr>(what: &str, token: &str) -> Result<T, ParseError>
where
    T::Err: fmt::Display,
{
    token
        .parse()
        .map_err(|e| ParseError(format!("bad {what}: {e}")))
}

fn parse_tag(token: &str) -> Result<Tag, ParseError> {
    token
        .parse()
        .map_err(|e| ParseError(format!("bad tag: {e}")))
}

/// `topgap`'s `x`: at least one row, and no more than a GAP can hold
/// (one row per tag of the 20-bit tag space).
const TOPGAP_X: ParamDomain = ParamDomain::UInt {
    min: 1,
    max: TAG_SPACE as u64,
};

/// Parse `mine <dataset> <out> with <algo> [key=val ...]`, the one
/// grammar of every `mine` spelling, against the `gea-mine` registry:
/// unknown backends, unknown keys, duplicates, non-numeric and
/// out-of-domain values are parse errors. The command carries the
/// backend's whole resolved parameter list, so the positional form and
/// `with fascicles` share one canonical spelling, one cache key, and one
/// execution path.
fn parse_mine_with(
    dataset: &str,
    out: &str,
    algo: &str,
    tokens: &[&str],
) -> Result<GqlCommand, ParseError> {
    let Some(backend) = gea_mine::backend(algo) else {
        return Err(ParseError(format!(
            "unknown mining backend {algo:?} (available: {})",
            gea_mine::backend_names()
        )));
    };
    let specs = backend.params();
    let mut params: Vec<(String, ParamValue)> = Vec::new();
    for token in tokens {
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
    Ok(GqlCommand::MineWith {
        dataset: dataset.to_string(),
        out: out.to_string(),
        algo: backend.name().to_string(),
        params: resolved.iter().map(|(k, v)| (k.to_string(), v)).collect(),
    })
}

/// Parse one request line. `Ok(None)` means the line was blank.
pub fn parse(line: &str) -> Result<Option<Request>, ParseError> {
    let tokens = tokenize(line)?;
    let Some((cmd, args)) = tokens.split_first() else {
        return Ok(None);
    };
    let args: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    let req = match cmd.as_str() {
        "help" => Request::Help,
        "quit" | "exit" => Request::Quit,
        "ping" => Request::Ping,
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        "sessions" => Request::Session(SessionCtl::List),
        "use" => {
            let [name] = args[..] else {
                return Err(usage("use <name>"));
            };
            Request::Session(SessionCtl::Use(name.to_string()))
        }
        "close" => {
            let [name] = args[..] else {
                return Err(usage("close <name>"));
            };
            Request::Session(SessionCtl::Close(name.to_string()))
        }
        "open" => match args[..] {
            [name, "demo", seed] => Request::Session(SessionCtl::OpenDemo {
                name: name.to_string(),
                seed: parse_num("seed", seed)?,
            }),
            [name, "dir", dir] => Request::Session(SessionCtl::OpenDir {
                name: name.to_string(),
                dir: dir.to_string(),
            }),
            _ => return Err(usage("open <name> demo <seed> | open <name> dir <dir>")),
        },
        "load-demo" => {
            let seed = match args[..] {
                [] => 42,
                [seed] => parse_num("seed", seed)?,
                _ => return Err(usage("load-demo <seed>")),
            };
            Request::Session(SessionCtl::OpenDemo {
                name: "default".to_string(),
                seed,
            })
        }
        "load-dir" => {
            let [dir] = args[..] else {
                return Err(usage("load-dir <dir>"));
            };
            Request::Session(SessionCtl::OpenDir {
                name: "default".to_string(),
                dir: dir.to_string(),
            })
        }
        "gen-corpus" => {
            let [seed, dir] = args[..] else {
                return Err(usage("gen-corpus <seed> <dir>"));
            };
            Request::GenCorpus {
                seed: parse_num("seed", seed)?,
                dir: dir.to_string(),
            }
        }
        other => match parse_gql(cmd, &args)? {
            Some(gql) => Request::Gql(gql),
            None => return Err(ParseError(format!("unknown command {other:?}; try `help`"))),
        },
    };
    Ok(Some(req))
}

/// Parse one algebra (table-level) command. `Ok(None)` means the verb is
/// not a GQL table command (it may still be a session/server verb handled
/// by [`parse`]). Factored out of [`parse`] so the `check` verb can parse
/// each sub-command of its `;`-separated pipeline with the same grammar.
fn parse_gql(cmd: &str, args: &[&str]) -> Result<Option<GqlCommand>, ParseError> {
    let gql = match cmd {
        "tissues" => GqlCommand::Tissues,
        "dataset" => {
            let [name, tissue] = args[..] else {
                return Err(usage("dataset <name> <tissue>"));
            };
            GqlCommand::Dataset {
                name: name.to_string(),
                tissue: TissueType::parse(tissue),
            }
        }
        "custom" => {
            let Some((&name, libs)) = args.split_first() else {
                return Err(usage("custom <name> <lib> [<lib>...]"));
            };
            if libs.is_empty() {
                return Err(ParseError("need at least one library".to_string()));
            }
            GqlCommand::Custom {
                name: name.to_string(),
                libraries: libs.iter().map(|s| s.to_string()).collect(),
            }
        }
        "select" => {
            let [name, dataset, libs @ ..] = args else {
                return Err(usage("select <name> <dataset> <lib> [<lib>...]"));
            };
            if libs.is_empty() {
                return Err(ParseError("need at least one library".to_string()));
            }
            GqlCommand::Select {
                name: name.to_string(),
                dataset: dataset.to_string(),
                libraries: libs.iter().map(|s| s.to_string()).collect(),
            }
        }
        "project" => {
            let [name, dataset, tags @ ..] = args else {
                return Err(usage("project <name> <dataset> <tag> [<tag>...]"));
            };
            if tags.is_empty() {
                return Err(ParseError("need at least one tag".to_string()));
            }
            GqlCommand::Project {
                name: name.to_string(),
                dataset: dataset.to_string(),
                tags: tags
                    .iter()
                    .map(|t| parse_tag(t))
                    .collect::<Result<_, _>>()?,
            }
        }
        "mine" => {
            if args.get(2).copied() == Some("with") {
                let [dataset, out, _with, algo, params @ ..] = args else {
                    return Err(usage("mine <dataset> <out> with <algo> [key=val ...]"));
                };
                parse_mine_with(dataset, out, algo, params)?
            } else {
                let [dataset, out, k_pct, min_records, batch] = args[..] else {
                    return Err(usage("mine <dataset> <out> <k%> <min> <batch>"));
                };
                let params = [
                    format!("k_pct={k_pct}"),
                    format!("min_records={min_records}"),
                    format!("batch={batch}"),
                ];
                let params: Vec<&str> = params.iter().map(String::as_str).collect();
                parse_mine_with(dataset, out, "fascicles", &params)?
            }
        }
        "fascicles" => GqlCommand::Fascicles,
        "purity" => {
            let [f] = args[..] else {
                return Err(usage("purity <fascicle>"));
            };
            GqlCommand::Purity(f.to_string())
        }
        "groups" => {
            let [f] = args[..] else {
                return Err(usage("groups <fascicle>"));
            };
            GqlCommand::Groups(f.to_string())
        }
        "gap" => {
            let [name, s1, s2] = args[..] else {
                return Err(usage("gap <name> <sumy1> <sumy2>"));
            };
            GqlCommand::Gap {
                name: name.to_string(),
                sumy1: s1.to_string(),
                sumy2: s2.to_string(),
            }
        }
        "topgap" => {
            let [gap, x] = args[..] else {
                return Err(usage("topgap <gap> <x>"));
            };
            let x: u64 = parse_num("x", x)?;
            TOPGAP_X
                .admit("x", ParamValue::UInt(x))
                .map_err(ParseError)?;
            GqlCommand::TopGap {
                gap: gap.to_string(),
                x: x as usize,
            }
        }
        "compare" => {
            let [name, g1, g2, op, query] = args[..] else {
                return Err(usage(
                    "compare <name> <g1> <g2> <union|intersect|difference> <query#>",
                ));
            };
            let op = match op {
                "union" => CompareOp::Union,
                "intersect" => CompareOp::Intersect,
                "difference" | "diff" => CompareOp::Difference,
                other => return Err(ParseError(format!("unknown op {other:?}"))),
            };
            let qnum: usize = parse_num("query #", query)?;
            let query = *CompareQuery::ALL
                .get(qnum.wrapping_sub(1))
                .ok_or_else(|| ParseError("query # must be 1-13".to_string()))?;
            GqlCommand::Compare {
                name: name.to_string(),
                g1: g1.to_string(),
                g2: g2.to_string(),
                op,
                query,
            }
        }
        "show" => {
            let [kind, name, rest @ ..] = args else {
                return Err(usage("show gap|sumy <name> [n]"));
            };
            let kind = match *kind {
                "gap" => ShowKind::Gap,
                "sumy" => ShowKind::Sumy,
                other => return Err(ParseError(format!("unknown table kind {other:?}"))),
            };
            let n = match rest.first() {
                Some(n) => parse_num("n", n)?,
                None => 10,
            };
            GqlCommand::Show {
                kind,
                name: name.to_string(),
                n,
            }
        }
        "plot" => {
            let [dataset, tag, fascicle] = args[..] else {
                return Err(usage("plot <dataset> <tag> <fascicle>"));
            };
            GqlCommand::Plot {
                dataset: dataset.to_string(),
                tag: parse_tag(tag)?,
                fascicle: fascicle.to_string(),
            }
        }
        "library" => {
            let [key] = args[..] else {
                return Err(usage("library <name|id>"));
            };
            GqlCommand::Library(key.to_string())
        }
        "tagfreq" => {
            let [dataset, tag] = args[..] else {
                return Err(usage("tagfreq <dataset> <tag>"));
            };
            GqlCommand::TagFreq {
                dataset: dataset.to_string(),
                tag: parse_tag(tag)?,
            }
        }
        "export" => {
            let [name, path] = args[..] else {
                return Err(usage("export <name> <file.csv>"));
            };
            GqlCommand::Export {
                name: name.to_string(),
                path: path.to_string(),
            }
        }
        "comment" => {
            let Some((&name, words)) = args.split_first() else {
                return Err(usage("comment <name> <text...>"));
            };
            if words.is_empty() {
                return Err(usage("comment <name> <text...>"));
            }
            GqlCommand::Comment {
                name: name.to_string(),
                text: words.join(" "),
            }
        }
        "delete" => {
            let Some((&name, flags)) = args.split_first() else {
                return Err(usage("delete <name> [--cascade]"));
            };
            GqlCommand::Delete {
                name: name.to_string(),
                cascade: flags.contains(&"--cascade"),
            }
        }
        "populate" => match args[..] {
            [name] => GqlCommand::Populate {
                name: name.to_string(),
                from: None,
            },
            [name, sumy, dataset] => GqlCommand::Populate {
                name: name.to_string(),
                from: Some((sumy.to_string(), dataset.to_string())),
            },
            _ => return Err(usage("populate <name> [<sumy> <dataset>]")),
        },
        "check" => {
            if args.is_empty() {
                return Err(usage("check <cmd> [; <cmd>]..."));
            }
            let mut cmds = Vec::new();
            for segment in args.split(|t| *t == ";") {
                let Some((&sub, subargs)) = segment.split_first() else {
                    return Err(ParseError(
                        "check: empty command in pipeline (stray `;`)".to_string(),
                    ));
                };
                if sub == "check" {
                    return Err(ParseError("check cannot nest".to_string()));
                }
                match parse_gql(sub, subargs)? {
                    Some(c) => cmds.push(c),
                    None => {
                        return Err(ParseError(format!(
                            "check validates algebra commands only; {sub:?} is a session/server command"
                        )))
                    }
                }
            }
            GqlCommand::Check(cmds)
        }
        "lineage" => GqlCommand::Lineage,
        "cleaning" => GqlCommand::Cleaning,
        "xprofiler" => {
            let [dataset] = args[..] else {
                return Err(usage("xprofiler <dataset>"));
            };
            GqlCommand::Xprofiler(dataset.to_string())
        }
        "save" => {
            let [dir] = args[..] else {
                return Err(usage("save <dir>"));
            };
            GqlCommand::Save(dir.to_string())
        }
        "load" => {
            let [dir] = args[..] else {
                return Err(usage("load <dir>"));
            };
            GqlCommand::Load(dir.to_string())
        }
        _ => return Ok(None),
    };
    Ok(Some(gql))
}

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
        for verb in [
            "open",
            "use",
            "sessions",
            "close",
            "load-demo",
            "load-dir",
            "gen-corpus",
            "tissues",
            "dataset",
            "custom",
            "select",
            "project",
            "mine",
            "fascicles",
            "purity",
            "groups",
            "gap",
            "topgap",
            "compare",
            "show",
            "plot",
            "library",
            "tagfreq",
            "export",
            "comment",
            "check",
            "delete",
            "populate",
            "lineage",
            "cleaning",
            "xprofiler",
            "save",
            "load",
            "ping",
            "stats",
            "shutdown",
            "help",
            "quit",
        ] {
            assert!(HELP.contains(verb), "help missing {verb}");
        }
    }
}
