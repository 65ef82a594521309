//! The GEA analysis session — the toolkit's front door.
//!
//! A [`GeaSession`] owns the cleaned data set, the named intermediate
//! tables (ENUM / SUMY / GAP) and the lineage DAG. The typed tables are the
//! one copy of every table; their relational form (Appendix IV) is a view,
//! [`GeaSession::relation`], built from them and the lineage when `save`
//! exports it. Its methods are the thesis's *macro
//! operations* (§4.1): "immediately after the mining operation, both the
//! SUMY table and the corresponding ENUM table are created with an
//! automatic invocation of the populate operation. … the output of an
//! operation becomes the input of another", so each case study of Chapter 4
//! is a short sequence of session calls (see `examples/brain_case_study.rs`).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use gea_cluster::{FascicleParams, ToleranceVector};
use gea_relstore::{Database, Table};
use gea_sage::clean::{clean_factors, cleaned_columns, CleaningConfig, CleaningReport};
use gea_sage::corpus::SageCorpus;
use gea_sage::library::{LibraryId, LibraryMeta, LibraryProperty};
use gea_sage::tag::{Tag, TagId, TagUniverse};
use gea_sage::TissueType;

use crate::compare::{compare_gaps, compare_gaps_self, CompareOp, CompareQuery};
use crate::enum_table::{is_pure, pure_properties, EnumTable};
use crate::gap::{diff, GapTable};
use crate::lineage::{Lineage, LineageError, LineageNode, NodeId, NodeKind};
use crate::mine::{generate_metadata, mine, MinedCluster, Miner};
use crate::relational::{
    enum_schema, enum_to_relation, gap_schema, gap_to_relation, sumy_schema, sumy_to_relation,
    ConvertError,
};
use crate::sumy::{aggregate, aggregate_tag_rows, aggregate_tags, SumyRow, SumyTable};
use crate::topgap::{tag_distribution, top_gaps, TagPlotPoint, TopGapOrder};

/// Parallel-execution knobs carried by a session: how many worker threads
/// the sharded drivers may spawn and how many contiguous shards an
/// operator's input is partitioned into. Sharding is an execution detail
/// only — every sharded driver is byte-identical to its serial
/// counterpart — so this configuration is *not* part of the persisted
/// session state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads the sharded drivers may use (min 1).
    pub threads: usize,
    /// Contiguous shards an operator's input is split into (min 1).
    pub shards: usize,
}

impl ExecConfig {
    /// Single-threaded, single-shard: the serial path.
    pub fn serial() -> ExecConfig {
        ExecConfig {
            threads: 1,
            shards: 1,
        }
    }

    /// `threads` workers and one shard per worker; `0` means the default
    /// (available parallelism).
    pub fn with_threads(threads: usize) -> ExecConfig {
        if threads == 0 {
            return ExecConfig::default();
        }
        ExecConfig {
            threads,
            shards: threads,
        }
    }
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ExecConfig {
            threads,
            shards: threads,
        }
    }
}

/// One completed parallel-operator execution, noted on the session so
/// front-ends (the server's `stats` counters) can observe executor
/// activity without threading a metrics handle through `gea-core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecEvent {
    /// Operator name (`"mine"`, `"populate"`, `"aggregate"`).
    pub op: &'static str,
    /// Shards the input was split into.
    pub shards: usize,
    /// Wall-clock time of the parallel section, in microseconds.
    pub wall_us: u64,
    /// Summed per-worker busy time (a CPU-time proxy), in microseconds.
    pub busy_us: u64,
}

/// Session-level errors.
#[derive(Debug)]
pub enum GeaError {
    /// The requested table does not exist.
    NotFound {
        /// `ENUM`, `SUMY`, `GAP` or `fascicle`.
        kind: &'static str,
        /// The missing name.
        name: String,
    },
    /// A table with that name already exists (the Figure 4.28 redundancy
    /// check; use a fresh name or delete first).
    NameTaken(String),
    /// A fascicle failed the purity check for the requested property —
    /// "if a fascicle is non-pure … the analysis of this fascicle is
    /// terminated" (Figure 4.8).
    NotPure {
        /// The fascicle.
        fascicle: String,
        /// The property it is impure on.
        property: LibraryProperty,
    },
    /// The operation produced or received an empty library set.
    EmptyGroup(String),
    /// Lineage bookkeeping failed.
    Lineage(LineageError),
    /// A requested comparison query does not apply to the comparison
    /// operation (queries 6–13 under Difference).
    QueryNotApplicable,
    /// Results handed to an install that no run of the operation produces
    /// (a SUMY row list naming one tag twice; partials of another operation,
    /// or none): bytes off the wire, refused whole.
    Malformed(String),
}

impl From<LineageError> for GeaError {
    fn from(e: LineageError) -> GeaError {
        GeaError::Lineage(e)
    }
}

/// A table whose relational schema is invalid (a repeated column name) is
/// refused at install time, under the code and text the wire has always
/// carried for it.
impl From<ConvertError> for GeaError {
    fn from(e: ConvertError) -> GeaError {
        GeaError::EmptyGroup(e.to_string())
    }
}

impl fmt::Display for GeaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeaError::NotFound { kind, name } => write!(f, "no {kind} table named {name:?}"),
            GeaError::NameTaken(name) => write!(
                f,
                "a table named {name:?} already exists; replace or choose another name"
            ),
            GeaError::NotPure { fascicle, property } => write!(
                f,
                "fascicle {fascicle:?} is not pure on property {property}"
            ),
            GeaError::EmptyGroup(what) => write!(f, "{what} selected no libraries"),
            GeaError::Lineage(e) => write!(f, "{e}"),
            GeaError::QueryNotApplicable => {
                f.write_str("this query applies only to union/intersection comparisons")
            }
            GeaError::Malformed(what) => write!(f, "malformed result: {what}"),
        }
    }
}

impl std::error::Error for GeaError {}

/// A mined fascicle's bookkeeping within a session.
#[derive(Debug, Clone)]
pub struct FascicleRecord {
    /// Fascicle name (`brain35k_4`).
    pub name: String,
    /// The data set it was mined from.
    pub dataset: String,
    /// Member library names.
    pub members: Vec<String>,
    /// Compact tags.
    pub compact_tags: Vec<Tag>,
    /// Name of the automatically created SUMY definition.
    pub sumy_name: String,
    /// Purity results, filled in by [`GeaSession::purity_check`].
    pub purity: Vec<LibraryProperty>,
    /// Mining backend that produced it (`fascicles`, `isa`, `simplex`).
    /// Snapshots written before backends existed restore as `fascicles`.
    pub backend: String,
    /// Backend parameters as rendered `(key, value)` pairs — the full
    /// provenance needed to reproduce the mine that made this fascicle.
    pub params: Vec<(String, String)>,
}

/// Names of the three control-group SUMY tables of §4.3.1.2 steps 4–5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlGroups {
    /// Libraries in the fascicle (`…CancerFasTbl`).
    pub in_fascicle: String,
    /// Libraries with the same property but outside the fascicle
    /// (`…CanNotInFasTbl`).
    pub outside_fascicle: String,
    /// Libraries with the opposite property (`…NormalTable`).
    pub contrast: String,
}

/// The side-effect-free inputs of the `formSUM` macro operation
/// ([`GeaSession::form_control_groups`]): the three result names, the
/// compact-tag ids within the source data set, and the three library
/// selections the SUMY aggregations run over, as ids within that data set.
/// Computed under `&self` without copying a table, so installs and
/// shard-scoped front-ends (the router's scatter verbs) can re-validate
/// against the session as it is.
#[derive(Debug, Clone)]
pub struct ControlGroupSelection {
    /// The three result-table names.
    pub names: ControlGroups,
    /// The data set the fascicle was mined from.
    pub dataset: String,
    /// Compact-tag ids within the *data set* matrix, in record order.
    pub compact_ids: Vec<TagId>,
    /// The fascicle's members (the selection the in-fascicle SUMY
    /// aggregates over; never installed as an ENUM).
    pub in_members: Vec<LibraryId>,
    /// ENUM₂: same property, outside the fascicle.
    pub outside: Vec<LibraryId>,
    /// ENUM₃: the contrasting property.
    pub contrast: Vec<LibraryId>,
}

/// A [`ControlGroupSelection`] with its three library selections built as
/// tables over the data set's every tag: what the aggregations read
/// ([`GeaSession::control_group_inputs`]). Transient — nothing of it is
/// installed.
#[derive(Debug, Clone)]
pub struct ControlGroupInputs {
    /// The three result-table names.
    pub names: ControlGroups,
    /// Compact-tag ids within the *data set* matrix, in record order.
    pub compact_ids: Vec<TagId>,
    /// Fascicle members selected out of the data set.
    pub in_members: EnumTable,
    /// ENUM₂: same property, outside the fascicle.
    pub outside: EnumTable,
    /// ENUM₃: the contrasting property.
    pub contrast: EnumTable,
}

/// The definition of a derived table: libraries of an ENUM table — its
/// parent — and optionally some of its tags. A mined cluster's ENUM is
/// its members over its compact tags, and its SUMY those members
/// aggregated over the same tags; a control group's ENUM is a library
/// selection over every tag; a `populate` result is the qualifying
/// libraries over the SUMY's tags. The parent is named, and is always a
/// lineage ancestor of the table defined over it, so `delete --cascade`
/// removes the table with its parent; a lookup that fails all the same
/// answers [`GeaError::NotFound`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// The ENUM table selected from.
    pub parent: String,
    /// Library ids within the parent, in the result's column order.
    pub libraries: Vec<LibraryId>,
    /// Tag ids within the parent, ascending and distinct; `None` keeps
    /// every tag.
    pub tags: Option<Vec<TagId>>,
}

impl Selection {
    /// The ENUM table `name` this selection defines over `parent`.
    fn enum_table(&self, name: &str, parent: &EnumTable) -> EnumTable {
        let table = parent.with_libraries(name, &self.libraries);
        match &self.tags {
            Some(tags) => table.select_tags(name, tags),
            None => table,
        }
    }

    /// The SUMY `name` this selection defines over `parent`: its libraries
    /// aggregated over its tags. Installs refuse an empty library list.
    fn sumy(&self, name: &str, parent: &EnumTable) -> SumyTable {
        let members = parent.matrix.select_libraries(&self.libraries);
        match &self.tags {
            Some(tags) => aggregate_tags(name, &members, tags),
            None => aggregate(name, &members),
        }
    }
}

/// One named ENUM or SUMY table of a session: held as given, or held as
/// the [`Selection`] it derives from and built on first read.
pub(crate) enum Stored<T> {
    /// A table nothing else determines: a data set, a SUMY the session was
    /// handed rows for, anything a snapshot load restored.
    Held(T),
    /// A table its definition determines, built once something reads it;
    /// a contents-only `delete` drops what was built.
    Derived(Selection, OnceLock<T>),
}

impl<T> Stored<T> {
    fn derived(def: Selection) -> Stored<T> {
        Stored::Derived(def, OnceLock::new())
    }

    /// The table if it is held or has been built, or else the definition
    /// it is built from.
    fn state(&self) -> Result<&T, &Selection> {
        match self {
            Stored::Held(table) => Ok(table),
            Stored::Derived(def, built) => built.get().ok_or(def),
        }
    }
}

/// The immutable half of a [`GeaSession`]: what `open` builds and no
/// operation changes. A session holds it behind an [`Arc`] and never
/// mutates it, so sessions over byte-identical sources — a session and
/// the one a `load` of its own save replaces it with — share one copy.
///
/// The root data set `SAGE` of a session opened over a corpus is derived,
/// not held: cleaning decides the kept tags and one scale factor per
/// library, and a data set is built from the corpus columns it selects
/// ([`SessionSource::dataset`]). The dense root matrix is built once, the
/// first time something names `SAGE` ([`SessionSource::base`]).
pub struct SessionSource {
    /// The raw corpus.
    pub corpus: SageCorpus,
    /// The cleaning report.
    pub report: CleaningReport,
    pub(crate) root: Root,
}

/// Where a session's root data set comes from.
pub(crate) enum Root {
    /// Cleaned from the corpus: the kept tags, each library's scale factor
    /// (by [`LibraryId`]), and the dense matrix once something asks for it.
    Cleaned {
        kept: TagUniverse,
        factors: Vec<f64>,
        base: OnceLock<EnumTable>,
    },
    /// A prepared matrix (the microarray path, `load_matrix`), held as
    /// given: there is no corpus to derive it from.
    Matrix(EnumTable),
}

impl SessionSource {
    /// Clean `corpus` under `config` (§4.2), holding what the root's
    /// columns derive from rather than the root itself.
    pub fn clean(corpus: SageCorpus, config: &CleaningConfig) -> SessionSource {
        let (kept, factors, report) = clean_factors(&corpus, config);
        SessionSource {
            corpus,
            report,
            root: Root::Cleaned {
                kept,
                factors,
                base: OnceLock::new(),
            },
        }
    }

    /// A source over a prepared matrix, which becomes `SAGE` as given; the
    /// corpus is empty.
    pub fn from_matrix(base: EnumTable, report: CleaningReport) -> SessionSource {
        SessionSource {
            corpus: SageCorpus::new(),
            report,
            root: Root::Matrix(base),
        }
    }

    /// The root data set `SAGE`, built from the corpus on the first call
    /// when the source was cleaned.
    pub fn base(&self) -> &EnumTable {
        match &self.root {
            Root::Cleaned {
                kept,
                factors,
                base,
            } => base.get_or_init(|| {
                let all: Vec<LibraryId> = self.corpus.ids().collect();
                EnumTable::new("SAGE", cleaned_columns(&self.corpus, kept, factors, &all))
            }),
            Root::Matrix(base) => base,
        }
    }

    /// The dense root matrix if the source holds one: always for a
    /// prepared matrix, and for a cleaned corpus only once something has
    /// named `SAGE`.
    pub fn held_base(&self) -> Option<&EnumTable> {
        match &self.root {
            Root::Cleaned { base, .. } => base.get(),
            Root::Matrix(base) => Some(base),
        }
    }

    /// The root's library metadata, in column order.
    pub fn libraries(&self) -> Vec<&LibraryMeta> {
        match &self.root {
            Root::Cleaned { .. } => self.corpus.iter().map(|(_, l)| &l.meta).collect(),
            Root::Matrix(base) => base.libraries().iter().collect(),
        }
    }

    /// Number of libraries in the root data set.
    pub fn n_libraries(&self) -> usize {
        match &self.root {
            Root::Cleaned { .. } => self.corpus.len(),
            Root::Matrix(base) => base.n_libraries(),
        }
    }

    /// The root's tags: the kept ones when the source was cleaned.
    fn universe(&self) -> &TagUniverse {
        match &self.root {
            Root::Cleaned { kept, .. } => kept,
            Root::Matrix(base) => base.matrix.universe(),
        }
    }

    /// `π(SAGE)`: the root's rows for `ids` (ids into [`Self::universe`]),
    /// as a data set named `name` — bit for bit what projecting
    /// [`Self::base`] gives, built from every corpus column over those
    /// tags alone when the source was cleaned.
    fn projection(&self, name: &str, ids: &[TagId]) -> EnumTable {
        match &self.root {
            Root::Cleaned { kept, factors, .. } => {
                let tags = TagUniverse::from_tags(ids.iter().map(|&id| kept.tag_of(id)));
                let all: Vec<LibraryId> = self.corpus.ids().collect();
                EnumTable::new(name, cleaned_columns(&self.corpus, &tags, factors, &all))
            }
            Root::Matrix(base) => base.select_tags(name, ids),
        }
    }

    /// `σ(SAGE)`: the root's libraries whose metadata satisfies `keep`, as
    /// a data set named `name` — bit for bit what selecting them from
    /// [`Self::base`] gives, built from their corpus columns alone when
    /// the source was cleaned.
    pub fn dataset(&self, name: &str, mut keep: impl FnMut(&LibraryMeta) -> bool) -> EnumTable {
        match &self.root {
            Root::Cleaned { kept, factors, .. } => {
                let ids: Vec<LibraryId> = self
                    .corpus
                    .iter()
                    .filter(|(_, l)| keep(&l.meta))
                    .map(|(id, _)| id)
                    .collect();
                EnumTable::new(name, cleaned_columns(&self.corpus, kept, factors, &ids))
            }
            Root::Matrix(base) => base.select_libraries(name, keep),
        }
    }
}

/// The complete state of a [`GeaSession`], decomposed into owned parts —
/// the unit of persistence for `gea_core::persist`'s full-fidelity
/// snapshot format. Everything a session holds is here except the
/// name→node index, which is derivable from the lineage and rebuilt by
/// [`GeaSession::from_snapshot`].
pub struct SessionSnapshot {
    /// The corpus, cleaning report and root data set.
    pub source: Arc<SessionSource>,
    /// The lineage DAG.
    pub lineage: Lineage,
    /// Derived ENUM tables by name, each as built.
    pub enums: BTreeMap<String, EnumTable>,
    /// SUMY tables by name, each as built.
    pub sumys: BTreeMap<String, SumyTable>,
    /// GAP tables by name.
    pub gaps: BTreeMap<String, GapTable>,
    /// Fascicle records by name.
    pub fascicles: BTreeMap<String, FascicleRecord>,
}

/// One GEA analysis session.
pub struct GeaSession {
    source: Arc<SessionSource>,
    lineage: Lineage,
    enums: BTreeMap<String, Stored<EnumTable>>,
    sumys: BTreeMap<String, Stored<SumyTable>>,
    gaps: BTreeMap<String, GapTable>,
    fascicles: BTreeMap<String, FascicleRecord>,
    nodes: BTreeMap<String, NodeId>,
    exec: ExecConfig,
    exec_events: Vec<ExecEvent>,
}

/// The lineage operations that construct a *data set* — the root and the
/// selections of it. They are the nodes with no relational form: the
/// thesis stores data sets once, in the corpus, and every table an
/// operator derives from them (fascicle, `populate` result, SUMY, GAP,
/// top-gap, comparison) in DB2.
const DATASET_OPS: [&str; 6] = [
    "clean",
    "load_matrix",
    "select_tissue",
    "custom_dataset",
    "select_libraries",
    "project_tags",
];

impl GeaSession {
    /// Open a session: run the §4.2 cleaning pipeline over a raw corpus and
    /// register the cleaned data set as the root ENUM table `SAGE`.
    pub fn open(corpus: SageCorpus, config: &CleaningConfig) -> Result<GeaSession, GeaError> {
        let mut lineage = Lineage::new();
        let root = lineage.record(
            "SAGE",
            NodeKind::Enum,
            "clean",
            vec![
                (
                    "min_tolerance".to_string(),
                    config.min_tolerance.to_string(),
                ),
                (
                    "scale_to".to_string(),
                    config
                        .scale_to
                        .map(|s| s.to_string())
                        .unwrap_or_else(|| "none".to_string()),
                ),
            ],
            &[],
        )?;
        let mut nodes = BTreeMap::new();
        nodes.insert("SAGE".to_string(), root);
        Ok(GeaSession {
            source: Arc::new(SessionSource::clean(corpus, config)),
            lineage,
            enums: BTreeMap::new(),
            sumys: BTreeMap::new(),
            gaps: BTreeMap::new(),
            fascicles: BTreeMap::new(),
            nodes,
            exec: ExecConfig::default(),
            exec_events: Vec::new(),
        })
    }

    /// Open a session directly over a prepared expression matrix — the
    /// microarray path (§2.4): chip intensities converted by
    /// `gea_sage::microarray::to_expression_matrix` need no §4.2 error
    /// removal, so they enter the toolkit here. The raw-corpus searches
    /// (library totals, tissue listings over raw counts) see an empty
    /// corpus; everything else behaves identically.
    pub fn open_matrix(
        matrix: gea_sage::ExpressionMatrix,
        source_description: &str,
    ) -> Result<GeaSession, GeaError> {
        let n_tags = matrix.n_tags();
        let base = EnumTable::new("SAGE", matrix);
        let mut lineage = Lineage::new();
        let root = lineage.record(
            "SAGE",
            NodeKind::Enum,
            "load_matrix",
            vec![("source".to_string(), source_description.to_string())],
            &[],
        )?;
        let mut nodes = BTreeMap::new();
        nodes.insert("SAGE".to_string(), root);
        Ok(GeaSession {
            source: Arc::new(SessionSource::from_matrix(
                base,
                CleaningReport {
                    raw_union_tags: n_tags,
                    kept_tags: n_tags,
                    removed_fraction_per_library: Vec::new(),
                    freq1_union_fraction: 0.0,
                    min_tolerance: 0,
                    scale_to: None,
                },
            )),
            lineage,
            enums: BTreeMap::new(),
            sumys: BTreeMap::new(),
            gaps: BTreeMap::new(),
            fascicles: BTreeMap::new(),
            nodes,
            exec: ExecConfig::default(),
            exec_events: Vec::new(),
        })
    }

    /// Reassemble a session from a [`SessionSnapshot`] (the persistence
    /// path), every table held as the snapshot gives it. The name→node
    /// index is rebuilt from the lineage: live node names are unique
    /// (enforced by `Lineage::record` and `Lineage::from_parts`), so the
    /// last occurrence wins harmlessly.
    pub fn from_snapshot(snapshot: SessionSnapshot) -> GeaSession {
        let mut nodes = BTreeMap::new();
        for node in snapshot.lineage.iter() {
            nodes.insert(node.name.clone(), node.id);
        }
        fn held<T>(tables: BTreeMap<String, T>) -> BTreeMap<String, Stored<T>> {
            tables
                .into_iter()
                .map(|(n, t)| (n, Stored::Held(t)))
                .collect()
        }
        GeaSession {
            source: snapshot.source,
            lineage: snapshot.lineage,
            enums: held(snapshot.enums),
            sumys: held(snapshot.sumys),
            gaps: snapshot.gaps,
            fascicles: snapshot.fascicles,
            nodes,
            exec: ExecConfig::default(),
            exec_events: Vec::new(),
        }
    }

    /// Run an xProfiler-style pooled comparison (§2.3.3) between two named
    /// library groups of a data set — the baseline workflow, for
    /// contrasting with the mined-fascicle GAP workflow.
    pub fn xprofiler(
        &self,
        dataset: &str,
        group_a: &[&str],
        group_b: &[&str],
    ) -> Result<crate::xprofiler::XProfilerResult, GeaError> {
        let table = self.enum_table(dataset)?;
        let resolve =
            |names: &[&str]| table.library_ids_where(|m| names.contains(&m.name.as_str()));
        let a = resolve(group_a);
        let b = resolve(group_b);
        if a.is_empty() || b.is_empty() {
            return Err(GeaError::EmptyGroup("xProfiler pool".to_string()));
        }
        Ok(crate::xprofiler::compare_pools(table, &a, &b))
    }

    // ----- accessors ------------------------------------------------------

    /// The raw corpus (for the §4.4.4.2 searches).
    pub fn corpus(&self) -> &SageCorpus {
        &self.source.corpus
    }

    /// The immutable half — corpus, cleaning report and root data set — as
    /// the shared handle a reload may adopt (`gea_core::persist`).
    pub fn source(&self) -> &Arc<SessionSource> {
        &self.source
    }

    /// The session's parallel-execution configuration.
    pub fn exec_config(&self) -> ExecConfig {
        self.exec
    }

    /// Replace the parallel-execution configuration.
    pub fn set_exec_config(&mut self, config: ExecConfig) {
        self.exec = config;
    }

    /// Note a completed parallel-operator execution (called by the
    /// `gea-exec` drivers' session wrappers).
    pub fn note_exec(&mut self, event: ExecEvent) {
        self.exec_events.push(event);
    }

    /// Take the accumulated executor events, leaving the buffer empty.
    /// Front-ends drain this after each command to feed their counters.
    pub fn drain_exec_events(&mut self) -> Vec<ExecEvent> {
        std::mem::take(&mut self.exec_events)
    }

    /// The cleaned root data set, built from the corpus the first time
    /// anything asks for it ([`SessionSource::base`]).
    pub fn base(&self) -> &EnumTable {
        self.source.base()
    }

    /// The cleaning report.
    pub fn cleaning_report(&self) -> &CleaningReport {
        &self.source.report
    }

    /// The lineage DAG.
    pub fn lineage(&self) -> &Lineage {
        &self.lineage
    }

    /// The lineage node of a table that has a relational form: every node
    /// except the root and the data sets ([`DATASET_OPS`]).
    fn relation_node(&self, id: NodeId) -> Option<&LineageNode> {
        let node = self.lineage.get(id).ok()?;
        (!DATASET_OPS.contains(&node.operation.as_str())).then_some(node)
    }

    /// Names of the tables that have a relational form, sorted.
    pub fn relation_names(&self) -> Vec<&str> {
        self.nodes
            .iter()
            .filter(|(_, &id)| self.relation_node(id).is_some())
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// The relational form of one table, converted from its typed table on
    /// every call (`None` for a name outside [`Self::relation_names`]). The
    /// node's kind picks the identity a fascicle's shared ENUM/SUMY name
    /// means; a node whose contents were deleted yields its schema with no
    /// rows. Every install checks the schema first, so a conversion can only
    /// fail for a table a hand-made snapshot slipped past them. A derived
    /// table not built yet is built for the conversion and dropped with it.
    pub fn relation(&self, name: &str) -> Option<Table> {
        let node = self.relation_node(self.node(name)?)?;
        use NodeKind::{Compare, Enum, Fascicle, Gap, Sumy, TopGap};
        let relation = match (node.kind, node.materialized) {
            (Gap | TopGap | Compare, true) => gap_to_relation(self.gaps.get(name)?),
            (Gap | TopGap | Compare, false) => gap_schema(self.gaps.get(name)?).map(Table::new),
            (Sumy, true) => sumy_to_relation(&*self.sumy_view(name).ok()?),
            (Sumy, false) => sumy_schema().map(Table::new),
            (Enum | Fascicle, true) => enum_to_relation(&*self.enum_view(name).ok()?),
            (Enum | Fascicle, false) => {
                enum_schema(self.enum_libraries(name).ok()?).map(Table::new)
            }
        };
        relation.ok()
    }

    /// Every relation of the session as one relational database — a view
    /// folded from [`Self::relation_names`] and [`Self::relation`] on each
    /// call, not a copy the session keeps.
    pub fn database(&self) -> Database {
        self.relation_names()
            .into_iter()
            .filter_map(|name| Some((name.to_string(), self.relation(name)?)))
            .collect()
    }

    /// Look up an ENUM table (the root `SAGE` included), building a derived
    /// one the first time it is read.
    pub fn enum_table(&self, name: &str) -> Result<&EnumTable, GeaError> {
        if name == "SAGE" {
            return Ok(self.base());
        }
        self.build(self.enum_entry(name)?, name, Selection::enum_table)
    }

    /// Look up a SUMY table, building a derived one the first time it is
    /// read.
    pub fn sumy(&self, name: &str) -> Result<&SumyTable, GeaError> {
        self.build(self.sumy_entry(name)?, name, Selection::sumy)
    }

    fn enum_entry(&self, name: &str) -> Result<&Stored<EnumTable>, GeaError> {
        self.enums.get(name).ok_or(GeaError::NotFound {
            kind: "ENUM",
            name: name.to_string(),
        })
    }

    fn sumy_entry(&self, name: &str) -> Result<&Stored<SumyTable>, GeaError> {
        self.sumys.get(name).ok_or(GeaError::NotFound {
            kind: "SUMY",
            name: name.to_string(),
        })
    }

    /// `entry`'s table, built from its definition over its parent and kept
    /// if it is derived and not built yet. The parent is read through
    /// [`Self::enum_view`], so building one table keeps no other.
    fn build<'a, T>(
        &self,
        entry: &'a Stored<T>,
        name: &str,
        define: fn(&Selection, &str, &EnumTable) -> T,
    ) -> Result<&'a T, GeaError> {
        match entry {
            Stored::Held(table) => Ok(table),
            Stored::Derived(def, built) => match built.get() {
                Some(table) => Ok(table),
                None => {
                    let table = define(def, name, &*self.enum_view(&def.parent)?);
                    Ok(built.get_or_init(|| table))
                }
            },
        }
    }

    /// `entry`'s table as it is if held or built, or else built for the
    /// caller alone and not kept: what `save`, spill and the relational
    /// view read, so that writing a session leaves it as it was.
    fn view<'a, T: Clone>(
        &self,
        entry: &'a Stored<T>,
        name: &str,
        define: fn(&Selection, &str, &EnumTable) -> T,
    ) -> Result<Cow<'a, T>, GeaError> {
        match entry.state() {
            Ok(table) => Ok(Cow::Borrowed(table)),
            Err(def) => Ok(Cow::Owned(define(
                def,
                name,
                &*self.enum_view(&def.parent)?,
            ))),
        }
    }

    /// An ENUM table (the root `SAGE` included) as [`Self::view`] reads it.
    pub(crate) fn enum_view(&self, name: &str) -> Result<Cow<'_, EnumTable>, GeaError> {
        if name == "SAGE" {
            return Ok(Cow::Borrowed(self.base()));
        }
        self.view(self.enum_entry(name)?, name, Selection::enum_table)
    }

    /// A SUMY table as [`Self::view`] reads it.
    pub(crate) fn sumy_view(&self, name: &str) -> Result<Cow<'_, SumyTable>, GeaError> {
        self.view(self.sumy_entry(name)?, name, Selection::sumy)
    }

    /// An ENUM table's library metadata (the root's included), in column
    /// order — read from the selection, and its parent's metadata, when
    /// the table is derived and not built, so nothing is built.
    pub fn enum_libraries(&self, name: &str) -> Result<Vec<&LibraryMeta>, GeaError> {
        if name == "SAGE" {
            return Ok(self.source.libraries());
        }
        match self.enum_entry(name)?.state() {
            Ok(table) => Ok(table.libraries().iter().collect()),
            Err(def) => {
                let parent = self.enum_libraries(&def.parent)?;
                def.libraries
                    .iter()
                    .map(|id| parent.get(id.index()).copied())
                    .collect::<Option<_>>()
                    .ok_or_else(|| {
                        GeaError::Malformed(format!("{name} selects past {}", def.parent))
                    })
            }
        }
    }

    /// How many tags an ENUM table (the root's included) has, without
    /// building it.
    pub fn enum_n_tags(&self, name: &str) -> Result<usize, GeaError> {
        if name == "SAGE" {
            return Ok(self.source.universe().len());
        }
        match self.enum_entry(name)?.state() {
            Ok(table) => Ok(table.n_tags()),
            Err(def) => self.n_selected_tags(def),
        }
    }

    /// How many rows a SUMY table has, without building it.
    pub fn sumy_len(&self, name: &str) -> Result<usize, GeaError> {
        match self.sumy_entry(name)?.state() {
            Ok(table) => Ok(table.len()),
            Err(def) => self.n_selected_tags(def),
        }
    }

    fn n_selected_tags(&self, def: &Selection) -> Result<usize, GeaError> {
        match &def.tags {
            Some(tags) => Ok(tags.len()),
            None => self.enum_n_tags(&def.parent),
        }
    }

    /// Look up a GAP table.
    pub fn gap(&self, name: &str) -> Result<&GapTable, GeaError> {
        self.gaps.get(name).ok_or(GeaError::NotFound {
            kind: "GAP",
            name: name.to_string(),
        })
    }

    /// Look up a fascicle record.
    pub fn fascicle(&self, name: &str) -> Result<&FascicleRecord, GeaError> {
        self.fascicles.get(name).ok_or(GeaError::NotFound {
            kind: "fascicle",
            name: name.to_string(),
        })
    }

    /// Names of all fascicles mined so far.
    pub fn fascicle_names(&self) -> Vec<&str> {
        self.fascicles.keys().map(|s| s.as_str()).collect()
    }

    /// Names of the ENUM tables, sorted (the root `SAGE` excluded).
    pub fn enum_names(&self) -> impl ExactSizeIterator<Item = &str> {
        self.enums.keys().map(String::as_str)
    }

    /// Names of the SUMY tables, sorted.
    pub fn sumy_names(&self) -> impl ExactSizeIterator<Item = &str> {
        self.sumys.keys().map(String::as_str)
    }

    /// The ENUM and SUMY tables held as their definitions: `(kind, name,
    /// built)` with kind `"ENUM"` or `"SUMY"`, the ENUMs first, each kind
    /// by name.
    pub fn derived_tables(&self) -> Vec<(&'static str, &str, bool)> {
        fn derived<'a, T>(
            kind: &'static str,
            map: &'a BTreeMap<String, Stored<T>>,
        ) -> impl Iterator<Item = (&'static str, &'a str, bool)> {
            map.iter().filter_map(move |(name, entry)| match entry {
                Stored::Held(_) => None,
                Stored::Derived(_, built) => Some((kind, name.as_str(), built.get().is_some())),
            })
        }
        derived("ENUM", &self.enums)
            .chain(derived("SUMY", &self.sumys))
            .collect()
    }

    /// All GAP tables by name.
    pub fn gap_tables(&self) -> &BTreeMap<String, GapTable> {
        &self.gaps
    }

    /// All fascicle records by name.
    pub fn fascicle_records(&self) -> &BTreeMap<String, FascicleRecord> {
        &self.fascicles
    }

    /// Approximate heap bytes held by the named derived tables (ENUM,
    /// SUMY, GAP) and fascicle records — the part of the session only it
    /// can see; [`crate::mem::ApproxMem`] for `GeaSession` adds the
    /// corpus, base matrix, and lineage on top. A table held as its
    /// definition is charged what it costs once built, from its shape
    /// alone, so building it — or a contents-only `delete` dropping it —
    /// never moves the charge.
    pub fn named_tables_bytes(&self) -> usize {
        use crate::mem::{enum_table_bytes, map_bytes, sumy_table_bytes, ApproxMem};
        let enums = map_bytes(self.enums.iter().map(|(name, entry)| {
            let bytes = match entry.state() {
                Ok(table) => table.approx_bytes(),
                Err(def) => enum_table_bytes(
                    name,
                    self.n_selected_tags(def).unwrap_or(0),
                    self.enum_libraries(name).unwrap_or_default(),
                ),
            };
            (name, bytes)
        }));
        let sumys = map_bytes(self.sumys.iter().map(|(name, entry)| {
            let bytes = match entry.state() {
                Ok(table) => table.approx_bytes(),
                Err(def) => sumy_table_bytes(name, self.n_selected_tags(def).unwrap_or(0)),
            };
            (name, bytes)
        }));
        enums + sumys + self.gaps.approx_bytes() + self.fascicles.approx_bytes()
    }

    /// Whether `name` is free to define: not `SAGE`, not already an ENUM,
    /// SUMY or GAP table, and not a lineage node — the last adds nothing in
    /// a session built through these methods (every node names a table),
    /// but a restored snapshot is taken at its word, and with it the
    /// lineage cannot refuse a name this accepts: an install that
    /// validates first commits whole. Every defining operation runs this
    /// first; it is public so executors that validate before computing
    /// (`gea-exec`'s scatter seam) fail in the same order.
    pub fn check_name_free(&self, name: &str) -> Result<(), GeaError> {
        if name == "SAGE"
            || self.enums.contains_key(name)
            || self.sumys.contains_key(name)
            || self.gaps.contains_key(name)
            || self.nodes.contains_key(name)
        {
            return Err(GeaError::NameTaken(name.to_string()));
        }
        Ok(())
    }

    fn node(&self, name: &str) -> Option<NodeId> {
        self.nodes.get(name).copied()
    }

    /// The lineage node of the root `SAGE`, which every session records on
    /// open and no delete removes.
    fn root_node(&self) -> Result<NodeId, GeaError> {
        self.node("SAGE").ok_or(GeaError::NotFound {
            kind: "lineage",
            name: "SAGE".to_string(),
        })
    }

    fn record_node(
        &mut self,
        name: &str,
        kind: NodeKind,
        op: &str,
        params: Vec<(String, String)>,
        parents: &[NodeId],
    ) -> Result<NodeId, GeaError> {
        let id = self.lineage.record(name, kind, op, params, parents)?;
        self.nodes.insert(name.to_string(), id);
        Ok(id)
    }

    // ----- data set construction (§4.3.1.2 step 1, Case 5) ----------------

    /// Create a tissue-type data set: `E = σ_tissueType(SAGE)` (Figure 4.4).
    pub fn create_tissue_dataset(
        &mut self,
        name: &str,
        tissue: &TissueType,
    ) -> Result<(), GeaError> {
        self.check_name_free(name)?;
        let table = self.source.dataset(name, |m| &m.tissue == tissue);
        if table.n_libraries() == 0 {
            return Err(GeaError::EmptyGroup(format!("tissue type {tissue}")));
        }
        let parent = self.root_node()?;
        self.record_node(
            name,
            NodeKind::Enum,
            "select_tissue",
            vec![("tissue".to_string(), tissue.to_string())],
            &[parent],
        )?;
        self.enums.insert(name.to_string(), Stored::Held(table));
        Ok(())
    }

    /// Create a user-defined data set from explicit library names
    /// (Figure 4.15's customize window).
    pub fn create_custom_dataset(
        &mut self,
        name: &str,
        library_names: &[&str],
    ) -> Result<(), GeaError> {
        self.check_name_free(name)?;
        let table = self
            .source
            .dataset(name, |m| library_names.contains(&m.name.as_str()));
        if table.n_libraries() == 0 {
            return Err(GeaError::EmptyGroup("custom data set".to_string()));
        }
        let parent = self.root_node()?;
        self.record_node(
            name,
            NodeKind::Enum,
            "custom_dataset",
            vec![("libraries".to_string(), library_names.join(","))],
            &[parent],
        )?;
        self.enums.insert(name.to_string(), Stored::Held(table));
        Ok(())
    }

    /// `σ_libraries(dataset)`: a new ENUM table keeping only the named
    /// libraries of an existing data set — the GQL `select` operation
    /// (a generalization of [`GeaSession::create_custom_dataset`], which
    /// always selects from the root).
    pub fn select_dataset_libraries(
        &mut self,
        name: &str,
        dataset: &str,
        library_names: &[&str],
    ) -> Result<(), GeaError> {
        self.check_name_free(name)?;
        let keep = |m: &LibraryMeta| library_names.contains(&m.name.as_str());
        let table = match dataset {
            "SAGE" => self.source.dataset(name, keep),
            _ => self.enum_table(dataset)?.select_libraries(name, keep),
        };
        if table.n_libraries() == 0 {
            return Err(GeaError::EmptyGroup(format!("selection from {dataset}")));
        }
        let parent = self.node(dataset).ok_or_else(|| GeaError::NotFound {
            kind: "ENUM",
            name: dataset.to_string(),
        })?;
        self.record_node(
            name,
            NodeKind::Enum,
            "select_libraries",
            vec![
                ("dataset".to_string(), dataset.to_string()),
                ("libraries".to_string(), library_names.join(",")),
            ],
            &[parent],
        )?;
        self.enums.insert(name.to_string(), Stored::Held(table));
        Ok(())
    }

    /// `π_tags(dataset)`: a new ENUM table keeping only the given tags of an
    /// existing data set — the GQL `project` operation. Tags absent from the
    /// data set are ignored; projecting onto nothing is an error.
    pub fn project_dataset_tags(
        &mut self,
        name: &str,
        dataset: &str,
        tags: &[Tag],
    ) -> Result<(), GeaError> {
        self.check_name_free(name)?;
        let universe = match dataset {
            "SAGE" => self.source.universe(),
            _ => self.enum_table(dataset)?.matrix.universe(),
        };
        let ids: Vec<_> = tags.iter().filter_map(|&t| universe.id_of(t)).collect();
        if ids.is_empty() {
            return Err(GeaError::EmptyGroup(format!(
                "projection of {dataset} onto {} tag(s)",
                tags.len()
            )));
        }
        let table = match dataset {
            "SAGE" => self.source.projection(name, &ids),
            _ => self.enum_table(dataset)?.select_tags(name, &ids),
        };
        let parent = self.node(dataset).ok_or_else(|| GeaError::NotFound {
            kind: "ENUM",
            name: dataset.to_string(),
        })?;
        self.record_node(
            name,
            NodeKind::Enum,
            "project_tags",
            vec![
                ("dataset".to_string(), dataset.to_string()),
                ("tags".to_string(), ids.len().to_string()),
            ],
            &[parent],
        )?;
        self.enums.insert(name.to_string(), Stored::Held(table));
        Ok(())
    }

    // ----- mining (§4.3.1.2 steps 2–3) -------------------------------------

    /// The Figure 4.5 metadata generator for a registered data set.
    pub fn metadata(
        &self,
        dataset: &str,
        width_fraction: f64,
    ) -> Result<ToleranceVector, GeaError> {
        Ok(generate_metadata(self.enum_table(dataset)?, width_fraction))
    }

    /// Calculate fascicles over a data set (Figure 4.6) and — as the macro
    /// operation prescribes — create each fascicle's ENUM and SUMY tables
    /// automatically. Returns the fascicle names (`{out}_1`, `{out}_2`, …).
    pub fn calculate_fascicles(
        &mut self,
        dataset: &str,
        out: &str,
        width_fraction: f64,
        params: &FascicleParams,
    ) -> Result<Vec<String>, GeaError> {
        let table = self.enum_table(dataset)?;
        let tol = generate_metadata(table, width_fraction);
        let clusters = mine(table, out, &Miner::Fascicles(params.clone()), Some(&tol));
        self.install_mined_fascicles(dataset, width_fraction, params, clusters)
    }

    /// Install the clusters of a completed fascicle `mine` pass over
    /// `dataset` under the thesis miner's historic lineage labels — the
    /// install half of [`GeaSession::calculate_fascicles`], which parallel
    /// front-ends (`gea-exec`) call with clusters mined on their own
    /// executor. See [`GeaSession::install_mined_clusters`].
    pub fn install_mined_fascicles(
        &mut self,
        dataset: &str,
        width_fraction: f64,
        params: &FascicleParams,
        clusters: Vec<MinedCluster>,
    ) -> Result<Vec<String>, GeaError> {
        let backend_params = vec![
            (
                "compact_attrs".to_string(),
                params.min_compact_attrs.to_string(),
            ),
            ("width_fraction".to_string(), width_fraction.to_string()),
            ("batch".to_string(), params.batch_size.to_string()),
            ("min_size".to_string(), params.min_records.to_string()),
        ];
        let mut lineage_params = vec![("tissue_dataset".to_string(), dataset.to_string())];
        lineage_params.extend(backend_params.iter().cloned());
        self.install_mined_clusters(
            dataset,
            "Fascicles",
            lineage_params,
            "fascicles",
            backend_params,
            clusters,
        )
    }

    /// Install mined clusters as fascicles of `dataset`, whole or not at
    /// all. The clusters are results — ids within `dataset`'s current
    /// table, which this looks up itself — and the install runs
    /// in two phases. First every cluster, in order, is validated: its
    /// name free in the session and among the clusters before it, its ids
    /// within `dataset` (at least one library, no tag twice), the
    /// relational schema of its member ENUM accepted. Only then does each
    /// get its lineage node (labelled `operation`), its ENUM and SUMY —
    /// held as their [`Selection`], built when first read — and a
    /// fascicle record carrying the backend provenance, so the first error
    /// is reported with nothing installed. Returns the names in order.
    pub fn install_mined_clusters(
        &mut self,
        dataset: &str,
        operation: &str,
        lineage_params: Vec<(String, String)>,
        backend: &str,
        backend_params: Vec<(String, String)>,
        clusters: Vec<MinedCluster>,
    ) -> Result<Vec<String>, GeaError> {
        let table = self.enum_table(dataset)?;
        let parent = self.node(dataset).ok_or_else(|| GeaError::NotFound {
            kind: "ENUM",
            name: dataset.to_string(),
        })?;
        let mut staged: Vec<(Selection, FascicleRecord)> = Vec::with_capacity(clusters.len());
        for cluster in clusters {
            self.check_name_free(&cluster.name)?;
            if staged.iter().any(|(_, r)| r.name == cluster.name) {
                return Err(GeaError::NameTaken(cluster.name));
            }
            let malformed = |what: &str| GeaError::Malformed(format!("{} {what}", cluster.name));
            if cluster.libraries.is_empty() {
                return Err(malformed("has no libraries"));
            }
            let members = cluster
                .libraries
                .iter()
                .map(|l| table.libraries().get(l.index()))
                .collect::<Option<Vec<&LibraryMeta>>>()
                .ok_or_else(|| malformed(&format!("names a library {dataset} lacks")))?;
            enum_schema(members.iter().copied())?;
            let compact_tags = cluster
                .compact_tags
                .iter()
                .map(|&t| (t.index() < table.n_tags()).then(|| table.matrix.tag_of(t)))
                .collect::<Option<Vec<Tag>>>()
                .ok_or_else(|| malformed(&format!("names a tag {dataset} lacks")))?;
            let mut tags = cluster.compact_tags.clone();
            tags.sort_unstable();
            tags.dedup();
            if tags.len() != cluster.compact_tags.len() {
                return Err(malformed("names a tag twice"));
            }
            let record = FascicleRecord {
                name: cluster.name.clone(),
                dataset: dataset.to_string(),
                members: members.iter().map(|m| m.name.clone()).collect(),
                compact_tags,
                sumy_name: cluster.name,
                purity: Vec::new(),
                backend: backend.to_string(),
                params: backend_params.clone(),
            };
            let def = Selection {
                parent: dataset.to_string(),
                libraries: cluster.libraries,
                tags: Some(tags),
            };
            staged.push((def, record));
        }
        let mut names = Vec::with_capacity(staged.len());
        for (def, record) in staged {
            let name = record.name.clone();
            self.record_node(
                &name,
                NodeKind::Fascicle,
                operation,
                lineage_params.clone(),
                &[parent],
            )?;
            self.enums
                .insert(name.clone(), Stored::derived(def.clone()));
            self.sumys.insert(name.clone(), Stored::derived(def));
            self.fascicles.insert(name.clone(), record);
            names.push(name);
        }
        Ok(names)
    }

    // ----- the populate operator (§3.3) ------------------------------------

    /// The thesis's populate operator as a macro operation: materialize
    /// the ENUM of `dataset` libraries whose expression satisfies every
    /// per-tag condition of the SUMY, restricted to the SUMY's tags —
    /// "the populate operator converts a cluster from its intensional/SUMY
    /// form to its extensional/ENUM form".
    pub fn populate_from_sumy(
        &mut self,
        name: &str,
        sumy: &str,
        dataset: &str,
    ) -> Result<usize, GeaError> {
        self.check_name_free(name)?;
        let (hits, _) =
            crate::populate::populate_columnar(self.sumy(sumy)?, self.enum_table(dataset)?);
        self.install_populate(name, sumy, dataset, &hits)
    }

    /// Install a completed `populate`: `hits` is the qualification's result
    /// — the libraries of `dataset` satisfying `sumy`, ascending, exactly
    /// what [`crate::populate::populate_scan`] returns (the columnar kernel
    /// and `gea-exec`'s sharded drivers all do). Looks both tables up
    /// itself and does the bookkeeping (relational-schema check, lineage,
    /// naming); the result is held as its [`Selection`] — the hits over
    /// the SUMY's tags ([`crate::populate::populate_tags`]) — and built as
    /// [`crate::populate::materialize_populate`] builds it when first
    /// read, so every executor's result is identical by construction
    /// whenever the hits are. Returns the number of libraries installed.
    pub fn install_populate(
        &mut self,
        name: &str,
        sumy: &str,
        dataset: &str,
        hits: &[LibraryId],
    ) -> Result<usize, GeaError> {
        self.check_name_free(name)?;
        let tags =
            crate::populate::populate_tags(&*self.sumy_view(sumy)?, &*self.enum_view(dataset)?);
        let libraries = self.enum_libraries(dataset)?;
        let selected = hits
            .iter()
            .map(|l| libraries.get(l.index()).copied())
            .collect::<Option<Vec<&LibraryMeta>>>()
            .ok_or_else(|| {
                GeaError::Malformed(format!("{name} names a library {dataset} lacks"))
            })?;
        if selected.is_empty() {
            return Err(GeaError::EmptyGroup(format!("populate({sumy}, {dataset})")));
        }
        enum_schema(selected)?;
        let parents: Vec<NodeId> = [sumy, dataset]
            .iter()
            .filter_map(|n| self.node(n))
            .collect();
        let params = vec![
            ("sumy".to_string(), sumy.to_string()),
            ("dataset".to_string(), dataset.to_string()),
        ];
        self.record_node(name, NodeKind::Enum, "populate", params, &parents)?;
        let def = Selection {
            parent: dataset.to_string(),
            libraries: hits.to_vec(),
            tags,
        };
        self.enums.insert(name.to_string(), Stored::derived(def));
        Ok(hits.len())
    }

    // ----- purity and control groups (§4.3.1.2 steps 4–5) ------------------

    /// The purity check without the bookkeeping: which properties all of a
    /// fascicle's member libraries share. Unlike [`GeaSession::purity_check`]
    /// this takes `&self`, so concurrent front-ends (the query server) can
    /// answer it under a shared read lock. It reads the members' metadata
    /// only, so it builds nothing.
    pub fn purity_properties(&self, fascicle: &str) -> Result<Vec<LibraryProperty>, GeaError> {
        self.fascicle(fascicle)?;
        Ok(pure_properties(self.enum_libraries(fascicle)?))
    }

    /// The Figure 4.8 purity check: which properties all member libraries
    /// share. The result is remembered on the fascicle record.
    pub fn purity_check(&mut self, fascicle: &str) -> Result<Vec<LibraryProperty>, GeaError> {
        let purity = pure_properties(self.enum_libraries(fascicle)?);
        let record = self.fascicles.get_mut(fascicle).ok_or(GeaError::NotFound {
            kind: "fascicle",
            name: fascicle.to_string(),
        })?;
        record.purity = purity.clone();
        Ok(purity)
    }

    /// The `formSUM` macro operation: for a fascicle pure on `property`,
    /// create ENUM₂ (same property, outside the fascicle), ENUM₃ (the
    /// contrasting property), and their SUMY tables over the fascicle's
    /// compact tags. Errors with [`GeaError::NotPure`] otherwise.
    pub fn form_control_groups(
        &mut self,
        fascicle: &str,
        property: LibraryProperty,
    ) -> Result<ControlGroups, GeaError> {
        let inputs = self.control_group_inputs(fascicle, property)?;
        // SUMY tables over the compact tags only.
        let rows = [&inputs.in_members, &inputs.outside, &inputs.contrast]
            .map(|table| aggregate_tag_rows(&table.matrix, &inputs.compact_ids));
        self.install_control_groups(fascicle, property, rows)
    }

    /// Compute the side-effect-free inputs of the `formSUM` macro operation:
    /// result-table names, the compact-tag ids within the data-set matrix,
    /// and the three library selections (in-fascicle, outside, contrast) as
    /// ids within it. Performs every validation `formSUM` does (purity,
    /// free names, non-empty groups) but builds no table and installs
    /// nothing, so installs can re-validate and distributed executors can
    /// aggregate the selections shard by shard before committing results.
    pub fn control_group_selection(
        &self,
        fascicle: &str,
        property: LibraryProperty,
    ) -> Result<ControlGroupSelection, GeaError> {
        let record = self.fascicle(fascicle)?;
        if !is_pure(self.enum_libraries(fascicle)?, property) {
            return Err(GeaError::NotPure {
                fascicle: fascicle.to_string(),
                property,
            });
        }
        let dataset = self.enum_table(&record.dataset)?;
        let members: std::collections::HashSet<&str> =
            record.members.iter().map(|s| s.as_str()).collect();

        let (prop_label, contrast_label, contrast_property) = match property {
            LibraryProperty::Cancer => ("Cancer", "Normal", LibraryProperty::Normal),
            LibraryProperty::Normal => ("Normal", "Cancer", LibraryProperty::Cancer),
            LibraryProperty::BulkTissue => ("Bulk", "CellLine", LibraryProperty::CellLine),
            LibraryProperty::CellLine => ("CellLine", "Bulk", LibraryProperty::BulkTissue),
        };
        let names = ControlGroups {
            in_fascicle: format!("{fascicle}{prop_label}FasTbl"),
            outside_fascicle: format!("{fascicle}{}NotInFasTbl", prop_label_short(prop_label)),
            contrast: format!("{fascicle}{contrast_label}Table"),
        };
        for n in [&names.in_fascicle, &names.outside_fascicle, &names.contrast] {
            self.check_name_free(n)?;
        }

        // Compact-tag ids within the *dataset* matrix.
        let compact_ids: Vec<_> = record
            .compact_tags
            .iter()
            .filter_map(|&t| dataset.matrix.id_of(t))
            .collect();

        // ENUM₂: same property, not in the fascicle.
        let outside = dataset
            .library_ids_where(|m| m.has_property(property) && !members.contains(m.name.as_str()));
        // ENUM₃: the contrasting property.
        let contrast = dataset.library_ids_where(|m| m.has_property(contrast_property));
        for (label, ids) in [("outside group", &outside), ("contrast group", &contrast)] {
            if ids.is_empty() {
                return Err(GeaError::EmptyGroup(label.to_string()));
            }
        }

        let in_members = dataset.library_ids_where(|m| members.contains(m.name.as_str()));
        Ok(ControlGroupSelection {
            names,
            dataset: record.dataset.clone(),
            compact_ids,
            in_members,
            outside,
            contrast,
        })
    }

    /// [`GeaSession::control_group_selection`] with its three library
    /// selections built as tables over every tag of the data set — what
    /// the aggregations of `formSUM` read, and nothing the session keeps.
    pub fn control_group_inputs(
        &self,
        fascicle: &str,
        property: LibraryProperty,
    ) -> Result<ControlGroupInputs, GeaError> {
        let selection = self.control_group_selection(fascicle, property)?;
        let dataset = self.enum_table(&selection.dataset)?;
        let names = selection.names;
        Ok(ControlGroupInputs {
            in_members: dataset.with_libraries("tmp", &selection.in_members),
            outside: dataset.with_libraries(&names.outside_fascicle, &selection.outside),
            contrast: dataset.with_libraries(&names.contrast, &selection.contrast),
            compact_ids: selection.compact_ids,
            names,
        })
    }

    /// Install a completed `formSUM`: `rows` are the aggregation's results
    /// — the in-fascicle, outside and contrast SUMY rows over the
    /// fascicle's compact tags, in that order, as
    /// [`GeaSession::form_control_groups`] computes them from
    /// [`GeaSession::control_group_inputs`] (`gea-exec` computes them
    /// shard by shard). Re-validates and re-selects against the session as
    /// it now is, then installs the three SUMY tables and the two ENUMs.
    pub fn install_control_groups(
        &mut self,
        fascicle: &str,
        property: LibraryProperty,
        rows: [Vec<SumyRow>; 3],
    ) -> Result<ControlGroups, GeaError> {
        let selection = self.control_group_selection(fascicle, property)?;
        self.commit_control_groups(fascicle, property, selection, rows)
    }

    /// The commit half of `formSUM`. `selection` was validated by
    /// [`GeaSession::control_group_selection`] against this very state —
    /// the fascicle is recorded, the three (distinct) names are free — and
    /// the three SUMY tables are built (a row list naming a tag twice is
    /// refused) before the first node is recorded, so the commit is whole.
    /// The outside and contrast ENUMs are held as their [`Selection`]s of
    /// the data set, built when first read.
    fn commit_control_groups(
        &mut self,
        fascicle: &str,
        property: LibraryProperty,
        selection: ControlGroupSelection,
        rows: [Vec<SumyRow>; 3],
    ) -> Result<ControlGroups, GeaError> {
        let ControlGroupSelection {
            names,
            dataset,
            outside,
            contrast,
            ..
        } = selection;
        let parent = self.node(fascicle).ok_or_else(|| GeaError::NotFound {
            kind: "fascicle",
            name: fascicle.to_string(),
        })?;
        let sumy_names = [&names.in_fascicle, &names.outside_fascicle, &names.contrast];
        let sumys = sumy_names
            .into_iter()
            .zip(rows)
            .map(|(name, rows)| {
                SumyTable::try_new(name, rows)
                    .map_err(|tag| GeaError::Malformed(format!("{name} names tag {tag} twice")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        for sumy in sumys {
            self.record_node(
                &sumy.name,
                NodeKind::Sumy,
                "aggregate",
                vec![("property".to_string(), property.to_string())],
                &[parent],
            )?;
            self.sumys.insert(sumy.name.clone(), Stored::Held(sumy));
        }
        for (name, libraries) in [
            (&names.outside_fascicle, outside),
            (&names.contrast, contrast),
        ] {
            let def = Selection {
                parent: dataset.clone(),
                libraries,
                tags: None,
            };
            self.enums.insert(name.clone(), Stored::derived(def));
        }
        Ok(names)
    }

    // ----- gaps (§4.3.1.2 steps 6–7, Figures 4.9/4.12) ----------------------

    /// `GAP = diff(SUMY₁, SUMY₂)`, recorded under both parents. (Its one
    /// column, `Gap`, cannot collide, so there is no schema to refuse.)
    pub fn create_gap(
        &mut self,
        name: &str,
        first_sumy: &str,
        second_sumy: &str,
    ) -> Result<(), GeaError> {
        self.check_name_free(name)?;
        let s1 = self.sumy(first_sumy)?;
        let s2 = self.sumy(second_sumy)?;
        let gap = diff(name, s1, s2);
        let parents: Vec<NodeId> = [first_sumy, second_sumy]
            .iter()
            .filter_map(|n| self.node(n))
            .collect();
        self.record_node(
            name,
            NodeKind::Gap,
            "diff",
            vec![
                ("sumy1".to_string(), first_sumy.to_string()),
                ("sumy2".to_string(), second_sumy.to_string()),
            ],
            &parents,
        )?;
        self.gaps.insert(name.to_string(), gap);
        Ok(())
    }

    /// The Figure 4.19 "Calculate Top Gap" operation: derive `{gap}_{x}`.
    pub fn calculate_top_gap(
        &mut self,
        gap: &str,
        x: usize,
        order: TopGapOrder,
    ) -> Result<String, GeaError> {
        let top_name = format!("{gap}_{x}");
        self.check_name_free(&top_name)?;
        let top = top_gaps(self.gap(gap)?, x, order);
        gap_schema(&top)?;
        let parent = self.node(gap).into_iter().collect::<Vec<_>>();
        self.record_node(
            &top_name,
            NodeKind::TopGap,
            "top_gap",
            vec![("x".to_string(), x.to_string())],
            &parent,
        )?;
        self.gaps.insert(top_name.clone(), top);
        Ok(top_name)
    }

    /// The Figure 4.13 GAP comparison: combine two GAP tables with `op`
    /// and answer `query`.
    pub fn compare_gaps(
        &mut self,
        name: &str,
        first: &str,
        second: &str,
        op: CompareOp,
        query: CompareQuery,
    ) -> Result<(), GeaError> {
        self.check_name_free(name)?;
        let g1 = self.gap(first)?;
        let g2 = self.gap(second)?;
        let result = compare_gaps(name, g1, g2, op, query).ok_or(GeaError::QueryNotApplicable)?;
        gap_schema(&result)?;
        let parents: Vec<NodeId> = [first, second]
            .iter()
            .filter_map(|n| self.node(n))
            .collect();
        self.record_node(
            name,
            NodeKind::Compare,
            "compare",
            vec![
                ("op".to_string(), format!("{op:?}")),
                ("query".to_string(), format!("{query:?}")),
            ],
            &parents,
        )?;
        self.gaps.insert(name.to_string(), result);
        Ok(())
    }

    /// The optimizer's fast path for a self-operand GAP comparison:
    /// observationally equivalent to
    /// [`compare_gaps`](GeaSession::compare_gaps)`(name, gap, gap, op,
    /// query)` — same result table, same error precedence (name conflict,
    /// then operand lookup, then query applicability), same lineage shape
    /// including the duplicated parent edge — but computed without building
    /// a second operand view or probing `row_for`. The *original* op is
    /// recorded in lineage, plus a wire-invisible `optimizer` param naming
    /// the rule that installed the step.
    pub fn compare_gaps_self_rewritten(
        &mut self,
        name: &str,
        gap: &str,
        op: CompareOp,
        query: CompareQuery,
        rule: &str,
    ) -> Result<(), GeaError> {
        self.check_name_free(name)?;
        // The serial path resolves both operands; for equal names the
        // second lookup can only repeat the first's outcome, so one
        // resolution reproduces the same error.
        let g = self.gap(gap)?;
        let result = compare_gaps_self(name, g, op, query).ok_or(GeaError::QueryNotApplicable)?;
        gap_schema(&result)?;
        // Same duplicated parent list the serial path builds from
        // `[first, second]` when both name the same table.
        let parents: Vec<NodeId> = [gap, gap].iter().filter_map(|n| self.node(n)).collect();
        self.record_node(
            name,
            NodeKind::Compare,
            "compare",
            vec![
                ("op".to_string(), format!("{op:?}")),
                ("query".to_string(), format!("{query:?}")),
                ("optimizer".to_string(), rule.to_string()),
            ],
            &parents,
        )?;
        self.gaps.insert(name.to_string(), result);
        Ok(())
    }

    // ----- inspection -------------------------------------------------------

    /// Figure 4.10's per-library distribution of one tag over a data set,
    /// with libraries labeled by membership in `fascicle`.
    pub fn tag_plot(
        &self,
        dataset: &str,
        tag: Tag,
        fascicle: &str,
    ) -> Result<Vec<TagPlotPoint>, GeaError> {
        let table = self.enum_table(dataset)?;
        let record = self.fascicle(fascicle)?;
        Ok(tag_distribution(table, tag, &record.members))
    }

    /// Attach a user comment to a recorded table (Figure 4.18).
    pub fn comment(&mut self, table: &str, comment: &str) -> Result<(), GeaError> {
        let id = self.node(table).ok_or(GeaError::NotFound {
            kind: "lineage",
            name: table.to_string(),
        })?;
        self.lineage.set_comment(id, comment)?;
        Ok(())
    }

    /// Regenerate a contents-only-deleted table — "if the user wants to
    /// re-generate the content of the table, the stored metadata can be
    /// used directly" (§4.4.2). The typed table outlives the delete, so
    /// this only marks the node materialized again and [`Self::relation`]
    /// shows its rows once more; on a live table it changes nothing.
    pub fn regenerate(&mut self, table: &str) -> Result<(), GeaError> {
        let id = self.node(table).ok_or(GeaError::NotFound {
            kind: "lineage",
            name: table.to_string(),
        })?;
        self.lineage.rematerialize(id)?;
        Ok(())
    }

    /// Delete a table: cascade removes it and everything derived from it.
    /// Otherwise — the thesis's contents-only delete (§4.4.2) — the lineage
    /// node is marked dematerialized, so the browsable export shows the
    /// table empty and the metadata survives for [`Self::regenerate`];
    /// an ENUM or SUMY held as its [`Selection`] drops its built table and
    /// keeps the definition, which the next read builds again, bit for
    /// bit. A held table stays: operators still read it.
    pub fn delete(&mut self, table: &str, cascade: bool) -> Result<Vec<String>, GeaError> {
        let id = self.node(table).ok_or(GeaError::NotFound {
            kind: "lineage",
            name: table.to_string(),
        })?;
        if !cascade {
            let names = self.lineage.delete_contents(id)?;
            for n in &names {
                if let Some(Stored::Derived(_, built)) = self.enums.get_mut(n) {
                    built.take();
                }
                if let Some(Stored::Derived(_, built)) = self.sumys.get_mut(n) {
                    built.take();
                }
            }
            return Ok(names);
        }
        let names = self.lineage.delete_cascade(id)?;
        for n in &names {
            self.nodes.remove(n);
            self.enums.remove(n);
            self.sumys.remove(n);
            self.gaps.remove(n);
            self.fascicles.remove(n);
        }
        Ok(names)
    }
}

fn prop_label_short(label: &str) -> &str {
    match label {
        "Cancer" => "Can",
        "Normal" => "Nor",
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gea_sage::generate::{generate, GeneratorConfig};

    fn session() -> (GeaSession, gea_sage::GroundTruth) {
        let (corpus, truth) = generate(&GeneratorConfig::demo(101));
        let session = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
        (session, truth)
    }

    /// Choose `k` the way a thesis user does (Figure 4.6 shows them trying
    /// 25k/30k/35k of ~60k tags): high enough that only a genuinely
    /// agreeing group qualifies. We derive it from the planted fascicle's
    /// own compact count, minus a 10 % margin — compactness is antitone in
    /// set growth, so any superset scores strictly lower.
    fn brain_params(s: &GeaSession, truth: &gea_sage::GroundTruth) -> FascicleParams {
        use gea_cluster::dataset::AttrSource;
        let table = s.enum_table("Ebrain").unwrap();
        let tol = s.metadata("Ebrain", 0.10).unwrap();
        let view = crate::mine::MatrixView::new(table);
        let members = truth.fascicle_members_of(&TissueType::Brain);
        let ids: Vec<usize> = table
            .libraries()
            .iter()
            .enumerate()
            .filter(|(_, m)| members.contains(&m.name))
            .map(|(i, _)| i)
            .collect();
        let compact = (0..view.n_attrs())
            .filter(|&a| {
                let vals = view.attr_values(a);
                let lo = ids.iter().map(|&r| vals[r]).fold(f64::INFINITY, f64::min);
                let hi = ids
                    .iter()
                    .map(|&r| vals[r])
                    .fold(f64::NEG_INFINITY, f64::max);
                hi - lo <= tol.get(a)
            })
            .count();
        FascicleParams {
            min_compact_attrs: compact * 9 / 10,
            min_records: 3,
            batch_size: 6,
        }
    }

    #[test]
    fn case_1_pipeline_recovers_planted_structure() {
        let (mut s, truth) = session();
        s.create_tissue_dataset("Ebrain", &TissueType::Brain)
            .unwrap();
        let fascicles = s
            .calculate_fascicles("Ebrain", "brain", 0.10, &brain_params(&s, &truth))
            .unwrap();
        assert!(!fascicles.is_empty(), "no fascicles found");
        // Find the fascicle matching the planted cancerous group.
        let planted = truth.fascicle_members_of(&TissueType::Brain);
        let target = fascicles
            .iter()
            .find(|f| {
                let rec = s.fascicle(f).unwrap();
                rec.members.iter().all(|m| planted.contains(m)) && rec.members.len() >= 2
            })
            .cloned()
            .unwrap_or_else(|| {
                panic!(
                    "no fascicle within the planted members {planted:?}; got {:?}",
                    fascicles
                        .iter()
                        .map(|f| s.fascicle(f).unwrap().members.clone())
                        .collect::<Vec<_>>()
                )
            });
        let purity = s.purity_check(&target).unwrap();
        assert!(purity.contains(&LibraryProperty::Cancer));
        let groups = s
            .form_control_groups(&target, LibraryProperty::Cancer)
            .unwrap();
        s.create_gap("canvsnor_gap", &groups.in_fascicle, &groups.contrast)
            .unwrap();
        let gap = s.gap("canvsnor_gap").unwrap();
        assert!(!gap.is_empty());
        // The RIBOSOMAL PROTEIN L12 marker must surface with a positive
        // gap (higher in cancer-in-fascicle than normal) if it is compact.
        let marker = truth.tag_of_gene("RIBOSOMAL PROTEIN L12").unwrap();
        if let Some(row) = gap.row_for(marker) {
            let g = row.gap().expect("marker bands must separate");
            assert!(g > 0.0, "marker gap {g} not positive");
        }
        // Lineage recorded the chain.
        let tree = s.lineage().render_tree();
        assert!(tree.contains("Ebrain"));
        assert!(tree.contains("canvsnor_gap"));
    }

    #[test]
    fn open_matrix_supports_microarray_style_input() {
        let (corpus, _) = generate(&GeneratorConfig::demo(103));
        let (matrix, _) = gea_sage::clean::clean(&corpus, &CleaningConfig::default());
        let mut s = GeaSession::open_matrix(matrix, "microarray test").unwrap();
        s.create_tissue_dataset("Eb", &TissueType::Brain).unwrap();
        assert!(s.enum_table("Eb").unwrap().n_libraries() > 0);
        assert!(s.lineage().find_by_name("SAGE").unwrap().operation == "load_matrix");
        // Raw-corpus searches degrade gracefully.
        assert!(s.corpus().is_empty());
    }

    #[test]
    fn session_xprofiler_pools() {
        let (mut s, _) = session();
        s.create_tissue_dataset("Ebrain", &TissueType::Brain)
            .unwrap();
        let cancer: Vec<String> = s
            .enum_table("Ebrain")
            .unwrap()
            .libraries()
            .iter()
            .filter(|m| m.state == gea_sage::NeoplasticState::Cancerous)
            .map(|m| m.name.clone())
            .collect();
        let normal: Vec<String> = s
            .enum_table("Ebrain")
            .unwrap()
            .libraries()
            .iter()
            .filter(|m| m.state == gea_sage::NeoplasticState::Normal)
            .map(|m| m.name.clone())
            .collect();
        let ca: Vec<&str> = cancer.iter().map(|x| x.as_str()).collect();
        let no: Vec<&str> = normal.iter().map(|x| x.as_str()).collect();
        let result = s.xprofiler("Ebrain", &ca, &no).unwrap();
        assert!(!result.rows.is_empty());
        assert!(!result.significant(0.05).is_empty());
        // Unknown groups error.
        assert!(matches!(
            s.xprofiler("Ebrain", &["ghost"], &no),
            Err(GeaError::EmptyGroup(_))
        ));
    }

    /// A session that never names `SAGE` never builds it: not on open, not
    /// for a data set, a custom data set, a mine or its control groups, and
    /// not through save and load. The first `xprofiler` over `SAGE` builds
    /// it once, and answers what the whole cleaned matrix answers.
    #[test]
    fn sage_is_built_only_when_named() {
        let (corpus, _) = generate(&GeneratorConfig::demo(42));
        let (matrix, _) = gea_sage::clean::clean(&corpus, &CleaningConfig::default());
        let mut s = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
        let unbuilt = |s: &GeaSession| s.source().held_base().is_none();
        assert!(unbuilt(&s));
        s.create_tissue_dataset("E", &TissueType::Brain).unwrap();
        let names: Vec<String> = s.enum_table("E").unwrap().library_names()[..2]
            .iter()
            .map(|n| n.to_string())
            .collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        s.create_custom_dataset("C", &names).unwrap();
        let n_tags = s.enum_table("E").unwrap().n_tags();
        let mined = s
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
        s.form_control_groups(&mined[0], LibraryProperty::Cancer)
            .unwrap();
        assert!(unbuilt(&s));
        let (bytes, _) = crate::persist::snapshot_to_bytes(&s).unwrap();
        let loaded = crate::persist::session_from_snapshot_bytes(&bytes, None).unwrap();
        assert!(unbuilt(&s) && unbuilt(&loaded));

        let base = EnumTable::new("SAGE", matrix);
        let pool = |state| {
            base.libraries()
                .iter()
                .filter(|m| m.tissue == TissueType::Brain && m.state == state)
                .map(|m| m.name.as_str())
                .collect::<Vec<_>>()
        };
        let (ca, no) = (
            pool(gea_sage::NeoplasticState::Cancerous),
            pool(gea_sage::NeoplasticState::Normal),
        );
        let want = crate::xprofiler::compare_pools(
            &base,
            &base.library_ids_where(|m| ca.contains(&m.name.as_str())),
            &base.library_ids_where(|m| no.contains(&m.name.as_str())),
        );
        let got = loaded.xprofiler("SAGE", &ca, &no).unwrap();
        let built = loaded.source().held_base().expect("xprofiler built SAGE");
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert!(std::ptr::eq(built, loaded.base()), "SAGE was built twice");
        assert_eq!(loaded.base(), &base);
    }

    #[test]
    fn select_and_project_from_sage_leave_it_unbuilt() {
        let (corpus, _) = generate(&GeneratorConfig::demo(42));
        let (matrix, _) = gea_sage::clean::clean(&corpus, &CleaningConfig::default());
        let base = EnumTable::new("SAGE", matrix);
        let mut s = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
        let unbuilt = |s: &GeaSession| s.source().held_base().is_none();
        let bits = |t: &EnumTable| {
            let m = &t.matrix;
            let tags: Vec<u32> = m.universe().iter().map(|(_, t)| t.code()).collect();
            let values: Vec<u64> = m
                .tag_ids()
                .flat_map(|tid| m.tag_row(tid).iter().map(|v| v.to_bits()))
                .collect();
            (t.name.clone(), tags, format!("{:?}", m.libraries()), values)
        };

        // Libraries named out of root order, plus one no library has.
        let libs = base.library_names();
        let picked = [libs[5], libs[1], "no such library"];
        s.select_dataset_libraries("U", "SAGE", &picked).unwrap();
        assert!(unbuilt(&s));
        let want = base.select_libraries("U", |m| picked.contains(&m.name.as_str()));
        assert_eq!(bits(s.enum_table("U").unwrap()), bits(&want));

        // Kept tags out of order and repeated, plus one cleaning dropped.
        let universe = base.matrix.universe();
        let dropped = (0..)
            .filter_map(Tag::from_code)
            .find(|&t| universe.id_of(t).is_none())
            .unwrap();
        let tags: Vec<Tag> = [100, 3, 100, 1500]
            .iter()
            .map(|&i| universe.tag_of(TagId(i)))
            .chain([dropped])
            .collect();
        s.project_dataset_tags("P", "SAGE", &tags).unwrap();
        assert!(unbuilt(&s));
        let ids: Vec<TagId> = tags.iter().filter_map(|&t| universe.id_of(t)).collect();
        assert_eq!(
            bits(s.enum_table("P").unwrap()),
            bits(&base.select_tags("P", &ids))
        );
        let node = s.lineage().find_by_name("P").unwrap();
        assert!(node.params.contains(&("tags".to_string(), "4".to_string())));
    }

    /// A table's every bit: name, tag codes, library metadata and values.
    fn enum_bits(t: &EnumTable) -> (String, Vec<u32>, String, Vec<u64>) {
        let m = &t.matrix;
        let tags: Vec<u32> = m.universe().iter().map(|(_, t)| t.code()).collect();
        let values: Vec<u64> = m
            .tag_ids()
            .flat_map(|tid| m.tag_row(tid).iter().map(|v| v.to_bits()))
            .collect();
        (t.name.clone(), tags, format!("{:?}", m.libraries()), values)
    }

    /// A SUMY's every bit.
    fn sumy_bits(t: &SumyTable) -> (String, Vec<(u32, u32, [u64; 4])>) {
        let rows = t.rows().iter().map(|r| {
            let stats = [r.range.lo(), r.range.hi(), r.average, r.std_dev].map(f64::to_bits);
            (r.tag.code(), r.tag_no, stats)
        });
        (t.name.clone(), rows.collect())
    }

    /// The derived tables of `s` and whether each is built.
    fn derived(s: &GeaSession) -> Vec<(String, String, bool)> {
        let owned = |(kind, name, built): (&str, &str, bool)| (kind.into(), name.into(), built);
        s.derived_tables().into_iter().map(owned).collect()
    }

    /// Demo 42 through a thesis-shaped plan — a fascicle `mine`, two
    /// clusters of the shapes `isa` (some libraries × some tags) and
    /// `simplex` (some libraries × every tag) install, `fascicles`,
    /// `purity`, `groups`, `gap`, `topgap`, `populate`, `lineage`, the
    /// relational view, the charge, a save and a load — builds no cluster,
    /// control-group or `populate` table. Each then builds, once read,
    /// bit for bit what the install built before it was derived.
    #[test]
    fn mined_tables_stay_unbuilt() {
        let (corpus, _) = generate(&GeneratorConfig::demo(42));
        let mut s = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
        s.create_tissue_dataset("E", &TissueType::Brain).unwrap();
        let e = s.enum_table("E").unwrap().clone();
        let params = FascicleParams {
            min_compact_attrs: e.n_tags() / 2,
            min_records: 3,
            batch_size: 6,
        };
        assert_eq!(
            s.calculate_fascicles("E", "a", 0.10, &params).unwrap(),
            ["a_1"]
        );
        let some_tags: Vec<usize> = (0..e.n_tags()).step_by(7).collect();
        let every_tag: Vec<usize> = (0..e.n_tags()).collect();
        for (base, op, groups) in [
            (
                "m",
                "ISA",
                vec![(vec![4, 1, 7], some_tags), (vec![2, 3], vec![5, 0, 9])],
            ),
            (
                "k",
                "Simplex",
                vec![(vec![0, 5, 6], every_tag.clone()), (vec![8, 9], every_tag)],
            ),
        ] {
            let clusters = crate::mine::materialize_groups(&e, base, 0, groups);
            s.install_mined_clusters("E", op, Vec::new(), base, Vec::new(), clusters)
                .unwrap();
        }
        assert_eq!(s.fascicle_names(), ["a_1", "k_1", "k_2", "m_1", "m_2"]);
        let pure = s.purity_properties("a_1").unwrap();
        assert_eq!(s.purity_check("a_1").unwrap(), pure);
        assert!(pure.contains(&LibraryProperty::Cancer));
        let groups = s
            .form_control_groups("a_1", LibraryProperty::Cancer)
            .unwrap();
        s.create_gap("g", &groups.in_fascicle, &groups.contrast)
            .unwrap();
        s.calculate_top_gap("g", 20, TopGapOrder::LargestMagnitude)
            .unwrap();
        assert_eq!(
            s.populate_from_sumy("P", &groups.in_fascicle, "E").unwrap(),
            3
        );
        let tree = s.lineage().render_tree();
        assert!(tree.contains("P") && tree.contains("m_2"), "{tree}");
        let charge = crate::mem::ApproxMem::approx_bytes(&s);
        let relations = s.database();
        let dir = std::env::temp_dir().join(format!("gea_unbuilt_{}", std::process::id()));
        let fingerprint = crate::persist::save_session(&s, &dir).unwrap();
        let loaded = crate::persist::load_session_verified(&dir, fingerprint).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        fn unbuilt(kind: &str, names: &[&str]) -> Vec<(String, String, bool)> {
            let entry = |n: &&str| (kind.to_string(), n.to_string(), false);
            names.iter().map(entry).collect()
        }
        let outside = groups.outside_fascicle.as_str();
        let contrast = groups.contrast.as_str();
        let clusters = ["a_1", "k_1", "k_2", "m_1", "m_2"];
        let mut enums: Vec<&str> = clusters
            .iter()
            .copied()
            .chain(["P", outside, contrast])
            .collect();
        enums.sort();
        let want = [unbuilt("ENUM", &enums), unbuilt("SUMY", &clusters)].concat();
        assert_eq!(derived(&s), want);
        assert!(derived(&loaded).is_empty(), "a load holds every table");

        // Read, each builds what the install built before it was derived.
        let members = |name: &str| s.fascicle(name).unwrap().members.clone();
        let ids = |names: Vec<String>| e.library_ids_where(|m| names.contains(&m.name));
        for name in clusters {
            let record = s.fascicle(name).unwrap();
            let tags: Vec<TagId> = record
                .compact_tags
                .iter()
                .map(|&t| e.matrix.id_of(t).unwrap())
                .collect();
            let libs: Vec<LibraryId> = {
                let names = members(name);
                names
                    .iter()
                    .map(|n| e.library_ids_where(|m| &m.name == n)[0])
                    .collect()
            };
            let want_enum = e.with_libraries(name, &libs).select_tags(name, &tags);
            let want_sumy = aggregate_tags(name, &e.matrix.select_libraries(&libs), &tags);
            assert_eq!(
                enum_bits(s.enum_table(name).unwrap()),
                enum_bits(&want_enum)
            );
            assert_eq!(sumy_bits(s.sumy(name).unwrap()), sumy_bits(&want_sumy));
            assert_eq!(
                s.enum_table(name).unwrap(),
                loaded.enum_table(name).unwrap()
            );
            assert_eq!(s.sumy(name).unwrap(), loaded.sumy(name).unwrap());
        }
        let a_1 = members("a_1");
        let want_outside = e.select_libraries(outside, |m| {
            m.has_property(LibraryProperty::Cancer) && !a_1.contains(&m.name)
        });
        let want_contrast =
            e.select_libraries(contrast, |m| m.has_property(LibraryProperty::Normal));
        let want_p = crate::populate::materialize_populate(
            "P",
            s.sumy(&groups.in_fascicle).unwrap(),
            &e,
            &ids(a_1.clone()),
        );
        for want in [want_outside, want_contrast, want_p] {
            assert_eq!(
                enum_bits(s.enum_table(&want.name).unwrap()),
                enum_bits(&want)
            );
        }
        assert!(derived(&s).iter().all(|(_, _, built)| *built));
        assert_eq!(crate::mem::ApproxMem::approx_bytes(&s), charge);
        let db = s.database();
        assert_eq!(db.names(), relations.names());
        for name in relations.names() {
            assert_eq!(db.get(name), relations.get(name), "{name}");
        }
        assert_eq!(
            crate::persist::snapshot_to_bytes(&s).unwrap(),
            crate::persist::snapshot_to_bytes(&loaded).unwrap()
        );
    }

    /// A contents-only `delete` of a derived table drops what was built and
    /// keeps the definition: the next read builds it again bit for bit,
    /// the charge does not move, and the CSV is empty until `regenerate`.
    /// A held table stays as it was.
    #[test]
    fn a_contents_only_delete_frees_a_derived_table() {
        let (corpus, _) = generate(&GeneratorConfig::demo(42));
        let mut s = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
        s.create_tissue_dataset("E", &TissueType::Brain).unwrap();
        let params = FascicleParams {
            min_compact_attrs: s.enum_table("E").unwrap().n_tags() / 2,
            min_records: 3,
            batch_size: 6,
        };
        s.calculate_fascicles("E", "a", 0.10, &params).unwrap();
        let built = (
            enum_bits(s.enum_table("a_1").unwrap()),
            sumy_bits(s.sumy("a_1").unwrap()),
        );
        let charge = crate::mem::ApproxMem::approx_bytes(&s);
        let relation = s.relation("a_1").unwrap();
        assert!(derived(&s).iter().all(|(_, n, b)| n == "a_1" && *b));

        assert_eq!(s.delete("a_1", false).unwrap(), ["a_1"]);
        assert!(derived(&s).iter().all(|(_, _, b)| !b), "{:?}", derived(&s));
        assert_eq!(crate::mem::ApproxMem::approx_bytes(&s), charge);
        assert_eq!(s.relation("a_1").unwrap().n_rows(), 0);
        assert!(
            derived(&s).iter().all(|(_, _, b)| !b),
            "the empty CSV built a_1"
        );
        let rebuilt = (
            enum_bits(s.enum_table("a_1").unwrap()),
            sumy_bits(s.sumy("a_1").unwrap()),
        );
        assert_eq!(rebuilt, built);
        assert_eq!(crate::mem::ApproxMem::approx_bytes(&s), charge);
        s.regenerate("a_1").unwrap();
        assert_eq!(s.relation("a_1").unwrap(), relation);

        // A held data set keeps its table through a contents-only delete.
        let e = s.enum_table("E").unwrap() as *const EnumTable;
        s.delete("E", false).unwrap();
        assert!(std::ptr::eq(s.enum_table("E").unwrap(), e));
    }

    /// A derived table whose parent is gone — no session built through
    /// these methods gets there, as only a cascade removes a parent, and
    /// it removes the table too — answers an error on every read.
    #[test]
    fn a_derived_table_without_its_parent_answers_not_found() {
        let (corpus, _) = generate(&GeneratorConfig::demo(42));
        let mut s = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
        s.create_tissue_dataset("E", &TissueType::Brain).unwrap();
        let e = s.enum_table("E").unwrap();
        let clusters = crate::mine::materialize_groups(e, "c", 0, vec![(vec![0, 1], vec![0])]);
        s.install_mined_clusters("E", "Test", Vec::new(), "test", Vec::new(), clusters)
            .unwrap();
        s.enums.remove("E");
        let not_found = |r: Result<(), GeaError>| {
            assert!(matches!(r, Err(GeaError::NotFound { kind: "ENUM", ref name }) if name == "E"))
        };
        not_found(s.enum_table("c_1").map(|_| ()));
        not_found(s.sumy("c_1").map(|_| ()));
        not_found(s.enum_libraries("c_1").map(|_| ()));
        assert!(s.relation("c_1").is_none());
        assert!(crate::persist::snapshot_to_bytes(&s).is_err());
        let _ = crate::mem::ApproxMem::approx_bytes(&s);
    }

    /// Cluster results off the wire that no miner produces are refused
    /// whole, before anything is built or recorded.
    #[test]
    fn a_cluster_outside_its_data_set_is_refused() {
        let (mut s, _) = session();
        s.create_tissue_dataset("E", &TissueType::Brain).unwrap();
        let (n_libs, n_tags) = {
            let e = s.enum_table("E").unwrap();
            (e.n_libraries() as u32, e.n_tags() as u32)
        };
        let cluster = |libraries: Vec<u32>, tags: Vec<u32>| crate::mine::MinedCluster {
            name: "c_1".to_string(),
            libraries: libraries.into_iter().map(LibraryId).collect(),
            compact_tags: tags.into_iter().map(TagId).collect(),
        };
        for bad in [
            cluster(vec![], vec![0]),
            cluster(vec![0, n_libs], vec![0]),
            cluster(vec![0], vec![n_tags]),
            cluster(vec![0], vec![3, 1, 3]),
        ] {
            let refused =
                s.install_mined_clusters("E", "Test", Vec::new(), "test", Vec::new(), vec![bad]);
            assert!(
                matches!(refused, Err(GeaError::Malformed(_))),
                "{refused:?}"
            );
            assert_eq!((s.lineage().len(), s.enum_names().len()), (2, 1));
        }
        let good = cluster(vec![0, 1], vec![0, 1]);
        s.install_mined_clusters("E", "Test", Vec::new(), "test", Vec::new(), vec![good])
            .unwrap();
        assert!(matches!(
            s.install_populate("P", "c_1", "E", &[LibraryId(0), LibraryId(n_libs)]),
            Err(GeaError::Malformed(_))
        ));
        assert!(matches!(
            s.install_populate("P", "c_1", "E", &[]),
            Err(GeaError::EmptyGroup(_))
        ));
        assert!(s.enum_table("P").is_err() && s.lineage().find_by_name("P").is_none());
    }

    #[test]
    fn duplicate_names_rejected() {
        let (mut s, _) = session();
        s.create_tissue_dataset("Ebrain", &TissueType::Brain)
            .unwrap();
        assert!(matches!(
            s.create_tissue_dataset("Ebrain", &TissueType::Breast),
            Err(GeaError::NameTaken(_))
        ));
    }

    #[test]
    fn empty_tissue_rejected() {
        let (mut s, _) = session();
        assert!(matches!(
            s.create_tissue_dataset("Eskin", &TissueType::Skin),
            Err(GeaError::EmptyGroup(_))
        ));
    }

    #[test]
    fn custom_dataset_and_deletion() {
        let (mut s, _) = session();
        let names: Vec<String> = s
            .base()
            .library_names()
            .iter()
            .take(3)
            .map(|s| s.to_string())
            .collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        s.create_custom_dataset("newBrain", &refs).unwrap();
        assert_eq!(s.enum_table("newBrain").unwrap().n_libraries(), 3);
        // Cascade delete removes the table and its lineage node.
        let removed = s.delete("newBrain", true).unwrap();
        assert_eq!(removed, vec!["newBrain".to_string()]);
        assert!(s.enum_table("newBrain").is_err());
    }

    #[test]
    fn impure_fascicle_blocks_control_groups() {
        let (mut s, truth) = session();
        s.create_tissue_dataset("Ebrain", &TissueType::Brain)
            .unwrap();
        let fascicles = s
            .calculate_fascicles("Ebrain", "brain", 0.10, &brain_params(&s, &truth))
            .unwrap();
        for f in &fascicles {
            let purity = s.purity_check(f).unwrap();
            if !purity.contains(&LibraryProperty::Normal) {
                assert!(matches!(
                    s.form_control_groups(f, LibraryProperty::Normal),
                    Err(GeaError::NotPure { .. }) | Err(GeaError::EmptyGroup(_))
                ));
                return;
            }
        }
    }

    #[test]
    fn regenerate_after_contents_only_delete() {
        let (mut s, truth) = session();
        s.create_tissue_dataset("Ebrain", &TissueType::Brain)
            .unwrap();
        let fascicles = s
            .calculate_fascicles("Ebrain", "brain", 0.10, &brain_params(&s, &truth))
            .unwrap();
        let f = fascicles[0].clone();
        let before = s.database().get(&f).unwrap().clone();
        assert!(before.n_rows() > 0);
        s.delete(&f, false).unwrap();
        assert_eq!(s.database().get(&f).unwrap().n_rows(), 0);
        assert!(!s.lineage().find_by_name(&f).unwrap().materialized);
        s.regenerate(&f).unwrap();
        assert_eq!(s.database().get(&f).unwrap(), &before);
        assert!(s.lineage().find_by_name(&f).unwrap().materialized);
        // Regenerating a live table is a no-op.
        s.regenerate(&f).unwrap();
        // Unknown table errors.
        assert!(s.regenerate("ghost").is_err());
    }

    #[test]
    fn populate_from_sumy_materializes_the_extension() {
        let (mut s, truth) = session();
        s.create_tissue_dataset("Ebrain", &TissueType::Brain)
            .unwrap();
        let fascicles = s
            .calculate_fascicles("Ebrain", "brain", 0.10, &brain_params(&s, &truth))
            .unwrap();
        let f = fascicles[0].clone();
        let hits = s.populate_from_sumy("P", &f, "Ebrain").unwrap();
        assert!(hits > 0);
        let p = s.enum_table("P").unwrap();
        assert_eq!(p.n_libraries(), hits);
        // The populated ENUM holds exactly the fascicle's members (the
        // mine auto-populated its own extension from the same SUMY) and
        // is restricted to the SUMY's tags.
        let members = &s.fascicle(&f).unwrap().members;
        for m in members {
            assert!(p.libraries().iter().any(|l| &l.name == m), "{m} missing");
        }
        assert_eq!(p.n_tags(), s.sumy(&f).unwrap().len());
        // Lineage records the operation with both parents; the relation
        // is materialized and regenerable after a contents-only delete.
        let node = s.lineage().find_by_name("P").unwrap();
        assert_eq!(node.operation, "populate");
        let before = s.database().get("P").unwrap().clone();
        s.delete("P", false).unwrap();
        s.regenerate("P").unwrap();
        assert_eq!(s.database().get("P").unwrap(), &before);
        // Name conflicts and missing inputs are rejected.
        assert!(matches!(
            s.populate_from_sumy("P", &f, "Ebrain"),
            Err(GeaError::NameTaken(_))
        ));
        assert!(s.populate_from_sumy("Q", "ghost", "Ebrain").is_err());
        assert!(s.populate_from_sumy("Q", &f, "ghost").is_err());
    }

    #[test]
    fn a_refused_mine_install_commits_nothing() {
        let (mut s, _) = session();
        s.create_tissue_dataset("Ebrain", &TissueType::Brain)
            .unwrap();
        // `x_3` is a table; `y_2` is only a lineage node, as a hand-made
        // snapshot could restore one.
        s.create_tissue_dataset("x_3", &TissueType::Brain).unwrap();
        s.record_node("y_2", NodeKind::Enum, "stray", Vec::new(), &[])
            .unwrap();
        let before = (s.lineage().len(), s.enum_names().len());
        for (base, taken) in [("x", "x_3"), ("y", "y_2")] {
            let table = s.enum_table("Ebrain").unwrap();
            let clusters = crate::mine::materialize_groups(
                table,
                base,
                0,
                vec![(vec![0, 1], vec![0, 1, 2]); 3],
            );
            let refused = s.install_mined_clusters(
                "Ebrain",
                "Test",
                Vec::new(),
                "test",
                Vec::new(),
                clusters,
            );
            assert!(matches!(refused, Err(GeaError::NameTaken(n)) if n == taken));
            assert_eq!((s.lineage().len(), s.enum_names().len()), before);
            assert!(s.fascicle_names().is_empty() && (s.sumy_names().len() == 0));
        }
    }

    #[test]
    fn data_sets_have_no_relational_form() {
        // Every data-set constructor, then the rule: none of them is a
        // relation, before or after a contents-only delete and regenerate
        // (which at one time added the data set to the database).
        let (mut s, _) = session();
        s.create_tissue_dataset("Ebrain", &TissueType::Brain)
            .unwrap();
        let table = s.enum_table("Ebrain").unwrap();
        let lib = table.library_names()[0].to_string();
        let tag = table.matrix.tag_of(table.matrix.tag_ids().next().unwrap());
        s.create_custom_dataset("Ecustom", &[&lib]).unwrap();
        s.select_dataset_libraries("Eselect", "Ebrain", &[&lib])
            .unwrap();
        s.project_dataset_tags("Eproject", "Ebrain", &[tag])
            .unwrap();
        s.delete("Ebrain", false).unwrap();
        s.regenerate("Ebrain").unwrap();
        assert_eq!(s.lineage().len(), 5);
        assert_eq!(s.relation_names(), Vec::<&str>::new());
        assert!(s.database().is_empty());
        for name in ["SAGE", "Ebrain", "Ecustom", "Eselect", "Eproject", "ghost"] {
            assert!(s.relation(name).is_none(), "{name} has a relation");
        }
        let (corpus, _) = generate(&GeneratorConfig::demo(103));
        let (matrix, _) = gea_sage::clean::clean(&corpus, &CleaningConfig::default());
        let s = GeaSession::open_matrix(matrix, "microarray test").unwrap();
        assert!(s.relation_names().is_empty());
    }

    #[test]
    fn top_gap_derivation() {
        let (mut s, truth) = session();
        s.create_tissue_dataset("Ebrain", &TissueType::Brain)
            .unwrap();
        let fascicles = s
            .calculate_fascicles("Ebrain", "brain", 0.10, &brain_params(&s, &truth))
            .unwrap();
        let target = fascicles
            .iter()
            .find(|f| {
                let t = s.enum_table(f).unwrap().clone();
                is_pure(t.libraries(), LibraryProperty::Cancer)
            })
            .cloned();
        let Some(target) = target else { return };
        let groups = s
            .form_control_groups(&target, LibraryProperty::Cancer)
            .unwrap();
        s.create_gap("g", &groups.in_fascicle, &groups.contrast)
            .unwrap();
        let top_name = s
            .calculate_top_gap("g", 10, TopGapOrder::LargestMagnitude)
            .unwrap();
        assert_eq!(top_name, "g_10");
        assert!(s.gap("g_10").unwrap().len() <= 10);
        // And it has a relational form.
        assert!(s.database().exists("g_10"));
    }

    /// `topgap` refuses a name any table holds, as every defining
    /// operation does: `ECONFLICT`, not a lineage error, and nothing
    /// recorded.
    #[test]
    fn top_gap_refuses_a_name_an_enum_holds() {
        let (corpus, _) = generate(&GeneratorConfig::demo(42));
        let mut s = GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
        s.create_tissue_dataset("E", &TissueType::Brain).unwrap();
        let params = FascicleParams {
            min_compact_attrs: s.enum_table("E").unwrap().n_tags() / 2,
            min_records: 3,
            batch_size: 6,
        };
        let mined = s.calculate_fascicles("E", "a", 0.10, &params).unwrap();
        assert_eq!(mined, ["a_1"]);
        let groups = s
            .form_control_groups("a_1", LibraryProperty::Cancer)
            .unwrap();
        s.create_gap("g", &groups.in_fascicle, &groups.contrast)
            .unwrap();
        s.create_tissue_dataset("g_20", &TissueType::Brain).unwrap();
        let lineage = s.lineage().render_tree();
        assert!(matches!(
            s.calculate_top_gap("g", 20, TopGapOrder::LargestMagnitude),
            Err(GeaError::NameTaken(name)) if name == "g_20"
        ));
        assert!(s.gap("g_20").is_err());
        assert_eq!(s.lineage().render_tree(), lineage);
    }
}
