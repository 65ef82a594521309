//! The GQL executor: runs a parsed [`GqlCommand`] against a
//! [`GeaSession`], producing the same human-readable text the thesis GUI
//! panels show.
//!
//! The executor is split along the lock axis: [`execute_read`] takes
//! `&GeaSession` so the server can run it under a shared read lock, while
//! [`execute_write`] takes `&mut GeaSession` for the mutating algebra.
//! [`GqlCommand::is_read`] decides which side a command belongs to.

use std::fmt;
use std::fmt::Write as _;

use gea_core::relational::{
    enum_to_relation, gap_to_relation, render_gap_head, render_sumy_head, sumy_to_relation,
};
use gea_core::search::{library_info_by_id, library_info_by_name, tag_frequency};
use gea_core::session::{GeaError, GeaSession};
use gea_core::topgap::{series_means, TopGapOrder};
use gea_exec::scatter::{self, ScatterOp};
use gea_mine::MineBackend;
use gea_sage::library::LibraryId;
use gea_sage::library::LibraryProperty;

use crate::gql::{GqlCommand, ShowKind};
use crate::EffectTable;

/// A failed command: a stable machine-readable code plus a human message,
/// rendered on the wire as `ERR <code> <message>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    /// Stable error code (`ENOTFOUND`, `ECONFLICT`, …).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl EngineError {
    /// Build an error from a code and message.
    pub fn new(code: &'static str, message: impl Into<String>) -> EngineError {
        EngineError {
            code,
            message: message.into(),
        }
    }

    /// The `EEVICTED` error: the named session was evicted by the
    /// registry's policy (idle timeout or memory budget) and must be
    /// re-`open`ed before further commands.
    pub fn evicted(name: &str, reason: impl fmt::Display) -> EngineError {
        EngineError::new(
            "EEVICTED",
            format!("session {name:?} was evicted ({reason}); re-open it"),
        )
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.message)
    }
}

impl std::error::Error for EngineError {}

impl From<GeaError> for EngineError {
    fn from(e: GeaError) -> EngineError {
        let code = match &e {
            GeaError::NotFound { .. } => "ENOTFOUND",
            GeaError::NameTaken(_) => "ECONFLICT",
            GeaError::NotPure { .. } => "EPURITY",
            GeaError::EmptyGroup(_) => "EEMPTY",
            GeaError::Lineage(_) => "ELINEAGE",
            GeaError::QueryNotApplicable => "EQUERY",
            GeaError::Malformed(_) => "EPARSE",
        };
        EngineError::new(code, e.to_string())
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> EngineError {
        EngineError::new("EIO", e.to_string())
    }
}

impl From<gea_sage::io::IoError> for EngineError {
    fn from(e: gea_sage::io::IoError) -> EngineError {
        EngineError::new("EIO", e.to_string())
    }
}

impl From<gea_core::relational::ConvertError> for EngineError {
    fn from(e: gea_core::relational::ConvertError) -> EngineError {
        EngineError::new("EIO", e.to_string())
    }
}

impl From<gea_core::persist::PersistError> for EngineError {
    fn from(e: gea_core::persist::PersistError) -> EngineError {
        EngineError::new("EIO", e.to_string())
    }
}

fn not_found(message: String) -> EngineError {
    EngineError::new("ENOTFOUND", message)
}

/// Look `algo` up in the gea-mine registry and resolve the `key=value`
/// parameters against its typed schema. A parsed `mine` always resolves
/// (the grammar resolved it already); a command built by hand that does
/// not gets the grammar's `EPARSE`.
fn resolve_backend(
    algo: &str,
    params: &[(String, gea_mine::ParamValue)],
) -> Result<(&'static dyn MineBackend, gea_mine::ResolvedParams), EngineError> {
    let backend = gea_mine::backend(algo).ok_or_else(|| {
        EngineError::new(
            "EPARSE",
            format!(
                "unknown mining backend {algo:?} (available: {})",
                gea_mine::backend_names()
            ),
        )
    })?;
    let resolved = gea_mine::resolve_params(backend.params(), params)
        .map_err(|e| EngineError::new("EPARSE", e))?;
    Ok((backend, resolved))
}

/// The one mapping from GQL to the scatter seam: `Some` exactly for the
/// commands the [`EffectTable`] marks scatterable. The in-process write
/// path, `xpart` and `xapply` all start here, so a command scatters
/// everywhere or nowhere.
pub(crate) fn scatter_op(cmd: &GqlCommand) -> Result<Option<ScatterOp>, EngineError> {
    if !EffectTable::of(cmd).scatterable {
        return Ok(None);
    }
    Ok(Some(match cmd {
        // The table scatters the two range-sharded backends.
        GqlCommand::MineWith {
            dataset,
            out,
            algo,
            params,
        } => {
            let (backend, params) = resolve_backend(algo, params)?;
            let (dataset, out) = (dataset.clone(), out.clone());
            if backend.name() == gea_mine::FasciclesBackend.name() {
                ScatterOp::Fascicles {
                    dataset,
                    out,
                    params,
                }
            } else {
                ScatterOp::Isa {
                    dataset,
                    out,
                    params,
                }
            }
        }
        GqlCommand::Populate {
            name,
            from: Some((sumy, dataset)),
        } => ScatterOp::Populate {
            name: name.clone(),
            sumy: sumy.clone(),
            dataset: dataset.clone(),
        },
        GqlCommand::Groups(fascicle) => ScatterOp::Groups {
            fascicle: fascicle.clone(),
            property: LibraryProperty::Cancer,
        },
        other => {
            return Err(EngineError::new(
                "EUNKNOWN",
                format!(
                    "{} is marked scatterable but has no scatter op",
                    other.verb()
                ),
            ))
        }
    }))
}

/// Run a scatterable operation on the session's own pool and render its
/// reply — byte-identical to the serial macro operation.
fn execute_scatter(session: &mut GeaSession, op: &ScatterOp) -> Result<String, EngineError> {
    let created = scatter::run(session, op)?;
    render_scattered(session, op, &created)
}

/// Reply for a just-installed scatterable operation; `created` is what
/// `scatter::run` / `scatter::install` returned. The in-process path and
/// `xapply` both render here.
pub(crate) fn render_scattered(
    session: &GeaSession,
    op: &ScatterOp,
    created: &[String],
) -> Result<String, EngineError> {
    match op {
        ScatterOp::Fascicles { .. } => render_mined(session, created, None),
        ScatterOp::Isa { .. } => render_mined(session, created, Some(gea_mine::IsaBackend.name())),
        ScatterOp::Populate {
            name,
            sumy,
            dataset,
        } => render_populate_created(session, name, sumy, dataset),
        ScatterOp::Groups { .. } => match created {
            [inside, outside, contrast] => Ok(format!(
                "SUMY tables created:\n  in fascicle:      {inside}\n  outside fascicle: {outside}\n  contrast (normal): {contrast}"
            )),
            _ => Err(EngineError::new(
                "EUNKNOWN",
                "groups did not report its three tables",
            )),
        },
    }
}

/// Reply for just-mined tables: fascicles of `fascicles`, clusters of
/// the other backends.
fn render_mined(
    session: &GeaSession,
    names: &[String],
    algo: Option<&str>,
) -> Result<String, EngineError> {
    let mut text = match algo {
        None => format!("{} fascicle(s):\n", names.len()),
        Some(a) => format!("{} cluster(s) via {a}:\n", names.len()),
    };
    for f in names {
        let r = session.fascicle(f)?;
        let _ = writeln!(
            text,
            "  {f}: {} libraries, {} compact tags",
            r.members.len(),
            r.compact_tags.len()
        );
    }
    Ok(text)
}

/// Execute a command, choosing the read or write path by
/// [`GqlCommand::is_read`]. Front-ends with exclusive access (the REPL)
/// use this; the server calls the split entry points directly so reads
/// share a lock.
pub fn execute(session: &mut GeaSession, cmd: &GqlCommand) -> Result<String, EngineError> {
    if cmd.is_read() {
        execute_read(session, cmd)
    } else {
        execute_write(session, cmd)
    }
}

/// Execute a read-only command against a shared session reference.
///
/// # Panics
///
/// Debug-asserts that `cmd.is_read()`; a write command here returns an
/// internal error in release builds.
pub fn execute_read(session: &GeaSession, cmd: &GqlCommand) -> Result<String, EngineError> {
    debug_assert!(cmd.is_read(), "{} is not a read command", cmd.verb());
    let out = match cmd {
        GqlCommand::Tissues => {
            let mut out = String::new();
            for t in session.corpus().tissue_types() {
                let members = session.corpus().libraries_of_tissue(&t);
                let _ = writeln!(out, "{t}: {} libraries", members.len());
            }
            out
        }
        GqlCommand::Fascicles => {
            let mut out = String::new();
            for f in session.fascicle_names() {
                let r = session.fascicle(f).unwrap();
                let _ = writeln!(
                    out,
                    "{f}: {:?} ({} compact tags)",
                    r.members,
                    r.compact_tags.len()
                );
            }
            if out.is_empty() {
                out = "no fascicles mined yet".to_string();
            }
            out
        }
        GqlCommand::Purity(fascicle) => {
            let purity = session.purity_properties(fascicle)?;
            render_purity(fascicle, &purity)
        }
        GqlCommand::Show { kind, name, n } => match kind {
            ShowKind::Gap => render_gap_head(session.gap(name)?, *n)?,
            ShowKind::Sumy => render_sumy_head(session.sumy(name)?, *n)?,
        },
        GqlCommand::Plot {
            dataset,
            tag,
            fascicle,
        } => {
            let points = session.tag_plot(dataset, *tag, fascicle)?;
            if points.is_empty() {
                return Err(not_found(format!("tag {tag} not in {dataset}")));
            }
            let mut out = String::new();
            for (series, mean, count) in series_means(&points) {
                let _ = writeln!(out, "{:<24} avg {mean:8.1} (n={count})", series.label());
            }
            for p in points {
                let _ = writeln!(out, "  {:<24} {:8.1}", p.library, p.level);
            }
            out
        }
        GqlCommand::Library(key) => {
            let info = match key.parse::<u32>() {
                Ok(id) => library_info_by_id(session.corpus(), LibraryId(id)),
                Err(_) => library_info_by_name(session.corpus(), key),
            }
            .ok_or_else(|| not_found(format!("no library {key:?}")))?;
            format!(
                "{} (id {})\n  tissue: {}\n  state: {}\n  source: {}\n  total tags: {}\n  unique tags: {}",
                info.meta.name,
                info.id,
                info.meta.tissue,
                info.meta.state,
                info.meta.source,
                info.total_tags,
                info.unique_tags
            )
        }
        GqlCommand::TagFreq { dataset, tag } => {
            let table = session.enum_table(dataset)?;
            let row = tag_frequency(table, *tag, &[])
                .ok_or_else(|| not_found(format!("tag {tag} not in {dataset}")))?;
            let mut out = format!("{}_({}):\n", row.tag, row.tag_no);
            for (lib, v) in row.values {
                let _ = writeln!(out, "  {lib:<24} {v:10.1}");
            }
            out
        }
        GqlCommand::Export { name, path } => {
            let relation = if let Ok(g) = session.gap(name) {
                gap_to_relation(g)?
            } else if let Ok(t) = session.sumy(name) {
                sumy_to_relation(t)?
            } else if let Ok(e) = session.enum_table(name) {
                enum_to_relation(e)?
            } else {
                return Err(not_found(format!("no table named {name:?}")));
            };
            let mut file = std::fs::File::create(path)
                .map_err(|e| EngineError::new("EIO", format!("create {path}: {e}")))?;
            gea_relstore::export_csv(&relation, &mut file)
                .map_err(|e| EngineError::new("EIO", format!("write {path}: {e}")))?;
            format!("exported {} rows to {path}", relation.n_rows())
        }
        GqlCommand::Lineage => session.lineage().render_tree(),
        GqlCommand::Cleaning => {
            let report = session.cleaning_report();
            format!(
                "raw union {} tags -> kept {} ({:.0}% removed); freq-1 fraction {:.0}%",
                report.raw_union_tags,
                report.kept_tags,
                100.0 * report.removed_fraction(),
                100.0 * report.freq1_union_fraction
            )
        }
        GqlCommand::Xprofiler(dataset) => {
            let table = session.enum_table(dataset)?;
            let result = gea_core::xprofiler::compare_cancer_vs_normal(table)?;
            let hits = result.significant(0.05);
            let mut out = format!(
                "{} tags tested; {} significant at alpha = 0.05 (Bonferroni):\n",
                result.rows.len(),
                hits.len()
            );
            for r in hits.iter().take(10) {
                let _ = writeln!(
                    out,
                    "  {}_({})  z {:+7.2}  log2 ratio {:+6.2}",
                    r.tag, r.tag_no, r.z_score, r.log2_ratio
                );
            }
            out
        }
        GqlCommand::Check(cmds) => {
            // Static analysis against this session's *live* name
            // population. The command itself succeeds even when the
            // pipeline has errors — the diagnostics are the payload; the
            // session is never touched. A clean pipeline's reply also
            // carries the predicted row counts and cost per command,
            // seeded from the session's real table sizes (the built-in
            // coefficients, not host-local bench calibration, so every
            // replica of this session answers byte-identically).
            let seed = gea_check::SymbolSeed::from_session(session);
            let report = gea_check::check_pipeline(&seed, cmds);
            let mut out = report.render();
            if report.is_clean() {
                let cost_seed = gea_check::CostSeed::from_session(session);
                let model = gea_check::CostModel::default_coefficients();
                let cost = gea_check::cost_pipeline(&model, &cost_seed, cmds);
                out.push('\n');
                out.push_str(&cost.render());
            }
            out
        }
        GqlCommand::Save(dir) => {
            gea_core::persist::save_session(session, std::path::Path::new(dir))?;
            format!(
                "saved {} table(s) and full session snapshot to {dir}",
                session.relation_names().len()
            )
        }
        other => {
            debug_assert!(false, "{} reached execute_read", other.verb());
            return Err(EngineError::new(
                "EUNKNOWN",
                format!("{} is not a read command", other.verb()),
            ));
        }
    };
    Ok(out)
}

/// Execute a mutating command. Read commands are delegated to
/// [`execute_read`], so this is a complete single-session entry point.
pub fn execute_write(session: &mut GeaSession, cmd: &GqlCommand) -> Result<String, EngineError> {
    if let Some(op) = scatter_op(cmd)? {
        return execute_scatter(session, &op);
    }
    let out = match cmd {
        GqlCommand::Dataset { name, tissue } => {
            session.create_tissue_dataset(name, tissue)?;
            let t = session.enum_table(name)?;
            format!(
                "{name}: {} libraries x {} tags",
                t.n_libraries(),
                t.n_tags()
            )
        }
        GqlCommand::Custom { name, libraries } => {
            let libs: Vec<&str> = libraries.iter().map(|s| s.as_str()).collect();
            session.create_custom_dataset(name, &libs)?;
            format!(
                "{name}: {} libraries",
                session.enum_table(name).unwrap().n_libraries()
            )
        }
        GqlCommand::Select {
            name,
            dataset,
            libraries,
        } => {
            let libs: Vec<&str> = libraries.iter().map(|s| s.as_str()).collect();
            session.select_dataset_libraries(name, dataset, &libs)?;
            render_select_created(session, name, dataset)?
        }
        GqlCommand::Project {
            name,
            dataset,
            tags,
        } => {
            session.project_dataset_tags(name, dataset, tags)?;
            let t = session.enum_table(name)?;
            format!(
                "{name}: {} tags x {} libraries",
                t.n_tags(),
                t.n_libraries()
            )
        }
        GqlCommand::MineWith {
            dataset,
            out,
            algo,
            params,
        } => {
            // `with fascicles` and `with isa` took the scatter seam above;
            // what is left is `simplex`, mined whole through its own
            // sharded driver.
            let (backend, resolved) = resolve_backend(algo, params)?;
            if backend.name() != gea_mine::SimplexBackend.name() {
                return Err(GeaError::NotFound {
                    kind: "mining backend",
                    name: algo.clone(),
                }
                .into());
            }
            let names = gea_exec::mine_simplex_sharded(session, dataset, out, &resolved)?;
            render_mined(session, &names, Some(algo))?
        }
        GqlCommand::Gap { name, sumy1, sumy2 } => {
            session.create_gap(name, sumy1, sumy2)?;
            render_gap_created(session, name)
        }
        GqlCommand::TopGap { gap, x } => {
            let top = session.calculate_top_gap(gap, *x, TopGapOrder::LargestMagnitude)?;
            render_topgap_created(session, &top)
        }
        GqlCommand::Compare {
            name,
            g1,
            g2,
            op,
            query,
        } => {
            session.compare_gaps(name, g1, g2, *op, *query)?;
            render_compare_created(session, name, *query)
        }
        GqlCommand::Comment { name, text } => {
            session.comment(name, text)?;
            format!("comment recorded on {name}")
        }
        GqlCommand::Delete { name, cascade } => {
            let removed = session.delete(name, *cascade)?;
            if *cascade {
                format!("removed {} table(s): {}", removed.len(), removed.join(", "))
            } else {
                format!("contents of {name} dropped; metadata kept")
            }
        }
        GqlCommand::Populate { name, from: None } => {
            session.regenerate(name)?;
            format!("re-materialized {name} from its lineage")
        }
        GqlCommand::Load(dir) => {
            // Restore the saved session *in place* — the `save`/`load`
            // round trip the thesis's DB2 persistence assumes. This is a
            // write: the whole session is replaced, so it runs under the
            // write lock and the generation bump invalidates every cached
            // reply for this session. The exec configuration is runtime
            // tuning, not session state: carry it across the swap. A saved
            // session of this one's corpus shares its source rather than
            // decoding a second copy beside it.
            let exec = session.exec_config();
            *session = gea_core::persist::load_session_sharing(
                std::path::Path::new(dir),
                session.source(),
            )?;
            session.set_exec_config(exec);
            let mut out = format!(
                "restored session from {dir}: {} table(s); operation history:\n",
                session.relation_names().len()
            );
            out.push_str(&session.lineage().render_tree());
            out
        }
        read => return execute_read(session, read),
    };
    Ok(out)
}

// ---------------------------------------------------------------------------
// Shared success-reply rendering
//
// These helpers are the single source of the engine's reply text for the
// commands they name. `optexec` calls `render_compare_created` after
// running a rewritten self-compare, so its reply is byte-identical to
// literal execution *by construction* (and the rule audit re-proves it
// empirically).
// ---------------------------------------------------------------------------

/// Reply for a just-created GAP table (`gap` command).
fn render_gap_created(session: &GeaSession, name: &str) -> String {
    let g = session.gap(name).unwrap();
    format!(
        "{name}: {} tags, {} non-NULL gaps",
        g.len(),
        g.drop_null_gaps("tmp").len()
    )
}

/// Reply for a just-derived top-gap table (`topgap` command).
fn render_topgap_created(session: &GeaSession, top: &str) -> String {
    let mut out = format!("{top}:\n");
    let mut rows = session.gap(top).unwrap().rows().to_vec();
    rows.sort_by(|a, b| {
        b.gap()
            .unwrap_or(0.0)
            .abs()
            .total_cmp(&a.gap().unwrap_or(0.0).abs())
    });
    for r in rows {
        let _ = writeln!(
            out,
            "  {}_({})  {:+.2}",
            r.tag,
            r.tag_no,
            r.gap().unwrap_or(f64::NAN)
        );
    }
    out
}

/// Reply for a just-created comparison result (`compare` command).
pub(crate) fn render_compare_created(
    session: &GeaSession,
    name: &str,
    query: gea_core::CompareQuery,
) -> String {
    format!(
        "{name}: {} tags ({})",
        session.gap(name).unwrap().len(),
        query.description()
    )
}

/// Reply for a just-created library selection (`select` command).
fn render_select_created(
    session: &GeaSession,
    name: &str,
    dataset: &str,
) -> Result<String, EngineError> {
    Ok(format!(
        "{name}: {} of {} libraries kept",
        session.enum_libraries(name)?.len(),
        session.enum_libraries(dataset)?.len()
    ))
}

/// Reply for a just-populated ENUM table (`populate` operator form).
fn render_populate_created(
    session: &GeaSession,
    name: &str,
    sumy: &str,
    dataset: &str,
) -> Result<String, EngineError> {
    // Counts from metadata: the result is built when something reads it.
    let total = session.enum_libraries(dataset)?.len();
    let hits = session.enum_libraries(name)?.len();
    Ok(format!(
        "{name}: {hits} of {total} libraries in {dataset} satisfy {sumy}"
    ))
}

/// Shared purity rendering: the engine's read path uses
/// [`GeaSession::purity_properties`], the REPL's stateful path uses
/// [`GeaSession::purity_check`]; both print through here.
pub fn render_purity(fascicle: &str, purity: &[LibraryProperty]) -> String {
    if purity.is_empty() {
        format!("fascicle {fascicle} is NOT pure on any property")
    } else {
        let labels: Vec<String> = purity.iter().map(|p| p.to_string()).collect();
        format!("fascicle {fascicle} is pure: {}", labels.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gql::{parse, Request};
    use gea_sage::clean::CleaningConfig;
    use gea_sage::generate::{generate, GeneratorConfig};

    fn demo_session() -> GeaSession {
        let (corpus, _) = generate(&GeneratorConfig::demo(42));
        GeaSession::open(corpus, &CleaningConfig::default()).unwrap()
    }

    fn run(session: &mut GeaSession, line: &str) -> Result<String, EngineError> {
        match parse(line).unwrap().unwrap() {
            Request::Gql(cmd) => execute(session, &cmd),
            other => panic!("{line} is not an algebra command: {other:?}"),
        }
    }

    #[test]
    fn read_and_write_paths_cover_the_algebra() {
        let mut s = demo_session();
        assert!(run(&mut s, "tissues").unwrap().contains("brain"));
        let out = run(&mut s, "dataset Eb brain").unwrap();
        assert!(out.contains("libraries"), "{out}");
        assert!(run(&mut s, "cleaning").unwrap().contains("raw union"));
        assert!(run(&mut s, "lineage").unwrap().contains("Eb"));
        assert!(run(&mut s, "fascicles").unwrap().contains("no fascicles"));
        let err = run(&mut s, "gap g missing1 missing2").unwrap_err();
        assert_eq!(err.code, "ENOTFOUND");
        let err = run(&mut s, "dataset Eb brain").unwrap_err();
        assert_eq!(err.code, "ECONFLICT");
    }

    /// One line per verb and per form-dependent shape (both `populate`
    /// forms, the three `mine` spellings): the scatter mapping must be
    /// `Some` exactly where the verb-effect table says scatterable, so
    /// the router's dispatch and every executor agree on the set.
    #[test]
    fn scatter_ops_exist_exactly_for_scatterable_commands() {
        for line in [
            "tissues",
            "dataset e brain",
            "custom c L1 L2",
            "select s e L1",
            "project p e ACGTACGTAC",
            "mine e m 50 3 6",
            "mine e m with isa seeds=4",
            "mine e m with simplex",
            "fascicles",
            "purity m_1",
            "groups m_1",
            "gap g s1 s2",
            "topgap g 5",
            "compare c2 g1 g2 union 1",
            "show gap g 10",
            "plot e ACGTACGTAC m_1",
            "library L1",
            "tagfreq e ACGTACGTAC",
            "export g out.csv",
            "comment g \"note\"",
            "delete g",
            "populate e2",
            "populate e2 s1 e",
            "check dataset x brain ; select y x L1",
            "lineage",
            "cleaning",
            "xprofiler e",
            "save dir",
            "load dir",
        ] {
            let Request::Gql(cmd) = parse(line).unwrap().unwrap() else {
                panic!("{line} is not an algebra command");
            };
            let op = scatter_op(&cmd).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(op.is_some(), EffectTable::of(&cmd).scatterable, "{line}");
        }
        // A scatterable form with bad parameters (which only a command
        // built around the grammar can carry) is the grammar's error, not
        // a silent fall-through to whole execution.
        let bad = GqlCommand::MineWith {
            dataset: "e".into(),
            out: "m".into(),
            algo: "isa".into(),
            params: vec![("seeds".into(), gea_mine::ParamValue::UInt(0))],
        };
        let err = scatter_op(&bad).unwrap_err();
        assert_eq!(
            (err.code, err.message.as_str()),
            (
                "EPARSE",
                "parameter seeds = 0 out of domain (integer 1..=4096)"
            )
        );
        assert_eq!(
            parse("mine e m with isa seeds=0").unwrap_err().0,
            err.message
        );
    }

    #[test]
    fn select_and_project_derive_datasets() {
        let mut s = demo_session();
        run(&mut s, "dataset Eb brain").unwrap();
        let lib = s.enum_table("Eb").unwrap().library_names()[0].to_string();
        let out = run(&mut s, &format!("select Esub Eb {lib}")).unwrap();
        assert!(out.contains("1 of"), "{out}");
        let err = run(&mut s, "select Enone Eb not-a-library").unwrap_err();
        assert_eq!(err.code, "EEMPTY");
        let m = &s.enum_table("Eb").unwrap().matrix;
        let tag = m.tag_of(m.tag_ids().next().unwrap()).to_string();
        let out = run(&mut s, &format!("project Ep Eb {tag}")).unwrap();
        assert!(out.contains("1 tags"), "{out}");
        assert!(run(&mut s, "lineage").unwrap().contains("Esub"));
    }

    #[test]
    fn purity_read_path_matches_stateful_check() {
        let mut s = demo_session();
        run(&mut s, "dataset Eb brain").unwrap();
        for pct in [60, 55, 50, 45, 40] {
            run(&mut s, &format!("mine Eb f{pct} {pct} 3 6")).unwrap();
            if !s.fascicle_names().is_empty() {
                break;
            }
        }
        if let Some(f) = s.fascicle_names().first().map(|f| f.to_string()) {
            let via_read = run(&mut s, &format!("purity {f}")).unwrap();
            let via_check = render_purity(&f, &s.purity_check(&f).unwrap());
            assert_eq!(via_read, via_check);
        }
    }
}
