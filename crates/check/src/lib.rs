//! gea-check: the GQL grammar plus a world-typed static analyzer for GQL
//! scripts.
//!
//! The analyzer consumes parsed [`gql::GqlCommand`]s and, **without
//! touching a session**, runs three passes over the linear script:
//!
//! 1. a **world/type pass** — a symbol table mapping names to
//!    [`World`]s flags undefined references, world mismatches (`gap` over
//!    an ENUM, `show sumy` of a GAP), redefinitions, and use of
//!    mine-dependent verbs (`purity`, `groups`, `plot`) before any `mine`;
//! 2. a **dataflow pass** — dead assignments, definitions discarded by a
//!    session-replacing `load`, and mutation-after-`export` hazards;
//! 3. a **query pass** — compare queries inapplicable to `difference`,
//!    export paths escaping the working directory, and suspicious values
//!    (`show … 0`, an unknown tissue).
//!
//! Parameter domains are not a pass: the grammar ([`gql::parse`]) checks
//! every `mine` parameter against its backend's schema, `topgap`'s `x`
//! and the library/tag lists, so a line out of domain is a `parse` error
//! and never reaches the analyzer.
//!
//! Diagnostics carry 1-based line numbers and a severity; only errors
//! make a script unrunnable, and an error always means the engine would
//! refuse the line. Front-ends: `gea-cli --check <script>` and
//! the batch pre-flight gate analyze whole scripts with
//! [`check_script`]; the server's `check` GQL verb validates a pipeline
//! against a live session's actual name population with
//! [`check_pipeline`] and a [`SymbolSeed`].

pub mod cost;
pub mod dataflow;
pub mod diag;
pub mod effects;
pub mod fix;
pub mod gql;
pub mod symbols;
pub mod world;

pub use cost::{
    cost_pipeline, cost_script, CommandCost, CostModel, CostReport, CostSeed, Interval,
};
pub use diag::{CheckReport, Diagnostic, Severity};
pub use effects::{Effect, EffectTable, VerbEffect};
pub use fix::{fix_script, FixOutcome};
pub use symbols::{SymbolSeed, SymbolTable};
pub use world::{World, WorldSet};

use gea_core::compare::CompareQuery;
use gea_sage::TissueType;

use dataflow::Dataflow;
use gql::{GqlCommand, Request, SessionCtl, ShowKind};

/// The three-pass analyzer. Feed it a script line by line
/// ([`Analyzer::check_line`]) or already-parsed commands
/// ([`Analyzer::check_command`]), then [`Analyzer::finish`].
#[derive(Debug)]
pub struct Analyzer {
    symbols: SymbolTable,
    flow: Dataflow,
    diags: Vec<Diagnostic>,
    commands: usize,
    session_open: bool,
    quit_at: Option<usize>,
    warned_unreachable: bool,
    warned_no_session: bool,
    /// True when analyzing a pipeline *fragment* against a live session
    /// (the server `check` verb). A fragment's definitions outlive the
    /// analysis — they would land in the session and stay readable — so
    /// the end-of-script dead-assignment flush must not fire on them.
    fragment: bool,
    /// `save` targets seen so far (path → first line), for path-collision
    /// checking. Deliberately *not* reset when the script opens a new
    /// session: the collision is on the filesystem, not in the session.
    saved_paths: std::collections::BTreeMap<String, usize>,
}

impl Analyzer {
    /// For a standalone script: no session is open until the script opens
    /// one (`load-demo` / `open … demo` / `load-dir`).
    pub fn for_script() -> Analyzer {
        Analyzer {
            symbols: SymbolTable::fresh(),
            flow: Dataflow::default(),
            diags: Vec::new(),
            commands: 0,
            session_open: false,
            quit_at: None,
            warned_unreachable: false,
            warned_no_session: false,
            fragment: false,
            saved_paths: std::collections::BTreeMap::new(),
        }
    }

    /// For the server's `check` verb: validate against a live session's
    /// actual name population.
    pub fn for_session(seed: &SymbolSeed) -> Analyzer {
        Analyzer {
            symbols: SymbolTable::seeded(seed),
            session_open: true,
            fragment: true,
            ..Analyzer::for_script()
        }
    }

    /// Analyze one raw script line (1-based `line`). Blank lines and `#`
    /// comments are skipped, matching batch-mode execution.
    pub fn check_line(&mut self, line: usize, text: &str) {
        let trimmed = text.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return;
        }
        if self.note_unreachable(line) {
            return;
        }
        match gql::parse(trimmed) {
            Ok(None) => {}
            Ok(Some(req)) => self.check_request(line, &req),
            Err(e) => {
                self.commands += 1;
                self.push(Diagnostic::error(line, "parse", e.0));
            }
        }
    }

    /// Analyze one parsed request (session control included).
    pub fn check_request(&mut self, line: usize, req: &Request) {
        self.commands += 1;
        match req {
            Request::Help | Request::Ping | Request::GenCorpus { .. } => {}
            Request::Quit => self.quit_at = Some(line),
            Request::Stats | Request::Shutdown => self.front_end_only(line, req.verb()),
            Request::Session(ctl) => match ctl {
                SessionCtl::OpenDemo { .. } | SessionCtl::OpenDir { .. } => {
                    self.open_session(line);
                }
                SessionCtl::Use(_) | SessionCtl::List | SessionCtl::Close(_) => {
                    self.front_end_only(line, req.verb());
                }
            },
            Request::Gql(cmd) => {
                if !self.session_open && !self.warned_no_session {
                    self.warned_no_session = true;
                    self.push(Diagnostic::error(
                        line,
                        "no-session",
                        format!(
                            "no session is open before `{}`; start with `load-demo <seed>` or `open <name> demo <seed>`",
                            cmd.verb()
                        ),
                    ));
                }
                self.command(line, cmd);
            }
        }
    }

    /// Analyze one parsed algebra command (the server `check` verb's
    /// entry point; `line` is the 1-based position in the pipeline).
    pub fn check_command(&mut self, line: usize, cmd: &GqlCommand) {
        self.commands += 1;
        self.command(line, cmd);
    }

    /// Run the end-of-script dataflow flush and produce the report. For a
    /// session fragment the flush is skipped: the checked pipeline's
    /// definitions would persist in the live session, so "defined but
    /// never read *within the fragment*" is not a defect.
    pub fn finish(mut self) -> CheckReport {
        if !self.fragment {
            let dead = self.flow.finish();
            self.diags.extend(dead);
        }
        self.diags.sort_by_key(|d| d.line);
        CheckReport {
            diagnostics: self.diags,
            commands: self.commands,
        }
    }

    fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// True (and warns, once) when `line` sits after a `quit`.
    fn note_unreachable(&mut self, line: usize) -> bool {
        let Some(q) = self.quit_at else {
            return false;
        };
        if !self.warned_unreachable {
            self.warned_unreachable = true;
            self.push(Diagnostic::warning(
                line,
                "unreachable",
                format!("the script quits at line {q}; this and later commands never run"),
            ));
        }
        true
    }

    fn front_end_only(&mut self, line: usize, verb: &str) {
        self.push(Diagnostic::error(
            line,
            "front-end",
            format!("`{verb}` is a server command; run it over the wire with gea-client, not in a gea-cli batch"),
        ));
    }

    fn open_session(&mut self, line: usize) {
        let lost = self.flow.replaced(line, "open");
        self.diags.extend(lost);
        self.symbols = SymbolTable::fresh();
        self.session_open = true;
    }

    fn require_mine(&mut self, line: usize, verb: &str) -> bool {
        if self.symbols.open_world || self.symbols.mined {
            return true;
        }
        self.push(Diagnostic::error(
            line,
            "mine-required",
            format!("{verb} needs mined fascicles, but no `mine` precedes this command"),
        ));
        false
    }

    /// Resolve a reference that must live in world `want`.
    fn read_as(&mut self, line: usize, name: &str, want: World, verb: &str) {
        if self.symbols.open_world {
            self.flow.read(name);
            return;
        }
        match self.symbols.lookup(name) {
            Some(ws) if ws.contains(want) => {
                self.symbols.materialize_implicit(name);
                self.flow.read(name);
            }
            Some(ws) => self.push(Diagnostic::error(
                line,
                "world-mismatch",
                format!("{verb} needs a {want} but {name:?} is {}", ws.describe()),
            )),
            None => {
                let mut d = Diagnostic::error(
                    line,
                    "undefined-name",
                    format!("{verb}: no {want} named {name:?} exists at this point"),
                );
                if let Some(near) = self.symbols.nearest(name, Some(want)) {
                    d = d.with_help(format!("did you mean {near:?}?"));
                    d = d.with_fix(diag::Fix::ReplaceName {
                        from: name.to_string(),
                        to: near,
                    });
                }
                self.push(d);
            }
        }
    }

    /// Resolve a reference that accepts any world (comment/delete/export).
    fn read_any(&mut self, line: usize, name: &str, verb: &str) {
        if self.symbols.open_world {
            self.flow.read(name);
            return;
        }
        if self.symbols.lookup(name).is_some() {
            self.symbols.materialize_implicit(name);
            self.flow.read(name);
        } else {
            let mut d = Diagnostic::error(
                line,
                "undefined-name",
                format!("{verb}: {name:?} is not defined at this point"),
            );
            if let Some(near) = self.symbols.nearest(name, None) {
                d = d.with_help(format!("did you mean {near:?}?"));
                d = d.with_fix(diag::Fix::ReplaceName {
                    from: name.to_string(),
                    to: near,
                });
            }
            self.push(d);
        }
    }

    /// Record a definition; errors on redefinition. `track` opts the name
    /// into dead-assignment analysis (pure definitions only — see
    /// [`dataflow`]).
    fn define(&mut self, line: usize, name: &str, worlds: WorldSet, parents: &[&str], track: bool) {
        if !self.symbols.open_world {
            if let Some(info) = self.symbols.get(name) {
                let provenance = match info.defined_line {
                    Some(l) => format!("already defined at line {l}"),
                    None => "already defined in the session".to_string(),
                };
                self.push(Diagnostic::error(
                    line,
                    "redefinition",
                    format!("{name:?} is {provenance}; `delete` it first or pick another name"),
                ));
                return;
            }
            if let Some((prefix, mline)) = self.symbols.possible_fascicle_collision(name) {
                self.push(Diagnostic::warning(
                    line,
                    "redefinition",
                    format!(
                        "{name:?} may collide with a fascicle of `mine … {prefix}` (line {mline})"
                    ),
                ));
            }
        }
        self.symbols.define(line, name, worlds, parents);
        if track {
            self.flow.define(line, name);
        }
    }

    fn command(&mut self, line: usize, cmd: &GqlCommand) {
        match cmd {
            GqlCommand::Tissues
            | GqlCommand::Lineage
            | GqlCommand::Cleaning
            | GqlCommand::Library(_) => {}
            GqlCommand::Save(dir) => {
                if let Some(&prev) = self.saved_paths.get(dir) {
                    self.push(Diagnostic::warning(
                        line,
                        "save-collision",
                        format!(
                            "`save {dir}` overwrites the snapshot saved at line {prev}; the earlier state is lost"
                        ),
                    ));
                } else {
                    self.saved_paths.insert(dir.clone(), line);
                }
            }
            GqlCommand::Dataset { name, tissue } => {
                if let TissueType::Custom(t) = tissue {
                    self.push(Diagnostic::warning(
                        line,
                        "param-suspect",
                        format!(
                            "unknown tissue {t:?} (system tissues: brain, breast, prostate, ovary, colon, pancreas, vascular, skin, kidney); the selection may be empty"
                        ),
                    ));
                }
                self.define(line, name, World::Enum.into(), &["SAGE"], true);
            }
            GqlCommand::Custom { name, .. } => {
                self.define(line, name, World::Enum.into(), &["SAGE"], true);
            }
            GqlCommand::Select { name, dataset, .. } => {
                self.read_as(line, dataset, World::Enum, "select");
                self.define(line, name, World::Enum.into(), &[dataset.as_str()], true);
            }
            GqlCommand::Project { name, dataset, .. } => {
                self.read_as(line, dataset, World::Enum, "project");
                self.define(line, name, World::Enum.into(), &[dataset.as_str()], true);
            }
            GqlCommand::MineWith { dataset, out, .. } => {
                self.read_as(line, dataset, World::Enum, "mine");
                if let Some(prev) = self.symbols.note_mine(line, out, dataset) {
                    self.push(Diagnostic::warning(
                        line,
                        "redefinition",
                        format!(
                            "`mine … {out}` already ran at line {prev}; identically-numbered fascicle names will conflict"
                        ),
                    ));
                }
            }
            GqlCommand::Fascicles => {
                if !self.symbols.open_world && !self.symbols.mined {
                    self.push(Diagnostic::warning(
                        line,
                        "mine-required",
                        "fascicles lists mined fascicles, but no `mine` precedes this command",
                    ));
                }
            }
            GqlCommand::Purity(f) => {
                if self.require_mine(line, "purity") {
                    self.read_as(line, f, World::Fascicle, "purity");
                }
            }
            GqlCommand::Groups(f) => {
                if self.require_mine(line, "groups") {
                    self.read_as(line, f, World::Fascicle, "groups");
                    // The engine forms control groups over the Cancer
                    // property, so the three derived names are static.
                    let in_f = format!("{f}CancerFasTbl");
                    let out_f = format!("{f}CanNotInFasTbl");
                    let contrast = format!("{f}NormalTable");
                    self.define(line, &in_f, World::Sumy.into(), &[f.as_str()], false);
                    let enum_sumy = WorldSet::of(World::Enum).with(World::Sumy);
                    self.define(line, &out_f, enum_sumy, &[f.as_str()], false);
                    self.define(line, &contrast, enum_sumy, &[f.as_str()], false);
                }
            }
            GqlCommand::Gap { name, sumy1, sumy2 } => {
                self.read_as(line, sumy1, World::Sumy, "gap");
                self.read_as(line, sumy2, World::Sumy, "gap");
                self.define(
                    line,
                    name,
                    World::Gap.into(),
                    &[sumy1.as_str(), sumy2.as_str()],
                    true,
                );
            }
            GqlCommand::TopGap { gap, x } => {
                self.read_as(line, gap, World::Gap, "topgap");
                self.define(
                    line,
                    &format!("{gap}_{x}"),
                    World::Gap.into(),
                    &[gap.as_str()],
                    false,
                );
            }
            GqlCommand::Compare {
                name,
                g1,
                g2,
                op,
                query,
            } => {
                self.read_as(line, g1, World::Gap, "compare");
                self.read_as(line, g2, World::Gap, "compare");
                if !query.applies_to(*op) {
                    let qnum = CompareQuery::ALL
                        .iter()
                        .position(|q| q == query)
                        .map_or(0, |i| i + 1);
                    self.push(Diagnostic::error(
                        line,
                        "query-domain",
                        format!(
                            "query #{qnum} needs both gap columns, which `difference` does not carry (use queries 1-5)"
                        ),
                    ));
                }
                self.define(
                    line,
                    name,
                    World::Gap.into(),
                    &[g1.as_str(), g2.as_str()],
                    false,
                );
            }
            GqlCommand::Show { kind, name, n } => {
                let (want, verb) = match kind {
                    ShowKind::Gap => (World::Gap, "show gap"),
                    ShowKind::Sumy => (World::Sumy, "show sumy"),
                };
                self.read_as(line, name, want, verb);
                if *n == 0 {
                    self.push(Diagnostic::warning(
                        line,
                        "param-suspect",
                        "show 0 rows shows nothing",
                    ));
                }
            }
            GqlCommand::Plot {
                dataset, fascicle, ..
            } => {
                self.read_as(line, dataset, World::Enum, "plot");
                if self.require_mine(line, "plot") {
                    self.read_as(line, fascicle, World::Fascicle, "plot");
                }
            }
            GqlCommand::TagFreq { dataset, .. } => {
                self.read_as(line, dataset, World::Enum, "tagfreq");
            }
            GqlCommand::Xprofiler(dataset) => {
                self.read_as(line, dataset, World::Enum, "xprofiler");
            }
            GqlCommand::Export { name, path } => {
                self.read_any(line, name, "export");
                self.flow.export(line, name);
                let p = std::path::Path::new(path);
                let escapes = p.is_absolute()
                    || p.components()
                        .any(|c| matches!(c, std::path::Component::ParentDir));
                if escapes {
                    self.push(Diagnostic::warning(
                        line,
                        "export-path",
                        format!("export path {path:?} escapes the working directory"),
                    ));
                }
            }
            GqlCommand::Comment { name, .. } => self.read_any(line, name, "comment"),
            GqlCommand::Delete { name, cascade } => {
                self.read_any(line, name, "delete");
                if let Some(d) = self.flow.mutated(line, name) {
                    self.push(d);
                }
                if *cascade {
                    for removed in self.symbols.remove_cascade(name) {
                        self.flow.forget(&removed);
                    }
                }
            }
            GqlCommand::Populate { name, from: None } => {
                // Re-materialization restores the table's own contents —
                // a read of the lineage, not a mutation hazard.
                self.read_any(line, name, "populate");
            }
            GqlCommand::Populate {
                name,
                from: Some((sumy, dataset)),
            } => {
                self.read_as(line, sumy, World::Sumy, "populate");
                self.read_as(line, dataset, World::Enum, "populate");
                self.define(
                    line,
                    name,
                    World::Enum.into(),
                    &[sumy.as_str(), dataset.as_str()],
                    true,
                );
            }
            GqlCommand::Load(dir) => {
                // Only meaningful when the script saves at all: a script
                // restoring externally-produced snapshots is fine, but one
                // that saves under some paths and loads a different one
                // has probably misspelled the path.
                if !self.saved_paths.is_empty() && !self.saved_paths.contains_key(dir) {
                    let saved: Vec<&str> = self.saved_paths.keys().map(|s| s.as_str()).collect();
                    self.push(Diagnostic::warning(
                        line,
                        "load-unsaved",
                        format!(
                            "`load {dir}` restores a path this script never saved (saved: {})",
                            saved.join(", ")
                        ),
                    ));
                }
                let lost = self.flow.replaced(line, "load");
                self.diags.extend(lost);
                self.symbols.enter_open_world();
            }
            // A `check` inside a script is itself a pure read; its
            // pipeline is validated when it runs.
            GqlCommand::Check(_) => {}
        }
    }
}

/// Analyze a whole script (the `gea-cli --check` and batch pre-flight
/// entry point).
pub fn check_script(text: &str) -> CheckReport {
    let mut a = Analyzer::for_script();
    for (i, line) in text.lines().enumerate() {
        a.check_line(i + 1, line);
    }
    a.finish()
}

/// Analyze a pipeline of already-parsed commands against a live session's
/// name population (the server `check` verb's entry point). Diagnostic
/// "lines" are 1-based positions in the pipeline.
pub fn check_pipeline(seed: &SymbolSeed, cmds: &[GqlCommand]) -> CheckReport {
    let mut a = Analyzer::for_session(seed);
    for (i, cmd) in cmds.iter().enumerate() {
        a.check_command(i + 1, cmd);
    }
    a.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(report: &CheckReport) -> Vec<(&'static str, usize, Severity)> {
        report
            .diagnostics
            .iter()
            .map(|d| (d.code, d.line, d.severity))
            .collect()
    }

    fn error_codes(report: &CheckReport) -> Vec<&'static str> {
        report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn clean_pipeline_has_no_findings() {
        let report = check_script(
            "# thesis case study shape\n\
             load-demo 42\n\
             dataset Eb brain\n\
             mine Eb f 50 3 6\n\
             purity f_1\n\
             groups f_1\n\
             gap g f_1CancerFasTbl f_1NormalTable\n\
             topgap g 10\n\
             show gap g_10 5\n\
             export g out.csv\n\
             quit\n",
        );
        assert!(
            report.diagnostics.is_empty(),
            "expected clean, got: {}",
            report.render()
        );
        assert!(report.is_clean());
        assert_eq!(report.commands, 10);
    }

    #[test]
    fn undefined_names_are_errors() {
        let report = check_script("load-demo 1\ngap g s1 s2\n");
        assert_eq!(
            error_codes(&report),
            vec!["undefined-name", "undefined-name"]
        );
        assert_eq!(report.diagnostics[0].line, 2);
        assert!(!report.is_clean());
    }

    #[test]
    fn near_miss_references_get_a_suggestion() {
        // `Brain` typo'd as `Brian` (distance 2): the undefined-name
        // error carries a help hint in both renderings.
        let report = check_script("load-demo 1\ndataset Brain brain\nexport Brian b.csv\n");
        assert_eq!(error_codes(&report), vec!["undefined-name"]);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "undefined-name")
            .unwrap();
        assert_eq!(d.help.as_deref(), Some("did you mean \"Brain\"?"));
        assert!(d.render().contains("\n  help: did you mean \"Brain\"?"));
        assert!(d
            .render_machine()
            .contains(r#""help":"did you mean \"Brain\"?""#));
        // World-filtered path: a typo'd gap name suggests the real GAP.
        let report = check_script(
            "load-demo 1\n\
             dataset E brain\n\
             mine E f 50 3 6\n\
             groups f_1\n\
             gap g f_1CancerFasTbl f_1NormalTable\n\
             topgap gg 5\n",
        );
        assert_eq!(error_codes(&report), vec!["undefined-name"]);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "undefined-name")
            .unwrap();
        assert_eq!(d.help.as_deref(), Some("did you mean \"g\"?"));
    }

    #[test]
    fn far_miss_references_get_no_suggestion() {
        let report = check_script("load-demo 1\ndataset E brain\nexport Nothing n.csv\n");
        assert_eq!(error_codes(&report), vec!["undefined-name"]);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "undefined-name")
            .unwrap();
        assert_eq!(d.help, None, "no in-world name within distance 2");
        assert!(!d.render().contains("help:"));
        assert!(!d.render_machine().contains("help"));
    }

    #[test]
    fn world_mismatches_are_errors() {
        // `gap` over an ENUM, `show sumy` of a GAP.
        let report = check_script(
            "load-demo 1\n\
             dataset E brain\n\
             dataset F lung2\n\
             gap g E E\n\
             show sumy g 5\n",
        );
        let errs = error_codes(&report);
        assert_eq!(
            errs,
            vec!["world-mismatch", "world-mismatch", "world-mismatch"]
        );
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("needs a SUMY") && d.message.contains("ENUM")));
        // Line 3's unknown tissue is only a warning.
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "param-suspect" && d.line == 3));
    }

    #[test]
    fn redefinition_is_an_error() {
        let report =
            check_script("load-demo 1\ndataset E brain\ndataset E breast\nexport E e.csv\n");
        assert_eq!(error_codes(&report), vec!["redefinition"]);
        assert_eq!(report.diagnostics[0].line, 3);
        assert!(report.diagnostics[0].message.contains("line 2"));
        // Redefining the root is also caught.
        let report = check_script("load-demo 1\ndataset SAGE brain\n");
        assert_eq!(error_codes(&report), vec!["redefinition"]);
    }

    #[test]
    fn mine_dependent_verbs_need_a_mine() {
        let report =
            check_script("load-demo 1\ndataset E brain\npurity f_1\ngroups f_1\nexport E e.csv\n");
        assert_eq!(error_codes(&report), vec!["mine-required", "mine-required"]);
        // After a mine, numbered outputs of its prefix resolve.
        let report = check_script(
            "load-demo 1\ndataset E brain\nmine E f 50 3 6\npurity f_1\npurity other_1\n",
        );
        assert_eq!(error_codes(&report), vec!["undefined-name"]);
        assert_eq!(report.diagnostics[0].line, 5);
    }

    #[test]
    fn dead_assignments_are_warnings() {
        let report =
            check_script("load-demo 1\ndataset E brain\ndataset F brain\nexport E e.csv\n");
        assert!(report.is_clean(), "dead assignment must stay a warning");
        assert_eq!(
            codes(&report),
            vec![("dead-assignment", 3, Severity::Warning)]
        );
        assert!(report.diagnostics[0].message.contains("\"F\""));
    }

    #[test]
    fn out_of_domain_parameters_are_errors() {
        let report = check_script(
            "load-demo 1\n\
             dataset E brain\n\
             mine E f 150 0 6\n\
             mine E g 50 3 0\n\
             mine E h 50 3 6\n\
             topgap q 0\n",
        );
        // The grammar refuses every out-of-domain value, one `parse`
        // error per line, as the engine's front ends do.
        assert_eq!(error_codes(&report), vec!["parse", "parse", "parse"]);
        assert_eq!(
            report.diagnostics[0].message,
            "parameter k_pct = 150 out of domain (integer 1..=100)"
        );
    }

    #[test]
    fn difference_rejects_two_column_queries() {
        let report = check_script(
            "load-demo 1\n\
             dataset E brain\n\
             mine E f 50 3 6\n\
             groups f_1\n\
             gap a f_1CancerFasTbl f_1NormalTable\n\
             gap b f_1CancerFasTbl f_1CanNotInFasTbl\n\
             compare bad a b difference 7\n\
             compare ok a b intersect 7\n\
             show gap bad 3\n\
             show gap ok 3\n",
        );
        assert_eq!(error_codes(&report), vec!["query-domain"]);
        assert_eq!(report.diagnostics[0].line, 7);
    }

    #[test]
    fn load_discards_and_opens_the_world() {
        let report = check_script(
            "load-demo 1\n\
             dataset E brain\n\
             load /tmp/saved\n\
             show gap anything 5\n\
             dataset E brain\n\
             export E e.csv\n",
        );
        // E discarded unread; after load, unknown names and redefinitions
        // are not statically decidable.
        assert!(report.is_clean());
        assert_eq!(
            codes(&report),
            vec![("discarded-by-load", 2, Severity::Warning)]
        );
    }

    #[test]
    fn mine_with_is_world_typed_and_domain_checked() {
        // The `with` form reads an ENUM like bare mine, and registers the
        // prefix so purity on its numbered outputs resolves.
        let report = check_script(
            "load-demo 1\n\
             dataset E brain\n\
             mine E f with isa seeds=4\n\
             purity f_1\n\
             export E e.csv\n",
        );
        assert!(report.is_clean(), "{report:?}");
        // Mining a SUMY world is a world-type error.
        let report = check_script(
            "load-demo 1\n\
             dataset E brain\n\
             mine E f 50 3 6\n\
             groups f_1\n\
             mine f_1CancerFasTbl g with simplex\n\
             export E e.csv\n",
        );
        assert_eq!(error_codes(&report), vec!["world-mismatch"]);
        // Out-of-domain values do not parse.
        let report = check_script(
            "load-demo 1\n\
             dataset E brain\n\
             mine E f with isa seeds=0\n\
             mine E g with simplex k=0 max_iters=0\n\
             export E e.csv\n",
        );
        assert_eq!(error_codes(&report), vec!["parse", "parse"]);
        // Reusing a prefix across backends still warns.
        let report = check_script(
            "load-demo 1\n\
             dataset E brain\n\
             mine E f 50 3 6\n\
             mine E f with isa\n\
             export E e.csv\n",
        );
        assert_eq!(codes(&report), vec![("redefinition", 4, Severity::Warning)]);
    }

    #[test]
    fn save_collisions_and_unsaved_loads_are_warnings() {
        // Two saves to one path: the first snapshot is clobbered.
        let report = check_script(
            "load-demo 1\n\
             dataset E brain\n\
             save /tmp/a\n\
             dataset F brain\n\
             save /tmp/a\n\
             export F f.csv\n\
             export E e.csv\n",
        );
        assert!(report.is_clean());
        assert_eq!(
            codes(&report),
            vec![("save-collision", 5, Severity::Warning)]
        );
        // Loading a path the script never saved (while it does save) is
        // probably a typo.
        let report = check_script(
            "load-demo 1\n\
             dataset E brain\n\
             export E e.csv\n\
             save /tmp/a\n\
             load /tmp/b\n",
        );
        assert!(report.is_clean());
        assert_eq!(codes(&report), vec![("load-unsaved", 5, Severity::Warning)]);
        // Save-then-load of the same path is the intended round trip.
        let report = check_script(
            "load-demo 1\n\
             dataset E brain\n\
             export E e.csv\n\
             save /tmp/a\n\
             load /tmp/a\n",
        );
        assert!(report.is_clean());
        assert!(codes(&report).is_empty(), "{report:?}");
    }

    #[test]
    fn export_then_delete_is_stale() {
        let report = check_script(
            "load-demo 1\n\
             dataset E brain\n\
             export E e.csv\n\
             delete E\n\
             export F /abs/f.csv\n",
        );
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "stale-export" && d.line == 4));
        // Absolute export path warns; the undefined F errs.
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "export-path" && d.line == 5));
        assert_eq!(error_codes(&report), vec!["undefined-name"]);
        // So does one that climbs out of the working directory.
        let report = check_script("load-demo 1\ndataset E brain\nexport E ../e.csv\n");
        assert!(report.is_clean());
        assert_eq!(codes(&report), vec![("export-path", 3, Severity::Warning)]);
    }

    #[test]
    fn cascade_delete_removes_descendants() {
        let report = check_script(
            "load-demo 1\n\
             dataset E brain\n\
             mine E f 50 3 6\n\
             groups f_1\n\
             gap g f_1CancerFasTbl f_1NormalTable\n\
             delete E --cascade\n\
             show gap g 5\n",
        );
        assert_eq!(error_codes(&report), vec!["undefined-name"]);
        assert_eq!(report.diagnostics.last().unwrap().line, 7);
    }

    #[test]
    fn no_session_and_unreachable_and_front_end() {
        let report = check_script("tissues\nstats\nquit\ntissues\ntissues\n");
        let errs = error_codes(&report);
        assert_eq!(errs, vec!["no-session", "front-end"]);
        // One unreachable warning, at the first dead command only.
        let unreachable: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "unreachable")
            .collect();
        assert_eq!(unreachable.len(), 1);
        assert_eq!(unreachable[0].line, 4);
    }

    #[test]
    fn parse_failures_are_line_anchored() {
        let report = check_script("load-demo 1\nbogus command here\nmine E\n");
        let errs = error_codes(&report);
        assert_eq!(errs, vec!["parse", "parse"]);
        assert_eq!(report.diagnostics[0].line, 2);
        assert_eq!(report.diagnostics[1].line, 3);
    }

    #[test]
    fn defining_over_a_mine_prefix_warns() {
        let report = check_script(
            "load-demo 1\n\
             dataset E brain\n\
             mine E f 50 3 6\n\
             groups f_1\n\
             gap f_9 f_1CancerFasTbl f_1NormalTable\n\
             show gap f_9 3\n",
        );
        assert!(report.is_clean());
        assert_eq!(codes(&report), vec![("redefinition", 5, Severity::Warning)]);
    }

    #[test]
    fn session_fragment_definitions_do_not_false_positive() {
        // `check dataset X brain ; mine X b 50 3 6` against a live
        // session: X is defined only inside the checked pipeline. It must
        // neither collide with anything nor be flagged dead — if the
        // pipeline ran, X would persist in the session for later use.
        let seed = SymbolSeed::default();
        let report = check_pipeline(
            &seed,
            &[
                GqlCommand::Dataset {
                    name: "X".into(),
                    tissue: TissueType::Brain,
                },
                GqlCommand::MineWith {
                    dataset: "X".into(),
                    out: "b".into(),
                    algo: "fascicles".into(),
                    params: vec![],
                },
            ],
        );
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.diagnostics.is_empty(), "{}", report.render());
        // A definition the fragment never reads is equally fine.
        let report = check_pipeline(
            &seed,
            &[GqlCommand::Dataset {
                name: "X".into(),
                tissue: TissueType::Brain,
            }],
        );
        assert!(report.diagnostics.is_empty(), "{}", report.render());
        // Redefinition *within* the fragment is still an error, anchored
        // at the first definition's pipeline position.
        let report = check_pipeline(
            &seed,
            &[
                GqlCommand::Dataset {
                    name: "X".into(),
                    tissue: TissueType::Brain,
                },
                GqlCommand::Dataset {
                    name: "X".into(),
                    tissue: TissueType::Breast,
                },
            ],
        );
        assert_eq!(error_codes(&report), vec!["redefinition"]);
        assert!(report.diagnostics[0].message.contains("line 1"));
        // Whole-script analysis keeps the dead-assignment flush.
        let script = check_script("load-demo 1\ndataset X brain\n");
        assert_eq!(
            codes(&script),
            vec![("dead-assignment", 2, Severity::Warning)]
        );
    }

    #[test]
    fn seeded_session_resolves_live_names() {
        use gea_sage::clean::CleaningConfig;
        use gea_sage::generate::{generate, GeneratorConfig};

        let (corpus, _) = generate(&GeneratorConfig::demo(42));
        let mut session =
            gea_core::session::GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
        session
            .create_tissue_dataset("Ebrain", &TissueType::Brain)
            .unwrap();

        let cmds = vec![GqlCommand::Xprofiler("Ebrain".into())];
        // Against the live session the reference resolves…
        let live = check_pipeline(&SymbolSeed::from_session(&session), &cmds);
        assert!(live.is_clean(), "{}", live.render());
        assert!(live.diagnostics.is_empty());
        // …against a fresh session it does not.
        let fresh = check_pipeline(&SymbolSeed::default(), &cmds);
        assert_eq!(error_codes(&fresh), vec!["undefined-name"]);
    }
}
