//! The GEA command interpreter — a terminal front-end standing in for the
//! thesis's Swing GUI.
//!
//! Since the serving layer landed, the interpreter is a thin binding of
//! the shared GQL grammar ([`gea_server::gql`]) and executor
//! ([`gea_server::engine`]) to a single in-process session: the same
//! parser and formatting drive the REPL, batch scripts, and the TCP wire
//! protocol, so a transcript that works here works against `gea-server`
//! verbatim — and a `save` after it writes the same bytes, because a
//! command reaches the session one way from every front end
//! ([`gea_server::optexec::execute`]: `gea-opt`'s single-command rewrite
//! if one matches, else the engine). Errors come back as
//! `<CODE> <message>` strings matching the wire protocol's `ERR` line
//! (`EPARSE bad seed: …`, `ENOTFOUND no GAP table named "g1"`, …).
//!
//! Run it interactively with `cargo run --release --bin gea-cli`.

use gea_core::session::GeaSession;
use gea_sage::clean::CleaningConfig;
use gea_sage::generate::{generate, GeneratorConfig};
use gea_server::gql::{self, Request, SessionCtl};
use gea_server::optexec;

/// The interpreter state: an optional open session.
#[derive(Default)]
pub struct Cli {
    session: Option<GeaSession>,
}

impl Cli {
    /// Create an interpreter with no session.
    pub fn new() -> Cli {
        Cli::default()
    }

    fn session(&mut self) -> Result<&mut GeaSession, String> {
        self.session
            .as_mut()
            .ok_or_else(|| "ENOSESSION no session open; run `load-demo <seed>` first".to_string())
    }

    fn open(&mut self, mut session: GeaSession, loaded_from: Option<&str>) -> String {
        // Mine/populate/aggregate route through the sharded executor
        // (gea-exec) with the session default of available parallelism;
        // GEA_THREADS=N overrides it (1 forces the serial path — results
        // are byte-identical either way).
        if let Some(n) = std::env::var("GEA_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            session.set_exec_config(gea_core::session::ExecConfig::with_threads(n));
        }
        let report = session.cleaning_report().clone();
        let libs = session.source().n_libraries();
        self.session = Some(session);
        let what = match loaded_from {
            Some(dir) => format!("loaded {dir}"),
            None => "session open".to_string(),
        };
        format!(
            "{what}: {} -> {} tags after cleaning, {} libraries",
            report.raw_union_tags, report.kept_tags, libs
        )
    }

    /// Execute one command line, returning the text to display. `Ok(None)`
    /// means quit; `Err` carries a `<CODE> <message>` string matching the
    /// wire protocol's `ERR` framing.
    pub fn execute(&mut self, line: &str) -> Result<Option<String>, String> {
        match gql::parse(line) {
            Ok(None) => Ok(Some(String::new())),
            Ok(Some(req)) => self.run(req),
            Err(e) => Err(format!("EPARSE {e}")),
        }
    }

    fn run(&mut self, req: Request) -> Result<Option<String>, String> {
        let out = match req {
            Request::Help => gql::HELP.to_string(),
            Request::Quit => return Ok(None),
            Request::Ping => "pong".to_string(),
            Request::Stats | Request::Shutdown => {
                return Err(format!(
                    "EUNKNOWN {} is a server command; connect with gea-client",
                    req.verb()
                ));
            }
            Request::GenCorpus { seed, dir } => {
                let (corpus, _) = generate(&GeneratorConfig::demo(seed));
                gea_sage::io::write_corpus_dir(&corpus, std::path::Path::new(&dir))
                    .map_err(|e| format!("EIO {e}"))?;
                format!("wrote {} libraries to {dir}", corpus.len())
            }
            Request::Session(SessionCtl::OpenDemo { seed, .. }) => {
                let (corpus, _) = generate(&GeneratorConfig::demo(seed));
                let session = GeaSession::open(corpus, &CleaningConfig::default())
                    .map_err(|e| format!("EIO {e}"))?;
                self.open(session, None)
            }
            Request::Session(SessionCtl::OpenDir { dir, .. }) => {
                let corpus = gea_sage::io::read_corpus_dir(std::path::Path::new(&dir))
                    .map_err(|e| format!("EIO {e}"))?;
                let session = GeaSession::open(corpus, &CleaningConfig::default())
                    .map_err(|e| format!("EIO {e}"))?;
                self.open(session, Some(&dir))
            }
            Request::Session(_) => {
                return Err(
                    "EUNKNOWN the REPL holds a single session; named shared sessions \
                     are served by gea-server"
                        .to_string(),
                );
            }
            Request::Gql(cmd) => optexec::execute(self.session()?, &cmd)
                .map_err(|e| format!("{} {}", e.code, e.message))?,
        };
        Ok(Some(out))
    }

    /// Execute a whole script in batch mode: each line runs exactly as
    /// [`Cli::execute`] runs it, blank and `#` lines are skipped, and the
    /// first error (or `quit`) halts. Returns `(1-based source line,
    /// outcome)` pairs in source order; on a halt the last entry carries
    /// the error.
    pub fn run_script(&mut self, text: &str) -> Vec<(usize, Result<String, String>)> {
        let mut out = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.starts_with('#') {
                continue;
            }
            let outcome = match gql::parse(line) {
                Ok(None) => continue,
                Ok(Some(req)) => self.run(req),
                Err(e) => Err(format!("EPARSE {e}")),
            };
            match outcome {
                Ok(Some(reply)) => out.push((idx + 1, Ok(reply))),
                Ok(None) => break,
                Err(e) => {
                    out.push((idx + 1, Err(e)));
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cli: &mut Cli, cmd: &str) -> String {
        cli.execute(cmd)
            .unwrap_or_else(|e| panic!("command {cmd:?} failed: {e}"))
            .expect("not quit")
    }

    /// Mine with a k sweep (as a user would) until a fascicle appears, then
    /// return the first fascicle's name.
    fn mine_first_fascicle(cli: &mut Cli, dataset: &str) -> String {
        for pct in [60, 55, 50, 45, 40] {
            run(cli, &format!("mine {dataset} f{pct} {pct} 3 6"));
            let listing = run(cli, "fascicles");
            if !listing.contains("no fascicles") {
                return listing
                    .lines()
                    .next()
                    .and_then(|l| l.split(':').next())
                    .expect("a fascicle")
                    .to_string();
            }
        }
        panic!("no fascicles found in sweep");
    }

    #[test]
    fn full_case_study_via_commands() {
        let mut cli = Cli::new();
        assert!(cli.execute("tissues").is_err(), "needs a session");
        let out = run(&mut cli, "load-demo 42");
        assert!(out.contains("session open"));
        assert!(run(&mut cli, "tissues").contains("brain"));
        let out = run(&mut cli, "dataset Ebrain brain");
        assert!(out.contains("libraries"));
        let fascicle = mine_first_fascicle(&mut cli, "Ebrain");
        let purity = run(&mut cli, &format!("purity {fascicle}"));
        if purity.contains("pure: cancer") {
            let groups = run(&mut cli, &format!("groups {fascicle}"));
            assert!(groups.contains("CancerFasTbl"));
            run(
                &mut cli,
                &format!("gap g1 {fascicle}CancerFasTbl {fascicle}NormalTable"),
            );
            let top = run(&mut cli, "topgap g1 5");
            assert!(top.contains("g1_5"));
            let shown = run(&mut cli, "show gap g1 3");
            assert!(shown.contains("TagName"));
        }
        assert!(run(&mut cli, "lineage").contains("Ebrain"));
        assert!(run(&mut cli, "cleaning").contains("raw union"));
    }

    #[test]
    fn searches_and_errors() {
        let mut cli = Cli::new();
        run(&mut cli, "load-demo 42");
        let lib = run(&mut cli, "library 0");
        assert!(lib.contains("tissue: brain"));
        let by_name_line = lib.lines().next().unwrap();
        let name = by_name_line.split_whitespace().next().unwrap();
        assert!(run(&mut cli, &format!("library {name}")).contains("unique tags"));
        assert!(cli.execute("library nope").is_err());
        assert!(cli.execute("tagfreq SAGE NOTATAG").is_err());
        assert!(cli.execute("bogus").is_err());
        assert!(cli.execute("mine").is_err());
        // Quit returns None.
        assert!(cli.execute("quit").unwrap().is_none());
    }

    #[test]
    fn errors_carry_wire_protocol_codes() {
        let mut cli = Cli::new();
        let err = cli.execute("tissues").unwrap_err();
        assert!(err.starts_with("ENOSESSION "), "{err}");
        let err = cli.execute("bogus").unwrap_err();
        assert!(err.starts_with("EPARSE "), "{err}");
        run(&mut cli, "load-demo 42");
        let err = cli.execute("gap g missing1 missing2").unwrap_err();
        assert!(err.starts_with("ENOTFOUND "), "{err}");
        run(&mut cli, "dataset Eb brain");
        let err = cli.execute("dataset Eb brain").unwrap_err();
        assert!(err.starts_with("ECONFLICT "), "{err}");
        let err = cli.execute("stats").unwrap_err();
        assert!(err.starts_with("EUNKNOWN "), "{err}");
    }

    #[test]
    fn select_and_project_via_commands() {
        let mut cli = Cli::new();
        run(&mut cli, "load-demo 42");
        run(&mut cli, "dataset Eb brain");
        let lib = run(&mut cli, "library 0");
        let name = lib
            .lines()
            .next()
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .to_string();
        let out = run(&mut cli, &format!("custom C {name}"));
        assert!(out.contains("1 libraries"));
        let out = run(&mut cli, &format!("select S Eb {name}"));
        assert!(out.contains("1 of"), "{out}");
        assert!(run(&mut cli, "lineage").contains('S'));
    }

    #[test]
    fn compare_command_parses_queries() {
        let mut cli = Cli::new();
        run(&mut cli, "load-demo 42");
        run(&mut cli, "dataset Eb brain");
        let fascicle = mine_first_fascicle(&mut cli, "Eb");
        let purity = run(&mut cli, &format!("purity {fascicle}"));
        if purity.contains("pure: cancer") {
            run(&mut cli, &format!("groups {fascicle}"));
            run(
                &mut cli,
                &format!("gap ga {fascicle}CancerFasTbl {fascicle}NormalTable"),
            );
            run(
                &mut cli,
                &format!("gap gb {fascicle}CancerFasTbl {fascicle}CanNotInFasTbl"),
            );
            let out = run(&mut cli, "compare cmp ga gb intersect 2");
            assert!(out.contains("lower expression values"));
            assert!(cli.execute("compare x ga gb difference 7").is_err());
            assert!(cli.execute("compare y ga gb intersect 99").is_err());
        }
    }

    #[test]
    fn export_writes_csv() {
        let mut cli = Cli::new();
        run(&mut cli, "load-demo 42");
        run(&mut cli, "dataset Eb brain");
        let fascicle = mine_first_fascicle(&mut cli, "Eb");
        let path = std::env::temp_dir().join(format!("gea_cli_{}.csv", std::process::id()));
        let out = run(&mut cli, &format!("export {fascicle} {}", path.display()));
        assert!(out.contains("exported"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("TagName,TagNo"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn corpus_directory_roundtrip_via_commands() {
        let mut cli = Cli::new();
        let dir = std::env::temp_dir().join(format!("gea_cli_corpus_{}", std::process::id()));
        let out = run(&mut cli, &format!("gen-corpus 42 {}", dir.display()));
        assert!(out.contains("wrote 21 libraries"));
        let out = run(&mut cli, &format!("load-dir {}", dir.display()));
        assert!(out.contains("21 libraries"));
        // The reloaded session is fully analyzable.
        assert!(run(&mut cli, "tissues").contains("brain"));
        run(&mut cli, "dataset Eb brain");
        let out = run(&mut cli, "xprofiler Eb");
        assert!(out.contains("significant at alpha"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_and_load_roundtrip_via_commands() {
        let mut cli = Cli::new();
        run(&mut cli, "load-demo 42");
        run(&mut cli, "dataset Eb brain");
        mine_first_fascicle(&mut cli, "Eb");
        let dir = std::env::temp_dir().join(format!("gea_cli_save_{}", std::process::id()));
        let out = run(&mut cli, &format!("save {}", dir.display()));
        assert!(out.contains("saved"));
        let out = run(&mut cli, &format!("load {}", dir.display()));
        assert!(out.contains("operation history"));
        assert!(out.contains("Eb"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_halts_at_the_first_error_with_its_source_line() {
        let script = "load-demo 42\n\
             dataset Eb brain\n\
             gap g missing1 missing2\n\
             tissues\n";
        let mut cli = Cli::new();
        let out = cli.run_script(script);
        assert_eq!(out.len(), 3, "{out:?}");
        let (line, last) = out.last().unwrap();
        assert_eq!(*line, 3);
        let err = last.as_ref().unwrap_err();
        assert!(err.starts_with("ENOTFOUND"), "{err}");
    }

    #[test]
    fn run_script_without_a_session_reports_enosession() {
        let mut cli = Cli::new();
        let out = cli.run_script("tissues\n");
        assert_eq!(out.len(), 1);
        assert!(out[0].1.as_ref().unwrap_err().starts_with("ENOSESSION"));
    }

    #[test]
    fn interactive_rewrites_preserve_single_command_replies() {
        // Ground truth: the literal engine on a session of its own.
        let mut plain = crate::audit::open_session(42, 1, 1);
        let mut literal = |line: &str| {
            gea_server::engine::execute(&mut plain, &crate::audit::parse_lines(&[line])[0])
                .map(Some)
                .map_err(|e| format!("{} {}", e.code, e.message))
        };
        let mut cli = Cli::new();
        run(&mut cli, "load-demo 42");
        // Self-difference succeeds; self-union errors (duplicate qualified
        // columns) — byte-identical replies either way.
        for line in [
            "dataset Eb brain",
            "mine Eb f 50 3 6",
            "groups f_1",
            "gap ga f_1CancerFasTbl f_1NormalTable",
            "compare cd ga ga difference 4",
            "compare cu ga ga union 2",
            "lineage",
        ] {
            assert_eq!(literal(line), cli.execute(line), "{line}");
        }
    }

    #[test]
    fn help_covers_every_command() {
        let mut cli = Cli::new();
        let help = run(&mut cli, "help");
        for spec in gql::VERBS {
            assert!(help.contains(spec.name), "help missing {}", spec.name);
        }
    }
}
