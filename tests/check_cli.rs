//! End-to-end tests of the static-analysis wiring in `gea-cli`:
//! `--check` linting (human and machine renderings), the batch pre-flight
//! gate (refuses ill-typed scripts, transparent for clean ones), and
//! line-anchored executor errors in batch mode.

use std::io::Write;
use std::path::Path;
use std::process::{Command, Output, Stdio};

fn gea_cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gea-cli"))
}

fn example(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/scripts")
        .join(name)
        .display()
        .to_string()
}

fn run_stdin(args: &[&str], input: &str) -> Output {
    let mut child = gea_cli()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gea-cli");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write script");
    child.wait_with_output().expect("gea-cli output")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

#[test]
fn check_flags_every_defect_class_in_the_fixture() {
    let out = gea_cli()
        .args(["--check", &example("ill_typed.gql")])
        .output()
        .expect("run --check");
    assert_eq!(out.status.code(), Some(1), "static errors must exit 1");
    let text = stdout(&out);
    for code in [
        "mine-required",
        "undefined-name",
        "world-mismatch",
        "redefinition",
        "parse",
        "dead-assignment",
    ] {
        assert!(
            text.contains(&format!("[{code}]")),
            "missing {code} in:\n{text}"
        );
    }
    // Diagnostics are anchored to 1-based script lines.
    assert!(text.contains("line 13: error[mine-required]"), "{text}");
    // An out-of-domain `mine` does not parse, whatever its spelling.
    assert!(
        text.contains(
            "line 25: error[parse]: parameter k_pct = 150 out of domain (integer 1..=100)"
        ),
        "{text}"
    );
    assert!(!text.contains("param-domain"), "{text}");
    assert!(text.contains("line 28: warning[dead-assignment]"), "{text}");
}

/// The analyzer's contract: an `error` means the engine refuses the line.
/// Every line `--check` flags as an error in the ill-typed fixture,
/// executed after the fixture's error-free lines before it (the other
/// flagged lines blanked, so line numbers hold), answers `ERR`.
#[test]
fn every_checker_error_in_the_fixture_is_refused_when_run() {
    let path = example("ill_typed.gql");
    let out = gea_cli()
        .args(["--check", &path, "--machine"])
        .output()
        .expect("run --check --machine");
    let flagged: std::collections::BTreeSet<usize> = stdout(&out)
        .lines()
        .filter(|l| l.contains(r#""severity":"error""#))
        .map(|l| {
            let digits: String = l["{\"line\":".len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().expect("a line number")
        })
        .collect();
    assert!(flagged.len() >= 5, "{flagged:?}");
    let text = std::fs::read_to_string(&path).expect("read fixture");
    let lines: Vec<&str> = text.lines().collect();
    for &target in &flagged {
        let script: String = lines[..target]
            .iter()
            .enumerate()
            .map(|(i, line)| {
                let n = i + 1;
                if n != target && flagged.contains(&n) {
                    "\n".to_string()
                } else {
                    format!("{line}\n")
                }
            })
            .collect();
        let run = run_stdin(&["--no-preflight"], &script);
        assert_eq!(
            run.status.code(),
            Some(1),
            "line {target}: {}",
            stdout(&run)
        );
        assert!(
            stderr(&run).contains(&format!("ERR line {target}:")),
            "line {target} was flagged but ran: {}",
            stderr(&run)
        );
    }
}

#[test]
fn check_passes_the_case_study() {
    let out = gea_cli()
        .args(["--check", &example("brain_case_study.gql")])
        .output()
        .expect("run --check");
    assert!(out.status.success(), "clean script must exit 0");
    assert!(stdout(&out).contains("clean"), "{}", stdout(&out));
}

#[test]
fn machine_rendering_is_json_lines() {
    let out = gea_cli()
        .args(["--check", &example("ill_typed.gql"), "--machine"])
        .output()
        .expect("run --check --machine");
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(!text.trim().is_empty());
    for line in text.lines() {
        assert!(
            line.starts_with(r#"{"line":"#) && line.ends_with('}'),
            "not a JSON object line: {line}"
        );
        assert!(line.contains(r#""severity":"#), "{line}");
        assert!(line.contains(r#""code":"#), "{line}");
        assert!(line.contains(r#""message":"#), "{line}");
    }
}

#[test]
fn preflight_refuses_static_errors_and_no_preflight_overrides() {
    // Gated: refused before any command executes.
    let out = gea_cli()
        .args(["--script", &example("ill_typed.gql")])
        .output()
        .expect("run gated");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        out.stdout.is_empty(),
        "nothing may execute: {}",
        stdout(&out)
    );
    let err = stderr(&out);
    assert!(err.contains("preflight"), "{err}");
    assert!(err.contains("error[world-mismatch]"), "{err}");

    // Ungated: runs until the first runtime failure, anchored to its line.
    let out = gea_cli()
        .args(["--script", &example("ill_typed.gql"), "--no-preflight"])
        .output()
        .expect("run ungated");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("ERR line 13:"),
        "runtime errors carry script lines: {}",
        stderr(&out)
    );
    assert!(!out.stdout.is_empty(), "lines before the failure ran");
}

#[test]
fn gate_is_transparent_for_clean_scripts() {
    let script = "load-demo 42\ndataset Eb brain\ntissues\nlineage\n";
    let gated = run_stdin(&[], script);
    let ungated = run_stdin(&["--no-preflight"], script);
    assert!(gated.status.success(), "{}", stderr(&gated));
    assert!(ungated.status.success(), "{}", stderr(&ungated));
    assert_eq!(
        stdout(&gated),
        stdout(&ungated),
        "the pre-flight gate must not change a clean script's output"
    );
    assert!(stdout(&gated).contains("Eb"));
}

#[test]
fn case_study_executes_byte_identically_with_and_without_the_gate() {
    let path = example("brain_case_study.gql");
    let gated = gea_cli()
        .args(["--script", &path])
        .output()
        .expect("run gated");
    let ungated = gea_cli()
        .args(["--script", &path, "--no-preflight"])
        .output()
        .expect("run ungated");
    assert!(gated.status.success(), "{}", stderr(&gated));
    assert!(ungated.status.success(), "{}", stderr(&ungated));
    assert_eq!(gated.stdout, ungated.stdout);
    // The full pipeline really ran: mined fascicle, control-group gaps,
    // a hand-invoked populate, and lineage provenance all reported.
    let text = stdout(&gated);
    for needle in ["f_1", "g1_5", "(populate)", "raw union"] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}

#[test]
fn batch_errors_without_static_cause_still_carry_lines() {
    // Statically clean (checker cannot know mine yields too few records
    // at k% = 100 with a huge min), but fails at runtime: the error is
    // anchored to the failing script line.
    let script = "load-demo 42\ndataset Eb brain\nmine Eb f 100 19 6\npurity f_1\n";
    let check = run_stdin(&["--check", "/dev/stdin"], script);
    assert!(check.status.success(), "{}", stdout(&check));
    let out = run_stdin(&[], script);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("ERR line 4:"),
        "expected a line-4 runtime error: {}",
        stderr(&out)
    );
}

/// The rows a command's output holds, measured on the session after it
/// ran and on its reply: an installed ENUM's libraries, an installed
/// SUMY's or GAP's tags, or the entries of a listing (libraries, tissues,
/// clusters, lineage nodes, tables saved). `groups` installs three SUMYs
/// and measures each.
fn output_rows(
    session: &gea::core::session::GeaSession,
    cmd: &gea::check::gql::GqlCommand,
    reply: &str,
) -> Vec<u64> {
    use gea::check::gql::GqlCommand as G;
    let word = |i: usize| -> u64 {
        reply
            .split_whitespace()
            .nth(i)
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no count at word {i} of {reply:?}"))
    };
    let libraries = |name: &str| session.enum_libraries(name).map_or(0, |l| l.len() as u64);
    let tags = |name: &str| session.sumy_len(name).map_or(0, |n| n as u64);
    let lines = |keep: &dyn Fn(&str) -> bool| reply.lines().filter(|l| keep(l)).count() as u64;
    let n = match cmd {
        // `<name>: N libraries …`, `N fascicle(s) …`, `<name>: N tags …`,
        // `<name>: N of M libraries …`, `exported N rows …`, `saved N
        // table(s) …`, `checked N command(s) …`, `N tags tested; …`,
        // `restored session from <dir>: N table(s) …`.
        G::Dataset { .. }
        | G::Custom { .. }
        | G::Select { .. }
        | G::Gap { .. }
        | G::Compare { .. }
        | G::Populate { from: Some(_), .. }
        | G::Export { .. }
        | G::Save(_)
        | G::Check(_) => word(1),
        G::MineWith { .. } | G::Xprofiler(_) => word(0),
        G::Load(_) => word(4),
        G::Project { name, .. } | G::Populate { name, from: None } | G::Purity(name) => {
            libraries(name)
        }
        G::Groups(f) => {
            return ["CancerFasTbl", "CanNotInFasTbl", "NormalTable"]
                .map(|suffix| tags(&format!("{f}{suffix}")))
                .to_vec()
        }
        // Installs nothing and lists nothing.
        G::Delete { .. } => 0,
        // A header line, then one line per row.
        G::TopGap { .. } => lines(&|_| true) - 1,
        // Two header lines and a `... (N more rows)` trailer around the rows.
        G::Show { .. } => lines(&|l| !l.starts_with("... (")) - 2,
        // One line per fascicle, naming its members.
        G::Fascicles => lines(&|l| l.contains(": [")),
        // One indented line per library.
        G::Plot { .. } | G::TagFreq { .. } => lines(&|l| l.starts_with("  ")),
        G::Library(_) => lines(&|l| l.contains(" (id ")),
        G::Tissues | G::Comment { .. } | G::Cleaning => lines(&|_| true),
        // One line per edge of the tree: count the nodes once.
        G::Lineage => {
            let mut nodes: Vec<&str> = reply.lines().map(str::trim).collect();
            nodes.sort();
            nodes.dedup();
            nodes.len() as u64
        }
    };
    vec![n]
}

/// Every command of every example script that runs, plus a script that
/// runs the verbs the examples leave out, a `mine` at batch 1 that mines
/// eight fascicles on demo seed 42, and a script whose `custom` and
/// `select` lines repeat a library and name one no corpus holds: the rows
/// its output holds ([`output_rows`]) fall inside the interval the cost
/// model predicts for it, both from the script alone (what `--check
/// --cost` prints) and from the live session (what the server's `check`
/// and `--max-cost` gate use).
#[test]
fn mined_counts_fall_inside_the_predicted_rows() {
    use gea::check::cost::{cost_pipeline, cost_script, CostModel, CostSeed};
    use gea::check::gql::{self, GqlCommand, Request, SessionCtl};
    use gea::core::session::GeaSession;
    use gea::sage::clean::CleaningConfig;
    use gea::sage::generate::{generate, GeneratorConfig};

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scripts");
    let mut scripts: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("examples/scripts")
        .map(|entry| entry.expect("script entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "gql"))
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("read script");
            let name = path.file_name().expect("file name").to_string_lossy();
            (name.into_owned(), text)
        })
        .collect();
    scripts.sort();
    scripts.push((
        "other verbs".to_string(),
        [
            "load-demo 42",
            "dataset E brain",
            "mine E f 50 3 6",
            "project Q E AAAAGCCGTT AAACTGTACA",
            "plot E AAAAGCCGTT f_1",
            "tagfreq E AAAAGCCGTT",
            "library SAGE_brain_C00",
            "xprofiler E",
            "check dataset X brain ; mine X b 50 3 6 ; purity b_1",
            "populate P f_1 E",
            "delete P",
            "populate P",
            "export P p.csv",
            "save sv",
            "load sv",
            "show sumy f_1 2000",
            "delete E --cascade",
        ]
        .join("\n"),
    ));
    scripts.push((
        "batch 1".to_string(),
        "load-demo 42\ndataset Ebrain brain\nmine Ebrain g 50 2 1\n".to_string(),
    ));
    scripts.push((
        "data sets".to_string(),
        [
            "load-demo 42",
            "dataset Ebrain brain",
            "custom C SAGE_brain_C00 SAGE_brain_C01 SAGE_breast_C02",
            "custom D SAGE_brain_C00 SAGE_brain_C00 ghost",
            "select S Ebrain SAGE_brain_C00 SAGE_breast_C02 ghost",
            "select T C SAGE_breast_C02",
            "select U SAGE SAGE_brain_C01",
        ]
        .join("\n"),
    ));

    // Files the scripts write land here, not in the working directory.
    let out = std::env::temp_dir().join(format!("gea_check_cli_rows_{}", std::process::id()));
    std::fs::create_dir_all(&out).expect("temporary directory");
    let here = |path: &str| out.join(path).display().to_string();
    let model = CostModel::default_coefficients();
    let mut checked: Vec<&'static str> = Vec::new();
    let mut refused: Vec<(&str, usize, &'static str)> = Vec::new();
    for (name, text) in &scripts {
        let predicted = cost_script(&model, &CostSeed::script_default(), text);
        let mut session = None;
        for (i, line) in text.lines().enumerate() {
            let mut cmd = match gql::parse(line.trim()) {
                Ok(Some(Request::Session(SessionCtl::OpenDemo { seed, .. }))) => {
                    let (corpus, _) = generate(&GeneratorConfig::demo(seed));
                    session = Some(GeaSession::open(corpus, &CleaningConfig::default()).unwrap());
                    continue;
                }
                Ok(Some(Request::Gql(cmd))) => cmd,
                _ => continue,
            };
            match &mut cmd {
                GqlCommand::Export { path, .. }
                | GqlCommand::Save(path)
                | GqlCommand::Load(path) => *path = here(path),
                _ => {}
            }
            let session = session.as_mut().expect("load-demo comes first");
            let live = cost_pipeline(
                &model,
                &CostSeed::from_session(session),
                std::slice::from_ref(&cmd),
            );
            let reply = match gea::server::engine::execute(session, &cmd) {
                Ok(reply) => reply,
                Err(err) => {
                    refused.push((name, i + 1, err.code));
                    continue;
                }
            };
            let script_rows = predicted
                .per_command
                .iter()
                .find(|c| c.index == i + 1)
                .expect("a costed command")
                .rows;
            for n in output_rows(session, &cmd, &reply) {
                for rows in [script_rows, live.per_command[0].rows] {
                    assert!(
                        rows.lo <= n && n <= rows.hi,
                        "{name} line {}: {line:?} output {n} rows, predicted {}",
                        i + 1,
                        rows.render()
                    );
                }
            }
            checked.push(cmd.verb());
        }
    }
    let _ = std::fs::remove_dir_all(&out);
    // Only the defects the two broken example scripts plant are refused;
    // every other line ran and had its rows checked.
    assert_eq!(
        refused,
        [
            ("fix_dirty.gql", 15, "ENOTFOUND"),
            ("fix_dirty.gql", 24, "ENOTFOUND"),
            ("fix_dirty.gql", 25, "ENOTFOUND"),
            ("ill_typed.gql", 13, "ENOTFOUND"),
            ("ill_typed.gql", 16, "ENOTFOUND"),
            ("ill_typed.gql", 19, "ENOTFOUND"),
            ("ill_typed.gql", 22, "ECONFLICT"),
        ]
    );
    // The 42 GQL lines of the example scripts, less the seven refusals
    // and the `mine` at k% = 150, which does not parse; then 16 + 2 + 6
    // for "other verbs", "batch 1" and "data sets".
    assert_eq!(checked.len(), 42 - 7 - 1 + 16 + 2 + 6, "{checked:?}");
    // Every algebra verb ran at least once.
    checked.sort();
    checked.dedup();
    assert_eq!(checked.len(), 26, "{checked:?}");
}
