//! Interactive GEA shell — `cargo run --release --bin gea-cli`.
//!
//! Three modes over the same interpreter:
//!
//! * **interactive** (stdin is a terminal): a `gea> ` prompt, errors
//!   printed and the loop continues;
//! * **piped** (`echo "..." | gea-cli`): no banner, no prompt;
//! * **script** (`gea-cli --script analysis.gql`): lines read from a file.
//!
//! All modes frame replies like the wire protocol — `OK` then the payload,
//! or `ERR <CODE> <message>` on stderr — so a transcript is directly
//! comparable with a `gea-client` session. In the non-interactive modes
//! the first error stops execution with a non-zero exit (reported with its
//! `line N:` position), making scripts safe to automate; `#`-prefixed
//! lines are comments.
//!
//! Static analysis (the `gea-check` crate) is wired in twice:
//!
//! * `gea-cli --check file.gql` lints a script without running it —
//!   parsing (every parameter domain included), world-typing, dataflow
//!   and query domains — exiting 1 if any error-severity diagnostic
//!   fires (`--machine` emits JSON lines). `--cost` appends the abstract
//!   cost interpretation (predicted row intervals and cost units per
//!   command); `--fix` mechanically applies the analyzer's suggestions
//!   (nearest-name replacements) to fixpoint, rewriting the file in
//!   place, and comments out error lines it cannot repair;
//! * both batch modes pre-flight the whole script with the same analyzer
//!   and refuse to execute one with static errors; `--no-preflight`
//!   skips the gate. A clean script's output is byte-identical with and
//!   without the gate — the analyzer never touches a session.
//!
//! Every mode runs a line the way `gea-server` runs a request — parse,
//! `gea-opt`'s single-command rewrite if one matches, else the engine —
//! so a script saves the same bytes here as over the wire (DESIGN.md,
//! "Optimizer note").

use std::io::{self, BufRead, IsTerminal, Read, Write};

use gea::cli::Cli;

fn usage() -> ! {
    eprintln!(
        "usage: gea-cli [--script file.gql] [--check file.gql [--machine] [--cost] [--fix]] \
         [--no-preflight]"
    );
    std::process::exit(2);
}

fn read_file(path: &str) -> io::Result<String> {
    std::fs::read_to_string(path).map_err(|e| io::Error::new(e.kind(), format!("open {path}: {e}")))
}

fn main() -> io::Result<()> {
    let mut script: Option<String> = None;
    let mut check: Option<String> = None;
    let mut machine = false;
    let mut cost = false;
    let mut fix = false;
    let mut preflight = true;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--script" => match args.next() {
                Some(path) => script = Some(path),
                None => usage(),
            },
            "--check" => match args.next() {
                Some(path) => check = Some(path),
                None => usage(),
            },
            "--machine" => machine = true,
            "--cost" => cost = true,
            "--fix" => fix = true,
            "--no-preflight" => preflight = false,
            _ => usage(),
        }
    }

    if let Some(path) = check {
        let mut text = read_file(&path)?;
        let report = if fix {
            let outcome = gea::check::fix_script(&text);
            if outcome.changed {
                std::fs::write(&path, &outcome.text)?;
                for applied in &outcome.applied {
                    eprintln!("fix: {applied}");
                }
                eprintln!("fix: rewrote {path} ({} analyzer rounds)", outcome.rounds);
            } else {
                eprintln!("fix: {path} is already clean; file untouched");
            }
            text = outcome.text;
            outcome.report
        } else {
            gea::check::check_script(&text)
        };
        if machine {
            let lines = report.render_machine();
            if !lines.is_empty() {
                println!("{lines}");
            }
        } else {
            println!("{}", report.render());
        }
        if cost && report.is_clean() {
            let model = gea::check::CostModel::default_coefficients();
            let seed = gea::check::CostSeed::script_default();
            println!("{}", gea::check::cost_script(&model, &seed, &text).render());
        }
        std::process::exit(if report.is_clean() { 0 } else { 1 });
    }
    if let Some(path) = script {
        return batch(&read_file(&path)?, preflight);
    }
    if !io::stdin().is_terminal() {
        let mut text = String::new();
        io::stdin().lock().read_to_string(&mut text)?;
        return batch(&text, preflight);
    }
    interactive()
}

/// Run a script until EOF or the first error; errors exit non-zero (with
/// their 1-based script line) so shell pipelines and CI notice. Unless
/// disabled, the static analyzer gates execution first: a script with
/// static errors is refused before any command runs.
fn batch(text: &str, preflight: bool) -> io::Result<()> {
    if preflight {
        let report = gea::check::check_script(text);
        if !report.is_clean() {
            eprintln!("{}", report.render());
            eprintln!("preflight: static errors; rerun with --no-preflight to execute anyway");
            std::process::exit(1);
        }
    }
    let mut cli = Cli::new();
    for (line_no, outcome) in cli.run_script(text) {
        match outcome {
            Ok(output) => print_ok(&output),
            Err(e) => {
                eprintln!("ERR line {line_no}: {e}");
                std::process::exit(1);
            }
        }
    }
    Ok(())
}

fn interactive() -> io::Result<()> {
    let mut cli = Cli::new();
    let stdin = io::stdin();
    let mut stdout = io::stdout();
    println!("GEA — Gene Expression Analyzer. Type `help` for commands.");
    loop {
        print!("gea> ");
        stdout.flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break; // EOF
        }
        match cli.execute(line.trim()) {
            Ok(Some(output)) => print_ok(&output),
            Ok(None) => break,
            Err(e) => eprintln!("ERR {e}"),
        }
    }
    Ok(())
}

/// One-line `OK …` framing matching the wire protocol: short payloads ride
/// on the status line, multi-line payloads follow it.
fn print_ok(output: &str) {
    let output = output.trim_end_matches('\n');
    if output.is_empty() {
        println!("OK");
    } else if !output.contains('\n') {
        println!("OK {output}");
    } else {
        println!("OK");
        println!("{output}");
    }
}
