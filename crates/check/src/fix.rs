//! `--fix`: mechanically apply the analyzer's suggestions and re-run it
//! to fixpoint.
//!
//! Two tiers, per round:
//!
//! 1. **token fixes** — every error diagnostic carrying a [`Fix`] (a
//!    nearest-name replacement) is applied to its line.
//!    Fixes are token-level with applicability guards: the line is
//!    re-tokenized, the edit only fires if the guard still matches, and
//!    only edited lines are re-rendered (untouched lines stay
//!    byte-identical — the property test below holds the fixer to that).
//! 2. **removal** — if a round has errors but no applicable token fix,
//!    every erroring line is commented out as
//!    `# gea-fix: removed (<code>): <original>`, preserving the original
//!    text for the author. A line that does not parse — an out-of-domain
//!    `mine` parameter or `topgap … 0` among them — is fixed this way:
//!    the grammar, not the fixer, owns parameter domains.
//!
//! Each round strictly reduces the script's error surface, so the loop
//! reaches an analyzer-clean fixpoint; a hard cap of 8 rounds backstops
//! the argument. A script that is already clean is returned verbatim.

use crate::diag::{CheckReport, Fix, Severity};
use crate::gql;

/// What `fix_script` did.
#[derive(Debug, Clone)]
pub struct FixOutcome {
    /// The fixed script text (byte-identical to the input when it was
    /// already clean).
    pub text: String,
    /// Analyzer rounds run (1 for an already-clean script).
    pub rounds: usize,
    /// Whether any line changed.
    pub changed: bool,
    /// The final analyzer report over `text`.
    pub report: CheckReport,
    /// Human log of the rewrites, in application order.
    pub applied: Vec<String>,
}

/// Rewrite `text` until the analyzer reports no errors (warnings are
/// allowed to remain — they never make a script unrunnable).
pub fn fix_script(text: &str) -> FixOutcome {
    let mut current = text.to_string();
    let mut applied = Vec::new();
    let mut rounds = 0;
    loop {
        rounds += 1;
        let report = crate::check_script(&current);
        if report.is_clean() || rounds > 8 {
            return FixOutcome {
                changed: current != text,
                text: current,
                rounds,
                report,
                applied,
            };
        }
        let mut lines: Vec<String> = current.lines().map(str::to_string).collect();
        let mut touched = false;
        for d in &report.diagnostics {
            if d.severity != Severity::Error {
                continue;
            }
            let Some(fix) = &d.fix else { continue };
            let Some(line) = lines.get_mut(d.line - 1) else {
                continue;
            };
            if let Some(rewritten) = apply_fix(line, fix) {
                applied.push(format!("line {}: {} ({})", d.line, describe(fix), d.code));
                *line = rewritten;
                touched = true;
            }
        }
        if !touched {
            // No token fix applies: remove the erroring lines, keeping
            // their text in a comment so nothing is silently lost.
            for d in &report.diagnostics {
                if d.severity != Severity::Error {
                    continue;
                }
                let Some(line) = lines.get_mut(d.line - 1) else {
                    continue;
                };
                if line.trim_start().starts_with('#') {
                    continue; // already removed for an earlier code
                }
                applied.push(format!("line {}: removed ({})", d.line, d.code));
                *line = format!("# gea-fix: removed ({}): {}", d.code, line);
                touched = true;
            }
        }
        if !touched {
            // Errors with no line to edit (should not happen); bail
            // rather than loop.
            return FixOutcome {
                changed: current != text,
                text: current,
                rounds,
                report,
                applied,
            };
        }
        let mut next = lines.join("\n");
        if text.ends_with('\n') {
            next.push('\n');
        }
        current = next;
    }
}

fn describe(fix: &Fix) -> String {
    let Fix::ReplaceName { from, to } = fix;
    format!("replaced {from:?} with {to:?}")
}

/// Apply one fix to one line, returning the rewritten line, or `None`
/// when the guard no longer matches (the line changed since the
/// diagnostic was produced, or the fix targets the verb).
fn apply_fix(line: &str, fix: &Fix) -> Option<String> {
    let mut tokens = gql::tokenize(line).ok()?;
    if tokens.is_empty() {
        return None;
    }
    let mut hit = false;
    let Fix::ReplaceName { from, to } = fix;
    // Never rewrite the verb: a name that happens to equal a verb is
    // still an argument everywhere past position 0.
    for token in tokens.iter_mut().skip(1) {
        if token == from {
            *token = to.clone();
            hit = true;
        }
    }
    if !hit {
        return None;
    }
    Some(render_tokens(&tokens))
}

/// Re-render a token list with canonical quoting (mirrors the grammar's
/// own canonical spelling: bare tokens stay bare, anything with spaces
/// or quotes is double-quoted with `\`-escapes).
fn render_tokens(tokens: &[String]) -> String {
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
    tokens
        .iter()
        .map(|t| quote(t))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_scripts_are_byte_identical() {
        // Property: on an analyzer-clean script the fixer is the
        // identity, byte for byte — including odd-but-legal whitespace,
        // comments, quoting, and a missing trailing newline.
        let clean = [
            "load-demo 42\ndataset E brain\nexport E e.csv\n",
            "# comment\n\nload-demo 1\ndataset  E   brain\nexport E e.csv\n",
            "load-demo 1\ndataset E brain\ncomment E \"multi word note\"\nexport E e.csv\n",
            "load-demo 1\ndataset E brain\nexport E e.csv", // no trailing \n
            "load-demo 1\n\
             dataset E brain\n\
             mine E f 50 3 6\n\
             groups f_1\n\
             gap g f_1CancerFasTbl f_1NormalTable\n\
             topgap g 10\n\
             show gap g_10 5\n\
             export g out.csv\n",
        ];
        for script in clean {
            let out = fix_script(script);
            assert!(out.report.is_clean(), "{script:?}: {}", out.report.render());
            assert_eq!(out.text, script, "clean script must not change");
            assert!(!out.changed);
            assert_eq!(out.rounds, 1);
            assert!(out.applied.is_empty());
        }
    }

    #[test]
    fn out_of_domain_lines_are_commented_out() {
        let out = fix_script("load-demo 1\ndataset E brain\nmine E f 150 0 6\nexport E e.csv\n");
        assert!(out.report.is_clean(), "{}", out.report.render());
        assert!(out.changed);
        assert!(
            out.text
                .contains("# gea-fix: removed (parse): mine E f 150 0 6\n"),
            "{}",
            out.text
        );
        // The untouched lines are byte-identical.
        assert!(out.text.starts_with("load-demo 1\ndataset E brain\n"));
        assert!(out.text.ends_with("export E e.csv\n"));
    }

    #[test]
    fn nearest_name_fixes_apply() {
        let out = fix_script("load-demo 1\ndataset Brain brain\nexport Brian b.csv\n");
        assert!(out.report.is_clean(), "{}", out.report.render());
        assert!(out.text.contains("export Brain b.csv\n"), "{}", out.text);
    }

    #[test]
    fn unfixable_error_lines_are_commented_out() {
        let out = fix_script("load-demo 1\ndataset E brain\ngap g nope1 nope2\nexport E e.csv\n");
        assert!(out.report.is_clean(), "{}", out.report.render());
        assert!(
            out.text
                .contains("# gea-fix: removed (undefined-name): gap g nope1 nope2\n"),
            "{}",
            out.text
        );
    }

    #[test]
    fn removal_cascades_to_orphaned_readers() {
        // Removing the unfixable `gap` definition orphans the `topgap`
        // that reads it; the next round removes that too.
        let out = fix_script(
            "load-demo 1\n\
             dataset E brain\n\
             gap g nope1 nope2\n\
             topgap g 5\n\
             export E e.csv\n",
        );
        assert!(out.report.is_clean(), "{}", out.report.render());
        assert!(out
            .text
            .contains("# gea-fix: removed (undefined-name): gap g"));
        assert!(out
            .text
            .contains("# gea-fix: removed (undefined-name): topgap g 5"));
    }

    #[test]
    fn fixing_is_idempotent() {
        let dirty = "load-demo 1\ndataset E brain\nmine E f 150 0 6\nexport E e.csv\n";
        let once = fix_script(dirty);
        let twice = fix_script(&once.text);
        assert_eq!(once.text, twice.text);
        assert!(!twice.changed);
    }

    #[test]
    fn quoted_arguments_survive_rewriting() {
        // A fix on a line with a quoted argument must keep the quoting
        // canonical and re-parseable.
        let out = fix_script(
            "load-demo 1\ndataset Brain brain\ncomment Brian \"two words\"\nexport Brain b.csv\n",
        );
        assert!(out.report.is_clean(), "{}", out.report.render());
        assert!(
            out.text.contains("comment Brain \"two words\"\n"),
            "{}",
            out.text
        );
    }
}
