//! The verb-effect table: one summary of what every GQL verb does to a
//! session, exported as the single source of truth for the subsystems that
//! used to hand-classify verbs.
//!
//! Two consumers used to keep overlapping match arms in sync by hand:
//!
//! * `gea-server`'s locking and response-cache admission (read vs write,
//!   cacheable vs always-execute);
//! * `gea-router`'s dispatch (affine read vs replicated write vs
//!   scatter/gather across shards).
//!
//! Both now consume [`EffectTable`]. The table has two faces: a row per
//! algebra verb ([`EffectTable::rows`]), declared beside the verb's syntax
//! in the grammar table [`VERBS`], carrying the facts true of every form
//! of the verb, and [`EffectTable::of`], which resolves a *specific*
//! command to its [`Effect`] and is the one place scatterability is
//! decided — it is form-dependent (`populate` only scatters in its
//! operator form, `mine` only for range-sharded backends). `of` is an
//! exhaustive match with no wildcard arm, so adding a `GqlCommand` variant
//! without deciding its effects is a compile error; the unit test below
//! closes the remaining gap by checking every parseable verb has a row
//! that agrees with `of`.

use std::sync::LazyLock;

use crate::gql::{GqlCommand, VERBS};

/// The static effect row for one verb: the most general summary true of
/// every form of the verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerbEffect {
    /// The verb string, as [`GqlCommand::verb`] reports it.
    pub verb: &'static str,
    /// Whether executing mutates the session (tables, lineage, or the
    /// whole state for `load`). `!mutates_session` is exactly the
    /// server's read-lock class.
    pub mutates_session: bool,
    /// Whether the reply is a function of (session generation, command
    /// line) alone — false for verbs that touch the filesystem
    /// (`save`/`export`), whose state the generation does not cover.
    pub pure: bool,
    /// Whether repeated execution at a fixed generation yields
    /// byte-identical replies. True for every verb today (mining is
    /// seeded); kept explicit so a future stochastic backend has a place
    /// to declare itself.
    pub deterministic: bool,
}

/// The effect of one *specific* command, with form-dependent fields
/// resolved. This is what the server and router consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effect {
    /// The verb's static row.
    pub row: &'static VerbEffect,
    /// Whether *this* command may scatter across range-sharded backends.
    pub scatterable: bool,
}

impl Effect {
    /// Read-lock class: the command only reads the session.
    pub fn is_read(&self) -> bool {
        !self.row.mutates_session
    }

    /// Response-cache admission: pure deterministic reads only.
    pub fn is_cacheable(&self) -> bool {
        self.is_read() && self.row.pure && self.row.deterministic
    }
}

/// One row per algebra verb, read off the grammar table in its order.
static ROWS: LazyLock<Vec<VerbEffect>> =
    LazyLock::new(|| VERBS.iter().filter_map(|spec| spec.effect).collect());

/// The verb-effect table. Stateless; both associated functions index the
/// rows the grammar table declares.
pub struct EffectTable;

impl EffectTable {
    /// Every algebra verb's static row, in [`VERBS`] order.
    pub fn rows() -> &'static [VerbEffect] {
        &ROWS
    }

    /// The static row for a verb string, if the verb exists.
    pub fn row(verb: &str) -> Option<&'static VerbEffect> {
        ROWS.iter().find(|r| r.verb == verb)
    }

    /// Resolve one command to its effect. Exhaustive over `GqlCommand` —
    /// no wildcard arm — so a new variant cannot compile without an
    /// effects decision here *and* a row in [`VERBS`] (the unit test
    /// cross-checks the two).
    pub fn of(cmd: &GqlCommand) -> Effect {
        let scatterable = match cmd {
            // Contiguous library-range scans: always scatterable.
            GqlCommand::Groups(_) => true,
            // Only backends with a range-sharded kernel; `simplex`
            // clusters in rotated tag space and must run whole.
            GqlCommand::MineWith { algo, .. } => matches!(algo.as_str(), "fascicles" | "isa"),
            // The operator form scans `dataset`'s libraries; the lineage
            // re-materialization form replays history instead.
            GqlCommand::Populate { from, .. } => from.is_some(),
            GqlCommand::Tissues
            | GqlCommand::Dataset { .. }
            | GqlCommand::Custom { .. }
            | GqlCommand::Select { .. }
            | GqlCommand::Project { .. }
            | GqlCommand::Fascicles
            | GqlCommand::Purity(_)
            | GqlCommand::Gap { .. }
            | GqlCommand::TopGap { .. }
            | GqlCommand::Compare { .. }
            | GqlCommand::Show { .. }
            | GqlCommand::Plot { .. }
            | GqlCommand::Library(_)
            | GqlCommand::TagFreq { .. }
            | GqlCommand::Export { .. }
            | GqlCommand::Comment { .. }
            | GqlCommand::Delete { .. }
            | GqlCommand::Check(_)
            | GqlCommand::Lineage
            | GqlCommand::Cleaning
            | GqlCommand::Xprofiler(_)
            | GqlCommand::Save(_)
            | GqlCommand::Load(_) => false,
        };
        let row = Self::row(cmd.verb())
            .unwrap_or_else(|| panic!("verb {:?} has no effect row", cmd.verb()));
        Effect { row, scatterable }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gql::{parse, Request};

    /// One example line per verb and per form-dependent shape: every
    /// `GqlCommand` variant is represented, plus both `populate` forms
    /// and the three `mine` spellings.
    const EXAMPLES: &[&str] = &[
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
    ];

    fn parse_cmd(line: &str) -> GqlCommand {
        match parse(line).expect("example parses").expect("non-blank") {
            Request::Gql(cmd) => cmd,
            other => panic!("{line:?} parsed to non-GQL {other:?}"),
        }
    }

    #[test]
    fn every_verb_has_exactly_one_row_and_of_agrees() {
        let mut seen = std::collections::BTreeSet::new();
        for line in EXAMPLES {
            let cmd = parse_cmd(line);
            let effect = EffectTable::of(&cmd);
            let row = EffectTable::row(cmd.verb())
                .unwrap_or_else(|| panic!("verb {:?} missing from ROWS", cmd.verb()));
            assert_eq!(
                effect.row.verb, row.verb,
                "of() must return the verb's own row"
            );
            seen.insert(cmd.verb());
        }
        // Exhaustiveness both ways: no parseable verb without a row (above)
        // and no stale row for a verb the grammar no longer produces.
        let rows: std::collections::BTreeSet<&str> =
            EffectTable::rows().iter().map(|r| r.verb).collect();
        assert_eq!(rows.len(), EffectTable::rows().len(), "duplicate verb row");
        assert_eq!(seen, rows, "ROWS and the grammar's verb set must match");
    }

    #[test]
    fn effect_classes_match_the_grammar_contract() {
        for line in EXAMPLES {
            let cmd = parse_cmd(line);
            let effect = EffectTable::of(&cmd);
            assert_eq!(effect.is_read(), cmd.is_read(), "{line}");
            assert_eq!(effect.is_cacheable(), cmd.is_cacheable(), "{line}");
        }
    }

    #[test]
    fn scatter_resolution_is_form_dependent() {
        assert!(EffectTable::of(&parse_cmd("mine e m 50 3 6")).scatterable);
        assert!(EffectTable::of(&parse_cmd("mine e m with fascicles")).scatterable);
        assert!(EffectTable::of(&parse_cmd("mine e m with isa")).scatterable);
        assert!(!EffectTable::of(&parse_cmd("mine e m with simplex")).scatterable);
        assert!(EffectTable::of(&parse_cmd("groups m_1")).scatterable);
        assert!(EffectTable::of(&parse_cmd("populate e2 s1 e")).scatterable);
        assert!(!EffectTable::of(&parse_cmd("populate e2")).scatterable);
        assert!(!EffectTable::of(&parse_cmd("gap g s1 s2")).scatterable);
    }

    #[test]
    fn cacheable_is_pure_deterministic_read() {
        // The filesystem-touching reads are exactly save and export.
        let impure: Vec<&str> = EffectTable::rows()
            .iter()
            .filter(|r| !r.mutates_session && !r.pure)
            .map(|r| r.verb)
            .collect();
        assert_eq!(impure, ["export", "save"]);
    }
}
