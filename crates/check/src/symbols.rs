//! The world-typed symbol table: which names exist at each point of a
//! script, which worlds each lives in, and the definition lineage the
//! dataflow pass needs for cascade deletes.
//!
//! `mine <dataset> <out> …` is the one operator whose output names are
//! statically unknown (it creates `{out}_1 … {out}_N` for a data-dependent
//! N), so the table also records mine *prefixes*: a reference that matches
//! `{prefix}_<digits>` for a seen prefix resolves as a possible mined
//! fascicle rather than an undefined name.

use std::collections::BTreeMap;

use gea_core::session::GeaSession;

use crate::world::{World, WorldSet};

/// What the table knows about one name.
#[derive(Debug, Clone)]
pub struct SymbolInfo {
    /// The worlds the name lives in.
    pub worlds: WorldSet,
    /// Line that defined it; `None` for names seeded from a live session
    /// (or the root `SAGE`).
    pub defined_line: Option<usize>,
    /// Names derived *from* this one (for cascade-delete propagation).
    pub children: Vec<String>,
}

/// One `mine` the script ran: where, and over which data set (the
/// fascicles' lineage parent, for cascade-delete propagation).
#[derive(Debug, Clone)]
struct MineRecord {
    line: usize,
    dataset: String,
}

/// A live session's name population, used to seed the analyzer for the
/// server's `check` verb: the pipeline is validated against what the
/// session actually holds right now, not against an empty world.
#[derive(Debug, Clone, Default)]
pub struct SymbolSeed {
    /// ENUM table names (`SAGE` is implicit).
    pub enums: Vec<String>,
    /// SUMY table names.
    pub sumys: Vec<String>,
    /// GAP table names.
    pub gaps: Vec<String>,
    /// Mined fascicle names.
    pub fascicles: Vec<String>,
}

impl SymbolSeed {
    /// Snapshot the session's symbol population. Reads names only — the
    /// session is untouched.
    pub fn from_session(session: &GeaSession) -> SymbolSeed {
        SymbolSeed {
            enums: session.enum_names().map(String::from).collect(),
            sumys: session.sumy_names().map(String::from).collect(),
            gaps: session.gap_tables().keys().cloned().collect(),
            fascicles: session.fascicle_records().keys().cloned().collect(),
        }
    }
}

/// The analyzer's name environment at one program point.
#[derive(Debug, Clone)]
pub struct SymbolTable {
    symbols: BTreeMap<String, SymbolInfo>,
    /// `mine` output prefixes → where/what the mine ran over.
    mine_prefixes: BTreeMap<String, MineRecord>,
    /// Whether any `mine` has happened (or the seed session holds
    /// fascicles): gates `purity`/`groups`/`plot`.
    pub mined: bool,
    /// After `load <dir>` the session's contents are statically unknown,
    /// so undefined-name and redefinition checks are suppressed.
    pub open_world: bool,
}

impl SymbolTable {
    /// A fresh session: only the root `SAGE` exists.
    pub fn fresh() -> SymbolTable {
        let mut t = SymbolTable {
            symbols: BTreeMap::new(),
            mine_prefixes: BTreeMap::new(),
            mined: false,
            open_world: false,
        };
        t.insert_seeded("SAGE", World::Enum);
        t
    }

    /// Seeded from a live session's name population.
    pub fn seeded(seed: &SymbolSeed) -> SymbolTable {
        let mut t = SymbolTable::fresh();
        for n in &seed.enums {
            t.insert_seeded(n, World::Enum);
        }
        for n in &seed.sumys {
            t.insert_seeded(n, World::Sumy);
        }
        for n in &seed.gaps {
            t.insert_seeded(n, World::Gap);
        }
        for n in &seed.fascicles {
            t.insert_seeded(n, World::Fascicle);
        }
        t.mined = !seed.fascicles.is_empty();
        t
    }

    fn insert_seeded(&mut self, name: &str, w: World) {
        let info = self
            .symbols
            .entry(name.to_string())
            .or_insert_with(|| SymbolInfo {
                worlds: WorldSet::EMPTY,
                defined_line: None,
                children: Vec::new(),
            });
        info.worlds = info.worlds.with(w);
    }

    /// After `load <dir>`: anything might exist now.
    pub fn enter_open_world(&mut self) {
        self.open_world = true;
        self.mined = true;
    }

    /// The recorded info for a concretely-known name.
    pub fn get(&self, name: &str) -> Option<&SymbolInfo> {
        self.symbols.get(name)
    }

    /// Resolve a reference: a concrete symbol's worlds, or the
    /// ENUM+SUMY+fascicle triple for a plausible mined-fascicle name.
    pub fn lookup(&self, name: &str) -> Option<WorldSet> {
        if let Some(info) = self.symbols.get(name) {
            return Some(info.worlds);
        }
        self.implicit_fascicle(name).map(|_| {
            WorldSet::of(World::Enum)
                .with(World::Sumy)
                .with(World::Fascicle)
        })
    }

    /// The mine that *may* have created `name`, when `name` is
    /// `{prefix}_<digits>` for a seen mine prefix.
    fn implicit_fascicle(&self, name: &str) -> Option<&MineRecord> {
        let (prefix, suffix) = name.rsplit_once('_')?;
        if suffix.is_empty() || !suffix.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        self.mine_prefixes.get(prefix)
    }

    /// Whether defining `name` could collide with a fascicle a previous
    /// `mine` created (statically unknowable count): `(prefix, mine line)`.
    pub fn possible_fascicle_collision(&self, name: &str) -> Option<(String, usize)> {
        let line = self.implicit_fascicle(name)?.line;
        let (prefix, _) = name.rsplit_once('_').expect("implicit implies underscore");
        Some((prefix.to_string(), line))
    }

    /// Record a definition. The caller has already rejected redefinitions;
    /// `parents` grow child edges for cascade-delete propagation.
    pub fn define(&mut self, line: usize, name: &str, worlds: WorldSet, parents: &[&str]) {
        for p in parents {
            if let Some(info) = self.symbols.get_mut(*p) {
                info.children.push(name.to_string());
            }
        }
        self.symbols.insert(
            name.to_string(),
            SymbolInfo {
                worlds,
                defined_line: Some(line),
                children: Vec::new(),
            },
        );
    }

    /// Turn a successfully-resolved implicit fascicle reference into a
    /// concrete symbol — a child of the mined data set, so cascade
    /// deletes reach it — letting derived names hang child edges off it.
    pub fn materialize_implicit(&mut self, name: &str) {
        if self.symbols.contains_key(name) {
            return;
        }
        let Some(record) = self.implicit_fascicle(name) else {
            return;
        };
        let (line, dataset) = (record.line, record.dataset.clone());
        self.define(
            line,
            name,
            WorldSet::of(World::Enum)
                .with(World::Sumy)
                .with(World::Fascicle),
            &[dataset.as_str()],
        );
    }

    /// Record a `mine <dataset> <out> …`; returns the previous mine line
    /// if the prefix was already used (its output names would collide).
    pub fn note_mine(&mut self, line: usize, out: &str, dataset: &str) -> Option<usize> {
        self.mined = true;
        self.mine_prefixes
            .insert(
                out.to_string(),
                MineRecord {
                    line,
                    dataset: dataset.to_string(),
                },
            )
            .map(|r| r.line)
    }

    /// The closest defined name to `name` within Levenshtein distance 2,
    /// for "did you mean …?" hints on undefined-name diagnostics. When
    /// `want` is given, only names living in that world are candidates,
    /// so a typo'd SUMY reference never suggests an ENUM it couldn't use
    /// anyway. Ties go to the lexicographically smallest candidate.
    pub fn nearest(&self, name: &str, want: Option<World>) -> Option<String> {
        let mut best: Option<(usize, &str)> = None;
        for (cand, info) in &self.symbols {
            if cand == name {
                continue;
            }
            if let Some(w) = want {
                if !info.worlds.contains(w) {
                    continue;
                }
            }
            let Some(d) = levenshtein_within(name, cand, 2) else {
                continue;
            };
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, cand));
            }
        }
        best.map(|(_, cand)| cand.to_string())
    }

    /// `delete --cascade`: drop the name and everything derived from it.
    /// Returns every removed name so the dataflow pass can stop tracking
    /// them.
    pub fn remove_cascade(&mut self, name: &str) -> Vec<String> {
        let mut stack = vec![name.to_string()];
        let mut removed = Vec::new();
        while let Some(n) = stack.pop() {
            if let Some(info) = self.symbols.remove(&n) {
                stack.extend(info.children.iter().cloned());
                removed.push(n);
            }
        }
        // Mines over a removed data set go with it: their fascicles are
        // descendants in the session's lineage, so numbered names of
        // those prefixes must stop resolving.
        self.mine_prefixes
            .retain(|_, rec| !removed.contains(&rec.dataset));
        removed
    }
}

/// Levenshtein distance between `a` and `b` if it is at most `max`,
/// else `None`. Banded single-row dynamic program: a length gap beyond
/// `max` short-circuits, and a row whose minimum exceeds `max` aborts.
fn levenshtein_within(a: &str, b: &str, max: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.len().abs_diff(b.len()) > max {
        return None;
    }
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        let mut row_min = row[0];
        for (j, cb) in b.iter().enumerate() {
            let cost = if ca == cb { 0 } else { 1 };
            let next = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev_diag = row[j + 1];
            row[j + 1] = next;
            row_min = row_min.min(next);
        }
        if row_min > max {
            return None;
        }
    }
    (row[b.len()] <= max).then_some(row[b.len()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_table_knows_only_sage() {
        let t = SymbolTable::fresh();
        assert!(t.lookup("SAGE").unwrap().contains(World::Enum));
        assert!(t.lookup("E").is_none());
        assert!(!t.mined);
    }

    #[test]
    fn mined_prefixes_resolve_numbered_names() {
        let mut t = SymbolTable::fresh();
        t.define(1, "E", World::Enum.into(), &["SAGE"]);
        assert!(t.note_mine(3, "f", "E").is_none());
        assert!(t.mined);
        let ws = t.lookup("f_2").unwrap();
        assert!(ws.contains(World::Fascicle));
        assert!(ws.contains(World::Enum));
        assert!(ws.contains(World::Sumy));
        assert!(t.lookup("f_").is_none());
        assert!(t.lookup("f_2x").is_none());
        assert!(t.lookup("g_1").is_none());
        assert_eq!(t.possible_fascicle_collision("f_9"), Some(("f".into(), 3)));
        // Reusing the prefix reports the first mine's line.
        assert_eq!(t.note_mine(7, "f", "E"), Some(3));
    }

    #[test]
    fn cascade_removes_mines_over_the_deleted_dataset() {
        let mut t = SymbolTable::fresh();
        t.define(1, "E", World::Enum.into(), &["SAGE"]);
        t.define(2, "Other", World::Enum.into(), &["SAGE"]);
        t.note_mine(3, "f", "E");
        t.note_mine(4, "g", "Other");
        // A referenced fascicle becomes a concrete child of its data set.
        t.materialize_implicit("f_1");
        let removed = t.remove_cascade("E");
        assert!(removed.contains(&"f_1".to_string()));
        // Unreferenced numbered names of the dead prefix stop resolving;
        // the other mine survives.
        assert!(t.lookup("f_2").is_none());
        assert!(t.lookup("g_1").is_some());
    }

    #[test]
    fn cascade_removal_follows_child_edges() {
        let mut t = SymbolTable::fresh();
        t.define(1, "E", World::Enum.into(), &["SAGE"]);
        t.define(2, "S", World::Sumy.into(), &["E"]);
        t.define(3, "G", World::Gap.into(), &["S"]);
        t.define(4, "Other", World::Enum.into(), &["SAGE"]);
        let mut removed = t.remove_cascade("E");
        removed.sort();
        assert_eq!(removed, vec!["E", "G", "S"]);
        assert!(t.lookup("G").is_none());
        assert!(t.lookup("Other").is_some());
        assert!(t.lookup("SAGE").is_some());
    }

    #[test]
    fn levenshtein_band_matches_and_bails() {
        assert_eq!(levenshtein_within("gap", "gap", 2), Some(0));
        assert_eq!(levenshtein_within("brian", "brain", 2), Some(2));
        assert_eq!(levenshtein_within("f_1", "f_2", 2), Some(1));
        assert_eq!(levenshtein_within("abc", "xyz", 2), None);
        assert_eq!(levenshtein_within("short", "muchlongername", 2), None);
        assert_eq!(levenshtein_within("", "ab", 2), Some(2));
    }

    #[test]
    fn nearest_suggests_within_distance_two_in_the_right_world() {
        let mut t = SymbolTable::fresh();
        t.define(1, "Expr", World::Enum.into(), &["SAGE"]);
        t.define(2, "ExprSumy", World::Sumy.into(), &["Expr"]);
        // A one-edit typo finds the ENUM, not the SUMY living further away.
        assert_eq!(t.nearest("Exqr", Some(World::Enum)), Some("Expr".into()));
        // World filtering: the same typo asked for as a SUMY has no
        // candidate within distance 2 ("ExprSumy" is 5 edits away).
        assert_eq!(t.nearest("Exqr", Some(World::Sumy)), None);
        // Unfiltered lookup may suggest any world.
        assert_eq!(t.nearest("Expq", None), Some("Expr".into()));
        // Nothing remotely close: no hint at all.
        assert_eq!(t.nearest("zzzzzz", None), None);
        // Ties break to the lexicographically smallest candidate.
        t.define(3, "Exp1", World::Enum.into(), &["SAGE"]);
        assert_eq!(t.nearest("Exp", Some(World::Enum)), Some("Exp1".into()));
    }

    #[test]
    fn seeding_merges_worlds_per_name() {
        let seed = SymbolSeed {
            enums: vec!["f_1".into(), "E".into()],
            sumys: vec!["f_1".into()],
            gaps: vec!["G".into()],
            fascicles: vec!["f_1".into()],
        };
        let t = SymbolTable::seeded(&seed);
        assert!(t.mined);
        let ws = t.lookup("f_1").unwrap();
        assert!(
            ws.contains(World::Enum) && ws.contains(World::Sumy) && ws.contains(World::Fascicle)
        );
        assert!(!t.lookup("E").unwrap().contains(World::Sumy));
        assert!(t.lookup("G").unwrap().contains(World::Gap));
        assert_eq!(t.get("E").unwrap().defined_line, None);
    }
}
