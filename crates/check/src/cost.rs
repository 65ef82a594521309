//! Static cost intervals: the second tier-2 abstract domain.
//!
//! Each table name is abstracted to a cardinality [`Interval`] (how many
//! rows it can hold), seeded from a live session's actual table sizes
//! ([`CostSeed::from_session`]) or from the thesis-scale defaults for
//! standalone scripts. [`cost_pipeline`] pushes the intervals through a
//! pipeline with per-verb transfer functions and charges each command a
//! cost in abstract *row-visit* units via [`CostModel`] — deliberately
//! hardware-free, so a budget (`gea-server --max-cost`) means the same
//! thing on every host: the coefficients are built in, never read from a
//! host-local file.
//!
//! Consumers: `gea-cli --check --cost`, the server `check` verb's cost
//! section, and the `--max-cost`/`EBUDGET` admission gate.

use std::collections::BTreeMap;

use gea_core::session::GeaSession;

use crate::gql::{self, GqlCommand, Request};

/// A closed cardinality interval `[lo, hi]` in rows. All arithmetic
/// saturates: the domain tops out rather than wrapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Fewest rows the table can hold.
    pub lo: u64,
    /// Most rows the table can hold.
    pub hi: u64,
}

impl Interval {
    /// The exact cardinality `n`.
    pub const fn point(n: u64) -> Interval {
        Interval { lo: n, hi: n }
    }

    /// `[lo, hi]`, normalized so `lo <= hi`.
    pub const fn range(lo: u64, hi: u64) -> Interval {
        if lo <= hi {
            Interval { lo, hi }
        } else {
            Interval { lo: hi, hi: lo }
        }
    }

    /// Pointwise minimum (intersection-shaped operators).
    pub fn min(self, other: Interval) -> Interval {
        Interval::range(self.lo.min(other.lo), self.hi.min(other.hi))
    }

    /// Pointwise saturating sum (union-shaped operators).
    pub fn join_sum(self, other: Interval) -> Interval {
        Interval::range(
            self.lo.saturating_add(other.lo),
            self.hi.saturating_add(other.hi),
        )
    }

    /// Drop the lower bound to zero (filters can reject everything).
    pub fn may_be_empty(self) -> Interval {
        Interval::range(0, self.hi)
    }

    /// Cap the upper bound.
    pub fn clamp_hi(self, hi: u64) -> Interval {
        Interval::range(self.lo.min(hi), self.hi.min(hi))
    }

    /// `"n"` for a point, `"lo..hi"` otherwise.
    pub fn render(&self) -> String {
        if self.lo == self.hi {
            self.lo.to_string()
        } else {
            format!("{}..{}", self.lo, self.hi)
        }
    }
}

/// Corpus scalars plus per-name cardinalities the interpretation starts
/// from.
#[derive(Debug, Clone)]
pub struct CostSeed {
    /// Libraries in the corpus (the extensional axis).
    pub libraries: u64,
    /// Tags in the universe (the intensional axis).
    pub tags: u64,
    names: BTreeMap<String, Interval>,
}

impl CostSeed {
    /// Thesis-published scale, for standalone scripts where no session
    /// exists yet: the SAGE corpus of chapter 3 (hundreds of libraries,
    /// tens of thousands of distinct tags).
    pub fn script_default() -> CostSeed {
        CostSeed {
            libraries: 250,
            tags: 25_000,
            names: BTreeMap::new(),
        }
    }

    /// Seed from a live session's actual table sizes, so the server
    /// `check` verb predicts against real cardinalities.
    pub fn from_session(session: &GeaSession) -> CostSeed {
        let mut names = BTreeMap::new();
        let mut tags = 0u64;
        // Shapes only: a derived table is sized from its definition, so
        // seeding builds nothing.
        for name in session.enum_names() {
            let n_libraries = session.enum_libraries(name).map_or(0, |l| l.len());
            names.insert(name.to_string(), Interval::point(n_libraries as u64));
            tags = tags.max(session.enum_n_tags(name).unwrap_or(0) as u64);
        }
        for name in session.sumy_names() {
            let rows = session.sumy_len(name).unwrap_or(0);
            names.insert(name.to_string(), Interval::point(rows as u64));
        }
        for (name, table) in session.gap_tables() {
            names.insert(name.clone(), Interval::point(table.rows().len() as u64));
        }
        for name in session.fascicle_records().keys() {
            names.entry(name.clone()).or_insert(Interval::point(1));
        }
        CostSeed {
            libraries: session.source().n_libraries() as u64,
            tags: if tags > 0 { tags } else { 1 },
            names,
        }
    }

    /// The cardinality bound for a name, defaulting to "anything up to
    /// the larger axis" when the name is unknown (undefined names are the
    /// world pass's problem, not the cost pass's).
    fn lookup(&self, env: &BTreeMap<String, Interval>, name: &str) -> Interval {
        env.get(name)
            .or_else(|| self.names.get(name))
            .copied()
            .unwrap_or(Interval::range(0, self.libraries.max(self.tags)))
    }
}

/// Per-verb cost coefficients, in abstract row-visit units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cost per library visited by a corpus scan (dataset/custom/select).
    pub scan_weight: u64,
    /// Cost per seed×record scoring by `mine`.
    pub mine_weight: u64,
    /// Cost per row written to or read from the filesystem.
    pub io_weight: u64,
    /// Cost per library tested by the `populate` operator's scan.
    pub populate_scan_weight: u64,
    /// Cost multiplier for `xprofiler`'s pooled two-sided comparison.
    pub xprofiler_weight: u64,
}

impl CostModel {
    /// The built-in coefficients.
    pub fn default_coefficients() -> CostModel {
        CostModel {
            scan_weight: 1,
            mine_weight: 8,
            io_weight: 2,
            populate_scan_weight: 2,
            xprofiler_weight: 4,
        }
    }
}

/// The predicted rows and cost of one command in a pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandCost {
    /// 1-based position (pipeline index or script line).
    pub index: usize,
    /// The verb.
    pub verb: &'static str,
    /// Predicted output cardinality.
    pub rows: Interval,
    /// Predicted cost in abstract units.
    pub cost: u64,
}

/// Per-command costs plus the pipeline total.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CostReport {
    /// One entry per costed command, in order.
    pub per_command: Vec<CommandCost>,
    /// Saturating sum of the per-command costs.
    pub total: u64,
}

impl CostReport {
    /// Human rendering, one line per command plus the total:
    ///
    /// ```text
    /// predicted cost (abstract row-visit units):
    ///   1: dataset  rows 1..250  cost 250
    /// total: 250
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::from("predicted cost (abstract row-visit units):");
        for c in &self.per_command {
            out.push_str(&format!(
                "\n  {}: {}  rows {}  cost {}",
                c.index,
                c.verb,
                c.rows.render(),
                c.cost
            ));
        }
        out.push_str(&format!("\ntotal: {}", self.total));
        out
    }
}

/// Abstract-interpret a pipeline: push cardinality intervals through the
/// per-verb transfer functions, charging each command its cost.
pub fn cost_pipeline(model: &CostModel, seed: &CostSeed, cmds: &[GqlCommand]) -> CostReport {
    let mut env: BTreeMap<String, Interval> = BTreeMap::new();
    let mut report = CostReport::default();
    for (i, cmd) in cmds.iter().enumerate() {
        cost_command(model, seed, &mut env, i + 1, cmd, &mut report);
    }
    report
}

/// Cost a whole script (the `gea-cli --check --cost` entry point):
/// non-GQL lines (session control, comments, blanks, parse failures) are
/// skipped — the checker reports those; this pass only predicts work.
pub fn cost_script(model: &CostModel, seed: &CostSeed, text: &str) -> CostReport {
    let mut env: BTreeMap<String, Interval> = BTreeMap::new();
    let mut report = CostReport::default();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if let Ok(Some(Request::Gql(cmd))) = gql::parse(trimmed) {
            cost_command(model, seed, &mut env, i + 1, &cmd, &mut report);
        }
    }
    report
}

fn cost_command(
    model: &CostModel,
    seed: &CostSeed,
    env: &mut BTreeMap<String, Interval>,
    index: usize,
    cmd: &GqlCommand,
    report: &mut CostReport,
) {
    let libs = Interval::range(0, seed.libraries);
    let (rows, cost) = match cmd {
        GqlCommand::Tissues => (libs, seed.libraries.saturating_mul(model.scan_weight)),
        GqlCommand::Dataset { name, .. } => {
            let rows = Interval::range(1, seed.libraries);
            env.insert(name.clone(), rows);
            (rows, seed.libraries.saturating_mul(model.scan_weight))
        }
        GqlCommand::Custom { name, libraries } => {
            // A name may repeat or match no library; one must match.
            let rows = Interval::range(1, libraries.len() as u64).clamp_hi(seed.libraries);
            env.insert(name.clone(), rows);
            (rows, seed.libraries.saturating_mul(model.scan_weight))
        }
        GqlCommand::Select {
            name,
            dataset,
            libraries,
        } => {
            let input = seed.lookup(env, dataset);
            let rows = input.clamp_hi(libraries.len() as u64).may_be_empty();
            env.insert(name.clone(), rows);
            (rows, input.hi.saturating_mul(model.scan_weight))
        }
        GqlCommand::Project { name, dataset, .. } => {
            // Projection keeps every library; only the tag axis narrows.
            let rows = seed.lookup(env, dataset);
            env.insert(name.clone(), rows);
            (rows, rows.hi.saturating_mul(model.scan_weight))
        }
        GqlCommand::MineWith { dataset, algo, .. } => {
            let input = seed.lookup(env, dataset);
            let rows = Interval::range(0, input.hi);
            let cost = if algo == "fascicles" {
                // Every record seeds one growth that scores the other
                // records and yields at most one fascicle; `batch` changes
                // neither the result nor the work.
                input
                    .hi
                    .saturating_mul(input.hi)
                    .saturating_mul(model.mine_weight)
            } else {
                input
                    .hi
                    .saturating_mul(seed.tags.max(1))
                    .saturating_mul(model.mine_weight)
                    / 8 // backends batch internally; charge an amortized pass
            };
            (rows, cost)
        }
        GqlCommand::Fascicles => (Interval::range(0, seed.libraries), 1),
        GqlCommand::Purity(f) => {
            let rows = seed.lookup(env, f);
            (rows, seed.libraries.saturating_mul(model.scan_weight))
        }
        GqlCommand::Groups(f) => {
            // Three derived SUMYs, each bounded by the tag universe.
            let rows = Interval::range(0, seed.tags);
            env.insert(format!("{f}CancerFasTbl"), rows);
            env.insert(format!("{f}CanNotInFasTbl"), rows);
            env.insert(format!("{f}NormalTable"), rows);
            (
                rows,
                seed.libraries
                    .saturating_mul(seed.tags.max(1))
                    .saturating_mul(model.scan_weight)
                    / 8,
            )
        }
        GqlCommand::Gap { name, sumy1, sumy2 } => {
            let a = seed.lookup(env, sumy1);
            let b = seed.lookup(env, sumy2);
            // A gap row needs the tag on at least one side.
            let rows = a.join_sum(b).clamp_hi(seed.tags).may_be_empty();
            env.insert(name.clone(), rows);
            (
                rows,
                a.hi.saturating_add(b.hi).saturating_mul(model.scan_weight),
            )
        }
        GqlCommand::TopGap { gap, x } => {
            let input = seed.lookup(env, gap);
            let rows = input.clamp_hi(*x as u64).may_be_empty();
            env.insert(format!("{gap}_{x}"), rows);
            (rows, input.hi.saturating_mul(model.scan_weight))
        }
        GqlCommand::Compare {
            name, g1, g2, op, ..
        } => {
            let a = seed.lookup(env, g1);
            let b = seed.lookup(env, g2);
            let rows = match op {
                gea_core::compare::CompareOp::Union => a.join_sum(b).clamp_hi(seed.tags),
                gea_core::compare::CompareOp::Intersect => a.min(b).may_be_empty(),
                gea_core::compare::CompareOp::Difference => a.may_be_empty(),
            };
            env.insert(name.clone(), rows);
            (
                rows,
                a.hi.saturating_add(b.hi).saturating_mul(model.scan_weight),
            )
        }
        GqlCommand::Show { name, n, .. } => {
            let input = seed.lookup(env, name);
            let rows = input.clamp_hi(*n as u64);
            (rows, (*n as u64).max(1))
        }
        GqlCommand::Plot { dataset, .. } => {
            let input = seed.lookup(env, dataset);
            (input, input.hi.saturating_mul(model.scan_weight))
        }
        GqlCommand::Library(_) => (Interval::point(1), 1),
        GqlCommand::TagFreq { dataset, .. } => {
            let input = seed.lookup(env, dataset);
            (input, input.hi.saturating_mul(model.scan_weight))
        }
        GqlCommand::Export { name, .. } => {
            let rows = seed.lookup(env, name);
            (rows, rows.hi.saturating_mul(model.io_weight))
        }
        GqlCommand::Comment { .. } => (Interval::point(1), 1),
        GqlCommand::Delete { .. } => (Interval::point(0), 1),
        GqlCommand::Populate { name, from: None } => {
            let rows = seed.lookup(env, name);
            (rows, rows.hi.saturating_mul(model.populate_scan_weight))
        }
        GqlCommand::Populate {
            name,
            from: Some((sumy, dataset)),
        } => {
            let candidates = seed.lookup(env, dataset);
            let constraints = seed.lookup(env, sumy);
            let rows = candidates.may_be_empty();
            env.insert(name.clone(), rows);
            let per_lib = constraints.hi.max(1);
            (
                rows,
                candidates
                    .hi
                    .saturating_mul(per_lib)
                    .saturating_mul(model.populate_scan_weight),
            )
        }
        GqlCommand::Check(cmds) => (Interval::point(cmds.len() as u64), cmds.len() as u64 + 1),
        GqlCommand::Lineage | GqlCommand::Cleaning => (Interval::range(0, seed.libraries), 1),
        GqlCommand::Xprofiler(dataset) => {
            let input = seed.lookup(env, dataset);
            (
                input,
                input
                    .hi
                    .saturating_mul(seed.tags.max(1))
                    .saturating_mul(model.xprofiler_weight)
                    / 8,
            )
        }
        GqlCommand::Save(_) => (
            libs,
            seed.libraries
                .saturating_add(seed.tags)
                .saturating_mul(model.io_weight),
        ),
        GqlCommand::Load(_) => (
            libs,
            seed.libraries
                .saturating_add(seed.tags)
                .saturating_mul(model.io_weight),
        ),
    };
    report.total = report.total.saturating_add(cost);
    report.per_command.push(CommandCost {
        index,
        verb: cmd.verb(),
        rows,
        cost,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmds(script: &str) -> Vec<GqlCommand> {
        script
            .lines()
            .filter_map(|l| match gql::parse(l.trim()) {
                Ok(Some(Request::Gql(cmd))) => Some(cmd),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn intervals_flow_through_a_pipeline() {
        let model = CostModel::default_coefficients();
        let seed = CostSeed::script_default();
        let report = cost_pipeline(
            &model,
            &seed,
            &cmds(
                "dataset e brain\n\
                 select s e L1 L2\n\
                 mine e m 50 3 6\n\
                 topgap g 5\n",
            ),
        );
        assert_eq!(report.per_command.len(), 4);
        // dataset is bounded by the corpus.
        assert_eq!(report.per_command[0].rows, Interval::range(1, 250));
        // select keeps at most its listed libraries.
        assert!(report.per_command[1].rows.hi <= 2);
        // mine yields at most one fascicle per library of its input.
        assert_eq!(report.per_command[2].rows, Interval::range(0, 250));
        // topgap of an unknown gap still caps at x.
        assert!(report.per_command[3].rows.hi <= 5);
        assert!(report.total > 0);
        let rendered = report.render();
        assert!(rendered.contains("predicted cost"));
        assert!(rendered.contains("total:"));
        assert!(rendered.contains("rows 0..250"));
    }

    #[test]
    fn session_seed_uses_real_cardinalities() {
        use gea_sage::clean::CleaningConfig;
        use gea_sage::generate::{generate, GeneratorConfig};
        use gea_sage::TissueType;

        let (corpus, _) = generate(&GeneratorConfig::demo(42));
        let mut session =
            gea_core::session::GeaSession::open(corpus, &CleaningConfig::default()).unwrap();
        session
            .create_tissue_dataset("Eb", &TissueType::Brain)
            .unwrap();
        let seed = CostSeed::from_session(&session);
        assert!(seed.libraries > 0);
        assert!(seed.tags > 0);
        // A session over a prepared matrix has an empty corpus: its
        // libraries are the matrix's.
        let matrix = gea_core::session::GeaSession::open_matrix(
            session.enum_table("SAGE").unwrap().matrix.clone(),
            "demo 42",
        )
        .unwrap();
        assert_eq!(CostSeed::from_session(&matrix).libraries, seed.libraries);
        let model = CostModel::default_coefficients();
        let report = cost_pipeline(&model, &seed, &cmds("export Eb out.csv\n"));
        // The live ENUM's exact row count flows in as a point interval.
        let n = session.enum_table("Eb").unwrap().n_libraries() as u64;
        assert_eq!(report.per_command[0].rows, Interval::point(n));
        assert_eq!(report.per_command[0].cost, n * model.io_weight);
        // And bounds what a `mine` over it can yield, whatever its batch.
        let report = cost_pipeline(&model, &seed, &cmds("mine Eb g 50 2 1\n"));
        assert_eq!(report.per_command[0].rows, Interval::range(0, n));
    }

    #[test]
    fn mine_costs_ignore_batch_and_saturate() {
        let model = CostModel::default_coefficients();
        let seed = CostSeed::script_default();
        let script = |batch: usize| format!("dataset e brain\nmine e m 50 3 {batch}\n");
        let one = cost_pipeline(&model, &seed, &cmds(&script(1)));
        for batch in [2, 64, 1_048_576] {
            assert_eq!(cost_pipeline(&model, &seed, &cmds(&script(batch))), one);
        }
        assert_eq!(one.per_command[1].rows, Interval::range(0, 250));
        assert_eq!(one.per_command[1].cost, 250 * 250 * model.mine_weight);
        // An input too large to square saturates instead of wrapping.
        let vast = CostSeed {
            libraries: u64::MAX,
            ..CostSeed::script_default()
        };
        let huge = cost_pipeline(&model, &vast, &cmds("mine e m 50 3 6\n"));
        assert_eq!(huge.per_command[0].rows, Interval::range(0, u64::MAX));
        assert_eq!(huge.total, u64::MAX);
    }

    #[test]
    fn cost_script_skips_non_gql_lines() {
        let model = CostModel::default_coefficients();
        let seed = CostSeed::script_default();
        let report = cost_script(
            &model,
            &seed,
            "# comment\nload-demo 42\ndataset e brain\n\nnot a command\nquit\n",
        );
        assert_eq!(report.per_command.len(), 1);
        assert_eq!(report.per_command[0].verb, "dataset");
        assert_eq!(report.per_command[0].index, 3, "indexes are script lines");
    }
}
