//! Set-up and command streams.
//!
//! [`prepare`] is what the analyst does before the timed window: open the
//! session, build the data sets, walk the `k%` ladder to a fascicle that
//! `groups` accepts, and run the warm-up pass. It is written once against
//! [`Target`], so the wire deployment, the direct server behind a routed
//! run and the in-process oracle execute the identical adaptive sequence
//! and their transcripts can be compared byte for byte.

use gea_server::gql::{self, GqlCommand, Request};
use gea_server::wire::Reply;
use gea_server::EffectTable;

use crate::names::{Scale, Shape, Workload};
use crate::rng::Rng;

/// The session every workload works in.
pub const SESSION: &str = "s";

/// Stands for the iteration index in command and reply templates.
pub const ITER: char = '\u{1}';

/// Name prefixes an iteration creates tables under: `f<i>`, `g<i>`, …
const ITER_PREFIXES: [char; 6] = ['f', 'g', 'P', 'm', 's', 'w'];

/// The index of window iteration `i`, fixed-width so reply column widths
/// do not change with it.
pub fn iter_tag(i: usize) -> String {
    format!("{i:05}")
}

/// The index of the pipeline `read_hot` and `mixed_rw` leave in place:
/// `fbase_1`, `gbase`, `gbase_20`, … No window iteration has it.
const IN_PLACE: &str = "base";

/// Something that answers GQL lines: a wire connection or the oracle.
pub trait Target {
    /// Open session [`SESSION`] over `source`.
    fn open(&mut self, source: &Source) -> Result<(), String>;
    fn request(&mut self, line: &str) -> Reply;
}

/// Where the session's corpus comes from.
#[derive(Debug, Clone)]
pub enum Source {
    /// `open s demo <seed>`.
    Demo(u64),
    /// `open s dir <dir>` over a corpus the bench generated and wrote.
    Dir {
        dir: String,
        /// The 12 deepest brain libraries: `custom D …`.
        deep_brain: Vec<String>,
    },
}

/// One command of a stream, classified once.
#[derive(Debug, Clone)]
pub struct Op {
    /// The request line; [`ITER`] stands for the iteration index.
    pub line: String,
    /// Histogram key: the GQL verb, or the backend for `mine … with`.
    pub verb: &'static str,
    /// `EffectTable::of(cmd).is_cacheable()`: counts as a read.
    pub cacheable: bool,
}

impl Op {
    pub fn new(line: String) -> Op {
        let cmd = parse_gql(&line.replace(ITER, "0"));
        let verb = match &cmd {
            GqlCommand::MineWith { algo, .. } if algo == "isa" => "isa",
            GqlCommand::MineWith { algo, .. } if algo == "simplex" => "simplex",
            other => other.verb(),
        };
        Op {
            cacheable: EffectTable::of(&cmd).is_cacheable(),
            verb,
            line,
        }
    }

    pub fn at(&self, tag: &str) -> String {
        self.line.replace(ITER, tag)
    }
}

/// Parse a line the bench itself generated.
pub fn parse_gql(line: &str) -> GqlCommand {
    match gql::parse(line) {
        Ok(Some(Request::Gql(cmd))) => cmd,
        other => panic!("bench command {line:?} is not a GQL command: {other:?}"),
    }
}

/// Ops and the replies the warm-up pass got for them, as templates.
#[derive(Debug, Clone, Default)]
pub struct Stream {
    pub ops: Vec<Op>,
    pub expected: Vec<String>,
}

impl Stream {
    /// The reply iteration `tag` must produce for op `k`.
    pub fn expected_at(&self, k: usize, tag: &str) -> String {
        self.expected[k].replace(ITER, tag)
    }
}

/// Everything the window and the probes need to know about a prepared
/// session.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// The mined data set: `D` at thesis scale, `E` at demo scale.
    pub dataset: String,
    /// The rung of the ladder that produced a usable fascicle.
    pub k_pct: usize,
    /// One whole pipeline iteration, first `mine` to last `delete`.
    /// `expected` is filled only where the window replays it.
    pub iteration: Stream,
    /// The read key set: 64 Zipf-ranked keys, or the 8 reader keys.
    pub reads: Stream,
    /// The writer's `gap → topgap → delete` cycle.
    pub writer: Stream,
}

/// `(line, reply)` in the order sent.
pub type Transcript = Vec<(String, Reply)>;

struct Recorder<'a, T: Target> {
    target: &'a mut T,
    transcript: Transcript,
}

impl<T: Target> Recorder<'_, T> {
    fn send(&mut self, line: &str) -> Reply {
        let reply = self.target.request(line);
        self.transcript.push((line.to_string(), reply.clone()));
        reply
    }

    /// A command the set-up expects to succeed.
    fn ok(&mut self, line: &str) -> Result<String, String> {
        self.send(line)
            .map_err(|(code, msg)| format!("set-up command {line:?} failed: {code} {msg}"))
    }

    /// Run `ops` under `tag`, returning the replies.
    fn run(&mut self, ops: &[Op], tag: &str) -> Result<Vec<String>, String> {
        ops.iter().map(|op| self.ok(&op.at(tag))).collect()
    }
}

/// Replace the table names iteration `tag` made by their templates.
fn to_templates(replies: Vec<String>, tag: &str) -> Vec<String> {
    let one = |reply: String| {
        ITER_PREFIXES.iter().fold(reply, |r, p| {
            r.replace(&format!("{p}{tag}"), &format!("{p}{ITER}"))
        })
    };
    replies.into_iter().map(one).collect()
}

/// Cluster names listed in a `mine` reply (`  <name>: …` lines).
fn mined_names(reply: &str) -> Vec<String> {
    reply
        .lines()
        .filter_map(|l| l.strip_prefix("  ")?.split(':').next())
        .map(str::to_string)
        .collect()
}

/// The `show` row limits the read key set sweeps.
const SHOW_ROWS: [usize; 5] = [3, 10, 30, 100, 300];
/// Size of the `read_hot` key set.
pub const READ_KEYS: usize = 64;

/// Open the session and bring it to the start of the timed window.
pub fn prepare<T: Target>(
    target: &mut T,
    w: &Workload,
    scale: Scale,
    seed: u64,
    source: &Source,
) -> Result<(Plan, Transcript), String> {
    target.open(source)?;
    let mut rec = Recorder {
        target,
        transcript: Vec::new(),
    };
    let dataset = match source {
        Source::Dir { deep_brain, .. } => {
            rec.ok(&format!("custom D {}", deep_brain.join(" ")))?;
            "D"
        }
        Source::Demo(_) => "E",
    };
    rec.ok("dataset E brain")?;

    // The ladder: the first rung with a fascicle `groups` accepts.
    let mut found = None;
    for k in scale.ladder() {
        let names = mined_names(&rec.ok(&format!("mine {dataset} f {k} 3 6"))?);
        for (j, name) in names.iter().enumerate() {
            let purity = rec.ok(&format!("purity {name}"))?;
            let cancer = purity
                .split("pure: ")
                .nth(1)
                .is_some_and(|on| on.split(", ").any(|p| p == "cancer"));
            if cancer && rec.send(&format!("groups {name}")).is_ok() {
                found = Some((k, j + 1));
                break;
            }
        }
        for name in &names {
            rec.ok(&format!("delete {name} --cascade"))?;
        }
        if found.is_some() {
            break;
        }
    }
    let (k_pct, j) = found.ok_or_else(|| {
        format!(
            "seed {seed}: no rung of the ladder {:?} gave a fascicle `groups` accepts",
            scale.ladder()
        )
    })?;

    // One pipeline iteration. The isa/simplex cluster counts, and with
    // them the deletes, are only known once it has run.
    let in_place = w.shape != Shape::Pipeline;
    let first = if in_place {
        IN_PLACE.to_string()
    } else {
        iter_tag(0)
    };
    let f = format!("f{ITER}_{j}");
    let head: Vec<Op> = [
        format!("mine {dataset} f{ITER} {k_pct} 3 6"),
        format!("purity {f}"),
        format!("groups {f}"),
        format!("gap g{ITER} {f}CancerFasTbl {f}NormalTable"),
        format!("topgap g{ITER} 20"),
        format!("show gap g{ITER}_20 20"),
        format!("show sumy {f}CancerFasTbl 50"),
        format!("populate P{ITER} {f}CancerFasTbl E"),
        format!("mine {dataset} m{ITER} with isa seeds=6 t_tags=0.8 t_libs=0.8"),
        format!("mine {dataset} s{ITER} with simplex k=3"),
        format!("xprofiler {dataset}"),
        "lineage".to_string(),
    ]
    .into_iter()
    .map(Op::new)
    .collect();
    let mut expected = to_templates(rec.run(&head, &first)?, &first);
    let deletes: Vec<Op> = head
        .iter()
        .zip(&expected)
        .filter(|(op, _)| matches!(op.verb, "mine" | "isa" | "simplex"))
        .flat_map(|(_, reply)| mined_names(reply))
        .map(|name| Op::new(format!("delete {name} --cascade")))
        .collect();
    if !in_place {
        expected.extend(to_templates(rec.run(&deletes, &first)?, &first));
    }
    let mut plan = Plan {
        dataset: dataset.to_string(),
        k_pct,
        iteration: Stream {
            ops: head.into_iter().chain(deletes).collect(),
            expected,
        },
        ..Plan::default()
    };

    let (f, g) = (format!("f{IN_PLACE}_{j}"), format!("g{IN_PLACE}"));
    match w.shape {
        Shape::Pipeline => {}
        Shape::ZipfReads => {
            let mut keys: Vec<String> = ["lineage", "fascicles", "tissues", "cleaning"]
                .map(str::to_string)
                .to_vec();
            keys.push(format!("purity {f}"));
            keys.push(format!("xprofiler {dataset}"));
            for n in SHOW_ROWS {
                for t in ["CancerFasTbl", "CanNotInFasTbl", "NormalTable"] {
                    keys.push(format!("show sumy {f}{t} {n}"));
                }
                keys.push(format!("show gap {g} {n}"));
            }
            // `tissues` says how many libraries there are; `library`
            // takes ids. Tags come from the fascicle's own SUMY rows.
            let libraries: usize = rec
                .ok("tissues")?
                .lines()
                .filter_map(|l| l.split_whitespace().nth(1)?.parse::<usize>().ok())
                .sum();
            keys.extend((0..libraries.min(21)).map(|id| format!("library {id}")));
            let rows = rec.ok(&format!("show sumy {f}CancerFasTbl 300"))?;
            let tags = rows
                .lines()
                .skip(2)
                .filter_map(|l| l.split_whitespace().next())
                .filter(|t| t.len() == 10);
            let room = READ_KEYS.saturating_sub(keys.len());
            keys.extend(tags.take(room).map(|t| format!("tagfreq E {t}")));
            if keys.len() != READ_KEYS {
                return Err(format!("read key set has {} keys, not 64", keys.len()));
            }
            // Which key is hottest depends on the seed.
            Rng::new(seed).shuffle(&mut keys);
            plan.reads.ops = keys.into_iter().map(Op::new).collect();
            plan.reads.expected = rec.run(&plan.reads.ops, IN_PLACE)?;
        }
        Shape::WriterAndReader => {
            plan.writer.ops = [
                format!("gap w{ITER} {f}CancerFasTbl {f}CanNotInFasTbl"),
                format!("topgap w{ITER} 10"),
                format!("delete w{ITER} --cascade"),
            ]
            .into_iter()
            .map(Op::new)
            .collect();
            let warm_up = iter_tag(0);
            plan.writer.expected = to_templates(rec.run(&plan.writer.ops, &warm_up)?, &warm_up);
            plan.reads.ops = [
                "fascicles".to_string(),
                format!("purity {f}"),
                "tissues".to_string(),
                format!("xprofiler {dataset}"),
                format!("show gap {g} 50"),
                format!("show gap {g}_20 20"),
                format!("show sumy {f}CancerFasTbl 20"),
                format!("show sumy {f}NormalTable 100"),
            ]
            .into_iter()
            .map(Op::new)
            .collect();
            plan.reads.expected = rec.run(&plan.reads.ops, IN_PLACE)?;
        }
    }
    for op in plan.reads.ops.iter() {
        if !op.cacheable {
            return Err(format!("read key {:?} is not cacheable", op.line));
        }
    }
    Ok((plan, rec.transcript))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::workload;
    use crate::oracle::Oracle;

    fn plan_for(name: &str, seed: u64) -> (Plan, Transcript) {
        let w = workload(name).unwrap();
        let mut oracle = Oracle::serial();
        prepare(&mut oracle, w, Scale::Demo, seed, &Source::Demo(seed)).unwrap()
    }

    #[test]
    fn same_seed_same_command_stream() {
        let (a, ta) = plan_for("read_hot", 42);
        let (b, tb) = plan_for("read_hot", 42);
        let lines = |p: &Plan| {
            p.reads
                .ops
                .iter()
                .map(|o| o.line.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(lines(&a), lines(&b));
        assert_eq!(ta, tb);
        let (c, _) = plan_for("read_hot", 7);
        assert_ne!(lines(&a), lines(&c), "the seed ranks the keys");
        assert_eq!(a.reads.ops.len(), READ_KEYS);
        let mut distinct = lines(&a);
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), READ_KEYS);
    }

    #[test]
    fn pipeline_iterations_are_the_warm_up_modulo_the_index() {
        let (plan, _) = plan_for("routed_pipeline", 42);
        let it = &plan.iteration;
        assert_eq!(it.ops.len(), it.expected.len());
        assert_eq!(it.ops[0].at(&iter_tag(3)), "mine E f00003 50 3 6");
        assert!(it
            .expected_at(0, &iter_tag(3))
            .contains("f00003_1: 3 libraries"));
        assert!(it.ops.last().unwrap().line.starts_with("delete s"));
        let verbs: Vec<&str> = it.ops.iter().map(|o| o.verb).collect();
        for v in [
            "mine", "groups", "gap", "topgap", "populate", "isa", "simplex", "delete",
        ] {
            assert!(verbs.contains(&v), "{v} missing from {verbs:?}");
        }
        assert!(it.ops.iter().filter(|o| o.cacheable).count() >= 5);
    }

    #[test]
    fn writer_cycle_leaves_the_reader_keys_alone() {
        let (plan, _) = plan_for("mixed_rw", 42);
        assert_eq!(plan.reads.ops.len(), 8);
        assert_eq!(plan.writer.ops.len(), 3);
        assert!(plan.writer.expected_at(2, &iter_tag(9)).contains("w00009"));
        // The reader's keys name the pipeline left in place, literally.
        assert!(plan.reads.ops.iter().all(|op| !op.line.contains(ITER)));
        assert!(plan.reads.ops[1].line.starts_with("purity fbase_"));
        assert!(plan.reads.expected.iter().all(|r| !r.contains(ITER)));
        // The iteration stays a template the probes can run under any index.
        assert!(plan
            .iteration
            .ops
            .last()
            .unwrap()
            .line
            .starts_with("delete s\u{1}_"));
    }
}
