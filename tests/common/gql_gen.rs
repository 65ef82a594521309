//! A seeded generator of well-formed GQL lines, enumerated from the
//! grammar table `gql::VERBS`: every slot of every form is filled from a
//! vocabulary, so the batteries send the lines the grammar accepts, and a
//! new verb or slot reaches them without a hand-written copy of its
//! syntax.
//!
//! Name slots draw from the caller's live names unless the generator has
//! words for that placeholder (`<tissue>`, `<tag>`, `<k%>`, …), which a
//! battery may set with [`GqlGen::with`].

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use gea_server::gql::{self, Form, GqlCommand, Request, Slot, VerbSpec, VERBS};

/// How a generated line treats optional groups and lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Every optional group absent, every list at its shortest.
    Minimal,
    /// Every optional group present, lists of random length.
    Full,
    /// Optional groups present or not at random, lists of random length.
    Random,
}

/// Seeded well-formed GQL lines.
pub struct GqlGen {
    rng: SmallRng,
    vocab: Vec<(&'static str, Vec<String>)>,
}

/// The grammar's declaration of `verb`.
pub fn spec(verb: &str) -> &'static VerbSpec {
    VERBS
        .iter()
        .find(|v| v.name == verb)
        .unwrap_or_else(|| panic!("no verb {verb:?} in the grammar"))
}

/// Join a verb and its tokens into a line, quoting any token the tokenizer
/// would otherwise split or lose.
pub fn join(verb: &str, tokens: &[String]) -> String {
    let mut line = verb.to_string();
    for token in tokens {
        line.push(' ');
        if token.is_empty() || token.contains(|c: char| c.is_whitespace() || c == '"') {
            line.push('"');
            line.push_str(&token.replace('\\', "\\\\").replace('"', "\\\""));
            line.push('"');
        } else {
            line.push_str(token);
        }
    }
    line
}

impl GqlGen {
    /// A generator seeded with `seed`, with words for the slots whose
    /// values a demo corpus fixes: tissues, tags, mining backends and the
    /// positional `mine` parameters.
    pub fn new(seed: u64) -> GqlGen {
        GqlGen {
            rng: SmallRng::seed_from_u64(seed),
            vocab: Vec::new(),
        }
        .with("<tissue>", &["brain", "breast", "prostate"])
        .with("<tag>", &["AAAAAAAAAA", "ACGTACGTAC", "TTTTTTTTTT"])
        .with("<algo>", &["fascicles", "isa", "simplex"])
        .with("<k%>", &["50", "70", "90"])
        .with("<min>", &["2", "3"])
        .with("<batch>", &["1", "6"])
        .with("<word>", &["looks", "real", "pass"])
    }

    /// Draw `placeholder`'s slots from `words` instead.
    pub fn with(mut self, placeholder: &'static str, words: &[&str]) -> GqlGen {
        self.vocab.retain(|(p, _)| *p != placeholder);
        let words = words.iter().map(|w| w.to_string()).collect();
        self.vocab.push((placeholder, words));
        self
    }

    /// The generator's random source, for a battery's own draws.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// A well-formed line of `verb` in a random form, its name slots drawn
    /// from `names` (the caller's live tables).
    pub fn line(&mut self, verb: &str, names: &[String]) -> String {
        let spec = spec(verb);
        let form = &spec.forms[self.rng.gen_range(0..spec.forms.len())];
        join(spec.name, &self.tokens(form, names, Shape::Random))
    }

    /// One step of a randomized battery over one session: a line of a verb
    /// drawn from `verbs`, its name slots drawn from the tables created so
    /// far (`live`) and a name that does not exist, so some steps fail on
    /// purpose. A `dataset` creates `fresh` instead, which joins `live`; a
    /// cascading `delete` retires its table.
    pub fn step(&mut self, verbs: &[&str], fresh: String, live: &mut Vec<String>) -> String {
        let verb = verbs[self.rng.gen_range(0..verbs.len())];
        if verb == "dataset" {
            live.push(fresh.clone());
            return self.line(verb, &[fresh]);
        }
        let mut names = live.clone();
        names.push("nosuch".to_string());
        let line = self.line(verb, &names);
        if let Ok(Some(Request::Gql(GqlCommand::Delete {
            name,
            cascade: true,
        }))) = gql::parse(&line)
        {
            live.retain(|n| *n != name);
        }
        line
    }

    /// The tokens of a well-formed line of `form`, shaped by `shape`.
    pub fn tokens(&mut self, form: &Form, names: &[String], shape: Shape) -> Vec<String> {
        let mut out = Vec::new();
        for slot in form.slots {
            self.fill(slot, names, shape, &mut out);
        }
        out
    }

    /// How many of a list of at least `min` a line of `shape` gives.
    fn count(&mut self, min: usize, shape: Shape) -> usize {
        match shape {
            Shape::Minimal => min,
            _ => self.rng.gen_range(min..=min + 2),
        }
    }

    fn pick(&mut self, words: &[String]) -> String {
        words[self.rng.gen_range(0..words.len())].clone()
    }

    fn fill(&mut self, slot: &Slot, names: &[String], shape: Shape, out: &mut Vec<String>) {
        match *slot {
            Slot::Lit(word) => out.push(word.to_string()),
            Slot::Alt { words, .. } => out.push(words[self.rng.gen_range(0..words.len())].into()),
            Slot::Num { domain, .. } => {
                let gea_mine::ParamDomain::UInt { min, max } = domain else {
                    panic!("a Num slot's domain is an integer range");
                };
                out.push(self.rng.gen_range(min..=max.min(min + 15)).to_string());
            }
            Slot::Opt { slots, .. } => {
                let present = match shape {
                    Shape::Minimal => false,
                    Shape::Full => true,
                    Shape::Random => self.rng.gen_bool(0.5),
                };
                for slot in slots.iter().filter(|_| present) {
                    self.fill(slot, names, shape, out);
                }
            }
            // `check`'s pipeline: algebra lines between bare `;` tokens.
            Slot::Many {
                show: "<cmd> [; <cmd>]...",
                ..
            } => {
                let algebra: Vec<&VerbSpec> = VERBS
                    .iter()
                    .filter(|v| v.effect.is_some() && v.name != "check")
                    .collect();
                for i in 0..self.count(1, shape) {
                    if i > 0 {
                        out.push(";".to_string());
                    }
                    let sub = algebra[self.rng.gen_range(0..algebra.len())];
                    let form = &sub.forms[self.rng.gen_range(0..sub.forms.len())];
                    out.push(sub.name.to_string());
                    out.extend(self.tokens(form, names, shape));
                }
            }
            Slot::Many { min, each, .. } => {
                for _ in 0..self.count(min, shape) {
                    self.fill(each, names, shape, out);
                }
            }
            Slot::Tag(show) | Slot::Name(show) => self.name(show, names, out),
        }
    }

    /// A word for a name-like slot: its placeholder's vocabulary, a
    /// parameter of the backend named just before it, or a live name.
    fn name(&mut self, show: &str, names: &[String], out: &mut Vec<String>) {
        if let Some((_, words)) = self.vocab.iter().find(|(p, _)| *p == show) {
            let words = words.clone();
            return out.push(self.pick(&words));
        }
        if show == "key=val" {
            // A parameter the line has not set yet, at its default.
            let algo = out.iter().rev().find_map(|t| gea_mine::backend(t));
            let set = |key: &str| {
                out.iter()
                    .any(|t| t.split_once('=').is_some_and(|(k, _)| k == key))
            };
            let unset: Vec<String> = (algo.expect("key=val follows a backend").params().iter())
                .filter(|p| !set(p.key))
                .map(|p| format!("{}={}", p.key, p.default))
                .collect();
            if !unset.is_empty() {
                out.push(self.pick(&unset));
            }
            return;
        }
        match names {
            [] => out.push("t0".to_string()),
            names => {
                let name = self.pick(names);
                out.push(name);
            }
        }
    }
}
