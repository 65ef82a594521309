//! The in-process oracle: `gql::parse` + `gea_server::engine::execute` on
//! a serial `GeaSession` over the same corpus. Wire transcripts must match
//! its transcript byte for byte.

use gea_core::session::{ExecConfig, GeaSession};
use gea_sage::clean::CleaningConfig;
use gea_sage::generate::{generate, GeneratorConfig};
use gea_server::engine;
use gea_server::gql::{self, Request};
use gea_server::wire::Reply;

use crate::plan::{Source, Target, Transcript};

pub struct Oracle {
    session: Option<GeaSession>,
}

impl Oracle {
    /// An oracle whose session will run with `threads = 1`.
    pub fn serial() -> Oracle {
        Oracle { session: None }
    }

    /// The session, for the traced run's probes.
    pub fn into_session(self) -> GeaSession {
        self.session.expect("oracle session was opened")
    }
}

impl Target for Oracle {
    fn open(&mut self, source: &Source) -> Result<(), String> {
        let corpus = match source {
            Source::Demo(seed) => generate(&GeneratorConfig::demo(*seed)).0,
            Source::Dir { dir, .. } => gea_sage::io::read_corpus_dir(std::path::Path::new(dir))
                .map_err(|e| format!("oracle cannot read {dir}: {e}"))?,
        };
        let mut session = GeaSession::open(corpus, &CleaningConfig::default())
            .map_err(|e| format!("oracle cannot open its session: {e}"))?;
        session.set_exec_config(ExecConfig::serial());
        self.session = Some(session);
        Ok(())
    }

    fn request(&mut self, line: &str) -> Reply {
        let session = self.session.as_mut().expect("open before request");
        match gql::parse(line) {
            Ok(Some(Request::Gql(cmd))) => engine::execute(session, &cmd)
                // The wire flattens payloads through `lines()`, which
                // drops a trailing newline.
                .map(|payload| payload.lines().collect::<Vec<_>>().join("\n"))
                .map_err(|e| (e.code.to_string(), e.message.replace(['\n', '\r'], " "))),
            Ok(other) => panic!("the oracle only answers GQL commands, not {other:?}"),
            Err(e) => Err(("EPARSE".to_string(), e.0)),
        }
    }
}

/// The first place two transcripts differ, rendered for a failure report.
pub fn first_difference(what: &str, got: &Transcript, want: &Transcript) -> Option<String> {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            return Some(format!(
                "{what} transcript differs at command {i}:\n  sent     {:?}\n  got      {:?}\n  expected {:?} for {:?}",
                g.0, g.1, w.1, w.0
            ));
        }
    }
    (got.len() != want.len()).then(|| {
        format!(
            "{what} transcript has {} commands, expected {}",
            got.len(),
            want.len()
        )
    })
}
