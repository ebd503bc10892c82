//! `no-twin-entry-points`: each operation has one entry point per layer,
//! parameterised by an execution context (`eval::ExecCtx`: the request's
//! budget and tracer), not a family of suffixed twins. A public function
//! named `*_sharded`, `*_governed` or `*_observed` is a second body for
//! an op that already has one — the shape the execution layers once
//! grew in, with equivalence proptests needed to keep the twins in step.

use super::Rule;
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::source::matching_close;
use crate::workspace::Workspace;

/// All first-party library code.
const SCOPE: &[&str] = &["crates/", "src/"];

/// Name suffixes that mark a twin of an existing entry point.
const TWIN_SUFFIXES: &[&str] = &["_sharded", "_governed", "_observed"];

pub struct NoTwins;

impl Rule for NoTwins {
    fn name(&self) -> &'static str {
        "no-twin-entry-points"
    }

    fn explain(&self) -> &'static str {
        "no pub fn named *_sharded, *_governed or *_observed — give the op one body \
         that takes the execution context instead of a twin per mode"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for file in &ws.files {
            if !ws.in_scope(file, SCOPE) || file.is_test_path() {
                continue;
            }
            let t = &file.tokens;
            for i in 0..t.len() {
                if !t[i].is_ident("pub") || file.is_test_line(t[i].line) {
                    continue;
                }
                // `pub fn` or `pub(…) fn`.
                let mut j = i + 1;
                if t.get(j).is_some_and(|tok| tok.is_open('(')) {
                    j = matching_close(t, j) + 1;
                }
                if !t.get(j).is_some_and(|tok| tok.is_ident("fn")) {
                    continue;
                }
                let Some(name) = t.get(j + 1).filter(|tok| tok.kind == TokKind::Ident) else {
                    continue;
                };
                if let Some(suffix) = TWIN_SUFFIXES.iter().find(|s| name.text.ends_with(*s)) {
                    out.push(Diagnostic {
                        rule: self.name(),
                        file: file.rel.clone(),
                        line: name.line,
                        msg: format!(
                            "`{}` is a `{suffix}` twin entry point — run the op's single \
                             body under an execution context instead",
                            name.text
                        ),
                    });
                }
            }
        }
    }
}
