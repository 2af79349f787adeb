//! Pass 2 — trail/frame balance checker.
//!
//! Every `Trail::mark()` checkpoint taken in a function must be unwound on
//! every exit path (`undo_to`, `truncate`, `retract*`, `pop`) *or* escape
//! into a checkpoint frame that a later `retract_frame` pops (the `FrameLog` protocol from PR 5). Intra-
//! procedurally this pass checks:
//!
//! 1. a function that takes a mark and neither unwinds nor escapes it is
//!    flagged (`mark() without a matching unwind`);
//! 2. an early `return` or `?` between the first retained mark and the last
//!    unwind call is flagged — that exit path skips the rollback.
//!
//! Escapes recognized: the mark is pushed into a frame (`push`/`push_back`
//! appears downstream of a `let`-bound mark, or the mark is a struct-literal
//! field in a function that pushes), the mark is returned to the caller, or
//! the function's signature mentions a `*Mark` type (it *produces* marks).
//! Waive deliberate imbalance with `// lint:allow(trail) <reason>`.

use super::{FileContext, FileKind};
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::source::SourceFile;

/// Identifiers that unwind a checkpoint.
const UNWINDERS: &[&str] = &[
    "undo_to",
    "truncate",
    "retract",
    "retract_frame",
    "restore",
    "unwind",
    "pop",
];

/// Runs the pass over every non-test function.
pub fn run(sf: &SourceFile, ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if ctx.kind != FileKind::Lib {
        return out;
    }
    let toks = &sf.lexed.toks;
    for f in &sf.fns {
        if sf.is_skipped(f.fn_tok) {
            continue;
        }
        // A function whose signature mentions a mark type produces or
        // transports marks; balance is its caller's obligation.
        if toks[f.fn_tok..f.body_open]
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text.ends_with("Mark"))
        {
            continue;
        }
        let (lo, hi) = sf.body_range(f);
        if lo >= hi {
            continue;
        }

        // Collect `.mark()` / `.checkpoint()` call sites.
        let mut retained: Vec<usize> = Vec::new(); // tok index of the ident
        let body_has_push = toks[lo..hi]
            .iter()
            .any(|t| t.kind == TokKind::Ident && (t.text == "push" || t.text == "push_back"));
        for i in lo..hi {
            let t = &toks[i];
            if sf.is_skipped(i)
                || t.kind != TokKind::Ident
                || (t.text != "mark" && t.text != "checkpoint")
                || i == 0
                || toks[i - 1].text != "."
                || toks.get(i + 1).map(|t| t.text.as_str()) != Some("(")
                || toks.get(i + 2).map(|t| t.text.as_str()) != Some(")")
            {
                continue;
            }
            if escapes(sf, lo, i, body_has_push) {
                continue;
            }
            retained.push(i);
        }
        if retained.is_empty() {
            continue;
        }

        // Unwind call sites.
        let unwinds: Vec<usize> = (lo..hi)
            .filter(|&i| {
                let t = &toks[i];
                t.kind == TokKind::Ident
                    && UNWINDERS.contains(&t.text.as_str())
                    && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
            })
            .collect();

        if unwinds.is_empty() {
            for &m in &retained {
                let t = &toks[m];
                if !sf.is_waived("trail", t.line) {
                    out.push(Diagnostic {
                        path: sf.path.clone(),
                        line: t.line,
                        col: t.col,
                        pass: "trail-balance",
                        message: format!(
                            "`{}()` in fn `{}` is never unwound on this path",
                            t.text, f.name
                        ),
                        hint: "pair every mark with undo_to()/truncate()/pop() before \
                               the function exits, or store it in a checkpoint frame; \
                               waive with // lint:allow(trail) <reason>"
                            .to_string(),
                    });
                }
            }
            continue;
        }

        // Early exits between the first retained mark and the last unwind
        // skip the rollback on that path.
        let first_mark = *retained.first().expect("retained is nonempty");
        let last_unwind = *unwinds.last().expect("unwinds is nonempty");
        for i in first_mark..last_unwind {
            if sf.is_skipped(i) {
                continue;
            }
            let t = &toks[i];
            let is_exit = (t.kind == TokKind::Ident && t.text == "return")
                || (t.kind == TokKind::Punct
                    && t.text == "?"
                    && toks.get(i + 1).map(|t| t.text.as_str()) != Some("Sized"));
            if is_exit && !sf.is_waived("trail", t.line) {
                out.push(Diagnostic {
                    path: sf.path.clone(),
                    line: t.line,
                    col: t.col,
                    pass: "trail-balance",
                    message: format!(
                        "early exit (`{}`) in fn `{}` between mark() and its unwind",
                        t.text, f.name
                    ),
                    hint: "this exit path leaves the trail above the checkpoint; \
                           unwind before returning, or waive with \
                           // lint:allow(trail) <reason>"
                        .to_string(),
                });
            }
        }
    }
    out
}

/// Whether the mark at token `m` escapes the function (stored in a frame,
/// returned, or bound and later pushed).
fn escapes(sf: &SourceFile, body_lo: usize, m: usize, body_has_push: bool) -> bool {
    let toks = &sf.lexed.toks;
    // Walk back over the method chain (`a.b.mark()` → index of `a`).
    let mut start = m - 1; // the `.`
    loop {
        // start points at `.`; the receiver segment is before it.
        if start == 0 {
            break;
        }
        let prev = start - 1;
        if toks[prev].kind == TokKind::Ident {
            if prev == 0 {
                start = prev;
                break;
            }
            match toks[prev - 1].text.as_str() {
                "." => start = prev - 1,
                _ => {
                    start = prev;
                    break;
                }
            }
        } else if toks[prev].text == ")" || toks[prev].text == "]" {
            // Chained off a call/index — treat the paren as the start.
            start = prev;
            break;
        } else {
            start = prev;
            break;
        }
    }
    if start <= body_lo {
        return false;
    }
    let before = &toks[start - 1];
    // `return expr.mark()` — the caller owns the mark.
    if before.text == "return" {
        return true;
    }
    // Struct-literal field value: `field: expr.mark()` in a fn that pushes
    // frames.
    if before.text == ":" && start >= 2 && toks[start - 2].kind == TokKind::Ident {
        return body_has_push;
    }
    // `let name = expr.mark();` — escaped if the binding flows into a
    // push() later in the body (the frame pattern).
    if before.text == "=" && start >= 2 && toks[start - 2].kind == TokKind::Ident {
        let name = &toks[start - 2].text;
        let is_let = (3..=4).any(|back| {
            start >= back && toks[start - back].kind == TokKind::Ident && {
                let t = &toks[start - back].text;
                t == "let" || t == "mut"
            }
        });
        if is_let && body_has_push {
            // The bound mark must actually be used after the binding.
            return toks[m + 1..]
                .iter()
                .any(|t| t.kind == TokKind::Ident && &t.text == name);
        }
    }
    // Tail expression: the mark is the last meaningful token of the body
    // (the function evaluates to it).
    toks.get(m + 3).map(|t| t.text.as_str()) == Some("}")
}
