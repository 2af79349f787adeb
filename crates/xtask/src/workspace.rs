//! Workspace driver: file discovery, per-file contexts (which functions
//! are hot, which crates get the lock audit), the crate-level
//! `#![deny(unsafe_code)]` requirement, and the fixture entry point the
//! golden tests use.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::diag::{sort, Diagnostic};
use crate::lexer::TokKind;
use crate::passes::{run_all, FileContext, FileKind};
use crate::source::SourceFile;

/// The designated hot-path functions, per file: the `classify`/`branch`/
/// `descend`/`retract` impls of the four improved enumerators (the
/// zero-allocation invariant) — `descend`/`retract_frame` run once per
/// path delta, through the shared `BranchRun::follow` mapping, and
/// `doubled_edges` maps each delta's arcs; the undirected problems'
/// `solution` runs once per emission and maps region ids back to graph
/// ids through `RegionIds::globalize` — the Lemma-11/Theorem-12
/// path enumerator that dominates their inner loop (its delta emission
/// is `push_prefix`/`pop_prefix`/`emit`), the engine's own per-node
/// recursion that calls them (`solver.rs`: `recurse`/`recurse_stealing`
/// and `emit`, plus the per-solution `solution` and per-node `tick` impls
/// of the sinks it drives — `ShardSink`, the delivery chain's `Guard`,
/// `InlineBridge` — and the chain end stage's per-delivery `deliver`),
/// and the epoch-engine mutation path (the batch, its graph edits and
/// the incremental fingerprint fold) that runs between queries on the
/// serving graph.
pub const HOT: &[(&str, &[&str])] = &[
    (
        "crates/graph/src/epoch.rs",
        &["insert", "remove", "batch_apply", "apply_insert_fp"],
    ),
    ("crates/graph/src/region.rs", &["globalize"]),
    ("crates/core/src/problem.rs", &["follow"]),
    (
        "crates/core/src/solver.rs",
        &[
            "recurse",
            "recurse_stealing",
            "emit",
            "solution",
            "tick",
            "deliver",
        ],
    ),
    (
        "crates/graph/src/csr.rs",
        &[
            "bit_test",
            "bit_set",
            "bit_clear",
            "bit_assign",
            "bit_take",
            "bits_not",
        ],
    ),
    (
        "crates/core/src/improved.rs",
        &[
            "classify",
            "branch",
            "descend",
            "retract_frame",
            "doubled_edges",
            "solution",
        ],
    ),
    (
        "crates/core/src/forest.rs",
        &[
            "classify",
            "branch",
            "descend_edges",
            "retract_frame",
            "solution",
        ],
    ),
    (
        "crates/core/src/terminal.rs",
        &[
            "classify",
            "branch",
            "descend",
            "retract_frame",
            "extend_current",
            "retract_current",
            "branch_root",
            "branch_terminal",
            "solution",
        ],
    ),
    (
        "crates/core/src/directed.rs",
        &["classify", "branch", "descend", "retract_frame"],
    ),
    (
        "crates/paths/src/enumerate.rs",
        &[
            "e_stp",
            "fstp_prepare",
            "extendible_indices",
            "settle_deferred",
            "push_prefix",
            "pop_prefix",
            "emit",
            "push_ext",
            "qv",
            "qa",
            "mask_removed",
        ],
    ),
];

/// Union of all hot function names — the fixture driver treats every one
/// of these as hot so fixtures can exercise the pass.
pub fn hot_union() -> Vec<&'static str> {
    let mut v: Vec<&'static str> = HOT
        .iter()
        .flat_map(|(_, fns)| fns.iter().copied())
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Lints the whole workspace rooted at `root`. Returns diagnostics in
/// deterministic order.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut diags = Vec::new();
    let mut crates: Vec<(String, PathBuf)> = Vec::new();

    // Member crates.
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut names: Vec<_> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_dir())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        for name in names {
            crates.push((name.clone(), crates_dir.join(&name)));
        }
    }
    // The facade package at the workspace root.
    crates.push(("minimal-steiner".to_string(), root.to_path_buf()));

    for (crate_name, crate_root) in &crates {
        let mut crate_has_unsafe = false;
        for (sub, kind) in [
            ("src", FileKind::Lib),
            ("tests", FileKind::Test),
            ("benches", FileKind::Bench),
            ("examples", FileKind::Example),
        ] {
            let dir = crate_root.join(sub);
            if !dir.is_dir() {
                continue;
            }
            for path in rust_files(&dir)? {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                // Fixture corpora are known-bad by design.
                if rel.contains("tests/fixtures/") {
                    continue;
                }
                // The facade walk must not re-lint member crates.
                if *crate_name == "minimal-steiner" && rel.starts_with("crates/") {
                    continue;
                }
                let src = fs::read_to_string(&path)?;
                let sf = SourceFile::parse(&rel, &src);
                if kind == FileKind::Lib
                    && sf
                        .lexed
                        .toks
                        .iter()
                        .any(|t| t.kind == TokKind::Ident && t.text == "unsafe")
                {
                    crate_has_unsafe = true;
                }
                let hot_fns = HOT
                    .iter()
                    .find(|(p, _)| *p == rel)
                    .map(|(_, fns)| *fns)
                    .unwrap_or(&[]);
                let ctx = FileContext {
                    crate_name,
                    kind,
                    hot_fns,
                    lint_locks: crate_name == "service",
                };
                diags.extend(run_all(&sf, &ctx));
            }
        }
        // Crates with zero unsafe in their library target must say so:
        // #![deny(unsafe_code)] keeps it that way.
        if !crate_has_unsafe {
            let lib_rs = crate_root.join("src/lib.rs");
            let root_file = if lib_rs.is_file() {
                lib_rs
            } else {
                crate_root.join("src/main.rs")
            };
            if root_file.is_file() {
                let src = fs::read_to_string(&root_file)?;
                if !has_deny_unsafe(&src) {
                    let rel = root_file
                        .strip_prefix(root)
                        .unwrap_or(&root_file)
                        .to_string_lossy()
                        .replace('\\', "/");
                    diags.push(Diagnostic {
                        path: rel,
                        line: 1,
                        col: 1,
                        pass: "unsafe-audit",
                        message: format!(
                            "crate `{crate_name}` has no unsafe code but does not deny it"
                        ),
                        hint: "add #![deny(unsafe_code)] to the crate root so it stays \
                               unsafe-free"
                            .to_string(),
                    });
                }
            }
        }
    }
    diags.extend(check_hot_list(root, HOT)?);
    sort(&mut diags);
    Ok(diags)
}

/// Reports every entry of `hot` whose file does not exist under `root`
/// and every hot name that matches no `fn` in its file: the allocation
/// pass only sees the functions the list names, so a deleted or renamed
/// hot function would otherwise silently stop being policed.
pub fn check_hot_list(root: &Path, hot: &[(&str, &[&str])]) -> io::Result<Vec<Diagnostic>> {
    let stale = |path: &str, message: String| Diagnostic {
        path: path.to_string(),
        line: 1,
        col: 1,
        pass: "hot-list",
        message,
        hint: "update `workspace::HOT` to the moved, renamed or deleted code".to_string(),
    };
    let mut diags = Vec::new();
    for &(rel, names) in hot {
        let path = root.join(rel);
        if !path.is_file() {
            diags.push(stale(
                rel,
                format!("HOT lists `{rel}`, which does not exist"),
            ));
            continue;
        }
        let sf = SourceFile::parse(rel, &fs::read_to_string(&path)?);
        for &name in names {
            if !sf.fns.iter().any(|f| f.name == name) {
                diags.push(stale(
                    rel,
                    format!("HOT names `{name}`, but `{rel}` defines no `fn {name}`"),
                ));
            }
        }
    }
    Ok(diags)
}

/// Whether a crate root declares `#![deny(unsafe_code)]` (or the stricter
/// `#![forbid(unsafe_code)]`).
fn has_deny_unsafe(src: &str) -> bool {
    let lexed = crate::lexer::lex(src);
    let t = &lexed.toks;
    (0..t.len().saturating_sub(6)).any(|i| {
        t[i].text == "#"
            && t[i + 1].text == "!"
            && t[i + 2].text == "["
            && (t[i + 3].text == "deny" || t[i + 3].text == "forbid")
            && t[i + 4].text == "("
            && t[i + 5].text == "unsafe_code"
            && t[i + 6].text == ")"
    })
}

/// Lints one fixture file: every pass enabled, every known hot function
/// name treated as hot, lock auditing on. Used by the golden tests.
pub fn lint_fixture(path: &Path) -> io::Result<Vec<Diagnostic>> {
    let src = fs::read_to_string(path)?;
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let sf = SourceFile::parse(&name, &src);
    let hot = hot_union();
    let ctx = FileContext {
        crate_name: "fixture",
        kind: FileKind::Lib,
        hot_fns: &hot,
        lint_locks: true,
    };
    let mut diags = run_all(&sf, &ctx);
    sort(&mut diags);
    Ok(diags)
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<_> = fs::read_dir(&d)?.filter_map(|e| e.ok()).collect();
        entries.sort_by_key(|e| e.file_name());
        for e in entries {
            let p = e.path();
            if p.is_dir() {
                let name = e.file_name();
                if name != "target" && name != "vendor" {
                    stack.push(p);
                }
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Locates the workspace root: an explicit `--root`, else the current
/// directory if it holds a `[workspace]` manifest, else the compiled-in
/// manifest dir's grandparent (crates/xtask → root).
pub fn find_root(explicit: Option<&str>) -> PathBuf {
    if let Some(r) = explicit {
        return PathBuf::from(r);
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if let Ok(manifest) = fs::read_to_string(cwd.join("Cargo.toml")) {
        if manifest.contains("[workspace]") {
            return cwd;
        }
    }
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    here.parent()
        .and_then(|p| p.parent())
        .map(|p| p.to_path_buf())
        .unwrap_or(cwd)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_hot_entries_are_findings() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let bogus: &[(&str, &[&str])] = &[
            ("crates/paths/src/gone.rs", &["e_stp"]),
            (
                "crates/paths/src/enumerate.rs",
                &["e_stp", "f_stp_reference"],
            ),
        ];
        let diags = check_hot_list(&root, bogus).expect("workspace sources are readable");
        let messages: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(
            messages,
            [
                "HOT lists `crates/paths/src/gone.rs`, which does not exist",
                "HOT names `f_stp_reference`, but `crates/paths/src/enumerate.rs` defines no \
                 `fn f_stp_reference`",
            ]
        );
        assert!(diags.iter().all(|d| d.pass == "hot-list"));
        assert!(
            check_hot_list(&root, HOT).expect("readable").is_empty(),
            "the real list names live functions"
        );
    }
}
