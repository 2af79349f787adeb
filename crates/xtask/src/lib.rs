//! `steiner-lint`: workspace-native static analysis for the minimal-steiner
//! engine.
//!
//! Four project-specific passes enforce, at build time, the invariants the
//! engine's correctness and performance claims rest on:
//!
//! 1. **hotpath-alloc** — no allocating constructs inside the designated
//!    classify/branch/descend/retract hot paths (PR 2's zero-allocation
//!    invariant; Theorem 17's linear-delay contract).
//! 2. **trail-balance** — every `Trail` mark taken in a function is
//!    unwound on every exit path or escapes into a checkpoint frame
//!    (PR 5's descend/retract protocol).
//! 3. **determinism** / **panic-hygiene** — no clock, environment, or
//!    process access outside sanctioned sites; no unwrap/panic in library
//!    code without a documented invariant (PR 3/5/6's byte-identical
//!    stream guarantees and the service layer's typed-error contract).
//! 4. **unsafe-audit** / **lock-discipline** — every `unsafe` carries a
//!    `SAFETY:` comment, unsafe-free crates deny unsafe, and the service
//!    layer never blocks on a channel while holding a scheduler lock.
//!
//! The workspace run also reports a stale hot-path list (**hot-list**): an
//! entry naming a missing file, or a function its file does not define,
//! would otherwise drop out of pass 1 unnoticed.
//!
//! Waiver grammar: `// lint:allow(rule) <reason>` on the finding's line or
//! the line above; the reason is mandatory. `expect`/`unreachable` messages
//! and `SAFETY:` comments are the in-band waiver forms of their rules.
//!
//! Run as `cargo run -p xtask --release -- lint`. The golden-file fixture
//! suite under `tests/fixtures/` pins each pass's diagnostics exactly.

#![deny(unsafe_code)]

pub mod diag;
pub mod lexer;
pub mod passes;
pub mod source;
pub mod workspace;

pub use diag::Diagnostic;
pub use workspace::{find_root, lint_fixture, lint_workspace};
