//! # mm-lint — determinism & hermeticity static analysis
//!
//! The workspace's core claim is that every table and figure of the
//! IMC'18 mobility-configuration study is byte-identical for any
//! `MM_THREADS` and any re-run. Runtime spot-checks (golden FNV hashes,
//! `MM_THREADS=1` vs `8` snapshot diffs) only cover the paths the test
//! seeds exercise; this crate enforces the invariants *statically* over
//! every `.rs` file and `Cargo.toml` in the workspace, so a stray
//! `HashMap` iteration or `Instant::now()` in a Sim-scope path cannot
//! silently break reproducibility.
//!
//! The pipeline is deliberately parser-free and runs in two phases. The
//! per-file phase: a comment/string-aware [`lexer`] turns each file into
//! a token stream, [`engine`] classifies the file (crate, determinism
//! scope, target kind) and tracks `#[cfg(test)]` regions, every
//! token-level [`rules::Rule`] is a pattern over that stream, and
//! [`items`] extracts a per-function summary (calls made, float
//! reductions, panic macros, cast subscripts, `stream_rng` labels). The
//! workspace-global phase: [`graph`] joins those summaries with the
//! crate-dependency closure from a minimal [`manifest`] reader into an
//! approximate call graph, and runs the cross-file semantic rules — RNG
//! stream discipline (R-rules), float determinism on scatter-reachable
//! paths (F001), and panic reachability from binary entry points
//! (P001/P002).
//!
//! The per-file analyses are scattered over the mm-exec pool with output
//! byte-identical at any `MM_THREADS`. Findings can be silenced inline with
//! `mm-allow(RULE): reason` at the start of a comment on the same line or
//! the line above — suppressed diagnostics are marked, not dropped, and
//! reasonless, unknown-rule, or stale suppressions are themselves errors
//! (S001 for token rules, S002 for graph rules), so the suppression
//! inventory stays honest.
//!
//! The `mmlint` binary runs the whole workspace (human or `--json`
//! output, `--explain RULE` for rationale) and is gated in
//! `scripts/verify.sh` alongside clippy.

#![forbid(unsafe_code)]

pub mod diag;
pub mod engine;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod manifest;
pub mod rules;

pub use diag::{Diagnostic, Report, Severity};
pub use engine::{analyze_files, analyze_manifest_src, analyze_source, analyze_workspace};
pub use rules::{is_known_rule, rule_by_id, RULES};
