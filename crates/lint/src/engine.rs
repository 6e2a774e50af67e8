//! The analysis engine: file classification, `#[cfg(test)]` region
//! tracking, suppression handling, and the two-phase workspace pass.
//!
//! Phase 1 is per-file and pure: lex, extract items, run the token rules,
//! parse and apply suppressions. Its result is content-addressed in the
//! analysis cache (see `cache.rs`) and the files are scattered over the
//! mm-exec executor — the ordered gather plus the final (file, line,
//! rule) sort keep `mmlint` output byte-identical at any `MM_THREADS`.
//! Phase 2 is workspace-global and always fresh: the crate dependency
//! graph from the manifests, the approximate call graph, and the
//! R003/F001/P001/P002 rules (see `graph.rs`), followed by the
//! graph-phase suppression audit (S002).

use crate::cache::{self, CachedFile};
use crate::diag::{Diagnostic, Report, Severity};
use crate::graph::{self, FileSummary};
use crate::items;
use crate::lexer::{self, Lexed};
use crate::manifest::{self, DepSource};
use crate::rules;
use mm_exec::Executor;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Determinism scope of a crate. `Sched` crates (the executor, telemetry,
/// and the bench harness) are allowed wall clocks and unordered
/// containers because their nondeterminism is fenced off from simulation
/// output; everything else must be bit-reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Must produce byte-identical output for any thread count and re-run.
    Deterministic,
    /// Scheduler/observability domain: wall clocks and races tolerated.
    Sched,
}

/// What kind of target a `.rs` file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code (`src/` outside `src/bin/`).
    Lib,
    /// A binary target (`src/bin/`).
    Bin,
    /// Integration tests (`tests/`).
    Test,
    /// Examples (`examples/`).
    Example,
    /// Benches (`benches/`).
    Bench,
}

/// Crate directory names whose scope is [`Scope::Sched`]: timing is their
/// job (bench), or they manage wall-clock-bound machinery the
/// deterministic simulation layer never reads (exec worker stats,
/// telemetry span shims, net serving deadlines).
const SCHED_CRATES: &[&str] = &["bench", "exec", "telemetry", "net"];

/// Classify a workspace-relative path into (crate name, scope, kind).
pub fn classify(rel_path: &str) -> (String, Scope, FileKind) {
    let crate_name = rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("mobility-mm")
        .to_string();
    let scope = if SCHED_CRATES.contains(&crate_name.as_str()) {
        Scope::Sched
    } else {
        Scope::Deterministic
    };
    let kind = if rel_path.contains("/tests/") || rel_path.starts_with("tests/") {
        FileKind::Test
    } else if rel_path.contains("/benches/") || rel_path.starts_with("benches/") {
        FileKind::Bench
    } else if rel_path.contains("/examples/") || rel_path.starts_with("examples/") {
        FileKind::Example
    } else if rel_path.contains("/src/bin/") {
        FileKind::Bin
    } else {
        FileKind::Lib
    };
    (crate_name, scope, kind)
}

/// Everything a token rule may look at for one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    /// Crate directory name (`core`, `exec`, ...) or `mobility-mm`.
    pub crate_name: &'a str,
    /// Determinism scope of the crate.
    pub scope: Scope,
    /// Target kind of the file.
    pub kind: FileKind,
    /// Lexed tokens and comments.
    pub lexed: &'a Lexed,
    /// Extracted fns, calls, and hazard sites (see `items.rs`).
    pub items: &'a items::FileItems,
    /// `(start, end)` line ranges covered by `#[cfg(test)]` items.
    test_ranges: Vec<(u32, u32)>,
}

impl FileCtx<'_> {
    /// Is `line` inside a `#[cfg(test)]` item (or a test-only file)?
    pub fn in_test(&self, line: u32) -> bool {
        self.kind == FileKind::Test
            || self
                .test_ranges
                .iter()
                .any(|&(s, e)| line >= s && line <= e)
    }

    /// Comment text on `line` or in the contiguous comment block directly
    /// above it — where A001 looks for `SAFETY:` / `relaxed-ok:`
    /// justifications (which often wrap over several comment lines).
    pub fn nearby_comment_contains(&self, line: u32, needle: &str) -> bool {
        if self
            .lexed
            .comment_on(line)
            .is_some_and(|c| c.contains(needle))
        {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l > 0 {
            match self.lexed.comment_on(l) {
                Some(c) if c.contains(needle) => return true,
                Some(_) => l -= 1, // keep walking up the comment block
                None => return false,
            }
        }
        false
    }
}

/// Line ranges covered by `#[cfg(test)]` items, computed from the token
/// stream: each attribute claims the following item, brace-balanced (or up
/// to the `;` for a braceless item).
fn test_ranges(lexed: &Lexed) -> Vec<(u32, u32)> {
    let t = &lexed.toks;
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i + 6 < t.len() {
        let is_attr = t[i].text == "#"
            && t[i + 1].text == "["
            && t[i + 2].text == "cfg"
            && t[i + 3].text == "("
            && t[i + 4].text == "test"
            && t[i + 5].text == ")"
            && t[i + 6].text == "]";
        if !is_attr {
            i += 1;
            continue;
        }
        let start_line = t[i].line;
        let mut j = i + 7;
        // Scan to the item's opening brace (or a `;` for braceless items).
        while j < t.len() && t[j].text != "{" && t[j].text != ";" {
            j += 1;
        }
        if j >= t.len() || t[j].text == ";" {
            let end = t.get(j).map_or(start_line, |tok| tok.line);
            ranges.push((start_line, end));
            i = j + 1;
            continue;
        }
        let mut depth = 1i32;
        j += 1;
        while j < t.len() && depth > 0 {
            match t[j].text.as_str() {
                "{" => depth += 1,
                "}" => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        let end = t
            .get(j.saturating_sub(1))
            .map_or(start_line, |tok| tok.line);
        ranges.push((start_line, end));
        i = j;
    }
    ranges
}

/// One parsed `mm-allow` suppression comment.
#[derive(Debug)]
struct Suppression {
    line: u32,
    rule: String,
    used: bool,
}

/// Parse suppressions out of a file's comments. A suppression must be the
/// *start* of its comment: `mm-allow(RULE): reason`. Malformed ones
/// (unknown rule, missing reason) become S001 diagnostics directly.
fn parse_suppressions(path: &str, lexed: &Lexed, diags: &mut Vec<Diagnostic>) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (line, text) in &lexed.comments {
        let Some(rest) = text.strip_prefix("mm-allow(") else {
            continue;
        };
        let s001 = |msg: String| Diagnostic {
            rule: "S001",
            severity: Severity::Error,
            file: path.to_string(),
            line: *line,
            message: msg,
            suppressed: false,
        };
        let Some((rule, after)) = rest.split_once(')') else {
            diags.push(s001(
                "unterminated mm-allow suppression (missing ')')".to_string(),
            ));
            continue;
        };
        let rule = rule.trim();
        if !rules::is_known_rule(rule) {
            diags.push(s001(format!("mm-allow names unknown rule {rule:?}")));
            continue;
        }
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            diags.push(s001(format!(
                "mm-allow({rule}) has no reason — write `mm-allow({rule}): why this is sound`"
            )));
            continue;
        }
        out.push(Suppression {
            line: *line,
            rule: rule.to_string(),
            used: false,
        });
    }
    out
}

/// Phase 1 for one file: lex, extract items, run every token rule, apply
/// token-rule suppressions (same line or the line above — matched ones
/// are *marked*, not dropped), flag unused ones as S001, and hold
/// suppressions naming graph-phase rules for phase 2.
fn analyze_file(rel_path: &str, src: &str) -> CachedFile {
    let (crate_name, scope, kind) = classify(rel_path);
    let lexed = lexer::lex(src);
    let ranges = test_ranges(&lexed);
    let extracted = items::extract(&lexed, &ranges);
    let ctx = FileCtx {
        path: rel_path,
        crate_name: &crate_name,
        scope,
        kind,
        lexed: &lexed,
        items: &extracted,
        test_ranges: ranges,
    };

    let mut diags = Vec::new();
    for rule in rules::RULES {
        if let Some(check) = rule.check {
            check(&ctx, &mut diags);
        }
    }

    let mut meta = Vec::new();
    let mut sups = parse_suppressions(rel_path, &lexed, &mut meta);
    let mut graph_sups = Vec::new();
    sups.retain(|s| {
        if graph::GRAPH_RULES.contains(&s.rule.as_str()) {
            graph_sups.push((s.line, s.rule.clone()));
            false
        } else {
            true
        }
    });
    for d in &mut diags {
        let hit = sups
            .iter_mut()
            .find(|s| s.rule == d.rule && (s.line == d.line || s.line + 1 == d.line));
        if let Some(s) = hit {
            s.used = true;
            d.suppressed = true;
        }
    }
    for s in &sups {
        if !s.used {
            meta.push(Diagnostic {
                rule: "S001",
                severity: Severity::Error,
                file: rel_path.to_string(),
                line: s.line,
                message: format!(
                    "unused suppression: mm-allow({}) matches no diagnostic on this or the next line",
                    s.rule
                ),
                suppressed: false,
            });
        }
    }
    diags.extend(meta);
    CachedFile {
        diags,
        items: extracted,
        graph_sups,
    }
}

/// Lint one source file through phase 1 alone. Suppressed findings are
/// returned with `suppressed: true`; graph-phase rules need the whole
/// workspace and never fire here — use [`analyze_files`] for those.
pub fn analyze_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    analyze_file(rel_path, src).diags
}

/// Lint one `Cargo.toml` (hermeticity rules only — no suppressions:
/// manifests must be clean, not excused).
pub fn analyze_manifest_src(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    rules::check_manifest(rel_path, src, &mut diags);
    diags
}

/// Run the full two-phase pipeline over in-memory `(path, source)` pairs
/// — the workspace analysis without any filesystem. Manifest entries
/// (paths ending in `Cargo.toml`) contribute hermeticity checks and crate
/// dependency edges; with no manifests, call resolution widens to every
/// file. This is what the graph-rule fixtures drive.
pub fn analyze_files(files: &[(&str, &str)], strict_suppress: bool) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    let mut summaries = Vec::new();
    let mut manifests = Vec::new();
    for (rel, src) in files {
        if *rel == "Cargo.toml" || rel.ends_with("/Cargo.toml") {
            diagnostics.extend(analyze_manifest_src(rel, src));
            manifests.push((rel.to_string(), src.to_string()));
            continue;
        }
        let fa = analyze_file(rel, src);
        let (crate_name, scope, kind) = classify(rel);
        diagnostics.extend(fa.diags);
        summaries.push(FileSummary {
            path: rel.to_string(),
            crate_name,
            scope,
            kind,
            items: fa.items,
            graph_sups: fa.graph_sups,
        });
    }
    let crate_deps = crate_deps_from_manifests(&manifests);
    finish_graph_phase(&summaries, &crate_deps, strict_suppress, &mut diagnostics);
    sort_diags(&mut diagnostics);
    diagnostics
}

/// Crate dependency edges (directory-name space) from the manifest
/// sources: `path` deps resolve by their last path component, `workspace`
/// deps through the root `[workspace.dependencies]` table, and the root
/// package's own deps file under the `mobility-mm` pseudo-crate.
fn crate_deps_from_manifests(manifests: &[(String, String)]) -> BTreeMap<String, BTreeSet<String>> {
    let mut name_to_dir: BTreeMap<String, String> = BTreeMap::new();
    for (rel, src) in manifests {
        if rel != "Cargo.toml" {
            continue;
        }
        for dep in &manifest::parse(src).deps {
            if dep.section == "workspace.dependencies" {
                if let Some(dir) = dep.path.as_deref().and_then(|p| p.strip_prefix("crates/")) {
                    name_to_dir.insert(dep.name.clone(), dir.to_string());
                }
            }
        }
    }
    let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (rel, src) in manifests {
        let crate_name = if rel == "Cargo.toml" {
            "mobility-mm".to_string()
        } else {
            match rel
                .strip_prefix("crates/")
                .and_then(|r| r.split('/').next())
            {
                Some(dir) => dir.to_string(),
                None => continue,
            }
        };
        let deps = out.entry(crate_name).or_default();
        for dep in &manifest::parse(src).deps {
            if dep.section != "dependencies" {
                continue;
            }
            match dep.source {
                DepSource::Path => {
                    if let Some(dir) = dep.path.as_deref().and_then(|p| p.rsplit('/').next()) {
                        deps.insert(dir.to_string());
                    }
                }
                DepSource::Workspace => {
                    if let Some(dir) = name_to_dir.get(&dep.name) {
                        deps.insert(dir.clone());
                    }
                }
                DepSource::External => {}
            }
        }
    }
    out
}

/// Phase 2: run the graph rules, apply the held graph-phase suppressions
/// (marking, like phase 1), and audit stale ones as S002 — advisory by
/// default, gate-failing under `--strict-suppress`.
fn finish_graph_phase(
    summaries: &[FileSummary],
    crate_deps: &BTreeMap<String, BTreeSet<String>>,
    strict_suppress: bool,
    diagnostics: &mut Vec<Diagnostic>,
) {
    let mut graph_diags = graph::run_graph_rules(summaries, crate_deps);
    let mut sups: Vec<(usize, u32, &str, bool)> = summaries
        .iter()
        .enumerate()
        .flat_map(|(i, s)| {
            s.graph_sups
                .iter()
                .map(move |(line, rule)| (i, *line, rule.as_str(), false))
        })
        .collect();
    for d in &mut graph_diags {
        let hit = sups.iter_mut().find(|(i, line, rule, _)| {
            summaries[*i].path == d.file
                && *rule == d.rule
                && (*line == d.line || *line + 1 == d.line)
        });
        if let Some(s) = hit {
            s.3 = true;
            d.suppressed = true;
        }
    }
    diagnostics.append(&mut graph_diags);
    for (i, line, rule, used) in sups {
        if !used {
            diagnostics.push(Diagnostic {
                rule: "S002",
                severity: if strict_suppress {
                    Severity::Error
                } else {
                    Severity::Warn
                },
                file: summaries[i].path.clone(),
                line,
                message: format!(
                    "unused suppression: mm-allow({rule}) matches no workspace-analysis \
                     diagnostic on this or the next line — prune it"
                ),
                suppressed: false,
            });
        }
    }
}

/// The deterministic report order.
fn sort_diags(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(b.rule))
    });
}

/// Directory names never descended into: build output (which also hosts
/// the default cache dir), VCS state, and lint fixture files (which
/// contain violations on purpose).
const SKIP_DIRS: &[&str] = &["target", "fixtures", "node_modules"];

/// Recursively collect workspace files, sorted for deterministic reports.
fn walk(dir: &Path, root: &Path, files: &mut Vec<(String, PathBuf)>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name) {
                continue;
            }
            walk(&path, root, files)?;
        } else if name == "Cargo.toml" || name == "build.rs" || name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push((rel, path.clone()));
        }
    }
    Ok(())
}

/// Knobs for a workspace analysis.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Directory for the content-addressed phase-1 cache; `None` disables
    /// caching (the library default — `mmlint` passes
    /// `<root>/target/mmlint-cache` unless `--no-cache`).
    pub cache_dir: Option<PathBuf>,
    /// Escalate S002 (stale graph-phase suppressions) to an error.
    pub strict_suppress: bool,
}

/// Lint the whole workspace rooted at `root` with default options.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    analyze_workspace_with(root, &LintOptions::default())
}

/// Lint the whole workspace rooted at `root`. Phase 1 scatters per-file
/// work over the ambient executor (`MM_THREADS`); the ordered gather and
/// the final sort keep the report byte-identical at any thread count and
/// any cache state.
pub fn analyze_workspace_with(root: &Path, opts: &LintOptions) -> std::io::Result<Report> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;

    let mut diagnostics = Vec::new();
    let mut manifests: Vec<(String, String)> = Vec::new();
    let mut rs_files: Vec<(String, PathBuf)> = Vec::new();
    for (rel, path) in files {
        if rel == "Cargo.toml" || rel.ends_with("/Cargo.toml") {
            let src = std::fs::read_to_string(&path)?;
            diagnostics.extend(analyze_manifest_src(&rel, &src));
            manifests.push((rel, src));
        } else if rel.ends_with("build.rs") && !rel.contains("/src/") {
            // A build script's existence alone breaks hermeticity: it runs
            // arbitrary host code at compile time.
            diagnostics.push(Diagnostic {
                rule: "Z001",
                severity: Severity::Error,
                file: rel.clone(),
                line: 1,
                message: "build.rs is forbidden: the workspace builds hermetically with no \
                          compile-time codegen"
                    .to_string(),
                suppressed: false,
            });
        } else {
            rs_files.push((rel, path));
        }
    }
    let manifests_scanned = manifests.len();
    let files_scanned = rs_files.len();
    let crate_deps = crate_deps_from_manifests(&manifests);

    // An unusable cache dir silently disables caching: correctness never
    // depends on it.
    let cache_dir: Option<PathBuf> = opts
        .cache_dir
        .as_ref()
        .and_then(|d| std::fs::create_dir_all(d).ok().map(|()| d.clone()));

    let exec = Executor::from_env();
    type Outcome = Result<(String, CachedFile, bool), String>;
    let outcomes: Vec<Outcome> = exec.scatter_gather(rs_files, |_, (rel, path)| {
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{rel}: {e}"))?;
        if let Some(dir) = &cache_dir {
            let k = cache::key(&rel, &src);
            if let Some(mut hit) = cache::load(dir, k) {
                for d in &mut hit.diags {
                    d.file.clone_from(&rel);
                }
                return Ok((rel, hit, true));
            }
            let fresh = analyze_file(&rel, &src);
            cache::store(dir, k, &fresh);
            Ok((rel, fresh, false))
        } else {
            let fresh = analyze_file(&rel, &src);
            Ok((rel, fresh, false))
        }
    });

    let mut summaries = Vec::new();
    let mut cache_hits = 0usize;
    for outcome in outcomes {
        let (rel, fa, hit) = outcome.map_err(std::io::Error::other)?;
        cache_hits += usize::from(hit);
        diagnostics.extend(fa.diags);
        let (crate_name, scope, kind) = classify(&rel);
        summaries.push(FileSummary {
            path: rel,
            crate_name,
            scope,
            kind,
            items: fa.items,
            graph_sups: fa.graph_sups,
        });
    }
    finish_graph_phase(
        &summaries,
        &crate_deps,
        opts.strict_suppress,
        &mut diagnostics,
    );
    sort_diags(&mut diagnostics);
    Ok(Report {
        diagnostics,
        files_scanned,
        manifests_scanned,
        cache_hits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_workspace_shapes() {
        let (name, scope, kind) = classify("crates/core/src/ue.rs");
        assert_eq!(
            (name.as_str(), scope, kind),
            ("core", Scope::Deterministic, FileKind::Lib)
        );
        let (name, scope, kind) = classify("crates/exec/src/lib.rs");
        assert_eq!(
            (name.as_str(), scope, kind),
            ("exec", Scope::Sched, FileKind::Lib)
        );
        let (_, _, kind) = classify("crates/experiments/src/bin/mmx.rs");
        assert_eq!(kind, FileKind::Bin);
        let (name, _, kind) = classify("tests/determinism.rs");
        assert_eq!((name.as_str(), kind), ("mobility-mm", FileKind::Test));
        let (_, _, kind) = classify("examples/quickstart.rs");
        assert_eq!(kind, FileKind::Example);
        let (_, scope, kind) = classify("crates/bench/benches/lint.rs");
        assert_eq!((scope, kind), (Scope::Sched, FileKind::Bench));
        // The storage layer is library code under the full deterministic
        // discipline (no HashMap iteration order, no wall clock).
        let (name, scope, kind) = classify("crates/store/src/block.rs");
        assert_eq!(
            (name.as_str(), scope, kind),
            ("store", Scope::Deterministic, FileKind::Lib)
        );
        // The event engine lives in netsim, not in the scheduling crates:
        // it interleaves UE streams but must itself stay fully
        // deterministic (golden-hash gated), so the strict scope applies.
        let (name, scope, kind) = classify("crates/netsim/src/sched.rs");
        assert_eq!(
            (name.as_str(), scope, kind),
            ("netsim", Scope::Deterministic, FileKind::Lib)
        );
    }

    #[test]
    fn cfg_test_region_is_excluded() {
        let src = "pub fn lib_code() { v.unwrap() }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { v.unwrap() }\n\
                   }\n";
        let diags = analyze_source("crates/core/src/x.rs", src);
        let e001: Vec<_> = diags.iter().filter(|d| d.rule == "E001").collect();
        assert_eq!(e001.len(), 1, "{diags:?}");
        assert_eq!(e001[0].line, 1);
    }

    #[test]
    fn suppressions_mark_without_dropping() {
        let src = "pub fn f() {\n\
                   v.unwrap(); // mm-allow(E001): infallible by construction\n\
                   // mm-allow(E001): checked above\n\
                   w.unwrap();\n\
                   x.unwrap();\n\
                   }\n";
        let diags = analyze_source("crates/core/src/x.rs", src);
        let active: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "E001" && !d.suppressed)
            .collect();
        assert_eq!(active.len(), 1, "{diags:?}");
        assert_eq!(active[0].line, 5);
        // The two suppressed findings stay in the report, marked.
        let quiet = diags
            .iter()
            .filter(|d| d.rule == "E001" && d.suppressed)
            .count();
        assert_eq!(quiet, 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule != "S001"));
    }

    #[test]
    fn reasonless_and_unknown_and_unused_suppressions_are_s001() {
        let src = "// mm-allow(E001)\n\
                   // mm-allow(Q999): no such rule\n\
                   // mm-allow(D001): nothing here to suppress\n\
                   pub fn f() {}\n";
        let diags = analyze_source("crates/core/src/x.rs", src);
        let s001: Vec<_> = diags.iter().filter(|d| d.rule == "S001").collect();
        assert_eq!(s001.len(), 3, "{diags:?}");
    }

    #[test]
    fn doc_comments_mentioning_the_syntax_are_not_suppressions() {
        // The marker only counts at the start of a comment, so prose like
        // this line (or rustdoc) never parses as a suppression.
        let src = "/// Suppress with `mm-allow(E001): reason` on the line.\npub fn f() {}\n";
        let diags = analyze_source("crates/core/src/x.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn graph_rules_fire_through_analyze_files_and_suppress() {
        let entry = "fn main() { go(); }\n";
        let lib = "pub fn go(v: &[u64], i: u32) -> u64 {\n\
                   // mm-allow(P002): i is a validated event code < 10\n\
                   v[i as usize]\n\
                   }\n\
                   pub fn also(v: &[u64], i: u32) -> u64 { go(v, i); v[i as usize] }\n";
        let files = [
            ("crates/experiments/src/bin/mmx.rs", entry),
            ("crates/netsim/src/sched.rs", lib),
        ];
        let diags = analyze_files(&files, false);
        let p002: Vec<(u32, bool)> = diags
            .iter()
            .filter(|d| d.rule == "P002")
            .map(|d| (d.line, d.suppressed))
            .collect();
        // Line 3 is suppressed (comment above); line 5 fires — but `also`
        // is unreachable from main, so only the suppressed one exists.
        assert_eq!(p002, vec![(3, true)], "{diags:?}");
        assert!(diags.iter().all(|d| d.rule != "S002"), "{diags:?}");
    }

    #[test]
    fn stale_graph_suppressions_become_s002_and_strict_escalates() {
        let files = [(
            "crates/netsim/src/sched.rs",
            "// mm-allow(F001): nothing here any more\npub fn quiet() {}\n",
        )];
        let relaxed = analyze_files(&files, false);
        let s002: Vec<_> = relaxed.iter().filter(|d| d.rule == "S002").collect();
        assert_eq!(s002.len(), 1, "{relaxed:?}");
        assert_eq!(s002[0].severity, Severity::Warn);
        let strict = analyze_files(&files, true);
        let s002: Vec<_> = strict.iter().filter(|d| d.rule == "S002").collect();
        assert_eq!(s002[0].severity, Severity::Error);
    }

    #[test]
    fn manifests_feed_crate_deps_into_resolution() {
        let root = "[workspace]\nmembers = [\"crates/*\"]\n\
                    [workspace.dependencies]\n\
                    mmnetsim = { path = \"crates/netsim\" }\n\
                    mm-store = { path = \"crates/store\" }\n";
        let exp_manifest = "[package]\nname = \"mmexperiments\"\n\
                            [dependencies]\nmmnetsim.workspace = true\n";
        let files = [
            ("Cargo.toml", root),
            ("crates/experiments/Cargo.toml", exp_manifest),
            (
                "crates/experiments/src/bin/mmx.rs",
                "fn main() { helper(); }\n",
            ),
            (
                "crates/netsim/src/x.rs",
                "pub fn helper() { panic!(\"dep\") }\n",
            ),
            (
                "crates/store/src/y.rs",
                "pub fn helper() { panic!(\"not a dep\") }\n",
            ),
        ];
        let diags = analyze_files(&files, false);
        let p001: Vec<&str> = diags
            .iter()
            .filter(|d| d.rule == "P001")
            .map(|d| d.file.as_str())
            .collect();
        assert_eq!(p001, vec!["crates/netsim/src/x.rs"], "{diags:?}");
    }
}
