//! Golden-fixture tests: every rule against its positive, suppressed, and
//! clean fixture under `tests/fixtures/`, plus scope/kind exemptions.
//!
//! Fixture files are plain data — the directory is neither a cargo target
//! nor visited by the workspace walk, so the deliberate violations inside
//! never fail the self-check in `tests/workspace.rs`.

use mm_lint::{analyze_files, analyze_manifest_src, analyze_source, Diagnostic};

/// A Deterministic-scope library path (the strictest classification).
const DET_LIB: &str = "crates/core/src/fixture.rs";
/// A Sched-scope library path (wall clocks and unordered maps tolerated).
const SCHED_LIB: &str = "crates/exec/src/fixture.rs";

fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

fn assert_all(diags: &[Diagnostic], rule: &str, at_least: usize) {
    assert!(
        diags.len() >= at_least,
        "expected >= {at_least} {rule} diagnostics, got {:?}",
        rules_of(diags)
    );
    for d in diags {
        assert_eq!(d.rule, rule, "unexpected rule in {:?}", rules_of(diags));
        assert!(d.line > 0, "diagnostic must carry a line");
        assert!(!d.suppressed, "positive fixtures must fire unsuppressed");
    }
}

/// A suppressed fixture's contract: every finding is present but marked
/// `suppressed`, names `rule`, and no S-family audit finding appears —
/// i.e. the file never fails the gate yet stays visible to `--json`.
fn assert_fully_suppressed(diags: &[Diagnostic], rule: &str) {
    assert!(
        !diags.is_empty(),
        "the suppressed finding must stay visible"
    );
    for d in diags {
        assert_eq!(d.rule, rule, "unexpected rule in {:?}", rules_of(diags));
        assert!(d.suppressed, "{} must be marked suppressed", d.human());
    }
}

// ---------------------------------------------------------------- D001

#[test]
fn d001_fires_on_hash_containers_in_deterministic_libs() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/d001_positive.rs"));
    assert_all(&diags, "D001", 2);
}

#[test]
fn d001_suppression_silences_with_reason() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/d001_suppressed.rs"));
    assert_fully_suppressed(&diags, "D001");
}

#[test]
fn d001_clean_btreemap_passes() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/d001_clean.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

#[test]
fn d001_exempts_sched_scope_crates() {
    let diags = analyze_source(SCHED_LIB, include_str!("fixtures/d001_positive.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

#[test]
fn d001_exempts_integration_tests() {
    let path = "crates/core/tests/fixture.rs";
    let diags = analyze_source(path, include_str!("fixtures/d001_positive.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

// ---------------------------------------------------------------- D002

#[test]
fn d002_fires_on_wall_clocks_in_deterministic_libs() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/d002_positive.rs"));
    assert_all(&diags, "D002", 2);
}

#[test]
fn d002_suppression_silences_with_reason() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/d002_suppressed.rs"));
    assert_fully_suppressed(&diags, "D002");
}

#[test]
fn d002_clean_sim_clock_passes() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/d002_clean.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

#[test]
fn d002_exempts_sched_scope_crates() {
    let diags = analyze_source(SCHED_LIB, include_str!("fixtures/d002_positive.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

// ---------------------------------------------------------------- D003

#[test]
fn d003_fires_on_raw_thread_spawn() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/d003_positive.rs"));
    assert_all(&diags, "D003", 1);
}

#[test]
fn d003_suppression_silences_with_reason() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/d003_suppressed.rs"));
    assert_fully_suppressed(&diags, "D003");
}

#[test]
fn d003_clean_executor_code_passes() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/d003_clean.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

#[test]
fn d003_exempts_the_executor_crate() {
    let diags = analyze_source(SCHED_LIB, include_str!("fixtures/d003_positive.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

// ---------------------------------------------------------------- D004

#[test]
fn d004_fires_on_process_exit_in_libraries() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/d004_positive.rs"));
    assert_all(&diags, "D004", 1);
}

#[test]
fn d004_suppression_silences_with_reason() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/d004_suppressed.rs"));
    assert_fully_suppressed(&diags, "D004");
}

#[test]
fn d004_clean_error_return_passes() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/d004_clean.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

#[test]
fn d004_exempts_the_mmx_and_mmq_binaries() {
    for bin in ["src/bin/mmx.rs", "src/bin/mmq.rs"] {
        let diags = analyze_source(bin, include_str!("fixtures/d004_positive.rs"));
        assert!(diags.is_empty(), "{bin}: {:?}", rules_of(&diags));
    }
}

// ---------------------------------------------------------------- A001

#[test]
fn a001_fires_on_bare_relaxed_and_unsafe() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/a001_positive.rs"));
    assert_all(&diags, "A001", 2);
}

#[test]
fn a001_suppression_silences_with_reason() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/a001_suppressed.rs"));
    assert_fully_suppressed(&diags, "A001");
}

#[test]
fn a001_justification_comments_pass_even_wrapped() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/a001_clean.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

// ---------------------------------------------------------------- E001

#[test]
fn e001_fires_on_unwrap_and_expect_in_libs() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/e001_positive.rs"));
    assert_all(&diags, "E001", 2);
}

#[test]
fn e001_suppression_silences_with_reason() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/e001_suppressed.rs"));
    assert_fully_suppressed(&diags, "E001");
}

#[test]
fn e001_clean_option_return_and_test_module_pass() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/e001_clean.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

#[test]
fn e001_exempts_binaries_and_integration_tests() {
    for path in [
        "crates/core/src/bin/tool.rs",
        "crates/core/tests/fixture.rs",
    ] {
        let diags = analyze_source(path, include_str!("fixtures/e001_positive.rs"));
        assert!(diags.is_empty(), "{path}: {:?}", rules_of(&diags));
    }
}

// ---------------------------------------------------------------- R001

#[test]
fn r001_fires_on_entropy_and_literal_seeds() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/r001_positive.rs"));
    assert_all(&diags, "R001", 2);
}

#[test]
fn r001_suppression_silences_with_reason() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/r001_suppressed.rs"));
    assert_fully_suppressed(&diags, "R001");
}

#[test]
fn r001_clean_master_seed_derivation_passes() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/r001_clean.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

#[test]
fn r001_exempts_the_rng_crate_itself() {
    let path = "crates/rng/src/fixture.rs";
    let diags = analyze_source(path, include_str!("fixtures/r001_positive.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

// ---------------------------------------------------------------- R002

#[test]
fn r002_fires_on_rng_crossing_a_scatter_closure() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/r002_positive.rs"));
    assert_all(&diags, "R002", 1);
}

#[test]
fn r002_suppression_silences_with_reason() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/r002_suppressed.rs"));
    assert_fully_suppressed(&diags, "R002");
}

#[test]
fn r002_clean_per_task_derivation_passes() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/r002_clean.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

// --------------------------------------------- graph-rule fixtures
// R003/F001/P001/P002 need the workspace pass: in-memory files through
// `analyze_files` (no manifests, so call resolution is global).

/// A binary entry point that reaches `root_call` — the P-rule root.
fn entry(root_call: &str) -> (String, String) {
    (
        "crates/experiments/src/bin/mmx.rs".to_string(),
        format!("fn main() {{ {root_call}; }}\n"),
    )
}

/// A Deterministic-scope library path in netsim for graph fixtures.
const GRAPH_LIB: &str = "crates/netsim/src/fixture.rs";

// ---------------------------------------------------------------- R003

#[test]
fn r003_fires_on_duplicate_labels_across_files_and_spellings() {
    let diags = analyze_files(&[
        (
            "crates/netsim/src/a.rs",
            include_str!("fixtures/r003_positive_a.rs"),
        ),
        (
            "crates/netsim/src/b.rs",
            include_str!("fixtures/r003_positive_b.rs"),
        ),
    ]);
    // `0x5e5e` in one file and `24158` in the other normalize to the same
    // label; both sites are reported.
    assert_all(&diags, "R003", 2);
    let files: Vec<&str> = diags.iter().map(|d| d.file.as_str()).collect();
    assert_eq!(files, ["crates/netsim/src/a.rs", "crates/netsim/src/b.rs"]);
}

#[test]
fn r003_suppression_silences_with_reason() {
    let diags = analyze_files(&[(GRAPH_LIB, include_str!("fixtures/r003_suppressed.rs"))]);
    assert_fully_suppressed(&diags, "R003");
}

#[test]
fn r003_clean_distinct_labels_pass() {
    let diags = analyze_files(&[(GRAPH_LIB, include_str!("fixtures/r003_clean.rs"))]);
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

#[test]
fn r003_same_label_in_different_crates_is_fine() {
    let diags = analyze_files(&[
        (
            "crates/netsim/src/a.rs",
            include_str!("fixtures/r003_positive_a.rs"),
        ),
        (
            "crates/mmlab/src/b.rs",
            include_str!("fixtures/r003_positive_b.rs"),
        ),
    ]);
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

// ---------------------------------------------------------------- F001

#[test]
fn f001_fires_on_reductions_reachable_from_scatter() {
    let diags = analyze_files(&[(GRAPH_LIB, include_str!("fixtures/f001_positive.rs"))]);
    assert_all(&diags, "F001", 1);
}

#[test]
fn f001_suppression_silences_with_reason() {
    let diags = analyze_files(&[(GRAPH_LIB, include_str!("fixtures/f001_suppressed.rs"))]);
    assert_fully_suppressed(&diags, "F001");
}

#[test]
fn f001_clean_kernel_routed_reduction_passes() {
    let diags = analyze_files(&[(GRAPH_LIB, include_str!("fixtures/f001_clean.rs"))]);
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

// ---------------------------------------------------------------- P001

#[test]
fn p001_fires_on_panics_reachable_from_a_binary() {
    let (epath, esrc) = entry("decode(0)");
    let diags = analyze_files(&[
        (epath.as_str(), esrc.as_str()),
        (GRAPH_LIB, include_str!("fixtures/p001_positive.rs")),
    ]);
    assert_all(&diags, "P001", 1);
}

#[test]
fn p001_without_an_entry_point_stays_quiet() {
    let diags = analyze_files(&[(GRAPH_LIB, include_str!("fixtures/p001_positive.rs"))]);
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

#[test]
fn p001_suppression_silences_with_reason() {
    let (epath, esrc) = entry("decode(0)");
    let diags = analyze_files(&[
        (epath.as_str(), esrc.as_str()),
        (GRAPH_LIB, include_str!("fixtures/p001_suppressed.rs")),
    ]);
    assert_fully_suppressed(&diags, "P001");
}

#[test]
fn p001_clean_option_return_passes() {
    let (epath, esrc) = entry("decode(0)");
    let diags = analyze_files(&[
        (epath.as_str(), esrc.as_str()),
        (GRAPH_LIB, include_str!("fixtures/p001_clean.rs")),
    ]);
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

// ---------------------------------------------------------------- P002

#[test]
fn p002_fires_on_cast_indexing_reachable_from_a_binary() {
    let (epath, esrc) = entry("count_for(&[], 0)");
    let diags = analyze_files(&[
        (epath.as_str(), esrc.as_str()),
        (GRAPH_LIB, include_str!("fixtures/p002_positive.rs")),
    ]);
    assert_all(&diags, "P002", 1);
}

#[test]
fn p002_suppression_silences_with_reason() {
    let (epath, esrc) = entry("count_for(&[], 0)");
    let diags = analyze_files(&[
        (epath.as_str(), esrc.as_str()),
        (GRAPH_LIB, include_str!("fixtures/p002_suppressed.rs")),
    ]);
    assert_fully_suppressed(&diags, "P002");
}

#[test]
fn p002_clean_checked_lookup_passes() {
    let (epath, esrc) = entry("count_for(&[], 0)");
    let diags = analyze_files(&[
        (epath.as_str(), esrc.as_str()),
        (GRAPH_LIB, include_str!("fixtures/p002_clean.rs")),
    ]);
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

// ---------------------------------------------------------------- S001

#[test]
fn s001_fires_on_malformed_and_unused_suppressions() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/s001_positive.rs"));
    // Unknown rule, missing reason, and an unused (stale) suppression.
    assert_all(&diags, "S001", 3);
}

// ---------------------------------------------------------------- Z001

#[test]
fn z001_fires_on_external_deps_and_build_machinery() {
    let diags = analyze_manifest_src(
        "crates/offender/Cargo.toml",
        include_str!("fixtures/z001_positive.toml"),
    );
    // serde, rand, cc, the [build-dependencies] section, package.build.
    assert_all(&diags, "Z001", 5);
}

#[test]
fn z001_clean_path_and_workspace_deps_pass() {
    let diags = analyze_manifest_src(
        "crates/hermetic/Cargo.toml",
        include_str!("fixtures/z001_clean.toml"),
    );
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}
