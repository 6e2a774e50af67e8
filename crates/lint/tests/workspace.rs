//! Self-check: mmlint must be clean on the workspace that ships it, and the
//! `--json` output must survive the strict in-tree parser.

use mm_json::{Json, ToJson};
use mm_lint::analyze_workspace;
use std::path::Path;
use std::process::Command;

fn workspace_root() -> &'static Path {
    // crates/lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
}

#[test]
fn workspace_is_lint_clean() {
    // Stale suppressions are errors (S001, S002), so a clean report also
    // means every mm-allow still silences a live diagnostic.
    let report = analyze_workspace(workspace_root()).expect("workspace walk");
    assert!(
        report.is_clean(),
        "the workspace must lint clean; diagnostics:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.human())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: a clean report because nothing was scanned would be vacuous.
    assert!(report.files_scanned > 50, "{} files", report.files_scanned);
    assert!(
        report.manifests_scanned >= 13,
        "{} manifests",
        report.manifests_scanned
    );
}

#[test]
fn report_json_matches_binary_json_output() {
    let report = analyze_workspace(workspace_root()).expect("workspace walk");
    let out = Command::new(env!("CARGO_BIN_EXE_mmlint"))
        .arg("--root")
        .arg(workspace_root())
        .arg("--json")
        .output()
        .expect("run mmlint");
    assert!(
        out.status.success(),
        "mmlint --json exited {:?}",
        out.status.code()
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
    // The strict parser accepts the binary's bytes and they equal the
    // library's serialization of the same analysis.
    let parsed = Json::parse(text.trim()).expect("strict parse of --json output");
    assert_eq!(parsed, report.to_json());
    assert_eq!(parsed.get("version").and_then(Json::as_u64), Some(3));
    assert_eq!(parsed.get("errors").and_then(Json::as_u64), Some(0));
    let diags = parsed
        .get("diagnostics")
        .and_then(Json::as_array)
        .expect("diagnostics array");
    // Every diagnostic in a clean workspace is a justified suppression,
    // and each carries the full (rule, severity, file, line, suppressed)
    // tuple for `--json` consumers.
    assert!(!diags.is_empty(), "suppressed findings must stay visible");
    for d in diags {
        assert_eq!(d.get("suppressed").and_then(Json::as_bool), Some(true));
        assert!(d.get("rule").and_then(Json::as_str).is_some());
        assert!(d.get("severity").and_then(Json::as_str).is_some());
        assert!(d.get("file").and_then(Json::as_str).is_some());
        assert!(d.get("line").and_then(Json::as_u64).is_some());
        assert!(d.get("message").and_then(Json::as_str).is_some());
    }
}

#[test]
fn json_output_is_byte_identical_across_thread_counts() {
    let run = |threads: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_mmlint"))
            .arg("--root")
            .arg(workspace_root())
            .arg("--json")
            .env("MM_THREADS", threads)
            .output()
            .expect("run mmlint");
        assert!(out.status.success(), "MM_THREADS={threads} run failed");
        out.stdout
    };
    let first = run("1");
    // Nothing a run leaves behind may reach the next run's stdout.
    assert_eq!(first, run("1"), "stdout must not depend on earlier runs");
    assert_eq!(first, run("8"), "stdout must not depend on MM_THREADS");
}

#[test]
fn explain_and_list_cover_every_rule() {
    let list = Command::new(env!("CARGO_BIN_EXE_mmlint"))
        .arg("--list")
        .output()
        .expect("run mmlint --list");
    assert!(list.status.success());
    let listing = String::from_utf8(list.stdout).expect("utf-8");
    for rule in mm_lint::RULES {
        assert!(listing.contains(rule.id), "--list missing {}", rule.id);
        let explain = Command::new(env!("CARGO_BIN_EXE_mmlint"))
            .args(["--explain", rule.id])
            .output()
            .expect("run mmlint --explain");
        assert!(explain.status.success(), "--explain {} failed", rule.id);
        let text = String::from_utf8(explain.stdout).expect("utf-8");
        assert!(
            text.contains(rule.summary),
            "--explain {} missing summary",
            rule.id
        );
    }
    // Unknown rules are a usage error (exit 2).
    let bad = Command::new(env!("CARGO_BIN_EXE_mmlint"))
        .args(["--explain", "X999"])
        .output()
        .expect("run mmlint --explain X999");
    assert_eq!(bad.status.code(), Some(2));
}

#[test]
fn version_flag_prints_the_crate_version() {
    let out = Command::new(env!("CARGO_BIN_EXE_mmlint"))
        .arg("--version")
        .output()
        .expect("run mmlint --version");
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        format!("mmlint {}", env!("CARGO_PKG_VERSION"))
    );
}
