//! End-to-end check of `mmx --metrics`: the emitted snapshot must be valid
//! mm-json, cover every instrumented subsystem, and be byte-identical for
//! any `MM_THREADS` setting (the determinism contract of the deterministic
//! snapshot view).

use std::process::Command;

fn run_mmx(threads: &str, metrics_path: &std::path::Path) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mmx"))
        .args(["all", "ablations", "--quick"])
        .arg(format!("--metrics={}", metrics_path.display()))
        .env("MM_THREADS", threads)
        .output()
        .expect("mmx runs");
    assert!(
        out.status.success(),
        "mmx failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let metrics = std::fs::read_to_string(metrics_path).expect("metrics file written");
    (stdout, metrics)
}

#[test]
fn mmx_metrics_snapshot_is_valid_and_thread_count_invariant() {
    let dir = std::env::temp_dir();
    let base = dir.join("mmx-metrics-base.json");
    let (stdout_1, metrics_1) = run_mmx("1", &base);

    let parsed = mm_json::Json::parse(&metrics_1).expect("--metrics emits valid mm-json");
    assert_eq!(parsed["schema"].as_u64(), Some(1));
    let sections: Vec<&str> = parsed["sections"]
        .as_array()
        .expect("sections array")
        .iter()
        .filter_map(|s| s["name"].as_str())
        .collect();
    for expected in ["artifacts", "campaign", "crawl", "exec", "netsim"] {
        assert!(
            sections.contains(&expected),
            "missing section {expected} in {sections:?}"
        );
    }

    for threads in ["2", "8"] {
        let path = dir.join(format!("mmx-metrics-{threads}.json"));
        let (stdout_n, metrics_n) = run_mmx(threads, &path);
        assert_eq!(stdout_n, stdout_1, "stdout differs at MM_THREADS={threads}");
        assert_eq!(
            metrics_n, metrics_1,
            "metrics differ at MM_THREADS={threads}"
        );
    }
}

/// `mmx crawl --quick --store DIR --metrics=FILE` at `MM_THREADS=threads`
/// into a fresh `DIR`: stdout, the metrics and the d2 entry's bytes.
fn run_crawl(threads: &str) -> (String, String, Vec<u8>) {
    let dir = std::env::temp_dir().join(format!(
        "mmx-crawl-metrics-{}-{threads}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let metrics_path = dir.with_extension("json");
    let out = Command::new(env!("CARGO_BIN_EXE_mmx"))
        .args(["crawl", "--quick", "--store"])
        .arg(&dir)
        .arg(format!("--metrics={}", metrics_path.display()))
        .env("MM_THREADS", threads)
        .output()
        .expect("mmx runs");
    assert!(
        out.status.success(),
        "mmx crawl failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    let entry = std::fs::read_dir(&dir)
        .expect("store written")
        .map(|e| e.expect("dir entry").path())
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("d2-"))
        })
        .expect("a d2 entry");
    let bytes = std::fs::read(entry).expect("d2 entry readable");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&metrics_path).ok();
    (stdout, metrics, bytes)
}

#[test]
fn mmx_crawl_store_write_is_thread_count_invariant() {
    let (stdout_1, metrics_1, entry_1) = run_crawl("1");
    let parsed = mm_json::Json::parse(&metrics_1).expect("--metrics emits valid mm-json");
    let store = parsed["sections"]
        .as_array()
        .expect("sections array")
        .iter()
        .find(|s| s["name"].as_str() == Some("store"))
        .expect("the crawl writes the store section");
    assert!(
        store.to_string().contains("bytes_written"),
        "store section without the write counters: {store}"
    );
    for threads in ["2", "8"] {
        let (stdout_n, metrics_n, entry_n) = run_crawl(threads);
        assert_eq!(stdout_n, stdout_1, "stdout differs at MM_THREADS={threads}");
        assert_eq!(
            metrics_n, metrics_1,
            "metrics differ at MM_THREADS={threads}"
        );
        assert!(
            entry_n == entry_1,
            "d2 entry differs at MM_THREADS={threads}"
        );
    }
}

#[test]
fn mmx_exit_codes_follow_the_usage_convention() {
    let unknown = Command::new(env!("CARGO_BIN_EXE_mmx"))
        .arg("zz9")
        .output()
        .expect("mmx runs");
    assert_eq!(
        unknown.status.code(),
        Some(2),
        "unknown artifact is a usage error"
    );
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("unknown artifact"));

    let bad_flag = Command::new(env!("CARGO_BIN_EXE_mmx"))
        .args(["t2", "--seed", "not-a-number"])
        .output()
        .expect("mmx runs");
    assert_eq!(
        bad_flag.status.code(),
        Some(2),
        "bad flag value is a usage error"
    );

    let bad_metrics = Command::new(env!("CARGO_BIN_EXE_mmx"))
        .args(["t2", "--metrics=/nonexistent-dir/metrics.json"])
        .output()
        .expect("mmx runs");
    assert_eq!(
        bad_metrics.status.code(),
        Some(3),
        "unwritable metrics file is a runtime error"
    );
}
