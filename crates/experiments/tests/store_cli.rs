//! End-to-end checks of the `mmx` store flags: a warm `--load` run must
//! print the cold run's stdout byte for byte, rendered from the stored
//! datasets its artifacts read (its `--metrics` fold the stored crawl and
//! run no crawl or campaign), corrupt dataset entries it reads (bit flip,
//! truncation, wrong magic, future version) must fail with the typed
//! runtime exit code while one it does not read is never opened, and
//! `--version` must report the crate version.

use mm_json::Json;
use std::path::Path;
use std::process::Command;

struct Run {
    status: std::process::ExitStatus,
    stdout: String,
    stderr: String,
    metrics: Option<String>,
}

fn mmx(args: &[&str], store: &Path, metrics: Option<&Path>) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mmx"));
    cmd.args(args)
        .args(["--store", &store.display().to_string()])
        .env("MM_THREADS", "2");
    if let Some(m) = metrics {
        cmd.arg(format!("--metrics={}", m.display()));
    }
    let out = cmd.output().expect("mmx runs");
    Run {
        status: out.status,
        stdout: String::from_utf8(out.stdout).expect("utf8 stdout"),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        metrics: metrics.map(|m| std::fs::read_to_string(m).expect("metrics file written")),
    }
}

fn tmp(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("mmx-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

const ARTS: &[&str] = &["t2", "t4", "f10", "f12", "--quick"];

/// The value of counter `section.name` in a `--metrics` snapshot.
fn counter(metrics: &str, section: &str, name: &str) -> Option<u64> {
    let doc = Json::parse(metrics).expect("--metrics is JSON");
    let sections = doc["sections"].as_array()?;
    let section = sections
        .iter()
        .find(|s| s["name"].as_str() == Some(section))?;
    let counters = section["counters"].as_array()?;
    let c = counters.iter().find(|c| c["name"].as_str() == Some(name))?;
    c["value"].as_u64()
}

#[test]
fn warm_load_renders_from_the_stored_datasets() {
    let dir = tmp("warm");
    let cold_m = dir.join("cold.json");
    let warm_m = dir.join("warm.json");

    let mut cold_args = ARTS.to_vec();
    cold_args.push("--save");
    let cold = mmx(&cold_args, &dir, Some(&cold_m));
    assert!(cold.status.success(), "cold run: {}", cold.stderr);

    let mut warm_args = ARTS.to_vec();
    warm_args.push("--load");
    let warm = mmx(&warm_args, &dir, Some(&warm_m));
    assert!(warm.status.success(), "warm run: {}", warm.stderr);

    assert_eq!(cold.stdout, warm.stdout, "stdout must be byte-identical");
    assert!(
        warm.stderr.contains("preloaded 2/2"),
        "warm run preloads every dataset it reads: {}",
        warm.stderr
    );
    // The warm metrics describe the warm run: it folds every row the cold
    // run crawled, and crawls and drives nothing itself.
    let (cold_m, warm_m) = (cold.metrics.unwrap(), warm.metrics.unwrap());
    let crawled = counter(&cold_m, "crawl", "samples_emitted");
    assert!(crawled.is_some_and(|n| n > 0), "the cold run crawls");
    assert_eq!(counter(&warm_m, "fold", "rows_folded"), crawled);
    assert_eq!(counter(&warm_m, "crawl", "samples_emitted"), None);
    assert_eq!(counter(&warm_m, "campaign", "drives_completed"), None);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_miss_falls_back_to_the_cold_path_with_identical_output() {
    let dir = tmp("miss");
    let baseline = mmx(ARTS, &dir, None);
    assert!(baseline.status.success(), "{}", baseline.stderr);
    // Nothing saved — a --load run misses and simulates.
    let mut args = ARTS.to_vec();
    args.push("--load");
    let fallback = mmx(&args, &dir, None);
    assert!(fallback.status.success(), "{}", fallback.stderr);
    assert_eq!(baseline.stdout, fallback.stdout);
    assert!(
        fallback.stderr.contains("preloaded 0/2"),
        "{}",
        fallback.stderr
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_store_entry_fails_typed_with_the_runtime_exit_code() {
    let dir = tmp("corrupt");
    let mut cold_args = ARTS.to_vec();
    cold_args.push("--save");
    let cold = mmx(&cold_args, &dir, None);
    assert!(cold.status.success(), "{}", cold.stderr);

    // Each damage class is applied on its own to the good D2 entry, then
    // to the good idle D1 entry, which `--load` reads after D2 (these
    // artifacts read no active D1).
    type Damage = fn(&mut Vec<u8>);
    let damages: [(&str, Damage); 4] = [
        ("bit flip", |b| {
            let mid = b.len() / 2;
            b[mid] ^= 0x20;
        }),
        ("truncation", |b| b.truncate(64)),
        ("wrong magic", |b| b[..4].copy_from_slice(b"XXXX")),
        ("future version", |b| b[4] = 0x63),
    ];
    let mut warm_args = ARTS.to_vec();
    warm_args.push("--load");
    for prefix in ["d2-", "d1-idle-"] {
        let path = std::fs::read_dir(&dir)
            .expect("readdir")
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().starts_with(prefix))
            .expect("dataset entry exists")
            .path();
        let good = std::fs::read(&path).expect("read entry");
        for (class, damage) in damages {
            let mut bytes = good.clone();
            damage(&mut bytes);
            std::fs::write(&path, &bytes).expect("write corrupt entry");
            let warm = mmx(&warm_args, &dir, None);
            assert_eq!(
                warm.status.code(),
                Some(3),
                "{prefix} {class}: corruption is a runtime error, not a silent fallback: {}",
                warm.stderr
            );
            assert!(
                warm.stderr.contains("store error"),
                "{prefix} {class}: typed diagnosis: {}",
                warm.stderr
            );
        }
        std::fs::write(&path, &good).expect("restore entry");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_never_opens_an_entry_its_artifacts_do_not_read() {
    let dir = tmp("unread");
    let mut cold_args = ARTS.to_vec();
    cold_args.push("--save");
    let cold = mmx(&cold_args, &dir, None);
    assert!(cold.status.success(), "{}", cold.stderr);
    // None of t2, t4, f10 and f12 reads the active-state D1.
    let path = std::fs::read_dir(&dir)
        .expect("readdir")
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().starts_with("d1-active-"))
        .expect("active D1 entry exists")
        .path();
    std::fs::write(&path, b"damaged").expect("damage entry");
    let mut warm_args = ARTS.to_vec();
    warm_args.push("--load");
    let warm = mmx(&warm_args, &dir, None);
    assert!(warm.status.success(), "{}", warm.stderr);
    assert_eq!(warm.stdout, cold.stdout);
    assert!(warm.stderr.contains("preloaded 2/2"), "{}", warm.stderr);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn save_and_load_require_a_store_directory() {
    for flag in ["--save", "--load"] {
        let out = Command::new(env!("CARGO_BIN_EXE_mmx"))
            .args(["t2", "--quick", flag])
            .output()
            .expect("mmx runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} without --store is usage"
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--store"),
            "{flag}"
        );
    }
}

#[test]
fn version_flag_prints_the_crate_version() {
    let out = Command::new(env!("CARGO_BIN_EXE_mmx"))
        .arg("--version")
        .output()
        .expect("mmx runs");
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        format!("mmx {}", env!("CARGO_PKG_VERSION"))
    );
}
