//! End-to-end `mmq` equivalence: for every store-served artifact, `mmq`
//! must print byte-identically what `mmx` prints when streaming the same
//! store; a warm `mmq` must answer from the query cache without opening
//! any data blocks — while a store whose manifest names entries missing
//! from disk must fail fast at open (exit 3), cache or no cache;
//! appended rounds must union in without touching round-0 files, with
//! `--rounds 0` reproducing the pre-append answer, and a campaign entry of
//! the wrong kind must fail typed (exit 3); and contradictory flags must
//! be usage errors (exit 2).

use std::path::{Path, PathBuf};
use std::process::Command;

struct Run {
    status: std::process::ExitStatus,
    stdout: String,
    stderr: String,
}

fn exe(bin: &str, args: &[&str], store: Option<&Path>) -> Run {
    let mut cmd = Command::new(match bin {
        "mmx" => env!("CARGO_BIN_EXE_mmx"),
        "mmqd" => env!("CARGO_BIN_EXE_mmqd"),
        _ => env!("CARGO_BIN_EXE_mmq"),
    });
    cmd.args(args).env("MM_THREADS", "2");
    if let Some(dir) = store {
        cmd.args(["--store", &dir.display().to_string()]);
    }
    let out = cmd.output().expect("binary runs");
    Run {
        status: out.status,
        stdout: String::from_utf8(out.stdout).expect("utf8 stdout"),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mmq-equiv-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

fn crawl(dir: &Path) {
    let run = exe("mmx", &["crawl", "--quick"], Some(dir));
    assert!(run.status.success(), "crawl: {}", run.stderr);
}

/// Every artifact `mmq` serves, in paper order.
const SERVED: &[&str] = &[
    "t2", "t3", "t4", "f11", "f12", "f13", "f14", "f15", "f16", "f17", "f18", "f19", "f20", "f21",
    "f22",
];

#[test]
fn mmq_matches_mmx_store_streaming_byte_for_byte() {
    let dir = tmp("equiv");
    crawl(&dir);

    // mmx --load: store miss on the run bundle, so it streams the stored
    // D2 entry into the figure aggregate and renders cold.
    let mut mmx_args = SERVED.to_vec();
    mmx_args.extend(["--quick", "--load"]);
    let via_mmx = exe("mmx", &mmx_args, Some(&dir));
    assert!(via_mmx.status.success(), "mmx: {}", via_mmx.stderr);
    assert!(
        via_mmx.stderr.contains("store miss, preloaded 1/3"),
        "mmx streamed the stored crawl: {}",
        via_mmx.stderr
    );

    let mut mmq_args = SERVED.to_vec();
    mmq_args.push("--quick");
    let via_mmq = exe("mmq", &mmq_args, Some(&dir));
    assert!(via_mmq.status.success(), "mmq: {}", via_mmq.stderr);
    assert_eq!(
        via_mmx.stdout, via_mmq.stdout,
        "mmq must render every store-served artifact byte-identically"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_mmq_replays_from_cache_and_a_gutted_store_fails_at_open() {
    let dir = tmp("warm");
    crawl(&dir);
    let cold = exe("mmq", &["f16", "f12", "--quick"], Some(&dir));
    assert!(cold.status.success(), "{}", cold.stderr);

    // Intact store: the repeat run replays both answers from the query
    // cache without touching a data block.
    let warm = exe("mmq", &["f16", "f12", "--quick"], Some(&dir));
    assert!(warm.status.success(), "warm mmq: {}", warm.stderr);
    assert_eq!(cold.stdout, warm.stdout, "cache replay is byte-identical");
    assert!(
        warm.stderr.contains("query-cache hit, 0 blocks opened"),
        "warm run reports the hit: {}",
        warm.stderr
    );

    // Zero every D2 data entry in place, same length. A cached answer
    // opens no data block, so the warm run cannot tell; an uncached
    // query decodes the zeros and fails typed (exit 3).
    let mut zeroed = 0;
    for entry in std::fs::read_dir(&dir).expect("readdir") {
        let path = entry.expect("entry").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if name.starts_with("d2-") && name.ends_with(".mmst") {
            let len = std::fs::metadata(&path).expect("stat data entry").len();
            std::fs::write(&path, vec![0u8; len as usize]).expect("zero data entry");
            zeroed += 1;
        }
    }
    assert!(zeroed > 0, "the crawl wrote a d2 entry");
    let blind = exe("mmq", &["f16", "f12", "--quick"], Some(&dir));
    assert!(blind.status.success(), "{}", blind.stderr);
    assert_eq!(cold.stdout, blind.stdout, "cached answers read no block");
    let uncached = exe("mmq", &["f13", "--quick"], Some(&dir));
    assert_eq!(
        uncached.status.code(),
        Some(3),
        "an uncached query reads the zeroed entry: {}",
        uncached.stderr
    );
    assert!(
        uncached.stderr.contains("store error"),
        "the zeroed entry is a typed store error: {}",
        uncached.stderr
    );

    // Remove every D2 data entry; keep the manifest and the q- cache.
    // The engine refuses the incomplete store at open — a typed store
    // error (exit 3), not a cache-served answer over missing data.
    let mut removed = 0;
    for entry in std::fs::read_dir(&dir).expect("readdir") {
        let entry = entry.expect("entry");
        if entry.file_name().to_string_lossy().starts_with("d2-") {
            std::fs::remove_file(entry.path()).expect("rm data entry");
            removed += 1;
        }
    }
    assert!(removed > 0, "the crawl wrote a d2 entry");

    let gutted = exe("mmq", &["f16", "f12", "--quick"], Some(&dir));
    assert_eq!(
        gutted.status.code(),
        Some(3),
        "missing data entries are a runtime store error: {}",
        gutted.stderr
    );
    assert!(
        gutted.stderr.contains("is missing"),
        "the error names the missing entry: {}",
        gutted.stderr
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn append_unions_new_rounds_and_keeps_round_zero_immutable() {
    let dir = tmp("append");
    crawl(&dir);
    let baseline = exe("mmq", &["f12", "--quick"], Some(&dir));
    assert!(baseline.status.success(), "{}", baseline.stderr);

    // Round 0's data entry ("d2-<hash>", not "d2-round-…").
    let round0 = std::fs::read_dir(&dir)
        .expect("readdir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            let name = p
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            name.starts_with("d2-") && !name.starts_with("d2-round")
        })
        .expect("round-0 entry exists");
    let round0_bytes = std::fs::read(&round0).expect("read round 0");

    let append = exe("mmx", &["--append", "--quick"], Some(&dir));
    assert!(append.status.success(), "append: {}", append.stderr);
    assert!(
        append.stderr.contains("store now holds 2 round(s)"),
        "{}",
        append.stderr
    );
    assert_eq!(
        std::fs::read(&round0).expect("round 0 still there"),
        round0_bytes,
        "append never rewrites prior-round files"
    );

    // The union serves both rounds: strictly more samples than round 0.
    let union = exe("mmq", &["f12", "--quick"], Some(&dir));
    assert!(union.status.success(), "{}", union.stderr);
    assert_ne!(union.stdout, baseline.stdout, "union covers the new round");
    let total = |s: &str| -> u64 {
        s.lines()
            .find_map(|l| l.strip_prefix("Fig 12 totals: "))
            .and_then(|l| l.split(", ").nth(1))
            .and_then(|l| l.strip_suffix(" samples"))
            .and_then(|n| n.parse().ok())
            .expect("Fig 12 totals line")
    };
    assert!(total(&union.stdout) > total(&baseline.stdout));

    // A round ceiling of 0 reproduces the pre-append answer exactly.
    let ceiling = exe("mmq", &["f12", "--quick", "--rounds", "0"], Some(&dir));
    assert!(ceiling.status.success(), "{}", ceiling.stderr);
    assert_eq!(
        ceiling.stdout, baseline.stdout,
        "round<=0 queries are byte-identical to the pre-append store"
    );

    // A campaign entry of the wrong kind fails typed (exit 3) before any
    // row decode. F13 is not in the query cache, so mmq must read round 0.
    let manifest = std::fs::read_dir(&dir)
        .expect("readdir")
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().starts_with("manifest-"))
        .expect("manifest exists");
    std::fs::copy(manifest.path(), &round0).expect("overwrite round 0");
    let wrong_kind = exe("mmq", &["f13", "--quick"], Some(&dir));
    assert_eq!(
        wrong_kind.status.code(),
        Some(3),
        "a wrong-kind campaign entry is a runtime store error: {}",
        wrong_kind.stderr
    );
    assert!(
        wrong_kind.stderr.contains("store error") && wrong_kind.stderr.contains("expected kind"),
        "typed diagnosis names the kind: {}",
        wrong_kind.stderr
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_exit_2_with_a_hint() {
    let dir = tmp("usage");
    // (args, binary, expected stderr fragment)
    let cases: &[(&str, &[&str], &str)] = &[
        (
            "mmq",
            &["f5", "--quick", "--store", "X"],
            "needs simulation",
        ),
        ("mmq", &["f16", "--quick"], "--store"),
        ("mmq", &["div", "--quick", "--store", "X"], "--carrier"),
        (
            "mmq",
            &["f16", "--quick", "--rat", "5g", "--store", "X"],
            "unknown RAT",
        ),
        (
            "mmx",
            &["f12", "--quick", "--save", "--load", "--store", "X"],
            "conflict",
        ),
        (
            "mmx",
            &["--append", "f12", "--quick", "--store", "X"],
            "--append",
        ),
        ("mmx", &["--append", "--quick"], "--store"),
        (
            "mmx",
            &["f12", "--quick", "--scale", "0.1"],
            "--quick and --scale",
        ),
        (
            "mmx",
            &["crawl", "--quick", "--save", "--store", "X"],
            "conflict",
        ),
        (
            "mmx",
            &["t2", "--duration-s", "18446744073709552"],
            "--duration-s",
        ),
        ("mmx", &["fleet", "--scale", "inf"], "--scale"),
        ("mmq", &["f12", "--scale", "nan", "--store", "X"], "--scale"),
        // mmqd rejects each of these before it binds a socket.
        (
            "mmqd",
            &["--quick", "--scale", "0.1", "--store", "X"],
            "--quick and --scale",
        ),
        ("mmqd", &["--quick"], "--store"),
        ("mmqd", &["--workers", "many"], "--workers"),
    ];
    for (bin, args, hint) in cases {
        let run = exe(bin, args, None);
        assert_eq!(
            run.status.code(),
            Some(2),
            "{bin} {args:?} is a usage error: {}",
            run.stderr
        );
        assert!(
            run.stderr.contains(hint),
            "{bin} {args:?} names the conflict ({hint:?}): {}",
            run.stderr
        );
    }
    // And a store with no campaign is a usage error, not a crash.
    let empty = exe("mmq", &["f16", "--quick"], Some(&dir));
    assert_eq!(empty.status.code(), Some(2), "{}", empty.stderr);
    assert!(empty.stderr.contains("mmx crawl"), "{}", empty.stderr);
    std::fs::remove_dir_all(&dir).ok();
}
