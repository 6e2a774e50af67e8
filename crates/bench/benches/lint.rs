//! Benchmarks of the mm-lint two-phase engine over the real workspace:
//! a cold run (empty cache, every file lexed and analyzed) against a warm
//! run (every per-file analysis served from the content-addressed cache).
//! Both land side by side in the JSON report, and the derived
//! `warm_speedup_x = cold.median_ns / warm.median_ns` is attached as a
//! recorded number that nothing gates on: that a warm run re-analyzes no
//! file is counted instead, by `tests/workspace.rs` of mm-lint.

use std::fs;
use std::path::{Path, PathBuf};

use mm_bench::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mm_json::Json;
use mm_lint::{analyze_workspace_with, LintOptions};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate sits two levels under the workspace root")
}

fn cache_dir() -> PathBuf {
    // `target/` is on the walker's skip list, so the cache never lints itself.
    workspace_root().join("target/mmlint-bench-cache")
}

fn bench_lint(c: &mut Criterion) {
    let root = workspace_root();
    let dir = cache_dir();
    let opts = LintOptions {
        cache_dir: Some(dir.clone()),
        strict_suppress: false,
    };

    // Establish the corpus size and sanity-check both cache regimes before
    // timing anything: a fresh dir must miss every file, a reused one must
    // hit every file and report identical diagnostics.
    let _ = fs::remove_dir_all(&dir);
    let cold_report = analyze_workspace_with(root, &opts).expect("cold lint run");
    assert_eq!(cold_report.cache_hits, 0, "fresh cache dir must miss");
    let warm_report = analyze_workspace_with(root, &opts).expect("warm lint run");
    assert_eq!(
        warm_report.cache_hits, warm_report.files_scanned,
        "second run over an unchanged tree must hit every file"
    );
    let files = cold_report.files_scanned as u64;

    let mut g = c.benchmark_group("lint");
    g.sample_size(10);
    g.throughput(Throughput::Elements(files));
    let cold_opts = opts.clone();
    g.bench_function("cold", |b| {
        b.iter_batched(
            || {
                let _ = fs::remove_dir_all(&dir);
            },
            |()| black_box(analyze_workspace_with(root, &cold_opts).expect("cold lint run")),
        )
    });
    // One unmeasured run refills the cache the last cold iteration emptied.
    let _ = analyze_workspace_with(root, &opts).expect("cache refill");
    g.bench_function("warm", |b| {
        b.iter(|| black_box(analyze_workspace_with(root, &opts).expect("warm lint run")))
    });

    let median_of = |name: &str| {
        c.reports()
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
            .unwrap_or(0.0)
    };
    let cold_ns = median_of("lint/cold");
    let warm_ns = median_of("lint/warm");
    let rate = |ns: f64| {
        if ns > 0.0 {
            files as f64 * 1.0e9 / ns
        } else {
            0.0
        }
    };
    let speedup = if warm_ns > 0.0 {
        cold_ns / warm_ns
    } else {
        0.0
    };
    c.attach(
        "lint_cache",
        Json::Obj(vec![
            ("files".to_string(), Json::Num(files as f64)),
            ("cold_files_per_s".to_string(), Json::Num(rate(cold_ns))),
            ("warm_files_per_s".to_string(), Json::Num(rate(warm_ns))),
            ("warm_speedup_x".to_string(), Json::Num(speedup)),
        ]),
    );
    let _ = fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_lint);
criterion_main!(benches);
