//! # mm-bench — in-tree micro-benchmark harness + shared fixtures
//!
//! The seven `harness = false` benches in `benches/` were written against
//! the criterion API. This crate provides the small slice of that surface
//! they actually use — [`Criterion`], [`Bencher`], [`BenchmarkGroup`],
//! [`Throughput`], [`black_box`], [`criterion_group!`] and
//! [`criterion_main!`] — implemented on plain `std::time::Instant`
//! wall-clock timing, so `cargo bench` works offline with zero external
//! dependencies.
//!
//! ## Measurement protocol
//!
//! Per benchmark: a short warmup calibrates the per-iteration cost, the
//! iteration count is scaled so one sample takes a few milliseconds, then
//! `sample_size` samples are timed and the **median per-iteration time** is
//! reported (median is robust against scheduler noise on shared runners).
//!
//! Passing `--smoke` (e.g. `cargo bench -p mm-bench -- --smoke`) skips the
//! warmup and runs every routine exactly once — a cheap "all benches still
//! build and run" gate for CI. Any other bare argument is a substring
//! filter on benchmark names.
//!
//! Each bench binary writes a JSON report (via `mm-json`) to
//! `<target>/mm-bench/<bench>.json`, or into the directory named by the
//! `MM_BENCH_OUT` environment variable.

use std::time::{Duration, Instant};

use mm_json::{Json, ToJson};
use mmexperiments::Ctx;

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

/// The tiny experiment context used by the store and aggregate benches:
/// small world, one short run per (carrier, city).
pub fn bench_ctx() -> Ctx {
    Ctx::builder()
        .seed(7)
        .scale(0.02)
        .runs(1)
        .duration_ms(120_000)
        .build()
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Opaque value sink: prevents the optimiser from deleting a benchmarked
/// computation. Re-export of `std::hint::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Work performed per iteration, used to derive a rate next to the time.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Logical items processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// One finished benchmark: name, sampling parameters and summary statistics
/// (all times are nanoseconds per iteration).
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Full benchmark id (`group/name` for grouped benches).
    pub name: String,
    /// Number of timed samples taken.
    pub samples: usize,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
    /// Median per-iteration time.
    pub median_ns: f64,
    /// Mean per-iteration time.
    pub mean_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Optional per-iteration work, for rate reporting.
    pub throughput: Option<Throughput>,
}

impl BenchReport {
    fn from_samples(
        name: String,
        iters_per_sample: u64,
        mut samples_ns: Vec<f64>,
        throughput: Option<Throughput>,
    ) -> Self {
        samples_ns.sort_by(|a, b| a.total_cmp(b));
        let n = samples_ns.len().max(1);
        let median_ns = if samples_ns.is_empty() {
            0.0
        } else if n % 2 == 1 {
            samples_ns[n / 2]
        } else {
            (samples_ns[n / 2 - 1] + samples_ns[n / 2]) / 2.0
        };
        let mean_ns = samples_ns.iter().sum::<f64>() / n as f64;
        BenchReport {
            name,
            samples: samples_ns.len(),
            iters_per_sample,
            median_ns,
            mean_ns,
            min_ns: samples_ns.first().copied().unwrap_or(0.0),
            max_ns: samples_ns.last().copied().unwrap_or(0.0),
            throughput,
        }
    }

    /// `items / median time`, in items per second, when throughput is set.
    pub fn rate_per_sec(&self) -> Option<f64> {
        let (Throughput::Elements(n) | Throughput::Bytes(n)) = self.throughput?;
        if self.median_ns <= 0.0 {
            return None;
        }
        Some(n as f64 * 1.0e9 / self.median_ns)
    }
}

impl ToJson for BenchReport {
    fn to_json(&self) -> Json {
        let mut members = vec![
            ("name".to_string(), self.name.to_json()),
            ("samples".to_string(), (self.samples as u64).to_json()),
            (
                "iters_per_sample".to_string(),
                self.iters_per_sample.to_json(),
            ),
            ("median_ns".to_string(), self.median_ns.to_json()),
            ("mean_ns".to_string(), self.mean_ns.to_json()),
            ("min_ns".to_string(), self.min_ns.to_json()),
            ("max_ns".to_string(), self.max_ns.to_json()),
        ];
        if let Some(t) = self.throughput {
            let (kind, n) = match t {
                Throughput::Elements(n) => ("elements", n),
                Throughput::Bytes(n) => ("bytes", n),
            };
            members.push((
                "throughput".to_string(),
                Json::obj([
                    ("kind", kind.to_json()),
                    ("per_iter", n.to_json()),
                    ("per_sec", self.rate_per_sec().to_json()),
                ]),
            ));
        }
        Json::Obj(members)
    }
}

/// Sampling configuration for one benchmark.
#[derive(Clone, Copy)]
struct SampleConfig {
    sample_size: usize,
    smoke: bool,
}

/// Times a single benchmark routine. Handed to the closure passed to
/// [`BenchmarkGroup::bench_function`]; call [`iter`](Bencher::iter) or
/// [`iter_batched`](Bencher::iter_batched) exactly once.
pub struct Bencher {
    cfg: SampleConfig,
    samples_ns: Vec<f64>,
    iters_per_sample: u64,
}

/// How long the calibration warmup runs in full (non-smoke) mode.
const WARMUP: Duration = Duration::from_millis(60);
/// Target wall-clock duration of one timed sample.
const TARGET_SAMPLE_NS: f64 = 4_000_000.0;

impl Bencher {
    fn new(cfg: SampleConfig) -> Self {
        Bencher {
            cfg,
            samples_ns: Vec::new(),
            iters_per_sample: 1,
        }
    }

    /// Time `routine`, called back-to-back; per-iteration cost is reported.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        if self.cfg.smoke {
            let t = Instant::now();
            black_box(routine());
            self.samples_ns = vec![t.elapsed().as_nanos() as f64];
            self.iters_per_sample = 1;
            return;
        }
        let start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_iters == 0 || (start.elapsed() < WARMUP && warm_iters < 1_000_000) {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter_ns = (start.elapsed().as_nanos() as f64 / warm_iters as f64).max(1.0);
        let iters = (TARGET_SAMPLE_NS / per_iter_ns).clamp(1.0, 1_000_000.0) as u64;
        self.iters_per_sample = iters;
        self.samples_ns = (0..self.cfg.sample_size)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(routine());
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
    }

    /// Time `routine` on fresh inputs from `setup`, one setup per timed
    /// invocation; only the routine is inside the timed region.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        if self.cfg.smoke {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            self.samples_ns = vec![t.elapsed().as_nanos() as f64];
            self.iters_per_sample = 1;
            return;
        }
        let wall = Instant::now();
        let mut timed = Duration::ZERO;
        let mut warm_iters = 0u64;
        while warm_iters == 0 || (wall.elapsed() < WARMUP && warm_iters < 1_000_000) {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            timed += t.elapsed();
            warm_iters += 1;
        }
        let per_iter_ns = (timed.as_nanos() as f64 / warm_iters as f64).max(1.0);
        let iters = (TARGET_SAMPLE_NS / per_iter_ns).clamp(1.0, 1_000_000.0) as u64;
        self.iters_per_sample = iters;
        self.samples_ns = (0..self.cfg.sample_size)
            .map(|_| {
                let mut timed = Duration::ZERO;
                for _ in 0..iters {
                    let input = setup();
                    let t = Instant::now();
                    black_box(routine(input));
                    timed += t.elapsed();
                }
                timed.as_nanos() as f64 / iters as f64
            })
            .collect();
    }
}

/// Timed samples per benchmark unless its group sets its own count.
const DEFAULT_SAMPLE_SIZE: usize = 20;

/// The bench driver: registers results, applies the `--smoke` flag and name
/// filter, and writes the JSON report when [`finalize`](Criterion::finalize)
/// runs (`criterion_main!` calls it).
#[derive(Default)]
pub struct Criterion {
    smoke: bool,
    filter: Option<String>,
    bench_name: String,
    reports: Vec<BenchReport>,
    attachments: Vec<(String, Json)>,
}

impl Criterion {
    /// Build a driver from the process arguments (`--smoke`, name filter)
    /// and the bench binary's own name.
    pub fn from_args() -> Self {
        let mut c = Criterion {
            bench_name: bench_binary_name(),
            ..Criterion::default()
        };
        for arg in std::env::args().skip(1) {
            if arg == "--smoke" {
                c.smoke = true;
            } else if !arg.starts_with('-') && c.filter.is_none() {
                c.filter = Some(arg);
            }
            // Other flags (--bench, --color, ...) come from cargo; ignore.
        }
        c
    }

    /// Whether this run is a `--smoke` pass (one sample per bench). Benches
    /// with an expensive full-scale section use this to size their fixture.
    pub fn is_smoke(&self) -> bool {
        self.smoke
    }

    /// Open a named group; benches inside report as `group/name` and may
    /// carry shared throughput / sample-size settings.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            throughput: None,
            sample_size: DEFAULT_SAMPLE_SIZE,
        }
    }

    /// Finished benchmark results so far (ordered by execution).
    pub fn reports(&self) -> &[BenchReport] {
        &self.reports
    }

    /// Attach an extra JSON section to the final report, next to `results`
    /// — e.g. a telemetry snapshot diff of the benchmarked workload. Later
    /// attachments with the same key overwrite earlier ones.
    pub fn attach(&mut self, key: &str, value: Json) -> &mut Self {
        self.attachments.retain(|(k, _)| k != key);
        self.attachments.push((key.to_string(), value));
        self
    }

    /// Write the JSON report. Called by `criterion_main!` after all groups.
    pub fn finalize(&self) {
        let dir = match std::env::var_os("MM_BENCH_OUT") {
            Some(d) => std::path::PathBuf::from(d),
            None => default_report_dir(),
        };
        let path = dir.join(format!("{}.json", self.bench_name));
        let mut members = vec![
            ("bench".to_string(), self.bench_name.to_json()),
            ("smoke".to_string(), self.smoke.to_json()),
            ("results".to_string(), self.reports.to_json()),
        ];
        members.extend(self.attachments.iter().cloned());
        let doc = Json::Obj(members);
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.to_string()))
        {
            eprintln!("mm-bench: could not write {}: {e}", path.display());
        } else {
            println!("\nmm-bench report: {}", path.display());
        }
    }
}

/// A set of related benchmarks sharing throughput and sample-size settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Declare per-iteration work for every bench in the group.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Override the sample count for this group (ignored in smoke mode).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Run one benchmark inside the group (reported as `group/name`). The
    /// closure receives a [`Bencher`] and must call `iter` or
    /// `iter_batched`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let name = format!("{}/{}", self.name, name);
        let c = &mut *self.criterion;
        if c.filter
            .as_ref()
            .is_some_and(|keep| !name.contains(keep.as_str()))
        {
            return self;
        }
        let mut b = Bencher::new(SampleConfig {
            sample_size: self.sample_size,
            smoke: c.smoke,
        });
        f(&mut b);
        let report =
            BenchReport::from_samples(name, b.iters_per_sample, b.samples_ns, self.throughput);
        print_report(&report, c.smoke);
        c.reports.push(report);
        self
    }
}

fn print_report(r: &BenchReport, smoke: bool) {
    if smoke {
        println!("{:<44} ok ({} per run)", r.name, fmt_ns(r.median_ns));
        return;
    }
    let mut line = format!(
        "{:<44} median {:>10}   [{} .. {}]  ({} samples x {} iters)",
        r.name,
        fmt_ns(r.median_ns),
        fmt_ns(r.min_ns),
        fmt_ns(r.max_ns),
        r.samples,
        r.iters_per_sample,
    );
    if let (Some(rate), Some(t)) = (r.rate_per_sec(), r.throughput) {
        let unit = match t {
            Throughput::Elements(_) => "elem/s",
            Throughput::Bytes(_) => "B/s",
        };
        line.push_str(&format!("  {} {unit}", fmt_si(rate)));
    }
    println!("{line}");
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1.0e3 {
        format!("{ns:.1} ns")
    } else if ns < 1.0e6 {
        format!("{:.2} us", ns / 1.0e3)
    } else if ns < 1.0e9 {
        format!("{:.2} ms", ns / 1.0e6)
    } else {
        format!("{:.3} s", ns / 1.0e9)
    }
}

fn fmt_si(x: f64) -> String {
    if x >= 1.0e9 {
        format!("{:.2} G", x / 1.0e9)
    } else if x >= 1.0e6 {
        format!("{:.2} M", x / 1.0e6)
    } else if x >= 1.0e3 {
        format!("{:.2} k", x / 1.0e3)
    } else {
        format!("{x:.1} ")
    }
}

/// Bench binary file stem with cargo's `-<16 hex>` disambiguator stripped.
fn bench_binary_name() -> String {
    let stem = std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "bench".to_string());
    match stem.rsplit_once('-') {
        Some((base, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            base.to_string()
        }
        _ => stem,
    }
}

/// `<target>/mm-bench`, located from the bench executable's path
/// (`<target>/release/deps/<bench>-<hash>`); falls back to `./target`.
fn default_report_dir() -> std::path::PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.ancestors().nth(3).map(std::path::Path::to_path_buf))
        .unwrap_or_else(|| std::path::PathBuf::from("target"))
        .join("mm-bench")
}

/// Bundle bench functions into a group runner, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Generate `main`: parse args, run every group, write the JSON report.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::from_args();
            $($group(&mut c);)+
            c.finalize();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let ctx = bench_ctx();
        assert_eq!(ctx.runs, 1);
    }

    fn smoke_criterion() -> Criterion {
        Criterion {
            smoke: true,
            ..Criterion::default()
        }
    }

    #[test]
    fn smoke_mode_runs_each_routine_once() {
        let mut c = smoke_criterion();
        let mut calls = 0u32;
        c.benchmark_group("grp")
            .sample_size(10)
            .bench_function("counted", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 1);
        assert_eq!(c.reports().len(), 1);
        assert_eq!(c.reports()[0].samples, 1);
        assert_eq!(c.reports()[0].iters_per_sample, 1);
    }

    #[test]
    fn groups_prefix_names_and_carry_throughput() {
        let mut c = smoke_criterion();
        c.benchmark_group("grp")
            .throughput(Throughput::Bytes(1_000))
            .bench_function("inner", |b| b.iter(|| black_box(2 + 2)));
        let r = &c.reports()[0];
        assert_eq!(r.name, "grp/inner");
        assert!(matches!(r.throughput, Some(Throughput::Bytes(1_000))));
        assert!(r.rate_per_sec().unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn filter_skips_non_matching_benches() {
        let mut c = smoke_criterion();
        c.filter = Some("keep".to_string());
        let mut calls = 0u32;
        c.benchmark_group("grp")
            .bench_function("keep_me", |b| b.iter(|| 1))
            .bench_function("drop_me", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 0);
        assert_eq!(c.reports().len(), 1);
        assert_eq!(c.reports()[0].name, "grp/keep_me");
    }

    #[test]
    fn iter_batched_times_routine_only() {
        let mut c = smoke_criterion();
        let mut setups = 0u32;
        c.benchmark_group("grp").bench_function("batched", |b| {
            b.iter_batched(
                || {
                    setups += 1;
                    vec![1u8; 64]
                },
                |v| v.len(),
            )
        });
        assert_eq!(setups, 1);
    }

    #[test]
    fn median_is_robust_to_one_outlier() {
        let r = BenchReport::from_samples("m".into(), 1, vec![10.0, 11.0, 12.0, 9.0, 500.0], None);
        assert_eq!(r.median_ns, 11.0);
        assert_eq!(r.min_ns, 9.0);
        assert_eq!(r.max_ns, 500.0);
        assert_eq!(r.samples, 5);
    }

    #[test]
    fn report_serializes_to_json() {
        let r = BenchReport::from_samples(
            "j".into(),
            4,
            vec![100.0, 200.0],
            Some(Throughput::Elements(50)),
        );
        let doc = r.to_json();
        assert_eq!(doc["name"].as_str(), Some("j"));
        assert_eq!(doc["median_ns"].as_f64(), Some(150.0));
        assert_eq!(doc["throughput"]["kind"].as_str(), Some("elements"));
    }
}
