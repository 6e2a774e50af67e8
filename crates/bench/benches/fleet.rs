//! Benchmarks of the event-driven fleet runtime (DESIGN.md §12): many UEs
//! interleaved on one shared event queue per shard, scattered across
//! mm-exec.
//!
//! Besides the timed group (bench-sized fleet), the report attaches a
//! `fleet_rate` section with sustained UE-events/sec over a larger
//! population (`ue_events_per_sec`), a recorded number that nothing
//! gates on.

use mm_bench::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mm_exec::Executor;
use mm_json::Json;
use mmexperiments::{run_fleet_on, FleetConfig};

fn bench_fleet(c: &mut Criterion) {
    let exec = Executor::from_env();
    let cfg = FleetConfig {
        ues: 200,
        shards: 8,
        duration_ms: 5_000,
        ..FleetConfig::default()
    };
    // Fixed event count per iteration: Measure/Control/Traffic per UE-epoch.
    let report = run_fleet_on(&cfg, &exec).expect("fleet runs");
    let mut g = c.benchmark_group("fleet");
    g.sample_size(10);
    g.throughput(Throughput::Elements(report.stats.events_processed));
    g.bench_function("200_ues_5s", |b| {
        b.iter(|| run_fleet_on(black_box(&cfg), &exec).expect("fleet runs"))
    });
}

/// One timed pass over a larger fleet — 100k UEs in a full run, a small
/// population under `--smoke` (same code path) — attached to the JSON
/// report as `fleet_rate`.
fn attach_fleet_rate(c: &mut Criterion) {
    let (ues, duration_ms) = if c.is_smoke() {
        (2_000, 2_000)
    } else {
        (100_000, 2_000)
    };
    let cfg = FleetConfig {
        ues,
        shards: 64,
        duration_ms,
        ..FleetConfig::default()
    };
    let exec = Executor::from_env();
    let t0 = std::time::Instant::now();
    let report = run_fleet_on(&cfg, &exec).expect("fleet runs");
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    let events = report.stats.events_processed as f64;
    c.attach(
        "fleet_rate",
        Json::Obj(vec![
            ("ues".to_string(), Json::Num(ues as f64)),
            ("shards".to_string(), Json::Num(cfg.shards as f64)),
            ("duration_ms".to_string(), Json::Num(duration_ms as f64)),
            ("events_processed".to_string(), Json::Num(events)),
            ("threads".to_string(), Json::Num(exec.threads() as f64)),
            ("ue_events_per_sec".to_string(), Json::Num(events / wall_s)),
        ]),
    );
}

fn benches(c: &mut Criterion) {
    bench_fleet(c);
    attach_fleet_rate(c);
}

criterion_group!(fleet, benches);
criterion_main!(fleet);
