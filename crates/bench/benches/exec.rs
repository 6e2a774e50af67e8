//! Benchmarks of the mm-exec work-stealing pool: raw scheduling overhead,
//! and the campaign/crawl fan-outs it accelerates. The sequential and
//! parallel variants of each workload land side by side in the JSON report,
//! so `parallel_speedup = sequential.median_ns / parallel.median_ns` is
//! derivable from one run (≈1.0 on single-core runners, where the pool
//! degenerates to the inline path).

use mm_bench::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mm_exec::Executor;
use mm_json::ToJson;
use mmcarriers::world::World;
use mmlab::campaign::{run_campaigns, CampaignConfig};
use mmlab::crawler::crawl_with;

fn bench_overhead(c: &mut Criterion) {
    let exec = Executor::from_env();
    let mut g = c.benchmark_group("exec");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("scatter_gather_1k_trivial_tasks", |b| {
        b.iter(|| {
            let items: Vec<u64> = (0..1_000).collect();
            black_box(exec.scatter_gather(items, |i, x| x.wrapping_mul(i as u64 + 1)))
        })
    });
}

fn bench_campaign(c: &mut Criterion) {
    let world = World::generate(7, 0.03);
    let cfg = CampaignConfig::active(3)
        .runs(2)
        .duration_ms(120_000)
        .cities(&[mmcarriers::City::C1, mmcarriers::City::C3]);
    let carriers: [&str; 2] = ["A", "T"];
    let before = mm_telemetry::global().snapshot();
    let mut g = c.benchmark_group("campaign");
    g.sample_size(10);
    // 2 carriers x 2 cities x 2 runs = 8 drives per iteration.
    g.throughput(Throughput::Elements(8));
    let seq = Executor::sequential();
    g.bench_function("sequential", |b| {
        b.iter(|| run_campaigns(&world, &carriers, &cfg, &seq))
    });
    let par = Executor::from_env();
    g.bench_function("parallel", |b| {
        b.iter(|| run_campaigns(&world, &carriers, &cfg, &par))
    });
    // What the benchmarked workload did, not just how long it took: the
    // telemetry delta over every timed + warmup iteration of this group.
    let delta = mm_telemetry::global().snapshot().diff(&before);
    c.attach("campaign_telemetry", delta.to_json());
}

fn bench_crawl(c: &mut Criterion) {
    let world = World::generate(7, 0.02);
    let mut g = c.benchmark_group("crawl");
    g.sample_size(10);
    g.throughput(Throughput::Elements(world.cells().len() as u64));
    let seq = Executor::sequential();
    g.bench_function("sequential", |b| b.iter(|| crawl_with(&world, 5, &seq)));
    let par = Executor::from_env();
    g.bench_function("parallel", |b| b.iter(|| crawl_with(&world, 5, &par)));
}

criterion_group!(benches, bench_overhead, bench_campaign, bench_crawl);
criterion_main!(benches);
