//! Benchmarks of the streaming figure aggregation (DESIGN.md §10): folding
//! D2 into the `D2Agg` figure state from a materialized dataset vs
//! streaming it block-by-block off the columnar store format.
//!
//! Besides the timed group (bench-sized fixture), the report attaches an
//! `aggregate_rate` section with sustained samples/sec over a large
//! fixture — the full ~8M-sample paper-scale crawl in a normal run, a
//! small one under `--smoke`. The rates are recorded; nothing gates on
//! them.

use mm_bench::{bench_ctx, black_box, criterion_group, criterion_main, Criterion, Throughput};
use mm_exec::Executor;
use mm_json::Json;
use mmexperiments::{Ctx, D2Agg};
use mmlab::store::D2StoreReader;

fn bench_aggregate(c: &mut Criterion) {
    let ctx = bench_ctx();
    let d2 = ctx.d2();
    let mut store_bytes = Vec::new();
    d2.write_store(&mut store_bytes).expect("write store");

    let mut g = c.benchmark_group("aggregate");
    g.throughput(Throughput::Elements(d2.len() as u64));
    g.bench_function("from_dataset", |b| {
        b.iter(|| D2Agg::from_dataset(black_box(d2)).len())
    });
    g.bench_function("from_store_stream", |b| {
        b.iter(|| {
            let reader = D2StoreReader::new(black_box(store_bytes.as_slice())).expect("open");
            D2Agg::from_store(reader).expect("stream").len()
        })
    });
}

/// One timed pass over a crawl at scale: crawl rate, aggregation rate from
/// the materialized dataset, and aggregation rate streaming the encoded
/// store — attached to the JSON report as `aggregate_rate`.
fn attach_scale_rates(c: &mut Criterion) {
    // Full mode measures the actual paper-scale dataset (~32k cells, ~8M
    // samples); smoke keeps the same code path on a small world.
    let scale = if c.is_smoke() { 0.05 } else { 1.0 };
    let ctx = Ctx::builder().seed(2018).scale(scale).build();
    let exec = Executor::from_env();

    let t0 = std::time::Instant::now();
    let (d2, _) = mmlab::crawl_with_stats(ctx.world(), ctx.seed ^ 0xD2, &exec);
    let crawl_s = t0.elapsed().as_secs_f64().max(1e-9);

    let t1 = std::time::Instant::now();
    let agg = D2Agg::from_dataset(&d2);
    let dataset_s = t1.elapsed().as_secs_f64().max(1e-9);

    let mut store_bytes = Vec::new();
    d2.write_store(&mut store_bytes).expect("write store");
    let t2 = std::time::Instant::now();
    let streamed = D2Agg::from_store(D2StoreReader::new(store_bytes.as_slice()).expect("open"))
        .expect("stream");
    let stream_s = t2.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(streamed.len(), agg.len(), "paths agree");

    let n = d2.len() as f64;
    c.attach(
        "aggregate_rate",
        Json::Obj(vec![
            ("scale".to_string(), Json::Num(scale)),
            ("samples".to_string(), Json::Num(n)),
            ("cells".to_string(), Json::Num(agg.unique_cells() as f64)),
            (
                "store_bytes".to_string(),
                Json::Num(store_bytes.len() as f64),
            ),
            ("crawl_samples_per_s".to_string(), Json::Num(n / crawl_s)),
            (
                "agg_from_dataset_samples_per_s".to_string(),
                Json::Num(n / dataset_s),
            ),
            (
                "agg_from_store_samples_per_s".to_string(),
                Json::Num(n / stream_s),
            ),
        ]),
    );
}

fn benches(c: &mut Criterion) {
    bench_aggregate(c);
    attach_scale_rates(c);
}

criterion_group!(aggregate, benches);
criterion_main!(aggregate);
