//! Benchmarks of the storage layer: columnar encode/decode/round-trip of
//! D2, and the cached-vs-cold `mmx`-style path (decode stored datasets and
//! render vs simulate and render). The report also attaches the D2 row
//! count and columnar size so `--smoke` runs record the bytes-per-sample
//! figure of DESIGN.md §9.

use mm_bench::{bench_ctx, black_box, criterion_group, criterion_main, Criterion, Throughput};
use mm_json::Json;
use mmexperiments::{run, Artifact, Ctx};
use mmlab::dataset::{D1, D2};

fn bench_store(c: &mut Criterion) {
    let ctx = bench_ctx();
    ctx.warm();
    let d2 = ctx.d2();
    let mut store_bytes = Vec::new();
    d2.write_store(&mut store_bytes).expect("write store");

    c.attach(
        "store_sizes",
        Json::Obj(vec![
            ("d2_rows".to_string(), Json::Num(d2.len() as f64)),
            (
                "columnar_bytes".to_string(),
                Json::Num(store_bytes.len() as f64),
            ),
        ]),
    );

    let mut g = c.benchmark_group("store");
    g.throughput(Throughput::Bytes(store_bytes.len() as u64));
    g.bench_function("encode_d2", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            d2.write_store(&mut buf).expect("write");
            buf.len()
        })
    });
    g.bench_function("decode_d2", |b| {
        b.iter(|| {
            D2::read_store(black_box(store_bytes.as_slice()))
                .expect("read")
                .len()
        })
    });
    g.bench_function("roundtrip_d2", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            d2.write_store(&mut buf).expect("write");
            D2::read_store(buf.as_slice()).expect("read").len()
        })
    });
}

/// Cold vs warm artifact regeneration, in-process: the cold path simulates
/// the datasets; the warm path decodes them from stored bytes. Rendering is
/// identical in both, so the gap is the store's saving.
fn bench_cached_vs_cold(c: &mut Criterion) {
    // Persist once from a reference context.
    let reference = bench_ctx();
    reference.warm();
    let mut d2_bytes = Vec::new();
    reference.d2().write_store(&mut d2_bytes).expect("write");
    let mut d1a_bytes = Vec::new();
    reference
        .d1_active()
        .write_store(&mut d1a_bytes)
        .expect("write");
    let mut d1i_bytes = Vec::new();
    reference
        .d1_idle()
        .write_store(&mut d1i_bytes)
        .expect("write");
    let arts = [Artifact::T4, Artifact::F10, Artifact::F12];

    let mut g = c.benchmark_group("mmx_path");
    g.sample_size(10);
    g.bench_function("cold_simulate_and_render", |b| {
        b.iter(|| {
            let ctx = bench_ctx();
            ctx.warm();
            arts.iter().map(|&a| run(&ctx, a).text.len()).sum::<usize>()
        })
    });
    g.bench_function("warm_decode_and_render", |b| {
        b.iter(|| {
            let ctx: Ctx = bench_ctx();
            assert!(ctx.preload_d2(D2::read_store(d2_bytes.as_slice()).expect("read")));
            assert!(ctx.preload_d1_active(D1::read_store(d1a_bytes.as_slice()).expect("read")));
            assert!(ctx.preload_d1_idle(D1::read_store(d1i_bytes.as_slice()).expect("read")));
            arts.iter().map(|&a| run(&ctx, a).text.len()).sum::<usize>()
        })
    });
}

criterion_group!(benches, bench_store, bench_cached_vs_cold);
criterion_main!(benches);
