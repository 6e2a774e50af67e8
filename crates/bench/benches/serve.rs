//! Benchmarks of the mmqd serving path (DESIGN.md §14): warm queries
//! against a resident server over the framed loopback protocol, vs the
//! cold-process path — spawning a fresh `mmq` that must open the store
//! and render the answer from data blocks.
//!
//! Attaches a `serve_rate` section with both rates and the speedup,
//! recorded numbers that nothing gates on: that a warm answer opens no
//! data block is counted instead, by `tests/query_equiv.rs` of
//! mmexperiments. The cold leg prefers the real release `mmq` binary
//! (located next to this bench's executable); when it is absent — `cargo
//! bench` without a prior `cargo build --release` — it falls back to an
//! in-process open+render, and says so in the section's `cold_mode` field.

use mm_bench::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mm_json::Json;
use mm_net::{Client, Request, Response};
use mmexperiments::store::RunStore;
use mmexperiments::{serve, Artifact, Ctx, QueryEngine, QueryRequest, ServeConfig};
use mmradio::band::Rat;
use std::path::PathBuf;

fn serve_ctx(c: &Criterion) -> (Ctx, f64) {
    let scale = if c.is_smoke() { 0.05 } else { 0.25 };
    (Ctx::builder().seed(2018).scale(scale).build(), scale)
}

/// The query both legs answer: a carrier-sliced Fig 16 — predicate
/// pushdown on the cold path, a pure cache replay on the warm one.
fn request() -> QueryRequest {
    QueryRequest::artifact(Artifact::F16)
        .carrier("A")
        .rat(Rat::Lte)
        .build()
        .expect("valid request")
}

/// The release `mmq`, if built: walk up from this bench executable
/// (`target/release/deps/serve-…`) looking for a sibling binary.
fn find_mmq() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    exe.ancestors()
        .skip(1)
        .map(|d| d.join("mmq"))
        .find(|c| c.is_file())
}

/// Drop every cached `q-…` answer so the next query must render.
fn clear_query_cache(dir: &std::path::Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        if e.file_name().to_string_lossy().starts_with("q-") {
            std::fs::remove_file(e.path()).ok();
        }
    }
}

fn bench_serve(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("mm-bench-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (ctx, scale) = serve_ctx(c);
    let store = RunStore::open(&dir).expect("open store");
    store.save_d2(&ctx).expect("persist campaign");

    // Resident server on an ephemeral loopback port.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server_dir = dir.clone();
    let (srv_ctx, _) = serve_ctx(c);
    let handle = std::thread::spawn(move || {
        let engine = QueryEngine::open(&server_dir, srv_ctx).expect("engine opens");
        let cfg = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        serve(&engine, listener, &cfg).expect("serve drains");
    });

    let req = request();
    let wire = Request::Query(req.to_wire());
    let mut client = Client::connect(&addr, 120_000).expect("connect");

    // First request renders server-side and fills the shared cache.
    let first = match client.request(&wire).expect("first answer") {
        Response::Ok(doc) => doc,
        Response::Err(e) => panic!("first query rejected: {e:?}"),
    };
    assert_eq!(
        first["cached"].as_bool(),
        Some(false),
        "first render: {first}"
    );
    // Every subsequent request — same connection or not — is a warm hit
    // that opens zero data blocks.
    match client.request(&wire).expect("warm answer") {
        Response::Ok(doc) => assert_eq!(doc["cached"].as_bool(), Some(true), "warm: {doc}"),
        Response::Err(e) => panic!("warm query rejected: {e:?}"),
    }

    // Warm rate: framed round trips against the resident engine.
    let warm_n = if c.is_smoke() { 100 } else { 500 };
    let t0 = std::time::Instant::now();
    for _ in 0..warm_n {
        let resp = client.request(black_box(&wire)).expect("warm answer");
        black_box(&resp);
    }
    let warm_qps = warm_n as f64 / t0.elapsed().as_secs_f64().max(1e-9);

    // Cold-process rate: each sample pays process start + store open +
    // pushdown scan + render (the query cache is cleared first).
    let cold_n = if c.is_smoke() { 3 } else { 5 };
    let mmq = find_mmq();
    let cold_mode = if mmq.is_some() {
        "subprocess"
    } else {
        "in-process"
    };
    let scale_arg = format!("{scale}");
    let t1 = std::time::Instant::now();
    for _ in 0..cold_n {
        clear_query_cache(&dir);
        match &mmq {
            Some(bin) => {
                let out = std::process::Command::new(bin)
                    .args([
                        "f16",
                        "--carrier",
                        "A",
                        "--rat",
                        "lte",
                        "--scale",
                        &scale_arg,
                    ])
                    .args(["--store", &dir.display().to_string()])
                    .output()
                    .expect("mmq subprocess runs");
                assert!(
                    out.status.success(),
                    "cold mmq failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
            }
            None => {
                let (cold_ctx, _) = serve_ctx(c);
                let engine = QueryEngine::open(&dir, cold_ctx).expect("cold engine opens");
                let res = engine.run(&req).expect("cold render");
                assert!(!res.cached, "cache was cleared");
                black_box(res.text.len());
            }
        }
    }
    let cold_qps = cold_n as f64 / t1.elapsed().as_secs_f64().max(1e-9);

    c.attach(
        "serve_rate",
        Json::Obj(vec![
            ("warm_qps".to_string(), Json::Num(warm_qps)),
            ("cold_process_qps".to_string(), Json::Num(cold_qps)),
            (
                "speedup_x".to_string(),
                Json::Num(warm_qps / cold_qps.max(1e-9)),
            ),
            ("cold_mode".to_string(), Json::Str(cold_mode.to_string())),
            ("warm_requests".to_string(), Json::Num(warm_n as f64)),
            ("cold_requests".to_string(), Json::Num(cold_n as f64)),
        ]),
    );

    // Refill the cache (the cold loop cleared it) so the timed group
    // below measures the warm wire path.
    client.request(&wire).expect("refill cache");
    let mut g = c.benchmark_group("serve");
    g.throughput(Throughput::Elements(1));
    g.sample_size(10);
    g.bench_function("warm_request", |b| {
        b.iter(|| match client.request(black_box(&wire)).expect("answer") {
            Response::Ok(doc) => doc["text"].as_str().map(str::len).unwrap_or(0),
            Response::Err(e) => panic!("warm request rejected: {e:?}"),
        })
    });

    // Drain the server; joining proves the clean shutdown path.
    match client
        .request(&Request::Shutdown)
        .expect("shutdown answered")
    {
        Response::Ok(doc) => assert_eq!(doc["draining"].as_bool(), Some(true)),
        Response::Err(e) => panic!("shutdown rejected: {e:?}"),
    }
    drop(client);
    handle.join().expect("serve thread exits");
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
