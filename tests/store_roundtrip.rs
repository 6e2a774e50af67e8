//! Storage-layer contract at workspace level: persisting the quick-context
//! datasets through the `mm-store` columnar format and rebuilding the
//! pipeline from the decoded files must reproduce the golden artifact hash
//! exactly — the store is lossless for everything the analysis consumes.

use mm_exec::Executor;
use mm_store::fnv1a64;
use mmexperiments::{run, Artifact, Ctx};
use mmlab::dataset::{D1, D2};

/// FNV-1a of `render_all` over `Ctx::quick(2018)` — the same constant
/// `tests/determinism.rs` pins.
const GOLDEN_QUICK_2018: u64 = 12619696888513922055;

fn render_all(ctx: &Ctx) -> String {
    let exec = Executor::sequential();
    let outputs = exec.scatter_gather(Artifact::ALL.to_vec(), |_, artifact| run(ctx, artifact));
    let mut text = String::new();
    for out in outputs {
        text.push_str(out.artifact.id());
        text.push('\n');
        text.push_str(&out.text);
    }
    text
}

#[test]
fn datasets_recovered_from_the_store_reproduce_the_golden_hash() {
    // Simulate once, persist D1/D2 to columnar bytes.
    let cold = Ctx::quick(2018);
    cold.warm();
    let mut d2_bytes = Vec::new();
    cold.d2().write_store(&mut d2_bytes).expect("write d2");
    let mut d1a_bytes = Vec::new();
    cold.d1_active()
        .write_store(&mut d1a_bytes)
        .expect("write d1 active");
    let mut d1i_bytes = Vec::new();
    cold.d1_idle()
        .write_store(&mut d1i_bytes)
        .expect("write d1 idle");

    // Rebuild a fresh context entirely from the decoded files — the
    // simulation never runs again.
    let warm = Ctx::quick(2018);
    assert!(warm.preload_d2(D2::read_store(d2_bytes.as_slice()).expect("read d2")));
    assert!(warm.preload_d1_active(D1::read_store(d1a_bytes.as_slice()).expect("read d1 active")));
    assert!(warm.preload_d1_idle(D1::read_store(d1i_bytes.as_slice()).expect("read d1 idle")));

    assert_eq!(
        fnv1a64(render_all(&warm).as_bytes()),
        GOLDEN_QUICK_2018,
        "artifacts rendered from stored datasets must match the golden hash"
    );
}

/// Length and FNV-1a of each `Ctx::quick(2018)` dataset in the store
/// format: the on-disk bytes, pinned across commits.
const GOLDEN_STORE_2018: [(&str, usize, u64); 3] = [
    ("d2", 6_931_155, 2982754153472058832),
    ("d1-active", 6_166, 10883253847833837151),
    ("d1-idle", 6_769, 1632018561306669209),
];

#[test]
fn store_encoding_is_deterministic() {
    let ctx = Ctx::quick(2018);
    let mut a = Vec::new();
    ctx.d2().write_store(&mut a).expect("write");
    let mut b = Vec::new();
    ctx.d2().write_store(&mut b).expect("write");
    assert_eq!(a, b, "same dataset, same bytes");

    let mut d1a = Vec::new();
    ctx.d1_active().write_store(&mut d1a).expect("write");
    let mut d1i = Vec::new();
    ctx.d1_idle().write_store(&mut d1i).expect("write");
    for ((entry, len, hash), bytes) in GOLDEN_STORE_2018.into_iter().zip([a, d1a, d1i]) {
        assert_eq!(
            (bytes.len(), fnv1a64(&bytes)),
            (len, hash),
            "{entry} store bytes changed"
        );
    }
}
