//! Acceptance gate for the streaming figure pipeline (DESIGN.md §10):
//! every artifact rendered from a store-recovered context — where D2 is
//! streamed block-by-block into the figure aggregate and never
//! materialized — must be byte-identical to the cold in-memory run, for
//! any thread count.

use mm_exec::Executor;
use mmexperiments::{run, Artifact, Ctx, RunStore};

fn tmp_store(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mm-stream-equiv-{tag}-{}", std::process::id()))
}

/// Render artifacts the way `mmx` does: ordered gather of one task per
/// artifact over the shared context.
fn render(ctx: &Ctx, exec: &Executor, artifacts: &[Artifact]) -> String {
    let outputs = exec.scatter_gather(artifacts.to_vec(), |_, artifact| run(ctx, artifact));
    let mut text = String::new();
    for out in outputs {
        text.push_str(out.artifact.id());
        text.push('\n');
        text.push_str(&out.text);
    }
    text
}

#[test]
fn figures_byte_identical_streaming_vs_materialized() {
    let dir = tmp_store("figures");
    let store = RunStore::open(&dir).expect("open store");

    // Cold reference: everything simulated and aggregated in memory.
    let cold = Ctx::quick(2018);
    store.save_datasets(&cold).expect("save datasets");
    let reference = render(&cold, &Executor::sequential(), &Artifact::ALL);
    assert!(cold.d2_is_materialized(), "cold path materializes D2");

    // Store-recovered contexts: D2 arrives only as the streamed aggregate.
    for threads in [1, 2, 8] {
        let warm = Ctx::quick(2018);
        assert_eq!(
            store
                .load_datasets(&warm, &Artifact::ALL)
                .expect("load datasets"),
            (3, 3),
            "all three datasets hit"
        );
        let text = render(&warm, &Executor::new(threads), &Artifact::ALL);
        assert_eq!(
            text, reference,
            "streamed output diverged at {threads} thread(s)"
        );
        assert!(
            !warm.d2_is_materialized(),
            "store-fed run must never materialize the raw D2 samples"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn in_memory_aggregate_path_is_the_same_figures() {
    // Even without a store, the aggregate-backed renderers must reproduce
    // the figures of a context whose aggregate was streamed off disk —
    // cross-checking the two D2Agg constructors at figure granularity.
    let dir = tmp_store("agg");
    let store = RunStore::open(&dir).expect("open store");
    let d2_figs: Vec<Artifact> = Artifact::PAPER
        .into_iter()
        .filter(|a| a.needs_d2_agg())
        .collect();
    assert_eq!(d2_figs.len(), 12, "F11..F22");

    let cold = Ctx::quick(9);
    store.save_datasets(&cold).expect("save");
    let in_memory = render(&cold, &Executor::sequential(), &d2_figs);

    let warm = Ctx::quick(9);
    store.load_datasets(&warm, &Artifact::ALL).expect("load");
    let streamed = render(&warm, &Executor::sequential(), &d2_figs);
    assert_eq!(in_memory, streamed);
    std::fs::remove_dir_all(&dir).ok();
}
