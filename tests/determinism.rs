//! Determinism contract of the `mm-exec` scheduler: every parallel path in
//! the workspace must produce output byte-identical to its sequential
//! reference, for any thread count. These tests are the gate `scripts/
//! verify.sh` runs before trusting a parallel artifact regeneration.

use mm_exec::Executor;
use mm_store::fnv1a64;
use mmexperiments::{run, Artifact, Ctx};
use mmlab::campaign::{run_campaign, run_campaigns, CampaignConfig};
use mmlab::crawler::crawl_with;
use mobility_mm::prelude::*;

#[test]
fn campaign_identical_for_any_thread_count() {
    let world = World::generate(41, 0.04);
    let cfg = CampaignConfig::active(6)
        .runs(2)
        .duration_ms(180_000)
        .cities(&[City::C1, City::C3]);
    let seq = {
        let mut d = run_campaign(&world, "A", &cfg);
        d.extend(run_campaign(&world, "T", &cfg));
        d
    };
    assert!(!seq.is_empty());
    for threads in [1, 2, 8] {
        let par = run_campaigns(&world, &["A", "T"], &cfg, &Executor::new(threads));
        assert_eq!(seq, par, "campaign diverged at {threads} threads");
    }
}

#[test]
fn crawl_identical_for_any_thread_count() {
    let world = World::generate(42, 0.02);
    let seq = crawl_with(&world, 13, &Executor::sequential());
    assert!(!seq.is_empty());
    for threads in [2, 8] {
        let par = crawl_with(&world, 13, &Executor::new(threads));
        assert_eq!(seq, par, "crawl diverged at {threads} threads");
    }
}

/// Render every artifact the way `mmx all ablations` does: ordered gather
/// of one task per artifact over the shared context.
fn render_all(ctx: &Ctx, exec: &Executor) -> String {
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
fn mmx_all_text_identical_under_parallel_scheduler() {
    let ctx = Ctx::quick(2018);
    ctx.warm();
    let seq = render_all(&ctx, &Executor::sequential());
    for threads in [2, 8] {
        assert_eq!(
            fnv1a64(render_all(&ctx, &Executor::new(threads)).as_bytes()),
            fnv1a64(seq.as_bytes()),
            "artifact text diverged at {threads} threads"
        );
    }

    // Golden hash of the full quick-context artifact set. A change here
    // means the *content* of the reproduction changed — bump it only with a
    // figure-level review, never to paper over scheduler nondeterminism.
    assert_eq!(
        fnv1a64(seq.as_bytes()),
        GOLDEN_QUICK_2018,
        "golden artifact hash changed"
    );
}

/// FNV-1a of `render_all` over `Ctx::quick(2018)`.
///
/// Last bump: the crawler's SIB extractor was extended to paper-scale
/// yield (SIB4 q-OffsetCell lists, SIB6/7/8 inter-RAT layers, per-layer
/// and per-report-config parameters) and the Fig 13a rounds tail was
/// recalibrated to the published dataset volume, which changes every D2
/// figure. The D1 drive figures (F5–F10) were diffed against the
/// pre-change output and are byte-identical — inter-RAT layers carry
/// sub-serving priorities and zero offsets, so the simulator never acts
/// on them.
const GOLDEN_QUICK_2018: u64 = 12619696888513922055;
