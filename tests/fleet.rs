//! Determinism contract of the `mmx fleet` multi-UE runtime: the rendered
//! report and the retained telemetry sections must be byte-identical for
//! any `MM_THREADS` and any shard count — per-UE integer tallies are
//! merged associatively in submission order, so how the UE population is
//! cut and scheduled can never leak into the output. This is the gate
//! `scripts/verify.sh` runs against the release binary.

use mm_exec::Executor;
use mm_json::ToJson;
use mm_store::fnv1a64;
use mm_telemetry::global;
use mmexperiments::{run_fleet_on, FleetConfig};

fn small_fleet(shards: usize) -> FleetConfig {
    FleetConfig {
        ues: 200,
        shards,
        duration_ms: 5_000,
        ..FleetConfig::default()
    }
}

/// One run under one scheduling shape: report text plus the retained
/// `fleet`/`sched` metrics JSON (exactly what `mmx fleet --metrics`
/// emits).
fn run_shape(threads: usize, shards: usize) -> (String, String) {
    global().reset();
    let report = run_fleet_on(&small_fleet(shards), &Executor::new(threads)).unwrap();
    let metrics = global()
        .snapshot()
        .deterministic()
        .retain_sections(&["fleet", "sched"])
        .to_json()
        .to_string();
    (report.render(), metrics)
}

/// One test fn (not several) so no sibling test races the global registry
/// between reset() and snapshot() — the tests/telemetry.rs pattern. The
/// release-only 100k-UE run records into that registry too, so it runs
/// here, after the invariance matrix.
#[test]
fn fleet_report_invariant_to_threads_and_shards() {
    let (reference, reference_metrics) = run_shape(1, 1);
    assert!(reference.contains("fleet: ues 200"), "{reference}");
    assert!(
        reference_metrics.contains("events_processed"),
        "{reference_metrics}"
    );
    for threads in [1, 2, 8] {
        for shards in [1, 4, 16] {
            let (text, metrics) = run_shape(threads, shards);
            assert_eq!(
                text, reference,
                "fleet report diverged at {threads} thread(s), {shards} shard(s)"
            );
            assert_eq!(
                metrics, reference_metrics,
                "fleet metrics diverged at {threads} thread(s), {shards} shard(s)"
            );
        }
    }
    global().reset();

    // Golden hash of the 200-UE quick fleet. A change here means the
    // simulated *content* changed (per-UE streams, tally semantics, or the
    // report format) — bump it only with a review of what moved, never to
    // paper over scheduler nondeterminism.
    assert_eq!(
        fnv1a64(reference.as_bytes()),
        GOLDEN_FLEET_2018,
        "golden fleet hash changed:\n{reference}"
    );

    #[cfg(not(debug_assertions))]
    carries_100k_ues();
}

/// The verify-gate scale: 100k concurrent UEs in one process. Debug-mode
/// event dispatch is ~20x slower, so this only runs under `--release`
/// (`scripts/verify.sh` runs it, and the `mmx fleet` CLI at the same scale).
#[cfg(not(debug_assertions))]
fn carries_100k_ues() {
    let cfg = FleetConfig {
        ues: 100_000,
        shards: 64,
        duration_ms: 2_000,
        ..FleetConfig::default()
    };
    let report = run_fleet_on(&cfg, &Executor::from_env()).unwrap();
    assert_eq!(report.tally.ues_attached, 100_000, "{}", report.render());
    assert_eq!(
        report.tally.sim_ms,
        100_000 * 2_000,
        "every UE stepped its full duration"
    );
}

/// FNV-1a of the 200-UE, 5 s, seed-2018 fleet report over carrier A in
/// C1 at scale 0.05.
const GOLDEN_FLEET_2018: u64 = 14773048091601669795;
