//! Integration tests of the mm-telemetry subsystem against real workloads:
//! the deterministic snapshot must be byte-identical for any thread count,
//! and `Snapshot::diff` must isolate one workload's contribution.

use mm_exec::Executor;
use mm_json::ToJson;
use mm_telemetry::{global, Registry, Scope, Snapshot};
use mmcarriers::world::World;
use mmexperiments::D2Agg;
use mmlab::campaign::{run_campaigns, CampaignConfig};
use mmlab::crawler::crawl_with;
use mmlab::D2StoreReader;

fn run_workload(threads: usize) -> Snapshot {
    global().reset();
    let exec = Executor::new(threads);
    let world = World::generate(5, 0.02);
    let cfg = CampaignConfig::active(3)
        .runs(2)
        .duration_ms(120_000)
        .cities(&[mmcarriers::City::C1]);
    let d1 = run_campaigns(&world, &["A", "T"], &cfg, &exec);
    assert!(!d1.is_empty());
    let d2 = crawl_with(&world, 9, &exec);
    assert!(!d2.is_empty());
    let mut store = Vec::new();
    d2.write_store(&mut store).expect("in-memory store write");
    let reader = D2StoreReader::new(store.as_slice()).expect("store header");
    D2Agg::new()
        .fold_store(reader, &exec)
        .expect("fold the stored crawl");
    let snap = global().snapshot();
    assert_eq!(
        snap.counter("crawl", "samples_emitted"),
        Some(d2.len() as u64)
    );
    // Most crawled rows repeat their cell's previous round.
    let fold = |name| snap.counter("fold", name).unwrap_or(0);
    let (folded, repeated) = (fold("rows_folded"), fold("rows_repeated"));
    assert!(
        0 < repeated && repeated < folded && folded == d2.len() as u64,
        "rows_folded {folded}, rows_repeated {repeated}, rows {}",
        d2.len()
    );
    snap
}

/// One test fn (not several) so no other telemetry test races the global
/// registry between reset() and snapshot().
#[test]
fn deterministic_snapshot_is_thread_count_invariant() {
    let baseline = run_workload(1);
    let expected = baseline.deterministic().to_json().to_string();
    assert!(expected.contains("campaign"), "campaign section present");
    assert!(expected.contains("netsim"), "netsim section present");
    assert!(expected.contains("crawl"), "crawl section present");
    assert!(expected.contains("\"exec\""), "exec section present");
    // The crawl observes each distinct broadcast once: fewer configurations
    // drawn than cell-rounds observed.
    let crawl = |name| baseline.counter("crawl", name).unwrap_or(0);
    let (configs, rounds) = (crawl("configs_drawn"), crawl("rounds_observed"));
    assert!(
        0 < configs && configs < rounds,
        "configs_drawn {configs}, rounds_observed {rounds}"
    );
    for threads in [2, 8] {
        let got = run_workload(threads).deterministic().to_json().to_string();
        assert_eq!(
            got, expected,
            "deterministic snapshot differs at {threads} threads"
        );
    }
    // The full (non-deterministic) snapshot still carries scheduler-scoped
    // counters that the deterministic view filtered out.
    let full = run_workload(1).to_json().to_string();
    assert!(full.contains("busy_ns"));
    assert!(!expected.contains("busy_ns"));
    global().reset();
}

#[test]
fn diff_isolates_one_workloads_contribution() {
    let reg = Registry::new();
    reg.counter("sec", "events").add(7);
    reg.histogram("sec", "delay_ms", &[10, 20]).record(15);
    let before = reg.snapshot();
    reg.counter("sec", "events").add(5);
    reg.counter("sec", "late").inc();
    reg.histogram("sec", "delay_ms", &[10, 20]).record(15);
    reg.histogram("sec", "delay_ms", &[10, 20]).record(25);
    let delta = reg.snapshot().diff(&before);
    let sec = delta.section("sec").expect("section kept");
    assert_eq!(delta.counter("sec", "events"), Some(5));
    assert_eq!(
        delta.counter("sec", "late"),
        Some(1),
        "new counters pass through"
    );
    let hist = sec
        .histograms
        .iter()
        .find(|h| h.name == "delay_ms")
        .unwrap();
    assert_eq!(hist.count, 2);
    assert_eq!(hist.buckets, vec![0, 1, 1], "bucket-wise delta");
}

#[test]
fn scoped_counters_partition_the_deterministic_view() {
    let reg = Registry::new();
    reg.counter_scoped("s", "model", Scope::Sim).add(3);
    reg.counter_scoped("s", "sched", Scope::Sched).add(9);
    let det = reg.snapshot().deterministic();
    let sec = det
        .section("s")
        .expect("section with a sim counter survives");
    assert_eq!(sec.counters.len(), 1);
    assert_eq!(det.counter("s", "model"), Some(3));
    assert_eq!(det.counter("s", "sched"), None);
}

#[test]
fn snapshot_json_parses_back() {
    let reg = Registry::new();
    reg.counter("a", "n").inc();
    reg.histogram("a", "h", &[1, 2, 4]).record(3);
    let text = reg.snapshot().to_json().to_string();
    let parsed = mm_json::Json::parse(&text).expect("snapshot JSON is valid");
    assert_eq!(parsed["schema"].as_u64(), Some(1));
    assert_eq!(parsed["sections"].as_array().map(<[_]>::len), Some(1));
}
