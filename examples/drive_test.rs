//! A Type-II measurement campaign: drive-test fleets for AT&T and T-Mobile
//! across the paper's three drive cities, producing a D1-style dataset of
//! handoff instances with radio and throughput context.
//!
//! ```text
//! cargo run --release --example drive_test [-- <scale> <runs>]
//! ```

use mmlab::stats::{mean, pct_above};
use mmnetsim::run::HandoffKind;
use mobility_mm::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.08);
    let runs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);

    println!("generating world (scale {scale}) ...");
    let world = World::generate(2018, scale);

    let cfg = CampaignConfig::active(11)
        .runs(runs)
        .duration_ms(480_000)
        .cities(&[City::C1, City::C3, City::C5]);
    let mut d1 = D1::default();
    for carrier in ["A", "T"] {
        println!("running {runs} drives x 3 cities for {carrier} ...");
        d1.extend(run_campaign(&world, carrier, &cfg));
    }
    println!("collected {} active-state handoff instances\n", d1.len());

    for carrier in ["A", "T"] {
        let mut by_event: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
        let mut delays = Vec::new();
        for i in d1.filter(&Predicate::any().carrier(carrier)) {
            by_event
                .entry(i.record.event_label())
                .or_default()
                .push(i.record.delta_rsrp_db());
            if let HandoffKind::Active {
                command_delay_ms, ..
            } = i.record.kind
            {
                delays.push(command_delay_ms as f64);
            }
        }
        println!("=== {carrier} ===");
        let total: usize = by_event.values().map(Vec::len).sum();
        for (event, deltas) in &by_event {
            println!(
                "  {event:<3} {:>5.1}%  dRSRP>0: {:>3.0}%  mean dRSRP {:+.1} dB",
                100.0 * deltas.len() as f64 / total as f64,
                pct_above(deltas, 0.0),
                mean(deltas),
            );
        }
        println!(
            "  report->command delay: mean {:.0} ms (paper: 80-230 ms)\n",
            mean(&delays)
        );
    }

    // Persist the dataset in the columnar store format `mmx --load` reads.
    let out = std::env::temp_dir().join("mobility_mm_d1.mmst");
    let mut bytes = Vec::new();
    d1.write_store(&mut bytes).expect("encode dataset");
    std::fs::write(&out, bytes).expect("write dataset");
    println!("D1 written to {}", out.display());
}
