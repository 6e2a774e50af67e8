//! Randomized cross-crate property tests: every configuration any built-in
//! carrier can generate must survive the byte-level signaling round trip,
//! and the diversity metrics must be invariant under crawl order.
//!
//! These were proptest blocks; they are now seeded loops on `mm-rng` with
//! the same 64-case budget and the same invariants, so the whole suite is
//! deterministic and dependency-free. On failure the assert message carries
//! the case's inputs.

use mm_rng::{Rng, SmallRng};
use mmcarriers::profiles;
use mmlab::diversity::{coefficient_of_variation, simpson_index};
use mmradio::cell::CellId;
use mmradio::geom::Point;
use mmsignaling::{assemble, broadcast, RrcMessage};

const CASES: usize = 64;

/// Any sampled cell configuration of any carrier round-trips through the
/// wire codec bit-exactly.
#[test]
fn prop_generated_configs_round_trip() {
    let all = profiles();
    let mut rng = SmallRng::seed_from_u64(0x0516_7701);
    for case in 0..CASES {
        let profile = &all[rng.gen_range(0..all.len())];
        let cell = CellId(rng.gen_range(1u32..100_000));
        let pos = Point::new(rng.gen_range(0.0..20_000.0), rng.gen_range(0.0..20_000.0));
        let version = rng.gen_range(0u32..4);
        let seed = rng.gen_range(0u64..1_000);
        let channel = profile.sample_channel(seed, cell, pos);
        let neighbors: Vec<_> = profile
            .bands
            .iter()
            .map(|b| b.channel)
            .filter(|c| *c != channel)
            .take(3)
            .collect();
        let cfg = profile.sample_cell_config(seed, cell, pos, channel, &neighbors, version);
        let wire: Vec<RrcMessage> = broadcast(&cfg)
            .iter()
            .map(|m| RrcMessage::decode(&m.encode()).expect("self-produced SIBs decode"))
            .collect();
        let rebuilt = assemble(&wire).expect("complete SIB set");
        assert_eq!(
            rebuilt, cfg,
            "case {case}: carrier {} cell {cell:?} seed {seed} version {version}",
            profile.code
        );
    }
}

/// Diversity metrics are permutation-invariant and bounded.
#[test]
fn prop_diversity_invariants() {
    let mut rng = SmallRng::seed_from_u64(0x0516_7702);
    for case in 0..CASES {
        let len = rng.gen_range(1usize..200);
        let mut values: Vec<i32> = (0..len).map(|_| rng.gen_range(-70i32..70)).collect();
        let as_f64: Vec<f64> = values.iter().map(|v| f64::from(*v) / 2.0).collect();
        let d = simpson_index(&as_f64);
        assert!((0.0..1.0).contains(&d) || d == 0.0, "case {case}: D = {d}");
        let cv = coefficient_of_variation(&as_f64);
        assert!(cv >= 0.0, "case {case}: Cv = {cv}");
        // Permute: metrics unchanged.
        values.reverse();
        let rev: Vec<f64> = values.iter().map(|v| f64::from(*v) / 2.0).collect();
        assert!((simpson_index(&rev) - d).abs() < 1e-12, "case {case}");
        assert!(
            (coefficient_of_variation(&rev) - cv).abs() < 1e-9,
            "case {case}"
        );
    }
}

/// The reporting-range invariant: a single-valued set has D = 0 and Cv = 0;
/// duplicating every sample leaves both unchanged.
#[test]
fn prop_duplication_invariance() {
    let mut rng = SmallRng::seed_from_u64(0x0516_7703);
    for case in 0..CASES {
        let len = rng.gen_range(1usize..100);
        let xs: Vec<f64> = (0..len)
            .map(|_| f64::from(rng.gen_range(-50i32..50)))
            .collect();
        let doubled: Vec<f64> = xs.iter().chain(xs.iter()).copied().collect();
        assert!(
            (simpson_index(&xs) - simpson_index(&doubled)).abs() < 1e-12,
            "case {case}"
        );
        assert!(
            (coefficient_of_variation(&xs) - coefficient_of_variation(&doubled)).abs() < 1e-9,
            "case {case}"
        );
    }
}

#[test]
fn every_carrier_produces_decodable_configs_for_every_event_choice() {
    use mm_rng::stream_rng;
    use mmcarriers::EventChoice;
    for profile in profiles() {
        for choice in [
            EventChoice::A3,
            EventChoice::A5Rsrp,
            EventChoice::A5Rsrq,
            EventChoice::Periodic,
            EventChoice::A2Primary,
        ] {
            let mut rng = stream_rng(1, 2);
            let rcs = profile.build_report_config(choice, &mut rng);
            assert!(!rcs.is_empty(), "{} {:?}", profile.code, choice);
            let msg = RrcMessage::Reconfiguration {
                report_configs: rcs,
                s_measure_dbm: None,
            };
            let back = RrcMessage::decode(&msg.encode()).expect("decodes");
            assert_eq!(back, msg, "{} {:?}", profile.code, choice);
        }
    }
}
