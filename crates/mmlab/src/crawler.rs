//! The device-centric configuration crawler — MMLab's Type-I measurement.
//!
//! The crawler never touches `CellConfig` structs: for every distinct
//! broadcast it takes the byte-level SIB messages of the cell (as
//! `mmnetsim` would put on the air), decodes them with `mmsignaling`,
//! reassembles the configuration, and extracts `(parameter, value)`
//! samples; later rounds of the same version copy its rows, since a phone
//! that hears the same SIB bytes again learns nothing new. This enforces
//! the paper's core claim — everything in the study is learnable from a
//! phone.
//!
//! The number of crawl rounds per cell follows Fig 13a (≈ 48% of cells
//! observed more than once, with a tail out to 20+ rounds).
//!
//! The crawl of the ~32k-cell world is sharded over [`mm_exec::Executor`]:
//! each shard covers a contiguous cell range and every cell derives its own
//! RNG stream from its id. Each shard returns each run's rows once, checked
//! against the ingest contract, with the rounds that saw them, and D2 keeps
//! the shards' runs as they are, one segment per shard: nothing expands
//! them here. In shard → cell → round order the samples are the
//! sequential scan's for any thread count.

use crate::dataset::{ConfigSample, Segment, D2};
use mm_exec::{Executor, RunStats};
use mm_rng::{stream_rng, sub_seed, Rng};
use mmcarriers::world::{GeneratedCell, World, ROUNDS};
use mmcore::config::{CellConfig, Quantity};
use mmcore::events::EventKind;
use mmcore::kernel::sum_f64;
use mmradio::band::Rat;

/// Fig 13a-calibrated rounds-per-cell distribution: `(rounds, weight)`.
///
/// Two published anchors pin it: 51.9% of cells are observed exactly once
/// (Fig 13a), and the crawl's mean yield must reproduce the dataset total —
/// 7,996,149 samples over 32,033 cells is ~250 samples per cell, which at
/// the per-observation parameter yield of the SIB extractor requires a mean
/// of ~3.7 rounds over the multi-observation tail.
pub const ROUNDS_PER_CELL: &[(u32, f64)] = &[
    (1, 0.52),
    (2, 0.12),
    (3, 0.07),
    (4, 0.05),
    (5, 0.04),
    (6, 0.04),
    (8, 0.04),
    (10, 0.04),
    (15, 0.04),
    (20, 0.04),
];

fn draw_rounds<R: Rng + ?Sized>(rng: &mut R) -> u32 {
    let total = sum_f64(ROUNDS_PER_CELL.iter().map(|&(_, w)| w));
    let mut x = rng.gen::<f64>() * total;
    for &(n, w) in ROUNDS_PER_CELL {
        x -= w;
        if x <= 0.0 {
            return n;
        }
    }
    1
}

/// Extract the paper's analysis parameters from one decoded configuration.
///
/// Neighbour-layer parameters are tagged with the *layer's* channel (what
/// Fig 18's candidate-priority panel needs); everything else with the
/// serving channel.
pub fn extract_samples(
    cell: &GeneratedCell,
    cfg: &CellConfig,
    round: u32,
    out: &mut Vec<ConfigSample>,
) {
    let base = |param: &'static str, value: f64| ConfigSample {
        cell: cfg.cell,
        carrier: cell.carrier,
        city: cell.city,
        rat: Rat::Lte,
        channel: cfg.channel,
        pos: mmcarriers::world::global_pos(cell),
        round,
        param,
        value,
    };
    let s = &cfg.serving;
    out.push(base("cellReselectionPriority", f64::from(s.priority)));
    out.push(base("q-Hyst", s.q_hyst_db));
    out.push(base("q-RxLevMin", s.q_rxlevmin_dbm));
    out.push(base("q-QualMin", s.q_qualmin_db));
    out.push(base("s-IntraSearchP", s.s_intra_search_db));
    out.push(base("s-NonIntraSearchP", s.s_nonintra_search_db));
    out.push(base("threshServingLowP", s.thresh_serving_low_db));
    out.push(base("t-ReselectionEUTRA", s.t_reselection_s));

    // Neighbour layers, SIB5–8: parameter names follow the owning SIB so
    // e.g. a UTRA layer's reselection timer lands in the `t-ReselectionUTRA`
    // histogram, distinct from the EUTRA one, exactly as the paper tables
    // them.
    for layer in &cfg.neighbor_freqs {
        let lp = |param: &'static str, value: f64| {
            let mut s = base(param, value);
            s.channel = layer.channel;
            s
        };
        match layer.channel.rat {
            Rat::Lte => {
                out.push(lp(
                    "interFreqCellReselectionPriority",
                    f64::from(layer.priority),
                ));
                out.push(lp("threshX-High", layer.thresh_x_high_db));
                out.push(lp("threshX-Low", layer.thresh_x_low_db));
                out.push(lp("interFreq-q-RxLevMin", layer.q_rxlevmin_dbm));
                out.push(lp("interFreq-q-OffsetFreq", layer.q_offset_freq_db));
                out.push(lp("t-ReselectionInterFreq", layer.t_reselection_s));
                out.push(lp(
                    "allowedMeasBandwidth",
                    f64::from(layer.meas_bandwidth_prb),
                ));
            }
            Rat::Umts => {
                out.push(lp(
                    "utra-CellReselectionPriority",
                    f64::from(layer.priority),
                ));
                out.push(lp("utra-threshX-High", layer.thresh_x_high_db));
                out.push(lp("utra-threshX-Low", layer.thresh_x_low_db));
                out.push(lp("utra-q-RxLevMin", layer.q_rxlevmin_dbm));
                out.push(lp("t-ReselectionUTRA", layer.t_reselection_s));
            }
            Rat::Gsm => {
                out.push(lp(
                    "geran-CellReselectionPriority",
                    f64::from(layer.priority),
                ));
                out.push(lp("geran-threshX-High", layer.thresh_x_high_db));
                out.push(lp("geran-threshX-Low", layer.thresh_x_low_db));
                out.push(lp("geran-q-RxLevMin", layer.q_rxlevmin_dbm));
                out.push(lp("t-ReselectionGERAN", layer.t_reselection_s));
            }
            Rat::Evdo => {
                out.push(lp(
                    "hrpd-CellReselectionPriority",
                    f64::from(layer.priority),
                ));
                out.push(lp("threshX-HighHRPD", layer.thresh_x_high_db));
                out.push(lp("threshX-LowHRPD", layer.thresh_x_low_db));
                out.push(lp("t-ReselectionCDMA2000", layer.t_reselection_s));
            }
            Rat::Cdma1x => {
                out.push(lp(
                    "1xrtt-CellReselectionPriority",
                    f64::from(layer.priority),
                ));
                out.push(lp("threshX-High1XRTT", layer.thresh_x_high_db));
                out.push(lp("threshX-Low1XRTT", layer.thresh_x_low_db));
                out.push(lp("t-ReselectionCDMA2000", layer.t_reselection_s));
            }
        }
    }

    // SIB4 neighbour list: one q-OffsetCell sample per listed cell.
    for &(_pci, offset_db) in &cfg.q_offset_cell_db {
        out.push(base("q-OffsetCell", offset_db));
    }

    for rc in &cfg.report_configs {
        match rc.event {
            EventKind::A3 { offset_db } => {
                out.push(base("a3-Offset", offset_db));
                out.push(base("hysteresis", rc.hysteresis_db));
            }
            EventKind::A5 {
                threshold1,
                threshold2,
            } => {
                out.push(base("a5-Threshold1", threshold1));
                out.push(base("a5-Threshold2", threshold2));
                // Track the quantity choice as its own pseudo-parameter so
                // the RSRP/RSRQ split (§4.1) is analyzable.
                out.push(base(
                    "a5-TriggerQuantity",
                    if rc.quantity == Quantity::Rsrq {
                        1.0
                    } else {
                        0.0
                    },
                ));
            }
            EventKind::A2 { threshold } => out.push(base("a2-Threshold", threshold)),
            _ => {}
        }
        if !matches!(rc.event, EventKind::Periodic) {
            out.push(base("timeToTrigger", f64::from(rc.time_to_trigger_ms)));
        }
        out.push(base("reportInterval", f64::from(rc.report_interval_ms)));
        out.push(base("reportAmount", f64::from(rc.report_amount)));
    }
}

/// Crawl one cell at one round through the full signaling round trip.
fn observe_lte(world: &World, cell: &GeneratedCell, round: u32, out: &mut Vec<ConfigSample>) {
    let Some(cfg) = world.observed_config(cell, round) else {
        return;
    };
    // Device-centric boundary: encode → decode → reassemble.
    let decoded: Vec<_> = mmsignaling::messages::broadcast(&cfg)
        .iter()
        .map(|m| {
            mmsignaling::messages::RrcMessage::decode(&m.encode())
                // mm-allow(E001): decoding bytes this crawler just encoded; a failure is a codec bug worth a loud panic
                .expect("self-produced SIBs decode")
        })
        .collect();
    // mm-allow(E001): reassembling the complete SIB set produced three lines up
    let rebuilt = mmsignaling::messages::assemble(&decoded).expect("complete SIB set");
    extract_samples(cell, &rebuilt, round, out);
}

fn observe_legacy(world: &World, cell: &GeneratedCell, round: u32, out: &mut Vec<ConfigSample>) {
    for (param, value) in world.observed_legacy_params(cell) {
        out.push(ConfigSample {
            cell: cell.id,
            carrier: cell.carrier,
            city: cell.city,
            rat: cell.rat,
            channel: cell.channel,
            pos: mmcarriers::world::global_pos(cell),
            round,
            param,
            value,
        });
    }
}

/// The rounds at which a cell is crawled: a Fig 13a-distributed count of
/// distinct rounds, ascending (volunteers return to areas).
fn drawn_rounds(cell: &GeneratedCell, crawl_seed: u64) -> Vec<u32> {
    let mut rng = stream_rng(crawl_seed, sub_seed(8, u64::from(cell.id.0)));
    let n_rounds = draw_rounds(&mut rng).min(ROUNDS);
    let mut rounds: Vec<u32> = (0..ROUNDS).collect();
    for i in (1..rounds.len()).rev() {
        rounds.swap(i, rng.gen_range(0..=i));
    }
    rounds.truncate(n_rounds as usize);
    rounds.sort_unstable();
    rounds
}

/// Crawl one cell: draw its round set and observe it once per run of
/// rounds that see the same broadcast. An LTE cell's configuration depends
/// on the round only through its version, which never decreases, so each
/// version's rounds are consecutive; a legacy cell's parameters do not
/// depend on the round at all.
fn crawl_cell(world: &World, cell: &GeneratedCell, crawl_seed: u64, out: &mut Segment) {
    let rounds = drawn_rounds(cell, crawl_seed);
    let lte = cell.rat == Rat::Lte;
    let same = |a: &u32, b: &u32| !lte || world.version_at(cell, *a) == world.version_at(cell, *b);
    for run in rounds.chunk_by(same) {
        let before = out.rows.len();
        if lte {
            observe_lte(world, cell, run[0], &mut out.rows);
        } else {
            observe_legacy(world, cell, run[0], &mut out.rows);
        }
        out.rounds.extend_from_slice(run);
        out.runs.push((out.rows.len() - before, run.len()));
    }
}

/// Cells per crawl shard: coarse enough that scheduling cost vanishes,
/// fine enough that a 32k-cell world still feeds dozens of workers.
const CRAWL_SHARD: usize = 128;

/// Run the full Type-I crawl over a world on an explicit executor.
pub fn crawl_with(world: &World, crawl_seed: u64, exec: &Executor) -> D2 {
    crawl_with_stats(world, crawl_seed, exec).0
}

/// Like [`crawl_with`], also returning the statistics of the shards'
/// scatter (per-task time, worker utilization), which is the whole crawl:
/// each shard checks its own rows, and D2 keeps the shards' runs. The
/// `crawl` span of mm-telemetry's `crawl` section times it too.
///
/// The cell list is split into contiguous shards whose outputs are kept
/// in submission order, so the crawl matches the sequential per-cell scan
/// under any thread count.
pub fn crawl_with_stats(world: &World, crawl_seed: u64, exec: &Executor) -> (D2, RunStats) {
    let reg = mm_telemetry::global();
    let _stage = reg.span("crawl", "crawl");
    let cells_crawled = reg.counter("crawl", "cells_crawled");
    let rounds_observed = reg.counter("crawl", "rounds_observed");
    let configs_drawn = reg.counter("crawl", "configs_drawn");
    let samples_emitted = reg.counter("crawl", "samples_emitted");
    let shards: Vec<&[GeneratedCell]> = world.cells().chunks(CRAWL_SHARD).collect();
    let (segments, stats) = exec.scatter_gather_stats(shards, |_, shard| {
        let mut out = Segment::default();
        for cell in shard {
            crawl_cell(world, cell, crawl_seed, &mut out);
        }
        // Expansion changes only `round`, and the contract reads only
        // `value`, so checking each run's rows once checks every sample.
        out.rows
            .iter()
            .try_for_each(ConfigSample::check)
            // mm-allow(E001): crawler values come from the calibrated profile tables (all finite half-grid quantities) — a violation is a profile bug, not a runtime condition
            .expect("crawler emitted an off-contract value");
        cells_crawled.add(shard.len() as u64);
        rounds_observed.add(out.rounds.len() as u64);
        configs_drawn.add(out.runs.len() as u64);
        samples_emitted.add(out.samples() as u64);
        out
    });
    (D2::from_segments(segments), stats)
}

/// Run the full Type-I crawl over a world, producing dataset D2, on the
/// ambient executor (`MM_THREADS` or `available_parallelism()`).
pub fn crawl(world: &World, crawl_seed: u64) -> D2 {
    crawl_with(world, crawl_seed, &Executor::from_env())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmcarriers::world::World;

    fn small_crawl() -> (World, D2) {
        let world = World::generate(5, 0.01);
        let d2 = crawl(&world, 77);
        (world, d2)
    }

    #[test]
    fn crawl_covers_every_cell() {
        let (world, d2) = small_crawl();
        assert_eq!(d2.unique_cells(), world.cells().len());
    }

    #[test]
    fn crawl_is_deterministic() {
        let world = World::generate(5, 0.01);
        assert_eq!(crawl(&world, 77), crawl(&world, 77));
        assert_ne!(crawl(&world, 77), crawl(&world, 78));
    }

    /// The crawl observed the old way: every drawn round crosses the whole
    /// device-centric path, into one `Vec`.
    fn crawl_every_round(world: &World, crawl_seed: u64) -> D2 {
        let mut out = Vec::new();
        for cell in world.cells() {
            for round in drawn_rounds(cell, crawl_seed) {
                if cell.rat == Rat::Lte {
                    observe_lte(world, cell, round, &mut out);
                } else {
                    observe_legacy(world, cell, round, &mut out);
                }
            }
        }
        D2::try_from_samples(out).unwrap()
    }

    #[test]
    fn run_crawl_matches_observing_every_round_at_any_thread_count() {
        for (world_seed, scale, crawl_seed) in [(6, 0.02, 21), (13, 0.03, 5)] {
            let world = World::generate(world_seed, scale);
            // Cells whose drawn rounds see two versions, so a run keyed
            // on the cell alone would copy a stale broadcast.
            let straddling = world
                .cells()
                .iter()
                .filter(|c| {
                    let rounds = drawn_rounds(c, crawl_seed);
                    c.rat == Rat::Lte
                        && world.version_at(c, rounds[0])
                            != world.version_at(c, rounds[rounds.len() - 1])
                })
                .count();
            assert!(straddling >= 5, "world {world_seed}: {straddling}");
            let reference = crawl_every_round(&world, crawl_seed);
            for threads in [1, 2, 8] {
                assert!(
                    crawl_with(&world, crawl_seed, &Executor::new(threads)) == reference,
                    "world {world_seed}, {threads} thread(s)"
                );
            }
        }
    }

    #[test]
    fn crawled_runs_write_the_bytes_of_their_flat_copy() {
        // Groups of 7 and 64 rows cut runs and rounds; groups of 4096 span
        // runs and, where a shard's sample count is not a multiple, shards.
        // The reference is the flat copy written on one lane; the crawled
        // runs are written on 1, 2, 3 and 8 lanes, each expanding only its
        // own groups.
        for (world_seed, scale, crawl_seed) in [(5, 0.01, 77), (13, 0.02, 5)] {
            let world = World::generate(world_seed, scale);
            let sequential = crawl_with(&world, crawl_seed, &Executor::sequential());
            let flat = D2::from_samples(sequential.iter().collect());
            for block_rows in [7, 64, 4096] {
                let mut want = Vec::new();
                flat.write_store_on(&mut want, block_rows, &Executor::sequential())
                    .unwrap();
                for threads in [1, 2, 8] {
                    let d2 = crawl_with(&world, crawl_seed, &Executor::new(threads));
                    for lanes in [1, 2, 3, 8] {
                        let mut got = Vec::new();
                        d2.write_store_on(&mut got, block_rows, &Executor::new(lanes))
                            .unwrap();
                        assert!(
                            got == want,
                            "world {world_seed}, {threads} thread(s), groups of {block_rows}, \
                             {lanes} lane(s)"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lte_samples_carry_table2_parameters() {
        let (_, d2) = small_crawl();
        for name in [
            "cellReselectionPriority",
            "q-Hyst",
            "q-RxLevMin",
            "s-IntraSearchP",
            "s-NonIntraSearchP",
            "threshServingLowP",
            "a3-Offset",
        ] {
            assert!(d2.iter().any(|s| s.param == name), "missing {name}");
        }
    }

    #[test]
    fn legacy_rats_present_with_their_params() {
        let (_, d2) = small_crawl();
        assert!(d2
            .iter()
            .any(|s| s.rat == Rat::Umts && s.param == "q-Hyst1-s"));
        assert!(d2.iter().any(|s| s.rat == Rat::Gsm));
    }

    #[test]
    fn about_half_the_cells_have_multiple_observations() {
        let world = World::generate(9, 0.05);
        let d2 = crawl(&world, 3);
        let counts = d2.samples_per_cell("cellReselectionPriority");
        let multi = counts.iter().filter(|c| **c > 1).count();
        let frac = multi as f64 / counts.len() as f64;
        // Fig 13a: 48.1% of cells have > 1 sample.
        assert!((0.38..=0.58).contains(&frac), "{frac}");
    }

    #[test]
    fn neighbor_layer_samples_use_layer_channel() {
        let (world, d2) = small_crawl();
        let att_cell = world.cells_of("A").find(|c| c.rat == Rat::Lte).unwrap();
        let pc: Vec<_> = d2
            .iter()
            .filter(|s| s.cell == att_cell.id && s.param == "interFreqCellReselectionPriority")
            .collect();
        for s in &pc {
            assert_ne!(
                s.channel, att_cell.channel,
                "Pc tagged with the layer channel"
            );
        }
    }

    #[test]
    fn sample_volume_is_plausible() {
        // The full-scale crawl reproduces the paper's 7,996,149 samples
        // over 32,033 cells — ~250 samples per cell. A 1% world must land
        // in the same per-cell band or the ≥8M paper-scale acceptance gate
        // (scripts/verify.sh) cannot hold.
        let (world, d2) = small_crawl();
        let per_cell = d2.len() as f64 / world.cells().len() as f64;
        assert!(
            (190.0..=320.0).contains(&per_cell),
            "{} samples / {} cells = {per_cell:.1} per cell",
            d2.len(),
            world.cells().len()
        );
    }

    #[test]
    fn inter_rat_layers_and_sib4_reach_the_dataset() {
        // The SIB6/7/8 reselection layers and the SIB4 neighbour list must
        // survive the encode → decode → assemble round trip into samples.
        let (_, d2) = small_crawl();
        for name in [
            "q-QualMin",
            "q-OffsetCell",
            "utra-CellReselectionPriority",
            "t-ReselectionUTRA",
            "geran-threshX-High",
            "interFreq-q-RxLevMin",
            "reportAmount",
        ] {
            assert!(d2.iter().any(|s| s.param == name), "missing {name}");
        }
        // Inter-RAT layer samples stay attributed to the broadcasting LTE
        // cell but carry the layer's channel.
        assert!(d2
            .iter()
            .filter(|s| s.param == "t-ReselectionUTRA")
            .all(|s| s.rat == Rat::Lte && s.channel.rat == Rat::Umts));
    }
}
