//! `mmx fleet` — the metro-scale multi-UE runtime (DESIGN.md §12).
//!
//! A fleet run drops many UEs (≥100k at the verify gate) onto one
//! carrier's city network and drives them concurrently: the UE population
//! is cut into contiguous shards, each shard multiplexes its UEs on one
//! [`mmnetsim::sched::Engine`] event queue and keeps an O(1) [`UeTally`]
//! record of each (`run::<UeTally>`), and the shards scatter across
//! [`mm_exec::Executor`] workers. Because every accumulator a shard
//! returns is an integer (u64 sums are associative) and shards are merged
//! in submission order, the fleet report is **byte-identical for every
//! `MM_THREADS` and every shard count** — the invariance
//! `tests/fleet.rs` and `scripts/verify.sh` gate on.

use mm_exec::Executor;
use mm_rng::sub_seed;
use mmcarriers::city::City;
use mmcarriers::world::{World, CITY_SIZE_M};
use mmcore::events::DecisiveEvent;
use mmcore::MmError;
use mmlab::campaign::city_network;
use mmnetsim::mobility::CITY_SPEED_MPS;
use mmnetsim::sched::{record_engine_stats, Engine, EngineStats, UeTally};
use mmnetsim::{DriveConfig, Mobility, Traffic};
use std::fmt::Write as _;

/// Parameters of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Master seed (world generation and every UE stream derive from it).
    pub seed: u64,
    /// Concurrent UEs.
    pub ues: usize,
    /// Shards the UE population is cut into (each shard is one scatter
    /// task running one shared event queue).
    pub shards: usize,
    /// Per-UE run length, ms.
    pub duration_ms: u64,
    /// Measurement epoch, ms.
    pub epoch_ms: u64,
    /// Carrier code whose network the fleet roams (see `mmx t3`).
    pub carrier: String,
    /// City the fleet drives in.
    pub city: City,
    /// World scale (fraction of the paper's deployment).
    pub scale: f64,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            seed: 2018,
            ues: 10_000,
            shards: 16,
            duration_ms: 10_000,
            epoch_ms: 1_000,
            carrier: "A".to_string(),
            city: City::C1,
            scale: 0.05,
        }
    }
}

/// Merged integer totals of a whole fleet (associative shard fold).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetTally {
    /// UEs that attached at their route start.
    pub ues_attached: u64,
    /// Every attached UE's counters, summed by [`UeTally::merge`]
    /// (`final_serving` is per-UE state and stays at its default here).
    pub counters: UeTally,
}

impl FleetTally {
    /// Total handoffs across every decisive event.
    pub fn handoffs(&self) -> u64 {
        self.counters.handoffs()
    }

    /// Mean goodput over every data-plane sample, bit/s.
    pub fn mean_throughput_bps(&self) -> f64 {
        let c = &self.counters;
        if c.throughput_samples == 0 {
            return 0.0;
        }
        c.throughput_bps_sum as f64 / c.throughput_samples as f64
    }

    /// Mean ping RTT, ms.
    pub fn mean_rtt_ms(&self) -> f64 {
        let c = &self.counters;
        if c.rtt_samples == 0 {
            return 0.0;
        }
        c.rtt_us_sum as f64 / c.rtt_samples as f64 / 1000.0
    }
}

/// Everything a fleet run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// The configuration that ran.
    pub cfg: FleetConfig,
    /// Merged integer totals.
    pub tally: FleetTally,
    /// Merged engine accounting (`events_processed` is shard-invariant;
    /// `max_queue_depth` is the per-shard high-water mark and is *not*
    /// part of [`FleetReport::render`]).
    pub stats: EngineStats,
}

impl FleetReport {
    /// The deterministic report text: every line is derived from integer
    /// accumulators and the config alone, so it is byte-identical for any
    /// `MM_THREADS` and shard count.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let t = &self.tally;
        let _ = writeln!(
            out,
            "fleet: carrier {} city {} seed {} scale {}",
            self.cfg.carrier, self.cfg.city, self.cfg.seed, self.cfg.scale
        );
        let _ = writeln!(
            out,
            "fleet: ues {} attached {} duration_ms {} epoch_ms {}",
            self.cfg.ues, t.ues_attached, self.cfg.duration_ms, self.cfg.epoch_ms
        );
        let _ = writeln!(
            out,
            "fleet: events_processed {}",
            self.stats.events_processed
        );
        let mut handoffs = String::new();
        for ev in DecisiveEvent::ALL {
            let n = t
                .counters
                .handoffs_by_event
                .get(ev.code() as usize)
                .copied()
                .unwrap_or(0);
            if n > 0 {
                let _ = write!(handoffs, " {}={n}", ev.label());
            }
        }
        let _ = writeln!(out, "fleet: handoffs {}{}", t.handoffs(), handoffs);
        let _ = writeln!(
            out,
            "fleet: rlf_events {} reports_sent {} sim_ms {}",
            t.counters.rlf_events, t.counters.reports_sent, t.counters.sim_ms
        );
        let _ = writeln!(
            out,
            "fleet: mean_throughput_mbps {:.3} mean_rtt_ms {:.3}",
            t.mean_throughput_bps() / 1.0e6,
            t.mean_rtt_ms()
        );
        out
    }
}

/// The [`DriveConfig`] of fleet UE `ue` — each UE gets its own route and
/// RNG stream off the master seed, independent of sharding.
fn ue_drive_config(cfg: &FleetConfig, ue: usize) -> DriveConfig {
    let ue_seed = sub_seed(cfg.seed, ue as u64);
    DriveConfig {
        mobility: Mobility::random_city_drive(CITY_SIZE_M, 14, CITY_SPEED_MPS, ue_seed),
        traffic: Traffic::Speedtest,
        duration_ms: cfg.duration_ms,
        epoch_ms: cfg.epoch_ms,
        active: true,
        seed: ue_seed,
    }
}

/// The UE index ranges of `shards` shards over `ues` UEs: shard `s` of
/// `S` covers `[s·n/S, (s+1)·n/S)`. `S` is clamped to `[1, n]`, which drops
/// only empty ranges, and the bounds are taken in `u128`, so no product
/// overflows.
fn shard_ranges(ues: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let shards = shards.clamp(1, ues.max(1));
    let bound = |s: usize| (s as u128 * ues as u128 / shards as u128) as usize;
    (0..shards).map(|s| bound(s)..bound(s + 1)).collect()
}

/// Run a fleet on an explicit executor.
///
/// Shard `s` of `S` covers UE indices `[s·n/S, (s+1)·n/S)`; each shard
/// task materializes its UEs lazily (resident memory is bounded by
/// `threads × shard size`, not the whole fleet) and folds them into
/// integer tallies on one shared event queue.
pub fn run_fleet_on(cfg: &FleetConfig, exec: &Executor) -> Result<FleetReport, MmError> {
    if cfg.ues == 0 {
        return Err(MmError::Config("fleet needs at least one UE".to_string()));
    }
    if cfg.epoch_ms == 0 {
        return Err(MmError::Config(
            "fleet epoch_ms must be positive".to_string(),
        ));
    }
    // Each UE runs to the first epoch multiple at or past the duration, and
    // the report sums that end time over the UEs: both must fit a u64.
    let Some(ue_end_ms) = cfg
        .duration_ms
        .div_ceil(cfg.epoch_ms)
        .checked_mul(cfg.epoch_ms)
    else {
        return Err(MmError::Config(format!(
            "fleet end time does not fit a u64: --duration-s ({} ms) rounded up to \
             whole --epoch-ms ({} ms) epochs passes {} ms",
            cfg.duration_ms,
            cfg.epoch_ms,
            u64::MAX
        )));
    };
    if u64::try_from(cfg.ues)
        .ok()
        .and_then(|ues| ues.checked_mul(ue_end_ms))
        .is_none()
    {
        return Err(MmError::Config(format!(
            "fleet sim_ms total does not fit a u64: --ues {} times {ue_end_ms} ms per UE passes {} ms",
            cfg.ues,
            u64::MAX
        )));
    }
    let _span = mm_telemetry::global().span("fleet", "run");
    let world = World::generate(cfg.seed, cfg.scale);
    let network = city_network(&world, &cfg.carrier, cfg.city, cfg.seed).ok_or_else(|| {
        MmError::Config(format!(
            "carrier {:?} has no LTE cells in {} at scale {} (see `mmx t3` for codes)",
            cfg.carrier, cfg.city, cfg.scale
        ))
    })?;
    let ranges = shard_ranges(cfg.ues, cfg.shards);
    let shard_results = exec.scatter_gather(ranges, |_, range| {
        let cfgs: Vec<DriveConfig> = range.map(|ue| ue_drive_config(cfg, ue)).collect();
        let outcome = Engine::new(&network).run::<UeTally>(&cfgs);
        record_engine_stats(&outcome.stats);
        let mut tally = FleetTally::default();
        for t in outcome.ues.iter().flatten() {
            tally.ues_attached += 1;
            tally.counters.merge(t);
        }
        (tally, outcome.stats)
    });
    let mut tally = FleetTally::default();
    let mut stats = EngineStats::default();
    for (shard_tally, shard_stats) in &shard_results {
        tally.ues_attached += shard_tally.ues_attached;
        tally.counters.merge(&shard_tally.counters);
        stats.merge(shard_stats);
    }
    let reg = mm_telemetry::global();
    reg.counter("fleet", "ues").add(cfg.ues as u64);
    reg.counter("fleet", "ues_attached").add(tally.ues_attached);
    reg.counter("fleet", "handoffs").add(tally.handoffs());
    reg.counter("fleet", "rlf_events")
        .add(tally.counters.rlf_events);
    Ok(FleetReport {
        cfg: cfg.clone(),
        tally,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FleetConfig {
        FleetConfig {
            ues: 50,
            shards: 4,
            duration_ms: 5_000,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn fleet_runs_and_reports() {
        let report = run_fleet_on(&small(), &Executor::new(2)).unwrap();
        assert!(report.tally.ues_attached > 0);
        assert_eq!(
            report.tally.counters.sim_ms,
            report.tally.ues_attached * 5_000
        );
        let text = report.render();
        assert!(text.contains("fleet: ues 50"), "{text}");
        assert!(text.contains("events_processed"), "{text}");
    }

    #[test]
    fn shard_ranges_keep_the_non_empty_ranges_of_the_unclamped_cut() {
        for ues in 1..=20usize {
            for shards in 0..=45usize {
                let unclamped: Vec<_> = (0..shards.max(1))
                    .map(|s| (s * ues / shards.max(1))..((s + 1) * ues / shards.max(1)))
                    .filter(|r| !r.is_empty())
                    .collect();
                assert_eq!(
                    shard_ranges(ues, shards),
                    unclamped,
                    "{ues} UEs, {shards} shards"
                );
            }
        }
        let unit: Vec<_> = (0..7).map(|u| u..u + 1).collect();
        assert_eq!(shard_ranges(7, usize::MAX), unit);
        assert_eq!(
            shard_ranges(usize::MAX, 2).last(),
            Some(&(usize::MAX / 2..usize::MAX))
        );
    }

    #[test]
    fn a_shard_count_past_the_ue_count_reports_at_once() {
        // 10^12 shards over one UE visited every empty shard index (and
        // `s * ues` overflowed for the largest counts), so the run spun at
        // 100% CPU instead of reporting; on a watchdog thread, a hang fails
        // the test instead.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let render = |ues, shards| {
                let cfg = FleetConfig {
                    ues,
                    shards,
                    duration_ms: 2_000,
                    ..FleetConfig::default()
                };
                run_fleet_on(&cfg, &Executor::new(2)).map(|r| r.render())
            };
            tx.send([
                (render(1, 1), render(1, 1_000_000_000_000)),
                (render(7, 3), render(7, usize::MAX)),
            ])
            .ok();
        });
        let pairs = rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("the fleet run hung");
        for (few, many) in pairs {
            assert_eq!(many.unwrap(), few.unwrap());
        }
    }

    #[test]
    fn zero_ues_is_a_usage_error() {
        let cfg = FleetConfig {
            ues: 0,
            ..FleetConfig::default()
        };
        assert!(matches!(
            run_fleet_on(&cfg, &Executor::sequential()),
            Err(MmError::Config(_))
        ));
    }

    #[test]
    fn an_end_time_past_u64_is_a_usage_error() {
        // The second epoch of 2^63 ms would end at 2^64 ms, which wrapped
        // to 0 and re-ran the UE from the start forever.
        let cfg = FleetConfig {
            ues: 1,
            shards: 1,
            duration_ms: 18_446_744_073_709_551_000,
            epoch_ms: 1 << 63,
            ..FleetConfig::default()
        };
        let err = run_fleet_on(&cfg, &Executor::sequential()).unwrap_err();
        assert!(matches!(err, MmError::Config(_)), "{err}");
        assert!(err.to_string().contains("--epoch-ms"), "{err}");
    }

    #[test]
    fn a_sim_ms_total_past_u64_is_a_usage_error() {
        // One UE ending at 10^19 ms fits a u64; two of them sum to 2·10^19,
        // which wrapped to a wrong total.
        let one = FleetConfig {
            ues: 1,
            shards: 1,
            duration_ms: 10_000_000_000_000_000_000,
            epoch_ms: 5_000_000_000_000_000_000,
            ..FleetConfig::default()
        };
        let report = run_fleet_on(&one, &Executor::sequential()).unwrap();
        assert_eq!(report.tally.counters.sim_ms, 10_000_000_000_000_000_000);
        let two = FleetConfig { ues: 2, ..one };
        let err = run_fleet_on(&two, &Executor::sequential()).unwrap_err();
        assert!(matches!(err, MmError::Config(_)), "{err}");
        assert!(err.to_string().contains("--ues"), "{err}");
    }

    #[test]
    fn unknown_carrier_is_a_usage_error() {
        let cfg = FleetConfig {
            carrier: "CM".to_string(),
            ues: 4,
            ..FleetConfig::default()
        };
        assert!(matches!(
            run_fleet_on(&cfg, &Executor::sequential()),
            Err(MmError::Config(_))
        ));
    }
}
