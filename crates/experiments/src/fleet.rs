//! `mmx fleet` — the metro-scale multi-UE runtime (DESIGN.md §12).
//!
//! A fleet run drops many UEs (≥100k at the verify gate) onto one
//! carrier's city network and drives them concurrently: the UE population
//! is cut into contiguous shards, each shard multiplexes its UEs on one
//! [`mmnetsim::sched::Engine`] event queue in O(1)-per-UE
//! [`CollectMode::Tally`] memory, and the shards scatter across
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
use mmnetsim::sched::{record_engine_stats, CollectMode, Engine, EngineStats, UeOutcome, UeTally};
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
    /// Handoffs indexed by [`DecisiveEvent::code`].
    pub handoffs_by_event: [u64; 10],
    /// Radio link failures.
    pub rlf_events: u64,
    /// Measurement reports sent.
    pub reports_sent: u64,
    /// Simulated milliseconds stepped (all UEs).
    pub sim_ms: u64,
    /// Data-plane samples taken.
    pub throughput_samples: u64,
    /// Sum of per-sample goodput, whole bit/s each.
    pub throughput_bps_sum: u64,
    /// Ping probes answered.
    pub rtt_samples: u64,
    /// Sum of RTTs, whole microseconds each.
    pub rtt_us_sum: u64,
}

impl FleetTally {
    fn add(&mut self, ue: &UeTally) {
        self.ues_attached += 1;
        for (slot, n) in self.handoffs_by_event.iter_mut().zip(ue.handoffs_by_event) {
            *slot += n;
        }
        self.rlf_events += ue.rlf_events;
        self.reports_sent += ue.reports_sent;
        self.sim_ms += ue.sim_ms;
        self.throughput_samples += ue.throughput_samples;
        self.throughput_bps_sum += ue.throughput_bps_sum;
        self.rtt_samples += ue.rtt_samples;
        self.rtt_us_sum += ue.rtt_us_sum;
    }

    /// Total handoffs across every decisive event.
    pub fn handoffs(&self) -> u64 {
        self.handoffs_by_event.iter().sum()
    }

    /// Mean goodput over every data-plane sample, bit/s.
    pub fn mean_throughput_bps(&self) -> f64 {
        if self.throughput_samples == 0 {
            return 0.0;
        }
        self.throughput_bps_sum as f64 / self.throughput_samples as f64
    }

    /// Mean ping RTT, ms.
    pub fn mean_rtt_ms(&self) -> f64 {
        if self.rtt_samples == 0 {
            return 0.0;
        }
        self.rtt_us_sum as f64 / self.rtt_samples as f64 / 1000.0
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
            t.rlf_events, t.reports_sent, t.sim_ms
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
    let _span = mm_telemetry::global().span("fleet", "run");
    let world = World::generate(cfg.seed, cfg.scale);
    let network = city_network(&world, &cfg.carrier, cfg.city, cfg.seed).ok_or_else(|| {
        MmError::Config(format!(
            "carrier {:?} has no LTE cells in {} at scale {} (see `mmx t3` for codes)",
            cfg.carrier, cfg.city, cfg.scale
        ))
    })?;
    let shards = cfg.shards.max(1);
    let ranges: Vec<std::ops::Range<usize>> = (0..shards)
        .map(|s| (s * cfg.ues / shards)..((s + 1) * cfg.ues / shards))
        .filter(|r| !r.is_empty())
        .collect();
    let (shard_results, _) = exec.scatter_gather_stats(ranges, |_, range| {
        let cfgs: Vec<DriveConfig> = range.map(|ue| ue_drive_config(cfg, ue)).collect();
        let outcome = Engine::new(&network).collect(CollectMode::Tally).run(&cfgs);
        record_engine_stats(&outcome.stats);
        let mut tally = FleetTally::default();
        // The engine above collects CollectMode::Tally only, so Full
        // outcomes cannot exist; the if-let makes that structural.
        for ue in outcome.ues.iter().flatten() {
            if let UeOutcome::Tally(t) = ue {
                tally.add(t);
            }
        }
        (tally, outcome.stats)
    });
    let mut tally = FleetTally::default();
    let mut stats = EngineStats::default();
    for (shard_tally, shard_stats) in &shard_results {
        merge_tally(&mut tally, shard_tally);
        stats.merge(shard_stats);
    }
    let reg = mm_telemetry::global();
    reg.counter("fleet", "ues").add(cfg.ues as u64);
    reg.counter("fleet", "ues_attached").add(tally.ues_attached);
    reg.counter("fleet", "handoffs").add(tally.handoffs());
    reg.counter("fleet", "rlf_events").add(tally.rlf_events);
    Ok(FleetReport {
        cfg: cfg.clone(),
        tally,
        stats,
    })
}

fn merge_tally(into: &mut FleetTally, from: &FleetTally) {
    into.ues_attached += from.ues_attached;
    for (slot, n) in into
        .handoffs_by_event
        .iter_mut()
        .zip(from.handoffs_by_event)
    {
        *slot += n;
    }
    into.rlf_events += from.rlf_events;
    into.reports_sent += from.reports_sent;
    into.sim_ms += from.sim_ms;
    into.throughput_samples += from.throughput_samples;
    into.throughput_bps_sum += from.throughput_bps_sum;
    into.rtt_samples += from.rtt_samples;
    into.rtt_us_sum += from.rtt_us_sum;
}

/// Run a fleet on the ambient executor (`MM_THREADS` or the machine).
pub fn run_fleet(cfg: &FleetConfig) -> Result<FleetReport, MmError> {
    run_fleet_on(cfg, &Executor::from_env())
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
        assert_eq!(report.tally.sim_ms, report.tally.ues_attached * 5_000);
        let text = report.render();
        assert!(text.contains("fleet: ues 50"), "{text}");
        assert!(text.contains("events_processed"), "{text}");
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
