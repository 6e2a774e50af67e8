//! Type-II measurement campaigns: build drivable city networks out of the
//! generated world and run drive-test fleets to produce dataset D1.
//!
//! Campaigns fan out on [`mm_exec::Executor`] at **shard** granularity —
//! one task per (carrier, city, run-chunk) running up to four drives on
//! one shared [`mmnetsim::sched::Engine`] event queue, after a first
//! scatter that builds the per-(carrier, city) networks. The executor
//! gathers results in submission order and every drive derives its own
//! RNG stream from `sub_seed`, so the parallel D1 is byte-identical to
//! [`run_campaign`]'s sequential loop for any `MM_THREADS` *and* any
//! shard width.

use crate::dataset::{HandoffInstance, D1};
use mm_exec::{Executor, RunStats};
use mm_rng::{stream_rng, sub_seed, Rng};
use mmcarriers::city::City;
use mmcarriers::world::{World, CITY_SIZE_M};
use mmcore::config::CellConfig;
use mmnetsim::mobility::{Mobility, CITY_SPEED_MPS};
use mmnetsim::network::Network;
use mmnetsim::run::{drive, DriveConfig, DriveResult};
use mmnetsim::sched::{record_engine_stats, Engine};
use mmradio::band::Rat;
use mmradio::cell::{CellId, Deployment, PhyCell};
use mmradio::propagation::{Environment, PropagationModel};
use mmradio::signal::Dbm;
use std::collections::BTreeMap;

/// The three US cities the paper's Type-II drives covered (Chicago,
/// Indianapolis, Lafayette).
pub const DRIVE_CITIES: [City; 3] = [City::C1, City::C3, City::C5];

/// Build a drivable [`Network`] from one carrier's LTE cells in one city.
///
/// Returns `None` when the carrier has no LTE cells there. Cell configs are
/// the world's round-0 observations; loads are drawn deterministically.
pub fn city_network(world: &World, carrier: &str, city: City, seed: u64) -> Option<Network> {
    let mut cells = Vec::new();
    let mut configs: BTreeMap<CellId, CellConfig> = BTreeMap::new();
    let mut rng = stream_rng(seed, sub_seed(11, 0));
    for gc in world.cells_of(carrier) {
        if gc.city != city || gc.rat != Rat::Lte {
            continue;
        }
        let Some(cfg) = world.observed_config(gc, 0) else {
            continue;
        };
        configs.insert(gc.id, cfg);
        cells.push(PhyCell {
            id: gc.id,
            pci: (gc.id.0 % 504) as u16,
            pos: gc.pos,
            channel: gc.channel,
            tx_power_dbm: Dbm(46.0),
            load: rng.gen_range(0.15..0.6),
        });
    }
    if cells.is_empty() {
        return None;
    }
    let env = if city == City::C1 {
        Environment::DenseUrban
    } else {
        Environment::Urban
    };
    let model = PropagationModel::new(env, sub_seed(seed, 12));
    mm_telemetry::global()
        .counter("campaign", "networks_built")
        .inc();
    Some(Network::new(Deployment::new(cells, model), configs))
}

/// Parameters of a campaign: a fleet of seeded drives per (carrier, city).
///
/// Built with [`CampaignConfig::active`] / [`CampaignConfig::idle`] plus the
/// chainable setters — the paper's defaults come pre-filled.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Drives per (carrier, city) pair.
    pub runs: usize,
    /// Duration of each run, ms.
    pub duration_ms: u64,
    /// Active (connected) or idle drives.
    pub active: bool,
    /// Campaign master seed.
    pub seed: u64,
    /// Cities the fleet covers.
    pub cities: Vec<City>,
}

/// Drives per parallel shard task: each shard runs up to this many UEs on
/// one shared event queue. Purely a scheduling choice — D1 is
/// byte-identical for every width ≥ 1.
const SHARD_RUNS: usize = 4;

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig::active(1)
    }
}

impl CampaignConfig {
    /// An active-state (speedtest) campaign with the paper's defaults:
    /// 8 drives per (carrier, city), 10-minute runs, the three drive cities.
    pub fn active(seed: u64) -> Self {
        CampaignConfig {
            runs: 8,
            duration_ms: 600_000,
            active: true,
            seed,
            cities: DRIVE_CITIES.to_vec(),
        }
    }

    /// An idle-state campaign (same fleet shape, RRC-idle UEs).
    pub fn idle(seed: u64) -> Self {
        CampaignConfig {
            active: false,
            ..CampaignConfig::active(seed)
        }
    }

    /// Set the number of drives per (carrier, city).
    pub fn runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Set the per-run duration in milliseconds.
    pub fn duration_ms(mut self, duration_ms: u64) -> Self {
        self.duration_ms = duration_ms;
        self
    }

    /// Set the cities the fleet covers.
    pub fn cities(mut self, cities: &[City]) -> Self {
        self.cities = cities.to_vec();
        self
    }

    /// Seed for one run index (shared across carriers/cities by design —
    /// the same fleet of routes is driven on every network).
    fn run_seed(&self, run: usize) -> u64 {
        sub_seed(self.seed, (run as u64) << 8 | u64::from(self.active))
    }
}

/// The [`DriveConfig`] of one campaign run (the route fleet is shared
/// across carriers/cities by design — see [`CampaignConfig::run_seed`]).
fn run_drive_config(cfg: &CampaignConfig, run: usize) -> DriveConfig {
    let run_seed = cfg.run_seed(run);
    let mobility = Mobility::random_city_drive(CITY_SIZE_M, 14, CITY_SPEED_MPS, run_seed);
    if cfg.active {
        DriveConfig::active_speedtest(mobility, cfg.duration_ms, run_seed)
    } else {
        DriveConfig::idle(mobility, cfg.duration_ms, run_seed)
    }
}

/// Tag one drive's result and bump the campaign counters.
fn tag_instances(
    result: Option<DriveResult>,
    carrier: &'static str,
    city: City,
) -> Vec<HandoffInstance> {
    let instances: Vec<HandoffInstance> = match result {
        Some(result) => result
            .handoffs
            .into_iter()
            .map(|record| HandoffInstance {
                carrier,
                city,
                record,
            })
            .collect(),
        None => Vec::new(),
    };
    let reg = mm_telemetry::global();
    reg.counter("campaign", "drives_completed").inc();
    reg.counter("campaign", "handoff_instances")
        .add(instances.len() as u64);
    instances
}

/// Execute one drive of a campaign and tag its handoffs.
fn campaign_drive(
    network: &Network,
    carrier: &'static str,
    city: City,
    run: usize,
    cfg: &CampaignConfig,
) -> Vec<HandoffInstance> {
    let dc = run_drive_config(cfg, run);
    tag_instances(drive(network, &dc), carrier, city)
}

/// Execute one shard — the runs `[lo, hi)` of one (carrier, city) pair —
/// on a single shared event queue, returning per-run tagged instances in
/// run order.
fn campaign_shard(
    network: &Network,
    carrier: &'static str,
    city: City,
    runs: std::ops::Range<usize>,
    cfg: &CampaignConfig,
) -> Vec<Vec<HandoffInstance>> {
    let cfgs: Vec<DriveConfig> = runs.map(|run| run_drive_config(cfg, run)).collect();
    let outcome = Engine::new(network).run::<DriveResult>(&cfgs);
    record_engine_stats(&outcome.stats);
    outcome
        .ues
        .into_iter()
        .map(|result| {
            if let Some(result) = &result {
                result.record_telemetry();
            }
            tag_instances(result, carrier, city)
        })
        .collect()
}

/// Run a drive-test campaign for one carrier across the configured cities,
/// appending every handoff instance to a D1 dataset. This is the sequential
/// reference path; the parallel runners are bound to produce identical
/// output.
pub fn run_campaign(world: &World, carrier: &'static str, cfg: &CampaignConfig) -> D1 {
    let mut d1 = D1::default();
    for &city in &cfg.cities {
        let Some(network) = city_network(world, carrier, city, cfg.seed) else {
            continue;
        };
        for run in 0..cfg.runs {
            d1.append(campaign_drive(&network, carrier, city, run, cfg));
        }
    }
    d1
}

/// Run campaigns for several carriers on an explicit executor, returning
/// the merged D1 plus the pool's [`RunStats`].
///
/// Parallelism is at shard granularity: a first scatter builds each
/// (carrier, city) network, a second runs every (carrier, city, run-chunk)
/// shard — up to four drives multiplexed on one event queue. Both gathers
/// are in submission order — carrier-major, then city, then run — exactly
/// the sequential loop's append order, so the result is byte-identical to
/// chaining [`run_campaign`] per carrier for any thread count and any
/// shard width.
pub fn run_campaigns_stats(
    world: &World,
    carriers: &[&'static str],
    cfg: &CampaignConfig,
    exec: &Executor,
) -> (D1, RunStats) {
    run_campaigns_sharded(world, carriers, cfg, exec, SHARD_RUNS)
}

/// [`run_campaigns_stats`] at an explicit shard width (≥ 1), so the tests
/// can show that the width changes the task count and never D1.
fn run_campaigns_sharded(
    world: &World,
    carriers: &[&'static str],
    cfg: &CampaignConfig,
    exec: &Executor,
    width: usize,
) -> (D1, RunStats) {
    let reg = mm_telemetry::global();
    let pairs: Vec<(&'static str, City)> = carriers
        .iter()
        .flat_map(|&carrier| cfg.cities.iter().map(move |&city| (carrier, city)))
        .collect();
    let (networks, mut stats) = {
        let _stage = reg.span("campaign", "build_networks");
        exec.scatter_gather_stats(pairs.clone(), |_, (carrier, city)| {
            city_network(world, carrier, city, cfg.seed)
        })
    };
    let shards: Vec<(&Network, &'static str, City, std::ops::Range<usize>)> = pairs
        .iter()
        .zip(&networks)
        .filter_map(|(&(carrier, city), network)| Some((network.as_ref()?, carrier, city)))
        .flat_map(|(network, carrier, city)| {
            (0..cfg.runs)
                .step_by(width)
                .map(move |lo| (network, carrier, city, lo..(lo + width).min(cfg.runs)))
        })
        .collect();
    let (results, shard_stats) = {
        let _stage = reg.span("campaign", "drives");
        exec.scatter_gather_stats(shards, |_, (network, carrier, city, runs)| {
            campaign_shard(network, carrier, city, runs, cfg)
        })
    };
    stats.merge(&shard_stats);
    let mut d1 = D1::default();
    for shard in results {
        for instances in shard {
            d1.append(instances);
        }
    }
    (d1, stats)
}

/// [`run_campaigns_stats`] without the stats.
pub fn run_campaigns(
    world: &World,
    carriers: &[&'static str],
    cfg: &CampaignConfig,
    exec: &Executor,
) -> D1 {
    run_campaigns_stats(world, carriers, cfg, exec).0
}

/// Run campaigns for several carriers in parallel on the ambient executor
/// (`MM_THREADS` or `available_parallelism()`), merging D1 in carrier order.
pub fn run_campaigns_parallel(
    world: &World,
    carriers: &[&'static str],
    cfg: &CampaignConfig,
) -> D1 {
    run_campaigns(world, carriers, cfg, &Executor::from_env())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmnetsim::run::HandoffKind;

    fn world() -> World {
        World::generate(5, 0.05)
    }

    #[test]
    fn city_network_builds_for_us_carriers() {
        let w = world();
        let n = city_network(&w, "A", City::C1, 1).expect("AT&T has Chicago cells");
        assert!(n.len() > 10, "{}", n.len());
    }

    #[test]
    fn city_network_none_for_absent_combo() {
        let w = world();
        assert!(
            city_network(&w, "CM", City::C1, 1).is_none(),
            "China Mobile has no US cells"
        );
    }

    #[test]
    fn active_campaign_produces_active_handoffs() {
        let w = world();
        let cfg = CampaignConfig::active(3)
            .runs(2)
            .duration_ms(240_000)
            .cities(&[City::C1]);
        let d1 = run_campaign(&w, "A", &cfg);
        assert!(!d1.is_empty(), "city drive must produce handoffs");
        for i in d1.iter_handoffs() {
            assert!(matches!(i.record.kind, HandoffKind::Active { .. }));
            assert_eq!(i.carrier, "A");
            assert_eq!(i.city, City::C1);
        }
    }

    #[test]
    fn idle_campaign_produces_idle_handoffs() {
        let w = world();
        let cfg = CampaignConfig::idle(4)
            .runs(2)
            .duration_ms(240_000)
            .cities(&[City::C1]);
        let d1 = run_campaign(&w, "A", &cfg);
        assert!(!d1.is_empty());
        for i in d1.iter_handoffs() {
            assert!(matches!(i.record.kind, HandoffKind::Idle { .. }));
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let w = world();
        let cfg = CampaignConfig::active(9)
            .runs(1)
            .duration_ms(120_000)
            .cities(&[City::C3]);
        let seq = {
            let mut d = run_campaign(&w, "A", &cfg);
            d.extend(run_campaign(&w, "T", &cfg));
            d
        };
        for threads in [1, 2, 8] {
            let par = run_campaigns(&w, &["A", "T"], &cfg, &Executor::new(threads));
            assert_eq!(seq, par, "{threads} threads");
        }
        // The shard width is purely a scheduling knob: any chunking of the
        // runs over shared event queues yields the same D1.
        for width in [1, 3, 8] {
            let (par, _) = run_campaigns_sharded(&w, &["A", "T"], &cfg, &Executor::new(4), width);
            assert_eq!(seq, par, "shard width {width}");
        }
    }

    #[test]
    fn shard_granularity_stats_cover_every_task() {
        let w = world();
        let cfg = CampaignConfig::active(9)
            .runs(2)
            .duration_ms(120_000)
            .cities(&[City::C1, City::C3]);
        let (d1, stats) = run_campaigns_stats(&w, &["A", "T"], &cfg, &Executor::new(4));
        assert!(!d1.is_empty());
        // 4 network builds + 4 pairs x 1 shard (2 runs fit one width-4
        // shard) = 8 tasks.
        assert_eq!(stats.tasks(), 8);
        assert_eq!(stats.threads, 4);
        assert!(stats.wall_ns > 0);
        // Width 1 degenerates to drive granularity: 4 + 4 pairs x 2 runs.
        let (_, stats) = run_campaigns_sharded(&w, &["A", "T"], &cfg, &Executor::new(4), 1);
        assert_eq!(stats.tasks(), 12);
    }

    #[test]
    fn builder_fills_paper_defaults() {
        let cfg = CampaignConfig::active(7);
        assert_eq!(cfg.runs, 8);
        assert_eq!(cfg.duration_ms, 600_000);
        assert!(cfg.active);
        assert_eq!(cfg.cities, DRIVE_CITIES.to_vec());
        let idle = CampaignConfig::idle(7).runs(3);
        assert!(!idle.active);
        assert_eq!(idle.runs, 3);
        assert_eq!(idle.seed, 7);
    }
}
