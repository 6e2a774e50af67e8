//! The generated global cell population — the stand-in for the physical
//! networks the 35+ volunteers crawled (dataset D2's universe).
//!
//! A [`World`] holds ~32,000 cells across the 30 carriers, assigned to
//! cities (the five US cities of Fig 20 plus one region per other country),
//! with positions, channels and deterministic configuration sampling
//! including the rare-update temporal model of Fig 13b.

use crate::builtin;
use crate::city::City;
use crate::legacy;
use crate::profile::CarrierProfile;
use mm_rng::{stream_rng, sub_seed, Rng};
use mmcore::config::CellConfig;
use mmradio::band::{ChannelNumber, Rat};
use mmradio::cell::CellId;
use mmradio::geom::Point;
use std::collections::BTreeMap;

/// The five US cities of the paper's city-level analysis (Fig 20), with
/// their share of the US cell population (derived from the paper's counts:
/// Chicago 4671, LA 2982, Indianapolis 2348, Columbus 1268, Lafayette 745).
pub const US_CITIES: &[(City, &str, f64)] = &[
    (City::C1, "Chicago", 0.389),
    (City::C2, "Los Angeles", 0.248),
    (City::C3, "Indianapolis", 0.195),
    (City::C4, "Columbus", 0.106),
    (City::C5, "Lafayette", 0.062),
];

/// Side of a city's square coverage area, meters.
pub const CITY_SIZE_M: f64 = 20_000.0;

/// One generated cell.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedCell {
    /// Globally unique id.
    pub id: CellId,
    /// Carrier code ("A", "T", ...).
    pub carrier: &'static str,
    /// Country code.
    pub country: &'static str,
    /// City ("C1".."C5" for the US, the country-level region elsewhere).
    pub city: City,
    /// Position in the city's local frame, meters.
    pub pos: Point,
    /// RAT.
    pub rat: Rat,
    /// Downlink channel.
    pub channel: ChannelNumber,
    /// Crawl round (0-based) at which the cell's *active* parameters were
    /// updated, if ever (Fig 13b: ~22% of cells over the window).
    pub active_update_round: Option<u32>,
    /// Round at which the *idle* parameters were updated (~1%).
    pub idle_update_round: Option<u32>,
}

/// Number of crawl rounds spanned by the observation window (≈ 18 months of
/// intermittent collection).
pub const ROUNDS: u32 = 20;

/// The generated world.
#[derive(Debug, Clone)]
pub struct World {
    /// Master seed.
    pub seed: u64,
    cells: Vec<GeneratedCell>,
    profiles: BTreeMap<&'static str, CarrierProfile>,
}

/// Generate one carrier's cells. Each profile draws from its own
/// independent RNG stream and its id range is precomputed, so profiles can
/// be generated in any order (or in parallel) with identical output.
fn generate_profile_cells(
    seed: u64,
    profile: &CarrierProfile,
    first_id: u32,
    n: usize,
) -> Vec<GeneratedCell> {
    let mut cells = Vec::with_capacity(n);
    let mut rng = stream_rng(seed, sub_seed(7, hash_code(profile.code)));
    for i in 0..n {
        let id = CellId(first_id + i as u32);
        let rat = profile.sample_rat(&mut rng);
        let city = if profile.country == "US" {
            pick_city(&mut rng)
        } else {
            City::intern(profile.country)
        };
        let pos = Point::new(
            rng.gen_range(0.0..CITY_SIZE_M),
            rng.gen_range(0.0..CITY_SIZE_M),
        );
        let channel = match legacy_channel(rat, &mut rng) {
            Some(ch) => ch,
            None => {
                // LTE. Chicago's (C1) band mix differs from the other
                // markets (Fig 20): the newest band is deployed more
                // heavily.
                let boost = (city == City::C1).then(|| profile.bands.len() - 1);
                profile.sample_channel_biased(seed, id, pos, boost)
            }
        };
        let active_update_round =
            (rng.gen::<f64>() < profile.active_update_prob).then(|| rng.gen_range(1..ROUNDS));
        let idle_update_round =
            (rng.gen::<f64>() < profile.idle_update_prob).then(|| rng.gen_range(1..ROUNDS));
        cells.push(GeneratedCell {
            id,
            carrier: profile.code,
            country: profile.country,
            city,
            pos,
            rat,
            channel,
            active_update_round,
            idle_update_round,
        });
    }
    cells
}

impl World {
    /// Generate the world. `scale` shrinks every carrier's cell count (1.0 =
    /// the full ~32k-cell population; tests use 0.02–0.1).
    pub fn generate(seed: u64, scale: f64) -> World {
        World::generate_with(seed, scale, &mm_exec::Executor::from_env())
    }

    /// Generate the world on an explicit executor, one task per carrier
    /// profile. Cell ids are prefix sums over the per-profile counts and
    /// each profile has its own RNG stream, so the gathered output is
    /// byte-identical to the sequential scan under any thread count.
    pub fn generate_with(seed: u64, scale: f64, exec: &mm_exec::Executor) -> World {
        let profiles = builtin::profiles();
        let counts: Vec<usize> = profiles
            .iter()
            .map(|p| ((p.n_cells as f64 * scale).round() as usize).max(4))
            .collect();
        let mut first_ids = Vec::with_capacity(profiles.len());
        let mut next_id = 1u32;
        for &n in &counts {
            first_ids.push(next_id);
            next_id += n as u32;
        }
        let shards = exec.scatter_gather((0..profiles.len()).collect::<Vec<_>>(), |_, i| {
            generate_profile_cells(seed, &profiles[i], first_ids[i], counts[i])
        });
        let mut cells = Vec::with_capacity(counts.iter().sum());
        for mut shard in shards {
            cells.append(&mut shard);
        }
        let profiles = profiles.into_iter().map(|p| (p.code, p)).collect();
        World {
            seed,
            cells,
            profiles,
        }
    }

    /// All cells.
    pub fn cells(&self) -> &[GeneratedCell] {
        &self.cells
    }

    /// The profile of a carrier.
    pub fn profile(&self, code: &str) -> &CarrierProfile {
        &self.profiles[code]
    }

    /// All carrier profiles.
    pub fn profiles(&self) -> impl Iterator<Item = &CarrierProfile> {
        self.profiles.values()
    }

    /// Cells of one carrier.
    pub fn cells_of<'a>(
        &'a self,
        carrier: &'a str,
    ) -> impl Iterator<Item = &'a GeneratedCell> + 'a {
        self.cells.iter().filter(move |c| c.carrier == carrier)
    }

    /// The configuration version a cell exposes at a crawl round: active
    /// updates bump the version by 1 (odd versions re-draw only measConfig),
    /// idle updates by 2 (even major version re-draws SIB parameters too).
    pub fn version_at(&self, cell: &GeneratedCell, round: u32) -> u32 {
        let mut v = 0;
        if cell.active_update_round.is_some_and(|r| round >= r) {
            v += 1;
        }
        if cell.idle_update_round.is_some_and(|r| round >= r) {
            v += 2;
        }
        v
    }

    /// Neighbour channels a cell advertises (the carrier's other deployed
    /// channels, strongest-weighted first, capped at 3).
    pub fn neighbor_channels(&self, cell: &GeneratedCell) -> Vec<ChannelNumber> {
        let profile = self.profile(cell.carrier);
        let mut bands: Vec<_> = profile
            .bands
            .iter()
            .filter(|b| b.channel != cell.channel)
            .collect();
        bands.sort_by(|a, b| b.weight.total_cmp(&a.weight));
        bands.into_iter().take(3).map(|b| b.channel).collect()
    }

    /// Inter-RAT neighbour channels an LTE cell advertises (its SIB6/7/8
    /// reselection layers): the carrier's full legacy channel pool for every
    /// non-LTE RAT it still operates. Deterministic per carrier — no RNG —
    /// and always listed *after* the LTE layers of
    /// [`neighbor_channels`](World::neighbor_channels), so adding them never
    /// shifts the LTE parameter draws.
    pub fn interrat_channels(&self, cell: &GeneratedCell) -> Vec<ChannelNumber> {
        let profile = self.profile(cell.carrier);
        let mut out = Vec::new();
        for (rat, share) in &profile.rat_mix {
            if *share <= 0.0 {
                continue;
            }
            match rat {
                Rat::Lte => {}
                Rat::Umts => out.extend([4435u32, 4385, 10_563, 10_588].map(ChannelNumber::uarfcn)),
                Rat::Gsm => out.extend([62u32, 77, 514, 661].map(ChannelNumber::arfcn)),
                Rat::Evdo | Rat::Cdma1x => out.extend([283u32, 384, 486].map(|n| ChannelNumber {
                    rat: *rat,
                    number: n,
                })),
            }
        }
        out
    }

    /// The LTE configuration a cell broadcasts at a crawl round (`None` for
    /// non-LTE cells, whose parameters come from
    /// [`legacy::sample_cell_params`]).
    pub fn observed_config(&self, cell: &GeneratedCell, round: u32) -> Option<CellConfig> {
        if cell.rat != Rat::Lte {
            return None;
        }
        let profile = self.profile(cell.carrier);
        let version = self.version_at(cell, round);
        let mut neighbors = self.neighbor_channels(cell);
        neighbors.extend(self.interrat_channels(cell));
        Some(profile.sample_cell_config(
            self.seed,
            cell.id,
            global_pos(cell),
            cell.channel,
            &neighbors,
            version,
        ))
    }

    /// Legacy parameter vector for a non-LTE cell.
    pub fn observed_legacy_params(&self, cell: &GeneratedCell) -> Vec<(&'static str, f64)> {
        legacy::sample_cell_params(self.seed, cell.carrier, cell.rat, u64::from(cell.id.0))
    }
}

/// Offset a cell's city-local position into a world-unique frame so spatial
/// draws never collide across cities/countries.
pub fn global_pos(cell: &GeneratedCell) -> Point {
    // Hash the city *code string* (not the enum discriminant) so positions
    // are bit-identical to the pre-`City` string representation.
    let city_hash = cell
        .city
        .as_str()
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
    let ox = (city_hash % 97) as f64 * 1.0e5;
    let oy = (city_hash % 89) as f64 * 1.0e5;
    Point::new(cell.pos.x + ox, cell.pos.y + oy)
}

fn hash_code(code: &str) -> u64 {
    code.bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)))
}

fn pick_city<R: Rng + ?Sized>(rng: &mut R) -> City {
    let x: f64 = rng.gen();
    let mut acc = 0.0;
    for (city, _, w) in US_CITIES {
        acc += w;
        if x <= acc {
            return *city;
        }
    }
    City::C1
}

fn legacy_channel<R: Rng + ?Sized>(rat: Rat, rng: &mut R) -> Option<ChannelNumber> {
    match rat {
        Rat::Umts => Some(ChannelNumber::uarfcn(
            [4435, 4385, 10_563, 10_588][rng.gen_range(0..4usize)],
        )),
        Rat::Gsm => Some(ChannelNumber::arfcn(
            [62, 77, 514, 661][rng.gen_range(0..4usize)],
        )),
        Rat::Evdo | Rat::Cdma1x => Some(ChannelNumber {
            rat,
            number: [283, 384, 486][rng.gen_range(0..3usize)],
        }),
        // LTE channels come from the carrier's band plan, not this table.
        Rat::Lte => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> World {
        World::generate(11, 0.02)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(3, 0.01);
        let b = World::generate(3, 0.01);
        assert_eq!(a.cells(), b.cells());
    }

    #[test]
    fn sharded_generation_matches_sequential() {
        let seq = World::generate_with(9, 0.05, &mm_exec::Executor::sequential());
        for threads in [2, 8] {
            let par = World::generate_with(9, 0.05, &mm_exec::Executor::new(threads));
            assert_eq!(seq.cells(), par.cells(), "{threads} threads");
        }
    }

    #[test]
    fn full_scale_population_is_about_32k() {
        // Generation only — no configs — so full scale is cheap.
        let w = World::generate(1, 1.0);
        let n = w.cells().len();
        assert!((30_000..=34_000).contains(&n), "{n}");
    }

    #[test]
    fn all_30_carriers_have_cells() {
        let w = small_world();
        for p in builtin::profiles() {
            assert!(w.cells_of(p.code).count() >= 4, "{}", p.code);
        }
    }

    #[test]
    fn us_cells_sit_in_the_five_cities() {
        let w = small_world();
        for c in w.cells_of("A") {
            assert!(c.city.is_us(), "{}", c.city);
        }
        for c in w.cells_of("CM") {
            assert_eq!(c.city, City::Cn);
        }
    }

    #[test]
    fn rat_mix_is_respected() {
        let w = World::generate(5, 0.2);
        let total = w.cells().len() as f64;
        let lte = w.cells().iter().filter(|c| c.rat == Rat::Lte).count() as f64;
        let share = lte / total;
        assert!((0.62..=0.82).contains(&share), "LTE share {share}");
    }

    #[test]
    fn lte_cells_have_configs_and_legacy_cells_have_params() {
        let w = small_world();
        for c in w.cells().iter().take(300) {
            if c.rat == Rat::Lte {
                let cfg = w.observed_config(c, 0).expect("LTE cell has config");
                assert_eq!(cfg.cell, c.id);
                assert_eq!(cfg.channel, c.channel);
            } else {
                assert!(w.observed_config(c, 0).is_none());
                assert!(!w.observed_legacy_params(c).is_empty());
            }
        }
    }

    #[test]
    fn observed_config_is_stable_between_updates() {
        let w = small_world();
        let cell = w
            .cells()
            .iter()
            .find(|c| {
                c.rat == Rat::Lte
                    && c.active_update_round.is_none()
                    && c.idle_update_round.is_none()
            })
            .expect("most cells never update");
        let c0 = w.observed_config(cell, 0).unwrap();
        let c19 = w.observed_config(cell, ROUNDS - 1).unwrap();
        assert_eq!(c0, c19);
    }

    #[test]
    fn observed_config_changes_only_with_the_version() {
        // The crawler observes each version once and copies its rows to the
        // version's later rounds; this is the fact it relies on.
        let w = World::generate(29, 0.05);
        let lte: Vec<_> = w.cells().iter().filter(|c| c.rat == Rat::Lte).collect();
        assert!(lte.iter().any(|c| c.active_update_round.is_some()));
        assert!(lte.iter().any(|c| c.idle_update_round.is_some()));
        for cell in lte {
            // The version and its configuration at the version's first round.
            let (mut version, mut config) = (w.version_at(cell, 0), w.observed_config(cell, 0));
            for r in 1..ROUNDS {
                let v = w.version_at(cell, r);
                assert!(
                    v >= version,
                    "cell {} version falls at round {r}",
                    cell.id.0
                );
                if v == version {
                    assert!(
                        w.observed_config(cell, r) == config,
                        "cell {} round {r}",
                        cell.id.0
                    );
                } else {
                    (version, config) = (v, w.observed_config(cell, r));
                }
            }
        }
    }

    #[test]
    fn active_update_changes_reporting_not_sib() {
        let w = World::generate(17, 0.1);
        let mut checked = 0;
        for cell in w.cells() {
            if cell.rat != Rat::Lte || cell.idle_update_round.is_some() {
                continue;
            }
            let Some(r) = cell.active_update_round else {
                continue;
            };
            let before = w.observed_config(cell, r - 1).unwrap();
            let after = w.observed_config(cell, r).unwrap();
            assert_eq!(
                before.serving, after.serving,
                "SIB params stable across active update"
            );
            checked += 1;
            if checked > 20 {
                break;
            }
        }
        assert!(checked > 5, "found only {checked} updating cells");
    }

    #[test]
    fn update_rates_match_fig13b() {
        let w = World::generate(23, 0.5);
        let total = w.cells().len() as f64;
        let active = w
            .cells()
            .iter()
            .filter(|c| c.active_update_round.is_some())
            .count() as f64;
        let idle = w
            .cells()
            .iter()
            .filter(|c| c.idle_update_round.is_some())
            .count() as f64;
        let a = active / total;
        let i = idle / total;
        assert!((0.15..=0.30).contains(&a), "active update share {a}");
        assert!((0.002..=0.03).contains(&i), "idle update share {i}");
    }

    #[test]
    fn neighbor_channels_exclude_serving_and_cap_at_3() {
        let w = small_world();
        for c in w.cells().iter().filter(|c| c.rat == Rat::Lte).take(50) {
            let ns = w.neighbor_channels(c);
            assert!(ns.len() <= 3);
            assert!(!ns.contains(&c.channel));
        }
    }

    #[test]
    fn cell_ids_are_unique() {
        let w = small_world();
        let mut ids: Vec<u32> = w.cells().iter().map(|c| c.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), w.cells().len());
    }
}
