//! Physical cells and deployments.
//!
//! A [`PhyCell`] is a transmitter: identity, site position, channel, RAT and
//! power. A [`Deployment`] is the set of cells a UE can possibly hear, plus
//! the propagation model; it answers the only question the upper layers ask:
//! *"standing at point P, what do I measure for each detectable cell?"*
//! A [`Survey`] is that answer's shared part — every audible cell's median
//! power at P — from which both the measurement and the SINR derive.

use crate::band::{ChannelNumber, Rat};
use crate::geom::Point;
use crate::propagation::{PropagationModel, RadioSample, ShadowingPoint};
use crate::signal::{noise_floor_dbm, rsrq_from_rssi, Dbm, Rsrp, Sinr};
use mm_rng::Rng;
use std::collections::BTreeMap;

/// Globally unique cell identifier (the ECGI analog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct CellId(pub u32);

impl core::fmt::Display for CellId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "cell#{}", self.0)
    }
}

/// A physical cell (one sector of one site on one carrier frequency).
#[derive(Debug, Clone, PartialEq)]
pub struct PhyCell {
    /// Unique id.
    pub id: CellId,
    /// Physical-layer cell identity (PCI, 0..=503 for LTE); not unique.
    pub pci: u16,
    /// Site position.
    pub pos: Point,
    /// Downlink channel (RAT-qualified).
    pub channel: ChannelNumber,
    /// Reference-signal transmit power per resource element, dBm.
    pub tx_power_dbm: Dbm,
    /// Fraction of downlink resources occupied by other users' traffic,
    /// `[0, 1]` — drives RSRQ degradation under load.
    pub load: f64,
}

impl PhyCell {
    /// The RAT of this cell.
    pub fn rat(&self) -> Rat {
        self.channel.rat
    }
}

/// RSRP below which a cell is undetectable and never reported.
pub const DETECTION_FLOOR_DBM: f64 = -135.0;

/// Measurement and SINR ignore sites farther than this: neither measured
/// nor counted as interference. It is a modelling cut-off, not a physical
/// bound. At 15 km a 46 dBm site on 739 MHz has a median RSRP of about
/// −129.5 dBm in `Urban`, above [`DETECTION_FLOOR_DBM`], and about
/// −142.1 dBm in `DenseUrban`, where 8 dB shadowing σ can still lift it over
/// the floor. Every recorded trajectory depends on the value.
pub const MAX_AUDIBLE_DISTANCE_M: f64 = 15_000.0;

/// Measurement bandwidth (in PRB) used for the RSSI/RSRQ computation.
pub const MEAS_BANDWIDTH_PRB: u32 = 50;

/// A set of physical cells sharing one propagation model.
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    cells: Vec<PhyCell>,
    /// The propagation model computing what a UE hears. Private because
    /// `constants` derive from it.
    model: PropagationModel,
    /// Per cell, in `cells` order: the position-free part of its median
    /// power. Built once from `cells` and `model`.
    constants: Vec<CellConstants>,
    /// Cell indices grouped by channel, each group in `cells` order: the
    /// co-channel interferers of every cell on that channel. Built once
    /// from `cells`, which never change afterwards.
    co_channel: Vec<Vec<usize>>,
    /// Each cell's group in `co_channel`.
    channel_group: Vec<usize>,
}

/// The position-free part of one cell's median power.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CellConstants {
    /// [`PropagationModel::shadowing_key`] of the cell's id.
    shadowing_key: u64,
    /// [`PropagationModel::reference_loss_db`] of the cell's channel.
    reference_loss_db: f64,
}

/// What a UE measures for one cell at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Which cell.
    pub cell: CellId,
    /// The cell's downlink channel.
    pub channel: ChannelNumber,
    /// RSRP/RSRQ pair.
    pub sample: RadioSample,
}

impl Deployment {
    /// Build a deployment from cells and a propagation model.
    pub fn new(cells: Vec<PhyCell>, model: PropagationModel) -> Self {
        let mut groups: BTreeMap<ChannelNumber, usize> = BTreeMap::new();
        let mut co_channel: Vec<Vec<usize>> = Vec::new();
        let mut channel_group = Vec::with_capacity(cells.len());
        for (i, c) in cells.iter().enumerate() {
            let g = *groups.entry(c.channel).or_insert_with(|| {
                co_channel.push(Vec::new());
                co_channel.len() - 1
            });
            co_channel[g].push(i);
            channel_group.push(g);
        }
        let constants = cells
            .iter()
            .map(|c| CellConstants {
                shadowing_key: model.shadowing_key(u64::from(c.id.0)),
                reference_loss_db: model.reference_loss_db(c.channel),
            })
            .collect();
        Deployment {
            cells,
            model,
            constants,
            co_channel,
            channel_group,
        }
    }

    /// All cells.
    pub fn cells(&self) -> &[PhyCell] {
        &self.cells
    }

    /// Find a cell by id.
    pub fn cell(&self, id: CellId) -> Option<&PhyCell> {
        self.cells.iter().find(|c| c.id == id)
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the deployment is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Median RSRP (path loss + shadowing, no measurement noise) of one cell
    /// at `pos`, from the model alone: the uncached form of what
    /// [`Deployment::survey`] and [`Deployment::strongest`] compute.
    pub fn median_rsrp(&self, cell: &PhyCell, pos: Point) -> Rsrp {
        let p = self.model.received_power(
            u64::from(cell.id.0),
            cell.tx_power_dbm,
            cell.pos.distance(pos),
            cell.channel,
            &self.model.shadowing_point(pos),
        );
        Rsrp::new(p.0)
    }

    /// [`Deployment::median_rsrp`] of `cell`, whose constants are `k`, at
    /// distance `d_m`, with the position's shadowing part already known.
    /// Each cached value enters the same sum as in
    /// [`PropagationModel::received_power`], so the result is bit-identical.
    fn median_at(
        &self,
        cell: &PhyCell,
        k: &CellConstants,
        d_m: f64,
        shadowing: &ShadowingPoint,
    ) -> Rsrp {
        let pl = self.model.path_loss_from(k.reference_loss_db, d_m);
        let sh = self.model.shadowing_at(k.shadowing_key, shadowing);
        Rsrp::new(cell.tx_power_dbm.0 - pl + sh)
    }

    /// The radio environment at `pos`: the median power of every cell
    /// within [`MAX_AUDIBLE_DISTANCE_M`], computed once for any number of
    /// [`Survey::measure`] and [`Survey::sinr`] calls at that position.
    pub fn survey(&self, pos: Point) -> Survey<'_> {
        let shadowing = self.model.shadowing_point(pos);
        let medians = self
            .cells
            .iter()
            .zip(&self.constants)
            .map(|(c, k)| {
                let d = c.pos.distance(pos);
                (d <= MAX_AUDIBLE_DISTANCE_M).then(|| {
                    let dbm = self.median_at(c, k, d, &shadowing).dbm();
                    Median {
                        dbm,
                        mw: Dbm(dbm).to_mw(),
                    }
                })
            })
            .collect();
        Survey {
            deployment: self,
            pos,
            shadowing,
            medians,
        }
    }

    /// Measure every detectable cell at `pos`: [`Survey::measure`] on a
    /// fresh survey, keeping them all.
    pub fn measure_all<R: Rng + ?Sized>(&self, pos: Point, rng: &mut R) -> Vec<Measurement> {
        self.survey(pos).measure(rng, usize::MAX)
    }

    /// Downlink SINR of `cell` at `pos`: [`Survey::sinr`] on a fresh survey.
    pub fn sinr(&self, cell_id: CellId, pos: Point) -> Option<Sinr> {
        self.survey(pos).sinr(cell_id)
    }

    /// The strongest detectable cell at `pos` by median RSRP, optionally
    /// restricted to one RAT.
    pub fn strongest(&self, pos: Point, rat: Option<Rat>) -> Option<(CellId, Rsrp)> {
        let shadowing = self.model.shadowing_point(pos);
        self.cells
            .iter()
            .zip(&self.constants)
            .filter(|(c, _)| rat.is_none_or(|r| c.rat() == r))
            .map(|(c, k)| (c.id, self.median_at(c, k, c.pos.distance(pos), &shadowing)))
            .filter(|(_, r)| r.dbm() >= DETECTION_FLOOR_DBM)
            .max_by(|a, b| a.1.dbm().total_cmp(&b.1.dbm()))
    }
}

/// The radio environment at one position (see [`Deployment::survey`]).
#[derive(Debug, Clone)]
pub struct Survey<'d> {
    deployment: &'d Deployment,
    pos: Point,
    shadowing: ShadowingPoint,
    /// Per cell, in `cells` order: its median power, or `None` beyond
    /// [`MAX_AUDIBLE_DISTANCE_M`]. Cells below the detection floor keep
    /// theirs, because they still interfere.
    medians: Vec<Option<Median>>,
}

/// One audible cell's median power.
#[derive(Debug, Clone, Copy)]
struct Median {
    /// Median RSRP, dBm.
    dbm: f64,
    /// The same power in mW.
    mw: f64,
}

impl Survey<'_> {
    /// Measure the `max` strongest detectable cells. Measurement noise is
    /// drawn from `rng` for every detectable cell, in `cells` order,
    /// whatever `max` is. The cells are sorted by descending RSRP (ties by
    /// cell id), and RSRQ, which accounts for co-channel interference and
    /// per-cell load, is computed for the `max` kept ones only.
    pub fn measure<R: Rng + ?Sized>(&self, rng: &mut R, max: usize) -> Vec<Measurement> {
        let d = self.deployment;
        // `(RSRP, cell id, index in cells)` of every detectable cell.
        let mut detected: Vec<(Rsrp, CellId, usize)> = Vec::new();
        for (i, (cell, median)) in d.cells.iter().zip(&self.medians).enumerate() {
            let Some(median) = median else { continue };
            if median.dbm < DETECTION_FLOOR_DBM {
                continue;
            }
            let noise = mm_rng::normal(rng, 0.0, d.model.measurement_noise_db);
            detected.push((Rsrp::new(median.dbm + noise), cell.id, i));
        }
        detected.sort_by(|a, b| b.0.dbm().total_cmp(&a.0.dbm()).then(a.1.cmp(&b.1)));
        detected.truncate(max);

        let n = f64::from(MEAS_BANDWIDTH_PRB);
        let noise_mw = noise_floor_dbm(9e6).to_mw();
        detected
            .into_iter()
            .map(|(rsrp, _, i)| {
                let cell = &d.cells[i];
                // RSSI over the measurement bandwidth: serving RS power scaled
                // to full band + co-channel interferers weighted by their load.
                let own_mw = Dbm(rsrp.dbm()).to_mw() * n * (1.0 + 11.0 * cell.load);
                let mut interf_mw = 0.0;
                for &j in &d.co_channel[d.channel_group[i]] {
                    let Some(other) = self.medians[j].filter(|_| j != i) else {
                        continue;
                    };
                    // mm-allow(F001): accumulation order is the fixed `cells` order, identical on every run
                    interf_mw += other.mw * n * (1.0 + 11.0 * d.cells[j].load);
                }
                let rssi = Dbm::from_mw(own_mw + interf_mw + noise_mw * n);
                Measurement {
                    cell: cell.id,
                    channel: cell.channel,
                    sample: RadioSample {
                        rsrp,
                        rsrq: rsrq_from_rssi(rsrp, rssi, MEAS_BANDWIDTH_PRB),
                    },
                }
            })
            .collect()
    }

    /// Downlink SINR of `cell_id` from median powers (used by the
    /// throughput model); `None` if the cell is not deployed. A serving
    /// cell beyond [`MAX_AUDIBLE_DISTANCE_M`] still gets its own median.
    pub fn sinr(&self, cell_id: CellId) -> Option<Sinr> {
        let d = self.deployment;
        let i = d.cells.iter().position(|c| c.id == cell_id)?;
        let own_mw = match self.medians[i] {
            Some(own) => own.mw,
            None => {
                let cell = &d.cells[i];
                let d_m = cell.pos.distance(self.pos);
                let own = d.median_at(cell, &d.constants[i], d_m, &self.shadowing);
                Dbm(own.dbm()).to_mw()
            }
        };
        let mut interf_mw = 0.0;
        for &j in &d.co_channel[d.channel_group[i]] {
            let other = &d.cells[j];
            let Some(median) = self.medians[j].filter(|_| other.id != cell_id) else {
                continue;
            };
            // mm-allow(F001): accumulation order is the fixed `cells` order, identical on every run
            interf_mw += median.mw * other.load.max(0.05);
        }
        // Per-RE noise: thermal over one 15 kHz subcarrier.
        let noise_mw = noise_floor_dbm(15e3).to_mw();
        Some(Sinr::from_linear(own_mw / (interf_mw + noise_mw)))
    }
}

/// Convenience constructor for tests and examples.
pub fn cell(id: u32, x: f64, y: f64, chan: ChannelNumber, tx_dbm: f64) -> PhyCell {
    PhyCell {
        id: CellId(id),
        pci: (id % 504) as u16,
        pos: Point::new(x, y),
        channel: chan,
        tx_power_dbm: Dbm(tx_dbm),
        load: 0.3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::Environment;
    use mm_rng::SmallRng;

    fn two_cell_deployment() -> Deployment {
        let model = PropagationModel::new(Environment::Urban, 11);
        Deployment::new(
            vec![
                cell(1, 0.0, 0.0, ChannelNumber::earfcn(850), 46.0),
                cell(2, 2000.0, 0.0, ChannelNumber::earfcn(850), 46.0),
            ],
            model,
        )
    }

    #[test]
    fn nearer_cell_is_stronger_on_median() {
        let d = two_cell_deployment();
        let p = Point::new(200.0, 0.0);
        let r1 = d.median_rsrp(d.cell(CellId(1)).unwrap(), p);
        let r2 = d.median_rsrp(d.cell(CellId(2)).unwrap(), p);
        assert!(r1.dbm() > r2.dbm());
    }

    #[test]
    fn measure_all_sorted_desc_and_detectable_only() {
        let d = two_cell_deployment();
        let mut rng = SmallRng::seed_from_u64(5);
        let ms = d.measure_all(Point::new(200.0, 0.0), &mut rng);
        assert!(!ms.is_empty());
        for w in ms.windows(2) {
            assert!(w[0].sample.rsrp.dbm() >= w[1].sample.rsrp.dbm());
        }
        for m in &ms {
            assert!(m.sample.rsrp.dbm() >= DETECTION_FLOOR_DBM);
        }
    }

    #[test]
    fn strongest_picks_the_near_cell() {
        let d = two_cell_deployment();
        let (id, _) = d.strongest(Point::new(100.0, 0.0), None).unwrap();
        assert_eq!(id, CellId(1));
        let (id, _) = d.strongest(Point::new(1900.0, 0.0), None).unwrap();
        assert_eq!(id, CellId(2));
    }

    #[test]
    fn strongest_respects_rat_filter() {
        let model = PropagationModel::new(Environment::Urban, 3);
        let d = Deployment::new(
            vec![
                cell(1, 0.0, 0.0, ChannelNumber::earfcn(850), 46.0),
                cell(9, 50.0, 0.0, ChannelNumber::uarfcn(4435), 43.0),
            ],
            model,
        );
        let p = Point::new(40.0, 0.0);
        let (id, _) = d.strongest(p, Some(Rat::Umts)).unwrap();
        assert_eq!(id, CellId(9));
    }

    #[test]
    fn sinr_degrades_with_co_channel_neighbor() {
        let model = PropagationModel::new(Environment::Urban, 21);
        let lone = Deployment::new(
            vec![cell(1, 0.0, 0.0, ChannelNumber::earfcn(850), 46.0)],
            model.clone(),
        );
        let crowded = two_cell_deployment();
        // Halfway between the two cells interference is maximal.
        let p = Point::new(1000.0, 0.0);
        let s_lone = lone.sinr(CellId(1), p).unwrap();
        let s_crowded = crowded.sinr(CellId(1), p).unwrap();
        assert!(s_lone.0 > s_crowded.0);
    }

    #[test]
    fn rsrq_worse_under_interference() {
        let d = two_cell_deployment();
        let mut rng = SmallRng::seed_from_u64(8);
        // Near cell 1: good RSRQ. Midway: worse RSRQ for cell 1.
        let near = d.measure_all(Point::new(100.0, 0.0), &mut rng);
        let mid = d.measure_all(Point::new(1000.0, 0.0), &mut rng);
        let q_near = near
            .iter()
            .find(|m| m.cell == CellId(1))
            .unwrap()
            .sample
            .rsrq;
        let q_mid = mid
            .iter()
            .find(|m| m.cell == CellId(1))
            .unwrap()
            .sample
            .rsrq;
        assert!(
            q_near.db() > q_mid.db(),
            "{} vs {}",
            q_near.db(),
            q_mid.db()
        );
    }

    #[test]
    fn measurement_noise_is_bounded_but_present() {
        let d = two_cell_deployment();
        let p = Point::new(300.0, 0.0);
        let median = d.median_rsrp(d.cell(CellId(1)).unwrap(), p).dbm();
        let mut rng = SmallRng::seed_from_u64(17);
        let mut saw_diff = false;
        for _ in 0..50 {
            let ms = d.measure_all(p, &mut rng);
            let got = ms
                .iter()
                .find(|m| m.cell == CellId(1))
                .unwrap()
                .sample
                .rsrp
                .dbm();
            assert!((got - median).abs() < 10.0);
            if (got - median).abs() > 0.01 {
                saw_diff = true;
            }
        }
        assert!(saw_diff);
    }

    /// The pre-survey `measure_all`: medians of the audible cells, then one
    /// `powf` per detected × co-channel pair.
    fn reference_measure_all(d: &Deployment, pos: Point, rng: &mut SmallRng) -> Vec<Measurement> {
        let medians: Vec<(usize, f64)> = d
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.pos.distance(pos) <= MAX_AUDIBLE_DISTANCE_M)
            .map(|(i, c)| (i, d.median_rsrp(c, pos).dbm()))
            .collect();
        let noise_mw = noise_floor_dbm(9e6).to_mw();
        let mut out = Vec::new();
        for &(i, median_dbm) in &medians {
            if median_dbm < DETECTION_FLOOR_DBM {
                continue;
            }
            let cell = &d.cells[i];
            let noise = mm_rng::normal(rng, 0.0, d.model.measurement_noise_db);
            let rsrp = Rsrp::new(median_dbm + noise);
            let n = f64::from(MEAS_BANDWIDTH_PRB);
            let own_mw = Dbm(rsrp.dbm()).to_mw() * n * (1.0 + 11.0 * cell.load);
            let mut interf_mw = 0.0;
            for &(j, other_dbm) in &medians {
                if j == i || d.cells[j].channel != cell.channel {
                    continue;
                }
                interf_mw += Dbm(other_dbm).to_mw() * n * (1.0 + 11.0 * d.cells[j].load);
            }
            let rssi = Dbm::from_mw(own_mw + interf_mw + noise_mw * n);
            let rsrq = rsrq_from_rssi(rsrp, rssi, MEAS_BANDWIDTH_PRB);
            out.push(Measurement {
                cell: cell.id,
                channel: cell.channel,
                sample: RadioSample { rsrp, rsrq },
            });
        }
        out.sort_by(|a, b| {
            b.sample
                .rsrp
                .dbm()
                .total_cmp(&a.sample.rsrp.dbm())
                .then(a.cell.cmp(&b.cell))
        });
        out
    }

    #[test]
    fn measure_keeps_rsrp_ties_in_cell_id_order() {
        // At their shared site these cells' medians are far above the
        // -44 dBm reporting ceiling, so every one whose noise draw is
        // positive reports exactly -44 dBm; which of them a short `max`
        // keeps is the id order.
        let chan = ChannelNumber::earfcn(850);
        let cells = [7, 3, 9, 5].map(|id| cell(id, 0.0, 0.0, chan, 46.0));
        let d = Deployment::new(cells.to_vec(), PropagationModel::new(Environment::Urban, 1));
        let site = Point::new(0.0, 0.0);
        let mut ties = 0;
        for seed in 0..20 {
            let want = reference_measure_all(&d, site, &mut SmallRng::seed_from_u64(seed));
            ties += want
                .windows(2)
                .filter(|w| w[0].sample.rsrp == w[1].sample.rsrp)
                .count();
            for max in [1, 2, 4] {
                let got = d
                    .survey(site)
                    .measure(&mut SmallRng::seed_from_u64(seed), max);
                let ids = |ms: &[Measurement]| ms.iter().map(|m| m.cell).collect::<Vec<_>>();
                assert_eq!(ids(&got), ids(&want[..max]), "seed {seed}, max {max}");
            }
        }
        assert!(ties > 0);
    }

    /// The pre-constants `strongest`: one uncached median per cell.
    fn reference_strongest(d: &Deployment, pos: Point, rat: Option<Rat>) -> Option<(CellId, Rsrp)> {
        d.cells
            .iter()
            .filter(|c| rat.is_none_or(|r| c.rat() == r))
            .map(|c| (c.id, d.median_rsrp(c, pos)))
            .filter(|(_, r)| r.dbm() >= DETECTION_FLOOR_DBM)
            .max_by(|a, b| a.1.dbm().total_cmp(&b.1.dbm()))
    }

    /// The pre-survey `sinr`: a median per co-channel audible cell.
    fn reference_sinr(d: &Deployment, cell_id: CellId, pos: Point) -> Option<Sinr> {
        let cell = d.cell(cell_id)?;
        let own = d.median_rsrp(cell, pos).dbm();
        let mut interf_mw = 0.0;
        for other in &d.cells {
            if other.id == cell_id
                || other.channel != cell.channel
                || other.pos.distance(pos) > MAX_AUDIBLE_DISTANCE_M
            {
                continue;
            }
            let p = d.median_rsrp(other, pos).dbm();
            interf_mw += Dbm(p).to_mw() * other.load.max(0.05);
        }
        let noise_mw = noise_floor_dbm(15e3).to_mw();
        Some(Sinr::from_linear(Dbm(own).to_mw() / (interf_mw + noise_mw)))
    }

    /// 40 seeded cells over a 12 km square on three LTE channels and one
    /// UMTS channel, with seeded powers and loads, plus cell 99 on a shared
    /// channel more than 15 km from every probe position below.
    fn mixed_deployment(env: Environment) -> Deployment {
        let mut rng = SmallRng::seed_from_u64(0xce11);
        let chans = [
            ChannelNumber::earfcn(850),
            ChannelNumber::earfcn(5110),
            ChannelNumber::earfcn(9820),
            ChannelNumber::uarfcn(4435),
        ];
        let mut cells: Vec<PhyCell> = (1..=40)
            .map(|id| {
                let (x, y) = (rng.gen_range(0.0..12_000.0), rng.gen_range(0.0..12_000.0));
                let chan = chans[rng.gen_range(0..chans.len())];
                let mut c = cell(id, x, y, chan, rng.gen_range(40.0..49.0));
                c.load = rng.gen_range(0.0..1.0);
                c
            })
            .collect();
        cells.push(cell(99, 34_000.0, 6_000.0, chans[0], 46.0));
        Deployment::new(cells, PropagationModel::new(env, 2024))
    }

    #[test]
    fn survey_is_bit_identical_to_the_per_call_loops() {
        for env in [Environment::Urban, Environment::DenseUrban] {
            let d = mixed_deployment(env);
            let mut probe = SmallRng::seed_from_u64(0x9e7);
            let mut points: Vec<Point> = (0..60)
                .map(|_| {
                    Point::new(
                        probe.gen_range(-1_000.0..13_000.0),
                        probe.gen_range(-1_000.0..13_000.0),
                    )
                })
                .collect();
            points.extend(d.cells().iter().take(3).map(|c| c.pos));
            let (mut below_floor, mut inaudible, mut over_16) = (0, 0, 0);
            for (k, pos) in points.into_iter().enumerate() {
                let survey = d.survey(pos);
                let mut reference_rng = SmallRng::seed_from_u64(k as u64);
                let want = reference_measure_all(&d, pos, &mut reference_rng);
                over_16 += usize::from(want.len() > 16);
                // Keeping fewer cells computes fewer RSRQs but draws the
                // same noise: the result is the full one, truncated.
                for max in [0, 1, 16, usize::MAX] {
                    let mut rng = SmallRng::seed_from_u64(k as u64);
                    let got = survey.measure(&mut rng, max);
                    assert_eq!(got.len(), want.len().min(max), "{env:?} at {pos:?}");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!((g.cell, g.channel), (w.cell, w.channel));
                        assert_eq!(g.sample.rsrp.dbm().to_bits(), w.sample.rsrp.dbm().to_bits());
                        assert_eq!(g.sample.rsrq.db().to_bits(), w.sample.rsrq.db().to_bits());
                    }
                    assert_eq!(
                        rng.gen::<u64>(),
                        reference_rng.clone().gen::<u64>(),
                        "same noise draws when keeping {max}"
                    );
                }
                for rat in [None, Some(Rat::Lte), Some(Rat::Umts), Some(Rat::Gsm)] {
                    assert_eq!(
                        d.strongest(pos, rat).map(|(c, r)| (c, r.dbm().to_bits())),
                        reference_strongest(&d, pos, rat).map(|(c, r)| (c, r.dbm().to_bits())),
                        "{env:?} strongest {rat:?} at {pos:?}"
                    );
                }
                for c in d.cells() {
                    assert_eq!(
                        survey.sinr(c.id).map(|s| s.0.to_bits()),
                        reference_sinr(&d, c.id, pos).map(|s| s.0.to_bits()),
                        "{env:?} SINR of {} at {pos:?}",
                        c.id
                    );
                }
                assert_eq!(survey.sinr(CellId(12_345)), None);
                assert!(survey.medians.last().is_some_and(Option::is_none));
                below_floor += survey
                    .medians
                    .iter()
                    .flatten()
                    .filter(|m| m.dbm < DETECTION_FLOOR_DBM)
                    .count();
                inaudible += survey.medians.iter().filter(|m| m.is_none()).count();
            }
            // Interferers below the floor and inaudible cells besides cell
            // 99 both occur, so both skips above were exercised.
            assert!(below_floor > 0, "{env:?}");
            // Keeping 16 dropped cells at some positions.
            assert!(over_16 > 0, "{env:?}");
            assert!(inaudible > 63, "{env:?}");
        }
    }
}
