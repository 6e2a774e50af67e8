//! Physical cells and deployments.
//!
//! A [`PhyCell`] is a transmitter: identity, site position, channel, RAT and
//! power. A [`Deployment`] is the set of cells a UE can possibly hear, plus
//! the propagation model; it answers the only question the upper layers ask:
//! *"standing at point P, what do I measure for each detectable cell?"*

use crate::band::{ChannelNumber, Rat};
use crate::geom::Point;
use crate::propagation::{PropagationModel, RadioSample};
use crate::signal::{noise_floor_dbm, rsrq_from_rssi, Dbm, Rsrp, Sinr};
use mm_rng::Rng;

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

/// Sites farther than this cannot exceed the detection floor even with the
/// most favourable shadowing draw, so measurement skips them outright.
pub const MAX_AUDIBLE_DISTANCE_M: f64 = 15_000.0;

/// Measurement bandwidth (in PRB) used for the RSSI/RSRQ computation.
pub const MEAS_BANDWIDTH_PRB: u32 = 50;

/// A set of physical cells sharing one propagation model.
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    cells: Vec<PhyCell>,
    /// The propagation model computing what a UE hears.
    pub model: PropagationModel,
}

/// What a UE measures for one cell at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Which cell.
    pub cell: CellId,
    /// RSRP/RSRQ pair.
    pub sample: RadioSample,
}

impl Deployment {
    /// Build a deployment from cells and a propagation model.
    pub fn new(cells: Vec<PhyCell>, model: PropagationModel) -> Self {
        Deployment { cells, model }
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

    /// Add a cell.
    pub fn push(&mut self, cell: PhyCell) {
        self.cells.push(cell);
    }

    /// Median RSRP (path loss + shadowing, no measurement noise) of one cell
    /// at `pos`.
    pub fn median_rsrp(&self, cell: &PhyCell, pos: Point) -> Rsrp {
        let d = cell.pos.distance(pos);
        let p = self.model.received_power(
            u64::from(cell.id.0),
            cell.tx_power_dbm,
            d,
            cell.channel,
            pos,
        );
        Rsrp::new(p.0)
    }

    /// Measure every detectable cell at `pos`. Measurement noise is drawn
    /// from `rng`; RSRQ accounts for co-channel interference and per-cell
    /// load. Results are sorted by descending RSRP.
    pub fn measure_all<R: Rng + ?Sized>(&self, pos: Point, rng: &mut R) -> Vec<Measurement> {
        // First pass: median powers per cell (needed for co-channel RSSI).
        let medians: Vec<(usize, f64)> = self
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.pos.distance(pos) <= MAX_AUDIBLE_DISTANCE_M)
            .map(|(i, c)| (i, self.median_rsrp(c, pos).dbm()))
            .collect();

        let noise_mw = noise_floor_dbm(9e6).to_mw();
        let mut out = Vec::new();
        for &(i, median_dbm) in &medians {
            if median_dbm < DETECTION_FLOOR_DBM {
                continue;
            }
            let cell = &self.cells[i];
            let noise = mm_rng::normal(rng, 0.0, self.model.measurement_noise_db);
            let rsrp = Rsrp::new(median_dbm + noise);

            // RSSI over the measurement bandwidth: serving RS power scaled to
            // full band + co-channel interferers weighted by their load.
            let n = f64::from(MEAS_BANDWIDTH_PRB);
            let own_mw = Dbm(rsrp.dbm()).to_mw() * n * (1.0 + 11.0 * cell.load);
            let mut interf_mw = 0.0;
            for &(j, other_dbm) in &medians {
                if j == i || self.cells[j].channel != cell.channel {
                    continue;
                }
                let other = &self.cells[j];
                // mm-allow(F001): accumulation order is the fixed `cells` order, identical on every run
                interf_mw += Dbm(other_dbm).to_mw() * n * (1.0 + 11.0 * other.load);
            }
            let rssi = Dbm::from_mw(own_mw + interf_mw + noise_mw * n);
            let rsrq = rsrq_from_rssi(rsrp, rssi, MEAS_BANDWIDTH_PRB);
            out.push(Measurement {
                cell: cell.id,
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

    /// Downlink SINR of `cell` at `pos` given median powers (used by the
    /// throughput model).
    pub fn sinr(&self, cell_id: CellId, pos: Point) -> Option<Sinr> {
        let cell = self.cell(cell_id)?;
        let own = self.median_rsrp(cell, pos).dbm();
        let mut interf_mw = 0.0;
        for other in &self.cells {
            if other.id == cell_id
                || other.channel != cell.channel
                || other.pos.distance(pos) > MAX_AUDIBLE_DISTANCE_M
            {
                continue;
            }
            let p = self.median_rsrp(other, pos).dbm();
            // mm-allow(F001): accumulation order is the fixed `cells` order, identical on every run
            interf_mw += Dbm(p).to_mw() * other.load.max(0.05);
        }
        // Per-RE noise: thermal over one 15 kHz subcarrier.
        let noise_mw = noise_floor_dbm(15e3).to_mw();
        Some(Sinr::from_linear(Dbm(own).to_mw() / (interf_mw + noise_mw)))
    }

    /// Cells whose site lies within `radius_m` of `pos`.
    pub fn cells_within(&self, pos: Point, radius_m: f64) -> Vec<&PhyCell> {
        self.cells
            .iter()
            .filter(|c| c.pos.distance(pos) <= radius_m)
            .collect()
    }

    /// The strongest detectable cell at `pos` by median RSRP, optionally
    /// restricted to one RAT.
    pub fn strongest(&self, pos: Point, rat: Option<Rat>) -> Option<(CellId, Rsrp)> {
        self.cells
            .iter()
            .filter(|c| rat.is_none_or(|r| c.rat() == r))
            .map(|c| (c.id, self.median_rsrp(c, pos)))
            .filter(|(_, r)| r.dbm() >= DETECTION_FLOOR_DBM)
            .max_by(|a, b| a.1.dbm().total_cmp(&b.1.dbm()))
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
        let mut d = Deployment::new(
            vec![cell(1, 0.0, 0.0, ChannelNumber::earfcn(850), 46.0)],
            model,
        );
        d.push(cell(9, 50.0, 0.0, ChannelNumber::uarfcn(4435), 43.0));
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
    fn cells_within_radius() {
        let d = two_cell_deployment();
        assert_eq!(d.cells_within(Point::new(0.0, 0.0), 100.0).len(), 1);
        assert_eq!(d.cells_within(Point::new(1000.0, 0.0), 1500.0).len(), 2);
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
}
