//! Per-cell handoff configuration: the typed form of what a cell broadcasts
//! in its SIBs plus the dedicated measConfig it gives connected UEs.
//!
//! This is the object the paper crawls 7,996,149 samples of. One
//! [`CellConfig`] corresponds to one cell's complete, observable handoff
//! policy: idle-mode reselection parameters (SIB1/3/4), per-frequency
//! neighbor configuration (SIB5/6/7/8), and the active-state reporting
//! configuration (RRCConnectionReconfiguration measConfig).

use crate::events::ReportConfig;
use mmradio::band::ChannelNumber;
use mmradio::cell::CellId;

/// Which quantity a threshold/trigger is expressed in (TS 36.331
/// `triggerQuantity`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Quantity {
    /// Reference signal received power (dBm).
    Rsrp,
    /// Reference signal received quality (dB).
    Rsrq,
}

impl Quantity {
    /// Display name used in figures ("RSRP"/"RSRQ").
    pub fn name(self) -> &'static str {
        match self {
            Quantity::Rsrp => "RSRP",
            Quantity::Rsrq => "RSRQ",
        }
    }
}

/// Serving-cell idle-mode configuration (SIB1 + SIB3 content).
#[derive(Debug, Clone, PartialEq)]
pub struct ServingConfig {
    /// `Ps` — cellReselectionPriority, 0..=7, 7 most preferred.
    pub priority: u8,
    /// `Hs` — q-Hyst, dB, added to the serving cell's rank.
    pub q_hyst_db: f64,
    /// `∆min,rsrp` — q-RxLevMin, dBm (calibration floor).
    pub q_rxlevmin_dbm: f64,
    /// `∆min,rsrq` — q-QualMin, dB.
    pub q_qualmin_db: f64,
    /// `Θintra` — s-IntraSearchP, dB over `Srxlev`.
    pub s_intra_search_db: f64,
    /// `Θnonintra` — s-NonIntraSearchP, dB over `Srxlev`.
    pub s_nonintra_search_db: f64,
    /// `Θ(s)lower` — threshServingLowP, dB over `Srxlev`.
    pub thresh_serving_low_db: f64,
    /// Treselection, seconds.
    pub t_reselection_s: f64,
}

impl Default for ServingConfig {
    fn default() -> Self {
        // The common instance §4.2 dissects: Θintra=62, Θnonintra=28,
        // ∆min=-122, Θ(s)low=6, plus a 4 dB q-Hyst (the AT&T single value).
        ServingConfig {
            priority: 3,
            q_hyst_db: 4.0,
            q_rxlevmin_dbm: -122.0,
            q_qualmin_db: -18.0,
            s_intra_search_db: 62.0,
            s_nonintra_search_db: 28.0,
            thresh_serving_low_db: 6.0,
            t_reselection_s: 1.0,
        }
    }
}

impl ServingConfig {
    /// `Srxlev` of the serving cell: measured RSRP minus the calibration
    /// floor (TS 36.304 §5.2.3.2; the paper's `rS − ∆min`).
    pub fn srxlev_db(&self, rsrp_dbm: f64) -> f64 {
        rsrp_dbm - self.q_rxlevmin_dbm
    }

    /// Eq. (1), intra-freq side: do we measure intra-frequency neighbors?
    pub fn intra_measurement_due(&self, rsrp_dbm: f64) -> bool {
        self.srxlev_db(rsrp_dbm) <= self.s_intra_search_db
    }

    /// Eq. (1), non-intra side: do we measure inter-freq/inter-RAT layers
    /// of equal or lower priority?
    pub fn nonintra_measurement_due(&self, rsrp_dbm: f64) -> bool {
        self.srxlev_db(rsrp_dbm) <= self.s_nonintra_search_db
    }
}

/// One neighbor frequency layer (an entry of SIB5/6/7/8).
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborFreqConfig {
    /// The layer's channel (RAT-qualified).
    pub channel: ChannelNumber,
    /// `Pc` — cellReselectionPriority for this frequency (0..=7).
    pub priority: u8,
    /// `Θ(c)higher` — threshX-High, dB over the candidate's `Srxlev`.
    pub thresh_x_high_db: f64,
    /// `Θ(c)lower` — threshX-Low, dB over the candidate's `Srxlev`.
    pub thresh_x_low_db: f64,
    /// Calibration floor for cells on this layer, dBm.
    pub q_rxlevmin_dbm: f64,
    /// `∆freq` — q-OffsetFreq, dB, subtracted from candidate rank.
    pub q_offset_freq_db: f64,
    /// Treselection for this layer, seconds.
    pub t_reselection_s: f64,
    /// Maximum measurement bandwidth, PRB (SIB5 only; 0 = n/a).
    pub meas_bandwidth_prb: u8,
}

impl NeighborFreqConfig {
    /// A sane LTE inter-freq layer.
    pub fn lte(earfcn: u32, priority: u8) -> Self {
        NeighborFreqConfig {
            channel: ChannelNumber::earfcn(earfcn),
            priority,
            thresh_x_high_db: 12.0,
            thresh_x_low_db: 10.0,
            q_rxlevmin_dbm: -122.0,
            q_offset_freq_db: 0.0,
            t_reselection_s: 1.0,
            meas_bandwidth_prb: 50,
        }
    }

    /// Candidate `Srxlev` on this layer.
    pub fn srxlev_db(&self, rsrp_dbm: f64) -> f64 {
        rsrp_dbm - self.q_rxlevmin_dbm
    }
}

/// The complete observable handoff configuration of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellConfig {
    /// The broadcasting cell.
    pub cell: CellId,
    /// The cell's own channel.
    pub channel: ChannelNumber,
    /// SIB1+SIB3 serving-cell part.
    pub serving: ServingConfig,
    /// SIB5/6/7/8 neighbor frequency layers (excluding the serving layer,
    /// whose intra-freq parameters live in `serving`).
    pub neighbor_freqs: Vec<NeighborFreqConfig>,
    /// Per-cell rank offsets (`q-OffsetCell`, SIB4), `(cell, dB)`.
    pub q_offset_cell_db: Vec<(CellId, f64)>,
    /// Forbidden candidate cells (`Listforbid`, SIB4 black list).
    pub forbidden_cells: Vec<CellId>,
    /// Active-state reporting configurations handed to connected UEs.
    pub report_configs: Vec<ReportConfig>,
    /// `s-Measure`: serving RSRP (dBm) below which neighbor measurements run
    /// in connected mode; `None` disables the gate (measure always).
    pub s_measure_dbm: Option<f64>,
}

impl CellConfig {
    /// A minimal intra-frequency-only configuration for `cell`.
    pub fn minimal(cell: CellId, channel: ChannelNumber) -> Self {
        CellConfig {
            cell,
            channel,
            serving: ServingConfig::default(),
            neighbor_freqs: Vec::new(),
            q_offset_cell_db: Vec::new(),
            forbidden_cells: Vec::new(),
            report_configs: Vec::new(),
            s_measure_dbm: None,
        }
    }

    /// The configured priority of a frequency layer: the serving entry for
    /// the serving channel, a SIB5/6/7/8 entry otherwise.
    pub fn priority_of(&self, channel: ChannelNumber) -> Option<u8> {
        if channel == self.channel {
            return Some(self.serving.priority);
        }
        self.neighbor_freqs
            .iter()
            .find(|f| f.channel == channel)
            .map(|f| f.priority)
    }

    /// Neighbor layer config for a channel.
    pub fn neighbor_freq(&self, channel: ChannelNumber) -> Option<&NeighborFreqConfig> {
        self.neighbor_freqs.iter().find(|f| f.channel == channel)
    }

    /// The per-cell rank offset (`q-OffsetCell`) for a candidate, 0 if
    /// unlisted.
    pub fn cell_offset_db(&self, cell: CellId) -> f64 {
        self.q_offset_cell_db
            .iter()
            .find(|(c, _)| *c == cell)
            .map_or(0.0, |(_, o)| *o)
    }

    /// Whether a candidate is barred by the SIB4 black list.
    pub fn is_forbidden(&self, cell: CellId) -> bool {
        self.forbidden_cells.contains(&cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srxlev_matches_paper_example() {
        // §4.2: ∆min = -122 dBm, Θintra = 62 dB → intra measurement whenever
        // rS < -60 dBm ("true almost anywhere").
        let s = ServingConfig::default();
        assert!(s.intra_measurement_due(-61.0));
        assert!(!s.intra_measurement_due(-59.0));
        // Θnonintra = 28 dB → non-intra measurement below -94 dBm.
        assert!(s.nonintra_measurement_due(-95.0));
        assert!(!s.nonintra_measurement_due(-93.0));
    }

    #[test]
    fn intra_is_always_at_least_as_eager_as_nonintra_by_default() {
        let s = ServingConfig::default();
        assert!(s.s_intra_search_db >= s.s_nonintra_search_db);
    }

    #[test]
    fn priority_lookup_covers_serving_and_neighbors() {
        let mut cfg = CellConfig::minimal(CellId(1), ChannelNumber::earfcn(850));
        cfg.serving.priority = 3;
        cfg.neighbor_freqs.push(NeighborFreqConfig::lte(9820, 5));
        assert_eq!(cfg.priority_of(ChannelNumber::earfcn(850)), Some(3));
        assert_eq!(cfg.priority_of(ChannelNumber::earfcn(9820)), Some(5));
        assert_eq!(cfg.priority_of(ChannelNumber::earfcn(5110)), None);
    }

    #[test]
    fn cell_offset_defaults_to_zero() {
        let mut cfg = CellConfig::minimal(CellId(1), ChannelNumber::earfcn(850));
        cfg.q_offset_cell_db.push((CellId(7), 2.0));
        assert_eq!(cfg.cell_offset_db(CellId(7)), 2.0);
        assert_eq!(cfg.cell_offset_db(CellId(8)), 0.0);
    }

    #[test]
    fn forbidden_list_is_honored() {
        let mut cfg = CellConfig::minimal(CellId(1), ChannelNumber::earfcn(850));
        cfg.forbidden_cells.push(CellId(3));
        assert!(cfg.is_forbidden(CellId(3)));
        assert!(!cfg.is_forbidden(CellId(4)));
    }
}
