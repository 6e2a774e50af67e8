//! UE-side state machines tying the pieces together: the connected-mode
//! engine (L3 filter → s-Measure gate → event monitors → measurement
//! reports) and the idle-mode engine (measurement rules → cached
//! measurements → reselection ranking).

use crate::config::{CellConfig, Quantity};
use crate::events::{EventMonitor, MeasurementReportContent, NeighborMeas};
use crate::measurement::{s_measure_gate, L3Filter, MeasurementRules};
use crate::reselect::{Candidate, Reselection, Reselector};
use mmradio::band::ChannelNumber;
use mmradio::cell::CellId;
use std::collections::BTreeMap;

/// One cell's measurement as delivered by the radio layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMeasurement {
    /// Measured cell.
    pub cell: CellId,
    /// Its frequency layer.
    pub channel: ChannelNumber,
    /// RSRP, dBm.
    pub rsrp_dbm: f64,
    /// RSRQ, dB.
    pub rsrq_db: f64,
}

/// Connected-mode (active-state) UE handoff engine.
///
/// Owns the serving cell's dedicated measurement configuration; feeding it
/// one [`CellMeasurement`] batch per epoch yields the measurement reports
/// the UE would send. The caller (the network side / simulator) turns
/// reports into [`crate::handoff::HandoffDecision`]s and calls
/// [`ConnectedUe::apply_handoff`] when the command executes.
#[derive(Debug, Clone)]
pub struct ConnectedUe {
    cfg: CellConfig,
    monitors: Vec<EventMonitor>,
    filter: L3Filter,
}

impl ConnectedUe {
    /// Attach to a serving cell with its configuration.
    pub fn new(cfg: CellConfig) -> Self {
        let monitors = cfg
            .report_configs
            .iter()
            .map(|rc| EventMonitor::new(*rc))
            .collect();
        ConnectedUe {
            cfg,
            monitors,
            filter: L3Filter::new(4),
        }
    }

    /// The serving cell.
    pub fn serving(&self) -> CellId {
        self.cfg.cell
    }

    /// The active configuration.
    pub fn config(&self) -> &CellConfig {
        &self.cfg
    }

    /// Execute a handoff: adopt the target cell's configuration and reset
    /// all measurement state (filters and event monitors restart fresh).
    pub fn apply_handoff(&mut self, new_cfg: CellConfig) {
        self.monitors = new_cfg
            .report_configs
            .iter()
            .map(|rc| EventMonitor::new(*rc))
            .collect();
        self.filter.reset();
        self.cfg = new_cfg;
    }

    /// Rank offset (`Ofn + Ocn`) for a neighbour under the current config.
    fn neighbor_offset_db(cfg: &CellConfig, cell: CellId, channel: ChannelNumber) -> f64 {
        let freq_part = if channel == cfg.channel {
            0.0
        } else {
            cfg.neighbor_freq(channel)
                .map_or(0.0, |f| -f.q_offset_freq_db)
        };
        freq_part - cfg.cell_offset_db(cell)
    }

    /// Feed one measurement epoch; returns any reports triggered now.
    pub fn step(
        &mut self,
        now_ms: u64,
        measurements: &[CellMeasurement],
    ) -> Vec<MeasurementReportContent> {
        let Some(serving) = measurements.iter().position(|m| m.cell == self.cfg.cell) else {
            return Vec::new(); // serving not measurable this epoch
        };

        // L3-filter everything we heard, index-aligned with the batch.
        let mut filtered: Vec<(f64, f64)> = measurements
            .iter()
            .map(|m| {
                let p = self.filter.update(m.cell, Quantity::Rsrp, m.rsrp_dbm);
                let q = self.filter.update(m.cell, Quantity::Rsrq, m.rsrq_db);
                (p, q)
            })
            .collect();
        // A cell the batch names twice was filtered twice; each of its
        // entries reads the last value.
        for (i, m) in measurements.iter().enumerate() {
            if let Some(j) = measurements[i + 1..]
                .iter()
                .rposition(|later| later.cell == m.cell)
            {
                filtered[i] = filtered[i + 1 + j];
            }
        }
        let (serving_rsrp, serving_rsrq) = filtered[serving];

        // s-Measure gate: when the serving cell is strong enough, neighbour
        // measurements are not performed at all.
        let measure_neighbors = s_measure_gate(self.cfg.s_measure_dbm, serving_rsrp);

        // The neighbour list once per epoch: which cells, their offsets
        // and RAT. Only the filtered value depends on the monitor's
        // quantity, so each monitor refills just that.
        let cfg = &self.cfg;
        let (mut neighbors, values): (Vec<NeighborMeas>, Vec<(f64, f64)>) = if measure_neighbors {
            measurements
                .iter()
                .zip(&filtered)
                .filter(|(m, _)| m.cell != cfg.cell && !cfg.is_forbidden(m.cell))
                .map(|(m, &values)| {
                    let neighbor = NeighborMeas {
                        cell: m.cell,
                        value: 0.0,
                        offset_db: Self::neighbor_offset_db(cfg, m.cell, m.channel),
                        inter_rat: m.channel.rat != cfg.channel.rat,
                    };
                    (neighbor, values)
                })
                .unzip()
        } else {
            (Vec::new(), Vec::new())
        };
        let mut reports = Vec::new();
        for monitor in &mut self.monitors {
            let quantity = monitor.config.quantity;
            let serving_value = match quantity {
                Quantity::Rsrp => serving_rsrp,
                Quantity::Rsrq => serving_rsrq,
            };
            for (neighbor, &(p, q)) in neighbors.iter_mut().zip(&values) {
                neighbor.value = match quantity {
                    Quantity::Rsrp => p,
                    Quantity::Rsrq => q,
                };
            }
            if let Some(report) = monitor.step(now_ms, serving_value, &neighbors) {
                reports.push(report);
            }
        }
        reports
    }
}

/// How long a cached neighbour measurement stays valid for ranking, ms.
const MEAS_CACHE_TTL_MS: u64 = 5_000;
/// Cache TTL for higher-priority layers, which are only scanned every
/// [`crate::measurement::HIGHER_PRIORITY_MEAS_INTERVAL_MS`].
const HIGHER_CACHE_TTL_MS: u64 =
    crate::measurement::HIGHER_PRIORITY_MEAS_INTERVAL_MS + MEAS_CACHE_TTL_MS;

/// Idle-mode UE engine: measurement rules plus reselection ranking over a
/// cache of the latest measurement per candidate.
#[derive(Debug, Clone)]
pub struct IdleUe {
    cfg: CellConfig,
    rules: MeasurementRules,
    reselector: Reselector,
    cache: BTreeMap<CellId, (u64, Candidate)>,
}

impl IdleUe {
    /// Camp on a cell with its configuration.
    pub fn new(cfg: CellConfig) -> Self {
        IdleUe {
            cfg,
            rules: MeasurementRules::new(),
            reselector: Reselector::new(),
            cache: BTreeMap::new(),
        }
    }

    /// The camped cell.
    pub fn serving(&self) -> CellId {
        self.cfg.cell
    }

    /// The active configuration.
    pub fn config(&self) -> &CellConfig {
        &self.cfg
    }

    /// Whether the UE would even be running neighbour measurements now —
    /// exposed for the §4.2 efficiency experiments.
    pub fn measurement_active(&mut self, now_ms: u64, serving_rsrp_dbm: f64) -> bool {
        let plan = self.rules.plan(now_ms, &self.cfg, serving_rsrp_dbm);
        !plan.is_idle()
    }

    /// Execute a reselection: adopt the new serving cell's configuration.
    pub fn apply_reselection(&mut self, new_cfg: CellConfig) {
        self.cfg = new_cfg;
        self.reselector.reset();
        self.cache.clear();
        self.rules = MeasurementRules::new();
    }

    /// Feed one epoch of measurements; returns a reselection when one is
    /// due. `measurements` must include the serving cell when audible.
    pub fn step(&mut self, now_ms: u64, measurements: &[CellMeasurement]) -> Option<Reselection> {
        let serving_rsrp = measurements
            .iter()
            .find(|m| m.cell == self.cfg.cell)
            .map(|m| m.rsrp_dbm)?;

        let plan = self.rules.plan(now_ms, &self.cfg, serving_rsrp);

        // Refresh the measurement cache according to the plan.
        for m in measurements {
            if m.cell == self.cfg.cell {
                continue;
            }
            let intra = m.channel == self.cfg.channel;
            let layer_priority = self.cfg.priority_of(m.channel);
            let higher = layer_priority.is_some_and(|p| p > self.cfg.serving.priority);
            let measured_now = (intra && plan.intra)
                || (!intra && !higher && plan.nonintra && layer_priority.is_some())
                || (higher && plan.higher_priority_layers.contains(&m.channel));
            if measured_now {
                self.cache.insert(
                    m.cell,
                    (
                        now_ms,
                        Candidate {
                            cell: m.cell,
                            channel: m.channel,
                            rsrp_dbm: m.rsrp_dbm,
                        },
                    ),
                );
            }
        }

        // Expire stale entries.
        let cfg = &self.cfg;
        self.cache.retain(|_, (t, cand)| {
            let higher = cfg
                .priority_of(cand.channel)
                .is_some_and(|p| p > cfg.serving.priority);
            let ttl = if higher {
                HIGHER_CACHE_TTL_MS
            } else {
                MEAS_CACHE_TTL_MS
            };
            now_ms.saturating_sub(*t) <= ttl
        });

        let candidates: Vec<Candidate> = self.cache.values().map(|(_, c)| *c).collect();
        self.reselector
            .step(now_ms, &self.cfg, serving_rsrp, &candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NeighborFreqConfig;
    use crate::events::ReportConfig;

    fn meas(cell: u32, earfcn: u32, rsrp: f64) -> CellMeasurement {
        CellMeasurement {
            cell: CellId(cell),
            channel: ChannelNumber::earfcn(earfcn),
            rsrp_dbm: rsrp,
            rsrq_db: -10.0,
        }
    }

    fn connected_cfg() -> CellConfig {
        let mut cfg = CellConfig::minimal(CellId(1), ChannelNumber::earfcn(850));
        let mut a3 = ReportConfig::a3(3.0);
        a3.time_to_trigger_ms = 0;
        cfg.report_configs.push(a3);
        cfg
    }

    #[test]
    fn connected_ue_reports_a3_when_neighbor_clears_offset() {
        let mut ue = ConnectedUe::new(connected_cfg());
        let reports = ue.step(0, &[meas(1, 850, -100.0), meas(2, 850, -94.0)]);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].event.label(), "A3");
        assert_eq!(reports[0].cells[0].0, CellId(2));
    }

    #[test]
    fn a_cell_named_twice_reads_its_last_filtered_value() {
        // Cell 2 is filtered twice: -80, then -120, to (-80 - 120) / 2 =
        // -100, which is not 3 + 1 dB above the serving -100. Reading the
        // first entry's -80 would trigger A3.
        let mut ue = ConnectedUe::new(connected_cfg());
        let batch = [
            meas(2, 850, -80.0),
            meas(1, 850, -100.0),
            meas(2, 850, -120.0),
        ];
        assert!(ue.step(0, &batch).is_empty());
        // The same cell at -80 once triggers.
        let mut ue = ConnectedUe::new(connected_cfg());
        assert_eq!(
            ue.step(0, &[meas(2, 850, -80.0), meas(1, 850, -100.0)])
                .len(),
            1
        );
    }

    #[test]
    fn connected_ue_silent_without_serving_measurement() {
        let mut ue = ConnectedUe::new(connected_cfg());
        assert!(ue.step(0, &[meas(2, 850, -80.0)]).is_empty());
    }

    #[test]
    fn s_measure_gates_neighbor_reports() {
        let mut cfg = connected_cfg();
        cfg.s_measure_dbm = Some(-97.0);
        let mut ue = ConnectedUe::new(cfg);
        // Serving at -80: gate closed, no reports despite strong neighbour.
        assert!(ue
            .step(0, &[meas(1, 850, -80.0), meas(2, 850, -70.0)])
            .is_empty());
        // Build a fresh UE so the L3 filter has no memory of -80.
        let mut cfg2 = connected_cfg();
        cfg2.s_measure_dbm = Some(-97.0);
        let mut ue2 = ConnectedUe::new(cfg2);
        let reports = ue2.step(0, &[meas(1, 850, -105.0), meas(2, 850, -99.0)]);
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn apply_handoff_resets_state() {
        let mut ue = ConnectedUe::new(connected_cfg());
        let _ = ue.step(0, &[meas(1, 850, -100.0), meas(2, 850, -94.0)]);
        let mut new_cfg = CellConfig::minimal(CellId(2), ChannelNumber::earfcn(850));
        new_cfg.report_configs.push(ReportConfig::a3(3.0));
        ue.apply_handoff(new_cfg);
        assert_eq!(ue.serving(), CellId(2));
        // Old serving is now a neighbour; no instant retrigger because
        // monitors are fresh (TTT restarts).
        let reports = ue.step(10, &[meas(2, 850, -94.0), meas(1, 850, -100.0)]);
        assert!(reports.is_empty());
    }

    #[test]
    fn freq_offset_disfavors_neighbor_layer() {
        let mut cfg = connected_cfg();
        let mut layer = NeighborFreqConfig::lte(1975, 3);
        layer.q_offset_freq_db = 6.0; // strong penalty
        cfg.neighbor_freqs.push(layer);
        let mut ue = ConnectedUe::new(cfg);
        // 5 dB stronger on the penalized layer: 5 - 6 = -1 < 3 + 1 → silent.
        let reports = ue.step(0, &[meas(1, 850, -100.0), meas(2, 1975, -95.0)]);
        assert!(reports.is_empty());
    }

    #[test]
    fn rsrq_monitor_uses_rsrq_values() {
        let mut cfg = CellConfig::minimal(CellId(1), ChannelNumber::earfcn(850));
        let mut a5 = ReportConfig::a5(Quantity::Rsrq, -11.5, -14.0);
        a5.time_to_trigger_ms = 0;
        cfg.report_configs.push(a5);
        let mut ue = ConnectedUe::new(cfg);
        let mut serving = meas(1, 850, -100.0);
        serving.rsrq_db = -15.0; // below ΘA5,S
        let mut neighbor = meas(2, 850, -101.0);
        neighbor.rsrq_db = -9.0; // above ΘA5,C
        let reports = ue.step(0, &[serving, neighbor]);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].quantity, Quantity::Rsrq);
    }

    fn idle_cfg() -> CellConfig {
        let mut cfg = CellConfig::minimal(CellId(1), ChannelNumber::earfcn(850));
        cfg.serving.t_reselection_s = 1.0;
        cfg
    }

    #[test]
    fn idle_ue_reselects_after_dwell() {
        let mut ue = IdleUe::new(idle_cfg());
        let batch = [meas(1, 850, -100.0), meas(2, 850, -90.0)];
        assert!(ue.step(0, &batch).is_none());
        assert!(ue.step(500, &batch).is_none());
        let sel = ue.step(1000, &batch).expect("reselect");
        assert_eq!(sel.target, CellId(2));
    }

    #[test]
    fn idle_ue_ignores_neighbors_when_serving_strong() {
        // Serving at -55 dBm: Srxlev = 67 > Θintra = 62 → no intra
        // measurement → no reselection even with a stronger neighbour.
        let mut ue = IdleUe::new(idle_cfg());
        let batch = [meas(1, 850, -55.0), meas(2, 850, -50.0)];
        for t in 0..5 {
            assert!(ue.step(t * 1000, &batch).is_none());
        }
    }

    #[test]
    fn idle_ue_higher_priority_scan_feeds_reselection() {
        let mut cfg = idle_cfg();
        cfg.neighbor_freqs.push(NeighborFreqConfig::lte(9820, 5));
        let mut ue = IdleUe::new(cfg);
        // Serving strong (no intra/non-intra measurement) but the
        // higher-priority layer is scanned at t=0 and its candidate clears
        // threshX-High (Srxlev = -100+122 = 22 > 12).
        let batch = [meas(1, 850, -55.0), meas(3, 9820, -100.0)];
        assert!(ue.step(0, &batch).is_none());
        let sel = ue.step(1100, &batch).expect("higher-priority reselection");
        assert_eq!(sel.target, CellId(3));
        assert_eq!(sel.relation.label(), "non-intra(H)");
    }

    #[test]
    fn idle_measurement_active_tracks_serving_strength() {
        let mut ue = IdleUe::new(idle_cfg());
        assert!(!ue.measurement_active(100_000, -55.0));
        assert!(ue.measurement_active(100_001, -70.0));
    }

    #[test]
    fn apply_reselection_moves_camp() {
        let mut ue = IdleUe::new(idle_cfg());
        ue.apply_reselection(CellConfig::minimal(CellId(2), ChannelNumber::earfcn(850)));
        assert_eq!(ue.serving(), CellId(2));
    }
}
