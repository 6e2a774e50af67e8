//! Measurement control: layer-3 filtering and the measurement-triggering
//! rules of the paper's Eq. (1).
//!
//! A UE does not measure every candidate layer at all times. In idle mode,
//! intra-frequency measurement starts when the serving `Srxlev` falls to
//! `s-IntraSearch` and non-intra-frequency measurement at `s-NonIntraSearch`
//! — while *higher-priority* layers are always measured on a slow periodic
//! schedule (TS 36.304 §5.2.4.2). In connected mode the `s-Measure` gate
//! plays the same role. Raw samples are smoothed with the standard L3 filter
//! `F_n = (1 − a)·F_{n−1} + a·M_n`, `a = (1/2)^{k/4}` (TS 36.331 §5.5.3.2).

use crate::config::{CellConfig, Quantity, ServingConfig};
use mmradio::band::ChannelNumber;
use mmradio::cell::CellId;

/// The standard LTE layer-3 measurement filter.
#[derive(Debug, Clone)]
pub struct L3Filter {
    /// The smoothing weight `a = (1/2)^{k/4}` of `filterCoefficient` k.
    a: f64,
    /// Per measured cell, sorted by cell: its filtered RSRP and RSRQ, in
    /// [`slot`] order, each `None` until its first sample.
    state: Vec<(CellId, [Option<f64>; 2])>,
}

/// A quantity's place in an [`L3Filter`] state entry.
fn slot(quantity: Quantity) -> usize {
    match quantity {
        Quantity::Rsrp => 0,
        Quantity::Rsrq => 1,
    }
}

impl L3Filter {
    /// New filter with `filterCoefficient` `k` (default 4 → a = 1/2).
    pub fn new(k: u8) -> Self {
        L3Filter {
            a: 0.5f64.powf(f64::from(k) / 4.0),
            state: Vec::new(),
        }
    }

    /// The smoothing weight `a = (1/2)^{k/4}`.
    pub fn alpha(&self) -> f64 {
        self.a
    }

    /// Feed one raw sample, returning the filtered value.
    pub fn update(&mut self, cell: CellId, quantity: Quantity, sample: f64) -> f64 {
        let i = match self.state.binary_search_by_key(&cell, |&(c, _)| c) {
            Ok(i) => i,
            Err(i) => {
                self.state.insert(i, (cell, [None; 2]));
                i
            }
        };
        let a = self.a;
        let f = &mut self.state[i].1[slot(quantity)];
        let filtered = f.map_or(sample, |f| (1.0 - a) * f + a * sample);
        *f = Some(filtered);
        filtered
    }

    /// Current filtered value, if the cell has been measured.
    pub fn get(&self, cell: CellId, quantity: Quantity) -> Option<f64> {
        let i = self.state.binary_search_by_key(&cell, |&(c, _)| c).ok()?;
        self.state[i].1[slot(quantity)]
    }

    /// Forget everything (e.g. after a handoff).
    pub fn reset(&mut self) {
        self.state.clear();
    }
}

/// Periodic interval for measuring higher-priority layers even when the
/// serving cell is strong (the paper's `ThigherMeas`), ms.
pub const HIGHER_PRIORITY_MEAS_INTERVAL_MS: u64 = 60_000;

/// Which layers the UE measures this epoch (idle mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasurementPlan {
    /// Measure intra-frequency neighbours.
    pub intra: bool,
    /// Measure equal/lower-priority non-intra layers.
    pub nonintra: bool,
    /// Higher-priority layers due for their periodic scan.
    pub higher_priority_layers: Vec<ChannelNumber>,
}

impl MeasurementPlan {
    /// True if nothing at all is measured this epoch.
    pub fn is_idle(&self) -> bool {
        !self.intra && !self.nonintra && self.higher_priority_layers.is_empty()
    }
}

/// Stateful measurement-rule engine (owns the higher-priority scan clock).
#[derive(Debug, Clone, Default)]
pub struct MeasurementRules {
    last_higher_scan_ms: Option<u64>,
}

impl MeasurementRules {
    /// New engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decide what to measure at `now_ms` given the serving configuration
    /// and the serving cell's current RSRP.
    pub fn plan(
        &mut self,
        now_ms: u64,
        cfg: &CellConfig,
        serving_rsrp_dbm: f64,
    ) -> MeasurementPlan {
        let s = &cfg.serving;
        let intra = s.intra_measurement_due(serving_rsrp_dbm);
        let nonintra = s.nonintra_measurement_due(serving_rsrp_dbm);

        let higher_due = match self.last_higher_scan_ms {
            None => true,
            Some(t) => now_ms.saturating_sub(t) >= HIGHER_PRIORITY_MEAS_INTERVAL_MS,
        };
        let mut higher_priority_layers = Vec::new();
        if higher_due {
            for f in &cfg.neighbor_freqs {
                if f.priority > s.priority {
                    higher_priority_layers.push(f.channel);
                }
            }
            if !higher_priority_layers.is_empty() {
                self.last_higher_scan_ms = Some(now_ms);
            }
        }
        MeasurementPlan {
            intra,
            nonintra,
            higher_priority_layers,
        }
    }
}

/// Connected-mode `s-Measure` gate: should the UE measure neighbours?
pub fn s_measure_gate(s_measure_dbm: Option<f64>, serving_rsrp_dbm: f64) -> bool {
    match s_measure_dbm {
        None => true,
        Some(t) => serving_rsrp_dbm < t,
    }
}

/// Paper §4.2's efficiency diagnostics for one configuration: measurements
/// can be "premature" (triggered long before any decision could follow) or
/// non-intra measurement can lag the decision threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementEfficiency {
    /// `Θintra − Θnonintra` (≥ 0 expected: intra is cheaper, should start
    /// first).
    pub intra_nonintra_gap_db: f64,
    /// `Θintra − Θ(s)lower` (large ⇒ intra measurements run long before a
    /// lower-priority handoff could trigger — wasted battery).
    pub intra_decision_gap_db: f64,
    /// `Θnonintra − Θ(s)lower` (< 0 ⇒ non-intra measurement may start too
    /// late to assist the decision).
    pub nonintra_decision_gap_db: f64,
}

/// Compute the gap diagnostics for a serving configuration.
pub fn measurement_efficiency(s: &ServingConfig) -> MeasurementEfficiency {
    MeasurementEfficiency {
        intra_nonintra_gap_db: s.s_intra_search_db - s.s_nonintra_search_db,
        intra_decision_gap_db: s.s_intra_search_db - s.thresh_serving_low_db,
        nonintra_decision_gap_db: s.s_nonintra_search_db - s.thresh_serving_low_db,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NeighborFreqConfig;

    #[test]
    fn l3_filter_alpha_default_is_half() {
        assert!((L3Filter::new(4).alpha() - 0.5).abs() < 1e-12);
        assert!((L3Filter::new(0).alpha() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn l3_filter_first_sample_passes_through() {
        let mut f = L3Filter::new(4);
        assert_eq!(f.update(CellId(1), Quantity::Rsrp, -100.0), -100.0);
    }

    #[test]
    fn l3_filter_converges_toward_constant_input() {
        let mut f = L3Filter::new(4);
        f.update(CellId(1), Quantity::Rsrp, -120.0);
        let mut last = -120.0;
        for _ in 0..20 {
            last = f.update(CellId(1), Quantity::Rsrp, -90.0);
        }
        assert!((last - (-90.0)).abs() < 0.01, "{last}");
    }

    #[test]
    fn l3_filter_smooths_noise() {
        let mut f = L3Filter::new(8); // a ≈ 0.25
        f.update(CellId(1), Quantity::Rsrp, -100.0);
        let bumped = f.update(CellId(1), Quantity::Rsrp, -90.0);
        assert!(bumped < -95.0, "one sample must not dominate: {bumped}");
    }

    #[test]
    fn l3_filter_tracks_cells_and_quantities_independently() {
        let mut f = L3Filter::new(4);
        f.update(CellId(1), Quantity::Rsrp, -100.0);
        f.update(CellId(1), Quantity::Rsrq, -10.0);
        f.update(CellId(2), Quantity::Rsrp, -80.0);
        assert_eq!(f.get(CellId(1), Quantity::Rsrp), Some(-100.0));
        assert_eq!(f.get(CellId(1), Quantity::Rsrq), Some(-10.0));
        assert_eq!(f.get(CellId(2), Quantity::Rsrp), Some(-80.0));
    }

    /// The pre-flat filter: one `BTreeMap` entry per (cell, quantity), and
    /// a `powf` per update.
    struct MapFilter {
        k: u8,
        state: std::collections::BTreeMap<(CellId, Quantity), f64>,
    }

    impl MapFilter {
        fn update(&mut self, cell: CellId, quantity: Quantity, sample: f64) -> f64 {
            let a = 0.5f64.powf(f64::from(self.k) / 4.0);
            let f = self
                .state
                .entry((cell, quantity))
                .and_modify(|f| *f = (1.0 - a) * *f + a * sample)
                .or_insert(sample);
            *f
        }
    }

    #[test]
    fn l3_filter_matches_a_map_reference() {
        use mm_rng::Rng;
        let mut rng = mm_rng::SmallRng::seed_from_u64(0x13f);
        let quantities = [Quantity::Rsrp, Quantity::Rsrq];
        for k in [0u8, 4, 8, 11] {
            let mut flat = L3Filter::new(k);
            let mut map = MapFilter {
                k,
                state: Default::default(),
            };
            assert_eq!(
                flat.alpha().to_bits(),
                0.5f64.powf(f64::from(k) / 4.0).to_bits()
            );
            for batch in 0..300 {
                if rng.gen_range(0..20) == 0 {
                    flat.reset();
                    map.state.clear();
                }
                // Up to 12 mentions of 16 cells, in any order, so many
                // batches name a cell twice; the first always does.
                let mut cells: Vec<CellId> = (0..rng.gen_range(0..12))
                    .map(|_| CellId(rng.gen_range(0..16u32) * 37))
                    .collect();
                if batch == 0 {
                    cells = vec![CellId(74), CellId(0), CellId(74)];
                }
                for cell in cells {
                    // Mostly both quantities, sometimes one.
                    for &q in &quantities[..rng.gen_range(1..=2)] {
                        let sample = rng.gen_range(-140.0..-3.0);
                        assert_eq!(
                            flat.update(cell, q, sample).to_bits(),
                            map.update(cell, q, sample).to_bits(),
                            "k {k}, batch {batch}, {cell} {q:?}"
                        );
                    }
                }
                for cell in (0..17).map(|c| CellId(c * 37)) {
                    for q in quantities {
                        assert_eq!(
                            flat.get(cell, q).map(f64::to_bits),
                            map.state.get(&(cell, q)).map(|f| f.to_bits()),
                            "k {k}, batch {batch}, {cell} {q:?}"
                        );
                    }
                }
            }
        }
    }

    fn cfg_with_higher_layer() -> CellConfig {
        let mut cfg = CellConfig::minimal(CellId(1), ChannelNumber::earfcn(850));
        cfg.serving.priority = 3;
        cfg.neighbor_freqs.push(NeighborFreqConfig::lte(9820, 5));
        cfg.neighbor_freqs.push(NeighborFreqConfig::lte(5110, 2));
        cfg
    }

    #[test]
    fn plan_obeys_eq1_thresholds() {
        let cfg = cfg_with_higher_layer();
        let mut rules = MeasurementRules::new();
        // Strong serving: no intra/non-intra measurement.
        let p = rules.plan(0, &cfg, -55.0);
        assert!(!p.intra && !p.nonintra);
        // Weak enough for intra only (Srxlev=52 ≤ 62, > 28).
        let p = rules.plan(1, &cfg, -70.0);
        assert!(p.intra && !p.nonintra);
        // Very weak: both.
        let p = rules.plan(2, &cfg, -100.0);
        assert!(p.intra && p.nonintra);
    }

    #[test]
    fn higher_priority_layers_scanned_periodically_even_when_strong() {
        let cfg = cfg_with_higher_layer();
        let mut rules = MeasurementRules::new();
        let p = rules.plan(0, &cfg, -55.0);
        assert_eq!(p.higher_priority_layers, vec![ChannelNumber::earfcn(9820)]);
        // Immediately after: not due again.
        let p = rules.plan(10, &cfg, -55.0);
        assert!(p.higher_priority_layers.is_empty());
        // After the interval: due again.
        let p = rules.plan(HIGHER_PRIORITY_MEAS_INTERVAL_MS + 10, &cfg, -55.0);
        assert_eq!(p.higher_priority_layers.len(), 1);
    }

    #[test]
    fn s_measure_gate_semantics() {
        assert!(s_measure_gate(None, -60.0), "absent gate always measures");
        assert!(s_measure_gate(Some(-97.0), -100.0));
        assert!(!s_measure_gate(Some(-97.0), -90.0));
    }

    #[test]
    fn efficiency_gaps_for_the_papers_common_instance() {
        // Θintra=62, Θnonintra=28, Θ(s)low=6: the paper calls the 56 dB
        // intra-decision gap "unnecessary measurement".
        let s = ServingConfig::default();
        let e = measurement_efficiency(&s);
        assert_eq!(e.intra_nonintra_gap_db, 34.0);
        assert_eq!(e.intra_decision_gap_db, 56.0);
        assert_eq!(e.nonintra_decision_gap_db, 22.0);
    }
}
