//! The drive-test runner: move a UE through a [`Network`], execute the full
//! configure→measure→report→decide→execute loop, and record every handoff
//! instance plus the throughput timeline — one run contributes rows to the
//! paper's dataset D1.

use crate::mobility::Mobility;
use crate::network::Network;
use crate::traffic::Traffic;
use mmcore::config::Quantity;
use mmcore::events::{DecisiveEvent, EventKind, ReportConfig};
use mmcore::kernel::sum_f64;
use mmcore::reselect::PriorityRelation;
use mmcore::ue::CellMeasurement;
use mmradio::cell::CellId;
use mmradio::geom::Point;
use mmsignaling::log::{Direction, LogEntry, SignalingLog};

/// How a handoff came about.
#[derive(Debug, Clone, PartialEq)]
pub enum HandoffKind {
    /// Network-commanded (active-state): the decisive report and timing.
    Active {
        /// The decisive event (with its parameters).
        decisive: EventKind,
        /// Quantity the decisive event used.
        quantity: Quantity,
        /// The full reporting configuration that fired.
        report_config: Option<ReportConfig>,
        /// When the decisive report was sent, ms.
        report_t_ms: u64,
        /// Report→command latency, ms.
        command_delay_ms: u64,
    },
    /// UE-autonomous (idle-state) reselection.
    Idle {
        /// Priority relation of the target layer (Fig 10's grouping).
        relation: PriorityRelation,
    },
}

/// One handoff instance — a row of dataset D1.
#[derive(Debug, Clone, PartialEq)]
pub struct HandoffRecord {
    /// Execution time, ms.
    pub t_ms: u64,
    /// Old serving cell.
    pub from: CellId,
    /// New serving cell.
    pub to: CellId,
    /// Active or idle, with details.
    pub kind: HandoffKind,
    /// Old cell's measured RSRP at execution, dBm.
    pub rsrp_old_dbm: f64,
    /// New cell's measured RSRP at execution, dBm.
    pub rsrp_new_dbm: f64,
    /// Old cell's measured RSRQ, dB.
    pub rsrq_old_db: f64,
    /// New cell's measured RSRQ, dB.
    pub rsrq_new_db: f64,
    /// Minimum 1-s throughput in the 10 s before the decisive report
    /// (active runs with rate traffic only), bit/s.
    pub min_thpt_before_bps: Option<f64>,
}

impl HandoffRecord {
    /// `δRSRP = RSRP_new − RSRP_old` (Fig 6).
    pub fn delta_rsrp_db(&self) -> f64 {
        self.rsrp_new_dbm - self.rsrp_old_dbm
    }

    /// `δRSRQ`.
    pub fn delta_rsrq_db(&self) -> f64 {
        self.rsrq_new_db - self.rsrq_old_db
    }

    /// The typed decisive event behind this handoff: the reporting event
    /// that triggered an active handoff, or [`DecisiveEvent::Idle`] for a
    /// reselection.
    pub fn decisive_event(&self) -> DecisiveEvent {
        match &self.kind {
            HandoffKind::Active { decisive, .. } => decisive.decisive(),
            HandoffKind::Idle { .. } => DecisiveEvent::Idle,
        }
    }

    /// The decisive event label ("A3", "A5", "P", or "idle") — always
    /// [`DecisiveEvent::label`], so it can't drift from the store registry.
    pub fn event_label(&self) -> &'static str {
        self.decisive_event().label()
    }
}

/// Parameters of one drive run.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveConfig {
    /// Mobility pattern.
    pub mobility: Mobility,
    /// Traffic (ignored for idle runs).
    pub traffic: Traffic,
    /// Run length, ms.
    pub duration_ms: u64,
    /// Measurement epoch, ms.
    pub epoch_ms: u64,
    /// Whether the UE is RRC-connected (active-state handoffs) or idle.
    pub active: bool,
    /// RNG seed for measurement noise and decision jitter.
    pub seed: u64,
}

impl DriveConfig {
    /// A standard active-state speedtest drive.
    pub fn active_speedtest(mobility: Mobility, duration_ms: u64, seed: u64) -> Self {
        DriveConfig {
            mobility,
            traffic: Traffic::Speedtest,
            duration_ms,
            epoch_ms: 100,
            active: true,
            seed,
        }
    }

    /// A standard idle drive (no traffic).
    pub fn idle(mobility: Mobility, duration_ms: u64, seed: u64) -> Self {
        DriveConfig {
            mobility,
            traffic: Traffic::Speedtest,
            duration_ms,
            epoch_ms: 200,
            active: false,
            seed,
        }
    }
}

/// A radio link failure: the serving link collapsed before any handoff
/// could rescue it — the paper's "handoff happens too late" disruption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RlfEvent {
    /// When T310 expired, ms.
    pub t_ms: u64,
    /// The failed serving cell.
    pub cell: CellId,
    /// Cell re-established on afterwards.
    pub reestablished_on: CellId,
}

/// Everything a drive run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveResult {
    /// All handoffs in execution order.
    pub handoffs: Vec<HandoffRecord>,
    /// Radio link failures (active runs).
    pub rlf_events: Vec<RlfEvent>,
    /// Per-epoch goodput, `(t_ms, bit/s)` (active runs).
    pub throughput: Vec<(u64, f64)>,
    /// Ping RTTs, `(t_ms, rtt_ms)`; `None` RTTs become dropped probes and
    /// are omitted.
    pub ping_rtts: Vec<(u64, f64)>,
    /// The device-side signaling capture.
    pub log: SignalingLog,
    /// Serving cell at the end of the run.
    pub final_serving: CellId,
}

impl DriveResult {
    /// Mean goodput over the run, bit/s.
    pub fn mean_throughput_bps(&self) -> f64 {
        if self.throughput.is_empty() {
            return 0.0;
        }
        sum_f64(self.throughput.iter().map(|&(_, b)| b)) / self.throughput.len() as f64
    }

    /// Throughput re-binned to `bin_ms` averages: `(bin_start_ms, bit/s)`.
    pub fn throughput_binned(&self, bin_ms: u64) -> Vec<(u64, f64)> {
        bin_series(&self.throughput, bin_ms)
    }
}

/// Average a `(t_ms, value)` series into `bin_ms` bins.
pub fn bin_series(series: &[(u64, f64)], bin_ms: u64) -> Vec<(u64, f64)> {
    let bin_ms = bin_ms.max(1);
    let mut out: Vec<(u64, f64, u32)> = Vec::new();
    for &(t, v) in series {
        let b = t / bin_ms * bin_ms;
        match out.last_mut() {
            Some((bt, sum, n)) if *bt == b => {
                *sum += v;
                *n += 1;
            }
            _ => out.push((b, v, 1)),
        }
    }
    out.into_iter()
        .map(|(b, sum, n)| (b, sum / f64::from(n)))
        .collect()
}

/// Minimum `bin_ms`-binned value of `series` inside `[start_ms, end_ms)`.
pub fn min_binned(series: &[(u64, f64)], start_ms: u64, end_ms: u64, bin_ms: u64) -> Option<f64> {
    let window: Vec<(u64, f64)> = series
        .iter()
        .copied()
        .filter(|(t, _)| (start_ms..end_ms).contains(t))
        .collect();
    bin_series(&window, bin_ms)
        .into_iter()
        .map(|(_, v)| v)
        .min_by(|a, b| a.total_cmp(b))
}

/// Strongest detectable cells at `pos`, as UE measurements (top `max`).
pub(crate) fn measure(
    network: &Network,
    pos: Point,
    rng: &mut impl mm_rng::Rng,
    max: usize,
) -> Vec<CellMeasurement> {
    network
        .deployment
        .measure_all(pos, rng)
        .into_iter()
        .take(max)
        .map(|m| {
            let channel = network
                .deployment
                .cell(m.cell)
                // mm-allow(E001): measure_all only reports cells that exist in the deployment
                .expect("measured cell exists")
                .channel;
            CellMeasurement {
                cell: m.cell,
                channel,
                rsrp_dbm: m.sample.rsrp.dbm(),
                rsrq_db: m.sample.rsrq.db(),
            }
        })
        .collect()
}

pub(crate) fn find(batch: &[CellMeasurement], cell: CellId) -> Option<&CellMeasurement> {
    batch.iter().find(|m| m.cell == cell)
}

/// Histogram bounds for report→command latency (the paper observes
/// 80–230 ms).
const COMMAND_DELAY_BOUNDS_MS: [u64; 5] = [80, 120, 160, 200, 240];

/// Flush one finished drive's counts into the `netsim` telemetry section.
/// Everything recorded here is `Scope::Sim`: derived from the simulation
/// alone, never from the host scheduler.
pub(crate) fn record_drive_telemetry(
    handoffs: &[HandoffRecord],
    rlf_events: &[RlfEvent],
    reports_sent: u64,
    sim_ms: u64,
) {
    let reg = mm_telemetry::global();
    let mut by_label: std::collections::BTreeMap<&'static str, u64> = Default::default();
    let delay_hist = reg.histogram("netsim", "command_delay_ms", &COMMAND_DELAY_BOUNDS_MS);
    for rec in handoffs {
        *by_label.entry(rec.event_label()).or_default() += 1;
        if let HandoffKind::Active {
            command_delay_ms, ..
        } = rec.kind
        {
            delay_hist.record(command_delay_ms);
        }
    }
    for (label, n) in by_label {
        reg.counter(
            "netsim",
            &format!("handoffs_{}", label.to_ascii_lowercase()),
        )
        .add(n);
    }
    reg.counter("netsim", "rlf_events")
        .add(rlf_events.len() as u64);
    reg.counter("netsim", "reports_sent").add(reports_sent);
    reg.counter("netsim", "sim_ms_stepped").add(sim_ms);
}

/// Log the SIB broadcast of a (new) serving cell, as the crawler would see.
pub(crate) fn log_broadcast(log: &mut SignalingLog, t_ms: u64, network: &Network, cell: CellId) {
    for msg in mmsignaling::messages::broadcast(network.config(cell)) {
        log.push(LogEntry {
            t_ms,
            direction: Direction::Downlink,
            serving: cell,
            message: msg,
        });
    }
}

/// Run one drive test.
///
/// The UE attaches to the strongest cell at the route start and then follows
/// the full policy loop. Returns `None` if no cell is detectable at the
/// start.
///
/// This is the single-UE call: it runs the discrete-event
/// [`crate::sched::Engine`] with one full-collection UE, and its output is
/// byte-identical to the historical per-tick loop. Multi-UE and tally-mode
/// runs drive the engine directly.
pub fn drive(network: &Network, cfg: &DriveConfig) -> Option<DriveResult> {
    let _span = mm_telemetry::global().span("netsim", "drive");
    let outcome = crate::sched::Engine::new(network).run(std::slice::from_ref(cfg));
    crate::sched::record_engine_stats(&outcome.stats);
    let run = outcome
        .ues
        .into_iter()
        .next()
        .flatten()?
        .into_full()
        // mm-allow(E001): Engine::new collects CollectMode::Full
        .expect("full collection mode");
    run.record_telemetry();
    Some(run.result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::CITY_SPEED_MPS;
    use mmcore::config::CellConfig;
    use mmcore::events::ReportConfig;
    use mmradio::band::ChannelNumber;
    use mmradio::cell::{cell, Deployment};
    use mmradio::propagation::{Environment, PropagationModel};
    use std::collections::BTreeMap;

    /// Two-cell corridor: drive from under cell 1 to under cell 2.
    fn corridor(a3_offset: f64) -> Network {
        let chan = ChannelNumber::earfcn(850);
        let deployment = Deployment::new(
            vec![
                cell(1, 0.0, 0.0, chan, 46.0),
                cell(2, 3000.0, 0.0, chan, 46.0),
            ],
            PropagationModel::new(Environment::Urban, 7),
        );
        let mut configs = BTreeMap::new();
        for id in [1u32, 2] {
            let mut c = CellConfig::minimal(CellId(id), chan);
            c.report_configs.push(ReportConfig::a3(a3_offset));
            configs.insert(CellId(id), c);
        }
        Network::new(deployment, configs)
    }

    fn corridor_drive(seed: u64) -> DriveConfig {
        DriveConfig::active_speedtest(
            Mobility::straight_line(50.0, 3000.0, CITY_SPEED_MPS),
            300_000,
            seed,
        )
    }

    #[test]
    fn driving_between_cells_hands_off_via_a3() {
        let network = corridor(3.0);
        let result = drive(&network, &corridor_drive(1)).expect("attaches");
        assert!(
            !result.handoffs.is_empty(),
            "must hand off along the corridor"
        );
        let h = &result.handoffs[0];
        assert_eq!(h.event_label(), "A3");
        assert_eq!(h.from, CellId(1));
        assert_eq!(h.to, CellId(2));
        assert_eq!(result.final_serving, CellId(2));
    }

    #[test]
    fn a3_handoff_mostly_improves_rsrp() {
        let network = corridor(3.0);
        let mut improved = 0;
        let mut total = 0;
        for seed in 0..10 {
            let r = drive(&network, &corridor_drive(seed)).unwrap();
            for h in &r.handoffs {
                total += 1;
                if h.delta_rsrp_db() > 0.0 {
                    improved += 1;
                }
            }
        }
        assert!(total >= 10, "got {total}");
        assert!(improved as f64 / total as f64 > 0.7, "{improved}/{total}");
    }

    #[test]
    fn report_to_command_delay_within_paper_bounds() {
        let network = corridor(3.0);
        let r = drive(&network, &corridor_drive(2)).unwrap();
        for h in &r.handoffs {
            if let HandoffKind::Active {
                command_delay_ms,
                report_t_ms,
                ..
            } = h.kind
            {
                assert!((80..=230).contains(&command_delay_ms));
                assert!(h.t_ms >= report_t_ms + command_delay_ms);
                // Executed at the first epoch ≥ exec time.
                assert!(h.t_ms < report_t_ms + command_delay_ms + 200);
            } else {
                panic!("active run produced an idle record");
            }
        }
    }

    #[test]
    fn larger_a3_offset_defers_handoff_and_hurts_throughput() {
        let early = corridor(3.0);
        let late = corridor(12.0);
        let mut early_min = Vec::new();
        let mut late_min = Vec::new();
        for seed in 0..8 {
            if let Some(r) = drive(&early, &corridor_drive(seed)) {
                early_min.extend(r.handoffs.iter().filter_map(|h| h.min_thpt_before_bps));
            }
            if let Some(r) = drive(&late, &corridor_drive(seed)) {
                late_min.extend(r.handoffs.iter().filter_map(|h| h.min_thpt_before_bps));
            }
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(!early_min.is_empty() && !late_min.is_empty());
        assert!(
            avg(&late_min) < avg(&early_min),
            "∆A3=12 should see lower pre-handoff throughput: {} vs {}",
            avg(&late_min),
            avg(&early_min)
        );
    }

    #[test]
    fn idle_drive_reselects() {
        let network = corridor(3.0);
        let cfg = DriveConfig::idle(
            Mobility::straight_line(50.0, 3000.0, CITY_SPEED_MPS),
            300_000,
            5,
        );
        let r = drive(&network, &cfg).expect("attaches");
        assert!(!r.handoffs.is_empty());
        assert_eq!(r.handoffs[0].event_label(), "idle");
        assert!(r.throughput.is_empty(), "idle runs carry no traffic");
        assert_eq!(r.final_serving, CellId(2));
    }

    #[test]
    fn signaling_log_contains_sibs_and_reports() {
        let network = corridor(3.0);
        let r = drive(&network, &corridor_drive(3)).unwrap();
        assert!(r.log.sibs(1).count() >= 2, "SIB1 of both serving cells");
        assert!(r.log.measurement_reports().count() >= 1);
    }

    #[test]
    fn route_without_a_detectable_cell_does_not_attach() {
        // A route far outside the deployment: nothing detectable.
        let network = corridor(3.0);
        let cfg =
            DriveConfig::active_speedtest(Mobility::straight_line(9.0e7, 9.0e7, 1.0), 1_000, 0);
        assert!(drive(&network, &cfg).is_none());
    }

    #[test]
    fn runs_are_deterministic_in_seed() {
        let network = corridor(3.0);
        let a = drive(&network, &corridor_drive(11)).unwrap();
        let b = drive(&network, &corridor_drive(11)).unwrap();
        assert_eq!(a, b);
        let c = drive(&network, &corridor_drive(12)).unwrap();
        assert!(a.handoffs != c.handoffs || a.throughput != c.throughput);
    }

    #[test]
    fn bin_series_averages() {
        let s = vec![(0, 1.0), (100, 2.0), (900, 3.0), (1000, 10.0)];
        let b = bin_series(&s, 1000);
        assert_eq!(b, vec![(0, 2.0), (1000, 10.0)]);
    }

    #[test]
    fn min_binned_respects_window() {
        let s: Vec<(u64, f64)> = (0..50).map(|i| (i * 100, f64::from(i as u32))).collect();
        let m = min_binned(&s, 1000, 3000, 1000).unwrap();
        // Bins [1000,2000) avg 14.5 and [2000,3000) avg 24.5 → min 14.5.
        assert!((m - 14.5).abs() < 1e-9, "{m}");
        assert!(min_binned(&s, 10_000, 20_000, 1000).is_none());
    }

    #[test]
    fn throughput_drops_during_interruption() {
        let network = corridor(3.0);
        let r = drive(&network, &corridor_drive(4)).unwrap();
        let h = &r.handoffs[0];
        let during: Vec<f64> = r
            .throughput
            .iter()
            .filter(|(t, _)| *t >= h.t_ms && *t < h.t_ms + network.policy.interruption_ms)
            .map(|(_, b)| *b)
            .collect();
        assert!(during.iter().all(|b| *b == 0.0), "{during:?}");
    }
}

#[cfg(test)]
mod rlf_tests {
    use super::*;
    use crate::mobility::CITY_SPEED_MPS;
    use mmcore::config::CellConfig;
    use mmcore::events::ReportConfig;
    use mmradio::band::ChannelNumber;
    use mmradio::cell::{cell, Deployment};
    use mmradio::propagation::{Environment, PropagationModel};
    use std::collections::BTreeMap;

    /// A corridor whose cells only hand off at an absurd 25 dB A3 offset —
    /// handoffs come far too late, so the link collapses first.
    fn late_handoff_network() -> Network {
        let chan = ChannelNumber::earfcn(850);
        let deployment = Deployment::new(
            vec![
                cell(1, 0.0, 0.0, chan, 46.0),
                cell(2, 4_000.0, 0.0, chan, 46.0),
            ],
            PropagationModel::new(Environment::Urban, 3),
        );
        let mut configs = BTreeMap::new();
        for id in [1u32, 2] {
            let mut c = CellConfig::minimal(CellId(id), chan);
            c.report_configs.push(ReportConfig::a3(25.0));
            configs.insert(CellId(id), c);
        }
        Network::new(deployment, configs)
    }

    #[test]
    fn too_late_handoffs_cause_rlf() {
        let network = late_handoff_network();
        let cfg = DriveConfig::active_speedtest(
            Mobility::straight_line(40.0, 4_000.0, CITY_SPEED_MPS),
            500_000,
            4,
        );
        let r = drive(&network, &cfg).expect("attaches");
        assert!(
            !r.rlf_events.is_empty(),
            "a 25 dB offset must strand the UE on a collapsing link"
        );
        let rlf = &r.rlf_events[0];
        assert_eq!(rlf.cell, CellId(1));
        assert_eq!(rlf.reestablished_on, CellId(2));
        // Outage: throughput zero through the re-establishment window.
        let outage: Vec<f64> = r
            .throughput
            .iter()
            .filter(|(t, _)| *t >= rlf.t_ms && *t < rlf.t_ms + network.policy.rlf_reestablish_ms)
            .map(|(_, b)| *b)
            .collect();
        assert!(!outage.is_empty() && outage.iter().all(|b| *b == 0.0));
    }

    #[test]
    fn timely_handoffs_avoid_rlf() {
        // Same corridor but a sane 3 dB offset: handoff precedes collapse.
        let chan = ChannelNumber::earfcn(850);
        let deployment = Deployment::new(
            vec![
                cell(1, 0.0, 0.0, chan, 46.0),
                cell(2, 4_000.0, 0.0, chan, 46.0),
            ],
            PropagationModel::new(Environment::Urban, 3),
        );
        let mut configs = BTreeMap::new();
        for id in [1u32, 2] {
            let mut c = CellConfig::minimal(CellId(id), chan);
            c.report_configs.push(ReportConfig::a3(3.0));
            configs.insert(CellId(id), c);
        }
        let network = Network::new(deployment, configs);
        let cfg = DriveConfig::active_speedtest(
            Mobility::straight_line(40.0, 4_000.0, CITY_SPEED_MPS),
            500_000,
            4,
        );
        let r = drive(&network, &cfg).expect("attaches");
        assert!(!r.handoffs.is_empty());
        assert!(r.rlf_events.is_empty(), "{:?}", r.rlf_events);
    }
}
