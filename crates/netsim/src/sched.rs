//! The discrete-event multi-UE simulation engine (DESIGN.md §12).
//!
//! One [`Engine`] owns a time-indexed event queue — a binary min-heap keyed
//! `(t_ms, seq, ue)` — over which every UE of one shard interleaves its
//! measurement epochs, control-plane work (TTT state machines, handoff
//! command delays, RLF timers) and traffic ticks. Each simulated epoch of a
//! UE is a chain of three events at the same timestamp:
//!
//! 1. [`Phase::Measure`] — move along the route, take one radio survey and
//!    sample the top-16 cells from it (this is the UE's only RNG draw site
//!    besides handoff-delay jitter), plus the serving cell's SINR;
//! 2. [`Phase::Control`] — radio-link monitoring, pending-command
//!    execution, measurement reporting and the network's handoff decision
//!    (active UEs), or reselection (idle UEs);
//! 3. [`Phase::Traffic`] — the data plane (active UEs only), which then
//!    schedules the next epoch's `Measure`.
//!
//! Determinism rules: `seq` is assigned monotonically at push time, so the
//! pop order is a pure function of the push sequence, which is itself a
//! pure function of the configs — no wall clocks, no thread identity.
//! Because each UE draws from its own `stream_rng(seed, "drv")` stream and
//! never reads another UE's state, the per-UE event sequence is identical
//! whether the engine runs one UE or a hundred thousand: the single-UE
//! [`crate::run::drive`] path is the `cfgs.len() == 1` special case of this
//! engine and stays byte-identical to the historical per-tick loop.
//!
//! Records: [`Engine::run`] hands every event of a UE to that UE's
//! [`UeRecord`], and the record type decides what survives.
//! [`DriveResult`] keeps every series and the signaling log;
//! [`UeTally`] folds the UE into *integer* counters as it goes — integer,
//! because u64 sums are associative, which is what lets fleet shards merge
//! in any grouping and still produce byte-identical output for every shard
//! count and `MM_THREADS`.

use crate::link::LinkModel;
use crate::network::Network;
use crate::run::{
    log_broadcast, measure, min_binned, DriveConfig, DriveResult, HandoffKind, HandoffRecord,
    RlfEvent,
};
use mm_rng::{stream_rng, SmallRng};
use mmcore::config::Quantity;
use mmcore::events::{EventKind, MeasurementReportContent};
use mmcore::handoff::decide;
use mmcore::ue::{CellMeasurement, ConnectedUe, IdleUe};
use mmradio::cell::CellId;
use mmradio::geom::Point;
use mmradio::signal::Sinr;
use mmsignaling::log::{Direction, LogEntry};
use mmsignaling::messages::RrcMessage;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The three event phases of one simulated epoch, in intra-tick order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    /// Sample the radio environment at the UE's current position.
    Measure,
    /// Control plane: RLF timers, command execution, reports, decisions.
    Control,
    /// Data plane tick (active UEs), then schedule the next epoch.
    Traffic,
}

/// One scheduled event. Field order is the sort key: time first, then the
/// monotonic push sequence (which already encodes ue/phase priority), so
/// `derive(Ord)` gives the deterministic `(t_ms, seq, ue)` ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    t_ms: u64,
    seq: u64,
    ue: u32,
    phase: Phase,
}

/// Min-heap event queue with monotonic sequence numbers and depth tracking.
struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    max_depth: usize,
    processed: u64,
}

impl EventQueue {
    fn new() -> EventQueue {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            max_depth: 0,
            processed: 0,
        }
    }

    fn push(&mut self, t_ms: u64, ue: u32, phase: Phase) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Event {
            t_ms,
            seq,
            ue,
            phase,
        }));
        self.max_depth = self.max_depth.max(self.heap.len());
    }

    fn pop(&mut self) -> Option<Event> {
        let Reverse(ev) = self.heap.pop()?;
        self.processed += 1;
        Some(ev)
    }
}

/// What the engine keeps of one UE. [`Engine::run`] hands the record each
/// event of the UE's run in the order it happens; the record keeps what it
/// needs and drops the rest.
pub trait UeRecord {
    /// A record for a UE that attached to `initial` at time 0.
    fn attach(initial: CellId) -> Self;
    /// `cell` started serving at `t_ms` (attach, handoff, reselection or
    /// re-establishment), and the UE read its SIB broadcast.
    fn broadcast(&mut self, t_ms: u64, network: &Network, cell: CellId);
    /// The UE sent `report` to its serving cell.
    fn report(&mut self, t_ms: u64, serving: CellId, report: &MeasurementReportContent);
    /// A handoff or reselection executed. The engine leaves
    /// `min_thpt_before_bps` at `None`: it derives from the throughput
    /// series, which only a record that keeps it can fill in.
    fn handoff(&mut self, rec: HandoffRecord);
    /// The serving link failed and was re-established.
    fn rlf(&mut self, rlf: RlfEvent);
    /// One data-plane goodput sample, bit/s.
    fn throughput(&mut self, t_ms: u64, bps: f64);
    /// One answered ping, ms.
    fn rtt(&mut self, t_ms: u64, rtt_ms: f64);
    /// The run is over after `sim_ms` simulated milliseconds, with
    /// `final_serving` serving.
    fn finish(&mut self, sim_ms: u64, final_serving: CellId);
}

/// The full record: every series plus the signaling log, which is what
/// [`crate::run::drive`] and the campaigns need.
impl UeRecord for DriveResult {
    fn attach(initial: CellId) -> DriveResult {
        DriveResult {
            final_serving: initial,
            ..DriveResult::default()
        }
    }

    fn broadcast(&mut self, t_ms: u64, network: &Network, cell: CellId) {
        log_broadcast(&mut self.log, t_ms, network, cell);
    }

    fn report(&mut self, t_ms: u64, serving: CellId, report: &MeasurementReportContent) {
        self.reports_sent += 1;
        self.log.push(LogEntry {
            t_ms,
            direction: Direction::Uplink,
            serving,
            message: RrcMessage::MeasurementReport {
                content: report.clone(),
            },
        });
    }

    fn handoff(&mut self, mut rec: HandoffRecord) {
        if let HandoffKind::Active { report_t_ms, .. } = rec.kind {
            rec.min_thpt_before_bps = min_binned(
                &self.throughput,
                report_t_ms.saturating_sub(10_000),
                report_t_ms,
                1_000,
            );
            self.log.push(LogEntry {
                t_ms: rec.t_ms,
                direction: Direction::Downlink,
                serving: rec.from,
                message: RrcMessage::MobilityCommand { target: rec.to },
            });
        }
        self.handoffs.push(rec);
    }

    fn rlf(&mut self, rlf: RlfEvent) {
        self.rlf_events.push(rlf);
    }

    fn throughput(&mut self, t_ms: u64, bps: f64) {
        self.throughput.push((t_ms, bps));
    }

    fn rtt(&mut self, t_ms: u64, rtt_ms: f64) {
        self.ping_rtts.push((t_ms, rtt_ms));
    }

    fn finish(&mut self, sim_ms: u64, final_serving: CellId) {
        self.sim_ms = sim_ms;
        self.final_serving = final_serving;
    }
}

/// Integer per-UE summary of a drive — every accumulator is a `u64`
/// (throughput truncated to whole bit/s per sample, RTT to whole µs), so
/// sums merge associatively across shards ([`UeTally::merge`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UeTally {
    /// Handoffs indexed by [`DecisiveEvent::code`].
    pub handoffs_by_event: [u64; 10],
    /// Radio link failures.
    pub rlf_events: u64,
    /// Measurement reports sent.
    pub reports_sent: u64,
    /// Simulated milliseconds stepped.
    pub sim_ms: u64,
    /// Data-plane samples taken.
    pub throughput_samples: u64,
    /// Sum of per-sample goodput, whole bit/s each.
    pub throughput_bps_sum: u64,
    /// Ping probes answered.
    pub rtt_samples: u64,
    /// Sum of RTTs, whole microseconds each.
    pub rtt_us_sum: u64,
    /// Serving cell at the end of the run.
    pub final_serving: CellId,
}

impl UeTally {
    /// Add `other`'s counters into this tally, field by field — the one
    /// merge every shard fold uses. `final_serving` is per-UE state, not a
    /// counter, and keeps this tally's value.
    pub fn merge(&mut self, other: &UeTally) {
        for (a, b) in self
            .handoffs_by_event
            .iter_mut()
            .zip(other.handoffs_by_event)
        {
            *a += b;
        }
        self.rlf_events += other.rlf_events;
        self.reports_sent += other.reports_sent;
        self.sim_ms += other.sim_ms;
        self.throughput_samples += other.throughput_samples;
        self.throughput_bps_sum += other.throughput_bps_sum;
        self.rtt_samples += other.rtt_samples;
        self.rtt_us_sum += other.rtt_us_sum;
    }

    /// Total handoffs across every decisive event.
    pub fn handoffs(&self) -> u64 {
        self.handoffs_by_event.iter().sum()
    }
}

/// The tally record: O(1) memory per UE, associatively mergeable.
impl UeRecord for UeTally {
    fn attach(initial: CellId) -> UeTally {
        UeTally {
            final_serving: initial,
            ..UeTally::default()
        }
    }

    fn broadcast(&mut self, _: u64, _: &Network, _: CellId) {}

    fn report(&mut self, _: u64, _: CellId, _: &MeasurementReportContent) {
        self.reports_sent += 1;
    }

    fn handoff(&mut self, rec: HandoffRecord) {
        let k = rec.decisive_event().code() as usize;
        if let Some(n) = self.handoffs_by_event.get_mut(k) {
            *n += 1;
        }
    }

    fn rlf(&mut self, _: RlfEvent) {
        self.rlf_events += 1;
    }

    fn throughput(&mut self, _: u64, bps: f64) {
        self.throughput_samples += 1;
        self.throughput_bps_sum += bps as u64;
    }

    fn rtt(&mut self, _: u64, rtt_ms: f64) {
        self.rtt_samples += 1;
        self.rtt_us_sum += (rtt_ms * 1000.0) as u64;
    }

    fn finish(&mut self, sim_ms: u64, final_serving: CellId) {
        self.sim_ms = sim_ms;
        self.final_serving = final_serving;
    }
}

/// Event-queue accounting of one engine run. `events_processed` is a pure
/// function of the configs (Sim-scope: invariant to threads and sharding);
/// `max_queue_depth` depends on how many UEs share the queue (Sched-scope).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events popped over the whole run.
    pub events_processed: u64,
    /// High-water mark of the queue depth.
    pub max_queue_depth: u64,
}

impl EngineStats {
    /// Fold another engine's accounting into this one (shard merge).
    pub fn merge(&mut self, other: &EngineStats) {
        self.events_processed += other.events_processed;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
    }
}

/// Everything one engine run produced: per-UE records in config order
/// (`None` where no cell was detectable at the route start) plus the queue
/// accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOutcome<R> {
    /// Per-UE records, index-aligned with the input configs.
    pub ues: Vec<Option<R>>,
    /// Event-queue accounting.
    pub stats: EngineStats,
}

/// Histogram bounds for the shared-queue depth high-water mark.
const QUEUE_DEPTH_BOUNDS: [u64; 10] = [1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144];

/// Flush one engine run's queue accounting into the `sched` telemetry
/// section. `events_processed` is Sim-scoped (a pure function of the
/// simulated work); the depth watermark is Sched-scoped (it depends on how
/// the work was sharded) and therefore excluded from deterministic
/// snapshots.
pub fn record_engine_stats(stats: &EngineStats) {
    let reg = mm_telemetry::global();
    reg.counter("sched", "events_processed")
        .add(stats.events_processed);
    reg.histogram_scoped(
        "sched",
        "queue_depth_max",
        mm_telemetry::Scope::Sched,
        &QUEUE_DEPTH_BOUNDS,
    )
    .record(stats.max_queue_depth);
}

/// A UE's RRC state machine, fixed at attach by [`DriveConfig::active`].
enum Radio {
    /// RRC-connected: network-commanded handoffs, with traffic.
    Connected(ConnectedUe),
    /// RRC-idle: UE-autonomous reselection, no traffic.
    Idle(IdleUe),
}

impl Radio {
    fn serving(&self) -> CellId {
        match self {
            Radio::Connected(ue) => ue.serving(),
            Radio::Idle(ue) => ue.serving(),
        }
    }
}

/// Live state of one UE between events.
struct UeState<R> {
    rng: SmallRng,
    radio: Radio,
    pos: Point,
    batch: Vec<CellMeasurement>,
    /// A connected UE's serving cell and its SINR at `pos`, from the
    /// epoch's survey (see [`serving_sinr`]).
    sinr: Option<(CellId, Sinr)>,
    /// Pending network handoff command: `(exec_t, target, decisive,
    /// quantity, report_t, delay)`.
    pending: Option<(u64, CellId, EventKind, Quantity, u64, u64)>,
    interruption_until: u64,
    /// Ping-pong suppression: the network ignores reports until the UE has
    /// dwelled `min_dwell_ms` on its serving cell.
    last_handoff_t: Option<u64>,
    /// RLF tracking: when the serving SINR first went below Qout.
    out_of_sync_since: Option<u64>,
    sim_ms: u64,
    record: R,
}

impl<R: UeRecord> UeState<R> {
    /// Attach at the route start; `None` if no cell is detectable there.
    fn attach(network: &Network, cfg: &DriveConfig) -> Option<UeState<R>> {
        let rng = stream_rng(cfg.seed, 0x647276); // "drv"
        let start = cfg.mobility.position(0.0);
        let (initial, _) = network.deployment.strongest(start, None)?;
        let mut record = R::attach(initial);
        record.broadcast(0, network, initial);
        let config = network.config(initial).clone();
        let radio = if cfg.active {
            Radio::Connected(ConnectedUe::new(config))
        } else {
            Radio::Idle(IdleUe::new(config))
        };
        Some(UeState {
            rng,
            radio,
            pos: start,
            batch: Vec::new(),
            sinr: None,
            pending: None,
            interruption_until: 0,
            last_handoff_t: None,
            out_of_sync_since: None,
            sim_ms: 0,
            record,
        })
    }

    fn finish(mut self) -> R {
        self.record.finish(self.sim_ms, self.radio.serving());
        self.record
    }
}

/// The multi-UE discrete-event engine over one [`Network`].
#[derive(Debug, Clone, Copy)]
pub struct Engine<'n> {
    network: &'n Network,
}

impl<'n> Engine<'n> {
    /// An engine over `network`.
    pub fn new(network: &'n Network) -> Engine<'n> {
        Engine { network }
    }

    /// Run every config's UE to completion over one shared event queue,
    /// keeping an `R` of each.
    ///
    /// Panics if any config has a zero `epoch_ms` (the historical loop
    /// would spin forever on it) or if more than `u32::MAX` UEs are asked
    /// for in one shard.
    pub fn run<R: UeRecord>(&self, cfgs: &[DriveConfig]) -> EngineOutcome<R> {
        assert!(u32::try_from(cfgs.len()).is_ok(), "too many UEs per shard");
        let mut queue = EventQueue::new();
        let mut ues: Vec<Option<UeState<R>>> = Vec::with_capacity(cfgs.len());
        for (i, cfg) in cfgs.iter().enumerate() {
            assert!(cfg.epoch_ms > 0, "epoch_ms must be positive");
            let st = UeState::attach(self.network, cfg);
            if st.is_some() && cfg.duration_ms > 0 {
                queue.push(0, i as u32, Phase::Measure);
            }
            ues.push(st);
        }
        while let Some(ev) = queue.pop() {
            // Only attached UEs ever get events scheduled, so both lookups
            // always succeed; the guarded form keeps a corrupt queue from
            // panicking mid-fleet.
            let (Some(cfg), Some(st)) = (
                cfgs.get(ev.ue as usize),
                ues.get_mut(ev.ue as usize).and_then(|slot| slot.as_mut()),
            ) else {
                continue;
            };
            match ev.phase {
                Phase::Measure => {
                    st.pos = cfg.mobility.position(ev.t_ms as f64 / 1000.0);
                    let survey = self.network.deployment.survey(st.pos);
                    st.batch = measure(&survey, &mut st.rng, 16);
                    st.sinr = match &st.radio {
                        Radio::Connected(ue) => {
                            let serving = ue.serving();
                            survey.sinr(serving).map(|sinr| (serving, sinr))
                        }
                        Radio::Idle(_) => None,
                    };
                    queue.push(ev.t_ms, ev.ue, Phase::Control);
                }
                Phase::Control => {
                    self.control(st, ev.t_ms);
                    match st.radio {
                        Radio::Connected(_) => queue.push(ev.t_ms, ev.ue, Phase::Traffic),
                        Radio::Idle(_) => schedule_next(&mut queue, cfg, &mut st.sim_ms, ev),
                    }
                }
                Phase::Traffic => {
                    self.traffic(cfg, st, ev.t_ms);
                    schedule_next(&mut queue, cfg, &mut st.sim_ms, ev);
                }
            }
        }
        EngineOutcome {
            ues: ues.into_iter().map(|st| st.map(UeState::finish)).collect(),
            stats: EngineStats {
                events_processed: queue.processed,
                max_queue_depth: queue.max_depth as u64,
            },
        }
    }

    /// Control-plane work of one epoch — a statement-for-statement
    /// transplant of the historical per-tick loop body, so the per-UE
    /// output is byte-identical.
    fn control<R: UeRecord>(&self, st: &mut UeState<R>, t: u64) {
        let network = self.network;
        let serving = st.radio.serving();
        match &mut st.radio {
            Radio::Connected(ue) => {
                // Radio link monitoring (TS 36.133): T310 expiry declares
                // RLF, drops any pending command, and re-establishes on the
                // strongest cell after an outage.
                if t >= st.interruption_until {
                    let sinr = serving_sinr(&mut st.sinr, network, ue.serving(), st.pos);
                    if sinr.0 < network.policy.rlf_qout_sinr_db {
                        let since = *st.out_of_sync_since.get_or_insert(t);
                        if t.saturating_sub(since) >= network.policy.rlf_t310_ms {
                            let target = network
                                .deployment
                                .strongest(st.pos, None)
                                .map(|(c, _)| c)
                                .filter(|c| network.configs.contains_key(c))
                                .unwrap_or_else(|| ue.serving());
                            st.record.rlf(RlfEvent {
                                t_ms: t,
                                cell: ue.serving(),
                                reestablished_on: target,
                            });
                            ue.apply_handoff(network.config(target).clone());
                            st.record.broadcast(t, network, target);
                            st.interruption_until = t + network.policy.rlf_reestablish_ms;
                            st.last_handoff_t = Some(t);
                            st.pending = None;
                            st.out_of_sync_since = None;
                        }
                    } else {
                        st.out_of_sync_since = None;
                    }
                }

                // Execute a due handoff command first.
                if let Some((exec_t, target, decisive, quantity, report_t, delay)) = st.pending {
                    if t >= exec_t {
                        let kind = HandoffKind::Active {
                            decisive,
                            quantity,
                            report_config: network
                                .config(serving)
                                .report_configs
                                .iter()
                                .find(|rc| rc.event == decisive)
                                .copied(),
                            report_t_ms: report_t,
                            command_delay_ms: delay,
                        };
                        st.record
                            .handoff(handoff_record(&st.batch, t, serving, target, kind));
                        ue.apply_handoff(network.config(target).clone());
                        st.record.broadcast(t, network, target);
                        st.interruption_until = t + network.policy.interruption_ms;
                        st.last_handoff_t = Some(t);
                        st.pending = None;
                    }
                }

                let dwell_ok = st
                    .last_handoff_t
                    .is_none_or(|lh| t.saturating_sub(lh) >= network.policy.min_dwell_ms);
                if st.pending.is_none() {
                    for report in ue.step(t, &st.batch) {
                        st.record.report(t, ue.serving(), &report);
                        if st.pending.is_none() && dwell_ok {
                            if let Some(d) = decide(
                                network.config(ue.serving()),
                                &network.policy,
                                &report,
                                &mut st.rng,
                            ) {
                                // Only admissible if the target is deployed here.
                                if network.configs.contains_key(&d.target) {
                                    st.pending = Some((
                                        t + d.command_delay_ms,
                                        d.target,
                                        d.decisive_event,
                                        report.quantity,
                                        t,
                                        d.command_delay_ms,
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            Radio::Idle(ue) => {
                if let Some(sel) = ue.step(t, &st.batch) {
                    let kind = HandoffKind::Idle {
                        relation: sel.relation,
                    };
                    st.record
                        .handoff(handoff_record(&st.batch, t, serving, sel.target, kind));
                    ue.apply_reselection(network.config(sel.target).clone());
                    st.record.broadcast(t, network, sel.target);
                }
            }
        }
    }

    /// Data-plane tick of one epoch (active UEs; uses post-handoff serving).
    fn traffic<R: UeRecord>(&self, cfg: &DriveConfig, st: &mut UeState<R>, t: u64) {
        let network = self.network;
        let serving = st.radio.serving();
        let in_interruption = t < st.interruption_until;
        let bps = if in_interruption {
            0.0
        } else {
            // mm-allow(E001): the serving cell was handed off from this same deployment
            let cell = network.deployment.cell(serving).expect("serving deployed");
            let sinr = serving_sinr(&mut st.sinr, network, serving, st.pos);
            let link = LinkModel::for_rat(cell.rat());
            cfg.traffic
                .goodput_bps(link.throughput_bps(sinr, cell.load))
        };
        st.record.throughput(t, bps);
        if cfg.traffic.ping_due(t, cfg.epoch_ms) && !in_interruption {
            // mm-allow(E001): the serving cell was handed off from this same deployment
            let cell = network.deployment.cell(serving).expect("serving deployed");
            let sinr = serving_sinr(&mut st.sinr, network, serving, st.pos);
            if let Some(rtt) = LinkModel::for_rat(cell.rat()).rtt_ms(sinr) {
                st.record.rtt(t, rtt);
            }
        }
    }
}

/// A handoff from `from` to `to` at `t_ms`, with both cells' measurements
/// from the epoch's `batch` (-140 dBm and -19.5 dB for a cell it lacks).
fn handoff_record(
    batch: &[CellMeasurement],
    t_ms: u64,
    from: CellId,
    to: CellId,
    kind: HandoffKind,
) -> HandoffRecord {
    let find = |cell: CellId| batch.iter().find(|m| m.cell == cell);
    let (old, new) = (find(from), find(to));
    HandoffRecord {
        t_ms,
        from,
        to,
        kind,
        rsrp_old_dbm: old.map_or(-140.0, |m| m.rsrp_dbm),
        rsrp_new_dbm: new.map_or(-140.0, |m| m.rsrp_dbm),
        rsrq_old_db: old.map_or(-19.5, |m| m.rsrq_db),
        rsrq_new_db: new.map_or(-19.5, |m| m.rsrq_db),
        min_thpt_before_bps: None,
    }
}

/// The SINR of `serving` at the epoch's position `pos`: the pair Measure
/// stored in `stored`, unless a handoff or RLF has changed the serving cell
/// since, in which case it is computed afresh and stored in its place.
fn serving_sinr(
    stored: &mut Option<(CellId, Sinr)>,
    network: &Network,
    serving: CellId,
    pos: Point,
) -> Sinr {
    match *stored {
        Some((cell, sinr)) if cell == serving => sinr,
        _ => {
            let sinr = network
                .deployment
                .sinr(serving, pos)
                // mm-allow(E001): the serving cell was handed off from this same deployment
                .expect("serving deployed");
            *stored = Some((serving, sinr));
            sinr
        }
    }
}

/// Advance one UE to its next epoch, or retire it when the run is over.
/// The end time mirrors the historical loop: the first epoch multiple at
/// or past `duration_ms` (zero when the duration is zero). An end time
/// past `u64::MAX` retires the UE with `sim_ms` at `u64::MAX`; wrapping
/// would re-run it from an earlier time.
fn schedule_next(queue: &mut EventQueue, cfg: &DriveConfig, sim_ms: &mut u64, ev: Event) {
    let next = ev.t_ms.checked_add(cfg.epoch_ms);
    *sim_ms = next.unwrap_or(u64::MAX);
    if let Some(next) = next.filter(|&next| next < cfg.duration_ms) {
        queue.push(next, ev.ue, Phase::Measure);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::{Mobility, CITY_SPEED_MPS};
    use crate::traffic::Traffic;
    use mm_rng::Rng;
    use mmcore::config::CellConfig;
    use mmcore::events::{DecisiveEvent, ReportConfig};
    use mmradio::band::ChannelNumber;
    use mmradio::cell::{cell, Deployment};
    use mmradio::propagation::{Environment, PropagationModel};
    use std::collections::BTreeMap;

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
    fn multi_ue_run_equals_independent_single_ue_runs() {
        let network = corridor(3.0);
        let cfgs: Vec<DriveConfig> = (0..4).map(corridor_drive).collect();
        let shared = Engine::new(&network).run::<DriveResult>(&cfgs);
        assert_eq!(shared.ues.len(), 4);
        for (cfg, outcome) in cfgs.iter().zip(shared.ues) {
            let single = crate::run::drive(&network, cfg).expect("attaches");
            let run = outcome.expect("attaches");
            assert_eq!(run, single, "shared-queue UE must match solo run");
        }
    }

    #[test]
    fn tally_matches_full_counts() {
        let network = corridor(3.0);
        let pinging = DriveConfig {
            traffic: Traffic::ping_5s(),
            ..corridor_drive(3)
        };
        let idle = DriveConfig::idle(
            Mobility::straight_line(50.0, 3000.0, CITY_SPEED_MPS),
            300_000,
            5,
        );
        let cfgs = vec![corridor_drive(1), corridor_drive(2), pinging, idle];
        let full = Engine::new(&network).run::<DriveResult>(&cfgs);
        let tally = Engine::new(&network).run::<UeTally>(&cfgs);
        // Both records see the same event chain.
        assert_eq!(full.stats, tally.stats);
        let mut total = UeTally::default();
        for (f, t) in full.ues.into_iter().zip(tally.ues) {
            let (f, t) = (f.unwrap(), t.unwrap());
            let mut by_event = [0u64; 10];
            for h in &f.handoffs {
                by_event[h.decisive_event().code() as usize] += 1;
            }
            assert_eq!(t.handoffs_by_event, by_event);
            assert_eq!(t.rlf_events, f.rlf_events.len() as u64);
            assert_eq!(t.reports_sent, f.reports_sent);
            assert_eq!(t.sim_ms, f.sim_ms);
            assert_eq!(t.throughput_samples, f.throughput.len() as u64);
            assert_eq!(t.rtt_samples, f.ping_rtts.len() as u64);
            assert_eq!(t.final_serving, f.final_serving);
            let bps_sum: u64 = f.throughput.iter().map(|&(_, b)| b as u64).sum();
            assert_eq!(t.throughput_bps_sum, bps_sum);
            let rtt_sum: u64 = f.ping_rtts.iter().map(|&(_, r)| (r * 1000.0) as u64).sum();
            assert_eq!(t.rtt_us_sum, rtt_sum);
            total.merge(&t);
        }
        // None of the comparisons above is vacuous: the active drives hand
        // off by A3, the idle drive reselects, and the pinging drive has
        // RTTs to sum.
        let count = |ev: DecisiveEvent| total.handoffs_by_event[ev.code() as usize];
        assert!(count(DecisiveEvent::A3) > 0, "{total:?}");
        assert!(count(DecisiveEvent::Idle) > 0, "{total:?}");
        assert!(total.reports_sent > 0 && total.throughput_samples > 0);
        assert!(total.rtt_samples > 0 && total.rtt_us_sum > 0, "{total:?}");
    }

    #[test]
    fn events_processed_is_a_pure_function_of_the_configs() {
        let network = corridor(3.0);
        let cfgs = vec![corridor_drive(1), corridor_drive(2)];
        let whole = Engine::new(&network).run::<UeTally>(&cfgs);
        let mut split = EngineStats::default();
        for cfg in &cfgs {
            let one = Engine::new(&network).run::<UeTally>(std::slice::from_ref(cfg));
            split.merge(&one.stats);
        }
        // 3 events per active epoch per UE, regardless of sharding.
        assert_eq!(whole.stats.events_processed, split.events_processed);
        assert_eq!(whole.stats.events_processed, 2 * 3 * (300_000 / 100));
        // A shared queue runs deeper than two solo queues.
        assert!(whole.stats.max_queue_depth >= split.max_queue_depth);
    }

    #[test]
    fn zero_duration_runs_schedule_nothing() {
        let network = corridor(3.0);
        let mut cfg = corridor_drive(1);
        cfg.duration_ms = 0;
        let out = Engine::new(&network).run::<DriveResult>(std::slice::from_ref(&cfg));
        assert_eq!(out.stats.events_processed, 0);
        let run = out.ues.into_iter().next().unwrap().unwrap();
        assert_eq!(run.sim_ms, 0);
        assert!(run.handoffs.is_empty());
        assert_eq!(run.final_serving, CellId(1));
    }

    #[test]
    fn an_end_time_past_u64_retires_the_ue_instead_of_wrapping() {
        let network = corridor(3.0);
        let mut cfg = corridor_drive(1);
        cfg.duration_ms = u64::MAX;
        cfg.epoch_ms = 1 << 63;
        let out = Engine::new(&network).run::<DriveResult>(std::slice::from_ref(&cfg));
        // Epochs at 0 and 2^63 ms; the next would end at 2^64 ms.
        assert_eq!(out.stats.events_processed, 2 * 3);
        let run = out.ues.into_iter().next().unwrap().unwrap();
        assert_eq!(run.sim_ms, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "epoch_ms must be positive")]
    fn zero_epoch_is_rejected_not_an_infinite_loop() {
        let network = corridor(3.0);
        let mut cfg = corridor_drive(1);
        cfg.epoch_ms = 0;
        let _ = Engine::new(&network).run::<UeTally>(std::slice::from_ref(&cfg));
    }

    #[test]
    fn zero_ue_run_is_empty_not_an_error() {
        let network = corridor(3.0);
        let out = Engine::new(&network).run::<DriveResult>(&[]);
        assert!(out.ues.is_empty());
        assert_eq!(out.stats, EngineStats::default());
        let tallied = Engine::new(&network).run::<UeTally>(&[]);
        assert!(tallied.ues.is_empty());
        assert_eq!(tallied.stats.events_processed, 0);
    }

    #[test]
    fn event_queue_pops_time_first_then_push_sequence() {
        let mut q = EventQueue::new();
        // Same-time events must pop in push order (seq), not by UE id:
        // UE 9 at t=5 was pushed before UE 0 at t=5.
        q.push(5, 9, Phase::Measure);
        q.push(1, 2, Phase::Traffic);
        q.push(5, 0, Phase::Control);
        q.push(1, 7, Phase::Measure);
        let order: Vec<(u64, u64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.t_ms, e.seq, e.ue))
            .collect();
        assert_eq!(order, vec![(1, 1, 2), (1, 3, 7), (5, 0, 9), (5, 2, 0)]);
        assert_eq!(q.processed, 4);
        assert_eq!(q.max_depth, 4);
    }

    #[test]
    fn tally_merge_is_associative_across_shard_splits() {
        let network = corridor(3.0);
        let cfgs: Vec<DriveConfig> = (0..5)
            .map(|u| {
                DriveConfig::active_speedtest(
                    Mobility::straight_line(50.0 + 10.0 * u as f64, 3000.0, CITY_SPEED_MPS),
                    60_000,
                    u as u64 + 1,
                )
            })
            .collect();
        // Run one shard (a UE index range) and fold its tallies.
        let shard_total = |range: std::ops::Range<usize>| -> UeTally {
            let out = Engine::new(&network).run::<UeTally>(&cfgs[range]);
            let mut acc = UeTally::default();
            for t in out.ues.iter().flatten() {
                acc.merge(t);
            }
            acc
        };
        let whole = shard_total(0..5);
        // Seeded property: derive split points from a fixed-seed stream and
        // check every grouping/association folds to the same totals.
        let mut rng = mm_rng::stream_rng(0x5eed, 0x7e57);
        for _ in 0..4 {
            let a = 1 + (rng.gen::<u64>() % 3) as usize; // 1..=3
            let b = a + 1 + (rng.gen::<u64>() % (4 - a) as u64) as usize; // a+1..=4
            let (x, y, z) = (shard_total(0..a), shard_total(a..b), shard_total(b..5));
            // (x + y) + z
            let mut left = UeTally::default();
            left.merge(&x);
            left.merge(&y);
            left.merge(&z);
            // x + (y + z)
            let mut right = UeTally::default();
            let mut yz = UeTally::default();
            yz.merge(&y);
            yz.merge(&z);
            right.merge(&x);
            right.merge(&yz);
            assert_eq!(left, right, "association order changed the totals");
            assert_eq!(left, whole, "split {a}/{b} changed the totals");
        }
    }
}
