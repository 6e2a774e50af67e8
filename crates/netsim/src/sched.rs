//! The discrete-event multi-UE simulation engine (DESIGN.md §12).
//!
//! One [`Engine`] owns a time-indexed event queue — a binary min-heap keyed
//! `(t_ms, seq, ue)` — over which every UE of one shard interleaves its
//! measurement epochs, control-plane work (TTT state machines, handoff
//! command delays, RLF timers) and traffic ticks. Each simulated epoch of a
//! UE is a chain of three events at the same timestamp:
//!
//! 1. [`Phase::Measure`] — move along the route, sample the top-16 cells
//!    (this is the UE's only RNG draw site besides handoff-delay jitter);
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
//! Collection modes: [`CollectMode::Full`] keeps every series and the
//! signaling log (a [`DriveResult`] per UE); [`CollectMode::Tally`] folds
//! each UE into an integer [`UeTally`] as it goes — *integer* accumulators,
//! because u64 sums are associative, which is what lets fleet shards merge
//! in any grouping and still produce byte-identical output for every shard
//! count and `MM_THREADS`.

use crate::link::LinkModel;
use crate::network::Network;
use crate::run::{
    find, log_broadcast, measure, min_binned, record_drive_telemetry, DriveConfig, DriveResult,
    HandoffKind, HandoffRecord, RlfEvent,
};
use mm_rng::{stream_rng, SmallRng};
use mmcore::config::Quantity;
use mmcore::events::EventKind;
use mmcore::handoff::decide;
use mmcore::ue::{CellMeasurement, ConnectedUe, IdleUe};
use mmradio::cell::CellId;
use mmradio::geom::Point;
use mmsignaling::log::{Direction, LogEntry, SignalingLog};
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

/// What the engine keeps per UE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectMode {
    /// Full [`DriveResult`] per UE: every series plus the signaling log.
    Full,
    /// Integer [`UeTally`] per UE: O(1) memory, associatively mergeable.
    Tally,
}

/// Integer per-UE summary of a drive — every accumulator is a `u64`
/// (throughput truncated to whole bit/s per sample, RTT to whole µs), so
/// sums merge associatively across shards.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    fn new(initial: CellId) -> UeTally {
        UeTally {
            handoffs_by_event: [0; 10],
            rlf_events: 0,
            reports_sent: 0,
            sim_ms: 0,
            throughput_samples: 0,
            throughput_bps_sum: 0,
            rtt_samples: 0,
            rtt_us_sum: 0,
            final_serving: initial,
        }
    }

    /// Total handoffs across every decisive event.
    pub fn handoffs(&self) -> u64 {
        self.handoffs_by_event.iter().sum()
    }
}

/// One finished Full-mode drive: the result plus the counters the per-drive
/// telemetry flush needs.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveRun {
    /// Everything the drive produced.
    pub result: DriveResult,
    /// Measurement reports sent.
    pub reports_sent: u64,
    /// Simulated milliseconds stepped.
    pub sim_ms: u64,
}

impl DriveRun {
    /// Flush this drive's counts into the `netsim` telemetry section
    /// (exactly what the historical `drive` recorded per run).
    pub fn record_telemetry(&self) {
        record_drive_telemetry(
            &self.result.handoffs,
            &self.result.rlf_events,
            self.reports_sent,
            self.sim_ms,
        );
    }
}

/// Per-UE engine output, by collection mode.
#[derive(Debug, Clone, PartialEq)]
pub enum UeOutcome {
    /// [`CollectMode::Full`].
    Full(Box<DriveRun>),
    /// [`CollectMode::Tally`].
    Tally(UeTally),
}

impl UeOutcome {
    /// The full drive, if collected in [`CollectMode::Full`].
    pub fn into_full(self) -> Option<DriveRun> {
        match self {
            UeOutcome::Full(run) => Some(*run),
            UeOutcome::Tally(_) => None,
        }
    }

    /// The integer tally, if collected in [`CollectMode::Tally`].
    pub fn into_tally(self) -> Option<UeTally> {
        match self {
            UeOutcome::Full(_) => None,
            UeOutcome::Tally(t) => Some(t),
        }
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

/// Everything one engine run produced: per-UE outcomes in config order
/// (`None` where no cell was detectable at the route start) plus the queue
/// accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOutcome {
    /// Per-UE outcomes, index-aligned with the input configs.
    pub ues: Vec<Option<UeOutcome>>,
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

/// Live state of one UE between events.
struct UeState {
    rng: SmallRng,
    connected: Option<ConnectedUe>,
    idle: Option<IdleUe>,
    pos: Point,
    batch: Vec<CellMeasurement>,
    /// Pending network handoff command: `(exec_t, target, decisive,
    /// quantity, report_t, delay)`.
    pending: Option<(u64, CellId, EventKind, Quantity, u64, u64)>,
    interruption_until: u64,
    /// Ping-pong suppression: the network ignores reports until the UE has
    /// dwelled `min_dwell_ms` on its serving cell.
    last_handoff_t: Option<u64>,
    /// RLF tracking: when the serving SINR first went below Qout.
    out_of_sync_since: Option<u64>,
    reports_sent: u64,
    sim_ms: u64,
    // Full-mode series (left empty in Tally mode).
    handoffs: Vec<HandoffRecord>,
    rlf_events: Vec<RlfEvent>,
    throughput: Vec<(u64, f64)>,
    ping_rtts: Vec<(u64, f64)>,
    log: SignalingLog,
    tally: UeTally,
}

impl UeState {
    /// Attach at the route start; `None` if no cell is detectable there.
    fn attach(network: &Network, cfg: &DriveConfig, mode: CollectMode) -> Option<UeState> {
        let rng = stream_rng(cfg.seed, 0x647276); // "drv"
        let start = cfg.mobility.position(0.0);
        let (initial, _) = network.deployment.strongest(start, None)?;
        let mut log = SignalingLog::new();
        if mode == CollectMode::Full {
            log_broadcast(&mut log, 0, network, initial);
        }
        let connected = cfg
            .active
            .then(|| ConnectedUe::new(network.config(initial).clone()));
        let idle = (!cfg.active).then(|| IdleUe::new(network.config(initial).clone()));
        Some(UeState {
            rng,
            connected,
            idle,
            pos: start,
            batch: Vec::new(),
            pending: None,
            interruption_until: 0,
            last_handoff_t: None,
            out_of_sync_since: None,
            reports_sent: 0,
            sim_ms: 0,
            handoffs: Vec::new(),
            rlf_events: Vec::new(),
            throughput: Vec::new(),
            ping_rtts: Vec::new(),
            log,
            tally: UeTally::new(initial),
        })
    }

    fn serving(&self) -> CellId {
        self.connected
            .as_ref()
            .map(|u| u.serving())
            .or_else(|| self.idle.as_ref().map(|u| u.serving()))
            // mm-allow(E001): attach populates exactly one of connected/idle
            .expect("one mode is active")
    }

    fn finish(self, mode: CollectMode) -> UeOutcome {
        let final_serving = self.serving();
        match mode {
            CollectMode::Full => UeOutcome::Full(Box::new(DriveRun {
                result: DriveResult {
                    handoffs: self.handoffs,
                    rlf_events: self.rlf_events,
                    throughput: self.throughput,
                    ping_rtts: self.ping_rtts,
                    log: self.log,
                    final_serving,
                },
                reports_sent: self.reports_sent,
                sim_ms: self.sim_ms,
            })),
            CollectMode::Tally => {
                let mut tally = self.tally;
                tally.reports_sent = self.reports_sent;
                tally.sim_ms = self.sim_ms;
                tally.final_serving = final_serving;
                UeOutcome::Tally(tally)
            }
        }
    }
}

/// The multi-UE discrete-event engine over one [`Network`].
#[derive(Debug, Clone, Copy)]
pub struct Engine<'n> {
    network: &'n Network,
    mode: CollectMode,
}

impl<'n> Engine<'n> {
    /// An engine over `network`, collecting [`CollectMode::Full`] results.
    pub fn new(network: &'n Network) -> Engine<'n> {
        Engine {
            network,
            mode: CollectMode::Full,
        }
    }

    /// Set the collection mode.
    pub fn collect(mut self, mode: CollectMode) -> Engine<'n> {
        self.mode = mode;
        self
    }

    /// Run every config's UE to completion over one shared event queue.
    ///
    /// Panics if any config has a zero `epoch_ms` (the historical loop
    /// would spin forever on it) or if more than `u32::MAX` UEs are asked
    /// for in one shard.
    pub fn run(&self, cfgs: &[DriveConfig]) -> EngineOutcome {
        assert!(u32::try_from(cfgs.len()).is_ok(), "too many UEs per shard");
        let mut queue = EventQueue::new();
        let mut ues: Vec<Option<UeState>> = Vec::with_capacity(cfgs.len());
        for (i, cfg) in cfgs.iter().enumerate() {
            assert!(cfg.epoch_ms > 0, "epoch_ms must be positive");
            let st = UeState::attach(self.network, cfg, self.mode);
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
                    st.batch = measure(self.network, st.pos, &mut st.rng, 16);
                    queue.push(ev.t_ms, ev.ue, Phase::Control);
                }
                Phase::Control => {
                    self.control(st, ev.t_ms);
                    if cfg.active {
                        queue.push(ev.t_ms, ev.ue, Phase::Traffic);
                    } else {
                        schedule_next(&mut queue, cfg, st, ev);
                    }
                }
                Phase::Traffic => {
                    self.traffic(cfg, st, ev.t_ms);
                    schedule_next(&mut queue, cfg, st, ev);
                }
            }
        }
        let stats = EngineStats {
            events_processed: queue.processed,
            max_queue_depth: queue.max_depth as u64,
        };
        let mode = self.mode;
        EngineOutcome {
            ues: ues
                .into_iter()
                .map(|st| st.map(|st| st.finish(mode)))
                .collect(),
            stats,
        }
    }

    /// Control-plane work of one epoch — a statement-for-statement
    /// transplant of the historical per-tick loop body, so the per-UE
    /// output is byte-identical.
    fn control(&self, st: &mut UeState, t: u64) {
        let network = self.network;
        let mode = self.mode;
        let serving = st.serving();

        if let Some(ue) = st.connected.as_mut() {
            // Radio link monitoring (TS 36.133): T310 expiry declares RLF,
            // drops any pending command, and re-establishes on the
            // strongest cell after an outage.
            if t >= st.interruption_until {
                let sinr = network
                    .deployment
                    .sinr(ue.serving(), st.pos)
                    // mm-allow(E001): the serving cell was handed off from this same deployment
                    .expect("serving deployed");
                if sinr.0 < network.policy.rlf_qout_sinr_db {
                    let since = *st.out_of_sync_since.get_or_insert(t);
                    if t.saturating_sub(since) >= network.policy.rlf_t310_ms {
                        let target = network
                            .deployment
                            .strongest(st.pos, None)
                            .map(|(c, _)| c)
                            .filter(|c| network.configs.contains_key(c))
                            .unwrap_or_else(|| ue.serving());
                        match mode {
                            CollectMode::Full => st.rlf_events.push(RlfEvent {
                                t_ms: t,
                                cell: ue.serving(),
                                reestablished_on: target,
                            }),
                            CollectMode::Tally => st.tally.rlf_events += 1,
                        }
                        ue.apply_handoff(network.config(target).clone());
                        if mode == CollectMode::Full {
                            log_broadcast(&mut st.log, t, network, target);
                        }
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
                    let old = find(&st.batch, serving);
                    let new = find(&st.batch, target);
                    let rec = HandoffRecord {
                        t_ms: t,
                        from: serving,
                        to: target,
                        kind: HandoffKind::Active {
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
                        },
                        rsrp_old_dbm: old.map_or(-140.0, |m| m.rsrp_dbm),
                        rsrp_new_dbm: new.map_or(-140.0, |m| m.rsrp_dbm),
                        rsrq_old_db: old.map_or(-19.5, |m| m.rsrq_db),
                        rsrq_new_db: new.map_or(-19.5, |m| m.rsrq_db),
                        min_thpt_before_bps: min_binned(
                            &st.throughput,
                            report_t.saturating_sub(10_000),
                            report_t,
                            1_000,
                        ),
                    };
                    match mode {
                        CollectMode::Full => {
                            st.handoffs.push(rec);
                            st.log.push(LogEntry {
                                t_ms: t,
                                direction: Direction::Downlink,
                                serving,
                                message: RrcMessage::MobilityCommand { target },
                            });
                        }
                        CollectMode::Tally => {
                            let k = rec.decisive_event().code() as usize;
                            if let Some(n) = st.tally.handoffs_by_event.get_mut(k) {
                                *n += 1;
                            }
                        }
                    }
                    ue.apply_handoff(network.config(target).clone());
                    if mode == CollectMode::Full {
                        log_broadcast(&mut st.log, t, network, target);
                    }
                    st.interruption_until = t + network.policy.interruption_ms;
                    st.last_handoff_t = Some(t);
                    st.pending = None;
                }
            }

            let dwell_ok = st
                .last_handoff_t
                .is_none_or(|lh| t.saturating_sub(lh) >= network.policy.min_dwell_ms);
            if st.pending.is_none() {
                let reports = ue.step(t, &st.batch);
                for report in reports {
                    st.reports_sent += 1;
                    if mode == CollectMode::Full {
                        st.log.push(LogEntry {
                            t_ms: t,
                            direction: Direction::Uplink,
                            serving: ue.serving(),
                            message: RrcMessage::MeasurementReport {
                                content: report.clone(),
                            },
                        });
                    }
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

        if let Some(ue) = st.idle.as_mut() {
            if let Some(sel) = ue.step(t, &st.batch) {
                let old = find(&st.batch, serving);
                let new = find(&st.batch, sel.target);
                let rec = HandoffRecord {
                    t_ms: t,
                    from: serving,
                    to: sel.target,
                    kind: HandoffKind::Idle {
                        relation: sel.relation,
                    },
                    rsrp_old_dbm: old.map_or(-140.0, |m| m.rsrp_dbm),
                    rsrp_new_dbm: new.map_or(-140.0, |m| m.rsrp_dbm),
                    rsrq_old_db: old.map_or(-19.5, |m| m.rsrq_db),
                    rsrq_new_db: new.map_or(-19.5, |m| m.rsrq_db),
                    min_thpt_before_bps: None,
                };
                ue.apply_reselection(network.config(sel.target).clone());
                match mode {
                    CollectMode::Full => {
                        st.handoffs.push(rec);
                        log_broadcast(&mut st.log, t, network, sel.target);
                    }
                    CollectMode::Tally => {
                        let k = rec.decisive_event().code() as usize;
                        if let Some(n) = st.tally.handoffs_by_event.get_mut(k) {
                            *n += 1;
                        }
                    }
                }
            }
        }
    }

    /// Data-plane tick of one epoch (active UEs; uses post-handoff serving).
    fn traffic(&self, cfg: &DriveConfig, st: &mut UeState, t: u64) {
        let network = self.network;
        let serving = st
            .connected
            .as_ref()
            // mm-allow(E001): Traffic events are only scheduled for active UEs
            .expect("active mode")
            .serving();
        let in_interruption = t < st.interruption_until;
        let bps = if in_interruption {
            0.0
        } else {
            // mm-allow(E001): the serving cell was handed off from this same deployment
            let cell = network.deployment.cell(serving).expect("serving deployed");
            let sinr = network
                .deployment
                .sinr(serving, st.pos)
                // mm-allow(E001): the serving cell was handed off from this same deployment
                .expect("serving deployed");
            let link = LinkModel::for_rat(cell.rat());
            cfg.traffic
                .goodput_bps(link.throughput_bps(sinr, cell.load))
        };
        match self.mode {
            CollectMode::Full => st.throughput.push((t, bps)),
            CollectMode::Tally => {
                st.tally.throughput_samples += 1;
                st.tally.throughput_bps_sum += bps as u64;
            }
        }
        if cfg.traffic.ping_due(t, cfg.epoch_ms) && !in_interruption {
            // mm-allow(E001): the serving cell was handed off from this same deployment
            let cell = network.deployment.cell(serving).expect("serving deployed");
            let sinr = network
                .deployment
                .sinr(serving, st.pos)
                // mm-allow(E001): the serving cell was handed off from this same deployment
                .expect("serving deployed");
            if let Some(rtt) = LinkModel::for_rat(cell.rat()).rtt_ms(sinr) {
                match self.mode {
                    CollectMode::Full => st.ping_rtts.push((t, rtt)),
                    CollectMode::Tally => {
                        st.tally.rtt_samples += 1;
                        st.tally.rtt_us_sum += (rtt * 1000.0) as u64;
                    }
                }
            }
        }
    }
}

/// Advance one UE to its next epoch, or retire it when the run is over.
/// The end time mirrors the historical loop: the first epoch multiple at
/// or past `duration_ms` (zero when the duration is zero).
fn schedule_next(queue: &mut EventQueue, cfg: &DriveConfig, st: &mut UeState, ev: Event) {
    let next = ev.t_ms + cfg.epoch_ms;
    st.sim_ms = next;
    if next < cfg.duration_ms {
        queue.push(next, ev.ue, Phase::Measure);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::{Mobility, CITY_SPEED_MPS};
    use mm_rng::Rng;
    use mmcore::config::CellConfig;
    use mmcore::events::ReportConfig;
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
        let shared = Engine::new(&network).run(&cfgs);
        assert_eq!(shared.ues.len(), 4);
        for (cfg, outcome) in cfgs.iter().zip(shared.ues) {
            let single = crate::run::drive(&network, cfg).expect("attaches");
            let run = outcome.expect("attaches").into_full().expect("full mode");
            assert_eq!(run.result, single, "shared-queue UE must match solo run");
        }
    }

    #[test]
    fn tally_matches_full_counts() {
        let network = corridor(3.0);
        let cfgs = vec![corridor_drive(1), corridor_drive(2)];
        let full = Engine::new(&network).run(&cfgs);
        let tally = Engine::new(&network).collect(CollectMode::Tally).run(&cfgs);
        // Both modes process the same event chain.
        assert_eq!(full.stats, tally.stats);
        for (f, t) in full.ues.into_iter().zip(tally.ues) {
            let f = f.unwrap().into_full().unwrap();
            let t = t.unwrap().into_tally().unwrap();
            assert_eq!(t.handoffs(), f.result.handoffs.len() as u64);
            for h in &f.result.handoffs {
                assert!(t.handoffs_by_event[h.decisive_event().code() as usize] > 0);
            }
            assert_eq!(t.rlf_events, f.result.rlf_events.len() as u64);
            assert_eq!(t.reports_sent, f.reports_sent);
            assert_eq!(t.sim_ms, f.sim_ms);
            assert_eq!(t.throughput_samples, f.result.throughput.len() as u64);
            assert_eq!(t.rtt_samples, f.result.ping_rtts.len() as u64);
            assert_eq!(t.final_serving, f.result.final_serving);
            let full_sum: u64 = f.result.throughput.iter().map(|&(_, b)| b as u64).sum();
            assert_eq!(t.throughput_bps_sum, full_sum);
        }
    }

    #[test]
    fn events_processed_is_a_pure_function_of_the_configs() {
        let network = corridor(3.0);
        let cfgs = vec![corridor_drive(1), corridor_drive(2)];
        let whole = Engine::new(&network).run(&cfgs);
        let mut split = EngineStats::default();
        for cfg in &cfgs {
            let one = Engine::new(&network).run(std::slice::from_ref(cfg));
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
        let out = Engine::new(&network).run(std::slice::from_ref(&cfg));
        assert_eq!(out.stats.events_processed, 0);
        let run = out.ues.into_iter().next().unwrap().unwrap();
        let run = run.into_full().unwrap();
        assert_eq!(run.sim_ms, 0);
        assert!(run.result.handoffs.is_empty());
        assert_eq!(run.result.final_serving, CellId(1));
    }

    #[test]
    #[should_panic(expected = "epoch_ms must be positive")]
    fn zero_epoch_is_rejected_not_an_infinite_loop() {
        let network = corridor(3.0);
        let mut cfg = corridor_drive(1);
        cfg.epoch_ms = 0;
        let _ = Engine::new(&network).run(std::slice::from_ref(&cfg));
    }

    #[test]
    fn zero_ue_run_is_empty_not_an_error() {
        let network = corridor(3.0);
        let out = Engine::new(&network).run(&[]);
        assert!(out.ues.is_empty());
        assert_eq!(out.stats, EngineStats::default());
        let tallied = Engine::new(&network).collect(CollectMode::Tally).run(&[]);
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

    /// Field-wise sum of the `u64` accumulators (the shard-merge shape;
    /// `final_serving` is per-UE state, not a mergeable counter).
    fn add_tallies(acc: &mut UeTally, t: &UeTally) {
        for (a, b) in acc.handoffs_by_event.iter_mut().zip(t.handoffs_by_event) {
            *a += b;
        }
        acc.rlf_events += t.rlf_events;
        acc.reports_sent += t.reports_sent;
        acc.sim_ms += t.sim_ms;
        acc.throughput_samples += t.throughput_samples;
        acc.throughput_bps_sum += t.throughput_bps_sum;
        acc.rtt_samples += t.rtt_samples;
        acc.rtt_us_sum += t.rtt_us_sum;
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
            let out = Engine::new(&network)
                .collect(CollectMode::Tally)
                .run(&cfgs[range]);
            let mut acc = UeTally::new(CellId(0));
            for ue in out.ues.iter().flatten() {
                if let UeOutcome::Tally(t) = ue {
                    add_tallies(&mut acc, t);
                }
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
            let mut left = UeTally::new(CellId(0));
            add_tallies(&mut left, &x);
            add_tallies(&mut left, &y);
            add_tallies(&mut left, &z);
            // x + (y + z)
            let mut right = UeTally::new(CellId(0));
            let mut yz = UeTally::new(CellId(0));
            add_tallies(&mut yz, &y);
            add_tallies(&mut yz, &z);
            add_tallies(&mut right, &x);
            add_tallies(&mut right, &yz);
            assert_eq!(left, right, "association order changed the totals");
            assert_eq!(left, whole, "split {a}/{b} changed the totals");
        }
    }
}
