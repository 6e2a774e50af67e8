//! Timestamped signaling trace — the analog of the MMLab `.log` files
//! (paper Fig 3): every message the device saw, with direction and the
//! serving cell at capture time.

use crate::messages::RrcMessage;
use mmradio::cell::CellId;

/// Message direction relative to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Broadcast / network → device.
    Downlink,
    /// Device → network.
    Uplink,
}

/// One captured message.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Capture time, ms since trace start.
    pub t_ms: u64,
    /// Direction.
    pub direction: Direction,
    /// Serving cell at capture time.
    pub serving: CellId,
    /// The decoded message.
    pub message: RrcMessage,
}

/// An append-only signaling trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SignalingLog {
    entries: Vec<LogEntry>,
}

impl SignalingLog {
    /// New empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one entry.
    pub fn push(&mut self, entry: LogEntry) {
        debug_assert!(
            self.entries
                .last()
                .is_none_or(|last| last.t_ms <= entry.t_ms),
            "log must be appended in time order"
        );
        self.entries.push(entry);
    }

    /// All entries in capture order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Number of captured messages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries of one SIB type (e.g. 3 for SIB3), like grepping an MMLab
    /// trace.
    pub fn sibs(&self, sib_type: u8) -> impl Iterator<Item = &LogEntry> {
        self.entries
            .iter()
            .filter(move |e| e.message.sib_type() == Some(sib_type))
    }

    /// Uplink measurement reports (the active-state handoff markers).
    pub fn measurement_reports(&self) -> impl Iterator<Item = &LogEntry> {
        self.entries
            .iter()
            .filter(|e| matches!(e.message, RrcMessage::MeasurementReport { .. }))
    }

    /// Render a human-readable digest like the paper's Fig 3 excerpt.
    pub fn digest(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::new();
        for e in &self.entries {
            let dir = match e.direction {
                Direction::Downlink => "DL",
                Direction::Uplink => "UL",
            };
            let name = match &e.message {
                RrcMessage::Sib1 { .. } => "SIB Type1".to_string(),
                RrcMessage::Sib3 { .. } => "SIB Type3".to_string(),
                RrcMessage::Sib4 { .. } => "SIB Type4".to_string(),
                RrcMessage::NeighborLayer { .. } => {
                    format!("SIB Type{}", e.message.sib_type().unwrap_or(0))
                }
                RrcMessage::Reconfiguration { .. } => "RRC Connection Reconfiguration".to_string(),
                RrcMessage::MeasurementReport { .. } => "Measurement Report".to_string(),
                RrcMessage::MobilityCommand { .. } => "Mobility Command".to_string(),
            };
            let _ = writeln!(out, "[{:>8} ms] {} {} @{}", e.t_ms, dir, name, e.serving);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmcore::config::CellConfig;
    use mmcore::events::{EventKind, MeasurementReportContent};
    use mmcore::Quantity;
    use mmradio::band::ChannelNumber;

    fn sample_log() -> SignalingLog {
        let cfg = CellConfig::minimal(CellId(1), ChannelNumber::earfcn(850));
        let mut log = SignalingLog::new();
        for (i, m) in crate::messages::broadcast(&cfg).into_iter().enumerate() {
            log.push(LogEntry {
                t_ms: i as u64 * 10,
                direction: Direction::Downlink,
                serving: CellId(1),
                message: m,
            });
        }
        log.push(LogEntry {
            t_ms: 100,
            direction: Direction::Uplink,
            serving: CellId(1),
            message: RrcMessage::MeasurementReport {
                content: MeasurementReportContent {
                    trigger_cell: None,
                    event: EventKind::A3 { offset_db: 3.0 },
                    quantity: Quantity::Rsrp,
                    serving_value: -100.0,
                    cells: vec![(CellId(2), -95.0)],
                    sequence: 1,
                },
            },
        });
        log
    }

    #[test]
    fn sib_filter_finds_types() {
        let log = sample_log();
        assert_eq!(log.sibs(1).count(), 1);
        assert_eq!(log.sibs(3).count(), 1);
        assert_eq!(log.sibs(5).count(), 0);
    }

    #[test]
    fn measurement_reports_are_found() {
        let log = sample_log();
        assert_eq!(log.measurement_reports().count(), 1);
    }

    #[test]
    fn digest_mentions_the_fig3_message_names() {
        let d = sample_log().digest();
        assert!(d.contains("SIB Type1"));
        assert!(d.contains("SIB Type3"));
        assert!(d.contains("Measurement Report"));
    }
}
