#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # mmnetsim — deterministic drive-test simulator
//!
//! The physical-world substitute for the paper's Type-II measurements:
//! mobility patterns ([`mobility`]), downlink traffic models ([`traffic`]),
//! a SINR→throughput link model ([`link`]), the carrier [`network::Network`]
//! wrapper, and the fixed-step drive runner ([`run`]) that executes the full
//! configure→measure→report→decide→execute handoff loop and emits dataset-D1
//! rows ([`run::HandoffRecord`]) plus throughput timelines and signaling
//! captures.
//!
//! Everything is deterministic in the run seed; no wall-clock, no threads.

pub mod link;
pub mod mobility;
pub mod network;
pub mod run;
pub mod sched;
pub mod traffic;

pub use link::LinkModel;
pub use mobility::Mobility;
pub use network::Network;
pub use run::{drive, DriveConfig, DriveResult, HandoffKind, HandoffRecord};
pub use sched::{
    record_engine_stats, CollectMode, DriveRun, Engine, EngineOutcome, EngineStats, UeOutcome,
    UeTally,
};
pub use traffic::Traffic;
