#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # mmnetsim — deterministic drive-test simulator
//!
//! The physical-world substitute for the paper's Type-II measurements:
//! mobility patterns ([`mobility`]), downlink traffic models ([`traffic`]),
//! a SINR→throughput link model ([`link`]), the carrier [`network::Network`]
//! wrapper, and the discrete-event engine ([`sched::Engine`]) that runs the
//! full configure→measure→report→decide→execute handoff loop for one UE or
//! many. What survives of each UE is its record type: a
//! [`run::DriveResult`] keeps dataset-D1 rows ([`run::HandoffRecord`]),
//! throughput timelines and signaling captures ([`run::drive`] and the
//! campaigns), a [`sched::UeTally`] keeps integer counters (`mmx fleet`).
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
pub use sched::{record_engine_stats, Engine, EngineOutcome, EngineStats, UeRecord, UeTally};
pub use traffic::Traffic;
