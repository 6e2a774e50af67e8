#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # mmcore — the 3GPP policy-based handoff engine
//!
//! This crate implements the system the IMC'18 paper studies: cellular
//! mobility management as standardized by 3GPP and *parameterized* by
//! operators. It contains
//!
//! * the full **parameter registry** (66 LTE + 91 legacy-RAT parameters,
//!   Tables 2 & 4) in [`params`],
//! * the typed **per-cell configuration** a cell broadcasts in [`config`],
//! * the **reporting-event state machines** A1–A6/B1/B2/periodic in
//!   [`events`],
//! * **measurement control** (Eq. 1, L3 filtering, s-Measure) in
//!   [`measurement`],
//! * **idle-state handoff** (cell reselection, Eq. 3) in [`reselect`],
//! * the **automated configuration verification** the paper's §6 proposes
//!   in [`verify`],
//! * **order-pinned f64 reduction kernels** shared by every crate that
//!   aggregates under the scatter path in [`kernel`],
//! * the **network-side active-state decision** and execution timing in
//!   [`handoff`], and
//! * the **UE state machines** gluing them together in [`ue`].
//!
//! The crate is deterministic and I/O-free: given the same configuration
//! and measurement stream it always produces the same reports, decisions
//! and reselections. Radio types come from `mmradio`; serialization of
//! configurations to signaling bytes lives in `mmsignaling`.

pub mod config;
pub mod error;
pub mod events;
pub mod handoff;
pub mod kernel;
pub mod measurement;
pub mod params;
pub mod reselect;
pub mod ue;
pub mod verify;

pub use config::{CellConfig, NeighborFreqConfig, Quantity, ServingConfig};
pub use error::{MmError, NetError, StoreError};
pub use events::{
    DecisiveEvent, EventKind, EventMonitor, MeasurementReportContent, NeighborMeas, ReportConfig,
};
pub use handoff::{decide, DecisionPolicy, HandoffDecision};
pub use measurement::{L3Filter, MeasurementPlan, MeasurementRules};
pub use reselect::{Candidate, PriorityRelation, Reselection, Reselector};
pub use ue::{CellMeasurement, ConnectedUe, IdleUe};
pub use verify::{verify_cell, verify_cluster, Finding, Severity, VerifyPolicy};
