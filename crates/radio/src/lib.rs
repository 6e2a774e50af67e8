#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # mmradio — radio substrate for the mobility-configuration study
//!
//! This crate stands in for the physical layer that the IMC'18 paper measured
//! through real phone modems: frequency bands and channel numbers (EARFCN /
//! UARFCN / ARFCN), 2-D geometry, path-loss and shadowing propagation,
//! received-signal metrics (RSRP, RSRQ, SINR), and physical cell deployments.
//!
//! Everything above this crate (the 3GPP handoff engine in `mmcore`, the
//! drive-test simulator in `mmnetsim`) consumes radio state exclusively
//! through [`Deployment`] snapshots, so the propagation model can be swapped
//! without touching policy logic.
//!
//! Design follows the simplicity-first idiom of the networking guides: plain
//! data types, no async machinery, deterministic seeded randomness only.

pub mod band;
pub mod cell;
pub mod geom;
pub mod propagation;
pub mod signal;

pub use band::{ChannelNumber, FrequencyBand, Rat};
pub use cell::{CellId, Deployment, PhyCell};
pub use geom::{Point, Route};
pub use propagation::{Environment, PropagationModel, RadioSample};
pub use signal::{Db, Dbm, Rsrp, Rsrq, Sinr};
