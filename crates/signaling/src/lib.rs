#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # mmsignaling — RRC/SIB signaling codec and trace log
//!
//! The MobileInsight substitute: a bit-level (PER-inspired) codec for the
//! broadcast System Information Blocks and dedicated RRC messages that carry
//! every handoff parameter, plus the timestamped signaling trace the crawler
//! consumes. The device-centric measurement boundary of the paper is
//! enforced by this crate: `mmlab` reconstructs `CellConfig`s exclusively
//! from [`messages::RrcMessage`] byte strings.

pub mod codec;
pub mod log;
pub mod messages;

pub use codec::{BitReader, BitWriter, CodecError};
pub use log::{Direction, LogEntry, SignalingLog};
pub use messages::{assemble, broadcast, RrcMessage};
