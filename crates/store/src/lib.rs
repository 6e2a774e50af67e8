#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # mm-store — binary columnar dataset persistence
//!
//! The paper's datasets are big (D2 alone is ~8M configuration samples);
//! re-simulating them on every `mmx` invocation, or externalizing them as
//! verbose JSON text, does not scale to the month-long stored campaigns the
//! follow-up studies run. This crate is the durable storage layer
//! (DESIGN.md §9):
//!
//! * **Column codecs** ([`column`]) — integers as delta + zigzag + varint
//!   streams, `f64` as XOR-delta over the IEEE-754 bit pattern (bit-exact
//!   for every value, including subnormals and negative zero), strings
//!   through an order-preserving dictionary.
//! * **Block framing** ([`block`]) — a `MMST` magic + version header, then
//!   CRC-32-checked tagged blocks ending in a mandatory trailer, read by a
//!   streaming [`StoreReader`] that holds one block at a time.
//! * **Content-addressed cache** ([`cache`]) — entries keyed by the FNV-1a
//!   hash of `(seed, scale, runs, duration, artifact id, format version)`,
//!   streamed to a temp file and renamed into place; `mmx --store DIR
//!   --save/--load` is built on it.
//!
//! Typed failures, never panics: truncation, wrong magic, version skew,
//! checksum mismatch and schema violations all come back as
//! [`mmcore::StoreError`] values inside [`mmcore::MmError`].
//!
//! Dataset schemas (which columns make up a `ConfigSample` or a
//! `HandoffInstance`) live with the datasets in `mmlab::store`; this crate
//! knows bytes, not rows.

pub mod block;
pub mod cache;
pub mod column;
pub mod varint;

pub use block::{
    crc32, seal_frame, start_frame, Block, StoreReader, StoreWriter, FORMAT_VERSION, MAGIC, TAG_END,
};
pub use cache::{fnv1a64, ArtifactCache, CacheKey};
pub use column::{Dict, DictBuilder, F64Decoder, F64Encoder, UIntDecoder, UIntEncoder};
pub use varint::{unzigzag, varint_len, write_varint, zigzag, Cursor};
