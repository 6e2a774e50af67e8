//! Block framing: a versioned, magic-tagged header followed by CRC-checked
//! tagged blocks.
//!
//! ```text
//! file   := header block*
//! header := "MMST" version:u32le kind_len:u8 kind:bytes
//! block  := tag:u8 len:u32le payload:bytes crc32:u32le
//! ```
//!
//! The CRC-32 (IEEE 802.3 polynomial, the zlib convention) covers the tag,
//! the length field and the payload, so a bit flip anywhere in a frame is
//! caught. [`seal_frame`] frames a payload in place; a writer that encodes
//! blocks on several threads seals them there and writes them with
//! [`StoreWriter::write_frame`]. Tags are owned by the layer above;
//! [`TAG_END`] is reserved for the mandatory trailer, which carries the
//! total row count so truncation at a block boundary is still detected.

use crate::varint::Cursor;
use mmcore::StoreError;
use std::io::{Read, Write};

/// Leading magic of every store file.
pub const MAGIC: [u8; 4] = *b"MMST";

/// Highest on-disk format version this build writes and reads.
///
/// Version history:
/// * 1 — original framing; row-group payloads carry only the row count.
/// * 2 — row groups declare their column count (fail-fast schema check)
///   and per-group vocabulary stats, enabling predicate pushdown.
pub const FORMAT_VERSION: u32 = 2;

/// Reserved trailer tag: payload is the varint row/record count.
pub const TAG_END: u8 = 0xff;

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xedb8_8320;

/// Slice-by-16 tables: `CRC_TABLES[0][b]` is the CRC state update for
/// byte `b`, and `CRC_TABLES[k][b]` the update for `b` followed by `k` zero
/// bytes, so sixteen input bytes fold in with sixteen independent lookups.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut k = 0;
        while k < 16 {
            // Each table is the previous one advanced by one zero byte:
            // eight more bitwise steps.
            let mut bit = 0;
            while bit < 8 {
                crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
                bit += 1;
            }
            tables[k][b] = crc;
            k += 1;
        }
        b += 1;
    }
    tables
};

/// CRC-32 (IEEE) over `bytes`, table-driven (slice-by-16) and seeded per
/// frame.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_feed(!0u32, bytes)
}

/// Streaming CRC-32 state update: fold `bytes` into `crc`. Seed with
/// `!0u32`, finish with a final complement — `crc32` composed over slices.
fn crc32_feed(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let (words, tail) = bytes.as_chunks::<16>();
    for w in words {
        let [a, b, c, d] = (crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]])).to_le_bytes();
        crc = t[15][usize::from(a)]
            ^ t[14][usize::from(b)]
            ^ t[13][usize::from(c)]
            ^ t[12][usize::from(d)]
            ^ t[11][usize::from(w[4])]
            ^ t[10][usize::from(w[5])]
            ^ t[9][usize::from(w[6])]
            ^ t[8][usize::from(w[7])]
            ^ t[7][usize::from(w[8])]
            ^ t[6][usize::from(w[9])]
            ^ t[5][usize::from(w[10])]
            ^ t[4][usize::from(w[11])]
            ^ t[3][usize::from(w[12])]
            ^ t[2][usize::from(w[13])]
            ^ t[1][usize::from(w[14])]
            ^ t[0][usize::from(w[15])];
    }
    for &byte in tail {
        let [low, ..] = crc.to_le_bytes();
        crc = (crc >> 8) ^ t[0][usize::from(low ^ byte)];
    }
    crc
}

/// Bytes of a frame before its payload: the tag and the length field.
pub const FRAME_HEAD: usize = 5;

/// Bytes of a frame after its payload: the CRC-32.
const FRAME_TAIL: usize = 4;

/// Start a frame in `frame`: clear it and reserve the [`FRAME_HEAD`]
/// bytes that [`seal_frame`] fills. Append the payload after them.
pub fn start_frame(frame: &mut Vec<u8>) {
    frame.clear();
    frame.resize(FRAME_HEAD, 0);
}

/// Close a frame begun by [`start_frame`] as a block of `tag`, in place:
/// write the tag and the payload's length before the payload and the CRC-32
/// of both after it. The one framing function: [`StoreWriter::write_block`]
/// frames through it, and a writer that encodes blocks off the writing
/// thread seals them there and hands them to
/// [`StoreWriter::write_frame`].
pub fn seal_frame(tag: u8, frame: &mut Vec<u8>) -> Result<(), mmcore::MmError> {
    let payload = frame.len().saturating_sub(FRAME_HEAD);
    let len = u32::try_from(payload).map_err(|_| {
        mmcore::MmError::Store(StoreError::Schema(format!(
            "block payload too large ({payload} bytes)"
        )))
    })?;
    let Some(head) = frame.get_mut(..FRAME_HEAD) else {
        return Err(StoreError::Schema("frame without a head".to_string()).into());
    };
    head[0] = tag;
    head[1..].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(frame);
    frame.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

fn io_err(e: std::io::Error) -> mmcore::MmError {
    mmcore::MmError::Io(e)
}

/// Writes a store file: header first, then tagged blocks, then the trailer.
pub struct StoreWriter<W: Write> {
    sink: W,
    blocks_written: u64,
    bytes_written: u64,
}

impl<W: Write> StoreWriter<W> {
    /// Write the header and return the writer. `kind` names the dataset
    /// schema ("d2-config-samples", "mm-manifest", …) and must be ≤ 255
    /// bytes.
    pub fn new(mut sink: W, kind: &str) -> Result<Self, mmcore::MmError> {
        let kind_len = u8::try_from(kind.len()).map_err(|_| {
            mmcore::MmError::Store(StoreError::Schema(format!(
                "kind string too long ({} bytes)",
                kind.len()
            )))
        })?;
        let mut header = Vec::with_capacity(9 + kind.len());
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.push(kind_len);
        header.extend_from_slice(kind.as_bytes());
        sink.write_all(&header).map_err(io_err)?;
        Ok(StoreWriter {
            sink,
            blocks_written: 0,
            bytes_written: header.len() as u64,
        })
    }

    /// Append one CRC-framed block.
    pub fn write_block(&mut self, tag: u8, payload: &[u8]) -> Result<(), mmcore::MmError> {
        let mut frame = Vec::with_capacity(FRAME_HEAD + payload.len() + FRAME_TAIL);
        start_frame(&mut frame);
        frame.extend_from_slice(payload);
        seal_frame(tag, &mut frame)?;
        self.write_frame(&frame)
    }

    /// Append one frame sealed by [`seal_frame`]. A frame whose length
    /// field disagrees with its size is a `Schema` error and writes
    /// nothing; the CRC is trusted as sealed.
    pub fn write_frame(&mut self, frame: &[u8]) -> Result<(), mmcore::MmError> {
        let declared = frame
            .get(1..FRAME_HEAD)
            .and_then(|len| <[u8; 4]>::try_from(len).ok())
            .map(|len| u32::from_le_bytes(len) as usize);
        let payload = frame.len().checked_sub(FRAME_HEAD + FRAME_TAIL);
        if declared.is_none() || declared != payload {
            return Err(
                StoreError::Schema(format!("a {}-byte frame is not sealed", frame.len())).into(),
            );
        }
        self.sink.write_all(frame).map_err(io_err)?;
        self.blocks_written += 1;
        self.bytes_written += frame.len() as u64;
        Ok(())
    }

    /// Write the trailer (with the total record count) and flush.
    ///
    /// Consumes the writer; the block/byte totals are published to the
    /// `store` telemetry section here, once per file.
    pub fn finish(mut self, records: u64) -> Result<(), mmcore::MmError> {
        let mut payload = Vec::new();
        crate::varint::write_varint(&mut payload, records);
        self.write_block(TAG_END, &payload)?;
        self.sink.flush().map_err(io_err)?;
        let t = mm_telemetry::global();
        t.counter_scoped("store", "blocks_written", mm_telemetry::Scope::Sim)
            .add(self.blocks_written);
        t.counter_scoped("store", "bytes_written", mm_telemetry::Scope::Sim)
            .add(self.bytes_written);
        Ok(())
    }

    /// Bytes written so far (header + frames).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Application tag (never [`TAG_END`]; the trailer is consumed by the
    /// reader itself).
    pub tag: u8,
    /// CRC-verified payload.
    pub payload: Vec<u8>,
}

/// Streaming reader: validates the header eagerly, then yields one
/// CRC-checked block at a time — a caller never holds more than a single
/// block in memory.
pub struct StoreReader<R: Read> {
    source: R,
    version: u32,
    next_index: u64,
    records: Option<u64>,
    blocks_read: u64,
    bytes_read: u64,
}

impl<R: Read> StoreReader<R> {
    /// Read and validate the header, which must name the dataset `kind`
    /// the caller decodes: a file of any other kind is a typed `Schema`
    /// error before a single block is read.
    pub fn new(mut source: R, kind: &str) -> Result<Self, mmcore::MmError> {
        let mut magic = [0u8; 4];
        read_exact_or(&mut source, &mut magic, "header")?;
        if magic != MAGIC {
            return Err(StoreError::BadMagic.into());
        }
        let mut ver = [0u8; 4];
        read_exact_or(&mut source, &mut ver, "header version")?;
        let version = u32::from_le_bytes(ver);
        if version > FORMAT_VERSION {
            return Err(StoreError::Version {
                found: version,
                supported: FORMAT_VERSION,
            }
            .into());
        }
        let mut kind_len = [0u8; 1];
        read_exact_or(&mut source, &mut kind_len, "header kind length")?;
        let mut found = vec![0u8; usize::from(kind_len[0])];
        read_exact_or(&mut source, &mut found, "header kind")?;
        if found != kind.as_bytes() {
            return Err(StoreError::Schema(format!(
                "expected kind {kind:?}, found {:?}",
                String::from_utf8_lossy(&found)
            ))
            .into());
        }
        let header_len = 9 + found.len() as u64;
        Ok(StoreReader {
            source,
            version,
            next_index: 0,
            records: None,
            blocks_read: 0,
            bytes_read: header_len,
        })
    }

    /// The on-disk format version from the header (≤ [`FORMAT_VERSION`]).
    /// Schema layers above use this to reject payload layouts they no
    /// longer decode.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The record count declared by the trailer — available once
    /// [`next_block`](Self::next_block) has returned `None`.
    pub fn records(&self) -> Option<u64> {
        self.records
    }

    /// The next application block, or `None` after the trailer.
    ///
    /// Every failure mode is typed: EOF mid-frame is
    /// [`StoreError::Truncated`], a CRC mismatch is
    /// [`StoreError::Checksum`] with the block index, and EOF *before* the
    /// trailer (a file cut exactly at a frame boundary) is also
    /// [`StoreError::Truncated`].
    pub fn next_block(&mut self) -> Result<Option<Block>, mmcore::MmError> {
        if self.records.is_some() {
            return Ok(None);
        }
        let frame = self.read_frame()?;
        self.verify_frame(&frame)?;
        self.finish_frame(frame)
    }

    /// The next block `admit` accepts, or `None` after the trailer.
    ///
    /// `admit` sees each block's tag and raw payload *before* the checksum
    /// pass; a rejected block is discarded without CRC verification — the
    /// point of predicate pushdown, where most row groups are ruled out by
    /// their stats prefix and neither their column bytes nor their checksum
    /// are ever touched. The caller must therefore treat what it reads in
    /// `admit` as unverified, and reject only blocks whose content it will
    /// never use beyond the skip decision itself. Admitted blocks and the
    /// trailer are verified exactly as in [`next_block`](Self::next_block).
    pub fn next_block_if(
        &mut self,
        admit: &mut dyn FnMut(u8, &[u8]) -> bool,
    ) -> Result<Option<Block>, mmcore::MmError> {
        if self.records.is_some() {
            return Ok(None);
        }
        loop {
            let frame = self.read_frame()?;
            if frame.tag != TAG_END && !admit(frame.tag, &frame.payload) {
                self.next_index += 1;
                self.blocks_read += 1;
                self.bytes_read += 9 + frame.payload.len() as u64;
                continue;
            }
            self.verify_frame(&frame)?;
            return self.finish_frame(frame);
        }
    }

    /// Read one raw frame off the source. EOF here means the trailer never
    /// arrived: the tail of the file is gone.
    fn read_frame(&mut self) -> Result<RawFrame, mmcore::MmError> {
        let mut tag = [0u8; 1];
        let n = self.source.read(&mut tag).map_err(io_err)?;
        if n == 0 {
            return Err(StoreError::Truncated {
                expected: "trailer",
            }
            .into());
        }
        let mut len_raw = [0u8; 4];
        read_exact_or(&mut self.source, &mut len_raw, "block length")?;
        let len = u32::from_le_bytes(len_raw);
        // Bounded incremental read: a corrupt length field may promise more
        // bytes than exist, which must surface as Truncated, not an OOM.
        let mut payload = Vec::new();
        (&mut self.source)
            .take(u64::from(len))
            .read_to_end(&mut payload)
            .map_err(io_err)?;
        if payload.len() != len as usize {
            return Err(StoreError::Truncated {
                expected: "block payload",
            }
            .into());
        }
        let mut crc_raw = [0u8; 4];
        read_exact_or(&mut self.source, &mut crc_raw, "block checksum")?;
        Ok(RawFrame {
            tag: tag[0],
            len_raw,
            payload,
            crc_raw,
        })
    }

    /// Checksum pass over a frame, streamed across its parts so the frame
    /// is never re-copied into one buffer.
    fn verify_frame(&self, frame: &RawFrame) -> Result<(), mmcore::MmError> {
        let mut crc = crc32_feed(!0u32, &[frame.tag]);
        crc = crc32_feed(crc, &frame.len_raw);
        crc = crc32_feed(crc, &frame.payload);
        if !crc != u32::from_le_bytes(frame.crc_raw) {
            return Err(StoreError::Checksum {
                block: self.next_index,
            }
            .into());
        }
        Ok(())
    }

    /// Account for a verified frame and surface it: the trailer closes the
    /// stream (and publishes the read counters), anything else is a block.
    fn finish_frame(&mut self, frame: RawFrame) -> Result<Option<Block>, mmcore::MmError> {
        self.next_index += 1;
        self.blocks_read += 1;
        self.bytes_read += 9 + frame.payload.len() as u64;
        if frame.tag == TAG_END {
            let mut c = Cursor::new(&frame.payload);
            let records = c.read_varint().map_err(mmcore::MmError::Store)?;
            self.records = Some(records);
            let t = mm_telemetry::global();
            t.counter_scoped("store", "blocks_read", mm_telemetry::Scope::Sim)
                .add(self.blocks_read);
            t.counter_scoped("store", "bytes_read", mm_telemetry::Scope::Sim)
                .add(self.bytes_read);
            return Ok(None);
        }
        Ok(Some(Block {
            tag: frame.tag,
            payload: frame.payload,
        }))
    }
}

/// One frame as read off the wire, checksum not yet verified.
struct RawFrame {
    tag: u8,
    len_raw: [u8; 4],
    payload: Vec<u8>,
    crc_raw: [u8; 4],
}

fn read_exact_or<R: Read>(
    source: &mut R,
    buf: &mut [u8],
    expected: &'static str,
) -> Result<(), mmcore::MmError> {
    source.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            mmcore::MmError::Store(StoreError::Truncated { expected })
        } else {
            mmcore::MmError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmcore::MmError;

    fn sample_file() -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = StoreWriter::new(&mut out, "test-kind").unwrap();
        w.write_block(1, b"hello").unwrap();
        w.write_block(2, &[0u8; 100]).unwrap();
        w.finish(2).unwrap();
        out
    }

    fn read_all(bytes: &[u8]) -> Result<(Vec<Block>, u64), MmError> {
        let mut r = StoreReader::new(bytes, "test-kind")?;
        let mut blocks = Vec::new();
        while let Some(b) = r.next_block()? {
            blocks.push(b);
        }
        let records = r.records().ok_or(MmError::Store(StoreError::Truncated {
            expected: "trailer",
        }))?;
        Ok((blocks, records))
    }

    #[test]
    fn frames_round_trip() {
        let bytes = sample_file();
        let (blocks, records) = read_all(&bytes).unwrap();
        assert_eq!(records, 2);
        assert_eq!(blocks.len(), 2);
        assert_eq!(
            blocks[0],
            Block {
                tag: 1,
                payload: b"hello".to_vec()
            }
        );
        assert_eq!(blocks[1].tag, 2);
        assert_eq!(blocks[1].payload.len(), 100);
    }

    #[test]
    fn wrong_kind_is_a_schema_error() {
        let bytes = sample_file();
        let got = StoreReader::new(bytes.as_slice(), "other-kind").map(|_| ());
        match got {
            Err(MmError::Store(StoreError::Schema(msg))) => {
                assert_eq!(msg, r#"expected kind "other-kind", found "test-kind""#)
            }
            other => panic!("expected a schema error, got {other:?}"),
        }
    }

    #[test]
    fn crc32_matches_the_ieee_reference_vector() {
        // The classic zlib check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(!crc32_feed_bitwise(!0u32, b"123456789"), 0xcbf4_3926);
    }

    /// The bitwise CRC-32 the tables are checked against: 8 shift/xor
    /// steps per byte.
    fn crc32_feed_bitwise(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        crc
    }

    #[test]
    fn table_crc_matches_the_bitwise_reference_at_every_length_and_split() {
        // xorshift64: seeded bytes without a dev-dependency.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next_byte = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.to_le_bytes()[3]
        };
        for len in 0..=257usize {
            let buf: Vec<u8> = (0..len).map(|_| next_byte()).collect();
            let want = crc32_feed_bitwise(!0u32, &buf);
            assert_eq!(crc32(&buf), !want, "len {len}");
            // Three pieces, as `verify_frame` feeds tag, length and payload.
            for i in 0..=len {
                let head = crc32_feed(!0u32, &buf[..i]);
                for j in i..=len {
                    let crc = crc32_feed(crc32_feed(head, &buf[i..j]), &buf[j..]);
                    assert_eq!(crc, want, "len {len}, split at {i} and {j}");
                }
            }
        }
    }

    /// Seeded bytes (xorshift64) without a dev-dependency.
    fn seeded_bytes(len: usize) -> Vec<u8> {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state.to_le_bytes()[5]
            })
            .collect()
    }

    #[test]
    fn slice_by_16_matches_the_bitwise_reference_at_short_lengths_and_odd_tails() {
        let buf = seeded_bytes(4096 + 64);
        // Every length up to four sixteen-byte words, from every alignment.
        for len in 0..=64 {
            for start in 0..16 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    !crc32_feed_bitwise(!0u32, bytes),
                    "len {len} from {start}"
                );
            }
        }
        // Long runs of whole words ending in every odd tail.
        for tail in (1..16).step_by(2) {
            for start in [0, 1, 7, 15] {
                let bytes = &buf[start..start + 4080 + tail];
                assert_eq!(
                    crc32(bytes),
                    !crc32_feed_bitwise(!0u32, bytes),
                    "tail {tail} from {start}"
                );
            }
        }
    }

    #[test]
    fn sealed_frames_write_the_bytes_of_write_block() {
        let payload = seeded_bytes(300);
        let mut want = Vec::new();
        let mut w = StoreWriter::new(&mut want, "test-kind").unwrap();
        w.write_block(7, &payload).unwrap();
        w.finish(1).unwrap();

        let mut frame = vec![0xaa; 3];
        start_frame(&mut frame);
        frame.extend_from_slice(&payload);
        seal_frame(7, &mut frame).unwrap();
        let mut got = Vec::new();
        let mut w = StoreWriter::new(&mut got, "test-kind").unwrap();
        w.write_frame(&frame).unwrap();
        assert_eq!(w.bytes_written(), 9 + "test-kind".len() as u64 + 309);
        w.finish(1).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn unsealed_frames_are_refused_unwritten() {
        let mut out = Vec::new();
        let mut w = StoreWriter::new(&mut out, "test-kind").unwrap();
        let header = w.bytes_written();
        let mut frame = Vec::new();
        start_frame(&mut frame);
        frame.extend_from_slice(b"payload");
        for bad in [&frame[..], &frame[..3], &[][..]] {
            let got = w.write_frame(bad);
            assert!(
                matches!(got, Err(MmError::Store(StoreError::Schema(_)))),
                "{got:?}"
            );
        }
        assert_eq!(w.bytes_written(), header, "nothing was written");
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample_file();
        bytes[0] = b'X';
        assert!(matches!(
            read_all(&bytes),
            Err(MmError::Store(StoreError::BadMagic))
        ));
    }

    #[test]
    fn future_version_is_typed() {
        let mut bytes = sample_file();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            read_all(&bytes),
            Err(MmError::Store(StoreError::Version {
                found: 99,
                supported: FORMAT_VERSION
            }))
        ));
    }

    #[test]
    fn every_truncation_point_is_typed() {
        let bytes = sample_file();
        for cut in 0..bytes.len() {
            let got = read_all(&bytes[..cut]);
            assert!(
                matches!(
                    got,
                    Err(MmError::Store(
                        StoreError::Truncated { .. } | StoreError::BadMagic
                    ))
                ),
                "cut at {cut}: {got:?}"
            );
        }
    }

    #[test]
    fn bit_flips_anywhere_in_a_frame_are_caught() {
        let clean = sample_file();
        // Flips inside frames; the header has no CRC of its own (magic and
        // version field checks cover its load-bearing bytes).
        let header_len = 9 + "test-kind".len();
        for pos in header_len..clean.len() {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x40;
            let got = read_all(&bytes);
            assert!(
                got.is_err(),
                "flip at {pos} went unnoticed: {:?}",
                got.map(|(b, _)| b.len())
            );
        }
    }

    #[test]
    fn rejected_blocks_skip_the_checksum_pass() {
        let mut bytes = sample_file();
        // Corrupt the second block's payload; a filtered read that rejects
        // tag 2 must sail past it — rejected frames are discarded without
        // CRC verification — while the admitted block and trailer verify.
        let header = 9 + "test-kind".len();
        let frame1 = 1 + 4 + 5 + 4;
        bytes[header + frame1 + 7] ^= 1;
        let mut r = StoreReader::new(bytes.as_slice(), "test-kind").unwrap();
        let mut seen = Vec::new();
        while let Some(b) = r.next_block_if(&mut |tag, _| tag != 2).unwrap() {
            seen.push(b.tag);
        }
        assert_eq!(seen, vec![1]);
        assert_eq!(r.records(), Some(2));

        // The same corruption is still caught the moment the block is
        // admitted.
        let mut r = StoreReader::new(bytes.as_slice(), "test-kind").unwrap();
        let got = loop {
            match r.next_block_if(&mut |_, _| true) {
                Ok(Some(_)) => {}
                other => break other,
            }
        };
        assert!(
            matches!(got, Err(MmError::Store(StoreError::Checksum { block: 1 }))),
            "{got:?}"
        );
    }

    #[test]
    fn a_corrupt_trailer_fails_even_under_a_rejecting_filter() {
        let mut bytes = sample_file();
        // Flip a byte in the trailer frame (the last 4 are its CRC; hit
        // the varint payload just before them).
        let n = bytes.len();
        bytes[n - 5] ^= 1;
        let mut r = StoreReader::new(bytes.as_slice(), "test-kind").unwrap();
        let got = loop {
            match r.next_block_if(&mut |_, _| false) {
                Ok(Some(_)) => {}
                other => break other,
            }
        };
        assert!(
            matches!(got, Err(MmError::Store(StoreError::Checksum { .. }))),
            "{got:?}"
        );
    }

    #[test]
    fn checksum_error_names_the_corrupt_block() {
        let mut bytes = sample_file();
        // Flip a byte inside the second block's payload.
        let header = 9 + "test-kind".len();
        let frame1 = 1 + 4 + 5 + 4;
        bytes[header + frame1 + 7] ^= 1;
        assert!(matches!(
            read_all(&bytes),
            Err(MmError::Store(StoreError::Checksum { block: 1 }))
        ));
    }

    #[test]
    fn oversized_length_field_truncates_not_allocates() {
        let mut bytes = sample_file();
        let header = 9 + "test-kind".len();
        // Claim a 2 GiB payload for block 0.
        bytes[header + 1..header + 5].copy_from_slice(&0x8000_0000u32.to_le_bytes());
        assert!(matches!(
            read_all(&bytes),
            Err(MmError::Store(StoreError::Truncated { .. }))
        ));
    }
}
