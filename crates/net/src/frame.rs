//! Wire framing for the mmqd query protocol (DESIGN.md §14).
//!
//! The layout mirrors `mm-store`'s block discipline — explicit magic,
//! explicit version, length-prefixed payloads, CRC-32 (IEEE, zlib
//! convention) over every payload — so the same failure taxonomy applies:
//! every malformed input decodes to a typed [`NetError`], never a panic,
//! and oversized length prefixes are rejected *before* any allocation.
//!
//! ```text
//! hello (once per direction):  "MMQN" | version: u32 LE
//! frame:                       tag: u8 | len: u32 LE | payload | crc32(payload): u32 LE
//! ```

use mm_store::crc32;
use mmcore::NetError;
use std::io::{Read, Write};

/// Leading bytes of the hello exchange: `MMQN` (mm query network).
pub const MAGIC: [u8; 4] = *b"MMQN";
/// Protocol version spoken by this build.
pub const PROTOCOL_VERSION: u32 = 1;
/// Cap on a frame's payload length, both ways (1 MiB) — queries and rendered
/// answers are all far smaller; anything bigger is a protocol violation.
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// Client→server frame tags.
pub const TAG_QUERY: u8 = 1;
/// Control: return the Serve-scope telemetry snapshot.
pub const TAG_STATS: u8 = 2;
/// Control: drain in-flight work, then exit 0.
pub const TAG_SHUTDOWN: u8 = 3;
/// Server→client: successful response, JSON payload.
pub const TAG_OK: u8 = 0x10;
/// Server→client: typed error response, JSON `{code, usage, message}`.
pub const TAG_ERR: u8 = 0x11;

fn io_to_net(e: std::io::Error, expected: &'static str) -> NetError {
    match e.kind() {
        std::io::ErrorKind::UnexpectedEof => NetError::Truncated { expected },
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => NetError::TimedOut,
        _ => NetError::Io(e.to_string()),
    }
}

/// Send this side's hello: magic + protocol version.
pub fn write_hello<W: Write>(w: &mut W) -> Result<(), NetError> {
    let mut hello = [0u8; 8];
    hello[..4].copy_from_slice(&MAGIC);
    hello[4..].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    w.write_all(&hello).map_err(|e| io_to_net(e, "hello"))?;
    w.flush().map_err(|e| io_to_net(e, "hello"))?;
    Ok(())
}

/// Read and validate the peer's hello, returning its protocol version.
/// A version *older* than ours is accepted (v1 is the floor); a newer one
/// is a typed [`NetError::Version`].
pub fn read_hello<R: Read>(r: &mut R) -> Result<u32, NetError> {
    let mut hello = [0u8; 8];
    r.read_exact(&mut hello)
        .map_err(|e| io_to_net(e, "hello"))?;
    if hello[..4] != MAGIC {
        return Err(NetError::BadMagic);
    }
    let mut v = [0u8; 4];
    v.copy_from_slice(&hello[4..]);
    let version = u32::from_le_bytes(v);
    if version > PROTOCOL_VERSION {
        return Err(NetError::Version {
            found: version,
            supported: PROTOCOL_VERSION,
        });
    }
    Ok(version)
}

/// Write one frame: tag, length prefix, payload, payload CRC — assembled
/// first and handed to `w` in one `write_all`, so on a `TCP_NODELAY`
/// socket a frame leaves as one segment, not three.
pub fn write_frame<W: Write>(w: &mut W, tag: u8, payload: &[u8]) -> Result<(), NetError> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        NetError::Protocol("frame payload exceeds the u32 length prefix".to_string())
    })?;
    let mut frame = Vec::with_capacity(payload.len() + 9);
    frame.push(tag);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&frame).map_err(|e| io_to_net(e, "frame"))?;
    w.flush().map_err(|e| io_to_net(e, "frame"))?;
    Ok(())
}

/// Read one frame, returning `Ok(None)` on a clean close *at a frame
/// boundary* (the peer finished and hung up — not an error). A close
/// mid-frame is [`NetError::Truncated`]; a length prefix above `max_frame`
/// is [`NetError::Oversized`] and nothing past the header is consumed
/// (the stream is desynchronized — the connection must close after the
/// typed response).
pub fn read_frame<R: Read>(r: &mut R, max_frame: u32) -> Result<Option<(u8, Vec<u8>)>, NetError> {
    let mut tag = [0u8; 1];
    // A clean EOF shows up as a zero-byte first read; anything after the
    // tag byte must complete or the frame is truncated.
    loop {
        match r.read(&mut tag) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_to_net(e, "frame header")),
        }
    }
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)
        .map_err(|e| io_to_net(e, "frame header"))?;
    let len = u32::from_le_bytes(len_buf);
    if len > max_frame {
        return Err(NetError::Oversized {
            len,
            max: max_frame,
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|e| io_to_net(e, "frame payload"))?;
    let mut crc_buf = [0u8; 4];
    r.read_exact(&mut crc_buf)
        .map_err(|e| io_to_net(e, "frame checksum"))?;
    if u32::from_le_bytes(crc_buf) != crc32(&payload) {
        return Err(NetError::Checksum);
    }
    Ok(Some((tag[0], payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_hello(&mut buf).unwrap();
        write_frame(&mut buf, TAG_QUERY, b"{\"target\":\"f16\"}").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_hello(&mut r).unwrap(), PROTOCOL_VERSION);
        let (tag, payload) = read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(tag, TAG_QUERY);
        assert_eq!(payload, b"{\"target\":\"f16\"}");
        // Clean EOF at the boundary is Ok(None), not an error.
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(), None);
    }

    #[test]
    fn malformed_inputs_decode_to_typed_errors() {
        // Wrong magic.
        let mut r: &[u8] = b"XXXX\x01\x00\x00\x00";
        assert_eq!(read_hello(&mut r).unwrap_err(), NetError::BadMagic);
        // Future version.
        let mut hello = Vec::new();
        hello.extend_from_slice(&MAGIC);
        hello.extend_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            read_hello(&mut hello.as_slice()).unwrap_err(),
            NetError::Version { found: 99, .. }
        ));
        // Truncated hello.
        let mut r: &[u8] = b"MMQ";
        assert!(matches!(
            read_hello(&mut r).unwrap_err(),
            NetError::Truncated { .. }
        ));
        // Oversized length prefix: rejected before allocation.
        let mut frame = vec![TAG_QUERY];
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut frame.as_slice(), 64).unwrap_err(),
            NetError::Oversized {
                len: u32::MAX,
                max: 64
            }
        ));
        // Truncated payload.
        let mut full = Vec::new();
        write_frame(&mut full, TAG_OK, b"hello there").unwrap();
        let cut = &full[..full.len() - 6];
        assert!(matches!(
            read_frame(&mut &cut[..], 64).unwrap_err(),
            NetError::Truncated { .. }
        ));
        // Flipped payload bit fails the CRC.
        let mut bad = full.clone();
        bad[7] ^= 0x40;
        assert_eq!(
            read_frame(&mut bad.as_slice(), 64).unwrap_err(),
            NetError::Checksum
        );
    }

    /// A writer that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_of_the_documented_bytes() {
        for payload in [&b""[..], b"{\"target\":\"f16\"}", &[0xAB; 3000]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, TAG_OK, payload).unwrap();
            assert_eq!(w.writes.len(), 1, "{} payload bytes", payload.len());
            let mut want = vec![TAG_OK];
            want.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            want.extend_from_slice(payload);
            want.extend_from_slice(&crc32(payload).to_le_bytes());
            assert_eq!(w.writes[0], want);
        }
    }

    #[test]
    fn older_peer_versions_are_accepted() {
        let mut hello = Vec::new();
        hello.extend_from_slice(&MAGIC);
        hello.extend_from_slice(&1u32.to_le_bytes());
        assert_eq!(read_hello(&mut hello.as_slice()).unwrap(), 1);
    }
}
