//! The workspace-wide error type.
//!
//! Every fallible surface above the pure model layer — artifact dispatch,
//! dataset export, the `mmx` CLI — returns [`MmError`]. The variants map
//! onto how a failure should be reported: [`MmError::exit_code`] gives the
//! CLI convention (2 for usage mistakes, 3 for runtime failures).

use std::fmt;

/// What went wrong while reading or writing an `mm-store` file.
///
/// Every decode failure in the binary persistence layer maps onto one of
/// these variants — the store never panics on malformed input, it returns
/// `MmError::Store` and the CLI exits 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The file ended before a complete header, block frame, or trailer.
    Truncated {
        /// What the reader was in the middle of ("header", "block payload", …).
        expected: &'static str,
    },
    /// The leading magic bytes are not `MMST` — not a store file at all.
    BadMagic,
    /// The file's format version is newer than this build can decode.
    Version {
        /// Version stamped in the file header.
        found: u32,
        /// Highest version this reader supports.
        supported: u32,
    },
    /// A block's CRC-32 does not match its payload (bit rot / bit flip).
    Checksum {
        /// Zero-based index of the corrupt block within the file.
        block: u64,
    },
    /// The framing is intact but the content is not decodable: unknown
    /// dataset kind, a dictionary index out of range, a string that does
    /// not intern into the workspace vocabulary, a bad enum tag, …
    Schema(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Truncated { expected } => {
                write!(f, "truncated store file (while reading {expected})")
            }
            StoreError::BadMagic => write!(f, "bad magic: not an mm-store file"),
            StoreError::Version { found, supported } => write!(
                f,
                "store format version {found} is newer than supported version {supported}"
            ),
            StoreError::Checksum { block } => {
                write!(f, "checksum mismatch in block {block} (corrupt file)")
            }
            StoreError::Schema(msg) => write!(f, "schema error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// What went wrong on the `mm-net` query-serving wire (DESIGN.md §14).
///
/// The framed protocol mirrors `mm-store`'s decode discipline: every
/// malformed input maps onto a typed variant — the peer never panics and
/// never hangs, it returns `MmError::Net` and the CLI exits 3 (except
/// [`NetError::Rejected`] responses flagged as usage errors, which exit 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The handshake did not start with the protocol magic — the peer is
    /// not speaking the mmqd protocol at all.
    BadMagic,
    /// The peer's protocol version is newer than this build speaks.
    Version {
        /// Version the peer announced.
        found: u32,
        /// Highest version this side supports.
        supported: u32,
    },
    /// The connection closed before a complete handshake or frame.
    Truncated {
        /// What the reader was in the middle of ("hello", "frame header", …).
        expected: &'static str,
    },
    /// A frame announced a payload larger than the negotiated cap. The
    /// stream is unrecoverable past the header, so the connection closes
    /// after the typed `oversized` response.
    Oversized {
        /// Announced payload length.
        len: u32,
        /// Maximum the receiver accepts.
        max: u32,
    },
    /// A frame's CRC-32 does not match its payload.
    Checksum,
    /// The framing is intact but the content is not decodable: unknown
    /// frame tag, undecodable JSON payload, a response missing its fields.
    Protocol(String),
    /// A read or write on the socket timed out.
    TimedOut,
    /// The server answered with a typed error response (the documented
    /// codes: `bad-request`, `overloaded`, `deadline`, `oversized`,
    /// `version`, `internal`).
    Rejected {
        /// Machine-readable error code.
        code: String,
        /// Whether the fault is the caller's (exit 2) or runtime (exit 3).
        usage: bool,
        /// Human-readable diagnosis.
        message: String,
    },
    /// The underlying socket operation failed.
    Io(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::BadMagic => write!(f, "bad magic: peer is not speaking the mmqd protocol"),
            NetError::Version { found, supported } => write!(
                f,
                "protocol version {found} is newer than supported version {supported}"
            ),
            NetError::Truncated { expected } => {
                write!(f, "connection closed mid-{expected}")
            }
            NetError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            NetError::Checksum => write!(f, "frame checksum mismatch (corrupt wire data)"),
            NetError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            NetError::TimedOut => write!(f, "socket operation timed out"),
            NetError::Rejected { code, message, .. } => {
                write!(f, "server rejected the request ({code}): {message}")
            }
            NetError::Io(msg) => write!(f, "socket error: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Unified error for the experiment/export/CLI layers.
#[derive(Debug)]
pub enum MmError {
    /// An underlying I/O operation failed (export files, metrics files).
    Io(std::io::Error),
    /// JSON could not be parsed or decoded into the expected shape.
    Json(String),
    /// A configuration value is out of range or inconsistent.
    Config(String),
    /// An artifact id that no experiment produces.
    UnknownArtifact(String),
    /// A measurement campaign or its validation failed.
    Campaign(String),
    /// A dataset row violates the D2 value contract (non-finite value, a
    /// magnitude beyond the exact half-grid range, or an off-grid value).
    Dataset(String),
    /// A binary store file could not be decoded (see [`StoreError`]).
    Store(StoreError),
    /// The query-serving wire failed or the server rejected the request
    /// (see [`NetError`]).
    Net(NetError),
}

impl MmError {
    /// Whether this error is the caller's mistake (bad flag, unknown
    /// artifact) rather than a runtime failure. A server rejection flagged
    /// `usage` (e.g. `bad-request` for a malformed query) counts too, so
    /// `mmq --connect` keeps the local exit-code convention.
    pub fn is_usage(&self) -> bool {
        matches!(
            self,
            MmError::UnknownArtifact(_)
                | MmError::Config(_)
                | MmError::Net(NetError::Rejected { usage: true, .. })
        )
    }

    /// Process exit code under the CLI convention: 2 for usage errors,
    /// 3 for runtime failures.
    pub fn exit_code(&self) -> i32 {
        if self.is_usage() {
            2
        } else {
            3
        }
    }
}

impl fmt::Display for MmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "i/o error: {e}"),
            MmError::Json(msg) => write!(f, "json error: {msg}"),
            MmError::Config(msg) => write!(f, "config error: {msg}"),
            MmError::UnknownArtifact(id) => {
                write!(f, "unknown artifact {id:?} (try `mmx list`)")
            }
            MmError::Campaign(msg) => write!(f, "campaign error: {msg}"),
            MmError::Dataset(msg) => write!(f, "dataset error: {msg}"),
            MmError::Store(e) => write!(f, "store error: {e}"),
            MmError::Net(e) => write!(f, "net error: {e}"),
        }
    }
}

impl std::error::Error for MmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MmError::Io(e) => Some(e),
            MmError::Store(e) => Some(e),
            MmError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for MmError {
    fn from(e: NetError) -> Self {
        MmError::Net(e)
    }
}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

impl From<StoreError> for MmError {
    fn from(e: StoreError) -> Self {
        MmError::Store(e)
    }
}

impl From<mm_json::ParseError> for MmError {
    fn from(e: mm_json::ParseError) -> Self {
        MmError::Json(format!("parse error at byte {}: {}", e.at, e.msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_errors_exit_2_runtime_errors_exit_3() {
        assert_eq!(MmError::UnknownArtifact("zz".into()).exit_code(), 2);
        assert_eq!(MmError::Config("bad scale".into()).exit_code(), 2);
        assert_eq!(MmError::Json("truncated".into()).exit_code(), 3);
        assert_eq!(MmError::Campaign("count mismatch".into()).exit_code(), 3);
        assert_eq!(MmError::Dataset("NaN value".into()).exit_code(), 3);
        assert_eq!(MmError::Store(StoreError::BadMagic).exit_code(), 3);
        assert_eq!(
            MmError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone")).exit_code(),
            3
        );
    }

    #[test]
    fn conversions_preserve_the_message() {
        let parse_err = mm_json::Json::parse("{").unwrap_err();
        let e: MmError = parse_err.into();
        assert!(matches!(&e, MmError::Json(m) if m.contains("parse error")));
    }

    #[test]
    fn store_variants_carry_their_diagnosis() {
        let cases: [(StoreError, &str); 5] = [
            (StoreError::Truncated { expected: "header" }, "truncated"),
            (StoreError::BadMagic, "magic"),
            (
                StoreError::Version {
                    found: 9,
                    supported: 1,
                },
                "version 9",
            ),
            (StoreError::Checksum { block: 3 }, "block 3"),
            (StoreError::Schema("bad tag".into()), "bad tag"),
        ];
        for (err, needle) in cases {
            let wrapped = MmError::from(err.clone());
            assert_eq!(wrapped.exit_code(), 3, "{err}");
            assert!(wrapped.to_string().contains(needle), "{err}");
            assert!(!wrapped.is_usage());
        }
    }

    #[test]
    fn net_variants_follow_the_exit_convention() {
        // Wire-level damage is a runtime failure (exit 3)...
        for err in [
            NetError::BadMagic,
            NetError::Version {
                found: 9,
                supported: 1,
            },
            NetError::Truncated { expected: "hello" },
            NetError::Oversized { len: 9, max: 4 },
            NetError::Checksum,
            NetError::Protocol("bad tag".into()),
            NetError::TimedOut,
            NetError::Io("refused".into()),
        ] {
            let wrapped = MmError::from(err.clone());
            assert_eq!(wrapped.exit_code(), 3, "{err}");
            assert!(!wrapped.is_usage());
        }
        // ...but a server rejection flagged `usage` keeps exit 2, so
        // `mmq --connect` matches local mmq's convention.
        let usage = MmError::from(NetError::Rejected {
            code: "bad-request".into(),
            usage: true,
            message: "unknown artifact".into(),
        });
        assert_eq!(usage.exit_code(), 2);
        let runtime = MmError::from(NetError::Rejected {
            code: "overloaded".into(),
            usage: false,
            message: "in-flight cap".into(),
        });
        assert_eq!(runtime.exit_code(), 3);
        assert!(runtime.to_string().contains("overloaded"));
    }

    #[test]
    fn display_names_the_variant() {
        assert!(MmError::UnknownArtifact("q9".into())
            .to_string()
            .contains("q9"));
        assert!(MmError::Campaign("boom".into())
            .to_string()
            .starts_with("campaign"));
    }
}
