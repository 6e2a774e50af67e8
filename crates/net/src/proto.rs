//! Typed request/response messages over the frame layer, encoded with
//! mm-json. The query payload itself is an opaque [`Json`] document —
//! mm-net stays below mmexperiments, so the `QueryRequest` ↔ JSON mapping
//! lives next to the engine and this layer only moves validated documents.

use crate::frame::{read_frame, write_frame, TAG_ERR, TAG_OK, TAG_QUERY, TAG_SHUTDOWN, TAG_STATS};
use mm_json::Json;
use mmcore::NetError;
use std::io::{Read, Write};

/// The documented error codes a server response may carry. `bad-request`
/// and `oversized` are flagged as usage errors (client exits 2);
/// `internal` is a runtime condition (client exits 3).
pub mod codes {
    /// The query document failed validation (unknown artifact, conflicting
    /// constraints) — the caller's mistake.
    pub const BAD_REQUEST: &str = "bad-request";
    /// The request frame exceeded the 1 MiB frame cap; the connection
    /// closes after this response.
    pub const OVERSIZED: &str = "oversized";
    /// The server failed while answering (store corruption, I/O).
    pub const INTERNAL: &str = "internal";
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Answer a query; the payload is the engine's wire-form document.
    Query(Json),
    /// Return the Serve-scope telemetry snapshot as JSON.
    Stats,
    /// Drain in-flight work, acknowledge, and exit the server.
    Shutdown,
}

impl Request {
    /// Frame and send this request.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), NetError> {
        match self {
            Request::Query(doc) => write_frame(w, TAG_QUERY, doc.to_string().as_bytes()),
            Request::Stats => write_frame(w, TAG_STATS, b""),
            Request::Shutdown => write_frame(w, TAG_SHUTDOWN, b""),
        }
    }

    /// Read one request; `Ok(None)` when the peer closed cleanly at a
    /// frame boundary.
    pub fn read_from<R: Read>(r: &mut R, max_frame: u32) -> Result<Option<Request>, NetError> {
        let Some((tag, payload)) = read_frame(r, max_frame)? else {
            return Ok(None);
        };
        match tag {
            TAG_QUERY => Ok(Some(Request::Query(parse_payload(&payload)?))),
            TAG_STATS => Ok(Some(Request::Stats)),
            TAG_SHUTDOWN => Ok(Some(Request::Shutdown)),
            t => Err(NetError::Protocol(format!("unknown request tag {t}"))),
        }
    }
}

/// A typed error response (see [`codes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable code from [`codes`].
    pub code: String,
    /// Whether the fault is the caller's (maps to exit 2 client-side).
    pub usage: bool,
    /// Human-readable diagnosis.
    pub message: String,
}

impl WireError {
    /// Build an error response.
    pub fn new(code: &str, usage: bool, message: impl Into<String>) -> WireError {
        WireError {
            code: code.to_string(),
            usage,
            message: message.into(),
        }
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Rejected {
            code: e.code,
            usage: e.usage,
            message: e.message,
        }
    }
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success; the payload document is request-specific.
    Ok(Json),
    /// Typed rejection or failure.
    Err(WireError),
}

impl Response {
    /// Frame and send this response.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), NetError> {
        match self {
            Response::Ok(doc) => write_frame(w, TAG_OK, doc.to_string().as_bytes()),
            Response::Err(e) => {
                let doc = Json::obj([
                    ("code", Json::Str(e.code.clone())),
                    ("usage", Json::Bool(e.usage)),
                    ("message", Json::Str(e.message.clone())),
                ]);
                write_frame(w, TAG_ERR, doc.to_string().as_bytes())
            }
        }
    }

    /// Read one response; a clean close before any frame is a typed
    /// truncation (the client was owed an answer).
    pub fn read_from<R: Read>(r: &mut R, max_frame: u32) -> Result<Response, NetError> {
        let Some((tag, payload)) = read_frame(r, max_frame)? else {
            return Err(NetError::Truncated {
                expected: "response",
            });
        };
        match tag {
            TAG_OK => Ok(Response::Ok(parse_payload(&payload)?)),
            TAG_ERR => {
                let doc = parse_payload(&payload)?;
                let code = doc["code"]
                    .as_str()
                    .ok_or_else(|| NetError::Protocol("error response lacks a code".to_string()))?;
                let message = doc["message"].as_str().unwrap_or_default();
                Ok(Response::Err(WireError {
                    code: code.to_string(),
                    usage: doc["usage"].as_bool().unwrap_or(false),
                    message: message.to_string(),
                }))
            }
            t => Err(NetError::Protocol(format!("unknown response tag {t}"))),
        }
    }
}

fn parse_payload(payload: &[u8]) -> Result<Json, NetError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| NetError::Protocol("payload is not UTF-8".to_string()))?;
    Json::parse(text).map_err(|e| {
        NetError::Protocol(format!(
            "payload JSON parse error at byte {}: {}",
            e.at, e.msg
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::DEFAULT_MAX_FRAME;

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Query(Json::obj([("target", Json::Str("f16".into()))])),
            Request::Stats,
            Request::Shutdown,
        ] {
            let mut buf = Vec::new();
            req.write_to(&mut buf).unwrap();
            let back = Request::read_from(&mut buf.as_slice(), DEFAULT_MAX_FRAME)
                .unwrap()
                .unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let ok = Response::Ok(Json::obj([("text", Json::Str("hi".into()))]));
        let err = Response::Err(WireError::new(codes::INTERNAL, false, "entry unreadable"));
        for resp in [ok, err] {
            let mut buf = Vec::new();
            resp.write_to(&mut buf).unwrap();
            let back = Response::read_from(&mut buf.as_slice(), DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn unknown_tags_and_bad_payloads_are_protocol_errors() {
        let mut buf = Vec::new();
        crate::frame::write_frame(&mut buf, 0x77, b"{}").unwrap();
        assert!(matches!(
            Request::read_from(&mut buf.as_slice(), DEFAULT_MAX_FRAME).unwrap_err(),
            NetError::Protocol(_)
        ));
        let mut buf = Vec::new();
        crate::frame::write_frame(&mut buf, crate::frame::TAG_OK, b"{not json").unwrap();
        assert!(matches!(
            Response::read_from(&mut buf.as_slice(), DEFAULT_MAX_FRAME).unwrap_err(),
            NetError::Protocol(_)
        ));
        // A rejection converts into the typed client-side error.
        let net: NetError = WireError::new(codes::INTERNAL, false, "entry unreadable").into();
        assert!(matches!(net, NetError::Rejected { ref code, .. } if code == codes::INTERNAL));
    }
}
