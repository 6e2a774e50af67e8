//! # mm-net — the mmqd wire protocol and serving primitives
//!
//! A zero-dependency (in-tree only) framed TCP protocol for the resident
//! query server (DESIGN.md §14):
//!
//! * [`frame`] — the byte layout: a magic/versioned hello per direction,
//!   then length-prefixed CRC-checked frames, reusing `mm-store`'s
//!   checksum discipline and its typed-failure taxonomy ([`NetError`]).
//! * [`proto`] — typed [`Request`]/[`Response`] messages encoded with
//!   mm-json, including the documented error [`codes`].
//! * [`server`] — the bounded [`ConnQueue`] and the accept loop
//!   ([`accept_into`]), run on the caller's thread.
//! * [`Client`] — the blocking client `mmq --connect` uses: connect,
//!   handshake, then request/response in lockstep.
//!
//! mm-net sits below mmexperiments: query payloads cross this layer as
//! opaque mm-json documents, and the engine-side codec lives next to
//! `QueryEngine`.

#![forbid(unsafe_code)]

pub mod frame;
pub mod proto;
pub mod server;

pub use frame::{
    read_frame, read_hello, write_frame, write_hello, DEFAULT_MAX_FRAME, MAGIC, PROTOCOL_VERSION,
};
pub use mmcore::NetError;
pub use proto::{codes, Request, Response, WireError};
pub use server::{accept_into, ConnQueue};

use std::io::BufReader;
use std::net::TcpStream;
use std::time::Duration;

/// A blocking protocol client: one TCP connection, hello exchanged,
/// requests answered in order, responses up to [`DEFAULT_MAX_FRAME`].
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect, exchange hellos, and validate the server's version.
    /// `timeout_ms` bounds every read and write so a wedged server
    /// surfaces as [`NetError::TimedOut`] instead of a hang; a zero
    /// timeout is an I/O error.
    pub fn connect(addr: &str, timeout_ms: u64) -> Result<Client, NetError> {
        let stream =
            TcpStream::connect(addr).map_err(|e| NetError::Io(format!("connect {addr}: {e}")))?;
        stream.set_nodelay(true).ok();
        let t = Some(Duration::from_millis(timeout_ms));
        stream
            .set_read_timeout(t)
            .and_then(|()| stream.set_write_timeout(t))
            .map_err(|e| NetError::Io(e.to_string()))?;
        let writer = stream
            .try_clone()
            .map_err(|e| NetError::Io(e.to_string()))?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
        };
        write_hello(&mut client.writer)?;
        read_hello(&mut client.reader)?;
        Ok(client)
    }

    /// Send one request and block for its response.
    pub fn request(&mut self, req: &Request) -> Result<Response, NetError> {
        req.write_to(&mut self.writer)?;
        Response::read_from(&mut self.reader, DEFAULT_MAX_FRAME)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_json::Json;

    /// A miniature echo server over the real frame layer: enough to prove
    /// the client handshake and request/response lockstep end to end.
    #[test]
    fn client_round_trips_against_a_queue_fed_echo_server() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let queue = ConnQueue::new(2);
        std::thread::scope(|scope| {
            let acceptor = scope.spawn(|| accept_into(&listener, &queue));
            let server = scope.spawn(|| {
                while let Some(conn) = queue.pop() {
                    let mut reader = BufReader::new(conn.try_clone().unwrap());
                    let mut writer = conn;
                    read_hello(&mut reader).unwrap();
                    write_hello(&mut writer).unwrap();
                    while let Ok(Some(req)) = Request::read_from(&mut reader, DEFAULT_MAX_FRAME) {
                        let resp = match req {
                            Request::Query(doc) => Response::Ok(doc),
                            Request::Stats => Response::Ok(Json::obj([])),
                            Request::Shutdown => {
                                Response::Err(WireError::new(codes::INTERNAL, false, "nope"))
                            }
                        };
                        resp.write_to(&mut writer).unwrap();
                    }
                }
            });

            let mut client = Client::connect(&addr.to_string(), 5_000).unwrap();
            let doc = Json::obj([("target", Json::Str("t3".into()))]);
            match client.request(&Request::Query(doc.clone())).unwrap() {
                Response::Ok(echo) => assert_eq!(echo.to_string(), doc.to_string()),
                other => panic!("expected echo, got {other:?}"),
            }
            match client.request(&Request::Shutdown).unwrap() {
                Response::Err(e) => assert_eq!(e.code, codes::INTERNAL),
                other => panic!("expected error response, got {other:?}"),
            }
            drop(client);
            queue.close();
            // Wake the blocked accept: the loop refuses the connection and returns.
            std::net::TcpStream::connect(addr).unwrap();
            acceptor.join().unwrap();
            server.join().unwrap();
        });
    }
}
