//! The mmqd serving loop (DESIGN.md §14): one shared [`QueryEngine`]
//! answering framed wire requests from many concurrent connections.
//!
//! Shape: one `mm-exec` scatter whose first task runs mm-net's accept
//! loop, parking connections on a bounded [`ConnQueue`], and whose other
//! tasks — one long-running loop per worker — pop connections and speak
//! the [`mm_net::proto`] protocol over each. Every worker borrows the
//! *same* engine, so the per-process memo and the store's query cache are
//! shared across connections: a query rendered once is a warm hit for
//! every later client, opening zero data blocks.
//!
//! A worker is dedicated to its connection until the peer hangs up — the
//! intended client (`mmq --connect`) asks its questions and disconnects,
//! and answers its requests in lockstep, so at most `workers` queries
//! render at once. Clients that idle forever hold a worker each; beyond
//! `workers` of those, new connections park in the queue until one
//! leaves.
//!
//! One gate stands in front of the engine: a frame above the 1 MiB
//! [`DEFAULT_MAX_FRAME`] gets the typed `oversized` response, and the
//! connection closes, because the stream is desynchronized past the
//! header. Every well-framed query gets its answer, a typed `bad-request`
//! (the caller's mistake) or an `internal` error (the store's).
//!
//! A `shutdown` control frame flips the drain flag, closes the queue
//! (parked connections are still served), wakes the accept loop with one
//! connection to the listener, and [`serve`] returns once every task has
//! exited — the caller then exits 0.

use crate::query::{QueryEngine, QueryRequest};
use mm_exec::Executor;
use mm_json::{Json, ToJson};
use mm_net::{
    codes, read_hello, write_hello, ConnQueue, Request, Response, WireError, DEFAULT_MAX_FRAME,
};
use mm_telemetry::Scope;
use mmcore::{MmError, NetError};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// How long an idle connection read blocks before the worker re-checks
/// the drain flag. Also the slow-sender bound: a frame that stalls longer
/// than this mid-byte closes the connection (slow-loris protection).
const POLL_MS: u64 = 200;
/// Read/write budget for the hello exchange and response writes.
const IO_MS: u64 = 5_000;
/// Connections parked between accept and a free worker; beyond this,
/// backpressure lands in the listener's OS backlog.
const QUEUE_CAP: usize = 64;

/// Tuning for [`serve`]. `Default` sizes the worker pool from
/// `MM_THREADS`, like every other binary's thread count.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads popping connections; the accept loop runs on one
    /// more.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: Executor::from_env().threads(),
        }
    }
}

/// Everything a task needs, shared by reference across the scatter.
struct ServeState<'a> {
    engine: &'a QueryEngine,
    queue: ConnQueue,
    /// The listener's address, which shutdown connects to once to wake
    /// the accept loop.
    addr: SocketAddr,
    draining: AtomicBool,
    metrics: ServeMetrics,
}

/// The Serve-scope telemetry section mmqd maintains and the `stats`
/// control request returns, registered once per [`serve`].
struct ServeMetrics {
    connections: mm_telemetry::Counter,
    requests_served: mm_telemetry::Counter,
    requests_rejected: mm_telemetry::Counter,
    queries: mm_telemetry::Counter,
    cache_hits: mm_telemetry::Counter,
    queue_depth: mm_telemetry::Histogram,
    service_ms: mm_telemetry::Histogram,
}

impl ServeMetrics {
    fn register() -> ServeMetrics {
        let reg = mm_telemetry::global();
        let s = "serve";
        ServeMetrics {
            connections: reg.counter_scoped(s, "connections", Scope::Serve),
            requests_served: reg.counter_scoped(s, "requests_served", Scope::Serve),
            requests_rejected: reg.counter_scoped(s, "requests_rejected", Scope::Serve),
            queries: reg.counter_scoped(s, "queries", Scope::Serve),
            cache_hits: reg.counter_scoped(s, "cache_hits", Scope::Serve),
            queue_depth: reg.histogram_scoped(
                s,
                "queue_depth",
                Scope::Serve,
                &[1, 2, 4, 8, 16, 32, 64],
            ),
            service_ms: reg.histogram_scoped(
                s,
                "service_ms",
                Scope::Serve,
                &[1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000],
            ),
        }
    }
}

/// Serve `engine` on `listener` until a `shutdown` control frame drains
/// the pool. Blocks the calling thread for the server's whole life;
/// returns `Ok(())` after a clean drain so the caller can exit 0.
pub fn serve(
    engine: &QueryEngine,
    listener: TcpListener,
    cfg: &ServeConfig,
) -> Result<(), MmError> {
    let addr = listener
        .local_addr()
        .map_err(|e| MmError::Net(NetError::Io(e.to_string())))?;
    let state = ServeState {
        engine,
        queue: ConnQueue::new(QUEUE_CAP),
        addr,
        draining: AtomicBool::new(false),
        metrics: ServeMetrics::register(),
    };
    let workers = cfg.workers.max(1);
    // Task 0 is the accept loop; every other task pops connections until
    // the queue closes and drains. A pool as wide as the task list runs
    // every task at once, and the scatter returns once every loop has
    // exited: the drain barrier shutdown needs.
    Executor::new(workers + 1).scatter_gather((0..=workers).collect(), |_, task| {
        if task == 0 {
            mm_net::accept_into(&listener, &state.queue);
            return;
        }
        while let Some(conn) = state.queue.pop() {
            state.metrics.connections.inc();
            // Per-connection failures must never take the server down.
            handle_conn(&state, conn);
        }
    });
    Ok(())
}

/// Speak the protocol over one connection until it closes, errors, or the
/// server drains. Never panics and never blocks unboundedly: every read
/// carries a timeout, and idle waits poll the drain flag.
fn handle_conn(state: &ServeState<'_>, conn: TcpStream) {
    conn.set_nodelay(true).ok();
    let io = Some(Duration::from_millis(IO_MS));
    if conn
        .set_read_timeout(io)
        .and_then(|()| conn.set_write_timeout(io))
        .is_err()
    {
        return;
    }
    let Ok(mut reader) = conn.try_clone() else {
        return;
    };
    let mut writer = conn;
    // Handshake: a bad magic or a future version is the peer's problem —
    // drop the connection; nothing past the hello is trustworthy.
    if read_hello(&mut reader).is_err() || write_hello(&mut writer).is_err() {
        state.metrics.requests_rejected.inc();
        return;
    }
    reader
        .set_read_timeout(Some(Duration::from_millis(POLL_MS)))
        .ok();
    let mut peek = [0u8; 1];
    loop {
        // Wait for the next request byte without consuming it, so an idle
        // timeout never desynchronizes the frame stream.
        match reader.peek(&mut peek) {
            Ok(0) => return, // clean close
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if state.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        // A frame has started: it must now complete within the poll
        // budget or the sender is stalling — close, don't hang.
        match Request::read_from(&mut reader, DEFAULT_MAX_FRAME) {
            Ok(None) => return,
            Ok(Some(req)) => {
                let keep_going = handle_request(state, &mut writer, req);
                if !keep_going {
                    return;
                }
            }
            Err(NetError::Oversized { len, max }) => {
                // The payload is unread; the stream is desynchronized.
                // Send the typed rejection, then close.
                state.metrics.requests_rejected.inc();
                let err = WireError::new(
                    codes::OVERSIZED,
                    true,
                    format!("request frame of {len} bytes exceeds the {max}-byte cap"),
                );
                Response::Err(err).write_to(&mut writer).ok();
                return;
            }
            Err(NetError::Protocol(msg)) => {
                state.metrics.requests_rejected.inc();
                let err = WireError::new(codes::BAD_REQUEST, true, msg);
                Response::Err(err).write_to(&mut writer).ok();
                return;
            }
            // Truncation, checksum damage, timeouts mid-frame, transport
            // errors: the peer is gone or garbling — nothing to answer.
            Err(_) => {
                state.metrics.requests_rejected.inc();
                return;
            }
        }
    }
}

/// Answer one well-framed request. Returns `false` when the connection
/// should close (after a shutdown acknowledgement).
fn handle_request(state: &ServeState<'_>, writer: &mut TcpStream, req: Request) -> bool {
    let m = &state.metrics;
    match req {
        Request::Stats => {
            let snap = mm_telemetry::global()
                .snapshot()
                .retain_sections(&["serve"])
                .to_json();
            m.requests_served.inc();
            Response::Ok(snap).write_to(writer).is_ok()
        }
        Request::Shutdown => {
            m.requests_served.inc();
            state.draining.store(true, Ordering::SeqCst);
            // Close the queue: parked connections still drain through
            // `pop`, and idle workers wake to `None`. The accept loop
            // notices at its next connection, so make one.
            state.queue.close();
            TcpStream::connect(state.addr).ok();
            Response::Ok(Json::obj([("draining", Json::Bool(true))]))
                .write_to(writer)
                .ok();
            false
        }
        Request::Query(doc) => {
            let resp = answer_query(state, &doc);
            if matches!(resp, Response::Err(_)) {
                m.requests_rejected.inc();
            } else {
                m.requests_served.inc();
            }
            resp.write_to(writer).is_ok()
        }
    }
}

/// Render one query document.
fn answer_query(state: &ServeState<'_>, doc: &Json) -> Response {
    let m = &state.metrics;
    m.queries.inc();
    m.queue_depth.record(state.queue.depth() as u64);
    let result = m
        .service_ms
        .time_ms(|| QueryRequest::from_wire(doc).and_then(|req| state.engine.run(&req)));
    match result {
        Ok(res) => {
            if res.cached {
                m.cache_hits.inc();
            }
            Response::Ok(res.to_wire())
        }
        Err(e) if e.is_usage() => {
            Response::Err(WireError::new(codes::BAD_REQUEST, true, e.to_string()))
        }
        Err(e) => Response::Err(WireError::new(codes::INTERNAL, false, e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.workers >= 1);
    }
}
