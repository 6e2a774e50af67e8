//! Server-side primitives for mmqd: the bounded connection queue the
//! accept loop feeds, and the accept loop itself.
//!
//! mm-net reads no clock and starts no thread: socket timeouts bound every
//! wait, mmqd times its requests through mm-telemetry, and [`accept_into`]
//! runs on whichever thread calls it — mmqd runs it as one task of the
//! same mm-exec scatter as its workers.

use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::sync::{Condvar, Mutex};

/// A bounded MPMC hand-off queue from the accept loop to the worker pool.
///
/// `push` blocks while the queue is at capacity (backpressure lands in the
/// listener's OS backlog), and returns `false` once the queue is closed —
/// the accept loop's signal to stop. `pop` keeps draining queued
/// connections after close (every accepted connection is served), and
/// returns `None` only when the queue is closed *and* empty.
pub struct ConnQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    cap: usize,
}

struct QueueState {
    conns: VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    /// A queue admitting at most `cap` parked connections (clamped ≥ 1).
    pub fn new(cap: usize) -> ConnQueue {
        ConnQueue {
            state: Mutex::new(QueueState {
                conns: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            cap: cap.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        // mm-allow(E001): a poisoned queue mutex means a worker already panicked; propagate
        self.state.lock().expect("connection queue poisoned")
    }

    /// Park an accepted connection; blocks while full, `false` if closed
    /// (the connection is dropped and the accept loop should exit).
    pub fn push(&self, conn: TcpStream) -> bool {
        let mut st = self.lock();
        while st.conns.len() >= self.cap && !st.closed {
            // mm-allow(E001): condvar wait only fails on a poisoned mutex; propagate the panic
            st = self.cv.wait(st).expect("connection queue poisoned");
        }
        if st.closed {
            return false;
        }
        st.conns.push_back(conn);
        self.cv.notify_all();
        true
    }

    /// Take the next connection; blocks until one arrives, `None` once
    /// the queue is closed and drained.
    pub fn pop(&self) -> Option<TcpStream> {
        let mut st = self.lock();
        loop {
            if let Some(conn) = st.conns.pop_front() {
                self.cv.notify_all();
                return Some(conn);
            }
            if st.closed {
                return None;
            }
            // mm-allow(E001): condvar wait only fails on a poisoned mutex; propagate the panic
            st = self.cv.wait(st).expect("connection queue poisoned");
        }
    }

    /// Stop admitting connections and wake every waiter. Queued
    /// connections are still handed out (`pop` drains before `None`).
    pub fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }

    /// Whether [`close`](Self::close) was called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Parked connections right now (the queue-depth gauge).
    pub fn depth(&self) -> usize {
        self.lock().conns.len()
    }
}

/// The accept loop, on the calling thread: park every connection
/// `listener` accepts on `queue` until the queue closes. A loop blocked in
/// `accept()` notices the close only at its next connection, so whoever
/// closes the queue then connects once to the listener's address; the
/// loop drops that connection and returns.
pub fn accept_into(listener: &TcpListener, queue: &ConnQueue) {
    loop {
        match listener.accept() {
            Ok((conn, _)) => {
                if !queue.push(conn) {
                    // Closed: this is the wake-up connection (or a late
                    // client); drop it and return.
                    return;
                }
            }
            Err(_) if queue.is_closed() => return,
            // Transient accept errors (EMFILE, ECONNABORTED): keep the
            // server up.
            Err(_) => continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn queue_hands_connections_across_threads_and_drains_after_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let queue = ConnQueue::new(4);
        std::thread::scope(|scope| {
            let acceptor = scope.spawn(|| accept_into(&listener, &queue));

            let mut client = TcpStream::connect(addr).unwrap();
            client.write_all(b"ping").unwrap();
            let mut conn = queue.pop().expect("accepted connection reaches the queue");
            let mut buf = [0u8; 4];
            conn.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"ping");

            // Park one more, then close: pop still drains it, then reports end.
            let _late = TcpStream::connect(addr).unwrap();
            while queue.depth() == 0 {
                std::thread::yield_now();
            }
            queue.close();
            assert!(
                queue.pop().is_some(),
                "queued connection drains after close"
            );
            assert!(queue.pop().is_none(), "closed and drained");
            // Wake the blocked accept: the loop refuses the connection and returns.
            TcpStream::connect(addr).unwrap();
            acceptor.join().unwrap();
        });
    }
}
