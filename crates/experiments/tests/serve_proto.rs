//! Protocol robustness for the mmqd serving loop: malformed magic,
//! truncated frames, oversized frames, over-deep JSON, wrong versions, and
//! mid-request disconnects must each produce a typed error response or a
//! clean close — never a panic, never a hang — and the server must keep
//! serving well-formed clients afterwards. A rejected query must leave no
//! trace in the shared caches, and a `shutdown` control frame must drain
//! the pool and make [`serve`] return.
//!
//! Every client socket in this file carries a read timeout, so a server
//! that stops responding fails the test instead of wedging it.

use mm_json::Json;
use mm_net::frame::TAG_QUERY;
use mm_net::{codes, read_hello, write_frame, write_hello, Client, Request, Response, MAGIC};
use mmexperiments::{serve, Artifact, Ctx, QueryEngine, QueryResult, RunStore, ServeConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

/// Generous bound for any single test interaction; hitting it means the
/// server hung, which is itself a failure.
const TIMEOUT_MS: u64 = 30_000;

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mmqd-proto-{tag}-{}", std::process::id()))
}

/// A tiny stored campaign + a serving loop over it on an ephemeral port.
/// Returns the address, the serve-thread handle (joins after shutdown),
/// and the store dir to clean up.
fn start_server(tag: &str) -> (SocketAddr, std::thread::JoinHandle<()>, PathBuf) {
    let dir = tmp(tag);
    let store = RunStore::open(&dir).expect("store opens");
    let ctx = Ctx::builder().quick().scale(0.02).build();
    store.save_d2(&ctx).expect("fixture campaign saves");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let cfg = ServeConfig { workers: 2 };
    let dir2 = dir.clone();
    let handle = std::thread::spawn(move || {
        let engine = QueryEngine::open(&dir2, Ctx::builder().quick().scale(0.02).build())
            .expect("engine opens the fixture");
        serve(&engine, listener, &cfg).expect("serve drains cleanly");
    });
    (addr, handle, dir)
}

/// A raw socket with timeouts, for speaking the protocol badly on purpose.
fn raw(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_millis(TIMEOUT_MS)))
        .unwrap();
    s.set_write_timeout(Some(Duration::from_millis(TIMEOUT_MS)))
        .unwrap();
    s
}

/// The connection is dropped server-side: reads drain to EOF (or error)
/// without ever blocking past the timeout.
fn assert_closed(mut s: TcpStream) {
    let mut sink = [0u8; 256];
    loop {
        match s.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => continue,
            Err(e) => {
                assert!(
                    !matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ),
                    "server held a broken connection open past the timeout"
                );
                return;
            }
        }
    }
}

/// A well-formed t3 query answers fine — the liveness probe run after
/// every hostile client.
fn assert_serving(addr: SocketAddr) {
    let mut client = Client::connect(&addr.to_string(), TIMEOUT_MS).expect("server accepts");
    let doc = Json::obj([("target", Json::Str("t3".into()))]);
    match client
        .request(&Request::Query(doc))
        .expect("query answered")
    {
        Response::Ok(res) => {
            assert!(res["text"]
                .as_str()
                .expect("text field")
                .contains("Table 3"))
        }
        Response::Err(e) => panic!("well-formed query rejected: {e:?}"),
    }
}

#[test]
fn hostile_clients_get_typed_errors_and_the_server_survives() {
    let (addr, handle, dir) = start_server("hostile");

    // 1. Malformed magic: dropped without a response.
    let mut s = raw(addr);
    s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    assert_closed(s);
    assert_serving(addr);

    // 2. A protocol version newer than the server speaks: dropped.
    let mut s = raw(addr);
    let mut hello = Vec::from(MAGIC);
    hello.extend_from_slice(&99u32.to_le_bytes());
    s.write_all(&hello).unwrap();
    assert_closed(s);
    assert_serving(addr);

    // 3. Mid-request disconnect: a frame header promising bytes that
    //    never arrive, then the client hangs up.
    let mut s = raw(addr);
    write_hello(&mut s).unwrap();
    read_hello(&mut s).unwrap();
    s.write_all(&[TAG_QUERY, 64, 0, 0, 0, b'{']).unwrap();
    drop(s);
    assert_serving(addr);

    // 4. Oversized frame: typed `oversized` rejection flagged as a usage
    //    error, then the connection closes (stream desynchronized).
    let mut s = raw(addr);
    write_hello(&mut s).unwrap();
    read_hello(&mut s).unwrap();
    s.write_all(&[TAG_QUERY]).unwrap();
    s.write_all(&(mm_net::DEFAULT_MAX_FRAME + 1).to_le_bytes())
        .unwrap();
    match Response::read_from(&mut &s, 1 << 20).expect("typed response before close") {
        Response::Err(e) => {
            assert_eq!(e.code, codes::OVERSIZED);
            assert!(e.usage, "an oversized frame is the caller's fault");
        }
        Response::Ok(_) => panic!("oversized frame accepted"),
    }
    assert_closed(s);
    assert_serving(addr);

    // 5. An unknown frame tag: typed `bad-request`, then close.
    let mut s = raw(addr);
    write_hello(&mut s).unwrap();
    read_hello(&mut s).unwrap();
    write_frame(&mut s, 0x7f, b"{}").unwrap();
    match Response::read_from(&mut &s, 1 << 20).expect("typed response before close") {
        Response::Err(e) => assert_eq!(e.code, codes::BAD_REQUEST),
        Response::Ok(_) => panic!("unknown tag accepted"),
    }
    assert_closed(s);
    assert_serving(addr);

    // 6. A 4096-byte Query frame, every byte a `[` (4096 levels deep):
    //    parsing it must stop at the JSON nesting cap with a typed
    //    `bad-request`, not recurse once per byte until the worker's stack
    //    overflows and takes the process down. Then close.
    let mut s = raw(addr);
    write_hello(&mut s).unwrap();
    read_hello(&mut s).unwrap();
    write_frame(&mut s, TAG_QUERY, &[b'['; 4096]).unwrap();
    match Response::read_from(&mut &s, 1 << 20).expect("typed response before close") {
        Response::Err(e) => {
            assert_eq!(e.code, codes::BAD_REQUEST);
            assert!(e.message.contains("nesting"), "{}", e.message);
        }
        Response::Ok(_) => panic!("over-deep query accepted"),
    }
    assert_closed(s);
    assert_serving(addr);

    // 7. A well-formed frame carrying an invalid query: `bad-request`
    //    with the connection kept open for the next request.
    let mut client = Client::connect(&addr.to_string(), TIMEOUT_MS).unwrap();
    let bad = Json::obj([("target", Json::Str("f99".into()))]);
    match client.request(&Request::Query(bad)).unwrap() {
        Response::Err(e) => {
            assert_eq!(e.code, codes::BAD_REQUEST);
            assert!(e.usage);
        }
        Response::Ok(_) => panic!("unknown artifact accepted"),
    }
    // Same connection still answers.
    let good = Json::obj([("target", Json::Str("t3".into()))]);
    assert!(matches!(
        client.request(&Request::Query(good)).unwrap(),
        Response::Ok(_)
    ));

    shutdown_and_join(addr, handle);
    std::fs::remove_dir_all(&dir).ok();
}

/// `param: "*"` normalizes like the neutral query (an unset field prints
/// as `*`), so answering it would cache an empty table under the neutral
/// query's key for every later client. It is rejected instead, and the
/// connection stays open.
#[test]
fn wildcard_constraints_are_rejected_and_poison_no_later_answer() {
    let (addr, handle, dir) = start_server("wildcard");
    let mut client = Client::connect(&addr.to_string(), TIMEOUT_MS).unwrap();
    let query = |text: &str| Request::Query(Json::parse(text).unwrap());
    match client.request(&query(r#"{"target":"f16","param":"*"}"#)) {
        Ok(Response::Err(e)) => assert!(e.code == codes::BAD_REQUEST && e.usage, "{e:?}"),
        other => panic!("wildcard parameter not rejected: {other:?}"),
    }
    let Ok(Response::Ok(doc)) = client.request(&query(r#"{"target":"f16"}"#)) else {
        panic!("neutral f16 not answered");
    };
    let reference = Ctx::builder().quick().scale(0.02).build();
    RunStore::open(&dir)
        .unwrap()
        .load_datasets(&reference, &Artifact::ALL)
        .unwrap();
    let want = mmexperiments::run(&reference, Artifact::F16).text;
    assert_eq!(QueryResult::from_wire(&doc).unwrap().text, want);
    drop(client);
    shutdown_and_join(addr, handle);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_reports_the_serve_section_and_shutdown_drains() {
    let (addr, handle, dir) = start_server("stats");

    // Warm the cache from one connection…
    let mut c1 = Client::connect(&addr.to_string(), TIMEOUT_MS).unwrap();
    let doc = Json::obj([("target", Json::Str("t3".into()))]);
    assert!(matches!(
        c1.request(&Request::Query(doc.clone())).unwrap(),
        Response::Ok(_)
    ));
    // …and observe the warm hit from a *different* connection: the memo
    // and store cache are engine-wide, not per-connection.
    let mut c2 = Client::connect(&addr.to_string(), TIMEOUT_MS).unwrap();
    match c2.request(&Request::Query(doc)).unwrap() {
        Response::Ok(res) => assert_eq!(
            res["cached"].as_bool(),
            Some(true),
            "second connection must hit the shared cache: {res}"
        ),
        Response::Err(e) => panic!("warm query rejected: {e:?}"),
    }

    // The stats snapshot is well-formed and scoped to the serve section.
    match c2.request(&Request::Stats).unwrap() {
        Response::Ok(snap) => {
            let sections = snap["sections"].as_array().expect("sections array");
            assert_eq!(sections.len(), 1, "only the serve section: {snap}");
            assert_eq!(sections[0]["name"].as_str(), Some("serve"));
            let counters = sections[0]["counters"].as_array().expect("counters");
            let get = |name: &str| {
                counters
                    .iter()
                    .find(|c| c["name"].as_str() == Some(name))
                    .and_then(|c| c["value"].as_u64())
                    .unwrap_or_else(|| panic!("counter {name} missing: {snap}"))
            };
            assert!(get("connections") >= 2);
            assert!(get("queries") >= 2);
            assert!(get("cache_hits") >= 1);
            assert!(get("requests_served") >= 2);
        }
        Response::Err(e) => panic!("stats rejected: {e:?}"),
    }

    // A worker is dedicated to each open connection, so release both
    // before shutdown needs one.
    drop(c1);
    drop(c2);
    // Shutdown acknowledges, serve() returns, and the port stops
    // accepting new work.
    shutdown_and_join(addr, handle);
    let gone = Client::connect(&addr.to_string(), 2_000);
    assert!(gone.is_err(), "server still accepting after drain");
    std::fs::remove_dir_all(&dir).ok();
}

/// Send the shutdown control frame, assert the acknowledgement, and join
/// the serve thread — which proves the drain completes.
fn shutdown_and_join(addr: SocketAddr, handle: std::thread::JoinHandle<()>) {
    let mut client = Client::connect(&addr.to_string(), TIMEOUT_MS).expect("connect for shutdown");
    match client
        .request(&Request::Shutdown)
        .expect("shutdown answered")
    {
        Response::Ok(doc) => assert_eq!(doc["draining"].as_bool(), Some(true)),
        Response::Err(e) => panic!("shutdown rejected: {e:?}"),
    }
    drop(client);
    handle.join().expect("serve thread exits cleanly");
}
