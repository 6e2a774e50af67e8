//! `mmqd` — the resident query server (DESIGN.md §14).
//!
//! ```text
//! mmqd --store DIR [--listen ADDR] [--seed N] [--scale X|paper] [--runs N]
//!      [--duration-s N] [--quick]
//! mmqd --version
//! ```
//!
//! Where `mmq` opens the store, answers, and exits, `mmqd` opens it once
//! and keeps answering: one shared [`QueryEngine`] behind a pool of
//! `MM_THREADS` workers, so the per-process aggregate memo and the store's
//! query cache are warm across every connection — a query any client has
//! asked before is served without opening a single data block. Clients
//! connect with `mmq --connect HOST:PORT`, whose output is byte-identical
//! to local `mmq` over the same store.
//!
//! `--listen 127.0.0.1:0` (the default) binds an ephemeral loopback
//! port; the actual address is printed as `mmqd: listening on ADDR` so
//! scripts can scrape it. The server runs until a client sends the
//! `shutdown` control request (`mmq --connect ADDR shutdown`), then
//! drains in-flight work and exits 0.
//!
//! `--scale` takes a fraction of the paper's deployment in (0, 1], or
//! `paper` for all of it, as in `mmq`.
//!
//! Exit codes: 2 for usage errors (bad flags, missing campaign), 3 for
//! runtime failures (corrupt store, unbindable address).

use mmexperiments::cli::{self, CtxFlags};
use mmexperiments::{serve, MmError, QueryEngine, ServeConfig};

fn usage() -> String {
    "usage: mmqd --store DIR [--listen ADDR] [--seed N] [--scale X|paper] [--runs N] \
     [--duration-s N] [--quick] [--version]\n\
     serves mmq queries over a framed TCP protocol with MM_THREADS workers; \
     stop with `mmq --connect ADDR shutdown`"
        .to_string()
}

fn real_main() -> Result<(), MmError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return Err(MmError::Config(usage()));
    }
    let mut flags = CtxFlags::default();
    let mut listen = "127.0.0.1:0".to_string();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if flags.take(&a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "--version" => {
                println!("mmqd {}", env!("CARGO_PKG_VERSION"));
                return Ok(());
            }
            "--listen" => listen = cli::value("--listen", "HOST:PORT", it.next())?,
            _ => return Err(MmError::Config(usage())),
        }
    }
    flags.check()?;
    let Some(dir) = &flags.store else {
        return Err(MmError::Config(
            "mmqd serves a stored campaign; name it with --store DIR".into(),
        ));
    };

    let engine = QueryEngine::open(std::path::Path::new(dir), flags.build())?;
    eprintln!(
        "# mmqd: campaign has {} round(s), {} samples, content {:016x}",
        engine.manifest().rounds.len(),
        engine.manifest().total_samples(),
        engine.content_hash(),
    );
    let listener = std::net::TcpListener::bind(&listen)
        .map_err(|e| mmcore::NetError::Io(format!("bind {listen}: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| mmcore::NetError::Io(e.to_string()))?;
    // Scraped by scripts (verify.sh): keep this line first on stdout.
    println!("mmqd: listening on {addr}");
    let cfg = ServeConfig::default();
    eprintln!("# mmqd: {} worker(s)", cfg.workers);
    serve(&engine, listener, &cfg)?;
    println!("mmqd: drained, exiting");
    Ok(())
}

fn main() {
    if let Err(err) = real_main() {
        std::process::exit(cli::report("mmqd", &err));
    }
}
