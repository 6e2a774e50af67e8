//! `mmx` — regenerate any table or figure of the paper.
//!
//! ```text
//! mmx <artifact>... [--seed N] [--scale X|paper] [--runs N] [--duration-s N] [--quick]
//!                   [--timings] [--metrics[=FILE]]
//!                   [--store DIR] [--save] [--load]
//! mmx crawl --store DIR [--seed N] [--scale X|paper]
//! mmx --append --store DIR [--seed N] [--scale X|paper]
//! mmx fleet [--ues N] [--shards N] [--seed N] [--duration-s N] [--epoch-ms N]
//!           [--carrier CODE] [--city CODE] [--scale X|paper] [--metrics[=FILE]]
//! mmx all [--seed N] [--scale X]
//! mmx list
//! mmx --version
//! ```
//!
//! Artifacts: `t2 t3 t4 f5 f6 ... f22`. The default context uses a
//! mid-size world (scale 0.25). `--scale` takes a fraction of the paper's
//! deployment in (0, 1]: pass `--scale 1` (or the `paper` alias) for the
//! full ~32k-cell population the paper crawled.
//!
//! Every invocation resolves its flags into one typed [`RunMode`] before
//! anything runs: version/list, a cold crawl, an appended crawl round, or
//! an artifact render with a cache policy. Contradictory flags (`--save
//! --load`, `--quick --scale`, `crawl` or `--append` with artifacts, …)
//! are usage errors — exit 2 with a hint — not silently resolved
//! precedence.
//!
//! `mmx crawl` is the cold write path at scale: it generates the world,
//! runs the sharded Type-I crawl on the `mm-exec` pool, reports the
//! crawl rate, and persists the D2 columnar store entry plus the campaign
//! manifest. D2 holds the crawl's runs, and the entry is encoded from
//! them one row group at a time, so the expanded ~8M-sample list is
//! never built. `mmx --append` crawls ONE more round under the next round
//! seed and adds it as a brand-new store entry the same way — prior-round
//! files are never rewritten, only the manifest is. `--load` figure runs against
//! the same `--store`/seed/scale then *stream* round 0's entry — the `d2`
//! entry `mmx crawl` wrote — block-by-block into the figure aggregate
//! (DESIGN.md §10), so at paper scale the ~8M-sample dataset is never
//! resident in memory. They read no appended round: `mmq` answers over
//! the union of all rounds, with predicates and round ceilings (DESIGN.md
//! §11), and `mmq --rounds 0` prints what `mmx --load` prints.
//!
//! Independent artifacts run as tasks on the `mm-exec` pool
//! over one pre-warmed shared context, and are printed in request order —
//! the output is byte-identical for any `MM_THREADS` setting. Pass
//! `--timings` for a per-artifact wall-clock and scheduler report on
//! stderr, `--metrics` for the deterministic telemetry snapshot as JSON
//! (stderr, or a file with `--metrics=FILE`).
//!
//! `mmx fleet` is the metro-scale multi-UE runtime (DESIGN.md §12): it
//! drops `--ues` concurrent UEs onto one carrier's city network, cut into
//! `--shards` event-queue shards scattered over the pool, and prints a
//! report of integer fleet totals that is byte-identical for any
//! `MM_THREADS` and any shard count. `--metrics` emits the retained
//! `fleet`/`sched` telemetry sections, equally invariant.
//!
//! `--store DIR` names a content-addressed dataset store (DESIGN.md §9.5);
//! `--save` persists the three shared datasets and the campaign manifest
//! there. `--load` preloads those of them its artifacts read, opening no
//! other entry, and renders through the same code as a cold run, so
//! stdout is byte-identical; it recomputes what no dataset holds (T4 and
//! the audit from the world, F7/F8's corridor drives, the ablations), and
//! its `--metrics` describe the warm run. A corrupt entry it reads is a
//! hard typed error, never a silent fallback.
//!
//! Exit codes: 2 for usage errors (bad flags, unknown artifacts, invalid
//! flag combinations), 3 for runtime failures (an unwritable metrics
//! file, a corrupt store entry).

use mm_exec::Executor;
use mm_json::ToJson;
use mmcarriers::world::World;
use mmexperiments::cli::{self, CtxFlags, MetricsSink};
use mmexperiments::store::round_seed;
use mmexperiments::{
    run, run_fleet_on, Artifact, FleetConfig, MmError, RunStore, ABLATIONS, ARTIFACTS,
};
use mmlab::D2;

fn usage() -> String {
    format!(
        "usage: mmx <artifact|all|crawl|list>... [--seed N] [--scale X|paper] [--runs N] \
         [--duration-s N] [--quick] [--timings] [--metrics[=FILE]] [--store DIR] [--save] \
         [--load] [--append] [--version]\n\
         artifacts: {}\nablations: {}",
        ARTIFACTS.join(" "),
        ABLATIONS.join(" ")
    )
}

/// How a render interacts with the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CachePolicy {
    /// No store interaction: simulate and print.
    Off,
    /// Cold write: render, then persist the datasets and the manifest.
    Save,
    /// Warm render: preload the stored datasets; whatever is missing is
    /// built cold.
    Load,
}

/// What this invocation does — resolved exactly once from the raw flags,
/// so every downstream branch matches on a validated mode instead of
/// re-interpreting booleans.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RunMode {
    /// `--version`: print the crate version.
    Version,
    /// `list`: print every artifact id.
    List,
    /// `crawl`: cold sharded crawl into the store.
    Crawl,
    /// `--append`: crawl one more campaign round under the next round
    /// seed and add it to the store without touching prior rounds.
    Append,
    /// Render artifacts under a cache policy.
    Render {
        wanted: Vec<Artifact>,
        cache: CachePolicy,
    },
}

/// The flags exactly as parsed, before any cross-flag validation.
#[derive(Default)]
struct RawArgs {
    ctx: CtxFlags,
    timings: bool,
    metrics: MetricsSink,
    save: bool,
    load: bool,
    append: bool,
    crawl: bool,
    list: bool,
    version: bool,
    wanted: Vec<Artifact>,
}

impl RawArgs {
    fn parse(args: impl Iterator<Item = String>) -> Result<RawArgs, MmError> {
        let mut raw = RawArgs::default();
        let mut it = args;
        while let Some(a) = it.next() {
            if raw.ctx.take(&a, &mut it)? {
                continue;
            }
            match a.as_str() {
                "--version" => raw.version = true,
                "--timings" => raw.timings = true,
                "--save" => raw.save = true,
                "--load" => raw.load = true,
                "--append" => raw.append = true,
                "list" => raw.list = true,
                "all" => raw.wanted.extend(Artifact::PAPER),
                "ablations" => raw.wanted.extend(Artifact::ABLATIONS),
                "crawl" => raw.crawl = true,
                other => {
                    if let Some(sink) = MetricsSink::parse(other) {
                        raw.metrics = sink;
                    } else if other.starts_with("--") {
                        return Err(MmError::Config(usage()));
                    } else {
                        raw.wanted.push(other.parse::<Artifact>()?);
                    }
                }
            }
        }
        Ok(raw)
    }

    /// Cross-flag validation: exactly one coherent [`RunMode`] comes out,
    /// or a usage error naming the conflict.
    fn resolve(&self) -> Result<RunMode, MmError> {
        if self.version {
            return Ok(RunMode::Version);
        }
        if self.list {
            return Ok(RunMode::List);
        }
        self.ctx.check()?;
        if self.save && self.load {
            return Err(MmError::Config(
                "--save and --load conflict; a run either writes the store or reads it".into(),
            ));
        }
        if self.append {
            if self.crawl || self.save || self.load || !self.wanted.is_empty() {
                return Err(MmError::Config(
                    "--append only appends a crawl round; drop crawl/--save/--load/artifacts \
                     (query appended rounds with mmq)"
                        .into(),
                ));
            }
            if self.ctx.store.is_none() {
                return Err(MmError::Config(
                    "--append needs a cache directory (--store DIR)".into(),
                ));
            }
            return Ok(RunMode::Append);
        }
        if self.crawl {
            if self.save || self.load || !self.wanted.is_empty() {
                return Err(MmError::Config(
                    "crawl only writes the campaign; --save/--load/artifacts conflict with it \
                     (render them afterwards with --load)"
                        .into(),
                ));
            }
            if self.ctx.store.is_none() {
                return Err(MmError::Config(
                    "crawl needs a cache directory (--store DIR)".into(),
                ));
            }
            return Ok(RunMode::Crawl);
        }
        if (self.save || self.load) && self.ctx.store.is_none() {
            return Err(MmError::Config(
                "--save/--load need a cache directory (--store DIR)".into(),
            ));
        }
        if self.wanted.is_empty() {
            return Err(MmError::Config(usage()));
        }
        let cache = match (self.save, self.load) {
            (true, false) => CachePolicy::Save,
            (false, true) => CachePolicy::Load,
            _ => CachePolicy::Off,
        };
        Ok(RunMode::Render {
            wanted: self.wanted.clone(),
            cache,
        })
    }
}

fn fleet_usage() -> String {
    "usage: mmx fleet [--ues N] [--shards N] [--seed N] [--duration-s N] [--epoch-ms N] \
     [--carrier CODE] [--city CODE] [--scale X|paper] [--metrics[=FILE]]"
        .to_string()
}

/// `mmx fleet`: parse the fleet flag set, run the sharded multi-UE
/// engine, print the deterministic report on stdout. Progress and the
/// (scheduler-dependent) queue high-water mark go to stderr; `--metrics`
/// emits only the `fleet`/`sched` sections, which are invariant to
/// `MM_THREADS` and the shard count.
fn fleet_main(args: impl Iterator<Item = String>) -> Result<(), MmError> {
    let mut cfg = FleetConfig::default();
    let mut metrics = MetricsSink::Off;
    let mut it = args;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ues" => cfg.ues = cli::num("--ues", it.next())?,
            "--shards" => cfg.shards = cli::num("--shards", it.next())?,
            "--seed" => cfg.seed = cli::num("--seed", it.next())?,
            "--duration-s" => cfg.duration_ms = cli::duration_ms(it.next())?,
            "--epoch-ms" => cfg.epoch_ms = cli::num("--epoch-ms", it.next())?,
            "--carrier" => cfg.carrier = cli::value("--carrier", "a code", it.next())?,
            "--city" => {
                cfg.city = cli::value("--city", "a code", it.next())?
                    .parse()
                    .map_err(|e| MmError::Config(format!("{e} (see `mmx f20` for codes)")))?;
            }
            "--scale" => cfg.scale = cli::scale(it.next())?,
            other => match MetricsSink::parse(other) {
                Some(sink) => metrics = sink,
                None => return Err(MmError::Config(fleet_usage())),
            },
        }
    }
    let exec = Executor::from_env();
    eprintln!(
        "# mmx fleet: {} UE(s) in {} shard(s) on carrier {} in {}, {} thread(s)",
        cfg.ues,
        cfg.shards,
        cfg.carrier,
        cfg.city,
        exec.threads(),
    );
    let report = run_fleet_on(&cfg, &exec)?;
    // The queue high-water mark depends on shard sizes, so it lives on
    // stderr — the stdout report stays shard-count-invariant.
    eprintln!(
        "# mmx fleet: max event-queue depth {} across shards",
        report.stats.max_queue_depth,
    );
    print!("{}", report.render());
    metrics.emit(|| {
        mm_telemetry::global()
            .snapshot()
            .deterministic()
            .retain_sections(&["fleet", "sched"])
            .to_json()
    })
}

/// Crawl `world` under `seed`, and describe the crawl: `N samples over C
/// cells in S s (R samples/s, T thread(s))`. The time is the scatter's
/// wall clock, which is the whole crawl. Every cell of the world yields
/// rows, so the world's cell count is the crawl's without a pass over ~8M
/// rows.
fn timed_crawl(world: &World, seed: u64, exec: &Executor) -> (D2, String) {
    let (d2, stats) = mmlab::crawl_with_stats(world, seed, exec);
    let secs = stats.wall_ns.max(1) as f64 / 1e9;
    let line = format!(
        "{} samples over {} cells in {secs:.1}s ({:.0} samples/s, {} thread(s))",
        d2.len(),
        world.cells().len(),
        d2.len() as f64 / secs,
        stats.threads,
    );
    (d2, line)
}

fn real_main() -> Result<(), MmError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return Err(MmError::Config(usage()));
    }
    if args[0] == "fleet" {
        return fleet_main(args.into_iter().skip(1));
    }
    let raw = RawArgs::parse(args.into_iter())?;
    let mode = raw.resolve()?;
    match &mode {
        RunMode::Version => {
            println!("mmx {}", env!("CARGO_PKG_VERSION"));
            return Ok(());
        }
        RunMode::List => {
            for artifact in Artifact::ALL {
                println!("{}", artifact.id());
            }
            return Ok(());
        }
        _ => {}
    }

    let store = match &raw.ctx.store {
        Some(dir) => Some(RunStore::open(std::path::Path::new(dir))?),
        None => None,
    };
    let ctx = raw.ctx.build();
    let exec = Executor::from_env();
    eprintln!(
        "# mmx: seed={} scale={} ({} mode), {} thread(s)",
        ctx.seed,
        ctx.scale,
        if raw.ctx.quick { "quick" } else { "standard" },
        exec.threads(),
    );

    let (wanted, cache) = match mode {
        // Cold write path: shard the Type-I crawl over the pool, report
        // the sustained rate, and persist the columnar D2 entry, encoded
        // from the crawl's runs, plus the campaign manifest.
        RunMode::Crawl => {
            let s = store.as_ref().expect("crawl resolved against --store");
            let (d2, line) = timed_crawl(ctx.world(), round_seed(ctx.seed, 0), &exec);
            eprintln!("# mmx crawl: {line}");
            ctx.preload_d2(d2);
            s.save_d2(&ctx)?;
            return emit_metrics(&raw.metrics);
        }
        // Append one campaign round: crawl under the next round seed,
        // write a brand-new entry, rewrite only the manifest.
        RunMode::Append => {
            let s = store.as_ref().expect("--append resolved against --store");
            let round = s.next_round(&ctx)?;
            let (crawl, line) = timed_crawl(ctx.world(), round_seed(ctx.seed, round), &exec);
            eprintln!("# mmx append: round {round}: {line}");
            let manifest = s.append_round(&ctx, round, &crawl)?;
            eprintln!(
                "# mmx append: store now holds {} round(s), {} samples total",
                manifest.rounds.len(),
                manifest.total_samples(),
            );
            return emit_metrics(&raw.metrics);
        }
        RunMode::Render { wanted, cache } => (wanted, cache),
        RunMode::Version | RunMode::List => unreachable!("handled above"),
    };

    // Warm path: preload the stored datasets the artifacts read; the
    // render below builds the rest cold.
    if cache == CachePolicy::Load {
        let s = store.as_ref().expect("--load resolved against --store");
        let (hits, read) = s.load_datasets(&ctx, &wanted)?;
        eprintln!("# mmx: preloaded {hits}/{read} dataset(s) from the store");
    }

    // With more than one artifact, build exactly the shared state this
    // batch will read up front (the campaign/crawl paths are parallel
    // themselves), then scatter the artifacts as tasks. Ordered gather
    // keeps stdout byte-identical to the sequential loop for any
    // MM_THREADS; warming whenever the batch has more than one artifact
    // (rather than only when threads > 1) keeps the telemetry span tree
    // thread-count-independent too. Selective warming means a figure-only
    // run never pays for drive campaigns — and, when D2 was streamed off
    // the store, never materializes the raw samples at all.
    if wanted.len() > 1 {
        ctx.warm_for(&wanted);
    }
    let ctx = &ctx;
    let (outputs, stats) = exec.scatter_gather_stats(wanted, |_, artifact| run(ctx, artifact));
    for out in &outputs {
        println!("########## {} ##########", out.artifact.id());
        println!("{}", out.text);
    }
    if raw.timings {
        eprintln!(
            "# mmx timings ({} tasks, {} thread(s))",
            stats.tasks(),
            stats.threads
        );
        for (out, ns) in outputs.iter().zip(&stats.task_ns) {
            eprintln!(
                "#   {:>10}  {:>9.1} ms",
                out.artifact.id(),
                *ns as f64 / 1e6
            );
        }
        eprintln!(
            "#   wall {:.1} ms, busy {:.1} ms, speedup {:.2}x",
            stats.wall_ns as f64 / 1e6,
            stats.busy_ns() as f64 / 1e6,
            stats.speedup(),
        );
    }
    // Persist the datasets before the snapshot, so `--metrics` counts any
    // campaign the save had to run.
    if cache == CachePolicy::Save {
        let s = store.as_ref().expect("--save resolved against --store");
        s.save_datasets(ctx)?;
    }
    emit_metrics(&raw.metrics)
}

/// Write the deterministic telemetry snapshot to `--metrics`' sink.
fn emit_metrics(sink: &MetricsSink) -> Result<(), MmError> {
    sink.emit(|| mm_telemetry::global().snapshot().deterministic().to_json())
}

fn main() {
    if let Err(err) = real_main() {
        std::process::exit(cli::report("mmx", &err));
    }
}
