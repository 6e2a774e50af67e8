//! The `mmx` dataset store (DESIGN.md §9.5): content-addressed entries for
//! the shared datasets, so a warm `mmx --load` run streams D2 and reads
//! both D1s off disk instead of crawling and driving again, then renders
//! every artifact through the same code as the cold run.
//!
//! Four kinds of entries live in a `--store DIR` directory, all addressed
//! by the FNV-1a hash of `(seed, scale, runs, duration, entry id, format
//! version)`:
//!
//! * `d2-…`, `d1-active-…`, `d1-idle-…` — the shared datasets in the
//!   `mm-store` columnar format (schemas in `mmlab::store`); a partial hit
//!   preloads the [`Ctx`] lazy slots so only the missing work re-runs.
//! * `d2-round-k-…` — appended crawl rounds (`mmx --append`): each later
//!   round is its own immutable file; prior-round files are never reopened
//!   for writing, let alone recomputed.
//! * `manifest-…` — the campaign manifest: which rounds exist, how many
//!   samples each holds, and which entry serves it. The manifest is the
//!   only file `--append` rewrites, and its bytes double as the store
//!   content hash `mmq` keys its query cache on.
//! * `q-…` — cached `mmq` query results (kind `mmq-query`), keyed by the
//!   FNV of the normalized query and the manifest content hash, so any
//!   append invalidates every cached query.

use crate::context::Ctx;
use crate::stream::D2Agg;
use crate::Artifact;
use mm_store::{ArtifactCache, CacheKey, Cursor, StoreReader, StoreWriter};
use mmcore::{MmError, StoreError};
use mmlab::dataset::{D1, D2};
use mmlab::store::{D2StoreReader, KIND_D2};
use std::io::{BufReader, Write};
use std::path::Path;

/// Store kind of the campaign manifest file.
pub const KIND_MANIFEST: &str = "mm-manifest";
/// Store kind of a cached query result.
pub const KIND_QUERY: &str = "mmq-query";

/// Manifest block tag: one campaign round.
const TAG_ROUND: u8 = 1;
/// Query-result block tag: the rendered text.
const TAG_RESULT: u8 = 1;

/// The crawl seed of campaign round `round` for a context seeded `seed`.
/// Round 0 is exactly the historical `seed ^ 0xD2` crawl stream, so stores
/// written before rounds existed stay byte-identical; later rounds spread
/// through seed space on the golden-ratio stride.
pub fn round_seed(seed: u64, round: u32) -> u64 {
    (seed ^ 0xD2) ^ u64::from(round).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One row of the campaign manifest: an immutable crawl round and the
/// store entry that serves it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundEntry {
    /// Campaign round index (0 = the original crawl).
    pub round: u32,
    /// Samples the round's entry holds.
    pub samples: u64,
    /// Store entry id (`"d2"` for round 0, `"d2-round-k"` after).
    pub entry: String,
}

/// The campaign manifest: every appended round in index order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Rounds in ascending round order.
    pub rounds: Vec<RoundEntry>,
}

impl Manifest {
    /// The next free round index.
    pub fn next_round(&self) -> u32 {
        self.rounds.last().map_or(0, |r| r.round + 1)
    }

    /// Total samples across all rounds.
    pub fn total_samples(&self) -> u64 {
        self.rounds.iter().map(|r| r.samples).sum()
    }

    fn write(&self, sink: impl Write) -> Result<(), MmError> {
        let mut w = StoreWriter::new(sink, KIND_MANIFEST)?;
        for r in &self.rounds {
            let mut payload = Vec::new();
            mm_store::write_varint(&mut payload, u64::from(r.round));
            mm_store::write_varint(&mut payload, r.samples);
            mm_store::write_varint(&mut payload, r.entry.len() as u64);
            payload.extend_from_slice(r.entry.as_bytes());
            w.write_block(TAG_ROUND, &payload)?;
        }
        w.finish(self.rounds.len() as u64)
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<Manifest, MmError> {
        let mut reader = StoreReader::new(bytes, KIND_MANIFEST)?;
        let mut rounds = Vec::new();
        while let Some(block) = reader.next_block()? {
            if block.tag != TAG_ROUND {
                return Err(StoreError::Schema(format!(
                    "unknown manifest block tag {}",
                    block.tag
                ))
                .into());
            }
            let mut c = Cursor::new(&block.payload);
            let round = u32::try_from(c.read_varint().map_err(MmError::Store)?)
                .map_err(|_| StoreError::Schema("round index out of range".to_string()))?;
            let samples = c.read_varint().map_err(MmError::Store)?;
            let entry_len = c.read_varint().map_err(MmError::Store)? as usize;
            let entry = utf8(c.read_bytes(entry_len).map_err(MmError::Store)?)?;
            if !c.is_empty() {
                return Err(StoreError::Schema("trailing bytes after round".to_string()).into());
            }
            rounds.push(RoundEntry {
                round,
                samples,
                entry,
            });
        }
        let declared = reader.records().unwrap_or(0);
        if declared != rounds.len() as u64 {
            return Err(StoreError::Schema(format!(
                "trailer declares {declared} rounds, decoded {}",
                rounds.len()
            ))
            .into());
        }
        for (i, r) in rounds.iter().enumerate() {
            if r.round != i as u32 {
                return Err(StoreError::Schema(format!(
                    "manifest rounds out of order: entry {i} is round {}",
                    r.round
                ))
                .into());
            }
        }
        Ok(Manifest { rounds })
    }
}

/// The `mmx`-facing face of the artifact cache.
#[derive(Debug, Clone)]
pub struct RunStore {
    cache: ArtifactCache,
}

impl RunStore {
    /// Open (creating if needed) the store directory.
    pub fn open(dir: &Path) -> Result<RunStore, MmError> {
        Ok(RunStore {
            cache: ArtifactCache::open(dir)?,
        })
    }

    fn key(ctx: &Ctx, artifact: String) -> CacheKey {
        CacheKey {
            seed: ctx.seed,
            scale: ctx.scale,
            runs: ctx.runs as u64,
            duration_ms: ctx.duration_ms,
            artifact,
        }
    }

    /// Persist the context's three shared datasets (building any that are
    /// not yet warm). Entries that already exist at their address are left
    /// alone — the address encodes every input, so an existing entry is the
    /// byte-identical file, and skipping it means a `--save` run whose
    /// artifacts read no D2 never crawls just to re-write the entry
    /// `mmx crawl` left.
    pub fn save_datasets(&self, ctx: &Ctx) -> Result<(), MmError> {
        self.save_d2(ctx)?;
        let key = Self::key(ctx, "d1-active".to_string());
        if !self.cache.entry_path(&key).exists() {
            self.cache
                .write_with(&key, |w| ctx.d1_active().write_store(w))?;
        }
        let key = Self::key(ctx, "d1-idle".to_string());
        if !self.cache.entry_path(&key).exists() {
            self.cache
                .write_with(&key, |w| ctx.d1_idle().write_store(w))?;
        }
        Ok(())
    }

    /// Persist just the D2 entry (the `mmx crawl` write path), unless it
    /// already exists at its address, and make sure the campaign manifest
    /// records it as round 0. The entry is written from the context's D2,
    /// crawled into it first if nothing built or preloaded one: each
    /// executor lane expands and encodes its own row groups, and the
    /// frames stream into the entry's temp file in file order.
    pub fn save_d2(&self, ctx: &Ctx) -> Result<(), MmError> {
        let key = Self::key(ctx, "d2".to_string());
        let written = if self.cache.entry_path(&key).exists() {
            None
        } else {
            let d2 = ctx.d2();
            self.cache.write_with(&key, |w| d2.write_store(w))?;
            Some(d2.len() as u64)
        };
        self.ensure_manifest(ctx, written)
    }

    fn manifest_key(ctx: &Ctx) -> CacheKey {
        Self::key(ctx, "manifest".to_string())
    }

    /// The campaign manifest, if this store has one for the context.
    pub fn load_manifest(&self, ctx: &Ctx) -> Result<Option<Manifest>, MmError> {
        match self.manifest_bytes(ctx)? {
            Some(bytes) => Ok(Some(Manifest::decode(&bytes)?)),
            None => Ok(None),
        }
    }

    /// Raw manifest bytes — what `mmq` hashes into its query-cache key, so
    /// every append (which rewrites the manifest) invalidates every cached
    /// query.
    pub fn manifest_bytes(&self, ctx: &Ctx) -> Result<Option<Vec<u8>>, MmError> {
        self.cache.read(&Self::manifest_key(ctx))
    }

    /// Write a round-0 manifest if none exists yet. The round-0 sample
    /// count is `written`, the trailer count of the d2 entry just written,
    /// or else the stored entry's own trailer; never a re-crawl.
    fn ensure_manifest(&self, ctx: &Ctx, written: Option<u64>) -> Result<(), MmError> {
        if self.cache.entry_path(&Self::manifest_key(ctx)).exists() {
            return Ok(());
        }
        let samples = match written {
            Some(n) => n,
            None => self
                .entry_records(ctx, "d2")?
                .ok_or_else(|| StoreError::Schema("manifest without a d2 entry".to_string()))?,
        };
        let manifest = Manifest {
            rounds: vec![RoundEntry {
                round: 0,
                samples,
                entry: "d2".to_string(),
            }],
        };
        self.cache
            .write_with(&Self::manifest_key(ctx), |w| manifest.write(w))
    }

    /// The trailer-declared record count of a D2 dataset entry, without
    /// decoding any rows.
    fn entry_records(&self, ctx: &Ctx, entry: &str) -> Result<Option<u64>, MmError> {
        let Some(file) = self.cache.open_entry(&Self::key(ctx, entry.to_string()))? else {
            return Ok(None);
        };
        let mut reader = StoreReader::new(BufReader::new(file), KIND_D2)?;
        while reader.next_block()?.is_some() {}
        Ok(reader.records())
    }

    /// The manifest of the campaign an append extends. Appending into a
    /// store without one is a usage error, not an implicit crawl.
    fn campaign(&self, ctx: &Ctx) -> Result<Manifest, MmError> {
        self.load_manifest(ctx)?.ok_or_else(|| {
            MmError::Config(
                "store has no campaign to append to; run `mmx crawl --store DIR` first".to_string(),
            )
        })
    }

    /// The round the next append adds: crawl it under
    /// `round_seed(seed, round)` and hand it to [`RunStore::append_round`].
    pub fn next_round(&self, ctx: &Ctx) -> Result<u32, MmError> {
        Ok(self.campaign(ctx)?.next_round())
    }

    /// Append `crawl`, crawled for campaign round `round`, as a brand-new
    /// store entry streamed from its runs plus a manifest update, and
    /// return the updated manifest. Prior-round files are never reopened
    /// for writing. A round that is no longer the campaign's next (another
    /// append landed since [`RunStore::next_round`]) is a typed error and
    /// writes nothing.
    pub fn append_round(&self, ctx: &Ctx, round: u32, crawl: &D2) -> Result<Manifest, MmError> {
        let mut manifest = self.campaign(ctx)?;
        let next = manifest.next_round();
        if round != next {
            return Err(MmError::Campaign(format!(
                "round {round} was crawled for a stale manifest: the campaign's next round is {next}"
            )));
        }
        let entry = format!("d2-round-{round}");
        self.cache
            .write_with(&Self::key(ctx, entry.clone()), |w| crawl.write_store(w))?;
        manifest.rounds.push(RoundEntry {
            round,
            samples: crawl.len() as u64,
            entry,
        });
        self.cache
            .write_with(&Self::manifest_key(ctx), |w| manifest.write(w))?;
        Ok(manifest)
    }

    /// Open one round's dataset entry for streaming.
    pub fn open_round_entry(
        &self,
        ctx: &Ctx,
        entry: &str,
    ) -> Result<Option<std::fs::File>, MmError> {
        self.cache.open_entry(&Self::key(ctx, entry.to_string()))
    }

    /// Filesystem path of a dataset entry (tests and verify gates).
    pub fn entry_path(&self, ctx: &Ctx, entry: &str) -> std::path::PathBuf {
        self.cache.entry_path(&Self::key(ctx, entry.to_string()))
    }

    // ----------------------------------------------------------- queries --

    fn query_key(ctx: &Ctx, qhash: u64) -> CacheKey {
        Self::key(ctx, format!("q-{qhash:016x}"))
    }

    /// Persist one rendered query result under its query hash.
    pub fn save_query(&self, ctx: &Ctx, qhash: u64, text: &str) -> Result<(), MmError> {
        let mut file = Vec::new();
        let mut w = StoreWriter::new(&mut file, KIND_QUERY)?;
        w.write_block(TAG_RESULT, text.as_bytes())?;
        w.finish(1)?;
        self.cache.write(&Self::query_key(ctx, qhash), &file)
    }

    /// Load a cached query result; `Ok(None)` on a miss, a typed error on
    /// a corrupt entry.
    pub fn load_query(&self, ctx: &Ctx, qhash: u64) -> Result<Option<String>, MmError> {
        let Some(bytes) = self.cache.read(&Self::query_key(ctx, qhash))? else {
            return Ok(None);
        };
        let mut reader = StoreReader::new(bytes.as_slice(), KIND_QUERY)?;
        let mut text: Option<String> = None;
        while let Some(block) = reader.next_block()? {
            match block.tag {
                TAG_RESULT if text.is_none() => text = Some(utf8(&block.payload)?),
                TAG_RESULT => {
                    return Err(StoreError::Schema("duplicate result block".to_string()).into())
                }
                t => return Err(StoreError::Schema(format!("unknown block tag {t}")).into()),
            }
        }
        text.map(Some)
            .ok_or_else(|| StoreError::Schema("query entry has no result block".to_string()).into())
    }

    /// Preload the stored datasets `artifacts` read into the context's
    /// lazy slots, so a partial cache hit skips that part of the
    /// simulation. Returns how many datasets were loaded and how many
    /// entries the artifacts read; an entry no artifact reads is never
    /// opened. A present-but-corrupt entry that is read is a hard typed
    /// error, never a silent fallback to re-simulation.
    ///
    /// D2 is not materialized: its store entry is streamed block-by-block
    /// into the [`D2Agg`] figure aggregate (DESIGN.md §10), so at paper
    /// scale the 8M-sample dataset never exists in memory. The two D1s are
    /// campaign-bounded (thousands of handoffs, not millions of samples)
    /// and stay materialized.
    pub fn load_datasets(
        &self,
        ctx: &Ctx,
        artifacts: &[Artifact],
    ) -> Result<(usize, usize), MmError> {
        let reads = |needs: fn(Artifact) -> bool| artifacts.iter().any(|&a| needs(a));
        let (mut hits, mut read) = (0, 0);
        if reads(Artifact::needs_d2_agg) {
            read += 1;
            if let Some(file) = self.cache.open_entry(&Self::key(ctx, "d2".to_string()))? {
                let reader = D2StoreReader::new(BufReader::new(file))?;
                hits += usize::from(ctx.preload_d2_agg(D2Agg::from_store(reader)?));
            }
        }
        if reads(Artifact::needs_d1_active) {
            read += 1;
            if let Some(d1) = self.read_d1(ctx, "d1-active")? {
                hits += usize::from(ctx.preload_d1_active(d1));
            }
        }
        if reads(Artifact::needs_d1_idle) {
            read += 1;
            if let Some(d1) = self.read_d1(ctx, "d1-idle")? {
                hits += usize::from(ctx.preload_d1_idle(d1));
            }
        }
        Ok((hits, read))
    }

    /// A stored D1 entry, decoded; `Ok(None)` when the store lacks it.
    fn read_d1(&self, ctx: &Ctx, entry: &str) -> Result<Option<D1>, MmError> {
        match self.cache.read(&Self::key(ctx, entry.to_string()))? {
            Some(bytes) => D1::read_store(bytes.as_slice()).map(Some),
            None => Ok(None),
        }
    }
}

fn utf8(bytes: &[u8]) -> Result<String, MmError> {
    std::str::from_utf8(bytes)
        .map(str::to_string)
        .map_err(|_| StoreError::Schema("stored text is not UTF-8".to_string()).into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mmx-store-{tag}-{}", std::process::id()))
    }

    #[test]
    fn datasets_preload_the_context() {
        let dir = tmp_dir("datasets");
        let store = RunStore::open(&dir).unwrap();
        let cold = Ctx::quick(2018);
        let nothing = store.load_datasets(&cold, &Artifact::ALL).unwrap();
        assert_eq!(nothing, (0, 3), "nothing stored yet");
        store.save_datasets(&cold).unwrap();
        let warm = Ctx::quick(2018);
        assert_eq!(store.load_datasets(&warm, &Artifact::ALL).unwrap(), (3, 3));
        // D2 arrives as the streamed aggregate, not the raw dataset: every
        // figure input matches the cold context's in-memory aggregate.
        assert_eq!(warm.d2_agg().len(), cold.d2().len());
        assert_eq!(
            warm.d2_agg().diversity_table("A"),
            cold.d2_agg().diversity_table("A")
        );
        assert_eq!(warm.d2_agg().gap_series(), cold.d2_agg().gap_series());
        assert_eq!(warm.d1_active(), cold.d1_active());
        assert_eq!(warm.d1_idle(), cold.d1_idle());

        // Only the entries the artifacts read are opened: a damaged
        // active D1 fails a load that reads it, and no other.
        std::fs::write(store.entry_path(&cold, "d1-active"), b"damaged").unwrap();
        let some = [Artifact::T2, Artifact::F10, Artifact::F12];
        let partial = Ctx::quick(2018);
        assert_eq!(store.load_datasets(&partial, &some).unwrap(), (2, 2));
        assert_eq!(partial.d1_idle(), cold.d1_idle());
        let damaged = store.load_datasets(&Ctx::quick(2018), &[Artifact::F5]);
        assert!(matches!(damaged, Err(MmError::Store(_))), "{damaged:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// FNV-1a and length of the `Ctx::quick(2018)` d2 entry, the value
    /// `tests/store_roundtrip.rs` pins as `GOLDEN_STORE_2018`'s d2 row.
    const GOLDEN_D2_2018: (usize, u64) = (6_931_155, 2982754153472058832);

    #[test]
    fn save_d2_on_a_fresh_context_writes_the_golden_entry() {
        let dir = tmp_dir("fresh-d2");
        let store = RunStore::open(&dir).unwrap();
        let ctx = Ctx::quick(2018);
        store.save_d2(&ctx).unwrap();
        let bytes = std::fs::read(store.entry_path(&ctx, "d2")).unwrap();
        assert_eq!((bytes.len(), mm_store::fnv1a64(&bytes)), GOLDEN_D2_2018);
        // The crawl the entry was written from stays in the context.
        let reference = mmlab::crawl(ctx.world(), round_seed(2018, 0));
        assert!(*ctx.d2() == reference, "the context's crawl differs");
        let manifest = store.load_manifest(&ctx).unwrap().unwrap();
        assert_eq!(manifest.total_samples(), reference.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A sink that passes `budget` bytes through, then stalls for `stall`
    /// and fails every write: a disk that fills or a device that errors
    /// partway through an entry.
    struct Faulty<W> {
        inner: W,
        budget: usize,
        stall: std::time::Duration,
    }

    impl<W: Write> Write for Faulty<W> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.len() > self.budget {
                std::thread::sleep(self.stall);
                return Err(std::io::Error::other("injected write fault"));
            }
            self.budget -= buf.len();
            self.inner.write_all(buf)?;
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// Stream `d2` into the store's d2 entry on `lanes` lanes through a
    /// sink that fails after `budget` bytes, on a watchdog thread: a lane
    /// run that hangs fails the test instead of stalling the suite.
    fn torn_d2_write(
        store: &RunStore,
        ctx: &Ctx,
        d2: &D2,
        lanes: usize,
        budget: usize,
        stall_ms: u64,
    ) -> Result<(), MmError> {
        let (cache, key, d2) = (
            store.cache.clone(),
            RunStore::key(ctx, "d2".into()),
            d2.clone(),
        );
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let got = cache.write_with(&key, |w| {
                let sink = Faulty {
                    inner: w,
                    budget,
                    stall: std::time::Duration::from_millis(stall_ms),
                };
                let exec = mm_exec::Executor::new(lanes);
                d2.write_store_on(sink, mmlab::store::BLOCK_ROWS, &exec)
            });
            tx.send(got).ok();
        });
        rx.recv_timeout(std::time::Duration::from_secs(120))
            .expect("the torn write hung")
    }

    #[test]
    fn torn_entries_leave_nothing_and_a_retry_writes_the_golden_bytes() {
        let dir = tmp_dir("torn");
        let store = RunStore::open(&dir).unwrap();
        let ctx = Ctx::quick(2018);
        let d2 = ctx.d2();
        let is_fault = |got: &Result<(), MmError>| matches!(got, Err(MmError::Io(e)) if e.to_string() == "injected write fault");

        // The sink fails after the header, the dictionary and a few row
        // groups.
        for lanes in [1, 2, 3] {
            let got = torn_d2_write(&store, &ctx, d2, lanes, 300_000, 0);
            assert!(is_fault(&got), "{lanes} lane(s): {got:?}");
            assert_eq!(listing(&dir), Vec::<String>::new(), "{lanes} lane(s)");
        }

        // Lane 0 writes the frames; its sink stalls before failing, long
        // enough for every other lane to fill its hand-off and block on
        // one more frame. The run must neither hang nor leave a file.
        for lanes in [2, 3] {
            let got = torn_d2_write(&store, &ctx, d2, lanes, 300_000, 200);
            assert!(is_fault(&got), "{lanes} lane(s): {got:?}");
            assert_eq!(listing(&dir), Vec::<String>::new(), "{lanes} lane(s)");
        }

        // A row that breaks the ingest contract in a late group owned by
        // lane 1 of 2 and lane 2 of 3, and a later one on lane 0 of both:
        // the first in file order is the error.
        let mut rows: Vec<mmlab::dataset::ConfigSample> = d2.iter().collect();
        let groups = rows.len().div_ceil(mmlab::store::BLOCK_ROWS);
        let late = (0..groups - 1).rev().find(|g| g % 6 == 5).unwrap();
        assert!(late > groups / 2, "{late} of {groups} groups");
        rows[late * mmlab::store::BLOCK_ROWS + 7].value = f64::NAN;
        rows[(late + 1) * mmlab::store::BLOCK_ROWS].value = 0.25;
        let bad = D2::from_samples(rows);
        for lanes in [2, 3] {
            let got = torn_d2_write(&store, &ctx, &bad, lanes, usize::MAX, 0);
            assert!(
                matches!(&got, Err(MmError::Dataset(msg)) if msg.contains("non-finite")),
                "{lanes} lanes: {got:?}"
            );
            assert_eq!(listing(&dir), Vec::<String>::new(), "{lanes} lanes");
        }

        // Nothing stands at the address, so a retry writes the entry whole.
        store.save_d2(&ctx).unwrap();
        let bytes = std::fs::read(store.entry_path(&ctx, "d2")).unwrap();
        assert_eq!((bytes.len(), mm_store::fnv1a64(&bytes)), GOLDEN_D2_2018);
        assert!(listing(&dir).iter().all(|n| !n.starts_with(".tmp-")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_is_idempotent_and_skips_existing_entries() {
        let dir = tmp_dir("resave");
        let store = RunStore::open(&dir).unwrap();
        let cold = Ctx::quick(2018);
        store.save_datasets(&cold).unwrap();
        let stamp = |p: &std::path::Path| std::fs::metadata(p).ok().and_then(|m| m.modified().ok());
        let entries: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        // d2 + d1-active + d1-idle + the campaign manifest.
        assert_eq!(entries.len(), 4);
        let before: Vec<_> = entries.iter().map(|p| stamp(p)).collect();
        // A context that streamed D2 off disk can still save without
        // re-crawling: every entry already exists, so nothing is rewritten.
        let warm = Ctx::quick(2018);
        store.load_datasets(&warm, &Artifact::ALL).unwrap();
        store.save_datasets(&warm).unwrap();
        let after: Vec<_> = entries.iter().map(|p| stamp(p)).collect();
        assert_eq!(before, after, "existing entries untouched");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_from_the_write_equals_one_from_the_trailer() {
        let dir = tmp_dir("manifest");
        let store = RunStore::open(&dir).unwrap();
        let ctx = Ctx::builder().quick().scale(0.02).build();
        // Written together with the entry: the count comes from the write.
        store.save_d2(&ctx).unwrap();
        let from_write = store.manifest_bytes(&ctx).unwrap().unwrap();
        // Entry on disk, manifest gone: the count comes from the trailer.
        std::fs::remove_file(store.cache.entry_path(&RunStore::manifest_key(&ctx))).unwrap();
        store.save_d2(&ctx).unwrap();
        let from_trailer = store.manifest_bytes(&ctx).unwrap().unwrap();
        assert_eq!(from_trailer, from_write);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_entry_without_manifest_is_typed_and_writes_none() {
        let dir = tmp_dir("truncated");
        let store = RunStore::open(&dir).unwrap();
        let ctx = Ctx::builder().quick().scale(0.02).build();
        store.save_d2(&ctx).unwrap();
        let manifest = store.cache.entry_path(&RunStore::manifest_key(&ctx));
        std::fs::remove_file(&manifest).unwrap();
        let entry = store.entry_path(&ctx, "d2");
        let bytes = std::fs::read(&entry).unwrap();
        std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();
        let got = store.save_d2(&ctx);
        assert!(matches!(got, Err(MmError::Store(_))), "{got:?}");
        assert!(!manifest.exists(), "no manifest for a damaged entry");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn round_zero_seed_is_the_historical_crawl_stream() {
        assert_eq!(round_seed(2018, 0), 2018 ^ 0xD2);
        assert_ne!(round_seed(2018, 1), round_seed(2018, 0));
        assert_ne!(round_seed(2018, 1), round_seed(2018, 2));
    }

    #[test]
    fn append_rounds_never_rewrite_prior_files() {
        let dir = tmp_dir("append");
        let store = RunStore::open(&dir).unwrap();
        let ctx = Ctx::builder().quick().scale(0.02).build();

        let crawl = |round| mmlab::crawl(ctx.world(), round_seed(ctx.seed, round));

        // Appending into an empty store is a usage error.
        assert!(matches!(store.next_round(&ctx), Err(MmError::Config(_))));
        let no_campaign = store.append_round(&ctx, 0, &crawl(0));
        assert!(matches!(no_campaign, Err(MmError::Config(_))));

        store.save_d2(&ctx).unwrap();
        let manifest = store.load_manifest(&ctx).unwrap().unwrap();
        assert_eq!(manifest.rounds.len(), 1);
        assert_eq!(manifest.rounds[0].entry, "d2");
        assert_eq!(manifest.rounds[0].samples, ctx.d2().len() as u64);
        let round0 = store.entry_path(&ctx, "d2");
        let round0_bytes = std::fs::read(&round0).unwrap();
        let bytes_before = store.manifest_bytes(&ctx).unwrap().unwrap();

        // Append one round crawled under the round-1 seed.
        assert_eq!(store.next_round(&ctx).unwrap(), 1);
        let next = crawl(1);
        let manifest = store.append_round(&ctx, 1, &next).unwrap();
        assert_eq!(manifest, store.load_manifest(&ctx).unwrap().unwrap());
        assert_eq!(manifest.rounds.len(), 2);
        assert_eq!(manifest.rounds[1].entry, "d2-round-1");
        assert_eq!(
            manifest.total_samples(),
            (ctx.d2().len() + next.len()) as u64
        );
        assert_eq!(manifest.next_round(), 2);
        // Round 0's file is byte-identical; only the manifest changed.
        assert_eq!(std::fs::read(&round0).unwrap(), round0_bytes);
        assert_ne!(store.manifest_bytes(&ctx).unwrap().unwrap(), bytes_before);
        // The runs were written as their flat copy would be.
        let mut flat = Vec::new();
        D2::from_samples(next.iter().collect())
            .write_store(&mut flat)
            .unwrap();
        let appended = std::fs::read(store.entry_path(&ctx, "d2-round-1")).unwrap();
        assert!(appended == flat, "appended entry differs");

        // A second append for round 1 was crawled for a manifest that no
        // longer stands: a typed error that writes nothing.
        let listing = || {
            let mut files: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            files.sort();
            files
        };
        let (files_before, bytes_before) = (listing(), store.manifest_bytes(&ctx).unwrap());
        let stale = store.append_round(&ctx, 1, &next);
        assert!(matches!(stale, Err(MmError::Campaign(_))), "{stale:?}");
        assert_eq!(listing(), files_before);
        assert_eq!(store.manifest_bytes(&ctx).unwrap(), bytes_before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_cache_round_trips_and_misses_are_clean() {
        let dir = tmp_dir("query");
        let store = RunStore::open(&dir).unwrap();
        let ctx = Ctx::quick(2018);
        assert_eq!(store.load_query(&ctx, 0xabcd).unwrap(), None);
        store.save_query(&ctx, 0xabcd, "f16 table\n").unwrap();
        assert_eq!(
            store.load_query(&ctx, 0xabcd).unwrap().as_deref(),
            Some("f16 table\n")
        );
        assert_eq!(store.load_query(&ctx, 0xabce).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
