//! The `mmx` artifact cache (DESIGN.md §9.5): content-addressed store
//! entries for the shared datasets and for whole-run bundles, so a warm
//! `mmx all --load` rerun skips simulation entirely and byte-identically
//! replays the cold run's stdout and `--metrics` snapshot.
//!
//! Three kinds of entries live in a `--store DIR` directory, all addressed
//! by the FNV-1a hash of `(seed, scale, runs, duration, artifact id,
//! format version)`:
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
//! * `run-…` — a run bundle: every rendered artifact text plus the
//!   deterministic telemetry snapshot captured at the end of the cold run.
//! * `q-…` — cached `mmq` query results (kind `mmq-query`), keyed by the
//!   FNV of the normalized query and the manifest content hash, so any
//!   append invalidates every cached query.

use crate::context::Ctx;
use crate::stream::D2Agg;
use mm_store::{ArtifactCache, CacheKey, Cursor, StoreReader, StoreWriter};
use mmcore::{MmError, StoreError};
use mmlab::dataset::{D1, D2};
use mmlab::store::{D2StoreReader, KIND_D2};
use std::io::BufReader;
use std::path::Path;

/// Store kind of a run bundle file.
pub const KIND_RUN: &str = "mmx-run";
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

    fn encode(&self) -> Result<Vec<u8>, MmError> {
        let mut file = Vec::new();
        let mut w = StoreWriter::new(&mut file, KIND_MANIFEST)?;
        for r in &self.rounds {
            let mut payload = Vec::new();
            mm_store::write_varint(&mut payload, u64::from(r.round));
            mm_store::write_varint(&mut payload, r.samples);
            mm_store::write_varint(&mut payload, r.entry.len() as u64);
            payload.extend_from_slice(r.entry.as_bytes());
            w.write_block(TAG_ROUND, &payload)?;
        }
        w.finish(self.rounds.len() as u64)?;
        Ok(file)
    }

    fn decode(bytes: &[u8]) -> Result<Manifest, MmError> {
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

/// Run-bundle block tag: one rendered artifact (varint id length, id
/// bytes, text bytes).
const TAG_TEXT: u8 = 1;
/// Run-bundle block tag: the deterministic metrics snapshot JSON.
const TAG_METRICS: u8 = 2;

/// A cold run's replayable outcome: rendered texts in print order plus the
/// metrics snapshot JSON (without trailing newline).
#[derive(Debug, Clone, PartialEq)]
pub struct RunBundle {
    /// `(artifact id, rendered text)` in the order they were printed.
    pub outputs: Vec<(String, String)>,
    /// The deterministic telemetry snapshot of the cold run.
    pub metrics_json: String,
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

    fn run_key(ctx: &Ctx, ids: &[&str]) -> CacheKey {
        Self::key(ctx, format!("run-{}", ids.join("+")))
    }

    /// Persist the context's three shared datasets (building any that are
    /// not yet warm). Entries that already exist at their address are left
    /// alone — the address encodes every input, so an existing entry is the
    /// byte-identical file, and skipping it means a `--load --save` rerun
    /// that streamed D2 off disk never re-crawls just to re-write it.
    pub fn save_datasets(&self, ctx: &Ctx) -> Result<(), MmError> {
        self.save_d2(ctx)?;
        let mut buf = Vec::new();
        let key = Self::key(ctx, "d1-active".to_string());
        if !self.cache.entry_path(&key).exists() {
            ctx.d1_active().write_store(&mut buf)?;
            self.cache.write(&key, &buf)?;
            buf.clear();
        }
        let key = Self::key(ctx, "d1-idle".to_string());
        if !self.cache.entry_path(&key).exists() {
            ctx.d1_idle().write_store(&mut buf)?;
            self.cache.write(&key, &buf)?;
        }
        Ok(())
    }

    /// Persist just the D2 entry (the `mmx crawl` write path), unless it
    /// already exists at its address, and make sure the campaign manifest
    /// records it as round 0.
    pub fn save_d2(&self, ctx: &Ctx) -> Result<(), MmError> {
        let key = Self::key(ctx, "d2".to_string());
        if !self.cache.entry_path(&key).exists() {
            let mut buf = Vec::new();
            ctx.d2().write_store(&mut buf)?;
            self.cache.write(&key, &buf)?;
        }
        self.ensure_manifest(ctx)
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
    /// count comes from the stored entry's own trailer, never from a
    /// re-crawl.
    fn ensure_manifest(&self, ctx: &Ctx) -> Result<(), MmError> {
        if self.cache.entry_path(&Self::manifest_key(ctx)).exists() {
            return Ok(());
        }
        let samples = self
            .entry_records(ctx, "d2")?
            .ok_or_else(|| StoreError::Schema("manifest without a d2 entry".to_string()))?;
        let manifest = Manifest {
            rounds: vec![RoundEntry {
                round: 0,
                samples,
                entry: "d2".to_string(),
            }],
        };
        self.cache
            .write(&Self::manifest_key(ctx), &manifest.encode()?)
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

    /// Append one crawled round as a brand-new store entry plus a manifest
    /// update. Prior-round files are never reopened for writing. Requires
    /// an existing campaign (round 0) — appending into an empty store is a
    /// usage error, not an implicit crawl.
    pub fn append_round(&self, ctx: &Ctx, d2: &D2) -> Result<u32, MmError> {
        let mut manifest = self.load_manifest(ctx)?.ok_or_else(|| {
            MmError::Config(
                "store has no campaign to append to; run `mmx crawl --store DIR` first".to_string(),
            )
        })?;
        let round = manifest.next_round();
        let entry = format!("d2-round-{round}");
        let mut buf = Vec::new();
        d2.write_store(&mut buf)?;
        self.cache.write(&Self::key(ctx, entry.clone()), &buf)?;
        manifest.rounds.push(RoundEntry {
            round,
            samples: d2.len() as u64,
            entry,
        });
        self.cache
            .write(&Self::manifest_key(ctx), &manifest.encode()?)?;
        Ok(round)
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

    /// Preload any stored datasets into the context's lazy slots, so a
    /// partial cache hit skips that part of the simulation. Returns how
    /// many datasets were loaded. A present-but-corrupt entry is a hard
    /// typed error, never a silent fallback to re-simulation.
    ///
    /// D2 is not materialized: its store entry is streamed block-by-block
    /// into the [`D2Agg`] figure aggregate (DESIGN.md §10), so at paper
    /// scale the 8M-sample dataset never exists in memory. The two D1s are
    /// campaign-bounded (thousands of handoffs, not millions of samples)
    /// and stay materialized.
    pub fn load_datasets(&self, ctx: &Ctx) -> Result<usize, MmError> {
        let mut hits = 0;
        if let Some(file) = self.cache.open_entry(&Self::key(ctx, "d2".to_string()))? {
            let reader = D2StoreReader::new(BufReader::new(file))?;
            if ctx.preload_d2_agg(D2Agg::from_store(reader)?) {
                hits += 1;
            }
        }
        if let Some(bytes) = self.cache.read(&Self::key(ctx, "d1-active".to_string()))? {
            if ctx.preload_d1_active(D1::read_store(bytes.as_slice())?) {
                hits += 1;
            }
        }
        if let Some(bytes) = self.cache.read(&Self::key(ctx, "d1-idle".to_string()))? {
            if ctx.preload_d1_idle(D1::read_store(bytes.as_slice())?) {
                hits += 1;
            }
        }
        Ok(hits)
    }

    /// Persist a run bundle under the artifact-set key.
    pub fn save_run(&self, ctx: &Ctx, ids: &[&str], bundle: &RunBundle) -> Result<(), MmError> {
        let mut file = Vec::new();
        let mut w = StoreWriter::new(&mut file, KIND_RUN)?;
        for (id, text) in &bundle.outputs {
            let mut payload = Vec::new();
            mm_store::write_varint(&mut payload, id.len() as u64);
            payload.extend_from_slice(id.as_bytes());
            payload.extend_from_slice(text.as_bytes());
            w.write_block(TAG_TEXT, &payload)?;
        }
        w.write_block(TAG_METRICS, bundle.metrics_json.as_bytes())?;
        w.finish(bundle.outputs.len() as u64)?;
        self.cache.write(&Self::run_key(ctx, ids), &file)
    }

    /// Load the run bundle for this artifact set; `Ok(None)` on a miss, a
    /// typed error on a corrupt entry.
    pub fn load_run(&self, ctx: &Ctx, ids: &[&str]) -> Result<Option<RunBundle>, MmError> {
        let Some(bytes) = self.cache.read(&Self::run_key(ctx, ids))? else {
            return Ok(None);
        };
        let mut reader = StoreReader::new(bytes.as_slice(), KIND_RUN)?;
        let mut outputs = Vec::new();
        let mut metrics_json: Option<String> = None;
        while let Some(block) = reader.next_block()? {
            match block.tag {
                TAG_TEXT => {
                    let mut c = Cursor::new(&block.payload);
                    let id_len = c.read_varint().map_err(MmError::Store)? as usize;
                    let id = utf8(c.read_bytes(id_len).map_err(MmError::Store)?)?;
                    let text = utf8(c.read_bytes(c.remaining()).map_err(MmError::Store)?)?;
                    outputs.push((id, text));
                }
                TAG_METRICS => {
                    if metrics_json.is_some() {
                        return Err(
                            StoreError::Schema("duplicate metrics block".to_string()).into()
                        );
                    }
                    metrics_json = Some(utf8(&block.payload)?);
                }
                t => return Err(StoreError::Schema(format!("unknown block tag {t}")).into()),
            }
        }
        let declared = reader.records().unwrap_or(0);
        if declared != outputs.len() as u64 {
            return Err(StoreError::Schema(format!(
                "trailer declares {declared} artifacts, decoded {}",
                outputs.len()
            ))
            .into());
        }
        let metrics_json = metrics_json
            .ok_or_else(|| StoreError::Schema("bundle has no metrics block".to_string()))?;
        Ok(Some(RunBundle {
            outputs,
            metrics_json,
        }))
    }

    /// Path of the run-bundle entry (used by tests and corruption gates).
    pub fn run_entry_path(&self, ctx: &Ctx, ids: &[&str]) -> std::path::PathBuf {
        self.cache.entry_path(&Self::run_key(ctx, ids))
    }
}

fn utf8(bytes: &[u8]) -> Result<String, MmError> {
    std::str::from_utf8(bytes)
        .map(str::to_string)
        .map_err(|_| StoreError::Schema("bundle text is not UTF-8".to_string()).into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mmx-store-{tag}-{}", std::process::id()))
    }

    fn bundle() -> RunBundle {
        RunBundle {
            outputs: vec![
                ("t2".to_string(), "alpha\nbeta\n".to_string()),
                ("f5".to_string(), "gamma\n".to_string()),
            ],
            metrics_json: "{\"sections\":[]}".to_string(),
        }
    }

    #[test]
    fn run_bundle_round_trips() {
        let dir = tmp_dir("bundle");
        let store = RunStore::open(&dir).unwrap();
        let ctx = Ctx::quick(2018);
        let ids = ["t2", "f5"];
        assert_eq!(store.load_run(&ctx, &ids).unwrap(), None, "cold miss");
        store.save_run(&ctx, &ids, &bundle()).unwrap();
        assert_eq!(store.load_run(&ctx, &ids).unwrap(), Some(bundle()));
        // A different artifact set or seed is a different address.
        assert_eq!(store.load_run(&ctx, &["t2"]).unwrap(), None);
        assert_eq!(store.load_run(&Ctx::quick(1), &ids).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_bundle_is_a_typed_error_not_a_silent_miss() {
        let dir = tmp_dir("corrupt");
        let store = RunStore::open(&dir).unwrap();
        let ctx = Ctx::quick(2018);
        let ids = ["t2"];
        store.save_run(&ctx, &ids, &bundle()).unwrap();
        let path = store.run_entry_path(&ctx, &ids);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(store.load_run(&ctx, &ids), Err(MmError::Store(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn datasets_preload_the_context() {
        let dir = tmp_dir("datasets");
        let store = RunStore::open(&dir).unwrap();
        let cold = Ctx::quick(2018);
        assert_eq!(store.load_datasets(&cold).unwrap(), 0, "nothing stored yet");
        store.save_datasets(&cold).unwrap();
        let warm = Ctx::quick(2018);
        assert_eq!(store.load_datasets(&warm).unwrap(), 3);
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
        // A context that streamed D2 off disk can still `--save` without
        // re-crawling: every entry already exists, so nothing is rewritten.
        let warm = Ctx::quick(2018);
        store.load_datasets(&warm).unwrap();
        store.save_datasets(&warm).unwrap();
        let after: Vec<_> = entries.iter().map(|p| stamp(p)).collect();
        assert_eq!(before, after, "existing entries untouched");
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

        // Appending into an empty store is a usage error.
        let no_campaign = store.append_round(&ctx, ctx.d2());
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
        let world = ctx.world();
        let d2_next = mmlab::crawl(world, round_seed(ctx.seed, 1));
        let round = store.append_round(&ctx, &d2_next).unwrap();
        assert_eq!(round, 1);
        let manifest = store.load_manifest(&ctx).unwrap().unwrap();
        assert_eq!(manifest.rounds.len(), 2);
        assert_eq!(manifest.rounds[1].entry, "d2-round-1");
        assert_eq!(
            manifest.total_samples(),
            (ctx.d2().len() + d2_next.len()) as u64
        );
        assert_eq!(manifest.next_round(), 2);
        // Round 0's file is byte-identical; only the manifest changed.
        assert_eq!(std::fs::read(&round0).unwrap(), round0_bytes);
        assert_ne!(store.manifest_bytes(&ctx).unwrap().unwrap(), bytes_before);
        assert!(store.entry_path(&ctx, "d2-round-1").exists());
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
