//! Content-addressed artifact cache.
//!
//! Entries are keyed by the FNV-1a hash of the full experiment
//! configuration — `(seed, scale, runs, duration_ms, artifact id,
//! format version)` — so any knob change produces a different address and
//! a stale entry can never be served. The cache stores opaque byte
//! payloads (complete store files, typically); integrity of the payload is
//! the store framing's job, the cache only addresses and transports it.
//!
//! Every write is atomic and streamed: [`ArtifactCache::write_with`] hands
//! its caller a buffered temp file to write the entry into and renames it
//! into place only once the caller returned and the file flushed, so an
//! entry of any size never sits in memory whole, and a write that fails
//! partway leaves neither the entry nor its temp file.

use crate::block::FORMAT_VERSION;
use mmcore::MmError;
use std::io::Write;
use std::path::{Path, PathBuf};

/// FNV-1a 64-bit — the repo's reference content hash (same function the
/// determinism suite pins golden outputs with).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The configuration tuple a cache entry is addressed by.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheKey {
    /// Master experiment seed.
    pub seed: u64,
    /// World scale.
    pub scale: f64,
    /// Drive runs per (carrier, city).
    pub runs: u64,
    /// Drive duration, ms.
    pub duration_ms: u64,
    /// What is stored under this key: a dataset id (`"d2"`,
    /// `"d1-active"`, …), `"manifest"` or a query id (`"q-…"`).
    pub artifact: String,
}

impl CacheKey {
    /// The 64-bit content address: FNV-1a over every key component plus
    /// the on-disk [`FORMAT_VERSION`], so a codec revision invalidates all
    /// old entries instead of misreading them.
    pub fn hash(&self) -> u64 {
        let mut bytes = Vec::with_capacity(40 + self.artifact.len());
        bytes.extend_from_slice(&self.seed.to_le_bytes());
        bytes.extend_from_slice(&self.scale.to_bits().to_le_bytes());
        bytes.extend_from_slice(&self.runs.to_le_bytes());
        bytes.extend_from_slice(&self.duration_ms.to_le_bytes());
        bytes.extend_from_slice(self.artifact.as_bytes());
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        fnv1a64(&bytes)
    }

    /// The entry's file name: a readable artifact prefix plus the content
    /// address, e.g. `d1-active-9f3c2a….mmst`.
    pub fn file_name(&self) -> String {
        let safe: String = self
            .artifact
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' {
                    c
                } else {
                    '_'
                }
            })
            .take(48)
            .collect();
        format!("{safe}-{:016x}.mmst", self.hash())
    }
}

/// A directory of content-addressed entries.
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    dir: PathBuf,
}

impl ArtifactCache {
    /// Open (creating if needed) the cache directory.
    pub fn open(dir: &Path) -> Result<ArtifactCache, MmError> {
        std::fs::create_dir_all(dir)?;
        Ok(ArtifactCache {
            dir: dir.to_path_buf(),
        })
    }

    /// The path an entry for `key` lives at (whether or not it exists).
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Read an entry; `Ok(None)` on a miss. Hits and misses are counted in
    /// the `store` telemetry section.
    pub fn read(&self, key: &CacheKey) -> Result<Option<Vec<u8>>, MmError> {
        let path = self.entry_path(key);
        let t = mm_telemetry::global();
        match std::fs::read(&path) {
            Ok(bytes) => {
                t.counter_scoped("store", "cache_hits", mm_telemetry::Scope::Sim)
                    .inc();
                Ok(Some(bytes))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                t.counter_scoped("store", "cache_misses", mm_telemetry::Scope::Sim)
                    .inc();
                Ok(None)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Open an entry for streaming reads; `Ok(None)` on a miss. Same
    /// hit/miss accounting as [`read`](Self::read), but the caller gets a
    /// file handle to decode incrementally instead of the whole entry in
    /// one allocation — the point of the columnar block format.
    pub fn open_entry(&self, key: &CacheKey) -> Result<Option<std::fs::File>, MmError> {
        let path = self.entry_path(key);
        let t = mm_telemetry::global();
        match std::fs::File::open(&path) {
            Ok(f) => {
                t.counter_scoped("store", "cache_hits", mm_telemetry::Scope::Sim)
                    .inc();
                Ok(Some(f))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                t.counter_scoped("store", "cache_misses", mm_telemetry::Scope::Sim)
                    .inc();
                Ok(None)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Write an entry atomically (temp file + rename), so a crashed or
    /// interrupted save never leaves a half-written entry at the address.
    pub fn write(&self, key: &CacheKey, bytes: &[u8]) -> Result<(), MmError> {
        self.write_with(key, |w| w.write_all(bytes).map_err(MmError::from))
    }

    /// Stream an entry atomically: `fill` writes it into a buffered temp
    /// file, which is renamed to the entry's address once `fill` returned
    /// and the file flushed. An entry of any size passes through one
    /// `BufWriter`, so no caller holds a whole entry in memory.
    ///
    /// The temp name carries the process id and a process-wide sequence
    /// number, so concurrent writers of the *same* key (two mmqd workers
    /// caching the same freshly rendered answer, or two processes saving
    /// one dataset) never truncate each other's in-progress file: each
    /// renames its own complete copy into place. On any error — from
    /// `fill`, the flush or the rename — the temp file is removed and the
    /// original error returned, and nothing is left at the address.
    pub fn write_with<T>(
        &self,
        key: &CacheKey,
        fill: impl FnOnce(&mut dyn Write) -> Result<T, MmError>,
    ) -> Result<T, MmError> {
        static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        // relaxed-ok: the counter only disambiguates temp file names; any
        // total order of increments yields unique names per process
        let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp_path = self.dir.join(format!(
            ".tmp-{:016x}-{}-{seq}",
            key.hash(),
            std::process::id()
        ));
        let written = std::fs::File::create(&tmp_path)
            .map_err(MmError::from)
            .and_then(|file| {
                let mut w = std::io::BufWriter::new(file);
                let out = fill(&mut w)?;
                w.flush()?;
                std::fs::rename(&tmp_path, self.entry_path(key))?;
                Ok(out)
            });
        if written.is_err() {
            // The temp file may not exist (create failed); either way the
            // error to report is the write's own.
            std::fs::remove_file(&tmp_path).ok();
        }
        written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(artifact: &str) -> CacheKey {
        CacheKey {
            seed: 2018,
            scale: 0.05,
            runs: 2,
            duration_ms: 240_000,
            artifact: artifact.to_string(),
        }
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn every_key_component_changes_the_address() {
        let base = key("d2");
        let variants = [
            CacheKey {
                seed: 2019,
                ..base.clone()
            },
            CacheKey {
                scale: 0.25,
                ..base.clone()
            },
            CacheKey {
                runs: 3,
                ..base.clone()
            },
            CacheKey {
                duration_ms: 1,
                ..base.clone()
            },
            key("d1-active"),
        ];
        for v in &variants {
            assert_ne!(v.hash(), base.hash(), "{v:?}");
        }
        assert_eq!(key("d2").hash(), base.hash(), "hash is a pure function");
    }

    #[test]
    fn file_names_are_sanitized() {
        let k = key("run/t2 t3:α");
        let name = k.file_name();
        assert!(name.ends_with(".mmst"));
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.'),
            "{name}"
        );
    }

    #[test]
    fn round_trip_and_miss() {
        let dir = std::env::temp_dir().join(format!("mm-store-cache-{}", std::process::id()));
        let cache = ArtifactCache::open(&dir).unwrap();
        let k = key("d2");
        assert_eq!(cache.read(&k).unwrap(), None, "cold cache misses");
        cache.write(&k, b"payload").unwrap();
        assert_eq!(cache.read(&k).unwrap().as_deref(), Some(&b"payload"[..]));
        assert_eq!(
            cache.read(&key("other")).unwrap(),
            None,
            "different artifact, different address"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// File names in `dir`.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_failed_streamed_write_leaves_nothing_behind() {
        let dir =
            std::env::temp_dir().join(format!("mm-store-cache-stream-{}", std::process::id()));
        let cache = ArtifactCache::open(&dir).unwrap();
        let k = key("d2");
        // More than the buffer holds reaches the temp file before the
        // failure.
        let got = cache.write_with(&k, |w| {
            w.write_all(&[7u8; 100_000])?;
            Err::<(), _>(MmError::Config("fill failed".to_string()))
        });
        assert!(
            matches!(&got, Err(MmError::Config(msg)) if msg == "fill failed"),
            "{got:?}"
        );
        assert!(listing(&dir).is_empty(), "{:?}", listing(&dir));
        // A streamed write that succeeds lands whole at the address.
        let n = cache
            .write_with(&k, |w| {
                w.write_all(b"stream")?;
                w.write_all(b"ed")?;
                Ok(8)
            })
            .unwrap();
        assert_eq!(n, 8);
        assert_eq!(cache.read(&k).unwrap().as_deref(), Some(&b"streamed"[..]));
        assert_eq!(listing(&dir), [k.file_name()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_rename_leaves_no_temp_file() {
        let dir =
            std::env::temp_dir().join(format!("mm-store-cache-rename-{}", std::process::id()));
        let cache = ArtifactCache::open(&dir).unwrap();
        let k = key("d2");
        // A directory at the entry's path: the final rename cannot replace
        // it, after the temp file was created and written.
        std::fs::create_dir_all(cache.entry_path(&k)).unwrap();
        let got = cache.write(&k, b"payload");
        assert!(matches!(got, Err(MmError::Io(_))), "{got:?}");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.iter().all(|n| !n.starts_with(".tmp-")), "{names:?}");
        assert!(cache.entry_path(&k).is_dir(), "the directory is untouched");
        std::fs::remove_dir_all(&dir).ok();
    }
}
