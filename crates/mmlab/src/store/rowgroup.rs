//! The one row-group codec behind both dataset schemas: dictionary
//! resolution, the v2 group prefix, predicate pushdown, the streaming
//! reader and the writer. What differs between D2 and D1 rows is the
//! [`RowSchema`] trait, implemented in the parent module.
//!
//! This module is private. Its items are `pub` only so the trait can bound
//! the public [`RowGroupReader`] (the sealed-trait pattern): outside the
//! crate the reader, through its `D2StoreReader`/`D1StoreReader` aliases,
//! and [`ScanStats`] are all that is reachable.

use super::{TAG_DICT, TAG_ROWS};
use crate::dataset::ConfigSample;
use crate::predicate::Predicate;
use mm_store::{write_varint, Cursor, Dict, DictBuilder, StoreReader, StoreWriter};
use mmcore::{MmError, StoreError};
use mmradio::band::Rat;
use std::collections::BTreeSet;
use std::io::{Read, Write};

/// What differs between the stored schemas. Everything else — framing,
/// pushdown, CRC skipping, trailer accounting — is shared.
pub trait RowSchema: Sized {
    /// Dataset kind stamped in the store header.
    const KIND: &'static str;
    /// Prefix of this schema's `store` group counters
    /// (`{LABEL}_groups_decoded`, `{LABEL}_groups_skipped`).
    const LABEL: &'static str;
    /// Columns in one row group.
    const COLS: usize;
    /// Vocabulary stat lists in one row-group prefix.
    const STATS: usize;

    /// Resolve `pred` into selectors aligned with the stat lists
    /// [`encode`](Self::encode) writes; `None` when `pred` constrains no
    /// stat dimension, so no group's stats need consulting.
    fn filter(pred: &Predicate, dict: &ResolvedDict) -> Option<GroupFilter>;

    /// Encode one row group, interning its strings into `dict`.
    fn encode(dict: &mut DictBuilder, rows: &[Self]) -> Result<Vec<u8>, MmError>;

    /// Decode `n_rows` rows from a group's [`COLS`](Self::COLS) column
    /// byte strings.
    fn decode(dict: &ResolvedDict, n_rows: u64, cols: &[&[u8]]) -> Result<Vec<Self>, MmError>;

    /// Whether `row` satisfies every constraint of `pred` this schema has
    /// a field for.
    fn matches(pred: &Predicate, row: &Self) -> bool;

    /// Shift the row's crawl round by `rounds` (a no-op for rows without
    /// one).
    fn shift_round(&mut self, rounds: u32);
}

// ---------------------------------------------------------------------------
// Vocabulary interning
// ---------------------------------------------------------------------------

/// Re-intern a carrier code into the `&'static str` the carrier profiles
/// own — dataset rows carry `&'static str`, so a decoded string must map
/// back into the fixed vocabulary.
fn intern_carrier(code: &str) -> Option<&'static str> {
    mmcarriers::builtin::by_code(code).map(|p| p.code)
}

/// Parameter names the LTE crawler emits as string literals rather than
/// through the core params tables (derived/pseudo-parameters of
/// `crawler::extract_samples`). Reader-side interning falls back to this
/// vocabulary after the per-RAT tables.
const CRAWLER_PARAMS: &[&str] = &[
    "cellReselectionPriority",
    "q-Hyst",
    "q-RxLevMin",
    "s-IntraSearchP",
    "s-NonIntraSearchP",
    "threshServingLowP",
    "t-ReselectionEUTRA",
    "interFreqCellReselectionPriority",
    "threshX-High",
    "threshX-Low",
    "a3-Offset",
    "hysteresis",
    "a5-Threshold1",
    "a5-Threshold2",
    "a5-TriggerQuantity",
    "a2-Threshold",
    "timeToTrigger",
    "reportInterval",
    "reportAmount",
    "q-QualMin",
    "q-OffsetCell",
    "interFreq-q-RxLevMin",
    "interFreq-q-OffsetFreq",
    "t-ReselectionInterFreq",
    "allowedMeasBandwidth",
    "utra-CellReselectionPriority",
    "utra-threshX-High",
    "utra-threshX-Low",
    "utra-q-RxLevMin",
    "t-ReselectionUTRA",
    "geran-CellReselectionPriority",
    "geran-threshX-High",
    "geran-threshX-Low",
    "geran-q-RxLevMin",
    "t-ReselectionGERAN",
    "hrpd-CellReselectionPriority",
    "threshX-HighHRPD",
    "threshX-LowHRPD",
    "1xrtt-CellReselectionPriority",
    "threshX-High1XRTT",
    "threshX-Low1XRTT",
    "t-ReselectionCDMA2000",
];

/// Re-intern a parameter name (any RAT's table — SIB5/6/7/8 rows can
/// reference neighbour-layer parameters — then the crawler's literal
/// vocabulary). `&'static str` comparisons downstream are by value, so any
/// static string with the right content is the right answer.
fn intern_param(name: &str) -> Option<&'static str> {
    for r in Rat::ALL {
        if let Some(spec) = mmcore::params::lookup(r, name) {
            return Some(spec.name);
        }
    }
    CRAWLER_PARAMS.iter().find(|&&s| s == name).copied()
}

/// A decoded dictionary with its entries pre-resolved against the static
/// vocabularies, once per file — carrier lookups rebuild every profile, so
/// doing them per row would dominate decode time. An entry that resolves
/// to nothing only becomes an error when a row actually references it in
/// that role.
pub struct ResolvedDict {
    dict: Dict,
    carriers: Vec<Option<&'static str>>,
    params: Vec<Option<&'static str>>,
}

impl ResolvedDict {
    fn new(dict: Dict) -> ResolvedDict {
        let entries = 0..dict.len() as u64;
        let carriers = entries
            .clone()
            .map(|i| dict.get(i).ok().and_then(intern_carrier))
            .collect();
        let params = entries
            .map(|i| dict.get(i).ok().and_then(intern_param))
            .collect();
        ResolvedDict {
            dict,
            carriers,
            params,
        }
    }

    /// The carrier code behind dictionary id `id`.
    pub fn carrier(&self, id: u64) -> Result<&'static str, StoreError> {
        let s = self.dict.get(id)?;
        self.carriers
            .get(id as usize)
            .copied()
            .flatten()
            .ok_or_else(|| StoreError::Schema(format!("unknown carrier code {s:?}")))
    }

    /// The city behind dictionary id `id`.
    pub fn city(&self, id: u64) -> Result<mmcarriers::city::City, StoreError> {
        Ok(mmcarriers::city::City::intern(self.dict.get(id)?))
    }

    /// The parameter name behind dictionary id `id`.
    pub fn param(&self, id: u64) -> Result<&'static str, StoreError> {
        let s = self.dict.get(id)?;
        self.params
            .get(id as usize)
            .copied()
            .flatten()
            .ok_or_else(|| StoreError::Schema(format!("unknown parameter name {s:?}")))
    }

    /// The dictionary id of `s`, if this file's vocabulary contains it.
    /// Dictionaries are small (a few hundred entries), so a linear probe
    /// once per file is noise next to block decode.
    fn find(&self, s: &str) -> Option<u64> {
        (0..self.dict.len() as u64).find(|&i| self.dict.get(i).is_ok_and(|e| e == s))
    }
}

// ---------------------------------------------------------------------------
// Row-group plumbing (format v2: prefix + stats + columns)
// ---------------------------------------------------------------------------

/// Serialize a v2 row group: row count, column count, the per-group
/// vocabulary stat lists (each a sorted run of varint ids), then the
/// `len`-prefixed column byte strings.
pub fn encode_group(n_rows: usize, stats: &[BTreeSet<u64>], cols: &[Vec<u8>]) -> Vec<u8> {
    let mut stats_buf = Vec::new();
    for list in stats {
        write_varint(&mut stats_buf, list.len() as u64);
        for &id in list {
            write_varint(&mut stats_buf, id);
        }
    }
    let mut payload = Vec::new();
    write_varint(&mut payload, n_rows as u64);
    write_varint(&mut payload, cols.len() as u64);
    write_varint(&mut payload, stats_buf.len() as u64);
    payload.extend_from_slice(&stats_buf);
    for col in cols {
        write_varint(&mut payload, col.len() as u64);
        payload.extend_from_slice(col);
    }
    payload
}

/// The decoded v2 group prefix: what a reader learns about a row group
/// *before* committing to decode its columns.
struct GroupPrefix<'a> {
    n_rows: u64,
    /// Sorted dictionary-id (or enum-tag) lists, one per stat dimension.
    stats: Vec<Vec<u64>>,
    /// Cursor positioned at the first column length.
    cols: Cursor<'a>,
}

/// Parse a v2 group prefix. The declared row and column counts are checked
/// here — before any column byte is touched — so a file written under a
/// different schema fails fast with a typed error instead of misdecoding
/// columns, and a lying row count never sizes an allocation.
fn decode_group_prefix<'a>(
    payload: &'a [u8],
    expect_cols: usize,
    n_stats: usize,
) -> Result<GroupPrefix<'a>, MmError> {
    let mut c = Cursor::new(payload);
    let n_rows = c.read_varint().map_err(MmError::Store)?;
    // Every row writes at least one varint byte into the first column (cell
    // id for D2, carrier id for D1), so no valid group breaks this bound.
    if n_rows > payload.len() as u64 {
        return Err(StoreError::Schema(format!(
            "row group declares {n_rows} rows in a {}-byte payload",
            payload.len()
        ))
        .into());
    }
    let n_cols = c.read_varint().map_err(MmError::Store)?;
    if n_cols != expect_cols as u64 {
        return Err(StoreError::Schema(format!(
            "row group declares {n_cols} columns, schema expects {expect_cols}"
        ))
        .into());
    }
    let stats_len = c.read_varint().map_err(MmError::Store)?;
    let stats_raw = c.read_bytes(stats_len as usize).map_err(MmError::Store)?;
    let mut sc = Cursor::new(stats_raw);
    let mut stats = Vec::with_capacity(n_stats);
    for _ in 0..n_stats {
        let n = sc.read_varint().map_err(MmError::Store)?;
        if n > stats_len {
            return Err(StoreError::Schema(format!(
                "group stats list declares {n} ids in a {stats_len}-byte prefix"
            ))
            .into());
        }
        let mut list = Vec::with_capacity(n as usize);
        for _ in 0..n {
            list.push(sc.read_varint().map_err(MmError::Store)?);
        }
        stats.push(list);
    }
    if !sc.is_empty() {
        return Err(StoreError::Schema("trailing bytes after group stats".to_string()).into());
    }
    Ok(GroupPrefix {
        n_rows,
        stats,
        cols: c,
    })
}

/// Read the column byte strings after a decoded prefix.
fn read_columns<'a>(c: &mut Cursor<'a>, expect: usize) -> Result<Vec<&'a [u8]>, MmError> {
    let mut cols = Vec::with_capacity(expect);
    for _ in 0..expect {
        let len = c.read_varint().map_err(MmError::Store)?;
        cols.push(c.read_bytes(len as usize).map_err(MmError::Store)?);
    }
    if !c.is_empty() {
        return Err(StoreError::Schema("trailing bytes after columns".to_string()).into());
    }
    Ok(cols)
}

// ---------------------------------------------------------------------------
// Predicate pushdown
// ---------------------------------------------------------------------------

/// Per-scan accounting of what a pushdown reader did: how many row groups
/// it decoded, how many it skipped on their stats alone, and how many rows
/// those skipped groups held. Trailer accounting covers both paths —
/// `declared == decoded + rows_skipped` — so a skip can never silently eat
/// data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Row groups whose columns were decoded.
    pub groups_decoded: u64,
    /// Row groups skipped via their vocabulary stats, columns untouched.
    pub groups_skipped: u64,
    /// Rows contained in the skipped groups.
    pub rows_skipped: u64,
}

impl std::ops::AddAssign for ScanStats {
    fn add_assign(&mut self, other: ScanStats) {
        self.groups_decoded += other.groups_decoded;
        self.groups_skipped += other.groups_skipped;
        self.rows_skipped += other.rows_skipped;
    }
}

/// One resolved predicate dimension against a file's dictionary.
#[derive(Debug, Clone, Copy)]
pub enum IdSel {
    /// Unconstrained: every group admits.
    Any,
    /// Constrained to a value the file's vocabulary does not contain:
    /// no group can admit.
    Absent,
    /// Constrained to this dictionary id / enum tag.
    One(u64),
}

impl IdSel {
    fn admits(self, sorted_ids: &[u64]) -> bool {
        match self {
            IdSel::Any => true,
            IdSel::Absent => false,
            IdSel::One(id) => sorted_ids.binary_search(&id).is_ok(),
        }
    }
}

/// The selector of a string-valued dimension: unconstrained, or the
/// dictionary id of `want` in this file.
pub fn sel_str(want: Option<&str>, dict: &ResolvedDict) -> IdSel {
    match want {
        None => IdSel::Any,
        Some(s) => dict.find(s).map_or(IdSel::Absent, IdSel::One),
    }
}

/// A predicate resolved into per-stat-dimension id selectors, aligned with
/// the group stats lists.
pub struct GroupFilter {
    sels: Vec<IdSel>,
}

impl GroupFilter {
    /// The filter over `sels`, or `None` when none of them constrains
    /// anything.
    pub fn new(sels: Vec<IdSel>) -> Option<GroupFilter> {
        sels.iter()
            .any(|sel| !matches!(sel, IdSel::Any))
            .then_some(GroupFilter { sels })
    }

    fn admits(&self, stats: &[Vec<u64>]) -> bool {
        self.sels
            .iter()
            .zip(stats)
            .all(|(sel, ids)| sel.admits(ids))
    }
}

// ---------------------------------------------------------------------------
// Reader and writer
// ---------------------------------------------------------------------------

/// Streaming reader of one schema's store files: yields one row at a time,
/// decoding one row group per block — the whole dataset is never
/// materialized here. `D2StoreReader` and `D1StoreReader` are its two
/// instances.
///
/// Configure before iterating:
/// [`with_predicate`](Self::with_predicate) skips whole row groups via
/// their vocabulary stats and row-filters the rest;
/// [`scan_with_predicate`](Self::scan_with_predicate) row-filters only
/// (the full-scan baseline); on D2,
/// [`with_round_offset`](RowGroupReader::with_round_offset) shifts decoded
/// rounds for appended campaign rounds.
pub struct RowGroupReader<T, R: Read> {
    inner: StoreReader<R>,
    dict: Option<ResolvedDict>,
    buf: std::vec::IntoIter<T>,
    decoded: u64,
    done: bool,
    pred: Predicate,
    pushdown: bool,
    filter: Option<GroupFilter>,
    round_offset: u32,
    stats: ScanStats,
}

impl<T: RowSchema, R: Read> RowGroupReader<T, R> {
    /// Open a store stream and validate its header.
    pub fn new(r: R) -> Result<Self, MmError> {
        let inner = StoreReader::new(r, T::KIND)?;
        // Pre-v2 row groups lack the column count and stats prefix —
        // decoding them under the v2 layout would misparse columns; a clear
        // schema error up front beats a garbled one mid-file.
        if inner.version() < 2 {
            return Err(StoreError::Schema(format!(
                "store format v{} predates per-group column stats; re-crawl to refresh the store",
                inner.version()
            ))
            .into());
        }
        Ok(RowGroupReader {
            inner,
            dict: None,
            buf: Vec::new().into_iter(),
            decoded: 0,
            done: false,
            pred: Predicate::any(),
            pushdown: false,
            filter: None,
            round_offset: 0,
            stats: ScanStats::default(),
        })
    }

    /// Yield only rows matching `pred`, skipping whole row groups whose
    /// vocabulary stats rule the predicate out — their column bytes are
    /// never decoded, and (like any column store that prunes on page
    /// stats) their checksums are not verified either; only groups that
    /// contribute rows pay the CRC pass. D1 has stats for carrier and
    /// city only. Call before iterating.
    pub fn with_predicate(mut self, pred: &Predicate) -> Self {
        self.pred = pred.clone();
        self.pushdown = true;
        self
    }

    /// Yield only rows matching `pred`, decoding *every* group (no block
    /// skipping) — the full-scan baseline pushdown is measured against.
    pub fn scan_with_predicate(mut self, pred: &Predicate) -> Self {
        self.pred = pred.clone();
        self.pushdown = false;
        self
    }

    /// What this scan decoded vs skipped so far (complete once iteration
    /// has finished).
    pub fn scan_stats(&self) -> ScanStats {
        self.stats
    }

    fn refill(&mut self) -> Result<bool, MmError> {
        loop {
            // With a pushdown filter armed, each row group's stats prefix
            // is consulted before the checksum pass: a rejected group's
            // column bytes and CRC are never touched. A prefix that fails
            // to parse is admitted so the verified path below reports the
            // real (typed) error.
            let Self {
                inner,
                filter,
                stats,
                ..
            } = self;
            let next = if let Some(f) = filter.as_ref() {
                inner.next_block_if(&mut |tag, payload| {
                    if tag != TAG_ROWS {
                        return true;
                    }
                    let Ok(prefix) = decode_group_prefix(payload, T::COLS, T::STATS) else {
                        return true;
                    };
                    if f.admits(&prefix.stats) {
                        return true;
                    }
                    stats.groups_skipped += 1;
                    stats.rows_skipped += prefix.n_rows;
                    false
                })?
            } else {
                inner.next_block()?
            };
            let Some(block) = next else {
                let declared = self.inner.records().unwrap_or(0);
                let seen = self.decoded + self.stats.rows_skipped;
                if declared != seen {
                    return Err(StoreError::Schema(format!(
                        "trailer declares {declared} rows, saw {seen}"
                    ))
                    .into());
                }
                // Mirrors the blocks_read/bytes_read counters a layer down.
                let t = mm_telemetry::global();
                for (what, n) in [
                    ("groups_decoded", self.stats.groups_decoded),
                    ("groups_skipped", self.stats.groups_skipped),
                ] {
                    let name = format!("{}_{what}", T::LABEL);
                    t.counter_scoped("store", &name, mm_telemetry::Scope::Sim)
                        .add(n);
                }
                return Ok(false);
            };
            match block.tag {
                TAG_DICT => {
                    let dict =
                        ResolvedDict::new(Dict::decode(&block.payload).map_err(MmError::Store)?);
                    if self.pushdown {
                        self.filter = T::filter(&self.pred, &dict);
                    }
                    self.dict = Some(dict);
                }
                TAG_ROWS => {
                    // Groups the filter rejects never reach this point: it
                    // ran on the same bytes before the checksum pass.
                    let dict = self.dict.as_ref().ok_or_else(|| {
                        StoreError::Schema("row group before dictionary".to_string())
                    })?;
                    let mut prefix = decode_group_prefix(&block.payload, T::COLS, T::STATS)?;
                    let cols = read_columns(&mut prefix.cols, T::COLS)?;
                    let mut rows = T::decode(dict, prefix.n_rows, &cols)?;
                    self.stats.groups_decoded += 1;
                    self.decoded += rows.len() as u64;
                    if self.round_offset != 0 {
                        for row in &mut rows {
                            row.shift_round(self.round_offset);
                        }
                    }
                    if !self.pred.is_any() {
                        let pred = &self.pred;
                        rows.retain(|row| T::matches(pred, row));
                    }
                    self.buf = rows.into_iter();
                    return Ok(true);
                }
                t => {
                    return Err(StoreError::Schema(format!("unknown block tag {t}")).into());
                }
            }
        }
    }
}

impl<R: Read> RowGroupReader<ConfigSample, R> {
    /// Shift every decoded row's round by `rounds` — how appended campaign
    /// rounds (stored with local rounds starting at 0) surface under the
    /// global round index.
    pub fn with_round_offset(mut self, rounds: u32) -> Self {
        self.round_offset = rounds;
        self
    }
}

impl<T: RowSchema, R: Read> Iterator for RowGroupReader<T, R> {
    type Item = Result<T, MmError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            if let Some(row) = self.buf.next() {
                return Some(Ok(row));
            }
            match self.refill() {
                Ok(true) => {}
                Ok(false) => {
                    self.done = true;
                    return None;
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

/// Write `rows` as one store file of `T`'s kind: the dictionary block, row
/// groups of `block_rows` rows each, then the trailer.
pub fn write_rows<T: RowSchema, W: Write>(
    rows: &[T],
    w: W,
    block_rows: usize,
) -> Result<(), MmError> {
    // The dictionary block must precede the row groups it describes, so
    // intern every string first.
    let mut dict = DictBuilder::new();
    let groups = rows
        .chunks(block_rows.max(1))
        .map(|chunk| T::encode(&mut dict, chunk))
        .collect::<Result<Vec<_>, _>>()?;
    let mut writer = StoreWriter::new(w, T::KIND)?;
    writer.write_block(TAG_DICT, &dict.encode())?;
    for g in &groups {
        writer.write_block(TAG_ROWS, g)?;
    }
    writer.finish(rows.len() as u64)
}

/// Read every row of a store stream of `T`'s kind.
pub fn read_rows<T: RowSchema, R: Read>(r: R) -> Result<Vec<T>, MmError> {
    RowGroupReader::new(r)?.collect()
}
