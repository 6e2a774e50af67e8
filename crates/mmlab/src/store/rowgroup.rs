//! The one row-group codec behind both dataset schemas: dictionary
//! resolution, the v2 group prefix, predicate pushdown, the streaming
//! reader and the writer. What differs between D2 and D1 rows is the
//! [`RowSchema`] trait, implemented in the parent module.
//!
//! The writer ([`write_rows`]) runs on [`Executor::lanes`]: once every
//! string is interned, the dictionary is frozen and shared, and row group
//! `k` is encoded and CRC-framed on lane `k mod n`. Each lane walks the
//! [`RowSource`] and expands only its own groups, into buffers it reuses
//! from group to group; the caller, lane 0, writes every frame in file
//! order as it comes. One thread runs the same loop inline.
//!
//! This module is private. Its items are `pub` only so the trait can bound
//! the public [`RowGroupReader`] (the sealed-trait pattern): outside the
//! crate the reader, through its `D2StoreReader`/`D1StoreReader` aliases,
//! [`ScanStats`] and [`intern_param`] are all that is reachable.

use super::{TAG_DICT, TAG_ROWS};
use crate::dataset::ConfigSample;
use crate::predicate::Predicate;
use mm_exec::Executor;
use mm_store::{
    seal_frame, start_frame, varint_len, write_varint, Cursor, Dict, DictBuilder, StoreReader,
    StoreWriter,
};
use mmcarriers::city::City;
use mmcore::{MmError, StoreError};
use mmradio::band::Rat;
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
    /// The [`STATS`](Self::STATS) sets [`encode`](Self::encode) fills,
    /// in prefix order. One value serves every group a lane encodes:
    /// [`encode_group`] leaves the sets empty.
    type Stats: Default + AsMut<[IdSet]>;
    /// The [`COLS`](Self::COLS) column buffers [`encode`](Self::encode)
    /// fills, in column order. One value serves every group a lane
    /// encodes: each group's columns overwrite the last group's.
    type Cols: Default + AsRef<[Vec<u8>]>;

    /// Resolve `pred` into selectors aligned with the stat lists
    /// [`encode`](Self::encode) writes; `None` when `pred` constrains no
    /// stat dimension, so no group's stats need consulting.
    fn filter(pred: &Predicate, dict: &ResolvedDict) -> Option<GroupFilter>;

    /// Intern the row's strings into `dict` in the order
    /// [`encode`](Self::encode) meets them.
    fn intern(dict: &mut DictBuilder, row: &Self);

    /// Encode one row group's columns into `cols`, looking its strings up
    /// in the frozen `dict` and collecting its stats in `stats`, which
    /// arrive empty. A string `dict` lacks is a `Schema` error.
    fn encode(
        dict: &DictBuilder,
        stats: &mut Self::Stats,
        cols: &mut Self::Cols,
        rows: &[Self],
    ) -> Result<(), MmError>;

    /// Decode `n_rows` rows from a group's [`COLS`](Self::COLS) column
    /// byte strings.
    fn decode(dict: &ResolvedDict, n_rows: u64, cols: &[&[u8]]) -> Result<Vec<Self>, MmError>;

    /// Whether `row` satisfies every constraint of `pred` this schema has
    /// a field for.
    fn matches(pred: &Predicate, row: &Self) -> bool;

    /// Shift the row's crawl round by `rounds` (a no-op for rows without
    /// one); a shifted round beyond `u32` is a schema error.
    fn shift_round(&mut self, rounds: u32) -> Result<(), StoreError>;
}

// ---------------------------------------------------------------------------
// Vocabulary interning
// ---------------------------------------------------------------------------

/// Parameter names the LTE crawler emits (`crawler::extract_samples`)
/// that no RAT's parameter table holds: a pseudo-parameter and the
/// neighbour-layer names the tables lack. Reader-side interning falls back
/// to this vocabulary after the tables, so a name a table holds never
/// reaches it.
const CRAWLER_PARAMS: &[&str] = &[
    "a5-TriggerQuantity",
    "reportAmount",
    "interFreq-q-RxLevMin",
    "interFreq-q-OffsetFreq",
    "t-ReselectionInterFreq",
    "utra-threshX-High",
    "utra-threshX-Low",
    "utra-q-RxLevMin",
    "geran-threshX-High",
    "geran-threshX-Low",
    "geran-q-RxLevMin",
    "hrpd-CellReselectionPriority",
    "threshX-HighHRPD",
    "threshX-LowHRPD",
    "1xrtt-CellReselectionPriority",
    "threshX-High1XRTT",
    "threshX-Low1XRTT",
];

/// Re-intern a parameter name (any RAT's table — SIB5/6/7/8 rows can
/// reference neighbour-layer parameters — then the crawler's literal
/// vocabulary). `&'static str` comparisons downstream are by value, so any
/// static string with the right content is the right answer. `None` means
/// no D2 row can carry the name.
pub fn intern_param(name: &str) -> Option<&'static str> {
    for r in Rat::ALL {
        if let Some(spec) = mmcore::params::lookup(r, name) {
            return Some(spec.name);
        }
    }
    CRAWLER_PARAMS.iter().find(|&&s| s == name).copied()
}

/// A decoded dictionary with its entries pre-resolved against the static
/// vocabularies, once per file: carrier codes against the built-in
/// carrier codes, parameter names against the parameter tables, city
/// codes against [`City`]. Rows then resolve by index alone. An entry that
/// resolves to nothing only becomes an error when a row actually
/// references it in that role.
pub struct ResolvedDict {
    dict: Dict,
    carriers: Vec<Option<&'static str>>,
    params: Vec<Option<&'static str>>,
    cities: Vec<City>,
}

impl ResolvedDict {
    fn new(dict: Dict) -> ResolvedDict {
        // Dataset rows carry `&'static str` codes, so a decoded carrier
        // code must map back into the profiles' own strings.
        let entries: Vec<&str> = (0..dict.len() as u64)
            .filter_map(|i| dict.get(i).ok())
            .collect();
        let carriers = entries
            .iter()
            .map(|&e| mmcarriers::builtin::intern_code(e))
            .collect();
        let params = entries.iter().map(|&e| intern_param(e)).collect();
        let cities = entries.iter().map(|&e| City::intern(e)).collect();
        ResolvedDict {
            dict,
            carriers,
            params,
            cities,
        }
    }

    /// The carrier code behind dictionary id `id`.
    #[inline]
    pub fn carrier(&self, id: u64) -> Result<&'static str, StoreError> {
        match self.carriers.get(index(id)) {
            Some(&Some(code)) => Ok(code),
            _ => Err(self.unresolved(id, "carrier code")),
        }
    }

    /// The city behind dictionary id `id`.
    #[inline]
    pub fn city(&self, id: u64) -> Result<City, StoreError> {
        match self.cities.get(index(id)) {
            Some(&city) => Ok(city),
            None => Err(self.unresolved(id, "city")),
        }
    }

    /// The parameter name behind dictionary id `id`.
    #[inline]
    pub fn param(&self, id: u64) -> Result<&'static str, StoreError> {
        match self.params.get(index(id)) {
            Some(&Some(name)) => Ok(name),
            _ => Err(self.unresolved(id, "parameter name")),
        }
    }

    /// The error for an id out of the table's range, or one whose entry
    /// names nothing in `role`'s vocabulary.
    #[cold]
    fn unresolved(&self, id: u64, role: &str) -> StoreError {
        match self.dict.get(id) {
            Ok(s) => StoreError::Schema(format!("unknown {role} {s:?}")),
            Err(e) => e,
        }
    }

    /// The dictionary id of `s`, if this file's vocabulary contains it.
    /// Dictionaries are small (a few hundred entries), so a linear probe
    /// once per file is noise next to block decode.
    fn find(&self, s: &str) -> Option<u64> {
        (0..self.dict.len() as u64).find(|&i| self.dict.get(i).is_ok_and(|e| e == s))
    }
}

/// A dictionary id as a table index; an id beyond `usize` indexes nothing.
#[inline]
fn index(id: u64) -> usize {
    usize::try_from(id).unwrap_or(usize::MAX)
}

// ---------------------------------------------------------------------------
// Row-group plumbing (format v2: prefix + stats + columns)
// ---------------------------------------------------------------------------

/// The distinct ids of one stat dimension in one row group: a bitmap over
/// dictionary ids or enum tags, both dense and small, so the set stays a
/// few words. [`drain_into`](Self::drain_into) writes the ids out
/// ascending and empties the set for the next group.
#[derive(Debug, Clone, Default)]
pub struct IdSet {
    words: Vec<u64>,
}

impl IdSet {
    /// Add `id`.
    #[inline]
    pub fn insert(&mut self, id: u64) {
        let word = index(id / 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        if let Some(w) = self.words.get_mut(word) {
            *w |= 1 << (id % 64);
        }
    }

    /// Bytes [`drain_into`](Self::drain_into) writes.
    fn encoded_len(&self) -> usize {
        let mut len = 0;
        let mut count = 0;
        self.for_each(|id| {
            len += varint_len(id);
            count += 1;
        });
        len + varint_len(count)
    }

    /// Append the id count, then the ids in ascending order, as varints;
    /// the set is left empty.
    pub fn drain_into(&mut self, out: &mut Vec<u8>) {
        let count = self.words.iter().map(|w| u64::from(w.count_ones())).sum();
        write_varint(out, count);
        self.for_each(|id| write_varint(out, id));
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Call `f` on the ids in ascending order.
    fn for_each(&self, mut f: impl FnMut(u64)) {
        for (i, &w) in (0u64..).zip(&self.words) {
            let mut bits = w;
            while bits != 0 {
                f(i * 64 + u64::from(bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
    }
}

/// Append a v2 row group's payload to `out`: row count, column count, the
/// per-group vocabulary stat lists (each a sorted run of varint ids), then
/// the `len`-prefixed column byte strings. Every set in `stats` is left
/// empty.
pub fn encode_group(n_rows: usize, stats: &mut [IdSet], cols: &[Vec<u8>], out: &mut Vec<u8>) {
    write_varint(out, n_rows as u64);
    write_varint(out, cols.len() as u64);
    let stats_len: usize = stats.iter().map(IdSet::encoded_len).sum();
    write_varint(out, stats_len as u64);
    for set in stats {
        set.drain_into(out);
    }
    for col in cols {
        write_varint(out, col.len() as u64);
        out.extend_from_slice(col);
    }
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
/// their vocabulary stats and row-filters the rest; on D2,
/// [`with_round_offset`](RowGroupReader::with_round_offset) shifts decoded
/// rounds for appended campaign rounds.
pub struct RowGroupReader<T, R: Read> {
    inner: StoreReader<R>,
    dict: Option<ResolvedDict>,
    buf: std::vec::IntoIter<T>,
    decoded: u64,
    done: bool,
    pred: Predicate,
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
        self
    }

    /// What this scan decoded vs skipped so far (complete once iteration
    /// has finished).
    pub fn scan_stats(&self) -> ScanStats {
        self.stats
    }

    /// The next admitted row group's rows, with the predicate and the
    /// round shift applied; `Ok(None)` once the trailer's row count has
    /// been checked. Each call does the block work row iteration does:
    /// pushdown, the CRC before any column decode, the schema's checks on
    /// every row. After `Ok(None)` or an `Err` every call returns
    /// `Ok(None)`. Rows of a group the iterator has started are not
    /// returned again.
    pub fn next_group(&mut self) -> Result<Option<Vec<T>>, MmError> {
        if self.done {
            return Ok(None);
        }
        let group = self.read_group();
        if !matches!(group, Ok(Some(_))) {
            self.done = true;
        }
        group
    }

    fn read_group(&mut self) -> Result<Option<Vec<T>>, MmError> {
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
                return Ok(None);
            };
            match block.tag {
                TAG_DICT => {
                    let dict =
                        ResolvedDict::new(Dict::decode(&block.payload).map_err(MmError::Store)?);
                    self.filter = T::filter(&self.pred, &dict);
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
                            row.shift_round(self.round_offset)?;
                        }
                    }
                    if !self.pred.is_any() {
                        let pred = &self.pred;
                        rows.retain(|row| T::matches(pred, row));
                    }
                    return Ok(Some(rows));
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
        loop {
            if let Some(row) = self.buf.next() {
                return Some(Ok(row));
            }
            match self.next_group() {
                Ok(Some(rows)) => self.buf = rows.into_iter(),
                Ok(None) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

/// The rows of one store file as [`write_rows`] reads them, in file order:
/// a slice holds every row, D2 holds each run's rows once for all the
/// rounds that saw them.
pub trait RowSource<T> {
    /// Rows in the file.
    fn rows(&self) -> usize;

    /// Call `f` on rows that meet the strings of the file's rows in the
    /// order the file's rows first meet them, which is the dictionary's id
    /// order.
    fn for_each_distinct(&self, f: impl FnMut(&T));

    /// Call `f` on the file's row groups of `block_rows` rows (the last
    /// may hold fewer) whose index is `lane` modulo `lanes`, in order,
    /// until it returns an error. The other groups are skipped without
    /// building them.
    fn try_for_each_group<E>(
        &self,
        block_rows: usize,
        lane: usize,
        lanes: usize,
        f: impl FnMut(&[T]) -> Result<(), E>,
    ) -> Result<(), E>;
}

impl<T> RowSource<T> for [T] {
    fn rows(&self) -> usize {
        self.len()
    }

    fn for_each_distinct(&self, f: impl FnMut(&T)) {
        self.iter().for_each(f);
    }

    fn try_for_each_group<E>(
        &self,
        block_rows: usize,
        lane: usize,
        lanes: usize,
        f: impl FnMut(&[T]) -> Result<(), E>,
    ) -> Result<(), E> {
        self.chunks(block_rows)
            .skip(lane)
            .step_by(lanes.max(1))
            .try_for_each(f)
    }
}

/// What one lane of [`write_rows`] reuses from group to group, so that
/// once its first groups are framed it encodes without allocating.
struct GroupBuffers<T: RowSchema> {
    stats: T::Stats,
    cols: T::Cols,
}

impl<T: RowSchema> GroupBuffers<T> {
    fn new() -> Self {
        GroupBuffers {
            stats: T::Stats::default(),
            cols: T::Cols::default(),
        }
    }

    /// Encode `rows` as one row group and frame it into `frame`.
    fn frame(
        &mut self,
        dict: &DictBuilder,
        rows: &[T],
        frame: &mut Vec<u8>,
    ) -> Result<(), MmError> {
        T::encode(dict, &mut self.stats, &mut self.cols, rows)?;
        start_frame(frame);
        encode_group(rows.len(), self.stats.as_mut(), self.cols.as_ref(), frame);
        seal_frame(TAG_ROWS, frame)
    }
}

/// Write the rows of `source` as one store file of `T`'s kind: the
/// dictionary block, row groups of `block_rows` rows each, then the
/// trailer.
///
/// The dictionary block precedes the groups it describes, so every string
/// is interned first; the dictionary is then frozen. Row group `k` is
/// encoded and CRC-framed on lane `k mod n` of `exec`'s
/// [`lanes`](Executor::lanes), each lane reading its own groups from
/// `source` (a source that expands its rows holds one group of them per
/// lane at a time), and the caller, lane 0, writes the frames to `w` in
/// file order. The bytes do not depend on the lane count. On an error —
/// the first in file order — `w` may hold a partial file with no trailer,
/// which every reader rejects.
pub fn write_rows<T, S, W>(
    source: &S,
    w: W,
    block_rows: usize,
    exec: &Executor,
) -> Result<(), MmError>
where
    T: RowSchema + Sync,
    S: RowSource<T> + Sync + ?Sized,
    W: Write,
{
    let block_rows = block_rows.max(1);
    let mut dict = DictBuilder::new();
    source.for_each_distinct(|row| T::intern(&mut dict, row));
    // Frozen from here on: the lanes share it and only look strings up.
    let dict = dict;
    let mut writer = StoreWriter::new(w, T::KIND)?;
    writer.write_block(TAG_DICT, &dict.encode())?;
    let groups = source.rows().div_ceil(block_rows);
    let written = exec.lanes(
        groups,
        |lane| {
            let mut buffers = GroupBuffers::<T>::new();
            let (index, count) = (lane.index(), lane.count());
            source.try_for_each_group(block_rows, index, count, |rows| {
                lane.emit(|frame| buffers.frame(&dict, rows, frame))
            })
        },
        |frame: &Vec<u8>| writer.write_frame(frame),
    )?;
    if written != groups {
        return Err(StoreError::Schema(format!("wrote {written} of {groups} row groups")).into());
    }
    writer.finish(source.rows() as u64)
}

/// Read every row of a store stream of `T`'s kind.
pub fn read_rows<T: RowSchema, R: Read>(r: R) -> Result<Vec<T>, MmError> {
    RowGroupReader::new(r)?.collect()
}

#[cfg(test)]
mod tests {
    use super::super::{rat_tag, KIND_D2};
    use super::*;
    use crate::crawler::crawl;
    use mmcarriers::world::World;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn id_set_matches_a_btree_set_and_empties_between_groups() {
        let mut set = IdSet::default();
        // (ids drawn, id range) per group, reusing one set: wide groups
        // (ids past 64 and far past it), an empty one, then narrow ones
        // that a leaked high id would show up in.
        for (g, (n, range)) in [(500, 300), (40, 64), (0, 1), (3000, 1000), (7, 5), (2, 1)]
            .into_iter()
            .enumerate()
        {
            let ids: Vec<u64> = (0..n)
                .map(|i| mm_rng::splitmix64((g as u64) << 32 | i) % range)
                .collect();
            let want: Vec<u64> = BTreeSet::from_iter(ids.iter().copied())
                .into_iter()
                .collect();
            for &id in &ids {
                set.insert(id);
            }
            assert_eq!(drained(&mut set), want, "group {g}");
        }
        assert!(
            drained(&mut set).is_empty(),
            "draining leaves the set empty"
        );
    }

    /// The ids `drain_into` writes, checked against `encoded_len`.
    fn drained(set: &mut IdSet) -> Vec<u64> {
        let len = set.encoded_len();
        let mut out = Vec::new();
        set.drain_into(&mut out);
        assert_eq!(out.len(), len, "encoded_len");
        let mut c = Cursor::new(&out);
        let n = c.read_varint().unwrap();
        let ids = (0..n).map(|_| c.read_varint().unwrap()).collect();
        assert!(c.is_empty());
        ids
    }

    #[test]
    fn crawler_params_hold_only_names_the_tables_lack() {
        for name in CRAWLER_PARAMS {
            assert!(
                Rat::ALL
                    .into_iter()
                    .all(|r| mmcore::params::lookup(r, name).is_none()),
                "{name} resolves through a parameter table"
            );
        }
        let d2 = crawl(&World::generate(2018, 0.05), 1);
        let emitted: BTreeSet<&str> = d2.distinct_rows().map(|s| s.param).collect();
        for name in emitted {
            assert_eq!(intern_param(name), Some(name));
        }
    }

    /// Rows whose dictionary pass shows only the first row's strings.
    struct FirstRowOnly<'a>(&'a [ConfigSample]);

    impl RowSource<ConfigSample> for FirstRowOnly<'_> {
        fn rows(&self) -> usize {
            self.0.len()
        }

        fn for_each_distinct(&self, mut f: impl FnMut(&ConfigSample)) {
            f(&self.0[0]);
        }

        fn try_for_each_group<E>(
            &self,
            block_rows: usize,
            lane: usize,
            lanes: usize,
            f: impl FnMut(&[ConfigSample]) -> Result<(), E>,
        ) -> Result<(), E> {
            self.0.try_for_each_group(block_rows, lane, lanes, f)
        }
    }

    #[test]
    fn a_string_the_dictionary_block_lacks_fails_the_write() {
        let rows: Vec<ConfigSample> = crawl(&World::generate(3, 0.01), 1).iter().collect();
        for lanes in [1, 2, 3] {
            let mut buf = Vec::new();
            let got = write_rows(&FirstRowOnly(&rows), &mut buf, 64, &Executor::new(lanes));
            assert!(
                matches!(&got, Err(MmError::Store(StoreError::Schema(msg)))
                    if msg.contains("not in the dictionary block")),
                "{lanes} lane(s): {got:?}"
            );
        }
    }

    #[test]
    fn written_group_stats_are_each_groups_own_ids() {
        let rows: Vec<ConfigSample> = crawl(&World::generate(3, 0.01), 1).iter().collect();
        let mut buf = Vec::new();
        write_rows(rows.as_slice(), &mut buf, 7, &Executor::new(3)).unwrap();
        let mut reader = StoreReader::new(buf.as_slice(), KIND_D2).unwrap();
        let dict = Dict::decode(&reader.next_block().unwrap().unwrap().payload).unwrap();
        let ids: BTreeMap<&str, u64> = (0..dict.len() as u64)
            .map(|i| (dict.get(i).unwrap(), i))
            .collect();
        let mut chunks = rows.chunks(7);
        while let Some(block) = reader.next_block().unwrap() {
            let chunk = chunks.next().unwrap();
            let prefix = decode_group_prefix(&block.payload, ConfigSample::COLS, 4).unwrap();
            let distinct = |id: &dyn Fn(&ConfigSample) -> u64| -> Vec<u64> {
                BTreeSet::from_iter(chunk.iter().map(id))
                    .into_iter()
                    .collect()
            };
            let want = [
                distinct(&|s| ids[s.carrier]),
                distinct(&|s| ids[s.city.as_str()]),
                distinct(&|s| ids[s.param]),
                distinct(&|s| rat_tag(s.rat)),
            ];
            assert_eq!(prefix.stats, want);
        }
        assert!(chunks.next().is_none(), "one group per chunk");
    }
}
