//! Streaming D2 aggregation — the one-pass figure-pipeline state
//! (DESIGN.md §10).
//!
//! [`D2Agg`] folds configuration samples one at a time into the exact
//! accumulators Figures 11–22 need, so `mmx` can render every D2 figure
//! from an on-disk store without materializing `Vec<ConfigSample>`. Each
//! accumulator replicates its legacy counterpart's grouping and dedupe keys
//! *exactly* (including Fig 18's truncated dedupe key vs Fig 19/20's
//! rounded one), and all value arithmetic routes through the count-based
//! [`ValueCounts`] kernel — which is what makes the streamed figures
//! byte-identical to the materialized path regardless of how samples were
//! batched into blocks.
//!
//! The fold is indexed by cell. Every dedupe key starts with the cell, so
//! each cell's slot holds its own dedupe state, and the crawl writes a
//! cell's rows as one run: the cell lookup runs once per run, and a row
//! touches its cell's slot plus, only on first sight of an observation,
//! the ordered output maps. Carriers and parameters get dense ids by
//! content, in first-seen order; a per-parameter role table replaces the
//! per-row string comparisons.
//!
//! Operators rarely change a cell's configuration between rounds, so most
//! rows repeat the cell's previous round. The fold keeps the current
//! `(cell, round)` run of rows and the same cell's previous run; a row
//! equal, in every field but the round, to the previous run's row at the
//! same position has already passed through every cell-keyed set, and
//! folds into the sample counters and Fig 13b's round state only. Any
//! other row (a changed value, a shifted position, a new cell, any row of
//! a shuffled stream) takes the full path, so no result depends on row
//! order beyond what the legacy helpers' own first-observation rules
//! define.
//!
//! State is bounded by `cells × parameters` (distinct observations), never
//! by the sample count: at the paper's 8M-sample scale the accumulators
//! stay two orders of magnitude smaller than the dataset.

use mm_exec::Executor;
use mmcarriers::city::City;
use mmcore::MmError;
use mmlab::agg::ValueCounts;
use mmlab::dataset::{value_key, ConfigSample, D2};
use mmlab::diversity::{dependence_counts, Diversity, Measure};
use mmlab::store::{D2StoreReader, ScanStats};
use mmradio::band::{ChannelNumber, Rat};
use mmradio::cell::CellId;
use mmradio::geom::Point;
use std::collections::BTreeMap;
use std::io::Read;

/// Fig 13b parameter tags (mirrors `landscape`): idle-state parameters
/// count from 0, active-state ones from 100.
const TEMPORAL_TAGS: [(&str, u8); 6] = [
    ("threshServingLowP", 0),
    ("s-NonIntraSearchP", 1),
    ("q-RxLevMin", 2),
    ("a3-Offset", 100),
    ("a5-Threshold1", 101),
    ("timeToTrigger", 102),
];
/// Fig 11's threshold triple `(Θintra, Θnonintra, Θ(s)lower)`, in order.
const TRIPLE_PARAMS: [&str; 3] = ["s-IntraSearchP", "s-NonIntraSearchP", "threshServingLowP"];
/// The serving-priority parameter of Figs 13a, 20 and 21.
const SERVING_PRIORITY: &str = "cellReselectionPriority";
/// The two Fig 18 panels (AT&T serving / candidate priorities).
const F18_PARAMS: [&str; 2] = [
    "cellReselectionPriority",
    "interFreqCellReselectionPriority",
];
/// The four US carriers of Figs 20–21.
const US_CARRIERS: [&str; 4] = ["A", "T", "V", "S"];
/// The carrier of Figs 18–19.
const ATT: &str = "A";

/// A dense carrier or parameter id, assigned by content in first-seen
/// order. Two bytes keep a cell's dedupe tuples at 16 bytes; the
/// vocabularies the crawler and the store reader produce hold 30 carriers
/// and a few hundred parameter names.
type VocabId = u16;

/// Entries of the parameter-id memo. Static strings sit packed in the
/// binary's read-only data, so the low address bits alone spread a
/// vocabulary's names across the slots.
const PARAM_MEMO: usize = 1024;

/// A display-key histogram with its kept-value total: `key → count`, n.
/// Display keys use the legacy `v as i64` truncation of the render path.
pub type KeyCounts = (BTreeMap<i64, usize>, usize);

/// Fig 11's per-cell threshold triple, in [`TRIPLE_PARAMS`] order.
type ThresholdTriple = [Option<f64>; 3];

/// One carrier's totals and roles.
#[derive(Debug, Clone)]
struct CarrierAgg {
    code: &'static str,
    /// Fig 12: cells and samples.
    cells: usize,
    samples: usize,
    /// AT&T: feeds Figs 18–19.
    att: bool,
    /// One of the four US carriers: feeds Figs 20–21.
    us: bool,
}

/// What one parameter feeds besides the per-group unique values; resolved
/// once, when the parameter gets its id.
#[derive(Debug, Clone, Copy)]
struct ParamRole {
    /// Figs 13a, 20 and 21.
    serving_priority: bool,
    /// Fig 13b tag.
    temporal: Option<u8>,
    /// Fig 11 triple position.
    triple: Option<usize>,
    /// Fig 18 panel.
    panel: Option<u8>,
}

impl ParamRole {
    fn of(name: &str) -> ParamRole {
        ParamRole {
            serving_priority: name == SERVING_PRIORITY,
            temporal: TEMPORAL_TAGS
                .iter()
                .find(|(p, _)| *p == name)
                .map(|&(_, tag)| tag),
            triple: TRIPLE_PARAMS.iter().position(|p| *p == name),
            panel: F18_PARAMS
                .iter()
                .zip(0u8..)
                .find(|(p, _)| **p == name)
                .map(|(_, i)| i),
        }
    }
}

/// Everything one cell contributes: its dedupe state, kept compactly as
/// sorted vectors, and its per-cell outputs.
#[derive(Debug, Clone, Default)]
struct CellAgg {
    /// Carriers the cell was sampled under (Fig 12).
    carriers: Vec<VocabId>,
    /// Fig 13a: `cellReselectionPriority` samples.
    serving_priority_samples: usize,
    /// Figs 14–17, 19, 22: the unique `(carrier, rat, param, value key)`
    /// observations — the cell's share of the legacy `(cell, value)`
    /// dedupe of every `(carrier, rat, param)` group.
    unique: Vec<(VocabId, Rat, VocabId, i64)>,
    /// Fig 18: `(panel, channel, (v*2.0) as i64)`, the legacy truncated key.
    panel_seen: Vec<(u8, u32, i64)>,
    /// Fig 20: value keys, one set shared across carriers exactly like the
    /// legacy single-pass scan.
    city_seen: Vec<i64>,
    /// Fig 21: carriers whose Indianapolis field holds this cell.
    field_seen: Vec<VocabId>,
    /// Fig 13b: the observed `(parameter tag, round, value key)` triples,
    /// and the rounds those were observed in.
    temporal: Vec<(u8, u32, i64)>,
    rounds: Vec<u32>,
    /// Fig 11: first observation of each threshold wins.
    triple: ThresholdTriple,
}

/// One row's every field but its cell and round: what the repeat path
/// compares with the same cell's previous run. Positions and values
/// compare by their bits.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RowKey {
    carrier: VocabId,
    param: VocabId,
    rat: Rat,
    channel: ChannelNumber,
    city: City,
    pos: [u64; 2],
    value: u64,
}

/// The repeat path's memory: the rows of the current `(cell slot, round)`
/// run and of the same cell's previous run.
#[derive(Debug, Clone, Default)]
struct Runs {
    /// The current run's cell slot and round.
    at: Option<(usize, u32)>,
    rows: Vec<RowKey>,
    /// The same cell's previous run; empty after a change of cell.
    prev: Vec<RowKey>,
    /// Rows found equal to the previous run's row at their position.
    repeated: usize,
}

impl Runs {
    /// Append `row` to the run of `(slot, round)`; whether it equals the
    /// previous run's row at the same position.
    fn push(&mut self, slot: usize, round: u32, row: RowKey) -> bool {
        if self.at != Some((slot, round)) {
            if self.at.is_some_and(|(last, _)| last == slot) {
                std::mem::swap(&mut self.rows, &mut self.prev);
            } else {
                self.prev.clear();
            }
            self.rows.clear();
            self.at = Some((slot, round));
        }
        let repeat = self.prev.get(self.rows.len()) == Some(&row);
        self.rows.push(row);
        self.repeated += usize::from(repeat);
        repeat
    }
}

/// The `(carrier, rat, param)` groups of Figs 14–17 and 22 and their
/// unique-value counts. Each parameter remembers the last group its first
/// sights went to: consecutive cells share the carrier and the RAT, so the
/// map is consulted about once per carrier and parameter, not once per
/// first sight.
#[derive(Debug, Clone, Default)]
struct Groups {
    ids: BTreeMap<(VocabId, Rat, VocabId), usize>,
    counts: Vec<ValueCounts>,
    /// By parameter id: the `(carrier, rat, group id)` last counted.
    last: Vec<Option<(VocabId, Rat, usize)>>,
}

impl Groups {
    fn counts_mut(&mut self, carrier: VocabId, rat: Rat, param: VocabId) -> &mut ValueCounts {
        let p = usize::from(param);
        if self.last.len() <= p {
            self.last.resize(p + 1, None);
        }
        let id = match self.last[p] {
            Some((c, r, id)) if c == carrier && r == rat => id,
            _ => {
                let next = self.counts.len();
                let id = *self.ids.entry((carrier, rat, param)).or_insert(next);
                if id == next {
                    self.counts.push(ValueCounts::new());
                }
                self.last[p] = Some((carrier, rat, id));
                id
            }
        };
        &mut self.counts[id]
    }

    fn get(&self, carrier: VocabId, rat: Rat, param: VocabId) -> Option<&ValueCounts> {
        let &id = self.ids.get(&(carrier, rat, param))?;
        self.counts.get(id)
    }
}

/// Insert `key` into the sorted `set`; whether it was new.
fn insert_sorted<K: Ord>(set: &mut Vec<K>, key: K) -> bool {
    match set.binary_search(&key) {
        Ok(_) => false,
        Err(at) => {
            set.insert(at, key);
            true
        }
    }
}

/// The next dense id of a vocabulary holding `len` names. Past
/// `VocabId::MAX` names every further name shares the last id; neither
/// the crawler nor the store reader can produce such a vocabulary.
fn next_id(len: usize) -> VocabId {
    VocabId::try_from(len).unwrap_or(VocabId::MAX)
}

/// Streaming aggregate over a D2 sample stream: everything Figures 11–22
/// read, built in one pass and bounded by distinct observations.
#[derive(Debug, Clone, Default)]
pub struct D2Agg {
    n_samples: usize,
    /// Carriers by id, and their ids by content.
    carriers: Vec<CarrierAgg>,
    carrier_ids: BTreeMap<&'static str, VocabId>,
    /// The last row's carrier: a cell's rows share it.
    last_carrier: Option<(&'static str, VocabId)>,
    /// Parameters by id (name and role), and their ids by content.
    params: Vec<(&'static str, ParamRole)>,
    param_ids: BTreeMap<&'static str, VocabId>,
    /// Direct-mapped memo in front of `param_ids`: `(address, length, id)`
    /// of recently seen names. A static string's address and length pin
    /// its content, so a hit is the content lookup's answer; ids never
    /// depend on an address.
    param_memo: Vec<(usize, usize, VocabId)>,
    /// Cell slots by cell id, and the last row's cell.
    cell_slots: BTreeMap<CellId, usize>,
    cells: Vec<CellAgg>,
    last_cell: Option<(CellId, usize)>,
    /// The current and previous runs, for the repeat path.
    runs: Runs,
    /// Figs 14–17, 22: unique-value counts per `(carrier, rat, param)`.
    unique: Groups,
    /// Fig 18 panels (AT&T): channel → display-key counts.
    panels: [BTreeMap<u32, KeyCounts>; 2],
    /// Fig 19 (AT&T LTE): per parameter, per channel, unique-value counts.
    freq: BTreeMap<VocabId, BTreeMap<u32, ValueCounts>>,
    /// Fig 20: city-level priority counts.
    city_groups: BTreeMap<(&'static str, City), KeyCounts>,
    /// Fig 21: per-carrier Indianapolis priority fields, in crawl order.
    fields: BTreeMap<&'static str, Vec<(Point, f64)>>,
}

impl D2Agg {
    /// Empty aggregate.
    pub fn new() -> D2Agg {
        D2Agg::default()
    }

    /// Aggregate an in-memory dataset, one expanded sample at a time.
    pub fn from_dataset(d2: &D2) -> D2Agg {
        let mut agg = D2Agg::new();
        for s in d2.iter() {
            agg.push(&s);
        }
        agg
    }

    /// Aggregate directly from a columnar store reader, block by block —
    /// the whole dataset is never resident.
    pub fn from_store<R: Read + Send>(reader: D2StoreReader<R>) -> Result<D2Agg, MmError> {
        let mut agg = D2Agg::new();
        agg.fold_store(reader, &Executor::from_env())?;
        Ok(agg)
    }

    /// Fold every row `reader` admits, in file order, and return its scan
    /// accounting. With more than one thread in `exec`, a worker reads,
    /// checks and decodes the next row groups while this thread folds the
    /// current one (`Executor::pipeline`); the rows and their order are
    /// the same at any thread count, so is the aggregate. At most
    /// `PIPELINE_DEPTH + 2` decoded groups are alive at once.
    pub fn fold_store<R: Read + Send>(
        &mut self,
        mut reader: D2StoreReader<R>,
        exec: &Executor,
    ) -> Result<ScanStats, MmError> {
        let (folded, repeated) = (self.n_samples, self.runs.repeated);
        exec.pipeline(
            || reader.next_group(),
            |rows| {
                for s in &rows {
                    self.push(s);
                }
            },
        )?;
        let t = mm_telemetry::global();
        t.counter("fold", "rows_folded")
            .add((self.n_samples - folded) as u64);
        t.counter("fold", "rows_repeated")
            .add((self.runs.repeated - repeated) as u64);
        Ok(reader.scan_stats())
    }

    /// Fold one sample in. Rows may arrive in any order: the outputs that
    /// keep a first observation (Fig 11's triples, Fig 20's shared dedupe,
    /// Fig 21's field order) follow arrival order exactly as the legacy
    /// helpers do over the same rows, and nothing else depends on order.
    pub fn push(&mut self, s: &ConfigSample) {
        self.n_samples += 1;
        let carrier = self.carrier_id(s.carrier);
        let param = self.param_id(s.param);
        let slot = self.cell_slot(s.cell);
        let Self {
            carriers,
            params,
            cells,
            runs,
            unique,
            panels,
            freq,
            city_groups,
            fields,
            ..
        } = self;
        let repeat = runs.push(
            slot,
            s.round,
            RowKey {
                carrier,
                param,
                rat: s.rat,
                channel: s.channel,
                city: s.city,
                pos: [s.pos.x.to_bits(), s.pos.y.to_bits()],
                value: s.value.to_bits(),
            },
        );
        // Ids and slots index their tables by construction.
        let c = &mut carriers[usize::from(carrier)];
        let role = params[usize::from(param)].1;
        let cell = &mut cells[slot];
        c.samples += 1;
        if role.serving_priority {
            cell.serving_priority_samples += 1;
        }
        let lte = s.rat == Rat::Lte;
        if lte {
            if let Some(tag) = role.temporal {
                insert_sorted(&mut cell.temporal, (tag, s.round, value_key(s.value)));
                insert_sorted(&mut cell.rounds, s.round);
            }
        }
        // The equal row of the previous run already went into every
        // cell-keyed set below: the cell's carriers, Fig 11's triple, the
        // Fig 18/20/21 seen sets and the unique tuples.
        if repeat {
            return;
        }
        let key = value_key(s.value);
        if !cell.carriers.contains(&carrier) {
            cell.carriers.push(carrier);
            c.cells += 1;
        }
        if lte {
            if let Some(i) = role.triple {
                cell.triple[i].get_or_insert(s.value);
            }
            if c.att {
                if let Some(p) = role.panel {
                    let chan = s.channel.number;
                    if insert_sorted(&mut cell.panel_seen, (p, chan, (s.value * 2.0) as i64)) {
                        let (counts, n) = panels[usize::from(p)].entry(chan).or_default();
                        *counts.entry(s.value as i64).or_default() += 1;
                        *n += 1;
                    }
                }
            }
            if role.serving_priority && c.us {
                if insert_sorted(&mut cell.city_seen, key) {
                    let (counts, n) = city_groups.entry((c.code, s.city)).or_default();
                    *counts.entry(s.value as i64).or_default() += 1;
                    *n += 1;
                }
                if s.city == City::C3 && insert_sorted(&mut cell.field_seen, carrier) {
                    fields.entry(c.code).or_default().push((s.pos, s.value));
                }
            }
        }
        if insert_sorted(&mut cell.unique, (carrier, s.rat, param, key)) {
            unique.counts_mut(carrier, s.rat, param).push_key(key);
            // Fig 19 dedupes on the same `(cell, value)` key per parameter,
            // so its first sights are exactly AT&T LTE's.
            if c.att && lte {
                freq.entry(param)
                    .or_default()
                    .entry(s.channel.number)
                    .or_default()
                    .push_key(key);
            }
        }
    }

    fn carrier_id(&mut self, code: &'static str) -> VocabId {
        if let Some((last, id)) = self.last_carrier {
            if last == code {
                return id;
            }
        }
        let id = match self.carrier_ids.get(code) {
            Some(&id) => id,
            None => {
                let id = next_id(self.carriers.len());
                self.carrier_ids.insert(code, id);
                self.carriers.push(CarrierAgg {
                    code,
                    cells: 0,
                    samples: 0,
                    att: code == ATT,
                    us: US_CARRIERS.contains(&code),
                });
                id
            }
        };
        self.last_carrier = Some((code, id));
        id
    }

    fn param_id(&mut self, name: &'static str) -> VocabId {
        let addr = name.as_ptr().addr();
        let at = addr % PARAM_MEMO;
        if let Some(&(a, len, id)) = self.param_memo.get(at) {
            if a == addr && len == name.len() {
                return id;
            }
        }
        let id = match self.param_ids.get(name) {
            Some(&id) => id,
            None => {
                let id = next_id(self.params.len());
                self.param_ids.insert(name, id);
                self.params.push((name, ParamRole::of(name)));
                id
            }
        };
        if self.param_memo.is_empty() {
            self.param_memo = vec![(0, 0, 0); PARAM_MEMO];
        }
        if let Some(entry) = self.param_memo.get_mut(at) {
            *entry = (addr, name.len(), id);
        }
        id
    }

    fn cell_slot(&mut self, cell: CellId) -> usize {
        if let Some((last, slot)) = self.last_cell {
            if last == cell {
                return slot;
            }
        }
        let next = self.cells.len();
        let slot = *self.cell_slots.entry(cell).or_insert(next);
        if slot == next {
            self.cells.push(CellAgg::default());
        }
        self.last_cell = Some((cell, slot));
        slot
    }

    /// Cell states in cell-id order.
    fn cells_in_order(&self) -> impl Iterator<Item = &CellAgg> {
        self.cell_slots
            .values()
            .filter_map(|&slot| self.cells.get(slot))
    }

    // ------------------------------------------------------------ totals --

    /// Number of samples aggregated.
    pub fn len(&self) -> usize {
        self.n_samples
    }

    /// Whether nothing was aggregated.
    pub fn is_empty(&self) -> bool {
        self.n_samples == 0
    }

    /// Number of unique cells observed.
    pub fn unique_cells(&self) -> usize {
        self.cells.len()
    }

    // ------------------------------------------------------------ Fig 12 --

    /// Per-carrier `(cells, samples)` in the given carrier order.
    pub fn carrier_volume(&self, order: &[&'static str]) -> Vec<(&'static str, usize, usize)> {
        order
            .iter()
            .map(|&code| {
                let c = self
                    .carrier_ids
                    .get(code)
                    .and_then(|&id| self.carriers.get(usize::from(id)));
                (code, c.map_or(0, |c| c.cells), c.map_or(0, |c| c.samples))
            })
            .collect()
    }

    // ------------------------------------------------------------ Fig 13 --

    /// Per-cell `cellReselectionPriority` sample counts, in cell-id order.
    pub fn samples_per_cell(&self) -> Vec<usize> {
        self.cells_in_order()
            .map(|c| c.serving_priority_samples)
            .filter(|&n| n > 0)
            .collect()
    }

    /// Fig 13b: among multi-sampled LTE cells, the share whose idle /
    /// active parameters changed across observations.
    pub fn temporal_dynamics(&self) -> (f64, f64) {
        let mut multi = 0usize;
        let mut idle_changed = 0usize;
        let mut active_changed = 0usize;
        for cell in &self.cells {
            if cell.rounds.len() < 2 {
                continue;
            }
            multi += 1;
            // Whether two rounds of one tag saw the same value keys.
            let same = |a: &[(u8, u32, i64)], b: &[(u8, u32, i64)]| {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.2 == y.2)
            };
            let changed = |base: u8| {
                cell.temporal
                    .chunk_by(|a, b| a.0 == b.0)
                    .filter(|tag| (base..base + 100).contains(&tag[0].0))
                    .any(|tag| {
                        let mut rounds = tag.chunk_by(|a, b| a.1 == b.1);
                        rounds
                            .next()
                            .is_some_and(|first| rounds.any(|run| !same(run, first)))
                    })
            };
            if changed(0) {
                idle_changed += 1;
            }
            if changed(100) {
                active_changed += 1;
            }
        }
        if multi == 0 {
            return (0.0, 0.0);
        }
        (
            100.0 * idle_changed as f64 / multi as f64,
            100.0 * active_changed as f64 / multi as f64,
        )
    }

    // -------------------------------------------------- Figs 14–17, 22 --

    /// The unique-value counts of one `(carrier, rat, param)` group, if any
    /// sample was observed for it.
    pub fn unique_counts(
        &self,
        carrier: &'static str,
        rat: Rat,
        param: &'static str,
    ) -> Option<&ValueCounts> {
        let c = *self.carrier_ids.get(carrier)?;
        let p = *self.param_ids.get(param)?;
        self.unique.get(c, rat, p)
    }

    /// Distribution of one LTE parameter's unique values as `(value, %)`.
    pub fn param_distribution(
        &self,
        carrier: &'static str,
        param: &'static str,
    ) -> Vec<(f64, f64)> {
        self.unique_counts(carrier, Rat::Lte, param)
            .map(ValueCounts::distribution)
            .unwrap_or_default()
    }

    /// Diversity of one group's unique values (empty-group semantics match
    /// `diversity(&[])`).
    pub fn diversity(&self, carrier: &'static str, rat: Rat, param: &'static str) -> Diversity {
        self.unique_counts(carrier, rat, param)
            .map_or_else(|| ValueCounts::new().diversity(), ValueCounts::diversity)
    }

    /// Distinct parameter names present for `(carrier, rat)`, sorted.
    pub fn param_names(&self, carrier: &str, rat: Rat) -> Vec<&'static str> {
        let Some(&c) = self.carrier_ids.get(carrier) else {
            return Vec::new();
        };
        let mut names: Vec<&'static str> = self
            .unique
            .ids
            .range((c, rat, 0)..=(c, rat, VocabId::MAX))
            .filter_map(|(&(_, _, p), _)| self.params.get(usize::from(p)))
            .map(|&(name, _)| name)
            .collect();
        names.sort_unstable();
        names
    }

    /// Diversity measures of every LTE parameter for one carrier, sorted by
    /// Simpson index (Fig 16's x-axis order).
    pub fn diversity_table(&self, carrier: &'static str) -> Vec<(&'static str, Diversity)> {
        let mut rows: Vec<(&'static str, Diversity)> = self
            .param_names(carrier, Rat::Lte)
            .into_iter()
            .map(|p| (p, self.diversity(carrier, Rat::Lte, p)))
            .collect();
        rows.sort_by(|a, b| a.1.simpson.total_cmp(&b.1.simpson));
        rows
    }

    /// Fig 22: per-parameter Simpson indices for one `(carrier, RAT)`.
    pub fn rat_diversity(&self, carrier: &'static str, rat: Rat) -> Vec<f64> {
        self.param_names(carrier, rat)
            .into_iter()
            .map(|p| {
                self.unique_counts(carrier, rat, p)
                    .map_or(0.0, ValueCounts::simpson)
            })
            .collect()
    }

    // ------------------------------------------------------------ Fig 18 --

    /// One Fig 18 panel: channel → (display-key counts, n), AT&T.
    pub fn priority_panel(&self, param: &'static str) -> Option<&BTreeMap<u32, KeyCounts>> {
        F18_PARAMS
            .iter()
            .position(|p| *p == param)
            .and_then(|i| self.panels.get(i))
            .filter(|chans| !chans.is_empty())
    }

    // ------------------------------------------------------------ Fig 19 --

    /// Frequency-dependence ζ of one AT&T LTE parameter under both
    /// diversity measures.
    pub fn freq_dependence(&self, param: &'static str) -> (f64, f64) {
        let empty = BTreeMap::new();
        let groups = self
            .param_ids
            .get(param)
            .and_then(|p| self.freq.get(p))
            .unwrap_or(&empty);
        (
            dependence_counts(Measure::Simpson, groups),
            dependence_counts(Measure::Cv, groups),
        )
    }

    // ------------------------------------------------------------ Fig 20 --

    /// City-level serving-priority counts for the four US carriers:
    /// `(carrier, city) → (display-key counts, n)`.
    pub fn city_priorities(&self) -> &BTreeMap<(&'static str, City), KeyCounts> {
        &self.city_groups
    }

    // ------------------------------------------------------------ Fig 21 --

    /// Per-cell `(position, Ps)` field for one carrier in Indianapolis
    /// (C3), in crawl order.
    pub fn priority_field(&self, carrier: &'static str) -> &[(Point, f64)] {
        self.fields.get(carrier).map_or(&[], Vec::as_slice)
    }

    /// Fig 21's statistic: spatial diversity of Ps at each radius.
    pub fn spatial_boxes(&self, carrier: &'static str, radii_km: &[f64]) -> Vec<(f64, Vec<f64>)> {
        let field = self.priority_field(carrier);
        radii_km
            .iter()
            .map(|r| (*r, mmlab::diversity::spatial_diversity(field, r * 1000.0)))
            .collect()
    }

    // ------------------------------------------------------------ Fig 11 --

    /// Per-cell threshold triples `(Θintra, Θnonintra, Θ(s)lower)`, first
    /// observation per cell, in cell-id order.
    pub fn threshold_triples(&self) -> Vec<(f64, f64, f64)> {
        self.cells_in_order()
            .filter_map(|c| {
                let [intra, nonintra, lower] = c.triple;
                Some((intra?, nonintra?, lower?))
            })
            .collect()
    }

    /// The three gap series of Fig 11.
    pub fn gap_series(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let triples = self.threshold_triples();
        let g1 = triples.iter().map(|(i, n, _)| i - n).collect();
        let g2 = triples.iter().map(|(i, _, l)| i - l).collect();
        let g3 = triples.iter().map(|(_, n, l)| n - l).collect();
        (g1, g2, g3)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::context::Ctx;
    use crate::{factors, idle, landscape};
    use mmcore::StoreError;

    /// One mid-size quick context shared by the agreement tests (crawl is
    /// the expensive part; the assertions differ per test).
    fn ctx() -> Ctx {
        Ctx::quick(2018)
    }

    /// The crawl's runs and their flat copy, one-round runs of the same
    /// samples, fold to the same aggregate.
    #[test]
    fn streaming_agg_matches_legacy_helpers() {
        let c = ctx();
        let flat = D2::from_samples(c.d2().iter().collect());
        let (runs, copy) = (D2Agg::from_dataset(c.d2()), D2Agg::from_dataset(&flat));
        assert_agg_matches_legacy(&runs, c.d2());
        assert_agg_matches_legacy(&copy, &flat);
        assert_eq!(format!("{runs:?}"), format!("{copy:?}"));
    }

    /// The same rows in a seeded random order: the fold's fast paths are
    /// tuned for rows grouped by cell, its results must not depend on it.
    /// The legacy helpers see the same permuted rows, so the
    /// order-sensitive outputs (Fig 21's field, Fig 11's first
    /// observations) still compare exactly.
    #[test]
    fn streaming_agg_matches_legacy_helpers_on_shuffled_rows() {
        let mut rows: Vec<ConfigSample> = ctx().d2().iter().collect();
        // xorshift64 Fisher–Yates.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for i in (1..rows.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = usize::try_from(state % (i as u64 + 1)).unwrap();
            rows.swap(i, j);
        }
        let shuffled = D2::from_samples(rows);
        assert_agg_matches_legacy(&D2Agg::from_dataset(&shuffled), &shuffled);
    }

    /// Every accessor of `agg`, an aggregate of `d2`'s rows in order,
    /// equals its legacy helper over `d2`.
    pub(crate) fn assert_agg_matches_legacy(agg: &D2Agg, d2: &D2) {
        // Totals (Fig 12).
        assert_eq!(agg.len(), d2.len());
        assert_eq!(agg.unique_cells(), d2.unique_cells());
        assert_eq!(
            agg.carrier_volume(&landscape::CARRIER_ORDER),
            landscape::carrier_volume(d2)
        );

        // Fig 13.
        assert_eq!(
            agg.samples_per_cell(),
            d2.samples_per_cell("cellReselectionPriority")
        );
        assert_eq!(agg.temporal_dynamics(), landscape::temporal_dynamics(d2));

        // Figs 14–17.
        for carrier in landscape::NINE_CARRIERS {
            for (_, param) in landscape::FIG14_PARAMS {
                assert_eq!(
                    agg.param_distribution(carrier, param),
                    landscape::param_distribution(d2, carrier, param),
                    "{carrier}/{param}"
                );
                let values = d2.unique_values(carrier, Rat::Lte, param);
                assert_eq!(
                    agg.diversity(carrier, Rat::Lte, param),
                    mmlab::diversity::diversity(&values),
                    "{carrier}/{param}"
                );
            }
        }
        assert_eq!(
            agg.diversity_table("A"),
            landscape::diversity_table(d2, "A")
        );
        assert_eq!(
            agg.param_names("A", Rat::Lte),
            d2.param_names("A", Rat::Lte)
        );

        // Figs 18 and 20: the legacy values, counted under their display
        // keys.
        let key_counts = |values: &[f64]| {
            let mut counts = BTreeMap::new();
            for v in values {
                *counts.entry(*v as i64).or_default() += 1;
            }
            (counts, values.len())
        };
        for param in F18_PARAMS {
            let legacy: BTreeMap<u32, KeyCounts> = factors::priority_by_channel(d2, ATT, param)
                .iter()
                .map(|(&chan, values)| (chan, key_counts(values)))
                .collect();
            let panel = agg.priority_panel(param).cloned().unwrap_or_default();
            assert_eq!(panel, legacy, "{param}");
        }
        let legacy: BTreeMap<(&str, City), KeyCounts> = factors::city_priorities(d2)
            .iter()
            .map(|(&group, values)| (group, key_counts(values)))
            .collect();
        assert_eq!(agg.city_priorities(), &legacy);

        // Fig 19.
        for (param, _) in agg.diversity_table("A") {
            assert_eq!(
                agg.freq_dependence(param),
                factors::freq_dependence(d2, "A", param),
                "{param}"
            );
        }

        // Fig 21.
        for carrier in US_CARRIERS {
            assert_eq!(
                agg.priority_field(carrier),
                factors::priority_field(d2, carrier, City::C3),
                "{carrier}"
            );
        }

        // Fig 22.
        for (_, carrier, rat) in factors::FIG22_GROUPS {
            assert_eq!(
                agg.rat_diversity(carrier, rat),
                factors::rat_diversity(d2, carrier, rat),
                "{carrier}/{rat:?}"
            );
        }

        // Fig 11.
        assert_eq!(agg.threshold_triples(), idle::threshold_triples(d2));
        assert_eq!(agg.gap_series(), idle::gap_series(d2));
    }

    /// `rows` observed at `cell` in `round`.
    fn observed(rows: &[ConfigSample], cell: u32, round: u32) -> Vec<ConfigSample> {
        rows.iter()
            .map(|s| ConfigSample {
                cell: CellId(cell),
                round,
                ..*s
            })
            .collect()
    }

    /// Hand-built rows of two interleaved co-sited cells over the repeat
    /// path's edges: an exact repeat, a changed value, an inserted row
    /// that shifts every later position, a return to an earlier round, and
    /// at repeated positions one row each that differs from the previous
    /// round only in its carrier, city, RAT, channel or parameter. Crawl
    /// rows change only values between rounds, so only rows like these
    /// tell a comparison that ignores a field from a sound one; the cells
    /// share a position, so only the cell tells their runs apart.
    #[test]
    fn repeat_path_takes_only_rows_equal_to_the_previous_round() {
        let lte = |param: &'static str, value: f64| ConfigSample {
            cell: CellId(0),
            carrier: ATT,
            city: City::C1,
            rat: Rat::Lte,
            channel: ChannelNumber::earfcn(5110),
            pos: Point::default(),
            round: 0,
            param,
            value,
        };
        let first = vec![
            lte(SERVING_PRIORITY, 5.0),
            lte("a3-Offset", 3.0),
            lte("q-Hyst", 4.0),
            ConfigSample {
                channel: ChannelNumber::earfcn(2000),
                ..lte("interFreqCellReselectionPriority", 3.0)
            },
            lte("s-NonIntraSearchP", 6.0),
            lte("threshServingLowP", 2.0),
            lte("s-IntraSearchP", 10.0),
        ];
        let mut changed = first.clone();
        changed[1].value = 5.0;
        let mut shifted = changed.clone();
        shifted.insert(2, lte("q-RxLevMin", -120.0));
        let mut variants = shifted.clone();
        variants[0].city = City::C3;
        variants[3].carrier = "T";
        variants[4].channel = ChannelNumber::earfcn(2175);
        variants[5].rat = Rat::Umts;
        variants[6].param = "t-ReselectionEUTRA";
        let (x, y) = (1, 2);
        let rows = [
            observed(&first, x, 0),
            observed(&first, x, 1),
            observed(&changed, x, 2),
            observed(&shifted, x, 3),
            observed(&shifted, x, 1),
            observed(&variants, x, 4),
            observed(&shifted, y, 0),
            observed(&shifted, y, 1),
            observed(&first, x, 5),
        ]
        .concat();
        let d2 = D2::from_samples(rows);
        let agg = D2Agg::from_dataset(&d2);
        assert_agg_matches_legacy(&agg, &d2);
        // Repeats per run: 7 (the exact repeat), 6 (all but the changed
        // value), 2 (the positions before the inserted row), 8 (the return
        // to round 1), 3 (all but the five variants), 0 (a new cell), 8
        // (its exact repeat) and 0 (back from the other cell).
        assert_eq!(agg.runs.repeated, 34);
    }

    /// The pipelined fold over a many-group store: the same aggregate and
    /// scan accounting at any thread count, each equal to the legacy
    /// helpers over the in-memory rows.
    #[test]
    fn pipelined_fold_is_the_same_at_any_thread_count() {
        let c = ctx();
        let d2 = c.d2();
        let mut buf = Vec::new();
        d2.write_store_with(&mut buf, 512).unwrap();
        let fold = |threads| {
            let reader = D2StoreReader::new(buf.as_slice()).unwrap();
            let mut agg = D2Agg::new();
            let scan = agg.fold_store(reader, &Executor::new(threads)).unwrap();
            (agg, scan)
        };
        let (reference, scan) = fold(1);
        assert!(scan.groups_decoded > 50, "{scan:?}");
        assert_eq!(scan.groups_skipped, 0);
        assert_agg_matches_legacy(&reference, d2);
        for threads in [2, 8] {
            let (agg, got) = fold(threads);
            assert_eq!(got, scan, "{threads} threads");
            // The parameter memo is keyed by address, so `Debug` compares
            // only folds over the same reader's strings.
            assert_eq!(format!("{agg:?}"), format!("{reference:?}"), "{threads}");
            assert_agg_matches_legacy(&agg, d2);
        }
    }

    /// Damage mid-file surfaces as the same typed error at any thread
    /// count, and the pipeline returns instead of hanging.
    #[test]
    fn pipelined_fold_reports_damage_alike_at_any_thread_count() {
        let c = Ctx::builder().quick().scale(0.02).seed(5).build();
        let mut buf = Vec::new();
        c.d2().write_store_with(&mut buf, 512).unwrap();
        let fold_err = |bytes: &[u8], threads| {
            let reader = D2StoreReader::new(bytes).unwrap();
            match D2Agg::new().fold_store(reader, &Executor::new(threads)) {
                Err(MmError::Store(e)) => e,
                other => panic!("{threads} threads: {other:?}"),
            }
        };
        let mut flipped = buf.clone();
        flipped[buf.len() / 2] ^= 0x10;
        let truncated = &buf[..buf.len() * 2 / 3];
        let reference = fold_err(&flipped, 1);
        assert!(
            matches!(reference, StoreError::Checksum { .. }),
            "{reference:?}"
        );
        for threads in [1, 2, 8] {
            assert_eq!(fold_err(&flipped, threads), reference);
            assert!(
                matches!(fold_err(truncated, threads), StoreError::Truncated { .. }),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn f18_panel_matches_legacy_dedupe_and_display_keys() {
        let c = ctx();
        let d2 = c.d2();
        let agg = D2Agg::from_dataset(d2);
        for param in F18_PARAMS {
            let legacy = factors::priority_by_channel(d2, "A", param);
            let panel = agg.priority_panel(param).unwrap();
            assert_eq!(
                panel.keys().copied().collect::<Vec<_>>(),
                legacy.keys().copied().collect::<Vec<_>>(),
                "{param}: same channels"
            );
            for (chan, values) in &legacy {
                let (counts, n) = &panel[chan];
                assert_eq!(*n, values.len(), "{param}/{chan}");
                let mut legacy_counts: BTreeMap<i64, usize> = BTreeMap::new();
                for v in values {
                    *legacy_counts.entry(*v as i64).or_default() += 1;
                }
                assert_eq!(counts, &legacy_counts, "{param}/{chan}");
            }
        }
    }

    #[test]
    fn f20_city_groups_match_legacy_shared_dedupe() {
        let c = ctx();
        let d2 = c.d2();
        let agg = D2Agg::from_dataset(d2);
        let legacy = factors::city_priorities(d2);
        let groups = agg.city_priorities();
        assert_eq!(
            groups.keys().collect::<Vec<_>>(),
            legacy.keys().collect::<Vec<_>>()
        );
        for (key, values) in &legacy {
            let (counts, n) = &groups[key];
            assert_eq!(*n, values.len(), "{key:?}");
            let mut legacy_counts: BTreeMap<i64, usize> = BTreeMap::new();
            for v in values {
                *legacy_counts.entry(*v as i64).or_default() += 1;
            }
            assert_eq!(counts, &legacy_counts, "{key:?}");
        }
    }

    #[test]
    fn store_roundtrip_streams_to_the_same_aggregate() {
        let c = Ctx::builder().quick().scale(0.02).seed(5).build();
        let d2 = c.d2();
        let mut buf = Vec::new();
        // Tiny blocks to force many-block streaming.
        d2.write_store_with(&mut buf, 64).unwrap();
        let streamed = D2Agg::from_store(D2StoreReader::new(buf.as_slice()).unwrap()).unwrap();
        let direct = D2Agg::from_dataset(d2);
        assert_eq!(streamed.len(), direct.len());
        assert_eq!(
            streamed.carrier_volume(&landscape::CARRIER_ORDER),
            direct.carrier_volume(&landscape::CARRIER_ORDER)
        );
        assert_eq!(streamed.diversity_table("A"), direct.diversity_table("A"));
        assert_eq!(streamed.gap_series(), direct.gap_series());
        assert_eq!(streamed.temporal_dynamics(), direct.temporal_dynamics());
    }
}
