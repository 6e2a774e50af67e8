//! Binary columnar persistence of D1/D2 (DESIGN.md §9).
//!
//! This module owns the dataset *schemas* on top of the `mm-store` codec:
//! which columns a [`ConfigSample`] or [`HandoffInstance`] decomposes into,
//! and how interned vocabulary strings (carrier codes, parameter names,
//! city codes) come back as the `&'static str` values the rest of the
//! workspace expects. The byte-level framing (magic, version, CRC) is
//! `mm-store`'s job.
//!
//! A file is one dictionary block followed by row-group blocks of
//! [`BLOCK_ROWS`] rows each. One generic codec serves both schemas: each
//! row type implements a private schema trait (kind, columns, stats,
//! pushdown filter, row match), and the single [`RowGroupReader`] — seen
//! as [`D2StoreReader`]/[`D1StoreReader`] — streams rows block by block,
//! never holding more than one group in memory. The one writer takes its
//! rows from a slice (D1) or from D2's runs. It interns every string
//! first and freezes the dictionary, then encodes and CRC-frames row
//! group `k` on lane `k mod n` of the executor, each lane expanding only
//! its own groups, while the caller writes the frames in file order
//! ([`D2::write_store_on`]). The bytes are the same at any lane count.
//!
//! Format v2 row groups carry a small prefix before the columns: the
//! declared row and column counts (checked against the payload size and
//! the schema *before* any column is decoded, so a mismatched file fails
//! fast with a typed error) and per-group vocabulary stats — the sorted
//! dictionary ids of the carriers, cities, parameters (D2 also RAT tags)
//! present in the group. A reader configured
//! [`with_predicate`](RowGroupReader::with_predicate) consults the stats to
//! *skip whole groups* whose vocabulary cannot satisfy the predicate,
//! without touching their column bytes — predicate pushdown.

mod rowgroup;

use crate::dataset::{ConfigSample, HandoffInstance, D1, D2};
use crate::predicate::Predicate;
use mm_exec::Executor;
use mm_store::{DictBuilder, F64Decoder, F64Encoder, UIntDecoder, UIntEncoder};
use mmcarriers::city::City;
use mmcore::config::Quantity;
use mmcore::events::{EventKind, ReportConfig};
use mmcore::reselect::PriorityRelation;
use mmcore::{MmError, StoreError};
use mmnetsim::run::{HandoffKind, HandoffRecord};
use mmradio::band::{ChannelNumber, Rat};
use mmradio::cell::CellId;
use mmradio::geom::Point;
pub(crate) use rowgroup::RowSchema;
pub use rowgroup::{intern_param, RowGroupReader, ScanStats};
use rowgroup::{
    read_rows, sel_str, write_rows, GroupFilter, IdSel, IdSet, ResolvedDict, RowSource,
};
use std::io::{Read, Write};

/// Dataset kind stamped in D2 store headers.
pub const KIND_D2: &str = "d2-config-samples";
/// Dataset kind stamped in D1 store headers.
pub const KIND_D1: &str = "d1-handoff-instances";

/// Block tag: the string dictionary table.
const TAG_DICT: u8 = 1;
/// Block tag: a row group.
const TAG_ROWS: u8 = 2;

/// Rows per row-group block. Small enough that a streaming reader's
/// working set stays bounded, large enough that per-block overhead (frame,
/// column length prefixes) is noise.
pub const BLOCK_ROWS: usize = 4096;

/// Streaming D2 reader: yields one [`ConfigSample`] at a time.
pub type D2StoreReader<R> = RowGroupReader<ConfigSample, R>;

/// Streaming D1 reader: yields one [`HandoffInstance`] at a time. Its
/// pushdown sees carrier and city only; D1 rows have no parameter or RAT
/// columns.
pub type D1StoreReader<R> = RowGroupReader<HandoffInstance, R>;

// ---------------------------------------------------------------------------
// Enum tags (stable wire values — append-only; never renumber)
// ---------------------------------------------------------------------------

fn rat_tag(rat: Rat) -> u64 {
    match rat {
        Rat::Lte => 0,
        Rat::Umts => 1,
        Rat::Gsm => 2,
        Rat::Evdo => 3,
        Rat::Cdma1x => 4,
    }
}

fn rat_from(tag: u64) -> Result<Rat, StoreError> {
    Ok(match tag {
        0 => Rat::Lte,
        1 => Rat::Umts,
        2 => Rat::Gsm,
        3 => Rat::Evdo,
        4 => Rat::Cdma1x,
        t => return Err(StoreError::Schema(format!("unknown RAT tag {t}"))),
    })
}

fn quantity_tag(q: Quantity) -> u64 {
    match q {
        Quantity::Rsrp => 0,
        Quantity::Rsrq => 1,
    }
}

fn quantity_from(tag: u64) -> Result<Quantity, StoreError> {
    Ok(match tag {
        0 => Quantity::Rsrp,
        1 => Quantity::Rsrq,
        t => return Err(StoreError::Schema(format!("unknown quantity tag {t}"))),
    })
}

fn relation_tag(r: PriorityRelation) -> u64 {
    match r {
        PriorityRelation::IntraFreq => 0,
        PriorityRelation::NonIntraHigher => 1,
        PriorityRelation::NonIntraEqual => 2,
        PriorityRelation::NonIntraLower => 3,
    }
}

fn relation_from(tag: u64) -> Result<PriorityRelation, StoreError> {
    Ok(match tag {
        0 => PriorityRelation::IntraFreq,
        1 => PriorityRelation::NonIntraHigher,
        2 => PriorityRelation::NonIntraEqual,
        3 => PriorityRelation::NonIntraLower,
        t => return Err(StoreError::Schema(format!("unknown relation tag {t}"))),
    })
}

/// Split an [`EventKind`] into its tag and parameter list.
fn event_parts(e: &EventKind) -> (u64, [Option<f64>; 2]) {
    // The wire tag is the typed decisive-event code (mmcore::DecisiveEvent),
    // so the store registry and the figure labels share one source of truth.
    let tag = e.decisive().code();
    let params = match *e {
        EventKind::A1 { threshold }
        | EventKind::A2 { threshold }
        | EventKind::A4 { threshold }
        | EventKind::B1 { threshold } => [Some(threshold), None],
        EventKind::A3 { offset_db } | EventKind::A6 { offset_db } => [Some(offset_db), None],
        EventKind::A5 {
            threshold1,
            threshold2,
        }
        | EventKind::B2 {
            threshold1,
            threshold2,
        } => [Some(threshold1), Some(threshold2)],
        EventKind::Periodic => [None, None],
    };
    (tag, params)
}

fn event_from(tag: u64, params: &mut F64Decoder<'_>) -> Result<EventKind, StoreError> {
    Ok(match tag {
        0 => EventKind::A1 {
            threshold: params.read()?,
        },
        1 => EventKind::A2 {
            threshold: params.read()?,
        },
        2 => EventKind::A3 {
            offset_db: params.read()?,
        },
        3 => EventKind::A4 {
            threshold: params.read()?,
        },
        4 => EventKind::A5 {
            threshold1: params.read()?,
            threshold2: params.read()?,
        },
        5 => EventKind::A6 {
            offset_db: params.read()?,
        },
        6 => EventKind::B1 {
            threshold: params.read()?,
        },
        7 => EventKind::B2 {
            threshold1: params.read()?,
            threshold2: params.read()?,
        },
        8 => EventKind::Periodic,
        t => return Err(StoreError::Schema(format!("unknown event tag {t}"))),
    })
}

fn push_event(e: &EventKind, tags: &mut UIntEncoder, params: &mut F64Encoder) {
    let (tag, ps) = event_parts(e);
    tags.push(tag);
    for p in ps.into_iter().flatten() {
        params.push(p);
    }
}

// ---------------------------------------------------------------------------
// D2
// ---------------------------------------------------------------------------

impl RowSchema for ConfigSample {
    const KIND: &'static str = KIND_D2;
    const LABEL: &'static str = "d2";
    const COLS: usize = 11;
    /// Carriers, cities, parameters, RAT tags.
    const STATS: usize = 4;
    type Stats = [IdSet; Self::STATS];
    type Cols = [Vec<u8>; Self::COLS];

    fn filter(pred: &Predicate, dict: &ResolvedDict) -> Option<GroupFilter> {
        // Rounds are not in the stats — they are pruned at the
        // campaign-manifest level, not per group.
        GroupFilter::new(vec![
            sel_str(pred.carrier.as_deref(), dict),
            sel_str(pred.city.map(City::as_str), dict),
            sel_str(pred.param.as_deref(), dict),
            pred.rat.map_or(IdSel::Any, |r| IdSel::One(rat_tag(r))),
        ])
    }

    fn intern(dict: &mut DictBuilder, s: &ConfigSample) {
        dict.intern_static(s.carrier);
        dict.intern_static(s.city.as_str());
        dict.intern_static(s.param);
    }

    fn encode(
        dict: &DictBuilder,
        stats: &mut Self::Stats,
        cols: &mut Self::Cols,
        rows: &[ConfigSample],
    ) -> Result<(), MmError> {
        let [cell, carrier, city, rat, chan_rat, chan_num, pos_x, pos_y, round, param, value] =
            cols;
        let mut cell = UIntEncoder::new(cell);
        let mut carrier = UIntEncoder::new(carrier);
        let mut city = UIntEncoder::new(city);
        let mut rat = UIntEncoder::new(rat);
        let mut chan_rat = UIntEncoder::new(chan_rat);
        let mut chan_num = UIntEncoder::new(chan_num);
        let mut pos_x = F64Encoder::new(pos_x);
        let mut pos_y = F64Encoder::new(pos_y);
        let mut round = UIntEncoder::new(round);
        let mut param = UIntEncoder::new(param);
        let mut value = F64Encoder::new(value);
        let [st_carrier, st_city, st_param, st_rat] = &mut *stats;
        for s in rows {
            // Enforce the ingest contract at the write boundary too, so a
            // file can never be produced that the reader would reject.
            s.check()?;
            cell.push(u64::from(s.cell.0));
            let carrier_id = dict.lookup_static(s.carrier)?;
            carrier.push(carrier_id);
            st_carrier.insert(carrier_id);
            let city_id = dict.lookup_static(s.city.as_str())?;
            city.push(city_id);
            st_city.insert(city_id);
            let rat_v = rat_tag(s.rat);
            rat.push(rat_v);
            st_rat.insert(rat_v);
            chan_rat.push(rat_tag(s.channel.rat));
            chan_num.push(u64::from(s.channel.number));
            pos_x.push(s.pos.x);
            pos_y.push(s.pos.y);
            round.push(u64::from(s.round));
            let param_id = dict.lookup_static(s.param)?;
            param.push(param_id);
            st_param.insert(param_id);
            value.push(s.value);
        }
        Ok(())
    }

    fn decode(
        dict: &ResolvedDict,
        n_rows: u64,
        cols: &[&[u8]],
    ) -> Result<Vec<ConfigSample>, MmError> {
        let mut cell = UIntDecoder::new(cols[0]);
        let mut carrier = UIntDecoder::new(cols[1]);
        let mut city = UIntDecoder::new(cols[2]);
        let mut rat = UIntDecoder::new(cols[3]);
        let mut chan_rat = UIntDecoder::new(cols[4]);
        let mut chan_num = UIntDecoder::new(cols[5]);
        let mut pos_x = F64Decoder::new(cols[6]);
        let mut pos_y = F64Decoder::new(cols[7]);
        let mut round = UIntDecoder::new(cols[8]);
        let mut param = UIntDecoder::new(cols[9]);
        let mut value = F64Decoder::new(cols[10]);
        let mut out = Vec::with_capacity(n_rows as usize);
        for _ in 0..n_rows {
            let rat_v = rat_from(rat.read()?)?;
            let carrier_v = dict.carrier(carrier.read()?)?;
            let city_v = dict.city(city.read()?)?;
            let param_v = dict.param(param.read()?)?;
            let s = ConfigSample {
                cell: CellId(cell.read_u32()?),
                carrier: carrier_v,
                city: city_v,
                rat: rat_v,
                channel: ChannelNumber {
                    rat: rat_from(chan_rat.read()?)?,
                    number: chan_num.read_u32()?,
                },
                pos: Point::new(pos_x.read()?, pos_y.read()?),
                round: round.read_u32()?,
                param: param_v,
                value: value.read()?,
            };
            // A decoded value outside the ingest contract is a malformed
            // file, not a usage error: surface it as a schema failure.
            s.check().map_err(|e| StoreError::Schema(e.to_string()))?;
            out.push(s);
        }
        Ok(out)
    }

    fn matches(pred: &Predicate, s: &ConfigSample) -> bool {
        pred.carrier.as_deref().is_none_or(|c| c == s.carrier)
            && pred.city.is_none_or(|c| c == s.city)
            && pred.param.as_deref().is_none_or(|p| p == s.param)
            && pred.rat.is_none_or(|r| r == s.rat)
            && pred.round_max.is_none_or(|n| s.round <= n)
    }

    fn shift_round(&mut self, rounds: u32) -> Result<(), StoreError> {
        self.round = self.round.checked_add(rounds).ok_or_else(|| {
            StoreError::Schema(format!(
                "round {} shifted by {rounds} overflows u32",
                self.round
            ))
        })?;
        Ok(())
    }
}

impl D2 {
    /// Write the dataset in the binary columnar store format with the
    /// default row-group size.
    pub fn write_store<W: Write>(&self, w: W) -> Result<(), MmError> {
        self.write_store_with(w, BLOCK_ROWS)
    }

    /// Write with an explicit row-group size (tests use small groups to
    /// exercise multi-block streaming), encoding on the lanes of
    /// [`Executor::from_env`]. Every row must pass
    /// [`ConfigSample::check`].
    pub fn write_store_with<W: Write>(&self, w: W, block_rows: usize) -> Result<(), MmError> {
        self.write_store_on(w, block_rows, &Executor::from_env())
    }

    /// Write with an explicit row-group size, encoding row group `k` on
    /// lane `k mod n` of `exec`'s lanes; the bytes are the same for any
    /// lane count. Each lane expands only its own groups, one at a time.
    pub fn write_store_on<W: Write>(
        &self,
        w: W,
        block_rows: usize,
        exec: &Executor,
    ) -> Result<(), MmError> {
        write_rows(self, w, block_rows, exec)
    }

    /// Read a dataset written by [`write_store`](D2::write_store),
    /// streaming block by block.
    pub fn read_store<R: Read>(r: R) -> Result<D2, MmError> {
        read_rows(r).map(D2::from_samples)
    }
}

/// The store reads D2 as its samples: the runs' rows once, which meet
/// every string in the samples' order, for the dictionary, then each
/// run's rows once per round. A lane expands only its own groups, into
/// one reused group buffer, and steps over the others' rows.
impl RowSource<ConfigSample> for D2 {
    fn rows(&self) -> usize {
        self.len()
    }

    fn for_each_distinct(&self, f: impl FnMut(&ConfigSample)) {
        self.distinct_rows().for_each(f);
    }

    fn try_for_each_group<E>(
        &self,
        block_rows: usize,
        lane: usize,
        lanes: usize,
        mut f: impl FnMut(&[ConfigSample]) -> Result<(), E>,
    ) -> Result<(), E> {
        let lanes = lanes.max(1);
        let mut group = Vec::with_capacity(block_rows);
        // Sample index of the next row.
        let mut at = 0;
        for (rows, rounds) in self.runs() {
            for &round in rounds {
                let mut rest = rows;
                while !rest.is_empty() {
                    let g = at / block_rows;
                    let own = g % lanes == lane;
                    // Up to the end of this lane's group, or to the start
                    // of its next one.
                    let until = if own {
                        g + 1
                    } else {
                        g + (lane + lanes - g % lanes) % lanes
                    };
                    let (now, later) = rest.split_at((until * block_rows - at).min(rest.len()));
                    if own {
                        group.extend(now.iter().map(|s| ConfigSample { round, ..s.clone() }));
                    }
                    at += now.len();
                    rest = later;
                    if group.len() == block_rows {
                        f(&group)?;
                        group.clear();
                    }
                }
            }
        }
        if group.is_empty() {
            Ok(())
        } else {
            f(&group)
        }
    }
}

// ---------------------------------------------------------------------------
// D1
// ---------------------------------------------------------------------------

impl RowSchema for HandoffInstance {
    const KIND: &'static str = KIND_D1;
    const LABEL: &'static str = "d1";
    const COLS: usize = 26;
    /// Carriers, cities (handoff instances carry no parameter or RAT
    /// field).
    const STATS: usize = 2;
    type Stats = [IdSet; Self::STATS];
    type Cols = [Vec<u8>; Self::COLS];

    fn filter(pred: &Predicate, dict: &ResolvedDict) -> Option<GroupFilter> {
        GroupFilter::new(vec![
            sel_str(pred.carrier.as_deref(), dict),
            sel_str(pred.city.map(City::as_str), dict),
        ])
    }

    fn intern(dict: &mut DictBuilder, i: &HandoffInstance) {
        dict.intern_static(i.carrier);
        dict.intern_static(i.city.as_str());
    }

    fn encode(
        dict: &DictBuilder,
        stats: &mut Self::Stats,
        cols: &mut Self::Cols,
        rows: &[HandoffInstance],
    ) -> Result<(), MmError> {
        let [carrier, city, t_ms, from, to, kind, idle_rel, evt_tag, evt_params, rest @ ..] = cols;
        let [quantity, has_rc, rc_evt_tag, rc_evt_params, rc_quantity, rc_hyst, rest @ ..] = rest;
        let [rc_ttt, rc_interval, rc_amount, report_t, cmd_delay, rest @ ..] = rest;
        let [rsrp_old, rsrp_new, rsrq_old, rsrq_new, has_thpt, thpt] = rest;
        let mut carrier = UIntEncoder::new(carrier);
        let mut city = UIntEncoder::new(city);
        let mut t_ms = UIntEncoder::new(t_ms);
        let mut from = UIntEncoder::new(from);
        let mut to = UIntEncoder::new(to);
        let mut kind = UIntEncoder::new(kind);
        let mut idle_rel = UIntEncoder::new(idle_rel);
        let mut evt_tag = UIntEncoder::new(evt_tag);
        let mut evt_params = F64Encoder::new(evt_params);
        let mut quantity = UIntEncoder::new(quantity);
        let mut has_rc = UIntEncoder::new(has_rc);
        let mut rc_evt_tag = UIntEncoder::new(rc_evt_tag);
        let mut rc_evt_params = F64Encoder::new(rc_evt_params);
        let mut rc_quantity = UIntEncoder::new(rc_quantity);
        let mut rc_hyst = F64Encoder::new(rc_hyst);
        let mut rc_ttt = UIntEncoder::new(rc_ttt);
        let mut rc_interval = UIntEncoder::new(rc_interval);
        let mut rc_amount = UIntEncoder::new(rc_amount);
        let mut report_t = UIntEncoder::new(report_t);
        let mut cmd_delay = UIntEncoder::new(cmd_delay);
        let mut rsrp_old = F64Encoder::new(rsrp_old);
        let mut rsrp_new = F64Encoder::new(rsrp_new);
        let mut rsrq_old = F64Encoder::new(rsrq_old);
        let mut rsrq_new = F64Encoder::new(rsrq_new);
        let mut has_thpt = UIntEncoder::new(has_thpt);
        let mut thpt = F64Encoder::new(thpt);
        let [st_carrier, st_city] = &mut *stats;
        for i in rows {
            let r = &i.record;
            let carrier_id = dict.lookup_static(i.carrier)?;
            carrier.push(carrier_id);
            st_carrier.insert(carrier_id);
            let city_id = dict.lookup_static(i.city.as_str())?;
            city.push(city_id);
            st_city.insert(city_id);
            t_ms.push(r.t_ms);
            from.push(u64::from(r.from.0));
            to.push(u64::from(r.to.0));
            match &r.kind {
                HandoffKind::Idle { relation } => {
                    kind.push(0);
                    idle_rel.push(relation_tag(*relation));
                }
                HandoffKind::Active {
                    decisive,
                    quantity: q,
                    report_config,
                    report_t_ms,
                    command_delay_ms,
                } => {
                    kind.push(1);
                    push_event(decisive, &mut evt_tag, &mut evt_params);
                    quantity.push(quantity_tag(*q));
                    match report_config {
                        None => has_rc.push(0),
                        Some(rc) => {
                            has_rc.push(1);
                            push_event(&rc.event, &mut rc_evt_tag, &mut rc_evt_params);
                            rc_quantity.push(quantity_tag(rc.quantity));
                            rc_hyst.push(rc.hysteresis_db);
                            rc_ttt.push(u64::from(rc.time_to_trigger_ms));
                            rc_interval.push(u64::from(rc.report_interval_ms));
                            rc_amount.push(u64::from(rc.report_amount));
                        }
                    }
                    report_t.push(*report_t_ms);
                    cmd_delay.push(*command_delay_ms);
                }
            }
            rsrp_old.push(r.rsrp_old_dbm);
            rsrp_new.push(r.rsrp_new_dbm);
            rsrq_old.push(r.rsrq_old_db);
            rsrq_new.push(r.rsrq_new_db);
            match r.min_thpt_before_bps {
                None => has_thpt.push(0),
                Some(v) => {
                    has_thpt.push(1);
                    thpt.push(v);
                }
            }
        }
        Ok(())
    }

    fn decode(
        dict: &ResolvedDict,
        n_rows: u64,
        cols: &[&[u8]],
    ) -> Result<Vec<HandoffInstance>, MmError> {
        let mut carrier = UIntDecoder::new(cols[0]);
        let mut city = UIntDecoder::new(cols[1]);
        let mut t_ms = UIntDecoder::new(cols[2]);
        let mut from = UIntDecoder::new(cols[3]);
        let mut to = UIntDecoder::new(cols[4]);
        let mut kind = UIntDecoder::new(cols[5]);
        let mut idle_rel = UIntDecoder::new(cols[6]);
        let mut evt_tag = UIntDecoder::new(cols[7]);
        let mut evt_params = F64Decoder::new(cols[8]);
        let mut quantity = UIntDecoder::new(cols[9]);
        let mut has_rc = UIntDecoder::new(cols[10]);
        let mut rc_evt_tag = UIntDecoder::new(cols[11]);
        let mut rc_evt_params = F64Decoder::new(cols[12]);
        let mut rc_quantity = UIntDecoder::new(cols[13]);
        let mut rc_hyst = F64Decoder::new(cols[14]);
        let mut rc_ttt = UIntDecoder::new(cols[15]);
        let mut rc_interval = UIntDecoder::new(cols[16]);
        let mut rc_amount = UIntDecoder::new(cols[17]);
        let mut report_t = UIntDecoder::new(cols[18]);
        let mut cmd_delay = UIntDecoder::new(cols[19]);
        let mut rsrp_old = F64Decoder::new(cols[20]);
        let mut rsrp_new = F64Decoder::new(cols[21]);
        let mut rsrq_old = F64Decoder::new(cols[22]);
        let mut rsrq_new = F64Decoder::new(cols[23]);
        let mut has_thpt = UIntDecoder::new(cols[24]);
        let mut thpt = F64Decoder::new(cols[25]);
        let mut out = Vec::with_capacity(n_rows as usize);
        for _ in 0..n_rows {
            let carrier_v = dict.carrier(carrier.read()?)?;
            let city_v = dict.city(city.read()?)?;
            let t = t_ms.read()?;
            let from_v = CellId(from.read_u32()?);
            let to_v = CellId(to.read_u32()?);
            let kind_v = match kind.read()? {
                0 => HandoffKind::Idle {
                    relation: relation_from(idle_rel.read()?)?,
                },
                1 => {
                    let decisive = event_from(evt_tag.read()?, &mut evt_params)?;
                    let q = quantity_from(quantity.read()?)?;
                    let report_config = match has_rc.read()? {
                        0 => None,
                        1 => Some(ReportConfig {
                            event: event_from(rc_evt_tag.read()?, &mut rc_evt_params)?,
                            quantity: quantity_from(rc_quantity.read()?)?,
                            hysteresis_db: rc_hyst.read()?,
                            time_to_trigger_ms: rc_ttt.read_u32()?,
                            report_interval_ms: rc_interval.read_u32()?,
                            report_amount: rc_amount.read_u8()?,
                        }),
                        t => {
                            return Err(StoreError::Schema(format!("bad option flag {t}")).into());
                        }
                    };
                    HandoffKind::Active {
                        decisive,
                        quantity: q,
                        report_config,
                        report_t_ms: report_t.read()?,
                        command_delay_ms: cmd_delay.read()?,
                    }
                }
                t => return Err(StoreError::Schema(format!("unknown handoff kind tag {t}")).into()),
            };
            let record = HandoffRecord {
                t_ms: t,
                from: from_v,
                to: to_v,
                kind: kind_v,
                rsrp_old_dbm: rsrp_old.read()?,
                rsrp_new_dbm: rsrp_new.read()?,
                rsrq_old_db: rsrq_old.read()?,
                rsrq_new_db: rsrq_new.read()?,
                min_thpt_before_bps: match has_thpt.read()? {
                    0 => None,
                    1 => Some(thpt.read()?),
                    t => return Err(StoreError::Schema(format!("bad option flag {t}")).into()),
                },
            };
            out.push(HandoffInstance {
                carrier: carrier_v,
                city: city_v,
                record,
            });
        }
        Ok(out)
    }

    /// Only the carrier and city constraints apply: handoff instances have
    /// no parameter, RAT or round field.
    fn matches(pred: &Predicate, i: &HandoffInstance) -> bool {
        pred.carrier.as_deref().is_none_or(|c| c == i.carrier)
            && pred.city.is_none_or(|c| c == i.city)
    }

    /// Handoff instances carry no crawl round.
    fn shift_round(&mut self, _rounds: u32) -> Result<(), StoreError> {
        Ok(())
    }
}

impl D1 {
    /// Write the dataset in the binary columnar store format with the
    /// default row-group size.
    pub fn write_store<W: Write>(&self, w: W) -> Result<(), MmError> {
        self.write_store_with(w, BLOCK_ROWS)
    }

    /// Write with an explicit row-group size, encoding on the lanes of
    /// [`Executor::from_env`].
    pub fn write_store_with<W: Write>(&self, w: W, block_rows: usize) -> Result<(), MmError> {
        let rows = self.iter_handoffs().as_slice();
        write_rows(rows, w, block_rows, &Executor::from_env())
    }

    /// Read a dataset written by [`write_store`](D1::write_store).
    pub fn read_store<R: Read>(r: R) -> Result<D1, MmError> {
        read_rows(r).map(D1::from_instances)
    }
}

#[cfg(test)]
mod tests {
    use super::rowgroup::encode_group;
    use super::*;
    use crate::campaign::{run_campaigns_parallel, CampaignConfig};
    use crate::crawler::crawl;
    use mm_store::{Dict, StoreReader, StoreWriter};
    use mmcarriers::world::World;

    fn small_d2() -> D2 {
        let world = World::generate(3, 0.01);
        crawl(&world, 1)
    }

    fn small_d1() -> D1 {
        let world = World::generate(3, 0.02);
        let cfg = CampaignConfig::active(6)
            .runs(1)
            .duration_ms(180_000)
            .cities(&[City::C1, City::C3]);
        run_campaigns_parallel(&world, &["A", "T"], &cfg)
    }

    #[test]
    fn event_wire_tags_are_the_typed_decisive_codes() {
        use mmcore::DecisiveEvent;
        let kinds = [
            EventKind::A1 { threshold: -100.0 },
            EventKind::A2 { threshold: -90.0 },
            EventKind::A3 { offset_db: 3.0 },
            EventKind::A4 { threshold: -80.0 },
            EventKind::A5 {
                threshold1: -70.0,
                threshold2: -95.0,
            },
            EventKind::A6 { offset_db: 2.0 },
            EventKind::B1 { threshold: -85.0 },
            EventKind::B2 {
                threshold1: -75.0,
                threshold2: -92.0,
            },
            EventKind::Periodic,
        ];
        for kind in &kinds {
            // The wire tag IS the typed code: the store format and the
            // figure labels cannot drift apart.
            let (tag, params) = event_parts(kind);
            assert_eq!(tag, kind.decisive().code(), "{kind:?}");
            // And the tag decodes back to the same variant with the same
            // payload through the real column codecs.
            let mut bytes = Vec::new();
            let mut enc = F64Encoder::new(&mut bytes);
            for p in params.into_iter().flatten() {
                enc.push(p);
            }
            let mut dec = F64Decoder::new(&bytes);
            assert_eq!(&event_from(tag, &mut dec).unwrap(), kind);
        }
        // Every decisive code round-trips, and the EventKind tags cover
        // exactly the non-Idle codes (Idle never appears in a D1 row).
        for e in DecisiveEvent::ALL {
            assert_eq!(DecisiveEvent::from_code(e.code()), Some(e), "{e:?}");
            assert!(!e.label().is_empty());
        }
        assert_eq!(
            DecisiveEvent::from_code(DecisiveEvent::Idle.code() + 1),
            None
        );
        let tags: Vec<u64> = kinds.iter().map(|k| event_parts(k).0).collect();
        let codes: Vec<u64> = DecisiveEvent::ALL
            .into_iter()
            .filter(|e| *e != DecisiveEvent::Idle)
            .map(|e| e.code())
            .collect();
        assert_eq!(tags, codes);
    }

    #[test]
    fn d2_round_trips_exactly() {
        let d2 = small_d2();
        assert!(d2.len() > 100, "need a non-trivial dataset");
        let mut buf = Vec::new();
        d2.write_store(&mut buf).unwrap();
        let back = D2::read_store(buf.as_slice()).unwrap();
        assert_eq!(d2, back);
    }

    #[test]
    fn d2_streams_across_many_small_blocks() {
        let d2 = small_d2();
        let mut buf = Vec::new();
        d2.write_store_with(&mut buf, 7).unwrap();
        let rows: Result<Vec<ConfigSample>, MmError> =
            D2StoreReader::new(buf.as_slice()).unwrap().collect();
        let rows = rows.unwrap();
        assert_eq!(rows.len(), d2.len());
        assert_eq!(D2::from_samples(rows), d2);
        // More than one row group actually made it to disk.
        let mut r = StoreReader::new(buf.as_slice(), KIND_D2).unwrap();
        let mut blocks = 0;
        while r.next_block().unwrap().is_some() {
            blocks += 1;
        }
        assert!(blocks > d2.len() / 7, "expected many row groups");
    }

    #[test]
    fn d1_round_trips_exactly_including_kind_payloads() {
        let d1 = small_d1();
        assert!(!d1.is_empty(), "campaign produced no handoffs");
        let mut buf = Vec::new();
        d1.write_store(&mut buf).unwrap();
        let back = D1::read_store(buf.as_slice()).unwrap();
        assert_eq!(d1, back);
    }

    #[test]
    fn d1_idle_runs_round_trip_too() {
        let world = World::generate(5, 0.02);
        let cfg = CampaignConfig::idle(9)
            .runs(1)
            .duration_ms(180_000)
            .cities(&[City::C1]);
        let d1 = run_campaigns_parallel(&world, &["A", "V"], &cfg);
        let mut buf = Vec::new();
        d1.write_store_with(&mut buf, 13).unwrap();
        assert_eq!(D1::read_store(buf.as_slice()).unwrap(), d1);
    }

    /// `s` at a fresh address: equal content, a pointer no literal has.
    fn leaked(s: &str) -> &'static str {
        Box::leak(s.to_string().into_boxed_str())
    }

    #[test]
    fn dictionary_ids_follow_content_never_address() {
        // Every other row's strings moved to leaked copies, interleaved
        // with the literal-backed rows: the bytes must not change.
        let d2 = small_d2();
        let copied = d2
            .iter()
            .enumerate()
            .map(|(i, mut s)| {
                if i % 2 == 1 {
                    s.carrier = leaked(s.carrier);
                    s.param = leaked(s.param);
                }
                s
            })
            .collect();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        d2.write_store_with(&mut want, 50).unwrap();
        D2::from_samples(copied)
            .write_store_with(&mut got, 50)
            .unwrap();
        assert!(got == want, "D2 bytes depend on string addresses");

        let d1 = small_d1();
        let copied = d1
            .iter_handoffs()
            .enumerate()
            .map(|(i, h)| {
                let mut h = h.clone();
                if i % 2 == 1 {
                    h.carrier = leaked(h.carrier);
                }
                h
            })
            .collect();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        d1.write_store_with(&mut want, 16).unwrap();
        D1::from_instances(copied)
            .write_store_with(&mut got, 16)
            .unwrap();
        assert!(got == want, "D1 bytes depend on string addresses");
    }

    #[test]
    fn empty_datasets_round_trip() {
        let mut buf = Vec::new();
        D2::default().write_store(&mut buf).unwrap();
        assert!(D2::read_store(buf.as_slice()).unwrap().is_empty());
        let mut buf = Vec::new();
        D1::default().write_store(&mut buf).unwrap();
        assert!(D1::read_store(buf.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn kind_mismatch_is_a_schema_error() {
        let mut buf = Vec::new();
        D2::default().write_store(&mut buf).unwrap();
        assert!(matches!(
            D1::read_store(buf.as_slice()),
            Err(MmError::Store(StoreError::Schema(_)))
        ));
    }

    /// A file whose one row group has a valid CRC but declares `1 << 60`
    /// rows: the count must be refused before it sizes any allocation.
    fn lying_row_count<T: RowSchema>() -> Vec<u8> {
        let mut group = Vec::new();
        encode_group(
            1 << 60,
            &mut vec![IdSet::default(); T::STATS],
            &vec![Vec::new(); T::COLS],
            &mut group,
        );
        let mut out = Vec::new();
        let mut w = StoreWriter::new(&mut out, T::KIND).unwrap();
        w.write_block(TAG_DICT, &DictBuilder::new().encode())
            .unwrap();
        w.write_block(TAG_ROWS, &group).unwrap();
        w.finish(1 << 60).unwrap();
        out
    }

    fn assert_damage_is_typed<T: RowSchema + std::fmt::Debug>(buf: &[u8]) {
        let read = |bytes: &[u8]| read_rows::<T, _>(bytes);
        // Truncate at many points through the file.
        for cut in [0, 3, 10, buf.len() / 2, buf.len() - 1] {
            let got = read(&buf[..cut]);
            assert!(matches!(got, Err(MmError::Store(_))), "cut {cut}: {got:?}");
        }
        // Bit-flip in the middle (some payload byte).
        let mut flipped = buf.to_vec();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(matches!(read(&flipped), Err(MmError::Store(_))));
        let got = read(&lying_row_count::<T>());
        match got {
            Err(MmError::Store(StoreError::Schema(msg))) => {
                assert!(msg.contains("rows"), "unexpected message: {msg}");
            }
            other => panic!("expected schema error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_and_corruption_are_typed_not_panics() {
        let mut buf = Vec::new();
        small_d2().write_store_with(&mut buf, 50).unwrap();
        assert_damage_is_typed::<ConfigSample>(&buf);
        let mut buf = Vec::new();
        small_d1().write_store_with(&mut buf, 16).unwrap();
        assert_damage_is_typed::<HandoffInstance>(&buf);
    }

    #[test]
    fn pushdown_matches_full_scan_and_skips_groups() {
        let d2 = small_d2();
        let mut buf = Vec::new();
        // Small groups so carrier clustering gives skippable blocks.
        d2.write_store_with(&mut buf, 32).unwrap();
        let pred = Predicate::any().carrier("A");
        let expect: Vec<ConfigSample> = d2.iter().filter(|s| pred.matches(s)).collect();
        assert!(!expect.is_empty());
        assert!(expect.len() < d2.len());

        let mut pushed = D2StoreReader::new(buf.as_slice())
            .unwrap()
            .with_predicate(&pred);
        let rows: Vec<ConfigSample> = pushed.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(rows, expect, "pushdown yields exactly the matching rows");
        let stats = pushed.scan_stats();
        assert!(
            stats.groups_skipped > 0,
            "carrier-clustered crawl must skip blocks: {stats:?}"
        );
        assert!(stats.rows_skipped > 0);
    }

    #[test]
    fn absent_vocabulary_predicate_skips_every_group() {
        let d2 = small_d2();
        let mut buf = Vec::new();
        d2.write_store_with(&mut buf, 32).unwrap();
        let pred = Predicate::any().param("no-such-parameter");
        let mut r = D2StoreReader::new(buf.as_slice())
            .unwrap()
            .with_predicate(&pred);
        assert_eq!(r.by_ref().count(), 0);
        let stats = r.scan_stats();
        assert_eq!(stats.groups_decoded, 0, "{stats:?}");
        assert_eq!(stats.rows_skipped, d2.len() as u64);
    }

    #[test]
    fn round_offset_shifts_every_decoded_round() {
        let d2 = small_d2();
        let mut buf = Vec::new();
        d2.write_store_with(&mut buf, 64).unwrap();
        let rows: Vec<ConfigSample> = D2StoreReader::new(buf.as_slice())
            .unwrap()
            .with_round_offset(20)
            .map(|r| r.unwrap())
            .collect();
        let plain: Vec<ConfigSample> = d2.iter().collect();
        assert_eq!(rows.len(), plain.len());
        for (got, want) in rows.iter().zip(&plain) {
            assert_eq!(got.round, want.round + 20);
            assert_eq!((got.cell, got.param, got.value.to_bits()), {
                (want.cell, want.param, want.value.to_bits())
            });
        }
    }

    #[test]
    fn round_offset_overflow_is_a_schema_error() {
        let mut sample = small_d2().iter().next().unwrap();
        sample.round = u32::MAX - 5;
        let mut buf = Vec::new();
        D2::from_samples(vec![sample])
            .write_store(&mut buf)
            .unwrap();
        let got: Result<Vec<ConfigSample>, MmError> = D2StoreReader::new(buf.as_slice())
            .unwrap()
            .with_round_offset(20)
            .collect();
        match got {
            Err(MmError::Store(StoreError::Schema(msg))) => {
                assert!(msg.contains("overflows"), "unexpected message: {msg}");
            }
            other => panic!("expected schema error, got {other:?}"),
        }
        // An offset that still fits is applied.
        let rows: Vec<ConfigSample> = D2StoreReader::new(buf.as_slice())
            .unwrap()
            .with_round_offset(5)
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(rows[0].round, u32::MAX);
    }

    #[test]
    fn d1_pushdown_matches_filtered_view() {
        let d1 = small_d1();
        let mut buf = Vec::new();
        d1.write_store_with(&mut buf, 16).unwrap();
        let pred = Predicate::any().carrier("A").city(City::C1);
        let expect: Vec<HandoffInstance> = d1.filter(&pred).cloned().collect();
        assert!(!expect.is_empty());
        let mut r = D1StoreReader::new(buf.as_slice())
            .unwrap()
            .with_predicate(&pred);
        let rows: Vec<HandoffInstance> = r.by_ref().map(|x| x.unwrap()).collect();
        assert_eq!(rows, expect);
        assert!(r.scan_stats().groups_skipped > 0, "{:?}", r.scan_stats());
    }

    #[test]
    fn mismatched_column_count_fails_fast_before_decode() {
        // Hand-build a file whose single row group declares the wrong
        // column count: the reader must fail with a Schema error *without*
        // touching column bytes.
        let mut dict = DictBuilder::new();
        dict.intern("A");
        let mut zero = IdSet::default();
        zero.insert(0);
        let mut group = Vec::new();
        encode_group(1, &mut vec![zero; 4], &[vec![1, 2, 3]], &mut group);
        let mut out = Vec::new();
        let mut w = StoreWriter::new(&mut out, KIND_D2).unwrap();
        w.write_block(TAG_DICT, &dict.encode()).unwrap();
        w.write_block(TAG_ROWS, &group).unwrap();
        w.finish(1).unwrap();
        let got = D2::read_store(out.as_slice());
        match got {
            Err(MmError::Store(StoreError::Schema(msg))) => {
                assert!(msg.contains("columns"), "unexpected message: {msg}");
            }
            other => panic!("expected schema error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_vocabulary_is_a_schema_error() {
        // Hand-build a file whose dictionary holds a carrier code the
        // workspace does not know.
        let mut sample = small_d2().iter().next().unwrap();
        sample.round = 0;
        let d2 = D2::from_samples(vec![sample]);
        let mut buf = Vec::new();
        d2.write_store(&mut buf).unwrap();
        // The dictionary block is the first frame; its first entry is the
        // carrier code. Rewrite it through the framing layer to keep CRCs
        // valid.
        let mut reader = StoreReader::new(buf.as_slice(), KIND_D2).unwrap();
        let dict_block = reader.next_block().unwrap().unwrap();
        let mut rest = Vec::new();
        while let Some(b) = reader.next_block().unwrap() {
            rest.push(b);
        }
        let records = reader.records().unwrap();
        let mut dict = DictBuilder::new();
        dict.intern("ZZ-no-such-carrier");
        // Re-intern the remaining entries so only entry 0 changes.
        let old = Dict::decode(&dict_block.payload).unwrap();
        for i in 1..old.len() {
            dict.intern(old.get(i as u64).unwrap());
        }
        let mut out = Vec::new();
        let mut w = StoreWriter::new(&mut out, KIND_D2).unwrap();
        w.write_block(TAG_DICT, &dict.encode()).unwrap();
        for b in &rest {
            w.write_block(b.tag, &b.payload).unwrap();
        }
        w.finish(records).unwrap();
        assert!(matches!(
            D2::read_store(out.as_slice()),
            Err(MmError::Store(StoreError::Schema(_)))
        ));
    }
}
