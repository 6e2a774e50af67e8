//! Datasets D1 and D2.
//!
//! * **D1** — handoff instances collected in Type-II (performance) runs:
//!   the paper's 14,510 active + 4,263 idle 4G→4G handoffs.
//! * **D2** — configuration samples collected in Type-I (crawl) runs: the
//!   paper's 7,996,149 samples from 32,033 cells, each sample being one
//!   `(cell, round, parameter, value)` observation with its location and
//!   frequency context.
//!
//! Configurations change rarely, so most of D2's samples repeat the same
//! cell's previous round. D2 holds them as the crawl yields them: runs of
//! rows, each stored once with the ascending rounds that saw it. Only
//! [`D2::iter`] and the store writer expand the runs, one sample or one
//! row group at a time.

use crate::predicate::Predicate;
use mmcarriers::city::City;
use mmcore::error::MmError;
use mmnetsim::run::HandoffRecord;
use mmradio::band::{ChannelNumber, Rat};
use mmradio::cell::CellId;
use mmradio::geom::Point;
use std::collections::BTreeSet;

/// One configuration observation (a D2 row).
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigSample {
    /// Observed cell.
    pub cell: CellId,
    /// Carrier code.
    pub carrier: &'static str,
    /// City ("C1".."C5" or a country-level region).
    pub city: City,
    /// The cell's RAT.
    pub rat: Rat,
    /// The channel the parameter pertains to (the serving channel for SIB3
    /// parameters, the *neighbour layer's* channel for SIB5/6/7/8 entries —
    /// this is what Fig 18's bottom panel plots).
    pub channel: ChannelNumber,
    /// Cell position (world frame), for spatial analysis.
    pub pos: Point,
    /// Crawl round the sample was taken in.
    pub round: u32,
    /// Canonical parameter name (matches `mmcore::params`).
    pub param: &'static str,
    /// Observed value (dB/dBm/ms/s/index, per the parameter).
    pub value: f64,
}

/// Dataset D2: configuration samples.
///
/// The sample store is private: all access goes through the typed query
/// accessors ([`iter`](D2::iter), [`len`](D2::len), …), so the figure code
/// sees samples in crawl order and never the runs behind them. Two
/// datasets are equal when they expand to the same samples, however their
/// rows are grouped into runs.
#[derive(Debug, Clone, Default)]
pub struct D2 {
    /// Segments in crawl order: one per crawl shard, or one holding
    /// every sample of a dataset built from a sample list.
    segments: Vec<Segment>,
}

/// One segment of D2: runs of rows in crawl order. A run stands for the
/// same rows observed at each of its rounds; the crawler makes one per
/// run of a cell's rounds that see the same broadcast.
#[derive(Debug, Clone, Default)]
pub(crate) struct Segment {
    /// The runs' rows, run after run, as observed at each run's first
    /// round.
    pub(crate) rows: Vec<ConfigSample>,
    /// The runs' rounds, run after run, each run's ascending.
    pub(crate) rounds: Vec<u32>,
    /// Per run, in crawl order: how many of `rows` and of `rounds` it owns.
    pub(crate) runs: Vec<(usize, usize)>,
}

impl Segment {
    /// Samples the segment expands to: each run's rows at each of its
    /// rounds.
    pub(crate) fn samples(&self) -> usize {
        self.runs.iter().map(|&(rows, rounds)| rows * rounds).sum()
    }

    /// Each run's rows and rounds, in crawl order.
    fn runs(&self) -> impl Iterator<Item = (&[ConfigSample], &[u32])> {
        let (mut rows, mut rounds) = (&self.rows[..], &self.rounds[..]);
        self.runs.iter().map(move |&(n_rows, n_rounds)| {
            let (run_rows, rest) = rows.split_at(n_rows);
            rows = rest;
            let (run_rounds, rest) = rounds.split_at(n_rounds);
            rounds = rest;
            (run_rows, run_rounds)
        })
    }
}

/// Largest |value| the D2 ingest contract admits: `2^51`, the magnitude up
/// to which every half-grid value `k/2` is exactly representable as an f64
/// **and** `value_key` round-trips losslessly (`key as f64 / 2.0 == value`).
/// Real parameter values (dB offsets, dBm thresholds, ms timers, priority
/// indices) are all far below this.
pub const MAX_ABS_VALUE: f64 = (1u64 << 51) as f64;

/// Validate one value against the D2 ingest contract: finite, magnitude at
/// most [`MAX_ABS_VALUE`], and exactly on the half-unit grid.
///
/// `value_key` alone would silently map NaN to key 0 (colliding with value
/// 0.0) and saturate on huge magnitudes — rejecting such rows at ingest
/// with a typed error keeps every downstream count-keyed aggregate honest.
pub fn check_value(v: f64) -> Result<(), MmError> {
    if !v.is_finite() {
        return Err(MmError::Dataset(format!("non-finite value {v}")));
    }
    if v.abs() > MAX_ABS_VALUE {
        return Err(MmError::Dataset(format!(
            "value {v} exceeds the exact half-grid range (|v| <= {MAX_ABS_VALUE})"
        )));
    }
    if (v * 2.0).fract() != 0.0 {
        return Err(MmError::Dataset(format!(
            "value {v} is not on the half-unit grid"
        )));
    }
    Ok(())
}

/// Value key on the half-unit grid (exact grouping for f64 values that all
/// live on 0.5 steps). For values admitted by [`check_value`] the mapping
/// is lossless: `value_key(v) as f64 / 2.0 == v`, which is what lets the
/// streaming accumulators reconstruct values from keys bit-exactly.
pub fn value_key(v: f64) -> i64 {
    (v * 2.0).round() as i64
}

impl ConfigSample {
    /// Validate this row's value against the D2 ingest contract
    /// ([`check_value`]), contextualizing the error with the row identity.
    pub fn check(&self) -> Result<(), MmError> {
        check_value(self.value).map_err(|e| match e {
            MmError::Dataset(msg) => MmError::Dataset(format!(
                "cell {} param {:?}: {msg}",
                self.cell.0, self.param
            )),
            other => other,
        })
    }
}

impl D2 {
    /// Build a dataset from samples in crawl order. Each run of
    /// consecutive samples of one round is stored as a one-round run.
    pub fn from_samples(samples: Vec<ConfigSample>) -> D2 {
        let mut segment = Segment::default();
        for run in samples.chunk_by(|a, b| a.round == b.round) {
            segment.rounds.push(run[0].round);
            segment.runs.push((run.len(), 1));
        }
        segment.rows = samples;
        D2::from_segments(vec![segment])
    }

    /// Build a dataset from samples in crawl order, validating every row
    /// against the ingest contract ([`ConfigSample::check`]).
    pub fn try_from_samples(samples: Vec<ConfigSample>) -> Result<D2, MmError> {
        for s in &samples {
            s.check()?;
        }
        Ok(D2::from_samples(samples))
    }

    /// The dataset of `segments`, in order.
    pub(crate) fn from_segments(segments: Vec<Segment>) -> D2 {
        D2 { segments }
    }

    /// All samples, in crawl order: each run's rows at each of its rounds,
    /// with `round` restamped.
    pub fn iter(&self) -> impl Iterator<Item = ConfigSample> + '_ {
        self.runs().flat_map(|(rows, rounds)| {
            rounds.iter().flat_map(move |&round| {
                rows.iter()
                    .map(move |s| ConfigSample { round, ..s.clone() })
            })
        })
    }

    /// Each run's rows and rounds, in crawl order.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (&[ConfigSample], &[u32])> {
        self.segments.iter().flat_map(Segment::runs)
    }

    /// Every run's rows once, in crawl order. They meet every cell,
    /// carrier, parameter and string in the order the samples first do.
    pub(crate) fn distinct_rows(&self) -> impl Iterator<Item = &ConfigSample> {
        self.segments.iter().flat_map(|s| s.rows.iter())
    }

    /// Number of samples (the paper's 7,996,149-scale count).
    pub fn len(&self) -> usize {
        self.segments.iter().map(Segment::samples).sum()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of unique cells observed.
    pub fn unique_cells(&self) -> usize {
        self.distinct_rows()
            .map(|s| s.cell)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Unique `(cell, value)` observations of one parameter for one carrier
    /// — §5.1: *"we consider unique samples, so as not to tip distributions
    /// in favor of cells with many same samples"*.
    pub fn unique_values(&self, carrier: &str, rat: Rat, param: &str) -> Vec<f64> {
        let mut seen: BTreeSet<(CellId, i64)> = BTreeSet::new();
        let mut out = Vec::new();
        for s in self.distinct_rows() {
            if s.carrier != carrier || s.rat != rat || s.param != param {
                continue;
            }
            if seen.insert((s.cell, value_key(s.value))) {
                out.push(s.value);
            }
        }
        out
    }

    /// Distinct parameter names present for `(carrier, rat)`.
    pub fn param_names(&self, carrier: &str, rat: Rat) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self
            .distinct_rows()
            .filter(|s| s.carrier == carrier && s.rat == rat)
            .map(|s| s.param)
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Samples per cell for one parameter (Fig 13a's histogram input).
    pub fn samples_per_cell(&self, param: &str) -> Vec<usize> {
        let mut counts: std::collections::BTreeMap<CellId, usize> = Default::default();
        for s in self.iter() {
            if s.param == param {
                *counts.entry(s.cell).or_default() += 1;
            }
        }
        counts.into_values().collect()
    }

    /// Carrier codes present.
    pub fn carriers(&self) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = self.distinct_rows().map(|s| s.carrier).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

impl PartialEq for D2 {
    fn eq(&self, other: &D2) -> bool {
        self.iter().eq(other.iter())
    }
}

/// One D1 row: a handoff instance tagged with its campaign context.
#[derive(Debug, Clone, PartialEq)]
pub struct HandoffInstance {
    /// Carrier code.
    pub carrier: &'static str,
    /// City the drive took place in.
    pub city: City,
    /// The record from the drive runner.
    pub record: HandoffRecord,
}

/// Dataset D1: handoff instances.
///
/// Like [`D2`], the instance store is private behind typed accessors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct D1 {
    /// All instances.
    instances: Vec<HandoffInstance>,
}

impl D1 {
    /// Build a dataset from instances in campaign order.
    pub fn from_instances(instances: Vec<HandoffInstance>) -> D1 {
        D1 { instances }
    }

    /// Append a batch of instances (one drive's output).
    pub fn append(&mut self, instances: Vec<HandoffInstance>) {
        self.instances.extend(instances);
    }

    /// All handoff instances, in campaign order.
    pub fn iter_handoffs(&self) -> std::slice::Iter<'_, HandoffInstance> {
        self.instances.iter()
    }

    /// Number of handoff instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// The filtered view: instances matching a [`Predicate`] (carrier and
    /// city constraints; D1 rows have no parameter/RAT/round fields).
    pub fn filter<'a>(
        &'a self,
        pred: &'a Predicate,
    ) -> impl Iterator<Item = &'a HandoffInstance> + 'a {
        self.instances.iter().filter(move |i| pred.matches(*i))
    }

    /// Merge another dataset in.
    pub fn extend(&mut self, other: D1) {
        self.instances.extend(other.instances);
    }
}

impl<'a> IntoIterator for &'a D1 {
    type Item = &'a HandoffInstance;
    type IntoIter = std::slice::Iter<'a, HandoffInstance>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_handoffs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cell: u32, param: &'static str, value: f64, round: u32) -> ConfigSample {
        ConfigSample {
            cell: CellId(cell),
            carrier: "A",
            city: City::C1,
            rat: Rat::Lte,
            channel: ChannelNumber::earfcn(850),
            pos: Point::new(0.0, 0.0),
            round,
            param,
            value,
        }
    }

    #[test]
    fn unique_values_dedupe_per_cell() {
        let d2 = D2::from_samples(vec![
            sample(1, "q-Hyst", 4.0, 0),
            sample(1, "q-Hyst", 4.0, 1), // same cell same value: dropped
            sample(1, "q-Hyst", 6.0, 2), // same cell new value: kept
            sample(2, "q-Hyst", 4.0, 0), // other cell: kept
        ]);
        let mut vals = d2.unique_values("A", Rat::Lte, "q-Hyst");
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(vals, vec![4.0, 4.0, 6.0]);
    }

    #[test]
    fn unique_cells_counts_distinct() {
        let d2 = D2::from_samples(vec![
            sample(1, "q-Hyst", 4.0, 0),
            sample(1, "p", 1.0, 0),
            sample(2, "p", 1.0, 0),
        ]);
        assert_eq!(d2.unique_cells(), 2);
    }

    #[test]
    fn samples_per_cell_histogram() {
        let d2 = D2::from_samples(vec![
            sample(1, "q-Hyst", 4.0, 0),
            sample(1, "q-Hyst", 4.0, 1),
            sample(2, "q-Hyst", 4.0, 0),
        ]);
        let mut counts = d2.samples_per_cell("q-Hyst");
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 2]);
    }

    fn instance(carrier: &'static str, city: City) -> HandoffInstance {
        use mmnetsim::run::{HandoffKind, HandoffRecord};
        HandoffInstance {
            carrier,
            city,
            record: HandoffRecord {
                t_ms: 1000,
                from: CellId(1),
                to: CellId(2),
                kind: HandoffKind::Idle {
                    relation: mmcore::reselect::PriorityRelation::IntraFreq,
                },
                rsrp_old_dbm: -100.0,
                rsrp_new_dbm: -95.0,
                rsrq_old_db: -12.0,
                rsrq_new_db: -10.0,
                min_thpt_before_bps: None,
            },
        }
    }

    #[test]
    fn d2_expands_its_runs_in_crawl_order_however_they_are_grouped() {
        // Cell 1's two rows seen at rounds 0 and 3, then a new value at
        // round 5; cell 2 once, in a second segment.
        let runs = D2::from_segments(vec![
            Segment {
                rows: vec![
                    sample(1, "q-Hyst", 4.0, 0),
                    sample(1, "p", 1.0, 0),
                    sample(1, "q-Hyst", 6.0, 5),
                ],
                rounds: vec![0, 3, 5],
                runs: vec![(2, 2), (1, 1)],
            },
            Segment {
                rows: vec![sample(2, "p", 1.0, 0)],
                rounds: vec![0],
                runs: vec![(1, 1)],
            },
        ]);
        let flat = vec![
            sample(1, "q-Hyst", 4.0, 0),
            sample(1, "p", 1.0, 0),
            sample(1, "q-Hyst", 4.0, 3),
            sample(1, "p", 1.0, 3),
            sample(1, "q-Hyst", 6.0, 5),
            sample(2, "p", 1.0, 0),
        ];
        assert_eq!(runs.iter().collect::<Vec<_>>(), flat);
        assert_eq!(runs.len(), 6);
        assert_eq!(runs.samples_per_cell("q-Hyst"), vec![3]);
        // A sample list keeps each stretch of one round as a one-round run.
        let copy = D2::from_samples(flat.clone());
        assert_eq!(copy.segments[0].runs, vec![(2, 1), (2, 1), (1, 1), (1, 1)]);
        assert_eq!(copy, runs);
        let mut moved = flat;
        moved[3].round = 4;
        assert_ne!(D2::from_samples(moved), runs);
    }

    #[test]
    fn d1_typed_accessors_filter_and_append() {
        let mut d1 = D1::from_instances(vec![instance("A", City::C1), instance("T", City::C3)]);
        d1.append(vec![instance("A", City::C3), instance("V", City::C5)]);
        assert_eq!(d1.len(), 4);
        assert_eq!(d1.filter(&Predicate::any().carrier("A")).count(), 2);
        assert_eq!(d1.filter(&Predicate::any().city(City::C3)).count(), 2);
        assert_eq!(
            d1.filter(&Predicate::any().carrier("A").city(City::C3))
                .count(),
            1
        );
        assert_eq!(d1.iter_handoffs().count(), 4);
        d1.extend(D1::from_instances(vec![instance("T", City::C1)]));
        assert_eq!((&d1).into_iter().count(), 5);
    }

    #[test]
    fn value_key_groups_half_grid() {
        assert_eq!(value_key(4.0), 8);
        assert_eq!(value_key(4.5), 9);
        assert_ne!(value_key(4.0), value_key(4.5));
        assert_eq!(value_key(-122.0), value_key(-122.0));
    }

    #[test]
    fn check_value_rejects_the_f64_edge_cases() {
        for bad in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            MAX_ABS_VALUE * 2.0,
            -MAX_ABS_VALUE * 2.0,
            0.25, // off-grid
            -3.1, // off-grid
            f64::MIN_POSITIVE,
            f64::EPSILON,
        ] {
            assert!(check_value(bad).is_err(), "{bad} must be rejected");
        }
        for good in [0.0, -0.0, 0.5, -0.5, 4.0, -122.0, 637.5, MAX_ABS_VALUE] {
            assert!(check_value(good).is_ok(), "{good} must be admitted");
        }
        // NaN would otherwise collide with value 0.0 under value_key:
        assert_eq!(value_key(f64::NAN), value_key(0.0));
        assert!(check_value(f64::NAN).is_err());
    }

    #[test]
    fn check_value_admits_exactly_the_lossless_keys_on_seeded_values() {
        use mm_rng::{stream_rng, Rng};
        let mut rng = stream_rng(2018, 42);
        for _ in 0..2_000 {
            // Mix of on-grid values, off-grid perturbations, and wild
            // magnitudes built from random bit patterns.
            let v = match rng.gen_range(0u32..4) {
                0 => f64::from(rng.gen_range(-20_000i32..=20_000)) / 2.0,
                1 => f64::from(rng.gen_range(-20_000i32..=20_000)) / 2.0 + 0.125,
                2 => f64::from_bits(rng.gen::<u64>()),
                _ => {
                    let exp = rng.gen_range(40i32..70);
                    f64::from(rng.gen_range(1i32..=3)) * (2.0f64).powi(exp)
                }
            };
            match check_value(v) {
                // Admitted ⇒ the key round-trips losslessly.
                Ok(()) => {
                    assert_eq!(value_key(v) as f64 / 2.0, v, "lossless round-trip for {v}");
                }
                // Rejected ⇒ genuinely outside the contract.
                Err(_) => {
                    assert!(
                        !v.is_finite() || v.abs() > MAX_ABS_VALUE || (v * 2.0).fract() != 0.0,
                        "spurious rejection of {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn try_from_samples_enforces_the_contract() {
        let good = vec![sample(1, "q-Hyst", 4.0, 0), sample(2, "q-Hyst", -3.5, 0)];
        assert!(D2::try_from_samples(good).is_ok());
        let bad = vec![
            sample(1, "q-Hyst", 4.0, 0),
            sample(7, "q-Hyst", f64::NAN, 0),
        ];
        let err = D2::try_from_samples(bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("cell 7"), "{msg}");
        assert!(msg.contains("q-Hyst"), "{msg}");
        assert_eq!(err.exit_code(), 3);
    }
}
