//! Streaming aggregation kernels — the one-pass accumulators behind the
//! figure pipeline (DESIGN.md §10).
//!
//! Every diversity/dispersion statistic the figures need is computable from
//! a [`ValueCounts`]: a dictionary of half-grid value keys to occurrence
//! counts. Because D2 values live exactly on the 0.5 grid (enforced at
//! ingest, see [`crate::dataset::check_value`]), the key ↔ value mapping is
//! lossless and count-based arithmetic is *bit-identical* no matter what
//! order samples arrived in — the property that makes the streaming
//! columnar path byte-identical to the legacy materialized path.

use crate::dataset::value_key;
use crate::diversity::Diversity;
use std::collections::BTreeMap;

/// Below this |mean|, [`ValueCounts::cv`] treats the value set as
/// zero-mean and reports dispersion against [`CV_ZERO_MEAN_UNIT`] instead
/// of dividing by a vanishing mean (which used to collapse genuinely
/// diverse symmetric parameters like a3-Offset to Cv = 0).
pub const CV_MEAN_EPS: f64 = 1e-9;

/// The dispersion unit for zero-mean value sets: the half-grid step all D2
/// values are quantized to, so `Cv = σ / 0.5` reads as "spread in grid
/// steps".
pub const CV_ZERO_MEAN_UNIT: f64 = 0.5;

/// Occurrence counts of distinct half-grid values — the single arithmetic
/// kernel for Simpson index, coefficient of variation, and richness.
///
/// State is bounded by the number of *distinct* values, never by the
/// stream length.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValueCounts {
    counts: BTreeMap<i64, u64>,
    n: u64,
}

impl ValueCounts {
    /// Empty accumulator.
    pub fn new() -> ValueCounts {
        ValueCounts::default()
    }

    /// Count every value of a slice (the materialized path).
    pub fn from_values(values: &[f64]) -> ValueCounts {
        let mut vc = ValueCounts::new();
        for &v in values {
            vc.push(v);
        }
        vc
    }

    /// Count one value (keyed on the half grid).
    pub fn push(&mut self, v: f64) {
        self.push_key(value_key(v));
    }

    /// Count one pre-computed half-grid key.
    pub fn push_key(&mut self, key: i64) {
        *self.counts.entry(key).or_insert(0) += 1;
        self.n += 1;
    }

    /// Merge another accumulator in (counts add per key).
    pub fn merge(&mut self, other: &ValueCounts) {
        for (&k, &c) in &other.counts {
            *self.counts.entry(k).or_insert(0) += c;
        }
        self.n += other.n;
    }

    /// Total number of counted values.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Whether nothing was counted.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `(value, count)` pairs in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts.iter().map(|(&k, &c)| (k as f64 / 2.0, c))
    }

    /// Empirical Simpson index of diversity `D = 1 − Σᵢ nᵢ²/N²` (Eq. 4).
    pub fn simpson(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let sum_sq: f64 = self.counts.values().map(|&c| (c as f64).powi(2)).sum();
        1.0 - sum_sq / (self.n as f64).powi(2)
    }

    /// Weighted Welford mean and (population) variance over the sorted
    /// count map — one deterministic summation order for both the
    /// streaming and the materialized path.
    pub fn mean_var(&self) -> (f64, f64) {
        if self.n == 0 {
            return (0.0, 0.0);
        }
        let mut w_sum = 0.0;
        let mut mean = 0.0;
        let mut m2 = 0.0;
        for (&k, &c) in &self.counts {
            let v = k as f64 / 2.0;
            let w = c as f64;
            w_sum += w;
            let delta = v - mean;
            mean += (w / w_sum) * delta;
            m2 += w * delta * (v - mean);
        }
        (mean, (m2 / w_sum).max(0.0))
    }

    /// Coefficient of variation `Cv = σ/|µ|` (Eq. 4), with the documented
    /// zero-mean convention: for `|µ| <` [`CV_MEAN_EPS`] the dispersion is
    /// reported against [`CV_ZERO_MEAN_UNIT`] (σ in half-grid steps)
    /// rather than collapsing to 0 for symmetric offset parameters.
    pub fn cv(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let (mean, var) = self.mean_var();
        let sd = var.sqrt();
        if mean.abs() < CV_MEAN_EPS {
            if sd == 0.0 {
                0.0
            } else {
                sd / CV_ZERO_MEAN_UNIT
            }
        } else {
            sd / mean.abs()
        }
    }

    /// Number of distinct values.
    pub fn richness(&self) -> usize {
        self.counts.len()
    }

    /// All three diversity measures at once.
    pub fn diversity(&self) -> Diversity {
        Diversity {
            simpson: self.simpson(),
            cv: self.cv(),
            richness: self.richness(),
        }
    }

    /// Value distribution as `(value, %)`, ascending by value — Fig 14/15's
    /// rendering input.
    pub fn distribution(&self) -> Vec<(f64, f64)> {
        let n = self.n.max(1) as f64;
        self.iter()
            .map(|(v, c)| (v, 100.0 * c as f64 / n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diversity::{coefficient_of_variation, richness, simpson_index};
    use mm_rng::{stream_rng, Rng};

    #[test]
    fn counts_match_slice_kernels_on_seeded_data() {
        let mut rng = stream_rng(99, 1);
        let values: Vec<f64> = (0..500)
            .map(|_| f64::from(rng.gen_range(-6i32..=6)) / 2.0)
            .collect();
        let vc = ValueCounts::from_values(&values);
        assert_eq!(vc.n(), 500);
        assert_eq!(vc.simpson(), simpson_index(&values));
        assert_eq!(vc.cv(), coefficient_of_variation(&values));
        assert_eq!(vc.richness(), richness(&values));
    }

    #[test]
    fn merge_equals_concatenation() {
        let a = [1.0, 2.5, 2.5, -3.0];
        let b = [2.5, 4.0];
        let mut merged = ValueCounts::from_values(&a);
        merged.merge(&ValueCounts::from_values(&b));
        let mut all = a.to_vec();
        all.extend_from_slice(&b);
        assert_eq!(merged, ValueCounts::from_values(&all));
    }

    #[test]
    fn mean_var_matches_two_pass() {
        let values = [2.0, 4.0, 2.0, 4.0, 7.5];
        let vc = ValueCounts::from_values(&values);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
        let (m, v) = vc.mean_var();
        assert!((m - mean).abs() < 1e-12, "{m} vs {mean}");
        assert!((v - var).abs() < 1e-12, "{v} vs {var}");
    }

    #[test]
    fn cv_zero_mean_reports_sigma_in_grid_units() {
        // Symmetric ±3: mean 0, σ = 3 → Cv = 3 / 0.5 = 6.
        let vc = ValueCounts::from_values(&[-3.0, 3.0, -3.0, 3.0]);
        assert!((vc.cv() - 6.0).abs() < 1e-12, "{}", vc.cv());
        // All-zero set is genuinely uniform: Cv stays 0.
        assert_eq!(ValueCounts::from_values(&[0.0; 8]).cv(), 0.0);
        // Non-zero mean unaffected by the convention.
        let plain = ValueCounts::from_values(&[2.0, 4.0]);
        assert!((plain.cv() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distribution_is_sorted_and_sums_to_100() {
        let vc = ValueCounts::from_values(&[1.0, 1.0, 2.5, -0.5]);
        let dist = vc.distribution();
        assert_eq!(dist[0].0, -0.5);
        assert_eq!(dist.last().unwrap().0, 2.5);
        let total: f64 = dist.iter().map(|(_, p)| p).sum();
        assert!((total - 100.0).abs() < 1e-9);
        assert!(ValueCounts::new().distribution().is_empty());
    }
}
