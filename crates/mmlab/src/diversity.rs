//! Diversity and dependence metrics — the paper's Eq. (4) and Eq. (5).
//!
//! * **Simpson index of diversity** `D = 1 − Σᵢ nᵢ²/N²` quantifies how
//!   evenly a parameter's observed values are distributed.
//! * **Coefficient of variation** `Cv = σ/|µ|` quantifies dispersion over
//!   the value range (zero-mean sets report σ against the half-grid unit;
//!   see [`crate::agg::CV_ZERO_MEAN_UNIT`]).
//! * **Richness** is the plain number of distinct values.
//! * **Dependence** `ζ_{M,θ|F} = E[|M(θ|F=Fⱼ) − M(θ)|]` measures how much a
//!   factor (frequency, city, proximity) explains a parameter's diversity.
//!
//! All measures delegate to the count-based [`ValueCounts`] kernel, so the
//! slice-based (materialized) entry points below and the streaming
//! accumulators of `mmexperiments` produce bit-identical numbers.

use crate::agg::ValueCounts;
use mmcore::kernel::sum_f64;
use std::collections::BTreeMap;

/// The three diversity measures of one observed value set (Fig 16's rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Diversity {
    /// Simpson index `D ∈ [0, 1]`.
    pub simpson: f64,
    /// Coefficient of variation.
    pub cv: f64,
    /// Number of distinct values.
    pub richness: usize,
}

/// Empirical Simpson index of diversity (Eq. 4 left).
pub fn simpson_index(values: &[f64]) -> f64 {
    ValueCounts::from_values(values).simpson()
}

/// Empirical coefficient of variation (Eq. 4 right).
pub fn coefficient_of_variation(values: &[f64]) -> f64 {
    ValueCounts::from_values(values).cv()
}

/// Number of distinct values.
pub fn richness(values: &[f64]) -> usize {
    ValueCounts::from_values(values).richness()
}

/// All three measures at once.
pub fn diversity(values: &[f64]) -> Diversity {
    ValueCounts::from_values(values).diversity()
}

/// Which diversity measure a dependence computation conditions on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// Simpson index.
    Simpson,
    /// Coefficient of variation.
    Cv,
}

fn measure_counts(m: Measure, counts: &ValueCounts) -> f64 {
    match m {
        Measure::Simpson => counts.simpson(),
        Measure::Cv => counts.cv(),
    }
}

/// Dependence of a parameter on a grouping factor (Eq. 5), over value-count
/// accumulators: `ζ = Σⱼ wⱼ·|M(θ|F=Fⱼ) − M(θ)|`, with groups weighted by
/// their share of samples. This is the streaming-native form; the slice
/// form [`dependence`] converts and delegates here.
pub fn dependence_counts<K: Ord>(m: Measure, groups: &BTreeMap<K, ValueCounts>) -> f64 {
    let mut all = ValueCounts::new();
    for g in groups.values() {
        all.merge(g);
    }
    if all.is_empty() {
        return 0.0;
    }
    let m_all = measure_counts(m, &all);
    let n = all.n() as f64;
    sum_f64(
        groups
            .values()
            .map(|g| (g.n() as f64 / n) * (measure_counts(m, g) - m_all).abs()),
    )
}

/// Dependence of a parameter on a grouping factor (Eq. 5). High ζ means
/// the factor explains much of the diversity (e.g. priorities are strongly
/// frequency-dependent, Fig 19).
pub fn dependence<K: Ord + Clone>(m: Measure, groups: &BTreeMap<K, Vec<f64>>) -> f64 {
    let counts: BTreeMap<K, ValueCounts> = groups
        .iter()
        .map(|(k, vals)| (k.clone(), ValueCounts::from_values(vals)))
        .collect();
    dependence_counts(m, &counts)
}

/// Per-cell spatial diversity (§5.4.2): for each cell, the Simpson index of
/// the parameter over all cells within `radius_m` — the quantity whose
/// boxplots Fig 21 shows growing with the radius (and ≈ 0 for spatially
/// uniform carriers).
///
/// Implemented with a grid-bucketed spatial index (bucket side = radius, so
/// every disc is covered by the 3×3 neighborhood of its center's bucket):
/// near-linear in the cell count instead of the all-pairs O(n²) scan, with
/// the exact same `distance ≤ radius` membership predicate — and since the
/// Simpson index is computed from value *counts*, the visit order of
/// neighbors cannot change the result.
pub fn spatial_diversity(cells: &[(mmradio::geom::Point, f64)], radius_m: f64) -> Vec<f64> {
    let bucket = radius_m.max(1e-9);
    let key =
        |p: &mmradio::geom::Point| ((p.x / bucket).floor() as i64, (p.y / bucket).floor() as i64);
    let mut grid: BTreeMap<(i64, i64), Vec<usize>> = BTreeMap::new();
    for (i, (p, _)) in cells.iter().enumerate() {
        grid.entry(key(p)).or_default().push(i);
    }
    cells
        .iter()
        .map(|(center, _)| {
            let (bx, by) = key(center);
            let mut counts = ValueCounts::new();
            for dx in -1..=1i64 {
                for dy in -1..=1i64 {
                    let Some(bucket_members) = grid.get(&(bx + dx, by + dy)) else {
                        continue;
                    };
                    for &i in bucket_members {
                        if cells[i].0.distance(*center) <= radius_m {
                            counts.push(cells[i].1);
                        }
                    }
                }
            }
            counts.simpson()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmradio::geom::Point;

    #[test]
    fn simpson_of_constant_is_zero() {
        assert_eq!(simpson_index(&[4.0; 100]), 0.0);
        assert_eq!(simpson_index(&[]), 0.0);
    }

    #[test]
    fn simpson_of_even_split_is_half() {
        let vals: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { 2.0 })
            .collect();
        assert!((simpson_index(&vals) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn simpson_grows_with_evenness() {
        let skewed: Vec<f64> = (0..100).map(|i| if i < 90 { 1.0 } else { 2.0 }).collect();
        let even: Vec<f64> = (0..100).map(|i| f64::from(i % 10)).collect();
        assert!(simpson_index(&even) > simpson_index(&skewed));
    }

    #[test]
    fn cv_matches_hand_computation() {
        // Values 2 and 4 evenly: mean 3, sd 1 → 1/3.
        let vals = [2.0, 4.0, 2.0, 4.0];
        assert!((coefficient_of_variation(&vals) - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(coefficient_of_variation(&[5.0; 10]), 0.0);
    }

    #[test]
    fn cv_of_zero_mean_set_reports_dispersion_not_zero() {
        // The old kernel returned 0.0 here ("perfectly uniform") although
        // σ = 3 — wrong for symmetric offset parameters like a3-Offset.
        let vals = [-3.0, 3.0, -3.0, 3.0];
        let cv = coefficient_of_variation(&vals);
        assert!((cv - 6.0).abs() < 1e-9, "σ/0.5 = 6, got {cv}");
    }

    #[test]
    fn richness_counts_distinct() {
        assert_eq!(richness(&[1.0, 1.0, 2.0, 2.5, 2.5]), 3);
        assert_eq!(richness(&[]), 0);
    }

    #[test]
    fn dependence_zero_when_groups_identical() {
        let mut groups = BTreeMap::new();
        groups.insert(1, vec![1.0, 2.0, 1.0, 2.0]);
        groups.insert(2, vec![2.0, 1.0, 2.0, 1.0]);
        assert!(dependence(Measure::Simpson, &groups) < 1e-9);
    }

    #[test]
    fn dependence_high_when_factor_explains_everything() {
        // Each group single-valued, overall diverse → |0 − D_all| = D_all.
        let mut groups = BTreeMap::new();
        groups.insert(1, vec![1.0; 50]);
        groups.insert(2, vec![2.0; 50]);
        let z = dependence(Measure::Simpson, &groups);
        let all: Vec<f64> = groups.values().flatten().copied().collect();
        assert!((z - simpson_index(&all)).abs() < 1e-9);
        assert!(z > 0.4);
    }

    #[test]
    fn dependence_counts_equals_slice_dependence() {
        let mut groups = BTreeMap::new();
        groups.insert(1u32, vec![1.0, 2.0, 2.0, 3.5]);
        groups.insert(2, vec![2.0, 2.0]);
        groups.insert(3, vec![-1.0, 1.0, -1.0]);
        let counts: BTreeMap<u32, ValueCounts> = groups
            .iter()
            .map(|(k, v)| (*k, ValueCounts::from_values(v)))
            .collect();
        for m in [Measure::Simpson, Measure::Cv] {
            assert_eq!(dependence(m, &groups), dependence_counts(m, &counts));
        }
    }

    #[test]
    fn spatial_diversity_zero_for_uniform_field() {
        let cells: Vec<(Point, f64)> = (0..50)
            .map(|i| (Point::new(f64::from(i) * 100.0, 0.0), 3.0))
            .collect();
        let d = spatial_diversity(&cells, 500.0);
        assert!(d.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn spatial_diversity_grows_with_radius_for_mixed_field() {
        // Alternating values every 400 m: small radius sees one value,
        // large radius sees both.
        let cells: Vec<(Point, f64)> = (0..60)
            .map(|i| {
                let v = if (i / 4) % 2 == 0 { 1.0 } else { 2.0 };
                (Point::new(f64::from(i) * 100.0, 0.0), v)
            })
            .collect();
        let avg = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        let small = avg(spatial_diversity(&cells, 150.0));
        let large = avg(spatial_diversity(&cells, 2000.0));
        assert!(large > small, "{large} vs {small}");
    }

    /// Reference all-pairs implementation the grid index must match.
    fn spatial_diversity_naive(cells: &[(Point, f64)], radius_m: f64) -> Vec<f64> {
        cells
            .iter()
            .map(|(center, _)| {
                let cluster: Vec<f64> = cells
                    .iter()
                    .filter(|(p, _)| p.distance(*center) <= radius_m)
                    .map(|(_, v)| *v)
                    .collect();
                simpson_index(&cluster)
            })
            .collect()
    }

    #[test]
    fn grid_index_matches_all_pairs_scan_on_seeded_fields() {
        use mm_rng::{stream_rng, Rng};
        let mut rng = stream_rng(2018, 21);
        for trial in 0..4u64 {
            let n = 120 + trial as usize * 60;
            let cells: Vec<(Point, f64)> = (0..n)
                .map(|_| {
                    let p = Point::new(
                        rng.gen_range(-5_000.0..5_000.0),
                        rng.gen_range(-5_000.0..5_000.0),
                    );
                    (p, f64::from(rng.gen_range(1i32..=5)))
                })
                .collect();
            for radius in [250.0, 800.0, 2_500.0] {
                assert_eq!(
                    spatial_diversity(&cells, radius),
                    spatial_diversity_naive(&cells, radius),
                    "trial {trial} radius {radius}"
                );
            }
        }
    }
}
