//! Legacy-RAT (UMTS / GSM / EVDO / CDMA1x) configuration generation.
//!
//! The paper's Fig 22 compares the *diversity* of handoff parameters across
//! RAT generations: LTE and WCDMA are richly diverse (LTE inherited UMTS's
//! parameter design), while EVDO, CDMA1x and GSM run essentially static,
//! single-valued configurations. We reproduce exactly that statistical
//! structure: each legacy parameter gets a per-carrier categorical whose
//! richness and skew depend on the RAT's diversity class.

use crate::dist::Categorical;
use mm_rng::{stream_rng, sub_seed3, Rng};
use mmcore::params::{params_for, ParamSpec};
use mmradio::band::Rat;

/// How diverse a RAT's configuration practice is (Fig 22).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiversityClass {
    /// Rich: many values, skewed (LTE, WCDMA).
    Rich,
    /// Mostly single dominant value (EVDO).
    Low,
    /// Essentially static (GSM, CDMA1x).
    Static,
}

/// The diversity class of a RAT per the paper's Fig 22 / §5.5.
pub fn diversity_class(rat: Rat) -> DiversityClass {
    match rat {
        Rat::Lte | Rat::Umts => DiversityClass::Rich,
        Rat::Evdo => DiversityClass::Low,
        Rat::Gsm | Rat::Cdma1x => DiversityClass::Static,
    }
}

/// A plausible base value for a parameter given its unit, derived
/// deterministically from the parameter name.
fn base_value(spec: &ParamSpec, h: u64) -> f64 {
    let r = (h % 1000) as f64 / 1000.0;
    match spec.unit {
        "dB" => (r * 16.0).round(),
        "dBm" => -120.0 + (r * 30.0).round(),
        "ms" => (100.0 + r * 900.0).round(),
        "s" => (1.0 + r * 7.0).round(),
        "chips" => (20.0 + r * 100.0).round(),
        _ => (r * 7.0).round(),
    }
}

/// The per-carrier value distribution of one legacy parameter.
///
/// Deterministic in `(world_seed, carrier, rat, param)` so every crawl of
/// the same world sees the same network.
pub fn param_distribution(
    world_seed: u64,
    carrier_code: &str,
    spec: &ParamSpec,
) -> Categorical<f64> {
    let carrier_hash = carrier_code
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
    let param_hash = spec
        .name
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
    let seed = sub_seed3(world_seed, carrier_hash, param_hash, spec.rat as u64);
    let mut rng = stream_rng(seed, 4);
    let base = base_value(spec, seed);
    let step = if spec.unit == "ms" { 20.0 } else { 2.0 };

    // SK-style carriers are single-valued even on 3G.
    let class = if carrier_code == "SK" {
        DiversityClass::Static
    } else {
        diversity_class(spec.rat)
    };
    match class {
        DiversityClass::Static => Categorical::single(base),
        DiversityClass::Low => {
            // 70% of parameters single-valued; the rest one alternative.
            if rng.gen::<f64>() < 0.7 {
                Categorical::single(base)
            } else {
                Categorical::new(vec![(base, 0.93), (base + step, 0.07)])
            }
        }
        DiversityClass::Rich => {
            let n = rng.gen_range(3..=8);
            let mut pairs = vec![(base, 1.0)];
            for i in 1..n {
                let v = base + step * i as f64 * if i % 2 == 0 { 1.0 } else { -1.0 };
                pairs.push((v, (0.5f64).powi(i) + 0.02));
            }
            Categorical::new(pairs)
        }
    }
}

/// Sample the full legacy parameter vector of one cell.
pub fn sample_cell_params(
    world_seed: u64,
    carrier_code: &str,
    rat: Rat,
    cell_label: u64,
) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    for spec in params_for(rat) {
        let dist = param_distribution(world_seed, carrier_code, spec);
        let mut rng = stream_rng(sub_seed3(world_seed, cell_label, spec.rat as u64, 5), 6);
        // Advance by a per-param offset so parameters of one cell are not
        // perfectly correlated.
        let skip = spec.name.len() % 7;
        for _ in 0..skip {
            let _: f64 = rng.gen();
        }
        out.push((spec.name, dist.sample(&mut rng)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_assignment_matches_fig22() {
        assert_eq!(diversity_class(Rat::Lte), DiversityClass::Rich);
        assert_eq!(diversity_class(Rat::Umts), DiversityClass::Rich);
        assert_eq!(diversity_class(Rat::Evdo), DiversityClass::Low);
        assert_eq!(diversity_class(Rat::Gsm), DiversityClass::Static);
        assert_eq!(diversity_class(Rat::Cdma1x), DiversityClass::Static);
    }

    #[test]
    fn umts_distributions_are_richer_than_gsm() {
        let umts_avg: f64 = params_for(Rat::Umts)
            .iter()
            .map(|s| param_distribution(1, "A", s).simpson_index())
            .sum::<f64>()
            / params_for(Rat::Umts).len() as f64;
        let gsm_avg: f64 = params_for(Rat::Gsm)
            .iter()
            .map(|s| param_distribution(1, "A", s).simpson_index())
            .sum::<f64>()
            / params_for(Rat::Gsm).len() as f64;
        assert!(umts_avg > 0.2, "UMTS mean D = {umts_avg}");
        assert_eq!(gsm_avg, 0.0, "GSM is static");
    }

    #[test]
    fn evdo_is_low_but_not_always_zero() {
        let ds: Vec<f64> = params_for(Rat::Evdo)
            .iter()
            .map(|s| param_distribution(1, "V", s).simpson_index())
            .collect();
        let mean = ds.iter().sum::<f64>() / ds.len() as f64;
        assert!(mean < 0.1, "EVDO mean D = {mean}");
    }

    #[test]
    fn sk_is_static_even_on_umts() {
        for s in params_for(Rat::Umts) {
            assert_eq!(param_distribution(1, "SK", s).richness(), 1, "{}", s.name);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_cell() {
        let a = sample_cell_params(1, "V", Rat::Evdo, 99);
        let b = sample_cell_params(1, "V", Rat::Evdo, 99);
        assert_eq!(a, b);
        assert_eq!(a.len(), 14, "EVDO has 14 parameters");
    }

    #[test]
    fn different_cells_vary_on_rich_rats() {
        let mut distinct = 0;
        for i in 0..30u64 {
            let a = sample_cell_params(1, "A", Rat::Umts, i);
            let b = sample_cell_params(1, "A", Rat::Umts, i + 1000);
            if a != b {
                distinct += 1;
            }
        }
        assert!(distinct > 15, "{distinct}");
    }

    #[test]
    fn param_counts_match_table_4() {
        assert_eq!(sample_cell_params(1, "A", Rat::Umts, 0).len(), 64);
        assert_eq!(sample_cell_params(1, "A", Rat::Gsm, 0).len(), 9);
        assert_eq!(sample_cell_params(1, "V", Rat::Cdma1x, 0).len(), 4);
    }
}
