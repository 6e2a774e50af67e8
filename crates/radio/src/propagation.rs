//! Propagation: log-distance path loss, spatially correlated shadowing, and
//! per-sample measurement noise.
//!
//! The paper leans on one physical fact — "3dB measurement dynamics is
//! common" (§4.1) — and otherwise only needs RSRP/RSRQ values with realistic
//! spatial structure so that reporting events and reselection rankings fire
//! the way they do in the wild. We use the classic log-distance model with a
//! frequency term, plus a Gudmundson-style correlated shadowing field
//! realized on a deterministic lattice (bilinearly interpolated), plus i.i.d.
//! fast measurement noise.

use crate::band::ChannelNumber;
use crate::geom::Point;
use crate::signal::{Dbm, Rsrp, Rsrq};

/// Deployment environment, controlling path-loss exponent and shadowing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Environment {
    /// Dense city core (Chicago-like): high exponent, strong shadowing.
    DenseUrban,
    /// Typical city (Indianapolis/Lafayette-like).
    Urban,
    /// Suburban fringe.
    Suburban,
    /// Open highway corridors.
    Highway,
}

impl Environment {
    /// Path-loss exponent `n` of the log-distance model.
    pub fn path_loss_exponent(self) -> f64 {
        match self {
            Environment::DenseUrban => 3.8,
            Environment::Urban => 3.5,
            Environment::Suburban => 3.2,
            Environment::Highway => 2.9,
        }
    }

    /// Lognormal shadowing standard deviation, dB.
    pub fn shadowing_sigma_db(self) -> f64 {
        match self {
            Environment::DenseUrban => 8.0,
            Environment::Urban => 7.0,
            Environment::Suburban => 6.0,
            Environment::Highway => 4.5,
        }
    }

    /// Shadowing decorrelation distance, meters (Gudmundson; macro-cell
    /// scales — the serving cell must plausibly stay the strongest for tens
    /// of seconds of driving, as real A5 traces show).
    pub fn decorrelation_distance_m(self) -> f64 {
        match self {
            Environment::DenseUrban => 70.0,
            Environment::Urban => 110.0,
            Environment::Suburban => 160.0,
            Environment::Highway => 250.0,
        }
    }
}

/// One instantaneous measurement of a cell as seen by a UE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioSample {
    /// Reference signal received power.
    pub rsrp: Rsrp,
    /// Reference signal received quality.
    pub rsrq: Rsrq,
}

/// The propagation model: deterministic given (seed, cell id, position).
#[derive(Debug, Clone, PartialEq)]
pub struct PropagationModel {
    /// Environment preset.
    pub environment: Environment,
    /// Master seed for the shadowing field.
    pub seed: u64,
    /// Std-dev of i.i.d. per-sample measurement noise, dB. The paper treats
    /// 3 dB swings as ordinary measurement dynamics.
    pub measurement_noise_db: f64,
    /// Reference path loss at 1 m for 1 GHz, dB.
    pub pl0_db: f64,
}

impl PropagationModel {
    /// A model with paper-calibrated defaults for the given environment.
    pub fn new(environment: Environment, seed: u64) -> Self {
        PropagationModel {
            environment,
            seed,
            measurement_noise_db: 1.5,
            pl0_db: 32.0,
        }
    }

    /// Median path loss in dB at distance `d` meters on channel `chan`.
    ///
    /// `PL = PL0 + 20·log10(f/1GHz) + 10·n·log10(max(d, 1))`
    pub fn path_loss_db(&self, d_m: f64, chan: ChannelNumber) -> f64 {
        self.path_loss_from(self.reference_loss_db(chan), d_m)
    }

    /// The distance-free part of [`PropagationModel::path_loss_db`],
    /// `PL0 + 20·log10(f/1GHz)`: one constant per channel, which a
    /// [`crate::Deployment`] derives once per cell.
    pub(crate) fn reference_loss_db(&self, chan: ChannelNumber) -> f64 {
        let f_ghz = chan.frequency_mhz().unwrap_or(1900.0) / 1000.0;
        self.pl0_db + 20.0 * f_ghz.max(0.1).log10()
    }

    /// [`PropagationModel::path_loss_db`] from its reference part: the
    /// formula's own left-to-right sum, so the result is bit-identical.
    pub(crate) fn path_loss_from(&self, reference_db: f64, d_m: f64) -> f64 {
        let n = self.environment.path_loss_exponent();
        reference_db + 10.0 * n * d_m.max(1.0).log10()
    }

    /// Correlated shadowing in dB for a cell at a UE position.
    ///
    /// A deterministic standard-normal lattice with spacing equal to the
    /// decorrelation distance is bilinearly interpolated; this yields a
    /// smooth field whose autocorrelation decays on roughly the configured
    /// scale, is independent across cells, and is reproducible from the
    /// seed alone.
    pub fn shadowing_db(&self, cell_label: u64, pos: Point) -> f64 {
        self.shadowing_at(self.shadowing_key(cell_label), &self.shadowing_point(pos))
    }

    /// The per-cell constant of [`PropagationModel::shadowing_db`]: the
    /// cell's lattice key `sub_seed(seed, cell_label)`. It does not depend
    /// on the position, so a [`crate::Deployment`] derives it once per cell.
    pub(crate) fn shadowing_key(&self, cell_label: u64) -> u64 {
        mm_rng::sub_seed(self.seed, cell_label)
    }

    /// The per-position part of [`PropagationModel::shadowing_db`]: which
    /// lattice square `pos` falls in and its interpolation weights. It is
    /// the same for every cell, so a UE measuring many cells at one
    /// position computes it once.
    pub fn shadowing_point(&self, pos: Point) -> ShadowingPoint {
        let dx = self.environment.decorrelation_distance_m();
        let gx = pos.x / dx;
        let gy = pos.y / dx;
        let ix = gx.floor() as i64;
        let iy = gy.floor() as i64;
        let fx = gx - gx.floor();
        let fy = gy - gy.floor();
        // Bilinear interpolation shrinks variance between lattice sites;
        // renormalize by the expected variance at the interpolation point so
        // sigma stays environment-accurate everywhere.
        let w00 = (1.0 - fx) * (1.0 - fy);
        let w10 = fx * (1.0 - fy);
        let w01 = (1.0 - fx) * fy;
        let w11 = fx * fy;
        let norm = (w00 * w00 + w10 * w10 + w01 * w01 + w11 * w11).sqrt();
        ShadowingPoint {
            x_labels: [ix as u64, (ix + 1) as u64].map(mm_rng::splitmix64),
            y_labels: [iy as u64, (iy + 1) as u64].map(mm_rng::splitmix64),
            fx,
            fy,
            norm: norm.max(1e-6),
        }
    }

    /// The per-cell part of [`PropagationModel::shadowing_db`]: the four
    /// lattice normals at `point` of the cell whose
    /// [`PropagationModel::shadowing_key`] is `key`, interpolated.
    pub(crate) fn shadowing_at(&self, key: u64, point: &ShadowingPoint) -> f64 {
        // `sub_seed(k, l) = splitmix64(k ^ splitmix64(l))`, so with the
        // cell key derived once per cell and the lattice labels mixed once
        // per position, each site hash below is exactly
        // `sub_seed3(seed, cell_label, ix, iy)`: 6 `splitmix64` per cell.
        let [kx0, kx1] = point.x_labels.map(|h| mm_rng::splitmix64(key ^ h));
        let [hy0, hy1] = point.y_labels;
        // Four calls, not a closure called four times: LLVM inlines these,
        // so the four independent normals overlap in the pipeline.
        let v00 = mm_rng::hash_normal(mm_rng::splitmix64(kx0 ^ hy0));
        let v10 = mm_rng::hash_normal(mm_rng::splitmix64(kx1 ^ hy0));
        let v01 = mm_rng::hash_normal(mm_rng::splitmix64(kx0 ^ hy1));
        let v11 = mm_rng::hash_normal(mm_rng::splitmix64(kx1 ^ hy1));
        let (fx, fy) = (point.fx, point.fy);
        let v0 = v00 + (v10 - v00) * fx;
        let v1 = v01 + (v11 - v01) * fx;
        let v = v0 + (v1 - v0) * fy;
        self.environment.shadowing_sigma_db() * v / point.norm
    }

    /// Median received power (no noise) for a transmitter of `tx_power_dbm`
    /// at distance `d_m` on channel `chan`, including the shadowing at
    /// `point`.
    pub fn received_power(
        &self,
        cell_label: u64,
        tx_power_dbm: Dbm,
        d_m: f64,
        chan: ChannelNumber,
        point: &ShadowingPoint,
    ) -> Dbm {
        let pl = self.path_loss_db(d_m, chan);
        let sh = self.shadowing_at(self.shadowing_key(cell_label), point);
        Dbm(tx_power_dbm.0 - pl + sh)
    }
}

/// The position-only part of the shadowing field at one point (see
/// [`PropagationModel::shadowing_point`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowingPoint {
    /// `splitmix64` of the lattice columns `ix` and `ix + 1`.
    x_labels: [u64; 2],
    /// `splitmix64` of the lattice rows `iy` and `iy + 1`.
    y_labels: [u64; 2],
    /// Fractional position inside the lattice square.
    fx: f64,
    fy: f64,
    /// Interpolation variance normalizer, floored at `1e-6`.
    norm: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::band::ChannelNumber;

    fn model() -> PropagationModel {
        PropagationModel::new(Environment::Urban, 77)
    }

    #[test]
    fn path_loss_grows_with_distance() {
        let m = model();
        let c = ChannelNumber::earfcn(850);
        let near = m.path_loss_db(100.0, c);
        let far = m.path_loss_db(1000.0, c);
        // 10·n per decade.
        assert!((far - near - 35.0).abs() < 0.5, "{near} {far}");
    }

    #[test]
    fn path_loss_grows_with_frequency() {
        let m = model();
        let low = m.path_loss_db(500.0, ChannelNumber::earfcn(5110)); // ~730 MHz
        let high = m.path_loss_db(500.0, ChannelNumber::earfcn(9820)); // ~2350 MHz
        assert!(high > low + 8.0, "{low} {high}");
    }

    #[test]
    fn shadowing_is_deterministic() {
        let m = model();
        let p = Point::new(123.4, -567.8);
        assert_eq!(m.shadowing_db(5, p), m.shadowing_db(5, p));
        assert_ne!(m.shadowing_db(5, p), m.shadowing_db(6, p));
    }

    #[test]
    fn shadowing_is_spatially_correlated() {
        let m = model();
        // 1 m apart: nearly equal. 10 decorrelation distances apart: free.
        let a = m.shadowing_db(3, Point::new(0.0, 0.0));
        let b = m.shadowing_db(3, Point::new(1.0, 0.0));
        assert!((a - b).abs() < 1.5, "near points differ: {a} vs {b}");
    }

    #[test]
    fn shadowing_sigma_is_approximately_environmental() {
        let m = model();
        let mut sum = 0.0;
        let mut sq = 0.0;
        let n = 4000;
        for i in 0..n {
            // Sample on a coarse grid (≫ decorrelation distance) so samples
            // are independent.
            let p = Point::new(f64::from(i) * 500.0, f64::from(i % 63) * 700.0);
            let s = m.shadowing_db(9, p);
            sum += s;
            sq += s * s;
        }
        let mean = sum / f64::from(n);
        let sd = (sq / f64::from(n) - mean * mean).sqrt();
        assert!(mean.abs() < 0.5, "mean {mean}");
        assert!((sd - 7.0).abs() < 0.7, "sd {sd}");
    }

    #[test]
    fn received_power_reasonable_at_cell_edge() {
        let m = model();
        let p = m.received_power(
            1,
            Dbm(46.0),
            800.0,
            ChannelNumber::earfcn(850),
            &m.shadowing_point(Point::new(800.0, 0.0)),
        );
        assert!((-135.0..-70.0).contains(&p.0), "{}", p.0);
    }

    /// The pre-split `shadowing_db`: four independent `lattice_normal`
    /// draws, interpolated.
    fn reference_shadowing_db(m: &PropagationModel, cell_label: u64, pos: Point) -> f64 {
        let dx = m.environment.decorrelation_distance_m();
        let gx = pos.x / dx;
        let gy = pos.y / dx;
        let ix = gx.floor() as i64;
        let iy = gy.floor() as i64;
        let fx = gx - gx.floor();
        let fy = gy - gy.floor();
        let v00 = mm_rng::lattice_normal(m.seed, cell_label, ix, iy);
        let v10 = mm_rng::lattice_normal(m.seed, cell_label, ix + 1, iy);
        let v01 = mm_rng::lattice_normal(m.seed, cell_label, ix, iy + 1);
        let v11 = mm_rng::lattice_normal(m.seed, cell_label, ix + 1, iy + 1);
        let v0 = v00 + (v10 - v00) * fx;
        let v1 = v01 + (v11 - v01) * fx;
        let v = v0 + (v1 - v0) * fy;
        let w00 = (1.0 - fx) * (1.0 - fy);
        let w10 = fx * (1.0 - fy);
        let w01 = (1.0 - fx) * fy;
        let w11 = fx * fy;
        let norm = (w00 * w00 + w10 * w10 + w01 * w01 + w11 * w11).sqrt();
        m.environment.shadowing_sigma_db() * v / norm.max(1e-6)
    }

    #[test]
    fn split_shadowing_is_bit_identical_to_four_lattice_normals() {
        use mm_rng::Rng;
        let mut rng = mm_rng::SmallRng::seed_from_u64(0x5ad0);
        let envs = [
            Environment::DenseUrban,
            Environment::Urban,
            Environment::Suburban,
            Environment::Highway,
        ];
        for (k, env) in envs.into_iter().enumerate() {
            let m = PropagationModel::new(env, 1000 + k as u64);
            let dx = env.decorrelation_distance_m();
            let mut points: Vec<Point> = (0..200)
                .map(|_| {
                    Point::new(
                        rng.gen_range(-25_000.0..25_000.0),
                        rng.gen_range(-25_000.0..25_000.0),
                    )
                })
                .collect();
            // Exact lattice lines and corners, on both sides of the origin.
            for i in [-3.0, -1.0, 0.0, 1.0, 7.0] {
                points.push(Point::new(i * dx, 0.5 * dx));
                points.push(Point::new(-0.25 * dx, i * dx));
                points.push(Point::new(i * dx, -i * dx));
            }
            for pos in points {
                for label in [0u64, 1, 77, u64::from(u32::MAX)] {
                    let got = m.shadowing_db(label, pos);
                    let want = reference_shadowing_db(&m, label, pos);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{env:?} cell {label} at {pos:?}: {got} vs {want}"
                    );
                }
            }
        }
    }

    /// The pre-split `path_loss_db`: one expression, band lookup included.
    fn reference_path_loss_db(m: &PropagationModel, d_m: f64, chan: ChannelNumber) -> f64 {
        let f_ghz = chan.frequency_mhz().unwrap_or(1900.0) / 1000.0;
        let n = m.environment.path_loss_exponent();
        m.pl0_db + 20.0 * f_ghz.max(0.1).log10() + 10.0 * n * d_m.max(1.0).log10()
    }

    #[test]
    fn split_path_loss_is_bit_identical_to_the_single_expression() {
        use crate::band::Rat;
        use mm_rng::Rng;
        let mut rng = mm_rng::SmallRng::seed_from_u64(0x9a7);
        // Per RAT: numbers in and out of its known bands (an EARFCN in no
        // band falls back to 1900 MHz; UARFCN 5 is below the 0.1 GHz floor).
        let numbers: [(Rat, &[u32]); 5] = [
            (Rat::Lte, &[0, 850, 1975, 5110, 9820, 66_786, 1_000_000]),
            (Rat::Umts, &[5, 412, 4435, 10_700]),
            (Rat::Gsm, &[0, 124, 512, 885, 2_000]),
            (Rat::Evdo, &[1, 799, 800, 2_399]),
            (Rat::Cdma1x, &[1, 283, 1_200, 4_000]),
        ];
        assert!(Rat::ALL.iter().all(|r| numbers.iter().any(|(n, _)| n == r)));
        let mut distances = vec![0.0, 0.5, 1.0, 1.5, 15_000.0, 40_000.0];
        distances.extend((0..50).map(|_| rng.gen_range(1.0..20_000.0)));
        for env in [
            Environment::DenseUrban,
            Environment::Urban,
            Environment::Suburban,
            Environment::Highway,
        ] {
            let m = PropagationModel::new(env, 5);
            for &(rat, nums) in &numbers {
                for &number in nums {
                    let chan = ChannelNumber { rat, number };
                    let reference_db = m.reference_loss_db(chan);
                    for &d in &distances {
                        let want = reference_path_loss_db(&m, d, chan);
                        assert_eq!(
                            m.path_loss_from(reference_db, d).to_bits(),
                            want.to_bits(),
                            "{env:?} {chan:?} at {d} m"
                        );
                        assert_eq!(m.path_loss_db(d, chan).to_bits(), want.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn environments_are_ordered_by_harshness() {
        assert!(
            Environment::DenseUrban.path_loss_exponent()
                > Environment::Highway.path_loss_exponent()
        );
        assert!(
            Environment::DenseUrban.shadowing_sigma_db()
                > Environment::Highway.shadowing_sigma_db()
        );
        assert!(
            Environment::DenseUrban.decorrelation_distance_m()
                < Environment::Highway.decorrelation_distance_m()
        );
    }
}
