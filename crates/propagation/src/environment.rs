//! Propagation environments: anechoic vs laboratory multipath.
//!
//! The paper runs its controlled experiments inside absorber material
//! ("to avoid background multipath effects") and then deliberately
//! repeats the capacity study in a rich laboratory (Figure 19) where
//! omni endpoints lose the surface's benefit below ≈2 mW transmit power.
//! We model the difference as a set of deterministic, seeded scatter
//! paths: each scatterer contributes a Rayleigh-amplitude, randomly
//! polarized arrival, independent of the engineered paths.

use rand::Rng;
use rfmath::complex::Complex;
use rfmath::jones::JonesMatrix;
use rfmath::matrix::Mat2;
use rfmath::rng::SeedSplitter;
use rfmath::units::{Hertz, Meters};

use crate::rays::Path;

/// Environment classes from the paper's evaluation.
#[derive(Clone, Debug, PartialEq)]
pub enum Environment {
    /// Absorber-lined test volume: only engineered paths survive.
    Anechoic,
    /// Indoor laboratory: engineered paths plus seeded scatterers.
    Laboratory {
        /// Deterministic seed for the scatter realization.
        seed: u64,
        /// Number of discrete scatter paths.
        scatterers: usize,
        /// Total scattered power relative to a free-space path of the
        /// same endpoint separation (linear; e.g. 0.5 = −3 dB).
        relative_power: f64,
    },
}

/// One scatterer's random realization, decoupled from endpoint
/// geometry: the raw Gaussian tap normals, the excess wander length,
/// and the polarization mix. See [`Environment::scatter_draws`].
#[derive(Clone, Copy, Debug)]
pub struct ScatterDraw {
    n1: f64,
    n2: f64,
    excess: f64,
    jones: JonesMatrix,
}

impl Environment {
    /// The paper's absorber-covered test area.
    pub fn anechoic() -> Self {
        Environment::Anechoic
    }

    /// A representative busy laboratory (the Figure 19 environment).
    pub fn laboratory(seed: u64) -> Self {
        Environment::Laboratory {
            seed,
            scatterers: 8,
            relative_power: 0.3,
        }
    }

    /// Scatter paths for a link of endpoint separation `tx_rx` at
    /// frequency `f`. Deterministic in the seed.
    pub fn scatter_paths(&self, tx_rx: Meters, f: Hertz) -> Vec<Path> {
        self.scatter_paths_with(tx_rx, f, None)
    }

    /// [`Environment::scatter_paths`] with an optional override of the
    /// scatterers' cross-polar discrimination. `Some(xpd_db)` draws each
    /// path's depolarizing mix so the mean cross-to-co amplitude ratio is
    /// `10^(-xpd/20)`; `None` keeps the built-in statistics (and the
    /// exact historical draw sequence) — the Figure 20 calibration knob.
    pub fn scatter_paths_with(&self, tx_rx: Meters, f: Hertz, xpd_db: Option<f64>) -> Vec<Path> {
        let draws = self.scatter_draws(xpd_db);
        let mut out = Vec::with_capacity(draws.len());
        self.scatter_paths_from(&draws, tx_rx, f, &mut out);
        out
    }

    /// The random part of a scatter realization, independent of the
    /// endpoint geometry. Drawing once and replaying via
    /// [`Environment::scatter_paths_from`] reproduces
    /// [`Environment::scatter_paths_with`] bit-for-bit at any endpoint
    /// separation — only the per-path power scale and total length
    /// depend on `tx_rx`, and both are applied at replay time in the
    /// original operation order.
    pub fn scatter_draws(&self, xpd_db: Option<f64>) -> Vec<ScatterDraw> {
        let Environment::Laboratory {
            seed, scatterers, ..
        } = self
        else {
            return Vec::new();
        };
        let splitter = SeedSplitter::new(*seed);
        let mut rng = splitter.stream("scatterers");
        (0..*scatterers)
            .map(|_| {
                // Rayleigh amplitude: complex Gaussian tap, drawn as raw
                // standard normals (the power scale is applied at replay
                // time, in the same operation order as `complex_gaussian`).
                let n1 = rfmath::rng::standard_normal(&mut rng);
                let n2 = rfmath::rng::standard_normal(&mut rng);
                // Excess path length: 0.5–4 m of wander.
                let excess: f64 = rng.gen_range(0.5..4.0);
                // Indoor bounces mostly preserve polarization
                // orientation (channel XPD of 6-12 dB): a modest
                // random rotation plus weak depolarizing mixing.
                let rot: f64 = rng.gen_range(-0.45..0.45);
                let mix: f64 = match xpd_db {
                    // Mean cross/co amplitude ratio 10^(-xpd/20)
                    // under a uniform draw (mean = half the max),
                    // capped at full mixing so a very low XPD
                    // request cannot synthesize an amplifying
                    // (non-passive) scatterer.
                    Some(xpd) => (rng.gen_range(0.0..1.0) * 2.0 * 10f64.powf(-xpd / 20.0)).min(1.0),
                    None => rng.gen_range(0.0..0.3),
                };
                let jones = JonesMatrix(
                    Mat2::rotation(rot)
                        * Mat2::new(
                            Complex::ONE,
                            Complex::imag(mix),
                            Complex::imag(mix),
                            Complex::ONE,
                        )
                        .scale(Complex::real(1.0 / (1.0 + mix * mix).sqrt())),
                );
                ScatterDraw {
                    n1,
                    n2,
                    excess,
                    jones,
                }
            })
            .collect()
    }

    /// Replay cached [`ScatterDraw`]s into `out` for a link of endpoint
    /// separation `tx_rx` at frequency `f`, appending one path per draw.
    /// No RNG is consulted: a mobility engine can move a device every
    /// tick while paying the stream setup and random draws exactly once.
    pub fn scatter_paths_from(
        &self,
        draws: &[ScatterDraw],
        tx_rx: Meters,
        f: Hertz,
        out: &mut Vec<Path>,
    ) {
        let Environment::Laboratory { relative_power, .. } = self else {
            return;
        };
        let direct_amp = crate::friis::field_transfer(f, tx_rx).abs();
        let per_path_power =
            relative_power * direct_amp * direct_amp / (draws.len() as f64).max(1.0);
        let s = (per_path_power / 2.0).sqrt();
        out.extend(draws.iter().map(|draw| {
            let tap = rfmath::complex::c64(draw.n1 * s, draw.n2 * s);
            Path {
                transfer: tap * Complex::cis(-f.wavenumber() * draw.excess),
                jones: draw.jones,
                length: Meters(tx_rx.0 + draw.excess),
                modulation: None,
                label: "scatter",
            }
        }));
    }

    /// True when this environment contributes multipath.
    pub fn has_multipath(&self) -> bool {
        !matches!(self, Environment::Anechoic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: Hertz = Hertz(2.44e9);

    #[test]
    fn anechoic_is_clean() {
        let env = Environment::anechoic();
        assert!(env.scatter_paths(Meters(0.5), F).is_empty());
        assert!(!env.has_multipath());
    }

    #[test]
    fn laboratory_is_deterministic_in_seed() {
        let a = Environment::laboratory(7).scatter_paths(Meters(0.5), F);
        let b = Environment::laboratory(7).scatter_paths(Meters(0.5), F);
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.iter().zip(&b) {
            assert!((pa.transfer - pb.transfer).abs() < 1e-15);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Environment::laboratory(7).scatter_paths(Meters(0.5), F);
        let b = Environment::laboratory(8).scatter_paths(Meters(0.5), F);
        assert!((a[0].transfer - b[0].transfer).abs() > 1e-12);
    }

    #[test]
    fn scattered_power_is_near_requested_fraction() {
        // Average over many seeds: total scatter power ≈ relative_power ×
        // direct-path power.
        let direct = crate::friis::field_transfer(F, Meters(0.5)).norm_sqr();
        let mut total = 0.0;
        let n = 300;
        for seed in 0..n {
            let env = Environment::laboratory(seed);
            total += env
                .scatter_paths(Meters(0.5), F)
                .iter()
                .map(|p| p.transfer.norm_sqr())
                .sum::<f64>();
        }
        let mean = total / n as f64;
        let ratio = mean / direct;
        assert!(
            (ratio - 0.3).abs() < 0.08,
            "scatter/direct power ratio = {ratio:.3}"
        );
    }

    #[test]
    fn xpd_override_none_reproduces_default_sequence() {
        let env = Environment::laboratory(11);
        let a = env.scatter_paths(Meters(0.5), F);
        let b = env.scatter_paths_with(Meters(0.5), F, None);
        for (pa, pb) in a.iter().zip(&b) {
            assert!((pa.transfer - pb.transfer).abs() < 1e-15);
            assert!(pa.jones.0.max_abs_diff(pb.jones.0) < 1e-15);
        }
    }

    #[test]
    fn higher_xpd_means_purer_scatter_polarization() {
        // Average cross-polar leakage of the scatter Jones matrices must
        // shrink as the override XPD rises.
        let cross = |xpd: f64| {
            let mut total = 0.0;
            let mut n = 0usize;
            for seed in 0..40 {
                for p in Environment::laboratory(seed).scatter_paths_with(Meters(0.5), F, Some(xpd))
                {
                    let out = p.jones.apply(rfmath::jones::JonesVector::horizontal());
                    total += out.0.y.norm_sqr() / out.0.x.norm_sqr().max(1e-30);
                    n += 1;
                }
            }
            total / n as f64
        };
        // The random scatter rotation (±0.45 rad) leaks regardless of
        // the depolarizing mix, so the XPD knob separates the means by
        // a finite factor rather than the full 18 dB.
        let leaky = cross(6.0);
        let pure = cross(24.0);
        assert!(
            pure < leaky / 3.0,
            "24 dB XPD leakage {pure:.4} should be well below 6 dB XPD {leaky:.4}"
        );
    }

    #[test]
    fn extreme_xpd_override_stays_passive() {
        // xpd = 0 dB requests full depolarization; the drawn mix must
        // clamp at 1 so no scatterer amplifies.
        for seed in 0..10 {
            for p in Environment::laboratory(seed).scatter_paths_with(Meters(0.5), F, Some(0.0)) {
                let g = p
                    .jones
                    .transmittance(rfmath::jones::JonesVector::linear_deg(30.0));
                assert!(g <= 1.6, "xpd-0 scatter path gain {g}");
            }
        }
    }

    #[test]
    fn scatter_jones_is_not_amplifying() {
        for seed in 0..20 {
            for p in Environment::laboratory(seed).scatter_paths(Meters(0.5), F) {
                let g = p
                    .jones
                    .transmittance(rfmath::jones::JonesVector::linear_deg(30.0));
                assert!(g <= 1.6, "scatter path gain {g}");
            }
        }
    }
}
