//! Bias → polarization-rotation mapping.
//!
//! The controller's view of the surface: a function from the two DC bias
//! voltages to the polarization rotation experienced by a wave crossing
//! the surface. Two implementations are provided:
//!
//! * [`RotationMap::from_design`] — extracted from the circuit model by
//!   measuring the output polarization orientation for a linearly
//!   polarized probe wave (what our "HFSS substitute" predicts);
//! * [`RotationMap::from_paper_table`] — the paper's published Table 1,
//!   for table-driven control experiments and for cross-validation.

use rfmath::interp::Grid2D;
use rfmath::jones::JonesVector;
use rfmath::units::{Degrees, Hertz, Radians};

use crate::designs::Design;
use crate::evaluator::StackEvaluator;
use crate::stack::BiasState;
use crate::tables;

/// A sampled (Vx, Vy) → rotation-degrees map with bilinear interpolation.
#[derive(Clone, Debug)]
pub struct RotationMap {
    grid: Grid2D,
    /// Whether the source grid is signed (circuit model) or magnitude
    /// only (the paper's table).
    signed: bool,
}

impl RotationMap {
    /// Measures the rotation grid from a design's circuit model at
    /// frequency `f`, probing with an X-polarized wave and reading the
    /// orientation of the transmitted state.
    ///
    /// The probe orientation readout is the physically honest measure: a
    /// real surface is not a perfect rotator (residual ellipticity,
    /// loss), and orientation-of-output is exactly what the paper's §3.4
    /// estimation procedure measures.
    pub fn from_design(design: &Design, f: Hertz, voltages: &[f64]) -> Self {
        assert!(voltages.len() >= 2, "need at least a 2×2 bias grid");
        let probe = JonesVector::horizontal();
        // Batched grid evaluation: per-axis branch solves are shared
        // across the whole (Vx, Vy) plane instead of recomputed per cell.
        let evaluator = StackEvaluator::new(&design.stack, f);
        let zs = evaluator
            .eval_grid(voltages, voltages)
            .into_iter()
            .map(|r| {
                r.map(|r| {
                    let out = r.transmission_jones().apply(probe);
                    out.orientation().to_degrees().0
                })
                .unwrap_or(0.0)
            })
            .collect();
        Self {
            grid: Grid2D::new(voltages.to_vec(), voltages.to_vec(), zs),
            signed: true,
        }
    }

    /// The paper's Table 1 as a rotation map (magnitudes).
    pub fn from_paper_table() -> Self {
        Self {
            grid: tables::table1_grid(),
            signed: false,
        }
    }

    /// Signed rotation (degrees) at a bias state, bilinearly interpolated.
    pub fn rotation_deg(&self, bias: BiasState) -> Degrees {
        Degrees(self.grid.eval(bias.vx.0, bias.vy.0))
    }

    /// Rotation in radians.
    pub fn rotation(&self, bias: BiasState) -> Radians {
        self.rotation_deg(bias).to_radians()
    }

    /// Extremes `(min, max)` of rotation magnitude over the sampled grid.
    pub fn magnitude_range(&self) -> (Degrees, Degrees) {
        let (lo, hi) = if self.signed {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for iy in 0..self.grid.ys().len() {
                for ix in 0..self.grid.xs().len() {
                    let m = self.grid.at(ix, iy).abs();
                    lo = lo.min(m);
                    hi = hi.max(m);
                }
            }
            (lo, hi)
        } else {
            self.grid.range()
        };
        (Degrees(lo), Degrees(hi))
    }

    /// The bias state maximizing rotation magnitude on the grid.
    pub fn argmax_magnitude(&self) -> (BiasState, Degrees) {
        let mut best = (BiasState::new(0.0, 0.0), f64::NEG_INFINITY);
        for iy in 0..self.grid.ys().len() {
            for ix in 0..self.grid.xs().len() {
                let m = self.grid.at(ix, iy).abs();
                if m > best.1 {
                    best = (BiasState::new(self.grid.xs()[ix], self.grid.ys()[iy]), m);
                }
            }
        }
        (best.0, Degrees(best.1))
    }

    /// Flattened samples (Vy-major) for statistical comparison against
    /// other maps.
    pub fn flat(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.grid.xs().len() * self.grid.ys().len());
        for iy in 0..self.grid.ys().len() {
            for ix in 0..self.grid.xs().len() {
                out.push(self.grid.at(ix, iy));
            }
        }
        out
    }

    /// Flattened magnitudes.
    pub fn flat_magnitude(&self) -> Vec<f64> {
        self.flat().into_iter().map(f64::abs).collect()
    }

    /// The sampled bias axis.
    pub fn voltages(&self) -> &[f64] {
        self.grid.xs()
    }
}

/// Compares a simulated rotation map against the paper's Table 1:
/// returns `(range_overlap, spearman_rho)` where `range_overlap` is the
/// fractional overlap of the [min, max] magnitude ranges and
/// `spearman_rho` the rank correlation of the flattened magnitude grids
/// (requires equal grid shapes).
pub fn compare_to_paper(simulated: &RotationMap) -> (f64, f64) {
    let paper = RotationMap::from_paper_table();
    let (smin, smax) = simulated.magnitude_range();
    let (pmin, pmax) = paper.magnitude_range();
    let lo = smin.0.max(pmin.0);
    let hi = smax.0.min(pmax.0);
    let overlap = ((hi - lo).max(0.0)) / (pmax.0 - pmin.0);
    let rho = if simulated.flat().len() == paper.flat().len() {
        rfmath::stats::spearman(&simulated.flat_magnitude(), &paper.flat_magnitude())
    } else {
        f64::NAN
    };
    (overlap, rho)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::fr4_optimized;

    const F: Hertz = Hertz(2.44e9);

    #[test]
    fn paper_table_map_reproduces_extremes() {
        let m = RotationMap::from_paper_table();
        let (lo, hi) = m.magnitude_range();
        assert_eq!(lo.0, tables::TABLE1_MIN_DEG);
        assert_eq!(hi.0, tables::TABLE1_MAX_DEG);
    }

    #[test]
    fn paper_table_argmax() {
        let (bias, deg) = RotationMap::from_paper_table().argmax_magnitude();
        assert_eq!(deg.0, 48.7);
        assert_eq!(bias, BiasState::new(15.0, 2.0));
    }

    #[test]
    fn design_map_covers_tens_of_degrees() {
        let m = RotationMap::from_design(&fr4_optimized(), F, &tables::TABLE1_VOLTAGES);
        let (_, hi) = m.magnitude_range();
        assert!(
            hi.0 > 30.0,
            "circuit model should reach tens of degrees, got {}",
            hi.0
        );
    }

    #[test]
    fn design_map_moves_with_bias() {
        let m = RotationMap::from_design(&fr4_optimized(), F, &[2.0, 6.0, 15.0]);
        let a = m.rotation_deg(BiasState::new(2.0, 15.0)).0;
        let b = m.rotation_deg(BiasState::new(15.0, 2.0)).0;
        assert!((a - b).abs() > 20.0, "rotation must vary: {a} vs {b}");
    }

    #[test]
    fn interpolation_is_continuous() {
        let m = RotationMap::from_design(&fr4_optimized(), F, &[2.0, 6.0, 15.0]);
        let r1 = m.rotation_deg(BiasState::new(5.9, 6.0)).0;
        let r2 = m.rotation_deg(BiasState::new(6.1, 6.0)).0;
        assert!((r1 - r2).abs() < 3.0, "no jumps across knots: {r1} vs {r2}");
    }

    #[test]
    fn comparison_against_paper_has_overlap() {
        let m = RotationMap::from_design(&fr4_optimized(), F, &tables::TABLE1_VOLTAGES);
        let (overlap, rho) = compare_to_paper(&m);
        assert!(overlap > 0.5, "magnitude ranges should overlap: {overlap}");
        assert!(rho.is_finite());
    }
}
