//! Polarized (dual-polarization) network theory.
//!
//! A metasurface layer interacts differently with X- and Y-polarized
//! fields, and rotated layers (the ±45° quarter-wave plates) couple the
//! two polarizations. We model each layer as a *four-port* — two physical
//! ports × two polarizations — whose scattering behaviour is described by
//! four 2×2 blocks (S11, S12, S21, S22), each block a [`Mat2`] over the
//! polarization basis.
//!
//! The paper's Eq. (11) transmission efficiency for an x-polarized wave,
//! `|Sxx21|² + |Syx21|²`, is the squared column norm of the S21 block.
//!
//! Cascading uses the wave-transfer (T) block formalism so that
//! inter-layer multiple reflections are accounted for exactly — this is
//! what makes thin/thick substrate trade-offs (Figures 8–10) come out of
//! the model instead of being painted on.

use rfmath::complex::Complex;
use rfmath::jones::JonesMatrix;
use rfmath::matrix::{Mat2, Vec2};
use rfmath::units::{Db, Radians};

use crate::twoport::SParams;

/// Scattering description of a two-port, dual-polarization network.
///
/// Blocks map incident polarization vectors to outgoing ones:
/// `[b1; b2] = [[S11, S12], [S21, S22]]·[a1; a2]` with `a`, `b` ∈ ℂ²
/// over the (X, Y) polarization basis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolarizedS {
    /// Port-1 reflection block.
    pub s11: Mat2,
    /// Reverse transmission block.
    pub s12: Mat2,
    /// Forward transmission block.
    pub s21: Mat2,
    /// Port-2 reflection block.
    pub s22: Mat2,
    /// Reference impedance, Ω (same for both polarizations and ports).
    pub z0: f64,
}

impl PolarizedS {
    /// Builds a polarization-diagonal network from independent per-axis
    /// two-ports (both referenced to the same `z0`).
    ///
    /// # Panics
    /// Panics if the two S-parameter sets use different reference
    /// impedances.
    pub fn from_axes(x: SParams, y: SParams) -> Self {
        assert!(
            (x.z0 - y.z0).abs() < 1e-9,
            "axis networks must share a reference impedance"
        );
        Self {
            s11: Mat2::diag(x.s11, y.s11),
            s12: Mat2::diag(x.s12, y.s12),
            s21: Mat2::diag(x.s21, y.s21),
            s22: Mat2::diag(x.s22, y.s22),
            z0: x.z0,
        }
    }

    /// An ideal polarization-preserving through.
    pub fn ideal_through(z0: f64) -> Self {
        Self {
            s11: Mat2::ZERO,
            s12: Mat2::IDENTITY,
            s21: Mat2::IDENTITY,
            s22: Mat2::ZERO,
            z0,
        }
    }

    /// Rotates the network's principal axes counterclockwise by `theta`
    /// (e.g. a wave plate mounted at 45°): every block is conjugated by
    /// the rotation matrix, `B' = R·B·Rᵀ`.
    pub fn rotated(self, theta: Radians) -> Self {
        let r = Mat2::rotation(theta.0);
        let rt = r.transpose();
        Self {
            s11: r * self.s11 * rt,
            s12: r * self.s12 * rt,
            s21: r * self.s21 * rt,
            s22: r * self.s22 * rt,
            z0: self.z0,
        }
    }

    /// Cascades `self` followed by `next` using block wave-transfer
    /// matrices, accounting for all inter-stage multiple reflections.
    ///
    /// Returns `None` if a transmission block is singular (a perfectly
    /// blocking stage), in which case no cascade exists numerically.
    pub fn cascade(self, next: PolarizedS) -> Option<PolarizedS> {
        let t1 = self.to_transfer()?;
        let t2 = next.to_transfer()?;
        BlockT::multiply(t1, t2).to_s(self.z0)
    }

    /// Cascades a chain of stages in traversal order.
    pub fn chain(stages: &[PolarizedS]) -> Option<PolarizedS> {
        // A one-stage chain is the stage itself, bit for bit — including
        // perfectly blocking stages (singular S21), which have no
        // wave-transfer form but are still valid scattering descriptions.
        if let [only] = stages {
            return Some(*only);
        }
        let mut scratch = WaveTransfer::identity(stages.first()?.z0);
        Self::chain_into(&mut scratch, stages)
    }

    /// Allocation-free chain: cascades `stages` through a caller-owned
    /// [`WaveTransfer`] accumulator, so per-point inner loops (grid
    /// sweeps, batched evaluators) do zero heap allocation.
    ///
    /// The accumulator is reset from the first stage and left holding the
    /// full product on return, letting callers inspect or extend the
    /// partial cascade. Returns `None` for an empty chain or when any
    /// stage (or the final product) has a singular transmission block.
    pub fn chain_into(scratch: &mut WaveTransfer, stages: &[PolarizedS]) -> Option<PolarizedS> {
        let (first, rest) = stages.split_first()?;
        *scratch = first.wave_transfer()?;
        for stage in rest {
            scratch.push(&stage.wave_transfer()?);
        }
        scratch.to_s()
    }

    /// The block wave-transfer form of this stage, precomputable once and
    /// reusable across many cascades (the basis of the batched surface
    /// evaluator). Returns `None` when the transmission block is singular
    /// (a perfectly blocking stage has no transfer representation).
    pub fn wave_transfer(self) -> Option<WaveTransfer> {
        Some(WaveTransfer {
            t: self.to_transfer()?,
            z0: self.z0,
        })
    }

    fn to_transfer(self) -> Option<BlockT> {
        // [a1; b1] = T·[b2; a2]
        // T11 = S21⁻¹, T12 = −S21⁻¹·S22, T21 = S11·S21⁻¹,
        // T22 = S12 − S11·S21⁻¹·S22.
        let s21_inv = self.s21.inverse()?;
        Some(BlockT {
            t11: s21_inv,
            t12: -(s21_inv * self.s22),
            t21: self.s11 * s21_inv,
            t22: self.s12 - self.s11 * s21_inv * self.s22,
        })
    }

    /// Forward transmission as a Jones matrix acting on incident port-1
    /// polarization states.
    pub fn transmission_jones(self) -> JonesMatrix {
        JonesMatrix(self.s21)
    }

    /// Port-1 reflection as a Jones matrix.
    pub fn reflection_jones(self) -> JonesMatrix {
        JonesMatrix(self.s11)
    }

    /// Eq. (11): transmission efficiency for an X-polarized incident wave,
    /// `|Sxx21|² + |Syx21|²`.
    pub fn efficiency_x(self) -> f64 {
        self.s21.a.norm_sqr() + self.s21.c.norm_sqr()
    }

    /// Eq. (11): transmission efficiency for a Y-polarized incident wave,
    /// `|Sxy21|² + |Syy21|²`.
    pub fn efficiency_y(self) -> f64 {
        self.s21.b.norm_sqr() + self.s21.d.norm_sqr()
    }

    /// X-excitation efficiency in dB — the y-axis of Figures 8–11.
    pub fn efficiency_x_db(self) -> Db {
        Db::from_linear(self.efficiency_x())
    }

    /// Y-excitation efficiency in dB.
    pub fn efficiency_y_db(self) -> Db {
        Db::from_linear(self.efficiency_y())
    }

    /// True when passive within `tol`: for any incident wave, outgoing
    /// power (reflected + transmitted) does not exceed incident power.
    /// Checked on the polarization basis vectors of both ports.
    pub fn is_passive(self, tol: f64) -> bool {
        let checks = [(self.s11, self.s21), (self.s22, self.s12)];
        for (refl, trans) in checks {
            for basis in [Vec2::from_real(1.0, 0.0), Vec2::from_real(0.0, 1.0)] {
                let out = (refl * basis).norm_sqr() + (trans * basis).norm_sqr();
                if out > 1.0 + tol {
                    return false;
                }
            }
        }
        true
    }

    /// True when reciprocal (`S12 == S21ᵀ` for this block convention)
    /// within `tol`.
    pub fn is_reciprocal(self, tol: f64) -> bool {
        self.s12.max_abs_diff(self.s21.transpose()) <= tol
    }
}

/// A stage (or partial cascade) in block wave-transfer form.
///
/// Composition in the T domain is plain block-matrix multiplication, so
/// a chain costs one S→T conversion per stage plus one T→S conversion at
/// the end — instead of the three 2×2 inversions per stage that repeated
/// [`PolarizedS::cascade`] calls pay. Batched evaluators precompute the
/// transfer of every bias-independent stage once and multiply cached
/// transfers per grid point with zero heap allocation.
#[derive(Clone, Copy, Debug)]
pub struct WaveTransfer {
    t: BlockT,
    z0: f64,
}

impl WaveTransfer {
    /// The identity transfer (a zero-length through) at reference
    /// impedance `z0`.
    pub fn identity(z0: f64) -> Self {
        Self {
            t: BlockT {
                t11: Mat2::IDENTITY,
                t12: Mat2::ZERO,
                t21: Mat2::ZERO,
                t22: Mat2::IDENTITY,
            },
            z0,
        }
    }

    /// Appends `next` to the cascade in place (`self ← self·next`, wave
    /// traverses `self` first). No allocation.
    pub fn push(&mut self, next: &WaveTransfer) {
        debug_assert!(
            (self.z0 - next.z0).abs() < 1e-9,
            "cascaded transfers must share a reference impedance"
        );
        self.t = BlockT::multiply(self.t, next.t);
    }

    /// The cascade `self` followed by `next`, by value.
    pub fn then(mut self, next: &WaveTransfer) -> Self {
        self.push(next);
        self
    }

    /// Converts the accumulated cascade back to scattering form; `None`
    /// when the product transmission block is singular.
    pub fn to_s(&self) -> Option<PolarizedS> {
        self.t.to_s(self.z0)
    }

    /// Reference impedance the S-domain endpoints use.
    pub fn z0(&self) -> f64 {
        self.z0
    }

    /// The transfer as a row-major 4×4 complex matrix
    /// (`[[T11, T12], [T21, T22]]` flattened): block composition is
    /// plain 4×4 matrix multiplication in this view, which is what lets
    /// batched evaluators keep the cascade in structure-of-arrays form.
    pub fn components(&self) -> [Complex; 16] {
        let t = &self.t;
        [
            t.t11.a, t.t11.b, t.t12.a, t.t12.b, //
            t.t11.c, t.t11.d, t.t12.c, t.t12.d, //
            t.t21.a, t.t21.b, t.t22.a, t.t22.b, //
            t.t21.c, t.t21.d, t.t22.c, t.t22.d, //
        ]
    }

    /// Rebuilds a transfer from the row-major 4×4 component view
    /// (inverse of [`WaveTransfer::components`]).
    pub fn from_components(m: [Complex; 16], z0: f64) -> Self {
        Self {
            t: BlockT {
                t11: Mat2::new(m[0], m[1], m[4], m[5]),
                t12: Mat2::new(m[2], m[3], m[6], m[7]),
                t21: Mat2::new(m[8], m[9], m[12], m[13]),
                t22: Mat2::new(m[10], m[11], m[14], m[15]),
            },
            z0,
        }
    }
}

/// Block wave-transfer matrix: `[a1; b1] = T·[b2; a2]` with 2×2 blocks.
#[derive(Clone, Copy, Debug)]
struct BlockT {
    t11: Mat2,
    t12: Mat2,
    t21: Mat2,
    t22: Mat2,
}

impl BlockT {
    fn multiply(a: BlockT, b: BlockT) -> BlockT {
        BlockT {
            t11: a.t11 * b.t11 + a.t12 * b.t21,
            t12: a.t11 * b.t12 + a.t12 * b.t22,
            t21: a.t21 * b.t11 + a.t22 * b.t21,
            t22: a.t21 * b.t12 + a.t22 * b.t22,
        }
    }

    fn to_s(self, z0: f64) -> Option<PolarizedS> {
        // S21 = T11⁻¹, S22 = −T11⁻¹·T12, S11 = T21·T11⁻¹,
        // S12 = T22 − T21·T11⁻¹·T12.
        let t11_inv = self.t11.inverse()?;
        Some(PolarizedS {
            s21: t11_inv,
            s22: -(t11_inv * self.t12),
            s11: self.t21 * t11_inv,
            s12: self.t22 - self.t21 * t11_inv * self.t12,
            z0,
        })
    }
}

/// A lossless polarization-preserving phase screen (same phase on both
/// axes) — handy for tests and for modelling spacer regions at the
/// polarized level.
pub fn phase_screen(phase: Radians, z0: f64) -> PolarizedS {
    let p = Mat2::IDENTITY.scale(Complex::cis(phase.0));
    PolarizedS {
        s11: Mat2::ZERO,
        s12: p,
        s21: p,
        s22: Mat2::ZERO,
        z0,
    }
}

/// An ideal retarder screen: unit transmission with per-axis phases
/// `(phi_x, phi_y)` and no reflection. The idealized version of a
/// birefringent layer, used for cross-checks against the full circuit
/// model.
pub fn retarder_screen(phi_x: Radians, phi_y: Radians, z0: f64) -> PolarizedS {
    let p = Mat2::diag(Complex::cis(phi_x.0), Complex::cis(phi_y.0));
    PolarizedS {
        s11: Mat2::ZERO,
        s12: p,
        s21: p,
        s22: Mat2::ZERO,
        z0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::ETA0;
    use crate::twoport::Abcd;
    use rfmath::c64;
    use rfmath::jones::JonesVector;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

    #[test]
    fn diagonal_network_keeps_axes_independent() {
        let x = Abcd::series(c64(50.0, 0.0)).to_s(ETA0);
        let y = Abcd::identity().to_s(ETA0);
        let p = PolarizedS::from_axes(x, y);
        assert!(p.efficiency_x() < 1.0);
        assert!((p.efficiency_y() - 1.0).abs() < 1e-12);
        // No cross-polarization terms.
        assert!(p.s21.b.abs() < 1e-12 && p.s21.c.abs() < 1e-12);
    }

    #[test]
    fn ideal_through_cascades_to_itself() {
        let t = PolarizedS::ideal_through(ETA0);
        let tt = t.cascade(t).unwrap();
        assert!(tt.s21.max_abs_diff(Mat2::IDENTITY) < 1e-12);
        assert!(tt.s11.max_abs_diff(Mat2::ZERO) < 1e-12);
    }

    #[test]
    fn cascade_matches_scalar_theory_per_axis() {
        // Two series-impedance screens per axis: cascading at the
        // polarized level must equal the scalar ABCD cascade (including
        // multiple reflections).
        let za = c64(30.0, 40.0);
        let zb = c64(10.0, -60.0);
        let scalar = Abcd::series(za).then(Abcd::series(zb)).to_s(ETA0);
        let layer_a =
            PolarizedS::from_axes(Abcd::series(za).to_s(ETA0), Abcd::identity().to_s(ETA0));
        let layer_b =
            PolarizedS::from_axes(Abcd::series(zb).to_s(ETA0), Abcd::identity().to_s(ETA0));
        let cascaded = layer_a.cascade(layer_b).unwrap();
        assert!((cascaded.s21.a - scalar.s21).abs() < 1e-10);
        assert!((cascaded.s11.a - scalar.s11).abs() < 1e-10);
    }

    #[test]
    fn rotation_conjugates_blocks() {
        // Rotating an x-only attenuator by 90° turns it into a y-only one.
        let x = Abcd::series(c64(100.0, 0.0)).to_s(ETA0);
        let y = Abcd::identity().to_s(ETA0);
        let p = PolarizedS::from_axes(x, y).rotated(Radians(FRAC_PI_2));
        assert!((p.efficiency_x() - 1.0).abs() < 1e-12);
        assert!(p.efficiency_y() < 1.0);
    }

    #[test]
    fn retarder_sandwich_rotates_polarization() {
        // Ideal-screen version of Eq. (8): QWP(−45°)·BFS(δ)·QWP(+45°)
        // rotates by δ/2. Cascading ideal screens has no reflections, so
        // the result must match the Jones-level prediction exactly.
        let delta = 1.1_f64;
        let qwp = retarder_screen(Radians(0.0), Radians(FRAC_PI_2), ETA0);
        let qwp_p = qwp.rotated(Radians(FRAC_PI_4));
        let qwp_m = qwp.rotated(Radians(-FRAC_PI_4));
        let bfs = retarder_screen(Radians(0.0), Radians(delta), ETA0);
        // Traversal order: QWP+45 → BFS → QWP−45 (chain order is spatial).
        let stack = PolarizedS::chain(&[qwp_p, bfs, qwp_m]).unwrap();
        let jones = stack.transmission_jones();
        let angle = jones.rotation_angle(1e-9).expect("should be a rotation");
        assert!(
            (angle.0.abs() - delta / 2.0).abs() < 1e-9,
            "angle = {}",
            angle.0
        );
        // And the stack is lossless.
        let v = JonesVector::horizontal();
        assert!((jones.transmittance(v) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn efficiency_matches_eq11() {
        // Hand-build an S21 block and verify the efficiency formulas.
        let s21 = Mat2::new(c64(0.6, 0.0), c64(0.1, 0.0), c64(0.3, 0.0), c64(0.7, 0.0));
        let p = PolarizedS {
            s11: Mat2::ZERO,
            s12: s21.transpose(),
            s21,
            s22: Mat2::ZERO,
            z0: ETA0,
        };
        assert!((p.efficiency_x() - (0.36 + 0.09)).abs() < 1e-12);
        assert!((p.efficiency_y() - (0.01 + 0.49)).abs() < 1e-12);
        assert!(p.is_reciprocal(1e-12));
    }

    #[test]
    fn passivity_detects_gain() {
        let active = PolarizedS {
            s11: Mat2::ZERO,
            s12: Mat2::IDENTITY.scale(c64(1.5, 0.0)),
            s21: Mat2::IDENTITY.scale(c64(1.5, 0.0)),
            s22: Mat2::ZERO,
            z0: ETA0,
        };
        assert!(!active.is_passive(1e-9));
        assert!(PolarizedS::ideal_through(ETA0).is_passive(1e-9));
    }

    #[test]
    fn chain_of_rotated_screens_composes_rotations() {
        // Two δ=π/2 rotator sandwiches in series rotate by π/2 total.
        let make_rotator = |delta: f64| {
            let qwp = retarder_screen(Radians(0.0), Radians(FRAC_PI_2), ETA0);
            PolarizedS::chain(&[
                qwp.rotated(Radians(FRAC_PI_4)),
                retarder_screen(Radians(0.0), Radians(delta), ETA0),
                qwp.rotated(Radians(-FRAC_PI_4)),
            ])
            .unwrap()
        };
        let one = make_rotator(FRAC_PI_2);
        let two = one.cascade(one).unwrap();
        let angle = two
            .transmission_jones()
            .rotation_angle(1e-9)
            .expect("rotation");
        assert!((angle.0.abs() - FRAC_PI_2).abs() < 1e-9);
    }

    #[test]
    fn chain_into_matches_pairwise_cascade() {
        // The T-domain accumulator must agree with repeated pairwise
        // cascading (which round-trips through S between stages).
        let za = c64(30.0, 40.0);
        let zb = c64(10.0, -60.0);
        let zc = c64(-5.0, 22.0);
        let stage =
            |z| PolarizedS::from_axes(Abcd::series(z).to_s(ETA0), Abcd::shunt(z.inv()).to_s(ETA0));
        let stages = [stage(za), stage(zb).rotated(Radians(0.7)), stage(zc)];
        let pairwise = stages[0]
            .cascade(stages[1])
            .unwrap()
            .cascade(stages[2])
            .unwrap();
        let mut scratch = WaveTransfer::identity(ETA0);
        let chained = PolarizedS::chain_into(&mut scratch, &stages).unwrap();
        for (a, b) in [
            (chained.s11, pairwise.s11),
            (chained.s12, pairwise.s12),
            (chained.s21, pairwise.s21),
            (chained.s22, pairwise.s22),
        ] {
            assert!(a.max_abs_diff(b) < 1e-12, "diff = {}", a.max_abs_diff(b));
        }
        // The scratch accumulator holds the full product afterwards.
        let from_scratch = scratch.to_s().unwrap();
        assert!(from_scratch.s21.max_abs_diff(chained.s21) < 1e-15);
        assert!((scratch.z0() - ETA0).abs() < 1e-12);
    }

    #[test]
    fn wave_transfer_round_trips() {
        let s = PolarizedS::from_axes(
            Abcd::series(c64(12.0, -9.0)).to_s(ETA0),
            Abcd::shunt(c64(0.001, 0.004)).to_s(ETA0),
        )
        .rotated(Radians(-0.4));
        let back = s.wave_transfer().unwrap().to_s().unwrap();
        assert!(back.s11.max_abs_diff(s.s11) < 1e-12);
        assert!(back.s21.max_abs_diff(s.s21) < 1e-12);
    }

    #[test]
    fn identity_transfer_is_neutral() {
        let s = PolarizedS::from_axes(
            Abcd::series(c64(30.0, 40.0)).to_s(ETA0),
            Abcd::identity().to_s(ETA0),
        );
        let composed = WaveTransfer::identity(ETA0)
            .then(&s.wave_transfer().unwrap())
            .to_s()
            .unwrap();
        assert!(composed.s21.max_abs_diff(s.s21) < 1e-12);
        assert!(composed.s11.max_abs_diff(s.s11) < 1e-12);
    }

    #[test]
    fn singular_stage_returns_none() {
        let blocker = PolarizedS {
            s11: Mat2::IDENTITY,
            s12: Mat2::ZERO,
            s21: Mat2::ZERO,
            s22: Mat2::IDENTITY,
            z0: ETA0,
        };
        assert!(blocker.cascade(PolarizedS::ideal_through(ETA0)).is_none());
        // A multi-stage chain through a blocker has no cascade…
        assert!(PolarizedS::chain(&[blocker, PolarizedS::ideal_through(ETA0)]).is_none());
        // …but a single-stage "chain" is the stage itself, reflection
        // block and all (a perfect mirror is a valid network).
        let alone = PolarizedS::chain(&[blocker]).unwrap();
        assert_eq!(alone.s11, Mat2::IDENTITY);
        assert_eq!(alone.s21, Mat2::ZERO);
    }

    #[test]
    fn phase_screen_only_adds_phase() {
        let p = phase_screen(Radians(0.9), ETA0);
        let j = p.transmission_jones();
        assert!((j.0.a.arg() - 0.9).abs() < 1e-12);
        assert!((j.transmittance(JonesVector::linear_deg(33.0)) - 1.0).abs() < 1e-12);
    }
}
