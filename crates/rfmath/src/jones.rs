//! Jones calculus — the polarization algebra of §2 of the paper.
//!
//! A fully polarized plane wave is a 2×1 complex [`JonesVector`] over the
//! transverse (X, Y) axes; optical elements (wave plates, the tunable
//! birefringent structure, rotations) are 2×2 complex [`JonesMatrix`]
//! transforms. This module implements Eq. (1)–(8) of the paper:
//!
//! * Eq. (1): the Jones vector `[a, b·e^{jπ/2}]ᵀ` and general states,
//! * Eq. (2): cascading surfaces by matrix multiplication,
//! * Eq. (3)–(4): the wave-plate matrix and its rotated form
//!   `Mθ = R(θ)·M·R(θ)ᵀ`,
//! * Eq. (5)–(6): quarter-wave plates at ±45°,
//! * Eq. (7): the tunable birefringent structure `B = diag(1, e^{jδ})`,
//! * Eq. (8): the full rotator `P = Q₊₄₅·B·Q₋₄₅` ≡ rotation by `δ/2`.

use crate::complex::{c64, Complex};
use crate::matrix::{Mat2, Vec2};
use crate::units::{Db, Degrees, Radians};
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

/// Polarization state of a fully polarized wave: a 2×1 complex vector over
/// the transverse X/Y axes (Eq. 1 of the paper).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct JonesVector(pub Vec2);

/// A polarization transform: a 2×2 complex matrix acting on
/// [`JonesVector`]s (Eq. 2–8 of the paper).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct JonesMatrix(pub Mat2);

impl JonesVector {
    /// Horizontal (X-axis) linear polarization, unit intensity.
    pub fn horizontal() -> Self {
        Self(Vec2::from_real(1.0, 0.0))
    }

    /// Vertical (Y-axis) linear polarization, unit intensity.
    pub fn vertical() -> Self {
        Self(Vec2::from_real(0.0, 1.0))
    }

    /// Linear polarization at `angle` from the X axis, unit intensity.
    pub fn linear(angle: Radians) -> Self {
        let (s, c) = angle.0.sin_cos();
        Self(Vec2::from_real(c, s))
    }

    /// Linear polarization at `angle` degrees from the X axis.
    pub fn linear_deg(angle_deg: f64) -> Self {
        Self::linear(Degrees(angle_deg).to_radians())
    }

    /// Right-hand circular polarization, unit intensity.
    pub fn circular_right() -> Self {
        let k = 1.0 / 2.0_f64.sqrt();
        Self(Vec2::new(c64(k, 0.0), c64(0.0, -k)))
    }

    /// Left-hand circular polarization, unit intensity.
    pub fn circular_left() -> Self {
        let k = 1.0 / 2.0_f64.sqrt();
        Self(Vec2::new(c64(k, 0.0), c64(0.0, k)))
    }

    /// General elliptical state from the paper's Eq. (1):
    /// `[a, b·e^{jπ/2}]ᵀ` with real amplitudes `a`, `b`.
    pub fn elliptical(a: f64, b: f64) -> Self {
        Self(Vec2::new(c64(a, 0.0), Complex::from_polar(b, FRAC_PI_2)))
    }

    /// Raw component access.
    #[inline]
    pub fn components(self) -> (Complex, Complex) {
        (self.0.x, self.0.y)
    }

    /// Total intensity `|Ex|² + |Ey|²` (proportional to power density).
    #[inline]
    pub fn intensity(self) -> f64 {
        self.0.norm_sqr()
    }

    /// Unit-intensity copy of this state, or `None` for the zero field.
    pub fn normalized(self) -> Option<Self> {
        self.0.normalized().map(Self)
    }

    /// Polarization loss factor (PLF) onto a receive antenna whose
    /// co-polarized state is `rx`: `|⟨rx, self⟩|² / (|rx|²·|self|²)`.
    ///
    /// 1.0 for matched states, 0.0 for orthogonal states, 0.5 between
    /// linear and circular (the classic 3 dB penalty of §2).
    pub fn polarization_loss_factor(self, rx: JonesVector) -> f64 {
        let denom = self.intensity() * rx.intensity();
        if denom <= 0.0 {
            return 0.0;
        }
        rx.0.dot(self.0).norm_sqr() / denom
    }

    /// PLF expressed in dB (≤ 0; −∞ for orthogonal states).
    pub fn polarization_loss_db(self, rx: JonesVector) -> Db {
        Db::from_linear(self.polarization_loss_factor(rx))
    }

    /// Orientation of the polarization ellipse's major axis, in radians
    /// within `(-π/2, π/2]`. For a linear state this is the tilt angle.
    pub fn orientation(self) -> Radians {
        // ψ = ½·atan2(2·Re(Ex·Ēȳ*)… ) via Stokes parameters.
        let (ex, ey) = self.components();
        let s1 = ex.norm_sqr() - ey.norm_sqr();
        let s2 = 2.0 * (ex * ey.conj()).re;
        let mut psi = 0.5 * s2.atan2(s1);
        if psi <= -FRAC_PI_2 {
            psi += std::f64::consts::PI;
        } else if psi > FRAC_PI_2 {
            psi -= std::f64::consts::PI;
        }
        Radians(psi)
    }

    /// Ellipticity angle χ in radians: 0 for linear, ±π/4 for circular.
    pub fn ellipticity(self) -> Radians {
        let (ex, ey) = self.components();
        let s0 = self.intensity();
        if s0 <= 0.0 {
            return Radians(0.0);
        }
        let s3 = 2.0 * (ex.conj() * ey).im;
        Radians(0.5 * (s3 / s0).clamp(-1.0, 1.0).asin())
    }

    /// True when this state is linear within tolerance (ellipticity ≈ 0).
    pub fn is_linear(self, tol: f64) -> bool {
        self.ellipticity().0.abs() <= tol
    }

    /// Minimum rotation needed to align this state's major axis with
    /// `other`'s, wrapped into `[0, π/2]` (polarization orientation is
    /// unsigned and has period π).
    pub fn misalignment(self, other: JonesVector) -> Radians {
        let d = (self.orientation().0 - other.orientation().0).abs() % std::f64::consts::PI;
        Radians(d.min(std::f64::consts::PI - d))
    }
}

impl JonesMatrix {
    /// Identity (free-space propagation without loss or rotation).
    pub fn identity() -> Self {
        Self(Mat2::IDENTITY)
    }

    /// Real rotation by `theta` (counterclockwise), Eq. (4): `R(θ)`.
    pub fn rotation(theta: Radians) -> Self {
        Self(Mat2::rotation(theta.0))
    }

    /// Axis-aligned wave plate with common phase `alpha` and a quarter-wave
    /// (90°) retardation on Y, Eq. (3): `M = e^{jα}·diag(1, e^{jπ/2})`.
    pub fn wave_plate(alpha: Radians) -> Self {
        Self(Mat2::diag(Complex::ONE, Complex::cis(FRAC_PI_2)).scale(Complex::cis(alpha.0)))
    }

    /// General retarder `diag(1, e^{jδ})` with common phase `beta` —
    /// Eq. (7), the tunable birefringent structure (BFS). `delta` is the
    /// X/Y transmission-phase difference set by the bias voltages.
    pub fn birefringent(beta: Radians, delta: Radians) -> Self {
        Self(Mat2::diag(Complex::ONE, Complex::cis(delta.0)).scale(Complex::cis(beta.0)))
    }

    /// An element rotated counterclockwise by `theta`:
    /// `Mθ = R(θ)·M·R(θ)ᵀ` (Eq. 4).
    pub fn rotated(self, theta: Radians) -> Self {
        let r = Mat2::rotation(theta.0);
        Self(r * self.0 * r.transpose())
    }

    /// Quarter-wave plate rotated by +45°, Eq. (5).
    ///
    /// Note the paper writes `R(+45°)·M·R(+45°)` (not the transpose) in
    /// Eq. (5)–(6); both conventions produce a rotator, we follow the
    /// standard similarity transform `R·M·Rᵀ` which reproduces Eq. (8)
    /// exactly.
    pub fn qwp_plus_45(alpha: Radians) -> Self {
        Self::wave_plate(alpha).rotated(Radians(FRAC_PI_4))
    }

    /// Quarter-wave plate rotated by −45°, Eq. (6).
    pub fn qwp_minus_45(alpha: Radians) -> Self {
        Self::wave_plate(alpha).rotated(Radians(-FRAC_PI_4))
    }

    /// Ideal attenuator: scales field amplitude by `amplitude_ratio ≤ 1`
    /// uniformly on both axes (used to fold insertion loss into a Jones
    /// chain).
    pub fn attenuator(amplitude_ratio: f64) -> Self {
        Self(Mat2::IDENTITY.scale(Complex::real(amplitude_ratio)))
    }

    /// Linear polarizer transmitting the axis at `theta` from X.
    pub fn polarizer(theta: Radians) -> Self {
        let (s, c) = theta.0.sin_cos();
        Self(Mat2::from_real(c * c, c * s, c * s, s * s))
    }

    /// Mirror reflection about the X axis (flips the Y component), used to
    /// express the frame change a wave sees when reflected back through a
    /// structure.
    pub fn mirror_x() -> Self {
        Self(Mat2::diag(Complex::ONE, -Complex::ONE))
    }

    /// The paper's full polarization rotator, Eq. (8):
    /// `P = Q₋₄₅ · B(δ) · Q₊₄₅ = e^{jφ}·R(δ/2)`.
    ///
    /// `alpha` is the QWP common phase, `beta` the BFS common phase and
    /// `delta` the bias-controlled X/Y phase difference. The result is a
    /// pure rotation by `δ/2` up to a global phase.
    ///
    /// Under the similarity-transform convention (`Mθ = R·M·Rᵀ`) the
    /// sandwich `Q₋₄₅·B·Q₊₄₅` rotates by `+δ/2` while the mirror order
    /// rotates by `−δ/2`; we pick the order that reproduces the paper's
    /// stated Eq. (8) sign. The physically observable quantity — the
    /// magnitude `|δ|/2` of the polarization rotation — is identical
    /// either way.
    pub fn rotator(alpha: Radians, beta: Radians, delta: Radians) -> Self {
        Self::qwp_minus_45(alpha) * Self::birefringent(beta, delta) * Self::qwp_plus_45(alpha)
    }

    /// Applies this transform to a state (Eq. 2).
    #[inline]
    pub fn apply(self, v: JonesVector) -> JonesVector {
        JonesVector(self.0 * v.0)
    }

    /// Cascades surfaces: `self` is traversed *after* `first`
    /// (`J_out = self · first · J_in`, Eq. 2).
    pub fn after(self, first: JonesMatrix) -> JonesMatrix {
        self * first
    }

    /// Extracts the equivalent rotation angle if this matrix is (up to a
    /// global phase) a real rotation; `None` otherwise.
    ///
    /// The angle is returned wrapped into `(-π/2, π/2]`: a global phase of
    /// −1 is physically unobservable, so rotations by `θ` and `θ ± π` are
    /// the same polarization transform and only the mod-π value is
    /// defined. Used to verify Eq. (8) and to read the rotation a
    /// simulated surface induces.
    pub fn rotation_angle(self, tol: f64) -> Option<Radians> {
        // Remove global phase using the phase of the largest entry of the
        // first column, then check the rotation structure.
        let m = self.0;
        let ref_entry = if m.a.abs() >= m.c.abs() { m.a } else { m.c };
        if ref_entry.abs() < tol {
            return None;
        }
        let phase = Complex::cis(-ref_entry.arg());
        let n = m.scale(phase);
        // A rotation must be real within tolerance…
        let imag_norm =
            n.a.im
                .abs()
                .max(n.b.im.abs())
                .max(n.c.im.abs())
                .max(n.d.im.abs());
        if imag_norm > tol {
            return None;
        }
        // …orthogonal with unit determinant…
        let det = n.det();
        if (det - Complex::ONE).abs() > tol.max(1e-9) {
            return None;
        }
        // …and structured as [[c, -s], [s, c]].
        if (n.a.re - n.d.re).abs() > tol || (n.b.re + n.c.re).abs() > tol {
            return None;
        }
        let mut theta = n.c.re.atan2(n.a.re);
        // Wrap into (-π/2, π/2]: θ and θ±π differ only by global phase.
        if theta > FRAC_PI_2 {
            theta -= PI;
        } else if theta <= -FRAC_PI_2 {
            theta += PI;
        }
        Some(Radians(theta))
    }

    /// Power transmittance for an incident state: output intensity over
    /// input intensity.
    pub fn transmittance(self, input: JonesVector) -> f64 {
        let out = self.apply(input);
        let pin = input.intensity();
        if pin <= 0.0 {
            0.0
        } else {
            out.intensity() / pin
        }
    }
}

impl std::ops::Mul for JonesMatrix {
    type Output = JonesMatrix;
    #[inline]
    fn mul(self, rhs: JonesMatrix) -> JonesMatrix {
        JonesMatrix(self.0 * rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    const TOL: f64 = 1e-10;

    #[test]
    fn basis_states_are_orthogonal() {
        let h = JonesVector::horizontal();
        let v = JonesVector::vertical();
        assert!(h.polarization_loss_factor(v) < TOL);
        assert!((h.polarization_loss_factor(h) - 1.0).abs() < TOL);
    }

    #[test]
    fn plf_follows_malus_law() {
        // Linear-to-linear PLF is cos²(Δθ) — the basis of the paper's
        // mismatch analysis.
        let h = JonesVector::horizontal();
        for k in 0..=18 {
            let theta = k as f64 * PI / 18.0;
            let t = JonesVector::linear(Radians(theta));
            let expected = theta.cos().powi(2);
            assert!(
                (t.polarization_loss_factor(h) - expected).abs() < TOL,
                "θ={theta}"
            );
        }
    }

    #[test]
    fn circular_to_linear_is_3db() {
        let c = JonesVector::circular_right();
        let h = JonesVector::horizontal();
        assert!((c.polarization_loss_factor(h) - 0.5).abs() < TOL);
        assert!((c.polarization_loss_db(h).0 + 3.0103).abs() < 1e-3);
    }

    #[test]
    fn circular_states_are_orthogonal() {
        let l = JonesVector::circular_left();
        let r = JonesVector::circular_right();
        assert!(l.polarization_loss_factor(r) < TOL);
    }

    #[test]
    fn elliptical_follows_eq1() {
        let e = JonesVector::elliptical(1.0, 1.0).normalized().unwrap();
        // a = b with +90° phase on Y is circular (left by our convention).
        assert!((e.ellipticity().0.abs() - FRAC_PI_4).abs() < TOL);
    }

    #[test]
    fn orientation_of_linear_states() {
        for deg in [0.0, 15.0, 45.0, 89.0] {
            let v = JonesVector::linear_deg(deg);
            assert!(
                (v.orientation().to_degrees().0 - deg).abs() < 1e-9,
                "deg={deg}"
            );
            assert!(v.is_linear(1e-12));
        }
    }

    #[test]
    fn misalignment_is_symmetric_and_wrapped() {
        let a = JonesVector::linear_deg(10.0);
        let b = JonesVector::linear_deg(80.0);
        assert!((a.misalignment(b).to_degrees().0 - 70.0).abs() < 1e-9);
        // 170° apart is the same line family as 10° apart.
        let c = JonesVector::linear_deg(180.0);
        let d = JonesVector::linear_deg(10.0);
        assert!((c.misalignment(d).to_degrees().0 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rotation_rotates_linear_state() {
        let h = JonesVector::horizontal();
        let r = JonesMatrix::rotation(Radians(0.3));
        let out = r.apply(h);
        assert!((out.orientation().0 - 0.3).abs() < TOL);
    }

    #[test]
    fn wave_plate_has_unit_transmittance() {
        let m = JonesMatrix::wave_plate(Radians(0.2));
        for v in [
            JonesVector::horizontal(),
            JonesVector::vertical(),
            JonesVector::linear_deg(30.0),
            JonesVector::circular_left(),
        ] {
            assert!((m.transmittance(v) - 1.0).abs() < TOL);
        }
    }

    #[test]
    fn qwp_at_45_converts_linear_to_circular() {
        let q = JonesMatrix::qwp_plus_45(Radians(0.0));
        let out = q.apply(JonesVector::horizontal());
        assert!((out.ellipticity().0.abs() - FRAC_PI_4).abs() < 1e-9);
    }

    #[test]
    fn rotator_is_rotation_by_half_delta() {
        // The core claim of Eq. (8): P(δ) ≡ R(δ/2) up to global phase.
        for delta_deg in [-170.0, -90.0, -30.0, 0.0, 10.0, 45.0, 90.0, 179.0] {
            let delta = Degrees(delta_deg).to_radians();
            let p = JonesMatrix::rotator(Radians(0.37), Radians(-0.9), delta);
            let angle = p
                .rotation_angle(1e-8)
                .unwrap_or_else(|| panic!("not a rotation at δ={delta_deg}°"));
            assert!(
                (angle.0 - delta.0 / 2.0).abs() < 1e-8,
                "δ={delta_deg}°: got {}°",
                angle.to_degrees().0
            );
        }
    }

    #[test]
    fn rotator_fixes_mismatched_link() {
        // Orthogonal antennas (90° mismatch, PLF 0) become matched after a
        // δ = π rotator (rotation by 90°).
        let tx = JonesVector::vertical();
        let rx = JonesVector::horizontal();
        assert!(tx.polarization_loss_factor(rx) < TOL);
        let p = JonesMatrix::rotator(Radians(0.0), Radians(0.0), Radians(PI));
        let through = p.apply(tx);
        assert!((through.polarization_loss_factor(rx) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rotation_angle_rejects_non_rotations() {
        assert!(JonesMatrix::polarizer(Radians(0.0))
            .rotation_angle(1e-9)
            .is_none());
        let b = JonesMatrix::birefringent(Radians(0.0), Radians(1.0));
        assert!(b.rotation_angle(1e-9).is_none());
    }

    #[test]
    fn polarizer_projects() {
        let p = JonesMatrix::polarizer(Radians(0.0));
        let out = p.apply(JonesVector::linear_deg(60.0));
        // Malus: transmitted intensity cos²60° = 0.25.
        assert!((out.intensity() - 0.25).abs() < TOL);
        assert!(out.orientation().0.abs() < TOL);
    }

    #[test]
    fn attenuator_scales_power() {
        let a = JonesMatrix::attenuator(0.5);
        let v = JonesVector::linear_deg(45.0);
        assert!((a.transmittance(v) - 0.25).abs() < TOL);
    }

    #[test]
    fn cascade_order_matters_and_matches_eq2() {
        let r1 = JonesMatrix::rotation(Radians(0.2));
        let pol = JonesMatrix::polarizer(Radians(0.0));
        let v = JonesVector::linear_deg(45.0);
        let seq = pol.after(r1).apply(v);
        let manual = pol.apply(r1.apply(v));
        assert!(seq.0.max_abs_diff(manual.0) < TOL);
    }

    #[test]
    fn mirror_flips_rotation_sense() {
        // R(θ) seen through a mirror frame becomes R(−θ): the mechanism
        // behind reflective rotation cancellation (§5.2).
        let theta = Radians(0.4);
        let m = JonesMatrix::mirror_x();
        let conj = (m * JonesMatrix::rotation(theta) * m).0;
        assert!(conj.max_abs_diff(Mat2::rotation(-theta.0)) < TOL);
    }
}
