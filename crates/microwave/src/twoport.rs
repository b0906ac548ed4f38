//! Two-port network theory: ABCD chain matrices and S-parameters.
//!
//! Implements the scattering formalism of the paper's §3.2 (Eq. 9–10):
//! incident/reflected wave amplitudes related by the scattering matrix
//! `S`, with `S21` the transmission coefficient whose magnitude-squared
//! is the transmission efficiency the whole metasurface design is
//! optimized for. Cascading is done in the ABCD (chain) representation
//! where composition is plain matrix multiplication.

use rfmath::complex::Complex;
use rfmath::matrix::Mat2;
use rfmath::units::{Db, Hertz, Meters};

use crate::substrate::Slab;

/// ABCD (chain) matrix of a reciprocal two-port:
/// `[V1; I1] = [[A, B], [C, D]]·[V2; I2]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Abcd(pub Mat2);

/// Scattering parameters of a two-port, referenced to a real impedance
/// `z0` (Eq. 10 of the paper).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SParams {
    /// Input reflection coefficient.
    pub s11: Complex,
    /// Reverse transmission coefficient.
    pub s12: Complex,
    /// Forward transmission coefficient.
    pub s21: Complex,
    /// Output reflection coefficient.
    pub s22: Complex,
    /// Reference impedance, Ω.
    pub z0: f64,
}

impl Abcd {
    /// Identity (a zero-length through).
    pub fn identity() -> Self {
        Self(Mat2::IDENTITY)
    }

    /// Series impedance element: `[[1, Z], [0, 1]]`.
    pub fn series(z: Complex) -> Self {
        Self(Mat2::new(Complex::ONE, z, Complex::ZERO, Complex::ONE))
    }

    /// Shunt admittance element: `[[1, 0], [Y, 1]]`.
    pub fn shunt(y: Complex) -> Self {
        Self(Mat2::new(Complex::ONE, Complex::ZERO, y, Complex::ONE))
    }

    /// Transmission-line section with characteristic impedance `zc`
    /// (complex for lossy media) and complex propagation `γ·l`:
    /// `[[cosh γl, Zc·sinh γl], [sinh γl / Zc, cosh γl]]`.
    pub fn line(zc: Complex, gamma_l: Complex) -> Self {
        let ch = gamma_l.cosh();
        let sh = gamma_l.sinh();
        Self(Mat2::new(ch, zc * sh, sh / zc, ch))
    }

    /// A dielectric slab traversed by a normally incident plane wave,
    /// treated as a line section with the medium's wave impedance.
    pub fn slab(slab: &Slab, f: Hertz) -> Self {
        let zc = slab.material.wave_impedance();
        let gamma_l = slab.material.gamma(f) * slab.thickness.0;
        Self::line(zc, gamma_l)
    }

    /// An air gap of the given length (board spacing in the stack).
    pub fn air_gap(length: Meters, f: Hertz) -> Self {
        Self::slab(&Slab::new(crate::substrate::Material::AIR, length), f)
    }

    /// Ideal transformer with turns ratio `n` (used in matching studies).
    pub fn transformer(n: f64) -> Self {
        Self(Mat2::from_real(n, 0.0, 0.0, 1.0 / n))
    }

    /// Cascades `self` followed by `next` (wave passes `self` first).
    pub fn then(self, next: Abcd) -> Abcd {
        Abcd(self.0 * next.0)
    }

    /// Cascades a chain of sections in traversal order.
    pub fn chain(sections: &[Abcd]) -> Abcd {
        sections
            .iter()
            .fold(Abcd::identity(), |acc, s| acc.then(*s))
    }

    /// Determinant; 1 for reciprocal networks.
    pub fn det(self) -> Complex {
        self.0.det()
    }

    /// True when the network is reciprocal (`AD − BC = 1`) within `tol`.
    pub fn is_reciprocal(self, tol: f64) -> bool {
        (self.det() - Complex::ONE).abs() <= tol
    }

    /// Converts to S-parameters referenced to real `z0`.
    pub fn to_s(self, z0: f64) -> SParams {
        let (a, b, c, d) = (self.0.a, self.0.b, self.0.c, self.0.d);
        let bz = b / z0;
        let cz = c * z0;
        let denom = a + bz + cz + d;
        SParams {
            s11: (a + bz - cz - d) / denom,
            s12: 2.0 * self.det() / denom,
            s21: Complex::real(2.0) / denom,
            s22: (-1.0 * a + bz - cz + d) / denom,
            z0,
        }
    }

    /// Input impedance seen at port 1 with port 2 terminated in `zl`.
    pub fn input_impedance(self, zl: Complex) -> Complex {
        let (a, b, c, d) = (self.0.a, self.0.b, self.0.c, self.0.d);
        (a * zl + b) / (c * zl + d)
    }
}

impl SParams {
    /// Builds S-parameters from raw coefficients.
    pub fn new(s11: Complex, s12: Complex, s21: Complex, s22: Complex, z0: f64) -> Self {
        Self {
            s11,
            s12,
            s21,
            s22,
            z0,
        }
    }

    /// A perfectly matched, lossless through.
    pub fn ideal_through(z0: f64) -> Self {
        Self::new(Complex::ZERO, Complex::ONE, Complex::ONE, Complex::ZERO, z0)
    }

    /// Converts back to the ABCD representation.
    pub fn to_abcd(self) -> Abcd {
        let z0 = self.z0;
        let two_s21 = 2.0 * self.s21;
        let one = Complex::ONE;
        let a = ((one + self.s11) * (one - self.s22) + self.s12 * self.s21) / two_s21;
        let b = z0 * ((one + self.s11) * (one + self.s22) - self.s12 * self.s21) / two_s21;
        let c = ((one - self.s11) * (one - self.s22) - self.s12 * self.s21) / (two_s21 * z0);
        let d = ((one - self.s11) * (one + self.s22) + self.s12 * self.s21) / two_s21;
        Abcd(Mat2::new(a, b, c, d))
    }

    /// Insertion loss `−20·log10|S21|` in dB (positive for loss).
    pub fn insertion_loss(self) -> Db {
        Db(-20.0 * self.s21.abs().log10())
    }

    /// Transmission efficiency `|S21|²` as a (negative) dB figure —
    /// the quantity plotted in the paper's Figures 8–11.
    pub fn transmission_efficiency_db(self) -> Db {
        Db::from_linear(self.s21.norm_sqr())
    }

    /// Fraction of incident power dissipated inside the network
    /// (`1 − |S11|² − |S21|²` for port-1 incidence). Negative values (to
    /// numerical tolerance) indicate an active/non-physical network.
    pub fn dissipated_fraction(self) -> f64 {
        1.0 - self.s11.norm_sqr() - self.s21.norm_sqr()
    }

    /// True when passive within tolerance for both drive directions.
    pub fn is_passive(self, tol: f64) -> bool {
        self.dissipated_fraction() >= -tol
            && (1.0 - self.s22.norm_sqr() - self.s12.norm_sqr()) >= -tol
    }

    /// True when reciprocal (`S12 == S21`) within tolerance.
    pub fn is_reciprocal(self, tol: f64) -> bool {
        (self.s12 - self.s21).abs() <= tol
    }

    /// Transmission phase `∠S21` in radians.
    pub fn transmission_phase(self) -> f64 {
        self.s21.arg()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::{Material, Slab, ETA0};
    use rfmath::c64;

    const F: Hertz = Hertz(2.44e9);
    const Z0: f64 = 50.0;

    #[test]
    fn identity_is_perfect_through() {
        let s = Abcd::identity().to_s(Z0);
        assert!(s.s11.abs() < 1e-12);
        assert!((s.s21 - Complex::ONE).abs() < 1e-12);
        assert!(s.insertion_loss().0.abs() < 1e-9);
    }

    #[test]
    fn series_impedance_splits_power() {
        // A series 50 Ω resistor in a 50 Ω system: S21 = 2Z0/(2Z0+Z) = 2/3.
        let s = Abcd::series(c64(50.0, 0.0)).to_s(Z0);
        assert!((s.s21.re - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.s11.re - 1.0 / 3.0).abs() < 1e-12);
        assert!(s.is_passive(1e-12));
    }

    #[test]
    fn shunt_admittance_matches_theory() {
        // Shunt Y: S21 = 2/(2 + Y·Z0).
        let y = c64(0.02, 0.0); // 50 Ω shunt resistor
        let s = Abcd::shunt(y).to_s(Z0);
        assert!((s.s21.re - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.s11.re + 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn abcd_s_round_trip() {
        let net = Abcd::series(c64(10.0, 25.0)).then(Abcd::shunt(c64(0.01, -0.004)));
        let back = net.to_s(Z0).to_abcd();
        assert!(net.0.max_abs_diff(back.0) < 1e-9);
    }

    #[test]
    fn cascade_is_matrix_product() {
        let a = Abcd::series(c64(5.0, 3.0));
        let b = Abcd::shunt(c64(0.002, 0.001));
        let c = Abcd::line(c64(75.0, 0.0), c64(0.0, 1.0));
        let chained = Abcd::chain(&[a, b, c]);
        let manual = a.then(b).then(c);
        assert!(chained.0.max_abs_diff(manual.0) < 1e-12);
    }

    #[test]
    fn lossless_line_is_all_pass() {
        // A matched lossless line only adds phase.
        let line = Abcd::line(c64(Z0, 0.0), c64(0.0, 1.234));
        let s = line.to_s(Z0);
        assert!(s.s11.abs() < 1e-12);
        assert!((s.s21.abs() - 1.0).abs() < 1e-12);
        assert!((s.transmission_phase() + 1.234).abs() < 1e-12);
    }

    #[test]
    fn quarter_wave_transformer_inverts_impedance() {
        // Zin = Zc²/ZL for a λ/4 line.
        let zc = c64(70.7, 0.0);
        let line = Abcd::line(zc, c64(0.0, std::f64::consts::FRAC_PI_2));
        let zin = line.input_impedance(c64(100.0, 0.0));
        assert!((zin.re - 70.7 * 70.7 / 100.0).abs() < 0.01);
        assert!(zin.im.abs() < 1e-9);
    }

    #[test]
    fn air_slab_at_eta0_is_transparent() {
        let gap = Abcd::air_gap(Meters::from_mm(11.0), F);
        let s = gap.to_s(ETA0);
        assert!(s.s11.abs() < 1e-9);
        assert!((s.s21.abs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fr4_slab_reflects_and_absorbs() {
        let slab = Slab::from_mm(Material::FR4, 4.0);
        let s = Abcd::slab(&slab, F).to_s(ETA0);
        // Impedance mismatch at the interfaces reflects…
        assert!(s.s11.abs() > 0.1, "S11 = {}", s.s11.abs());
        // …and tanδ dissipates.
        assert!(s.dissipated_fraction() > 0.005);
        assert!(s.is_passive(1e-9));
        assert!(s.is_reciprocal(1e-9));
    }

    #[test]
    fn reciprocity_of_passive_chains() {
        let net = Abcd::chain(&[
            Abcd::series(c64(3.0, 8.0)),
            Abcd::slab(&Slab::from_mm(Material::FR4, 1.0), F),
            Abcd::shunt(c64(0.001, 0.02)),
        ]);
        assert!(net.is_reciprocal(1e-9));
        let s = net.to_s(ETA0);
        assert!(s.is_reciprocal(1e-9));
    }

    #[test]
    fn transformer_matches_impedances() {
        // 2:1 transformer turns 50 Ω into 200 Ω at the input.
        let t = Abcd::transformer(2.0);
        let zin = t.input_impedance(c64(50.0, 0.0));
        assert!((zin.re - 200.0).abs() < 1e-9);
    }

    #[test]
    fn half_wave_slab_is_transparent() {
        // A lossless slab exactly λg/2 thick is reflectionless at any
        // impedance contrast (classic radome result).
        let lossless = Material {
            name: "lossless-er4",
            epsilon_r: 4.0,
            loss_tangent: 0.0,
            cost_usd_per_m2_mm: 0.0,
        };
        let lg = lossless.guided_wavelength(F);
        let slab = Slab::new(lossless, Meters(lg.0 / 2.0));
        let s = Abcd::slab(&slab, F).to_s(ETA0);
        assert!(s.s11.abs() < 1e-9, "S11 = {}", s.s11.abs());
        assert!((s.s21.abs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn efficiency_db_matches_insertion_loss() {
        let s = Abcd::series(c64(30.0, 10.0)).to_s(Z0);
        let eff = s.transmission_efficiency_db().0;
        let il = s.insertion_loss().0;
        assert!((eff + il).abs() < 1e-9, "efficiency = −insertion loss");
    }
}
