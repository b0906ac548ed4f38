//! Complex arithmetic for RF field quantities.
//!
//! A small, self-contained `f64` complex type. The simulator represents
//! phasors (field amplitudes, S-parameters, impedances, propagation
//! constants) as [`Complex`] values; implementing it here keeps the
//! workspace dependency-free and lets us expose exactly the operations
//! microwave theory needs (polar forms, principal arguments, square roots
//! on the physical branch).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + j·im` with `f64` components.
///
/// RF engineering convention: the imaginary unit is written `j` and time
/// dependence is `exp(+jωt)`, so a *lossy* wave attenuates as
/// `exp(-jγz)` with `Im(γ) < 0` for passive media.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Shorthand constructor: `c64(re, im)`.
#[inline]
pub const fn c64(re: f64, im: f64) -> Complex {
    Complex { re, im }
}

impl Complex {
    /// Additive identity.
    pub const ZERO: Complex = c64(0.0, 0.0);
    /// Multiplicative identity.
    pub const ONE: Complex = c64(1.0, 0.0);
    /// The imaginary unit `j`.
    pub const J: Complex = c64(0.0, 1.0);

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a purely imaginary complex number.
    #[inline]
    pub const fn imag(im: f64) -> Self {
        Self { re: 0.0, im }
    }

    /// Creates `r·exp(jθ)` from polar magnitude `r` and angle `theta` (radians).
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// `exp(jθ)` — a unit phasor at angle `theta` (radians).
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` (power of a unit-impedance phasor).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Principal argument in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns infinities when `z == 0`, mirroring `f64` division.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Self {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Complex exponential `exp(z)`.
    #[inline]
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }

    /// Principal natural logarithm.
    #[inline]
    pub fn ln(self) -> Self {
        Self {
            re: self.abs().ln(),
            im: self.arg(),
        }
    }

    /// Principal square root (branch cut on the negative real axis, result
    /// in the right half-plane) — the branch that keeps passive impedances
    /// passive (`Re √z ≥ 0`).
    pub fn sqrt(self) -> Self {
        if self.re == 0.0 && self.im == 0.0 {
            return Self::ZERO;
        }
        let r = self.abs();
        let theta = self.arg();
        Self::from_polar(r.sqrt(), theta / 2.0)
    }

    /// Complex power `z^w = exp(w · ln z)` on principal branches.
    pub fn powc(self, w: Self) -> Self {
        if self == Self::ZERO {
            return Self::ZERO;
        }
        (w * self.ln()).exp()
    }

    /// Real power `z^p`.
    pub fn powf(self, p: f64) -> Self {
        if self == Self::ZERO {
            return Self::ZERO;
        }
        let r = self.abs();
        let theta = self.arg();
        Self::from_polar(r.powf(p), theta * p)
    }

    /// Complex hyperbolic cosine (line-section ABCD entries).
    pub fn cosh(self) -> Self {
        // cosh(a + jb) = cosh a cos b + j sinh a sin b
        Self {
            re: self.re.cosh() * self.im.cos(),
            im: self.re.sinh() * self.im.sin(),
        }
    }

    /// Complex hyperbolic sine (line-section ABCD entries).
    pub fn sinh(self) -> Self {
        // sinh(a + jb) = sinh a cos b + j cosh a sin b
        Self {
            re: self.re.sinh() * self.im.cos(),
            im: self.re.cosh() * self.im.sin(),
        }
    }

    /// Complex tangent.
    pub fn tan(self) -> Self {
        // tan z = sin z / cos z ; computed via the real/hyperbolic split.
        let (s2, c2) = ((2.0 * self.re).sin(), (2.0 * self.re).cos());
        let (sh2, ch2) = ((2.0 * self.im).sinh(), (2.0 * self.im).cosh());
        let d = c2 + ch2;
        Self {
            re: s2 / d,
            im: sh2 / d,
        }
    }

    /// True when either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// True when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        c64(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        c64(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        c64(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sqr();
        c64(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        c64(-self.re, -self.im)
    }
}

impl Add<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: f64) -> Complex {
        c64(self.re + rhs, self.im)
    }
}

impl Sub<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: f64) -> Complex {
        c64(self.re - rhs, self.im)
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        c64(self.re / rhs, self.im / rhs)
    }
}

impl Add<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        rhs + self
    }
}

impl Sub<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        c64(self - rhs.re, -rhs.im)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        Complex::real(self) / rhs
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

impl fmt::Debug for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}{:+.6}j)", self.re, self.im)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(p) = f.precision() {
            write!(f, "{:.*}{:+.*}j", p, self.re, p, self.im)
        } else {
            write!(f, "{}{:+}j", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn constructors_and_constants() {
        assert_eq!(Complex::ZERO, c64(0.0, 0.0));
        assert_eq!(Complex::ONE, c64(1.0, 0.0));
        assert_eq!(Complex::J * Complex::J, -Complex::ONE);
        assert_eq!(Complex::real(3.0), c64(3.0, 0.0));
        assert_eq!(Complex::imag(-2.0), c64(0.0, -2.0));
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex::from_polar(2.5, 0.7);
        assert!((z.abs() - 2.5).abs() < TOL);
        assert!((z.arg() - 0.7).abs() < TOL);
    }

    #[test]
    fn cis_is_unit_magnitude() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::PI / 8.0;
            assert!((Complex::cis(theta).abs() - 1.0).abs() < TOL);
        }
    }

    #[test]
    fn field_arithmetic() {
        let a = c64(1.0, 2.0);
        let b = c64(-3.0, 0.5);
        assert!(((a + b) - c64(-2.0, 2.5)).abs() < TOL);
        assert!(((a - b) - c64(4.0, 1.5)).abs() < TOL);
        // (1+2j)(-3+0.5j) = -3 + 0.5j - 6j + j² = -4 - 5.5j
        assert!(((a * b) - c64(-4.0, -5.5)).abs() < TOL);
        assert!(((a / b) * b - a).abs() < TOL);
    }

    #[test]
    fn inverse_is_reciprocal() {
        let z = c64(0.3, -1.7);
        assert!((z * z.inv() - Complex::ONE).abs() < TOL);
    }

    #[test]
    fn conj_properties() {
        let z = c64(1.2, -0.8);
        assert!((z * z.conj()).im.abs() < TOL);
        assert!(((z * z.conj()).re - z.norm_sqr()).abs() < TOL);
    }

    #[test]
    fn exp_ln_round_trip() {
        let z = c64(0.4, 1.1);
        assert!((z.exp().ln() - z).abs() < 1e-10);
    }

    #[test]
    fn exp_of_j_pi_is_minus_one() {
        let z = Complex::imag(std::f64::consts::PI).exp();
        assert!((z - c64(-1.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn sqrt_principal_branch() {
        // √(-1) = +j on the principal branch.
        let z = Complex::real(-1.0).sqrt();
        assert!((z - Complex::J).abs() < TOL);
        // √z stays in the right half-plane.
        for &(re, im) in &[(3.0, 4.0), (-3.0, 4.0), (-3.0, -4.0), (3.0, -4.0)] {
            let s = c64(re, im).sqrt();
            assert!(s.re >= -TOL, "sqrt({re},{im}) left half plane: {s:?}");
            assert!((s * s - c64(re, im)).abs() < 1e-10);
        }
    }

    #[test]
    fn sqrt_of_zero() {
        assert_eq!(Complex::ZERO.sqrt(), Complex::ZERO);
    }

    #[test]
    fn powf_matches_repeated_multiplication() {
        let z = c64(1.1, -0.3);
        let z3 = z * z * z;
        assert!((z.powf(3.0) - z3).abs() < 1e-10);
    }

    #[test]
    fn powc_real_exponent_consistency() {
        let z = c64(0.8, 0.4);
        assert!((z.powc(Complex::real(2.0)) - z * z).abs() < 1e-10);
    }

    #[test]
    fn hyperbolic_identity() {
        // cosh² − sinh² = 1 for complex arguments too.
        let z = c64(0.3, 0.9);
        let id = z.cosh() * z.cosh() - z.sinh() * z.sinh();
        assert!((id - Complex::ONE).abs() < 1e-10);
    }

    #[test]
    fn tan_matches_real_tan_on_real_axis() {
        let z = Complex::real(0.6);
        assert!((z.tan().re - 0.6_f64.tan()).abs() < 1e-12);
        assert!(z.tan().im.abs() < 1e-12);
    }

    #[test]
    fn scalar_mixed_ops() {
        let z = c64(2.0, -1.0);
        assert_eq!(z + 1.0, c64(3.0, -1.0));
        assert_eq!(1.0 + z, c64(3.0, -1.0));
        assert_eq!(z * 2.0, c64(4.0, -2.0));
        assert_eq!(2.0 * z, c64(4.0, -2.0));
        assert!((1.0 / z * z - Complex::ONE).abs() < TOL);
    }

    #[test]
    fn sum_iterator() {
        let total: Complex = (0..10).map(|k| c64(k as f64, -(k as f64))).sum();
        assert_eq!(total, c64(45.0, -45.0));
    }

    #[test]
    fn display_formats() {
        let z = c64(1.25, -0.5);
        assert_eq!(format!("{z:.2}"), "1.25-0.50j");
    }
}
