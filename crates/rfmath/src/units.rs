//! Strongly typed RF units.
//!
//! Thin `f64` newtypes for the physical quantities the simulator passes
//! around, with the conversions that matter (dBm ↔ mW ↔ W, Hz ↔
//! wavelength, degrees ↔ radians). Keeping these as distinct types stops
//! the classic unit bugs — passing a dBm where a watt is expected, or a
//! frequency in GHz where Hz is expected — at compile time.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Speed of light in vacuum, m/s.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Boltzmann constant, J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Standard reference temperature for thermal noise, kelvin.
pub const T0_KELVIN: f64 = 290.0;

macro_rules! linear_unit {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// Zero value.
            pub const ZERO: $name = $name(0.0);

            /// Raw `f64` value.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> $name {
                $name(self.0.abs())
            }

            /// Smaller of two values.
            #[inline]
            pub fn min(self, other: $name) -> $name {
                $name(self.0.min(other.0))
            }

            /// Larger of two values.
            #[inline]
            pub fn max(self, other: $name) -> $name {
                $name(self.0.max(other.0))
            }

            /// Clamps into `[lo, hi]`.
            #[inline]
            pub fn clamp(self, lo: $name, hi: $name) -> $name {
                $name(self.0.clamp(lo.0, hi.0))
            }

            /// True when the value is finite.
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, r: $name) -> $name {
                $name(self.0 + r.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, r: $name) -> $name {
                $name(self.0 - r.0)
            }
        }

        impl Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, k: f64) -> $name {
                $name(self.0 * k)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, k: f64) -> $name {
                $name(self.0 / k)
            }
        }

        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, r: $name) -> f64 {
                self.0 / r.0
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, r: $name) {
                self.0 += r.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, r: $name) {
                self.0 -= r.0;
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", self.0, $suffix)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(p) = f.precision() {
                    write!(f, "{:.*}{}", p, self.0, $suffix)
                } else {
                    write!(f, "{}{}", self.0, $suffix)
                }
            }
        }
    };
}

linear_unit!(
    /// Frequency in hertz.
    Hertz,
    " Hz"
);
linear_unit!(
    /// Length / distance in meters.
    Meters,
    " m"
);
linear_unit!(
    /// Time in seconds.
    Seconds,
    " s"
);
linear_unit!(
    /// Electric potential in volts.
    Volts,
    " V"
);
linear_unit!(
    /// Capacitance in farads.
    Farads,
    " F"
);
linear_unit!(
    /// Inductance in henries.
    Henries,
    " H"
);
linear_unit!(
    /// Resistance in ohms.
    Ohms,
    " Ω"
);
linear_unit!(
    /// Current in amperes.
    Amperes,
    " A"
);
linear_unit!(
    /// Power in watts (linear scale).
    Watts,
    " W"
);
linear_unit!(
    /// Power ratio / gain in decibels (relative, logarithmic).
    Db,
    " dB"
);
linear_unit!(
    /// Absolute power in dB-milliwatts (logarithmic).
    Dbm,
    " dBm"
);
linear_unit!(
    /// Angle in degrees.
    Degrees,
    "°"
);
linear_unit!(
    /// Angle in radians.
    Radians,
    " rad"
);

impl Hertz {
    /// Constructs from a GHz value.
    #[inline]
    pub fn from_ghz(ghz: f64) -> Self {
        Hertz(ghz * 1e9)
    }

    /// Constructs from a MHz value.
    #[inline]
    pub fn from_mhz(mhz: f64) -> Self {
        Hertz(mhz * 1e6)
    }

    /// Constructs from a kHz value.
    #[inline]
    pub fn from_khz(khz: f64) -> Self {
        Hertz(khz * 1e3)
    }

    /// Value in GHz.
    #[inline]
    pub fn ghz(self) -> f64 {
        self.0 / 1e9
    }

    /// Value in MHz.
    #[inline]
    pub fn mhz(self) -> f64 {
        self.0 / 1e6
    }

    /// Free-space wavelength `λ = c / f`.
    #[inline]
    pub fn wavelength(self) -> Meters {
        Meters(SPEED_OF_LIGHT / self.0)
    }

    /// Angular frequency `ω = 2πf` in rad/s.
    #[inline]
    pub fn angular(self) -> f64 {
        2.0 * std::f64::consts::PI * self.0
    }

    /// Free-space wavenumber `k = 2π/λ` in rad/m.
    #[inline]
    pub fn wavenumber(self) -> f64 {
        self.angular() / SPEED_OF_LIGHT
    }
}

impl Meters {
    /// Constructs from centimeters.
    #[inline]
    pub fn from_cm(cm: f64) -> Self {
        Meters(cm / 100.0)
    }

    /// Constructs from millimeters.
    #[inline]
    pub fn from_mm(mm: f64) -> Self {
        Meters(mm / 1000.0)
    }

    /// Value in centimeters.
    #[inline]
    pub fn cm(self) -> f64 {
        self.0 * 100.0
    }

    /// Value in millimeters.
    #[inline]
    pub fn mm(self) -> f64 {
        self.0 * 1000.0
    }
}

impl Seconds {
    /// Value in milliseconds.
    #[inline]
    pub fn ms(self) -> f64 {
        self.0 * 1e3
    }
}

impl Farads {
    /// Constructs from picofarads.
    #[inline]
    pub fn from_pf(pf: f64) -> Self {
        Farads(pf * 1e-12)
    }

    /// Value in picofarads.
    #[inline]
    pub fn pf(self) -> f64 {
        self.0 * 1e12
    }
}

impl Henries {
    /// Constructs from nanohenries.
    #[inline]
    pub fn from_nh(nh: f64) -> Self {
        Henries(nh * 1e-9)
    }

    /// Value in nanohenries.
    #[inline]
    pub fn nh(self) -> f64 {
        self.0 * 1e9
    }
}

impl Watts {
    /// Constructs from milliwatts.
    #[inline]
    pub fn from_mw(mw: f64) -> Self {
        Watts(mw / 1e3)
    }

    /// Value in milliwatts.
    #[inline]
    pub fn mw(self) -> f64 {
        self.0 * 1e3
    }

    /// Converts to absolute dBm: [`Dbm::from_mw`] of the power in
    /// milliwatts. Non-positive power maps to −∞ dBm.
    #[inline]
    pub fn to_dbm(self) -> Dbm {
        Dbm::from_mw(self.mw())
    }
}

impl Dbm {
    /// The level of a power in linear milliwatts: `10·log10(mw)`, −∞ for
    /// `mw ≤ 0`, NaN for NaN and +∞ for +∞. Monotone non-decreasing
    /// (property-tested), so the level of a minimum or maximum of powers
    /// is the minimum or maximum of their levels, bit for bit.
    #[inline]
    pub fn from_mw(mw: f64) -> Dbm {
        if mw <= 0.0 {
            Dbm(f64::NEG_INFINITY)
        } else {
            Dbm(10.0 * mw.log10())
        }
    }

    /// Converts to linear watts.
    #[inline]
    pub fn to_watts(self) -> Watts {
        Watts(10f64.powf(self.0 / 10.0) / 1e3)
    }

    /// Converts to linear milliwatts.
    #[inline]
    pub fn to_mw(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Adds a relative gain/loss in dB.
    #[inline]
    pub fn gain(self, db: Db) -> Dbm {
        Dbm(self.0 + db.0)
    }

    /// Difference of two absolute levels, as a relative dB value.
    #[inline]
    pub fn minus(self, other: Dbm) -> Db {
        Db(self.0 - other.0)
    }
}

impl Db {
    /// Converts a linear power *ratio* to dB. Non-positive ratios map to −∞.
    #[inline]
    pub fn from_linear(ratio: f64) -> Db {
        if ratio <= 0.0 {
            Db(f64::NEG_INFINITY)
        } else {
            Db(10.0 * ratio.log10())
        }
    }

    /// Converts to a linear power ratio.
    #[inline]
    pub fn to_linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Converts an *amplitude* (field/voltage) ratio to dB (20·log10).
    #[inline]
    pub fn from_amplitude(ratio: f64) -> Db {
        if ratio <= 0.0 {
            Db(f64::NEG_INFINITY)
        } else {
            Db(20.0 * ratio.log10())
        }
    }

    /// Converts to an amplitude ratio.
    #[inline]
    pub fn to_amplitude(self) -> f64 {
        10f64.powf(self.0 / 20.0)
    }
}

impl Degrees {
    /// Converts to radians.
    #[inline]
    pub fn to_radians(self) -> Radians {
        Radians(self.0.to_radians())
    }

    /// Normalizes to `[0, 360)`.
    #[inline]
    pub fn normalized(self) -> Degrees {
        Degrees(self.0.rem_euclid(360.0))
    }

    /// Normalizes to `(-180, 180]`.
    pub fn wrapped(self) -> Degrees {
        let mut d = self.0.rem_euclid(360.0);
        if d > 180.0 {
            d -= 360.0;
        }
        Degrees(d)
    }
}

impl Radians {
    /// Converts to degrees.
    #[inline]
    pub fn to_degrees(self) -> Degrees {
        Degrees(self.0.to_degrees())
    }

    /// Normalizes to `(-π, π]`.
    pub fn wrapped(self) -> Radians {
        let tau = std::f64::consts::TAU;
        let mut r = self.0.rem_euclid(tau);
        if r > std::f64::consts::PI {
            r -= tau;
        }
        Radians(r)
    }
}

/// Thermal noise power `kTB` at the standard temperature, as dBm.
///
/// At 290 K this is the familiar −174 dBm/Hz plus `10·log10(bandwidth)`.
pub fn thermal_noise_dbm(bandwidth: Hertz) -> Dbm {
    Watts(BOLTZMANN * T0_KELVIN * bandwidth.0).to_dbm()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbm_round_trip() {
        for &mw in &[0.002, 1.0, 5.0, 100.0, 1000.0] {
            let p = Watts::from_mw(mw);
            let back = p.to_dbm().to_watts();
            assert!((back.mw() - mw).abs() / mw < 1e-12);
        }
    }

    #[test]
    fn known_dbm_values() {
        assert!((Watts::from_mw(1.0).to_dbm().0 - 0.0).abs() < 1e-12);
        assert!((Watts::from_mw(100.0).to_dbm().0 - 20.0).abs() < 1e-12);
        assert!((Watts(1.0).to_dbm().0 - 30.0).abs() < 1e-12);
        assert!((Dbm(-30.0).to_mw() - 0.001).abs() < 1e-15);
    }

    #[test]
    fn zero_power_is_negative_infinity_dbm() {
        assert_eq!(Watts(0.0).to_dbm().0, f64::NEG_INFINITY);
        assert_eq!(Db::from_linear(0.0).0, f64::NEG_INFINITY);
    }

    #[test]
    fn db_linear_round_trip() {
        for &db in &[-40.0, -3.0, 0.0, 10.0, 17.0] {
            assert!((Db(db).to_linear().log10() * 10.0 - db).abs() < 1e-12);
            assert!((Db::from_linear(Db(db).to_linear()).0 - db).abs() < 1e-12);
        }
    }

    #[test]
    fn amplitude_vs_power_db() {
        // An amplitude ratio of 10 is 20 dB.
        assert!((Db::from_amplitude(10.0).0 - 20.0).abs() < 1e-12);
        assert!((Db(6.0).to_amplitude() - 1.9952623).abs() < 1e-6);
    }

    #[test]
    fn wavelength_at_2_44_ghz() {
        let wl = Hertz::from_ghz(2.44).wavelength();
        assert!((wl.cm() - 12.286).abs() < 0.01, "λ = {} cm", wl.cm());
    }

    #[test]
    fn frequency_constructors() {
        assert_eq!(Hertz::from_ghz(2.4).0, 2.4e9);
        assert_eq!(Hertz::from_mhz(500.0).0, 5e8);
        assert_eq!(Hertz::from_khz(500.0).0, 5e5);
        assert!((Hertz::from_ghz(2.4).mhz() - 2400.0).abs() < 1e-9);
    }

    #[test]
    fn meters_conversions() {
        assert_eq!(Meters::from_cm(24.0).0, 0.24);
        assert_eq!(Meters::from_mm(5.0).0, 0.005);
        assert!((Meters(0.48).mm() - 480.0).abs() < 1e-9);
    }

    #[test]
    fn angle_wrapping() {
        assert!((Degrees(370.0).normalized().0 - 10.0).abs() < 1e-12);
        assert!((Degrees(190.0).wrapped().0 + 170.0).abs() < 1e-12);
        assert!((Degrees(-190.0).wrapped().0 - 170.0).abs() < 1e-12);
        let r = Radians(3.0 * std::f64::consts::PI).wrapped();
        assert!((r.0 - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn degree_radian_round_trip() {
        let d = Degrees(48.7);
        assert!((d.to_radians().to_degrees().0 - 48.7).abs() < 1e-12);
    }

    #[test]
    fn thermal_noise_1mhz() {
        // kTB for 1 MHz ≈ −114 dBm.
        let n = thermal_noise_dbm(Hertz::from_mhz(1.0));
        assert!((n.0 + 113.97).abs() < 0.05, "noise = {n}");
    }

    #[test]
    fn gain_arithmetic() {
        let p = Dbm(-30.0).gain(Db(15.0));
        assert!((p.0 + 15.0).abs() < 1e-12);
        assert!((Dbm(-25.0).minus(Dbm(-40.0)).0 - 15.0).abs() < 1e-12);
    }

    #[test]
    fn unit_ordering_and_clamp() {
        assert!(Dbm(-30.0) > Dbm(-45.0));
        assert_eq!(Volts(35.0).clamp(Volts(0.0), Volts(30.0)), Volts(30.0));
        assert_eq!(Hertz(5.0).max(Hertz(3.0)), Hertz(5.0));
    }

    #[test]
    fn farads_picofarads() {
        let c = Farads::from_pf(2.41);
        assert!((c.pf() - 2.41).abs() < 1e-12);
        assert!((c.0 - 2.41e-12).abs() < 1e-24);
    }

    #[test]
    fn display_formatting() {
        assert_eq!(format!("{:.1}", Dbm(-32.55)), "-32.5 dBm");
        assert_eq!(format!("{:.2}", Degrees(45.125)), "45.12°");
    }
}
