//! Property-based tests for the power-unit conversions.
//!
//! The fleet search reduces probe rows in linear power and converts only
//! the reduced value to dBm. That is bitwise the per-entry conversion
//! only while the conversion never decreases, and libm's `log10` is not
//! proven monotone, so these tests are the premise the reduction rests
//! on: [`Watts::to_dbm`] and [`Dbm::from_mw`] never decrease, over
//! random pairs spanning every binade and over each power against the
//! next float up.

use proptest::prelude::*;
use rfmath::units::{Dbm, Watts};

/// Any non-NaN `f64`, every binade equally likely (subnormals, zeros,
/// negatives and infinities included).
fn any_power() -> impl Strategy<Value = f64> {
    any::<u64>()
        .prop_map(f64::from_bits)
        .prop_map(|x| if x.is_nan() { 0.0 } else { x })
}

/// A received power in watts across the span fleets see (−150 to
/// +30 dBm).
fn link_power() -> impl Strategy<Value = f64> {
    (-18.0f64..0.0).prop_map(|e| 10f64.powf(e))
}

/// The next float above a non-NaN `x` below +∞.
fn next_up(x: f64) -> f64 {
    if x == 0.0 {
        f64::from_bits(1)
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn to_dbm_never_decreases_over_random_pairs(a in any_power(), b in any_power()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (dlo, dhi) = (Watts(lo).to_dbm().0, Watts(hi).to_dbm().0);
        prop_assert!(dlo <= dhi, "{lo:e} W -> {dlo} dBm above {hi:e} W -> {dhi} dBm");
        let (mlo, mhi) = (Dbm::from_mw(lo).0, Dbm::from_mw(hi).0);
        prop_assert!(mlo <= mhi, "{lo:e} mW -> {mlo} dBm above {hi:e} mW -> {mhi} dBm");
    }

    #[test]
    fn to_dbm_never_decreases_against_the_next_float(x in any_power(), y in link_power()) {
        for x in [x, y] {
            prop_assume!(x < f64::INFINITY);
            let up = next_up(x);
            prop_assert!(Watts(x).to_dbm().0 <= Watts(up).to_dbm().0, "{x:e} W vs {up:e} W");
            prop_assert!(Dbm::from_mw(x).0 <= Dbm::from_mw(up).0, "{x:e} mW vs {up:e} mW");
        }
    }

}

#[test]
fn from_mw_maps_the_edges() {
    assert_eq!(Dbm::from_mw(0.0).0, f64::NEG_INFINITY);
    assert_eq!(Dbm::from_mw(-0.0).0, f64::NEG_INFINITY);
    assert_eq!(Dbm::from_mw(-1.0).0, f64::NEG_INFINITY);
    assert_eq!(Dbm::from_mw(f64::NEG_INFINITY).0, f64::NEG_INFINITY);
    assert_eq!(Dbm::from_mw(f64::INFINITY).0, f64::INFINITY);
    assert!(Dbm::from_mw(f64::NAN).0.is_nan());
    assert_eq!(Dbm::from_mw(1.0).0, 0.0);
    // A power whose milliwatts overflow reads +∞ dBm.
    assert_eq!(Watts(f64::MAX).to_dbm().0, f64::INFINITY);
}
