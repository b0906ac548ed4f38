//! Offline drop-in shim for the subset of the `rand` crate API this
//! workspace uses.
//!
//! The build environment has no network access to a cargo registry, so
//! instead of the real `rand` crate the workspace compiles this minimal,
//! dependency-free implementation. It provides:
//!
//! * [`RngCore`] / [`Rng`] / [`SeedableRng`] traits,
//! * [`rngs::StdRng`] — a deterministic xoshiro256++ generator seeded
//!   via SplitMix64 (`seed_from_u64` semantics),
//! * `gen::<T>()` for the primitive types the simulator draws, and
//! * `gen_range` over half-open and inclusive integer/float ranges.
//!
//! Determinism is the whole point: every simulation stream in the
//! workspace is seeded explicitly, so a stable, portable generator makes
//! experiments reproducible across machines.
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::{Rng, SeedableRng};
//!
//! let mut a = StdRng::seed_from_u64(7);
//! let mut b = StdRng::seed_from_u64(7);
//! assert_eq!(a.gen::<u64>(), b.gen::<u64>());
//! let x: f64 = a.gen();
//! assert!((0.0..1.0).contains(&x));
//! assert!((3..9).contains(&a.gen_range(3..9)));
//! ```

use std::ops::{Range, RangeInclusive};

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Returns the next random `u64`.
    fn next_u64(&mut self) -> u64;

    /// Returns the next random `u32`.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// Generators that can be constructed from seeds.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed (SplitMix64 expansion,
    /// matching the semantics of `rand::SeedableRng::seed_from_u64`).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types drawable "from the standard distribution" via [`Rng::gen`].
pub trait StandardSample {
    /// Draws one value from `rng`.
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for u16 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl StandardSample for u8 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl StandardSample for i64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as i64
    }
}

impl StandardSample for i32 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() as i32
    }
}

impl StandardSample for usize {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl StandardSample for bool {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for f64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Types that can be drawn uniformly from a range.
pub trait SampleUniform: PartialOrd + Copy {
    /// Uniform draw from `[low, high)` (or `[low, high]` when
    /// `inclusive`).
    fn sample_uniform<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        inclusive: bool,
    ) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<R: RngCore + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
                inclusive: bool,
            ) -> Self {
                let span = (high as i128 - low as i128) + if inclusive { 1 } else { 0 };
                assert!(span > 0, "cannot sample from empty range");
                let span = span as u128;
                // Multiply-shift uniform map; bias is < 2^-64, far below
                // anything the simulator's statistics could resolve.
                let word = rng.next_u64() as u128;
                let offset = (word * span) >> 64;
                (low as i128 + offset as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<R: RngCore + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
                inclusive: bool,
            ) -> Self {
                assert!(
                    low < high || (inclusive && low == high),
                    "cannot sample from empty range"
                );
                let unit = f64::standard_sample(rng) as $t;
                let value = low + (high - low) * unit;
                if value >= high && !inclusive {
                    low
                } else {
                    value
                }
            }
        }
    )*};
}

impl_sample_uniform_float!(f32, f64);

/// Range arguments accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a value from this range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_uniform(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_uniform(rng, low, high, true)
    }
}

/// High-level convenience methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value of type `T` from the standard distribution
    /// (uniform over the type's domain; `[0, 1)` for floats).
    fn gen<T: StandardSample>(&mut self) -> T {
        T::standard_sample(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T: SampleUniform, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic standard generator: xoshiro256++ with SplitMix64
    /// seed expansion. Not cryptographic — this is a simulation RNG.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        state: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut s = seed;
            Self {
                state: [
                    splitmix64(&mut s),
                    splitmix64(&mut s),
                    splitmix64(&mut s),
                    splitmix64(&mut s),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.state;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            let mut s2 = s2 ^ s0;
            let mut s3 = s3 ^ s1;
            let s1 = s1 ^ s2;
            let s0 = s0 ^ s3;
            s2 ^= t;
            s3 = s3.rotate_left(45);
            self.state = [s0, s1, s2, s3];
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_across_instances() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn unit_floats_in_range_and_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let i = rng.gen_range(3..9);
            assert!((3..9).contains(&i));
            let j = rng.gen_range(0u8..=7);
            assert!(j <= 7);
            let f = rng.gen_range(-2.5f64..2.5);
            assert!((-2.5..2.5).contains(&f));
            let u = rng.gen_range(0..1usize);
            assert_eq!(u, 0);
        }
    }

    #[test]
    fn gen_range_covers_every_bucket() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}
