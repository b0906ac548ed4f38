//! Deterministic randomness helpers.
//!
//! Every stochastic element of the simulator — fading taps, thermal
//! noise, RSSI jitter, report loss — draws from RNGs created here, seeded
//! explicitly from scenario parameters. That makes every experiment
//! reproducible bit-for-bit (a requirement for the benchmark harness) and
//! lets property tests shrink failures.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic RNG stream derived from a root seed and a stream label.
///
/// Different subsystems (fading vs noise vs packet loss) get *independent*
/// streams by label, so adding draws in one subsystem never perturbs
/// another — the classic trap with a single shared RNG.
#[derive(Clone, Debug)]
pub struct SeedSplitter {
    root: u64,
}

impl SeedSplitter {
    /// Creates a splitter from a root seed.
    pub fn new(root: u64) -> Self {
        Self { root }
    }

    /// Derives a child RNG for the given label.
    pub fn stream(&self, label: &str) -> StdRng {
        StdRng::seed_from_u64(mix(self.root, hash_label(label)))
    }

    /// Derives a child RNG for a label and numeric index (e.g. per-tap).
    pub fn stream_indexed(&self, label: &str, index: u64) -> StdRng {
        StdRng::seed_from_u64(mix(mix(self.root, hash_label(label)), index))
    }

    /// Derives a child splitter (for nested subsystems).
    pub fn child(&self, label: &str) -> SeedSplitter {
        SeedSplitter {
            root: mix(self.root, hash_label(label)),
        }
    }

    /// Derives a raw 64-bit seed for a label and index, for subsystems
    /// that take a plain `u64` seed instead of an RNG (e.g. a seeded
    /// propagation-environment realization). Equivalent to the seed
    /// behind [`SeedSplitter::stream_indexed`].
    pub fn derive(&self, label: &str, index: u64) -> u64 {
        mix(mix(self.root, hash_label(label)), index)
    }

    /// The root seed value.
    pub fn root(&self) -> u64 {
        self.root
    }
}

/// FNV-1a hash of a label string.
fn hash_label(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A fast [`Hasher`](std::hash::Hasher) for keys made of bit patterns
/// (`f64::to_bits` voltages, `(vx, vy)` pairs): each 64-bit word folds
/// in through the SplitMix64 finalizer, so keys whose low bits are all
/// zero — round voltages — still spread over a table's buckets. It
/// does less work per word than the standard library's SipHash and is
/// not resistant to chosen keys, so it is for keys the program makes.
#[derive(Clone, Copy, Debug, Default)]
pub struct MixHasher(u64);

impl std::hash::Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = mix(self.0, word);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`MixHasher`]s: `HashMap<K, V, MixState>`.
pub type MixState = std::hash::BuildHasherDefault<MixHasher>;

/// SplitMix64-style finalizer mixing two 64-bit words.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(31);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draws a standard normal via Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Draw u1 in (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draws a zero-mean Gaussian with the given standard deviation.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    standard_normal(rng) * sigma
}

/// Draws a circularly symmetric complex Gaussian with *total* variance
/// `sigma2` (i.e. `E[|z|²] = sigma2`) — the canonical Rayleigh-fading tap.
pub fn complex_gaussian<R: Rng + ?Sized>(rng: &mut R, sigma2: f64) -> crate::complex::Complex {
    let s = (sigma2 / 2.0).sqrt();
    crate::complex::c64(gaussian(rng, s), gaussian(rng, s))
}

/// Draws a Rayleigh-distributed magnitude with scale `sigma`
/// (mode of the distribution).
pub fn rayleigh<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    let u: f64 = 1.0 - rng.gen::<f64>();
    sigma * (-2.0 * u.ln()).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let s = SeedSplitter::new(42);
        let a: Vec<u32> = {
            let mut r = s.stream("fading");
            (0..8).map(|_| r.gen()).collect()
        };
        let b: Vec<u32> = {
            let mut r = s.stream("fading");
            (0..8).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn streams_differ_by_label() {
        let s = SeedSplitter::new(42);
        let a: u64 = s.stream("fading").gen();
        let b: u64 = s.stream("noise").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn streams_differ_by_index() {
        let s = SeedSplitter::new(7);
        let a: u64 = s.stream_indexed("tap", 0).gen();
        let b: u64 = s.stream_indexed("tap", 1).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn children_are_independent_of_sibling_labels() {
        let s = SeedSplitter::new(1);
        let c1 = s.child("env");
        let c2 = s.child("ctrl");
        assert_ne!(c1.root(), c2.root());
        // Same path gives same stream.
        let x: u64 = s.child("env").stream("taps").gen();
        let y: u64 = c1.stream("taps").gen();
        assert_eq!(x, y);
    }

    #[test]
    fn derive_matches_stream_indexed_and_separates() {
        let s = SeedSplitter::new(11);
        // Same (label, index) → same seed; different index → different.
        assert_eq!(s.derive("env", 4), s.derive("env", 4));
        assert_ne!(s.derive("env", 4), s.derive("env", 5));
        assert_ne!(s.derive("env", 4), s.derive("ctrl", 4));
        // Different roots decorrelate.
        assert_ne!(s.derive("env", 4), SeedSplitter::new(12).derive("env", 4));
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SeedSplitter::new(3).stream("g");
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| gaussian(&mut rng, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.15, "var={var}");
    }

    #[test]
    fn complex_gaussian_power() {
        let mut rng = SeedSplitter::new(5).stream("cg");
        let n = 20_000;
        let p: f64 = (0..n)
            .map(|_| complex_gaussian(&mut rng, 3.0).norm_sqr())
            .sum::<f64>()
            / n as f64;
        assert!((p - 3.0).abs() < 0.1, "E|z|²={p}");
    }

    #[test]
    fn rayleigh_is_positive_with_expected_mean() {
        let mut rng = SeedSplitter::new(9).stream("r");
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rayleigh(&mut rng, 1.0)).collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        let mean = xs.iter().sum::<f64>() / n as f64;
        let expected = (std::f64::consts::PI / 2.0_f64).sqrt();
        assert!((mean - expected).abs() < 0.02, "mean={mean}");
    }
}
