//! Complex-baseband signals: the USRP experiment's data plane.
//!
//! The paper's controlled experiments transmit a 500 kHz cosine and
//! sample the receiver at 1 MHz; received power is estimated from the
//! samples. This module provides tone generation, AWGN corruption at a
//! given noise floor, and tone-power extraction with a Goertzel
//! single-bin DFT — the same measurement chain GNU Radio provides the
//! authors.

use rand::Rng;
use rfmath::complex::{c64, Complex};
use rfmath::units::{Dbm, Hertz, Seconds, Watts};

/// A sampled complex-baseband capture.
#[derive(Clone, Debug)]
pub struct Capture {
    /// Sample rate.
    pub sample_rate: Hertz,
    /// IQ samples (√W scaling: |s|² is instantaneous power in watts).
    pub samples: Vec<Complex>,
}

impl Capture {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the capture holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Capture duration.
    pub fn duration(&self) -> Seconds {
        Seconds(self.samples.len() as f64 / self.sample_rate.0)
    }

    /// Mean power over the capture, watts.
    pub fn mean_power(&self) -> Watts {
        if self.samples.is_empty() {
            return Watts(0.0);
        }
        Watts(self.samples.iter().map(|s| s.norm_sqr()).sum::<f64>() / self.samples.len() as f64)
    }

    /// Single-bin DFT power at `tone` (Goertzel): the tone's power in
    /// watts, robust against broadband noise.
    pub fn tone_power(&self, tone: Hertz) -> Watts {
        if self.samples.is_empty() {
            return Watts(0.0);
        }
        let n = self.samples.len() as f64;
        let w = std::f64::consts::TAU * tone.0 / self.sample_rate.0;
        let mut acc = Complex::ZERO;
        for (k, s) in self.samples.iter().enumerate() {
            acc += *s * Complex::cis(-w * k as f64);
        }
        // Normalized DFT bin: |X/N|² estimates the tone power.
        Watts((acc / n).norm_sqr())
    }

    /// Tone power in dBm.
    pub fn tone_power_dbm(&self, tone: Hertz) -> Dbm {
        self.tone_power(tone).to_dbm()
    }
}

/// Generates a complex tone capture of amplitude `amplitude_w_sqrt`
/// (√W; tone power is its square), frequency `tone`, with optional
/// initial phase.
pub fn tone(
    sample_rate: Hertz,
    tone_freq: Hertz,
    amplitude_sqrt_w: f64,
    phase: f64,
    samples: usize,
) -> Capture {
    let w = std::f64::consts::TAU * tone_freq.0 / sample_rate.0;
    Capture {
        sample_rate,
        samples: (0..samples)
            .map(|k| Complex::from_polar(amplitude_sqrt_w, w * k as f64 + phase))
            .collect(),
    }
}

/// Adds circularly symmetric white Gaussian noise of total power
/// `noise_power` to a capture (in place), using the caller's RNG.
pub fn add_awgn<R: Rng + ?Sized>(capture: &mut Capture, noise_power: Watts, rng: &mut R) {
    for s in &mut capture.samples {
        *s += rfmath::rng::complex_gaussian(rng, noise_power.0);
    }
}

/// Builds the received capture for a link amplitude: a tone at
/// `tone_freq` whose complex amplitude is the link's receive-port
/// amplitude, plus AWGN at the receiver's noise floor.
pub fn received_tone<R: Rng + ?Sized>(
    rx_amplitude: Complex,
    sample_rate: Hertz,
    tone_freq: Hertz,
    noise_power: Watts,
    samples: usize,
    rng: &mut R,
) -> Capture {
    let mut cap = tone(
        sample_rate,
        tone_freq,
        rx_amplitude.abs(),
        rx_amplitude.arg(),
        samples,
    );
    add_awgn(&mut cap, noise_power, rng);
    cap
}

/// A single-shot RSSI-style power reading: the receiver reports
/// `|signal + noise|²` where the noise draw has the given *effective*
/// floor power (thermal + implementation + co-channel interference).
/// This is the measurement real IoT chips hand the controller — unlike
/// the Goertzel chain it does not integrate the noise away, so readings
/// of weak signals fluctuate by several dB. That fluctuation is the
/// mechanism behind the paper's low-power behaviour (Figures 19 and 23).
pub fn rssi_reading<R: Rng + ?Sized>(
    rx_amplitude: Complex,
    effective_noise: Watts,
    rng: &mut R,
) -> Dbm {
    let n = rfmath::rng::complex_gaussian(rng, effective_noise.0);
    Watts((rx_amplitude + n).norm_sqr()).to_dbm()
}

/// Estimates power (dBm) from repeated short captures, averaging in the
/// linear domain — the "average 30 seconds of received samples" recipe
/// of §4.
pub fn average_power_dbm(captures: &[Capture]) -> Dbm {
    if captures.is_empty() {
        return Dbm(f64::NEG_INFINITY);
    }
    let mean_w = captures.iter().map(|c| c.mean_power().0).sum::<f64>() / captures.len() as f64;
    Watts(mean_w).to_dbm()
}

/// Simple DC-block: subtracts the capture mean (used before respiration
/// rate analysis).
pub fn remove_dc(series: &[f64]) -> Vec<f64> {
    let m = rfmath::stats::mean(series);
    series.iter().map(|x| x - m).collect()
}

/// Goertzel power of a *real* series at a normalized frequency
/// (cycles per sample) — used on RSS time-series for respiration-band
/// analysis.
pub fn real_series_tone_power(series: &[f64], cycles_per_sample: f64) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    let w = std::f64::consts::TAU * cycles_per_sample;
    let mut acc = c64(0.0, 0.0);
    for (k, &x) in series.iter().enumerate() {
        acc += Complex::real(x) * Complex::cis(-w * k as f64);
    }
    (acc / series.len() as f64).norm_sqr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfmath::rng::SeedSplitter;

    #[test]
    fn tone_power_matches_amplitude() {
        // A tone of amplitude a has power a² (complex baseband).
        let cap = tone(
            Hertz::from_mhz(1.0),
            Hertz::from_khz(500.0),
            1e-3,
            0.0,
            4096,
        );
        let p = cap.mean_power().0;
        assert!((p - 1e-6).abs() / 1e-6 < 1e-12, "P = {p}");
        // Goertzel at the tone bin recovers the same power.
        let tp = cap.tone_power(Hertz::from_khz(500.0)).0;
        assert!((tp - 1e-6).abs() / 1e-6 < 1e-6, "tone P = {tp}");
    }

    #[test]
    fn goertzel_rejects_off_bin_noise() {
        let mut rng = SeedSplitter::new(1).stream("awgn");
        let mut cap = tone(
            Hertz::from_mhz(1.0),
            Hertz::from_khz(500.0),
            1e-3,
            0.3,
            8192,
        );
        add_awgn(&mut cap, Watts(1e-6), &mut rng);
        // Mean power includes all the noise…
        assert!(cap.mean_power().0 > 1.5e-6);
        // …but the tone bin sees the tone plus only noise/N.
        let tp = cap.tone_power(Hertz::from_khz(500.0)).0;
        assert!((tp - 1e-6).abs() / 1e-6 < 0.2, "tone P = {tp}");
    }

    #[test]
    fn snr_improves_with_capture_length() {
        let mut rng = SeedSplitter::new(2).stream("awgn");
        let measure = |n: usize, rng: &mut rand::rngs::StdRng| {
            let mut errs = 0.0;
            for _ in 0..20 {
                let mut cap = tone(Hertz::from_mhz(1.0), Hertz::from_khz(500.0), 1e-4, 0.0, n);
                add_awgn(&mut cap, Watts(1e-7), rng);
                let est = cap.tone_power(Hertz::from_khz(500.0)).0;
                errs += ((est - 1e-8) / 1e-8).abs();
            }
            errs / 20.0
        };
        let short = measure(256, &mut rng);
        let long = measure(8192, &mut rng);
        assert!(
            long < short,
            "longer captures estimate better: {long} vs {short}"
        );
    }

    #[test]
    fn received_tone_reflects_link_amplitude() {
        let mut rng = SeedSplitter::new(3).stream("awgn");
        let amp = Complex::from_polar(2e-5, 1.0); // −64 dBm-ish
        let cap = received_tone(
            amp,
            Hertz::from_mhz(1.0),
            Hertz::from_khz(500.0),
            Watts(1e-12),
            4096,
            &mut rng,
        );
        let est = cap.tone_power_dbm(Hertz::from_khz(500.0)).0;
        let expected = Watts(amp.norm_sqr()).to_dbm().0;
        assert!(
            (est - expected).abs() < 0.2,
            "{est:.2} vs {expected:.2} dBm"
        );
    }

    #[test]
    fn average_power_pools_captures() {
        let c1 = tone(Hertz::from_mhz(1.0), Hertz::from_khz(500.0), 1e-3, 0.0, 100);
        let c2 = tone(Hertz::from_mhz(1.0), Hertz::from_khz(500.0), 2e-3, 0.0, 100);
        let avg = average_power_dbm(&[c1, c2]);
        // Mean of 1 µW and 4 µW = 2.5 µW = −26.02 dBm.
        assert!((avg.0 - (-26.02)).abs() < 0.01, "avg = {avg}");
        assert_eq!(average_power_dbm(&[]).0, f64::NEG_INFINITY);
    }

    #[test]
    fn dc_removal_centers_series() {
        let xs = [1.0, 2.0, 3.0];
        let out = remove_dc(&xs);
        assert!((rfmath::stats::mean(&out)).abs() < 1e-12);
    }

    #[test]
    fn real_series_goertzel_finds_respiration_rate() {
        // A 0.25 Hz oscillation sampled at 10 Hz: 0.025 cycles/sample.
        let n = 600;
        let series: Vec<f64> = (0..n)
            .map(|k| (std::f64::consts::TAU * 0.025 * k as f64).sin())
            .collect();
        let on_bin = real_series_tone_power(&series, 0.025);
        let off_bin = real_series_tone_power(&series, 0.06);
        assert!(on_bin > 20.0 * off_bin, "on {on_bin} vs off {off_bin}");
    }
}
