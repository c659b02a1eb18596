//! Flat-fading channel model between a tag and the reader.
//!
//! Per §II-B, each component of a mixed signal arrives with its own channel
//! attenuation `h` and phase shift `γ`:
//! `y[n] = h'·A_s·e^{i(θ_s[n]+γ')} + h''·B_s·e^{i(φ_s[n]+γ'')}`.
//!
//! Tags are statically located during a reading round (§IV-E), so the
//! channel is modelled as a per-transmission complex gain (drawn once per
//! slot) plus additive white Gaussian noise at the reader.

use crate::complex::Complex;
use rand::rngs::StdRng;
use rand::Rng;
pub use rfid_types::hash::standard_normal_pair;
use rfid_types::hash::CounterRng;
use std::f64::consts::PI;

/// Draws a single standard-normal variate (the cosine half of
/// [`standard_normal_pair`]).
///
/// Scalar convenience for call sites that need exactly one variate; bulk
/// noise should go through [`add_awgn`], which uses both halves.
#[must_use]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    standard_normal_pair(rng).0
}

/// The one AWGN kernel: adds complex Gaussian noise of standard deviation
/// `std` per real dimension to every sample, one [`standard_normal_pair`]
/// per sample in sample order (`re += std·z0`, `im += std·z1`).
///
/// Receiver noise ([`ChannelModel::add_noise`]) and cascade degradation
/// ([`crate::cascade::degrade_into`]) both draw through here, so a stream
/// handed to either sees the same draws and is left in the same state.
/// How the pairs are drawn depends on the generator ([`AwgnRng`]); the
/// samples and the state left behind do not.
pub fn add_awgn<R: AwgnRng + ?Sized>(samples: &mut [Complex], std: f64, rng: &mut R) {
    rng.add_awgn_to(samples, std);
}

/// A generator [`add_awgn`] draws from. The default method draws one
/// [`standard_normal_pair`] per sample; a generator may override it with a
/// faster path that yields the same samples and leaves the same state.
pub trait AwgnRng: Rng {
    /// [`add_awgn`] on this generator.
    fn add_awgn_to(&mut self, samples: &mut [Complex], std: f64) {
        for s in samples {
            let (re, im) = standard_normal_pair(self);
            *s += Complex::new(std * re, std * im);
        }
    }
}

/// The sequential generator of seeded runs and experiments: one pair at a
/// time.
impl AwgnRng for StdRng {}

/// The per-`(record, hop)` noise stream: its pairs come from
/// [`CounterRng::standard_normal_pairs`], a block sampler (vectorized
/// for AVX-512 where the CPU has it), bit-identical to the pair loop.
impl AwgnRng for CounterRng {
    fn add_awgn_to(&mut self, samples: &mut [Complex], std: f64) {
        self.standard_normal_pairs(samples.len(), |i, re, im| {
            samples[i] += Complex::new(std * re, std * im);
        });
    }
}

/// The realized channel of one tag transmission: amplitude gain, phase
/// rotation (`h` and `γ` of §II-B), and residual carrier frequency offset.
///
/// In the RFID setting the tags are synchronized by the reader's signal
/// (§II-B: "transmissions in a RFID system can be synchronized by the
/// reader's signal"), so `freq_offset` defaults to zero — this is exactly
/// what makes the RFID collision-resolution problem *simpler* than Katti's
/// Alice-Bob case. A nonzero offset models free-running transmitter
/// oscillators, under which the relative phase of two components sweeps and
/// the paper's energy equations become accurate per-slot.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ChannelParams {
    /// Amplitude attenuation `h > 0`.
    pub attenuation: f64,
    /// Phase shift `γ` in radians.
    pub phase: f64,
    /// Residual carrier frequency offset in radians per sample.
    pub freq_offset: f64,
}

impl ChannelParams {
    /// The identity channel (no attenuation, no rotation, no offset).
    #[must_use]
    pub fn identity() -> Self {
        ChannelParams {
            attenuation: 1.0,
            phase: 0.0,
            freq_offset: 0.0,
        }
    }

    /// The complex gain `h·e^{iγ}` this channel multiplies onto the signal
    /// at sample 0.
    #[must_use]
    pub fn gain(&self) -> Complex {
        Complex::from_polar(self.attenuation, self.phase)
    }

    /// Applies this channel to a waveform (no noise): sample `n` is
    /// multiplied by `h·e^{i(γ + n·freq_offset)}`.
    #[must_use]
    pub fn apply(&self, samples: &[Complex]) -> Vec<Complex> {
        let mut out = samples.to_vec();
        self.apply_in_place(&mut out);
        out
    }

    /// In-place [`ChannelParams::apply`]: bit-identical samples, no
    /// allocation.
    pub fn apply_in_place(&self, samples: &mut [Complex]) {
        if self.freq_offset == 0.0 {
            let g = self.gain();
            for s in samples.iter_mut() {
                *s *= g;
            }
        } else {
            for (n, s) in samples.iter_mut().enumerate() {
                *s *=
                    Complex::from_polar(self.attenuation, self.phase + n as f64 * self.freq_offset);
            }
        }
    }
}

/// Statistical model from which per-transmission [`ChannelParams`] and
/// receiver noise are drawn.
///
/// Defaults: attenuation uniform in `[0.5, 1.0]` (tags at varying range,
/// none vanishing), phase uniform in `[0, 2π)`, and a noise standard
/// deviation of `0.01` per real dimension — ≈ 37 dB SNR for a unit-power
/// component, comfortably inside MSK's working region so that the paper's
/// "2-collision slots are resolvable" holds by default. The `ablation-snr`
/// experiment sweeps `noise_std` to find where it stops holding.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ChannelModel {
    attenuation_range: (f64, f64),
    noise_std: f64,
    max_freq_offset: f64,
}

impl ChannelModel {
    /// Creates a model with attenuation drawn uniformly from
    /// `attenuation_range` and AWGN of standard deviation `noise_std` per
    /// real dimension. Frequency offset defaults to zero (reader-
    /// synchronized tags); see [`ChannelModel::with_max_freq_offset`].
    ///
    /// # Panics
    ///
    /// Panics if the range is empty/non-positive or `noise_std < 0`.
    #[must_use]
    pub fn new(attenuation_range: (f64, f64), noise_std: f64) -> Self {
        let (lo, hi) = attenuation_range;
        assert!(
            lo > 0.0 && hi >= lo && hi.is_finite(),
            "attenuation range must satisfy 0 < lo <= hi"
        );
        assert!(
            noise_std >= 0.0 && noise_std.is_finite(),
            "noise_std must be >= 0"
        );
        ChannelModel {
            attenuation_range,
            noise_std,
            max_freq_offset: 0.0,
        }
    }

    /// Returns this model drawing per-transmission frequency offsets
    /// uniformly from `[-max, +max]` radians per sample.
    ///
    /// # Panics
    ///
    /// Panics if `max` is negative or non-finite.
    #[must_use]
    pub fn with_max_freq_offset(mut self, max: f64) -> Self {
        assert!(
            max >= 0.0 && max.is_finite(),
            "max_freq_offset must be >= 0"
        );
        self.max_freq_offset = max;
        self
    }

    /// A noiseless variant of this model (for exactness tests).
    #[must_use]
    pub fn noiseless(mut self) -> Self {
        self.noise_std = 0.0;
        self
    }

    /// Returns this model with a different noise standard deviation.
    #[must_use]
    pub fn with_noise_std(mut self, noise_std: f64) -> Self {
        assert!(noise_std >= 0.0 && noise_std.is_finite());
        self.noise_std = noise_std;
        self
    }

    /// Noise standard deviation per real dimension.
    #[must_use]
    pub fn noise_std(&self) -> f64 {
        self.noise_std
    }

    /// Attenuation range.
    #[must_use]
    pub fn attenuation_range(&self) -> (f64, f64) {
        self.attenuation_range
    }

    /// Maximum per-transmission frequency offset magnitude (rad/sample).
    #[must_use]
    pub fn max_freq_offset(&self) -> f64 {
        self.max_freq_offset
    }

    /// Draws channel parameters for one tag transmission.
    #[must_use]
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> ChannelParams {
        let (lo, hi) = self.attenuation_range;
        let attenuation = if hi > lo { rng.gen_range(lo..hi) } else { lo };
        let freq_offset = if self.max_freq_offset > 0.0 {
            rng.gen_range(-self.max_freq_offset..self.max_freq_offset)
        } else {
            0.0
        };
        ChannelParams {
            attenuation,
            phase: rng.gen_range(0.0..(2.0 * PI)),
            freq_offset,
        }
    }

    /// Adds receiver noise in place through [`add_awgn`]: one normal pair
    /// per complex sample, none at all in a noiseless model.
    pub fn add_noise<R: AwgnRng + ?Sized>(&self, samples: &mut [Complex], rng: &mut R) {
        if self.noise_std == 0.0 {
            return;
        }
        add_awgn(samples, self.noise_std, rng);
    }

    /// The mean per-sample SNR (in dB) of a single component of amplitude
    /// `a` under this model's noise. Noise power per complex sample is
    /// `2·noise_std²`.
    #[must_use]
    pub fn snr_db(&self, amplitude: f64) -> f64 {
        if self.noise_std == 0.0 {
            return f64::INFINITY;
        }
        let signal = amplitude * amplitude;
        let noise = 2.0 * self.noise_std * self.noise_std;
        10.0 * (signal / noise).log10()
    }
}

impl Default for ChannelModel {
    fn default() -> Self {
        ChannelModel::new((0.5, 1.0), 0.01)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_preserves_signal() {
        let samples = vec![Complex::new(1.0, 2.0), Complex::new(-0.5, 0.25)];
        assert_eq!(ChannelParams::identity().apply(&samples), samples);
    }

    #[test]
    fn gain_magnitude_matches_attenuation() {
        let p = ChannelParams {
            attenuation: 0.7,
            phase: 1.1,
            freq_offset: 0.0,
        };
        assert!((p.gain().norm() - 0.7).abs() < 1e-12);
        assert!((p.gain().arg() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn freq_offset_rotates_progressively() {
        let p = ChannelParams {
            attenuation: 1.0,
            phase: 0.0,
            freq_offset: 0.1,
        };
        let out = p.apply(&[Complex::ONE; 4]);
        for (n, s) in out.iter().enumerate() {
            assert!((s.arg() - 0.1 * n as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn model_draws_offset_within_bound() {
        let model = ChannelModel::new((0.5, 1.0), 0.0).with_max_freq_offset(0.02);
        let mut rng = StdRng::seed_from_u64(8);
        let mut saw_nonzero = false;
        for _ in 0..200 {
            let p = model.draw(&mut rng);
            assert!(p.freq_offset.abs() <= 0.02);
            saw_nonzero |= p.freq_offset != 0.0;
        }
        assert!(saw_nonzero);
        // Default model draws zero offset (reader-synchronized tags).
        assert_eq!(ChannelModel::default().draw(&mut rng).freq_offset, 0.0);
    }

    #[test]
    fn draw_within_range() {
        let model = ChannelModel::new((0.25, 0.75), 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let p = model.draw(&mut rng);
            assert!(p.attenuation >= 0.25 && p.attenuation < 0.75);
            assert!(p.phase >= 0.0 && p.phase < 2.0 * PI);
        }
    }

    #[test]
    fn degenerate_range_allowed() {
        let model = ChannelModel::new((0.5, 0.5), 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(model.draw(&mut rng).attenuation, 0.5);
    }

    #[test]
    fn noiseless_adds_nothing() {
        let model = ChannelModel::default().noiseless();
        let mut samples = vec![Complex::ONE; 16];
        let mut rng = StdRng::seed_from_u64(1);
        model.add_noise(&mut samples, &mut rng);
        assert!(samples.iter().all(|s| (*s - Complex::ONE).norm() == 0.0));
    }

    #[test]
    fn noise_statistics() {
        let model = ChannelModel::default().with_noise_std(0.5);
        let mut samples = vec![Complex::ZERO; 40_000];
        let mut rng = StdRng::seed_from_u64(2);
        model.add_noise(&mut samples, &mut rng);
        let power = crate::complex::mean_power(&samples);
        // E|n|² = 2σ² = 0.5
        assert!((power - 0.5).abs() < 0.02, "noise power {power}");
        let mean: Complex = samples
            .iter()
            .copied()
            .sum::<Complex>()
            .scale(1.0 / 40_000.0);
        assert!(mean.norm() < 0.01, "noise mean {mean:?}");
    }

    #[test]
    fn snr_formula() {
        let model = ChannelModel::default().with_noise_std(0.1);
        // signal 1, noise 0.02 → 16.99 dB
        assert!((model.snr_db(1.0) - 16.9897).abs() < 1e-3);
        assert_eq!(
            ChannelModel::default().noiseless().snr_db(1.0),
            f64::INFINITY
        );
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 60_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn pair_halves_are_uncorrelated_unit_normals() {
        // The polar transform's two halves are exactly independent N(0,1);
        // pin the sample moments and the cross-correlation of (z0, z1).
        let mut rng = StdRng::seed_from_u64(11);
        let n = 60_000;
        let pairs: Vec<(f64, f64)> = (0..n).map(|_| standard_normal_pair(&mut rng)).collect();
        for pick in [0usize, 1] {
            let xs: Vec<f64> = pairs
                .iter()
                .map(|&(a, b)| if pick == 0 { a } else { b })
                .collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
            assert!(mean.abs() < 0.02, "half {pick} mean {mean}");
            assert!((var - 1.0).abs() < 0.03, "half {pick} var {var}");
        }
        let cross = pairs.iter().map(|&(a, b)| a * b).sum::<f64>() / n as f64;
        assert!(cross.abs() < 0.02, "pair cross-correlation {cross}");
    }

    /// The AWGN kernel's oracle: a sequential pair loop.
    fn awgn_by_pairs<R: Rng>(samples: &mut [Complex], std: f64, rng: &mut R) {
        for s in samples.iter_mut() {
            let (z0, z1) = standard_normal_pair(rng);
            s.re += std * z0;
            s.im += std * z1;
        }
    }

    /// Lengths 0..=300 (every remainder of a 64-candidate block, several
    /// blocks deep) and 769, one MSK ID waveform, at several `std`.
    fn assert_awgn_matches_pairs<R: AwgnRng + Clone>(rng: R) {
        for len in (0..=300usize).chain([769]) {
            let clean: Vec<Complex> = (0..len)
                .map(|n| Complex::new((n as f64).sin(), -(n as f64 * 0.3).cos()))
                .collect();
            for std in [0.37, 1.0, 1e-3] {
                let (mut kernel_rng, mut oracle_rng) = (rng.clone(), rng.clone());
                let mut got = clean.clone();
                add_awgn(&mut got, std, &mut kernel_rng);
                let mut expect = clean.clone();
                awgn_by_pairs(&mut expect, std, &mut oracle_rng);
                for (g, e) in got.iter().zip(&expect) {
                    assert_eq!(g.re.to_bits(), e.re.to_bits(), "len {len}, std {std}");
                    assert_eq!(g.im.to_bits(), e.im.to_bits(), "len {len}, std {std}");
                }
                // Same draws consumed: the generators continue identically.
                assert_eq!(
                    kernel_rng.gen::<u64>(),
                    oracle_rng.gen::<u64>(),
                    "len {len}, std {std}"
                );
            }
        }
    }

    #[test]
    fn awgn_kernel_matches_pair_sequence_under_std_rng() {
        assert_awgn_matches_pairs(StdRng::seed_from_u64(17));
    }

    #[test]
    fn awgn_kernel_matches_pair_sequence_under_counter_rng() {
        let seed = rfid_sim::noise_stream_seed(17, 3, 2);
        assert_awgn_matches_pairs(rfid_sim::CounterRng::new(seed));
    }

    #[test]
    fn add_noise_and_degrade_share_the_kernel() {
        let model = ChannelModel::default().with_noise_std(0.2);
        let clean = vec![Complex::new(0.5, -0.25); 97];
        let mut noisy = clean.clone();
        model.add_noise(&mut noisy, &mut StdRng::seed_from_u64(4));
        let mut degraded = Vec::new();
        crate::cascade::degrade_into(&clean, 0.2, &mut StdRng::seed_from_u64(4), &mut degraded);
        assert_eq!(noisy, degraded);
    }

    /// Abramowitz & Stegun 7.1.26 erf approximation (max abs error 1.5e-7);
    /// good enough to bound a KS statistic at the 1e-2 scale.
    fn normal_cdf(x: f64) -> f64 {
        let t = 1.0 / (1.0 + 0.3275911 * x.abs() / std::f64::consts::SQRT_2);
        let poly = t
            * (0.254829592
                + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
        let erf = 1.0 - poly * (-x * x / 2.0).exp();
        if x >= 0.0 {
            0.5 * (1.0 + erf)
        } else {
            0.5 * (1.0 - erf)
        }
    }

    #[test]
    fn awgn_kernel_passes_ks_style_normality_check() {
        // KS distance of the empirical CDF against Φ over both halves of
        // unit-std noise on a zero signal. The 99% critical value at
        // n=20_000 is 1.63/√n ≈ 0.0115; the fixed seed keeps this
        // deterministic, and the bound fails loudly for e.g. a var-0.9 or
        // mean-0.05 stream.
        let n = 20_000;
        let mut noise = vec![Complex::ZERO; n / 2];
        add_awgn(&mut noise, 1.0, &mut StdRng::seed_from_u64(23));
        let mut draws: Vec<f64> = noise.iter().flat_map(|z| [z.re, z.im]).collect();
        draws.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut d_max = 0.0f64;
        for (i, x) in draws.iter().enumerate() {
            let phi = normal_cdf(*x);
            let lo = i as f64 / n as f64;
            let hi = (i + 1) as f64 / n as f64;
            d_max = d_max.max((phi - lo).abs()).max((hi - phi).abs());
        }
        assert!(d_max < 0.0115, "KS distance {d_max}");
        // 1σ/2σ/3σ coverage as a cheap cross-check on the same sample.
        for (k, expect, tol) in [
            (1.0, 0.6827, 0.01),
            (2.0, 0.9545, 0.006),
            (3.0, 0.9973, 0.003),
        ] {
            let frac = draws.iter().filter(|x| x.abs() < k).count() as f64 / n as f64;
            assert!((frac - expect).abs() < tol, "{k}σ coverage {frac}");
        }
    }

    #[test]
    #[should_panic(expected = "attenuation range")]
    fn bad_range_panics() {
        let _ = ChannelModel::new((0.0, 1.0), 0.0);
    }
}
