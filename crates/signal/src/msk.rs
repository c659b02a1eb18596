//! Minimum Shift Keying modulation and demodulation (§II-B).
//!
//! > "In MSK, a bit '1' is represented as a phase difference of π/2 over a
//! > time interval t, whereas a bit '0' is represented as a phase difference
//! > of −π/2 over t."
//!
//! The modulator produces complex baseband samples `A·e^{iθ[n]}` whose phase
//! ramps linearly by `±π/2` per bit interval (continuous-phase, constant
//! envelope — exactly the property the energy equations of the ANC paper
//! rely on). The demodulator recovers each bit from the sign of the phase
//! difference accumulated across its interval.
//!
//! Sampling convention: a transmission of `B` bits is represented by
//! `B·samples_per_bit + 1` samples — sample `k·samples_per_bit` sits on the
//! boundary *before* bit `k`, so each bit's phase step is measured between
//! two boundary samples shared with its neighbours.

use crate::complex::Complex;
use std::f64::consts::FRAC_PI_2;

/// Configuration of the MSK baseband representation.
///
/// # Example
///
/// ```
/// use rfid_signal::{MskConfig, MskModulator, MskDemodulator};
///
/// let cfg = MskConfig::default();
/// let bits = vec![true, false, true, true, false];
/// let wave = MskModulator::new(cfg.clone()).modulate(&bits, 1.0, 0.0);
/// let decoded = MskDemodulator::new(cfg).demodulate(&wave);
/// assert_eq!(decoded, bits);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MskConfig {
    samples_per_bit: u32,
}

impl MskConfig {
    /// Creates a configuration with the given oversampling factor.
    ///
    /// # Panics
    ///
    /// Panics if `samples_per_bit == 0`.
    #[must_use]
    pub fn new(samples_per_bit: u32) -> Self {
        assert!(samples_per_bit > 0, "samples_per_bit must be positive");
        MskConfig { samples_per_bit }
    }

    /// Samples per bit interval.
    #[must_use]
    pub fn samples_per_bit(&self) -> u32 {
        self.samples_per_bit
    }

    /// Number of samples representing a transmission of `bits` bits
    /// (includes the shared leading boundary sample).
    #[must_use]
    pub fn samples_for_bits(&self, bits: usize) -> usize {
        bits * self.samples_per_bit as usize + 1
    }

    /// Number of bits represented by a waveform of `samples` samples, or
    /// `None` if the length is not of the form `B·spb + 1`.
    #[must_use]
    pub fn bits_for_samples(&self, samples: usize) -> Option<usize> {
        let spb = self.samples_per_bit as usize;
        if samples == 0 || !(samples - 1).is_multiple_of(spb) {
            return None;
        }
        Some((samples - 1) / spb)
    }
}

impl Default for MskConfig {
    /// Eight samples per bit — enough oversampling for the energy-equation
    /// window statistics while keeping 96-bit IDs at 769 samples.
    fn default() -> Self {
        MskConfig::new(8)
    }
}

/// MSK modulator: bit vector → complex baseband waveform.
///
/// MSK phases live on a fixed lattice: every sample's phase is
/// `θ0 + k·(π/2)/spb` for an integer lattice index `k`, and the lattice is
/// periodic with period `4·spb` (one full 2π turn). The modulator therefore
/// precomputes the `4·spb` unit rotations once and synthesizes each sample
/// as `A·e^{iθ0} · table[k mod 4·spb]` — one complex multiply instead of a
/// `sin_cos` call per sample, which removes the dominant libm cost of
/// waveform synthesis.
///
/// Every bit moves `k` by exactly `±spb`, so at each bit boundary `k` is
/// `q·spb` for a quadrant `q ∈ 0..4`, and the bit's `spb` samples depend
/// only on `(bit, q)`. Those eight runs are precomputed too: a bit costs
/// one quadrant step and a run of table entries, with no per-sample
/// index arithmetic.
#[derive(Debug, Clone)]
pub struct MskModulator {
    config: MskConfig,
    /// `runs[(bit·4 + q)·spb + j] = table[(q·spb ± (j + 1)) mod 4·spb]`,
    /// where `table[j] = e^{i·j·(π/2)/spb}`: the samples of a bit that
    /// starts at quadrant `q`, `+` for a 1.
    runs: Vec<Complex>,
}

impl MskModulator {
    /// Creates a modulator for the given configuration.
    #[must_use]
    pub fn new(config: MskConfig) -> Self {
        let spb = config.samples_per_bit as usize;
        let period = 4 * spb;
        let step = FRAC_PI_2 / spb as f64;
        let table: Vec<Complex> = (0..period)
            .map(|j| Complex::from_polar(1.0, j as f64 * step))
            .collect();
        let mut runs = Vec::with_capacity(2 * period);
        for bit in [false, true] {
            for q in 0..4 {
                for j in 1..=spb {
                    let k = if bit {
                        q * spb + j
                    } else {
                        q * spb + period - j
                    };
                    runs.push(table[k % period]);
                }
            }
        }
        MskModulator { config, runs }
    }

    /// Modulates `bits` into `bits.len()·spb + 1` samples of amplitude
    /// `amplitude`, starting from initial phase `theta0`.
    ///
    /// A constant phase offset (the channel's rotation) commutes with MSK's
    /// phase ramps: `modulate(bits, a, θ0) == modulate(bits, a, 0) · e^{iθ0}`.
    /// The ANC resolver exploits this to fold the unknown channel rotation
    /// into a single complex gain per component.
    #[must_use]
    pub fn modulate(&self, bits: &[bool], amplitude: f64, theta0: f64) -> Vec<Complex> {
        let mut samples = Vec::new();
        self.modulate_into(bits, amplitude, theta0, &mut samples);
        samples
    }

    /// Allocation-free [`MskModulator::modulate`]: clears `out` and fills
    /// it with the waveform, reusing its capacity. Produces bit-identical
    /// samples (same arithmetic, same order).
    pub fn modulate_into(
        &self,
        bits: &[bool],
        amplitude: f64,
        theta0: f64,
        out: &mut Vec<Complex>,
    ) {
        out.clear();
        out.resize(self.config.samples_for_bits(bits.len()), Complex::ZERO);
        self.modulate_to_slice(bits, amplitude, theta0, out);
    }

    /// [`MskModulator::modulate_into`] onto a pre-sized slice — the form
    /// the SoA arena uses to synthesize directly into a span. Performs the
    /// identical phase recurrence and `from_polar` calls, so samples are
    /// bit-identical to the `Vec` variants.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != samples_for_bits(bits.len())`.
    pub fn modulate_to_slice(
        &self,
        bits: &[bool],
        amplitude: f64,
        theta0: f64,
        out: &mut [Complex],
    ) {
        let spb = self.config.samples_per_bit as usize;
        assert_eq!(
            out.len(),
            self.config.samples_for_bits(bits.len()),
            "modulate_to_slice needs an exactly-sized span"
        );
        // One transcendental evaluation per waveform: the base rotor
        // carries amplitude and initial phase. Each bit then copies its
        // precomputed run and steps the quadrant with a compare-and-wrap,
        // so no sample pays index arithmetic (stepping `k` with `% period`
        // would cost a division per sample, the period being known only at
        // run time).
        let base = Complex::from_polar(amplitude, theta0);
        let mut q = 0usize;
        out[0] = base;
        for (&bit, span) in bits.iter().zip(out[1..].chunks_exact_mut(spb)) {
            let start = (usize::from(bit) * 4 + q) * spb;
            for (o, &t) in span.iter_mut().zip(&self.runs[start..start + spb]) {
                *o = base * t;
            }
            q = match (bit, q) {
                (true, 3) => 0,
                (true, _) => q + 1,
                (false, 0) => 3,
                (false, _) => q - 1,
            };
        }
    }

    /// The reference (unit-amplitude, zero-phase) waveform for `bits`, used
    /// as the regression basis by the ANC least-squares fit.
    #[must_use]
    pub fn reference(&self, bits: &[bool]) -> Vec<Complex> {
        self.modulate(bits, 1.0, 0.0)
    }

    /// Allocation-free [`MskModulator::reference`].
    pub fn reference_into(&self, bits: &[bool], out: &mut Vec<Complex>) {
        self.modulate_into(bits, 1.0, 0.0, out);
    }

    /// [`MskModulator::reference`] onto a pre-sized slice (see
    /// [`MskModulator::modulate_to_slice`]).
    pub fn reference_to_slice(&self, bits: &[bool], out: &mut [Complex]) {
        self.modulate_to_slice(bits, 1.0, 0.0, out);
    }
}

/// The bit decision `z.arg() > 0.0` without the `atan2`: true exactly when
/// `atan2(z.im, z.re)` is positive.
///
/// * Either part NaN: `atan2` is NaN, so false.
/// * `im > 0` (including `+∞`): `atan2` lies in `(0, π]` unless `re > 0`
///   makes it round to `+0` — `re = +∞` under a finite `im`, or an
///   underflowing quotient `im/re`. `im / re > 0.0` is exactly that
///   rounding test; `re == im` covers `+∞/+∞`, where `atan2` is `π/4`.
/// * `im = +0`: `atan2` is `+π` for `re < 0` or `re = −0`, else `+0`.
/// * `im = −0` or `im < 0`: `atan2` is `≤ 0`, so false.
#[inline]
fn phase_advances(z: Complex) -> bool {
    let (x, y) = (z.re, z.im);
    if y > 0.0 {
        x <= 0.0 || x == y || y / x > 0.0
    } else {
        y.to_bits() == 0 && x.is_sign_negative() && !x.is_nan()
    }
}

/// MSK demodulator: complex baseband waveform → bit vector.
#[derive(Debug, Clone)]
pub struct MskDemodulator {
    config: MskConfig,
}

impl MskDemodulator {
    /// Creates a demodulator for the given configuration.
    #[must_use]
    pub fn new(config: MskConfig) -> Self {
        MskDemodulator { config }
    }

    /// Demodulates as many whole bits as the waveform contains.
    ///
    /// Each bit is decided by the sign of the phase rotation between its two
    /// boundary samples, `arg(y[(k+1)·spb] · conj(y[k·spb]))`: positive → 1,
    /// negative → 0. This matches the paper's description of decoding
    /// "phase differences ... translated into the bit stream" and is robust
    /// to any constant phase offset and amplitude scaling.
    #[must_use]
    pub fn demodulate(&self, samples: &[Complex]) -> Vec<bool> {
        let mut bits = Vec::new();
        self.demodulate_into(samples, &mut bits);
        bits
    }

    /// Allocation-free [`MskDemodulator::demodulate`]: clears `out` and
    /// fills it with the decoded bits, reusing its capacity. Same decision
    /// statistic per bit, so the output is identical.
    pub fn demodulate_into(&self, samples: &[Complex], out: &mut Vec<bool>) {
        let spb = self.config.samples_per_bit as usize;
        out.clear();
        if samples.len() <= spb {
            return;
        }
        let nbits = (samples.len() - 1) / spb;
        out.reserve(nbits);
        for k in 0..nbits {
            let a = samples[k * spb];
            let b = samples[(k + 1) * spb];
            out.push(phase_advances(b * a.conj()));
        }
    }

    /// Demodulates and additionally reports a coarse confidence: the mean
    /// power of the whole waveform. Near-zero confidence indicates the
    /// residual after ANC subtraction contained no signal (e.g. after
    /// subtracting both components of a 2-collision).
    #[must_use]
    pub fn demodulate_with_confidence(&self, samples: &[Complex]) -> (Vec<bool>, f64) {
        let bits = self.demodulate(samples);
        let power = crate::complex::mean_power(samples);
        (bits, power)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip(bits: &[bool], amplitude: f64, theta0: f64) -> Vec<bool> {
        let cfg = MskConfig::default();
        let wave = MskModulator::new(cfg.clone()).modulate(bits, amplitude, theta0);
        MskDemodulator::new(cfg).demodulate(&wave)
    }

    #[test]
    fn simple_roundtrip() {
        let bits = vec![true, true, false, true, false, false, true];
        assert_eq!(roundtrip(&bits, 1.0, 0.0), bits);
    }

    #[test]
    fn roundtrip_with_phase_and_amplitude() {
        let bits = vec![false, true, false, false, true, true];
        assert_eq!(roundtrip(&bits, 0.37, 2.1), bits);
        assert_eq!(roundtrip(&bits, 10.0, -1.9), bits);
    }

    #[test]
    fn empty_bits_single_sample() {
        let cfg = MskConfig::default();
        let wave = MskModulator::new(cfg.clone()).modulate(&[], 1.0, 0.5);
        assert_eq!(wave.len(), 1);
        assert!(MskDemodulator::new(cfg).demodulate(&wave).is_empty());
    }

    #[test]
    fn constant_envelope() {
        let cfg = MskConfig::new(16);
        let bits: Vec<bool> = (0..40).map(|i| i % 3 == 0).collect();
        let wave = MskModulator::new(cfg).modulate(&bits, 2.5, 0.9);
        for s in &wave {
            assert!((s.norm() - 2.5).abs() < 1e-9);
        }
    }

    #[test]
    fn phase_offset_commutes() {
        // modulate(bits, a, θ0) == modulate(bits, a, 0) · e^{iθ0}
        let cfg = MskConfig::default();
        let bits = vec![true, false, false, true];
        let m = MskModulator::new(cfg);
        let rotated = m.modulate(&bits, 1.3, 0.7);
        let base = m.modulate(&bits, 1.3, 0.0);
        let phasor = Complex::cis(0.7);
        for (r, b) in rotated.iter().zip(base.iter()) {
            assert!((*r - *b * phasor).norm() < 1e-9);
        }
    }

    #[test]
    fn sample_count_formula() {
        let cfg = MskConfig::new(4);
        assert_eq!(cfg.samples_for_bits(0), 1);
        assert_eq!(cfg.samples_for_bits(96), 385);
        assert_eq!(cfg.bits_for_samples(385), Some(96));
        assert_eq!(cfg.bits_for_samples(384), None);
        assert_eq!(cfg.bits_for_samples(0), None);
    }

    #[test]
    fn short_waveform_yields_no_bits() {
        let cfg = MskConfig::new(8);
        let demod = MskDemodulator::new(cfg);
        assert!(demod.demodulate(&[Complex::ONE; 8]).is_empty());
        assert!(demod.demodulate(&[]).is_empty());
    }

    #[test]
    fn confidence_reflects_power() {
        let cfg = MskConfig::default();
        let bits = vec![true; 8];
        let wave = MskModulator::new(cfg.clone()).modulate(&bits, 2.0, 0.0);
        let (_, conf) = MskDemodulator::new(cfg).demodulate_with_confidence(&wave);
        assert!((conf - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "samples_per_bit must be positive")]
    fn zero_spb_panics() {
        let _ = MskConfig::new(0);
    }

    /// Values where `atan2` has a special case or rounds near zero.
    fn edge_values() -> Vec<f64> {
        let tiny = f64::from_bits(1); // smallest subnormal
        let mut v = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            tiny,
            2.0 * tiny,
            3.0 * tiny,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::EPSILON,
            1.0,
            1.5,
            2.0,
            2.5,
            3.0,
            1e-300,
            1e300,
            f64::MAX,
        ];
        let negated: Vec<f64> = v.iter().map(|x| -x).collect();
        v.extend(negated);
        v
    }

    #[test]
    fn sign_test_matches_atan2_on_edge_values() {
        let values = edge_values();
        for &re in &values {
            for &im in &values {
                let z = Complex::new(re, im);
                assert_eq!(phase_advances(z), z.arg() > 0.0, "re {re:e}, im {im:e}");
            }
        }
    }

    #[test]
    fn sign_test_matches_atan2_where_the_quotient_underflows() {
        // `atan2(y, x) ≈ y/x` rounds to +0 once the quotient drops below
        // half the smallest subnormal: sweep both sides of that edge.
        for m in 1..=64u64 {
            let y = f64::from_bits(m);
            for step in 0..=400 {
                let x = m as f64 * (1.0 + step as f64 / 100.0);
                for x in [x, x.next_up(), x.next_down()] {
                    let z = Complex::new(x, y);
                    assert_eq!(phase_advances(z), z.arg() > 0.0, "re {x:e}, im {y:e}");
                }
            }
        }
    }

    #[test]
    fn phase_stepping_matches_modulo_stepping() {
        let mut rng = StdRng::seed_from_u64(21);
        for spb in 1..=16u32 {
            let m = MskModulator::new(MskConfig::new(spb));
            let period = 4 * spb as usize;
            let step = FRAC_PI_2 / f64::from(spb);
            let table: Vec<Complex> = (0..period)
                .map(|j| Complex::from_polar(1.0, j as f64 * step))
                .collect();
            for len in [0usize, 1, 2, 5, 96] {
                let bits: Vec<bool> = (0..len).map(|_| rng.gen()).collect();
                let base = Complex::from_polar(0.8, 1.3);
                let mut expect = vec![base];
                let mut k = 0usize;
                for &bit in &bits {
                    for _ in 0..spb {
                        k = if bit {
                            (k + 1) % period
                        } else {
                            (k + period - 1) % period
                        };
                        expect.push(base * table[k]);
                    }
                }
                let got = m.modulate(&bits, 0.8, 1.3);
                assert_eq!(got.len(), expect.len());
                for (g, e) in got.iter().zip(&expect) {
                    assert_eq!(g.re.to_bits(), e.re.to_bits(), "spb {spb}");
                    assert_eq!(g.im.to_bits(), e.im.to_bits(), "spb {spb}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_sign_test_matches_atan2(re in any::<u64>(), im in any::<u64>()) {
            // Every bit pattern: NaNs, infinities, subnormals, both zeros.
            let z = Complex::new(f64::from_bits(re), f64::from_bits(im));
            prop_assert_eq!(phase_advances(z), z.arg() > 0.0);
        }

        #[test]
        fn prop_sign_test_matches_atan2_on_unit_scale(
            re in -2.0f64..2.0,
            im in -2.0f64..2.0,
        ) {
            let z = Complex::new(re, im);
            prop_assert_eq!(phase_advances(z), z.arg() > 0.0);
        }

        #[test]
        fn prop_roundtrip_any_bits(
            bits in proptest::collection::vec(any::<bool>(), 0..200),
            amplitude in 0.01f64..50.0,
            theta0 in -std::f64::consts::TAU..std::f64::consts::TAU,
        ) {
            prop_assert_eq!(roundtrip(&bits, amplitude, theta0), bits);
        }

        #[test]
        fn prop_roundtrip_survives_mild_noise(seed in any::<u64>()) {
            // SNR of ~20 dB must never flip a bit at spb=8.
            let mut rng = StdRng::seed_from_u64(seed);
            let bits: Vec<bool> = (0..96).map(|_| rng.gen()).collect();
            let cfg = MskConfig::default();
            let mut wave = MskModulator::new(cfg.clone()).modulate(&bits, 1.0, 0.3);
            crate::channel::add_awgn(&mut wave, 0.05, &mut rng);
            prop_assert_eq!(MskDemodulator::new(cfg).demodulate(&wave), bits);
        }
    }
}
