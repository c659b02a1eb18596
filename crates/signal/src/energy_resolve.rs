//! Energy-equation-driven resolution of 2-mixtures (§II-B, after Katti et
//! al. and Hamkins \[21\]).
//!
//! The joint least-squares resolver in [`crate::anc`] projects the mixture
//! onto the known component's reference waveform — a coherent, pilot-free
//! estimator that works for any `k`. The *original* ANC receiver worked
//! differently for the two-signal case: it first estimated the two
//! component **amplitudes** `A ≥ B` blindly from the energy statistics
//!
//! ```text
//! μ = E[|y[n]|²]              = A² + B²
//! σ = (2/W)·Σ_{|y|²>μ}|y[n]|² = A² + B² + 4AB/π
//! ```
//!
//! and then recovered the known component's **phase** from signal
//! structure. This module implements that style of receiver for the
//! reader-synchronized RFID setting: with the known component's bits in
//! hand, its complex gain is `A·e^{iψ}` for a single unknown phase `ψ`,
//! and MSK's constant envelope pins `ψ` down — at the correct phase, the
//! residual `y − A·e^{iψ}·s_known` has constant magnitude `B`, so `ψ` is
//! found by minimizing the residual's envelope variance over a grid plus
//! golden-section refinement.
//!
//! No experiment runs this receiver: `ablation-snr` and every protocol
//! path resolve with the LS resolver, and only the component benchmark
//! (`crates/bench/benches/components.rs`) and the input-robustness tests
//! (`tests/signal_robustness.rs`) call it. It is kept as the reference
//! form of the paper's original receiver.

use crate::anc::{estimate_two_amplitudes, AncError};
use crate::complex::Complex;
use crate::msk::{MskConfig, MskModulator};
use rfid_types::TagId;
use std::f64::consts::PI;

/// Resolves a 2-collision record with the energy-equation receiver:
/// blind amplitude split via μ/σ, envelope-consistency phase search,
/// subtraction, MSK demodulation, CRC check.
///
/// # Errors
///
/// * [`AncError::BadLength`] — `mixed` is not a whole-ID waveform.
/// * [`AncError::EmptyResidual`] — the estimated weak component carries
///   (almost) no energy: the "mixture" was a singleton of the known tag.
/// * [`AncError::CrcMismatch`] — the residual does not decode: more than
///   two components, or noise defeated the envelope search.
pub fn resolve_two_energy(
    mixed: &[Complex],
    known: TagId,
    cfg: &MskConfig,
) -> Result<TagId, AncError> {
    if cfg.bits_for_samples(mixed.len()) != Some(rfid_types::TAG_ID_BITS as usize) {
        return Err(AncError::BadLength {
            samples: mixed.len(),
        });
    }
    // Non-empty input is guaranteed by the length check above, so the
    // estimator cannot return None; treat the impossible case as a decode
    // failure rather than fabricating a bogus length error.
    let Some(est) = estimate_two_amplitudes(mixed) else {
        return Err(AncError::CrcMismatch);
    };
    if est.weaker < 1e-3 {
        return Err(AncError::EmptyResidual);
    }

    let modulator = MskModulator::new(cfg.clone());
    let reference = modulator.reference(&known.to_bits());

    // The known component could be the stronger or the weaker one; try the
    // better-fitting amplitude first, then the other.
    let mut candidates = [est.stronger, est.weaker];
    // Order by which amplitude better explains the correlation magnitude.
    let corr = crate::complex::inner_product(mixed, &reference).norm() / reference.len() as f64;
    if (corr - est.weaker).abs() < (corr - est.stronger).abs() {
        candidates.swap(0, 1);
    }

    for &amplitude in &candidates {
        let phase = best_phase(mixed, &reference, amplitude);
        let residual: Vec<Complex> = mixed
            .iter()
            .zip(&reference)
            .map(|(&y, &s)| y - s * Complex::from_polar(amplitude, phase))
            .collect();
        if let Some(id) = crate::anc::decode_singleton(&residual, cfg) {
            if id != known {
                return Ok(id);
            }
        }
    }
    Err(AncError::CrcMismatch)
}

/// Finds the phase `ψ` minimizing the envelope variance of
/// `y − A·e^{iψ}·s` — coarse grid, then golden-section refinement.
///
/// (Deliberately mirrors `rfid_analysis::omega`'s golden-section search;
/// the two crates do not depend on each other, so the ~20-line bracket
/// loop is duplicated rather than creating a shared math crate. Keep the
/// two in sync if the search is ever changed.)
fn best_phase(mixed: &[Complex], reference: &[Complex], amplitude: f64) -> f64 {
    let objective = |psi: f64| envelope_variance(mixed, reference, amplitude, psi);
    let mut best = (0.0f64, f64::INFINITY);
    let grid = 64;
    for k in 0..grid {
        let psi = 2.0 * PI * k as f64 / grid as f64;
        let v = objective(psi);
        if v < best.1 {
            best = (psi, v);
        }
    }
    // Golden-section refinement around the best grid cell.
    let span = 2.0 * PI / grid as f64;
    let (mut a, mut b) = (best.0 - span, best.0 + span);
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let mut c = b - (b - a) * INV_PHI;
    let mut d = a + (b - a) * INV_PHI;
    let (mut fc, mut fd) = (objective(c), objective(d));
    for _ in 0..60 {
        if fc <= fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * INV_PHI;
            fc = objective(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * INV_PHI;
            fd = objective(d);
        }
    }
    (a + b) / 2.0
}

/// Variance of the residual envelope `|y − A·e^{iψ}·s|` — zero exactly when
/// the remainder is a single constant-envelope component.
fn envelope_variance(mixed: &[Complex], reference: &[Complex], amplitude: f64, psi: f64) -> f64 {
    let gain = Complex::from_polar(amplitude, psi);
    let n = mixed.len() as f64;
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for (&y, &s) in mixed.iter().zip(reference) {
        let mag = (y - s * gain).norm();
        sum += mag;
        sum_sq += mag * mag;
    }
    let mean = sum / n;
    (sum_sq / n - mean * mean).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelModel, ChannelParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build_mixture(
        a: (TagId, f64, f64),
        b: (TagId, f64, f64),
        noise: f64,
        rng: &mut StdRng,
    ) -> Vec<Complex> {
        let cfg = MskConfig::default();
        let m = MskModulator::new(cfg);
        let pa = ChannelParams {
            attenuation: a.1,
            phase: a.2,
            freq_offset: 0.0,
        };
        let pb = ChannelParams {
            attenuation: b.1,
            phase: b.2,
            freq_offset: 0.0,
        };
        let wa = pa.apply(&m.reference(&a.0.to_bits()));
        let wb = pb.apply(&m.reference(&b.0.to_bits()));
        let mut mixed: Vec<Complex> = wa.iter().zip(&wb).map(|(&x, &y)| x + y).collect();
        ChannelModel::new((0.5, 1.0), noise.max(1e-12))
            .with_noise_std(noise)
            .add_noise(&mut mixed, rng);
        mixed
    }

    #[test]
    fn resolves_clean_two_mixture() {
        let cfg = MskConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut ok = 0;
        let trials = 20;
        for t in 0..trials {
            let ids = rfid_types::population::uniform(&mut rng, 2);
            let pa = rng.gen_range(0.0..std::f64::consts::TAU);
            let pb = rng.gen_range(0.0..std::f64::consts::TAU);
            let mixed = build_mixture((ids[0], 1.0, pa), (ids[1], 0.6, pb), 0.005, &mut rng);
            if resolve_two_energy(&mixed, ids[0], &cfg) == Ok(ids[1]) {
                ok += 1;
            } else {
                eprintln!("trial {t} failed");
            }
        }
        assert!(ok >= trials - 2, "only {ok}/{trials} resolved");
    }

    #[test]
    fn resolves_when_known_is_weaker() {
        let cfg = MskConfig::default();
        let mut rng = StdRng::seed_from_u64(2);
        let ids = rfid_types::population::uniform(&mut rng, 2);
        let mixed = build_mixture((ids[0], 0.55, 1.0), (ids[1], 0.95, 2.0), 0.005, &mut rng);
        assert_eq!(resolve_two_energy(&mixed, ids[0], &cfg), Ok(ids[1]));
    }

    #[test]
    fn singleton_of_known_reports_empty_residual_or_mismatch() {
        let cfg = MskConfig::default();
        let m = MskModulator::new(cfg.clone());
        let id = TagId::from_payload(5);
        let wave = m.modulate(&id.to_bits(), 0.8, 0.3);
        let err = resolve_two_energy(&wave, id, &cfg).unwrap_err();
        assert!(
            matches!(err, AncError::EmptyResidual | AncError::CrcMismatch),
            "{err}"
        );
    }

    #[test]
    fn heavy_noise_fails_gracefully() {
        let cfg = MskConfig::default();
        let mut rng = StdRng::seed_from_u64(3);
        let ids = rfid_types::population::uniform(&mut rng, 2);
        let mixed = build_mixture((ids[0], 1.0, 0.5), (ids[1], 0.6, 2.5), 0.8, &mut rng);
        assert!(resolve_two_energy(&mixed, ids[0], &cfg).is_err());
    }

    #[test]
    fn bad_length_rejected() {
        let cfg = MskConfig::default();
        assert_eq!(
            resolve_two_energy(&[Complex::ONE; 7], TagId::from_payload(1), &cfg),
            Err(AncError::BadLength { samples: 7 })
        );
    }

    #[test]
    fn ls_resolver_is_at_least_as_robust() {
        // Head-to-head at moderate noise: LS should succeed at least as
        // often as the energy receiver.
        let cfg = MskConfig::default();
        let mut rng = StdRng::seed_from_u64(4);
        let mut ls_ok = 0;
        let mut energy_ok = 0;
        let trials = 30;
        for _ in 0..trials {
            let ids = rfid_types::population::uniform(&mut rng, 2);
            let pa = rng.gen_range(0.0..std::f64::consts::TAU);
            let pb = rng.gen_range(0.0..std::f64::consts::TAU);
            let mixed = build_mixture((ids[0], 0.9, pa), (ids[1], 0.7, pb), 0.15, &mut rng);
            if crate::anc::resolve(&mixed, &[ids[0]], &cfg) == Ok(ids[1]) {
                ls_ok += 1;
            }
            if resolve_two_energy(&mixed, ids[0], &cfg) == Ok(ids[1]) {
                energy_ok += 1;
            }
        }
        assert!(
            ls_ok >= energy_ok,
            "LS {ls_ok}/{trials} vs energy {energy_ok}/{trials}"
        );
        assert!(ls_ok > 20, "LS {ls_ok}/{trials} unexpectedly weak");
    }
}
