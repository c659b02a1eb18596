//! Residual-accumulation model for *cascaded* ANC resolution.
//!
//! The paper's reader resolves collision records in chains: an ID pulled
//! out of one record unlocks the next (`while S ≠ ∅`, §IV-D). Each hop of
//! such a chain subtracts reconstructed components whose gains were
//! *estimated*, never exact, so the subtraction error of hop `d` rides
//! along into hop `d+1`. Fyhn et al. and Ricciato & Castiglione both
//! observe that this residual accumulation — not the first subtraction —
//! is what limits collision-recovery throughput at low SNR.
//!
//! This module models the accumulation without re-simulating the whole
//! chain: the estimation error of one least-squares fit is proportional to
//! the receiver noise, so a hop at cascade depth `d` sees the original
//! AWGN plus an *extra* noise term whose variance compounds per hop:
//!
//! ```text
//! extra_var(d) = noise_std² · ((1 + r)^(d−1) − 1)
//! ```
//!
//! where `r` is the per-hop residual growth factor. Depth 1 (a record
//! resolved directly from fresh knowledge) adds nothing, and a noiseless
//! channel stays exact at every depth — least squares against a clean
//! mixture recovers the gains perfectly, so there is no error to
//! accumulate. That second property is what makes the protocol layer's
//! clean-channel runs byte-identical to the ideal resolution model.

use crate::anc::{self, AncError, ReferenceCache, ResolveScratch};
use crate::channel::{add_awgn, AwgnRng};
use crate::complex::{inner_product, mean_power, Complex};
use crate::msk::{MskConfig, MskModulator};
use rfid_types::TagId;

/// Standard deviation (per real dimension) of the *extra* noise a
/// resolution attempt at cascade depth `depth` suffers on top of the
/// channel's own `noise_std`, with per-hop residual growth factor
/// `residual_per_hop`.
///
/// Zero at `depth <= 1`, in a noiseless channel, or when the growth factor
/// is non-positive.
#[must_use]
pub fn cascade_noise_std(noise_std: f64, residual_per_hop: f64, depth: u32) -> f64 {
    if depth <= 1 || noise_std <= 0.0 || residual_per_hop <= 0.0 {
        return 0.0;
    }
    let growth = (1.0 + residual_per_hop).powi(depth as i32 - 1) - 1.0;
    noise_std * growth.sqrt()
}

/// Outcome of one signal-backed resolution attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolutionAttempt {
    /// The recovered ID, or why the attempt failed.
    pub recovered: Result<TagId, AncError>,
    /// Estimated SNR of the residual after subtraction, in dB: the power
    /// the subtraction left unexplained (minus the expected noise power)
    /// over the effective noise power. `f64::INFINITY` in a noiseless
    /// attempt; can go very negative when the residual is pure noise.
    pub residual_snr_db: f64,
}

/// Resolves one hop of a cascade against a recorded (or synthesized)
/// mixture: degrades the mixture by `extra_noise_std` of accumulated
/// subtraction error (see [`cascade_noise_std`]), subtracts the `known`
/// components by least squares, and CRC-decodes the residual.
///
/// `noise_floor_std` is the channel's own per-dimension noise standard
/// deviation; together with `extra_noise_std` it fixes the effective noise
/// power used for the reported residual SNR. With `extra_noise_std == 0`
/// the recovered result is exactly [`anc::resolve`]'s (the RNG is not
/// touched).
pub fn resolve_cascaded<R: AwgnRng + ?Sized>(
    mixed: &[Complex],
    known: &[TagId],
    cfg: &MskConfig,
    noise_floor_std: f64,
    extra_noise_std: f64,
    rng: &mut R,
) -> ResolutionAttempt {
    let mut cache = ReferenceCache::new(cfg);
    let mut scratch = ResolveScratch::default();
    resolve_cascaded_cached(
        mixed,
        known,
        cfg,
        noise_floor_std,
        extra_noise_std,
        rng,
        &mut cache,
        &mut scratch,
    )
}

/// [`resolve_cascaded`] against caller-owned working memory: the reference
/// cache amortizes basis modulation across a whole cascade frontier, and
/// `scratch` keeps the attempt allocation-free in steady state. Same RNG
/// draws, same arithmetic, bit-identical outcome.
#[allow(clippy::too_many_arguments)] // mirrors resolve_cascaded plus the two scratch handles
pub fn resolve_cascaded_cached<R: AwgnRng + ?Sized>(
    mixed: &[Complex],
    known: &[TagId],
    cfg: &MskConfig,
    noise_floor_std: f64,
    extra_noise_std: f64,
    rng: &mut R,
    cache: &mut ReferenceCache,
    scratch: &mut ResolveScratch,
) -> ResolutionAttempt {
    cache.ensure_all(known);
    if extra_noise_std > 0.0 {
        let mut degraded = std::mem::take(&mut scratch.degraded);
        degrade_into(mixed, extra_noise_std, rng, &mut degraded);
        let attempt = resolve_prepared(
            &degraded,
            known,
            cfg,
            noise_floor_std,
            extra_noise_std,
            cache,
            scratch,
        );
        scratch.degraded = degraded;
        attempt
    } else {
        resolve_prepared(
            mixed,
            known,
            cfg,
            noise_floor_std,
            extra_noise_std,
            cache,
            scratch,
        )
    }
}

/// Copies `mixed` into `out` and injects Gaussian noise of standard
/// deviation `extra_noise_std` per real dimension — the RNG-consuming half
/// of a cascaded attempt, split out so callers can hand it a *per-record
/// counter stream*. The noise comes from [`add_awgn`], one normal pair per
/// complex sample; realizations depend only on the stream handed in, never
/// on what other records drew.
pub fn degrade_into<R: AwgnRng + ?Sized>(
    mixed: &[Complex],
    extra_noise_std: f64,
    rng: &mut R,
    out: &mut Vec<Complex>,
) {
    out.clear();
    out.extend_from_slice(mixed);
    if extra_noise_std > 0.0 {
        add_awgn(out, extra_noise_std, rng);
    }
}

/// The pure (RNG-free) half of a cascaded resolution attempt: subtract the
/// `known` components of the already-degraded `samples` with pre-cached
/// references, score the residual SNR, and CRC-decode. The cache is only
/// read; results are bit-identical to [`resolve_cascaded`] on the same
/// `samples`.
///
/// # Panics
///
/// Panics if a `known` ID is missing from the cache.
pub fn resolve_prepared(
    samples: &[Complex],
    known: &[TagId],
    cfg: &MskConfig,
    noise_floor_std: f64,
    extra_noise_std: f64,
    cache: &ReferenceCache,
    scratch: &mut ResolveScratch,
) -> ResolutionAttempt {
    if cfg.bits_for_samples(samples.len()) != Some(rfid_types::TAG_ID_BITS as usize) {
        return ResolutionAttempt {
            recovered: Err(AncError::BadLength {
                samples: samples.len(),
            }),
            residual_snr_db: f64::NEG_INFINITY,
        };
    }
    let powers = match anc::subtract_known_prepared(samples, known, cache, scratch) {
        Ok(powers) => powers,
        Err(e) => {
            return ResolutionAttempt {
                recovered: Err(e),
                residual_snr_db: f64::NEG_INFINITY,
            }
        }
    };

    let residual_power = powers.residual;
    // Effective noise power per complex sample: channel AWGN plus the
    // injected accumulation term, each contributing 2σ².
    let noise_power = 2.0 * (noise_floor_std * noise_floor_std + extra_noise_std * extra_noise_std);
    let residual_snr_db = if noise_power > 0.0 {
        let signal = (residual_power - noise_power).max(0.0);
        if signal > 0.0 {
            10.0 * (signal / noise_power).log10()
        } else {
            f64::NEG_INFINITY
        }
    } else {
        f64::INFINITY
    };

    let floor = (anc::EMPTY_RESIDUAL_FRACTION * powers.samples).max(anc::EMPTY_RESIDUAL_POWER);
    let recovered = if residual_power < floor {
        Err(AncError::EmptyResidual)
    } else {
        // Past the floor the residual carries at least
        // EMPTY_RESIDUAL_POWER (or is NaN), so decode_singleton_with's own
        // silence check would pass: skip re-summing the power.
        let crate::anc::ResolveScratch { residual, bits, .. } = scratch;
        anc::decode_crc_valid(residual, cfg, bits).ok_or(AncError::CrcMismatch)
    };
    ResolutionAttempt {
        recovered,
        residual_snr_db,
    }
}

/// Resolves a record by *sequentially* peeling the `known` components one
/// at a time — the faithful waveform-path cascade that the closed-form
/// [`cascade_noise_std`] model approximates.
///
/// Where [`anc::subtract_known`] fits all known gains *jointly* (one least
/// squares over the full basis), each hop here fits only its own
/// component's complex gain against the **current residual** by scalar
/// least squares and subtracts it. The fit error of hop `d` — the
/// not-yet-subtracted components and channel noise leaking into the gain
/// estimate — stays in the residual that hop `d+1` fits against, which is
/// the physical accumulation mechanism the model compresses into
/// `extra_var(d)`. With a single known the scalar fit *is* the joint fit,
/// anchoring the two paths at depth 1.
///
/// The `calibrate` experiment runs matched trials through this function
/// and through [`resolve_cascaded`] to fit the model's per-hop residual
/// factor; no RNG is consumed here, so trials stay reproducible.
#[must_use]
pub fn peel_sequential(
    mixed: &[Complex],
    known: &[TagId],
    cfg: &MskConfig,
    noise_floor_std: f64,
) -> ResolutionAttempt {
    if cfg.bits_for_samples(mixed.len()) != Some(rfid_types::TAG_ID_BITS as usize) {
        return ResolutionAttempt {
            recovered: Err(AncError::BadLength {
                samples: mixed.len(),
            }),
            residual_snr_db: f64::NEG_INFINITY,
        };
    }

    let modulator = MskModulator::new(cfg.clone());
    let mut residual = mixed.to_vec();
    for id in known {
        let reference = modulator.reference(&id.to_bits());
        let energy = inner_product(&reference, &reference).re;
        if energy <= 0.0 {
            continue;
        }
        let gain = inner_product(&residual, &reference).scale(1.0 / energy);
        for (r, &s) in residual.iter_mut().zip(reference.iter()) {
            *r -= s * gain;
        }
    }

    let residual_power = mean_power(&residual);
    let noise_power = 2.0 * noise_floor_std * noise_floor_std;
    let residual_snr_db = if noise_power > 0.0 {
        let signal = (residual_power - noise_power).max(0.0);
        if signal > 0.0 {
            10.0 * (signal / noise_power).log10()
        } else {
            f64::NEG_INFINITY
        }
    } else {
        f64::INFINITY
    };

    let floor = (anc::EMPTY_RESIDUAL_FRACTION * mean_power(mixed)).max(anc::EMPTY_RESIDUAL_POWER);
    let recovered = if residual_power < floor {
        Err(AncError::EmptyResidual)
    } else {
        anc::decode_singleton(&residual, cfg).ok_or(AncError::CrcMismatch)
    };
    ResolutionAttempt {
        recovered,
        residual_snr_db,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anc::transmit_mixed;
    use crate::channel::ChannelModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cfg() -> MskConfig {
        MskConfig::default()
    }

    #[test]
    fn depth_one_adds_no_noise() {
        assert_eq!(cascade_noise_std(0.1, 0.25, 0), 0.0);
        assert_eq!(cascade_noise_std(0.1, 0.25, 1), 0.0);
        assert_eq!(cascade_noise_std(0.0, 0.25, 5), 0.0);
        assert_eq!(cascade_noise_std(0.1, 0.0, 5), 0.0);
    }

    #[test]
    fn extra_noise_grows_with_depth() {
        let at = |d| cascade_noise_std(0.1, 0.25, d);
        assert!(at(2) > 0.0);
        assert!(at(3) > at(2));
        assert!(at(6) > at(3));
        // Depth 2 variance is exactly r·σ².
        assert!((at(2) - 0.1 * 0.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn clean_channel_resolves_at_any_depth_without_rng() {
        let model = ChannelModel::default().noiseless();
        let mut rng = StdRng::seed_from_u64(1);
        let (a, b) = (TagId::from_payload(3), TagId::from_payload(4));
        let mixed = transmit_mixed(&[a, b], &cfg(), &model, &mut rng);
        let before = rng.clone();
        // Noiseless channel ⇒ cascade_noise_std is 0 at every depth ⇒ the
        // attempt is exact and the RNG is untouched.
        let extra = cascade_noise_std(model.noise_std(), 0.25, 7);
        let attempt = resolve_cascaded(&mixed, &[a], &cfg(), model.noise_std(), extra, &mut rng);
        assert_eq!(attempt.recovered, Ok(b));
        assert_eq!(attempt.residual_snr_db, f64::INFINITY);
        assert_eq!(rng.gen::<u64>(), before.clone().gen::<u64>());
    }

    #[test]
    fn matches_plain_resolve_with_no_extra_noise() {
        let model = ChannelModel::default().with_noise_std(0.01);
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (a, b) = (
                TagId::from_payload(100 + u128::from(seed)),
                TagId::from_payload(200 + u128::from(seed)),
            );
            let mixed = transmit_mixed(&[a, b], &cfg(), &model, &mut rng);
            let attempt = resolve_cascaded(&mixed, &[a], &cfg(), model.noise_std(), 0.0, &mut rng);
            assert_eq!(
                attempt.recovered,
                anc::resolve(&mixed, &[a], &cfg()),
                "seed {seed}"
            );
            assert!(attempt.residual_snr_db > 10.0, "seed {seed}");
        }
    }

    #[test]
    fn heavy_extra_noise_defeats_resolution() {
        let model = ChannelModel::default().with_noise_std(0.01);
        let mut failures = 0;
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(50 + seed);
            let (a, b) = (
                TagId::from_payload(10 + u128::from(seed)),
                TagId::from_payload(20 + u128::from(seed)),
            );
            let mixed = transmit_mixed(&[a, b], &cfg(), &model, &mut rng);
            let attempt = resolve_cascaded(&mixed, &[a], &cfg(), model.noise_std(), 0.8, &mut rng);
            if attempt.recovered != Ok(b) {
                failures += 1;
            }
        }
        assert!(failures >= 8, "only {failures}/10 failed under heavy noise");
    }

    /// The pre-fusion resolve: `subtract_known` (the allocating joint fit,
    /// Gram diagonal recomputed) and separate `mean_power` calls.
    fn unfused_resolve(
        samples: &[Complex],
        known: &[TagId],
        noise_floor_std: f64,
        extra_noise_std: f64,
    ) -> (ResolutionAttempt, Option<(Vec<Complex>, f64, f64)>) {
        let residual = match anc::subtract_known(samples, known, &cfg()) {
            Ok(r) => r,
            Err(e) => {
                let attempt = ResolutionAttempt {
                    recovered: Err(e),
                    residual_snr_db: f64::NEG_INFINITY,
                };
                return (attempt, None);
            }
        };
        let residual_power = mean_power(&residual);
        let sample_power = mean_power(samples);
        let noise_power =
            2.0 * (noise_floor_std * noise_floor_std + extra_noise_std * extra_noise_std);
        let residual_snr_db = if noise_power > 0.0 {
            let signal = (residual_power - noise_power).max(0.0);
            if signal > 0.0 {
                10.0 * (signal / noise_power).log10()
            } else {
                f64::NEG_INFINITY
            }
        } else {
            f64::INFINITY
        };
        let floor = (anc::EMPTY_RESIDUAL_FRACTION * sample_power).max(anc::EMPTY_RESIDUAL_POWER);
        let recovered = if residual_power < floor {
            Err(AncError::EmptyResidual)
        } else {
            anc::decode_singleton(&residual, &cfg()).ok_or(AncError::CrcMismatch)
        };
        let attempt = ResolutionAttempt {
            recovered,
            residual_snr_db,
        };
        (attempt, Some((residual, sample_power, residual_power)))
    }

    fn assert_bits_eq(a: f64, b: f64, what: &str) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
    }

    #[test]
    fn fused_resolve_matches_unfused_passes() {
        let mut cache = ReferenceCache::new(&cfg());
        let mut scratch = ResolveScratch::default();
        let mut outcomes = std::collections::BTreeSet::new();
        for (case, noise) in [0.0, 0.01, 0.2].into_iter().enumerate() {
            let model = ChannelModel::default().with_noise_std(noise);
            for seed in 0..6u64 {
                let mut rng = StdRng::seed_from_u64(700 + 10 * case as u64 + seed);
                let ids: Vec<TagId> = (0..4)
                    .map(|i| spread(1_000 * (u128::from(seed) + 1) + i))
                    .collect();
                for k in 1..=3usize {
                    let mixed = transmit_mixed(&ids[..=k], &cfg(), &model, &mut rng);
                    let everything = ids[..=k].to_vec();
                    let duplicated = vec![ids[0]; k + 1];
                    for known in [&ids[..k], &everything[..], &duplicated[..], &ids[1..=k]] {
                        for &id in known {
                            cache.ensure(id);
                        }
                        let got = resolve_prepared(
                            &mixed,
                            known,
                            &cfg(),
                            noise,
                            0.05,
                            &cache,
                            &mut scratch,
                        );
                        let (expect, passes) = unfused_resolve(&mixed, known, noise, 0.05);
                        assert_eq!(got.recovered, expect.recovered);
                        assert_bits_eq(got.residual_snr_db, expect.residual_snr_db, "snr");
                        outcomes.insert(format!("{:?}", expect.recovered.clone().map(|_| ())));
                        let powers =
                            anc::subtract_known_prepared(&mixed, known, &cache, &mut scratch);
                        match (powers, passes) {
                            (Ok(p), Some((residual, sample_power, residual_power))) => {
                                assert_bits_eq(p.samples, sample_power, "sample power");
                                assert_bits_eq(p.residual, residual_power, "residual power");
                                assert_eq!(scratch.residual.len(), residual.len());
                                for (g, e) in scratch.residual.iter().zip(&residual) {
                                    assert_bits_eq(g.re, e.re, "residual re");
                                    assert_bits_eq(g.im, e.im, "residual im");
                                }
                            }
                            (Err(e), None) => assert_eq!(Err(e), expect.recovered),
                            (p, r) => panic!("paths diverged: {p:?} vs {:?}", r.is_some()),
                        }
                    }
                }
            }
        }
        // The cases above must reach every outcome the floor and the fit
        // can produce, not just successful decodes.
        for outcome in ["Ok(())", "Err(CrcMismatch)", "Err(EmptyResidual)"] {
            assert!(
                outcomes.contains(outcome),
                "{outcome} never reached: {outcomes:?}"
            );
        }
        assert!(
            outcomes.iter().any(|o| o.starts_with("Err(GainFit")),
            "GainFit never reached: {outcomes:?}"
        );
    }

    #[test]
    fn fused_resolve_with_no_knowns_measures_the_samples() {
        let mut rng = StdRng::seed_from_u64(5);
        let mixed = transmit_mixed(&[spread(9)], &cfg(), &ChannelModel::default(), &mut rng);
        let cache = ReferenceCache::new(&cfg());
        let mut scratch = ResolveScratch::default();
        let powers = anc::subtract_known_prepared(&mixed, &[], &cache, &mut scratch).unwrap();
        assert_bits_eq(powers.samples, mean_power(&mixed), "sample power");
        assert_bits_eq(powers.residual, mean_power(&mixed), "residual power");
        assert_eq!(scratch.residual, mixed);
        let got = resolve_prepared(&mixed, &[], &cfg(), 0.01, 0.0, &cache, &mut scratch);
        assert_eq!(got, unfused_resolve(&mixed, &[], 0.01, 0.0).0);
        assert_eq!(got.recovered, Ok(spread(9)));
    }

    #[test]
    fn resolve_keeps_every_known_cached_when_the_cache_is_full() {
        // Regression: warming the knowns one by one cleared the full cache
        // for the second miss and evicted the first, so the subtraction
        // panicked on a reference it had just warmed.
        let model = ChannelModel::default().with_noise_std(0.01);
        let mut cache = ReferenceCache::new(&cfg());
        for i in 0..anc::MAX_CACHED_REFERENCES as u128 - 1 {
            cache.ensure(spread(50_000 + i));
        }
        let ids: Vec<TagId> = (1..=3).map(spread).collect();
        let mut rng = StdRng::seed_from_u64(17);
        let mixed = transmit_mixed(&ids, &cfg(), &model, &mut rng);
        let mut scratch = ResolveScratch::default();
        let attempt = resolve_cascaded_cached(
            &mixed,
            &ids[..2],
            &cfg(),
            model.noise_std(),
            0.0,
            &mut rng,
            &mut cache,
            &mut scratch,
        );
        assert_eq!(attempt.recovered, Ok(ids[2]));
        let fresh = resolve_cascaded(&mixed, &ids[..2], &cfg(), model.noise_std(), 0.0, &mut rng);
        assert_eq!(attempt, fresh, "cache state changed the outcome");
    }

    #[test]
    fn bad_length_reported() {
        let mut rng = StdRng::seed_from_u64(1);
        let attempt = resolve_cascaded(&[Complex::ONE; 10], &[], &cfg(), 0.01, 0.0, &mut rng);
        assert_eq!(attempt.recovered, Err(AncError::BadLength { samples: 10 }));
        let attempt = peel_sequential(&[Complex::ONE; 10], &[], &cfg(), 0.01);
        assert_eq!(attempt.recovered, Err(AncError::BadLength { samples: 10 }));
    }

    #[test]
    fn peel_matches_joint_fit_at_depth_one() {
        // With a single known component the scalar fit is exactly the
        // joint least squares, so the two paths agree hop for hop.
        let model = ChannelModel::default().with_noise_std(0.05);
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(300 + seed);
            let (a, b) = (
                TagId::from_payload(400 + u128::from(seed)),
                TagId::from_payload(500 + u128::from(seed)),
            );
            let mixed = transmit_mixed(&[a, b], &cfg(), &model, &mut rng);
            let joint = resolve_cascaded(&mixed, &[a], &cfg(), model.noise_std(), 0.0, &mut rng);
            let peel = peel_sequential(&mixed, &[a], &cfg(), model.noise_std());
            assert_eq!(peel.recovered, joint.recovered, "seed {seed}");
        }
    }

    /// Bit-spread payloads: IDs with nearly identical bit patterns have
    /// highly correlated MSK references (most of the waveform is shared),
    /// which no sequential peel can separate. Real populations draw
    /// full-range random IDs, so the tests do too.
    fn spread(i: u128) -> TagId {
        TagId::from_payload(i.wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835))
    }

    #[test]
    fn peel_resolves_deep_chain_on_quiet_channel() {
        let model = ChannelModel::default().with_noise_std(0.01);
        let mut rng = StdRng::seed_from_u64(31);
        let ids: Vec<TagId> = (1..=4).map(spread).collect();
        let mixed = transmit_mixed(&ids, &cfg(), &model, &mut rng);
        let attempt = peel_sequential(&mixed, &ids[..3], &cfg(), model.noise_std());
        assert_eq!(attempt.recovered, Ok(ids[3]));
        assert!(attempt.residual_snr_db > 10.0);
    }

    #[test]
    fn peel_failure_rate_grows_with_depth() {
        // The physical accumulation the closed-form model approximates:
        // at a noise level where direct resolution mostly works, a deep
        // sequential peel fails more often.
        let model = ChannelModel::default().with_noise_std(0.15);
        let mut failures = [0u32; 2];
        for seed in 0..40u64 {
            for (case, k) in [(0usize, 2usize), (1, 4)] {
                let mut rng = StdRng::seed_from_u64(9_000 + seed);
                let ids: Vec<TagId> = (0..k)
                    .map(|i| spread(100 * (u128::from(seed) + 1) + i as u128))
                    .collect();
                let mixed = transmit_mixed(&ids, &cfg(), &model, &mut rng);
                let attempt = peel_sequential(&mixed, &ids[..k - 1], &cfg(), model.noise_std());
                if attempt.recovered != Ok(ids[k - 1]) {
                    failures[case] += 1;
                }
            }
        }
        assert!(
            failures[1] > failures[0],
            "depth-3 failures {} <= depth-1 failures {}",
            failures[1],
            failures[0]
        );
    }
}
