//! Tag-count estimation.
//!
//! * [`schoute_backlog`] — the classic per-frame backlog estimate used by
//!   DFSA/EDFSA: an expected `≈ 2.39` tags occupy each collided slot when
//!   the frame is optimally sized.
//! * [`PreStepEstimator`] — a probabilistic-frame population estimator in
//!   the spirit of Kodialam-Nandagopal \[24\], usable as the pre-step the
//!   paper's SCAT assumes ("Its value can be estimated to an arbitrary
//!   accuracy in a pre-step of SCAT"). FCAT exists precisely to amortize
//!   this cost away, and the `ablation-estimator` experiment quantifies it.

use rand::rngs::StdRng;
use rfid_analysis::estimator::estimate_remaining_from_empties;
use rfid_sim::sampling::sample_binomial;
use rfid_sim::SimConfig;

/// Schoute's backlog factor: expected tags per collided slot at optimal
/// frame sizing (`(1 − 2/e)/(1 − 2/e) …` algebra yields ≈ 2.392).
pub const SCHOUTE_FACTOR: f64 = 2.392;

/// Estimated unread backlog after a frame with `collisions` collided slots.
#[must_use]
pub fn schoute_backlog(collisions: u32) -> f64 {
    SCHOUTE_FACTOR * f64::from(collisions)
}

/// Outcome of a pre-step estimation round.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PreStepOutcome {
    /// Estimated population size.
    pub estimate: f64,
    /// Slots consumed by the estimation.
    pub slots_used: u64,
    /// Air time consumed, in microseconds.
    pub elapsed_us: f64,
}

/// Probabilistic-frame population estimator (pre-step for SCAT).
///
/// This is the lightweight per-slot-Bernoulli probe wired into
/// [`InitialPopulation::PreStep`]. It is not the framed Kodialam-Nandagopal
/// scheme, in which each tag answers in at most one slot per frame.
///
/// [`InitialPopulation::PreStep`]: https://docs.rs/rfid-anc
///
/// The reader runs short frames in which every tag responds to each slot
/// with probability `p` (a short random string, not its full ID — so these
/// slots are cheaper than report slots; we charge them at one ack length).
/// `p` starts high and is geometrically refined: frames that are all-busy
/// halve `p`, frames that are all-empty raise it. Once the frame shows a
/// mixed empty/busy pattern, each frame's empty count inverts Eq. (7) into
/// a population estimate, and `rounds` such estimates are averaged.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PreStepEstimator {
    frame_size: u32,
    rounds: u32,
}

impl PreStepEstimator {
    /// Creates an estimator with the given measurement frame size and
    /// number of averaged measurement rounds.
    ///
    /// # Panics
    ///
    /// Panics if `frame_size == 0` or `rounds == 0`.
    #[must_use]
    pub fn new(frame_size: u32, rounds: u32) -> Self {
        assert!(frame_size > 0, "frame_size must be positive");
        assert!(rounds > 0, "rounds must be positive");
        PreStepEstimator { frame_size, rounds }
    }

    /// Simulates the estimation pre-step against a hidden population of
    /// `actual` tags, charging air time to the returned outcome.
    #[must_use]
    pub fn estimate(&self, actual: usize, config: &SimConfig, rng: &mut StdRng) -> PreStepOutcome {
        // Estimation slots carry only energy/no-energy information; charge
        // a short slot: guard + ack-length burst.
        let slot_us = config.timing().guard_us() + config.timing().ack_us();
        let mut slots_used: u64 = 0;
        let f = self.frame_size;

        if actual == 0 {
            // One all-empty probe frame at p = 1 settles it.
            return PreStepOutcome {
                estimate: 0.0,
                slots_used: u64::from(f),
                elapsed_us: f64::from(f) * slot_us,
            };
        }

        let mut p: f64 = 0.5;
        let mut last_saturated_p: Option<f64> = None;
        let mut estimates: Vec<f64> = Vec::with_capacity(self.rounds as usize);
        // Cap the search to keep the pre-step bounded even for absurd
        // populations; 96 halvings cover any feasible tag count.
        for _ in 0..96 {
            if estimates.len() >= self.rounds as usize {
                break;
            }
            let mut empties: u32 = 0;
            for _ in 0..f {
                slots_used += 1;
                if sample_binomial(actual, p, rng) == 0 {
                    empties += 1;
                }
            }
            if empties == 0 {
                // Saturated: too many responders; refine downward.
                last_saturated_p = Some(p);
                p /= 4.0;
                continue;
            }
            if empties == f {
                // Silent: p too low for the population (or tiny population).
                if p >= 0.99 {
                    estimates.push(0.0);
                    continue;
                }
                p = (p * 4.0).min(1.0);
                continue;
            }
            estimates.push(estimate_remaining_from_empties(empties, f, p.min(0.999)));
        }

        let estimate = if estimates.is_empty() {
            // Never found a usable operating point (pathological); report
            // the lower bound implied by the last frame that actually
            // saturated (not the once-more-divided probe value).
            f64::from(f) / last_saturated_p.unwrap_or(p).max(1e-12)
        } else {
            estimates.iter().sum::<f64>() / estimates.len() as f64
        };
        PreStepOutcome {
            estimate,
            slots_used,
            elapsed_us: slots_used as f64 * slot_us,
        }
    }
}

impl Default for PreStepEstimator {
    /// 32-slot measurement frames, 8 averaged rounds — ≈ 3 % accuracy for
    /// populations in the paper's range at a cost of a few hundred short
    /// slots.
    fn default() -> Self {
        PreStepEstimator::new(32, 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_sim::seeded_rng;

    #[test]
    fn schoute_values() {
        assert_eq!(schoute_backlog(0), 0.0);
        assert!((schoute_backlog(100) - 239.2).abs() < 1e-9);
    }

    #[test]
    fn estimates_within_tolerance() {
        let est = PreStepEstimator::new(32, 16);
        let config = SimConfig::default();
        for &n in &[100usize, 1_000, 10_000] {
            let mut errors = Vec::new();
            for seed in 0..8 {
                let mut rng = seeded_rng(seed);
                let out = est.estimate(n, &config, &mut rng);
                errors.push((out.estimate - n as f64).abs() / n as f64);
            }
            let mean_err = errors.iter().sum::<f64>() / errors.len() as f64;
            assert!(mean_err < 0.25, "n {n}: mean relative error {mean_err}");
        }
    }

    #[test]
    fn zero_population() {
        let est = PreStepEstimator::default();
        let out = est.estimate(0, &SimConfig::default(), &mut seeded_rng(1));
        assert_eq!(out.estimate, 0.0);
        assert!(out.slots_used > 0);
        assert!(out.elapsed_us > 0.0);
    }

    #[test]
    fn single_tag() {
        let est = PreStepEstimator::new(32, 8);
        let out = est.estimate(1, &SimConfig::default(), &mut seeded_rng(2));
        assert!(out.estimate < 10.0, "estimate {}", out.estimate);
    }

    #[test]
    fn cost_is_bounded() {
        let est = PreStepEstimator::new(32, 8);
        let out = est.estimate(1_000_000, &SimConfig::default(), &mut seeded_rng(3));
        assert!(out.slots_used <= 96 * 32);
        assert!(out.estimate > 100_000.0);
    }

    #[test]
    fn estimation_slots_cheaper_than_report_slots() {
        let config = SimConfig::default();
        let est = PreStepEstimator::default();
        let out = est.estimate(500, &config, &mut seeded_rng(4));
        let per_slot = out.elapsed_us / out.slots_used as f64;
        assert!(per_slot < config.timing().basic_slot_us());
    }

    #[test]
    #[should_panic(expected = "rounds must be positive")]
    fn zero_rounds_panics() {
        let _ = PreStepEstimator::new(32, 0);
    }
}
