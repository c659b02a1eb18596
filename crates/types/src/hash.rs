//! The deterministic slot-membership hash `H(ID|i)` of §IV-A.
//!
//! In SCAT the reader advertises an `l`-bit integer `⌊p_i · 2^l⌋` rather than
//! a real-valued probability. A tag computes a hash `H(ID|i)` with range
//! `[0, 2^l)` and transmits its ID in slot `i` iff `H(ID|i) ≤ ⌊p_i · 2^l⌋`.
//!
//! Making the transmission decision a *deterministic function of (ID, slot)*
//! — rather than a private coin flip — is load-bearing for collision
//! resolution (§IV-B): once the reader learns an ID from a singleton slot it
//! can recompute `H(ID|j)` for every outstanding collision record `j` and
//! decide whether that tag's signal is a component of the recorded mixture.
//!
//! The hash here is a [SplitMix64](https://prng.di.unimi.it/splitmix64.c)
//! finalizer over a mix of the 96-bit ID and the 64-bit slot index: fast,
//! stateless, and with excellent avalanche behaviour (verified by the tests
//! below and by the chi-squared property test in `rfid-sim`).
//!
//! The same finalizer drives [`CounterRng`], the counter-based stream that
//! signal-backed resolution draws its Gaussian noise from, and its block
//! polar sampler [`CounterRng::standard_normal_pairs`].

use crate::TagId;
use rand::{Rng, RngCore};

/// Mixes one 64-bit word with the SplitMix64 finalizer.
#[inline]
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let y = splitmix64_premix(x);
    y ^ (y >> 31)
}

/// [`splitmix64`] without its last `y ^ (y >> 31)` step. That step leaves
/// bits 63..33 unchanged, so the top 31 bits of the two outputs agree.
#[inline(always)]
fn splitmix64_premix(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN_GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB)
}

/// The per-tag prefix of the slot-membership hash, precomputed once.
///
/// `slot_hash(id, slot)` is three SplitMix64 rounds, but the inner two mix
/// only the ID. Engines that evaluate the membership test for every tag in
/// every slot (Hash membership, §IV-A) cache this state per tag so the
/// per-slot cost drops to a single finalizer round.
///
/// Equivalence with the free functions is exact — see
/// [`TagHashState::slot_hash`] — and enforced by a property test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagHashState {
    prefix: u64,
}

impl TagHashState {
    /// Precomputes the ID-only mixing rounds of [`slot_hash`].
    #[inline]
    #[must_use]
    pub fn new(id: TagId) -> Self {
        let raw = id.raw_bits();
        let lo = raw as u64;
        let hi = (raw >> 64) as u64;
        let h = splitmix64(lo ^ 0xA076_1D64_78BD_642F);
        TagHashState {
            prefix: splitmix64(h ^ hi),
        }
    }

    /// The full-width hash `H(ID|slot)`; identical to
    /// [`slot_hash`]`(id, slot)` at one round of mixing.
    #[inline]
    #[must_use]
    pub fn slot_hash(self, slot: u64) -> u64 {
        splitmix64(self.prefix ^ slot)
    }

    /// The `l`-bit reduction; identical to [`slot_hash_bits`].
    ///
    /// # Panics
    ///
    /// Panics if `l == 0` or `l > 32`.
    #[inline]
    #[must_use]
    pub fn slot_hash_bits(self, slot: u64, l: u32) -> u64 {
        assert!((1..=32).contains(&l), "l must be in 1..=32, got {l}");
        self.slot_hash(slot) >> (64 - l)
    }

    /// The membership test against a precomputed `l`-bit threshold;
    /// identical to [`transmits`].
    ///
    /// Callers on the hot path compute the threshold once per slot with
    /// [`probability_threshold`] (and handle `p <= 0` themselves, as
    /// [`transmits_with_probability`] does).
    #[inline]
    #[must_use]
    pub fn transmits(self, slot: u64, threshold: u64, l: u32) -> bool {
        self.slot_hash_bits(slot, l) <= threshold
    }
}

/// States per block of [`scan_transmitters`]. On x86-64 with the default
/// target, 8 measured on par and 32 or more slower.
const SCAN_LANES: usize = 16;

/// Reports, in ascending order, every position `i` of `states` for which
/// `states[i].transmits(slot, threshold, l)` holds — the Hash-membership
/// scan of one slot (§IV-A), which every active tag runs in every slot.
///
/// The per-tag test is rewritten without changing its answer:
///
/// * `h >> (64 - l) <= t` is `h < (t + 1) << (64 - l)`, one compare against
///   a limit hoisted out of the loop. When `t >= 2^l - 1` every `l`-bit
///   value passes (and the limit would overflow), so every position is
///   reported without hashing.
/// * For `l <= 31` the compare uses the hash before the finalizer's last
///   `y ^ (y >> 31)`, which leaves bits 63..33 — and so the top `l` bits —
///   unchanged. `l = 32` needs bit 32, which that step changes, so it keeps
///   the full hash.
/// * States are taken 16 at a time and each block is reduced to
///   a branch-free "any hit?" flag; only a block whose flag is set is
///   rescanned to report its hits. At the probabilities FCAT/SCAT advertise
///   (about one transmitter per slot) almost no block is rescanned.
/// * On an x86-64 CPU with AVX-512F and AVX-512DQ the block scan runs as
///   a copy compiled for those features, where each block's 16 hashes
///   take native 64-bit vector multiplies; [`scan_kernel_name`] names the
///   copy in use. Integer arithmetic is exact, so both copies report the
///   same positions.
///
/// # Panics
///
/// Panics if `l == 0` or `l > 32`.
pub fn scan_transmitters(
    states: &[TagHashState],
    slot: u64,
    threshold: u64,
    l: u32,
    hit: impl FnMut(usize),
) {
    scan_on(Kernel::detect(), states, slot, threshold, l, hit);
}

/// The name of the block kernel [`scan_transmitters`] runs on this CPU:
/// `"avx512"` or `"scalar"`. Benchmarks record it, so Hash-membership
/// timings from different hosts can be told apart.
#[must_use]
pub fn scan_kernel_name() -> &'static str {
    Kernel::detect().name()
}

/// A compiled copy of a block kernel: the scan [`scan_below`] or the
/// polar candidates [`polar_candidates`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// Built for the default target.
    Scalar,
    /// Built with AVX-512F and AVX-512DQ enabled (x86-64 only).
    Avx512,
}

impl Kernel {
    /// The fastest copy this CPU can run.
    fn detect() -> Self {
        if avx512_detected() {
            Kernel::Avx512
        } else {
            Kernel::Scalar
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx512 => "avx512",
        }
    }
}

/// Whether this CPU has every feature [`scan_below_avx512`] and
/// [`polar_candidates_avx512`] enable.
/// std caches the answer, so a call costs a load and a bit test.
fn avx512_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// [`scan_transmitters`] on a given kernel copy.
fn scan_on(
    kernel: Kernel,
    states: &[TagHashState],
    slot: u64,
    threshold: u64,
    l: u32,
    mut hit: impl FnMut(usize),
) {
    assert!((1..=32).contains(&l), "l must be in 1..=32, got {l}");
    if threshold >= (1u64 << l) - 1 {
        (0..states.len()).for_each(hit);
        return;
    }
    let limit = (threshold + 1) << (64 - l);
    scan_below_on(kernel, states, slot, limit, l == 32, &mut hit);
}

/// Runs [`scan_below`] on `kernel`'s copy; one of the crate's two
/// `unsafe` calls (the other is [`polar_candidates_on`]).
/// An `Avx512` request on a CPU without those features runs the scalar
/// copy.
#[allow(unsafe_code)]
fn scan_below_on(
    kernel: Kernel,
    states: &[TagHashState],
    slot: u64,
    limit: u64,
    full: bool,
    hit: &mut impl FnMut(usize),
) {
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512 if avx512_detected() => {
            // SAFETY: `scan_below_avx512` enables `avx512f` and `avx512dq`,
            // and the guard's `avx512_detected` has just confirmed at
            // runtime (`is_x86_feature_detected!`) that this CPU has both.
            unsafe { scan_below_avx512(states, slot, limit, full, hit) }
        }
        _ if full => scan_below::<true>(states, slot, limit, hit),
        _ => scan_below::<false>(states, slot, limit, hit),
    }
}

/// [`scan_below`] compiled with AVX-512F and AVX-512DQ, whose `vpmullq`
/// multiplies eight 64-bit lanes at once: LLVM vectorizes each block's
/// "any hit?" fold onto it. The same source as the scalar copy, so the
/// same positions. There is no AVX2 copy: AVX2 has no 64-bit multiply,
/// and its emulated one bought nothing end to end (DESIGN §6, item 6).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn scan_below_avx512(
    states: &[TagHashState],
    slot: u64,
    limit: u64,
    full: bool,
    hit: &mut impl FnMut(usize),
) {
    if full {
        scan_below::<true>(states, slot, limit, hit);
    } else {
        scan_below::<false>(states, slot, limit, hit);
    }
}

/// The block scan of [`scan_transmitters`]: reports every position whose
/// hash is below `limit`, computing the full hash only when `FULL`.
#[inline(always)]
fn scan_below<const FULL: bool>(
    states: &[TagHashState],
    slot: u64,
    limit: u64,
    hit: &mut impl FnMut(usize),
) {
    let below = |state: &TagHashState| {
        let y = splitmix64_premix(state.prefix ^ slot);
        (if FULL { y ^ (y >> 31) } else { y }) < limit
    };
    let blocks = states.chunks_exact(SCAN_LANES);
    let tail = blocks.remainder();
    for (b, block) in blocks.enumerate() {
        if block.iter().fold(false, |any, state| any | below(state)) {
            for (i, state) in block.iter().enumerate() {
                if below(state) {
                    hit(b * SCAN_LANES + i);
                }
            }
        }
    }
    let tail_start = states.len() - tail.len();
    for (i, state) in tail.iter().enumerate() {
        if below(state) {
            hit(tail_start + i);
        }
    }
}

/// The SplitMix64 increment (Weyl constant).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A counter-based SplitMix64 generator: output `i` is
/// `finalize(seed + (i + 1)·γ)` — the canonical SplittableRandom sequence.
///
/// Unlike a sequential generator, construction is free (one `u64`) and
/// each output is three multiplies and some shifts, so signal-backed
/// resolution can afford a *fresh* stream per `(record, hop)` pair instead
/// of threading one sequential generator through the whole run. Because
/// output `i` is a pure function of the seed and `i`, a burst of draws can
/// also be generated in blocks: [`CounterRng::standard_normal_pairs`]
/// computes 64 candidate pairs at once. Statistical quality is ample for
/// AWGN synthesis (SplitMix64 passes BigCrush); it is **not** a
/// cryptographic generator.
#[derive(Debug, Clone)]
pub struct CounterRng {
    state: u64,
}

impl CounterRng {
    /// Creates the stream rooted at `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        CounterRng { state: seed }
    }

    /// Draws `n` standard-normal pairs and hands pair `i` to
    /// `emit(i, z0, z1)`, for `i` in `0..n` in order: exactly the pairs of
    /// `n` calls of [`standard_normal_pair`], and the same state left
    /// behind.
    ///
    /// Instead of a branch per candidate, a block sampler makes candidates
    /// 64 at a time from outputs `2k` and `2k + 1` of the stream; the
    /// accepted ones are then transformed in order with one scalar `ln`
    /// each, and the stream advances past the last candidate used
    /// (DESIGN §13). On a CPU with AVX-512F/DQ the candidates come from a
    /// copy compiled for those features ([`polar_kernel_name`]).
    pub fn standard_normal_pairs(&mut self, n: usize, emit: impl FnMut(usize, f64, f64)) {
        self.polar_blocks(Kernel::detect(), n, emit);
    }

    /// The block sampler of [`CounterRng::standard_normal_pairs`], its
    /// candidates made by `kernel`'s copy of [`polar_candidates`].
    fn polar_blocks(&mut self, kernel: Kernel, n: usize, mut emit: impl FnMut(usize, f64, f64)) {
        let mut block = PolarBlock {
            u: [0.0; POLAR_LANES],
            v: [0.0; POLAR_LANES],
            s: [0.0; POLAR_LANES],
        };
        let mut done = 0;
        while done < n {
            let accepted = polar_candidates_on(kernel, self.state, &mut block);
            let (mut used, consumed) = take_accepted(accepted, n - done);
            while used != 0 {
                let k = used.trailing_zeros() as usize;
                used &= used - 1;
                let f = polar_scale(block.s[k]);
                emit(done, block.u[k] * f, block.v[k] * f);
                done += 1;
            }
            // Candidate k used outputs 2k and 2k + 1.
            self.state = self
                .state
                .wrapping_add((2 * consumed as u64).wrapping_mul(GOLDEN_GAMMA));
        }
    }
}

/// Draws an independent standard-normal *pair* via one Marsaglia polar
/// transform (the offline `rand` 0.8 has no bundled normal distribution).
///
/// The polar method is the trig-free form of Box-Muller: rejection-sample a
/// point uniform in the unit disk (≈ 1.27 tries), then scale it by
/// `√(−2·ln s / s)` — the direction cosines come from the point itself, so
/// the per-pair cost is one `ln`/`sqrt` instead of Box-Muller's
/// `ln`/`sqrt`/[`f64::sin_cos`]. The transform is exact (both variates are
/// independent N(0,1), pinned by the moment and KS tests of the AWGN
/// kernel in `rfid-signal`), and both are returned so filling `n` normals
/// costs `n/2` transforms. Complex AWGN maps one pair onto one sample:
/// `(re, im) = (z0, z1)`.
///
/// The rejection loop draws a *variable* number of uniforms per pair, which
/// is harmless under per-`(record, hop)` counter streams: no other consumer
/// ever continues a stream mid-sequence, so draw counts never need to line
/// up across call sites.
#[must_use]
pub fn standard_normal_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    loop {
        let u = rng.gen::<f64>() * 2.0 - 1.0;
        let v = rng.gen::<f64>() * 2.0 - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            let f = polar_scale(s);
            return (u * f, v * f);
        }
    }
}

/// The polar method's scale `√(−2·ln s / s)` for an accepted `s`: libm
/// `ln`, then a correctly rounded division and square root.
#[inline(always)]
fn polar_scale(s: f64) -> f64 {
    (-2.0 * s.ln() / s).sqrt()
}

impl RngCore for CounterRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        // `splitmix64` already folds one γ increment into its finalizer,
        // so stepping the state by γ afterwards yields exactly
        // `finalize(seed + (i + 1)·γ)` per call.
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        out
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&bytes[..rest.len()]);
        }
    }
}

/// The name of the copy of the block sampler's candidate loop that
/// [`CounterRng::standard_normal_pairs`] runs on this CPU: `"avx512"` or
/// `"scalar"`. Benchmarks record it beside [`scan_kernel_name`].
#[must_use]
pub fn polar_kernel_name() -> &'static str {
    Kernel::detect().name()
}

/// Candidate pairs per block of [`CounterRng::standard_normal_pairs`].
const POLAR_LANES: usize = 64;

/// One block of polar candidates: `u`, `v` and `s = u² + v²` of
/// candidates `0..POLAR_LANES`.
struct PolarBlock {
    u: [f64; POLAR_LANES],
    v: [f64; POLAR_LANES],
    s: [f64; POLAR_LANES],
}

/// Runs [`polar_candidates`] on `kernel`'s copy; the crate's other
/// `unsafe` call, guarded as in [`scan_below_on`]. An `Avx512` request on
/// a CPU without those features runs the scalar copy.
#[allow(unsafe_code)]
fn polar_candidates_on(kernel: Kernel, base: u64, block: &mut PolarBlock) -> u64 {
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512 if avx512_detected() => {
            // SAFETY: `polar_candidates_avx512` enables `avx512f` and
            // `avx512dq`, and the guard's `avx512_detected` has just
            // confirmed at runtime (`is_x86_feature_detected!`) that this
            // CPU has both.
            unsafe { polar_candidates_avx512(base, block) }
        }
        _ => polar_candidates(base, block),
    }
}

/// [`polar_candidates`] compiled with AVX-512F and AVX-512DQ: LLVM runs
/// the finalizer on `vpmullq`, the integer-to-float conversion on
/// `vcvtqq2pd` and the accept test on mask compares, eight candidates at
/// a time. Every step is an exact integer operation or a correctly
/// rounded float one, so both copies produce the same bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn polar_candidates_avx512(base: u64, block: &mut PolarBlock) -> u64 {
    polar_candidates(base, block)
}

/// Phase 1 of the block sampler: candidate `k` of the block whose stream
/// state is `base` takes outputs `2k` and `2k + 1` as `u` and `v`, with
/// the arithmetic of `gen::<f64>() * 2.0 - 1.0`, and `s = u*u + v*v`
/// (Rust never fuses that into a multiply-add). Returns
/// [`accepted_mask`] of the block.
#[inline(always)]
fn polar_candidates(base: u64, block: &mut PolarBlock) -> u64 {
    let uniform = |x: u64| (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * 2.0 - 1.0;
    for k in 0..POLAR_LANES {
        let counter = base.wrapping_add((2 * k as u64).wrapping_mul(GOLDEN_GAMMA));
        let u = uniform(splitmix64(counter));
        let v = uniform(splitmix64(counter.wrapping_add(GOLDEN_GAMMA)));
        block.u[k] = u;
        block.v[k] = v;
        block.s[k] = u * u + v * v;
    }
    accepted_mask(&block.s)
}

/// The candidates the polar method accepts, as a mask: bit `k` is set
/// when `s[k]` lies in the open interval `(0, 1)`. No branch per
/// candidate.
#[inline(always)]
fn accepted_mask(s: &[f64; POLAR_LANES]) -> u64 {
    s.iter().enumerate().fold(0, |mask, (k, &s)| {
        mask | u64::from((s > 0.0) & (s < 1.0)) << k
    })
}

/// Phase 2's bookkeeping: which of the `accepted` candidates to use when
/// `need >= 1` more pairs are wanted (the lowest `need` bits, or all of
/// them), and how many candidates that uses up. When the block finishes
/// the burst that is the last one used plus one; otherwise it is the whole
/// block, whose trailing rejects the sequential loop would have drawn too.
fn take_accepted(accepted: u64, need: usize) -> (u64, usize) {
    debug_assert!(need >= 1);
    if (accepted.count_ones() as usize) < need {
        return (accepted, POLAR_LANES);
    }
    let mut rest = accepted;
    for _ in 0..need {
        rest &= rest - 1;
    }
    let used = accepted ^ rest;
    (used, POLAR_LANES - used.leading_zeros() as usize)
}

/// Computes the full-width 64-bit hash `H(ID|slot)`.
///
/// Both halves of the 96-bit ID and the slot index go through independent
/// mixing rounds so that IDs differing in any bit, or adjacent slot indices,
/// decorrelate completely.
#[inline]
#[must_use]
pub fn slot_hash(id: TagId, slot: u64) -> u64 {
    TagHashState::new(id).slot_hash(slot)
}

/// Reduces [`slot_hash`] to the `l`-bit range `[0, 2^l)` used by the
/// advertisement encoding.
///
/// # Panics
///
/// Panics if `l == 0` or `l > 32` (the paper uses small `l`; 16 in our
/// default configuration, and 32 is already far below the hash width).
#[inline]
#[must_use]
pub fn slot_hash_bits(id: TagId, slot: u64, l: u32) -> u64 {
    assert!((1..=32).contains(&l), "l must be in 1..=32, got {l}");
    slot_hash(id, slot) >> (64 - l)
}

/// Quantizes a report probability `p ∈ [0, 1]` to the advertised `l`-bit
/// threshold `⌊p · 2^l⌋` (§IV-A).
///
/// Values of `p` outside `[0, 1]` are clamped.
#[inline]
#[must_use]
pub fn probability_threshold(p: f64, l: u32) -> u64 {
    assert!((1..=32).contains(&l), "l must be in 1..=32, got {l}");
    let p = p.clamp(0.0, 1.0);
    (p * (1u64 << l) as f64).floor() as u64
}

/// The membership test itself: does `id` transmit in `slot` when the
/// advertised threshold is `threshold` (an `l`-bit integer)?
///
/// Matches the paper's rule `H(ID|i) ≤ ⌊p_i · 2^l⌋`. Note the paper's `≤`
/// with a *floor*: `p = 1` yields threshold `2^l`, which every `l`-bit hash
/// value satisfies, so `p = 1` forces all tags to transmit (used by the
/// termination probe, §IV-A).
#[inline]
#[must_use]
pub fn transmits(id: TagId, slot: u64, threshold: u64, l: u32) -> bool {
    slot_hash_bits(id, slot, l) <= threshold
}

/// The probability the hash test actually realizes for a requested `p`:
/// `(⌊p·2^l⌋ + 1) / 2^l`, clamped to `[0, 1]` (0 when `p ≤ 0`).
///
/// Because the paper's rule is `H(ID|i) ≤ ⌊p·2^l⌋` with an *inclusive*
/// comparison, the realized probability sits one quantum above the floor.
/// Simulations that shortcut the hash (drawing transmitter counts from a
/// binomial) must use this value, not the raw `p`, to stay
/// distribution-identical with the hash-gated path.
#[inline]
#[must_use]
pub fn effective_probability(p: f64, l: u32) -> f64 {
    if p <= 0.0 {
        return 0.0;
    }
    (((probability_threshold(p, l) + 1) as f64) / (1u64 << l) as f64).min(1.0)
}

/// Convenience: membership test directly from a real-valued probability.
#[inline]
#[must_use]
pub fn transmits_with_probability(id: TagId, slot: u64, p: f64, l: u32) -> bool {
    // p == 0 must mean "never transmits"; the paper's `<=` rule with
    // threshold 0 would still admit hash value 0, so special-case it.
    if p <= 0.0 {
        return false;
    }
    transmits(id, slot, probability_threshold(p, l), l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splitmix_known_values() {
        // First outputs of the reference splitmix64 stream seeded with 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    fn hash_is_deterministic() {
        let id = TagId::from_payload(123);
        assert_eq!(slot_hash(id, 5), slot_hash(id, 5));
        assert_ne!(slot_hash(id, 5), slot_hash(id, 6));
    }

    #[test]
    fn different_ids_hash_differently() {
        let a = TagId::from_payload(1);
        let b = TagId::from_payload(2);
        assert_ne!(slot_hash(a, 0), slot_hash(b, 0));
    }

    #[test]
    fn high_payload_bits_affect_hash() {
        // IDs that agree on the low 64 raw bits but differ above them.
        let a = TagId::from_raw_bits(0x0000_0000_0000_0000_1234_u128);
        let b = TagId::from_raw_bits((1u128 << 80) | 0x1234_u128);
        assert_ne!(slot_hash(a, 0), slot_hash(b, 0));
    }

    #[test]
    fn probability_one_always_transmits() {
        let l = 16;
        for payload in 0..200u128 {
            let id = TagId::from_payload(payload);
            assert!(transmits_with_probability(id, 9, 1.0, l));
        }
    }

    #[test]
    fn probability_zero_never_transmits() {
        let l = 16;
        for payload in 0..200u128 {
            let id = TagId::from_payload(payload);
            assert!(!transmits_with_probability(id, 9, 0.0, l));
        }
    }

    #[test]
    fn empirical_rate_tracks_probability() {
        let l = 16;
        let p = 0.3;
        let n = 20_000u128;
        let hits = (0..n)
            .filter(|&i| transmits_with_probability(TagId::from_payload(i), 42, p, l))
            .count();
        let rate = hits as f64 / n as f64;
        assert!(
            (rate - p).abs() < 0.02,
            "empirical rate {rate} too far from {p}"
        );
    }

    #[test]
    fn effective_probability_matches_hash_admission() {
        let l = 16;
        // The hash admits threshold+1 of the 2^l values.
        for p in [1e-5, 0.001, 0.3, 0.999] {
            let expected = (probability_threshold(p, l) + 1) as f64 / 65536.0;
            assert!((effective_probability(p, l) - expected).abs() < 1e-15);
        }
        assert_eq!(effective_probability(0.0, l), 0.0);
        assert_eq!(effective_probability(-1.0, l), 0.0);
        assert_eq!(effective_probability(1.0, l), 1.0);
        // At tiny p the inclusive comparison matters: p = 2.83e-5 realizes
        // 2/65536, not 1.85/65536.
        let p = 1.414 / 50_000.0;
        assert!((effective_probability(p, l) - 2.0 / 65536.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_clamps() {
        assert_eq!(probability_threshold(-0.5, 8), 0);
        assert_eq!(probability_threshold(2.0, 8), 256);
        assert_eq!(probability_threshold(0.5, 8), 128);
    }

    #[test]
    #[should_panic(expected = "l must be in 1..=32")]
    fn zero_l_panics() {
        let _ = slot_hash_bits(TagId::from_payload(0), 0, 0);
    }

    /// The positions the per-tag test admits, in order: the scan's oracle.
    fn reference_scan(states: &[TagHashState], slot: u64, threshold: u64, l: u32) -> Vec<usize> {
        (0..states.len())
            .filter(|&i| states[i].transmits(slot, threshold, l))
            .collect()
    }

    /// Every kernel copy this CPU runs: the scalar one always, then the
    /// one [`scan_transmitters`] picks if it is wider.
    fn kernels() -> Vec<Kernel> {
        let mut kernels = vec![Kernel::Scalar];
        if Kernel::detect() != Kernel::Scalar {
            kernels.push(Kernel::detect());
        }
        kernels
    }

    fn kernel_scan(
        kernel: Kernel,
        states: &[TagHashState],
        slot: u64,
        threshold: u64,
        l: u32,
    ) -> Vec<usize> {
        let mut hits = Vec::new();
        scan_on(kernel, states, slot, threshold, l, |i| hits.push(i));
        hits
    }

    #[test]
    fn scan_kernels_under_test() {
        // Run with `--nocapture` to see the list: a host without AVX-512
        // tests the scalar copy alone.
        let names: Vec<&str> = kernels().iter().map(|k| k.name()).collect();
        println!("hash scan kernels under test: {}", names.join(", "));
        assert_eq!(names[0], "scalar");
        assert_eq!(names.last(), Some(&scan_kernel_name()));
        assert_eq!(scan_kernel_name() == "avx512", avx512_detected());
    }

    #[test]
    fn scan_transmitters_runs_the_detected_kernel() {
        let states: Vec<TagHashState> = (0..100u128)
            .map(|p| TagHashState::new(TagId::from_payload(p)))
            .collect();
        let mut hits = Vec::new();
        scan_transmitters(&states, 3, 9_000, 16, |i| hits.push(i));
        assert_eq!(hits, kernel_scan(Kernel::detect(), &states, 3, 9_000, 16));
        assert_eq!(hits, reference_scan(&states, 3, 9_000, 16));
    }

    #[test]
    fn kernels_agree_over_many_slots() {
        // 10 000 states x 2 000 slots at both compare paths (l = 16 uses
        // the pre-xorshift shortcut, l = 32 the full hash). Thresholds
        // cycle from about one transmitter per slot up to 30% of the tags,
        // so blocks with no hit, one hit and many hits all occur; 10 000
        // states leave a 16-state remainder of 0, so the tail is covered
        // by the length-0..=100 property test instead.
        let n = 10_000usize;
        let states: Vec<TagHashState> = (0..n as u128)
            .map(|p| TagHashState::new(TagId::from_payload(p)))
            .collect();
        let kernels = kernels();
        for l in [16u32, 32] {
            let mut total_hits = 0usize;
            for slot in 0..2_000u64 {
                let p = [1.0 / n as f64, 4.0 / n as f64, 0.01, 0.3][(slot % 4) as usize];
                let threshold = probability_threshold(p, l);
                let expected = reference_scan(&states, slot, threshold, l);
                for &kernel in &kernels {
                    assert_eq!(
                        kernel_scan(kernel, &states, slot, threshold, l),
                        expected,
                        "{} kernel, l = {l}, slot {slot}",
                        kernel.name()
                    );
                }
                total_hits += expected.len();
            }
            assert!(total_hits > 1_000_000, "l = {l}: {total_hits} hits");
        }
    }

    /// A state whose full hash in `slot` is exactly `h`: each SplitMix64
    /// step is a bijection, so the finalizer is undone step by step.
    fn state_hashing_to(h: u64, slot: u64) -> TagHashState {
        // y = x ^ (x >> k) is undone by x = y ^ (y >> k) ^ (y >> 2k) ^ ...
        let unshift = |y: u64, k: u32| (k..64).step_by(k as usize).fold(y, |x, s| x ^ (y >> s));
        // Newton's iteration for the inverse of an odd multiplier mod 2^64.
        let inverse = |m: u64| {
            (0..6).fold(m, |i, _| {
                i.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(i)))
            })
        };
        let y = unshift(h, 31);
        let x = unshift(y.wrapping_mul(inverse(0x94D0_49BB_1331_11EB)), 27);
        let x = unshift(x.wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9)), 30);
        let state = TagHashState {
            prefix: x.wrapping_sub(0x9E37_79B9_7F4A_7C15) ^ slot,
        };
        assert_eq!(state.slot_hash(slot), h);
        state
    }

    #[test]
    fn scan_splits_exactly_at_the_threshold() {
        // States whose compared value (the hash before its last xorshift
        // for l <= 31, the full hash at l = 32) is the lowest and highest
        // admitted value and the lowest rejected one, `(t + 1) << (64 - l)`
        // itself. Random states almost never land there, so a `<=` against
        // the limit would pass the property test. Seven copies of the trio
        // put it in a full 16-state block and in the tail.
        let slot = 5;
        for l in 1..=32u32 {
            let s = 64 - l;
            for t in [0, 1, (1u64 << l) / 3, (1u64 << l) - 2] {
                if t + 1 >= 1u64 << l {
                    continue;
                }
                let trio = [t << s, ((t + 1) << s) - 1, (t + 1) << s];
                let hash = |v: u64| if l <= 31 { v ^ (v >> 31) } else { v };
                let states: Vec<TagHashState> = (0..7)
                    .flat_map(|_| trio)
                    .map(|v| state_hashing_to(hash(v), slot))
                    .collect();
                let expected: Vec<usize> = (0..states.len()).filter(|i| i % 3 != 2).collect();
                assert_eq!(reference_scan(&states, slot, t, l), expected);
                for kernel in kernels() {
                    assert_eq!(
                        kernel_scan(kernel, &states, slot, t, l),
                        expected,
                        "{} kernel, l = {l}, t = {t}",
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn scan_at_l32_keeps_the_full_hash() {
        // At l = 32 the compared bits include bit 32, which the finalizer's
        // last xorshift flips whenever bit 63 is set. Pick such a state and
        // a threshold at its pre-xorshift value, where the shortcut and the
        // full hash give opposite verdicts, and check the scan follows the
        // full hash.
        let l = 32;
        let slot = 11;
        let states: Vec<TagHashState> = (0..40u128)
            .map(|p| TagHashState::new(TagId::from_payload(p)))
            .collect();
        let (pos, y) = states
            .iter()
            .map(|s| splitmix64_premix(s.prefix ^ slot))
            .enumerate()
            .find(|&(_, y)| y >> 63 == 1)
            .expect("some state has bit 63 set");
        // Bit 32 clear: the shortcut admits the state, the full hash
        // (one above the threshold) does not. Bit 32 set: the reverse.
        let threshold = (y >> 32) - ((y >> 32) & 1);
        let limit = (threshold + 1) << (64 - l);
        let transmits = states[pos].transmits(slot, threshold, l);
        assert_ne!(y < limit, transmits, "the shortcut must differ here");
        for kernel in kernels() {
            let hits = kernel_scan(kernel, &states, slot, threshold, l);
            assert_eq!(hits.contains(&pos), transmits, "{} kernel", kernel.name());
            assert_eq!(hits, reference_scan(&states, slot, threshold, l));
        }
    }

    /// The block sampler's oracle: `n` sequential polar draws, each
    /// taking uniforms through `gen::<f64>()` until one lands in the unit
    /// disk. Returns the pairs and the candidates each draw used up.
    fn polar_by_pairs(rng: &mut CounterRng, n: usize) -> (Vec<(f64, f64)>, Vec<usize>) {
        let mut pairs = Vec::with_capacity(n);
        let mut tries = Vec::with_capacity(n);
        for _ in 0..n {
            let mut t = 0;
            loop {
                t += 1;
                let u = rng.gen::<f64>() * 2.0 - 1.0;
                let v = rng.gen::<f64>() * 2.0 - 1.0;
                let s = u * u + v * v;
                if s > 0.0 && s < 1.0 {
                    let f = (-2.0 * s.ln() / s).sqrt();
                    pairs.push((u * f, v * f));
                    tries.push(t);
                    break;
                }
            }
        }
        (pairs, tries)
    }

    /// The samplers under test: the block sampler on every kernel copy
    /// this CPU runs (`Some`), and the public method's choice (`None`).
    fn samplers() -> Vec<Option<Kernel>> {
        kernels().into_iter().map(Some).chain([None]).collect()
    }

    fn sampler_name(sampler: Option<Kernel>) -> &'static str {
        sampler.map_or("dispatched", Kernel::name)
    }

    fn sampled_pairs(sampler: Option<Kernel>, rng: &mut CounterRng, n: usize) -> Vec<(f64, f64)> {
        let mut pairs = Vec::with_capacity(n);
        let emit = |i: usize, z0: f64, z1: f64| {
            assert_eq!(i, pairs.len());
            pairs.push((z0, z1));
        };
        match sampler {
            Some(kernel) => rng.polar_blocks(kernel, n, emit),
            None => rng.standard_normal_pairs(n, emit),
        }
        pairs
    }

    /// Same pair bits, and the same state after: the next output agrees,
    /// and SplitMix64 is a bijection, so the states are equal.
    fn assert_sampler_matches_pairs(sampler: Option<Kernel>, seed: u64, n: usize) {
        let name = sampler_name(sampler);
        let (mut block_rng, mut pair_rng) = (CounterRng::new(seed), CounterRng::new(seed));
        let got = sampled_pairs(sampler, &mut block_rng, n);
        let (expect, _) = polar_by_pairs(&mut pair_rng, n);
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert_eq!(
                (g.0.to_bits(), g.1.to_bits()),
                (e.0.to_bits(), e.1.to_bits()),
                "{name} sampler, seed {seed}, n {n}, pair {i}"
            );
        }
        assert_eq!(got.len(), n);
        assert_eq!(
            block_rng.next_u64(),
            pair_rng.next_u64(),
            "{name} sampler, seed {seed}, n {n}"
        );
    }

    #[test]
    fn polar_kernels_under_test() {
        // Run with `--nocapture` to see the list.
        let names: Vec<&str> = kernels().iter().map(|k| k.name()).collect();
        println!("awgn kernels under test: {}", names.join(", "));
        assert_eq!(names.last(), Some(&polar_kernel_name()));
    }

    #[test]
    fn polar_blocks_match_the_pair_loop() {
        // Every length up to 300 (all block remainders, several blocks
        // deep) and 769, one MSK ID waveform, on three streams.
        for sampler in samplers() {
            for seed in [0, 17, 0xDEAD_BEEF_u64] {
                for n in (0..=300).chain([769]) {
                    assert_sampler_matches_pairs(sampler, seed, n);
                }
            }
        }
    }

    #[test]
    fn polar_blocks_match_at_block_boundaries() {
        // Bursts whose last pair takes the last candidate of a block, so
        // the next burst starts on a fresh block; and the lengths one
        // either side.
        let seed = 41;
        let (_, tries) = polar_by_pairs(&mut CounterRng::new(seed), 5_000);
        let mut used = 0;
        let mut boundaries = Vec::new();
        for (i, t) in tries.iter().enumerate() {
            used += t;
            if used % POLAR_LANES == 0 {
                boundaries.push(i + 1);
            }
        }
        assert!(boundaries.len() >= 20, "{boundaries:?}");
        for sampler in samplers() {
            for &n in &boundaries {
                for n in [n - 1, n, n + 1] {
                    assert_sampler_matches_pairs(sampler, seed, n);
                }
            }
        }
    }

    #[test]
    fn polar_kernels_agree_on_many_blocks() {
        // Both copies of phase 1 on the same blocks, bit for bit.
        let mut base = 0x0123_4567_89AB_CDEF_u64;
        let blank = || PolarBlock {
            u: [0.0; POLAR_LANES],
            v: [0.0; POLAR_LANES],
            s: [0.0; POLAR_LANES],
        };
        for _ in 0..10_000 {
            base = splitmix64(base);
            let (mut scalar, mut wide) = (blank(), blank());
            assert_eq!(
                polar_candidates_on(Kernel::Scalar, base, &mut scalar),
                polar_candidates_on(Kernel::detect(), base, &mut wide)
            );
            for k in 0..POLAR_LANES {
                assert_eq!(scalar.u[k].to_bits(), wide.u[k].to_bits());
                assert_eq!(scalar.v[k].to_bits(), wide.v[k].to_bits());
                assert_eq!(scalar.s[k].to_bits(), wide.s[k].to_bits());
            }
        }
    }

    /// A block of rejects (`s = 1.5`) with accepts at `at`.
    fn s_block(at: &[usize]) -> [f64; POLAR_LANES] {
        let mut s = [1.5; POLAR_LANES];
        for &k in at {
            s[k] = 0.5;
        }
        s
    }

    /// Phase 2 on a synthetic block: the indices used and the candidates
    /// consumed when `need` more pairs are wanted.
    fn take(s: &[f64; POLAR_LANES], need: usize) -> (Vec<usize>, usize) {
        let (mut used, consumed) = take_accepted(accepted_mask(s), need);
        let mut indices = Vec::new();
        while used != 0 {
            indices.push(used.trailing_zeros() as usize);
            used &= used - 1;
        }
        (indices, consumed)
    }

    #[test]
    fn take_accepted_with_no_accepts_uses_the_whole_block() {
        assert_eq!(take(&s_block(&[]), 1), (vec![], POLAR_LANES));
        // The disk is open: s = 0 and s = 1 are rejected too.
        let mut edges = [1.0; POLAR_LANES];
        edges[7] = 0.0;
        assert_eq!(accepted_mask(&edges), 0);
        assert_eq!(take(&edges, 3), (vec![], POLAR_LANES));
    }

    #[test]
    fn take_accepted_with_the_only_accept_last() {
        let s = s_block(&[63]);
        // Finishing the burst or not, the block is used up.
        assert_eq!(take(&s, 1), (vec![63], POLAR_LANES));
        assert_eq!(take(&s, 5), (vec![63], POLAR_LANES));
    }

    #[test]
    fn take_accepted_with_more_accepts_than_needed() {
        let s = s_block(&[0, 3, 10, 20, 63]);
        assert_eq!(take(&s, 1), (vec![0], 1));
        assert_eq!(take(&s, 2), (vec![0, 3], 4));
        assert_eq!(take(&s, 4), (vec![0, 3, 10, 20], 21));
        // Exactly as many as needed: through the last one, which at 63 is
        // the whole block.
        assert_eq!(take(&s_block(&[2, 9]), 2), (vec![2, 9], 10));
        assert_eq!(take(&s, 5), (vec![0, 3, 10, 20, 63], POLAR_LANES));
        assert_eq!(take(&s, 6), (vec![0, 3, 10, 20, 63], POLAR_LANES));
        // Every candidate accepted.
        let all = [0.25; POLAR_LANES];
        let every: Vec<usize> = (0..POLAR_LANES).collect();
        assert_eq!(take(&all, 64), (every.clone(), POLAR_LANES));
        assert_eq!(take(&all, 100), (every, POLAR_LANES));
        assert_eq!(take(&all, 9), ((0..9).collect(), 9));
    }

    proptest! {
        #[test]
        fn prop_monotone_in_threshold(
            payload in any::<u128>(),
            slot in any::<u64>(),
            t1 in 0u64..=65_536,
            t2 in 0u64..=65_536,
        ) {
            // If a tag transmits under a low threshold it must also transmit
            // under any higher threshold (the reader relies on this when it
            // re-evaluates membership for past slots that used different p).
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            let id = TagId::from_payload(payload);
            if transmits(id, slot, lo, 16) {
                prop_assert!(transmits(id, slot, hi, 16));
            }
        }

        #[test]
        fn prop_hash_bits_in_range(
            payload in any::<u128>(),
            slot in any::<u64>(),
            l in 1u32..=32,
        ) {
            let id = TagId::from_payload(payload);
            prop_assert!(slot_hash_bits(id, slot, l) < (1u64 << l));
        }

        #[test]
        fn prop_cached_state_matches_free_functions(
            raw in any::<u128>(),
            slot in any::<u64>(),
            l in 1u32..=32,
            threshold in any::<u64>(),
        ) {
            // The cached fast path must be bit-identical to the reference
            // three-round functions for arbitrary (even CRC-invalid) IDs.
            let id = TagId::from_raw_bits(raw);
            let state = TagHashState::new(id);
            prop_assert_eq!(state.slot_hash(slot), slot_hash(id, slot));
            prop_assert_eq!(state.slot_hash_bits(slot, l), slot_hash_bits(id, slot, l));
            let threshold = threshold & ((1u64 << l) - 1);
            prop_assert_eq!(
                state.transmits(slot, threshold, l),
                transmits(id, slot, threshold, l)
            );
        }

        #[test]
        fn prop_scan_matches_per_tag_test(
            raws in proptest::collection::vec(any::<u128>(), 0..=100),
            slot in any::<u64>(),
            l in 1u32..=32,
            threshold_frac in 0.0f64..1.5,
            saturate in proptest::bool::weighted(0.1),
        ) {
            // Lengths 0..=100 cover every remainder of the 16-state blocks;
            // thresholds sweep the whole l-bit range and past its top
            // (where every tag transmits), and `saturate` adds u64::MAX.
            let states: Vec<TagHashState> =
                raws.iter().map(|&r| TagHashState::new(TagId::from_raw_bits(r))).collect();
            let threshold = if saturate {
                u64::MAX
            } else {
                (threshold_frac * (1u64 << l) as f64) as u64
            };
            let expected = reference_scan(&states, slot, threshold, l);
            for kernel in kernels() {
                prop_assert_eq!(&kernel_scan(kernel, &states, slot, threshold, l), &expected);
            }
        }

        #[test]
        fn prop_cached_state_matches_probability_path(
            payload in any::<u128>(),
            slot in any::<u64>(),
            p in -0.25f64..1.25,
            l in 1u32..=32,
        ) {
            // The engine's hot path: threshold hoisted out of the loop,
            // p <= 0 handled before the hash. Must equal the reference
            // `transmits_with_probability` for every (ID, slot, p, l).
            let id = TagId::from_payload(payload);
            let fast = p > 0.0
                && TagHashState::new(id).transmits(slot, probability_threshold(p, l), l);
            prop_assert_eq!(fast, transmits_with_probability(id, slot, p, l));
        }
    }
}
