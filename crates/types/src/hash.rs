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

use crate::TagId;

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
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
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
    scan_on(ScanKernel::detect(), states, slot, threshold, l, hit);
}

/// The name of the block kernel [`scan_transmitters`] runs on this CPU:
/// `"avx512"` or `"scalar"`. Benchmarks record it, so Hash-membership
/// timings from different hosts can be told apart.
#[must_use]
pub fn scan_kernel_name() -> &'static str {
    ScanKernel::detect().name()
}

/// A compiled copy of the block scan [`scan_below`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScanKernel {
    /// Built for the default target.
    Scalar,
    /// Built with AVX-512F and AVX-512DQ enabled (x86-64 only).
    Avx512,
}

impl ScanKernel {
    /// The fastest copy this CPU can run.
    fn detect() -> Self {
        if avx512_detected() {
            ScanKernel::Avx512
        } else {
            ScanKernel::Scalar
        }
    }

    fn name(self) -> &'static str {
        match self {
            ScanKernel::Scalar => "scalar",
            ScanKernel::Avx512 => "avx512",
        }
    }
}

/// Whether this CPU has every feature [`scan_below_avx512`] enables.
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
    kernel: ScanKernel,
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

/// Runs [`scan_below`] on `kernel`'s copy; the crate's one `unsafe` call.
/// An `Avx512` request on a CPU without those features runs the scalar
/// copy.
#[allow(unsafe_code)]
fn scan_below_on(
    kernel: ScanKernel,
    states: &[TagHashState],
    slot: u64,
    limit: u64,
    full: bool,
    hit: &mut impl FnMut(usize),
) {
    match kernel {
        #[cfg(target_arch = "x86_64")]
        ScanKernel::Avx512 if avx512_detected() => {
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
    fn kernels() -> Vec<ScanKernel> {
        let mut kernels = vec![ScanKernel::Scalar];
        if ScanKernel::detect() != ScanKernel::Scalar {
            kernels.push(ScanKernel::detect());
        }
        kernels
    }

    fn kernel_scan(
        kernel: ScanKernel,
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
        assert_eq!(
            hits,
            kernel_scan(ScanKernel::detect(), &states, 3, 9_000, 16)
        );
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
