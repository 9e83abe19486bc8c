//! The workspace's only randomness module.
//!
//! [`SplitMix64`] derives seeds ([`crate::seed_stream::SeedStream`]) and
//! synthesizes cheap payload bytes; [`ChaCha12Rng`] is the generator every
//! stochastic trial draws from, seeded by a single `u64` of that stream.
//! The simulators make exactly seven kinds of draw, and each is an inherent
//! method here — there is one generator, so there is no trait to be generic
//! over. Every fixed-seed golden in the tree pins this stream: a draw must
//! keep consuming exactly the words it consumes today.

/// 2^64 / phi, the odd increment of the `SplitMix64` sequence.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// `SplitMix64`'s bijective finalizer (Stafford variant 13): a cheap,
/// statistically strong avalanche mix of one 64-bit word.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `SplitMix64` generator (Steele, Lea & Flood, OOPSLA'14): one add and
/// one mix per output, equidistributed over the full 2^64 period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in [0, 1) with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }
}

/// The top 53 bits of `word` as a float in [0, 1).
#[inline]
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// "expand 32-byte k", the `ChaCha` constant words (RFC 8439 §2.3).
const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The 12-round `ChaCha` stream cipher as a generator: RFC 8439's state
/// layout and quarter-round, a 64-bit block counter and an all-zero nonce
/// (one keystream per seed). Only determinism is promised, not the values
/// of any published `ChaCha` generator: the seed expansion is `SplitMix64`.
#[derive(Clone, Debug)]
pub struct ChaCha12Rng {
    key: [u32; 8],
    counter: u64,
    buffer: [u32; 16],
    index: usize,
}

/// The generator trials build from their per-trial seed.
pub type TrialRng = ChaCha12Rng;

/// Build the trial generator from a seed-stream seed.
#[inline]
pub fn trial_rng(seed: u64) -> TrialRng {
    ChaCha12Rng::seed_from_u64(seed)
}

impl ChaCha12Rng {
    fn from_key(key: [u32; 8]) -> ChaCha12Rng {
        ChaCha12Rng {
            key,
            counter: 0,
            buffer: [0; 16],
            index: 16,
        }
    }

    /// Expand `state` into the 256-bit key with four `SplitMix64` outputs,
    /// each split into its low then high 32-bit word.
    #[inline]
    pub fn seed_from_u64(state: u64) -> ChaCha12Rng {
        let mut expand = SplitMix64::new(state);
        let mut key = [0u32; 8];
        for pair in key.chunks_exact_mut(2) {
            let word = expand.next_u64();
            pair[0] = word as u32;
            pair[1] = (word >> 32) as u32;
        }
        ChaCha12Rng::from_key(key)
    }

    fn refill(&mut self) {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        let initial = state;
        for _ in 0..6 {
            // Column round.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (word, init) in state.iter_mut().zip(&initial) {
            *word = word.wrapping_add(*init);
        }
        self.buffer = state;
        self.index = 0;
        self.counter = self.counter.wrapping_add(1);
    }

    #[inline]
    fn next_word(&mut self) -> u32 {
        if self.index == 16 {
            self.refill();
        }
        let word = self.buffer[self.index];
        self.index += 1;
        word
    }

    /// Two keystream words, low half first.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_word());
        let hi = u64::from(self.next_word());
        lo | (hi << 32)
    }

    /// Unbiased uniform draw in `[0, n)` by Lemire's multiply-shift
    /// rejection: one word, plus one per (rare) rejection.
    #[inline]
    pub fn gen_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_below: empty range");
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        if (m as u64) < n {
            let threshold = n.wrapping_neg() % n;
            while (m as u64) < threshold {
                m = u128::from(self.next_u64()) * u128::from(n);
            }
        }
        (m >> 64) as u64
    }

    /// Uniform in `[lo, hi)` from one word's top 53 bits.
    #[inline]
    pub fn gen_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "gen_f64: empty range");
        let v = lo + (hi - lo) * unit_f64(self.next_u64());
        // Guard the rare rounding case v == hi.
        if v < hi {
            v
        } else {
            lo
        }
    }

    /// `true` with probability `p`; always consumes one word.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} out of [0, 1]");
        unit_f64(self.next_u64()) < p
    }

    /// `0..n` in uniformly random order (reverse Fisher–Yates, `n - 1`
    /// bounded draws).
    #[inline]
    pub fn shuffle(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.gen_below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        order
    }

    /// `amount` distinct elements of `0..n` chosen uniformly without
    /// replacement (all of them if `amount >= n`), in random order: a
    /// forward partial Fisher–Yates, one bounded draw per element.
    #[inline]
    pub fn choose_multiple(&mut self, n: usize, amount: usize) -> Vec<usize> {
        let amount = amount.min(n);
        let mut indices: Vec<usize> = (0..n).collect();
        for i in 0..amount {
            let j = i + self.gen_below((n - i) as u64) as usize;
            indices.swap(i, j);
        }
        indices.truncate(amount);
        indices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_injective_on_a_sample() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..100_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }

    #[test]
    fn splitmix_reference_values() {
        // First outputs for seed 0 of the canonical SplitMix64.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(rng.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn trial_rng_is_deterministic() {
        let mut a = trial_rng(5);
        let mut b = trial_rng(5);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// An independent, straightforward 12-round block for the zero-nonce
    /// state: the reference the buffered implementation is compared against.
    fn reference_block_12(key: &[u32; 8], counter: u64) -> [u32; 16] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CONSTANTS);
        state[4..12].copy_from_slice(key);
        state[12] = counter as u32;
        state[13] = (counter >> 32) as u32;
        let init = state;
        for _ in 0..6 {
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (w, i) in state.iter_mut().zip(&init) {
            *w = w.wrapping_add(*i);
        }
        state
    }

    #[test]
    fn quarter_round_matches_rfc8439_vector() {
        // RFC 8439 §2.1.1.
        let mut state = [0u32; 16];
        state[0] = 0x1111_1111;
        state[1] = 0x0102_0304;
        state[2] = 0x9b8d_6f43;
        state[3] = 0x0123_4567;
        quarter_round(&mut state, 0, 1, 2, 3);
        assert_eq!(state[0], 0xea2a_92f4);
        assert_eq!(state[1], 0xcb1c_f8ce);
        assert_eq!(state[2], 0x4581_472e);
        assert_eq!(state[3], 0x5881_c4bb);
    }

    #[test]
    fn chacha12_blocks_match_reference() {
        let key = [1u32, 2, 3, 4, 5, 6, 7, 0xdead_beef];
        let mut rng = ChaCha12Rng::from_key(key);
        for counter in 0..3u64 {
            for &word in &reference_block_12(&key, counter) {
                assert_eq!(rng.next_word(), word);
            }
        }
    }

    /// The stream itself, captured before this module took over the
    /// generator from two stand-in crates: every fixed-seed golden sits
    /// downstream of these twelve values.
    #[test]
    fn stream_known_answers() {
        let mut rng = ChaCha12Rng::seed_from_u64(42);
        assert_eq!(rng.next_u64(), 0x280b_7b79_f392_fa12);
        assert_eq!(rng.next_u64(), 0x4dad_ef83_bc93_1d07);
        assert_eq!(rng.next_u64(), 0xc195_c99b_a537_5e5f);
        assert_eq!(rng.next_u64(), 0x7e65_7f1b_6bdc_3bfd);

        let mut rng = ChaCha12Rng::seed_from_u64(42);
        assert_eq!(rng.gen_below(57_600), 9010);
        assert_eq!(rng.gen_below(20), 6); // the inclusive range 0..=19
        assert_eq!(rng.gen_f64(f64::MIN_POSITIVE, 1.0), 0.756_191_826_342_925_4);
        assert!(!rng.gen_bool(0.25));
        assert_eq!(rng.shuffle(10), [7, 0, 8, 6, 3, 1, 5, 4, 2, 9]);
        assert_eq!(rng.choose_multiple(10, 3), [2, 9, 5]);
    }

    #[test]
    fn seed_from_u64_is_deterministic_and_seed_sensitive() {
        let draw = |seed| {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<u64>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn output_is_roughly_balanced() {
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        let ones: u32 = (0..1024).map(|_| rng.next_u64().count_ones()).sum();
        let expect = 1024 * 32;
        assert!((ones as i64 - expect as i64).abs() < 3000, "ones={ones}");
    }

    #[test]
    fn bounded_draws_stay_in_bounds() {
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!((3..17).contains(&(3 + rng.gen_below(14))));
            assert!(rng.gen_below(6) <= 5);
            assert!((0.25..0.75).contains(&rng.gen_f64(0.25, 0.75)));
        }
    }

    #[test]
    fn gen_below_covers_all_residues() {
        let mut rng = ChaCha12Rng::seed_from_u64(11);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.gen_below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut order = ChaCha12Rng::seed_from_u64(1).shuffle(50);
        order.sort_unstable();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_multiple_is_distinct_sized_and_clamped() {
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let picked = rng.choose_multiple(30, 12);
        assert_eq!(picked.len(), 12);
        assert!(picked.iter().all(|&i| i < 30));
        let set: std::collections::BTreeSet<usize> = picked.into_iter().collect();
        assert_eq!(set.len(), 12);
        assert_eq!(rng.choose_multiple(3, 10).len(), 3);
    }
}
