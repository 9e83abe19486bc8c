//! Fixture: the kernel itself may construct RNGs (exempt by path).

pub fn from_seed(seed: u64) -> ChaCha12Rng {
    ChaCha12Rng::seed_from_u64(seed)
}
