//! R003 clean: every stream label in the crate is distinct.
use mm_rng::stream_rng;

pub fn sampler(seed: u64) -> impl mm_rng::Rng {
    stream_rng(seed, 0x5e5e)
}

pub fn shuffler(seed: u64) -> impl mm_rng::Rng {
    stream_rng(seed, 0x7a11)
}
