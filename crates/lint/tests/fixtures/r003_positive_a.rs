//! R003 positive, file A: labels a stream `0x5e5e`.
use mm_rng::stream_rng;

pub fn sampler(seed: u64) -> impl mm_rng::Rng {
    stream_rng(seed, 0x5e5e)
}
