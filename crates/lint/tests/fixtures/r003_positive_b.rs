//! R003 positive, file B: the same label spelled in decimal — `24158`
//! collides with file A's `0x5e5e`, so the two streams are identical.
use mm_rng::stream_rng;

pub fn shuffler(seed: u64) -> impl mm_rng::Rng {
    stream_rng(seed, 24158)
}
