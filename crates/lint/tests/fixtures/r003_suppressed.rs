//! R003 suppressed: two same-label streams, both justified (deliberate
//! shared stream; the two call sites are never live together).
use mm_rng::stream_rng;

pub fn sampler(seed: u64) -> impl mm_rng::Rng {
    // mm-allow(R003): resumes the crawler's stream after a checkpoint
    stream_rng(seed, 0x5e5e)
}

pub fn resumer(seed: u64) -> impl mm_rng::Rng {
    // mm-allow(R003): resumes the crawler's stream after a checkpoint
    stream_rng(seed, 0x5e5e)
}
