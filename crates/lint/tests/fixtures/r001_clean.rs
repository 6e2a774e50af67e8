//! R001 clean: every RNG derives from the experiment's master seed.
use mm_rng::SmallRng;
use mm_rng::sub_seed;

pub fn derived(master: u64, ue: u64) -> SmallRng {
    SmallRng::seed_from_u64(sub_seed(master, ue))
}
