//! R002 suppressed: the shared RNG is justified (e.g. the closure only
//! reads it immutably to re-derive per-task seeds).
use mm_exec::Executor;
use mm_rng::stream_rng;

pub fn drive(exec: &Executor, master: u64, items: Vec<u64>) -> Vec<u64> {
    // mm-allow(R002): closure reads the seed only; no draws cross tasks
    let rng_seed = stream_rng(master, 0x7a11);
    exec.scatter_gather(items, |_, it| step(&rng_seed, it))
}

fn step(_rng: &impl std::fmt::Debug, it: u64) -> u64 {
    it
}
