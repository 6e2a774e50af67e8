//! R002 positive: one RNG created outside the scatter and dragged into the
//! task closure — its draw order then depends on task interleaving.
use mm_exec::Executor;
use mm_rng::stream_rng;

pub fn drive(exec: &Executor, master: u64, items: Vec<u64>) -> Vec<u64> {
    let mut rng = stream_rng(master, 0x7a11);
    exec.scatter_gather(items, |_, it| step(&mut rng, it))
}

fn step(rng: &mut impl mm_rng::Rng, it: u64) -> u64 {
    it ^ rng.gen::<u64>()
}
