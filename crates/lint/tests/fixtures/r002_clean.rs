//! R002 clean: each task derives its own stream from the master seed and
//! the task index — draw order is per-task, independent of interleaving.
use mm_exec::Executor;
use mm_rng::stream_rng;

pub fn drive(exec: &Executor, master: u64, items: Vec<u64>) -> Vec<u64> {
    exec.scatter_gather(items, move |i, it| {
        let mut rng = stream_rng(master, i as u64);
        step(&mut rng, it)
    })
}

fn step(rng: &mut impl mm_rng::Rng, it: u64) -> u64 {
    it ^ rng.gen::<u64>()
}
