#![warn(missing_docs)]
//! # mm-exec — deterministic task-parallel execution engine
//!
//! A scatter/gather pool for the workspace's three hot fan-outs
//! (drive-test campaigns, the world crawl, and `mmx all` artifact
//! regeneration), and an ordered two-stage pipeline for its fourth use,
//! the cold store scan. The engine's contract is **determinism**: tasks are
//! submitted with an index, run on however many workers the host offers,
//! and are gathered *in submission order* — so as long as every task is
//! independently seeded (each derives its own `mm-rng` stream from
//! `sub_seed`, no RNG is ever shared), the gathered output is byte-identical
//! to the sequential path regardless of thread count or scheduling.
//!
//! ## Scheduling
//!
//! The tasks wait in one shared queue, in submission order. The caller
//! and `min(threads, tasks) − 1` scoped helpers each take the next task
//! until none is left, so a thread that finishes a cheap task takes the
//! next one while another still runs an expensive one (a dense Chicago
//! drive costs ~6× a Lafayette one). Every call scatters a fixed task set
//! and joins before returning: no condvar, no shutdown protocol, no idle
//! spinning. With one thread the caller drains the queue alone and
//! nothing is spawned — the sequential path is the same loop. A free
//! thread always takes the next task, so a pool of `n` threads runs `n`
//! tasks at once: tasks that wait on each other (a server and its
//! clients) need a thread each, never one thread for two.
//!
//! ## Observability
//!
//! [`Executor::scatter_gather_stats`] returns a [`RunStats`] next to the
//! results: per-task wall-clock (in submission order), the threads the
//! run used and its wall-clock. `mmx --timings` prints these with the
//! busy/wall speedup estimate. Every run also lifts its stats into the
//! shared `mm-telemetry` registry (section `exec`): task/run counts are
//! `Scope::Sim` (identical for any thread count), time counters are
//! `Scope::Sched`. Tasks execute under [`mm_telemetry::detached`], so
//! spans a task opens root at the same paths on any thread.
//!
//! ## Pipelines
//!
//! [`Executor::pipeline`] overlaps two stages of one sequential stream: a
//! scoped worker runs `produce` while the caller runs `consume` on the
//! items already made, in production order, through a FIFO of
//! [`PIPELINE_DEPTH`] items. The consumer sees exactly the sequence the
//! sequential loop would, so a fold over a pipeline is byte-identical to
//! the fold without one. The cold store scan uses it to decode the next
//! row groups while the caller folds the current one.
//!
//! ## Lanes
//!
//! [`Executor::lanes`] splits one ordered sequence of items between
//! `min(threads, max_lanes)` lanes: lane `l` of `n` makes items `l`,
//! `l + n`, `l + 2n`, … in that order, walking the whole input and
//! skipping the others' items. Lane 0 is the caller, which also consumes
//! every lane's items in index order; the helpers hand theirs over through
//! bounded FIFOs of [`LANE_DEPTH`] items and get each spent item back to
//! make a later one in, so a helper stops allocating once a few items
//! circulate. The consumer sees exactly the sequence one lane would make,
//! and with one thread the caller runs the same loop inline. The first
//! error in index order is returned, and every lane stops making items. A
//! lane run records nothing in telemetry: a lane is not a task, and
//! `exec.tasks_executed` is a Sim-scope count that must not depend on the
//! thread count.
//!
//! ## Sizing
//!
//! [`Executor::from_env`] sizes the pool from the `MM_THREADS` environment
//! variable when set (clamped to ≥ 1), else
//! `std::thread::available_parallelism()`. A pool of one thread runs every
//! task inline on the caller — that *is* the sequential path, not an
//! emulation of it.

use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError, TrySendError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Environment variable that overrides the worker count.
pub const THREADS_ENV: &str = "MM_THREADS";

/// Items a [`pipeline`](Executor::pipeline) producer may queue ahead of
/// its consumer. With the one the producer is sending and the one the
/// consumer holds, at most `PIPELINE_DEPTH + 2` items are produced but not
/// yet consumed.
pub const PIPELINE_DEPTH: usize = 2;

/// Items a helper of [`lanes`](Executor::lanes) may have handed over that
/// the caller has not consumed yet. With the one it is making or handing
/// over, a helper runs at most `LANE_DEPTH + 1` items ahead of the caller.
pub const LANE_DEPTH: usize = 2;

/// How long a pipeline stage waits on a full or empty FIFO, yielding its
/// core, before it parks. The other stage normally frees the slot well
/// within this, and a parked thread gives its core away: on a virtualized
/// host, getting it back can take longer than the item itself.
const PIPELINE_SPIN: Duration = Duration::from_millis(1);

/// Send `item`, waiting up to [`PIPELINE_SPIN`] on a full FIFO before
/// blocking; `false` once the receiver is gone.
fn send_spinning<T>(tx: &SyncSender<T>, mut item: T) -> bool {
    let start = Instant::now();
    loop {
        match tx.try_send(item) {
            Ok(()) => return true,
            Err(TrySendError::Disconnected(_)) => return false,
            Err(TrySendError::Full(back)) if start.elapsed() < PIPELINE_SPIN => {
                item = back;
                std::thread::yield_now();
            }
            Err(TrySendError::Full(back)) => return tx.send(back).is_ok(),
        }
    }
}

/// The next item, waiting up to [`PIPELINE_SPIN`] on an empty FIFO before
/// blocking; `None` once the sender is gone and the FIFO is drained.
fn recv_spinning<T>(rx: &Receiver<T>) -> Option<T> {
    let start = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(item) => return Some(item),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) if start.elapsed() < PIPELINE_SPIN => {
                std::thread::yield_now();
            }
            Err(TryRecvError::Empty) => return rx.recv().ok(),
        }
    }
}

/// Lift one run's stats into the shared telemetry registry.
fn record_run(stats: &RunStats) {
    use mm_telemetry::Scope;
    let reg = mm_telemetry::global();
    reg.counter("exec", "runs").inc();
    reg.counter("exec", "tasks_executed")
        .add(stats.tasks() as u64);
    reg.counter_scoped("exec", "busy_ns", Scope::Sched)
        .add(stats.busy_ns());
    reg.counter_scoped("exec", "wall_ns", Scope::Sched)
        .add(stats.wall_ns);
}

/// Observability record for one scatter/gather run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Threads the run used, the caller's included.
    pub threads: usize,
    /// Per-task wall-clock, nanoseconds, in *submission* order.
    pub task_ns: Vec<u64>,
    /// Wall-clock of the whole run, nanoseconds.
    pub wall_ns: u64,
}

impl RunStats {
    /// Number of tasks the run executed.
    pub fn tasks(&self) -> usize {
        self.task_ns.len()
    }

    /// Sum of per-task wall-clocks — the run's sequential-equivalent cost.
    pub fn busy_ns(&self) -> u64 {
        self.task_ns.iter().sum()
    }

    /// `busy_ns / wall_ns`: effective parallel speedup of the run.
    pub fn speedup(&self) -> f64 {
        if self.wall_ns == 0 {
            return 1.0;
        }
        self.busy_ns() as f64 / self.wall_ns as f64
    }

    /// Merge another run's stats in (used when one logical operation issues
    /// several scatter phases, e.g. build-networks-then-drive).
    pub fn merge(&mut self, other: &RunStats) {
        self.threads = self.threads.max(other.threads);
        self.task_ns.extend_from_slice(&other.task_ns);
        self.wall_ns += other.wall_ns;
    }
}

/// A lane of [`Executor::lanes`] stopped making items: an item failed, or
/// the caller stopped consuming. The error itself reaches the caller of
/// `lanes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stopped;

/// One lane of an [`Executor::lanes`] run: lane [`index`](Lane::index) of
/// [`count`](Lane::count) makes items `index`, `index + count`,
/// `index + 2·count`, … through [`emit`](Lane::emit), in that order.
pub struct Lane<'a, T, E> {
    index: usize,
    count: usize,
    role: Role<'a, T, E>,
}

enum Role<'a, T, E> {
    /// Lane 0, on the caller.
    Lead(Lead<'a, T, E>),
    /// A helper: hands each item to the lead and takes spent ones back.
    Helper {
        to_lead: SyncSender<Result<T, E>>,
        spent: Receiver<T>,
    },
}

/// Lane 0's state: it consumes every lane's items in index order.
struct Lead<'a, T, E> {
    consume: &'a mut dyn FnMut(&T) -> Result<(), E>,
    /// Per helper lane `1..count`, the lead's ends of its FIFOs.
    helpers: Vec<HelperEnds<T, E>>,
    /// The item lane 0 makes its own items in.
    own: T,
    /// Index of the next item to consume.
    next: usize,
    /// The first error in index order; consuming stops at it.
    error: Option<E>,
    /// A helper ended before its next item; consuming stops there.
    ended: bool,
}

/// The lead's ends of one helper's FIFOs: the helper's items, and the
/// way back for them once consumed.
struct HelperEnds<T, E> {
    items: Receiver<Result<T, E>>,
    spent: Sender<T>,
}

impl<T, E> Lead<'_, T, E> {
    fn stopped(&self) -> bool {
        self.error.is_some() || self.ended
    }

    /// Consume helper items in index order up to `until`, or with `None`
    /// until lane 0's turn comes round (it has no items left) or a helper
    /// has none.
    fn drain(&mut self, until: Option<usize>) {
        let count = self.helpers.len() + 1;
        while !self.stopped() && until.is_none_or(|k| self.next < k) {
            let lane = self.next % count;
            let Some(ends) = lane.checked_sub(1).and_then(|h| self.helpers.get(h)) else {
                return;
            };
            match recv_spinning(&ends.items) {
                Some(Ok(item)) => {
                    let consumed = (self.consume)(&item);
                    // A helper that has finished no longer takes items back.
                    ends.spent.send(item).ok();
                    match consumed {
                        Ok(()) => self.next += 1,
                        Err(e) => self.error = Some(e),
                    }
                }
                Some(Err(e)) => self.error = Some(e),
                None => self.ended = true,
            }
        }
    }
}

impl<T: Default, E> Lane<'_, T, E> {
    /// This lane's index, `0..count`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// How many lanes the run has.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Make this lane's next item: `fill` writes it into an item this lane
    /// made earlier and the caller has consumed (a fresh `T::default()`
    /// until one comes back), so `fill` must overwrite whatever it finds.
    /// `Err(Stopped)` means the run stopped — `fill` or the consumer
    /// failed here or at an earlier item, or a helper ended — and the lane
    /// should make no more items.
    pub fn emit(&mut self, fill: impl FnOnce(&mut T) -> Result<(), E>) -> Result<(), Stopped> {
        match &mut self.role {
            Role::Lead(lead) => {
                // Lane 0's items are the multiples of the lane count.
                let k = lead.next.next_multiple_of(self.count);
                lead.drain(Some(k));
                if lead.stopped() {
                    return Err(Stopped);
                }
                let made = fill(&mut lead.own).and_then(|()| (lead.consume)(&lead.own));
                if let Err(e) = made {
                    lead.error = Some(e);
                    return Err(Stopped);
                }
                lead.next = k + 1;
                Ok(())
            }
            Role::Helper { to_lead, spent } => {
                let mut item = spent.try_recv().unwrap_or_default();
                let made = fill(&mut item).map(|()| item);
                let failed = made.is_err();
                // A failed send means the lead stopped consuming.
                if send_spinning(to_lead, made) && !failed {
                    Ok(())
                } else {
                    Err(Stopped)
                }
            }
        }
    }

    /// After this lane's walk: on lane 0, consume the helpers' remaining
    /// items; the count of items consumed, or the first error in index
    /// order. A helper consumes nothing.
    fn finish(self) -> Result<usize, E> {
        let Role::Lead(mut lead) = self.role else {
            return Ok(0);
        };
        lead.drain(None);
        match lead.error {
            Some(e) => Err(e),
            None => Ok(lead.next),
        }
    }
}

/// A fixed-width thread-pool handle. Cheap to copy; each
/// [`scatter_gather`](Executor::scatter_gather) call spawns its scoped
/// helpers, so the handle holds no OS resources between calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::from_env()
    }
}

impl Executor {
    /// A pool of exactly `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// Size from `MM_THREADS` when set, else `available_parallelism()`.
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|n| *n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Executor::new(threads)
    }

    /// A single-threaded pool: the reference sequential path.
    pub fn sequential() -> Self {
        Executor::new(1)
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Scatter `items` across the pool, apply `f(index, item)` to each, and
    /// gather the results in submission order.
    ///
    /// `f` must be deterministic in `(index, item)` alone for the
    /// determinism contract to hold — derive any randomness from a
    /// per-task `sub_seed`, never from shared state.
    pub fn scatter_gather<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        self.scatter_gather_stats(items, f).0
    }

    /// Like [`scatter_gather`](Executor::scatter_gather), also returning
    /// the run's [`RunStats`].
    pub fn scatter_gather_stats<I, T, F>(&self, items: Vec<I>, f: F) -> (Vec<T>, RunStats)
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        let n = items.len();
        let started = Instant::now();
        let threads = self.threads.min(n).max(1);
        let queue = Mutex::new(items.into_iter().enumerate());
        // Take the next task until none is left; the lock is released
        // before the task runs, so a panicking task cannot poison it.
        let drain = || {
            let mut done = Vec::new();
            loop {
                // mm-allow(E001): only a panic inside the iterator's `next` could poison the queue; propagate
                let next = queue.lock().expect("task queue poisoned").next();
                let Some((index, item)) = next else {
                    return done;
                };
                let t0 = Instant::now();
                let result = mm_telemetry::detached(|| f(index, item));
                done.push((index, result, t0.elapsed().as_nanos() as u64));
            }
        };
        let mut slots: Vec<Option<(T, u64)>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(drain)).collect();
            let mut fill = |done: Vec<(usize, T, u64)>| {
                for (index, result, ns) in done {
                    slots[index] = Some((result, ns));
                }
            };
            fill(drain());
            for helper in helpers {
                match helper.join() {
                    Ok(done) => fill(done),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });

        let mut out = Vec::with_capacity(n);
        let mut task_ns = Vec::with_capacity(n);
        for slot in slots {
            // mm-allow(E001): every index leaves the queue exactly once and join propagates task panics
            let (result, ns) = slot.expect("every submitted task produced a result");
            out.push(result);
            task_ns.push(ns);
        }
        let stats = RunStats {
            threads,
            task_ns,
            wall_ns: started.elapsed().as_nanos() as u64,
        };
        record_run(&stats);
        (out, stats)
    }

    /// Run `produce` until it returns `Ok(None)` and hand every item to
    /// `consume`, in production order. With more than one thread,
    /// `produce` runs on one scoped worker, at most [`PIPELINE_DEPTH`]
    /// items ahead, while `consume` runs on the calling thread; with one,
    /// the same closures alternate inline. `produce` always runs under
    /// [`mm_telemetry::detached`], so its span paths do not depend on the
    /// thread count. A stage that finds the FIFO full (producer) or empty
    /// (consumer) yields its core for up to a millisecond before it parks.
    ///
    /// The first `Err` stops the producer and is returned once `consume`
    /// has taken every earlier item. A panic on either side propagates to
    /// the caller: a panicking consumer drops the queue's receiving end,
    /// so a producer blocked on a full queue returns instead of hanging.
    pub fn pipeline<T, E, P, C>(&self, mut produce: P, mut consume: C) -> Result<(), E>
    where
        T: Send,
        E: Send,
        P: FnMut() -> Result<Option<T>, E> + Send,
        C: FnMut(T),
    {
        let mut next = move || mm_telemetry::detached(&mut produce);
        if self.threads == 1 {
            while let Some(item) = next()? {
                consume(item);
            }
            return Ok(());
        }
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::sync_channel(PIPELINE_DEPTH);
            let worker = scope.spawn(move || {
                while let Some(item) = next().transpose() {
                    let last = item.is_err();
                    // A failed send means the consumer is gone (it panicked).
                    if !send_spinning(&tx, item) || last {
                        break;
                    }
                }
            });
            // Ends at the first error, or when the worker drops its sender:
            // after its last item, or when it panicked.
            let result = std::iter::from_fn(|| recv_spinning(&rx))
                .try_for_each(|item| item.map(&mut consume));
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
            result
        })
    }

    /// Split one ordered sequence of items between `min(threads,
    /// max_lanes)` lanes and consume them on the caller in index order;
    /// returns how many items were consumed.
    ///
    /// `work` runs once per lane, under [`mm_telemetry::detached`]: lane 0
    /// on the caller, the others on scoped helpers. It walks the whole
    /// input and calls [`Lane::emit`] for each of its own items
    /// (`index`, `index + count`, …), skipping the rest, and returns when
    /// the input ends or `emit` returns `Err(Stopped)`. `consume` sees
    /// every item in index order, on the calling thread, inside lane 0's
    /// `emit` calls and after lane 0's walk. Consumption stops after the
    /// last item or at the first error in index order (from a `fill` or
    /// from `consume`), which is returned; every lane then stops at its
    /// next `emit`, and a helper blocked handing an item over is released.
    /// A helper that ends early stops consumption there, and its panic
    /// propagates to the caller. Nothing is recorded in telemetry.
    pub fn lanes<T, E, W, C>(&self, max_lanes: usize, work: W, mut consume: C) -> Result<usize, E>
    where
        T: Default + Send,
        E: Send,
        W: Fn(&mut Lane<'_, T, E>) -> Result<(), Stopped> + Sync,
        C: FnMut(&T) -> Result<(), E>,
    {
        let count = self.threads.min(max_lanes).max(1);
        let work = &work;
        std::thread::scope(|scope| {
            let mut helpers = Vec::with_capacity(count - 1);
            let mut threads = Vec::with_capacity(count - 1);
            for index in 1..count {
                let (to_lead, items) = mpsc::sync_channel(LANE_DEPTH);
                let (give_back, spent) = mpsc::channel();
                helpers.push(HelperEnds {
                    items,
                    spent: give_back,
                });
                threads.push(scope.spawn(move || {
                    let mut lane = Lane {
                        index,
                        count,
                        role: Role::Helper { to_lead, spent },
                    };
                    // The lead holds the error, if any; a helper has
                    // nothing to report.
                    mm_telemetry::detached(|| work(&mut lane)).ok();
                }));
            }
            let mut lane = Lane {
                index: 0,
                count,
                role: Role::Lead(Lead {
                    consume: &mut consume,
                    helpers,
                    own: T::default(),
                    next: 0,
                    error: None,
                    ended: false,
                }),
            };
            // Whatever the walk returns, the lead's state says how it ended.
            mm_telemetry::detached(|| work(&mut lane)).ok();
            // Dropping the lead's ends of the FIFOs releases any helper
            // still handing an item over.
            let consumed = lane.finish();
            for thread in threads {
                if let Err(payload) = thread.join() {
                    std::panic::resume_unwind(payload);
                }
            }
            consumed
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_is_in_submission_order() {
        for threads in [1, 2, 3, 8] {
            let exec = Executor::new(threads);
            let out = exec.scatter_gather((0..257u32).collect(), |i, x| {
                assert_eq!(i as u32, x);
                x * 3 + 1
            });
            assert_eq!(out, (0..257u32).map(|x| x * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn output_is_identical_across_thread_counts() {
        let reference = Executor::sequential().scatter_gather((0..100u64).collect(), |_, x| {
            x.wrapping_mul(0x9E3779B97F4A7C15)
        });
        for threads in [2, 4, 8, 16] {
            let out = Executor::new(threads).scatter_gather((0..100u64).collect(), |_, x| {
                x.wrapping_mul(0x9E3779B97F4A7C15)
            });
            assert_eq!(out, reference, "{threads} threads");
        }
    }

    #[test]
    fn skewed_tasks_complete_and_stats_add_up() {
        let exec = Executor::new(4);
        let (out, stats) = exec.scatter_gather_stats((0..40u64).collect(), |i, x| {
            // Skew: every 8th task is much heavier.
            let spins = if i % 8 == 0 { 200_000 } else { 100 };
            let mut acc = x;
            for _ in 0..spins {
                acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
            acc
        });
        assert_eq!(out.len(), 40);
        assert_eq!(stats.tasks(), 40);
        assert_eq!(stats.threads, 4);
        assert_eq!(stats.task_ns.len(), 40);
        assert!(stats.busy_ns() > 0);
        assert!(stats.wall_ns > 0);
    }

    #[test]
    fn borrows_non_static_data() {
        let data: Vec<String> = (0..10).map(|i| format!("item-{i}")).collect();
        let exec = Executor::new(3);
        let lens = exec.scatter_gather((0..data.len()).collect(), |_, i| data[i].len());
        assert_eq!(lens[9], "item-9".len());
    }

    #[test]
    fn empty_and_singleton_scatter() {
        let exec = Executor::new(8);
        let empty: Vec<u32> = exec.scatter_gather(Vec::<u32>::new(), |_, x| x);
        assert!(empty.is_empty());
        let one = exec.scatter_gather(vec![41u32], |_, x| x + 1);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn sequential_pool_reports_single_worker() {
        let (_, stats) = Executor::sequential().scatter_gather_stats(vec![1, 2, 3], |_, x| x);
        assert_eq!(stats.threads, 1);
        assert_eq!(stats.tasks(), 3);
    }

    #[test]
    fn a_thread_per_task_runs_every_task_at_once() {
        // Each task waits until all `n` are running: `n` threads must
        // take one task each, never two on one thread.
        for n in [2, 3, 8] {
            let barrier = std::sync::Barrier::new(n);
            let out = Executor::new(n).scatter_gather((0..n).collect(), |i, x| {
                barrier.wait();
                assert_eq!(i, x);
                x * 10
            });
            assert_eq!(out, (0..n).map(|x| x * 10).collect::<Vec<_>>(), "{n}");
        }
    }

    #[test]
    fn new_clamps_to_at_least_one_thread() {
        assert_eq!(Executor::new(0).threads(), 1);
    }

    #[test]
    fn stats_merge_accumulates() {
        let (_, mut a) = Executor::new(2).scatter_gather_stats(vec![1u32; 8], |_, x| x);
        let (_, b) = Executor::new(2).scatter_gather_stats(vec![1u32; 8], |_, x| x);
        let wall = a.wall_ns;
        a.merge(&b);
        assert_eq!(a.tasks(), 16);
        assert_eq!(a.wall_ns, wall + b.wall_ns);
        assert_eq!(a.threads, 2);
    }

    /// A producer of `0..n`.
    fn counter(n: u32) -> impl FnMut() -> Result<Option<u32>, String> + Send {
        let mut next = 0;
        move || {
            let item = (next < n).then_some(next);
            next += 1;
            Ok(item)
        }
    }

    /// Longer than a stage waits before it parks.
    fn outlast_the_spin() {
        std::thread::sleep(PIPELINE_SPIN * 2);
    }

    #[test]
    fn pipeline_consumes_in_production_order() {
        for threads in [1, 2, 3, 8] {
            let mut seen = Vec::new();
            let mut produce = counter(300);
            Executor::new(threads)
                .pipeline(
                    || {
                        let item = produce()?;
                        // Now and then the consumer finds the FIFO empty
                        // for longer than it spins, and parks.
                        if item.is_some_and(|x| x % 100 == 50) {
                            outlast_the_spin();
                        }
                        Ok::<_, String>(item)
                    },
                    |x| seen.push(x),
                )
                .unwrap();
            assert_eq!(seen, (0..300).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn pipeline_stops_at_the_first_error() {
        for threads in [1, 2, 8] {
            let mut calls = 0u32;
            let mut seen = Vec::new();
            let result = Executor::new(threads).pipeline(
                || {
                    calls += 1;
                    match calls {
                        1..=5 => Ok(Some(calls)),
                        6 => Err(format!("failed at call {calls}")),
                        _ => Ok(Some(calls)),
                    }
                },
                |x| seen.push(x),
            );
            assert_eq!(result, Err("failed at call 6".to_string()), "{threads}");
            assert_eq!(seen, vec![1, 2, 3, 4, 5], "{threads} threads");
            assert_eq!(calls, 6, "{threads} threads: produce ran past the error");
        }
    }

    #[test]
    fn pipeline_panics_propagate_without_hanging() {
        for threads in [1, 2, 8] {
            let exec = Executor::new(threads);
            let producer = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut produce = counter(100);
                exec.pipeline(
                    || match produce() {
                        Ok(Some(7)) => panic!("producer failed"),
                        item => item,
                    },
                    |_| {},
                )
            }));
            assert!(producer.is_err(), "{threads} threads");
            // An endless producer: only the dropped receiver can stop it.
            let consumer = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                exec.pipeline(
                    || Ok::<_, String>(Some(0u32)),
                    |_| panic!("consumer failed"),
                )
            }));
            assert!(consumer.is_err(), "{threads} threads");
        }
    }

    #[test]
    fn pipeline_bounds_items_in_flight() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1, 2, 8] {
            let produced = AtomicUsize::new(0);
            let mut consumed = 0usize;
            let mut most = 0usize;
            Executor::new(threads)
                .pipeline(
                    || {
                        let n = produced.fetch_add(1, Ordering::SeqCst);
                        Ok::<_, String>((n < 200).then_some(n))
                    },
                    |_| {
                        // Give the producer time to run as far ahead as it
                        // can; now and then long enough that it parks.
                        if consumed % 50 == 25 {
                            outlast_the_spin();
                        } else {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        most = most.max(produced.load(Ordering::SeqCst) - consumed);
                        consumed += 1;
                    },
                )
                .unwrap();
            assert_eq!(consumed, 200);
            assert!(
                most <= PIPELINE_DEPTH + 2,
                "{threads} threads: {most} in flight"
            );
        }
    }

    #[test]
    fn pipeline_span_paths_ignore_the_thread_count() {
        let paths = |threads| {
            let reg = mm_telemetry::Registry::new();
            {
                let _caller = reg.span("sec", "caller");
                let mut produce = counter(3);
                Executor::new(threads)
                    .pipeline(
                        || {
                            let _span = reg.span("sec", "produce");
                            produce()
                        },
                        |_| {},
                    )
                    .unwrap();
            }
            reg.snapshot()
                .sections
                .iter()
                .flat_map(|s| s.spans.iter().map(|sp| (sp.path.clone(), sp.count)))
                .collect::<Vec<_>>()
        };
        let inline = paths(1);
        assert_eq!(
            inline,
            vec![("caller".to_string(), 1), ("produce".to_string(), 4)]
        );
        assert_eq!(paths(2), inline);
    }

    /// A lane walk over items `0..n`: each lane emits its own, `fill`ed
    /// with `(index, fresh)`, where `fresh` says the item was new rather
    /// than handed back.
    fn walk_items(
        n: usize,
        fail_at: &'static [usize],
    ) -> impl Fn(&mut Lane<'_, (usize, bool), String>) -> Result<(), Stopped> + Sync {
        move |lane| {
            for k in (lane.index()..n).step_by(lane.count()) {
                lane.emit(|item| {
                    if fail_at.contains(&k) {
                        return Err(format!("item {k} failed"));
                    }
                    *item = (k, *item == (0, false));
                    Ok(())
                })?;
            }
            Ok(())
        }
    }

    #[test]
    fn lanes_consume_every_item_in_index_order() {
        for threads in [1, 2, 3, 8] {
            for n in [0, 1, 2, 5, 64, 301] {
                let mut seen = Vec::new();
                let got = Executor::new(threads).lanes(n, walk_items(n, &[]), |&(k, _)| {
                    seen.push(k);
                    Ok(())
                });
                assert_eq!(got, Ok(n), "{threads} threads, {n} items");
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "{threads} threads");
            }
        }
    }

    #[test]
    fn lanes_hand_spent_items_back_to_their_helpers() {
        for threads in [2, 3, 8] {
            let mut fresh = vec![0usize; threads];
            let got = Executor::new(threads).lanes(2000, walk_items(2000, &[]), |&(k, new)| {
                fresh[k % threads] += usize::from(new);
                Ok(())
            });
            assert_eq!(got, Ok(2000));
            assert_eq!(fresh[0], 1, "lane 0 makes every item in one");
            for (lane, &n) in fresh.iter().enumerate().skip(1) {
                assert!(
                    n <= LANE_DEPTH + 2,
                    "{threads} threads: lane {lane} made {n}"
                );
            }
        }
    }

    #[test]
    fn lanes_return_the_first_error_in_index_order() {
        for threads in [1, 2, 3, 8] {
            let mut seen = Vec::new();
            let got = Executor::new(threads).lanes(100, walk_items(100, &[9, 7, 40]), |&(k, _)| {
                seen.push(k);
                Ok(())
            });
            assert_eq!(got, Err("item 7 failed".to_string()), "{threads} threads");
            assert_eq!(seen, (0..7).collect::<Vec<_>>(), "{threads} threads");
            // A failing consumer stops the run at its item.
            let mut seen = Vec::new();
            let got = Executor::new(threads).lanes(100, walk_items(100, &[]), |&(k, _)| {
                if k == 33 {
                    return Err(format!("consume {k} failed"));
                }
                seen.push(k);
                Ok(())
            });
            assert_eq!(got, Err("consume 33 failed".to_string()));
            assert_eq!(seen, (0..33).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    /// Run `f` on a watchdog thread: a hang fails the test instead of
    /// stalling the suite.
    fn within_a_minute<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(f()).ok());
        rx.recv_timeout(Duration::from_secs(60))
            .expect("the lane run hung")
    }

    #[test]
    fn a_lead_error_releases_a_helper_blocked_on_a_full_hand_off() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let got = within_a_minute(|| {
            let made = AtomicUsize::new(0);
            Executor::new(2).lanes(
                1000,
                |lane: &mut Lane<'_, usize, String>| {
                    for k in (lane.index()..1000).step_by(lane.count()) {
                        lane.emit(|item| {
                            *item = k;
                            made.fetch_add(usize::from(k % 2 == 1), Ordering::SeqCst);
                            Ok(())
                        })?;
                    }
                    Ok(())
                },
                |&k| {
                    // Item 0 is lane 0's. Fail it once the helper has
                    // filled its FIFO and made one more item, which it is
                    // blocked handing over.
                    let start = Instant::now();
                    while made.load(Ordering::SeqCst) < LANE_DEPTH + 1 {
                        assert!(start.elapsed() < Duration::from_secs(30), "helper stalled");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    std::thread::sleep(Duration::from_millis(20));
                    assert_eq!(made.load(Ordering::SeqCst), LANE_DEPTH + 1, "bounded");
                    Err(format!("write of item {k} failed"))
                },
            )
        });
        assert_eq!(got, Err("write of item 0 failed".to_string()));
    }

    #[test]
    fn lane_panics_propagate_without_hanging() {
        for threads in [2, 3] {
            let helper = within_a_minute(move || {
                std::panic::catch_unwind(|| {
                    Executor::new(threads).lanes(
                        500,
                        |lane: &mut Lane<'_, usize, String>| {
                            for k in (lane.index()..500).step_by(lane.count()) {
                                if k == 201 {
                                    panic!("lane {} failed", lane.index());
                                }
                                lane.emit(|item| {
                                    *item = k;
                                    Ok(())
                                })?;
                            }
                            Ok(())
                        },
                        |_| Ok(()),
                    )
                })
            });
            assert!(helper.is_err(), "{threads} threads");
            // A panicking consumer while helpers may be blocked handing
            // items over.
            let lead = within_a_minute(move || {
                std::panic::catch_unwind(|| {
                    Executor::new(threads).lanes(500, walk_items(500, &[]), |&(k, _)| {
                        if k == 100 {
                            panic!("consumer failed");
                        }
                        Ok(())
                    })
                })
            });
            assert!(lead.is_err(), "{threads} threads");
        }
    }

    #[test]
    fn panics_propagate() {
        let exec = Executor::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.scatter_gather((0..8).collect::<Vec<u32>>(), |_, x| {
                if x == 5 {
                    panic!("task 5 failed");
                }
                x
            })
        }));
        assert!(result.is_err());
    }
}
