//! Data parallelism on one process-wide persistent worker pool, with a
//! rayon-style surface.
//!
//! The batched workloads in this workspace are embarrassingly parallel
//! collections of independent small problems. [`for_each_index`] runs
//! `f(i)` for every `i < n` on the pool: `available_parallelism() − 1`
//! worker threads, started lazily on first use, plus the calling
//! thread, which takes part. Between jobs a worker polls briefly
//! (`SPIN`), then parks on a `Condvar`.
//! Participants claim small index ranges from one shared atomic
//! counter, so variable-size blocks balance across threads. The job
//! lives on the caller's stack: a warm call allocates nothing.
//!
//! The pool serves one job at a time. A call that finds it busy — a
//! nested call from inside a job, a second caller thread, a serve
//! shard — runs inline and sequentially on its own thread, which can
//! neither deadlock nor reorder anything. A panic inside a job is
//! caught, the workers still inside the job are waited out, and the
//! panic then resumes on the caller.
//!
//! [`par_map_vec`] and the [`prelude`] adapters run on the same pool and
//! keep results in input order. Every index is independent, so results
//! are bitwise identical to a sequential loop.

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Index ranges per participant in one job, roughly: small enough to
/// balance variable-size work, large enough that the shared counter is
/// not contended on every index.
const CLAIMS_PER_THREAD: usize = 8;

/// How long a worker polls for the next job before it parks. A Krylov
/// loop publishes its next apply a few hundred µs after the last one,
/// while a parked worker on a 2-vCPU VM joins a job tens of µs late.
/// Polling across that gap raised `suite_bj`'s apply rate by about 15%
/// and cut its time-to-solution by about 6% (4 of 4 paired runs).
const SPIN: Duration = Duration::from_micros(500);

/// Number of threads a parallel call uses: the pool's workers plus the
/// calling thread. Read once: `available_parallelism` consults the
/// cgroup quota files, which allocates.
pub fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Run `f(i)` for every `i` in `0..n` across the pool and return once
/// all have finished. Runs inline when `n < 2`, on a single-core host,
/// or while the pool serves another call. A panic in `f` propagates to
/// the caller after every participant has left the job.
pub fn for_each_index(n: usize, f: &(dyn Fn(usize) + Sync)) {
    if n < 2 || workers() == 0 || POOL.busy.swap(true, Ordering::Acquire) {
        (0..n).for_each(f);
        return;
    }
    let job = Job {
        f,
        n,
        grain: (n / (num_threads() * CLAIMS_PER_THREAD)).max(1),
        next: AtomicUsize::new(0),
        panic: Mutex::new(None),
    };
    run_on_pool(&job);
    POOL.busy.store(false, Ordering::Release);
    if let Some(payload) = job
        .panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        panic::resume_unwind(payload);
    }
}

/// One parallel call, on the caller's stack.
struct Job<'a> {
    f: &'a (dyn Fn(usize) + Sync),
    n: usize,
    grain: usize,
    next: AtomicUsize,
    /// First panic payload raised by any participant.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    /// Claim and run index ranges until none are left. Never unwinds: a
    /// panic is stored for the caller and ends all further claims.
    fn run(&self) {
        let result = panic::catch_unwind(AssertUnwindSafe(|| loop {
            let start = self.next.fetch_add(self.grain, Ordering::Relaxed);
            if start >= self.n {
                break;
            }
            (start..(start + self.grain).min(self.n)).for_each(self.f);
        }));
        if let Err(payload) = result {
            self.next.store(self.n, Ordering::Relaxed);
            lock(&self.panic).get_or_insert(payload);
        }
    }
}

struct Pool {
    /// Held by the one caller whose job the workers serve. Taken with
    /// `Acquire` and released with `Release`, so a caller sees every
    /// write of the job before it; the job itself travels under `state`.
    busy: AtomicBool,
    /// Bumped for every published job, always under `state`'s lock, so a
    /// worker joins each job at most once. Readable without the lock so
    /// workers can poll it; it publishes no data (the job itself is read
    /// under the lock), hence `Relaxed`.
    epoch: AtomicU64,
    state: Mutex<PoolState>,
    /// Workers park here between jobs.
    work: Condvar,
    /// The caller waits here for workers still inside its job.
    idle: Condvar,
}

struct PoolState {
    job: Option<&'static Job<'static>>,
    /// Workers currently running `job`.
    active: usize,
}

static POOL: Pool = Pool {
    busy: AtomicBool::new(false),
    epoch: AtomicU64::new(0),
    state: Mutex::new(PoolState {
        job: None,
        active: 0,
    }),
    work: Condvar::new(),
    idle: Condvar::new(),
};

/// Lock, ignoring poison. The pool's own locks never guard code that
/// can panic, and a `par_map_vec` part poisoned by a panicking item is
/// never read: that panic resumes on the caller first.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Worker count, spawning the workers on first use. Workers live as
/// long as the process and are never joined; a job's panic is caught
/// inside the job, so none of them ends early.
fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        (1..num_threads())
            .filter(|i| {
                std::thread::Builder::new()
                    .name(format!("vbatch-par-{i}"))
                    .spawn(worker_loop)
                    .is_ok()
            })
            .count()
    })
}

thread_local! {
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is one of the pool's workers.
pub(crate) fn on_worker_thread() -> bool {
    ON_WORKER.try_with(Cell::get).unwrap_or(false)
}

fn worker_loop() {
    ON_WORKER.with(|w| w.set(true));
    // the ring is this thread's one trace allocation, made before any job
    vbatch_trace::reserve_thread_ring(0);
    let mut seen = 0;
    loop {
        let polled = Instant::now();
        while POOL.epoch.load(Ordering::Relaxed) == seen && polled.elapsed() < SPIN {
            std::hint::spin_loop();
        }
        let mut state = lock(&POOL.state);
        while POOL.epoch.load(Ordering::Relaxed) == seen {
            state = POOL
                .work
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        seen = POOL.epoch.load(Ordering::Relaxed);
        let Some(job) = state.job else { continue };
        state.active += 1;
        drop(state);
        job.run();
        state = lock(&POOL.state);
        state.active -= 1;
        if state.active == 0 {
            POOL.idle.notify_one();
        }
    }
}

/// Publish `job` to the workers, take part in it, then unpublish it and
/// wait until no worker is inside it.
fn run_on_pool(job: &Job<'_>) {
    // SAFETY: only the lifetime is erased. Workers read the reference
    // from `POOL.state` and register in `active` under the same lock;
    // this function unpublishes the job under that lock and returns
    // only once `active` is zero again, and nothing in between can
    // unwind (`Job::run` catches panics, `lock` ignores poisoning). So
    // no worker still holds the reference when `job` goes out of scope.
    let erased = unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(job) };
    {
        let mut state = lock(&POOL.state);
        state.job = Some(erased);
        POOL.epoch.fetch_add(1, Ordering::Relaxed);
    }
    POOL.work.notify_all();
    job.run();
    let mut state = lock(&POOL.state);
    state.job = None;
    while state.active > 0 {
        state = POOL
            .idle
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// Ordered parallel map over an owned collection: results arrive in
/// input order. The items are split into a few contiguous parts per
/// thread, which the pool claims one at a time.
pub fn par_map_vec<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let part = n.div_ceil(num_threads() * CLAIMS_PER_THREAD).max(1);
    if part >= n {
        return items.into_iter().map(f).collect();
    }
    let mut rest = items.into_iter();
    let parts: Vec<Mutex<(Vec<T>, Vec<U>)>> = (0..n.div_ceil(part))
        .map(|_| Mutex::new((rest.by_ref().take(part).collect(), Vec::new())))
        .collect();
    for_each_index(parts.len(), &|p| {
        let mut guard = lock(&parts[p]);
        let (input, output) = &mut *guard;
        output.extend(std::mem::take(input).into_iter().map(&f));
    });
    let mut out = Vec::with_capacity(n);
    for p in parts {
        out.extend(p.into_inner().unwrap_or_else(PoisonError::into_inner).1);
    }
    out
}

/// An eager parallel iterator: adapters like [`ParIter::map`] execute
/// immediately across threads and hand back the (ordered) results.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Pair every item with its input index.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Parallel map preserving input order.
    pub fn map<U: Send, F: Fn(T) -> U + Sync>(self, f: F) -> ParIter<U> {
        ParIter {
            items: par_map_vec(self.items, f),
        }
    }

    /// Parallel side-effecting visit of every item.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        par_map_vec(self.items, f);
    }

    /// Gather the items into any collection (no further parallelism —
    /// upstream adapters already ran).
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// Conversion into a [`ParIter`] (rayon's `IntoParallelIterator`).
pub trait IntoParallelIterator {
    /// Item type of the produced iterator.
    type Item: Send;
    /// Convert into an eager parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// Parallel views over mutable slices (rayon's `ParallelSliceMut`).
pub trait ParallelSliceMut<T: Send> {
    /// One mutable reference per element.
    fn par_iter_mut(&mut self) -> ParIter<&mut T>;
    /// Disjoint mutable chunks of at most `size` elements.
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIter<&mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }

    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]> {
        ParIter {
            items: self.chunks_mut(size).collect(),
        }
    }
}

/// Rayon-style prelude: `use vbatch_rt::prelude::*;` at the sites that
/// previously imported `rayon::prelude::*`.
pub mod prelude {
    pub use super::{IntoParallelIterator, ParIter, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{for_each_index, num_threads, par_map_vec};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Barrier, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    /// The tests share one process-wide pool; serializing them lets the
    /// ones that need it own the pool instead of running inline.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn counts(n: usize) -> Vec<AtomicUsize> {
        (0..n).map(|_| AtomicUsize::new(0)).collect()
    }

    fn all_once(hits: &[AtomicUsize]) -> bool {
        hits.iter().all(|h| h.load(Ordering::Relaxed) == 1)
    }

    #[test]
    fn pool_visits_every_index_once_and_keeps_order() {
        let _g = serial();
        for n in [0, 1, 2, 1000] {
            let hits = counts(n);
            for_each_index(n, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(all_once(&hits), "n = {n}");
            let out = par_map_vec((0..n).collect(), |x| 3 * x + 1);
            assert_eq!(
                out,
                (0..n).map(|x| 3 * x + 1).collect::<Vec<_>>(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn pool_runs_indices_concurrently() {
        let _g = serial();
        if num_threads() < 2 {
            return;
        }
        // index 0 can only finish once index 1 ran, so a second thread
        // must have taken part
        let released = AtomicBool::new(false);
        let timed_out = AtomicBool::new(false);
        for_each_index(2, &|i| {
            if i == 1 {
                released.store(true, Ordering::Release);
                return;
            }
            let t0 = Instant::now();
            while !released.load(Ordering::Acquire) {
                if t0.elapsed() > Duration::from_secs(10) {
                    timed_out.store(true, Ordering::Relaxed);
                    return;
                }
                std::hint::spin_loop();
            }
        });
        assert!(
            !timed_out.load(Ordering::Relaxed),
            "no worker joined the job"
        );
    }

    #[test]
    fn pool_panic_reaches_caller_and_pool_recovers() {
        let _g = serial();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let caught = std::panic::catch_unwind(|| {
            for_each_index(100, &|i| {
                if i == 37 {
                    panic!("item 37");
                }
            })
        });
        std::panic::set_hook(hook);
        let payload = caught.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 37"));
        let hits = counts(100);
        for_each_index(100, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(all_once(&hits));
    }

    #[test]
    fn nested_call_completes_inline() {
        let _g = serial();
        let hits = counts(8 * 16);
        for_each_index(8, &|i| {
            for_each_index(16, &|j| {
                hits[i * 16 + j].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(all_once(&hits));
        let nested: Vec<Vec<usize>> = par_map_vec((0..8).collect(), |i| {
            par_map_vec((0..16).collect(), |j| i * 16 + j)
        });
        assert_eq!(nested.concat(), (0..128).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_callers_both_get_correct_results() {
        let _g = serial();
        let start = Barrier::new(2);
        let results: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2u64)
                .map(|t| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        let mut last = Vec::new();
                        for _ in 0..50 {
                            last = par_map_vec((0..5000u64).collect(), |x| x * x + t);
                        }
                        last
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, out) in results.iter().enumerate() {
            assert_eq!(
                *out,
                (0..5000u64).map(|x| x * x + t as u64).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn map_preserves_order() {
        let _g = serial();
        let v: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = v.into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn range_and_enumerate() {
        let _g = serial();
        let out: Vec<(usize, usize)> = (10..15).into_par_iter().enumerate().collect();
        assert_eq!(out, vec![(0, 10), (1, 11), (2, 12), (3, 13), (4, 14)]);
    }

    #[test]
    fn for_each_on_mut_slices() {
        let _g = serial();
        let mut data = vec![0usize; 64];
        data.par_iter_mut()
            .enumerate()
            .for_each(|(i, v)| *v = i * i);
        assert!(data.iter().enumerate().all(|(i, &v)| v == i * i));
        let mut chunked = vec![0usize; 10];
        chunked
            .par_chunks_mut(3)
            .enumerate()
            .for_each(|(c, chunk)| chunk.iter_mut().for_each(|v| *v = c));
        assert_eq!(chunked, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
    }

    #[test]
    fn empty_and_single() {
        let _g = serial();
        let out: Vec<i32> = Vec::<i32>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
        let out: Vec<i32> = vec![7].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(out, vec![8]);
    }
}
