//! The persistent, process-global thread pool — the one parallel runtime.
//!
//! Two of Sec. 5.1's techniques live here. *Merged parallel regions* ("to
//! reduce the overhead of opening more than one parallel region, multiple
//! parallel regions should be merged") is the pool itself: [`global_pool`]
//! spawns its workers once and every parallel loop in the program borrows
//! them through [`ThreadPool::scoped_run`], so no region pays a thread
//! start. *Cache-line-aware chunking* is [`for_each_chunk_mut_pooled`]: it
//! splits a mutable slice on [`chunks`] boundaries and runs one part on the
//! caller and the rest on the pool.
//!
//! The global pool's size is decided once, at first use: the
//! `PSML_WORKERS` environment variable, else [`default_workers`].

use crate::chunking::{chunks, Chunk};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Number of worker threads to use by default.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

enum Job {
    Run(Box<dyn FnOnce() + Send + 'static>),
    Shutdown,
}

/// The shared job queue: a deque under a mutex plus a condvar to park idle
/// workers. A `Mutex<mpsc::Receiver>` would be the textbook shape, but it
/// blocks in `recv()` *while holding the lock* — `Condvar::wait` releases
/// the guard for the duration of the wait, so producers never contend with
/// a parked worker.
#[derive(Default)]
struct JobQueue {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
}

impl JobQueue {
    fn push(&self, job: Job) {
        self.jobs.lock().unwrap().push_back(job);
        self.available.notify_one();
    }

    fn pop(&self) -> Job {
        let mut jobs = self.jobs.lock().unwrap();
        loop {
            if let Some(job) = jobs.pop_front() {
                return job;
            }
            jobs = self.available.wait(jobs).unwrap();
        }
    }
}

#[derive(Default)]
struct PendingState {
    count: Mutex<usize>,
    done: Condvar,
}

impl PendingState {
    fn decrement(&self) {
        let mut count = self.count.lock().unwrap();
        *count -= 1;
        if *count == 0 {
            self.done.notify_all();
        }
    }
}

/// Decrements the pending count even if the job unwinds, so a panicking job
/// cannot wedge [`ThreadPool::join`].
struct PendingGuard<'a>(&'a PendingState);

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.0.decrement();
    }
}

/// Blocks until the latch count reaches zero — from `Drop`, so that
/// unwinding out of the caller-side closure in [`pool_run_with_local`]
/// still waits for every pool-side job before the `'env` borrows die (the
/// same drop-wait trick `std::thread::scope` uses).
struct LatchWaitGuard<'a>(&'a PendingState);

impl Drop for LatchWaitGuard<'_> {
    fn drop(&mut self) {
        // Never panic out of this drop (it may run during unwinding): a
        // poisoned lock still holds a correct count, so just take it.
        let mut count = self
            .0
            .count
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while *count != 0 {
            count = self
                .0
                .done
                .wait(count)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// A persistent pool of worker threads for `'static` jobs.
///
/// Workers are spawned once and reused across all submitted jobs, so the
/// per-region thread startup cost is paid only at construction.
pub struct ThreadPool {
    queue: Arc<JobQueue>,
    workers: Vec<JoinHandle<()>>,
    pending: Arc<PendingState>,
}

impl ThreadPool {
    /// Spawns a pool with `n` workers (at least one).
    pub fn new(n: usize) -> Self {
        let n = n.max(1);
        let queue = Arc::new(JobQueue::default());
        let pending = Arc::new(PendingState::default());
        let workers = (0..n)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let pending = Arc::clone(&pending);
                std::thread::Builder::new()
                    .name(format!("psml-worker-{i}"))
                    .spawn(move || worker_loop(&queue, &pending))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            queue,
            workers,
            pending,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Submits a job; returns immediately.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        *self.pending.count.lock().unwrap() += 1;
        self.queue.push(Job::Run(Box::new(job)));
    }

    /// Blocks until every submitted job has finished.
    pub fn join(&self) {
        let mut count = self.pending.count.lock().unwrap();
        while *count != 0 {
            count = self.pending.done.wait(count).unwrap();
        }
    }

    /// Runs borrowed jobs on the pool and blocks until all of them finish.
    ///
    /// This is the scoped bridge that lets hot-path kernels hand
    /// stack-borrowed closures to the persistent workers: the jobs only live
    /// until this call returns, and the call does not return before every job
    /// has run (or the first captured panic is re-raised on the caller).
    pub fn scoped_run<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        pool_run_with_local(self, jobs, || {});
    }
}

thread_local! {
    /// True on threads that are pool workers (set for the lifetime of the
    /// worker loop). Lets nested parallel helpers detect that they are
    /// already *inside* a pooled job and degrade to serial execution
    /// instead of blocking on the pool they are running on.
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// True when the calling thread is one of a [`ThreadPool`]'s workers.
pub fn in_pool_worker() -> bool {
    IN_POOL_WORKER.with(std::cell::Cell::get)
}

fn worker_loop(queue: &JobQueue, pending: &PendingState) {
    IN_POOL_WORKER.with(|flag| flag.set(true));
    while let Job::Run(f) = queue.pop() {
        let _open = PendingGuard(pending);
        f();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.join();
        for _ in &self.workers {
            self.queue.push(Job::Shutdown);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

static GLOBAL_POOL: OnceLock<ThreadPool> = OnceLock::new();

/// Worker count the global pool will use (or already uses): a valid
/// `PSML_WORKERS`, else [`default_workers`].
pub fn configured_workers() -> usize {
    if let Ok(raw) = std::env::var("PSML_WORKERS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    default_workers()
}

/// The process-global pool, built on first use with
/// [`configured_workers`] threads and kept alive for the program's lifetime.
pub fn global_pool() -> &'static ThreadPool {
    GLOBAL_POOL.get_or_init(|| ThreadPool::new(configured_workers()))
}

fn split_parts<'d, T>(data: &'d mut [T], plan: &[Chunk]) -> Vec<(usize, &'d mut [T])> {
    let mut parts: Vec<(usize, &mut [T])> = Vec::with_capacity(plan.len());
    let mut rest = data;
    let mut offset = 0usize;
    for c in plan {
        let (head, tail) = rest.split_at_mut(c.len());
        parts.push((offset, head));
        offset += c.len();
        rest = tail;
    }
    parts
}

/// Applies `body` to disjoint cache-line-aligned mutable sub-slices of
/// `data` in parallel on the persistent [`global_pool`]: no per-call thread
/// spawn. `body` receives the starting offset of the sub-slice within
/// `data` and the sub-slice itself. The calling thread executes the first
/// chunk while the pool's workers execute the rest.
///
/// Safe to call from inside another pooled job: when the calling thread
/// is itself a pool worker (see [`in_pool_worker`]), the whole slice runs
/// serially on the caller instead of re-entering the pool, so a nested
/// wait can never starve the workers it is waiting on.
pub fn for_each_chunk_mut_pooled<T, F>(data: &mut [T], align: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if in_pool_worker() {
        if !data.is_empty() {
            body(0, data);
        }
        return;
    }
    let pool = global_pool();
    // The caller participates, so plan for one part more than the pool has
    // workers.
    let plan = chunks(data.len(), pool.workers() + 1, align);
    match plan.len() {
        0 => {}
        1 => body(0, data),
        _ => {
            let parts = split_parts(data, &plan);
            let mut iter = parts.into_iter();
            let first = iter.next().unwrap();
            let body = &body;
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = iter
                .map(|(off, slice)| {
                    Box::new(move || body(off, slice)) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            // The caller's own chunk runs after submission, in parallel with
            // the pool workers; the call then blocks for the rest.
            pool_run_with_local(pool, jobs, || body(first.0, first.1));
        }
    }
}

/// Submits `jobs` to `pool`, runs `local` on the calling thread, then blocks
/// until the submitted jobs complete.
fn pool_run_with_local<'env>(
    pool: &ThreadPool,
    jobs: Vec<Box<dyn FnOnce() + Send + 'env>>,
    local: impl FnOnce(),
) {
    if jobs.is_empty() {
        local();
        return;
    }
    let latch = Arc::new(PendingState::default());
    *latch.count.lock().unwrap() = jobs.len();
    let panic_payload: Arc<Mutex<Option<Box<dyn std::any::Any + Send>>>> =
        Arc::new(Mutex::new(None));
    // Armed BEFORE any job is submitted: if `local` (the caller-side chunk,
    // which runs the user-supplied body) unwinds, this guard's Drop still
    // blocks until the latch drains, so no pool worker can be touching the
    // `'env` borrows once they die.
    let wait = LatchWaitGuard(&latch);
    for job in jobs {
        // SAFETY: the latch wait guard above does not let this function
        // return *or unwind* before every submitted job has finished, so
        // the `'env` borrows outlive all job executions.
        let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
        let latch = Arc::clone(&latch);
        let panic_payload = Arc::clone(&panic_payload);
        pool.execute(move || {
            let _open = PendingGuard(&latch);
            if let Err(p) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)) {
                *panic_payload.lock().unwrap() = Some(p);
            }
        });
    }
    local();
    drop(wait); // normal path: block here for the pool-side jobs
    let payload = panic_payload.lock().unwrap().take();
    if let Some(p) = payload {
        std::panic::resume_unwind(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunking::CACHE_LINE_F32;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_all_jobs() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.join();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn pool_join_with_no_jobs_returns() {
        let pool = ThreadPool::new(2);
        pool.join();
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn pool_drop_waits_for_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(3);
            for _ in 0..16 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn zero_sized_pool_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.workers(), 1);
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        pool.execute(move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
        pool.join();
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn scoped_run_borrows_stack_data() {
        let pool = ThreadPool::new(3);
        let mut out = vec![0usize; 8];
        {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = out
                .chunks_mut(2)
                .enumerate()
                .map(|(i, chunk)| {
                    Box::new(move || {
                        for v in chunk.iter_mut() {
                            *v = i + 1;
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.scoped_run(jobs);
        }
        assert_eq!(out, vec![1, 1, 2, 2, 3, 3, 4, 4]);
    }

    #[test]
    fn scoped_run_propagates_panics() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scoped_run(vec![Box::new(|| panic!("job failure")) as Box<dyn FnOnce() + Send>]);
        }));
        assert!(result.is_err());
        // The pool must remain usable after a panicked job.
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        pool.execute(move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
        pool.join();
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn local_panic_still_waits_for_pool_jobs() {
        // If the caller-side closure panics, pool_run_with_local must not
        // unwind past the latch wait while pool workers still run jobs that
        // borrow the caller's stack (use-after-free otherwise). The sleeping
        // jobs make a missing wait observable as a short counter.
        let pool = ThreadPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
                .map(|_| {
                    let counter = Arc::clone(&counter);
                    Box::new(move || {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool_run_with_local(&pool, jobs, || panic!("caller-side chunk failed"));
        }));
        assert!(result.is_err());
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn pooled_chunks_cover_exactly_once() {
        let mut data = vec![0u32; 777];
        for_each_chunk_mut_pooled(&mut data, CACHE_LINE_F32, |off, slice| {
            for (i, v) in slice.iter_mut().enumerate() {
                *v = (off + i) as u32;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn pooled_matrix_add_matches_serial() {
        let n = 4096;
        let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..n).map(|i| (2 * i) as f32).collect();
        let mut out = vec![0f32; n];
        for_each_chunk_mut_pooled(&mut out, CACHE_LINE_F32, |off, slice| {
            for (i, v) in slice.iter_mut().enumerate() {
                *v = a[off + i] + b[off + i];
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == 3.0 * i as f32));
    }

    #[test]
    fn pooled_chunk_panic_reaches_the_caller() {
        // Only a chunk that ran on a pool worker panics (offset 0 is the
        // caller's own); the caller must see it, and the pool must survive.
        let mut data = vec![0u32; 777];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_chunk_mut_pooled(&mut data, CACHE_LINE_F32, |off, _| {
                assert_eq!(off, 0, "pool-side chunk failed");
            });
        }));
        assert!(result.is_err());
        global_pool().scoped_run(vec![Box::new(|| {}) as Box<dyn FnOnce() + Send>]);
    }

    #[test]
    fn pooled_empty_slice_is_noop() {
        let mut data: Vec<u32> = Vec::new();
        for_each_chunk_mut_pooled(&mut data, CACHE_LINE_F32, |_, _| {
            panic!("must not be called")
        });
    }

    #[test]
    fn pooled_call_from_inside_worker_degrades_to_serial() {
        // A pooled job that itself calls for_each_chunk_mut_pooled must not
        // deadlock waiting on the pool it runs on; the nested call covers
        // the slice serially on the worker.
        assert!(!in_pool_worker(), "test thread is not a pool worker");
        let mut data = vec![0u32; 515];
        let data_ref = &mut data;
        global_pool().scoped_run(vec![Box::new(move || {
            assert!(in_pool_worker());
            for_each_chunk_mut_pooled(data_ref, CACHE_LINE_F32, |off, slice| {
                for (i, v) in slice.iter_mut().enumerate() {
                    *v = (off + i) as u32;
                }
            });
        }) as Box<dyn FnOnce() + Send + '_>]);
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn global_pool_is_reused() {
        let first = global_pool() as *const ThreadPool;
        let second = global_pool() as *const ThreadPool;
        assert_eq!(first, second);
        assert!(global_pool().workers() >= 1);
    }
}
