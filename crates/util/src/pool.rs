//! A std-only scoped thread pool: one FIFO queue, one worker per core.
//!
//! The batch-ingestion and batch-query paths fan CPU-bound work (CRF
//! tagging, analyzer tokenization, postings construction, BM25 scoring)
//! across cores, and the HTTP server runs its requests on the same
//! workers. The build environment has no network access, so this is built
//! entirely on `std`: workers pop jobs oldest first from one shared queue
//! and park on a condvar paired with that queue's lock while it is empty.
//!
//! Two entry points cover the workspace's needs:
//!
//! * [`ThreadPool::scope`] — structured spawning of closures that borrow
//!   from the caller's stack (the rayon-style scoped API);
//! * [`ThreadPool::parallel_map`] — indexed map over a slice with
//!   self-scheduling at item granularity, results in input order.
//!
//! A scope keeps its tasks in a queue of its own; the pool's queue gets
//! one ticket per task, which runs one task of that scope if any is still
//! waiting. The scope's caller, while it waits, runs tasks from its own
//! queue and nothing else: a thread that holds a lock across a scope
//! never picks up an unrelated job that wants the same lock.
//!
//! Determinism note: the pool never reorders *results* — `parallel_map`
//! writes each result into its input slot — so callers that shard work
//! deterministically (see `create-index`'s segment merge) observe output
//! independent of thread count and scheduling.
//!
//! Observability: when `create-obs` is built with its `enabled`
//! feature (any instrumented workspace build), every job and task is
//! wrapped with `create_obs::carry_context` so the submitting thread's
//! trace context follows it onto the thread that runs it, and the pool
//! maintains process-wide worker-count / queue-depth gauges plus a
//! jobs-executed counter in the global registry. Stripped builds
//! (`--no-default-features`) compile all of it out.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// A unit of work. The `'static` bound is erased for scoped tasks; the
/// scope guarantees the closure outlives its execution by blocking until
/// every task completes.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Cached handles for the pool's registry series, shared by every pool
/// instance in the process (the series are process-wide totals).
struct PoolSeries {
    workers: std::sync::Arc<create_obs::Gauge>,
    queue_depth: std::sync::Arc<create_obs::Gauge>,
    executed: std::sync::Arc<create_obs::Counter>,
}

fn pool_series() -> Option<&'static PoolSeries> {
    if !create_obs::enabled() {
        return None;
    }
    static SERIES: OnceLock<PoolSeries> = OnceLock::new();
    Some(SERIES.get_or_init(|| PoolSeries {
        workers: create_obs::gauge(create_obs::names::POOL_WORKERS_GAUGE),
        queue_depth: create_obs::gauge(create_obs::names::POOL_QUEUE_DEPTH_GAUGE),
        executed: create_obs::counter(create_obs::names::POOL_JOBS_EXECUTED_TOTAL),
    }))
}

/// A job or task was queued; the queue-depth gauge counts it until it
/// starts.
fn note_job_queued() {
    if let Some(series) = pool_series() {
        series.queue_depth.add(1);
    }
}

/// A job or task left its queue and is about to run (on a worker, or on
/// the thread waiting for its scope). A ticket that finds its scope's
/// queue empty runs nothing and counts nothing.
fn note_job_executed() {
    if let Some(series) = pool_series() {
        series.queue_depth.add(-1);
        series.executed.inc();
    }
}

/// Wraps `job` so the submitting thread's trace context is installed
/// around it wherever it runs (a plain box-wrap in stripped builds, so
/// gate on the const feature flag instead).
fn carry(job: Job) -> Job {
    if create_obs::enabled() {
        Box::new(create_obs::carry_context(job))
    } else {
        job
    }
}

/// What the pool's lock guards: the job queue and the shutdown flag.
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Wakes idle workers. Signalled with `queue` locked, and a worker
    /// checks for work and parks under that same lock, so no signal falls
    /// between a worker's empty check and its wait.
    work_signal: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect("pool lock")
    }
}

/// The pool. Workers live for the pool's lifetime; dropping the pool
/// joins them after draining outstanding work.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl ThreadPool {
    /// Spawns a pool with `threads` workers (at least one).
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_signal: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("create-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        if let Some(series) = pool_series() {
            series.workers.add(threads as i64);
        }
        ThreadPool { shared, workers }
    }

    /// The process-wide pool, one worker per core
    /// (`available_parallelism`, min 1). Every CPU job of the process
    /// runs here: the server's requests, batch ingestion and batch
    /// search.
    pub fn global() -> &'static ThreadPool {
        static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            ThreadPool::new(
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1),
            )
        })
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submits a fire-and-forget job. Unlike [`ThreadPool::scope`] the
    /// closure must be `'static`, and nothing awaits its completion: a
    /// caller that must know when it finished has the job say so (the
    /// evented server counts its dispatched requests back in). Dropping
    /// a pool still runs every queued job before joining the workers.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        note_job_queued();
        let job = carry(Box::new(f));
        self.inject(Box::new(move || {
            note_job_executed();
            job()
        }));
    }

    fn inject(&self, job: Job) {
        let mut queue = self.shared.lock();
        queue.jobs.push_back(job);
        self.shared.work_signal.notify_one();
    }

    /// Runs `f` with a [`Scope`] that can spawn closures borrowing from
    /// the caller's stack. Returns once `f` and every spawned task have
    /// completed; meanwhile the calling thread runs the scope's queued
    /// tasks itself (never another job), so a scope completes even when
    /// every worker is busy. If any task panicked, the first panic is
    /// resumed on the caller's thread after the scope drains (so borrowed
    /// data is never touched after the caller unwinds).
    pub fn scope<'scope, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'scope, '_>) -> R,
    {
        let state = Arc::new(ScopeState {
            tasks: Mutex::new(ScopeTasks {
                queued: VecDeque::new(),
                pending: 0,
            }),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            _marker: std::marker::PhantomData,
        };
        // The drain guard blocks until all tasks finish even when `f`
        // itself panics — spawned closures may borrow locals of `f`.
        struct Drain<'a>(&'a ScopeState);
        impl Drop for Drain<'_> {
            fn drop(&mut self) {
                self.0.wait();
            }
        }
        let result = {
            let _drain = Drain(&state);
            f(&scope)
            // `_drain` drops here, blocking until every task completed.
        };
        if let Some(payload) = state.panic.lock().expect("pool lock").take() {
            std::panic::resume_unwind(payload);
        }
        result
    }

    /// Maps `f` over `items` in parallel, returning results in input
    /// order. Items self-schedule at index granularity, so uneven item
    /// costs balance across workers. `f` receives `(index, &item)`. A
    /// single item runs on the calling thread: a hop buys it nothing.
    pub fn parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![f(0, &items[0])];
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let tasks = self.threads().min(n);
        self.scope(|s| {
            for _ in 0..tasks {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(i, &items[i]);
                    *slots[i].lock().expect("pool lock") = Some(r);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("pool lock")
                    .expect("scope drained, every slot filled")
            })
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        let threads = self.workers.len();
        {
            let mut queue = self.shared.lock();
            queue.shutdown = true;
            self.shared.work_signal.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _unused = handle.join();
        }
        if let Some(series) = pool_series() {
            series.workers.add(-(threads as i64));
        }
    }
}

/// What a scope's lock guards: its tasks not yet started, and the count
/// of tasks spawned and not yet finished.
struct ScopeTasks {
    queued: VecDeque<Job>,
    pending: usize,
}

struct ScopeState {
    tasks: Mutex<ScopeTasks>,
    /// Signalled, with `tasks` locked, when `pending` reaches zero.
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl ScopeState {
    fn lock(&self) -> MutexGuard<'_, ScopeTasks> {
        self.tasks.lock().expect("pool lock")
    }

    /// Runs the oldest queued task of this scope, if one is left — what a
    /// ticket does on a worker, and what the waiting caller does on its
    /// own thread.
    fn run_one(&self) {
        let Some(task) = self.lock().queued.pop_front() else {
            return;
        };
        note_job_executed();
        if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
            self.panic.lock().expect("pool lock").get_or_insert(payload);
        }
        let mut tasks = self.lock();
        tasks.pending -= 1;
        if tasks.pending == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every spawned task has finished, running the scope's
    /// queued tasks on the calling thread meanwhile. Once none is queued
    /// the rest are running on workers, and the last to finish wakes it.
    fn wait(&self) {
        let mut tasks = self.lock();
        while tasks.pending > 0 {
            if tasks.queued.is_empty() {
                tasks = self.done.wait(tasks).expect("pool lock");
            } else {
                drop(tasks);
                self.run_one();
                tasks = self.lock();
            }
        }
    }
}

/// Spawn handle passed to the closure of [`ThreadPool::scope`].
pub struct Scope<'scope, 'pool> {
    pool: &'pool ThreadPool,
    state: Arc<ScopeState>,
    /// Makes `'scope` invariant, as in `std::thread::scope`.
    _marker: std::marker::PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope, '_> {
    /// Spawns a task that may borrow data outliving the scope: queues it
    /// on the scope and puts one ticket for it on the pool.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(f);
        // SAFETY: the scope's drain guard blocks until `pending` reaches
        // zero before the borrowed stack frame can unwind, and a task is
        // consumed before `pending` counts it finished, so the closure
        // never outlives its borrows; lifetime erasure to 'static is
        // sound. A ticket that outlives the scope finds its queue empty.
        let task: Job =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(task) };
        note_job_queued();
        {
            let mut tasks = self.state.lock();
            tasks.queued.push_back(carry(task));
            tasks.pending += 1;
        }
        let state = Arc::clone(&self.state);
        self.pool.inject(Box::new(move || state.run_one()));
    }
}

fn worker_loop(shared: &Shared) {
    let mut queue = shared.lock();
    loop {
        if let Some(job) = queue.jobs.pop_front() {
            drop(queue);
            // A panicking job must not kill the worker; scoped tasks
            // already catch their panics, but a spawned job may not.
            let _result = catch_unwind(AssertUnwindSafe(job));
            queue = shared.lock();
        } else if queue.shutdown {
            return;
        } else {
            queue = shared.work_signal.wait(queue).expect("pool lock");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Runs `f` on a thread of its own and fails if it has not returned
    /// within `limit`: a deadlock or a lost wakeup becomes a failure, not
    /// a hang.
    fn within(limit: Duration, f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = mpsc::channel();
        let watched = std::thread::spawn(move || {
            f();
            let _ = tx.send(());
        });
        if let Err(mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(limit) {
            panic!("still running after {limit:?}: the pool is stuck");
        }
        if let Err(payload) = watched.join() {
            std::panic::resume_unwind(payload);
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let pool = ThreadPool::new(4);
        let items: Vec<usize> = (0..1000).collect();
        let doubled = pool.parallel_map(&items, |_, &x| x * 2);
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let pool = ThreadPool::new(2);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.parallel_map(&empty, |_, &x| x).is_empty());
        let caller = std::thread::current().id();
        assert_eq!(
            pool.parallel_map(&[7], |i, &x| (i, x, std::thread::current().id())),
            vec![(0, 7, caller)],
            "a single item runs on the calling thread"
        );
    }

    #[test]
    fn scope_borrows_stack_data() {
        let pool = ThreadPool::new(3);
        let data = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let sums: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.scope(|s| {
            for (i, chunk) in data.chunks(2).enumerate() {
                let sums = &sums;
                s.spawn(move || {
                    let sum: u64 = chunk.iter().sum();
                    sums[i].store(sum as usize, Ordering::Relaxed);
                });
            }
        });
        let total: usize = sums.iter().map(|s| s.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 36);
    }

    #[test]
    fn scope_runs_with_single_worker() {
        let pool = ThreadPool::new(1);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..32 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn panic_in_task_propagates() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("task failure"));
            });
        }));
        assert!(result.is_err());
        // The pool survives and keeps working.
        assert_eq!(pool.parallel_map(&[1, 2, 3], |_, &x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn heavy_nested_use_completes() {
        let pool = ThreadPool::new(4);
        let items: Vec<usize> = (0..64).collect();
        let out = pool.parallel_map(&items, |_, &x| {
            // CPU-ish work with uneven cost.
            let mut acc = 0u64;
            for i in 0..(x * 1000) as u64 {
                acc = acc.wrapping_add(i ^ acc.rotate_left(7));
            }
            acc
        });
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn spawned_jobs_drain_before_drop_joins() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..64 {
                let counter = Arc::clone(&counter);
                pool.spawn(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Drop joins only after the queue drains.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn pool_series_count_executed_jobs() {
        // Active only in instrumented workspace builds; a standalone
        // `cargo test -p create-util` leaves create-obs stripped.
        if !create_obs::enabled() {
            return;
        }
        let executed = create_obs::counter(create_obs::names::POOL_JOBS_EXECUTED_TOTAL);
        let depth = create_obs::gauge(create_obs::names::POOL_QUEUE_DEPTH_GAUGE);
        let before = executed.get();
        {
            let pool = ThreadPool::new(2);
            let out = pool.parallel_map(&[1u64, 2, 3, 4], |_, &x| x * 2);
            assert_eq!(out, vec![2, 4, 6, 8]);
        }
        assert!(
            executed.get() > before,
            "parallel_map jobs land in the executed counter"
        );
        // Gauges are process-wide (other tests run pools concurrently),
        // so only sign-level assertions are safe here.
        assert!(depth.get() >= 0, "queue depth never goes negative");
    }

    #[test]
    fn global_pool_is_shared() {
        let a = ThreadPool::global();
        let b = ThreadPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.threads() >= 1);
    }

    #[test]
    fn a_waiting_scope_runs_only_its_own_tasks() {
        for threads in [1, 2] {
            within(Duration::from_secs(30), move || {
                // Leaked: the holder job borrows the pool for its nested
                // map, so the pool must outlive every job on it.
                let pool: &'static ThreadPool = Box::leak(Box::new(ThreadPool::new(threads)));
                let lock = Arc::new(Mutex::new(0usize));
                let (locked_tx, locked_rx) = mpsc::channel();
                let (go_tx, go_rx) = mpsc::channel::<()>();
                let (done_tx, done_rx) = mpsc::channel();
                {
                    let (lock, done_tx) = (Arc::clone(&lock), done_tx.clone());
                    pool.spawn(move || {
                        let mut held = lock.lock().expect("holder lock");
                        locked_tx.send(()).expect("test waits");
                        go_rx.recv().expect("test says go");
                        let items: Vec<usize> = (0..8).collect();
                        *held = pool.parallel_map(&items, |_, &x| x).iter().sum();
                        done_tx.send("holder").expect("test waits");
                    });
                }
                locked_rx.recv().expect("holder took the lock");
                // One job per worker that wants the held lock: with the
                // holder on a worker, at least one of them is still
                // queued ahead of the holder's tickets when its map waits.
                for _ in 0..threads {
                    let (lock, done_tx) = (Arc::clone(&lock), done_tx.clone());
                    pool.spawn(move || {
                        let sum = *lock.lock().expect("waiter lock");
                        assert_eq!(sum, 28, "the waiter ran after the holder's map");
                        done_tx.send("waiter").expect("test waits");
                    });
                }
                go_tx.send(()).expect("holder waits");
                let finished: Vec<&str> = (0..=threads)
                    .map(|_| done_rx.recv().expect("every job reports"))
                    .collect();
                assert_eq!(finished[0], "holder", "{threads} workers: {finished:?}");
            });
        }
    }

    #[test]
    fn inject_round_trips_never_lose_a_wakeup() {
        within(Duration::from_secs(60), || {
            let pool = ThreadPool::new(1);
            let (tx, rx) = mpsc::channel();
            for i in 0..10_000 {
                let tx = tx.clone();
                pool.spawn(move || tx.send(i).expect("test waits"));
                assert_eq!(rx.recv().expect("the job ran"), i);
            }
        });
    }
}
