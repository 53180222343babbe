//! A std-only scoped work-stealing thread pool.
//!
//! The batch-ingestion and batch-query paths fan CPU-bound work (CRF
//! tagging, analyzer tokenization, postings construction, BM25 scoring)
//! across cores. The build environment has no network access, so this is
//! built entirely on `std`: each worker owns a local deque and steals
//! from the global injector or from its siblings when idle.
//!
//! Scheduling order per worker: newest local task (LIFO, cache-warm) →
//! oldest injected task (FIFO, fair) → steal the oldest task from a
//! sibling (FIFO, minimizes contention on the victim's hot end).
//!
//! Two entry points cover the workspace's needs:
//!
//! * [`ThreadPool::scope`] — structured spawning of closures that borrow
//!   from the caller's stack (the rayon-style scoped API);
//! * [`ThreadPool::parallel_map`] — indexed map over a slice with
//!   self-scheduling at item granularity, results in input order.
//!
//! Determinism note: the pool never reorders *results* — `parallel_map`
//! writes each result into its input slot — so callers that shard work
//! deterministically (see `create-index`'s segment merge) observe output
//! independent of thread count and scheduling.
//!
//! Observability: when `create-obs` is built with its `enabled`
//! feature (any instrumented workspace build), every injected job is
//! wrapped with `create_obs::carry_context` so the submitting thread's
//! trace context follows the job onto the worker, and the pool
//! maintains process-wide worker-count / queue-depth gauges plus a
//! jobs-executed counter in the global registry. Stripped builds
//! (`--no-default-features`) compile all of it out.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
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

/// A job left the queue and is about to run on some executor (a worker
/// or a scope's drain loop).
fn note_job_executed() {
    if let Some(series) = pool_series() {
        series.queue_depth.add(-1);
        series.executed.inc();
    }
}

struct Shared {
    /// Global FIFO queue that `scope`/`parallel_map` push into.
    injector: Mutex<VecDeque<Job>>,
    /// Per-worker local deques, steal targets for idle siblings.
    locals: Vec<Mutex<VecDeque<Job>>>,
    /// Wakes idle workers when work arrives or on shutdown.
    work_signal: Condvar,
    /// Guards the sleep state for `work_signal`.
    sleep_lock: Mutex<()>,
    shutdown: AtomicBool,
}

impl Shared {
    /// Pops a job: own local LIFO first, then the injector, then steal
    /// FIFO from siblings.
    fn find_job(&self, worker: usize) -> Option<Job> {
        let job = self.find_job_inner(worker);
        if job.is_some() {
            note_job_executed();
        }
        job
    }

    fn find_job_inner(&self, worker: usize) -> Option<Job> {
        if let Some(job) = self.locals[worker].lock().expect("pool lock").pop_back() {
            return Some(job);
        }
        if let Some(job) = self.injector.lock().expect("pool lock").pop_front() {
            return Some(job);
        }
        let n = self.locals.len();
        for offset in 1..n {
            let victim = (worker + offset) % n;
            if let Some(job) = self.locals[victim].lock().expect("pool lock").pop_front() {
                return Some(job);
            }
        }
        None
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
            injector: Mutex::new(VecDeque::new()),
            locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            work_signal: Condvar::new(),
            sleep_lock: Mutex::new(()),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("create-pool-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        if let Some(series) = pool_series() {
            series.workers.add(threads as i64);
        }
        ThreadPool { shared, workers }
    }

    /// Pool sized to the machine (`available_parallelism`, min 1).
    pub fn for_machine() -> ThreadPool {
        ThreadPool::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The process-wide shared pool, sized to the machine. Batch ingestion
    /// and batch search both amortize their fan-out over this instance.
    pub fn global() -> &'static ThreadPool {
        static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
        GLOBAL.get_or_init(ThreadPool::for_machine)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submits a fire-and-forget job. Unlike [`ThreadPool::scope`] the
    /// closure must be `'static`; nothing awaits its completion, but
    /// dropping the pool drains every queued job before joining the
    /// workers (the evented server relies on this for graceful drain).
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        self.inject(Box::new(f));
    }

    fn inject(&self, job: Job) {
        // Capture the submitter's trace context so the worker installs
        // it around the job (a no-op box-wrap in stripped builds, so
        // gate on the const feature flag instead).
        let job: Job = if create_obs::enabled() {
            Box::new(create_obs::carry_context(job))
        } else {
            job
        };
        if let Some(series) = pool_series() {
            series.queue_depth.add(1);
        }
        self.shared
            .injector
            .lock()
            .expect("pool lock")
            .push_back(job);
        self.shared.work_signal.notify_one();
    }

    /// Runs `f` with a [`Scope`] that can spawn closures borrowing from
    /// the caller's stack. Returns once `f` and every spawned task have
    /// completed. If any task panicked, the first panic is resumed on the
    /// caller's thread after the scope drains (so borrowed data is never
    /// touched after the caller unwinds).
    pub fn scope<'scope, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'scope, '_>) -> R,
    {
        let state = Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done: Condvar::new(),
            done_lock: Mutex::new(()),
        });
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            _marker: std::marker::PhantomData,
        };
        // The drain guard blocks until all tasks finish even when `f`
        // itself panics — spawned closures may borrow locals of `f`.
        struct Drain<'a> {
            pool: &'a ThreadPool,
            state: Arc<ScopeState>,
        }
        impl Drop for Drain<'_> {
            fn drop(&mut self) {
                // Help run injected work while waiting: keeps a
                // single-worker pool from deadlocking on nested scopes
                // and puts the calling thread to productive use.
                while self.state.pending.load(Ordering::Acquire) > 0 {
                    let job = self
                        .pool
                        .shared
                        .injector
                        .lock()
                        .expect("pool lock")
                        .pop_front();
                    match job {
                        Some(job) => {
                            note_job_executed();
                            job()
                        }
                        None => {
                            let guard = self.state.done_lock.lock().expect("pool lock");
                            if self.state.pending.load(Ordering::Acquire) > 0 {
                                let _unused = self
                                    .state
                                    .done
                                    .wait_timeout(guard, std::time::Duration::from_millis(1))
                                    .expect("pool lock");
                            }
                        }
                    }
                }
            }
        }
        let result = {
            let _drain = Drain {
                pool: self,
                state: Arc::clone(&state),
            };
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
        self.shared.shutdown.store(true, Ordering::Release);
        // Wake everyone so they observe the flag.
        let _guard = self.shared.sleep_lock.lock().expect("pool lock");
        self.shared.work_signal.notify_all();
        drop(_guard);
        for handle in self.workers.drain(..) {
            let _unused = handle.join();
        }
        if let Some(series) = pool_series() {
            series.workers.add(-(threads as i64));
        }
    }
}

struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    done: Condvar,
    done_lock: Mutex<()>,
}

/// Spawn handle passed to the closure of [`ThreadPool::scope`].
pub struct Scope<'scope, 'pool> {
    pool: &'pool ThreadPool,
    state: Arc<ScopeState>,
    /// Makes `'scope` invariant, as in `std::thread::scope`.
    _marker: std::marker::PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope, '_> {
    /// Spawns a task that may borrow data outliving the scope.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            if let Err(payload) = result {
                let mut slot = state.panic.lock().expect("pool lock");
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let remaining = state.pending.fetch_sub(1, Ordering::AcqRel);
            if remaining == 1 {
                let _guard = state.done_lock.lock().expect("pool lock");
                state.done.notify_all();
            }
        });
        // SAFETY: the scope's drain guard blocks until `pending` reaches
        // zero before the borrowed stack frame can unwind, so the closure
        // never outlives its borrows; lifetime erasure to 'static is sound.
        let task: Job =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(task) };
        self.pool.inject(task);
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    loop {
        if let Some(job) = shared.find_job(worker) {
            // A panicking job must not kill the worker; scoped tasks
            // already catch panics, but `find_job` may hand us any job.
            let _result = catch_unwind(AssertUnwindSafe(job));
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let guard = shared.sleep_lock.lock().expect("pool lock");
        // Re-check under the lock to avoid missing a notify between the
        // failed pop and the wait.
        let has_work = !shared.injector.lock().expect("pool lock").is_empty();
        if !has_work && !shared.shutdown.load(Ordering::Acquire) {
            let _unused = shared
                .work_signal
                .wait_timeout(guard, std::time::Duration::from_millis(10))
                .expect("pool lock");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
