//! A second thread for a burst of short jobs, each run beside work of the
//! caller's own.
//!
//! [`Lane::with`] starts one scoped thread for the burst and
//! [`Lane::run`] hands it a job: a state word and the job's address, no
//! allocation and, while jobs come some tens of microseconds apart, no
//! wake-up either — the lane spins a while for its next job and the
//! caller for the job's end before either parks. A job the lane has not
//! taken by the time the caller's own work is done runs on the caller,
//! so the caller never waits for the lane to be scheduled. On a single
//! CPU, or when the thread cannot be spawned, no thread starts and every
//! job runs on the caller.
//!
//! The lane is a thread of its own rather than a task of the process's
//! pool: a pool worker that ran the lane moved the workers' malloc arenas
//! enough to raise the benchmark's `peak_rss_mb` on `ingest_interleaved`
//! by about 1.2 MiB, and a scope per job (an allocation on the caller and
//! a free on the worker each) by about 0.2 MiB; neither moved it with one
//! arena (`MALLOC_ARENA_MAX=1`). The lane's thread ends with the burst.
//!
//! The CRF trainer's SGD steps (`create-ml::crf`) are the one user: two
//! phases a step, a job of 10–60 µs a phase.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// A second thread for a caller's burst of short jobs (see the module
/// docs).
pub struct Lane {
    state: AtomicU8,
    /// The posted job. Written by the caller while the state is `IDLE`,
    /// read by whichever thread moves the state out of `POSTED`.
    job: UnsafeCell<Option<JobRef>>,
    caller: Thread,
    /// The lane's thread, once it has started.
    lane: OnceLock<Thread>,
    /// A job's panic on the lane, resumed on the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// The lane's state word.
const IDLE: u8 = 0;
const POSTED: u8 = 1;
const RUNNING: u8 = 2;
const DONE: u8 = 3;
const CLOSED: u8 = 4;

/// How long the lane spins for its next job, and the caller for a job's
/// end, before parking: a parked thread resumed about 7 µs after its
/// wake-up on a 2-vCPU host, a fifth of a CRF step's phase.
const SPIN: Duration = Duration::from_micros(50);

/// A posted job, its borrow's lifetime erased: [`Lane::run`] returns, or
/// unwinds, only once the lane has finished with it or never took it.
struct JobRef(*mut (dyn FnMut() + Send + 'static));

// SAFETY: a `JobRef` is made from a `&mut (dyn FnMut() + Send)`, which may
// be sent, and only the thread that moved the state out of `POSTED` uses
// it.
unsafe impl Send for JobRef {}

// SAFETY: `job` is the only field that is not `Sync` itself (`state` is
// an atomic, `caller` a `Thread`, `lane` a `OnceLock<Thread>`, `panic` a
// `Mutex`). The caller writes `job` only while the state is `IDLE` and
// publishes it with a release store of `POSTED`; a reader first moves the
// state out of `POSTED` with an acquiring compare-exchange, which one
// thread alone can win, and the lane is done with it once it stores
// `DONE`, which the caller reads with acquire ordering before it writes
// the slot again.
unsafe impl Sync for Lane {}

impl Lane {
    /// Runs `f` with a lane: a scoped thread takes the jobs `f` posts, and
    /// ends once `f` returns or unwinds. On a single CPU no thread starts.
    pub fn with<R>(f: impl FnOnce(&Lane) -> R) -> R {
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Lane::with_thread(cpus > 1, f)
    }

    /// [`Lane::with`], with or without the lane's thread.
    fn with_thread<R>(thread: bool, f: impl FnOnce(&Lane) -> R) -> R {
        let lane = Lane {
            state: AtomicU8::new(IDLE),
            job: UnsafeCell::new(None),
            caller: std::thread::current(),
            lane: OnceLock::new(),
            panic: Mutex::new(None),
        };
        if !thread {
            return f(&lane);
        }
        struct Close<'a>(&'a Lane);
        impl Drop for Close<'_> {
            fn drop(&mut self) {
                self.0.state.store(CLOSED, Ordering::Release);
                fence(Ordering::SeqCst);
                if let Some(lane) = self.0.lane.get() {
                    lane.unpark();
                }
            }
        }
        std::thread::scope(|s| {
            let _close = Close(&lane);
            // A lane that cannot start leaves every job to the caller.
            let _ = std::thread::Builder::new().spawn_scoped(s, || lane.serve());
            f(&lane)
        })
    }

    /// Runs `job` on the lane and `here` on the calling thread, and
    /// returns `here`'s result once both have run: `job` runs here after
    /// `here` if the lane has not taken it by then. A panic of `job` on
    /// the lane is resumed here. Only the thread that called
    /// [`Lane::with`] may call it, and not from within a job or `here`.
    pub fn run<R>(&self, job: &mut (dyn FnMut() + Send), here: impl FnOnce() -> R) -> R {
        assert_eq!(
            std::thread::current().id(),
            self.caller.id(),
            "a lane's jobs are posted by the thread that opened it"
        );
        assert_eq!(
            self.state.load(Ordering::Relaxed),
            IDLE,
            "one job at a time"
        );
        let job: *mut (dyn FnMut() + Send + '_) = job;
        // SAFETY: only the pointer's lifetime bound changes. It is used
        // until the state leaves `RUNNING` or is taken back from
        // `POSTED`, and `finish` waits for one of the two before this
        // returns or unwinds.
        let job: *mut (dyn FnMut() + Send + 'static) = unsafe { std::mem::transmute(job) };
        // SAFETY: the state is `IDLE`: no other thread reads the slot.
        unsafe { *self.job.get() = Some(JobRef(job)) };
        self.state.store(POSTED, Ordering::Release);
        // Pairs with the lane's fence: either it sees `POSTED` or this
        // sees its thread, so it never sleeps through a job.
        fence(Ordering::SeqCst);
        if let Some(lane) = self.lane.get() {
            lane.unpark();
        }
        struct Unwinding<'a>(&'a Lane);
        impl Drop for Unwinding<'_> {
            fn drop(&mut self) {
                self.0.finish(false);
            }
        }
        let unwinding = Unwinding(self);
        let result = here();
        std::mem::forget(unwinding);
        self.finish(true);
        result
    }

    /// Ends the posted job: takes it back and, if `run_here`, runs it,
    /// when the lane has not taken it; else waits for the lane to finish
    /// it and, if `run_here`, resumes its panic.
    fn finish(&self, run_here: bool) {
        let taken_back = self
            .state
            .compare_exchange(POSTED, IDLE, Ordering::Acquire, Ordering::Relaxed)
            .is_ok();
        if taken_back {
            // SAFETY: the state is `IDLE` again: the lane never took the
            // job and no other thread reads the slot.
            let JobRef(job) = unsafe { (*self.job.get()).take() }.expect("a posted job");
            if run_here {
                // SAFETY: the job's borrow outlives this call (see `run`),
                // and nothing else uses it.
                unsafe { (*job)() };
            }
            return;
        }
        wait_for(|| self.state.load(Ordering::Acquire) == DONE);
        // SAFETY: the lane stored `DONE` after its last use of the slot.
        unsafe { *self.job.get() = None };
        self.state.store(IDLE, Ordering::Relaxed);
        if run_here {
            if let Some(payload) = self.panic.lock().expect("lane lock").take() {
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// The lane's thread: takes posted jobs until the caller closes it.
    fn serve(&self) {
        let _ = self.lane.set(std::thread::current());
        fence(Ordering::SeqCst);
        loop {
            wait_for(|| matches!(self.state.load(Ordering::Acquire), POSTED | CLOSED));
            if self.state.load(Ordering::Acquire) == CLOSED {
                return;
            }
            if self
                .state
                .compare_exchange(POSTED, RUNNING, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            // SAFETY: this thread moved the state out of `POSTED`, so the
            // slot holds a live job that nothing else uses until `DONE`.
            let job = unsafe { (*self.job.get()).as_ref() }
                .expect("a posted job")
                .0;
            // SAFETY: as above; the caller waits for `DONE`.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| unsafe { (*job)() })) {
                *self.panic.lock().expect("lane lock") = Some(payload);
            }
            self.state.store(DONE, Ordering::Release);
            self.caller.unpark();
        }
    }
}

/// Spins until `ready` holds, for up to [`SPIN`], then parks until it
/// does; the thread that makes it hold unparks this one.
fn wait_for(ready: impl Fn() -> bool) {
    let spin = Instant::now();
    while !ready() {
        if spin.elapsed() < SPIN {
            std::hint::spin_loop();
        } else {
            std::thread::park();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    /// Runs `f` on a thread of its own and fails if it has not returned
    /// within 30 s: a lost wake-up becomes a failure, not a hang.
    fn within(f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = mpsc::channel();
        let watched = std::thread::spawn(move || {
            f();
            let _ = tx.send(());
        });
        if let Err(mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(Duration::from_secs(30)) {
            panic!("still running after 30 s: the lane is stuck");
        }
        if let Err(payload) = watched.join() {
            std::panic::resume_unwind(payload);
        }
    }

    #[test]
    fn a_lane_runs_each_job_once_beside_the_callers_work() {
        within(|| {
            for thread in [true, false] {
                let caller = std::thread::current().id();
                let (jobs, on_lane) = (AtomicUsize::new(0), AtomicUsize::new(0));
                Lane::with_thread(thread, |lane| {
                    for i in 0..2000 {
                        let mut job = || {
                            jobs.fetch_add(1, Ordering::Relaxed);
                            if std::thread::current().id() != caller {
                                on_lane.fetch_add(1, Ordering::Relaxed);
                            }
                        };
                        assert_eq!(lane.run(&mut job, || i), i);
                        assert_eq!(jobs.load(Ordering::Relaxed), i + 1, "job {i} ran once");
                    }
                });
                // Which thread ran a job is up to timing, except that
                // without a thread the caller ran them all.
                if !thread {
                    assert_eq!(on_lane.load(Ordering::Relaxed), 0);
                }
            }
        });
    }

    #[test]
    fn a_jobs_panic_reaches_the_caller_and_the_lane_ends() {
        within(|| {
            let result = catch_unwind(|| {
                Lane::with_thread(true, |lane| {
                    lane.run(&mut || (), || ());
                    lane.run(&mut || panic!("job failure"), || ());
                })
            });
            assert!(result.is_err());
            // A caller that panics while its job runs waits for the job.
            let done = AtomicUsize::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                Lane::with_thread(true, |lane| {
                    lane.run(
                        &mut || {
                            done.fetch_add(1, Ordering::Relaxed);
                        },
                        || panic!("caller failure"),
                    )
                })
            }));
            assert!(result.is_err());
            assert!(done.load(Ordering::Relaxed) <= 1);
        });
    }

    #[test]
    #[should_panic(expected = "posted by the thread that opened it")]
    fn only_the_opening_thread_posts() {
        Lane::with_thread(false, |lane| {
            std::thread::scope(|s| {
                if let Err(payload) = s.spawn(|| lane.run(&mut || (), || ())).join() {
                    std::panic::resume_unwind(payload);
                }
            })
        });
    }
}
