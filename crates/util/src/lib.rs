//! Shared low-level utilities for the CREATe workspace.
//!
//! Everything in the reproduction must be deterministic so that experiments
//! are replayable from a seed. This crate provides the seedable PRNG used by
//! the corpus generator, the ML trainers, and the benchmarks, plus small
//! descriptive-statistics helpers used by the experiment harness.

pub mod arc_cell;
pub mod chunked;
pub mod fxhash;
#[cfg(unix)]
pub mod poller;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod varint;

/// Bytes of an `Arc<str>` / `Arc<[T]>` allocation holding `payload`
/// bytes: two counters in front, padded to their alignment. For the
/// stores' `heap_bytes` accounting.
pub fn arc_slice_bytes(payload: usize) -> usize {
    (2 * std::mem::size_of::<usize>() + payload).next_multiple_of(std::mem::align_of::<usize>())
}

/// Hands the allocator's free pages back to the operating system. glibc
/// keeps freed memory in the arena of the thread that allocated it, so a
/// large short-lived working set stays resident once per thread that ever
/// built one; call this when such a working set has just been dropped.
/// Costs a walk over every arena (milliseconds on a few hundred MiB of
/// heap). A no-op where the C library has no `malloc_trim`.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: takes no pointer, and glibc allows the call from any
        // thread at any time (it locks each arena in turn).
        unsafe { malloc_trim(0) };
    }
}

pub use arc_cell::ArcCell;
pub use chunked::Chunked;
pub use pool::ThreadPool;
pub use rng::Rng;
pub use stats::Summary;
