//! # dvs-exec — dependency-free deterministic parallel execution
//!
//! A tiny parallel execution layer for the experiment harness, built
//! entirely on `std` (scoped threads, atomics): the offline build
//! environment cannot fetch crates, and the result tables must be
//! bit-reproducible, which rules out work-stealing pools with
//! nondeterministic reduction orders. Parallelism lives at the grain of
//! independent experiments and seeds and nowhere else: the solvers and
//! servers run on the calling thread and do not depend on this crate.
//!
//! The core primitive is [`par_map`]: it evaluates a function over a slice
//! on a scoped worker pool and returns the results **in input order**, so
//! the output is exactly what the sequential `iter().map().collect()`
//! would produce. Work is handed out in contiguous chunks through a shared
//! atomic cursor, which keeps scheduling overhead at one `fetch_add` per
//! chunk while still balancing uneven workloads.
//!
//! Worker count comes from [`num_threads`]: the `DVS_THREADS` environment
//! variable when set (≥ 1), otherwise
//! [`std::thread::available_parallelism`]. `DVS_THREADS=1` forces fully
//! sequential execution.
//!
//! Nested calls never oversubscribe: a `par_map` issued from inside a
//! worker (a per-seed sweep inside the parallel experiment batch) runs
//! sequentially on that worker.
//!
//! # Examples
//!
//! ```
//! let squares = dvs_exec::par_map(&[1, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Environment variable overriding the worker count (must parse to ≥ 1).
pub const THREADS_ENV: &str = "DVS_THREADS";

thread_local! {
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Number of workers [`par_map`] will use.
///
/// Reads `DVS_THREADS` on every call (cheap, and lets tests vary it at
/// runtime); invalid or unset values fall back to
/// [`std::thread::available_parallelism`], and `1` is returned inside a
/// worker thread so nested parallelism degrades to sequential execution.
#[must_use]
pub fn num_threads() -> usize {
    if IN_WORKER.with(std::cell::Cell::get) {
        return 1;
    }
    match std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

/// Chunk size giving each worker several chunks (load balancing) without
/// excessive cursor traffic.
fn chunk_size(len: usize, workers: usize) -> usize {
    // ~4 chunks per worker; at least 1 item per chunk.
    len.div_ceil(workers * 4).max(1)
}

/// Maps `f` over `items` on a scoped worker pool, returning results in
/// input order.
///
/// Output is identical to `items.iter().map(f).collect()` — parallelism
/// changes wall-clock time, never the result. Runs sequentially when the
/// worker count is 1, the input is tiny, or the caller is itself a
/// `par_map` worker.
///
/// # Panics
///
/// Propagates any panic raised by `f`.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = num_threads().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = chunk_size(items.len(), workers);
    let cursor = AtomicUsize::new(0);
    // Each worker returns (start, results) pairs for the chunks it claimed;
    // merging by start index restores input order exactly.
    let mut parts: Vec<(usize, Vec<U>)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    let mut out: Vec<(usize, Vec<U>)> = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= items.len() {
                            break;
                        }
                        let end = (start + chunk).min(items.len());
                        out.push((start, items[start..end].iter().map(&f).collect()));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(part) => part,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    parts.sort_unstable_by_key(|(start, _)| *start);
    let mut merged = Vec::with_capacity(items.len());
    for (_, mut chunk_results) in parts {
        merged.append(&mut chunk_results);
    }
    merged
}

/// Maps `f` over the index range `0..len`, returning results in order.
///
/// Convenience wrapper over [`par_map`] for loops that are naturally
/// indexed rather than slice-driven (e.g. the per-seed sweeps).
pub fn par_map_indices<U, F>(len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let indices: Vec<usize> = (0..len).collect();
    par_map(&indices, |&i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_threads<R>(n: &str, f: impl FnOnce() -> R) -> R {
        // Serialise tests that touch the global env var. Recover from
        // poisoning: the panic-propagation test unwinds while holding it.
        static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = ENV_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        std::env::set_var(THREADS_ENV, n);
        let out = f();
        std::env::remove_var(THREADS_ENV);
        out
    }

    #[test]
    fn par_map_matches_sequential_in_order() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in ["1", "2", "4", "8"] {
            let got = with_threads(threads, || par_map(&items, |&x| x * 3 + 1));
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_tiny_and_empty_inputs() {
        with_threads("8", || {
            assert_eq!(par_map::<u32, u32, _>(&[], |&x| x), Vec::<u32>::new());
            assert_eq!(par_map(&[7], |&x| x + 1), vec![8]);
        });
    }

    #[test]
    fn par_map_indices_orders_results() {
        let got = with_threads("4", || par_map_indices(100, |i| i * i));
        let expect: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn nested_par_map_degrades_to_sequential() {
        let got = with_threads("4", || {
            par_map(&[0u32, 1, 2, 3], |&outer| {
                // Inside a worker the nested call must not spawn again.
                assert_eq!(num_threads(), 1);
                par_map(&[10u32, 20], |&inner| outer + inner)
            })
        });
        assert_eq!(
            got,
            vec![vec![10, 20], vec![11, 21], vec![12, 22], vec![13, 23]]
        );
    }

    #[test]
    fn env_override_controls_worker_count() {
        assert_eq!(with_threads("3", num_threads), 3);
        assert_eq!(with_threads("1", num_threads), 1);
        // Invalid values fall back to available parallelism (≥ 1).
        assert!(with_threads("zero", num_threads) >= 1);
    }

    #[test]
    fn chunking_covers_every_length() {
        for len in [1usize, 2, 5, 16, 17, 100, 1001] {
            for workers in [1usize, 2, 4, 8] {
                let c = chunk_size(len, workers);
                assert!(c >= 1);
                assert!(
                    c * workers * 4 >= len,
                    "len {len} workers {workers} chunk {c}"
                );
            }
        }
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            with_threads("4", || {
                par_map(&(0..64).collect::<Vec<i32>>(), |&x| {
                    assert!(x != 40, "boom");
                    x
                })
            })
        });
        assert!(result.is_err());
    }
}
