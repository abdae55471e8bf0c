//! Pooled data parallelism.
//!
//! A tiny rayon-style toolkit whose closures may borrow from the caller and
//! which needs no dependency:
//!
//! * [`parallel_for_rows`] — split an output buffer into contiguous row
//!   chunks claimed off a work queue (matmul-style loops).
//! * [`parallel_map`] — run independent jobs through a dynamic work queue,
//!   collecting results in input order. Result slots are written lock-free:
//!   the atomic queue hands each index to exactly one worker, so every slot
//!   has a single writer and the batch retirement publishes the writes.
//! * [`parallel_chunks`] — split a mutable buffer into caller-sized
//!   disjoint chunks and fill them in parallel with fallible workers (the
//!   chunked SZ decoder's primitive).
//!
//! Since PR 3 every helper executes on the persistent worker pool in
//! [`crate::pool`] instead of spawning fresh `std::thread::scope` threads
//! per call: the caller participates in its own batch and up to
//! `workers - 1` condvar-parked pool threads join in, so per-call overhead
//! is an enqueue + wakeup rather than thread creation. Outputs stay
//! byte-identical for any worker count (and any pool occupancy) because
//! work items are indexed and every slot has exactly one writer; see
//! `docs/PARALLEL.md` for the full execution model.
//!
//! Worker count resolves, in order: a thread-local [`with_workers`]
//! override (used by determinism tests), the `DSZ_THREADS` environment
//! variable, then `available_parallelism()`. On a single-core host every
//! helper degrades to a plain loop touching no queue at all.
//!
//! # Budget nesting
//!
//! A helper running `w` ways out of a budget of `n` pins each execution
//! (including the caller's own participation) to an inner budget of
//! `(n / w).max(1)`, so nested parallel sections subdivide instead of
//! multiplying the live thread count. The inline fallback (budget ≤ 1 or
//! trivially small input) keeps the *full* budget visible to nested calls.

use crate::pool;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    static WORKER_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Returns the worker count used by the helpers in this module: the
/// thread-local [`with_workers`] override if one is set, else the process
/// budget — `DSZ_THREADS` if set (clamped to [`host_parallelism`]), else
/// `available_parallelism()`.
pub fn worker_count() -> usize {
    if let Some(n) = WORKER_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    // The env var cannot change mid-process in any supported way, so read
    // and parse it once; this sits on the matmul hot path.
    static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();
    match ENV_THREADS.get_or_init(|| {
        std::env::var("DSZ_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
    }) {
        Some(n) => clamp_to_host(*n),
        None => host_parallelism(),
    }
}

/// Hardware parallelism of this host, cached (the syscall sits on the
/// matmul hot path via [`worker_count`]).
pub fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Clamps a requested worker count to what the host can actually run
/// concurrently: `[1, available_parallelism()]`.
///
/// Worker counts above the core count never help — they only add queue
/// wakeups and context switches (a measured 33 → 44 ms encode regression
/// for `DSZ_THREADS=4` on a 1-core host). Both the process budget read by
/// [`worker_count`] and the pool-engagement decision in each helper below
/// route through this clamp; the explicit [`with_workers`] *budget* is
/// intentionally not clamped, so budget-nesting arithmetic (and the tests
/// pinning it) stays host-independent.
pub fn clamp_to_host(requested: usize) -> usize {
    requested.clamp(1, host_parallelism())
}

/// Runs `f` with the calling thread's worker count pinned to `n`.
///
/// The pin follows the work through nested parallel sections: when a
/// helper here runs `w` ways out of a budget of `n`, each execution's own
/// nested parallel calls see a budget of `n / w` (at least 1), so the
/// total live thread count stays ~`n` instead of multiplying per level.
/// Used by tests asserting thread-count-independent output and by benches
/// comparing 1-thread vs N-thread timings.
pub fn with_workers<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = WORKER_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKER_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Minimum rows per work item; below this the work runs inline.
const MIN_ROWS_PER_TASK: usize = 8;

/// Shared pointer to per-item state (result slots, chunk slices, …).
/// Safety: the atomic work queue hands each index to exactly one execution,
/// so all writes target disjoint items, and the pool batch retirement
/// happens-before the submitting caller's reads.
struct RawItems<T>(*mut T);

unsafe impl<T: Send> Sync for RawItems<T> {}

/// Splits `out` (logically `rows × row_width`) into disjoint row chunks and
/// calls `f(first_row, chunk)` for each, in parallel on the pool.
///
/// `f` must be pure with respect to its chunk (it owns it exclusively); it
/// may read any shared captured state. Nested parallel calls inside `f` see
/// the divided budget `(budget / workers).max(1)`, the same rule as
/// [`parallel_map`].
pub fn parallel_for_rows<F>(rows: usize, out: &mut [f32], row_width: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert_eq!(out.len(), rows * row_width, "output buffer shape mismatch");
    if out.is_empty() {
        return;
    }
    let budget = worker_count();
    if budget <= 1 || rows <= MIN_ROWS_PER_TASK {
        f(0, out);
        return;
    }
    let chunk_rows = rows.div_ceil(budget).max(MIN_ROWS_PER_TASK);
    let mut chunks: Vec<(usize, &mut [f32])> = Vec::with_capacity(rows.div_ceil(chunk_rows));
    let mut rest = out;
    let mut row0 = 0usize;
    while !rest.is_empty() {
        let take = (chunk_rows * row_width).min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        chunks.push((row0, head));
        row0 += take / row_width;
        rest = tail;
    }
    let n = chunks.len();
    let workers = budget.min(n);
    let inner_budget = (budget / workers).max(1);
    let items = RawItems(chunks.as_mut_ptr());
    let next = AtomicUsize::new(0);
    {
        let items = &items;
        let next = &next;
        let fr = &f;
        // Engage only as many threads as the host has cores; the budget
        // arithmetic above is deliberately unclamped (see `clamp_to_host`).
        pool::run_batch(clamp_to_host(workers) - 1, &move || {
            with_workers(inner_budget, || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // SAFETY: `i` is claimed exactly once, so this execution
                // holds the only live reference to chunk `i`.
                let (r0, chunk) = unsafe { &mut *items.0.add(i) };
                fr(*r0, chunk);
            })
        });
    }
}

/// Runs independent jobs (e.g. per-layer or per-chunk compression tasks)
/// across pool workers, collecting results in input order. A dynamic work
/// queue keeps uneven job costs balanced — this is the thread-level
/// stand-in for the paper's multi-GPU parallel encoding. Slot writes are
/// lock-free (one writer per slot, published by the batch retirement).
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let budget = worker_count();
    let workers = budget.min(n.max(1));
    if workers <= 1 {
        // Inline: the full budget stays visible to nested parallel calls.
        return items.iter().map(&f).collect();
    }
    // Divide the budget across nesting levels: each execution's own nested
    // parallel sections (e.g. chunked SZ inside a per-layer job) get the
    // remaining share instead of multiplying the thread count.
    let inner_budget = (budget / workers).max(1);
    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    let slots = RawItems(results.as_mut_ptr());
    let next = AtomicUsize::new(0);
    {
        let slots = &slots;
        let next = &next;
        let fr = &f;
        // Engage only as many threads as the host has cores; the budget
        // arithmetic above is deliberately unclamped (see `clamp_to_host`).
        pool::run_batch(clamp_to_host(workers) - 1, &move || {
            with_workers(inner_budget, || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = fr(&items[i]);
                // SAFETY: `i` came from the queue exactly once, so this
                // slot has no other writer; batch retirement publishes it.
                unsafe { *slots.0.add(i) = Some(r) };
            })
        });
    }
    results
        .into_iter()
        .map(|r| r.expect("job completed"))
        .collect()
}

/// Splits `data` into consecutive chunks of the given `sizes` (which must
/// sum to `data.len()`) and runs `f(chunk_index, chunk)` for each in
/// parallel on the pool. The first worker error (if any) is returned;
/// remaining queued chunks are skipped once an error is observed.
///
/// This is the disjoint-slot primitive behind chunk-parallel SZ decoding:
/// every chunk decodes straight into its slice of the final buffer, so the
/// output needs no post-hoc concatenation or copying.
pub fn parallel_chunks<T, E, F>(data: &mut [T], sizes: &[usize], f: F) -> Result<(), E>
where
    T: Send,
    E: Send + Sync,
    F: Fn(usize, &mut [T]) -> Result<(), E> + Sync,
{
    assert_eq!(
        sizes.iter().sum::<usize>(),
        data.len(),
        "chunk sizes must cover the buffer"
    );
    let budget = worker_count();
    let workers = budget.min(sizes.len().max(1));
    if workers <= 1 {
        let mut rest = data;
        for (i, &sz) in sizes.iter().enumerate() {
            let (head, tail) = rest.split_at_mut(sz);
            f(i, head)?;
            rest = tail;
        }
        return Ok(());
    }
    let mut chunks: Vec<&mut [T]> = Vec::with_capacity(sizes.len());
    let mut rest = data;
    for &sz in sizes {
        let (head, tail) = rest.split_at_mut(sz);
        chunks.push(head);
        rest = tail;
    }
    let n = chunks.len();
    let inner_budget = (budget / workers).max(1);
    let list = RawItems(chunks.as_mut_ptr());
    let next = AtomicUsize::new(0);
    // Per-chunk error slots so the *lowest-index* error is reported, the
    // same one the serial path would return — otherwise which of several
    // errors surfaces would depend on scheduling. This is deterministic
    // despite the `failed` early exit: claims are handed out monotonically
    // and a claimed chunk always runs to completion, so when any chunk
    // fails, every lower-index chunk has already been claimed and will
    // record its own error if it has one.
    let mut errors: Vec<Option<E>> = Vec::with_capacity(n);
    errors.resize_with(n, || None);
    let err_slots = RawItems(errors.as_mut_ptr());
    let failed = std::sync::atomic::AtomicBool::new(false);
    {
        let list = &list;
        let next = &next;
        let fr = &f;
        let err_slots = &err_slots;
        let failed = &failed;
        // Engage only as many threads as the host has cores; the budget
        // arithmetic above is deliberately unclamped (see `clamp_to_host`).
        pool::run_batch(clamp_to_host(workers) - 1, &move || {
            with_workers(inner_budget, || loop {
                if failed.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // SAFETY: `i` is claimed exactly once, so this execution
                // holds the only live reference to chunk `i` and its error
                // slot.
                let chunk: &mut [T] = unsafe { &mut *list.0.add(i) };
                if let Err(e) = fr(i, chunk) {
                    unsafe { *err_slots.0.add(i) = Some(e) };
                    failed.store(true, Ordering::Relaxed);
                    break;
                }
            })
        });
    }
    match errors.into_iter().flatten().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn parallel_for_rows_covers_everything() {
        let rows = 103;
        let width = 7;
        let mut out = vec![0f32; rows * width];
        parallel_for_rows(rows, &mut out, width, |r0, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                let r = r0 + i / width;
                let c = i % width;
                *v = (r * width + c) as f32;
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }

    #[test]
    fn parallel_for_rows_empty() {
        let mut out: Vec<f32> = vec![];
        parallel_for_rows(0, &mut out, 5, |_, _| panic!("no work expected"));
    }

    #[test]
    fn parallel_for_rows_divides_nested_budget() {
        // 8-way budget over 32 rows → chunk_rows = 8 → 4 chunks claimed by
        // up to 4 executions, each of which must see a nested budget of 2
        // (the old implementation hard-pinned this to 1).
        let rows = 32;
        let width = 4;
        let mut out = vec![0f32; rows * width];
        with_workers(8, || {
            parallel_for_rows(rows, &mut out, width, |_, chunk| {
                let nested = worker_count() as f32;
                for v in chunk.iter_mut() {
                    *v = nested;
                }
            });
        });
        for v in &out {
            assert_eq!(*v, 2.0, "inner budget must be (8 / 4).max(1) = 2");
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        for workers in [1, 2, 4, 8] {
            let out = with_workers(workers, || parallel_map(&items, |&x| x * x));
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i * i, "workers={workers}");
            }
        }
    }

    #[test]
    fn parallel_map_empty() {
        let items: Vec<u32> = vec![];
        assert!(parallel_map(&items, |&x| x).is_empty());
    }

    #[test]
    fn parallel_map_heavy_allocation_results() {
        // Exercises the lock-free slot writes with non-Copy results.
        let items: Vec<usize> = (0..64).collect();
        let out = with_workers(4, || parallel_map(&items, |&x| vec![x as u8; x]));
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.len(), i);
        }
    }

    #[test]
    fn parallel_map_panic_propagates_and_pool_recovers() {
        // A panicking job must unwind out of `parallel_map` (not hang, not
        // get swallowed) and must not poison the pool for later calls.
        let items: Vec<usize> = (0..16).collect();
        let r = catch_unwind(AssertUnwindSafe(|| {
            with_workers(4, || {
                parallel_map(&items, |&x| {
                    if x == 7 {
                        panic!("job 7 exploded");
                    }
                    x
                })
            })
        }));
        assert!(r.is_err(), "panic must propagate to the caller");
        // The pool still serves subsequent batches correctly.
        let out = with_workers(4, || parallel_map(&items, |&x| x + 1));
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i + 1);
        }
    }

    #[test]
    fn parallel_chunks_fills_disjoint_slices() {
        let sizes = [3usize, 0, 7, 1, 5];
        let total: usize = sizes.iter().sum();
        for workers in [1, 3, 8] {
            let mut buf = vec![0u32; total];
            with_workers(workers, || {
                parallel_chunks(&mut buf, &sizes, |ci, chunk| -> Result<(), ()> {
                    for v in chunk.iter_mut() {
                        *v = ci as u32 + 1;
                    }
                    Ok(())
                })
            })
            .unwrap();
            let mut expect = Vec::new();
            for (ci, &sz) in sizes.iter().enumerate() {
                expect.extend(std::iter::repeat_n(ci as u32 + 1, sz));
            }
            assert_eq!(buf, expect, "workers={workers}");
        }
    }

    #[test]
    fn parallel_chunks_propagates_first_error() {
        let sizes = [4usize; 8];
        let mut buf = vec![0u8; 32];
        let res = with_workers(4, || {
            parallel_chunks(&mut buf, &sizes, |ci, _chunk| {
                if ci == 5 {
                    Err(format!("chunk {ci} failed"))
                } else {
                    Ok(())
                }
            })
        });
        assert_eq!(res.unwrap_err(), "chunk 5 failed");
    }

    #[test]
    fn nested_parallelism_divides_the_budget() {
        // 4 workers over 4 jobs: each job's nested budget collapses to 1.
        with_workers(4, || {
            let items = [0usize; 4];
            for c in parallel_map(&items, |_| worker_count()) {
                assert_eq!(c, 1);
            }
        });
        // 8-thread budget over 2 jobs: each job keeps 4 for nesting.
        with_workers(8, || {
            let items = [0usize; 2];
            for c in parallel_map(&items, |_| worker_count()) {
                assert_eq!(c, 4);
            }
        });
        // Single job runs inline: the full budget stays visible.
        with_workers(4, || {
            assert_eq!(parallel_map(&[0usize], |_| worker_count()), vec![4]);
        });
    }

    #[test]
    fn pool_workers_restore_their_budget_between_jobs() {
        // A pool worker that ran a pinned job must not leak the pin into
        // later jobs: `with_workers` inside the batch body restores the
        // thread-local on exit. Two back-to-back calls with different
        // budgets must each observe their own division.
        with_workers(8, || {
            let items = [0usize; 2];
            for c in parallel_map(&items, |_| worker_count()) {
                assert_eq!(c, 4);
            }
        });
        with_workers(6, || {
            let items = [0usize; 3];
            for c in parallel_map(&items, |_| worker_count()) {
                assert_eq!(c, 2);
            }
        });
    }

    #[test]
    fn clamp_to_host_bounds_requests() {
        let host = host_parallelism();
        assert!(host >= 1);
        assert_eq!(clamp_to_host(0), 1);
        assert_eq!(clamp_to_host(1), 1);
        assert_eq!(clamp_to_host(host), host);
        assert_eq!(clamp_to_host(host + 1), host);
        assert_eq!(clamp_to_host(usize::MAX), host);
        // On a 1-core host a 4-thread request collapses to 1 — the exact
        // shape of the `DSZ_THREADS=4` encode regression this fixes.
        assert_eq!(clamp_to_host(4), 4.min(host));
    }

    #[test]
    fn process_budget_never_exceeds_host() {
        // Whatever `DSZ_THREADS` the tier-1 sweep set for this process, the
        // budget outside any `with_workers` pin is host-clamped.
        assert!(worker_count() <= host_parallelism());
    }

    #[test]
    fn oversubscribed_budget_still_runs_correctly() {
        // A budget far beyond the host's cores must neither deadlock nor
        // change results: the claim queue runs with at most
        // `host_parallelism()` engaged threads, same outputs as 1 worker.
        let items: Vec<usize> = (0..200).collect();
        let want: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for budget in [host_parallelism() * 4, 64] {
            let got = with_workers(budget, || parallel_map(&items, |&x| x * 3 + 1));
            assert_eq!(got, want, "budget={budget}");
        }
    }

    #[test]
    fn with_workers_overrides_and_restores() {
        let outer = worker_count();
        with_workers(3, || {
            assert_eq!(worker_count(), 3);
            with_workers(1, || assert_eq!(worker_count(), 1));
            assert_eq!(worker_count(), 3);
        });
        assert_eq!(worker_count(), outer);
    }
}
