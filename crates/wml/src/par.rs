//! Zero-dependency parallel fan-out on scoped threads.
//!
//! The build environment cannot pull external crates (no rayon), so this
//! module provides the one primitive the workspace needs: an order-
//! preserving parallel map over a slice, built on [`std::thread::scope`].
//! It is used by the one-vs-one SVM trainer in this crate, and
//! re-exported as `wimi_core::par` for the layers that fan whole
//! measurements out: the experiment harness (trial × material), the
//! campaign runner (cells) and the serving engine (shards).
//!
//! # Thread count
//!
//! The worker count comes from the `WIMI_THREADS` environment variable
//! when set to a parseable positive integer (`0` clamps to 1), otherwise
//! from [`std::thread::available_parallelism`]. An unset *or unparseable*
//! value (empty, garbage) falls through to the same default — it must
//! never silently serialise the pipeline. Callers must not bake the
//! thread count into results: every parallel site in the workspace derives
//! its per-item randomness from per-item seeds, so output is bitwise
//! identical for any `WIMI_THREADS` value.
//!
//! The variable is read from the environment **once per process** (the
//! service layer fans out from long-lived workers, where a fresh
//! `std::env::var` per request would be both overhead and a
//! nondeterminism hazard under a mutable environment). In-process callers
//! that need to vary the worker count — benches, the thread-invariance
//! tests — use [`set_thread_override`] instead of mutating the
//! environment; the CI determinism jobs keep working unchanged because
//! they run `WIMI_THREADS=1` and `=4` as separate processes.
//!
//! # Chunking
//!
//! Workers claim *chunks* of consecutive indices rather than single items,
//! so cheap items don't pay one atomic claim (and its cache-line bounce)
//! each. The chunk size leaves roughly four claims per worker for load
//! balancing. Chunking only changes how indices are handed out — outputs
//! are identical for any chunk size, which the unit tests check over many
//! worker and chunk combinations.
//!
//! # Nesting
//!
//! A map reached from inside a worker of another map runs serially on
//! that worker's thread. The outer map already keeps every worker busy,
//! so nested spawning would only add threads that compete for the same
//! cores: the SVM trainer's map over class pairs, for one, runs inside
//! each campaign cell's worker. The outputs are the same either way;
//! only the thread count changes.
//!
//! # Panics
//!
//! A panic inside a worker is forwarded to the caller (the scope joins all
//! workers first), so `map` behaves like the equivalent serial loop.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Set on the threads [`map_chunked`] spawns, so a map nested inside
    /// one of its jobs runs serially instead of spawning again.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Parses one fan-out environment value. `None` — unset, empty, or
/// unparseable — means "use the documented default"; a parsed `0` clamps
/// to 1. Surrounding whitespace is ignored.
///
/// (An earlier revision collapsed unparseable values to `1` via
/// `unwrap_or(1)`, silently serialising the whole pipeline on a typo like
/// `WIMI_THREADS=abc`; the regression tests below pin the fall-through.)
fn parse_fanout_env(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .map(|n| n.max(1))
}

/// `WIMI_THREADS` as read once at first use.
static THREADS_ENV: OnceLock<Option<usize>> = OnceLock::new();

/// In-process override (0 = none). It exists so benches and the
/// thread-invariance tests can vary the worker count without mutating
/// the (now cached) environment.
static THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

#[expect(
    clippy::disallowed_methods,
    reason = "WIMI_THREADS selects the fan-out shape only; outputs are thread-count invariant"
)]
fn threads_env() -> Option<usize> {
    *THREADS_ENV.get_or_init(|| parse_fanout_env(std::env::var("WIMI_THREADS").ok().as_deref()))
}

/// Forces the worker count for this process, taking precedence over the
/// cached `WIMI_THREADS` value; `None` restores environment/default
/// behaviour. Outputs are thread-count invariant by contract, so this is
/// a shape control (for benches and invariance tests), never a results
/// control.
pub fn set_thread_override(n: Option<usize>) {
    THREADS_OVERRIDE.store(n.map_or(0, |n| n.max(1)), Ordering::Relaxed);
}

/// The configured maximum worker count: the in-process override if set,
/// else `WIMI_THREADS` if parseable (≥ 1), else
/// [`std::thread::available_parallelism`].
fn max_threads() -> usize {
    match THREADS_OVERRIDE.load(Ordering::Relaxed) {
        0 => threads_env()
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        n => n,
    }
}

/// The default fan-out chunk size for `n` items over `workers` workers:
/// big enough to amortise the atomic claim, small enough to leave roughly
/// four claims per worker for dynamic load balancing.
fn default_chunk(n: usize, workers: usize) -> usize {
    (n / (workers.max(1) * 4)).max(1)
}

/// Maps `f` over `items` in parallel, preserving input order in the
/// output. `f` receives `(index, &item)`.
///
/// Work is distributed dynamically: each worker claims the next unclaimed
/// chunk of consecutive indices from a shared atomic counter, so uneven
/// per-item cost balances itself. With one worker (or one item) this
/// degrades to a plain serial loop with no thread spawn.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = max_threads().min(items.len());
    map_chunked(items, workers, default_chunk(items.len(), workers), f)
}

/// The deterministic core of [`map`], with explicit worker count and chunk
/// size ([`map`] passes the configured workers and [`default_chunk`]).
/// Outputs are identical for every `(workers, chunk)` combination. Called
/// from inside another map's worker it runs serially on that thread (see
/// the module's "Nesting" section).
fn map_chunked<T, R, F>(items: &[T], workers: usize, chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.min(n);
    if workers <= 1 || IN_WORKER.with(Cell::get) {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = chunk.max(1);

    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    let mut out = Vec::new();
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + chunk).min(n);
                        for (i, item) in items[start..end].iter().enumerate() {
                            let i = start + i;
                            out.push((i, f(i, item)));
                        }
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(part) => indexed.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..257).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(map(&empty, |_, &x| x).is_empty());
        assert_eq!(map(&[41], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn chunked_map_matches_serial_for_any_worker_chunk_combination() {
        let items: Vec<usize> = (0..103).collect();
        let serial: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for workers in [1usize, 2, 3, 4, 7] {
            for chunk in [1usize, 2, 5, 16, 103, 1000] {
                let out = map_chunked(&items, workers, chunk, |i, &x| {
                    assert_eq!(i, x);
                    x * 3 + 1
                });
                assert_eq!(out, serial, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn chunked_map_visits_every_item_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<usize> = (0..64).collect();
        let counts: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let _ = map_chunked(&items, 4, 3, |i, _| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn default_chunk_is_positive_and_balances() {
        assert_eq!(default_chunk(0, 4), 1);
        assert_eq!(default_chunk(3, 4), 1);
        assert_eq!(default_chunk(160, 4), 10);
        assert_eq!(default_chunk(160, 0), 40);
        // Each worker gets roughly four claims.
        let n = 1000;
        let workers = 8;
        let chunk = default_chunk(n, workers);
        let claims = n.div_ceil(chunk);
        assert!((claims / workers) >= 3, "claims = {claims}");
    }

    #[test]
    fn chunked_map_empty_input_with_many_workers() {
        let empty: Vec<u32> = Vec::new();
        // workers.min(0) == 0 must fall through to the serial path, not
        // spawn anything or index past the end.
        assert!(map_chunked(&empty, 8, 4, |_, &x| x).is_empty());
    }

    #[test]
    fn chunked_map_chunk_larger_than_len() {
        // One claim grabs everything; the other workers find the counter
        // exhausted and exit without work.
        let items = [10u32, 20, 30, 40, 50];
        let out = map_chunked(&items, 3, 100, |i, &x| (i, x));
        assert_eq!(out, vec![(0, 10), (1, 20), (2, 30), (3, 40), (4, 50)]);
    }

    #[test]
    fn chunked_map_non_divisible_final_chunk_is_short() {
        // 10 items in chunks of 3: claims are [0..3), [3..6), [6..9), [9..10).
        // Every index must appear exactly once despite the short tail.
        let items: Vec<usize> = (0..10).collect();
        let counts: Vec<AtomicUsize> = (0..10).map(|_| AtomicUsize::new(0)).collect();
        let out = map_chunked(&items, 2, 3, |i, &x| {
            counts[i].fetch_add(1, Ordering::Relaxed);
            x + 1
        });
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn thread_override_reaches_map() {
        set_thread_override(Some(3));
        assert_eq!(max_threads(), 3);
        let items: Vec<usize> = (0..37).collect();
        let out = map(&items, |_, &x| x + 7);
        set_thread_override(None);
        assert_eq!(out, (7..44).collect::<Vec<_>>());
    }

    #[test]
    fn override_zero_clamps_to_one() {
        set_thread_override(Some(0));
        assert_eq!(max_threads(), 1);
        set_thread_override(None);
    }

    #[test]
    fn invalid_fanout_env_falls_through_to_default() {
        // Regression: unparseable values used to collapse to 1 via
        // `unwrap_or(1)`, silently serialising the pipeline. They must
        // fall through to the documented default instead.
        assert_eq!(parse_fanout_env(Some("abc")), None);
        assert_eq!(parse_fanout_env(Some("")), None);
        assert_eq!(parse_fanout_env(Some("   ")), None);
        assert_eq!(parse_fanout_env(Some("4x")), None);
        assert_eq!(parse_fanout_env(Some("-2")), None);
        assert_eq!(parse_fanout_env(None), None);
    }

    #[test]
    fn valid_fanout_env_parses_and_zero_clamps() {
        assert_eq!(parse_fanout_env(Some("4")), Some(4));
        assert_eq!(parse_fanout_env(Some(" 8 ")), Some(8));
        assert_eq!(parse_fanout_env(Some("\t2\n")), Some(2));
        // `0` still clamps to 1 rather than disabling the pool.
        assert_eq!(parse_fanout_env(Some("0")), Some(1));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test checks which thread ran each item; no result depends on it"
    )]
    fn nested_map_runs_serially_on_its_worker() {
        // Every inner map reached from an outer worker must stay on that
        // worker's thread and still return the serial output.
        let outer: Vec<usize> = (0..8).collect();
        let inner: Vec<usize> = (0..16).collect();
        let results = map_chunked(&outer, 4, 1, |_, &o| {
            let me = std::thread::current().id();
            let out = map_chunked(&inner, 4, 1, |_, &x| (std::thread::current().id(), x * o));
            let spawned = out.iter().filter(|(id, _)| *id != me).count();
            (spawned, out.into_iter().map(|(_, v)| v).collect::<Vec<_>>())
        });
        for (o, (spawned, out)) in results.into_iter().enumerate() {
            assert_eq!(spawned, 0, "outer item {o}: the inner map spawned threads");
            assert_eq!(out, inner.iter().map(|x| x * o).collect::<Vec<_>>());
        }
        // The flag lives on the spawned workers only: the caller's own
        // thread keeps fanning out.
        let here = std::thread::current().id();
        let ids = map_chunked(&inner, 4, 1, |_, _| std::thread::current().id());
        assert!(
            ids.iter().any(|id| *id != here),
            "a top-level map must spawn"
        );
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            let items: Vec<usize> = (0..64).collect();
            map(&items, |_, &x| {
                if x == 13 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn max_threads_is_at_least_one() {
        assert!(max_threads() >= 1);
    }
}
