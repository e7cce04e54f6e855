//! A minimal shared worker pool for embarrassingly parallel sweeps.
//!
//! Three consumers fan independent work units across cores: the cache
//! sweep (`tamsim-cache` replays one read-only trace into many
//! configurations), the suite collector (`tamsim-metrics` records one
//! machine run per program/implementation pair), and the fuzz runner
//! (`tamsim-check` checks one generated program per seed). All three used
//! to hand-roll the same `available_parallelism` + `thread::scope` shard
//! loop; this module is that loop, written once.
//!
//! The pool is deliberately simple: one scoped thread per worker, each
//! claiming the next unclaimed item from a shared atomic index until none
//! are left, and every result lands at its item's index — so the output
//! order always equals the input order, exactly as a serial `map` would
//! produce. Claiming one item at a time keeps workers busy when item costs
//! are skewed, as they are: a suite's machine runs differ by orders of
//! magnitude, and a cache sweep's direct-mapped geometries cost almost
//! nothing next to its set-associative ones. Static contiguous shards do
//! not stay balanced under such skew: whenever the heavy items share a
//! shard, the other workers go idle.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolve the worker count for `n_items` work units: the `TAMSIM_JOBS`
/// override when set (parsed as a positive integer; anything else —
/// empty, zero, garbage — falls back to the default), else one worker per
/// available core, always clamped to the item count.
///
/// `TAMSIM_JOBS` may exceed the core count (oversubscription is honoured,
/// useful when work units block) or pin the pool to 1 for a serial,
/// debugger-friendly run. Either way results are deterministic: the
/// worker count only changes which thread computes an item, never the
/// output order.
pub fn resolve_jobs(env: Option<&str>, cores: usize, n_items: usize) -> usize {
    let requested = env
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(cores);
    requested.min(n_items)
}

/// Map `f` over `items` using up to one worker thread per core (override
/// with the `TAMSIM_JOBS` environment variable — see [`resolve_jobs`]).
///
/// Results are returned in input order. With one item, one worker, or an
/// empty input the map runs inline on the caller's thread — the scoped
/// spawn is skipped entirely, so `par_map` is safe to use on cheap inputs.
///
/// # Panics
/// Propagates a panic from `f` (the worker's panic aborts the join).
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = resolve_jobs(
        std::env::var("TAMSIM_JOBS").ok().as_deref(),
        cores,
        items.len(),
    );
    map_on(workers, items, f)
}

/// [`par_map`] on exactly `workers` threads (inline when `workers <= 1`).
fn map_on<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    // Publishes nothing but the claim itself: each item travels through
    // its slot's mutex and each result through the worker's join.
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = slots.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else { break };
                        let item = slot
                            .lock()
                            .expect("slot lock is never held across a panic")
                            .take()
                            .expect("each index is claimed once");
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("par_map worker panicked") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Condvar;
    use std::time::Duration;

    #[test]
    fn jobs_env_overrides_and_clamps() {
        // Default: one worker per core, clamped to the item count.
        assert_eq!(resolve_jobs(None, 8, 100), 8);
        assert_eq!(resolve_jobs(None, 8, 3), 3);
        // Clamp-to-1: a serial run regardless of cores.
        assert_eq!(resolve_jobs(Some("1"), 16, 100), 1);
        // Oversubscription: more workers than cores is honoured.
        assert_eq!(resolve_jobs(Some("64"), 4, 100), 64);
        // ... but never more workers than items.
        assert_eq!(resolve_jobs(Some("64"), 4, 10), 10);
        // Whitespace tolerated; zero and garbage fall back to the default.
        assert_eq!(resolve_jobs(Some(" 2 "), 8, 100), 2);
        assert_eq!(resolve_jobs(Some("0"), 8, 100), 8);
        assert_eq!(resolve_jobs(Some("lots"), 8, 100), 8);
        assert_eq!(resolve_jobs(Some(""), 8, 100), 8);
        assert_eq!(resolve_jobs(Some("-3"), 8, 100), 8);
    }

    #[test]
    fn preserves_input_order() {
        let out = par_map((0..1000).collect(), |i: i32| i * 2);
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs_run_inline() {
        assert_eq!(par_map(Vec::<u8>::new(), |x| x), Vec::<u8>::new());
        assert_eq!(par_map(vec![7], |x: i32| x + 1), vec![8]);
    }

    #[test]
    fn owned_non_copy_items_move_into_workers() {
        let items: Vec<String> = (0..37).map(|i| format!("item-{i}")).collect();
        let out = par_map(items.clone(), |s| s.len());
        assert_eq!(out, items.iter().map(|s| s.len()).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_work_still_returns_in_order() {
        // Make early items slow so later items finish first.
        let out = map_on(4, (0..64u64).collect(), |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i * i
        });
        assert_eq!(out, (0..64u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn skewed_work_is_claimed_one_item_at_a_time() {
        // Item 0 cannot finish before every other item has. Claimed one at
        // a time, the second worker drains items 1.. while the first waits;
        // in contiguous shards, item 0's shard-mates would queue behind it
        // and the wait would time out.
        let n = 64;
        let done = (Mutex::new(0usize), Condvar::new());
        let out = map_on(2, (0..n).collect(), |i: usize| {
            let (count, finished) = &done;
            let mut count = count.lock().expect("no panics under the lock");
            if i == 0 {
                let (count, wait) = finished
                    .wait_timeout_while(count, Duration::from_secs(10), |c| *c < n - 1)
                    .expect("no panics under the lock");
                return if wait.timed_out() { 0 } else { *count };
            }
            *count += 1;
            finished.notify_all();
            i
        });
        assert_eq!(out, [n - 1].into_iter().chain(1..n).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "par_map worker panicked")]
    fn worker_panic_propagates() {
        map_on(4, (0..64).collect(), |i: i32| {
            assert!(i != 32, "boom");
            i
        });
    }
}
