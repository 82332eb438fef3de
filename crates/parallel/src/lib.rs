//! Deterministic fork-join parallelism for experiment sweeps.
//!
//! The bench harness fans independent simulation cells out across worker
//! threads. Results must be *byte-identical* to a sequential run, so the
//! only primitive offered is an ordered map: workers pull task indices
//! from a shared atomic counter, stash `(index, result)` pairs locally,
//! and the caller reassembles the output in input order. No work
//! stealing, no locks on the hot path, no dependency on a registry
//! crate — plain `std::thread::scope`.
//!
//! Thread count comes from `PDPA_THREADS`, else the number of available
//! cores. Set it to `1` to force sequential execution, e.g. when
//! bisecting a determinism bug.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves the worker-thread count for parallel sweeps.
///
/// `PDPA_THREADS`, else [`std::thread::available_parallelism`]. A value
/// that fails to parse or is zero falls through to the core count. The
/// result is always ≥ 1.
pub fn num_threads() -> usize {
    std::env::var("PDPA_THREADS")
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `threads` workers, returning results
/// in input order.
///
/// Output is identical to `items.iter().map(f).collect()` regardless of
/// thread count or scheduling: each worker records the index of every
/// item it processes and the caller sorts the combined output by index.
/// A panic in `f` is propagated to the caller after all workers have
/// stopped (workers quit pulling new tasks once any worker has
/// panicked, so the panic surfaces promptly even on long sweeps).
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let panicked = AtomicUsize::new(0);
    let mut chunks: Vec<Vec<(usize, R)>> = Vec::new();
    let mut payload: Option<Box<dyn std::any::Any + Send>> = None;
    // The caller's observability scope label (e.g. the experiment name) is
    // thread-local; hand it to each worker so engine runs fanned out here
    // stay attributed to the right scope in the metrics registry.
    let obs_scope = pdpa_obs::scope::current();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let panicked = &panicked;
                let f = &f;
                let obs_scope = &obs_scope;
                scope.spawn(move || {
                    pdpa_obs::scope::set(obs_scope.clone());
                    let mut out: Vec<(usize, R)> = Vec::new();
                    let mut caught: Option<Box<dyn std::any::Any + Send>> = None;
                    while panicked.load(Ordering::Relaxed) == 0 {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                            Ok(r) => out.push((i, r)),
                            Err(p) => {
                                panicked.store(1, Ordering::Relaxed);
                                caught = Some(p);
                                break;
                            }
                        }
                    }
                    (out, caught)
                })
            })
            .collect();
        for handle in handles {
            // Worker closures catch their own panics, so join only fails
            // on aborts outside our control; propagate those as-is.
            let (out, caught) = match handle.join() {
                Ok(pair) => pair,
                Err(p) => resume_unwind(p),
            };
            chunks.push(out);
            if payload.is_none() {
                payload = caught;
            }
        }
    });

    if let Some(p) = payload {
        resume_unwind(p);
    }

    let mut indexed: Vec<(usize, R)> = chunks.into_iter().flatten().collect();
    indexed.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(indexed.len(), items.len());
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let par = par_map(&items, threads, |x| x * x);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 8, |x| *x).is_empty());
        assert_eq!(par_map(&[7u32], 8, |x| x + 1), vec![8]);
    }

    #[test]
    fn propagates_panics() {
        let items: Vec<u32> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, 4, |x| {
                if *x == 13 {
                    panic!("boom on 13");
                }
                *x
            })
        }));
        let payload = result.expect_err("panic should propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("boom on 13"), "payload: {msg:?}");
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn workers_inherit_the_callers_scope() {
        let _g = pdpa_obs::scope::enter("sweep");
        let items: Vec<u32> = (0..32).collect();
        let scopes = par_map(&items, 4, |_| pdpa_obs::scope::current());
        assert!(scopes.iter().all(|s| s.as_deref() == Some("sweep")));
    }
}
