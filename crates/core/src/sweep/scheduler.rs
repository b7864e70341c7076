//! Work-pool scheduler for sweep execution.
//!
//! Fans an indexed list of items over `jobs` worker threads
//! (`std::thread` only — no external crates): each worker pulls the
//! next `(index, item)` when it is free. Results come back **slotted by
//! input index**, so the output order is independent of worker count
//! and scheduling interleavings. Each item runs under `catch_unwind`: a
//! panicking item produces an `Err(description)` in its slot instead of
//! killing the sweep.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Run `f(index, item)` for every item, using up to `jobs` worker
/// threads. Returns one slot per input item, in input order; a panic
/// inside `f` yields `Err(panic message)` for that slot only.
///
/// Determinism contract: when `f` is a pure function of `(index, item)`,
/// the returned vector is identical for every `jobs` value — the worker
/// pool only changes *when* items run, never *what* they compute or
/// where the result lands.
pub fn run_indexed<I, R, F>(items: Vec<I>, jobs: usize, f: F) -> Vec<Result<R, String>>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    let n = items.len();
    // Single-job fast path: no threads, same catch_unwind semantics.
    if jobs <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| run_one(&f, i, item))
            .collect();
    }

    let next = Mutex::new(items.into_iter().enumerate());
    let mut slots: Vec<Option<Result<R, String>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // the lock is released before the item runs
                        let pulled = next.lock().unwrap_or_else(|e| e.into_inner()).next();
                        let Some((i, item)) = pulled else { break };
                        done.push((i, run_one(&f, i, item)));
                    }
                    done
                })
            })
            .collect();
        for worker in workers {
            // items cannot panic out of `run_one`
            for (i, r) in worker.join().expect("sweep worker died") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("scheduler filled every slot"))
        .collect()
}

fn run_one<I, R, F>(f: &F, i: usize, item: I) -> Result<R, String>
where
    F: Fn(usize, I) -> R,
{
    catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(|payload| {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic with non-string payload".to_string()
        };
        format!("worker panicked on item {i}: {msg}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_input_ordered() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 2, 4, 9] {
            let out = run_indexed(items.clone(), jobs, |i, x| {
                assert_eq!(i as u64, x);
                x * x
            });
            let expect: Vec<Result<u64, String>> = (0..100).map(|x| Ok(x * x)).collect();
            assert_eq!(out, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn panic_is_isolated_to_its_slot() {
        for jobs in [1, 3] {
            let out = run_indexed(vec![1u32, 2, 3, 4], jobs, |_i, x| {
                if x == 3 {
                    panic!("boom on {x}");
                }
                x * 10
            });
            assert_eq!(out[0], Ok(10));
            assert_eq!(out[1], Ok(20));
            assert!(out[2].as_ref().unwrap_err().contains("boom on 3"));
            assert_eq!(out[3], Ok(40));
        }
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let out = run_indexed(vec![5u32], 16, |_i, x| x + 1);
        assert_eq!(out, vec![Ok(6)]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<Result<u32, String>> = run_indexed(Vec::<u32>::new(), 4, |_i, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn identical_results_across_worker_counts() {
        let items: Vec<u64> = (0..64).collect();
        let baseline = run_indexed(items.clone(), 1, |i, x| (i as u64).wrapping_mul(x) ^ 0xabcd);
        for jobs in [2, 4, 8] {
            let out = run_indexed(items.clone(), jobs, |i, x| {
                (i as u64).wrapping_mul(x) ^ 0xabcd
            });
            assert_eq!(out, baseline, "jobs={jobs}");
        }
    }
}
