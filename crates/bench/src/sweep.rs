//! Host-parallel sweep execution: run independent simulations on a bounded
//! worker pool without perturbing a single simulated cycle.
//!
//! Every figure in the paper is a sweep of *independent* simulations
//! (mechanism × core count × kernel). Each sweep point builds its own
//! [`Machine`](cmp_sim::Machine) from scratch — no shared mutable state, no
//! RNG, no host-time dependence — so the host can run them on as many
//! threads as it has without changing any simulated outcome. The
//! determinism contract is structural, not best-effort:
//!
//! * **Job = one closure call.** The runner never splits or reorders work
//!   inside a job; parallelism is purely across jobs.
//! * **Results are returned in item order**, regardless of which worker
//!   finished first. `run_all(items, f)?[i]` is always the result of
//!   `f(i, &items[i])`.
//! * **Panics are captured per job**, not propagated to the pool: one
//!   diverging sweep point is caught in its own slot while the remaining
//!   jobs still complete, and the error names every job that panicked.
//!
//! The pool is built on `std::thread::scope` (std-only, no extra
//! dependencies): workers claim job indices from a shared atomic cursor,
//! write results into per-slot mailboxes, and join before `run_all`
//! returns.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A bounded worker pool for embarrassingly parallel sweeps.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    jobs: usize,
}

impl SweepRunner {
    /// A runner with exactly `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> SweepRunner {
        SweepRunner { jobs: jobs.max(1) }
    }

    /// A runner sized to the host: one worker per available hardware
    /// thread (1 if the host won't say).
    pub fn available() -> SweepRunner {
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
        SweepRunner::new(jobs)
    }

    /// Number of workers this runner will spawn.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Run `f(i, &items[i])` for every item on the worker pool and return
    /// the results in item order, or a combined report of every job that
    /// panicked. Each job's panic is captured in its own slot, so the other
    /// jobs run to completion regardless.
    pub fn run_all<I, T, F>(&self, items: &[I], f: F) -> Result<Vec<T>, String>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        let slots: Vec<Mutex<Option<Result<T, String>>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let workers = self.jobs.min(items.len().max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let result = catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(|payload| {
                        format!(
                            "sweep job #{i} panicked: {}",
                            panic_message(payload.as_ref())
                        )
                    });
                    *slots[i].lock().expect("result slot poisoned") = Some(result);
                });
            }
        });
        let mut out = Vec::with_capacity(items.len());
        let mut failures = Vec::new();
        for slot in slots {
            let result = slot
                .into_inner()
                .expect("result slot poisoned")
                .expect("every job index was claimed and completed");
            match result {
                Ok(v) => out.push(v),
                Err(panic) => failures.push(panic),
            }
        }
        if failures.is_empty() {
            Ok(out)
        } else {
            Err(failures.join("; "))
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        // Jobs sleep inversely to their index so later items finish first;
        // ordering must still follow the input slice.
        let items: Vec<u64> = (0..16).collect();
        let out = SweepRunner::new(4)
            .run_all(&items, |i, &x| {
                std::thread::sleep(std::time::Duration::from_millis(16 - x));
                (i, x * x)
            })
            .expect("no panics");
        for (i, (job, sq)) in out.iter().enumerate() {
            assert_eq!(*job, i);
            assert_eq!(*sq, (i as u64) * (i as u64));
        }
    }

    #[test]
    fn panics_are_captured_per_job() {
        let items: Vec<u32> = (0..8).collect();
        let completed = Mutex::new(Vec::new());
        let err = SweepRunner::new(3)
            .run_all(&items, |_, &x| {
                assert!(x != 5, "job five exploded");
                completed.lock().expect("no job panics holding it").push(x);
            })
            .expect_err("run_all reports the panic");
        assert_eq!(err, "sweep job #5 panicked: job five exploded");
        let mut completed = completed.into_inner().expect("not poisoned");
        completed.sort_unstable();
        assert_eq!(completed, [0, 1, 2, 3, 4, 6, 7], "the other jobs still ran");
    }

    #[test]
    fn empty_and_oversubscribed_inputs_work() {
        let none: Vec<u8> = Vec::new();
        assert!(SweepRunner::new(8)
            .run_all(&none, |_, &x| x)
            .expect("ok")
            .is_empty());
        // More workers than items: extra workers exit immediately.
        let out = SweepRunner::new(64)
            .run_all(&[1u8, 2, 3], |_, &x| x * 2)
            .expect("ok");
        assert_eq!(out, vec![2, 4, 6]);
    }
}
