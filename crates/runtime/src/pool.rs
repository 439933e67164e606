//! A minimal work-stealing execution pool built on scoped `std::thread`s.
//!
//! `rayon` is not available in this build environment, so this module plays
//! its role for a [`crate::Engine`] with more than one worker: a batch of
//! independent tasks is drained from a shared atomic cursor by `workers`
//! scoped threads (dynamic self-scheduling — each idle worker "steals" the
//! next undone task, so long tasks never serialise behind short ones).
//!
//! Scoped threads let tasks borrow the simulation model and cache without
//! `'static` bounds; the pool is created per batch. Spawning and joining two
//! workers for a trivial batch measures about 60 µs on a 2-vCPU host
//! (perfbench's `runtime.pool.spawn_join_us` probe): small next to one block
//! of circuit simulations (50 samples at roughly 15 µs each), but larger
//! than a whole batch of the closed-form oracle models.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Executes `run` over every task, using up to `workers` threads.
///
/// With `workers <= 1` (or at most one task) the tasks run inline on the
/// caller's thread, which keeps the serial path completely thread-free.
///
/// # Panics
///
/// Propagates the first worker panic to the caller (via scoped-thread join).
pub fn run_tasks<T, F>(tasks: &[T], workers: usize, run: F)
where
    T: Sync,
    F: Fn(&T) + Sync,
{
    if workers <= 1 || tasks.len() <= 1 {
        for task in tasks {
            run(task);
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    let threads = workers.min(tasks.len());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= tasks.len() {
                    break;
                }
                run(&tasks[i]);
            });
        }
    });
}

/// The default worker count: the machine's available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_task_runs_exactly_once() {
        let tasks: Vec<usize> = (0..257).collect();
        let hits: Vec<AtomicU64> = (0..tasks.len()).map(|_| AtomicU64::new(0)).collect();
        run_tasks(&tasks, 8, |&i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_worker_runs_inline() {
        let tasks = vec![1, 2, 3];
        let sum = AtomicU64::new(0);
        run_tasks(&tasks, 1, |&v| {
            sum.fetch_add(v, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn empty_task_list_is_a_no_op() {
        let tasks: Vec<u8> = Vec::new();
        run_tasks(&tasks, 4, |_| panic!("no tasks to run"));
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }
}
