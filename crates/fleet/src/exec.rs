//! A small self-scheduling thread crew built on `std::thread` and
//! channels — no external dependencies.
//!
//! Work items live in a shared queue indexed by an atomic cursor;
//! every worker (including the calling thread) repeatedly claims the
//! next index and processes it, so fast workers steal the slack of
//! slow ones without any per-thread partitioning. Results flow back
//! over an `mpsc` channel tagged with their index, which makes the
//! output order — and therefore everything downstream — independent of
//! how many threads ran or how the OS scheduled them.
//!
//! The crew is *scoped*: threads are spawned per call via
//! [`std::thread::scope`], which is what lets tasks borrow non-static
//! data (the fleet's simulations borrow their environments). Spawn
//! cost is a few tens of microseconds per worker per call — noise
//! against epochs that simulate thousands of device ticks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// A fixed-width thread crew. Cheap to construct; threads are spawned
/// per call and joined before the call returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// A crew of exactly `threads` workers (at least 1).
    pub fn new(threads: usize) -> Executor {
        Executor {
            threads: threads.max(1),
        }
    }

    /// The machine's available parallelism (1 if unknown).
    pub fn available() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Number of workers this crew runs.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel, returning results in
    /// input order regardless of thread count or scheduling. `f`
    /// receives the item's index alongside the item.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `f` (workers are joined by
    /// the scope).
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let queue: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let worker = |out: mpsc::Sender<(usize, R)>| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let item = queue[i]
                .lock()
                .expect("queue slot poisoned")
                .take()
                .expect("each slot is claimed once");
            let result = f(i, item);
            if out.send((i, result)).is_err() {
                break; // Receiver gone: a sibling panicked; stop early.
            }
        };
        std::thread::scope(|s| {
            for _ in 1..self.threads.min(n) {
                let out = tx.clone();
                s.spawn(move || worker(out));
            }
            worker(tx);
        });
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            results[i] = Some(r);
        }
        results
            .into_iter()
            .map(|r| r.expect("every index produced a result"))
            .collect()
    }

    /// Applies `f` to every element in place, in parallel. Each element
    /// is visited exactly once; `f` receives the element's index.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `f`.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let n = items.len();
        if n == 0 {
            return;
        }
        let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
        let cursor = AtomicUsize::new(0);
        let worker = || loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let mut slot = slots[i].lock().expect("slot poisoned");
            f(i, &mut slot);
        };
        std::thread::scope(|s| {
            for _ in 1..self.threads.min(n) {
                s.spawn(worker);
            }
            worker();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        for threads in [1, 2, 8] {
            let exec = Executor::new(threads);
            let out = exec.map((0..100u64).collect(), |i, v| {
                assert_eq!(i as u64, v);
                v * v
            });
            assert_eq!(out, (0..100u64).map(|v| v * v).collect::<Vec<_>>());
        }
    }

    #[test]
    fn for_each_mut_touches_every_element_once() {
        for threads in [1, 3] {
            let exec = Executor::new(threads);
            let mut xs = vec![0u32; 57];
            exec.for_each_mut(&mut xs, |i, x| *x += u32::try_from(i).unwrap() + 1);
            for (i, x) in xs.iter().enumerate() {
                assert_eq!(*x as usize, i + 1);
            }
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Executor::new(0).threads(), 1);
    }

    #[test]
    fn empty_input_is_fine() {
        let exec = Executor::new(4);
        let out: Vec<u8> = exec.map(Vec::<u8>::new(), |_, v| v);
        assert!(out.is_empty());
        exec.for_each_mut(&mut Vec::<u8>::new(), |_, _| {});
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let work: Vec<u64> = (0..257).collect();
        let one = Executor::new(1).map(work.clone(), |_, v| v.wrapping_mul(2_654_435_761));
        let eight = Executor::new(8).map(work, |_, v| v.wrapping_mul(2_654_435_761));
        assert_eq!(one, eight);
    }
}
