//! Offline stand-in for `rayon` 1.x: `par_chunks_mut(..).enumerate()
//! .for_each(..)`, the one parallel shape `ea-tensor` uses, on a small
//! global pool. The calling thread always works too, and `for_each`
//! returns once every chunk has run, as with the published crate. Pool
//! size is `RAYON_NUM_THREADS`, else the number of cores; one job runs at a
//! time and a second caller arriving meanwhile runs its chunks itself
//! (the published crate would interleave the two by work stealing).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

pub mod prelude {
    pub use crate::ParallelSliceMut;
}

/// Number of threads that share a parallel call, the caller included.
pub fn current_num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// A parallel call in flight: `run(i)` for every `i < len`, claimed
/// through `next`.
#[derive(Clone, Copy)]
struct Job {
    run: &'static (dyn Fn(usize) + Sync),
    next: &'static AtomicUsize,
    len: usize,
}

impl Job {
    fn work(&self) {
        loop {
            // Relaxed: the counter only hands out indices; the data the
            // chunks touch is published by the pool mutex.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return;
            }
            (self.run)(i);
        }
    }
}

#[derive(Default)]
struct State {
    job: Option<Job>,
    /// Counts jobs posted, so a helper can tell a new job from the one it
    /// has just exhausted.
    generation: u64,
    /// Helpers currently inside `job.work()`.
    active: usize,
}

struct Pool {
    state: Mutex<State>,
    /// Signalled when a job is posted.
    posted: Condvar,
    /// Signalled when `active` drops to zero.
    drained: Condvar,
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn helper(&'static self) {
        let mut st = self.lock();
        // Generation of the last job this helper worked on: an exhausted
        // job stays posted until its caller retires it.
        let mut done = 0;
        loop {
            match st.job {
                Some(job) if st.generation != done => {
                    done = st.generation;
                    st.active += 1;
                    drop(st);
                    job.work();
                    st = self.lock();
                    st.active -= 1;
                    if st.active == 0 {
                        self.drained.notify_all();
                    }
                }
                _ => st = self.posted.wait(st).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }
}

fn pool() -> Option<&'static Pool> {
    static POOL: OnceLock<Option<&'static Pool>> = OnceLock::new();
    *POOL.get_or_init(|| {
        let helpers = current_num_threads() - 1;
        if helpers == 0 {
            return None;
        }
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            state: Mutex::new(State::default()),
            posted: Condvar::new(),
            drained: Condvar::new(),
        }));
        for i in 0..helpers {
            // Helpers live as long as the process, like the published
            // crate's global pool; they hold no resource that needs a join.
            std::thread::Builder::new()
                .name(format!("rayon-standin-{i}"))
                .spawn(move || pool.helper())
                .expect("spawn pool helper");
        }
        Some(pool)
    })
}

/// Runs `run(i)` for every `i < len`, sharing the indices with the pool's
/// helpers when it is free.
fn for_each_index(len: usize, run: &(dyn Fn(usize) + Sync)) {
    let next = AtomicUsize::new(0);
    // SAFETY: the two references are only reachable through the `Job`
    // posted below. Before this function returns it removes the job from
    // the pool under the mutex and waits, under the same mutex, until
    // `active == 0`; a helper copies a job and raises `active` in one
    // critical section, so once the job is gone and `active` is zero no
    // helper holds the references or can obtain them.
    let job = unsafe {
        Job {
            run: std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(
                run,
            ),
            next: std::mem::transmute::<&AtomicUsize, &'static AtomicUsize>(&next),
            len,
        }
    };
    let posted_to = pool().filter(|_| len > 1).filter(|p| {
        let mut st = p.lock();
        let free = st.job.is_none() && st.active == 0;
        if free {
            st.job = Some(job);
            st.generation += 1;
            p.posted.notify_all();
        }
        free
    });
    // If a chunk panics on this thread the job must still be retired
    // before `next` and `run` go out of scope.
    struct Retire(Option<&'static Pool>);
    impl Drop for Retire {
        fn drop(&mut self) {
            if let Some(p) = self.0 {
                let mut st = p.lock();
                st.job = None;
                while st.active > 0 {
                    st = p.drained.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
    let _retire = Retire(posted_to);
    job.work();
}

/// `par_chunks_mut` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        ChunksMut { slice: self, chunk_size }
    }
}

/// Parallel iterator over mutable, non-overlapping chunks of a slice.
pub struct ChunksMut<'a, T: Send> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ChunksMut<'a, T> {
    pub fn enumerate(self) -> EnumerateChunksMut<'a, T> {
        EnumerateChunksMut(self)
    }
}

/// [`ChunksMut`] paired with each chunk's index.
pub struct EnumerateChunksMut<'a, T: Send>(ChunksMut<'a, T>);

/// Base pointer of the slice being chunked, shareable across the pool.
struct Base<T>(*mut T);
// SAFETY: the pointer is only used to form `&mut [T]` over disjoint index
// ranges (see `for_each`), and `T: Send` lets those be used on any thread.
unsafe impl<T: Send> Sync for Base<T> {}

impl<T> Base<T> {
    /// A method, so that closures capture the whole `Base` (which is
    /// `Sync`) and not its pointer field.
    fn ptr(&self) -> *mut T {
        self.0
    }
}

impl<T: Send> EnumerateChunksMut<'_, T> {
    pub fn for_each<F>(self, op: F)
    where
        F: Fn((usize, &mut [T])) + Sync + Send,
    {
        let ChunksMut { slice, chunk_size } = self.0;
        let total = slice.len();
        let base = Base(slice.as_mut_ptr());
        let chunks = total.div_ceil(chunk_size);
        for_each_index(chunks, &|i| {
            let start = i * chunk_size;
            let len = chunk_size.min(total - start);
            // SAFETY: `start + len <= total`, so the range lies inside the
            // exclusively borrowed `slice`, which outlives `for_each_index`;
            // each index `i` is claimed exactly once, so no two ranges
            // overlap and no other reference to them exists.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.ptr().add(start), len) };
            op((i, chunk));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn every_chunk_runs_once_with_its_index() {
        for len in [0usize, 1, 7, 64, 1000] {
            let mut v = vec![0u32; len];
            v.par_chunks_mut(7).enumerate().for_each(|(i, c)| {
                for x in c.iter_mut() {
                    *x += 1 + i as u32;
                }
            });
            for (j, x) in v.iter().enumerate() {
                assert_eq!(*x, 1 + (j / 7) as u32);
            }
        }
    }

    #[test]
    fn concurrent_callers_all_finish() {
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..200 {
                        let mut v = vec![1u64; 4096];
                        v.par_chunks_mut(64).enumerate().for_each(|(_, c)| {
                            for x in c.iter_mut() {
                                *x *= 3;
                            }
                        });
                        assert!(v.iter().all(|&x| x == 3));
                    }
                });
            }
        });
    }
}
