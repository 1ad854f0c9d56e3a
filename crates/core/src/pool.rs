//! A persistent worker pool with a shared FIFO job queue.
//!
//! Every request runs on its calling thread; the one thing that hands
//! work to other threads is the daemon's `frame1` transport, which
//! pipelines tagged requests on one connection and answers them out of
//! order. It [`submit`](Pool::submit)s each admitted request here instead
//! of spawning a thread per request: [`Pool::global`] keeps one
//! process-wide set of workers alive (sized to the platform's available
//! parallelism) and hands them jobs in submission order.
//!
//! A submitted job owns everything it touches (`'static`) and signals its
//! own completion — the daemon hands each job the sender its reply goes
//! out on. A job that panics ends the worker that ran it, so callers
//! catch panics inside the job (the daemon's `run_isolated` does).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One queued job.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its worker threads.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// A persistent worker pool (see the [module docs](self)).
///
/// Most callers want [`Pool::global`]; dedicated pools
/// ([`Pool::with_workers`]) exist for sizing tests and shut their
/// workers down on drop.
pub struct Pool {
    shared: Arc<Shared>,
    workers: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl Pool {
    /// The process-wide pool, spawned on first use with one worker per
    /// core (`std::thread::available_parallelism`), so thread startup is
    /// paid once per process instead of once per request.
    pub fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let workers = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            Pool::with_workers(workers)
        })
    }

    /// A dedicated pool with exactly `workers` worker threads (0 is
    /// allowed: every [`submit`](Self::submit) then runs its job on the
    /// submitting thread). Workers are joined when the pool is dropped.
    pub fn with_workers(workers: usize) -> Pool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("leqa-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a pool worker")
            })
            .collect();
        Pool {
            shared,
            workers,
            handles,
        }
    }

    /// The number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Jobs currently waiting in the queue. A quiesced pool reports 0.
    #[must_use]
    pub fn queued_jobs(&self) -> usize {
        self.shared.queue.lock().expect("no poisoning").len()
    }

    /// Drains the queue on the calling thread: pops every queued job and
    /// runs it. Service daemons call this on graceful shutdown so no
    /// submitted job is left behind when the process reports a clean
    /// exit.
    pub fn drain(&self) {
        loop {
            let job = self.shared.queue.lock().expect("no poisoning").pop_front();
            match job {
                Some(job) => job(),
                None => return,
            }
        }
    }

    /// Submits one fire-and-forget job. The call returns immediately; the
    /// job runs on whichever worker pops it (or inline on the submitting
    /// thread when the pool has no workers). Completion is the job's own
    /// business — pipelined services hand a channel sender into the
    /// closure and treat the send as the completion signal. Jobs still
    /// queued at [`drain`](Self::drain) time are run by the draining
    /// thread.
    pub fn submit<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        if self.workers == 0 {
            job();
            return;
        }
        self.shared
            .queue
            .lock()
            .expect("no poisoning")
            .push_back(Box::new(job));
        self.shared.available.notify_one();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Worker body: pop and run jobs until shutdown (running any queued jobs
/// first, so a dropped pool finishes what was submitted to it).
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("no poisoning");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared.available.wait(queue).expect("no poisoning");
            }
        };
        job();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Submits `n` jobs that each send `f(i)`, then collects the values
    /// sorted (workers may finish out of order).
    fn run_all(pool: &Pool, n: u64, f: impl Fn(u64) -> u64 + Copy + Send + 'static) -> Vec<u64> {
        let (tx, rx) = mpsc::channel();
        for i in 0..n {
            let tx = tx.clone();
            pool.submit(move || tx.send(f(i)).expect("receiver alive"));
        }
        drop(tx);
        let mut got: Vec<u64> = rx.iter().collect();
        got.sort_unstable();
        got
    }

    #[test]
    fn global_pool_is_reusable_across_calls() {
        for round in 0..5u64 {
            let got = run_all(Pool::global(), 40, move |x| x + round);
            assert_eq!(got, (0..40).map(|x| x + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = Pool::with_workers(3);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let pool = &pool;
                scope.spawn(move || {
                    let got = run_all(pool, 100, move |x| x * 4 + t);
                    assert_eq!(got, (0..100).map(|x| x * 4 + t).collect::<Vec<_>>());
                });
            }
        });
    }

    #[test]
    fn drain_leaves_the_queue_empty_and_the_pool_serviceable() {
        let pool = Pool::with_workers(2);
        for _ in 0..8 {
            let (tx, rx) = mpsc::channel();
            for i in 0..64u64 {
                let tx = tx.clone();
                pool.submit(move || {
                    let _ = tx.send(i + 1);
                });
            }
            drop(tx);
            pool.drain();
            assert_eq!(pool.queued_jobs(), 0);
            assert_eq!(rx.iter().count(), 64);
        }
        // The pool still serves after a drain.
        assert_eq!(run_all(&pool, 2, |x| x * 2), vec![0, 2]);
        pool.drain();
        assert_eq!(pool.queued_jobs(), 0);
    }

    #[test]
    fn submit_runs_jobs_and_signals_through_channels() {
        let pool = Pool::with_workers(2);
        let got = run_all(&pool, 16, |i| i * i);
        assert_eq!(got, (0..16u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn submit_on_a_zero_worker_pool_runs_inline() {
        let pool = Pool::with_workers(0);
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        pool.submit(move || flag.store(true, Ordering::Release));
        assert!(ran.load(Ordering::Acquire));
    }

    #[test]
    fn drain_runs_submitted_jobs_left_in_the_queue() {
        // Enqueue against a 1-worker pool whose lone worker is blocked,
        // then drain from this thread.
        let busy = Pool::with_workers(1);
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        busy.submit(move || {
            started_tx.send(()).expect("test thread alive");
            let _ = gate_rx.recv();
        });
        // Wait until the lone worker is parked inside the gate job, so
        // the next submit can only be popped by `drain` below.
        started_rx.recv().expect("gate job started");
        let (tx, rx) = mpsc::channel();
        busy.submit(move || tx.send(7u64).expect("receiver alive"));
        // The lone worker is parked on the gate; drain from here runs
        // the second job on this thread.
        busy.drain();
        assert_eq!(rx.recv().expect("job ran"), 7);
        gate_tx.send(()).expect("worker alive");
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        let pool = Pool::with_workers(2);
        let ran = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        for _ in 0..64 {
            let ran = Arc::clone(&ran);
            pool.submit(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool); // must not hang
                    // Workers run every queued job before they exit.
        assert_eq!(ran.load(Ordering::Relaxed), 64);
    }
}
