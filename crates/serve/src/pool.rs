//! The daemon's worker pool: every admitted job runs on it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// A boxed unit of work for the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Hand-rolled fixed-size worker pool: `std::thread` workers pulling boxed
/// jobs from one shared channel. No external dependencies, no async
/// runtime — the jobs here are seconds-long solver calls, so scheduling
/// overhead is irrelevant next to isolation and determinism.
pub(crate) struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `threads` workers (at least one).
    pub(crate) fn new(threads: usize) -> WorkerPool {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("pug-serve-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only for the receive; the job runs
                        // unlocked so workers hand off the queue promptly.
                        // Poison recovery matters here: treating a poisoned
                        // queue mutex as fatal would silently retire every
                        // worker, and the next submit would kill the
                        // process instead of running the job.
                        let job = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                        match job {
                            // Belt and braces: rungs already catch checker
                            // panics, but a worker must survive anything so
                            // the pool never loses capacity.
                            Ok(job) => {
                                let _ = catch_unwind(AssertUnwindSafe(job));
                            }
                            Err(_) => break, // pool dropped: drain and exit
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { tx: Some(tx), workers }
    }

    /// Enqueue a job; workers pick jobs up in FIFO order.
    pub(crate) fn submit(&self, job: Job) {
        self.tx
            .as_ref()
            .expect("pool not shut down")
            .send(job)
            .expect("pool workers alive");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.tx.take(); // close the channel: workers drain and exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_all_jobs_and_survives_panics() {
        let pool = WorkerPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        for i in 0..16 {
            let counter = Arc::clone(&counter);
            pool.submit(Box::new(move || {
                if i % 5 == 0 {
                    // Suppress the default hook's backtrace spam for the
                    // deliberate panics below.
                    let hook = std::panic::take_hook();
                    std::panic::set_hook(Box::new(|_| {}));
                    let result = catch_unwind(|| panic!("job {i} dies"));
                    std::panic::set_hook(hook);
                    assert!(result.is_err());
                }
                counter.fetch_add(1, Ordering::SeqCst);
            }));
        }
        drop(pool); // joins workers after the queue drains
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }
}
