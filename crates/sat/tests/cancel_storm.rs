//! Cancel-storm tests for the hierarchical [`CancelToken`].
//!
//! The degradation ladder and the `pug-serve` daemon both lean on the same
//! contract: tripping one child token (a rung's deadline) never disturbs
//! a sibling or the parent, while a parent trip (a daemon job's
//! disconnect, drain or deadline) reaches every descendant — including
//! descendants created *while* the cancel is in flight. These tests hammer
//! that contract from many threads at once; the unit tests in `budget.rs`
//! cover the single-threaded semantics.

use pug_sat::CancelToken;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// Many children cancelled concurrently while their siblings keep running:
/// every cancelled child must trip, every survivor must stay untripped,
/// and the parent must never see a cancellation.
#[test]
fn concurrent_child_cancels_leave_running_siblings_alone() {
    const CHILDREN: usize = 64;
    const ROUNDS: usize = 50;
    for _ in 0..ROUNDS {
        let parent = CancelToken::new();
        let children: Vec<CancelToken> = (0..CHILDREN).map(|_| parent.child()).collect();
        // Even-indexed children get cancelled, odd ones keep "running".
        let barrier = Arc::new(Barrier::new(CHILDREN / 2));
        let handles: Vec<_> = children
            .iter()
            .step_by(2)
            .map(|c| {
                let c = c.clone();
                let b = Arc::clone(&barrier);
                thread::spawn(move || {
                    b.wait(); // all cancels fire as simultaneously as possible
                    c.cancel();
                })
            })
            .collect();
        // Meanwhile the odd siblings poll like a solver inner loop would.
        let stop = Arc::new(AtomicBool::new(false));
        let pollers: Vec<_> = children
            .iter()
            .skip(1)
            .step_by(2)
            .map(|c| {
                let c = c.clone();
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut observed_trip = false;
                    while !stop.load(Ordering::Acquire) {
                        observed_trip |= c.is_cancelled();
                        std::hint::spin_loop();
                    }
                    observed_trip
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        for (i, p) in pollers.into_iter().enumerate() {
            assert!(
                !p.join().unwrap(),
                "running sibling {} observed a cancellation it never received",
                i * 2 + 1
            );
        }
        for (i, c) in children.iter().enumerate() {
            assert_eq!(c.is_cancelled(), i % 2 == 0, "child {i} in the wrong state");
        }
        assert!(!parent.is_cancelled(), "child cancels must never reach the parent");
    }
}

/// A parent cancel racing `child()` creation: no matter how the race
/// lands, a child created around the cancel instant must observe the trip
/// (the creating thread then keeps using the token — a lost cancellation
/// would hang a rung forever).
#[test]
fn parent_cancel_races_child_creation_without_losing_the_trip() {
    const SPAWNERS: usize = 8;
    const ROUNDS: usize = 200;
    for _ in 0..ROUNDS {
        let parent = CancelToken::new();
        let barrier = Arc::new(Barrier::new(SPAWNERS + 1));
        let spawners: Vec<_> = (0..SPAWNERS)
            .map(|_| {
                let parent = parent.clone();
                let b = Arc::clone(&barrier);
                thread::spawn(move || {
                    b.wait();
                    // Create a chain of descendants while the cancel fires.
                    let child = parent.child();
                    let grandchild = child.child();
                    (child, grandchild)
                })
            })
            .collect();
        let canceller = {
            let parent = parent.clone();
            let b = Arc::clone(&barrier);
            thread::spawn(move || {
                b.wait();
                parent.cancel();
            })
        };
        canceller.join().unwrap();
        for s in spawners {
            let (child, grandchild) = s.join().unwrap();
            // The cancel has definitely happened by now; every descendant,
            // whenever it was created relative to the cancel, must see it.
            assert!(child.is_cancelled(), "child created around the cancel lost the trip");
            assert!(grandchild.is_cancelled(), "grandchild lost an ancestor's trip");
        }
    }
}

/// Double (and N-way concurrent) cancel is idempotent: no state corruption,
/// no un-cancelling, and `reset` on a child cannot clear an ancestor trip.
#[test]
fn double_cancel_is_idempotent_under_contention() {
    let parent = CancelToken::new();
    let child = parent.child();
    let cancels = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..32)
        .map(|_| {
            let c = child.clone();
            let n = Arc::clone(&cancels);
            thread::spawn(move || {
                for _ in 0..1_000 {
                    c.cancel();
                    n.fetch_add(1, Ordering::Relaxed);
                    assert!(c.is_cancelled(), "a cancel can never be un-observed");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(cancels.load(Ordering::Relaxed), 32_000);
    assert!(child.is_cancelled());
    assert!(!parent.is_cancelled(), "32k child cancels must not leak upward");

    // Idempotence the other way: cancel the parent, then try to shake the
    // child loose with reset() — the ancestor trip must persist.
    parent.cancel();
    child.reset();
    assert!(child.is_cancelled(), "reset() must not clear an ancestor's cancellation");
    parent.cancel(); // double-cancel of an already-tripped parent: harmless
    assert!(parent.is_cancelled());
}

/// The daemon's shutdown shape: a root with many per-job children, each
/// with per-rung grandchildren, all polling from worker threads while the
/// root cancels once. Everything must stop promptly; nothing may require a
/// second cancel.
#[test]
fn root_cancel_stops_a_deep_running_tree_promptly() {
    const JOBS: usize = 24;
    const RUNGS: usize = 3;
    let root = CancelToken::new();
    let stopped = Arc::new(AtomicUsize::new(0));
    let ready = Arc::new(Barrier::new(JOBS * RUNGS + 1));
    let mut workers = Vec::new();
    for _ in 0..JOBS {
        let job = root.child();
        for _ in 0..RUNGS {
            let rung = job.child();
            let stopped = Arc::clone(&stopped);
            let ready = Arc::clone(&ready);
            workers.push(thread::spawn(move || {
                ready.wait();
                let t0 = Instant::now();
                // Simulated solver loop: poll at bit-blast granularity.
                while !rung.is_cancelled() {
                    if t0.elapsed() > Duration::from_secs(10) {
                        panic!("rung never observed the root cancellation");
                    }
                    std::hint::spin_loop();
                }
                stopped.fetch_add(1, Ordering::Release);
            }));
        }
    }
    ready.wait();
    root.cancel(); // exactly one cancel for the whole tree
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(stopped.load(Ordering::Acquire), JOBS * RUNGS);
}

/// The daemon's job-deadline shape: every job token carries its own
/// deadline and nothing ever calls `cancel()`. Every rung, polling from its
/// own worker thread, must stop once its job's deadline passes — even
/// though each rung's own deadline lies an hour out — and the root must
/// stay untripped.
#[test]
fn job_deadlines_stop_every_rung_without_a_cancel() {
    const JOBS: usize = 24;
    const RUNGS: usize = 3;
    let root = CancelToken::new();
    let stopped = Arc::new(AtomicUsize::new(0));
    let ready = Arc::new(Barrier::new(JOBS * RUNGS + 1));
    let start = Instant::now();
    let mut jobs = Vec::new();
    let mut workers = Vec::new();
    for j in 0..JOBS {
        let job = root.child_until(start + Duration::from_millis(20 + 2 * j as u64));
        for _ in 0..RUNGS {
            let rung = job.child_until(start + Duration::from_secs(3600));
            let stopped = Arc::clone(&stopped);
            let ready = Arc::clone(&ready);
            workers.push(thread::spawn(move || {
                ready.wait();
                let t0 = Instant::now();
                while !rung.is_cancelled() {
                    if t0.elapsed() > Duration::from_secs(10) {
                        panic!("rung never observed its job's deadline");
                    }
                    std::hint::spin_loop();
                }
                stopped.fetch_add(1, Ordering::Release);
            }));
        }
        jobs.push(job);
    }
    ready.wait();
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(stopped.load(Ordering::Acquire), JOBS * RUNGS);
    assert!(jobs.iter().all(CancelToken::is_cancelled));
    assert!(!root.is_cancelled(), "job deadlines must never reach the root");
}
