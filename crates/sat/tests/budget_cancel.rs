//! Resource-budget and cancellation behavior of the CDCL solver:
//! a tripped cancel token, or one past its deadline, must surface as
//! `Unknown` within a bounded number of propagations, and the
//! clause-database byte cap must stop runs that would otherwise grow the
//! learnt DB without bound.

use pug_sat::{Budget, CancelToken, Cnf, Lit, SolveResult, Solver, Var};
use pug_testutil::TestRng;
use std::time::{Duration, Instant};

/// The solver polls the token every `CANCEL_POLL_INTERVAL` propagations;
/// tests allow this much slack plus one conflict's worth of work.
const POLL_SLACK: u64 = 64 + 16;

fn random_cnf(rng: &mut TestRng, num_vars: usize, num_clauses: usize) -> Cnf {
    let clauses = (0..num_clauses)
        .map(|_| {
            let len = rng.gen_range(1usize..=3);
            (0..len)
                .map(|_| Lit::new(Var(rng.gen_range(0..num_vars) as u32), rng.gen_bool(0.5)))
                .collect()
        })
        .collect();
    Cnf { num_vars, clauses }
}

/// An unsatisfiable pigeonhole instance: PHP(holes+1, holes). Hard for
/// resolution, so the solver reliably does real work — and grows a real
/// learnt-clause database — before concluding Unsat.
fn pigeonhole(holes: usize) -> Solver {
    let pigeons = holes + 1;
    let mut s = Solver::new();
    let p: Vec<Vec<Var>> =
        (0..pigeons).map(|_| (0..holes).map(|_| s.new_var()).collect()).collect();
    for row in &p {
        let clause: Vec<Lit> = row.iter().map(|v| v.pos()).collect();
        s.add_clause(&clause);
    }
    #[allow(clippy::needless_range_loop)] // h/i/j symmetry reads better indexed
    for h in 0..holes {
        for i in 0..pigeons {
            for j in (i + 1)..pigeons {
                s.add_clause(&[p[i][h].neg(), p[j][h].neg()]);
            }
        }
    }
    s
}

/// Property: whatever the instance, a pre-tripped token yields Unknown
/// after at most one poll interval of propagations.
#[test]
fn prop_tripped_token_bounds_propagations() {
    let mut rng = TestRng::seed_from_u64(0xcace1);
    for case in 0..64u32 {
        let nv = rng.gen_range(4usize..=16);
        let nc = rng.gen_range(4usize..=70);
        let cnf = random_cnf(&mut rng, nv, nc);
        let mut s = Solver::new();
        if !cnf.load(&mut s) {
            continue; // trivially unsat at load time
        }
        let token = CancelToken::new();
        token.cancel();
        let before = s.stats().propagations;
        let r = s.solve(&Budget::unlimited().and_cancel(token.clone()));
        let spent = s.stats().propagations - before;
        assert_eq!(r, SolveResult::Unknown, "case {case}: cancelled solve must be Unknown");
        assert!(
            spent <= POLL_SLACK,
            "case {case}: {spent} propagations after cancellation (poll bound {POLL_SLACK})"
        );

        // The token is cooperative state, not solver damage: clearing it
        // must let the same solver finish the same instance.
        token.reset();
        let r2 = s.solve(&Budget::unlimited());
        assert_ne!(r2, SolveResult::Unknown, "case {case}: solver must recover after reset");
    }
}

/// Property: whatever the instance, a token whose deadline has passed
/// yields Unknown after at most one poll interval of propagations, and the
/// solver itself is undamaged.
#[test]
fn prop_expired_deadline_bounds_propagations() {
    let mut rng = TestRng::seed_from_u64(0xdead1);
    for case in 0..64u32 {
        let nv = rng.gen_range(4usize..=16);
        let nc = rng.gen_range(4usize..=70);
        let cnf = random_cnf(&mut rng, nv, nc);
        let mut s = Solver::new();
        if !cnf.load(&mut s) {
            continue; // trivially unsat at load time
        }
        let expired = CancelToken::new().child_until(Instant::now() - Duration::from_secs(1));
        let before = s.stats().propagations;
        let r = s.solve(&Budget::unlimited().and_cancel(expired));
        let spent = s.stats().propagations - before;
        assert_eq!(r, SolveResult::Unknown, "case {case}: expired solve must be Unknown");
        assert!(
            spent <= POLL_SLACK,
            "case {case}: {spent} propagations past the deadline (poll bound {POLL_SLACK})"
        );
        let r2 = s.solve(&Budget::unlimited());
        assert_ne!(r2, SolveResult::Unknown, "case {case}: solver must recover without a deadline");
    }
}

/// Tripping the token from another thread interrupts a long-running solve.
#[test]
fn cross_thread_cancellation_interrupts_solve() {
    let mut s = pigeonhole(9); // big enough to run for a while
    let token = CancelToken::new();
    let budget = Budget::unlimited().and_cancel(token.clone());
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        token.cancel();
    });
    let started = std::time::Instant::now();
    let r = s.solve(&budget);
    killer.join().unwrap();
    // Either the instance finished before the trigger (fast machine) or the
    // cancellation cut it short — but it must never run unboundedly.
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "solve did not yield after cross-thread cancel"
    );
    assert!(
        matches!(r, SolveResult::Unknown | SolveResult::Unsat),
        "unexpected result {r:?}"
    );
}

/// A token deadline interrupts a long-running solve on its own: no other
/// thread is involved.
#[test]
fn token_deadline_interrupts_solve_without_a_killer_thread() {
    let mut s = pigeonhole(9);
    let token = CancelToken::new().child_until(Instant::now() + Duration::from_millis(30));
    let started = Instant::now();
    let r = s.solve(&Budget::unlimited().and_cancel(token));
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "solve did not yield after its token's deadline"
    );
    assert!(
        matches!(r, SolveResult::Unknown | SolveResult::Unsat),
        "unexpected result {r:?}"
    );
}

/// The clause-DB byte cap turns an expensive Unsat proof into Unknown.
#[test]
fn clause_byte_cap_stops_learnt_growth() {
    // Unlimited: PHP(7,6) is Unsat and learns a nontrivial DB.
    let mut s = pigeonhole(6);
    assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Unsat);
    let full_db = s.clause_db_bytes();
    assert!(full_db > 0, "solver should retain clauses");

    // Capped below the problem clauses alone: refuse immediately.
    let mut tiny = pigeonhole(6);
    let r = tiny.solve(&Budget::unlimited().and_clause_bytes(16));
    assert_eq!(r, SolveResult::Unknown, "cap below input size must refuse");

    // Capped just above the input DB: the run may finish (the proof can be
    // cheap) but must never hold more than cap + one conflict's clause.
    let mut capped = pigeonhole(6);
    let input_db = capped.clause_db_bytes();
    let cap = input_db + 256;
    let _ = capped.solve(&Budget::unlimited().and_clause_bytes(cap));
    assert!(
        capped.clause_db_bytes() <= cap + 4096,
        "DB {} grew far past cap {}",
        capped.clause_db_bytes(),
        cap
    );
}

/// Adversarial CNF under a byte cap: random hard-ish instances never push
/// the DB far past the cap, whatever verdict they reach.
#[test]
fn prop_clause_byte_cap_is_respected() {
    let mut rng = TestRng::seed_from_u64(0xdbcab);
    for case in 0..32u32 {
        let nv = rng.gen_range(10usize..=18);
        let nc = nv * 5; // near the hard ratio for random 3-SAT
        let cnf = random_cnf(&mut rng, nv, nc);
        let mut s = Solver::new();
        if !cnf.load(&mut s) {
            continue;
        }
        let cap = s.clause_db_bytes() + 512;
        let _ = s.solve(&Budget::with_conflicts(10_000).and_clause_bytes(cap));
        assert!(
            s.clause_db_bytes() <= cap + 4096,
            "case {case}: DB {} far past cap {}",
            s.clause_db_bytes(),
            cap
        );
    }
}

/// A deadline in the past behaves like a tripped token: Unknown, promptly.
#[test]
fn expired_deadline_yields_unknown() {
    let mut s = pigeonhole(8);
    let token = CancelToken::new().child_until(Instant::now() + Duration::from_nanos(1));
    let r = s.solve(&Budget::unlimited().and_cancel(token));
    assert_eq!(r, SolveResult::Unknown);
}
