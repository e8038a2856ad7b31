//! Resource budgets and cooperative cancellation: the verifier's analogue
//! of the paper's five-minute SMT timeout ("T.O" in Tables II/III), extended
//! into a full resilience contract — wall clock, search-effort caps, memory
//! caps and an external kill switch — shared by every layer of the pipeline
//! (rewriting, bit-blasting, CDCL search).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cooperative cancellation token. Cloning shares the flag: any holder can
/// [`cancel`](CancelToken::cancel) a solve running on another thread, and
/// the solver observes it at propagation / bit-blast granularity, yielding
/// `Unknown` promptly instead of running to completion.
///
/// Tokens form a *tree*: [`child`](CancelToken::child) derives a token that
/// trips when either itself or any ancestor is cancelled, while cancelling
/// the child leaves the parent — and every sibling — untouched. This is the
/// isolation contract portfolio racing relies on: one rung exhausting its
/// budget must never take a concurrently racing sibling down with it, yet
/// a supervisor holding the root can still stop the whole portfolio.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// Ancestor chain, innermost parent first. Kept flat (rather than a
    /// recursive parent link) so `is_cancelled` is a short loop of atomic
    /// loads with no pointer chasing through nested Arcs.
    ancestors: Arc<[Arc<AtomicBool>]>,
}

impl CancelToken {
    /// Fresh, untripped root token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Derive a child token: tripped by its own [`cancel`](CancelToken::cancel)
    /// *or* by cancelling `self` (or any ancestor of `self`); cancelling the
    /// child never affects `self` or the child's siblings.
    pub fn child(&self) -> CancelToken {
        let mut chain = vec![Arc::clone(&self.flag)];
        chain.extend(self.ancestors.iter().cloned());
        CancelToken { flag: Arc::new(AtomicBool::new(false)), ancestors: chain.into() }
    }

    /// Trip the token (and, transitively, every descendant). Idempotent;
    /// safe from any thread. Ancestors and siblings are unaffected.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has this token — or any ancestor — been tripped?
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
            || self.ancestors.iter().any(|a| a.load(Ordering::Acquire))
    }

    /// Reset this token's own flag to untripped (for token reuse between
    /// runs in tests/harnesses). A cancellation inherited from an ancestor
    /// cannot be reset from the child.
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Release);
    }
}

/// Limits on a single `solve` call. Exceeding any limit yields
/// [`crate::SolveResult::Unknown`].
///
/// Also exported as `ResourceBudget`: beyond the original search-effort
/// limits it caps *memory* (clause-database bytes, hash-consed term count)
/// and carries a [`CancelToken`] for external aborts.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Maximum number of conflicts, if any.
    pub max_conflicts: Option<u64>,
    /// Maximum number of unit propagations, if any.
    pub max_propagations: Option<u64>,
    /// Wall-clock deadline, if any.
    pub deadline: Option<Instant>,
    /// Cap on the SAT clause database, in bytes of literal storage
    /// (original + learnt). Exceeding it yields `Unknown` — the analogue
    /// of a solver memory-out.
    pub max_clause_bytes: Option<usize>,
    /// Cap on hash-consed term nodes in the SMT context. Checked by the
    /// rewriting/array-elimination loops, which can blow up the DAG long
    /// before the SAT solver starts.
    pub max_term_nodes: Option<usize>,
    /// External cancellation. Default token is never tripped.
    pub cancel: CancelToken,
}

/// The full resilience contract: `Budget` plus memory caps and
/// cancellation. (Alias — the two names refer to the same struct.)
pub type ResourceBudget = Budget;

impl Budget {
    /// No limits: run to completion.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Wall-clock limit measured from now.
    pub fn with_timeout(timeout: Duration) -> Budget {
        Budget { deadline: Some(Instant::now() + timeout), ..Budget::default() }
    }

    /// Conflict-count limit.
    pub fn with_conflicts(max: u64) -> Budget {
        Budget { max_conflicts: Some(max), ..Budget::default() }
    }

    /// Add a wall-clock limit to an existing budget.
    pub fn and_timeout(mut self, timeout: Duration) -> Budget {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Add a clause-database byte cap to an existing budget.
    pub fn and_clause_bytes(mut self, bytes: usize) -> Budget {
        self.max_clause_bytes = Some(bytes);
        self
    }

    /// Add a term-node cap to an existing budget.
    pub fn and_term_nodes(mut self, nodes: usize) -> Budget {
        self.max_term_nodes = Some(nodes);
        self
    }

    /// Attach a cancellation token to an existing budget.
    pub fn and_cancel(mut self, token: CancelToken) -> Budget {
        self.cancel = token;
        self
    }

    /// True when the counters exceed any configured limit, the deadline has
    /// passed, or the token was tripped.
    /// The deadline is only consulted here, so callers should invoke this at
    /// a coarse cadence (e.g. per conflict) to keep `Instant::now` off hot
    /// paths; the cancellation check is a single atomic load and is also
    /// consulted on the finer-grained [`interrupted`](Budget::interrupted)
    /// path.
    pub fn exhausted(&self, conflicts: u64, propagations: u64) -> bool {
        if let Some(m) = self.max_conflicts {
            if conflicts >= m {
                return true;
            }
        }
        if let Some(m) = self.max_propagations {
            if propagations >= m {
                return true;
            }
        }
        self.interrupted()
    }

    /// Deadline-or-cancellation check, for loops that have no conflict /
    /// propagation counters (bit-blasting, rewriting, extraction).
    #[inline]
    pub fn interrupted(&self) -> bool {
        if self.cancel.is_cancelled() {
            return true;
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        false
    }

    /// True when the clause database outgrew its byte cap.
    #[inline]
    pub fn clause_bytes_exhausted(&self, bytes: usize) -> bool {
        matches!(self.max_clause_bytes, Some(m) if bytes >= m)
    }

    /// True when the term DAG outgrew its node cap.
    #[inline]
    pub fn term_nodes_exhausted(&self, nodes: usize) -> bool {
        matches!(self.max_term_nodes, Some(m) if nodes >= m)
    }

    /// Remaining wall-clock time, if a deadline is set. `Duration::ZERO`
    /// once the deadline has passed.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let b = Budget::unlimited();
        assert!(!b.exhausted(u64::MAX, u64::MAX));
        assert!(!b.interrupted());
        assert!(!b.clause_bytes_exhausted(usize::MAX));
        assert!(!b.term_nodes_exhausted(usize::MAX));
    }

    #[test]
    fn conflict_limit() {
        let b = Budget::with_conflicts(10);
        assert!(!b.exhausted(9, 0));
        assert!(b.exhausted(10, 0));
    }

    #[test]
    fn deadline_in_past_exhausts() {
        let b = Budget { deadline: Some(Instant::now() - Duration::from_secs(1)), ..Budget::default() };
        assert!(b.exhausted(0, 0));
        assert!(b.interrupted());
    }

    #[test]
    fn cancellation_trips_everywhere() {
        let b = Budget::unlimited();
        assert!(!b.interrupted());
        b.cancel.cancel();
        assert!(b.interrupted());
        assert!(b.exhausted(0, 0));
        b.cancel.reset();
        assert!(!b.interrupted());
    }

    #[test]
    fn token_is_shared_across_clones() {
        let token = CancelToken::new();
        let b = Budget::unlimited().and_cancel(token.clone());
        let b2 = b.clone();
        token.cancel();
        assert!(b.interrupted());
        assert!(b2.interrupted());
    }

    #[test]
    fn memory_caps() {
        let b = Budget::unlimited().and_clause_bytes(1024).and_term_nodes(10);
        assert!(!b.clause_bytes_exhausted(1023));
        assert!(b.clause_bytes_exhausted(1024));
        assert!(!b.term_nodes_exhausted(9));
        assert!(b.term_nodes_exhausted(10));
    }

    #[test]
    fn child_token_isolation() {
        let root = CancelToken::new();
        let a = root.child();
        let b = root.child();
        // Sibling cancellation is isolated.
        a.cancel();
        assert!(a.is_cancelled());
        assert!(!b.is_cancelled(), "cancelling a child must not trip its sibling");
        assert!(!root.is_cancelled(), "cancelling a child must not trip the parent");
        // Root cancellation reaches every descendant, including grandchildren.
        let grandchild = b.child();
        root.cancel();
        assert!(b.is_cancelled());
        assert!(grandchild.is_cancelled());
        // A child cannot un-cancel an ancestor's trip.
        b.reset();
        assert!(b.is_cancelled());
    }

    #[test]
    fn remaining_time_saturates() {
        let b = Budget { deadline: Some(Instant::now() - Duration::from_secs(1)), ..Budget::default() };
        assert_eq!(b.remaining(), Some(Duration::ZERO));
        assert_eq!(Budget::unlimited().remaining(), None);
    }
}
