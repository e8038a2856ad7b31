//! Resource budgets and cooperative cancellation: the verifier's analogue
//! of the paper's five-minute SMT timeout ("T.O" in Tables II/III), extended
//! into a full resilience contract — wall clock, search-effort caps, memory
//! caps and an external kill switch — shared by every layer of the pipeline
//! (rewriting, bit-blasting, CDCL search).
//!
//! The wall clock lives in one place: the [`CancelToken`]. A token trips
//! when it or an ancestor is cancelled or when its deadline passes, so every
//! poll of the token sees both.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cooperative cancellation token with an optional wall-clock deadline.
/// Cloning shares the flag: any holder can [`cancel`](CancelToken::cancel)
/// a solve running on another thread, and the solver observes it at
/// propagation / bit-blast granularity, yielding `Unknown` promptly instead
/// of running to completion. A passed deadline is observed the same way.
///
/// Tokens form a *tree*: [`child`](CancelToken::child) derives a token that
/// trips when either itself or any ancestor is cancelled, while cancelling
/// the child leaves the parent — and every sibling — untouched. A child
/// inherits the earliest deadline along its ancestor chain, and
/// [`child_until`](CancelToken::child_until) may set an earlier one that
/// binds the child and its descendants only. This is the contract the
/// degradation ladder relies on: a rung's deadline trips only that rung's
/// child token, never the run's parent or a later rung, yet a supervisor
/// holding the parent (a `pug-serve` job token, with the job's own
/// deadline) can still stop the whole run.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// Ancestor chain, innermost parent first. Kept flat (rather than a
    /// recursive parent link) so `is_cancelled` is a short loop of atomic
    /// loads with no pointer chasing through nested Arcs.
    ancestors: Arc<[Arc<AtomicBool>]>,
    /// Earliest deadline along the chain, this token's own included. Fixed
    /// at creation, so clones and children copy it.
    deadline: Option<Instant>,
}

impl CancelToken {
    /// Fresh, untripped root token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Derive a child token: tripped by its own [`cancel`](CancelToken::cancel),
    /// by cancelling `self` (or any ancestor of `self`), or by the deadline
    /// it inherits from `self`; cancelling the child never affects `self`
    /// or the child's siblings.
    pub fn child(&self) -> CancelToken {
        let mut chain = vec![Arc::clone(&self.flag)];
        chain.extend(self.ancestors.iter().cloned());
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            ancestors: chain.into(),
            deadline: self.deadline,
        }
    }

    /// Derive a child token that also trips once `deadline` passes. An
    /// earlier deadline inherited from `self` still binds; the new one
    /// never reaches `self` or a sibling.
    pub fn child_until(&self, deadline: Instant) -> CancelToken {
        let mut child = self.child();
        child.deadline = Some(child.deadline.map_or(deadline, |d| d.min(deadline)));
        child
    }

    /// Derive a child token that also trips once `timeout` has elapsed
    /// from now, like [`child_until`](CancelToken::child_until). A timeout
    /// too long for the clock to represent sets no deadline of its own.
    pub fn child_with_timeout(&self, timeout: Duration) -> CancelToken {
        match Instant::now().checked_add(timeout) {
            Some(deadline) => self.child_until(deadline),
            None => self.child(),
        }
    }

    /// Trip the token (and, transitively, every descendant). Idempotent;
    /// safe from any thread. Ancestors and siblings are unaffected.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has this token — or any ancestor — been tripped, or has its deadline
    /// passed? Reads the clock only when a deadline is set.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
            || self.ancestors.iter().any(|a| a.load(Ordering::Acquire))
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Reset this token's own flag to untripped (for token reuse between
    /// runs in tests/harnesses). A cancellation inherited from an ancestor,
    /// or a deadline that has passed, cannot be reset.
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Release);
    }
}

/// Limits on a single `solve` call. Exceeding any limit yields
/// [`crate::SolveResult::Unknown`].
///
/// Beyond the search-effort limit it caps *memory* (clause-database bytes,
/// hash-consed term count) and carries a [`CancelToken`], which holds the
/// wall-clock deadline and the external kill switch.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Maximum number of conflicts, if any.
    pub max_conflicts: Option<u64>,
    /// Cap on the SAT clause database, in bytes of literal storage
    /// (original + learnt). Exceeding it yields `Unknown` — the analogue
    /// of a solver memory-out.
    pub max_clause_bytes: Option<usize>,
    /// Cap on hash-consed term nodes in the SMT context. Checked by the
    /// rewriting/array-elimination loops, which can blow up the DAG long
    /// before the SAT solver starts.
    pub max_term_nodes: Option<usize>,
    /// Deadline and external cancellation. The default token has no
    /// deadline and is never tripped.
    pub cancel: CancelToken,
}

impl Budget {
    /// No limits: run to completion.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Conflict-count limit.
    pub fn with_conflicts(max: u64) -> Budget {
        Budget { max_conflicts: Some(max), ..Budget::default() }
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

    /// Attach a cancellation token (and so its deadline) to an existing
    /// budget.
    pub fn and_cancel(mut self, token: CancelToken) -> Budget {
        self.cancel = token;
        self
    }

    /// True when the conflict count reached its limit or the token tripped
    /// (cancelled or past its deadline). Callers invoke this at a coarse
    /// cadence (per conflict); the finer-grained polls use
    /// [`interrupted`](Budget::interrupted).
    pub fn exhausted(&self, conflicts: u64) -> bool {
        matches!(self.max_conflicts, Some(m) if conflicts >= m) || self.interrupted()
    }

    /// Cancellation-or-deadline check, for loops that have no conflict
    /// counter (bit-blasting, rewriting, extraction).
    #[inline]
    pub fn interrupted(&self) -> bool {
        self.cancel.is_cancelled()
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn past() -> Instant {
        Instant::now() - Duration::from_secs(1)
    }

    fn future() -> Instant {
        Instant::now() + Duration::from_secs(3600)
    }

    #[test]
    fn unlimited_never_exhausts() {
        let b = Budget::unlimited();
        assert!(!b.exhausted(u64::MAX));
        assert!(!b.interrupted());
        assert!(!b.clause_bytes_exhausted(usize::MAX));
        assert!(!b.term_nodes_exhausted(usize::MAX));
    }

    #[test]
    fn conflict_limit() {
        let b = Budget::with_conflicts(10);
        assert!(!b.exhausted(9));
        assert!(b.exhausted(10));
    }

    #[test]
    fn past_deadline_trips_the_token() {
        let token = CancelToken::new().child_until(past());
        assert!(token.is_cancelled());
        let b = Budget::unlimited().and_cancel(token);
        assert!(b.interrupted());
        assert!(b.exhausted(0));
        assert!(!CancelToken::new().child_until(future()).is_cancelled());
        assert!(CancelToken::new().child_with_timeout(Duration::ZERO).is_cancelled());
        assert!(!CancelToken::new().child_with_timeout(Duration::MAX).is_cancelled());
    }

    #[test]
    fn child_inherits_the_earlier_parent_deadline() {
        let parent = CancelToken::new().child_until(past());
        assert!(parent.child().is_cancelled());
        assert!(parent.child_until(future()).is_cancelled(), "a later own deadline cannot extend");
        let live = CancelToken::new().child_until(future());
        assert!(!live.child().is_cancelled());
        assert!(!live.child().child().is_cancelled());
    }

    #[test]
    fn own_earlier_deadline_trips_only_that_child() {
        let root = CancelToken::new();
        let parent = root.child_until(future());
        let expired = parent.child_until(past());
        let sibling = parent.child();
        assert!(expired.is_cancelled());
        assert!(expired.child().is_cancelled(), "descendants inherit the earlier deadline");
        assert!(!parent.is_cancelled(), "a child's deadline must not trip the parent");
        assert!(!sibling.is_cancelled(), "a child's deadline must not trip a sibling");
        assert!(!root.is_cancelled());
    }

    #[test]
    fn reset_does_not_clear_a_passed_deadline() {
        let token = CancelToken::new().child_until(past());
        token.reset();
        assert!(token.is_cancelled());
        token.cancel();
        token.reset();
        assert!(token.is_cancelled());
    }

    #[test]
    fn cancellation_trips_everywhere() {
        let b = Budget::unlimited();
        assert!(!b.interrupted());
        b.cancel.cancel();
        assert!(b.interrupted());
        assert!(b.exhausted(0));
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
}
