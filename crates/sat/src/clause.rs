//! Clause storage.
//!
//! Clauses live in one arena indexed by [`ClauseRef`]. Learnt clauses carry an
//! activity score used by the clause-database reduction policy.

use crate::types::Lit;

/// Handle to a clause in the arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClauseRef(pub u32);

impl ClauseRef {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A disjunction of literals plus solver bookkeeping.
#[derive(Debug)]
pub struct Clause {
    /// The literals. The first two are the watched positions.
    pub lits: Vec<Lit>,
    /// Bump-and-decay activity (learnt clauses only).
    pub activity: f64,
    /// Literal-block distance at learn time; lower is better.
    pub lbd: u32,
    /// Whether the clause was learnt (subject to deletion) or original.
    pub learnt: bool,
    /// Tombstone set by clause-database reduction.
    pub deleted: bool,
}

impl Clause {
    pub(crate) fn new(lits: Vec<Lit>, learnt: bool, lbd: u32) -> Clause {
        Clause { lits, activity: 0.0, lbd, learnt, deleted: false }
    }

    /// Number of literals.
    #[inline]
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// True when the clause has no literals (only possible transiently).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }
}

/// Watch-list entry: the clause plus a *blocker* literal that, when already
/// true, lets propagation skip visiting the clause body.
#[derive(Clone, Copy, Debug)]
pub struct Watcher {
    pub cref: ClauseRef,
    pub blocker: Lit,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Var;

    #[test]
    fn clause_basics() {
        let c = Clause::new(vec![Var(0).pos(), Var(1).neg()], true, 2);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert!(c.learnt);
        assert_eq!(c.lbd, 2);
        assert!(!c.deleted);
    }
}
