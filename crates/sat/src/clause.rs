//! Clause storage: one flat arena.
//!
//! Every clause is a block in a single `Vec<Lit>`: a two-word header
//! (length, clause id) followed by the literals. A [`ClauseRef`] is the
//! block's position, so a watcher or a reason leads propagation straight to
//! one contiguous run of memory. The header words reuse the literal code
//! space (`Lit::from_index(n)` stores the number `n`), which keeps a
//! clause's literals a plain `&[Lit]` slice.
//!
//! Activity, LBD and the learnt/deleted flags live in a dense side table
//! indexed by clause id. Ids are handed out in order and never reused, so a
//! deleted clause keeps its id as a tombstone in the side table. Deleting
//! or shortening a clause leaves dead words in the arena until
//! [`ClauseDb::compact`] squeezes them out. Compaction keeps clause order
//! and literal order, and it moves blocks, so it may run only where the
//! solver rebuilds its watch lists anyway (at decision level 0).

use crate::types::Lit;

/// Arena position of a clause (the index of its header word).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct ClauseRef(u32);

/// Watch-list entry: the clause plus a *blocker* literal that, when already
/// true, lets propagation skip visiting the clause body.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Watcher {
    pub cref: ClauseRef,
    pub blocker: Lit,
}

/// Side-table entry of one clause.
#[derive(Debug)]
pub(crate) struct ClauseMeta {
    /// Where the clause's block currently starts.
    pub cref: ClauseRef,
    /// Bump-and-decay activity (learnt clauses only).
    pub activity: f64,
    /// Literal-block distance at learn time; lower is better.
    pub lbd: u32,
    /// Whether the clause was learnt (subject to deletion) or original.
    pub learnt: bool,
    /// Tombstone: the clause is gone and its arena block is dead.
    pub deleted: bool,
}

/// Header words in front of every clause's literals.
const HEADER: usize = 2;

/// The clause arena plus its side table.
#[derive(Default)]
pub(crate) struct ClauseDb {
    arena: Vec<Lit>,
    meta: Vec<ClauseMeta>,
    /// Clauses not deleted.
    live: usize,
    /// Literals across the live clauses.
    live_lits: usize,
}

impl ClauseDb {
    /// Store a clause (not yet watched); returns its id.
    pub fn push(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> usize {
        let id = self.meta.len();
        let cref =
            ClauseRef(u32::try_from(self.arena.len()).expect("clause arena under 2^32 words"));
        self.arena.push(Lit::from_index(lits.len()));
        self.arena.push(Lit::from_index(id));
        self.arena.extend_from_slice(lits);
        self.meta.push(ClauseMeta { cref, activity: 0.0, lbd, learnt, deleted: false });
        self.live += 1;
        self.live_lits += lits.len();
        id
    }

    /// Ids handed out so far, tombstones included: ids are `0..slots()`.
    #[inline]
    pub fn slots(&self) -> usize {
        self.meta.len()
    }

    /// Number of live clauses.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Bytes of literal storage across the live clauses.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.live_lits * std::mem::size_of::<Lit>()
    }

    #[inline]
    pub fn meta(&self, id: usize) -> &ClauseMeta {
        &self.meta[id]
    }

    #[inline]
    pub fn meta_mut(&mut self, id: usize) -> &mut ClauseMeta {
        &mut self.meta[id]
    }

    /// Every side-table entry, tombstones included, in id order.
    pub fn metas_mut(&mut self) -> impl Iterator<Item = &mut ClauseMeta> {
        self.meta.iter_mut()
    }

    /// Id of the clause at `cref`.
    #[inline]
    pub fn id(&self, cref: ClauseRef) -> usize {
        self.arena[cref.0 as usize + 1].index()
    }

    /// Literals of the clause at `cref`.
    #[inline]
    pub fn lits(&self, cref: ClauseRef) -> &[Lit] {
        let at = cref.0 as usize;
        let len = self.arena[at].index();
        &self.arena[at + HEADER..at + HEADER + len]
    }

    /// Literals of the clause at `cref`, for in-place reordering.
    #[inline]
    pub fn lits_mut(&mut self, cref: ClauseRef) -> &mut [Lit] {
        let at = cref.0 as usize;
        let len = self.arena[at].index();
        &mut self.arena[at + HEADER..at + HEADER + len]
    }

    /// Literals of clause `id` (empty once it is deleted).
    #[inline]
    pub fn clause(&self, id: usize) -> &[Lit] {
        let m = &self.meta[id];
        if m.deleted {
            return &[];
        }
        self.lits(m.cref)
    }

    /// Mark clause `id` deleted.
    pub fn delete(&mut self, id: usize) {
        debug_assert!(!self.meta[id].deleted);
        self.live -= 1;
        self.live_lits -= self.clause(id).len();
        self.meta[id].deleted = true;
    }

    /// Keep only the literals of clause `id` that satisfy `keep`, in order;
    /// returns the new length.
    pub fn retain(&mut self, id: usize, mut keep: impl FnMut(Lit) -> bool) -> usize {
        let cref = self.meta[id].cref;
        let lits = self.lits_mut(cref);
        let len = lits.len();
        let mut n = 0;
        for k in 0..len {
            if keep(lits[k]) {
                lits[n] = lits[k];
                n += 1;
            }
        }
        self.live_lits -= len - n;
        self.arena[cref.0 as usize] = Lit::from_index(n);
        n
    }

    /// Squeeze out the blocks of deleted clauses and the dead tails of
    /// shortened ones. Clause and literal order are kept; every live
    /// clause's [`ClauseRef`] may change, so the caller drops all watchers
    /// and reasons first.
    pub fn compact(&mut self) {
        let mut to = 0;
        for m in &mut self.meta {
            if m.deleted {
                continue;
            }
            let from = m.cref.0 as usize;
            let end = from + HEADER + self.arena[from].index();
            self.arena.copy_within(from..end, to);
            m.cref = ClauseRef(to as u32);
            to += end - from;
        }
        self.arena.truncate(to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Var;

    fn lits(vars: &[(u32, bool)]) -> Vec<Lit> {
        vars.iter().map(|&(v, pos)| Lit::new(Var(v), pos)).collect()
    }

    #[test]
    fn push_read_and_delete() {
        let mut db = ClauseDb::default();
        let a = db.push(&lits(&[(0, true), (1, false)]), true, 2);
        let b = db.push(&lits(&[(2, true), (3, true), (4, false)]), false, 0);
        assert_eq!((db.slots(), db.live(), db.bytes()), (2, 2, 5 * 4));
        let cb = db.meta(b).cref;
        assert_eq!(db.id(cb), b);
        assert_eq!(db.lits(cb), &lits(&[(2, true), (3, true), (4, false)])[..]);
        assert!(db.meta(a).learnt && db.meta(a).lbd == 2);
        db.delete(a);
        assert_eq!((db.slots(), db.live(), db.bytes()), (2, 1, 3 * 4));
        assert!(db.clause(a).is_empty());
    }

    #[test]
    fn compaction_keeps_order_and_shrinks() {
        let mut db = ClauseDb::default();
        let ids: Vec<usize> = (0..4)
            .map(|i| db.push(&lits(&[(i, true), (i + 1, false), (i + 2, true)]), false, 0))
            .collect();
        db.delete(ids[1]);
        assert_eq!(db.retain(ids[2], |l| l.var() != Var(3)), 2);
        let before: Vec<Vec<Lit>> = ids.iter().map(|&i| db.clause(i).to_vec()).collect();
        db.compact();
        let after: Vec<Vec<Lit>> = ids.iter().map(|&i| db.clause(i).to_vec()).collect();
        assert_eq!(before, after);
        assert_eq!(db.arena.len(), 3 * HEADER + 3 + 2 + 3);
        for &i in &ids {
            if !db.meta(i).deleted {
                assert_eq!(db.id(db.meta(i).cref), i);
            }
        }
        assert_eq!(db.bytes(), (3 + 2 + 3) * 4);
    }
}
