//! Indexed binary max-heap over variables, ordered by VSIDS activity.
//!
//! Supports `decrease/increase key` via the `positions` back-map, which a
//! plain `BinaryHeap` cannot do.

use crate::types::Var;

/// Max-heap of variables keyed by an external activity array.
#[derive(Default, Debug)]
pub struct VarHeap {
    heap: Vec<Var>,
    /// `positions[v] == usize::MAX` when `v` is not in the heap.
    positions: Vec<usize>,
}

const ABSENT: usize = usize::MAX;

impl VarHeap {
    /// Empty heap.
    pub fn new() -> VarHeap {
        VarHeap::default()
    }

    /// Ensure the back-map covers variables `0..n`.
    pub fn grow_to(&mut self, n: usize) {
        if self.positions.len() < n {
            self.positions.resize(n, ABSENT);
        }
    }

    /// Whether `v` is currently enqueued.
    #[inline]
    pub fn contains(&self, v: Var) -> bool {
        self.positions.get(v.index()).copied().unwrap_or(ABSENT) != ABSENT
    }

    /// Number of enqueued variables.
    #[allow(dead_code)] // part of the container's natural API
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no variable is enqueued.
    #[allow(dead_code)] // part of the container's natural API
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Insert `v` (no-op when present).
    pub fn insert(&mut self, v: Var, activity: &[f64]) {
        self.grow_to(v.index() + 1);
        if self.contains(v) {
            return;
        }
        self.positions[v.index()] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Remove and return the variable with the highest activity.
    pub fn pop_max(&mut self, activity: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("non-empty");
        self.positions[top.index()] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.positions[last.index()] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Restore the heap property around `v` after its activity increased.
    pub fn bumped(&mut self, v: Var, activity: &[f64]) {
        if let Some(&pos) = self.positions.get(v.index()) {
            if pos != ABSENT {
                self.sift_up(pos, activity);
            }
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        let act = activity[v.index()];
        while i > 0 {
            let parent = (i - 1) / 2;
            let pv = self.heap[parent];
            if activity[pv.index()] >= act {
                break;
            }
            self.heap[i] = pv;
            self.positions[pv.index()] = i;
            i = parent;
        }
        self.heap[i] = v;
        self.positions[v.index()] = i;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        let act = activity[v.index()];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && activity[self.heap[right].index()] > activity[self.heap[left].index()]
            {
                right
            } else {
                left
            };
            let cv = self.heap[child];
            if act >= activity[cv.index()] {
                break;
            }
            self.heap[i] = cv;
            self.positions[cv.index()] = i;
            i = child;
        }
        self.heap[i] = v;
        self.positions[v.index()] = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let acts = vec![3.0, 1.0, 4.0, 1.5, 9.0];
        let mut h = VarHeap::new();
        for i in 0..5 {
            h.insert(Var(i), &acts);
        }
        let order: Vec<u32> = std::iter::from_fn(|| h.pop_max(&acts)).map(|v| v.0).collect();
        assert_eq!(order, vec![4, 2, 0, 3, 1]);
    }

    #[test]
    fn insert_is_idempotent() {
        let acts = vec![1.0, 2.0];
        let mut h = VarHeap::new();
        h.insert(Var(0), &acts);
        h.insert(Var(0), &acts);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn bump_reorders() {
        let mut acts = vec![1.0, 2.0, 3.0];
        let mut h = VarHeap::new();
        for i in 0..3 {
            h.insert(Var(i), &acts);
        }
        acts[0] = 10.0;
        h.bumped(Var(0), &acts);
        assert_eq!(h.pop_max(&acts), Some(Var(0)));
    }
}
