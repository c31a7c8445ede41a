//! Per-task scratch of the kNN ranking and the node lists.
//!
//! Both run their items (points, nodes) in tasks of [`task_len`] items, and
//! each task owns its scratch: a [`Marks`] set it empties member by member
//! after every item, so it is allocated once a task — `N / 8` bytes, in L1
//! or L2 at the workloads' sizes — and never cleared whole.

/// Items per parallel task for `len` items: the pool's own split (one
/// piece on a single worker, four a worker otherwise), never below `grain`
/// nor 1.  Chunking only — it moves no result.
pub(crate) fn task_len(len: usize, grain: usize) -> usize {
    let pieces = match rayon::current_num_threads() {
        0 | 1 => 1,
        t => 4 * t,
    };
    len.div_ceil(pieces).max(grain).max(1)
}

/// Point indices `0..n` marked or not.
pub(crate) struct Marks {
    words: Vec<u64>,
}

impl Marks {
    /// An empty set over the indices `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        Marks {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Mark `i`; true if it was not marked before.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        let (word, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Unmark `i`.
    #[inline]
    pub(crate) fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// True if no index is marked.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_fresh_marks_and_remove_undoes_them() {
        for n in [1, 63, 64, 65, 200] {
            let mut m = Marks::new(n);
            let picks: Vec<usize> = (0..n).step_by(3).chain([n - 1, 0]).collect();
            let mut fresh = 0;
            for &i in &picks {
                fresh += usize::from(m.insert(i));
            }
            let distinct: std::collections::BTreeSet<_> = picks.iter().collect();
            assert_eq!(fresh, distinct.len(), "n {n}");
            assert!(!m.insert(0) && !m.insert(n - 1));
            for &i in &picks {
                m.remove(i);
            }
            assert!(m.is_empty(), "n {n}");
        }
    }
}
