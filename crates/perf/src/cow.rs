//! Copy-on-write storage for machine state that every trial forks and
//! restores: [`Cow`], one run of elements, and [`Table`], a fixed-length
//! table of elements in copy-on-write blocks.
//!
//! A clone shares storage outright, `clone_from` re-points only storage
//! that differs from the source, and the first write after a clone copies
//! out just what it lands in. Reads never copy.

use std::sync::Arc;

/// Elements per block of a [`Table`].
pub const BLOCK: usize = 64;

/// Copy-on-write storage for a run of `T`s: no storage yet (every element
/// at its default), shared with the clones it came from or went to, or
/// owned.
///
/// Storage stays shared until its holder first writes it, which copies it
/// out. Later writes go straight to the owned copy: checking an `Arc`'s
/// uniqueness on every write costs a locked instruction, as much as the
/// write itself.
#[derive(Debug, Default)]
pub enum Cow<T> {
    /// Every element at its default and no storage: cloned without
    /// touching a reference count.
    #[default]
    Empty,
    /// Storage shared with clones; copied out on the first write.
    Shared(Arc<[T]>),
    /// Storage this holder owns and writes in place.
    Owned(Box<[T]>),
}

impl<T: Clone + Default> Cow<T> {
    /// The stored elements; `None` when empty.
    #[inline]
    pub fn get(&self) -> Option<&[T]> {
        match self {
            Cow::Empty => None,
            Cow::Shared(items) => Some(items),
            Cow::Owned(items) => Some(items),
        }
    }

    /// The elements to write, `len` of them: shared storage is copied
    /// out and empty storage filled with defaults first.
    #[inline]
    pub fn get_mut(&mut self, len: usize) -> &mut [T] {
        if !matches!(self, Cow::Owned(_)) {
            self.unshare(len);
        }
        match self {
            Cow::Owned(items) => items,
            Cow::Empty | Cow::Shared(_) => unreachable!("unshared above"),
        }
    }

    /// Makes the storage owned: copies shared storage out, or gives empty
    /// storage `len` default elements. Once per run per fork, so kept out
    /// of line of the per-update path. A copy collects an iterator:
    /// `Box::from(&[T])` copies a run of blocks several times slower.
    #[cold]
    #[inline(never)]
    fn unshare(&mut self, len: usize) {
        let items = match self {
            Cow::Empty => vec![T::default(); len].into_boxed_slice(),
            Cow::Shared(items) => items.iter().cloned().collect(),
            Cow::Owned(_) => return,
        };
        *self = Cow::Owned(items);
    }
}

/// A shared copy of owned storage. Only a snapshot of a live holder
/// copies owned storage, so kept out of line of the clone of a fork.
#[cold]
#[inline(never)]
fn share<T: Clone>(items: &[T]) -> Arc<[T]> {
    Arc::from(items)
}

impl<T> Cow<T> {
    /// Whether `self` and `other` are both empty or one allocation.
    pub fn same(&self, other: &Self) -> bool {
        match (self, other) {
            (Cow::Empty, Cow::Empty) => true,
            (Cow::Shared(a), Cow::Shared(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Runs are equal when their elements are, however they are stored.
impl<T: Clone + Default + PartialEq> PartialEq for Cow<T> {
    fn eq(&self, other: &Self) -> bool {
        self.same(other)
            || match (self.get(), other.get()) {
                (Some(a), Some(b)) => a == b,
                (Some(items), None) | (None, Some(items)) => {
                    items.iter().all(|x| *x == T::default())
                }
                (None, None) => true,
            }
    }
}

impl<T: Clone + Default + Eq> Eq for Cow<T> {}

/// A clone is never owned: cloning shared storage bumps its count and
/// cloning owned storage copies it into a new shared allocation.
impl<T: Clone> Clone for Cow<T> {
    /// Inlined, with the copy out of line: copying out a run clones every
    /// block in a loop, and a call per block costs several times the clone.
    #[inline]
    fn clone(&self) -> Self {
        match self {
            Cow::Empty => Cow::Empty,
            Cow::Shared(items) => Cow::Shared(Arc::clone(items)),
            Cow::Owned(items) => Cow::Shared(share(items)),
        }
    }

    /// Keeps storage already shared with `source`: restoring a snapshot
    /// costs one comparison per run the trial left alone.
    fn clone_from(&mut self, source: &Self) {
        if !self.same(source) {
            *self = source.clone();
        }
    }
}

/// A fixed-length table of `T`s addressed by index, where an element never
/// written reads as `T::default()`.
///
/// Elements live in blocks of [`BLOCK`] (the last block holds the rest),
/// each a [`Cow`], and the run of blocks is a [`Cow`] too. A never-written
/// block takes no storage. A clone shares the run, so every block;
/// `clone_from` re-points a run that differs from the source's; and the
/// first write after a clone copies out the run (a reference count per
/// block) and the one block written. Reads never copy.
///
/// # Examples
///
/// ```
/// use perf::cow::Table;
/// let mut live = Table::<u32>::new(100);
/// *live.get_mut(70) = 7;
/// let snapshot = live.clone();
/// *live.get_mut(70) = 8;
/// assert_eq!((*snapshot.get(70), *live.get(70), *live.get(69)), (7, 8, 0));
/// live.clone_from(&snapshot);
/// assert_eq!(live, snapshot);
/// ```
#[derive(Debug)]
pub struct Table<T> {
    /// Block `b` holds elements `b * BLOCK..`.
    blocks: Cow<Cow<T>>,
    len: usize,
    /// What an element of an absent block reads as: `T::default()`.
    absent: T,
}

impl<T: Clone + Default> Table<T> {
    /// A table of `len` elements, each at its default, taking no storage.
    pub fn new(len: usize) -> Self {
        Table {
            blocks: Cow::Empty,
            len,
            absent: T::default(),
        }
    }

    /// Element `i`. Never copies.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below the table's length.
    #[inline]
    pub fn get(&self, i: usize) -> &T {
        assert!(i < self.len, "index {i} beyond a table of {}", self.len);
        match self.blocks.get().and_then(|blocks| blocks[i / BLOCK].get()) {
            Some(items) => &items[i % BLOCK],
            None => &self.absent,
        }
    }

    /// Element `i` to write, its run and block made owned first.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below the table's length.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len, "index {i} beyond a table of {}", self.len);
        let b = i / BLOCK;
        let block_len = BLOCK.min(self.len - b * BLOCK);
        &mut self.blocks.get_mut(self.len.div_ceil(BLOCK))[b].get_mut(block_len)[i % BLOCK]
    }

    /// Every element of the blocks that have storage, in index order.
    /// Elements of absent blocks are left out; they are all the default.
    pub fn stored(&self) -> impl Iterator<Item = &T> {
        self.blocks
            .get()
            .into_iter()
            .flatten()
            .filter_map(Cow::get)
            .flatten()
    }

    /// Whether `self` and `other` hold their run of blocks in one
    /// allocation (or both have none): a clone does until either side
    /// writes.
    pub fn shares_run(&self, other: &Self) -> bool {
        self.blocks.same(&other.blocks)
    }

    /// For each block, whether `self` and `other` hold it in one
    /// allocation (or both have none).
    pub fn shared_blocks(&self, other: &Self) -> Vec<bool> {
        let (ours, theirs) = (self.blocks.get(), other.blocks.get());
        (0..self.len.div_ceil(BLOCK))
            .map(|b| match (ours.map(|x| &x[b]), theirs.map(|x| &x[b])) {
                (Some(x), Some(y)) => x.same(y),
                (x, y) => matches!(x.or(y), None | Some(Cow::Empty)),
            })
            .collect()
    }
}

impl<T: Clone> Clone for Table<T> {
    fn clone(&self) -> Self {
        Table {
            blocks: self.blocks.clone(),
            len: self.len,
            absent: self.absent.clone(),
        }
    }

    /// Keeps the run of blocks when it is already shared with `source`.
    fn clone_from(&mut self, source: &Self) {
        self.blocks.clone_from(&source.blocks);
        self.len = source.len;
    }
}

/// Tables are equal when their elements are, however they are stored.
impl<T: Clone + Default + PartialEq> PartialEq for Table<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.blocks == other.blocks
    }
}

impl<T: Clone + Default + Eq> Eq for Table<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn clone_shares_blocks_until_written() {
        let mut live = Table::<u64>::new(3 * BLOCK + 5);
        for b in 0..3 {
            *live.get_mut(b * BLOCK + 5) = 7;
        }
        // Cloning a written table copies its written blocks once; clones
        // of that snapshot share its run outright, so every block, the
        // never-written ragged block 3 included.
        let snapshot = live.clone();
        let witness = live.clone();
        let mut fork = snapshot.clone();
        assert!(fork.shares_run(&snapshot), "clone must share the run");
        assert_eq!(fork.shared_blocks(&snapshot), [true; 4], "clone must share");

        // Reads never unshare anything.
        assert_eq!(*fork.get(5), 7);
        assert_eq!(*fork.get(3 * BLOCK + 4), 0);
        assert_eq!(fork.stored().count(), 3 * BLOCK);
        assert_eq!(fork, witness);
        assert!(fork.shares_run(&snapshot));

        // One write copies out the run and exactly its own block.
        *fork.get_mut(2 * BLOCK + 63) = 1;
        assert!(!fork.shares_run(&snapshot));
        assert_eq!(fork.shared_blocks(&snapshot), [true, true, false, true]);
        assert_ne!(fork, witness);
        assert_eq!(snapshot, witness);
        assert_eq!(live, witness);

        // Writing the ragged last block gives it its own length.
        *fork.get_mut(3 * BLOCK + 4) = 2;
        assert_eq!(fork.shared_blocks(&snapshot), [true, true, false, false]);
        assert_eq!(fork.stored().count(), 3 * BLOCK + 5);

        // Restoring re-points the run, so every block.
        fork.clone_from(&snapshot);
        assert!(fork.shares_run(&snapshot));
        assert_eq!(fork, witness);
    }

    #[test]
    fn a_block_written_back_to_default_equals_an_absent_one() {
        let mut t = Table::<u64>::new(2 * BLOCK);
        *t.get_mut(BLOCK + 1) = 3;
        assert_ne!(t, Table::new(2 * BLOCK));
        *t.get_mut(BLOCK + 1) = 0;
        assert_eq!(t, Table::new(2 * BLOCK));
        assert_ne!(t, Table::new(2 * BLOCK + 1), "lengths differ");
    }

    #[test]
    #[should_panic(expected = "beyond a table")]
    fn an_index_past_the_end_panics_even_when_absent() {
        Table::<u64>::new(BLOCK + 3).get(BLOCK + 3);
    }

    /// An index: uniform over the table, or one either side of a block
    /// edge; either way below `len`.
    fn index((edge, i): (bool, usize), len: usize) -> usize {
        if edge {
            ((1 + i % 3) * BLOCK - 1 + (i / 3) % 2) % len
        } else {
            i % len
        }
    }

    proptest! {
        /// The table against a plain `Vec` model: reads, writes, `clone`,
        /// `clone_from` and `==` on a pool of three tables, over indices
        /// either side of each block edge, at lengths that end in a ragged
        /// block, a full one, or inside the first.
        #[test]
        fn table_matches_vec_model(
            len in 1..3 * BLOCK + 9,
            ops in proptest::collection::vec(
                (0..6u8, (any::<bool>(), 0..4 * BLOCK), 0..3usize, 0..3usize, 0..4u32),
                1..150,
            ),
        ) {
            let mut tables = vec![Table::<u32>::new(len); 3];
            let mut models = vec![vec![0u32; len]; 3];
            for (op, i, a, b, value) in ops {
                let i = index(i, len);
                match op {
                    0 => prop_assert_eq!(*tables[a].get(i), models[a][i]),
                    1 | 2 => {
                        *tables[a].get_mut(i) = value;
                        models[a][i] = value;
                    }
                    3 => {
                        tables[b] = tables[a].clone();
                        models[b] = models[a].clone();
                    }
                    4 => {
                        let source = tables[a].clone();
                        tables[b].clone_from(&source);
                        models[b] = models[a].clone();
                    }
                    _ => prop_assert_eq!(tables[a] == tables[b], models[a] == models[b]),
                }
                for (table, model) in tables.iter().zip(&models) {
                    prop_assert_eq!(*table.get(i), model[i]);
                }
            }
            for (table, model) in tables.iter().zip(&models) {
                prop_assert!((0..len).map(|i| *table.get(i)).eq(model.iter().copied()));
                // Absent elements are 0, so the stored ones carry the sum.
                let sum = |xs: &mut dyn Iterator<Item = &u32>| xs.map(|&x| u64::from(x)).sum::<u64>();
                prop_assert_eq!(sum(&mut table.stored()), sum(&mut model.iter()));
            }
        }
    }
}
