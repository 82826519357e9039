//! A single set-associative cache level.

use std::sync::Arc;

use crate::config::CacheConfig;
use crate::stats::CacheStats;

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line was present.
    Hit,
    /// The line was absent and has been installed.
    Miss {
        /// Line-aligned address evicted to make room, if the set was full.
        evicted: Option<u64>,
    },
}

/// Sets per copy-on-write block; a level with fewer sets is one block.
/// 64 sets of 64-byte lines span one 4 KiB page, so walking a table inside
/// a page writes one block per level. A sweep that touches one line per
/// page writes every block, and its first write to each allocates and
/// zeroes it: smaller blocks make that cheaper but make every fork and
/// restore visit more blocks. 16-set blocks measured no better end to end.
const BLOCK_SETS: usize = 64;

/// Moves the tag at `pos` of a set to the front, or, with `pos` of `None`,
/// installs `tag` there and evicts the LRU tag of a full set. `tags` is
/// the set's `ways` slots, of which the first `len` are resident, MRU
/// first.
fn touch(len: &mut u64, tags: &mut [u64], tag: u64, pos: Option<usize>) -> Lookup {
    match pos {
        // One rotate instead of a remove + insert pair (two shifts).
        Some(pos) => {
            tags[..=pos].rotate_right(1);
            Lookup::Hit
        }
        None => {
            let ways = tags.len();
            let used = *len as usize;
            let (last, evicted) = if used == ways {
                (ways - 1, Some(tags[ways - 1]))
            } else {
                *len += 1;
                (used, None)
            };
            tags[last] = tag;
            tags[..=last].rotate_right(1);
            Lookup::Miss { evicted }
        }
    }
}

/// Removes the tag at `pos` of a set (see [`touch`]).
fn remove(len: &mut u64, tags: &mut [u64], pos: usize) {
    let used = *len as usize;
    tags.copy_within(pos + 1..used, pos);
    tags[used - 1] = 0;
    *len -= 1;
}

/// One run of up to [`BLOCK_SETS`] sets, stored flat: the first
/// [`BLOCK_SETS`] words are the sets' lengths, then set `s`'s `ways` tag
/// slots start at word `BLOCK_SETS + s * ways`, resident tags first, MRU
/// first. Slots past a set's length are always 0, so two blocks hold the
/// same sets exactly when their words are equal, and an all-zero block
/// holds none.
///
/// A block is shared (with the clones it came from or went to) until this
/// cache first writes it, which copies it out. Later writes go straight to
/// the owned copy: checking an `Arc`'s uniqueness on every write costs a
/// locked instruction, as much as the write itself.
#[derive(Debug)]
enum Block {
    /// No resident lines and no storage: every block of a new or fully
    /// flushed cache, cloned without touching a reference count.
    Empty,
    Shared(Arc<[u64]>),
    Owned(Box<[u64]>),
}

impl Block {
    /// The stored words; `None` for an empty block.
    fn words(&self) -> Option<&[u64]> {
        match self {
            Block::Empty => None,
            Block::Shared(words) => Some(words),
            Block::Owned(words) => Some(words),
        }
    }

    /// The words to write; see [`Self::unshare`].
    #[inline]
    fn words_mut(&mut self, len: usize) -> &mut [u64] {
        if !matches!(self, Block::Owned(_)) {
            self.unshare(len);
        }
        match self {
            Block::Owned(words) => words,
            Block::Empty | Block::Shared(_) => unreachable!("unshared above"),
        }
    }

    /// Makes the block owned: copies a shared block out, or gives an empty
    /// one `len` fresh zero words. Once per block per fork, so kept out of
    /// line of the per-access path.
    #[cold]
    #[inline(never)]
    fn unshare(&mut self, len: usize) {
        let words = match self {
            Block::Empty => vec![0; len].into_boxed_slice(),
            Block::Shared(words) => Box::from(&words[..]),
            Block::Owned(_) => return,
        };
        *self = Block::Owned(words);
    }

    /// Whether `self` and `other` are both empty or one allocation.
    fn same(&self, other: &Block) -> bool {
        match (self, other) {
            (Block::Empty, Block::Empty) => true,
            (Block::Shared(a), Block::Shared(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Blocks are equal when they hold the same sets, however they are stored.
impl PartialEq for Block {
    fn eq(&self, other: &Self) -> bool {
        self.same(other)
            || match (self.words(), other.words()) {
                (Some(a), Some(b)) => a == b,
                (Some(words), None) | (None, Some(words)) => words.iter().all(|&w| w == 0),
                (None, None) => true,
            }
    }
}

/// A clone is never owned: cloning a shared block bumps its count and
/// cloning an owned one copies it into a new shared allocation.
impl Clone for Block {
    fn clone(&self) -> Self {
        match self {
            Block::Empty => Block::Empty,
            Block::Shared(words) => Block::Shared(Arc::clone(words)),
            Block::Owned(words) => Block::Shared(Arc::from(&words[..])),
        }
    }

    /// Keeps a block already shared with `source`: restoring a snapshot
    /// costs one comparison per block the trial left alone.
    fn clone_from(&mut self, source: &Self) {
        if !self.same(source) {
            *self = source.clone();
        }
    }
}

/// A set-associative, physically-indexed cache with LRU replacement.
///
/// Sets live in copy-on-write blocks of up to 64 sets: a clone shares
/// every block this cache has not written since it was built or restored,
/// `clone_from` re-points only the blocks that differ from the source, and
/// a write copies out just the block it lands in. Blocks not written since
/// the cache was built or flushed take no storage. Lookups that
/// change no set — a hit on the set's most-recently-used line,
/// [`Self::contains`], [`Self::record_mru_hits`] or a flush of an absent
/// line — never copy.
///
/// # Examples
///
/// ```
/// use cachesim::{Cache, CacheConfig, Lookup};
/// let mut c = Cache::new(CacheConfig::tiny());
/// c.access(0);
/// assert!(c.contains(0));
/// assert!(c.contains(63));       // same 64-byte line
/// assert!(!c.contains(64));      // next line
/// ```
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    /// Block `b` holds sets `b * BLOCK_SETS..`.
    blocks: Vec<Block>,
    stats: CacheStats,
}

impl Clone for Cache {
    fn clone(&self) -> Self {
        Cache {
            config: self.config,
            blocks: self.blocks.clone(),
            stats: self.stats,
        }
    }

    /// Reuses the block vector and keeps the blocks already shared with
    /// `source`.
    fn clone_from(&mut self, source: &Self) {
        self.config = source.config;
        self.blocks.clone_from(&source.blocks);
        self.stats = source.stats;
    }
}

impl PartialEq for Cache {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config && self.stats == other.stats && self.blocks == other.blocks
    }
}

impl Eq for Cache {}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration dimensions are not powers of two.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.is_valid(),
            "cache dimensions must be powers of two: {config:?}"
        );
        let blocks = (config.sets as usize).div_ceil(BLOCK_SETS);
        Cache {
            config,
            blocks: vec![Block::Empty; blocks],
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Aggregate counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The line containing `addr`, its block, and its set within the block.
    /// Both dimensions are powers of two, so a level smaller than one
    /// block maps every set into block 0.
    #[inline]
    fn locate(&self, addr: u64) -> (u64, usize, usize) {
        // `CacheConfig::set_of` without its two divisions: both dimensions
        // are powers of two.
        let line_no = addr >> self.config.line_bytes.trailing_zeros();
        let set = (line_no & (u64::from(self.config.sets) - 1)) as usize;
        (
            self.config.line_of(addr),
            set / BLOCK_SETS,
            set % BLOCK_SETS,
        )
    }

    /// Where `line` sits in set `s` of block `b`.
    #[inline]
    fn position(&self, line: u64, b: usize, s: usize) -> Option<usize> {
        let ways = self.config.ways as usize;
        let words = self.blocks[b].words()?;
        words[BLOCK_SETS + s * ways..][..words[s] as usize]
            .iter()
            .position(|&t| t == line)
    }

    /// Set `s` of block `b`, made writable first: its length and its
    /// `ways` tag slots.
    #[inline]
    fn set_mut(&mut self, b: usize, s: usize) -> (&mut u64, &mut [u64]) {
        let ways = self.config.ways as usize;
        let block_sets = (self.config.sets as usize).min(BLOCK_SETS);
        let words = self.blocks[b].words_mut(BLOCK_SETS + block_sets * ways);
        let (lens, tags) = words.split_at_mut(BLOCK_SETS);
        (&mut lens[s], &mut tags[s * ways..][..ways])
    }

    /// Looks up (and on miss, installs) the line containing `addr`.
    pub fn access(&mut self, addr: u64) -> Lookup {
        let (line, b, s) = self.locate(addr);
        self.stats.accesses += 1;
        let pos = self.position(line, b, s);
        // Already most-recently-used: nothing to reorder, so the block
        // stays shared. This is the steady state of a table-walk workload
        // and the hot path.
        if pos == Some(0) {
            self.stats.hits += 1;
            return Lookup::Hit;
        }
        let (len, tags) = self.set_mut(b, s);
        let outcome = touch(len, tags, line, pos);
        match outcome {
            Lookup::Hit => self.stats.hits += 1,
            Lookup::Miss { evicted } => {
                self.stats.misses += 1;
                if evicted.is_some() {
                    self.stats.evictions += 1;
                }
            }
        }
        outcome
    }

    /// Counts `n` hits without a lookup. Only valid when the caller knows
    /// the line is already its set's most-recently-used: each of `n`
    /// [`Self::access`] calls would then find it at the front and change
    /// nothing but these two counters.
    pub fn record_mru_hits(&mut self, n: u64) {
        self.stats.accesses += n;
        self.stats.hits += n;
    }

    /// Returns `true` if the line containing `addr` is present (no LRU
    /// update, no stats).
    pub fn contains(&self, addr: u64) -> bool {
        let (line, b, s) = self.locate(addr);
        self.position(line, b, s).is_some()
    }

    /// Returns `true` if the line containing `addr` is its set's
    /// most-recently-used line, so an [`Self::access`] would hit without
    /// reordering anything (no LRU update, no stats).
    pub fn is_mru(&self, addr: u64) -> bool {
        let (line, b, s) = self.locate(addr);
        self.position(line, b, s) == Some(0)
    }

    /// Removes the line containing `addr` (the `clflush` primitive).
    /// Returns `true` if it was present.
    pub fn flush_line(&mut self, addr: u64) -> bool {
        let (line, b, s) = self.locate(addr);
        self.stats.flushes += 1;
        let Some(pos) = self.position(line, b, s) else {
            return false;
        };
        let (len, tags) = self.set_mut(b, s);
        remove(len, tags, pos);
        true
    }

    /// Empties the cache entirely (e.g. on simulated context switch with
    /// cache-flushing mitigations).
    pub fn flush_all(&mut self) {
        self.blocks.fill(Block::Empty);
        self.stats.flushes += 1;
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.blocks
            .iter()
            .filter_map(Block::words)
            .flat_map(|words| &words[..BLOCK_SETS])
            .map(|&len| len as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_miss() {
        let mut c = Cache::new(CacheConfig::tiny());
        assert_eq!(c.access(0x40), Lookup::Miss { evicted: None });
        assert_eq!(c.access(0x40), Lookup::Hit);
        assert_eq!(c.access(0x41), Lookup::Hit); // same line
        let s = c.stats();
        assert_eq!((s.accesses, s.hits, s.misses), (3, 2, 1));
    }

    #[test]
    fn recorded_mru_hit_equals_a_front_of_set_access() {
        let mut looked_up = Cache::new(CacheConfig::tiny());
        looked_up.access(0);
        looked_up.access(256); // same set, now MRU
        let mut recorded = looked_up.clone();
        for _ in 0..3 {
            assert_eq!(looked_up.access(256), Lookup::Hit);
        }
        recorded.record_mru_hits(3);
        assert_eq!(recorded, looked_up);
    }

    /// Whether each of `a`'s blocks is the same allocation as `b`'s.
    fn shared(a: &Cache, b: &Cache) -> Vec<bool> {
        a.blocks
            .iter()
            .zip(&b.blocks)
            .map(|(x, y)| x.same(y))
            .collect()
    }

    #[test]
    fn snapshot_clone_shares_set_blocks_until_written() {
        // Four blocks.
        let cfg = CacheConfig {
            sets: 4 * BLOCK_SETS as u32,
            ways: 4,
            line_bytes: 64,
        };
        let block_bytes = BLOCK_SETS as u64 * 64;
        let mut live = Cache::new(cfg);
        for b in 0..3 {
            live.access(b * block_bytes);
        }
        live.access(0x40); // block 0, set 1: MRU of its set
                           // Cloning a written cache copies its written blocks once; clones
                           // of that snapshot share them, and the never-written block 3.
        let snapshot = live.clone();
        let witness = live.clone();
        let mut fork = snapshot.clone();
        assert_eq!(shared(&fork, &snapshot), [true; 4], "clone must share");

        // Nothing that leaves every set as it was may unshare a block.
        assert_eq!(fork.access(0x40), Lookup::Hit);
        assert!(fork.contains(2 * block_bytes));
        fork.record_mru_hits(5);
        assert!(!fork.flush_line(block_bytes + 0x80));
        assert!(!fork.flush_line(3 * block_bytes));
        assert_eq!(shared(&fork, &snapshot), [true; 4]);

        // One miss unshares exactly its own block.
        assert!(matches!(
            fork.access(2 * block_bytes + 0x40),
            Lookup::Miss { evicted: None }
        ));
        assert_eq!(shared(&fork, &snapshot), [true, true, false, true]);
        assert_eq!(snapshot, witness);
        assert_eq!(live, witness);

        // Restoring re-points the written block and nothing else.
        fork.clone_from(&snapshot);
        assert_eq!(shared(&fork, &snapshot), [true; 4]);
        assert_eq!(fork, witness);
    }

    #[test]
    fn emptied_block_equals_a_never_written_one() {
        let mut c = Cache::new(CacheConfig::tiny());
        c.access(0x40);
        c.flush_line(0x40);
        let fresh = Cache::new(CacheConfig::tiny());
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.blocks, fresh.blocks);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let c0 = CacheConfig::tiny(); // 4 sets, 2 ways
        let mut c = Cache::new(c0);
        // Three lines mapping to set 0: line stride = sets * line = 256.
        let (a, b, d) = (0u64, 256u64, 512u64);
        c.access(a);
        c.access(b);
        c.access(a); // a is now MRU; b is LRU
        let out = c.access(d);
        assert_eq!(out, Lookup::Miss { evicted: Some(b) });
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn flush_line_forces_next_miss() {
        let mut c = Cache::new(CacheConfig::tiny());
        c.access(0x1000);
        assert!(c.flush_line(0x1000));
        assert!(!c.flush_line(0x1000)); // already gone
        assert!(matches!(c.access(0x1000), Lookup::Miss { .. }));
    }

    #[test]
    fn flush_all_empties() {
        let mut c = Cache::new(CacheConfig::tiny());
        for i in 0..8u64 {
            c.access(i * 64);
        }
        assert!(c.resident_lines() > 0);
        c.flush_all();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn capacity_never_exceeded() {
        let cfg = CacheConfig::tiny();
        let mut c = Cache::new(cfg);
        for i in 0..1000u64 {
            c.access(i * 64);
        }
        assert!(c.resident_lines() as u64 <= cfg.sets as u64 * cfg.ways as u64);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn invalid_config_panics() {
        Cache::new(CacheConfig {
            sets: 3,
            ways: 2,
            line_bytes: 64,
        });
    }
}
