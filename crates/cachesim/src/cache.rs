//! A single set-associative cache level.

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

/// One set: tags ordered most-recently-used first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct CacheSet {
    lines: Vec<u64>,
}

impl CacheSet {
    fn touch(&mut self, tag: u64, ways: usize) -> Lookup {
        match self.lines.iter().position(|&t| t == tag) {
            // Already most-recently-used: nothing to reorder. This is the
            // steady state of a table-walk workload and the hot path.
            Some(0) => Lookup::Hit,
            // One rotate instead of a remove + insert pair (two shifts).
            Some(pos) => {
                self.lines[..=pos].rotate_right(1);
                Lookup::Hit
            }
            None => {
                self.lines.insert(0, tag);
                let evicted = if self.lines.len() > ways {
                    self.lines.pop()
                } else {
                    None
                };
                Lookup::Miss { evicted }
            }
        }
    }

    fn remove(&mut self, tag: u64) -> bool {
        match self.lines.iter().position(|&t| t == tag) {
            Some(pos) => {
                self.lines.remove(pos);
                true
            }
            None => false,
        }
    }
}

/// A set-associative, physically-indexed cache with LRU replacement.
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<CacheSet>,
    stats: CacheStats,
}

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
        Cache {
            config,
            sets: vec![CacheSet::default(); config.sets as usize],
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

    /// Looks up (and on miss, installs) the line containing `addr`.
    pub fn access(&mut self, addr: u64) -> Lookup {
        let line = self.config.line_of(addr);
        let set = self.config.set_of(addr) as usize;
        self.stats.accesses += 1;
        let outcome = self.sets[set].touch(line, self.config.ways as usize);
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
        let line = self.config.line_of(addr);
        let set = self.config.set_of(addr) as usize;
        self.sets[set].lines.contains(&line)
    }

    /// Removes the line containing `addr` (the `clflush` primitive).
    /// Returns `true` if it was present.
    pub fn flush_line(&mut self, addr: u64) -> bool {
        let line = self.config.line_of(addr);
        let set = self.config.set_of(addr) as usize;
        self.stats.flushes += 1;
        self.sets[set].remove(line)
    }

    /// Empties the cache entirely (e.g. on simulated context switch with
    /// cache-flushing mitigations).
    pub fn flush_all(&mut self) {
        for set in &mut self.sets {
            set.lines.clear();
        }
        self.stats.flushes += 1;
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(|s| s.lines.len()).sum()
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
