//! A small set-associative translation lookaside buffer.
//!
//! With DRAM-resident page tables on (see the `machine` crate), every
//! translation that misses here costs a multi-level table walk through the
//! cache hierarchy and DRAM. The TLB therefore models the same structure
//! real cores use: VPN-indexed sets with per-set LRU, tagged by process so
//! two processes' identical virtual pages never alias.
//!
//! Entries cache the *translation* only (virtual page → physical frame
//! base). PTE permission/content reads always go to memory, so a hammered
//! page-table bit is visible on the very next walk — the TLB can hide a
//! walk's latency, never its result, matching how the machine layer
//! invalidates on `munmap` and process exit.
//!
//! # Examples
//!
//! ```
//! use cachesim::{Tlb, TlbConfig};
//!
//! let mut tlb = Tlb::new(TlbConfig::small());
//! assert_eq!(tlb.lookup(1, 0x7f00), None);
//! tlb.insert(1, 0x7f00, 0x1000);
//! assert_eq!(tlb.lookup(1, 0x7f00), Some(0x1000));
//! assert_eq!(tlb.lookup(2, 0x7f00), None); // different process
//! ```

/// Geometry of a [`Tlb`]: `sets × ways` entries, indexed by the low bits of
/// the virtual page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of sets (power of two).
    pub sets: u32,
    /// Associativity of each set.
    pub ways: u32,
}

impl TlbConfig {
    /// A small L1-dTLB-like geometry: 16 sets × 4 ways = 64 entries.
    #[must_use]
    pub fn small() -> Self {
        TlbConfig { sets: 16, ways: 4 }
    }

    /// A minimal geometry for tests: 2 sets × 2 ways.
    #[must_use]
    pub fn tiny() -> Self {
        TlbConfig { sets: 2, ways: 2 }
    }

    /// `true` if `sets` is a power of two and both dimensions are nonzero.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.sets.is_power_of_two() && self.ways > 0
    }

    /// Total entry capacity.
    #[must_use]
    pub fn entries(&self) -> u32 {
        self.sets * self.ways
    }

    fn set_of(&self, vpn: u64) -> usize {
        (vpn & u64::from(self.sets - 1)) as usize
    }
}

/// One cached translation: `(pid, vpn) → phys_base` plus the CPU whose
/// hierarchy warmed the walk (the machine layer re-checks it on hit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Owning process identifier (raw; the machine layer's `Pid`).
    pub pid: u64,
    /// Virtual page number.
    pub vpn: u64,
    /// Physical base address of the mapped frame.
    pub phys_base: u64,
}

/// Aggregate TLB counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Total lookups.
    pub lookups: u64,
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries removed by explicit invalidation (shootdowns).
    pub invalidations: u64,
}

/// One set: entries ordered most-recently-used first (same discipline as
/// the cache model's sets).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct TlbSet {
    entries: Vec<TlbEntry>,
}

/// A set-associative, process-tagged TLB with per-set LRU replacement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tlb {
    config: TlbConfig,
    sets: Vec<TlbSet>,
    stats: TlbStats,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if `config.sets` is not a power of two or either dimension is
    /// zero.
    #[must_use]
    pub fn new(config: TlbConfig) -> Self {
        assert!(
            config.is_valid(),
            "TLB sets must be a nonzero power of two and ways nonzero: {config:?}"
        );
        Tlb {
            config,
            sets: vec![TlbSet::default(); config.sets as usize],
            stats: TlbStats::default(),
        }
    }

    /// The TLB geometry.
    #[must_use]
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Aggregate counters.
    #[must_use]
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Looks up `(pid, vpn)`, promoting a hit to most-recently-used.
    /// Returns the cached physical frame base.
    pub fn lookup(&mut self, pid: u64, vpn: u64) -> Option<u64> {
        self.stats.lookups += 1;
        let set = &mut self.sets[self.config.set_of(vpn)];
        match set
            .entries
            .iter()
            .position(|e| e.pid == pid && e.vpn == vpn)
        {
            Some(pos) => {
                self.stats.hits += 1;
                if pos != 0 {
                    set.entries[..=pos].rotate_right(1);
                }
                Some(set.entries[0].phys_base)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Counts one hit without a lookup. Only valid when the caller knows the
    /// entry is already its set's most-recently-used: [`Self::lookup`]
    /// would then find it at the front and change nothing but the counters.
    pub fn record_mru_hit(&mut self) {
        self.stats.lookups += 1;
        self.stats.hits += 1;
    }

    /// Installs (or refreshes) a translation, returning the entry evicted
    /// by capacity pressure, if any.
    pub fn insert(&mut self, pid: u64, vpn: u64, phys_base: u64) -> Option<TlbEntry> {
        let ways = self.config.ways as usize;
        let set = &mut self.sets[self.config.set_of(vpn)];
        // Refresh in place if already present (translation may have changed
        // after a remap).
        if let Some(pos) = set
            .entries
            .iter()
            .position(|e| e.pid == pid && e.vpn == vpn)
        {
            set.entries.remove(pos);
        }
        set.entries.insert(
            0,
            TlbEntry {
                pid,
                vpn,
                phys_base,
            },
        );
        if set.entries.len() > ways {
            self.stats.evictions += 1;
            set.entries.pop()
        } else {
            None
        }
    }

    /// Drops the entry for `(pid, vpn)` if present (single-page shootdown).
    pub fn invalidate(&mut self, pid: u64, vpn: u64) -> bool {
        let set = &mut self.sets[self.config.set_of(vpn)];
        match set
            .entries
            .iter()
            .position(|e| e.pid == pid && e.vpn == vpn)
        {
            Some(pos) => {
                set.entries.remove(pos);
                self.stats.invalidations += 1;
                true
            }
            None => false,
        }
    }

    /// Drops every entry for `pid` whose VPN lies in
    /// `[start_vpn, start_vpn + pages)` — the ranged shootdown an `munmap`
    /// issues. Entries of other processes (and of `pid` outside the range)
    /// survive, so their hit-rate statistics stay meaningful. Returns how
    /// many entries were removed.
    pub fn invalidate_range(&mut self, pid: u64, start_vpn: u64, pages: u64) -> usize {
        let end = start_vpn.saturating_add(pages);
        let mut removed = 0;
        for set in &mut self.sets {
            let before = set.entries.len();
            set.entries
                .retain(|e| e.pid != pid || e.vpn < start_vpn || e.vpn >= end);
            removed += before - set.entries.len();
        }
        self.stats.invalidations += removed as u64;
        removed
    }

    /// Drops every entry belonging to `pid` (address-space teardown).
    /// Returns how many were removed.
    pub fn invalidate_pid(&mut self, pid: u64) -> usize {
        let mut removed = 0;
        for set in &mut self.sets {
            let before = set.entries.len();
            set.entries.retain(|e| e.pid != pid);
            removed += before - set.entries.len();
        }
        self.stats.invalidations += removed as u64;
        removed
    }

    /// Empties the TLB (full flush, e.g. on restore from snapshot).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.entries.clear();
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.sets.iter().map(|s| s.entries.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert_and_pid_isolation() {
        let mut t = Tlb::new(TlbConfig::tiny());
        assert_eq!(t.lookup(1, 10), None);
        t.insert(1, 10, 0x4000);
        assert_eq!(t.lookup(1, 10), Some(0x4000));
        assert_eq!(t.lookup(2, 10), None);
        let s = t.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (3, 1, 2));
    }

    #[test]
    fn lru_evicts_least_recent_in_set() {
        let mut t = Tlb::new(TlbConfig::tiny()); // 2 sets × 2 ways
                                                 // vpns 0, 2, 4 all map to set 0.
        t.insert(1, 0, 0x1000);
        t.insert(1, 2, 0x2000);
        assert_eq!(t.lookup(1, 0), Some(0x1000)); // 0 is MRU, 2 is LRU
        let evicted = t.insert(1, 4, 0x3000);
        assert_eq!(
            evicted,
            Some(TlbEntry {
                pid: 1,
                vpn: 2,
                phys_base: 0x2000
            })
        );
        assert_eq!(t.lookup(1, 2), None);
        assert_eq!(t.lookup(1, 0), Some(0x1000));
        assert_eq!(t.lookup(1, 4), Some(0x3000));
    }

    #[test]
    fn recorded_mru_hit_equals_a_front_of_set_lookup() {
        let mut looked_up = Tlb::new(TlbConfig::tiny());
        looked_up.insert(1, 0, 0x1000);
        looked_up.insert(1, 2, 0x2000); // same set, now MRU
        let mut recorded = looked_up.clone();
        assert_eq!(looked_up.lookup(1, 2), Some(0x2000));
        recorded.record_mru_hit();
        assert_eq!(recorded, looked_up);
    }

    #[test]
    fn insert_refreshes_existing_translation() {
        let mut t = Tlb::new(TlbConfig::tiny());
        t.insert(1, 0, 0x1000);
        t.insert(1, 0, 0x9000); // remapped
        assert_eq!(t.lookup(1, 0), Some(0x9000));
        assert_eq!(t.resident(), 1);
    }

    #[test]
    fn invalidate_single_and_pid_wide() {
        let mut t = Tlb::new(TlbConfig::small());
        t.insert(1, 0, 0x1000);
        t.insert(1, 1, 0x2000);
        t.insert(2, 2, 0x3000);
        assert!(t.invalidate(1, 0));
        assert!(!t.invalidate(1, 0));
        assert_eq!(t.invalidate_pid(1), 1);
        assert_eq!(t.resident(), 1);
        assert_eq!(t.lookup(2, 2), Some(0x3000));
        assert_eq!(t.stats().invalidations, 2);
    }

    #[test]
    fn invalidate_range_is_pid_and_vpn_scoped() {
        let mut t = Tlb::new(TlbConfig::small());
        t.insert(1, 10, 0x1000);
        t.insert(1, 11, 0x2000);
        t.insert(1, 12, 0x3000);
        t.insert(2, 11, 0x4000); // other process, in-range vpn
        assert_eq!(t.invalidate_range(1, 10, 2), 2);
        assert_eq!(t.lookup(1, 10), None);
        assert_eq!(t.lookup(1, 11), None);
        assert_eq!(t.lookup(1, 12), Some(0x3000)); // outside the range
        assert_eq!(t.lookup(2, 11), Some(0x4000)); // other pid untouched
        assert_eq!(t.stats().invalidations, 2);
        // Empty and wrapping ranges are no-ops, not panics.
        assert_eq!(t.invalidate_range(1, 12, 0), 0);
        assert_eq!(t.invalidate_range(3, u64::MAX, 5), 0);
    }

    #[test]
    fn flush_empties_but_keeps_stats() {
        let mut t = Tlb::new(TlbConfig::small());
        t.insert(1, 0, 0x1000);
        t.lookup(1, 0);
        t.flush();
        assert_eq!(t.resident(), 0);
        assert_eq!(t.stats().hits, 1);
    }

    #[test]
    fn capacity_never_exceeded() {
        let cfg = TlbConfig::tiny();
        let mut t = Tlb::new(cfg);
        for vpn in 0..100 {
            t.insert(1, vpn, vpn * 0x1000);
        }
        assert!(t.resident() as u32 <= cfg.entries());
        assert!(t.stats().evictions > 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_config_panics() {
        let _ = Tlb::new(TlbConfig { sets: 3, ways: 2 });
    }
}
