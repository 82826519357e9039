//! Two-level inclusive cache hierarchy.

use crate::cache::{Cache, Lookup};
use crate::config::CacheConfig;

/// Where an access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedBy {
    /// Hit in the L1.
    L1,
    /// Missed L1, hit the last-level cache.
    Llc,
    /// Missed the whole hierarchy; the access reaches DRAM.
    Memory,
}

impl ServedBy {
    /// Simulated latency of a cache hit in nanoseconds, or `None` when the
    /// access reaches DRAM and the device's command timing decides.
    ///
    /// This is the authoritative hit latency for the machine's simulated
    /// clock; both levels currently charge the same flat cost (the model
    /// does not separate L1 from LLC service time).
    pub const fn hit_nanos(self) -> Option<u64> {
        match self {
            ServedBy::L1 | ServedBy::Llc => Some(2),
            ServedBy::Memory => None,
        }
    }
}

/// An inclusive L1 + LLC hierarchy.
///
/// Inclusivity is enforced on LLC evictions: a line evicted from the LLC is
/// back-invalidated from the L1, as on Intel parts — this is what makes
/// eviction-based Rowhammer (without `clflush`) possible at all.
///
/// # Examples
///
/// ```
/// use cachesim::{CacheHierarchy, ServedBy};
/// let mut h = CacheHierarchy::intel_like();
/// assert_eq!(h.access(0x2000), ServedBy::Memory);
/// assert_eq!(h.access(0x2000), ServedBy::L1);
/// h.clflush(0x2000);
/// assert_eq!(h.access(0x2000), ServedBy::Memory);
/// ```
///
/// A clone captures every resident line in both levels, their exact LRU
/// order and the per-level counters, so it serves the same
/// hit/miss/eviction sequence as the original. Each level keeps its sets
/// in copy-on-write blocks (see [`Cache`]): clones of a snapshot share
/// every block until they write one, and `clone_from` re-points only the
/// blocks that differ from the source:
///
/// ```
/// use cachesim::{CacheHierarchy, ServedBy};
/// let mut h = CacheHierarchy::tiny();
/// h.access(0x40);
/// let snap = h.clone();
/// h.clflush(0x40);
/// h.clone_from(&snap);
/// assert_eq!(h.access(0x40), ServedBy::L1);
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct CacheHierarchy {
    l1: Cache,
    llc: Cache,
}

impl Clone for CacheHierarchy {
    fn clone(&self) -> Self {
        CacheHierarchy {
            l1: self.l1.clone(),
            llc: self.llc.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.l1.clone_from(&source.l1);
        self.llc.clone_from(&source.llc);
    }
}

impl CacheHierarchy {
    /// Builds a hierarchy from explicit level configurations.
    ///
    /// # Panics
    ///
    /// Panics if either configuration is invalid or the line sizes differ.
    pub fn new(l1: CacheConfig, llc: CacheConfig) -> Self {
        assert_eq!(
            l1.line_bytes, llc.line_bytes,
            "L1 and LLC line sizes must match"
        );
        CacheHierarchy {
            l1: Cache::new(l1),
            llc: Cache::new(llc),
        }
    }

    /// A 32 KiB L1 + 8 MiB LLC stack, the shape of a desktop Intel part.
    pub fn intel_like() -> Self {
        Self::new(CacheConfig::l1_32k(), CacheConfig::llc_8m())
    }

    /// A toy two-level hierarchy for tests.
    pub fn tiny() -> Self {
        Self::new(
            CacheConfig::tiny(),
            CacheConfig {
                sets: 16,
                ways: 4,
                line_bytes: 64,
            },
        )
    }

    /// Performs a load/store lookup, installing the line on miss.
    pub fn access(&mut self, addr: u64) -> ServedBy {
        self.access_evicting(addr).0
    }

    /// [`Self::access`], also returning the line-aligned address of the
    /// line a full miss evicted from the LLC (and so back-invalidated from
    /// the L1), if any. The accessed line is its L1 set's most-recently-used
    /// afterwards whatever the outcome, and the evicted line is the only
    /// line of another L1 set the access can have removed — enough for a
    /// caller to keep track of which lines sit at the front of their sets.
    pub fn access_evicting(&mut self, addr: u64) -> (ServedBy, Option<u64>) {
        if matches!(self.l1.access(addr), Lookup::Hit) {
            return (ServedBy::L1, None);
        }
        match self.llc.access(addr) {
            Lookup::Hit => (ServedBy::Llc, None),
            Lookup::Miss { evicted } => {
                if let Some(line) = evicted {
                    // Inclusive hierarchy: back-invalidate the L1 copy.
                    self.l1.flush_line(line);
                }
                (ServedBy::Memory, evicted)
            }
        }
    }

    /// Where an [`Self::access`] of `addr` would be served from, without
    /// changing any line, LRU order or counter.
    pub fn served_by(&self, addr: u64) -> ServedBy {
        if self.l1.contains(addr) {
            ServedBy::L1
        } else if self.llc.contains(addr) {
            ServedBy::Llc
        } else {
            ServedBy::Memory
        }
    }

    /// Whether the line containing `addr` is its L1 set's most-recently-used
    /// line: an [`Self::access`] of it would then be an L1 hit that changes
    /// nothing but the hit counters. No state changes.
    pub fn is_l1_mru(&self, addr: u64) -> bool {
        self.l1.is_mru(addr)
    }

    /// Counts `n` L1 hits on lines the caller knows are their L1 sets'
    /// most-recently-used — the counter-only equivalent of `n`
    /// [`Self::access`] calls that return [`ServedBy::L1`] at the front of
    /// their sets.
    pub fn record_l1_mru_hits(&mut self, n: u64) {
        self.l1.record_mru_hits(n);
    }

    /// Flushes the line containing `addr` from every level (`clflush`).
    /// Returns `true` if it was present anywhere.
    pub fn clflush(&mut self, addr: u64) -> bool {
        let in_l1 = self.l1.flush_line(addr);
        let in_llc = self.llc.flush_line(addr);
        in_l1 || in_llc
    }

    /// Empties both levels.
    pub fn flush_all(&mut self) {
        self.l1.flush_all();
        self.llc.flush_all();
    }

    /// The L1 level.
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The last-level cache.
    pub fn llc(&self) -> &Cache {
        &self.llc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_levels_in_order() {
        let mut h = CacheHierarchy::tiny();
        assert_eq!(h.access(0), ServedBy::Memory);
        assert_eq!(h.access(0), ServedBy::L1);
        // Evict from L1 only (L1 set 0 has 2 ways; lines at stride 256
        // collide there while landing in distinct LLC sets).
        h.access(256);
        h.access(512);
        assert_eq!(h.access(0), ServedBy::Llc);
    }

    #[test]
    fn clflush_reaches_both_levels() {
        let mut h = CacheHierarchy::tiny();
        h.access(0x40);
        assert!(h.clflush(0x40));
        assert_eq!(h.access(0x40), ServedBy::Memory);
        assert!(!h.clflush(0x9999_0000));
    }

    #[test]
    fn llc_eviction_back_invalidates_l1() {
        let mut h = CacheHierarchy::tiny();
        // Fill one LLC set (4 ways) past capacity; stride = 16 sets * 64 B.
        let stride = 16 * 64u64;
        for i in 0..5u64 {
            h.access(i * stride);
        }
        // Line 0 was LRU in the LLC and must be gone from L1 as well.
        assert!(!h.llc().contains(0));
        assert!(!h.l1().contains(0));
        assert_eq!(h.access(0), ServedBy::Memory);
    }

    #[test]
    fn hammer_loop_without_flush_stops_reaching_dram() {
        // The paper's observation: without clflush the second and later
        // accesses are cache hits and never activate rows.
        let mut h = CacheHierarchy::intel_like();
        let (a, b) = (0x10_0000u64, 0x20_0000u64);
        assert_eq!(h.access(a), ServedBy::Memory);
        assert_eq!(h.access(b), ServedBy::Memory);
        for _ in 0..100 {
            assert_eq!(h.access(a), ServedBy::L1);
            assert_eq!(h.access(b), ServedBy::L1);
        }
    }

    #[test]
    fn hammer_loop_with_flush_always_reaches_dram() {
        let mut h = CacheHierarchy::intel_like();
        let (a, b) = (0x10_0000u64, 0x20_0000u64);
        for _ in 0..100 {
            assert_eq!(h.access(a), ServedBy::Memory);
            h.clflush(a);
            assert_eq!(h.access(b), ServedBy::Memory);
            h.clflush(b);
        }
    }

    #[test]
    fn flush_all_clears_both() {
        let mut h = CacheHierarchy::tiny();
        h.access(0);
        h.access(64);
        h.flush_all();
        assert_eq!(h.l1().resident_lines(), 0);
        assert_eq!(h.llc().resident_lines(), 0);
    }

    #[test]
    fn served_by_and_is_l1_mru_predict_access_without_changing_state() {
        // Lines colliding in the tiny L1 and LLC sets, revisited often
        // enough to exercise L1 hits (at the front and behind it), LLC hits
        // and full misses with back-invalidations.
        let mut h = CacheHierarchy::tiny();
        let mut x = 7u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let addr = (x >> 33) % 48 * 256 + (x >> 20) % 64;
            let before = h.clone();
            let predicted = h.served_by(addr);
            let front = h.is_l1_mru(addr);
            assert!(h == before, "a query changed the hierarchy");
            let (served, evicted) = h.access_evicting(addr);
            assert_eq!(served, predicted);
            if front {
                assert_eq!(served, ServedBy::L1);
            }
            if let Some(line) = evicted {
                assert_eq!(served, ServedBy::Memory);
                assert!(!h.l1().contains(line) && !h.llc().contains(line));
            }
            assert!(h.is_l1_mru(addr), "an access leaves its line at the front");
        }
    }

    #[test]
    #[should_panic(expected = "line sizes must match")]
    fn mismatched_line_sizes_panic() {
        CacheHierarchy::new(
            CacheConfig {
                sets: 4,
                ways: 2,
                line_bytes: 32,
            },
            CacheConfig::tiny(),
        );
    }
}
