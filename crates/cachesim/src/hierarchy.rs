//! Two-level inclusive cache hierarchy.

use std::sync::Arc;

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
    /// Returns `true` if the access reached DRAM (and therefore activates a
    /// row — the hammering-relevant case).
    pub const fn reaches_dram(self) -> bool {
        matches!(self, ServedBy::Memory)
    }

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheHierarchy {
    l1: Cache,
    llc: Cache,
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
        if matches!(self.l1.access(addr), Lookup::Hit) {
            return ServedBy::L1;
        }
        match self.llc.access(addr) {
            Lookup::Hit => ServedBy::Llc,
            Lookup::Miss { evicted } => {
                if let Some(line) = evicted {
                    // Inclusive hierarchy: back-invalidate the L1 copy.
                    self.l1.flush_line(line);
                }
                ServedBy::Memory
            }
        }
    }

    /// Counts one L1 hit on a line the caller knows is its L1 set's
    /// most-recently-used — the counter-only equivalent of an
    /// [`Self::access`] that returns [`ServedBy::L1`] at the front of the set.
    pub fn record_l1_mru_hit(&mut self) {
        self.l1.record_mru_hit();
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

    // ------------------------------------------------------------------
    // Snapshot / restore
    // ------------------------------------------------------------------

    /// Captures both levels' resident lines, LRU order, and counters as a
    /// [`HierarchySnapshot`].
    pub fn snapshot(&self) -> HierarchySnapshot {
        HierarchySnapshot {
            inner: Arc::new(self.clone()),
        }
    }

    /// Rewinds this hierarchy to `snapshot`'s state.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a hierarchy with different level
    /// geometry.
    pub fn restore(&mut self, snapshot: &HierarchySnapshot) {
        assert_eq!(
            (self.l1.config(), self.llc.config()),
            (snapshot.inner.l1.config(), snapshot.inner.llc.config()),
            "snapshot is from a differently configured hierarchy"
        );
        *self = (*snapshot.inner).clone();
    }
}

/// A point-in-time capture of a [`CacheHierarchy`]: every resident line in
/// both levels, their exact LRU order, and the per-level counters. A
/// restored or forked hierarchy serves the same hit/miss/eviction sequence
/// as the original.
///
/// # Examples
///
/// ```
/// use cachesim::{CacheHierarchy, ServedBy};
/// let mut h = CacheHierarchy::tiny();
/// h.access(0x40);
/// let snap = h.snapshot();
/// h.clflush(0x40);
/// h.restore(&snap);
/// assert_eq!(h.access(0x40), ServedBy::L1);
/// let mut fork = snap.to_hierarchy();
/// assert_eq!(fork.access(0x40), ServedBy::L1);
/// ```
#[derive(Debug, Clone)]
pub struct HierarchySnapshot {
    // Shared immutably: cloning a snapshot (as machine fork/restore does in
    // the inner trial loop) must not copy ~8k cache sets, and comparing two
    // clones of one snapshot must not walk them either.
    inner: Arc<CacheHierarchy>,
}

impl PartialEq for HierarchySnapshot {
    fn eq(&self, other: &Self) -> bool {
        // Snapshots taken from the same capture share one allocation, so
        // the common no-divergence comparison short-circuits on identity.
        Arc::ptr_eq(&self.inner, &other.inner) || self.inner == other.inner
    }
}

impl Eq for HierarchySnapshot {}

impl HierarchySnapshot {
    /// Builds a fresh, independent hierarchy in this snapshot's state (the
    /// fork operation).
    pub fn to_hierarchy(&self) -> CacheHierarchy {
        (*self.inner).clone()
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
