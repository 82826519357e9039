//! The buddy allocator — Linux's core physical page allocator.
//!
//! Free memory is kept as power-of-two blocks on per-order free lists. An
//! allocation that cannot be served at its order splits the next larger
//! block in half ("buddies"); a free coalesces with its buddy whenever the
//! buddy is also free, restoring larger blocks. This is the paper's Figure 1
//! and the external-fragmentation defence described in §IV.

use std::collections::BTreeSet;

use perf::FastMap;

use crate::error::AllocError;
use crate::types::{Order, Pfn, PfnRange, MAX_ORDER};

/// Counters exposed by [`BuddyAllocator::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuddyStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Frees.
    pub frees: u64,
    /// Block splits performed while allocating.
    pub splits: u64,
    /// Buddy coalescing merges performed while freeing.
    pub merges: u64,
}

/// A buddy allocator over a frame range.
///
/// Free blocks are tracked per order in address-sorted sets, so allocation is
/// deterministic (lowest-address block first). Allocated block orders are
/// remembered, which lets [`BuddyAllocator::free`] find the block size itself
/// and lets the invariant checker detect double frees — stricter than the
/// kernel, appropriate for a simulator.
///
/// # Examples
///
/// ```
/// use memsim::{BuddyAllocator, Order, Pfn, PfnRange};
///
/// # fn main() -> Result<(), memsim::AllocError> {
/// let mut b = BuddyAllocator::new(PfnRange::new(Pfn(0), Pfn(1024)));
/// let block = b.alloc(Order(3)).expect("1024 free frames");
/// assert!(block.is_aligned(Order(3)));
/// b.free(block)?;
/// assert_eq!(b.free_pages(), 1024);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuddyAllocator {
    span: PfnRange,
    free_lists: Vec<BTreeSet<u64>>,
    allocated: FastMap<u64, Order>,
    free_pages: u64,
    stats: BuddyStats,
}

impl BuddyAllocator {
    /// Creates an allocator with every frame in `span` free.
    pub fn new(span: PfnRange) -> Self {
        let mut b = BuddyAllocator {
            span,
            free_lists: vec![BTreeSet::new(); MAX_ORDER as usize + 1],
            allocated: FastMap::default(),
            free_pages: 0,
            stats: BuddyStats::default(),
        };
        // Seed the free lists with maximal naturally-aligned blocks.
        let mut pfn = span.start.0;
        while pfn < span.end.0 {
            let align = if pfn == 0 {
                MAX_ORDER
            } else {
                pfn.trailing_zeros().min(MAX_ORDER as u32) as u8
            };
            let mut order = align;
            while pfn + (1u64 << order) > span.end.0 {
                order -= 1;
            }
            b.free_lists[order as usize].insert(pfn);
            b.free_pages += 1u64 << order;
            pfn += 1u64 << order;
        }
        b
    }

    /// The managed frame range.
    pub fn span(&self) -> PfnRange {
        self.span
    }

    /// Frames currently free.
    pub fn free_pages(&self) -> u64 {
        self.free_pages
    }

    /// Free blocks currently on the `order` free list.
    ///
    /// # Panics
    ///
    /// Panics if `order` exceeds [`MAX_ORDER`].
    pub fn free_blocks(&self, order: Order) -> usize {
        self.free_lists[order.0 as usize].len()
    }

    /// Counters.
    pub fn stats(&self) -> BuddyStats {
        self.stats
    }

    /// Order of the allocated block starting at `pfn`, if any.
    pub fn allocated_order(&self, pfn: Pfn) -> Option<Order> {
        self.allocated.get(&pfn.0).copied()
    }

    /// Allocates a block of `2^order` frames, splitting larger blocks as
    /// needed. Returns `None` if no block of sufficient size is free.
    ///
    /// # Panics
    ///
    /// Panics if `order` exceeds [`MAX_ORDER`].
    pub fn alloc(&mut self, order: Order) -> Option<Pfn> {
        assert!(order.0 <= MAX_ORDER, "order {order} exceeds MAX_ORDER");
        // Find the smallest order ≥ requested with a free block.
        let found = (order.0..=MAX_ORDER).find(|&o| !self.free_lists[o as usize].is_empty())?;
        let pfn = *self.free_lists[found as usize]
            .iter()
            .next()
            .expect("non-empty list");
        self.free_lists[found as usize].remove(&pfn);

        // Split down to the requested order; the upper halves go back free.
        let mut current = found;
        while current > order.0 {
            current -= 1;
            let upper_half = pfn + (1u64 << current);
            self.free_lists[current as usize].insert(upper_half);
            self.stats.splits += 1;
        }

        self.allocated.insert(pfn, order);
        self.free_pages -= order.pages();
        self.stats.allocs += 1;
        Some(Pfn(pfn))
    }

    /// Frees the block starting at `pfn`, coalescing with free buddies.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::NotAllocated`] if `pfn` is not the start of a
    /// live allocation (catches double frees and mid-block frees).
    pub fn free(&mut self, pfn: Pfn) -> Result<(), AllocError> {
        let order = self
            .allocated
            .remove(&pfn.0)
            .ok_or(AllocError::NotAllocated { pfn })?;
        self.free_pages += order.pages();
        self.stats.frees += 1;

        // Coalesce upward while the buddy is free at the same order.
        let mut block = pfn.0;
        let mut order = order.0;
        while order < MAX_ORDER {
            let buddy = block ^ (1u64 << order);
            // The buddy must be inside the span and free at exactly `order`.
            if !self.span.contains(Pfn(buddy)) || !self.free_lists[order as usize].remove(&buddy) {
                break;
            }
            self.stats.merges += 1;
            block = block.min(buddy);
            order += 1;
        }
        self.free_lists[order as usize].insert(block);
        Ok(())
    }

    /// Splits an allocated high-order block into `2^order` individually
    /// allocated order-0 frames (used by the pcp bulk-refill path, which
    /// hands out single frames carved from one buddy block).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::NotAllocated`] if `pfn` is not a live block.
    pub fn split_to_singles(&mut self, pfn: Pfn) -> Result<Vec<Pfn>, AllocError> {
        let order = self
            .allocated
            .remove(&pfn.0)
            .ok_or(AllocError::NotAllocated { pfn })?;
        let frames: Vec<Pfn> = (0..order.pages()).map(|i| Pfn(pfn.0 + i)).collect();
        for f in &frames {
            self.allocated.insert(f.0, Order(0));
        }
        Ok(frames)
    }

    /// Verifies internal consistency; used heavily by property tests.
    ///
    /// Checks: free lists hold aligned, in-span, non-overlapping blocks; no
    /// block is both free and allocated; accounting adds up; and no two free
    /// buddies coexist (canonical coalesced form).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut covered = BTreeSet::new();
        let mut free_count = 0u64;
        for order in 0..=MAX_ORDER {
            for &block in &self.free_lists[order as usize] {
                let o = Order(order);
                if !Pfn(block).is_aligned(o) {
                    return Err(format!("free block {block:#x} misaligned at {o}"));
                }
                if !self.span.contains(Pfn(block)) || block + o.pages() > self.span.end.0 {
                    return Err(format!("free block {block:#x} ({o}) outside span"));
                }
                for f in block..block + o.pages() {
                    if !covered.insert(f) {
                        return Err(format!("frame {f:#x} on multiple free blocks"));
                    }
                    if self.allocated.contains_key(&f) && f == block {
                        return Err(format!("frame {f:#x} both free and allocated"));
                    }
                }
                free_count += o.pages();
                // Canonical form: the buddy must not also be free at `order`
                // (they would have been merged), unless order is MAX_ORDER.
                if order < MAX_ORDER {
                    let buddy = block ^ (1u64 << order);
                    if self.free_lists[order as usize].contains(&buddy) {
                        return Err(format!(
                            "free buddies {block:#x}/{buddy:#x} not merged at {o}"
                        ));
                    }
                }
            }
        }
        if free_count != self.free_pages {
            return Err(format!(
                "free accounting mismatch: counted {free_count}, recorded {}",
                self.free_pages
            ));
        }
        for (&start, &order) in &self.allocated {
            for f in start..start + order.pages() {
                if covered.contains(&f) {
                    return Err(format!("allocated frame {f:#x} also on a free list"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(pages: u64) -> BuddyAllocator {
        BuddyAllocator::new(PfnRange::new(Pfn(0), Pfn(pages)))
    }

    #[test]
    fn initial_state_is_maximal_blocks() {
        let b = fresh(4096);
        assert_eq!(b.free_pages(), 4096);
        assert_eq!(b.free_blocks(Order(MAX_ORDER)), 4);
        b.check_invariants().unwrap();
    }

    #[test]
    fn unaligned_span_is_covered() {
        let b = BuddyAllocator::new(PfnRange::new(Pfn(3), Pfn(1000)));
        assert_eq!(b.free_pages(), 997);
        b.check_invariants().unwrap();
    }

    #[test]
    fn alloc_splits_and_free_coalesces() {
        let mut b = fresh(1024);
        let p = b.alloc(Order(0)).unwrap();
        // One 1024-block split into 512+256+...+1: ten splits.
        assert_eq!(b.stats().splits, 10);
        b.check_invariants().unwrap();
        b.free(p).unwrap();
        // Everything merges back to a single MAX_ORDER block.
        assert_eq!(b.stats().merges, 10);
        assert_eq!(b.free_blocks(Order(10)), 1);
        b.check_invariants().unwrap();
    }

    #[test]
    fn alloc_returns_aligned_blocks() {
        let mut b = fresh(4096);
        for order in [0u8, 1, 3, 5, 10] {
            let p = b.alloc(Order(order)).unwrap();
            assert!(
                p.is_aligned(Order(order)),
                "{p} not aligned to order {order}"
            );
        }
        b.check_invariants().unwrap();
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut b = fresh(4);
        assert!(b.alloc(Order(2)).is_some());
        assert!(b.alloc(Order(0)).is_none());
    }

    #[test]
    fn double_free_is_detected() {
        let mut b = fresh(16);
        let p = b.alloc(Order(1)).unwrap();
        b.free(p).unwrap();
        assert_eq!(b.free(p), Err(AllocError::NotAllocated { pfn: p }));
    }

    #[test]
    fn mid_block_free_is_rejected() {
        let mut b = fresh(16);
        let p = b.alloc(Order(2)).unwrap();
        let inner = Pfn(p.0 + 1);
        assert_eq!(b.free(inner), Err(AllocError::NotAllocated { pfn: inner }));
    }

    #[test]
    fn free_pages_accounting() {
        let mut b = fresh(256);
        let p1 = b.alloc(Order(4)).unwrap();
        let p2 = b.alloc(Order(0)).unwrap();
        assert_eq!(b.free_pages(), 256 - 16 - 1);
        b.free(p1).unwrap();
        b.free(p2).unwrap();
        assert_eq!(b.free_pages(), 256);
        b.check_invariants().unwrap();
    }

    #[test]
    fn split_to_singles_carves_block() {
        let mut b = fresh(64);
        let p = b.alloc(Order(3)).unwrap();
        let singles = b.split_to_singles(p).unwrap();
        assert_eq!(singles.len(), 8);
        for (i, f) in singles.iter().enumerate() {
            assert_eq!(f.0, p.0 + i as u64);
            assert_eq!(b.allocated_order(*f), Some(Order(0)));
        }
        // Each single can be freed independently and coalesces back.
        for f in singles {
            b.free(f).unwrap();
        }
        assert_eq!(b.free_pages(), 64);
        b.check_invariants().unwrap();
    }

    #[test]
    fn fragmentation_then_recovery() {
        // The 1 MiB request walk-through from the paper's §IV: allocate many
        // small blocks, free them, and confirm large blocks reappear.
        let mut b = fresh(1024);
        let frames: Vec<Pfn> = (0..512).map(|_| b.alloc(Order(0)).unwrap()).collect();
        assert!(
            b.alloc(Order(10)).is_none(),
            "large block should be unavailable"
        );
        for f in frames {
            b.free(f).unwrap();
        }
        assert!(
            b.alloc(Order(10)).is_some(),
            "coalescing should restore a 4 MiB block"
        );
    }

    #[test]
    fn lowest_address_first_allocation() {
        let mut b = fresh(64);
        let p1 = b.alloc(Order(0)).unwrap();
        let p2 = b.alloc(Order(0)).unwrap();
        assert!(p1 < p2);
    }
}
