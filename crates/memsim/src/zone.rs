//! Memory zones: a buddy allocator plus per-CPU page frame caches.

use std::fmt;

use crate::buddy::BuddyAllocator;
use crate::error::AllocError;
use crate::pcp::{PcpConfig, PerCpuPages};
use crate::types::{CpuId, Order, Pfn, PfnRange};

/// The zone types of an x86-64 Linux system (paper §III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ZoneKind {
    /// First 16 MiB — legacy DMA devices.
    Dma,
    /// 16 MiB – 4 GiB — 32-bit DMA plus general use.
    Dma32,
    /// Beyond 4 GiB — regularly mapped pages.
    Normal,
}

impl fmt::Display for ZoneKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZoneKind::Dma => write!(f, "ZONE_DMA"),
            ZoneKind::Dma32 => write!(f, "ZONE_DMA32"),
            ZoneKind::Normal => write!(f, "ZONE_NORMAL"),
        }
    }
}

/// Free-page watermarks (simplified `min`/`low`/`high`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermarks {
    /// Reserve below which only emergency allocations proceed.
    pub min: u64,
    /// Reclaim (kswapd) wake-up threshold.
    pub low: u64,
    /// Reclaim stop threshold.
    pub high: u64,
}

impl Watermarks {
    /// Derives watermarks from a zone size, following the kernel's shape
    /// (`low = min * 5/4`, `high = min * 3/2`).
    pub fn for_zone_pages(pages: u64) -> Self {
        let min = (pages / 256).max(8);
        Watermarks {
            min,
            low: min * 5 / 4,
            high: min * 3 / 2,
        }
    }
}

/// Counters for one zone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZoneStats {
    /// Allocations served (any path).
    pub allocs: u64,
    /// Frees received (any path).
    pub frees: u64,
    /// Order-0 allocations served straight from a pcp list.
    pub pcp_hits: u64,
    /// Bulk refills performed (pcp empty on allocation).
    pub pcp_refills: u64,
    /// Drain operations (watermark-driven or forced).
    pub pcp_drains: u64,
}

/// How a zone served (or absorbed) a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZonePath {
    /// Via the per-CPU page frame cache.
    PcpCache,
    /// Directly via the buddy allocator.
    Buddy,
}

/// Outcome of a successful zone allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneAlloc {
    /// The allocated block's first frame.
    pub pfn: Pfn,
    /// Which path served it.
    pub path: ZonePath,
    /// Frames bulk-refilled into the pcp list as part of this allocation.
    pub refilled: u32,
}

/// Outcome of a zone free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneFree {
    /// Order of the freed block.
    pub order: Order,
    /// Where the frame went.
    pub path: ZonePath,
    /// Frames drained from the pcp list back to the buddy as a side effect.
    pub drained: u32,
}

/// A memory zone: kind, span, buddy allocator, per-CPU lists, watermarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zone {
    kind: ZoneKind,
    buddy: BuddyAllocator,
    pcp: Vec<PerCpuPages>,
    /// Frames currently sitting in *some* pcp list — lets [`Zone::free`]
    /// reject double frees of pcp-resident frames, which the buddy metadata
    /// alone cannot see.
    in_pcp: std::collections::HashSet<u64>,
    watermarks: Watermarks,
    stats: ZoneStats,
}

impl Zone {
    /// Creates a zone spanning `span` with one pcp list per CPU.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    pub fn new(kind: ZoneKind, span: PfnRange, cpus: u32, pcp_config: PcpConfig) -> Self {
        assert!(cpus > 0, "a zone needs at least one CPU");
        Zone {
            kind,
            buddy: BuddyAllocator::new(span),
            pcp: (0..cpus).map(|_| PerCpuPages::new(pcp_config)).collect(),
            in_pcp: std::collections::HashSet::new(),
            watermarks: Watermarks::for_zone_pages(span.len()),
            stats: ZoneStats::default(),
        }
    }

    /// The zone's kind.
    pub fn kind(&self) -> ZoneKind {
        self.kind
    }

    /// The zone's frame span.
    pub fn span(&self) -> PfnRange {
        self.buddy.span()
    }

    /// The zone's watermarks.
    pub fn watermarks(&self) -> Watermarks {
        self.watermarks
    }

    /// Counters.
    pub fn stats(&self) -> ZoneStats {
        self.stats
    }

    /// The buddy allocator (read-only introspection).
    pub fn buddy(&self) -> &BuddyAllocator {
        &self.buddy
    }

    /// The pcp list of `cpu` (read-only introspection).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn pcp(&self, cpu: CpuId) -> &PerCpuPages {
        &self.pcp[cpu.0 as usize]
    }

    /// Frames free in this zone (buddy free lists plus all pcp lists).
    pub fn free_pages(&self) -> u64 {
        self.buddy.free_pages() + self.pcp.iter().map(|p| p.len() as u64).sum::<u64>()
    }

    /// Returns `true` if `pfn` belongs to this zone.
    pub fn contains(&self, pfn: Pfn) -> bool {
        self.span().contains(pfn)
    }

    /// Allocates `2^order` frames on behalf of `cpu`.
    ///
    /// Order-0 requests use the per-CPU fast path: pop the hottest cached
    /// frame, bulk-refilling `batch` frames from the buddy when the list is
    /// empty. Higher orders go straight to the buddy allocator.
    ///
    /// Returns `None` if the zone cannot satisfy the request.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn alloc(&mut self, cpu: CpuId, order: Order) -> Option<ZoneAlloc> {
        if order.0 == 0 {
            let list = &mut self.pcp[cpu.0 as usize];
            if let Some(pfn) = list.alloc() {
                self.in_pcp.remove(&pfn.0);
                self.stats.allocs += 1;
                self.stats.pcp_hits += 1;
                return Some(ZoneAlloc {
                    pfn,
                    path: ZonePath::PcpCache,
                    refilled: 0,
                });
            }
            // Empty list: bulk-refill `batch` order-0 frames from the buddy.
            let batch = list.config().batch;
            let mut refill = Vec::with_capacity(batch);
            for _ in 0..batch {
                match self.buddy.alloc(Order(0)) {
                    Some(p) => refill.push(p),
                    None => break,
                }
            }
            let refilled = refill.len() as u32;
            if refilled == 0 {
                return None;
            }
            self.stats.pcp_refills += 1;
            for f in &refill {
                self.in_pcp.insert(f.0);
            }
            let list = &mut self.pcp[cpu.0 as usize];
            list.refill(refill);
            let pfn = list.alloc().expect("refill put at least one frame");
            self.in_pcp.remove(&pfn.0);
            self.stats.allocs += 1;
            Some(ZoneAlloc {
                pfn,
                path: ZonePath::Buddy,
                refilled,
            })
        } else {
            let pfn = self.buddy.alloc(order)?;
            self.stats.allocs += 1;
            Some(ZoneAlloc {
                pfn,
                path: ZonePath::Buddy,
                refilled: 0,
            })
        }
    }

    /// Frees the block starting at `pfn` on behalf of `cpu`.
    ///
    /// Order-0 frames go to the head of the CPU's pcp list (hot); if the
    /// list exceeds its `high` watermark, a batch drains back to the buddy.
    /// Larger blocks go straight to the buddy and coalesce.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::NotAllocated`] if `pfn` is not a live block.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn free(&mut self, cpu: CpuId, pfn: Pfn) -> Result<ZoneFree, AllocError> {
        let order = self
            .buddy
            .allocated_order(pfn)
            .ok_or(AllocError::NotAllocated { pfn })?;
        if order.0 == 0 && self.in_pcp.contains(&pfn.0) {
            // The frame already sits in a pcp list: a double free.
            return Err(AllocError::NotAllocated { pfn });
        }
        self.stats.frees += 1;
        if order.0 == 0 {
            self.in_pcp.insert(pfn.0);
            let list = &mut self.pcp[cpu.0 as usize];
            list.free_hot(pfn);
            let mut drained = 0u32;
            if list.over_high() {
                self.stats.pcp_drains += 1;
                for frame in self.pcp[cpu.0 as usize].take_drain_batch() {
                    self.in_pcp.remove(&frame.0);
                    self.buddy
                        .free(frame)
                        .expect("pcp frames are buddy-allocated");
                    drained += 1;
                }
            }
            Ok(ZoneFree {
                order,
                path: ZonePath::PcpCache,
                drained,
            })
        } else {
            self.buddy.free(pfn)?;
            Ok(ZoneFree {
                order,
                path: ZonePath::Buddy,
                drained: 0,
            })
        }
    }

    /// Drains every frame of `cpu`'s pcp list back to the buddy (models CPU
    /// idle reclaim / `drain_pages`). Returns the number of frames drained.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn drain_pcp(&mut self, cpu: CpuId) -> u32 {
        let frames = self.pcp[cpu.0 as usize].take_all();
        let n = frames.len() as u32;
        if n > 0 {
            self.stats.pcp_drains += 1;
        }
        for f in frames {
            self.in_pcp.remove(&f.0);
            self.buddy.free(f).expect("pcp frames are buddy-allocated");
        }
        n
    }

    /// Drains every CPU's pcp list. Returns the total frames drained.
    pub fn drain_all_pcps(&mut self) -> u32 {
        (0..self.pcp.len() as u32)
            .map(|c| self.drain_pcp(CpuId(c)))
            .sum()
    }

    /// Number of CPUs this zone tracks.
    pub fn cpu_count(&self) -> u32 {
        self.pcp.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zone(pages: u64, cpus: u32) -> Zone {
        Zone::new(
            ZoneKind::Normal,
            PfnRange::new(Pfn(0), Pfn(pages)),
            cpus,
            PcpConfig::tiny(),
        )
    }

    #[test]
    fn order0_first_alloc_refills_batch() {
        let mut z = zone(64, 2);
        let out = z.alloc(CpuId(0), Order(0)).unwrap();
        assert_eq!(out.path, ZonePath::Buddy);
        // Tiny batch: one frame handed out, one left cached.
        assert_eq!(out.refilled, 2);
        assert_eq!(z.pcp(CpuId(0)).len(), 1);
        // Second allocation is a pcp hit.
        let out2 = z.alloc(CpuId(0), Order(0)).unwrap();
        assert_eq!(out2.path, ZonePath::PcpCache);
    }

    #[test]
    fn free_then_alloc_is_lifo_per_cpu() {
        let mut z = zone(64, 2);
        let a = z.alloc(CpuId(0), Order(0)).unwrap().pfn;
        z.free(CpuId(0), a).unwrap();
        let b = z.alloc(CpuId(0), Order(0)).unwrap();
        assert_eq!(b.pfn, a);
        assert_eq!(b.path, ZonePath::PcpCache);
    }

    #[test]
    fn cross_cpu_lists_are_independent() {
        let mut z = zone(64, 2);
        let a = z.alloc(CpuId(0), Order(0)).unwrap().pfn;
        z.free(CpuId(0), a).unwrap();
        // CPU 1 does not see CPU 0's hot frame on its own list.
        let b = z.alloc(CpuId(1), Order(0)).unwrap();
        assert_ne!(b.pfn, a);
        assert!(z.pcp(CpuId(0)).contains(a));
    }

    #[test]
    fn high_order_bypasses_pcp() {
        let mut z = zone(64, 1);
        let out = z.alloc(CpuId(0), Order(3)).unwrap();
        assert_eq!(out.path, ZonePath::Buddy);
        assert_eq!(z.pcp(CpuId(0)).len(), 0);
        let fr = z.free(CpuId(0), out.pfn).unwrap();
        assert_eq!(fr.path, ZonePath::Buddy);
    }

    #[test]
    fn over_high_free_drains_batch_to_buddy() {
        let mut z = zone(64, 1);
        // Allocate 8 singles, then free them all: high=6 ⇒ a drain happens.
        let frames: Vec<Pfn> = (0..8)
            .map(|_| z.alloc(CpuId(0), Order(0)).unwrap().pfn)
            .collect();
        let mut total_drained = 0;
        for f in &frames {
            total_drained += z.free(CpuId(0), *f).unwrap().drained;
        }
        assert!(total_drained > 0);
        assert!(z.pcp(CpuId(0)).len() <= 7);
        z.buddy().check_invariants().unwrap();
        assert_eq!(z.free_pages(), 64);
    }

    #[test]
    fn drain_pcp_returns_frames_to_buddy() {
        let mut z = zone(64, 1);
        let a = z.alloc(CpuId(0), Order(0)).unwrap().pfn;
        z.free(CpuId(0), a).unwrap();
        let cached = z.pcp(CpuId(0)).len() as u32;
        assert!(cached >= 1);
        let drained = z.drain_pcp(CpuId(0));
        assert_eq!(drained, cached);
        assert_eq!(z.pcp(CpuId(0)).len(), 0);
        assert_eq!(z.free_pages(), 64);
        z.buddy().check_invariants().unwrap();
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut z = zone(4, 1);
        let mut got = Vec::new();
        while let Some(o) = z.alloc(CpuId(0), Order(0)) {
            got.push(o.pfn);
        }
        assert_eq!(got.len(), 4);
        assert!(z.alloc(CpuId(0), Order(0)).is_none());
    }

    #[test]
    fn watermarks_scale_with_size() {
        let w = Watermarks::for_zone_pages(65536);
        assert!(w.min < w.low && w.low < w.high);
        assert_eq!(w.min, 256);
    }

    #[test]
    fn frame_conservation_under_mixed_traffic() {
        let mut z = zone(256, 2);
        let mut live = Vec::new();
        for i in 0..100u32 {
            let cpu = CpuId(i % 2);
            if i % 3 != 2 {
                if let Some(o) = z.alloc(cpu, Order((i % 2) as u8)) {
                    live.push(o.pfn);
                }
            } else if let Some(p) = live.pop() {
                z.free(cpu, p).unwrap();
            }
        }
        for p in live.drain(..) {
            z.free(CpuId(0), p).unwrap();
        }
        z.drain_all_pcps();
        assert_eq!(z.free_pages(), 256);
        z.buddy().check_invariants().unwrap();
    }
}
