//! The zoned page frame allocator front end (paper Figure 2).
//!
//! `alloc_pages` walks the zonelist implied by the request's [`GfpFlags`],
//! letting each zone try its per-CPU fast path / buddy allocator; when every
//! zone fails, it runs a direct-reclaim pass (draining all pcp lists, the
//! simulator's kswapd stand-in) and retries once.

use std::collections::BTreeSet;

use crate::error::AllocError;
use crate::gfp::GfpFlags;
use crate::pcp::PcpConfig;
use crate::trace::{EventKind, ServedFrom, TraceLog};
use crate::types::{CpuId, FrameKind, Order, Pfn, PfnRange, MAX_ORDER, PAGE_SIZE};
use crate::zone::{Zone, ZoneKind, ZonePath};

/// Machine memory layout configuration.
///
/// # Examples
///
/// ```
/// use memsim::MemConfig;
/// let cfg = MemConfig::small_256mib();
/// assert_eq!(cfg.total_bytes, 256 << 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Total physical memory in bytes (must be a multiple of [`PAGE_SIZE`]).
    pub total_bytes: u64,
    /// Number of logical CPUs.
    pub cpus: u32,
    /// Per-CPU page list tuning.
    pub pcp: PcpConfig,
    /// Trace ring capacity.
    pub trace_capacity: usize,
}

impl MemConfig {
    /// 256 MiB, 4 CPUs — matches the small DRAM preset.
    pub const fn small_256mib() -> Self {
        MemConfig {
            total_bytes: 256 << 20,
            cpus: 4,
            pcp: PcpConfig::linux_default(),
            trace_capacity: 65536,
        }
    }

    /// 1 GiB, 4 CPUs.
    pub const fn medium_1gib() -> Self {
        MemConfig {
            total_bytes: 1 << 30,
            ..Self::small_256mib()
        }
    }

    /// 4 GiB, 4 CPUs.
    pub const fn desktop_4gib() -> Self {
        MemConfig {
            total_bytes: 4 << 30,
            ..Self::small_256mib()
        }
    }

    /// Returns a copy with different pcp tuning.
    pub fn with_pcp(mut self, pcp: PcpConfig) -> Self {
        self.pcp = pcp;
        self
    }

    /// Total page frames.
    pub const fn total_pages(&self) -> u64 {
        self.total_bytes / PAGE_SIZE
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        Self::desktop_4gib()
    }
}

/// Splits `[0, total_pages)` into the x86-64 zone layout (paper §III).
fn zone_layout(total_pages: u64) -> Vec<(ZoneKind, PfnRange)> {
    const DMA_END: u64 = (16 << 20) / PAGE_SIZE; // 16 MiB
    const DMA32_END: u64 = (4u64 << 30) / PAGE_SIZE; // 4 GiB
    let mut zones = Vec::new();
    let dma_end = total_pages.min(DMA_END);
    if dma_end > 0 {
        zones.push((ZoneKind::Dma, PfnRange::new(Pfn(0), Pfn(dma_end))));
    }
    if total_pages > DMA_END {
        let end = total_pages.min(DMA32_END);
        zones.push((ZoneKind::Dma32, PfnRange::new(Pfn(DMA_END), Pfn(end))));
    }
    if total_pages > DMA32_END {
        zones.push((
            ZoneKind::Normal,
            PfnRange::new(Pfn(DMA32_END), Pfn(total_pages)),
        ));
    }
    zones
}

/// The zoned page frame allocator: zones + zonelist + reclaim + trace.
///
/// This is the simulator's equivalent of the structure in the paper's
/// Figure 2: one node holding `ZONE_DMA`/`ZONE_DMA32`/`ZONE_NORMAL`, each
/// zone pairing a buddy allocator with per-CPU page frame caches.
///
/// A clone captures every zone's buddy free lists and allocated-block
/// metadata, each CPU's page frame cache in LIFO order, watermarks,
/// counters and the event trace, so it serves the same frame sequence as
/// the original:
///
/// ```
/// use memsim::{CpuId, MemConfig, Order, ZonedAllocator};
/// let mut a = ZonedAllocator::new(MemConfig::small_256mib());
/// let p = a.alloc_pages(CpuId(0), Order(0)).unwrap();
/// a.free_pages(CpuId(0), p).unwrap();
/// let mut fork = a.clone();
/// // Both replay the LIFO reuse identically.
/// assert_eq!(a.alloc_pages(CpuId(0), Order(0)), fork.alloc_pages(CpuId(0), Order(0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZonedAllocator {
    config: MemConfig,
    zones: Vec<Zone>,
    trace: TraceLog,
    /// Block-start frames currently allocated as [`FrameKind::PageTable`].
    /// Only table frames are recorded — ordinary data allocations leave
    /// this set (and therefore allocator equality) untouched.
    table_frames: BTreeSet<Pfn>,
}

impl ZonedAllocator {
    /// Builds the allocator with every frame free.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero memory or CPUs).
    pub fn new(config: MemConfig) -> Self {
        assert!(
            config.total_bytes >= PAGE_SIZE,
            "need at least one page of memory"
        );
        assert!(config.cpus > 0, "need at least one CPU");
        let zones = zone_layout(config.total_pages())
            .into_iter()
            .map(|(kind, span)| Zone::new(kind, span, config.cpus, config.pcp))
            .collect();
        ZonedAllocator {
            config,
            zones,
            trace: TraceLog::new(config.trace_capacity),
            table_frames: BTreeSet::new(),
        }
    }

    /// The configuration this allocator was built from.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Number of CPUs.
    pub fn cpu_count(&self) -> u32 {
        self.config.cpus
    }

    /// The zones, lowest first (introspection / Figure 2 dumps).
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// The zone of a given kind, if the layout includes it.
    pub fn zone(&self, kind: ZoneKind) -> Option<&Zone> {
        self.zones.iter().find(|z| z.kind() == kind)
    }

    /// The event trace.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Mutable access to the event trace (enable/disable/clear).
    pub fn trace_mut(&mut self) -> &mut TraceLog {
        &mut self.trace
    }

    /// Total free frames across all zones.
    pub fn total_free_pages(&self) -> u64 {
        self.zones.iter().map(|z| z.free_pages()).sum()
    }

    /// Allocates `2^order` frames for `cpu` with default (normal) flags.
    ///
    /// # Errors
    ///
    /// See [`Self::alloc_pages_with`].
    pub fn alloc_pages(&mut self, cpu: CpuId, order: Order) -> Result<Pfn, AllocError> {
        self.alloc_pages_with(cpu, order, GfpFlags::normal())
    }

    /// Allocates `2^order` frames for `cpu`, walking the zonelist implied by
    /// `gfp`; on failure drains all pcp lists (direct reclaim) and retries.
    ///
    /// # Errors
    ///
    /// * [`AllocError::OrderTooLarge`] if `order` exceeds [`MAX_ORDER`].
    /// * [`AllocError::OutOfMemory`] if no zone can satisfy the request even
    ///   after reclaim.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range for the configuration.
    pub fn alloc_pages_with(
        &mut self,
        cpu: CpuId,
        order: Order,
        gfp: GfpFlags,
    ) -> Result<Pfn, AllocError> {
        if order.0 > MAX_ORDER {
            return Err(AllocError::OrderTooLarge { order });
        }
        assert!(cpu.0 < self.config.cpus, "cpu {cpu} out of range");
        if let Some(pfn) = self.try_zonelist(cpu, order, gfp) {
            return Ok(pfn);
        }
        // Direct reclaim: drain every pcp list and retry once.
        self.reclaim(cpu);
        self.try_zonelist(cpu, order, gfp)
            .ok_or(AllocError::OutOfMemory { order })
    }

    /// [`Self::alloc_pages`] with an explicit [`FrameKind`] tag: a
    /// `PageTable` allocation is recorded so the frame can later be
    /// recognised as kernel-owned (and the tag dropped again on free).
    ///
    /// # Errors
    ///
    /// See [`Self::alloc_pages_with`].
    pub fn alloc_pages_kind(
        &mut self,
        cpu: CpuId,
        order: Order,
        kind: FrameKind,
    ) -> Result<Pfn, AllocError> {
        let pfn = self.alloc_pages(cpu, order)?;
        if kind == FrameKind::PageTable {
            self.table_frames.insert(pfn);
        }
        Ok(pfn)
    }

    /// What the live block starting at `pfn` was allocated to hold.
    /// Untagged (or free) frames report [`FrameKind::Data`].
    pub fn frame_kind(&self, pfn: Pfn) -> FrameKind {
        if self.table_frames.contains(&pfn) {
            FrameKind::PageTable
        } else {
            FrameKind::Data
        }
    }

    /// Number of live page-table frames.
    pub fn table_frame_count(&self) -> usize {
        self.table_frames.len()
    }

    /// Iterates over live page-table block-start frames in ascending order.
    pub fn table_frames(&self) -> impl Iterator<Item = Pfn> + '_ {
        self.table_frames.iter().copied()
    }

    fn try_zonelist(&mut self, cpu: CpuId, order: Order, gfp: GfpFlags) -> Option<Pfn> {
        for kind in gfp.zonelist() {
            let Some(idx) = self.zones.iter().position(|z| z.kind() == kind) else {
                continue;
            };
            if let Some(out) = self.zones[idx].alloc(cpu, order) {
                if out.refilled > 0 {
                    self.trace.record(
                        cpu,
                        kind,
                        EventKind::PcpRefill {
                            count: out.refilled,
                        },
                    );
                }
                let served = match out.path {
                    ZonePath::PcpCache => ServedFrom::PcpCache,
                    ZonePath::Buddy => ServedFrom::Buddy,
                };
                self.trace.record(
                    cpu,
                    kind,
                    EventKind::Alloc {
                        pfn: out.pfn,
                        order,
                        served,
                    },
                );
                return Some(out.pfn);
            }
        }
        None
    }

    /// Frees the block starting at `pfn` on behalf of `cpu`.
    ///
    /// # Errors
    ///
    /// * [`AllocError::UnknownFrame`] if `pfn` is outside every zone.
    /// * [`AllocError::NotAllocated`] if the frame is not a live block start.
    pub fn free_pages(&mut self, cpu: CpuId, pfn: Pfn) -> Result<(), AllocError> {
        let idx = self
            .zones
            .iter()
            .position(|z| z.contains(pfn))
            .ok_or(AllocError::UnknownFrame { pfn })?;
        let kind = self.zones[idx].kind();
        let out = self.zones[idx].free(cpu, pfn)?;
        self.table_frames.remove(&pfn);
        let to = match out.path {
            ZonePath::PcpCache => ServedFrom::PcpCache,
            ZonePath::Buddy => ServedFrom::Buddy,
        };
        self.trace.record(
            cpu,
            kind,
            EventKind::Free {
                pfn,
                order: out.order,
                to,
            },
        );
        if out.drained > 0 {
            self.trace
                .record(cpu, kind, EventKind::PcpDrain { count: out.drained });
        }
        Ok(())
    }

    /// Drains all per-CPU lists in all zones (direct reclaim / kswapd pass).
    pub fn reclaim(&mut self, cpu: CpuId) {
        for idx in 0..self.zones.len() {
            let kind = self.zones[idx].kind();
            let n = self.zones[idx].drain_all_pcps();
            if n > 0 {
                self.trace
                    .record(cpu, kind, EventKind::PcpDrain { count: n });
            }
        }
        self.trace.record(cpu, ZoneKind::Normal, EventKind::Reclaim);
    }

    /// Drains `cpu`'s pcp lists in all zones — models the kernel reclaiming
    /// a sleeping/idle CPU's cached frames (the paper's "must remain active"
    /// condition in §V).
    pub fn drain_cpu(&mut self, cpu: CpuId) -> u32 {
        let mut total = 0;
        for idx in 0..self.zones.len() {
            let kind = self.zones[idx].kind();
            let n = self.zones[idx].drain_pcp(cpu);
            if n > 0 {
                self.trace
                    .record(cpu, kind, EventKind::PcpDrain { count: n });
            }
            total += n;
        }
        total
    }

    /// Returns which zone kind holds `pfn`, if any.
    pub fn zone_of(&self, pfn: Pfn) -> Option<ZoneKind> {
        self.zones
            .iter()
            .find(|z| z.contains(pfn))
            .map(|z| z.kind())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_small_machine_has_no_normal_zone() {
        let zones = zone_layout(MemConfig::small_256mib().total_pages());
        let kinds: Vec<ZoneKind> = zones.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds, vec![ZoneKind::Dma, ZoneKind::Dma32]);
    }

    #[test]
    fn layout_big_machine_has_all_zones() {
        let zones = zone_layout((8u64 << 30) / PAGE_SIZE);
        let kinds: Vec<ZoneKind> = zones.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            kinds,
            vec![ZoneKind::Dma, ZoneKind::Dma32, ZoneKind::Normal]
        );
        // Spans tile the whole range without gaps.
        assert_eq!(zones[0].1.end, zones[1].1.start);
        assert_eq!(zones[1].1.end, zones[2].1.start);
        assert_eq!(zones[2].1.end.0, (8u64 << 30) / PAGE_SIZE);
    }

    #[test]
    fn normal_request_falls_back_to_dma32_on_small_machine() {
        let mut a = ZonedAllocator::new(MemConfig::small_256mib());
        let pfn = a.alloc_pages(CpuId(0), Order(0)).unwrap();
        assert_eq!(a.zone_of(pfn), Some(ZoneKind::Dma32));
    }

    #[test]
    fn dma_request_stays_in_dma() {
        let mut a = ZonedAllocator::new(MemConfig::small_256mib());
        let pfn = a
            .alloc_pages_with(CpuId(0), Order(0), GfpFlags::dma())
            .unwrap();
        assert_eq!(a.zone_of(pfn), Some(ZoneKind::Dma));
    }

    #[test]
    fn lifo_reuse_across_allocator_api() {
        let mut a = ZonedAllocator::new(MemConfig::small_256mib());
        let p = a.alloc_pages(CpuId(2), Order(0)).unwrap();
        a.free_pages(CpuId(2), p).unwrap();
        assert_eq!(a.alloc_pages(CpuId(2), Order(0)).unwrap(), p);
    }

    #[test]
    fn rejects_oversized_order() {
        let mut a = ZonedAllocator::new(MemConfig::small_256mib());
        assert_eq!(
            a.alloc_pages(CpuId(0), Order(MAX_ORDER + 1)),
            Err(AllocError::OrderTooLarge {
                order: Order(MAX_ORDER + 1)
            })
        );
    }

    #[test]
    fn unknown_frame_free_is_rejected() {
        let mut a = ZonedAllocator::new(MemConfig::small_256mib());
        let beyond = Pfn(a.config().total_pages() + 5);
        assert_eq!(
            a.free_pages(CpuId(0), beyond),
            Err(AllocError::UnknownFrame { pfn: beyond })
        );
    }

    #[test]
    fn oom_after_exhaustion_then_recovery() {
        let cfg = MemConfig {
            total_bytes: 4 << 20, // 4 MiB: DMA zone only
            cpus: 1,
            pcp: PcpConfig::tiny(),
            trace_capacity: 64,
        };
        let mut a = ZonedAllocator::new(cfg);
        let mut held = Vec::new();
        loop {
            match a.alloc_pages(CpuId(0), Order(0)) {
                Ok(p) => held.push(p),
                Err(AllocError::OutOfMemory { .. }) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!(held.len() as u64, cfg.total_pages());
        for p in held {
            a.free_pages(CpuId(0), p).unwrap();
        }
        assert!(a.alloc_pages(CpuId(0), Order(5)).is_ok());
    }

    #[test]
    fn reclaim_unblocks_high_order_requests() {
        // Scatter order-0 frees across pcp lists so the buddy cannot build a
        // big block, then ask for one: direct reclaim must drain the lists
        // and succeed.
        let cfg = MemConfig {
            total_bytes: 2 << 20, // 512 pages, DMA only
            cpus: 1,
            pcp: PcpConfig {
                high: 512,
                batch: 1,
            },
            trace_capacity: 16,
        };
        let mut a = ZonedAllocator::new(cfg);
        let held: Vec<Pfn> = (0..512)
            .map(|_| a.alloc_pages(CpuId(0), Order(0)).unwrap())
            .collect();
        for p in held {
            a.free_pages(CpuId(0), p).unwrap();
        }
        // All 512 frames now sit in the pcp list (high=512, never drained).
        assert_eq!(a.zone(ZoneKind::Dma).unwrap().buddy().free_pages(), 0);
        let got = a.alloc_pages(CpuId(0), Order(8)).unwrap();
        assert!(got.is_aligned(Order(8)));
    }

    #[test]
    fn drain_cpu_empties_only_that_cpu() {
        let mut a = ZonedAllocator::new(MemConfig::small_256mib().with_pcp(PcpConfig::tiny()));
        let p0 = a.alloc_pages(CpuId(0), Order(0)).unwrap();
        let p1 = a.alloc_pages(CpuId(1), Order(0)).unwrap();
        a.free_pages(CpuId(0), p0).unwrap();
        a.free_pages(CpuId(1), p1).unwrap();
        a.drain_cpu(CpuId(0));
        let z = a.zone(ZoneKind::Dma32).unwrap();
        assert_eq!(z.pcp(CpuId(0)).len(), 0);
        assert!(!z.pcp(CpuId(1)).is_empty());
    }

    #[test]
    fn trace_records_pcp_paths() {
        let mut a = ZonedAllocator::new(MemConfig::small_256mib());
        a.trace_mut().set_enabled(true);
        let p = a.alloc_pages(CpuId(0), Order(0)).unwrap();
        a.free_pages(CpuId(0), p).unwrap();
        a.alloc_pages(CpuId(0), Order(0)).unwrap();
        let kinds: Vec<_> = a.trace().iter().map(|e| e.kind).collect();
        assert!(kinds
            .iter()
            .any(|k| matches!(k, EventKind::PcpRefill { .. })));
        assert!(kinds.iter().any(|k| matches!(
            k,
            EventKind::Alloc {
                served: ServedFrom::PcpCache,
                ..
            }
        )));
        assert!(kinds.iter().any(|k| matches!(
            k,
            EventKind::Free {
                to: ServedFrom::PcpCache,
                ..
            }
        )));
    }

    #[test]
    fn page_table_tag_follows_the_frame_lifetime() {
        let mut a = ZonedAllocator::new(MemConfig::small_256mib());
        let data = a.alloc_pages(CpuId(0), Order(0)).unwrap();
        let table = a
            .alloc_pages_kind(CpuId(0), Order(0), FrameKind::PageTable)
            .unwrap();
        assert_eq!(a.frame_kind(data), FrameKind::Data);
        assert_eq!(a.frame_kind(table), FrameKind::PageTable);
        assert_eq!(a.table_frame_count(), 1);
        assert_eq!(a.table_frames().collect::<Vec<_>>(), vec![table]);
        a.free_pages(CpuId(0), table).unwrap();
        assert_eq!(a.frame_kind(table), FrameKind::Data);
        assert_eq!(a.table_frame_count(), 0);
    }

    #[test]
    fn data_tagged_allocation_leaves_state_identical_to_untagged() {
        let mut tagged = ZonedAllocator::new(MemConfig::small_256mib());
        let mut plain = ZonedAllocator::new(MemConfig::small_256mib());
        let p1 = tagged
            .alloc_pages_kind(CpuId(0), Order(0), FrameKind::Data)
            .unwrap();
        let p2 = plain.alloc_pages(CpuId(0), Order(0)).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(tagged, plain);
    }

    #[test]
    fn free_pages_counts_everything() {
        let mut a = ZonedAllocator::new(MemConfig::small_256mib());
        let total = a.total_free_pages();
        assert_eq!(total, a.config().total_pages());
        let p = a.alloc_pages(CpuId(0), Order(3)).unwrap();
        assert_eq!(a.total_free_pages(), total - 8);
        a.free_pages(CpuId(0), p).unwrap();
        assert_eq!(a.total_free_pages(), total);
    }
}
