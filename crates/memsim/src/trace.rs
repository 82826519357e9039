//! Allocation event tracing for experiments.

use std::collections::VecDeque;

use crate::types::{CpuId, Order, Pfn};
use crate::zone::ZoneKind;

/// Which mechanism served or absorbed a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedFrom {
    /// The per-CPU page frame cache.
    PcpCache,
    /// The buddy allocator.
    Buddy,
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A block was allocated.
    Alloc {
        /// First frame of the block.
        pfn: Pfn,
        /// Block order.
        order: Order,
        /// Path that served it.
        served: ServedFrom,
    },
    /// A block was freed.
    Free {
        /// First frame of the block.
        pfn: Pfn,
        /// Block order.
        order: Order,
        /// Path that absorbed it.
        to: ServedFrom,
    },
    /// The pcp list was bulk-refilled from the buddy.
    PcpRefill {
        /// Frames moved.
        count: u32,
    },
    /// Frames were drained from a pcp list back to the buddy.
    PcpDrain {
        /// Frames moved.
        count: u32,
    },
    /// A direct-reclaim pass ran (all pcp lists drained).
    Reclaim,
}

/// One traced allocator event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocEvent {
    /// Monotonic sequence number.
    pub seq: u64,
    /// CPU that triggered the event.
    pub cpu: CpuId,
    /// Zone involved.
    pub zone: ZoneKind,
    /// Event payload.
    pub kind: EventKind,
}

/// A bounded ring of allocator events.
///
/// Disabled by default; experiments enable it around the window of interest.
///
/// # Examples
///
/// ```
/// use memsim::{TraceLog, AllocEvent, EventKind, ServedFrom, CpuId, Pfn, Order, ZoneKind};
/// let mut log = TraceLog::new(16);
/// log.set_enabled(true);
/// log.record(CpuId(0), ZoneKind::Normal, EventKind::Reclaim);
/// assert_eq!(log.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceLog {
    events: VecDeque<AllocEvent>,
    capacity: usize,
    enabled: bool,
    seq: u64,
}

impl TraceLog {
    /// Creates a disabled log holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be non-zero");
        TraceLog {
            events: VecDeque::new(),
            capacity,
            enabled: false,
            seq: 0,
        }
    }

    /// Enables or disables recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records an event (drops the oldest when full). No-op when disabled.
    pub fn record(&mut self, cpu: CpuId, zone: ZoneKind, kind: EventKind) {
        if !self.enabled {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(AllocEvent {
            seq: self.seq,
            cpu,
            zone,
            kind,
        });
        self.seq += 1;
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &AllocEvent> {
        self.events.iter()
    }

    /// Clears retained events (the sequence counter keeps running).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default() {
        let mut log = TraceLog::new(4);
        log.record(CpuId(0), ZoneKind::Normal, EventKind::Reclaim);
        assert!(log.is_empty());
    }

    #[test]
    fn ring_drops_oldest() {
        let mut log = TraceLog::new(2);
        log.set_enabled(true);
        for _ in 0..3 {
            log.record(CpuId(0), ZoneKind::Normal, EventKind::Reclaim);
        }
        assert_eq!(log.len(), 2);
        let seqs: Vec<u64> = log.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn clear_keeps_sequence_monotonic() {
        let mut log = TraceLog::new(4);
        log.set_enabled(true);
        log.record(CpuId(0), ZoneKind::Normal, EventKind::Reclaim);
        log.clear();
        log.record(CpuId(0), ZoneKind::Normal, EventKind::Reclaim);
        assert_eq!(log.iter().next().unwrap().seq, 1);
    }
}
