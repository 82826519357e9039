//! Sparse byte-addressable backing store for the simulated DRAM array.
//!
//! Multi-GiB devices cannot be backed by a dense host allocation, and most of
//! the array is never touched (or is touched with a uniform fill pattern
//! during templating). The store keeps 4 KiB chunks in one of two forms:
//! `Uniform(byte)` for untouched / memset chunks, and materialised byte
//! buffers for anything written with structure.
//!
//! Materialised chunks sit behind an [`Arc`], so cloning the store — the
//! snapshot/fork path — is a copy-on-write overlay: the clone shares every
//! chunk with the original, and a chunk's bytes are only duplicated when one
//! side writes into it ([`Arc::make_mut`]).

use std::sync::Arc;

use perf::{FastMap, FastSet};

use crate::geometry::PhysAddr;

/// Chunk size in bytes: one 4 KiB page.
pub(crate) const CHUNK: usize = 4096;

/// One materialised 4 KiB chunk.
type ChunkBytes = [u8; CHUNK];

/// One 4 KiB chunk as the store holds it, borrowed without a copy
/// ([`SparseMemory::chunk_view`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChunkView<'a> {
    /// Every byte holds this value: a filled chunk, or an absent one
    /// reading as the store's default byte.
    Uniform(u8),
    /// A materialised chunk's bytes, in place.
    Bytes(&'a [u8; CHUNK]),
}

#[derive(Debug, Clone)]
enum ChunkData {
    Uniform(u8),
    Bytes(Arc<ChunkBytes>),
}

impl ChunkData {
    /// Effective content comparison: a `Uniform` chunk equals a materialised
    /// chunk holding the same byte everywhere.
    fn content_eq(&self, other: &ChunkData) -> bool {
        match (self, other) {
            (ChunkData::Uniform(a), ChunkData::Uniform(b)) => a == b,
            (ChunkData::Bytes(a), ChunkData::Bytes(b)) => Arc::ptr_eq(a, b) || a == b,
            (ChunkData::Uniform(u), ChunkData::Bytes(bytes))
            | (ChunkData::Bytes(bytes), ChunkData::Uniform(u)) => bytes.iter().all(|&b| b == *u),
        }
    }
}

/// Sparse memory: a byte array of `capacity` bytes, materialised on demand.
///
/// # Examples
///
/// ```
/// use dram::{PhysAddr, SparseMemory};
/// let mut m = SparseMemory::new(1 << 20);
/// m.fill(PhysAddr::new(0x1000), 4096, 0xAB);
/// assert_eq!(m.read_byte(PhysAddr::new(0x1234)), 0xAB);
/// m.write_byte(PhysAddr::new(0x1234), 0x55);
/// assert_eq!(m.read_byte(PhysAddr::new(0x1234)), 0x55);
/// ```
#[derive(Debug)]
pub struct SparseMemory {
    capacity: u64,
    default_byte: u8,
    chunks: FastMap<u64, ChunkData>,
    /// Chunks this store believes it owns exclusively (materialised here and
    /// not shared with any clone since). A pure *hint*: the write fast path
    /// re-verifies uniqueness before trusting it, so a hint gone stale after
    /// a clone costs one fallback to the copy-on-write path, never
    /// correctness. Cleared (on the clone side) by [`Clone`].
    owned: FastSet<u64>,
}

/// Cloning is the snapshot/fork path: the clone shares every materialised
/// chunk with the original, so it starts with an empty owned-chunk hint set
/// — every chunk it later writes must go through copy-on-write once. The
/// original's hints go stale (its chunks are now shared too); the write
/// fast path detects that and falls back, re-owning chunks as it unshares
/// them.
impl Clone for SparseMemory {
    fn clone(&self) -> Self {
        SparseMemory {
            capacity: self.capacity,
            default_byte: self.default_byte,
            chunks: self.chunks.clone(),
            owned: FastSet::default(),
        }
    }
}

/// Equality is over *effective contents*: an absent chunk, a `Uniform`
/// chunk of the default byte, and a materialised chunk holding that byte
/// everywhere all compare equal. Snapshot round-trip tests rely on this —
/// representation may differ between a restored store and a freshly
/// replayed one without changing a single observable byte.
impl PartialEq for SparseMemory {
    fn eq(&self, other: &Self) -> bool {
        if self.capacity != other.capacity || self.default_byte != other.default_byte {
            return false;
        }
        let covers = |map: &FastMap<u64, ChunkData>, key: u64, rhs: &Self| {
            let a = map.get(&key);
            let b = rhs.chunks.get(&key);
            match (a, b) {
                (Some(x), Some(y)) => x.content_eq(y),
                (Some(x), None) | (None, Some(x)) => {
                    x.content_eq(&ChunkData::Uniform(self.default_byte))
                }
                (None, None) => true,
            }
        };
        self.chunks.keys().all(|&k| covers(&self.chunks, k, other))
            && other.chunks.keys().all(|&k| covers(&other.chunks, k, self))
    }
}

impl SparseMemory {
    /// Creates a zero-initialised sparse memory of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        SparseMemory {
            capacity,
            default_byte: 0,
            chunks: FastMap::default(),
            owned: FastSet::default(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of chunks that have been materialised as full byte buffers.
    pub fn materialized_chunks(&self) -> usize {
        self.chunks
            .values()
            .filter(|c| matches!(c, ChunkData::Bytes(_)))
            .count()
    }

    fn check(&self, addr: PhysAddr, len: u64) {
        assert!(
            addr.as_u64()
                .checked_add(len)
                .is_some_and(|end| end <= self.capacity),
            "access at {addr}+{len} beyond capacity {:#x}",
            self.capacity
        );
    }

    fn chunk_byte(&self, chunk: u64) -> Option<u8> {
        match self.chunks.get(&chunk) {
            None => Some(self.default_byte),
            Some(ChunkData::Uniform(b)) => Some(*b),
            Some(ChunkData::Bytes(_)) => None,
        }
    }

    fn materialize(&mut self, chunk: u64) -> &mut [u8] {
        let default = self.default_byte;
        let entry = self
            .chunks
            .entry(chunk)
            .or_insert(ChunkData::Uniform(default));
        if let ChunkData::Uniform(b) = *entry {
            *entry = ChunkData::Bytes(Arc::new([b; CHUNK]));
        }
        match entry {
            // Copy-on-write: unshare the chunk if a snapshot still holds it.
            // `make_mut` leaves the Arc uniquely owned, so the chunk joins
            // the owned-hint set and later writes take the fast path.
            ChunkData::Bytes(bytes) => {
                self.owned.insert(chunk);
                &mut Arc::make_mut(bytes)[..]
            }
            ChunkData::Uniform(_) => unreachable!("just materialised"),
        }
    }

    /// Write fast path: a single map probe into a chunk this store already
    /// owns. Returns `false` (after dropping the stale hint) when the
    /// chunk is uniform, absent, or was shared out by a clone — callers
    /// then take the copy-on-write slow path.
    fn write_owned(&mut self, chunk: u64, off: usize, src: &[u8]) -> bool {
        if !self.owned.contains(&chunk) {
            return false;
        }
        if let Some(ChunkData::Bytes(bytes)) = self.chunks.get_mut(&chunk) {
            // Re-verify the hint: `get_mut` is the uniqueness check the
            // hot path skips *repeating* — it runs once per probe instead
            // of once per write path + entry + make_mut chain.
            if let Some(buf) = Arc::get_mut(bytes) {
                buf[off..off + src.len()].copy_from_slice(src);
                return true;
            }
        }
        self.owned.remove(&chunk);
        false
    }

    /// The chunk starting at `addr` as stored: uniform chunks answer in
    /// O(1), materialised ones lend their bytes. A query only — it never
    /// materialises or unshares a chunk.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4 KiB-aligned or the chunk is beyond
    /// capacity.
    pub(crate) fn chunk_view(&self, addr: PhysAddr) -> ChunkView<'_> {
        assert_eq!(
            addr.as_u64() % CHUNK as u64,
            0,
            "chunk_view needs a 4 KiB-aligned address"
        );
        self.check(addr, CHUNK as u64);
        match self.chunks.get(&(addr.as_u64() / CHUNK as u64)) {
            None => ChunkView::Uniform(self.default_byte),
            Some(ChunkData::Uniform(b)) => ChunkView::Uniform(*b),
            Some(ChunkData::Bytes(bytes)) => ChunkView::Bytes(bytes),
        }
    }

    /// Reads a single byte.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond capacity.
    pub fn read_byte(&self, addr: PhysAddr) -> u8 {
        self.check(addr, 1);
        let chunk = addr.as_u64() / CHUNK as u64;
        match self.chunks.get(&chunk) {
            None => self.default_byte,
            Some(ChunkData::Uniform(b)) => *b,
            Some(ChunkData::Bytes(bytes)) => bytes[(addr.as_u64() % CHUNK as u64) as usize],
        }
    }

    /// Writes a single byte.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond capacity.
    pub fn write_byte(&mut self, addr: PhysAddr, value: u8) {
        self.check(addr, 1);
        let chunk = addr.as_u64() / CHUNK as u64;
        let off = (addr.as_u64() % CHUNK as u64) as usize;
        if self.write_owned(chunk, off, &[value]) {
            return;
        }
        // Avoid materialising when the write is a no-op on a uniform chunk.
        if self.chunk_byte(chunk) == Some(value) {
            return;
        }
        let bytes = self.materialize(chunk);
        bytes[off] = value;
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends beyond capacity.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) {
        self.check(addr, buf.len() as u64);
        let mut pos = addr.as_u64();
        let mut off = 0usize;
        while off < buf.len() {
            let chunk = pos / CHUNK as u64;
            let in_chunk = (pos % CHUNK as u64) as usize;
            let n = (CHUNK - in_chunk).min(buf.len() - off);
            match self.chunks.get(&chunk) {
                None => buf[off..off + n].fill(self.default_byte),
                Some(ChunkData::Uniform(b)) => buf[off..off + n].fill(*b),
                Some(ChunkData::Bytes(bytes)) => {
                    buf[off..off + n].copy_from_slice(&bytes[in_chunk..in_chunk + n]);
                }
            }
            pos += n as u64;
            off += n;
        }
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends beyond capacity.
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) {
        self.check(addr, data.len() as u64);
        let mut pos = addr.as_u64();
        let mut off = 0usize;
        while off < data.len() {
            let chunk = pos / CHUNK as u64;
            let in_chunk = (pos % CHUNK as u64) as usize;
            let n = (CHUNK - in_chunk).min(data.len() - off);
            let src = &data[off..off + n];
            let uniform = src
                .first()
                .copied()
                .filter(|&b| src.iter().all(|&x| x == b));
            match (n == CHUNK, uniform) {
                (true, Some(b)) => {
                    self.chunks.insert(chunk, ChunkData::Uniform(b));
                }
                _ => {
                    if self.write_owned(chunk, in_chunk, src) {
                        // Owned-chunk fast path: single probe, no CoW dance.
                    } else if uniform.is_some() && self.chunk_byte(chunk) == uniform {
                        // No-op write into a uniform chunk of the same value.
                    } else {
                        let bytes = self.materialize(chunk);
                        bytes[in_chunk..in_chunk + n].copy_from_slice(src);
                    }
                }
            }
            pos += n as u64;
            off += n;
        }
    }

    /// Fills `len` bytes starting at `addr` with `value`, keeping chunk-sized
    /// aligned regions in the compact uniform representation.
    ///
    /// # Panics
    ///
    /// Panics if the range extends beyond capacity.
    pub fn fill(&mut self, addr: PhysAddr, len: u64, value: u8) {
        self.check(addr, len);
        let mut pos = addr.as_u64();
        let end = pos + len;
        while pos < end {
            let chunk = pos / CHUNK as u64;
            let in_chunk = (pos % CHUNK as u64) as usize;
            let n = ((CHUNK - in_chunk) as u64).min(end - pos) as usize;
            if n == CHUNK {
                self.chunks.insert(chunk, ChunkData::Uniform(value));
            } else if self.chunk_byte(chunk) != Some(value) {
                let bytes = self.materialize(chunk);
                bytes[in_chunk..in_chunk + n].fill(value);
            }
            pos += n as u64;
        }
    }

    /// Reads the bit at `addr` / `bit` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond capacity or `bit >= 8`.
    pub fn read_bit(&self, addr: PhysAddr, bit: u8) -> bool {
        assert!(bit < 8, "bit index must be 0..8");
        (self.read_byte(addr) >> bit) & 1 == 1
    }

    /// Overwrites the bit at `addr` / `bit` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond capacity or `bit >= 8`.
    pub fn write_bit(&mut self, addr: PhysAddr, bit: u8, value: bool) {
        assert!(bit < 8, "bit index must be 0..8");
        let byte = self.read_byte(addr);
        let new = if value {
            byte | (1 << bit)
        } else {
            byte & !(1 << bit)
        };
        self.write_byte(addr, new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let m = SparseMemory::new(1 << 16);
        assert_eq!(m.read_byte(PhysAddr::new(0x1234)), 0);
        assert_eq!(m.materialized_chunks(), 0);
    }

    #[test]
    fn rw_roundtrip_across_chunks() {
        let mut m = SparseMemory::new(1 << 16);
        let data: Vec<u8> = (0..9000u32).map(|i| (i % 251) as u8).collect();
        m.write(PhysAddr::new(100), &data);
        let mut back = vec![0u8; data.len()];
        m.read(PhysAddr::new(100), &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn fill_keeps_uniform_chunks_compact() {
        let mut m = SparseMemory::new(1 << 20);
        m.fill(PhysAddr::new(0), 1 << 20, 0xFF);
        assert_eq!(m.materialized_chunks(), 0);
        assert_eq!(m.read_byte(PhysAddr::new(0xFFFFF)), 0xFF);
    }

    #[test]
    fn unaligned_fill_materialises_edges_only() {
        let mut m = SparseMemory::new(1 << 16);
        m.fill(PhysAddr::new(100), 8192, 0xAA);
        // First and last chunks are partial; the middle chunk is uniform.
        assert!(m.materialized_chunks() <= 2);
        assert_eq!(m.read_byte(PhysAddr::new(100)), 0xAA);
        assert_eq!(m.read_byte(PhysAddr::new(100 + 8191)), 0xAA);
        assert_eq!(m.read_byte(PhysAddr::new(99)), 0);
        assert_eq!(m.read_byte(PhysAddr::new(100 + 8192)), 0);
    }

    #[test]
    fn bit_ops() {
        let mut m = SparseMemory::new(4096);
        let a = PhysAddr::new(7);
        assert!(!m.read_bit(a, 3));
        m.write_bit(a, 3, true);
        assert!(m.read_bit(a, 3));
        assert_eq!(m.read_byte(a), 0b1000);
        m.write_bit(a, 3, false);
        assert_eq!(m.read_byte(a), 0);
    }

    #[test]
    fn noop_write_stays_compact() {
        let mut m = SparseMemory::new(1 << 16);
        m.write_byte(PhysAddr::new(5), 0);
        assert_eq!(m.materialized_chunks(), 0);
        m.fill(PhysAddr::new(0), 4096, 0x77);
        m.write_byte(PhysAddr::new(5), 0x77);
        assert_eq!(m.materialized_chunks(), 0);
    }

    #[test]
    fn full_chunk_write_of_uniform_data_stays_compact() {
        let mut m = SparseMemory::new(1 << 16);
        m.write(PhysAddr::new(4096), &[0x42u8; 4096]);
        assert_eq!(m.materialized_chunks(), 0);
        assert_eq!(m.read_byte(PhysAddr::new(8191)), 0x42);
    }

    #[test]
    fn clone_shares_materialised_chunks_until_written() {
        let mut m = SparseMemory::new(1 << 16);
        m.write(PhysAddr::new(0), b"structured");
        let fork = m.clone();
        // The clone holds the *same* allocation, not a copy.
        let (ChunkData::Bytes(a), ChunkData::Bytes(b)) =
            (m.chunks.get(&0).unwrap(), fork.chunks.get(&0).unwrap())
        else {
            panic!("chunk 0 should be materialised in both stores");
        };
        assert!(Arc::ptr_eq(a, b), "clone must share chunk storage");
        // Writing into the original unshares only the touched chunk and
        // leaves the fork's view untouched.
        m.write_byte(PhysAddr::new(1), b'X');
        assert_eq!(m.read_byte(PhysAddr::new(1)), b'X');
        assert_eq!(fork.read_byte(PhysAddr::new(1)), b't');
        let (ChunkData::Bytes(a), ChunkData::Bytes(b)) =
            (m.chunks.get(&0).unwrap(), fork.chunks.get(&0).unwrap())
        else {
            panic!("chunk 0 should stay materialised");
        };
        assert!(!Arc::ptr_eq(a, b), "write must unshare the chunk");
    }

    #[test]
    fn owned_hint_tracks_writes_and_heals_after_clone() {
        let mut m = SparseMemory::new(1 << 16);
        m.write(PhysAddr::new(0), b"structured"); // materialises and owns 0
        assert!(m.owned.contains(&0), "materialize must record ownership");
        m.write_byte(PhysAddr::new(1), b'Y'); // owned fast path
        let fork = m.clone();
        assert!(
            fork.owned.is_empty(),
            "a clone shares every chunk, so it owns none"
        );
        // The original's hint is now stale. The next write must detect the
        // sharing, fall back to copy-on-write, and re-own the fresh copy —
        // without leaking the write into the fork.
        m.write_byte(PhysAddr::new(2), b'Z');
        assert!(m.owned.contains(&0), "CoW write must re-own the chunk");
        assert_eq!(fork.read_byte(PhysAddr::new(2)), b'r');
        assert_eq!(m.read_byte(PhysAddr::new(2)), b'Z');
        // Overwriting the chunk with a uniform fill drops it back to the
        // compact form; the stale hint self-heals on the next write.
        m.fill(PhysAddr::new(0), 4096, 0xEE);
        m.write_byte(PhysAddr::new(3), 0x01);
        assert_eq!(m.read_byte(PhysAddr::new(3)), 0x01);
        assert_eq!(m.read_byte(PhysAddr::new(4)), 0xEE);
    }

    #[test]
    fn equality_ignores_representation() {
        let mut uniform = SparseMemory::new(1 << 16);
        let mut materialised = SparseMemory::new(1 << 16);
        uniform.fill(PhysAddr::new(0), 4096, 0xAB);
        // Same bytes, but forced through the materialising path.
        materialised.write(PhysAddr::new(0), &[0xCD; 4096]);
        materialised.fill(PhysAddr::new(0), 1, 0xAB);
        materialised.write(PhysAddr::new(1), &[0xAB; 4095]);
        assert_eq!(uniform, materialised);
        // An untouched store equals one explicitly zero-filled.
        let zeroed = {
            let mut m = SparseMemory::new(1 << 16);
            m.write(PhysAddr::new(100), &[1]);
            m.write(PhysAddr::new(100), &[0]);
            m
        };
        assert_eq!(SparseMemory::new(1 << 16), zeroed);
        materialised.write_byte(PhysAddr::new(7), 0x11);
        assert_ne!(uniform, materialised);
    }

    #[test]
    fn chunk_view_of_an_absent_chunk_is_the_default_byte() {
        let m = SparseMemory::new(1 << 16);
        assert_eq!(m.chunk_view(PhysAddr::new(0x3000)), ChunkView::Uniform(0));
        assert!(m.chunks.is_empty(), "a query must not insert the chunk");
    }

    #[test]
    fn chunk_view_of_a_filled_chunk_is_uniform() {
        let mut m = SparseMemory::new(1 << 16);
        m.fill(PhysAddr::new(0x1000), 4096, 0xFF);
        assert_eq!(
            m.chunk_view(PhysAddr::new(0x1000)),
            ChunkView::Uniform(0xFF)
        );
        assert_eq!(m.materialized_chunks(), 0);
    }

    #[test]
    fn chunk_view_lends_materialised_bytes_in_place() {
        let mut m = SparseMemory::new(1 << 16);
        m.fill(PhysAddr::new(0x2000), 4096, 0xAA);
        m.write(PhysAddr::new(0x2005), b"xy");
        let ChunkView::Bytes(bytes) = m.chunk_view(PhysAddr::new(0x2000)) else {
            panic!("a written chunk is materialised");
        };
        let ChunkData::Bytes(stored) = m.chunks.get(&2).unwrap() else {
            panic!("chunk 2 should be materialised");
        };
        assert!(std::ptr::eq(bytes, &**stored), "the view must not copy");
        assert_eq!(&bytes[5..7], b"xy");
        assert!(bytes[..5].iter().chain(&bytes[7..]).all(|&b| b == 0xAA));
        assert_eq!(m.materialized_chunks(), 1);
    }

    #[test]
    fn chunk_view_of_a_shared_chunk_leaves_it_shared() {
        let mut m = SparseMemory::new(1 << 16);
        m.write(PhysAddr::new(0), b"structured");
        let fork = m.clone();
        let (ChunkView::Bytes(a), ChunkView::Bytes(b)) = (
            m.chunk_view(PhysAddr::new(0)),
            fork.chunk_view(PhysAddr::new(0)),
        ) else {
            panic!("chunk 0 should be materialised in both stores");
        };
        assert!(std::ptr::eq(a, b), "both views borrow the shared chunk");
        let ChunkData::Bytes(shared) = m.chunks.get(&0).unwrap() else {
            panic!("chunk 0 should stay materialised");
        };
        assert_eq!(Arc::strong_count(shared), 2, "a query must not unshare");
        assert_eq!(
            (m.materialized_chunks(), fork.materialized_chunks()),
            (1, 1)
        );
    }

    #[test]
    #[should_panic(expected = "4 KiB-aligned")]
    fn chunk_view_of_an_unaligned_address_panics() {
        SparseMemory::new(1 << 16).chunk_view(PhysAddr::new(0x1008));
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn out_of_range_read_panics() {
        SparseMemory::new(4096).read_byte(PhysAddr::new(4096));
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn overflowing_range_panics() {
        let mut m = SparseMemory::new(4096);
        m.fill(PhysAddr::new(u64::MAX - 10), 100, 1);
    }
}
