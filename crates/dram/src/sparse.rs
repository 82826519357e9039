//! Sparse byte-addressable backing store for the simulated DRAM array.
//!
//! Multi-GiB devices cannot be backed by a dense host allocation, and most of
//! the array is never touched (or is touched with a uniform fill pattern
//! during templating). The store keeps 4 KiB chunks in one of three forms:
//! `Uniform(byte)` for untouched / memset chunks, a uniform byte plus a few
//! patched bytes for a filled chunk that took single-byte writes (the bit
//! flips of a templating sweep), and materialised byte buffers for anything
//! written with structure.
//!
//! Chunks are indexed by chunk number in a [`perf::cow::Table`], where an
//! absent chunk reads as `Uniform(0)`. Cloning the store — the
//! snapshot/fork path — shares the whole table; the first write after a
//! clone copies out the table's run of blocks and the one block of 64
//! chunk entries it lands in. Patched and materialised chunks sit behind
//! an [`Arc`] as well, so even a copied-out block shares their contents,
//! and a chunk's bytes are only duplicated when one side writes into them
//! ([`Arc::make_mut`]).

use std::sync::Arc;

use perf::cow::Table;

use crate::geometry::PhysAddr;

/// Chunk size in bytes: one 4 KiB page.
pub(crate) const CHUNK: usize = 4096;

/// Most bytes a patched chunk holds off its base byte; one more
/// materialises it.
const MAX_PATCHES: usize = 8;

/// One materialised 4 KiB chunk.
type ChunkBytes = [u8; CHUNK];

/// One 4 KiB chunk as the store holds it, borrowed without a copy
/// ([`SparseMemory::chunk_view`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChunkView<'a> {
    /// Every byte holds this value: a filled chunk, or an absent one
    /// reading as 0.
    Uniform(u8),
    /// Every byte holds `base` except the listed `(offset, value)` bytes,
    /// which are in offset order and each differ from `base`.
    Patched {
        /// The byte at every offset not listed.
        base: u8,
        /// The bytes that differ from `base`.
        patches: &'a [(u16, u8)],
    },
    /// A materialised chunk's bytes, in place.
    Bytes(&'a [u8; CHUNK]),
}

/// A uniform chunk with a few bytes written off its base byte. Entries are
/// sorted by offset and none holds `base`, so equal contents have equal
/// patches.
#[derive(Debug, Clone)]
struct Patches {
    base: u8,
    len: usize,
    slots: [(u16, u8); MAX_PATCHES],
}

/// What [`Patches::set`] left behind.
enum PatchSet {
    /// The chunk is still patched.
    Kept,
    /// The last patch went back to the base byte: the chunk is uniform.
    Uniform,
    /// The write needs a patch beyond [`MAX_PATCHES`]: the chunk must be
    /// materialised.
    Full,
}

impl Patches {
    /// A chunk of `base` with `value` (not `base`) at `off`.
    fn one(base: u8, off: usize, value: u8) -> Self {
        let mut slots = [(0, 0); MAX_PATCHES];
        slots[0] = (off as u16, value);
        Patches {
            base,
            len: 1,
            slots,
        }
    }

    fn patches(&self) -> &[(u16, u8)] {
        &self.slots[..self.len]
    }

    fn get(&self, off: usize) -> u8 {
        self.patches()
            .iter()
            .find(|&&(o, _)| usize::from(o) == off)
            .map_or(self.base, |&(_, v)| v)
    }

    /// Writes `value` at `off`, where the chunk holds something else.
    fn set(&mut self, off: usize, value: u8) -> PatchSet {
        let off = off as u16;
        match self.patches().binary_search_by_key(&off, |&(o, _)| o) {
            Ok(i) if value == self.base => {
                self.slots.copy_within(i + 1..self.len, i);
                self.len -= 1;
                self.slots[self.len] = (0, 0);
                if self.len == 0 {
                    return PatchSet::Uniform;
                }
            }
            Ok(i) => self.slots[i].1 = value,
            Err(_) if self.len == MAX_PATCHES => return PatchSet::Full,
            Err(i) => {
                self.slots.copy_within(i..self.len, i + 1);
                self.slots[i] = (off, value);
                self.len += 1;
            }
        }
        PatchSet::Kept
    }

    fn to_bytes(&self) -> ChunkBytes {
        let mut bytes = [self.base; CHUNK];
        for &(off, value) in self.patches() {
            bytes[usize::from(off)] = value;
        }
        bytes
    }
}

impl PartialEq for Patches {
    fn eq(&self, other: &Self) -> bool {
        self.base == other.base && self.patches() == other.patches()
    }
}

/// One chunk's contents. An absent chunk is the default, `Uniform(0)`.
#[derive(Debug, Clone)]
enum ChunkData {
    Uniform(u8),
    Patched(Arc<Patches>),
    Bytes(Arc<ChunkBytes>),
}

impl Default for ChunkData {
    fn default() -> Self {
        ChunkData::Uniform(0)
    }
}

/// Equality is over contents: a `Uniform` chunk equals a materialised
/// chunk holding the same byte everywhere, and likewise a patched one.
impl PartialEq for ChunkData {
    fn eq(&self, other: &ChunkData) -> bool {
        match (self, other) {
            (ChunkData::Uniform(a), ChunkData::Uniform(b)) => a == b,
            (ChunkData::Patched(a), ChunkData::Patched(b)) => a == b,
            (ChunkData::Bytes(a), ChunkData::Bytes(b)) => Arc::ptr_eq(a, b) || a == b,
            // A patched chunk holds at least one byte off its base.
            (ChunkData::Uniform(_), ChunkData::Patched(_))
            | (ChunkData::Patched(_), ChunkData::Uniform(_)) => false,
            (data, ChunkData::Bytes(bytes)) | (ChunkData::Bytes(bytes), data) => {
                bytes.iter().enumerate().all(|(i, &b)| data.byte(i) == b)
            }
        }
    }
}

impl ChunkData {
    fn view(&self) -> ChunkView<'_> {
        match self {
            ChunkData::Uniform(b) => ChunkView::Uniform(*b),
            ChunkData::Patched(p) => ChunkView::Patched {
                base: p.base,
                patches: p.patches(),
            },
            ChunkData::Bytes(bytes) => ChunkView::Bytes(bytes),
        }
    }

    fn byte(&self, off: usize) -> u8 {
        match self {
            ChunkData::Uniform(b) => *b,
            ChunkData::Patched(p) => p.get(off),
            ChunkData::Bytes(bytes) => bytes[off],
        }
    }

    /// The base byte of a uniform chunk, `None` for any other form.
    fn uniform(&self) -> Option<u8> {
        match self {
            ChunkData::Uniform(b) => Some(*b),
            _ => None,
        }
    }

    /// The chunk's bytes for writing: materialised, and unshared if a clone
    /// still holds them.
    fn bytes_mut(&mut self) -> &mut ChunkBytes {
        match self {
            ChunkData::Uniform(b) => *self = ChunkData::Bytes(Arc::new([*b; CHUNK])),
            ChunkData::Patched(p) => *self = ChunkData::Bytes(Arc::new(p.to_bytes())),
            ChunkData::Bytes(_) => {}
        }
        match self {
            ChunkData::Bytes(bytes) => Arc::make_mut(bytes),
            _ => unreachable!("just materialised"),
        }
    }

    /// Writes `value` at `off`. A uniform chunk takes it as a patch, a
    /// patched one keeps it as one until it overflows, and a write that
    /// changes nothing leaves a shared chunk shared.
    fn set_byte(&mut self, off: usize, value: u8) {
        match self {
            ChunkData::Uniform(base) if *base != value => {
                *self = ChunkData::Patched(Arc::new(Patches::one(*base, off, value)));
            }
            ChunkData::Uniform(_) => {}
            ChunkData::Patched(p) if p.get(off) != value => {
                match Arc::make_mut(p).set(off, value) {
                    PatchSet::Kept => {}
                    PatchSet::Uniform => *self = ChunkData::Uniform(value),
                    PatchSet::Full => self.bytes_mut()[off] = value,
                }
            }
            ChunkData::Patched(_) => {}
            ChunkData::Bytes(bytes) if bytes[off] != value => Arc::make_mut(bytes)[off] = value,
            ChunkData::Bytes(_) => {}
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
/// assert_eq!(m.materialized_chunks(), 0); // one patched byte
/// ```
///
/// Cloning is the snapshot/fork path: the clone shares the chunk table
/// until either side writes into it, and `clone_from` (the restore path)
/// re-points a table that differs.
///
/// Equality is over *effective contents*: an absent chunk, a `Uniform(0)`
/// chunk, and a materialised chunk holding 0 everywhere all compare equal
/// (and a patched chunk equals its materialised bytes). Snapshot
/// round-trip tests rely on this — representation may differ between a
/// restored store and a freshly replayed one without changing a single
/// observable byte.
#[derive(Debug, PartialEq)]
pub struct SparseMemory {
    capacity: u64,
    /// Chunk `c` holds bytes `c * CHUNK..`.
    chunks: Table<ChunkData>,
}

impl Clone for SparseMemory {
    fn clone(&self) -> Self {
        SparseMemory {
            capacity: self.capacity,
            chunks: self.chunks.clone(),
        }
    }

    /// Keeps the chunk table's run when it is already shared with `source`.
    fn clone_from(&mut self, source: &Self) {
        self.capacity = source.capacity;
        self.chunks.clone_from(&source.chunks);
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
            chunks: Table::new(capacity.div_ceil(CHUNK as u64) as usize),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of chunks that have been materialised as full byte buffers
    /// (uniform and patched chunks are not).
    pub fn materialized_chunks(&self) -> usize {
        self.chunks
            .stored()
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

    /// The chunk holding byte `pos`, and `pos`'s offset in it.
    fn locate(pos: u64) -> (usize, usize) {
        ((pos / CHUNK as u64) as usize, (pos % CHUNK as u64) as usize)
    }

    /// Sets `chunk` to `Uniform(value)`, leaving it shared when it is
    /// already that.
    fn set_uniform(&mut self, chunk: usize, value: u8) {
        if self.chunks.get(chunk).uniform() != Some(value) {
            *self.chunks.get_mut(chunk) = ChunkData::Uniform(value);
        }
    }

    /// The chunk starting at `addr` as stored: uniform chunks answer in
    /// O(1), patched ones list their patches and materialised ones lend
    /// their bytes. A query only — it never materialises or unshares a
    /// chunk.
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
        self.chunks.get(Self::locate(addr.as_u64()).0).view()
    }

    /// Reads a single byte.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond capacity.
    pub fn read_byte(&self, addr: PhysAddr) -> u8 {
        self.check(addr, 1);
        let (chunk, off) = Self::locate(addr.as_u64());
        self.chunks.get(chunk).byte(off)
    }

    /// Writes a single byte. On a uniform chunk the byte is kept as a
    /// patch; the chunk is materialised only when it gathers more patches
    /// than a patched chunk holds.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond capacity.
    pub fn write_byte(&mut self, addr: PhysAddr, value: u8) {
        self.update_byte(addr, |_| value);
    }

    /// Replaces the byte at `addr` with `f` of its current value. A write
    /// that changes nothing leaves the chunk table shared.
    fn update_byte(&mut self, addr: PhysAddr, f: impl FnOnce(u8) -> u8) {
        self.check(addr, 1);
        let (chunk, off) = Self::locate(addr.as_u64());
        let old = self.chunks.get(chunk).byte(off);
        let value = f(old);
        if value != old {
            self.chunks.get_mut(chunk).set_byte(off, value);
        }
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
            let (chunk, in_chunk) = Self::locate(pos);
            let n = (CHUNK - in_chunk).min(buf.len() - off);
            let dst = &mut buf[off..off + n];
            match self.chunks.get(chunk).view() {
                ChunkView::Uniform(b) => dst.fill(b),
                ChunkView::Patched { base, patches } => {
                    dst.fill(base);
                    for &(o, value) in patches {
                        if let Some(d) = usize::from(o)
                            .checked_sub(in_chunk)
                            .and_then(|i| dst.get_mut(i))
                        {
                            *d = value;
                        }
                    }
                }
                ChunkView::Bytes(bytes) => dst.copy_from_slice(&bytes[in_chunk..in_chunk + n]),
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
            let (chunk, in_chunk) = Self::locate(pos);
            let n = (CHUNK - in_chunk).min(data.len() - off);
            let src = &data[off..off + n];
            let uniform = src
                .first()
                .copied()
                .filter(|&b| src.iter().all(|&x| x == b));
            match uniform {
                Some(value) if n == CHUNK => self.set_uniform(chunk, value),
                // A no-op write into a uniform chunk of the same value.
                Some(value) if self.chunks.get(chunk).uniform() == Some(value) => {}
                _ => self.chunks.get_mut(chunk).bytes_mut()[in_chunk..in_chunk + n]
                    .copy_from_slice(src),
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
            let (chunk, in_chunk) = Self::locate(pos);
            let n = ((CHUNK - in_chunk) as u64).min(end - pos) as usize;
            if n == CHUNK {
                self.set_uniform(chunk, value);
            } else if self.chunks.get(chunk).uniform() != Some(value) {
                self.chunks.get_mut(chunk).bytes_mut()[in_chunk..in_chunk + n].fill(value);
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
        self.update_byte(addr, |byte| {
            if value {
                byte | (1 << bit)
            } else {
                byte & !(1 << bit)
            }
        });
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
        let (ChunkData::Bytes(a), ChunkData::Bytes(b)) = (m.chunks.get(0), fork.chunks.get(0))
        else {
            panic!("chunk 0 should be materialised in both stores");
        };
        assert!(Arc::ptr_eq(a, b), "clone must share chunk storage");
        // Writing into the original unshares only the touched chunk and
        // leaves the fork's view untouched.
        m.write_byte(PhysAddr::new(1), b'X');
        assert_eq!(m.read_byte(PhysAddr::new(1)), b'X');
        assert_eq!(fork.read_byte(PhysAddr::new(1)), b't');
        let (ChunkData::Bytes(a), ChunkData::Bytes(b)) = (m.chunks.get(0), fork.chunks.get(0))
        else {
            panic!("chunk 0 should stay materialised");
        };
        assert!(!Arc::ptr_eq(a, b), "write must unshare the chunk");
    }

    #[test]
    fn clone_shares_the_chunk_table_until_a_write_changes_a_byte() {
        let mut live = SparseMemory::new(3 * 64 * CHUNK as u64);
        live.fill(PhysAddr::new(0), 4096, 0xAA);
        live.write(PhysAddr::new(70 * CHUNK as u64), b"structured");
        live.write_byte(PhysAddr::new(130 * CHUNK as u64 + 9), 0x11);
        let snapshot = live.clone();
        let mut fork = snapshot.clone();
        assert!(
            fork.chunks.shares_run(&snapshot.chunks),
            "clone must share the table"
        );

        // Nothing that leaves every byte as it was may unshare the table.
        let mut buf = [0u8; 3 * CHUNK];
        fork.read(PhysAddr::new(69 * CHUNK as u64), &mut buf);
        assert_eq!(&buf[CHUNK..CHUNK + 10], b"structured");
        assert!(matches!(view(&fork, 130), ChunkView::Patched { .. }));
        fork.write_byte(PhysAddr::new(70 * CHUNK as u64), b's');
        fork.write_bit(PhysAddr::new(130 * CHUNK as u64 + 9), 0, true);
        fork.write(PhysAddr::new(5), &[0xAA; 7]);
        fork.fill(PhysAddr::new(0), 4096, 0xAA);
        fork.fill(PhysAddr::new(100 * CHUNK as u64 + 1), 5, 0);
        assert!(fork.chunks.shares_run(&snapshot.chunks));

        // A write that changes a byte copies out the run and its block.
        fork.write_byte(PhysAddr::new(70 * CHUNK as u64), b'S');
        assert!(!fork.chunks.shares_run(&snapshot.chunks));
        assert_eq!(
            fork.chunks.shared_blocks(&snapshot.chunks),
            [true, false, true]
        );
        assert_eq!(snapshot, live);
        fork.clone_from(&snapshot);
        assert!(fork.chunks.shares_run(&snapshot.chunks));
    }

    /// The stored form of chunk `chunk`, as [`SparseMemory::chunk_view`]
    /// reports it.
    fn view(m: &SparseMemory, chunk: u64) -> ChunkView<'_> {
        m.chunk_view(PhysAddr::new(chunk * CHUNK as u64))
    }

    #[test]
    fn byte_writes_on_a_filled_chunk_are_sorted_patches() {
        let mut m = SparseMemory::new(1 << 16);
        m.fill(PhysAddr::new(0x1000), 4096, 0xFF);
        m.write_bit(PhysAddr::new(0x1040), 3, false);
        m.write_byte(PhysAddr::new(0x1008), 0x00);
        m.write_byte(PhysAddr::new(0x1040), 0x17);
        assert_eq!(
            view(&m, 1),
            ChunkView::Patched {
                base: 0xFF,
                patches: &[(0x08, 0x00), (0x40, 0x17)]
            }
        );
        assert_eq!(m.materialized_chunks(), 0);
        assert_eq!(m.read_byte(PhysAddr::new(0x1040)), 0x17);
        assert_eq!(m.read_byte(PhysAddr::new(0x1041)), 0xFF);
        // An absent chunk patches its default byte.
        m.write_bit(PhysAddr::new(0x3005), 0, true);
        assert_eq!(
            view(&m, 3),
            ChunkView::Patched {
                base: 0,
                patches: &[(5, 1)]
            }
        );
    }

    #[test]
    fn writing_every_patch_back_returns_the_chunk_to_uniform() {
        let mut m = SparseMemory::new(1 << 16);
        m.fill(PhysAddr::new(0), 4096, 0xAA);
        for off in 0..MAX_PATCHES as u64 {
            m.write_byte(PhysAddr::new(off * 100), 0x55);
        }
        assert!(matches!(view(&m, 0), ChunkView::Patched { .. }));
        for off in 0..MAX_PATCHES as u64 {
            m.write_byte(PhysAddr::new(off * 100), 0xAA);
        }
        assert_eq!(view(&m, 0), ChunkView::Uniform(0xAA));
        assert_eq!(m.materialized_chunks(), 0);
    }

    #[test]
    fn a_patch_past_the_cap_materialises_the_chunk() {
        let mut m = SparseMemory::new(1 << 16);
        m.fill(PhysAddr::new(0), 4096, 0xAA);
        for off in 0..=MAX_PATCHES as u64 {
            m.write_byte(PhysAddr::new(off), off as u8);
        }
        let ChunkView::Bytes(bytes) = view(&m, 0) else {
            panic!("one patch too many materialises the chunk");
        };
        assert_eq!(
            &bytes[..=MAX_PATCHES + 1],
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 0xAA]
        );
        assert_eq!(m.materialized_chunks(), 1);
    }

    #[test]
    fn multi_byte_writes_and_partial_fills_materialise_and_whole_fills_drop_patches() {
        let mut m = SparseMemory::new(1 << 16);
        for chunk in 0..3u64 {
            m.fill(PhysAddr::new(chunk * 4096), 4096, 0xAA);
            m.write_byte(PhysAddr::new(chunk * 4096 + 9), 0x01);
        }
        m.write(PhysAddr::new(100), &[1, 2]);
        m.fill(PhysAddr::new(4096 + 100), 2, 0x33);
        assert!(matches!(view(&m, 0), ChunkView::Bytes(_)));
        assert!(matches!(view(&m, 1), ChunkView::Bytes(_)));
        assert_eq!(m.read_byte(PhysAddr::new(9)), 0x01);
        assert_eq!(m.read_byte(PhysAddr::new(4096 + 9)), 0x01);
        m.fill(PhysAddr::new(2 * 4096), 4096, 0xAA);
        assert_eq!(view(&m, 2), ChunkView::Uniform(0xAA));
    }

    #[test]
    fn clone_shares_a_patched_chunk_until_written() {
        let mut m = SparseMemory::new(1 << 16);
        m.fill(PhysAddr::new(0), 4096, 0xFF);
        m.write_byte(PhysAddr::new(3), 0x7F);
        let fork = m.clone();
        let shared = |a: &SparseMemory, b: &SparseMemory| match (a.chunks.get(0), b.chunks.get(0)) {
            (ChunkData::Patched(x), ChunkData::Patched(y)) => Arc::ptr_eq(x, y),
            _ => panic!("chunk 0 should be patched in both stores"),
        };
        assert!(shared(&m, &fork), "clone must share the patches");
        // A write that changes nothing leaves the chunk shared.
        m.write_byte(PhysAddr::new(3), 0x7F);
        assert!(shared(&m, &fork));
        m.write_byte(PhysAddr::new(4), 0x7F);
        assert!(!shared(&m, &fork), "a write must unshare the chunk");
        assert_eq!(fork.read_byte(PhysAddr::new(4)), 0xFF);
        assert_eq!(m.read_byte(PhysAddr::new(4)), 0x7F);
    }

    #[test]
    fn a_patched_chunk_equals_its_materialised_bytes() {
        let mut patched = SparseMemory::new(1 << 16);
        patched.fill(PhysAddr::new(0), 4096, 0xAB);
        patched.write_byte(PhysAddr::new(77), 0x01);
        let mut bytes = [0xAB; 4096];
        bytes[77] = 0x01;
        let mut materialised = SparseMemory::new(1 << 16);
        materialised.write(PhysAddr::new(0), &bytes);
        assert_eq!(materialised.materialized_chunks(), 1);
        assert_eq!(patched, materialised);
        assert_eq!(materialised, patched);
        let mut uniform = SparseMemory::new(1 << 16);
        uniform.fill(PhysAddr::new(0), 4096, 0xAB);
        assert_ne!(patched, uniform);
        patched.write_byte(PhysAddr::new(77), 0xAB);
        assert_eq!(patched, uniform);
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
        assert_eq!(
            m.chunks.stored().count(),
            0,
            "a query must not store the chunk"
        );
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
        let ChunkData::Bytes(stored) = m.chunks.get(2) else {
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
        let ChunkData::Bytes(shared) = m.chunks.get(0) else {
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
