//! Table storage abstraction.

/// A source of cipher lookup-table bytes.
///
/// Implementations may read from a plain in-process buffer, or — the point
/// of this design — from a page of simulated machine memory, so that a
/// Rowhammer flip in that page corrupts every later lookup.
///
/// Methods take `&mut self` because reading through a simulated machine is a
/// stateful operation (cache traffic, simulated time).
pub trait TableSource {
    /// Reads the byte at `offset` within the table image.
    fn read_u8(&mut self, offset: usize) -> u8;

    /// Reads a little-endian 32-bit word at `offset`.
    fn read_u32(&mut self, offset: usize) -> u32 {
        u32::from_le_bytes([
            self.read_u8(offset),
            self.read_u8(offset + 1),
            self.read_u8(offset + 2),
            self.read_u8(offset + 3),
        ])
    }

    /// Length of the table image in bytes.
    fn len(&mut self) -> usize;

    /// Returns `true` if the image is empty.
    fn is_empty(&mut self) -> bool {
        self.len() == 0
    }
}

/// A [`TableSource`] over a plain byte buffer, with fault-injection helpers.
///
/// # Examples
///
/// ```
/// use ciphers::{RamTableSource, TableSource};
/// let mut t = RamTableSource::new(vec![0x00, 0xFF]);
/// t.flip_bit(0, 3);
/// assert_eq!(t.read_u8(0), 0b0000_1000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RamTableSource {
    bytes: Vec<u8>,
}

impl RamTableSource {
    /// Wraps `bytes` as a table image.
    pub fn new(bytes: Vec<u8>) -> Self {
        RamTableSource { bytes }
    }

    /// XORs `1 << bit` into the byte at `offset` — a persistent bit-flip
    /// fault, exactly what a Rowhammer hit produces.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of range or `bit >= 8`.
    pub fn flip_bit(&mut self, offset: usize, bit: u8) {
        assert!(bit < 8, "bit index must be 0..8");
        self.bytes[offset] ^= 1 << bit;
    }

    /// The underlying bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the source, returning the buffer.
    pub fn into_inner(self) -> Vec<u8> {
        self.bytes
    }
}

impl TableSource for RamTableSource {
    fn read_u8(&mut self, offset: usize) -> u8 {
        self.bytes[offset]
    }

    fn len(&mut self) -> usize {
        self.bytes.len()
    }
}

/// A borrowed table image, read in place (a simulated machine's raw copy
/// of a table page, say).
impl TableSource for &[u8] {
    fn read_u8(&mut self, offset: usize) -> u8 {
        self[offset]
    }

    fn read_u32(&mut self, offset: usize) -> u32 {
        let word = &self[offset..offset + 4];
        u32::from_le_bytes([word[0], word[1], word[2], word[3]])
    }

    fn len(&mut self) -> usize {
        <[u8]>::len(self)
    }
}

impl<T: TableSource + ?Sized> TableSource for &mut T {
    fn read_u8(&mut self, offset: usize) -> u8 {
        (**self).read_u8(offset)
    }

    fn read_u32(&mut self, offset: usize) -> u32 {
        (**self).read_u32(offset)
    }

    fn len(&mut self) -> usize {
        (**self).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_u32_is_little_endian() {
        let mut t = RamTableSource::new(vec![0x01, 0x02, 0x03, 0x04]);
        assert_eq!(t.read_u32(0), 0x0403_0201);
    }

    #[test]
    fn flip_bit_is_involution() {
        let mut t = RamTableSource::new(vec![0xA5]);
        t.flip_bit(0, 7);
        assert_eq!(t.read_u8(0), 0x25);
        t.flip_bit(0, 7);
        assert_eq!(t.read_u8(0), 0xA5);
    }

    #[test]
    fn slice_reads_in_place() {
        let mut t: &[u8] = &[0x01, 0x02, 0x03, 0x04, 0x05];
        assert_eq!(t.read_u8(4), 0x05);
        assert_eq!(t.read_u32(1), 0x0504_0302);
        assert_eq!(TableSource::len(&mut t), 5);
    }

    #[test]
    fn mut_ref_impl_delegates() {
        let mut t = RamTableSource::new(vec![9, 8, 7]);
        let mut r = &mut t;
        assert_eq!(TableSource::read_u8(&mut r, 2), 7);
        assert_eq!(TableSource::len(&mut r), 3);
    }
}
