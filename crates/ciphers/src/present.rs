//! PRESENT-80, the lightweight SPN cipher (Bogdanov et al., CHES 2007) —
//! the second cipher evaluated by the Persistent Fault Analysis paper.
//!
//! The 4-bit S-box layer reads its table through a [`TableSource`] (a
//! 16-byte image), so a Rowhammer flip in the table page persistently
//! faults every encryption, exactly as for AES.

use crate::source::TableSource;
use crate::traits::BlockCipher;

/// The PRESENT S-box.
pub const PRESENT_SBOX: [u8; 16] = [
    0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2,
];

const MASK80: u128 = (1u128 << 80) - 1;

/// The PRESENT bit permutation: input bit `j` moves to `P(j)`.
pub const fn p_layer_target(j: u32) -> u32 {
    if j == 63 {
        63
    } else {
        (16 * j) % 63
    }
}

/// Applies the pLayer to a 64-bit state.
///
/// Input bit `4i + b` moves to `16b + i` (`i < 16`, `b < 4`), so output
/// lane `b` is every fourth input bit from `b`, gathered in order.
pub fn p_layer(state: u64) -> u64 {
    (0..4).fold(0, |out, b| {
        out | gather_every_fourth(state >> b) << (16 * b)
    })
}

/// Bits `0, 4, 8, …, 60` of `x`, packed into the low 16 bits.
fn gather_every_fourth(x: u64) -> u64 {
    let x = x & 0x1111_1111_1111_1111;
    let x = (x | x >> 3) & 0x0303_0303_0303_0303;
    let x = (x | x >> 6) & 0x000f_000f_000f_000f;
    let x = (x | x >> 12) & 0x0000_00ff_0000_00ff;
    (x | x >> 24) & 0xffff
}

/// Inverts the pLayer (used by fault analysis, which works backwards from
/// ciphertexts).
pub fn p_layer_inverse(state: u64) -> u64 {
    let mut out = 0u64;
    for j in 0..64u32 {
        out |= ((state >> p_layer_target(j)) & 1) << j;
    }
    out
}

/// The pristine 16-byte S-box image to place in (victim) memory.
pub fn present_sbox_image() -> [u8; 16] {
    PRESENT_SBOX
}

/// Expands an 80-bit key into the 32 round keys.
pub fn present80_round_keys(key: &[u8; 10]) -> [u64; 32] {
    let mut k: u128 = 0;
    for &b in key {
        k = (k << 8) | b as u128;
    }
    let mut keys = [0u64; 32];
    for (i, slot) in keys.iter_mut().enumerate() {
        *slot = (k >> 16) as u64;
        // Update for the next round key (counter is the 1-based round index).
        k = ((k << 61) | (k >> 19)) & MASK80;
        let nib = ((k >> 76) & 0xF) as usize;
        k = (k & !(0xFu128 << 76)) | ((PRESENT_SBOX[nib] as u128) << 76);
        k ^= ((i as u128) + 1) << 15;
    }
    keys
}

/// PRESENT-80 with its S-box layer read through a [`TableSource`].
///
/// # Examples
///
/// ```
/// use ciphers::{BlockCipher, present_sbox_image, Present80, RamTableSource};
/// let mut c = Present80::new(&[0u8; 10], RamTableSource::new(present_sbox_image().to_vec()));
/// let mut block = [0u8; 8];
/// c.encrypt_block(&mut block);
/// assert_eq!(block, [0x55, 0x79, 0xC1, 0x38, 0x7B, 0x22, 0x84, 0x45]);
/// ```
#[derive(Debug, Clone)]
pub struct Present80<S> {
    round_keys: [u64; 32],
    source: S,
}

impl<S: TableSource> Present80<S> {
    /// Creates the cipher from an 80-bit key and a 16-byte S-box image.
    pub fn new(key: &[u8; 10], source: S) -> Self {
        Present80 {
            round_keys: present80_round_keys(key),
            source,
        }
    }

    /// The table source (e.g. for fault injection in tests).
    pub fn source_mut(&mut self) -> &mut S {
        &mut self.source
    }

    /// The expanded round keys (fault-analysis ground truth in tests).
    pub fn round_keys(&self) -> &[u64; 32] {
        &self.round_keys
    }
}

impl<S: TableSource> BlockCipher for Present80<S> {
    fn block_bytes(&self) -> usize {
        8
    }

    fn encrypt_block(&mut self, block: &mut [u8]) {
        let block: &mut [u8; 8] = block.try_into().expect("PRESENT blocks are 8 bytes");
        encrypt(&self.round_keys, &mut self.source, block);
    }
}

/// Encrypts `block` with round keys expanded once by the caller
/// ([`present80_round_keys`]) and the S-box read from `table` — the kernel
/// behind [`Present80`], for callers that encrypt many blocks under one key
/// with a fresh source each time.
///
/// Each round's S-box layer reads the table once per nibble, least
/// significant nibble first, one `read_u8` each.
///
/// # Examples
///
/// ```
/// use ciphers::{present80_encrypt, present80_round_keys, present_sbox_image, RamTableSource};
/// let keys = present80_round_keys(&[0u8; 10]);
/// let mut table = RamTableSource::new(present_sbox_image().to_vec());
/// let mut block = [0u8; 8];
/// present80_encrypt(&keys, &mut table, &mut block);
/// assert_eq!(block, [0x55, 0x79, 0xC1, 0x38, 0x7B, 0x22, 0x84, 0x45]);
/// ```
pub fn encrypt(round_keys: &[u64; 32], table: &mut impl TableSource, block: &mut [u8; 8]) {
    let mut state = u64::from_be_bytes(*block);
    for &key in &round_keys[..31] {
        state = p_layer(sbox_layer(table, state ^ key));
    }
    *block = (state ^ round_keys[31]).to_be_bytes();
}

/// The table bytes [`encrypt`] reads per block: one `read_u8` per nibble in
/// each of the 31 rounds.
pub const BYTE_READS: u64 = 16 * 31;

fn sbox_layer(table: &mut impl TableSource, state: u64) -> u64 {
    let mut out = 0u64;
    for i in 0..16 {
        let v = ((state >> (4 * i)) & 0xF) as usize;
        out |= ((table.read_u8(v) & 0xF) as u64) << (4 * i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::RamTableSource;

    fn cipher(key: &[u8; 10]) -> Present80<RamTableSource> {
        Present80::new(key, RamTableSource::new(present_sbox_image().to_vec()))
    }

    fn enc(key: &[u8; 10], plain: u64) -> u64 {
        let mut block = plain.to_be_bytes();
        cipher(key).encrypt_block(&mut block);
        u64::from_be_bytes(block)
    }

    #[test]
    fn paper_test_vectors() {
        // From the PRESENT paper, Appendix I.
        assert_eq!(enc(&[0u8; 10], 0), 0x5579_C138_7B22_8445);
        assert_eq!(enc(&[0xFFu8; 10], 0), 0xE72C_46C0_F594_5049);
        assert_eq!(enc(&[0u8; 10], u64::MAX), 0xA112_FFC7_2F68_417B);
        assert_eq!(enc(&[0xFFu8; 10], u64::MAX), 0x3333_DCD3_2132_10D2);
    }

    #[test]
    fn p_layer_is_a_bijection() {
        let mut seen = [false; 64];
        for j in 0..64 {
            let t = p_layer_target(j) as usize;
            assert!(!seen[t], "pLayer target {t} hit twice");
            seen[t] = true;
        }
    }

    #[test]
    fn p_layer_moves_each_bit_to_its_target() {
        use rand::{Rng, SeedableRng};
        for j in 0..64u32 {
            assert_eq!(p_layer(1 << j), 1 << p_layer_target(j), "bit {j}");
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        for _ in 0..1000 {
            let s: u64 = rng.gen();
            let by_bit = (0..64u32).fold(0, |out, j| out | ((s >> j) & 1) << p_layer_target(j));
            assert_eq!(p_layer(s), by_bit);
        }
    }

    #[test]
    fn p_layer_inverse_roundtrips() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for _ in 0..100 {
            let s: u64 = rng.gen();
            assert_eq!(p_layer_inverse(p_layer(s)), s);
        }
    }

    #[test]
    fn sbox_fault_changes_ciphertexts() {
        let key = [7u8; 10];
        let mut good = cipher(&key);
        let mut bad = cipher(&key);
        bad.source_mut().flip_bit(0x9, 1); // S[9]: 0xE -> 0xC
        let mut diffs = 0;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..64 {
            let plain: [u8; 8] = rng.gen();
            let (mut a, mut b) = (plain, plain);
            good.encrypt_block(&mut a);
            bad.encrypt_block(&mut b);
            if a != b {
                diffs += 1;
            }
        }
        assert!(diffs > 40, "only {diffs}/64 differed");
    }

    #[test]
    fn round_keys_first_is_key_top_bits() {
        let key: [u8; 10] = [0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0, 0x11, 0x22];
        let rks = present80_round_keys(&key);
        assert_eq!(rks[0], 0x1234_5678_9ABC_DEF0);
    }
}
