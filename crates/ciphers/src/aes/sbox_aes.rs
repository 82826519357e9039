//! AES whose every S-box lookup goes through a [`TableSource`].
//!
//! This is the implementation shape targeted by Persistent Fault Analysis
//! (Zhang et al., TCHES 2018, the paper's reference \[12\]): a single 256-byte
//! S-box table in memory, consulted by every round including the last. One
//! persistent bit flip in the table skews every ciphertext, and the
//! last-round statistics reveal the key.

use crate::aes::keyschedule::{expand_key, AesKeySize, RoundKeys};
use crate::source::TableSource;
use crate::traits::BlockCipher;

/// AES reading its S-box from a [`TableSource`] (see module docs).
///
/// # Examples
///
/// ```
/// use ciphers::{BlockCipher, RamTableSource, SboxAes, TableImage};
/// let mut aes = SboxAes::new_128(&[7u8; 16], RamTableSource::new(TableImage::sbox().to_vec()));
/// let mut block = [0u8; 16];
/// aes.encrypt_block(&mut block);
/// ```
#[derive(Debug, Clone)]
pub struct SboxAes<S> {
    keys: RoundKeys,
    source: S,
}

impl<S: TableSource> SboxAes<S> {
    /// AES-128 reading the S-box from `source` (a 256-byte image).
    pub fn new_128(key: &[u8; 16], source: S) -> Self {
        SboxAes {
            keys: expand_key(key, AesKeySize::Aes128),
            source,
        }
    }

    /// AES-192 variant.
    pub fn new_192(key: &[u8; 24], source: S) -> Self {
        SboxAes {
            keys: expand_key(key, AesKeySize::Aes192),
            source,
        }
    }

    /// AES-256 variant.
    pub fn new_256(key: &[u8; 32], source: S) -> Self {
        SboxAes {
            keys: expand_key(key, AesKeySize::Aes256),
            source,
        }
    }

    /// The table source (e.g. for fault injection in tests).
    pub fn source_mut(&mut self) -> &mut S {
        &mut self.source
    }
}

impl<S: TableSource> BlockCipher for SboxAes<S> {
    fn block_bytes(&self) -> usize {
        16
    }

    fn encrypt_block(&mut self, block: &mut [u8]) {
        let block: &mut [u8; 16] = block.try_into().expect("AES blocks are 16 bytes");
        encrypt(&self.keys, &mut self.source, block);
    }
}

/// Encrypts `block` with round keys expanded once by the caller and the
/// S-box read from `table` — the kernel behind [`SboxAes`], for callers
/// that encrypt many blocks under one key with a fresh source each time.
///
/// The state is four big-endian column words. Every round reads the table
/// once per state byte, in byte-index order (`block[0]` first), exactly one
/// `read_u8` each: a source that charges each read (simulated memory) sees
/// the same reads in the same order as a byte-wise AES.
///
/// # Examples
///
/// ```
/// use ciphers::{expand_key, sbox_aes_encrypt, AesKeySize, RamTableSource, TableImage};
/// let keys = expand_key(&[7u8; 16], AesKeySize::Aes128);
/// let mut table = RamTableSource::new(TableImage::sbox().to_vec());
/// let mut block = [0u8; 16];
/// sbox_aes_encrypt(&keys, &mut table, &mut block);
/// ```
pub fn encrypt(keys: &RoundKeys, table: &mut impl TableSource, block: &mut [u8; 16]) {
    let rounds = keys.size().rounds();
    let mut round_keys = keys.words().chunks_exact(4);
    let mut next_key = || round_keys.next().expect("rounds + 1 round keys");
    let k = next_key();
    let mut s = [0u32; 4];
    for (c, col) in s.iter_mut().enumerate() {
        let b = &block[4 * c..4 * c + 4];
        *col = u32::from_be_bytes([b[0], b[1], b[2], b[3]]) ^ k[c];
    }
    for _ in 1..rounds {
        let sub = sub_bytes(table, &s);
        let k = next_key();
        for (c, col) in s.iter_mut().enumerate() {
            *col = mix_column(shifted_column(&sub, c)) ^ k[c];
        }
    }
    let sub = sub_bytes(table, &s);
    let k = next_key();
    for c in 0..4 {
        let col = shifted_column(&sub, c) ^ k[c];
        block[4 * c..4 * c + 4].copy_from_slice(&col.to_be_bytes());
    }
}

/// The table bytes [`encrypt`] reads per block under a key of `size`: one
/// `read_u8` per state byte per round.
pub const fn byte_reads(size: AesKeySize) -> u64 {
    16 * size.rounds() as u64
}

/// SubBytes through `table`, in state byte order (column by column, top
/// row first).
fn sub_bytes(table: &mut impl TableSource, s: &[u32; 4]) -> [u8; 16] {
    let mut sub = [0u8; 16];
    for (out, col) in sub.chunks_exact_mut(4).zip(s) {
        for (o, b) in out.iter_mut().zip(col.to_be_bytes()) {
            *o = table.read_u8(b as usize);
        }
    }
    sub
}

/// Column `c` after ShiftRows, as a big-endian word: row `r` comes from
/// column `c + r`.
fn shifted_column(sub: &[u8; 16], c: usize) -> u32 {
    u32::from_be_bytes([
        sub[4 * c],
        sub[4 * ((c + 1) % 4) + 1],
        sub[4 * ((c + 2) % 4) + 2],
        sub[4 * ((c + 3) % 4) + 3],
    ])
}

/// Doubles each byte of `w` in GF(2^8).
fn xtime(w: u32) -> u32 {
    ((w & 0x7f7f_7f7f) << 1) ^ (((w >> 7) & 0x0101_0101) * 0x1b)
}

/// MixColumns on one big-endian column word: row `r` becomes
/// `2·a[r] ^ 3·a[r+1] ^ a[r+2] ^ a[r+3]`.
pub(crate) fn mix_column(w: u32) -> u32 {
    let next = w.rotate_left(8);
    xtime(w ^ next) ^ next ^ w.rotate_left(16) ^ w.rotate_left(24)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::reference::ReferenceAes;
    use crate::aes::tables::TableImage;
    use crate::source::RamTableSource;
    use rand::{Rng, SeedableRng};

    fn fresh(key: &[u8; 16]) -> SboxAes<RamTableSource> {
        SboxAes::new_128(key, RamTableSource::new(TableImage::sbox().to_vec()))
    }

    #[test]
    fn matches_reference_on_random_inputs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let key: [u8; 16] = rng.gen();
            let plain: [u8; 16] = rng.gen();
            let mut a = plain;
            let mut b = plain;
            ReferenceAes::new_128(&key).encrypt_block(&mut a);
            fresh(&key).encrypt_block(&mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn matches_reference_192_and_256() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let key192: [u8; 24] = rng.gen();
        let key256: [u8; 32] = rng.gen();
        let plain: [u8; 16] = rng.gen();
        let (mut a, mut b) = (plain, plain);
        ReferenceAes::new_192(&key192).encrypt_block(&mut a);
        SboxAes::new_192(&key192, RamTableSource::new(TableImage::sbox().to_vec()))
            .encrypt_block(&mut b);
        assert_eq!(a, b);
        let (mut a, mut b) = (plain, plain);
        ReferenceAes::new_256(&key256).encrypt_block(&mut a);
        SboxAes::new_256(&key256, RamTableSource::new(TableImage::sbox().to_vec()))
            .encrypt_block(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn faulted_sbox_changes_ciphertexts_persistently() {
        let key = [3u8; 16];
        let mut good = fresh(&key);
        let mut bad = fresh(&key);
        bad.source_mut().flip_bit(0x42, 5);
        let mut diffs = 0;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..64 {
            let plain: [u8; 16] = rng.gen();
            let (mut a, mut b) = (plain, plain);
            good.encrypt_block(&mut a);
            bad.encrypt_block(&mut b);
            if a != b {
                diffs += 1;
            }
        }
        // One S-box entry is consulted by at least one of the 160 encryption
        // lookups with probability 1-(255/256)^160 ≈ 0.465, so roughly half
        // of all ciphertexts are faulty — exactly the statistics PFA uses.
        assert!(diffs > 20, "only {diffs} of 64 ciphertexts differed");
    }

    #[test]
    fn missing_value_property_holds() {
        // The PFA invariant: with S[j] changed to S[j]^delta, the value S[j]
        // never appears as a last-round S-box output, so c[i] never equals
        // S[j] ^ k10[i] for the positions... for SboxAes, *all* positions.
        let key = [0x5Au8; 16];
        let (j, bit) = (0x17usize, 2u8);
        let mut bad = fresh(&key);
        bad.source_mut().flip_bit(j, bit);
        let missing = TableImage::sbox()[j];
        let rk10 = ReferenceAes::new_128(&key).round_keys().round_key(10);

        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..2000 {
            let mut block: [u8; 16] = rng.gen();
            bad.encrypt_block(&mut block);
            for i in 0..16 {
                assert_ne!(
                    block[i],
                    missing ^ rk10[i],
                    "impossible ciphertext byte appeared at position {i}"
                );
            }
        }
    }
}
