//! T-table AES reading `Te0..Te3` through a [`TableSource`].
//!
//! This is the OpenSSL implementation shape the ExplFrame paper targets: the
//! four 1 KiB `Te` tables fill exactly one 4 KiB page. Rounds 1..N-1 combine
//! full `Te` words; the final round extracts the pure-`S[x]` byte lanes of
//! the same tables with masks — so a single bit flip anywhere in the page
//! corrupts encryption, and a flip in an *S-lane* byte additionally faults
//! the final round in a PFA-exploitable way (see the `fault` crate).

use crate::aes::keyschedule::{expand_key, AesKeySize, RoundKeys};
use crate::aes::tables::TE_TABLE_BYTES_INNER;
use crate::source::TableSource;
use crate::traits::BlockCipher;

/// Byte length of one `Te` table within the image.
pub const TE_TABLE_BYTES: usize = TE_TABLE_BYTES_INNER;

/// For each table `Te0..Te3`, the little-endian byte lane holding `S[x]`
/// that the final round extracts.
///
/// `Te0[x] = (2S, S, S, 3S)` (MSB→LSB), so its lane 1 (the `0x0000ff00`
/// mask) is pure `S[x]`; the rotated tables shift that lane accordingly.
/// A Rowhammer flip landing in one of these lanes faults the final round —
/// the PFA-exploitable case.
pub const FINAL_ROUND_S_LANE: [usize; 4] = [1, 0, 3, 2];

/// T-table AES over a [`TableSource`] holding the 4096-byte Te image.
///
/// # Examples
///
/// ```
/// use ciphers::{BlockCipher, RamTableSource, TTableAes, TableImage};
/// let mut aes = TTableAes::new_128(&[1u8; 16], RamTableSource::new(TableImage::te_tables()));
/// let mut block = *b"attack at dawn!!";
/// aes.encrypt_block(&mut block);
/// ```
#[derive(Debug, Clone)]
pub struct TTableAes<S> {
    keys: RoundKeys,
    source: S,
}

impl<S: TableSource> TTableAes<S> {
    /// AES-128 reading `Te0..Te3` from `source` (a 4096-byte image).
    pub fn new_128(key: &[u8; 16], source: S) -> Self {
        TTableAes {
            keys: expand_key(key, AesKeySize::Aes128),
            source,
        }
    }

    /// AES-192 variant.
    pub fn new_192(key: &[u8; 24], source: S) -> Self {
        TTableAes {
            keys: expand_key(key, AesKeySize::Aes192),
            source,
        }
    }

    /// AES-256 variant.
    pub fn new_256(key: &[u8; 32], source: S) -> Self {
        TTableAes {
            keys: expand_key(key, AesKeySize::Aes256),
            source,
        }
    }

    /// The table source (e.g. for fault injection in tests).
    pub fn source_mut(&mut self) -> &mut S {
        &mut self.source
    }
}

impl<S: TableSource> BlockCipher for TTableAes<S> {
    fn block_bytes(&self) -> usize {
        16
    }

    fn encrypt_block(&mut self, block: &mut [u8]) {
        let block: &mut [u8; 16] = block.try_into().expect("AES blocks are 16 bytes");
        encrypt(&self.keys, &mut self.source, block);
    }
}

/// Encrypts `block` with round keys expanded once by the caller and
/// `Te0..Te3` read from `table` — the kernel behind [`TTableAes`], for
/// callers that encrypt many blocks under one key with a fresh source each
/// time.
///
/// Each round reads, column by column, `Te0`, `Te1`, `Te2`, `Te3` (the
/// final round `Te2`, `Te3`, `Te0`, `Te1`), one `read_u32` each: a source
/// that charges each read (simulated memory) sees the same reads in the
/// same order on every encryption.
///
/// # Examples
///
/// ```
/// use ciphers::{expand_key, ttable_aes_encrypt, AesKeySize, RamTableSource, TableImage};
/// let keys = expand_key(&[1u8; 16], AesKeySize::Aes128);
/// let mut table = RamTableSource::new(TableImage::te_tables());
/// let mut block = *b"attack at dawn!!";
/// ttable_aes_encrypt(&keys, &mut table, &mut block);
/// ```
pub fn encrypt(keys: &RoundKeys, table: &mut impl TableSource, block: &mut [u8; 16]) {
    let rk = keys.words();
    let rounds = keys.size().rounds();
    let mut s = [0u32; 4];
    for (c, col) in s.iter_mut().enumerate() {
        let b = &block[4 * c..4 * c + 4];
        *col = u32::from_be_bytes([b[0], b[1], b[2], b[3]]) ^ rk[c];
    }

    for r in 1..rounds {
        let mut t = [0u32; 4];
        for (c, slot) in t.iter_mut().enumerate() {
            *slot = te(table, 0, s[c] >> 24)
                ^ te(table, 1, s[(c + 1) % 4] >> 16)
                ^ te(table, 2, s[(c + 2) % 4] >> 8)
                ^ te(table, 3, s[(c + 3) % 4])
                ^ rk[4 * r + c];
        }
        s = t;
    }

    // Final round: no MixColumns — extract the S[x] lanes with masks.
    for c in 0..4 {
        let out = (te(table, 2, s[c] >> 24) & 0xff00_0000)
            ^ (te(table, 3, s[(c + 1) % 4] >> 16) & 0x00ff_0000)
            ^ (te(table, 0, s[(c + 2) % 4] >> 8) & 0x0000_ff00)
            ^ (te(table, 1, s[(c + 3) % 4]) & 0x0000_00ff)
            ^ rk[4 * rounds + c];
        block[4 * c..4 * c + 4].copy_from_slice(&out.to_be_bytes());
    }
}

/// The table bytes [`encrypt`] reads per block under a key of `size`: one
/// four-byte `read_u32` per state byte per round.
pub const fn byte_reads(size: AesKeySize) -> u64 {
    4 * 16 * size.rounds() as u64
}

/// Entry `index & 0xff` of `Te{t}`.
fn te(table: &mut impl TableSource, t: usize, index: u32) -> u32 {
    table.read_u32(t * TE_TABLE_BYTES + (index as usize & 0xff) * 4)
}

/// The final-round table used by ciphertext byte position `p` (0..16):
/// positions `4c+0` read `Te2`, `4c+1` read `Te3`, `4c+2` read `Te0`,
/// `4c+3` read `Te1`.
pub fn final_round_table_for_position(p: usize) -> usize {
    assert!(p < 16, "AES has 16 ciphertext byte positions");
    [2usize, 3, 0, 1][p % 4]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::reference::ReferenceAes;
    use crate::aes::tables::TableImage;
    use crate::source::RamTableSource;
    use rand::{Rng, SeedableRng};

    fn fresh(key: &[u8; 16]) -> TTableAes<RamTableSource> {
        TTableAes::new_128(key, RamTableSource::new(TableImage::te_tables()))
    }

    #[test]
    fn matches_reference_on_random_inputs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        for _ in 0..100 {
            let key: [u8; 16] = rng.gen();
            let plain: [u8; 16] = rng.gen();
            let (mut a, mut b) = (plain, plain);
            ReferenceAes::new_128(&key).encrypt_block(&mut a);
            fresh(&key).encrypt_block(&mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn matches_reference_192_256() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let key192: [u8; 24] = rng.gen();
        let key256: [u8; 32] = rng.gen();
        let plain: [u8; 16] = rng.gen();
        let (mut a, mut b) = (plain, plain);
        ReferenceAes::new_192(&key192).encrypt_block(&mut a);
        TTableAes::new_192(&key192, RamTableSource::new(TableImage::te_tables()))
            .encrypt_block(&mut b);
        assert_eq!(a, b);
        let (mut a, mut b) = (plain, plain);
        ReferenceAes::new_256(&key256).encrypt_block(&mut a);
        TTableAes::new_256(&key256, RamTableSource::new(TableImage::te_tables()))
            .encrypt_block(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn fips_197_vector() {
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let mut block: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        fresh(&key).encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                0xc5, 0x5a
            ]
        );
    }

    #[test]
    fn s_lane_fault_affects_expected_positions() {
        // Flip a bit in Te2's S-lane (lane 3): ciphertext positions 0,4,8,12
        // read that lane in the final round; the "missing value" property
        // must hold there (and generally not elsewhere).
        let key = [0x21u8; 16];
        let entry = 0x3Ausize;
        let lane = FINAL_ROUND_S_LANE[2]; // table Te2
        let offset = TableImage::te_entry_offset(2, entry) + lane;
        let mut bad = fresh(&key);
        bad.source_mut().flip_bit(offset, 6);

        let missing = TableImage::sbox()[entry];
        let rk10 = ReferenceAes::new_128(&key).round_keys().round_key(10);
        let affected = [0usize, 4, 8, 12];

        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut seen_at_unaffected = false;
        for _ in 0..4000 {
            let mut block: [u8; 16] = rng.gen();
            bad.encrypt_block(&mut block);
            for p in 0..16 {
                if affected.contains(&p) {
                    assert_ne!(
                        block[p],
                        missing ^ rk10[p],
                        "impossible value appeared at faulted position {p}"
                    );
                } else if block[p] == missing ^ rk10[p] {
                    seen_at_unaffected = true;
                }
            }
        }
        assert!(
            seen_at_unaffected,
            "unaffected positions should produce the value eventually"
        );
    }

    #[test]
    fn position_table_mapping() {
        assert_eq!(final_round_table_for_position(0), 2);
        assert_eq!(final_round_table_for_position(1), 3);
        assert_eq!(final_round_table_for_position(2), 0);
        assert_eq!(final_round_table_for_position(3), 1);
        assert_eq!(final_round_table_for_position(13), 3);
    }

    #[test]
    fn non_s_lane_fault_still_corrupts_ciphertexts() {
        // A flip outside the S-lanes corrupts middle rounds only; the ct is
        // still wrong (persistent fault), just not PFA-exploitable directly.
        let key = [9u8; 16];
        let offset = TableImage::te_entry_offset(0, 0x10); // lane 0 of Te0 = 3S lane
        let mut bad = fresh(&key);
        bad.source_mut().flip_bit(offset, 0);
        let mut good = fresh(&key);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut diffs = 0;
        for _ in 0..512 {
            let plain: [u8; 16] = rng.gen();
            let (mut a, mut b) = (plain, plain);
            good.encrypt_block(&mut a);
            bad.encrypt_block(&mut b);
            if a != b {
                diffs += 1;
            }
        }
        // Te0 serves 4 lookups per middle round: 36 per block, so the entry
        // is consulted with probability 1-(255/256)^36 ≈ 0.13.
        assert!(diffs > 30, "only {diffs}/512 differed");
    }
}
