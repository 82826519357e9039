//! AES over word tables prepared once from a table image.
//!
//! The table-source kernels ([`crate::sbox_aes_encrypt`],
//! [`crate::ttable_aes_encrypt`]) read the victim's table image byte by
//! byte or word by word, in the exact order a simulated machine charges.
//! When the image cannot change between encryptions, the same ciphertexts
//! come from four 256-word tables and four 256-byte final-round rows
//! derived from it once.
//!
//! The derivation is exact for *any* S-box, a faulted one included:
//! MixColumns is linear over GF(2), so SubBytes + ShiftRows + MixColumns of
//! a column is the XOR over its rows of `mix_column(S[x] << 24)` rotated
//! right by eight bits per row. The final round has no MixColumns and reads
//! the S-box itself. A Te image already holds those words; its final-round
//! rows are the byte lanes [`crate::ttable_aes_encrypt`] masks out.

use crate::aes::keyschedule::RoundKeys;
use crate::aes::sbox_aes::mix_column;
use crate::aes::ttable::{final_round_table_for_position, FINAL_ROUND_S_LANE, TE_TABLE_BYTES};

/// The tables [`encrypt`] reads: `Te0..Te3` for rounds 1..N-1 and, per
/// output row, the S-box the final round reads.
///
/// # Examples
///
/// ```
/// use ciphers::{AesWordTables, TableImage};
/// let from_sbox = AesWordTables::from_sbox(&TableImage::sbox());
/// assert!(from_sbox == AesWordTables::from_te(&TableImage::te_tables()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AesWordTables {
    te: [[u32; 256]; 4],
    last: [[u8; 256]; 4],
}

impl AesWordTables {
    /// The tables of a 256-byte S-box image: `Te0[x]` is MixColumns of the
    /// column `(S[x], 0, 0, 0)`, `Te{r}` is `Te0` rotated right by `8r`
    /// bits, and every final-round row is the image itself.
    ///
    /// # Panics
    ///
    /// Panics if `image` is not 256 bytes long.
    #[must_use]
    pub fn from_sbox(image: &[u8]) -> Self {
        let sbox: &[u8; 256] = image.try_into().expect("an S-box image is 256 bytes");
        let mut te = [[0u32; 256]; 4];
        for (x, &s) in sbox.iter().enumerate() {
            let word = mix_column(u32::from(s) << 24);
            for (r, table) in te.iter_mut().enumerate() {
                table[x] = word.rotate_right(8 * r as u32);
            }
        }
        AesWordTables {
            te,
            last: [*sbox; 4],
        }
    }

    /// The tables of a 4096-byte Te image: its little-endian words, and as
    /// final-round row `r` the S lane of the table row `r` reads there
    /// (`Te2`, `Te3`, `Te0`, `Te1` in turn).
    ///
    /// # Panics
    ///
    /// Panics if `image` is not 4096 bytes long.
    #[must_use]
    pub fn from_te(image: &[u8]) -> Self {
        assert_eq!(image.len(), 4 * TE_TABLE_BYTES, "a Te image is 4096 bytes");
        let mut te = [[0u32; 256]; 4];
        for (table, bytes) in te.iter_mut().zip(image.chunks_exact(TE_TABLE_BYTES)) {
            for (word, b) in table.iter_mut().zip(bytes.chunks_exact(4)) {
                *word = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            }
        }
        let mut last = [[0u8; 256]; 4];
        for (r, row) in last.iter_mut().enumerate() {
            let t = final_round_table_for_position(r);
            let lane = FINAL_ROUND_S_LANE[t];
            for (x, s) in row.iter_mut().enumerate() {
                *s = image[t * TE_TABLE_BYTES + 4 * x + lane];
            }
        }
        AesWordTables { te, last }
    }
}

/// Encrypts `block` with round keys expanded once by the caller and the
/// prepared `tables`, for every AES key size. It computes what
/// [`crate::sbox_aes_encrypt`] over the S-box image, or
/// [`crate::ttable_aes_encrypt`] over the Te image, the tables came from
/// computes, but reads no [`crate::TableSource`].
///
/// # Examples
///
/// ```
/// use ciphers::{expand_key, words_aes_encrypt, AesKeySize, AesWordTables, TableImage};
/// let keys = expand_key(&[7u8; 16], AesKeySize::Aes128);
/// let tables = AesWordTables::from_sbox(&TableImage::sbox());
/// let mut block = [0u8; 16];
/// words_aes_encrypt(&keys, &tables, &mut block);
/// ```
pub fn encrypt(keys: &RoundKeys, tables: &AesWordTables, block: &mut [u8; 16]) {
    let rk = keys.words();
    let rounds = keys.size().rounds();
    let [t0, t1, t2, t3] = &tables.te;
    let mut s = load(block, rk);
    for k in rk[4..4 * rounds].chunks_exact(4) {
        s = [0, 1, 2, 3].map(|c| {
            t0[usize::from((s[c] >> 24) as u8)]
                ^ t1[usize::from((s[(c + 1) % 4] >> 16) as u8)]
                ^ t2[usize::from((s[(c + 2) % 4] >> 8) as u8)]
                ^ t3[usize::from(s[(c + 3) % 4] as u8)]
                ^ k[c]
        });
    }
    store(tables, rk, rounds, &s, block);
}

/// Blocks [`encrypt_blocks`] runs in lockstep. Measured on 64-block
/// batches over S-box word tables (AES-128, a 2-vCPU x86-64 host), per
/// block against [`encrypt`] one block at a time: eight lanes ran at
/// 0.69–0.96 of its time, sixteen the same, two at 0.84–1.12 and four at
/// 0.85–1.21, so eight it is. The lane loop must stay a plain loop over an
/// array of states: the same body at one lane ran at 2.5 times
/// [`encrypt`]'s time, which is why a batch's remainder runs [`encrypt`].
const LANES: usize = 8;

/// Encrypts every block of `blocks` as [`encrypt`] would, one after the
/// other, but runs eight blocks through each round in lockstep. Their
/// table lookups are independent, so the processor overlaps them; a batch
/// length that is not a multiple of eight ends with single blocks.
///
/// # Examples
///
/// ```
/// use ciphers::{
///     expand_key, words_aes_encrypt, words_aes_encrypt_blocks, AesKeySize, AesWordTables,
///     TableImage,
/// };
/// let keys = expand_key(&[7u8; 16], AesKeySize::Aes128);
/// let tables = AesWordTables::from_sbox(&TableImage::sbox());
/// let mut batch = [[1u8; 16], [2u8; 16], [3u8; 16]];
/// let mut one = [2u8; 16];
/// words_aes_encrypt_blocks(&keys, &tables, &mut batch);
/// words_aes_encrypt(&keys, &tables, &mut one);
/// assert_eq!(batch[1], one);
/// ```
pub fn encrypt_blocks(keys: &RoundKeys, tables: &AesWordTables, blocks: &mut [[u8; 16]]) {
    let mut chunks = blocks.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        encrypt_lanes(
            keys,
            tables,
            chunk.try_into().expect("chunks of LANES blocks"),
        );
    }
    for block in chunks.into_remainder() {
        encrypt(keys, tables, block);
    }
}

/// [`encrypt`] on [`LANES`] blocks, round by round.
fn encrypt_lanes(keys: &RoundKeys, tables: &AesWordTables, blocks: &mut [[u8; 16]; LANES]) {
    let rk = keys.words();
    let rounds = keys.size().rounds();
    let [t0, t1, t2, t3] = &tables.te;
    let mut states = [[0u32; 4]; LANES];
    for (s, block) in states.iter_mut().zip(blocks.iter()) {
        *s = load(block, rk);
    }
    for k in rk[4..4 * rounds].chunks_exact(4) {
        for s in states.iter_mut() {
            let x = *s;
            *s = [0, 1, 2, 3].map(|c| {
                t0[usize::from((x[c] >> 24) as u8)]
                    ^ t1[usize::from((x[(c + 1) % 4] >> 16) as u8)]
                    ^ t2[usize::from((x[(c + 2) % 4] >> 8) as u8)]
                    ^ t3[usize::from(x[(c + 3) % 4] as u8)]
                    ^ k[c]
            });
        }
    }
    for (s, block) in states.iter().zip(blocks.iter_mut()) {
        store(tables, rk, rounds, s, block);
    }
}

/// The state of `block` after the first AddRoundKey.
#[inline(always)]
fn load(block: &[u8; 16], rk: &[u32]) -> [u32; 4] {
    [0, 1, 2, 3].map(|c| {
        let b = &block[4 * c..4 * c + 4];
        u32::from_be_bytes([b[0], b[1], b[2], b[3]]) ^ rk[c]
    })
}

/// The final round of state `s` (SubBytes from the final-round rows,
/// ShiftRows, AddRoundKey), written to `block`.
#[inline(always)]
fn store(tables: &AesWordTables, rk: &[u32], rounds: usize, s: &[u32; 4], block: &mut [u8; 16]) {
    let [l0, l1, l2, l3] = &tables.last;
    for c in 0..4 {
        let col = u32::from_be_bytes([
            l0[usize::from((s[c] >> 24) as u8)],
            l1[usize::from((s[(c + 1) % 4] >> 16) as u8)],
            l2[usize::from((s[(c + 2) % 4] >> 8) as u8)],
            l3[usize::from(s[(c + 3) % 4] as u8)],
        ]) ^ rk[4 * rounds + c];
        block[4 * c..4 * c + 4].copy_from_slice(&col.to_be_bytes());
    }
}
