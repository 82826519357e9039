//! The table-sourced kernels against their oracles: the byte-wise bodies
//! they replaced (`*_reference` below), which rebuild each 16-byte round
//! key, run MixColumns through `gf_mul` and re-index the state per byte.
//!
//! A victim's table source charges every read to a simulated machine, so a
//! kernel must match its oracle not only in the ciphertext but in the
//! exact sequence of table reads — offsets, widths and order. The proptest
//! drives both through a recording source over a table with one to three
//! flipped bits (the persistent faults the attack plants).
//!
//! The word-table kernel reads no table source; its oracle is the kernel
//! over the image its tables came from, in ciphertext. The batch form of
//! the word-table kernel, which runs eight blocks in lockstep, has the
//! single-block word-table kernel as its oracle, block by block.

use proptest::prelude::*;

use crate::aes::keyschedule::{expand_key, AesKeySize, RoundKeys};
use crate::aes::sbox::gf_mul;
use crate::aes::tables::TableImage;
use crate::aes::ttable::TE_TABLE_BYTES;
use crate::aes::words::AesWordTables;
use crate::present::{p_layer, present80_round_keys, present_sbox_image};
use crate::source::TableSource;

/// The byte-wise `SboxAes` body.
fn sbox_aes_reference(keys: &RoundKeys, source: &mut impl TableSource, block: &mut [u8; 16]) {
    fn sub_bytes(source: &mut impl TableSource, b: &mut [u8; 16]) {
        for x in b.iter_mut() {
            *x = source.read_u8(*x as usize);
        }
    }
    fn shift_rows(b: &mut [u8; 16]) {
        for r in 1..4 {
            let row = [b[r], b[4 + r], b[8 + r], b[12 + r]];
            for c in 0..4 {
                b[4 * c + r] = row[(c + r) % 4];
            }
        }
    }
    fn mix_columns(b: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [b[4 * c], b[4 * c + 1], b[4 * c + 2], b[4 * c + 3]];
            b[4 * c] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3];
            b[4 * c + 1] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3];
            b[4 * c + 2] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3);
            b[4 * c + 3] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2);
        }
    }
    fn add_round_key(b: &mut [u8; 16], rk: &[u8; 16]) {
        for (x, k) in b.iter_mut().zip(rk.iter()) {
            *x ^= k;
        }
    }

    let rounds = keys.size().rounds();
    add_round_key(block, &keys.round_key(0));
    for r in 1..rounds {
        sub_bytes(source, block);
        shift_rows(block);
        mix_columns(block);
        add_round_key(block, &keys.round_key(r));
    }
    sub_bytes(source, block);
    shift_rows(block);
    add_round_key(block, &keys.round_key(rounds));
}

/// The `TTableAes` body that rebuilt a 16-byte round key per word.
fn ttable_aes_reference(keys: &RoundKeys, source: &mut impl TableSource, block: &mut [u8; 16]) {
    fn te(source: &mut impl TableSource, table: usize, index: u32) -> u32 {
        source.read_u32(table * TE_TABLE_BYTES + (index as usize & 0xff) * 4)
    }
    fn round_key_word(keys: &RoundKeys, round: usize, col: usize) -> u32 {
        let rk = keys.round_key(round);
        u32::from_be_bytes([
            rk[4 * col],
            rk[4 * col + 1],
            rk[4 * col + 2],
            rk[4 * col + 3],
        ])
    }

    let rounds = keys.size().rounds();
    let mut s = [0u32; 4];
    for c in 0..4 {
        s[c] = u32::from_be_bytes([
            block[4 * c],
            block[4 * c + 1],
            block[4 * c + 2],
            block[4 * c + 3],
        ]) ^ round_key_word(keys, 0, c);
    }
    for r in 1..rounds {
        let mut t = [0u32; 4];
        for (c, slot) in t.iter_mut().enumerate() {
            *slot = te(source, 0, s[c] >> 24)
                ^ te(source, 1, (s[(c + 1) % 4] >> 16) & 0xff)
                ^ te(source, 2, (s[(c + 2) % 4] >> 8) & 0xff)
                ^ te(source, 3, s[(c + 3) % 4] & 0xff)
                ^ round_key_word(keys, r, c);
        }
        s = t;
    }
    let mut out = [0u32; 4];
    for (c, slot) in out.iter_mut().enumerate() {
        *slot = (te(source, 2, s[c] >> 24) & 0xff00_0000)
            ^ (te(source, 3, (s[(c + 1) % 4] >> 16) & 0xff) & 0x00ff_0000)
            ^ (te(source, 0, (s[(c + 2) % 4] >> 8) & 0xff) & 0x0000_ff00)
            ^ (te(source, 1, s[(c + 3) % 4] & 0xff) & 0x0000_00ff)
            ^ round_key_word(keys, rounds, c);
    }
    for c in 0..4 {
        block[4 * c..4 * c + 4].copy_from_slice(&out[c].to_be_bytes());
    }
}

/// The `Present80` body, key schedule expanded per encryption.
fn present80_reference(key: &[u8; 10], source: &mut impl TableSource, block: &mut [u8; 8]) {
    fn sbox_layer(source: &mut impl TableSource, state: u64) -> u64 {
        let mut out = 0u64;
        for i in 0..16 {
            let v = ((state >> (4 * i)) & 0xF) as usize;
            out |= ((source.read_u8(v) & 0xF) as u64) << (4 * i);
        }
        out
    }

    let round_keys = present80_round_keys(key);
    let mut state = u64::from_be_bytes(*block);
    for key in &round_keys[..31] {
        state ^= key;
        state = sbox_layer(source, state);
        state = p_layer(state);
    }
    state ^= round_keys[31];
    *block = state.to_be_bytes();
}

/// A table source logging every read as `(offset, width)`.
struct Recording {
    bytes: Vec<u8>,
    log: Vec<(usize, u8)>,
}

impl Recording {
    /// `image` with bit `f % 8` of byte `(f / 8) % len` flipped for each
    /// `f` in `flips`.
    fn faulted(mut image: Vec<u8>, flips: &[usize]) -> Self {
        let len = image.len();
        for &f in flips {
            image[(f / 8) % len] ^= 1 << (f % 8);
        }
        Recording {
            bytes: image,
            log: Vec::new(),
        }
    }
}

impl TableSource for Recording {
    fn read_u8(&mut self, offset: usize) -> u8 {
        self.log.push((offset, 1));
        self.bytes[offset]
    }

    fn read_u32(&mut self, offset: usize) -> u32 {
        self.log.push((offset, 4));
        let w = &self.bytes[offset..offset + 4];
        u32::from_le_bytes([w[0], w[1], w[2], w[3]])
    }

    fn len(&mut self) -> usize {
        self.bytes.len()
    }
}

/// Runs `kernel` and `oracle` on twin recording sources over `image`
/// faulted at `flips`; both must give the same block and the same read
/// log, whose widths sum to `byte_reads` (the fixed count a warm victim
/// session charges per block).
fn check<const N: usize>(
    image: Vec<u8>,
    flips: &[usize],
    plain: [u8; N],
    byte_reads: u64,
    kernel: impl FnOnce(&mut Recording, &mut [u8; N]),
    oracle: impl FnOnce(&mut Recording, &mut [u8; N]),
) -> Result<(), TestCaseError> {
    let (mut fast, mut slow) = (
        Recording::faulted(image.clone(), flips),
        Recording::faulted(image, flips),
    );
    let (mut a, mut b) = (plain, plain);
    kernel(&mut fast, &mut a);
    oracle(&mut slow, &mut b);
    prop_assert_eq!(a, b);
    let widths: u64 = fast.log.iter().map(|&(_, width)| u64::from(width)).sum();
    prop_assert_eq!(widths, byte_reads);
    prop_assert!(fast.log == slow.log, "read logs differ");
    Ok(())
}

/// An AES key of the size `pick` selects (0: 128, 1: 192, 2: 256 bits).
fn aes_keys(pick: usize, key: &[u8; 32]) -> RoundKeys {
    let size = [AesKeySize::Aes128, AesKeySize::Aes192, AesKeySize::Aes256][pick];
    expand_key(&key[..size.key_bytes()], size)
}

proptest! {
    /// S-box AES: one byte read per state byte per round.
    #[test]
    fn sbox_aes_kernel_matches_reference(
        pick in 0usize..3,
        key in any::<[u8; 32]>(),
        plain in any::<[u8; 16]>(),
        flips in proptest::collection::vec(0usize..256 * 8, 1..4),
    ) {
        let keys = aes_keys(pick, &key);
        check(
            TableImage::sbox().to_vec(),
            &flips,
            plain,
            crate::aes::sbox_aes::byte_reads(keys.size()),
            |t, b| crate::aes::sbox_aes::encrypt(&keys, t, b),
            |t, b| sbox_aes_reference(&keys, t, b),
        )?;
    }

    /// T-table AES: one word read per state byte per round.
    #[test]
    fn ttable_aes_kernel_matches_reference(
        pick in 0usize..3,
        key in any::<[u8; 32]>(),
        plain in any::<[u8; 16]>(),
        flips in proptest::collection::vec(0usize..4096 * 8, 1..4),
    ) {
        let keys = aes_keys(pick, &key);
        check(
            TableImage::te_tables(),
            &flips,
            plain,
            crate::aes::ttable::byte_reads(keys.size()),
            |t, b| crate::aes::ttable::encrypt(&keys, t, b),
            |t, b| ttable_aes_reference(&keys, t, b),
        )?;
    }

    /// PRESENT-80 with its schedule expanded once: one byte read per
    /// nibble per round.
    #[test]
    fn present80_kernel_matches_reference(
        key in any::<[u8; 10]>(),
        plain in any::<[u8; 8]>(),
        flips in proptest::collection::vec(0usize..16 * 8, 1..4),
    ) {
        let round_keys = present80_round_keys(&key);
        check(
            present_sbox_image().to_vec(),
            &flips,
            plain,
            crate::present::BYTE_READS,
            |t, b| crate::present::encrypt(&round_keys, t, b),
            |t, b| present80_reference(&key, t, b),
        )?;
    }

    /// Word tables prepared from an S-box or Te image with zero to three
    /// flipped bits: the same ciphertext as the kernel over that image.
    #[test]
    fn word_kernel_matches_table_source_kernels(
        pick in 0usize..3,
        key in any::<[u8; 32]>(),
        plain in any::<[u8; 16]>(),
        te in any::<bool>(),
        flips in proptest::collection::vec(0usize..4096 * 8, 0..4),
    ) {
        let keys = aes_keys(pick, &key);
        let (mut a, mut b) = (plain, plain);
        if te {
            let image = Recording::faulted(TableImage::te_tables(), &flips).bytes;
            crate::aes::words::encrypt(&keys, &AesWordTables::from_te(&image), &mut a);
            crate::aes::ttable::encrypt(&keys, &mut &image[..], &mut b);
        } else {
            let image = Recording::faulted(TableImage::sbox().to_vec(), &flips).bytes;
            crate::aes::words::encrypt(&keys, &AesWordTables::from_sbox(&image), &mut a);
            crate::aes::sbox_aes::encrypt(&keys, &mut &image[..], &mut b);
        }
        prop_assert_eq!(a, b);
    }

    /// Word tables as above: every prefix of a batch of 70 blocks, so
    /// every length from 0 to 70 — multiples of the lane count and
    /// remainders alike — encrypts each block as the single-block kernel
    /// does.
    #[test]
    fn word_batch_kernel_matches_one_block_at_a_time(
        pick in 0usize..3,
        key in any::<[u8; 32]>(),
        te in any::<bool>(),
        flips in proptest::collection::vec(0usize..4096 * 8, 0..4),
        plains in proptest::collection::vec(any::<[u8; 16]>(), 70),
    ) {
        let keys = aes_keys(pick, &key);
        let tables = if te {
            AesWordTables::from_te(&Recording::faulted(TableImage::te_tables(), &flips).bytes)
        } else {
            let image = Recording::faulted(TableImage::sbox().to_vec(), &flips).bytes;
            AesWordTables::from_sbox(&image)
        };
        let mut one_at_a_time = plains.clone();
        for block in &mut one_at_a_time {
            crate::aes::words::encrypt(&keys, &tables, block);
        }
        for len in 0..=plains.len() {
            let mut batch = plains[..len].to_vec();
            crate::aes::words::encrypt_blocks(&keys, &tables, &mut batch);
            prop_assert_eq!(&batch[..], &one_at_a_time[..len], "batch of {}", len);
        }
    }
}
