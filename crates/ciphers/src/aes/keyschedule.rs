//! AES key expansion and its inversion.
//!
//! The inversion ([`invert_last_round_key_128`]) is what turns a recovered
//! *last round key* — the direct output of Persistent Fault Analysis — back
//! into the AES-128 master key.

use crate::aes::sbox::sbox;

/// AES key sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AesKeySize {
    /// 128-bit key, 10 rounds.
    Aes128,
    /// 192-bit key, 12 rounds.
    Aes192,
    /// 256-bit key, 14 rounds.
    Aes256,
}

impl AesKeySize {
    /// Key length in bytes.
    pub const fn key_bytes(self) -> usize {
        match self {
            AesKeySize::Aes128 => 16,
            AesKeySize::Aes192 => 24,
            AesKeySize::Aes256 => 32,
        }
    }

    /// Number of rounds.
    pub const fn rounds(self) -> usize {
        match self {
            AesKeySize::Aes128 => 10,
            AesKeySize::Aes192 => 12,
            AesKeySize::Aes256 => 14,
        }
    }

    /// Key words (`Nk`).
    const fn nk(self) -> usize {
        self.key_bytes() / 4
    }
}

/// Round-key words of the largest key size (AES-256: 15 round keys).
const MAX_WORDS: usize = 60;

/// Expanded round keys: `rounds + 1` round keys of 16 bytes each, held
/// inline as the FIPS-197 word schedule (no heap).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundKeys {
    size: AesKeySize,
    /// `w[0..4 * (rounds + 1)]`; the words past it stay zero.
    words: [u32; MAX_WORDS],
}

impl RoundKeys {
    /// The key size these round keys were expanded from.
    pub fn size(&self) -> AesKeySize {
        self.size
    }

    /// The whole schedule `w[0..4 * (rounds + 1)]`: word `4r + c` is
    /// column `c` of round key `r`, big-endian (row 0 in the top byte).
    pub fn words(&self) -> &[u32] {
        &self.words[..4 * (self.size.rounds() + 1)]
    }

    /// Round key `r` as 16 bytes (big-endian words, FIPS order).
    ///
    /// # Panics
    ///
    /// Panics if `r > rounds`.
    pub fn round_key(&self, r: usize) -> [u8; 16] {
        assert!(r <= self.size.rounds(), "round {r} out of range");
        let mut out = [0u8; 16];
        for c in 0..4 {
            out[4 * c..4 * c + 4].copy_from_slice(&self.words[4 * r + c].to_be_bytes());
        }
        out
    }

    /// All round keys, in order.
    pub fn iter(&self) -> impl Iterator<Item = [u8; 16]> + '_ {
        (0..=self.size.rounds()).map(|r| self.round_key(r))
    }
}

fn sub_word(w: u32) -> u32 {
    let s = sbox();
    let b = w.to_be_bytes();
    u32::from_be_bytes([
        s[b[0] as usize],
        s[b[1] as usize],
        s[b[2] as usize],
        s[b[3] as usize],
    ])
}

const RCON: [u32; 10] = [
    0x0100_0000,
    0x0200_0000,
    0x0400_0000,
    0x0800_0000,
    0x1000_0000,
    0x2000_0000,
    0x4000_0000,
    0x8000_0000,
    0x1B00_0000,
    0x3600_0000,
];

/// Expands `key` into round keys (FIPS-197 §5.2).
///
/// # Panics
///
/// Panics if `key.len()` does not match `size`.
pub fn expand_key(key: &[u8], size: AesKeySize) -> RoundKeys {
    assert_eq!(
        key.len(),
        size.key_bytes(),
        "key length mismatch for {size:?}"
    );
    let nk = size.nk();
    let total_words = 4 * (size.rounds() + 1);
    let mut words = [0u32; MAX_WORDS];
    for (w, k) in words.iter_mut().zip(key.chunks_exact(4)) {
        *w = u32::from_be_bytes([k[0], k[1], k[2], k[3]]);
    }
    for i in nk..total_words {
        let mut temp = words[i - 1];
        if i % nk == 0 {
            temp = sub_word(temp.rotate_left(8)) ^ RCON[i / nk - 1];
        } else if nk > 6 && i % nk == 4 {
            temp = sub_word(temp);
        }
        words[i] = words[i - nk] ^ temp;
    }
    RoundKeys { size, words }
}

/// Recovers the AES-128 master key from its round-10 key by running the key
/// schedule backwards.
///
/// # Examples
///
/// ```
/// use ciphers::{expand_key, invert_last_round_key_128, AesKeySize};
/// let key = *b"yellow submarine";
/// let rk = expand_key(&key, AesKeySize::Aes128);
/// assert_eq!(invert_last_round_key_128(&rk.round_key(10)), key);
/// ```
pub fn invert_last_round_key_128(round10: &[u8; 16]) -> [u8; 16] {
    let mut w = [0u32; 4];
    for c in 0..4 {
        w[c] = u32::from_be_bytes([
            round10[4 * c],
            round10[4 * c + 1],
            round10[4 * c + 2],
            round10[4 * c + 3],
        ]);
    }
    // Walk back from round 10 to round 0: w[i-4] = w[i] ^ w[i-1] (for i%4!=0)
    // and w[i-4] = w[i] ^ g(w[i-1]) at round boundaries.
    for round in (1..=10usize).rev() {
        let mut prev = [0u32; 4];
        prev[3] = w[3] ^ w[2];
        prev[2] = w[2] ^ w[1];
        prev[1] = w[1] ^ w[0];
        prev[0] = w[0] ^ (sub_word(prev[3].rotate_left(8)) ^ RCON[round - 1]);
        w = prev;
    }
    let mut key = [0u8; 16];
    for c in 0..4 {
        key[4 * c..4 * c + 4].copy_from_slice(&w[c].to_be_bytes());
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips_197_aes128_expansion() {
        // FIPS-197 Appendix A.1 key.
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let rk = expand_key(&key, AesKeySize::Aes128);
        assert_eq!(rk.round_key(0), key);
        // w[43] (last word) per FIPS-197: b6630ca6.
        let last = rk.round_key(10);
        assert_eq!(&last[12..16], &[0xb6, 0x63, 0x0c, 0xa6]);
        // w[4..8] (round 1 key) starts with a0fafe17.
        let r1 = rk.round_key(1);
        assert_eq!(&r1[0..4], &[0xa0, 0xfa, 0xfe, 0x17]);
    }

    #[test]
    fn fips_197_aes256_expansion_tail() {
        let key: [u8; 32] = [
            0x60, 0x3d, 0xeb, 0x10, 0x15, 0xca, 0x71, 0xbe, 0x2b, 0x73, 0xae, 0xf0, 0x85, 0x7d,
            0x77, 0x81, 0x1f, 0x35, 0x2c, 0x07, 0x3b, 0x61, 0x08, 0xd7, 0x2d, 0x98, 0x10, 0xa3,
            0x09, 0x14, 0xdf, 0xf4,
        ];
        let rk = expand_key(&key, AesKeySize::Aes256);
        let last = rk.round_key(14);
        // FIPS-197 A.3: w[59] = 706c631e.
        assert_eq!(&last[12..16], &[0x70, 0x6c, 0x63, 0x1e]);
    }

    #[test]
    fn inversion_roundtrips_random_keys() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        for _ in 0..200 {
            let key: [u8; 16] = rng.gen();
            let rk = expand_key(&key, AesKeySize::Aes128);
            assert_eq!(invert_last_round_key_128(&rk.round_key(10)), key);
        }
    }

    #[test]
    #[should_panic(expected = "key length mismatch")]
    fn wrong_key_length_panics() {
        expand_key(&[0u8; 17], AesKeySize::Aes128);
    }

    #[test]
    fn words_match_round_key_bytes() {
        for (size, len) in [
            (AesKeySize::Aes128, 16),
            (AesKeySize::Aes192, 24),
            (AesKeySize::Aes256, 32),
        ] {
            let key: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(37)).collect();
            let rk = expand_key(&key, size);
            assert_eq!(rk.words().len(), 4 * (size.rounds() + 1));
            for (r, bytes) in rk.iter().enumerate() {
                for c in 0..4 {
                    let word = u32::from_be_bytes(bytes[4 * c..4 * c + 4].try_into().unwrap());
                    assert_eq!(rk.words()[4 * r + c], word);
                }
            }
        }
    }

    #[test]
    fn round_key_count_per_size() {
        assert_eq!(expand_key(&[0; 16], AesKeySize::Aes128).iter().count(), 11);
        assert_eq!(expand_key(&[0; 24], AesKeySize::Aes192).iter().count(), 13);
        assert_eq!(expand_key(&[0; 32], AesKeySize::Aes256).iter().count(), 15);
    }
}
