//! Persistent Fault Analysis of AES (Zhang et al., TCHES 2018).
//!
//! Premise: the victim's in-memory S-box has one entry changed from
//! `S[j]` to `S[j] ⊕ δ`. The value `v = S[j]` then *never* appears as a
//! last-round S-box output, so ciphertext byte `c[i]` never takes the value
//! `v ⊕ k10[i]`. Collect ciphertexts until exactly one value is missing per
//! position; each missing value reveals one last-round key byte, and the
//! AES-128 master key follows by running the key schedule backwards.

use ciphers::{invert_last_round_key_128, ReferenceAes};

/// Per-position ciphertext-byte histograms for the missing-value analysis.
///
/// See the crate-level example for a full run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PfaCollector {
    unseen_counts: [u16; 16],
    /// Per position, how often each value appeared: a value is seen iff
    /// its count is nonzero.
    counts: [[u32; 256]; 16],
    total: u64,
}

impl PfaCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        PfaCollector {
            unseen_counts: [256; 16],
            counts: [[0; 256]; 16],
            total: 0,
        }
    }

    /// Records one faulty ciphertext.
    pub fn observe(&mut self, ciphertext: &[u8; 16]) {
        self.total += 1;
        for ((counts, unseen), &b) in self
            .counts
            .iter_mut()
            .zip(&mut self.unseen_counts)
            .zip(ciphertext)
        {
            let count = &mut counts[usize::from(b)];
            *unseen -= u16::from(*count == 0);
            *count += 1;
        }
    }

    /// Ciphertexts observed so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Returns `true` when every byte position has exactly one value left
    /// unseen — the point at which the missing values are unambiguous.
    pub fn all_positions_determined(&self) -> bool {
        self.unseen_counts.iter().all(|&u| u == 1)
    }

    /// Number of byte values not yet observed at `position` — `1` means the
    /// missing value is determined; `0` means every value appeared (no
    /// last-round fault at this position).
    ///
    /// # Panics
    ///
    /// Panics if `position >= 16`.
    pub fn unseen_count(&self, position: usize) -> u16 {
        self.unseen_counts[position]
    }

    /// The number of positions already down to a single unseen value.
    pub fn determined_positions(&self) -> usize {
        self.unseen_counts.iter().filter(|&&u| u == 1).count()
    }

    /// The unique missing value per position, where determined.
    pub fn missing_values(&self) -> [Option<u8>; 16] {
        let mut out = [None; 16];
        for (o, (unseen, counts)) in out
            .iter_mut()
            .zip(self.unseen_counts.iter().zip(&self.counts))
        {
            if *unseen == 1 {
                *o = counts.iter().position(|&c| c == 0).map(|v| v as u8);
            }
        }
        out
    }

    /// The most frequent value per position — under the fault, the doubled
    /// value `S[j] ⊕ δ ⊕ k10[i]` (a statistical alternative to the exact
    /// missing-value test; needs more ciphertexts to stabilise).
    pub fn argmax_values(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        for (o, counts) in out.iter_mut().zip(&self.counts) {
            *o = counts
                .iter()
                .enumerate()
                .max_by_key(|(_, &c)| c)
                .map(|(v, _)| v as u8)
                .expect("256 buckets");
        }
        out
    }

    /// Completes the analysis knowing the faulted entry's original output
    /// value `v = S[j]` (the attacker knows `j` from templating and the
    /// S-box is public).
    pub fn analyze_known_fault(&self, missing_sbox_output: u8) -> PfaAnalysis {
        let missing = self.missing_values();
        let mut key = [None; 16];
        for i in 0..16 {
            key[i] = missing[i].map(|m| m ^ missing_sbox_output);
        }
        PfaAnalysis {
            last_round_key: key,
            ciphertexts: self.total,
        }
    }

    /// Completes the analysis *without* knowing which entry was faulted:
    /// tries all 256 possible values of `v`, checking each candidate master
    /// key against one known (plaintext, faulty-free ciphertext) pair.
    ///
    /// Returns `None` if the positions are not all determined or no
    /// candidate validates.
    pub fn analyze_unknown_fault(
        &self,
        known_plain: &[u8; 16],
        known_cipher: &[u8; 16],
    ) -> Option<PfaAnalysis> {
        let missing = self.missing_values();
        let m: Vec<u8> = missing
            .iter()
            .map(|o| (*o)?.into())
            .collect::<Option<Vec<_>>>()?;
        for v in 0..=255u8 {
            let mut rk10 = [0u8; 16];
            for i in 0..16 {
                rk10[i] = m[i] ^ v;
            }
            let master = invert_last_round_key_128(&rk10);
            let mut block = *known_plain;
            use ciphers::BlockCipher;
            ReferenceAes::new_128(&master).encrypt_block(&mut block);
            if &block == known_cipher {
                let mut key = [None; 16];
                for i in 0..16 {
                    key[i] = Some(rk10[i]);
                }
                return Some(PfaAnalysis {
                    last_round_key: key,
                    ciphertexts: self.total,
                });
            }
        }
        None
    }
}

impl Default for PfaCollector {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of a PFA run: the recovered last-round key (possibly partial).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PfaAnalysis {
    last_round_key: [Option<u8>; 16],
    ciphertexts: u64,
}

impl PfaAnalysis {
    /// The recovered last-round key bytes (`None` where undetermined).
    pub fn last_round_key(&self) -> [Option<u8>; 16] {
        self.last_round_key
    }

    /// The full last-round key, if every byte is determined.
    pub fn full_last_round_key(&self) -> Option<[u8; 16]> {
        let mut out = [0u8; 16];
        for (o, byte) in out.iter_mut().zip(&self.last_round_key) {
            *o = (*byte)?;
        }
        Some(out)
    }

    /// The AES-128 master key (inverted key schedule), if complete.
    pub fn master_key(&self) -> Option<[u8; 16]> {
        self.full_last_round_key()
            .map(|rk| invert_last_round_key_128(&rk))
    }

    /// Ciphertexts consumed to reach this analysis.
    pub fn ciphertexts(&self) -> u64 {
        self.ciphertexts
    }
}

/// Coupon-collector estimate of the faulty ciphertexts needed until every
/// position has seen all 255 possible values: ≈ `255·H(255) ≈ 1567`, plus a
/// tail for the slowest of `positions` parallel collectors. Matches the
/// ≈2000 reported by the PFA paper for full AES-128 key recovery.
pub fn expected_ciphertexts_for_full_key(positions: usize) -> f64 {
    let h255: f64 = (1..=255).map(|k| 1.0 / k as f64).sum();
    let base = 255.0 * h255;
    // The maximum of `positions` coupon collectors exceeds one by roughly
    // 255·ln(positions).
    base + 255.0 * (positions as f64).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ciphers::{BlockCipher, RamTableSource, SboxAes, TableImage};
    use rand::{Rng, SeedableRng};

    fn faulty_victim(key: &[u8; 16], entry: usize, bit: u8) -> SboxAes<RamTableSource> {
        let mut image = TableImage::sbox().to_vec();
        image[entry] ^= 1 << bit;
        SboxAes::new_128(key, RamTableSource::new(image))
    }

    #[test]
    fn recovers_key_with_known_fault() {
        let key = *b"0123456789abcdef";
        let (entry, bit) = (0x77usize, 1u8);
        let mut victim = faulty_victim(&key, entry, bit);
        let mut collector = PfaCollector::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        while !collector.all_positions_determined() {
            let mut block: [u8; 16] = rng.gen();
            victim.encrypt_block(&mut block);
            collector.observe(&block);
            assert!(collector.total() < 50_000, "collector failed to converge");
        }
        let analysis = collector.analyze_known_fault(TableImage::sbox()[entry]);
        assert_eq!(analysis.master_key(), Some(key));
        // Convergence should be in the coupon-collector regime.
        let expected = expected_ciphertexts_for_full_key(16);
        assert!(
            (analysis.ciphertexts() as f64) < expected * 3.0,
            "took {} ciphertexts, expected around {expected}",
            analysis.ciphertexts()
        );
    }

    #[test]
    fn recovers_key_with_unknown_fault() {
        let key = *b"totally secret!!";
        let mut victim = faulty_victim(&key, 0x05, 6);
        let mut collector = PfaCollector::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        while !collector.all_positions_determined() {
            let mut block: [u8; 16] = rng.gen();
            victim.encrypt_block(&mut block);
            collector.observe(&block);
        }
        // One known pair from before the fault was planted.
        let plain = *b"known plaintext!";
        let mut cipher = plain;
        ReferenceAes::new_128(&key).encrypt_block(&mut cipher);
        let analysis = collector
            .analyze_unknown_fault(&plain, &cipher)
            .expect("recovery");
        assert_eq!(analysis.master_key(), Some(key));
    }

    #[test]
    fn argmax_converges_to_doubled_value() {
        let key = [0xC3u8; 16];
        let (entry, bit) = (0x10usize, 0u8);
        let mut victim = faulty_victim(&key, entry, bit);
        let mut collector = PfaCollector::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        for _ in 0..60_000 {
            let mut block: [u8; 16] = rng.gen();
            victim.encrypt_block(&mut block);
            collector.observe(&block);
        }
        let sbox = TableImage::sbox();
        let doubled = sbox[entry] ^ (1 << bit);
        let rk10 = ReferenceAes::new_128(&key).round_keys().round_key(10);
        let argmax = collector.argmax_values();
        let correct = (0..16).filter(|&i| argmax[i] == doubled ^ rk10[i]).count();
        assert!(correct >= 14, "only {correct}/16 argmax positions matched");
    }

    #[test]
    fn unfaulted_cipher_never_determines() {
        // Without a fault every value appears; positions never reach
        // exactly-one-unseen, they reach zero-unseen.
        let key = [1u8; 16];
        let mut victim = SboxAes::new_128(&key, RamTableSource::new(TableImage::sbox().to_vec()));
        let mut collector = PfaCollector::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(45);
        for _ in 0..20_000 {
            let mut block: [u8; 16] = rng.gen();
            victim.encrypt_block(&mut block);
            collector.observe(&block);
        }
        assert!(!collector.all_positions_determined());
        assert_eq!(collector.missing_values(), [None; 16]);
    }

    #[test]
    fn expected_ciphertexts_matches_pfa_paper_ballpark() {
        let n = expected_ciphertexts_for_full_key(16);
        assert!(
            (1500.0..2500.0).contains(&n),
            "estimate {n} out of the PFA ballpark"
        );
    }
}
