//! Property-based tests for the fault analyses.

use ciphers::{BlockCipher, RamTableSource, SboxAes, TableImage};
use fault::{encrypt_with_round10_input_fault, DfaAttack, PfaCollector, TableFault};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// PFA recovers an arbitrary key under an arbitrary single-bit S-box
    /// fault. The heavyweight end-to-end property of the crate.
    #[test]
    fn pfa_recovers_any_key_any_fault(
        key in any::<[u8; 16]>(),
        entry in 0usize..256,
        bit in 0u8..8,
        seed in any::<u64>(),
    ) {
        let mut image = TableImage::sbox().to_vec();
        image[entry] ^= 1 << bit;
        let mut victim = SboxAes::new_128(&key, RamTableSource::new(image));
        let mut collector = PfaCollector::new();
        let mut rng = StdRng::seed_from_u64(seed);
        while !collector.all_positions_determined() {
            let mut block: [u8; 16] = rng.gen();
            victim.encrypt_block(&mut block);
            collector.observe(&block);
            prop_assert!(collector.total() < 100_000, "no convergence");
        }
        let analysis = collector.analyze_known_fault(TableImage::sbox()[entry]);
        prop_assert_eq!(analysis.master_key(), Some(key));
    }

    /// The DFA candidate filter never discards the true key byte.
    #[test]
    fn dfa_keeps_the_true_key(
        key in any::<[u8; 16]>(),
        plains in prop::collection::vec(any::<[u8; 16]>(), 6),
        pos in 0usize..16,
        bit in 0u8..8,
    ) {
        use ciphers::ReferenceAes;
        let rk10 = ReferenceAes::new_128(&key).round_keys().round_key(10);
        let mut attack = DfaAttack::new();
        let mut aes = ReferenceAes::new_128(&key);
        for plain in &plains {
            let mut correct = *plain;
            aes.encrypt_block(&mut correct);
            let faulty = encrypt_with_round10_input_fault(&key, plain, pos, bit);
            attack.observe_pair(&correct, &faulty);
        }
        // Every position's candidate set still contains the true byte.
        for (i, count) in attack.candidate_counts().iter().enumerate() {
            prop_assert!(*count >= 1);
            let _ = i;
        }
        if let Some(rk) = attack.last_round_key() {
            // If fully determined, it must be exactly the true key.
            prop_assert_eq!(rk, rk10);
        }
    }

    /// Fault classification is total and consistent over the Te page: the
    /// S-lane positions always partition {0..16} across the four tables.
    #[test]
    fn te_classification_is_consistent(offset in 0usize..4096, bit in 0u8..8) {
        let fault = TableFault { offset, bit };
        match fault.classify_te() {
            fault::TeFaultClass::SLane { table, entry, delta, positions } => {
                prop_assert!(table < 4 && entry < 256);
                prop_assert_eq!(delta, 1 << bit);
                for p in positions {
                    prop_assert!(p < 16);
                    prop_assert_eq!(ciphers::final_round_table_for_position(p), table);
                }
            }
            fault::TeFaultClass::MiddleRoundsOnly { table, entry, lane } => {
                prop_assert!(table < 4 && entry < 256 && lane < 4);
                prop_assert_ne!(lane, ciphers::FINAL_ROUND_S_LANE[table]);
            }
        }
    }

    /// PRESENT schedule inversion is the exact inverse of the forward
    /// schedule for arbitrary register states.
    #[test]
    fn present_schedule_inversion_total(raw in any::<u128>()) {
        let register = raw & ((1u128 << 80) - 1);
        // Forward 31 updates from an arbitrary "master" register.
        let mut k = register;
        for i in 1..=31u128 {
            k = ((k << 61) | (k >> 19)) & ((1u128 << 80) - 1);
            let nib = ((k >> 76) & 0xF) as usize;
            k = (k & !(0xFu128 << 76)) | ((ciphers::PRESENT_SBOX[nib] as u128) << 76);
            k ^= i << 15;
        }
        let mut master = [0u8; 10];
        for (i, b) in master.iter_mut().enumerate() {
            *b = (register >> (8 * (9 - i))) as u8;
        }
        prop_assert_eq!(fault::invert_present80_schedule(k), master);
    }
}

proptest! {
    /// The collector's histograms against a set-of-seen-values model: a
    /// sweep over every value but `skip[i]` at position `i` (whole, or
    /// stopped after `sweep` ciphertexts), then `extra` random ciphertexts,
    /// so positions end with many, one or no values unseen.
    #[test]
    fn pfa_collector_matches_a_seen_set_model(
        whole in any::<bool>(),
        sweep in 0usize..256,
        skip in any::<[u8; 16]>(),
        extra in prop::collection::vec(any::<[u8; 16]>(), 0..48),
    ) {
        let sweep = if whole { 256 } else { sweep };
        let swept = (0..sweep).map(|v| skip.map(|s| if v as u8 == s { s ^ 1 } else { v as u8 }));
        let ciphertexts: Vec<[u8; 16]> = swept.chain(extra).collect();
        let mut collector = PfaCollector::new();
        for ct in &ciphertexts {
            collector.observe(ct);
        }
        prop_assert_eq!(collector.total(), ciphertexts.len() as u64);
        let missing = collector.missing_values();
        let argmax = collector.argmax_values();
        for i in 0..16 {
            let seen: HashSet<u8> = ciphertexts.iter().map(|ct| ct[i]).collect();
            let unseen = 256 - seen.len();
            prop_assert_eq!(usize::from(collector.unseen_count(i)), unseen);
            let expect_missing = (0..=255u8).find(|v| !seen.contains(v)).filter(|_| unseen == 1);
            prop_assert_eq!(missing[i], expect_missing);
            // The most frequent value, the largest one on a tie.
            let count = |v: u8| ciphertexts.iter().filter(|ct| ct[i] == v).count();
            let expect_argmax = (0..=255u8).max_by_key(|&v| (count(v), v));
            prop_assert_eq!(Some(argmax[i]), expect_argmax);
        }
    }
}
