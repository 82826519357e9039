//! Countermeasure determinism: a TRR-protected module suppresses the
//! naive attack completely, the adaptive driver bypasses it many-sided at
//! a recorded extra hammer cost, and SECDED ECC hides single-bit faults
//! from the victim's reads.

use explframe::attack::{
    AttackOutcome, ExplFrame, ExplFrameConfig, VictimCipherKind, VictimCipherService, VictimKeys,
};
use explframe::ciphers::{BlockCipher, ReferenceAes};
use explframe::dram::{EccMode, TrrParams};
use explframe::machine::SimMachine;
use explframe::memsim::CpuId;

/// Hammer pairs the unmitigated seed-1 run spends (pinned in
/// `tests/determinism.rs`).
const UNMITIGATED_SEED1_PAIRS: u64 = 753_600_000;

fn trr_config(seed: u64) -> ExplFrameConfig {
    let mut cfg = ExplFrameConfig::small_demo(seed).with_template_pages(1024);
    cfg.machine.dram = cfg.machine.dram.with_trr(Some(TrrParams::ddr4_like()));
    cfg
}

#[test]
fn trr_suppresses_the_naive_attack() {
    let report = ExplFrame::new(trr_config(1)).run().expect("attack run");
    assert_eq!(report.outcome, AttackOutcome::NoUsableTemplates);
    assert_eq!(
        report.templates_found, 0,
        "a fitting sampler must refresh every sandwiched victim in time"
    );
    assert_eq!(report.strategy_escalations, 0);
    assert!(!report.key_correct);
}

#[test]
fn adaptive_attack_bypasses_trr_and_recovers_the_key() {
    let report = ExplFrame::new(trr_config(1))
        .run_adaptive()
        .expect("adaptive run");
    assert_eq!(report.outcome, AttackOutcome::KeyRecovered);
    assert!(report.key_correct);
    assert_eq!(
        report.strategy_escalations, 1,
        "exactly one escalation: double-sided -> many-sided"
    );
    // The bypass is not free: the wasted double-sided sweep plus the
    // many-sided activation overhead (8 rows per round instead of 2) cost
    // pair-equivalents well beyond the unmitigated attack's budget.
    // Pinned from the first recording of this composition (seed 1,
    // 1024 template pages, ddr4-like TRR): ~4.7x the unmitigated run.
    assert!(
        report.hammer_pairs_spent > UNMITIGATED_SEED1_PAIRS,
        "expected extra hammer cost, got {} pairs",
        report.hammer_pairs_spent
    );
    assert_eq!(report.hammer_pairs_spent, 3_512_000_000);
    assert_eq!(report.templates_found, 318);
    assert_eq!(report.usable_templates, 12);
    assert_eq!(report.fault_rounds, 1);
    assert_eq!(report.ciphertexts_collected, 2240);
    assert_eq!(report.elapsed, 384_159_498_249);
    // Determinism: the adaptive composition is a pure function of the
    // seed, byte for byte.
    let again = ExplFrame::new(trr_config(1))
        .run_adaptive()
        .expect("second adaptive run");
    assert_eq!(report, again, "adaptive runs with one seed diverged");
}

#[test]
fn adaptive_driver_matches_classic_run_without_countermeasures() {
    // On an unmitigated module the first sweep finds templates, nothing
    // escalates, and the adaptive driver is byte-identical to run().
    let cfg = ExplFrameConfig::small_demo(1).with_template_pages(512);
    let classic = ExplFrame::new(cfg.clone()).run().expect("classic");
    let adaptive = ExplFrame::new(cfg).run_adaptive().expect("adaptive");
    assert_eq!(classic, adaptive);
    assert_eq!(adaptive.strategy_escalations, 0);
}

#[test]
fn secded_hides_single_bit_table_faults_from_the_victim() {
    // Find a machine seed whose victim table page holds a weak cell whose
    // charged value matches the installed S-box image, hammer it, and
    // confirm the victim's encryptions stay byte-correct (the fault is
    // corrected on every read) while the corrected-error telemetry — the
    // channel the ECC-aware collector watches — ticks up.
    for seed in 0..400u64 {
        let mut machine_cfg = explframe::machine::MachineConfig::small(seed);
        machine_cfg.dram = machine_cfg.dram.with_ecc(EccMode::Secded);
        let mut m = SimMachine::new(machine_cfg);
        let keys = VictimKeys::from_seed(seed);
        let svc = VictimCipherService::start(&mut m, CpuId(0), VictimCipherKind::AesSbox, keys)
            .expect("victim start");
        let table = m.translate(svc.pid(), svc.table_base()).expect("resident");
        let image_len = VictimCipherKind::AesSbox.image_len() as u32;

        // A weak cell inside the S-box image whose charged value the image
        // currently stores (so hammering will flip it).
        let coord = m.dram().mapping().phys_to_coord(table);
        let cells = m.dram().weak_cells_at(table);
        let candidate = cells.iter().copied().find(|c| {
            let byte_in_row = c.bit_in_row / 8;
            if byte_in_row < coord.col || byte_in_row >= coord.col + image_len {
                return false;
            }
            let offset = byte_in_row - coord.col;
            let image_bit =
                explframe::ciphers::TableImage::sbox()[offset as usize] & (1 << (c.bit_in_row % 8));
            (image_bit != 0) == c.polarity.charged_value()
        });
        let Some(cell) = candidate else { continue };
        if coord.row < 1 || coord.row + 1 >= m.config().dram.geometry.rows {
            continue;
        }

        let above = m
            .dram()
            .mapping()
            .coord_to_phys(explframe::dram::DramCoord {
                row: coord.row - 1,
                col: 0,
                ..coord
            });
        let below = m
            .dram()
            .mapping()
            .coord_to_phys(explframe::dram::DramCoord {
                row: coord.row + 1,
                col: 0,
                ..coord
            });
        let before = m.dram().flips().len();
        m.dram_mut()
            .hammer_rows(&[above, below], cell.threshold_acts() + 16)
            .expect("hammer");
        assert!(
            m.dram().flips()[before..]
                .iter()
                .any(|f| f.coord.row == coord.row),
            "known weak cell failed to flip"
        );

        // The physical fault is in the stored S-box, but every encryption
        // still matches the reference cipher: ECC corrects the word on
        // each read, and the corrected counter (EDAC telemetry) rises.
        let corrected_before = m.dram().ecc_stats().corrected;
        for i in 0..8u8 {
            let mut block = [i; 16];
            let mut expect = block;
            svc.encrypt(&mut m, &mut block).expect("encrypt");
            ReferenceAes::new_128(&keys.aes).encrypt_block(&mut expect);
            assert_eq!(block, expect, "ECC failed to hide the fault");
        }
        assert!(
            m.dram().ecc_stats().corrected > corrected_before,
            "victim reads never exercised the correction path"
        );
        return;
    }
    panic!("no seed in 0..400 put a matching weak cell inside the victim's S-box image");
}
