//! Snapshot contract of the DRAM device, checked differentially: for a
//! random interleaving of data traffic, activations, bulk hammering and
//! idle time — against a module with both TRR and SECDED ECC enabled, so
//! the countermeasure state is captured too —
//! `clone → mutate arbitrarily → clone_from → replay suffix` must be
//! state-identical (data array, row buffers, disturbance counters, clock,
//! TRR sampler tables, ECC tracker, stats, flip log) to a fresh boot
//! replaying the same full sequence.

use dram::{DramConfig, DramCoord, DramDevice, EccMode, ParaParams, RfmParams, TrrParams};
use proptest::prelude::*;
use snaptest::{check_replay_equivalence, replay_plan};

/// A hardened module: the snapshot must carry TRR and ECC state, not just
/// the data plane. Low TRR threshold so the sampler actually fires.
fn boot() -> (DramDevice, ()) {
    let config = DramConfig::small()
        .with_seed(13)
        .with_trr(Some(TrrParams::ddr4_like().with_threshold_acts(1200)))
        .with_ecc(EccMode::Secded);
    (DramDevice::new(config), ())
}

/// Everything armed at once: the command clock plus every countermeasure —
/// PARA sampler position, RFM RAA counters/row tables, TRR, ECC. The
/// snapshot must carry the full time-domain state byte-identically.
fn boot_timed() -> (DramDevice, ()) {
    let config = DramConfig::small()
        .with_seed(13)
        .with_trr(Some(TrrParams::ddr4_like().with_threshold_acts(1200)))
        .with_ecc(EccMode::Secded)
        .with_timing_engine(true)
        .with_para(Some(
            ParaParams::para_2014().with_mean_acts_per_refresh(700),
        ))
        .with_rfm(Some(RfmParams::ddr5_like().with_raaimt(1500)));
    (DramDevice::new(config), ())
}

/// Decodes one opcode word into a device operation, confined to a 64-row
/// window of each bank so hammering and refresh interact densely.
fn step(dev: &mut DramDevice, (): &mut (), word: u64) {
    let g = dev.config().geometry;
    let bank = ((word >> 4) % u64::from(g.banks)) as u32;
    let row = 2 + ((word >> 16) % 60) as u32;
    let col = ((word >> 24) % u64::from(g.row_bytes - 64)) as u32;
    let coord = DramCoord {
        channel: 0,
        rank: 0,
        bank,
        row,
        col,
    };
    let addr = dev.mapping().coord_to_phys(coord);
    let byte = (word >> 40) as u8;
    match word % 8 {
        0 => {
            let row_start = dev.mapping().coord_to_phys(DramCoord { col: 0, ..coord });
            dev.fill(row_start, u64::from(g.row_bytes), byte);
        }
        1 => dev.write(addr, &word.to_le_bytes()),
        2 => {
            let mut buf = [0u8; 16];
            dev.read(addr, &mut buf);
        }
        3 => {
            dev.access(addr);
        }
        4 => {
            let above = dev.mapping().coord_to_phys(DramCoord {
                row: row - 1,
                col: 0,
                ..coord
            });
            let below = dev.mapping().coord_to_phys(DramCoord {
                row: row + 1,
                col: 0,
                ..coord
            });
            let pairs = 500 + (word >> 32) % 40_000;
            dev.hammer_rows(&[above, below], pairs)
                .expect("distinct same-bank rows");
        }
        5 => {
            let rows: Vec<_> = [row - 2, row - 1, row + 1, row + 2]
                .into_iter()
                .map(|r| {
                    dev.mapping().coord_to_phys(DramCoord {
                        row: r,
                        col: 0,
                        ..coord
                    })
                })
                .collect();
            let rounds = 500 + (word >> 32) % 20_000;
            dev.hammer_rows(&rows, rounds)
                .expect("distinct same-bank rows");
        }
        6 => dev.advance((word >> 32) % 50_000_000),
        _ => dev.write_byte(addr, byte),
    }
}

proptest! {
    #[test]
    fn snapshot_restore_replay_matches_fresh_boot(plan in replay_plan(60)) {
        check_replay_equivalence(
            &plan,
            boot,
            step,
            DramDevice::clone,
            DramDevice::clone_from,
        )?;
    }

    #[test]
    fn snapshot_fork_induces_identical_flips(words in proptest::collection::vec(any::<u64>(), 1..40)) {
        let (prefix, suffix) = words.split_at(words.len() / 2);
        let (mut original, ()) = boot();
        let (mut witness, ()) = boot();
        for &w in prefix {
            step(&mut original, &mut (), w);
            step(&mut witness, &mut (), w);
        }
        let mut fork = original.clone();
        for &w in suffix {
            step(&mut fork, &mut (), w);
        }
        // The fork's traffic never reaches the original through shared state.
        prop_assert_eq!(&original, &witness);
        for &w in suffix {
            step(&mut original, &mut (), w);
        }
        prop_assert_eq!(original.flips(), fork.flips());
        prop_assert_eq!(original.stats(), fork.stats());
        prop_assert_eq!(original.trr_triggers(), fork.trr_triggers());
        prop_assert_eq!(original.ecc_stats(), fork.ecc_stats());
        prop_assert_eq!(&original, &fork);
    }

    #[test]
    fn timed_snapshot_restore_replay_matches_fresh_boot(plan in replay_plan(60)) {
        check_replay_equivalence(
            &plan,
            boot_timed,
            step,
            DramDevice::clone,
            DramDevice::clone_from,
        )?;
    }

    #[test]
    fn timed_snapshot_fork_induces_identical_flips(words in proptest::collection::vec(any::<u64>(), 1..40)) {
        let (prefix, suffix) = words.split_at(words.len() / 2);
        let (mut original, ()) = boot_timed();
        let (mut witness, ()) = boot_timed();
        for &w in prefix {
            step(&mut original, &mut (), w);
            step(&mut witness, &mut (), w);
        }
        let mut fork = original.clone();
        for &w in suffix {
            step(&mut fork, &mut (), w);
        }
        // The fork's traffic never reaches the original through shared state.
        prop_assert_eq!(&original, &witness);
        for &w in suffix {
            step(&mut original, &mut (), w);
        }
        prop_assert_eq!(original.flips(), fork.flips());
        prop_assert_eq!(original.stats(), fork.stats());
        prop_assert_eq!(original.para_refreshes(), fork.para_refreshes());
        prop_assert_eq!(original.rfm_commands(), fork.rfm_commands());
        prop_assert_eq!(original.command_clock(), fork.command_clock());
        prop_assert_eq!(&original, &fork);
    }
}
