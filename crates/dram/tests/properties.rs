//! Property-based tests for the DRAM model.

use dram::{
    AddressMapping, CommandClock, DramConfig, DramCoord, DramDevice, DramGeometry, DramTiming,
    LinearMapping, Nanos, PhysAddr, SparseMemory, XorMapping,
};
use proptest::prelude::*;

/// One abstract command for driving [`CommandClock`] with arbitrary,
/// protocol-ignorant request streams: `(opcode, rank, bank, requested
/// delay)`. The clock must bump every start time to a legal slot no matter
/// how hostile the requests are.
type CmdWord = (u8, u32, u32, u64);

/// Replays `words` against a fresh clock and checks the protocol
/// invariants externally, from the returned start times alone.
fn check_command_protocol(
    timing: DramTiming,
    ranks: u32,
    banks: u32,
    words: &[CmdWord],
) -> Result<(), TestCaseError> {
    let mut clock = CommandClock::new(timing, ranks, banks);
    // Externally reconstructed history: last ACT / earliest-next-ACT per
    // bank, ACT starts per rank (for tFAW), and the global command tape.
    let mut last_act: Vec<Option<Nanos>> = vec![None; (ranks * banks) as usize];
    let mut last_pre_done: Vec<Nanos> = vec![0; (ranks * banks) as usize];
    let mut rank_acts: Vec<Vec<Nanos>> = vec![Vec::new(); ranks as usize];
    let mut prev_start: Nanos = 0;
    for &(op, rank, bank, delay) in words {
        let (rank, bank) = (rank % ranks, bank % banks);
        let idx = (rank * banks + bank) as usize;
        let requested = prev_start + delay % 10_000;
        let start = match op % 3 {
            0 => {
                let start = clock.activate(rank, bank, requested);
                // tRC against the same bank's previous ACT.
                if let Some(prev) = last_act[idx] {
                    prop_assert!(
                        start >= prev + timing.t_rc,
                        "ACT at {start} violates tRC after ACT at {prev}"
                    );
                }
                // tRP against the bank's last explicit precharge.
                prop_assert!(start >= last_pre_done[idx], "ACT at {start} inside tRP");
                // tFAW: at most 4 ACTs of this rank in any tFAW span —
                // equivalently, the 4th-most-recent ACT is ≥ tFAW older.
                rank_acts[rank as usize].push(start);
                let acts = &rank_acts[rank as usize];
                if acts.len() >= 5 {
                    let fourth_back = acts[acts.len() - 5];
                    prop_assert!(
                        start >= fourth_back + timing.t_faw,
                        "five ACTs of rank {rank} within tFAW at {start}"
                    );
                }
                last_act[idx] = Some(start);
                start
            }
            1 => {
                let start = clock.precharge(rank, bank, requested);
                // tRAS: the row stayed open long enough.
                if let Some(prev) = last_act[idx] {
                    prop_assert!(
                        start >= prev + timing.t_ras,
                        "PRE at {start} violates tRAS after ACT at {prev}"
                    );
                }
                last_pre_done[idx] = start + timing.t_rp;
                start
            }
            _ => {
                let before = clock.acts();
                let start = clock.column_read(rank, bank, requested);
                if clock.acts() > before {
                    // Closed bank: the read auto-activated it — fold the
                    // implicit ACT into the external history.
                    rank_acts[rank as usize].push(start);
                    last_act[idx] = Some(start);
                }
                start
            }
        };
        // The command clock never runs backwards and never schedules
        // before the caller asked (monotone, causal).
        prop_assert!(start >= prev_start, "command clock ran backwards");
        prop_assert!(start >= requested, "command issued before it was requested");
        prev_start = start;
    }
    // The refresh scheduler's closed form is consistent at any horizon.
    let horizon = prev_start + timing.refresh_window();
    clock.drain_refreshes(horizon);
    prop_assert_eq!(
        clock.refresh_commands(),
        CommandClock::refs_due_by(&timing, horizon)
    );
    Ok(())
}

fn geometries() -> impl Strategy<Value = DramGeometry> {
    prop_oneof![
        Just(DramGeometry::small_256mib()),
        Just(DramGeometry::medium_1gib()),
        Just(DramGeometry::desktop_4gib()),
        Just(DramGeometry {
            channels: 2,
            ranks: 2,
            banks: 16,
            rows: 1024,
            row_bytes: 4096
        }),
    ]
}

proptest! {
    /// phys → coord → phys is the identity for both mappings.
    #[test]
    fn mappings_roundtrip(g in geometries(), frac in 0.0f64..1.0) {
        let addr = PhysAddr::new(((g.capacity_bytes() - 1) as f64 * frac) as u64);
        let lin = LinearMapping::new(g);
        let xor = XorMapping::new(g);
        prop_assert_eq!(lin.coord_to_phys(lin.phys_to_coord(addr)), addr);
        prop_assert_eq!(xor.coord_to_phys(xor.phys_to_coord(addr)), addr);
    }

    /// Two distinct addresses never decode to the same coordinate.
    #[test]
    fn mappings_injective(g in geometries(), a in any::<u64>(), b in any::<u64>()) {
        let a = PhysAddr::new(a % g.capacity_bytes());
        let b = PhysAddr::new(b % g.capacity_bytes());
        prop_assume!(a != b);
        let xor = XorMapping::new(g);
        prop_assert_ne!(xor.phys_to_coord(a), xor.phys_to_coord(b));
    }

    /// The other direction of the bijection: coord → phys → coord is the
    /// identity for every in-range coordinate of every supported geometry,
    /// and the encoded address is always within capacity. Together with
    /// `mappings_roundtrip`/`mappings_injective` this makes both mappings
    /// full bijections over `[0, capacity)`.
    #[test]
    fn mappings_coord_roundtrip(
        g in geometries(),
        ch in any::<u32>(),
        rk in any::<u32>(),
        ba in any::<u32>(),
        row in any::<u32>(),
        col in any::<u32>(),
    ) {
        let coord = DramCoord {
            channel: ch % g.channels,
            rank: rk % g.ranks,
            bank: ba % g.banks,
            row: row % g.rows,
            col: col % g.row_bytes,
        };
        let lin = LinearMapping::new(g);
        let xor = XorMapping::new(g);
        for m in [&lin as &dyn AddressMapping, &xor] {
            let addr = m.coord_to_phys(coord);
            prop_assert!(addr.as_u64() < g.capacity_bytes());
            prop_assert_eq!(m.phys_to_coord(addr), coord);
        }
    }

    /// Row-neighbour symmetry: `neighbour_rows(radius)` contains the row
    /// at signed distance `d` exactly when `0 < |d| <= radius` and the row
    /// is in bounds; every neighbour relation is mutual (`a` neighbours
    /// `b` iff `b` neighbours `a`) and preserves channel/rank/bank/col.
    #[test]
    fn neighbour_rows_symmetry(g in geometries(), row in any::<u32>(), radius in 0u32..5) {
        let coord = DramCoord { channel: 0, rank: 0, bank: 0, row: row % g.rows, col: 17 % g.row_bytes };
        let neighbours = coord.neighbour_rows(radius, &g);
        for d in -(i64::from(radius) + 2)..=i64::from(radius) + 2 {
            let target = i64::from(coord.row) + d;
            let expected = d != 0
                && d.unsigned_abs() <= u64::from(radius)
                && target >= 0
                && target < i64::from(g.rows);
            prop_assert_eq!(
                neighbours.iter().any(|n| i64::from(n.row) == target),
                expected,
                "distance {} of row {} (radius {})", d, coord.row, radius
            );
        }
        for n in &neighbours {
            prop_assert_eq!((n.channel, n.rank, n.bank, n.col),
                            (coord.channel, coord.rank, coord.bank, coord.col));
            // Mutuality: the victim appears among its neighbour's neighbours.
            prop_assert!(n.neighbour_rows(radius, &g).iter().any(|b| b.row == coord.row));
        }
        // neighbour_row (singular) agrees with the set for ±1.
        let set_has = |d: i64| neighbours.iter().any(|n| i64::from(n.row) == i64::from(coord.row) + d);
        if radius >= 1 {
            prop_assert_eq!(coord.neighbour_row(1, &g).is_some(), set_has(1));
            prop_assert_eq!(coord.neighbour_row(-1, &g).is_some(), set_has(-1));
        }
    }

    /// SparseMemory behaves like a plain byte array under random ops.
    #[test]
    fn sparse_memory_matches_dense_model(
        ops in prop::collection::vec(
            (0u64..32768, any::<u8>(), 0usize..3, 1u64..6000), 1..60
        )
    ) {
        let cap = 64 * 1024u64;
        let mut sparse = SparseMemory::new(cap);
        let mut dense = vec![0u8; cap as usize];
        for (addr, val, kind, len) in ops {
            match kind {
                0 => {
                    sparse.write_byte(PhysAddr::new(addr), val);
                    dense[addr as usize] = val;
                }
                1 => {
                    let len = len.min(cap - addr);
                    sparse.fill(PhysAddr::new(addr), len, val);
                    dense[addr as usize..(addr + len) as usize].fill(val);
                }
                _ => {
                    let len = len.min(cap - addr) as usize;
                    let data: Vec<u8> = (0..len).map(|i| val.wrapping_add(i as u8)).collect();
                    sparse.write(PhysAddr::new(addr), &data);
                    dense[addr as usize..addr as usize + len].copy_from_slice(&data);
                }
            }
        }
        let mut out = vec![0u8; cap as usize];
        sparse.read(PhysAddr::new(0), &mut out);
        prop_assert_eq!(out, dense);
    }

    /// Patched chunks (a filled chunk plus a few single-byte writes) behave
    /// like a plain byte array: ops land on three chunks at a few dozen
    /// offsets with values from a three-byte alphabet. Single-byte and bit
    /// writes, two thirds of the ops, keep patching a fill, overflow the
    /// patch cap and write back to the fill byte, between rarer partial
    /// and whole-chunk fills and multi-byte writes. A clone written on either side leaves the other
    /// unchanged, and the store equals one holding the same bytes
    /// materialised.
    #[test]
    fn sparse_memory_patched_chunks_match_dense_model(
        ops in prop::collection::vec(
            (0u8..20, 0u64..3, 0u64..40, 0usize..3, 1u64..48), 1..200
        )
    ) {
        const ALPHABET: [u8; 3] = [0x00, 0xFF, 0x5A];
        let cap = 3 * 4096u64;
        let mut sparse = SparseMemory::new(cap);
        let mut dense = vec![0u8; cap as usize];
        let check = |sparse: &SparseMemory, dense: &[u8]| -> Result<(), TestCaseError> {
            let mut out = vec![0u8; dense.len()];
            sparse.read(PhysAddr::new(0), &mut out);
            prop_assert!(out == dense, "store diverged from its model");
            Ok(())
        };
        for (kind, chunk, off, val, len) in ops {
            // Offsets cluster at the chunk start; every fourth op lands at
            // the chunk end, so reads and writes cross into the next chunk.
            let at = chunk * 4096 + if off % 4 == 3 { 4095 - off } else { off };
            let addr = PhysAddr::new(at);
            let value = ALPHABET[val];
            let len = len.min(cap - at);
            match kind {
                0..=9 => {
                    sparse.write_byte(addr, value);
                    dense[at as usize] = value;
                }
                10..=12 => {
                    let bit = (off % 8) as u8;
                    let set = val != 0;
                    sparse.write_bit(addr, bit, set);
                    let byte = &mut dense[at as usize];
                    *byte = if set { *byte | 1 << bit } else { *byte & !(1 << bit) };
                }
                13 => {
                    sparse.fill(addr, len, value);
                    dense[at as usize..(at + len) as usize].fill(value);
                }
                14 | 15 => {
                    let start = chunk * 4096;
                    sparse.fill(PhysAddr::new(start), 4096, value);
                    dense[start as usize..start as usize + 4096].fill(value);
                }
                16 => {
                    let data: Vec<u8> = (0..len).map(|i| ALPHABET[(val + i as usize) % 3]).collect();
                    sparse.write(addr, &data);
                    dense[at as usize..(at + len) as usize].copy_from_slice(&data);
                }
                17 => {
                    // Clone, then write a patch on each side in turn.
                    let mut fork = sparse.clone();
                    let mut fork_dense = dense.clone();
                    let other = PhysAddr::new((at + len) % cap);
                    fork.write_byte(addr, !sparse.read_byte(addr));
                    fork_dense[at as usize] = !dense[at as usize];
                    check(&sparse, &dense)?;
                    check(&fork, &fork_dense)?;
                    let flipped = sparse.read_byte(other) ^ 0x81;
                    sparse.write_byte(other, flipped);
                    dense[other.as_u64() as usize] = flipped;
                    check(&fork, &fork_dense)?;
                    check(&sparse, &dense)?;
                }
                _ => {
                    prop_assert_eq!(sparse.read_byte(addr), dense[at as usize]);
                    let mut buf = vec![0u8; len as usize];
                    sparse.read(addr, &mut buf);
                    prop_assert!(buf == dense[at as usize..(at + len) as usize]);
                }
            }
        }
        check(&sparse, &dense)?;
        // The same bytes, each chunk written materialised (an all-zero one
        // stays absent).
        let mut materialised = SparseMemory::new(cap);
        for start in (0..cap).step_by(4096) {
            let s = start as usize;
            materialised.write(PhysAddr::new(start), &dense[s..s + 4095]);
            materialised.write(PhysAddr::new(start + 4095), &dense[s + 4095..s + 4096]);
        }
        prop_assert!(sparse == materialised);
        prop_assert!(materialised == sparse);
        let byte = materialised.read_byte(PhysAddr::new(7));
        materialised.write_byte(PhysAddr::new(7), byte ^ 1);
        prop_assert!(sparse != materialised);
    }

    /// Hammering never corrupts data outside the aggressors' blast radius
    /// (±2 rows), and every reported flip is inside it.
    #[test]
    fn hammer_flips_stay_in_blast_radius(seed in 0u64..50, row in 4u32..1000) {
        let mut dev = DramDevice::new(DramConfig::small().with_seed(seed));
        let g = dev.config().geometry;
        let coord = |r: u32| dram::DramCoord { channel: 0, rank: 0, bank: 0, row: r, col: 0 };
        let a = dev.mapping().coord_to_phys(coord(row - 1));
        let b = dev.mapping().coord_to_phys(coord(row + 1));
        // Charge a window of rows around the victim with both patterns so
        // flips of either polarity are observable.
        for r in row.saturating_sub(3)..=(row + 3).min(g.rows - 1) {
            let addr = dev.mapping().coord_to_phys(coord(r));
            dev.fill(addr, g.row_bytes as u64 / 2, 0xFF);
        }
        let outcome = dev.hammer_rows(&[a, b], 200_000).unwrap();
        for f in &outcome.flips {
            let d = (f.coord.row as i64 - row as i64).abs();
            prop_assert!(d <= 3, "flip at row {} too far from victim {}", f.coord.row, row);
            // Aggressor rows refresh themselves by activation.
            prop_assert!(f.coord.row != row - 1 && f.coord.row != row + 1);
        }
    }

    /// The bank state machine never violates tRC/tRAS/tRP/tFAW for
    /// arbitrary command sequences with arbitrary requested times, and the
    /// command clock is monotone — checked externally from the returned
    /// start times, against an independently reconstructed history.
    #[test]
    fn command_clock_never_violates_timing_constraints(
        words in prop::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u32>(), any::<u64>()), 1..80
        )
    ) {
        check_command_protocol(DramTiming::ddr3_1600(), 2, 8, &words)?;
    }

    /// Same protocol battery under a stretched tFAW (large enough to
    /// actually bind) and a single-rank module.
    #[test]
    fn command_clock_honours_a_binding_faw_window(
        words in prop::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u32>(), any::<u64>()), 1..80
        )
    ) {
        let timing = DramTiming { t_faw: 130, ..DramTiming::ddr3_1600() };
        check_command_protocol(timing, 1, 16, &words)?;
    }

    /// The flip population is a pure function of the seed: same seed, same
    /// hammering → identical flips; the data pattern only gates direction.
    #[test]
    fn same_seed_same_flips(seed in 0u64..30) {
        let run = || {
            let mut dev = DramDevice::new(DramConfig::small().with_seed(seed));
            let g = dev.config().geometry;
            let coord = |r: u32| dram::DramCoord { channel: 0, rank: 0, bank: 0, row: r, col: 0 };
            let a = dev.mapping().coord_to_phys(coord(49));
            let b = dev.mapping().coord_to_phys(coord(51));
            dev.fill(dev.mapping().coord_to_phys(coord(50)), g.row_bytes as u64, 0xFF);
            dev.hammer_rows(&[a, b], 150_000)
                .unwrap()
                .flips
                .iter()
                .map(|f| (f.addr, f.bit))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}
