//! Pinned report digests at the default seed: for each workload, the FNV-1a
//! digest of every trial's `AttackReport` bytes (its `Debug` rendering), in
//! trial order, one hex value per line in `pins/<workload>.txt`. A pure
//! speedup must leave every one unchanged.

use crate::workload::Workload;

/// The pinned per-trial digests of `workload` at the default seed and pass
/// size.
pub fn pinned(workload: Workload) -> Vec<u64> {
    let text = match workload {
        Workload::ReplaySbox => include_str!("../pins/replay-sbox.txt"),
        Workload::DirectTtable => include_str!("../pins/direct-ttable.txt"),
        Workload::HardenedWalk => include_str!("../pins/hardened-walk.txt"),
    };
    text.lines()
        .filter_map(|l| u64::from_str_radix(l.trim().trim_start_matches("0x"), 16).ok())
        .collect()
}
