//! Deterministic DRAM device model with Rowhammer disturbance physics.
//!
//! This crate is the hardware substrate for the ExplFrame reproduction. The
//! paper's attack depends on a DDR3/DDR4 part whose cells are susceptible to
//! disturbance errors ("Rowhammer", Kim et al., ISCA 2014): repeatedly
//! *activating* a DRAM row leaks charge from cells in physically adjacent
//! rows, and a cell whose accumulated disturbance crosses its (cell-specific)
//! threshold before the next refresh flips.
//!
//! The model reproduces exactly the mechanics the attack exercises:
//!
//! * **Geometry** — channels × ranks × banks × rows × row-bytes
//!   ([`DramGeometry`]).
//! * **Address mapping** — physical address → (channel, rank, bank, row,
//!   column), either linear or with DRAMA-style XOR bank functions
//!   ([`AddressMapping`]).
//! * **Row buffers** — one open row per bank; only row-buffer *misses* issue
//!   an `ACT`, so cached or same-row accesses do not hammer
//!   ([`DramDevice::access`]).
//! * **Weak cells** — a seeded, sparse population of cells with per-cell flip
//!   thresholds, true-/anti-cell polarity and victim-data-pattern dependence
//!   ([`WeakCellMap`]).
//! * **Refresh** — staggered auto-refresh (one group per `tREFI`, all rows
//!   every 64 ms) that resets disturbance, so hammering races the refresh
//!   window exactly as on hardware.
//! * **Countermeasures** — an optional sampling Target-Row-Refresh engine
//!   ([`TrrParams`], bypassable by many-sided hammering via
//!   [`DramDevice::hammer_rows`]) and (72,64) SECDED ECC ([`EccMode`],
//!   correcting single-bit flips on read). All default to off, keeping
//!   the unmitigated module the paper attacks byte-identical.
//! * **Command timing** — an opt-in cycle-approximate command clock
//!   ([`CommandClock`], via [`DramConfig::timed`]) scheduling ACT/PRE/RD
//!   under tRC/tRAS/tRP/tFAW with a tREFI REF scheduler, which unlocks the
//!   countermeasures that only exist in the time domain: PARA probabilistic
//!   neighbour refresh ([`ParaParams`]) and DDR5-style Refresh Management
//!   ([`RfmParams`]).
//!
//! Everything is deterministic given a seed; two devices built from the same
//! [`DramConfig`] expose identical flip populations.
//!
//! # Examples
//!
//! Double-sided hammering a victim row:
//!
//! ```
//! use dram::{DramConfig, DramDevice, DramCoord, DramError};
//!
//! # fn main() -> Result<(), DramError> {
//! let mut dev = DramDevice::new(DramConfig::small().with_seed(7));
//! // Pick a victim row and its two aggressor neighbours in bank 0.
//! let victim = DramCoord { channel: 0, rank: 0, bank: 0, row: 100, col: 0 };
//! let above = DramCoord { row: 99, ..victim };
//! let below = DramCoord { row: 101, ..victim };
//! let a = dev.mapping().coord_to_phys(above);
//! let b = dev.mapping().coord_to_phys(below);
//! dev.fill(dev.mapping().coord_to_phys(victim), 8192, 0xFF);
//! let before = dev.flips().len();
//! let outcome = dev.hammer_rows(&[a, b], 400_000)?;
//! assert!(outcome.acts > 0);
//! // Whether this particular row flips depends on the seeded weak-cell
//! // population, but the device's flip log records every flip the burst
//! // induced.
//! for f in &dev.flips()[before..] {
//!     assert_eq!(f.coord.row, 100);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod cells;
mod device;
mod divisor;
mod ecc;
mod error;
mod geometry;
mod mapping;
mod sparse;
mod stats;
mod timing;
mod trr;

pub use cells::{
    CellPolarity, RowEval, WeakCell, WeakCellMap, WeakCellParams, DIST_UNITS_FAR, DIST_UNITS_NEAR,
};
pub use device::{DramConfig, DramDevice, FlipEvent, HammerOutcome, PageDiff};
pub use ecc::{decode_secded, encode_secded, EccMode, EccStats, SecdedDecode};
pub use error::DramError;
pub use geometry::{DramCoord, DramGeometry, PhysAddr};
pub use mapping::{AddressMapping, LinearMapping, MappingKind, XorMapping};
pub use sparse::SparseMemory;
pub use stats::DramStats;
pub use timing::{CommandClock, DramTiming, Nanos, ParaEngine, ParaParams, RfmEngine, RfmParams};
pub use trr::{Burst, TrrEngine, TrrParams};
