//! # ExplFrame — reproduction of the DATE 2020 paper
//!
//! *"ExplFrame: Exploiting Page Frame Cache for Fault Analysis of Block
//! Ciphers"* (Chakraborty, Bhattacharya, Saha, Mukhopadhyay).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`dram`] — DRAM device model with Rowhammer disturbance physics.
//! * [`cachesim`] — CPU cache model coupling misses to row activations.
//! * [`memsim`] — Linux zoned / buddy / per-CPU page-frame-cache allocator.
//! * [`machine`] — the composed multi-CPU machine with processes and paging.
//! * [`ciphers`] — AES and PRESENT with externalized lookup tables.
//! * [`fault`] — Persistent Fault Analysis and DFA key recovery.
//! * [`attack`] (crate `explframe-core`) — the phase-pipeline attack API:
//!   the phases (`template`/`release`/`steer`/`hammer`/`collect`/
//!   `analyze`) are `Pipeline` methods over typed artifacts, with
//!   structured `PhaseEvent` traces and per-call `PhaseCost`s; `ExplFrame`
//!   is the paper's standard composition.
//! * [`campaign`] — the deterministic parallel campaign engine driving the
//!   `exp_*` experiment binaries (scenario matrices, SplitMix64 per-trial
//!   seeding, thread-count-independent reduction, `results/summary.json`).
//!
//! See the repository `README.md` for a tour and `examples/quickstart.rs`
//! for an end-to-end run.

#![forbid(unsafe_code)]

pub use cachesim;
pub use campaign;
pub use ciphers;
pub use dram;
pub use explframe_core as attack;
pub use fault;
pub use machine;
pub use memsim;
