//! # `explframe-core` — the ExplFrame attack
//!
//! Reproduction of the attack from *"ExplFrame: Exploiting Page Frame Cache
//! for Fault Analysis of Block Ciphers"* (DATE 2020) on the fully simulated
//! substrate built by the `dram`, `cachesim`, `memsim` and `machine` crates.
//!
//! The attack is five phases (paper §V–§VI), each a [`Pipeline`] method
//! consuming and producing typed artifacts:
//!
//! 1. **Template** ([`Pipeline::template`] → [`TemplatePool`]) — hammer
//!    the attacker's own large buffer, read it back, and build a map of
//!    repeatable bit flips ([`FlipTemplate`]). Unprivileged: no pagemap,
//!    no oracles. A [`TemplateMemo`] replays a sweep already taken from
//!    the same machine state.
//! 2. **Release** ([`Pipeline::release`] → [`ReleasedFrame`]) — `munmap`
//!    one vulnerable page. The freed frame lands at the *head* of this
//!    CPU's per-CPU page frame cache. The attacker stays active; sleeping
//!    would let the idle kernel drain the cache (§V).
//! 3. **Steer** ([`Pipeline::steer`] → [`SteeredVictim`]) — the victim's
//!    next small allocation on the same CPU pops exactly that frame: its
//!    cipher tables now live in memory the attacker knows how to flip.
//! 4. **Hammer** ([`Pipeline::hammer`]) — re-hammer the retained aggressor
//!    rows; the templated bit flips inside the victim's table.
//! 5. **Collect & analyze** ([`Pipeline::collect`] →
//!    [`FaultedCiphertexts`], [`Pipeline::analyze`] → [`RecoveredKey`]) —
//!    query encryptions and run Persistent Fault Analysis (or its
//!    T-table/PRESENT variants) from the `fault` crate until the key is
//!    out.
//!
//! An optional phase 0, [`Pipeline::probe_mapping`], recovers the DRAM
//! bank mapping from row-conflict latencies.
//!
//! [`Pipeline`] runs phases in any order over one machine, RNG, and
//! [`Observer`]. Every phase call, memo hits included, passes through one
//! choke point inside the pipeline, which is where the observer learns
//! what the call did and cost: structured [`PhaseEvent`]s — collect them
//! with [`TraceCollector`] and persist via `campaign`'s `TraceSink` into
//! `results/trace.json` — and one [`PhaseCost`] per call, which a
//! [`PhaseLedger`] sums per phase name. [`ExplFrame`] is the standard
//! five-phase composition, started through [`ExplFrame::run_with`];
//! [`run_spray_baseline`] shares the templating phase and models the
//! untargeted prior-work comparison.
//!
//! # Examples
//!
//! ```no_run
//! use explframe_core::{ExplFrame, ExplFrameConfig};
//!
//! let report = ExplFrame::new(ExplFrameConfig::small_demo(1)).run()?;
//! println!(
//!     "templates={} steered={} ciphertexts={} key={:02x?}",
//!     report.templates_found,
//!     report.steering_successes,
//!     report.ciphertexts_collected,
//!     report.recovered_aes_key,
//! );
//! # Ok::<(), explframe_core::AttackError>(())
//! ```
//!
//! Custom compositions the monolithic driver could not express (template
//! once, steer many victims; mixed-cipher multi-victim) are a few lines
//! over the same phase methods — see [`Pipeline`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attack;
mod baseline;
mod config;
mod error;
mod events;
mod ledger;
mod memsource;
mod noise;
mod phase;
mod pipeline;
mod ptflip;
mod template;
mod victim;

pub use attack::{AttackOutcome, AttackReport, ExplFrame, RunOptions};
pub use baseline::{run_spray_baseline, SprayReport};
pub use config::{ExplFrameConfig, HammerStrategy, VictimCipherKind};
pub use error::AttackError;
pub use events::{NullObserver, Observer, PhaseCost, PhaseEvent, TraceCollector};
pub use ledger::PhaseLedger;
pub use memsource::MachineTableSource;
pub use noise::NoiseProcess;
pub use phase::{
    select_attack_pages, template_usable, CollectOutcome, Counters, FaultedCiphertexts,
    RecoveredKey, RecoveredMapping, ReleasedFrame, SteeredVictim, TemplatePool,
};
pub use pipeline::Pipeline;
pub use ptflip::{pte_flip_escalation, PtFlipConfig, PtFlipOutcome};
pub use template::{template_scan, template_scan_with, FlipTemplate, TemplateMemo, TemplateScan};
pub use victim::{VictimCipherService, VictimKeys, VictimSession};
