//! The ExplFrame attack driver: the paper's standard five-phase
//! composition — Template → Release → Steer → Hammer → Collect & Analyze —
//! expressed over the [`Pipeline`] phase API.
//!
//! Everything the attacker does here is unprivileged on the modelled
//! system: hammering and reading its *own* buffer, `munmap` of one of its
//! own pages, staying scheduled on its CPU, and querying the victim's
//! encryption service. The kernel's page frame cache does the targeting for
//! free (paper §V–§VI). Ground-truth oracles (weak-cell maps, victim frame
//! numbers, victim keys) are used only to *report* success, never to drive
//! the attack.
//!
//! The driver is deliberately thin: [`ExplFrame::run_with`] builds a
//! [`Pipeline`] and strings the standard phases together; every other
//! `run*` method is one call of it. Custom
//! compositions (template-once/steer-many, mixed-cipher multi-victim) use
//! the same phases directly — see the [`Pipeline`] docs.

use machine::{MachineSnapshot, SimMachine};

use crate::config::ExplFrameConfig;
use crate::error::AttackError;
use crate::events::Observer;
use crate::pipeline::Pipeline;
use crate::template::TemplateMemo;

/// Why an attack run ended.
#[must_use = "inspect the outcome to distinguish key recovery from failure modes"]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackOutcome {
    /// The full key was recovered.
    KeyRecovered,
    /// Templating produced no template usable against this victim.
    NoUsableTemplates,
    /// Every fault round failed (steering noise, data-pattern mismatch, or
    /// statistics that never converged).
    OutOfTemplates,
}

impl AttackOutcome {
    /// Kebab-case label (for traces and reports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AttackOutcome::KeyRecovered => "key-recovered",
            AttackOutcome::NoUsableTemplates => "no-usable-templates",
            AttackOutcome::OutOfTemplates => "out-of-templates",
        }
    }
}

/// Everything measured during one attack run.
///
/// Derives `PartialEq` so tests can assert that two runs from the same seed
/// are *identical*, not merely similar (see `tests/determinism.rs`).
#[must_use = "an attack report carries the outcome and all measurements"]
#[derive(Debug, Clone, PartialEq)]
pub struct AttackReport {
    /// Why the run ended.
    pub outcome: AttackOutcome,
    /// Raw templates found by the sweep.
    pub templates_found: usize,
    /// Templates usable against the victim's table layout.
    pub usable_templates: usize,
    /// Fault rounds in which the victim verifiably received the released
    /// frame (oracle-checked, for reporting).
    pub steering_successes: u32,
    /// Fault rounds attempted.
    pub fault_rounds: u32,
    /// Total ciphertexts collected across rounds.
    pub ciphertexts_collected: u64,
    /// Total aggressor pairs hammered (templating + re-hammering).
    pub hammer_pairs_spent: u64,
    /// Recovered AES-128 key, if the victim ran AES.
    pub recovered_aes_key: Option<[u8; 16]>,
    /// Recovered PRESENT-80 key, if the victim ran PRESENT.
    pub recovered_present_key: Option<[u8; 10]>,
    /// Whether the recovered key matches the victim's actual key
    /// (oracle-checked).
    pub key_correct: bool,
    /// Times the run escalated its hammer strategy (0 for the classic
    /// driver; the adaptive driver escalates once per TRR-suppressed
    /// sweep).
    pub strategy_escalations: u32,
    /// Simulated time the whole attack consumed.
    pub elapsed: dram::Nanos,
    /// With the command clock on: how much faster the run could have
    /// activated rows before exhausting the per-refresh-window activation
    /// budget (`max_acts_per_window / achieved acts-per-window`). Values
    /// above 1 mean the attack was nowhere near the device's command-rate
    /// ceiling. `None` when the timing engine is off (or no activations
    /// were issued).
    pub hammer_rate_headroom: Option<f64>,
}

impl AttackReport {
    /// Returns `true` if the run recovered the correct key.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.outcome == AttackOutcome::KeyRecovered && self.key_correct
    }
}

/// How [`ExplFrame::run_with`] runs the attack. The default is the classic
/// driver with no memo and no observer, i.e. [`ExplFrame::run`].
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Escalate to many-sided hammering when the sweep comes back empty
    /// (see [`ExplFrame::run_adaptive`]).
    pub adaptive: bool,
    /// Serve the templating sweep(s) through this memo, keyed on the
    /// snapshot the machine was forked from. The snapshot must equal the
    /// machine's state when the run starts (checked under
    /// `debug_assertions`). Building the pipeline does not touch the
    /// machine and templating is the first phase, so the fork source *is*
    /// the pre-sweep state, and a memo hit on the caller's snapshot is one
    /// pointer compare (the memo holds a clone of that same `Arc`) instead
    /// of a fresh capture every trial.
    pub memo: Option<(&'a MachineSnapshot, &'a mut TemplateMemo)>,
    /// Receives every [`PhaseEvent`](crate::PhaseEvent) and every phase
    /// call's [`PhaseCost`](crate::PhaseCost). Observers never change the
    /// report; without one, no phase reads the host clock.
    pub observer: Option<&'a mut dyn Observer>,
}

/// The attack driver. Construct with a configuration, then [`run`](Self::run).
///
/// # Examples
///
/// ```no_run
/// use explframe_core::{ExplFrame, ExplFrameConfig};
///
/// let report = ExplFrame::new(ExplFrameConfig::small_demo(42)).run().unwrap();
/// assert!(report.succeeded());
/// ```
#[derive(Debug, Clone)]
pub struct ExplFrame {
    config: ExplFrameConfig,
}

impl ExplFrame {
    /// Creates a driver for `config`.
    pub fn new(config: ExplFrameConfig) -> Self {
        ExplFrame { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ExplFrameConfig {
        &self.config
    }

    /// Builds a fresh machine from the configuration and runs the attack.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures and
    /// [`AttackError::NoSuchCpu`] for a CPU the machine lacks; attack-level
    /// failures (no templates, no fault) are reported in
    /// [`AttackReport::outcome`] instead.
    pub fn run(&self) -> Result<AttackReport, AttackError> {
        let mut machine = SimMachine::new(self.config.machine.clone());
        self.run_with(&mut machine, RunOptions::default())
    }

    /// Runs the attack on a machine forked from `snapshot` — the warm-pool
    /// fast path: boot + warm once, snapshot, then run thousands of trials
    /// without paying the boot cost again. The report is byte-identical to
    /// [`Self::run_with`] on a machine in the snapshot's state.
    ///
    /// The snapshot must come from a machine built from
    /// [`ExplFrameConfig::machine`] (the fork inherits the snapshot's
    /// configuration, weak-cell population included).
    ///
    /// # Errors
    ///
    /// See [`Self::run`].
    pub fn run_snapshot(&self, snapshot: &MachineSnapshot) -> Result<AttackReport, AttackError> {
        self.run_with(&mut snapshot.fork(), RunOptions::default())
    }

    /// [`run_snapshot`](Self::run_snapshot) with the templating sweep
    /// served through a [`TemplateMemo`]: the first trial from a given
    /// snapshot runs (and caches) the sweep, every later trial from the
    /// same snapshot replays it from the cache. Reports are byte-identical
    /// to [`Self::run_snapshot`].
    ///
    /// # Errors
    ///
    /// See [`Self::run`].
    pub fn run_snapshot_memo(
        &self,
        snapshot: &MachineSnapshot,
        memo: &mut TemplateMemo,
    ) -> Result<AttackReport, AttackError> {
        let memo = Some((snapshot, memo));
        self.run_with(
            &mut snapshot.fork(),
            RunOptions {
                memo,
                ..RunOptions::default()
            },
        )
    }

    /// [`run_adaptive`](Self::run_adaptive) on a machine forked from
    /// `snapshot` (see [`Self::run_snapshot`]).
    ///
    /// # Errors
    ///
    /// See [`Self::run`].
    pub fn run_adaptive_snapshot(
        &self,
        snapshot: &MachineSnapshot,
    ) -> Result<AttackReport, AttackError> {
        let options = RunOptions {
            adaptive: true,
            ..RunOptions::default()
        };
        self.run_with(&mut snapshot.fork(), options)
    }

    /// The countermeasure-aware composition: like [`Self::run`], but when
    /// the templating sweep comes back empty — the signature of a
    /// Target-Row-Refresh engine refreshing every sandwiched victim before
    /// its flip threshold — the driver escalates to many-sided hammering
    /// ([`crate::HammerStrategy::ManySided`] with
    /// [`ExplFrameConfig::many_sided_rows`] aggressor rows) and re-sweeps;
    /// all later re-hammer rounds keep the escalated pattern. Combine with
    /// [`ExplFrameConfig::ecc_aware`] to also discard rounds whose fault
    /// an ECC DIMM silently corrects.
    ///
    /// # Errors
    ///
    /// See [`Self::run`].
    pub fn run_adaptive(&self) -> Result<AttackReport, AttackError> {
        let mut machine = SimMachine::new(self.config.machine.clone());
        let options = RunOptions {
            adaptive: true,
            ..RunOptions::default()
        };
        self.run_with(&mut machine, options)
    }

    /// Runs the attack on `machine` — the one entry every other `run*`
    /// method forwards to. `options` picks the driver (classic or
    /// adaptive), an optional [`TemplateMemo`] and an optional
    /// [`Observer`]; see [`RunOptions`].
    ///
    /// # Errors
    ///
    /// See [`Self::run`].
    pub fn run_with(
        &self,
        machine: &mut SimMachine,
        options: RunOptions<'_>,
    ) -> Result<AttackReport, AttackError> {
        let RunOptions {
            adaptive,
            memo,
            observer,
        } = options;
        let cfg = &self.config;
        let mut pipe = Pipeline::new(machine, cfg.clone());
        if let Some(observer) = observer {
            pipe = pipe.with_observer(observer);
        }

        if cfg.probe_mapping {
            pipe.probe_mapping()?;
        }

        // With the command clock on, a many-sided round wider than the
        // activation budget supports would dilute each aggressor below its
        // flip threshold — clamp the escalation width to what one refresh
        // window can feed.
        let mut escalate_rows = cfg.many_sided_rows;
        if cfg.machine.dram.timed {
            escalate_rows = escalate_rows.min(
                cfg.machine
                    .dram
                    .cells
                    .max_feasible_rows(&cfg.machine.dram.timing),
            );
        }
        let escalate_to = crate::HammerStrategy::ManySided {
            rows: escalate_rows,
        };
        // The probe mutates the machine, so the fork-source snapshot no
        // longer matches — key the memo on a fresh capture instead.
        let probed;
        let memo = match memo {
            Some((_, memo)) if cfg.probe_mapping => {
                probed = pipe.split().0.snapshot();
                Some((&probed, memo))
            }
            memo => memo,
        };
        let pool = pipe.template_with(memo, adaptive.then_some(escalate_to))?;
        let mut remaining = pipe.select(&pool, cfg.victim);
        if remaining.is_empty() {
            return Ok(pipe.finish(AttackOutcome::NoUsableTemplates));
        }

        while pipe.counters().fault_rounds < cfg.max_fault_rounds {
            let Some(template) = pipe.next_template(&mut remaining, cfg.victim) else {
                break;
            };
            let released = pipe.release(&pool, template)?;
            let steered = pipe.steer(&released)?;
            let victim = steered.victim;
            if !pipe.hammer(&pool, &steered)? {
                pipe.stop_victim(victim)?;
                continue;
            }
            let faulted = pipe.collect(steered)?;
            let recovered = pipe.analyze(faulted)?;
            pipe.stop_victim(victim)?;
            if recovered.is_some() {
                return Ok(pipe.finish(AttackOutcome::KeyRecovered));
            }
        }
        Ok(pipe.finish(AttackOutcome::OutOfTemplates))
    }
}
