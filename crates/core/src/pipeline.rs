//! The composable attack pipeline driver.
//!
//! A [`Pipeline`] strings [`Phase`]s together over one machine, one seeded
//! attacker RNG, one set of [`Counters`], and one
//! [`Observer`](crate::Observer) — and leaves the *order* of phases to the
//! caller. [`ExplFrame::run`](crate::ExplFrame::run) is the paper's
//! standard composition; scenarios the monolithic driver could not express
//! are a few lines each:
//!
//! * **template-once / steer-many** — release a vulnerable frame once, then
//!   steer → hammer → collect → analyze across N victim restarts,
//!   amortizing the expensive templating sweep (`exp_t7_template_reuse`);
//! * **mixed-cipher multi-victim** — one templating sweep, then attack
//!   victims running *different* ciphers on the same machine
//!   (`exp_t8_mixed_victims`).

use dram::Nanos;
use machine::{MachineSnapshot, SimMachine};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::attack::{AttackOutcome, AttackReport};
use crate::config::{ExplFrameConfig, HammerStrategy, VictimCipherKind};
use crate::error::AttackError;
use crate::events::{NullObserver, Observer, PhaseEvent};
use crate::phase::{
    pick_template, AnalyzePhase, CollectPhase, Counters, FaultedCiphertexts, HammerPhase,
    MappingProbePhase, Phase, PhaseCtx, RecoveredKey, RecoveredMapping, ReleasePhase,
    ReleasedFrame, SteerPhase, SteeredVictim, TemplatePhase, TemplatePool,
};
use crate::template::{FlipTemplate, TemplateMemo};
use crate::victim::{VictimCipherService, VictimKeys};

/// Salt mixed into the configuration seed for the attacker RNG (matches the
/// pre-pipeline driver, keeping reports byte-identical per seed).
const ATTACK_RNG_SALT: u64 = 0xA77A_C4E2;

/// A running attack pipeline: phases share the machine, the attacker RNG,
/// the counters, and the observer through this driver.
///
/// # Examples
///
/// The standard five-phase composition (what
/// [`ExplFrame::run`](crate::ExplFrame::run) does), written out by hand:
///
/// ```no_run
/// use explframe_core::{
///     AttackOutcome, ExplFrameConfig, Pipeline, TraceCollector, VictimCipherKind,
/// };
/// use machine::SimMachine;
///
/// let config = ExplFrameConfig::small_demo(1).with_template_pages(1024);
/// let mut machine = SimMachine::new(config.machine.clone());
/// let mut trace = TraceCollector::new();
/// let mut pipe = Pipeline::new(&mut machine, config).with_observer(&mut trace);
///
/// let pool = pipe.template()?;
/// let mut remaining = pipe.select(&pool, VictimCipherKind::AesSbox);
/// while let Some(template) = pipe.next_template(&mut remaining, VictimCipherKind::AesSbox) {
///     let released = pipe.release(&pool, template)?;
///     let steered = pipe.steer(&released)?;
///     let victim = steered.victim;
///     let recovered = if pipe.hammer(&pool, &steered)? {
///         let faulted = pipe.collect(steered)?;
///         pipe.analyze(faulted)?
///     } else {
///         None
///     };
///     pipe.stop_victim(victim)?;
///     if recovered.is_some() {
///         let report = pipe.finish(AttackOutcome::KeyRecovered);
///         assert!(report.succeeded());
///         break;
///     }
/// }
/// # Ok::<(), explframe_core::AttackError>(())
/// ```
pub struct Pipeline<'m, 'o> {
    config: ExplFrameConfig,
    machine: &'m mut SimMachine,
    rng: StdRng,
    observer: Option<&'o mut dyn Observer>,
    null: NullObserver,
    keys: VictimKeys,
    counters: Counters,
    start_time: Nanos,
    hammer_start: u64,
    acts_start: u64,
    analyzer: AnalyzePhase,
    strategy: HammerStrategy,
}

impl<'m, 'o> Pipeline<'m, 'o> {
    /// Creates a pipeline over `machine` with the standard attacker RNG
    /// seeding (`config.seed` salted as the attack driver always has).
    pub fn new(machine: &'m mut SimMachine, config: ExplFrameConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed ^ ATTACK_RNG_SALT);
        Self::with_rng(machine, config, rng)
    }

    /// Creates a pipeline with an explicit attacker RNG (compositions that
    /// must reproduce a different historical seeding, e.g. the spray
    /// baseline).
    pub fn with_rng(machine: &'m mut SimMachine, config: ExplFrameConfig, rng: StdRng) -> Self {
        let keys = VictimKeys::from_seed(config.seed);
        let start_time = machine.now();
        let hammer_start = machine.stats().hammer_pairs;
        let acts_start = machine.dram().stats().acts;
        let strategy = config.strategy;
        Pipeline {
            config,
            machine,
            rng,
            observer: None,
            null: NullObserver,
            keys,
            counters: Counters::default(),
            start_time,
            hammer_start,
            acts_start,
            analyzer: AnalyzePhase::new(),
            strategy,
        }
    }

    /// Attaches an [`Observer`] receiving every [`PhaseEvent`]. Observers
    /// are pure listeners; attaching one never changes the run's results.
    #[must_use]
    pub fn with_observer(mut self, observer: &'o mut dyn Observer) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Runs one phase against this pipeline's context.
    ///
    /// This is the single choke point every phase passes through, so it is
    /// also where the run attributes host wall-clock, machine reads, writes
    /// and hammer pairs, and simulated time to the phase's `perf` keys. With
    /// the registry disabled (the default) both hooks reduce to one relaxed
    /// atomic load; perf can never feed back into the simulation.
    fn phase<P: Phase>(&mut self, phase: &mut P, input: P::In) -> Result<P::Out, AttackError> {
        let perf_keys = phase_keys(phase.name());
        let _timer = perf::scope(perf_keys.scope);
        let Pipeline {
            config,
            machine,
            rng,
            observer,
            null,
            keys,
            counters,
            ..
        } = self;
        let before = perf::is_enabled().then(|| (machine.stats(), machine.now()));
        let observer: &mut dyn Observer = match observer {
            Some(o) => &mut **o,
            None => null,
        };
        let mut ctx = PhaseCtx {
            config,
            machine,
            rng,
            observer,
            counters,
            keys: *keys,
        };
        let out = phase.run(&mut ctx, input);
        if let Some((stats, sim)) = before {
            let now = ctx.machine.stats();
            perf::count(perf_keys.reads, now.reads.saturating_sub(stats.reads));
            perf::count(perf_keys.writes, now.writes.saturating_sub(stats.writes));
            perf::count(
                perf_keys.hammer_pairs,
                now.hammer_pairs.saturating_sub(stats.hammer_pairs),
            );
            // Simulated nanoseconds attributed to the phase — with the
            // timing engine on, this is command-clock time, the per-phase
            // trajectory the timing campaign records.
            perf::count(perf_keys.sim_ns, ctx.machine.now().saturating_sub(sim));
        }
        out
    }

    fn emit(&mut self, event: PhaseEvent) {
        if let Some(observer) = &mut self.observer {
            observer.on_event(&event);
        }
    }

    // ------------------------------------------------------------------
    // Phases
    // ------------------------------------------------------------------

    /// Phase 0 (optional) — mapping probe: recover the controller's bank
    /// mapping from row-conflict latencies (see
    /// [`MappingProbePhase`]). Runs a transient prober process; the
    /// recovered kind and same-bank stride are reported via
    /// [`PhaseEvent::MappingProbed`](crate::PhaseEvent::MappingProbed).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn probe_mapping(&mut self) -> Result<RecoveredMapping, AttackError> {
        self.phase(&mut MappingProbePhase, ())
    }

    /// Phase 1 — template: spawn the attacker and sweep its buffer for
    /// repeatable flips with the pipeline's current [`HammerStrategy`].
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn template(&mut self) -> Result<TemplatePool, AttackError> {
        let mut phase = TemplatePhase {
            strategy: self.strategy,
        };
        self.phase(&mut phase, ())
    }

    /// [`template`](Self::template) through a [`TemplateMemo`]: if the memo
    /// holds a sweep taken from a byte-identical machine state with the
    /// same scan parameters, the machine jumps straight to the cached
    /// post-sweep state and the cached pool is returned — no hammering at
    /// all. A miss runs the sweep live and caches it. Either way the
    /// counters, the emitted events and every subsequent phase are
    /// byte-identical to the uncached pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn template_memo(&mut self, memo: &mut TemplateMemo) -> Result<TemplatePool, AttackError> {
        let pre = self.machine.snapshot();
        self.template_memo_at(&pre, memo)
    }

    /// [`template_memo`](Self::template_memo) keyed on a caller-provided
    /// snapshot of the machine's *current* state, instead of taking a fresh
    /// one. On the warm-pool path every trial forks from one shared
    /// snapshot and templates immediately, so the caller already holds the
    /// exact pre-sweep state — passing it in skips the per-trial snapshot,
    /// and, because the memo stores a clone of the same capture, the hit
    /// comparison short-circuits on shared structure instead of walking
    /// DRAM chunks and cache sets.
    ///
    /// `pre` must equal the machine's current state byte-for-byte (checked
    /// under `debug_assertions`); a mismatched snapshot would replay a
    /// sweep from a different machine state.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn template_memo_at(
        &mut self,
        pre: &MachineSnapshot,
        memo: &mut TemplateMemo,
    ) -> Result<TemplatePool, AttackError> {
        debug_assert!(
            self.machine.snapshot() == *pre,
            "caller snapshot must match the machine state at template time"
        );
        if let Some((post, pool)) = memo.lookup(&self.config, self.strategy, pre) {
            // Only the hit is timed here: a miss runs `template()`, whose
            // phase choke point opens the `phase.template` scope itself.
            let _timer = perf::scope("phase.template");
            perf::count("phase.template.memo_hits", 1);
            let pool = pool.clone();
            self.machine.restore(post);
            self.counters.templates_found = pool.scan.templates.len();
            self.emit(PhaseEvent::TemplateStarted {
                pages: self.config.template_pages,
            });
            self.emit(PhaseEvent::TemplateFinished {
                found: pool.scan.templates.len(),
                rows_hammered: pool.scan.rows_hammered,
                hammer_failures: pool.scan.hammer_failures,
                elapsed: pool.scan.elapsed,
            });
            return Ok(pool);
        }
        let strategy = self.strategy;
        let pool = self.template()?;
        memo.insert(
            &self.config,
            strategy,
            pre.clone(),
            self.machine.snapshot(),
            pool.clone(),
        );
        Ok(pool)
    }

    /// [`template_adaptive`](Self::template_adaptive) through a
    /// [`TemplateMemo`]: each of the (up to two) sweeps is memoized
    /// individually, so an escalating run caches two entries and replays
    /// both on later trials.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn template_adaptive_memo(
        &mut self,
        escalate_to: HammerStrategy,
        memo: &mut TemplateMemo,
    ) -> Result<TemplatePool, AttackError> {
        let pre = self.machine.snapshot();
        self.template_adaptive_memo_at(&pre, escalate_to, memo)
    }

    /// [`template_adaptive_memo`](Self::template_adaptive_memo) keyed on a
    /// caller-provided pre-sweep snapshot (see
    /// [`template_memo_at`](Self::template_memo_at)). Only the first sweep
    /// uses `pre`; an escalated re-sweep starts from the post-sweep machine
    /// state, which the caller cannot hold, so it is re-keyed on a fresh
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn template_adaptive_memo_at(
        &mut self,
        pre: &MachineSnapshot,
        escalate_to: HammerStrategy,
        memo: &mut TemplateMemo,
    ) -> Result<TemplatePool, AttackError> {
        let pool = self.template_memo_at(pre, memo)?;
        if !pool.scan.templates.is_empty() || escalate_to == self.strategy {
            return Ok(pool);
        }
        self.escalate(escalate_to);
        self.template_memo(memo)
    }

    /// Adaptive templating: sweep with the current strategy; if the sweep
    /// comes back *empty* — the signature of a Target-Row-Refresh engine
    /// refreshing every sandwiched victim before its threshold — escalate
    /// to `escalate_to` (emitting [`PhaseEvent::StrategyEscalated`]) and
    /// sweep again. The returned pool is from the last sweep; subsequent
    /// [`Self::hammer`] calls use the escalated strategy.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn template_adaptive(
        &mut self,
        escalate_to: HammerStrategy,
    ) -> Result<TemplatePool, AttackError> {
        let pool = self.template()?;
        if !pool.scan.templates.is_empty() || escalate_to == self.strategy {
            return Ok(pool);
        }
        self.escalate(escalate_to);
        self.template()
    }

    /// Switches the hammer strategy used by subsequent templating and
    /// re-hammer phases, recording the escalation in the counters and the
    /// event stream.
    pub fn escalate(&mut self, to: HammerStrategy) {
        let from = self.strategy;
        self.strategy = to;
        self.counters.strategy_escalations += 1;
        self.emit(PhaseEvent::StrategyEscalated { from, to });
    }

    /// The hammer strategy currently in force.
    #[must_use]
    pub fn strategy(&self) -> HammerStrategy {
        self.strategy
    }

    /// Filters the pool against `kind`'s table layout (best-reproducing
    /// first), recording the usable count and emitting
    /// [`PhaseEvent::TemplatesSelected`].
    pub fn select(&mut self, pool: &TemplatePool, kind: VictimCipherKind) -> Vec<FlipTemplate> {
        let usable = pool.usable(kind);
        self.counters.usable_templates = usable.len();
        self.emit(PhaseEvent::TemplatesSelected {
            kind,
            usable: usable.len(),
        });
        usable
    }

    /// Picks (and removes) the next template to spend: for T-table victims,
    /// one landing in a table the analyzer still needs; otherwise the most
    /// reproducible remaining.
    pub fn next_template(
        &self,
        remaining: &mut Vec<FlipTemplate>,
        kind: VictimCipherKind,
    ) -> Option<FlipTemplate> {
        pick_template(remaining, kind, self.analyzer.tables_needed())
    }

    /// Phase 2 — release: `munmap` the template's page so its frame lands
    /// at the head of the CPU's page frame cache.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn release(
        &mut self,
        pool: &TemplatePool,
        template: FlipTemplate,
    ) -> Result<ReleasedFrame, AttackError> {
        self.phase(&mut ReleasePhase, (pool.attacker, template))
    }

    /// Releases the *entire* template buffer (the spray baseline's move —
    /// an attacker who cannot steer gives all frames back at once).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn release_all(&mut self, pool: &TemplatePool) -> Result<(), AttackError> {
        self.machine
            .munmap(pool.attacker, pool.buffer, self.config.template_pages)?;
        Ok(())
    }

    /// Phase 3 — steer: start a victim of the configured cipher whose table
    /// page's first touch pops the released frame.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn steer(&mut self, released: &ReleasedFrame) -> Result<SteeredVictim, AttackError> {
        self.steer_as(released, self.config.victim)
    }

    /// [`steer`](Self::steer) with an explicit victim cipher (mixed-cipher
    /// compositions steer different victims onto different frames).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn steer_as(
        &mut self,
        released: &ReleasedFrame,
        kind: VictimCipherKind,
    ) -> Result<SteeredVictim, AttackError> {
        self.phase(&mut SteerPhase, (*released, kind))
    }

    /// Phase 4 — hammer: re-hammer the retained aggressors around the
    /// steered frame with the pipeline's current [`HammerStrategy`].
    /// `Ok(false)` means the hammer primitive rejected the aggressor set
    /// (fragmented buffer) and the round should be skipped.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn hammer(
        &mut self,
        pool: &TemplatePool,
        steered: &SteeredVictim,
    ) -> Result<bool, AttackError> {
        let mut phase = HammerPhase {
            strategy: self.strategy,
        };
        self.phase(&mut phase, (pool.attacker, pool.buffer, steered.template))
    }

    /// Phase 5a — collect: query victim encryptions until the fault
    /// statistics converge or the round proves hopeless.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn collect(&mut self, steered: SteeredVictim) -> Result<FaultedCiphertexts, AttackError> {
        self.phase(&mut CollectPhase, steered)
    }

    /// Phase 5b — analyze: feed the round's statistics to the cipher's
    /// persistent-fault analysis. `Some` once the full key is out.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn analyze(
        &mut self,
        faulted: FaultedCiphertexts,
    ) -> Result<Option<RecoveredKey>, AttackError> {
        let mut analyzer = std::mem::take(&mut self.analyzer);
        let out = self.phase(&mut analyzer, faulted);
        self.analyzer = analyzer;
        out
    }

    // ------------------------------------------------------------------
    // Primitives for custom compositions
    // ------------------------------------------------------------------

    /// Starts a victim service without steering bookkeeping (the spray
    /// baseline's victim arrives unsteered).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn spawn_victim(
        &mut self,
        kind: VictimCipherKind,
    ) -> Result<VictimCipherService, AttackError> {
        VictimCipherService::start(self.machine, self.config.victim_cpu, kind, self.keys)
            .map_err(AttackError::from)
    }

    /// Terminates a victim, returning its table frame to the page frame
    /// cache (where the *next* steer can pick it up again).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Machine`] for substrate failures.
    pub fn stop_victim(&mut self, victim: VictimCipherService) -> Result<(), AttackError> {
        victim.stop(self.machine)?;
        Ok(())
    }

    /// Advances simulated time by one full refresh window, letting all
    /// hammer disturbance refresh away — required between repeated hammer
    /// rounds on the *same* aggressors (template-once / steer-many), since
    /// a weak cell only flips when disturbance crosses its threshold within
    /// one window.
    pub fn settle(&mut self) {
        let window = self.machine.config().dram.timing.refresh_window();
        self.machine.advance(window);
    }

    /// Checks a recovered key against the ground-truth victim keys
    /// (experiment oracle).
    #[must_use]
    pub fn verify_key(&self, kind: VictimCipherKind, key: &RecoveredKey) -> bool {
        match kind {
            VictimCipherKind::AesSbox | VictimCipherKind::AesTtable => {
                key.aes == Some(self.keys.aes)
            }
            VictimCipherKind::Present => key.present == Some(self.keys.present),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The attack configuration.
    #[must_use]
    pub fn config(&self) -> &ExplFrameConfig {
        &self.config
    }

    /// The run's accumulating tallies.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Ground-truth victim keys (experiment oracle).
    #[must_use]
    pub fn victim_keys(&self) -> VictimKeys {
        self.keys
    }

    /// Simulated time consumed since the pipeline was created.
    #[must_use]
    pub fn elapsed(&self) -> Nanos {
        self.machine.now() - self.start_time
    }

    /// Aggressor pairs hammered since the pipeline was created (templating
    /// and re-hammering).
    #[must_use]
    pub fn hammer_pairs_spent(&self) -> u64 {
        self.machine.stats().hammer_pairs - self.hammer_start
    }

    /// Direct machine access for composition-specific steps (noise
    /// processes, oracle reads). Splits off the attacker RNG so both can be
    /// used together.
    pub fn split(&mut self) -> (&mut SimMachine, &mut StdRng) {
        (self.machine, &mut self.rng)
    }

    /// Finalizes the run: emits [`PhaseEvent::PipelineFinished`] and builds
    /// the [`AttackReport`] (key verified against the configured victim's
    /// ground truth).
    pub fn finish(mut self, outcome: AttackOutcome) -> AttackReport {
        let elapsed = self.elapsed();
        let hammer_pairs_spent = self.hammer_pairs_spent();
        // How much faster the run could have activated rows before hitting
        // the per-window activation budget the command clock enforces:
        // (budget) / (activations per refresh window actually achieved).
        // Only meaningful — and only computed — with the timing engine on.
        let hammer_rate_headroom = if self.config.machine.dram.timed {
            let timing = self.config.machine.dram.timing;
            let acts = self.machine.dram().stats().acts - self.acts_start;
            (acts > 0 && elapsed > 0).then(|| {
                let achieved_per_window =
                    acts as f64 * timing.refresh_window() as f64 / elapsed as f64;
                timing.max_acts_per_window() as f64 / achieved_per_window
            })
        } else {
            None
        };
        self.emit(PhaseEvent::PipelineFinished {
            outcome,
            fault_rounds: self.counters.fault_rounds,
            elapsed,
        });
        let key_correct = self.verify_key(
            self.config.victim,
            &RecoveredKey {
                aes: self.counters.recovered_aes_key,
                present: self.counters.recovered_present_key,
            },
        );
        AttackReport {
            outcome,
            templates_found: self.counters.templates_found,
            usable_templates: self.counters.usable_templates,
            steering_successes: self.counters.steering_successes,
            fault_rounds: self.counters.fault_rounds,
            ciphertexts_collected: self.counters.ciphertexts_collected,
            hammer_pairs_spent,
            recovered_aes_key: self.counters.recovered_aes_key,
            recovered_present_key: self.counters.recovered_present_key,
            key_correct,
            strategy_escalations: self.counters.strategy_escalations,
            elapsed,
            hammer_rate_headroom,
        }
    }
}

/// A phase's static `perf` registry keys — the registry keys by
/// `&'static str`, so the `"phase."` namespace prefix has to be baked in at
/// compile time.
struct PhaseKeys {
    /// The wall-clock scope, e.g. `phase.collect`.
    scope: &'static str,
    /// Machine reads (`MachineStats::reads`) during the phase.
    reads: &'static str,
    /// Machine writes during the phase.
    writes: &'static str,
    /// Hammer pairs during the phase.
    hammer_pairs: &'static str,
    /// Simulated nanoseconds the phase consumed.
    sim_ns: &'static str,
}

/// Maps a phase's dynamic name onto its [`PhaseKeys`].
fn phase_keys(name: &str) -> PhaseKeys {
    macro_rules! keys {
        ($scope:literal) => {
            PhaseKeys {
                scope: $scope,
                reads: concat!($scope, ".reads"),
                writes: concat!($scope, ".writes"),
                hammer_pairs: concat!($scope, ".hammer_pairs"),
                sim_ns: concat!($scope, ".sim_ns"),
            }
        };
    }
    match name {
        "mapping-probe" => keys!("phase.mapping_probe"),
        "template" => keys!("phase.template"),
        "release" => keys!("phase.release"),
        "steer" => keys!("phase.steer"),
        "hammer" => keys!("phase.hammer"),
        "collect" => keys!("phase.collect"),
        "analyze" => keys!("phase.analyze"),
        _ => keys!("phase.other"),
    }
}

impl std::fmt::Debug for Pipeline<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("config", &self.config)
            .field("counters", &self.counters)
            .field("observed", &self.observer.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::TraceCollector;
    use crate::ExplFrame;

    fn config(seed: u64) -> ExplFrameConfig {
        ExplFrameConfig::small_demo(seed).with_template_pages(512)
    }

    #[test]
    fn manual_composition_matches_explframe_run() {
        let report = ExplFrame::new(config(3)).run().expect("driver run");

        let cfg = config(3);
        let mut machine = SimMachine::new(cfg.machine.clone());
        let mut pipe = Pipeline::new(&mut machine, cfg.clone());
        let pool = pipe.template().expect("template");
        let mut remaining = pipe.select(&pool, cfg.victim);
        let manual = if remaining.is_empty() {
            pipe.finish(AttackOutcome::NoUsableTemplates)
        } else {
            let mut result = None;
            while pipe.counters().fault_rounds < cfg.max_fault_rounds {
                let Some(t) = pipe.next_template(&mut remaining, cfg.victim) else {
                    break;
                };
                let released = pipe.release(&pool, t).expect("release");
                let steered = pipe.steer(&released).expect("steer");
                let victim = steered.victim;
                if !pipe.hammer(&pool, &steered).expect("hammer") {
                    pipe.stop_victim(victim).expect("stop");
                    continue;
                }
                let faulted = pipe.collect(steered).expect("collect");
                let recovered = pipe.analyze(faulted).expect("analyze");
                pipe.stop_victim(victim).expect("stop");
                if recovered.is_some() {
                    result = Some(AttackOutcome::KeyRecovered);
                    break;
                }
            }
            pipe.finish(result.unwrap_or(AttackOutcome::OutOfTemplates))
        };
        assert_eq!(manual, report, "manual composition diverged from run()");
    }

    #[test]
    fn observer_does_not_change_the_report() {
        let untraced = ExplFrame::new(config(5)).run().expect("untraced");
        let mut trace = TraceCollector::new();
        let traced = ExplFrame::new(config(5))
            .run_traced(&mut trace)
            .expect("traced");
        assert_eq!(untraced, traced, "attaching an observer changed the run");
        assert!(!trace.is_empty(), "trace recorded nothing");
        // The trace brackets the run: starts with templating, ends with the
        // pipeline outcome.
        assert_eq!(trace.events().first().unwrap().name(), "template-started");
        assert_eq!(trace.events().last().unwrap().name(), "pipeline-finished");
    }

    #[test]
    fn phases_record_perf_time_and_ops_when_enabled() {
        // Instrumented run: identical report, populated registry. Other
        // tests in this binary may run concurrently and also record into
        // the process-global registry, so assert presence, not totals.
        let baseline = ExplFrame::new(config(7)).run().expect("baseline");
        perf::enable();
        perf::reset();
        let instrumented = ExplFrame::new(config(7)).run().expect("instrumented");
        let stats: std::collections::BTreeMap<_, _> = perf::snapshot().into_iter().collect();
        perf::disable();

        assert_eq!(
            instrumented, baseline,
            "perf instrumentation changed the run"
        );
        for key in [
            "phase.template",
            "phase.release",
            "phase.steer",
            "phase.hammer",
            "phase.collect",
            "phase.analyze",
        ] {
            let s = stats.get(key).unwrap_or_else(|| panic!("{key} missing"));
            assert!(s.calls > 0, "{key} recorded no scope entries");
        }
        // Each machine op family has its own counter: collect reads the
        // victim's tables through the machine, hammer only hammers.
        assert!(
            stats["phase.collect.reads"].ops > 0,
            "collect counted no reads"
        );
        assert!(
            stats["phase.hammer.hammer_pairs"].ops > 0,
            "hammer counted no pairs"
        );
        assert_eq!(
            stats["phase.collect"].ops, 0,
            "the scope key carries no op count"
        );
    }

    #[test]
    fn verify_key_checks_against_ground_truth() {
        let cfg = config(1);
        let mut machine = SimMachine::new(cfg.machine.clone());
        let pipe = Pipeline::new(&mut machine, cfg);
        let keys = pipe.victim_keys();
        assert!(pipe.verify_key(VictimCipherKind::AesSbox, &RecoveredKey::from_aes(keys.aes)));
        assert!(!pipe.verify_key(VictimCipherKind::AesSbox, &RecoveredKey::from_aes([0; 16])));
        assert!(pipe.verify_key(
            VictimCipherKind::Present,
            &RecoveredKey::from_present(keys.present)
        ));
        assert!(!pipe.verify_key(VictimCipherKind::Present, &RecoveredKey::from_aes(keys.aes)));
    }
}
