//! Structured phase events and pluggable observers.
//!
//! Every phase of the attack [`Pipeline`](crate::Pipeline) reports what it
//! did as a [`PhaseEvent`], and what each call cost as a [`PhaseCost`], to
//! the pipeline's [`Observer`]. Observers are pure listeners: they never
//! touch the machine or the attacker RNG, so attaching one cannot change a
//! run's results. The built-in
//! [`TraceCollector`] records the event stream and serializes it via
//! [`campaign::Json`] into the shared `results/trace.json` through a
//! [`campaign::TraceSink`].

use campaign::{Json, TraceSink};
use dram::Nanos;

use crate::attack::AttackOutcome;
use crate::config::{HammerStrategy, VictimCipherKind};
use crate::phase::CollectOutcome;

/// A listener for [`PhaseEvent`]s emitted by a [`Pipeline`](crate::Pipeline).
///
/// Implementations must not have observable side effects on the attack
/// (they receive events by reference and have no machine access), so a
/// traced run and an untraced run produce identical reports.
pub trait Observer {
    /// Called once per emitted event, in emission order.
    fn on_event(&mut self, event: &PhaseEvent);

    /// Called once per phase call with what it cost, after the phase ran,
    /// memo hits included. `phase` is the phase's name (`mapping-probe`,
    /// `template`, `release`, `steer`, `hammer`, `collect` or `analyze`).
    /// The default ignores it; [`PhaseLedger`](crate::PhaseLedger) sums it.
    fn on_phase(&mut self, _phase: &'static str, _cost: &PhaseCost) {}
}

/// An [`Observer`] that discards every event (the default).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_event(&mut self, _event: &PhaseEvent) {}
}

/// What phase calls cost. The pipeline reports each call's cost
/// (`calls == 1`) through [`Observer::on_phase`];
/// [`PhaseLedger`](crate::PhaseLedger) sums them per phase.
///
/// Only `host_ns` is host time; every other field is a deterministic
/// function of the configuration and seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCost {
    /// Phase calls.
    pub calls: u64,
    /// Calls a template memo served by replaying a cached sweep. The
    /// simulated fields are then the replayed sweep's: the machine jumps
    /// to the state the sweep left.
    pub memo_hits: u64,
    /// Host wall-clock nanoseconds.
    pub host_ns: u64,
    /// Simulated nanoseconds the machine clock advanced.
    pub sim_ns: u64,
    /// Machine reads issued (`MachineStats::reads`).
    pub reads: u64,
    /// Machine writes issued.
    pub writes: u64,
    /// Aggressor pairs hammered.
    pub hammer_pairs: u64,
}

impl PhaseCost {
    /// Adds `other` field by field.
    pub(crate) fn add(&mut self, other: &PhaseCost) {
        self.calls += other.calls;
        self.memo_hits += other.memo_hits;
        self.host_ns = self.host_ns.saturating_add(other.host_ns);
        self.sim_ns += other.sim_ns;
        self.reads += other.reads;
        self.writes += other.writes;
        self.hammer_pairs += other.hammer_pairs;
    }
}

/// One structured record of something a pipeline phase did.
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseEvent {
    /// The latency-based mapping probe finished.
    MappingProbed {
        /// Label of the recovered mapping (`None` if ambiguous).
        kind: Option<&'static str>,
        /// Page stride between same-bank neighbouring rows (0 if
        /// unrecovered).
        stride_pages: u64,
        /// Address pairs probed.
        probes: u32,
        /// Simulated time the probe consumed.
        elapsed: Nanos,
    },
    /// The templating sweep began over the attacker's buffer.
    TemplateStarted {
        /// Template buffer size in pages.
        pages: u64,
    },
    /// The templating sweep finished.
    TemplateFinished {
        /// Deduplicated templates found.
        found: usize,
        /// Aggressor pairs hammered by the sweep.
        rows_hammered: u64,
        /// Hammer attempts rejected (buffer fragmentation).
        hammer_failures: u64,
        /// Simulated time the sweep consumed.
        elapsed: Nanos,
    },
    /// Templates were filtered against a victim's table layout.
    TemplatesSelected {
        /// The victim cipher shape the selection targeted.
        kind: VictimCipherKind,
        /// Templates that survived the usability filter.
        usable: usize,
    },
    /// A vulnerable page was released into the CPU's page frame cache.
    FrameReleased {
        /// Page index of the released page within the template buffer.
        page_index: u64,
        /// Frame number released (oracle-observed, reporting only).
        pfn: Option<u64>,
    },
    /// A victim service started and (maybe) received the released frame.
    VictimSteered {
        /// Fault round this steering belongs to (1-based).
        round: u32,
        /// The victim's cipher shape.
        kind: VictimCipherKind,
        /// Whether the victim's table page landed on the released frame
        /// (oracle-checked, reporting only).
        steered: bool,
        /// Frame now backing the victim's table page (oracle).
        victim_pfn: Option<u64>,
    },
    /// The templating sweep (or the re-hammer) switched hammer strategy —
    /// the adaptive driver's reaction to TRR-suppressed flips.
    StrategyEscalated {
        /// The strategy that failed to flip anything.
        from: HammerStrategy,
        /// The strategy the attack continues with.
        to: HammerStrategy,
    },
    /// The retained aggressors were re-hammered around the steered frame.
    HammerFinished {
        /// Fault round (1-based).
        round: u32,
        /// Rounds hammered (pairs for the double-sided strategy).
        pairs: u64,
        /// Distinct aggressor rows activated per round (2 = double-sided).
        rows: u32,
        /// `false` if the hammer primitive rejected the aggressors.
        ok: bool,
    },
    /// Faulty-ciphertext collection for one round ended.
    CiphertextsCollected {
        /// Fault round (1-based).
        round: u32,
        /// Ciphertexts collected this round.
        collected: u64,
        /// How collection ended.
        outcome: CollectOutcome,
    },
    /// One round's statistics were fed to the key-recovery analysis.
    RoundAnalyzed {
        /// Fault round (1-based).
        round: u32,
        /// Whether the full key is now recovered.
        key_recovered: bool,
    },
    /// The pipeline finished and produced its report.
    PipelineFinished {
        /// Why the run ended.
        outcome: AttackOutcome,
        /// Total fault rounds attempted.
        fault_rounds: u32,
        /// Simulated time the whole run consumed.
        elapsed: Nanos,
    },
}

impl PhaseEvent {
    /// The event's kebab-case discriminator (the `"event"` field in JSON).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            PhaseEvent::MappingProbed { .. } => "mapping-probed",
            PhaseEvent::TemplateStarted { .. } => "template-started",
            PhaseEvent::TemplateFinished { .. } => "template-finished",
            PhaseEvent::TemplatesSelected { .. } => "templates-selected",
            PhaseEvent::FrameReleased { .. } => "frame-released",
            PhaseEvent::VictimSteered { .. } => "victim-steered",
            PhaseEvent::StrategyEscalated { .. } => "strategy-escalated",
            PhaseEvent::HammerFinished { .. } => "hammer-finished",
            PhaseEvent::CiphertextsCollected { .. } => "ciphertexts-collected",
            PhaseEvent::RoundAnalyzed { .. } => "round-analyzed",
            PhaseEvent::PipelineFinished { .. } => "pipeline-finished",
        }
    }

    /// The event as a `campaign` JSON object (an `"event"` discriminator
    /// plus the variant's fields).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.set("event", self.name());
        match *self {
            PhaseEvent::MappingProbed {
                kind,
                stride_pages,
                probes,
                elapsed,
            } => {
                obj.set(
                    "kind",
                    kind.map_or(Json::Null, |label| Json::Str(label.to_owned())),
                );
                obj.set("stride_pages", stride_pages);
                obj.set("probes", probes);
                obj.set("elapsed_ns", elapsed);
            }
            PhaseEvent::TemplateStarted { pages } => obj.set("pages", pages),
            PhaseEvent::TemplateFinished {
                found,
                rows_hammered,
                hammer_failures,
                elapsed,
            } => {
                obj.set("found", found);
                obj.set("rows_hammered", rows_hammered);
                obj.set("hammer_failures", hammer_failures);
                obj.set("elapsed_ns", elapsed);
            }
            PhaseEvent::TemplatesSelected { kind, usable } => {
                obj.set("kind", kind.label());
                obj.set("usable", usable);
            }
            PhaseEvent::FrameReleased { page_index, pfn } => {
                obj.set("page_index", page_index);
                obj.set("pfn", opt_u64(pfn));
            }
            PhaseEvent::VictimSteered {
                round,
                kind,
                steered,
                victim_pfn,
            } => {
                obj.set("round", round);
                obj.set("kind", kind.label());
                obj.set("steered", steered);
                obj.set("victim_pfn", opt_u64(victim_pfn));
            }
            PhaseEvent::StrategyEscalated { from, to } => {
                obj.set("from", from.label());
                obj.set("to", to.label());
                obj.set("rows", u64::from(to.rows()));
            }
            PhaseEvent::HammerFinished {
                round,
                pairs,
                rows,
                ok,
            } => {
                obj.set("round", round);
                obj.set("pairs", pairs);
                obj.set("rows", rows);
                obj.set("ok", ok);
            }
            PhaseEvent::CiphertextsCollected {
                round,
                collected,
                outcome,
            } => {
                obj.set("round", round);
                obj.set("collected", collected);
                obj.set("outcome", outcome.label());
            }
            PhaseEvent::RoundAnalyzed {
                round,
                key_recovered,
            } => {
                obj.set("round", round);
                obj.set("key_recovered", key_recovered);
            }
            PhaseEvent::PipelineFinished {
                outcome,
                fault_rounds,
                elapsed,
            } => {
                obj.set("outcome", outcome.label());
                obj.set("fault_rounds", fault_rounds);
                obj.set("elapsed_ns", elapsed);
            }
        }
        obj
    }
}

fn opt_u64(value: Option<u64>) -> Json {
    value.map_or(Json::Null, Json::UInt)
}

/// An [`Observer`] that records every event, for inspection or persistence
/// as a `results/trace.json` record.
///
/// # Examples
///
/// ```no_run
/// use explframe_core::{ExplFrame, ExplFrameConfig, RunOptions, TraceCollector};
/// use machine::SimMachine;
///
/// let config = ExplFrameConfig::small_demo(1);
/// let mut machine = SimMachine::new(config.machine.clone());
/// let mut trace = TraceCollector::new();
/// let options = RunOptions {
///     observer: Some(&mut trace),
///     ..RunOptions::default()
/// };
/// let report = ExplFrame::new(config).run_with(&mut machine, options)?;
/// trace.to_sink("demo").write(); // merges into results/trace.json
/// # let _ = report;
/// # Ok::<(), explframe_core::AttackError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceCollector {
    events: Vec<PhaseEvent>,
}

impl TraceCollector {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events, in emission order.
    #[must_use]
    pub fn events(&self) -> &[PhaseEvent] {
        &self.events
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drops all recorded events (reuse one collector across runs).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// The whole trace as a JSON array of event objects.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Arr(self.events.iter().map(PhaseEvent::to_json).collect())
    }

    /// Packages the trace as a named [`TraceSink`] ready to
    /// [`write`](TraceSink::write) into `results/trace.json`.
    #[must_use]
    pub fn to_sink(&self, name: &str) -> TraceSink {
        let mut sink = TraceSink::new(name);
        for event in &self.events {
            sink.push(event.to_json());
        }
        sink
    }
}

impl Observer for TraceCollector {
    fn on_event(&mut self, event: &PhaseEvent) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_with_discriminator_and_fields() {
        let event = PhaseEvent::VictimSteered {
            round: 3,
            kind: VictimCipherKind::Present,
            steered: true,
            victim_pfn: Some(77),
        };
        let json = event.to_json();
        assert_eq!(
            json.get("event").and_then(Json::as_str),
            Some("victim-steered")
        );
        assert_eq!(json.get("round").and_then(Json::as_u64), Some(3));
        assert_eq!(json.get("kind").and_then(Json::as_str), Some("present"));
        assert_eq!(json.get("victim_pfn").and_then(Json::as_u64), Some(77));

        let none = PhaseEvent::FrameReleased {
            page_index: 9,
            pfn: None,
        };
        assert_eq!(none.to_json().get("pfn"), Some(&Json::Null));
    }

    #[test]
    fn mapping_probe_event_serializes() {
        let event = PhaseEvent::MappingProbed {
            kind: Some("xor"),
            stride_pages: 128,
            probes: 6,
            elapsed: 42,
        };
        let json = event.to_json();
        assert_eq!(
            json.get("event").and_then(Json::as_str),
            Some("mapping-probed")
        );
        assert_eq!(json.get("kind").and_then(Json::as_str), Some("xor"));
        assert_eq!(json.get("stride_pages").and_then(Json::as_u64), Some(128));
        assert_eq!(json.get("probes").and_then(Json::as_u64), Some(6));
        let ambiguous = PhaseEvent::MappingProbed {
            kind: None,
            stride_pages: 0,
            probes: 6,
            elapsed: 1,
        };
        assert_eq!(ambiguous.to_json().get("kind"), Some(&Json::Null));
    }

    #[test]
    fn collector_records_in_order_and_sinks() {
        let mut collector = TraceCollector::new();
        assert!(collector.is_empty());
        collector.on_event(&PhaseEvent::TemplateStarted { pages: 4 });
        collector.on_event(&PhaseEvent::PipelineFinished {
            outcome: AttackOutcome::OutOfTemplates,
            fault_rounds: 2,
            elapsed: 10,
        });
        assert_eq!(collector.len(), 2);
        assert_eq!(collector.events()[0].name(), "template-started");
        let sink = collector.to_sink("unit");
        assert_eq!(sink.len(), 2);
        let Json::Arr(items) = collector.to_json() else {
            panic!("expected array");
        };
        assert_eq!(
            items[1].get("outcome").and_then(Json::as_str),
            Some("out-of-templates")
        );
        collector.clear();
        assert!(collector.is_empty());
    }
}
