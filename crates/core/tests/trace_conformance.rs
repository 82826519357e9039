//! Conformance of the trace artifact: a pipeline's event stream, once
//! serialized through `campaign`'s JSON and re-parsed, must still satisfy
//! the phase-ordering invariants — phases appear in pipeline order, every
//! `template-started` is closed by a `template-finished`, round numbers
//! never decrease, per-round events follow the steer → hammer → collect →
//! analyze sequence, and the persisted `event_count` matches the
//! `TraceCollector` that produced it. The same invariants are applied to
//! whatever `results/trace.json` is on disk, so stale or hand-mangled
//! artifacts fail loudly.

use campaign::{trace_path, Json};
use explframe_core::{
    AttackReport, ExplFrame, ExplFrameConfig, Observer, PhaseCost, PhaseEvent, PhaseLedger,
    RunOptions, TraceCollector,
};
use machine::SimMachine;

/// Coarse pipeline rank of each event kind (first occurrences must be
/// nondecreasing in this order).
fn phase_rank(name: &str) -> Option<u32> {
    Some(match name {
        "template-started" | "template-finished" | "strategy-escalated" => 0,
        "templates-selected" => 1,
        "frame-released" => 2,
        "victim-steered" => 3,
        "hammer-finished" => 4,
        "ciphertexts-collected" => 5,
        "round-analyzed" => 6,
        "pipeline-finished" => 7,
        _ => return None,
    })
}

fn event_name(event: &Json) -> &str {
    event
        .get("event")
        .and_then(Json::as_str)
        .expect("every trace event carries an 'event' discriminator")
}

/// Asserts the ordering invariants over one parsed event array.
fn assert_trace_invariants(context: &str, events: &[Json]) {
    assert!(!events.is_empty(), "{context}: empty event stream");
    assert_eq!(
        event_name(&events[0]),
        "template-started",
        "{context}: traces start with templating"
    );
    // pipeline-finished, when the composition finalizes at all, is final
    // (custom compositions like t7's template-once/steer-many never call
    // finish() and legitimately end mid-round).
    if let Some(pos) = events
        .iter()
        .position(|e| event_name(e) == "pipeline-finished")
    {
        assert_eq!(
            pos,
            events.len() - 1,
            "{context}: events recorded after pipeline-finished"
        );
    }

    // Every known event kind; first occurrences in pipeline order.
    let mut last_first_rank = 0u32;
    let mut seen: Vec<&str> = Vec::new();
    // template-started / template-finished bracket correctly.
    let mut open_templates = 0i64;
    let mut finished_templates = 0u64;
    // Round numbers never decrease; per-round events keep phase order.
    let mut last_round = 0u64;
    let mut last_rank_in_round = 0u32;

    for event in events {
        let name = event_name(event);
        let rank =
            phase_rank(name).unwrap_or_else(|| panic!("{context}: unknown event kind {name:?}"));
        if !seen.contains(&name) {
            assert!(
                rank >= last_first_rank,
                "{context}: first {name:?} appeared after a later phase"
            );
            last_first_rank = rank;
            seen.push(name);
        }
        match name {
            "template-started" => {
                assert_eq!(open_templates, 0, "{context}: nested templating sweeps");
                open_templates += 1;
            }
            "template-finished" => {
                open_templates -= 1;
                finished_templates += 1;
                assert!(
                    open_templates >= 0,
                    "{context}: template-finished without a start"
                );
                assert!(
                    event.get("found").and_then(Json::as_u64).is_some(),
                    "{context}: template-finished lost its found count"
                );
            }
            _ => {}
        }
        if let Some(round) = event.get("round").and_then(Json::as_u64) {
            assert!(
                round >= last_round,
                "{context}: round went backwards ({last_round} -> {round})"
            );
            if round > last_round {
                last_round = round;
                last_rank_in_round = 0;
            }
            assert!(
                rank >= last_rank_in_round,
                "{context}: round {round} event {name:?} out of phase order"
            );
            last_rank_in_round = rank;
        }
    }
    assert_eq!(open_templates, 0, "{context}: unclosed templating sweep");
    assert!(
        finished_templates >= 1,
        "{context}: no completed templating sweep"
    );
}

/// Extracts the events array from a `traces.<name>` record and checks its
/// `event_count` against the array length.
fn record_events(context: &str, record: &Json) -> Vec<Json> {
    let count = record
        .get("event_count")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("{context}: record lost event_count"));
    let Some(Json::Arr(events)) = record.get("events") else {
        panic!("{context}: record lost its events array");
    };
    assert_eq!(
        count,
        events.len() as u64,
        "{context}: event_count disagrees with the events array"
    );
    events.clone()
}

/// Runs the demo attack at `seed` with `observer` attached.
fn observed_run(seed: u64, observer: &mut dyn Observer) -> AttackReport {
    let cfg = ExplFrameConfig::small_demo(seed).with_template_pages(512);
    let mut machine = SimMachine::new(cfg.machine.clone());
    let options = RunOptions {
        observer: Some(observer),
        ..RunOptions::default()
    };
    ExplFrame::new(cfg)
        .run_with(&mut machine, options)
        .expect("run")
}

#[test]
fn fresh_trace_survives_serialization_and_keeps_its_invariants() {
    let mut trace = TraceCollector::new();
    let report = observed_run(3, &mut trace);
    assert!(!trace.is_empty());

    // Serialize exactly as TraceSink persists it, then re-parse through
    // the campaign JSON parser.
    let mut doc = Json::obj();
    trace.to_sink("conformance").merge_into(&mut doc);
    let text = doc.pretty();
    let parsed = Json::parse(&text).expect("trace document re-parses");
    let record = parsed
        .get("traces")
        .and_then(|t| t.get("conformance"))
        .expect("trace record present");

    let events = record_events("fresh trace", record);
    assert_eq!(
        events.len(),
        trace.len(),
        "serialized event count diverged from the collector"
    );
    assert_trace_invariants("fresh trace", &events);

    // The final event's outcome matches the report.
    let last = events.last().unwrap();
    assert_eq!(
        last.get("outcome").and_then(Json::as_str),
        Some(report.outcome.label())
    );
    assert_eq!(
        last.get("fault_rounds").and_then(Json::as_u64),
        Some(u64::from(report.fault_rounds))
    );
}

#[test]
fn ledger_next_to_the_collector_leaves_the_trace_unchanged() {
    let mut alone = TraceCollector::new();
    let report = observed_run(3, &mut alone);
    /// A collector and a ledger side by side.
    #[derive(Default)]
    struct Both {
        trace: TraceCollector,
        ledger: PhaseLedger,
    }
    impl Observer for Both {
        fn on_event(&mut self, event: &PhaseEvent) {
            self.trace.on_event(event);
            self.ledger.on_event(event);
        }
        fn on_phase(&mut self, phase: &'static str, cost: &PhaseCost) {
            self.trace.on_phase(phase, cost);
            self.ledger.on_phase(phase, cost);
        }
    }
    let mut both = Both::default();
    let beside = observed_run(3, &mut both);
    let Both { trace, ledger } = both;
    assert_eq!(beside, report, "the ledger changed the report");
    assert_eq!(trace, alone, "the ledger changed the trace");
    assert_eq!(trace.to_json(), alone.to_json());
    assert!(ledger.get("template").is_some(), "the ledger saw no phase");
}

#[test]
fn traces_on_disk_conform() {
    // Every trace the experiment fleet has persisted must re-parse and
    // satisfy the same invariants. Skips silently when no artifact exists
    // (fresh checkout before any exp_* run).
    let path = trace_path();
    let Ok(text) = std::fs::read_to_string(&path) else {
        return;
    };
    let doc = Json::parse(&text).expect("results/trace.json re-parses");
    assert_eq!(doc.get("schema").and_then(Json::as_u64), Some(1));
    let traces = doc.get("traces").expect("trace document has traces");
    let Some(entries) = traces.entries() else {
        panic!("traces is not an object");
    };
    assert!(!entries.is_empty(), "trace.json exists but holds no traces");
    for (name, record) in entries {
        let events = record_events(name, record);
        assert_trace_invariants(name, &events);
    }
}
