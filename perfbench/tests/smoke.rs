//! Smoke test of the benchmark at a tiny trial count: the traced pass
//! reproduces the untraced reports, its spans nest with non-negative self
//! times and consistent counter deltas, and every metric prints with the
//! unit `BENCHMARK.json` declares.

use perfbench::metrics::{result_json, END_TO_END, PER_LAYER};
use perfbench::trace::{check_spans, Counts, Recorder};
use perfbench::workload::Bench;
use perfbench::{run, Options, Workload};

#[test]
fn traced_trials_match_untraced_reports_and_spans_nest() {
    for workload in Workload::ALL {
        let mut bench = Bench::setup(workload, 1).expect("set-up");
        let mut rec = Recorder::default();
        for t in 0..2 {
            let untraced = bench.trial(t).expect("untraced trial");
            let traced = rec.trial(&mut bench, t).expect("traced trial");
            assert_eq!(
                format!("{untraced:?}"),
                format!("{traced:?}"),
                "{}: traced trial {t} diverged",
                workload.name()
            );
        }
        check_spans(&rec.spans).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));

        let trials: Vec<_> = rec.spans.iter().filter(|s| s.is_trial()).collect();
        assert_eq!(trials.len(), 2);
        for trial in trials {
            let calls: Vec<_> = rec
                .spans
                .iter()
                .filter(|s| !s.is_trial() && s.trial == trial.trial)
                .collect();
            let child_ns: u64 = calls.iter().map(|s| s.ns()).sum();
            assert!(child_ns <= trial.ns(), "trial self time is negative");
            let summed = calls
                .iter()
                .fold(Counts::default(), |acc, s| acc.plus(s.counts));
            assert_eq!(summed, trial.counts, "call deltas must sum to the trial's");
            assert!(
                trial.counts.get("machine.reads") > 0,
                "a trial reads memory"
            );
            for phase in ["fork", "template", "select", "finish"] {
                assert!(calls.iter().any(|s| s.name == phase), "no {phase} span");
            }
        }
    }
}

#[test]
fn every_metric_prints_with_its_declared_unit() {
    let manifest = include_str!("../../BENCHMARK.json");
    for (trace, declared) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let outcome = run(&Options {
            workload: Workload::ReplaySbox,
            seed: 1,
            seconds: 0.0,
            trace,
            trials: Some(2),
        })
        .expect("run");
        assert!(outcome.correct, "{:?}", outcome.problems);
        assert_eq!(outcome.failed, 0);
        let names: Vec<_> = outcome.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<_> = declared.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        let line = result_json(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics,
        );
        for m in &outcome.metrics {
            assert!(!m.unit.is_empty() && m.value.is_finite(), "{}", m.name);
            let printed = format!("\"{}\": {{\"value\": ", m.name);
            assert!(
                line.contains(&printed),
                "{} missing from the result line",
                m.name
            );
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(
                manifest.contains(&entry),
                "BENCHMARK.json does not declare {entry}"
            );
        }
    }
}
