//! The phase-ledger contract: a [`PhaseLedger`] attached as the pipeline's
//! observer never changes the report, sees every phase under its name, in
//! the order it first ran, with its own counters, counts a memo hit as one
//! template call, and belongs to its run alone, so pipelines on different
//! threads keep separate books.

use explframe_core::{
    AttackReport, ExplFrame, ExplFrameConfig, PhaseLedger, Pipeline, RunOptions, TemplateMemo,
};
use machine::SimMachine;

fn config(seed: u64) -> ExplFrameConfig {
    ExplFrameConfig::small_demo(seed).with_template_pages(512)
}

/// Runs the attack of `cfg` on a fresh machine with a ledger.
fn ledgered_run(cfg: ExplFrameConfig) -> (AttackReport, PhaseLedger) {
    let mut machine = SimMachine::new(cfg.machine.clone());
    let mut ledger = PhaseLedger::new();
    let options = RunOptions {
        observer: Some(&mut ledger),
        ..RunOptions::default()
    };
    let report = ExplFrame::new(cfg)
        .run_with(&mut machine, options)
        .expect("ledgered run");
    (report, ledger)
}

#[test]
fn ledger_leaves_the_report_unchanged_and_sees_every_phase() {
    let inputs: [(ExplFrameConfig, &[&str]); 2] = [
        (
            config(7),
            &[
                "template", "release", "steer", "hammer", "collect", "analyze",
            ],
        ),
        (
            config(7).with_probe_mapping(true),
            &[
                "mapping-probe",
                "template",
                "release",
                "steer",
                "hammer",
                "collect",
                "analyze",
            ],
        ),
    ];
    for (cfg, order) in inputs {
        let baseline = ExplFrame::new(cfg.clone()).run().expect("baseline");
        let (report, ledger) = ledgered_run(cfg);
        assert_eq!(report, baseline, "attaching a ledger changed the run");
        assert!(report.succeeded(), "seed 7 must recover the key");

        let names: Vec<&str> = ledger.phases().iter().map(|(name, _)| *name).collect();
        assert_eq!(names, order, "phases in first-run order");
        for (phase, totals) in ledger.phases() {
            assert!(totals.calls > 0, "{phase} recorded no calls");
        }
        // Each machine op family has its own field: collect reads the
        // victim's tables through the machine, hammer only hammers.
        let collect = ledger.get("collect").unwrap();
        assert!(collect.reads > 0, "collect counted no reads");
        assert_eq!(collect.hammer_pairs, 0, "collect hammered nothing");
        assert!(
            ledger.get("hammer").unwrap().hammer_pairs > 0,
            "hammer counted no pairs"
        );
        // The per-phase hammer pairs add up to what the report spent.
        let pairs: u64 = ledger.phases().iter().map(|(_, t)| t.hammer_pairs).sum();
        assert_eq!(pairs, report.hammer_pairs_spent);
    }
}

#[test]
fn one_miss_and_one_hit_record_two_template_calls() {
    let cfg = ExplFrameConfig::small_demo(1).with_template_pages(64);
    let warm = SimMachine::new(cfg.machine.clone()).snapshot();
    let mut memo = TemplateMemo::new();
    let mut ledgers = Vec::new();
    for _ in 0..2 {
        let mut ledger = PhaseLedger::new();
        let mut machine = warm.fork();
        Pipeline::new(&mut machine, cfg.clone())
            .with_observer(&mut ledger)
            .template_memo_at(&warm, &mut memo)
            .expect("template");
        ledgers.push(ledger);
    }
    assert_eq!(memo.len(), 1, "the miss cached one sweep");
    let (miss, hit) = (ledgers[0].get("template"), ledgers[1].get("template"));
    let (miss, hit) = (miss.expect("miss recorded"), hit.expect("hit recorded"));
    assert_eq!((miss.calls, miss.memo_hits), (1, 0));
    assert_eq!((hit.calls, hit.memo_hits), (1, 1), "a hit is one call");
    // The replayed sweep reports the simulated cost the live one had.
    assert_eq!(
        (hit.sim_ns, hit.reads, hit.writes, hit.hammer_pairs),
        (miss.sim_ns, miss.reads, miss.writes, miss.hammer_pairs)
    );

    let mut merged = ledgers[0].clone();
    merged.merge(&ledgers[1]);
    let template = merged.get("template").unwrap();
    assert_eq!((template.calls, template.memo_hits), (2, 1));
}

#[test]
fn memoized_runs_report_the_direct_runs_ledger_but_for_memo_hits() {
    let cfg = config(2);
    let warm = SimMachine::new(cfg.machine.clone()).snapshot();
    let attack = ExplFrame::new(cfg);
    let mut memo = TemplateMemo::new();
    let mut run = |memoized: bool| {
        let mut ledger = PhaseLedger::new();
        let options = RunOptions {
            memo: memoized.then_some((&warm, &mut memo)),
            observer: Some(&mut ledger),
            ..RunOptions::default()
        };
        let report = attack.run_with(&mut warm.fork(), options).expect("run");
        (report, ledger)
    };
    let direct = run(false);
    let (miss, hit) = (run(true), run(true));
    assert_eq!(miss.0, direct.0);
    assert_eq!(hit.0, direct.0);
    assert_eq!(miss.1.exact_json(), direct.1.exact_json());
    let mut hit_ledger = hit.1.exact_json();
    let template = hit_ledger.get_mut("template").expect("template ran");
    assert_eq!(template.get("memo_hits").and_then(|v| v.as_u64()), Some(1));
    template.set("memo_hits", 0u64);
    assert_eq!(hit_ledger, direct.1.exact_json());
}

#[test]
fn concurrent_pipelines_keep_the_ledgers_of_their_serial_runs() {
    let serial = [ledgered_run(config(3)), ledgered_run(config(4))];
    let concurrent = std::thread::scope(|scope| {
        let a = scope.spawn(|| ledgered_run(config(3)));
        let b = scope.spawn(|| ledgered_run(config(4)));
        [a.join().expect("thread a"), b.join().expect("thread b")]
    });
    for ((report, ledger), (serial_report, serial_ledger)) in concurrent.iter().zip(&serial) {
        assert_eq!(report, serial_report);
        assert_eq!(
            ledger.exact_json(),
            serial_ledger.exact_json(),
            "a concurrent run leaked into another run's ledger"
        );
    }
    assert_ne!(
        serial[0].1.exact_json(),
        serial[1].1.exact_json(),
        "two seeds should not share a ledger"
    );
}
