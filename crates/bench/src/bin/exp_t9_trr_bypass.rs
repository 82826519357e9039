//! T9 — Target Row Refresh bypass: naive vs adaptive hammering against an
//! in-DRAM sampling mitigation.
//!
//! The paper evaluates ExplFrame on unmitigated DDR3/DDR4; every deployed
//! module today ships some TRR variant. This campaign hardens the
//! simulated DIMM with a per-bank aggressor sampler (`dram::TrrParams`)
//! and sweeps the sampler size against two attackers:
//!
//! * **naive** — the paper's double-sided composition (`ExplFrame::run`):
//!   both aggressors fit in any sampler with ≥ 2 entries, the tracker
//!   refreshes the sandwiched victim every `threshold_acts`, and the
//!   templating sweep comes back empty;
//! * **adaptive** — `ExplFrame::run_adaptive`: an empty sweep triggers
//!   escalation to many-sided (TRRespass-style) hammering with more
//!   distinct rows than the sampler can track, which thrashes the table
//!   and re-opens the flip channel — at a recorded extra activation cost.
//!
//! A representative adaptive run under TRR is traced to
//! `results/trace.json` under `t9_trr_bypass` (look for the
//! `strategy-escalated` event).

use campaign::{banner, persist, scenario, CampaignCli, Json, Stream, Summary, Table};
use dram::TrrParams;
use explframe_core::{ExplFrame, ExplFrameConfig, RunOptions, TraceCollector};
use machine::SimMachine;

const TEMPLATE_PAGES: u64 = 512;
const MANY_SIDED_ROWS: u32 = 8;
/// Sampler sizes swept; 0 models an unmitigated module (TRR absent).
const SAMPLER_SIZES: [u32; 4] = [0, 2, 4, 16];

#[derive(Debug, Clone, Copy)]
struct Trial {
    succeeded: bool,
    templates: usize,
    pairs: u64,
    flips: u64,
    trr_triggers: u64,
    escalations: u32,
}

fn config(seed: u64, sampler: u32) -> ExplFrameConfig {
    let mut cfg = ExplFrameConfig::small_demo(seed)
        .with_template_pages(TEMPLATE_PAGES)
        .with_many_sided_rows(MANY_SIDED_ROWS);
    if sampler > 0 {
        cfg.machine.dram = cfg
            .machine
            .dram
            .with_trr(Some(TrrParams::ddr4_like().with_sampler_size(sampler)));
    }
    cfg
}

fn trial(seed: u64, sampler: u32, adaptive: bool) -> Trial {
    let cfg = config(seed, sampler);
    let mut machine = SimMachine::new(cfg.machine.clone());
    let driver = ExplFrame::new(cfg);
    let options = RunOptions {
        adaptive,
        ..RunOptions::default()
    };
    let report = driver.run_with(&mut machine, options).expect("attack run");
    Trial {
        succeeded: report.succeeded(),
        templates: report.templates_found,
        pairs: report.hammer_pairs_spent,
        flips: machine.dram().stats().flips,
        trr_triggers: machine.dram().trr_triggers(),
        escalations: report.strategy_escalations,
    }
}

fn main() {
    banner(
        "T9: TRR bypass (flip rate and key-recovery cost vs sampler size)",
        "sampling TRR blanks the naive attack; many-sided escalation thrashes the sampler",
    );
    let cli = CampaignCli::parse();
    let campaign = cli.campaign(10, 0x79B);
    println!(
        "trials per cell: {}   seed: {}   threads: {}",
        campaign.trials, campaign.seed, campaign.threads
    );

    let mut cells = Vec::new();
    for &sampler in &SAMPLER_SIZES {
        for (attack, adaptive) in [("naive", false), ("adaptive", true)] {
            cells.push(scenario(
                format!("sampler={sampler},attack={attack}"),
                move |seed| trial(seed, sampler, adaptive),
            ));
        }
    }
    let result = campaign.run(&cells);

    let mut table = Table::new(
        "TRR bypass: naive vs adaptive hammering vs sampler size",
        &[
            "sampler",
            "attack",
            "P(key)",
            "templates",
            "flips/Gpair",
            "pairs/key",
            "trr triggers",
            "escalated",
        ],
    );
    let mut summary = Summary::new("t9_trr_bypass", &campaign);
    for (cell, (&sampler, &(attack, _))) in
        result.cells.iter().zip(SAMPLER_SIZES.iter().flat_map(|s| {
            [("naive", false), ("adaptive", true)]
                .iter()
                .map(move |a| (s, a))
        }))
    {
        let key_rate: Stream = cell
            .trials
            .iter()
            .map(|t| f64::from(u8::from(t.succeeded)))
            .collect();
        let templates: Stream = cell.trials.iter().map(|t| t.templates as f64).collect();
        // Flip rate normalised per 1e9 pair-equivalents: the suppression
        // metric (0 on a mitigated module under the naive attack).
        let flip_rate: Stream = cell
            .trials
            .iter()
            .map(|t| t.flips as f64 / (t.pairs as f64 / 1e9))
            .collect();
        let per_key: Stream = cell
            .trials
            .iter()
            .filter(|t| t.succeeded)
            .map(|t| t.pairs as f64)
            .collect();
        let triggers: Stream = cell.trials.iter().map(|t| t.trr_triggers as f64).collect();
        let escalated: Stream = cell
            .trials
            .iter()
            .map(|t| f64::from(t.escalations))
            .collect();
        let pairs_per_key = (per_key.count() > 0).then(|| per_key.mean());

        let kr = format!("{:.2}", key_rate.mean());
        let tp = format!("{:.1}", templates.mean());
        let fr = format!("{:.1}", flip_rate.mean());
        let pk = pairs_per_key.map_or_else(|| "n/a".to_string(), |p| format!("{p:.3e}"));
        let tg = format!("{:.0}", triggers.mean());
        let es = format!("{:.2}", escalated.mean());
        table.row(&[&sampler, &attack, &kr, &tp, &fr, &pk, &tg, &es]);
        summary.cell(
            &cell.name,
            &[
                ("p_key", Json::Float(key_rate.mean())),
                ("flips_per_gpair", Json::Float(flip_rate.mean())),
                (
                    "pairs_per_key",
                    pairs_per_key.map_or(Json::Null, Json::Float),
                ),
                ("escalations", Json::Float(escalated.mean())),
            ],
        );
    }
    persist("t9_trr_bypass", &table, &mut summary);
    summary.write(&result);

    // One representative traced adaptive run under a 4-entry sampler: the
    // trace carries the strategy-escalated event between the empty
    // double-sided sweep and the many-sided one that breaks through.
    let mut trace = TraceCollector::new();
    let cfg = config(campaign.seed, 4);
    let mut machine = SimMachine::new(cfg.machine.clone());
    let options = RunOptions {
        adaptive: true,
        observer: Some(&mut trace),
        ..RunOptions::default()
    };
    let traced = ExplFrame::new(cfg)
        .run_with(&mut machine, options)
        .expect("traced adaptive run");
    let escalations = trace
        .events()
        .iter()
        .filter(|e| e.name() == "strategy-escalated")
        .count();
    trace.to_sink("t9_trr_bypass").write();
    println!(
        "traced run: {} events, {} escalation(s), outcome {:?}",
        trace.len(),
        escalations,
        traced.outcome
    );

    println!("\nshape checks:");
    println!("  - sampler=0: both attacks recover the key (unmitigated baseline)");
    println!("  - sampler 2..4: naive flip rate collapses to 0; adaptive escalates once and");
    println!("    still recovers the key at a multiplied pairs/key cost");
    println!("  - sampler=16 (>= many-sided rows): even the adaptive pattern is tracked");
}
