//! T16 — walk-mode cipher campaigns: the full five-phase attack with the
//! victim's (and attacker's) page tables resident in hammerable DRAM.
//!
//! A shadow-vs-walk capability matrix over the three shipped victims. Each
//! trial runs the *same seed* twice — once against the classic
//! free-translation shadow oracle, once on
//! `MachineConfig::with_dram_page_tables`, where every TLB miss costs a
//! two-level table walk through the cache hierarchy and DRAM, the victim's
//! arrival consumes root/leaf table frames from the page-frame-cache head
//! (absorbed by the release phase's sacrificial staging), a collateral flip
//! can crash the victim mid-collection, and the templating sweep can remap
//! *its own* buffer pages (written off as translation casualties rather
//! than harvested as phantom weak cells).
//!
//! The matrix quantifies what the shadow oracle has been hiding from the
//! attacker: key-recovery rate, activation pairs per recovered key, TLB
//! hit rate, table walks, and per-seed walk/shadow cost ratios (each ratio
//! pairs two runs of the same seed, never two unrelated trial
//! populations).

use campaign::{banner, persist, scenario, CampaignCli, Counter, Json, Stream, Summary, Table};
use explframe_core::{ExplFrame, ExplFrameConfig, RunOptions, VictimCipherKind};
use machine::SimMachine;

const TEMPLATE_PAGES: u64 = 1024;

const CIPHERS: [(&str, VictimCipherKind); 3] = [
    ("aes-sbox", VictimCipherKind::AesSbox),
    ("aes-ttable", VictimCipherKind::AesTtable),
    ("present", VictimCipherKind::Present),
];

#[derive(Debug, Clone, Copy)]
struct ModeTrial {
    key: bool,
    pairs: u64,
    ciphertexts: u64,
    rounds: u32,
    elapsed: u64,
    tlb_lookups: u64,
    tlb_hits: u64,
    tlb_misses: u64,
}

/// One seed, both translation modes — the paired design that makes the
/// walk-cost ratios meaningful.
#[derive(Debug, Clone, Copy)]
struct Trial {
    shadow: ModeTrial,
    walk: ModeTrial,
}

fn run_mode(seed: u64, kind: VictimCipherKind, walk: bool) -> ModeTrial {
    let cfg = ExplFrameConfig::small_demo(seed)
        .with_template_pages(TEMPLATE_PAGES)
        .with_victim(kind)
        .with_dram_page_tables(walk);
    let mut machine = SimMachine::new(cfg.machine.clone());
    let report = ExplFrame::new(cfg)
        .run_with(&mut machine, RunOptions::default())
        .expect("walk-campaign trial");
    let tlb = machine.tlb().stats();
    ModeTrial {
        key: report.key_correct,
        pairs: report.hammer_pairs_spent,
        ciphertexts: report.ciphertexts_collected,
        rounds: report.fault_rounds,
        elapsed: report.elapsed,
        tlb_lookups: tlb.lookups,
        tlb_hits: tlb.hits,
        tlb_misses: tlb.misses,
    }
}

/// Per-mode aggregates used by both tables and the summary record.
#[derive(Debug, Clone, Copy)]
struct CellStats {
    key_rate: f64,
    pairs_per_key: Option<f64>,
    mean_elapsed: f64,
    mean_pairs: f64,
    mean_ciphertexts: f64,
    mean_rounds: f64,
    tlb_hit_rate: f64,
    mean_walks: f64,
}

fn cell_stats(trials: &[ModeTrial]) -> CellStats {
    let keys: Counter = trials.iter().map(|t| t.key).collect();
    let pairs: Stream = trials.iter().map(|t| t.pairs as f64).collect();
    let elapsed: Stream = trials.iter().map(|t| t.elapsed as f64).collect();
    let cts: Stream = trials.iter().map(|t| t.ciphertexts as f64).collect();
    let rounds: Stream = trials.iter().map(|t| f64::from(t.rounds)).collect();
    let walks: Stream = trials.iter().map(|t| t.tlb_misses as f64).collect();
    let total_keys: u64 = trials.iter().map(|t| u64::from(t.key)).sum();
    let total_pairs: u64 = trials.iter().map(|t| t.pairs).sum();
    let lookups: u64 = trials.iter().map(|t| t.tlb_lookups).sum();
    let hits: u64 = trials.iter().map(|t| t.tlb_hits).sum();
    CellStats {
        key_rate: keys.rate(),
        pairs_per_key: (total_keys > 0).then(|| total_pairs as f64 / total_keys as f64),
        mean_elapsed: elapsed.mean(),
        mean_pairs: pairs.mean(),
        mean_ciphertexts: cts.mean(),
        mean_rounds: rounds.mean(),
        tlb_hit_rate: if lookups > 0 {
            hits as f64 / lookups as f64
        } else {
            0.0
        },
        mean_walks: walks.mean(),
    }
}

fn main() {
    banner(
        "T16: walk-mode cipher campaigns (page tables in DRAM)",
        "shadow vs walk capability matrix: what the free-translation oracle was hiding",
    );
    let cli = CampaignCli::parse();
    let campaign = cli.campaign(8, 71_000);
    println!(
        "trials per cell: {}   seed: {}   threads: {}",
        campaign.trials, campaign.seed, campaign.threads
    );

    let cells: Vec<_> = CIPHERS
        .iter()
        .map(|&(cipher, kind)| {
            scenario(cipher.to_string(), move |seed| Trial {
                shadow: run_mode(seed, kind, false),
                walk: run_mode(seed, kind, true),
            })
        })
        .collect();
    let result = campaign.run(&cells);

    let mut table = Table::new(
        "shadow vs walk capability matrix",
        &[
            "composition",
            "P(key)",
            "pairs/key",
            "ct (mean)",
            "rounds",
            "TLB hit",
            "walks (mean)",
        ],
    );
    let mut summary = Summary::new("t16_walk_campaigns", &campaign);
    let mut stats = Vec::new();
    for cell in &result.cells {
        let shadow: Vec<ModeTrial> = cell.trials.iter().map(|t| t.shadow).collect();
        let walk: Vec<ModeTrial> = cell.trials.iter().map(|t| t.walk).collect();
        for (mode, trials) in [("shadow", &shadow), ("walk", &walk)] {
            let s = cell_stats(trials);
            let name = format!("{mode}/{}", cell.name);
            let per_key = s
                .pairs_per_key
                .map_or_else(|| "-".to_string(), |p| format!("{p:.3e}"));
            table.row(&[
                &name,
                &format!("{:.3}", s.key_rate),
                &per_key,
                &format!("{:.0}", s.mean_ciphertexts),
                &format!("{:.2}", s.mean_rounds),
                &format!("{:.4}", s.tlb_hit_rate),
                &format!("{:.0}", s.mean_walks),
            ]);
            summary.cell(
                &name,
                &[
                    ("key_rate", Json::Float(s.key_rate)),
                    ("mean_hammer_pairs", Json::Float(s.mean_pairs)),
                    ("tlb_hit_rate", Json::Float(s.tlb_hit_rate)),
                    ("mean_sim_elapsed_ns", Json::Float(s.mean_elapsed)),
                ],
            );
            if let Some(p) = s.pairs_per_key {
                summary.metric(&format!("{mode}.{}.pairs_per_key", cell.name), p);
            }
        }
        stats.push((cell.name.clone(), cell_stats(&shadow), cell_stats(&walk)));
    }
    persist("t16_walk_campaigns", &table, &mut summary);

    // The headline: what translation-as-data costs the attacker, per cipher.
    // Each ratio is a mean of per-seed walk/shadow ratios — the two runs
    // behind every ratio share a seed, so the overhead is never conflated
    // with seed-to-seed weak-cell variance.
    let mut cost = Table::new(
        "walk cost vs shadow (paired per seed)",
        &["cipher", "elapsed x", "pairs x", "ΔP(key)"],
    );
    for cell in &result.cells {
        let ratio = |f: fn(&ModeTrial) -> f64| -> f64 {
            let r: Stream = cell
                .trials
                .iter()
                .map(|t| f(&t.walk) / f(&t.shadow))
                .collect();
            r.mean()
        };
        let elapsed_x = ratio(|m| m.elapsed as f64);
        let pairs_x = ratio(|m| m.pairs as f64);
        let (_, shadow, walk) = stats
            .iter()
            .find(|(name, _, _)| name == &cell.name)
            .expect("cell ran");
        cost.row(&[
            &cell.name,
            &format!("{elapsed_x:.4}"),
            &format!("{pairs_x:.4}"),
            &format!("{:+.3}", walk.key_rate - shadow.key_rate),
        ]);
        summary.metric(&format!("overhead.{}.elapsed_x", cell.name), elapsed_x);
        summary.metric(&format!("overhead.{}.pairs_x", cell.name), pairs_x);
    }
    persist("t16_walk_cost", &cost, &mut summary);

    summary.write(&result);

    println!("\nshape checks:");
    println!("  - AES cells still recover every key: the release phase's sacrificial staging");
    println!("    absorbs the victim's root/leaf table pops, so steering survives walk mode");
    println!("  - PRESENT pays the walk tax in capability, not time: its marginal shadow");
    println!("    key rate drops further once table perturbation and victim crashes bite");
    println!("  - elapsed x and pairs x hold near 1: hammering dominates simulated time,");
    println!("    so walk traffic shows up in the walks column (and the AES-vs-PRESENT");
    println!("    TLB hit gap), not in elapsed — and it stays near 1 only because");
    println!("    self-remapped template pages are written off as translation casualties");
    println!("    instead of reproducibility-scored as 32k phantom weak cells");
}
