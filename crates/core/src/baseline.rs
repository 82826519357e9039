//! The spray baseline: Rowhammer *without* page-frame-cache steering.
//!
//! This is the prior-work comparison the paper's introduction draws: an
//! unprivileged attacker who cannot target a specific frame sprays — they
//! template a large buffer, release all of it, and hope the victim's
//! sensitive page lands on one of the vulnerable frames, then re-hammer
//! every known aggressor pair. Success is a lottery over the vulnerable
//! frame density; ExplFrame turns the same primitives into a targeted,
//! single-page attack.
//!
//! Implemented as a composition over the same [`Pipeline`] phases as the
//! real attack: the templating phase is shared verbatim; only the
//! spray-specific moves (release *everything*, allocator noise, hammer
//! *every* templated pair) live here.

use machine::SimMachine;
use memsim::PAGE_SIZE;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::ExplFrameConfig;
use crate::error::AttackError;
use crate::noise::NoiseProcess;
use crate::pipeline::Pipeline;
use crate::victim::VictimCipherService;

/// Salt mixed into the configuration seed for the sprayer's RNG (matches
/// the pre-pipeline baseline, keeping reports byte-identical per seed).
const SPRAY_RNG_SALT: u64 = 0x5924A;

/// Result of one spray-baseline run.
#[must_use = "a spray report carries the baseline measurements"]
#[derive(Debug, Clone, PartialEq)]
pub struct SprayReport {
    /// Templates found during the sweep.
    pub templates_found: usize,
    /// Whether the victim's table page landed on *any* templated frame.
    pub victim_on_vulnerable_frame: bool,
    /// Whether re-hammering corrupted the victim's table image (checked
    /// against the pristine image through the DRAM oracle).
    pub fault_landed: bool,
    /// Aggressor pairs hammered during the spray phase.
    pub spray_pairs: u64,
}

/// Runs the spray baseline once. Shares the [`Pipeline`] templating phase
/// with [`crate::ExplFrame`], then diverges: the whole buffer is released
/// and allocator noise runs between release and victim arrival, so the
/// victim's frame is effectively arbitrary.
///
/// # Errors
///
/// Returns [`AttackError::Machine`] for substrate failures.
pub fn run_spray_baseline(
    config: &ExplFrameConfig,
    machine: &mut SimMachine,
    noise_bursts: u32,
) -> Result<SprayReport, AttackError> {
    let rng = StdRng::seed_from_u64(config.seed ^ SPRAY_RNG_SALT);
    let mut pipe = Pipeline::with_rng(machine, config.clone(), rng);

    // Phase 1 (shared with the targeted attack): template the buffer.
    let pool = pipe.template()?;

    // Record the templated frames while still mapped (the sprayer knows its
    // own templates' aggressors; frame identity below is oracle-only and
    // used purely for reporting).
    let vulnerable_frames: Vec<u64> = {
        let (machine, _) = pipe.split();
        pool.scan
            .templates
            .iter()
            .filter_map(|t| machine.translate(pool.attacker, t.page_va))
            .map(|pa| pa.as_u64() / PAGE_SIZE)
            .collect()
    };

    // Release everything — the sprayer cannot keep the frames and steer.
    pipe.release_all(&pool)?;

    // Allocator churn between release and the victim's arrival.
    {
        let (machine, rng) = pipe.split();
        AttackError::check_cpu(machine, config.victim_cpu)?;
        let mut noise = NoiseProcess::spawn(machine, config.victim_cpu);
        for _ in 0..noise_bursts {
            noise.burst(machine, rng, 64)?;
        }
    }

    let victim = pipe.spawn_victim(config.victim)?;
    let (machine, rng) = pipe.split();
    let victim_frame = victim.table_pfn(machine).map(|p| p.0);
    let on_vulnerable = victim_frame.is_some_and(|f| vulnerable_frames.contains(&f));

    // Spray: re-hammer every templated aggressor pair. The aggressor pages
    // were released too, so the sprayer re-maps a buffer and hammers the
    // same *virtual* offsets — on real hardware the re-mapped buffer rarely
    // reclaims the same frames, which is exactly why spraying needs the
    // victim to sit inside the hammered physical neighbourhood. We model
    // the strongest reasonable sprayer: aggressor rows re-acquired where
    // the allocator happens to return them.
    let spray_buffer = machine.mmap(pool.attacker, config.template_pages)?;
    machine.fill(
        pool.attacker,
        spray_buffer,
        config.template_pages * PAGE_SIZE,
        0xFF,
    )?;
    let mut spray_pairs = 0u64;
    for t in &pool.scan.templates {
        let above = spray_buffer + (t.aggressor_above.0 - pool.buffer.0);
        let below = spray_buffer + (t.aggressor_below.0 - pool.buffer.0);
        if machine
            .hammer_rows_virt(pool.attacker, &[above, below], config.rehammer_pairs)
            .is_ok()
        {
            spray_pairs += config.rehammer_pairs;
        }
    }

    // Oracle check: did the victim's table image get corrupted?
    let fault_landed = table_image_corrupted(machine, &victim, config)?;
    victim.stop(machine)?;
    let _ = rng.gen::<u8>();

    Ok(SprayReport {
        templates_found: pool.scan.templates.len(),
        victim_on_vulnerable_frame: on_vulnerable,
        fault_landed,
        spray_pairs,
    })
}

/// Compares the victim's in-DRAM table image with the pristine one.
fn table_image_corrupted(
    machine: &mut SimMachine,
    victim: &VictimCipherService,
    config: &ExplFrameConfig,
) -> Result<bool, AttackError> {
    use crate::config::VictimCipherKind;
    use ciphers::{present_sbox_image, TableImage};
    let pristine = match config.victim {
        VictimCipherKind::AesSbox => TableImage::sbox().to_vec(),
        VictimCipherKind::AesTtable => TableImage::te_tables(),
        VictimCipherKind::Present => present_sbox_image().to_vec(),
    };
    let Some(pa) = machine.translate(victim.pid(), victim.table_base()) else {
        return Ok(false);
    };
    let mut current = vec![0u8; pristine.len()];
    machine.dram_mut().read(pa, &mut current);
    Ok(current != pristine)
}
