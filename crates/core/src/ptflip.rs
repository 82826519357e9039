//! PTE-flip escalation: Rowhammer against the victim's *page tables*
//! instead of its data (the `exp_t15_ptflip` campaign family).
//!
//! The classic ExplFrame composition steers a templated frame under the
//! victim's **data** (an AES T-table) and reads faulty ciphertexts. This
//! module escalates the same primitive one level down the memory hierarchy:
//! with DRAM-resident page tables on
//! ([`machine::MachineConfig::with_dram_page_tables`]), page-table frames
//! are ordinary allocator frames whose PTE bytes sit in hammerable DRAM
//! rows, so the attacker can steer a *templated* frame into becoming one of
//! the victim's page tables and then flip a frame-number bit inside a live
//! PTE. After the flip (and a TLB shootdown), the victim's virtual page is
//! silently remapped to a frame the kernel never granted it — reads and
//! writes through an unchanged virtual address land in attacker-chosen
//! physical memory. That is the privilege-escalation analog of Seaborn's
//! PTE attack, built entirely from this repo's existing massaging
//! primitives (LIFO page-frame-cache steering, templating, double-sided
//! hammering).
//!
//! Two compositions are provided:
//!
//! * **Leaf-table steering** ([`PtFlipConfig`] default): the victim's first
//!   touch in a fresh region demand-allocates a *leaf* table — which pops
//!   the attacker's just-released templated frame — then its data frame,
//!   which pops the attacker's second staged frame `D`. The attacker picks
//!   `D` so the weak cell's bit position holds the chargeable value and
//!   keeps the alias frame `D' = D ^ (1 << bit)` mapped with a sentinel.
//!   One flip later the victim's PTE decodes to `D'`: the victim's writes
//!   are exfiltrated through the attacker's own mapping.
//! * **Huge-page-assisted root steering** (`with_huge_victim(true)`):
//!   `spawn` itself consumes the page-frame-cache head for the new
//!   process's *root* table, so releasing the templated frame immediately
//!   before the victim spawns steers its root table. The victim maps a
//!   2 MiB huge region whose single root-level PTE sits in the templated
//!   frame; an anti-cell flip in the low frame bits shifts the victim's
//!   whole 2 MiB view by a page-granular offset — its own data vanishes
//!   from under its virtual addresses.
//!
//! Everything is a pure function of the seed: no RNG is drawn, so campaign
//! results are byte-identical for any `--threads`.

use dram::Nanos;
use machine::{MachineConfig, Pid, SimMachine, VirtAddr};
use memsim::{CpuId, FrameKind, PAGE_SIZE};

use crate::error::AttackError;
use crate::template::{template_scan, FlipTemplate};

/// Pages per 2 MiB huge mapping (must agree with
/// [`machine::SimMachine::mmap_huge`]'s 512-page granule).
const HUGE_PAGES: u64 = 512;
/// PTE slots per table frame (4 KiB / 8-byte entries).
const SLOTS_PER_TABLE: u64 = PAGE_SIZE / 8;

/// Parameters of one PTE-flip escalation trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtFlipConfig {
    /// Machine + weak-cell seed (the only source of variation).
    pub seed: u64,
    /// Attacker template-buffer size in pages.
    pub template_pages: u64,
    /// Activation pairs per hammer burst (templating and the final flip).
    pub hammer_pairs: u64,
    /// `false`: leaf-table steering with an attacker alias frame.
    /// `true`: huge-page root-table steering via spawn-order massaging.
    pub huge_victim: bool,
}

impl PtFlipConfig {
    /// Demo scale: 256 MiB flippy machine, 8 MiB template buffer.
    #[must_use]
    pub fn small_demo(seed: u64) -> Self {
        PtFlipConfig {
            seed,
            template_pages: 2048,
            hammer_pairs: 400_000,
            huge_victim: false,
        }
    }

    /// Returns a copy targeting the huge-page root-steering composition.
    #[must_use]
    pub fn with_huge_victim(mut self, on: bool) -> Self {
        self.huge_victim = on;
        self
    }

    /// Returns a copy with a different template-buffer size.
    #[must_use]
    pub fn with_template_pages(mut self, pages: u64) -> Self {
        self.template_pages = pages;
        self
    }
}

/// What one escalation trial achieved, in escalating order of severity.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PtFlipOutcome {
    /// Templating produced a flip usable as a PTE frame-bit corruption
    /// (right bit range, right polarity, alias frame available).
    pub template_found: bool,
    /// The templated frame was verifiably steered into the victim's page
    /// table (leaf or root, per composition), with the weak cell sitting
    /// under the live PTE slot.
    pub steered_table: bool,
    /// After hammering + shootdown, the hardware walk
    /// ([`machine::SimMachine::translate_walk`]) diverges from the kernel's
    /// shadow pagemap: the victim page is remapped.
    pub remapped: bool,
    /// The remap was demonstrated end to end through ordinary accesses:
    /// leaf composition — the victim's post-flip write surfaced in the
    /// attacker's alias mapping; huge composition — the victim's post-flip
    /// read no longer returns the bytes it wrote.
    pub hijacked: bool,
    /// Total activation pairs spent (templating + escalation burst) — the
    /// cost-per-key denominator comparable with the cipher campaigns.
    pub hammer_pairs: u64,
    /// Simulated time consumed by the whole trial.
    pub elapsed: Nanos,
}

/// A selected escalation target: which template to re-hammer and how the
/// PTE under it must be staged.
struct EscalationPlan {
    template: FlipTemplate,
    /// PTE slot index (within one table frame) the weak cell lands in.
    slot: u64,
    /// Leaf composition only: attacker page released to become the
    /// victim's data frame `D`.
    d_va: Option<VirtAddr>,
    /// Leaf composition only: attacker page kept mapped as the alias `D'`.
    dprime_va: Option<VirtAddr>,
}

/// Runs one deterministic PTE-flip escalation trial.
///
/// # Errors
///
/// Propagates machine failures ([`AttackError::Machine`]). A trial that
/// simply fails to escalate (no usable template, steering lost the race,
/// the flip did not land) is *not* an error — it returns an outcome with
/// the corresponding flags false, so campaigns can report rates.
pub fn pte_flip_escalation(config: &PtFlipConfig) -> Result<PtFlipOutcome, AttackError> {
    let mcfg = MachineConfig::small(config.seed).with_dram_page_tables(true);
    let mut m = SimMachine::new(mcfg);
    let attacker = m.spawn(CpuId(0));
    let base = m.mmap(attacker, config.template_pages)?;
    let scan = template_scan(
        &mut m,
        attacker,
        base,
        config.template_pages,
        config.hammer_pairs,
        2,
    )?;

    let mut outcome = PtFlipOutcome::default();
    let plan = if config.huge_victim {
        select_root_target(&mut m, attacker, &scan.templates)
    } else {
        select_leaf_target(
            &mut m,
            attacker,
            base,
            config.template_pages,
            &scan.templates,
        )
    };
    let Some(plan) = plan else {
        outcome.hammer_pairs = m.stats().hammer_pairs;
        outcome.elapsed = m.now();
        return Ok(outcome);
    };
    outcome.template_found = true;

    let tmpl_page = plan.template.page_va;
    // On a walk machine the attacker's own templating can detach this page
    // (self-hazard); report a non-escalation instead of panicking.
    let Some(tmpl_pa) = m.translate(attacker, tmpl_page) else {
        outcome.hammer_pairs = m.stats().hammer_pairs;
        outcome.elapsed = m.now();
        return Ok(outcome);
    };
    let tmpl_frame = tmpl_pa.as_u64() / PAGE_SIZE;

    let (victim, target) = if config.huge_victim {
        // Root steering: the released templated frame sits at the pcp head
        // when the victim spawns, so the kernel's root-table allocation
        // consumes it.
        m.munmap(attacker, tmpl_page, 1)?;
        let victim = m.spawn(CpuId(0));
        // First touch of chunk `slot` writes the huge root PTE into slot
        // `slot` of the (templated) root table.
        let vbuf = m.mmap_huge(victim, plan.slot + 1)?;
        let target = vbuf + plan.slot * HUGE_PAGES * PAGE_SIZE;
        m.write(victim, target, b"victim secret v1")?;
        (victim, target)
    } else {
        // Leaf steering: spawn the victim *before* staging so its root
        // table does not eat the staged frames, plant the sentinel in the
        // alias frame, then release data-candidate first and templated
        // frame last — LIFO order makes the leaf-table allocation (first
        // pop of the victim's fault) take the templated frame and the data
        // allocation (second pop) take `D`.
        let victim = m.spawn(CpuId(0));
        let d_va = plan.d_va.expect("leaf plan carries D");
        let dprime_va = plan.dprime_va.expect("leaf plan carries D'");
        m.fill(attacker, dprime_va, PAGE_SIZE, 0xA5)?;
        m.munmap(attacker, d_va, 1)?;
        m.munmap(attacker, tmpl_page, 1)?;
        let vbuf = m.mmap(victim, SLOTS_PER_TABLE)?;
        // Touch the page whose leaf index equals the weak slot, so the PTE
        // the flip corrupts is exactly the one mapping the victim's data.
        let page = (plan.slot + SLOTS_PER_TABLE - vbuf.vpn() % SLOTS_PER_TABLE) % SLOTS_PER_TABLE;
        let target = vbuf + page * PAGE_SIZE;
        m.write(victim, target, b"victim secret v1")?;
        (victim, target)
    };

    // Verify the steering: the live PTE mapping `target` must sit in the
    // templated frame, at the slot the weak cell covers.
    outcome.steered_table = m.pte_phys(victim, target).is_some_and(|slot_pa| {
        slot_pa.as_u64() / PAGE_SIZE == tmpl_frame
            && slot_pa.as_u64() % PAGE_SIZE == plan.slot * 8
            && m.allocator().frame_kind(memsim::Pfn(tmpl_frame)) == FrameKind::PageTable
    });

    // Hammer the templated cell through the attacker's still-mapped
    // aggressor rows, then model the TLB shootdown that forces the victim
    // back onto the (corrupted) walk.
    let shadow_before = m.translate(victim, target);
    let _ = m.hammer_rows_virt(
        attacker,
        &[plan.template.aggressor_above, plan.template.aggressor_below],
        config.hammer_pairs,
    )?;
    m.flush_tlb();

    let walk_after = m.translate_walk(victim, target)?;
    outcome.remapped = walk_after != shadow_before;

    if outcome.remapped {
        if config.huge_victim {
            // The victim's own bytes vanished from under its address. A
            // collateral flip may even push the decoded block off the
            // device — the victim segfaults, which is equally a hijack.
            let mut back = [0u8; 16];
            outcome.hijacked = match m.read(victim, target, &mut back) {
                Ok(()) => &back != b"victim secret v1",
                Err(machine::MachineError::Unmapped { .. }) => true,
                Err(e) => return Err(e.into()),
            };
        } else {
            // The victim writes fresh data; the attacker reads it out of
            // the alias frame its own mapping still covers. Collateral
            // flips in neighbouring PTE bits can break the clean redirect
            // (segfault, or a demand-fault repair onto a fresh frame) —
            // that's a remap without a controlled leak, not an error.
            let redirect = m.write(victim, target, b"victim secret v2");
            match redirect {
                Ok(()) => {
                    let mut leak = [0u8; 16];
                    let dprime_va = plan.dprime_va.expect("leaf plan");
                    outcome.hijacked = match m.read(attacker, dprime_va, &mut leak) {
                        Ok(()) => &leak == b"victim secret v2",
                        Err(machine::MachineError::Unmapped { .. }) => false,
                        Err(e) => return Err(e.into()),
                    };
                }
                Err(machine::MachineError::Unmapped { .. }) => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    outcome.hammer_pairs = m.stats().hammer_pairs;
    outcome.elapsed = m.now();
    Ok(outcome)
}

/// Bit position of template `t` within its 64-bit PTE slot.
fn pte_bitpos(t: &FlipTemplate) -> u32 {
    u32::from(t.page_offset % 8) * 8 + u32::from(t.bit)
}

/// `true` if the hardware walk for `va` still agrees with the shadow
/// pagemap. Templating on a DRAM-page-tables machine hammers rows that may
/// hold the attacker's *own* leaf tables, so collateral flips can detach
/// buffer pages from under their virtual addresses; a plan must only rely
/// on pages that still walk cleanly.
fn walk_clean(m: &mut SimMachine, pid: Pid, va: VirtAddr) -> bool {
    m.translate_walk(pid, va)
        .is_ok_and(|walked| walked.is_some() && walked == m.translate(pid, va))
}

/// Picks a template + alias pair for the leaf composition: the weak cell
/// must land on a frame-number bit, some buffer frame `D` must hold the
/// chargeable value at that bit, and its alias `D' = D ^ (1 << bit)` must
/// also be an attacker-mapped buffer frame (excluding the pages the attack
/// needs intact: the templated page itself and the aggressor rows).
fn select_leaf_target(
    m: &mut SimMachine,
    attacker: Pid,
    base: VirtAddr,
    pages: u64,
    templates: &[FlipTemplate],
) -> Option<EscalationPlan> {
    let capacity = m.dram().capacity_bytes();
    // Physical page base → (buffer VA, DRAM row key), shadow view.
    let mut frames = std::collections::BTreeMap::new();
    for i in 0..pages {
        let va = base + i * PAGE_SIZE;
        if let Some(pa) = m.translate(attacker, va) {
            let c = m.dram().mapping().phys_to_coord(pa);
            frames.insert(pa.as_u64(), (va, (c.channel, c.rank, c.bank, c.row)));
        }
    }
    for t in templates {
        if t.reproducibility < 0.99 {
            continue;
        }
        let bitpos = pte_bitpos(t);
        if bitpos < PAGE_SIZE.trailing_zeros() || (1u64 << bitpos) >= capacity {
            continue; // flag/offset bits or beyond the device
        }
        let delta = 1u64 << bitpos;
        let Some(tmpl_pa) = m.translate(attacker, t.page_va).map(|p| p.as_u64()) else {
            continue;
        };
        let tc = m
            .dram()
            .mapping()
            .phys_to_coord(dram::PhysAddr::new(tmpl_pa));
        let victim_row = (tc.channel, tc.rank, tc.bank, tc.row);
        let excluded = [t.page_va, t.aggressor_above, t.aggressor_below];
        // The plan leans on the templated page and both aggressors walking
        // cleanly (they get unmapped/hammered through real translations).
        if excluded.iter().any(|&va| !walk_clean(m, attacker, va)) {
            continue;
        }
        let candidates: Vec<(VirtAddr, VirtAddr)> = frames
            .iter()
            .filter_map(|(&pa, &(va, row))| {
                if excluded.contains(&va) {
                    return None;
                }
                // D must hold the chargeable value at the weak bit...
                if ((pa & delta) != 0) != t.one_to_zero {
                    return None;
                }
                // ...its alias must be another attacker page (not the
                // templated frame, not an aggressor)...
                let &(alias_va, alias_row) = frames.get(&(pa ^ delta))?;
                if excluded.contains(&alias_va) || alias_va == va {
                    return None;
                }
                // ...and neither may share the victim DRAM row under
                // hammer, or collateral flips corrupt the demonstration.
                (row != victim_row && alias_row != victim_row).then_some((va, alias_va))
            })
            .collect();
        for (d_va, dprime_va) in candidates {
            if walk_clean(m, attacker, d_va) && walk_clean(m, attacker, dprime_va) {
                return Some(EscalationPlan {
                    template: *t,
                    slot: u64::from(t.page_offset) / 8,
                    d_va: Some(d_va),
                    dprime_va: Some(dprime_va),
                });
            }
        }
    }
    None
}

/// Picks a template for the huge/root composition: an anti cell (0 → 1) on
/// a frame bit *below* the 2 MiB block alignment — those bits are
/// guaranteed zero in any huge PTE, so the flip deterministically shifts
/// the decoded block — in a slot the victim's huge region can reach.
fn select_root_target(
    m: &mut SimMachine,
    attacker: Pid,
    templates: &[FlipTemplate],
) -> Option<EscalationPlan> {
    let huge_bits = (HUGE_PAGES * PAGE_SIZE).trailing_zeros(); // 21
    for t in templates {
        let bitpos = pte_bitpos(t);
        let slot = u64::from(t.page_offset) / 8;
        let eligible = t.reproducibility >= 0.99
            && !t.one_to_zero
            && bitpos >= PAGE_SIZE.trailing_zeros()
            && bitpos < huge_bits
            // The victim must be able to reserve slot+1 chunks plus the
            // guard page inside the 1 GiB walk window.
            && slot < SLOTS_PER_TABLE - 1;
        if eligible
            && [t.page_va, t.aggressor_above, t.aggressor_below]
                .iter()
                .all(|&va| walk_clean(m, attacker, va))
        {
            return Some(EscalationPlan {
                template: *t,
                slot,
                d_va: None,
                dprime_va: None,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_escalation_recovers_a_remap_end_to_end() {
        // Search a few seeds: any given module may lack a usable weak cell,
        // but the composition must land on flippy ones.
        let mut landed = 0;
        for seed in 1..=4 {
            let out = pte_flip_escalation(&PtFlipConfig::small_demo(seed)).unwrap();
            if out.template_found {
                assert!(out.steered_table, "seed {seed}: steering must be exact");
            }
            if out.hijacked {
                assert!(out.remapped, "seed {seed}: hijack implies remap");
                landed += 1;
            }
            assert!(out.hammer_pairs > 0);
        }
        assert!(landed > 0, "no seed in 1..=4 produced a full escalation");
    }

    #[test]
    fn huge_escalation_shifts_the_victim_view() {
        let mut landed = 0;
        for seed in 1..=6 {
            let cfg = PtFlipConfig::small_demo(seed).with_huge_victim(true);
            let out = pte_flip_escalation(&cfg).unwrap();
            if out.template_found && out.remapped {
                assert!(
                    out.steered_table,
                    "seed {seed}: root steering must be exact"
                );
                assert!(
                    out.hijacked,
                    "seed {seed}: shifted view must drop the secret"
                );
                landed += 1;
            }
        }
        assert!(landed > 0, "no seed in 1..=6 landed a root-PTE flip");
    }

    #[test]
    fn trials_are_deterministic() {
        let cfg = PtFlipConfig::small_demo(3);
        let a = pte_flip_escalation(&cfg).unwrap();
        let b = pte_flip_escalation(&cfg).unwrap();
        assert_eq!(a, b);
    }
}
