//! The typed artifacts the attack's phases hand to each other.
//!
//! The paper's attack is five phases — template → release → steer → hammer
//! → collect & analyze (§V–§VI). Each is a [`Pipeline`](crate::Pipeline)
//! method consuming one artifact and producing the next
//! ([`TemplatePool`] → [`ReleasedFrame`] → [`SteeredVictim`] →
//! [`FaultedCiphertexts`] → [`RecoveredKey`]); the pipeline keeps the
//! run's [`Counters`]. Template selection ([`select_attack_pages`],
//! [`template_usable`]) decides which templated flips a victim's table
//! layout can use.

use std::collections::BTreeSet;

use ciphers::TableImage;
use dram::{MappingKind, Nanos};
use fault::{PfaCollector, PresentPfa, TableFault};
use machine::{Pid, VirtAddr};

use crate::config::VictimCipherKind;
use crate::template::{FlipTemplate, TemplateScan};
use crate::victim::VictimCipherService;

/// Tallies accumulated across a pipeline run — the counted portion of the
/// final [`AttackReport`](crate::AttackReport).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Raw templates found by the sweep.
    pub templates_found: usize,
    /// Templates usable against the most recently selected victim layout.
    pub usable_templates: usize,
    /// Fault rounds in which the victim verifiably received the released
    /// frame (oracle-checked).
    pub steering_successes: u32,
    /// Fault rounds attempted (each victim arrival is one round).
    pub fault_rounds: u32,
    /// Total ciphertexts collected across rounds.
    pub ciphertexts_collected: u64,
    /// Recovered AES-128 key, if any analysis completed.
    pub recovered_aes_key: Option<[u8; 16]>,
    /// Recovered PRESENT-80 key, if any analysis completed.
    pub recovered_present_key: Option<[u8; 10]>,
    /// Times the run escalated its hammer strategy (adaptive driver).
    pub strategy_escalations: u32,
}

// ---------------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------------

/// Output of the mapping probe: the bank-mapping function recovered from
/// row-conflict latencies, or `None` when the measurements were ambiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveredMapping {
    /// The recovered mapping kind (`None` if no single candidate survived
    /// every measurement).
    pub kind: Option<MappingKind>,
    /// Page stride between same-bank neighbouring rows under the recovered
    /// mapping — the stride the many-sided decoy placement needs (0 when
    /// unrecovered).
    pub stride_pages: u64,
    /// Address pairs probed.
    pub probes: u32,
    /// Simulated time the probe consumed.
    pub elapsed: Nanos,
}

/// Output of the templating phase: the attacker process, its still-mapped
/// buffer, and the raw scan results.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplatePool {
    /// The attacker process that owns the template buffer.
    pub attacker: Pid,
    /// Base of the template buffer in the attacker's address space.
    pub buffer: VirtAddr,
    /// The raw templating sweep results.
    pub scan: TemplateScan,
}

impl TemplatePool {
    /// Templates usable against `kind`'s table layout, best-reproducing
    /// first: one per vulnerable page, restricted to pages where exactly one
    /// templated flip fires against the victim image (see
    /// [`select_attack_pages`]).
    #[must_use]
    pub fn usable(&self, kind: VictimCipherKind) -> Vec<FlipTemplate> {
        let mut usable = select_attack_pages(&self.scan.templates, kind);
        usable.sort_by(|a, b| {
            b.reproducibility
                .partial_cmp(&a.reproducibility)
                .expect("reproducibility is never NaN")
        });
        usable
    }
}

/// A vulnerable frame released into the CPU's page frame cache, awaiting a
/// victim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReleasedFrame {
    /// The template whose page was released (aggressors stay mapped).
    pub template: FlipTemplate,
    /// The released frame number (oracle-observed, reporting only).
    pub pfn: Option<u64>,
}

/// A running victim whose table page the pipeline (maybe) steered onto the
/// released frame, plus one pre-fault known plaintext/ciphertext pair.
#[derive(Debug, Clone, PartialEq)]
pub struct SteeredVictim {
    /// The victim service (copyable handle; stop it via
    /// [`Pipeline::stop_victim`](crate::Pipeline::stop_victim)).
    pub victim: VictimCipherService,
    /// The template targeting this victim's frame.
    pub template: FlipTemplate,
    /// Whether the victim's table page landed on the released frame
    /// (oracle-checked, reporting only).
    pub steered: bool,
    /// Known plaintext collected before the fault (PRESENT master-key
    /// recovery needs one clean pair).
    pub known_plain: Vec<u8>,
    /// The corresponding pre-fault ciphertext.
    pub known_cipher: Vec<u8>,
}

/// How a collection round ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectOutcome {
    /// Every needed position converged to a single missing value.
    Converged,
    /// A needed position saw every value: no last-round fault landed.
    NoFault,
    /// The ciphertext budget ran out before convergence.
    Exhausted,
    /// Collection was skipped (template not analytically usable — e.g. a
    /// T-table flip outside the S-lane).
    Skipped,
    /// The ECC-aware probe saw the DIMM silently correcting the fault:
    /// every ciphertext this round would be clean, so the round was
    /// discarded after a handful of probe queries instead of feeding
    /// corrected ciphertexts to the solvers.
    Corrected,
    /// The victim segfaulted mid-collection (walk mode only): a collateral
    /// flip landed in one of its DRAM-resident page-table frames instead of
    /// the cipher table, detaching the table page or sending the walk off
    /// the device. The round yields no statistics — the analog of a
    /// real-world victim process crashing under the attack.
    VictimCrashed,
}

impl CollectOutcome {
    /// Kebab-case label (for traces).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CollectOutcome::Converged => "converged",
            CollectOutcome::NoFault => "no-fault",
            CollectOutcome::Exhausted => "exhausted",
            CollectOutcome::Skipped => "skipped",
            CollectOutcome::Corrected => "ecc-corrected",
            CollectOutcome::VictimCrashed => "victim-crashed",
        }
    }
}

/// Faulty-ciphertext statistics collected from one steered victim.
#[derive(Debug)]
pub struct FaultedCiphertexts {
    /// The victim the ciphertexts came from.
    pub victim: SteeredVictim,
    /// How collection ended (analysis only runs on
    /// [`CollectOutcome::Converged`]).
    pub outcome: CollectOutcome,
    /// Ciphertexts collected this round.
    pub collected: u64,
    pub(crate) data: CollectorState,
}

/// The cipher-specific collector carrying the round's statistics. The
/// collectors hold kilobytes of per-position counters, so they are boxed
/// to keep the artifact small when moved between phases.
#[derive(Debug)]
pub(crate) enum CollectorState {
    Aes(Box<PfaCollector>),
    Present(Box<PresentPfa>),
    Skipped,
}

/// A key recovered by analysis (at most one field is set, matching the
/// victim's cipher).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveredKey {
    /// Recovered AES-128 key.
    pub aes: Option<[u8; 16]>,
    /// Recovered PRESENT-80 key.
    pub present: Option<[u8; 10]>,
}

impl RecoveredKey {
    /// Wraps an AES-128 key.
    #[must_use]
    pub fn from_aes(key: [u8; 16]) -> Self {
        RecoveredKey {
            aes: Some(key),
            present: None,
        }
    }

    /// Wraps a PRESENT-80 key.
    #[must_use]
    pub fn from_present(key: [u8; 10]) -> Self {
        RecoveredKey {
            aes: None,
            present: Some(key),
        }
    }
}

// ---------------------------------------------------------------------------
// Template selection
// ---------------------------------------------------------------------------

/// Whether a template *fires* against the victim's image: its offset falls
/// inside the table image and the image's bit at that location holds the
/// charged value the flip discharges.
fn template_fires(t: &FlipTemplate, kind: VictimCipherKind) -> bool {
    kind.image()
        .get(usize::from(t.page_offset))
        .is_some_and(|&byte| (byte & (1 << t.bit) != 0) == t.required_bit_value())
}

/// Selects one attack template per vulnerable page: pages where *exactly
/// one* templated flip fires against the victim image (several simultaneous
/// table faults would break the single-missing-value statistics), and that
/// flip is analytically usable ([`template_usable`]).
pub fn select_attack_pages(
    templates: &[FlipTemplate],
    kind: VictimCipherKind,
) -> Vec<FlipTemplate> {
    let mut by_page: std::collections::BTreeMap<u64, Vec<&FlipTemplate>> =
        std::collections::BTreeMap::new();
    for t in templates {
        by_page.entry(t.page_index).or_default().push(t);
    }
    let mut out = Vec::new();
    for (_, page_templates) in by_page {
        let firing: Vec<&&FlipTemplate> = page_templates
            .iter()
            .filter(|t| template_fires(t, kind))
            .collect();
        if let [only] = firing[..] {
            if template_usable(only, kind) {
                out.push(**only);
            }
        }
    }
    out
}

/// Whether a template can corrupt the victim's table usefully: its offset
/// must fall inside the table image, the image's bit at that location must
/// hold the charged value the flip discharges, and for T-table/PRESENT
/// victims the location must be analytically exploitable.
pub fn template_usable(t: &FlipTemplate, kind: VictimCipherKind) -> bool {
    if t.reproducibility < 0.5 || !template_fires(t, kind) {
        return false;
    }
    match kind {
        VictimCipherKind::AesSbox => true,
        VictimCipherKind::AesTtable => TableFault {
            offset: usize::from(t.page_offset),
            bit: t.bit,
        }
        .classify_te()
        .is_exploitable(),
        // Table bytes store one 4-bit S-box value each; flips in the unused
        // high nibble are masked out by the S-layer.
        VictimCipherKind::Present => t.bit < 4,
    }
}

/// Picks the next template: for T-table victims, one whose fault lands in a
/// still-needed table; otherwise simply the most reproducible remaining.
pub(crate) fn pick_template(
    remaining: &mut Vec<FlipTemplate>,
    kind: VictimCipherKind,
    tables_needed: &BTreeSet<usize>,
) -> Option<FlipTemplate> {
    let idx = match kind {
        VictimCipherKind::AesTtable => remaining.iter().position(|t| {
            let (table, _, _) = TableImage::te_locate(t.page_offset as usize);
            tables_needed.contains(&table)
        })?,
        _ => {
            if remaining.is_empty() {
                return None;
            }
            0
        }
    };
    Some(remaining.remove(idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram::CellPolarity;
    use machine::VirtAddr;

    fn template(offset: u16, bit: u8, one_to_zero: bool) -> FlipTemplate {
        let _ = CellPolarity::True;
        FlipTemplate {
            page_index: 0,
            page_va: VirtAddr(0),
            page_offset: offset,
            bit,
            one_to_zero,
            aggressor_above: VirtAddr(0),
            aggressor_below: VirtAddr(0),
            reproducibility: 1.0,
        }
    }

    #[test]
    fn usability_respects_image_bounds_and_bits() {
        // S-box entry 0 is 0x63 = 0b0110_0011.
        assert!(template_usable(
            &template(0, 0, true),
            VictimCipherKind::AesSbox
        ));
        assert!(!template_usable(
            &template(0, 2, true),
            VictimCipherKind::AesSbox
        ));
        assert!(template_usable(
            &template(0, 2, false),
            VictimCipherKind::AesSbox
        ));
        // Outside the 256-byte image.
        assert!(!template_usable(
            &template(256, 0, true),
            VictimCipherKind::AesSbox
        ));
        // Low reproducibility is rejected.
        let mut t = template(0, 0, true);
        t.reproducibility = 0.1;
        assert!(!template_usable(&t, VictimCipherKind::AesSbox));
    }

    #[test]
    fn te_image_matches_a_fresh_build_at_every_bit() {
        let fresh = TableImage::te_tables();
        assert_eq!(VictimCipherKind::AesTtable.image(), &fresh[..]);
        for (offset, &byte) in fresh.iter().enumerate() {
            for bit in 0..8u8 {
                let charged = byte & (1 << bit) != 0;
                for one_to_zero in [true, false] {
                    assert_eq!(
                        template_fires(
                            &template(offset as u16, bit, one_to_zero),
                            VictimCipherKind::AesTtable
                        ),
                        charged == one_to_zero,
                        "offset {offset}, bit {bit}, one_to_zero {one_to_zero}"
                    );
                }
            }
        }
    }

    #[test]
    fn ttable_usability_requires_s_lane() {
        let te = TableImage::te_tables();
        // Find an S-lane offset with a set bit and a non-S-lane one.
        let s_lane_off = TableImage::te_entry_offset(0, 0x53) + ciphers::FINAL_ROUND_S_LANE[0];
        let bit = (0..8).find(|&b| te[s_lane_off] & (1 << b) != 0).unwrap();
        assert!(template_usable(
            &template(s_lane_off as u16, bit, true),
            VictimCipherKind::AesTtable
        ));
        let other_off = TableImage::te_entry_offset(0, 0x53); // lane 0 = 3S lane
        let bit2 = (0..8).find(|&b| te[other_off] & (1 << b) != 0).unwrap();
        assert!(!template_usable(
            &template(other_off as u16, bit2, true),
            VictimCipherKind::AesTtable
        ));
    }

    #[test]
    fn present_usability_requires_low_nibble() {
        // PRESENT S[0] = 0xC = 0b1100: bits 2,3 set.
        assert!(template_usable(
            &template(0, 2, true),
            VictimCipherKind::Present
        ));
        assert!(!template_usable(
            &template(0, 4, true),
            VictimCipherKind::Present
        ));
        assert!(!template_usable(
            &template(0, 4, false),
            VictimCipherKind::Present
        ));
        assert!(template_usable(
            &template(0, 1, false),
            VictimCipherKind::Present
        ));
    }

    #[test]
    fn pick_template_covers_needed_tables() {
        let te = TableImage::te_tables();
        let mk = |table: usize| {
            let off = TableImage::te_entry_offset(table, 7) + ciphers::FINAL_ROUND_S_LANE[table];
            let bit = (0..8).find(|&b| te[off] & (1 << b) != 0).unwrap();
            template(off as u16, bit, true)
        };
        let mut remaining = vec![mk(1), mk(0), mk(1)];
        let mut needed: BTreeSet<usize> = [0].into_iter().collect();
        let picked = pick_template(&mut remaining, VictimCipherKind::AesTtable, &needed).unwrap();
        let (table, _, _) = TableImage::te_locate(picked.page_offset as usize);
        assert_eq!(table, 0);
        needed.clear();
        assert!(pick_template(&mut remaining, VictimCipherKind::AesTtable, &needed).is_none());
    }

    #[test]
    fn template_pool_usable_sorts_by_reproducibility() {
        let mut low = template(0, 0, true);
        low.reproducibility = 0.7;
        low.page_index = 1;
        let mut high = template(0, 0, true);
        high.reproducibility = 1.0;
        high.page_index = 2;
        let pool = TemplatePool {
            attacker: Pid(1),
            buffer: VirtAddr(0),
            scan: TemplateScan {
                templates: vec![low, high],
                ..TemplateScan::default()
            },
        };
        let usable = pool.usable(VictimCipherKind::AesSbox);
        assert_eq!(usable.len(), 2);
        assert!(usable[0].reproducibility >= usable[1].reproducibility);
    }

    #[test]
    fn recovered_key_constructors_set_one_side() {
        let aes = RecoveredKey::from_aes([7; 16]);
        assert!(aes.aes.is_some() && aes.present.is_none());
        let present = RecoveredKey::from_present([9; 10]);
        assert!(present.present.is_some() && present.aes.is_none());
    }
}
