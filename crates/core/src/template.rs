//! DRAM templating: profiling the attacker's own memory for repeatable
//! bit flips (paper §VI, first phase).
//!
//! The attacker allocates a large buffer, fills it with a test pattern, and
//! double-side hammers every row, reading the buffer back to find flipped
//! bits. No privileged interface is used: flips are *observed in the
//! attacker's own data*, and aggressor selection relies only on the DIMM
//! geometry (recoverable on real hardware with DRAMA-style timing analysis;
//! here taken from the machine configuration).

use dram::{DramGeometry, Nanos, PageDiff};
use machine::{MachineError, MachineSnapshot, Pid, SimMachine, VirtAddr};
use memsim::{CpuId, PAGE_SIZE};
use perf::FastSet;

use crate::config::{ExplFrameConfig, HammerStrategy};
use crate::phase::TemplatePool;

/// Pages separating two consecutive rows of one bank in the physical
/// address space — banks, ranks and channels all interleave below the row
/// bits, so the stride is one row-width per bank in the system. This is
/// the aggressor-row stride within a physically contiguous buffer, shared
/// by the templating sweep and the re-hammer phase so the two can never
/// disagree about where decoy rows live.
pub(crate) fn same_bank_stride_pages(geometry: &DramGeometry) -> u64 {
    let row_pages = (u64::from(geometry.row_bytes) / PAGE_SIZE).max(1);
    row_pages * geometry.total_banks()
}

/// One templated flip: a repeatable bit corruption the attacker can
/// re-trigger on demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlipTemplate {
    /// Page index within the attacker's template buffer.
    pub page_index: u64,
    /// Base virtual address of the vulnerable page (attacker space).
    pub page_va: VirtAddr,
    /// Byte offset of the flip within the page.
    pub page_offset: u16,
    /// Bit within the byte (0 = LSB).
    pub bit: u8,
    /// `true` if the flip discharges a 1 to 0 (true cell); `false` for a
    /// 0 → 1 flip (anti cell).
    pub one_to_zero: bool,
    /// Virtual address of the lower aggressor row (stays mapped).
    pub aggressor_above: VirtAddr,
    /// Virtual address of the upper aggressor row (stays mapped).
    pub aggressor_below: VirtAddr,
    /// Fraction of re-hammer rounds that reproduced the flip.
    pub reproducibility: f32,
}

impl FlipTemplate {
    /// The bit value the victim's data must hold at this location for the
    /// flip to trigger.
    pub const fn required_bit_value(&self) -> bool {
        self.one_to_zero
    }
}

/// Result of a templating sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TemplateScan {
    /// Deduplicated templates, in discovery order.
    pub templates: Vec<FlipTemplate>,
    /// Aggressor pairs hammered.
    pub rows_hammered: u64,
    /// Hammer attempts rejected (aggressors not in one bank — buffer
    /// fragmentation).
    pub hammer_failures: u64,
    /// Pages discarded because the read-back diverged wholesale from the
    /// fill pattern — a collateral flip in the attacker's *own* leaf page
    /// table remapped the page to a foreign frame, so the divergence is a
    /// translation artifact, not weak cells. Only reachable in walk mode
    /// ([`MachineConfig::with_dram_page_tables`]); always zero under the
    /// shadow translation oracle.
    ///
    /// [`MachineConfig::with_dram_page_tables`]: machine::MachineConfig::with_dram_page_tables
    pub translation_casualties: u64,
    /// Simulated time consumed by the sweep.
    pub elapsed: Nanos,
}

/// Aggressor sets up to this many rows are built on the stack.
const INLINE_ROWS: usize = 8;

/// The most rows [`strategy_aggressors`] returns: the strategy's width, at
/// least the pair, and at most the pair plus one decoy per stride step on
/// each side of a `pages`-page buffer.
fn set_capacity(strategy: HammerStrategy, pages: u64, stride_pages: u64) -> usize {
    let decoys = 2 * (pages / stride_pages.max(1));
    u64::from(strategy.rows()).clamp(2, 2 + decoys) as usize
}

/// The same-bank aggressor-row set a [`HammerStrategy`] hammers around one
/// victim: the sandwiching pair, plus (for many-sided) decoy rows fanned
/// outwards at `stride_pages` while they stay inside the buffer. The set is
/// written to the front of `out`, which must hold [`set_capacity`]
/// addresses, and returned.
///
/// Decoy candidates are generated by virtual-address stride but each one is
/// **verified physically** before use: the candidate page is re-translated
/// and kept only if its frame really sits in the aggressor pair's bank, on
/// a row not already claimed and not inside the victim sandwich. A
/// contiguous virtual buffer is *not* physically contiguous once the page
/// frame cache has shuffled frames, so a pure VA-stride fan-out can aim
/// decoys at the wrong bank — or at the victim row itself, refreshing it —
/// and forfeit the whole many-sided round when the hammer primitive rejects
/// the set. Candidates that translate nowhere (never-touched pages) or land
/// wrong are skipped, not guessed at.
#[allow(clippy::too_many_arguments)]
pub(crate) fn strategy_aggressors<'a>(
    machine: &SimMachine,
    pid: Pid,
    strategy: HammerStrategy,
    base: VirtAddr,
    pages: u64,
    above: VirtAddr,
    below: VirtAddr,
    stride_pages: u64,
    out: &'a mut [VirtAddr],
) -> &'a [VirtAddr] {
    out[0] = above;
    out[1] = below;
    let HammerStrategy::ManySided { .. } = strategy else {
        return &out[..2];
    };
    let want = set_capacity(strategy, pages, stride_pages);
    let coord_of = |va: VirtAddr| {
        machine
            .translate(pid, va)
            .map(|pa| machine.dram().mapping().phys_to_coord(pa))
    };
    let (Some(ca), Some(cb)) = (coord_of(above), coord_of(below)) else {
        // Untouched pair: nothing to anchor the bank on; let the hammer
        // primitive's own validation report the failure.
        return &out[..2];
    };
    let bank = (ca.channel, ca.rank, ca.bank);
    if (cb.channel, cb.rank, cb.bank) != bank || ca.row == cb.row {
        return &out[..2]; // fragmented pair — no bank to fan out within
    }
    // Rows already claimed (`claimed[i]` is the row of `out[i]`), plus the
    // sandwiched victim row(s) between the pair, which a decoy must never
    // activate (that would refresh it).
    let (victim_lo, victim_hi) = (ca.row.min(cb.row), ca.row.max(cb.row));
    let (mut inline_claimed, mut spilled_claimed) = ([0u32; INLINE_ROWS], Vec::new());
    let claimed = perf::scratch(&mut inline_claimed, &mut spilled_claimed, want);
    claimed[0] = ca.row;
    claimed[1] = cb.row;
    let mut len = 2;
    let Some(end) = pages
        .checked_mul(PAGE_SIZE)
        .and_then(|len| base.0.checked_add(len))
    else {
        return &out[..len];
    };
    let stride = stride_pages * PAGE_SIZE;
    let mut k = 1u64;
    while len < want {
        let Some(offset) = k.checked_mul(stride) else {
            break;
        };
        let lower = above.0.checked_sub(offset).filter(|&a| a >= base.0);
        let upper = below.0.checked_add(offset).filter(|&a| a < end);
        if lower.is_none() && upper.is_none() {
            break; // buffer exhausted on both sides
        }
        for cand in [lower, upper].into_iter().flatten() {
            if len >= want {
                break;
            }
            let va = VirtAddr(cand);
            let Some(c) = coord_of(va) else {
                continue;
            };
            if (c.channel, c.rank, c.bank) != bank
                || (c.row > victim_lo && c.row < victim_hi)
                || claimed[..len].contains(&c.row)
            {
                continue;
            }
            claimed[len] = c.row;
            out[len] = va;
            len += 1;
        }
        k += 1;
    }
    &out[..len]
}

/// Hammers the strategy's aggressor set around (`above`, `below`) with
/// `pairs` rounds of [`SimMachine::hammer_rows_virt`]. Returns whether the
/// primitive accepted the set, and how many rows the set held.
///
/// A rejected set ([`MachineError::Dram`]: a fragmented buffer) and a walk
/// casualty ([`MachineError::Unmapped`]) give `false`; any other error
/// propagates.
#[allow(clippy::too_many_arguments)]
pub(crate) fn strategy_hammer(
    machine: &mut SimMachine,
    pid: Pid,
    strategy: HammerStrategy,
    base: VirtAddr,
    pages: u64,
    above: VirtAddr,
    below: VirtAddr,
    stride_pages: u64,
    pairs: u64,
) -> Result<(bool, u32), MachineError> {
    let (mut inline, mut spilled) = ([VirtAddr(0); INLINE_ROWS], Vec::new());
    let capacity = set_capacity(strategy, pages, stride_pages);
    let out = perf::scratch(&mut inline, &mut spilled, capacity);
    let rows = strategy_aggressors(
        machine,
        pid,
        strategy,
        base,
        pages,
        above,
        below,
        stride_pages,
        out,
    );
    let accepted = match machine.hammer_rows_virt(pid, rows, pairs) {
        Ok(_) => true,
        Err(MachineError::Dram(_)) => false,
        // DRAM-resident page tables only: a collateral flip in the
        // attacker's own leaf tables can detach an aggressor page — the
        // attacker's SIGSEGV handler skips the set instead of dying.
        Err(MachineError::Unmapped { .. }) => false,
        Err(e) => return Err(e),
    };
    Ok((accepted, rows.len() as u32))
}

/// Runs a buffer access that the sweep itself may have sabotaged: with
/// page tables in DRAM, hammering the attacker's buffer can flip bits in
/// the attacker's *own* leaf tables and detach pages from their virtual
/// addresses. A templating tool survives the resulting segfault via its
/// signal handler and skips the page, so the sweep does too — `Ok(false)`
/// means "skipped". Shadow-translation machines never take this path.
///
/// # Errors
///
/// Every failure other than [`MachineError::Unmapped`] propagates.
fn survives(result: Result<(), MachineError>) -> Result<bool, MachineError> {
    match result {
        Ok(()) => Ok(true),
        Err(MachineError::Unmapped { .. }) => Ok(false),
        Err(e) => Err(e),
    }
}

/// Runs the templating sweep over `pages` pages at `base` in `pid`'s
/// address space, double-sided (the paper's sweep).
///
/// Two passes are made (fill `0xFF` to expose true cells, `0x00` for anti
/// cells). After the sweep the buffer is left filled with zeroes and every
/// discovered template has been reproduced `repro_rounds` times to score
/// its reliability.
///
/// # Errors
///
/// Propagates machine errors (unmapped buffer, OOM on first touch).
pub fn template_scan(
    machine: &mut SimMachine,
    pid: Pid,
    base: VirtAddr,
    pages: u64,
    hammer_pairs: u64,
    repro_rounds: u32,
) -> Result<TemplateScan, MachineError> {
    template_scan_with(
        machine,
        pid,
        base,
        pages,
        hammer_pairs,
        repro_rounds,
        HammerStrategy::DoubleSided,
    )
}

/// [`template_scan`] with an explicit [`HammerStrategy`] — a
/// countermeasure-aware attacker re-sweeps many-sided when the
/// double-sided sweep comes back empty on a TRR-protected module.
///
/// # Errors
///
/// Propagates machine errors (unmapped buffer, OOM on first touch).
pub fn template_scan_with(
    machine: &mut SimMachine,
    pid: Pid,
    base: VirtAddr,
    pages: u64,
    hammer_pairs: u64,
    repro_rounds: u32,
    strategy: HammerStrategy,
) -> Result<TemplateScan, MachineError> {
    let start_time = machine.now();
    let geometry = machine.config().dram.geometry;
    let row_pages = (geometry.row_bytes as u64 / PAGE_SIZE).max(1);
    let stride_pages = same_bank_stride_pages(&geometry);

    let mut scan = TemplateScan::default();
    if pages < 2 * stride_pages + row_pages {
        scan.elapsed = machine.now() - start_time;
        return Ok(scan);
    }

    for pattern in [0xFFu8, 0x00u8] {
        if !survives(machine.fill(pid, base, pages * PAGE_SIZE, pattern))? {
            // A page detached mid-buffer: repeat page-wise, skipping the
            // casualties, so the surviving pages still get patterned.
            for i in 0..pages {
                survives(machine.fill(pid, base + i * PAGE_SIZE, PAGE_SIZE, pattern))?;
            }
        }
        let mut victim_start = stride_pages;
        while victim_start + row_pages + stride_pages <= pages {
            let above = base + (victim_start - stride_pages) * PAGE_SIZE;
            let below = base + (victim_start + stride_pages) * PAGE_SIZE;
            let (accepted, _) = strategy_hammer(
                machine,
                pid,
                strategy,
                base,
                pages,
                above,
                below,
                stride_pages,
                hammer_pairs,
            )?;
            if !accepted {
                scan.hammer_failures += 1;
                victim_start += row_pages;
                continue;
            }
            scan.rows_hammered += 1;
            // Read back the sandwiched row and harvest flips from the
            // attacker's own data. Collateral flips in outer rows (±2, ±3
            // row distances) are deliberately not harvested here: every row
            // gets its own double-sided turn in this sweep, which is both
            // stronger than the collateral disturbance and attributes the
            // flip to the aggressor pair that best reproduces it.
            for page in victim_start..victim_start + row_pages {
                survives(harvest_page(
                    machine, pid, base, page, pattern, above, below, &mut scan,
                ))?;
            }
            victim_start += row_pages;
        }
    }

    dedupe(&mut scan.templates);
    score_reproducibility(
        machine,
        pid,
        base,
        pages,
        &mut scan.templates,
        hammer_pairs,
        repro_rounds,
        strategy,
        stride_pages,
    )?;
    scan.elapsed = machine.now() - start_time;
    Ok(scan)
}

/// The scan-shaping parameters a memoized sweep is keyed by. The attack
/// seed is deliberately absent: the sweep never touches the attacker RNG
/// or the victim keys, so two differently seeded attacks over the same
/// machine state run the identical sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MemoKey {
    attacker_cpu: CpuId,
    template_pages: u64,
    hammer_pairs: u64,
    reproducibility_rounds: u32,
    strategy: HammerStrategy,
    /// Walk mode changes what a sweep *does* to the machine (table-frame
    /// allocations, walk traffic through caches and TRR sampling), so a
    /// shadow-mode pool must never answer a walk-mode lookup even if the
    /// pre-sweep snapshots happened to compare equal.
    dram_page_tables: bool,
}

impl MemoKey {
    fn of(config: &ExplFrameConfig, strategy: HammerStrategy) -> Self {
        MemoKey {
            attacker_cpu: config.attacker_cpu,
            template_pages: config.template_pages,
            hammer_pairs: config.hammer_pairs,
            reproducibility_rounds: config.reproducibility_rounds,
            strategy,
            dram_page_tables: config.machine.dram_page_tables,
        }
    }
}

struct MemoEntry {
    key: MemoKey,
    pre: MachineSnapshot,
    post: MachineSnapshot,
    pool: TemplatePool,
}

/// A cache of completed templating sweeps, for campaigns whose trials fork
/// from a shared warm snapshot: every trial re-runs the *identical* sweep
/// (same machine state, same parameters, no RNG involved), which dominates
/// the non-collect half of a trial. The memo stores the sweep's
/// [`TemplatePool`] together with the post-sweep [`MachineSnapshot`]; a hit
/// replays both — the machine is restored to the post-sweep state and the
/// pool is returned — skipping the hammering entirely.
///
/// **Exactness:** a hit requires the stored *pre-sweep* snapshot to compare
/// equal to the current machine. A clone of the caller's snapshot shares
/// its `Arc`, so that comparison is one pointer compare; only a distinct
/// capture is compared state by state. Replayed
/// runs are therefore byte-identical to uncached runs — asserted by the
/// `memoized_template_runs_match_uncached` tests.
///
/// Use via [`RunOptions::memo`](crate::RunOptions::memo),
/// [`ExplFrame::run_snapshot_memo`](crate::ExplFrame::run_snapshot_memo) or
/// [`Pipeline::template_memo_at`](crate::Pipeline::template_memo_at).
///
/// # Examples
///
/// ```no_run
/// use explframe_core::{ExplFrame, ExplFrameConfig, TemplateMemo};
/// use machine::SimMachine;
///
/// let config = ExplFrameConfig::small_demo(1);
/// let warm = SimMachine::new(config.machine.clone()).snapshot();
/// let mut memo = TemplateMemo::new();
/// let first = ExplFrame::new(config.clone()).run_snapshot_memo(&warm, &mut memo)?;
/// let second = ExplFrame::new(config).run_snapshot_memo(&warm, &mut memo)?;
/// assert_eq!(first, second); // second trial skipped the sweep
/// assert_eq!(memo.hits(), 1);
/// # Ok::<(), explframe_core::AttackError>(())
/// ```
#[derive(Default)]
pub struct TemplateMemo {
    entries: Vec<MemoEntry>,
    hits: u64,
    misses: u64,
}

impl TemplateMemo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Completed sweeps currently cached (one per distinct pre-state ×
    /// parameter combination — an adaptive escalation adds a second).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no sweep has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sweeps answered from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Sweeps that ran live (and were then cached).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub(crate) fn lookup(
        &mut self,
        config: &ExplFrameConfig,
        strategy: HammerStrategy,
        pre: &MachineSnapshot,
    ) -> Option<(&MachineSnapshot, &TemplatePool)> {
        let key = MemoKey::of(config, strategy);
        let found = self
            .entries
            .iter()
            .position(|e| e.key == key && e.pre == *pre);
        match found {
            Some(i) => {
                self.hits += 1;
                let entry = &self.entries[i];
                Some((&entry.post, &entry.pool))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    pub(crate) fn insert(
        &mut self,
        config: &ExplFrameConfig,
        strategy: HammerStrategy,
        pre: MachineSnapshot,
        post: MachineSnapshot,
        pool: TemplatePool,
    ) {
        self.entries.push(MemoEntry {
            key: MemoKey::of(config, strategy),
            pre,
            post,
            pool,
        });
    }
}

impl std::fmt::Debug for TemplateMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TemplateMemo")
            .field("entries", &self.entries.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

/// Bit-divergence ceiling above which a page's read-back is a translation
/// remap, not Rowhammer. Genuine weak cells are sparse — the whole sweep
/// finds a few hundred flips across a thousand pages, so even a
/// pathologically weak page carries single-digit flips. A page whose leaf
/// PTE was itself flipped aliases to a foreign frame and diverges in
/// thousands of bits at once; 64 sits orders of magnitude above the first
/// regime and below the second.
const REMAP_FLIP_THRESHOLD: u32 = 64;

/// Reads one page, records any flips against `pattern`, and restores it.
///
/// The read-back is [`SimMachine::read_diff`]: same accounting as a 4 KiB
/// [`SimMachine::read`], but a clean page costs O(1) and a dirty one only
/// its differing bytes (the bytes are skipped only while DRAM reads are
/// raw; under a latent SECDED fault they are filtered first). Templates
/// come out in offset, then bit order — the order of a byte-wise scan.
///
/// In walk mode the templating sweep is self-hazardous: a collateral flip
/// can land in the leaf table that maps the template buffer itself, silently
/// remapping a page to a foreign frame. The read-back then diverges on
/// essentially every bit — and naively harvesting that records tens of
/// thousands of phantom "weak cells" whose reproducibility scoring burns
/// ~50× the sweep's hammer budget, while the restoring fill scribbles the
/// test pattern over whatever innocent frame the corrupted PTE now points
/// at. Pages past [`REMAP_FLIP_THRESHOLD`] are therefore written off as
/// translation casualties: no templates, no restore, counted in
/// [`TemplateScan::translation_casualties`].
#[allow(clippy::too_many_arguments)]
fn harvest_page(
    machine: &mut SimMachine,
    pid: Pid,
    base: VirtAddr,
    page: u64,
    pattern: u8,
    above: VirtAddr,
    below: VirtAddr,
    scan: &mut TemplateScan,
) -> Result<(), MachineError> {
    let va = base + page * PAGE_SIZE;
    let mut diffs = Vec::new();
    let diff = machine.read_diff(pid, va, pattern, &mut diffs)?;
    if machine.config().dram_page_tables {
        let flipped_bits: u32 = match diff {
            PageDiff::Uniform(xor) => xor.count_ones() * PAGE_SIZE as u32,
            PageDiff::Listed => diffs.iter().map(|&(_, xor)| xor.count_ones()).sum(),
        };
        if flipped_bits > REMAP_FLIP_THRESHOLD {
            scan.translation_casualties += 1;
            return Ok(());
        }
    }
    if let PageDiff::Uniform(xor @ 1..) = diff {
        diffs.extend((0..PAGE_SIZE as u16).map(|off| (off, xor)));
    }
    if diffs.is_empty() {
        return Ok(());
    }
    for &(off, xor) in &diffs {
        for bit in (0..8u8).filter(|&bit| xor & (1 << bit) != 0) {
            scan.templates.push(FlipTemplate {
                page_index: page,
                page_va: va,
                page_offset: off,
                bit,
                one_to_zero: pattern & (1 << bit) != 0,
                aggressor_above: above,
                aggressor_below: below,
                reproducibility: 0.0,
            });
        }
    }
    machine.fill(pid, va, PAGE_SIZE, pattern)
}

/// The byte-wise oracle for [`harvest_page`]: a full 4 KiB read, a
/// popcount pass, then a per-byte, per-bit scan.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn harvest_page_reference(
    machine: &mut SimMachine,
    pid: Pid,
    base: VirtAddr,
    page: u64,
    pattern: u8,
    above: VirtAddr,
    below: VirtAddr,
    scan: &mut TemplateScan,
) -> Result<(), MachineError> {
    let va = base + page * PAGE_SIZE;
    let mut buf = vec![0u8; PAGE_SIZE as usize];
    machine.read(pid, va, &mut buf)?;
    let flipped_bits: u32 = buf.iter().map(|&b| (b ^ pattern).count_ones()).sum();
    if machine.config().dram_page_tables && flipped_bits > REMAP_FLIP_THRESHOLD {
        scan.translation_casualties += 1;
        return Ok(());
    }
    let mut dirty = false;
    for (off, &byte) in buf.iter().enumerate() {
        if byte == pattern {
            continue;
        }
        dirty = true;
        let diff = byte ^ pattern;
        for bit in 0..8u8 {
            if diff & (1 << bit) != 0 {
                scan.templates.push(FlipTemplate {
                    page_index: page,
                    page_va: va,
                    page_offset: off as u16,
                    bit,
                    one_to_zero: pattern & (1 << bit) != 0,
                    aggressor_above: above,
                    aggressor_below: below,
                    reproducibility: 0.0,
                });
            }
        }
    }
    if dirty {
        machine.fill(pid, va, PAGE_SIZE, pattern)?;
    }
    Ok(())
}

fn dedupe(templates: &mut Vec<FlipTemplate>) {
    let mut seen = FastSet::default();
    templates.retain(|t| seen.insert((t.page_index, t.page_offset, t.bit)));
}

/// Re-hammers each template `rounds` times and records the hit fraction.
#[allow(clippy::too_many_arguments)]
fn score_reproducibility(
    machine: &mut SimMachine,
    pid: Pid,
    base: VirtAddr,
    pages: u64,
    templates: &mut [FlipTemplate],
    hammer_pairs: u64,
    rounds: u32,
    strategy: HammerStrategy,
    stride_pages: u64,
) -> Result<(), MachineError> {
    let window = machine.config().dram.timing.refresh_window();
    for t in templates.iter_mut() {
        let pattern = if t.one_to_zero { 0xFF } else { 0x00 };
        let mut hits = 0u32;
        for _ in 0..rounds {
            if !survives(machine.fill(pid, t.page_va, PAGE_SIZE, pattern))? {
                break; // page detached by collateral PTE corruption
            }
            // Let all disturbance state from previous rounds refresh away.
            machine.advance(window);
            let (accepted, _) = strategy_hammer(
                machine,
                pid,
                strategy,
                base,
                pages,
                t.aggressor_above,
                t.aggressor_below,
                stride_pages,
                hammer_pairs,
            )?;
            if !accepted {
                break;
            }
            let mut byte = [0u8];
            if !survives(machine.read(pid, t.page_va + t.page_offset as u64, &mut byte))? {
                break;
            }
            let bit_now = byte[0] & (1 << t.bit) != 0;
            if bit_now != t.required_bit_value() {
                hits += 1;
            }
        }
        t.reproducibility = if rounds == 0 {
            0.0
        } else {
            hits as f32 / rounds as f32
        };
        survives(machine.fill(pid, t.page_va, PAGE_SIZE, 0))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::MachineConfig;
    use memsim::CpuId;

    fn scan_small(seed: u64, pages: u64, pairs: u64) -> (SimMachine, Pid, VirtAddr, TemplateScan) {
        let mut m = SimMachine::new(MachineConfig::small(seed));
        let pid = m.spawn(CpuId(0));
        let base = m.mmap(pid, pages).unwrap();
        let scan = template_scan(&mut m, pid, base, pages, pairs, 3).unwrap();
        (m, pid, base, scan)
    }

    #[test]
    fn finds_flips_on_flippy_module() {
        // 16 MiB over the flippy small config: expect a healthy population.
        let (_, _, _, scan) = scan_small(5, 4096, 400_000);
        assert!(scan.rows_hammered > 100);
        assert!(
            !scan.templates.is_empty(),
            "templating found nothing; rows={} fails={}",
            scan.rows_hammered,
            scan.hammer_failures
        );
        // Both directions should be represented eventually.
        let ones = scan.templates.iter().filter(|t| t.one_to_zero).count();
        assert!(ones > 0, "no true-cell flips found");
    }

    #[test]
    fn templates_are_deduplicated_and_scored() {
        let (_, _, _, scan) = scan_small(6, 4096, 400_000);
        let mut keys: Vec<_> = scan
            .templates
            .iter()
            .map(|t| (t.page_index, t.page_offset, t.bit))
            .collect();
        keys.sort();
        let len = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), len, "duplicate templates survived");
        // The weak-cell model is deterministic, so reproducibility is high.
        assert!(
            scan.templates.iter().any(|t| t.reproducibility >= 0.99),
            "no template reproduced reliably"
        );
    }

    #[test]
    fn flips_match_ground_truth_locations() {
        // Every template must correspond to a real weak cell (oracle check).
        let (m, pid, _, scan) = scan_small(7, 2048, 400_000);
        for t in &scan.templates {
            let pa = m.translate(pid, t.page_va).expect("template page mapped");
            let cells = m.dram().weak_cells_at(pa + t.page_offset as u64);
            let coord = m.dram().mapping().phys_to_coord(pa + t.page_offset as u64);
            let bit_in_row = coord.col * 8 + t.bit as u32;
            assert!(
                cells.iter().any(|c| c.bit_in_row == bit_in_row),
                "template at page {} offset {} bit {} has no weak cell",
                t.page_index,
                t.page_offset,
                t.bit
            );
        }
    }

    fn coord_of(m: &SimMachine, pid: Pid, va: VirtAddr) -> dram::DramCoord {
        let pa = m.translate(pid, va).expect("page touched");
        m.dram().mapping().phys_to_coord(pa)
    }

    #[test]
    fn strategy_aggressors_fan_out_within_the_buffer() {
        use crate::config::HammerStrategy;
        let mut m = SimMachine::new(MachineConfig::small(4));
        let pid = m.spawn(CpuId(0));
        let pages = 1024u64;
        let base = m.mmap(pid, pages).unwrap();
        m.fill(pid, base, pages * PAGE_SIZE, 0).unwrap();
        let stride = same_bank_stride_pages(&m.config().dram.geometry);
        let above = base + 8 * stride * PAGE_SIZE;
        let below = base + 10 * stride * PAGE_SIZE;

        let mut out = [VirtAddr(0); 16];
        // Double-sided: exactly the pair.
        let pair = strategy_aggressors(
            &m,
            pid,
            HammerStrategy::DoubleSided,
            base,
            pages,
            above,
            below,
            stride,
            &mut out,
        );
        assert_eq!(pair, [above, below]);

        // Many-sided: the pair first, then decoys that are *physically*
        // in the pair's bank on distinct rows — never the victim row.
        let many = strategy_aggressors(
            &m,
            pid,
            HammerStrategy::ManySided { rows: 6 },
            base,
            pages,
            above,
            below,
            stride,
            &mut out,
        )
        .to_vec();
        assert_eq!(many.len(), 6);
        assert_eq!(many[0], above);
        assert_eq!(many[1], below);
        let anchor = coord_of(&m, pid, above);
        let victim_row = (anchor.row + coord_of(&m, pid, below).row) / 2;
        let mut rows_seen = std::collections::HashSet::new();
        for &va in &many {
            assert!(va.0 >= base.0 && va.0 < base.0 + pages * PAGE_SIZE);
            let c = coord_of(&m, pid, va);
            assert_eq!(
                (c.channel, c.rank, c.bank),
                (anchor.channel, anchor.rank, anchor.bank)
            );
            assert_ne!(c.row, victim_row, "decoy would refresh the victim row");
            assert!(rows_seen.insert(c.row), "duplicate aggressor row");
        }
        // The verified set is accepted by the hammer primitive as-is.
        assert!(m.hammer_rows_virt(pid, &many, 4).is_ok());

        // A tiny buffer clips the fan-out but still returns the pair.
        let small_pages = 5 * stride;
        let edge_above = base + stride * PAGE_SIZE;
        let edge_below = base + 3 * stride * PAGE_SIZE;
        let clipped = strategy_aggressors(
            &m,
            pid,
            HammerStrategy::ManySided { rows: 16 },
            base,
            small_pages,
            edge_above,
            edge_below,
            stride,
            &mut out,
        );
        assert!(clipped.len() >= 2);
        for va in clipped {
            assert!(va.0 >= base.0 && va.0 < base.0 + small_pages * PAGE_SIZE);
        }

        // Any width, however absurd, needs no more room than the buffer
        // can fill: the pair plus one decoy per stride step on each side.
        let clipped = clipped.to_vec();
        let absurd = HammerStrategy::ManySided { rows: u32::MAX };
        let capacity = set_capacity(absurd, small_pages, stride);
        assert_eq!(capacity, 2 + 2 * 5);
        let mut room = vec![VirtAddr(0); capacity];
        let widest = strategy_aggressors(
            &m,
            pid,
            absurd,
            base,
            small_pages,
            edge_above,
            edge_below,
            stride,
            &mut room,
        );
        assert_eq!(widest, clipped);
    }

    #[test]
    fn fragmented_buffer_decoys_are_physically_verified() {
        // The Snippet-1 FIXME class: once the page frame cache has shuffled
        // frames, contiguous VAs map to non-contiguous PFNs and VA-stride
        // arithmetic no longer equals physical-row arithmetic. The fan-out
        // must re-translate every candidate instead of trusting the stride.
        use crate::config::HammerStrategy;
        let mut m = SimMachine::new(MachineConfig::small(4));
        let shuffler = m.spawn(CpuId(0));
        let spages = 512u64;
        let sva = m.mmap(shuffler, spages).unwrap();
        m.fill(shuffler, sva, spages * PAGE_SIZE, 0).unwrap();
        // Free every other page: the pcp hands them back LIFO, inverting
        // and interleaving physical adjacency for the next mapping.
        for i in (0..spages).step_by(2) {
            m.munmap(shuffler, sva + i * PAGE_SIZE, 1).unwrap();
        }
        let pid = m.spawn(CpuId(0));
        let pages = 512u64;
        let base = m.mmap(pid, pages).unwrap();
        m.fill(pid, base, pages * PAGE_SIZE, 0).unwrap();

        // Premise: the buffer really is physically non-contiguous.
        let discontinuities = (0..pages - 1)
            .filter(|&i| {
                let here = m.translate(pid, base + i * PAGE_SIZE).unwrap().as_u64();
                let next = m
                    .translate(pid, base + (i + 1) * PAGE_SIZE)
                    .unwrap()
                    .as_u64();
                next != here + PAGE_SIZE
            })
            .count();
        assert!(
            discontinuities > 0,
            "buffer came out contiguous; premise lost"
        );

        // Sweep victim positions the way template_scan does and check every
        // many-sided set the fan-out produces.
        let geometry = m.config().dram.geometry;
        let row_pages = (u64::from(geometry.row_bytes) / PAGE_SIZE).max(1);
        let stride = same_bank_stride_pages(&geometry);
        let mut verified_fanouts = 0u32;
        let mut victim_start = stride;
        while victim_start + row_pages + stride <= pages {
            let above = base + (victim_start - stride) * PAGE_SIZE;
            let below = base + (victim_start + stride) * PAGE_SIZE;
            let mut out = [VirtAddr(0); 8];
            let rows = strategy_aggressors(
                &m,
                pid,
                HammerStrategy::ManySided { rows: 8 },
                base,
                pages,
                above,
                below,
                stride,
                &mut out,
            );
            let ca = coord_of(&m, pid, above);
            let cb = coord_of(&m, pid, below);
            let pair_same_bank = (ca.channel, ca.rank, ca.bank) == (cb.channel, cb.rank, cb.bank);
            if pair_same_bank && ca.row != cb.row {
                let mut seen = std::collections::HashSet::new();
                for &va in rows {
                    let c = coord_of(&m, pid, va);
                    assert_eq!(
                        (c.channel, c.rank, c.bank),
                        (ca.channel, ca.rank, ca.bank),
                        "decoy left the pair's bank despite fragmentation"
                    );
                    assert!(seen.insert(c.row), "duplicate aggressor row");
                }
                // Physically-verified sets are always accepted.
                assert!(m.hammer_rows_virt(pid, rows, 4).is_ok());
                if rows.len() > 2 {
                    verified_fanouts += 1;
                }
            }
            victim_start += row_pages;
        }
        assert!(
            verified_fanouts > 0,
            "fragmented sweep never produced a verified many-sided set"
        );
    }

    #[test]
    fn memoized_template_runs_match_uncached() {
        use crate::{ExplFrame, ExplFrameConfig};

        let config = ExplFrameConfig::small_demo(2).with_template_pages(512);
        let warm = SimMachine::new(config.machine.clone()).snapshot();
        let baseline = ExplFrame::new(config.clone()).run_snapshot(&warm).unwrap();

        let mut memo = TemplateMemo::new();
        let first = ExplFrame::new(config.clone())
            .run_snapshot_memo(&warm, &mut memo)
            .unwrap();
        let second = ExplFrame::new(config.clone())
            .run_snapshot_memo(&warm, &mut memo)
            .unwrap();
        assert_eq!(first, baseline, "uncached-path trial diverged");
        assert_eq!(second, baseline, "memo-hit trial diverged");
        assert_eq!((memo.misses(), memo.hits(), memo.len()), (1, 1, 1));

        // A different seed over the same machine reuses the cached sweep
        // (the sweep never reads the attacker RNG)...
        let reseeded = ExplFrameConfig::small_demo(9).with_template_pages(512);
        let _ = ExplFrame::new(reseeded)
            .run_snapshot_memo(&warm, &mut memo)
            .unwrap();
        assert_eq!((memo.hits(), memo.len()), (2, 1));

        // ...but different scan parameters miss and cache a new entry.
        let wider = config.with_template_pages(640);
        let wide = ExplFrame::new(wider.clone())
            .run_snapshot_memo(&warm, &mut memo)
            .unwrap();
        assert_eq!((memo.misses(), memo.len()), (2, 2));
        assert_eq!(wide, ExplFrame::new(wider).run_snapshot(&warm).unwrap());
    }

    #[test]
    fn memo_rejects_a_diverged_machine_state() {
        use crate::{ExplFrame, ExplFrameConfig};

        let config = ExplFrameConfig::small_demo(3).with_template_pages(512);
        let warm = SimMachine::new(config.machine.clone()).snapshot();
        let mut memo = TemplateMemo::new();
        let _ = ExplFrame::new(config.clone())
            .run_snapshot_memo(&warm, &mut memo)
            .unwrap();

        // Same parameters, different pre-state: the entry must not be
        // served (a stale hit would replay the wrong machine).
        let mut drifted = warm.fork();
        drifted.advance(1);
        let shifted = drifted.snapshot();
        let a = ExplFrame::new(config.clone())
            .run_snapshot_memo(&shifted, &mut memo)
            .unwrap();
        assert_eq!(memo.misses(), 2, "diverged pre-state must miss");
        assert_eq!(a, ExplFrame::new(config).run_snapshot(&shifted).unwrap());
    }

    #[test]
    fn tiny_buffer_yields_empty_scan() {
        let (_, _, _, scan) = scan_small(8, 8, 1000);
        assert!(scan.templates.is_empty());
        assert_eq!(scan.rows_hammered, 0);
    }

    #[test]
    fn insufficient_hammering_finds_nothing() {
        let (_, _, _, scan) = scan_small(5, 1024, 500);
        assert!(scan.templates.is_empty());
    }

    /// [`harvest_page`] against its byte-wise oracle
    /// [`harvest_page_reference`]: two forks of one machine harvest every
    /// page of a buffer carrying random flips, one through each path, and
    /// must end with equal scans (template order included), casualty
    /// counts, machine/DRAM/ECC counters, clocks and full snapshots.
    mod harvest_equivalence {
        use std::sync::OnceLock;

        use super::*;
        use dram::{DramCoord, EccMode, PhysAddr};
        use proptest::prelude::*;

        /// Buffer pages harvested per case.
        const PAGES: u64 = 8;

        /// Aggressor addresses the harvested templates record.
        const ABOVE: VirtAddr = VirtAddr(0x1000);
        const BELOW: VirtAddr = VirtAddr(0x3000);

        /// A machine whose attacker buffer holds the fill `pattern`.
        struct Scene {
            snapshot: MachineSnapshot,
            pid: Pid,
            base: VirtAddr,
            pattern: u8,
        }

        fn filled(config: MachineConfig, pattern: u8) -> (SimMachine, Pid, VirtAddr) {
            let mut m = SimMachine::new(config);
            let pid = m.spawn(CpuId(0));
            let base = m.mmap(pid, PAGES).unwrap();
            m.fill(pid, base, PAGES * PAGE_SIZE, pattern).unwrap();
            (m, pid, base)
        }

        fn scene((m, pid, base): (SimMachine, Pid, VirtAddr), pattern: u8) -> Scene {
            Scene {
                snapshot: m.snapshot(),
                pid,
                base,
                pattern,
            }
        }

        /// Shadow translation, no ECC: every read is raw.
        fn plain(pattern: u8) -> Scene {
            scene(filled(MachineConfig::small(41), pattern), pattern)
        }

        /// SECDED with a latent single-bit fault in a buffer page: a weak
        /// cell the pattern charges, hammered once past its threshold, so
        /// reads of the page go through correction.
        fn latent_ecc(pattern: u8) -> Scene {
            for seed in 0..200u64 {
                let mut config = MachineConfig::small(seed);
                config.dram = config.dram.with_ecc(EccMode::Secded);
                let rows = config.dram.geometry.rows;
                let (mut m, pid, base) = filled(config, pattern);
                let frames: Vec<PhysAddr> = (0..PAGES)
                    .map(|p| m.translate(pid, base + p * PAGE_SIZE).unwrap())
                    .collect();
                for &frame in &frames {
                    let coord = m.dram().mapping().phys_to_coord(frame);
                    if coord.row < 1 || coord.row + 1 >= rows {
                        continue;
                    }
                    let cols = coord.col..coord.col + PAGE_SIZE as u32;
                    let charged = |bit: u32| pattern & (1 << (bit % 8)) != 0;
                    let Some(cell) = m
                        .dram()
                        .weak_cells_at(frame)
                        .iter()
                        .find(|c| {
                            cols.contains(&(c.bit_in_row / 8))
                                && charged(c.bit_in_row) == c.polarity.charged_value()
                        })
                        .copied()
                    else {
                        continue;
                    };
                    let aggressor = |row| {
                        m.dram().mapping().coord_to_phys(DramCoord {
                            row,
                            col: 0,
                            ..coord
                        })
                    };
                    let (above, below) = (aggressor(coord.row - 1), aggressor(coord.row + 1));
                    let before = m.dram().flips().len();
                    m.dram_mut()
                        .hammer_rows(&[above, below], cell.threshold_acts() + 16)
                        .unwrap();
                    let in_buffer = m.dram().flips()[before..]
                        .iter()
                        .any(|f| frames.contains(&f.addr.align_down(PAGE_SIZE)));
                    if in_buffer && !m.dram().reads_are_raw() {
                        return scene((m, pid, base), pattern);
                    }
                }
            }
            panic!("no seed in 0..200 put a latent fault in the buffer");
        }

        /// DRAM-resident page tables with three buffer pages remapped by a
        /// corrupted leaf PTE: page 1 onto a foreign frame of structured
        /// bytes, page 2 onto a foreign uniform frame, page 3 outside DRAM.
        fn walk_remapped(pattern: u8) -> Scene {
            let config = MachineConfig::small(43).with_dram_page_tables(true);
            let (mut m, pid, base) = filled(config, pattern);
            let other = m.spawn(CpuId(0));
            let foreign = m.mmap(other, 2).unwrap();
            let bytes: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 37 + 11) as u8).collect();
            m.write(other, foreign, &bytes).unwrap();
            m.fill(other, foreign + PAGE_SIZE, PAGE_SIZE, 0x5A).unwrap();
            let structured = m.translate(other, foreign).unwrap().as_u64();
            let uniform = m.translate(other, foreign + PAGE_SIZE).unwrap().as_u64();
            let mut remap = |page: u64, to: u64| {
                let va = base + page * PAGE_SIZE;
                let from = m.translate(pid, va).unwrap().as_u64();
                let slot = m.pte_phys(pid, va).unwrap();
                let mut pte = [0u8; 8];
                m.dram().copy_raw(slot, &mut pte);
                let pte = u64::from_le_bytes(pte) ^ (from ^ to);
                m.dram_mut().write(slot, &pte.to_le_bytes());
            };
            remap(1, structured);
            remap(2, uniform);
            remap(3, 1 << 40);
            m.flush_tlb();
            scene((m, pid, base), pattern)
        }

        /// A corruption of one buffer page, written straight into DRAM.
        #[derive(Debug, Clone, Copy)]
        enum Corrupt {
            /// Flip one bit of one byte.
            Bit { page: u64, offset: u64, bit: u8 },
            /// Refill the whole page with another byte (a uniform chunk).
            Page { page: u64, byte: u8 },
        }

        fn corrupt() -> impl Strategy<Value = Corrupt> {
            prop_oneof![
                (0..PAGES, 0..PAGE_SIZE, 0u8..8).prop_map(|(page, offset, bit)| Corrupt::Bit {
                    page,
                    offset,
                    bit
                }),
                (0..PAGES, any::<u8>()).prop_map(|(page, byte)| Corrupt::Page { page, byte }),
            ]
        }

        /// Mostly single-bit flips, clustered on one or two pages by the
        /// small page range, with the occasional whole-page refill.
        fn corruptions() -> impl Strategy<Value = Vec<Corrupt>> {
            prop::collection::vec(corrupt(), 0..24)
        }

        fn apply(m: &mut SimMachine, scene: &Scene, op: Corrupt) {
            let frame = |m: &SimMachine, page: u64| {
                m.translate(scene.pid, scene.base + page * PAGE_SIZE)
                    .unwrap()
            };
            match op {
                Corrupt::Bit { page, offset, bit } => {
                    let at = frame(m, page) + offset;
                    let mut byte = [0u8];
                    m.dram().copy_raw(at, &mut byte);
                    m.dram_mut().write_byte(at, byte[0] ^ (1 << bit));
                }
                Corrupt::Page { page, byte } => {
                    let at = frame(m, page);
                    m.dram_mut().fill(at, PAGE_SIZE, byte);
                }
            }
        }

        /// Corrupts two forks of `scene` alike, harvests every page on one
        /// through [`harvest_page`] and on the other through the oracle.
        fn check(scene: &Scene, ops: &[Corrupt]) -> Result<(), TestCaseError> {
            let mut fast = scene.snapshot.fork();
            let mut slow = scene.snapshot.fork();
            for &op in ops {
                apply(&mut fast, scene, op);
                apply(&mut slow, scene, op);
            }
            let (mut fast_scan, mut slow_scan) = (TemplateScan::default(), TemplateScan::default());
            for page in 0..PAGES {
                let (pid, base, pattern) = (scene.pid, scene.base, scene.pattern);
                let f = harvest_page(
                    &mut fast,
                    pid,
                    base,
                    page,
                    pattern,
                    ABOVE,
                    BELOW,
                    &mut fast_scan,
                );
                let s = harvest_page_reference(
                    &mut slow,
                    pid,
                    base,
                    page,
                    pattern,
                    ABOVE,
                    BELOW,
                    &mut slow_scan,
                );
                prop_assert_eq!(f, s, "page {}", page);
            }
            prop_assert_eq!(&fast_scan, &slow_scan);
            prop_assert_eq!(
                fast_scan.translation_casualties,
                slow_scan.translation_casualties
            );
            prop_assert_eq!(fast.stats(), slow.stats());
            prop_assert_eq!(fast.dram().stats(), slow.dram().stats());
            prop_assert_eq!(fast.dram().ecc_stats(), slow.dram().ecc_stats());
            prop_assert_eq!(fast.now(), slow.now());
            prop_assert!(fast.snapshot() == slow.snapshot(), "snapshots diverged");
            Ok(())
        }

        /// One scene per fill pattern, built once per test binary.
        fn pick(
            scenes: &'static OnceLock<[Scene; 2]>,
            build: fn(u8) -> Scene,
            ones: bool,
        ) -> &'static Scene {
            let [ff, zero] = scenes.get_or_init(|| [build(0xFF), build(0x00)]);
            if ones {
                ff
            } else {
                zero
            }
        }

        /// The scenes reach the paths the properties are about: a latent
        /// fault keeps reads filtered, and the remapped walk pages are two
        /// casualties (one answered from a uniform chunk) and one fault.
        #[test]
        fn scenes_reach_filtered_reads_casualties_and_faults() {
            for ones in [true, false] {
                static ECC: OnceLock<[Scene; 2]> = OnceLock::new();
                let ecc = pick(&ECC, latent_ecc, ones);
                assert!(!ecc.snapshot.fork().dram().reads_are_raw());

                static WALK: OnceLock<[Scene; 2]> = OnceLock::new();
                let walk = pick(&WALK, walk_remapped, ones);
                let mut m = walk.snapshot.fork();
                let mut scan = TemplateScan::default();
                let outcomes: Vec<bool> = (0..PAGES)
                    .map(|page| {
                        harvest_page(
                            &mut m,
                            walk.pid,
                            walk.base,
                            page,
                            walk.pattern,
                            ABOVE,
                            BELOW,
                            &mut scan,
                        )
                        .is_ok()
                    })
                    .collect();
                assert_eq!(scan.translation_casualties, 2);
                assert!(scan.templates.is_empty());
                assert_eq!(outcomes.iter().filter(|ok| !**ok).count(), 1);
                assert!(!outcomes[3], "page 3 decodes outside DRAM");
            }
        }

        proptest! {
            #[test]
            fn harvest_matches_the_byte_loop_on_raw_reads(ones in any::<bool>(), ops in corruptions()) {
                static SCENES: OnceLock<[Scene; 2]> = OnceLock::new();
                check(pick(&SCENES, plain, ones), &ops)?;
            }

            #[test]
            fn harvest_matches_the_byte_loop_over_a_latent_ecc_fault(ones in any::<bool>(), ops in corruptions()) {
                static SCENES: OnceLock<[Scene; 2]> = OnceLock::new();
                check(pick(&SCENES, latent_ecc, ones), &ops)?;
            }

            #[test]
            fn harvest_matches_the_byte_loop_on_remapped_walk_pages(ones in any::<bool>(), ops in corruptions()) {
                static SCENES: OnceLock<[Scene; 2]> = OnceLock::new();
                check(pick(&SCENES, walk_remapped, ones), &ops)?;
            }
        }
    }
}
