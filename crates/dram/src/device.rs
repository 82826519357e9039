//! The DRAM device: data plane, activation plane and Rowhammer physics.

use std::sync::Arc;

use crate::bank::{BankState, Refresh};
use crate::cells::{
    CellPolarity, WeakCell, WeakCellMap, WeakCellParams, DIST_UNITS_FAR, DIST_UNITS_NEAR,
};
use crate::divisor::Divisor;
use crate::ecc::{decode_secded, EccMode, EccStats, EccTracker, SecdedDecode};
use crate::error::DramError;
use crate::geometry::{DramCoord, DramGeometry, PhysAddr};
use crate::mapping::{AddressMapping, MappingKind};
use crate::sparse::{ChunkView, SparseMemory, CHUNK};
use crate::stats::DramStats;
use crate::timing::{
    CommandClock, DramTiming, Nanos, ParaEngine, ParaParams, RfmEngine, RfmParams,
};
use crate::trr::{Burst, TrrEngine, TrrParams};

/// Bytes per ECC code word.
const ECC_WORD: u64 = 8;

/// Disturbance units one `ACT` sends to the row at each signed distance
/// from the activated row.
const NEIGHBOUR_UNITS: [(i64, u64); 4] = [
    (-2, DIST_UNITS_FAR as u64),
    (-1, DIST_UNITS_NEAR as u64),
    (1, DIST_UNITS_NEAR as u64),
    (2, DIST_UNITS_FAR as u64),
];

/// Aggressor sets up to this many rows keep their row and victim lists on
/// the stack.
const INLINE_ROWS: usize = 8;

/// Complete configuration of a [`DramDevice`].
///
/// Countermeasures default to off, so a plain config models the
/// unmitigated module the paper attacks; enabling them is two builder
/// calls.
///
/// # Examples
///
/// ```
/// use dram::{DramConfig, WeakCellParams};
/// let cfg = DramConfig::small().with_seed(99).with_cells(WeakCellParams::flippy());
/// assert_eq!(cfg.seed, 99);
/// ```
///
/// A countermeasure-hardened module — in-DRAM Target Row Refresh plus
/// SECDED ECC:
///
/// ```
/// use dram::{DramConfig, DramDevice, EccMode, TrrParams};
/// let cfg = DramConfig::small()
///     .with_trr(Some(TrrParams::ddr4_like().with_sampler_size(8)))
///     .with_ecc(EccMode::Secded);
/// let dev = DramDevice::new(cfg);
/// assert_eq!(dev.trr_triggers(), 0);
/// assert_eq!(dev.ecc_stats().corrected, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Physical organisation.
    pub geometry: DramGeometry,
    /// Address scrambling scheme.
    pub mapping: MappingKind,
    /// Timing / refresh parameters.
    pub timing: DramTiming,
    /// Weak-cell population parameters.
    pub cells: WeakCellParams,
    /// Seed for the weak-cell population.
    pub seed: u64,
    /// Target-Row-Refresh mitigation; `None` models an unmitigated module.
    pub trr: Option<TrrParams>,
    /// ECC scheme; [`EccMode::Off`] models a non-ECC DIMM.
    pub ecc: EccMode,
    /// Forces the reference kernels: the scalar per-cell crossing loop
    /// instead of the bitsliced masks, and the literal chunk walk for the
    /// whole of every bulk-hammer burst instead of the event kernel. Both
    /// sides produce byte-identical flips, times, stats, command clock and
    /// state (the bitsliced masks also `debug_assert!` against the scalar
    /// loop); this switch exists so equivalence tests can run both.
    pub reference_kernels: bool,
    /// Runs the cycle-approximate [`CommandClock`] alongside the data
    /// plane: every ACT/PRE/RD is scheduled under tRC/tRAS/tRP/tFAW and
    /// REF commands retire on the tREFI schedule. Off by default; with no
    /// time-domain countermeasure armed the engine is observation-only
    /// (identical latencies, flips and elapsed time — it asserts so).
    pub timed: bool,
    /// PARA probabilistic neighbour refresh. Requires [`Self::timed`].
    pub para: Option<ParaParams>,
    /// DDR5-style Refresh Management. Requires [`Self::timed`].
    pub rfm: Option<RfmParams>,
}

impl DramConfig {
    /// 256 MiB device with a flippy cell population — fast tests and demos.
    pub fn small() -> Self {
        DramConfig {
            geometry: DramGeometry::small_256mib(),
            mapping: MappingKind::Linear,
            timing: DramTiming::ddr3_1600(),
            cells: WeakCellParams::flippy(),
            seed: 0xE49F_1A7E,
            trr: None,
            ecc: EccMode::Off,
            reference_kernels: false,
            timed: false,
            para: None,
            rfm: None,
        }
    }

    /// 1 GiB device with a moderate cell population — paper-scale runs.
    pub fn medium_1gib() -> Self {
        DramConfig {
            geometry: DramGeometry::medium_1gib(),
            cells: WeakCellParams::moderate(),
            ..Self::small()
        }
    }

    /// 4 GiB desktop device with a moderate cell population.
    pub fn desktop_4gib() -> Self {
        DramConfig {
            geometry: DramGeometry::desktop_4gib(),
            cells: WeakCellParams::moderate(),
            ..Self::small()
        }
    }

    /// Returns a copy with a different weak-cell seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with different weak-cell parameters.
    pub fn with_cells(mut self, cells: WeakCellParams) -> Self {
        self.cells = cells;
        self
    }

    /// Returns a copy with a different address mapping.
    pub fn with_mapping(mut self, mapping: MappingKind) -> Self {
        self.mapping = mapping;
        self
    }

    /// Returns a copy with different timing parameters.
    pub fn with_timing(mut self, timing: DramTiming) -> Self {
        self.timing = timing;
        self
    }

    /// Returns a copy with a different Target-Row-Refresh setting.
    pub fn with_trr(mut self, trr: Option<TrrParams>) -> Self {
        self.trr = trr;
        self
    }

    /// Returns a copy with a different ECC mode.
    pub fn with_ecc(mut self, ecc: EccMode) -> Self {
        self.ecc = ecc;
        self
    }

    /// Returns a copy pinned to the scalar reference kernels.
    pub fn with_reference_kernels(mut self, reference: bool) -> Self {
        self.reference_kernels = reference;
        self
    }

    /// Returns a copy with the cycle-approximate command clock enabled or
    /// disabled.
    pub fn with_timing_engine(mut self, timed: bool) -> Self {
        self.timed = timed;
        self
    }

    /// Returns a copy with PARA configured (implies nothing about
    /// [`Self::timed`]; the device asserts the engine is on at build time).
    pub fn with_para(mut self, para: Option<ParaParams>) -> Self {
        self.para = para;
        self
    }

    /// Returns a copy with RFM configured (implies nothing about
    /// [`Self::timed`]; the device asserts the engine is on at build time).
    pub fn with_rfm(mut self, rfm: Option<RfmParams>) -> Self {
        self.rfm = rfm;
        self
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::desktop_4gib()
    }
}

/// A bit flip induced by disturbance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlipEvent {
    /// Physical byte address containing the flipped bit.
    pub addr: PhysAddr,
    /// Bit index within the byte (0 = LSB).
    pub bit: u8,
    /// Decoded DRAM location (`col` is the byte within the row).
    pub coord: DramCoord,
    /// Cell orientation; determines flip direction.
    pub polarity: CellPolarity,
    /// Simulated time of the flip.
    pub time: Nanos,
}

impl FlipEvent {
    /// The value the bit held before the flip.
    pub const fn before(&self) -> bool {
        self.polarity.charged_value()
    }

    /// The value the bit holds after the flip.
    pub const fn after(&self) -> bool {
        self.polarity.discharged_value()
    }
}

/// How one 4 KiB page read back differs from the byte pattern it was
/// filled with ([`DramDevice::read_diff`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageDiff {
    /// Every byte differs from the pattern by this xor (`0`: the page is
    /// clean). Nothing was appended to the caller's list.
    Uniform(u8),
    /// Each differing byte was appended to the caller's list as
    /// `(offset, xor)`, in offset order (possibly none).
    Listed,
}

/// Appends `(offset, xor)` for every byte of `page` that differs from
/// `pattern`, in offset order, comparing a 64-bit word at a time.
fn diff_words(page: &[u8; CHUNK], pattern: u8, out: &mut Vec<(u16, u8)>) {
    let splat = u64::from_le_bytes([pattern; 8]);
    for (w, word) in page.chunks_exact(8).enumerate() {
        let mut xor = u64::from_le_bytes(word.try_into().expect("8-byte word")) ^ splat;
        while xor != 0 {
            let byte = xor.trailing_zeros() / 8;
            out.push(((w * 8) as u16 + byte as u16, (xor >> (byte * 8)) as u8));
            xor &= !(0xFF << (byte * 8));
        }
    }
}

/// Result of a bulk hammer operation. The flips it induced are the tail
/// of [`DramDevice::flips`] past its length before the call.
#[derive(Debug, Clone, Default)]
pub struct HammerOutcome {
    /// ACT commands issued.
    pub acts: u64,
    /// Simulated time consumed.
    pub elapsed: Nanos,
}

/// A simulated DRAM device.
///
/// Owns the data array, per-bank row buffers, the weak-cell population and
/// the simulated clock. All mutation is through `&mut self`; the device is
/// deterministic given its [`DramConfig`].
///
/// A clone is a snapshot and a fork at once: it replays byte-identically
/// to the device it came from, and each side diverges only as it is
/// mutated. Clones are cheap. Data chunks are `Arc`-shared copy-on-write,
/// and the address mapping (a pure function of the config) and the
/// weak-cell memo are shared outright, so rows either side generates later
/// serve both.
///
/// # Examples
///
/// ```
/// use dram::{DramConfig, DramDevice, PhysAddr};
/// let mut dev = DramDevice::new(DramConfig::small());
/// dev.write(PhysAddr::new(0x1000), b"warm");
/// let snap = dev.clone();
/// dev.write(PhysAddr::new(0x1000), b"cold");
/// assert_ne!(dev, snap);
/// dev.clone_from(&snap);
/// assert_eq!(dev, snap);
/// let mut buf = [0u8; 4];
/// dev.read(PhysAddr::new(0x1000), &mut buf);
/// assert_eq!(&buf, b"warm");
/// ```
#[derive(Debug)]
pub struct DramDevice {
    config: DramConfig,
    mapping: Arc<dyn AddressMapping>,
    /// The refresh schedule, a function of the config's timing.
    refresh: Refresh,
    banks: Vec<BankState>,
    mem: SparseMemory,
    cells: WeakCellMap,
    stats: DramStats,
    flip_log: Vec<FlipEvent>,
    now: Nanos,
    trr: Option<TrrEngine>,
    ecc: Option<EccTracker>,
    clock: Option<CommandClock>,
    para: Option<ParaEngine>,
    rfm: Option<RfmEngine>,
    /// Hammer rounds served by an analytic path instead of the chunked
    /// walk. Diagnostic only: it is not device state, so equality ignores
    /// it.
    analytic_rounds: u64,
    /// The burst kernel's flip list, kept between calls.
    kernel_flips: KernelFlips,
}

/// `clone_from` (the restore path) hands every field its own `clone_from`,
/// so the chunk and bank row tables re-point only what differs and the
/// bank and flip-log allocations are reused.
impl Clone for DramDevice {
    fn clone(&self) -> Self {
        DramDevice {
            config: self.config,
            mapping: Arc::clone(&self.mapping),
            refresh: self.refresh,
            banks: self.banks.clone(),
            mem: self.mem.clone(),
            cells: self.cells.clone(),
            stats: self.stats,
            flip_log: self.flip_log.clone(),
            now: self.now,
            trr: self.trr.clone(),
            ecc: self.ecc.clone(),
            clock: self.clock.clone(),
            para: self.para.clone(),
            rfm: self.rfm.clone(),
            analytic_rounds: self.analytic_rounds,
            kernel_flips: self.kernel_flips.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let DramDevice {
            config,
            mapping,
            refresh,
            banks,
            mem,
            cells,
            stats,
            flip_log,
            now,
            trr,
            ecc,
            clock,
            para,
            rfm,
            analytic_rounds,
            kernel_flips: _,
        } = self;
        *config = source.config;
        mapping.clone_from(&source.mapping);
        *refresh = source.refresh;
        banks.clone_from(&source.banks);
        mem.clone_from(&source.mem);
        cells.clone_from(&source.cells);
        *stats = source.stats;
        flip_log.clone_from(&source.flip_log);
        *now = source.now;
        trr.clone_from(&source.trr);
        ecc.clone_from(&source.ecc);
        clock.clone_from(&source.clock);
        para.clone_from(&source.para);
        rfm.clone_from(&source.rfm);
        *analytic_rounds = source.analytic_rounds;
    }
}

/// Two devices are equal when their state is: data, banks, flip log,
/// clock, stats and every countermeasure engine. The mapping and the
/// refresh schedule follow from the config, the weak-cell memo only
/// records which rows were queried, and `analytic_rounds` and the kernel's
/// scratch list are not state.
impl PartialEq for DramDevice {
    fn eq(&self, other: &Self) -> bool {
        let DramDevice {
            config,
            mapping: _,
            refresh: _,
            banks,
            mem,
            cells,
            stats,
            flip_log,
            now,
            trr,
            ecc,
            clock,
            para,
            rfm,
            analytic_rounds: _,
            kernel_flips: _,
        } = self;
        *config == other.config
            && *now == other.now
            && *stats == other.stats
            && *banks == other.banks
            && *cells == other.cells
            && *trr == other.trr
            && *ecc == other.ecc
            && *clock == other.clock
            && *para == other.para
            && *rfm == other.rfm
            && *flip_log == other.flip_log
            && *mem == other.mem
    }
}

/// The first crossings one [`DramDevice::burst_kernel`] call found, as
/// `(chunk start, victim, cell index, cell)`. The list is empty between
/// calls and kept only for its capacity, so a burst allocates nothing once
/// it has grown. It is not device state: a clone starts it empty, and
/// equality and `Debug` leave it out.
#[derive(Default)]
struct KernelFlips(Vec<(u64, usize, usize, WeakCell)>);

impl Clone for KernelFlips {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl std::fmt::Debug for KernelFlips {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("KernelFlips")
    }
}

/// Seed perturbation separating the PARA sampler's stream from the
/// weak-cell population drawn from the same device seed.
const PARA_SALT: u64 = 0x70AB_A4A5_11D0_3C77;

impl DramDevice {
    /// Builds a device from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (non-power-of-two dimensions), the
    /// cell density is out of range, or the refresh window is zero.
    pub fn new(config: DramConfig) -> Self {
        let mapping = config.mapping.build(config.geometry).into();
        let banks =
            vec![BankState::new(config.geometry.rows); config.geometry.total_banks() as usize];
        let mem = SparseMemory::new(config.geometry.capacity_bytes());
        let cells = WeakCellMap::new(
            config.seed,
            config.cells,
            config.geometry.row_bytes * 8,
            config.geometry.total_rows(),
        );
        let trr = config
            .trr
            .map(|p| TrrEngine::new(p, config.geometry.total_banks() as usize));
        let ecc = match config.ecc {
            EccMode::Off => None,
            EccMode::Secded => Some(EccTracker::default()),
        };
        assert!(
            config.timed || (config.para.is_none() && config.rfm.is_none()),
            "PARA/RFM are time-domain countermeasures and require the timing engine"
        );
        let clock = config.timed.then(|| {
            assert!(
                config.timing.commands_consistent(),
                "timing engine requires t_ras + t_rp == t_rc and t_faw <= 3 * t_rc"
            );
            CommandClock::new(
                config.timing,
                config.geometry.channels * config.geometry.ranks,
                config.geometry.banks,
            )
        });
        let para = config
            .para
            .map(|p| ParaEngine::new(p, config.seed ^ PARA_SALT));
        let rfm = config
            .rfm
            .map(|p| RfmEngine::new(p, config.geometry.total_banks() as usize));
        DramDevice {
            config,
            mapping,
            refresh: Refresh::new(&config.timing),
            banks,
            mem,
            cells,
            stats: DramStats::default(),
            flip_log: Vec::new(),
            now: 0,
            trr,
            ecc,
            clock,
            para,
            rfm,
            analytic_rounds: 0,
            kernel_flips: KernelFlips::default(),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// The address mapping in use.
    pub fn mapping(&self) -> &dyn AddressMapping {
        self.mapping.as_ref()
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.config.geometry.capacity_bytes()
    }

    /// Current simulated time in nanoseconds.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Advances the simulated clock by `ns` (e.g. for CPU-side work).
    pub fn advance(&mut self, ns: Nanos) {
        self.now += ns;
        if let Some(clock) = &mut self.clock {
            clock.drain_refreshes(self.now);
        }
    }

    /// The same state under a different [`DramConfig::reference_kernels`]
    /// setting. The switch picks an implementation, not a state, so this is
    /// how a differential test compares a device against its reference
    /// twin in full, or moves one device's state onto the other kernels.
    #[must_use]
    pub fn with_reference_kernels(mut self, reference: bool) -> Self {
        self.config.reference_kernels = reference;
        self
    }

    /// Aggregate counters. REF, PARA and RFM counts are read from their
    /// engines.
    pub fn stats(&self) -> DramStats {
        DramStats {
            refs: self
                .clock
                .as_ref()
                .map_or(0, CommandClock::refresh_commands),
            para_refreshes: self.para_refreshes(),
            rfm_commands: self.rfm_commands(),
            ..self.stats
        }
    }

    /// Every flip induced so far, in order.
    pub fn flips(&self) -> &[FlipEvent] {
        &self.flip_log
    }

    /// ECC counters (all zero when [`DramConfig::ecc`] is
    /// [`EccMode::Off`]).
    pub fn ecc_stats(&self) -> EccStats {
        self.ecc.as_ref().map(EccTracker::stats).unwrap_or_default()
    }

    /// Words currently deviating from their stored check bits (latent
    /// faults awaiting correction, detection, or a scrubbing rewrite).
    pub fn ecc_faulty_words(&self) -> usize {
        self.ecc.as_ref().map_or(0, EccTracker::faulty_words)
    }

    /// Neighbour refreshes the Target-Row-Refresh engine has issued
    /// (0 when [`DramConfig::trr`] is `None`).
    pub fn trr_triggers(&self) -> u64 {
        self.trr.as_ref().map_or(0, TrrEngine::triggers)
    }

    /// The command clock, when [`DramConfig::timed`] is on. Exposed so
    /// differential tests can assert full command-schedule equality.
    pub fn command_clock(&self) -> Option<&CommandClock> {
        self.clock.as_ref()
    }

    /// Probabilistic neighbour refreshes PARA has issued (0 without PARA).
    pub fn para_refreshes(&self) -> u64 {
        self.para.as_ref().map_or(0, ParaEngine::refreshes)
    }

    /// RFM commands the refresh-management engine has issued (0 without
    /// RFM).
    pub fn rfm_commands(&self) -> u64 {
        self.rfm.as_ref().map_or(0, RfmEngine::commands)
    }

    /// Bulk-hammer rounds this device served by the event kernel rather
    /// than by walking refresh and TRR boundaries. Counts from 0 when the
    /// device is built; a clone carries it on. Tests use it to prove an
    /// equivalence check actually exercised a fast path.
    pub fn analytic_rounds(&self) -> u64 {
        self.analytic_rounds
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Reads `buf.len()` bytes at `addr` (no activation accounting).
    ///
    /// Under [`EccMode::Secded`] single-bit errors in any overlapping
    /// word are corrected in `buf` (the stored cells stay wrong until
    /// rewritten) and double-bit errors pass through raw, counted in
    /// [`Self::ecc_stats`].
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds capacity.
    pub fn read(&mut self, addr: PhysAddr, buf: &mut [u8]) {
        self.stats.reads += 1;
        self.mem.read(addr, buf);
        self.ecc_filter(addr, buf);
    }

    /// Writes `data` at `addr` (no activation accounting).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds capacity.
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) {
        self.stats.writes += 1;
        self.ecc_scrub(addr, data.len() as u64);
        self.mem.write(addr, data);
    }

    /// Fills `len` bytes at `addr` with `value`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds capacity.
    pub fn fill(&mut self, addr: PhysAddr, len: u64, value: u8) {
        self.stats.writes += 1;
        self.ecc_scrub(addr, len);
        self.mem.fill(addr, len, value);
    }

    /// Reads one byte at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` exceeds capacity.
    pub fn read_byte(&mut self, addr: PhysAddr) -> u8 {
        self.stats.reads += 1;
        let mut buf = [self.mem.read_byte(addr)];
        self.ecc_filter(addr, &mut buf);
        buf[0]
    }

    /// `true` while [`Self::read`] and [`Self::read_byte`] return the stored
    /// bytes unchanged: no SECDED tracker, or one with no latent fault to
    /// correct. Only a flip (from an activation) or a write changes it.
    pub fn reads_are_raw(&self) -> bool {
        self.ecc.as_ref().map_or(true, EccTracker::is_clean)
    }

    /// The accounting half of [`Self::read_byte`]: counts `n` reads without
    /// probing the array, for a caller that serves the bytes from a
    /// [`Self::copy_raw`] copy taken while [`Self::reads_are_raw`] held.
    pub fn count_reads(&mut self, n: u64) {
        self.stats.reads += n;
    }

    /// Copies the stored bytes at `addr` into `buf` — no read counted, no
    /// SECDED filtering. Equal to what [`Self::read`] returns while
    /// [`Self::reads_are_raw`] holds.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds capacity.
    pub fn copy_raw(&self, addr: PhysAddr, buf: &mut [u8]) {
        self.mem.read(addr, buf);
    }

    /// [`Self::read`] of the 4 KiB page at `addr`, returned as its
    /// difference from `pattern` (listed into `out` unless the whole page
    /// differs uniformly). Counts one read, as `read` does. While
    /// [`Self::reads_are_raw`] holds it inspects the stored chunk in place:
    /// a uniform chunk answers in O(1), a patched one on `pattern` lists
    /// its patches, and any other is compared word by word. Otherwise the
    /// page is read through the SECDED filter (same corrections and
    /// counters as `read`) and the filtered bytes are diffed.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4 KiB-aligned or the page exceeds capacity.
    pub fn read_diff(&mut self, addr: PhysAddr, pattern: u8, out: &mut Vec<(u16, u8)>) -> PageDiff {
        assert_eq!(
            addr.as_u64() % CHUNK as u64,
            0,
            "read_diff needs a 4 KiB-aligned address"
        );
        if self.reads_are_raw() {
            self.count_reads(1);
            return match self.mem.chunk_view(addr) {
                ChunkView::Uniform(byte) => PageDiff::Uniform(byte ^ pattern),
                // Every byte off the patches holds the pattern.
                ChunkView::Patched { base, patches } if base == pattern => {
                    out.extend(patches.iter().map(|&(off, value)| (off, value ^ pattern)));
                    PageDiff::Listed
                }
                ChunkView::Patched { base, patches } => {
                    let mut page = [base; CHUNK];
                    for &(off, value) in patches {
                        page[usize::from(off)] = value;
                    }
                    diff_words(&page, pattern, out);
                    PageDiff::Listed
                }
                ChunkView::Bytes(page) => {
                    diff_words(page, pattern, out);
                    PageDiff::Listed
                }
            };
        }
        let mut page = [0u8; CHUNK];
        self.read(addr, &mut page);
        diff_words(&page, pattern, out);
        PageDiff::Listed
    }

    /// Writes one byte at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` exceeds capacity.
    pub fn write_byte(&mut self, addr: PhysAddr, value: u8) {
        self.stats.writes += 1;
        self.ecc_scrub(addr, 1);
        self.mem.write_byte(addr, value);
    }

    /// Loads the raw 64-bit word with index `word` (ECC-internal; bypasses
    /// correction).
    fn raw_word(&mut self, word: u64) -> u64 {
        let mut bytes = [0u8; ECC_WORD as usize];
        self.mem.read(PhysAddr::new(word * ECC_WORD), &mut bytes);
        u64::from_le_bytes(bytes)
    }

    /// Applies SECDED on the read path: corrects single-bit errors inside
    /// `buf`, counts detections. No-op without ECC or latent faults.
    fn ecc_filter(&mut self, addr: PhysAddr, buf: &mut [u8]) {
        if buf.is_empty() || self.reads_are_raw() {
            return;
        }
        let start = addr.as_u64();
        let end = start + buf.len() as u64;
        let tracked = self
            .ecc
            .as_ref()
            .expect("checked above")
            .tracked_in(start / ECC_WORD, (end - 1) / ECC_WORD);
        for (word, check) in tracked {
            let data = self.raw_word(word);
            let ecc = self.ecc.as_mut().expect("checked above");
            match decode_secded(data, check) {
                SecdedDecode::Clean => {}
                SecdedDecode::CorrectData(bit) => {
                    ecc.count_corrected();
                    let byte_addr = word * ECC_WORD + u64::from(bit / 8);
                    if byte_addr >= start && byte_addr < end {
                        buf[(byte_addr - start) as usize] ^= 1 << (bit % 8);
                    }
                }
                SecdedDecode::CorrectCheck => ecc.count_corrected(),
                SecdedDecode::Detected => ecc.count_detected(),
            }
        }
    }

    /// Models the controller's read-modify-write on the write path: every
    /// tracked word overlapping the range is corrected in place where
    /// possible and re-encoded (its latent fault is scrubbed). Runs before
    /// the write itself so fresh data lands on healed cells.
    fn ecc_scrub(&mut self, addr: PhysAddr, len: u64) {
        if len == 0 || !matches!(&self.ecc, Some(t) if !t.is_clean()) {
            return;
        }
        let start = addr.as_u64();
        let tracked = self
            .ecc
            .as_ref()
            .expect("checked above")
            .tracked_in(start / ECC_WORD, (start + len - 1) / ECC_WORD);
        for (word, check) in tracked {
            let data = self.raw_word(word);
            if let SecdedDecode::CorrectData(bit) = decode_secded(data, check) {
                let byte_addr = PhysAddr::new(word * ECC_WORD + u64::from(bit / 8));
                let byte = self.mem.read_byte(byte_addr);
                self.mem.write_byte(byte_addr, byte ^ (1 << (bit % 8)));
            }
            // Detected (double-bit) words cannot be healed: the rewrite
            // legitimises whatever lands there, as a real RMW of a
            // poisoned line would after the machine-check.
            self.ecc.as_mut().expect("checked above").clear_word(word);
        }
    }

    // ------------------------------------------------------------------
    // Activation plane
    // ------------------------------------------------------------------

    /// Performs a memory access at `addr` for timing and disturbance
    /// purposes: opens the row (issuing an `ACT` on a row-buffer miss, which
    /// disturbs neighbouring rows) and advances the clock. Returns the access
    /// latency.
    ///
    /// Call this for every access that reaches DRAM (i.e. cache misses); use
    /// [`Self::read`]/[`Self::write`] for the data itself.
    ///
    /// # Panics
    ///
    /// Panics if `addr` exceeds capacity.
    pub fn access(&mut self, addr: PhysAddr) -> Nanos {
        let coord = self.mapping.phys_to_coord(addr);
        let bank_idx = self
            .config
            .geometry
            .bank_index(coord.channel, coord.rank, coord.bank);
        let (clock_rank, clock_bank) = self.clock_coords(coord);
        let missed = self.banks[bank_idx].activate(coord.row);
        if missed {
            self.stats.acts += 1;
            let start = self.now;
            self.now += self.config.timing.t_rc;
            if let Some(clock) = &mut self.clock {
                let done = clock.miss_access(clock_rank, clock_bank, start);
                debug_assert_eq!(
                    done,
                    start + self.config.timing.t_rc,
                    "command clock stalled the sequential miss path"
                );
                clock.drain_refreshes(self.now);
            }
            // Activating a row restores its own cells' charge.
            self.banks[bank_idx].clear_disturbance(coord.row);
            self.disturb_neighbours(coord, 1);
            if let Some(trr) = &mut self.trr {
                if let Some(row) = trr.record_act(bank_idx, coord.row) {
                    let radius = self.config.trr.map_or(0, |p| p.radius);
                    self.refresh_neighbour_rows(bank_idx, DramCoord { row, ..coord }, radius);
                }
            }
            if self.para.is_some() {
                let mut hit = false;
                if let Some(para) = &mut self.para {
                    para.advance(1, |_| hit = true);
                }
                if hit {
                    self.refresh_neighbour_rows(bank_idx, coord, 1);
                }
            }
            let fired = self
                .rfm
                .as_mut()
                .and_then(|rfm| rfm.record_acts(bank_idx, &[coord.row], 1));
            if let Some(rows) = fired {
                let radius = self.config.rfm.map_or(0, |p| p.radius);
                for row in rows {
                    self.refresh_neighbour_rows(bank_idx, DramCoord { row, ..coord }, radius);
                }
            }
            self.config.timing.t_rc
        } else {
            self.stats.row_hits += 1;
            let start = self.now;
            self.now += self.config.timing.t_row_hit;
            if let Some(clock) = &mut self.clock {
                let issued = clock.column_read(clock_rank, clock_bank, start);
                debug_assert_eq!(issued, start, "command clock stalled a row-buffer hit");
                clock.drain_refreshes(self.now);
            }
            self.config.timing.t_row_hit
        }
    }

    /// The `(rank, bank)` pair the command clock schedules `coord` under:
    /// ranks are flattened across channels (each has its own tFAW window).
    fn clock_coords(&self, coord: DramCoord) -> (u32, u32) {
        (
            coord.channel * self.config.geometry.ranks + coord.rank,
            coord.bank,
        )
    }

    /// A countermeasure trigger (TRR, PARA or RFM): refresh the rows within
    /// `radius` of `aggressor`, restoring their leaked charge.
    fn refresh_neighbour_rows(&mut self, bank_idx: usize, aggressor: DramCoord, radius: u32) {
        let rows = self.config.geometry.rows;
        self.banks[bank_idx].refresh_around(aggressor.row, radius, rows);
    }

    /// Applies the disturbance of `acts` activations of `aggressor` to its
    /// neighbouring rows and collects any resulting flips.
    fn disturb_neighbours(&mut self, aggressor: DramCoord, acts: u64) {
        for (delta, units) in NEIGHBOUR_UNITS {
            if let Some(victim) = aggressor.neighbour_row(delta, &self.config.geometry) {
                self.disturb_row(victim, units * acts);
            }
        }
    }

    /// Adds `units` of disturbance to the row containing `victim` and flips
    /// any weak cells whose thresholds were crossed.
    fn disturb_row(&mut self, victim: DramCoord, units: u64) {
        let geometry = self.config.geometry;
        let bank_idx = geometry.bank_index(victim.channel, victim.rank, victim.bank);
        let delta =
            self.banks[bank_idx].add_disturbance(victim.row, units, self.now, &self.refresh);
        if delta.old_units == delta.new_units {
            return;
        }
        let row_id = geometry.global_row_id(victim);
        let row = self.cells.row_eval(row_id);
        if row.is_empty() || !row.may_cross(delta.old_units, delta.new_units) {
            return;
        }
        let mask = if self.config.reference_kernels {
            None
        } else {
            row.crossed_mask(delta.old_units, delta.new_units)
        };
        // `try_flip` needs the whole device, so each flipping cell is copied
        // out of the memo by a fresh lookup of its row.
        match mask {
            Some(mask) => {
                debug_assert_eq!(
                    mask,
                    row.crossed_mask_scalar(delta.old_units, delta.new_units),
                    "bitsliced crossing mask diverged from the per-cell oracle"
                );
                // `trailing_zeros` walks set bits in ascending cell index,
                // which is ascending `bit_in_row` — the same flip order the
                // scalar loop produces.
                let mut m = mask;
                while m != 0 {
                    let i = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let cell = self.cells.row_eval(row_id).cells()[i];
                    self.try_flip(victim, &cell, self.now);
                }
            }
            None => {
                for i in 0..row.cells().len() {
                    let cell = self.cells.row_eval(row_id).cells()[i];
                    if delta.old_units < cell.threshold_units
                        && cell.threshold_units <= delta.new_units
                    {
                        self.try_flip(victim, &cell, self.now);
                    }
                }
            }
        }
    }

    /// Attempts to flip `cell` in the row containing `victim` at `time` —
    /// succeeds only if the stored bit currently holds the cell's charged
    /// value.
    fn try_flip(&mut self, victim: DramCoord, cell: &WeakCell, time: Nanos) {
        let byte_in_row = cell.bit_in_row / 8;
        let bit = (cell.bit_in_row % 8) as u8;
        let coord = DramCoord {
            col: byte_in_row,
            ..victim
        };
        let addr = self.mapping.coord_to_phys(coord);
        if self.mem.read_bit(addr, bit) == cell.polarity.charged_value() {
            if self.ecc.is_some() {
                // The stored check bits keep describing the last written
                // data; snapshot the pre-flip word on first deviation.
                let word = addr.as_u64() / ECC_WORD;
                let pre_flip = self.raw_word(word);
                self.ecc
                    .as_mut()
                    .expect("checked above")
                    .note_flip(word, pre_flip);
            }
            self.mem
                .write_bit(addr, bit, cell.polarity.discharged_value());
            self.stats.flips += 1;
            self.flip_log.push(FlipEvent {
                addr,
                bit,
                coord,
                polarity: cell.polarity,
                time,
            });
        }
    }

    /// Bulk hammering: one round activates the row containing each
    /// aggressor address once, in order, `rounds` times, advancing the
    /// simulated clock and racing refresh (and the TRR engine, when
    /// enabled) exactly as the per-access path would, in O(boundaries)
    /// instead of O(accesses). Two rows give the paper's double-sided
    /// burst; longer lists give the TRRespass-style round-robin pattern
    /// that overwhelms a sampling Target-Row-Refresh tracker when the
    /// distinct-row count exceeds its sampler size.
    ///
    /// `stats().hammer_pairs` advances by `rounds * rows / 2` — the
    /// pair-equivalent activation cost, so hammering budgets stay
    /// comparable across set sizes. Returns the flips induced by this run.
    ///
    /// # Errors
    ///
    /// * [`DramError::NotEnoughAggressors`] — fewer than two addresses.
    /// * [`DramError::AggressorsInDifferentBanks`] — the rows span banks.
    /// * [`DramError::AggressorsShareRow`] — two addresses share a row
    ///   (their alternating accesses would be row-buffer hits).
    pub fn hammer_rows(
        &mut self,
        aggressors: &[PhysAddr],
        rounds: u64,
    ) -> Result<HammerOutcome, DramError> {
        let count = aggressors.len();
        if count < 2 {
            return Err(DramError::NotEnoughAggressors { count });
        }
        let (mut inline_rows, mut spilled_rows) = ([0u32; INLINE_ROWS], Vec::new());
        let agg_rows = perf::scratch(&mut inline_rows, &mut spilled_rows, count);
        let first = self.mapping.phys_to_coord(aggressors[0]);
        for (slot, &addr) in agg_rows.iter_mut().zip(aggressors) {
            let c = self.mapping.phys_to_coord(addr);
            if (c.channel, c.rank, c.bank) != (first.channel, first.rank, first.bank) {
                return Err(DramError::AggressorsInDifferentBanks { a: first, b: c });
            }
            *slot = c.row;
        }
        for i in 1..count {
            if agg_rows[..i].contains(&agg_rows[i]) {
                let coord = self.mapping.phys_to_coord(aggressors[i]);
                return Err(DramError::AggressorsShareRow { coord });
            }
        }
        let agg_rows = &*agg_rows;
        let geometry = self.config.geometry;
        let timing = self.config.timing;

        // Disturbance received by each victim row per round; aggressor
        // rows are excluded (each round re-activates them). Each aggressor
        // has at most `NEIGHBOUR_UNITS.len()` victims.
        let mut inline_victims = [(0u32, 0u64); NEIGHBOUR_UNITS.len() * INLINE_ROWS];
        let mut spilled_victims = Vec::new();
        let slots = perf::scratch(
            &mut inline_victims,
            &mut spilled_victims,
            NEIGHBOUR_UNITS.len() * count,
        );
        let mut len = 0;
        for &aggressor in agg_rows {
            for (delta, units) in NEIGHBOUR_UNITS {
                let row = i64::from(aggressor) + delta;
                if row < 0 || row >= i64::from(geometry.rows) {
                    continue;
                }
                let row = row as u32;
                if agg_rows.contains(&row) {
                    continue;
                }
                match slots[..len].iter_mut().find(|(r, _)| *r == row) {
                    Some((_, u)) => *u += units,
                    None => {
                        slots[len] = (row, units);
                        len += 1;
                    }
                }
            }
        }
        let victims = &slots[..len];
        let bank_idx = geometry.bank_index(first.channel, first.rank, first.bank);
        for &row in agg_rows {
            self.banks[bank_idx].clear_disturbance(row);
        }

        let round_time = Divisor::new(count as u64 * timing.t_rc);
        let start = self.now;
        self.bulk_rounds(bank_idx, first, agg_rows, victims, rounds, round_time);

        let acts = rounds * count as u64;
        self.banks[bank_idx].set_open_row(agg_rows[count - 1]);
        self.stats.acts += acts;
        self.stats.hammer_pairs += acts / 2;

        Ok(HammerOutcome {
            acts,
            elapsed: self.now - start,
        })
    }

    /// The disturbance loop of [`Self::hammer_rows`]: `rounds`
    /// rounds of one `ACT` per aggressor row (`round_time` ns each), racing
    /// each victim row's refresh schedule and — when enabled — the
    /// Target-Row-Refresh tracker, whose trigger times the burst planner
    /// turns into chunk boundaries so the walk stays O(boundaries) instead
    /// of O(activations). The walk runs only until the TRR sampler is
    /// steady (usually one round): from that chunk on the event kernel
    /// ([`Self::burst_kernel`]) applies the rest of the burst, flips
    /// included. Under PARA or RFM, or with
    /// [`DramConfig::reference_kernels`], the walk runs to the end; it is
    /// the kernel's oracle.
    fn bulk_rounds(
        &mut self,
        bank_idx: usize,
        template: DramCoord,
        agg_rows: &[u32],
        victims: &[(u32, u64)],
        rounds: u64,
        round_time: Divisor,
    ) {
        let kernel = !self.config.reference_kernels && self.para.is_none() && self.rfm.is_none();
        let fan = agg_rows.len() as u64;
        let (clock_rank, clock_bank) = self.clock_coords(template);

        let mut remaining = rounds;
        while remaining > 0 {
            let t = self.now;
            let plan = self
                .trr
                .as_ref()
                .map(|trr| trr.plan_burst(bank_idx, agg_rows));

            let steady = match plan {
                Some(Burst::After(_)) => self
                    .trr
                    .as_ref()
                    .is_some_and(|trr| trr.all_tracked(bank_idx, agg_rows)),
                _ => true,
            };
            if kernel && steady {
                self.burst_kernel(bank_idx, template, agg_rows, victims, remaining, round_time);
                return;
            }

            // Rounds that complete before any victim row is refreshed. The
            // boundary can coincide with `t` only after the clock lands
            // exactly on it; force progress with at least one round. With
            // no victims (every neighbour is itself an aggressor) nothing
            // accumulates and only the TRR bound applies.
            let mut chunk = victims
                .iter()
                .map(|&(row, _)| self.refresh.next_refresh_time(row, t))
                .min()
                .map_or(remaining, |boundary| {
                    remaining.min(round_time.div(boundary - t).max(1))
                });
            if let Some(Burst::After(n)) = plan {
                chunk = chunk.min(n);
            }
            // A mid-chunk PARA/RFM refresh must split the chunk: otherwise
            // a single aggregated disturbance add could cross a threshold
            // the countermeasure should have reset first. Cap each chunk at
            // the round containing the next trigger (round granularity: a
            // trigger splits at its round boundary, not mid-round).
            if let Some(para) = &self.para {
                chunk = chunk.min((para.acts_until_hit() / fan).max(1));
            }
            if let Some(rfm) = &self.rfm {
                chunk = chunk.min((rfm.acts_until_rfm(bank_idx) / fan).max(1));
            }
            for &(row, units_per_round) in victims {
                let victim = DramCoord {
                    row,
                    col: 0,
                    ..template
                };
                self.disturb_row(victim, units_per_round * chunk);
            }
            if let Some(clock) = &mut self.clock {
                clock.bulk_acts(clock_rank, clock_bank, t, chunk * fan);
            }
            self.now += chunk * round_time.get();
            if let Some(clock) = &mut self.clock {
                clock.drain_refreshes(self.now);
            }
            remaining -= chunk;
            if let Some(Burst::After(_)) = plan {
                let trr = self.trr.as_mut().expect("plan implies an engine");
                let radius = self.config.trr.map_or(0, |p| p.radius);
                let rows = self.config.geometry.rows;
                let bank = &mut self.banks[bank_idx];
                let refresh = |row| bank.refresh_around(row, radius, rows);
                if trr.all_tracked(bank_idx, agg_rows) {
                    trr.advance_tracked(bank_idx, agg_rows, chunk, refresh);
                } else {
                    debug_assert_eq!(chunk, 1, "untracked bursts advance one round at a time");
                    trr.step_round(bank_idx, agg_rows, refresh);
                }
            }
            // Burst::Never: the sampler state is round-invariant and can
            // never fire for this aggressor set — nothing to advance.
            if self.para.is_some() {
                let mut hits: Vec<u64> = Vec::new();
                if let Some(para) = &mut self.para {
                    para.advance(chunk * fan, |off| hits.push(off));
                }
                for off in hits {
                    let row = agg_rows[(off % fan) as usize];
                    self.refresh_neighbour_rows(bank_idx, DramCoord { row, ..template }, 1);
                }
            }
            let fired = self
                .rfm
                .as_mut()
                .and_then(|rfm| rfm.record_acts(bank_idx, agg_rows, chunk));
            if let Some(rows) = fired {
                let radius = self.config.rfm.map_or(0, |p| p.radius);
                for row in rows {
                    self.refresh_neighbour_rows(bank_idx, DramCoord { row, ..template }, radius);
                }
            }
        }
    }

    /// The event kernel of [`Self::bulk_rounds`]: applies all `rounds`
    /// rounds of a burst, flips included, leaving the flip log and every
    /// piece of state exactly as the chunk walk would. It costs
    /// O(victims + aggressor rows + flips), plus O(resets) for each victim
    /// a weak cell of which the burst can reach.
    ///
    /// Callers guarantee a steady sampler (every aggressor row tracked, so
    /// each later trigger falls on a fixed round, or a `Burst::Never`
    /// thrash) and no PARA/RFM. A victim's disturbance then resets only at
    /// its row's refresh (from the first round starting at or after the
    /// boundary) and after the round of a trigger of an aggressor within
    /// the TRR radius; in between each round adds the same units to the
    /// window holding its start.
    ///
    /// - A victim whose weakest cell lies above both its carried in-window
    ///   units plus units × rounds to its first reset and units × the
    ///   longest later gap costs one bound check.
    /// - Any other victim has its resets walked: a cell first crosses in
    ///   the round where `base < threshold ≤ base + units × rounds so far`,
    ///   `base` being the carried units before the first reset and 0 after.
    /// - The walk flips that cell at the start of the chunk holding that
    ///   round. Chunks start at the burst start, at the last round starting
    ///   at or before each victim's refresh boundary and the straddle round
    ///   after it, and after each TRR trigger. Flips are applied in order
    ///   of chunk start, victim, cell: the walk's order, which keeps the
    ///   SECDED pre-flip snapshots equal.
    ///
    /// What is left behind does not depend on the flips: the clock and the
    /// command train advanced by the whole burst, each tracked count moved
    /// on modulo the threshold, every row within the radius of a triggered
    /// aggressor cleared, and each victim holding the rounds since its last
    /// clear that started in its current refresh window.
    fn burst_kernel(
        &mut self,
        bank_idx: usize,
        template: DramCoord,
        agg_rows: &[u32],
        victims: &[(u32, u64)],
        rounds: u64,
        round_time: Divisor,
    ) {
        let geometry = self.config.geometry;
        let schedule = self.refresh;
        let window = schedule.window();
        let w = window.get();
        let rt = round_time.get();
        let t = self.now;
        let radius = self.config.trr.map_or(0, |p| p.radius);
        // With every row tracked, aggressor `row` triggers after round
        // `until - 1` and then every `period` rounds: `(row, until)`.
        let tracked = self
            .trr
            .as_ref()
            .filter(|trr| trr.all_tracked(bank_idx, agg_rows));
        let period = Divisor::new(tracked.map_or(1, TrrEngine::period));
        let (mut inline_triggers, mut spilled_triggers) = ([(0u32, 0u64); INLINE_ROWS], Vec::new());
        let triggers: &[(u32, u64)] = match tracked {
            None => &[],
            Some(trr) => {
                let slots =
                    perf::scratch(&mut inline_triggers, &mut spilled_triggers, agg_rows.len());
                for (slot, &row) in slots.iter_mut().zip(agg_rows) {
                    let acts = trr.tracked_acts(bank_idx, row).expect("all tracked");
                    *slot = (row, period.get() - acts);
                }
                slots
            }
        };
        // Each victim's first refresh boundary, as an offset `b` from the
        // burst start, with the round starting at or before it and whether
        // that round straddles it: `(b, last, straddles)`.
        let (mut inline_refresh, mut spilled_refresh) = (
            [(0u64, 0u64, false); NEIGHBOUR_UNITS.len() * INLINE_ROWS],
            Vec::new(),
        );
        let refresh = perf::scratch(&mut inline_refresh, &mut spilled_refresh, victims.len());
        for (slot, &(row, _)) in refresh.iter_mut().zip(victims) {
            let b = schedule.next_refresh_time(row, t) - t;
            let (last, gap) = round_time.div_rem(b);
            *slot = (b, last, gap != 0);
        }
        let refresh = &*refresh;
        // Round index at which the chunk holding round `r` starts.
        let chunk_start = |r: u64| {
            let mut start = 0;
            for &(b, last, straddles) in refresh {
                if let Some(x) = ((r + 1) * rt).checked_sub(b + 1) {
                    // The last boundary before round `r` ends; the first
                    // one's round is precomputed.
                    let (last, straddles) = if x < w {
                        (last, straddles)
                    } else {
                        let (last, gap) = round_time.div_rem(b + window.div(x) * w);
                        (last, gap != 0)
                    };
                    start = start.max(last + u64::from(straddles && last < r));
                }
            }
            for &(_, n) in triggers {
                if let Some(x) = r.checked_sub(n) {
                    start = start.max(n + period.div(x) * period.get());
                }
            }
            start
        };
        let rounds_per_window = round_time.div_ceil(w);
        // (chunk start, victim, cell index, cell) of every first crossing,
        // in a list kept between calls.
        let mut flips = std::mem::take(&mut self.kernel_flips.0);
        for (v, (&(row, units), &(b, _, _))) in victims.iter().zip(refresh).enumerate() {
            let coord = DramCoord {
                row,
                col: 0,
                ..template
            };
            let eval = self.cells.row_eval(geometry.global_row_id(coord));
            if eval.min_threshold() == u64::MAX {
                continue;
            }
            let near = || {
                triggers
                    .iter()
                    .filter(|&&(agg, _)| row.abs_diff(agg) <= radius)
            };
            let mut first = rounds.min(round_time.div_ceil(b));
            let mut later = rounds.min(rounds_per_window);
            for &(_, n) in near() {
                first = first.min(n);
                later = later.min(period.get());
            }
            let carried = self.banks[bank_idx].disturbance(row, t, &schedule);
            let reach_first = carried.saturating_add(units.saturating_mul(first));
            let reach_later = units.saturating_mul(later);
            if reach_first.max(reach_later) < eval.min_threshold() {
                continue;
            }
            // First reset after round `s`: a refresh boundary `b + k·w`
            // resets from the first round starting at or after it, a
            // trigger from the round after it.
            let next_reset = |s: u64| {
                let k = (s * rt).checked_sub(b).map_or(0, |x| window.div(x) + 1);
                near().fold(round_time.div_ceil(b + k * w), |next, &(_, n)| {
                    next.min(if s < n {
                        n
                    } else {
                        n + (period.div(s - n) + 1) * period.get()
                    })
                })
            };
            // Cells still able to cross, as a mask over each 64-cell lane
            // block (rows hold one block at any realistic density).
            for (block, cells) in eval.cells().chunks(64).enumerate() {
                let mut pending = cells
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.threshold_units <= reach_first.max(reach_later))
                    .fold(0u64, |mask, (j, _)| mask | 1 << j);
                let (mut start, mut base) = (0, carried);
                while start < rounds && pending != 0 {
                    let end = next_reset(start).min(rounds);
                    let top = base.saturating_add(units.saturating_mul(end - start));
                    let mut m = pending;
                    while m != 0 {
                        let j = m.trailing_zeros() as usize;
                        m &= m - 1;
                        let thr = cells[j].threshold_units;
                        if base < thr && thr <= top {
                            let crossing = start + (thr - base).div_ceil(units) - 1;
                            flips.push((chunk_start(crossing), v, 64 * block + j, cells[j]));
                            pending &= !(1 << j);
                        } else if thr > reach_later {
                            // Beyond every later gap: only the first segment
                            // could have reached it.
                            pending &= !(1 << j);
                        }
                    }
                    (start, base) = (end, 0);
                }
            }
        }
        flips.sort_unstable_by_key(|&(chunk, v, i, _)| (chunk, v, i));
        for &(chunk, v, _, cell) in &flips {
            let victim = DramCoord {
                row: victims[v].0,
                col: 0,
                ..template
            };
            self.try_flip(victim, &cell, t + chunk * rt);
        }
        flips.clear();
        self.kernel_flips.0 = flips;

        let (clock_rank, clock_bank) = self.clock_coords(template);
        self.now += rounds * rt;
        if let Some(clock) = &mut self.clock {
            clock.bulk_acts(clock_rank, clock_bank, t, rounds * agg_rows.len() as u64);
            clock.drain_refreshes(self.now);
        }
        // Each aggressor that fired, with the round of its last trigger.
        let (mut inline_fired, mut spilled_fired) = ([(0u32, 0u64); INLINE_ROWS], Vec::new());
        let slots = perf::scratch(&mut inline_fired, &mut spilled_fired, agg_rows.len());
        let mut len = 0;
        if let Some(trr) = self.trr.as_mut().filter(|_| !triggers.is_empty()) {
            trr.jump_tracked(bank_idx, agg_rows, rounds, |row, last| {
                slots[len] = (row, last);
                len += 1;
            });
        }
        let fired = &slots[..len];
        for &(row, _) in fired {
            self.refresh_neighbour_rows(bank_idx, DramCoord { row, ..template }, radius);
        }
        for &(row, units) in victims {
            // First round after the victim's last clear.
            let from = fired
                .iter()
                .filter(|&&(agg, _)| row.abs_diff(agg) <= radius)
                .map(|&(_, last)| last + 1)
                .max()
                .unwrap_or(0);
            if from < rounds {
                self.banks[bank_idx].credit_rounds(
                    row,
                    units,
                    (t + from * rt, t + (rounds - 1) * rt),
                    round_time,
                    &schedule,
                );
            }
        }
        self.analytic_rounds += rounds;
    }

    // ------------------------------------------------------------------
    // Introspection (experiment ground truth — not attacker-visible)
    // ------------------------------------------------------------------

    /// Weak cells in the row containing `addr`.
    ///
    /// This is an oracle for experiments and tests; the simulated attacker
    /// never calls it (templating *discovers* flips by hammering).
    pub fn weak_cells_at(&self, addr: PhysAddr) -> &[WeakCell] {
        let coord = self.mapping.phys_to_coord(addr);
        let row_id = self.config.geometry.global_row_id(coord);
        self.cells.cells_for_row(row_id)
    }

    /// Rows whose weak-cell populations have been generated so far. The
    /// memo is shared by every clone of one booted device, so this counts
    /// each row once across all of them.
    pub fn weak_rows_generated(&self) -> usize {
        self.cells.cached_rows()
    }

    /// Enumerates `(address, bit, cell)` for every weak cell whose bit falls
    /// inside `[start, start + len)`. Oracle for experiments.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds capacity.
    pub fn weak_bits_in_range(&self, start: PhysAddr, len: u64) -> Vec<(PhysAddr, u8, WeakCell)> {
        assert!(
            start.as_u64() + len <= self.capacity_bytes(),
            "range beyond capacity"
        );
        let row_bytes = self.config.geometry.row_bytes as u64;
        let mut out = Vec::new();
        let mut row_start = start.align_down(row_bytes);
        while row_start.as_u64() < start.as_u64() + len {
            let cells = self.weak_cells_at(row_start);
            let coord = self.mapping.phys_to_coord(row_start);
            for cell in cells.iter() {
                let byte_in_row = cell.bit_in_row / 8;
                let addr = self.mapping.coord_to_phys(DramCoord {
                    col: byte_in_row,
                    ..coord
                });
                if addr >= start && addr.as_u64() < start.as_u64() + len {
                    out.push((addr, (cell.bit_in_row % 8) as u8, *cell));
                }
            }
            row_start = row_start + row_bytes;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coord(bank: u32, row: u32, col: u32) -> DramCoord {
        DramCoord {
            channel: 0,
            rank: 0,
            bank,
            row,
            col,
        }
    }

    /// A config whose row 100/bank 0 victim can be fabricated precisely: we
    /// use the oracle to find a row with a weak cell and hammer around it.
    fn small_dev(seed: u64) -> DramDevice {
        DramDevice::new(DramConfig::small().with_seed(seed))
    }

    /// One [`DramDevice::hammer_rows`] call with the flips it added to the
    /// device's flip log.
    fn hammer_flips(
        dev: &mut DramDevice,
        rows: &[PhysAddr],
        rounds: u64,
    ) -> (HammerOutcome, Vec<FlipEvent>) {
        let before = dev.flips().len();
        let outcome = dev.hammer_rows(rows, rounds).unwrap();
        (outcome, dev.flips()[before..].to_vec())
    }

    /// Finds (victim_row, cell) with a weak cell in bank 0, away from edges.
    fn find_weak_row(dev: &mut DramDevice) -> (u32, WeakCell) {
        let g = dev.config().geometry;
        for row in 2..g.rows - 2 {
            let addr = dev.mapping().coord_to_phys(coord(0, row, 0));
            let cells = dev.weak_cells_at(addr);
            if let Some(c) = cells.first() {
                return (row, *c);
            }
        }
        panic!("no weak cell found in bank 0 — increase density or rows");
    }

    #[test]
    fn access_latency_depends_on_row_buffer() {
        let mut dev = small_dev(1);
        let a = dev.mapping().coord_to_phys(coord(0, 10, 0));
        let b = dev.mapping().coord_to_phys(coord(0, 10, 64));
        let c = dev.mapping().coord_to_phys(coord(0, 11, 0));
        let t_miss = dev.access(a);
        let t_hit = dev.access(b);
        let t_conflict = dev.access(c);
        assert_eq!(t_miss, dev.config().timing.t_rc);
        assert_eq!(t_hit, dev.config().timing.t_row_hit);
        assert_eq!(t_conflict, dev.config().timing.t_rc);
        assert_eq!(dev.stats().acts, 2);
        assert_eq!(dev.stats().row_hits, 1);
    }

    #[test]
    fn data_roundtrip() {
        let mut dev = small_dev(2);
        dev.write(PhysAddr::new(0x4000), b"explframe");
        let mut buf = [0u8; 9];
        dev.read(PhysAddr::new(0x4000), &mut buf);
        assert_eq!(&buf, b"explframe");
    }

    #[test]
    fn double_sided_hammer_flips_known_weak_cell() {
        let mut dev = small_dev(3);
        let (row, cell) = find_weak_row(&mut dev);
        let a = dev.mapping().coord_to_phys(coord(0, row - 1, 0));
        let b = dev.mapping().coord_to_phys(coord(0, row + 1, 0));
        let victim_row_addr = dev.mapping().coord_to_phys(coord(0, row, 0));
        // Store the charged pattern so the cell can discharge.
        let fill = if cell.polarity.charged_value() {
            0xFF
        } else {
            0x00
        };
        dev.fill(
            victim_row_addr,
            dev.config().geometry.row_bytes as u64,
            fill,
        );

        // Hammer with more than threshold pairs (double-sided → 2 ACTs of
        // near disturbance per pair on the sandwiched row).
        let pairs = cell.threshold_acts(); // 2 units/pair ⇒ pairs = acts/2... use full to be safe
        let (_, flips) = hammer_flips(&mut dev, &[a, b], pairs);
        assert!(
            flips.iter().any(|f| f.coord.row == row
                && f.coord.col == cell.bit_in_row / 8
                && f.bit == (cell.bit_in_row % 8) as u8),
            "expected flip of known weak cell, got {flips:?}"
        );
        assert_eq!(dev.stats().flips as usize, dev.flips().len());
    }

    #[test]
    fn hammer_without_charged_pattern_does_not_flip() {
        let mut dev = small_dev(3);
        let (row, cell) = find_weak_row(&mut dev);
        let a = dev.mapping().coord_to_phys(coord(0, row - 1, 0));
        let b = dev.mapping().coord_to_phys(coord(0, row + 1, 0));
        let victim_row_addr = dev.mapping().coord_to_phys(coord(0, row, 0));
        // Store the *discharged* pattern — the flip must not happen.
        let fill = if cell.polarity.charged_value() {
            0x00
        } else {
            0xFF
        };
        dev.fill(
            victim_row_addr,
            dev.config().geometry.row_bytes as u64,
            fill,
        );
        let (_, flips) = hammer_flips(&mut dev, &[a, b], cell.threshold_acts());
        assert!(flips
            .iter()
            .all(|f| !(f.coord.row == row && f.coord.col == cell.bit_in_row / 8)));
    }

    #[test]
    fn insufficient_hammering_does_not_flip() {
        let mut dev = small_dev(3);
        let (row, _) = find_weak_row(&mut dev);
        let a = dev.mapping().coord_to_phys(coord(0, row - 1, 0));
        let b = dev.mapping().coord_to_phys(coord(0, row + 1, 0));
        let victim_row_addr = dev.mapping().coord_to_phys(coord(0, row, 0));
        dev.fill(
            victim_row_addr,
            dev.config().geometry.row_bytes as u64,
            0xFF,
        );
        // Double-sided hammering delivers 2 near-ACTs per pair, so staying
        // below min_threshold/2 pairs keeps *every* possible cell below its
        // floor threshold, regardless of seed.
        let pairs = dev.config().cells.min_threshold_acts / 4;
        let (_, flips) = hammer_flips(&mut dev, &[a, b], pairs);
        assert!(flips.is_empty(), "unexpected flips: {flips:?}");
    }

    #[test]
    fn slow_hammering_is_defeated_by_refresh() {
        // Hammering spread over many refresh windows (low rate) never
        // accumulates enough disturbance: emulate by hammering in small
        // chunks with long idle gaps.
        let mut dev = small_dev(3);
        let (row, cell) = find_weak_row(&mut dev);
        let a = dev.mapping().coord_to_phys(coord(0, row - 1, 0));
        let b = dev.mapping().coord_to_phys(coord(0, row + 1, 0));
        let victim_row_addr = dev.mapping().coord_to_phys(coord(0, row, 0));
        let fill = if cell.polarity.charged_value() {
            0xFF
        } else {
            0x00
        };
        dev.fill(
            victim_row_addr,
            dev.config().geometry.row_bytes as u64,
            fill,
        );
        let window = dev.config().timing.refresh_window();
        // Each chunk stays below every cell's floor threshold, but the total
        // hammering far exceeds the found cell's threshold — only the idle
        // gaps (refresh) prevent the flip.
        let chunk_pairs = dev.config().cells.min_threshold_acts / 4;
        let chunks = 1 + (cell.threshold_acts() * 4) / chunk_pairs;
        for _ in 0..chunks {
            let (_, flips) = hammer_flips(&mut dev, &[a, b], chunk_pairs);
            assert!(flips.is_empty());
            dev.advance(window); // idle a full window: every row refreshes
        }
    }

    /// Hammers `[row - 1, row + 1]` plus `decoys` same-bank rows at
    /// `row + 8 + 7k` around the first weak row of `config`, once in bulk
    /// and once as individual accesses (every access a row conflict), and
    /// asserts both leave the same flips, TRR triggers and clock. Returns
    /// the flip count and trigger count for the caller's coverage checks.
    fn assert_bulk_matches_per_access(config: DramConfig, decoys: u32) -> (usize, u64) {
        let (row, cell) = find_weak_row(&mut DramDevice::new(config));
        let mut rows = vec![row - 1, row + 1];
        rows.extend((0..decoys).map(|k| row + 8 + 7 * k));
        let mut bulk = DramDevice::new(config);
        assert!(rows.iter().all(|&r| r < bulk.config().geometry.rows));
        let set: Vec<PhysAddr> = rows
            .iter()
            .map(|&r| bulk.mapping().coord_to_phys(coord(0, r, 0)))
            .collect();
        let victim = bulk.mapping().coord_to_phys(coord(0, row, 0));
        let row_bytes = bulk.config().geometry.row_bytes as u64;
        let rounds = cell.threshold_acts() + 16;
        let fill = if cell.polarity.charged_value() {
            0xFF
        } else {
            0x00
        };

        bulk.fill(victim, row_bytes, fill);
        let (_, bulk_flips) = hammer_flips(&mut bulk, &set, rounds);

        let mut step = DramDevice::new(config);
        step.fill(victim, row_bytes, fill);
        for _ in 0..rounds {
            for &a in &set {
                step.access(a);
            }
        }

        let key = |f: &FlipEvent| (f.addr, f.bit, f.polarity);
        let mut bk: Vec<_> = bulk_flips.iter().map(key).collect();
        let mut sk: Vec<_> = step.flips().iter().map(key).collect();
        bk.sort();
        sk.sort();
        let label = format!("{} rows, config {config:?}", set.len());
        assert_eq!(bk, sk, "bulk and per-access hammering disagree: {label}");
        assert_eq!(bulk.trr_triggers(), step.trr_triggers(), "{label}");
        assert_eq!(bulk.now(), step.now(), "{label}");
        (bk.len(), bulk.trr_triggers())
    }

    #[test]
    fn bulk_hammer_matches_per_access_path() {
        for seed in 5..=7 {
            for timed in [false, true] {
                let config = DramConfig::small()
                    .with_seed(seed)
                    .with_timing_engine(timed);
                // Two, four, eight and twelve rows: the last spills the
                // row and victim lists to the heap.
                for decoys in [0, 2, 6, 10] {
                    let (flips, _) = assert_bulk_matches_per_access(config, decoys);
                    if decoys == 0 {
                        assert!(flips > 0, "expected at least one flip (seed {seed})");
                    }
                }
            }
        }
    }

    #[test]
    fn flips_are_reproducible_after_restore() {
        // ExplFrame's key assumption: re-hammering the same aggressors after
        // restoring the data pattern re-flips the same cell.
        let mut dev = small_dev(6);
        let (row, cell) = find_weak_row(&mut dev);
        let a = dev.mapping().coord_to_phys(coord(0, row - 1, 0));
        let b = dev.mapping().coord_to_phys(coord(0, row + 1, 0));
        let victim_addr = dev.mapping().coord_to_phys(coord(0, row, 0));
        let row_bytes = dev.config().geometry.row_bytes as u64;
        let fill = if cell.polarity.charged_value() {
            0xFF
        } else {
            0x00
        };
        let pairs = cell.threshold_acts() + 16;

        let mut observed = Vec::new();
        for _ in 0..3 {
            dev.fill(victim_addr, row_bytes, fill);
            let (_, flips) = hammer_flips(&mut dev, &[a, b], pairs);
            observed.push(
                flips
                    .iter()
                    .map(|f| (f.addr, f.bit))
                    .collect::<std::collections::BTreeSet<_>>(),
            );
            // Idle a window so disturbance state fully resets between rounds.
            dev.advance(dev.config().timing.refresh_window());
        }
        assert_eq!(observed[0], observed[1]);
        assert_eq!(observed[1], observed[2]);
        assert!(!observed[0].is_empty());
    }

    /// Charges the row so `cell` can discharge, hammers double-sided, and
    /// returns whether the cell flipped.
    fn hammer_known_cell(dev: &mut DramDevice, row: u32, cell: WeakCell, pairs: u64) -> bool {
        let a = dev.mapping().coord_to_phys(coord(0, row - 1, 0));
        let b = dev.mapping().coord_to_phys(coord(0, row + 1, 0));
        let victim = dev.mapping().coord_to_phys(coord(0, row, 0));
        let fill = if cell.polarity.charged_value() {
            0xFF
        } else {
            0x00
        };
        dev.fill(victim, dev.config().geometry.row_bytes as u64, fill);
        let (_, flips) = hammer_flips(dev, &[a, b], pairs);
        flips
            .iter()
            .any(|f| f.coord.row == row && f.coord.col == cell.bit_in_row / 8)
    }

    #[test]
    fn trr_suppresses_double_sided_hammering() {
        let seed = 3;
        let (row, cell) = find_weak_row(&mut small_dev(seed));
        // Unmitigated: the known cell flips.
        let mut plain = small_dev(seed);
        assert!(hammer_known_cell(
            &mut plain,
            row,
            cell,
            cell.threshold_acts() + 16
        ));
        // Mitigated: a sampler that fits both aggressors refreshes the
        // victim before the threshold is ever crossed.
        let mut hard = DramDevice::new(
            DramConfig::small()
                .with_seed(seed)
                .with_trr(Some(TrrParams::ddr4_like())),
        );
        assert!(!hammer_known_cell(
            &mut hard,
            row,
            cell,
            cell.threshold_acts() + 16
        ));
        assert!(hard.trr_triggers() > 0, "TRR never fired");
        assert_eq!(hard.stats().flips, 0);
    }

    /// Round-robin aggressor set: the victim row's two neighbours plus
    /// `extra` same-bank decoy rows fanned outwards.
    fn many_sided_set(dev: &DramDevice, row: u32, extra: u32) -> Vec<PhysAddr> {
        let max_row = dev.config().geometry.rows as i64;
        let mut rows: Vec<i64> = vec![i64::from(row) - 1, i64::from(row) + 1];
        for k in 1..=i64::from(extra) {
            rows.push(i64::from(row) - 1 - k);
            rows.push(i64::from(row) + 1 + k);
        }
        rows.retain(|&r| r >= 0 && r < max_row);
        rows.truncate(2 + extra as usize);
        rows.iter()
            .map(|&r| dev.mapping().coord_to_phys(coord(0, r as u32, 0)))
            .collect()
    }

    #[test]
    fn many_sided_hammering_bypasses_an_undersized_trr_sampler() {
        let seed = 3;
        let (row, cell) = find_weak_row(&mut small_dev(seed));
        let trr = TrrParams::ddr4_like(); // 4-entry sampler
        let mut dev = DramDevice::new(DramConfig::small().with_seed(seed).with_trr(Some(trr)));
        let aggressors = many_sided_set(&dev, row, 6); // 8 rows > 4 entries
        let victim = dev.mapping().coord_to_phys(coord(0, row, 0));
        let fill = if cell.polarity.charged_value() {
            0xFF
        } else {
            0x00
        };
        dev.fill(victim, dev.config().geometry.row_bytes as u64, fill);
        let (_, flips) = hammer_flips(&mut dev, &aggressors, cell.threshold_acts() + 64);
        assert!(
            flips.iter().any(|f| f.coord.row == row),
            "many-sided burst failed to bypass the thrashed sampler"
        );
        assert_eq!(dev.trr_triggers(), 0, "a thrashed sampler must stay blind");

        // The same burst against a sampler that fits all 8 rows is caught.
        let mut wide = DramDevice::new(
            DramConfig::small()
                .with_seed(seed)
                .with_trr(Some(trr.with_sampler_size(16))),
        );
        wide.fill(victim, wide.config().geometry.row_bytes as u64, fill);
        let (_, caught) = hammer_flips(&mut wide, &aggressors, cell.threshold_acts() + 64);
        assert!(caught.is_empty(), "oversized sampler should suppress");
        assert!(wide.trr_triggers() > 0);
    }

    #[test]
    fn bulk_hammer_matches_per_access_path_under_trr() {
        // The TRR burst planner must be exactly equivalent to feeding the
        // sampler one ACT at a time, whether the set fits the sampler (2 and
        // 4 rows: triggers fire) or thrashes it (8 and 12 rows; 12 also
        // spills the kernel's trigger list to the heap).
        let samplers = [
            TrrParams::ddr4_like(),
            TrrParams::ddr4_like().with_threshold_acts(1500),
        ];
        for seed in 5..=7 {
            for timed in [false, true] {
                for trr in samplers {
                    let config = DramConfig::small()
                        .with_seed(seed)
                        .with_timing_engine(timed)
                        .with_trr(Some(trr));
                    for decoys in [0, 2, 6, 10] {
                        let (_, triggers) = assert_bulk_matches_per_access(config, decoys);
                        if decoys < 6 {
                            assert!(triggers > 0, "test must exercise triggers (seed {seed})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hammer_rows_validates_aggressor_sets() {
        let mut dev = small_dev(4);
        let a = dev.mapping().coord_to_phys(coord(0, 10, 0));
        let b = dev.mapping().coord_to_phys(coord(0, 12, 0));
        let other_bank = dev.mapping().coord_to_phys(coord(1, 14, 0));
        assert!(matches!(
            dev.hammer_rows(&[], 10),
            Err(DramError::NotEnoughAggressors { count: 0 })
        ));
        assert!(matches!(
            dev.hammer_rows(&[a], 10),
            Err(DramError::NotEnoughAggressors { count: 1 })
        ));
        assert!(matches!(
            dev.hammer_rows(&[a, other_bank], 10),
            Err(DramError::AggressorsInDifferentBanks { .. })
        ));
        assert!(matches!(
            dev.hammer_rows(&[a, b, other_bank], 10),
            Err(DramError::AggressorsInDifferentBanks { .. })
        ));
        let same_row = dev.mapping().coord_to_phys(coord(0, 10, 64));
        assert!(matches!(
            dev.hammer_rows(&[a, same_row], 10),
            Err(DramError::AggressorsShareRow { .. })
        ));
        assert!(matches!(
            dev.hammer_rows(&[a, b, same_row], 10),
            Err(DramError::AggressorsShareRow { .. })
        ));
    }

    #[test]
    fn raw_copy_plus_counted_read_equals_read_byte() {
        let mut dev = small_dev(5);
        let base = PhysAddr::new(0x3000);
        dev.write(base, b"table bytes");
        assert!(dev.reads_are_raw(), "no ECC tracker: every read is raw");
        let mut copy = [0u8; 11];
        dev.copy_raw(base, &mut copy);
        let mut counted = small_dev(5);
        counted.write(base, b"table bytes");
        let reads_before = dev.stats().reads;
        for (i, &b) in copy.iter().enumerate() {
            assert_eq!(counted.read_byte(base + i as u64), b);
        }
        dev.count_reads(copy.len() as u64);
        assert_eq!(dev.stats(), counted.stats());
        assert_eq!(dev.stats().reads, reads_before + 11);
    }

    /// The byte-wise diff `read_diff` must equal.
    fn byte_diff(page: &[u8], pattern: u8) -> Vec<(u16, u8)> {
        (0u16..)
            .zip(page)
            .filter(|&(_, &b)| b != pattern)
            .map(|(off, &b)| (off, b ^ pattern))
            .collect()
    }

    #[test]
    fn read_diff_on_raw_pages_answers_uniform_chunks_and_lists_the_rest() {
        let mut dev = small_dev(5);
        let page = PhysAddr::new(0x4000);
        let mut out = Vec::new();
        dev.fill(page, 4096, 0xFF);
        assert!(dev.reads_are_raw());
        let reads = dev.stats().reads;
        assert_eq!(dev.read_diff(page, 0xFF, &mut out), PageDiff::Uniform(0));
        assert_eq!(dev.read_diff(page, 0x0F, &mut out), PageDiff::Uniform(0xF0));
        assert_eq!(
            dev.read_diff(PhysAddr::new(0x9000), 0x00, &mut out),
            PageDiff::Uniform(0)
        );
        assert!(out.is_empty(), "uniform answers list nothing");
        // Bytes in the first and last word, and two in one word.
        dev.write_byte(page, 0x7F);
        dev.write(page + 0x803, &[0xFE, 0x00]);
        dev.write_byte(page + 0xFFF, 0xEF);
        assert_eq!(dev.read_diff(page, 0xFF, &mut out), PageDiff::Listed);
        let mut bytes = [0u8; 4096];
        dev.copy_raw(page, &mut bytes);
        assert_eq!(out, byte_diff(&bytes, 0xFF));
        assert_eq!(
            out,
            [(0, 0x80), (0x803, 0x01), (0x804, 0xFF), (0xFFF, 0x10)]
        );
        assert_eq!(dev.stats().reads, reads + 4, "one read per call");
        // A filled page with two single-byte writes is patched, not
        // materialised: on its fill pattern it lists the patches, off it
        // every differing byte, both exactly as the byte loop does.
        let patched = PhysAddr::new(0x5000);
        dev.fill(patched, 4096, 0xFF);
        dev.write_byte(patched + 0x10, 0xFE);
        dev.write_byte(patched + 0x7, 0x00);
        assert_eq!(dev.mem.materialized_chunks(), 1, "only `page` is");
        let mut bytes = [0u8; 4096];
        dev.copy_raw(patched, &mut bytes);
        for pattern in [0xFF, 0x0F] {
            out.clear();
            assert_eq!(dev.read_diff(patched, pattern, &mut out), PageDiff::Listed);
            assert_eq!(out, byte_diff(&bytes, pattern));
        }
        out.clear();
        dev.read_diff(patched, 0xFF, &mut out);
        assert_eq!(out, [(0x7, 0xFF), (0x10, 0x01)]);
        assert_eq!(dev.stats().reads, reads + 7, "one read per call");
    }

    #[test]
    fn a_flip_on_a_filled_page_patches_it_without_a_copy() {
        let mut dev = small_dev(3);
        let (row, cell) = find_weak_row(&mut dev);
        assert!(hammer_known_cell(
            &mut dev,
            row,
            cell,
            cell.threshold_acts() + 16
        ));
        let flip = dev.flips()[0];
        let on_page = |f: &FlipEvent| f.addr.align_down(4096) == flip.addr.align_down(4096);
        assert_eq!(dev.flips().iter().filter(|f| on_page(f)).count(), 1);
        assert_eq!(dev.mem.materialized_chunks(), 0);
        let fill = dev.read_byte(flip.addr) ^ 1 << flip.bit;
        let mut out = Vec::new();
        dev.read_diff(flip.addr.align_down(4096), fill, &mut out);
        assert_eq!(out, [((flip.addr.as_u64() % 4096) as u16, 1 << flip.bit)]);
    }

    #[test]
    fn read_diff_under_a_latent_fault_filters_like_read() {
        let seed = 3;
        let (row, cell) = find_weak_row(&mut small_dev(seed));
        let latent = || {
            let config = DramConfig::small()
                .with_seed(seed)
                .with_ecc(EccMode::Secded);
            let mut dev = DramDevice::new(config);
            assert!(hammer_known_cell(
                &mut dev,
                row,
                cell,
                cell.threshold_acts() + 16
            ));
            assert!(!dev.reads_are_raw());
            dev
        };
        let (mut fast, mut slow) = (latent(), latent());
        let fill = if cell.polarity.charged_value() {
            0xFF
        } else {
            0x00
        };
        let flip = fast.flips()[0].addr.align_down(4096);
        for pattern in [fill, !fill] {
            let mut out = Vec::new();
            assert_eq!(fast.read_diff(flip, pattern, &mut out), PageDiff::Listed);
            let mut page = [0u8; 4096];
            slow.read(flip, &mut page);
            assert_eq!(out, byte_diff(&page, pattern));
        }
        assert!(fast.ecc_stats().corrected > 0, "the flip was corrected");
        assert_eq!(fast.ecc_stats(), slow.ecc_stats());
        assert_eq!(fast.stats(), slow.stats());
    }

    #[test]
    fn secded_corrects_single_flips_on_read() {
        let seed = 3;
        let (row, cell) = find_weak_row(&mut small_dev(seed));
        let mut dev = DramDevice::new(
            DramConfig::small()
                .with_seed(seed)
                .with_ecc(EccMode::Secded),
        );
        assert!(dev.reads_are_raw(), "a clean tracker corrects nothing");
        assert!(hammer_known_cell(
            &mut dev,
            row,
            cell,
            cell.threshold_acts() + 16
        ));
        assert!(dev.stats().flips > 0, "the physical flip still happens");
        assert!(!dev.reads_are_raw(), "a latent fault must be filtered");
        // Reading the whole row back shows the *written* pattern: ECC
        // corrected every single-bit fault on the bus.
        let victim = dev.mapping().coord_to_phys(coord(0, row, 0));
        let fill = if cell.polarity.charged_value() {
            0xFF
        } else {
            0x00
        };
        let mut buf = vec![0u8; dev.config().geometry.row_bytes as usize];
        dev.read(victim, &mut buf);
        assert!(buf.iter().all(|&b| b == fill), "flip visible despite ECC");
        assert!(dev.ecc_stats().corrected > 0);
        assert!(dev.ecc_faulty_words() > 0);
        // A rewrite scrubs the row's latent faults (collateral flips in
        // unwritten neighbour rows may stay tracked); later reads of the
        // row are clean without further corrections.
        let faulty_before = dev.ecc_faulty_words();
        dev.fill(victim, dev.config().geometry.row_bytes as u64, fill);
        assert!(dev.ecc_faulty_words() < faulty_before);
        assert!(dev.ecc_stats().scrubbed > 0);
        let corrected_before = dev.ecc_stats().corrected;
        dev.read(victim, &mut buf);
        assert_eq!(dev.ecc_stats().corrected, corrected_before);
    }

    #[test]
    fn secded_detects_double_flips_in_one_word() {
        // Find a word with two same-polarity weak cells (dense population),
        // flip both, and confirm the corruption passes through detectably.
        let cells_cfg = WeakCellParams::flippy().with_density(2e-3);
        'seeds: for seed in 0..64u64 {
            let config = DramConfig::small()
                .with_seed(seed)
                .with_cells(cells_cfg)
                .with_ecc(EccMode::Secded);
            let mut dev = DramDevice::new(config);
            let g = dev.config().geometry;
            for row in 2..500u32 {
                let addr = dev.mapping().coord_to_phys(coord(0, row, 0));
                let cells = dev.weak_cells_at(addr);
                let Some((x, y)) = cells.iter().enumerate().find_map(|(i, x)| {
                    cells[i + 1..]
                        .iter()
                        .find(|y| {
                            y.bit_in_row / 64 == x.bit_in_row / 64 && y.polarity == x.polarity
                        })
                        .map(|y| (*x, *y))
                }) else {
                    continue;
                };
                let fill = if x.polarity.charged_value() {
                    0xFF
                } else {
                    0x00
                };
                dev.fill(addr, g.row_bytes as u64, fill);
                let pairs = x.threshold_acts().max(y.threshold_acts()) + 16;
                let a = dev.mapping().coord_to_phys(coord(0, row - 1, 0));
                let b = dev.mapping().coord_to_phys(coord(0, row + 1, 0));
                let (_, flips) = hammer_flips(&mut dev, &[a, b], pairs);
                let word = |c: &WeakCell| c.bit_in_row / 64;
                let flipped = |c: &WeakCell| {
                    flips
                        .iter()
                        .any(|f| f.coord.col * 8 + u32::from(f.bit) == c.bit_in_row)
                };
                if !(flipped(&x) && flipped(&y)) {
                    continue;
                }
                // Both bits of one word flipped: the read returns the raw
                // corruption and counts a detected (uncorrectable) error.
                let word_addr = addr + u64::from(word(&x)) * 8;
                let mut buf = [0u8; 8];
                let detected_before = dev.ecc_stats().detected;
                dev.read(word_addr, &mut buf);
                assert!(dev.ecc_stats().detected > detected_before);
                assert!(
                    buf.iter().any(|&v| v != fill),
                    "double-bit fault was hidden"
                );
                return;
            }
            continue 'seeds;
        }
        panic!("no word with two same-polarity weak cells found in 64 seeds");
    }

    #[test]
    fn weak_bits_in_range_oracle_matches_cells() {
        let dev = small_dev(7);
        let g = dev.config().geometry;
        let len = 1 << 20; // 1 MiB
        let found = dev.weak_bits_in_range(PhysAddr::new(0), len);
        for (addr, bit, cell) in &found {
            assert!(addr.as_u64() < len);
            assert_eq!(cell.bit_in_row % 8, *bit as u32);
            let c = dev.mapping().phys_to_coord(*addr);
            assert_eq!(c.col, cell.bit_in_row / 8);
            assert!(c.row < g.rows);
        }
        // Flippy density 1e-5 over 1 MiB (8 Mbit) ⇒ ~84 expected cells.
        assert!(
            found.len() > 20 && found.len() < 300,
            "found {}",
            found.len()
        );
    }

    /// Double-sided pairs spanning about 3.6 DDR3-1600 refresh windows
    /// (one window holds ~695k pairs), so a burst crosses several refresh
    /// boundaries of every victim and ends mid-window.
    const MULTI_WINDOW_PAIRS: u64 = 2_500_007;

    #[test]
    fn bulk_kernel_matches_reference_kernels() {
        let cfg = DramConfig::small().with_seed(3);
        let mut fast = DramDevice::new(cfg);
        let mut slow = DramDevice::new(cfg.with_reference_kernels(true));
        let (row, cell) = find_weak_row(&mut fast);
        let fill = if cell.polarity.charged_value() {
            0xFF
        } else {
            0x00
        };
        let a = fast.mapping().coord_to_phys(coord(0, row - 1, 0));
        let b = fast.mapping().coord_to_phys(coord(0, row + 1, 0));
        let victim_addr = fast.mapping().coord_to_phys(coord(0, row, 0));
        let row_bytes = fast.config().geometry.row_bytes as u64;
        fast.fill(victim_addr, row_bytes, fill);
        slow.fill(victim_addr, row_bytes, fill);

        let (of, of_flips) = hammer_flips(&mut fast, &[a, b], MULTI_WINDOW_PAIRS);
        assert_eq!(
            fast.analytic_rounds(),
            MULTI_WINDOW_PAIRS,
            "the kernel must serve the whole burst — the check would be vacuous"
        );
        assert_eq!(slow.analytic_rounds(), 0, "reference kernels stay literal");
        assert!(!of_flips.is_empty(), "the charged weak cell never flipped");

        let (os, os_flips) = hammer_flips(&mut slow, &[a, b], MULTI_WINDOW_PAIRS);
        assert_eq!(of_flips, os_flips);
        assert_eq!(of.elapsed, os.elapsed);
        assert_eq!(fast.now(), slow.now());
        assert_eq!(fast.stats(), slow.stats());

        // The kernel must leave per-victim refresh bookkeeping exact: a
        // follow-up hammer carries over in-window disturbance identically.
        let (_, of2) = hammer_flips(&mut fast, &[a, b], 50_000);
        let (_, os2) = hammer_flips(&mut slow, &[a, b], 50_000);
        assert_eq!(of2, os2);
        assert_eq!(fast.now(), slow.now());
        assert_eq!(fast.stats(), slow.stats());
    }

    #[test]
    fn timing_engine_alone_changes_no_latency_flip_or_clock_byte() {
        // With the command clock on but no time-domain countermeasure, the
        // engine is observation-only: per-access latencies, flips, elapsed
        // time and every stat except the REF count are identical.
        let seed = 3;
        let mut plain = small_dev(seed);
        let mut timed =
            DramDevice::new(DramConfig::small().with_seed(seed).with_timing_engine(true));
        let (row, cell) = find_weak_row(&mut plain);
        for dev in [&mut plain, &mut timed] {
            let a = dev.mapping().coord_to_phys(coord(0, row - 1, 0));
            let hit = dev.mapping().coord_to_phys(coord(0, row - 1, 64));
            assert_eq!(dev.access(a), dev.config().timing.t_rc);
            assert_eq!(dev.access(hit), dev.config().timing.t_row_hit);
            assert!(hammer_known_cell(
                dev,
                row,
                cell,
                cell.threshold_acts() + 16
            ));
        }
        assert_eq!(plain.now(), timed.now());
        assert_eq!(plain.flips(), timed.flips());
        let mut t = timed.stats();
        assert!(t.refs > 0, "the tREFI scheduler never retired a REF");
        assert_eq!(
            t.refs,
            timed.now() / timed.config().timing.t_refi,
            "REF count must follow the tREFI closed form"
        );
        t.refs = 0;
        assert_eq!(plain.stats(), t, "timing engine perturbed a counter");
        let clock = timed.command_clock().expect("engine on");
        assert_eq!(clock.acts(), timed.stats().acts);
        assert!(clock.now() <= timed.now());
    }

    #[test]
    fn timed_bulk_kernel_matches_reference_kernels_with_clock() {
        // The kernel advances the command clock identically to the literal
        // chunk walk — full CommandClock equality, not just the data-plane
        // numbers — across a burst that flips.
        let cfg = DramConfig::small().with_seed(3).with_timing_engine(true);
        let mut fast = DramDevice::new(cfg);
        let mut slow = DramDevice::new(cfg.with_reference_kernels(true));
        let (row, cell) = find_weak_row(&mut fast);
        let fill = if cell.polarity.charged_value() {
            0xFF
        } else {
            0x00
        };
        let a = fast.mapping().coord_to_phys(coord(0, row - 1, 0));
        let b = fast.mapping().coord_to_phys(coord(0, row + 1, 0));
        let victim_addr = fast.mapping().coord_to_phys(coord(0, row, 0));
        let row_bytes = fast.config().geometry.row_bytes as u64;
        fast.fill(victim_addr, row_bytes, fill);
        slow.fill(victim_addr, row_bytes, fill);

        let (of, of_flips) = hammer_flips(&mut fast, &[a, b], MULTI_WINDOW_PAIRS);
        let (os, os_flips) = hammer_flips(&mut slow, &[a, b], MULTI_WINDOW_PAIRS);
        assert!(fast.analytic_rounds() > 0, "the kernel never engaged");
        assert!(!of_flips.is_empty(), "the charged weak cell never flipped");
        assert_eq!(of_flips, os_flips);
        assert_eq!(of.elapsed, os.elapsed);
        assert_eq!(fast.now(), slow.now());
        assert_eq!(fast.stats(), slow.stats());
        assert_eq!(
            fast.command_clock(),
            slow.command_clock(),
            "the kernel left the command clock off the literal schedule"
        );
        assert!(fast.stats().refs > 0);
    }

    #[test]
    fn para_suppresses_double_sided_hammering() {
        let seed = 3;
        let (row, cell) = find_weak_row(&mut small_dev(seed));
        let mut dev = DramDevice::new(
            DramConfig::small()
                .with_seed(seed)
                .with_timing_engine(true)
                .with_para(Some(ParaParams::para_2014())),
        );
        assert!(
            !hammer_known_cell(&mut dev, row, cell, cell.threshold_acts() + 16),
            "PARA failed to suppress the known flip"
        );
        assert!(dev.para_refreshes() > 0, "PARA never fired");
        assert_eq!(dev.stats().para_refreshes, dev.para_refreshes());
        assert_eq!(dev.stats().flips, 0);
    }

    #[test]
    fn rfm_suppresses_double_sided_hammering() {
        let seed = 3;
        let (row, cell) = find_weak_row(&mut small_dev(seed));
        let mut dev = DramDevice::new(
            DramConfig::small()
                .with_seed(seed)
                .with_timing_engine(true)
                .with_rfm(Some(RfmParams::ddr5_like())),
        );
        assert!(
            !hammer_known_cell(&mut dev, row, cell, cell.threshold_acts() + 16),
            "RFM failed to suppress the known flip"
        );
        assert!(dev.rfm_commands() > 0, "RFM never fired");
        assert_eq!(dev.stats().rfm_commands, dev.rfm_commands());
        assert_eq!(dev.stats().flips, 0);
    }

    #[test]
    fn bulk_kernel_stays_off_under_para_and_rfm() {
        // PARA/RFM triggers do not follow the refresh and TRR schedule the
        // kernel walks, so the burst must stay on the literal walk
        // (chunked at trigger bounds).
        for cm in ["para", "rfm"] {
            let mut cfg = DramConfig::small().with_seed(3).with_timing_engine(true);
            cfg = match cm {
                "para" => cfg.with_para(Some(ParaParams::para_2014())),
                _ => cfg.with_rfm(Some(RfmParams::ddr5_like())),
            };
            let mut dev = DramDevice::new(cfg);
            let (row, _) = find_weak_row(&mut dev);
            let a = dev.mapping().coord_to_phys(coord(0, row - 1, 0));
            let b = dev.mapping().coord_to_phys(coord(0, row + 1, 0));
            dev.hammer_rows(&[a, b], MULTI_WINDOW_PAIRS).unwrap();
            assert_eq!(dev.analytic_rounds(), 0, "the kernel engaged under {cm}");
        }
    }

    #[test]
    #[should_panic(expected = "require the timing engine")]
    fn para_without_timing_engine_is_rejected() {
        DramDevice::new(DramConfig::small().with_para(Some(ParaParams::para_2014())));
    }

    #[test]
    fn snapshot_equality_covers_every_state_family() {
        let cfg = DramConfig::small()
            .with_trr(Some(TrrParams::ddr4_like()))
            .with_ecc(EccMode::Secded)
            .with_timing_engine(true)
            .with_para(Some(ParaParams::para_2014()))
            .with_rfm(Some(RfmParams::ddr5_like()));
        let mut dev = DramDevice::new(cfg);
        let (row, cell) = find_weak_row(&mut dev);
        type Mutation = fn(&mut DramDevice);
        let families: [(&str, Mutation); 12] = [
            ("config", |d| d.config.reference_kernels = true),
            ("data byte", |d| d.mem.write_byte(PhysAddr::new(0x40), 0x5A)),
            ("open row", |d| assert!(d.banks[1].activate(7))),
            ("disturbance", |d| {
                d.banks[2].add_disturbance(9, 1, 0, &Refresh::new(&DramTiming::ddr3_1600()));
            }),
            ("flip log", |d| {
                d.flip_log.push(FlipEvent {
                    addr: PhysAddr::new(0),
                    bit: 0,
                    coord: DramCoord::default(),
                    polarity: CellPolarity::True,
                    time: 0,
                })
            }),
            ("now", |d| d.now += 1),
            ("stats", |d| d.stats.reads += 1),
            ("TRR sampler", |d| {
                d.trr.as_mut().unwrap().record_act(0, 7);
            }),
            ("SECDED tracker", |d| {
                d.ecc.as_mut().unwrap().note_flip(3, 0)
            }),
            ("command clock", |d| {
                d.clock.as_mut().unwrap().drain_refreshes(1 << 30);
            }),
            ("PARA", |d| d.para.as_mut().unwrap().advance(1, |_| {})),
            ("RFM", |d| {
                d.rfm.as_mut().unwrap().record_acts(0, &[3], 1);
            }),
        ];
        for (family, mutate) in families {
            let mut clone = dev.clone();
            assert!(clone == dev, "a fresh clone differs ({family})");
            mutate(&mut clone);
            assert!(clone != dev, "equality misses the {family}");
        }

        // Clones share the weak-cell memo: a row one generates, all see.
        let clone = dev.clone();
        let generated = dev.weak_rows_generated();
        clone.weak_cells_at(dev.mapping().coord_to_phys(coord(3, row, 0)));
        assert_eq!(dev.weak_rows_generated(), generated + 1);

        // The diagnostic counter and the kernel's scratch list are not state.
        let mut clone = dev.clone();
        clone.analytic_rounds += 5;
        clone.kernel_flips.0.push((0, 0, 0, cell));
        assert!(clone == dev);
        assert!(clone.clone().kernel_flips.0.is_empty());
    }

    #[test]
    fn timed_snapshot_roundtrips_countermeasure_state() {
        let cfg = DramConfig::small()
            .with_seed(9)
            .with_timing_engine(true)
            .with_para(Some(ParaParams::para_2014()))
            .with_rfm(Some(RfmParams::ddr5_like()));
        let mut dev = DramDevice::new(cfg);
        let a = dev.mapping().coord_to_phys(coord(0, 40, 0));
        let b = dev.mapping().coord_to_phys(coord(0, 42, 0));
        dev.hammer_rows(&[a, b], 30_000).unwrap();
        let snap = dev.clone();
        let (cont, cont_flips) = hammer_flips(&mut dev, &[a, b], 30_000);
        let (fork_cont, fork_flips) = hammer_flips(&mut snap.clone(), &[a, b], 30_000);
        assert_eq!(cont_flips, fork_flips);
        assert_eq!(cont.elapsed, fork_cont.elapsed);
        dev.clone_from(&snap);
        assert!(dev == snap, "restore is not byte-identical");
        let (replay, replay_flips) = hammer_flips(&mut dev, &[a, b], 30_000);
        assert_eq!(replay_flips, cont_flips);
        assert_eq!(replay.elapsed, cont.elapsed);
    }
}
