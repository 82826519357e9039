//! DRAM timing parameters, the per-bank command clock, and the time-domain
//! countermeasure engines (PARA and RFM).
//!
//! The [`DramTiming`] struct is the single source of truth for every
//! time-derived constant in the model: the refresh window, the activation
//! budget ([`DramTiming::max_acts_per_window`]), the TRR sampler threshold
//! ([`crate::TrrParams::for_timing`]) and the adaptive attacker's
//! many-sided width budget ([`crate::WeakCellParams::max_feasible_rows`])
//! are all derived from it.
//!
//! [`CommandClock`] is the cycle-approximate command state machine: it
//! schedules ACT/PRE/RD commands per bank and rank, enforcing tRC, tRAS,
//! tRP and tFAW, keeps a monotone command clock, and runs the tREFI-driven
//! refresh scheduler (one REF per tREFI, round-robin over the refresh
//! groups). [`ParaEngine`] and [`RfmEngine`] are the countermeasures that
//! only exist in this time domain: probabilistic adjacent-row refresh and
//! DDR5-style Refresh Management with per-bank rolling activation counters.

use crate::divisor::Divisor;

/// Simulated time in nanoseconds.
pub type Nanos = u64;

/// Timing parameters of the DRAM device.
///
/// Defaults follow DDR3-1600 datasheets: a full row cycle (`ACT`→`PRE`→`ACT`)
/// of ~46 ns, refresh commands every 7.8 µs, and the whole array refreshed
/// every 64 ms in 8192 staggered groups. Rowhammer is a race against these
/// numbers: disturbance must cross a cell's threshold before the victim row's
/// next refresh, which is what bounds the achievable activations per window.
///
/// The fine-grained command parameters decompose the row cycle:
/// `t_ras + t_rp == t_rc`, and `t_faw <= 3 * t_rc` (four-activate window),
/// which the command clock relies on — same-bank hammering issues at most
/// one ACT per `t_rc`, so tFAW can never stall the hammer train. Presets
/// satisfy both; [`CommandClock`] and the device assert them.
///
/// # Examples
///
/// ```
/// use dram::DramTiming;
/// let t = DramTiming::ddr3_1600();
/// // ~64 ms refresh window:
/// assert_eq!(t.refresh_window(), t.t_refi * t.refresh_groups as u64);
/// assert_eq!(t.t_ras + t.t_rp, t.t_rc);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramTiming {
    /// Row cycle time: minimum time between two ACTs to the same bank (ns).
    pub t_rc: Nanos,
    /// Minimum time a row must stay open: ACT to PRE of the same bank (ns).
    pub t_ras: Nanos,
    /// Row precharge time: PRE to the next ACT of the same bank (ns).
    pub t_rp: Nanos,
    /// Four-activate window: any four ACTs to one rank must span at least
    /// this much time (ns).
    pub t_faw: Nanos,
    /// Column access on an open row (row-buffer hit) (ns).
    pub t_row_hit: Nanos,
    /// Average refresh command interval (ns).
    pub t_refi: Nanos,
    /// Number of refresh groups covering the whole array.
    pub refresh_groups: u32,
}

impl DramTiming {
    /// DDR3-1600 timing set.
    pub const fn ddr3_1600() -> Self {
        DramTiming {
            t_rc: 46,
            t_ras: 35,
            t_rp: 11,
            t_faw: 30,
            t_row_hit: 15,
            t_refi: 7_812,
            refresh_groups: 8192,
        }
    }

    /// Time to refresh every row once (the refresh window, ~64 ms).
    pub const fn refresh_window(&self) -> Nanos {
        self.t_refi * self.refresh_groups as u64
    }

    /// Maximum single-row activations achievable inside one refresh window,
    /// assuming back-to-back row-conflict accesses (the hammering rate bound).
    pub const fn max_acts_per_window(&self) -> u64 {
        self.refresh_window() / self.t_rc
    }

    /// Whether the fine-grained command parameters are mutually consistent:
    /// the row cycle decomposes exactly (`t_ras + t_rp == t_rc`) and tFAW
    /// cannot stall a same-bank hammer train (`t_faw <= 3 * t_rc`).
    pub const fn commands_consistent(&self) -> bool {
        self.t_ras + self.t_rp == self.t_rc && self.t_faw <= 3 * self.t_rc
    }

    /// Returns a copy with the refresh interval scaled by `factor` — the
    /// standard Rowhammer mitigation (e.g. `0.5` doubles the refresh rate).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn with_refresh_scale(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "refresh scale must be positive"
        );
        self.t_refi = ((self.t_refi as f64) * factor).max(1.0) as Nanos;
        self
    }
}

impl Default for DramTiming {
    fn default() -> Self {
        Self::ddr3_1600()
    }
}

/// Per-bank command protocol state tracked by [`CommandClock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct BankCmd {
    /// Start time of the most recent ACT.
    act_at: Nanos,
    /// Completion time of the most recent PRE.
    pre_done: Nanos,
    /// Whether a row is currently open.
    open: bool,
    /// Whether the bank has ever been activated (gates ACT-relative rules).
    activated: bool,
}

/// Per-rank window of the last four ACT start times, oldest first, for
/// tFAW enforcement. The layout depends only on the ACTs pushed, never on
/// how a train was split into pushes, so one bulk train and the same train
/// in chunks leave equal rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct FawRing {
    starts: [Nanos; 4],
    len: u8,
}

impl FawRing {
    /// Earliest time the next ACT may start under tFAW.
    fn ready(&self, t_faw: Nanos) -> Nanos {
        if self.len < 4 {
            return 0;
        }
        self.starts[0] + t_faw
    }

    fn push(&mut self, start: Nanos) {
        if self.len < 4 {
            self.starts[self.len as usize] = start;
            self.len += 1;
        } else {
            self.starts.copy_within(1.., 0);
            self.starts[3] = start;
        }
    }
}

/// The per-bank/per-rank DRAM command state machine.
///
/// Every command takes a *requested* issue time and returns the actual
/// (possibly later) start time that satisfies the protocol:
///
/// - ACT→ACT, same bank: at least `t_rc` apart.
/// - ACT→PRE, same bank: the row stays open at least `t_ras`.
/// - PRE→ACT, same bank: the next ACT waits `t_rp` after the PRE.
/// - Any four ACTs to one rank span at least `t_faw`.
/// - The command clock is monotone: no command issues before an earlier one.
///
/// The clock also runs the tREFI refresh scheduler: one REF command is due
/// every `t_refi`, retiring one refresh group per command in round-robin
/// order — group `g` is refreshed at times `g * t_refi + k * refresh_window`,
/// exactly the staggered per-group schedule the lazy disturbance-window
/// accounting in the bank layer assumes. [`CommandClock::drain_refreshes`]
/// retires all due REFs in O(1).
///
/// On the device's sequential access path the returned start always equals
/// the requested time (the data-plane `t_rc`/`t_row_hit` charges already
/// space commands legally); the device asserts this. Arbitrary command
/// sequences — the property tests drive these directly — get bumped to the
/// earliest legal slot instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandClock {
    timing: DramTiming,
    /// `timing.t_refi`, for the per-access refresh drain.
    refi: Divisor,
    banks_per_rank: u32,
    now: Nanos,
    banks: Vec<BankCmd>,
    faw: Vec<FawRing>,
    acts: u64,
    pres: u64,
    reads: u64,
    refs: u64,
}

impl CommandClock {
    /// A clock for `ranks * banks_per_rank` banks at time zero.
    ///
    /// # Panics
    ///
    /// Panics if either dimension or `timing.t_refi` is zero.
    pub fn new(timing: DramTiming, ranks: u32, banks_per_rank: u32) -> Self {
        assert!(ranks > 0 && banks_per_rank > 0, "empty module");
        CommandClock {
            timing,
            refi: Divisor::new(timing.t_refi),
            banks_per_rank,
            now: 0,
            banks: vec![BankCmd::default(); (ranks * banks_per_rank) as usize],
            faw: vec![FawRing::default(); ranks as usize],
            acts: 0,
            pres: 0,
            reads: 0,
            refs: 0,
        }
    }

    fn idx(&self, rank: u32, bank: u32) -> usize {
        debug_assert!(bank < self.banks_per_rank);
        (rank * self.banks_per_rank + bank) as usize
    }

    /// The timing parameters the clock enforces.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    /// Current command-clock time: the issue time of the latest command.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// ACT commands issued.
    pub fn acts(&self) -> u64 {
        self.acts
    }

    /// PRE commands issued.
    pub fn pres(&self) -> u64 {
        self.pres
    }

    /// REF commands retired by the refresh scheduler.
    pub fn refresh_commands(&self) -> u64 {
        self.refs
    }

    /// The refresh group the *next* REF command will retire.
    pub fn refresh_group_cursor(&self) -> u32 {
        (self.refs % u64::from(self.timing.refresh_groups)) as u32
    }

    /// Issues an ACT to `(rank, bank)`, no earlier than `requested`;
    /// returns the actual start time. An open row is implicitly precharged
    /// first (open-page controller behaviour).
    pub fn activate(&mut self, rank: u32, bank: u32, requested: Nanos) -> Nanos {
        let i = self.idx(rank, bank);
        let mut start = requested.max(self.now);
        if self.banks[i].open {
            let pre = self.precharge(rank, bank, start);
            start = start.max(pre + self.timing.t_rp);
        }
        let b = self.banks[i];
        start = start.max(b.pre_done);
        if b.activated {
            start = start.max(b.act_at + self.timing.t_rc);
        }
        start = start.max(self.faw[rank as usize].ready(self.timing.t_faw));
        let b = &mut self.banks[i];
        b.act_at = start;
        b.open = true;
        b.activated = true;
        self.faw[rank as usize].push(start);
        self.acts += 1;
        self.now = start;
        start
    }

    /// Issues a PRE to `(rank, bank)`, no earlier than `requested`; returns
    /// the actual start time (the bank is usable again `t_rp` later).
    pub fn precharge(&mut self, rank: u32, bank: u32, requested: Nanos) -> Nanos {
        let i = self.idx(rank, bank);
        let mut start = requested.max(self.now);
        if self.banks[i].activated {
            start = start.max(self.banks[i].act_at + self.timing.t_ras);
        }
        let b = &mut self.banks[i];
        b.pre_done = start + self.timing.t_rp;
        b.open = false;
        self.pres += 1;
        self.now = start;
        start
    }

    /// Issues a column read on `(rank, bank)`, no earlier than `requested`;
    /// activates the bank first if no row is open. Returns the command start
    /// time (data is available `t_row_hit` later).
    pub fn column_read(&mut self, rank: u32, bank: u32, requested: Nanos) -> Nanos {
        let i = self.idx(rank, bank);
        let mut start = requested.max(self.now);
        if !self.banks[i].open {
            let act = self.activate(rank, bank, start);
            start = start.max(act);
        }
        self.reads += 1;
        self.now = self.now.max(start);
        start
    }

    /// The device's bundled row-miss access: PRE at `requested`, ACT at
    /// `requested + t_rp`, data restored at `requested + t_rc`. Returns the
    /// completion time.
    ///
    /// On the sequential device path the data-plane accounting already
    /// spaces misses at least `t_rc` apart, so the bundle never stalls; the
    /// caller asserts the returned completion equals `requested + t_rc`.
    pub fn miss_access(&mut self, rank: u32, bank: u32, requested: Nanos) -> Nanos {
        let pre = self.precharge(rank, bank, requested);
        let act = self.activate(rank, bank, pre + self.timing.t_rp);
        act + self.timing.t_ras
    }

    /// Records a bulk hammer train: `acts` row activations on `(rank, bank)`
    /// uniformly spaced `t_rc` apart, the first PRE issuing at `start`.
    /// O(1): only the final bank/rank state is materialised.
    ///
    /// # Panics
    ///
    /// Panics if `acts` is zero. Debug-asserts the train is protocol-legal
    /// given the bank's prior state (the bulk hammer path guarantees this by
    /// spacing chunks with the same `t_rc` arithmetic).
    pub fn bulk_acts(&mut self, rank: u32, bank: u32, start: Nanos, acts: u64) {
        assert!(acts > 0, "a hammer train contains at least one ACT");
        let i = self.idx(rank, bank);
        let t = self.timing;
        debug_assert!(start >= self.now, "bulk train starts in the past");
        debug_assert!(
            !self.banks[i].activated || start + t.t_rp >= self.banks[i].act_at + t.t_rc,
            "bulk train violates tRC against the bank's previous ACT"
        );
        debug_assert!(t.commands_consistent(), "inconsistent command timing");
        let last_act = start + (acts - 1) * t.t_rc + t.t_rp;
        let b = &mut self.banks[i];
        b.act_at = last_act;
        b.pre_done = last_act; // last PRE at last_act - t_rp, done at last_act
        b.open = true;
        b.activated = true;
        let ring = &mut self.faw[rank as usize];
        for k in (0..acts.min(4)).rev() {
            ring.push(last_act - k * t.t_rc);
        }
        self.acts += acts;
        self.pres += acts;
        self.now = self.now.max(last_act);
    }

    /// Retires every REF command due by `now` (one per elapsed `t_refi`) in
    /// O(1) and returns how many were issued. REF `n` retires refresh group
    /// `n % refresh_groups` at time `n * t_refi`, so group `g` is refreshed
    /// at `g * t_refi + k * refresh_window` — the staggered schedule the
    /// bank layer's windowed disturbance accounting implements.
    pub fn drain_refreshes(&mut self, now: Nanos) -> u64 {
        let due = self.refi.div(now);
        let drained = due.saturating_sub(self.refs);
        self.refs = self.refs.max(due);
        drained
    }

    /// REF commands due by `now` under the tREFI schedule — the closed form
    /// `drain_refreshes` maintains.
    pub const fn refs_due_by(timing: &DramTiming, now: Nanos) -> u64 {
        now / timing.t_refi
    }
}

/// SplitMix64 — the counter-keyed generator behind the PARA sampler.
const fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Parameters of PARA (Probabilistic Adjacent Row Activation, Kim et al.
/// ISCA 2014): on every ACT the memory controller refreshes the activated
/// row's neighbours with a small probability `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParaParams {
    /// Mean ACTs between two probabilistic refreshes (`1/p`).
    pub mean_acts_per_refresh: u32,
}

impl ParaParams {
    /// The PARA paper's recommended operating point, `p = 0.001`.
    pub const fn para_2014() -> Self {
        ParaParams {
            mean_acts_per_refresh: 1000,
        }
    }

    /// Returns a copy with a different refresh probability (`1/mean`).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is zero.
    #[must_use]
    pub fn with_mean_acts_per_refresh(mut self, mean: u32) -> Self {
        assert!(mean > 0, "mean ACT interval must be positive");
        self.mean_acts_per_refresh = mean;
        self
    }
}

impl Default for ParaParams {
    fn default() -> Self {
        Self::para_2014()
    }
}

/// The PARA countermeasure state: a deterministic, counter-keyed sampler
/// over the global ACT stream.
///
/// Instead of drawing one Bernoulli per ACT, the engine samples the *gap*
/// to the next refreshing ACT geometrically (inverse-transform over a
/// SplitMix64 stream keyed on the device seed and a draw counter), so bulk
/// hammer chunks advance past quiet stretches in O(1) and split exactly at
/// refreshing ACTs. Per seed the hit sequence is a pure function of the ACT
/// index, independent of how the stream is chunked.
#[derive(Debug, Clone, PartialEq)]
pub struct ParaEngine {
    params: ParaParams,
    seed: u64,
    acts: u64,
    draws: u64,
    next_hit: u64,
    refreshes: u64,
}

impl ParaEngine {
    /// A fresh sampler keyed on `seed`.
    pub fn new(params: ParaParams, seed: u64) -> Self {
        let mut engine = ParaEngine {
            params,
            seed,
            acts: 0,
            draws: 0,
            next_hit: 0,
            refreshes: 0,
        };
        engine.next_hit = engine.draw_gap() - 1; // first hit's 0-based ACT index
        engine
    }

    /// One geometric gap (≥ 1) with mean `mean_acts_per_refresh`.
    fn draw_gap(&mut self) -> u64 {
        let word = splitmix64(self.seed ^ splitmix64(self.draws.wrapping_add(0x5CA1_AB1E)));
        self.draws += 1;
        // 53-bit uniform in [0, 1).
        let u = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let p = 1.0 / f64::from(self.params.mean_acts_per_refresh);
        let gap = (1.0 - u).ln() / (1.0 - p).ln();
        1 + (gap as u64).min(u64::MAX / 4)
    }

    /// The sampler parameters.
    pub fn params(&self) -> &ParaParams {
        &self.params
    }

    /// Probabilistic neighbour refreshes issued so far.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// ACTs that can be issued before the next refreshing ACT (0 means the
    /// very next ACT refreshes its neighbours). Bulk hammer chunks are
    /// capped by this so a refresh never lands inside an aggregated chunk.
    pub fn acts_until_hit(&self) -> u64 {
        self.next_hit - self.acts
    }

    /// Advances the stream by `n` ACTs, invoking `on_hit(offset)` for every
    /// refreshing ACT at 0-based `offset` within the batch, in order.
    pub fn advance(&mut self, n: u64, mut on_hit: impl FnMut(u64)) {
        let end = self.acts + n;
        while self.next_hit < end {
            self.refreshes += 1;
            on_hit(self.next_hit - self.acts);
            let gap = self.draw_gap();
            self.next_hit += gap;
        }
        self.acts = end;
    }
}

/// Parameters of DDR5-style Refresh Management (RFM): every bank keeps a
/// Rolling Accumulated ACT (RAA) counter, and once it reaches `raaimt` the
/// controller issues an RFM command, giving the module time to refresh the
/// neighbours of the rows it sampled since the last RFM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RfmParams {
    /// RAA Initial Management Threshold: bank ACTs per RFM command.
    pub raaimt: u32,
    /// Per-bank sampler capacity (rows remembered between RFM commands).
    pub table_size: u32,
    /// Neighbour radius refreshed around each sampled row on RFM.
    pub radius: u32,
}

impl RfmParams {
    /// A representative DDR5 configuration: an RFM every 2048 bank ACTs,
    /// a 16-row sampler, blast-radius-2 neighbour refresh.
    pub const fn ddr5_like() -> Self {
        RfmParams {
            raaimt: 2048,
            table_size: 16,
            radius: 2,
        }
    }

    /// Returns a copy with a different RAA threshold.
    ///
    /// # Panics
    ///
    /// Panics if `raaimt` is zero.
    #[must_use]
    pub fn with_raaimt(mut self, raaimt: u32) -> Self {
        assert!(raaimt > 0, "RAA threshold must be positive");
        self.raaimt = raaimt;
        self
    }
}

impl Default for RfmParams {
    fn default() -> Self {
        Self::ddr5_like()
    }
}

/// One bank's RFM state: the RAA counter and the sampled-row table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct RfmBank {
    raa: u64,
    /// Sampled `(row, acts)` pairs since the last RFM, FIFO-capped.
    rows: Vec<(u32, u64)>,
}

/// The RFM countermeasure state across all banks of a device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RfmEngine {
    params: RfmParams,
    banks: Vec<RfmBank>,
    commands: u64,
}

impl RfmEngine {
    /// A fresh engine covering `num_banks` banks.
    pub fn new(params: RfmParams, num_banks: usize) -> Self {
        assert!(params.raaimt > 0, "RAA threshold must be positive");
        RfmEngine {
            params,
            banks: vec![RfmBank::default(); num_banks],
            commands: 0,
        }
    }

    /// The engine parameters.
    pub fn params(&self) -> &RfmParams {
        &self.params
    }

    /// RFM commands issued so far.
    pub fn commands(&self) -> u64 {
        self.commands
    }

    /// ACTs the bank can still absorb before the next RFM command fires
    /// (0 means the very next ACT triggers one). Bulk hammer chunks are
    /// capped by this so a trigger never lands inside an aggregated chunk.
    pub fn acts_until_rfm(&self, bank: usize) -> u64 {
        u64::from(self.params.raaimt).saturating_sub(self.banks[bank].raa)
    }

    /// Records `per_row` ACTs for each of `rows` on `bank`. If the RAA
    /// counter crosses the threshold, an RFM command fires: the sampled
    /// rows are drained and returned for neighbour refresh, and the counter
    /// is decremented by the threshold.
    pub fn record_acts(&mut self, bank: usize, rows: &[u32], per_row: u64) -> Option<Vec<u32>> {
        let table_size = self.params.table_size as usize;
        let state = &mut self.banks[bank];
        for &row in rows {
            if let Some(entry) = state.rows.iter_mut().find(|(r, _)| *r == row) {
                entry.1 += per_row;
            } else {
                if state.rows.len() == table_size {
                    state.rows.remove(0);
                }
                state.rows.push((row, per_row));
            }
        }
        state.raa += rows.len() as u64 * per_row;
        if state.raa < u64::from(self.params.raaimt) {
            return None;
        }
        while state.raa >= u64::from(self.params.raaimt) {
            state.raa -= u64::from(self.params.raaimt);
            self.commands += 1;
        }
        Some(state.rows.drain(..).map(|(row, _)| row).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr3_window_is_about_64ms() {
        let t = DramTiming::ddr3_1600();
        let win = t.refresh_window();
        assert!(
            (63_000_000..=65_000_000).contains(&win),
            "window was {win} ns"
        );
    }

    #[test]
    fn max_acts_exceeds_typical_thresholds() {
        // Kim et al. report first flips around 139K activations on the worst
        // modules and ~50K on many; the bound must comfortably exceed that.
        let t = DramTiming::ddr3_1600();
        assert!(t.max_acts_per_window() > 1_000_000);
    }

    #[test]
    fn refresh_scale_halves_window() {
        let t = DramTiming::ddr3_1600().with_refresh_scale(0.5);
        assert!(t.refresh_window() < DramTiming::ddr3_1600().refresh_window());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn refresh_scale_rejects_zero() {
        DramTiming::ddr3_1600().with_refresh_scale(0.0);
    }

    #[test]
    fn command_parameters_decompose_the_row_cycle() {
        let t = DramTiming::ddr3_1600();
        assert!(t.commands_consistent());
        assert_eq!(t.t_ras + t.t_rp, t.t_rc);
        assert!(t.t_faw <= 3 * t.t_rc);
    }

    #[test]
    fn same_bank_acts_are_spaced_by_trc() {
        let t = DramTiming::ddr3_1600();
        let mut clock = CommandClock::new(t, 1, 8);
        let first = clock.activate(0, 0, 0);
        assert_eq!(first, 0);
        // Requested immediately: bumped to tRC (implicit PRE honours tRAS).
        let second = clock.activate(0, 0, 0);
        assert!(second >= first + t.t_rc, "second ACT at {second}");
        assert_eq!(clock.acts(), 2);
    }

    #[test]
    fn precharge_waits_for_tras() {
        let t = DramTiming::ddr3_1600();
        let mut clock = CommandClock::new(t, 1, 8);
        let act = clock.activate(0, 3, 100);
        let pre = clock.precharge(0, 3, act);
        assert_eq!(pre, act + t.t_ras);
        // And the next ACT waits tRP after the precharge.
        let act2 = clock.activate(0, 3, pre);
        assert_eq!(act2, pre + t.t_rp);
    }

    #[test]
    fn faw_throttles_bursts_across_banks() {
        // Stretch tFAW so it actually binds: four instant ACTs to distinct
        // banks of one rank, then the fifth must wait for the window.
        let t = DramTiming {
            t_faw: 1_000,
            ..DramTiming::ddr3_1600()
        };
        let mut clock = CommandClock::new(t, 2, 8);
        let starts: Vec<Nanos> = (0..4).map(|b| clock.activate(0, b, 0)).collect();
        // A different rank has its own window: not throttled by rank 0's.
        let other = clock.activate(1, 0, 0);
        assert!(other < starts[0] + t.t_faw);
        let fifth = clock.activate(0, 4, 0);
        assert!(fifth >= starts[0] + t.t_faw, "fifth ACT at {fifth}");
    }

    #[test]
    fn miss_access_never_stalls_on_the_sequential_path() {
        let t = DramTiming::ddr3_1600();
        let mut clock = CommandClock::new(t, 1, 8);
        let mut now = 0;
        for _ in 0..10 {
            let done = clock.miss_access(0, 2, now);
            assert_eq!(done, now + t.t_rc, "bundled miss stalled");
            now = done;
        }
        assert_eq!(clock.acts(), 10);
        assert_eq!(clock.pres(), 10);
    }

    #[test]
    fn bulk_train_matches_singleton_misses() {
        let t = DramTiming::ddr3_1600();
        let mut singles = CommandClock::new(t, 1, 8);
        let mut now = 0;
        for _ in 0..16 {
            now = singles.miss_access(0, 5, now);
        }
        let mut bulk = CommandClock::new(t, 1, 8);
        bulk.bulk_acts(0, 5, 0, 16);
        assert_eq!(bulk, singles, "bulk train diverged from singleton misses");
    }

    #[test]
    fn chunked_train_equals_one_train() {
        // The closed-form hammer path issues a burst as one train where the
        // literal walk issues it in chunks of any size — including 2- and
        // 3-ACT chunks that only partly refill the tFAW ring.
        let t = DramTiming::ddr3_1600();
        let mut whole = CommandClock::new(t, 1, 8);
        whole.bulk_acts(0, 3, 0, 41);
        let mut chunked = CommandClock::new(t, 1, 8);
        let mut start = 0;
        for acts in [2, 3, 10, 2, 2, 5, 3, 14] {
            chunked.bulk_acts(0, 3, start, acts);
            start += acts * t.t_rc;
        }
        assert_eq!(chunked, whole, "chunking changed the command state");
    }

    #[test]
    fn refresh_scheduler_drains_in_closed_form() {
        let t = DramTiming::ddr3_1600();
        let mut clock = CommandClock::new(t, 1, 8);
        assert_eq!(clock.drain_refreshes(t.t_refi - 1), 0);
        assert_eq!(clock.drain_refreshes(t.t_refi), 1);
        assert_eq!(clock.refresh_group_cursor(), 1);
        let horizon = 10 * t.refresh_window();
        let drained = clock.drain_refreshes(horizon);
        assert_eq!(
            clock.refresh_commands(),
            CommandClock::refs_due_by(&t, horizon)
        );
        assert_eq!(drained + 1, clock.refresh_commands());
        // Round-robin cursor wraps over the groups.
        assert_eq!(
            clock.refresh_group_cursor(),
            (clock.refresh_commands() % u64::from(t.refresh_groups)) as u32
        );
        // Draining the same horizon again is a no-op.
        assert_eq!(clock.drain_refreshes(horizon), 0);
    }

    #[test]
    fn para_sampler_is_deterministic_and_chunk_invariant() {
        let params = ParaParams::para_2014().with_mean_acts_per_refresh(64);
        let collect = |chunks: &[u64]| {
            let mut engine = ParaEngine::new(params, 7);
            let mut hits = Vec::new();
            let mut base = 0u64;
            for &n in chunks {
                engine.advance(n, |off| hits.push(base + off));
                base += n;
            }
            hits
        };
        let whole = collect(&[10_000]);
        let split = collect(&[1, 999, 3_000, 6_000]);
        assert_eq!(whole, split, "hit indices depend on chunking");
        assert!(!whole.is_empty());
        // Mean gap in the right ballpark for a geometric with mean 64.
        let mean = 10_000.0 / whole.len() as f64;
        assert!((32.0..128.0).contains(&mean), "mean gap was {mean}");
        // Different seeds give different hit sequences.
        let mut other = ParaEngine::new(params, 8);
        let mut other_hits = Vec::new();
        other.advance(10_000, |off| other_hits.push(off));
        assert_ne!(whole, other_hits);
    }

    #[test]
    fn para_acts_until_hit_caps_chunks_exactly() {
        let params = ParaParams::para_2014().with_mean_acts_per_refresh(32);
        let mut engine = ParaEngine::new(params, 3);
        for _ in 0..50 {
            let quiet = engine.acts_until_hit();
            let mut hits = 0;
            engine.advance(quiet, |_| hits += 1);
            assert_eq!(hits, 0, "a hit landed inside the quiet stretch");
            engine.advance(1, |off| {
                assert_eq!(off, 0);
                hits += 1;
            });
            assert_eq!(hits, 1, "the ACT after the quiet stretch must refresh");
        }
        assert_eq!(engine.refreshes(), 50);
    }

    #[test]
    fn rfm_fires_at_the_raa_threshold_and_drains_the_table() {
        let params = RfmParams::ddr5_like().with_raaimt(100);
        let mut engine = RfmEngine::new(params, 4);
        assert_eq!(engine.acts_until_rfm(2), 100);
        // 49 rounds of two aggressors: 98 ACTs, no trigger.
        let fired = engine.record_acts(2, &[10, 12], 49);
        assert!(fired.is_none());
        assert_eq!(engine.acts_until_rfm(2), 2);
        // One more round crosses the threshold.
        let fired = engine.record_acts(2, &[10, 12], 1).expect("RFM fires");
        assert_eq!(fired, vec![10, 12]);
        assert_eq!(engine.commands(), 1);
        // The counter keeps the residue and the table restarts empty.
        assert_eq!(engine.acts_until_rfm(2), 100);
        // Other banks are independent.
        assert_eq!(engine.acts_until_rfm(0), 100);
    }

    #[test]
    fn rfm_table_caps_at_the_configured_size() {
        let params = RfmParams {
            raaimt: 10_000,
            table_size: 4,
            radius: 2,
        };
        let mut engine = RfmEngine::new(params, 1);
        for row in 0..8u32 {
            assert!(engine.record_acts(0, &[row], 1).is_none());
        }
        // Force a trigger and observe only the 4 most recent rows survive.
        let fired = engine.record_acts(0, &[99], 10_000).expect("RFM fires");
        assert_eq!(fired, vec![5, 6, 7, 99]);
    }
}
