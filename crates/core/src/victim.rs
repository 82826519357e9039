//! The victim: a cipher service whose lookup tables live in one page of
//! (steered) memory.

use ciphers::{
    expand_key, present80_encrypt, present80_round_keys, sbox_aes_byte_reads, sbox_aes_encrypt,
    ttable_aes_byte_reads, ttable_aes_encrypt, words_aes_encrypt, words_aes_encrypt_blocks,
    AesKeySize, AesWordTables, RoundKeys, TableSource, PRESENT80_BYTE_READS,
};
use machine::{MachineError, Pid, ReadRun, SimMachine, VirtAddr};
use memsim::{CpuId, Pfn, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::VictimCipherKind;
use crate::memsource::MachineTableSource;

/// Secret keys of a victim service (ground truth held by the experiment
/// harness, never read by the attack code).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimKeys {
    /// AES-128 key.
    pub aes: [u8; 16],
    /// PRESENT-80 key.
    pub present: [u8; 10],
}

impl VictimKeys {
    /// Derives keys from a seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC2_E7C0_FFEE);
        VictimKeys {
            aes: rng.gen(),
            present: rng.gen(),
        }
    }
}

/// A running victim process serving encryptions with in-memory tables.
///
/// `start` maps a single page and installs the cipher's table image with the
/// service's *first touch* — which is the exact moment the kernel hands it
/// the head of the CPU's page frame cache (the attack's steered frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimCipherService {
    pid: Pid,
    cpu: CpuId,
    base: VirtAddr,
    kind: VictimCipherKind,
    keys: VictimKeys,
}

impl VictimCipherService {
    /// Spawns the victim on `cpu` and installs its table page.
    ///
    /// # Errors
    ///
    /// Propagates machine errors (OOM on the table page's first touch).
    pub fn start(
        machine: &mut SimMachine,
        cpu: CpuId,
        kind: VictimCipherKind,
        keys: VictimKeys,
    ) -> Result<Self, MachineError> {
        let pid = machine.spawn(cpu);
        let base = machine.mmap(pid, 1)?;
        machine.write(pid, base, kind.image())?;
        Ok(VictimCipherService {
            pid,
            cpu,
            base,
            kind,
            keys,
        })
    }

    /// The victim's pid.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The CPU the victim runs on.
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    /// The cipher shape this service runs.
    pub fn kind(&self) -> VictimCipherKind {
        self.kind
    }

    /// Ground-truth keys (experiment oracle — the attack never calls this;
    /// it is used to *verify* recovered keys).
    pub fn keys(&self) -> VictimKeys {
        self.keys
    }

    /// Block size of the service's cipher.
    pub fn block_bytes(&self) -> usize {
        match self.kind {
            VictimCipherKind::AesSbox | VictimCipherKind::AesTtable => 16,
            VictimCipherKind::Present => 8,
        }
    }

    /// Encrypts one block, reading tables through simulated memory — a
    /// one-encryption [`Self::session`].
    ///
    /// # Errors
    ///
    /// See [`VictimSession::encrypt`].
    ///
    /// # Panics
    ///
    /// Panics if `block.len()` differs from [`Self::block_bytes`].
    pub fn encrypt(&self, machine: &mut SimMachine, block: &mut [u8]) -> Result<(), MachineError> {
        self.session(machine).encrypt(block)
    }

    /// Opens a session of encryptions on `machine`: it holds the machine's
    /// exclusive borrow and one [`ReadRun`] memo over the table page until
    /// it drops, so no other machine operation can run between its
    /// encryptions and the memo stays valid across all of them. The
    /// victim's round keys are expanded once, here, for all of them.
    pub fn session<'m>(&self, machine: &'m mut SimMachine) -> VictimSession<'m> {
        let cipher = match self.kind {
            VictimCipherKind::AesSbox => {
                KeyedCipher::AesSbox(expand_key(&self.keys.aes, AesKeySize::Aes128))
            }
            VictimCipherKind::AesTtable => {
                KeyedCipher::AesTtable(expand_key(&self.keys.aes, AesKeySize::Aes128))
            }
            VictimCipherKind::Present => {
                KeyedCipher::Present(present80_round_keys(&self.keys.present))
            }
        };
        VictimSession {
            block_bytes: self.block_bytes(),
            cipher,
            machine,
            run: ReadRun::new(self.pid, self.base, self.kind.image_len()),
            words: None,
            warm_encryptions: 0,
            plain: Vec::new(),
        }
    }

    /// Base virtual address of the table page.
    pub fn table_base(&self) -> VirtAddr {
        self.base
    }

    /// The frame backing the table page (experiment oracle).
    pub fn table_pfn(&self, machine: &SimMachine) -> Option<Pfn> {
        machine
            .translate(self.pid, self.base)
            .map(|pa| Pfn(pa.as_u64() / PAGE_SIZE))
    }

    /// Terminates the service, releasing its page.
    ///
    /// # Errors
    ///
    /// Propagates machine errors.
    pub fn stop(self, machine: &mut SimMachine) -> Result<(), MachineError> {
        machine.exit(self.pid)
    }
}

/// A victim's cipher with its round keys expanded, ready to encrypt with
/// tables from any source.
#[derive(Debug)]
enum KeyedCipher {
    AesSbox(RoundKeys),
    AesTtable(RoundKeys),
    Present([u64; 32]),
}

impl KeyedCipher {
    /// One encryption of `block` (of the cipher's block size) with tables
    /// read from `table`.
    fn encrypt(&self, table: &mut impl TableSource, block: &mut [u8]) {
        match self {
            KeyedCipher::AesSbox(keys) => sbox_aes_encrypt(keys, table, aes_block(block)),
            KeyedCipher::AesTtable(keys) => ttable_aes_encrypt(keys, table, aes_block(block)),
            KeyedCipher::Present(keys) => present80_encrypt(
                keys,
                table,
                block.try_into().expect("PRESENT blocks are 8 bytes"),
            ),
        }
    }

    /// The encryption [`Self::encrypt`] computes over the fixed table
    /// `image`: for AES over the word tables of [`Self::words`].
    fn encrypt_fixed(
        &self,
        words: &mut Option<Box<AesWordTables>>,
        image: &[u8],
        block: &mut [u8],
        verify: bool,
    ) {
        match self.words(words, image, verify) {
            Some((keys, tables)) => words_aes_encrypt(keys, tables, aes_block(block)),
            None => self.encrypt(&mut &*image, block),
        }
    }

    /// For AES, the round keys and the word tables of the fixed table
    /// `image`, prepared into `words` on the first call, which later calls
    /// must pass the same `image`; with `verify`, debug builds check that
    /// they do. `None` for PRESENT, which has no word tables.
    fn words<'a>(
        &'a self,
        words: &'a mut Option<Box<AesWordTables>>,
        image: &[u8],
        verify: bool,
    ) -> Option<(&'a RoundKeys, &'a AesWordTables)> {
        let (keys, prepare): (_, fn(&[u8]) -> AesWordTables) = match self {
            KeyedCipher::AesSbox(keys) => (keys, AesWordTables::from_sbox),
            KeyedCipher::AesTtable(keys) => (keys, AesWordTables::from_te),
            KeyedCipher::Present(_) => return None,
        };
        let tables = words.get_or_insert_with(|| Box::new(prepare(image)));
        debug_assert!(
            !verify || **tables == prepare(image),
            "word tables of another image"
        );
        Some((keys, tables))
    }

    /// The table bytes [`Self::encrypt`] reads per block, whatever the
    /// block and the table bytes.
    fn byte_reads(&self) -> u64 {
        match self {
            KeyedCipher::AesSbox(keys) => sbox_aes_byte_reads(keys.size()),
            KeyedCipher::AesTtable(keys) => ttable_aes_byte_reads(keys.size()),
            KeyedCipher::Present(_) => PRESENT80_BYTE_READS,
        }
    }
}

/// One warm encryption in this many, the first of a session included,
/// checks in debug builds that the session's word tables are those of the
/// table copy it runs on; a warm batch checks once if it holds such an
/// encryption. Re-deriving the tables for every block would double the
/// debug run time of a collect.
const WORDS_CHECK_PERIOD: u64 = 64;

fn aes_block(block: &mut [u8]) -> &mut [u8; 16] {
    block.try_into().expect("AES blocks are 16 bytes")
}

/// A run of encryptions by one victim on one machine — a collect's worth.
///
/// The session holds the machine's exclusive borrow, one [`ReadRun`] and
/// the victim's expanded round keys for its whole life; [`Self::machine`]
/// is read-only. Each encryption takes one of two paths, both exact
/// against a plain [`SimMachine::read`] per table lookup:
///
/// * **per byte** — every lookup through [`MachineTableSource`] and
///   [`SimMachine::read_byte_in`]. This is also the warm-up: it teaches the
///   run which table lines are most-recently-used in their L1 sets.
/// * **closed form** — once the run is warm (the whole table is
///   most-recently-used in L1 and its bytes are raw),
///   [`SimMachine::read_warm`] hands the session the run's raw table copy
///   and charges its reads in one step. Every kernel reads a fixed number
///   of table bytes per block, whatever the block and the table bytes, so
///   the session charges that number instead of counting. The simulated
///   victim still makes those byte reads; only the host's arithmetic
///   differs. PRESENT runs its kernel on the copy. AES runs
///   [`words_aes_encrypt`] over [`AesWordTables`] prepared from the copy at
///   the session's first warm encryption and kept for the rest of it:
///   the same ciphertexts, at T-table speed for the S-box victim too.
///
/// The prepared tables need no invalidation. A [`ReadRun`] keeps its warm
/// verdict, and the copy its bytes, until its next scalar read, and the
/// session makes scalar reads only while the run is not warm. So once a
/// session is warm it stays warm, over the same bytes, to its end. Debug
/// builds check the tables against the copy on one warm encryption in 64,
/// the first included.
///
/// [`Self::encrypt_blocks`] is the batch form for AES, and equals
/// [`Self::encrypt`] block by block. While the session is cold it is that
/// loop: each block is drawn, then encrypted per byte, so a fault stops it
/// at the same block with the same error. Once the session is warm, the
/// rest of the batch is drawn in one call, encrypted by
/// [`words_aes_encrypt_blocks`] and charged in one [`SimMachine::read_warm`]
/// step of `n ×` the per-block reads — the same counters and the same
/// clock as `n` single charges. Debug builds check the tables once per warm
/// batch that holds an encryption the one-in-64 rule would check.
#[derive(Debug)]
pub struct VictimSession<'m> {
    block_bytes: usize,
    cipher: KeyedCipher,
    machine: &'m mut SimMachine,
    run: ReadRun,
    /// The AES word tables of the warm table copy, from the first warm
    /// encryption on.
    words: Option<Box<AesWordTables>>,
    warm_encryptions: u64,
    /// The plaintext bytes of a warm batch, drawn in one call and copied
    /// into its blocks (the minimum supported Rust predates
    /// `as_flattened_mut`, which would draw into the blocks in place).
    plain: Vec<u8>,
}

impl VictimSession<'_> {
    /// Encrypts one block, reading tables through simulated memory.
    ///
    /// # Errors
    ///
    /// On a shadow-translation machine this cannot fail: the table page
    /// stays mapped for the service lifetime. On a machine with
    /// DRAM-resident page tables the victim's *walk* is hammerable, so a
    /// collateral PTE flip surfaces here as the first fault any table read
    /// hit — [`MachineError::Unmapped`] (segfault analog) or a DRAM decode
    /// error. The block contents are garbage in that case and must be
    /// discarded.
    ///
    /// # Panics
    ///
    /// Panics if `block.len()` differs from the service's block size.
    pub fn encrypt(&mut self, block: &mut [u8]) -> Result<(), MachineError> {
        assert_eq!(block.len(), self.block_bytes, "block size mismatch");
        let (cipher, words) = (&self.cipher, &mut self.words);
        let verify = self.warm_encryptions % WORDS_CHECK_PERIOD == 0;
        let warm = self.machine.read_warm(&mut self.run, |table| {
            cipher.encrypt_fixed(words, table, block, verify);
            ((), cipher.byte_reads())
        });
        if warm.is_some() {
            // The whole encryption was memo hits: no read can have faulted.
            self.warm_encryptions += 1;
            return Ok(());
        }
        self.encrypt_per_byte(block)
    }

    /// Encrypts the AES blocks of `blocks` in order, each plaintext written
    /// by `draw` — what [`Self::encrypt`] on each block, drawn just before
    /// it, would do, byte for byte and tick for tick. While the session is
    /// cold, `draw` gets one block at a time, just before that block is
    /// encrypted; once it is warm, `draw` gets the rest of the batch in one
    /// call. So `draw` is never asked for a block after one that faulted.
    ///
    /// # Errors
    ///
    /// `(i, error)` when block `i` faulted, as [`Self::encrypt`] would on
    /// it: blocks `..i` hold their ciphertexts, block `i` garbage, and the
    /// blocks after it were neither drawn nor encrypted.
    ///
    /// # Panics
    ///
    /// Panics if the service's cipher is not AES.
    pub fn encrypt_blocks(
        &mut self,
        blocks: &mut [[u8; 16]],
        mut draw: impl FnMut(&mut [u8]),
    ) -> Result<(), (usize, MachineError)> {
        assert_eq!(self.block_bytes, 16, "batches are of AES blocks");
        for i in 0..blocks.len() {
            let rest = &mut blocks[i..];
            let (cipher, words) = (&self.cipher, &mut self.words);
            let (first, n) = (self.warm_encryptions, rest.len() as u64);
            // A multiple of the check period among this batch's warm
            // encryption numbers `first..first + n`.
            let verify =
                (first + n).div_ceil(WORDS_CHECK_PERIOD) > first.div_ceil(WORDS_CHECK_PERIOD);
            let plain = &mut self.plain;
            let warm = self.machine.read_warm(&mut self.run, |table| {
                plain.resize(16 * rest.len(), 0);
                draw(plain);
                for (block, bytes) in rest.iter_mut().zip(plain.chunks_exact(16)) {
                    block.copy_from_slice(bytes);
                }
                let (keys, tables) = cipher.words(words, table, verify).expect("an AES session");
                words_aes_encrypt_blocks(keys, tables, rest);
                ((), n * cipher.byte_reads())
            });
            if warm.is_some() {
                self.warm_encryptions += n;
                return Ok(());
            }
            draw(&mut rest[0]);
            self.encrypt_per_byte(&mut rest[0]).map_err(|e| (i, e))?;
        }
        Ok(())
    }

    /// One encryption with every table lookup read through the run's memo.
    fn encrypt_per_byte(&mut self, block: &mut [u8]) -> Result<(), MachineError> {
        let mut src = MachineTableSource::new(self.machine, &mut self.run);
        self.cipher.encrypt(&mut src, block);
        src.take_fault().map_or(Ok(()), Err)
    }

    /// The machine, read-only (e.g. for ECC telemetry between encryptions).
    #[must_use]
    pub fn machine(&self) -> &SimMachine {
        self.machine
    }

    /// Encryptions served in closed form so far (for tests that must see
    /// the closed form engage).
    #[doc(hidden)]
    #[must_use]
    pub fn warm_encryptions(&self) -> u64 {
        self.warm_encryptions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ciphers::{present_sbox_image, BlockCipher, Present80, RamTableSource, ReferenceAes};
    use machine::MachineConfig;

    fn machine() -> SimMachine {
        SimMachine::new(MachineConfig::small(9))
    }

    #[test]
    fn sbox_service_matches_reference_aes() {
        let mut m = machine();
        let keys = VictimKeys::from_seed(1);
        let svc =
            VictimCipherService::start(&mut m, CpuId(1), VictimCipherKind::AesSbox, keys).unwrap();
        let mut block = *b"0123456789abcdef";
        let mut expect = block;
        svc.encrypt(&mut m, &mut block).unwrap();
        ReferenceAes::new_128(&keys.aes).encrypt_block(&mut expect);
        assert_eq!(block, expect);
    }

    #[test]
    fn ttable_service_matches_reference_aes() {
        let mut m = machine();
        let keys = VictimKeys::from_seed(2);
        let svc = VictimCipherService::start(&mut m, CpuId(0), VictimCipherKind::AesTtable, keys)
            .unwrap();
        let mut block = [0xA5u8; 16];
        let mut expect = block;
        svc.encrypt(&mut m, &mut block).unwrap();
        ReferenceAes::new_128(&keys.aes).encrypt_block(&mut expect);
        assert_eq!(block, expect);
    }

    #[test]
    fn present_service_matches_plain_present() {
        let mut m = machine();
        let keys = VictimKeys::from_seed(3);
        let svc =
            VictimCipherService::start(&mut m, CpuId(2), VictimCipherKind::Present, keys).unwrap();
        let mut block = [0x11u8; 8];
        let mut expect = block;
        svc.encrypt(&mut m, &mut block).unwrap();
        Present80::new(
            &keys.present,
            RamTableSource::new(present_sbox_image().to_vec()),
        )
        .encrypt_block(&mut expect);
        assert_eq!(block, expect);
    }

    #[test]
    fn word_tables_are_prepared_once_and_only_when_warm() {
        for kind in [VictimCipherKind::AesSbox, VictimCipherKind::AesTtable] {
            let mut m = machine();
            let svc = VictimCipherService::start(&mut m, CpuId(0), kind, VictimKeys::from_seed(6))
                .unwrap();
            let mut session = svc.session(&mut m);
            session.encrypt(&mut [0u8; 16]).unwrap();
            assert!(
                session.words.is_none(),
                "{kind:?}: a cold block prepared tables"
            );
            let mut prepared = None;
            for i in 0..64u8 {
                session.encrypt(&mut [i.wrapping_mul(37); 16]).unwrap();
                let at = session.words.as_deref().map(|t| t as *const AesWordTables);
                if session.warm_encryptions() > 0 {
                    assert!(at.is_some(), "{kind:?}: a warm block ran without tables");
                    assert_eq!(*prepared.get_or_insert(at), at, "{kind:?}: tables rebuilt");
                }
            }
            assert!(prepared.is_some(), "{kind:?}: the session never went warm");
        }
    }

    #[test]
    fn corrupting_the_table_page_corrupts_ciphertexts() {
        let mut m = machine();
        let keys = VictimKeys::from_seed(4);
        let svc =
            VictimCipherService::start(&mut m, CpuId(0), VictimCipherKind::AesSbox, keys).unwrap();
        // Flip one bit of the S-box in DRAM directly (what the hammer does).
        let pa = m.translate(svc.pid(), svc.base).unwrap();
        let byte = m.dram_mut().read_byte(pa + 0x20);
        m.dram_mut().write_byte(pa + 0x20, byte ^ 0x08);

        let mut block = [0u8; 16];
        let mut expect = [0u8; 16];
        svc.encrypt(&mut m, &mut block).unwrap();
        ReferenceAes::new_128(&keys.aes).encrypt_block(&mut expect);
        // With high probability a random-ish block hits the entry at least
        // once across 160 lookups... use several blocks to be sure.
        let mut any_diff = block != expect;
        for i in 1..32u8 {
            let mut b = [i; 16];
            let mut e = [i; 16];
            svc.encrypt(&mut m, &mut b).unwrap();
            ReferenceAes::new_128(&keys.aes).encrypt_block(&mut e);
            any_diff |= b != e;
        }
        assert!(any_diff, "faulted table never influenced a ciphertext");
    }

    #[test]
    fn stop_releases_the_table_frame() {
        let mut m = machine();
        let keys = VictimKeys::from_seed(5);
        let svc =
            VictimCipherService::start(&mut m, CpuId(0), VictimCipherKind::AesSbox, keys).unwrap();
        let pfn = svc.table_pfn(&m).unwrap();
        svc.stop(&mut m).unwrap();
        // The frame is back in cpu0's page frame cache.
        let zone = m.allocator().zone_of(pfn).unwrap();
        assert!(m
            .allocator()
            .zone(zone)
            .unwrap()
            .pcp(CpuId(0))
            .contains(pfn));
    }
}
