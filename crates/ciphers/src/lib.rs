//! Block ciphers with externalized lookup tables.
//!
//! ExplFrame's fault injection only matters because the victim cipher reads
//! its lookup tables from memory on every encryption — a hammered bit in the
//! table page persistently corrupts ciphertexts (a *persistent fault*, Zhang
//! et al., TCHES 2018). This crate therefore separates the cipher logic from
//! the storage of its tables:
//!
//! * [`TableSource`] — anything that can serve table bytes: plain RAM
//!   ([`RamTableSource`], with fault-injection helpers for tests), or a page
//!   of simulated machine memory (implemented in the `explframe-core` crate).
//! * [`ReferenceAes`] — FIPS-197 reference implementation (in-code S-box);
//!   the ground truth the attack compares against.
//! * [`SboxAes`] — AES-128/192/256 reading a 256-byte S-box table through a
//!   `TableSource` every round, the implementation shape attacked by the
//!   Persistent Fault Analysis paper the attack builds on.
//! * [`TTableAes`] — OpenSSL-shape T-table AES: four 1 KiB `Te` tables
//!   (exactly one 4 KiB page) serve rounds 1..9 *and*, via masked lanes, the
//!   final round.
//! * [`AesWordTables`] — either AES table image prepared once as word
//!   tables, for [`words_aes_encrypt`] and its batch form
//!   [`words_aes_encrypt_blocks`]: the same ciphertexts as the kernel over
//!   the image, without a [`TableSource`].
//! * [`Present80`] — the PRESENT-80 lightweight cipher with its S-box layer
//!   read through a `TableSource` (the second cipher evaluated in the PFA
//!   paper).
//!
//! # Examples
//!
//! ```
//! use ciphers::{BlockCipher, RamTableSource, ReferenceAes, SboxAes, TableImage};
//!
//! let key = [0u8; 16];
//! let mut reference = ReferenceAes::new_128(&key);
//! let mut tabled = SboxAes::new_128(&key, RamTableSource::new(TableImage::sbox().to_vec()));
//!
//! let mut a = *b"sixteen byte blk";
//! let mut b = a;
//! reference.encrypt_block(&mut a);
//! tabled.encrypt_block(&mut b);
//! assert_eq!(a, b, "table-sourced AES matches the reference");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
#[cfg(test)]
mod kernel_oracle;
mod present;
mod source;
mod traits;

pub use aes::keyschedule::{expand_key, invert_last_round_key_128, AesKeySize, RoundKeys};
pub use aes::reference::ReferenceAes;
pub use aes::sbox_aes::{byte_reads as sbox_aes_byte_reads, encrypt as sbox_aes_encrypt, SboxAes};
pub use aes::tables::TableImage;
pub use aes::ttable::{
    byte_reads as ttable_aes_byte_reads, encrypt as ttable_aes_encrypt,
    final_round_table_for_position, TTableAes, FINAL_ROUND_S_LANE, TE_TABLE_BYTES,
};
pub use aes::words::{
    encrypt as words_aes_encrypt, encrypt_blocks as words_aes_encrypt_blocks, AesWordTables,
};
pub use present::{
    encrypt as present80_encrypt, p_layer, p_layer_inverse, p_layer_target, present80_round_keys,
    present_sbox_image, Present80, BYTE_READS as PRESENT80_BYTE_READS, PRESENT_SBOX,
};
pub use source::{RamTableSource, TableSource};
pub use traits::BlockCipher;
