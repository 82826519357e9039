//! AES-128/192/256 in three implementation shapes.
//!
//! * [`mod@reference`] — FIPS-197 straight-line implementation (in-code S-box).
//! * [`sbox_aes`] — rounds computed in code, but every S-box lookup goes
//!   through a [`crate::TableSource`] (the PFA paper's target shape).
//! * [`ttable`] — OpenSSL-shape T-table implementation; the four `Te` tables
//!   occupy exactly one 4 KiB page (the ExplFrame victim page).
//! * [`words`] — either table shape's arithmetic over word tables prepared
//!   once from its image, for encryptions whose table cannot change.
//!
//! All shapes share the [`keyschedule`] and the generated [`tables`]; every
//! combination is cross-checked against FIPS-197 vectors in tests.

pub mod keyschedule;
pub mod reference;
pub mod sbox;
pub mod sbox_aes;
pub mod tables;
pub mod ttable;
pub mod words;
