//! Error types for the DRAM model.

use std::error::Error;
use std::fmt;

use crate::geometry::DramCoord;

/// Errors returned by [`crate::DramDevice`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DramError {
    /// Two hammer aggressors decode into different banks; alternating
    /// between them would not cause row conflicts in a shared bank, so no
    /// hammering pressure builds up.
    AggressorsInDifferentBanks {
        /// First aggressor location.
        a: DramCoord,
        /// Location of the first aggressor outside `a`'s bank.
        b: DramCoord,
    },
    /// Two aggressors decode to the same row; alternating accesses would be
    /// row-buffer hits and never issue an `ACT`.
    AggressorsShareRow {
        /// The later aggressor's location in the shared row.
        coord: DramCoord,
    },
    /// A hammer burst needs at least two distinct aggressor rows to
    /// generate row conflicts.
    NotEnoughAggressors {
        /// Aggressor addresses supplied.
        count: usize,
    },
}

impl fmt::Display for DramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramError::AggressorsInDifferentBanks { a, b } => {
                write!(f, "hammer aggressors map to different banks ({a} vs {b})")
            }
            DramError::AggressorsShareRow { coord } => {
                write!(
                    f,
                    "hammer aggressors share row {coord}; accesses would be row hits"
                )
            }
            DramError::NotEnoughAggressors { count } => {
                write!(
                    f,
                    "hammering needs at least two distinct aggressor rows, got {count}"
                )
            }
        }
    }
}

impl Error for DramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_banks() {
        let c = DramCoord::default();
        let e = DramError::AggressorsInDifferentBanks { a: c, b: c };
        assert!(e.to_string().contains("different banks"));
        let e = DramError::AggressorsShareRow { coord: c };
        assert!(e.to_string().contains("share row"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<DramError>();
    }
}
