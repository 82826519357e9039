//! Attack-level errors.

use std::error::Error;
use std::fmt;

/// Errors surfaced by the attack pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum AttackError {
    /// An underlying machine operation failed.
    Machine(machine::MachineError),
    /// Templating found no (usable) flip templates — the module is too
    /// healthy, the buffer too small, or the hammer count too low.
    NoUsableTemplates {
        /// Templates found before filtering.
        found: usize,
    },
    /// The released frame was not picked up by the victim within the
    /// configured attempts (noise consumed the page frame cache entry).
    SteeringFailed {
        /// Attempts made.
        attempts: u32,
    },
    /// Re-hammering did not produce a detectable fault in the victim's
    /// table (data pattern mismatch or refresh won the race).
    FaultNotLanded,
    /// Ciphertext collection exhausted its budget before the statistics
    /// converged.
    CollectionExhausted {
        /// Ciphertexts consumed.
        collected: u64,
    },
    /// The analysis completed but produced no key.
    AnalysisFailed,
    /// The configuration names a CPU the machine does not have.
    NoSuchCpu {
        /// The configured CPU.
        cpu: memsim::CpuId,
        /// CPUs the machine has.
        cpus: u32,
    },
}

impl AttackError {
    /// `Ok` if `machine` has `cpu`, so a phase can spawn on it
    /// (`SimMachine::spawn` panics on a CPU out of range).
    pub(crate) fn check_cpu(
        machine: &machine::SimMachine,
        cpu: memsim::CpuId,
    ) -> Result<(), AttackError> {
        let cpus = machine.cpu_count();
        if cpu.0 < cpus {
            Ok(())
        } else {
            Err(AttackError::NoSuchCpu { cpu, cpus })
        }
    }
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::Machine(e) => write!(f, "machine operation failed: {e}"),
            AttackError::NoUsableTemplates { found } => {
                write!(
                    f,
                    "no usable flip templates (found {found} before filtering)"
                )
            }
            AttackError::SteeringFailed { attempts } => {
                write!(
                    f,
                    "victim did not receive the released frame after {attempts} attempts"
                )
            }
            AttackError::FaultNotLanded => {
                write!(
                    f,
                    "re-hammering induced no detectable fault in the victim table"
                )
            }
            AttackError::CollectionExhausted { collected } => {
                write!(
                    f,
                    "fault statistics did not converge after {collected} ciphertexts"
                )
            }
            AttackError::AnalysisFailed => write!(f, "fault analysis produced no key"),
            AttackError::NoSuchCpu { cpu, cpus } => {
                write!(
                    f,
                    "configured {cpu} does not exist (machine has {cpus} CPUs)"
                )
            }
        }
    }
}

impl Error for AttackError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AttackError::Machine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<machine::MachineError> for AttackError {
    fn from(e: machine::MachineError) -> Self {
        AttackError::Machine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<AttackError>();
    }

    #[test]
    fn messages_are_specific() {
        assert!(AttackError::FaultNotLanded
            .to_string()
            .contains("re-hammering"));
        assert!(AttackError::NoUsableTemplates { found: 3 }
            .to_string()
            .contains('3'));
    }
}
