//! # plinius-romulus
//!
//! A from-scratch Rust reimplementation of **Romulus**, the persistent transactional
//! memory library (Correia, Felber, Ramalhete — SPAA'18) that Plinius builds its
//! mirroring mechanism on. The engine keeps twin copies of the user data in persistent
//! memory (*main* and *back*), tracks in-flight modifications in a volatile redo log and
//! commits with a bounded number of persistence fences; see [`engine`] for the protocol.
//!
//! Three deployment *flavours* reproduce the systems compared in Fig. 6 of the paper:
//!
//! * [`Flavor::Native`] — Romulus running outside any enclave;
//! * [`Flavor::Sgx`] — **sgx-romulus**: the library manually ported to run inside an SGX
//!   enclave (this is what Plinius uses);
//! * [`Flavor::Scone`] — the unmodified library inside a SCONE container, whose
//!   constrained volatile log degrades large transactions.
//!
//! # Example
//!
//! ```
//! use plinius_pmem::PmemPool;
//! use plinius_romulus::{Flavor, Romulus};
//!
//! let pool = PmemPool::new(64 * 1024)?;
//! let rom = Romulus::create(pool, 16 * 1024, Flavor::Native)?;
//! let ptr = rom.transaction(|tx| {
//!     let p = tx.alloc(8)?;
//!     tx.write_u64(p, 42)?;
//!     tx.set_root(0, p)?;
//!     Ok(p)
//! })?;
//! assert_eq!(rom.read_u64(ptr)?, 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use plinius_pmem::PmemError;
use plinius_sgx::Enclave;
use std::error::Error;
use std::fmt;

pub mod engine;
pub mod sps;

pub use engine::{FailPoint, MainRanges, PmPtr, Romulus, Tx, ALLOC_ALIGN, DATA_START, NUM_ROOTS};
pub use sps::{SpsConfig, SpsResult};

/// Errors produced by the Romulus engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RomulusError {
    /// The persistent-memory pool is too small for the requested twin regions.
    PoolTooSmall {
        /// Pool capacity in bytes.
        capacity: usize,
        /// Bytes needed for header + 2 regions.
        needed: usize,
    },
    /// An access fell outside the persistent region.
    OutOfRegion {
        /// Offset of the access within the region.
        offset: u64,
        /// Length of the access.
        len: u64,
        /// Size of each twin region.
        region_size: usize,
    },
    /// The persistent heap is exhausted.
    OutOfPersistentMemory {
        /// Bytes requested.
        requested: usize,
        /// Bytes still available.
        available: u64,
    },
    /// A root-directory index was out of range.
    InvalidRoot(usize),
    /// The pool header or persisted metadata is inconsistent.
    Corrupted(String),
    /// An armed crash-injection point fired (see [`Romulus::inject_failure`]).
    InjectedCrash,
    /// An error bubbled up from the persistent-memory simulator.
    Pmem(PmemError),
}

impl fmt::Display for RomulusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RomulusError::PoolTooSmall { capacity, needed } => write!(
                f,
                "pool of {capacity} bytes cannot hold header plus twin regions ({needed} bytes needed)"
            ),
            RomulusError::OutOfRegion {
                offset,
                len,
                region_size,
            } => write!(
                f,
                "access of {len} bytes at region offset {offset} exceeds region size {region_size}"
            ),
            RomulusError::OutOfPersistentMemory {
                requested,
                available,
            } => write!(
                f,
                "persistent allocation of {requested} bytes exceeds remaining heap of {available} bytes"
            ),
            RomulusError::InvalidRoot(idx) => {
                write!(f, "root index {idx} out of range (max {})", NUM_ROOTS - 1)
            }
            RomulusError::Corrupted(msg) => write!(f, "persistent state corrupted: {msg}"),
            RomulusError::InjectedCrash => write!(f, "injected crash point reached"),
            RomulusError::Pmem(e) => write!(f, "persistent memory error: {e}"),
        }
    }
}

impl Error for RomulusError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RomulusError::Pmem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PmemError> for RomulusError {
    fn from(e: PmemError) -> Self {
        RomulusError::Pmem(e)
    }
}

/// Deployment flavour of the Romulus engine: where the library code runs and which
/// overheads its PM accesses pay.
#[derive(Debug, Clone)]
pub enum Flavor {
    /// Romulus outside any enclave (the paper's "Native" baseline).
    Native,
    /// `sgx-romulus`: the manual port running inside an SGX enclave; PM reads into the
    /// enclave and persistence fences pay enclave-side overheads.
    Sgx(Enclave),
    /// Unmodified Romulus inside a SCONE container: like [`Flavor::Sgx`] but with a
    /// container-constrained volatile redo log that spills on large transactions.
    Scone(Enclave),
}

impl Flavor {
    /// Human-readable flavour name as used in Fig. 6 ("Native", "Sgx-romulus",
    /// "Scone-romulus").
    pub fn name(&self) -> &'static str {
        match self {
            Flavor::Native => "Native",
            Flavor::Sgx(_) => "Sgx-romulus",
            Flavor::Scone(_) => "Scone-romulus",
        }
    }

    /// The enclave backing this flavour, if any.
    pub fn enclave(&self) -> Option<&Enclave> {
        match self {
            Flavor::Native => None,
            Flavor::Sgx(e) | Flavor::Scone(e) => Some(e),
        }
    }

    /// Reserve enclave memory for the volatile redo log (SGX/SCONE flavours).
    pub(crate) fn register_log_memory(&self) {
        if let Some(enclave) = self.enclave() {
            // 1 MB of volatile log space inside the enclave; ignore failure (the log then
            // simply competes with the rest of the heap).
            let _ = enclave.alloc_trusted(1024 * 1024);
        }
    }

    /// Charge the cost of reading `bytes` from PM into the runtime.
    pub(crate) fn charge_pm_read(&self, bytes: u64) {
        if let Some(enclave) = self.enclave() {
            enclave.charge_pm_read(bytes);
        }
    }

    /// Charge any enclave-side overhead for writing `bytes` to PM (the raw device cost is
    /// charged by the pool itself).
    pub(crate) fn charge_pm_write(&self, bytes: u64) {
        if let Flavor::Scone(enclave) = self {
            // SCONE interposes the write through its shielding layer.
            enclave.charge_data_staging(bytes / 64);
        }
    }

    /// Charge the enclave-side overhead of a persistence fence.
    pub(crate) fn charge_fence(&self) {
        if let Some(enclave) = self.enclave() {
            let cost = enclave.cost_model();
            // Fences take noticeably longer from inside an enclave (§VI: 1.6x-3.7x).
            let extra = match self {
                Flavor::Sgx(_) => cost.pm_fence_ns * 2,
                Flavor::Scone(_) => cost.pm_fence_ns * 3,
                Flavor::Native => 0,
            };
            enclave.clock().advance_ns(extra);
        }
    }

    /// Charge the cost of appending the `n`-th entry to the volatile redo log.
    pub(crate) fn charge_log_entry(&self, n: usize) {
        if let Flavor::Scone(enclave) = self {
            let cost = enclave.cost_model();
            // Each SPS swap produces two log entries; past the container's log budget the
            // log spills and every further entry becomes much more expensive.
            if n > cost.scone_log_spill_swaps * 2 {
                let penalty =
                    (cost.sps_native_swap_ns * cost.sps_scone_spill_factor).round() as u64;
                enclave.clock().advance_ns(penalty);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flavor_names_match_figure_legend() {
        let enclave = Enclave::create(b"romulus".to_vec());
        assert_eq!(Flavor::Native.name(), "Native");
        assert_eq!(Flavor::Sgx(enclave.clone()).name(), "Sgx-romulus");
        assert_eq!(Flavor::Scone(enclave).name(), "Scone-romulus");
    }

    #[test]
    fn only_enclave_flavors_expose_an_enclave() {
        let enclave = Enclave::create(b"romulus".to_vec());
        assert!(Flavor::Native.enclave().is_none());
        assert!(Flavor::Sgx(enclave.clone()).enclave().is_some());
        assert!(Flavor::Scone(enclave).enclave().is_some());
    }

    #[test]
    fn error_display_and_source() {
        let err = RomulusError::from(PmemError::ZeroCapacity);
        assert!(err.to_string().contains("persistent memory error"));
        assert!(Error::source(&err).is_some());
        assert!(RomulusError::InvalidRoot(99).to_string().contains("99"));
        assert!(RomulusError::InjectedCrash.to_string().contains("crash"));
    }
}
