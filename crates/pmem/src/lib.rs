//! # plinius-pmem
//!
//! A byte-addressable **persistent-memory simulator** standing in for the Intel Optane DC
//! DIMMs used by the Plinius paper (DSN'21). It models exactly the aspects of PM that
//! Plinius and Romulus depend on:
//!
//! * byte-granular loads and stores into a DAX-style mapped region ([`PmemPool`]);
//! * cache-line write-backs and `SFENCE` persistence fences, charged at the
//!   `CLFLUSHOPT`+`SFENCE` costs of the cost model, the combination Plinius uses;
//!   [`PwbKind::cost_model`] gives the costs of the `CLFLUSH`+`NOP` alternative that
//!   Fig. 6 compares it with;
//! * the crash model: stores that were never flushed may or may not survive a power
//!   failure ([`CrashMode`]), which is what persistent transactional memories must
//!   tolerate;
//! * calibrated latency/bandwidth costs charged to a shared [`sim_clock::SimClock`],
//!   and the `pm.*` counters of the shared [`sim_clock::StatsRegistry`];
//! * the FIO-style device characterization of the paper's Fig. 2 ([`fio`]).
//!
//! # Example
//!
//! ```
//! use plinius_pmem::PmemPool;
//!
//! let pool = PmemPool::new(4096)?;
//! pool.write(0, b"model weights")?;
//! pool.flush(0, 13)?;          // persistent write-back
//! pool.fence();                // ordering point
//! assert_eq!(pool.read_vec(0, 13)?, b"model weights");
//! # Ok::<(), plinius_pmem::PmemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sim_clock::CostModel;
use std::error::Error;
use std::fmt;

pub mod fio;
pub mod pool;

pub use fio::{figure2_sweep, FioDeviceProfile, FioJob, FioResult, OpKind, Pattern};
pub use pool::{CrashMode, PmemPool, PmemPoolBuilder, RangeReads, CACHE_LINE};

/// Errors produced by the persistent-memory simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmemError {
    /// A pool cannot be created with zero capacity.
    ZeroCapacity,
    /// An access touched bytes outside the pool.
    OutOfBounds {
        /// Requested start offset.
        offset: usize,
        /// Requested length.
        len: usize,
        /// Pool capacity.
        capacity: usize,
    },
}

impl fmt::Display for PmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmemError::ZeroCapacity => {
                write!(f, "persistent memory pool capacity must be non-zero")
            }
            PmemError::OutOfBounds {
                offset,
                len,
                capacity,
            } => write!(
                f,
                "access of {len} bytes at offset {offset} exceeds pool capacity {capacity}"
            ),
        }
    }
}

impl Error for PmemError {}

/// The persistent write-back / fence instruction combinations available on the paper's
/// servers, which Fig. 6 compares (§V: `clflushopt+sfence`, the one Plinius uses, and
/// `clflush+nop`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PwbKind {
    /// `CLFLUSH` + `NOP`: the flush is strongly ordered so no fence is required.
    ClflushNop,
    /// `CLFLUSHOPT` + `SFENCE`: the default used by Plinius.
    #[default]
    ClflushOptSfence,
}

impl PwbKind {
    /// `cost` with the write-back and fence latencies of this combination: a pool built
    /// with it charges them. `cost` itself holds those of `CLFLUSHOPT+SFENCE`.
    pub fn cost_model(self, cost: &CostModel) -> CostModel {
        match self {
            // clflush evicts the line and is the slower write-back; it is ordered, so
            // the fence is a NOP.
            PwbKind::ClflushNop => CostModel {
                pm_flush_ns: cost.pm_flush_ns + cost.pm_flush_ns / 2,
                pm_fence_ns: 0,
                ..cost.clone()
            },
            PwbKind::ClflushOptSfence => cost.clone(),
        }
    }
}

impl fmt::Display for PwbKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PwbKind::ClflushNop => write!(f, "CLFLUSH+NOP"),
            PwbKind::ClflushOptSfence => write!(f, "CLFLUSHOPT+SFENCE"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let err = PmemError::OutOfBounds {
            offset: 10,
            len: 20,
            capacity: 16,
        };
        let msg = err.to_string();
        assert!(msg.contains("20 bytes"));
        assert!(msg.contains("capacity 16"));
        assert!(PmemError::ZeroCapacity.to_string().contains("non-zero"));
    }

    #[test]
    fn pwb_kind_default_matches_paper_choice() {
        assert_eq!(PwbKind::default(), PwbKind::ClflushOptSfence);
        assert_eq!(PwbKind::ClflushOptSfence.to_string(), "CLFLUSHOPT+SFENCE");
        assert_eq!(PwbKind::ClflushNop.to_string(), "CLFLUSH+NOP");
    }
}
