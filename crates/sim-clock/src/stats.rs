//! The event counters the substrates expose (enclave transitions, EPC page swaps,
//! cache-line flushes, fsyncs, bytes moved): one fixed table indexed by [`Metric`].
//!
//! Harness binaries read these counters to report the breakdowns of Table I and to
//! sanity-check that the simulated code paths actually executed (e.g. that an
//! SSD checkpoint really issued an `fsync` per write).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Declares [`Metric`], its table order and its names from one list.
macro_rules! metrics {
    ($($(#[doc = $doc:literal])* $variant:ident = $name:literal,)*) => {
        /// One counter of the [`StatsRegistry`] table.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Metric {
            $($(#[doc = $doc])* $variant,)*
        }

        impl Metric {
            /// Every metric, in table order.
            pub const ALL: &'static [Metric] = &[$(Metric::$variant),*];

            /// The counter's name, such as `"pm.fences"`.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Metric::$variant => $name,)*
                }
            }
        }
    };
}

// Listed in name order, so that a snapshot is sorted by name.
metrics! {
    /// Bytes read from the SSD.
    FsBytesRead = "fs.bytes_read",
    /// Bytes written to the SSD.
    FsBytesWritten = "fs.bytes_written",
    /// `fsync`s issued on the SSD.
    FsFsyncs = "fs.fsyncs",
    /// Mirror reads retried because the header moved during the read.
    MirrorTornReadRetries = "mirror.torn_read_retries",
    /// Bytes read from PM.
    PmBytesRead = "pm.bytes_read",
    /// Bytes stored to PM, by bare writes and persists.
    PmBytesWritten = "pm.bytes_written",
    /// Crashes injected into a PM pool.
    PmCrashes = "pm.crashes",
    /// Persistence fences issued.
    PmFences = "pm.fences",
    /// Cache-line write-backs issued.
    PmFlushes = "pm.flushes",
    /// Bytes of AES-GCM work inside the enclave.
    SgxCryptoBytes = "sgx.crypto_bytes",
    /// Enclave entries.
    SgxEcalls = "sgx.ecalls",
    /// EPC page swaps: one per 4 KiB touched while the working set exceeds the EPC.
    SgxEpcPageSwaps = "sgx.epc_page_swaps",
    /// Floating-point operations of in-enclave compute.
    SgxFlops = "sgx.flops",
    /// Enclave exits to the untrusted runtime.
    SgxOcalls = "sgx.ocalls",
    /// Bytes copied from PM into the enclave.
    SgxPmReadBytes = "sgx.pm_read_bytes",
    /// Bytes written from the enclave out to PM.
    SgxPmWriteBytes = "sgx.pm_write_bytes",
    /// Bytes of training data staged into the enclave.
    SgxStagedBytes = "sgx.staged_bytes",
}

/// The counter table shared across simulation components: one atomic per [`Metric`].
///
/// # Example
///
/// ```
/// use sim_clock::{Metric, StatsRegistry};
///
/// let stats = StatsRegistry::new();
/// stats.add(Metric::SgxEcalls, 1);
/// stats.add(Metric::SgxEcalls, 2);
/// assert_eq!(stats.get(Metric::SgxEcalls), 3);
/// assert_eq!(stats.value("sgx.ecalls"), 3);
/// assert_eq!(stats.value("never-counted"), 0);
/// ```
#[derive(Debug, Default)]
pub struct StatsRegistry {
    counters: [AtomicU64; Metric::ALL.len()],
}

/// Shared handle to a [`StatsRegistry`].
pub type StatsHandle = Arc<StatsRegistry>;

impl StatsRegistry {
    /// Creates a table of zeros wrapped in an [`Arc`].
    pub fn new() -> StatsHandle {
        Arc::new(StatsRegistry::default())
    }

    /// Adds `n` to `metric`.
    pub fn add(&self, metric: Metric, n: u64) {
        self.counters[metric as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of `metric`.
    pub fn get(&self, metric: Metric) -> u64 {
        self.counters[metric as usize].load(Ordering::Relaxed)
    }

    /// Current value of the counter named `name`; zero for a name outside the table.
    pub fn value(&self, name: &str) -> u64 {
        Metric::ALL
            .iter()
            .find(|m| m.name() == name)
            .map_or(0, |&m| self.get(m))
    }

    /// Every metric with its current value, in table order.
    pub fn snapshot(&self) -> [(Metric, u64); Metric::ALL.len()] {
        std::array::from_fn(|i| (Metric::ALL[i], self.get(Metric::ALL[i])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_reads_back_through_its_name() {
        let stats = StatsRegistry::new();
        for (i, &metric) in Metric::ALL.iter().enumerate() {
            assert_eq!(metric as usize, i, "{metric:?} is out of table order");
            stats.add(metric, i as u64 + 1);
        }
        for (i, &metric) in Metric::ALL.iter().enumerate() {
            assert_eq!(stats.value(metric.name()), i as u64 + 1, "{metric:?}");
        }
    }

    #[test]
    fn unknown_counter_reads_zero() {
        let stats = StatsRegistry::new();
        stats.add(Metric::PmFences, 1);
        assert_eq!(stats.value("missing"), 0);
        assert_eq!(stats.value("pm"), 0);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let stats = StatsRegistry::new();
        stats.add(Metric::SgxStagedBytes, 1);
        stats.add(Metric::FsBytesRead, 2);
        let snap = stats.snapshot();
        assert_eq!(snap[0], (Metric::FsBytesRead, 2));
        assert_eq!(snap[snap.len() - 1], (Metric::SgxStagedBytes, 1));
        // Strictly ascending, so no two metrics share a name.
        assert!(snap.windows(2).all(|w| w[0].0.name() < w[1].0.name()));
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let stats = StatsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1_000 {
                        stats.add(Metric::PmFences, 1);
                    }
                });
            }
        });
        assert_eq!(stats.get(Metric::PmFences), 8_000);
    }
}
