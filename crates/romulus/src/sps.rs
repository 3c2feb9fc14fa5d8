//! The SPS (swaps-per-second) micro-benchmark used by Fig. 6 of the paper.
//!
//! SPS keeps an array of integers in persistent memory and repeatedly executes
//! transactions that swap randomly chosen pairs of elements. The metric is the number of
//! swaps completed per microsecond, measured for different transaction sizes (swaps per
//! transaction) and for the three deployment flavours (native, sgx-romulus,
//! scone-romulus) and two PWB/fence combinations.
//!
//! Each swap is executed for real through the Romulus transaction machinery; the flavours
//! additionally charge their modeled enclave-side overheads so that the relative curves
//! of Fig. 6 (native fastest, sgx-romulus 1.6–3.7× slower on fences, scone-romulus
//! collapsing once its volatile log budget is exceeded) are reproduced.

use crate::{Flavor, Romulus, RomulusError};
use plinius_pmem::{PmemPool, PwbKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_clock::CostModel;
use std::fmt;

/// Configuration of one SPS measurement point.
#[derive(Debug, Clone)]
pub struct SpsConfig {
    /// Size of the persistent integer array in bytes (10 MB in the paper).
    pub array_bytes: usize,
    /// Number of swaps per transaction (the x-axis of Fig. 6).
    pub swaps_per_tx: usize,
    /// Number of transactions to execute for the measurement.
    pub transactions: usize,
    /// Persistent write-back / fence combination.
    pub pwb: PwbKind,
    /// RNG seed (the swap positions are random).
    pub seed: u64,
}

impl SpsConfig {
    /// The paper's configuration (10 MB array) scaled down to `transactions` transactions
    /// per point so the sweep completes quickly.
    pub fn paper_like(swaps_per_tx: usize, pwb: PwbKind) -> Self {
        SpsConfig {
            array_bytes: 10 * 1024 * 1024,
            swaps_per_tx,
            transactions: 32,
            pwb,
            seed: 0x5053,
        }
    }

    /// A small configuration for unit tests.
    pub fn small(swaps_per_tx: usize) -> Self {
        SpsConfig {
            array_bytes: 64 * 1024,
            swaps_per_tx,
            transactions: 8,
            pwb: PwbKind::ClflushOptSfence,
            seed: 7,
        }
    }
}

/// Result of one SPS measurement point.
#[derive(Debug, Clone, PartialEq)]
pub struct SpsResult {
    /// Flavour name ("Native", "Sgx-romulus", "Scone-romulus").
    pub flavor: String,
    /// PWB/fence combination used.
    pub pwb: PwbKind,
    /// Swaps per transaction.
    pub swaps_per_tx: usize,
    /// Total swaps executed.
    pub total_swaps: u64,
    /// Total simulated time in nanoseconds.
    pub simulated_ns: u64,
    /// The Fig. 6 metric: swaps per microsecond.
    pub swaps_per_us: f64,
}

impl fmt::Display for SpsResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>14} {:>18} swaps/tx={:>5}: {:.2} swaps/us",
            self.flavor,
            self.pwb.to_string(),
            self.swaps_per_tx,
            self.swaps_per_us
        )
    }
}

/// Runs the SPS benchmark under the given flavour and cost model.
///
/// # Errors
///
/// Propagates [`RomulusError`] from pool creation or the transactions themselves.
pub fn run_sps(
    flavor: Flavor,
    cost: &CostModel,
    config: &SpsConfig,
) -> Result<SpsResult, RomulusError> {
    let region = config.array_bytes + 4096;
    let pool = PmemPool::builder(256 + 2 * region)
        .cost_model(config.pwb.cost_model(cost))
        .clock(match flavor.enclave() {
            Some(enclave) => enclave.clock(),
            None => sim_clock::SimClock::new(),
        })
        .build()?;
    let clock = pool.clock();
    let rom = Romulus::create(pool, region, flavor)?;
    let elements = (config.array_bytes / 8) as u64;

    // Initialise the persistent array (identity permutation), in 4 KB chunks.
    let array = rom.transaction(|tx| {
        let ptr = tx.alloc(config.array_bytes)?;
        let mut chunk = Vec::with_capacity(4096);
        let mut written = 0u64;
        while written < elements {
            chunk.clear();
            let in_chunk = (elements - written).min(512);
            for i in 0..in_chunk {
                chunk.extend_from_slice(&(written + i).to_le_bytes());
            }
            tx.write_bytes(ptr.add(written * 8), &chunk)?;
            written += in_chunk;
        }
        tx.set_root(0, ptr)?;
        Ok(ptr)
    })?;

    let mut rng = StdRng::seed_from_u64(config.seed);
    let per_swap_overhead_ns = per_swap_overhead(&rom, cost);
    clock.reset();
    let start = clock.now_ns();
    let mut total_swaps = 0u64;
    for _ in 0..config.transactions {
        rom.transaction(|tx| {
            for _ in 0..config.swaps_per_tx {
                let a = rng.gen_range(0..elements);
                let b = rng.gen_range(0..elements);
                let va = tx.read_u64(array.add(a * 8))?;
                let vb = tx.read_u64(array.add(b * 8))?;
                tx.write_u64(array.add(a * 8), vb)?;
                tx.write_u64(array.add(b * 8), va)?;
            }
            Ok(())
        })?;
        total_swaps += config.swaps_per_tx as u64;
        clock.advance_ns(per_swap_overhead_ns * config.swaps_per_tx as u64);
    }
    let simulated_ns = clock.now_ns() - start;
    Ok(SpsResult {
        flavor: rom.flavor().name().to_owned(),
        pwb: config.pwb,
        swaps_per_tx: config.swaps_per_tx,
        total_swaps,
        simulated_ns,
        swaps_per_us: total_swaps as f64 / (simulated_ns as f64 / 1000.0),
    })
}

/// Per-swap bookkeeping overhead (random-index generation, loop and MEE overheads) that
/// is not captured by the transaction machinery itself.
fn per_swap_overhead(rom: &Romulus, cost: &CostModel) -> u64 {
    let base = cost.sps_native_swap_ns;
    let factor = match rom.flavor() {
        Flavor::Native => 1.0,
        Flavor::Sgx(_) => cost.sps_sgx_factor,
        Flavor::Scone(_) => cost.sps_scone_factor,
    };
    (base * factor).round() as u64
}

/// Runs the full Fig. 6 sweep for one server profile: all three flavours, both PWB
/// combinations available on the paper's servers, transaction sizes 2..=2048.
///
/// # Errors
///
/// Propagates [`RomulusError`] from any measurement point.
pub fn figure6_sweep(
    cost: &CostModel,
    transactions: usize,
) -> Result<Vec<SpsResult>, RomulusError> {
    let mut out = Vec::new();
    let sizes = [2usize, 8, 32, 64, 128, 256, 512, 1024, 2048];
    for pwb in [PwbKind::ClflushNop, PwbKind::ClflushOptSfence] {
        for flavor_id in 0..3 {
            for &swaps in &sizes {
                let mut cfg = SpsConfig::paper_like(swaps, pwb);
                cfg.transactions = transactions;
                // Keep the sweep fast: a smaller array preserves the curve shape.
                cfg.array_bytes = 1024 * 1024;
                let flavor = match flavor_id {
                    0 => Flavor::Native,
                    1 => Flavor::Sgx(
                        plinius_sgx::Enclave::builder(b"sgx-romulus".to_vec())
                            .cost_model(cost.clone())
                            .build(),
                    ),
                    _ => Flavor::Scone(
                        plinius_sgx::Enclave::builder(b"scone-romulus".to_vec())
                            .cost_model(cost.clone())
                            .build(),
                    ),
                };
                out.push(run_sps(flavor, cost, &cfg)?);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plinius_sgx::Enclave;

    fn cost() -> CostModel {
        CostModel::sgx_eml_pm()
    }

    fn sgx_flavor(c: &CostModel) -> Flavor {
        Flavor::Sgx(
            Enclave::builder(b"sgx-romulus".to_vec())
                .cost_model(c.clone())
                .build(),
        )
    }

    fn scone_flavor(c: &CostModel) -> Flavor {
        Flavor::Scone(
            Enclave::builder(b"scone-romulus".to_vec())
                .cost_model(c.clone())
                .build(),
        )
    }

    #[test]
    fn sps_preserves_array_contents_as_permutation() {
        let c = cost();
        let cfg = SpsConfig::small(16);
        let result = run_sps(Flavor::Native, &c, &cfg).unwrap();
        assert_eq!(result.total_swaps, 16 * 8);
        assert!(result.swaps_per_us > 0.0);
    }

    #[test]
    fn native_is_faster_than_sgx_which_beats_scone_on_large_tx() {
        let c = cost();
        let mut cfg = SpsConfig::small(256);
        cfg.array_bytes = 256 * 1024;
        let native = run_sps(Flavor::Native, &c, &cfg).unwrap();
        let sgx = run_sps(sgx_flavor(&c), &c, &cfg).unwrap();
        let scone = run_sps(scone_flavor(&c), &c, &cfg).unwrap();
        assert!(
            native.swaps_per_us > sgx.swaps_per_us,
            "native {} vs sgx {}",
            native.swaps_per_us,
            sgx.swaps_per_us
        );
        assert!(
            sgx.swaps_per_us > scone.swaps_per_us,
            "sgx {} vs scone {}",
            sgx.swaps_per_us,
            scone.swaps_per_us
        );
    }

    #[test]
    fn scone_collapses_beyond_its_log_budget() {
        let c = cost();
        let small = {
            let cfg = SpsConfig::small(16);
            run_sps(scone_flavor(&c), &c, &cfg).unwrap()
        };
        let large = {
            let mut cfg = SpsConfig::small(512);
            cfg.array_bytes = 256 * 1024;
            run_sps(scone_flavor(&c), &c, &cfg).unwrap()
        };
        // Relative to sgx-romulus at the same sizes, scone must degrade much more.
        let sgx_small = run_sps(sgx_flavor(&c), &c, &SpsConfig::small(16)).unwrap();
        let sgx_large = {
            let mut cfg = SpsConfig::small(512);
            cfg.array_bytes = 256 * 1024;
            run_sps(sgx_flavor(&c), &c, &cfg).unwrap()
        };
        let ratio_small = sgx_small.swaps_per_us / small.swaps_per_us;
        let ratio_large = sgx_large.swaps_per_us / large.swaps_per_us;
        assert!(
            ratio_large > ratio_small,
            "scone should fall further behind at large tx sizes: {ratio_small} -> {ratio_large}"
        );
        assert!(ratio_large > 1.5, "ratio_large = {ratio_large}");
    }

    #[test]
    fn result_display_mentions_flavor_and_metric() {
        let c = cost();
        let r = run_sps(Flavor::Native, &c, &SpsConfig::small(4)).unwrap();
        let line = r.to_string();
        assert!(line.contains("Native"));
        assert!(line.contains("swaps/us"));
    }
}
