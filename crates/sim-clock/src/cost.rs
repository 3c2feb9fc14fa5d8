//! Hardware cost models for the two evaluation servers of the Plinius paper.
//!
//! All costs are expressed in nanoseconds (per event) or nanoseconds per byte
//! (for bandwidth-bound operations). The two [`ServerProfile`]s correspond to the
//! machines used in the paper's evaluation (§VI): `SgxEmlPm` has real SGX hardware
//! but emulates PM with a Ramdisk, while `EmlSgxPm` has real Intel Optane DC PM but
//! runs SGX in simulation mode. The constants are calibrated so that the *relative*
//! results reported by the paper (speed-up factors, latency breakdowns, crossovers
//! at the EPC limit) are reproduced; absolute values are not meaningful without the
//! physical hardware.

use std::fmt;

/// Which of the paper's two evaluation servers a [`CostModel`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerProfile {
    /// `sgx-emlPM`: real SGX (Xeon E3-1270 @ 3.80 GHz), PM emulated with Ramdisk.
    SgxEmlPm,
    /// `emlSGX-PM`: SGX in simulation mode (Xeon Gold 5215 @ 2.50 GHz), real Optane DC PM.
    EmlSgxPm,
}

impl fmt::Display for ServerProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerProfile::SgxEmlPm => write!(f, "sgx-emlPM"),
            ServerProfile::EmlSgxPm => write!(f, "emlSGX-PM"),
        }
    }
}

/// The kind of storage/memory device an access targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Byte-addressable persistent memory accessed via DAX / load-store.
    PersistentMemory,
    /// SATA/NVMe solid-state drive behind a conventional file system.
    Ssd,
    /// Volatile DRAM (or a tmpfs Ramdisk backed by DRAM).
    Dram,
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceKind::PersistentMemory => write!(f, "PM"),
            DeviceKind::Ssd => write!(f, "SSD"),
            DeviceKind::Dram => write!(f, "DRAM"),
        }
    }
}

/// Calibrated latency/bandwidth parameters for one evaluation server.
///
/// Construct one with [`CostModel::sgx_eml_pm`] or [`CostModel::eml_sgx_pm`], or build a
/// custom model by mutating the public fields of either.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Which server this model describes.
    pub profile: ServerProfile,
    /// CPU clock frequency in GHz, used to convert cycle counts to nanoseconds.
    pub cpu_ghz: f64,
    /// Whether enclave transitions / EPC paging penalties apply (real SGX hardware).
    pub sgx_hardware: bool,
    /// Whether the PM device is real Optane (true) or a DRAM-backed Ramdisk (false).
    pub pm_is_real: bool,
    /// Cycles consumed by one enclave transition (ecall or ocall). ~13'100 per the paper.
    pub enclave_transition_cycles: u64,
    /// Usable EPC size in bytes (93.5 MB on the paper's hardware).
    pub epc_usable_bytes: u64,
    /// Extra cost, per byte touched by in-enclave work, once the enclave working set
    /// exceeds the usable EPC (models EPC page swapping by the SGX kernel driver).
    pub epc_thrash_ns_per_byte: f64,
    /// In-enclave AES-GCM throughput (encryption and decryption), ns per byte.
    pub crypto_ns_per_byte: f64,
    /// Writing from the enclave to PM (store + interposed write-back), ns per byte.
    pub pm_write_ns_per_byte: f64,
    /// Reading from PM into enclave memory, ns per byte.
    pub pm_read_ns_per_byte: f64,
    /// Per cache-line write-back (CLFLUSHOPT) latency in ns.
    pub pm_flush_ns: u64,
    /// Persistence fence (SFENCE) latency in ns.
    pub pm_fence_ns: u64,
    /// Writing a checkpoint to SSD through ocalls + fwrite, ns per byte.
    pub ssd_write_ns_per_byte: f64,
    /// Reading a checkpoint from SSD into the enclave, ns per byte.
    pub ssd_read_ns_per_byte: f64,
    /// Fixed cost of an fsync on the SSD, in ns.
    pub ssd_fsync_ns: u64,
    /// Sequential SSD device bandwidth used by the FIO experiment, bytes/s.
    pub ssd_seq_bw_bytes_per_s: f64,
    /// Random-access SSD device bandwidth used by the FIO experiment, bytes/s.
    pub ssd_rand_bw_bytes_per_s: f64,
    /// PM (DAX) device bandwidth used by the FIO experiment, bytes/s.
    pub pm_dax_bw_bytes_per_s: f64,
    /// Ramdisk (tmpfs) bandwidth used by the FIO experiment, bytes/s.
    pub ramdisk_bw_bytes_per_s: f64,
    /// Effective training compute rate inside the enclave, FLOP/s.
    pub enclave_flops_per_s: f64,
    /// Per-byte cost of staging a training-data batch into the enclave (copy,
    /// batch assembly, EPC pressure) on top of decryption. Calibrated so that
    /// encrypted-data iterations are ~1.2x slower than plaintext ones (Fig. 8).
    pub enclave_data_staging_ns_per_byte: f64,
    /// Per-swap cost of the SPS benchmark for a native (non-enclave) run, ns.
    pub sps_native_swap_ns: f64,
    /// Multiplier applied to SPS per-swap cost when Romulus runs inside an SGX enclave.
    pub sps_sgx_factor: f64,
    /// Multiplier applied to SPS per-swap cost when Romulus runs in a SCONE container,
    /// for transactions whose volatile log still fits the container budget.
    pub sps_scone_factor: f64,
    /// Number of swaps per transaction beyond which the SCONE container's volatile log
    /// spills and per-swap cost degrades sharply.
    pub scone_log_spill_swaps: usize,
    /// Multiplier applied to SCONE per-swap cost once the volatile log has spilled.
    pub sps_scone_spill_factor: f64,
}

impl CostModel {
    /// Cost model for the paper's `sgx-emlPM` server: real SGX, Ramdisk-emulated PM.
    pub fn sgx_eml_pm() -> Self {
        CostModel {
            profile: ServerProfile::SgxEmlPm,
            cpu_ghz: 3.8,
            sgx_hardware: true,
            pm_is_real: false,
            enclave_transition_cycles: 13_100,
            epc_usable_bytes: (93.5 * 1024.0 * 1024.0) as u64,
            epc_thrash_ns_per_byte: 3.0,
            crypto_ns_per_byte: 0.50,
            pm_write_ns_per_byte: 0.05,
            pm_read_ns_per_byte: 1.50,
            pm_flush_ns: 5,
            pm_fence_ns: 30,
            ssd_write_ns_per_byte: 2.00,
            ssd_read_ns_per_byte: 4.50,
            ssd_fsync_ns: 1_000_000,
            ssd_seq_bw_bytes_per_s: 0.52e9,
            ssd_rand_bw_bytes_per_s: 0.30e9,
            pm_dax_bw_bytes_per_s: 2.2e9,
            ramdisk_bw_bytes_per_s: 6.5e9,
            enclave_flops_per_s: 5.0e9,
            enclave_data_staging_ns_per_byte: 110.0,
            sps_native_swap_ns: 25.0,
            sps_sgx_factor: 2.6,
            sps_scone_factor: 3.6,
            scone_log_spill_swaps: 64,
            sps_scone_spill_factor: 4.5,
        }
    }

    /// Cost model for the paper's `emlSGX-PM` server: simulated SGX, real Optane DC PM.
    pub fn eml_sgx_pm() -> Self {
        CostModel {
            profile: ServerProfile::EmlSgxPm,
            cpu_ghz: 2.5,
            sgx_hardware: false,
            pm_is_real: true,
            enclave_transition_cycles: 250,
            epc_usable_bytes: (93.5 * 1024.0 * 1024.0) as u64,
            epc_thrash_ns_per_byte: 0.0,
            crypto_ns_per_byte: 0.29,
            pm_write_ns_per_byte: 0.15,
            pm_read_ns_per_byte: 0.0625,
            pm_flush_ns: 12,
            pm_fence_ns: 40,
            ssd_write_ns_per_byte: 3.00,
            ssd_read_ns_per_byte: 1.05,
            ssd_fsync_ns: 1_200_000,
            ssd_seq_bw_bytes_per_s: 0.50e9,
            ssd_rand_bw_bytes_per_s: 0.28e9,
            pm_dax_bw_bytes_per_s: 1.8e9,
            ramdisk_bw_bytes_per_s: 7.0e9,
            enclave_flops_per_s: 6.0e9,
            enclave_data_staging_ns_per_byte: 95.0,
            sps_native_swap_ns: 38.0,
            sps_sgx_factor: 1.15,
            sps_scone_factor: 1.35,
            scone_log_spill_swaps: 64,
            sps_scone_spill_factor: 4.0,
        }
    }

    /// Returns the model for a given [`ServerProfile`].
    pub fn for_profile(profile: ServerProfile) -> Self {
        match profile {
            ServerProfile::SgxEmlPm => Self::sgx_eml_pm(),
            ServerProfile::EmlSgxPm => Self::eml_sgx_pm(),
        }
    }

    /// Both server profiles, in the order the paper presents them.
    pub fn both_servers() -> [Self; 2] {
        [Self::sgx_eml_pm(), Self::eml_sgx_pm()]
    }

    /// Converts a cycle count into nanoseconds at this model's clock frequency.
    pub fn cycles_to_ns(&self, cycles: u64) -> u64 {
        (cycles as f64 / self.cpu_ghz).round() as u64
    }

    /// Cost of one enclave transition (ecall or ocall) in nanoseconds.
    pub fn enclave_transition_ns(&self) -> u64 {
        self.cycles_to_ns(self.enclave_transition_cycles)
    }

    /// EPC paging penalty for `bytes` of in-enclave work given the current enclave
    /// working set. Returns zero when SGX is simulated or the working set fits in EPC.
    pub fn epc_paging_penalty_ns(&self, bytes: u64, working_set_bytes: u64) -> u64 {
        if !self.sgx_hardware || working_set_bytes <= self.epc_usable_bytes {
            0
        } else {
            (bytes as f64 * self.epc_thrash_ns_per_byte).round() as u64
        }
    }

    /// In-enclave AES-GCM cost (encrypt or decrypt) for `bytes`, including the EPC
    /// paging penalty for the given enclave working set.
    pub fn crypto_ns(&self, bytes: u64, working_set_bytes: u64) -> u64 {
        (bytes as f64 * self.crypto_ns_per_byte).round() as u64
            + self.epc_paging_penalty_ns(bytes, working_set_bytes)
    }

    /// Cost of writing `bytes` from the enclave into PM (stores + interposed write-backs).
    pub fn pm_write_ns(&self, bytes: u64) -> u64 {
        (bytes as f64 * self.pm_write_ns_per_byte).round() as u64
    }

    /// End-to-end cost per byte of persisting data through a Romulus transaction: the
    /// store + cache-line write-back into the *main* region plus the copy of the logged
    /// range into the *back* region at commit (Romulus' 2x write amplification). This is
    /// the "Write (PM)" component of a Plinius mirror-out in Fig. 7 / Table I.
    pub fn pm_mirror_write_ns(&self, bytes: u64) -> u64 {
        let per_byte = self.pm_write_ns_per_byte + self.pm_flush_ns as f64 / 64.0;
        (2.0 * per_byte * bytes as f64).round() as u64
    }

    /// Cost of reading `bytes` from PM into enclave memory, including the EPC paging
    /// penalty for the given enclave working set.
    pub fn pm_read_ns(&self, bytes: u64, working_set_bytes: u64) -> u64 {
        (bytes as f64 * self.pm_read_ns_per_byte).round() as u64
            + self.epc_paging_penalty_ns(bytes, working_set_bytes)
    }

    /// Cost of writing `bytes` of checkpoint data to the SSD (ocall + fwrite), excluding
    /// the final fsync.
    pub fn ssd_write_ns(&self, bytes: u64) -> u64 {
        (bytes as f64 * self.ssd_write_ns_per_byte).round() as u64
    }

    /// Cost of reading `bytes` of checkpoint data from the SSD into the enclave,
    /// including the EPC paging penalty for the given enclave working set.
    pub fn ssd_read_ns(&self, bytes: u64, working_set_bytes: u64) -> u64 {
        (bytes as f64 * self.ssd_read_ns_per_byte).round() as u64
            + self.epc_paging_penalty_ns(bytes, working_set_bytes)
    }

    /// Cost of one fsync to the SSD.
    pub fn ssd_fsync(&self) -> u64 {
        self.ssd_fsync_ns
    }

    /// Cost of executing `flops` floating-point operations inside the enclave.
    pub fn enclave_compute_ns(&self, flops: u64) -> u64 {
        (flops as f64 / self.enclave_flops_per_s * 1e9).round() as u64
    }

    /// Cost of staging `bytes` of training data into the enclave (excluding decryption).
    pub fn data_staging_ns(&self, bytes: u64) -> u64 {
        (bytes as f64 * self.enclave_data_staging_ns_per_byte).round() as u64
    }

    /// Raw device bandwidth (bytes/s) used by the FIO-style experiment of Fig. 2.
    pub fn fio_bandwidth(&self, device: DeviceKind, sequential: bool) -> f64 {
        match device {
            DeviceKind::Ssd => {
                if sequential {
                    self.ssd_seq_bw_bytes_per_s
                } else {
                    self.ssd_rand_bw_bytes_per_s
                }
            }
            DeviceKind::PersistentMemory => self.pm_dax_bw_bytes_per_s,
            DeviceKind::Dram => self.ramdisk_bw_bytes_per_s,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::sgx_eml_pm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    #[test]
    fn transition_matches_paper_cycles() {
        let m = CostModel::sgx_eml_pm();
        // 13'100 cycles at 3.8 GHz is roughly 3.45 microseconds.
        let ns = m.enclave_transition_ns();
        assert!((3_300..3_600).contains(&ns), "got {ns}");
    }

    #[test]
    fn no_paging_penalty_below_epc() {
        let m = CostModel::sgx_eml_pm();
        assert_eq!(m.epc_paging_penalty_ns(10 * MB, 50 * MB), 0);
    }

    #[test]
    fn paging_penalty_above_epc_only_with_real_sgx() {
        let hw = CostModel::sgx_eml_pm();
        let sim = CostModel::eml_sgx_pm();
        let ws = 120 * MB;
        assert!(hw.epc_paging_penalty_ns(10 * MB, ws) > 0);
        assert_eq!(sim.epc_paging_penalty_ns(10 * MB, ws), 0);
    }

    #[test]
    fn save_breakdown_below_epc_encryption_dominates_on_real_sgx() {
        // Table Ia: on sgx-emlPM encryption is ~66% of a mirror-out below the EPC limit.
        let m = CostModel::sgx_eml_pm();
        let bytes = 50 * MB;
        let enc = m.crypto_ns(bytes, bytes) as f64;
        let write = m.pm_mirror_write_ns(bytes) as f64;
        let frac = enc / (enc + write);
        assert!((0.58..0.75).contains(&frac), "encrypt fraction {frac}");
    }

    #[test]
    fn save_breakdown_beyond_epc_jumps_past_ninety_percent() {
        let m = CostModel::sgx_eml_pm();
        let bytes = 100 * MB;
        let enc = m.crypto_ns(bytes, bytes) as f64;
        let write = m.pm_mirror_write_ns(bytes) as f64;
        let frac = enc / (enc + write);
        assert!(frac > 0.88, "encrypt fraction {frac}");
    }

    #[test]
    fn pm_write_beats_ssd_write_by_large_factor() {
        // Table Ib: writes to PM are ~7.9x faster than writes to SSD on sgx-emlPM.
        let m = CostModel::sgx_eml_pm();
        let bytes = 50 * MB;
        let speedup = m.ssd_write_ns(bytes) as f64 / m.pm_mirror_write_ns(bytes) as f64;
        assert!(speedup > 5.0 && speedup < 12.0, "speedup {speedup}");
    }

    #[test]
    fn restore_read_fraction_small_on_real_pm() {
        // Table Ia (emlSGX-PM): reads are ~18% of a restore, decryption dominates.
        let m = CostModel::eml_sgx_pm();
        let bytes = 50 * MB;
        let read = m.pm_read_ns(bytes, bytes) as f64;
        let dec = m.crypto_ns(bytes, bytes) as f64;
        let frac = read / (read + dec);
        assert!((0.10..0.30).contains(&frac), "read fraction {frac}");
    }

    #[test]
    fn fio_pm_dax_faster_than_ssd_slower_than_ramdisk() {
        let m = CostModel::sgx_eml_pm();
        let ssd = m.fio_bandwidth(DeviceKind::Ssd, true);
        let pm = m.fio_bandwidth(DeviceKind::PersistentMemory, true);
        let ram = m.fio_bandwidth(DeviceKind::Dram, true);
        assert!(pm > ssd);
        assert!(ram > pm);
    }

    #[test]
    fn profiles_display_like_paper() {
        assert_eq!(ServerProfile::SgxEmlPm.to_string(), "sgx-emlPM");
        assert_eq!(ServerProfile::EmlSgxPm.to_string(), "emlSGX-PM");
        assert_eq!(DeviceKind::PersistentMemory.to_string(), "PM");
    }

    #[test]
    fn for_profile_round_trips() {
        for p in [ServerProfile::SgxEmlPm, ServerProfile::EmlSgxPm] {
            assert_eq!(CostModel::for_profile(p).profile, p);
        }
        let both = CostModel::both_servers();
        assert_eq!(both[0].profile, ServerProfile::SgxEmlPm);
        assert_eq!(both[1].profile, ServerProfile::EmlSgxPm);
    }

    #[test]
    fn compute_cost_scales_linearly() {
        let m = CostModel::sgx_eml_pm();
        let one = m.enclave_compute_ns(1_000_000);
        let ten = m.enclave_compute_ns(10_000_000);
        assert!(ten >= 9 * one && ten <= 11 * one);
    }
}
