//! Regenerates Fig. 2: FIO read/write throughput on SSD (Ext4), PM (Ext4+DAX) and
//! Ramdisk (tmpfs) for sequential/random workloads with 1-8 threads.

use plinius_pmem::figure2_sweep;

fn main() {
    // The sweep is fixed-size; parsing still validates the command line (`--smoke` is
    // accepted for the smoke-test harness, unknown flags are an error).
    plinius_bench::cli::init(0);
    println!("Figure 2 — storage characterization (throughput in GB/s)");
    println!(
        "{:<10} {:<12} {:<7} {:>8} {:>12}",
        "device", "pattern", "op", "threads", "GB/s"
    );
    for r in figure2_sweep() {
        println!(
            "{:<10} {:<12} {:<7} {:>8} {:>12.3}",
            r.job.device.to_string(),
            r.job.pattern.to_string(),
            r.job.op.to_string(),
            r.job.threads,
            r.throughput_gbps()
        );
    }
}
