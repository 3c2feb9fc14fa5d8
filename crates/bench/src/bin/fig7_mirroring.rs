//! Regenerates Fig. 7: PM mirroring vs SSD checkpointing save/restore latency versus
//! model size, for both server profiles (sgx-emlPM and emlSGX-PM).

use plinius_bench::{
    aead_sweep, cli, mirroring_sweep, pipeline_point, print_aead_sweep, print_pipeline_point,
    RunMode, AEAD_SIZES, AEAD_SIZES_SMOKE, FIG7_SIZES_MB, FIG7_SIZES_QUICK_MB, FIG7_SIZES_SMOKE_MB,
};
use sim_clock::CostModel;

fn main() {
    let mode = cli::init(0).mode;
    let sizes: &[usize] = match mode {
        RunMode::Smoke => &FIG7_SIZES_SMOKE_MB,
        RunMode::Quick => &FIG7_SIZES_QUICK_MB,
        _ => &FIG7_SIZES_MB,
    };
    let aead_sizes: &[usize] = match mode {
        RunMode::Full => &AEAD_SIZES,
        _ => &AEAD_SIZES_SMOKE,
    };
    let (pipeline_iters, pipeline_batch) = plinius_bench::pipeline_scale(mode);
    for cost in CostModel::both_servers() {
        println!("\nFigure 7 — {} (latencies in ms, simulated)", cost.profile);
        println!(
            "{:>7} {:>8} | {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10} | {:>10} {:>10} | {:>10} {:>10}",
            "MB", "EPC", "enc(PM)", "write(PM)", "save(PM)", "enc(SSD)", "write(SSD)", "save(SSD)",
            "read(PM)", "dec(PM)", "read(SSD)", "dec(SSD)"
        );
        match mirroring_sweep(&cost, sizes) {
            Ok(points) => {
                for p in points {
                    println!(
                        "{:>7} {:>8} | {:>10.1} {:>10.1} {:>10.1} | {:>10.1} {:>10.1} {:>10.1} | {:>10.1} {:>10.1} | {:>10.1} {:>10.1}",
                        p.target_mb,
                        if p.beyond_epc { "beyond" } else { "below" },
                        p.pm_encrypt_ms, p.pm_write_ms, p.pm_save_ms(),
                        p.ssd_encrypt_ms, p.ssd_write_ms, p.ssd_save_ms(),
                        p.pm_read_ms, p.pm_decrypt_ms,
                        p.ssd_read_ms, p.ssd_decrypt_ms
                    );
                }
            }
            Err(e) => eprintln!("sweep failed: {e}"),
        }
        // The pipeline companion: what the overlapped persistence engine buys on the
        // same profile (simulated per-iteration overhead + wall-clock run time).
        match pipeline_point(&cost, pipeline_iters, pipeline_batch) {
            Ok(p) => print_pipeline_point(&cost.profile.to_string(), &p),
            Err(e) => eprintln!("pipeline sweep failed: {e}"),
        }
    }
    // The figure's latencies above are simulated (cost-model driven); this appendix
    // reports what the rebuilt software AEAD engine does on the *host* hardware —
    // the component that bounds a real mirror-out's encryption share.
    print_aead_sweep(&aead_sweep(aead_sizes));
}
