//! Regenerates Table I: breakdown of mirroring steps (%) and Plinius speed-ups vs SSD
//! checkpointing, below and beyond the EPC limit, for both server profiles. Also prints
//! the PM encryption-metadata accounting of §VI (140 B per layer).

use plinius_bench::{
    aead_sweep, cli, mirroring_sweep, pipeline_point, print_aead_sweep, table1, RunMode,
    AEAD_SIZES, AEAD_SIZES_SMOKE, FIG7_SIZES_MB, FIG7_SIZES_QUICK_MB, FIG7_SIZES_SMOKE_MB,
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
    for cost in CostModel::both_servers() {
        match mirroring_sweep(&cost, sizes) {
            Ok(points) => {
                let t = table1(&points);
                println!("\nTable I — {} ({mode} sweep)", cost.profile);
                println!("  (a) Breakdown of mirroring steps (%)        below EPC   beyond EPC");
                println!(
                    "      Save:    Encrypt                        {:>8.1}    {:>8.1}",
                    t.save_encrypt_pct_below, t.save_encrypt_pct_beyond
                );
                println!(
                    "               Write                          {:>8.1}    {:>8.1}",
                    100.0 - t.save_encrypt_pct_below,
                    100.0 - t.save_encrypt_pct_beyond
                );
                println!(
                    "      Restore: Read                           {:>8.1}    {:>8.1}",
                    t.restore_read_pct_below, t.restore_read_pct_beyond
                );
                println!(
                    "               Decrypt                        {:>8.1}    {:>8.1}",
                    100.0 - t.restore_read_pct_below,
                    100.0 - t.restore_read_pct_beyond
                );
                println!("  (b) Plinius speed-ups vs SSD                below EPC   beyond EPC");
                println!(
                    "      Save:    Write                          {:>7.1}x    {:>7.1}x",
                    t.write_speedup.0, t.write_speedup.1
                );
                println!(
                    "               Total                          {:>7.1}x    {:>7.1}x",
                    t.save_speedup.0, t.save_speedup.1
                );
                println!(
                    "      Restore: Read                           {:>7.1}x    {:>7.1}x",
                    t.read_speedup.0, t.read_speedup.1
                );
                println!(
                    "               Total                          {:>7.1}x    {:>7.1}x",
                    t.restore_speedup.0, t.restore_speedup.1
                );
            }
            Err(e) => eprintln!("sweep failed: {e}"),
        }
        // (c) What the overlapped persistence engine buys on this profile: the save
        // breakdown above is the Sync cost; pipelined, only the non-hidden share
        // stays on the training critical path.
        let (iters, batch) = plinius_bench::pipeline_scale(mode);
        match pipeline_point(&cost, iters, batch) {
            Ok(p) => {
                println!("  (c) Pipelined mirroring ({iters} iters, batch {batch})");
                println!(
                    "      Overhead/iter: sync {:.3} ms, overlapped {:.3} ms ({:.2}x), compute {:.3} ms",
                    p.sync_overhead_ms,
                    p.overlapped_overhead_ms,
                    p.overhead_ratio(),
                    p.base_ms_per_iter
                );
            }
            Err(e) => eprintln!("pipeline sweep failed: {e}"),
        }
    }
    println!("\nPM encryption metadata: 28 B per parameter buffer (12 B IV + 16 B MAC), 5 buffers per layer = 140 B per layer.");
    // Table Ia's encryption share is what the AEAD engine's real throughput buys
    // down on actual hardware; report the engine's wall-clock numbers alongside.
    print_aead_sweep(&aead_sweep(aead_sizes));
}
