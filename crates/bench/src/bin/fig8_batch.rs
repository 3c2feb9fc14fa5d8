//! Regenerates Fig. 8: per-iteration training time versus batch size for encrypted and
//! unencrypted MNIST-like data on both server profiles.

use plinius_bench::{cli, iteration_sweep, RunMode};
use sim_clock::CostModel;

fn main() {
    let mode = cli::init(0).mode;
    let batches: Vec<usize> = match mode {
        RunMode::Smoke => vec![8],
        RunMode::Quick => vec![16, 128, 512],
        _ => vec![16, 64, 128, 256, 512, 1024],
    };
    let samples = match mode {
        RunMode::Smoke => 64,
        RunMode::Quick => 256,
        _ => 1024,
    };
    for cost in CostModel::both_servers() {
        println!(
            "\nFigure 8 — {} (seconds per iteration, simulated)",
            cost.profile
        );
        println!(
            "{:>8} {:>16} {:>18} {:>10}",
            "batch", "encrypted (s)", "unencrypted (s)", "overhead"
        );
        match iteration_sweep(&cost, &batches, samples) {
            Ok(points) => {
                for p in points {
                    println!(
                        "{:>8} {:>16.4} {:>18.4} {:>9.2}x",
                        p.batch,
                        p.encrypted_s,
                        p.plaintext_s,
                        p.overhead()
                    );
                }
            }
            Err(e) => eprintln!("sweep failed: {e}"),
        }
    }
}
