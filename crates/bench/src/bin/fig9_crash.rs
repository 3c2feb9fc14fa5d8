//! Regenerates Fig. 9: training-loss curves with random crash/restarts, for the
//! crash-resilient (Plinius mirroring) and non-crash-resilient systems.
//!
//! The model and iteration counts are scaled down from the paper (5 LReLU conv layers,
//! 500 iterations) so the run completes quickly on a laptop; pass --full for the
//! paper-scale run.

use plinius::{train_with_crash_schedule, PersistenceBackend, TrainerConfig, TrainingSetup};
use plinius_bench::{cli, RunMode};
use plinius_darknet::{mnist_cnn_config, synthetic_mnist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_clock::CostModel;

fn main() {
    let (iters, conv_layers, batch, samples, crashes) = match cli::init(0).mode {
        RunMode::Smoke => (12, 1, 8, 64, 1),
        RunMode::Full => (500, 5, 128, 4096, 9),
        _ => (100, 3, 16, 512, 4),
    };
    let mut rng = StdRng::seed_from_u64(2021);
    let setup = TrainingSetup {
        cost: CostModel::eml_sgx_pm(),
        pm_bytes: 96 * 1024 * 1024,
        model_config: mnist_cnn_config(conv_layers, 8, batch),
        dataset: synthetic_mnist(samples, &mut rng),
        trainer: TrainerConfig {
            batch,
            max_iterations: iters,
            seed: 9,
            ..TrainerConfig::default()
        },
        backend: PersistenceBackend::PmMirror,
        model_seed: 5,
    };
    let crash_points: Vec<u64> = (0..crashes).map(|_| rng.gen_range(5..iters - 5)).collect();
    println!(
        "Figure 9 — crash resilience ({} iterations, crashes at {:?})",
        iters, crash_points
    );
    for (label, resilient) in [
        ("crash-resilient (Plinius)", true),
        ("non-crash-resilient", false),
    ] {
        match train_with_crash_schedule(&setup, &crash_points, resilient) {
            Ok(report) => {
                println!(
                    "\n{label}: completed iteration {}, executed {} iterations total, {} crashes",
                    report.completed_iteration, report.total_iterations_executed, report.crashes
                );
                println!("  loss curve (every 10th executed iteration):");
                for (i, loss) in report.losses.iter().enumerate().step_by(10) {
                    println!("    iter {:>5}: {:.4}", i + 1, loss);
                }
            }
            Err(e) => eprintln!("{label} failed: {e}"),
        }
    }
}
