//! Reproduces the secure-inference experiment of §VI: train a CNN on (synthetic) MNIST
//! inside the enclave, then classify the held-out test set and report accuracy.
//! The paper reports 98.52% on real MNIST with a 12-layer model; the synthetic dataset
//! and the scaled-down default model reach a comparable high accuracy.

use plinius::{run_full_workflow, PersistenceBackend, TrainerConfig, TrainingSetup};
use plinius_bench::{cli, RunMode};
use plinius_darknet::{mnist_cnn_config, synthetic_mnist};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_clock::CostModel;

fn main() {
    let (iters, conv_layers, batch, samples) = match cli::init(0).mode {
        RunMode::Smoke => (10, 1, 8, 120),
        RunMode::Full => (500, 12, 128, 12_000),
        _ => (200, 2, 32, 2400),
    };
    let mut rng = StdRng::seed_from_u64(52);
    let setup = TrainingSetup {
        cost: CostModel::sgx_eml_pm(),
        pm_bytes: 256 * 1024 * 1024,
        model_config: mnist_cnn_config(conv_layers, 8, batch),
        dataset: synthetic_mnist(samples, &mut rng),
        trainer: TrainerConfig {
            batch,
            max_iterations: iters,
            mirror_frequency: 10,
            seed: 77,
            ..TrainerConfig::default()
        },
        backend: PersistenceBackend::PmMirror,
        model_seed: 11,
    };
    match run_full_workflow(&setup) {
        Ok(report) => {
            println!(
                "Secure inference experiment ({} iterations, {} conv layers)",
                iters, conv_layers
            );
            println!("  attestation ok:     {}", report.attestation_ok);
            println!(
                "  persistence:        {} ({} persists)",
                report.backend, report.persist_stats.persists
            );
            println!("  final loss:         {:.4}", report.final_loss);
            println!("  test accuracy:      {:.2}%", report.test_accuracy * 100.0);
            println!("  PM dataset bytes:   {}", report.pm_dataset_bytes);
            println!(
                "  simulated time:     {:.2} s",
                report.simulated_ns as f64 / 1e9
            );
        }
        Err(e) => eprintln!("workflow failed: {e}"),
    }
}
