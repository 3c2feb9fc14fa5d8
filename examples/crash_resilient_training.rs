//! Crash-resilient training (the Fig. 9 scenario): the training process is killed
//! several times; thanks to the encrypted PM mirror the model resumes exactly where it
//! stopped, while a non-resilient run has to start over after every crash.
//!
//! Run with: `cargo run --example crash_resilient_training`

use plinius::{train_with_crash_schedule, PersistenceBackend, TrainerConfig, TrainingSetup};
use plinius_darknet::{mnist_cnn_config, synthetic_mnist};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_clock::CostModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(5);
    let setup = TrainingSetup {
        cost: CostModel::eml_sgx_pm(),
        pm_bytes: 64 * 1024 * 1024,
        model_config: mnist_cnn_config(3, 8, 16),
        dataset: synthetic_mnist(400, &mut rng),
        trainer: TrainerConfig {
            batch: 16,
            max_iterations: 60,
            seed: 2,
            ..TrainerConfig::default()
        },
        backend: PersistenceBackend::PmMirror,
        model_seed: 9,
    };
    let crashes = [12u64, 30, 47];
    println!("Killing the training process after {crashes:?} executed iterations...");
    let resilient = train_with_crash_schedule(&setup, &crashes, true)?;
    let fragile = train_with_crash_schedule(&setup, &crashes, false)?;
    println!(
        "  crash-resilient (Plinius): {} iterations executed to reach iteration {}",
        resilient.total_iterations_executed, resilient.completed_iteration
    );
    println!(
        "  non-crash-resilient:       {} iterations executed to reach iteration {}",
        fragile.total_iterations_executed, fragile.completed_iteration
    );
    println!(
        "  wasted work without mirroring: {} extra iterations",
        fragile.total_iterations_executed - resilient.total_iterations_executed
    );
    Ok(())
}
