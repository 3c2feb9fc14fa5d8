//! Secure inference (§VI): train a CNN inside the enclave on encrypted PM data, then
//! serve a held-out test set through the batched `InferenceServer` tier.
//!
//! The trainer is assembled through `PliniusBuilder`: with no explicit context it
//! performs a local deployment (fresh PM pool, seed-derived key, dataset loaded into
//! PM) — the shortest path from a dataset to a training enclave. The server then
//! attaches to the live mirror via `mirror_handle()`, restores the committed epoch
//! with a torn-read-free snapshot read, and answers an open-loop request stream,
//! reporting accuracy alongside latency percentiles and throughput.
//!
//! Run with: `cargo run --release --example secure_inference`

use plinius::{
    InferenceServer, PersistenceBackend, PliniusBuilder, ServeConfig, ServeSession, TrainerConfig,
    TrainingSetup,
};
use plinius_darknet::{mnist_cnn_config, synthetic_mnist};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_clock::CostModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(3);
    let dataset = synthetic_mnist(1200, &mut rng);
    let (train, test) = dataset.split(1000);
    let setup = TrainingSetup {
        cost: CostModel::sgx_eml_pm(),
        pm_bytes: 128 * 1024 * 1024,
        model_config: mnist_cnn_config(2, 8, 32),
        dataset: train,
        trainer: TrainerConfig {
            batch: 32,
            max_iterations: 150,
            mirror_frequency: 10,
            seed: 33,
            ..TrainerConfig::default()
        },
        backend: PersistenceBackend::PmMirror,
        model_seed: 8,
    };
    let template = setup.build_network()?;
    let mut trainer = PliniusBuilder::new(setup).build()?;
    let report = trainer.run()?;
    println!(
        "Trained for {} iterations, final loss {:.4}",
        report.final_iteration,
        report.final_loss().unwrap_or(f32::NAN)
    );
    println!(
        "Persistence: {} ({} persists, {} KiB written)",
        trainer.backend().label(),
        trainer.persist_stats().persists,
        trainer.persist_stats().persisted_bytes / 1024
    );

    // Serve the held-out set from the committed epoch: the server never reads the
    // trainer's in-enclave weights, only the sealed PM mirror.
    let server = InferenceServer::new(
        trainer.context(),
        trainer
            .mirror_handle()
            .expect("the PM-mirror backend always carries a mirror"),
        &template,
    )?;
    println!(
        "Serving epoch {} (iteration {}) from the PM mirror",
        server.epoch(),
        server.iteration()
    );
    let mut session = ServeSession::new(
        server,
        test,
        ServeConfig {
            batch: 16,
            arrival_ns: 50_000, // 20k requests/s offered load
            requests: 400,
            seed: 99,
        },
    )?;
    let serve_report = session.run()?;
    println!(
        "Secure inference accuracy on {} served requests: {:.1}%",
        serve_report.served,
        serve_report.accuracy() * 100.0
    );
    println!(
        "Throughput {:.0} req/s over {} batches ({} hot swaps); latency {}",
        serve_report.throughput_rps(),
        serve_report.batches,
        serve_report.swaps,
        serve_report.latency
    );
    Ok(())
}
