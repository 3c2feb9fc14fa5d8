//! Serving-tier benchmark: open-loop batched inference against the committed PM
//! mirror epoch, swept over offered arrival rates for both training pipelines.
//!
//! Two scenarios per pipeline mode:
//!
//! 1. **Post-training serving** — train to completion, then answer an open-loop
//!    request stream at several arrival rates, reporting throughput and p50/p99
//!    latency on the simulated clock.
//! 2. **Serve-while-training** — interleave training bursts with serving batches on
//!    the live mirror, reporting how many epoch hot-swaps the server performed
//!    mid-traffic.
//!
//! Run with: `cargo run --release --bin serve_bench [--smoke|--quick|--full]`

use plinius::{
    InferenceServer, PersistenceBackend, PipelineMode, PliniusBuilder, PliniusError,
    PliniusTrainer, ServeConfig, ServeSession, TrainerConfig, TrainingSetup,
};
use plinius_bench::{cli, RunMode};
use plinius_darknet::{mnist_cnn_config, synthetic_mnist, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_clock::CostModel;

struct Scale {
    train_iterations: u64,
    samples: usize,
    batch: usize,
    requests: u64,
    /// Mean request inter-arrival gaps to sweep, in simulated nanoseconds.
    arrival_ns: Vec<u64>,
}

fn scale(mode: RunMode) -> Scale {
    match mode {
        RunMode::Smoke => Scale {
            train_iterations: 4,
            samples: 96,
            batch: 8,
            requests: 32,
            arrival_ns: vec![1_000_000, 250_000, 50_000],
        },
        RunMode::Quick => Scale {
            train_iterations: 40,
            samples: 400,
            batch: 16,
            requests: 400,
            arrival_ns: vec![1_000_000, 250_000, 50_000],
        },
        RunMode::Full => Scale {
            train_iterations: 300,
            samples: 2000,
            batch: 32,
            requests: 20_000,
            arrival_ns: vec![2_000_000, 500_000, 100_000, 20_000],
        },
        RunMode::Default => Scale {
            train_iterations: 100,
            samples: 1000,
            batch: 32,
            requests: 2_000,
            arrival_ns: vec![1_000_000, 250_000, 50_000],
        },
    }
}

fn setup_for(scale: &Scale, pipeline: PipelineMode) -> TrainingSetup {
    let mut rng = StdRng::seed_from_u64(21);
    TrainingSetup {
        cost: CostModel::sgx_eml_pm(),
        pm_bytes: 128 * 1024 * 1024,
        model_config: mnist_cnn_config(2, 8, scale.batch),
        dataset: synthetic_mnist(scale.samples, &mut rng),
        trainer: TrainerConfig {
            batch: scale.batch,
            max_iterations: scale.train_iterations,
            mirror_frequency: scale.train_iterations.min(5),
            seed: 33,
            pipeline,
            ..TrainerConfig::default()
        },
        backend: PersistenceBackend::PmMirror,
        model_seed: 8,
    }
}

fn attach_server(
    trainer: &PliniusTrainer,
    template: &Network,
) -> Result<InferenceServer, PliniusError> {
    InferenceServer::new(
        trainer.context(),
        trainer
            .mirror_handle()
            .expect("the PM-mirror backend always carries a mirror"),
        template,
    )
}

fn rate_sweep(scale: &Scale, pipeline: PipelineMode) -> Result<(), PliniusError> {
    let setup = setup_for(scale, pipeline);
    let template = setup.build_network()?;
    let mut trainer = PliniusBuilder::new(setup.clone()).build()?;
    trainer.run()?;
    let probe = attach_server(&trainer, &template)?;
    println!(
        "\n[{pipeline:?}] post-training serving — epoch {} from the PM mirror, \
         {} gemm engine",
        probe.epoch(),
        probe.gemm_engine().name()
    );
    println!(
        "{:>14} {:>12} {:>12} {:>12} {:>8}",
        "offered req/s", "served req/s", "p50 (ms)", "p99 (ms)", "batches"
    );
    for &arrival_ns in &scale.arrival_ns {
        let server = attach_server(&trainer, &template)?;
        let mut session = ServeSession::new(
            server,
            setup.dataset.clone(),
            ServeConfig {
                batch: scale.batch,
                arrival_ns,
                requests: scale.requests,
                seed: 99,
            },
        )?;
        let report = session.run()?;
        println!(
            "{:>14.0} {:>12.0} {:>12.3} {:>12.3} {:>8}",
            1e9 / arrival_ns as f64,
            report.throughput_rps(),
            report.latency.p50_ns as f64 / 1e6,
            report.latency.p99_ns as f64 / 1e6,
            report.batches
        );
    }
    Ok(())
}

fn serve_while_training(scale: &Scale, pipeline: PipelineMode) -> Result<(), PliniusError> {
    let setup = setup_for(scale, pipeline);
    let template = setup.build_network()?;
    let mut trainer = PliniusBuilder::new(setup.clone()).build()?;
    // Commit the first epoch, then serve against the live, still-training mirror.
    trainer.run_at_most(setup.trainer.mirror_frequency)?;
    let server = attach_server(&trainer, &template)?;
    let arrival_ns = *scale.arrival_ns.last().unwrap();
    let mut session = ServeSession::new(
        server,
        setup.dataset.clone(),
        ServeConfig {
            batch: scale.batch,
            arrival_ns,
            requests: scale.requests,
            seed: 7,
        },
    )?;
    while !session.is_done() {
        trainer.run_at_most(2)?;
        for _ in 0..2 {
            session.pump_one_batch()?;
        }
    }
    trainer.run()?;
    let report = session.report();
    println!(
        "[{pipeline:?}] serve-while-training — {} requests at {:.0} req/s offered: \
         {:.0} req/s served, {} hot swaps, final epoch {}, p99 {:.3} ms",
        report.served,
        1e9 / arrival_ns as f64,
        report.throughput_rps(),
        report.swaps,
        report.final_epoch,
        report.latency.p99_ns as f64 / 1e6
    );
    Ok(())
}

fn main() {
    let mode = cli::init(0).mode;
    let scale = scale(mode);
    println!(
        "Serving benchmark ({mode} scale): {} requests per rate, batch {}, profile {}",
        scale.requests,
        scale.batch,
        CostModel::sgx_eml_pm().profile
    );
    for pipeline in [PipelineMode::Sync, PipelineMode::Overlapped] {
        if let Err(e) = rate_sweep(&scale, pipeline) {
            eprintln!("rate sweep failed: {e}");
            std::process::exit(1);
        }
        if let Err(e) = serve_while_training(&scale, pipeline) {
            eprintln!("serve-while-training failed: {e}");
            std::process::exit(1);
        }
    }
}
