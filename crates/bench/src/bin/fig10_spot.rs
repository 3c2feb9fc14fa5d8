//! Regenerates Fig. 10: model training driven by an AWS EC2 spot-instance price trace
//! (loss curve + instance state curve), with and without crash resilience.

use plinius::{
    spot_crash_schedule, train_with_crash_schedule, PersistenceBackend, TrainerConfig,
    TrainingSetup,
};
use plinius_bench::{cli, BenchArgs, RunMode};
use plinius_darknet::{mnist_cnn_config, synthetic_mnist};
use plinius_spot::{SpotSimulator, SpotTrace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_clock::CostModel;

fn main() {
    let BenchArgs { mode, inputs, .. } = cli::init(1);
    let (iters, conv_layers, batch, samples) = match mode {
        RunMode::Smoke => (12, 1, 8, 64),
        RunMode::Full => (500, 12, 128, 4096),
        _ => (100, 4, 16, 512),
    };
    let max_bid = 0.0955;
    let mut rng = StdRng::seed_from_u64(38);
    // Spot trace: use a real CSV passed as the argument, otherwise synthesize one.
    let trace = inputs
        .first()
        .and_then(|path| std::fs::read_to_string(path).ok())
        .and_then(|text| SpotTrace::parse_csv(&text).ok())
        .unwrap_or_else(|| SpotTrace::synthetic(160, 0.0912, &mut rng));
    let sim = SpotSimulator::new(trace, max_bid);
    println!("Figure 10 — spot-instance training (max bid {max_bid}, {} interruptions, availability {:.1}%)",
        sim.interruptions(), sim.availability() * 100.0);
    println!("\n  (b/d) instance state curve (minute, price, running):");
    for step in sim.state_curve().iter().step_by(8) {
        println!(
            "    t={:>5} min  price={:.4}  running={}",
            step.minute,
            step.price,
            u8::from(step.running)
        );
    }
    let iterations_per_step = 4;
    let schedule = spot_crash_schedule(&sim, iterations_per_step);
    let setup = TrainingSetup {
        cost: CostModel::eml_sgx_pm(),
        pm_bytes: 96 * 1024 * 1024,
        model_config: mnist_cnn_config(conv_layers, 8, batch),
        dataset: synthetic_mnist(samples, &mut rng),
        trainer: TrainerConfig {
            batch,
            max_iterations: iters,
            seed: 4,
            ..TrainerConfig::default()
        },
        backend: PersistenceBackend::PmMirror,
        model_seed: 6,
    };
    for (label, resilient) in [
        ("(a) crash-resilient spot training", true),
        ("(c) non-crash-resilient spot training", false),
    ] {
        match train_with_crash_schedule(&setup, &schedule, resilient) {
            Ok(report) => {
                println!("\n{label}: completed iteration {}, executed {} iterations, {} interruptions hit",
                    report.completed_iteration, report.total_iterations_executed, report.crashes);
                for (i, loss) in report.losses.iter().enumerate().step_by(10) {
                    println!("    iter {:>5}: {:.4}", i + 1, loss);
                }
            }
            Err(e) => eprintln!("{label} failed: {e}"),
        }
    }
}
