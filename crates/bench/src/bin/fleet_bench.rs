//! Multi-tenant fleet benchmark: aggregate training throughput and job latency vs
//! tenant count on one shared PM module.
//!
//! For each tenant count `N` the sweep deploys a fresh fleet ([`plinius::Fleet`]):
//! `N` tenants, each with its own Romulus root pair, derived sealing key and PM
//! copy of the dataset, all sharing one simulated PM write lane. It reports
//!
//! * **jobs/hour** — completed training jobs per virtual hour of fleet makespan
//!   (compute overlaps across tenants; publishes serialize on the PM lane);
//! * **p50/p99 job latency** — admission-to-completion, on the virtual lanes;
//! * **makespan vs serial** — how much of the serial cost the overlap hides;
//! * **PM-lane utilisation** — the publish bottleneck as tenant count grows.
//!
//! All numbers come from the sim-clock cost model: deterministic, identical for
//! every `PLINIUS_THREADS` value. `--tenants N` (or `PLINIUS_TENANTS`) replaces
//! the sweep with the single given tenant count.

use plinius::{Fleet, FleetConfig, Knobs, PliniusError, TrainingSetup};
use plinius_bench::{cli, RunMode};
use plinius_darknet::{mnist_cnn_config, synthetic_mnist};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_clock::CostModel;

struct Scale {
    iterations: u64,
    mirror_frequency: u64,
    samples: usize,
    batch: usize,
    /// PM pool bytes reserved per tenant (dataset + mirror ring + slack).
    pm_per_tenant: usize,
    tenant_counts: Vec<usize>,
}

fn scale(mode: RunMode) -> Scale {
    match mode {
        RunMode::Smoke => Scale {
            iterations: 4,
            mirror_frequency: 2,
            samples: 96,
            batch: 8,
            pm_per_tenant: 24 * 1024 * 1024,
            tenant_counts: vec![1, 2],
        },
        RunMode::Quick => Scale {
            iterations: 20,
            mirror_frequency: 4,
            samples: 240,
            batch: 8,
            pm_per_tenant: 24 * 1024 * 1024,
            tenant_counts: vec![1, 2, 4],
        },
        RunMode::Full => Scale {
            iterations: 100,
            mirror_frequency: 5,
            samples: 1000,
            batch: 16,
            pm_per_tenant: 48 * 1024 * 1024,
            tenant_counts: vec![1, 2, 4, 8, 16],
        },
        RunMode::Default => Scale {
            iterations: 40,
            mirror_frequency: 5,
            samples: 400,
            batch: 16,
            pm_per_tenant: 32 * 1024 * 1024,
            tenant_counts: vec![1, 2, 4, 8],
        },
    }
}

fn setup_for(scale: &Scale, cost: &CostModel, tenants: usize) -> TrainingSetup {
    let mut rng = StdRng::seed_from_u64(17);
    let mut setup = TrainingSetup::small_test();
    setup.cost = cost.clone();
    setup.pm_bytes = scale.pm_per_tenant * tenants + (8 << 20);
    setup.model_config = mnist_cnn_config(2, 4, scale.batch);
    setup.dataset = synthetic_mnist(scale.samples, &mut rng);
    setup.trainer.batch = scale.batch;
    setup.trainer.max_iterations = scale.iterations;
    setup.trainer.mirror_frequency = scale.mirror_frequency;
    setup.trainer.seed = 29;
    setup
}

fn sweep_point(scale: &Scale, cost: &CostModel, tenants: usize) -> Result<(), PliniusError> {
    let setup = setup_for(scale, cost, tenants);
    let mut fleet = Fleet::deploy(
        setup,
        FleetConfig {
            tenants,
            max_concurrent: 0,
        },
    )?;
    let report = fleet.run()?;
    let utilisation = if report.makespan_ns > 0 {
        100.0 * report.pm_lane_busy_ns as f64 / report.makespan_ns as f64
    } else {
        0.0
    };
    println!(
        "{:>8} {:>12.1} {:>12.3} {:>12.3} {:>13.3} {:>12.3} {:>10.1}",
        tenants,
        report.jobs_per_hour(),
        report.latency.p50_ns as f64 / 1e6,
        report.latency.p99_ns as f64 / 1e6,
        report.makespan_ns as f64 / 1e6,
        report.serial_ns as f64 / 1e6,
        utilisation,
    );
    Ok(())
}

fn main() {
    let mode = cli::init(0).mode;
    let scale = scale(mode);
    // A --tenants/PLINIUS_TENANTS override pins the sweep to that single count.
    let tenant_counts = match Knobs::from_env().tenants {
        Some(tenants) => vec![tenants],
        None => scale.tenant_counts.clone(),
    };
    println!(
        "Fleet benchmark ({mode} scale): {} iterations/job, mirror every {}, batch {}",
        scale.iterations, scale.mirror_frequency, scale.batch
    );
    for cost in CostModel::both_servers() {
        println!("\nTenant sweep — {} (virtual-lane model)", cost.profile);
        println!(
            "{:>8} {:>12} {:>12} {:>12} {:>13} {:>12} {:>10}",
            "tenants",
            "jobs/hour",
            "p50 (ms)",
            "p99 (ms)",
            "makespan(ms)",
            "serial(ms)",
            "PM lane %"
        );
        for &tenants in &tenant_counts {
            if let Err(e) = sweep_point(&scale, &cost, tenants) {
                eprintln!("fleet sweep failed at {tenants} tenants: {e}");
                std::process::exit(1);
            }
        }
    }
}
