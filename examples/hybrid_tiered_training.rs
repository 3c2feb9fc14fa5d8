//! Hybrid tiered persistence: mirror to PM every iteration for near-instant recovery,
//! and *demote* an encrypted checkpoint to the SSD every few iterations so the model
//! even survives the loss of the PM module itself — a scenario the paper motivates
//! (PM as the fast tier, SSD as the safety net) but never builds.
//!
//! The example walks through three lives of one training job:
//!
//! 1. initial training with the hybrid backend;
//! 2. a process crash — the PM mirror restores the model with zero lost iterations;
//! 3. a PM module replacement (brand-new pool) — the demoted SSD checkpoint brings the
//!    model back, losing only the iterations since the last demotion.
//!
//! Run with: `cargo run --example hybrid_tiered_training`

use plinius::{
    shared_ssd, HybridTieredBackend, PersistenceBackend, PliniusBuilder, PliniusContext, PmDataset,
    TrainerConfig, TrainingSetup,
};
use plinius_crypto::Key;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_clock::CostModel;

const DEMOTE_EVERY: u64 = 5;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(17);
    let setup = TrainingSetup {
        cost: CostModel::eml_sgx_pm(),
        pm_bytes: 64 * 1024 * 1024,
        model_config: plinius_darknet::mnist_cnn_config(2, 8, 16),
        dataset: plinius_darknet::synthetic_mnist(400, &mut rng),
        trainer: TrainerConfig {
            batch: 16,
            max_iterations: 30,
            seed: 6,
            ..TrainerConfig::default()
        },
        backend: PersistenceBackend::HybridTiered {
            ssd_path: "tier.ckpt".into(),
            demote_every: DEMOTE_EVERY,
        },
        model_seed: 2,
    };
    let key = Key::generate_128(&mut rng);

    // Life 1: deploy and train. The SSD (like a real disk) outlives every crash below.
    let ctx = PliniusContext::create(setup.cost.clone(), setup.pm_bytes)?;
    ctx.provision_key_directly(key.clone());
    PmDataset::load(&ctx, &setup.dataset)?;
    let ssd = shared_ssd(&ctx);
    let pool = ctx.pool().clone();
    let mut trainer = PliniusBuilder::new(setup.clone())
        .context(ctx)
        .backend(HybridTieredBackend::on_filesystem(
            ssd.clone(),
            "tier.ckpt",
            DEMOTE_EVERY,
        ))
        .build()?;
    trainer.run_at_most(12)?;
    println!(
        "life 1: trained to iteration {} with '{}' (demotions every {DEMOTE_EVERY} iters)",
        trainer.iteration(),
        trainer.backend().label(),
    );
    drop(trainer);

    // Life 2: the process is killed; unflushed PM lines are dropped but the pool
    // survives — the mirror restores the model with zero lost iterations.
    let mut crash_rng = StdRng::seed_from_u64(1);
    pool.crash(&mut crash_rng, plinius_pmem::CrashMode::DropUnflushed);
    let ctx2 = PliniusContext::open(pool, setup.cost.clone())?;
    ctx2.provision_key_directly(key.clone());
    let mut trainer = PliniusBuilder::new(setup.clone())
        .context(ctx2)
        .backend(HybridTieredBackend::on_filesystem(
            ssd.clone(),
            "tier.ckpt",
            DEMOTE_EVERY,
        ))
        .build()?;
    println!(
        "life 2: process crash -> PM mirror restored iteration {}",
        trainer.iteration()
    );
    trainer.run_at_most(7)?;
    let before_pm_loss = trainer.iteration();
    drop(trainer);

    // Life 3: the PM module itself is replaced — a brand-new pool holds neither the
    // mirror nor the dataset. Only the demoted SSD checkpoint survives; the new
    // deployment reopens it rebound to its own clock so I/O costs land on ctx3's
    // timeline, not the discarded one.
    let ctx3 = PliniusContext::create(setup.cost.clone(), setup.pm_bytes)?;
    ctx3.provision_key_directly(key);
    PmDataset::load(&ctx3, &setup.dataset)?;
    let ssd = ssd.rebound(ctx3.clock(), ctx3.stats());
    let mut trainer = PliniusBuilder::new(setup)
        .context(ctx3)
        .backend(HybridTieredBackend::on_filesystem(
            ssd,
            "tier.ckpt",
            DEMOTE_EVERY,
        ))
        .build()?;
    println!(
        "life 3: PM module lost at iteration {before_pm_loss} -> SSD checkpoint restored \
         iteration {} ({} iterations lost, bounded by the demotion interval)",
        trainer.iteration(),
        before_pm_loss - trainer.iteration()
    );
    let report = trainer.run()?;
    println!(
        "finished at iteration {} (final loss {:.4})",
        report.final_iteration,
        report.final_loss().unwrap_or(f32::NAN)
    );
    Ok(())
}
